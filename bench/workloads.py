"""The four benchmark workloads: how each builds its commands from a seed
and how each judges the verdicts that come back.

Every command is a list of ``fnlkit`` CLI arguments.  Every budget sets
``ms:`` to MS_CAP, far above the longest command, so that a goal cap or
the depth decides each verdict and the wall clock never does.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

MS_CAP = 600_000

PROVED, REFUTED, UNKNOWN = "proved", "refuted", "unknown"

HERE = os.path.dirname(os.path.abspath(__file__))
LATTICE_RECORD = os.path.join(HERE, "lattice_verdicts.json")


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    group: str  # commands on the same input, judged together
    expect: str  # what the answer check knows about this input


@dataclass
class Workload:
    commands: list[Command]
    # judge(commands, verdicts, payloads) -> one failure reason or None per command
    judge: Callable[[list[Command], list, list], list[Optional[str]]]


# ---------------------------------------------------------------------------
# lattice-mix


LATTICE_SYSTEMS = ("bfnl-star",) + tuple(f"bfnl-star-{i}" for i in ("k", "t", "k4", "s4", "s5"))
LATTICE_POOL_SEED = 88  # the criterion-08 generator seed
LATTICE_POOL = 40
LATTICE_GOALS = 300


def _sample_lambek(sx, rng: random.Random, size: int, kinds: str, atoms):
    if size <= 0:
        return rng.choice(atoms)
    kind = rng.choice(kinds.split())
    if kind == "not":
        return sx.LNot(_sample_lambek(sx, rng, size - 1, kinds, atoms))
    cut = rng.randint(0, size - 1)
    l = _sample_lambek(sx, rng, cut, kinds, atoms)
    r = _sample_lambek(sx, rng, size - 1 - cut, kinds, atoms)
    ctor = {"and": sx.LAnd, "or": sx.LOr, "prod": sx.LProd,
            "under": sx.LUnder, "over": sx.LOver}[kind]
    return ctor(l, r)


def lattice_pool(sx, count: int) -> list[str]:
    """The first count sequents of the criterion-08 generator: one-leaf
    sequents over p, q, top, bot with at most five connectives."""
    rng = random.Random(LATTICE_POOL_SEED)
    atoms = [sx.LAtom("p"), sx.LAtom("q"), sx.TOP, sx.BOT]
    kinds = "and or not and or not prod under over"
    out = []
    for _ in range(count):
        size = rng.randint(1, 5)
        cut = rng.randint(0, size - 1)
        ant = _sample_lambek(sx, rng, cut, kinds, atoms)
        suc = _sample_lambek(sx, rng, size - 1 - cut, kinds, atoms)
        out.append(sx.render_sequent(sx.Sequent(sx.SLeaf(ant), suc)))
    return out


def lattice_budget(seed: int) -> str:
    return f"depth:6,goals:{LATTICE_GOALS},samples:180,seed:{seed},ms:{MS_CAP}"


def lattice_argv(goal: str, system: str, seed: int) -> tuple[str, ...]:
    return ("prove", goal, "--system", system, "--budget", lattice_budget(seed))


def _judge_lattice(cmds, verdicts, payloads):
    # a flip against the recorded verdict fails the command; so does any
    # decided verdict of a sequent that is proved in one system and
    # refuted in another
    out: list[Optional[str]] = [None] * len(cmds)
    by_goal: dict[str, set] = {}
    for c, v in zip(cmds, verdicts):
        by_goal.setdefault(c.group, set()).add(v)
    for i, (c, v) in enumerate(zip(cmds, verdicts)):
        if {v, c.expect} == {PROVED, REFUTED}:
            out[i] = f"{v}, recorded {c.expect}"
        elif v in (PROVED, REFUTED) and {PROVED, REFUTED} <= by_goal[c.group]:
            out[i] = "systems disagree"
    return out


def lattice_mix(fk, seed: int, workdir: str, small: bool = False) -> Workload:
    with open(LATTICE_RECORD, encoding="utf-8") as fh:
        record = json.load(fh)
    if record["budget"] != lattice_budget(0):
        raise SystemExit(f"{LATTICE_RECORD} was recorded with another budget; rerun record.py")
    pool = lattice_pool(fk.syntax, LATTICE_POOL)
    if [row["goal"] for row in record["verdicts"]] != pool:
        raise SystemExit(f"{LATTICE_RECORD} does not match the generator; rerun record.py")
    cmds = [
        Command(lattice_argv(row["goal"], system, seed), row["goal"], row[system])
        for row in record["verdicts"]
        for system in LATTICE_SYSTEMS
    ]
    random.Random(seed).shuffle(cmds)
    if small:
        cmds = cmds[:12]
    return Workload(cmds, _judge_lattice)


# ---------------------------------------------------------------------------
# companion-closure


COMPANION_DRAW = 200  # members per pass, out of 10,788


def _judge_all_proved(cmds, verdicts, payloads):
    return [None if v == PROVED else f"{v}, expected proved" for v in verdicts]


def companion_closure(fk, seed: int, workdir: str, small: bool = False) -> Workload:
    sx, tr = fk.syntax, fk.transform
    t = frozenset([sx.LAtom("p"), sx.LAtom("q"), sx.TOP, sx.BOT])
    members = sx.enumerate_closure(sx.ClosureSpec(t, "and_or", 3))
    if len(members) != 10788:
        raise SystemExit(f"c(T) at 3 connectives has {len(members)} members, expected 10788")
    psi = os.path.join(workdir, "psi.txt")
    with open(psi, "w", encoding="utf-8") as fh:
        for s in sorted(tr.psi_set(t), key=sx.render_sequent):
            fh.write(sx.render_sequent(s) + "\n")
    budget = f"depth:6,goals:2000,samples:0,seed:{seed},ms:{MS_CAP}"
    # one member from each of COMPANION_DRAW equal blocks of the closure in
    # its (size, text) order: a plain random draw of this size moves the
    # pass time and output size by 4-6% from seed to seed
    rng = random.Random(seed)
    draw = 3 if small else COMPANION_DRAW
    cmds = []
    for b in range(draw):
        lo, hi = b * len(members) // draw, (b + 1) * len(members) // draw
        f = members[rng.randrange(lo, hi)]
        ft = tr.tilde_ext(f)
        for g in (sx.Sequent(sx.SLeaf(sx.LAnd(f, ft)), sx.BOT),
                  sx.Sequent(sx.SLeaf(sx.LOr(f, ft)), sx.TOP)):
            text = sx.render_sequent(g)
            argv = ("prove", text, "--system", "bdfnl-star", "--assumptions", psi,
                    "--budget", budget)
            cmds.append(Command(argv, text, PROVED))
    return Workload(cmds, _judge_all_proved)


# ---------------------------------------------------------------------------
# k-pipeline: the criterion-02 corpus, 29 theorems and 17 non-theorems


K_INSTANCES = [
    "[](p -> q) -> ([]p -> []q)",
    "[](q -> p) -> ([]q -> []p)",
    "[]((p /\\ q) -> (p \\/ q)) -> ([](p /\\ q) -> [](p \\/ q))",
    "[](p -> (q -> p)) -> ([]p -> [](q -> p))",
    "[](bot -> p) -> ([]bot -> []p)",
    "[](<>p -> <>p) -> ([]<>p -> []<>p)",
]
TAUTOLOGIES = [
    "p -> p", "~(p /\\ ~p)", "(p -> q) \\/ p", "((p -> q) -> p) -> p",
    "(p /\\ q) -> p", "p -> (q -> p)", "(p /\\ (p -> q)) -> q", "(p -> q) \\/ (q -> p)",
]
MODAL_THEOREMS = [
    "<>(p \\/ q) -> (<>p \\/ <>q)", "(<>p \\/ <>q) -> <>(p \\/ q)",
    "[](p /\\ q) -> ([]p /\\ []q)", "([]p /\\ []q) -> [](p /\\ q)",
    "[](p /\\ q) -> []p", "~<>bot", "[](p -> q) -> (<>p -> <>q)",
    "<>(p /\\ q) -> (<>p /\\ <>q)", "[]p -> [](q -> p)", "<>bot -> p",
]
NECESSITATED = ["p -> p", "~(p /\\ ~p)", K_INSTANCES[0]]  # each as [](A)
MODUS_PONENS = ["(p -> p) -> ~(q /\\ ~q)", "~(q /\\ ~q)"]
NON_THEOREMS = [
    "[]p -> p", "<>p", "p", "[]p -> [][]p", "p -> []<>p", "<>p -> []p",
    "[](p \\/ q) -> ([]p \\/ []q)", "bot", "<>p -> p", "p -> []p",
    "(<>p /\\ <>q) -> <>(p /\\ q)", "<>(p -> p)", "[]bot", "q -> p", "~p",
    "<><>p -> <>p", "p \\/ q",
]
K_GOALS = 150
K_SAMPLES = 100
# With 9-247 assumptions a sampled countermodel is luck of the draw:
# sampler seeds 1-5 refuted 4 to 7 of the 17 non-theorems, which moves the
# pass time by over 10%.  So the sampler seed is fixed and --seed only
# orders the corpus.
K_SAMPLER_SEED = 0


def k_corpus() -> list[str]:
    return (K_INSTANCES + TAUTOLOGIES + MODAL_THEOREMS
            + [f"[]({a})" for a in NECESSITATED] + MODUS_PONENS + NON_THEOREMS)


def _judge_k(cmds, verdicts, payloads):
    out: list[Optional[str]] = []
    for c, v in zip(cmds, verdicts):
        if c.expect == "valid" and v == REFUTED:
            out.append("valid formula refuted")
        elif c.expect == "invalid" and v == PROVED:
            out.append("invalid formula proved")
        else:
            out.append(None)
    return out


def k_pipeline(fk, seed: int, workdir: str, small: bool = False) -> Workload:
    budget = f"goals:{K_GOALS},samples:{K_SAMPLES},seed:{K_SAMPLER_SEED},ms:{MS_CAP}"
    cmds = []
    for text in k_corpus():
        valid = fk.ktableau.k_decide(fk.syntax.parse_modal(text)).valid
        argv = ("pipeline", text, "--run-prover", "--budget", budget)
        cmds.append(Command(argv, text, "valid" if valid else "invalid"))
    random.Random(seed).shuffle(cmds)
    if small:
        cmds = cmds[:4]
    return Workload(cmds, _judge_k)


# ---------------------------------------------------------------------------
# deep-towers


# Time grows faster than n^2 (n=40 takes about 0.3 s, n=64 about 1 s and
# n=200 about 8 s per command), and a run needs several passes for steady
# per-command medians, so the heights stop at 40.  They are fixed: --seed
# only orders the commands.
TOWER_SERIES = tuple(range(2, 41, 2))


def _judge_towers(cmds, verdicts, payloads):
    out = _judge_all_proved(cmds, verdicts, payloads)
    for i, p in enumerate(payloads):
        if out[i] is None and p.get("recheck") != "derivation reloaded and accepted":
            out[i] = f"recheck: {p.get('recheck')}"
    return out


def deep_towers(fk, seed: int, workdir: str, small: bool = False) -> Workload:
    series = TOWER_SERIES[:3] if small else TOWER_SERIES
    budget = f"depth:6,goals:2000,samples:0,seed:{seed},ms:{MS_CAP}"
    cmds = []
    for n in series:
        for text in ("~" * n + "p => p", "p => " + "~" * n + "p"):
            argv = ("prove", text, "--system", "bfnl-star", "--recheck", "--budget", budget)
            cmds.append(Command(argv, f"n={n}", PROVED))
    random.Random(seed).shuffle(cmds)
    return Workload(cmds, _judge_towers)


WORKLOADS = {
    "lattice-mix": lattice_mix,
    "companion-closure": companion_closure,
    "k-pipeline": k_pipeline,
    "deep-towers": deep_towers,
}
