"""Budgeted proof search: strategy chain, iterative-deepening backward
search with analytic cut, and gated semantic refutation.

On the fragments where the semantics is known to match the calculus,
`derive` first reads the goal back up the reduction chain to a K
formula, once, and decides that with the K tableau.  A goal that reads
back to a K non-theorem goes straight to the countermodel search
without sampling: the exhaustively enumerated small models, then the K
countermodel pushed down the chain, which refutes it.  Every other goal
tries the closed-form strategies first and that search second.  Then
comes deepening depth-first search over the rule moves with cut
formulas drawn from a bounded closure of the problem's subformulas, and
finally, on the same fragments, the full countermodel search with
seeded sampling.  Proofs are re-validated by the independent checker
before they are returned; countermodels are re-evaluated on a fresh
copy.  Unknown is an honest first-class outcome."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Iterable, Optional

from . import checker as ck
from . import models as md
from . import proofs as pf
from . import rules
from . import sampling
from . import strategy as st
from . import syntax as sx
from .errors import LemmaError, ValidationError
from .systems import SystemSpec, validate_assumptions, validate_sequent

PROVED = "proved"
REFUTED = "refuted"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class SearchBudget:
    max_depth: int = 14
    max_goals: int = 40000
    cut_size: int = 0  # closure size bound for cut candidates
    time_cap_ms: int = 15000
    seed: int = 0
    samples: int = 600  # countermodel attempts
    refute: bool = True

    def __post_init__(self):
        if self.max_depth < 0 or self.max_goals <= 0 or self.time_cap_ms <= 0:
            raise ValidationError("budget limits must be positive")
        if self.cut_size < 0 or self.samples < 0:
            raise ValidationError("budget limits must be positive")


_BUDGET_KEYS = {
    "depth": "max_depth",
    "goals": "max_goals",
    "cutsize": "cut_size",
    "ms": "time_cap_ms",
    "seed": "seed",
    "samples": "samples",
}


def parse_budget(text: str) -> SearchBudget:
    """Budget string: comma-separated key:int pairs, e.g.
    "depth:30,goals:100000,cutsize:1,ms:30000"."""
    kw = {}
    for part in filter(None, (p.strip() for p in text.split(","))):
        key, _, val = part.partition(":")
        if key not in _BUDGET_KEYS:
            raise ValidationError(f"unknown budget key {key!r}; known: {sorted(_BUDGET_KEYS)}")
        try:
            kw[_BUDGET_KEYS[key]] = int(val)
        except ValueError:
            raise ValidationError(f"budget value for {key!r} must be an integer") from None
    return SearchBudget(**kw)


@dataclass(frozen=True)
class ProofResult:
    verdict: str  # proved | refuted | unknown
    derivation: Optional[pf.Derivation] = None
    model: Optional[md.TernaryModel] = None
    state: Optional[str] = None
    report: str = ""
    strategy: str = ""


def result_to_json(r: ProofResult) -> dict:
    out: dict = {"verdict": r.verdict}
    if r.derivation is not None:
        out["derivation"] = pf.to_json(r.derivation)
    if r.model is not None:
        out["model"] = md.ternary_to_json(r.model)
        out["state"] = r.state
    if r.report:
        out["report"] = r.report
    if r.strategy:
        out["strategy"] = r.strategy
    return out


# ---------------------------------------------------------------------------
# search


class _Exhausted(Exception):
    pass


def _cut_pool(sys: SystemSpec, phi, goal: sx.Sequent, budget: SearchBudget):
    base = set(sx.subformulas_of_problem(goal, phi))
    if sys.bounded:
        base |= {sx.TOP, sx.BOT}
    mode = "and_or_not" if sys.negation else "and_or"
    spec = sx.ClosureSpec(frozenset(base), mode, budget.cut_size)
    pool = set(spec.base) | set(sx.enumerate_closure(spec))
    return tuple(sorted(pool, key=sx.sort_key))


def _search(sys: SystemSpec, phi, goal: sx.Sequent, budget: SearchBudget,
            deadline: float) -> Optional[pf.Derivation]:
    pool = _cut_pool(sys, phi, goal, budget)
    proved: dict[sx.Sequent, pf.Derivation] = {}
    failed: dict[sx.Sequent, int] = {}
    goals = 0

    def dfs(g: sx.Sequent, depth: int, path: frozenset):
        # returns (derivation or None, clean); a failure is clean when no
        # branch was pruned by the cycle check, so it may be memoized
        nonlocal goals
        if g in proved:
            return proved[g], True
        if g in path:
            return None, False
        if failed.get(g, -1) >= depth:
            return None, True
        goals += 1
        if goals > budget.max_goals:
            raise _Exhausted
        if goals % 256 == 0 and time.monotonic() > deadline:
            raise _Exhausted
        path2 = path | {g}
        clean = True
        for rule, prems, inst in rules.rule_instances(sys, g, phi, pool):
            if prems and depth == 0:
                # deeper iterations will retry this move; no later move can
                # close g here, since every zero-premise move comes first
                clean = False
                break
            ds = []
            ok = True
            for p in prems:
                d, cl = dfs(p, depth - 1, path2)
                if d is None:
                    ok = False
                    clean = clean and cl
                    break
                ds.append(d)
            if ok:
                out = pf.node(g, rule, ds, inst)
                proved[g] = out
                return out, True
        if clean and failed.get(g, -1) < depth:
            failed[g] = depth
        return None, clean

    for depth in range(budget.max_depth + 1):
        try:
            d, _ = dfs(goal, depth, frozenset())
        except _Exhausted:
            return None
        if d is not None:
            return d
    return None


# ---------------------------------------------------------------------------
# refutation gate


def _refutation_ok(sys: SystemSpec, phi, goal: sx.Sequent) -> bool:
    """Countermodels refute only on fragments where truth in the sampled
    model class is implied by derivability: no modal vocabulary (plain
    models refute the modal systems only through their conservative
    fragment), and no residuals when the antecedent is empty (the empty
    residual introductions outrun the everywhere-true reading)."""
    v = sx.vocab(goal, *phi)
    if v & (sx.V_MODAL | sx.V_BRACKET):
        return False
    return not (goal.ant is None and v & sx.V_RESID)


# ---------------------------------------------------------------------------
# driver


def derive(sys: SystemSpec, phi: Iterable[sx.Sequent], goal: sx.Sequent,
           budget: Optional[SearchBudget] = None) -> ProofResult:
    """Three-valued derivability: Proved with a checked derivation,
    Refuted with a re-verified countermodel, or Unknown.

    Where `_refutation_ok` holds (and refutation is on), the goal is
    first read back to K and decided once (`sampling.chain_verdict`);
    every countermodel search of the call is handed that verdict, and
    one that reads back to nothing gets no transfer.  Phases,
    in order: the strategy chain; where `_refutation_ok` holds, the
    countermodel search without samples (the exhaustive small models,
    then the transferred K countermodel); backward search; where
    `_refutation_ok` holds, the full countermodel search (which repeats
    the first two stages, then samples).  For a goal that reads back to a
    K non-theorem the search without samples comes first, before the
    strategy chain, which cannot prove it.  The first phase that decides
    ends the call.  Recursive calls from the strategies run with
    refutation off, so they read nothing back."""
    budget = budget or SearchBudget()
    phi = frozenset(phi)
    validate_sequent(sys, goal)
    validate_assumptions(sys, phi)
    deadline = time.monotonic() + budget.time_cap_ms / 1000.0

    def recurse(sys2, phi2, goal2):
        left = max(1, int((deadline - time.monotonic()) * 1000))
        sub = derive(sys2, phi2, goal2, replace(budget, refute=False, time_cap_ms=left))
        return sub.derivation if sub.verdict == PROVED else None

    refute = budget.refute and _refutation_ok(sys, phi, goal)
    verdict = sampling.chain_verdict(goal) if refute else None

    def countermodel(samples: int) -> Optional[ProofResult]:
        sb = sampling.SampleBudget(seed=budget.seed, samples=samples,
                                   symmetric=sys.exchange, with_unit=sys.unit)
        hit = sampling.find_countermodel(goal, phi, sb, verdict)
        return None if hit is None else ProofResult(REFUTED, model=hit[0], state=hit[1])

    # the small models and the transfer (samples=0): a hit there is the
    # first hit of the full call, and costs far less than the search; for
    # a goal that reads back to a K non-theorem it comes before the
    # strategies, which cannot prove it
    early = verdict is not None and not verdict.valid
    if early:
        r = countermodel(0)
        if r is not None:
            return r

    for name, fn in st.STRATEGIES:
        try:
            d = fn(sys, phi, goal, recurse)
        except LemmaError:
            d = None
        if d is not None and d.seq == goal and ck.check_derivation(sys, phi, d):
            return ProofResult(PROVED, derivation=d, strategy=name)

    if refute and not early:
        r = countermodel(0)
        if r is not None:
            return r

    d = _search(sys, phi, goal, budget, deadline)
    if d is not None and ck.check_derivation(sys, phi, d):
        return ProofResult(PROVED, derivation=d, strategy="search")

    if refute:
        r = countermodel(budget.samples)
        if r is not None:
            return r

    report = (
        f"no proof within depth {budget.max_depth}, {budget.max_goals} goals, "
        f"{budget.time_cap_ms}ms; no countermodel"
        + ("" if budget.refute else " (refutation off)")
    )
    return ProofResult(UNKNOWN, report=report)
