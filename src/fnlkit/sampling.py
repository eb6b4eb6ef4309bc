"""Model enumeration, seeded sampling, and countermodel search.

Exhaustive ternary enumeration is capped hard at 2 states (the next size
is 2^27 relations); beyond the cap everything is seeded pseudo-random, so
equal seeds give equal streams.

The countermodel search takes sequent goals only; a modal formula is
decided by `ktableau.k_decide` itself.  For a goal in the plain
vocabulary it tries, in order: the exhaustive 1- and 2-state ternary
models, the transferred K countermodel, then the seeded ternary samples.
The transfer takes the verdict of `chain_verdict`, which reads the goal
back up the reduction chain with the K reader `transform.read_k` (top as
~bot) and decides it with the K tableau, and pushes an invalid formula's
Kripke countermodel down again as a two-copy ternary model
(`_transfer_ternary`).  There every generated letter is read back the way
the chain reads it: p_A holds exactly where the read-back of A, with its
letters as negations and p_bot, p_top as the constants, fails.  The
caller finds the verdict, once: `prover.derive` per call, for every
countermodel search it makes, and the `countermodel` command per goal.
So every non-theorem of the chain is refuted without the samples, which,
facing its many companion and absorption assumptions, rarely draw one.

The exhaustive ternary stage does not build its models one by one.  A
bit-parallel kernel evaluates the goal and the assumptions in every
ternary model of 1 or 2 states at once: bit m of an int is the truth at
one state in the m-th model, the lattice connectives become `& | ^`, and
the product and residuals combine per-triple relation masks.

Every source of models only proposes candidates.  `find_countermodel`
takes a candidate's first state that falsifies the goal and returns the
model only when `_verify_ternary`, on a fresh copy read back from its
JSON, finds phi true and the goal false there.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Collection, Iterator, Optional

from . import models as md
from . import syntax as sx
from . import transform as tr
from .errors import ModelError
from .ktableau import TableauVerdict, k_decide

STATE_CAP = 6


def _names(n: int) -> tuple[str, ...]:
    return tuple(f"s{i}" for i in range(n))


def _subsets(xs: tuple):
    for k in range(len(xs) + 1):
        yield from itertools.combinations(xs, k)


def _rand_subset(rng: random.Random, xs: tuple, p: float) -> frozenset:
    return frozenset(x for x in xs if rng.random() < p)


def sample_ternary(
    rng: random.Random,
    max_states: int,
    atoms: tuple[str, ...],
    symmetric: bool = False,
    with_unit: bool = False,
    with_dia: bool = False,
) -> md.TernaryModel:
    if max_states > STATE_CAP:
        raise ModelError(f"state cap is {STATE_CAP}")
    n = rng.randint(1, max_states)
    ws = _names(n)
    p = rng.choice([0.1, 0.25, 0.5])
    rel = set(_rand_subset(rng, tuple(itertools.product(ws, ws, ws)), p))
    if symmetric:
        rel |= {(u, w, v) for (u, v, w) in rel}
    unit = None
    if with_unit:
        unit = "e"
        ws = ws + ("e",)
        for u in ws:
            rel.add((u, unit, u))
            rel.add((u, u, unit))
    dia = None
    if with_dia:
        dia = _rand_subset(rng, tuple(itertools.product(ws, ws)), rng.choice([0.2, 0.5]))
    # valuations cover unit state too, chosen after any extension
    val = {a: _rand_subset(rng, ws, 0.5) for a in atoms}
    return md.TernaryModel(ws, frozenset(rel), val, unit, dia)


# ---------------------------------------------------------------------------
# countermodel search


@dataclass
class SampleBudget:
    seed: int = 0
    max_states: int = 4
    samples: int = 1500
    symmetric: bool = False
    with_unit: bool = False
    with_dia: bool = False

    def __post_init__(self):
        if not 1 <= self.max_states <= STATE_CAP:
            raise ModelError(f"max_states must be between 1 and {STATE_CAP}")
        if self.samples < 0:
            raise ModelError("samples must be at least 0")


def _verify_ternary(j: md.TernaryModel, u: str, goal: sx.Sequent, phi) -> bool:
    # round-trip through the serialized form so a caching bug cannot
    # smuggle a bogus countermodel out
    j2 = md.ternary_from_json(md.ternary_to_json(j))
    return md.satisfies_assumptions(j2, phi) and not md.sequent_true(j2, u, goal)


# The exhaustive models are enumerated relation-major: the relations are
# the subsets of the triples in `_subsets` order, and under each one the
# valuations are the product of the letters' `_subsets` of the states.
# Model m has relation m // V and valuation m % V, for V valuations per
# relation; bit m of every mask below is about model m.


@functools.lru_cache(maxsize=None)
def _frame_masks(n_states: int, n_atoms: int):
    """Every ternary model on n_states states over n_atoms letters as
    masks: relations (as triples of state indices) and valuations in
    enumeration order, one mask per triple, per-state masks per letter, the
    symmetric-relation mask and the all-models mask."""
    ws = _names(n_states)
    triples = tuple(itertools.product(range(n_states), repeat=3))
    rels = tuple(_subsets(triples))
    vals = tuple(itertools.product(*(_subsets(ws) for _ in range(n_atoms))))
    by_triple = dict.fromkeys(triples, 0)
    for i, r in enumerate(rels):
        for t in r:
            by_triple[t] |= 1 << i
    # symmetric: each (u, v, w) present exactly when (u, w, v) is
    by_sym = (1 << len(rels)) - 1
    for (u, v, w), bits in by_triple.items():
        by_sym &= ~(bits ^ by_triple[u, w, v])
    # a relation's bit i becomes bits i*V .. i*V+V-1, one per valuation
    blocks = str.maketrans({"0": "0" * len(vals), "1": "1" * len(vals)})

    def spread(bits: int) -> int:
        return int(format(bits, f"0{len(rels)}b").translate(blocks), 2)

    full = (1 << (len(rels) * len(vals))) - 1
    every_relation = full // ((1 << len(vals)) - 1)
    letters = tuple(
        tuple(every_relation * sum(1 << k for k, vs in enumerate(vals) if w in vs[i]) for w in ws)
        for i in range(n_atoms)
    )
    rel = {t: spread(bits) for t, bits in by_triple.items()}
    return ws, rels, vals, rel, letters, spread(by_sym), full


def _exhaustive_ternary(n_states: int, atoms: tuple[str, ...], goal: sx.Sequent,
                        phi, symmetric: bool) -> Iterator[md.TernaryModel]:
    """The ternary models on n_states states over the atoms, symmetric ones
    only if asked, that satisfy phi and falsify the goal at some state, in
    enumeration order.  Formulas must lie in the plain vocabulary: no unit,
    no modal operators."""
    ws, rels, vals, rel, letters, sym, full = _frame_masks(n_states, len(atoms))
    span = range(n_states)
    pairs = tuple(itertools.product(span, span))
    keyed = dict(zip(atoms, letters))
    memo: dict = {}

    def ev(a: sx.LFormula) -> tuple[int, ...]:
        out = memo.get(a)
        if out is not None:
            return out
        if isinstance(a, sx.LAtom):
            out = keyed[a.name]
        elif isinstance(a, sx.LFresh):
            out = keyed[sx.render_lambek(a)]
        elif isinstance(a, sx.LBot):
            out = (0,) * n_states
        elif isinstance(a, sx.LTop):
            out = (full,) * n_states
        elif isinstance(a, sx.LNot):
            out = tuple(x ^ full for x in ev(a.a))
        elif isinstance(a, sx.LAnd):
            out = tuple(x & y for x, y in zip(ev(a.l), ev(a.r)))
        elif isinstance(a, sx.LOr):
            out = tuple(x | y for x, y in zip(ev(a.l), ev(a.r)))
        elif isinstance(a, sx.LProd):
            # some (u, v, w) with l at v and r at w
            l, r = ev(a.l), ev(a.r)
            out = tuple(_join(rel[u, v, w] & l[v] & r[w] for v, w in pairs) for u in span)
        elif isinstance(a, sx.LUnder):
            # no (v, w, u) with l at w and r false at v
            l, r = ev(a.l), ev(a.r)
            out = tuple(full ^ _join(rel[v, w, u] & l[w] & ~r[v] for v, w in pairs)
                        for u in span)
        elif isinstance(a, sx.LOver):
            # no (w, u, v) with r at v and l false at w
            l, r = ev(a.l), ev(a.r)
            out = tuple(full ^ _join(rel[w, u, v] & r[v] & ~l[w] for w, v in pairs)
                        for u in span)
        else:
            raise ModelError(f"no bit-parallel reading of {a!r}")
        memo[a] = out
        return out

    def holds(s: sx.Sequent) -> tuple[int, ...]:
        if s.ant is None:
            return ev(s.suc)
        return tuple((x ^ full) | y for x, y in zip(ev(sx.phi_of_tree(s.ant)), ev(s.suc)))

    keep = sym if symmetric else full
    for s in phi:
        keep &= functools.reduce(int.__and__, holds(s))
    if keep:
        keep &= full ^ functools.reduce(int.__and__, holds(goal))
    while keep:
        low = keep & -keep
        keep ^= low
        r, v = divmod(low.bit_length() - 1, len(vals))
        rel3 = frozenset((ws[a], ws[b], ws[c]) for a, b, c in rels[r])
        yield md.TernaryModel(ws, rel3, {a: frozenset(x) for a, x in zip(atoms, vals[v])})


def _join(masks) -> int:
    return functools.reduce(int.__or__, masks, 0)


_TOP_LEAVES = (sx.SLeaf(sx.TOP), sx.SLeaf(sx.P_TOP))


def chain_verdict(goal: sx.Sequent) -> Optional[TableauVerdict]:
    """The K tableau's verdict on the modal formula the goal reads back to
    up the reduction chain, or None when it reads back to none.

    The antecedent must be empty or a top or p_top leaf; this is checked
    before anything is mapped.  The succedent is read back through the
    section and letter inverses, then through `read_k`."""
    if goal.ant is not None and goal.ant not in _TOP_LEAVES:
        return None
    a = tr.read_k(tr.negrewrite(tr.section_inverse(goal.suc)))
    return None if a is None else k_decide(a)


def _transfer_ternary(goal: sx.Sequent, phi, symmetric: bool,
                      verdict: Optional[TableauVerdict]) -> Optional[md.TernaryModel]:
    """The K countermodel of the modal formula the goal pulls back to,
    pushed down the reduction chain; None when verdict, the goal's
    `chain_verdict`, is None (no transfer) or valid.

    The verdict's Kripke countermodel is doubled (with four triples per
    edge if symmetric), p_top holds everywhere and p_bot nowhere, and each
    generated letter reachable from the problem, through payloads too,
    holds exactly where its payload fails.  The payload is read back as
    the chain reads it, `negrewrite(section_inverse(payload))` over one
    memo, which leaves no letter to value first, and evaluated in the one
    doubled model."""
    if verdict is None or verdict.valid:
        return None
    letters: set = set()
    todo = [f for s in (goal, *phi) for f in sx.sequent_formulas(s)]
    while todo:
        for g in sx.walk(todo.pop()):
            if isinstance(g, sx.LFresh) and g.mark == "neg" and g not in letters:
                letters.add(g)
                todo.append(g.of)
    if any(sx.vocab(f.of) & (sx.V_UNIT | sx.V_MODAL) for f in letters):
        return None
    j = tr.build_ternary_model(verdict.model, exchange=symmetric)
    val = dict(j.val)
    val[sx.render_lambek(sx.P_TOP)] = frozenset(j.states)
    val[sx.render_lambek(sx.P_BOT)] = frozenset()
    memo: dict = {}
    for f in letters:
        back = tr.negrewrite(tr.section_inverse(f.of, memo), memo)
        val[sx.render_lambek(f)] = frozenset(
            u for u in j.states if not md.eval_lambek(j, u, back))
    return md.TernaryModel(j.states, j.rel3, val)


def _candidate_ternary(goal: sx.Sequent, phi, atoms, budget: SampleBudget,
                       verdict: Optional[TableauVerdict]) -> Iterator[md.TernaryModel]:
    plain = not (budget.with_unit or budget.with_dia)
    if plain:
        if len(atoms) <= 4:
            yield from _exhaustive_ternary(1, atoms, goal, phi, budget.symmetric)
        if len(atoms) <= 3:
            yield from _exhaustive_ternary(2, atoms, goal, phi, budget.symmetric)
        moved = _transfer_ternary(goal, phi, budget.symmetric, verdict)
        if moved is not None:
            yield moved
    rng = random.Random(budget.seed)
    for _ in range(budget.samples):
        yield sample_ternary(rng, budget.max_states, atoms, budget.symmetric,
                             budget.with_unit, budget.with_dia)


def find_countermodel(
    goal: sx.Sequent,
    phi: Collection[sx.Sequent] = (),
    budget: Optional[SampleBudget] = None,
    verdict: Optional[TableauVerdict] = None,
):
    """Search for a ternary model of phi falsifying the sequent goal
    somewhere.

    Returns (model, state) or None.  The search tries the exhaustive 1-
    and 2-state ternary models, then the transferred K countermodel of
    verdict, the goal's `chain_verdict` (which reads top as ~bot; None
    skips the transfer), then `budget.samples` ternary samples (the first
    two only without unit and dia, so a smallest model wins).  The order
    of phi changes no result.  Every candidate only proposes: its first
    state that falsifies the goal is checked by `_verify_ternary`, phi and
    the goal both, on a fresh copy of the model, and the first candidate
    that passes is returned.  None is *not* a validity certificate.
    A goal or assumption with a bracketed antecedent, which the models
    cannot read, `one` without `budget.with_unit`, or a modal operator
    without `budget.with_dia` raises the evaluator's ModelError before any
    model is tried, naming the first of these three it uses.
    """
    budget = budget or SampleBudget()
    v = sx.vocab(goal, *phi)
    if v & sx.V_BRACKET:
        raise ModelError(md.NO_BRACKET)
    if v & sx.V_UNIT and not budget.with_unit:
        raise ModelError(md.NO_UNIT)
    if v & sx.V_MODAL and not budget.with_dia:
        raise ModelError(md.NO_DIA)
    forms = [f for s in (goal, *phi) for f in sx.sequent_formulas(s)]
    keys = set().union(*map(sx.atom_keys, forms))
    atoms = tuple(sorted(keys)) or ("p",)
    for j in _candidate_ternary(goal, phi, atoms, budget, verdict):
        u = next((u for u in j.states if not md.sequent_true(j, u, goal)), None)
        if u is not None and _verify_ternary(j, u, goal, phi):
            return j, u
    return None
