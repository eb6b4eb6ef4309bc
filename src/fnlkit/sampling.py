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

Every source of models only proposes candidates that falsify the goal
somewhere: the kernel and the sampler check the goal themselves, the
transfer by construction.  `find_countermodel` returns a candidate only
when `_verify_ternary`, on a fresh copy read back from its JSON, finds
phi true at every state, and it takes the first state where the goal
fails there, the lowest bit outside the goal's extension
(`models.sequent_extension`), with one extension memo for the copy.  The
transfer values its generated letters by extension too, with one memo
for the whole doubled model.
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


def _verify_ternary(j: md.TernaryModel, goal: sx.Sequent, phi) -> Optional[str]:
    """The first state of j where the goal fails, the lowest bit outside
    its extension, when phi holds at every state of j; else None.  Read on
    a fresh copy of j from its JSON, so a caching bug cannot smuggle a
    bogus countermodel out; the goal and phi share one extension memo."""
    j2 = md.ternary_from_json(md.ternary_to_json(j))
    memo: dict = {}
    bad = ((1 << len(j2.states)) - 1) & ~md.sequent_extension(j2, goal, memo)
    if not bad or not md.satisfies_assumptions(j2, phi, memo):
        return None
    return j2.states[(bad & -bad).bit_length() - 1]


# The exhaustive models are numbered one bit per choice.  Over n states and
# k letters, the low n*k bits of a model's number m are its valuation, with
# letter i true at state w on bit (k-1-i)*n + w, and the high n^3 bits are
# its relation, with bit t for the t-th triple of
# `itertools.product(range(n), repeat=3)`.  Bit m of every mask below is
# about model m, so the mask of one choice (one triple, or one letter at one
# state) is periodic: the high h bits of every 2h-bit block, where h = 2^b
# for the choice's bit b of m.
#
# The models still come out in `_subsets` order, the order of the
# reference enumeration: the relations as `_subsets` of the triples (fewest
# triples first), and under each relation its valuations in ascending
# number.  For n <= 2 the `_subsets` of the states, read as bits, are
# 0, 1, 2, 3 in order, so ascending valuation numbers are the product of
# the letters' `_subsets` of the states, first letter outermost.


@functools.lru_cache(maxsize=None)
def _frame_masks(n_states: int, n_atoms: int):
    """Every ternary model on n_states states over n_atoms letters as masks,
    in the numbering above: one mask per triple of state indices, per-state
    masks per letter, the symmetric-relation mask and the all-models
    mask."""
    low = n_states * n_atoms
    width = 1 << (low + n_states ** 3)
    triples = itertools.product(range(n_states), repeat=3)
    rel = {t: md.periodic(1 << (low + i), width) for i, t in enumerate(triples)}
    letters = tuple(
        tuple(md.periodic(1 << ((n_atoms - 1 - i) * n_states + w), width)
              for w in range(n_states))
        for i in range(n_atoms)
    )
    full = (1 << width) - 1
    # symmetric: each (u, v, w) present exactly when (u, w, v) is
    sym = full
    for (u, v, w), bits in rel.items():
        if v < w:
            sym &= full ^ bits ^ rel[u, w, v]
    return rel, letters, sym, full


def _exhaustive_ternary(n_states: int, atoms: tuple[str, ...], goal: sx.Sequent,
                        phi, symmetric: bool) -> Iterator[md.TernaryModel]:
    """The ternary models on n_states states over the atoms, symmetric ones
    only if asked, that satisfy phi and falsify the goal at some state, in
    enumeration order.  Formulas must lie in the plain vocabulary: no unit,
    no modal operators."""
    rel, letters, sym, full = _frame_masks(n_states, len(atoms))
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
    if not keep:
        return
    ws = _names(n_states)
    triples = tuple(itertools.product(ws, ws, ws))
    low = n_states * len(atoms)
    every_valuation = (1 << (1 << low)) - 1
    shifts = tuple(((len(atoms) - 1 - i) * n_states, a) for i, a in enumerate(atoms))
    for r in _subsets(tuple(range(n_states ** 3))):
        # the models with relation r, one bit per valuation
        block = (keep >> (sum(1 << t for t in r) << low)) & every_valuation
        if not block:
            continue
        rel3 = frozenset(triples[t] for t in r)
        while block:
            v = (block & -block).bit_length() - 1
            block &= block - 1
            yield md.TernaryModel(ws, rel3, {
                a: frozenset(ws[w] for w in span if v >> (at + w) & 1) for at, a in shifts})


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


def _generated_letters(letters) -> set:
    """The generated letters of a problem, given as letters, and of their
    payloads in turn: one walk of the distinct subformulas of the new
    letters' payloads at a time, until none is new."""
    out = set(letters)
    new = out
    while new:
        fs = sx.subformulas_many(g.of for g in new)
        new = {g for g in fs if isinstance(g, sx.LFresh) and g.mark == "neg"} - out
        out |= new
    return out


def _transfer_ternary(fresh, symmetric: bool,
                      verdict: Optional[TableauVerdict]) -> Optional[md.TernaryModel]:
    """The K countermodel of the modal formula the goal pulls back to,
    pushed down the reduction chain; None when verdict, the goal's
    `chain_verdict`, is None (no transfer) or valid.  fresh holds the
    generated letters of the problem (`_letters`).

    The verdict's Kripke countermodel is doubled (with four triples per
    edge if symmetric), p_top holds everywhere and p_bot nowhere, and each
    generated letter reachable from the problem, through payloads too
    (`_generated_letters`, over distinct subformulas, not per member),
    holds exactly where its payload fails.  The payload is read back as
    the chain reads it, `negrewrite(section_inverse(payload))` over one
    memo, which leaves no letter to value first, and its extension in the
    one doubled model is taken over one memo too."""
    if verdict is None or verdict.valid:
        return None
    letters = _generated_letters(fresh)
    if any(sx.vocab(f.of) & (sx.V_UNIT | sx.V_MODAL) for f in letters):
        return None
    j = tr.build_ternary_model(verdict.model, exchange=symmetric)
    val = dict(j.val)
    val[sx.render_lambek(sx.P_TOP)] = frozenset(j.states)
    val[sx.render_lambek(sx.P_BOT)] = frozenset()
    memo: dict = {}
    names: dict = {}
    extents: dict = {}
    for f in letters:
        holds = md.extension(j, tr.negrewrite(tr.section_inverse(f.of, memo), memo), extents)
        val[sx.render_lambek(f, names)] = frozenset(
            u for i, u in enumerate(j.states) if not holds >> i & 1)
    return md.TernaryModel(j.states, j.rel3, val)


def _candidate_ternary(goal: sx.Sequent, phi, atoms, fresh, budget: SampleBudget,
                       verdict: Optional[TableauVerdict]) -> Iterator[md.TernaryModel]:
    plain = not (budget.with_unit or budget.with_dia)
    if plain:
        if len(atoms) <= 4:
            yield from _exhaustive_ternary(1, atoms, goal, phi, budget.symmetric)
        if len(atoms) <= 3:
            yield from _exhaustive_ternary(2, atoms, goal, phi, budget.symmetric)
        moved = _transfer_ternary(fresh, budget.symmetric, verdict)
        if moved is not None:
            yield moved
    rng = random.Random(budget.seed)
    for _ in range(budget.samples):
        j = sample_ternary(rng, budget.max_states, atoms, budget.symmetric,
                           budget.with_unit, budget.with_dia)
        if not md.sequent_true_everywhere(j, goal):
            yield j


def _letters(goal: sx.Sequent, phi) -> tuple[tuple[str, ...], set]:
    """The letters the models value, sorted (p alone when there is none),
    and the problem's generated letters, from one `sx.atom_keys` walk over
    the goal and phi together."""
    fresh: set = set()
    keys = sx.atom_keys(*(f for s in (goal, *phi) for f in sx.sequent_formulas(s)),
                        fresh=fresh)
    return tuple(sorted(keys)) or ("p",), fresh


def find_countermodel(
    goal: sx.Sequent,
    phi: Collection[sx.Sequent] = (),
    budget: Optional[SampleBudget] = None,
    verdict: Optional[TableauVerdict] = None,
):
    """Search for a ternary model of phi falsifying the sequent goal
    somewhere.

    Returns (model, state) or None.  The models value the problem's
    letters, collected by one `sx.atom_keys` walk over the goal and phi
    together (`_letters`), which enters each subformula once, renders each
    fresh letter once and also gathers the generated letters the transfer
    values.  The search tries the exhaustive 1- and 2-state ternary models
    (at most 4 and 3 letters), then the transferred K countermodel of
    verdict, the goal's `chain_verdict` (which reads top as ~bot; None
    skips the transfer), then `budget.samples` ternary samples (the first
    two only without unit and dia, so a smallest model wins).  The order
    of phi changes no result.  Every candidate only proposes: the first
    candidate that `_verify_ternary` accepts, phi and the goal both, on a
    fresh copy of the model, is returned with the first state where the
    goal fails, the lowest bit outside the goal's extension.  None is
    *not* a validity certificate.

    Errors come from the vocabulary of the goal and phi, before any model
    is tried: a bracketed antecedent, which the models cannot read, `one`
    without `budget.with_unit`, or a modal operator without
    `budget.with_dia` raises the ModelError of the first of these three
    (`md.check_vocab`).
    """
    budget = budget or SampleBudget()
    md.check_vocab(sx.vocab(goal, *phi), budget.with_unit, budget.with_dia)
    atoms, fresh = _letters(goal, phi)
    for j in _candidate_ternary(goal, phi, atoms, fresh, budget, verdict):
        u = _verify_ternary(j, goal, phi)
        if u is not None:
            return j, u
    return None
