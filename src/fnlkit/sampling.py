"""Model enumeration, seeded sampling, and countermodel search.

Exhaustive enumeration is capped hard (3 states binary, 2 states ternary
-- the next size is 2^27 relations); beyond the caps everything is seeded
pseudo-random, so equal seeds give equal streams.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from . import models as md
from . import syntax as sx
from .errors import ModelError

KRIPKE_EXHAUSTIVE_CAP = 3
TERNARY_EXHAUSTIVE_CAP = 2
STATE_CAP = 6


def _names(n: int) -> tuple[str, ...]:
    return tuple(f"s{i}" for i in range(n))


def _subsets(xs: tuple):
    for k in range(len(xs) + 1):
        yield from itertools.combinations(xs, k)


def all_kripke(n_states: int, atoms: tuple[str, ...]) -> Iterator[md.KripkeModel]:
    if n_states > KRIPKE_EXHAUSTIVE_CAP:
        raise ModelError(f"exhaustive cap is {KRIPKE_EXHAUSTIVE_CAP} states")
    ws = _names(n_states)
    pairs = tuple(itertools.product(ws, ws))
    for rel in _subsets(pairs):
        for vals in itertools.product(*(_subsets(ws) for _ in atoms)):
            val = {a: frozenset(v) for a, v in zip(atoms, vals)}
            yield md.KripkeModel(ws, frozenset(rel), val)


def all_ternary(n_states: int, atoms: tuple[str, ...]) -> Iterator[md.TernaryModel]:
    if n_states > TERNARY_EXHAUSTIVE_CAP:
        raise ModelError(f"exhaustive cap is {TERNARY_EXHAUSTIVE_CAP} states")
    ws = _names(n_states)
    triples = tuple(itertools.product(ws, ws, ws))
    for rel in _subsets(triples):
        for vals in itertools.product(*(_subsets(ws) for _ in atoms)):
            val = {a: frozenset(v) for a, v in zip(atoms, vals)}
            yield md.TernaryModel(ws, frozenset(rel), val)


def _rand_subset(rng: random.Random, xs: tuple, p: float) -> frozenset:
    return frozenset(x for x in xs if rng.random() < p)


def sample_kripke(rng: random.Random, max_states: int, atoms: tuple[str, ...]) -> md.KripkeModel:
    n = rng.randint(1, max_states)
    ws = _names(n)
    p = rng.choice([0.15, 0.3, 0.5, 0.8])
    rel = _rand_subset(rng, tuple(itertools.product(ws, ws)), p)
    val = {a: _rand_subset(rng, ws, 0.5) for a in atoms}
    return md.KripkeModel(ws, rel, val)


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


def ternary_stream(seed: int, max_states: int, atoms: tuple[str, ...], **kw) -> Iterator[md.TernaryModel]:
    rng = random.Random(seed)
    while True:
        yield sample_ternary(rng, max_states, atoms, **kw)


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
        if self.max_states > STATE_CAP:
            raise ModelError(f"state cap is {STATE_CAP}")


def _modal_counter(goal: sx.ModalFormula, budget: SampleBudget):
    atoms = tuple(sorted(sx.matoms(goal))) or ("p",)
    cap = 2 if len(atoms) <= 2 else 1
    for n in range(1, cap + 1):
        for m in all_kripke(n, atoms):
            for w in m.states:
                if not md.eval_modal(m, w, goal):
                    return m, w
    rng = random.Random(budget.seed)
    for _ in range(budget.samples):
        m = sample_kripke(rng, budget.max_states, atoms)
        for w in m.states:
            if not md.eval_modal(m, w, goal):
                return m, w
    return None


def _verify_ternary(j: md.TernaryModel, u: str, goal: sx.Sequent, phi) -> bool:
    # round-trip through the serialized form so a caching bug cannot
    # smuggle a bogus countermodel out
    j2 = md.ternary_from_json(md.ternary_to_json(j))
    return md.satisfies_assumptions(j2, phi) and not md.sequent_true(j2, u, goal)


def _candidate_ternary(atoms, budget: SampleBudget) -> Iterator[md.TernaryModel]:
    plain = not (budget.with_unit or budget.with_dia)
    if plain:
        if len(atoms) <= 4:
            yield from all_ternary(1, atoms)
        if len(atoms) <= 3:
            for j in all_ternary(2, atoms):
                if budget.symmetric and any((u, w, v) not in j.rel3 for (u, v, w) in j.rel3):
                    continue
                yield j
    rng = random.Random(budget.seed)
    kw = dict(
        symmetric=budget.symmetric,
        with_unit=budget.with_unit,
        with_dia=budget.with_dia,
    )
    for i in range(budget.samples):
        if plain and i % 5 == 4:
            from .transform import build_ternary_model  # circular at module level

            base = tuple(a for a in atoms if a != "m")[:3] or ("p",)
            km = sample_kripke(rng, 3, base)
            yield build_ternary_model(km, m_letter="m" if "m" in atoms else None,
                                      exchange=budget.symmetric)
        else:
            yield sample_ternary(rng, budget.max_states, atoms, **kw)


def find_countermodel(
    goal: Union[sx.Sequent, sx.ModalFormula],
    phi: tuple[sx.Sequent, ...] = (),
    budget: Optional[SampleBudget] = None,
):
    """Search for a model of phi falsifying the goal somewhere.

    Returns (model, state) or None; None is *not* a validity certificate.
    Every hit is re-verified on a fresh copy of the model before returning.
    """
    budget = budget or SampleBudget()
    if isinstance(goal, sx.ModalFormula):
        if phi:
            raise ModelError("assumptions are sequent-side only")
        return _modal_counter(goal, budget)
    keys: set[str] = set()
    for f in sx.sequent_formulas(goal):
        keys |= sx.atom_keys(f)
    for s in phi:
        for f in sx.sequent_formulas(s):
            keys |= sx.atom_keys(f)
    atoms = tuple(sorted(keys)) or ("p",)
    for j in _candidate_ternary(atoms, budget):
        if not md.satisfies_assumptions(j, phi):
            continue
        for u in j.states:
            if not md.sequent_true(j, u, goal):
                if _verify_ternary(j, u, goal, phi):
                    return j, u
    return None
