"""Shared hypothesis strategies for formula/tree/sequent generation, and
model helpers that only tests use."""

import itertools
import random

import hypothesis.strategies as st
from hypothesis import settings

from fnlkit import ktableau as kt
from fnlkit import models as md
from fnlkit import sampling as smp
from fnlkit import syntax as sx
from fnlkit.errors import ModelError

# several property tests drive search or cold caches; wall-clock deadlines
# would only add flakiness
settings.register_profile("fnlkit", deadline=None)
settings.load_profile("fnlkit")

atom_names = st.sampled_from(["p", "q", "r", "s_1"])

modal_formulas = st.recursive(
    st.one_of(atom_names.map(sx.MAtom), st.just(sx.MBot())),
    lambda kids: st.one_of(
        st.builds(sx.MAnd, kids, kids),
        st.builds(sx.MOr, kids, kids),
        st.builds(sx.MImp, kids, kids),
        st.builds(sx.MNot, kids),
        st.builds(sx.MDia, kids),
    ),
    max_leaves=12,
)

_l_leaves = st.one_of(
    atom_names.map(sx.LAtom),
    st.sampled_from([sx.BOT, sx.TOP, sx.ONE, sx.P_BOT, sx.P_TOP]),
    atom_names.map(lambda n: sx.fresh_for(sx.LAtom(n))),
)

lambek_formulas = st.recursive(
    _l_leaves,
    lambda kids: st.one_of(
        st.builds(sx.LAnd, kids, kids),
        st.builds(sx.LOr, kids, kids),
        st.builds(sx.LNot, kids),
        st.builds(sx.LProd, kids, kids),
        st.builds(sx.LUnder, kids, kids),
        st.builds(sx.LOver, kids, kids),
        st.builds(sx.LDia, kids),
        st.builds(sx.LBoxDown, kids),
        st.builds(lambda a: sx.fresh_for(a), kids),
    ),
    max_leaves=10,
)

struct_trees = st.recursive(
    lambek_formulas.map(sx.SLeaf),
    lambda kids: st.one_of(st.builds(sx.SNode, kids, kids), st.builds(sx.SBracket, kids)),
    max_leaves=6,
)

sequents = st.builds(
    sx.Sequent, st.one_of(st.none(), struct_trees), lambek_formulas
)


def ternary_stream(seed: int, max_states: int, atoms: tuple[str, ...], **kw):
    """Endless seeded ternary samples; equal seeds give equal streams."""
    rng = random.Random(seed)
    while True:
        yield smp.sample_ternary(rng, max_states, atoms, **kw)


KRIPKE_EXHAUSTIVE_CAP = 3


def all_kripke(n_states: int, atoms: tuple[str, ...]):
    """Every Kripke model on n_states states over the atoms."""
    if n_states > KRIPKE_EXHAUSTIVE_CAP:
        raise ModelError(f"exhaustive cap is {KRIPKE_EXHAUSTIVE_CAP} states")
    ws = smp._names(n_states)
    pairs = tuple(itertools.product(ws, ws))
    for rel in smp._subsets(pairs):
        for vals in itertools.product(*(smp._subsets(ws) for _ in atoms)):
            val = {a: frozenset(v) for a, v in zip(atoms, vals)}
            yield md.KripkeModel(ws, frozenset(rel), val)


def sample_kripke(rng: random.Random, max_states: int, atoms: tuple[str, ...]) -> md.KripkeModel:
    """One seeded Kripke model of 1 to max_states states."""
    n = rng.randint(1, max_states)
    ws = smp._names(n)
    p = rng.choice([0.15, 0.3, 0.5, 0.8])
    rel = smp._rand_subset(rng, tuple(itertools.product(ws, ws)), p)
    val = {a: smp._rand_subset(rng, ws, 0.5) for a in atoms}
    return md.KripkeModel(ws, rel, val)


def k_satisfiable(a: sx.ModalFormula):
    """A Kripke model and state satisfying the formula, or None."""
    hit = kt._sat(frozenset({kt._nnf(a, True)}), {})
    if hit is None:
        return None
    model, root = kt._to_kripke(hit, sx.matoms(a))
    assert md.eval_modal(model, root, a), "open branch failed to satisfy the input"
    return model, root
