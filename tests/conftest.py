"""Shared hypothesis strategies for formula/tree/sequent generation, and
the model helpers, derivation builders and readers and regression corpus
that only tests use."""

import itertools
import random
from dataclasses import dataclass

import hypothesis.strategies as st
from hypothesis import settings

from fnlkit import ktableau as kt
from fnlkit import lemmas as lm
from fnlkit import models as md
from fnlkit import proofs as pf
from fnlkit import sampling as smp
from fnlkit import syntax as sx
from fnlkit import transform as tr
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


TERNARY_EXHAUSTIVE_CAP = 2
KRIPKE_EXHAUSTIVE_CAP = 3


def all_ternary(n_states: int, atoms: tuple[str, ...]):
    """Every ternary model on n_states states over the atoms, one by one,
    in the order of the bit-parallel kernel in `sampling`, which it is the
    reference for."""
    if n_states > TERNARY_EXHAUSTIVE_CAP:
        raise ModelError(f"exhaustive cap is {TERNARY_EXHAUSTIVE_CAP} states")
    ws = smp._names(n_states)
    triples = tuple(itertools.product(ws, ws, ws))
    for rel in smp._subsets(triples):
        for vals in itertools.product(*(smp._subsets(ws) for _ in atoms)):
            val = {a: frozenset(v) for a, v in zip(atoms, vals)}
            yield md.TernaryModel(ws, frozenset(rel), val)


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


def closure_contains(spec: sx.ClosureSpec, f: sx.LFormula) -> bool:
    """Membership test; the closure itself is infinite, so no enumeration."""
    if f in spec.base:
        return True
    if isinstance(f, (sx.LAnd, sx.LOr)):
        return closure_contains(spec, f.l) and closure_contains(spec, f.r)
    if isinstance(f, sx.LNot) and spec.mode == "and_or_not":
        return closure_contains(spec, f.a)
    return False


def post_order_reference(d: pf.Derivation) -> list[pf.Derivation]:
    """Every node of d once, by identity, each after its premises, left to
    right: the recursive definition that `proofs.post_order` walks with a
    stack."""
    out: list[pf.Derivation] = []
    seen: set[int] = set()

    def visit(n: pf.Derivation):
        if id(n) not in seen:
            seen.add(id(n))
            for x in n.premises:
                visit(x)
            out.append(n)

    visit(d)
    return out


def formulas_of(d: pf.Derivation) -> frozenset[sx.LFormula]:
    out: set[sx.LFormula] = set()
    for n in pf.post_order(d):
        out.update(sx.sequent_formulas(n.seq))
    return frozenset(out)


def assumptions_of(d: pf.Derivation) -> frozenset[sx.Sequent]:
    """The assumption members a derivation actually leans on."""
    return frozenset(
        n.inst.member for n in pf.post_order(d) if n.rule == pf.ASSUMPTION
    )


# ---------------------------------------------------------------------------
# derivation builders the program does not call


def done_r() -> pf.Derivation:
    """=> one."""
    return pf.node(sx.Sequent(None, sx.ONE), pf.ONE_R, [], pf.Inst())


def dax_t(a: sx.LFormula) -> pf.Derivation:
    """A => <>A."""
    return pf.node(sx.simple(a, sx.LDia(a)), pf.AX_T, [], pf.Inst())


def dax_4(a: sx.LFormula) -> pf.Derivation:
    """<><>A => <>A."""
    return pf.node(sx.simple(sx.LDia(sx.LDia(a)), sx.LDia(a)), pf.AX_4, [], pf.Inst())


def dax_5(a: sx.LFormula) -> pf.Derivation:
    """<>A => ~<>~<>A."""
    seq = sx.simple(sx.LDia(a), sx.LNot(sx.LDia(sx.LNot(sx.LDia(a)))))
    return pf.node(seq, pf.AX_5, [], pf.Inst())


def dboxdown_l(d: pf.Derivation, path: pf.Path = ()) -> pf.Derivation:
    """From G[A] => B conclude G[< []vA >] => B."""
    ant = d.seq.ant
    x = pf.tree_at(ant, path) if ant is not None else None
    lm._fit(isinstance(x, sx.SLeaf), "no leaf at path")
    main = sx.LBoxDown(x.f)
    new = pf.tree_replace(ant, path, sx.SBracket(sx.SLeaf(main)))
    return pf.node(sx.Sequent(new, d.seq.suc), pf.BOXDOWN_L, [d], pf.Inst(path=path, main=main))


def dexch(d: pf.Derivation, path: pf.Path = ()) -> pf.Derivation:
    """From G[D2 o D1] => A conclude G[D1 o D2] => A."""
    ant = d.seq.ant
    x = pf.tree_at(ant, path) if ant is not None else None
    lm._fit(isinstance(x, sx.SNode), "no node at path")
    new = pf.tree_replace(ant, path, sx.SNode(x.r, x.l))
    return pf.node(sx.Sequent(new, d.seq.suc), pf.EXCH, [d], pf.Inst(path=path))


def done_l(d: pf.Derivation, path: pf.Path = (), side: str = "l") -> pf.Derivation:
    """From G[D] => A conclude G[one o D] => A (side "l") or G[D o one] => A."""
    ant = d.seq.ant
    lm._fit(ant is not None, "empty antecedent")
    sub = pf.tree_at(ant, path)
    unit = sx.SLeaf(sx.ONE)
    new_sub = sx.SNode(unit, sub) if side == "l" else sx.SNode(sub, unit)
    rule = pf.ONE_L_LEFT if side == "l" else pf.ONE_L_RIGHT
    seq = sx.Sequent(pf.tree_replace(ant, path, new_sub), d.seq.suc)
    return pf.node(seq, rule, [d], pf.Inst(path=path))


def fact7(d: pf.Derivation) -> pf.Derivation:
    """From A => B conclude => ~A \\/ B."""
    a = d.seq.ant.f if isinstance(d.seq.ant, sx.SLeaf) else None
    lm._fit(a is not None, "needs a simple premise")
    na = sx.LNot(a)
    out = sx.LOr(na, d.seq.suc)
    branch = lm.dor_l(lm.dor_r(d, out, 2), lm.dor_r(lm.did(na), out, 1), sx.LOr(a, na))
    return lm.le_trans(lm.dtop(None), lm.dneg2(a), branch)


def dist_prod_or(m: sx.LFormula, x: sx.LFormula, y: sx.LFormula) -> pf.Derivation:
    """M * (X \\/ Y) => (M * X) \\/ (M * Y)."""
    out = sx.LOr(sx.LProd(m, x), sx.LProd(m, y))
    left = lm.dor_r(lm.dprod_r(lm.did(m), lm.did(x)), out, 1)
    right = lm.dor_r(lm.dprod_r(lm.did(m), lm.did(y)), out, 2)
    return lm.dprod_l(lm.dor_l(left, right, sx.LOr(x, y), path=(1,)))


def undist_prod_or(m: sx.LFormula, x: sx.LFormula, y: sx.LFormula) -> pf.Derivation:
    """(M * X) \\/ (M * Y) => M * (X \\/ Y)."""
    xy = sx.LOr(x, y)
    left = lm.prod_mono(lm.did(m), lm.dor_r(lm.did(x), xy, 1))
    right = lm.prod_mono(lm.did(m), lm.dor_r(lm.did(y), xy, 2))
    return lm.dor_l(left, right, sx.LOr(sx.LProd(m, x), sx.LProd(m, y)))


def negrewrite_derivation(d: pf.Derivation) -> pf.Derivation:
    """The mechanical letter-to-negation rewrite of a whole derivation.
    Assumptions whose rewrite is a negation axiom instance become that
    axiom, so companion members disappear from the assumption footprint."""
    memo: dict = {}

    def step(n: pf.Derivation, prems):
        if n.rule == pf.ASSUMPTION:
            member = tr.negrewrite_sequent(n.inst.member, memo)
            ax = tr.neg_axiom(member)
            if ax is not None:
                return ax
            return pf.node(member, pf.ASSUMPTION, (), pf.Inst(member=member))
        return pf.node(tr.negrewrite_sequent(n.seq, memo), n.rule, prems,
                       tr._map_inst(n.inst, tr.negrewrite, tr.negrewrite_sequent, memo))

    return tr._map_derivation(d, step)


@dataclass(frozen=True)
class Fact:
    """One corpus entry: derive the premises first, then the conclusion."""

    label: str
    conclusion: sx.Sequent
    premises: tuple[sx.Sequent, ...] = ()


def facts_corpus() -> tuple[Fact, ...]:
    s = sx.parse_sequent
    cond = ("p /\\ q => p \\/ q",)
    pair8 = ("p => ~~p", "~~p => p")
    return (
        Fact("bounds-swap-a", s("~bot => top")),
        Fact("bounds-swap-b", s("top => ~bot")),
        Fact("bounds-swap-c", s("~top => bot")),
        Fact("bounds-swap-d", s("bot => ~top")),
        Fact("double-negation-a", s("p => ~~p")),
        Fact("double-negation-b", s("~~p => p")),
        Fact("de-morgan-and-a", s("~(p /\\ q) => ~p \\/ ~q")),
        Fact("de-morgan-and-b", s("~p \\/ ~q => ~(p /\\ q)")),
        Fact("de-morgan-or-a", s("~(p \\/ q) => ~p /\\ ~q")),
        Fact("de-morgan-or-b", s("~p /\\ ~q => ~(p \\/ q)")),
        Fact("distribute-and-a", s("p /\\ (q \\/ r) => (p /\\ q) \\/ (p /\\ r)")),
        Fact("distribute-and-b", s("(p /\\ q) \\/ (p /\\ r) => p /\\ (q \\/ r)")),
        Fact("distribute-or-a", s("p \\/ (q /\\ r) => (p \\/ q) /\\ (p \\/ r)")),
        Fact("distribute-or-b", s("(p \\/ q) /\\ (p \\/ r) => p \\/ (q /\\ r)")),
        Fact("distribute-prod-a", s("m * (p \\/ q) => (m * p) \\/ (m * q)")),
        Fact("distribute-prod-b", s("(m * p) \\/ (m * q) => m * (p \\/ q)")),
        Fact(
            "negation-antitone",
            s("~(p \\/ q) => ~(p /\\ q)"),
            tuple(s(t) for t in cond),
        ),
        Fact(
            "entails-as-theorem",
            s("=> ~(p /\\ q) \\/ (p \\/ q)"),
            tuple(s(t) for t in cond),
        ),
        Fact(
            "congruence-a",
            s("~(p * (p \\ q)) => ~(~~p * (~~p \\ q))"),
            tuple(s(t) for t in pair8),
        ),
        Fact(
            "congruence-b",
            s("~(~~p * (~~p \\ q)) => ~(p * (p \\ q))"),
            tuple(s(t) for t in pair8),
        ),
    )
