import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (all_kripke, all_ternary, lambek_formulas, modal_formulas, sample_kripke,
                      sequents, ternary_stream)
from fnlkit import models as md
from fnlkit import sampling as smp
from fnlkit import syntax as sx
from fnlkit.errors import ModelError

p, q = sx.LAtom("p"), sx.LAtom("q")


def K(states, rel, val):
    return md.KripkeModel(tuple(states), frozenset(rel), {k: frozenset(v) for k, v in val.items()})


def T3(states, rel3, val, **kw):
    return md.TernaryModel(tuple(states), frozenset(rel3), {k: frozenset(v) for k, v in val.items()}, **kw)


# ---------------------------------------------------------------------------
# evaluation


def test_eval_modal_clauses():
    m = K(["w"], [], {"p": ["w"]})
    assert not md.eval_modal(m, "w", sx.MDia(sx.MAtom("p")))  # no successor
    assert not md.eval_modal(m, "w", sx.MBot())
    m2 = K(["w", "u"], [("w", "u")], {"p": ["u"]})
    assert md.eval_modal(m2, "w", sx.MDia(sx.MAtom("p")))
    assert md.eval_modal(m2, "w", sx.parse_modal("[](p \\/ ~p)"))
    assert not md.eval_modal(m2, "u", sx.parse_modal("p -> <>q"))
    with pytest.raises(ModelError):
        md.eval_modal(m2, "nope", sx.MBot())


def test_eval_lambek_product_and_slashes():
    j = T3(["a", "b", "c"], [("a", "b", "c")], {"p": ["b"], "q": ["c"]})
    assert md.eval_lambek(j, "a", sx.LProd(p, q))
    assert not md.eval_lambek(j, "b", sx.LProd(p, q))  # no triple headed at b
    j0 = T3(["a"], [], {})
    assert md.eval_lambek(j0, "a", sx.LUnder(p, q))  # vacuous universal
    # b \ q needs: for triples (v,w,a)... none end at a except through rel3
    assert md.eval_lambek(j, "c", sx.LUnder(p, sx.LProd(p, q)))


def test_eval_lambek_constants_and_unit():
    j = T3(["a"], [("a", "a", "a")], {"p": ["a"]})
    assert md.eval_lambek(j, "a", sx.TOP)
    assert not md.eval_lambek(j, "a", sx.BOT)
    with pytest.raises(ModelError):
        md.eval_lambek(j, "a", sx.ONE)
    ju = T3(["a", "e"], [("a", "e", "a"), ("a", "a", "e"), ("e", "e", "e")], {}, unit="e")
    assert md.eval_lambek(ju, "e", sx.ONE)
    assert not md.eval_lambek(ju, "a", sx.ONE)


def test_eval_fresh_atoms_use_rendered_names():
    f = sx.fresh_for(p)
    j = T3(["a"], [], {"p{p}": ["a"]})
    assert md.eval_lambek(j, "a", f)
    assert not md.eval_lambek(j, "a", sx.P_BOT)


def test_sequent_truth():
    j = T3(["a"], [], {"p": ["a"]})
    assert md.sequent_true(j, "a", sx.parse_sequent("p => p"))
    assert md.sequent_true(j, "a", sx.parse_sequent("=> top"))
    assert not md.sequent_true(j, "a", sx.parse_sequent("=> p /\\ ~p"))
    assert md.satisfies_assumptions(j, [])
    assert md.satisfies_assumptions(j, [sx.parse_sequent("p => top")])
    assert not md.satisfies_assumptions(j, [sx.parse_sequent("top => bot")])


def test_modal_operators_on_ternary_models():
    j = T3(["a", "b"], [], {"p": ["b"]}, dia=frozenset([("a", "b")]))
    assert md.eval_lambek(j, "a", sx.LDia(p))
    assert not md.eval_lambek(j, "b", sx.LDia(p))
    # box-down looks backwards along dia
    assert md.eval_lambek(j, "a", sx.LBoxDown(p))  # vacuous: nothing sees a
    assert not md.eval_lambek(j, "b", sx.LBoxDown(q))
    jfree = T3(["a"], [], {})
    with pytest.raises(ModelError):
        md.eval_lambek(jfree, "a", sx.LDia(p))


# ---------------------------------------------------------------------------
# invariants over sampled models


def _random_ternary(seed, **kw):
    rng = random.Random(seed)
    return smp.sample_ternary(rng, 4, ("p", "q"), **kw)


@settings(max_examples=40)
@given(lambek_formulas)
def test_negation_is_complementation(a):
    if any(isinstance(g, (sx.LOne, sx.LDia, sx.LBoxDown)) for g in sx.walk(a)):
        return
    j = _random_ternary(11)
    for u in j.states:
        assert md.eval_lambek(j, u, a) != md.eval_lambek(j, u, sx.LNot(a))


def test_distribution_semantically_exact():
    for seed in range(20):
        j = _random_ternary(seed)
        a, b, c = p, q, sx.LProd(p, q)
        lhs = sx.LAnd(a, sx.LOr(b, c))
        rhs = sx.LOr(sx.LAnd(a, b), sx.LAnd(a, c))
        for u in j.states:
            assert md.eval_lambek(j, u, lhs) == md.eval_lambek(j, u, rhs)


def test_residuation_on_samples():
    for seed in range(20):
        j = _random_ternary(seed)
        f = sx.LUnder(p, q)
        for u in j.states:
            if not md.eval_lambek(j, u, f):
                continue
            for (v, w, x) in j.rel3:
                if x == u and md.eval_lambek(j, w, p):
                    assert md.eval_lambek(j, v, q)


def test_unit_laws_on_unital_models():
    for seed in range(20):
        j = _random_ternary(seed, with_unit=True)
        for a in [p, q, sx.LAnd(p, q), sx.LProd(p, q), sx.LNot(p)]:
            for u in j.states:
                assert md.eval_lambek(j, u, sx.LProd(a, sx.ONE)) == md.eval_lambek(j, u, a)
                assert md.eval_lambek(j, u, sx.LProd(sx.ONE, a)) == md.eval_lambek(j, u, a)


# ---------------------------------------------------------------------------
# enumeration and sampling


def test_exhaustive_kripke_count():
    ms = list(all_kripke(1, ("p",)))
    assert len(ms) == 4  # 2 relations x 2 valuations
    assert len({(m.rel, m.val["p"]) for m in ms}) == 4


def test_exhaustive_ternary_count():
    js = list(all_ternary(2, ()))
    assert len(js) == 2 ** 8  # relation choices per valuation
    with pytest.raises(ModelError):
        next(all_ternary(3, ()))


def test_streams_deterministic():
    a = list(itertools.islice(ternary_stream(7, 4, ("p",)), 25))
    b = list(itertools.islice(ternary_stream(7, 4, ("p",)), 25))
    assert [md.ternary_to_json(x) for x in a] == [md.ternary_to_json(x) for x in b]
    c = list(itertools.islice(ternary_stream(8, 4, ("p",)), 25))
    assert [md.ternary_to_json(x) for x in a] != [md.ternary_to_json(x) for x in c]


def test_symmetric_and_unit_sampling():
    rng = random.Random(3)
    for _ in range(15):
        j = smp.sample_ternary(rng, 4, ("p",), symmetric=True)
        assert all((u, w, v) in j.rel3 for (u, v, w) in j.rel3)
        ju = smp.sample_ternary(rng, 3, ("p",), with_unit=True)
        assert ju.unit == "e"
        for u in ju.states:
            assert (u, "e", u) in ju.rel3 and (u, u, "e") in ju.rel3


# ---------------------------------------------------------------------------
# countermodels


def test_find_countermodel_hits():
    hit = smp.find_countermodel(sx.parse_sequent("=> p"))
    assert hit is not None
    j, u = hit
    assert not md.eval_lambek(j, u, p)


def test_find_countermodel_respects_assumptions():
    phi = (sx.parse_sequent("p => q"),)
    assert smp.find_countermodel(sx.parse_sequent("p => q"), phi) is None
    hit = smp.find_countermodel(sx.parse_sequent("q => p"), phi)
    assert hit is not None
    j, u = hit
    assert md.satisfies_assumptions(j, phi)
    assert md.eval_lambek(j, u, q) and not md.eval_lambek(j, u, p)


def test_find_countermodel_none_for_valid():
    budget = smp.SampleBudget(samples=250)
    assert smp.find_countermodel(sx.parse_sequent("=> p \\/ ~p"), (), budget) is None
    assert smp.find_countermodel(sx.parse_sequent("p /\\ (q \\/ p) => p"), (), budget) is None


def test_find_countermodel_rejects_vocabulary_the_models_lack():
    # raised up front, so a short-circuit that never reads the operator
    # cannot hide it
    for text in ("q => p /\\ <>p", "p => <>p", "q => p /\\ [v]p"):
        with pytest.raises(ModelError, match="without a dia relation"):
            smp.find_countermodel(sx.parse_sequent(text))
    with pytest.raises(ModelError, match="without a dia relation"):
        smp.find_countermodel(sx.parse_sequent("q => p"), (sx.parse_sequent("q => <>q"),))
    for text in ("q => p /\\ one", "p => one"):
        with pytest.raises(ModelError, match="without a unit"):
            smp.find_countermodel(sx.parse_sequent(text))
    hit = smp.find_countermodel(sx.parse_sequent("q => p /\\ one"), (),
                                smp.SampleBudget(with_unit=True))
    assert hit is not None and not md.sequent_true(hit[0], hit[1], sx.parse_sequent("q => p /\\ one"))
    assert smp.find_countermodel(sx.parse_sequent("p => <>p"), (),
                                 smp.SampleBudget(with_dia=True)) is not None


def test_sample_budget_rejects_state_bounds_outside_one_to_the_cap():
    for n in (0, -3, smp.STATE_CAP + 1):
        with pytest.raises(ModelError, match="max_states"):
            smp.SampleBudget(max_states=n)
    assert smp.SampleBudget(max_states=1).max_states == 1


def test_sample_budget_rejects_negative_samples():
    for n in (-1, -5):
        with pytest.raises(ModelError, match="samples"):
            smp.SampleBudget(samples=n)
    assert smp.SampleBudget(samples=0).samples == 0


def test_find_countermodel_rejects_bracketed_antecedents():
    # the models read an antecedent through its formula, which a bracket lacks
    for text in ("<p> => p", "q o <p> => p", "<<p>> => q"):
        with pytest.raises(ModelError, match="bracketed antecedent"):
            smp.find_countermodel(sx.parse_sequent(text))
    with pytest.raises(ModelError, match="bracketed antecedent"):
        smp.find_countermodel(sx.parse_sequent("p => q"), (sx.parse_sequent("<q> => p"),))
    with pytest.raises(ModelError, match="bracketed antecedent"):
        smp.find_countermodel(sx.parse_sequent("<p> => p"), (), smp.SampleBudget(with_dia=True))
    assert smp.find_countermodel(sx.parse_sequent("q o p => p")) is not None


def _plain_sequent(s, letters):
    # s in the ten connectives plain models interpret, over the given
    # letters: `one` reads as top, the modal operators and brackets are
    # dropped, and the k-th letter of s by name becomes letters[k % len]
    order = sorted(set().union(*map(sx.atom_keys, sx.sequent_formulas(s))))
    fold = {k: letters[i % len(letters)] for i, k in enumerate(order)}

    def f(a):
        if isinstance(a, sx.LAtom):
            return fold[a.name]
        if isinstance(a, sx.LFresh):
            return fold[sx.render_lambek(a)]
        if isinstance(a, sx.LOne):
            return sx.TOP
        if isinstance(a, (sx.LDia, sx.LBoxDown)):
            return f(a.a)
        if isinstance(a, sx.LNot):
            return sx.LNot(f(a.a))
        if isinstance(a, (sx.LAnd, sx.LOr, sx.LProd, sx.LUnder, sx.LOver)):
            return type(a)(f(a.l), f(a.r))
        return a

    def t(x):
        if isinstance(x, sx.SLeaf):
            return sx.SLeaf(f(x.f))
        if isinstance(x, sx.SNode):
            return sx.SNode(t(x.l), t(x.r))
        return t(x.a)

    return sx.Sequent(None if s.ant is None else t(s.ant), f(s.suc))


def _atoms(goal, phi):
    # the letters find_countermodel values, in its order
    keys = set().union(*(sx.atom_keys(f) for s in (goal, *phi) for f in sx.sequent_formulas(s)))
    return tuple(sorted(keys)) or ("p",)


# n = 2 stays at two letters: the reference then walks 4096 models
_KERNEL_LETTERS = {1: (p, q, sx.fresh_for(p), sx.P_TOP), 2: (p, sx.fresh_for(q))}


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=50)
@given(goal=sequents, assumption=st.one_of(st.none(), sequents), symmetric=st.booleans())
def test_kernel_keeps_exactly_the_reference_candidates(n, goal, assumption, symmetric):
    goal = _plain_sequent(goal, _KERNEL_LETTERS[n])
    phi = () if assumption is None else (_plain_sequent(assumption, _KERNEL_LETTERS[n]),)
    atoms = _atoms(goal, phi)
    expected = [
        j for j in all_ternary(n, atoms)
        if not (symmetric and any((u, w, v) not in j.rel3 for (u, v, w) in j.rel3))
        and md.satisfies_assumptions(j, phi)
        and any(not md.sequent_true(j, u, goal) for u in j.states)
    ]
    got = list(smp._exhaustive_ternary(n, atoms, goal, phi, symmetric))
    assert [md.ternary_to_json(j) for j in got] == [md.ternary_to_json(j) for j in expected]


@settings(max_examples=60)
@given(goal=sequents, assumption=sequents, with_dia=st.booleans(), seed=st.integers(0, 99))
def test_find_countermodel_returns_the_first_candidate_that_holds(goal, assumption, with_dia,
                                                                   seed):
    # with dia set the candidates are the samples alone, so the one member
    # of phi is what turns most of them away
    goal = _plain_sequent(goal, (p, q))
    phi = (_plain_sequent(assumption, (p, q)),)
    budget = smp.SampleBudget(seed=seed, samples=30, with_dia=with_dia)
    verdict = smp.chain_verdict(goal)
    atoms = _atoms(goal, phi)
    want = None
    for j in smp._candidate_ternary(goal, phi, atoms, budget, verdict):
        falsified = [u for u in j.states if not md.sequent_true(j, u, goal)]
        if falsified and md.satisfies_assumptions(j, phi):
            want = (md.ternary_to_json(j), falsified[0])
            break
    hit = smp.find_countermodel(goal, phi, budget, verdict)
    assert (None if hit is None else (md.ternary_to_json(hit[0]), hit[1])) == want


# ---------------------------------------------------------------------------
# json and validation


def test_model_json_roundtrip():
    j = _random_ternary(5, with_unit=True)
    j2 = md.ternary_from_json(md.ternary_to_json(j))
    assert j2.states == j.states and j2.rel3 == j.rel3 and j2.unit == j.unit
    m = K(["w", "u"], [("w", "u")], {"p": ["u"]})
    assert md.kripke_from_json(md.kripke_to_json(m)) == m
    loaded = md.model_from_json(md.kripke_to_json(m))
    assert isinstance(loaded, md.KripkeModel)


def test_model_validation():
    with pytest.raises(ModelError):
        K([], [], {})
    with pytest.raises(ModelError):
        K(["w"], [("w", "zzz")], {})
    with pytest.raises(ModelError):
        T3(["a"], [], {"p": ["b"]})
    with pytest.raises(ModelError):
        T3(["a", "e"], [("a", "e", "a")], {}, unit="e")  # triples missing
    with pytest.raises(ModelError):
        md.ternary_from_json({"states": ["a"], "rel": [["a", "a"]], "val": {}})


@settings(max_examples=25)
@given(modal_formulas)
def test_modal_eval_total_on_samples(f):
    m = sample_kripke(random.Random(1), 3, ("p", "q", "r", "s_1"))
    for w in m.states:
        assert md.eval_modal(m, w, f) in (True, False)
