"""The two independent K engines: the proof-producing sequent prover and
the tableau decision procedure, cross-checked against each other, against
exhaustive model enumeration, and against the closure properties of
validity."""

import itertools
import random

import pytest

from conftest import all_kripke, k_satisfiable
from fnlkit import checker as ck
from fnlkit import gk
from fnlkit import ktableau as kt
from fnlkit import models as md
from fnlkit import proofs as pf
from fnlkit import strategy
from fnlkit import syntax as sx
from fnlkit import transform as tr
from fnlkit.prover import SearchBudget, derive
from fnlkit.systems import SYSTEMS, get_system
from test_acceptance import corpus

BF = get_system("bfnl-star")

P, Q = sx.MAtom("p"), sx.MAtom("q")


def box(a):
    return sx.MNot(sx.MDia(sx.MNot(a)))


def m(text):
    return sx.parse_modal(text)


VALID = [
    "[](p -> q) -> ([]p -> []q)",
    "<>(p \\/ q) -> (<>p \\/ <>q)",
    "(<>p \\/ <>q) -> <>(p \\/ q)",
    "([]p /\\ []q) -> [](p /\\ q)",
    "p -> p",
    "(p -> bot) \\/ p",
    "~(p /\\ ~p)",
    "[](p /\\ q) -> []p",
    "~<>bot",
]

INVALID = [
    "p",
    "<>p",
    "[]p -> p",          # T fails in K
    "[]p -> [][]p",      # 4 fails in K
    "p -> []<>p",        # B fails in K
    "<>p -> []p",
    "[](p \\/ q) -> ([]p \\/ []q)",
    "bot",
]


# ---------------------------------------------------------------------------
# tableau verdicts


def test_tableau_headline_verdicts():
    for text in VALID:
        v = kt.k_decide(m(text))
        assert v.valid, text
        assert v.trace.startswith("refutation set closed")
    for text in INVALID:
        v = kt.k_decide(m(text))
        assert not v.valid, text
        assert not md.eval_modal(v.model, v.root, m(text))


def test_tableau_diamond_needs_a_successor():
    v = kt.k_decide(m("<>p"))
    assert not v.valid
    assert len(v.model.states) == 1 and not v.model.rel


def test_tableau_separates_k_from_t():
    v = kt.k_decide(m("[]p -> p"))
    assert not v.valid
    # the countermodel makes the box vacuous while p fails at the root
    assert md.eval_modal(v.model, v.root, m("[]p"))
    assert not md.eval_modal(v.model, v.root, m("p"))


def test_tableau_goes_past_two_states():
    # falsified only where a state with neither letter sees a p-state and
    # a different q-state: three states, past any two-state enumeration
    goal = m("~(<>p /\\ <>q /\\ ~<>(p /\\ q) /\\ ~(p \\/ q))")
    v = kt.k_decide(goal)
    assert not v.valid
    assert len(v.model.states) >= 3 and not md.eval_modal(v.model, v.root, goal)


def test_tableau_models_are_trees_of_bounded_depth():
    for text in INVALID:
        f = m(text)
        v = kt.k_decide(f)
        model, root = v.model, v.root
        # every non-root state has exactly one incoming edge
        incoming = {w: 0 for w in model.states}
        for a, b in model.rel:
            incoming[b] += 1
        assert incoming[root] == 0
        assert all(n == 1 for w, n in incoming.items() if w != root)

        def depth(w):
            kids = [b for a, b in model.rel if a == w]
            return 1 + max((depth(k) for k in kids), default=0)

        def modal_depth(g):
            if isinstance(g, sx.MDia):
                return 1 + modal_depth(g.a)
            if isinstance(g, (sx.MAnd, sx.MOr, sx.MImp)):
                return max(modal_depth(g.l), modal_depth(g.r))
            if isinstance(g, sx.MNot):
                return modal_depth(g.a)
            return 0

        assert depth(root) <= modal_depth(f) + 1


def test_satisfiability_companion():
    hit = k_satisfiable(m("<>p /\\ []q"))
    assert hit is not None
    model, w = hit
    assert md.eval_modal(model, w, m("<>p /\\ []q"))
    assert k_satisfiable(m("p /\\ ~p")) is None


# ---------------------------------------------------------------------------
# exhaustive cross-checks (small formulas, small models)


def _formulas_up_to(size, atoms):
    """Every modal formula with at most `size` connectives, smallest first."""
    leaves = [sx.MAtom(a) for a in atoms] + [sx.MBot()]
    layers = [list(leaves)]
    for k in range(1, size + 1):
        layer = []
        for a in layers[k - 1]:
            layer.append(sx.MNot(a))
            layer.append(sx.MDia(a))
        for i in range(k):
            for a in layers[i]:
                for b in layers[k - 1 - i]:
                    layer.append(sx.MAnd(a, b))
                    layer.append(sx.MOr(a, b))
                    layer.append(sx.MImp(a, b))
        layers.append(layer)
    return [f for layer in layers for f in layer]


def test_exhaustive_tableau_vs_sequent_prover():
    # all formulas with <= 3 connectives over {p, q}: the two engines share
    # nothing but the grammar, so any disagreement is a bug in one of them
    formulas = _formulas_up_to(3, ("p", "q"))
    assert len(formulas) > 2000
    prover = gk.KProver()
    for f in formulas:
        assert kt.k_decide(f).valid == (prover.prove((), (f,)) is not None), \
            sx.render_modal(f)


def test_enumerated_countermodels_force_invalid_verdicts():
    # any <=2-state Kripke countermodel found by brute force must be matched
    # by an Invalid verdict (and the tableau's own witness must falsify)
    formulas = _formulas_up_to(2, ("p",))
    models = list(all_kripke(2, ("p",)))
    for f in formulas:
        falsified = any(
            not md.eval_modal(km, w, f) for km in models for w in km.states
        )
        v = kt.k_decide(f)
        if falsified:
            assert not v.valid, sx.render_modal(f)
        if not v.valid:
            assert not md.eval_modal(v.model, v.root, f)


def test_random_deep_formulas_agree():
    rng = random.Random(4)
    prover = gk.KProver()
    checked = 0
    for _ in range(150):
        f = _random_modal(rng, rng.randrange(2, 5))
        assert kt.k_decide(f).valid == (prover.prove((), (f,)) is not None)
        checked += 1
    assert checked == 150


def _random_modal(rng, depth):
    if depth == 0:
        return rng.choice([P, Q, sx.MBot()])
    kind = rng.randrange(6)
    kid = lambda: _random_modal(rng, depth - 1)  # noqa: E731
    if kind == 0:
        return sx.MAnd(kid(), kid())
    if kind == 1:
        return sx.MOr(kid(), kid())
    if kind == 2:
        return sx.MImp(kid(), kid())
    if kind == 3:
        return sx.MNot(kid())
    if kind == 4:
        return sx.MDia(kid())
    return box(kid())


# ---------------------------------------------------------------------------
# closure properties of validity


def test_necessitation_closure():
    for text in VALID:
        assert kt.k_decide(box(m(text))).valid, text


def test_modus_ponens_closure():
    rng = random.Random(11)
    hits = 0
    for _ in range(300):
        a = _random_modal(rng, rng.randrange(1, 4))
        b = _random_modal(rng, rng.randrange(1, 4))
        if kt.k_decide(a).valid and kt.k_decide(sx.MImp(a, b)).valid:
            assert kt.k_decide(b).valid
            hits += 1
    assert hits >= 5  # the sample actually exercised the rule


# ---------------------------------------------------------------------------
# the sequent prover's proofs translate into checked derivations


def test_prove_dagger_goal_for_the_k_axioms():
    for text in VALID:
        a = m(text)
        d = gk.prove_dagger_sequent(None, a)
        assert d is not None, text
        assert d.seq == sx.Sequent(sx.SLeaf(sx.TOP), tr.dagger(a))
        assert ck.check_derivation(BF, (), d), text


def test_prove_dagger_goal_refuses_invalid_input():
    for text in INVALID:
        assert gk.prove_dagger_sequent(None, m(text)) is None, text


def test_prove_dagger_top_starts_from_top():
    d = gk.prove_dagger_sequent(None, m("p -> p"))
    assert d is not None
    assert d.seq == sx.Sequent(sx.SLeaf(sx.TOP), tr.dagger(m("p -> p")))
    assert ck.check_derivation(BF, (), d)


def test_k_oracle_cuts_an_empty_antecedent_against_the_top_axiom():
    # => dagger(a) is the top-started translation under one cut with the
    # empty top axiom, and nothing else
    for text in VALID:
        a = m(text)
        goal = sx.Sequent(None, tr.dagger(a))
        d = strategy.try_k_oracle(BF, (), goal, None)
        assert d is not None and d.seq == goal, text
        assert d.rule == pf.CUT and d.premises[0].rule == pf.TOP_AX
        assert d.premises[0].seq == sx.Sequent(None, sx.TOP)
        assert pf.table_text(d.premises[1]) == pf.table_text(gk.prove_dagger_sequent(None, a))
        assert ck.check_derivation(BF, (), d), text
    assert strategy.try_k_oracle(BF, (), sx.Sequent(None, tr.dagger(m(INVALID[0]))), None) is None


def test_prove_dagger_sequent_between_formulas():
    a, b = m("<>(p \\/ q)"), m("<>p \\/ <>q")
    d = gk.prove_dagger_sequent(a, b)
    assert d is not None
    assert d.seq == sx.Sequent(sx.SLeaf(tr.dagger(a)), tr.dagger(b))
    assert ck.check_derivation(BF, (), d)
    assert gk.prove_dagger_sequent(m("[]p"), m("p")) is None


def test_variant_systems_inherit_the_k_oracle():
    # every negation-bearing variant admits the bfnl-star rules, so the
    # dagger images of the criterion-02 theorems prove in each of them
    theorems, _ = corpus()
    variants = [s for s in SYSTEMS.values() if s.negation]
    assert len(theorems) == 29 and len(variants) == 22
    budget = SearchBudget(max_goals=2000, samples=0)
    for sys in variants:
        for a in theorems:
            r = derive(sys, (), sx.Sequent(None, tr.dagger(a)), budget)
            assert r.verdict == "proved", (sys.name, sx.render_modal(a), r.report)
