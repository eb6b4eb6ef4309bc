"""Rule application, the independent checker, and the certified lemma
builders."""

import dataclasses
import functools
import itertools
import json
import random
import re

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (assumptions_of, check_reference, dax_4, dax_5, dax_t, dboxdown_l, dexch,
                      dist_prod_or, done_l, done_r, fact7, lambek_formulas, lat_le_reference,
                      modal_formulas, post_order_reference, random_lattice_formula,
                      reference_table, sequents, struct_trees, undist_prod_or, valuations_le)
from test_acceptance import conservativity_goals
from fnlkit import checker as ck
from fnlkit import ktableau as kt
from fnlkit import lemmas as lm
from fnlkit import proofs as pf
from fnlkit import rules
from fnlkit import syntax as sx
from fnlkit import transform as tr
from fnlkit.errors import FnlError, LemmaError, ValidationError
from fnlkit.prover import SearchBudget, derive
from fnlkit.systems import SYSTEMS, allowed_rules, get_system, validate_sequent

BF = get_system("bfnl-star")
BFT = get_system("bfnl-star-t")
BFE = get_system("bfnl-e-star")
BD = get_system("bdfnl-star")
DF = get_system("dfnl-star")
B1 = get_system("bfnl1-k")

p, q, r = sx.LAtom("p"), sx.LAtom("q"), sx.LAtom("r")


def seq(text):
    return sx.parse_sequent(text)


def f(text):
    return sx.parse_lambek(text)


def checked(sys, d, phi=()):
    trail = []
    ok = ck.check_derivation(sys, phi, d, trail)
    assert ok, "\n".join(trail)
    return d


# ---------------------------------------------------------------------------
# backward rule application


def test_rule_instances_id_and_prod_l():
    goal = seq("p * q => p * q")
    moves = list(rules.rule_instances(BF, goal, frozenset()))
    names = [m[0] for m in moves]
    assert pf.ID in names  # matched directly, zero premises
    idx = names.index(pf.ID)
    assert moves[idx][1] == []
    assert (pf.PROD_L, [seq("(p o q) => p * q")]) in [(n, pr) for n, pr, _, _ in moves]


def test_rule_instances_bot_axiom_under_any_context():
    goal = seq("(q o bot) o p => r")
    moves = rules.rule_instances(BF, goal, frozenset())
    bots = [m for m in moves if m[0] == pf.BOT_AX]
    assert bots and bots[0][1] == []


def test_rule_instances_t_axiom():
    goal = seq("p => <>p")
    names = [m[0] for m in rules.rule_instances(BFT, goal, frozenset())]
    assert pf.AX_T in names
    # the same goal in plain bfnl-star-k has no T axiom
    names_k = [m[0] for m in rules.rule_instances(get_system("bfnl-star-k"), goal, frozenset())]
    assert pf.AX_T not in names_k


def test_rule_instances_assumption_and_cut_pool():
    member = seq("p => q")
    goal = seq("p => q")
    moves = list(rules.rule_instances(BF, goal, frozenset([member]), cut_pool=(r,)))
    names = [m[0] for m in moves]
    assert pf.ASSUMPTION in names
    cuts = [m for m in moves if m[0] == pf.CUT]
    # analytic cut instantiates only over the pool: the minor premise
    # proves the cut formula
    assert all(m[1][0].suc == r for m in cuts)
    assert any(m[1] == [seq("p => r"), seq("r => q")] for m in cuts)


def test_rule_instances_exchange_only_with_flag():
    goal = seq("(p o q) => r")
    swapped = [m for m in rules.rule_instances(BFE, goal, frozenset()) if m[0] == pf.EXCH]
    assert any(m[1] == [seq("(q o p) => r")] for m in swapped)
    assert not [m for m in rules.rule_instances(BF, goal, frozenset()) if m[0] == pf.EXCH]


def test_premises_stay_well_formed():
    # every premise of every move must be admitted by the same system
    goals = ["p * (q \\ p) => p \\/ ~q", "(p o < q >) => <>q", "=> ~p \\/ p"]
    for sysname, text in [("bfnl-star-k", goals[1]), ("bfnl-star", goals[0]), ("bfnl-star", goals[2])]:
        sys = get_system(sysname)
        goal = seq(text)
        for _, prems, _, _ in rules.rule_instances(sys, goal, frozenset(), cut_pool=(p,)):
            for g in prems:
                from fnlkit.systems import validate_sequent

                validate_sequent(sys, g)


@given(sequents)
@example(seq("(p * q) o bot => r"))  # random goals rarely hold an axiom behind a premise move
@example(seq("(<>p o one) o (p /\\ q) => <>(q \\/ r)"))
def test_moves_are_legal_distinct_and_axioms_first(goal):
    # rule_instances promises these by construction, with no filter behind it
    pool = tuple(sorted(sx.subformulas_of_problem(goal, ()), key=sx.sort_key))
    for sys in SYSTEMS.values():
        allowed = allowed_rules(sys)
        for phi in (frozenset(), frozenset([goal])):
            seen = set()
            branched = False
            for rule, prems, path, idx in rules.rule_instances(sys, goal, phi, pool):
                assert rule in allowed, (sys.name, rule)
                key = (rule, tuple(prems), path, idx)
                assert key not in seen, (sys.name, rule)
                seen.add(key)
                assert prems or not branched, (sys.name, rule)
                branched = branched or bool(prems)


# ---------------------------------------------------------------------------
# the checker on hand-built nodes


def test_checker_accepts_id_and_rejects_renamed_rule():
    d = pf.node(seq("p => p"), pf.ID)
    assert ck.check_derivation(BF, (), d)
    bad = pf.node(seq("p => p"), pf.TOP_AX)
    trail = []
    assert not ck.check_derivation(BF, (), bad, trail)
    assert trail  # diagnostics accompany the verdict


def test_checker_rejects_foreign_rules_per_system():
    # exchange node inside a non-exchange system
    d = pf.node(seq("(q o p) => r"), pf.EXCH,
                [pf.node(seq("(p o q) => r"), pf.ID)], ())
    assert not ck.check_derivation(BF, (), d)
    # negation axioms are bfnl-family only
    d2 = lm.dneg1(p)
    assert ck.check_derivation(BF, (), d2)
    assert not ck.check_derivation(DF, (), d2)


def test_checker_rejects_wrong_arity_and_bad_premise():
    d = pf.node(seq("p => p /\\ p"), pf.AND_R, [pf.node(seq("p => p"), pf.ID)])
    assert not ck.check_derivation(BF, (), d)  # AndR needs two premises
    d2 = pf.node(
        seq("p => p /\\ q"), pf.AND_R,
        [pf.node(seq("p => p"), pf.ID), pf.node(seq("p => p"), pf.ID)],
    )
    assert not ck.check_derivation(BF, (), d2)  # second premise proves the wrong thing


def test_checker_assumption_literal_membership():
    member = seq("p => q")
    d = pf.node(member, pf.ASSUMPTION)
    assert ck.check_derivation(BF, [member], d)
    assert not ck.check_derivation(BF, (), d)
    # near-miss member is rejected
    assert not ck.check_derivation(BF, [seq("p => r")], d)


def test_checker_rejects_sequents_the_system_disallows():
    # bounded starred systems admit both top and empty antecedents
    d = pf.node(seq("=> top"), pf.TOP_AX)
    assert ck.check_derivation(BD, (), d)
    assert not ck.check_derivation(DF, (), d)  # no top in the unbounded language
    # unstarred dfnl also refuses the empty antecedent itself
    d2 = pf.node(seq("=> p * (p \\ p)"), pf.UNDER_R)
    assert not ck.check_derivation(get_system("dfnl"), (), d2)
    # the vocabulary check reaches inside antecedent trees; each step below is
    # sound in the first system and rejected for its tree in the second
    member = seq("p o ~q => p")
    shared = member.ant  # one ill-formed object in conclusion and premise
    disjoin = lm.dor_r(lm.dassume(member), f("p \\/ q"), 1)
    assert disjoin.seq.ant is shared
    for good, bad, d, phi, reason in [
        (BFT, BF, lm.dtop(sx.parse_tree("p o < q >")), (), "no bracket structure"),
        (BF, DF, lm.dassume(member), (member,), "no negation"),
        (BF, DF, disjoin, (member,), "no negation"),
        # several misfits: the fixed order reports negation first
        (B1, DF, lm.did(f("~one")), (), "no negation"),
        (B1, DF, lm.did(f("~p * one")), (), "no negation"),
    ]:
        checked(good, d, phi)
        trail = []
        assert not ck.check_derivation(bad, phi, d, trail)
        # the checker walks in post-order, so the first ill-formed node of
        # that walk is the one rejected
        first = next(n for n in pf.post_order(d) if not _well_formed(bad, n.seq))
        assert trail[0].startswith(f"{first.rule} at {sx.render_sequent(first.seq)}: ")
        assert f"ill-formed sequent ({bad.name} has {reason})" in trail[0]


def _well_formed(sys, s):
    try:
        validate_sequent(sys, s)
    except ValidationError:
        return False
    return True


def _reinst(d, **fields):
    return pf.node(d.seq, d.rule, d.premises, **{"path": d.path, "idx": d.idx, **fields})


@pytest.mark.parametrize("good, fields, phi, reason", [
    pytest.param(lm.did(p), {"path": ()}, (), "records path", id="id-with-path"),
    pytest.param(lm.did(p), {"idx": 1}, (), "records idx, which the rule does not read",
                 id="id-with-idx"),
    pytest.param(lm.dand_r(lm.did(p), lm.did(p)), {"idx": 1}, (), "records idx",
                 id="and-r-with-idx"),
    pytest.param(lm.dcut(lm.dtop(None), lm.did(sx.TOP)), {"path": (0,)}, (),
                 "root position", id="empty-cut-path"),
])
def test_checker_validates_every_recorded_field(good, fields, phi, reason):
    # the sound original passes; the same step with one field altered does not
    checked(BF, good, phi)
    trail = []
    assert not ck.check_derivation(BF, phi, _reinst(good, **fields), trail)
    assert reason in trail[0]


# one small instance per rule, in a system that admits every rule; an axiom
# comes with a conclusion that misses its shape and the reason given for it
E5 = get_system("bfnl1-e-s5")
_PQ_AND, _PQ_OR = f("p /\\ q"), f("p \\/ q")
_MEMBER = seq("p => q")
RULE_CASES = {
    pf.ID: (lm.did(p), "p => q", "single leaf equal to the succedent"),
    pf.DIST: (lm.dD(p, q, r), "p /\\ (q \\/ r) => p /\\ q \\/ p /\\ p", "does not distribute"),
    pf.BOT_AX: (lm.dbot(sx.parse_tree("p o bot"), (1,), q), "p o q => q", "does not hold bot"),
    pf.TOP_AX: (lm.dtop(sx.parse_tree("p o q")), "p o q => p", "succedent must be top"),
    pf.NEG1: (lm.dneg1(p), "p /\\ ~q => bot", "A /\\ ~A => bot"),
    pf.NEG2: (lm.dneg2(p), "top => p \\/ ~q", "top => A \\/ ~A"),
    pf.AX_T: (dax_t(p), "p => <>q", "A => <>A"),
    pf.AX_4: (dax_4(p), "<><>p => <>q", "<><>A => <>A"),
    pf.AX_5: (dax_5(p), "<>p => ~<>~<>q", "<>A => ~<>~<>A"),
    pf.ONE_R: (done_r(), "p => one", "empty-antecedent unit sequent"),
    pf.ASSUMPTION: (lm.dassume(_MEMBER), "p => r", "not among the assumptions"),
    pf.PROD_L: lm.dprod_l(lm.dprod_r(lm.did(p), lm.did(q))),
    pf.PROD_R: lm.dprod_r(lm.did(p), lm.did(q)),
    pf.DIA_L: lm.ddia_l(lm.ddia_r(lm.did(p))),
    pf.DIA_R: lm.ddia_r(lm.did(p)),
    pf.BOXDOWN_L: dboxdown_l(lm.did(p)),
    pf.BOXDOWN_R: lm.dboxdown_r(dboxdown_l(lm.did(p))),
    pf.ONE_L_LEFT: done_l(lm.did(p), side="l"),
    pf.ONE_L_RIGHT: done_l(lm.did(p), side="r"),
    pf.EXCH: dexch(lm.dprod_r(lm.did(q), lm.did(p))),
    pf.AND_L: lm.dand_l(lm.did(q), _PQ_AND, 2),
    pf.AND_R: lm.comm_and(p, q),
    pf.OR_L: lm.dor_l(lm.dor_r(lm.did(p), _PQ_OR, 1), lm.dor_r(lm.did(q), _PQ_OR, 2), _PQ_OR),
    pf.OR_R: lm.dor_r(lm.did(q), _PQ_OR, 2),
    pf.UNDER_R: lm.dunder_r(lm.dprod_r(lm.did(p), lm.did(q)), p),
    pf.OVER_R: lm.dover_r(lm.dprod_r(lm.did(p), lm.did(q)), q),
    pf.UNDER_L: lm.dunder_l(lm.did(p), lm.did(q)),
    pf.OVER_L: lm.dover_l(lm.did(q), lm.did(p)),
    pf.CUT: lm.dcut(lm.dand_l(lm.did(p), _PQ_AND, 1), lm.dor_r(lm.did(p), _PQ_OR, 1)),
}


@pytest.mark.parametrize("rule", sorted(ck._RULES))
def test_checker_rejects_a_misfit_of_each_rule(rule):
    # the sound instance passes; the same step with its conclusion (an axiom)
    # or its last premise (any other rule) altered is rejected with its reason
    case, phi = RULE_CASES[rule], (_MEMBER,)
    good = case[0] if isinstance(case, tuple) else case
    assert good.rule == rule
    checked(E5, good, phi)
    if good.premises:
        swapped = (*good.premises[:-1], lm.did(sx.LAtom("z")))
        bad = pf.node(good.seq, rule, swapped, good.path, good.idx)
        k, want = len(swapped), good.premises[-1].seq
        reason = f"premise {k} is not {sx.render_sequent(want)}"
    else:
        _, conclusion, reason = case
        bad = pf.node(seq(conclusion), rule, (), good.path, good.idx)
    trail = []
    assert not ck.check_derivation(E5, phi, bad, trail)
    assert trail[0].startswith(f"{rule} at ") and reason in trail[0], trail


@pytest.mark.parametrize("rule", sorted(RULE_CASES))
def test_checker_rejects_each_field_a_rule_does_not_read(rule):
    # a sound instance records exactly the fields its rule reads; the same
    # step recording any other field is rejected, whatever the value
    case, phi = RULE_CASES[rule], (_MEMBER,)
    good = case[0] if isinstance(case, tuple) else case
    values = {"path": ((), (0,)), "idx": (1, 2)}
    unread = [k for k in values if getattr(good, k) is None]
    assert unread or rule == pf.AND_L  # only the conjunction left rule reads both
    for k in unread:
        for value in values[k]:
            trail = []
            assert not ck.check_derivation(E5, phi, _reinst(good, **{k: value}), trail)
            assert trail == [f"{rule} at {sx.render_sequent(good.seq)}: "
                             f"records {k}, which the rule does not read"]


_antecedents = st.one_of(
    st.none(),
    lambek_formulas.map(sx.SLeaf),
    st.builds(sx.SNode, struct_trees, struct_trees),
    st.builds(sx.SBracket, struct_trees),
)


@given(st.sampled_from(sorted(SYSTEMS)), st.builds(sx.Sequent, _antecedents, lambek_formulas),
       st.sampled_from(sorted(ck._RULES)), st.booleans())
@settings(max_examples=400)
def test_one_node_checks_as_the_reference_that_validates_every_node(name, s, rule, member):
    # validate_sequent's leaf-mask test decides exactly as the walk does
    sys, phi = SYSTEMS[name], (s,) if member else ()
    d = pf.node(s, rule)
    got, want = [], []
    assert ck.check_derivation(sys, phi, d, got) == check_reference(sys, phi, d, want)
    assert got == want


_Z = sx.LAtom("z")


def _swaps(f, new):
    """f with one subformula occurrence, or the whole, replaced by new."""
    yield new
    names = type(f).__match_args__
    for k in names:
        child = getattr(f, k)
        if isinstance(child, sx.LFormula):
            for g in _swaps(child, new):
                yield type(f)(*[g if j == k else getattr(f, j) for j in names])


@given(lambek_formulas, lambek_formulas, lambek_formulas)
@settings(max_examples=150)
def test_axiom_shapes_check_as_the_built_conclusion_compares(a, b, c):
    # each axiom's fields are compared in place; the reference builds the
    # conclusion the axiom would have and compares it, on every fitting
    # conclusion and on each with one subformula changed
    fitting = [lm.did(a), lm.dD(a, b, c), lm.dneg1(a), lm.dneg2(a), dax_t(a), dax_4(a),
               dax_5(a), lm.dtop(sx.SLeaf(a)), done_r(), lm.dbot_f(a)]
    for d in fitting:
        s, seqs = d.seq, [d.seq]
        if s.ant is not None:
            seqs += [sx.Sequent(sx.SLeaf(g), s.suc) for g in _swaps(s.ant.f, _Z)]
        seqs += [sx.Sequent(s.ant, g) for g in _swaps(s.suc, _Z)]
        for new in seqs:
            node = pf.node(new, d.rule, (), d.path, d.idx)
            got, want = [], []
            assert ck.check_derivation(E5, (), node, got) == check_reference(E5, (), node, want)
            assert got == want
            assert new is not s or not want  # the fitting conclusion passes


# a sound one-step instance and a corruption of its recorded position or its
# conclusion, with the reason the checker gives
_DIA_IN_BRACKET = lm.ddia_l(lm.ddia_r(lm.ddia_r(lm.did(p))), (2,))


@pytest.mark.parametrize("good, change, reason", [
    pytest.param(_DIA_IN_BRACKET, {"path": ()}, "does not hold a diamond leaf", id="dia-l"),
    pytest.param(dboxdown_l(lm.did(p)), {"path": (2,)}, "not a bracketed box-down leaf",
                 id="boxdown-l"),
    pytest.param(done_l(lm.did(p), side="l"), {"path": (1,)}, "with unit on the left",
                 id="one-l-left"),
    pytest.param(done_l(lm.did(p), side="r"), {"path": (0,)}, "with unit on the right",
                 id="one-l-right"),
    pytest.param(dexch(lm.dprod_r(lm.did(q), lm.did(p))), {"path": (0,)},
                 "recorded position is not a node", id="exch"),
    pytest.param(lm.dover_l(lm.did(q), lm.did(p)), {"path": (0,)},
                 "right-residual leaf on the left", id="over-l"),
    pytest.param(lm.ddia_r(lm.did(p)), "p => <>p", "bracketed antecedent and diamond succedent",
                 id="dia-r"),
    pytest.param(lm.dboxdown_r(dboxdown_l(lm.did(p))), "=> [v]p",
                 "nonempty antecedent and box-down succedent", id="boxdown-r"),
])
def test_checker_rejects_a_malformed_position_or_shape(good, change, reason):
    checked(E5, good)
    if isinstance(change, str):
        bad = pf.node(seq(change), good.rule, good.premises, good.path, good.idx)
    else:
        bad = _reinst(good, **change)
    trail = []
    assert not ck.check_derivation(E5, (), bad, trail)
    assert trail[0].startswith(f"{good.rule} at ") and reason in trail[0], trail


# one step of a certificate, cut off at its premises, which become
# assumption leaves, and moved under a context: a one-leaf step gains
# recorded positions below the context's hole, with siblings on the way.
# A premise that keeps the conclusion's antecedent around the step's
# position moves with it, any other stays as it is.
_HOLE = sx.SLeaf(sx.LAtom("h"))
_CONTEXTS = (None, "h o r", "r o (h o s)", "< r o (s o (< h > o r)) >")


def _step_under(n, context):
    """Node n as one step under context (the hole h), with assumption
    leaves for premises, as the reference accepts it, or None when it has
    no premise or does not move there."""
    if not n.premises or (context is not None and n.seq.ant is None):
        return None
    ctx = None if context is None else sx.parse_tree(context)
    h = () if ctx is None else next(path for path, t in pf.positions(ctx) if t == _HOLE)

    def put(s):
        return sx.Sequent(pf.tree_replace(ctx, h, s.ant), s.suc)

    path = n.path if n.path is None else h + n.path
    for moved in itertools.product((True, False), repeat=len(n.premises)):
        prems = [put(x.seq) if up and x.seq.ant is not None else x.seq
                 for x, up in zip(n.premises, moved)]
        d = pf.node(put(n.seq), n.rule, [lm.dassume(s) for s in prems], path, n.idx)
        if check_reference(E5, prems, d, []):
            return d
    return None


def _sibling_mutants(step):
    """The step with one premise's succedent, or one subtree of its
    antecedent off the recorded path, replaced by z, the subtree at the
    hole kept; each with the assumptions it needs."""
    path = step.path
    for k, leaf in enumerate(step.premises):
        s = leaf.seq
        changed = [sx.Sequent(s.ant, _Z)]
        for q, _ in () if s.ant is None else pf.positions(s.ant):
            if path is None or (path[:len(q)] != q and q[:len(path)] != path):
                changed.append(sx.Sequent(pf.tree_replace(s.ant, q, sx.SLeaf(_Z)), s.suc))
        for new in changed:
            if new != s:
                prems = [x.seq for x in step.premises]
                prems[k] = new
                yield (pf.node(step.seq, step.rule, [lm.dassume(x) for x in prems],
                               step.path, step.idx), prems)


@st.composite
def certificates(draw):
    """A lat_le certificate, a derived ~^n p => p or p => ~^n p proof, or
    one RULE_CASES instance."""
    kind = draw(st.sampled_from(("lattice", "tower", "rule")))
    if kind == "lattice":
        rng = random.Random(draw(st.integers(0, 2 ** 16)))
        while True:
            a, b = (random_lattice_formula(rng, rng.randint(2, 6), LATTICE_GENS) for _ in "ab")
            d = lm.lat_le(a, b)
            if d is not None:
                return d
    if kind == "tower":
        tower = "~" * (2 * draw(st.integers(1, 3))) + "p"
        text = draw(st.sampled_from((f"{tower} => p", f"p => {tower}")))
        return derive(BF, frozenset(), seq(text), SearchBudget()).derivation
    case = RULE_CASES[draw(st.sampled_from(sorted(RULE_CASES)))]
    return case[0] if isinstance(case, tuple) else case


def rejects_changed_siblings_as_the_reference(d, context) -> set:
    """Each step of d under context is accepted, and each of its sibling
    mutants rejected with the reference's trail; the (rule, path step)
    pairs of the moved steps that have a mutant."""
    seen = set()
    for n in pf.post_order(d):
        step = _step_under(n, context)
        if step is None:
            continue
        assert ck.check_derivation(E5, [x.seq for x in step.premises], step)
        for bad, phi in _sibling_mutants(step):
            got, want = [], []
            assert not ck.check_derivation(E5, phi, bad, got)
            assert not check_reference(E5, phi, bad, want)
            assert got == want
            seen.update((step.rule, k) for k in step.path or ())
    return seen


@given(certificates(), st.sampled_from(_CONTEXTS))
@settings(max_examples=60)
def test_a_changed_sibling_of_a_premise_is_rejected_as_by_the_reference(d, context):
    # the whole-premise misfit test above cannot tell a walk that skips the
    # siblings on the path from one that compares them: here only a sibling
    # or the succedent differs from the demanded premise
    rejects_changed_siblings_as_the_reference(d, context)


def test_changed_siblings_reach_each_side_of_a_path_and_a_bracket():
    # fixed draws of the test above, whose moved cut, conjunction and
    # disjunction steps have siblings off the path on either side
    lattice = lm.lat_le(f("p /\\ (q \\/ r)"), f("(p /\\ q) \\/ r"))
    tower = derive(BF, frozenset(), seq("~~~~p => p"), SearchBudget()).derivation
    seen = set()
    for d in (lattice, tower):
        seen |= rejects_changed_siblings_as_the_reference(d, _CONTEXTS[-1])
    assert {rule for rule, _ in seen} >= {pf.CUT, pf.AND_L, pf.OR_L}
    assert {k for _, k in seen} == {pf.LEFT, pf.RIGHT, pf.UNDER_BRACKET}


def spy_on_building(monkeypatch) -> list:
    """The arguments of every Sequent built and every tree_replace call
    from now on, however the caller reaches them."""
    calls = []
    init, replace = sx.Sequent.__init__, pf.tree_replace

    def spy_init(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(sx.Sequent, "__init__", spy_init)
    monkeypatch.setattr(pf, "tree_replace", lambda *a: calls.append(a) or replace(*a))
    return calls


def test_a_passing_check_builds_no_sequent_and_replaces_no_subtree(monkeypatch):
    # every premise is tested in place; a demanded sequent is built only
    # to word a failure
    tower = derive(BF, frozenset(), seq("~" * 40 + "p => p"), SearchBudget()).derivation
    cases = [(BF, tower, ())]
    cases += [(E5, case[0] if isinstance(case, tuple) else case, (_MEMBER,))
              for case in RULE_CASES.values()]
    misfit = pf.node(seq("p => p /\\ q"), pf.AND_R, [lm.did(p), lm.did(p)])
    calls = spy_on_building(monkeypatch)
    for sys, d, phi in cases:
        assert ck.check_derivation(sys, phi, d)
    assert calls == []
    assert not ck.check_derivation(BF, (), misfit, [])
    assert calls  # the spies see a failure's wording


# ---------------------------------------------------------------------------
# certified builders: zero-premise schemas


def test_axiom_builders_check():
    checked(BF, lm.did(f("p * (q \\ p)")))
    checked(BF, lm.dtop(sx.parse_tree("p o q")))
    checked(BF, lm.dtop(None))
    checked(BF, lm.dbot(sx.parse_tree("p o bot"), (1,), q))
    checked(BF, lm.dbot_f(q))
    checked(BF, lm.dD(p, q, r))
    checked(BF, lm.dneg1(p))
    checked(BF, lm.dneg2(p))
    checked(B1, done_r())
    checked(BFT, dax_t(p))
    checked(get_system("bfnl-star-k4"), dax_4(p))
    checked(get_system("bfnl-star-s5"), dax_5(p))
    member = seq("p => q")
    checked(BF, lm.dassume(member), [member])


def test_axiom_builders_validate_their_contracts():
    with pytest.raises(LemmaError):
        lm.dbot(sx.parse_tree("p o q"), (0,), r)  # no bot at that spot


# ---------------------------------------------------------------------------
# certified builders: connective rules and combinators


def test_cut_and_trans():
    d = lm.dcut(lm.did(p), lm.did(p), ())
    assert d.seq == seq("p => p")
    checked(BF, d)
    d2 = lm.le_trans(lm.did(p), lm.did(p), lm.did(p))
    checked(BF, d2)


def test_lattice_rule_builders():
    a, b = f("p /\\ q"), f("p \\/ q")
    checked(BF, lm.dand_r(lm.dand_l(lm.did(p), a, 1), lm.dand_l(lm.did(q), a, 2)))
    checked(BF, lm.dor_l(lm.dor_r(lm.did(p), b, 1), lm.dor_r(lm.did(q), b, 2), b))


def test_dor_l_tests_its_right_premise_in_place():
    # the right premise is the left one with B for A at the path: its
    # succedent, every sibling on the path and the leaf must fit, and equal
    # by value is enough
    main, path = f("p \\/ q"), (1, 0)
    left = lm.dassume(seq("r o (p o s) => t"))
    right = lm.dassume(seq("r o (q o s) => t"))
    d = lm.dor_l(left, right, main, path)
    assert d.seq == seq("r o ((p \\/ q) o s) => t")
    checked(BF, d, [left.seq, right.seq])
    for text in ("z o (q o s) => t", "r o (q o z) => t", "r o (z o s) => t", "r o (q o s) => z",
                 "r o < q o s > => t", "r o q => t", "r o ((q o z) o s) => t"):
        with pytest.raises(LemmaError, match="right premise mismatch"):
            lm.dor_l(left, lm.dassume(seq(text)), main, path)


def test_product_and_slash_builders():
    d = lm.dprod_l(lm.dprod_r(lm.did(p), lm.did(q)), ())
    assert d.seq == seq("p * q => p * q")
    checked(BF, d)
    dresid = lm.dunder_r(lm.dprod_r(lm.did(p), lm.did(q)), p)
    assert dresid.seq == seq("q => p \\ (p * q)")
    checked(BF, dresid)
    dresid2 = lm.dover_r(lm.dprod_r(lm.did(p), lm.did(q)), q)
    assert dresid2.seq == seq("p => (p * q) / q")
    checked(BF, dresid2)
    minor, major = lm.did(p), lm.did(q)
    checked(BF, lm.dunder_l(minor, major, ()))
    checked(BF, lm.dover_l(major, minor, ()))


def test_residual_builders_with_an_empty_rest():
    # from A => A the rest of the antecedent is empty: => A \ A and
    # => A / A, which a system with empty antecedents admits and dfnl not
    under, over = lm.dunder_r(lm.did(p), p), lm.dover_r(lm.did(p), p)
    assert under.seq == seq("=> p \\ p") and over.seq == seq("=> p / p")
    for d in (under, over):
        checked(BF, d)
        assert not ck.check_derivation(get_system("dfnl"), (), d)


def test_or_inject_into_nested_disjunctions():
    d = lm.did(q)
    for text in ("(p \\/ q) \\/ r", "p \\/ (r \\/ (q \\/ s))", "((s \\/ (p \\/ q)) \\/ r) \\/ p"):
        got = lm.or_inject(d, f(text))
        assert got.seq == sx.Sequent(sx.SLeaf(q), f(text)), text
        checked(BF, got)
    assert lm.or_inject(d, q) is d
    with pytest.raises(LemmaError, match="not a disjunct"):
        lm.or_inject(d, f("p /\\ q"))


def test_modal_and_unit_builders():
    sysk = get_system("bfnl-star-k")
    checked(sysk, lm.ddia_l(lm.ddia_r(lm.did(p)), ()))
    checked(sysk, lm.dboxdown_r(dboxdown_l(lm.did(p), ())))
    d = dexch(lm.dprod_r(lm.did(q), lm.did(p)), ())
    assert d.seq == seq("(p o q) => q * p")
    checked(BFE, d)
    d1 = done_l(lm.did(p), (), side="l")
    assert d1.seq == seq("(one o p) => p")
    checked(B1, d1)


def test_monotonicity_combinators():
    dpq = lm.dand_l(lm.did(p), f("p /\\ q"), 1)  # p /\ q => p
    checked(BF, lm.and_mono(dpq, dpq))
    checked(BF, lm.or_mono(dpq, dpq))
    checked(BF, lm.prod_mono(dpq, dpq))
    # slashes are antitone in one argument each
    under = lm.under_mono(dpq, dpq)
    assert under.seq == seq("p \\ (p /\\ q) => (p /\\ q) \\ p")
    checked(BF, under)
    over = lm.over_mono(dpq, dpq)
    assert over.seq == seq("(p /\\ q) / p => p / (p /\\ q)")
    checked(BF, over)
    neg = lm.neg_anti(dpq)
    assert neg.seq == seq("~p => ~(p /\\ q)")
    checked(BF, neg)
    checked(get_system("bfnl-star-k"), lm.dia_mono(dpq))
    checked(get_system("bfnl-star-k"), lm.boxdown_mono(dpq))


def test_double_negation_and_de_morgan_builders():
    checked(BF, lm.dnn_intro(p))
    checked(BF, lm.dnn_elim(p))
    checked(BF, lm.dneg_top())
    checked(BF, lm.dtop_negbot())
    checked(BF, lm.dm_and_fwd(p, q))
    checked(BF, lm.dm_and_bwd(p, q))
    checked(BF, lm.dm_or_fwd(p, q))
    checked(BF, lm.dm_or_bwd(p, q))
    checked(BF, dist_prod_or(f("m"), p, q))
    checked(BF, undist_prod_or(f("m"), p, q))
    checked(BF, fact7(lm.did(p)))
    checked(BF, lm.comm_and(p, q))
    checked(BF, lm.comm_or(p, q))


def test_cong_replace_rebuilds_contexts():
    a, b = f("~~p"), p
    dab = lm.dnn_elim(p)  # ~~p => p
    dba = lm.dnn_intro(p)  # p => ~~p
    c = f("~(~~p * (~~p \\ q))")
    c2, fwd, bwd = lm.cong_replace(c, a, b, dab, dba)
    assert c2 == f("~(p * (p \\ q))")
    assert fwd.seq == sx.Sequent(sx.SLeaf(c), c2)
    assert bwd.seq == sx.Sequent(sx.SLeaf(c2), c)
    checked(BF, fwd)
    checked(BF, bwd)


def test_cong_replace_untouched_context_is_identity():
    c = f("q * r")
    c2, fwd, _ = lm.cong_replace(c, p, f("~~p"), lm.dnn_intro(p), lm.dnn_elim(p))
    assert c2 == c and fwd.rule == pf.ID


# ---------------------------------------------------------------------------
# lattice and boolean entailment engines


def test_lat_le_distributivity_both_ways():
    a = f("p /\\ (q \\/ r)")
    b = f("p /\\ q \\/ p /\\ r")
    checked(BF, lm.lat_le_strict(a, b))
    checked(BF, lm.lat_le_strict(b, a))
    assert lm.lat_le(p, q) is None


def test_hoist_keeps_the_disjuncts_in_the_order_dD_leaves_them():
    d, fu, fv = lm._hoist(f("(p \\/ q) /\\ r"))
    assert (fu, fv) == (f("r /\\ p"), f("r /\\ q"))
    assert not any(n.rule == pf.OR_L for n in pf.post_order(d))
    # a conjunct that entails the goal alone is taken before distributing
    wide = lm.lat_le_strict(f("((p \\/ q) /\\ (r \\/ s)) /\\ (t \\/ u)"), f("p \\/ q"))
    assert pf.size(checked(DF, wide)) <= 3
    spread = lm.lat_le_strict(f("(p \\/ q) /\\ r"), f("(r /\\ p) \\/ (r /\\ q)"))
    assert pf.size(checked(DF, spread)) <= 13


def test_lat_le_treats_non_lattice_formulas_as_opaque():
    a = f("(p * q) /\\ r")
    checked(DF, lm.lat_le_strict(a, f("p * q")))
    # it must not peek inside the product
    assert lm.lat_le(f("p * (q \\/ r)"), f("(p * q) \\/ (p * r)")) is None


def test_bool_le_certifies_classical_consequences():
    pairs = [
        ("~(p /\\ q)", "~p \\/ ~q"),
        ("~p \\/ ~q", "~(p /\\ q)"),
        ("p /\\ ~p", "bot"),
        ("top", "~p \\/ p"),
        ("p", "~~p"),
        ("~~p", "p"),
        ("p /\\ (q \\/ r)", "(p /\\ q) \\/ r"),
    ]
    for left, right in pairs:
        d = lm.bool_le(f(left), f(right))
        assert d is not None, (left, right)
        assert d.seq == sx.Sequent(sx.SLeaf(f(left)), f(right))
        checked(BF, d)
    assert lm.bool_le(p, q) is None
    assert lm.bool_le(f("p \\/ q"), f("p /\\ q")) is None


def test_bool_le_opaque_generators():
    # products are generators: p*q => q*p is NOT a boolean consequence
    assert lm.bool_le(f("p * q"), f("q * p")) is None
    d = lm.bool_le(f("(p * q) /\\ ~(p * q)"), sx.BOT)
    assert d is not None
    checked(BF, d)


def test_bool_le_tries_a_conjunct_alone_before_distributing():
    # r /\ ~r clashes alone, so the disjunction beside it is not distributed
    # (which took 27 core nodes instead of 4)
    x, y = f("(p \\/ q) /\\ (r /\\ ~r)"), f("s")
    core = lm._blat(x, y)
    assert core.rule == pf.AND_L and pf.size(core) == 4
    checked(BF, lm.bool_le(x, y))


LATTICE_GENS = tuple(f(t) for t in ("p", "q", "r", "~p", "p{q}", "p * q", "top", "bot"))


def lattice_pairs(seed: int, count: int):
    rng = random.Random(seed)
    return [tuple(random_lattice_formula(rng, rng.randint(1, 8), LATTICE_GENS) for _ in "ab")
            for _ in range(count)]


def test_lat_le_decides_the_two_element_lattice():
    # a lattice law holds iff it holds under every 0/1 valuation of the
    # generators (~p, p{q} and p * q opaque), and the truth vectors decide
    # exactly that; certificates are no larger in all than the reference's
    valid = nodes = reference_nodes = 0
    for a, b in lattice_pairs(23, 2000):
        holds = valuations_le(a, b, False)
        assert lm._falsified(a, b, False) is (not holds), (a, b)
        d = lm.lat_le(a, b)
        assert (d is not None) == holds, (sx.render_lambek(a), sx.render_lambek(b))
        if d is not None:
            assert d.seq == sx.Sequent(sx.SLeaf(a), b)
            checked(BF, d)
            valid += 1
            nodes += pf.size(d)
            reference_nodes += pf.size(lat_le_reference(a, b))
    assert valid >= 500
    assert nodes <= reference_nodes


def test_bool_le_precheck_matches_the_valuation_loop():
    rng = random.Random(5)
    gens = LATTICE_GENS + tuple(f(t) for t in ("~q", "~(p /\\ r)", "~~r", "~top"))
    decided = 0
    for _ in range(600):
        x, y = (random_lattice_formula(rng, rng.randint(1, 5), gens) for _ in "xy")
        holds = valuations_le(x, y, True)
        assert lm._falsified(x, y, True) is (not holds), (x, y)
        d = lm.bool_le(x, y)
        assert (d is not None) == holds, (sx.render_lambek(x), sx.render_lambek(y))
        if d is not None:
            checked(BF, d)
            decided += 1
    assert decided >= 100
    wide = functools.reduce(sx.LOr, (sx.LAtom(f"w{i}") for i in range(lm.TV_GENS + 1)))
    assert valuations_le(wide, wide, True) is None and lm._falsified(wide, wide, True) is None
    assert lm.bool_le(wide, wide) is None  # over TV_GENS generators bool_le declines


def _clear_lemma_caches():
    for cached in (lm._lat, lm._blat, lm._nnf, lm._lattice_frame):
        cached.cache_clear()


def test_truth_vectors_change_no_certificate(monkeypatch):
    # the vectors only decline attempts that fail anyway: with vectors that
    # say nothing (all ones), every certificate prints the same
    phi = tr.psi_set(frozenset([p, q, sx.TOP, sx.BOT]))
    member = f("((p /\\ (q \\/ bot)) /\\ top)")
    goal = sx.simple(sx.LAnd(member, tr.tilde_ext(member)), sx.BOT)
    bool_pairs = [("~(p /\\ q)", "~p \\/ ~q"), ("p /\\ (q \\/ r)", "(p /\\ q) \\/ r"),
                  ("~(p \\/ ~q) \\/ r", "(~p /\\ q) \\/ (r /\\ top)"), ("p \\/ q", "p /\\ q")]

    def certificates():
        _clear_lemma_caches()
        out = [lm.lat_le(a, b) for a, b in lattice_pairs(7, 300)]
        out += [lm.bool_le(f(x), f(y)) for x, y in bool_pairs]
        out.append(derive(BD, phi, goal, SearchBudget(samples=0)).derivation)
        _clear_lemma_caches()
        return [None if d is None else pf.table_text(d) for d in out]

    with_vectors = certificates()
    monkeypatch.setattr(lm, "truth_vector", lambda f, slots, boolean: -1)
    assert certificates() == with_vectors
    assert sum(text is not None for text in with_vectors) >= 100


def test_by_cases():
    # X /\ g => C and X /\ ~g => C give X => C, X and g read off the first
    x, g = f("p \\/ q"), f("q /\\ r")
    d1 = lm.dand_l(lm.did(x), sx.LAnd(x, g), 1)
    d2 = lm.dand_l(lm.did(x), sx.LAnd(x, sx.LNot(g)), 1)
    d = lm.by_cases(d1, d2)
    assert d.seq == sx.Sequent(sx.SLeaf(x), x)
    checked(BF, d)
    # the first case is not a conjunction sequent
    with pytest.raises(LemmaError, match="not a conjunction"):
        lm.by_cases(lm.did(x), d2)
    # the second case is not the ~g one
    for other in (sx.LAnd(x, g), sx.LAnd(x, sx.LNot(p)), sx.LAnd(p, sx.LNot(g))):
        with pytest.raises(LemmaError, match="right premise mismatch"):
            lm.by_cases(d1, lm.dand_l(lm.did(other.l), other, 1))


# ---------------------------------------------------------------------------
# property tests


@given(lambek_formulas)
def test_did_always_checks(a):
    d = lm.did(a)
    assert d.seq == sx.Sequent(sx.SLeaf(a), a)
    assert ck.check_derivation(get_system("bfnl1-s5"), (), d)


@given(lambek_formulas, lambek_formulas)
@settings(max_examples=40)
def test_comm_and_always_checks(a, b):
    d = lm.comm_and(a, b)
    assert d.seq == sx.Sequent(sx.SLeaf(sx.LAnd(a, b)), sx.LAnd(b, a))
    assert ck.check_derivation(get_system("bfnl1-s5"), (), d)


@given(lambek_formulas, lambek_formulas)
@settings(max_examples=40)
def test_comm_or_always_checks(a, b):
    d = lm.comm_or(a, b)
    assert d.seq == sx.Sequent(sx.SLeaf(sx.LOr(a, b)), sx.LOr(b, a))
    assert pf.size(d) == 5
    assert ck.check_derivation(get_system("bfnl1-s5"), (), d)


@given(lambek_formulas, lambek_formulas)
@settings(max_examples=40)
def test_dist_pairs_adds_a_fixed_number_of_nodes(a, b):
    # ~A /\ ~B /\ (A \/ B) => bot from the two negation axioms, which
    # conjoin a disjunct with a conjunct in the other order
    x = sx.LAnd(sx.LNot(a), sx.LNot(b))
    d = lm.dist_pairs(x, lm.dneg1(a), lm.dneg1(b))
    assert d.seq == sx.simple(sx.LAnd(x, sx.LOr(a, b)), sx.BOT)
    assert pf.size(d) == 2 + 17
    assert ck.check_derivation(get_system("bfnl1-s5"), (), d)


@given(lambek_formulas, lambek_formulas)
@settings(max_examples=40)
def test_mono_combinators_always_check(a, b):
    da, db = lm.did(a), lm.did(b)
    sys = get_system("bfnl1-s5")
    for d in (lm.and_mono(da, db), lm.or_mono(da, db), lm.prod_mono(da, db),
              lm.under_mono(da, db), lm.over_mono(da, db), lm.neg_anti(da)):
        assert ck.check_derivation(sys, (), d)


@st.composite
def chains_with_identities(draw):
    # links a_i => a_i+1 that widen a_i by a disjunct or double it by a
    # conjunction, and the same chain with A => A links spliced in
    a = draw(lambek_formulas)
    links, spliced = [], []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            spliced.append(lm.did(a))
        kind = draw(st.sampled_from(("left", "right", "both")))
        if kind == "both":
            link = lm.dand_r(lm.did(a), lm.did(a))
        else:
            x = draw(lambek_formulas)
            b = sx.LOr(a, x) if kind == "left" else sx.LOr(x, a)
            link = lm.dor_r(lm.did(a), b, 1 if kind == "left" else 2)
        links.append(link)
        spliced.append(link)
        a = link.seq.suc
    if draw(st.booleans()):
        spliced.append(lm.did(a))
    return links, spliced


@given(chains_with_identities())
@settings(max_examples=60)
def test_le_trans_drops_identity_links(chain):
    links, spliced = chain
    want, got = lm.le_trans(*links), lm.le_trans(*spliced)
    assert got.seq == want.seq
    assert pf.size(got) == pf.size(want)
    for n in pf.post_order(got):
        if n.rule == pf.CUT:
            assert pf.ID not in (n.premises[0].rule, n.premises[1].rule)
    checked(B1, got)


def test_an_all_identity_chain_is_its_first_link():
    first = lm.did(p)
    assert lm.le_trans(first, lm.did(p), lm.did(p)) is first
    # a single cut stays one node, identities or not
    d = lm.dcut(first, lm.did(p), ())
    assert d.rule == pf.CUT and len(d.premises) == 2 and pf.size(d) == 3


def test_a_misfitting_identity_link_raises():
    d = lm.dor_r(lm.did(p), f("p \\/ q"), 1)  # p => p \/ q
    with pytest.raises(LemmaError):
        lm.le_trans(d, lm.did(q))
    with pytest.raises(LemmaError):
        lm.le_trans(lm.did(q), d)
    with pytest.raises(LemmaError):
        lm.le_trans(d, lm.did(f("p \\/ q")), lm.did(p))
    # equal by value but not by identity still fits
    assert lm.le_trans(lm.did(f("p")), d, lm.did(f("p \\/ q"))) is d


def test_serialization_round_trip_preserves_checkability():
    d = lm.dm_and_fwd(f("p * q"), f("q \\ r"))
    j = pf.to_json(d)
    d2 = pf.from_json(j)
    assert d2.seq == d.seq and pf.size(d2) == pf.size(d)
    checked(BF, d2)


def test_table_round_trip_keeps_brackets():
    d = _DIA_IN_BRACKET
    j = json.loads(json.dumps(pf.to_json(d)))
    assert {"b": {"b": 0}} in [ant for ant, _ in j["sequents"]]
    d2 = pf.from_json(j)
    assert [n.seq for n in pf.post_order(d2)] == [n.seq for n in pf.post_order(d)]
    checked(get_system("bfnl-star-k"), d2)


def _tree_count(d):
    # nodes counted once per occurrence, shared subproofs again each time
    return 1 + sum(_tree_count(x) for x in d.premises)


@given(lambek_formulas, lambek_formulas)
@settings(max_examples=40)
def test_table_round_trip_keeps_shared_subproofs(a, b):
    da, db = lm.did(a), lm.did(b)
    d = lm.and_mono(lm.prod_mono(da, db), lm.or_mono(da, lm.comm_and(a, b)))
    j = pf.to_json(d)
    assert len(j["nodes"]) == pf.size(d) < _tree_count(d)
    d2 = pf.from_json(json.loads(json.dumps(j)))
    assert d2.seq == d.seq and pf.size(d2) == pf.size(d)
    checked(get_system("bfnl1-s5"), d2)


# the table's text, written in one pass, against the reference builder

_WRITER_SYSTEMS = ("bfnl-star", "bfnl-star-k", "bfnl-e-star", "bfnl1-k")
_WRITER_BUDGET = SearchBudget(max_depth=6, max_goals=2000, time_cap_ms=300, samples=0)


def written_as_the_reference(d):
    assert pf.table_text(d) == json.dumps(reference_table(d), indent=2)


@given(st.sampled_from(conservativity_goals(100)), st.sampled_from(_WRITER_SYSTEMS))
@settings(max_examples=60)
def test_table_text_dumps_the_reference_table(goal, system):
    r = derive(get_system(system), (), goal, _WRITER_BUDGET)
    assume(r.derivation is not None)
    written_as_the_reference(r.derivation)


@given(modal_formulas)
@settings(max_examples=25)
def test_table_text_dumps_the_reference_table_of_section_stage_proofs(a):
    # a non-theorem is traded for a theorem built from it, so every draw proves
    name, goal, phi = tr.pipeline_k_to_dfnl(a if kt.k_decide(a).valid else sx.MImp(a, a))
    r = derive(get_system(name), phi, goal, SearchBudget(max_goals=150, samples=0))
    assert r.derivation is not None
    written_as_the_reference(r.derivation)


def test_table_text_writes_equal_conclusions_once_and_a_shared_tree_at_each_depth(monkeypatch):
    # two distinct but equal conclusions are one sequent entry; one tree
    # object at three depths is written with the indent of each
    shared = sx.parse_tree("p o q")
    deeper = sx.SNode(shared, sx.SLeaf(r))
    first, twin = sx.Sequent(shared, p), sx.Sequent(sx.parse_tree("p o q"), p)
    assert first == twin and first is not twin and first.ant is not twin.ant
    d = pf.node(sx.Sequent(sx.SBracket(deeper), r), pf.OR_L, [
        lm.dassume(first), lm.dassume(twin), lm.dassume(sx.Sequent(deeper, q))])
    calls = spy_on_building(monkeypatch)
    written_as_the_reference(d)
    table = json.loads(pf.table_text(d))
    assert calls == []
    assert len(table["sequents"]) == 3
    assert table["nodes"][0]["seq"] == table["nodes"][1]["seq"]
    ants = [ant for ant, _ in table["sequents"]]
    assert ants == [[0, 1], [[0, 1], 2], {"b": [[0, 1], 2]}]


def _antecedent_shapes(t, out: set) -> set:
    if t is None or type(t) is int:
        out.add("null" if t is None else "leaf")
    elif type(t) is list:
        out.add("pair")
        for x in t:
            _antecedent_shapes(x, out)
    else:
        out.add("b")
        _antecedent_shapes(t["b"], out)
    return out


def test_table_text_writes_every_entry_shape():
    every = sx.LAnd(
        sx.LOr(sx.LProd(sx.LUnder(p, q), sx.LOver(sx.LDia(p), sx.LBoxDown(sx.LNot(q)))),
               sx.LAnd(sx.BOT, sx.TOP)),
        sx.LOr(sx.ONE, sx.LAnd(sx.P_BOT, sx.LOr(sx.P_TOP, sx.fresh_for(p)))))
    name, goal, phi = tr.pipeline_k_to_dfnl(sx.parse_modal("[](p -> q) -> ([]p -> []q)"))
    examples = [
        lm.did(every),
        lm.dcut(lm.dassume(seq("p => q")), lm.did(q), ()),
        derive(BF, (), seq("=> ~p \\/ p"), _WRITER_BUDGET).derivation,
        derive(BF, (), seq("p /\\ q => q"), _WRITER_BUDGET).derivation,
        _DIA_IN_BRACKET,
        lm.dprod_l(lm.dprod_r(lm.did(p), lm.did(q))),
        derive(get_system(name), phi, goal, SearchBudget()).derivation,
    ]
    shapes, fields, kinds, empty_path = set(), set(), set(), False
    for d in examples:
        written_as_the_reference(d)
        table = reference_table(d)
        kinds.update(e[0] if e[0] in sx.L_TAGS.values() else tuple(e[:2])
                     for e in table["formulas"])
        for ant, _ in table["sequents"]:
            _antecedent_shapes(ant, shapes)
        for n in table["nodes"]:
            fields.update(n.get("inst", {}))
            empty_path = empty_path or n.get("inst", {}).get("path") == []
    assert shapes == {"null", "leaf", "pair", "b"}
    assert fields == {"path", "idx"}
    assert empty_path
    assert kinds == {*sx.L_TAGS.values(), ("atom", "p"), ("atom", "q"), ("atom", "m"),
                     ("const", "bot"), ("const", "top"), ("const", "one"),
                     ("fresh", "bot"), ("fresh", "top"), ("fresh", "neg")}


def test_table_text_round_trips_three_premises_every_inst_field_and_any_path():
    # three premises, every recorded field, a node that records none, and
    # paths of length 0 and 4: reloading reprints the same text
    leaf = lm.did(p)
    empty = pf.node(seq("q => q"), pf.ID)
    rooted = pf.node(seq("=> p"), pf.CUT, [leaf], ())
    d = pf.node(seq("p o <(p o q) o r> => q"), pf.OR_L, [leaf, empty, rooted], (0, 2, 1, 0), 2)
    text = pf.table_text(d)
    assert pf.table_text(pf.from_json(json.loads(text))) == text
    written_as_the_reference(d)


@st.composite
def shared_derivations(draw):
    # node k takes its premises from nodes 0..k-1, repeats allowed, so
    # subproofs are shared at random; the last node is the root
    made: list = []
    for k in range(draw(st.integers(1, 25))):
        picks = draw(st.lists(st.integers(0, k - 1), max_size=3)) if k else []
        made.append(pf.node(sx.simple(p, q), pf.ID, [made[i] for i in picks]))
    return made[-1]


@given(shared_derivations())
@settings(max_examples=200)
def test_post_order_visits_each_node_once_after_its_premises(d):
    got = list(pf.post_order(d))
    want = post_order_reference(d)
    assert [id(n) for n in got] == [id(n) for n in want]
    at = {id(n): k for k, n in enumerate(got)}
    assert len(at) == len(got) == pf.size(d)
    assert all(at[id(x)] < at[id(n)] for n in got for x in n.premises)
    assert got[-1] is d
    # the table lists the nodes in that order, premises by position in it
    nodes = pf.to_json(d)["nodes"]
    assert [n["premises"] for n in nodes] == [[at[id(x)] for x in n.premises] for n in got]


def test_post_order_is_the_reference_order_on_built_derivations():
    # lattice certificates and derived proofs share subproofs by identity;
    # the walk returns one list, in the order of the recursive definition
    built = [d for a, b in lattice_pairs(7, 200) if (d := lm.lat_le(a, b)) is not None]
    built += [derive(BF, frozenset(), seq(text), SearchBudget()).derivation
              for text in ("~~~~p => p", "p => ~~p", "p /\\ (q \\/ r) => (p /\\ q) \\/ r")]
    assert len(built) >= 50
    for d in built:
        got = pf.post_order(d)
        assert type(got) is list
        assert [id(n) for n in got] == [id(n) for n in post_order_reference(d)]
        assert pf.size(d) == len(got)


def test_derivation_nodes_are_frozen_slotted_and_compared_by_identity():
    d = lm.and_mono(lm.did(p), lm.did(q))
    twin = pf.node(d.seq, d.rule, d.premises, d.path, d.idx)
    assert not hasattr(d, "__dict__")
    assert pf.Derivation.__slots__ == ("seq", "rule", "premises", "path", "idx")
    for name in ("seq", "rule", "premises", "path", "idx", "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(d, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(d, name)
    # two nodes with the same fields are two nodes: equality and hash go
    # by identity, so a table writes both, and their shared premises once
    assert twin is not d and twin != d and not twin == d and d == d
    assert len({d, twin, d}) == 2
    assert len(pf.to_json(pf.node(d.seq, pf.AND_R, [d, twin]))["nodes"]) == pf.size(d) + 2
    assert repr(lm.did(p)) == (f"Derivation(seq={seq('p => p')!r}, rule='Id', premises=(), "
                               "path=None, idx=None)")


def test_pretty_prints_a_shared_premise_once():
    # the second use of a shared subproof is its one line, marked, at its
    # own depth; its premises do not print again
    shared = lm.dand_l(lm.did(p), sx.LAnd(p, q), 1)
    assert pf.pretty(lm.dand_r(shared, shared)).splitlines() == [
        "AndR: p /\\ q => p /\\ p",
        "  AndL: p /\\ q => p",
        "    Id: p => p",
        "  AndL: p /\\ q => p  (as above)",
    ]


@given(shared_derivations())
@settings(max_examples=200)
def test_pretty_prints_each_node_once(d):
    lines = pf.pretty(d).splitlines()
    assert sum(not line.endswith("  (as above)") for line in lines) == pf.size(d)
    # the root, then one line per premise of each node printed in full
    assert len(lines) == 1 + sum(len(n.premises) for n in pf.post_order(d))


def _edit(path, value):
    def apply(t):
        *head, last = path
        for k in head:
            t = t[k]
        t[last] = value
    return apply


@pytest.mark.parametrize("edit, why", [
    (lambda t: t.pop("format"), "format"),
    (_edit(["format"], 1), "format"),
    (_edit(["format"], 2), "^derivation format 2, expected 3$"),
    (lambda t: t["formulas"].append(["xor", 0, 0]), "unknown entry"),
    (lambda t: t["formulas"].append(["atom", "bot"]), "unknown entry"),
    (lambda t: t["formulas"].append(["not", len(t["formulas"])]), "not an index below"),
    (lambda t: t["formulas"].append(["and", 0, -1]), "not an index below"),
    (_edit(["sequents", 0, 1], 999), "not an index below"),
    (_edit(["sequents", 0, 0], [0, 999]), "not an index below"),
    (_edit(["nodes", -1, "seq"], 999), "not an index below"),
    (_edit(["nodes", -1, "premises", 0], 999), "not an index below"),
    (_edit(["nodes", 0, "premises"], [0]), "not an index below"),
    (lambda t: t["nodes"][0].update(premises=[len(t["nodes"]) - 1]), "not an index below"),
    (_edit(["nodes", 1, "inst", "mian"], 0), "unknown"),
    (_edit(["nodes", -1, "premises"], None), "malformed"),
    (lambda t: t["nodes"].clear(), "no nodes"),
    # a null is no omitted field, and no bool or float is an index; the
    # table has 3 formulas, 5 sequents and 5 nodes, the last an AndR, and
    # node 1 an AndL.  An inst holding main, side or member is refused
    # whatever the value: format 3 records none of them
    (_edit(["nodes", -1, "inst"], None), "^%s$" % re.escape(
        "malformed derivation table (AttributeError: 'NoneType' object has no attribute 'keys')")),
    (_edit(["nodes", 1, "inst", "main"], None), r"^unknown instantiation fields \['main'\]$"),
    (_edit(["nodes", 1, "inst", "side"], None), r"^unknown instantiation fields \['side'\]$"),
    (_edit(["nodes", 1, "inst", "member"], None),
     r"^unknown instantiation fields \['member'\]$"),
    (_edit(["nodes", -1, "premises", 0], True), "^node 4: premise True is not an index below 4$"),
    (_edit(["nodes", -1, "seq"], 1.0), r"^node 4: sequent 1\.0 is not an index below 5$"),
    (_edit(["nodes", 1, "inst", "idx"], "1"), "^malformed idx '1'$"),
    (_edit(["nodes", 1, "inst", "path"], ["0"]), r"^malformed path \['0'\]$"),
    (_edit(["nodes", 1, "inst", "idx"], None), "^malformed idx None$"),
    (_edit(["nodes", 1, "inst", "path"], None), "^malformed path None$"),
    # an empty string or object is no empty list, on a leaf as elsewhere
    (_edit(["nodes", 1, "inst", "path"], ""), "^malformed path ''$"),
    (_edit(["nodes", 1, "inst", "path"], {}), r"^malformed path \{\}$"),
    (_edit(["nodes", 0, "premises"], ""), "^node 0: malformed premises ''$"),
    (_edit(["nodes", 0, "premises"], {}), r"^node 0: malformed premises \{\}$"),
    # an antecedent is an index, a pair or a bracket; a sequent is a pair;
    # a node's rule is a name, and it has no other keys
    (_edit(["sequents", 0, 0], [0, 1, 2]), r"^malformed antecedent \[0, 1, 2\]$"),
    (_edit(["sequents", 0, 0], {"c": 0}), r"^malformed antecedent \{'c': 0\}$"),
    (_edit(["sequents", 0, 0], "0"), "^malformed antecedent '0'$"),
    (_edit(["sequents", 0], [0]), r"^malformed sequent \[0\]$"),
    (_edit(["nodes", 1, "rule"], 5), "^node 1: malformed entry$"),
    (_edit(["nodes", 1, "note"], "x"), "^node 1: malformed entry$"),
], ids=["no-format", "format-1", "format-2", "unknown-tag", "keyword-atom", "formula-self",
        "formula-negative", "succedent-range", "leaf-range", "node-sequent-range",
        "premise-range", "premise-self", "premise-later",
        "unknown-inst-field", "premises-not-a-list", "empty", "inst-null", "main-null",
        "side-null", "member-null", "premise-true", "sequent-float", "idx-string",
        "path-string-step", "idx-null", "path-null", "path-empty-string", "path-empty-object",
        "premises-empty-string", "premises-empty-object", "antecedent-triple",
        "antecedent-object", "antecedent-string", "sequent-single", "rule-int", "node-key"])
def test_from_json_rejects_malformed_tables(edit, why):
    d = lm.and_mono(lm.did(p), lm.did(q))
    table = json.loads(json.dumps(pf.to_json(d)))
    checked(BF, pf.from_json(table))
    edit(table)
    with pytest.raises(FnlError, match=why):
        pf.from_json(table)


def test_positions_are_breadth_first_left_to_right():
    t = sx.parse_tree("(p o <q>) o r")
    assert [path for path, _ in pf.positions(t)] == [
        (), (0,), (1,), (0, 0), (0, 1), (0, 1, 2)]


def test_assumptions_of_collects_used_members():
    member = seq("p => q")
    d = lm.dcut(lm.dassume(member), lm.did(q), ())
    assert assumptions_of(d) == frozenset([member])
    assert assumptions_of(lm.did(p)) == frozenset()
