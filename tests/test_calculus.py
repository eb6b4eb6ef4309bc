"""Rule application, the independent checker, and the certified lemma
builders."""

import dataclasses
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (assumptions_of, dax_4, dax_5, dax_t, dboxdown_l, dexch, dist_prod_or, done_l,
                      done_r, fact7, lambek_formulas, post_order_reference, sequents,
                      undist_prod_or)
from fnlkit import checker as ck
from fnlkit import lemmas as lm
from fnlkit import proofs as pf
from fnlkit import rules
from fnlkit import syntax as sx
from fnlkit.errors import FnlError, LemmaError, ValidationError
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
    assert (pf.PROD_L, [seq("(p o q) => p * q")]) in [(n, pr) for n, pr, _ in moves]


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
    # analytic cut instantiates only over the pool
    assert all(m[2].side == r for m in cuts)
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
        for _, prems, _ in rules.rule_instances(sys, goal, frozenset(), cut_pool=(p,)):
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
            for rule, prems, inst in rules.rule_instances(sys, goal, phi, pool):
                assert rule in allowed, (sys.name, rule)
                key = (rule, tuple(prems), inst)
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
                [pf.node(seq("(p o q) => r"), pf.ID)], pf.Inst(path=()))
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
    d = pf.node(member, pf.ASSUMPTION, inst=pf.Inst(member=member))
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
    return pf.node(d.seq, d.rule, d.premises, dataclasses.replace(d.inst, **fields))


@pytest.mark.parametrize("good, fields, phi, reason", [
    pytest.param(lm.did(p), {"path": ()}, (), "records path", id="id-with-path"),
    pytest.param(lm.dand_r(lm.did(p), lm.did(p)), {"idx": 1}, (), "records idx",
                 id="and-r-with-idx"),
    pytest.param(lm.dassume(seq("p => q")), {"member": seq("p => r")},
                 (seq("p => q"), seq("p => r")), "member", id="assumption-member"),
    pytest.param(lm.dcut(lm.dtop(None), lm.did(sx.TOP)), {"path": (0,)}, (),
                 "root position", id="empty-cut-path"),
    pytest.param(lm.dprod_l(lm.dprod_r(lm.did(p), lm.did(q))), {"main": f("q * p")}, (),
                 "principal formula", id="prod-l-main"),
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
        bad = pf.node(good.seq, rule, swapped, good.inst)
        k, want = len(swapped), good.premises[-1].seq
        reason = f"premise {k} is not {sx.render_sequent(want)}"
    else:
        _, conclusion, reason = case
        inst = pf.Inst(member=seq(conclusion)) if rule == pf.ASSUMPTION else good.inst
        bad = pf.node(seq(conclusion), rule, (), inst)
    trail = []
    assert not ck.check_derivation(E5, phi, bad, trail)
    assert trail[0].startswith(f"{rule} at ") and reason in trail[0], trail


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


def test_expand_by_cases():
    d = lm.expand_by_cases(lm.did(f("p \\/ q")), f("p \\/ q"))
    checked(BF, d)


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
def test_mono_combinators_always_check(a, b):
    da, db = lm.did(a), lm.did(b)
    sys = get_system("bfnl1-s5")
    for d in (lm.and_mono(da, db), lm.or_mono(da, db), lm.prod_mono(da, db),
              lm.under_mono(da, db), lm.over_mono(da, db), lm.neg_anti(da)):
        assert ck.check_derivation(sys, (), d)


def test_serialization_round_trip_preserves_checkability():
    d = lm.dm_and_fwd(f("p * q"), f("q \\ r"))
    j = pf.to_json(d)
    d2 = pf.from_json(j)
    assert d2.seq == d.seq and pf.size(d2) == pf.size(d)
    checked(BF, d2)


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
    (_edit(["nodes", -1, "inst", "main"], 999), "not an index below"),
    (_edit(["nodes", -1, "inst", "mian"], 0), "unknown"),
    (_edit(["nodes", -1, "premises"], None), "malformed"),
    (lambda t: t["nodes"].clear(), "no nodes"),
], ids=["no-format", "format-1", "unknown-tag", "keyword-atom", "formula-self",
        "formula-negative", "succedent-range", "leaf-range", "node-sequent-range",
        "premise-range", "premise-self", "premise-later", "main-range",
        "unknown-inst-field", "premises-not-a-list", "empty"])
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
