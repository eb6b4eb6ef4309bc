import random
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import (assumptions_of, atom_names, lambek_formulas, large_modal_formulas,
                      letters_through_payloads, modal_formulas, negrewrite_derivation,
                      sample_kripke, struct_trees, walk)
from fnlkit import checker as ck
from fnlkit import ktableau as kt
from fnlkit import lemmas as lm
from fnlkit import models as md
from fnlkit import proofs as pf
from fnlkit import prover as pv
from fnlkit import sampling as smp
from fnlkit import strategy as strat
from fnlkit import syntax as sx
from fnlkit import transform as tr
from fnlkit.errors import LemmaError, ValidationError
from fnlkit.prover import SearchBudget, derive
from fnlkit.systems import get_system, validate_assumptions, validate_sequent
from test_acceptance import CONSERVATIVITY_SYSTEMS, conservativity_goals, corpus

p, q = sx.LAtom("p"), sx.LAtom("q")
mp, mq = sx.MAtom("p"), sx.MAtom("q")

# formulas inside the negation-elimination domain (no modal/unit/letters)
bounded_formulas = st.recursive(
    st.one_of(atom_names.map(sx.LAtom), st.sampled_from([sx.BOT, sx.TOP])),
    lambda kids: st.one_of(
        st.builds(sx.LAnd, kids, kids),
        st.builds(sx.LOr, kids, kids),
        st.builds(sx.LNot, kids),
        st.builds(sx.LProd, kids, kids),
        st.builds(sx.LUnder, kids, kids),
        st.builds(sx.LOver, kids, kids),
    ),
    max_leaves=8,
)


# ---------------------------------------------------------------------------
# dagger


def test_dagger_clauses():
    assert tr.dagger(sx.MDia(mp)) == sx.parse_lambek("m * p")
    assert tr.dagger(sx.MImp(mp, mq)) == sx.parse_lambek("~p \\/ q")
    assert tr.dagger(sx.parse_modal("[]p")) == sx.parse_lambek("~(m * ~p)")
    assert tr.dagger(sx.MBot()) == sx.BOT
    with pytest.raises(ValidationError):
        tr.dagger(sx.MAtom("m"))


@given(modal_formulas)
def test_dagger_size_linear_and_fragment(a):
    if "m" in sx.matoms(a):
        return
    out = tr.dagger(a)
    assert sx.lsize(out) <= 2 * sx.lsize(a) + 1
    for g in walk(out):
        assert not isinstance(g, (sx.LTop, sx.LOne, sx.LDia, sx.LBoxDown, sx.LUnder, sx.LOver, sx.LFresh))


# ---------------------------------------------------------------------------
# two-copy construction


def test_build_ternary_model_shape():
    m = md.KripkeModel(("w", "u"), frozenset([("w", "u")]), {"p": frozenset(["u"])})
    j = tr.build_ternary_model(m)
    assert set(j.states) == {"w1", "w2", "u1", "u2"}
    assert j.rel3 == {("w1", "w2", "u1")}
    assert j.val["p"] == {"u1", "u2"}
    assert j.val["m"] == set(j.states)
    empty = tr.build_ternary_model(md.KripkeModel(("w",), frozenset(), {}))
    assert empty.rel3 == frozenset()


def test_build_exchange_shape():
    m = md.KripkeModel(("w", "u"), frozenset([("w", "u")]), {})
    j = tr.build_ternary_model(m, exchange=True)
    assert j.rel3 == {
        ("w1", "u1", "u2"),
        ("w1", "u2", "u1"),
        ("w2", "u1", "u2"),
        ("w2", "u2", "u1"),
    }
    assert all((u, w, v) in j.rel3 for (u, v, w) in j.rel3)


@settings(max_examples=120)
@given(modal_formulas)
def test_truth_lemma_on_samples(a):
    if "m" in sx.matoms(a):
        return
    rng = random.Random(sx.lsize(a))
    m = sample_kripke(rng, 4, ("p", "q", "r", "s_1"))
    j = tr.build_ternary_model(m)
    for w in m.states:
        assert md.eval_modal(m, w, a) == md.eval_lambek(j, tr.copy1(w), tr.dagger(a))


@settings(max_examples=60)
@given(modal_formulas)
def test_copy_agreement_on_exchange_models(a):
    if "m" in sx.matoms(a):
        return
    rng = random.Random(17)
    m = sample_kripke(rng, 4, ("p", "q", "r", "s_1"))
    j = tr.build_ternary_model(m, exchange=True)
    f = tr.dagger(a)
    for w in m.states:
        assert md.eval_lambek(j, tr.copy1(w), f) == md.eval_lambek(j, tr.copy2(w), f)
        # and the truth condition itself transfers to the first copy
        assert md.eval_modal(m, w, a) == md.eval_lambek(j, tr.copy1(w), f)


def test_exchange_models_commute_products():
    rng = random.Random(5)
    for _ in range(30):
        m = sample_kripke(rng, 4, ("p", "q"))
        j = tr.build_ternary_model(m, exchange=True)
        for a, b in [(p, q), (sx.LProd(sx.LAtom("m"), p), q), (sx.LNot(p), sx.LOr(p, q))]:
            for u in j.states:
                ab = md.eval_lambek(j, u, sx.LProd(a, b))
                ba = md.eval_lambek(j, u, sx.LProd(b, a))
                assert ab == ba


# ---------------------------------------------------------------------------
# unit extension


def test_extend_with_unit():
    m = md.KripkeModel(("w", "u"), frozenset([("w", "u")]), {"p": frozenset(["w", "u"]), "q": frozenset(["u"])})
    j = tr.build_ternary_model(m)
    ju = tr.extend_with_unit(j, m)
    assert ju.unit == "e"
    assert "e" in ju.val["p"]  # p held everywhere in the source
    assert "e" not in ju.val["q"]
    assert "e" not in ju.val["m"]  # the designated letter never counts
    # each non-unit state contributes two fresh triples, the unit one
    assert len(ju.rel3) == len(j.rel3) + 2 * len(j.states) + 1
    with pytest.raises(ValidationError):
        tr.extend_with_unit(ju, m)


# ---------------------------------------------------------------------------
# companion sequents


def test_psi_set():
    t = frozenset([p, sx.TOP, sx.BOT])
    got = tr.psi_set(t)
    assert got == {
        sx.parse_sequent("p /\\ p{p} => bot"),
        sx.parse_sequent("top => p \\/ p{p}"),
    }
    assert tr.psi_set([sx.TOP, sx.BOT]) == frozenset()
    assert len(tr.psi_set([p, q, sx.TOP, sx.BOT])) == 4


def test_exn_and_ec():
    assert tr.exn([p, sx.LNot(p), sx.LProd(p, q)]) == {p, sx.LProd(p, q)}
    assert tr.ec([sx.LAnd(p, sx.BOT)]) == {sx.LAnd(p, sx.P_BOT)}
    assert tr.ec([p]) == {p}


# ---------------------------------------------------------------------------
# ddagger


def test_ddagger_clauses():
    assert tr.ddagger(sx.LNot(p)) == sx.fresh_for(p)
    assert tr.ddagger(sx.LNot(sx.LAnd(p, q))) == sx.LOr(sx.fresh_for(p), sx.fresh_for(q))
    assert tr.ddagger(sx.LProd(p, q)) == sx.LProd(p, q)
    assert tr.ddagger(sx.LNot(sx.LNot(p))) == p  # letters resolve back
    f = sx.parse_lambek("~(m * ~p)")
    assert tr.ddagger(f) == sx.fresh_for(sx.parse_lambek("m * p{p}"))


def test_ddagger_problem_covers_buried_negations():
    goal = sx.Sequent(None, sx.parse_lambek("~(m * ~p) \\/ m * ~p"))
    out_goal, psi = tr.ddagger_problem(goal)
    assert sx.neg_free(out_goal.suc)
    inner = sx.parse_lambek("m * p{p}")
    # the companion pair for the buried product must be present
    assert sx.simple(sx.LAnd(inner, sx.fresh_for(inner)), sx.BOT) in psi
    assert sx.simple(sx.TOP, sx.LOr(inner, sx.fresh_for(inner))) in psi


# ---------------------------------------------------------------------------
# theta / section


def test_theta_set():
    assert tr.theta_set([]) == frozenset()
    got = tr.theta_set([p])
    assert len(got) == 6
    assert sx.parse_sequent("p_bot => p") in got
    assert sx.parse_sequent("p * p_bot => p_bot") in got
    assert sx.parse_sequent("p => p_top") in got
    assert len(tr.theta_set([p, q])) == 12


def test_section_embed():
    assert tr.section_map(sx.BOT) == sx.P_BOT
    assert tr.section_map(sx.LProd(p, sx.TOP)) == sx.LProd(p, sx.P_TOP)
    with pytest.raises(ValidationError):
        tr.section_map(sx.LNot(p))
    goal = sx.parse_sequent("p /\\ bot => bot")
    out_goal, phi = tr.section_embed(goal)
    assert out_goal == sx.parse_sequent("p /\\ p_bot => p_bot")
    t = tr.problem_base(goal)
    assert phi == tr.theta_set(tr.ec(t))
    for s in phi:
        for f in sx.sequent_formulas(s):
            assert not any(isinstance(g, (sx.LTop, sx.LBot)) for g in walk(f))


def test_pipeline_shape():
    name, goal, phi = tr.pipeline_k_to_dfnl(sx.parse_modal("p -> p"))
    assert name == "dfnl"
    banned = (sx.LNot, sx.LTop, sx.LBot)
    for s in [goal, *phi]:
        for f in sx.sequent_formulas(s):
            assert not any(isinstance(g, banned) for g in walk(f))
    # a letter's payload may mention constants; live structure may not
    name2, goal2, phi2 = tr.pipeline_k_to_dfnl(sx.parse_modal("[](p -> q) -> ([]p -> []q)"))
    # the empty antecedent lands as the top letter: the constant-free
    # system has no empty-antecedent axioms left to discharge it
    assert goal2.ant == sx.SLeaf(sx.P_TOP) and len(phi2) > 6


@settings(max_examples=25)
@given(modal_formulas)
def test_the_section_stage_is_a_dfnl_problem_with_the_k_verdict(a):
    name, goal, phi = tr.pipeline_k_to_dfnl(a)
    dfnl = get_system(name)
    assert name == "dfnl"
    validate_sequent(dfnl, goal)
    validate_assumptions(dfnl, phi)
    r = derive(dfnl, phi, goal, SearchBudget(max_goals=150, samples=0))
    assert r.verdict == (pv.PROVED if kt.k_decide(a).valid else pv.REFUTED)


# ---------------------------------------------------------------------------
# certified companion pairs


def test_pair_builders_cover_a_small_closure():
    t = frozenset([p, q, sx.TOP, sx.BOT])
    psi = tr.psi_set(t)
    sys_b = get_system("bdfnl-star")
    members = sx.enumerate_closure(sx.ClosureSpec(t, "and_or", 2))
    assert len(members) > 500
    for f in members:
        for d in (tr.pair_bot(f, psi), tr.pair_top(f, psi)):
            assert ck.check_derivation(sys_b, psi, d), sx.render_lambek(f)
    d = tr.pair_bot(sx.LAnd(p, q), psi)
    assert d.seq == sx.parse_sequent("(p /\\ q) /\\ (p{p} \\/ p{q}) => bot")


def _pair_psi(f):
    return tr.psi_set(tr.exn_star(tr.problem_base(sx.simple(f, sx.BOT))))


def test_pair_bot_of_a_distributed_conjunction_stays_small():
    g = sx.parse_lambek("((p \\/ q) /\\ (p \\/ bot)) /\\ (q \\/ top)")
    psi = _pair_psi(g)
    d = tr.pair_bot(g, psi)
    assert ck.check_derivation(get_system("bdfnl-star"), psi, d)
    assert pf.size(d) <= 88


def alternating(n: int) -> sx.LFormula:
    """(((p0 /\\ p1) \\/ p2) /\\ p3) ...: n connectives, /\\ and \\/ in turn,
    each with a new letter."""
    f = sx.LAtom("p0")
    for i in range(1, n + 1):
        f = (sx.LAnd if i % 2 else sx.LOr)(f, sx.LAtom(f"p{i}"))
    return f


def test_pair_certificates_stay_linear():
    # a core found by `lat_le` search grows faster than linearly with the
    # depth of the pair (over 1,000 nodes at n = 6 for pair_bot); a fixed
    # one adds at most 25 nodes per connective
    sys_b = get_system("bdfnl-star")
    for n in [*range(2, 13), 200]:
        f = alternating(n)
        psi = _pair_psi(f)
        for d in (tr.pair_bot(f, psi), tr.pair_top(f, psi)):
            assert ck.check_derivation(sys_b, psi, d), n
            assert pf.size(d) <= 26 * n, (n, pf.size(d))


lattice_formulas = st.recursive(
    st.one_of(atom_names.map(sx.LAtom), st.sampled_from([sx.TOP, sx.BOT]),
              atom_names.map(lambda n: sx.fresh_for(sx.LAtom(n)))),
    lambda kids: st.one_of(st.builds(sx.LAnd, kids, kids), st.builds(sx.LOr, kids, kids)),
    max_leaves=12,
)


@given(lattice_formulas)
@settings(max_examples=80)
def test_pair_certificates_of_lattice_formulas_check_in_linear_size(f):
    psi = _pair_psi(f)
    sys_b = get_system("bdfnl-star")
    leaves = sx.lsize(f) + 1
    for d in (tr.pair_bot(f, psi), tr.pair_top(f, psi)):
        assert ck.check_derivation(sys_b, psi, d)
        assert pf.size(d) <= 32 * leaves


def test_pair_builders_search_only_the_pair_of_a_bare_constant(monkeypatch):
    # the lattice cases and both swaps build fixed shapes: lat_le runs only
    # where a bare constant's pair is closed.  A letter whose payload is a
    # lattice formula takes try_pairs' swaps, since tilde_ext does not map
    # the payload back to the letter
    allowed = {(sx.LAnd(c, tr.tilde_ext(c)), sx.BOT) for c in (sx.TOP, sx.BOT)}
    allowed |= {(sx.TOP, sx.LOr(c, tr.tilde_ext(c))) for c in (sx.TOP, sx.BOT)}
    seen = []
    real = lm.lat_le_strict
    monkeypatch.setattr(lm, "lat_le_strict", lambda a, b: seen.append((a, b)) or real(a, b))
    monkeypatch.setattr(lm, "lat_le", lambda a, b: pytest.fail("lat_le called"))
    sys_b = get_system("bdfnl-star")
    for text in ("((p /\\ top) \\/ q /\\ p{r}) /\\ (bot \\/ p{p})",
                 "(top /\\ bot) \\/ (p /\\ bot)", "p{q} \\/ (q /\\ top)", "p{p /\\ q}"):
        f = sx.parse_lambek(text)
        psi = _pair_psi(f)
        t = tr.tilde_ext(f)
        for goal in (sx.simple(sx.LAnd(f, t), sx.BOT), sx.simple(sx.LAnd(t, f), sx.BOT),
                     sx.simple(sx.TOP, sx.LOr(f, t)), sx.simple(sx.TOP, sx.LOr(t, f))):
            d = strat.try_pairs(sys_b, psi, goal, None)
            assert d.seq == goal
            assert ck.check_derivation(sys_b, psi, d)
    assert set(seen) <= allowed


def test_a_pair_of_constant_value_is_closed_by_that_value():
    # the side of value bot is refuted outright, whatever letters the
    # other side holds
    f = sx.parse_lambek("(top \\/ p) /\\ (q \\/ top)")
    psi = _pair_psi(f)
    d = tr.pair_bot(f, psi)
    assert d.rule == pf.AND_L and d.idx == 2
    assert assumptions_of(d) == frozenset()
    assert ck.check_derivation(get_system("bdfnl-star"), psi, d)
    top = tr.pair_top(f, psi)
    assert top.rule == pf.OR_R and top.idx == 1
    assert ck.check_derivation(get_system("bdfnl-star"), psi, top)


def test_pair_builders_fail_fast_without_members():
    assert tr.pair_bot(sx.TOP, frozenset()).seq.suc == sx.BOT
    with pytest.raises(LemmaError):
        tr.pair_bot(p, frozenset())
    with pytest.raises(LemmaError):
        tr.pair_top(sx.LOr(p, q), frozenset())


def test_pair_builders_handle_generated_letters():
    # a letter's pair reuses the payload member through commutativity
    t = frozenset([p, sx.TOP, sx.BOT])
    psi = tr.psi_set(t)
    sys_b = get_system("bdfnl-star")
    letter = sx.fresh_for(p)
    d = tr.pair_bot(letter, psi)
    assert d.seq == sx.parse_sequent("p{p} /\\ p => bot")
    assert ck.check_derivation(sys_b, psi, d)
    assert ck.check_derivation(sys_b, psi, tr.pair_top(letter, psi))


# ---------------------------------------------------------------------------
# certified absorption


def test_absorption_builders():
    t = frozenset([p, q, sx.TOP, sx.BOT])
    theta = tr.theta_set(tr.ec(t))
    sys_d = get_system("dfnl-star")
    tree = sx.SNode(sx.SLeaf(sx.P_BOT), sx.SNode(sx.SLeaf(p), sx.SLeaf(sx.LAnd(p, q))))
    d = tr.tree_absorb(tree, (0,), theta)
    assert d.seq == sx.parse_sequent("p_bot o (p o p /\\ q) => p_bot")
    assert ck.check_derivation(sys_d, theta, d)
    d = tr.tree_top(sx.SNode(sx.SLeaf(q), sx.SLeaf(sx.LOr(p, q))), theta)
    assert d.seq == sx.parse_sequent("q o p \\/ q => p_top")
    assert ck.check_derivation(sys_d, theta, d)
    d = tr.sec_from_pbot(sx.LAnd(p, sx.LOr(q, p)), theta)
    assert d.seq == sx.parse_sequent("p_bot => p /\\ (q \\/ p)")
    assert ck.check_derivation(sys_d, theta, d)
    d = tr.sec_top(sx.LProd(p, q), theta)
    assert d.seq == sx.parse_sequent("p * q => p_top")
    assert ck.check_derivation(sys_d, theta, d)


def test_absorption_builders_reject_bad_input():
    theta = tr.theta_set(tr.ec(frozenset([p, sx.TOP, sx.BOT])))
    with pytest.raises(LemmaError):
        tr.tree_absorb(sx.SLeaf(p), (), theta)  # path does not end at the letter
    with pytest.raises(LemmaError):
        tr.tree_absorb(sx.SNode(sx.SLeaf(sx.P_BOT), sx.SLeaf(p)), (1,), theta)
    with pytest.raises(LemmaError):
        tr.tree_top(sx.SBracket(sx.SLeaf(p)), theta)
    with pytest.raises(LemmaError):
        tr.sec_top(q, theta)  # q is not a member here
    with pytest.raises(LemmaError):
        tr.sec_from_pbot(sx.LProd(p, p), theta)


def test_absorption_over_random_contexts():
    t = frozenset([p, q, sx.TOP, sx.BOT])
    members = sx.enumerate_closure(sx.ClosureSpec(t, "and_or", 2))
    theta = tr.theta_set(tr.ec(t) | {tr.section_map(f) for f in members})
    sys_d = get_system("dfnl-star")
    rng = random.Random(41)

    def grow(leaves_left):
        if leaves_left <= 1 or rng.random() < 0.4:
            return sx.SLeaf(tr.section_map(rng.choice(members)))
        split = rng.randint(1, leaves_left - 1)
        return sx.SNode(grow(split), grow(leaves_left - split))

    for _ in range(25):
        tree = grow(rng.randint(1, 4))
        d = tr.tree_top(tree, theta)
        assert d.seq == sx.Sequent(tree, sx.P_TOP)
        assert ck.check_derivation(sys_d, theta, d)
        # plant the bot letter at a random leaf and absorb from there
        paths = []
        todo = [(tree, ())]
        while todo:
            node, at = todo.pop()
            if isinstance(node, sx.SLeaf):
                paths.append(at)
            else:
                todo += [(node.l, at + (0,)), (node.r, at + (1,))]
        spot = rng.choice(paths)
        planted = pf.tree_replace(tree, spot, sx.SLeaf(sx.P_BOT))
        d = tr.tree_absorb(planted, spot, theta)
        assert d.seq == sx.Sequent(planted, sx.P_BOT)
        assert ck.check_derivation(sys_d, theta, d)


# ---------------------------------------------------------------------------
# derivation transports


def test_ddagger_derivation_transport():
    goal = sx.parse_sequent("=> ~p \\/ p")
    r = derive(get_system("bfnl-star"), (), goal, SearchBudget(time_cap_ms=8000))
    assert r.verdict == "proved"
    g2, psi = tr.ddagger_problem(goal, ())
    d2 = tr.ddagger_derivation(r.derivation, psi)
    assert d2.seq == g2 == sx.parse_sequent("=> p{p} \\/ p")
    assert ck.check_derivation(get_system("bdfnl-star"), psi, d2)
    rules = {n.rule for n in pf.post_order(d2)}
    assert pf.NEG1 not in rules and pf.NEG2 not in rules


def test_ddagger_derivation_rejects_modal_rules():
    d = lm.ddia_r(lm.did(p))
    with pytest.raises(LemmaError):
        tr.ddagger_derivation(d, None)


def test_negrewrite_inverts_the_transport():
    goal = sx.parse_sequent("~(p /\\ q) => ~p \\/ ~q")
    r = derive(get_system("bfnl-star"), (), goal, SearchBudget(time_cap_ms=8000))
    assert r.verdict == "proved"
    _, psi = tr.ddagger_problem(goal, ())
    there = tr.ddagger_derivation(r.derivation, psi)
    back = negrewrite_derivation(there)
    # the rewrite lands on the dual-normal spelling of the goal, and
    # re-eliminating negations recovers the transported sequent exactly
    assert back.seq == sx.parse_sequent("~p \\/ ~q => ~p \\/ ~q")
    assert tr.ddagger_sequent(back.seq) == there.seq
    # companion members rewrite into negation axioms, so nothing remains open
    assert assumptions_of(back) == frozenset()
    assert ck.check_derivation(get_system("bfnl-star"), (), back)


def test_negrewrite_round_trip_is_exact_off_lattice_negations():
    # negations sitting directly on atoms survive the loop verbatim
    goal = sx.parse_sequent("=> ~p \\/ p")
    r = derive(get_system("bfnl-star"), (), goal, SearchBudget(time_cap_ms=8000))
    _, psi = tr.ddagger_problem(goal, ())
    back = negrewrite_derivation(tr.ddagger_derivation(r.derivation, psi))
    assert back.seq == goal
    assert ck.check_derivation(get_system("bfnl-star"), (), back)


def test_neg_axiom_recognizer():
    assert tr.neg_axiom(sx.parse_sequent("p /\\ ~p => bot")).rule == pf.NEG1
    assert tr.neg_axiom(sx.parse_sequent("top => p \\/ ~p")).rule == pf.NEG2
    assert tr.neg_axiom(sx.parse_sequent("~p /\\ p => bot")) is None
    assert tr.neg_axiom(sx.parse_sequent("p => p")) is None


def test_section_derivation_transport():
    goal = sx.parse_sequent("p /\\ bot => q")
    r = derive(get_system("bdfnl-star"), (), goal, SearchBudget(time_cap_ms=8000))
    assert r.verdict == "proved"
    g2, theta = tr.section_embed(goal, ())
    d2 = tr.section_derivation(r.derivation, theta)
    assert d2.seq == g2 == sx.parse_sequent("p /\\ p_bot => q")
    assert ck.check_derivation(get_system("dfnl-star"), theta, d2)
    assert tr.section_inverse_sequent(d2.seq) == goal


def test_section_derivation_rejects_out_of_scope_rules():
    with pytest.raises(LemmaError):
        tr.section_derivation(lm.dneg1(p), None)
    # an empty-antecedent residual introduction has no constant-free image
    d = lm.dunder_r(lm.dprod_r(lm.did(p), lm.did(q)), p)
    r = derive(get_system("bdfnl-star"), (), sx.parse_sequent("=> p \\ p"),
               SearchBudget(time_cap_ms=8000))
    assert r.verdict == "proved"
    with pytest.raises(LemmaError):
        tr.section_derivation(r.derivation, None)
    # with a populated antecedent the same rule transports fine
    theta = tr.theta_set(tr.ec(tr.problem_base(d.seq)))
    out = tr.section_derivation(d, theta)
    assert ck.check_derivation(get_system("dfnl-star"), theta, out)


# ---------------------------------------------------------------------------
# letter inverses


@given(bounded_formulas)
def test_negrewrite_inverts_ddagger_on_images(f):
    img = tr.ddagger(f)
    assert tr.ddagger(tr.negrewrite(img)) == img


@given(bounded_formulas)
def test_section_inverse_on_images(f):
    if not sx.neg_free(f):
        return
    img = tr.section_map(f)
    assert tr.section_inverse(img) == f
    for g in walk(img):
        assert not isinstance(g, (sx.LTop, sx.LBot))


def test_sequent_level_inverses():
    s = sx.parse_sequent("~~p /\\ ~q => ~(p * q) \\/ top")
    img = tr.ddagger_sequent(s)
    assert tr.ddagger_sequent(tr.negrewrite_sequent(img)) == img
    t = sx.parse_sequent("(p o top) o bot => p \\/ bot")
    assert tr.section_inverse_sequent(tr.section_sequent(t)) == t
    # the empty antecedent is not recoverable: it lands on the top letter
    u = tr.section_sequent(sx.parse_sequent("=> p"))
    assert u.ant == sx.SLeaf(sx.P_TOP)
    assert tr.section_inverse_sequent(u) == sx.parse_sequent("top => p")


# ---------------------------------------------------------------------------
# one memo per pull-back
#
# Plain recursive references for the memoized chain maps.


def _ref_tilde(a):
    if isinstance(a, sx.LTop):
        return sx.BOT
    if isinstance(a, sx.LBot):
        return sx.TOP
    if isinstance(a, sx.LAnd):
        return sx.LOr(_ref_tilde(a.l), _ref_tilde(a.r))
    if isinstance(a, sx.LOr):
        return sx.LAnd(_ref_tilde(a.l), _ref_tilde(a.r))
    if isinstance(a, sx.LFresh) and a.mark == "neg":
        return a.of
    return sx.fresh_for(a)


def _ref_ddag(a):
    if isinstance(a, sx.LNot):
        return _ref_tilde(_ref_ddag(a.a))
    return sx.map_children(a, _ref_ddag)


def _ref_section(a):
    if isinstance(a, sx.LBot):
        return sx.P_BOT
    if isinstance(a, sx.LTop):
        return sx.P_TOP
    if isinstance(a, sx.LNot):
        raise ValidationError("negation")
    return sx.map_children(a, _ref_section)


def _ref_section_inverse(a):
    if a == sx.P_BOT:
        return sx.BOT
    if a == sx.P_TOP:
        return sx.TOP
    if isinstance(a, sx.LFresh) and a.mark == "neg":
        return sx.fresh_for(_ref_section_inverse(a.of))
    return sx.map_children(a, _ref_section_inverse)


def _ref_negrewrite(a):
    if isinstance(a, sx.LFresh) and a.mark == "neg":
        return sx.LNot(_ref_negrewrite(a.of))
    return sx.map_children(a, _ref_negrewrite)


def _ref_sequent(fmap, s):
    ant = None if s.ant is None else sx.map_tree(s.ant, fmap)
    return sx.Sequent(ant, fmap(s.suc))


def _ref_section_sequent(s):
    if s.ant is None:
        return sx.Sequent(sx.SLeaf(sx.P_TOP), _ref_section(s.suc))
    return _ref_sequent(_ref_section, s)


FORMULA_MAPS = (
    (tr._ddag, _ref_ddag),
    (tr.tilde_ext, _ref_tilde),
    (tr.section_map, _ref_section),
    (tr.section_inverse, _ref_section_inverse),
    (tr.negrewrite, _ref_negrewrite),
)
SEQUENT_MAPS = (
    (tr.ddagger_sequent, lambda s: _ref_sequent(_ref_ddag, s)),
    (tr.section_sequent, _ref_section_sequent),
    (tr.section_inverse_sequent, lambda s: _ref_sequent(_ref_section_inverse, s)),
    (tr.negrewrite_sequent, lambda s: _ref_sequent(_ref_negrewrite, s)),
)
MEMOIZED = tuple(m for m, _ in FORMULA_MAPS + SEQUENT_MAPS)


def _image(fmap, x, *memo):
    try:
        return fmap(x, *memo)
    except ValidationError:
        return ValidationError  # section_map is undefined on negations


def test_memoized_maps_agree_with_plain_recursion():
    # one memo per problem, as a pull-back shares one over the goal and phi;
    # the maps must also give the same images without a memo
    theorems, non_theorems = corpus()
    for a in theorems + non_theorems:
        for stage in tr.STAGES:
            _, goal, phi = _problem(a, stage)
            memo: dict = {}
            for s in (goal, *phi):
                for fmap, ref in SEQUENT_MAPS:
                    want = _image(ref, s)
                    assert _image(fmap, s, memo) == want == _image(fmap, s), (stage, s)
                for f in sx.sequent_formulas(s):
                    for fmap, ref in FORMULA_MAPS:
                        want = _image(ref, f)
                        assert _image(fmap, f, memo) == want == _image(fmap, f), (stage, f)
    # equal terms share one image object within a memo
    memo = {}
    f = sx.parse_lambek("~(p /\\ top) \\/ ~(p /\\ top)")
    img = tr._ddag(f, memo)
    assert img.l is img.r


@pytest.fixture
def counted_steps(monkeypatch):
    """Counts each step call by (memo, map, term); memos are kept alive so
    that no id is reused while counting."""
    calls: Counter = Counter()
    memos: dict = {}
    for fmap in MEMOIZED:
        def step(a, memo, _step=fmap.step, _map=fmap):
            memos[id(memo)] = memo
            calls[id(memo), _map, a] += 1
            return _step(a, memo)

        monkeypatch.setattr(fmap, "step", step)
    return calls


def test_one_transport_maps_each_term_once(counted_steps):
    budget = SearchBudget(max_goals=150, samples=0)
    theorems, _ = corpus()
    used = set()
    for a in theorems:
        sys, goal, phi = _problem(a, "section")
        counted_steps.clear()
        r = derive(sys, phi, goal, budget)
        assert (r.verdict, r.strategy) == (pv.PROVED, "unsection"), sx.render_modal(a)
        assert max(counted_steps.values()) == 1, sx.render_modal(a)
        # each pull-back's forward map and transport share its one memo
        for forward in (tr.section_sequent, tr.ddagger_sequent):
            assert len({memo for memo, m, _ in counted_steps if m is forward}) <= 1
        used |= {m for _, m, _ in counted_steps}
    # the inverse, forward and transport maps of both pull-backs ran (some
    # ddagger-stage goals are companion pairs, proved without unneg)
    assert used == set(MEMOIZED)
    # one transport called on its own makes one memo, and maps each term once
    sys, goal, phi = _problem(theorems[0], "ddagger")
    d = derive(get_system("bfnl-star"), (), sx.Sequent(None, tr.dagger(theorems[0])),
               budget).derivation
    counted_steps.clear()
    there = tr.ddagger_derivation(d, phi)
    assert ck.check_derivation(sys, phi, there)
    assert len({memo for memo, _, _ in counted_steps}) == 1
    assert max(counted_steps.values()) == 1


def test_the_chain_holds_no_cache_across_calls():
    # a memo lives for one call: no functools cache, and no table left on a
    # module or on a map once a pull-back returns
    sys, goal, phi = _problem(corpus()[0][0], "section")
    assert derive(sys, phi, goal, SearchBudget(max_goals=150, samples=0)).verdict == pv.PROVED
    for mod in (tr, strat):
        for name, value in vars(mod).items():
            if name.startswith("__"):
                continue
            assert not hasattr(value, "cache_clear"), f"{mod.__name__}.{name}"
            assert not (isinstance(value, dict) and value), f"{mod.__name__}.{name}"
    for fmap in MEMOIZED:
        assert not any(isinstance(v, dict) for v in vars(fmap).values()), fmap.__name__


# ---------------------------------------------------------------------------
# the K countermodel pushed down the chain


def _problem(a: sx.ModalFormula, stage: str):
    system, goal, phi = tr.pipeline_k_to_dfnl(a, stage)
    return get_system(system), goal, tuple(sorted(phi, key=sx.render_sequent))


def _fresh(goal, phi):
    # the problem's generated letters, as find_countermodel collects them
    return smp._letters(goal, phi)[1]


@pytest.fixture
def transfer_only(monkeypatch):
    # no small models and no samples: a countermodel can come only from
    # the transferred K countermodel
    monkeypatch.setattr(smp, "_exhaustive_ternary", lambda *args: iter(()))
    return smp.SampleBudget(samples=0)


def test_the_k_countermodel_refutes_every_stage(transfer_only):
    theorems, non_theorems = corpus()
    missed = []
    for a in non_theorems:
        for stage in tr.STAGES:
            _, goal, phi = _problem(a, stage)
            hit = smp.find_countermodel(goal, phi, transfer_only, smp.chain_verdict(goal))
            if hit is None:
                missed.append((a, stage))
            else:
                assert smp._verify_ternary(hit[0], goal, phi) == hit[1]
    assert missed == []
    for a in theorems:
        for stage in tr.STAGES:
            _, goal, phi = _problem(a, stage)
            assert smp._transfer_ternary(_fresh(goal, phi), False, smp.chain_verdict(goal)) is None


class _SearchReached(Exception):
    pass


def test_derive_transfers_before_searching(transfer_only, monkeypatch):
    search = pv._search
    _, non_theorems = corpus()
    problems = [_problem(a, "section") for a in non_theorems]
    top = {sys.name for sys, _, _ in problems}

    def no_top_level_search(sys, phi, goal, budget, deadline):
        # the pull-back strategies' recursive calls may still search
        if sys.name in top:
            raise _SearchReached
        return search(sys, phi, goal, budget, deadline)

    monkeypatch.setattr(pv, "_search", no_top_level_search)
    budget = SearchBudget(max_goals=150, samples=0)
    for a, (sys, goal, phi) in zip(non_theorems, problems):
        r = derive(sys, phi, goal, budget)
        assert r.verdict == pv.REFUTED, sx.render_modal(a)
        assert smp._verify_ternary(r.model, goal, phi) == r.state


def test_a_chain_non_theorem_is_refuted_before_the_strategies(monkeypatch):
    budget = SearchBudget(max_goals=150, samples=0)
    theorems, non_theorems = corpus()
    problems = [_problem(a, "section") for a in non_theorems]
    plain = [derive(sys, phi, goal, budget) for sys, goal, phi in problems]
    decided = []

    def k_decide(a):
        decided.append(a)
        return kt.k_decide(a)

    monkeypatch.setattr(smp, "k_decide", k_decide)
    chain = strat.STRATEGIES

    def refuse(*args):
        raise AssertionError("a strategy ran")

    monkeypatch.setattr(strat, "STRATEGIES", tuple((name, refuse) for name, _ in chain))
    for (sys, goal, phi), want in zip(problems, plain):
        decided.clear()
        r = derive(sys, phi, goal, budget)
        assert r.verdict == pv.REFUTED
        assert (r.model, r.state) == (want.model, want.state)
        assert len(decided) == 1
        # the model the countermodel search without samples finds first
        assert (smp.find_countermodel(goal, phi, smp.SampleBudget(samples=0),
                                      smp.chain_verdict(goal)) == (r.model, r.state))
    # a theorem's goal reads back once too, then reaches the strategies
    reached = []

    def record(name, fn):
        def run(*args):
            reached.append(name)
            return fn(*args)
        return run

    monkeypatch.setattr(strat, "STRATEGIES", tuple((name, record(name, fn)) for name, fn in chain))
    sys, goal, phi = _problem(theorems[0], "section")
    decided.clear()
    r = derive(sys, phi, goal, budget)
    assert (r.verdict, r.strategy) == (pv.PROVED, "unsection")
    assert reached[0] == "axiom" and "unsection" in reached
    assert len(decided) == 1


def test_every_stage_is_decided_without_samples():
    # every goal of the chain reads back to K, so neither a theorem nor a
    # non-theorem is left to the sampler
    budget = SearchBudget(max_goals=150, samples=0)
    theorems, non_theorems = corpus()
    for want, formulas in ((pv.PROVED, theorems), (pv.REFUTED, non_theorems)):
        for a in formulas:
            for stage in tr.STAGES:
                sys, goal, phi = _problem(a, stage)
                r = derive(sys, phi, goal, budget)
                assert r.verdict == want, (sx.render_modal(a), stage)


@pytest.fixture
def counted_checks(monkeypatch):
    """Every result of the checker, in call order."""
    results = []
    check = ck.check_derivation

    def counted(*args):
        results.append(check(*args))
        return results[-1]

    monkeypatch.setattr(ck, "check_derivation", counted)
    return results


def test_a_pulled_back_theorem_is_derived_and_checked_once(monkeypatch, counted_checks):
    # the pull-backs recurse into the strategy chain and search, not into
    # derive, so only the derivation derive returns is checked
    entered = []
    run = pv.derive

    def counted(*args):
        entered.append(args)
        return run(*args)

    monkeypatch.setattr(pv, "derive", counted)
    budget = SearchBudget(max_goals=150, samples=0)
    theorems, _ = corpus()
    for a in theorems:
        sys, goal, phi = _problem(a, "section")
        entered.clear()
        counted_checks.clear()
        r = pv.derive(sys, phi, goal, budget)
        assert (r.verdict, r.strategy) == (pv.PROVED, "unsection"), sx.render_modal(a)
        assert (len(entered), counted_checks) == (1, [True]), sx.render_modal(a)


def test_the_checker_rejects_no_candidate(counted_checks):
    # derive checks only what it returns, and moves to the next candidate
    # when the checker rejects one; no candidate of these corpora is rejected
    budget = SearchBudget(max_depth=6, max_goals=2000, samples=0)
    systems = [get_system(s) for s in CONSERVATIVITY_SYSTEMS]
    for g in conservativity_goals(100):
        for s in systems:
            derive(s, (), g, budget)
    theorems, non_theorems = corpus()
    budget = SearchBudget(max_goals=150, samples=0)
    for a in theorems + non_theorems:
        for stage in tr.STAGES:
            sys, goal, phi = _problem(a, stage)
            derive(sys, phi, goal, budget)
    assert len(counted_checks) > 100
    assert all(counted_checks)


def test_k_oracle_bridges_top_to_negbot():
    # gk's proofs end in dagger images, which write ~bot where these goals
    # write top; a cut with the replacement of every ~bot by top closes the gap
    sys = get_system("bfnl-star")
    goal = sx.parse_sequent("=> ~(m * top) \\/ m * top")
    d = strat.try_k_oracle(sys, (), goal, None)
    assert d.seq == goal and ck.check_derivation(sys, (), d)
    # the unneg pull-back of [](bot -> p) -> ([]bot -> []p), and a top in an antecedent
    for text in ("=> m * (bot /\\ ~p) \\/ m * top \\/ ~(m * ~p)",
                 "~(m * ~p) /\\ top => ~(m * (~p /\\ top))"):
        goal = sx.parse_sequent(text)
        r = derive(sys, (), goal, SearchBudget(samples=0))
        assert (r.verdict, r.strategy) == (pv.PROVED, "k-oracle"), text
        assert r.derivation.seq == goal and ck.check_derivation(sys, (), r.derivation)
    # a goal that writes both ~bot and top is not met by replacing every ~bot
    mixed = sx.parse_sequent("=> ~(m * top) \\/ m * ~bot")
    assert strat.try_k_oracle(sys, (), mixed, None) is None


def test_exchange_variant_gets_the_exchange_model(transfer_only, monkeypatch):
    def no_search(*args):
        raise _SearchReached

    monkeypatch.setattr(pv, "_search", no_search)
    exchange = get_system("bfnl-e-star")
    _, non_theorems = corpus()
    for a in non_theorems:
        goal = sx.Sequent(None, tr.dagger(a))
        r = derive(exchange, (), goal, SearchBudget(samples=0))
        assert r.verdict == pv.REFUTED, sx.render_modal(a)
        assert all((u, w, v) in r.model.rel3 for (u, v, w) in r.model.rel3)
        assert smp._verify_ternary(r.model, goal, ()) == r.state


def test_transfer_declines_letters_it_cannot_value():
    # a letter's payload counts in no vocabulary mask, so a modal payload
    # gets past the plain-vocabulary check; the transfer declines instead
    # of raising, and the other candidates still run
    goal, phi = sx.parse_sequent("=> p"), (sx.parse_sequent("p{<>q} => q"),)
    verdict = smp.chain_verdict(goal)
    assert not verdict.valid
    assert smp._transfer_ternary(_fresh(goal, phi), False, verdict) is None
    assert smp.find_countermodel(goal, phi, smp.SampleBudget(samples=0), verdict) is not None


def _check_transfer(goal, phi, symmetric):
    # the transferred model values exactly the letters reachable through
    # payloads, each where its payload fails in that very model
    verdict = smp.chain_verdict(goal)
    assert verdict is not None and not verdict.valid
    j = smp._transfer_ternary(_fresh(goal, phi), symmetric, verdict)
    letters = letters_through_payloads(goal, phi)
    fixed = set(verdict.model.val) | {tr.M, sx.render_lambek(sx.P_TOP), sx.render_lambek(sx.P_BOT)}
    assert set(j.val) - fixed == {sx.render_lambek(f) for f in letters}
    for f in letters:
        assert j.val[sx.render_lambek(f)] == {
            u for u in j.states if not md.eval_lambek(j, u, f.of)}
    return letters


def _box(a):
    return sx.MNot(sx.MDia(sx.MNot(a)))


# boxes over implications: the chain's letters then nest, and countermodels
# have edges, so an inner letter's value decides an outer one's
modal_towers = st.recursive(
    st.sampled_from("pq").map(sx.MAtom),
    lambda kids: st.one_of(st.builds(sx.MImp, kids, kids), st.builds(_box, kids),
                           st.builds(sx.MDia, kids)),
    max_leaves=4,
)


@settings(max_examples=40)
@given(st.one_of(modal_formulas, modal_towers), st.sampled_from(("ddagger", "section")),
       st.booleans())
def test_transfer_values_each_letter_where_its_payload_fails(a, stage, symmetric):
    if kt.k_decide(a).valid:
        return
    _, goal, phi = tr.pipeline_k_to_dfnl(a, stage)
    _check_transfer(goal, phi, symmetric)


@settings(max_examples=40)
@given(st.one_of(modal_formulas, modal_towers, large_modal_formulas()),
       st.sampled_from(("ddagger", "section")))
def test_generated_letters_are_those_of_the_per_member_walk(a, stage):
    # the large formulas give chain problems of hundreds of members
    _, goal, phi = tr.pipeline_k_to_dfnl(a, stage)
    assert smp._generated_letters(_fresh(goal, phi)) == letters_through_payloads(goal, phi)


def test_generated_letters_close_over_payloads():
    # p{p{q} * p{r}} is the only letter of the problem; two more sit in its payload
    inner = sx.LProd(sx.fresh_for(q), sx.fresh_for(sx.LAtom("r")))
    goal, phi = sx.Sequent(None, sx.fresh_for(inner)), (sx.parse_sequent("p_top => p"),)
    assert smp._generated_letters(_fresh(goal, phi)) == {
        sx.fresh_for(inner), sx.fresh_for(q), sx.fresh_for(sx.LAtom("r"))}
    assert smp._generated_letters(_fresh(goal, phi)) == letters_through_payloads(goal, phi)


def test_transfer_values_the_letters_inside_payloads():
    # <>p -> []p: the box's letter p{m * p{p}} carries p{p}, and the two
    # successors of the countermodel's root make the inner letter matter
    for stage in ("ddagger", "section"):
        for symmetric in (False, True):
            _, goal, phi = tr.pipeline_k_to_dfnl(sx.parse_modal("<>p -> []p"), stage)
            letters = _check_transfer(goal, phi, symmetric)
            assert any(isinstance(g, sx.LFresh) and g.mark == "neg"
                       for f in letters for g in walk(f.of))
    # p{q} occurs only inside a payload, and is valued all the same; p_top
    # inside a payload reads as top
    goal = sx.Sequent(None, tr.dagger(sx.parse_modal("[]q \\/ []~q")))
    phi = (sx.parse_sequent("p{m * p{q}} => p{p_top /\\ q}"),)
    assert sx.fresh_for(q) in _check_transfer(goal, phi, False)


def test_a_derive_reads_its_goal_back_at_most_once(monkeypatch):
    # goals that pass the shape check but read back to no K formula: the
    # None that derive's own read finds means no transfer, so no
    # countermodel search of the call reads the goal back again
    calls = []
    read = smp.chain_verdict

    def counted(goal):
        calls.append(goal)
        return read(goal)

    monkeypatch.setattr(smp, "chain_verdict", counted)
    bfnl = get_system("bfnl-star")
    for text in ("top => q * p", "top => q * p \\ top", "top => (q * p) \\/ p5 \\/ p4 \\/ p3"):
        calls.clear()
        derive(bfnl, (), sx.parse_sequent(text), SearchBudget(samples=40))
        assert len(calls) <= 1, text


def _hit_key(hit):
    return None if hit is None else (md.ternary_to_json(hit[0]), hit[1])


@settings(max_examples=20)
@given(st.one_of(modal_formulas, modal_towers), st.sampled_from(("ddagger", "section")), st.data())
def test_the_order_of_phi_changes_no_countermodel(a, stage, data):
    _, goal, phi = tr.pipeline_k_to_dfnl(a, stage)
    ordered = tuple(sorted(phi, key=sx.render_sequent))
    shuffled = tuple(data.draw(st.permutations(ordered)))
    budget, verdict = smp.SampleBudget(samples=20), smp.chain_verdict(goal)
    want = smp.find_countermodel(goal, ordered, budget, verdict)
    assert _hit_key(smp.find_countermodel(goal, shuffled, budget, verdict)) == _hit_key(want)


# ---------------------------------------------------------------------------
# absorption goals go through the section pull-back


def test_unsection_proves_the_absorption_goals():
    # criterion 05's generator, on contexts of two or more leaves, where
    # no assumption matches outright
    t = frozenset([p, q, sx.TOP, sx.BOT])
    members = [tr.section_map(f)
               for f in sx.enumerate_closure(sx.ClosureSpec(t, "and_or", 3))]
    theta = tr.theta_set(tr.ec(t))
    dfnl = get_system("dfnl-star")
    rng = random.Random(105)
    budget = SearchBudget(max_depth=6, time_cap_ms=4000, samples=0)

    def grow(leaves):
        if leaves <= 1:
            return sx.SLeaf(rng.choice(members))
        cut = rng.randint(1, leaves - 1)
        return sx.SNode(grow(cut), grow(leaves - cut))

    for _ in range(12):
        tree = grow(rng.randint(2, 4))
        leaf_paths = [at for at, x in pf.positions(tree) if isinstance(x, sx.SLeaf)]
        spot = rng.choice(leaf_paths)
        planted = pf.tree_replace(tree, spot, sx.SLeaf(sx.P_BOT))
        suc = rng.choice([m for m in members if m != sx.P_TOP])
        absorbed = tr.tree_absorb(planted, spot, theta)
        if suc != sx.P_BOT:
            absorbed = lm.le_trans(absorbed, tr.sec_from_pbot(suc, theta))
        for goal, want in ((sx.Sequent(tree, sx.P_TOP), tr.tree_top(tree, theta)),
                           (sx.Sequent(planted, suc), absorbed)):
            r = derive(dfnl, theta, goal, budget)
            assert (r.verdict, r.strategy) == (pv.PROVED, "unsection"), sx.render_sequent(goal)
            assert pf.to_json(r.derivation) == pf.to_json(want)


# ---------------------------------------------------------------------------
# the pull-backs drop a member by a test on the member itself


def _preimage_holds_with_bounds(s):
    # the section pull-back's test as it was, read on a member's preimage
    if s.suc == sx.TOP:
        return True
    f = s.ant.f if isinstance(s.ant, sx.SLeaf) else None
    return f == sx.BOT or (isinstance(f, sx.LProd) and sx.BOT in (f.l, f.r))


# (stage, image system, strategy, its test on the image, the reference test
# on the preimage, inverse, forward)
_PULL_BACKS = (
    ("section", "dfnl", strat.try_unsection, strat._holds_with_bounds,
     _preimage_holds_with_bounds, tr.section_inverse_sequent, tr.section_sequent),
    ("ddagger", "bdfnl-star", strat.try_unneg, strat._companion,
     lambda s: tr.neg_axiom(s) is not None, tr.negrewrite_sequent, tr.ddagger_sequent),
)


def _kept_by_the_preimage_test(phi, preimage_outright, inverse, forward):
    memo, kept = {}, set()
    for m in phi:
        bm = inverse(m, memo)
        if not preimage_outright(bm) and forward(bm, memo) == m:
            kept.add(bm)
    return kept


def _check_image_outright(row, goal, phi):
    # each member's image test agrees with the reference on its preimage,
    # and the recursive call gets exactly the members the reference kept
    _, image, pull_back, outright, reference, inverse, forward = row
    for m in phi:
        assert outright(m, {}) == reference(inverse(m, {})), sx.render_sequent(m)
    handed = []
    pull_back(get_system(image), frozenset(phi), goal, lambda sys, kept, g: handed.append(kept))
    assert handed == [_kept_by_the_preimage_test(phi, reference, inverse, forward)]


def test_image_outright_keeps_what_the_preimage_test_kept_on_the_corpus():
    theorems, non_theorems = corpus()
    for a in theorems + non_theorems:
        for row in _PULL_BACKS:
            system, goal, phi = tr.pipeline_k_to_dfnl(a, row[0])
            assert system == row[1]
            _check_image_outright(row, goal, phi)


_constants = st.sampled_from([sx.BOT, sx.TOP, sx.P_BOT, sx.P_TOP])
_constant_factor = st.builds(lambda c, f, right: sx.LProd(f, c) if right else sx.LProd(c, f),
                             _constants, lambek_formulas, st.booleans())


def _companion_shape(a, b, same, top):
    # a companion member of a's letter, or of some other formula's
    letter = sx.fresh_for(a if same else b)
    if top:
        return sx.Sequent(sx.SLeaf(sx.TOP), sx.LOr(a, letter))
    return sx.Sequent(sx.SLeaf(sx.LAnd(a, letter)), sx.BOT)


_drawn_members = st.one_of(
    st.builds(
        sx.Sequent,
        st.one_of(st.none(), struct_trees,
                  st.one_of(_constants, _constant_factor, _constants.map(sx.fresh_for),
                            lambek_formulas).map(sx.SLeaf)),
        st.one_of(_constants, _constants.map(sx.fresh_for), lambek_formulas),
    ),
    st.builds(_companion_shape, lambek_formulas, lambek_formulas, st.booleans(), st.booleans()),
)


@settings(max_examples=200)
@given(st.lists(_drawn_members, max_size=6))
def test_image_outright_keeps_what_the_preimage_test_kept_on_drawn_members(phi):
    # literal constants, constant product factors, letters with constant
    # payloads, companion shapes, and ~ in bdfnl-star input (the section
    # map takes no ~)
    goal = sx.parse_sequent("p => p")
    section, ddagger = _PULL_BACKS
    _check_image_outright(section, goal, [m for m in phi if not sx.vocab(m) & sx.V_NEG])
    _check_image_outright(ddagger, goal, phi)
