"""Three-valued proof search: verdicts, budgets, and the calculus-level
invariants (checker agreement, monotonicity, discipline, soundness)."""

import hashlib
import importlib
import importlib.util
import pkgutil
import random
import re
import shutil
import subprocess
import sys as _sys
import textwrap
import types
from dataclasses import replace
from pathlib import Path

import pytest

import fnlkit
from conftest import assumptions_of, closure_contains, facts_corpus, formulas_of
from fnlkit import checker as ck
from fnlkit import lemmas as lm
from fnlkit import models as md
from fnlkit import proofs as pf
from fnlkit import prover as pv
from fnlkit import sampling
from fnlkit import strategy
from fnlkit import syntax as sx
from fnlkit import transform as tr
from fnlkit.errors import LemmaError, ParseError, ValidationError
from fnlkit.systems import SYSTEMS, get_system

BF = get_system("bfnl-star")
BFE = get_system("bfnl-e-star")
BD = get_system("bdfnl-star")
DF = get_system("dfnl-star")

FAST = pv.SearchBudget(max_depth=8, time_cap_ms=6000, samples=300)


def seq(text):
    return sx.parse_sequent(text)


def proved(sys, phi, goal, budget=FAST):
    r = pv.derive(sys, phi, seq(goal) if isinstance(goal, str) else goal, budget)
    assert r.verdict == pv.PROVED, (goal, r.verdict, r.report)
    assert ck.check_derivation(sys, phi, r.derivation)
    return r


# ---------------------------------------------------------------------------
# headline verdicts


def test_identity_is_proved_by_the_id_axiom():
    r = proved(BF, frozenset(), "p => p")
    assert r.derivation.rule == pf.ID and r.derivation.premises == ()


def test_excluded_middle_is_proved():
    r = proved(BF, frozenset(), "=> ~p \\/ p")
    assert r.derivation.seq == seq("=> ~p \\/ p")


def test_a_strategy_that_raises_lemma_error_declines(monkeypatch):
    # a builder whose pieces do not fit raises LemmaError; the strategy
    # that called it declines, and the next one in the chain proves the goal
    calls = []

    def misfit(*args):
        calls.append(args)
        raise LemmaError("derivation pieces do not fit: a test misfit")

    monkeypatch.setattr(strategy, "STRATEGIES", (("misfit", misfit),) + strategy.STRATEGIES)
    r = proved(BF, frozenset(), "p => p")
    assert r.strategy == strategy.STRATEGIES[1][0] == "axiom"
    assert len(calls) == 1


def test_bare_atom_is_refuted_by_a_one_state_model():
    r = pv.derive(BF, frozenset(), seq("=> p"), FAST)
    assert r.verdict == pv.REFUTED
    assert len(r.model.states) == 1
    assert r.model.val["p"] == frozenset()
    assert not md.sequent_true(r.model, r.state, seq("=> p"))


def test_companion_pair_goal_is_an_assumption_axiom():
    phi = tr.psi_set([sx.LAtom("p"), sx.TOP, sx.BOT])
    r = proved(BD, phi, "p /\\ p{p} => bot")
    assert r.derivation.rule == pf.ASSUMPTION


@pytest.mark.parametrize("goal", [
    "((p /\\ q) \\/ s) /\\ (p{p /\\ q} /\\ p{s}) => bot",
    "top => ((p /\\ q) \\/ s) \\/ (p{p /\\ q} /\\ p{s})",
])
def test_companion_pairs_in_swapped_order_are_proved_by_pairs(goal):
    # tilde_ext of the lattice half splits p /\ q into p{p} \/ p{q}, so only
    # the swapped branch (tilde_ext of the letter half) matches; unneg
    # cannot pull back a letter whose payload is a lattice formula
    phi = tr.psi_set([sx.parse_lambek(t) for t in ("p", "q", "s", "p /\\ q")])
    r = proved(BD, phi, goal)
    assert r.strategy == "pairs"


def test_facts_corpus_all_proved():
    for fact in facts_corpus():
        phi = frozenset(fact.premises)
        r = pv.derive(BF, phi, fact.conclusion, pv.SearchBudget())
        assert r.verdict == pv.PROVED, (fact.label, r.report)
        assert ck.check_derivation(BF, phi, r.derivation), fact.label


def test_facts_corpus_shape():
    corpus = facts_corpus()
    labels = [fact.label for fact in corpus]
    assert len(labels) == len(set(labels)) == 20
    conditionals = [fact for fact in corpus if fact.premises]
    assert len(conditionals) == 4


def test_negation_tower_needs_no_lattice_search(monkeypatch):
    # double-negation elimination swaps its conjuncts with comm_and, so the
    # boolean proof of ~^n p => p never calls lat_le_strict, whose equality
    # tests on the two near-equal towers cost O(n) per step
    def refuse(a, b):
        raise RuntimeError("lat_le_strict called")

    for cached in (lm._lat, lm._nnf, lm._blat):
        cached.cache_clear()
    monkeypatch.setattr(lm, "lat_le_strict", refuse)
    tower = sx.LAtom("p")
    for _ in range(200):
        tower = sx.LNot(tower)
    r = proved(BF, frozenset(), sx.simple(tower, sx.LAtom("p")))
    assert r.strategy == "boolean"


# ---------------------------------------------------------------------------
# budgets


def test_budget_string_round_trip():
    b = pv.parse_budget("depth:30,goals:100000,ms:30000,seed:7,samples:50")
    assert b == pv.SearchBudget(max_depth=30, max_goals=100000, time_cap_ms=30000,
                                seed=7, samples=50)
    assert pv.parse_budget("depth:5") == replace(pv.SearchBudget(), max_depth=5)


def test_budget_string_rejects_junk():
    for bad in ["depth:x", "width:3", "depth", "depth:", ":3"]:
        with pytest.raises(ValidationError):
            pv.parse_budget(bad)


def test_budget_limits_must_be_positive():
    with pytest.raises(ValidationError):
        pv.SearchBudget(max_depth=-1)
    with pytest.raises(ValidationError):
        pv.SearchBudget(max_goals=0)
    with pytest.raises(ValidationError):
        pv.SearchBudget(time_cap_ms=0)
    with pytest.raises(ValidationError):
        pv.SearchBudget(samples=-2)


@pytest.mark.parametrize("key, least", [
    ("depth", 0), ("goals", 1), ("ms", 1), ("samples", 0)])
def test_budget_messages_name_the_key_and_its_least_value(key, least):
    # the least value is accepted; one below it is rejected by the key typed
    pv.parse_budget(f"{key}:{least}")
    with pytest.raises(ValidationError, match=f"^{key} must be at least {least}$"):
        pv.parse_budget(f"{key}:{least - 1}")


def test_unknown_is_an_honest_verdict():
    # valid, so refutation finds nothing; depth 0 cannot prove it
    b = pv.SearchBudget(max_depth=0, time_cap_ms=3000, samples=40)
    r = pv.derive(get_system("dfnl"), frozenset(), seq("p => q \\ (q * p)"), b)
    assert r.verdict == pv.UNKNOWN
    assert "depth 0" in r.report
    assert r.derivation is None and r.model is None


def test_derive_validates_the_goal_for_the_system():
    with pytest.raises(ValidationError):
        pv.derive(DF, frozenset(), seq("~p => p"), FAST)  # no negation in dfnl-star
    with pytest.raises(ValidationError):
        pv.derive(BF, frozenset(), seq("< p > => p"), FAST)  # brackets are modal-only
    with pytest.raises(ValidationError):
        pv.derive(get_system("dfnl"), frozenset(), seq("=> p"), FAST)
    with pytest.raises(ValidationError):
        pv.derive(BF, frozenset(), seq("p => one"), FAST)  # unit needs a 1-system


def test_derive_validates_assumptions():
    with pytest.raises(ValidationError):
        # assumption members must have leaf antecedents
        pv.derive(BF, frozenset([seq("(p o q) => p")]), seq("p => p"), FAST)


# ---------------------------------------------------------------------------
# search goals beyond the closed-form strategies


RESIDUATION_GOALS = [
    "p * (p \\ q) => q",
    "(p / q) * q => p",
    "q => p \\ (p * q)",
    "p => (p * q) / q",
    "p * (q /\\ r) => (p * q) \\/ (p * r)",
]


def test_search_proves_residuation_laws():
    for text in RESIDUATION_GOALS:
        r = proved(BF, frozenset(), text)
        if text == RESIDUATION_GOALS[0]:
            assert r.strategy == "search"


def test_assumptions_enable_cut_through_members():
    phi = frozenset([seq("p => q")])
    r = proved(BF, phi, "r * p => r * q")
    assert assumptions_of(r.derivation) <= phi


def test_subformula_discipline_of_search_derivations():
    # search-found proofs stay inside the bounded closure of the problem's
    # subformulas (with the lattice bounds adjoined)
    for text in RESIDUATION_GOALS:
        goal = seq(text)
        r = pv.derive(BF, frozenset(), goal, FAST)
        assert r.verdict == pv.PROVED
        if r.strategy != "search":
            continue
        base = frozenset(sx.subformulas_of_problem(goal, ())) | {sx.TOP, sx.BOT}
        spec = sx.ClosureSpec(base, "and_or_not", 0)
        for g in formulas_of(r.derivation):
            assert closure_contains(spec, g), sx.render_lambek(g)


def _random_formula(rng: random.Random, size: int) -> sx.LFormula:
    if size == 0:
        return rng.choice([sx.LAtom("p"), sx.LAtom("q"), sx.BOT, sx.TOP,
                           sx.fresh_for(sx.LAtom("p"))])
    if rng.random() < 0.3:
        return rng.choice([sx.LNot, sx.LDia])(_random_formula(rng, size - 1))
    k = rng.randrange(size)
    cls = rng.choice([sx.LAnd, sx.LOr, sx.LProd, sx.LUnder])
    return cls(_random_formula(rng, k), _random_formula(rng, size - 1 - k))


@pytest.mark.parametrize("sys", [DF, BD, BF], ids=lambda s: s.name)
def test_cut_pool_is_the_sorted_base(sys, monkeypatch):
    # the pool is the problem's subformulas, with top and bot in a bounded
    # system, in `sort_key` order; a prefix key is built only for a member
    # whose size another shares
    keyed = []
    depth = 0
    prefix_key, sort_key = sx._prefix_key, sx.sort_key

    def spy(f):
        # records the outermost call only: `_prefix_key` recurses through
        # the module's name, so through this spy
        nonlocal depth
        if depth == 0:
            keyed.append(f)
        depth += 1
        try:
            return prefix_key(f)
        finally:
            depth -= 1

    monkeypatch.setattr(sx, "_prefix_key", spy)
    rng = random.Random(sys.name)
    for _ in range(12):
        goal = sx.simple(_random_formula(rng, rng.randrange(3)),
                         _random_formula(rng, rng.randrange(3)))
        phi = frozenset([sx.simple(_random_formula(rng, rng.randrange(3)), sx.LAtom("q"))])
        base = set(sx.subformulas_of_problem(goal, phi))
        if sys.bounded:
            base |= {sx.TOP, sx.BOT}
        want = tuple(sorted(base, key=sort_key))
        keyed.clear()
        assert pv._cut_pool(sys, phi, goal) == want
        sizes = [sx.lsize(f) for f in want]
        assert sorted(keyed, key=sort_key) == [f for f in want if sizes.count(sx.lsize(f)) > 1]
    # a tower's compound members all differ in size, so none of them is keyed
    tower = sx.LDia(sx.LAtom("p"))
    for _ in range(300):
        tower = sx.LNot(tower)
    goal = sx.simple(tower, sx.LAtom("q"))
    keyed.clear()
    pool = pv._cut_pool(sys, frozenset(), goal)
    assert [f for f in pool if sx.lsize(f) > 0] == sorted(
        sx.subformulas(tower) - {sx.LAtom("p")}, key=sx.lsize)
    assert not [f for f in keyed if sx.lsize(f) > 0]


# ---------------------------------------------------------------------------
# monotonicity


def test_assumption_monotonicity():
    phi = frozenset([seq("p => q")])
    bigger = phi | {seq("r => s_1"), seq("q => q \\/ r")}
    for text in ["r * p => r * q", "p => q \\/ r"]:
        assert pv.derive(BF, phi, seq(text), FAST).verdict == pv.PROVED
        assert pv.derive(BF, bigger, seq(text), FAST).verdict == pv.PROVED


def test_budget_monotonicity():
    small = pv.SearchBudget(max_depth=6, max_goals=4000, time_cap_ms=6000, samples=50)
    big = pv.SearchBudget(max_depth=12, max_goals=40000, time_cap_ms=12000, samples=50)
    for text in RESIDUATION_GOALS + ["=> ~p \\/ p", "p /\\ q => q /\\ p"]:
        r1 = pv.derive(BF, frozenset(), seq(text), small)
        assert r1.verdict == pv.PROVED
        r2 = pv.derive(BF, frozenset(), seq(text), big)
        assert r2.verdict == pv.PROVED


# ---------------------------------------------------------------------------
# refutation is gated and verified


def test_refuted_models_satisfy_assumptions_and_falsify():
    phi = frozenset([seq("p => q")])
    r = pv.derive(BF, phi, seq("q => p"), FAST)
    assert r.verdict == pv.REFUTED
    assert md.satisfies_assumptions(r.model, phi)
    assert not md.sequent_true(r.model, r.state, seq("q => p"))


def test_refutation_determinism_under_seed():
    b = replace(FAST, seed=5)
    r1 = pv.derive(DF, frozenset(), seq("p => q"), b)
    r2 = pv.derive(DF, frozenset(), seq("p => q"), b)
    assert r1.verdict == r2.verdict == pv.REFUTED
    assert md.ternary_to_json(r1.model) == md.ternary_to_json(r2.model)
    assert r1.state == r2.state


class _SearchReached(Exception):
    pass


def test_exhaustive_refutation_comes_before_search(monkeypatch):
    def no_search(*args):
        raise _SearchReached

    monkeypatch.setattr(pv, "_search", no_search)
    goal = seq("q => p")
    b = replace(FAST, seed=4)
    r = pv.derive(BF, frozenset(), goal, b)
    assert r.verdict == pv.REFUTED
    # the same first hit as the full countermodel search
    hit = sampling.find_countermodel(goal, (), sampling.SampleBudget(seed=4, samples=b.samples))
    assert (md.ternary_to_json(r.model), r.state) == (md.ternary_to_json(hit[0]), hit[1])
    # where the refutation gate is shut, search still comes first
    with pytest.raises(_SearchReached):
        pv.derive(get_system("bfnl-star-k"), frozenset(), seq("<>q => p"), b)


def test_modal_goals_are_never_refuted_by_sampling():
    # the ternary semantics only matches the calculus on the modal-free
    # fragment, so modal goals may end Unknown but never Refuted
    sysk = get_system("bfnl-star-k")
    b = pv.SearchBudget(max_depth=3, time_cap_ms=2000, samples=100)
    r = pv.derive(sysk, frozenset(), seq("<>p => p"), b)
    assert r.verdict == pv.UNKNOWN


def test_exchange_systems_sample_symmetric_models_only():
    r = pv.derive(BFE, frozenset(), seq("p * q => q * p"), FAST)
    assert r.verdict == pv.PROVED  # must not be "refuted" by an asymmetric model


# ---------------------------------------------------------------------------
# exchange admissibility


def test_exchange_commutes_products():
    pairs = [("p", "q"), ("p /\\ q", "r"), ("~p", "q \\/ r"), ("p * q", "r")]
    for left, right in pairs:
        a, b = sx.parse_lambek(left), sx.parse_lambek(right)
        goal = sx.Sequent(sx.SLeaf(sx.LProd(a, b)), sx.LProd(b, a))
        proved(BFE, frozenset(), goal)


def test_exchange_rule_stays_out_of_plain_systems():
    r = pv.derive(BF, frozenset(), seq("p * q => q * p"), FAST)
    assert r.verdict == pv.REFUTED


# ---------------------------------------------------------------------------
# rules that only some systems have, each in a goal that needs it

SHORT = pv.SearchBudget(max_depth=6, max_goals=3000, time_cap_ms=3000, samples=0)


@pytest.mark.parametrize("system, goal, rule", [
    ("bfnl-star", "p /\\ ~p => bot", pf.NEG1),
    ("bfnl-star", "top => p \\/ ~p", pf.NEG2),
    ("bfnl1-k", "=> one", pf.ONE_R),
    ("bfnl1-k", "one o p => p", pf.ONE_L_LEFT),
    ("bfnl1-k", "p o one => p", pf.ONE_L_RIGHT),
])
def test_negation_and_unit_rules_prove_their_goals(system, goal, rule):
    r = proved(get_system(system), frozenset(), goal)
    assert rule in {n.rule for n in pf.post_order(r.derivation)}


@pytest.mark.parametrize("goal, rule, systems", [
    ("<><>p => <>p", pf.AX_4, ("bfnl-star-k4", "bfnl-star-s4", "bfnl-star-s5")),
    ("<>p => ~<>~<>p", pf.AX_5, ("bfnl-star-s5",)),
])
def test_modal_axioms_prove_only_in_their_systems(goal, rule, systems):
    for name in ("bfnl-star-k", "bfnl-star-t", "bfnl-star-k4", "bfnl-star-s4", "bfnl-star-s5"):
        if name in systems:
            r = proved(get_system(name), frozenset(), goal)
            assert r.derivation.rule == rule
        else:
            assert pv.derive(get_system(name), frozenset(), seq(goal), SHORT).verdict != pv.PROVED


@pytest.mark.parametrize("system, goal, rules", [
    ("bfnl-star", "~~p / q => p / q", {pf.OVER_L, pf.OVER_R}),
    ("bfnl-star-k", "<>~~p => <>p", {pf.DIA_L, pf.DIA_R}),
    ("bfnl-star-k", "[v]~~p => [v]p", {pf.BOXDOWN_L, pf.BOXDOWN_R}),
])
def test_congruence_lifts_through_residuals_and_modalities(system, goal, rules):
    r = proved(get_system(system), frozenset(), goal)
    assert r.strategy == "congruence"
    assert rules <= {n.rule for n in pf.post_order(r.derivation)}


# ---------------------------------------------------------------------------
# conservativity of the modal extensions on the modal-free fragment


def test_modal_extensions_conserve_modal_free_verdicts():
    goals = ["p * (p \\ q) => q", "=> ~p \\/ p", "p => q", "p /\\ q => q",
             "q => p \\/ ~p", "p * q => q * p"]
    systems = [get_system(n) for n in
               ("bfnl-star", "bfnl-star-k", "bfnl-star-t", "bfnl-star-s5")]
    for text in goals:
        verdicts = {s.name: pv.derive(s, frozenset(), seq(text), FAST).verdict
                    for s in systems}
        concluded = {v for v in verdicts.values() if v != pv.UNKNOWN}
        assert len(concluded) <= 1, (text, verdicts)


# ---------------------------------------------------------------------------
# sampled prover-checker agreement over a seeded goal stream


def _random_lattice_formula(rng, depth):
    if depth == 0:
        return rng.choice([sx.LAtom("p"), sx.LAtom("q"), sx.TOP, sx.BOT])
    kind = rng.randrange(3)
    if kind == 0:
        return sx.LAnd(_random_lattice_formula(rng, depth - 1), _random_lattice_formula(rng, depth - 1))
    if kind == 1:
        return sx.LOr(_random_lattice_formula(rng, depth - 1), _random_lattice_formula(rng, depth - 1))
    return sx.LNot(_random_lattice_formula(rng, depth - 1))


def test_sampled_goals_agree_with_checker_and_semantics():
    rng = random.Random(20824)
    budget = pv.SearchBudget(max_depth=6, max_goals=4000, time_cap_ms=3000, samples=120)
    verdicts = {pv.PROVED: 0, pv.REFUTED: 0, pv.UNKNOWN: 0}
    for _ in range(60):
        a = _random_lattice_formula(rng, rng.randrange(1, 3))
        b = _random_lattice_formula(rng, rng.randrange(1, 3))
        goal = sx.Sequent(sx.SLeaf(a), b)
        r = pv.derive(BF, frozenset(), goal, budget)
        verdicts[r.verdict] += 1
        if r.verdict == pv.PROVED:
            assert ck.check_derivation(BF, (), r.derivation)
            # boolean-fragment proofs are sound for the ternary semantics
            hit = sampling.find_countermodel(goal, (), sampling.SampleBudget(samples=60))
            assert hit is None, sx.render_sequent(goal)
        elif r.verdict == pv.REFUTED:
            assert not md.sequent_true(r.model, r.state, goal)
    # the stream must actually exercise both definite verdicts
    assert verdicts[pv.PROVED] >= 10 and verdicts[pv.REFUTED] >= 10


# ---------------------------------------------------------------------------
# the pull-back strategies and the trace hooks


def test_pull_back_strategies_guard_and_filter():
    calls = []

    def recurse(sys, phi, goal):
        calls.append((sys.name, phi, goal))
        return None

    goal = seq("p => p")
    for name, sys in SYSTEMS.items():
        for strat, source, images in ((strategy.try_unneg, "bfnl-star", {"bdfnl-star"}),
                                      (strategy.try_unsection, "bdfnl-star",
                                       {"dfnl-star", "dfnl"})):
            calls.clear()
            assert strat(sys, frozenset(), goal, recurse) is None
            assert calls == ([(source, frozenset(), goal)] if name in images else []), name
    # a companion member and a member that fails the round trip are dropped
    calls.clear()
    phi = frozenset(map(seq, ("p /\\ p{p} => bot", "r => ~p", "q => p{p}")))
    strategy.try_unneg(BD, phi, goal, recurse)
    assert calls == [("bfnl-star", frozenset([seq("q => ~p")]), goal)]
    # so are the absorption members and a letter whose payload does not survive
    calls.clear()
    absorbing = ("p_bot => q", "q => p_top", "p_bot * q => p_bot", "q => top")
    phi = frozenset(map(seq, absorbing + ("q => p{p_bot}", "p => q")))
    strategy.try_unsection(DF, phi, goal, recurse)
    assert calls == [("bdfnl-star", frozenset([seq("p => q")]), goal)]
    # an absorption member is dropped by its image: it is never mapped back
    mapped = []

    def inverse(s, memo):
        mapped.append(s)
        return tr.section_inverse_sequent(s, memo)

    probe = strategy._pull_back("bdfnl-star", "dfnl", inverse, tr.section_sequent,
                                strategy._holds_with_bounds, lambda d, phi, memo: d)
    calls.clear()
    probe(DF, phi, goal, recurse)
    assert calls == [("bdfnl-star", frozenset([seq("p => q")]), goal)]
    assert sorted(mapped, key=sx.render_sequent) == sorted(
        [goal, seq("q => p{p_bot}"), seq("p => q")], key=sx.render_sequent)


def test_trace_hooks_find_their_targets(monkeypatch):
    # the benchmark's tracer patches fnlkit attributes by name; a rename
    # must not leave a hook silently unattached
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(_sys.modules, spec.name, spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    fk = types.SimpleNamespace(**{
        mod.name: importlib.import_module(f"fnlkit.{mod.name}")
        for mod in pkgutil.iter_modules(fnlkit.__path__)
    })
    installed = spans.install(spans.Tracer(), fk)
    try:
        assert installed.patches
        # the checker's validator factory and the two K-oracle entries that
        # prove_dagger_sequent replaced are gone; their hooks are known orphans
        assert set(installed.missing) <= {"fnlkit.checker.sequent_validator",
                                          "fnlkit.gk.prove_dagger_goal",
                                          "fnlkit.gk.prove_dagger_top"}
        # the one K-oracle entry keeps its hook
        assert (fk.gk, "prove_dagger_sequent") in [(mod, attr) for mod, attr, _ in
                                                   installed.patches]
    finally:
        installed.uninstall()
    assert not hasattr(pv.derive, "__wrapped__")
    assert not hasattr(fk.strategy.STRATEGIES[0][1], "__wrapped__")


def test_the_benchmark_harness_runs_on_this_tree(tmp_path):
    # the harness imports fnlkit modules and attributes by name; a rename in
    # src/ must fail here too, not only when the benchmark runs.  It runs on
    # a copy, so that its run directory stays out of the checkout
    root = Path(__file__).resolve().parents[1]
    for part in ("src", "bench"):
        shutil.copytree(root / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([_sys.executable, "bench/selftest.py"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "selftest: ok"


def test_census_lists_the_function_statements_that_did_not_run(tmp_path):
    # a statement runs when one of its own lines does; module-level lines,
    # def/class lines and statements that compile to no code are not listed
    path = Path(__file__).resolve().parents[1] / "tools" / "census.py"
    spec = importlib.util.spec_from_file_location("census", path)
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    (tmp_path / "m.py").write_text(textwrap.dedent('''\
        X = 1
        def f(a):
            """doc"""
            global X
            if a:
                return 1
            try:
                b = (a +
                     2)
            except ValueError:
                pass
            return b
        class C:
            Y = 2
            def g(self):
                return 3
    '''))
    ran = {(str(tmp_path / "m.py"), k) for k in (5, 9, 12)}
    assert census.unrun_statements(str(tmp_path), ran) == ["m.py:6", "m.py:11", "m.py:16"]


def test_census_lists_a_same_length_text_change_apart_from_the_exit_rule():
    path = Path(__file__).resolve().parents[1] / "tools" / "census.py"
    spec = importlib.util.spec_from_file_location("census", path)
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)

    def row(text, verdict="proved"):
        return {"argv": ["prove", "p => p"], "verdict": verdict, "strategy": None, "code": 0,
                "bytes": len(text), "sha1": hashlib.sha1(text.encode()).hexdigest()}

    base = {"w": [row("abc"), row("xyz"), row("uvw")]}
    other = {"w": [row("abc"), row("xya"), row("uvw", "refuted")]}
    diffs, texts = census.differences(base, other)
    assert diffs == ["w: prove p => p: verdict"]
    assert len(texts) == 1 and texts[0].startswith("w: prove p => p: sha1 ")
    assert texts[0].endswith("bytes 3 -> 3")


def test_census_sums_the_commands_that_print_different_text_per_workload():
    path = Path(__file__).resolve().parents[1] / "tools" / "census.py"
    spec = importlib.util.spec_from_file_location("census", path)
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)

    def row(sha1, size):
        return {"sha1": sha1, "bytes": size}

    base = {"w": [row("a", 1000), row("b", 20), row("c", 5)], "v": [row("d", 7)],
            "u": [row("e", 1)]}
    other = {"w": [row("a", 1000), row("x", 18), row("y", 6)], "v": [row("d", 7)],
             "u": [row("e", 1), row("f", 2)]}
    assert census.text_totals(base, other) == ["w: 2 command(s), bytes 25 -> 24"]
    assert census.text_totals(base, base) == []


def test_census_lists_every_refuted_command_whose_countermodel_stage_changed():
    path = Path(__file__).resolve().parents[1] / "tools" / "census.py"
    spec = importlib.util.spec_from_file_location("census", path)
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)

    def row(stage, system="bfnl-star"):
        return {"argv": ["prove", "p => q", "--system", system], "stage": stage}

    base = {"w": [row("kernel"), row("transfer"), row(None), row("kernel", "dfnl")]}
    other = {"w": [row("kernel"), row("sampler"), row("kernel"), row("kernel", "dfnl")]}
    assert census.stage_changes(base, other) == [
        "w: prove p => q (bfnl-star): transfer -> sampler",
        "w: prove p => q (bfnl-star): None -> kernel"]
    assert census.stage_changes(base, base) == []


def test_census_counts_the_same_calls_twice_on_one_tree():
    # two children run the same commands on one tree, with the hash seed
    # fixed: every fnlkit function's call count agrees, so no delta prints
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([_sys.executable, str(root / "tools" / "census.py"), "--calls",
                           "--seed", "1", "--workload", "lattice-mix", str(root), str(root)],
                          stdout=subprocess.PIPE, text=True)
    assert done.returncode == 0, done.stdout
    lines = done.stdout.splitlines()
    at = next(k for k, x in enumerate(lines) if x.startswith("calls lattice-mix        delta: "))
    before, after = lines[at].split(": ")[1].split(" -> ")
    assert before == after and int(before.replace(",", "")) > 0
    assert not lines[at + 1].startswith("  ")
    path = root / "tools" / "census.py"
    spec = importlib.util.spec_from_file_location("census", path)
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    assert census.call_deltas({"a": 3, "b": 1, "c": 2}, {"a": 1, "c": 2, "d": 2}) == [
        ("a", -2), ("d", 2), ("b", -1)]


def test_census_rechecks_every_printed_table_and_exits_1_on_a_lossy_reader(tmp_path):
    # a whole census of one tree and one workload: every printed table is
    # reloaded and accepted; a copy whose reader drops the root's premises
    # fails each table whose root has some, and the census exits 1
    root = Path(__file__).resolve().parents[1]
    census = [_sys.executable, str(root / "tools" / "census.py"), "--seed", "1",
              "--workload", "lattice-mix"]
    done = subprocess.run(census + [str(root)], stdout=subprocess.PIPE, text=True)
    assert done.returncode == 0, done.stdout
    ok, of = map(int, re.search(r"recheck lattice-mix .*: (\d+) of (\d+) printed", done.stdout)
                 .groups())
    assert ok == of > 0
    shutil.copytree(root / "src" / "fnlkit", tmp_path / "src" / "fnlkit")
    with open(tmp_path / "src" / "fnlkit" / "proofs.py", "a") as f:
        f.write(textwrap.dedent("""
            _read = from_json


            def from_json(j):
                d = _read(j)
                return node(d.seq, d.rule, (), d.path, d.idx)
        """))
    done = subprocess.run(census + [str(tmp_path)], stdout=subprocess.PIPE, text=True)
    assert done.returncode == 1, done.stdout
    assert "wrong number of premises" in done.stdout
    assert f"recheck lattice-mix        {tmp_path}: " in done.stdout
    assert f" of {of} printed" in done.stdout and f"{of} of {of}" not in done.stdout


def test_census_recheck_reloads_a_printed_table_under_its_accepting_call():
    path = Path(__file__).resolve().parents[1] / "tools" / "census.py"
    spec = importlib.util.spec_from_file_location("census", path)
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    fk = types.SimpleNamespace(proofs=pf)
    bf, member = get_system("bfnl-star"), sx.parse_sequent("p => q")
    d = lm.dcut(lm.dassume(member), lm.did(sx.LAtom("q")), ())
    accepted = [(bf, (), lm.did(sx.LAtom("p"))), (bf, (member,), d)]
    table = pf.to_json(d)
    assert census.recheck_table(fk, table, accepted, ck.check_derivation) == "ok"
    # the assumptions are the accepting call's: without them the leaf fails
    assert census.recheck_table(fk, table, accepted[:1] + [(bf, (), d)], ck.check_derivation) \
        .startswith("reloaded derivation rejected: Assumption at p => q: ")
    assert census.recheck_table(fk, table, accepted[:1], ck.check_derivation) \
        == "no accepting checker call wrote this table"
    # a reader that loses a premise, or raises, is reported
    lossy = types.SimpleNamespace(to_json=pf.to_json, from_json=lambda t: pf.node(
        d.seq, d.rule, d.premises[:1], d.path, d.idx))
    assert census.recheck_table(types.SimpleNamespace(proofs=lossy), table, accepted,
                                ck.check_derivation) \
        == "reloaded derivation rejected: Cut at p => q: wrong number of premises"

    def refuse(t):
        raise ParseError("derivation table has no nodes")

    refusing = types.SimpleNamespace(to_json=pf.to_json, from_json=refuse)
    assert census.recheck_table(types.SimpleNamespace(proofs=refusing), table, accepted,
                                ck.check_derivation) \
        == "reload raised ParseError: derivation table has no nodes"
