"""Three-valued proof search: verdicts, budgets, and the calculus-level
invariants (checker agreement, monotonicity, discipline, soundness)."""

import importlib
import importlib.util
import pkgutil
import random
import shutil
import subprocess
import sys as _sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

import fnlkit
from conftest import assumptions_of, facts_corpus, formulas_of
from fnlkit import checker as ck
from fnlkit import lemmas as lm
from fnlkit import models as md
from fnlkit import proofs as pf
from fnlkit import prover as pv
from fnlkit import sampling
from fnlkit import strategy
from fnlkit import syntax as sx
from fnlkit import transform as tr
from fnlkit.errors import ValidationError
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
    b = pv.parse_budget("depth:30,goals:100000,cutsize:1,ms:30000,seed:7,samples:50")
    assert b == pv.SearchBudget(max_depth=30, max_goals=100000, cut_size=1,
                                time_cap_ms=30000, seed=7, samples=50)
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
            assert sx.closure_contains(spec, g), sx.render_lambek(g)


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
        pv.derive(BF, frozenset(), goal, replace(b, refute=False))
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
    # so are an absorption member and a letter whose payload does not survive
    calls.clear()
    phi = frozenset(map(seq, ("p_bot => q", "q => p{p_bot}", "p => q")))
    strategy.try_unsection(DF, phi, goal, recurse)
    assert calls == [("bdfnl-star", frozenset([seq("p => q")]), goal)]


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
        # the checker's validator factory is gone; its hook is a known orphan
        assert set(installed.missing) <= {"fnlkit.checker.sequent_validator"}
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
