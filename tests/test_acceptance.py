"""Acceptance gate: ten numbered criteria, one test and one printed
pass/fail line per criterion.

Each criterion is seeded and self-contained.  Lines are printed before the
final assertion so a failing criterion still reports itself.
"""

import json
import random

from conftest import facts_corpus, negrewrite_derivation, sample_kripke, walk
from fnlkit import checker as ck
from fnlkit import ktableau as kt
from fnlkit import lemmas as lm
from fnlkit import models as md
from fnlkit import proofs as pf
from fnlkit import sampling as smp
from fnlkit import syntax as sx
from fnlkit import transform as tr
from fnlkit.errors import FnlError
from fnlkit.prover import SearchBudget, derive
from fnlkit.systems import get_system

P, Q = sx.LAtom("p"), sx.LAtom("q")
BFNL = get_system("bfnl-star")
BDFNL = get_system("bdfnl-star")
DFNL = get_system("dfnl-star")


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f" — {detail}" if detail else ""
    print(f"criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'}{tail}")


# ---------------------------------------------------------------------------
# seeded samplers


def sample_modal(rng: random.Random, size: int) -> sx.ModalFormula:
    if size <= 0:
        return rng.choice([sx.MAtom("p"), sx.MAtom("q"), sx.MBot()])
    kind = rng.choice(["and", "or", "imp", "not", "dia", "dia"])
    if kind == "not":
        return sx.MNot(sample_modal(rng, size - 1))
    if kind == "dia":
        return sx.MDia(sample_modal(rng, size - 1))
    cut = rng.randint(0, size - 1)
    l, r = sample_modal(rng, cut), sample_modal(rng, size - 1 - cut)
    return {"and": sx.MAnd, "or": sx.MOr, "imp": sx.MImp}[kind](l, r)


def sample_lambek(rng: random.Random, size: int, kinds: str, atoms) -> sx.LFormula:
    if size <= 0:
        return rng.choice(atoms)
    kind = rng.choice(kinds.split())
    if kind == "not":
        return sx.LNot(sample_lambek(rng, size - 1, kinds, atoms))
    cut = rng.randint(0, size - 1)
    l = sample_lambek(rng, cut, kinds, atoms)
    r = sample_lambek(rng, size - 1 - cut, kinds, atoms)
    ctor = {"and": sx.LAnd, "or": sx.LOr, "prod": sx.LProd,
            "under": sx.LUnder, "over": sx.LOver}[kind]
    return ctor(l, r)


def lattice_goal_stream(seed: int):
    """Seeded endless stream of one-leaf sequents over p, q, top, bot."""
    rng = random.Random(seed)
    atoms = [P, Q, sx.TOP, sx.BOT]
    kinds = "and or not and or not prod under over"
    while True:
        size = rng.randint(1, 5)
        cut = rng.randint(0, size - 1)
        ant = sample_lambek(rng, cut, kinds, atoms)
        suc = sample_lambek(rng, size - 1 - cut, kinds, atoms)
        yield sx.Sequent(sx.SLeaf(ant), suc)


# ---------------------------------------------------------------------------
# criterion 1: the two-copy construction preserves truth, exactly


def test_criterion_01_truth_lemma():
    rng = random.Random(101)
    bad = 0
    for _ in range(1000):
        m = sample_kripke(rng, 4, ("p", "q"))
        w = rng.choice(m.states)
        a = sample_modal(rng, rng.randint(1, 7))
        j = tr.build_ternary_model(m)
        if md.eval_modal(m, w, a) != md.eval_lambek(j, tr.copy1(w), tr.dagger(a)):
            bad += 1
    report(1, "truth lemma", bad == 0, f"{1000 - bad}/1000 triples agree")
    assert bad == 0


# ---------------------------------------------------------------------------
# criterion 2: modal validity matches derivability of the translation


K_INSTANCES = [
    "[](p -> q) -> ([]p -> []q)",
    "[](q -> p) -> ([]q -> []p)",
    "[]((p /\\ q) -> (p \\/ q)) -> ([](p /\\ q) -> [](p \\/ q))",
    "[](p -> (q -> p)) -> ([]p -> [](q -> p))",
    "[](bot -> p) -> ([]bot -> []p)",
    "[](<>p -> <>p) -> ([]<>p -> []<>p)",
]

TAUTOLOGIES = [
    "p -> p",
    "~(p /\\ ~p)",
    "(p -> q) \\/ p",
    "((p -> q) -> p) -> p",
    "(p /\\ q) -> p",
    "p -> (q -> p)",
    "(p /\\ (p -> q)) -> q",
    "(p -> q) \\/ (q -> p)",
]

MODAL_THEOREMS = [
    "<>(p \\/ q) -> (<>p \\/ <>q)",
    "(<>p \\/ <>q) -> <>(p \\/ q)",
    "[](p /\\ q) -> ([]p /\\ []q)",
    "([]p /\\ []q) -> [](p /\\ q)",
    "[](p /\\ q) -> []p",
    "~<>bot",
    "[](p -> q) -> (<>p -> <>q)",
    "<>(p /\\ q) -> (<>p /\\ <>q)",
    "[]p -> [](q -> p)",
    "<>bot -> p",
]

NON_THEOREMS = [
    "[]p -> p",
    "<>p",
    "p",
    "[]p -> [][]p",
    "p -> []<>p",
    "<>p -> []p",
    "[](p \\/ q) -> ([]p \\/ []q)",
    "bot",
    "<>p -> p",
    "p -> []p",
    "(<>p /\\ <>q) -> <>(p /\\ q)",
    "<>(p -> p)",
    "[]bot",
    "q -> p",
    "~p",
    "<><>p -> <>p",
    "p \\/ q",
]


def corpus():
    theorems = [sx.parse_modal(s) for s in K_INSTANCES + TAUTOLOGIES + MODAL_THEOREMS]
    # closure samples: necessitations of theorems, and modus ponens through
    # a theorem implication whose antecedent is itself in the corpus
    theorems += [sx.MNot(sx.MDia(sx.MNot(sx.parse_modal(s))))
                 for s in ("p -> p", "~(p /\\ ~p)", K_INSTANCES[0])]
    imp = sx.MImp(sx.parse_modal("p -> p"), sx.parse_modal("~(q /\\ ~q)"))
    theorems += [imp, imp.r]
    return theorems, [sx.parse_modal(s) for s in NON_THEOREMS]


def test_criterion_02_reduction_round_trip():
    theorems, non_theorems = corpus()
    assert len(theorems) + len(non_theorems) >= 40
    assert len(non_theorems) >= 15
    budget = SearchBudget(max_depth=30, time_cap_ms=15000, samples=0)
    disagreements = []
    for a in theorems:
        v = kt.k_decide(a)
        if not v.valid:
            disagreements.append(("expected valid", a))
            continue
        r = derive(BFNL, (), sx.Sequent(None, tr.dagger(a)), budget)
        if r.verdict != "proved":
            disagreements.append(("translation not proved", a))
    for a in non_theorems:
        v = kt.k_decide(a)
        if v.valid:
            disagreements.append(("expected invalid", a))
            continue
        j = tr.build_ternary_model(v.model)
        if md.eval_lambek(j, tr.copy1(v.root), tr.dagger(a)):
            disagreements.append(("countermodel does not transfer", a))
    n = len(theorems) + len(non_theorems)
    report(2, "reduction round trip", not disagreements,
           f"{n} formulas, {len(non_theorems)} non-theorems, "
           f"{len(disagreements)} disagreements")
    assert not disagreements, disagreements


# ---------------------------------------------------------------------------
# criterion 3: the facts corpus is proved and checked


def test_criterion_03_facts_corpus():
    failures = []
    for fact in facts_corpus():
        r = derive(BFNL, fact.premises, fact.conclusion)
        if r.verdict != "proved":
            failures.append((fact.label, r.verdict))
        elif not ck.check_derivation(BFNL, frozenset(fact.premises), r.derivation):
            failures.append((fact.label, "derivation rejected"))
    report(3, "facts corpus", not failures,
           f"{len(facts_corpus())} facts proved and checked")
    assert not failures, failures


# ---------------------------------------------------------------------------
# criterion 4: companion pairs across a closure enumeration
#
# The stated bound is five connectives; c(T) for T = {p, q, top, bot} holds
# about 5.7 million members at that size, far beyond the one-minute budget,
# so the suite runs the complete enumeration at three connectives (10,788
# members) instead.  The stronger top => A \/ A~ orientation, which the
# embedding machinery actually uses, is exercised over the two-connective
# closure by the transform suite.


def test_criterion_04_companion_pairs():
    t = frozenset([P, Q, sx.TOP, sx.BOT])
    members = sx.enumerate_closure(sx.ClosureSpec(t, "and_or", 3))
    assert len(members) == 10788
    psi = tr.psi_set(t)
    budget = SearchBudget(max_depth=6, time_cap_ms=4000, samples=0)
    failures = 0
    for f in members:
        ft = tr.tilde_ext(f)
        goals = (
            sx.Sequent(sx.SLeaf(sx.LAnd(f, ft)), sx.BOT),
            sx.Sequent(sx.SLeaf(sx.LOr(f, ft)), sx.TOP),
        )
        for g in goals:
            r = derive(BDFNL, psi, g, budget)
            if r.verdict != "proved":
                failures += 1
    report(4, "companion pairs", failures == 0,
           f"{len(members)} members x 2 sequents, {failures} failures "
           "(complete at 3 connectives; 5 is out of time budget)")
    assert failures == 0


# ---------------------------------------------------------------------------
# criterion 5: absorption through arbitrary contexts


def test_criterion_05_absorption():
    t = frozenset([P, Q, sx.TOP, sx.BOT])
    members = [tr.section_map(f)
               for f in sx.enumerate_closure(sx.ClosureSpec(t, "and_or", 3))]
    theta = tr.theta_set(tr.ec(t))
    rng = random.Random(105)
    budget = SearchBudget(max_depth=6, time_cap_ms=4000, samples=0)

    def grow(leaves):
        if leaves <= 1:
            return sx.SLeaf(rng.choice(members))
        cut = rng.randint(1, leaves - 1)
        return sx.SNode(grow(cut), grow(leaves - cut))

    failures = 0
    for _ in range(200):
        tree = grow(rng.randint(1, 4))
        if derive(DFNL, theta, sx.Sequent(tree, sx.P_TOP), budget).verdict != "proved":
            failures += 1
        leaf_paths = [at for at, x in pf.positions(tree) if isinstance(x, sx.SLeaf)]
        planted = pf.tree_replace(tree, rng.choice(leaf_paths), sx.SLeaf(sx.P_BOT))
        goal = sx.Sequent(planted, rng.choice(members))
        if derive(DFNL, theta, goal, budget).verdict != "proved":
            failures += 1
    report(5, "absorption", failures == 0, f"200 contexts x 2 goals, {failures} failures")
    assert failures == 0


# ---------------------------------------------------------------------------
# criterion 6: the embedding chain on proved sequents


def sampled_proved(count: int, seed: int):
    # the goal cap, not the clock, decides which goals are kept
    budget = SearchBudget(max_depth=8, max_goals=2000, time_cap_ms=600000, samples=0)
    out = []
    stream = lattice_goal_stream(seed)
    while len(out) < count:
        g = next(stream)
        r = derive(BFNL, (), g, budget)
        if r.verdict == "proved":
            out.append(g)
    return out


def test_criterion_06_embedding_chain():
    budget = SearchBudget(max_depth=10, time_cap_ms=10000, samples=0)
    jobs = [(fact.conclusion, tuple(fact.premises)) for fact in facts_corpus()]
    jobs += [(g, ()) for g in sampled_proved(50, seed=106)]
    failures = []
    for goal, phi in jobs:
        r = derive(BFNL, phi, goal, budget)
        if r.verdict != "proved":
            continue  # the criterion conditions on a proved original
        g2, psi2 = tr.ddagger_problem(goal, phi)
        r2 = derive(BDFNL, psi2, g2, budget)
        if r2.verdict != "proved":
            failures.append(("negation-free image", goal))
            continue
        g3, phi3 = tr.section_embed(g2, psi2)
        if derive(DFNL, phi3, g3, budget).verdict != "proved":
            failures.append(("constant-free image", goal))
        back = negrewrite_derivation(r2.derivation)
        phi_back = frozenset(tr.negrewrite_sequent(s) for s in psi2)
        if not ck.check_derivation(BFNL, phi_back, back):
            failures.append(("letter rewrite rejected", goal))
    report(6, "embedding chain", not failures,
           f"{len(jobs)} sequents through both embeddings, {len(failures)} failures")
    assert not failures, failures


# ---------------------------------------------------------------------------
# criterion 7: exchange models and the exchange rule


def test_criterion_07_exchange():
    rng = random.Random(107)
    atoms = [P, Q, sx.LAtom("m"), sx.TOP, sx.BOT]
    kinds = "and or not prod under over"
    violations = 0
    for _ in range(200):
        m = sample_kripke(rng, 4, ("p", "q"))
        j = tr.build_ternary_model(m, exchange=True)
        for _ in range(4):
            a = sample_lambek(rng, rng.randint(1, 4), kinds, atoms)
            b = sample_lambek(rng, rng.randint(0, 3), kinds, atoms)
            prod, dorp = sx.LProd(a, b), sx.LProd(b, a)
            for w in m.states:
                if md.eval_lambek(j, tr.copy1(w), a) != md.eval_lambek(j, tr.copy2(w), a):
                    violations += 1
            for u in j.states:
                if md.eval_lambek(j, u, prod) != md.eval_lambek(j, u, dorp):
                    violations += 1
    sys_e = get_system("bfnl-e-star")
    budget = SearchBudget(max_depth=8, time_cap_ms=6000, samples=0)
    underived = 0
    for _ in range(20):
        a = sample_lambek(rng, rng.randint(0, 3), "and or not prod", atoms)
        b = sample_lambek(rng, rng.randint(0, 3), "and or not prod", atoms)
        g = sx.Sequent(sx.SLeaf(sx.LProd(a, b)), sx.LProd(b, a))
        if derive(sys_e, (), g, budget).verdict != "proved":
            underived += 1
    ok = violations == 0 and underived == 0
    report(7, "exchange", ok,
           f"200 models agree on copies and commutation, "
           f"{20 - underived}/20 commutations derived")
    assert ok


# ---------------------------------------------------------------------------
# criterion 8: modal extensions prove nothing new in the plain language


CONSERVATIVITY_SYSTEMS = ("bfnl-star",) + tuple(f"bfnl-star-{i}"
                                                for i in ("k", "t", "k4", "s4", "s5"))


def conservativity_goals(count: int):
    """One-leaf sequents over p, q, top, bot with at most five connectives."""
    rng = random.Random(88)
    atoms = [P, Q, sx.TOP, sx.BOT]
    kinds = "and or not and or not prod under over"
    goals = []
    while len(goals) < count:
        size = rng.randint(1, 5)
        cut = rng.randint(0, size - 1)
        goals.append(sx.Sequent(sx.SLeaf(sample_lambek(rng, cut, kinds, atoms)),
                                sample_lambek(rng, size - 1 - cut, kinds, atoms)))
    return goals


def test_criterion_08_conservativity():
    goals = conservativity_goals(100)
    systems = [get_system(s) for s in CONSERVATIVITY_SYSTEMS]
    budget = SearchBudget(max_depth=6, max_goals=6000, time_cap_ms=300, samples=180, seed=11)
    disagreements = []
    concluded = 0
    for g in goals:
        verdicts = {derive(s, (), g, budget).verdict for s in systems}
        verdicts.discard("unknown")
        if verdicts:
            concluded += 1
        if len(verdicts) > 1:
            disagreements.append(sx.render_sequent(g))
    report(8, "conservativity", not disagreements,
           f"100 sequents x 6 systems, {concluded} concluded, "
           f"{len(disagreements)} disagreements")
    assert not disagreements, disagreements


# ---------------------------------------------------------------------------
# criterion 9: what the unit state promises
#
# The validity transfer "A holds at every state iff A holds at the unit"
# cannot hold, for boolean ~, in any model with a unit once an atom is
# contingent: the unit satisfies exactly one of p and ~p, yet neither holds
# at every state.  With W = {w, u} and V(p) = {w}, the unit fails p (p is
# not global), so it satisfies ~p, while w1 satisfies p.  The criterion
# checks instead the three things the construction does promise:
#   (i)   the validity transfer on every negation-free sample;
#   (ii)  on every sample, ~ included, the unit takes the classical value,
#         atoms read as "true at every source state" and the product as
#         conjunction, because the unit's only outgoing triple is (e, e, e);
#   (iii) the unit law A o 1 = A at every state.


def classical_at_unit(m, a: sx.LFormula) -> bool:
    if isinstance(a, sx.LAtom):
        return all(w in m.val.get(a.name, frozenset()) for w in m.states)
    if isinstance(a, sx.LNot):
        return not classical_at_unit(m, a.a)
    l, r = classical_at_unit(m, a.l), classical_at_unit(m, a.r)
    return (l or r) if isinstance(a, sx.LOr) else (l and r)


def test_criterion_09_unit():
    rng = random.Random(109)
    atoms = [P, Q]
    kinds = "and or not prod"
    negation_free = 0
    iff_violations = []
    classical_mismatches = []
    law_violations = 0
    for _ in range(50):
        m = sample_kripke(rng, 3, ("p", "q"))
        ju = tr.extend_with_unit(tr.build_ternary_model(m), m)
        for _ in range(8):
            a = sample_lambek(rng, rng.randint(1, 5), kinds, atoms)
            at_unit = md.eval_lambek(ju, ju.unit, a)
            if sx.neg_free(a):
                negation_free += 1
                everywhere = all(md.eval_lambek(ju, w, a) for w in ju.states)
                if everywhere != at_unit:
                    iff_violations.append((a, ju))
            if at_unit != classical_at_unit(m, a):
                classical_mismatches.append((a, ju))
            law = sx.LProd(a, sx.ONE)
            for w in ju.states:
                if md.eval_lambek(ju, w, law) != md.eval_lambek(ju, w, a):
                    law_violations += 1
    ok = (negation_free >= 100 and not iff_violations
          and not classical_mismatches and law_violations == 0)
    report(9, "unit", ok,
           f"validity-iff violations: {len(iff_violations)}/{negation_free} "
           f"negation-free, classical-value mismatches at the unit: "
           f"{len(classical_mismatches)}/400, unit-law violations: {law_violations} "
           "(the iff is checked without ~: unit truth of ~A needs only non-global A)")
    assert ok, (negation_free, len(iff_violations), len(classical_mismatches),
                law_violations)


# ---------------------------------------------------------------------------
# criterion 10: prover integrity


ALL_RULES = [pf.ID, pf.DIST, pf.BOT_AX, pf.TOP_AX, pf.NEG1, pf.NEG2, pf.UNDER_L,
             pf.UNDER_R, pf.OVER_L, pf.OVER_R, pf.PROD_L, pf.PROD_R, pf.CUT,
             pf.AND_L, pf.AND_R, pf.OR_L, pf.OR_R, pf.ASSUMPTION]


def mutate_formula(rng: random.Random, formulas: list, i: int) -> int:
    """Index of a mutant of formula i; a new formula is appended, never
    written over an entry other references may share."""
    swaps = {"and": "or", "or": "and", "prod": "and", "under": "over", "over": "under"}
    e = formulas[i]
    if e[0] in swaps and rng.random() < 0.7:
        mutant = [swaps[e[0]], *e[1:]]
    elif e[0] == "atom":
        mutant = ["atom", "q" if e[1] == "p" else "p"]
    elif e[0] == "not":
        return e[1]
    else:
        mutant = ["and", i, i]
    formulas.append(mutant)
    return len(formulas) - 1


def table_leaves(t, path=()):
    """(path, formula index) of each leaf of a table antecedent, left first."""
    if isinstance(t, int):
        return [(path, t)]
    if isinstance(t, list):
        return table_leaves(t[0], path + (0,)) + table_leaves(t[1], path + (1,))
    return table_leaves(t["b"], path + (2,))


def put_leaf(t, path, i):
    """A copy of table antecedent t with formula index i at path."""
    if not path:
        return i
    if isinstance(t, list):
        kids = list(t)
        kids[path[0]] = put_leaf(t[path[0]], path[1:], i)
        return kids
    return {"b": put_leaf(t["b"], path[1:], i)}


def mutate_node(rng: random.Random, blob: dict, k: int) -> None:
    """Apply one single-node mutation to node k of a derivation table.  A
    changed sequent is appended to the table and only node k points at it."""
    node = blob["nodes"][k]
    node.setdefault("inst", {})  # to_json omits "inst" when nothing is recorded
    kind = rng.choice(["rule", "suc", "ant", "idx", "path", "arity", "member"])
    if kind == "rule":
        node["rule"] = rng.choice([r for r in ALL_RULES if r != node["rule"]])
        return
    if kind in ("suc", "ant", "member"):
        src = node["inst"].get("member") if kind == "member" else node["seq"]
        if src is None:
            node["rule"] = rng.choice([r for r in ALL_RULES if r != node["rule"]])
            return
        ant, suc = blob["sequents"][src]
        if kind == "ant" and ant is not None:
            at, leaf = rng.choice(table_leaves(ant))
            ant = put_leaf(ant, at, mutate_formula(rng, blob["formulas"], leaf))
        else:
            suc = mutate_formula(rng, blob["formulas"], suc)
        blob["sequents"].append([ant, suc])
        if kind == "member":
            node["inst"]["member"] = len(blob["sequents"]) - 1
        else:
            node["seq"] = len(blob["sequents"]) - 1
        return
    if kind == "idx":
        node["inst"]["idx"] = {None: 1, 1: 2, 2: 1}.get(node["inst"].get("idx"), 1)
        return
    if kind == "path":
        node["inst"]["path"] = list(node["inst"].get("path") or []) + [0]
        return
    if node["premises"]:
        node["premises"] = node["premises"][1:]
        return
    # a leaf gets a copy of itself as premise; the copy goes in before it,
    # so every premise still points at an earlier node
    nodes = blob["nodes"]
    nodes.insert(k, json.loads(json.dumps(node)))
    for n in nodes:
        n["premises"] = [p + 1 if p >= k else p for p in n["premises"]]
    node["premises"] = [k]


def test_criterion_10_prover_integrity():
    # a pool of proved results with varied rule mixes
    pool = []
    budget = SearchBudget(max_depth=8, time_cap_ms=800, samples=120, seed=7)
    for fact in facts_corpus():
        r = derive(BFNL, fact.premises, fact.conclusion, budget)
        assert r.verdict == "proved"
        pool.append((r, frozenset(fact.premises)))
    refuted = []
    stream = lattice_goal_stream(110)
    while len(pool) < 60 or len(refuted) < 25:
        g = next(stream)
        r = derive(BFNL, (), g, budget)
        if r.verdict == "proved" and len(pool) < 60:
            pool.append((r, frozenset()))
        elif r.verdict == "refuted" and len(refuted) < 25:
            refuted.append((g, r))

    # every proved derivation survives a serialization round trip and re-checks
    recheck_bad = 0
    for r, phi in pool:
        d = pf.from_json(json.loads(json.dumps(pf.to_json(r.derivation))))
        if not ck.check_derivation(BFNL, phi, d):
            recheck_bad += 1

    # single-node mutations: reject, or survive only while provably harmless
    rng = random.Random(1010)
    rejected = survivors = unsound_survivors = 0
    sample_budget = smp.SampleBudget(seed=3, samples=150)
    for _ in range(500):
        r, phi = rng.choice(pool)
        blob = pf.to_json(r.derivation)
        mutate_node(rng, blob, rng.randrange(len(blob["nodes"])))
        try:
            mutated = pf.from_json(blob)
            accepted = ck.check_derivation(BFNL, phi, mutated)
        except (FnlError, RecursionError, ValueError, KeyError, TypeError):
            accepted = False
        if not accepted:
            rejected += 1
            continue
        survivors += 1
        hit = smp.find_countermodel(mutated.seq, tuple(phi), sample_budget,
                                    smp.chain_verdict(mutated.seq))
        if hit is not None:
            unsound_survivors += 1

    # refuted countermodels re-evaluate as falsifying after a round trip
    refute_bad = 0
    for g, r in refuted:
        model = md.ternary_from_json(json.loads(json.dumps(md.ternary_to_json(r.model))))
        if md.sequent_true(model, r.state, g):
            refute_bad += 1

    # restricted-fragment soundness over seeded models
    fragment_ok = (sx.LAtom, sx.LAnd, sx.LOr, sx.LNot)
    fragment = [(r.derivation.seq, phi) for r, phi in pool
                if all(isinstance(g, fragment_ok)
                       for f in sx.sequent_formulas(r.derivation.seq)
                       for g in walk(f))]
    mrng = random.Random(1011)
    soundness_bad = 0
    for _ in range(200):
        model = smp.sample_ternary(mrng, 4, ("p", "q"))
        for s, phi in fragment:
            if all(md.sequent_true_everywhere(model, a) for a in phi):
                if not md.sequent_true_everywhere(model, s):
                    soundness_bad += 1

    ok = (recheck_bad == 0 and rejected >= 475 and unsound_survivors == 0
          and refute_bad == 0 and soundness_bad == 0 and len(fragment) >= 10)
    report(10, "prover integrity", ok,
           f"{len(pool)} proved re-check, {rejected}/500 mutations rejected, "
           f"{survivors} survivors all sound, {len(refuted)} countermodels "
           f"re-falsify, fragment soundness on {len(fragment)} sequents clean")
    assert ok, (recheck_bad, rejected, survivors, unsound_survivors, refute_bad,
                soundness_bad, len(fragment))
