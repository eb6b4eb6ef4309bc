"""Budgeted proof search: strategy chain, iterative-deepening backward
search with analytic cut, and gated semantic refutation.

On the fragments where the semantics is known to match the calculus,
`derive` first reads the goal back up the reduction chain to a K
formula, once, and decides that with the K tableau.  A goal that reads
back to a K non-theorem goes straight to the countermodel search
without sampling: the exhaustively enumerated small models, then the K
countermodel pushed down the chain, which refutes it.  Every other goal
tries the closed-form strategies first and that search second.  Then
comes deepening depth-first search over the rule moves with cut
formulas drawn from the problem's subformulas, and finally, on the same
fragments, the full countermodel search with seeded sampling.  Proofs
are re-validated by the independent checker before they are returned;
countermodels are re-evaluated on a fresh copy.  Unknown is an honest
first-class outcome."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional

from . import checker as ck
from . import models as md
from . import proofs as pf
from . import rules
from . import sampling
from . import strategy as st
from . import syntax as sx
from .errors import LemmaError, ValidationError
from .systems import SystemSpec, validate_assumptions, validate_sequent

PROVED = "proved"
REFUTED = "refuted"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class SearchBudget:
    max_depth: int = 14
    max_goals: int = 40000
    time_cap_ms: int = 15000
    seed: int = 0
    samples: int = 600  # countermodel attempts

    def __post_init__(self):
        for key, (name, least) in _BUDGET_KEYS.items():
            if least is not None and getattr(self, name) < least:
                raise ValidationError(f"{key} must be at least {least}")


# budget string key -> (SearchBudget field, its least value or None)
_BUDGET_KEYS = {
    "depth": ("max_depth", 0),
    "goals": ("max_goals", 1),
    "ms": ("time_cap_ms", 1),
    "seed": ("seed", None),
    "samples": ("samples", 0),
}


def parse_budget(text: str) -> SearchBudget:
    """Budget string: comma-separated key:int pairs, e.g.
    "depth:30,goals:100000,ms:30000"."""
    kw = {}
    for part in filter(None, (p.strip() for p in text.split(","))):
        key, _, val = part.partition(":")
        if key not in _BUDGET_KEYS:
            raise ValidationError(f"unknown budget key {key!r}; known: {sorted(_BUDGET_KEYS)}")
        try:
            kw[_BUDGET_KEYS[key][0]] = int(val)
        except ValueError:
            raise ValidationError(f"budget value for {key!r} must be an integer") from None
    return SearchBudget(**kw)


@dataclass(frozen=True)
class ProofResult:
    verdict: str  # proved | refuted | unknown
    derivation: Optional[pf.Derivation] = None
    model: Optional[md.TernaryModel] = None
    state: Optional[str] = None
    report: str = ""
    strategy: str = ""


def result_to_json(r: ProofResult) -> dict:
    out: dict = {"verdict": r.verdict}
    if r.derivation is not None:
        out["derivation"] = pf.table_text(r.derivation)
    if r.model is not None:
        out["model"] = md.ternary_to_json(r.model)
        out["state"] = r.state
    if r.report:
        out["report"] = r.report
    if r.strategy:
        out["strategy"] = r.strategy
    return out


# ---------------------------------------------------------------------------
# search


class _Exhausted(Exception):
    pass


def _cut_pool(sys: SystemSpec, phi, goal: sx.Sequent):
    # the cut candidates: the problem's subformulas, with the lattice bounds
    # when sys has them, in `sort_key` order
    base = set(sx.subformulas_of_problem(goal, phi))
    if sys.bounded:
        base |= {sx.TOP, sx.BOT}
    return tuple(sx.sorted_by_key(base, sx.lsizes(base)))


def _search(sys: SystemSpec, phi, goal: sx.Sequent, budget: SearchBudget,
            deadline: float) -> Optional[pf.Derivation]:
    pool = _cut_pool(sys, phi, goal)
    proved: dict[sx.Sequent, pf.Derivation] = {}
    goals = 0

    def dfs(g: sx.Sequent, depth: int, path: frozenset) -> Optional[pf.Derivation]:
        nonlocal goals
        if g in proved:
            return proved[g]
        if g in path:
            return None
        goals += 1
        if goals > budget.max_goals:
            raise _Exhausted
        if goals % 256 == 0 and time.monotonic() > deadline:
            raise _Exhausted
        path2 = path | {g}
        for rule, prems, at, idx in rules.rule_instances(sys, g, phi, pool):
            if prems and depth == 0:
                # deeper iterations will retry this move; no later move can
                # close g here, since every zero-premise move comes first
                break
            ds = []
            for p in prems:
                d = dfs(p, depth - 1, path2)
                if d is None:
                    break
                ds.append(d)
            else:
                out = pf.node(g, rule, ds, at, idx)
                proved[g] = out
                return out
        return None

    for depth in range(budget.max_depth + 1):
        try:
            d = dfs(goal, depth, frozenset())
        except _Exhausted:
            return None
        if d is not None:
            return d
    return None


# ---------------------------------------------------------------------------
# refutation gate


def _refutation_ok(sys: SystemSpec, phi, goal: sx.Sequent) -> bool:
    """Countermodels refute only on fragments where truth in the sampled
    model class is implied by derivability: no modal vocabulary (plain
    models refute the modal systems only through their conservative
    fragment), and no residuals when the antecedent is empty (the empty
    residual introductions outrun the everywhere-true reading)."""
    v = sx.vocab(goal, *phi)
    if v & (sx.V_MODAL | sx.V_BRACKET):
        return False
    return not (goal.ant is None and v & sx.V_RESID)


# ---------------------------------------------------------------------------
# driver


def _strategies(sys: SystemSpec, phi, goal: sx.Sequent, recurse: st.Recurse):
    """Each strategy's derivation of goal, in `STRATEGIES` order, with its
    name; unchecked.  A strategy that raises LemmaError declines."""
    for name, fn in st.STRATEGIES:
        try:
            d = fn(sys, phi, goal, recurse)
        except LemmaError:
            d = None
        if d is not None and d.seq == goal:
            yield name, d


def derive(sys: SystemSpec, phi: Iterable[sx.Sequent], goal: sx.Sequent,
           budget: Optional[SearchBudget] = None) -> ProofResult:
    """Three-valued derivability: Proved with a checked derivation,
    Refuted with a re-verified countermodel, or Unknown.

    Where `_refutation_ok` holds, the goal is first read back to K and
    decided once (`sampling.chain_verdict`); every countermodel search of
    the call is handed that verdict, and one that reads back to nothing
    gets no transfer.  Phases, in order: the strategy chain; where
    `_refutation_ok` holds, the countermodel search without samples (the
    exhaustive small models, then the transferred K countermodel);
    backward search; where `_refutation_ok` holds, the full countermodel
    search (which repeats the first two stages, then samples).  For a
    goal that reads back to a K non-theorem the search without samples
    comes first, before the strategy chain, which cannot prove it.  The
    first phase that decides ends the call.  A strategy's recursive call
    runs the strategy chain and then backward search on the sub-goal,
    under this call's budget and deadline, and returns its first
    derivation unchecked: the goal and phi are validated once, here, and
    the checker sees only the derivation this call returns."""
    budget = budget or SearchBudget()
    phi = frozenset(phi)
    validate_sequent(sys, goal)
    validate_assumptions(sys, phi)
    deadline = time.monotonic() + budget.time_cap_ms / 1000.0

    def recurse(sys2, phi2, goal2):
        for _, d in _strategies(sys2, phi2, goal2, recurse):
            return d
        return _search(sys2, phi2, goal2, budget, deadline)

    refute = _refutation_ok(sys, phi, goal)
    verdict = sampling.chain_verdict(goal) if refute else None

    def countermodel(samples: int) -> Optional[ProofResult]:
        sb = sampling.SampleBudget(seed=budget.seed, samples=samples,
                                   symmetric=sys.exchange, with_unit=sys.unit)
        hit = sampling.find_countermodel(goal, phi, sb, verdict)
        return None if hit is None else ProofResult(REFUTED, model=hit[0], state=hit[1])

    # the small models and the transfer (samples=0): a hit there is the
    # first hit of the full call, and costs far less than the search; for
    # a goal that reads back to a K non-theorem it comes before the
    # strategies, which cannot prove it
    early = verdict is not None and not verdict.valid
    if early:
        r = countermodel(0)
        if r is not None:
            return r

    for name, d in _strategies(sys, phi, goal, recurse):
        if ck.check_derivation(sys, phi, d):
            return ProofResult(PROVED, derivation=d, strategy=name)

    if refute and not early:
        r = countermodel(0)
        if r is not None:
            return r

    d = _search(sys, phi, goal, budget, deadline)
    if d is not None and ck.check_derivation(sys, phi, d):
        return ProofResult(PROVED, derivation=d, strategy="search")

    if refute:
        r = countermodel(budget.samples)
        if r is not None:
            return r

    report = (
        f"no proof within depth {budget.max_depth}, {budget.max_goals} goals, "
        f"{budget.time_cap_ms}ms; no countermodel"
    )
    return ProofResult(UNKNOWN, report=report)
