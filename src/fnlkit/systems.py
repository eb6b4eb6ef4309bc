"""System registry: which connectives, structure, and rules each variant
of the calculus admits."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from . import proofs as pf
from . import syntax as sx
from .errors import ValidationError

MODAL_AXIOMS = {
    "K": frozenset(),
    "T": frozenset({pf.AX_T}),
    "K4": frozenset({pf.AX_4}),
    "S4": frozenset({pf.AX_T, pf.AX_4}),
    "S5": frozenset({pf.AX_T, pf.AX_4, pf.AX_5}),
}


@dataclass(frozen=True)
class SystemSpec:
    name: str
    negation: bool
    bounded: bool
    exchange: bool
    unit: bool
    allow_empty_antecedent: bool
    modal: Optional[str] = None  # None or a key of MODAL_AXIOMS

    def __post_init__(self):
        if self.negation and not self.bounded:
            raise ValidationError("negation needs the bounds (its axioms mention them)")
        if self.modal is not None and self.modal not in MODAL_AXIOMS:
            raise ValidationError(f"unknown modal axiom set {self.modal!r}")

    @cached_property
    def vocab(self) -> int:  # the syntax.V_* bits this system admits
        return (sx.V_RESID | sx.V_NEG * self.negation | sx.V_BOUNDS * self.bounded
                | sx.V_UNIT * self.unit | (sx.V_MODAL | sx.V_BRACKET) * (self.modal is not None))


_BASE_RULES = frozenset(
    {
        pf.ID,
        pf.DIST,
        pf.UNDER_L,
        pf.UNDER_R,
        pf.OVER_L,
        pf.OVER_R,
        pf.PROD_L,
        pf.PROD_R,
        pf.CUT,
        pf.AND_L,
        pf.AND_R,
        pf.OR_L,
        pf.OR_R,
        pf.ASSUMPTION,
    }
)


def allowed_rules(sys: SystemSpec) -> frozenset[str]:
    rules = set(_BASE_RULES)
    if sys.bounded:
        rules |= {pf.BOT_AX, pf.TOP_AX}
    if sys.negation:
        rules |= {pf.NEG1, pf.NEG2}
    if sys.exchange:
        rules.add(pf.EXCH)
    if sys.unit:
        rules |= {pf.ONE_R, pf.ONE_L_LEFT, pf.ONE_L_RIGHT}
    if sys.modal is not None:
        rules |= {pf.DIA_L, pf.DIA_R, pf.BOXDOWN_L, pf.BOXDOWN_R}
        rules |= MODAL_AXIOMS[sys.modal]
    return frozenset(rules)


_MISFITS = ((sx.V_NEG, "negation"), (sx.V_BOUNDS, "bounds"), (sx.V_UNIT, "unit"),
            (sx.V_MODAL, "modalities"), (sx.V_BRACKET, "bracket structure"))


def validate_sequent(sys: SystemSpec, s: sx.Sequent):
    """Raises ValidationError if s uses an empty antecedent, a connective or
    bracket structure that sys lacks.  Of several vocabulary misfits, the
    first in the order negation, bounds, unit, modalities, bracket
    structure is reported, wherever each occurs in s.

    A one-leaf antecedent (the common case in a derivation) is decided from
    the leaf's and the succedent's vocabulary masks, without a walk."""
    ant = s.ant
    if type(ant) is sx.SLeaf and not (ant.f._vocab | s.suc._vocab) & ~sys.vocab:
        return
    if ant is None and not sys.allow_empty_antecedent:
        raise ValidationError(f"{sys.name} does not allow empty antecedents")
    bad = sx.vocab(s) & ~sys.vocab
    if not bad:
        return
    for bit, what in _MISFITS:
        if bad & bit:
            raise ValidationError(f"{sys.name} has no {what}")


def validate_assumptions(sys: SystemSpec, phi):
    for s in phi:
        if not sx.is_simple(s):
            raise ValidationError("assumptions must be simple sequents")
        validate_sequent(sys, s)


def _registry() -> dict[str, SystemSpec]:
    specs = [
        SystemSpec("bfnl-star", True, True, False, False, True),
        SystemSpec("bfnl-e-star", True, True, True, False, True),
    ]
    for i in MODAL_AXIOMS:
        low = i.lower()
        specs += [
            SystemSpec(f"bfnl-star-{low}", True, True, False, False, True, i),
            SystemSpec(f"bfnl-e-star-{low}", True, True, True, False, True, i),
            SystemSpec(f"bfnl1-{low}", True, True, False, True, True, i),
            SystemSpec(f"bfnl1-e-{low}", True, True, True, True, True, i),
        ]
    specs += [
        SystemSpec("bdfnl-star", False, True, False, False, True),
        SystemSpec("dfnl-star", False, False, False, False, True),
        SystemSpec("dfnl", False, False, False, False, False),
    ]
    return {s.name: s for s in specs}


SYSTEMS = _registry()


def get_system(name: str) -> SystemSpec:
    try:
        return SYSTEMS[name]
    except KeyError:
        known = ", ".join(sorted(SYSTEMS))
        raise ValidationError(f"unknown system {name!r}; known: {known}") from None
