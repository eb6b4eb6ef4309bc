"""Finite binary and ternary relational models and satisfaction.

Ternary triples are read product-first: (u, v, w) in rel3 means u splits
into a left part v and a right part w.  The optional binary `dia` relation
backs the two modal operators on the substructural side; constructed
models never need it, it exists so the evaluator is total.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from . import syntax as sx
from .errors import ModelError


@dataclass
class KripkeModel:
    states: tuple[str, ...]
    rel: frozenset[tuple[str, str]]
    val: dict[str, frozenset[str]]

    def __post_init__(self):
        validate_kripke(self)


@dataclass
class TernaryModel:
    states: tuple[str, ...]
    rel3: frozenset[tuple[str, str, str]]
    val: dict[str, frozenset[str]]
    unit: Optional[str] = None
    dia: Optional[frozenset[tuple[str, str]]] = None
    # satisfaction cache; models are immutable by convention
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        validate_ternary(self)


def validate_kripke(m: KripkeModel):
    w = set(m.states)
    if not w:
        raise ModelError("empty state set")
    if len(w) != len(m.states):
        raise ModelError("duplicate state names")
    if any(a not in w or b not in w for a, b in m.rel):
        raise ModelError("relation mentions unknown states")
    for name, ext in m.val.items():
        if not ext <= w:
            raise ModelError(f"valuation of {name!r} leaves the state set")


def validate_ternary(j: TernaryModel):
    w = set(j.states)
    if not w:
        raise ModelError("empty state set")
    if len(w) != len(j.states):
        raise ModelError("duplicate state names")
    for t in j.rel3:
        if len(t) != 3 or any(x not in w for x in t):
            raise ModelError("rel3 mentions unknown states")
    for name, ext in j.val.items():
        if not ext <= w:
            raise ModelError(f"valuation of {name!r} leaves the state set")
    if j.unit is not None:
        if j.unit not in w:
            raise ModelError("unit is not a state")
        for u in j.states:
            if (u, j.unit, u) not in j.rel3 or (u, u, j.unit) not in j.rel3:
                raise ModelError("unit lacks its triples")
    if j.dia is not None and any(a not in w or b not in w for a, b in j.dia):
        raise ModelError("dia relation mentions unknown states")


# ---------------------------------------------------------------------------
# satisfaction

NO_UNIT = "unit constant on a model without a unit"
NO_DIA = "modal operator on a model without a dia relation"
NO_BRACKET = "bracketed antecedent, which has no formula to evaluate"


def eval_modal(m: KripkeModel, w: str, a: sx.ModalFormula) -> bool:
    if w not in m.states:
        raise ModelError(f"unknown state {w!r}")
    if isinstance(a, sx.MAtom):
        return w in m.val.get(a.name, frozenset())
    if isinstance(a, sx.MBot):
        return False
    if isinstance(a, sx.MAnd):
        return eval_modal(m, w, a.l) and eval_modal(m, w, a.r)
    if isinstance(a, sx.MOr):
        return eval_modal(m, w, a.l) or eval_modal(m, w, a.r)
    if isinstance(a, sx.MImp):
        return (not eval_modal(m, w, a.l)) or eval_modal(m, w, a.r)
    if isinstance(a, sx.MNot):
        return not eval_modal(m, w, a.a)
    # diamond: some successor satisfies the body
    return any(eval_modal(m, u, a.a) for (x, u) in m.rel if x == w)


def eval_lambek(j: TernaryModel, u: str, a: sx.LFormula) -> bool:
    if u not in j.states:
        raise ModelError(f"unknown state {u!r}")
    key = (u, a)
    hit = j._memo.get(key)
    if hit is not None:
        return hit
    out = _eval_l(j, u, a)
    j._memo[key] = out
    return out


def _eval_l(j: TernaryModel, u: str, a: sx.LFormula) -> bool:
    if isinstance(a, sx.LAtom):
        return u in j.val.get(a.name, frozenset())
    if isinstance(a, sx.LFresh):
        return u in j.val.get(sx.render_lambek(a), frozenset())
    if isinstance(a, sx.LBot):
        return False
    if isinstance(a, sx.LTop):
        return True
    if isinstance(a, sx.LOne):
        if j.unit is None:
            raise ModelError(NO_UNIT)
        return u == j.unit
    if isinstance(a, sx.LAnd):
        return eval_lambek(j, u, a.l) and eval_lambek(j, u, a.r)
    if isinstance(a, sx.LOr):
        return eval_lambek(j, u, a.l) or eval_lambek(j, u, a.r)
    if isinstance(a, sx.LNot):
        return not eval_lambek(j, u, a.a)
    if isinstance(a, sx.LProd):
        return any(
            eval_lambek(j, v, a.l) and eval_lambek(j, w, a.r)
            for (x, v, w) in j.rel3
            if x == u
        )
    if isinstance(a, sx.LUnder):
        # a.l \ a.r at u: whenever u is the right part, l at the left part
        # forces r at the product
        return all(
            (not eval_lambek(j, w, a.l)) or eval_lambek(j, v, a.r)
            for (v, w, x) in j.rel3
            if x == u
        )
    if isinstance(a, sx.LOver):
        # a.l / a.r at u: whenever u is the left part, r at the right part
        # forces l at the product
        return all(
            (not eval_lambek(j, v, a.r)) or eval_lambek(j, w, a.l)
            for (w, x, v) in j.rel3
            if x == u
        )
    if j.dia is None:
        raise ModelError(NO_DIA)
    if isinstance(a, sx.LDia):
        return any(eval_lambek(j, v, a.a) for (x, v) in j.dia if x == u)
    if isinstance(a, sx.LBoxDown):
        return all(eval_lambek(j, v, a.a) for (v, x) in j.dia if x == u)
    raise ModelError(f"unknown formula {a!r}")


def sequent_true(j: TernaryModel, u: str, s: sx.Sequent) -> bool:
    """Empty antecedents read as plain truth of the succedent."""
    if s.ant is None:
        return eval_lambek(j, u, s.suc)
    if not eval_lambek(j, u, sx.phi_of_tree(s.ant)):
        return True
    return eval_lambek(j, u, s.suc)


def sequent_true_everywhere(j: TernaryModel, s: sx.Sequent) -> bool:
    return all(sequent_true(j, u, s) for u in j.states)


def satisfies_assumptions(j: TernaryModel, phi: Iterable[sx.Sequent]) -> bool:
    return all(sequent_true_everywhere(j, s) for s in phi)


# ---------------------------------------------------------------------------
# json


def kripke_to_json(m: KripkeModel) -> dict:
    return {
        "states": list(m.states),
        "rel": sorted([a, b] for a, b in m.rel),
        "val": {k: sorted(v) for k, v in sorted(m.val.items())},
    }


def _names(x, what: str) -> tuple[str, ...]:
    if not isinstance(x, list) or not all(isinstance(w, str) for w in x):
        raise ModelError(f"{what} must be a list of state names")
    return tuple(x)


def _tuples(x, arity: int, what: str) -> frozenset[tuple[str, ...]]:
    if not isinstance(x, list) or not all(isinstance(t, list) and len(t) == arity for t in x):
        raise ModelError(f"{what} must be a list of {arity}-element lists")
    return frozenset(_names(t, f"each entry of {what}") for t in x)


def _fields(d, arity: int) -> tuple:
    # states, relation and valuation of a model object, every shape checked
    if not isinstance(d, dict) or not {"states", "rel", "val"} <= d.keys():
        raise ModelError("a model must be a JSON object with states, rel and val")
    if not isinstance(d["val"], dict):
        raise ModelError("val must map each letter to a list of state names")
    val = {k: frozenset(_names(v, f"the valuation of {k!r}")) for k, v in d["val"].items()}
    return _names(d["states"], "states"), _tuples(d["rel"], arity, "rel"), val


def kripke_from_json(d) -> KripkeModel:
    return KripkeModel(*_fields(d, 2))


def ternary_to_json(j: TernaryModel) -> dict:
    d = {
        "states": list(j.states),
        "rel": sorted([a, b, c] for a, b, c in j.rel3),
        "val": {k: sorted(v) for k, v in sorted(j.val.items())},
    }
    if j.unit is not None:
        d["unit"] = j.unit
    if j.dia is not None:
        d["dia"] = sorted([a, b] for a, b in j.dia)
    return d


def ternary_from_json(d) -> TernaryModel:
    states, rel3, val = _fields(d, 3)
    unit = d.get("unit")
    if unit is not None and not isinstance(unit, str):
        raise ModelError("unit must be a state name")
    dia = _tuples(d["dia"], 2, "dia") if "dia" in d else None
    return TernaryModel(states, rel3, val, unit, dia)


def model_from_json(d):
    """Dispatch on tuple arity; empty relations load as ternary."""
    rel = d.get("rel") if isinstance(d, dict) else None
    binary = isinstance(rel, list) and any(isinstance(t, list) and len(t) == 2 for t in rel)
    return kripke_from_json(d) if binary and "dia" not in d else ternary_from_json(d)
