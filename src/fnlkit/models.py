"""Finite binary and ternary relational models and satisfaction.

Ternary triples are read product-first: (u, v, w) in rel3 means u splits
into a left part v and a right part w.  The optional binary `dia` relation
backs the two modal operators on the substructural side.  A Kripke model
is read as a ternary frame with no triples whose `dia` is its edges.

Satisfaction is computed by extension: `extension(j, f, memo)` is the
set of states of j where f holds, as an int whose bit i is j.states[i],
computed once per distinct subformula over the caller's memo for j.
One walk serves both kinds of model: a modal formula's connectives are
read as their substructural twins, and `->` as `~l \\/ r`.
`/\\`, `\\/` and `~` become `& | ^`, and `*`, `\\`, `/`, `<>` and `[v]`
each make one pass over rel3 or dia.  `eval_lambek`, `eval_modal`,
`sequent_true`, `sequent_true_everywhere` and `satisfies_assumptions` are
bit tests on those extensions.  A formula the model cannot read (`one`
without a unit, a modal operator without dia, a bracketed antecedent)
raises its ModelError before anything is evaluated, decided from the
vocabulary mask (`sx.vocab`), so at every state alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Optional

from . import syntax as sx
from .errors import ModelError


@dataclass
class KripkeModel:
    states: tuple[str, ...]
    rel: frozenset[tuple[str, str]]
    val: dict[str, frozenset[str]]

    def __post_init__(self):
        self._frame = validate_kripke(self)


@dataclass
class TernaryModel:
    states: tuple[str, ...]
    rel3: frozenset[tuple[str, str, str]]
    val: dict[str, frozenset[str]]
    unit: Optional[str] = None
    dia: Optional[frozenset[tuple[str, str]]] = None

    def __post_init__(self):
        self._frame = validate_ternary(self)


# Validation numbers a model's states, bit i for states[i], and returns the
# model's frame over those bits, which the constructor keeps and every
# evaluation reads: (all states, state -> bit, rel3, dia), with rel3 as bit
# triples and dia as bit pairs.  A Kripke model's frame has no triples and
# its rel as dia.  Models are immutable by convention.


def _bits(states: tuple[str, ...]) -> dict[str, int]:
    bit = {s: 1 << i for i, s in enumerate(states)}
    if not bit:
        raise ModelError("empty state set")
    if len(bit) != len(states):
        raise ModelError("duplicate state names")
    return bit


def validate_kripke(m: KripkeModel) -> tuple:
    bit = _bits(m.states)
    try:
        rel = [(bit[a], bit[b]) for a, b in m.rel]
    except KeyError:
        raise ModelError("relation mentions unknown states") from None
    w = bit.keys()
    for name, ext in m.val.items():
        if not w >= ext:
            raise ModelError(f"valuation of {name!r} leaves the state set")
    return (1 << len(bit)) - 1, bit, (), rel


def validate_ternary(j: TernaryModel) -> tuple:
    bit = _bits(j.states)
    try:
        rel = [(bit[x], bit[v], bit[w]) for x, v, w in j.rel3] if j.rel3 else []
    except (KeyError, ValueError):
        raise ModelError("rel3 mentions unknown states") from None
    w = bit.keys()
    for name, ext in j.val.items():
        if not w >= ext:
            raise ModelError(f"valuation of {name!r} leaves the state set")
    if j.unit is not None:
        if j.unit not in w:
            raise ModelError("unit is not a state")
        for u in j.states:
            if (u, j.unit, u) not in j.rel3 or (u, u, j.unit) not in j.rel3:
                raise ModelError("unit lacks its triples")
    dia = ()
    if j.dia is not None:
        try:
            dia = [(bit[a], bit[b]) for a, b in j.dia]
        except KeyError:
            raise ModelError("dia relation mentions unknown states") from None
    return (1 << len(bit)) - 1, bit, rel, dia


def periodic(h: int, width: int) -> int:
    """The width-bit mask whose bit v is bit b of v, for h = 2^b: the high
    h bits of every 2h-bit block, built from a repeated byte pattern."""
    if h >= 8:
        unit = bytes(h // 8) + b"\xff" * (h // 8)
    else:
        unit = bytes(((0xAA, 0xCC, 0xF0)[h.bit_length() - 1],))
    copies = -(-width // (8 * len(unit)))
    return int.from_bytes(unit * copies, "little") & ((1 << width) - 1)


# ---------------------------------------------------------------------------
# satisfaction, by extension
#
# The extension of a formula in a model is the set of states where it
# holds, as an int: bit i is states[i].  It is computed once per distinct
# subformula over one memo, a dict from formulas to extensions that the
# caller keeps for one model.  The lattice connectives become `& | ^`, and
# a product, residual or modal operator makes one pass over the relation.
# The relations are read from the model's frame (above), and a modal
# connective as its twin in _TWINS, over a Kripke frame.  Under the key
# _NAMES the memo also keeps the render memo that names fresh letters'
# valuation keys.

NO_UNIT = "unit constant on a model without a unit"
NO_DIA = "modal operator on a model without a dia relation"
NO_BRACKET = "bracketed antecedent, which has no formula to evaluate"

_NAMES = object()
# the vocabulary a model may lack; a bracket is caught where an
# antecedent is read
_OPTIONAL = sx.V_UNIT | sx.V_MODAL


def check_vocab(v: int, unit: bool, dia: bool) -> None:
    """Raise the ModelError of the first of a bracket, `one` without a
    unit and a modal operator without dia that the vocabulary mask v
    (`sx.vocab`) has."""
    if v & sx.V_BRACKET:
        raise ModelError(NO_BRACKET)
    if v & sx.V_UNIT and not unit:
        raise ModelError(NO_UNIT)
    if v & sx.V_MODAL and not dia:
        raise ModelError(NO_DIA)


def _state_bit(m, u: str) -> int:
    bit = m._frame[1].get(u)
    if bit is None:
        raise ModelError(f"unknown state {u!r}")
    return bit


def extension(j, f, memo: dict) -> int:
    """The states of j where f holds, as a bitset (bit i is j.states[i]);
    memo is kept for j.  j is a ternary model and f a substructural
    formula, or j a Kripke model and f a modal one, which the same walk
    reads through its twins with j's edges as dia.  A formula j cannot
    read (`one` without a unit, a modal operator without dia) raises its
    ModelError first."""
    if f._vocab & _OPTIONAL:
        check_vocab(f._vocab, j.unit is not None, j.dia is not None)
    return _extension(j, f, memo)


# a modal connective and the substructural one it is read as
_TWINS = {sx.MAtom: sx.LAtom, sx.MBot: sx.LBot, sx.MAnd: sx.LAnd, sx.MOr: sx.LOr,
          sx.MNot: sx.LNot, sx.MDia: sx.LDia}


def _extension(j, a, memo: dict) -> int:
    out = memo.get(a)
    if out is not None:
        return out
    t = a.__class__
    t = _TWINS.get(t, t)
    if t is sx.LAtom:
        out, bit = 0, j._frame[1]
        for s in j.val.get(a.name, ()):
            out |= bit[s]
    elif t is sx.LAnd:
        out = _extension(j, a.l, memo) & _extension(j, a.r, memo)
    elif t is sx.LOr:
        out = _extension(j, a.l, memo) | _extension(j, a.r, memo)
    elif t is sx.LNot:
        out = j._frame[0] ^ _extension(j, a.a, memo)
    elif t is sx.LFresh:
        names = memo.get(_NAMES)
        if names is None:
            names = memo[_NAMES] = {}
        out, bit = 0, j._frame[1]
        for s in j.val.get(sx.render_lambek(a, names), ()):
            out |= bit[s]
    elif t is sx.LProd:
        # some (u, v, w) with l at v and r at w
        l, r, out = _extension(j, a.l, memo), _extension(j, a.r, memo), 0
        for u, v, w in j._frame[2]:
            if l & v and r & w:
                out |= u
    elif t is sx.LUnder:
        # a.l \ a.r at u: whenever u is the right part, l at the left part
        # forces r at the product; no (v, w, u) with l at w and r false at v
        l, r, bad = _extension(j, a.l, memo), _extension(j, a.r, memo), 0
        full, _, rel, _ = j._frame
        for v, w, u in rel:
            if l & w and not r & v:
                bad |= u
        out = full ^ bad
    elif t is sx.LOver:
        # a.l / a.r at u: whenever u is the left part, r at the right part
        # forces l at the product; no (w, u, v) with r at v and l false at w
        l, r, bad = _extension(j, a.l, memo), _extension(j, a.r, memo), 0
        full, _, rel, _ = j._frame
        for w, u, v in rel:
            if r & v and not l & w:
                bad |= u
        out = full ^ bad
    elif t is sx.LTop:
        out = j._frame[0]
    elif t is sx.LBot:
        out = 0
    elif t is sx.LOne:
        out = j._frame[1][j.unit]
    elif t is sx.LDia:
        body, out = _extension(j, a.a, memo), 0
        for u, v in j._frame[3]:
            if body & v:
                out |= u
    elif t is sx.MImp:
        out = (j._frame[0] ^ _extension(j, a.l, memo)) | _extension(j, a.r, memo)
    elif t is sx.LBoxDown:
        # every v with (v, u) in dia satisfies the body
        body, bad = _extension(j, a.a, memo), 0
        full, _, _, dia = j._frame
        for v, u in dia:
            if not body & v:
                bad |= u
        out = full ^ bad
    else:
        raise ModelError(f"unknown formula {a!r}")
    memo[a] = out
    return out


def _antecedent(s: sx.Sequent) -> Optional[sx.LFormula]:
    """The formula of s's antecedent, None when it is empty; a bracket,
    which has none, raises."""
    t = s.ant
    if t is None:
        return None
    if t.__class__ is sx.SLeaf:
        return t.f
    try:
        return sx.phi_of_tree(t)
    except ValueError:
        raise ModelError(NO_BRACKET) from None


def sequent_extension(j: TernaryModel, s: sx.Sequent, memo: dict) -> int:
    """The states of j where s holds, as a bitset; an empty antecedent
    reads as plain truth of the succedent.  A sequent j cannot read (a
    bracket, or a formula as in `extension`) raises first."""
    a = _antecedent(s)
    v = s.suc._vocab if a is None else s.suc._vocab | a._vocab
    if v & _OPTIONAL:
        check_vocab(v, j.unit is not None, j.dia is not None)
    return _sequent_extension(j, a, s.suc, memo)


def _sequent_extension(j: TernaryModel, a: Optional[sx.LFormula], b: sx.LFormula,
                       memo: dict) -> int:
    if a is None:
        return _extension(j, b, memo)
    ant = _extension(j, a, memo)
    # an antecedent that holds nowhere makes the sequent hold everywhere
    return (j._frame[0] ^ ant) | _extension(j, b, memo) if ant else j._frame[0]


def eval_lambek(j: TernaryModel, u: str, a: sx.LFormula) -> bool:
    bit = _state_bit(j, u)
    return bool(extension(j, a, {}) & bit)


def eval_modal(m: KripkeModel, w: str, a: sx.ModalFormula) -> bool:
    bit = _state_bit(m, w)
    return bool(extension(m, a, {}) & bit)


def sequent_true(j: TernaryModel, u: str, s: sx.Sequent, memo: Optional[dict] = None) -> bool:
    bit = _state_bit(j, u)
    return bool(sequent_extension(j, s, {} if memo is None else memo) & bit)


def sequent_true_everywhere(j: TernaryModel, s: sx.Sequent) -> bool:
    return sequent_extension(j, s, {}) == j._frame[0]


def satisfies_assumptions(j: TernaryModel, phi: Iterable[sx.Sequent],
                          memo: Optional[dict] = None) -> bool:
    """Every member of phi holds at every state of j.  Every member is
    read before any is evaluated, so an error (as in `sequent_extension`)
    does not depend on which member fails."""
    read = [(_antecedent(s), s.suc) for s in phi]
    v = 0
    for a, b in read:
        v |= b._vocab if a is None else b._vocab | a._vocab
    if v & _OPTIONAL:
        check_vocab(v, j.unit is not None, j.dia is not None)
    memo = {} if memo is None else memo
    full = j._frame[0]
    for a, b in read:
        if _sequent_extension(j, a, b, memo) != full:
            return False
    return True


# ---------------------------------------------------------------------------
# json


def kripke_to_json(m: KripkeModel) -> dict:
    return {
        "states": list(m.states),
        "rel": sorted([a, b] for a, b in m.rel),
        "val": {k: sorted(v) for k, v in sorted(m.val.items())},
    }


def _is_names(x) -> bool:
    return isinstance(x, list) and all(map(isinstance, x, repeat(str)))


def _names(x, what: str) -> tuple[str, ...]:
    if not _is_names(x):
        raise ModelError(f"{what} must be a list of state names")
    return tuple(x)


def _tuples(x, arity: int, what: str) -> frozenset[tuple[str, ...]]:
    if not isinstance(x, list) or not all(isinstance(t, list) and len(t) == arity for t in x):
        raise ModelError(f"{what} must be a list of {arity}-element lists")
    if not all(map(_is_names, x)):
        raise ModelError(f"each entry of {what} must be a list of state names")
    return frozenset(map(tuple, x))


def _fields(d, arity: int) -> tuple:
    # states, relation and valuation of a model object, every shape checked;
    # an error message is formatted only when it is raised
    if not isinstance(d, dict) or not {"states", "rel", "val"} <= d.keys():
        raise ModelError("a model must be a JSON object with states, rel and val")
    if not isinstance(d["val"], dict):
        raise ModelError("val must map each letter to a list of state names")
    val = {}
    for k, v in d["val"].items():
        if not _is_names(v):
            raise ModelError(f"the valuation of {k!r} must be a list of state names")
        val[k] = frozenset(v)
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
