"""Tableau decision procedure for the modal logic K, with countermodel
extraction.

Validity is decided by refuting the negation: push negations to the
literals, saturate the boolean rules (branching on disjunctions), then
spawn one successor per surviving diamond, each carrying all the box
scopes.  Modal depth strictly decreases per spawn, so the procedure
terminates; an open saturated branch assembles into a finite tree model
whose depth is at most the modal depth of the input.

This module is a deliberate second opinion: it shares nothing with the
sequent prover beyond the formula type, so the two can cross-check each
other."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import models as md
from . import syntax as sx

# ---------------------------------------------------------------------------
# negation normal form (internal): negation only on atoms, box first-class


@dataclass(frozen=True)
class _N:
    pass


@dataclass(frozen=True)
class _Lit(_N):
    name: str
    pos: bool


@dataclass(frozen=True)
class _True(_N):
    pass


@dataclass(frozen=True)
class _False(_N):
    pass


@dataclass(frozen=True)
class _And(_N):
    l: _N
    r: _N


@dataclass(frozen=True)
class _Or(_N):
    l: _N
    r: _N


@dataclass(frozen=True)
class _Dia(_N):
    a: _N


@dataclass(frozen=True)
class _Box(_N):
    a: _N


_TRUE = _True()
_FALSE = _False()


def _nnf(f: sx.ModalFormula, pos: bool) -> _N:
    if isinstance(f, sx.MAtom):
        return _Lit(f.name, pos)
    if isinstance(f, sx.MBot):
        return _FALSE if pos else _TRUE
    if isinstance(f, sx.MAnd):
        ctor = _And if pos else _Or
        return ctor(_nnf(f.l, pos), _nnf(f.r, pos))
    if isinstance(f, sx.MOr):
        ctor = _Or if pos else _And
        return ctor(_nnf(f.l, pos), _nnf(f.r, pos))
    if isinstance(f, sx.MImp):
        ctor = _Or if pos else _And
        return ctor(_nnf(f.l, not pos), _nnf(f.r, pos))
    if isinstance(f, sx.MNot):
        return _nnf(f.a, not pos)
    # a negated diamond boxes the *negated* body: not <>A  ==  [](not A)
    return _Dia(_nnf(f.a, True)) if pos else _Box(_nnf(f.a, False))


def _nsize(f: _N) -> int:
    if isinstance(f, (_And, _Or)):
        return 1 + _nsize(f.l) + _nsize(f.r)
    if isinstance(f, (_Dia, _Box)):
        return 1 + _nsize(f.a)
    return 0


def _nkey(f: _N) -> tuple:
    # deterministic expansion order: conjunctions before branching
    # disjunctions, modals and literals last
    rank = {_And: 0, _Or: 1, _Dia: 2, _Box: 3, _Lit: 4, _True: 5, _False: 6}[type(f)]
    return (rank, _nsize(f), repr(f))


# ---------------------------------------------------------------------------
# satisfiability core


@dataclass(frozen=True)
class _Tree:
    pos: frozenset[str]  # atoms true here
    kids: tuple["_Tree", ...]


def _sat(fs: frozenset, memo: dict) -> Optional[_Tree]:
    """A tree model of the set, or None if it is unsatisfiable."""
    if fs in memo:
        return memo[fs]
    out = _sat_raw(fs, memo)
    memo[fs] = out
    return out


def _sat_raw(fs: frozenset, memo: dict) -> Optional[_Tree]:
    if _FALSE in fs:
        return None
    for f in sorted(fs, key=_nkey):
        if isinstance(f, _And):
            return _sat(fs - {f} | {f.l, f.r}, memo)
        if isinstance(f, _Or):
            hit = _sat(fs - {f} | {f.l}, memo)
            if hit is not None:
                return hit
            return _sat(fs - {f} | {f.r}, memo)
    pos, neg = set(), set()
    for f in fs:
        if isinstance(f, _Lit):
            (pos if f.pos else neg).add(f.name)
    if pos & neg:
        return None
    scopes = frozenset(f.a for f in fs if isinstance(f, _Box))
    kids = []
    for f in sorted(fs, key=_nkey):
        if isinstance(f, _Dia):
            kid = _sat(frozenset({f.a}) | scopes, memo)
            if kid is None:
                return None
            kids.append(kid)
    return _Tree(frozenset(pos), tuple(kids))


def _to_kripke(t: _Tree, atoms: frozenset[str]) -> tuple[md.KripkeModel, str]:
    names: list[str] = []
    rel: set[tuple[str, str]] = set()
    val: dict[str, set[str]] = {a: set() for a in sorted(atoms)}

    def walk(node: _Tree) -> str:
        w = f"w{len(names)}"
        names.append(w)
        for a in node.pos:
            val.setdefault(a, set()).add(w)
        for kid in node.kids:
            rel.add((w, walk(kid)))
        return w

    root = walk(t)
    model = md.KripkeModel(
        tuple(names), frozenset(rel), {a: frozenset(s) for a, s in val.items()}
    )
    return model, root


# ---------------------------------------------------------------------------
# public verdicts


@dataclass(frozen=True)
class TableauVerdict:
    valid: bool
    model: Optional[md.KripkeModel] = None
    root: Optional[str] = None
    trace: str = ""


def k_decide(a: sx.ModalFormula) -> TableauVerdict:
    """Valid iff the negation is unsatisfiable; Invalid carries a finite
    tree countermodel falsifying the formula at its root (re-checked by
    the evaluator before returning)."""
    refuter = _nnf(a, False)
    hit = _sat(frozenset({refuter}), {})
    if hit is None:
        return TableauVerdict(True, trace=f"refutation set closed: {_describe(a)}")
    model, root = _to_kripke(hit, sx.matoms(a))
    if md.eval_modal(model, root, a):  # pragma: no cover - defends the extractor
        raise AssertionError("open branch failed to falsify the input")
    return TableauVerdict(False, model=model, root=root)


def _describe(a: sx.ModalFormula) -> str:
    text = sx.render_modal(a)
    return text if len(text) <= 60 else text[:57] + "..."
