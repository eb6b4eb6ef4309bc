"""ASTs, concrete grammar, and structural utilities for both languages.

Two formula languages live here: the modal language (atoms, bot, /\\, \\/,
->, ~, <>) and the substructural language (additionally top, one, *, \\,
/, [v], and generated fresh atoms).  Plus structure trees, sequents, and
the closure machinery shared by search and the translations.

Every term (formula, structure tree, sequent) is an immutable slotted
object that sets its fields and its hash once, in its constructor.  The
hash is `hash` of the tuple of its class's tag, a fixed integer, and its
field values, each child term given by its stored hash (`_h`), so building
a term makes no `__hash__` call and hashing a term of any depth costs one
slot read.  The tag keeps apart terms of distinct classes over the same
fields (p /\\ q and p \\/ q, ~p and <>p, bot and top), which would
otherwise collide, as would every labelling of one skeleton by /\\ and
\\/.  An absent child (None) counts as the constant `NONE_HASH`, so equal
terms hash alike in every process.

Each formula also stores its vocabulary mask, built at construction from
its children's (`V_NEG` ... `V_RESID`, one bit per substructural
connective family; a modal formula's is 0); a fresh letter is atomic, so
its payload does not count.  `vocab` reads it, ORs the masks of a tree's
or sequent's leaves and adds `V_BRACKET` for a bracket; trees and
sequents store no mask, since the rules rebuild them at every step.

The concrete grammar is two tables, one row per operator (`_OPS`) and
one per constant (`_CONSTS`).  The tokenizer reads the text with one
`findall` of one compiled pattern built from the rows (`_TOKEN`, whose one
group is the token) and gives each token its kind by one lookup in
`_KINDS`; it records no offsets.  `L_TAGS`, a precedence-climbing parser
that reads the token kinds in place, each once, and one renderer for both
languages (`render_modal` is `render_lambek`) read the rows too.  Offsets
are found only when a parse fails: `_offsets` scans the text again with
the same pattern and reports a broken letter rule (a bad character, an
unmatched brace, an unterminated fresh letter) before the parser's error.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .errors import ParseError


# ---------------------------------------------------------------------------
# terms
#
# Each shape (nullary, named, unary, binary; fresh, leaf, node, bracket and
# sequent below) names its fields in `__match_args__` and writes its own
# constructor and equality.  `__setattr__` (from `Frozen`, which
# `proofs.Derivation` shares) refuses every assignment, so a constructor
# fills the slots through their descriptors (`_set_*`).  The
# stored hash is hash((tag, *fields)) with each child term in the tuple as
# its stored hash `_h`, an int, so the tuple hash calls no `__hash__`.  The
# tag is an integer literal of the class, distinct across all 24 classes,
# so a tag, unlike an `id` or a salted string, is the same in every
# process.  A class of a shared shape (nullary, named, unary, binary) takes
# its constructor from that shape's factory, given its tag and its
# vocabulary bit, so building a term reads neither off the class; a shape
# of one class writes its tag into its constructor (fresh 9, leaf 21,
# node 22, bracket 23, sequent 24).
# Equality tests identity, then the class, then the stored hash, then the
# fields, each child by identity before value.  A class body that defines
# `__eq__` must name `__hash__` again, or Python drops it.


class Frozen:
    """The immutable base of the terms and of `proofs.Derivation`: every
    assignment raises, and the repr names the fields of `__match_args__`.
    It has no slot, so a subclass keeps identity equality and hash unless
    it defines its own."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self):
        args = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
        return f"{type(self).__qualname__}({args})"


class _Term(Frozen):
    __slots__ = ("_h",)

    def __hash__(self):
        return self._h


_set_h = _Term._h.__set__


class _Formula(_Term):
    # _vocab ORs the class's own vocabulary bit with the children's masks
    __slots__ = ("_vocab",)


_set_vocab = _Formula._vocab.__set__
# an absent child (a fresh constant's payload, an empty antecedent) hashes
# as this constant: hash(None) is address-based before Python 3.12, so it
# would differ in every process, PYTHONHASHSEED or not
NONE_HASH = 0x6E6F6E65


class _Nullary(_Formula):
    __slots__ = ()

    def __eq__(self, other):
        return self is other or other.__class__ is self.__class__

    __hash__ = _Term.__hash__


def _nullary(tag: int, bit: int = 0):
    def __init__(self):
        _set_h(self, hash((tag,)))
        _set_vocab(self, bit)
    return __init__


class _Named(_Formula):
    __slots__ = __match_args__ = ("name",)

    def __eq__(self, other):
        if self is other:
            return True
        return (other.__class__ is self.__class__ and self._h == other._h
                and self.name == other.name)

    __hash__ = _Term.__hash__


_set_name = _Named.name.__set__


def _named(tag: int):
    def __init__(self, name: str):
        _set_name(self, name)
        _set_h(self, hash((tag, name)))
        _set_vocab(self, 0)
    return __init__


class _Unary(_Formula):
    __slots__ = __match_args__ = ("a",)

    def __eq__(self, other):
        if self is other:
            return True
        return (other.__class__ is self.__class__ and self._h == other._h
                and (self.a is other.a or self.a == other.a))

    __hash__ = _Term.__hash__


_set_a = _Unary.a.__set__


def _unary(tag: int, bit: int = 0):
    def __init__(self, a):
        _set_a(self, a)
        _set_h(self, hash((tag, a._h)))
        _set_vocab(self, bit | a._vocab)
    return __init__


class _Binary(_Formula):
    __slots__ = __match_args__ = ("l", "r")

    def __eq__(self, other):
        if self is other:
            return True
        return (other.__class__ is self.__class__ and self._h == other._h
                and (self.l is other.l or self.l == other.l)
                and (self.r is other.r or self.r == other.r))

    __hash__ = _Term.__hash__


_set_l, _set_r = _Binary.l.__set__, _Binary.r.__set__


def _binary(tag: int, bit: int = 0):
    def __init__(self, l, r):
        _set_l(self, l)
        _set_r(self, r)
        _set_h(self, hash((tag, l._h, r._h)))
        _set_vocab(self, bit | l._vocab | r._vocab)
    return __init__


# ---------------------------------------------------------------------------
# modal formulas


class ModalFormula:
    __slots__ = ()


class MAtom(_Named, ModalFormula):
    __slots__ = ()
    __init__ = _named(1)


class MBot(_Nullary, ModalFormula):
    __slots__ = ()
    __init__ = _nullary(2)


class MAnd(_Binary, ModalFormula):
    __slots__ = ()
    __init__ = _binary(3)


class MOr(_Binary, ModalFormula):
    __slots__ = ()
    __init__ = _binary(4)


class MImp(_Binary, ModalFormula):
    __slots__ = ()
    __init__ = _binary(5)


class MNot(_Unary, ModalFormula):
    __slots__ = ()
    __init__ = _unary(6)


class MDia(_Unary, ModalFormula):
    __slots__ = ()
    __init__ = _unary(7)


def mbox(a: ModalFormula) -> ModalFormula:
    """Box is not a constructor; it abbreviates ~<>~."""
    return MNot(MDia(MNot(a)))


def matoms(f: ModalFormula) -> frozenset[str]:
    if isinstance(f, MAtom):
        return frozenset([f.name])
    if isinstance(f, MBot):
        return frozenset()
    if isinstance(f, (MNot, MDia)):
        return matoms(f.a)
    return matoms(f.l) | matoms(f.r)


# ---------------------------------------------------------------------------
# substructural formulas


V_NEG, V_BOUNDS, V_UNIT, V_MODAL, V_RESID, V_BRACKET = 1, 2, 4, 8, 16, 32


class LFormula:
    __slots__ = ()


class LAtom(_Named, LFormula):
    __slots__ = ()
    __init__ = _named(8)


class LFresh(_Formula, LFormula):
    """Generated letter: mark "neg" carries the formula it stands against,
    marks "bot"/"top" are the two constant surrogates."""

    __slots__ = __match_args__ = ("mark", "of")

    def __init__(self, mark: str, of: Optional[LFormula] = None):
        _set_mark(self, mark)
        _set_of(self, of)
        _set_h(self, hash((9, mark, NONE_HASH if of is None else of._h)))
        _set_vocab(self, 0)

    def __eq__(self, other):
        if self is other:
            return True
        return (other.__class__ is self.__class__ and self._h == other._h
                and self.mark == other.mark
                and (self.of is other.of or self.of == other.of))

    __hash__ = _Term.__hash__


_set_mark, _set_of = LFresh.mark.__set__, LFresh.of.__set__


class LBot(_Nullary, LFormula):
    __slots__ = ()
    __init__ = _nullary(10, V_BOUNDS)


class LTop(_Nullary, LFormula):
    __slots__ = ()
    __init__ = _nullary(11, V_BOUNDS)


class LOne(_Nullary, LFormula):
    __slots__ = ()
    __init__ = _nullary(12, V_UNIT)


class LAnd(_Binary, LFormula):
    __slots__ = ()
    __init__ = _binary(13)


class LOr(_Binary, LFormula):
    __slots__ = ()
    __init__ = _binary(14)


class LNot(_Unary, LFormula):
    __slots__ = ()
    __init__ = _unary(15, V_NEG)


class LProd(_Binary, LFormula):
    __slots__ = ()
    __init__ = _binary(16)


class LUnder(_Binary, LFormula):
    """Left residual: LUnder(a, b) is a\\b."""

    __slots__ = ()
    __init__ = _binary(17, V_RESID)


class LOver(_Binary, LFormula):
    """Right residual: LOver(a, b) is a/b."""

    __slots__ = ()
    __init__ = _binary(18, V_RESID)


class LDia(_Unary, LFormula):
    __slots__ = ()
    __init__ = _unary(19, V_MODAL)


class LBoxDown(_Unary, LFormula):
    __slots__ = ()
    __init__ = _unary(20, V_MODAL)


BOT = LBot()
TOP = LTop()
ONE = LOne()
P_BOT = LFresh("bot")
P_TOP = LFresh("top")


def fresh_for(a: LFormula) -> LFresh:
    return LFresh("neg", a)


def lsize(f: LFormula | ModalFormula) -> int:
    """Connective count, of a Lambek or a modal formula.  Atoms, constants
    and fresh letters all weigh 0; a fresh letter is atomic, its payload is
    bookkeeping, not structure."""
    if isinstance(f, _Unary):
        return 1 + lsize(f.a)
    if isinstance(f, _Binary):
        return 1 + lsize(f.l) + lsize(f.r)
    return 0


def lsizes(fs: Iterable[LFormula]) -> dict[LFormula, int]:
    """`lsize` of each of fs and of each of their subformulas.  Each
    distinct subformula is sized once, from its children's sizes, so a
    tower costs time linear in its depth."""
    size: dict[LFormula, int] = {}

    def walk(f):
        n = size.get(f)
        if n is None:
            if isinstance(f, _Unary):
                n = 1 + walk(f.a)
            elif isinstance(f, _Binary):
                n = 1 + walk(f.l) + walk(f.r)
            else:
                n = 0
            size[f] = n
        return n

    for f in fs:
        walk(f)
    return size


def subformulas(f: LFormula) -> frozenset[LFormula]:
    return subformulas_many((f,))


def subformulas_many(fs: Iterable[LFormula]) -> frozenset[LFormula]:
    # one walk with one seen set over all the roots: a subformula shared by
    # several roots is expanded once
    out: set[LFormula] = set()
    stack = list(fs)
    while stack:
        g = stack.pop()
        if g in out:
            continue
        out.add(g)
        if isinstance(g, _Unary):
            stack.append(g.a)
        elif isinstance(g, _Binary):
            stack.append(g.l)
            stack.append(g.r)
    return frozenset(out)


def neg_free(f: LFormula) -> bool:
    return not f._vocab & V_NEG


def atom_keys(*fs: LFormula, fresh: Optional[set] = None) -> frozenset[str]:
    """Names of the atomic letters of the formulas fs, fresh letters
    included under their rendered form (which is what valuations key on).
    One walk over all of them enters each subformula object once and
    renders each fresh letter once, over one memo.  Objects are told apart
    by identity, which costs no formula hash on small inputs; the chain
    maps give equal terms one object, so a large chain problem is still
    walked once per distinct subformula.  Given a set fresh, the walk also
    adds to it each generated letter (mark "neg") it meets; it does not
    enter their payloads."""
    out: set[str] = set()
    seen: set[int] = set()
    memo: dict = {}
    stack = list(fs)
    while stack:
        g = stack.pop()
        if id(g) in seen:
            continue
        seen.add(id(g))
        if isinstance(g, _Binary):
            stack.append(g.l)
            stack.append(g.r)
        elif isinstance(g, _Unary):
            stack.append(g.a)
        elif isinstance(g, LAtom):
            out.add(g.name)
        elif isinstance(g, LFresh):
            out.add(render_lambek(g, memo))
            if fresh is not None and g.mark == "neg":
                fresh.add(g)
    return frozenset(out)


# ---------------------------------------------------------------------------
# structure trees and sequents


class StructTree:
    __slots__ = ()


class SLeaf(_Term, StructTree):
    __slots__ = __match_args__ = ("f",)

    def __init__(self, f: LFormula):
        _set_f(self, f)
        _set_h(self, hash((21, f._h)))

    def __eq__(self, other):
        if self is other:
            return True
        return (other.__class__ is self.__class__ and self._h == other._h
                and (self.f is other.f or self.f == other.f))

    __hash__ = _Term.__hash__


_set_f = SLeaf.f.__set__


class SNode(_Term, StructTree):
    __slots__ = __match_args__ = ("l", "r")

    def __init__(self, l: StructTree, r: StructTree):
        _set_node_l(self, l)
        _set_node_r(self, r)
        _set_h(self, hash((22, l._h, r._h)))

    __eq__ = _Binary.__eq__
    __hash__ = _Term.__hash__


_set_node_l, _set_node_r = SNode.l.__set__, SNode.r.__set__


class SBracket(_Term, StructTree):
    __slots__ = __match_args__ = ("a",)

    def __init__(self, a: StructTree):
        _set_bracket_a(self, a)
        _set_h(self, hash((23, a._h)))

    __eq__ = _Unary.__eq__
    __hash__ = _Term.__hash__


_set_bracket_a = SBracket.a.__set__


class Sequent(_Term):
    __slots__ = __match_args__ = ("ant", "suc")

    def __init__(self, ant: Optional[StructTree], suc: LFormula):
        _set_ant(self, ant)
        _set_suc(self, suc)
        _set_h(self, hash((24, NONE_HASH if ant is None else ant._h, suc._h)))

    def __eq__(self, other):
        if self is other:
            return True
        return (other.__class__ is self.__class__ and self._h == other._h
                and (self.ant is other.ant or self.ant == other.ant)
                and (self.suc is other.suc or self.suc == other.suc))

    __hash__ = _Term.__hash__


_set_ant, _set_suc = Sequent.ant.__set__, Sequent.suc.__set__


def simple(a: LFormula, b: LFormula) -> Sequent:
    return Sequent(SLeaf(a), b)


def is_simple(s: Sequent) -> bool:
    return isinstance(s.ant, SLeaf)


def phi_of_tree(t: StructTree) -> LFormula:
    """Formula of a bracket-free tree: leaves stay, each node becomes *."""
    if isinstance(t, SLeaf):
        return t.f
    if isinstance(t, SNode):
        return LProd(phi_of_tree(t.l), phi_of_tree(t.r))
    raise ValueError("phi is undefined on bracketed trees")


def tree_formulas(t: StructTree) -> Iterator[LFormula]:
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, SLeaf):
            yield x.f
        elif isinstance(x, SNode):
            stack.append(x.l)
            stack.append(x.r)
        else:
            stack.append(x.a)


def vocab(*xs) -> int:
    """OR of the vocabulary masks of formulas, structure trees and sequents;
    an empty antecedent (None) adds nothing."""
    v, stack = 0, list(xs)
    while stack:
        x = stack.pop()
        if isinstance(x, SLeaf):
            v |= x.f._vocab
        elif isinstance(x, SNode):
            stack += (x.l, x.r)
        elif isinstance(x, SBracket):
            v |= V_BRACKET
            stack.append(x.a)
        elif isinstance(x, Sequent):
            v |= x.suc._vocab
            stack.append(x.ant)
        elif x is not None:
            v |= x._vocab
    return v


def map_children(f: LFormula, fmap: Callable[[LFormula], LFormula]) -> LFormula:
    """The same connective over fmap of each child; atomic f unchanged."""
    if isinstance(f, _Binary):
        return type(f)(fmap(f.l), fmap(f.r))
    if isinstance(f, _Unary):
        return type(f)(fmap(f.a))
    return f


def map_tree(t: StructTree, fmap: Callable[[LFormula], LFormula]) -> StructTree:
    """The same tree with fmap applied to every leaf formula."""
    if isinstance(t, SLeaf):
        return SLeaf(fmap(t.f))
    if isinstance(t, SNode):
        return SNode(map_tree(t.l, fmap), map_tree(t.r, fmap))
    return SBracket(map_tree(t.a, fmap))


def sequent_formulas(s: Sequent) -> Iterator[LFormula]:
    if s.ant is not None:
        yield from tree_formulas(s.ant)
    yield s.suc


def subformulas_of_problem(goal: Sequent, phi: Iterable[Sequent]) -> frozenset[LFormula]:
    roots: list[LFormula] = list(sequent_formulas(goal))
    for s in phi:
        roots.extend(sequent_formulas(s))
    return subformulas_many(roots)


# ---------------------------------------------------------------------------
# the concrete grammar
#
# An operator row gives its token kind, spelling, precedence, `L_TAGS`
# spelling, class in each language (None where the language lacks it), and
# whether it chains: a binary operator that does associates to the right.
# A constant row gives its word, token kind and term in each language.


class _Op(NamedTuple):
    kind: str
    text: str
    prec: int
    tag: Optional[str]
    modal: Optional[type]
    lambek: Optional[type]
    chains: bool = True


class _Const(NamedTuple):
    word: str
    kind: str
    modal: Optional[ModalFormula]
    lambek: Optional[LFormula]


# precedence levels, loosest first
_P_IMP, _P_OR, _P_AND, _P_SLASH, _P_STAR, _P_UNARY, _P_ATOM = range(1, 8)

_OPS = (
    _Op("IMP", "->", _P_IMP, None, MImp, None),
    _Op("OR", "\\/", _P_OR, "or", MOr, LOr),
    _Op("AND", "/\\", _P_AND, "and", MAnd, LAnd),
    _Op("UNDER", "\\", _P_SLASH, "under", None, LUnder, chains=False),
    _Op("OVER", "/", _P_SLASH, "over", None, LOver, chains=False),
    _Op("STAR", "*", _P_STAR, "prod", None, LProd),
    _Op("NOT", "~", _P_UNARY, "not", MNot, LNot),
    _Op("DIA", "<>", _P_UNARY, "dia", MDia, LDia),
    _Op("BOXDOWN", "[v]", _P_UNARY, "boxdown", None, LBoxDown),
)

_CONSTS = (
    _Const("bot", "BOT", MBot(), BOT),
    _Const("top", "TOP", None, TOP),
    _Const("one", "ONE", None, ONE),
    _Const("p_bot", "PBOT", None, P_BOT),
    _Const("p_top", "PTOP", None, P_TOP),
)

# connective spellings in sort keys and derivation tables; the order they
# give cut candidates rests on these exact strings
L_TAGS = {op.lambek: op.tag for op in _OPS if op.lambek is not None}
# per language, by token kind: (precedence, chains, class) of each binary
# operator, for the parser's climbing loop, the class of each prefix one,
# and the term of each constant
_INFIX = {lang: {op.kind: (op.prec, op.chains, getattr(op, lang)) for op in _OPS
                 if getattr(op, lang) is not None and op.prec < _P_UNARY}
          for lang in ("modal", "lambek")}
_PREFIX = {lang: {op.kind: getattr(op, lang) for op in _OPS
                  if getattr(op, lang) is not None and op.prec == _P_UNARY}
           for lang in ("modal", "lambek")}
_CONSTANTS = {lang: {c.kind: getattr(c, lang) for c in _CONSTS if getattr(c, lang) is not None}
              for lang in ("modal", "lambek")}
# class -> its row, over both languages; every other formula class renders
# as a word (or a letter) and binds tightest
_ROW = {cls: op for op in _OPS for cls in (op.modal, op.lambek) if cls is not None}
_PREC = {cls: op.prec for cls, op in _ROW.items()}
# class -> word of the constants; a fresh one (p_bot, p_top) renders as
# "p_" and its mark instead
_WORDS = {t.__class__: c.word for c in _CONSTS for t in (c.modal, c.lambek)
          if t is not None and t.__class__ is not LFresh}


def render_lambek(f, memo: Optional[dict] = None) -> str:
    """f, a formula of either language, in the concrete grammar.  A caller
    that renders many formulas with common parts may pass one memo,
    formula -> text, to all its calls."""
    cls = f.__class__
    if cls is LAtom or cls is MAtom:
        return f.name
    if memo is not None:
        out = memo.get(f)
        if out is not None:
            return out
    op = _ROW.get(cls)
    if op is None:
        if cls is not LFresh:
            return _WORDS[cls]
        if f.of is None:
            return "p_" + f.mark
        out = "p{" + render_lambek(f.of, memo) + "}"
    elif op.prec == _P_UNARY:
        out = op.text + _wrap(render_lambek(f.a, memo),
                              _PREC.get(f.a.__class__, _P_ATOM) < _P_UNARY)
    else:
        prec = op.prec
        left = _wrap(render_lambek(f.l, memo), _PREC.get(f.l.__class__, _P_ATOM) <= prec)
        # a right child at the same level stays bare, unless the operator
        # does not chain
        rprec = _PREC.get(f.r.__class__, _P_ATOM)
        right = _wrap(render_lambek(f.r, memo), rprec < prec or rprec == prec and not op.chains)
        out = f"{left} {op.text} {right}"
    if memo is not None:
        memo[f] = out
    return out


render_modal = render_lambek


def _wrap(s: str, yes: bool) -> str:
    return f"({s})" if yes else s


def render_tree(t: StructTree, memo: Optional[dict] = None) -> str:
    if isinstance(t, SLeaf):
        return render_lambek(t.f, memo)
    if isinstance(t, SBracket):
        return "< " + render_tree(t.a, memo) + " >"
    left = _wrap(render_tree(t.l, memo), isinstance(t.l, SNode))
    right = _wrap(render_tree(t.r, memo), isinstance(t.r, SNode))
    return f"{left} o {right}"


def render_sequent(s: Sequent, memo: Optional[dict] = None) -> str:
    """s in the concrete grammar; memo as in `render_lambek`."""
    if s.ant is None:
        return "=> " + render_lambek(s.suc, memo)
    return render_tree(s.ant, memo) + " => " + render_lambek(s.suc, memo)


def _prefix_key(f: LFormula) -> str:
    # canonical prefix spelling; groups same-size formulas by connective
    # (and(..) before or(..)), then by operands left to right
    if isinstance(f, LAtom):
        return "atom " + f.name
    if isinstance(f, LFresh):
        if f.of is None:
            return "fresh " + f.mark
        return "fresh neg(" + _prefix_key(f.of) + ")"
    if isinstance(f, (LBot, LTop, LOne)):
        return "const " + _WORDS[type(f)]
    tag = L_TAGS[type(f)]
    if isinstance(f, _Unary):
        return tag + "(" + _prefix_key(f.a) + ")"
    return tag + "(" + _prefix_key(f.l) + "," + _prefix_key(f.r) + ")"


def sort_key(f: LFormula) -> tuple[int, str]:
    """Enumeration order: size first, canonical prefix text to break ties."""
    return (lsize(f), _prefix_key(f))


def sorted_by_key(fs: Iterable[LFormula], sizes: dict) -> list[LFormula]:
    """fs in `sort_key` order, given the size of each.  Prefix keys are
    built only among formulas of equal size, so a tower, whose formulas all
    differ in size, builds none."""
    groups: dict[int, list] = {}
    for f in fs:
        groups.setdefault(sizes[f], []).append(f)
    out = []
    for k in sorted(groups):
        group = groups[k]
        if len(group) > 1:
            group.sort(key=_prefix_key)
        out += group
    return out


# tokenizer

_ATOM_RE = re.compile(r"[a-z][a-z0-9_]*")
_RESERVED = {"o": "O", **{c.word: c.kind for c in _CONSTS}}
_PUNCT = (("=>", "SEQ"), ("[]", "BOX"), ("(", "LP"), (")", "RP"), ("<", "LT"), (">", "GT"))
# the kind of each spelling that is not an atom: a word that starts with a
# lowercase letter and is not here is an ATOM, any other token is BAD
_KINDS = {"p{": "FRESH", "}": "RBRACE", **{op.text: op.kind for op in _OPS}, **dict(_PUNCT),
          **_RESERVED}
# one group, the token, tried in order: a fresh letter's "p{" before the
# words, the symbols longest first (so /\ beats /, <> beats <), and any
# other character last; then the whitespace after it, so that no match is
# whitespace alone.  A match starts at its token, and whitespace before the
# first token is skipped by the scan.
_TOKEN = re.compile("(" + "|".join(
    [r"p\{", _ATOM_RE.pattern, r"\}"]
    + [re.escape(sym) for sym in sorted([op.text for op in _OPS] + [s for s, _ in _PUNCT],
                                        key=lambda sym: -len(sym))]
    + [r"\S"]) + r")\s*")


def is_atom_name(name) -> bool:
    """Whether name reads back as an atom, not a keyword or a fresh letter."""
    return (isinstance(name, str) and _ATOM_RE.fullmatch(name) is not None
            and name not in _RESERVED)


def _tokenize(text: str) -> tuple[list[str], list[str]]:
    """The tokens of text and their kinds, each list ending with an EOF
    token.  A fresh letter is a FRESH token for its "p{", the tokens of its
    contents, and an RBRACE token for its "}", which reads as the end of
    the letter's input.

    No offset is recorded and no letter rule is checked here: a text that
    breaks one holds a BAD token or a brace that the parser cannot match,
    so its parse fails, and `_offsets` then reports the rule it breaks."""
    words = _TOKEN.findall(text)
    get = _KINDS.get
    kinds = [get(w) or ("ATOM" if "a" <= w[0] <= "z" else "BAD") for w in words]
    words.append("")
    kinds.append("EOF")
    return words, kinds


def _offsets(text: str) -> list[int]:
    """The offset of each token of text and of its end, by `_tokenize`'s
    scan; or the error of the first letter rule that text breaks.

    A bad character or a "}" outside every letter is reported where it is.
    One inside a letter is reported only once every letter is closed, and
    a bare "{" there (None on the stack) counts towards the matching, so
    an unterminated letter is reported before it."""
    offsets = []
    opened = []  # the offsets of the letters (None: bare braces) still open
    bad = None  # the first bad character inside a letter
    for kind, m in zip(_tokenize(text)[1], _TOKEN.finditer(text)):
        pos = m.start()
        if kind == "RBRACE" and opened:
            if opened.pop() is None:
                continue
        elif kind == "BAD" or kind == "RBRACE":
            tok = m.group(1)
            if not opened:
                raise ParseError(f"unexpected character {tok!r}", pos)
            if bad is None:
                bad = ParseError(f"unexpected character {tok!r}", pos)
            if tok == "{":
                opened.append(None)
            continue
        elif kind == "FRESH":
            opened.append(pos)
        offsets.append(pos)
    if opened:
        raise ParseError("unterminated fresh letter", opened[0])
    if bad:
        raise bad
    offsets.append(len(text))
    return offsets


class _Parser:
    """Recursive descent over the token kinds, read in place at `pos`, each
    token once.  It recurses at every nesting level, with the frames it
    always took there, so a deep input runs out of frames (RecursionError)
    where it always did.  `lang` switches the accepted token set: "modal"
    or "lambek".  An error is raised by `fail`, which alone finds the
    tokens' offsets."""

    __slots__ = ("text", "words", "kinds", "pos", "modal", "infix", "prefix", "consts",
                 "atom")

    def __init__(self, text: str, lang: str):
        self.text = text
        self.words, self.kinds = _tokenize(text)
        self.pos = 0
        self.modal = lang == "modal"
        self.infix = _INFIX[lang]
        self.prefix = _PREFIX[lang]
        self.consts = _CONSTANTS[lang]
        self.atom = MAtom if self.modal else LAtom

    def quote(self, i: int, offsets: list[int]) -> str:
        # an error quotes token i by its text, a fresh letter by its
        # contents, up to the "}" that closes it, and the end of the input
        # or of a letter's contents as ""
        kind = self.kinds[i]
        if kind == "RBRACE" or kind == "EOF":
            return ""
        if kind != "FRESH":
            return self.words[i]
        depth = 0
        for j in range(i, len(self.kinds)):
            kind = self.kinds[j]
            depth += (kind == "FRESH") - (kind == "RBRACE")
            if not depth:
                return self.text[offsets[i] + 2 : offsets[j]]

    def fail(self, i: int, msg: str):
        """Raise the first error of the text: a broken letter rule's, or
        msg at token i, with "{}" in it filled by the token's quote."""
        offsets = _offsets(self.text)
        raise ParseError(msg.format(repr(self.quote(i, offsets) or "end of input")), offsets[i])

    def expect(self, kind: str):
        if self.kinds[self.pos] != kind:
            self.fail(self.pos, f"expected {kind}, found {{}}")
        self.pos += 1

    def formula(self, floor: int = 1, left=None):
        """The formula here whose binary operators all bind at floor or
        tighter, by precedence climbing over the rows; left, if given, is
        its first operand, already read."""
        if left is None:
            left = self.unary()
        kinds = self.kinds
        infix = self.infix
        op = infix.get(kinds[self.pos])
        while op is not None and op[0] >= floor:
            prec, chains, cls = op
            self.pos += 1
            # a right operand takes its own level, so operators associate
            # to the right; one that does not chain takes only tighter ones
            left = cls(left, self.formula(prec if chains else prec + 1))
            op = infix.get(kinds[self.pos])
            if not chains and op is not None and op[0] == prec:
                # only the slashes do not chain
                self.fail(self.pos, "slashes do not chain; parenthesize")
        return left

    def unary(self):
        # a prefix operator and its operand, or a primary formula
        pos = self.pos
        kind = self.kinds[pos]
        self.pos = pos + 1
        if kind == "ATOM":
            return self.atom(self.words[pos])
        cls = self.prefix.get(kind)
        if cls is not None:
            return cls(self.unary())
        f = self.consts.get(kind)
        if f is not None:
            return f
        if kind == "LP" or kind == "FRESH" and not self.modal:
            return self.nest(kind)
        if kind == "BOX":
            if not self.modal:
                self.fail(pos, "[] is modal syntax")
            return mbox(self.unary())
        if kind == "BOXDOWN":  # only modal has no prefix row for it
            self.fail(pos, "[v] is not modal syntax")
        self.fail(pos, "unexpected {}")

    def nest(self, kind: str):
        # a parenthesized formula or a fresh letter, in a frame of its own
        # as well, so that a nest of them runs out of frames at the depth
        # it always has
        f = self.formula()
        if kind == "LP":
            self.expect("RP")
            return f
        if self.kinds[self.pos] != "RBRACE":
            self.fail(self.pos, "trailing input {}")
        self.pos += 1
        return LFresh("neg", f)

    # structure trees

    def tree(self) -> StructTree:
        left = self.tree_primary()
        if self.kinds[self.pos] != "O":
            return left
        self.pos += 1
        right = self.tree_primary()
        if self.kinds[self.pos] == "O":
            self.fail(self.pos, "o does not chain; parenthesize")
        return SNode(left, right)

    def tree_primary(self) -> StructTree:
        kind = self.kinds[self.pos]
        if kind == "LT":
            self.pos += 1
            inner = self.tree()
            self.expect("GT")
            return SBracket(inner)
        if kind != "LP":
            return SLeaf(self.formula())
        # a parenthesis opens a subtree; a leaf there is a parenthesized
        # formula, which operators after the ")" may go on with
        self.pos += 1
        inner = self.tree()
        self.expect("RP")
        if isinstance(inner, SLeaf):
            return SLeaf(self.formula(left=inner.f))
        return inner

    def sequent(self) -> Sequent:
        if self.kinds[self.pos] == "SEQ":
            self.pos += 1
            return Sequent(None, self.formula())
        ant = self.tree()
        self.expect("SEQ")
        return Sequent(ant, self.formula())


def _parse(text: str, lang: str, goal):
    p = _Parser(text, lang)
    try:
        out = goal(p)
    except RecursionError:
        _offsets(text)  # a broken letter rule is reported first
        raise
    if p.kinds[p.pos] != "EOF":
        p.fail(p.pos, "trailing input {}")
    return out


def parse_modal(text: str) -> ModalFormula:
    return _parse(text, "modal", _Parser.formula)


def parse_lambek(text: str) -> LFormula:
    return _parse(text, "lambek", _Parser.formula)


def parse_tree(text: str) -> StructTree:
    return _parse(text, "lambek", _Parser.tree)


def parse_sequent(text: str) -> Sequent:
    return _parse(text, "lambek", _Parser.sequent)


# ---------------------------------------------------------------------------
# closures


@dataclass(frozen=True)
class ClosureSpec:
    base: frozenset[LFormula]
    mode: str  # "and_or" for c(T), "and_or_not" for c'(T)
    size_bound: int


@lru_cache(maxsize=64)
def enumerate_closure(spec: ClosureSpec) -> tuple[LFormula, ...]:
    """All members with size <= bound, in `sort_key` order: by size, then
    by prefix key.

    Sizes compose additively, so layer k is built from pairs of smaller
    layers.  Distinct (connective, l, r) give distinct formulas, so each is
    built once and needs checking only against the base members of its
    size.  Each member's prefix key is made from its children's as it is
    built, and each layer is sorted once by key.
    """
    bound = spec.size_bound
    # layers[k]: (prefix key, member) for every member of size k; the keys
    # are spelled as `_prefix_key` spells them
    layers: list[list] = [[] for _ in range(bound + 1)]
    sizes = lsizes(spec.base)
    for f in spec.base:
        k = sizes[f]
        if k <= bound:
            layers[k].append((_prefix_key(f), f))
    for k in range(1, bound + 1):
        layer = layers[k]
        given = {f for _, f in layer}
        for i in range(k):
            right = layers[k - 1 - i]
            for lk, l in layers[i]:
                for rk, r in right:
                    g = LAnd(l, r)
                    if g not in given:
                        layer.append((f"and({lk},{rk})", g))
                    g = LOr(l, r)
                    if g not in given:
                        layer.append((f"or({lk},{rk})", g))
        if spec.mode == "and_or_not":
            for ak, a in layers[k - 1]:
                g = LNot(a)
                if g not in given:
                    layer.append((f"not({ak})", g))
    out: list[LFormula] = []
    for layer in layers:
        layer.sort(key=itemgetter(0))
        out.extend(f for _, f in layer)
    return tuple(out)
