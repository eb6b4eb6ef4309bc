"""Derivation trees, rule names, context paths, and serialization.

A derivation node carries its conclusion, a rule name, premise subtrees,
and, in two slots of its own, what the checker cannot rebuild from
those: the hole path and, for a pick-one rule, which side was picked,
each None when not recorded.  Everything else a step acts on (its
principal formula, a cut formula, the assumption used) the checker reads
off the conclusion, the subtree at the path and the premises.  Nodes
hash by identity so large proofs can share subtrees freely.

Derivations serialize to JSON as one table, format 3, in which every
distinct formula, sequent and node is written once and later entries
refer to earlier ones by index, so the text grows linearly with the
proof:

    {"format": 3, "formulas": [...], "sequents": [...], "nodes": [...]}

- ``formulas``: ``["atom", name]``, ``["const", "bot" | "top" | "one"]``,
  ``["fresh", "bot" | "top"]``, ``["fresh", "neg", i]`` for the letter
  standing against formula i, and ``[tag, i]`` or ``[tag, i, j]`` for a
  connective, spelled as in ``syntax.L_TAGS``.  Children come earlier.
- ``sequents``: ``[antecedent, i]`` with succedent formula i.  The
  antecedent is ``null`` when empty, else a tree: a formula index for a
  leaf, ``[l, r]`` for a pair, ``{"b": t}`` for a bracket.
- ``nodes``: in post-order, the root last.  Each is
  ``{"rule": name, "seq": s, "premises": [n, ...], "inst": {...}}``;
  premises are earlier nodes, and ``inst``, omitted when nothing is
  recorded, holds ``path`` (a list) and ``idx`` only.

Shared subproofs stay shared: one node entry per distinct node object.
`table_text` writes the table as the text ``json.dumps(table, indent=2)``
prints, in one pass over the nodes: each entry is written as text when it
is first indexed, and the three lists are joined once at the end.  A
formula is found by identity, then by its entry with its children's
indices.  A sequent is keyed by value alone, since a derivation's
conclusions are seldom one object: by its succedent's index and its
antecedent's formula index (one leaf) or text.  A tree's text is kept
per (tree, indent), so a tree met again at another depth is written with
that depth's indent.
`to_json` is that text parsed.  Reading builds the terms straight from
the table, without the parser, and rejects a malformed table with
ParseError.  Every index is tested inline where it is read: an int (not
a bool or a float) below the number of entries it may refer to, which
for a formula's child or a node's premise is the number of entries
before it.  The error message is formatted only when that test fails.  ``premises``
and ``path`` must be lists.  A node with no ``inst``, or an ``inst``
that omits a field, records None there.  A ``null`` ``inst``, ``path``,
``idx``, ``seq``, ``premises`` or ``rule`` is malformed, not omitted.
"""

from __future__ import annotations

import json
from collections import deque
from json.encoder import encode_basestring_ascii as _esc
from typing import Iterator, Optional

from . import syntax as sx
from .errors import ParseError

# rule names; which of them a system admits is decided by systems.py
ID = "Id"
DIST = "D"
BOT_AX = "Bot"
TOP_AX = "Top"
NEG1 = "Neg1"
NEG2 = "Neg2"
UNDER_L = "UnderL"
UNDER_R = "UnderR"
OVER_L = "OverL"
OVER_R = "OverR"
PROD_L = "ProdL"
PROD_R = "ProdR"
CUT = "Cut"
AND_L = "AndL"
AND_R = "AndR"
OR_L = "OrL"
OR_R = "OrR"
EXCH = "Exch"
DIA_L = "DiaL"
DIA_R = "DiaR"
BOXDOWN_L = "BoxDownL"
BOXDOWN_R = "BoxDownR"
AX_T = "AxT"
AX_4 = "Ax4"
AX_5 = "Ax5"
ONE_R = "OneR"
ONE_L_LEFT = "OneLLeft"
ONE_L_RIGHT = "OneLRight"
ASSUMPTION = "Assumption"

Path = tuple[int, ...]
LEFT, RIGHT, UNDER_BRACKET = 0, 1, 2


def tree_at(t: sx.StructTree, path: Path) -> sx.StructTree:
    for step in path:
        if step == LEFT and isinstance(t, sx.SNode):
            t = t.l
        elif step == RIGHT and isinstance(t, sx.SNode):
            t = t.r
        elif step == UNDER_BRACKET and isinstance(t, sx.SBracket):
            t = t.a
        else:
            raise ValueError(f"path {path} leaves the tree")
    return t


def tree_replace(t: sx.StructTree, path: Path, new: sx.StructTree) -> sx.StructTree:
    if not path:
        return new
    step, rest = path[0], path[1:]
    if step == LEFT and isinstance(t, sx.SNode):
        return sx.SNode(tree_replace(t.l, rest, new), t.r)
    if step == RIGHT and isinstance(t, sx.SNode):
        return sx.SNode(t.l, tree_replace(t.r, rest, new))
    if step == UNDER_BRACKET and isinstance(t, sx.SBracket):
        return sx.SBracket(tree_replace(t.a, rest, new))
    raise ValueError(f"path {path} leaves the tree")


def positions(t: sx.StructTree) -> Iterator[tuple[Path, sx.StructTree]]:
    """All subtree positions, outermost first, left before right."""
    queue = deque([((), t)])
    while queue:
        path, x = queue.popleft()
        yield path, x
        if isinstance(x, sx.SNode):
            queue.append((path + (LEFT,), x.l))
            queue.append((path + (RIGHT,), x.r))
        elif isinstance(x, sx.SBracket):
            queue.append((path + (UNDER_BRACKET,), x.a))


class Derivation(sx.Frozen):
    """One step: its conclusion, its rule, its premise subtrees and what it
    records for the checker: the hole path where the rule acted, and the
    side (1 or 2) a pick-one rule took, each None when not recorded.
    Immutable and slotted like the terms: the constructor fills the slots
    through their descriptors and every assignment raises.  Nodes compare
    and hash by identity."""

    __slots__ = __match_args__ = ("seq", "rule", "premises", "path", "idx")

    def __init__(self, seq: sx.Sequent, rule: str, premises: tuple = (),
                 path: Optional[Path] = None, idx: Optional[int] = None):
        _set_seq(self, seq)
        _set_rule(self, rule)
        _set_premises(self, premises)
        _set_path(self, path)
        _set_idx(self, idx)


_set_seq, _set_rule = Derivation.seq.__set__, Derivation.rule.__set__
_set_premises = Derivation.premises.__set__
_set_path, _set_idx = Derivation.path.__set__, Derivation.idx.__set__


def node(seq: sx.Sequent, rule: str, premises=(), path: Optional[Path] = None,
         idx: Optional[int] = None) -> Derivation:
    return Derivation(seq, rule, tuple(premises), path, idx)


def post_order(d: Derivation) -> list[Derivation]:
    """Every node once, shared subtrees deduplicated by identity, each
    after its premises, which come left to right; the root comes last."""
    out = []
    seen = {id(d)}
    stack = [(d, iter(d.premises))]
    while stack:
        n, todo = stack[-1]
        for p in todo:
            if id(p) not in seen:
                seen.add(id(p))
                if p.premises:
                    stack.append((p, iter(p.premises)))
                    break
                out.append(p)  # a leaf comes out as soon as it is met
        else:
            stack.pop()
            out.append(n)
    return out


def size(d: Derivation) -> int:
    return len(post_order(d))


# ---------------------------------------------------------------------------
# serialization (iterative over nodes and formulas: derivations can be
# thousands of nodes deep)

FORMAT = 3

# connective classes by table tag, and the fields that hold their children
_CONNECTIVES = {tag: cls for cls, tag in sx.L_TAGS.items()}
_CHILDREN = {cls: cls.__match_args__ for cls in sx.L_TAGS}
_CONSTS = {"bot": sx.BOT, "top": sx.TOP, "one": sx.ONE}
_CONST_NAMES = {type(c): name for name, c in _CONSTS.items()}
_FRESH_CONSTS = {"bot": sx.P_BOT, "top": sx.P_TOP}
_NODE_KEYS = frozenset(("rule", "seq", "premises", "inst"))
_INST_KEYS = frozenset(("path", "idx"))


class TableText(str):
    """The text ``json.dumps(value, indent=2)`` prints for a value at depth
    0.  A result's payload carries its derivation's table as one, and
    `cli._dumps` writes it indented to the depth where it sits."""


# a newline and the indent of depth k
_PAD = ["\n" + "  " * k for k in range(5)]


def _rows(items: list[str], pad: str, brackets: str = "[]") -> str:
    """The text of a list (or, with brackets "{}", an object) whose items
    are already written, opening on the line that pad, a newline and an
    indent, begins."""
    if not items:
        return brackets
    inner = pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


# each connective's entry, with %d for its children's indices, as written
# at depth 2 of the table; a unary connective's child is .a, else .l and .r
_ENTRIES = {cls: _rows([_esc(tag)] + ["%d"] * len(_CHILDREN[cls]), _PAD[2])
            for cls, tag in sx.L_TAGS.items()}
_UNARY = frozenset(cls for cls in sx.L_TAGS if _CHILDREN[cls] == ("a",))
_CONST_ENTRIES = {cls: _rows(['"const"', _esc(name)], _PAD[2])
                  for cls, name in _CONST_NAMES.items()}
_SEQUENT = _rows(["%s", "%d"], _PAD[2])


def _node_entry(k: int) -> str:
    """A node's entry with its k premise indices written in (%d each)."""
    premises = _rows(["%d"] * k, _PAD[3])
    return _rows(['"rule": %s', '"seq": %d', '"premises": ' + premises + "%s"], _PAD[2], "{}")


_NODES = [_node_entry(k) for k in range(3)]  # the rules take at most two premises
_INST = "," + _PAD[3] + '"inst": '
_TABLE = _rows(['"format": %d', '"formulas": %s', '"sequents": %s', '"nodes": %s'], _PAD[0], "{}")


def table_text(d: Derivation) -> TableText:
    """The text ``json.dumps(table, indent=2)`` prints for the format-3
    table of d, written in one pass over post_order(d): each entry is
    written when it is first indexed."""
    formulas: list[str] = []
    sequents: list[str] = []
    nodes: list[str] = []
    # a formula is found by object identity first, then by a key naming its
    # children by index, so no term is compared deeply.  A sequent is found
    # by value alone, by the key (antecedent, succedent index), where a
    # one-leaf antecedent is its formula index and any other its text; a
    # tree's text is kept per (tree, pad), its value and its indent
    f_at: dict[int, int] = {}
    f_key: dict = {}
    s_at: dict[tuple, int] = {}
    t_text: dict[tuple, str] = {}

    def formula(f: sx.LFormula) -> int:
        i = f_at.get(id(f))
        if i is not None:
            return i
        stack = [f]
        while stack:
            # a leaf's entry is its own key; a compound's key is its entry's
            # format and its children's indices, once they are indexed.  A
            # formula pushed twice is keyed twice, to the same index.
            g = stack[-1]
            cls = type(g)
            text = _ENTRIES.get(cls)
            if text is not None:
                if cls in _UNARY:
                    a = g.a
                    ia = f_at.get(id(a))
                    if ia is None:
                        stack.append(a)
                        continue
                    key = (text, ia)
                else:
                    l, r = g.l, g.r
                    il, ir = f_at.get(id(l)), f_at.get(id(r))
                    if il is None or ir is None:
                        if il is None:
                            stack.append(l)
                        if ir is None:
                            stack.append(r)
                        continue
                    key = (text, il, ir)
            elif cls is sx.LAtom:
                key = _rows(['"atom"', _esc(g.name)], _PAD[2])
            elif cls is sx.LFresh and g.of is not None:
                a = g.of
                ia = f_at.get(id(a))
                if ia is None:
                    stack.append(a)
                    continue
                key = (_rows(['"fresh"', _esc(g.mark), "%d"], _PAD[2]), ia)
            elif cls is sx.LFresh:
                key = _rows(['"fresh"', _esc(g.mark)], _PAD[2])
            else:
                key = _CONST_ENTRIES[cls]
            stack.pop()
            i = f_key.get(key)
            if i is None:
                i = f_key[key] = len(formulas)
                formulas.append(key[0] % key[1:] if type(key) is tuple else key)
            f_at[id(g)] = i
        return f_at[id(f)]

    def tree(t: sx.StructTree, pad: str) -> str:
        # the text of an antecedent whose first line begins with pad: a
        # leaf's formula index, [l, r] for a pair, {"b": a} for a bracket
        if type(t) is sx.SLeaf:
            return int.__repr__(formula(t.f))
        text = t_text.get((t, pad))
        if text is None:
            inner = pad + "  "
            if type(t) is sx.SNode:
                text = "[" + inner + tree(t.l, inner) + "," + inner + tree(t.r, inner) + pad + "]"
            else:
                text = "{" + inner + '"b": ' + tree(t.a, inner) + pad + "}"
            t_text[(t, pad)] = text
        return text

    def sequent(s: sx.Sequent) -> int:
        a = s.ant
        if a is None:
            key = None
        elif type(a) is sx.SLeaf:
            key = formula(a.f)
        else:
            key = tree(a, _PAD[3])
        suc = formula(s.suc)
        i = s_at.get((key, suc))
        if i is None:
            i = s_at[(key, suc)] = len(sequents)
            ant = "null" if key is None else key if type(key) is str else int.__repr__(key)
            sequents.append(_SEQUENT % (ant, suc))
        return i

    n_at: dict[int, int] = {}
    rules: dict[str, str] = {}  # each rule's name, escaped
    for n in post_order(d):
        seq = sequent(n.seq)
        rule = rules.get(n.rule)
        if rule is None:
            rule = rules[n.rule] = _esc(n.rule)
        inst = []
        if n.path is not None:
            inst.append('"path": ' + _rows([int.__repr__(x) for x in n.path], _PAD[4]))
        if n.idx is not None:
            inst.append('"idx": %d' % n.idx)
        more = _INST + _rows(inst, _PAD[3], "{}") if inst else ""
        ps = n.premises
        entry = _NODES[len(ps)] if len(ps) < len(_NODES) else _node_entry(len(ps))
        n_at[id(n)] = len(nodes)
        nodes.append(entry % (rule, seq, *[n_at[id(p)] for p in ps], more))
    return TableText(_TABLE % (
        FORMAT, _rows(formulas, _PAD[1]), _rows(sequents, _PAD[1]), _rows(nodes, _PAD[1])))


def to_json(d: Derivation) -> dict:
    """The format-3 table of d, parsed from table_text(d)."""
    return json.loads(table_text(d))


def _at(rows: list, x, what: str, k: int = 0):
    """rows[x] for an index x below len(rows); else ParseError names what,
    formatted with k, and x.  A reader tests an in-range int index inline
    and calls this only when that test fails, to raise."""
    if type(x) is int and 0 <= x < len(rows):
        return rows[x]
    raise ParseError(f"{what.format(k)} {x!r} is not an index below {len(rows)}")


def _read_formulas(rows: list) -> list[sx.LFormula]:
    out: list[sx.LFormula] = []
    for k, e in enumerate(rows):
        # out holds exactly the k formulas a child may refer to
        tag, args = e[0], e[1:]
        cls = _CONNECTIVES.get(tag)
        if cls is not None and len(args) == len(_CHILDREN[cls]):
            f = cls(*[out[i] if type(i) is int and 0 <= i < k
                      else _at(out, i, "formula {}: child", k) for i in args])
        elif tag == "atom" and len(args) == 1 and sx.is_atom_name(args[0]):
            f = sx.LAtom(args[0])
        elif tag == "const" and len(args) == 1 and args[0] in _CONSTS:
            f = _CONSTS[args[0]]
        elif tag == "fresh" and len(args) == 1 and args[0] in _FRESH_CONSTS:
            f = _FRESH_CONSTS[args[0]]
        elif tag == "fresh" and len(args) == 2 and args[0] == "neg":
            f = sx.fresh_for(_at(out, args[1], "formula {}: child", k))
        else:
            raise ParseError(f"formula {k}: unknown entry {e!r}")
        out.append(f)
    return out


def _read_sequents(rows: list, fs: list[sx.LFormula]) -> list[sx.Sequent]:
    leaves: dict[int, sx.SLeaf] = {}
    n = len(fs)

    def tree(x) -> sx.StructTree:
        if type(x) is int:
            leaf = leaves.get(x)
            if leaf is None:
                leaf = leaves[x] = sx.SLeaf(fs[x] if 0 <= x < n else _at(fs, x, "leaf formula"))
            return leaf
        if type(x) is list and len(x) == 2:
            return sx.SNode(tree(x[0]), tree(x[1]))
        if type(x) is dict and x.keys() == {"b"}:
            return sx.SBracket(tree(x["b"]))
        raise ParseError(f"malformed antecedent {x!r}")

    out = []
    for e in rows:
        if type(e) is not list or len(e) != 2:
            raise ParseError(f"malformed sequent {e!r}")
        ant = None if e[0] is None else tree(e[0])
        i = e[1]
        out.append(sx.Sequent(ant, fs[i] if type(i) is int and 0 <= i < n
                              else _at(fs, i, "succedent formula")))
    return out


def _read_inst(d: dict) -> tuple[Optional[Path], Optional[int]]:
    """The (path, idx) an ``inst`` entry d records, None where omitted."""
    if not d.keys() <= _INST_KEYS:
        raise ParseError(f"unknown instantiation fields {sorted(d.keys() - _INST_KEYS)}")
    # an omitted field is not recorded; a null one is malformed
    path = idx = None
    if "path" in d:
        path = d["path"]
        if type(path) is not list or not all(type(x) is int for x in path):
            raise ParseError(f"malformed path {path!r}")
        path = tuple(path)
    if "idx" in d:
        idx = d["idx"]
        if type(idx) is not int:
            raise ParseError(f"malformed idx {idx!r}")
    return path, idx


def from_json(j: dict) -> Derivation:
    """The derivation a format-3 table describes, its root the last node.
    Terms are built from the table directly; a malformed table raises
    ParseError."""
    fmt = j.get("format") if isinstance(j, dict) else None
    if fmt != FORMAT:
        raise ParseError(f"derivation format {fmt!r}, expected {FORMAT}")
    try:
        fs = _read_formulas(j["formulas"])
        ss = _read_sequents(j["sequents"], fs)
        done: list[Derivation] = []
        m = len(ss)
        for k, n in enumerate(j["nodes"]):
            if not n.keys() <= _NODE_KEYS or type(n["rule"]) is not str:
                raise ParseError(f"node {k}: malformed entry")
            i = n["seq"]
            s = ss[i] if type(i) is int and 0 <= i < m else _at(ss, i, "node {}: sequent", k)
            ps = n["premises"]
            if type(ps) is not list:
                raise ParseError(f"node {k}: malformed premises {ps!r}")
            # done holds exactly the k nodes a premise may refer to
            ps = tuple([done[p] if type(p) is int and 0 <= p < k
                        else _at(done, p, "node {}: premise", k) for p in ps])
            path, idx = _read_inst(n["inst"]) if "inst" in n else (None, None)
            done.append(Derivation(s, n["rule"], ps, path, idx))
    except (KeyError, IndexError, TypeError, AttributeError, RecursionError) as e:
        raise ParseError(f"malformed derivation table ({type(e).__name__}: {e})") from None
    if not done:
        raise ParseError("derivation table has no nodes")
    return done[-1]


def pretty(d: Derivation) -> str:
    """Indented tree, conclusion first.  Each node prints once: a node met
    again (shared by identity, as in `post_order`) prints as its one line
    marked "(as above)", without its premises.  Every conclusion renders
    over one memo."""
    lines: list[str] = []
    memo: dict = {}
    printed: set[int] = set()
    stack: list[tuple[Derivation, int]] = [(d, 0)]
    while stack:
        n, depth = stack.pop()
        line = "  " * depth + f"{n.rule}: {sx.render_sequent(n.seq, memo)}"
        if id(n) in printed:
            lines.append(line + "  (as above)")
            continue
        printed.add(id(n))
        lines.append(line)
        for p in reversed(n.premises):
            stack.append((p, depth + 1))
    return "\n".join(lines)
