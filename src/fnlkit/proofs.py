"""Derivation trees, rule names, context paths, and serialization.

A derivation node carries its conclusion, a rule name, premise subtrees,
and the instantiation data (hole path, principal formulas) the checker
needs to re-validate the step without search.  Nodes hash by identity so
large proofs can share subtrees freely.

Derivations serialize to JSON as one table, format 2, in which every
distinct formula, sequent and node is written once and later entries
refer to earlier ones by index, so the text grows linearly with the
proof:

    {"format": 2, "formulas": [...], "sequents": [...], "nodes": [...]}

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
  recorded, holds ``path`` (a list), ``idx``, formula indices ``main``
  and ``side``, and sequent index ``member``.

Shared subproofs stay shared: one node entry per distinct node object.
Reading builds the terms straight from the table, without the parser,
and rejects a malformed table with ParseError.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
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


@dataclass(frozen=True)
class Inst:
    """Re-check data for one step: where the action happened and with
    what."""

    path: Optional[Path] = None
    main: Optional[sx.LFormula] = None  # principal formula
    side: Optional[sx.LFormula] = None  # cut formula / residual partner
    idx: Optional[int] = None  # 1 or 2 for the pick-one rules
    member: Optional[sx.Sequent] = None  # the assumption used


@dataclass(frozen=True, eq=False)
class Derivation:
    seq: sx.Sequent
    rule: str
    premises: tuple["Derivation", ...] = ()
    inst: Inst = Inst()


def node(seq: sx.Sequent, rule: str, premises=(), inst: Inst = Inst()) -> Derivation:
    return Derivation(seq, rule, tuple(premises), inst)


def post_order(d: Derivation) -> Iterator[Derivation]:
    """Every node once, shared subtrees deduplicated by identity, each
    after its premises, which come left to right; the root comes last."""
    seen = {id(d)}
    stack = [(d, iter(d.premises))]
    while stack:
        n, todo = stack[-1]
        for p in todo:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append((p, iter(p.premises)))
                break
        else:
            stack.pop()
            yield n


def size(d: Derivation) -> int:
    return sum(1 for _ in post_order(d))


# ---------------------------------------------------------------------------
# serialization (iterative: derivations can be thousands of nodes deep)

FORMAT = 2

# connective classes by table tag, and the fields that hold their children
_CONNECTIVES = {tag: cls for cls, tag in sx.L_TAGS.items()}
_CHILDREN = {cls: tuple(f.name for f in fields(cls)) for cls in sx.L_TAGS}
_CONSTS = {"bot": sx.BOT, "top": sx.TOP, "one": sx.ONE}
_CONST_NAMES = {type(c): name for name, c in _CONSTS.items()}
_FRESH_CONSTS = {"bot": sx.P_BOT, "top": sx.P_TOP}
_NODE_KEYS = frozenset(("rule", "seq", "premises", "inst"))
_INST_KEYS = frozenset(f.name for f in fields(Inst))


def _split(f: sx.LFormula) -> tuple[list, tuple]:
    """The entry of f without its children's indices, and its children."""
    cls = type(f)
    if cls in _CHILDREN:
        return [sx.L_TAGS[cls]], tuple(getattr(f, k) for k in _CHILDREN[cls])
    if cls is sx.LAtom:
        return ["atom", f.name], ()
    if cls is sx.LFresh:
        return ["fresh", f.mark], () if f.of is None else (f.of,)
    return ["const", _CONST_NAMES[cls]], ()


def to_json(d: Derivation) -> dict:
    """The format-2 table of d; see the module docstring."""
    formulas: list = []
    sequents: list = []
    nodes: list = []
    # entries are found by object identity first, then by the entry itself,
    # which names children by index, so no term is hashed or compared deeply
    f_at: dict[int, int] = {}
    f_key: dict[tuple, int] = {}
    t_at: dict[int, tuple] = {}
    s_at: dict[int, int] = {}
    s_key: dict[tuple, int] = {}

    def formula(f: sx.LFormula) -> int:
        stack = [f]
        while stack:
            g = stack[-1]
            if id(g) in f_at:
                stack.pop()
                continue
            head, kids = _split(g)
            todo = [k for k in kids if id(k) not in f_at]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            entry = head + [f_at[id(k)] for k in kids]
            key = tuple(entry)
            i = f_key.get(key)
            if i is None:
                i = f_key[key] = len(formulas)
                formulas.append(entry)
            f_at[id(g)] = i
        return f_at[id(f)]

    def tree(t: sx.StructTree) -> tuple:
        # (JSON form, hashable key) of an antecedent
        hit = t_at.get(id(t))
        if hit is None:
            if isinstance(t, sx.SLeaf):
                i = formula(t.f)
                hit = (i, i)
            elif isinstance(t, sx.SNode):
                (jl, kl), (jr, kr) = tree(t.l), tree(t.r)
                hit = ([jl, jr], (kl, kr))
            else:
                ja, ka = tree(t.a)
                hit = ({"b": ja}, ("b", ka))
            t_at[id(t)] = hit
        return hit

    def sequent(s: sx.Sequent) -> int:
        i = s_at.get(id(s))
        if i is None:
            ant, key = (None, None) if s.ant is None else tree(s.ant)
            suc = formula(s.suc)
            i = s_key.get((key, suc))
            if i is None:
                i = s_key[(key, suc)] = len(sequents)
                sequents.append([ant, suc])
            s_at[id(s)] = i
        return i

    n_at: dict[int, int] = {}
    for n in post_order(d):
        j = {
            "rule": n.rule,
            "seq": sequent(n.seq),
            "premises": [n_at[id(p)] for p in n.premises],
        }
        i = n.inst
        inst = {}
        if i.path is not None:
            inst["path"] = list(i.path)
        if i.main is not None:
            inst["main"] = formula(i.main)
        if i.side is not None:
            inst["side"] = formula(i.side)
        if i.idx is not None:
            inst["idx"] = i.idx
        if i.member is not None:
            inst["member"] = sequent(i.member)
        if inst:
            j["inst"] = inst
        n_at[id(n)] = len(nodes)
        nodes.append(j)
    return {"format": FORMAT, "formulas": formulas, "sequents": sequents, "nodes": nodes}


def _ref(x, below: int, what: str) -> int:
    if type(x) is not int or not 0 <= x < below:
        raise ParseError(f"{what} {x!r} is not an index below {below}")
    return x


def _read_formulas(rows: list) -> list[sx.LFormula]:
    out: list[sx.LFormula] = []
    for k, e in enumerate(rows):
        what = f"formula {k}: child"
        tag, args = e[0], e[1:]
        cls = _CONNECTIVES.get(tag)
        if cls is not None and len(args) == len(_CHILDREN[cls]):
            f = cls(*(out[_ref(i, k, what)] for i in args))
        elif tag == "atom" and len(args) == 1 and sx.is_atom_name(args[0]):
            f = sx.LAtom(args[0])
        elif tag == "const" and len(args) == 1 and args[0] in _CONSTS:
            f = _CONSTS[args[0]]
        elif tag == "fresh" and len(args) == 1 and args[0] in _FRESH_CONSTS:
            f = _FRESH_CONSTS[args[0]]
        elif tag == "fresh" and len(args) == 2 and args[0] == "neg":
            f = sx.fresh_for(out[_ref(args[1], k, what)])
        else:
            raise ParseError(f"formula {k}: unknown entry {e!r}")
        out.append(f)
    return out


def _read_sequents(rows: list, fs: list[sx.LFormula]) -> list[sx.Sequent]:
    leaves: dict[int, sx.SLeaf] = {}

    def tree(x) -> sx.StructTree:
        if type(x) is int:
            leaf = leaves.get(x)
            if leaf is None:
                leaf = leaves[x] = sx.SLeaf(fs[_ref(x, len(fs), "leaf formula")])
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
        out.append(sx.Sequent(ant, fs[_ref(e[1], len(fs), "succedent formula")]))
    return out


def _read_inst(d: dict, fs: list[sx.LFormula], ss: list[sx.Sequent]) -> Inst:
    if not d.keys() <= _INST_KEYS:
        raise ParseError(f"unknown instantiation fields {sorted(d.keys() - _INST_KEYS)}")
    path = d.get("path")
    if path is not None:
        path = tuple(path)
        if not all(type(x) is int for x in path):
            raise ParseError(f"malformed path {d['path']!r}")
    idx = d.get("idx")
    if idx is not None and type(idx) is not int:
        raise ParseError(f"malformed idx {idx!r}")
    return Inst(
        path=path,
        main=fs[_ref(d["main"], len(fs), "main formula")] if "main" in d else None,
        side=fs[_ref(d["side"], len(fs), "side formula")] if "side" in d else None,
        idx=idx,
        member=ss[_ref(d["member"], len(ss), "member sequent")] if "member" in d else None,
    )


def from_json(j: dict) -> Derivation:
    """The derivation a format-2 table describes, its root the last node.
    Terms are built from the table directly; a malformed table raises
    ParseError."""
    fmt = j.get("format") if isinstance(j, dict) else None
    if fmt != FORMAT:
        raise ParseError(f"derivation format {fmt!r}, expected {FORMAT}")
    try:
        fs = _read_formulas(j["formulas"])
        ss = _read_sequents(j["sequents"], fs)
        done: list[Derivation] = []
        for k, n in enumerate(j["nodes"]):
            if not n.keys() <= _NODE_KEYS or type(n["rule"]) is not str:
                raise ParseError(f"node {k}: malformed entry")
            done.append(Derivation(
                ss[_ref(n["seq"], len(ss), f"node {k}: sequent")],
                n["rule"],
                tuple(done[_ref(p, k, f"node {k}: premise")] for p in n["premises"]),
                _read_inst(n.get("inst", {}), fs, ss),
            ))
    except (KeyError, IndexError, TypeError, AttributeError, RecursionError) as e:
        raise ParseError(f"malformed derivation table ({type(e).__name__}: {e})") from None
    if not done:
        raise ParseError("derivation table has no nodes")
    return done[-1]


def pretty(d: Derivation) -> str:
    """Indented tree, conclusion first."""
    lines: list[str] = []
    stack: list[tuple[Derivation, int]] = [(d, 0)]
    while stack:
        n, depth = stack.pop()
        lines.append("  " * depth + f"{n.rule}: {sx.render_sequent(n.seq)}")
        for p in reversed(n.premises):
            stack.append((p, depth + 1))
    return "\n".join(lines)
