"""Shared hypothesis strategies for formula/tree/sequent generation, and
the model helpers, derivation builders and readers and regression corpus
that only tests use."""

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Optional

import hypothesis.strategies as st
from hypothesis import settings

from fnlkit import checker as ck
from fnlkit import ktableau as kt
from fnlkit import lemmas as lm
from fnlkit import models as md
from fnlkit import proofs as pf
from fnlkit import sampling as smp
from fnlkit import syntax as sx
from fnlkit import transform as tr
from fnlkit.errors import ModelError, ParseError, ValidationError
from fnlkit import systems as sy
from fnlkit.systems import allowed_rules

# several property tests drive search or cold caches; wall-clock deadlines
# would only add flakiness
settings.register_profile("fnlkit", deadline=None)
settings.load_profile("fnlkit")

atom_names = st.sampled_from(["p", "q", "r", "s_1"])

modal_formulas = st.recursive(
    st.one_of(atom_names.map(sx.MAtom), st.just(sx.MBot())),
    lambda kids: st.one_of(
        st.builds(sx.MAnd, kids, kids),
        st.builds(sx.MOr, kids, kids),
        st.builds(sx.MImp, kids, kids),
        st.builds(sx.MNot, kids),
        st.builds(sx.MDia, kids),
    ),
    max_leaves=12,
)



def _wrap_box(a: sx.ModalFormula, b: sx.ModalFormula) -> sx.ModalFormula:
    return sx.MImp(sx.mbox(a), b)


def _wrap_dia(a: sx.ModalFormula, b: sx.ModalFormula) -> sx.ModalFormula:
    return sx.MDia(sx.MAnd(a, b))


_small_modal = modal_formulas.filter(lambda f: sx.lsize(f) <= 25)
# each join adds at most 4 symbols (a box is 3: ~<>~)
_joins = st.sampled_from([sx.MAnd, sx.MOr, sx.MImp, _wrap_box, _wrap_dia])


@st.composite
def large_modal_formulas(draw) -> sx.ModalFormula:
    """Modal formulas of 30 to 60 symbols (`sx.lsize`), where the median
    `modal_formulas` draw has 3: small draws joined by connectives, some
    under a box or a diamond, until the size reaches a drawn target.
    Their chain problems have hundreds of assumptions."""
    target, f = draw(st.integers(30, 60)), draw(_small_modal)
    while sx.lsize(f) < target:
        g = draw(_small_modal)
        if sx.lsize(f) + sx.lsize(g) + 4 > 60:
            g = sx.MAtom(draw(atom_names))
        f = draw(_joins)(f, g)
    return f


_l_leaves = st.one_of(
    atom_names.map(sx.LAtom),
    st.sampled_from([sx.BOT, sx.TOP, sx.ONE, sx.P_BOT, sx.P_TOP]),
    atom_names.map(lambda n: sx.fresh_for(sx.LAtom(n))),
)

lambek_formulas = st.recursive(
    _l_leaves,
    lambda kids: st.one_of(
        st.builds(sx.LAnd, kids, kids),
        st.builds(sx.LOr, kids, kids),
        st.builds(sx.LNot, kids),
        st.builds(sx.LProd, kids, kids),
        st.builds(sx.LUnder, kids, kids),
        st.builds(sx.LOver, kids, kids),
        st.builds(sx.LDia, kids),
        st.builds(sx.LBoxDown, kids),
        st.builds(lambda a: sx.fresh_for(a), kids),
    ),
    max_leaves=10,
)

struct_trees = st.recursive(
    lambek_formulas.map(sx.SLeaf),
    lambda kids: st.one_of(st.builds(sx.SNode, kids, kids), st.builds(sx.SBracket, kids)),
    max_leaves=6,
)

sequents = st.builds(
    sx.Sequent, st.one_of(st.none(), struct_trees), lambek_formulas
)


def ternary_stream(seed: int, max_states: int, atoms: tuple[str, ...], **kw):
    """Endless seeded ternary samples; equal seeds give equal streams."""
    rng = random.Random(seed)
    while True:
        yield smp.sample_ternary(rng, max_states, atoms, **kw)


TERNARY_EXHAUSTIVE_CAP = 2
KRIPKE_EXHAUSTIVE_CAP = 3


def all_ternary(n_states: int, atoms: tuple[str, ...]):
    """Every ternary model on n_states states over the atoms, one by one,
    in the order of the bit-parallel kernel in `sampling`, which it is the
    reference for."""
    if n_states > TERNARY_EXHAUSTIVE_CAP:
        raise ModelError(f"exhaustive cap is {TERNARY_EXHAUSTIVE_CAP} states")
    ws = smp._names(n_states)
    triples = tuple(itertools.product(ws, ws, ws))
    for rel in smp._subsets(triples):
        for vals in itertools.product(*(smp._subsets(ws) for _ in atoms)):
            val = {a: frozenset(v) for a, v in zip(atoms, vals)}
            yield md.TernaryModel(ws, frozenset(rel), val)


def all_kripke(n_states: int, atoms: tuple[str, ...]):
    """Every Kripke model on n_states states over the atoms."""
    if n_states > KRIPKE_EXHAUSTIVE_CAP:
        raise ModelError(f"exhaustive cap is {KRIPKE_EXHAUSTIVE_CAP} states")
    ws = smp._names(n_states)
    pairs = tuple(itertools.product(ws, ws))
    for rel in smp._subsets(pairs):
        for vals in itertools.product(*(smp._subsets(ws) for _ in atoms)):
            val = {a: frozenset(v) for a, v in zip(atoms, vals)}
            yield md.KripkeModel(ws, frozenset(rel), val)


def sample_kripke(rng: random.Random, max_states: int, atoms: tuple[str, ...]) -> md.KripkeModel:
    """One seeded Kripke model of 1 to max_states states."""
    n = rng.randint(1, max_states)
    ws = smp._names(n)
    p = rng.choice([0.15, 0.3, 0.5, 0.8])
    rel = smp._rand_subset(rng, tuple(itertools.product(ws, ws)), p)
    val = {a: smp._rand_subset(rng, ws, 0.5) for a in atoms}
    return md.KripkeModel(ws, rel, val)


def eval_lambek_reference(j: md.TernaryModel, u: str, a: sx.LFormula) -> bool:
    """Truth of a at state u of j, one state at a time and with no memo:
    the reference for `models.extension`.  `one` without a unit and a
    modal operator without dia raise only when reached."""
    ev = functools.partial(eval_lambek_reference, j)
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
            raise ModelError(md.NO_UNIT)
        return u == j.unit
    if isinstance(a, sx.LAnd):
        return ev(u, a.l) and ev(u, a.r)
    if isinstance(a, sx.LOr):
        return ev(u, a.l) or ev(u, a.r)
    if isinstance(a, sx.LNot):
        return not ev(u, a.a)
    if isinstance(a, sx.LProd):
        return any(ev(v, a.l) and ev(w, a.r) for (x, v, w) in j.rel3 if x == u)
    if isinstance(a, sx.LUnder):
        # whenever u is the right part, l at the left part forces r at the product
        return all((not ev(w, a.l)) or ev(v, a.r) for (v, w, x) in j.rel3 if x == u)
    if isinstance(a, sx.LOver):
        # whenever u is the left part, r at the right part forces l at the product
        return all((not ev(v, a.r)) or ev(w, a.l) for (w, x, v) in j.rel3 if x == u)
    if j.dia is None:
        raise ModelError(md.NO_DIA)
    if isinstance(a, sx.LDia):
        return any(ev(v, a.a) for (x, v) in j.dia if x == u)
    return all(ev(v, a.a) for (v, x) in j.dia if x == u)


def sequent_true_reference(j: md.TernaryModel, u: str, s: sx.Sequent) -> bool:
    """The reference for `models.sequent_true`: an empty antecedent reads
    as plain truth of the succedent."""
    if s.ant is not None and not eval_lambek_reference(j, u, sx.phi_of_tree(s.ant)):
        return True
    return eval_lambek_reference(j, u, s.suc)


def eval_modal_reference(m: md.KripkeModel, w: str, a: sx.ModalFormula) -> bool:
    """Truth of a at state w of m, one state at a time and with no memo:
    the reference for `models.extension` on a Kripke model."""
    if isinstance(a, sx.MAtom):
        return w in m.val.get(a.name, frozenset())
    if isinstance(a, sx.MBot):
        return False
    if isinstance(a, sx.MAnd):
        return eval_modal_reference(m, w, a.l) and eval_modal_reference(m, w, a.r)
    if isinstance(a, sx.MOr):
        return eval_modal_reference(m, w, a.l) or eval_modal_reference(m, w, a.r)
    if isinstance(a, sx.MImp):
        return (not eval_modal_reference(m, w, a.l)) or eval_modal_reference(m, w, a.r)
    if isinstance(a, sx.MNot):
        return not eval_modal_reference(m, w, a.a)
    return any(eval_modal_reference(m, u, a.a) for (x, u) in m.rel if x == w)


def k_satisfiable(a: sx.ModalFormula):
    """A Kripke model and state satisfying the formula, or None."""
    hit = kt._sat(frozenset({kt._nnf(a, True)}), {})
    if hit is None:
        return None
    model, root = kt._to_kripke(hit, sx.matoms(a))
    assert md.eval_modal(model, root, a), "open branch failed to satisfy the input"
    return model, root


def closure_contains(spec: sx.ClosureSpec, f: sx.LFormula) -> bool:
    """Membership test; the closure itself is infinite, so no enumeration."""
    if f in spec.base:
        return True
    if isinstance(f, (sx.LAnd, sx.LOr)):
        return closure_contains(spec, f.l) and closure_contains(spec, f.r)
    if isinstance(f, sx.LNot) and spec.mode == "and_or_not":
        return closure_contains(spec, f.a)
    return False


def post_order_reference(d: pf.Derivation) -> list[pf.Derivation]:
    """Every node of d once, by identity, each after its premises, left to
    right: the recursive definition that `proofs.post_order` walks with a
    stack."""
    out: list[pf.Derivation] = []
    seen: set[int] = set()

    def visit(n: pf.Derivation):
        if id(n) not in seen:
            seen.add(id(n))
            for x in n.premises:
                visit(x)
            out.append(n)

    visit(d)
    return out


def validate_reference(sys, s: sx.Sequent):
    """systems.validate_sequent without its one-leaf shortcut: the whole
    sequent's vocabulary is collected by a walk."""
    if s.ant is None and not sys.allow_empty_antecedent:
        raise ValidationError(f"{sys.name} does not allow empty antecedents")
    bad = sx.vocab(s) & ~sys.vocab
    for bit, what in sy._MISFITS:
        if bad & bit:
            raise ValidationError(f"{sys.name} has no {what}")


def _leaf_formula(t) -> Optional[sx.LFormula]:
    return t.f if isinstance(t, sx.SLeaf) else None


# whether an axiom's conclusion c (with x, the subtree at the recorded
# position) fits: the conclusion the axiom would have, built from the
# fields it is read off, compared by value
AXIOM_REFERENCE = {
    pf.ID: lambda c, x: c == sx.Sequent(sx.SLeaf(c.suc), c.suc),
    pf.DIST: lambda c, x: (
        isinstance(f := _leaf_formula(c.ant), sx.LAnd) and isinstance(f.r, sx.LOr)
        and c.suc == sx.LOr(sx.LAnd(f.l, f.r.l), sx.LAnd(f.l, f.r.r))),
    pf.BOT_AX: lambda c, x: x == sx.SLeaf(sx.BOT),
    pf.TOP_AX: lambda c, x: c.suc == sx.TOP,
    pf.NEG1: lambda c, x: (
        isinstance(f := _leaf_formula(c.ant), sx.LAnd)
        and c == sx.Sequent(sx.SLeaf(sx.LAnd(f.l, sx.LNot(f.l))), sx.BOT)),
    pf.NEG2: lambda c, x: (
        isinstance(c.suc, sx.LOr)
        and c == sx.Sequent(sx.SLeaf(sx.TOP), sx.LOr(c.suc.l, sx.LNot(c.suc.l)))),
    pf.AX_T: lambda c, x: (f := _leaf_formula(c.ant)) is not None and c.suc == sx.LDia(f),
    pf.AX_4: lambda c, x: (
        isinstance(c.suc, sx.LDia) and c.ant == sx.SLeaf(sx.LDia(sx.LDia(c.suc.a)))),
    pf.AX_5: lambda c, x: (
        isinstance(f := _leaf_formula(c.ant), sx.LDia)
        and c.suc == sx.LNot(sx.LDia(sx.LNot(sx.LDia(f.a))))),
    pf.ONE_R: lambda c, x: c == sx.Sequent(None, sx.ONE),
}


def demanded_reference(c: sx.Sequent, path: pf.Path, w) -> sx.Sequent:
    """The premise sequent a `checker._RULES` demand stands for: a plain
    (antecedent, succedent) pair, or the conclusion with a new subtree at
    the recorded path, given as a tree or as a leaf's formula."""
    if isinstance(w, tuple):
        return sx.Sequent(*w)
    if isinstance(w, sx.LFormula):
        w = sx.SLeaf(w)
    return sx.Sequent(pf.tree_replace(c.ant, path, w), c.suc)


def check_reference(sys, phi, d: pf.Derivation, trail: list) -> bool:
    """checker.check_derivation without its leaf-mask shortcut or its
    in-place tests: validate_reference on every node, every field the rule
    does not read looked up by name, an axiom's conclusion built and
    compared by AXIOM_REFERENCE, and each demanded premise built as a
    sequent and compared by value."""
    phi = frozenset(phi)

    def fail(node, msg):
        trail.append(f"{node.rule} at {sx.render_sequent(node.seq)}: {msg}")
        return False

    for node in pf.post_order(d):
        c, prems = node.seq, node.premises
        if node.rule not in allowed_rules(sys):
            return fail(node, "rule not available in this system")
        try:
            validate_reference(sys, c)
        except ValidationError as e:
            return fail(node, f"ill-formed sequent ({e})")
        arity, reads_path, reads_idx, premises_of = ck._RULES[node.rule]
        if len(prems) != arity:
            return fail(node, "wrong number of premises")
        for k, reads in (("path", reads_path), ("idx", reads_idx)):
            if not reads and getattr(node, k) is not None:
                return fail(node, f"records {k}, which the rule does not read")
        x = None
        if node.path is not None:
            try:
                x = pf.tree_at(c.ant, node.path)
            except (TypeError, ValueError):
                pass
        want = premises_of(c, node, x, prems, phi)
        fits = AXIOM_REFERENCE.get(node.rule)
        if fits is not None and fits(c, x) != (want == ()):
            return fail(node, "the reference and the checker disagree on the axiom's shape")
        if isinstance(want, str):
            return fail(node, want)
        for k, w in enumerate(want):
            w = demanded_reference(c, node.path, w)
            if prems[k].seq != w:
                return fail(node, f"premise {k + 1} is not {sx.render_sequent(w)}")
    return True


def formulas_of(d: pf.Derivation) -> frozenset[sx.LFormula]:
    out: set[sx.LFormula] = set()
    for n in pf.post_order(d):
        out.update(sx.sequent_formulas(n.seq))
    return frozenset(out)


def assumptions_of(d: pf.Derivation) -> frozenset[sx.Sequent]:
    """The assumption members a derivation actually leans on."""
    return frozenset(n.seq for n in pf.post_order(d) if n.rule == pf.ASSUMPTION)


def walk(f: sx.LFormula):
    """Every subformula occurrence of f, repeats and all, payloads not
    entered: the plain walk the one-walk collectors in `syntax` are checked
    against."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        if isinstance(g, sx._Unary):
            stack.append(g.a)
        elif isinstance(g, sx._Binary):
            stack.append(g.l)
            stack.append(g.r)


# every term class and its fields in declaration order, spelled out here
# rather than read from the classes: the reference for `syntax`'s terms,
# which must compare and print as frozen dataclasses of these fields
TERM_FIELDS = {
    **dict.fromkeys((sx.MAtom, sx.LAtom), ("name",)),
    **dict.fromkeys((sx.MBot, sx.LBot, sx.LTop, sx.LOne), ()),
    **dict.fromkeys((sx.MNot, sx.MDia, sx.LNot, sx.LDia, sx.LBoxDown, sx.SBracket), ("a",)),
    **dict.fromkeys((sx.MAnd, sx.MOr, sx.MImp, sx.LAnd, sx.LOr, sx.LProd, sx.LUnder,
                     sx.LOver, sx.SNode), ("l", "r")),
    sx.LFresh: ("mark", "of"),
    sx.SLeaf: ("f",),
    sx.Sequent: ("ant", "suc"),
}


def term_values(x) -> tuple:
    """The field values of term x, in declaration order."""
    return tuple(getattr(x, n) for n in TERM_FIELDS[type(x)])


# every term class's tag, spelled out as TERM_FIELDS is: the first item of
# the tuple a term hashes
TERM_TAGS = {
    sx.MAtom: 1, sx.MBot: 2, sx.MAnd: 3, sx.MOr: 4, sx.MImp: 5, sx.MNot: 6, sx.MDia: 7,
    sx.LAtom: 8, sx.LFresh: 9, sx.LBot: 10, sx.LTop: 11, sx.LOne: 12, sx.LAnd: 13,
    sx.LOr: 14, sx.LNot: 15, sx.LProd: 16, sx.LUnder: 17, sx.LOver: 18, sx.LDia: 19,
    sx.LBoxDown: 20, sx.SLeaf: 21, sx.SNode: 22, sx.SBracket: 23, sx.Sequent: 24,
}


def term_hash(x) -> int:
    """The hash term x must have: the hash of its class's tag followed by
    its field values, each child term counted as its own hash (an int) and
    an absent child (None) as `sx.NONE_HASH`."""
    return hash((TERM_TAGS[type(x)],
                 *(sx.NONE_HASH if v is None else hash(v) if type(v) in TERM_FIELDS else v
                   for v in term_values(x))))


def terms_equal(x, y) -> bool:
    """Structural equality by a walk: the same class at every position,
    and equal names and marks."""
    stack = [(x, y)]
    while stack:
        a, b = stack.pop()
        if type(a) is not type(b):
            return False
        if type(a) in TERM_FIELDS:
            stack.extend(zip(term_values(a), term_values(b)))
        elif a != b:
            return False
    return True


def term_repr(x) -> str:
    """What a frozen dataclass's repr prints for term x."""
    if type(x) not in TERM_FIELDS:
        return repr(x)
    args = (f"{n}={term_repr(v)}" for n, v in zip(TERM_FIELDS[type(x)], term_values(x)))
    return f"{type(x).__name__}({', '.join(args)})"


def letters_through_payloads(goal: sx.Sequent, phi) -> set:
    """The generated letters of a problem, and of their payloads in turn,
    by a walk of every formula of every member, repeats and all: the
    reference for `sampling._generated_letters`."""
    letters: set = set()
    todo = [f for s in (goal, *phi) for f in sx.sequent_formulas(s)]
    while todo:
        for g in walk(todo.pop()):
            if isinstance(g, sx.LFresh) and g.mark == "neg" and g not in letters:
                letters.add(g)
                todo.append(g.of)
    return letters


def _table_split(f: sx.LFormula) -> tuple[list, tuple]:
    """The entry of f without its children's indices, and its children."""
    cls = type(f)
    if cls in pf._CHILDREN:
        return [sx.L_TAGS[cls]], tuple(getattr(f, k) for k in pf._CHILDREN[cls])
    if cls is sx.LAtom:
        return ["atom", f.name], ()
    if cls is sx.LFresh:
        return ["fresh", f.mark], () if f.of is None else (f.of,)
    return ["const", pf._CONST_NAMES[cls]], ()


def reference_table(d: pf.Derivation) -> dict:
    """The format-3 table of d as lists and dicts, built entry by entry:
    the reference for `proofs.table_text`, which writes its text in one
    pass."""
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
            head, kids = _table_split(g)
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
    for n in pf.post_order(d):
        j = {
            "rule": n.rule,
            "seq": sequent(n.seq),
            "premises": [n_at[id(p)] for p in n.premises],
        }
        inst = {}
        if n.path is not None:
            inst["path"] = list(n.path)
        if n.idx is not None:
            inst["idx"] = n.idx
        if inst:
            j["inst"] = inst
        n_at[id(n)] = len(nodes)
        nodes.append(j)
    return {"format": pf.FORMAT, "formulas": formulas, "sequents": sequents, "nodes": nodes}


# ---------------------------------------------------------------------------
# the tokenizer's reference


@dataclass
class RefTok:
    kind: str
    text: str
    pos: int
    end: int = 0  # a fresh letter's: the offset of its closing brace


# longest first so /\ beats /, <> beats <, etc.
_REF_SYMBOLS = sorted([
    ("->", "IMP"), ("\\/", "OR"), ("/\\", "AND"), ("\\", "UNDER"), ("/", "OVER"),
    ("*", "STAR"), ("~", "NOT"), ("<>", "DIA"), ("[v]", "BOXDOWN"),
    ("=>", "SEQ"), ("[]", "BOX"), ("(", "LP"), (")", "RP"), ("<", "LT"), (">", "GT"),
], key=lambda sym: -len(sym[0]))
_REF_RESERVED = {"o": "O", "bot": "BOT", "top": "TOP", "one": "ONE", "p_bot": "PBOT",
                 "p_top": "PTOP"}


def tokenize_reference(text: str) -> list[RefTok]:
    """`syntax._tokenize` as it was before it read the text through one
    compiled pattern: a walk one character at a time that tries each symbol
    with `startswith`.  A fresh letter's token records the offset of its
    closing brace; `shown_reference` gives the text an error quotes."""
    toks = []
    opened = []  # the FRESH tokens (or bare braces) still open
    bad = None  # the first bad character inside a letter
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        m = sx._ATOM_RE.match(text, i)
        if m:
            name = m.group(0)
            j = m.end()
            if name == "p" and j < n and text[j] == "{":
                opened.append(RefTok("FRESH", "p{", i))
                toks.append(opened[-1])
                i = j + 1
                continue
            kind = _REF_RESERVED.get(name, "ATOM")
            toks.append(RefTok(kind, name, i))
            i = j
            continue
        if c == "}" and opened:
            t = opened.pop()
            if t is not None:
                t.end = i
                toks.append(RefTok("RBRACE", "", i))
            i += 1
            continue
        for sym, kind in _REF_SYMBOLS:
            if text.startswith(sym, i):
                toks.append(RefTok(kind, sym, i))
                i += len(sym)
                break
        else:
            if not opened:
                raise ParseError(f"unexpected character {c!r}", i)
            if bad is None:
                bad = ParseError(f"unexpected character {c!r}", i)
            if c == "{":
                opened.append(None)
            i += 1
    if opened:
        raise ParseError("unterminated fresh letter", opened[0].pos)
    if bad:
        raise bad
    toks.append(RefTok("EOF", "", n))
    return toks


def shown_reference(text: str, t: RefTok) -> str:
    # an error quotes a fresh letter by its contents
    return text[t.pos + 2 : t.end] if t.kind == "FRESH" else t.text


class _RefParser:
    """`syntax._Parser` as it was before it read the token kinds in place:
    recursive descent over `tokenize_reference`'s tokens, each read once
    through `peek` and `take`, quoted by `shown_reference`."""

    def __init__(self, text: str, lang: str):
        self.text = text
        self.toks = tokenize_reference(text)
        self.pos = 0
        self.lang = lang
        self.infix = sx._INFIX[lang]
        self.prefix = sx._PREFIX[lang]

    def peek(self) -> RefTok:
        return self.toks[self.pos]

    def take(self) -> RefTok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str):
        t = self.peek()
        if t.kind != kind:
            raise ParseError(
                f"expected {kind}, found {shown_reference(self.text, t) or 'end of input'!r}",
                t.pos)
        self.take()

    def done(self, end: str):
        t = self.peek()
        if t.kind != end:
            raise ParseError(f"trailing input {shown_reference(self.text, t)!r}", t.pos)
        self.take()

    def fail(self, msg: str):
        raise ParseError(msg, self.peek().pos)

    def formula(self, floor: int = 1, left=None):
        if left is None:
            left = self.unary()
        op = self.infix.get(self.peek().kind)
        while op is not None and op[0] >= floor:
            prec, chains, cls = op
            self.take()
            left = cls(left, self.formula(prec if chains else prec + 1))
            t = self.peek()
            op = self.infix.get(t.kind)
            if not chains and op is not None and op[0] == prec:
                raise ParseError("slashes do not chain; parenthesize", t.pos)
        return left

    def unary(self):
        kind = self.peek().kind
        cls = self.prefix.get(kind)
        if cls is not None:
            self.take()
            return cls(self.unary())
        if kind == "BOX":
            if self.lang != "modal":
                self.fail("[] is modal syntax")
            self.take()
            return sx.mbox(self.unary())
        if kind == "BOXDOWN":
            self.fail("[v] is not modal syntax")
        return self.atom()

    def atom(self):
        t = self.take()
        if t.kind == "ATOM":
            return sx.MAtom(t.text) if self.lang == "modal" else sx.LAtom(t.text)
        f = sx._CONSTANTS[self.lang].get(t.kind)
        if f is not None:
            return f
        if t.kind == "FRESH" and self.lang == "lambek":
            f = self.formula()
            self.done("RBRACE")
            return sx.LFresh("neg", f)
        if t.kind == "LP":
            f = self.formula()
            self.expect("RP")
            return f
        raise ParseError(f"unexpected {shown_reference(self.text, t) or 'end of input'!r}",
                         t.pos)

    def tree(self):
        left = self.tree_primary()
        if self.peek().kind == "O":
            self.take()
            right = self.tree_primary()
            if self.peek().kind == "O":
                self.fail("o does not chain; parenthesize")
            return sx.SNode(left, right)
        return left

    def tree_primary(self):
        kind = self.peek().kind
        if kind == "LT":
            self.take()
            inner = self.tree()
            self.expect("GT")
            return sx.SBracket(inner)
        if kind != "LP":
            return sx.SLeaf(self.formula())
        self.take()
        inner = self.tree()
        self.expect("RP")
        if isinstance(inner, sx.SLeaf):
            return sx.SLeaf(self.formula(left=inner.f))
        return inner

    def sequent(self):
        if self.peek().kind == "SEQ":
            self.take()
            return sx.Sequent(None, self.formula())
        ant = self.tree()
        self.expect("SEQ")
        return sx.Sequent(ant, self.formula())


def parse_reference(text: str, goal: str, lang: str = "lambek"):
    """The reference for `syntax.parse_*`: goal is "formula", "tree" or
    "sequent", lang "modal" or "lambek"."""
    p = _RefParser(text, lang)
    out = getattr(p, goal)()
    p.done("EOF")
    return out


# ---------------------------------------------------------------------------
# references for the lattice and boolean provers


@functools.lru_cache(maxsize=None)
def lat_le_reference(a: sx.LFormula, b: sx.LFormula) -> Optional[pf.Derivation]:
    """`lemmas._lat` as it was before it tried a conjunct ahead of
    distributing and declined pairs by truth vector: the size reference for
    `lat_le`'s certificates."""
    if a == b:
        return lm.did(a)
    if b == sx.TOP:
        return lm.dtop(sx.SLeaf(a))
    if a == sx.BOT:
        return lm.dbot_f(b)
    if isinstance(a, sx.LOr):
        d1, d2 = lat_le_reference(a.l, b), lat_le_reference(a.r, b)
        if d1 is not None and d2 is not None:
            return lm.dor_l(d1, d2, a)
        return None
    if isinstance(a, sx.LAnd) and lm._has_or(a):
        dh, fu, fv = lm._hoist(a)
        d1, d2 = lat_le_reference(fu, b), lat_le_reference(fv, b)
        if d1 is not None and d2 is not None:
            return lm.le_trans(dh, lm.dor_l(d1, d2, sx.LOr(fu, fv)))
        return None
    if isinstance(b, sx.LAnd):
        d1, d2 = lat_le_reference(a, b.l), lat_le_reference(a, b.r)
        if d1 is not None and d2 is not None:
            return lm.dand_r(d1, d2)
        return None
    if isinstance(a, sx.LAnd):
        for idx, part in ((1, a.l), (2, a.r)):
            d = lat_le_reference(part, b)
            if d is not None:
                return lm.dand_l(d, a, idx)
    if isinstance(b, sx.LOr):
        for idx, part in ((1, b.l), (2, b.r)):
            d = lat_le_reference(a, part)
            if d is not None:
                return lm.dor_r(d, b, idx)
    return None


def _valuation_value(f: sx.LFormula, mu: dict, boolean: bool) -> bool:
    if isinstance(f, sx.LAnd):
        return _valuation_value(f.l, mu, boolean) and _valuation_value(f.r, mu, boolean)
    if isinstance(f, sx.LOr):
        return _valuation_value(f.l, mu, boolean) or _valuation_value(f.r, mu, boolean)
    if boolean and isinstance(f, sx.LNot):
        return not _valuation_value(f.a, mu, boolean)
    if f == sx.TOP:
        return True
    if f == sx.BOT:
        return False
    return mu[f]


def valuations_le(x: sx.LFormula, y: sx.LFormula, boolean: bool) -> Optional[bool]:
    """Whether every 0/1 valuation of the generators of x and y that makes
    x true makes y true, by a loop over one dict per valuation; with
    `boolean` ~ is classical, without it every ~A is a generator.  None over
    more than `lemmas.TV_GENS` generators: the reference for the truth
    vectors."""
    gens = sorted(lm.generators(y, boolean, lm.generators(x, boolean, {})), key=sx.sort_key)
    if len(gens) > lm.TV_GENS:
        return None
    for bits in range(1 << len(gens)):
        mu = {g: bool(bits >> i & 1) for i, g in enumerate(gens)}
        if _valuation_value(x, mu, boolean) and not _valuation_value(y, mu, boolean):
            return False
    return True


def random_lattice_formula(rng: random.Random, leaves: int, gens) -> sx.LFormula:
    """A /\\-\\/ formula over `leaves` leaves drawn from gens, its shape
    split at random."""
    if leaves == 1:
        return rng.choice(gens)
    k = rng.randrange(1, leaves)
    op = rng.choice((sx.LAnd, sx.LOr))
    return op(random_lattice_formula(rng, k, gens), random_lattice_formula(rng, leaves - k, gens))


# ---------------------------------------------------------------------------
# derivation builders the program does not call


def done_r() -> pf.Derivation:
    """=> one."""
    return pf.node(sx.Sequent(None, sx.ONE), pf.ONE_R)


def dax_t(a: sx.LFormula) -> pf.Derivation:
    """A => <>A."""
    return pf.node(sx.simple(a, sx.LDia(a)), pf.AX_T)


def dax_4(a: sx.LFormula) -> pf.Derivation:
    """<><>A => <>A."""
    return pf.node(sx.simple(sx.LDia(sx.LDia(a)), sx.LDia(a)), pf.AX_4)


def dax_5(a: sx.LFormula) -> pf.Derivation:
    """<>A => ~<>~<>A."""
    seq = sx.simple(sx.LDia(a), sx.LNot(sx.LDia(sx.LNot(sx.LDia(a)))))
    return pf.node(seq, pf.AX_5)


def dboxdown_l(d: pf.Derivation, path: pf.Path = ()) -> pf.Derivation:
    """From G[A] => B conclude G[< []vA >] => B."""
    ant = d.seq.ant
    x = pf.tree_at(ant, path) if ant is not None else None
    lm._fit(isinstance(x, sx.SLeaf), "no leaf at path")
    main = sx.LBoxDown(x.f)
    new = pf.tree_replace(ant, path, sx.SBracket(sx.SLeaf(main)))
    return pf.node(sx.Sequent(new, d.seq.suc), pf.BOXDOWN_L, [d], path)


def dexch(d: pf.Derivation, path: pf.Path = ()) -> pf.Derivation:
    """From G[D2 o D1] => A conclude G[D1 o D2] => A."""
    ant = d.seq.ant
    x = pf.tree_at(ant, path) if ant is not None else None
    lm._fit(isinstance(x, sx.SNode), "no node at path")
    new = pf.tree_replace(ant, path, sx.SNode(x.r, x.l))
    return pf.node(sx.Sequent(new, d.seq.suc), pf.EXCH, [d], path)


def done_l(d: pf.Derivation, path: pf.Path = (), side: str = "l") -> pf.Derivation:
    """From G[D] => A conclude G[one o D] => A (side "l") or G[D o one] => A."""
    ant = d.seq.ant
    lm._fit(ant is not None, "empty antecedent")
    sub = pf.tree_at(ant, path)
    unit = sx.SLeaf(sx.ONE)
    new_sub = sx.SNode(unit, sub) if side == "l" else sx.SNode(sub, unit)
    rule = pf.ONE_L_LEFT if side == "l" else pf.ONE_L_RIGHT
    seq = sx.Sequent(pf.tree_replace(ant, path, new_sub), d.seq.suc)
    return pf.node(seq, rule, [d], path)


def fact7(d: pf.Derivation) -> pf.Derivation:
    """From A => B conclude => ~A \\/ B."""
    a = d.seq.ant.f if isinstance(d.seq.ant, sx.SLeaf) else None
    lm._fit(a is not None, "needs a simple premise")
    na = sx.LNot(a)
    out = sx.LOr(na, d.seq.suc)
    branch = lm.dor_l(lm.dor_r(d, out, 2), lm.dor_r(lm.did(na), out, 1), sx.LOr(a, na))
    return lm.le_trans(lm.dtop(None), lm.dneg2(a), branch)


def dist_prod_or(m: sx.LFormula, x: sx.LFormula, y: sx.LFormula) -> pf.Derivation:
    """M * (X \\/ Y) => (M * X) \\/ (M * Y)."""
    out = sx.LOr(sx.LProd(m, x), sx.LProd(m, y))
    left = lm.dor_r(lm.dprod_r(lm.did(m), lm.did(x)), out, 1)
    right = lm.dor_r(lm.dprod_r(lm.did(m), lm.did(y)), out, 2)
    return lm.dprod_l(lm.dor_l(left, right, sx.LOr(x, y), path=(1,)))


def undist_prod_or(m: sx.LFormula, x: sx.LFormula, y: sx.LFormula) -> pf.Derivation:
    """(M * X) \\/ (M * Y) => M * (X \\/ Y)."""
    xy = sx.LOr(x, y)
    left = lm.prod_mono(lm.did(m), lm.dor_r(lm.did(x), xy, 1))
    right = lm.prod_mono(lm.did(m), lm.dor_r(lm.did(y), xy, 2))
    return lm.dor_l(left, right, sx.LOr(sx.LProd(m, x), sx.LProd(m, y)))


def negrewrite_derivation(d: pf.Derivation) -> pf.Derivation:
    """The mechanical letter-to-negation rewrite of a whole derivation.
    Assumptions whose rewrite is a negation axiom instance become that
    axiom, so companion members disappear from the assumption footprint."""
    memo: dict = {}

    def step(n: pf.Derivation, prems):
        s = tr.negrewrite_sequent(n.seq, memo)
        if n.rule == pf.ASSUMPTION:
            ax = tr.neg_axiom(s)
            if ax is not None:
                return ax
        return pf.node(s, n.rule, prems, n.path, n.idx)

    return tr._map_derivation(d, step)


@dataclass(frozen=True)
class Fact:
    """One corpus entry: derive the premises first, then the conclusion."""

    label: str
    conclusion: sx.Sequent
    premises: tuple[sx.Sequent, ...] = ()


def facts_corpus() -> tuple[Fact, ...]:
    s = sx.parse_sequent
    cond = ("p /\\ q => p \\/ q",)
    pair8 = ("p => ~~p", "~~p => p")
    return (
        Fact("bounds-swap-a", s("~bot => top")),
        Fact("bounds-swap-b", s("top => ~bot")),
        Fact("bounds-swap-c", s("~top => bot")),
        Fact("bounds-swap-d", s("bot => ~top")),
        Fact("double-negation-a", s("p => ~~p")),
        Fact("double-negation-b", s("~~p => p")),
        Fact("de-morgan-and-a", s("~(p /\\ q) => ~p \\/ ~q")),
        Fact("de-morgan-and-b", s("~p \\/ ~q => ~(p /\\ q)")),
        Fact("de-morgan-or-a", s("~(p \\/ q) => ~p /\\ ~q")),
        Fact("de-morgan-or-b", s("~p /\\ ~q => ~(p \\/ q)")),
        Fact("distribute-and-a", s("p /\\ (q \\/ r) => (p /\\ q) \\/ (p /\\ r)")),
        Fact("distribute-and-b", s("(p /\\ q) \\/ (p /\\ r) => p /\\ (q \\/ r)")),
        Fact("distribute-or-a", s("p \\/ (q /\\ r) => (p \\/ q) /\\ (p \\/ r)")),
        Fact("distribute-or-b", s("(p \\/ q) /\\ (p \\/ r) => p \\/ (q /\\ r)")),
        Fact("distribute-prod-a", s("m * (p \\/ q) => (m * p) \\/ (m * q)")),
        Fact("distribute-prod-b", s("(m * p) \\/ (m * q) => m * (p \\/ q)")),
        Fact(
            "negation-antitone",
            s("~(p \\/ q) => ~(p /\\ q)"),
            tuple(s(t) for t in cond),
        ),
        Fact(
            "entails-as-theorem",
            s("=> ~(p /\\ q) \\/ (p \\/ q)"),
            tuple(s(t) for t in cond),
        ),
        Fact(
            "congruence-a",
            s("~(p * (p \\ q)) => ~(~~p * (~~p \\ q))"),
            tuple(s(t) for t in pair8),
        ),
        Fact(
            "congruence-b",
            s("~(~~p * (~~p \\ q)) => ~(p * (p \\ q))"),
            tuple(s(t) for t in pair8),
        ),
    )
