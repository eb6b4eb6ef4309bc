import itertools
import os
import random
import subprocess
import sys
from dataclasses import FrozenInstanceError

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import (TERM_FIELDS, TERM_TAGS, closure_contains, lambek_formulas, modal_formulas,
                      parse_reference, sequents, shown_reference, struct_trees, term_hash,
                      term_repr, term_values, terms_equal, tokenize_reference, walk)
from fnlkit import syntax as sx
from fnlkit.errors import ParseError, ValidationError
from fnlkit.systems import SYSTEMS, validate_sequent

p, q, r = sx.LAtom("p"), sx.LAtom("q"), sx.LAtom("r")


# ---------------------------------------------------------------------------
# parsing


def test_parse_modal_basics():
    assert sx.parse_modal("<>p") == sx.MDia(sx.MAtom("p"))
    assert sx.parse_modal("~p \\/ q") == sx.MOr(sx.MNot(sx.MAtom("p")), sx.MAtom("q"))
    # box is sugar, there is no box constructor
    assert sx.parse_modal("[]p") == sx.MNot(sx.MDia(sx.MNot(sx.MAtom("p"))))
    assert sx.parse_modal("bot") == sx.MBot()


def test_parse_modal_precedence():
    f = sx.parse_modal("p -> q \\/ r /\\ p")
    assert f == sx.MImp(sx.MAtom("p"), sx.MOr(sx.MAtom("q"), sx.MAnd(sx.MAtom("r"), sx.MAtom("p"))))
    # binary connectives associate to the right
    assert sx.parse_modal("p -> q -> p") == sx.MImp(sx.MAtom("p"), sx.MImp(sx.MAtom("q"), sx.MAtom("p")))


def test_parse_lambek_basics():
    assert sx.parse_lambek("m * p") == sx.LProd(sx.LAtom("m"), p)
    assert sx.parse_lambek("top") == sx.TOP
    assert sx.parse_lambek("one") == sx.ONE
    assert sx.parse_lambek("p \\ q") == sx.LUnder(p, q)
    assert sx.parse_lambek("p / q") == sx.LOver(p, q)
    assert sx.parse_lambek("[v]p") == sx.LBoxDown(p)
    assert sx.parse_lambek("~p * q") == sx.LProd(sx.LNot(p), q)


def test_parse_fresh_letters():
    assert sx.parse_lambek("p_bot") == sx.P_BOT
    assert sx.parse_lambek("p_top") == sx.P_TOP
    assert sx.parse_lambek("p{q}") == sx.fresh_for(q)
    nested = sx.parse_lambek("p{p * p{q}}")
    assert nested == sx.fresh_for(sx.LProd(p, sx.fresh_for(q)))


def test_parse_sequents_and_trees():
    s = sx.parse_sequent("(p o q) => p * q")
    assert s == sx.Sequent(sx.SNode(sx.SLeaf(p), sx.SLeaf(q)), sx.LProd(p, q))
    assert sx.parse_sequent("=> top") == sx.Sequent(None, sx.TOP)
    t = sx.parse_tree("< p o q > o r")
    assert t == sx.SNode(sx.SBracket(sx.SNode(sx.SLeaf(p), sx.SLeaf(q))), sx.SLeaf(r))
    # a parenthesized formula is still a leaf
    assert sx.parse_tree("(p \\/ q) * r") == sx.SLeaf(sx.LProd(sx.LOr(p, q), r))


def test_parse_errors():
    for bad in [
        "p \\ q \\ r",  # slashes do not chain
        "p / q \\ r",
        "p }",
        "p{q",  # unterminated fresh letter
        "p * ",
        "(p",
        "p q",
    ]:
        with pytest.raises(ParseError):
            sx.parse_lambek(bad)
    with pytest.raises(ParseError):
        sx.parse_tree("p o q o r")  # o does not chain
    with pytest.raises(ParseError):
        sx.parse_modal("[v]p")  # not modal syntax
    with pytest.raises(ParseError):
        sx.parse_modal("p * q")
    with pytest.raises(ParseError):
        sx.parse_lambek("[]p")  # box sugar is modal-only
    with pytest.raises(ParseError):
        sx.parse_lambek("p -> q")


@pytest.mark.parametrize("text, pos", [
    ("qqqqqqqqqq => p{r * }", 20),
    ("p{} => p", 2),
    ("p{p{q *}} => q", 7),  # nested: an offset into the whole input
    ("q * p{p{r} & s} => q", 11),
    ("p{q} => p{r }} ", 13),
])
def test_parse_error_offsets_inside_fresh_letters_are_into_the_input(text, pos):
    with pytest.raises(ParseError) as e:
        sx.parse_sequent(text)
    assert e.value.pos == pos
    assert str(e.value).endswith(f"(at offset {pos})")


def test_nested_fresh_letters_are_tokenized_once(monkeypatch):
    # a letter's contents are parsed from the input's one token list, not
    # tokenized again per nesting level
    calls = []
    tokenize = sx._tokenize
    monkeypatch.setattr(sx, "_tokenize", lambda *a: calls.append(a) or tokenize(*a))
    letter = sx.fresh_for(sx.fresh_for(sx.fresh_for(q)))
    assert sx.parse_sequent("p{p{p{q}}} => q") == sx.simple(letter, q)
    assert len(calls) == 1


def test_nested_parentheses_read_each_token_once(monkeypatch):
    # a "(" that opens a subtree is read once, not first as a formula and
    # then again as a tree, so deep nesting parses in linear time: the
    # parser's position moves one token at a time and never back, and it
    # stops on the end of input
    text = "(" * 200 + "p o q" + ")" * 200 + " => q"
    moves = []
    at = {}

    def move(self, pos):
        moves.append(pos)
        at["pos"] = pos

    monkeypatch.setattr(sx._Parser, "pos", property(lambda self: at["pos"], move))
    assert sx.parse_sequent(text) == sx.Sequent(sx.SNode(sx.SLeaf(p), sx.SLeaf(q)), q)
    assert moves == list(range(406))
    assert len(sx._tokenize(text)[1]) == 406  # its last token is the end of input


def _balanced(depth: int) -> str:
    # 2^depth negated letters under a balanced nest of parentheses
    if depth == 0:
        return "~p"
    return f"({_balanced(depth - 1)} \\/ {_balanced(depth - 1)})"


_LONG = _balanced(11) + " => (q *)"  # 10,243 tokens, the last one wrong


@pytest.mark.parametrize("text, pos", [
    ("((p /\\ q) /\\ (q *)) => q", 17),
    ("(p) * => q", 6),
    pytest.param(_LONG, len(_LONG) - 1, id="long"),
])
def test_an_error_inside_a_parenthesis_is_reported_where_it_is(text, pos):
    with pytest.raises(ParseError) as e:
        sx.parse_sequent(text)
    assert e.value.pos == pos


# every symbol and keyword, letters, bare braces, whitespace that the walk
# skipped by `str.isspace`, and characters that start no token
_TOKEN_ALPHABET = [
    "->", "\\/", "/\\", "\\", "/", "*", "~", "<>", "[v]", "=>", "[]", "(", ")", "<", ">",
    "o", "bot", "top", "one", "p_bot", "p_top", "p", "q", "r_1", "pq", "p{", "}",
    " ", "\t", "\n", "\x1c",
    "{", "&", "P", "é", "-", "=", "[", "]",
]
_BAD_CHARS = 8  # the last entries: no token starts with one


def _reference_tokens(text: str):
    try:
        return [(t.kind, shown_reference(text, t), t.pos) for t in tokenize_reference(text)]
    except ParseError as e:
        return str(e), e.pos


def _tokens(text: str):
    # each token's kind, the text an error quotes for it, and its offset
    try:
        offsets = sx._offsets(text)
    except ParseError as e:
        return str(e), e.pos
    parser = sx._Parser(text, "lambek")
    assert len(offsets) == len(parser.kinds)
    return [(kind, parser.quote(i, offsets), offsets[i]) for i, kind in enumerate(parser.kinds)]


def test_the_tokenizer_matches_the_character_walk():
    # the compiled pattern gives the reference walk's kinds and offsets,
    # the parser quotes each token as the walk's tokens were quoted (a
    # fresh letter by its contents), and the errors agree, message and
    # offset
    rng = random.Random(31)
    good = _TOKEN_ALPHABET[:-_BAD_CHARS]
    read = 0
    for _ in range(20000):
        text = "".join(rng.choice(_TOKEN_ALPHABET if rng.random() < 0.15 else good)
                       for _ in range(rng.randrange(1, 14)))
        got = _tokens(text)
        assert got == _reference_tokens(text), text
        read += isinstance(got, list)
    assert 5000 < read < 15000


@pytest.mark.parametrize("text, want", [
    # nested letters, each quoted by its contents
    ("p{p{q} * r} => q", [
        ("FRESH", "p{q} * r", 0), ("FRESH", "q", 2), ("ATOM", "q", 4), ("RBRACE", "", 5),
        ("STAR", "*", 7), ("ATOM", "r", 9), ("RBRACE", "", 10), ("SEQ", "=>", 12),
        ("ATOM", "q", 15), ("EOF", "", 16)]),
    # a bad character inside a letter is reported once every letter is
    # closed, and a bare brace there counts towards the matching
    ("p{q & {r}} => q", ("unexpected character '&' (at offset 4)", 4)),
    ("p{q & {r} => q", ("unterminated fresh letter (at offset 0)", 0)),
    # a closing brace outside any letter is a bad character
    ("p{q}} => q", ("unexpected character '}' (at offset 4)", 4)),
])
def test_pinned_token_lists(text, want):
    assert _tokens(text) == _reference_tokens(text) == want


M = {name: sx.MAtom(name) for name in "pqr"}

# terms built by their constructors, not parsed, so that a spelling or a
# precedence that the parser and the renderer share cannot hide
_PINNED = [
    (sx.LUnder(sx.LOver(p, q), r), "(p / q) \\ r"),
    (sx.LUnder(p, sx.LOver(q, r)), "p \\ (q / r)"),
    (sx.LOver(sx.LUnder(p, q), r), "(p \\ q) / r"),
    (sx.LUnder(sx.LProd(p, q), r), "p * q \\ r"),
    (sx.LProd(sx.LUnder(p, q), r), "(p \\ q) * r"),
    (sx.LProd(sx.LOr(p, q), r), "(p \\/ q) * r"),
    (sx.LProd(p, sx.LProd(q, r)), "p * q * r"),
    (sx.LAnd(p, sx.LAnd(q, r)), "p /\\ q /\\ r"),
    (sx.LAnd(sx.LAnd(p, q), r), "(p /\\ q) /\\ r"),
    (sx.LOr(sx.LAnd(p, q), sx.LNot(r)), "p /\\ q \\/ ~r"),
    (sx.LAnd(sx.LOr(p, q), r), "(p \\/ q) /\\ r"),
    (sx.LNot(sx.LDia(sx.LBoxDown(p))), "~<>[v]p"),
    (sx.LBoxDown(sx.LProd(p, q)), "[v](p * q)"),
    (sx.fresh_for(sx.LOr(p, q)), "p{p \\/ q}"),
    (sx.LAnd(sx.P_BOT, sx.LOr(sx.P_TOP, sx.ONE)), "p_bot /\\ (p_top \\/ one)"),
    (sx.LNot(sx.LAnd(sx.TOP, sx.BOT)), "~(top /\\ bot)"),
    (sx.MImp(sx.MImp(M["p"], M["q"]), M["r"]), "(p -> q) -> r"),
    (sx.MImp(M["p"], sx.MImp(M["q"], M["r"])), "p -> q -> r"),
    (sx.MOr(sx.MImp(M["p"], M["q"]), M["r"]), "(p -> q) \\/ r"),
    (sx.mbox(M["p"]), "~<>~p"),
    (sx.MAnd(sx.MOr(sx.MDia(M["p"]), sx.MBot()), sx.MNot(M["q"])), "(<>p \\/ bot) /\\ ~q"),
    (sx.MDia(sx.MAnd(M["p"], M["q"])), "<>(p /\\ q)"),
]


@pytest.mark.parametrize("f, text", _PINNED, ids=[text for _, text in _PINNED])
def test_rendered_text_is_pinned(f, text):
    if isinstance(f, sx.ModalFormula):
        assert sx.render_modal(f) == text
        assert sx.parse_modal(text) == f
    else:
        assert sx.render_lambek(f) == text
        assert sx.parse_lambek(text) == f


def test_rendered_trees_and_sequents_are_pinned():
    leaf = sx.SLeaf(sx.LOr(p, q))
    t = sx.SNode(sx.SNode(leaf, sx.SBracket(sx.SLeaf(sx.LProd(p, q)))), sx.SLeaf(r))
    assert sx.render_tree(t) == "(p \\/ q o < p * q >) o r"
    s = sx.Sequent(sx.SLeaf(sx.LProd(sx.LOr(p, q), r)), sx.LUnder(p, q))
    assert sx.render_sequent(s) == "(p \\/ q) * r => p \\ q"
    assert sx.render_sequent(sx.Sequent(None, sx.ONE)) == "=> one"


_M_LEAVES = [sx.MAtom("p"), sx.MAtom("q"), sx.MAtom("s_1"), sx.MBot()]
_L_LEAVES = [p, q, sx.LAtom("s_1"), sx.BOT, sx.TOP, sx.ONE, sx.P_BOT, sx.P_TOP]
_M_OPS = [sx.MAnd, sx.MOr, sx.MImp, sx.MNot, sx.MDia]
_L_OPS = [sx.LAnd, sx.LOr, sx.LProd, sx.LUnder, sx.LOver, sx.LNot, sx.LDia, sx.LBoxDown,
          sx.fresh_for]


def _random_formula(rng, depth, leaves, ops):
    # up to 2^depth leaves, where the hypothesis strategies stop at 10-12
    if depth == 0 or rng.random() < 0.1:
        return rng.choice(leaves)
    op = rng.choice(ops)
    if op in (sx.MNot, sx.MDia, sx.LNot, sx.LDia, sx.LBoxDown, sx.fresh_for):
        return op(_random_formula(rng, depth - 1, leaves, ops))
    return op(_random_formula(rng, depth - 1, leaves, ops),
              _random_formula(rng, depth - 1, leaves, ops))


@pytest.mark.parametrize("leaves, ops, render, parse", [
    (_M_LEAVES, _M_OPS, sx.render_modal, sx.parse_modal),
    (_L_LEAVES, _L_OPS, sx.render_lambek, sx.parse_lambek),
], ids=["modal", "lambek"])
def test_seeded_render_roundtrip_of_deep_formulas(leaves, ops, render, parse):
    rng = random.Random(6)
    for _ in range(2000):
        f = _random_formula(rng, 6, leaves, ops)
        assert parse(render(f)) == f


def _paren_tree(rng, depth):
    # trees whose leaves' text opens with "(": a disjunction as the left
    # operand of any binary connective is parenthesized
    if depth == 0 or rng.random() < 0.2:
        left = sx.LOr(*(_random_formula(rng, 2, _L_LEAVES, _L_OPS) for _ in range(2)))
        op = rng.choice([sx.LAnd, sx.LOr, sx.LProd, sx.LUnder, sx.LOver])
        return sx.SLeaf(op(left, _random_formula(rng, 2, _L_LEAVES, _L_OPS)))
    if rng.random() < 0.2:
        return sx.SBracket(_paren_tree(rng, depth - 1))
    return sx.SNode(_paren_tree(rng, depth - 1), _paren_tree(rng, depth - 1))


def test_seeded_render_roundtrip_of_trees_with_parenthesized_leaves():
    rng = random.Random(6)
    for _ in range(500):
        t = _paren_tree(rng, 4)
        assert all(sx.render_lambek(f).startswith("(") for f in sx.tree_formulas(t))
        assert sx.parse_tree(sx.render_tree(t)) == t
        s = sx.Sequent(t, _random_formula(rng, 3, _L_LEAVES, _L_OPS))
        assert sx.parse_sequent(sx.render_sequent(s)) == s


# each entry point with the goal and language the reference parses it by
_ENTRIES = [
    (sx.parse_modal, "formula", "modal"),
    (sx.parse_lambek, "formula", "lambek"),
    (sx.parse_tree, "tree", "lambek"),
    (sx.parse_sequent, "sequent", "lambek"),
]


def _outcome(parse, text):
    # the term, the error's message and offset, or too deep a nest
    try:
        return "term", parse(text)
    except ParseError as e:
        return "error", str(e), e.pos
    except RecursionError:
        return ("deep",)


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return sx.SLeaf(_random_formula(rng, 2, _L_LEAVES, _L_OPS))
    if rng.random() < 0.2:
        return sx.SBracket(_random_tree(rng, depth - 1))
    return sx.SNode(_random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


def _draw(rng) -> str:
    # alphabet pieces, bad characters included, or a rendered formula,
    # tree or sequent, half of them with one piece inserted at a character
    # offset or put in place of a word
    if rng.random() < 0.4:
        return "".join(rng.choice(_TOKEN_ALPHABET) for _ in range(rng.randrange(1, 14)))
    shape = rng.randrange(4)
    if shape == 0:
        text = sx.render_modal(_random_formula(rng, 3, _M_LEAVES, _M_OPS))
    elif shape == 1:
        text = sx.render_lambek(_random_formula(rng, 3, _L_LEAVES, _L_OPS))
    elif shape == 2:
        text = sx.render_tree(_random_tree(rng, 2))
    else:
        ant = _random_tree(rng, 2) if rng.random() < 0.8 else None
        text = sx.render_sequent(sx.Sequent(ant, _random_formula(rng, 2, _L_LEAVES, _L_OPS)))
    piece = rng.choice(_TOKEN_ALPHABET)
    edit = rng.random()
    if edit < 0.25:
        i = rng.randrange(len(text) + 1)
        text = text[:i] + piece + text[i:]
    elif edit < 0.5:
        words = text.split(" ")
        words[rng.randrange(len(words))] = piece
        text = " ".join(words)
    return text


def test_the_parser_matches_the_reference():
    # all four entry points give the reference parser's term, or its
    # error, message and offset, on seeded draws
    rng = random.Random(37)
    parsed = {parse: 0 for parse, _, _ in _ENTRIES}
    for _ in range(20000):
        text = _draw(rng)
        for parse, goal, lang in _ENTRIES:
            got = _outcome(parse, text)
            assert got == _outcome(lambda t: parse_reference(t, goal, lang), text), (text, goal)
            parsed[parse] += got[0] == "term"
    # every entry point reads terms as well as errors
    assert all(1000 < n < 10000 for n in parsed.values()), parsed


@given(modal_formulas)
def test_modal_render_roundtrip(f):
    assert sx.parse_modal(sx.render_modal(f)) == f


@given(lambek_formulas)
def test_lambek_render_roundtrip(f):
    assert sx.parse_lambek(sx.render_lambek(f)) == f


@given(struct_trees)
def test_tree_render_roundtrip(t):
    assert sx.parse_tree(sx.render_tree(t)) == t


@given(sequents)
def test_sequent_render_roundtrip(s):
    assert sx.parse_sequent(sx.render_sequent(s)) == s


# ---------------------------------------------------------------------------
# sizes and subformulas


def test_sizes():
    assert sx.lsize(p) == 0
    assert sx.lsize(sx.BOT) == 0
    assert sx.lsize(sx.fresh_for(sx.LAnd(p, q))) == 0  # fresh letters are atomic
    assert sx.lsize(sx.LProd(p, sx.LNot(q))) == 2
    assert sx.lsize(sx.parse_modal("[]p")) == 3


def test_subformulas():
    assert sx.subformulas(sx.LProd(p, q)) == {p, q, sx.LProd(p, q)}
    assert sx.subformulas(p) == {p}
    f = sx.LNot(sx.LAnd(p, sx.BOT))
    assert sx.subformulas(f) == {p, sx.BOT, sx.LAnd(p, sx.BOT), f}


@given(lambek_formulas)
def test_subformulas_idempotent(f):
    subs = sx.subformulas(f)
    for g in subs:
        assert sx.subformulas(g) <= subs


@given(sequents, st.lists(sequents, max_size=4))
def test_problem_subformulas_are_the_union_over_its_formulas(goal, phi):
    roots = [f for s in (goal, *phi) for f in sx.sequent_formulas(s)]
    got = sx.subformulas_of_problem(goal, phi)
    assert isinstance(got, frozenset)
    assert got == frozenset().union(*map(sx.subformulas, roots))
    assert got == {g for f in roots for g in walk(f)}


@given(st.lists(lambek_formulas, max_size=6))
def test_atom_keys_of_many_roots_are_the_union_of_each(fs):
    got = sx.atom_keys(*fs)
    assert isinstance(got, frozenset)
    assert got == frozenset().union(*(sx.atom_keys(f) for f in fs))
    # reference: a plain walk of each root, each letter rendered afresh
    assert got == {g.name if isinstance(g, sx.LAtom) else sx.render_lambek(g)
                   for f in fs for g in walk(f) if isinstance(g, (sx.LAtom, sx.LFresh))}


def test_atom_keys_read_a_fresh_letter_whole():
    # a letter is keyed by its rendering; its payload's letters are not its own
    f = sx.LProd(sx.fresh_for(sx.LAnd(p, sx.P_BOT)), sx.P_TOP)
    assert sx.atom_keys(f, q) == {"p{p /\\ p_bot}", "p_top", "q"}
    assert sx.atom_keys() == frozenset()


# ---------------------------------------------------------------------------
# vocabulary masks

# reference: which connectives a formula uses, by a plain walk; in the
# order the validator reports misfits, residuals (admitted everywhere) last
_REF_KINDS = [
    ("negation", sx.V_NEG, (sx.LNot,)),
    ("bounds", sx.V_BOUNDS, (sx.LBot, sx.LTop)),
    ("unit", sx.V_UNIT, (sx.LOne,)),
    ("modalities", sx.V_MODAL, (sx.LDia, sx.LBoxDown)),
    ("residuals", sx.V_RESID, (sx.LUnder, sx.LOver)),
]


def _ref_vocab(f):
    return sum(bit for _, bit, kinds in _REF_KINDS
               if any(isinstance(g, kinds) for g in walk(f)))


def _ref_bracket(t):
    if isinstance(t, sx.SBracket):
        return True
    return isinstance(t, sx.SNode) and (_ref_bracket(t.l) or _ref_bracket(t.r))


def _ref_tree(t):
    used = sx.V_BRACKET if _ref_bracket(t) else 0
    for g in sx.tree_formulas(t):
        used |= _ref_vocab(g)
    return used


def _ref_misfit(system, s):
    if s.ant is None and not system.allow_empty_antecedent:
        return f"{system.name} does not allow empty antecedents"
    used = _ref_vocab(s.suc) | (0 if s.ant is None else _ref_tree(s.ant))
    admits = {"negation": system.negation, "bounds": system.bounded,
              "unit": system.unit, "modalities": system.modal is not None,
              "residuals": True}
    for what, bit, _ in _REF_KINDS:
        if used & bit and not admits[what]:
            return f"{system.name} has no {what}"
    if used & sx.V_BRACKET and system.modal is None:
        return f"{system.name} has no bracket structure"
    return None


@settings(max_examples=300)
@given(sequents)
def test_vocab_matches_a_walk_and_drives_validation(s):
    for g in sx.sequent_formulas(s):
        assert sx.vocab(g) == _ref_vocab(g)
        assert sx.neg_free(g) == (not _ref_vocab(g) & sx.V_NEG)
    if s.ant is None:
        assert sx.vocab(s) == _ref_vocab(s.suc)
    else:
        assert sx.vocab(s.ant) == _ref_tree(s.ant)
        assert sx.vocab(s) == _ref_tree(s.ant) | _ref_vocab(s.suc)
    for system in SYSTEMS.values():
        want = _ref_misfit(system, s)
        if want is None:
            validate_sequent(system, s)
        else:
            with pytest.raises(ValidationError) as e:
                validate_sequent(system, s)
            assert str(e.value) == want


def test_deep_negation_tower_validates_in_constant_stack():
    # built by a loop, so no parser recursion is involved
    f = p
    for _ in range(5000):
        f = sx.LNot(f)
    s = sx.simple(f, p)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        with pytest.raises(ValidationError, match="^dfnl-star has no negation$"):
            validate_sequent(SYSTEMS["dfnl-star"], s)
        validate_sequent(SYSTEMS["bfnl-star"], s)
        assert not sx.neg_free(f)
        assert sx.vocab(s) == sx.V_NEG
    finally:
        sys.setrecursionlimit(old)


def test_deep_tower_hashes_keys_and_compares_in_constant_stack():
    # each term's hash is set from its children's when it is built, so a
    # tower built by a loop hashes without recursion
    f, g = p, q
    for _ in range(5000):
        f, g = sx.LNot(f), sx.LNot(g)
    s = sx.simple(f, p)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert hash(f) == hash((TERM_TAGS[sx.LNot], hash(f.a)))
        assert {f: 1}[f] == 1 and f in {f} and s in {s: 1} and s in {s}
        # unequal towers differ in their stored hash, so no walk is needed
        assert f != g and not f == g
        assert f != sx.LNot(f) and f != f.a
    finally:
        sys.setrecursionlimit(old)


_TERMS = st.one_of(modal_formulas, lambek_formulas, struct_trees, sequents)
_FAMILIES = (sx.ModalFormula, sx.LFormula, sx.StructTree, sx.Sequent)


def _rebuilt(x):
    """A copy of term x that shares no term object with it."""
    if type(x) not in TERM_FIELDS:
        return x
    return type(x)(*(_rebuilt(v) for v in term_values(x)))


def _twins(x):
    """x's fields under every other class of its language with the same
    fields: LOr for LAnd, LTop for LBot, and so on."""
    family = next(b for b in _FAMILIES if isinstance(x, b))
    return [cls(*term_values(x)) for cls, names in TERM_FIELDS.items()
            if cls is not type(x) and issubclass(cls, family)
            and names == TERM_FIELDS[type(x)]]


@settings(max_examples=300)
@given(_TERMS, _TERMS)
def test_terms_hash_compare_and_print_as_frozen_dataclasses(x, y):
    copy = _rebuilt(x)
    assert copy is not x
    assert hash(x) == term_hash(x) == hash(copy)
    assert x == copy and not x != copy
    assert (x == y) == (y == x) == terms_equal(x, y)
    assert (x != y) == (not terms_equal(x, y))
    for twin in _twins(x):
        assert x != twin and not x == twin and not terms_equal(x, twin)
    assert repr(x) == term_repr(x)
    assert not hasattr(x, "__dict__")
    for name in TERM_FIELDS[type(x)] + ("_h", "extra"):
        with pytest.raises(FrozenInstanceError):
            setattr(x, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(x, name)
    assert x == copy and hash(x) == hash(copy)


def test_terms_of_distinct_classes_over_the_same_fields_hash_apart():
    # the class tag is hashed with the fields, so same-shape terms of
    # distinct classes do not collide
    groups = [
        [cls(p, q) for cls in (sx.MAnd, sx.MOr, sx.MImp, sx.LAnd, sx.LOr, sx.LProd,
                               sx.LUnder, sx.LOver, sx.SNode)],
        [cls(p) for cls in (sx.MNot, sx.MDia, sx.LNot, sx.LDia, sx.LBoxDown, sx.SLeaf,
                            sx.SBracket)],
        [sx.MBot(), sx.BOT, sx.TOP, sx.ONE],
        [sx.MAtom("p"), sx.LAtom("p")],
        # every /\ and \/ labelling of the skeleton (p ? q) ? (q ? r)
        [c(a(p, q), b(q, r)) for a, b, c in itertools.product((sx.LAnd, sx.LOr), repeat=3)],
    ]
    for terms in groups:
        assert len({hash(t) for t in terms}) == len(terms)
        assert all(hash(t) == term_hash(t) for t in terms)


_PRINT_HASHES = """
from fnlkit import syntax as sx
print(hash(sx.parse_sequent("=> p")), hash(sx.P_BOT), hash(sx.P_TOP),
      hash(sx.parse_lambek("p_bot * p_top \\\\/ bot")))
"""


def test_terms_with_an_absent_child_hash_alike_in_every_process():
    # hash(None) is address-based before Python 3.12, so a term holding
    # None must not hash it
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONHASHSEED": "0",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    runs = [subprocess.run([sys.executable, "-c", _PRINT_HASHES], capture_output=True, env=env,
                           text=True, timeout=120, check=True).stdout for _ in range(2)]
    assert runs[0] == runs[1] and len(runs[0].split()) == 4


@pytest.mark.parametrize("memo", [None, {}])
def test_rendering_takes_one_frame_per_connective(memo):
    # the parser reads towers almost as deep as the recursion limit, so the
    # renderer, memo or not, must not need more than one frame per level
    f = p
    for _ in range(2000):
        f = sx.LNot(f)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(depth + 2050)
        text = sx.render_sequent(sx.Sequent(None, f), memo)
    finally:
        sys.setrecursionlimit(old)
    assert text == "=> " + "~" * 2000 + "p"


def test_phi_of_tree():
    assert sx.phi_of_tree(sx.SLeaf(p)) == p
    t = sx.SNode(sx.SLeaf(p), sx.SNode(sx.SLeaf(q), sx.SLeaf(r)))
    assert sx.phi_of_tree(t) == sx.LProd(p, sx.LProd(q, r))
    assert sx.phi_of_tree(sx.SNode(sx.SLeaf(p), sx.SLeaf(p))) == sx.LProd(p, p)
    with pytest.raises(ValueError):
        sx.phi_of_tree(sx.SBracket(sx.SLeaf(p)))


@given(struct_trees)
def test_phi_size_accounting(t):
    leaves, nodes, ok = [], 0, True
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, sx.SLeaf):
            leaves.append(x.f)
        elif isinstance(x, sx.SNode):
            nodes += 1
            stack += [x.l, x.r]
        else:
            ok = False
            break
    if not ok:
        return  # phi undefined on bracketed trees
    assert sx.lsize(sx.phi_of_tree(t)) == sum(sx.lsize(f) for f in leaves) + nodes


# ---------------------------------------------------------------------------
# closures


def brute_closure(base, mode, bound):
    """Oracle: saturate under the closure connectives, keep sizes <= bound."""
    out = set(base)
    changed = True
    while changed:
        changed = False
        snapshot = list(out)
        for a in snapshot:
            for b in snapshot:
                for g in (sx.LAnd(a, b), sx.LOr(a, b)):
                    if sx.lsize(g) <= bound and g not in out:
                        out.add(g)
                        changed = True
            if mode == "and_or_not":
                g = sx.LNot(a)
                if sx.lsize(g) <= bound and g not in out:
                    out.add(g)
                    changed = True
    return {f for f in out if sx.lsize(f) <= bound}


def test_closure_contains():
    base = frozenset([p, q, sx.TOP, sx.BOT])
    c = sx.ClosureSpec(base, "and_or", 5)
    assert closure_contains(c, sx.LAnd(p, sx.LOr(q, p)))
    assert not closure_contains(c, sx.LNot(p))
    cn = sx.ClosureSpec(frozenset([p, sx.TOP, sx.BOT]), "and_or_not", 5)
    assert closure_contains(cn, sx.LNot(sx.LOr(p, sx.BOT)))
    assert not closure_contains(cn, sx.LProd(p, p))


def test_enumerate_closure_frozen_order():
    c0 = sx.ClosureSpec(frozenset([p]), "and_or", 0)
    assert list(sx.enumerate_closure(c0)) == [p]
    c1 = sx.ClosureSpec(frozenset([p, q]), "and_or", 1)
    got = [sx.render_lambek(f) for f in sx.enumerate_closure(c1)]
    assert got == [
        "p",
        "q",
        "p /\\ p",
        "p /\\ q",
        "q /\\ p",
        "q /\\ q",
        "p \\/ p",
        "p \\/ q",
        "q \\/ p",
        "q \\/ q",
    ]


def test_enumerate_closure_negations():
    c = sx.ClosureSpec(frozenset([p, sx.TOP, sx.BOT]), "and_or_not", 1)
    got = set(sx.enumerate_closure(c))
    assert {sx.LNot(p), sx.LNot(sx.TOP), sx.LNot(sx.BOT)} <= got


@pytest.mark.parametrize("mode,bound", [("and_or", 2), ("and_or_not", 2)])
def test_enumerate_matches_oracle(mode, bound):
    base = frozenset([p, q, sx.TOP, sx.BOT])
    spec = sx.ClosureSpec(base, mode, bound)
    got = set(sx.enumerate_closure(spec))
    assert got == brute_closure(base, mode, bound)
    # membership test agrees with enumeration on everything enumerated
    for f in got:
        assert closure_contains(spec, f)


# a base with a compound member above every bound tried, and one that the
# layers build from p and q
_COMPOUND_BASE = frozenset([p, q, sx.TOP, sx.LAnd(p, q), sx.LProd(q, p),
                            sx.LOr(sx.LAnd(p, q), sx.LNot(sx.LNot(p)))])


@pytest.mark.parametrize("mode", ["and_or", "and_or_not"])
@pytest.mark.parametrize("bound", [0, 1, 2])
def test_enumerate_closure_lists_the_closure_in_sort_key_order(mode, bound):
    spec = sx.ClosureSpec(_COMPOUND_BASE, mode, bound)
    want = sorted(brute_closure(_COMPOUND_BASE, mode, bound), key=sx.sort_key)
    assert list(sx.enumerate_closure(spec)) == want


def test_closure_sizes_at_three_connectives():
    base = frozenset([p, q, sx.TOP, sx.BOT])
    assert len(sx.enumerate_closure(sx.ClosureSpec(base, "and_or", 3))) == 10788
    assert len(sx.enumerate_closure(sx.ClosureSpec(base, "and_or_not", 3))) == 13648


@settings(max_examples=60)
@given(lambek_formulas)
def test_closure_contains_vs_enumeration(f):
    spec = sx.ClosureSpec(frozenset([p, q, sx.TOP, sx.BOT]), "and_or", 3)
    inside = f in set(sx.enumerate_closure(spec))
    if sx.lsize(f) <= 3:
        assert closure_contains(spec, f) == inside
    elif inside:
        raise AssertionError("enumeration produced an oversized formula")

