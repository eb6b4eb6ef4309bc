"""Closed-form proof strategies tried before raw backward search.

Each strategy inspects the goal's shape and either builds a candidate
derivation outright or maps the problem into a neighbouring system where
a recursive call has better tools, transporting the proof back.  A
strategy may be optimistic: the driver re-validates every candidate with
the independent checker before accepting it, so returning a wrong
derivation costs a check, never soundness.  A strategy declines by
returning None or by raising LemmaError, which the driver catches.

The cross-system strategies mirror the two embeddings in reverse.  A
negation-free bounded goal whose letters are negation markers is pulled
back through the letter-to-negation rewrite, proved with the boolean
tools of the negation system, and the proof is pushed forward again by
eliminating the negation axioms against the companion pairs.  A
constant-free goal is pulled back through the letter-to-constant rewrite
the same way, with the bound axioms replaced by absorption derivations.
"""

from __future__ import annotations

from typing import Callable, Optional

from . import gk
from . import lemmas as lm
from . import proofs as pf
from . import rules
from . import syntax as sx
from . import transform as tr
from .systems import SystemSpec, get_system

# recurse(sys, phi, goal) -> derivation or None; supplied by the driver
Recurse = Callable[[SystemSpec, frozenset, sx.Sequent], Optional[pf.Derivation]]


def try_axioms(sys: SystemSpec, phi, goal: sx.Sequent, recurse: Recurse):
    for rule, _, inst in rules.axioms(sys, goal, phi):
        return pf.node(goal, rule, (), inst)
    return None


def _close_empty(d: pf.Derivation) -> pf.Derivation:
    # turn  top => A  into  => A  by cutting with the empty top axiom
    return lm.dcut(lm.dtop(None), d, ())


def try_lat(sys: SystemSpec, phi, goal: sx.Sequent, recurse: Recurse):
    if goal.ant is None:
        if not sys.bounded:
            return None
        d = lm.lat_le(sx.TOP, goal.suc)
        return None if d is None else _close_empty(d)
    if isinstance(goal.ant, sx.SLeaf):
        return lm.lat_le(goal.ant.f, goal.suc)
    return None


def try_bool(sys: SystemSpec, phi, goal: sx.Sequent, recurse: Recurse):
    if not sys.negation:
        return None
    if goal.ant is None:
        d = lm.bool_le(sx.TOP, goal.suc)
        return None if d is None else _close_empty(d)
    if isinstance(goal.ant, sx.SLeaf):
        return lm.bool_le(goal.ant.f, goal.suc)
    return None


def try_pairs(sys: SystemSpec, phi, goal: sx.Sequent, recurse: Recurse):
    """Companion-pair goals: A /\\ A~ => bot and top => A \\/ A~, modulo
    the order of the two halves."""
    if not phi:
        return None
    if (
        goal.suc == sx.BOT
        and isinstance(goal.ant, sx.SLeaf)
        and isinstance(goal.ant.f, sx.LAnd)
    ):
        l, r = goal.ant.f.l, goal.ant.f.r
        if tr.tilde_ext(l) == r:
            return tr.pair_bot(l, phi)
        if tr.tilde_ext(r) == l:
            return lm.le_trans(lm.comm_and(l, r), tr.pair_bot(r, phi))
    if goal.ant == sx.SLeaf(sx.TOP) and isinstance(goal.suc, sx.LOr):
        l, r = goal.suc.l, goal.suc.r
        if tr.tilde_ext(l) == r:
            return tr.pair_top(l, phi)
        if tr.tilde_ext(r) == l:
            swap = lm.lat_le_strict(sx.LOr(r, l), sx.LOr(l, r))
            return lm.le_trans(tr.pair_top(r, phi), swap)
    return None


def try_absorb(sys: SystemSpec, phi, goal: sx.Sequent, recurse: Recurse):
    """Absorption goals: anything => p_top, and contexts holding the
    bottom letter entail whatever the members can reach from it."""
    if not phi or goal.ant is None:
        return None
    if goal.suc == sx.P_TOP:
        return tr.tree_top(goal.ant, phi)
    for path, x in pf.positions(goal.ant):
        if x == sx.SLeaf(sx.P_BOT):
            d = tr.tree_absorb(goal.ant, path, phi)
            if goal.suc != sx.P_BOT:
                d = lm.le_trans(d, tr.sec_from_pbot(goal.suc, phi))
            return d
    return None


def _mismatches(a: sx.LFormula, b: sx.LFormula, acc: set):
    if a == b:
        return
    if type(a) is type(b):
        if isinstance(a, (sx.LAnd, sx.LOr, sx.LProd, sx.LUnder, sx.LOver)):
            _mismatches(a.l, b.l, acc)
            _mismatches(a.r, b.r, acc)
            return
        if isinstance(a, (sx.LNot, sx.LDia, sx.LBoxDown)):
            _mismatches(a.a, b.a, acc)
            return
    acc.add((a, b))


def try_congruence(sys: SystemSpec, phi, goal: sx.Sequent, recurse: Recurse):
    """Goals that differ in one repeated subformula slot: prove the slot
    pair both ways, then lift it through the context monotonically."""
    if not isinstance(goal.ant, sx.SLeaf):
        return None
    c, c2 = goal.ant.f, goal.suc
    pairs: set = set()
    _mismatches(c, c2, pairs)
    if len(pairs) != 1:
        return None
    a, b = pairs.pop()
    if a == c:
        return None  # the mismatch is the goal itself; nothing is gained
    dab = recurse(sys, phi, sx.simple(a, b))
    if dab is None:
        return None
    dba = recurse(sys, phi, sx.simple(b, a))
    if dba is None:
        return None
    got, fwd, _ = lm.cong_replace(c, a, b, dab, dba)
    return fwd if got == c2 else None


def try_k_oracle(sys: SystemSpec, phi, goal: sx.Sequent, recurse: Recurse):
    """Goals in the image of the modal translation: decide them with the
    modal sequent prover and translate its proof.  The proof uses bfnl-star
    rules only, so every system with negation admits it."""
    if phi or not (sys.negation and sys.bounded):
        return None
    ctx = tr.TranslationContext()
    if goal.ant is None:
        f = tr.undagger(goal.suc)
        if f is None or sx.msize(f) > 40:
            return None
        return gk.prove_dagger_goal(f, ctx)
    if isinstance(goal.ant, sx.SLeaf):
        fb = tr.undagger(goal.suc)
        if fb is None or sx.msize(fb) > 40:
            return None
        if goal.ant.f == sx.TOP:
            return gk.prove_dagger_top(fb, ctx)
        fa = tr.undagger(goal.ant.f)
        if fa is None or sx.msize(fa) > 40:
            return None
        return gk.prove_dagger_sequent(fa, fb, ctx)
    return None


def try_unneg(sys: SystemSpec, phi, goal: sx.Sequent, recurse: Recurse):
    """Pull a negation-free bounded problem back into the negation system
    through the letter rewrite, prove it there, and push the proof
    forward by eliminating the negation axioms."""
    if sys.negation or not sys.bounded or sys.exchange or sys.unit or sys.modal:
        return None
    ng = tr.negrewrite_sequent(goal)
    if tr.ddagger_sequent(ng) != goal:
        return None
    kept = []
    for m in phi:
        nm = tr.negrewrite_sequent(m)
        if tr.neg_axiom(nm) is not None:
            continue  # companion members hold outright over there
        if tr.ddagger_sequent(nm) != m:
            continue  # would not survive the round trip
        kept.append(nm)
    d = recurse(get_system("bfnl-star"), frozenset(kept), ng)
    if d is None:
        return None
    return tr.ddagger_derivation(d, phi)


def _bound_theorem(s: sx.Sequent) -> Optional[pf.Derivation]:
    # absorption members whose constant image holds outright
    if s.suc == sx.TOP:
        return lm.dtop(s.ant)
    if not isinstance(s.ant, sx.SLeaf):
        return None
    f = s.ant.f
    if f == sx.BOT:
        return lm.dbot_f(s.suc)
    if isinstance(f, sx.LProd) and sx.BOT in (f.l, f.r):
        split = sx.SNode(sx.SLeaf(f.l), sx.SLeaf(f.r))
        where = (0,) if f.l == sx.BOT else (1,)
        return lm.dprod_l(lm.dbot(split, where, s.suc), ())
    return None


def try_unsection(sys: SystemSpec, phi, goal: sx.Sequent, recurse: Recurse):
    """Pull a constant-free problem back into the bounded system through
    the letter rewrite, prove it there, and push the proof forward by
    replacing the bound axioms with absorption derivations."""
    if sys.bounded or sys.exchange or sys.unit or sys.modal:
        return None
    si = tr.section_inverse_sequent(goal)
    if tr.section_sequent(si) != goal:
        return None  # in particular: empty antecedents have no preimage
    kept = []
    for m in phi:
        sm = tr.section_inverse_sequent(m)
        if _bound_theorem(sm) is not None:
            continue  # absorption members hold outright over there
        if tr.section_sequent(sm) != m:
            continue
        kept.append(sm)
    d = recurse(get_system("bdfnl-star"), frozenset(kept), si)
    if d is None:
        return None
    return tr.section_derivation(d, phi)


# cheap and shape-specific first, recursive and cross-system last
STRATEGIES: tuple[tuple[str, Callable], ...] = (
    ("axiom", try_axioms),
    ("lattice", try_lat),
    ("pairs", try_pairs),
    ("absorb", try_absorb),
    ("boolean", try_bool),
    ("k-oracle", try_k_oracle),
    ("congruence", try_congruence),
    ("unneg", try_unneg),
    ("unsection", try_unsection),
)
