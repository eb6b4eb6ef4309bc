"""Closed-form proof strategies tried before raw backward search.

Each strategy inspects the goal's shape and either builds a candidate
derivation outright or maps the problem into a neighbouring system where
a recursive call has better tools, transporting the proof back.  A
recursive call runs the strategy chain and then backward search on the
sub-goal and returns an unchecked derivation.  A strategy may be
optimistic: the driver checks the derivation it returns with the
independent checker before accepting it, so returning a wrong derivation
costs a check, never soundness.  A strategy declines by returning None or
by raising LemmaError, which the driver catches.

The cross-system strategies walk the reduction chain of `transform`
backwards.  `k-oracle` proves a goal that `transform.read_k` reads back
to K with the K prover of `gk`.
`unneg` and `unsection` are both `_pull_back`: a goal of the ddagger or
section image system is mapped back one stage, proved there by a
recursive call, and the proof is transported forward again, all over one
memo of the chain maps that lives for that call (see `transform`).
A member of phi whose preimage would hold outright in the source is
dropped before it is mapped back, by a test on the member itself: for
`unsection` its shape (a p_top succedent, or a p_bot leaf or product
factor: the absorption set's members), for `unneg` whether it rewrites to
a negation axiom (the companion members).
`unsection` is also the one route for the absorption goals of the
section image, Gamma => p_top and Gamma[p_bot] => A: they pull back to
bound axioms, which `transform.section_derivation` rebuilds with the
certified absorption builders.
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

# recurse(sys, phi, goal) -> derivation or None; supplied by the driver.
# The derivation is unchecked; the driver checks the one it returns.
Recurse = Callable[[SystemSpec, frozenset, sx.Sequent], Optional[pf.Derivation]]


def try_axioms(sys: SystemSpec, phi, goal: sx.Sequent, recurse: Recurse):
    for rule, _, path, idx in rules.axioms(sys, goal, phi):
        return pf.node(goal, rule, (), path, idx)
    return None


def _simple(goal: sx.Sequent, le) -> Optional[pf.Derivation]:
    # le applied to A => B; an empty antecedent reads as top, and the
    # top => B derivation is closed by a cut with the empty top axiom
    if goal.ant is None:
        d = le(sx.TOP, goal.suc)
        return None if d is None else lm.dcut(lm.dtop(None), d, ())
    if isinstance(goal.ant, sx.SLeaf):
        return le(goal.ant.f, goal.suc)
    return None


def try_lat(sys: SystemSpec, phi, goal: sx.Sequent, recurse: Recurse):
    if goal.ant is None and not sys.bounded:
        return None
    return _simple(goal, lm.lat_le)


def try_bool(sys: SystemSpec, phi, goal: sx.Sequent, recurse: Recurse):
    return _simple(goal, lm.bool_le) if sys.negation else None


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
            return lm.le_trans(tr.pair_top(r, phi), lm.comm_or(r, l))
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


def _read_modal(f: sx.LFormula) -> Optional[sx.ModalFormula]:
    # the modal formula f reads back to, if it has at most 40 symbols
    a = tr.read_k(f)
    return None if a is None or sx.lsize(a) > 40 else a


def _top_for_negbot(f: sx.LFormula):
    # (f with every ~bot written top, f => that, that => f)
    nb = sx.LNot(sx.BOT)
    return lm.cong_replace(f, nb, sx.TOP, lm.dtop(sx.SLeaf(nb)), lm.dtop_negbot())


def try_k_oracle(sys: SystemSpec, phi, goal: sx.Sequent, recurse: Recurse):
    """Goals that read back to K: decide them with one call of the modal
    sequent prover, `gk.prove_dagger_sequent`, and translate its proof.
    An empty or top antecedent is an empty left side, whose translation
    starts from top; an empty one is cut against the empty top axiom.
    Then a replacement of every ~bot by top is cut in where the goal
    writes top.  The proof uses bfnl-star rules only, so every system
    with negation admits it."""
    if phi or not (sys.negation and sys.bounded):
        return None
    if goal.ant is not None and not isinstance(goal.ant, sx.SLeaf):
        return None
    b = _read_modal(goal.suc)
    if b is None:
        return None
    a = None
    if goal.ant is not None and goal.ant.f != sx.TOP:
        a = _read_modal(goal.ant.f)
        if a is None:
            return None
    d = gk.prove_dagger_sequent(a, b)
    if d is not None and goal.ant is None:
        d = lm.dcut(lm.dtop(None), d, ())
    if d is not None and d.seq.suc != goal.suc:
        got, fwd, _ = _top_for_negbot(d.seq.suc)
        d = lm.dcut(d, fwd, ()) if got == goal.suc else None
    if d is not None and d.seq.ant != goal.ant:
        got, _, bwd = _top_for_negbot(d.seq.ant.f)
        d = lm.dcut(bwd, d, ()) if got == goal.ant.f else None
    return d


def _flags(sys: SystemSpec) -> tuple:
    return sys.negation, sys.bounded, sys.exchange, sys.unit, sys.modal


def _pull_back(source: str, image: str, inverse, forward, outright, transport) -> Callable:
    """The strategy that proves a goal of a system with the image system's
    flags by a recursive call in the source system.  inverse(s, memo) maps
    a sequent back one stage; the goal and each kept member of phi must
    come back under forward(s, memo); a member m for which outright(m, memo)
    holds, read on the image member itself, is dropped before it is mapped
    back, because its preimage holds outright in the source;
    transport(d, phi, memo) pushes the proof forward.  One memo, made per
    call and dropped when it returns, serves all four, so each chain map
    meets a distinct term once."""
    image_flags, target = _flags(get_system(image)), get_system(source)

    def pull_back(sys: SystemSpec, phi, goal: sx.Sequent, recurse: Recurse):
        if _flags(sys) != image_flags:
            return None
        memo: dict = {}
        back = inverse(goal, memo)
        if forward(back, memo) != goal:
            return None  # e.g. an empty antecedent has no section preimage
        kept = []
        for m in phi:
            if outright(m, memo):
                continue
            bm = inverse(m, memo)
            if forward(bm, memo) == m:
                kept.append(bm)
        d = recurse(target, frozenset(kept), back)
        return None if d is None else transport(d, phi, memo)

    return pull_back


_TOPS, _BOTS = (sx.TOP, sx.P_TOP), (sx.BOT, sx.P_BOT)


def _holds_with_bounds(s: sx.Sequent, memo: dict) -> bool:
    # the absorption members, read on the section image: section_inverse
    # sends p_top and p_bot (and the constants) to top and bot and nothing
    # else to a constant, so these are the members whose preimage is a
    # bound axiom, up to a product split
    if s.suc in _TOPS:
        return True
    f = s.ant.f if isinstance(s.ant, sx.SLeaf) else None
    return f in _BOTS or (isinstance(f, sx.LProd) and (f.l in _BOTS or f.r in _BOTS))


def _companion(s: sx.Sequent, memo: dict) -> bool:
    # the companion members, which are negation axioms once rewritten
    return tr.neg_axiom(tr.negrewrite_sequent(s, memo)) is not None


# The transports are looked up at call time, so that a tracer which swaps
# the transform module's attributes sees every call.
try_unneg = _pull_back(
    "bfnl-star", "bdfnl-star", tr.negrewrite_sequent, tr.ddagger_sequent, _companion,
    lambda d, phi, memo: tr.ddagger_derivation(d, phi, memo),
)
try_unsection = _pull_back(
    "bdfnl-star", "dfnl", tr.section_inverse_sequent, tr.section_sequent,
    _holds_with_bounds, lambda d, phi, memo: tr.section_derivation(d, phi, memo),
)


# cheap and shape-specific first, recursive and cross-system last
STRATEGIES: tuple[tuple[str, Callable], ...] = (
    ("axiom", try_axioms),
    ("lattice", try_lat),
    ("pairs", try_pairs),
    ("boolean", try_bool),
    ("k-oracle", try_k_oracle),
    ("congruence", try_congruence),
    ("unneg", try_unneg),
    ("unsection", try_unsection),
)
