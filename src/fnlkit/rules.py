"""Backward rule application: all ways one goal decomposes into premise
goals, in a fixed deterministic order.

Axioms come first, then cheap and invertible moves; the pick-one rules
and slash left rules follow; cut comes last, instantiated only over the
supplied candidate pool (the problem's subformulas).

A move is ``(rule, premises, path, idx)``: the premise goals, then what
the node built from it records, the hole path and a pick-one rule's side
(1 or 2), each None when the rule does not read it.

``rule_instances`` is a generator whose moves are right by construction,
with no filter behind them:

- only the system's rules: each optional rule is guarded by the flag
  that admits it in ``systems.allowed_rules``;
- each move once, as long as the cut pool lists each formula once;
- zero-premise moves first, so a caller that can only close the goal
  outright may stop at the first move with premises;
- moves built lazily, so a search that closes or abandons a goal early
  never builds the rest (cut instances above all).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from . import proofs as pf
from . import syntax as sx
from .systems import MODAL_AXIOMS, SystemSpec

Move = tuple[str, list[sx.Sequent], Optional[pf.Path], Optional[int]]


def axioms(sys: SystemSpec, goal: sx.Sequent, phi) -> Iterator[Move]:
    """The zero-premise moves that close ``goal``, in ``rule_instances`` order."""
    ant, suc = goal.ant, goal.suc
    leaf = ant.f if isinstance(ant, sx.SLeaf) else None
    if leaf is not None and leaf == suc:
        yield pf.ID, [], None, None
    if goal in phi:
        yield pf.ASSUMPTION, [], None, None
    if (
        isinstance(leaf, sx.LAnd)
        and isinstance(leaf.r, sx.LOr)
        and suc == sx.LOr(sx.LAnd(leaf.l, leaf.r.l), sx.LAnd(leaf.l, leaf.r.r))
    ):
        yield pf.DIST, [], None, None
    if sys.bounded:
        if suc == sx.TOP:
            yield pf.TOP_AX, [], None, None
        if ant is not None:
            for path, x in pf.positions(ant):
                if isinstance(x, sx.SLeaf) and x.f == sx.BOT:
                    yield pf.BOT_AX, [], path, None
                    break
    if sys.negation:
        if (
            isinstance(leaf, sx.LAnd)
            and isinstance(leaf.r, sx.LNot)
            and leaf.l == leaf.r.a
            and suc == sx.BOT
        ):
            yield pf.NEG1, [], None, None
        if (
            leaf == sx.TOP
            and isinstance(suc, sx.LOr)
            and isinstance(suc.r, sx.LNot)
            and suc.l == suc.r.a
        ):
            yield pf.NEG2, [], None, None
    if sys.unit and ant is None and suc == sx.ONE:
        yield pf.ONE_R, [], None, None
    if sys.modal is not None:
        extra = MODAL_AXIOMS[sys.modal]
        if pf.AX_T in extra and leaf is not None and suc == sx.LDia(leaf):
            yield pf.AX_T, [], None, None
        if (
            pf.AX_4 in extra
            and isinstance(suc, sx.LDia)
            and leaf == sx.LDia(sx.LDia(suc.a))
        ):
            yield pf.AX_4, [], None, None
        if (
            pf.AX_5 in extra
            and isinstance(leaf, sx.LDia)
            and suc == sx.LNot(sx.LDia(sx.LNot(sx.LDia(leaf.a))))
        ):
            yield pf.AX_5, [], None, None


def rule_instances(
    sys: SystemSpec,
    goal: sx.Sequent,
    phi,
    cut_pool: Iterable[sx.LFormula] = (),
) -> Iterator[Move]:
    yield from axioms(sys, goal, phi)
    ant, suc = goal.ant, goal.suc
    spots = list(pf.positions(ant)) if ant is not None else []

    # single-premise structural left moves
    for path, x in spots:
        if isinstance(x, sx.SLeaf) and isinstance(x.f, sx.LProd):
            prem = pf.tree_replace(ant, path, sx.SNode(sx.SLeaf(x.f.l), sx.SLeaf(x.f.r)))
            yield pf.PROD_L, [sx.Sequent(prem, suc)], path, None
        if sys.modal is not None:
            if isinstance(x, sx.SLeaf) and isinstance(x.f, sx.LDia):
                prem = pf.tree_replace(ant, path, sx.SBracket(sx.SLeaf(x.f.a)))
                yield pf.DIA_L, [sx.Sequent(prem, suc)], path, None
            if (
                isinstance(x, sx.SBracket)
                and isinstance(x.a, sx.SLeaf)
                and isinstance(x.a.f, sx.LBoxDown)
            ):
                prem = pf.tree_replace(ant, path, sx.SLeaf(x.a.f.a))
                yield pf.BOXDOWN_L, [sx.Sequent(prem, suc)], path, None
        if sys.unit and isinstance(x, sx.SNode):
            if x.l == sx.SLeaf(sx.ONE):
                prem = pf.tree_replace(ant, path, x.r)
                yield pf.ONE_L_LEFT, [sx.Sequent(prem, suc)], path, None
            if x.r == sx.SLeaf(sx.ONE):
                prem = pf.tree_replace(ant, path, x.l)
                yield pf.ONE_L_RIGHT, [sx.Sequent(prem, suc)], path, None

    # invertible branching
    if isinstance(suc, sx.LAnd):
        yield pf.AND_R, [sx.Sequent(ant, suc.l), sx.Sequent(ant, suc.r)], None, None
    for path, x in spots:
        if isinstance(x, sx.SLeaf) and isinstance(x.f, sx.LOr):
            p1 = pf.tree_replace(ant, path, sx.SLeaf(x.f.l))
            p2 = pf.tree_replace(ant, path, sx.SLeaf(x.f.r))
            yield pf.OR_L, [sx.Sequent(p1, suc), sx.Sequent(p2, suc)], path, None

    # right slash/modal introductions
    if isinstance(suc, sx.LUnder):
        prem_ant = sx.SLeaf(suc.l) if ant is None else sx.SNode(sx.SLeaf(suc.l), ant)
        yield pf.UNDER_R, [sx.Sequent(prem_ant, suc.r)], None, None
    if isinstance(suc, sx.LOver):
        prem_ant = sx.SLeaf(suc.r) if ant is None else sx.SNode(ant, sx.SLeaf(suc.r))
        yield pf.OVER_R, [sx.Sequent(prem_ant, suc.l)], None, None
    if sys.modal is not None:
        if isinstance(suc, sx.LDia) and isinstance(ant, sx.SBracket):
            yield pf.DIA_R, [sx.Sequent(ant.a, suc.a)], None, None
        if isinstance(suc, sx.LBoxDown) and ant is not None:
            yield pf.BOXDOWN_R, [sx.Sequent(sx.SBracket(ant), suc.a)], None, None

    # product right needs the antecedent split at the root
    if isinstance(suc, sx.LProd) and isinstance(ant, sx.SNode):
        yield pf.PROD_R, [sx.Sequent(ant.l, suc.l), sx.Sequent(ant.r, suc.r)], None, None

    # pick-one rules
    for path, x in spots:
        if isinstance(x, sx.SLeaf) and isinstance(x.f, sx.LAnd):
            for idx, sub in ((1, x.f.l), (2, x.f.r)):
                prem = pf.tree_replace(ant, path, sx.SLeaf(sub))
                yield pf.AND_L, [sx.Sequent(prem, suc)], path, idx
    if isinstance(suc, sx.LOr):
        for idx, sub in ((1, suc.l), (2, suc.r)):
            yield pf.OR_R, [sx.Sequent(ant, sub)], None, idx

    # slash left rules: the slash leaf must sit beside its argument tree
    for path, x in spots:
        if not isinstance(x, sx.SNode):
            continue
        if isinstance(x.r, sx.SLeaf) and isinstance(x.r.f, sx.LUnder):
            f = x.r.f
            minor = sx.Sequent(x.l, f.l)
            major = sx.Sequent(pf.tree_replace(ant, path, sx.SLeaf(f.r)), suc)
            yield pf.UNDER_L, [minor, major], path, None
        if isinstance(x.l, sx.SLeaf) and isinstance(x.l.f, sx.LOver):
            f = x.l.f
            major = sx.Sequent(pf.tree_replace(ant, path, sx.SLeaf(f.l)), suc)
            minor = sx.Sequent(x.r, f.r)
            yield pf.OVER_L, [major, minor], path, None

    # exchange: one swap per node
    if sys.exchange:
        for path, x in spots:
            if isinstance(x, sx.SNode):
                prem = pf.tree_replace(ant, path, sx.SNode(x.r, x.l))
                yield pf.EXCH, [sx.Sequent(prem, suc)], path, None

    # analytic cut, last: all hole positions x all candidates
    for c in cut_pool:
        if ant is None:
            if c != suc:
                prems = [sx.Sequent(None, c), sx.Sequent(sx.SLeaf(c), suc)]
                yield pf.CUT, prems, (), None
            continue
        for path, x in spots:
            if x == sx.SLeaf(c):
                continue  # replacing c by itself loops
            minor = sx.Sequent(x, c)
            major = sx.Sequent(pf.tree_replace(ant, path, sx.SLeaf(c)), suc)
            yield pf.CUT, [minor, major], path, None

