"""Independent structural proof checker.

Each rule gets its own validator that recomputes, from the conclusion and
the recorded instantiation alone, exactly what the premises must look
like, then compares.  Nothing here calls the search code, so a prover bug
cannot vouch for itself.

Malformed evidence is rejected even when it is sound: every instantiation
field a node records is validated (an assumption's member is its
conclusion, a principal formula is the one the rule acts on, an
empty-antecedent cut sits at the root), and a node that records a field
its rule does not read is rejected."""

from __future__ import annotations

from dataclasses import fields
from typing import Optional

from . import proofs as pf
from . import syntax as sx
from .systems import SystemSpec, allowed_rules, validate_sequent


def _leaf(t) -> Optional[sx.LFormula]:
    return t.f if isinstance(t, sx.SLeaf) else None


def _check_main(inst, principal):
    if inst.main is not None and inst.main != principal:
        return "recorded principal formula is not the one the rule acts on"
    return None


def _subtree(ant, path):
    try:
        return pf.tree_at(ant, path)
    except (IndexError, TypeError, AttributeError, ValueError):
        return None


def _check_id(c, prems, inst, sys):
    if _leaf(c.ant) != c.suc or _leaf(c.ant) is None:
        return "antecedent is not a single leaf equal to the succedent"
    return None


def _check_dist(c, prems, inst, sys):
    f = _leaf(c.ant)
    if not (isinstance(f, sx.LAnd) and isinstance(f.r, sx.LOr)):
        return "antecedent is not of shape A /\\ (B \\/ C)"
    want = sx.LOr(sx.LAnd(f.l, f.r.l), sx.LAnd(f.l, f.r.r))
    if c.suc != want:
        return "succedent does not distribute the antecedent"
    return None


def _check_bot(c, prems, inst, sys):
    if not sys.bounded:
        return "bot axiom unavailable here"
    if c.ant is None or inst.path is None:
        return "bot axiom needs a position in a nonempty antecedent"
    if _leaf(_subtree(c.ant, inst.path)) != sx.BOT:
        return "recorded position does not hold bot"
    return None


def _check_top(c, prems, inst, sys):
    if not sys.bounded or c.suc != sx.TOP:
        return "succedent must be top"
    return None


def _check_neg1(c, prems, inst, sys):
    f = _leaf(c.ant)
    if not (
        isinstance(f, sx.LAnd)
        and isinstance(f.r, sx.LNot)
        and f.l == f.r.a
        and c.suc == sx.BOT
    ):
        return "not of shape A /\\ ~A => bot"
    return None


def _check_neg2(c, prems, inst, sys):
    if _leaf(c.ant) != sx.TOP:
        return "antecedent must be the single leaf top"
    s = c.suc
    if not (isinstance(s, sx.LOr) and isinstance(s.r, sx.LNot) and s.l == s.r.a):
        return "succedent not of shape A \\/ ~A"
    return None


def _check_ax_t(c, prems, inst, sys):
    f = _leaf(c.ant)
    if f is None or c.suc != sx.LDia(f):
        return "not of shape A => <>A"
    return None


def _check_ax_4(c, prems, inst, sys):
    if not (isinstance(c.suc, sx.LDia) and _leaf(c.ant) == sx.LDia(sx.LDia(c.suc.a))):
        return "not of shape <><>A => <>A"
    return None


def _check_ax_5(c, prems, inst, sys):
    f = _leaf(c.ant)
    if not (isinstance(f, sx.LDia) and c.suc == sx.LNot(sx.LDia(sx.LNot(sx.LDia(f.a))))):
        return "not of shape <>A => ~<>~<>A"
    return None


def _check_one_r(c, prems, inst, sys):
    if c.ant is not None or c.suc != sx.ONE:
        return "not the empty-antecedent unit sequent"
    return None


def _make_assumption_check(phi):
    def _check(c, prems, inst, sys):
        if c not in phi:
            return "sequent is not among the assumptions"
        if inst.member != c:
            return "recorded member is not the conclusion"
        return None

    return _check


def _check_prod_l(c, prems, inst, sys):
    x = _subtree(c.ant, inst.path) if c.ant is not None and inst.path is not None else None
    f = _leaf(x)
    if not isinstance(f, sx.LProd):
        return "recorded position does not hold a product leaf"
    want = pf.tree_replace(c.ant, inst.path, sx.SNode(sx.SLeaf(f.l), sx.SLeaf(f.r)))
    if prems[0].seq != sx.Sequent(want, c.suc):
        return "premise does not split the product at the recorded position"
    return _check_main(inst, f)


def _check_dia_l(c, prems, inst, sys):
    x = _subtree(c.ant, inst.path) if c.ant is not None and inst.path is not None else None
    f = _leaf(x)
    if not isinstance(f, sx.LDia):
        return "recorded position does not hold a diamond leaf"
    want = pf.tree_replace(c.ant, inst.path, sx.SBracket(sx.SLeaf(f.a)))
    if prems[0].seq != sx.Sequent(want, c.suc):
        return "premise does not unbox the diamond at the recorded position"
    return _check_main(inst, f)


def _check_boxdown_l(c, prems, inst, sys):
    x = _subtree(c.ant, inst.path) if c.ant is not None and inst.path is not None else None
    if not (
        isinstance(x, sx.SBracket)
        and isinstance(x.a, sx.SLeaf)
        and isinstance(x.a.f, sx.LBoxDown)
    ):
        return "recorded position is not a bracketed box-down leaf"
    want = pf.tree_replace(c.ant, inst.path, sx.SLeaf(x.a.f.a))
    if prems[0].seq != sx.Sequent(want, c.suc):
        return "premise does not strip the bracket and box-down"
    return _check_main(inst, x.a.f)


def _check_one_l_left(c, prems, inst, sys):
    x = _subtree(c.ant, inst.path) if c.ant is not None and inst.path is not None else None
    if not (isinstance(x, sx.SNode) and x.l == sx.SLeaf(sx.ONE)):
        return "recorded position is not a node with unit on the left"
    want = pf.tree_replace(c.ant, inst.path, x.r)
    if prems[0].seq != sx.Sequent(want, c.suc):
        return "premise does not drop the left unit"
    return None


def _check_one_l_right(c, prems, inst, sys):
    x = _subtree(c.ant, inst.path) if c.ant is not None and inst.path is not None else None
    if not (isinstance(x, sx.SNode) and x.r == sx.SLeaf(sx.ONE)):
        return "recorded position is not a node with unit on the right"
    want = pf.tree_replace(c.ant, inst.path, x.l)
    if prems[0].seq != sx.Sequent(want, c.suc):
        return "premise does not drop the right unit"
    return None


def _check_exch(c, prems, inst, sys):
    x = _subtree(c.ant, inst.path) if c.ant is not None and inst.path is not None else None
    if not isinstance(x, sx.SNode):
        return "recorded position is not a node"
    want = pf.tree_replace(c.ant, inst.path, sx.SNode(x.r, x.l))
    if prems[0].seq != sx.Sequent(want, c.suc):
        return "premise is not the swap at the recorded position"
    return None


def _check_and_l(c, prems, inst, sys):
    x = _subtree(c.ant, inst.path) if c.ant is not None and inst.path is not None else None
    f = _leaf(x)
    if not isinstance(f, sx.LAnd) or inst.idx not in (1, 2):
        return "recorded position does not hold a conjunction leaf"
    sub = f.l if inst.idx == 1 else f.r
    want = pf.tree_replace(c.ant, inst.path, sx.SLeaf(sub))
    if prems[0].seq != sx.Sequent(want, c.suc):
        return "premise does not pick the recorded conjunct"
    return _check_main(inst, f)


def _check_or_l(c, prems, inst, sys):
    x = _subtree(c.ant, inst.path) if c.ant is not None and inst.path is not None else None
    f = _leaf(x)
    if not isinstance(f, sx.LOr):
        return "recorded position does not hold a disjunction leaf"
    w1 = pf.tree_replace(c.ant, inst.path, sx.SLeaf(f.l))
    w2 = pf.tree_replace(c.ant, inst.path, sx.SLeaf(f.r))
    if prems[0].seq != sx.Sequent(w1, c.suc) or prems[1].seq != sx.Sequent(w2, c.suc):
        return "premises do not case-split the disjunction"
    return _check_main(inst, f)


def _check_and_r(c, prems, inst, sys):
    if not isinstance(c.suc, sx.LAnd):
        return "succedent is not a conjunction"
    if prems[0].seq != sx.Sequent(c.ant, c.suc.l) or prems[1].seq != sx.Sequent(c.ant, c.suc.r):
        return "premises do not prove both conjuncts from the same antecedent"
    return _check_main(inst, c.suc)


def _check_or_r(c, prems, inst, sys):
    if not isinstance(c.suc, sx.LOr) or inst.idx not in (1, 2):
        return "succedent is not a disjunction"
    sub = c.suc.l if inst.idx == 1 else c.suc.r
    if prems[0].seq != sx.Sequent(c.ant, sub):
        return "premise does not prove the recorded disjunct"
    return _check_main(inst, c.suc)


def _check_under_r(c, prems, inst, sys):
    if not isinstance(c.suc, sx.LUnder):
        return "succedent is not a left residual"
    want = sx.SLeaf(c.suc.l) if c.ant is None else sx.SNode(sx.SLeaf(c.suc.l), c.ant)
    if prems[0].seq != sx.Sequent(want, c.suc.r):
        return "premise does not prepend the argument formula"
    return _check_main(inst, c.suc)


def _check_over_r(c, prems, inst, sys):
    if not isinstance(c.suc, sx.LOver):
        return "succedent is not a right residual"
    want = sx.SLeaf(c.suc.r) if c.ant is None else sx.SNode(c.ant, sx.SLeaf(c.suc.r))
    if prems[0].seq != sx.Sequent(want, c.suc.l):
        return "premise does not append the argument formula"
    return _check_main(inst, c.suc)


def _check_dia_r(c, prems, inst, sys):
    if not (isinstance(c.suc, sx.LDia) and isinstance(c.ant, sx.SBracket)):
        return "needs a bracketed antecedent and diamond succedent"
    if prems[0].seq != sx.Sequent(c.ant.a, c.suc.a):
        return "premise does not strip one bracket and one diamond"
    return _check_main(inst, c.suc)


def _check_boxdown_r(c, prems, inst, sys):
    if not isinstance(c.suc, sx.LBoxDown) or c.ant is None:
        return "needs a nonempty antecedent and box-down succedent"
    if prems[0].seq != sx.Sequent(sx.SBracket(c.ant), c.suc.a):
        return "premise does not bracket the antecedent"
    return _check_main(inst, c.suc)


def _check_prod_r(c, prems, inst, sys):
    if not (isinstance(c.suc, sx.LProd) and isinstance(c.ant, sx.SNode)):
        return "needs a node antecedent and product succedent"
    if prems[0].seq != sx.Sequent(c.ant.l, c.suc.l) or prems[1].seq != sx.Sequent(
        c.ant.r, c.suc.r
    ):
        return "premises do not prove the factors from the split antecedent"
    return _check_main(inst, c.suc)


def _check_under_l(c, prems, inst, sys):
    x = _subtree(c.ant, inst.path) if c.ant is not None and inst.path is not None else None
    if not isinstance(x, sx.SNode):
        return "recorded position is not a node"
    f = _leaf(x.r)
    if not isinstance(f, sx.LUnder):
        return "right child is not a left-residual leaf"
    major = pf.tree_replace(c.ant, inst.path, sx.SLeaf(f.r))
    if prems[0].seq != sx.Sequent(x.l, f.l) or prems[1].seq != sx.Sequent(major, c.suc):
        return "premises do not match the left-residual decomposition"
    return _check_main(inst, f)


def _check_over_l(c, prems, inst, sys):
    x = _subtree(c.ant, inst.path) if c.ant is not None and inst.path is not None else None
    if not isinstance(x, sx.SNode):
        return "recorded position is not a node"
    f = _leaf(x.l)
    if not isinstance(f, sx.LOver):
        return "left child is not a right-residual leaf"
    major = pf.tree_replace(c.ant, inst.path, sx.SLeaf(f.l))
    if prems[0].seq != sx.Sequent(major, c.suc) or prems[1].seq != sx.Sequent(x.r, f.r):
        return "premises do not match the right-residual decomposition"
    return _check_main(inst, f)


def _check_cut(c, prems, inst, sys):
    a = prems[0].seq.suc
    if inst.side is not None and inst.side != a:
        return "recorded cut formula disagrees with the minor premise"
    if prems[1].seq.suc != c.suc:
        return "major premise changes the succedent"
    if c.ant is None:
        if prems[0].seq.ant is not None or prems[1].seq.ant != sx.SLeaf(a):
            return "empty-antecedent cut premises malformed"
        if inst.path != ():
            return "empty-antecedent cut must record the root position"
        return None
    if inst.path is None:
        return "cut needs a recorded position"
    sub = _subtree(c.ant, inst.path)
    if sub is None:
        return "recorded position is outside the antecedent"
    if prems[0].seq.ant != sub:
        return "minor premise antecedent is not the subtree at the recorded position"
    if prems[1].seq.ant != pf.tree_replace(c.ant, inst.path, sx.SLeaf(a)):
        return "major premise does not plug the cut formula into the hole"
    return None


_ARITY = {
    pf.ID: 0, pf.DIST: 0, pf.BOT_AX: 0, pf.TOP_AX: 0, pf.NEG1: 0, pf.NEG2: 0,
    pf.AX_T: 0, pf.AX_4: 0, pf.AX_5: 0, pf.ONE_R: 0, pf.ASSUMPTION: 0,
    pf.PROD_L: 1, pf.DIA_L: 1, pf.BOXDOWN_L: 1, pf.ONE_L_LEFT: 1, pf.ONE_L_RIGHT: 1,
    pf.EXCH: 1, pf.AND_L: 1, pf.OR_R: 1, pf.UNDER_R: 1, pf.OVER_R: 1,
    pf.DIA_R: 1, pf.BOXDOWN_R: 1,
    pf.OR_L: 2, pf.AND_R: 2, pf.PROD_R: 2, pf.UNDER_L: 2, pf.OVER_L: 2, pf.CUT: 2,
}

# the Inst fields each rule reads; a node recording any other is malformed
_READS = {
    pf.ID: (), pf.DIST: (), pf.BOT_AX: ("path",), pf.TOP_AX: (), pf.NEG1: (),
    pf.NEG2: (), pf.AX_T: (), pf.AX_4: (), pf.AX_5: (), pf.ONE_R: (),
    pf.ASSUMPTION: ("member",),
    pf.PROD_L: ("path", "main"), pf.DIA_L: ("path", "main"),
    pf.BOXDOWN_L: ("path", "main"), pf.ONE_L_LEFT: ("path",), pf.ONE_L_RIGHT: ("path",),
    pf.EXCH: ("path",), pf.AND_L: ("path", "main", "idx"), pf.OR_R: ("main", "idx"),
    pf.UNDER_R: ("main",), pf.OVER_R: ("main",), pf.DIA_R: ("main",),
    pf.BOXDOWN_R: ("main",),
    pf.OR_L: ("path", "main"), pf.AND_R: ("main",), pf.PROD_R: ("main",),
    pf.UNDER_L: ("path", "main"), pf.OVER_L: ("path", "main"), pf.CUT: ("path", "side"),
}
_UNREAD = {
    rule: tuple(f.name for f in fields(pf.Inst) if f.name not in reads)
    for rule, reads in _READS.items()
}

_VALIDATORS = {
    pf.ID: _check_id, pf.DIST: _check_dist, pf.BOT_AX: _check_bot, pf.TOP_AX: _check_top,
    pf.NEG1: _check_neg1, pf.NEG2: _check_neg2, pf.AX_T: _check_ax_t, pf.AX_4: _check_ax_4,
    pf.AX_5: _check_ax_5, pf.ONE_R: _check_one_r,
    pf.PROD_L: _check_prod_l, pf.DIA_L: _check_dia_l, pf.BOXDOWN_L: _check_boxdown_l,
    pf.ONE_L_LEFT: _check_one_l_left, pf.ONE_L_RIGHT: _check_one_l_right,
    pf.EXCH: _check_exch, pf.AND_L: _check_and_l, pf.OR_L: _check_or_l,
    pf.AND_R: _check_and_r, pf.OR_R: _check_or_r, pf.UNDER_R: _check_under_r,
    pf.OVER_R: _check_over_r, pf.DIA_R: _check_dia_r, pf.BOXDOWN_R: _check_boxdown_r,
    pf.PROD_R: _check_prod_r, pf.UNDER_L: _check_under_l, pf.OVER_L: _check_over_l,
    pf.CUT: _check_cut,
}


def check_derivation(sys: SystemSpec, phi, d: pf.Derivation, trail=None) -> bool:
    """True iff every node of d instantiates a rule of sys (with assumption
    leaves drawn literally from phi).  Every instantiation field a node
    records is validated, and a field its rule does not read is rejected,
    so malformed evidence fails even where the sequents are sound.  On
    failure, appends human-readable diagnostics to trail (a list) when one
    is supplied."""
    phi = frozenset(phi)
    allowed = allowed_rules(sys)
    validators = dict(_VALIDATORS)
    validators[pf.ASSUMPTION] = _make_assumption_check(phi)

    def fail(node, msg):
        if trail is not None:
            trail.append(f"{node.rule} at {sx.render_sequent(node.seq)}: {msg}")
        return False

    for node in pf.iter_nodes(d):
        if node.rule not in allowed:
            return fail(node, "rule not available in this system")
        try:
            validate_sequent(sys, node.seq)
        except Exception as e:  # noqa: BLE001 - report, never raise
            return fail(node, f"ill-formed sequent ({e})")
        if len(node.premises) != _ARITY[node.rule]:
            return fail(node, "wrong number of premises")
        for k in _UNREAD[node.rule]:
            if getattr(node.inst, k) is not None:
                return fail(node, f"records {k}, which the rule does not read")
        msg = validators[node.rule](node.seq, node.premises, node.inst, sys)
        if msg is not None:
            return fail(node, msg)
    return True
