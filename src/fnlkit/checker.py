"""Independent structural proof checker.

One table, `_RULES`, gives each rule its arity, the `Inst` fields it
reads, and a premise function.  From the conclusion, the recorded
instantiation and the subtree at the recorded position alone, that
function computes the premises the rule demands and the principal formula
it acts on, or says why the conclusion does not fit the rule.
`check_derivation` then checks each node once for each of: the system has
the rule, the sequent is well formed there, the arity, no field the rule
does not read is recorded, the premises are the demanded ones, and a
recorded principal formula is the one the rule acts on.  So malformed
evidence fails even where it is sound.  Nothing here calls the search
code, so a prover bug cannot vouch for itself."""

from __future__ import annotations

from dataclasses import fields
from typing import Optional

from . import proofs as pf
from . import syntax as sx
from .systems import SystemSpec, allowed_rules, validate_sequent

# rule -> (arity, the Inst fields it does not read, premise function), filled
# by @_rule from the fields each rule reads.  A premise function maps
# (conclusion, inst, subtree at inst.path or None, recorded premises, phi)
# to (premise sequents, principal formula) or to the reason it does not fit.
_RULES: dict = {}


def _rule(name, arity, reads=()):
    unread = tuple(f.name for f in fields(pf.Inst) if f.name not in reads)

    def put(fn):
        _RULES[name] = (arity, unread, fn)
        return fn

    return put


def _leaf(t) -> Optional[sx.LFormula]:
    return t.f if isinstance(t, sx.SLeaf) else None


def _plug(c, inst, t) -> sx.Sequent:
    # the conclusion with t in place of the subtree at the recorded position
    return sx.Sequent(pf.tree_replace(c.ant, inst.path, t), c.suc)


# ---------------------------------------------------------------------------
# axioms: no premises, the conclusion alone must fit


def _fits(ok, reason):
    return ((), None) if ok else reason


@_rule(pf.ID, 0)
def _id(c, inst, x, prems, phi):
    return _fits(_leaf(c.ant) == c.suc, "antecedent is not a single leaf equal to the succedent")


@_rule(pf.DIST, 0)
def _dist(c, inst, x, prems, phi):
    f = _leaf(c.ant)
    if not (isinstance(f, sx.LAnd) and isinstance(f.r, sx.LOr)):
        return "antecedent is not of shape A /\\ (B \\/ C)"
    return _fits(c.suc == sx.LOr(sx.LAnd(f.l, f.r.l), sx.LAnd(f.l, f.r.r)),
                 "succedent does not distribute the antecedent")


@_rule(pf.BOT_AX, 0, ("path",))
def _bot(c, inst, x, prems, phi):
    return _fits(_leaf(x) == sx.BOT, "recorded position does not hold bot")


@_rule(pf.TOP_AX, 0)
def _top(c, inst, x, prems, phi):
    return _fits(c.suc == sx.TOP, "succedent must be top")


@_rule(pf.NEG1, 0)
def _neg1(c, inst, x, prems, phi):
    f = _leaf(c.ant)
    return _fits(isinstance(f, sx.LAnd) and isinstance(f.r, sx.LNot) and f.l == f.r.a
                 and c.suc == sx.BOT, "not of shape A /\\ ~A => bot")


@_rule(pf.NEG2, 0)
def _neg2(c, inst, x, prems, phi):
    s = c.suc
    return _fits(_leaf(c.ant) == sx.TOP and isinstance(s, sx.LOr) and isinstance(s.r, sx.LNot)
                 and s.l == s.r.a, "not of shape top => A \\/ ~A")


@_rule(pf.AX_T, 0)
def _ax_t(c, inst, x, prems, phi):
    f = _leaf(c.ant)
    return _fits(f is not None and c.suc == sx.LDia(f), "not of shape A => <>A")


@_rule(pf.AX_4, 0)
def _ax_4(c, inst, x, prems, phi):
    return _fits(isinstance(c.suc, sx.LDia) and _leaf(c.ant) == sx.LDia(sx.LDia(c.suc.a)),
                 "not of shape <><>A => <>A")


@_rule(pf.AX_5, 0)
def _ax_5(c, inst, x, prems, phi):
    f = _leaf(c.ant)
    return _fits(isinstance(f, sx.LDia) and c.suc == sx.LNot(sx.LDia(sx.LNot(sx.LDia(f.a)))),
                 "not of shape <>A => ~<>~<>A")


@_rule(pf.ONE_R, 0)
def _one_r(c, inst, x, prems, phi):
    return _fits(c.ant is None and c.suc == sx.ONE, "not the empty-antecedent unit sequent")


@_rule(pf.ASSUMPTION, 0, ("member",))
def _assumption(c, inst, x, prems, phi):
    if c not in phi:
        return "sequent is not among the assumptions"
    return _fits(inst.member == c, "recorded member is not the conclusion")


# ---------------------------------------------------------------------------
# left rules: act on the subtree at the recorded position


@_rule(pf.PROD_L, 1, ("path", "main"))
def _prod_l(c, inst, x, prems, phi):
    f = _leaf(x)
    if not isinstance(f, sx.LProd):
        return "recorded position does not hold a product leaf"
    return (_plug(c, inst, sx.SNode(sx.SLeaf(f.l), sx.SLeaf(f.r))),), f


@_rule(pf.DIA_L, 1, ("path", "main"))
def _dia_l(c, inst, x, prems, phi):
    f = _leaf(x)
    if not isinstance(f, sx.LDia):
        return "recorded position does not hold a diamond leaf"
    return (_plug(c, inst, sx.SBracket(sx.SLeaf(f.a))),), f


@_rule(pf.BOXDOWN_L, 1, ("path", "main"))
def _boxdown_l(c, inst, x, prems, phi):
    f = _leaf(x.a) if isinstance(x, sx.SBracket) else None
    if not isinstance(f, sx.LBoxDown):
        return "recorded position is not a bracketed box-down leaf"
    return (_plug(c, inst, sx.SLeaf(f.a)),), f


@_rule(pf.ONE_L_LEFT, 1, ("path",))
def _one_l_left(c, inst, x, prems, phi):
    if not (isinstance(x, sx.SNode) and x.l == sx.SLeaf(sx.ONE)):
        return "recorded position is not a node with unit on the left"
    return (_plug(c, inst, x.r),), None


@_rule(pf.ONE_L_RIGHT, 1, ("path",))
def _one_l_right(c, inst, x, prems, phi):
    if not (isinstance(x, sx.SNode) and x.r == sx.SLeaf(sx.ONE)):
        return "recorded position is not a node with unit on the right"
    return (_plug(c, inst, x.l),), None


@_rule(pf.EXCH, 1, ("path",))
def _exch(c, inst, x, prems, phi):
    if not isinstance(x, sx.SNode):
        return "recorded position is not a node"
    return (_plug(c, inst, sx.SNode(x.r, x.l)),), None


@_rule(pf.AND_L, 1, ("path", "main", "idx"))
def _and_l(c, inst, x, prems, phi):
    f = _leaf(x)
    if not isinstance(f, sx.LAnd) or inst.idx not in (1, 2):
        return "recorded position does not hold a conjunction leaf"
    return (_plug(c, inst, sx.SLeaf(f.l if inst.idx == 1 else f.r)),), f


@_rule(pf.OR_L, 2, ("path", "main"))
def _or_l(c, inst, x, prems, phi):
    f = _leaf(x)
    if not isinstance(f, sx.LOr):
        return "recorded position does not hold a disjunction leaf"
    return (_plug(c, inst, sx.SLeaf(f.l)), _plug(c, inst, sx.SLeaf(f.r))), f


@_rule(pf.UNDER_L, 2, ("path", "main"))
def _under_l(c, inst, x, prems, phi):
    f = _leaf(x.r) if isinstance(x, sx.SNode) else None
    if not isinstance(f, sx.LUnder):
        return "recorded position is not a node with a left-residual leaf on the right"
    return (sx.Sequent(x.l, f.l), _plug(c, inst, sx.SLeaf(f.r))), f


@_rule(pf.OVER_L, 2, ("path", "main"))
def _over_l(c, inst, x, prems, phi):
    f = _leaf(x.l) if isinstance(x, sx.SNode) else None
    if not isinstance(f, sx.LOver):
        return "recorded position is not a node with a right-residual leaf on the left"
    return (_plug(c, inst, sx.SLeaf(f.l)), sx.Sequent(x.r, f.r)), f


# ---------------------------------------------------------------------------
# right rules act on the succedent; cut plugs its formula in at the position


@_rule(pf.AND_R, 2, ("main",))
def _and_r(c, inst, x, prems, phi):
    if not isinstance(c.suc, sx.LAnd):
        return "succedent is not a conjunction"
    return (sx.Sequent(c.ant, c.suc.l), sx.Sequent(c.ant, c.suc.r)), c.suc


@_rule(pf.OR_R, 1, ("main", "idx"))
def _or_r(c, inst, x, prems, phi):
    if not isinstance(c.suc, sx.LOr) or inst.idx not in (1, 2):
        return "succedent is not a disjunction"
    return (sx.Sequent(c.ant, c.suc.l if inst.idx == 1 else c.suc.r),), c.suc


@_rule(pf.UNDER_R, 1, ("main",))
def _under_r(c, inst, x, prems, phi):
    if not isinstance(c.suc, sx.LUnder):
        return "succedent is not a left residual"
    arg = sx.SLeaf(c.suc.l)
    return (sx.Sequent(arg if c.ant is None else sx.SNode(arg, c.ant), c.suc.r),), c.suc


@_rule(pf.OVER_R, 1, ("main",))
def _over_r(c, inst, x, prems, phi):
    if not isinstance(c.suc, sx.LOver):
        return "succedent is not a right residual"
    arg = sx.SLeaf(c.suc.r)
    return (sx.Sequent(arg if c.ant is None else sx.SNode(c.ant, arg), c.suc.l),), c.suc


@_rule(pf.DIA_R, 1, ("main",))
def _dia_r(c, inst, x, prems, phi):
    if not (isinstance(c.suc, sx.LDia) and isinstance(c.ant, sx.SBracket)):
        return "needs a bracketed antecedent and diamond succedent"
    return (sx.Sequent(c.ant.a, c.suc.a),), c.suc


@_rule(pf.BOXDOWN_R, 1, ("main",))
def _boxdown_r(c, inst, x, prems, phi):
    if not isinstance(c.suc, sx.LBoxDown) or c.ant is None:
        return "needs a nonempty antecedent and box-down succedent"
    return (sx.Sequent(sx.SBracket(c.ant), c.suc.a),), c.suc


@_rule(pf.PROD_R, 2, ("main",))
def _prod_r(c, inst, x, prems, phi):
    if not (isinstance(c.suc, sx.LProd) and isinstance(c.ant, sx.SNode)):
        return "needs a node antecedent and product succedent"
    return (sx.Sequent(c.ant.l, c.suc.l), sx.Sequent(c.ant.r, c.suc.r)), c.suc


@_rule(pf.CUT, 2, ("path", "side"))
def _cut(c, inst, x, prems, phi):
    a = prems[0].seq.suc  # the cut formula: the conclusion does not show it
    if inst.side is not None and inst.side != a:
        return "recorded cut formula disagrees with the minor premise"
    if c.ant is None:
        if inst.path != ():
            return "empty-antecedent cut must record the root position"
        return (sx.Sequent(None, a), sx.Sequent(sx.SLeaf(a), c.suc)), None
    if x is None:
        return "cut needs a recorded position in the antecedent"
    return (sx.Sequent(x, a), _plug(c, inst, sx.SLeaf(a))), None


def check_derivation(sys: SystemSpec, phi, d: pf.Derivation, trail=None) -> bool:
    """True iff every node of d instantiates a rule of sys, with assumption
    leaves drawn literally from phi.  On failure, appends a human-readable
    diagnostic to trail (a list) when one is supplied."""
    phi = frozenset(phi)
    allowed = allowed_rules(sys)

    def fail(node, msg):
        if trail is not None:
            trail.append(f"{node.rule} at {sx.render_sequent(node.seq)}: {msg}")
        return False

    for node in pf.post_order(d):
        c, inst, prems = node.seq, node.inst, node.premises
        if node.rule not in allowed:
            return fail(node, "rule not available in this system")
        try:
            validate_sequent(sys, c)
        except Exception as e:  # noqa: BLE001 - report, never raise
            return fail(node, f"ill-formed sequent ({e})")
        arity, unread, premises_of = _RULES[node.rule]
        if len(prems) != arity:
            return fail(node, "wrong number of premises")
        for k in unread:
            if getattr(inst, k) is not None:
                return fail(node, f"records {k}, which the rule does not read")
        x = None
        if inst.path is not None:
            try:
                x = pf.tree_at(c.ant, inst.path)
            except (TypeError, ValueError):
                pass  # the position is outside the antecedent
        got = premises_of(c, inst, x, prems, phi)
        if isinstance(got, str):
            return fail(node, got)
        want, principal = got
        for k, w in enumerate(want):
            if prems[k].seq != w:
                return fail(node, f"premise {k + 1} is not {sx.render_sequent(w)}")
        if inst.main is not None and inst.main != principal:
            return fail(node, "recorded principal formula is not the one the rule acts on")
    return True
