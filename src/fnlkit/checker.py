"""Independent structural proof checker.

One table, `_RULES`, gives each rule its arity, which of the node's
recorded fields, `path` and `idx`, it reads, and a premise function.  A
node records only what its conclusion and premises do not show: the hole
path and a pick-one rule's side.  From the conclusion, those fields and
the subtree at the recorded position (and, for cut, the minor premise's
succedent, the cut formula), the function gives the premises the rule
demands, or says why the conclusion does not fit the rule; the principal
formula, the cut formula and the assumption used are read off, never
recorded.  An axiom's function compares the conclusion's fields with the
shape it needs and builds no term.

A demanded premise is not a sequent but one of two things: a plain
(antecedent, succedent) pair, or an edit of the conclusion, the subtree a
premise has in place of the conclusion's at the recorded position (a
structure tree, or a formula for a leaf of it), the rest of its
antecedent and its succedent being the conclusion's.

`check_derivation` checks each node once for each of: the system has the
rule, the sequent is well formed there, the arity, no field the rule does
not read is recorded, and the premises are the demanded ones.  It tests
each premise in place: its succedent, then a pair's antecedent, or, for an
edit, the sibling at every step of the path and then the subtree at its
end, each by identity first, then by value.  A demanded sequent is built
only to word a failure, so no passing check builds a sequent or a path's
spine.  So malformed evidence fails even where it is sound.  Nothing here
calls the search code, so a prover bug cannot vouch for itself."""

from __future__ import annotations

from typing import Optional

from . import proofs as pf
from . import syntax as sx
from .systems import SystemSpec, allowed_rules, validate_sequent

# rule -> (arity, whether it reads the path, whether it reads idx, premise
# function), filled by @_rule.  A premise function maps (conclusion, node,
# subtree at node.path or None, recorded premises, phi) to the demanded
# premises ((antecedent, succedent) pairs, or the tree or leaf formula at
# the path) or to the reason it does not fit.
_RULES: dict = {}


def _rule(name, arity, reads=()):
    def put(fn):
        _RULES[name] = (arity, "path" in reads, "idx" in reads, fn)
        return fn

    return put


def _leaf(t) -> Optional[sx.LFormula]:
    return t.f if isinstance(t, sx.SLeaf) else None


# ---------------------------------------------------------------------------
# axioms: no premises, the conclusion alone must fit


def _fits(ok, reason):
    return () if ok else reason


@_rule(pf.ID, 0)
def _id(c, n, x, prems, phi):
    return _fits(_leaf(c.ant) == c.suc,
                 "antecedent is not a single leaf equal to the succedent")


@_rule(pf.DIST, 0)
def _dist(c, n, x, prems, phi):
    f = _leaf(c.ant)
    if not (isinstance(f, sx.LAnd) and isinstance(f.r, sx.LOr)):
        return "antecedent is not of shape A /\\ (B \\/ C)"
    s = c.suc
    return _fits(isinstance(s, sx.LOr) and isinstance(s.l, sx.LAnd) and isinstance(s.r, sx.LAnd)
                 and s.l.l == f.l and s.l.r == f.r.l
                 and s.r.l == f.l and s.r.r == f.r.r,
                 "succedent does not distribute the antecedent")


@_rule(pf.BOT_AX, 0, ("path",))
def _bot(c, n, x, prems, phi):
    return _fits(_leaf(x) == sx.BOT, "recorded position does not hold bot")


@_rule(pf.TOP_AX, 0)
def _top(c, n, x, prems, phi):
    return _fits(c.suc == sx.TOP, "succedent must be top")


@_rule(pf.NEG1, 0)
def _neg1(c, n, x, prems, phi):
    f = _leaf(c.ant)
    return _fits(isinstance(f, sx.LAnd) and isinstance(f.r, sx.LNot) and f.l == f.r.a
                 and c.suc == sx.BOT, "not of shape A /\\ ~A => bot")


@_rule(pf.NEG2, 0)
def _neg2(c, n, x, prems, phi):
    s = c.suc
    return _fits(_leaf(c.ant) == sx.TOP and isinstance(s, sx.LOr)
                 and isinstance(s.r, sx.LNot) and s.l == s.r.a,
                 "not of shape top => A \\/ ~A")


@_rule(pf.AX_T, 0)
def _ax_t(c, n, x, prems, phi):
    f = _leaf(c.ant)
    return _fits(f is not None and isinstance(c.suc, sx.LDia) and c.suc.a == f,
                 "not of shape A => <>A")


@_rule(pf.AX_4, 0)
def _ax_4(c, n, x, prems, phi):
    f = _leaf(c.ant)
    return _fits(isinstance(c.suc, sx.LDia) and isinstance(f, sx.LDia)
                 and isinstance(f.a, sx.LDia) and f.a.a == c.suc.a,
                 "not of shape <><>A => <>A")


@_rule(pf.AX_5, 0)
def _ax_5(c, n, x, prems, phi):
    f = _leaf(c.ant)
    s = c.suc
    return _fits(isinstance(f, sx.LDia) and isinstance(s, sx.LNot) and isinstance(s.a, sx.LDia)
                 and isinstance(s.a.a, sx.LNot) and isinstance(s.a.a.a, sx.LDia)
                 and s.a.a.a.a == f.a, "not of shape <>A => ~<>~<>A")


@_rule(pf.ONE_R, 0)
def _one_r(c, n, x, prems, phi):
    return _fits(c.ant is None and c.suc == sx.ONE, "not the empty-antecedent unit sequent")


@_rule(pf.ASSUMPTION, 0)
def _assumption(c, n, x, prems, phi):
    return _fits(c in phi, "sequent is not among the assumptions")


# ---------------------------------------------------------------------------
# left rules: act on the subtree at the recorded position


@_rule(pf.PROD_L, 1, ("path",))
def _prod_l(c, n, x, prems, phi):
    f = _leaf(x)
    if not isinstance(f, sx.LProd):
        return "recorded position does not hold a product leaf"
    return (sx.SNode(sx.SLeaf(f.l), sx.SLeaf(f.r)),)


@_rule(pf.DIA_L, 1, ("path",))
def _dia_l(c, n, x, prems, phi):
    f = _leaf(x)
    if not isinstance(f, sx.LDia):
        return "recorded position does not hold a diamond leaf"
    return (sx.SBracket(sx.SLeaf(f.a)),)


@_rule(pf.BOXDOWN_L, 1, ("path",))
def _boxdown_l(c, n, x, prems, phi):
    f = _leaf(x.a) if isinstance(x, sx.SBracket) else None
    if not isinstance(f, sx.LBoxDown):
        return "recorded position is not a bracketed box-down leaf"
    return (f.a,)


@_rule(pf.ONE_L_LEFT, 1, ("path",))
def _one_l_left(c, n, x, prems, phi):
    if not (isinstance(x, sx.SNode) and _leaf(x.l) == sx.ONE):
        return "recorded position is not a node with unit on the left"
    return (x.r,)


@_rule(pf.ONE_L_RIGHT, 1, ("path",))
def _one_l_right(c, n, x, prems, phi):
    if not (isinstance(x, sx.SNode) and _leaf(x.r) == sx.ONE):
        return "recorded position is not a node with unit on the right"
    return (x.l,)


@_rule(pf.EXCH, 1, ("path",))
def _exch(c, n, x, prems, phi):
    if not isinstance(x, sx.SNode):
        return "recorded position is not a node"
    return (sx.SNode(x.r, x.l),)


@_rule(pf.AND_L, 1, ("path", "idx"))
def _and_l(c, n, x, prems, phi):
    f = _leaf(x)
    if not isinstance(f, sx.LAnd) or n.idx not in (1, 2):
        return "recorded position does not hold a conjunction leaf"
    return (f.l if n.idx == 1 else f.r,)


@_rule(pf.OR_L, 2, ("path",))
def _or_l(c, n, x, prems, phi):
    f = _leaf(x)
    if not isinstance(f, sx.LOr):
        return "recorded position does not hold a disjunction leaf"
    return (f.l, f.r)


@_rule(pf.UNDER_L, 2, ("path",))
def _under_l(c, n, x, prems, phi):
    f = _leaf(x.r) if isinstance(x, sx.SNode) else None
    if not isinstance(f, sx.LUnder):
        return "recorded position is not a node with a left-residual leaf on the right"
    return ((x.l, f.l), f.r)


@_rule(pf.OVER_L, 2, ("path",))
def _over_l(c, n, x, prems, phi):
    f = _leaf(x.l) if isinstance(x, sx.SNode) else None
    if not isinstance(f, sx.LOver):
        return "recorded position is not a node with a right-residual leaf on the left"
    return (f.l, (x.r, f.r))


# ---------------------------------------------------------------------------
# right rules act on the succedent; cut plugs its formula in at the position


@_rule(pf.AND_R, 2)
def _and_r(c, n, x, prems, phi):
    if not isinstance(c.suc, sx.LAnd):
        return "succedent is not a conjunction"
    return ((c.ant, c.suc.l), (c.ant, c.suc.r))


@_rule(pf.OR_R, 1, ("idx",))
def _or_r(c, n, x, prems, phi):
    if not isinstance(c.suc, sx.LOr) or n.idx not in (1, 2):
        return "succedent is not a disjunction"
    return ((c.ant, c.suc.l if n.idx == 1 else c.suc.r),)


@_rule(pf.UNDER_R, 1)
def _under_r(c, n, x, prems, phi):
    if not isinstance(c.suc, sx.LUnder):
        return "succedent is not a left residual"
    arg = sx.SLeaf(c.suc.l)
    return ((arg if c.ant is None else sx.SNode(arg, c.ant), c.suc.r),)


@_rule(pf.OVER_R, 1)
def _over_r(c, n, x, prems, phi):
    if not isinstance(c.suc, sx.LOver):
        return "succedent is not a right residual"
    arg = sx.SLeaf(c.suc.r)
    return ((arg if c.ant is None else sx.SNode(c.ant, arg), c.suc.l),)


@_rule(pf.DIA_R, 1)
def _dia_r(c, n, x, prems, phi):
    if not (isinstance(c.suc, sx.LDia) and isinstance(c.ant, sx.SBracket)):
        return "needs a bracketed antecedent and diamond succedent"
    return ((c.ant.a, c.suc.a),)


@_rule(pf.BOXDOWN_R, 1)
def _boxdown_r(c, n, x, prems, phi):
    if not isinstance(c.suc, sx.LBoxDown) or c.ant is None:
        return "needs a nonempty antecedent and box-down succedent"
    return ((sx.SBracket(c.ant), c.suc.a),)


@_rule(pf.PROD_R, 2)
def _prod_r(c, n, x, prems, phi):
    if not (isinstance(c.suc, sx.LProd) and isinstance(c.ant, sx.SNode)):
        return "needs a node antecedent and product succedent"
    return ((c.ant.l, c.suc.l), (c.ant.r, c.suc.r))


@_rule(pf.CUT, 2, ("path",))
def _cut(c, n, x, prems, phi):
    a = prems[0].seq.suc  # the cut formula: the conclusion does not show it
    if c.ant is None:
        if n.path != ():
            return "empty-antecedent cut must record the root position"
        return ((None, a), a)
    if x is None:
        return "cut needs a recorded position in the antecedent"
    return ((x, a), a)


def check_derivation(sys: SystemSpec, phi, d: pf.Derivation, trail=None) -> bool:
    """True iff every node of d instantiates a rule of sys, with assumption
    leaves drawn literally from phi.  On failure, appends a human-readable
    diagnostic to trail (a list) when one is supplied.

    Every node's conclusion goes through `systems.validate_sequent`, which
    decides the common one-leaf sequent from two vocabulary masks."""
    phi = frozenset(phi)
    allowed = allowed_rules(sys)

    def fail(node, msg):
        if trail is not None:
            trail.append(f"{node.rule} at {sx.render_sequent(node.seq)}: {msg}")
        return False

    for node in pf.post_order(d):
        c, path, prems = node.seq, node.path, node.premises
        if node.rule not in allowed:
            return fail(node, "rule not available in this system")
        try:
            validate_sequent(sys, c)
        except Exception as e:  # noqa: BLE001 - report, never raise
            return fail(node, f"ill-formed sequent ({e})")
        arity, reads_path, reads_idx, premises_of = _RULES[node.rule]
        if len(prems) != arity:
            return fail(node, "wrong number of premises")
        if path is not None and not reads_path:
            return fail(node, "records path, which the rule does not read")
        if node.idx is not None and not reads_idx:
            return fail(node, "records idx, which the rule does not read")
        x = None
        if path is not None:
            try:
                x = pf.tree_at(c.ant, path)
            except (TypeError, ValueError):
                pass  # the position is outside the antecedent
        want = premises_of(c, node, x, prems, phi)
        if isinstance(want, str):
            return fail(node, want)
        for k, w in enumerate(want):
            s = prems[k].seq
            if type(w) is tuple:
                ok = ((s.suc is w[1] or s.suc == w[1])
                      and (s.ant is w[0] or s.ant == w[0]))
            else:
                ok = (s.suc is c.suc or s.suc == c.suc) and _plugged(c.ant, path, w, s.ant)
            if not ok:
                w = sx.render_sequent(_demanded(c, path, w))
                return fail(node, f"premise {k + 1} is not {w}")
    return True


def _plugged(t, path, hole, u) -> bool:
    """Whether u is t with hole (a tree, or a formula for a leaf of it) in
    place of the subtree at path, a position of t: the same class at every
    step and an equal sibling, then the hole."""
    for step in path:
        if u.__class__ is not t.__class__:
            return False
        if step == pf.LEFT:
            if not (u.r is t.r or u.r == t.r):
                return False
            t, u = t.l, u.l
        elif step == pf.RIGHT:
            if not (u.l is t.l or u.l == t.l):
                return False
            t, u = t.r, u.r
        else:
            t, u = t.a, u.a
    if isinstance(hole, sx.LFormula):
        return type(u) is sx.SLeaf and (u.f is hole or u.f == hole)
    return u is hole or u == hole


def _demanded(c, path, w) -> sx.Sequent:
    # the premise a demand stands for, built only to word a failure
    if type(w) is tuple:
        return sx.Sequent(*w)
    hole = sx.SLeaf(w) if isinstance(w, sx.LFormula) else w
    return sx.Sequent(pf.tree_replace(c.ant, path, hole), c.suc)
