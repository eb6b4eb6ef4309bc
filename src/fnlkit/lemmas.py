"""Certified derivation builders.

Every function here returns a Derivation object that the independent
checker accepts; shape mismatches raise LemmaError immediately rather
than producing a bad proof.  On top of the one-node-per-rule
constructors sit the algebraic workhorses: transitivity chains,
monotonicity in every connective, distribution by cases
(`dist_or_l`, `dist_pairs`), the excluded-middle case split that every
classical step takes (`by_cases`), the double-negation and De Morgan
conversions, and `lat_le`/`bool_le`, which decide (and certify) lattice
and boolean entailments between formulas built from opaque generators.

Both provers share one truth-vector kernel: a formula's vector holds its
value under every 0/1 valuation of its generators as the bits of one int,
top all ones, bot 0, /\\ as &, \\/ as |, and ~ as the complement in the
boolean prover (a generator in the lattice one).  Since a lattice or
boolean law holds iff it holds in the two-element lattice or algebra, the
vectors decide an entailment without a proof search.  The provers use them
only to decline attempts that would fail, so a certificate depends on the
search order alone, which `lat_le` states."""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from . import models as md
from . import proofs as pf
from . import syntax as sx
from .errors import LemmaError


def _fit(cond: bool, what: str) -> None:
    if not cond:
        raise LemmaError(f"derivation pieces do not fit: {what}")


def _leaf_at(ant: sx.StructTree, path: pf.Path, a: sx.LFormula) -> bool:
    # whether the subtree of ant at path is a leaf of a, tested in place
    t = pf.tree_at(ant, path)
    return type(t) is sx.SLeaf and (t.f is a or t.f == a)


def _leaf_swapped(ant: sx.StructTree, other, path: pf.Path, a: sx.LFormula) -> bool:
    # whether other is ant with a leaf of a at path, a position of ant,
    # tested in place: the same class and sibling at every step, then the leaf
    for step in path:
        if type(other) is not type(ant):
            return False
        if step == pf.LEFT:
            if other.r != ant.r:
                return False
            ant, other = ant.l, other.l
        elif step == pf.RIGHT:
            if other.l != ant.l:
                return False
            ant, other = ant.r, other.r
        else:
            ant, other = ant.a, other.a
    return type(other) is sx.SLeaf and other.f == a


# ---------------------------------------------------------------------------
# one node per rule


def did(a: sx.LFormula) -> pf.Derivation:
    """A => A."""
    return pf.node(sx.simple(a, a), pf.ID)


def dtop(ant: Optional[sx.StructTree] = None) -> pf.Derivation:
    """G => top."""
    return pf.node(sx.Sequent(ant, sx.TOP), pf.TOP_AX)


def dbot(ant: sx.StructTree, path: pf.Path, suc: sx.LFormula) -> pf.Derivation:
    """G[bot] => A."""
    _fit(_leaf_at(ant, path, sx.BOT), "no bot leaf at path")
    return pf.node(sx.Sequent(ant, suc), pf.BOT_AX, [], path)


def dbot_f(suc: sx.LFormula) -> pf.Derivation:
    """bot => A."""
    return dbot(sx.SLeaf(sx.BOT), (), suc)


def dD(a: sx.LFormula, b: sx.LFormula, c: sx.LFormula) -> pf.Derivation:
    """A /\\ (B \\/ C) => (A /\\ B) \\/ (A /\\ C)."""
    seq = sx.simple(sx.LAnd(a, sx.LOr(b, c)), sx.LOr(sx.LAnd(a, b), sx.LAnd(a, c)))
    return pf.node(seq, pf.DIST)


def dneg1(a: sx.LFormula) -> pf.Derivation:
    """A /\\ ~A => bot."""
    return pf.node(sx.simple(sx.LAnd(a, sx.LNot(a)), sx.BOT), pf.NEG1)


def dneg2(a: sx.LFormula) -> pf.Derivation:
    """top => A \\/ ~A."""
    return pf.node(sx.simple(sx.TOP, sx.LOr(a, sx.LNot(a))), pf.NEG2)


def dassume(seq: sx.Sequent) -> pf.Derivation:
    """A member of the assumption set, verbatim."""
    return pf.node(seq, pf.ASSUMPTION)


def dcut(minor: pf.Derivation, major: pf.Derivation, path: pf.Path = ()) -> pf.Derivation:
    """From D => A and G[A] => B conclude G[D] => B."""
    a = minor.seq.suc
    m_ant = major.seq.ant
    _fit(m_ant is not None, "cut into an empty antecedent")
    _fit(_leaf_at(m_ant, path, a), "major premise lacks the cut formula at path")
    if minor.seq.ant is None:
        _fit(path == (), "an empty minor premise can only cut at the root")
        new_ant = None
    else:
        new_ant = pf.tree_replace(m_ant, path, minor.seq.ant)
    seq = sx.Sequent(new_ant, major.seq.suc)
    return pf.node(seq, pf.CUT, [minor, major], path)


def le_trans(*ds: pf.Derivation) -> pf.Derivation:
    """Chain G => A1, A1 => A2, ..., An-1 => An into G => An.  Identity
    links are dropped, so no cut has an identity premise; an all-identity
    chain is its first link.  A dropped link must fit the previous link's
    succedent or, when it leads, the next link's antecedent."""
    _fit(len(ds) >= 1, "empty chain")
    for i, d in enumerate(ds):
        if d.rule != pf.ID:
            continue
        if i:
            _fit(ds[i - 1].seq.suc == d.seq.suc,
                 "identity link does not fit the previous link")
        elif len(ds) > 1:
            ant = ds[1].seq.ant
            _fit(isinstance(ant, sx.SLeaf) and ant.f == d.seq.suc,
                 "leading identity link does not fit the next link")
    links = [d for d in ds if d.rule != pf.ID] or ds[:1]
    out = links[0]
    for d in links[1:]:
        out = dcut(out, d, ())
    return out


def dand_r(d1: pf.Derivation, d2: pf.Derivation) -> pf.Derivation:
    """From G => A and G => B conclude G => A /\\ B."""
    _fit(d1.seq.ant == d2.seq.ant, "conjunction premises differ in antecedent")
    seq = sx.Sequent(d1.seq.ant, sx.LAnd(d1.seq.suc, d2.seq.suc))
    return pf.node(seq, pf.AND_R, [d1, d2])


def dand_l(d: pf.Derivation, main: sx.LAnd, idx: int, path: pf.Path = ()) -> pf.Derivation:
    """From G[A_idx] => C conclude G[A1 /\\ A2] => C."""
    sub = main.l if idx == 1 else main.r
    ant = d.seq.ant
    _fit(ant is not None and _leaf_at(ant, path, sub), "premise lacks the conjunct")
    seq = sx.Sequent(pf.tree_replace(ant, path, sx.SLeaf(main)), d.seq.suc)
    return pf.node(seq, pf.AND_L, [d], path, idx)


def dor_r(d: pf.Derivation, main: sx.LOr, idx: int) -> pf.Derivation:
    """From G => A_idx conclude G => A1 \\/ A2."""
    sub = main.l if idx == 1 else main.r
    _fit(d.seq.suc == sub, "premise does not prove the chosen disjunct")
    return pf.node(sx.Sequent(d.seq.ant, main), pf.OR_R, [d], idx=idx)


def dor_l(d1: pf.Derivation, d2: pf.Derivation, main: sx.LOr, path: pf.Path = ()) -> pf.Derivation:
    """From G[A] => C and G[B] => C conclude G[A \\/ B] => C."""
    ant = d1.seq.ant
    _fit(ant is not None and _leaf_at(ant, path, main.l), "left premise mismatch")
    _fit(d2.seq.suc == d1.seq.suc and _leaf_swapped(ant, d2.seq.ant, path, main.r),
         "right premise mismatch")
    seq = sx.Sequent(pf.tree_replace(ant, path, sx.SLeaf(main)), d1.seq.suc)
    return pf.node(seq, pf.OR_L, [d1, d2], path)


def dprod_r(d1: pf.Derivation, d2: pf.Derivation) -> pf.Derivation:
    """From G => A and D => B conclude G o D => A * B."""
    _fit(d1.seq.ant is not None and d2.seq.ant is not None, "product needs nonempty sides")
    seq = sx.Sequent(sx.SNode(d1.seq.ant, d2.seq.ant), sx.LProd(d1.seq.suc, d2.seq.suc))
    return pf.node(seq, pf.PROD_R, [d1, d2])


def dprod_l(d: pf.Derivation, path: pf.Path = ()) -> pf.Derivation:
    """From G[A o B] => C (two leaves) conclude G[A * B] => C."""
    ant = d.seq.ant
    _fit(ant is not None, "empty antecedent")
    x = pf.tree_at(ant, path)
    _fit(
        isinstance(x, sx.SNode) and isinstance(x.l, sx.SLeaf) and isinstance(x.r, sx.SLeaf),
        "no two-leaf node at path",
    )
    main = sx.LProd(x.l.f, x.r.f)
    seq = sx.Sequent(pf.tree_replace(ant, path, sx.SLeaf(main)), d.seq.suc)
    return pf.node(seq, pf.PROD_L, [d], path)


def dunder_r(d: pf.Derivation, a: sx.LFormula) -> pf.Derivation:
    """From A o G => B (or A => B) conclude G => A \\ B (=> A \\ B)."""
    ant = d.seq.ant
    if ant == sx.SLeaf(a):
        rest = None
    else:
        _fit(isinstance(ant, sx.SNode) and ant.l == sx.SLeaf(a), "antecedent does not start with A")
        rest = ant.r
    main = sx.LUnder(a, d.seq.suc)
    return pf.node(sx.Sequent(rest, main), pf.UNDER_R, [d])


def dover_r(d: pf.Derivation, b: sx.LFormula) -> pf.Derivation:
    """From G o B => A (or B => A) conclude G => A / B (=> A / B)."""
    ant = d.seq.ant
    if ant == sx.SLeaf(b):
        rest = None
    else:
        _fit(isinstance(ant, sx.SNode) and ant.r == sx.SLeaf(b), "antecedent does not end with B")
        rest = ant.l
    main = sx.LOver(d.seq.suc, b)
    return pf.node(sx.Sequent(rest, main), pf.OVER_R, [d])


def dunder_l(minor: pf.Derivation, major: pf.Derivation, path: pf.Path = ()) -> pf.Derivation:
    """From D => A and G[B] => C conclude G[D o (A \\ B)] => C."""
    _fit(minor.seq.ant is not None, "minor premise must be nonempty")
    m_ant = major.seq.ant
    _fit(m_ant is not None, "major premise must be nonempty")
    hole = pf.tree_at(m_ant, path)
    _fit(isinstance(hole, sx.SLeaf), "major premise hole is not a leaf")
    main = sx.LUnder(minor.seq.suc, hole.f)
    new = pf.tree_replace(m_ant, path, sx.SNode(minor.seq.ant, sx.SLeaf(main)))
    seq = sx.Sequent(new, major.seq.suc)
    return pf.node(seq, pf.UNDER_L, [minor, major], path)


def dover_l(major: pf.Derivation, minor: pf.Derivation, path: pf.Path = ()) -> pf.Derivation:
    """From G[A] => C and D => B conclude G[(A / B) o D] => C."""
    _fit(minor.seq.ant is not None, "minor premise must be nonempty")
    m_ant = major.seq.ant
    _fit(m_ant is not None, "major premise must be nonempty")
    hole = pf.tree_at(m_ant, path)
    _fit(isinstance(hole, sx.SLeaf), "major premise hole is not a leaf")
    main = sx.LOver(hole.f, minor.seq.suc)
    new = pf.tree_replace(m_ant, path, sx.SNode(sx.SLeaf(main), minor.seq.ant))
    seq = sx.Sequent(new, major.seq.suc)
    return pf.node(seq, pf.OVER_L, [major, minor], path)


def ddia_r(d: pf.Derivation) -> pf.Derivation:
    """From G => A conclude < G > => <>A."""
    _fit(d.seq.ant is not None, "empty antecedent cannot be bracketed")
    main = sx.LDia(d.seq.suc)
    return pf.node(sx.Sequent(sx.SBracket(d.seq.ant), main), pf.DIA_R, [d])


def ddia_l(d: pf.Derivation, path: pf.Path = ()) -> pf.Derivation:
    """From G[< A >] => B conclude G[<>A] => B."""
    ant = d.seq.ant
    x = pf.tree_at(ant, path) if ant is not None else None
    _fit(isinstance(x, sx.SBracket) and isinstance(x.a, sx.SLeaf), "no bracketed leaf at path")
    main = sx.LDia(x.a.f)
    seq = sx.Sequent(pf.tree_replace(ant, path, sx.SLeaf(main)), d.seq.suc)
    return pf.node(seq, pf.DIA_L, [d], path)


def dboxdown_r(d: pf.Derivation) -> pf.Derivation:
    """From < G > => A conclude G => []vA."""
    _fit(isinstance(d.seq.ant, sx.SBracket), "antecedent is not bracketed")
    main = sx.LBoxDown(d.seq.suc)
    return pf.node(sx.Sequent(d.seq.ant.a, main), pf.BOXDOWN_R, [d])


def dassume_prod(member: sx.Sequent) -> pf.Derivation:
    """From assumption A * B => C conclude A o B => C."""
    f = member.ant.f if isinstance(member.ant, sx.SLeaf) else None
    _fit(isinstance(f, sx.LProd), "assumption is not a product sequent")
    return dcut(dprod_r(did(f.l), did(f.r)), dassume(member), ())


# ---------------------------------------------------------------------------
# monotonicity and small algebra


def comm_and(a: sx.LFormula, b: sx.LFormula) -> pf.Derivation:
    """A /\\ B => B /\\ A."""
    main = sx.LAnd(a, b)
    return dand_r(dand_l(did(b), main, 2), dand_l(did(a), main, 1))


def comm_or(a: sx.LFormula, b: sx.LFormula) -> pf.Derivation:
    """A \\/ B => B \\/ A."""
    flip = sx.LOr(b, a)
    return dor_l(dor_r(did(a), flip, 2), dor_r(did(b), flip, 1), sx.LOr(a, b))


def dist_or_l(d1: pf.Derivation, d2: pf.Derivation) -> pf.Derivation:
    """From X /\\ A => C and X /\\ B => C conclude X /\\ (A \\/ B) => C:
    one distribution and a case split."""
    xa = d1.seq.ant.f if isinstance(d1.seq.ant, sx.SLeaf) else None
    xb = d2.seq.ant.f if isinstance(d2.seq.ant, sx.SLeaf) else None
    _fit(isinstance(xa, sx.LAnd) and isinstance(xb, sx.LAnd) and xa.l == xb.l,
         "premises are not conjunctions with one left conjunct")
    return le_trans(dD(xa.l, xa.r, xb.r), dor_l(d1, d2, sx.LOr(xa, xb)))


def dist_pairs(x: sx.LAnd, d1: pf.Derivation, d2: pf.Derivation) -> pf.Derivation:
    """From P1 => C and P2 => C, where Pi conjoins X's i-th conjunct Xi
    with a formula Ai in either order, conclude X /\\ (A1 \\/ A2) => C: a
    projection X /\\ Ai => Pi into each premise, then `dist_or_l`.  It adds
    17 nodes to the premises', whatever the formulas."""
    cases = []
    for idx, d in ((1, d1), (2, d2)):
        pair = d.seq.ant.f if isinstance(d.seq.ant, sx.SLeaf) else None
        _fit(isinstance(pair, sx.LAnd), "premise is not a conjunction sequent")
        xi = x.l if idx == 1 else x.r
        first = pair.l == xi
        a = pair.r if first else pair.l
        main = sx.LAnd(x, a)
        part = dand_l(dand_l(did(xi), x, idx), main, 1)
        other = dand_l(did(a), main, 2)
        cases.append(le_trans(dand_r(part, other) if first else dand_r(other, part), d))
    return dist_or_l(*cases)


def and_mono(d1: pf.Derivation, d2: pf.Derivation) -> pf.Derivation:
    """From A => A' and B => B' conclude A /\\ B => A' /\\ B'."""
    a = d1.seq.ant.f if isinstance(d1.seq.ant, sx.SLeaf) else None
    b = d2.seq.ant.f if isinstance(d2.seq.ant, sx.SLeaf) else None
    _fit(a is not None and b is not None, "monotonicity needs simple premises")
    main = sx.LAnd(a, b)
    return dand_r(dand_l(d1, main, 1), dand_l(d2, main, 2))


def or_mono(d1: pf.Derivation, d2: pf.Derivation) -> pf.Derivation:
    """From A => A' and B => B' conclude A \\/ B => A' \\/ B'."""
    out = sx.LOr(d1.seq.suc, d2.seq.suc)
    a = d1.seq.ant.f if isinstance(d1.seq.ant, sx.SLeaf) else None
    b = d2.seq.ant.f if isinstance(d2.seq.ant, sx.SLeaf) else None
    _fit(a is not None and b is not None, "monotonicity needs simple premises")
    return dor_l(dor_r(d1, out, 1), dor_r(d2, out, 2), sx.LOr(a, b))


def prod_mono(d1: pf.Derivation, d2: pf.Derivation) -> pf.Derivation:
    """From A => A' and B => B' conclude A * B => A' * B'."""
    return dprod_l(dprod_r(d1, d2))


def under_mono(d1: pf.Derivation, d2: pf.Derivation) -> pf.Derivation:
    """From A' => A and B => B' conclude A \\ B => A' \\ B'."""
    b = d2.seq.ant.f if isinstance(d2.seq.ant, sx.SLeaf) else None
    _fit(b is not None, "monotonicity needs simple premises")
    return dunder_r(dunder_l(d1, d2, ()), d1.seq.ant.f)


def over_mono(d1: pf.Derivation, d2: pf.Derivation) -> pf.Derivation:
    """From A => A' and B' => B conclude A / B => A' / B'."""
    a = d1.seq.ant.f if isinstance(d1.seq.ant, sx.SLeaf) else None
    _fit(a is not None, "monotonicity needs simple premises")
    return dover_r(dover_l(d1, d2, ()), d2.seq.ant.f)


def dia_mono(d: pf.Derivation) -> pf.Derivation:
    """From A => B conclude <>A => <>B."""
    return ddia_l(ddia_r(d))


def boxdown_mono(d: pf.Derivation) -> pf.Derivation:
    """From A => B conclude []vA => []vB."""
    a = d.seq.ant.f if isinstance(d.seq.ant, sx.SLeaf) else None
    _fit(a is not None, "monotonicity needs simple premises")
    inner = pf.node(
        sx.Sequent(sx.SBracket(sx.SLeaf(sx.LBoxDown(a))), d.seq.suc),
        pf.BOXDOWN_L,
        [d],
        (),
    )
    return dboxdown_r(inner)


def by_cases(d1: pf.Derivation, d2: pf.Derivation) -> pf.Derivation:
    """From X /\\ g => C and X /\\ ~g => C conclude X => C: excluded middle
    on g (top => g \\/ ~g), one distribution and a case split."""
    f = d1.seq.ant.f if isinstance(d1.seq.ant, sx.SLeaf) else None
    _fit(isinstance(f, sx.LAnd), "first case is not a conjunction sequent")
    x, g = f.l, f.r
    start, dist = did(x), dD(x, g, sx.LNot(g))
    lem = dand_r(start, le_trans(dtop(start.seq.ant), dneg2(g)))
    return le_trans(lem, dist, dor_l(d1, d2, dist.seq.suc))


def neg_intro(d: pf.Derivation) -> pf.Derivation:
    """From X /\\ Y => bot conclude X => ~Y."""
    f = d.seq.ant.f if isinstance(d.seq.ant, sx.SLeaf) else None
    _fit(isinstance(f, sx.LAnd) and d.seq.suc == sx.BOT, "premise is not a refutation pair")
    ny = sx.LNot(f.r)
    return by_cases(le_trans(d, dbot_f(ny)), dand_l(did(ny), sx.LAnd(f.l, ny), 2))


def neg_anti(d: pf.Derivation) -> pf.Derivation:
    """From A => B conclude ~B => ~A."""
    a = d.seq.ant.f if isinstance(d.seq.ant, sx.SLeaf) else None
    _fit(a is not None, "antitonicity needs a simple premise")
    b = d.seq.suc
    nb = sx.LNot(b)
    refute = le_trans(and_mono(did(nb), d), comm_and(nb, b), dneg1(b))
    return neg_intro(refute)


def cong_replace(
    c: sx.LFormula,
    a: sx.LFormula,
    b: sx.LFormula,
    dab: pf.Derivation,
    dba: pf.Derivation,
) -> tuple[sx.LFormula, pf.Derivation, pf.Derivation]:
    """Replace every occurrence of a inside c by b and certify both
    directions: returns (c', c => c', c' => c).  The residuals flip the
    argument direction and a negation flips the whole step."""
    _fit(dab.seq == sx.simple(a, b) and dba.seq == sx.simple(b, a),
         "premises must be a two-way pair")
    if c == a:
        return b, dab, dba
    if isinstance(c, (sx.LAnd, sx.LOr, sx.LProd, sx.LUnder, sx.LOver)):
        l2, fl, bl = cong_replace(c.l, a, b, dab, dba)
        r2, fr, br = cong_replace(c.r, a, b, dab, dba)
        if l2 == c.l and r2 == c.r:
            return c, did(c), did(c)
        c2 = type(c)(l2, r2)
        if isinstance(c, sx.LAnd):
            return c2, and_mono(fl, fr), and_mono(bl, br)
        if isinstance(c, sx.LOr):
            return c2, or_mono(fl, fr), or_mono(bl, br)
        if isinstance(c, sx.LProd):
            return c2, prod_mono(fl, fr), prod_mono(bl, br)
        if isinstance(c, sx.LUnder):
            return c2, under_mono(bl, fr), under_mono(fl, br)
        return c2, over_mono(fl, br), over_mono(bl, fr)
    if isinstance(c, sx.LNot):
        a2, f, bwd = cong_replace(c.a, a, b, dab, dba)
        if a2 == c.a:
            return c, did(c), did(c)
        return sx.LNot(a2), neg_anti(bwd), neg_anti(f)
    if isinstance(c, (sx.LDia, sx.LBoxDown)):
        a2, f, bwd = cong_replace(c.a, a, b, dab, dba)
        if a2 == c.a:
            return c, did(c), did(c)
        mono = dia_mono if isinstance(c, sx.LDia) else boxdown_mono
        return type(c)(a2), mono(f), mono(bwd)
    return c, did(c), did(c)


def dnn_intro(a: sx.LFormula) -> pf.Derivation:
    """A => ~~A."""
    return neg_intro(dneg1(a))


def dnn_elim(a: sx.LFormula) -> pf.Derivation:
    """~~A => A."""
    na, nna = sx.LNot(a), sx.LNot(sx.LNot(a))
    left = dand_l(did(a), sx.LAnd(nna, a), 2)
    return by_cases(left, le_trans(comm_and(nna, na), dneg1(na), dbot_f(a)))


def dneg_top() -> pf.Derivation:
    """~top => bot."""
    nt = sx.LNot(sx.TOP)
    return le_trans(dand_r(dtop(sx.SLeaf(nt)), did(nt)), dneg1(sx.TOP))


def dtop_negbot() -> pf.Derivation:
    """top => ~bot."""
    nb = sx.LNot(sx.BOT)
    return le_trans(dneg2(sx.BOT), dor_l(dbot_f(nb), did(nb), sx.LOr(sx.BOT, nb)))


def dm_and_fwd(a: sx.LFormula, b: sx.LFormula) -> pf.Derivation:
    """~(A /\\ B) => ~A \\/ ~B."""
    ab = sx.LAnd(a, b)
    x = sx.LNot(ab)
    na, nb = sx.LNot(a), sx.LNot(b)
    target = sx.LOr(na, nb)
    xa = sx.LAnd(x, a)
    clash = le_trans(lat_le_strict(sx.LAnd(xa, b), sx.LAnd(ab, x)), dneg1(ab), dbot_f(target))
    left = by_cases(clash, lat_le_strict(sx.LAnd(xa, nb), target))
    return by_cases(left, lat_le_strict(sx.LAnd(x, na), target))


def dm_and_bwd(a: sx.LFormula, b: sx.LFormula) -> pf.Derivation:
    """~A \\/ ~B => ~(A /\\ B)."""
    ab = sx.LAnd(a, b)
    left = neg_anti(lat_le_strict(ab, a))
    right = neg_anti(lat_le_strict(ab, b))
    return dor_l(left, right, sx.LOr(sx.LNot(a), sx.LNot(b)))


def dm_or_fwd(a: sx.LFormula, b: sx.LFormula) -> pf.Derivation:
    """~(A \\/ B) => ~A /\\ ~B."""
    ab = sx.LOr(a, b)
    return dand_r(neg_anti(dor_r(did(a), ab, 1)), neg_anti(dor_r(did(b), ab, 2)))


def dm_or_bwd(a: sx.LFormula, b: sx.LFormula) -> pf.Derivation:
    """~A /\\ ~B => ~(A \\/ B)."""
    x = sx.LAnd(sx.LNot(a), sx.LNot(b))
    return neg_intro(dist_pairs(x, dneg1(a), dneg1(b)))


# ---------------------------------------------------------------------------
# lattice entailment with certificates

_LATTICE = (sx.LAnd, sx.LOr)


# truth vectors
#
# A truth vector packs a formula's values under all 0/1 valuations of k
# generators into one 2^k-bit int: bit v is the value under valuation v, in
# which generator i is true exactly when bit i of v is set.  A law of
# bounded distributive lattices holds iff it holds in the two-element
# lattice, and a boolean law iff it holds in the two-element algebra, so the
# vectors of A and B decide A => B: it fails iff A's has a bit B's lacks.
TV_GENS = 12
# generator i: true in valuation v iff bit i of v is set
_TV_GEN = tuple(md.periodic(1 << i, 1 << TV_GENS) for i in range(TV_GENS))


def generators(f: sx.LFormula, boolean: bool, acc: dict) -> dict:
    """Add f's generators to acc in the order first met: its subformulas
    that are not /\\, \\/, top, bot or, when `boolean`, ~."""
    if isinstance(f, _LATTICE):
        generators(f.l, boolean, acc)
        generators(f.r, boolean, acc)
    elif boolean and isinstance(f, sx.LNot):
        generators(f.a, boolean, acc)
    elif f != sx.TOP and f != sx.BOT:
        acc.setdefault(f, None)
    return acc


def frame(gens) -> Optional[dict]:
    """The vectors of gens, numbered in order, over all their valuations,
    as {generator: vector}, with top (all ones) and bot (0) among them;
    None for more than TV_GENS generators."""
    gens = tuple(gens)
    if len(gens) > TV_GENS:
        return None
    full = (1 << (1 << len(gens))) - 1
    slots = {g: v & full for g, v in zip(gens, _TV_GEN)}
    slots[sx.TOP], slots[sx.BOT] = full, 0
    return slots


def truth_vector(f: sx.LFormula, slots: dict, boolean: bool) -> int:
    """f's truth vector in the frame slots: /\\ is &, \\/ is |, with
    `boolean` ~ is the complement, and a generator outside slots is true
    in every valuation."""
    if isinstance(f, sx.LAnd):
        return truth_vector(f.l, slots, boolean) & truth_vector(f.r, slots, boolean)
    if isinstance(f, sx.LOr):
        return truth_vector(f.l, slots, boolean) | truth_vector(f.r, slots, boolean)
    if boolean and isinstance(f, sx.LNot):
        return slots[sx.TOP] ^ truth_vector(f.a, slots, boolean)
    v = slots.get(f)
    return slots[sx.TOP] if v is None else v


def _falsified(a: sx.LFormula, b: sx.LFormula, boolean: bool) -> Optional[bool]:
    """Whether some valuation makes a true and b false; None when there are
    more than TV_GENS generators to value."""
    if boolean:
        slots = frame(generators(b, True, generators(a, True, {})))
        return None if slots is None else \
            truth_vector(a, slots, True) & ~truth_vector(b, slots, True) != 0
    below = _lattice_frame(b)
    return None if below is None else truth_vector(a, below[0], False) & ~below[1] != 0


@lru_cache(maxsize=65536)
def _lattice_frame(b: sx.LFormula) -> Optional[tuple[dict, int]]:
    # b's generators alone decide a lattice pair a => b: a is monotone in
    # the generators that b lacks, so all of them may be taken true
    slots = frame(generators(b, False, {}))
    return None if slots is None else (slots, truth_vector(b, slots, False))


def members(f: sx.LFormula) -> tuple[sx.LFormula, ...]:
    """The conjunct leaves of a /\\-tree (f itself if not a conjunction)."""
    if isinstance(f, sx.LAnd):
        return members(f.l) + members(f.r)
    return (f,)


def or_leaves(f: sx.LFormula) -> tuple[sx.LFormula, ...]:
    if isinstance(f, sx.LOr):
        return or_leaves(f.l) + or_leaves(f.r)
    return (f,)


def or_inject(d: pf.Derivation, f: sx.LFormula) -> pf.Derivation:
    """From G => D, with D a \\/-leaf of f, conclude G => f."""
    target = d.seq.suc
    if f == target:
        return d
    _fit(isinstance(f, sx.LOr), "succedent is not a disjunct of the target")
    if target in or_leaves(f.l):
        return dor_r(or_inject(d, f.l), f, 1)
    return dor_r(or_inject(d, f.r), f, 2)


def _has_or(f: sx.LFormula) -> bool:
    if isinstance(f, sx.LOr):
        return True
    if isinstance(f, sx.LAnd):
        return _has_or(f.l) or _has_or(f.r)
    return False


def _hoist(f: sx.LAnd) -> tuple[pf.Derivation, sx.LFormula, sx.LFormula]:
    """For a conjunction containing a buried disjunction u \\/ v, certify
    f => f_u \\/ f_v: f with u, and with v, in its place, where a left
    conjunct holding u \\/ v moves right, as `dD` leaves it.  `_lat` and
    `_blat` take either conjunct order, so nothing commutes them back."""
    l, r = f.l, f.r
    if isinstance(r, sx.LOr):
        return dD(l, r.l, r.r), sx.LAnd(l, r.l), sx.LAnd(l, r.r)
    if isinstance(l, sx.LOr):
        u, v = l.l, l.r
        return le_trans(comm_and(l, r), dD(r, u, v)), sx.LAnd(r, u), sx.LAnd(r, v)
    if _has_or(r):
        dh, ru, rv = _hoist(r)
        d = le_trans(and_mono(did(l), dh), dD(l, ru, rv))
        return d, sx.LAnd(l, ru), sx.LAnd(l, rv)
    dh, lu, lv = _hoist(l)
    d = le_trans(and_mono(dh, did(r)), comm_and(sx.LOr(lu, lv), r), dD(r, lu, lv))
    return d, sx.LAnd(r, lu), sx.LAnd(r, lv)


@lru_cache(maxsize=131072)
def _lat(a: sx.LFormula, b: sx.LFormula) -> Optional[pf.Derivation]:
    if a == b:
        return did(a)
    if b == sx.TOP:
        return dtop(sx.SLeaf(a))
    if a == sx.BOT:
        return dbot_f(b)
    if isinstance(a, sx.LOr):
        d1 = _lat(a.l, b)
        d2 = None if d1 is None else _lat(a.r, b)
        return None if d2 is None else dor_l(d1, d2, a)
    hoist = isinstance(a, sx.LAnd) and _has_or(a)
    if isinstance(b, sx.LAnd) and not hoist:
        d1 = _lat(a, b.l)
        d2 = None if d1 is None else _lat(a, b.r)
        return None if d2 is None else dand_r(d1, d2)
    # one-premise attempts: each conjunct of a (AndL), then, unless a is
    # distributed, each disjunct of b (OrR); a pair that some valuation
    # falsifies is declined before its second attempt
    alts = []
    if isinstance(a, sx.LAnd):
        alts += [(dand_l, a, 1, a.l, b), (dand_l, a, 2, a.r, b)]
    if isinstance(b, sx.LOr) and not hoist:
        alts += [(dor_r, b, 1, a, b.l), (dor_r, b, 2, a, b.r)]
    for n, (rule, main, idx, x, y) in enumerate(alts):
        if n == 1 and _falsified(a, b, False):
            return None
        d = _lat(x, y)
        if d is not None:
            return rule(d, main, idx)
    if not hoist:
        return None
    dh, fu, fv = _hoist(a)
    d1 = _lat(fu, b)
    d2 = None if d1 is None else _lat(fv, b)
    return None if d2 is None else le_trans(dh, dor_l(d1, d2, sx.LOr(fu, fv)))


def lat_le(a: sx.LFormula, b: sx.LFormula) -> Optional[pf.Derivation]:
    """Certify A => B when it holds in every bounded distributive lattice,
    treating non-lattice subformulas as opaque generators; None otherwise.

    The search splits a disjunction on the left into both halves, then,
    unless the left is a conjunction holding a disjunction, a conjunction
    on the right.  Otherwise it tries one premise at a time: each conjunct
    A1, A2 of a conjunction on the left alone (AndL), then, if that
    conjunction holds a disjunction, its distribution (`_hoist`), else each
    disjunct on the right (OrR).  Before the second of these attempts the
    truth vectors of the pair decide whether it holds in the two-element
    lattice, and a pair that fails there is declined at once.  They only
    skip attempts that would fail, so the certificate depends on the search
    order alone."""
    return _lat(a, b)


def lat_le_strict(a: sx.LFormula, b: sx.LFormula) -> pf.Derivation:
    d = _lat(a, b)
    if d is None:
        raise LemmaError(
            f"not a lattice entailment: {sx.render_lambek(a)} => {sx.render_lambek(b)}"
        )
    return d


# ---------------------------------------------------------------------------
# boolean entailment with certificates


@lru_cache(maxsize=65536)
def _nnf(f: sx.LFormula, to: bool) -> tuple[sx.LFormula, pf.Derivation]:
    """Negation-normal form with a certificate one way: (nf, f => nf) when
    `to`, else (nf, nf => f)."""
    if isinstance(f, sx.LAnd):
        (nl, dl), (nr, dr) = _nnf(f.l, to), _nnf(f.r, to)
        return sx.LAnd(nl, nr), and_mono(dl, dr)
    if isinstance(f, sx.LOr):
        (nl, dl), (nr, dr) = _nnf(f.l, to), _nnf(f.r, to)
        return sx.LOr(nl, nr), or_mono(dl, dr)
    if isinstance(f, sx.LNot):
        g = f.a
        if g == sx.TOP:
            return sx.BOT, dneg_top() if to else dbot_f(f)
        if g == sx.BOT:
            return sx.TOP, dtop(sx.SLeaf(f)) if to else dtop_negbot()
        if isinstance(g, sx.LNot):
            nf, d = _nnf(g.a, to)
            return nf, le_trans(dnn_elim(g.a), d) if to else le_trans(d, dnn_intro(g.a))
        if isinstance(g, sx.LAnd):
            nf, d = _nnf(sx.LOr(sx.LNot(g.l), sx.LNot(g.r)), to)
            return nf, (le_trans(dm_and_fwd(g.l, g.r), d) if to
                        else le_trans(d, dm_and_bwd(g.l, g.r)))
        if isinstance(g, sx.LOr):
            nf, d = _nnf(sx.LAnd(sx.LNot(g.l), sx.LNot(g.r)), to)
            return nf, (le_trans(dm_or_fwd(g.l, g.r), d) if to
                        else le_trans(d, dm_or_bwd(g.l, g.r)))
    return f, did(f)


@lru_cache(maxsize=65536)
def _blat(x: sx.LFormula, y: sx.LFormula) -> Optional[pf.Derivation]:
    d = _lat(x, y)
    if d is not None:
        return d
    if isinstance(x, sx.LOr):
        d1 = _blat(x.l, y)
        d2 = None if d1 is None else _blat(x.r, y)
        return None if d2 is None else dor_l(d1, d2, x)
    if isinstance(x, sx.LAnd) and _has_or(x):
        # each conjunct alone (AndL) before the distribution, as in `_lat`
        for idx, part in ((1, x.l), (2, x.r)):
            d = None if _falsified(part, y, True) else _blat(part, y)
            if d is not None:
                return dand_l(d, x, idx)
        dh, fu, fv = _hoist(x)
        d1 = _blat(fu, y)
        d2 = None if d1 is None else _blat(fv, y)
        return None if d2 is None else le_trans(dh, dor_l(d1, d2, sx.LOr(fu, fv)))
    mems = members(x)
    memset = set(mems)
    for m in mems:
        if sx.LNot(m) in memset:
            clash = le_trans(
                lat_le_strict(x, sx.LAnd(m, sx.LNot(m))), dneg1(m), dbot_f(y)
            )
            return clash
    if isinstance(y, sx.LAnd):
        d1 = _blat(x, y.l)
        d2 = None if d1 is None else _blat(x, y.r)
        return None if d2 is None else dand_r(d1, d2)
    if isinstance(y, sx.LOr):
        for idx, part in ((1, y.l), (2, y.r)):
            d = None if _falsified(x, part, True) else _blat(x, part)
            if d is not None:
                return dor_r(d, y, idx)
    undecided = [
        g for g in sorted(generators(y, True, {}), key=sx.sort_key)
        if g not in memset and sx.LNot(g) not in memset
    ]
    if not undecided:
        return None
    g = undecided[0]
    d1 = _blat(sx.LAnd(x, g), y)
    d2 = None if d1 is None else _blat(sx.LAnd(x, sx.LNot(g)), y)
    return None if d2 is None else by_cases(d1, d2)


def bool_le(x: sx.LFormula, y: sx.LFormula) -> Optional[pf.Derivation]:
    """Certify X => Y when it is a boolean-algebra entailment over opaque
    generators (negation classical, /\\ \\/ top bot as usual).

    One evaluation of each side's truth vector, ~ as the complement,
    decides the entailment first; over more than TV_GENS generators, or
    when it fails, the answer is None.  The certificate is then built on
    the negation-normal forms: `lat_le` where it holds, else the same
    splits as `lat_le` and cases on a generator (A => (A /\\ g) \\/
    (A /\\ ~g)), where a disjunct on the right that the vectors falsify is
    not tried."""
    if _falsified(x, y, True) is not False:
        return None
    nx, tox = _nnf(x, True)
    ny, fromy = _nnf(y, False)
    core = _blat(nx, ny)
    if core is None:
        return None
    return le_trans(tox, core, fromy)
