"""Proof-producing sequent prover for the modal logic K, with a certified
translation of its proofs into the negation system's sequent calculus.

Sequents here are pairs of formula tuples (L, R) read as "the conjunction
of L entails the disjunction of R".  Both sides are kept deduplicated and
sorted, so search is deterministic and memoizable.  The rules are ax,
botl, andl, orl, negl, andr, orr, negr and k; `KProver.prove` rewrites
A -> B as ~A \\/ B on entry, which has the same dagger image.  A proof
translates, rule by rule, into a derivation of  /\\L-image => \\/R-image
where diamonds become left products with the designated marker atom; all
the regrouping between steps is discharged by the certified lattice and
boolean entailment engines, and each negr step is one excluded-middle
split (`lemmas.by_cases`).  `prove_dagger_sequent` is the one way in: it
proves a => b, or b alone when a is None, and translates the proof into
dagger(a) => dagger(b), or top => dagger(b)."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from . import lemmas as lm
from . import proofs as pf
from . import syntax as sx
from .errors import LemmaError
from .transform import M, dagger

Side = tuple[sx.ModalFormula, ...]


def _mkey(f: sx.ModalFormula):
    return (sx.lsize(f), sx.render_modal(f))


def canon(fs) -> Side:
    return tuple(sorted(set(fs), key=_mkey))


@dataclass(frozen=True, eq=False)
class GKProof:
    left: Side
    right: Side
    rule: str
    premises: tuple["GKProof", ...] = ()
    principal: Optional[sx.ModalFormula] = None


def _unimp(f: sx.ModalFormula) -> sx.ModalFormula:
    # A -> B as ~A \/ B at every depth; dagger maps both to one image
    if isinstance(f, (sx.MAtom, sx.MBot)):
        return f
    if isinstance(f, (sx.MNot, sx.MDia)):
        return type(f)(_unimp(f.a))
    l, r = _unimp(f.l), _unimp(f.r)
    return sx.MOr(sx.MNot(l), r) if isinstance(f, sx.MImp) else type(f)(l, r)


def _without(side: Side, f: sx.ModalFormula) -> tuple[sx.ModalFormula, ...]:
    return tuple(g for g in side if g != f)


def _is_passive(f: sx.ModalFormula) -> bool:
    return isinstance(f, (sx.MAtom, sx.MDia))


class KProver:
    def __init__(self) -> None:
        self._memo: dict = {}

    def prove(self, left, right) -> Optional[GKProof]:
        return self._prove(canon(map(_unimp, left)), canon(map(_unimp, right)))

    def _prove(self, left: Side, right: Side) -> Optional[GKProof]:
        key = (left, right)
        if key in self._memo:
            return self._memo[key]
        self._memo[key] = None  # sizes strictly decrease; this only guards reentry
        out = self._step(left, right)
        self._memo[key] = out
        return out

    def _step(self, left: Side, right: Side) -> Optional[GKProof]:
        for f in left:
            if f in right:
                return GKProof(left, right, "ax", (), f)
        if sx.MBot() in left:
            return GKProof(left, right, "botl", (), sx.MBot())
        for f in left:
            if _is_passive(f):
                continue
            rest = _without(left, f)
            if isinstance(f, sx.MAnd):
                p = self._prove(canon(rest + (f.l, f.r)), right)
                return GKProof(left, right, "andl", (p,), f) if p else None
            if isinstance(f, sx.MOr):
                p1 = self._prove(canon(rest + (f.l,)), right)
                p2 = self._prove(canon(rest + (f.r,)), right) if p1 else None
                return GKProof(left, right, "orl", (p1, p2), f) if p1 and p2 else None
            if isinstance(f, sx.MNot):
                p = self._prove(canon(rest), canon(right + (f.a,)))
                return GKProof(left, right, "negl", (p,), f) if p else None
            raise AssertionError(f"unhandled connective {f!r}")
        for f in right:
            if _is_passive(f) or f == sx.MBot():
                continue
            rest = _without(right, f)
            if isinstance(f, sx.MAnd):
                p1 = self._prove(left, canon(rest + (f.l,)))
                p2 = self._prove(left, canon(rest + (f.r,))) if p1 else None
                return GKProof(left, right, "andr", (p1, p2), f) if p1 and p2 else None
            if isinstance(f, sx.MOr):
                p = self._prove(left, canon(rest + (f.l, f.r)))
                return GKProof(left, right, "orr", (p,), f) if p else None
            if isinstance(f, sx.MNot):
                p = self._prove(canon(left + (f.a,)), canon(rest))
                return GKProof(left, right, "negr", (p,), f) if p else None
        witnesses = canon(g.a for g in right if isinstance(g, sx.MDia))
        for f in left:
            if isinstance(f, sx.MDia):
                p = self._prove((canon((f.a,))), witnesses)
                if p:
                    return GKProof(left, right, "k", (p,), f)
        return None


# ---------------------------------------------------------------------------
# certified translation


def _fold(side: Side, ctor, empty: sx.LFormula) -> sx.LFormula:
    # the images of side joined right-nested by ctor, or empty
    imgs = [dagger(f) for f in side]
    if not imgs:
        return empty
    return functools.reduce(lambda out, g: ctor(g, out), reversed(imgs[:-1]), imgs[-1])


def _conj(side: Side) -> sx.LFormula:
    return _fold(side, sx.LAnd, sx.TOP)


def _disj(side: Side) -> sx.LFormula:
    return _fold(side, sx.LOr, sx.BOT)


def _glue(a: sx.LFormula, b: sx.LFormula) -> pf.Derivation:
    d = lm.lat_le(a, b)
    if d is None:
        d = lm.bool_le(a, b)
    if d is None:
        raise LemmaError(
            f"translation glue failed: {sx.render_lambek(a)} => {sx.render_lambek(b)}"
        )
    return d


def _k_core(m: sx.LFormula, a_img: pf.Derivation, witnesses: list[sx.LFormula]) -> pf.Derivation:
    """From A => \\/B_j conclude m * A => \\/(m * B_j) (bot if no witnesses)."""
    if not witnesses:
        target = sx.BOT
        spine = lm.dbot(sx.SNode(sx.SLeaf(m), sx.SLeaf(sx.BOT)), (1,), target)
    else:
        prods = [sx.LProd(m, w) for w in witnesses]
        target = prods[-1]
        for g in reversed(prods[:-1]):
            target = sx.LOr(g, target)

        def eliminate(f: sx.LFormula, ws: list[sx.LFormula]) -> pf.Derivation:
            # builds  m o f  =>  target  by cases along the disjunction
            # spine of f; the split follows the witness list because a
            # witness may itself be a disjunction that must stay whole
            if len(ws) == 1:
                return lm.or_inject(lm.dprod_r(lm.did(m), lm.did(ws[0])), target)
            d1 = eliminate(f.l, ws[:1])
            d2 = eliminate(f.r, ws[1:])
            return lm.dor_l(d1, d2, f, path=(1,))

        disj_b = a_img.seq.suc
        spine = eliminate(disj_b, witnesses)
    return lm.dprod_l(lm.dcut(a_img, spine, (1,)))


def _via(start: sx.LFormula, prem: GKProof, d: sx.LFormula) -> pf.Derivation:
    # start => conj(L)-image of the premise, its translation, then on to d
    sub = to_derivation(prem)
    return lm.le_trans(_glue(start, _conj(prem.left)), sub, _glue(sub.seq.suc, d))


def to_derivation(proof: GKProof) -> pf.Derivation:
    """A derivation of  conj(L)-image => disj(R)-image  in the negation
    system, mirroring the K proof step by step."""
    c = _conj(proof.left)
    d = _disj(proof.right)
    r = proof.rule
    if r in ("ax", "botl"):
        return _glue(c, d)
    if r in ("andl", "orr"):
        return _via(c, proof.premises[0], d)
    if r == "andr":
        d1 = to_derivation(proof.premises[0])
        d2 = to_derivation(proof.premises[1])
        both = lm.dand_r(d1, d2)
        return lm.le_trans(both, _glue(both.seq.suc, d))
    if r == "orl":
        rest = _conj(canon(_without(proof.left, proof.principal)))
        case1 = sx.LAnd(rest, dagger(proof.principal.l))
        case2 = sx.LAnd(rest, dagger(proof.principal.r))
        split = _glue(c, sx.LOr(case1, case2))
        b1 = _via(case1, proof.premises[0], d)
        b2 = _via(case2, proof.premises[1], d)
        return lm.le_trans(split, lm.dor_l(b1, b2, sx.LOr(case1, case2)))
    if r == "negl":
        g = sx.LNot(dagger(proof.principal.a))
        sub = to_derivation(proof.premises[0])
        prem_c = _conj(proof.premises[0].left)
        mono = lm.and_mono(sub, lm.did(g))
        start = _glue(c, sx.LAnd(prem_c, g))
        return lm.le_trans(start, mono, _glue(mono.seq.suc, d))
    if r == "negr":
        gx = dagger(proof.principal.a)
        ngx = sx.LNot(gx)
        left = _via(sx.LAnd(c, gx), proof.premises[0], d)
        return lm.by_cases(left, lm.le_trans(_glue(sx.LAnd(c, ngx), ngx), _glue(ngx, d)))
    if r == "k":
        m = sx.LAtom(M)
        sub = to_derivation(proof.premises[0])
        witnesses = [dagger(b) for b in proof.premises[0].right]
        core = _k_core(m, sub, witnesses)
        pick = _glue(c, sx.LProd(m, dagger(proof.principal.a)))
        return lm.le_trans(pick, core, _glue(core.seq.suc, d))
    raise AssertionError(f"unknown rule {r}")


def prove_dagger_sequent(a: Optional[sx.ModalFormula],
                         b: sx.ModalFormula) -> Optional[pf.Derivation]:
    """A derivation of  dagger(a) => dagger(b)  when a entails b in K, else
    None: the translation itself, since a one-formula side is its own
    image.  With a None (an empty left side) it is  top => dagger(b), when
    b is K-valid."""
    proof = KProver().prove(() if a is None else (a,), (b,))
    return None if proof is None else to_derivation(proof)
