r"""The reduction chain from modal K to constant-free DFNL, and the model
constructions backing it.

`pipeline_k_to_dfnl` builds each of the three `STAGES`, and each stage
realizes one step of the source paper's reductions:

- dagger, the polynomial reduction of K into BFNL* behind its
  PSPACE-hardness: A is valid in K iff the bfnl-star goal  => A-dagger is
  provable, reading a diamond as a left product with the reserved
  letter `M`;
- ddagger, the first half of the reduction of BFNL* to the consequence
  relation of DFNL: negations become generated letters under the
  companion set Psi (bdfnl-star);
- section, the second half: the constants become the letters p_bot and
  p_top under the absorption set Theta, and an empty antecedent becomes
  the p_top leaf, so no goal or assumption of its image has an empty
  antecedent: the stage is a consequence problem of DFNL itself, and is
  labelled dfnl.

`M` is fixed; only `dagger`, whose input comes from outside, checks that
a source formula leaves it free.  The two lower stages have a sequent
inverse (`negrewrite_sequent`, `section_inverse_sequent`) and a
derivation transport (`ddagger_derivation`, `section_derivation`) for
`strategy._pull_back`.

The chain maps (`_ddag`, `tilde_ext`, `section_map`, `section_inverse`,
`negrewrite` and the `_sequent` forms) are `_memoized`: each takes an
optional memo, a plain dict, and maps a distinct term of it once, so
equal terms get one image object.  `strategy._pull_back` makes one memo
per call; it serves the goal's and the members' images and the
transport of the proof (with the pair builders it calls), and is
dropped when the call returns.  Without a memo a map runs over a fresh
dict; nothing is cached across calls.

The one K reader, `read_k`, reads a formula back to K, top as ~bot, for
`strategy.try_k_oracle` and for `sampling`, which runs the chain the
other way: `sampling.chain_verdict` reads a goal back through the two
inverses and `read_k` and decides it, once per `prover.derive` or
`countermodel` command, and the transfer doubles an invalid formula's
K countermodel with `build_ternary_model`, M valued everywhere.  It
reads the letters back the same way: p_top holds everywhere, p_bot
nowhere, and each generated letter p_A exactly where the read-back of
A, `negrewrite(section_inverse(A))`, fails, so p_A is the complement of
A, as in the paper's two-copy model; that satisfies the companion and
absorption sets.  The model side also has the exchange variant and the
unit extension.

One deliberate departure: the companion sequents for a generated letter
are {A /\ p_A => bot, top => A \/ p_A}.  A "=> top"-oriented second
member holds outright (it is a top axiom) and therefore pins nothing
down; the orientation used here forces p_A to complement A, which is
what the negation-elimination round trip needs.  Cardinality (two per
eligible formula) is unchanged.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from . import lemmas as lm
from . import models as md
from . import proofs as pf
from . import syntax as sx
from .errors import LemmaError, ValidationError
from .systems import allowed_rules, get_system

M = "m"  # the reserved letter: dagger reads a diamond as a left product with it


def _memoized(step: Callable) -> Callable:
    """The chain map defined by step(a, memo), which builds the image of a
    and maps a's subterms through the maps with the same memo.  The memo
    is a dict from map to {term: image}, so each map's step runs at most
    once per distinct term of one memo and equal terms get one image
    object.  Called without a memo, the map runs over a fresh dict."""

    def run(a, memo: Optional[dict] = None):
        if memo is None:
            memo = {}
        table = memo.get(run)
        if table is None:
            table = memo[run] = {}
        out = table.get(a)
        if out is None:
            out = table[a] = run.step(a, memo)
        return out

    run.step = step
    run.__name__, run.__qualname__, run.__doc__ = step.__name__, step.__qualname__, step.__doc__
    return run


# ---------------------------------------------------------------------------
# dagger


def dagger(a: sx.ModalFormula) -> sx.LFormula:
    if M in sx.matoms(a):
        raise ValidationError(f"source formula uses the reserved letter {M!r}")
    return _dag(a)


def _dag(a: sx.ModalFormula) -> sx.LFormula:
    if isinstance(a, sx.MAtom):
        return sx.LAtom(a.name)
    if isinstance(a, sx.MBot):
        return sx.BOT
    if isinstance(a, sx.MAnd):
        return sx.LAnd(_dag(a.l), _dag(a.r))
    if isinstance(a, sx.MOr):
        return sx.LOr(_dag(a.l), _dag(a.r))
    if isinstance(a, sx.MImp):
        return sx.LOr(sx.LNot(_dag(a.l)), _dag(a.r))
    if isinstance(a, sx.MNot):
        return sx.LNot(_dag(a.a))
    return sx.LProd(sx.LAtom(M), _dag(a.a))


def read_k(f: sx.LFormula) -> Optional[sx.ModalFormula]:
    """The modal formula f reads back to, or None: atoms other than M,
    bot, /\\, \\/ and ~ read as themselves, M * A as a diamond, and top as
    ~bot.  dagger(read_k(f)) is f with every top written ~bot."""
    if isinstance(f, sx.LAtom):
        return None if f.name == M else sx.MAtom(f.name)
    if isinstance(f, sx.LBot):
        return sx.MBot()
    if isinstance(f, sx.LTop):
        return sx.MNot(sx.MBot())
    if isinstance(f, (sx.LAnd, sx.LOr)):
        l, r = read_k(f.l), read_k(f.r)
        if l is None or r is None:
            return None
        return sx.MAnd(l, r) if isinstance(f, sx.LAnd) else sx.MOr(l, r)
    if isinstance(f, sx.LNot):
        a = read_k(f.a)
        return None if a is None else sx.MNot(a)
    if isinstance(f, sx.LProd) and f.l == sx.LAtom(M):
        a = read_k(f.r)
        return None if a is None else sx.MDia(a)
    return None


# ---------------------------------------------------------------------------
# two-copy models


def copy1(w: str) -> str:
    return w + "1"


def copy2(w: str) -> str:
    return w + "2"


def build_ternary_model(
    m: md.KripkeModel, letter: Optional[str] = M, exchange: bool = False
) -> md.TernaryModel:
    """Double every state; each binary edge becomes one ternary triple
    (four in the exchange variant).  The designated letter, if any, holds
    everywhere."""
    states = tuple(c(w) for w in m.states for c in (copy1, copy2))
    rel3 = set()
    for (v, u) in m.rel:
        if exchange:
            rel3 |= {
                (copy1(v), copy1(u), copy2(u)),
                (copy1(v), copy2(u), copy1(u)),
                (copy2(v), copy1(u), copy2(u)),
                (copy2(v), copy2(u), copy1(u)),
            }
        else:
            rel3.add((copy1(v), copy2(v), copy1(u)))
    val = {p: frozenset(c(w) for w in ext for c in (copy1, copy2)) for p, ext in m.val.items()}
    if letter is not None:
        if letter in m.val:
            raise ValidationError(f"input model already values {letter!r}")
        val[letter] = frozenset(states)
    return md.TernaryModel(states, frozenset(rel3), val)


def extend_with_unit(
    j: md.TernaryModel, source: md.KripkeModel, letter: Optional[str] = M
) -> md.TernaryModel:
    """Adjoin a unit state.  The unit satisfies an atom exactly when the
    atom is global, i.e. held at every source state; the designated letter
    never counts as such.

    What the unit promises, for formulas built from atoms with /\\, \\/, ~
    and the product: its only outgoing triple is (e, e, e), so every such
    formula takes its classical value there, with the product read as
    conjunction.  For the negation-free ones, validity (truth at every
    state) is equivalent to truth at the unit.  With boolean ~ it is not:
    the unit satisfies ~p whenever p is not global, while p may still hold
    at some state."""
    if j.unit is not None:
        raise ValidationError("model already has a unit")
    unit = "e"
    if unit in j.states:
        raise ValidationError("state name 'e' is taken")
    states = j.states + (unit,)
    rel3 = set(j.rel3)
    for u in states:
        rel3.add((u, unit, u))
        rel3.add((u, u, unit))
    everything = frozenset(source.states)
    val = {}
    for k, ext in j.val.items():
        holds_at_unit = k != letter and source.val.get(k, frozenset()) == everything
        val[k] = ext | {unit} if holds_at_unit else ext
    return md.TernaryModel(states, frozenset(rel3), val, unit=unit)


# ---------------------------------------------------------------------------
# the companion set


def psi_set(t: Iterable[sx.LFormula]) -> frozenset[sx.Sequent]:
    """Two companion sequents per member, skipping the constants: the
    letter excludes its formula and together they exhaust."""
    out = set()
    for a in t:
        if isinstance(a, (sx.LTop, sx.LBot)):
            continue
        pa = sx.fresh_for(a)
        out.add(sx.simple(sx.LAnd(a, pa), sx.BOT))
        out.add(sx.simple(sx.TOP, sx.LOr(a, pa)))
    return frozenset(out)


def exn(t: Iterable[sx.LFormula]) -> frozenset[sx.LFormula]:
    return frozenset(a for a in t if sx.neg_free(a))


def _ddag_leaves(f: sx.LFormula, acc: set):
    # maximal non-lattice subterms of a negation-free formula, with
    # generated letters resolved to their payloads
    if isinstance(f, (sx.LAnd, sx.LOr)):
        _ddag_leaves(f.l, acc)
        _ddag_leaves(f.r, acc)
    elif isinstance(f, sx.LFresh) and f.mark == "neg":
        acc.add(f.of)
    elif not isinstance(f, (sx.LTop, sx.LBot)):
        acc.add(f)


def exn_star(t: Iterable[sx.LFormula]) -> frozenset[sx.LFormula]:
    """Index set for the companion sequents of a negation-elimination
    problem.  The negation-free members alone are not enough: a negation
    sitting strictly below a product surfaces, after the rewrite, as a
    letter inside a product that no companion pair governs.  So collect
    the lattice-leaves of every rewritten member as well."""
    out = set(exn(t))
    memo: dict = {}
    for a in t:
        _ddag_leaves(_ddag(a, memo), out)
    return frozenset(out)


def ec(t: Iterable[sx.LFormula]) -> frozenset[sx.LFormula]:
    memo: dict = {}
    return frozenset(section_map(a, memo) for a in t)


# ---------------------------------------------------------------------------
# ddagger


@_memoized
def _ddag(a: sx.LFormula, memo: dict) -> sx.LFormula:
    if isinstance(a, sx.LNot):
        return tilde_ext(_ddag(a.a, memo), memo)
    return sx.map_children(a, lambda c: _ddag(c, memo))


def ddagger(a: sx.LFormula) -> sx.LFormula:
    """Negation elimination: homomorphic except that a negation becomes
    the dual of its rewritten body.  Output is negation-free."""
    out = _ddag(a)
    assert sx.neg_free(out)
    return out


def _map_sequent(s: sx.Sequent, fmap: Callable, memo: dict) -> sx.Sequent:
    def f(a):
        return fmap(a, memo)

    return sx.Sequent(None if s.ant is None else sx.map_tree(s.ant, f), f(s.suc))


@_memoized
def ddagger_sequent(s: sx.Sequent, memo: dict) -> sx.Sequent:
    return _map_sequent(s, _ddag, memo)


def problem_base(goal: sx.Sequent, phi: Iterable[sx.Sequent] = ()) -> frozenset[sx.LFormula]:
    """The set T of an embedding: every subformula of the problem plus the
    two constants."""
    return sx.subformulas_of_problem(goal, phi) | {sx.TOP, sx.BOT}


def ddagger_problem(
    goal: sx.Sequent, phi: Iterable[sx.Sequent] = ()
) -> tuple[sx.Sequent, frozenset[sx.Sequent]]:
    t = problem_base(goal, phi)
    memo: dict = {}
    out_goal = ddagger_sequent(goal, memo)
    assumptions = psi_set(exn_star(t)) | frozenset(ddagger_sequent(s, memo) for s in phi)
    return out_goal, assumptions


# ---------------------------------------------------------------------------
# section map and absorption set


@_memoized
def section_map(a: sx.LFormula, memo: dict) -> sx.LFormula:
    """Constant elimination: bot and top become their letters, everything
    else is homomorphic.  Negations are out of scope here."""
    if isinstance(a, sx.LBot):
        return sx.P_BOT
    if isinstance(a, sx.LTop):
        return sx.P_TOP
    if isinstance(a, sx.LNot):
        raise ValidationError("the constant-elimination map expects negation-free input")
    return sx.map_children(a, lambda c: section_map(c, memo))


@_memoized
def section_sequent(s: sx.Sequent, memo: dict) -> sx.Sequent:
    """An empty antecedent becomes the top letter.  The target system keeps
    no empty-antecedent axioms (the top axiom is gone), so a literally
    empty image would be underivable even for trivially valid inputs;
    cutting with the absorbed antecedent inverts the change."""
    if s.ant is None:
        return sx.Sequent(sx.SLeaf(sx.P_TOP), section_map(s.suc, memo))
    return _map_sequent(s, section_map, memo)


def theta_set(t: Iterable[sx.LFormula]) -> frozenset[sx.Sequent]:
    """Absorption sequents: the bot letter is a least element annihilating
    products, the top letter a greatest element absorbing them.  Six per
    member; the product antecedents are stored in formula form."""
    out = set()
    for a in t:
        out.add(sx.simple(sx.P_BOT, a))
        out.add(sx.simple(sx.LProd(a, sx.P_BOT), sx.P_BOT))
        out.add(sx.simple(sx.LProd(sx.P_BOT, a), sx.P_BOT))
        out.add(sx.simple(a, sx.P_TOP))
        out.add(sx.simple(sx.LProd(a, sx.P_TOP), sx.P_TOP))
        out.add(sx.simple(sx.LProd(sx.P_TOP, a), sx.P_TOP))
    return frozenset(out)


def section_embed(
    goal: sx.Sequent, phi: Iterable[sx.Sequent] = ()
) -> tuple[sx.Sequent, frozenset[sx.Sequent]]:
    t = problem_base(goal, phi)
    memo: dict = {}
    out_goal = section_sequent(goal, memo)
    assumptions = frozenset(section_sequent(s, memo) for s in phi) | theta_set(ec(t))
    return out_goal, assumptions


# ---------------------------------------------------------------------------
# certified companion pairs
#
# The derivations witnessing that a generated letter behaves as the
# complement of its formula.  Leaves are members of the assumption set
# phi; a missing member fails fast instead of at re-check.


@_memoized
def tilde_ext(a: sx.LFormula, memo: dict) -> sx.LFormula:
    """The dual map with generated letters resolving back to their
    payloads (so it is an involution on the letter level): constants
    flip, /\\ and \\/ swap and recurse, a letter becomes its payload and
    anything else gets a letter."""
    if isinstance(a, sx.LTop):
        return sx.BOT
    if isinstance(a, sx.LBot):
        return sx.TOP
    if isinstance(a, sx.LAnd):
        return sx.LOr(tilde_ext(a.l, memo), tilde_ext(a.r, memo))
    if isinstance(a, sx.LOr):
        return sx.LAnd(tilde_ext(a.l, memo), tilde_ext(a.r, memo))
    if isinstance(a, sx.LFresh) and a.mark == "neg":
        return a.of
    return sx.fresh_for(a)


def _member(member: sx.Sequent, phi, build=lm.dassume) -> pf.Derivation:
    # build=lm.dassume_prod opens a product-antecedent member up to its
    # two-leaf tree form
    if member not in phi:
        raise LemmaError(f"assumption set lacks {sx.render_sequent(member)}")
    return build(member)


def _companion_bot(g: sx.LFormula, phi) -> pf.Derivation:
    # g /\ g~ => bot for a non-lattice g
    if isinstance(g, sx.LFresh) and g.mark == "neg":
        base = _member(sx.simple(sx.LAnd(g.of, g), sx.BOT), phi)
        return lm.le_trans(lm.comm_and(g, g.of), base)
    return _member(sx.simple(sx.LAnd(g, sx.fresh_for(g)), sx.BOT), phi)


def _companion_top(g: sx.LFormula, phi) -> pf.Derivation:
    # top => g \/ g~ for a non-lattice g
    if isinstance(g, sx.LFresh) and g.mark == "neg":
        base = _member(sx.simple(sx.TOP, sx.LOr(g.of, g)), phi)
        return lm.le_trans(base, lm.comm_or(g.of, g))
    return _member(sx.simple(sx.TOP, sx.LOr(g, sx.fresh_for(g))), phi)


@_memoized
def _value(a: sx.LFormula, memo: dict) -> sx.LFormula:
    """top or bot when a lattice formula takes that value whatever its
    letters: a constant, a conjunction with a side of value bot or both of
    value top, and dually a disjunction.  Any other formula is its own
    value."""
    if isinstance(a, (sx.LAnd, sx.LOr)):
        l, r = _value(a.l, memo), _value(a.r, memo)
        zero, unit = (sx.BOT, sx.TOP) if isinstance(a, sx.LAnd) else (sx.TOP, sx.BOT)
        if l == zero or r == zero:
            return zero
        if l == unit and r == unit:
            return unit
    return a


def _by_value(f: sx.LFormula, memo: dict) -> pf.Derivation:
    # f => bot for an f of value bot, top => f for one of value top: at
    # most one node per subformula
    if not isinstance(f, (sx.LAnd, sx.LOr)):
        return lm.did(f)
    v, conj = _value(f, memo), isinstance(f, sx.LAnd)
    if (v == sx.TOP) == conj:  # both sides carry the value
        d1, d2 = _by_value(f.l, memo), _by_value(f.r, memo)
        return lm.dand_r(d1, d2) if conj else lm.dor_l(d1, d2, f)
    idx, sub = (1, f.l) if _value(f.l, memo) == v else (2, f.r)
    d = _by_value(sub, memo)
    return lm.dand_l(d, f, idx) if conj else lm.dor_r(d, f, idx)


def _top_core(f: sx.LFormula, t: sx.LFormula, rhs: sx.LOr) -> pf.Derivation:
    # (B \/ B~) /\ (A \/ A~) => rhs = f \/ t for f = A /\ B or A \/ B and
    # t = f~.  Of f and t one is a conjunction Z /\ Z' and the other a
    # disjunction D \/ D', where Z and D are A and A~ in some order, and Z'
    # and D' are B and B~.  Split on A \/ A~: the D case injects D, and the
    # Z case splits on B \/ B~, whose Z' case is Z /\ Z' and whose D' case
    # injects D'.
    conj, disj = (f, t) if isinstance(f, sx.LAnd) else (t, f)
    ci, di = (1, 2) if conj is f else (2, 1)
    y, z = sx.LOr(f.r, t.r), conj.l

    def inject(x, idx):
        # x /\ D => rhs for idx 1, x /\ D' => rhs for idx 2
        main = sx.LAnd(x, disj.l if idx == 1 else disj.r)
        return lm.dand_l(lm.dor_r(lm.dor_r(lm.did(main.r), disj, idx), rhs, di), main, 2)

    whole = lm.dor_r(lm.did(conj), rhs, ci)
    z_cases = (whole, inject(z, 2)) if conj is f else (inject(z, 2), whole)
    z_case = lm.le_trans(lm.comm_and(y, z), lm.dist_or_l(*z_cases))
    return lm.dist_or_l(*((z_case, inject(y, 1)) if conj is f else (inject(y, 1), z_case)))


def pair_bot(f: sx.LFormula, phi, memo: Optional[dict] = None) -> pf.Derivation:
    """A /\\ A~ => bot, by recursion on the lattice shape of A, with
    tilde_ext over the given memo (a fresh one if none).

    A lattice A whose constants decide its value (`_value`) is closed by
    that value: the side of value bot is refuted outright (`_by_value`).
    Otherwise the pair of A = B /\\ C or B \\/ C reduces to the pairs of B
    and C by a core of fixed shape, `lm.dist_pairs`, after a `comm_and` for
    a disjunction.  No case searches, and the certificate grows linearly
    in the size of A."""
    memo = {} if memo is None else memo
    t = tilde_ext(f, memo)
    lhs = sx.LAnd(f, t)
    if isinstance(f, (sx.LTop, sx.LBot)):
        return lm.lat_le_strict(lhs, sx.BOT)
    if isinstance(f, (sx.LAnd, sx.LOr)):
        v = _value(f, memo)
        if v == sx.BOT:
            return lm.dand_l(_by_value(f, memo), lhs, 1)
        if v == sx.TOP:
            return lm.dand_l(_by_value(t, memo), lhs, 2)
        sides = pair_bot(f.l, phi, memo), pair_bot(f.r, phi, memo)
        if isinstance(f, sx.LAnd):
            return lm.dist_pairs(f, *sides)
        return lm.le_trans(lm.comm_and(f, t), lm.dist_pairs(t, *sides))
    return _companion_bot(f, phi)


def pair_top(f: sx.LFormula, phi, memo: Optional[dict] = None) -> pf.Derivation:
    """top => A \\/ A~, dually to pair_bot: a lattice A whose constants
    decide its value by that value, and A = B /\\ C or B \\/ C from the
    pairs of B and C, conjoined as (C \\/ C~) /\\ (B \\/ B~), by a core of
    fixed shape (`_top_core`: two distributions, one `comm_and` and fixed
    injections).  No case searches, and the certificate grows linearly in
    the size of A."""
    memo = {} if memo is None else memo
    t = tilde_ext(f, memo)
    rhs = sx.LOr(f, t)
    if isinstance(f, (sx.LTop, sx.LBot)):
        return lm.lat_le_strict(sx.TOP, rhs)
    if isinstance(f, (sx.LAnd, sx.LOr)):
        v = _value(f, memo)
        if v == sx.TOP:
            return lm.dor_r(_by_value(f, memo), rhs, 1)
        if v == sx.BOT:
            return lm.dor_r(_by_value(t, memo), rhs, 2)
        both = lm.dand_r(pair_top(f.r, phi, memo), pair_top(f.l, phi, memo))
        return lm.le_trans(both, _top_core(f, t, rhs))
    return _companion_top(f, phi)


# ---------------------------------------------------------------------------
# certified absorption
#
# Derivations reaching the constant letters: anything flows into p_top,
# and a p_bot leaf swallows its whole tree.  Lattice structure is peeled
# off down to assumption members.


def sec_top(f: sx.LFormula, phi) -> pf.Derivation:
    """A => p_top."""
    if f == sx.P_TOP:
        return lm.did(f)
    member = sx.simple(f, sx.P_TOP)
    if member in phi:
        return lm.dassume(member)
    if isinstance(f, sx.LAnd):
        for idx, sub in ((1, f.l), (2, f.r)):
            try:
                return lm.dand_l(sec_top(sub, phi), f, idx)
            except LemmaError:
                continue
        raise LemmaError(f"{sx.render_lambek(f)} does not reach p_top")
    if isinstance(f, sx.LOr):
        return lm.dor_l(sec_top(f.l, phi), sec_top(f.r, phi), f)
    if isinstance(f, sx.LProd):
        two = sx.SNode(sx.SLeaf(f.l), sx.SLeaf(f.r))
        return lm.dprod_l(tree_top(two, phi), ())
    raise LemmaError(f"{sx.render_lambek(f)} does not reach p_top")


def tree_top(t: sx.StructTree, phi) -> pf.Derivation:
    """Gamma => p_top for a bracket-free tree: reduce both subtrees to
    p_top, then absorb the pair through the product member."""
    if isinstance(t, sx.SLeaf):
        return sec_top(t.f, phi)
    if isinstance(t, sx.SBracket):
        raise LemmaError("bracket structure does not reach p_top")
    out = _member(sx.simple(sx.LProd(sx.P_TOP, sx.P_TOP), sx.P_TOP), phi, lm.dassume_prod)
    out = lm.dcut(tree_top(t.r, phi), out, (1,))
    return lm.dcut(tree_top(t.l, phi), out, (0,))


def sec_from_pbot(f: sx.LFormula, phi) -> pf.Derivation:
    """p_bot => A."""
    if f == sx.P_BOT:
        return lm.did(f)
    member = sx.simple(sx.P_BOT, f)
    if member in phi:
        return lm.dassume(member)
    if isinstance(f, sx.LAnd):
        return lm.dand_r(sec_from_pbot(f.l, phi), sec_from_pbot(f.r, phi))
    if isinstance(f, sx.LOr):
        for idx, sub in ((1, f.l), (2, f.r)):
            try:
                return lm.dor_r(sec_from_pbot(sub, phi), f, idx)
            except LemmaError:
                continue
        raise LemmaError(f"p_bot does not reach {sx.render_lambek(f)}")
    raise LemmaError(f"p_bot does not reach {sx.render_lambek(f)}")


def tree_absorb(t: sx.StructTree, path: pf.Path, phi) -> pf.Derivation:
    """Gamma[p_bot] => p_bot, the p_bot leaf sitting at the given path."""
    if not path:
        if t != sx.SLeaf(sx.P_BOT):
            raise LemmaError("absorption path does not end at the bot letter")
        return lm.did(sx.P_BOT)
    if not isinstance(t, sx.SNode):
        raise LemmaError("absorption path leaves the plain tree structure")
    if path[0] == 0:
        out = _member(sx.simple(sx.LProd(sx.P_BOT, sx.P_TOP), sx.P_BOT), phi, lm.dassume_prod)
        out = lm.dcut(tree_top(t.r, phi), out, (1,))
        return lm.dcut(tree_absorb(t.l, path[1:], phi), out, (0,))
    out = _member(sx.simple(sx.LProd(sx.P_TOP, sx.P_BOT), sx.P_BOT), phi, lm.dassume_prod)
    out = lm.dcut(tree_top(t.l, phi), out, (0,))
    return lm.dcut(tree_absorb(t.r, path[1:], phi), out, (1,))


# ---------------------------------------------------------------------------
# letter inverses


@_memoized
def negrewrite(a: sx.LFormula, memo: dict) -> sx.LFormula:
    """Read every generated letter as the negation of its payload."""
    if isinstance(a, sx.LFresh) and a.mark == "neg":
        return sx.LNot(negrewrite(a.of, memo))
    return sx.map_children(a, lambda c: negrewrite(c, memo))


@_memoized
def negrewrite_sequent(s: sx.Sequent, memo: dict) -> sx.Sequent:
    return _map_sequent(s, negrewrite, memo)


@_memoized
def section_inverse(a: sx.LFormula, memo: dict) -> sx.LFormula:
    """The constant letters back to the constants."""
    if a == sx.P_BOT:
        return sx.BOT
    if a == sx.P_TOP:
        return sx.TOP
    if isinstance(a, sx.LFresh) and a.mark == "neg":
        return sx.fresh_for(section_inverse(a.of, memo))
    return sx.map_children(a, lambda c: section_inverse(c, memo))


@_memoized
def section_inverse_sequent(s: sx.Sequent, memo: dict) -> sx.Sequent:
    return _map_sequent(s, section_inverse, memo)


# ---------------------------------------------------------------------------
# derivation transports
#
# Each transport rebuilds a derivation bottom-up along a formula map, in
# the post-order of `proofs.post_order` that `proofs.table_text` writes, so
# a shared subproof is mapped once.  Homomorphic rules keep their shape
# and their instantiation as it stands: a formula map keeps every tree's
# shape, so a hole path and a picked side mean the same in the image; the
# axioms that mention eliminated vocabulary get replaced by the
# certified builders above: a negation axiom by a companion pair, a top
# axiom by `tree_top`, a bot axiom by `tree_absorb` (then `sec_from_pbot`
# unless the succedent is p_bot), which is how `strategy.try_unsection`
# proves the absorption goals.  Outputs are meant to be gated by the
# checker against the target assumption set.


def _map_derivation(d: pf.Derivation, step: Callable) -> pf.Derivation:
    done: dict[int, pf.Derivation] = {}
    for n in pf.post_order(d):
        done[id(n)] = step(n, tuple(done[id(p)] for p in n.premises))
    return done[id(d)]


def ddagger_derivation(d: pf.Derivation, phi, memo: Optional[dict] = None) -> pf.Derivation:
    """Negation elimination on a whole derivation: negation axioms become
    companion-pair derivations over the members of phi, everything else
    (assumption leaves included) maps homomorphically.  The maps run over
    the given memo, or a fresh one."""
    target = allowed_rules(get_system("bdfnl-star"))
    memo = {} if memo is None else memo

    def step(n: pf.Derivation, prems):
        if n.rule == pf.NEG1:
            return pair_bot(_ddag(n.seq.ant.f.l, memo), phi, memo)
        if n.rule == pf.NEG2:
            return pair_top(_ddag(n.seq.suc.l, memo), phi, memo)
        if n.rule not in target:
            raise LemmaError(f"{n.rule} has no image in the negation-free system")
        return pf.node(ddagger_sequent(n.seq, memo), n.rule, prems, n.path, n.idx)

    return _map_derivation(d, step)


def neg_axiom(s: sx.Sequent) -> Optional[pf.Derivation]:
    # recognize a rewritten member that became a negation axiom instance
    if s.suc == sx.BOT and isinstance(s.ant, sx.SLeaf):
        f = s.ant.f
        if isinstance(f, sx.LAnd) and f.r == sx.LNot(f.l):
            return lm.dneg1(f.l)
    if (s.ant == sx.SLeaf(sx.TOP) and isinstance(s.suc, sx.LOr)
            and s.suc.r == sx.LNot(s.suc.l)):
        return lm.dneg2(s.suc.l)
    return None


def section_derivation(d: pf.Derivation, phi, memo: Optional[dict] = None) -> pf.Derivation:
    """Constant elimination on a whole derivation: bound axioms become
    absorption derivations over the letter members of phi, and empty antecedents
    become the top letter throughout (matching section_sequent).  Empty
    residual introductions have no image and fail.  The maps run over the
    given memo, or a fresh one."""
    target = allowed_rules(get_system("dfnl"))
    memo = {} if memo is None else memo

    def step(n: pf.Derivation, prems):
        if n.rule == pf.TOP_AX:
            return tree_top(section_sequent(n.seq, memo).ant, phi)
        if n.rule == pf.BOT_AX:
            img = section_sequent(n.seq, memo)
            out = tree_absorb(img.ant, n.path, phi)
            if img.suc != sx.P_BOT:
                out = lm.le_trans(out, sec_from_pbot(img.suc, phi))
            return out
        if n.rule not in target:
            raise LemmaError(f"{n.rule} has no image in the constant-free system")
        if n.rule in (pf.UNDER_R, pf.OVER_R) and n.seq.ant is None:
            raise LemmaError("empty residual introduction has no constant-free image")
        return pf.node(section_sequent(n.seq, memo), n.rule, prems, n.path, n.idx)

    return _map_derivation(d, step)


# ---------------------------------------------------------------------------
# composed pipeline


STAGES = ("dagger", "ddagger", "section")


def pipeline_k_to_dfnl(a: sx.ModalFormula,
                       stage: str = "section") -> tuple[str, sx.Sequent, frozenset]:
    """The reduction of a modal validity question down to the given stage
    of `STAGES`: the negation goal, the letter-companion problem, or the
    constant-free, negation-free problem.  Returns (system name, goal,
    assumptions)."""
    if stage not in STAGES:
        raise ValidationError(f"unknown stage {stage!r}; known: {', '.join(STAGES)}")
    goal = sx.Sequent(None, dagger(a))
    if stage == "dagger":
        return "bfnl-star", goal, frozenset()
    goal, phi = ddagger_problem(goal, ())
    if stage == "ddagger":
        return "bdfnl-star", goal, phi
    goal, phi = section_embed(goal, phi)
    return "dfnl", goal, phi
