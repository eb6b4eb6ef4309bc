"""Batch command-line front end.

One process per command, no state between runs.  JSON goes to standard
output by default; ``--format text`` renders derivations and models for
reading.  Exit codes: 0 = the command completed (whatever the verdict
says), 1 = usage or input error, 2 = the command ended in an Unknown
verdict (proof search exhausted, or no countermodel found).

A call builds only its own command's argument parser, from the COMMANDS
table; the whole command tree is built only for the top-level help, a
missing or unknown command, and arguments the command does not know, so
that those messages are argparse's own.
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys
from dataclasses import replace
from typing import Optional

from . import checker as ck
from . import ktableau as kt
from . import models as md
from . import proofs as pf
from . import prover as pv
from . import sampling
from . import syntax as sx
from . import transform as tr
from .errors import FnlError, ModelError, ParseError, ValidationError
from .systems import get_system


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the exit-code protocol reserves 2
    for Unknown verdicts, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(_sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# shared plumbing


def _load_assumptions(path: Optional[str]) -> frozenset[sx.Sequent]:
    """One sequent per line; blank lines and ``#`` comments are skipped."""
    if path is None:
        return frozenset()
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    out = set()
    for no, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            out.add(sx.parse_sequent(text))
        except ParseError as e:
            raise ParseError(f"{path}:{no}: {e}") from None
    return frozenset(out)


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as e:
            raise ModelError(f"{path}: not valid JSON: {e}") from None


def _budget(args) -> pv.SearchBudget:
    b = pv.parse_budget(args.budget) if args.budget else pv.SearchBudget()
    if getattr(args, "seed", None) is not None:
        b = replace(b, seed=args.seed)
    return b


def _model_to_json(m) -> dict:
    if isinstance(m, md.KripkeModel):
        return md.kripke_to_json(m)
    return md.ternary_to_json(m)


def _model_text(m) -> str:
    lines = [f"states: {' '.join(m.states)}"]
    if isinstance(m, md.KripkeModel):
        pairs = ", ".join(f"{a}->{b}" for a, b in sorted(m.rel))
        lines.append(f"rel: {pairs or '(none)'}")
    else:
        triples = ", ".join(f"({a},{b},{c})" for a, b, c in sorted(m.rel3))
        lines.append(f"rel: {triples or '(none)'}")
        if m.unit is not None:
            lines.append(f"unit: {m.unit}")
        if m.dia is not None:
            pairs = ", ".join(f"{a}->{b}" for a, b in sorted(m.dia))
            lines.append(f"dia: {pairs or '(none)'}")
    for k in sorted(m.val):
        lines.append(f"val {k}: {{{', '.join(sorted(m.val[k]))}}}")
    return "\n".join(lines)


def _phi_lines(phi) -> list[str]:
    return sorted(sx.render_sequent(s) for s in phi)


def _result_text(r: pv.ProofResult) -> str:
    lines = [f"verdict: {r.verdict}"]
    if r.strategy:
        lines.append(f"strategy: {r.strategy}")
    if r.derivation is not None:
        lines.append(pf.pretty(r.derivation))
    if r.model is not None:
        lines.append(f"countermodel falsifying the goal at {r.state}:")
        lines.append(_model_text(r.model))
    if r.report:
        lines.append(r.report)
    return "\n".join(lines)


def _recheck(r: pv.ProofResult, payload: dict, system, phi, goal: sx.Sequent) -> str:
    """Round-trip the verdict's evidence, as the payload carries it, through
    JSON text and the independent checkers; any failure is a hard error."""
    if r.verdict == pv.PROVED:
        again = pf.from_json(json.loads(json.dumps(payload["derivation"])))
        if again.seq != goal or not ck.check_derivation(system, phi, again):
            raise FnlError("recheck failed: reloaded derivation rejected")
        return "derivation reloaded and accepted"
    if r.verdict == pv.REFUTED:
        again = md.ternary_from_json(json.loads(json.dumps(md.ternary_to_json(r.model))))
        if not md.satisfies_assumptions(again, phi):
            raise FnlError("recheck failed: countermodel loses the assumptions")
        if md.sequent_true(again, r.state, goal):
            raise FnlError("recheck failed: countermodel no longer falsifies")
        return "countermodel reloaded and still falsifies"
    return "nothing to recheck"


# ---------------------------------------------------------------------------
# commands; each returns (json payload, text rendering, exit code); a
# derivation is rendered as text only when --format text asks for it


def cmd_translate(args):
    a = sx.parse_modal(args.formula)
    system, goal, phi = tr.pipeline_k_to_dfnl(a, args.stage)
    payload = {
        "source": args.source,
        "formula": sx.render_modal(a),
        "stage": args.stage,
        "system": system,
        "goal": sx.render_sequent(goal),
        "assumptions": _phi_lines(phi),
    }
    text = [f"system: {system}", f"goal: {payload['goal']}", f"assumptions ({len(phi)}):"]
    text += [f"  {line}" for line in payload["assumptions"]]
    return payload, "\n".join(text), 0


def cmd_prove(args):
    system = get_system(args.system)
    goal = sx.parse_sequent(args.goal)
    phi = _load_assumptions(args.assumptions)
    r = pv.derive(system, phi, goal, _budget(args))
    payload = {"system": args.system, "goal": sx.render_sequent(goal)}
    payload.update(pv.result_to_json(r))
    text = _result_text(r) if args.format == "text" else ""
    if args.recheck:
        note = _recheck(r, payload, system, phi, goal)
        payload["recheck"] = note
        text += f"\nrecheck: {note}"
    return payload, text, 2 if r.verdict == pv.UNKNOWN else 0


def cmd_modelcheck(args):
    loaders = {
        "kripke": md.kripke_from_json,
        "ternary": md.ternary_from_json,
        "auto": md.model_from_json,
    }
    m = loaders[args.kind](_load_json(args.model))
    if args.state is not None and args.state not in m.states:
        raise ModelError(f"state {args.state!r} not in the model")
    payload: dict = {"input": args.text}
    if isinstance(m, md.KripkeModel):
        payload["model"] = "kripke"
        if "=>" in args.text:
            raise ParseError("sequents need a ternary model, not a Kripke one")
        f = sx.parse_modal(args.text)
        state = args.state or m.states[0]
        value = md.eval_modal(m, state, f)
        payload.update(state=state, value=value)
    else:
        payload["model"] = "ternary"
        if "=>" in args.text:
            s = sx.parse_sequent(args.text)
            if args.state is None:
                value = md.sequent_true_everywhere(m, s)
                payload["holds_everywhere"] = value
            else:
                value = md.sequent_true(m, args.state, s)
                payload.update(state=args.state, value=value)
        else:
            f = sx.parse_lambek(args.text)
            state = args.state or m.states[0]
            value = md.eval_lambek(m, state, f)
            payload.update(state=state, value=value)
    return payload, "true" if value else "false", 0


# the sampler's options; a modal goal is decided by the K tableau and takes none
_SAMPLER_OPTIONS = ("seed", "samples", "max_states", "symmetric", "with_unit", "with_dia")


def cmd_countermodel(args):
    phi = _load_assumptions(args.assumptions)
    # unset options are None, so the budget's defaults apply
    given = {k: getattr(args, k) for k in _SAMPLER_OPTIONS if getattr(args, k) is not None}
    if args.modal:
        if given:
            flags = ", ".join("--" + k.replace("_", "-") for k in given)
            raise ValidationError(f"--modal decides the goal exactly and takes no {flags}")
        a = sx.parse_modal(args.goal)
        if phi:
            raise ModelError("assumptions are sequent-side only")
        v = kt.k_decide(a)
        if v.valid:
            return {"found": False, "report": "valid in K"}, "valid in K", 0
        hit = v.model, v.root
    else:
        budget = sampling.SampleBudget(**given)
        goal = sx.parse_sequent(args.goal)
        hit = sampling.find_countermodel(goal, phi, budget, sampling.chain_verdict(goal))
        if hit is None:
            report = f"no countermodel in {budget.samples} samples"
            return {"found": False, "report": report}, "no countermodel found", 2
    m, state = hit
    payload = {"found": True, "state": state, "model": _model_to_json(m)}
    text = f"countermodel falsifying the goal at {state}:\n{_model_text(m)}"
    return payload, text, 0


def cmd_pipeline(args):
    a = sx.parse_modal(args.formula)
    system, goal, phi = tr.pipeline_k_to_dfnl(a)
    payload = {
        "formula": sx.render_modal(a),
        "system": system,
        "goal": sx.render_sequent(goal),
        "assumptions": _phi_lines(phi),
    }
    text = [f"system: {system}", f"goal: {sx.render_sequent(goal)}",
            f"assumptions: {len(phi)}"]
    code = 0
    if args.run_prover:
        r = pv.derive(get_system(system), phi, goal, _budget(args))
        payload.update(pv.result_to_json(r))
        if args.format == "text":
            text.append(_result_text(r))
        code = 2 if r.verdict == pv.UNKNOWN else 0
    return payload, "\n".join(text), code


def cmd_kdecide(args):
    a = sx.parse_modal(args.formula)
    v = kt.k_decide(a)
    if v.valid:
        payload = {"verdict": "valid", "trace": v.trace}
        return payload, f"valid\n{v.trace}", 0
    payload = {
        "verdict": "invalid",
        "root": v.root,
        "model": md.kripke_to_json(v.model),
    }
    text = f"invalid at {v.root}:\n{_model_text(v.model)}"
    return payload, text, 0


def cmd_buildmodel(args):
    m = md.kripke_from_json(_load_json(args.kripke))
    letter = args.letter or None
    j = tr.build_ternary_model(m, letter, exchange=args.variant == "exchange")
    if args.variant == "unit":
        j = tr.extend_with_unit(j, m, letter)
    return md.ternary_to_json(j), _model_text(j), 0


# ---------------------------------------------------------------------------
# argument wiring; each command's arguments are declared once, in its adder


def _args_budget(p) -> None:
    p.add_argument("--budget", help="depth:N,goals:N,cutsize:N,ms:N,seed:N,samples:N")
    p.add_argument("--seed", type=int, help="overrides the budget's seed")


def _args_translate(p) -> None:
    p.add_argument("source", choices=("k",), help="source logic")
    p.add_argument("formula", help="modal formula in the concrete grammar")
    p.add_argument("--stage", choices=tr.STAGES, default="dagger",
                   help="dagger: negation goal; ddagger: letter-companion "
                        "problem; section: constant-free problem")


def _args_prove(p) -> None:
    p.add_argument("goal", help="sequent in the concrete grammar")
    p.add_argument("--system", required=True, help="system name, e.g. bfnl-star")
    p.add_argument("--assumptions", help="file with one sequent per line")
    _args_budget(p)
    p.add_argument("--recheck", action="store_true",
                   help="round-trip the evidence through JSON and re-verify")


def _args_modelcheck(p) -> None:
    p.add_argument("model", help="model JSON file (binary or ternary)")
    p.add_argument("text", help="formula, or sequent containing '=>'")
    p.add_argument("--state", help="state to evaluate at (default: first state; "
                                   "omitting it checks sequents at every state)")
    p.add_argument("--kind", choices=("auto", "kripke", "ternary"), default="auto",
                   help="force the model reading (auto guesses from the "
                        "relation arity, which misreads edgeless binary models)")


def _args_countermodel(p) -> None:
    p.add_argument("goal", help="sequent (or modal formula with --modal)")
    p.add_argument("--modal", action="store_true",
                   help="goal is a modal formula, decided by the K tableau")
    p.add_argument("--assumptions", help="file with one sequent per line")
    p.add_argument("--seed", type=int, help="sampler seed (default 0)")
    p.add_argument("--samples", type=int, help="models to sample (default 1500)")
    p.add_argument("--max-states", type=int, help="states per sampled model (default 4)")
    # unset sampler options stay None, so --modal can tell which were given
    p.add_argument("--symmetric", action="store_true", default=None,
                   help="commutative frames only")
    p.add_argument("--with-unit", action="store_true", default=None, help="unital frames")
    p.add_argument("--with-dia", action="store_true", default=None,
                   help="frames with a binary accessibility")


def _args_pipeline(p) -> None:
    p.add_argument("formula", help="modal formula in the concrete grammar")
    p.add_argument("--run-prover", action="store_true",
                   help="also run the prover on the reduced problem")
    _args_budget(p)


def _args_kdecide(p) -> None:
    p.add_argument("formula", help="modal formula in the concrete grammar")


def _args_buildmodel(p) -> None:
    p.add_argument("kripke", help="binary model JSON file")
    p.add_argument("--variant", choices=("plain", "exchange", "unit"), default="plain")
    p.add_argument("--letter", default=tr.M,
                   help="designated letter valued everywhere ('' for none)")


# name -> (handler, help line in the command list, argument adder)
COMMANDS = {
    "translate": (cmd_translate, "map a modal formula down the reduction chain",
                  _args_translate),
    "prove": (cmd_prove, "run the three-valued prover on a sequent", _args_prove),
    "modelcheck": (cmd_modelcheck, "evaluate a formula or sequent in a model file",
                   _args_modelcheck),
    "countermodel": (cmd_countermodel, "sample models hunting for a falsifier",
                     _args_countermodel),
    "pipeline": (cmd_pipeline, "full modal-to-constant-free reduction", _args_pipeline),
    "kdecide": (cmd_kdecide, "decide modal validity by tableau", _args_kdecide),
    "buildmodel": (cmd_buildmodel, "turn a binary model file into a ternary one",
                   _args_buildmodel),
}


def _fill(p: _Parser, name: str) -> _Parser:
    fn, _, add_args = COMMANDS[name]
    p.set_defaults(fn=fn)
    p.add_argument("--format", choices=("json", "text"), default="json",
                   help="output rendering (default json)")
    add_args(p)
    return p


def _build_parser() -> _Parser:
    """The whole command tree, for the top-level help and usage errors."""
    top = _Parser(prog="fnlkit", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (_, helptext, _) in COMMANDS.items():
        _fill(sub.add_parser(name, help=helptext), name)
    return top


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse with the named command's parser alone, which prints the same
    help and errors as the tree's subparser; anything else, and arguments
    the command does not know (the tree reports those), goes to the tree."""
    if argv and argv[0] in COMMANDS:
        p = _fill(_Parser(prog=f"fnlkit {argv[0]}"), argv[0])
        args, extra = p.parse_known_args(argv[1:])
        if not extra:
            return args
    return _build_parser().parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    _sys.setrecursionlimit(30000)
    try:
        args = _parse(_sys.argv[1:] if argv is None else argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        payload, text, code = args.fn(args)
        print(json.dumps(payload, indent=2) if args.format == "json" else text)
        _sys.stdout.flush()
    except FnlError as e:
        print(f"error: {e}", file=_sys.stderr)
        return 1
    except BrokenPipeError as e:
        # send what is still buffered to devnull, or the flush at exit fails again
        os.dup2(os.open(os.devnull, os.O_WRONLY), _sys.stdout.fileno())
        print(f"error: standard output closed: {e}", file=_sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=_sys.stderr)
        return 1
    except RecursionError:
        print("error: input nests too deeply", file=_sys.stderr)
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
