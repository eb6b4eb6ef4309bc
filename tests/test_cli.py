"""The command-line front end: exit-code protocol, JSON payloads, file
inputs, and the printed-evidence round trips."""

import json
import os
import subprocess
import sys

import pytest

from fnlkit import checker as ck
from fnlkit import cli
from fnlkit import models as md
from fnlkit import proofs as pf
from fnlkit import syntax as sx
from fnlkit.systems import get_system


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out, err
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# prove


def test_prove_emits_a_checkable_derivation(capsys):
    code, payload = run_json(capsys, "prove", "--system", "bfnl-star", "=> ~p \\/ p")
    assert code == 0
    assert payload["verdict"] == "proved"
    d = pf.from_json(payload["derivation"])
    assert d.seq == sx.parse_sequent("=> ~p \\/ p")
    assert ck.check_derivation(get_system("bfnl-star"), (), d)


def test_prove_recheck_round_trip(capsys):
    code, payload = run_json(capsys, "prove", "--system", "bfnl-star",
                             "p /\\ q => q", "--recheck")
    assert code == 0
    assert payload["recheck"] == "derivation reloaded and accepted"


def test_prove_text_recheck_prints_tree_and_recheck(capsys):
    code, out, err = run(capsys, "prove", "--system", "bfnl-star", "p /\\ q => q",
                         "--recheck", "--format", "text")
    assert code == 0, err
    assert out.splitlines() == [
        "verdict: proved",
        "strategy: lattice",
        "AndL: p /\\ q => q",
        "  Id: q => q",
        "recheck: derivation reloaded and accepted",
    ]


def test_tower_table_grows_linearly_and_reloads_without_parsing(capsys, monkeypatch):
    blobs = {}
    for n in (200, 400):
        code, payload = run_json(capsys, "prove", "--system", "bfnl-star", "~" * n + "p => p")
        assert code == 0 and payload["verdict"] == "proved"
        blobs[n] = json.dumps(payload["derivation"], separators=(",", ":"))
    assert len(blobs[400]) < 2.5 * len(blobs[200])

    def no_parse(*args):
        raise AssertionError("from_json parsed concrete syntax")

    goal = sx.parse_sequent("~" * 400 + "p => p")
    for name in ("parse_lambek", "parse_tree", "parse_sequent", "parse_modal"):
        monkeypatch.setattr(sx, name, no_parse)
    d = pf.from_json(json.loads(blobs[400]))
    assert d.seq == goal and pf.size(d) == len(json.loads(blobs[400])["nodes"])
    assert ck.check_derivation(get_system("bfnl-star"), (), d)


def test_prove_refuted_countermodel_payload(capsys):
    code, payload = run_json(capsys, "prove", "--system", "bfnl-star",
                             "p => q", "--recheck", "--seed", "3")
    assert code == 0
    assert payload["verdict"] == "refuted"
    model = md.ternary_from_json(payload["model"])
    assert not md.sequent_true(model, payload["state"], sx.parse_sequent("p => q"))


def test_prove_unknown_exits_two(capsys):
    code, payload = run_json(capsys, "prove", "--system", "dfnl",
                             "p => q \\ (q * p)", "--budget", "depth:0,ms:2000,samples:20")
    assert code == 2
    assert payload["verdict"] == "unknown"


def test_prove_usage_errors_exit_one(capsys):
    code, out, err = run(capsys, "prove", "--system", "no-such-system", "p => p")
    assert code == 1 and "unknown system" in err
    code, out, err = run(capsys, "prove", "--system", "bfnl-star", "p => ")
    assert code == 1 and "error" in err
    code, out, err = run(capsys, "prove", "--system", "bfnl-star", "p => p",
                         "--budget", "width:3")
    assert code == 1
    code, out, err = run(capsys, "nonsense-command")
    assert code == 1


def test_prove_reads_assumption_files(capsys, tmp_path):
    phi = tmp_path / "phi.txt"
    phi.write_text("# companion facts\np => q   # inline note\n\nq => r\n")
    code, payload = run_json(capsys, "prove", "--system", "bfnl-star",
                             "p => r", "--assumptions", str(phi))
    assert code == 0 and payload["verdict"] == "proved"
    bad = tmp_path / "bad.txt"
    bad.write_text("p => \n")
    code, out, err = run(capsys, "prove", "--system", "bfnl-star",
                         "p => r", "--assumptions", str(bad))
    assert code == 1 and "bad.txt:1" in err
    code, out, err = run(capsys, "prove", "--system", "bfnl-star",
                         "p => r", "--assumptions", str(tmp_path / "missing.txt"))
    assert code == 1


# ---------------------------------------------------------------------------
# kdecide and the countermodel round trip


def test_kdecide_valid(capsys):
    code, payload = run_json(capsys, "kdecide", "[](p -> q) -> ([]p -> []q)")
    assert code == 0
    assert payload["verdict"] == "valid" and "closed" in payload["trace"]


def test_kdecide_invalid_model_reevaluates_via_modelcheck(capsys, tmp_path):
    code, payload = run_json(capsys, "kdecide", "<>p")
    assert code == 0 and payload["verdict"] == "invalid"
    assert payload["model"]["states"] == ["w0"] and payload["model"]["rel"] == []
    mfile = tmp_path / "model.json"
    mfile.write_text(json.dumps(payload["model"]))
    code, verdict = run_json(capsys, "modelcheck", str(mfile), "<>p",
                             "--state", payload["root"], "--kind", "kripke")
    assert code == 0 and verdict["value"] is False


# ---------------------------------------------------------------------------
# modelcheck


def test_modelcheck_ternary_sequent_and_formula(capsys, tmp_path):
    model = {
        "states": ["u", "v"],
        "rel": [["u", "u", "v"]],
        "val": {"p": ["u"], "q": ["u", "v"]},
    }
    mfile = tmp_path / "ternary.json"
    mfile.write_text(json.dumps(model))
    code, payload = run_json(capsys, "modelcheck", str(mfile), "p => q")
    assert code == 0 and payload["holds_everywhere"] is True
    code, payload = run_json(capsys, "modelcheck", str(mfile), "q => p")
    assert payload["holds_everywhere"] is False
    code, payload = run_json(capsys, "modelcheck", str(mfile), "p * q", "--state", "u")
    assert payload["value"] is True
    code, out, err = run(capsys, "modelcheck", str(mfile), "p => q", "--state", "w")
    assert code == 1 and "not in the model" in err


def test_modelcheck_rejects_sequents_against_kripke_models(capsys, tmp_path):
    mfile = tmp_path / "k.json"
    mfile.write_text(json.dumps({"states": ["w"], "rel": [["w", "w"]], "val": {"p": []}}))
    code, out, err = run(capsys, "modelcheck", str(mfile), "p => p")
    assert code == 1
    code, payload = run_json(capsys, "modelcheck", str(mfile), "[]p -> p")
    assert code == 0 and payload["value"] is True  # reflexive state


def test_modelcheck_rejects_malformed_json(capsys, tmp_path):
    mfile = tmp_path / "broken.json"
    mfile.write_text("{not json")
    code, out, err = run(capsys, "modelcheck", str(mfile), "p => p")
    assert code == 1 and "not valid JSON" in err


@pytest.mark.parametrize("model", [
    [1, 2],
    {"states": ["a"], "rel": [1], "val": {}},
    {"states": ["a"], "rel": [], "val": {}, "dia": [["a"]]},
    {"states": [["a"]], "rel": [], "val": {}},
    {"states": ["a"], "rel": [], "val": []},
    {"states": ["a", "b"], "rel": [], "val": {"p": "ab"}},
])
def test_modelcheck_rejects_malformed_models(capsys, tmp_path, model):
    mfile = tmp_path / "model.json"
    mfile.write_text(json.dumps(model))
    code, out, err = run(capsys, "modelcheck", str(mfile), "p")
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


# ---------------------------------------------------------------------------
# countermodel


def test_countermodel_found_and_not_found(capsys):
    code, payload = run_json(capsys, "countermodel", "p => q", "--samples", "200")
    assert code == 0 and payload["found"] is True
    model = md.ternary_from_json(payload["model"])
    assert not md.sequent_true(model, payload["state"], sx.parse_sequent("p => q"))
    code, payload = run_json(capsys, "countermodel", "p => p", "--samples", "40")
    assert code == 2 and payload["found"] is False


def test_countermodel_modal_goal(capsys):
    # the second is falsified only three states deep, past any two-state
    # enumeration
    for text, states in (("[]p -> p", 1), ("~(<>p /\\ <>q /\\ ~<>(p /\\ q) /\\ ~(p \\/ q))", 3)):
        code, payload = run_json(capsys, "countermodel", text, "--modal")
        assert code == 0 and payload["found"] is True
        model = md.kripke_from_json(payload["model"])
        assert len(model.states) >= states
        assert not md.eval_modal(model, payload["state"], sx.parse_modal(text))


def test_countermodel_reports_valid_modal_goals(capsys):
    # "valid in K" is a decided answer, not an Unknown
    for text in ("[](p -> q) -> ([]p -> []q)", "p -> p"):
        code, payload = run_json(capsys, "countermodel", text, "--modal")
        assert code == 0
        assert payload == {"found": False, "report": "valid in K"}


@pytest.mark.parametrize("flags", [
    ("--samples", "0"), ("--seed", "0"), ("--max-states", "3"), ("--symmetric",),
    ("--with-unit",), ("--with-dia",), ("--seed", "2", "--with-dia"),
])
def test_countermodel_modal_rejects_sampler_options(capsys, flags):
    code, out, err = run(capsys, "countermodel", "[]p -> p", "--modal", *flags)
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert all(f in err for f in flags if f.startswith("--"))


def test_countermodel_modal_rejects_assumptions(capsys, tmp_path):
    phi = tmp_path / "phi.txt"
    phi.write_text("p => q\n")
    code, out, err = run(capsys, "countermodel", "[]p -> p", "--modal",
                         "--assumptions", str(phi))
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: assumptions are sequent-side only"]


def test_countermodel_respects_assumptions(capsys, tmp_path):
    phi = tmp_path / "phi.txt"
    phi.write_text("p => q\n")
    code, payload = run_json(capsys, "countermodel", "p => q",
                             "--assumptions", str(phi), "--samples", "60")
    assert code == 2 and payload["found"] is False


def test_countermodel_rejects_vocabulary_the_models_lack(capsys):
    # the answer must not depend on whether evaluation reaches the operator
    for goal in ("q => p /\\ <>p", "p => <>p"):
        code, out, err = run(capsys, "countermodel", goal)
        assert code == 1 and out == ""
        assert "modal operator on a model without a dia relation" in err
    for goal in ("q => p /\\ one", "p => one"):
        code, out, err = run(capsys, "countermodel", goal)
        assert code == 1 and out == ""
        assert "unit constant on a model without a unit" in err
    code, payload = run_json(capsys, "countermodel", "q => p /\\ one", "--with-unit")
    assert code == 0 and payload["found"] is True


def test_countermodel_rejects_max_states_below_one(capsys):
    for n in ("0", "-3"):
        code, out, err = run(capsys, "countermodel", "p => p", "--max-states", n)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "max_states" in err
        assert len(err.strip().splitlines()) == 1


def test_countermodel_rejects_negative_samples(capsys):
    code, out, err = run(capsys, "countermodel", "p1 * p2 => p3 \\/ p4 \\/ p5",
                         "--samples", "-5")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "samples" in err
    assert len(err.strip().splitlines()) == 1


def test_countermodel_rejects_bracketed_antecedents(capsys, tmp_path):
    code, out, err = run(capsys, "countermodel", "<p> => p")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "bracketed antecedent" in err
    phi = tmp_path / "phi.txt"
    phi.write_text("<q> => p\n")
    code, out, err = run(capsys, "countermodel", "p => q", "--assumptions", str(phi))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "bracketed antecedent" in err


# ---------------------------------------------------------------------------
# translate and pipeline


def test_translate_stages_line_up(capsys):
    code, stage1 = run_json(capsys, "translate", "k", "<>p", "--stage", "dagger")
    assert code == 0
    assert stage1["system"] == "bfnl-star"
    assert stage1["goal"] == "=> m * p"
    assert stage1["assumptions"] == []
    code, stage2 = run_json(capsys, "translate", "k", "<>p", "--stage", "ddagger")
    assert stage2["system"] == "bdfnl-star"
    assert stage2["goal"] == "=> m * p"
    assert len(stage2["assumptions"]) == 6
    code, stage3 = run_json(capsys, "translate", "k", "<>p", "--stage", "section")
    assert stage3["system"] == "dfnl-star"
    assert stage3["goal"].startswith("p_top =>")
    assert all("top" not in line or "p_top" in line for line in stage3["assumptions"])


def test_translate_rejects_unknown_source(capsys):
    code, out, err = run(capsys, "translate", "s5", "<>p")
    assert code == 1


def test_pipeline_end_to_end(capsys):
    code, payload = run_json(capsys, "pipeline", "[](p -> q) -> ([]p -> []q)",
                             "--run-prover")
    assert code == 0
    assert payload["system"] == "dfnl-star"
    assert payload["verdict"] == "proved"
    d = pf.from_json(payload["derivation"])
    goal = sx.parse_sequent(payload["goal"])
    phi = frozenset(sx.parse_sequent(s) for s in payload["assumptions"])
    assert d.seq == goal
    assert ck.check_derivation(get_system("dfnl-star"), phi, d)


def test_pipeline_without_prover_just_translates(capsys):
    code, payload = run_json(capsys, "pipeline", "<>p")
    assert code == 0 and "verdict" not in payload


@pytest.mark.parametrize("argv", [
    ("translate", "k", "~" * 40000 + "p"),
    ("prove", "--system", "bfnl-star", "=> " + "~" * 40000 + "p"),
    ("pipeline", "~" * 40000 + "p"),
])
def test_deep_inputs_fail_cleanly(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: input nests too deeply\n"


# ---------------------------------------------------------------------------
# buildmodel


def test_buildmodel_variants(capsys, tmp_path):
    kfile = tmp_path / "k.json"
    kfile.write_text(json.dumps({
        "states": ["w", "u"],
        "rel": [["w", "u"]],
        "val": {"p": ["u"]},
    }))
    code, plain = run_json(capsys, "buildmodel", str(kfile))
    assert code == 0
    j = md.ternary_from_json(plain)
    assert len(j.states) == 4 and j.val["m"] == frozenset(j.states)
    code, exch = run_json(capsys, "buildmodel", str(kfile), "--variant", "exchange")
    jx = md.ternary_from_json(exch)
    assert all((u, w, v) in jx.rel3 for (u, v, w) in jx.rel3)
    code, unit = run_json(capsys, "buildmodel", str(kfile), "--variant", "unit")
    ju = md.ternary_from_json(unit)
    assert ju.unit == "e"
    code, bare = run_json(capsys, "buildmodel", str(kfile), "--letter", "")
    assert "m" not in bare["val"]


# ---------------------------------------------------------------------------
# text format


def test_text_format_renders_derivations_and_models(capsys):
    code, out, err = run(capsys, "prove", "--system", "bfnl-star", "p => p",
                         "--format", "text")
    assert code == 0
    assert out.splitlines()[0] == "verdict: proved"
    assert "Id: p => p" in out
    code, out, err = run(capsys, "kdecide", "<>p", "--format", "text")
    assert "invalid at w0" in out and "states: w0" in out
    code, out, err = run(capsys, "countermodel", "p => q", "--format", "text",
                         "--samples", "100")
    assert "countermodel falsifying the goal" in out


def src_env() -> dict:
    """The environment for a ``python -m fnlkit`` child that imports this
    checkout's package."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def test_closed_stdout_ends_in_one_error_line():
    # the read end is closed before the command starts, so its first write
    # meets a broken pipe
    env = src_env()
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fnlkit", "translate", "k", "[](p -> q) -> ([]p -> []q)",
             "--stage", "section"],
            stdout=w, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    finally:
        os.close(w)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


def test_console_script_path_reads_sys_argv():
    # main(None), as the fnlkit console script and python -m fnlkit call it
    proc = subprocess.run(
        [sys.executable, "-m", "fnlkit", "kdecide", "p -> p"],
        capture_output=True, env=src_env(), text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "valid"


# ---------------------------------------------------------------------------
# argument parsing: a call builds its own command's parser, which must
# print and return what the whole command tree does


COMMAND_NAMES = ("translate", "prove", "modelcheck", "countermodel", "pipeline",
                 "kdecide", "buildmodel")


@pytest.fixture
def fixed_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")


def tree_run(capsys, argv):
    """What the whole command tree prints, and its exit code, for argv."""
    with pytest.raises(SystemExit) as stop:
        cli._build_parser().parse_args(argv)
    out = capsys.readouterr()
    return int(stop.value.code or 0), out.out, out.err


@pytest.mark.parametrize("name", COMMAND_NAMES)
@pytest.mark.parametrize("extra, code", [
    (["-h"], 0),
    ([], 1),                      # a missing positional
    (["--format", "xml"], 1),
])
def test_command_parser_prints_what_the_tree_prints(capsys, fixed_width, name, extra, code):
    argv = [name, *extra]
    got = run(capsys, *argv)
    assert got == tree_run(capsys, argv)
    assert got[0] == code
    assert (got[1] if code == 0 else got[2]).startswith(f"usage: fnlkit {name} ")


def test_unknown_arguments_get_the_trees_error(capsys, fixed_width):
    argv = ["kdecide", "p -> p", "--bogus"]
    got = run(capsys, *argv)
    assert got == tree_run(capsys, argv)
    assert got[0] == 1 and got[1] == ""
    assert got[2].endswith("fnlkit: error: unrecognized arguments: --bogus\n")


@pytest.mark.parametrize("argv, code", [([], 1), (["-h"], 0)])
def test_top_level_usage_lists_every_command(capsys, fixed_width, argv, code):
    got = run(capsys, *argv)
    assert got == tree_run(capsys, argv) and got[0] == code
    text = got[1] if code == 0 else got[2]
    assert "{" + ",".join(COMMAND_NAMES) + "}" in text


def test_unknown_command_is_an_invalid_choice(capsys, fixed_width):
    code, out, err = run(capsys, "nosuch")
    assert code == 1 and out == ""
    assert "fnlkit: error: argument command: invalid choice: 'nosuch'" in err


def test_each_command_builds_one_parser(capsys, monkeypatch, tmp_path):
    kfile = tmp_path / "k.json"
    kfile.write_text(json.dumps({"states": ["w"], "rel": [["w", "w"]], "val": {"p": ["w"]}}))
    calls = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        calls.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    argvs = {
        "translate": ["k", "p -> p"],
        "prove": ["--system", "bfnl-star", "p => p"],
        "modelcheck": [str(kfile), "p"],
        "countermodel": ["p => q", "--samples", "20"],
        "pipeline": ["p -> p"],
        "kdecide": ["p -> p"],
        "buildmodel": [str(kfile)],
    }
    assert tuple(argvs) == tuple(cli.COMMANDS) == COMMAND_NAMES
    for name, rest in argvs.items():
        calls.clear()
        code, out, err = run(capsys, name, *rest)
        assert code == 0, err
        assert calls == [f"fnlkit {name}"]
