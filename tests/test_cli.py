"""The command-line front end: exit-code protocol, JSON payloads, file
inputs, and the printed-evidence round trips."""

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import hypothesis.strategies as st
import pytest
from conftest import modal_formulas
from hypothesis import example, given, settings

import fnlkit
from fnlkit import checker as ck
from fnlkit import cli
from fnlkit import lemmas as lm
from fnlkit import models as md
from fnlkit import proofs as pf
from fnlkit import prover as pv
from fnlkit import syntax as sx
from fnlkit import transform as tr
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


def test_prove_recheck_reads_bracketed_antecedents(capsys):
    code, payload = run_json(capsys, "prove", "--recheck", "<>(p /\\ q) => <>p",
                             "--system", "bfnl-star-k")
    assert code == 0
    assert any(type(ant) is dict for ant, _ in payload["derivation"]["sequents"])
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


def test_recheck_reads_the_printed_countermodel(capsys, monkeypatch):
    # the payload carries a model in which q holds everywhere, so p => q is
    # not falsified by what would be printed
    to_json = pv.result_to_json

    def tampered(r):
        out = to_json(r)
        out["model"]["val"]["q"] = list(out["model"]["states"])
        return out

    monkeypatch.setattr(pv, "result_to_json", tampered)
    code, out, err = run(capsys, "prove", "--system", "bfnl-star",
                         "p => q", "--recheck", "--seed", "3")
    assert code == 1 and out == ""
    assert err == "error: recheck failed: countermodel no longer falsifies\n"


@pytest.mark.parametrize("printed, tampered", [
    ('"rule": "AndL"', '"rule": "AndR"'),
    ('"seq": 1', '"seq": 0'),
], ids=["rule", "sequent"])
def test_recheck_reads_the_printed_derivation(capsys, monkeypatch, printed, tampered):
    argv = ("prove", "--system", "bfnl-star", "p /\\ q => q", "--recheck")
    code, payload = run_json(capsys, *argv)
    assert code == 0 and payload["recheck"] == "derivation reloaded and accepted"
    to_json = pv.result_to_json

    def tamper(r):
        out = to_json(r)
        assert out["derivation"].count(printed) == 1
        out["derivation"] = pf.TableText(out["derivation"].replace(printed, tampered))
        return out

    monkeypatch.setattr(pv, "result_to_json", tamper)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: recheck failed: reloaded derivation rejected\n"


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


@pytest.mark.parametrize("command", [["prove", "--system", "bfnl-star"], ["countermodel"]],
                         ids=["prove", "countermodel"])
def test_an_undecodable_assumption_file_is_one_error_line(capsys, tmp_path, command):
    phi = tmp_path / "phi.txt"
    phi.write_bytes(b"\xff")
    code, out, err = run(capsys, *command, "p => r", "--assumptions", str(phi))
    assert code == 1 and out == ""
    assert err.splitlines() == [
        f"error: {phi}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte"]


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


def test_modelcheck_errors_come_from_the_vocabulary_not_the_state(capsys, tmp_path):
    # a formula the model cannot read is an error at every state, also
    # where the other conjunct already fails; a bracket is an error too
    mfile = tmp_path / "ternary.json"
    mfile.write_text(json.dumps({"states": ["u", "v"], "rel": [], "val": {"p": ["u"]}}))
    for text, message in (("p /\\ one", "without a unit"), ("p => p /\\ <>p", "without a dia"),
                          ("<p> => p", "bracketed antecedent")):
        for state in (("--state", "u"), ("--state", "v"), ()):
            code, out, err = run(capsys, "modelcheck", str(mfile), text, *state)
            assert code == 1 and out == "" and message in err, (text, state)


def test_modelcheck_rejects_a_bad_model_file_in_one_line(capsys, tmp_path):
    mfile = tmp_path / "ternary.json"
    mfile.write_text(json.dumps({"states": ["u", "u"], "rel": [], "val": {}}))
    code, out, err = run(capsys, "modelcheck", str(mfile), "p => p")
    assert (code, out, err) == (1, "", "error: duplicate state names\n")


def test_modelcheck_nested_diamonds_take_linear_time(capsys, tmp_path):
    # on the complete 3-state frame with p false everywhere, a per-state
    # evaluator without a memo visits 3^40 paths
    states = ["a", "b", "c"]
    mfile = tmp_path / "k.json"
    mfile.write_text(json.dumps({"states": states, "rel": [[x, y] for x in states for y in states],
                                 "val": {"p": []}}))
    started = time.perf_counter()
    code, payload = run_json(capsys, "modelcheck", str(mfile), "<>" * 40 + "p", "--kind", "kripke")
    assert time.perf_counter() - started < 1.0
    assert code == 0 and payload["value"] is False


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
    assert stage3["system"] == "dfnl"
    assert stage3["goal"].startswith("p_top =>")
    assert all("top" not in line or "p_top" in line for line in stage3["assumptions"])


def test_translate_rejects_unknown_source(capsys):
    code, out, err = run(capsys, "translate", "s5", "<>p")
    assert code == 1


def test_pipeline_end_to_end(capsys):
    code, payload = run_json(capsys, "pipeline", "[](p -> q) -> ([]p -> []q)",
                             "--run-prover")
    assert code == 0
    assert payload["system"] == "dfnl"
    assert payload["verdict"] == "proved"
    d = pf.from_json(payload["derivation"])
    goal = sx.parse_sequent(payload["goal"])
    phi = frozenset(sx.parse_sequent(s) for s in payload["assumptions"])
    assert d.seq == goal
    assert ck.check_derivation(get_system(payload["system"]), phi, d)


def test_pipeline_without_prover_just_translates(capsys):
    code, payload = run_json(capsys, "pipeline", "<>p")
    assert code == 0 and "verdict" not in payload


@given(modal_formulas)
def test_phi_lines_render_as_render_sequent(a):
    # one memo over the whole assumption set renders each sequent as alone
    phi = list(tr.pipeline_k_to_dfnl(a)[2])
    memo: dict = {}
    assert [sx.render_sequent(s, memo) for s in phi] == [sx.render_sequent(s) for s in phi]
    assert cli._phi_lines(phi) == sorted(sx.render_sequent(s) for s in phi)


@pytest.mark.parametrize("argv", [
    ("translate", "k", "~" * 40000 + "p"),
    ("prove", "--system", "bfnl-star", "=> " + "~" * 40000 + "p"),
    ("pipeline", "~" * 40000 + "p"),
    # a chain of 40,000 operators, 40,000 parentheses and 40,000 letters
    ("prove", "--system", "bfnl-star", "=> " + " /\\ ".join(["p"] * 40001)),
    ("prove", "--system", "bfnl-star", "(" * 40000 + "p" + ")" * 40000 + " => p"),
    ("prove", "--system", "bfnl-star", "p{" * 40000 + "p" + "}" * 40000 + " => p"),
])
def test_deep_inputs_fail_cleanly(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: input nests too deeply\n"


@pytest.mark.parametrize("text, err", [
    ("p{" * 40000 + "p" + "}" * 40000 + " => p &", "unexpected character '&' (at offset 120007)"),
    ("~" * 40000 + "p } => p", "unexpected character '}' (at offset 40002)"),
    ("p{" * 40000 + "~" * 40000 + "p => p", "unterminated fresh letter (at offset 0)"),
], ids=["bad-after-letters", "brace-after-negations", "unterminated-letters"])
def test_a_bad_character_past_a_deep_nest_is_reported(capsys, text, err):
    # the tokenizer's error comes first, however deep the nest before it
    code, out, got = run(capsys, "prove", "--system", "bfnl-star", text)
    assert code == 1 and out == ""
    assert got == f"error: {err}\n"


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


def test_text_format_renders_derivations_and_models(capsys, monkeypatch):
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
    code, out, err = run(capsys, "countermodel", "<>p => p", "--with-dia", "--format", "text")
    assert code == 0 and "\ndia: " in out
    code, out, err = run(capsys, "pipeline", "p", "--run-prover", "--format", "text")
    assert code == 0
    assert "\nverdict: refuted\ncountermodel falsifying the goal at " in out
    unknown = pv.ProofResult(pv.UNKNOWN, report="search budget exhausted")
    monkeypatch.setattr(pv, "derive", lambda *args: unknown)
    code, out, err = run(capsys, "pipeline", "p", "--run-prover", "--format", "text")
    assert code == 2
    assert out.splitlines()[-2:] == ["verdict: unknown", "search budget exhausted"]


# ---------------------------------------------------------------------------
# the JSON writer and the printed format


_texts = st.text() | st.text(alphabet='a"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600 ')
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**30, 10**30) | _texts,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_texts, kids, max_size=4),
    max_leaves=25,
)


@given(json_values)
def test_dumps_prints_what_json_dumps_prints(x):
    assert cli._dumps(x) == json.dumps(x, indent=2)


_TABLE = pf.table_text(lm.dcut(lm.dassume(sx.parse_sequent("p => q")), lm.did(sx.LAtom("q")), ()))


@given(st.lists(st.tuples(st.booleans(), json_values), max_size=3))
@example([])
@example([(True, "x"), (False, None), (True, [1, {"a": 2}])])
def test_dumps_writes_a_table_text_at_its_depth(wraps):
    # the table nested 0 to 3 deep, in dicts and lists, beside other values
    got, want = _TABLE, json.loads(_TABLE)
    for in_dict, other in wraps:
        if in_dict:
            got, want = {"other": other, "derivation": got}, {"other": other, "derivation": want}
        else:
            got, want = [other, got], [other, want]
    assert cli._dumps(got) == json.dumps(want, indent=2)


def test_dumps_rejects_other_str_subclasses():
    class Text(str):
        pass

    with pytest.raises(TypeError):
        cli._dumps({"derivation": Text("{}")})


def test_dumps_prints_deep_nesting():
    x = []
    for _ in range(2000):
        x = [x]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(30000)  # as cli.main sets it
    try:
        assert cli._dumps(x) == json.dumps(x, indent=2)
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("x", [1.5, (1, 2), {"a"}, {1: "a"}, {"a": [0.5]}])
def test_dumps_rejects_what_payloads_do_not_hold(x):
    with pytest.raises(TypeError):
        cli._dumps(x)


@pytest.fixture
def model_files(tmp_path):
    kfile = tmp_path / "k.json"
    kfile.write_text(json.dumps({"states": ["w", "u"], "rel": [["w", "u"]],
                                 "val": {"p": ["u"]}}))
    tfile = tmp_path / "t.json"
    tfile.write_text(json.dumps({"states": ["u", "v"], "rel": [["u", "u", "v"]],
                                 "val": {"p": ["u"], "q": ["u", "v"]}}))
    return str(kfile), str(tfile)


@pytest.mark.parametrize("argv", [
    ("translate", "k", "[](p -> q) -> ([]p -> []q)", "--stage", "section"),
    ("prove", "--system", "bfnl-star", "p /\\ q => q", "--recheck"),
    ("prove", "--system", "bfnl-star", "p => q", "--seed", "3"),
    ("pipeline", "[](p -> q) -> ([]p -> []q)", "--run-prover"),
    ("countermodel", "p => q", "--samples", "100"),
    ("kdecide", "[](p -> q) -> ([]p -> []q)"),
    ("kdecide", "<>p"),
    ("modelcheck", "{t}", "p => q"),
    ("buildmodel", "{k}", "--variant", "unit"),
])
def test_json_output_is_indent_two(capsys, model_files, argv):
    kfile, tfile = model_files
    argv = [a.format(k=kfile, t=tfile) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


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
# argument parsing: the plain form of a command's argv is read from its
# rows, and must give what the whole command tree gives; every other
# spelling goes to the tree


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


def test_plain_argv_builds_no_parser(capsys, monkeypatch, tmp_path):
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
        code, out, err = run(capsys, name, *rest)
        assert code == 0, err
        assert calls == []
    # a spelling the reader declines builds the tree once, and reads the same
    args = vars(cli._parse(["prove", "--sys", "bfnl-star", "p => p"]))
    assert calls == ["fnlkit", *(f"fnlkit {name}" for name in COMMAND_NAMES)]
    assert args.pop("command") == "prove"
    assert args == vars(cli._parse(["prove", "--system", "bfnl-star", "p => p"]))


def test_every_benchmark_command_is_read_plain(monkeypatch, tmp_path):
    # a flag change must not send a benchmark command back to argparse
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    for name, build in workloads.WORKLOADS.items():
        for cmd in build(fnlkit, 1, str(tmp_path), small=True).commands:
            args = cli._read_plain(cmd.argv[0], list(cmd.argv[1:]))
            assert args is not None, (name, cmd.argv)


def test_benchmark_commands_print_canonical_json(capsys, monkeypatch, tmp_path):
    # what the CLI prints, derivation tables written as text included, is
    # what json.dumps prints for the same payload
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    seen = set()
    for name, build in workloads.WORKLOADS.items():
        for cmd in build(fnlkit, 1, str(tmp_path), small=True).commands:
            code, out, err = run(capsys, *cmd.argv)
            assert code in (0, 2), (cmd.argv, err)
            payload = json.loads(out)
            assert out == json.dumps(payload, indent=2) + "\n", cmd.argv
            seen.add((cmd.argv[0], "--recheck" in cmd.argv, "derivation" in payload))
    assert {("prove", False, True), ("prove", True, True), ("pipeline", False, True)} <= seen


_words = st.text(alphabet="pq=> -~k1", max_size=6)
_odd_values = st.sampled_from(["x", "1.5", "", "-1", "-x", "--format", "json", "0", " 7"])
_odd_tokens = st.sampled_from(["--", "-", "-h", "--help", "-1", "-x", "--bogus", "--seed=3"])


def _values(kwargs):
    if "choices" in kwargs:
        good = st.sampled_from([str(c) for c in kwargs["choices"]])
    elif kwargs.get("type") is int:
        good = st.integers(0, 99).map(str)
    else:
        good = _words
    return good | _odd_values


@st.composite
def command_argvs(draw):
    """A command name and argv drawn from its rows, in any order, with some
    tokens then spelled otherwise, repeated, dropped or added."""
    name = draw(st.sampled_from(COMMAND_NAMES))
    groups = []
    for names, kwargs in (cli._FORMAT, *cli.COMMANDS[name][2]):
        if not names[0].startswith("-"):
            groups.append([draw(_values(kwargs))])
        elif draw(st.booleans()):
            flag = kwargs.get("action") == "store_true"
            groups.append([names[0]] if flag else [names[0], draw(_values(kwargs))])
    tokens = [t for g in draw(st.permutations(groups)) for t in g]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["prefix", "join", "repeat", "drop", "odd", "extra"]))
        opts = [i for i, t in enumerate(tokens) if t.startswith("--") and len(t) > 2]
        if kind in ("prefix", "join", "repeat") and opts:
            i = draw(st.sampled_from(opts))
            if kind == "prefix":
                tokens[i] = tokens[i][:draw(st.integers(2, len(tokens[i]) - 1))]
            elif kind == "join":
                tokens[i:i + 2] = ["=".join(tokens[i:i + 2])]
            else:
                tokens += tokens[i:i + 2]
        elif kind == "drop" and tokens:
            del tokens[draw(st.integers(0, len(tokens) - 1))]
        elif kind in ("odd", "extra"):
            token = draw(_odd_tokens if kind == "odd" else _words)
            tokens.insert(draw(st.integers(0, len(tokens))), token)
    return name, tokens


@settings(max_examples=400)
@given(command_argvs())
def test_plain_reader_gives_what_the_tree_gives(case):
    name, tokens = case
    mine = cli._read_plain(name, tokens)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            tree = vars(cli._build_parser().parse_args([name, *tokens]))
        except SystemExit:
            tree = None
    if tree is None:
        assert mine is None
    elif mine is not None:
        assert tree.pop("command") == name
        assert vars(mine) == tree
