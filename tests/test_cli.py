"""Command-line interface: exit codes, report shape, golden output."""

import json
import subprocess
import sys

import pytest

from bindcat import (chain_category, check_category_laws, endofunctor_monoidal, from_doc,
                     to_monoidal_doc)
from bindcat.cli import main

REPORT_KEYS = {"command", "status", "checks_run", "violations", "elapsed_ms"}


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


# ------------- exit codes on the fixture corpus -------------


def test_check_cat_pass(fixtures, capsys):
    assert main(["check-cat", str(fixtures / "walking_arrow.json")]) == 0
    out = capsys.readouterr().out
    assert "check-cat: pass" in out


def test_check_cat_violations_exit_1(fixtures, capsys):
    assert main(["check-cat", str(fixtures / "broken_unit.json")]) == 1
    out = capsys.readouterr().out
    assert "[unit-left]" in out and "[comp-endpoints]" in out


def test_check_monoidal_pentagon_exit_1(fixtures, capsys):
    assert main(["check-monoidal", str(fixtures / "broken_pentagon.json")]) == 1
    out = capsys.readouterr().out
    assert "[pentagon]" in out
    assert "(e,e,e,e)" in out


def test_check_displayed_pass(fixtures, capsys):
    assert main(["check-displayed", str(fixtures / "three_objects.json")]) == 0


def test_check_displayed_missing_comp_exit_1(fixtures, capsys):
    code = main(["check-displayed", str(fixtures / "displayed_missing_comp.json")])
    assert code == 1
    assert "[disp-comp-totality]" in capsys.readouterr().out


@pytest.mark.parametrize("fixture", ["malformed.json", "unknown_field.json"])
def test_bad_documents_exit_2(fixtures, capsys, fixture):
    assert main(["check-cat", str(fixtures / fixture)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "check-cat: error" in captured.out


def test_missing_file_exit_2(fixtures, capsys):
    assert main(["check-cat", str(fixtures / "no_such_file.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_displayed_with_malformed_base_exit_2(fixtures, tmp_path, capsys):
    doc = json.loads((fixtures / "three_objects.json").read_text())
    doc["base"] = "missing_base.json"
    bad = tmp_path / "displayed.json"
    bad.write_text(json.dumps(doc))
    assert main(["check-displayed", str(bad)]) == 2


def test_check_monoidal_duplicate_associator_row_exit_2(fixtures, tmp_path, capsys):
    doc = json.loads((fixtures / "broken_pentagon.json").read_text())
    doc["associator"].append(dict(doc["associator"][0]))
    bad = tmp_path / "monoidal.json"
    bad.write_text(json.dumps(doc))
    assert main(["check-monoidal", str(bad)]) == 2
    assert "duplicate associator entry" in capsys.readouterr().err


def test_check_monoidal_entry_at_unknown_key_exit_2(tmp_path, capsys):
    doc = to_monoidal_doc(endofunctor_monoidal(chain_category(2)).monoidal)
    doc["lunitor"]["nope"] = "nope"
    bad = tmp_path / "monoidal.json"
    bad.write_text(json.dumps(doc))
    assert main(["check-monoidal", str(bad)]) == 2
    assert "lunitor names unknown id 'nope'" in capsys.readouterr().err


def test_check_monoidal_repeated_json_key_exit_2(fixtures, tmp_path, capsys):
    text = json.dumps(json.loads((fixtures / "broken_pentagon.json").read_text()))
    assert text.count('"lunitor": {"e": "id_e"}') == 1
    bad = tmp_path / "monoidal.json"
    bad.write_text(text.replace('"lunitor": {"e": "id_e"}',
                                '"lunitor": {"e": "nope", "e": "id_e"}'))
    assert main(["check-monoidal", str(bad)]) == 2
    assert "repeated key 'e'" in capsys.readouterr().err


def test_check_cat_repeated_json_key_exit_2(fixtures, tmp_path, capsys):
    text = json.dumps(json.loads((fixtures / "walking_arrow.json").read_text()))
    assert text.count('"identity": {"a": "id_a"') == 1
    bad = tmp_path / "category.json"
    bad.write_text(text.replace('"identity": {"a": "id_a"',
                                '"identity": {"a": "f", "a": "id_a"'))
    assert main(["check-cat", str(bad)]) == 2
    assert "repeated key 'a'" in capsys.readouterr().err


def test_gen_terms_non_ascii_arity_exit_2(tmp_path, capsys):
    # an Arabic-Indic one is no arity: arities are ASCII digits
    sig = tmp_path / "a.sig"
    sig.write_text("sig a { c : [\u0661]; }", encoding="utf-8")
    code, report = run_json(capsys, ["gen-terms", "--sig", str(sig)])
    assert (code, report["status"]) == (2, "error")


# ------------- report shape -------------


def test_json_report_shape(fixtures, capsys):
    code, doc = run_json(capsys, ["check-cat", str(fixtures / "walking_arrow.json")])
    assert code == 0
    assert set(doc) == REPORT_KEYS
    assert doc["command"] == "check-cat"
    assert doc["status"] == "pass"
    assert doc["violations"] == []
    assert isinstance(doc["elapsed_ms"], int)


def test_json_violations_carry_law_and_witness(fixtures, capsys):
    code, doc = run_json(capsys, ["check-monoidal",
                                  str(fixtures / "broken_pentagon.json")])
    assert code == 1
    assert doc["status"] == "fail"
    (v,) = doc["violations"]
    assert set(v) == {"law", "witness"}
    assert v["law"] == "pentagon"


def test_json_error_report(fixtures, capsys):
    code, doc = run_json(capsys, ["check-cat", str(fixtures / "malformed.json")])
    assert code == 2
    assert doc["status"] == "error"
    assert doc["checks_run"] == 0


def test_cli_report_matches_library(fixtures, capsys):
    code, doc = run_json(capsys, ["check-cat", str(fixtures / "broken_unit.json")])
    rep = check_category_laws(
        from_doc(json.loads((fixtures / "broken_unit.json").read_text())))
    assert code == 1
    assert doc["checks_run"] == rep.checks_run
    assert doc["violations"] == [
        {"law": v.law, "witness": v.witness} for v in rep.violations]


# ------------- term commands -------------


def test_gen_terms(fixtures, capsys):
    code = main(["gen-terms", "--sig", str(fixtures / "lam.sig"),
                 "--scope", "0", "--depth", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "abs(var 0)"
    assert "gen-terms: pass (1 checks" in out


def test_subst_command(fixtures, capsys):
    code = main(["subst", "--sig", str(fixtures / "lam.sig"),
                 "--scope", "1", "--target", "0",
                 "abs(app(var 0, var 1))", "abs(var 0)"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "abs(app(var 0, abs(var 0)))"


def test_subst_wrong_image_count(fixtures, capsys):
    code = main(["subst", "--sig", str(fixtures / "lam.sig"),
                 "--scope", "2", "--target", "0", "var 0", "abs(var 0)"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_subst_parse_error(fixtures, capsys):
    code = main(["subst", "--sig", str(fixtures / "lam.sig"),
                 "--scope", "1", "--target", "0", "nope(var 0)", "abs(var 0)"])
    assert code == 2


@pytest.mark.parametrize("sig, argv", [
    ("lam", ["laws", "--scope", "-1"]), ("lam", ["laws", "--depth", "-1"]),
    ("lam", ["laws", "--image-depth", "-1"]),
    ("lam", ["gen-terms", "--depth", "-1"]), ("lam", ["gen-terms", "--scope", "-1"]),
    ("lam", ["subst", "--scope", "0", "--target", "-1", "abs(var 0)"]),
    ("nat", ["subst", "--scope", "0", "--target", "-1", "succ(zero())"]),
    ("nat", ["subst", "--scope", "-1", "zero()"]),
], ids=["laws-scope", "laws-depth", "laws-image-depth", "gen-terms-depth", "gen-terms-scope",
        "subst-target-lam", "subst-target-nat", "subst-scope-nat"])
def test_negative_bounds_exit_2(fixtures, capsys, sig, argv):
    # a negative bound is no sweep at all, not a vacuous pass, and a
    # negative target scope holds no term
    code = main(argv[:1] + ["--sig", str(fixtures / f"{sig}.sig"), "--json"] + argv[1:])
    out, err = capsys.readouterr()
    assert (code, json.loads(out)["status"]) == (2, "error")
    assert "must not be negative, got -1" in err


@pytest.mark.parametrize("input_", ["check-cat", "check-monoidal", "check-displayed"])
def test_deeply_nested_input_exits_2(tmp_path, capsys, input_):
    # input nested deeper than Python's recursion limit is an input error
    # that names the file, not a law violation
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000)
    code = main([input_, str(nested), "--json"])
    out, err = capsys.readouterr()
    assert (code, json.loads(out)["status"]) == (2, "error")
    assert err == f"error: {nested}: JSON nested too deeply to decode\n"


def test_a_recursion_error_in_a_checker_is_not_bad_input(fixtures, monkeypatch):
    # only the readers turn deep input into an input error: a checker that
    # runs out of recursion is a fault of the program, and main lets it out
    def runs_out(C):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("bindcat.cli.check_category_laws", runs_out)
    with pytest.raises(RecursionError):
        main(["check-cat", str(fixtures / "walking_arrow.json")])


def test_deep_gen_terms_answers(fixtures, capsys):
    # terms are enumerated from a stack, not by recursion, so a depth
    # past Python's recursion limit answers
    code = main(["gen-terms", "--sig", str(fixtures / "nat.sig"), "--scope", "0",
                 "--depth", "600", "--json"])
    out, err = capsys.readouterr()
    assert (code, json.loads(out)["checks_run"], err) == (0, 600, "")


def test_deep_subst_answers(fixtures, capsys):
    # a term deeper than Python's recursion limit is substituted, not refused
    deep = "succ(" * 1000 + "zero()" + ")" * 1000
    code = main(["subst", "--sig", str(fixtures / "nat.sig"), "--scope", "0", deep])
    out, err = capsys.readouterr()
    assert (code, out.splitlines()[0], err) == (0, deep, "")


def test_deep_mendler_demo_hits_the_stage_bound(capsys):
    # levels fill upward without recursion, so a deep level reaches the
    # chain's own bound: evenness needs a stage per level
    code = main(["mendler-demo", "--depth", "1000", "--json"])
    out, err = capsys.readouterr()
    assert (code, json.loads(out)["status"]) == (2, "error")
    assert "no stabilization within 32 stages at level 1000" in err


@pytest.mark.parametrize("depth", ["1", "2"])
def test_param_demo_below_its_examples_exit_2(capsys, depth):
    # the example trees sit at level 3: below it their folds are not
    # computed, which is no broken law
    code = main(["param-initial-demo", "--depth", depth, "--json"])
    out, err = capsys.readouterr()
    assert (code, json.loads(out)["status"]) == (2, "error")
    assert f"needs depth at least 3, where its example trees sit; got {depth}" in err


@pytest.mark.parametrize("depth, scope, missing", [
    ("0", "0", "monad-right-unit, monad-left-unit, monad-assoc"),
    ("1", "0", "monad-right-unit, monad-left-unit, monad-assoc"),
    ("0", "1", "monad-right-unit, monad-assoc"),
    ("0", "2", "monad-right-unit, monad-assoc"),
    ("2", "0", "monad-left-unit"),
], ids=["depth0-scope0", "depth1-scope0", "depth0-scope1", "depth0-scope2", "depth2-scope0"])
def test_laws_bounds_without_an_instance_exit_2(fixtures, capsys, depth, scope, missing):
    # a law family with no instance at the bounds is not checked, which is
    # no pass
    code = main(["laws", "--sig", str(fixtures / "lam.sig"), "--depth", depth,
                 "--scope", scope, "--json"])
    out, err = capsys.readouterr()
    assert (code, json.loads(out)["status"]) == (2, "error")
    assert err == (f"error: depth {depth}, scope {scope} and image depth 1 "
                   f"give no instance of {missing}\n")


@pytest.mark.parametrize("depth", ["0", "4"])
def test_mendler_demo_below_its_spot_values_exit_2(capsys, depth):
    # h(3) and h(4) sit at levels 4 and 5: below 5 they are not checked
    code = main(["mendler-demo", "--depth", depth, "--json"])
    out, err = capsys.readouterr()
    assert (code, json.loads(out)["status"]) == (2, "error")
    assert f"needs depth at least 5, where its spot values h(3) and h(4) sit; " \
           f"got {depth}" in err


def test_demos_take_no_bound(capsys):
    # uniqueness is counted in level order, so there is no candidate cap to set
    for cmd in ("mendler-demo", "param-initial-demo"):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--bound", "2"])
        assert exc.value.code == 2
    assert "unrecognized arguments: --bound 2" in capsys.readouterr().err


# ------------- law suites -------------


def test_laws_golden_json(fixtures, capsys):
    code, doc = run_json(capsys, ["laws", "--sig", str(fixtures / "lam.sig"),
                                  "--depth", "2", "--scope", "2"])
    assert code == 0
    doc["elapsed_ms"] = 0
    golden = json.loads((fixtures / "laws_golden.json").read_text())
    assert doc == golden


def test_laws_explicit_image_depth(fixtures, capsys):
    code, doc = run_json(capsys, ["laws", "--sig", str(fixtures / "lam.sig"),
                                  "--depth", "3", "--scope", "1",
                                  "--image-depth", "2"])
    assert code == 0
    assert doc["checks_run"] == 643


def test_mendler_demo(capsys):
    code, doc = run_json(capsys, ["mendler-demo", "--depth", "5"])
    assert code == 0
    assert doc["checks_run"] == 13


def test_param_initial_demo(capsys):
    code, doc = run_json(capsys, ["param-initial-demo", "--depth", "3"])
    assert code == 0
    assert doc["checks_run"] == 1621


# ------------- wiring -------------


def test_module_entry_point(fixtures):
    proc = subprocess.run(
        [sys.executable, "-m", "bindcat.cli", "check-cat",
         str(fixtures / "walking_arrow.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "check-cat: pass" in proc.stdout


def test_unknown_command_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
