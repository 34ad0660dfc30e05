"""CLI surface: argument handling, report determinism, exit codes, goldens.

main() is driven in-process with explicit argv so exit codes and output
bytes are asserted directly.
"""

import json
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from setorder import cli
from setorder.cli import EX_USAGE, exit_code_for, main
from setorder.verdict import Verdict

SCHEMA = json.loads(
    (Path(cli.__file__).parent / "data" / "schema" /
     "report.schema.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return code, report


@pytest.fixture()
def compare_file(tmp_path):
    doc = {"cone": {"kind": "orthant", "dim": 2},
           "a": {"points": [[0.0, 0.0]]},
           "b": {"points": [[1.0, 1.0]]}}
    p = tmp_path / "cmp.json"
    p.write_text(json.dumps(doc))
    return p


class TestExitCodeRules:
    def test_fails_dominates(self):
        rep = {"result": {"a": {"status": "Holds"},
                          "b": {"status": "Fails"},
                          "c": {"status": "Inconclusive"}}}
        assert exit_code_for(rep) == 1

    def test_inconclusive_without_fails(self):
        rep = {"result": {"a": {"status": "Holds"},
                          "b": {"status": "Inconclusive"}}}
        assert exit_code_for(rep) == 2

    def test_all_holds(self):
        rep = {"result": {"a": {"status": "Holds"}}}
        assert exit_code_for(rep) == 0

    def test_no_verdicts_is_success(self):
        assert exit_code_for({"result": {"lower_le": True}}) == 0

    def test_unasserted_nested_verdicts_do_not_count(self):
        rep = {"result": {"a": {
            "status": "Inconclusive",
            "certificate": {"unasserted_check": {"status": "Fails"}}}}}
        assert exit_code_for(rep) == 2


class TestCompare:
    def test_dominating_singletons(self, capsys, compare_file):
        code, rep = run_json(capsys, "compare", str(compare_file))
        assert code == 0
        assert rep["result"] == {"lower_le": True, "large_le": True,
                                 "strict_lt": True, "equiv": False}

    def test_half_open_interval_equiv_to_closure(self, capsys, tmp_path):
        doc = {"cone": {"kind": "orthant", "dim": 1},
               "a": {"box": [{"lo": 0.0, "hi": 1.0, "lo_open": True}]},
               "b": {"box": [{"lo": 0.0, "hi": 1.0}]}}
        p = tmp_path / "cmp.json"
        p.write_text(json.dumps(doc))
        code, rep = run_json(capsys, "compare", str(p))
        assert code == 0
        assert rep["result"]["equiv"] is True

    def test_malformed_json_is_usage_error(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, _, err = run(capsys, "compare", str(p))
        assert code == EX_USAGE
        assert "JSON" in err

    ORTHANT_1 = {"kind": "orthant", "dim": 1}
    POINT_1 = {"points": [[1.0]]}
    POINT_2 = {"points": [[1.0, 1.0]]}

    # the sets of the non-integer dims match the dimension that coercing
    # the dim would give, so only the cone itself can be refused
    @pytest.mark.parametrize("cone,a,b", [
        (ORTHANT_1, {"box": [{"lo": 0}]}, POINT_1),
        (ORTHANT_1, {"box": [{"lo": "x", "hi": 1}]}, POINT_1),
        (ORTHANT_1, {"points": "abc"}, POINT_1),
        (ORTHANT_1, {"box": "zz"}, POINT_1),
        ({"kind": "orthant"}, {"points": [[0.0]]}, POINT_1),
        (ORTHANT_1, {"points": []}, POINT_1),
        ({"kind": "orthant", "dim": 2.7}, POINT_2, POINT_2),
        ({"kind": "orthant", "dim": "2"}, POINT_2, POINT_2),
        ({"kind": "orthant", "dim": True}, POINT_1, POINT_1),
        ({"kind": "halfspaces", "rows": [["1", "0"], [True, "1e0"]]},
         POINT_2, POINT_2),
        ({"kind": "orthant", "dim": 2}, {"points": [["0", False]]}, POINT_2),
        (ORTHANT_1, {"box": [{"lo": "1", "hi": 2}]}, POINT_1),
        (ORTHANT_1, {"box": [{"lo": True, "hi": 2}]}, POINT_1),
        (ORTHANT_1, {"box": [{"lo": 0, "hi": 2, "lo_open": "no"}]}, POINT_1),
    ], ids=["box-without-hi", "non-numeric-lo", "points-string", "box-string",
            "orthant-without-dim", "empty-points", "fractional-dim", "string-dim",
            "bool-dim", "string-and-bool-rows", "string-and-bool-point",
            "numeric-string-lo", "bool-lo", "string-flag"])
    def test_malformed_literal_is_usage_error(self, capsys, tmp_path, cone, a, b):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"cone": cone, "a": a, "b": b}))
        code, _, err = run(capsys, "compare", str(p))
        assert code == EX_USAGE
        assert err.startswith("setorder: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("a,why", [
        ([[1.0]], "set literal must be an object"),
        ({"cloud": [[1.0]]}, "set literal needs a 'box' or 'points' field"),
    ], ids=["list", "no-known-field"])
    def test_literal_that_is_no_set_is_usage_error(self, capsys, tmp_path, a, why):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"cone": self.ORTHANT_1, "a": a, "b": self.POINT_1}))
        code, out, err = run(capsys, "compare", str(p))
        assert (code, out, err) == (EX_USAGE, "", f"setorder: {why}\n")

    def test_inf_upper_end_is_accepted(self, capsys, tmp_path):
        doc = {"cone": self.ORTHANT_1,
               "a": {"box": [{"lo": 0, "hi": "inf", "hi_open": True}]},
               "b": {"points": [[1.0]]}}
        p = tmp_path / "inf.json"
        p.write_text(json.dumps(doc))
        code, rep = run_json(capsys, "compare", str(p))
        assert code == 0
        assert rep["result"]["lower_le"] is True

    @pytest.mark.parametrize("text", ["5", "null", "true"])
    def test_document_that_is_not_an_object_is_usage_error(self, capsys, tmp_path,
                                                           text):
        p = tmp_path / "bare.json"
        p.write_text(text)
        code, _, err = run(capsys, "compare", str(p))
        assert code == EX_USAGE
        assert err.startswith("setorder: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("cone", [
        {"kind": "orthant", "dim": 2},
        {"kind": "halfspaces", "rows": [[1, 0], [0, 1], [1, 1]]},
    ], ids=["orthant", "halfspaces"])
    def test_set_of_the_wrong_dimension_is_usage_error(self, capsys, tmp_path,
                                                       cone):
        p = tmp_path / "dims.json"
        p.write_text(json.dumps({"cone": cone, "a": {"points": [[0.0]]},
                                 "b": {"points": [[1.0, 1.0]]}}))
        code, out, err = run(capsys, "compare", str(p))
        assert (code, out) == (EX_USAGE, "")
        assert "set dim 1 against cone dim 2" in err

    def test_missing_field_is_usage_error(self, capsys, tmp_path):
        p = tmp_path / "half.json"
        p.write_text(json.dumps({"cone": {"kind": "orthant", "dim": 1},
                                 "a": {"points": [[0.0]]}}))
        code, _, err = run(capsys, "compare", str(p))
        assert code == EX_USAGE
        assert "'b'" in err


class TestSolve:
    def test_geff_counts(self, capsys):
        code, rep = run_json(capsys, "solve", "geff_vs_reff")
        assert code == 0
        counts = {k: len(v["indices"]) for k, v in rep["result"].items()}
        assert counts == {"Strong": 0, "Pareto": 30, "Geoffroy": 30,
                          "Relaxed": 50}

    def test_sop_relaxed_singleton(self, capsys):
        code, rep = run_json(capsys, "solve", "sop_sin",
                             "--kind", "Relaxed")
        assert rep["result"]["Relaxed"]["indices"] == [0]
        assert rep["problem"]["family"] is True

    def test_constant_map_all_kinds_identical(self, capsys, tmp_path):
        doc = {"label": "const", "cone": {"kind": "orthant", "dim": 1},
               "domain": {"windows": [{"a": 0.0, "b": 1.0, "step": 0.25}]},
               "map": {"pieces": [{"guard": "true",
                                   "box": [{"lo": 0.0, "hi": 1.0}]}]}}
        p = tmp_path / "const.json"
        p.write_text(json.dumps(doc))
        code, rep = run_json(capsys, "solve", str(p), "--kind", "all")
        sets = {tuple(v["indices"]) for v in rep["result"].values()}
        assert sets == {tuple(range(5))}

    def test_cloud_and_box_a_tolerance_apart(self, capsys, tmp_path):
        # {0} and the closed box [tol, 1] are largely equivalent, so neither
        # is strictly below the other and every point is minimal
        doc = {"label": "tol", "cone": {"kind": "orthant", "dim": 1},
               "domain": {"windows": [{"a": 0.0, "b": 1.0, "step": 1.0}]},
               "map": {"pieces": [
                   {"guard": "x1 < 0.5", "points": [["0"]]},
                   {"guard": "true", "box": [{"lo": "0.000000001", "hi": "1"}]}]}}
        p = tmp_path / "tol.json"
        p.write_text(json.dumps(doc))
        code, rep = run_json(capsys, "solve", str(p), "--kind", "all")
        assert code == 0
        assert {tuple(v["indices"]) for v in rep["result"].values()} == {(0, 1)}

    def test_unknown_problem_is_usage_error(self, capsys):
        code, _, err = run(capsys, "solve", "no-such-problem")
        assert code == EX_USAGE
        assert "no such file or builtin" in err

    @pytest.mark.parametrize("lo", [
        pytest.param("(" * 500 + "sin(x1)" + ")" * 500, id="parens-500-deep"),
        pytest.param("+".join(["sin(x1)"] + ["0"] * 3000), id="sum-3001-terms")])
    def test_too_deep_expression_is_usage_error(self, capsys, tmp_path, lo):
        doc = json.loads((Path(cli.__file__).parent / "data" / "problems" /
                          "sop_sin.json").read_text())
        doc["map"]["pieces"][0]["box"][0]["lo"] = lo
        p = tmp_path / "deep.json"
        p.write_text(json.dumps(doc))
        code, _, err = run(capsys, "solve", str(p))
        assert code == EX_USAGE
        assert "nests deeper than 100 levels" in err

    def test_grid_over_budget_is_refused_before_enumeration(self, capsys,
                                                            tmp_path):
        # step 1e-9 on [0, pi/4] is about 7.9e8 points
        doc = json.loads((Path(cli.__file__).parent / "data" / "problems" /
                          "sop_sin.json").read_text())
        doc["domain"]["windows"][0]["step"] = 1e-9
        p = tmp_path / "fine.json"
        p.write_text(json.dumps(doc))
        start = time.monotonic()
        code, out, err = run(capsys, "solve", str(p))
        assert time.monotonic() - start < 10
        assert code == EX_USAGE
        assert out == ""
        assert "grid of 785398164 points exceeds the budget" in err


class TestLevelset:
    def test_sop_level_set(self, capsys):
        import math
        y = math.sin(math.pi / 8)
        code, rep = run_json(capsys, "levelset", "sop_sin",
                             "--y", f"{y:.17g}")
        assert code == 0
        assert rep["result"]["indices"] == list(range(51))
        assert rep["result"]["closedness"]["status"] == "Holds"

    def test_bad_vector_is_usage_error(self, capsys):
        code, _, err = run(capsys, "levelset", "sop_sin", "--y", "a,b")
        assert code == EX_USAGE

    def test_wrong_dimension_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "levelset", "sop_sin", "--y", "0.3,2.0")
        assert code == EX_USAGE

    def test_two_dimensional_domain_has_no_closedness_probe(self, capsys,
                                                           tmp_path):
        doc = {"label": "plane", "cone": {"kind": "orthant", "dim": 1},
               "domain": {"windows": [{"a": 0.0, "b": 1.0, "step": 0.5}] * 2},
               "map": {"pieces": [{"guard": "true", "points": [["x1 + x2"]]}]}}
        p = tmp_path / "plane.json"
        p.write_text(json.dumps(doc))
        code, rep = run_json(capsys, "levelset", str(p), "--y", "1")
        assert code == 0
        # the grid runs in (x1, x2) order; x1 + x2 <= 1 leaves out 5, 7, 8
        assert rep["result"]["indices"] == [0, 1, 2, 3, 4, 6]
        assert rep["result"]["points"][2:5] == [[0.0, 1.0], [0.5, 0.0], [0.5, 0.5]]
        assert rep["result"]["closedness"] is None


class TestGamma:
    def test_cos_family_fixed_domain_route(self, capsys):
        code, rep = run_json(capsys, "gamma", "gamma_cos", "--at", "0.0")
        assert code == 0
        assert rep["result"]["route"] == "fixed-domain"
        g = rep["result"]["gamma"]
        assert g["overall"] == "Holds"
        assert g["recovery_used"][0]["point"][0] == pytest.approx(1 / 33)

    def test_sop_moving_domain_route(self, capsys):
        code, rep = run_json(capsys, "gamma", "sop_sin", "--at", "0.0")
        assert code == 0
        assert rep["result"]["route"] == "moving-domain"

    def test_domain_moving_only_inside_the_tail(self, capsys, tmp_path):
        # D_n is the base grid at n = 0, 1 and n_max but nowhere in between
        doc = json.loads((Path(cli.__file__).parent / "data" / "problems" /
                          "gamma_cos.json").read_text())
        doc["family"]["n_max"] = 64
        doc["family"]["domain_n"] = {"windows": [{
            "a": -0.3125, "b": 0.3125,
            "step": "0.015625 + 0.000001*n*(n-1)*(64-n)"}]}
        p = tmp_path / "late.json"
        p.write_text(json.dumps(doc))
        code, out, err = run(capsys, "gamma", str(p), "--at", "0")
        assert "Traceback" not in err
        report = json.loads(out)
        assert report["result"]["route"] == "moving-domain"
        assert code == exit_code_for(report)

    def test_index_form_of_at(self, capsys):
        _, rep = run_json(capsys, "gamma", "sop_sin", "--at", "0")
        assert rep["result"]["gamma"]["point"] == [0.0]

    def test_out_of_range_index_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gamma", "sop_sin", "--at", "500")
        assert code == EX_USAGE

    def test_unparsable_point_is_usage_error(self, capsys):
        code, out, err = run(capsys, "gamma", "sop_sin", "--at", "0.1x")
        assert (code, out) == (EX_USAGE, "")
        assert err == "setorder: cannot parse point '0.1x'\n"

    @pytest.mark.parametrize("cmd", ["gamma", "levelset-conv"])
    @pytest.mark.parametrize("at", ["1,2", "0.1,0.2,0.3"])
    def test_wrong_dimension_point_is_usage_error(self, capsys, cmd, at):
        code, out, err = run(capsys, cmd, "sop_sin", "--at", at)
        assert code == EX_USAGE
        assert out == ""
        assert "domain has dimension 1" in err

    @pytest.mark.parametrize("cmd,at", [("gamma", "nan"), ("gamma", "inf"),
                                        ("levelset-conv", "nan")])
    def test_non_finite_point_is_usage_error(self, capsys, tmp_path, cmd, at):
        # constant values and no recovery hint: nothing downstream raises on
        # its own, so only the point parser can refuse the coordinate
        doc = {"label": "flat", "cone": {"kind": "orthant", "dim": 1},
               "domain": {"windows": [{"a": 0.0, "b": 1.0, "step": 0.25}]},
               "map": {"pieces": [{"guard": "true",
                                   "box": [{"lo": 0.0, "hi": 1.0}]}]},
               "family": {"subst": "n", "n_max": 64}}
        p = tmp_path / "flat.json"
        p.write_text(json.dumps(doc))
        code, out, err = run(capsys, cmd, str(p), "--at", at)
        assert (code, out) == (EX_USAGE, "")
        assert err.startswith("setorder: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_plain_problem_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gamma", "geff_vs_reff", "--at", "0.0")
        assert code == EX_USAGE
        assert "family" in err


class TestPk:
    def test_sop_domains_hold(self, capsys):
        code, rep = run_json(capsys, "pk", "sop_sin")
        assert code == 0
        assert rep["result"]["domains"]["status"] == "Holds"

    def test_truncated_family_is_inconclusive_exit_two(self, capsys,
                                                       tmp_path):
        doc = {"label": "trunc", "cone": {"kind": "orthant", "dim": 1},
               "domain": {"windows": [{"a": 0.0, "b": 1.0, "step": 0.25}]},
               "map": {"pieces": [{"guard": "true",
                                   "box": [{"lo": "x1", "hi": "x1 + 1"}]}]},
               "family": {"subst": "n", "n_max": 160, "domain_n": {
                   "windows": [{"a": 0.0, "b": "1 + 1/(n+1)", "step": 0.25,
                                "truncated": True}]}}}
        p = tmp_path / "trunc.json"
        p.write_text(json.dumps(doc))
        code, rep = run_json(capsys, "pk", str(p))
        assert rep["result"]["domains"]["status"] == "Inconclusive"
        assert code == 2


class TestStability:
    def test_sop_external_relaxed(self, capsys):
        code, rep = run_json(capsys, "stability", "sop_sin",
                             "--kind", "Relaxed", "--direction", "external")
        assert code == 0
        assert rep["result"]["conclusion"]["status"] == "Holds"

    def test_inconclusive_gamma_gate_exits_two(self, capsys):
        # N = 129 leaves the family (n_max = 128) no index past N to probe,
        # so each point is Inconclusive, not a failure
        code, rep = run_json(capsys, "stability", "sop_sin", "--kind",
                             "Relaxed", "--direction", "external",
                             "--horizon", "129")
        assert code == 2
        gate = rep["result"]["hypotheses"]["gamma_seq"]
        assert gate["status"] == "Inconclusive"
        assert "grid index 0" in gate["reason"]
        assert "too short to probe past N" in gate["reason"]
        assert rep["result"]["conclusion"]["status"] == "Inconclusive"

    def test_bad_direction_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stability", "sop_sin", "--kind", "Relaxed",
                  "--direction", "diagonal"])
        assert exc.value.code == EX_USAGE


class TestLevelsetConv:
    def test_sop_gated_upper_exits_one(self, capsys):
        code, rep = run_json(capsys, "levelset-conv", "sop_sin",
                             "--at", "50")
        assert code == 1      # the upper shift hypothesis genuinely fails
        exp = rep["result"]["experiment"]
        assert exp["hypotheses"]["shift_upper"]["status"] == "Fails"
        assert exp["conclusions"]["lower"]["status"] == "Holds"
        assert exp["conclusions"]["upper"]["status"] == "Inconclusive"

    def test_output_is_the_benchmark_snapshot(self, capsys, monkeypatch):
        # perfbench checks this command's stdout against the snapshot file
        monkeypatch.delenv("SETORDER_THREADS", raising=False)
        snapshot = (Path(__file__).resolve().parents[1] / "perfbench" / "snapshots"
                    / "levelset-conv-sop_sin-at-50.json").read_text()
        code, out, _ = run(capsys, "levelset-conv", "sop_sin", "--at", "50")
        assert code == 1
        assert out == snapshot


class TestFamilyDocuments:
    @staticmethod
    def write(tmp_path, box, **family):
        doc = {"label": "fam", "cone": {"kind": "orthant", "dim": 1},
               "domain": {"windows": [{"a": 0, "b": 1, "step": 0.25}]},
               "map": {"pieces": [{"guard": "true", "box": [box]}]},
               "family": {"subst": "n", "n_max": 64, **family}}
        p = tmp_path / "fam.json"
        p.write_text(json.dumps(doc))
        return str(p)

    @pytest.mark.parametrize("argv", [
        ["gamma", "--at", "0.5"], ["levelset-conv", "--at", "0.5"],
        ["stability", "--kind", "Relaxed", "--direction", "external"]])
    def test_thin_open_values_get_a_report(self, capsys, tmp_path, argv):
        # [0, 1e-17) moved by -eps rounds to a degenerate interval; the eps
        # shifts move lower corners only, so the value is not refused
        p = self.write(tmp_path, {"lo": 0, "hi": 1e-17, "hi_open": True})
        code, out, err = run(capsys, argv[0], p, *argv[1:])
        assert "Traceback" not in err
        report = json.loads(out)
        jsonschema.validate(report, SCHEMA)
        assert code == exit_code_for(report) in (0, 1, 2)

    def test_malformed_domain_n_is_refused_where_it_is_read(self, capsys, tmp_path):
        # D_n is parsed when first asked: solve reads only the base problem
        p = self.write(tmp_path, {"lo": "x1", "hi": "x1 + 1"}, domain_n={
            "windows": [{"a": 0, "b": "1 + 1/(n+1", "step": 0.25}]})
        code, out, err = run(capsys, "solve", p, "--kind", "Relaxed")
        assert code == 0 and "Traceback" not in err
        code, out, err = run(capsys, "stability", p, "--kind", "Relaxed",
                             "--direction", "external")
        assert (code, out) == (EX_USAGE, "")
        assert "expected ')'" in err and "Traceback" not in err

    def test_domain_n_of_the_wrong_dimension_is_usage_error(self, capsys, tmp_path):
        window = {"a": 0, "b": 1, "step": 0.25}
        p = self.write(tmp_path, {"lo": "x1", "hi": "x1 + 1"},
                       domain_n={"windows": [window, window]},
                       recovery_hint=["x1"])
        for argv in (["gamma", p, "--at", "0.5"], ["pk", p],
                     ["stability", p, "--kind", "Relaxed", "--direction", "external"]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (EX_USAGE, ""), argv
            assert "has dimension 2, the base domain 1" in err
            assert "Traceback" not in err


class TestOutputPlumbing:
    def test_json_is_deterministic(self, capsys):
        _, first, _ = run(capsys, "solve", "geff_vs_reff")
        _, second, _ = run(capsys, "solve", "geff_vs_reff")
        assert first == second
        assert first.endswith("\n")
        rep = json.loads(first)
        assert list(rep) == sorted(rep)

    def test_out_writes_the_same_bytes(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        _, out, _ = run(capsys, "solve", "geff_vs_reff",
                        "--out", str(target))
        assert target.read_text() == out

    def test_table_is_derived_from_json(self, capsys):
        _, out, _ = run(capsys, "solve", "geff_vs_reff",
                        "--kind", "Geoffroy", "--format", "both")
        table, _, blob = out.partition("{")
        rep = json.loads("{" + blob)
        assert "result.Geoffroy.indices" in table
        assert str(rep["config"]["horizon"]) in table

    def test_no_arguments_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EX_USAGE

    @pytest.mark.parametrize("argv", [
        ["gamma", "gamma_cos", "--at", "0", "--tol", "-1"],
        ["gamma", "gamma_cos", "--at", "0", "--tol", "0"],
        ["gamma", "gamma_cos", "--at", "0", "--tol", "nan"],
        ["gamma", "gamma_cos", "--at", "0", "--tol", "inf"],
        ["gamma", "gamma_cos", "--at", "0", "--tol", "tiny"],
        ["gamma", "gamma_cos", "--at", "0", "--seed", "-1"],
        ["gamma", "gamma_cos", "--at", "0", "--horizon", "4"],
        ["stability", "sop_sin", "--kind", "Relaxed",
         "--direction", "external", "--horizon", "0"],
        ["pk", "sop_sin", "--horizon", "7"],
        ["solve", "geff_vs_reff", "--seed", "1.5"],
    ], ids=lambda argv: " ".join(argv[-2:]))
    def test_bad_config_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EX_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"setorder {argv[0]}: error: argument "
                              f"{argv[-2]}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("flags", [
        ("--tol", "1e-300"), ("--seed", "0"), ("--horizon", "8")])
    def test_config_bounds_are_accepted(self, capsys, flags):
        code, rep = run_json(capsys, "solve", "geff_vs_reff",
                             "--kind", "Strong", *flags)
        assert code == 0
        assert rep["config"][flags[0][2:]] == float(flags[1])

    def test_threads_env_recorded(self, capsys, monkeypatch):
        monkeypatch.setenv("SETORDER_THREADS", "4")
        _, rep = run_json(capsys, "solve", "geff_vs_reff",
                          "--kind", "Strong")
        assert rep["config"]["threads"] == 4

    def test_unreadable_threads_env_recorded_as_null(self, capsys, monkeypatch):
        monkeypatch.setenv("SETORDER_THREADS", "many")
        _, rep = run_json(capsys, "solve", "geff_vs_reff",
                          "--kind", "Strong")
        assert rep["config"]["threads"] is None

    def test_verdict_values_dump_as_plain_json(self):
        # reports are dumped with allow_nan=False: an infinite value must
        # become "inf" or "-inf", numpy values plain ones, and a nested
        # verdict its own JSON
        inner = Verdict.fails(reason="inner", counterexample={"n": np.int64(3)})
        v = Verdict.holds(reason="outer", certificate={
            "array": np.array([[1.0, np.inf]]), "count": np.int64(2),
            "scalar": np.float64(-np.inf), "float": float("inf"),
            "list": [np.float32(0.5)], "verdict": inner})
        assert json.loads(cli._dump(v.to_json()))["certificate"] == {
            "array": [[1.0, "inf"]], "count": 2, "scalar": "-inf", "float": "inf",
            "list": [0.5],
            "verdict": {"status": "Fails", "sampled": False, "reason": "inner",
                        "counterexample": {"n": 3}}}


class TestRepro:
    def test_all_examples_match_goldens(self, capsys):
        for example in ("geff-example", "gamma-cos", "sop-sin-stability"):
            code, out, _ = run(capsys, "repro", example)
            assert code == 0, example
            assert "byte-identical" in out

    def test_goldens_are_pinned_configs(self):
        for p in (Path(cli.__file__).parent / "data" / "goldens").iterdir():
            rep = json.loads(p.read_text())
            jsonschema.validate(rep, SCHEMA)
            assert rep["config"] == {"tol": 1e-9, "horizon": 64, "seed": 0}

    def test_stale_golden_mismatches(self, capsys, tmp_path, monkeypatch):
        stale = json.loads(
            (cli._GOLDEN_DIR / "geff-example.json").read_text())
        stale["result"]["solve"]["Strong"]["indices"] = [99]
        (tmp_path / "geff-example.json").write_text(
            json.dumps(stale, sort_keys=True, indent=2) + "\n")
        monkeypatch.setattr(cli, "_GOLDEN_DIR", tmp_path)
        code, _, err = run(capsys, "repro", "geff-example")
        assert code == 1
        assert "MISMATCH" in err

    def test_missing_golden_reports_failure(self, capsys, tmp_path,
                                            monkeypatch):
        monkeypatch.setattr(cli, "_GOLDEN_DIR", tmp_path)
        code, _, err = run(capsys, "repro", "gamma-cos")
        assert code == 1
        assert "--update" in err

    def test_update_writes_then_matches(self, capsys, tmp_path,
                                        monkeypatch):
        monkeypatch.setattr(cli, "_GOLDEN_DIR", tmp_path)
        code, _, _ = run(capsys, "repro", "gamma-cos", "--update")
        assert code == 0
        code, out, _ = run(capsys, "repro", "gamma-cos")
        assert code == 0

    def test_out_writes_the_report(self, capsys, tmp_path):
        out = tmp_path / "geff-example.json"
        code, _, _ = run(capsys, "repro", "geff-example", "--out", str(out))
        assert code == 0
        assert out.read_bytes() == (cli._GOLDEN_DIR / "geff-example.json").read_bytes()

    def test_unknown_id_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["repro", "beats-me"])
        assert exc.value.code == EX_USAGE

    def test_list_ids(self, capsys):
        code, out, _ = run(capsys, "repro", "list")
        assert code == 0
        assert "sop-sin-stability" in out
