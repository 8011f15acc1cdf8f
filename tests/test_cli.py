"""CLI surface: exit codes, JSON/CSV schemas, round-trips, determinism."""

from __future__ import annotations

import csv
import io
import json
import math
import subprocess
import sys

import pytest

from assocbounds import bounds
from assocbounds.bounds import BoundResult
from assocbounds.cli import CSV_COLUMNS, build_parser, main
from assocbounds.models import FAMILIES
from assocbounds.numerics import LogProb
from assocbounds.oracles import runs_zero_exact


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_proc(*argv):
    return subprocess.run(
        [sys.executable, "-m", "assocbounds.cli", *argv],
        capture_output=True,
        text=True,
    )


class TestBoundCommand:
    def test_ustat_instance_reports_lambda_and_seven_bounds(self, capsys):
        code, out, _ = run_main(
            capsys, "bound", "--model", "ustat", "--n", "10", "--k", "2", "--p", "0.1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["lambda"] == pytest.approx(0.45, rel=1e-12)
        assert len(doc["bounds"]) == 7
        assert all(b["skipped_reason"] is None for b in doc["bounds"])

    @pytest.mark.parametrize("command", ["bound", "verify", "compare"])
    def test_ustat_count_beyond_double_range_exits_two(self, capsys, command):
        argv = [command, "--model", "ustat", "--n", "3000", "--k", "1500", "--p", "0.5"]
        if command == "compare":
            argv += ["--sweep", "p=0.4:0.5:2", "--oracle"]
        code, out, err = run_main(capsys, *argv)
        assert code == 2 and out == ""
        assert "double range" in err

    @pytest.mark.parametrize(
        "model,flags",
        [
            ("runs", ["--n", "1" + "0" * 400, "--k", "2", "--p", "0.5"]),
            ("triangles", ["--n", "1" + "0" * 120, "--p", "0.5"]),
            ("ustat", ["--n", "3000", "--k", "1500", "--p", "0.5"]),
            ("hypergraph-cover", ["--N", "1" + "0" * 200, "--k", "3", "--n-draws", "5"]),
        ],
        ids=["runs", "triangles", "ustat", "hypergraph-cover"],
    )
    def test_model_summary_beyond_double_range_exits_two(self, capsys, model, flags):
        code, out, err = run_main(capsys, "bound", "--model", model, *flags)
        assert code == 2 and out == ""
        assert "double range" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "flags", [["--N", "1000", "--k", "999", "--n-draws", "200"],
                  ["--N", "10", "--k", "9", "--n-draws", "10000"]],
    )
    def test_hypergraph_covariances_that_underflow_print_bounds(self, capsys, flags):
        code, out, _ = run_main(capsys, "bound", "--model", "hypergraph", *flags)
        assert code == 0
        assert json.loads(out)["summary"]["cov_sum"] == 0.0

    def test_inconsistent_summary_exits_two(self, capsys):
        bad = json.dumps(
            {
                "count": 10,
                "means": 0.1,
                "lambda": 2.0,
                "delta": 0.0,
                "delta_bar": 2.0,
                "cov_sum": 0.0,
                "max_mean": 0.1,
            }
        )
        code, _, err = run_main(capsys, "bound", "--summary", bad)
        assert code == 2
        assert "lambda" in err

    def test_summary_failing_validation_exits_two(self, capsys):
        # read cleanly, but its covariance sum exceeds delta
        doc = {"count": 10, "means": 0.1, "lambda": 1.0, "delta": 0.1,
               "delta_bar": 1.2, "cov_sum": 0.5, "max_mean": 0.1}
        code, out, err = run_main(capsys, "bound", "--summary", json.dumps(doc))
        assert code == 2 and out == ""
        assert err == "error: inconsistent summary: cov_sum=0.5 exceeds delta=0.1; " \
            "covariances cannot exceed the joint expectations they come from\n"

    # a lambda mismatch is test_inconsistent_summary_exits_two
    @pytest.mark.parametrize("field,value", [("delta_bar", 1.5), ("max_mean", 0.2)])
    def test_restated_value_mismatch_exits_two(self, capsys, field, value):
        doc = {"count": 10, "means": 0.1, "lambda": 1.0, "delta": 0.2,
               "delta_bar": 1.4, "cov_sum": 0.05, "max_mean": 0.1, field: value}
        code, out, err = run_main(capsys, "bound", "--summary", json.dumps(doc))
        assert code == 2 and out == ""
        assert f"{field}={value} does" in err

    def test_consistent_summary_accepted(self, capsys):
        good = json.dumps(
            {
                "count": 10,
                "means": 0.1,
                "lambda": 1.0,
                "delta": 0.2,
                "delta_bar": 1.4,
                "cov_sum": 0.05,
                "max_mean": 0.1,
            }
        )
        code, out, _ = run_main(capsys, "bound", "--summary", good)
        assert code == 0
        assert json.loads(out)["model"] is None

    def test_fractional_count_exits_two(self, capsys):
        doc = {"count": 10.9, "means": 0.1, "lambda": 1.0, "delta": 0.2,
               "delta_bar": 1.4, "cov_sum": 0.05, "max_mean": 0.1}
        code, out, err = run_main(capsys, "bound", "--summary", json.dumps(doc))
        assert code == 2 and out == ""
        assert "count must be an integer, got 10.9" in err
        doc["count"] = 10.0
        code, out, _ = run_main(capsys, "bound", "--summary", json.dumps(doc))
        assert code == 0 and json.loads(out)["summary"]["count"] == 10

    @pytest.mark.parametrize("count", ["1e400", "1" + "0" * 400], ids=["1e400", "10^400"])
    def test_count_beyond_double_range_exits_two(self, capsys, count):
        text = ('{"count": %s, "means": 0.1, "lambda": 1e300, "delta": 0.0, '
                '"delta_bar": 1e300, "cov_sum": 0.0, "max_mean": 0.1}' % count)
        code, out, err = run_main(capsys, "bound", "--summary", text)
        assert code == 2 and out == ""
        assert "double range" in err and "Traceback" not in err

    @pytest.mark.parametrize("field,value", [("delta", "1e400"), ("delta", "NaN"),
                                             ("cov_sum", "Infinity")])
    def test_non_finite_sum_exits_two_naming_the_field(self, capsys, field, value):
        values = {"delta": "0.2", "delta_bar": "1.4", "cov_sum": "0.05", field: value}
        text = ('{"count": 10, "means": 0.1, "lambda": 1.0, "delta": %(delta)s, '
                '"delta_bar": %(delta_bar)s, "cov_sum": %(cov_sum)s, "max_mean": 0.1}'
                % values)
        code, out, err = run_main(capsys, "bound", "--summary", text)
        assert code == 2 and out == ""
        assert f"bad summary JSON: {field}=" in err and "double range" in err

    @pytest.mark.parametrize("count,means", [(10, [0.1]), (4, [0.1, 0.2, 0.3])])
    def test_list_summary_length_must_match_count(self, capsys, count, means):
        # a one-entry list is still one indicator's mean, not a shared one
        doc = {"count": count, "means": means, "lambda": 1.0, "delta": 0.2,
               "delta_bar": 1.4, "cov_sum": 0.05, "max_mean": max(means)}
        code, out, err = run_main(capsys, "bound", "--summary", json.dumps(doc))
        assert code == 2 and out == ""
        assert "entries but count" in err

    def test_count_one_list_summary_is_a_single_mean(self, capsys):
        doc = {"count": 1, "means": [0.3], "lambda": 0.3, "delta": 0.0,
               "delta_bar": 0.3, "cov_sum": 0.0, "max_mean": 0.3}
        code, out, _ = run_main(capsys, "bound", "--summary", json.dumps(doc))
        assert code == 0
        assert '"means": 0.3,' in out
        by = {b["method"]: b for b in json.loads(out)["bounds"]}
        assert by["lv-iid"]["skipped_reason"] is None
        assert by["lv-iid"]["log_value"] == pytest.approx(math.log(0.7), rel=1e-12)

    def test_degenerate_p_zero_runs(self, capsys):
        code, out, _ = run_main(
            capsys, "bound", "--model", "runs", "--n", "10", "--k", "2", "--p", "0"
        )
        assert code == 0
        doc = json.loads(out)
        by = {b["method"]: b for b in doc["bounds"]}
        assert by["independent-lower"]["value"] == 1.0
        assert by["janson-basic"]["value"] == 1.0 and by["janson-basic"]["vacuous"]
        assert by["janson-ratio"]["skipped_reason"] is not None

    def test_invalid_parameters_exit_two(self, capsys):
        code, _, err = run_main(
            capsys, "bound", "--model", "runs", "--n", "10", "--k", "0", "--p", "0.5"
        )
        assert code == 2 and "k" in err

    def test_t_override_forms(self, capsys):
        code, out, _ = run_main(
            capsys, "bound", "--model", "runs", "--n", "10", "--k", "2",
            "--p", "0.5", "--t", "1.0",
        )
        assert code == 0
        by = {b["method"]: b for b in json.loads(out)["bounds"]}
        assert by["lv-general"]["t"] == 1.0
        code, out, _ = run_main(
            capsys, "bound", "--model", "runs", "--n", "10", "--k", "2",
            "--p", "0.5", "--t", "log:-700",
        )
        assert code == 0
        by = {b["method"]: b for b in json.loads(out)["bounds"]}
        assert by["lv-general"]["log_t"] == -700.0

    def test_nonpositive_t_exits_two(self, capsys):
        code, _, err = run_main(
            capsys, "bound", "--model", "runs", "--n", "10", "--k", "2",
            "--p", "0.5", "--t", "-1",
        )
        assert code == 2 and "positive" in err

    def test_paper_variant_alias(self, capsys):
        code, out, _ = run_main(
            capsys, "bound", "--model", "runs", "--n", "10", "--k", "2",
            "--p", "0.5", "--variant", "paper",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["variant"] == "paper-as-printed"
        assert doc["summary"]["delta"] == pytest.approx(0.625)

    def test_variant_both_rejected_outside_compare(self, capsys):
        code, _, err = run_main(
            capsys, "bound", "--model", "runs", "--n", "10", "--k", "2",
            "--p", "0.5", "--variant", "both",
        )
        assert code == 2 and "compare" in err


class TestCompareCommand:
    def test_ustat_sweep_shows_additive_bound_winning(self, capsys):
        # many strongly overlapping subsets: the multiplicative bound goes
        # vacuous while the optimized additive bound stays informative
        code, out, _ = run_main(
            capsys, "compare", "--model", "ustat", "--n", "24", "--k", "3",
            "--sweep", "p=0.02:0.2:6:geom", "--oracle",
        )
        assert code == 0
        doc = json.loads(out)
        rows = doc["rows"]
        assert len(rows) == 6
        wins = [
            r for r in rows
            if r["lv-optimal_log"] is not None
            and r["boppona-spencer_log"] is not None
            and r["lv-optimal_log"] < r["boppona-spencer_log"]
        ]
        assert wins, "expected a region where lv-optimal beats boppona-spencer"
        vacuous_bs = [r for r in rows if r["boppona-spencer_vacuous"]]
        assert vacuous_bs and all(not r["lv-optimal_vacuous"] for r in vacuous_bs)
        for r in rows:
            assert r["tightest_method"] != "independent-lower"
            assert r["oracle_linear"] is not None

    def test_csv_roundtrip_exact(self, capsys):
        code, out, _ = run_main(
            capsys, "compare", "--model", "runs", "--n", "30", "--k", "2",
            "--sweep", "p=0.05:0.4:4", "--format", "csv", "--oracle",
        )
        assert code == 0
        reader = csv.reader(io.StringIO(out))
        header = next(reader)
        assert header == list(CSV_COLUMNS)
        data = list(reader)
        assert len(data) == 4

        code2, out2, _ = run_main(
            capsys, "compare", "--model", "runs", "--n", "30", "--k", "2",
            "--sweep", "p=0.05:0.4:4", "--format", "json", "--oracle",
        )
        rows = json.loads(out2)["rows"]
        for parsed, row in zip(data, rows):
            for col, cell in zip(header, parsed):
                want = row[col]
                if isinstance(want, float):
                    assert float(cell) == want, f"{col} failed to round-trip"

    def test_variant_both_emits_paired_rows(self, capsys):
        code, out, _ = run_main(
            capsys, "compare", "--model", "runs", "--n", "20", "--k", "2",
            "--sweep", "p=0.1:0.3:3", "--variant", "both",
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 6
        for fp, printed in zip(rows[::2], rows[1::2]):
            assert fp["variant"] == "first-principles"
            assert printed["variant"] == "paper-as-printed"
            assert fp["p"] == printed["p"]
            # only the pair-sum statistics may differ between the variants
            assert fp["lambda"] == printed["lambda"]
            assert fp["delta"] != printed["delta"]

    def test_mc_columns_attached(self, capsys):
        code, out, _ = run_main(
            capsys, "compare", "--model", "ustat", "--n", "8", "--k", "2",
            "--sweep", "p=0.1:0.3:2", "--mc", "--trials", "4000", "--seed", "7",
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        for r in rows:
            assert r["mc_trials"] == 4000 and r["mc_seed"] == 7
            assert 0.0 <= r["mc_ci_lower"] <= r["mc_estimate"] <= r["mc_ci_upper"] <= 1.0

    def test_hypergraph_sweep_marks_inapplicable_additive_bounds(self, capsys):
        code, out, _ = run_main(
            capsys, "compare", "--model", "hypergraph", "--N", "6", "--k", "3",
            "--sweep", "n_draws=4:64:3:geom", "--oracle",
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        negative = [r for r in rows if r["cov_sum"] < 0]
        assert negative, "expected negatively correlated sweep points"
        for r in negative:
            assert r["lv-optimal_log"] is None
            assert r["boutsikas-koutras_log"] is None
            assert r["janson-basic_log"] is not None

    def test_unknown_sweep_parameter_exits_two(self, capsys):
        code, _, err = run_main(
            capsys, "compare", "--model", "runs", "--n", "10", "--k", "2",
            "--p", "0.5", "--sweep", "q=0.1:0.5:3",
        )
        assert code == 2 and "q" in err

    def test_empty_grid_exits_two(self, capsys):
        code, _, _ = run_main(
            capsys, "compare", "--model", "runs", "--n", "10", "--k", "2",
            "--sweep", "p=0.1:0.5:0",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "sweep,message",
        [
            ("p0.1:0.5:3", "bad sweep 'p0.1:0.5:3'; expected param=start:stop:count[:geom]"),
            ("p=0.1:0.5", "bad sweep grid '0.1:0.5'; expected start:stop:count[:geom]"),
            ("p=0.1:0.5:3:log", "sweep mode must be 'geom' or 'linear', got 'log'"),
            ("p=0.1:half:3", "bad sweep grid '0.1:half:3': could not convert"),
            ("p=0:0.5:3:geom", "geometric sweeps require positive endpoints"),
            ("n=10:1e400:2", "bad sweep grid '10:1e400:2': endpoints must be finite"),
            ("p=nan:0.5:2", "bad sweep grid 'nan:0.5:2': endpoints must be finite"),
        ],
    )
    def test_sweep_grammar_errors_exit_two(self, capsys, sweep, message):
        code, out, err = run_main(
            capsys, "compare", "--model", "runs", "--n", "10", "--k", "2", "--p", "0.5",
            "--sweep", sweep,
        )
        assert code == 2 and out == ""
        assert err.startswith("error: " + message) and "Warning" not in err

    def test_one_point_sweep_uses_the_start(self, capsys):
        code, out, _ = run_main(
            capsys, "compare", "--model", "runs", "--n", "10", "--k", "2",
            "--sweep", "p=0.2:0.9:1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["sweep"]["grid"] == [0.2]
        assert [row["p"] for row in doc["rows"]] == [0.2]

    def test_missing_sweep_exits_two(self, capsys):
        code, _, _ = run_main(
            capsys, "compare", "--model", "runs", "--n", "10", "--k", "2", "--p", "0.5"
        )
        assert code == 2


class TestVerifyCommand:
    def test_ustat_instance_passes(self, capsys):
        code, out, _ = run_main(
            capsys, "verify", "--model", "ustat", "--n", "12", "--k", "3", "--p", "0.2"
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_triangles_instance_passes(self, capsys):
        code, out, _ = run_main(
            capsys, "verify", "--model", "triangles", "--n", "6", "--p", "0.5"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["reference"]["kind"] == "oracle"
        assert doc["passed"] is True

    @pytest.mark.parametrize("n,p", [(5, 1e-12), (3, 0.01)])
    def test_triangles_near_one_passes(self, capsys, n, p):
        # the oracle is the exact rational, so near one it does not read
        # above bounds that hold
        code, out, _ = run_main(
            capsys, "verify", "--model", "triangles", "--n", str(n), "--p", str(p),
            "--eq2-form", "standard",
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_runs_with_monte_carlo_reference(self, capsys):
        code, out, _ = run_main(
            capsys, "verify", "--model", "runs", "--n", "10", "--k", "2",
            "--p", "0.5", "--mc", "--trials", "20000",
        )
        # exact oracle exists for runs, so MC flag is not needed, but the
        # command must still pass with it
        assert code == 0

    def test_hypergraph_small_draws_reports_lower_bound_failure(self, capsys):
        # the coverage family is not positively associated: coverage is
        # impossible at 2 draws yet the product is 2.2e-7, so the classical
        # product lower bound genuinely fails and verify must say so
        code, out, _ = run_main(
            capsys, "verify", "--model", "hypergraph", "--N", "6", "--k", "3",
            "--n-draws", "2",
        )
        assert code == 1
        doc = json.loads(out)
        fails = [c for c in doc["checks"] if c["status"] == "fail"]
        assert [c["method"] for c in fails] == ["independent-lower"]
        uppers = [c for c in doc["checks"] if c.get("direction") == "upper"]
        assert uppers and all(c["status"] == "pass" for c in uppers)

    def test_product_above_truth_near_one_fails(self, capsys):
        # the product's log, -1.396983862086e-9, lies above the exact truth's,
        # -1.396983862465e-9: a linear 1e-9 tolerance cannot see the gap
        code, out, _ = run_main(
            capsys, "verify", "--model", "hypergraph", "--N", "4", "--k", "3",
            "--n-draws", "32",
        )
        assert code == 1
        by = {c["method"]: c for c in json.loads(out)["checks"]}
        assert by["independent-lower"]["status"] == "fail"

    @pytest.mark.parametrize(
        "argv",
        [
            # the truth 0.1^400 lies below the double range
            ["--model", "runs", "--n", "400", "--k", "1", "--p", "0.9"],
            # the truth 1 - 1e-8 is the product, exactly
            ["--model", "ustat", "--n", "4", "--k", "4", "--p", "0.01"],
        ],
    )
    def test_exact_product_passes(self, capsys, argv):
        code, out, _ = run_main(capsys, "verify", *argv)
        by = {c["method"]: c for c in json.loads(out)["checks"]}
        assert by["independent-lower"]["status"] == "pass"

    def test_upper_bound_below_tiny_truth_fails(self, capsys, monkeypatch):
        # the truth is 1.52e-37, far below any linear tolerance
        truth = runs_zero_exact(400, 2, 0.5).log_value
        monkeypatch.setattr(
            bounds, "janson_basic",
            lambda s: BoundResult("janson-basic", LogProb(truth - 1.0)),
        )
        code, out, _ = run_main(
            capsys, "verify", "--model", "runs", "--n", "400", "--k", "2",
            "--p", "0.5",
        )
        assert code == 1
        fails = [c["method"] for c in json.loads(out)["checks"] if c["status"] == "fail"]
        assert fails == ["janson-basic"]

    def test_oracle_unavailable_without_mc_exits_two(self, capsys):
        code, _, err = run_main(
            capsys, "verify", "--model", "triangles", "--n", "9", "--p", "0.1"
        )
        assert code == 2 and "--mc" in err


class TestMcCommand:
    def test_deterministic_stdout_bytes(self):
        argv = [
            "mc", "--model", "runs", "--n", "20", "--k", "2", "--p", "0.4",
            "--trials", "20000", "--seed", "42",
        ]
        a = run_proc(*argv)
        b = run_proc(*argv)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        assert "trials_per_second" in a.stderr

    def test_worker_count_does_not_change_output(self):
        base = [
            "mc", "--model", "runs", "--n", "20", "--k", "2", "--p", "0.4",
            "--trials", "20000", "--seed", "42",
        ]
        one = run_proc(*base, "--workers", "1")
        four = run_proc(*base, "--workers", "4")
        assert one.stdout == four.stdout

    def test_certain_event(self, capsys):
        code, out, _ = run_main(
            capsys, "mc", "--model", "ustat", "--n", "8", "--k", "2", "--p", "0",
            "--trials", "200",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["estimate"] == 1.0 and doc["successes"] == 200

    @pytest.mark.parametrize(
        "flag", [["--variant", "paper"], ["--eq2-form", "standard"]], ids=lambda f: f[0]
    )
    def test_formula_flags_rejected(self, capsys, flag):
        # mc reads no summary, so the formula flags have no meaning here
        code, out, err = run_main(
            capsys, "mc", "--model", "runs", "--n", "10", "--k", "2", "--p", "0.5",
            "--trials", "100", *flag,
        )
        assert code == 2 and out == ""
        assert "unrecognized arguments: " + " ".join(flag) in err

    def test_estimate_tracks_exact_value(self, capsys):
        code, out, _ = run_main(
            capsys, "mc", "--model", "runs", "--n", "10", "--k", "2", "--p", "0.5",
            "--trials", "100000", "--level", "0.99",
        )
        assert code == 0
        doc = json.loads(out)
        exact = runs_zero_exact(10, 2, 0.5).linear
        assert doc["ci"]["lower"] <= exact <= doc["ci"]["upper"]


class TestLemmaCheckCommand:
    def test_single_variable_has_zero_gap(self, capsys):
        code, out, _ = run_main(
            capsys, "lemma-check", "--m", "1", "--count", "5", "--t", "1.0"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["max_gap_over_bound"] == pytest.approx(0.0, abs=1e-12)

    def test_batch_of_random_laws_passes(self, capsys):
        code, out, _ = run_main(
            capsys, "lemma-check", "--m", "6", "--t", "0.5", "--count", "200",
            "--seed", "11",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["violations"] == 0
        assert 0.0 <= doc["max_gap_over_bound"] <= 1.0

    # e^{m t} large: the rounding of the expectations is not a violation
    @pytest.mark.parametrize("t", ["40", "700"])
    def test_single_variable_passes_at_large_t(self, capsys, t):
        code, out, _ = run_main(capsys, "lemma-check", "--m", "1", "--t", t, "--count", "20")
        doc = json.loads(out)
        assert code == 0 and doc["violations"] == 0
        assert doc["max_gap_over_bound"] == 0.0

    def test_too_many_variables_exits_two(self, capsys):
        code, _, err = run_main(capsys, "lemma-check", "--m", "12")
        assert code == 2 and "m" in err

    def test_no_laws_exits_two(self, capsys):
        code, out, err = run_main(capsys, "lemma-check", "--count", "0")
        assert code == 2 and out == ""
        assert err == "error: count must be >= 1, got 0\n"

    # e^{m t} overflows past m t = ln(DBL_MAX), about 709.78: a usage error,
    # not a verification failure (exit 1) or 100 reported violations
    @pytest.mark.parametrize(
        "flags", [["--t", "178"], ["--m", "10", "--t", "71"], ["--t", "inf"]]
    )
    def test_t_beyond_the_double_range_exits_two(self, capsys, flags):
        code, out, err = run_main(capsys, "lemma-check", *flags, "--count", "3")
        assert code == 2 and out == ""
        assert err.startswith("error: m*t must be at most ln(DBL_MAX)")

    @pytest.mark.parametrize("t", ["0", "-1", "nan"])
    def test_nonpositive_t_exits_two(self, capsys, t):
        code, out, err = run_main(capsys, "lemma-check", "--t", t)
        assert code == 2 and out == ""
        assert err == f"error: t must be positive, got {float(t)}\n"


# Flags given out of order; printed params follow the flag order n, k, p, N,
# n_draws, whatever order a family's schema lists them in.
FAMILY_FLAGS = {
    "runs": (["--n", "12", "--p", "0.5", "--k", "2"], ["n", "k", "p"]),
    "triangles": (["--p", "0.5", "--n", "5"], ["n", "p"]),
    "ustat": (["--p", "0.2", "--k", "3", "--n", "12"], ["n", "k", "p"]),
    "hypergraph-cover": (
        ["--n-draws", "16", "--N", "5", "--k", "3"], ["k", "N", "n_draws"]
    ),
}


@pytest.mark.parametrize("model", sorted(FAMILIES))
def test_family_flags_aliases_and_params_order(capsys, model):
    flags, keys = FAMILY_FLAGS[model]
    for alias in (model, *FAMILIES[model].aliases):
        for command, extra in (("bound", []), ("verify", []), ("mc", ["--trials", "200"])):
            code, out, _ = run_main(capsys, command, "--model", alias, *flags, *extra)
            assert code in (0, 1), (command, alias)
            doc = json.loads(out)
            assert doc["model"] == model
            assert list(doc["params"]) == keys
    code, _, err = run_main(capsys, "bound", "--model", model, *flags[2:])
    assert code == 2 and "requires parameters" in err


class TestParsing:
    def test_unknown_model_exits_two(self, capsys):
        code = main(["bound", "--model", "nonsense"])
        capsys.readouterr()
        assert code == 2

    def test_level_default_is_per_command(self):
        # not a shared flag: verify's 0.99 must not reach compare or mc
        parser = build_parser()
        levels = {c: parser.parse_args([c]).level for c in ("compare", "verify", "mc")}
        assert levels == {"compare": 0.95, "verify": 0.99, "mc": 0.95}

    def test_missing_subcommand_exits_two(self, capsys):
        code = main([])
        capsys.readouterr()
        assert code == 2
