"""CLI surface: exit codes, JSON/CSV schemas, round-trips, determinism."""

from __future__ import annotations

import csv
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from assocbounds import bounds, cli, oracles
from assocbounds.bounds import BoundResult
from assocbounds.cli import CSV_COLUMNS, build_parser, main
from assocbounds.family import FamilySummary, ModelSpec
from assocbounds.models import FAMILIES, runs_zero_exact
from assocbounds.numerics import LogProb


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """json.loads that refuses Infinity, -Infinity and NaN, which RFC 8259
    JSON does not have."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


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

    @pytest.mark.parametrize(
        "fields,message",
        [({"count": 0, "lambda": 0.0, "delta": 0.0, "delta_bar": 0.0, "cov_sum": 0.0},
          "count must be a positive integer, got 0"),
         ({"delta": -0.1, "delta_bar": 0.8, "cov_sum": -0.2},
          "delta must be nonnegative, got -0.1; cov_sum=-0.2 is negative: the family "
          "is not positively associated (some pairwise covariance is below zero)")],
        ids=["count<1", "delta<0"],
    )
    def test_summary_validate_refusals_exit_two(self, capsys, fields, message):
        doc = {"count": 10, "means": 0.1, "lambda": 1.0, "max_mean": 0.1, **fields}
        code, out, err = run_main(capsys, "bound", "--summary", json.dumps(doc))
        assert code == 2 and out == ""
        assert err == f"error: inconsistent summary: {message}\n"

    # a lambda mismatch is test_inconsistent_summary_exits_two
    @pytest.mark.parametrize("field,value", [("delta_bar", 1.5), ("max_mean", 0.2)])
    def test_restated_value_mismatch_exits_two(self, capsys, field, value):
        doc = {"count": 10, "means": 0.1, "lambda": 1.0, "delta": 0.2,
               "delta_bar": 1.4, "cov_sum": 0.05, "max_mean": 0.1, field: value}
        code, out, err = run_main(capsys, "bound", "--summary", json.dumps(doc))
        assert code == 2 and out == ""
        assert f"{field}={value} does" in err

    @pytest.mark.parametrize("form", ["printed", "standard"])
    def test_ratio_bound_over_an_infinite_delta_bar_is_vacuous(self, capsys, form):
        # lambda^2 and delta_bar overflow: the ratio is 0, not inf / inf
        doc = {"count": 2 * 10**160, "means": 0.5, "lambda": 1e160, "delta": 1e308,
               "delta_bar": math.inf, "cov_sum": 0.0, "max_mean": 0.5}
        code, out, _ = run_main(capsys, "bound", "--summary", json.dumps(doc),
                                "--eq2-form", form)
        assert code == 0
        (ratio,) = [e for e in json.loads(out)["bounds"] if e["method"] == "janson-ratio"]
        assert ratio["log_value"] == 0.0 and ratio["vacuous"] and ratio["skipped_reason"] is None

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

    @pytest.mark.parametrize(
        "text",
        [
            "null",
            "5",
            '{"count": null, "means": 0.1, "lambda": 1.0, "delta": 0.2, '
            '"delta_bar": 1.4, "cov_sum": 0.05, "max_mean": 0.1}',
            '{"count": 10, "means": 0.1, "lambda": 1.0, "delta": [0.2], '
            '"delta_bar": 1.4, "cov_sum": 0.05, "max_mean": 0.1}',
            '{"count": 10, "means": 0.1, "lambda": 1.0, "delta": 0.2, '
            '"delta_bar": 1.4, "cov_sum": 0.05, "max_mean": {"v": 0.1}}',
            '{"count": 2, "means": [0.1, null], "lambda": 0.2, "delta": 0.2, '
            '"delta_bar": 0.6, "cov_sum": 0.05, "max_mean": 0.1}',
        ],
        ids=["null", "number", "null-count", "list-delta", "object-max-mean",
             "null-mean"],
    )
    def test_malformed_summary_exits_two(self, capsys, text):
        # exit 1 would read as a failed verification
        code, out, err = run_main(capsys, "bound", "--summary", text)
        assert code == 2 and out == ""
        assert err.startswith("error: bad summary JSON: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"count": true, "means": false, "lambda": 0, "delta": false, "delta_bar": 0, '
             '"cov_sum": false, "max_mean": 0}', "means must be a number or a list of numbers"),
            ('{"count": true, "means": 1.0, "lambda": 1, "delta": 0, "delta_bar": 1, '
             '"cov_sum": 0, "max_mean": 1}', "count must be an integer, got True"),
            ('{"count": 2, "means": [0.1, true], "lambda": 1.1, "delta": 0, "delta_bar": 1.1, '
             '"cov_sum": 0, "max_mean": 1}', "means must be a number or a list of numbers"),
            ('{"count": 1, "means": 0.5, "lambda": 0.5, "delta": 0, "delta_bar": 0.5, '
             '"cov_sum": false, "max_mean": 0.5}', "cov_sum must be a number, got False"),
            ('{"count": 10, "means": 0.1, "lambda": 1.0, "delta": "abc", "delta_bar": 1.4, '
             '"cov_sum": 0.05, "max_mean": 0.1}', "delta must be a number, got 'abc'"),
            ('{"count": 2, "means": [0.1, "x"], "lambda": 0.2, "delta": 0, "delta_bar": 0.2, '
             '"cov_sum": 0, "max_mean": 0.1}', "means must be a number or a list of numbers"),
            ('{"count": "ten", "means": 0.1, "lambda": 1.0, "delta": 0, "delta_bar": 1.0, '
             '"cov_sum": 0, "max_mean": 0.1}', "count must be an integer, got 'ten'"),
            # an integer literal float() cannot hold: it raised OverflowError
            ('{"count": 10, "means": 0.1, "lambda": 1.0, "delta": 1%s, "delta_bar": 1.4, '
             '"cov_sum": 0.05, "max_mean": 0.1}' % ("0" * 400),
             "delta lies beyond the double range (about 1.8e308)"),
        ],
        ids=["all-booleans", "true-count", "true-mean", "false-cov-sum",
             "string-delta", "string-mean", "string-count", "10^400-delta"],
    )
    def test_non_number_field_exits_two_naming_it(self, capsys, text, message):
        # JSON true and false are not the numbers 1 and 0, nor is "abc" a number
        code, out, err = run_main(capsys, "bound", "--summary", text)
        assert code == 2 and out == ""
        assert err == f"error: bad summary JSON: {message}\n"

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

    # runs reads no N: every reader of a spec refuses it, through models.bind
    @pytest.mark.parametrize(
        "argv",
        [["bound", "--model", "runs", "--n", "10", "--k", "2", "--p", "0.3", "--N", "7"],
         ["compare", "--model", "runs", "--n", "10", "--k", "2", "--p", "0.3",
          "--sweep", "N=1:5:3"]],
        ids=["bound", "compare"],
    )
    def test_foreign_parameter_exits_two(self, capsys, argv):
        code, out, err = run_main(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: model 'runs' takes no parameters ['N']\n"

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


_json_floats = st.floats(allow_nan=True, allow_infinity=True)
_json_text = st.one_of(
    st.text(max_size=6),
    # ",\n  " is a separator of the encoder's; in a string it is escaped
    st.sampled_from(["", "\x00", "\x1f\n\t", ",\n  ", "\u00e9\u4e2d", "\u2028", "\ud800", '"\\/']),
)
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**300), 10**300),
    _json_floats,
    _json_floats.map(np.float64),
    _json_text,
)
_json_keys = st.one_of(
    _json_text, st.integers(), _json_floats, _json_floats.map(np.float64), st.booleans(), st.none()
)
_json_documents = st.recursive(
    _json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_json_keys, children, max_size=5),
    ),
    max_leaves=40,
)


class TestOutputEncoding:
    """stdout is json.dumps(obj, indent=2), written by the C encoder."""

    @given(_json_documents)
    def test_same_bytes_as_indent_2(self, doc):
        assert cli._indent2(doc) == json.dumps(doc, indent=2)

    def test_five_thousand_mean_summary_same_stdout_as_indent_2(self, capsys, monkeypatch):
        means = np.random.default_rng(21).uniform(1e-4, 0.05, 5000).tolist()
        means[::1000] = [0.0] * 5
        summary = FamilySummary(count=5000, means=means, delta=0.4, cov_sum=0.1)
        argv = ["bound", "--summary", json.dumps(summary.to_json_dict())]
        code, out, _ = run_main(capsys, *argv)
        assert code == 0 and len(json.loads(out)["summary"]["means"]) == 5000
        monkeypatch.setattr(
            cli, "_emit", lambda obj: sys.stdout.write(json.dumps(obj, indent=2) + "\n")
        )
        assert run_main(capsys, *argv) == (code, out, "")


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
        # a plain runs sweep; a coverage sweep whose additive bounds are
        # skipped; and both variants at a log-form t, which adds lv-general,
        # with Monte Carlo columns
        sweeps = [
            ["--model", "runs", "--n", "30", "--k", "2", "--sweep", "p=0.05:0.4:4",
             "--oracle"],
            ["--model", "hypergraph", "--N", "6", "--k", "3",
             "--sweep", "n_draws=4:64:3:geom", "--oracle"],
            ["--model", "runs", "--n", "20", "--k", "3", "--sweep", "p=0.1:0.3:2",
             "--t", "log:-2", "--variant", "both", "--mc", "--trials", "500"],
        ]
        for flags in sweeps:
            code, out, _ = run_main(capsys, "compare", *flags, "--format", "csv")
            assert code == 0
            reader = csv.reader(io.StringIO(out))
            header = next(reader)
            assert header == list(CSV_COLUMNS)
            data = list(reader)

            code2, out2, _ = run_main(capsys, "compare", *flags, "--format", "json")
            assert code2 == 0
            rows = json.loads(out2)["rows"]
            assert len(data) == len(rows) > 0
            for parsed, row in zip(data, rows):
                assert list(row) == list(CSV_COLUMNS)
                for col, cell in zip(header, parsed):
                    want = row[col]
                    if want is None:
                        assert cell == "", col
                    elif isinstance(want, bool):
                        assert cell == str(want).lower(), col
                    elif isinstance(want, (int, float)):
                        assert type(want)(cell) == want, f"{col} failed to round-trip"
                    else:
                        assert cell == want, col

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

    def test_integer_sweep_evaluates_each_rounded_value_once(self, capsys):
        flags = ["compare", "--model", "runs", "--k", "2", "--p", "0.3",
                 "--sweep", "n=10:11:4", "--variant", "both"]
        want = [(n, v) for n in (10, 11) for v in ("first-principles", "paper-as-printed")]
        code, out, _ = run_main(capsys, *flags)
        assert code == 0
        doc = json.loads(out)
        assert doc["sweep"]["grid"] == [10.0, 11.0]
        assert [(r["n"], r["variant"]) for r in doc["rows"]] == want
        code, out, _ = run_main(capsys, *flags, "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(int(r["n"]), r["variant"]) for r in rows] == want

    @pytest.mark.parametrize(
        "flags,calls",
        [
            # hypergraph-cover's summary ignores the variant: one call a point
            (["--model", "hypergraph-cover", "--N", "6", "--k", "3",
              "--sweep", "n_draws=10:30:3"], 3),
            (["--model", "runs", "--n", "20", "--k", "2", "--sweep", "p=0.1:0.3:3"], 6),
        ],
        ids=["hypergraph-cover", "runs"],
    )
    def test_one_evaluate_all_per_distinct_summary(self, capsys, monkeypatch, flags, calls):
        seen = []
        evaluate_all = bounds.evaluate_all

        def counted(summary, **kwargs):
            seen.append(summary)
            return evaluate_all(summary, **kwargs)

        monkeypatch.setattr(bounds, "evaluate_all", counted)
        code, out, _ = run_main(capsys, "compare", *flags, "--variant", "both", "--oracle")
        rows = json.loads(out)["rows"]
        assert code == 0 and len(rows) == 6
        assert len(seen) == calls
        for fp, printed in zip(rows[::2], rows[1::2]):
            differ = [c for c in CSV_COLUMNS if fp[c] != printed[c]]
            assert (differ == ["variant"]) == (calls == 3)

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

    @pytest.mark.usefixtures("no_trials")
    @pytest.mark.parametrize(
        "flags,reason",
        [(["--t", "log:800"], "overflow"), (["--level", "1.5"], "level must be in"),
         (["--seed", "-1"], "seed must lie in [0, 2**128), got -1"),
         (["--seed", str(2**128)], f"seed must lie in [0, 2**128), got {2**128}"),
         (["--t", "abc"], "error: bad t 'abc': could not convert"),
         (["--t", "log:abc"], "error: bad log-form t 'log:abc': could not convert")],
    )
    def test_bad_option_exits_two_before_any_trial(self, capsys, flags, reason):
        code, out, err = run_main(
            capsys, "compare", "--model", "runs", "--n", "30", "--k", "3",
            "--sweep", "p=0.1:0.3:3", "--mc", "--trials", "2000000", *flags,
        )
        assert code == 2 and out == "" and reason in err

    @pytest.mark.usefixtures("no_trials")
    @pytest.mark.parametrize(
        "flags,message",
        [(["--level", "7", "--trials", "0"], "trials must be >= 1, got 0"),
         (["--level", "7"], "level must be in (0, 1), got 7.0"),
         (["--seed", "-1"], "seed must lie in [0, 2**128), got -1")],
    )
    def test_bad_run_option_exits_two_without_mc(self, capsys, flags, message):
        # --level and --trials are read only with --mc, and refused anyway
        code, out, err = run_main(
            capsys, "compare", "--model", "runs", "--n", "12", "--k", "3",
            "--sweep", "p=0.05:0.3:3", *flags,
        )
        assert code == 2 and out == "" and err == f"error: {message}\n"

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
            ("p=0:0.5:1:geom", "geometric sweeps require positive endpoints"),
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

    @pytest.mark.parametrize("mode", ["", ":geom"], ids=["linear", "geom"])
    def test_oversized_sweep_exits_two_before_the_grid(self, capsys, mode, monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(np, "linspace", no_grid)
        monkeypatch.setattr(np, "geomspace", no_grid)
        code, out, err = run_main(
            capsys, "compare", "--model", "runs", "--n", "10", "--k", "2",
            "--sweep", f"p=0.1:0.2:{cli.MAX_SWEEP_POINTS + 1}{mode}",
        )
        assert code == 2 and out == ""
        assert err == "error: sweep takes at most 10000 grid points, got count=10001\n"

    @pytest.mark.parametrize("mode", ["", ":geom"], ids=["linear", "geom"])
    def test_largest_sweep_grid_is_built(self, mode):
        name, grid = cli._parse_sweep(f"p=0.1:0.2:{cli.MAX_SWEEP_POINTS}{mode}")
        assert name == "p" and len(grid) == 10_000
        assert grid[0] == 0.1 and grid[-1] == pytest.approx(0.2, rel=1e-15)

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

    @pytest.mark.usefixtures("no_trials")
    @pytest.mark.parametrize(
        "flags,message",
        [(["--level", "1.5", "--trials", "-3"], "trials must be >= 1, got -3"),
         (["--level", "1.5"], "level must be in (0, 1), got 1.5"),
         (["--level", "1.5", "--mc"], "level must be in (0, 1), got 1.5"),
         (["--seed", "-1"], "seed must lie in [0, 2**128), got -1"),
         (["--seed", "-1", "--mc"], "seed must lie in [0, 2**128), got -1")],
    )
    def test_bad_run_option_exits_two_before_any_work(self, capsys, flags, message):
        # the exact oracle exists here, so neither value would be read
        code, out, err = run_main(
            capsys, "verify", "--model", "ustat", "--n", "10", "--k", "2", "--p", "0.1",
            *flags,
        )
        assert code == 2 and out == "" and err == f"error: {message}\n"

    def test_vacuous_bound_beyond_the_double_range_prints_null(self, capsys):
        # janson-basic's log is about 7.3e4, boppona-spencer's larger still:
        # "vacuous" says each is >= 1
        code, out, _ = run_main(
            capsys, "verify", "--model", "ustat", "--n", "60", "--k", "2", "--p", "0.9"
        )
        assert code == 0
        checks = strict_json(out)["checks"]
        assert [c["method"] for c in checks if c["bound"] is None] == [
            "janson-basic", "boppona-spencer"
        ]
        assert all(c["vacuous"] for c in checks if c["bound"] is None)

    def test_oracle_unavailable_without_mc_exits_two(self, capsys):
        code, _, err = run_main(
            capsys, "verify", "--model", "triangles", "--n", "9", "--p", "0.1"
        )
        assert code == 2 and "--mc" in err


class TestVerifyMonteCarlo:
    """The Monte Carlo verdict: triangles at n = 9 have no exact oracle, so
    the reference is the interval's ends in log, judged with log_exceeds.
    FLAGS take the standard ratio form, since the printed one fails here."""

    FLAGS = ["--model", "triangles", "--n", "9", "--p", "0.1", "--mc",
             "--trials", "2000", "--seed", "3", "--eq2-form", "standard"]

    @pytest.fixture(scope="class")
    def ends(self):
        est = oracles.monte_carlo(
            ModelSpec("triangles", {"n": 9, "p": 0.1}), 2000, seed=3, level=0.99
        )
        assert 0.0 < est.ci.lower < est.ci.upper < 1.0
        return math.log(est.ci.lower), math.log(est.ci.upper)

    def verdicts(self, capsys):
        code, out, _ = run_main(capsys, "verify", *self.FLAGS)
        doc = strict_json(out)
        assert doc["reference"]["kind"] == "monte-carlo"
        assert code == (0 if doc["passed"] else 1)
        return {c["method"]: c["status"] for c in doc["checks"]}

    # the lower end is negative in log: a factor above one moves it down
    @pytest.mark.parametrize(
        "scale,status", [(1.0, "pass"), (1.0 + 1e-13, "pass"), (1.0 + 1e-11, "fail")],
        ids=["at-end", "within-tolerance", "below"],
    )
    def test_upper_bound_at_the_lower_end(self, capsys, monkeypatch, ends, scale, status):
        value = LogProb(ends[0] * scale)
        monkeypatch.setattr(bounds, "janson_basic", lambda s: BoundResult("janson-basic", value))
        by = self.verdicts(capsys)
        assert by.pop("janson-basic") == status
        assert set(by.values()) == {"pass"}

    @pytest.mark.parametrize(
        "scale,status", [(1.0, "pass"), (1.0 - 1e-13, "pass"), (1.0 - 1e-11, "fail")],
        ids=["at-end", "within-tolerance", "above"],
    )
    def test_lower_bound_at_the_upper_end(self, capsys, monkeypatch, ends, scale, status):
        value = LogProb(ends[1] * scale)
        monkeypatch.setattr(
            bounds, "independent_lower", lambda s: BoundResult("independent-lower", value)
        )
        by = self.verdicts(capsys)
        assert by.pop("independent-lower") == status
        assert set(by.values()) == {"pass"}

    def test_no_successes_pass_every_upper_bound(self, capsys, monkeypatch):
        # at p = 0.9 no trial of 200 is triangle-free, so the interval's
        # lower end is 0 and its log is -inf
        monkeypatch.setattr(
            bounds, "janson_basic", lambda s: BoundResult("janson-basic", LogProb(-1e6))
        )
        code, out, _ = run_main(
            capsys, "verify", "--model", "triangles", "--n", "9", "--p", "0.9", "--mc",
            "--trials", "200",
        )
        doc = strict_json(out)
        assert code == 0 and doc["reference"]["ci_lower"] == 0.0
        assert {c["status"] for c in doc["checks"]} == {"pass"}


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

    @pytest.mark.usefixtures("no_trials")
    def test_bad_level_exits_two_before_any_trial(self, capsys):
        code, out, err = run_main(
            capsys, "mc", "--model", "runs", "--n", "30", "--k", "3", "--p", "0.3",
            "--trials", "3000000", "--level", "1.5",
        )
        assert code == 2 and out == "" and "level must be in (0, 1)" in err

    @pytest.mark.usefixtures("no_trials")
    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_bad_seed_exits_two_before_any_trial(self, capsys, seed):
        code, out, err = run_main(
            capsys, "mc", "--model", "runs", "--n", "30", "--k", "3", "--p", "0.3",
            "--trials", "3000000", "--seed", str(seed), "--workers", "2",
        )
        assert code == 2 and out == ""
        assert err == f"error: seed must lie in [0, 2**128), got {seed}\n"

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

    def test_violation_fails_and_prints_null(self, capsys, monkeypatch):
        # a gap over a zero bound: the ratio is infinite, which JSON cannot hold
        monkeypatch.setattr(oracles, "mgf_gap_check", lambda joint, t: (1e-3, 0.0, False))
        code, out, _ = run_main(capsys, "lemma-check", "--m", "3", "--count", "4")
        doc = strict_json(out)
        assert code == 1 and doc["violations"] == 4 and doc["passed"] is False
        assert doc["max_gap_over_bound"] is None

    def test_too_many_variables_exits_two(self, capsys):
        code, _, err = run_main(capsys, "lemma-check", "--m", "12")
        assert code == 2 and "m" in err

    def test_no_laws_exits_two(self, capsys):
        code, out, err = run_main(capsys, "lemma-check", "--count", "0")
        assert code == 2 and out == ""
        assert err == "error: count must be >= 1, got 0\n"

    # the seed rule of mc, compare and verify: the Philox key range
    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_bad_seed_exits_two(self, capsys, seed):
        code, out, err = run_main(capsys, "lemma-check", "--seed", str(seed), "--count", "3")
        assert code == 2 and out == ""
        assert err == f"error: seed must lie in [0, 2**128), got {seed}\n"

    @pytest.mark.parametrize("seed", [0, 2**128 - 1])
    def test_seed_range_ends_run(self, capsys, seed):
        code, out, _ = run_main(capsys, "lemma-check", "--seed", str(seed), "--count", "3")
        assert code == 0 and json.loads(out)["seed"] == seed

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


def test_scipy_stats_loads_on_the_first_interval():
    # a fresh process: bound and compare --oracle never compute an interval
    script = """
import contextlib, io, sys
from assocbounds.cli import main
from assocbounds.family import ModelSpec
from assocbounds.oracles import monte_carlo
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        main(["bound", "--model", "runs", "--n", "100", "--k", "3", "--p", "0.3"]),
        main(["compare", "--model", "runs", "--n", "10", "--k", "2",
              "--sweep", "p=0.1:0.5:3", "--oracle"]),
    ]
before = "scipy.stats" in sys.modules
monte_carlo(ModelSpec("runs", {"n": 10, "k": 2, "p": 0.3}), 10)
print(*codes, before, "scipy.stats" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0", "False", "True"]
