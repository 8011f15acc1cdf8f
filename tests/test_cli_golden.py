"""Golden CLI outputs: the stdout and exit code of in-process ``cli.main``
over a fixed command corpus, and the last stderr line of each failing
command, compared byte for byte with ``tests/data/cli_golden.json``.

Criterion 8 (``test_acceptance``) checks that two runs of one build agree;
this checks that a build agrees with the recorded outputs, so a refactor
that moves any printed digit fails here.  After an intended output change,
regenerate the file and review its diff, entry by entry:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from assocbounds.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

_SUMMARY_NUMBER = json.dumps(
    {"count": 40, "means": 0.05, "lambda": 2.0, "delta": 0.3,
     "delta_bar": 2.6, "cov_sum": 0.1, "max_mean": 0.05}
)
_SUMMARY_LIST = json.dumps(
    {"count": 4, "means": [0.1, 0.2, 0.05, 0.3], "lambda": 0.65, "delta": 0.04,
     "delta_bar": 0.73, "cov_sum": 0.01, "max_mean": 0.3}
)

_SUMMARY_UNIT_MEAN = json.dumps(
    {"count": 3, "means": [0.2, 1.0, 0.4], "lambda": 1.6, "delta": 0.5,
     "delta_bar": 2.6, "cov_sum": 0.0, "max_mean": 1.0}
)
_SUMMARY_NO_COV = json.dumps(
    {"count": 50, "means": 0.3, "lambda": 15.0, "delta": 0.0,
     "delta_bar": 15.0, "cov_sum": 0.0, "max_mean": 0.3}
)
_SUMMARY_NEAR_ONE = json.dumps(
    {"count": 1, "means": 1 - 1e-12, "lambda": 1 - 1e-12, "delta": 0.0,
     "delta_bar": 1 - 1e-12, "cov_sum": 0.0, "max_mean": 1 - 1e-12}
)

COMMANDS: list[list[str]] = [
    # bound: every family, both variants, both eq2 forms, t overrides
    ["bound", "--model", "ustat", "--n", "10", "--k", "2", "--p", "0.1"],
    ["bound", "--model", "runs", "--n", "20", "--k", "3", "--p", "0.3"],
    ["bound", "--model", "runs", "--n", "20", "--k", "3", "--p", "0.3", "--variant", "paper"],
    ["bound", "--model", "triangles", "--n", "8", "--p", "0.2", "--eq2-form", "standard"],
    ["bound", "--model", "hypergraph", "--N", "6", "--k", "3", "--n-draws", "20"],
    ["bound", "--model", "ustat", "--n", "10", "--k", "2", "--p", "0.1", "--t", "0.5"],
    ["bound", "--model", "ustat", "--n", "10", "--k", "2", "--p", "0.1", "--t", "log:-40"],
    ["bound", "--summary", _SUMMARY_NUMBER],
    ["bound", "--summary", _SUMMARY_LIST, "--t", "1.5"],
    # compare: oracle, both variants, Monte Carlo, csv, t override, int sweep
    ["compare", "--model", "runs", "--n", "12", "--k", "3", "--sweep", "p=0.05:0.3:3",
     "--oracle", "--variant", "both"],
    ["compare", "--model", "ustat", "--n", "8", "--k", "2", "--sweep", "p=0.01:0.2:3:geom",
     "--oracle", "--format", "csv"],
    ["compare", "--model", "triangles", "--n", "6", "--sweep", "p=0.1:0.3:2",
     "--mc", "--trials", "2000", "--seed", "5", "--variant", "both", "--format", "csv"],
    ["compare", "--model", "hypergraph-cover", "--N", "5", "--k", "3",
     "--sweep", "n_draws=5:15:3", "--oracle", "--t", "log:-2"],
    ["compare", "--model", "ustat", "--n", "8", "--k", "2", "--sweep", "p=0.1:0.2:2",
     "--mc", "--trials", "1000", "--level", "0.9"],
    # verify: exact oracle, Monte Carlo fallback, a failing check, runs near one
    ["verify", "--model", "ustat", "--n", "10", "--k", "2", "--p", "0.1"],
    ["verify", "--model", "runs", "--n", "10", "--k", "5", "--p", "0.01"],
    ["verify", "--model", "triangles", "--n", "10", "--p", "0.05", "--mc", "--trials", "2000"],
    ["verify", "--model", "hypergraph", "--N", "4", "--k", "3", "--n-draws", "32"],
    # mc and lemma-check
    ["mc", "--model", "runs", "--n", "30", "--k", "3", "--p", "0.3", "--trials", "5000"],
    ["mc", "--model", "ustat", "--n", "10", "--k", "2", "--p", "0.1", "--trials", "3000",
     "--level", "0.99", "--seed", "7", "--workers", "2"],
    ["lemma-check", "--m", "4", "--count", "20"],
    ["lemma-check", "--m", "3", "--t", "2.0", "--count", "10", "--seed", "5"],
    # usage errors
    ["bound", "--n", "10"],
    ["bound", "--model", "runs", "--n", "10", "--k", "2", "--p", "1.5"],
    ["bound", "--model", "ustat", "--n", "10", "--k", "2", "--p", "0.1", "--variant", "both"],
    ["bound", "--model", "ustat", "--n", "10", "--k", "2", "--p", "0.1", "--t", "-1"],
    ["bound", "--model", "ustat", "--n", "10", "--k", "2", "--p", "0.1", "--t", "log:nan"],
    ["bound", "--summary", "{not json"],
    ["compare", "--model", "runs", "--n", "10", "--k", "2", "--p", "0.1"],
    ["compare", "--model", "runs", "--n", "10", "--k", "2", "--sweep", "q=1:2:3"],
    ["compare", "--model", "runs", "--n", "10", "--k", "2", "--sweep", "p=0.1:0.2:0"],
    ["verify", "--model", "triangles", "--n", "10", "--p", "0.05"],
    ["lemma-check", "--m", "11"],
    ["bound", "--model", "nonsense"],
    [],
    # the triangle oracle's printed values, near one included
    ["compare", "--model", "triangles", "--n", "6", "--sweep", "p=1e-4:0.5:4:geom",
     "--oracle", "--variant", "both"],
    ["verify", "--model", "triangles", "--n", "5", "--p", "1e-12", "--eq2-form", "standard"],
    ["verify", "--model", "triangles", "--n", "7", "--p", "1e-4"],
    # prod(1 - p_i) where cov_sum is 0 or a mean is 1
    ["bound", "--summary", _SUMMARY_UNIT_MEAN],
    ["bound", "--model", "runs", "--n", "10", "--k", "2", "--p", "1.0"],
    ["bound", "--summary", _SUMMARY_NO_COV, "--t", "log:-700"],
    # refused before any work: a log-form t that overflows, a level outside (0, 1)
    ["bound", "--model", "ustat", "--n", "10", "--k", "2", "--p", "0.1", "--t", "log:800"],
    ["mc", "--model", "runs", "--n", "30", "--k", "3", "--p", "0.3", "--trials", "3000000",
     "--level", "1.5"],
    # refused though nothing would read them: a summary document that is not
    # an object, and --trials or --level without Monte Carlo
    ["bound", "--summary", "null"],
    ["compare", "--model", "runs", "--n", "12", "--k", "3", "--sweep", "p=0.05:0.3:3",
     "--level", "7", "--trials", "0"],
    ["verify", "--model", "ustat", "--n", "10", "--k", "2", "--p", "0.1", "--level", "1.5"],
    # bounds beyond the double range print null, not the non-JSON Infinity
    ["verify", "--model", "ustat", "--n", "60", "--k", "2", "--p", "0.9"],
    # janson-ratio where lambda^2 overflows: a finite log, not an exact zero
    ["verify", "--model", "runs", "--n", str(10**160), "--k", "2", "--p", "0.5",
     "--eq2-form", "standard"],
    # a mean near 1 at large t, where p (1 - e^{-t}) > 1/2: the tilted
    # product's term is ln((1 - p) + p e^{-t})
    ["bound", "--summary", _SUMMARY_NEAR_ONE, "--t", "31.6"],
]


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    entry = {"argv": argv, "exit": code, "stdout": out.getvalue()}
    if code != 0:  # argparse's usage lines above it wrap with the terminal
        entry["stderr_last_line"] = err.getvalue().rstrip("\n").rpartition("\n")[2]
    return entry


@pytest.fixture(scope="module")
def golden() -> list[dict]:
    return json.loads(GOLDEN.read_text())


def test_corpus_matches_the_command_list(golden):
    assert [e["argv"] for e in golden] == COMMANDS


@pytest.mark.parametrize(
    "i", range(len(COMMANDS)), ids=lambda i: f"{i:02d}-{(COMMANDS[i] or ['none'])[0]}"
)
def test_output_matches_the_recorded_one(golden, i):
    assert run(COMMANDS[i]) == golden[i]


def test_one_parser_serves_the_corpus_in_any_order(golden):
    # main parses with one parser per process; backwards, the usage errors
    # run before the valid commands, and no call may see an earlier one's state
    for i in reversed(range(len(COMMANDS))):
        assert run(COMMANDS[i]) == golden[i], COMMANDS[i]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([run(a) for a in COMMANDS], indent=1) + "\n")
    print(f"wrote {len(COMMANDS)} entries to {GOLDEN}", file=sys.stderr)
