"""Tests of the benchmark itself: every output check can fail, tracing
attributes spans correctly, and the command refuses to run without sources.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from assocbounds import bounds, oracles, runs_summary  # noqa: E402
from assocbounds.bounds import BoundResult  # noqa: E402
from assocbounds.numerics import LogProb, clopper_pearson  # noqa: E402


def error_frac(tally: workloads.Tally) -> float:
    return tally.failed / tally.attempted


class ShortLattice(workloads.McLattice):
    specs = tuple((spec, 2_000) for spec, _ in workloads.McLattice.specs)
    philox_checks = tuple((spec, 500) for spec, _ in workloads.McLattice.philox_checks)


def test_clean_monte_carlo_round_passes():
    w = ShortLattice(7)
    tally = workloads.Tally()
    w.round(tally)
    w.final_checks(tally)
    assert tally.attempted > 0
    assert tally.failed == 0, tally.messages


def test_biased_monte_carlo_counts_fail_the_pooled_interval(monkeypatch):
    real = oracles.monte_carlo

    def biased(spec, trials, **kwargs):
        est = real(spec, trials, **kwargs)
        successes = min(trials, est.successes + trials // 20)
        return dataclasses.replace(
            est, successes=successes, estimate=successes / trials,
            ci=clopper_pearson(successes, trials, est.ci.level),
        )

    w = ShortLattice(7)
    tally = workloads.Tally()
    monkeypatch.setattr(oracles, "monte_carlo", biased)
    w.round(tally)
    monkeypatch.setattr(oracles, "monte_carlo", real)
    w.final_checks(tally)
    assert error_frac(tally) > 0
    assert any("misses reference" in m for m in tally.messages)


def test_inconsistent_estimate_fails_the_call_check(monkeypatch):
    real = oracles.monte_carlo

    def off_by_one(spec, trials, **kwargs):
        est = real(spec, trials, **kwargs)
        return dataclasses.replace(est, successes=est.successes - 1)

    monkeypatch.setattr(oracles, "monte_carlo", off_by_one)
    tally = workloads.Tally()
    ShortLattice(7).round(tally)
    assert error_frac(tally) == 1.0


def test_worker_dependent_counts_fail_the_philox_check(monkeypatch):
    real = oracles.monte_carlo

    def split_dependent(spec, trials, workers=1, **kwargs):
        est = real(spec, trials, workers=workers, **kwargs)
        return dataclasses.replace(est, successes=est.successes + (workers == 2))

    w = ShortLattice(7)
    tally = workloads.Tally()
    monkeypatch.setattr(oracles, "monte_carlo", split_dependent)
    w.final_checks(tally)
    assert error_frac(tally) == 1.0
    assert all("workers 1/2" in m for m in tally.messages)


def test_interval_checks_reject_far_references():
    assert workloads.interval_covers(500, 1000, 0.5)
    assert not workloads.interval_covers(500, 1000, 0.6)
    assert workloads.interval_meets_bracket(999, 1000, 0.99, 0.995)
    assert not workloads.interval_meets_bracket(999, 1000, 0.2, 0.3)


class ShortCompare(workloads.CompareOracle):
    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # drop the N=7 coverage call (its one sweep point gives 2 rows)
        self.calls = [c for c in self.calls if c[1] > 2][:6]


def test_bound_below_the_oracle_fails_the_compare_check(monkeypatch):
    w = ShortCompare(3)
    tally = workloads.Tally()
    w.round(tally)
    assert tally.failed == 0, tally.messages
    monkeypatch.setattr(
        bounds, "janson_basic", lambda s: BoundResult("janson-basic", LogProb(-1e4))
    )
    w.round(tally)
    assert error_frac(tally) > 0
    assert any("janson-basic" in m for m in tally.messages)


def test_compare_check_is_relative_and_skips_only_the_printed_variant():
    truth = math.log(1e-37)
    row = {
        "variant": "first-principles", "model": "runs", "n": 400, "k": 2,
        "p": 0.5, "N": None, "n_draws": None, "oracle_log": truth,
        "independent-lower_log": truth,
    }
    for method in bounds.UPPER_METHODS:
        row[f"{method}_log"] = truth
        row[f"{method}_vacuous"] = False
    assert workloads.compare_row_failures(row) == []
    # 10% below the truth: an absolute 1e-9 gate in linear terms would pass it
    row["lv-optimal_log"] = math.log(0.9e-37)
    assert workloads.compare_row_failures(row)
    assert workloads.compare_row_failures({**row, "variant": "paper-as-printed"}) == []


class ShortBoundMix(workloads.BoundMix):
    HETERO_SIZES = (100, 200)


def test_lv_optimal_above_lv_general_fails_the_bound_check(monkeypatch):
    w = ShortBoundMix(5)
    tally = workloads.Tally()
    w.round(tally)
    assert tally.failed == 0, tally.messages
    monkeypatch.setattr(
        bounds, "lv_optimal",
        lambda s: BoundResult("lv-optimal", LogProb(0.5), t=1.0, log_t=0.0),
    )
    w.round(tally)
    assert error_frac(tally) > 0


def test_self_seconds_subtracts_the_union_of_children():
    spans_ = [
        (1, None, 1, "cli.main", 0.0, 10.0, "timed", None),
        (2, 1, 1, "a", 1.0, 4.0, "timed", None),
        (3, 1, 1, "b", 3.0, 5.0, "timed", None),  # overlaps a
        (4, 2, 1, "c", 2.0, 3.0, "timed", None),  # grandchild: not subtracted again
        (5, 1, 1, "d", 9.0, 12.0, "timed", None),  # runs past the parent's end
    ]
    assert spans.self_seconds(spans_, "cli.main") == pytest.approx(10.0 - 4.0 - 1.0)


def test_tracer_parents_pool_thread_spans_and_uninstalls():
    originals = (oracles.monte_carlo, oracles.simulate_batch, bounds.minimize_scalar)
    tracer = spans.Tracer()
    tracer.phase = "timed"
    tracer.install()
    try:
        oracles.monte_carlo(workloads._RUNS, 2_000, seed=1, workers=2)
    finally:
        tracer.uninstall()
    assert (oracles.monte_carlo, oracles.simulate_batch, bounds.minimize_scalar) == originals
    (mc,) = [s for s in tracer.spans if s[3] == "oracles.monte_carlo"]
    batches = [s for s in tracer.spans if s[3] == "models.simulate_batch"]
    assert len(batches) == 2
    assert all(s[1] == mc[0] and s[2] == mc[0] for s in batches)
    metrics = spans.layer_metrics(tracer.spans, rounds=1)
    assert metrics["models.simulate_batch.runs.rows_per_busy_s"] > 0
    assert metrics["models.trial_uniforms.used_frac"] == 1.0
    assert 0 < metrics["oracles.monte_carlo.worker_util"] <= 1.0


def test_minimize_scalar_evaluations_are_counted_exactly():
    tracer = spans.Tracer()
    tracer.phase = "timed"
    tracer.install()
    try:
        bounds.lv_optimal(runs_summary(100, 3, 0.2))
    finally:
        tracer.uninstall()
    (span,) = [s for s in tracer.spans if s[3] == "numerics.minimize_scalar"]
    assert span[7]["evals"] >= bounds.T_GRID_POINTS


def test_command_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bound-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_command_reports_every_declared_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bound-mix", "--seed", "1",
         "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert [m["name"] for m in declared] == list(result["metrics"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    (report_line,) = [x for x in proc.stdout.splitlines() if x.startswith("report ")]
    report = json.loads(report_line[len("report "):])
    raw, slowdown = report["raw_metrics"], report["slowdown"]
    assert result["metrics"]["ops_per_s"]["value"] == pytest.approx(raw["ops_per_s"] * slowdown)
    assert result["metrics"]["call_p90_ms"]["value"] == pytest.approx(raw["call_p90_ms"] / slowdown)
    assert report["provenance"]["workload_seed"] == 1
