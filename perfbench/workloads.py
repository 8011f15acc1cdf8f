"""The four benchmark workloads.

Each workload builds its inputs from the seed, warms the library's lazy
caches, and then repeats one fixed *round* of timed calls.  Every call's
output is checked; a failed check marks the operations it covers as failed.
The checks compute their references independently of the code they check
where they can (own Clopper-Pearson interval, own tilted-bound value).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import beta

from assocbounds import bounds, cli, models, oracles
from assocbounds.family import ModelSpec

CHECK_LEVEL = 0.999
# Relative tolerance for comparisons in log domain.  The absolute slack is
# 1e-12 in log units, a relative 1e-12 in linear terms, so the gate stays
# strict however small the compared probability is.
LOG_RTOL = 1e-9
LOG_ATOL = 1e-12
# Linear slack of the bracket check, as in the acceptance suite's criterion 6.
BRACKET_TOL = 1e-9


@dataclass
class Tally:
    """Operations attempted and failed, with the first failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, ops: int, failed: int, messages: list[str]) -> None:
        self.attempted += ops
        self.failed += failed
        self.messages.extend(messages[: max(0, 10 - len(self.messages))])


@dataclass
class Round:
    """Latency of each timed call in one round, and operations completed."""

    latencies: list[float]
    ops: int

    @property
    def rate(self) -> float:
        busy = sum(self.latencies)
        return self.ops / busy if busy > 0 else 0.0


# ---------------------------------------------------------------------------
# Independent references for the checks.
# ---------------------------------------------------------------------------

def clopper_pearson(successes: int, trials: int, level: float) -> tuple[float, float]:
    """Exact binomial interval from Beta quantiles."""
    alpha = 1.0 - level
    lower = 0.0 if successes == 0 else float(
        beta.ppf(alpha / 2, successes, trials - successes + 1)
    )
    upper = 1.0 if successes == trials else float(
        beta.ppf(1 - alpha / 2, successes + 1, trials - successes)
    )
    return lower, upper


def interval_covers(successes: int, trials: int, truth: float) -> bool:
    lower, upper = clopper_pearson(successes, trials, CHECK_LEVEL)
    return lower <= truth <= upper


def interval_meets_bracket(successes: int, trials: int, lo: float, hi: float) -> bool:
    """The interval overlaps [lo, hi], with criterion 6's linear slack."""
    lower, upper = clopper_pearson(successes, trials, CHECK_LEVEL)
    return upper >= lo - BRACKET_TOL and lower <= hi + BRACKET_TOL


def log_slack(reference: float) -> float:
    return LOG_RTOL * abs(reference) + LOG_ATOL


def lv_general_log_t1(count: int, means, cov_sum: float) -> float:
    """ln of lv-general at t = 1: ln(prod(1 - p + p/e) + cov_sum)."""
    factor = math.expm1(-1.0)
    if isinstance(means, list):
        product = math.fsum(math.log1p(p * factor) for p in means)
    else:
        product = count * math.log1p(means * factor)
    if cov_sum == 0:
        return product
    return float(np.logaddexp(product, math.log(cov_sum)))


def compare_row_failures(row: dict) -> list[str]:
    """Domination failures of one ``compare --oracle`` JSON row.

    Gated rows are first-principles ones: the paper-as-printed formulas
    undercount pair terms and are not claimed to bound (the acceptance
    suite's criterion 1 gates the same variant).  The product lower bound
    is checked only where the family is positively associated.
    """
    if row["variant"] != models.FIRST_PRINCIPLES:
        return []
    truth = row["oracle_log"]
    if truth is None:
        return []  # the oracle is exactly 0, which every bound dominates
    where = f"{row['model']} n={row['n']} k={row['k']} p={row['p']} N={row['N']} n_draws={row['n_draws']}"
    out = []
    for method in bounds.UPPER_METHODS:
        value = row[f"{method}_log"]
        if value is None or row[f"{method}_vacuous"]:
            continue
        if value < truth - log_slack(truth):
            out.append(f"{where}: {method} log {value!r} below oracle log {truth!r}")
    lower = row["independent-lower_log"]
    if row["model"] != "hypergraph-cover" and lower is not None:
        if lower > truth + log_slack(truth):
            out.append(f"{where}: independent-lower log {lower!r} above oracle log {truth!r}")
    return out


def bound_output_failures(doc: dict) -> list[str]:
    """Checks on one ``bound`` JSON document: lv-optimal is evaluated exactly
    when cov_sum >= 0, and then lies at or below lv-general at t = 1."""
    s = doc["summary"]
    entries = {e["method"]: e for e in doc["bounds"]}
    optimal = entries["lv-optimal"]
    if s["cov_sum"] < 0:
        if optimal["skipped_reason"] is None:
            return [f"lv-optimal evaluated although cov_sum={s['cov_sum']} < 0"]
        return []
    if optimal["skipped_reason"] is not None:
        return [f"lv-optimal skipped: {optimal['skipped_reason']}"]
    at_one = lv_general_log_t1(s["count"], s["means"], s["cov_sum"])
    value = optimal["log_value"]
    if value is None or value > at_one + log_slack(at_one):
        return [f"lv-optimal log {value!r} above lv-general(t=1) log {at_one!r}"]
    return []


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------

def _call_cli(argv: list[str]) -> tuple[float, int, str]:
    """Run ``cli.main`` in process; return (seconds, exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    return seconds, code, buf.getvalue()


class MonteCarloWorkload:
    """Repeated ``monte_carlo`` calls; each call draws a fresh Philox key
    from the seed, so the calls are independent samples and their success
    counts add up to one binomial sample per family."""

    # (spec, trials per call); a call takes 50-150 ms on a 2-core Xeon, so
    # a 25 s run makes well over 100 calls.
    specs: tuple[tuple[ModelSpec, int], ...] = ()
    # Philox-contract check: (spec, prefix trials) compared at 1 and 2 workers.
    philox_checks: tuple[tuple[ModelSpec, int], ...] = ()
    workers = 1

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng([seed, 1])
        # Pooled successes and trials per entry of ``specs``.
        self.successes = [0] * len(self.specs)
        self.trials = [0] * len(self.specs)
        self.references = [self.reference(spec) for spec, _ in self.specs]

    def reference(self, spec: ModelSpec):
        """Exact P(Z=0) where an oracle exists, else the bracket
        [independent-lower, lv-optimal] as linear values."""
        exact = oracles.oracle_for(spec)
        if exact is not None:
            return exact.linear
        s = models.summary_for(spec)
        return (bounds.independent_lower(s).value.linear, bounds.lv_optimal(s).value.linear)

    def key(self) -> int:
        return int(self.rng.integers(0, 2**63))

    def warm_up(self) -> None:
        for spec, _ in self.specs:
            oracles.monte_carlo(spec, 64, seed=self.key(), workers=self.workers)

    def round(self, tally: Tally) -> Round:
        latencies, ops = [], 0
        for i, (spec, trials) in enumerate(self.specs):
            try:
                start = time.perf_counter()
                est = oracles.monte_carlo(spec, trials, seed=self.key(), workers=self.workers)
                latencies.append(time.perf_counter() - start)
            except Exception:
                tally.record(trials, trials, [f"{spec.model}: {traceback.format_exc(limit=3)}"])
                continue
            failures = []
            if est.trials != trials or not 0 <= est.successes <= trials:
                failures.append(f"{spec.model}: {est.successes}/{est.trials} for {trials} trials")
            elif est.estimate != est.successes / trials:
                failures.append(f"{spec.model}: estimate {est.estimate} != successes/trials")
            else:
                self.successes[i] += est.successes
                self.trials[i] += trials
                ops += trials
            tally.record(trials, trials if failures else 0, failures)
        return Round(latencies, ops)

    def final_checks(self, tally: Tally) -> None:
        """Untimed: the pooled interval against the reference, then the
        Philox contract on a short prefix.  A failed pooled check fails every
        trial of that family; the prefix trials count as extra operations."""
        for i, (spec, _) in enumerate(self.specs):
            succ, trials, ref = self.successes[i], self.trials[i], self.references[i]
            if trials == 0:
                continue
            if isinstance(ref, tuple):
                ok = interval_meets_bracket(succ, trials, *ref)
            else:
                ok = interval_covers(succ, trials, ref)
            if not ok:
                tally.record(0, trials, [
                    f"{spec.model}: {succ}/{trials} at level {CHECK_LEVEL} misses reference {ref}"
                ])
        for spec, prefix in self.philox_checks:
            seed = self.key()
            counts = [
                oracles.monte_carlo(spec, prefix, seed=seed, workers=w).successes
                for w in (1, 2)
            ]
            if counts[0] == counts[1]:
                tally.record(prefix, 0, [])
            else:
                tally.record(prefix, prefix, [
                    f"{spec.model}{spec.params}: workers 1/2 give {counts} successes"
                ])


_COVER = ModelSpec("hypergraph-cover", {"N": 10, "k": 3, "n_draws": 200})
_RUNS = ModelSpec("runs", {"n": 100, "k": 3, "p": 0.3})
_TRIANGLES = ModelSpec("triangles", {"n": 20, "p": 0.1})
_USTAT = ModelSpec("ustat", {"n": 24, "k": 3, "p": 0.05})


class McCover(MonteCarloWorkload):
    """Criterion 6's coverage instance, one worker: the per-draw Python loop
    of the cover sampler dominates."""

    # The sampler stops early once every trial of the batch is covered; at
    # 5000 trials about a fifth of the calls run all 200 draws, so
    # call_p90_ms reads those full-length calls, not the edge between kinds.
    specs = ((_COVER, 5000),)
    # At n_draws=200 nearly every trial covers, so equal counts say little;
    # at n_draws=60 about half do, and a split that moved trials would show.
    philox_checks = (
        (_COVER, 600),
        (ModelSpec("hypergraph-cover", {"N": 10, "k": 3, "n_draws": 60}), 2000),
    )
    workers = 1


class McLattice(MonteCarloWorkload):
    """The vectorized samplers at two workers, about a third of the time
    each; ``trial_uniforms`` and the thread pool share the work."""

    specs = ((_RUNS, 100_000), (_TRIANGLES, 35_000), (_USTAT, 750_000))
    philox_checks = ((_RUNS, 20_000), (_TRIANGLES, 10_000), (_USTAT, 100_000))
    workers = 2


def _geom_sweep(param: str, lo: float, hi: float, points: int) -> str:
    return f"{param}={lo!r}:{hi!r}:{points}:geom"


class CompareOracle:
    """In-process ``compare --oracle --variant both`` sweeps over all four
    families at sizes the exact oracles cover.

    A round is 40 calls: one N=7 coverage sweep point (two rows, each a
    warm oracle over all 2^21 edge subsets), eight N=6 coverage sweeps and
    31 cheaper sweeps.  Coverage rows take about 60% of the time; the N=6
    calls, about twice as slow as the cheap ones, are the slowest tenth but
    one, so call_p90_ms reads them and call_p50_ms reads the cheap sweeps.
    """

    workers = 1

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 2])
        u = rng.uniform
        self.calls: list[tuple[list[str], int]] = []
        self.cold: list[ModelSpec] = []  # one per oracle table the sweeps use

        def add(model: str, params: dict, sweep: str, points: int) -> None:
            if model == "hypergraph-cover":
                self.cold.append(ModelSpec(model, {**params, "n_draws": 1}))
            elif model == "triangles":
                self.cold.append(ModelSpec(model, {**params, "p": 0.5}))
            argv = ["compare", "--model", model]
            for name, value in params.items():
                argv += [f"--{name.replace('_', '-')}", str(value)]
            argv += ["--sweep", sweep, "--oracle", "--variant", "both",
                     "--eq2-form", "standard", "--format", "json"]
            self.calls.append((argv, 2 * points))

        draws = int(rng.integers(14, 40))
        add("hypergraph-cover", {"N": 7, "k": 3}, f"n_draws={draws}:{draws}:1", 1)
        for i in range(8):
            lo = int(rng.integers(16, 28))  # K_6 needs 15 single-edge draws
            add("hypergraph-cover", {"N": 6, "k": 2 + i % 2},
                f"n_draws={lo}:{lo + int(rng.integers(10, 40))}:8", 8)
        for i in range(3):
            lo = int(rng.integers(12, 24))
            add("hypergraph-cover", {"N": 5, "k": 2 + i % 2},
                f"n_draws={lo}:{lo + int(rng.integers(10, 40))}:8", 8)
        for n in (5, 6, 7, 5, 6, 7):
            add("triangles", {"n": n}, _geom_sweep("p", u(0.02, 0.1), u(0.3, 0.7), 8), 8)
        for _ in range(11):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(2 * k, 400))
            add("runs", {"n": n, "k": k}, _geom_sweep("p", u(0.01, 0.1), u(0.2, 0.8), 8), 8)
        for _ in range(11):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(k + 2, 60))
            add("ustat", {"n": n, "k": k}, _geom_sweep("p", u(0.005, 0.05), u(0.1, 0.4), 8), 8)
        order = rng.permutation(len(self.calls))
        self.calls = [self.calls[i] for i in order]

    def warm_up(self) -> None:
        # Builds the cold oracle tables (2^21 entries for N=7) once.
        for spec in self.cold:
            oracles.oracle_for(spec)
        _call_cli(["compare", "--model", "runs", "--n", "10", "--k", "2",
                   "--sweep", "p=0.1:0.2:2", "--oracle"])

    def round(self, tally: Tally) -> Round:
        latencies, ops = [], 0
        for argv, expected in self.calls:
            try:
                seconds, code, out = _call_cli(argv)
            except Exception:
                tally.record(expected, expected, [f"{argv}: {traceback.format_exc(limit=3)}"])
                continue
            latencies.append(seconds)
            rows = []
            try:
                rows = json.loads(out)["rows"] if code == 0 else []
                if len(rows) != expected:
                    failed, messages = expected, [
                        f"{argv}: exit {code}, {len(rows)} rows, expected {expected}"]
                else:
                    per_row = [compare_row_failures(r) for r in rows]
                    failed = sum(1 for f in per_row if f)
                    messages = [m for f in per_row for m in f]
            except Exception:
                failed, messages = expected, [f"{argv}: check raised {traceback.format_exc(limit=3)}"]
            ops += len(rows)
            tally.record(expected, failed, messages)
        return Round(latencies, ops)

    def final_checks(self, tally: Tally) -> None:
        pass


class BoundMix:
    """In-process ``bound`` calls: 48 homogeneous ``--model`` instances at
    large sizes and 16 heterogeneous ``--summary`` inputs whose sizes climb
    geometrically from 100 to 5000 means.  Three quarters of the calls are
    homogeneous, so call_p50_ms reads that path and call_p90_ms the
    heterogeneous one (the 10th of the 16 sizes, about 1000 means)."""

    workers = 1
    HETERO_SIZES = tuple(round(100 * 50 ** (i / 15)) for i in range(16))

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 3])
        u = rng.uniform

        def log_int(lo: float, hi: float) -> int:
            return int(round(math.exp(u(math.log(lo), math.log(hi)))))

        homogeneous = []
        for _ in range(12):
            k = int(rng.integers(2, 7))
            homogeneous.append(["--model", "runs", "--n", str(log_int(1e4, 1e6)),
                                "--k", str(k), "--p", repr(u(0.05, 0.5))])
            homogeneous.append(["--model", "triangles", "--n", str(log_int(50, 3000)),
                                "--p", repr(u(0.001, 0.05))])
            k = int(rng.integers(2, 6))
            homogeneous.append(["--model", "ustat", "--n", str(log_int(50, 2000)),
                                "--k", str(k), "--p", repr(u(0.001, 0.05))])
            big_n = log_int(20, 500)
            homogeneous.append(["--model", "hypergraph-cover", "--N", str(big_n),
                                "--k", str(int(rng.integers(3, 6))),
                                "--n-draws", str(int(u(0.5, 3.0) * big_n * big_n))])
        for argv in homogeneous:
            argv += ["--variant", ("first-principles", "paper")[int(rng.integers(0, 2))],
                     "--eq2-form", ("printed", "standard")[int(rng.integers(0, 2))]]
        heterogeneous = [["--summary", self.summary_json(rng, m)] for m in self.HETERO_SIZES]
        order_h = rng.permutation(len(homogeneous))
        order_x = rng.permutation(len(heterogeneous))
        self.calls: list[list[str]] = []
        for i, j in enumerate(order_x):
            self.calls += [["bound"] + homogeneous[h] for h in order_h[3 * i: 3 * i + 3]]
            self.calls.append(["bound"] + heterogeneous[j])

    @staticmethod
    def summary_json(rng: np.random.Generator, count: int) -> str:
        means = [float(m) for m in rng.uniform(1e-4, 0.05, count)]
        lam = math.fsum(means)
        delta = lam * float(rng.uniform(0.05, 0.5))
        return json.dumps({
            "count": count,
            "means": means,
            "lambda": lam,
            "delta": delta,
            "delta_bar": lam + 2.0 * delta,
            "cov_sum": delta * float(rng.uniform(0.2, 0.9)),
            "max_mean": max(means),
        })

    def warm_up(self) -> None:
        _call_cli(self.calls[0])
        _call_cli(["bound", "--summary", self.summary_json(np.random.default_rng(0), 100)])

    def round(self, tally: Tally) -> Round:
        latencies = []
        for argv in self.calls:
            try:
                seconds, code, out = _call_cli(argv)
            except Exception:
                tally.record(1, 1, [f"{argv[:3]}: {traceback.format_exc(limit=3)}"])
                continue
            latencies.append(seconds)
            try:
                failures = bound_output_failures(json.loads(out)) if code == 0 else [
                    f"{argv[:5]}: exit {code}"]
            except Exception:
                failures = [f"{argv[:5]}: check raised {traceback.format_exc(limit=3)}"]
            tally.record(1, 1 if failures else 0, failures)
        return Round(latencies, len(latencies))

    def final_checks(self, tally: Tally) -> None:
        pass


WORKLOADS = {
    "mc-cover": McCover,
    "mc-lattice": McLattice,
    "compare-oracle": CompareOracle,
    "bound-mix": BoundMix,
}


def worker_speedup(seed: int, reps: int = 3) -> float:
    """Rate at two workers over rate at one on the mc-lattice specs: the
    median of ``reps`` alternating measurements of each."""
    rng = np.random.default_rng([seed, 4])
    rates: dict[int, list[float]] = {1: [], 2: []}
    for _ in range(reps):
        for workers in (1, 2):
            elapsed, trials = 0.0, 0
            for spec, n in McLattice.specs:
                start = time.perf_counter()
                oracles.monte_carlo(spec, n, seed=int(rng.integers(0, 2**63)), workers=workers)
                elapsed += time.perf_counter() - start
                trials += n
            rates[workers].append(trials / elapsed)
    return float(np.median(rates[2]) / np.median(rates[1]))
