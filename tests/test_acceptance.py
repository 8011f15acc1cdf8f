"""Acceptance checklist for the package.

Each test prints one ``[acceptance]`` pass/fail line, and every check must
pass.  The hypergraph coverage family is not positively associated (disjoint
edge pairs are negatively correlated, and for single-edge draws every pair
is), so two classical claims fail for it: the product lower bound and the
vacuity of the multiplicative bound at n_draws = 2N^2.  Their checks assert
where each claim fails and what holds instead, against exact numbers.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from assocbounds.bounds import (
    UPPER_METHODS,
    BoundResult,
    SkippedBound,
    boppona_spencer,
    evaluate_all,
    independent_lower,
    lv_general,
    lv_iid,
    lv_optimal,
)
from assocbounds.family import FamilySummary, ModelSpec, validate
from assocbounds.models import (
    FIRST_PRINCIPLES,
    cover_all_exact,
    hypergraph_edge_prob,
    hypergraph_joint_probs,
    hypergraph_summary,
    runs_poisson_band,
    runs_summary,
    runs_zero_exact,
    summary_for,
    triangle_free_exact,
    ustat_zero_exact,
)
from assocbounds.numerics import LOG_RTOL, NEG_INF, log_exceeds
from assocbounds.oracles import (
    DEFAULT_SEED,
    Reference,
    mgf_gap_check,
    monte_carlo,
    random_monotone_joint,
    reference_for,
)

TOL = 1e-9
P_GRID = (0.05, 0.1, 0.3, 0.5)
# Log values compare by numerics.log_exceeds, at a relative LOG_RTOL of
# 1e-12.  Float noise in the log-domain bounds and oracles stays near 1e-15
# here; (5,3,64) is the tightest true gap in the coverage matrix, with a
# product below the truth by a relative 7.8e-10.


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def domination_failures(spec: ModelSpec, truth: Reference, check_lower: bool) -> list[str]:
    """Bounds on the wrong side of ``truth``, the log interval of P(Z=0), by
    verify's rule: a lower bound above its high end, or a non-vacuous upper
    bound below its low end."""
    summary = summary_for(spec, FIRST_PRINCIPLES)
    entries = evaluate_all(summary, eq2_form="standard")
    failures = []
    for e in entries:
        if isinstance(e, SkippedBound):
            continue
        value = e.value.log_value
        if e.method not in UPPER_METHODS:
            if check_lower and log_exceeds(value, truth.high):
                failures.append(
                    f"{spec.model}{spec.params}: lower bound log {value} > "
                    f"truth log {truth.high}"
                )
        elif not e.vacuous and log_exceeds(truth.low, value):
            failures.append(
                f"{spec.model}{spec.params}: {e.method} log {value} < "
                f"truth log {truth.low}"
            )
    return failures


class TestCriterion1DominationSuite:
    """Every non-vacuous upper bound sits above the exact P(Z=0), and the
    independent product sits below it, across the full desk-scale matrix."""

    def test_associated_models_bracket_truth_under_two_minutes(self):
        started = time.perf_counter()
        failures: list[str] = []
        points = 0

        for n in (8, 12, 16, 20):
            for k in (2, 3, 4):
                if n < 2 * k:
                    continue
                for p in P_GRID:
                    spec = ModelSpec("runs", {"n": n, "k": k, "p": p})
                    failures += domination_failures(spec, reference_for(spec), check_lower=True)
                    points += 1

        for n in (6, 9, 12):
            for k in (2, 3):
                for p in P_GRID:
                    spec = ModelSpec("ustat", {"n": n, "k": k, "p": p})
                    failures += domination_failures(spec, reference_for(spec), check_lower=True)
                    points += 1

        for n in (4, 5, 6):
            for p in (0.1, 0.3, 0.5):
                spec = ModelSpec("triangles", {"n": n, "p": p})
                failures += domination_failures(spec, reference_for(spec), check_lower=True)
                points += 1

        elapsed = time.perf_counter() - started
        ok = not failures and elapsed < 120.0
        report(
            "criterion 1 (runs/ustat/triangles domination)",
            ok,
            f"{points} instances, {len(failures)} violations, {elapsed:.1f}s",
        )
        assert not failures, failures[:5]
        assert elapsed < 120.0

    def test_hypergraph_upper_bounds_dominate(self):
        started = time.perf_counter()
        failures: list[str] = []
        skipped_additive = 0
        points = 0
        for N in (4, 5, 6):
            for k in (2, 3):
                for n_draws in (4, 8, 16, 32, 64):
                    spec = ModelSpec(
                        "hypergraph-cover", {"N": N, "k": k, "n_draws": n_draws}
                    )
                    failures += domination_failures(spec, reference_for(spec), check_lower=False)
                    s = summary_for(spec)
                    if s.cov_sum < 0:
                        skipped_additive += 1
                    points += 1
        elapsed = time.perf_counter() - started
        report(
            "criterion 1 (hypergraph upper-bound domination)",
            not failures,
            f"{points} instances, additive bounds inapplicable at "
            f"{skipped_additive} (cov_sum < 0), {elapsed:.1f}s",
        )
        assert not failures, failures[:5]
        assert elapsed < 120.0

    def test_hypergraph_product_lower_bound_as_specified(self):
        """The product prod(1 - p_i) is a lower bound on P(Z=0) only under
        positive association, which the coverage family lacks.

        Checked in exact rationals: the product lies above the truth at 27
        of the 30 points, and validate() flags every one of them as not
        positively associated (cov_sum < 0).  At the three points with
        cov_sum > 0, (5,3,32), (5,3,64) and (6,3,64), it lies below.  So the
        product must be a lower bound wherever validate raises no flag.
        (At (4,3,64) the product exceeds the truth by about 1e-37, below
        double resolution, so 26 violations show here.)

        Counterexample: at N=4, k=2, n_draws=4, coverage is impossible (4
        single-edge draws cannot cover the 6 edges of K_4), yet the product
        (1 - (5/6)^4)^6 is about 1.926e-2.  Wherever n_draws * C(k,2) <
        C(N,2), coverage is impossible and the oracle must give exactly 0.
        """
        above = 0
        unflagged: list[str] = []
        not_zero: list[str] = []
        for N in (4, 5, 6):
            for k in (2, 3):
                for n_draws in (4, 8, 16, 32, 64):
                    spec = ModelSpec(
                        "hypergraph-cover", {"N": N, "k": k, "n_draws": n_draws}
                    )
                    s = summary_for(spec)
                    truth = cover_all_exact(N, k, n_draws).log_value
                    lower = independent_lower(s).value.log_value
                    point = f"N={N} k={k} n_draws={n_draws}"
                    if log_exceeds(lower, truth):
                        above += 1
                        if not any(
                            "not positively associated" in v for v in validate(s)
                        ):
                            unflagged.append(
                                f"{point}: product log {lower!r} > truth log "
                                f"{truth!r}, cov_sum {s.cov_sum!r}"
                            )
                    if n_draws * comb(k, 2) < comb(N, 2) and truth != NEG_INF:
                        not_zero.append(f"{point}: truth log {truth!r}")

        counter_truth = cover_all_exact(4, 2, 4).log_value
        counter_product = independent_lower(
            summary_for(ModelSpec("hypergraph-cover", {"N": 4, "k": 2, "n_draws": 4}))
        ).value.log_value
        counter_exact = 6 * math.log(1 - Fraction(5, 6) ** 4)
        counter_ok = counter_truth == NEG_INF and math.isclose(
            counter_product, counter_exact, rel_tol=LOG_RTOL
        )

        ok = not unflagged and not not_zero and counter_ok
        report(
            "criterion 1 (hypergraph product lower bound)",
            ok,
            f"product above truth at {above} of 30 points, "
            f"{len(unflagged)} of them not flagged by validate; "
            f"(4,2,4): truth {math.exp(counter_truth):.0f}, "
            f"product {math.exp(counter_product):.4g}",
        )
        assert not unflagged, (
            "the product exceeds the truth where validate finds positive "
            "association: " + "; ".join(unflagged)
        )
        assert not not_zero, "impossible coverage with nonzero oracle: " + "; ".join(
            not_zero
        )
        assert counter_ok, (
            f"N=4 k=2 n_draws=4: truth log {counter_truth!r}, product log "
            f"{counter_product!r}, expected {counter_exact!r}"
        )


class TestCriterion2OracleCrossValidation:
    def test_runs_transfer_matrix_equals_brute_force(self):
        worst = 0.0
        for n in range(1, 21):
            masks = np.arange(1 << n, dtype=np.int64)
            full = (1 << n) - 1
            pops = np.bitwise_count(masks.astype(np.uint64)).astype(np.int64)
            acc = masks.copy()
            for k in range(1, n + 1):
                if k > 1:
                    d = k - 1
                    acc &= ((masks >> d) | (masks << (n - d))) & full
                counts = np.bincount(pops[acc == 0], minlength=n + 1)
                for p in (0.1, 0.3, 0.5, 0.9):
                    brute = math.fsum(
                        int(c) * p**m * (1.0 - p) ** (n - m)
                        for m, c in enumerate(counts)
                        if c
                    )
                    exact = runs_zero_exact(n, k, p).linear
                    err = abs(exact - brute) / max(brute, 1e-300)
                    worst = max(worst, err)
        ok = worst < 1e-12
        report("criterion 2 (runs oracle)", ok, f"max rel err {worst:.2e}")
        assert ok

    def test_ustat_tail_equals_enumeration(self):
        worst = 0.0
        for n in range(1, 13):
            masks = np.arange(1 << n, dtype=np.int64)
            pops = np.bitwise_count(masks.astype(np.uint64)).astype(np.int64)
            for k in range(1, n + 1):
                counts = np.bincount(pops[pops <= k - 1], minlength=n + 1)
                for p in (0.1, 0.3, 0.5, 0.9):
                    brute = math.fsum(
                        int(c) * p**m * (1.0 - p) ** (n - m)
                        for m, c in enumerate(counts)
                        if c
                    )
                    exact = ustat_zero_exact(n, k, p).linear
                    worst = max(worst, abs(exact - brute) / max(brute, 1e-300))
        ok = worst < 1e-12
        report("criterion 2 (ustat oracle)", ok, f"max rel err {worst:.2e}")
        assert ok

    def test_cover_closed_form_three_vertices(self):
        # the closed form is exactly 0 at n <= 2, where only the absolute
        # float residual of the alternating sum remains
        ok = True
        worst = 0.0
        for n in range(1, 31):
            expected = 1.0 - 3.0 * (2.0 / 3.0) ** n + 3.0 * (1.0 / 3.0) ** n
            got = cover_all_exact(3, 2, n).linear
            err = abs(got - expected)
            ok = ok and err <= 1e-10 * abs(expected) + 1e-12
            worst = max(worst, err / max(abs(expected), 1.0))
        report("criterion 2 (coverage oracle)", ok, f"max scaled err {worst:.2e}")
        assert ok

    def test_triangle_free_four_vertices(self):
        got = triangle_free_exact(4, 0.5).linear
        ok = abs(got - 41.0 / 64.0) < 1e-14
        report("criterion 2 (triangle oracle)", ok, f"value {got}")
        assert ok


class TestCriterion3TiltedBoundIdentity:
    def test_general_and_iid_forms_agree(self):
        rng = np.random.default_rng(20250811)
        worst = 0.0
        for _ in range(1000):
            p = float(rng.uniform(0.001, 0.99))
            count = int(rng.integers(1, 2000))
            cov = float(rng.uniform(0.0, 5.0))
            delta = cov * (1.0 + float(rng.uniform(0.0, 1.0))) + 1e-9
            t = math.exp(float(rng.uniform(math.log(1e-3), math.log(50.0))))
            s = FamilySummary(count=count, means=(p,), delta=delta, cov_sum=cov)
            a = lv_general(s, t).value.log_value
            b = lv_iid(s, t).value.log_value
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-300))
        ok = worst <= 1e-12
        report("criterion 3 (tilted-bound identity)", ok, f"max rel err {worst:.2e}")
        assert ok


class TestCriterion4MgfGapLemma:
    def test_thousand_random_monotone_laws(self):
        rng = np.random.default_rng(42424242)
        violations = 0
        checked = 0
        for _ in range(1000):
            m = int(rng.integers(2, 9))
            joint = random_monotone_joint(m, 8, rng)
            for t in (0.1, 0.5, 1.0, 2.0):
                gap, bound, holds = mgf_gap_check(joint, t)
                checked += 1
                if not holds:
                    violations += 1
        ok = violations == 0
        report("criterion 4 (MGF gap lemma)", ok, f"{checked} checks, {violations} violations")
        assert ok


class TestCriterion5RunsRegime:
    def test_large_n_correction_factor_cap(self):
        n, k = 10_000, 3
        p = 0.5 * n ** (-1.0 / 3.0)
        s = runs_summary(n, k, p, FIRST_PRINCIPLES)
        opt = lv_optimal(s)
        product_log = independent_lower(s).value.log_value
        ratio = math.exp(opt.value.log_value - product_log)
        cap = math.exp(n * p**k / (1.0 - p**k))
        ok = ratio <= cap + TOL
        report(
            "criterion 5 (large-n correction cap)",
            ok,
            f"ratio {ratio:.6f} <= cap {cap:.6f} at t*={opt.t:.3f}",
        )
        assert ok

    def test_poisson_band_contains_exact_value(self):
        k = 3
        worst_slack = math.inf
        for n in range(k, 21):
            for p in P_GRID:
                center, radius = runs_poisson_band(n, k, p)
                exact = runs_zero_exact(n, k, p).linear
                slack = radius - abs(exact - center)
                worst_slack = min(worst_slack, slack)
        ok = worst_slack >= 0.0
        report("criterion 5 (Poisson band)", ok, f"min slack {worst_slack:.3e}")
        assert ok


# the bounds that require cov_sum >= 0; evaluate_all emits lv-general only
# at an explicit t
ADDITIVE_METHODS = {"boutsikas-koutras", "lv-general", "lv-iid", "lv-optimal"}


def _boppona_spencer_reference(N: int, k: int):
    """n_draws -> log boppona-spencer for the coverage family on K_N.

    Per-draw avoidance probabilities are counted by enumerating the
    k-subsets, for one edge and for every unordered pair of edges, and
    raised to n_draws in exact rationals; no library formula is used.
    """
    draws = list(combinations(range(N), k))
    edges = list(combinations(range(N), 2))

    def avoiding(*es) -> Fraction:
        hits = sum(not any(u in w and v in w for u, v in es) for w in draws)
        return Fraction(hits, len(draws))

    (a,) = {avoiding(e) for e in edges}  # the same for every edge
    pairs = Counter(avoiding(e, f) for e, f in combinations(edges, 2))

    def log_value(n_draws: int) -> float:
        p = a**n_draws
        delta = sum(count * b**n_draws for b, count in pairs.items())
        return float(delta / (1 - p)) + len(edges) * math.log1p(-float(p))

    return log_value


class TestCriterion6HypergraphDeskScale:
    N, K, N_DRAWS = 10, 3, 200  # n_draws = 2 * N^2

    def _summary(self):
        return hypergraph_summary(self.N, self.K, self.N_DRAWS)

    def test_optimized_bound_tight_against_product(self):
        s = self._summary()
        assert s.cov_sum > 0
        opt = lv_optimal(s)
        product_log = independent_lower(s).value.log_value
        lam = self.N_DRAWS / self.N**2
        correction = math.exp(-6.0 * lam) / (1.0 - math.exp(-6.0 * lam))
        cap = math.exp(s.count * correction)
        ratio = math.exp(opt.value.log_value - product_log)
        ok = opt.value.log_value < 0.0 and ratio <= cap + TOL
        report(
            "criterion 6 (optimized bound tightness)",
            ok,
            f"bound {opt.value.linear:.8f} < 1, ratio-to-product {ratio:.2e} "
            f"<= cap {cap:.8f}",
        )
        assert opt.value.log_value < 0.0
        assert ratio <= cap + TOL

    def test_tiny_t_overrides_reach_subnormal_scale(self):
        s = self._summary()
        linear_form = lv_general(s, 1e-300)
        log_form = lv_general(s, log_t=-800.0)
        assert linear_form.value.log_value < 0.0
        assert math.isfinite(log_form.value.log_value)
        report(
            "criterion 6 (t-override depth)",
            True,
            f"t=1e-300 gives log {linear_form.value.log_value:.3e}",
        )

    def test_monte_carlo_brackets_truth(self):
        s = self._summary()
        spec = ModelSpec(
            "hypergraph-cover", {"N": self.N, "k": self.K, "n_draws": self.N_DRAWS}
        )
        est = monte_carlo(spec, 1_000_000, seed=DEFAULT_SEED, level=0.99)
        product = independent_lower(s).value.linear
        opt = lv_optimal(s).value.linear
        ok = product <= est.ci.upper + TOL and opt >= est.ci.lower - TOL
        report(
            "criterion 6 (Monte Carlo bracket)",
            ok,
            f"product {product:.8f} <= ci_up {est.ci.upper:.8f}; "
            f"bound {opt:.8f} >= ci_lo {est.ci.lower:.8f} "
            f"({est.successes}/{est.trials})",
        )
        assert ok
        # the Philox stream contract, pinned across commits (test_models
        # pins smaller counts at two workers and small batches)
        assert est.successes == 999_960

    def test_boppona_spencer_vacuous_as_specified(self):
        """At N=10, k=3, n_draws=2N^2 the multiplicative bound is NOT vacuous.

        Its log value delta/(1-p) + 45 log(1-p), with p = (14/15)^200 and
        delta = 360 (7/8)^200 + 630 (13/15)^200, is -4.5767503488149e-05.
        At N=10, k=3 the bound is vacuous exactly for n_draws <= 44, where
        the covariance sum is negative (it is for n_draws <= 147) and the
        additive bounds do not apply.  Both are checked against a reference
        built from exact per-draw avoidance probabilities.
        """
        reference = _boppona_spencer_reference(self.N, self.K)
        bs = boppona_spencer(self._summary())
        expected = reference(self.N_DRAWS)
        close = math.isclose(bs.value.log_value, expected, rel_tol=LOG_RTOL)

        mismatched: list[str] = []
        vacuous_at: list[int] = []
        for n_draws in range(1, self.N_DRAWS + 1):
            s = hypergraph_summary(self.N, self.K, n_draws)
            b = boppona_spencer(s)
            ref = reference(n_draws)
            if b.vacuous != (ref >= 0.0):
                mismatched.append(
                    f"n_draws={n_draws}: vacuous={b.vacuous}, log value "
                    f"{b.value.log_value!r}, reference {ref!r}"
                )
            if not b.vacuous:
                continue
            vacuous_at.append(n_draws)
            skipped = {
                e.method for e in evaluate_all(s, t=1.0) if isinstance(e, SkippedBound)
            }
            if s.cov_sum >= 0 or not ADDITIVE_METHODS <= skipped:
                mismatched.append(
                    f"n_draws={n_draws}: vacuous with cov_sum {s.cov_sum!r}, "
                    f"skipped bounds {sorted(skipped)}"
                )

        ok = close and not bs.vacuous and not mismatched
        report(
            "criterion 6 (multiplicative bound vacuity)",
            ok,
            f"log value {bs.value.log_value:.6e} at n_draws={self.N_DRAWS} "
            f"(reference {expected:.6e}); vacuous only at n_draws <= "
            f"{max(vacuous_at, default=0)}, all with cov_sum < 0",
        )
        assert close, (bs.value.log_value, expected)
        assert not bs.vacuous
        assert not mismatched, mismatched[:5]


class TestCriterion7CovarianceAsymptotics:
    def test_sharing_pair_covariance_matches_expansion(self):
        k = 3
        ratios = []
        for N in (20, 40, 80):
            n_draws = 2 * N * N
            p = hypergraph_edge_prob(N, k, n_draws).linear
            q_share, _ = hypergraph_joint_probs(N, k, n_draws)
            cov_pair = q_share.linear - p * p
            # the expansion n(k^3-3k^2+2k)/N^3 is per sharing pair with the
            # order-one factor p^2 normalized out
            predicted = p * p * n_draws * 6.0 / N**3
            ratios.append(cov_pair / predicted)
        distances = [abs(r - 1.0) for r in ratios]
        ok = 0.7 <= ratios[-1] <= 1.3 and distances[0] > distances[1] > distances[2]
        report(
            "criterion 7 (covariance asymptotics)",
            ok,
            "ratios " + ", ".join(f"{r:.4f}" for r in ratios),
        )
        assert 0.7 <= ratios[-1] <= 1.3
        assert distances[0] > distances[1] > distances[2]


class TestCriterion8Determinism:
    def test_library_worker_invariance(self):
        spec = ModelSpec("runs", {"n": 50, "k": 3, "p": 0.3})
        results = {
            w: monte_carlo(spec, 50_000, seed=DEFAULT_SEED, workers=w)
            for w in (1, 4, 8)
        }
        ok = results[1] == results[4] == results[8]
        report(
            "criterion 8 (worker invariance)",
            ok,
            f"successes {results[1].successes} across workers 1/4/8",
        )
        assert ok

    def test_cli_output_byte_identical(self):
        argv = [
            sys.executable, "-m", "assocbounds.cli", "mc",
            "--model", "runs", "--n", "50", "--k", "3", "--p", "0.3",
            "--trials", "50000",
        ]
        outs = []
        for workers in ("1", "4", "8", "1"):
            proc = subprocess.run(
                argv + ["--workers", workers], capture_output=True, text=True
            )
            assert proc.returncode == 0
            outs.append(proc.stdout)
        ok = len(set(outs)) == 1
        report("criterion 8 (CLI byte determinism)", ok, f"{len(outs)} runs identical")
        assert ok
        assert json.loads(outs[0])["seed"] == DEFAULT_SEED


class TestCriterion9Throughput:
    def test_runs_model_throughput_floor(self):
        spec = ModelSpec("runs", {"n": 100, "k": 3, "p": 0.3})
        monte_carlo(spec, 10_000, seed=1)  # warm caches before timing
        trials = 300_000
        started = time.perf_counter()
        monte_carlo(spec, trials, seed=DEFAULT_SEED)
        elapsed = time.perf_counter() - started
        rate = trials / elapsed
        ok = rate >= 1e5
        report("criterion 9 (throughput)", ok, f"{rate:,.0f} trials/s")
        assert ok, f"throughput {rate:,.0f} trials/s below the 1e5 floor"
