"""Exact oracles vs brute force, the MGF gap lemma, and the MC driver."""

from __future__ import annotations

import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from assocbounds import oracles
from assocbounds.family import ModelSpec
from assocbounds.models import (
    _avoid_histogram,
    cover_all_exact,
    runs_zero_exact,
    triangle_free_exact,
    trial_budget,
    trial_uniforms,
    ustat_zero_exact,
)
from assocbounds.numerics import clopper_pearson
from assocbounds.oracles import (
    MAX_WORKERS,
    EstimateWithCI,
    mgf_gap_check,
    monte_carlo,
    oracle_for,
    random_monotone_joint,
    reference_for,
)

from conftest import (
    brute_runs_zero,
    brute_ustat_zero,
    circular_runs,
    enum_hypergraph_cover_prob,
    triangle_free_counts,
)


class TestRunsZeroExact:
    def test_three_circular_strings(self):
        # of the 8 strings of length 3, exactly {000,100,010,001} avoid a
        # circular 2-run
        assert runs_zero_exact(3, 2, 0.5).linear == pytest.approx(0.5, rel=1e-14)

    def test_lucas_count_at_half(self):
        # circular strings avoiding "11" are counted by Lucas numbers
        assert runs_zero_exact(10, 2, 0.5).linear == pytest.approx(
            123 / 1024, rel=1e-13
        )

    def test_degenerate_probabilities(self):
        assert runs_zero_exact(8, 3, 0.0).linear == 1.0
        assert runs_zero_exact(8, 3, 1.0).linear == 0.0

    def test_circular_needs_wraparound(self):
        with pytest.raises(ValueError, match="n >= k"):
            runs_zero_exact(3, 5, 0.9)

    @pytest.mark.parametrize("n,k", [(5, 2), (9, 3), (12, 2), (13, 5), (16, 4)])
    # "True-" (circular) leads the ids, the names these cases are known by
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9], ids=lambda p: f"True-{p}")
    def test_matches_brute_force(self, n, k, p):
        exact = runs_zero_exact(n, k, p).linear
        brute = brute_runs_zero(n, k, p)
        assert exact == pytest.approx(brute, rel=1e-12)

    def test_k_one_counts_all_zero_strings(self):
        assert runs_zero_exact(7, 1, 0.3).linear == pytest.approx(0.7**7, rel=1e-12)

    @pytest.mark.parametrize("n,k,p", [(10, 5, 0.01), (14, 2, 1e-5), (12, 3, 1e-3)])
    def test_log_accurate_near_one(self, n, k, p):
        # 1 - P(some run) by an exhaustive count of the strings holding a run
        has_run, ones = circular_runs(n, k)
        counts = np.bincount(ones[has_run], minlength=n + 1)
        with mpmath.workdps(60):
            q = mpmath.mpf(p)
            run = mpmath.fsum(int(c) * q**m * (1 - q) ** (n - m) for m, c in enumerate(counts))
            truth = float(mpmath.log1p(-run))
        assert runs_zero_exact(n, k, p).log_value == pytest.approx(truth, rel=1e-14, abs=0.0)

    def test_log_below_the_double_range(self):
        # 0.1^400: the linear value underflows, its log must not
        with mpmath.workdps(40):
            truth = float(400 * mpmath.log(1 - mpmath.mpf(0.9)))
        assert runs_zero_exact(400, 1, 0.9).log_value == pytest.approx(truth, rel=1e-12)
        # the dominant eigenvalue's share: the log grows linearly in n
        at_1e6 = runs_zero_exact(10**6, 10, 0.5).log_value
        assert at_1e6 == pytest.approx(-490.804, rel=1e-5)
        assert runs_zero_exact(10**7, 10, 0.5).log_value == pytest.approx(
            10 * at_1e6, rel=1e-9
        )

    @pytest.mark.parametrize("n", [10**12, 10**100, 10**308], ids=["1e12", "1e100", "1e308"])
    def test_log_at_astronomical_n(self, n):
        # trace(M^n) is rho^n to double precision, rho the largest root of
        # x^3 = x^2/2 + x/4 + 1/8; the rescaled squares must not overflow
        with mpmath.workdps(40):
            rho = max(mpmath.polyroots([1, -0.5, -0.25, -0.125]), key=mpmath.re)
            truth = float(n * mpmath.log(mpmath.re(rho)))
        assert runs_zero_exact(n, 3, 0.5).log_value == pytest.approx(truth, rel=1e-12)


class TestUstatZeroExact:
    def test_k_one_is_no_successes(self):
        assert ustat_zero_exact(9, 1, 0.2).linear == pytest.approx(0.8**9, rel=1e-12)

    def test_frozen_binomial_tail(self):
        assert ustat_zero_exact(10, 2, 0.1).linear == pytest.approx(
            0.7360989291, rel=1e-10
        )

    def test_certain_success(self):
        assert ustat_zero_exact(6, 3, 1.0).linear == 0.0

    def test_no_success_is_log_zero_exactly(self):
        assert ustat_zero_exact(6, 3, 0.0).log_value == 0.0

    @pytest.mark.parametrize(
        "n,k,p",
        [
            (4, 4, 0.01),
            (60, 60, 0.3),
            (24, 3, 0.02),
            (200, 2, 1e-6),
            (2000, 3, 1e-4),
            # the lower tail, through ln C(n, j) summed over 1500 ratios
            (3000, 1500, 0.5),
        ],
    )
    def test_log_accurate_near_one(self, n, k, p):
        with mpmath.workdps(60):
            q = mpmath.mpf(p)
            pmf = [mpmath.binomial(n, j) * q**j * (1 - q) ** (n - j) for j in range(n + 1)]
            lower = mpmath.fsum(pmf[:k])
            # the smaller tail carries the digits
            if lower <= 0.5:
                truth = float(mpmath.log(lower))
            else:
                truth = float(mpmath.log1p(-mpmath.fsum(pmf[k:])))
        value = ustat_zero_exact(n, k, p).log_value
        assert value < 0.0
        assert value == pytest.approx(truth, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n,k", [(8, 2), (11, 4), (12, 6)])
    @pytest.mark.parametrize("p", [0.15, 0.5, 0.85])
    def test_matches_enumeration(self, n, k, p):
        assert ustat_zero_exact(n, k, p).linear == pytest.approx(
            brute_ustat_zero(n, k, p), rel=1e-12
        )


def exact_log(v: Fraction) -> float:
    """ln v for a rational 0 < v <= 1.  Above 1/2 it is log1p of the exact
    deficit, whose digits a log of v itself would lose; below, v is scaled by
    a power of two into [1/2, 2), so it may lie below the double range."""
    if 2 * v > 1:
        return math.log1p(-float(1 - v))
    e = v.numerator.bit_length() - v.denominator.bit_length()
    return math.log(float(v / Fraction(2) ** e)) + e * math.log(2.0)


def runs_zero_rational(n: int, k: int, p: float) -> Fraction:
    """trace(M^n) in integers, M the run-free transfer matrix of the trailing
    count of ones (0 .. k-1) times the denominator d of p = a/d exactly."""
    a, d = p.as_integer_ratio()
    m = [[d - a if j == 0 else a if j == s + 1 else 0 for j in range(k)] for s in range(k)]
    power = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(n):
        power = [[sum(row[x] * m[x][j] for x in range(k)) for j in range(k)] for row in power]
    return Fraction(sum(power[i][i] for i in range(k)), d**n)


def binomial_lower_tail_rational(n: int, k: int, p: float) -> Fraction:
    """P(Binomial(n, p) <= k - 1), exactly, with p = a/d."""
    a, d = p.as_integer_ratio()
    return Fraction(sum(math.comb(n, j) * a**j * (d - a) ** (n - j) for j in range(k)), d**n)


class TestExactRationalReference:
    """The two float oracles against their exact rationals, the value near
    one and far below it included; logs agree to relative 1e-13."""

    GRID = [
        (n, k, p)
        for n in (5, 20, 100)
        for k in (1, 2, 3, 5)
        for p in (1e-12, 1e-3, 0.3, 0.5, 0.9, 1 - 1e-9)
        if k <= n
    ]

    @pytest.mark.parametrize(
        "oracle,reference",
        [(runs_zero_exact, runs_zero_rational), (ustat_zero_exact, binomial_lower_tail_rational)],
        ids=["runs", "ustat"],
    )
    def test_log_matches_the_exact_rational(self, oracle, reference):
        far = []
        for n, k, p in self.GRID:
            truth = exact_log(reference(n, k, p))
            got = oracle(n, k, p).log_value
            if not abs(got - truth) <= 1e-13 * abs(truth):
                far.append((n, k, p, got, truth))
        assert not far

    def test_reference_log_keeps_the_deficit(self):
        # 1 - 5e-60: a log of the rounded value would read 0
        v = 1 - Fraction(5, 10**60)
        assert exact_log(v) == pytest.approx(-5e-60, rel=1e-15)
        assert exact_log(Fraction(1, 2**3000)) == pytest.approx(-3000 * math.log(2.0), rel=1e-15)


class TestTriangleFreeExact:
    def test_single_triangle_closed_form(self):
        for p in (0.0, 0.25, 0.8, 1.0):
            assert triangle_free_exact(3, p).linear == pytest.approx(
                1.0 - p**3, rel=1e-13, abs=1e-15
            )

    def test_four_vertices_at_half(self):
        # 41 of the 64 labeled graphs on 4 vertices are triangle-free
        assert triangle_free_exact(4, 0.5).linear == pytest.approx(41 / 64, rel=1e-14)

    def test_p_zero(self):
        assert triangle_free_exact(6, 0.0).linear == 1.0

    @pytest.mark.parametrize("p", [0.0, 1e-12, 1e-4, 0.01, 0.5, 0.9, 1 - 1e-9, 1.0])
    @pytest.mark.parametrize("n", range(3, 8))
    def test_log_of_the_exact_rational(self, n, p):
        # the double p is a rational, so P is the rational sum over counts
        # from an independent enumeration; near one its log is log1p of the
        # exact deficit, which a float sum would keep only absolutely.  The
        # ends are exact: log 0 at p = 0, -inf at p = 1
        q = Fraction(p)
        n_edges = math.comb(n, 2)
        truth = sum(c * q**m * (1 - q) ** (n_edges - m)
                    for m, c in enumerate(triangle_free_counts(n)))
        with mpmath.workdps(60):
            if truth > Fraction(1, 2):
                deficit = truth - 1
                ref = mpmath.log1p(mpmath.mpf(deficit.numerator) / deficit.denominator)
            else:
                ref = mpmath.log(mpmath.mpf(truth.numerator) / truth.denominator)
        got = triangle_free_exact(n, p).log_value
        assert got == pytest.approx(float(ref), rel=1e-12, abs=0.0)

    def test_size_limits(self):
        with pytest.raises(ValueError):
            triangle_free_exact(8, 0.5)
        with pytest.raises(ValueError):
            triangle_free_exact(2, 0.5)


class TestAvoidHistogram:
    @pytest.mark.parametrize("n,free", [(3, 7), (4, 41), (5, 388), (6, 5789),
                                        (7, 133501)])
    def test_triangle_free_graph_counts(self, n, free):
        # OEIS A006785: no triangle avoids the complement of a triangle-free
        # edge set, and column 0 counts those complements
        hist = _avoid_histogram(n, 3)
        assert int(hist[:, 0].sum()) == free
        assert hist[::-1, 0].tolist() == list(triangle_free_counts(n))

    @pytest.mark.parametrize("N,k", [(N, k) for N in range(2, 8) for k in range(2, N + 1)])
    def test_rows_count_the_edge_subsets(self, N, k):
        hist = _avoid_histogram(N, k)
        n_edges = math.comb(N, 2)
        assert hist.shape == (n_edges + 1, math.comb(N, k) + 1)
        assert hist.sum(axis=1).tolist() == [math.comb(n_edges, m) for m in range(n_edges + 1)]
        assert int(hist.sum()) == 2**n_edges
        assert hist[0, -1] == 1  # every clique avoids the empty set


class TestCoverAllExact:
    def test_single_draw_covers_complete_graph(self):
        assert cover_all_exact(4, 4, 1).linear == 1.0

    def test_three_coupon_closed_form(self):
        for n in range(1, 31):
            expected = 1.0 - 3.0 * (2 / 3) ** n + 3.0 * (1 / 3) ** n
            assert cover_all_exact(3, 2, n).linear == pytest.approx(
                expected, rel=1e-10, abs=1e-12
            )

    def test_too_few_draws_is_zero(self):
        # 9 single-edge draws cannot cover the 10 edges of K_5
        assert cover_all_exact(5, 2, 9).linear <= 1e-12

    def test_nondecreasing_in_draws(self):
        values = [cover_all_exact(5, 3, n).linear for n in range(1, 40)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("N,k,n_draws", [(4, 2, 4), (4, 3, 3), (5, 3, 4)])
    def test_matches_sequence_enumeration(self, N, k, n_draws):
        expected = enum_hypergraph_cover_prob(N, k, n_draws)
        assert cover_all_exact(N, k, n_draws).linear == pytest.approx(
            expected, rel=1e-10, abs=1e-12
        )

    @pytest.mark.parametrize(
        "N,k,n_draws", [(4, 2, 4), (5, 2, 4), (5, 2, 8), (6, 3, 4), (7, 6, 2)]
    )
    def test_impossible_coverage_is_exactly_zero(self, N, k, n_draws):
        # the first four have n_draws * C(k,2) < C(N,2) edge slots; for
        # (7,6,2) see test_largest_supported_graph
        assert cover_all_exact(N, k, n_draws).log_value == float("-inf")

    def test_log_accurate_near_one(self):
        # a K_3 draw of K_4 omits one vertex, and every edge is covered iff
        # at least 3 distinct vertices are omitted:
        # P = 1 - (C(4,2) (2^n - 2) + 4) / 4^n
        for n in range(3, 120):
            missing = math.comb(4, 2) * (2**n - 2) + 4
            expected = math.log1p(-missing / 4**n)
            got = cover_all_exact(4, 3, n).log_value
            assert got == pytest.approx(expected, rel=1e-12, abs=0.0), n

    @staticmethod
    def integer_sum(N, k, n_draws):
        """ln P near one as the full alternating sum in integers, correctly rounded."""
        hist = _avoid_histogram(N, k)
        signed = ((-1) ** np.arange(len(hist)) @ hist).tolist()
        covering = sum(c * a**n_draws for a, c in enumerate(signed) if a and c)
        return math.log1p(float(Fraction(covering - math.comb(N, k) ** n_draws,
                                         math.comb(N, k) ** n_draws)))

    @pytest.mark.parametrize("N,k", [(N, k) for N in range(2, 8) for k in range(2, N + 1)])
    def test_large_draws_match_the_integer_sum(self, N, k):
        # on both sides of the first n_draws at which sum_{0<a<C} |c_a|
        # (a*/C)^n_draws < e^-746 lets the sum be skipped, and where the
        # answer is -0.0; at k = N every draw covers, and it stays +0.0
        hist = _avoid_histogram(N, k)
        signed = ((-1) ** np.arange(len(hist)) @ hist).tolist()
        inner = [(a, abs(c)) for a, c in enumerate(signed[:-1]) if a and c]
        draws = {1, 10, 1000}  # k = N
        if inner:
            first = (746 + math.log(sum(c for _, c in inner))) / -math.log(
                inner[-1][0] / math.comb(N, k)
            )
            draws = {int(first) + d for d in range(-3, 4)} | {int(1.5 * first)}
        for n in sorted(draws):
            assert repr(cover_all_exact(N, k, n).log_value) == repr(self.integer_sum(N, k, n)), n

    def test_deficit_below_rounding_is_minus_zero(self):
        # the integer sum would take about 10 s here, on 2.3e7-bit integers
        assert repr(cover_all_exact(7, 3, 10**6).log_value) == "-0.0"
        assert repr(cover_all_exact(5, 5, 10**6).log_value) == "0.0"

    def test_size_limit(self):
        with pytest.raises(ValueError):
            cover_all_exact(8, 3, 10)

    def test_largest_supported_graph(self):
        # two K_6 draws always leave some K_7 edge uncovered: distinct draws
        # miss the edge between their two excluded vertices, identical ones
        # miss every edge at the excluded vertex
        assert cover_all_exact(7, 6, 2).linear <= 1e-9
        assert cover_all_exact(7, 6, 12).linear > 0.5


class TestOracleDispatch:
    def test_per_model_routing(self):
        assert oracle_for(ModelSpec("runs", {"n": 6, "k": 2, "p": 0.5})) is not None
        assert oracle_for(ModelSpec("ustat", {"n": 6, "k": 2, "p": 0.5})) is not None
        assert oracle_for(ModelSpec("triangles", {"n": 10, "p": 0.1})) is None
        assert (
            oracle_for(ModelSpec("hypergraph-cover", {"N": 9, "k": 3, "n_draws": 5}))
            is None
        )


class TestReferenceFor:
    EXACT = ModelSpec("runs", {"n": 10, "k": 2, "p": 0.5})
    NO_ORACLE = ModelSpec("triangles", {"n": 9, "p": 0.9})

    def test_exact_spec_gives_the_oracle_point(self):
        oracle = oracle_for(self.EXACT)
        low, high, fields = reference_for(self.EXACT)
        assert low == high == oracle.log_value
        assert fields == {"kind": "oracle", "value": oracle.linear}

    @pytest.mark.usefixtures("no_trials")
    def test_trials_at_an_exact_size_draw_none(self):
        assert reference_for(self.EXACT, trials=20000) == reference_for(self.EXACT)

    def test_no_successes_give_a_lower_end_of_minus_infinity(self):
        # at p = 0.9 no trial of 200 is triangle-free
        low, high, fields = reference_for(self.NO_ORACLE, trials=200)
        assert fields["kind"] == "monte-carlo" and fields["ci_lower"] == 0.0
        assert low == -math.inf and high == math.log(fields["ci_upper"]) < 0.0

    def test_no_oracle_and_no_trials_refused(self):
        with pytest.raises(ValueError, match="rerun with --mc and --trials"):
            reference_for(self.NO_ORACLE)


class TestMgfGapCheck:
    def test_independent_pair_has_zero_gap(self):
        # product law of two Bernoulli(0.4): covariance vanishes
        p = 0.4
        joint = np.array(
            [(1 - p) * (1 - p), p * (1 - p), (1 - p) * p, p * p]
        )
        gap, bound, holds = mgf_gap_check(joint, 1.0)
        assert gap == pytest.approx(0.0, abs=1e-12)
        assert bound == pytest.approx(0.0, abs=1e-12)
        assert holds

    def test_comonotone_pair_frozen_values(self):
        # X1 = X2 ~ Bernoulli(0.3) at t=1:
        #   gap   = (0.7 + 0.3 e^2) - (0.7 + 0.3 e)^2
        #   bound = e^2 * Cov = e^2 * 0.21
        joint = np.array([0.7, 0.0, 0.0, 0.3])
        gap, bound, holds = mgf_gap_check(joint, 1.0)
        assert gap == pytest.approx(0.6200234128226375, rel=1e-12)
        assert bound == pytest.approx(1.5517017807754365, rel=1e-12)
        assert holds

    def test_runs_window_indicators_joint_law(self):
        # joint law of the 6 circular 2-run window indicators over all 2^6
        # fair strings; monotone functions of independent bits, so the gap
        # bound must hold
        n, k = 6, 2
        joint = np.zeros(1 << n)
        for mask in range(1 << n):
            bits = [(mask >> i) & 1 for i in range(n)]
            idx = 0
            for i in range(n):
                if all(bits[(i + j) % n] for j in range(k)):
                    idx |= 1 << i
            joint[idx] += 1.0 / (1 << n)
        gap, bound, holds = mgf_gap_check(joint, 0.5)
        assert holds
        assert bound > gap >= 0.0

    @pytest.mark.parametrize("n_vars,n_bits", [(17, 8), (4, 13), (0, 8), (4, 0)])
    def test_random_law_size_outside_the_range_rejected(self, n_vars, n_bits):
        with pytest.raises(ValueError, match="need 1 <= n_vars <= 16 and 1 <= n_bits <= 12"):
            random_monotone_joint(n_vars, n_bits, np.random.default_rng(0))

    def test_non_normalized_law_rejected(self):
        with pytest.raises(ValueError, match="summing to 1"):
            mgf_gap_check(np.array([0.5, 0.2, 0.1, 0.1]), 1.0)

    def test_bad_atom_count_rejected(self):
        with pytest.raises(ValueError):
            mgf_gap_check(np.array([0.5, 0.25, 0.25]), 1.0)

    # e^{m t} overflows past m t = ln(DBL_MAX), about 709.78
    @pytest.mark.parametrize("m,t", [(4, 178.0), (10, 71.0), (1, 709.8), (2, math.inf)])
    def test_t_beyond_the_double_range_rejected(self, m, t):
        joint = np.full(1 << m, 1.0 / (1 << m))
        with pytest.raises(ValueError, match=r"m\*t must be at most ln\(DBL_MAX\)"):
            mgf_gap_check(joint, t)

    def test_t_read_as_a_float(self):
        # as the readers read every number a caller passes: True ran as
        # t = 1, and "0.5" raised a bare TypeError
        joint = np.array([0.6, 0.1, 0.1, 0.2])
        assert mgf_gap_check(joint, "0.5") == mgf_gap_check(joint, 0.5)
        with pytest.raises(ValueError, match=r"^t must be a number, got True$"):
            mgf_gap_check(joint, True)

    def test_t_just_inside_the_double_range_computes(self):
        gap, bound, holds = mgf_gap_check(np.array([0.7, 0.0, 0.0, 0.3]), 354.0)
        assert math.isfinite(gap) and holds and bound == math.inf

    # one variable: gap 0 up to rounding relative to E e^{tX}, covariance 0;
    # at t = 700 the bound t^2 e^{700} * 0 must read 0, not inf * 0 = NaN
    @pytest.mark.parametrize("t", [40.0, 700.0])
    def test_single_variable_holds_at_large_t(self, t):
        gap, bound, holds = mgf_gap_check(np.array([0.7, 0.3]), t)
        assert holds and bound == 0.0

    # X2 = 1 - X1: covariance -1/4, so the bound is negative and the gap is not
    @pytest.mark.parametrize("t", [1.0, 40.0, 300.0])
    def test_negative_covariance_fails(self, t):
        gap, bound, holds = mgf_gap_check(np.array([0.0, 0.5, 0.5, 0.0]), t)
        assert bound < 0.0 < gap and not holds

    def test_random_monotone_laws_satisfy_bound(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            m = int(rng.integers(2, 7))
            joint = random_monotone_joint(m, 8, rng)
            gap, bound, holds = mgf_gap_check(joint, float(rng.uniform(0.1, 2.0)))
            assert holds, (gap, bound)


class TestMonteCarlo:
    def test_certain_zero_event(self):
        spec = ModelSpec("ustat", {"n": 8, "k": 2, "p": 0.0})
        est = monte_carlo(spec, 100, seed=5)
        assert est.estimate == 1.0
        assert est.ci.upper == 1.0

    def test_ci_contains_exact_runs_value(self):
        spec = ModelSpec("runs", {"n": 3, "k": 2, "p": 0.5})
        est = monte_carlo(spec, 1_000_000, seed=909, level=0.99)
        assert est.ci.contains(0.5)

    def test_reproducible_and_worker_invariant(self):
        spec = ModelSpec("runs", {"n": 12, "k": 2, "p": 0.4})
        a = monte_carlo(spec, 30_000, seed=3)
        b = monte_carlo(spec, 30_000, seed=3)
        c = monte_carlo(spec, 30_000, seed=3, workers=4)
        assert a == b == c

    @pytest.mark.parametrize("trials,workers", [(1, MAX_WORKERS), (3, 8), (5, 2)])
    def test_no_more_workers_than_trials(self, trials, workers, monkeypatch):
        sizes = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(oracles, "ThreadPoolExecutor", Recording)
        spec = ModelSpec("runs", {"n": 12, "k": 2, "p": 0.4})
        assert monte_carlo(spec, trials, seed=3, workers=workers) == monte_carlo(
            spec, trials, seed=3
        )
        assert sizes == [min(workers, trials), 1]

    @pytest.mark.parametrize(
        "spec,workers",
        [
            pytest.param(ModelSpec("runs", {"n": 100, "k": 3, "p": 0.3}), 1, id="runs-1"),
            pytest.param(ModelSpec("runs", {"n": 100, "k": 3, "p": 0.3}), 2, id="runs-2"),
            pytest.param(ModelSpec("ustat", {"n": 24, "k": 3, "p": 0.05}), 1, id="ustat-1"),
        ],
    )
    def test_one_batch_of_uniforms_alive_per_worker(self, spec, workers, monkeypatch):
        # three batches per worker: a batch held while the next is drawn
        # would peak at two batches per worker
        monkeypatch.setattr(oracles, "_BATCH_WORDS", 400_000)
        batch = oracles._batch_rows(trial_budget(spec))
        monte_carlo(spec, workers, workers=workers)
        tracemalloc.start()
        try:
            monte_carlo(spec, 3 * batch * workers, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * workers * 8 * batch * trial_budget(spec)

    @pytest.mark.parametrize(
        "spec,rows",
        [
            # 4 MiB of words
            pytest.param(ModelSpec("runs", {"n": 100, "k": 3, "p": 0.3}), 2**19 // 100, id="runs"),
            # 4 MiB would be 291 trials: the row floor holds
            pytest.param(
                ModelSpec("hypergraph-cover", {"N": 40, "k": 3, "n_draws": 600}), 2048,
                id="hypergraph-cover",
            ),
            # 2048 trials would exceed 4,000,000 words: the floor stops there
            pytest.param(
                ModelSpec("triangles", {"n": 100, "p": 0.05}), 4_000_000 // 4950, id="triangles"
            ),
        ],
    )
    def test_batch_rows(self, spec, rows, monkeypatch):
        counts = []

        def recording(spec, seed, start, count):
            counts.append(count)
            return trial_uniforms(spec, seed, start, count)

        monkeypatch.setattr(oracles, "trial_uniforms", recording)
        monte_carlo(spec, rows + 1)
        assert counts == [rows, 1]

    def test_batches_stay_cache_sized(self):
        # 50,000 trials a worker: one 4,000,000-word batch each would peak at 64 MB
        spec = ModelSpec("runs", {"n": 100, "k": 3, "p": 0.3})
        monte_carlo(spec, 2, workers=2)
        tracemalloc.start()
        try:
            monte_carlo(spec, 100_000, workers=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_estimate_within_interval_invariant(self):
        spec = ModelSpec("runs", {"n": 10, "k": 2, "p": 0.5})
        est = monte_carlo(spec, 5000, seed=8)
        assert est.ci.lower <= est.estimate <= est.ci.upper
        assert est.successes == round(est.estimate * est.trials)

    def test_trial_count_must_be_positive(self):
        spec = ModelSpec("runs", {"n": 10, "k": 2, "p": 0.5})
        with pytest.raises(ValueError, match="trials must be >= 1, got 0"):
            monte_carlo(spec, 0)

    def test_worker_count_capped(self):
        # rejected before the pool exists, so no thread starts
        spec = ModelSpec("runs", {"n": 10, "k": 2, "p": 0.5})
        with pytest.raises(ValueError, match="workers"):
            monte_carlo(spec, 10, workers=MAX_WORKERS + 1)

    def test_inconsistent_estimate_rejected(self):
        with pytest.raises(ValueError, match="inside"):
            EstimateWithCI(
                estimate=0.9,
                ci=clopper_pearson(10, 100, 0.95),
                trials=100,
                successes=10,
                seed=0,
            )
