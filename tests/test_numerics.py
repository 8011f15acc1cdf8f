"""Log-domain arithmetic, binomials, the scalar minimizer, and exact CIs."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import beta as beta_dist

from assocbounds.numerics import (
    NEG_INF,
    ConfidenceInterval,
    LogProb,
    clopper_pearson,
    log_add,
    log_binom,
    log_exceeds,
    minimize_scalar,
)

log_values = st.floats(min_value=-1e4, max_value=10.0, allow_nan=False)


class TestLogProb:
    def test_rejects_nan_and_positive_infinity(self):
        with pytest.raises(ValueError):
            LogProb(float("nan"))
        with pytest.raises(ValueError):
            LogProb(float("inf"))

    def test_negative_infinity_encodes_zero(self):
        z = LogProb(NEG_INF)
        assert z.linear == 0.0
        assert z.is_zero
        assert LogProb.from_linear(0.0) == z

    def test_from_linear_rejects_negative(self):
        with pytest.raises(ValueError):
            LogProb.from_linear(-1e-12)

    @given(st.floats(min_value=-690.0, max_value=690.0, allow_nan=False))
    def test_linear_roundtrip(self, lv):
        # |log| < 700 round-trips through linear to < 1e-12 relative
        back = LogProb.from_linear(LogProb(lv).linear).log_value
        assert back == pytest.approx(lv, rel=1e-12, abs=1e-12)

    def test_ordering_follows_log_value(self):
        assert LogProb(-2.0) < LogProb(-1.0) < LogProb(0.5)


class TestLogAdd:
    def test_zero_is_identity(self):
        x = LogProb(-3.7)
        assert log_add(LogProb(NEG_INF), x) == x
        assert log_add(x, LogProb(NEG_INF)) == x

    def test_half_plus_half_is_one(self):
        out = log_add(LogProb(math.log(0.5)), LogProb(math.log(0.5)))
        assert out.log_value == pytest.approx(0.0, abs=1e-15)

    def test_equal_arguments_add_ln_two(self):
        # log_add(x, x) = x + ln 2, far outside linear range
        out = log_add(LogProb(-1000.0), LogProb(-1000.0))
        assert out.log_value == pytest.approx(-1000.0 + math.log(2.0), rel=1e-15)

    @given(log_values, log_values)
    def test_commutative(self, a, b):
        x = log_add(LogProb(a), LogProb(b)).log_value
        y = log_add(LogProb(b), LogProb(a)).log_value
        assert x == pytest.approx(y, rel=1e-12)

    @given(log_values, log_values, log_values)
    @settings(max_examples=300)
    def test_associative(self, a, b, c):
        left = log_add(log_add(LogProb(a), LogProb(b)), LogProb(c)).log_value
        right = log_add(LogProb(a), log_add(LogProb(b), LogProb(c))).log_value
        assert left == pytest.approx(right, rel=1e-12, abs=1e-12)


class TestLogExceeds:
    def test_zero_lies_below_every_finite_value(self):
        assert log_exceeds(-1e6, NEG_INF)
        assert not log_exceeds(NEG_INF, -1e6)
        assert not log_exceeds(NEG_INF, NEG_INF)

    def test_relative_tolerance_separates_tiny_and_near_one_values(self):
        # 3e-37 against 1e-37, and two values near one whose logs differ by
        # 3.8e-19; within 1e-13 relative nothing exceeds
        assert log_exceeds(math.log(3e-37), math.log(1e-37))
        assert log_exceeds(-1.396983862086e-9, -1.396983862465e-9)
        assert not log_exceeds(-85.0 * (1 + 1e-13), -85.0)
        assert not log_exceeds(-85.0 * (1 - 1e-13), -85.0)


class TestLogBinom:
    def test_k_zero_is_one(self):
        assert log_binom(17, 0).log_value == 0.0

    def test_exact_small_value(self):
        assert log_binom(10, 3).log_value == pytest.approx(math.log(120), rel=1e-15)

    def test_out_of_range_is_zero(self):
        assert log_binom(5, 7).is_zero
        assert log_binom(5, -1).is_zero

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            log_binom(-1, 0)

    def test_lgamma_matches_exact_across_switchover(self):
        # both computation paths agree where they meet
        for n in range(55, 70):
            for k in (0, 1, n // 3, n // 2, n):
                exact = math.log(math.comb(n, k))
                assert log_binom(n, k).log_value == pytest.approx(exact, rel=1e-12)

    @given(st.integers(min_value=1, max_value=60), st.data())
    def test_pascals_rule(self, n, data):
        k = data.draw(st.integers(min_value=0, max_value=n))
        lhs = log_add(log_binom(n - 1, k - 1), log_binom(n - 1, k))
        assert lhs.log_value == pytest.approx(log_binom(n, k).log_value, rel=1e-10)


class TestMinimizeScalar:
    def test_monotone_objective_returns_left_endpoint(self):
        t, f = minimize_scalar(lambda t: LogProb(t), 1.0, 2.0, grid_points=16)
        assert t == pytest.approx(1.0, rel=1e-6)
        assert f.log_value == pytest.approx(1.0, rel=1e-6)

    def test_quadratic_minimum_located(self):
        t, f = minimize_scalar(
            lambda t: LogProb(math.log((t - 3.0) ** 2 + 1.0)), 0.1, 10.0,
            grid_points=64, refine_tolerance=1e-10,
        )
        assert abs(t - 3.0) < 1e-6
        assert f.log_value == pytest.approx(0.0, abs=1e-10)

    def test_never_exceeds_grid_minimum(self):
        # wiggly multimodal objective; result must beat every grid point
        def f(t):
            return LogProb(math.sin(5.0 * t) + 0.1 * t)

        t_star, f_star = minimize_scalar(f, 0.01, 20.0, grid_points=100)
        grid = np.exp(np.linspace(math.log(0.01), math.log(20.0), 100))
        grid_min = min(f(t).log_value for t in grid)
        assert f_star.log_value <= grid_min + 1e-15
        assert f(t_star).log_value == pytest.approx(f_star.log_value, rel=1e-12)

    def test_ill_posed_objective_rejected(self):
        def mostly_broken(t):
            if t < 5.0:
                raise ValueError("no value here")
            return LogProb(t)

        with pytest.raises(ValueError, match="ill-posed"):
            minimize_scalar(mostly_broken, 0.001, 10.0, grid_points=50)

    def test_bad_bracket_rejected(self):
        with pytest.raises(ValueError):
            minimize_scalar(lambda t: LogProb(t), 2.0, 1.0)
        with pytest.raises(ValueError):
            minimize_scalar(lambda t: LogProb(t), 1.0, 2.0, grid_points=1)


class TestClopperPearson:
    def test_zero_successes_closed_form(self):
        ci = clopper_pearson(0, 100, 0.95)
        assert ci.lower == 0.0
        assert ci.upper == pytest.approx(1.0 - 0.025 ** (1.0 / 100.0), rel=1e-10)

    def test_all_successes_boundary(self):
        ci = clopper_pearson(100, 100, 0.95)
        assert ci.upper == 1.0
        assert ci.lower == pytest.approx(0.025 ** (1.0 / 100.0), rel=1e-10)

    def test_symmetric_half(self):
        ci = clopper_pearson(50, 100, 0.95)
        assert ci.contains(0.5)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            clopper_pearson(0, 0, 0.95)

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            clopper_pearson(1, 10, 1.0)

    def test_interval_invariant_enforced(self):
        with pytest.raises(ValueError):
            ConfidenceInterval(lower=0.7, upper=0.3, level=0.9)

    def test_empirical_coverage(self):
        # 10^4 simulated binomials; exact CIs must cover at >= 0.94
        rng = np.random.default_rng(20240817)
        n, p, reps, level = 60, 0.37, 10_000, 0.95
        successes = rng.binomial(n, p, size=reps)
        alpha = 1.0 - level
        lower = np.where(
            successes == 0, 0.0, beta_dist.ppf(alpha / 2, successes, n - successes + 1)
        )
        upper = np.where(
            successes == n, 1.0, beta_dist.ppf(1 - alpha / 2, successes + 1, n - successes)
        )
        spot = [clopper_pearson(int(s), n, level) for s in successes[:50]]
        for ci, lo, hi in zip(spot, lower[:50], upper[:50]):
            assert ci.lower == pytest.approx(lo, abs=1e-12)
            assert ci.upper == pytest.approx(hi, abs=1e-12)
        coverage = float(np.mean((lower <= p) & (p <= upper)))
        assert coverage >= 0.94
