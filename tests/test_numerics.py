"""Log-domain arithmetic, the scalar minimizer, and exact CIs."""

from __future__ import annotations

import math

import mpmath
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

    def test_linear_overflow_saturates(self):
        assert LogProb(800.0).linear == math.inf

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

    @given(*[st.one_of(st.just(NEG_INF), st.floats(-1e4, 700.0))] * 2)
    def test_within_a_few_ulps_of_the_reference(self, a, b):
        with mpmath.workdps(60):
            ref = float(mpmath.log(mpmath.exp(a) + mpmath.exp(b)))
        got = log_add(LogProb(a), LogProb(b)).log_value
        if ref == NEG_INF:
            assert got == NEG_INF
        else:
            assert got == pytest.approx(ref, rel=0.0, abs=1e-14 * max(1.0, abs(ref)))

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


def failing_between(lo, hi, failure):
    """An objective for minimize_scalar with h = u - ln 2, whose root is at
    t = 2, and the value (u - ln 2)^2, except that every probe strictly
    between lo and hi fails: it raises ArithmeticError when ``failure`` is
    None, and returns ``failure`` otherwise."""

    def f(t):
        if lo < t < hi:
            if failure is None:
                raise ArithmeticError("no value here")
            return failure
        u = math.log(t) - math.log(2.0)
        return u * u, u, 1.0

    return f


class TestMinimizeScalar:
    def test_monotone_objective_returns_left_endpoint(self):
        t, f = minimize_scalar(lambda t: (t, 1.0, 0.0), 1.0, 2.0)
        assert t == 1.0 and f.log_value == 1.0

    def test_quadratic_minimum_located(self):
        # the slope of ln((t - 3)^2 + 1) in u = ln t has the sign of t - 3
        t, f = minimize_scalar(lambda t: (math.log((t - 3.0) ** 2 + 1.0), t - 3.0, t), 0.1, 10.0)
        assert abs(t - 3.0) < 1e-9
        assert f.log_value == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("t_star,n_evals", [(1e-11, 9), (1e-3, 10), (1.0, 7), (40.0, 5)])
    def test_searches_the_whole_range_by_newton_and_bisection(self, t_star, n_evals):
        # h = tanh(u - u*) is flat far from its root: a Newton step from
        # there leaves the bracket, and bisection takes over until Newton
        # converges.  The former golden-section search took 55 evaluations.
        evals = []

        def f(t):
            evals.append(t)
            x = math.log(t) - math.log(t_star)
            return math.log(math.cosh(x)), math.tanh(x), 1.0 / math.cosh(x) ** 2

        t, v = minimize_scalar(f, 1e-12, 50.0)
        assert evals[:2] == [1e-12, 50.0]
        assert abs(math.log(t) - math.log(t_star)) < 1e-9
        assert v.log_value < 1e-18
        assert len(evals) == n_evals

    @pytest.mark.parametrize("dh", [0.0, -1.0, math.nan])
    def test_a_slope_of_h_that_is_not_positive_falls_back_to_bisection(self, dh):
        # h = u - ln 3 with a useless dh/du: bisection alone reaches the root
        t, _ = minimize_scalar(lambda t: (0.0, math.log(t) - math.log(3.0), dh), 1e-12, 50.0)
        assert abs(math.log(t) - math.log(3.0)) < 2e-9

    @pytest.mark.parametrize("lo,hi", [(1e-12, 50.0), (0.1, 0.3), (1e-300, 1e300)])
    def test_minimum_at_an_end_is_that_end_exactly(self, lo, hi):
        # exp(ln 50) and exp(ln 1e-12) round off 50 and 1e-12: the ends must
        # not come from exp.  h >= 0 at the left end, or h <= 0 at the right
        # end, certifies that end, h = 0 included, before any other probe.
        for h_lo, h_hi, end in ((1.0, 1.0, lo), (0.0, 1.0, lo), (-1.0, -1.0, hi), (-1.0, 0.0, hi)):
            evals = []

            def f(t, h_lo=h_lo, h_hi=h_hi):
                evals.append(t)
                return (0.0, h_lo, 1.0) if t == lo else (0.0, h_hi, 1.0)

            assert minimize_scalar(f, lo, hi)[0] == end
            assert evals == [lo, hi]

    def test_infinite_h_certifies_an_end(self):
        # lv-optimal's objective reads h = +inf where every mean is 0 and
        # h = -inf where cov_sum is 0
        assert minimize_scalar(lambda t: (0.0, math.inf, 1.0), 1e-12, 50.0)[0] == 1e-12
        assert minimize_scalar(lambda t: (-t, -math.inf, 1.0), 1e-12, 50.0)[0] == 50.0

    def test_failing_probes_count_as_infinite(self):
        # a failed end counts as +inf and brackets nothing: the right end
        # stands.  With the ends bracketing the root, a failed probe inside
        # stops the search at the point evaluated before it, the right end.
        for lo in (0.0, 0.001):
            t, f = minimize_scalar(failing_between(lo, 5.0, None), 0.001, 10.0)
            assert t == 10.0 and f.log_value == (math.log(10.0) - math.log(2.0)) ** 2

    def test_nan_probes_count_as_infinite(self):
        # as in test_failing_probes_count_as_infinite, for a NaN value or h;
        # a NaN left end kept as NaN would lose no comparison
        for failure in ((math.nan, -1.0, 1.0), (0.0, math.nan, 1.0)):
            for lo in (0.0, 0.001):
                t, f = minimize_scalar(failing_between(lo, 5.0, failure), 0.001, 10.0)
                assert t == 10.0 and f.log_value == (math.log(10.0) - math.log(2.0)) ** 2

    def test_ill_posed_objective_rejected(self):
        def broken_at_both_ends(t):
            if not 1.0 < t < 5.0:
                raise ArithmeticError("no value here")
            return t, 1.0, 1.0

        with pytest.raises(ValueError, match="ill-posed"):
            minimize_scalar(broken_at_both_ends, 0.001, 10.0)

    def test_bad_bracket_rejected(self):
        for lo, hi in [(2.0, 1.0), (0.0, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan)]:
            with pytest.raises(ValueError, match="t_min"):
                minimize_scalar(lambda t: (t, 1.0, 1.0), lo, hi)


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

    @pytest.mark.parametrize("successes", [-1, 11])
    def test_successes_outside_the_trials_rejected(self, successes):
        with pytest.raises(ValueError, match=rf"need 0 <= successes <= trials, got {successes}/10"):
            clopper_pearson(successes, 10, 0.95)

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
