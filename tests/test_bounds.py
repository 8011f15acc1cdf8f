"""Each inequality against frozen hand-checked values, the iid/general
identity, optimizer guarantees, and the evaluate_all surface."""

from __future__ import annotations

import collections
import math
import re
import statistics
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from assocbounds import bounds, family
from assocbounds.bounds import (
    EQ2_FORMS,
    METHOD_ORDER,
    T_GRID_MAX,
    T_GRID_MIN,
    BoundResult,
    SkippedBound,
    boppona_spencer,
    boutsikas_koutras,
    evaluate_all,
    independent_lower,
    janson_basic,
    janson_ratio,
    lv_general,
    lv_iid,
    lv_optimal,
    tightest_upper,
)
from assocbounds.family import FamilySummary
from assocbounds.models import (
    FIRST_PRINCIPLES,
    PAPER_AS_PRINTED,
    hypergraph_summary,
    runs_summary,
    runs_zero_exact,
    triangles_summary,
)
from assocbounds.numerics import log_add_floats, log_exceeds


def homog(count, p, delta, cov_sum):
    return FamilySummary(count=count, means=(p,), delta=delta, cov_sum=cov_sum)


def hetero(means, delta, cov_sum):
    return FamilySummary(count=len(means), means=means, delta=delta, cov_sum=cov_sum)


# lv-optimal's former search grid: 200 points evenly spaced in ln t
FORMER_GRID = [
    float(t) for t in np.exp(np.linspace(math.log(T_GRID_MIN), math.log(T_GRID_MAX), 200))
]
# lv-optimal's evaluations per search: both ends, then Newton or bisection
# steps in ln t.  The most read was 15, over 30,000 draws of lv_summaries,
# the summaries of search_summaries and 11,000 random runs, triangles, ustat
# and heterogeneous summaries; the bound leaves room for summaries not
# drawn.  The former golden-section search took 55 on every summary.
LV_OPTIMAL_MAX_EVALS = 20

# cov_sum = 0 and tiny cov_sum put t* on the right edge (or, with a product
# term far below the covariance term, on the left), huge cov_sum on the left
# edge, and moderate cov_sum mostly inside
_cov_sums = st.one_of(
    st.just(0.0),
    st.floats(1e-300, 1e-30),
    st.floats(1e-6, 10.0),
    st.floats(1e20, 1e60),
)
_means = st.floats(1e-6, 0.99)


@st.composite
def lv_summaries(draw):
    cov = draw(_cov_sums)
    if draw(st.booleans()):
        return homog(draw(st.integers(1, 10**6)), draw(_means), cov, cov)
    means = draw(st.lists(_means, min_size=1, max_size=40))
    return hetero(means, delta=cov, cov_sum=cov)


def counted_lv_optimal(s):
    """lv_optimal(s), and the number of objective evaluations its search made."""
    calls = []
    search = bounds.minimize_scalar

    def counting(f, *args, **kwargs):
        def counted(t):
            calls.append(t)
            return f(t)

        return search(counted, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bounds, "minimize_scalar", counting)
        r = lv_optimal(s)
    return r, len(calls)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_lv_optimal(s):
    """(t, log value) of lv-optimal by the former search, the reference of
    the Newton search: golden section in ln t on lv-general's log value over
    [T_GRID_MIN, T_GRID_MAX], from both ends until the bracket is 1e-9 wide,
    keeping the evaluated point of smallest value."""

    def f(t):
        return lv_general(s, t).value.log_value

    best = min((f(t), t) for t in (T_GRID_MIN, T_GRID_MAX))
    a, b = math.log(T_GRID_MIN), math.log(T_GRID_MAX)
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = f(math.exp(c)), f(math.exp(d))
    while True:
        best = min(best, (fc, math.exp(c)), (fd, math.exp(d)))
        if b - a <= 1e-9:
            return best[1], best[0]
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(math.exp(d))


def probe(s, t):
    """lv-optimal's objective at t: (log value, h, dh/du)."""
    return bounds._lv_probe(s)(t)


def tilted(s, t, log_w):
    """The tilted product's log at t, t = inf included, and
    ln(product + e^log_w cov_sum), both formed from the summary's bind."""
    log_p_inf, terms = s.tilted_product
    log_product = log_p_inf if t == math.inf else terms(t)[0]
    return log_product, log_add_floats(log_product, log_w + bounds._log_cov(s))


def log1p_terms_only(s, t):
    """Whether every mean p has p (1 - e^{-t}) <= 1/2, where each term of the
    tilted product is log1p(p expm1(-t)), not ln((1 - p) + p e^{-t})."""
    return max(s.means) * -math.expm1(-t) <= 0.5


def mp_lv_general(s, t):
    """lv-general's log value at 50 digits from the exact doubles."""
    weight = s.count // len(s.means)
    with mpmath.workdps(50):
        t = mpmath.mpf(t)
        e = mpmath.exp(-t)
        log_product = weight * mpmath.fsum(mpmath.log(1 - mpmath.mpf(p) + p * e) for p in s.means)
        return mpmath.log(mpmath.exp(log_product) + t * t * mpmath.mpf(s.cov_sum))


def search_summaries():
    """Summaries from a fixed seed, with count, means and cov_sum drawn
    log-uniform: 200 with one shared mean in [1e-8, 0.9], 60 with the shared
    mean 1 - 10^-j for j = 1..12, and 40 with 2 to 5000 means in [1e-6, 0.9]."""
    rng = np.random.default_rng(27)

    def log_uniform(lo, hi, size=None):
        return np.exp(rng.uniform(math.log(lo), math.log(hi), size))

    out = []
    for _ in range(200):
        cov = float(log_uniform(1e-40, 1e30))
        out.append(homog(int(log_uniform(1, 1e9)), float(log_uniform(1e-8, 0.9)), cov, cov))
    for j in range(1, 13):
        for _ in range(5):
            cov = float(log_uniform(1e-40, 1e30))
            out.append(homog(int(log_uniform(1, 1e6)), 1 - 10.0**-j, cov, cov))
    for size in (2, 10, 100, 1000, 5000):
        for _ in range(8):
            cov = float(log_uniform(1e-40, 1e20))
            out.append(hetero(log_uniform(1e-6, 0.9, size).tolist(), cov, cov))
    return out


@st.composite
def slope_points(draw):
    """(summary, t) with t in [T_GRID_MIN, T_GRID_MAX], cov_sum > 0 and a
    mean above 0, where h is finite, and means on both sides of
    p (1 - e^{-t}) = 1/2 (see tilted_points)."""
    t = math.exp(draw(st.floats(math.log(T_GRID_MIN), math.log(T_GRID_MAX))))
    cap = min(0.99, 0.5 / -math.expm1(-t))
    mean = st.one_of(
        st.floats(1e-6, cap), st.floats(cap, 0.99), st.sampled_from([0.0, 1e-12, 1.0])
    )
    cov = draw(st.floats(1e-30, 1e30))
    if draw(st.booleans()):
        s = homog(draw(st.integers(1, 10**9)), draw(mean.filter(lambda p: p > 0)), cov, cov)
    else:
        s = hetero(draw(st.lists(mean, min_size=2, max_size=40).filter(any)), cov, cov)
    return s, t


def mp_slope_sign(s, t):
    """h = ln(2 t cov_sum) - ln(-P'(t)) for the tilted product P, and
    dh/du = t dh/dt by numerical differentiation, both at 50 digits."""
    weight = s.count // len(s.means)
    with mpmath.workdps(50):
        means = [mpmath.mpf(p) for p in s.means]

        def h(t):
            e = mpmath.exp(-t)
            factors = [1 - p + p * e for p in means]
            log_product = weight * mpmath.fsum(mpmath.log(f) for f in factors)
            slope = weight * mpmath.fsum(p * e / f for p, f in zip(means, factors))
            return mpmath.log(2 * t * mpmath.mpf(s.cov_sum)) - log_product - mpmath.log(slope)

        t = mpmath.mpf(t)
        return float(h(t)), float(t * mpmath.diff(h, t))


class TestJansonBasic:
    def test_empty_family_is_vacuous_one(self):
        r = janson_basic(homog(1, 0.0, 0.0, 0.0))
        assert r.value.linear == 1.0
        assert r.vacuous

    def test_unit_lambda(self):
        r = janson_basic(homog(10, 0.1, 0.0, 0.0))
        assert r.value.linear == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_runs_instance(self):
        r = janson_basic(runs_summary(10, 2, 0.5, PAPER_AS_PRINTED))
        assert r.value.log_value == pytest.approx(-1.875, rel=1e-14)
        assert r.value.linear == pytest.approx(0.15335496684492846, rel=1e-12)


class TestJansonRatio:
    def test_forms_agree_at_unit_delta_bar(self):
        s = homog(10, 0.1, 0.0, 0.0)  # lambda=1, delta_bar=1
        printed = janson_ratio(s, form="printed")
        standard = janson_ratio(s, form="standard")
        assert printed.value.linear == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert standard.value.linear == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_forms_diverge_at_lambda_four(self):
        s = homog(40, 0.1, 0.0, 0.0)  # lambda=4, delta_bar=4
        assert janson_ratio(s, form="printed").value.log_value == pytest.approx(-0.25)
        assert janson_ratio(s, form="standard").value.log_value == pytest.approx(-4.0)

    def test_zero_delta_bar_rejected(self):
        with pytest.raises(ValueError, match="delta_bar"):
            janson_ratio(homog(10, 0.0, 0.0, 0.0))

    # lambda^2 overflows (runs and triangles, standard form), delta_bar^2
    # overflows (both, printed form); both squares underflow to 0 (the last)
    @pytest.mark.parametrize(
        "s,form",
        [(runs_summary(10**160, 2, 0.5), form) for form in EQ2_FORMS]
        + [(triangles_summary(10**52, 0.5), form) for form in EQ2_FORMS]
        + [(homog(6, 1e-200, 0.0, 0.0), form) for form in EQ2_FORMS],
        ids=["runs-printed", "runs-standard", "triangles-printed", "triangles-standard",
             "tiny-printed", "tiny-standard"],
    )
    def test_square_beyond_the_double_range_matches_the_exact_ratio(self, s, form):
        lam, delta_bar = Fraction(s.lambda_), Fraction(s.delta_bar)
        exact = -lam / delta_bar**2 if form == "printed" else -lam * lam / delta_bar
        log_value = janson_ratio(s, form=form).value.log_value
        assert log_value == pytest.approx(float(exact), rel=1e-12, abs=0.0)

    def test_printed_form_is_not_an_upper_bound(self):
        # documents the defect in the printed exponent: at small lambda the
        # printed value collapses below the true probability, while the
        # standard form stays above it
        s = runs_summary(20, 4, 0.05, FIRST_PRINCIPLES)
        truth = runs_zero_exact(20, 4, 0.05).linear
        printed = janson_ratio(s, form="printed").value.linear
        standard = janson_ratio(s, form="standard").value.linear
        assert printed < truth - 1e-9
        assert standard >= truth - 1e-9


class TestBopponaSpencer:
    def test_zero_delta_reduces_to_independent_product(self):
        s = homog(12, 0.3, 0.0, 0.0)
        bs = boppona_spencer(s).value.log_value
        lower = independent_lower(s).value.log_value
        assert bs == pytest.approx(lower, rel=1e-12)

    def test_runs_instance(self):
        r = boppona_spencer(runs_summary(10, 2, 0.5, PAPER_AS_PRINTED))
        assert r.value.linear == pytest.approx(0.12957603967793504, rel=1e-12)

    def test_certain_indicator_rejected(self):
        with pytest.raises(ValueError, match="max mean"):
            boppona_spencer(homog(5, 1.0, 0.0, 0.0))


class TestBoutsikasKoutras:
    def test_zero_cov_reduces_to_product(self):
        s = homog(7, 0.2, 0.1, 0.0)
        r = boutsikas_koutras(s)
        assert r.value.linear == pytest.approx(0.8**7, rel=1e-12)

    def test_frozen_example(self):
        r = boutsikas_koutras(homog(10, 0.1, 0.1, 0.05))
        assert r.value.linear == pytest.approx(0.3986784401, rel=1e-12)

    def test_large_cov_vacuous(self):
        r = boutsikas_koutras(homog(10, 0.1, 1.5, 1.2))
        assert r.vacuous

    def test_negative_cov_rejected(self):
        with pytest.raises(ValueError, match="associat"):
            boutsikas_koutras(homog(10, 0.1, 0.1, -0.01))


class TestLvBounds:
    def test_frozen_example_both_forms(self):
        s = homog(10, 0.25, 1.25, 0.625)
        g = lv_general(s, 1.0)
        i = lv_iid(s, 1.0)
        assert g.value.linear == pytest.approx(0.8040463429350806, rel=1e-12)
        assert i.value.log_value == g.value.log_value
        assert g.t == 1.0

    def test_independent_limit_large_t(self):
        s = homog(10, 0.3, 0.0, 0.0)
        r = lv_general(s, 50.0)
        assert r.value.log_value == pytest.approx(10 * math.log(0.7), rel=1e-6)

    def test_tiny_t_approaches_one(self):
        s = homog(10, 0.3, 0.0, 0.0)
        r = lv_general(s, 1e-9)
        assert r.value.log_value == pytest.approx(0.0, abs=1e-8)
        assert not r.vacuous  # just below 1 from the product side

    def test_p_zero_is_one_plus_cov_term(self):
        r = lv_iid(homog(10, 0.0, 0.5, 0.5), 2.0)
        assert r.value.linear == pytest.approx(1.0 + 4.0 * 0.5, rel=1e-12)
        assert r.vacuous

    def test_heterogeneous_general_vs_manual(self):
        s = hetero([0.1, 0.2, 0.4], delta=0.05, cov_sum=0.01)
        t = 1.7
        expected = math.fsum(
            math.log(1 - p + p * math.exp(-t)) for p in (0.1, 0.2, 0.4)
        )
        expected = math.log(math.exp(expected) + t * t * 0.01)
        assert lv_general(s, t).value.log_value == pytest.approx(expected, rel=1e-12)

    def test_iid_requires_homogeneous(self):
        s = hetero([0.1, 0.2], delta=0.0, cov_sum=0.0)
        with pytest.raises(ValueError, match="homogeneous"):
            lv_iid(s, 1.0)

    def test_iid_rejects_certain_indicator(self):
        with pytest.raises(ValueError, match="p < 1"):
            lv_iid(homog(3, 1.0, 0.0, 0.0), 1.0)

    def test_nonpositive_t_rejected(self):
        s = homog(3, 0.1, 0.0, 0.0)
        for bad in (0.0, -1.0, math.inf):
            with pytest.raises(ValueError):
                lv_general(s, bad)
        with pytest.raises(ValueError):
            lv_general(s)  # neither t nor log_t

    @pytest.mark.parametrize("bound", [lv_general, lv_iid])
    @pytest.mark.parametrize(
        "override,message",
        [
            # float() reads True as 1.0, which was reported as "t": true
            ({"t": True}, "t must be a number, got True"),
            ({"log_t": True}, "log_t must be a number, got True"),
            # these raised a bare TypeError
            ({"t": [0.5]}, "t must be a number, got [0.5]"),
            ({"log_t": "abc"}, "log_t must be a number, got 'abc'"),
        ],
    )
    def test_non_number_t_refused_by_name(self, bound, override, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            bound(homog(3, 0.1, 0.0, 0.0), **override)

    @pytest.mark.parametrize("bound", [lv_general, lv_iid])
    def test_t_read_as_a_float(self, bound):
        # as the readers read every number a caller passes
        s = homog(3, 0.1, 0.02, 0.01)
        for override, read in (({"t": "0.5"}, {"t": 0.5}), ({"log_t": "-2"}, {"log_t": -2.0}),
                               ({"t": np.float32(0.5)}, {"t": 0.5})):
            got = bound(s, **override)
            assert got == bound(s, **read)
            assert type(got.t) is float and type(got.log_t) is float

    @pytest.mark.parametrize(
        "log_t,reason", [(math.nan, "must be finite"), (800.0, "t would overflow")]
    )
    def test_log_form_t_refused(self, log_t, reason):
        with pytest.raises(ValueError, match=reason):
            lv_general(homog(3, 0.1, 0.0, 0.0), log_t=log_t)

    def test_log_form_override_matches_linear_t(self):
        s = homog(10, 0.25, 1.25, 0.625)
        via_t = lv_general(s, 1e-4)
        via_log = lv_general(s, log_t=math.log(1e-4))
        assert via_log.value.log_value == pytest.approx(
            via_t.value.log_value, rel=1e-12
        )

    def test_log_form_reaches_subnormal_exponents(self):
        # t = e^{-1000} underflows in linear form; the covariance term keeps
        # its exact exponent 2*(-1000) + ln(cov), and the product term
        # saturates to exactly 1
        s = homog(10, 0.25, 1.25, 0.625)
        r = lv_general(s, log_t=-1000.0)
        assert r.t == 0.0 and r.log_t == -1000.0
        assert r.value.log_value == 0.0

    @pytest.mark.parametrize(
        "s", [homog(3, 1.0, 0.5, 0.5), hetero([0.3, 1.0, 0.9], 0.5, 0.5)], ids=["shared", "listed"]
    )
    @pytest.mark.parametrize("log_t", [699.0, -800.0])
    def test_log_form_ends_with_a_certain_mean(self, s, log_t):
        # e^t would overflow at log_t = 699, and t underflows to 0.0 at -800
        weight = s.count // len(s.means)
        with mpmath.workdps(60):
            t = mpmath.exp(log_t)
            e = mpmath.exp(-t)
            log_p = weight * mpmath.fsum(mpmath.log(1 - mpmath.mpf(p) + p * e) for p in s.means)
            ref = mpmath.log(mpmath.exp(log_p) + t * t * mpmath.mpf(s.cov_sum))
        r = lv_general(s, log_t=log_t)
        assert r.log_t == log_t
        assert r.value.log_value == pytest.approx(float(ref), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("p", [1 - 1e-12, 1 - 1e-9, 0.9])
    def test_iid_matches_general_near_one_at_large_t(self, p):
        # the factor (1 - p) + p e^{-t} lies below 1/2 there, so its log is
        # taken directly, not as log1p of factor - 1
        s = homog(3, p, 0.0, 0.0)
        log_product, _ = mp_tilted(s, 31.6, -math.inf)
        assert lv_iid(s, 31.6).value.log_value == pytest.approx(log_product, rel=1e-14, abs=0.0)
        assert lv_general(s, 31.6).value.log_value == pytest.approx(
            log_product, rel=1e-14, abs=0.0
        )

    def test_smallest_linear_t_stays_below_one(self):
        # t = 1e-300 is representable: the product term keeps its tiny
        # negative log and the bound stays (barely) non-vacuous
        s = homog(10, 0.25, 1.25, 0.625)
        r = lv_general(s, 1e-300)
        assert r.value.log_value < 0.0
        assert not r.vacuous

    def test_identity_on_random_homogeneous_summaries(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            p = rng.uniform(0.001, 0.99)
            count = int(rng.integers(1, 500))
            cov = rng.uniform(0.0, 2.0)
            delta = cov * (1.0 + rng.uniform(0.0, 1.0)) + 1e-6
            t = math.exp(rng.uniform(math.log(1e-6), math.log(50.0)))
            s = homog(count, p, delta, cov)
            a = lv_general(s, t).value.log_value
            b = lv_iid(s, t).value.log_value
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1e-300)

    def test_product_term_nonincreasing_in_t(self):
        s = homog(40, 0.15, 0.0, 0.0)  # cov 0 isolates the product term
        ts = np.exp(np.linspace(math.log(1e-6), math.log(50.0), 80))
        values = [lv_general(s, float(t)).value.log_value for t in ts]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


class TestLvOptimal:
    def test_zero_cov_recovers_independent_product(self):
        s = homog(25, 0.2, 0.0, 0.0)
        r = lv_optimal(s)
        target = 25 * math.log(0.8)
        assert r.value.log_value == pytest.approx(target, rel=1e-6)
        assert r.t > 40.0  # pushed to the grid cap

    def test_never_exceeds_any_grid_point(self):
        s = runs_summary(10, 2, 0.5, FIRST_PRINCIPLES)
        r = lv_optimal(s)
        grid = np.exp(np.linspace(math.log(1e-12), math.log(50.0), 200))
        for t in grid:
            assert r.value.log_value <= lv_general(s, float(t)).value.log_value + 1e-15

    def test_below_sanity_grid(self):
        s = runs_summary(12, 3, 0.4, FIRST_PRINCIPLES)
        r = lv_optimal(s)
        for t in (0.01, 0.1, 1.0, 10.0):
            assert r.value.log_value <= lv_general(s, t).value.log_value + 1e-15

    def test_negative_cov_rejected(self):
        s = hypergraph_summary(6, 2, 16)
        assert s.cov_sum < 0
        with pytest.raises(ValueError, match="associat"):
            lv_optimal(s)

    @pytest.mark.parametrize(
        "s,edge",
        [
            (homog(25, 0.2, 0.0, 0.0), T_GRID_MAX),
            (hetero([0.1, 0.3, 0.6], delta=0.0, cov_sum=0.0), T_GRID_MAX),
            (homog(25, 0.2, 1e40, 1e40), T_GRID_MIN),
            (hetero([0.1, 0.3, 0.6], delta=1e40, cov_sum=1e40), T_GRID_MIN),
        ],
    )
    def test_edge_minimum_reports_the_exact_end(self, s, edge):
        r = lv_optimal(s)
        assert T_GRID_MIN <= r.t <= T_GRID_MAX
        assert r.t == edge and r.log_t == math.log(edge)

    @given(lv_summaries())
    def test_no_former_grid_point_beats_it_within_the_evaluation_budget(self, s):
        r, evals = counted_lv_optimal(s)
        assert evals <= LV_OPTIMAL_MAX_EVALS
        assert T_GRID_MIN <= r.t <= T_GRID_MAX
        for t in FORMER_GRID:
            general = lv_general(s, t).value.log_value
            assert not log_exceeds(r.value.log_value, general), (t, r, general)

    def test_at_or_below_a_golden_section_search(self):
        # Newton lands on the root of h, where golden section's smallest
        # probe may round a few ulps lower: the most read was 2.9e-15
        # relative.  Where a mean has p (1 - e^{-t}) > 1/2 at either t, the
        # tilted product's near-one form holds that to 4.5e-16 (golden
        # section read up to 4.8e-13 lower while log1p alone lost digits
        # there), and the two t are also judged on exact lv-general values.
        # Search lengths read a median of 6 and at most 14 evaluations (2
        # where an end is certified).
        evals, near_one = [], 0
        for s in search_summaries():
            r, n = counted_lv_optimal(s)
            evals.append(n)
            t_ref, ref = golden_section_lv_optimal(s)
            assert r.value.log_value - ref <= 1e-14 * abs(ref), (s, r, ref)
            if not (log1p_terms_only(s, r.t) and log1p_terms_only(s, t_ref)):
                near_one += 1
                exact, exact_ref = mp_lv_general(s, r.t), mp_lv_general(s, t_ref)
                assert exact - exact_ref <= 1e-14 * abs(exact_ref), (s, r, t_ref)
        assert 20 <= near_one <= len(evals) - 20, near_one
        assert max(evals) <= LV_OPTIMAL_MAX_EVALS
        assert statistics.median(evals) <= 12

    def test_an_end_is_returned_exactly_when_the_sign_of_h_certifies_it(self):
        # h >= 0 at T_GRID_MIN puts the minimum there, h <= 0 at T_GRID_MAX
        # puts it there, and otherwise it lies inside
        where = collections.Counter()
        for s in search_summaries():
            h_min, h_max = probe(s, T_GRID_MIN)[1], probe(s, T_GRID_MAX)[1]
            certified = T_GRID_MIN if h_min >= 0 else T_GRID_MAX if h_max <= 0 else None
            t = lv_optimal(s).t
            assert (t if t in (T_GRID_MIN, T_GRID_MAX) else None) == certified
            where[certified] += 1
        assert min(where[T_GRID_MIN], where[T_GRID_MAX], where[None]) >= 20, where

    def test_a_shared_mean_and_its_list_find_the_same_t(self):
        # the two paths of the tilted product form the same h to rounding
        rng = np.random.default_rng(28)
        inside = 0
        for j in range(60):
            count = int(np.exp(rng.uniform(0.0, math.log(3000.0))))
            p = 1 - 10.0 ** -(j % 12 + 1) if j % 4 == 0 else float(np.exp(rng.uniform(-18.0, 0.0)))
            cov = float(np.exp(rng.uniform(math.log(1e-30), math.log(1e10))))
            one = lv_optimal(homog(count, p, cov, cov))
            listed = lv_optimal(hetero([p] * count, cov, cov))
            assert listed.t == pytest.approx(one.t, rel=1e-13, abs=0.0), (count, p, cov)
            inside += T_GRID_MIN < one.t < T_GRID_MAX
        assert inside >= 20

    @given(slope_points())
    def test_h_and_its_slope_match_a_50_digit_reference(self, point):
        s, t = point
        value, h, dh = probe(s, t)
        assert value == lv_general(s, t).value.log_value
        ref_h, ref_dh = mp_slope_sign(s, t)
        # h adds ln cov_sum, u, t and the log product, so it keeps the
        # absolute accuracy of the largest of them
        log_product = tilted(s, t, -math.inf)[0]
        scale = max(1.0, abs(math.log(s.cov_sum)), abs(math.log(t)), t, abs(log_product))
        assert h == pytest.approx(ref_h, rel=0.0, abs=1e-14 * scale)
        assert dh == pytest.approx(ref_dh, rel=1e-14)


class TestIndependentLower:
    def test_frozen_product(self):
        r = independent_lower(homog(10, 0.1, 0.0, 0.0))
        assert r.value.linear == pytest.approx(0.3486784401, rel=1e-13)

    def test_p_zero_gives_one(self):
        assert independent_lower(homog(4, 0.0, 0.0, 0.0)).value.linear == 1.0

    def test_certain_indicator_gives_zero(self):
        s = hetero([0.2, 1.0], delta=0.0, cov_sum=0.0)
        assert independent_lower(s).value.is_zero

    @pytest.mark.parametrize(
        "means", [[1 - 1e-12], [0.3, 1 - 1e-12], [1.0], [0.3, 1.0]],
        ids=["shared-near-one", "listed-near-one", "shared-certain", "listed-certain"],
    )
    def test_the_product_is_taken_at_infinite_t(self, means):
        # at t = 50 a mean near 1 would still add p e^{-50} to 1 - p, 1.9e-10
        # relative here, and a mean of 1 would give -50 in place of -inf
        s = homog(4, means[0], 0.0, 0.0) if len(means) == 1 else hetero(means, 0.0, 0.0)
        weight = s.count // len(means)
        with mpmath.workdps(60):
            ref = weight * mpmath.fsum(mpmath.log(1 - mpmath.mpf(p)) for p in means)
        log_value = independent_lower(s).value.log_value
        assert log_value == pytest.approx(float(ref), rel=1e-14, abs=0.0)


def mp_tilted(s, t, log_w):
    """ln of the tilted product and ln(product + e^log_w max(cov_sum, 0)),
    both at 60 digits from the exact doubles."""
    with mpmath.workdps(60):
        shift = -1 if t == math.inf else mpmath.expm1(-mpmath.mpf(t))
        weight = s.count // len(s.means)
        log_product = weight * mpmath.fsum(mpmath.log1p(mpmath.mpf(p) * shift) for p in s.means)
        cov = 0 if log_w == -math.inf else mpmath.exp(log_w) * max(s.cov_sum, 0.0)
        return float(log_product), float(mpmath.log(mpmath.exp(log_product) + cov))


_SPECIAL_MEANS = (0.0, 1e-300, 1e-12, 0.25, 0.5, 1 - 1e-9, 1 - 1e-12, 1.0)


@st.composite
def tilted_points(draw):
    """(summary, t, log_w) with means on both sides of p (1 - e^{-t}) = 1/2,
    past which each term is ln((1 - p) + p e^{-t}) in place of
    log1p(p expm1(-t)).  Terms p (1 - e^{-t}) below the normal range are
    left out: they round to subnormals (see test_subnormal_terms)."""
    t = draw(st.one_of(st.just(math.inf), st.floats(1e-12, 60.0)))
    cap = 1.0 if t == math.inf else min(1.0, 0.5 / -math.expm1(-t))
    mean = st.one_of(st.floats(0.0, cap), st.floats(cap, 1.0), st.sampled_from(_SPECIAL_MEANS))
    cov = draw(st.one_of(st.just(0.0), st.floats(-1.0, 0.0), st.floats(1e-300, 1e60)))
    mean = mean.filter(lambda p: p == 0.0 or p * -math.expm1(-t) >= sys.float_info.min)
    if draw(st.booleans()):
        s = homog(draw(st.integers(1, 10**9)), draw(mean), 0.0, cov)
    else:
        # a size drawn evenly, so that most lists pass the 128 terms past
        # which numpy's pairwise summation splits the sum into blocks
        size = draw(st.integers(1, 300))
        s = hetero(draw(st.lists(mean, min_size=size, max_size=size)), 0.0, cov)
    return s, t, draw(st.one_of(st.just(-math.inf), st.floats(-800.0, 50.0)))


class TestTiltedProductPrecision:
    """The one function behind independent-lower, boppona-spencer,
    boutsikas-koutras and lv-general/-optimal, against 60-digit references."""

    @given(tilted_points())
    def test_within_a_few_ulps_of_the_reference(self, point):
        s, t, log_w = point
        log_product, value = mp_tilted(s, t, log_w)
        got_product, got = tilted(s, t, log_w)
        assert got_product == pytest.approx(log_product, rel=1e-14, abs=0.0)
        # ln cov_sum and log_w add before the log-sum, so the value keeps the
        # absolute accuracy of the larger of them, which may cancel
        scale = max(1.0, abs(value), abs(log_w) if log_w > -math.inf else 0.0)
        assert got == pytest.approx(value, rel=0.0, abs=1e-14 * scale)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t", [1e-12, 1e-3, 0.5, math.inf])
    def test_thousands_of_means_with_zero_and_one(self, t):
        means = np.random.default_rng(13).uniform(1e-4, 0.05, 5000).tolist()
        means[::1000] = [0.0] * 5
        means[500::1000] = [1.0] * 5
        s = hetero(means, 0.0, 1.0)
        log_product, value = mp_tilted(s, t, 0.0)
        got_product, got = tilted(s, t, 0.0)
        assert got_product == pytest.approx(log_product, rel=1e-14, abs=0.0)
        # the log-sum with ln cov_sum = 0 keeps absolute accuracy, as above
        scale = max(1.0, abs(value))
        assert got == pytest.approx(value, rel=0.0, abs=1e-14 * scale)

    @pytest.mark.parametrize(
        "means",
        [[0.3], [1 - 1e-9], [1.0], [0.0, 0.3, 1.0], [0.2, 1 - 1e-12, 0.7, 1.0]],
        ids=["shared", "shared-near-one", "shared-certain", "listed", "listed-near-one"],
    )
    @pytest.mark.parametrize("t", [1e-12, 0.5, 31.6])
    def test_slope_sums_match_a_60_digit_reference(self, means, t):
        # R1 = sum r_i and R2 = sum r_i^2, r_i = p_i e^{-t} / (1 - p_i + p_i e^{-t})
        s = homog(7, means[0], 0.0, 0.0) if len(means) == 1 else hetero(means, 0.0, 0.0)
        weight = s.count // len(s.means)
        with mpmath.workdps(60):
            e = mpmath.exp(-mpmath.mpf(t))
            r = [mpmath.mpf(p) * e / (1 - mpmath.mpf(p) + mpmath.mpf(p) * e) for p in means]
            ref = [weight * mpmath.fsum(mpmath.log(1 - mpmath.mpf(p) + p * e) for p in means),
                   weight * mpmath.fsum(r), weight * mpmath.fsum(x * x for x in r)]
        got = s.tilted_product[1](t)
        assert got == pytest.approx([float(x) for x in ref], rel=1e-14, abs=0.0)

    # ln 1 prints as 0.0, not -0.0: p = 0, or p = 1 at a log-form t that
    # underflows to 0
    @pytest.mark.parametrize("means,t", [([0.0], 0.5), ([0.0, 0.0], 0.5), ([1.0], 0.0)])
    def test_a_product_of_ones_reads_plus_zero(self, means, t):
        log_product = tilted(hetero(means, 0.0, 0.0), t, -math.inf)[0]
        assert math.copysign(1.0, log_product) == 1.0

    # where p (1 - e^{-t}) > 1/2, log1p(p expm1(-t)) would keep only the
    # absolute accuracy of 1 + p expm1(-t): 6.7e-7 relative off at p = 1 - 1e-12
    @pytest.mark.parametrize("p", [1 - 1e-12, 1 - 1e-9])
    def test_near_one_means_at_large_t(self, p):
        s = homog(1, p, 0.0, 0.0)
        log_product, _ = mp_tilted(s, 31.6, -math.inf)
        assert tilted(s, 31.6, -math.inf)[0] == pytest.approx(log_product, rel=1e-14, abs=0.0)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="p expm1(-t) = -1e-312 rounds to a subnormal with 12 digits, and the "
        "weight of 1e9 brings the log back into the normal range",
    )
    def test_subnormal_terms(self):
        s = homog(10**9, 1e-300, 0.0, 0.0)
        log_product, _ = mp_tilted(s, 1e-12, -math.inf)
        assert tilted(s, 1e-12, -math.inf)[0] == pytest.approx(log_product, rel=1e-14, abs=0.0)


class TestEvaluateAll:
    def test_runs_instance_yields_seven_results(self):
        entries = evaluate_all(runs_summary(10, 2, 0.5))
        assert len(entries) == 7
        assert all(isinstance(e, BoundResult) for e in entries)
        assert [e.method for e in entries] == [
            "janson-basic",
            "janson-ratio",
            "boppona-spencer",
            "boutsikas-koutras",
            "lv-iid",
            "lv-optimal",
            "independent-lower",
        ]
        # cov_sum < 0: the skipped additive bounds keep their places
        entries = evaluate_all(hypergraph_summary(6, 2, 16))
        assert [e.method for e in entries] == [m for m in METHOD_ORDER if m != "lv-general"]
        assert [e.method for e in entries if isinstance(e, SkippedBound)] == [
            "boutsikas-koutras", "lv-iid", "lv-optimal",
        ]

    def test_explicit_t_adds_lv_general(self):
        entries = evaluate_all(runs_summary(10, 2, 0.5), t=0.7)
        methods = [e.method for e in entries]
        assert methods == list(METHOD_ORDER)
        skipped = evaluate_all(hypergraph_summary(6, 2, 16), t=0.7)
        assert [e.method for e in skipped] == list(METHOD_ORDER)
        assert [e.method for e in skipped if isinstance(e, SkippedBound)] == [
            "boutsikas-koutras", "lv-general", "lv-iid", "lv-optimal",
        ]
        by = {e.method: e for e in entries}
        assert by["lv-general"].t == 0.7
        assert by["lv-iid"].t == 0.7
        assert by["lv-optimal"].t != 0.7

    def test_certain_indicator_skips_boppona_spencer(self):
        entries = evaluate_all(homog(3, 1.0, 0.0, 0.0))
        by = {e.method: e for e in entries}
        assert isinstance(by["boppona-spencer"], SkippedBound)
        assert "max mean" in by["boppona-spencer"].reason

    def test_zero_cov_all_present_and_lv_near_product(self):
        s = homog(12, 0.2, 0.0, 0.0)
        entries = evaluate_all(s)
        assert all(isinstance(e, BoundResult) for e in entries)
        by = {e.method: e for e in entries}
        assert by["lv-optimal"].value.log_value == pytest.approx(
            by["independent-lower"].value.log_value, rel=1e-6
        )

    def test_heterogeneous_skips_lv_iid(self):
        s = hetero([0.1, 0.3], delta=0.02, cov_sum=0.01)
        by = {e.method: e for e in evaluate_all(s)}
        assert isinstance(by["lv-iid"], SkippedBound)
        assert isinstance(by["lv-optimal"], BoundResult)

    @pytest.mark.parametrize(
        "count,p,delta,cov_sum",
        [(1, 0.3, 0.0, 0.0), (10, 0.1, 0.2, 0.05), (400, 0.02, 3.0, 1.5), (57, 0.9, 40.0, 2.0)],
    )
    def test_list_of_equal_means_matches_one_entry_summary(self, count, p, delta, cov_sum):
        one = homog(count, p, delta, cov_sum)
        listed = hetero([p] * count, delta=delta, cov_sum=cov_sum)
        for t in (None, 0.7):
            a = {e.method: e for e in evaluate_all(one, t=t)}
            b = {e.method: e for e in evaluate_all(listed, t=t)}
            assert set(a) == set(b)
            for method, e in b.items():
                if method == "lv-iid" and count > 1:
                    continue  # evaluated for (p,) only, and equal to lv-general
                x, y = e.value.log_value, a[method].value.log_value
                assert not log_exceeds(x, y) and not log_exceeds(y, x), (method, x, y)

    def test_negative_cov_skips_additive_bounds_only(self):
        s = hypergraph_summary(6, 2, 16)
        by = {e.method: e for e in evaluate_all(s)}
        for method in ("boutsikas-koutras", "lv-iid", "lv-optimal"):
            assert isinstance(by[method], SkippedBound)
        for method in ("janson-basic", "janson-ratio", "boppona-spencer",
                       "independent-lower"):
            assert isinstance(by[method], BoundResult)

    def test_json_shape(self):
        rows = [e.to_json_dict() for e in evaluate_all(runs_summary(10, 2, 0.5))]
        for row in rows:
            assert {"method", "log_value", "value", "t", "vacuous",
                    "skipped_reason"} <= set(row)

    @pytest.mark.parametrize(
        "kwargs,reason",
        [
            ({"t": -1.0}, "positive finite"),
            ({"t": math.inf}, "positive finite"),
            ({"log_t": 800.0}, "t would overflow"),
            ({"log_t": math.nan}, "must be finite"),
            ({"t": 1.0, "log_t": 0.0}, "exactly one"),
            ({"eq2_form": "bogus"}, "form must be one of"),
        ],
    )
    def test_bad_argument_refused_before_any_bound(self, kwargs, reason, monkeypatch):
        # a skipped row would hide the caller's mistake; no bound may run
        def no_bound(*args, **kwargs):
            raise AssertionError("a bound was evaluated")

        for name in ("janson_basic", "janson_ratio", "lv_general", "lv_optimal"):
            monkeypatch.setattr(bounds, name, no_bound)
        with pytest.raises(ValueError, match=reason):
            evaluate_all(runs_summary(10, 2, 0.5), **kwargs)

    @pytest.mark.parametrize("means", [(0.1,), (0.1, 0.3, 1.0)], ids=["shared", "listed"])
    @pytest.mark.parametrize("t", [None, 0.7])
    def test_a_summary_binds_its_means_once(self, means, t, monkeypatch):
        # built in the case: a summary shared between cases would keep its bind
        s = homog(12, means[0], 0.02, 0.01) if len(means) == 1 else hetero(means, 0.02, 0.01)
        bind, binds = family._bind_means, []
        monkeypatch.setattr(family, "_bind_means", lambda *a: binds.append(a) or bind(*a))
        evaluate_all(s, t=t)
        lv_general(s, 0.3)
        lv_general(s, log_t=-2.0)
        assert binds == [(s.count, s.means)]

    def test_janson_ratio_refuses_an_unknown_form(self):
        with pytest.raises(ValueError, match="form must be one of"):
            janson_ratio(runs_summary(10, 2, 0.5), form="bogus")

    def test_tightest_upper_excludes_lower_and_vacuous(self):
        s = runs_summary(10, 2, 0.5)
        entries = evaluate_all(s)
        best = tightest_upper(entries)
        assert best is not None and best.method != "independent-lower"
        assert not best.vacuous
        all_vacuous = evaluate_all(homog(2, 0.0, 0.0, 0.0))
        assert tightest_upper(all_vacuous) is None


class TestDominationSpotChecks:
    """Bounds against the exact oracle on one associated-family instance."""

    @pytest.mark.parametrize("variant", [FIRST_PRINCIPLES, PAPER_AS_PRINTED])
    def test_runs_bounds_bracket_truth(self, variant):
        s = runs_summary(10, 2, 0.5, variant)
        truth = runs_zero_exact(10, 2, 0.5).linear
        entries = evaluate_all(s, eq2_form="standard")
        for e in entries:
            assert isinstance(e, BoundResult)
            if e.method == "independent-lower":
                assert e.value.linear <= truth + 1e-9
            elif not e.vacuous:
                assert e.value.linear >= truth - 1e-9
