"""Model summaries against exhaustive enumeration, and the samplers."""

from __future__ import annotations

import functools
import json
import math
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from assocbounds import models, oracles
from assocbounds.family import ModelSpec
from assocbounds.models import (
    _DISJOINT,
    _EDGE,
    _SHARING,
    FIRST_PRINCIPLES,
    PAPER_AS_PRINTED,
    _pair_cov,
    _per_draw_avoid,
    hypergraph_edge_prob,
    hypergraph_joint_probs,
    hypergraph_summary,
    runs_poisson_band,
    runs_summary,
    simulate_batch,
    triangle_free_exact,
    triangles_summary,
    trial_uniforms,
    ustat_summary,
)
from assocbounds.numerics import clopper_pearson
from assocbounds.oracles import DEFAULT_SEED, monte_carlo

from conftest import (
    enum_hypergraph_family,
    enum_runs_family,
    enum_triangles_family,
    enum_ustat_family,
)

REL = 1e-10


def assert_matches_enumeration(summary, enum_stats):
    lam, delta, cov = enum_stats
    assert summary.lambda_ == pytest.approx(lam, rel=REL, abs=1e-12)
    assert summary.delta == pytest.approx(delta, rel=REL, abs=1e-12)
    assert summary.cov_sum == pytest.approx(cov, rel=REL, abs=1e-12)


class TestRunsSummary:
    @pytest.mark.parametrize("n,k", [(6, 2), (10, 2), (12, 3), (16, 4)])
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.9])
    def test_first_principles_matches_enumeration(self, n, k, p):
        s = runs_summary(n, k, p, FIRST_PRINCIPLES)
        assert_matches_enumeration(s, enum_runs_family(n, k, p))

    def test_degenerate_p_zero(self):
        s = runs_summary(10, 2, 0.0)
        assert s.lambda_ == 0.0 and s.delta == 0.0 and s.cov_sum == 0.0

    def test_printed_formula_frozen_example(self):
        s = runs_summary(10, 2, 0.5, PAPER_AS_PRINTED)
        # (n/2) p^(k+1) (1 - p^(k-1)) / (1 - p) at these parameters
        assert s.delta == pytest.approx(0.625, rel=1e-15)
        assert s.cov_sum == s.delta

    def test_printed_matches_closed_form(self):
        for n, k, p in [(10, 2, 0.5), (14, 3, 0.2), (20, 4, 0.7)]:
            s = runs_summary(n, k, p, PAPER_AS_PRINTED)
            closed = (n / 2) * p ** (k + 1) * (1 - p ** (k - 1)) / (1 - p)
            assert s.delta == pytest.approx(closed, rel=1e-12)

    def test_first_principles_frozen_example(self):
        s = runs_summary(10, 2, 0.5, FIRST_PRINCIPLES)
        assert s.delta == pytest.approx(1.25, rel=1e-15)
        assert s.cov_sum == pytest.approx(0.625, rel=1e-15)

    def test_parameter_violations(self):
        with pytest.raises(ValueError):
            runs_summary(3, 2, 0.5)
        with pytest.raises(ValueError):
            runs_summary(10, 0, 0.5)

    @pytest.mark.parametrize("f", [runs_summary, models.runs_zero_exact],
                             ids=["summary", "exact"])
    @pytest.mark.parametrize("n,k,p", [(10, 0, 0.5), (1, 2, 0.5), (10, 2, 1.5),
                                       (10, 2, math.nan), (1, 0, 2.0)])
    def test_violations_are_the_spec_check(self, f, n, k, p):
        # the family's own check, not a restatement; (1, 0, 2.0) names two
        expected = "; ".join(models.FAMILIES["runs"].check(n, k, p))
        with pytest.raises(ValueError) as exc:
            f(n, k, p)
        assert str(exc.value) == expected

    def test_poisson_band_values(self):
        center, radius = runs_poisson_band(10, 2, 0.5)
        assert center == pytest.approx(math.exp(-10 * 0.5 * 0.25), rel=1e-15)
        assert radius == pytest.approx((2 * 2 * 0.5 + 1) * 0.25, rel=1e-15)

    @pytest.mark.parametrize("n,k,p", [(-5, 2, 0.5), (10, 0, 0.5), (1, 2, 0.5), (1, 0, 2.0)])
    def test_poisson_band_refuses_the_spec_violations(self, n, k, p):
        expected = "; ".join(models.FAMILIES["runs"].check(n, k, p))
        with pytest.raises(ValueError) as exc:
            runs_poisson_band(n, k, p)
        assert str(exc.value) == expected


class TestTrianglesSummary:
    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("p", [0.3, 0.5])
    def test_first_principles_matches_enumeration(self, n, p):
        s = triangles_summary(n, p, FIRST_PRINCIPLES)
        assert_matches_enumeration(s, enum_triangles_family(n, p))

    def test_single_triangle_has_no_pairs(self):
        s = triangles_summary(3, 0.5)
        assert s.count == 1 and s.delta == 0.0 and s.cov_sum == 0.0

    def test_frozen_examples(self):
        fp = triangles_summary(6, 0.5, FIRST_PRINCIPLES)
        assert fp.cov_sum == pytest.approx(1.40625, rel=1e-15)
        printed = triangles_summary(6, 0.5, PAPER_AS_PRINTED)
        assert printed.delta == pytest.approx(5.625, rel=1e-15)


class TestUstatSummary:
    @pytest.mark.parametrize("n,k", [(5, 2), (8, 2), (8, 3), (6, 1)])
    @pytest.mark.parametrize("p", [0.2, 0.6])
    def test_first_principles_matches_enumeration(self, n, k, p):
        s = ustat_summary(n, k, p, FIRST_PRINCIPLES)
        assert_matches_enumeration(s, enum_ustat_family(n, k, p))

    def test_singletons_are_independent(self):
        s = ustat_summary(9, 1, 0.4)
        assert s.delta == 0.0 and s.cov_sum == 0.0

    def test_frozen_examples(self):
        fp = ustat_summary(4, 2, 0.5, FIRST_PRINCIPLES)
        assert fp.delta == pytest.approx(1.5, rel=1e-15)
        assert fp.cov_sum == pytest.approx(0.75, rel=1e-15)
        printed = ustat_summary(4, 2, 0.5, PAPER_AS_PRINTED)
        assert printed.delta == pytest.approx(0.75, rel=1e-15)

    @pytest.mark.parametrize("variant", [FIRST_PRINCIPLES, PAPER_AS_PRINTED])
    @pytest.mark.parametrize("n,k", [(3000, 1500), (1100, 550), (1030, 515)])
    def test_count_beyond_double_range_refused(self, n, k, variant):
        # C(n, k) exceeds 1.8e308; the oracle at the same spec still works
        with pytest.raises(ValueError, match="double range"):
            ustat_summary(n, k, 0.5, variant)
        truth = models.ustat_zero_exact(n, k, 0.5).log_value
        assert -0.72 < truth < -0.7

    @pytest.mark.parametrize("variant", [FIRST_PRINCIPLES, PAPER_AS_PRINTED])
    def test_pair_sums_beyond_double_range_refused(self, variant):
        # C(1020, 510), about 2.8e305, fits in a double; delta, a sum over
        # pairs of subsets, does not
        with pytest.raises(ValueError, match="double range"):
            ustat_summary(1020, 510, 0.9, variant)


# the indicators fit in a double but delta or cov_sum, as computed, do not:
# fsum overflows (runs), 0 * inf reads NaN (triangles at p = 0), or a pair
# count is too large for a float (hypergraph-cover); the FamilySummary
# constructor refuses the inf or NaN
@pytest.mark.parametrize(
    "summary,args",
    [
        (runs_summary, (10**308, 3, 1.0)),
        (triangles_summary, (10**102, 0.0)),
        (hypergraph_summary, (10**100, 3, 5)),
    ],
    ids=["runs", "triangles", "hypergraph-cover"],
)
def test_overflowing_pair_sums_refused(summary, args):
    with pytest.raises(ValueError, match="is not a number inside the double range"):
        summary(*args)


# more correlated pairs than a double holds, but finite sums: still built
@pytest.mark.parametrize(
    "summary,args",
    [(ustat_summary, (600, 300, 0.5)), (runs_summary, (10**308, 3, 0.5))],
    ids=["ustat", "runs"],
)
def test_pair_count_beyond_double_range_with_finite_sums_builds(summary, args):
    s = summary(*args)
    assert math.isfinite(s.delta) and math.isfinite(s.cov_sum)
    assert s.delta > 1e222


def test_delta_bar_may_round_to_inf():
    # delta = 1e308 fits; lambda + 2*delta does not, and is left unchecked
    s = runs_summary(10**308, 2, 1.0)
    assert s.delta == 1e308 and math.isinf(s.delta_bar)


@functools.lru_cache(maxsize=None)
def _anchor_partners(family, shape):
    """(count, k, partners) from the family's index sets themselves: partners
    maps u to how many sets meet the first one and span u indices with it.
    Every set is alike, so each has these partners; the summaries' pair
    classes play no part."""
    if family == "runs":  # n windows of k places on a cycle of n
        n, k = shape
        sets = [frozenset((i + t) % n for t in range(k)) for i in range(n)]
    elif family == "triangles":  # the edge sets of the triangles of K_n
        (n,), k = shape, 3
        sets = [frozenset(combinations(t, 2)) for t in combinations(range(n), 3)]
    else:  # the k-subsets of n indices
        n, k = shape
        sets = [frozenset(c) for c in combinations(range(n), k)]
    first = sets[0]
    return len(sets), k, Counter(len(first | b) for b in sets[1:] if first & b)


def _reference_pair_sums(family, shape, p, variant):
    """(delta, cov_sum) at 100 digits; near p = 1, 60 digits are too few for
    p^e - p^(2k).  First-principles sums over every unordered pair of sets
    that meet, count/2 times the partners of one; the printed variant reads
    the printed closed forms, which reuse delta as the covariance sum."""
    count, k, partners = _anchor_partners(family, shape)
    n = shape[0]
    with mpmath.workdps(100):
        p = mpmath.mpf(p)  # exact: every double is a binary fraction
        if variant == FIRST_PRINCIPLES:
            half = mpmath.mpf(count) / 2
            delta = half * mpmath.fsum(m * p**u for u, m in partners.items())
            cov = half * mpmath.fsum(m * (p**u - p ** (2 * k)) for u, m in partners.items())
            return delta, cov
        if family == "runs":  # n/2 pairs at each offset d < k
            delta = mpmath.mpf(n) / 2 * mpmath.fsum(p ** (k + d) for d in range(1, k))
        elif family == "triangles":  # 3n partners per triangle
            delta = mpmath.mpf(count) * 3 * n / 2 * p**5
        else:  # C(n - k, j) partners sharing all but j indices
            delta = mpmath.mpf(count) / 2 * mpmath.fsum(
                math.comb(n - k, j) * p ** (k + j) for j in range(1, k)
            )
        return delta, delta


_SUMMARIES = {"runs": runs_summary, "triangles": triangles_summary, "ustat": ustat_summary}
# p = 10^-j, p <= 1/2, and p = 1 - 10^-j, where p^e - p^(2k) cancels
_PAIR_SUM_POINTS = ([10.0**-j for j in range(1, 13)] + [0.5, 0.45, 1 / 3, 0.2]
                    + [1 - 10.0**-j for j in range(1, 13)])
# the largest relative errors read on these points were 2.9e-16 for both
# delta and cov_sum (runs (1000, 3), p = 1e-3); near p = 1, 2.3e-16 for
# cov_sum (runs (50, 5), p = 1 - 1e-11), where the difference of powers
# read 8e-9 (runs (50, 5), p = 1 - 1e-9)
_DELTA_REL, _COV_REL = 4e-16, 4e-16


def _relative_error(x, ref):
    with mpmath.workdps(100):
        return 0.0 if x == ref == 0 else float(abs((mpmath.mpf(x) - ref) / ref))


@pytest.mark.parametrize("variant", [FIRST_PRINCIPLES, PAPER_AS_PRINTED])
@pytest.mark.parametrize(
    "family,shape",
    [("runs", (20, 2)), ("runs", (1000, 3)), ("runs", (50, 5)),
     ("triangles", (6,)), ("triangles", (30,)), ("triangles", (40,)),
     ("ustat", (20, 3)), ("ustat", (60, 2)), ("ustat", (24, 4))],
    ids=lambda x: x if isinstance(x, str) else ",".join(map(str, x)),
)
def test_pair_sums_match_a_100_digit_reference(family, shape, variant):
    for p in _PAIR_SUM_POINTS:
        s = _SUMMARIES[family](*shape, p, variant)
        delta, cov = _reference_pair_sums(family, shape, p, variant)
        assert _relative_error(s.delta, delta) <= _DELTA_REL, p
        assert _relative_error(s.cov_sum, cov) <= _COV_REL, p


# p^e - p^(2k) cancels near p = 1: written as a difference, it read about
# 5e-9 relative at these points
@pytest.mark.parametrize("family,shape", [("runs", (1000, 3)), ("triangles", (30,)),
                                          ("ustat", (20, 3))],
                         ids=["runs-1000,3", "triangles-30", "ustat-20,3"])
def test_cov_sum_near_one_matches_a_100_digit_reference(family, shape):
    p = 1 - 1e-9
    s = _SUMMARIES[family](*shape, p, FIRST_PRINCIPLES)
    _, cov = _reference_pair_sums(family, shape, p, FIRST_PRINCIPLES)
    assert _relative_error(s.cov_sum, cov) <= _COV_REL


class TestHypergraphProbabilities:
    def test_full_clique_covers_everything(self):
        assert hypergraph_edge_prob(5, 5, 3).linear == 0.0
        q_s, q_d = hypergraph_joint_probs(5, 5, 3)
        assert q_s.linear == 0.0 and q_d.linear == 0.0

    def test_joint_probs_on_three_and_two_vertices(self):
        # K_3 has no disjoint pair of edges, reported as probability zero
        q_s, q_d = hypergraph_joint_probs(3, 2, 2)
        assert q_s.linear == pytest.approx(1 / 9, rel=1e-15)
        assert q_d.log_value == -math.inf
        with pytest.raises(ValueError, match="require N >= 3, got N=2"):
            hypergraph_joint_probs(2, 2, 1)

    def test_edge_prob_single_draw(self):
        assert hypergraph_edge_prob(3, 2, 1).linear == pytest.approx(2 / 3, rel=1e-15)

    def test_edge_prob_frozen_large_exponent(self):
        got = hypergraph_edge_prob(10, 3, 200)
        assert got.log_value == pytest.approx(200 * math.log(14 / 15), rel=1e-14)
        assert got.linear == pytest.approx(1.017080492132362e-06, rel=1e-12)

    def test_joint_single_draw_counts(self):
        q_s, _ = hypergraph_joint_probs(4, 2, 1)
        assert q_s.linear == pytest.approx(4 / 6, rel=1e-15)
        _, q_d = hypergraph_joint_probs(5, 2, 1)
        assert q_d.linear == pytest.approx(8 / 10, rel=1e-15)

    @pytest.mark.parametrize("N,k", [(6, 3), (8, 3), (10, 4), (12, 5)])
    @pytest.mark.parametrize("n_draws", [2, 16, 128])
    def test_share_dominates_disjoint(self, N, k, n_draws):
        q_s, q_d = hypergraph_joint_probs(N, k, n_draws)
        assert q_s.log_value >= q_d.log_value

    @pytest.mark.parametrize("N", [5, 6, 8, 12])
    @pytest.mark.parametrize("n_draws", [2, 16, 128])
    def test_sharing_pairs_positively_correlated_for_k3(self, N, n_draws):
        q_s, _ = hypergraph_joint_probs(N, 3, n_draws)
        p = hypergraph_edge_prob(N, 3, n_draws)
        assert q_s.log_value >= 2 * p.log_value - 1e-12

    @pytest.mark.parametrize("N,k,n_draws", [(5, 2, 4), (6, 3, 8), (8, 4, 16)])
    def test_disjoint_pairs_negatively_correlated(self, N, k, n_draws):
        # a single draw can never cover two disjoint edges unless it has
        # k >= 4 vertices, and even then the joint stays below the product:
        # disjoint pairs compete for draws
        _, q_d = hypergraph_joint_probs(N, k, n_draws)
        p = hypergraph_edge_prob(N, k, n_draws)
        assert q_d.log_value < 2 * p.log_value

    @pytest.mark.parametrize(
        "N,k,n_draws", [(4, 2, 2), (4, 3, 3), (5, 2, 3), (5, 3, 4), (5, 4, 2)]
    )
    def test_summary_matches_enumeration(self, N, k, n_draws):
        s = hypergraph_summary(N, k, n_draws)
        assert_matches_enumeration(s, enum_hypergraph_family(N, k, n_draws))

    @pytest.mark.parametrize("pattern", [_EDGE, _SHARING, _DISJOINT])
    def test_per_draw_avoid_counts_the_free_draws(self, pattern):
        # the free k-subsets: counts[j] ways to take j independent vertices
        # of the span, times C(N - span, k - j) for the rest
        span, counts = pattern
        for N in range(span, 13):
            for k in range(2, N + 1):
                free = sum(c * math.comb(N - span, k - j) for j, c in enumerate(counts))
                assert _per_draw_avoid(N, k, *pattern) == Fraction(free, math.comb(N, k))

    def test_huge_draws_are_cheap(self):
        # each per-draw rational is a ratio of falling factorials with at
        # most 4 factors, so a 10^4-vertex draw costs what a 3-vertex one does
        with pytest.raises(ValueError, match=r"indicators is about 10\^319\.7"):
            hypergraph_summary(10**160, 10**4, 1)
        s = hypergraph_summary(10**50, 10**4, 5)
        assert s.count == math.comb(10**50, 2) and s.means == (1.0,)

    @pytest.mark.parametrize("N", [10**4, 10**6])
    @pytest.mark.parametrize("k", [3, 5])
    def test_large_N_against_exact_rationals(self, N, k):
        # per-draw probabilities by inclusion-exclusion over the vertices a
        # draw must contain: one edge needs 2, a sharing pair 3, a disjoint
        # pair 4, and a draw contains a given j-set with prob (k)_j / (N)_j
        contains = [Fraction(math.perm(k, j), math.perm(N, j)) for j in range(5)]
        a = 1 - contains[2]
        b_share = 1 - 2 * contains[2] + contains[3]
        b_disjoint = 1 - 2 * contains[2] + contains[4]
        assert (a, b_share, b_disjoint) == (
            _per_draw_avoid(N, k, 2, (1, 2)),
            _per_draw_avoid(N, k, 3, (1, 3, 1)),
            _per_draw_avoid(N, k, 4, (1, 4, 4)),
        )

        def mp(x: Fraction) -> mpmath.mpf:
            return mpmath.mpf(x.numerator) / x.denominator

        for n_draws in (1, 1000, N * N // 10, N * N):
            with mpmath.workdps(60):
                log_a = float(n_draws * mpmath.log(mp(a)))
                log_share = float(n_draws * mpmath.log(mp(b_share)))
                log_disjoint = float(n_draws * mpmath.log(mp(b_disjoint)))
                cov_share = float(mp(b_share) ** n_draws - mp(a) ** (2 * n_draws))
                cov_disjoint = float(mp(b_disjoint) ** n_draws - mp(a) ** (2 * n_draws))
            q_s, q_d = hypergraph_joint_probs(N, k, n_draws)
            assert hypergraph_edge_prob(N, k, n_draws).log_value == pytest.approx(
                log_a, rel=1e-12, abs=0.0
            )
            assert q_s.log_value == pytest.approx(log_share, rel=1e-12, abs=0.0)
            assert q_d.log_value == pytest.approx(log_disjoint, rel=1e-12, abs=0.0)
            assert _pair_cov(b_share, a, n_draws) == pytest.approx(
                cov_share, rel=1e-12, abs=0.0
            )
            assert _pair_cov(b_disjoint, a, n_draws) == pytest.approx(
                cov_disjoint, rel=1e-12, abs=0.0
            )

    @given(
        st.integers(4, 2000).flatmap(
            lambda N: st.tuples(st.just(N), st.integers(2, N - 1))
        ),
        st.integers(1, 10**6),
        st.sampled_from([_SHARING, _DISJOINT]),
    )
    @example((7, 3), 20, _DISJOINT)  # a negative covariance
    @example((1000, 999), 60, _SHARING)  # a^(2n) rounds to 0, b^n = 1e-180 does not
    @example((1000, 999), 200, _SHARING)  # expm1(n ln(b/a^2)) would overflow
    def test_pair_cov_against_60_digits(self, shape, n_draws, pattern):
        N, k = shape
        a, b = _per_draw_avoid(N, k, *_EDGE), _per_draw_avoid(N, k, *pattern)
        with mpmath.workdps(60):
            exact = (mpmath.mpf(b.numerator) / b.denominator) ** n_draws - (
                mpmath.mpf(a.numerator) / a.denominator
            ) ** (2 * n_draws)
            err = abs(_pair_cov(b, a, n_draws) - exact)
            # the docstring's bound, and two subnormal ulps where the
            # covariance falls below the normal range
            ulps = 4 + 2 * abs(2 * n_draws * math.log(a))
            assert err <= ulps * 2.0**-52 * abs(exact) + 2.0**-1073, (err, exact)

    def test_pair_cov_where_expm1_would_overflow(self):
        # n ln(b/a^2) = 400 ln 8 > 709: a^(2n) = 2^-1600 underflows while
        # b^n = 2^-400 does not, and the covariance is b^n to 1 - 2^-1200
        assert _pair_cov(Fraction(1, 2), Fraction(1, 4), 400) == pytest.approx(
            2.0**-400, rel=1e-13, abs=0.0
        )

    @pytest.mark.parametrize(
        "N,k,n_draws", [(1000, 999, 200), (10, 9, 10**4), (7, 3, 7 * 10**4), (5, 3, 10**6)]
    )
    def test_summary_where_the_covariances_underflow(self, N, k, n_draws):
        s = hypergraph_summary(N, k, n_draws)
        assert (s.means, s.delta, s.cov_sum) == ((0.0,), 0.0, 0.0)

    def test_degenerate_k_equals_n(self):
        s = hypergraph_summary(4, 4, 5)
        assert s.lambda_ == 0.0 and s.delta == 0.0 and s.cov_sum == 0.0

    def test_parameter_violations(self):
        with pytest.raises(ValueError):
            hypergraph_summary(3, 2, 4)
        with pytest.raises(ValueError):
            hypergraph_edge_prob(5, 1, 4)
        with pytest.raises(ValueError):
            hypergraph_edge_prob(5, 3, 0)


def test_unknown_variant_refused():
    with pytest.raises(ValueError, match="variant must be one of"):
        runs_summary(10, 2, 0.5, "printed")


def test_every_family_refuses_an_unknown_variant_alike():
    # one gate, in the constructor all four summaries go through
    specs = [
        ModelSpec("runs", {"n": 10, "k": 2, "p": 0.5}),
        ModelSpec("triangles", {"n": 6, "p": 0.3}),
        ModelSpec("ustat", {"n": 8, "k": 2, "p": 0.1}),
        ModelSpec("hypergraph-cover", {"N": 6, "k": 3, "n_draws": 20}),
    ]
    messages = set()
    for spec in specs:
        with pytest.raises(ValueError, match="variant must be one of") as refused:
            models.summary_for(spec, variant="nonsense")
        messages.add(str(refused.value))
    assert len(messages) == 1


def test_hypergraph_summary_is_the_same_in_both_variants():
    spec = ModelSpec("hypergraph-cover", {"N": 6, "k": 3, "n_draws": 20})
    assert models.FAMILIES["hypergraph-cover"].summary is hypergraph_summary
    first, printed = (models.summary_for(spec, variant=v) for v in models.VARIANTS)
    assert first == printed == hypergraph_summary(6, 3, 20)


def test_hypergraph_cov_sum_of_underflowed_covariances_is_positive_zero():
    # every pair covariance underflows to -0.0; their sum is 0.0, as math.fsum gives it
    s = hypergraph_summary(4, 2, 3000)
    assert s.cov_sum == 0.0 and math.copysign(1.0, s.cov_sum) == 1.0


INVALID_SPECS = [
    ModelSpec("runs", {"n": 3, "k": 5, "p": 0.5}),
    ModelSpec("runs", {"n": 10}),
    ModelSpec("runs", {"n": 10.5, "k": 2, "p": 1.5}),
    ModelSpec("lattice", {"n": 10}),
    ModelSpec("runs", {"n": 10, "k": 2, "p": 0.3, "N": 7}),
]


# every public function that reads a spec refuses an invalid one, with the
# message of the one gate, bind
@pytest.mark.parametrize(
    "call",
    [
        models.summary_for,
        oracles.oracle_for,
        models.trial_budget,
        lambda spec: simulate_batch(spec, np.zeros((1, 3))),
        lambda spec: monte_carlo(spec, 10),
    ],
    ids=["summary_for", "oracle_for", "trial_budget", "simulate_batch", "monte_carlo"],
)
@pytest.mark.parametrize("spec", INVALID_SPECS, ids=["n<k", "missing", "fractional", "unknown", "foreign"])
def test_invalid_spec_refused_with_its_violations(call, spec):
    with pytest.raises(ValueError) as gate:
        models.bind(spec)
    with pytest.raises(ValueError) as refused:
        call(spec)
    assert str(refused.value) == str(gate.value)


class TestCovBoundedByDelta:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: runs_summary(14, 3, 0.35),
            lambda: triangles_summary(7, 0.45),
            lambda: ustat_summary(9, 3, 0.25),
        ],
    )
    def test_first_principles_cov_below_delta(self, build):
        s = build()
        assert 0.0 <= s.cov_sum <= s.delta + 1e-12


def one_trial(spec, seed, i):
    """Whether trial i of the seed's stream gives Z = 0, from a one-trial batch."""
    return bool(simulate_batch(spec, trial_uniforms(spec, seed, i, 1))[0])


class TestSampling:
    def test_runs_p_one_never_zero(self):
        spec = ModelSpec("runs", {"n": 8, "k": 2, "p": 1.0})
        assert not one_trial(spec, 7, 0)

    def test_ustat_p_zero_always_zero(self):
        spec = ModelSpec("ustat", {"n": 8, "k": 2, "p": 0.0})
        assert one_trial(spec, 7, 3)

    def test_scalar_deterministic(self):
        spec = ModelSpec("triangles", {"n": 6, "p": 0.5})
        first = [one_trial(spec, 11, i) for i in range(32)]
        second = [one_trial(spec, 11, i) for i in range(32)]
        assert first == second

    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec("runs", {"n": 10, "k": 2, "p": 0.5}),
            ModelSpec("ustat", {"n": 9, "k": 3, "p": 0.3}),
            ModelSpec("triangles", {"n": 6, "p": 0.4}),
            ModelSpec("hypergraph-cover", {"N": 6, "k": 3, "n_draws": 12}),
        ],
    )
    def test_scalar_equals_batch(self, spec):
        u = trial_uniforms(spec, 99, 0, 64)
        batch = simulate_batch(spec, u)
        scalars = [one_trial(spec, 99, i) for i in range(64)]
        assert [bool(b) for b in batch] == scalars

    def test_batch_offset_consistency(self):
        # a batch starting mid-range reproduces the same trials
        spec = ModelSpec("runs", {"n": 10, "k": 2, "p": 0.5})
        whole = simulate_batch(spec, trial_uniforms(spec, 5, 0, 40))
        tail = simulate_batch(spec, trial_uniforms(spec, 5, 25, 15))
        assert [bool(b) for b in whole[25:]] == [bool(b) for b in tail]

    def test_triangle_sampler_matches_exact_oracle(self):
        spec = ModelSpec("triangles", {"n": 6, "p": 0.5})
        est = monte_carlo(spec, 1_000_000, seed=314159, level=0.99)
        exact = triangle_free_exact(6, 0.5).linear
        assert est.ci.contains(exact)

    def test_ustat_sampler_matches_binomial_tail(self):
        spec = ModelSpec("ustat", {"n": 12, "k": 3, "p": 0.2})
        est = monte_carlo(spec, 1_000_000, seed=161803, level=0.99)
        assert est.ci.contains(models.ustat_zero_exact(12, 3, 0.2).linear)

    def test_hypergraph_sampler_matches_enumeration(self):
        from conftest import enum_hypergraph_cover_prob

        spec = ModelSpec("hypergraph-cover", {"N": 5, "k": 3, "n_draws": 4})
        est = monte_carlo(spec, 400_000, seed=2718, level=0.99)
        exact = enum_hypergraph_cover_prob(5, 3, 4)
        assert est.ci.contains(exact)

    @pytest.mark.usefixtures("no_trials")
    @pytest.mark.parametrize("level", [1.5, 0.0, 1.0, math.nan])
    def test_bad_level_refused_before_any_trial(self, level):
        spec = ModelSpec("runs", {"n": 30, "k": 3, "p": 0.3})
        with pytest.raises(ValueError, match="level must be in"):
            monte_carlo(spec, 3_000_000, level=level)

    @pytest.mark.usefixtures("no_trials")
    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_bad_seed_refused_before_any_trial(self, seed):
        spec = ModelSpec("runs", {"n": 30, "k": 3, "p": 0.3})
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*128\)"):
            monte_carlo(spec, 3_000_000, seed=seed, workers=2)

    @pytest.mark.usefixtures("no_trials")
    @pytest.mark.parametrize(
        "option,value,message",
        [
            # these ran seed 1's stream and reported the seed given
            ("seed", 1.5, "seed must be an integer, got 1.5"),
            ("seed", 1.9, "seed must be an integer, got 1.9"),
            ("seed", True, "seed must be an integer, got True"),
            # reported as "trials": true
            ("trials", True, "trials must be an integer, got True"),
            ("trials", 100.5, "trials must be an integer, got 100.5"),
            ("workers", 2.5, "workers must be an integer, got 2.5"),
            ("level", True, "level must be a number, got True"),
            ("level", "high", "level must be a number, got 'high'"),
        ],
    )
    def test_fraction_or_boolean_option_refused_before_any_trial(self, option, value, message):
        spec = ModelSpec("runs", {"n": 20, "k": 2, "p": 0.3})
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            monte_carlo(spec, **{"trials": 20_000, option: value})

    def test_integral_options_run_as_their_ints(self):
        # 100.0 trials and 2.0 workers crashed with TypeError, "7" as a seed too
        spec = ModelSpec("runs", {"n": 20, "k": 2, "p": 0.3})
        want = monte_carlo(spec, 20_000, seed=7, workers=2)
        for got in (monte_carlo(spec, 20_000.0, seed=7.0, workers=2.0),
                    monte_carlo(spec, 20_000, seed="7", workers=2, level="0.95")):
            assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
            assert (type(got.trials), type(got.seed)) == (int, int)
        assert monte_carlo(spec, 20_000, seed=1).successes == 4466

    @pytest.mark.parametrize("seed", [0, 2**128 - 1])
    def test_seed_range_ends_accepted(self, seed):
        spec = ModelSpec("ustat", {"n": 8, "k": 2, "p": 0.0})
        est = monte_carlo(spec, 10, seed=seed)
        assert est.seed == seed and est.successes == 10

    def test_clopper_pearson_attached(self):
        spec = ModelSpec("ustat", {"n": 8, "k": 2, "p": 0.0})
        est = monte_carlo(spec, 500, seed=1)
        assert est.estimate == 1.0
        assert est.ci == clopper_pearson(500, 500, 0.95)


class TestPhiloxContract:
    """Exact success counts at the default seed, the same for one, two and
    three workers and small batches; a change to a sampler or to the stream
    layout shows here.  Criterion 6 pins the 1M-trial coverage count."""

    @pytest.mark.parametrize(
        "schedule", ["workers=1", "workers=2", "workers=3", "small batches"]
    )
    @pytest.mark.parametrize(
        "model,params,trials,successes",
        [
            ("hypergraph-cover", {"N": 10, "k": 3, "n_draws": 60}, 20_000, 9509),
            ("hypergraph-cover", {"N": 12, "k": 4, "n_draws": 30}, 20_000, 324),
            # the mc-cover shape: every trial covers, most well before draw 200
            ("hypergraph-cover", {"N": 10, "k": 3, "n_draws": 200}, 20_000, 20_000),
            # over the table cap: sampled draw by draw
            ("hypergraph-cover", {"N": 16, "k": 6, "n_draws": 25}, 5_000, 92),
            ("runs", {"n": 100, "k": 3, "p": 0.3}, 100_000, 13013),
            ("runs", {"n": 9, "k": 5, "p": 0.6}, 20_000, 14174),  # windows wrap
            ("runs", {"n": 7, "k": 7, "p": 0.9}, 20_000, 10481),  # n = k
            ("runs", {"n": 10, "k": 1, "p": 0.05}, 20_000, 12069),  # k = 1
            ("triangles", {"n": 20, "p": 0.1}, 20_000, 7646),
            # about 75 gather steps per batch at the default budget
            ("triangles", {"n": 50, "p": 0.05}, 2_000, 255),
            ("ustat", {"n": 24, "k": 3, "p": 0.05}, 100_000, 88266),
        ],
        ids=lambda v: "-".join(map(str, v.values())) if isinstance(v, dict) else None,
    )
    def test_pinned_success_count(
        self, model, params, trials, successes, schedule, monkeypatch
    ):
        if schedule == "small batches":
            monkeypatch.setattr(oracles, "_BATCH_WORDS", 5000)
            monkeypatch.setattr(oracles, "_MIN_ROWS", 1)
        workers = int(schedule[-1]) if schedule.startswith("workers=") else 1
        est = monte_carlo(ModelSpec(model, params), trials, seed=DEFAULT_SEED, workers=workers)
        assert est.successes == successes


@pytest.fixture
def fresh_cover_tables():
    models._cover_table.cache_clear()
    yield
    models._cover_table.cache_clear()


@pytest.mark.usefixtures("fresh_cover_tables")
class TestCoverTable:
    @pytest.mark.parametrize(
        "N,k,n_draws,rows,gather_words",
        [
            pytest.param(6, 2, 20, 3000, None, id="6-2-20"),  # k = 2
            pytest.param(5, 5, 3, 3000, None, id="5-5-3"),  # k = N
            pytest.param(7, 3, 1, 3000, None, id="7-3-1"),  # one draw
            pytest.param(10, 3, 60, 3000, None, id="10-3-60"),
            # 66 edges: two mask words; few trials cover, so none drops out
            pytest.param(12, 4, 30, 3000, None, id="12-4-30"),
            pytest.param(20, 3, 150, 3000, None, id="20-3-150"),  # 190 edges: three words
            # every trial covers within a few table steps
            pytest.param(6, 3, 200, 3000, None, id="6-3-200"),
            # the mc-cover shape: most trials drop out long before draw 200
            pytest.param(10, 3, 200, 3000, None, id="10-3-200"),
            # steps lengthen as trials drop out
            pytest.param(10, 3, 400, 3000, None, id="10-3-400"),
            # one row: one step of all its draws
            pytest.param(10, 3, 200, 1, None, id="10-3-200-one-row"),
            # every step one draw, so trials drop out after any draw
            pytest.param(10, 3, 60, 3000, 1, id="10-3-60-one-draw-steps"),
        ],
    )
    def test_table_equals_draw_by_draw(self, N, k, n_draws, rows, gather_words, monkeypatch):
        spec = ModelSpec("hypergraph-cover", {"N": N, "k": k, "n_draws": n_draws})
        u = trial_uniforms(spec, 4242, 0, rows)
        if gather_words is not None:
            monkeypatch.setattr(models, "_GATHER_WORDS", gather_words)
        by_table = simulate_batch(spec, u)
        assert models._cover_table(N, k) is not None
        monkeypatch.setattr(models, "_TABLE_WORDS", 0)
        models._cover_table.cache_clear()
        by_draw = simulate_batch(spec, u)
        assert models._cover_table(N, k) is None
        assert np.array_equal(by_table, by_draw)

    @pytest.mark.parametrize(
        "spec",
        [
            pytest.param(ModelSpec("hypergraph-cover", {"N": 10, "k": 3, "n_draws": 5}), id="10-3"),
            pytest.param(ModelSpec("hypergraph-cover", {"N": 16, "k": 6, "n_draws": 5}), id="16-6"),
            pytest.param(ModelSpec("runs", {"n": 10, "k": 3, "p": 0.5}), id="runs"),
            pytest.param(ModelSpec("triangles", {"n": 8, "p": 0.5}), id="triangles"),
        ],
    )  # cover by table, cover draw by draw, then the two index-set families
    def test_empty_batch(self, spec):
        assert simulate_batch(spec, trial_uniforms(spec, 1, 0, 0)).shape == (0,)

    def test_table_respects_cap(self):
        shapes = [(4, 2), (10, 3), (12, 4), (10, 6), (12, 5), (70, 2),
                  (13, 5), (16, 6), (10, 10), (100, 3)]
        built = {}
        for N, k in shapes:
            table = models._cover_table(N, k)
            if table is not None:
                assert table.shape[0] == math.perm(N, k)
                assert table.shape[1] * 64 >= math.comb(N, 2) > (table.shape[1] - 1) * 64
                assert table.size <= models._TABLE_WORDS
                assert not table.flags.writeable
            built[N, k] = table is not None
        assert built == {
            (4, 2): True, (10, 3): True, (12, 4): True, (10, 6): True,
            (12, 5): True, (70, 2): True,
            (13, 5): False, (16, 6): False, (10, 10): False, (100, 3): False,
        }


def has_all_ones_set(spec, row):
    """Whether some run window or triangle of one row's bits is all ones."""
    n = spec.params["n"]
    if spec.model == "runs":
        return any(all(row[(i + j) % n] for j in range(spec.params["k"])) for i in range(n))
    edge = {e: i for i, e in enumerate(combinations(range(n), 2))}
    return any(
        row[edge[a, b]] and row[edge[a, c]] and row[edge[b, c]]
        for a, b, c in combinations(range(n), 3)
    )


INDEX_SET_CASES = [
    *(ModelSpec("runs", {"n": n, "k": k, "p": p})
      for n, k in [(1, 1), (5, 1), (7, 7), (9, 5), (10, 2), (30, 3)]
      for p in (0.2, 0.5, 0.9)),
    *(ModelSpec("triangles", {"n": n, "p": p}) for n in range(3, 9) for p in (0.2, 0.5, 0.9)),
]


def numpy_doubles(w):
    """The uniform doubles numpy's ``Generator.random`` makes of Philox words w."""
    return (w >> 11) * 2.0**-53


class TestNoneAllOnes:
    """Runs and triangles, sampled as "no indicator's bit set is all ones",
    against a per-row Python reference on numpy's doubles of the words."""

    @pytest.mark.parametrize("budget", ["default", "one set per step"])
    @pytest.mark.parametrize(
        "spec", INDEX_SET_CASES, ids=lambda s: "-".join(map(str, [s.model, *s.params.values()]))
    )
    def test_matches_a_per_row_reference(self, spec, budget, monkeypatch):
        if budget == "one set per step":
            monkeypatch.setattr(models, "_GATHER_WORDS", 1)
        w = trial_uniforms(spec, 2024, 0, 203)
        bits = numpy_doubles(w) < spec.params["p"]
        expected = [not has_all_ones_set(spec, row) for row in bits.tolist()]
        # batches that fill no whole last byte of eight trials, and one that does
        for rows in (1, 7, 9, 200, 203):
            assert simulate_batch(spec, w[:rows]).tolist() == expected[:rows]

    @pytest.mark.parametrize("rows", [0, 1, 7, 8, 9, 203])
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_packing_round_trip(self, rows, p):
        w = trial_uniforms(ModelSpec("runs", {"n": 13, "k": 2, "p": p}), 7, 0, rows)
        packed = models._packed_bits(w, p)
        assert packed.dtype == np.uint8 and packed.shape == (13, -(-rows // 8))
        assert packed.flags.c_contiguous
        unpacked = np.unpackbits(packed, axis=1, count=rows, bitorder="little")
        assert np.array_equal(unpacked.T.astype(bool), numpy_doubles(w) < p)
        # the padding bits of the last byte stay zero
        assert not np.unpackbits(packed, axis=1, bitorder="little")[:, rows:].any()

    @pytest.mark.parametrize(
        "spec",
        [
            # gathering all C(n, 3) triangles at once peaked at 378 MiB
            pytest.param(ModelSpec("triangles", {"n": 100, "p": 0.05}), id="triangles-n100"),
            # prefix sums peaked at 134 MiB; a k x n window gather at GBs
            pytest.param(ModelSpec("runs", {"n": 10_000, "k": 10_000, "p": 0.9}), id="runs-k10000"),
        ],
    )
    def test_full_batch_memory_does_not_grow(self, spec):
        # 32 MB of words, packed and gathered in bounded steps: about 5 MiB
        family, q = models.bind(spec)
        u = trial_uniforms(spec, DEFAULT_SEED, 0, 4_000_000 // family.budget(**q))
        simulate_batch(spec, u[:0])  # builds the cached index sets
        tracemalloc.start()
        try:
            simulate_batch(spec, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestPhiloxWords:
    """The samplers read raw Philox words and decide on them what numpy's
    doubles (w >> 11) * 2**-53 would decide."""

    def test_words_are_the_raw_stream_numpy_turns_into_doubles(self):
        # budget 6 pads to two blocks, 8 words per trial; trials 3 to 7
        spec = ModelSpec("runs", {"n": 6, "k": 2, "p": 0.5})
        w = trial_uniforms(spec, 77, 3, 5)
        assert w.dtype == np.uint64 and w.shape == (5, 6)
        raw = np.random.Philox(key=77).random_raw(64).reshape(8, 8)
        assert np.array_equal(w, raw[3:, :6])
        doubles = np.random.Generator(np.random.Philox(key=77)).random(64).reshape(8, 8)
        assert np.array_equal(numpy_doubles(w), doubles[3:, :6])

    @given(
        p=st.floats(0.0, 1.0),
        words=st.lists(st.integers(0, 2**64 - 1), max_size=32),
    )
    # both ends of [0, 1], their neighbours, and the middle
    @example(p=0.0, words=[])
    @example(p=5e-324, words=[])
    @example(p=2.0**-53, words=[])
    @example(p=0.5, words=[])
    @example(p=1.0 - 2.0**-53, words=[])
    @example(p=1.0, words=[])
    def test_limit_mask_equals_numpy_doubles(self, p, words):
        limit = models._word_limit(p)
        edges = [x for x in (0, limit, limit + 1, 2**64 - 1) if 0 <= x < 2**64]
        w = np.array(words + edges, dtype=np.uint64)
        assert np.array_equal(models._below(w, p), numpy_doubles(w) < p)

    @pytest.mark.parametrize(
        "p,limit", [(0.0, -1), (5e-324, 2**11 - 1), (0.5, 2**63 - 1), (1.0, 2**64 - 1)]
    )
    def test_limit_at_the_ends(self, p, limit):
        assert models._word_limit(p) == limit

    @pytest.mark.parametrize(
        "n,k,p",
        [
            (255, 250, 0.98),  # uint8 counts, up to 255 hits
            (300, 280, 0.93),  # uint16 counts past 255 hits
            (24, 3, 0.05),
            (8, 1, 0.0),
            (8, 8, 1.0),
        ],
    )
    def test_ustat_counts_match_the_doubles(self, n, k, p):
        spec = ModelSpec("ustat", {"n": n, "k": k, "p": p})
        w = trial_uniforms(spec, 31, 0, 2000)
        expected = (numpy_doubles(w) < p).sum(axis=1) < k
        got = simulate_batch(spec, w)
        assert np.array_equal(got, expected)
        assert 0 < got.sum() < len(got) or p in (0.0, 1.0)

    @given(
        N=st.integers(2, 400),
        data=st.data(),
        words=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=24),
    )
    def test_choices_match_the_doubles(self, N, data, words):
        k = data.draw(st.integers(2, N))
        edges = [0, 2**11 - 1, 2**11, 2**63, 2**64 - 2**11, 2**64 - 1]
        w = np.array([words + edges], dtype=np.uint64)
        radix = N - np.arange(w.shape[1]) % k
        expected = np.minimum((numpy_doubles(w) * radix).astype(np.int32), radix - 1)
        assert np.array_equal(models._choices(w, N, k), expected)


class TestTriangleEdgeIndices:
    @pytest.mark.parametrize(
        "n,dtype", [(3, np.uint8), (23, np.uint8), (24, np.uint16), (150, np.uint16)]
    )
    def test_smallest_unsigned_dtype(self, n, dtype):
        # C(23, 2) - 1 = 252 fits a byte, C(24, 2) - 1 = 275 does not
        index = models._triangle_edge_indices(n)
        assert index.dtype == dtype and index.shape == (3, math.comb(n, 3))
        assert not index.flags.writeable
        assert int(index.max()) == math.comb(n, 2) - 1

    @pytest.mark.parametrize("n", [3, 4, 7, 24, 30])
    def test_values_in_combinations_order(self, n):
        edge = {e: i for i, e in enumerate(combinations(range(n), 2))}
        expected = [
            (edge[a, b], edge[a, c], edge[b, c]) for a, b, c in combinations(range(n), 3)
        ]
        assert models._triangle_edge_indices(n).T.tolist() == [list(t) for t in expected]

    def test_cache_is_bounded(self):
        assert models._triangle_edge_indices.cache_info().maxsize is not None


class TestEdgeTable:
    @pytest.mark.parametrize("N", [2, 3, 7, 23, 24, 64])
    def test_values_in_combinations_order(self, N):
        table = models._edge_table(N)
        assert np.array_equal(table, table.T)
        for i, (a, b) in enumerate(combinations(range(N), 2)):
            assert table[a, b] == i

    @pytest.mark.parametrize(
        "N,dtype", [(2, np.uint8), (23, np.uint8), (24, np.uint16), (363, np.uint32)]
    )
    def test_smallest_unsigned_dtype(self, N, dtype):
        # C(362, 2) - 1 = 65,340 fits 16 bits, C(363, 2) - 1 = 65,702 does not
        table = models._edge_table(N)
        assert table.dtype == dtype and table.shape == (N, N)
        assert not table.flags.writeable
        assert int(table.max()) == math.comb(N, 2) - 1

    def test_cache_is_bounded(self):
        assert models._edge_table.cache_info().maxsize is not None


class TestLogRatio:
    @pytest.mark.parametrize(
        "num,den",
        [
            pytest.param(1, 10**400, id="1/1e400"),  # num / den rounds to 0
            pytest.param(123456789, 10**330, id="subnormal"),  # about 1.2e-322
            pytest.param(2**53 - 1, 2**1076, id="just-below-2^-1022"),
            pytest.param(2**2000 + 1, 3**3000, id="(2^2000+1)/3^3000"),
            pytest.param(10**300, 10**700, id="1e300/1e700"),
            pytest.param(1, 10**20, id="1/1e20"),  # normal ratios, as before
            pytest.param(2, 3, id="2/3"),
        ],
    )
    def test_against_exact_logs(self, num, den):
        with mpmath.workdps(60):
            exact = float(mpmath.log(mpmath.mpf(num) / den))
        assert models._log_ratio(num, den) == pytest.approx(exact, rel=4e-16, abs=0.0)
