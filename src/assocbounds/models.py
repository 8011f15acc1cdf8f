"""The four built-in indicator families, one :class:`Family` record each in
:data:`FAMILIES`: summaries, Monte Carlo samplers and exact oracles.

Each family ships in two formula variants:

  first-principles   exact pair enumeration (the default); covariances are
                     joint expectation minus product of means
  paper-as-printed   the published closed forms, which use one-sided pair
                     counts in places and substitute delta for the covariance
                     sum; kept so published numbers are reproducible

Samplers are pure functions of (seed, trial_index): every trial owns a fixed
block range of a Philox counter-based stream, so scalar evaluation, batched
evaluation, and any parallel split of the trial range produce bit-identical
results.

The exact oracles deliberately use different machinery than the summary
formulas (transfer matrices, binomial tails, exhaustive enumeration,
inclusion-exclusion) and call no summary code, so they can anchor the bounds
without sharing code paths with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Any, Callable

import numpy as np

from .family import FamilySummary, ModelSpec
from .numerics import NEG_INF, LogProb

FIRST_PRINCIPLES = "first-principles"
PAPER_AS_PRINTED = "paper-as-printed"
VARIANTS = (FIRST_PRINCIPLES, PAPER_AS_PRINTED)


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")


def _check_prob(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")


def _raise_first(violations: list[str]) -> None:
    if violations:
        raise ValueError(violations[0])


@dataclass(frozen=True)
class Family:
    """Everything the package knows about one built-in indicator family.

    ``params`` maps each parameter name to its cast (``int`` or ``float``);
    ``aliases`` are extra names the CLI accepts.  Every callable takes the
    parameters as keywords, cast by ``params``:

      check(**q)             range violations, one message each
      summary(**q, variant)  the FamilySummary
      budget(**q)            uniform doubles consumed per trial
      sample(u, **q)         per row of uniforms u, whether Z = 0
      exact(**q)             exact P(Z = 0), or None outside the exact range
    """

    params: dict[str, type]
    check: Callable[..., list[str]]
    summary: Callable[..., FamilySummary]
    budget: Callable[..., int]
    sample: Callable[..., np.ndarray]
    exact: Callable[..., LogProb | None]
    aliases: tuple[str, ...] = ()

    def cast(self, params: dict[str, Any]) -> dict[str, Any]:
        return {name: to(params[name]) for name, to in self.params.items()}


def bind(spec: ModelSpec) -> tuple[Family, dict[str, Any]]:
    """The spec's family record and its parameters, cast by the record."""
    family = FAMILIES.get(spec.model)
    if family is None:
        raise ValueError(f"unknown model {spec.model!r}")
    return family, family.cast(spec.params)


# ---------------------------------------------------------------------------
# k-runs: windows of k consecutive successes in a Bernoulli string.
# ---------------------------------------------------------------------------

def runs_summary(
    n: int,
    k: int,
    p: float,
    variant: str = FIRST_PRINCIPLES,
    circular: bool = True,
) -> FamilySummary:
    """Summary for the k-runs family.

    Circular (default): n windows over a length-n string with wraparound,
    requiring n >= 2k so that window pairs overlap in at most one stretch.
    Two windows at circular offset d correlate iff d < k, with joint
    expectation p^(k+d); there are n unordered pairs at each offset.

    The printed variant halves the pair count (one neighbor per offset) and
    reuses delta as the covariance sum.

    Linear (circular=False): n windows over a string of length n+k-1, pairs
    summed directly; first-principles only.
    """
    _check_variant(variant)
    _check_prob(p)
    if k < 1:
        raise ValueError(f"runs requires k >= 1, got k={k}")
    if circular and n < 2 * k:
        raise ValueError(f"circular runs requires n >= 2k, got n={n}, k={k}")
    if not circular and n < 1:
        raise ValueError(f"linear runs requires n >= 1, got n={n}")
    if not circular and variant == PAPER_AS_PRINTED:
        raise ValueError("paper-as-printed runs formulas are circular only")

    mean = p**k
    offsets = range(1, k)
    if circular:
        pair_counts = {d: n for d in offsets}
    else:
        pair_counts = {d: max(n - d, 0) for d in offsets}

    joint = math.fsum(c * p ** (k + d) for d, c in pair_counts.items())
    if variant == PAPER_AS_PRINTED:
        delta = 0.5 * joint
        cov = delta
    else:
        delta = joint
        cov = math.fsum(
            c * (p ** (k + d) - p ** (2 * k)) for d, c in pair_counts.items()
        )
    return FamilySummary.homogeneous(count=n, p=mean, delta=delta, cov_sum=cov)


def runs_poisson_band(n: int, k: int, p: float) -> tuple[float, float]:
    """Poisson-approximation band for P(Z=0) in the runs family.

    Returns (center, radius): |P(Z=0) - exp(-n (1-p) p^k)| <= (2k(1-p)+1) p^k.
    """
    _check_prob(p)
    center = math.exp(-n * (1.0 - p) * p**k)
    radius = (2.0 * k * (1.0 - p) + 1.0) * p**k
    return center, radius


def _runs_violations(n: int, k: int, p: float) -> list[str]:
    v = []
    if k < 1:
        v.append(f"runs requires k >= 1, got k={k}")
    # sampling and the exact oracle need only n >= k; the summary formulas
    # additionally require n >= 2k and enforce it there
    if n < max(k, 1):
        v.append(f"runs requires n >= k, got n={n}, k={k}")
    if not 0.0 <= p <= 1.0:
        v.append(f"runs requires p in [0, 1], got p={p}")
    return v


def _runs_sample(uniforms: np.ndarray, n: int, k: int, p: float) -> np.ndarray:
    """Row-wise: does the circular string (uniforms < p) lack k consecutive ones?"""
    bits = (uniforms < p).astype(np.int8)
    ext = np.concatenate([bits, bits[:, : k - 1]], axis=1) if k > 1 else bits
    cs = np.cumsum(ext, axis=1, dtype=np.int64)
    zero = np.zeros((bits.shape[0], 1), dtype=np.int64)
    cs = np.concatenate([zero, cs], axis=1)
    window = cs[:, k:] - cs[:, :-k]
    return ~(window[:, :n] == k).any(axis=1)


def runs_zero_exact(n: int, k: int, p: float, circular: bool = True) -> LogProb:
    """Exact P(no k consecutive ones in a Bernoulli(p) string of length n).

    State s in {0..k-1} is the current trailing count of ones; a one moves
    s -> s+1 (reaching k is absorbing failure and is dropped), a zero resets
    to 0.  Linear strings sum the first row of M^n; circular strings take
    the trace, which sums over closed state walks and handles the seam.
    """
    if k < 1 or n < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    _check_prob(p)
    if circular and n < k:
        raise ValueError(f"circular runs requires n >= k, got n={n}, k={k}")
    if not circular and n < k:
        return LogProb(0.0)

    m = np.zeros((k, k), dtype=np.float64)
    m[:, 0] = 1.0 - p
    for s in range(k - 1):
        m[s, s + 1] = p
    power = np.linalg.matrix_power(m, n)
    value = float(np.trace(power)) if circular else float(power[0, :].sum())
    return LogProb.from_linear(min(max(value, 0.0), 1.0))


# ---------------------------------------------------------------------------
# Triangles in G(n, p).
# ---------------------------------------------------------------------------

def _triangles_violations(n: int, p: float) -> list[str]:
    v = []
    if n < 3:
        v.append(f"triangles requires n >= 3, got n={n}")
    if not 0.0 <= p <= 1.0:
        v.append(f"triangles requires p in [0, 1], got p={p}")
    return v


def triangles_summary(
    n: int, p: float, variant: str = FIRST_PRINCIPLES
) -> FamilySummary:
    """Summary for the triangle-count family over C(n,3) vertex triples.

    Only edge-sharing triangle pairs are correlated (joint expectation p^5);
    each triangle shares an edge with exactly 3(n-3) others.  The printed
    variant uses 3n partners instead and reuses delta as the covariance sum.
    """
    _check_variant(variant)
    _raise_first(_triangles_violations(n, p))
    count = comb(n, 3)
    mean = p**3
    if variant == PAPER_AS_PRINTED:
        delta = 0.5 * count * (3 * n) * p**5
        cov = delta
    else:
        partners = 3 * (n - 3)
        delta = 0.5 * count * partners * p**5
        cov = 0.5 * count * partners * (p**5 - p**6)
    return FamilySummary.homogeneous(count=count, p=mean, delta=delta, cov_sum=cov)


@lru_cache(maxsize=None)
def _triangle_edge_indices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    edges = list(combinations(range(n), 2))
    eidx = {e: i for i, e in enumerate(edges)}
    t0, t1, t2 = [], [], []
    for a, b, c in combinations(range(n), 3):
        t0.append(eidx[(a, b)])
        t1.append(eidx[(a, c)])
        t2.append(eidx[(b, c)])
    return np.array(t0), np.array(t1), np.array(t2)


def _triangles_sample(uniforms: np.ndarray, n: int, p: float) -> np.ndarray:
    edges = uniforms < p
    t0, t1, t2 = _triangle_edge_indices(n)
    has_triangle = (edges[:, t0] & edges[:, t1] & edges[:, t2]).any(axis=1)
    return ~has_triangle


@lru_cache(maxsize=None)
def _triangle_free_counts(n: int) -> tuple[int, ...]:
    """counts[m] = number of triangle-free graphs on n labeled vertices with m edges."""
    n_edges = comb(n, 2)
    edges = list(combinations(range(n), 2))
    eidx = {e: i for i, e in enumerate(edges)}
    masks = np.arange(1 << n_edges, dtype=np.int64)
    bad = np.zeros(masks.shape, dtype=bool)
    for a, b, c in combinations(range(n), 3):
        t = (1 << eidx[(a, b)]) | (1 << eidx[(a, c)]) | (1 << eidx[(b, c)])
        bad |= (masks & t) == t
    popcounts = np.bitwise_count(masks.astype(np.uint64)).astype(np.int64)
    counts = np.bincount(popcounts[~bad], minlength=n_edges + 1)
    return tuple(int(c) for c in counts)


def triangle_free_exact(n: int, p: float) -> LogProb:
    """Exact P(G(n,p) contains no triangle), for 3 <= n <= 7.

    Counts triangle-free graphs per edge count by bitmask enumeration, then
    evaluates sum_m counts[m] p^m (1-p)^(M-m) in log-safe form.
    """
    if not 3 <= n <= 7:
        raise ValueError(f"exhaustive oracle supports 3 <= n <= 7, got n={n}")
    _check_prob(p)
    counts = _triangle_free_counts(n)
    n_edges = comb(n, 2)
    terms = []
    for m, c in enumerate(counts):
        if c == 0:
            continue
        if p == 0.0 and m > 0:
            continue
        if p == 1.0 and m < n_edges:
            continue
        lp = m * math.log(p) if m else 0.0
        lq = (n_edges - m) * math.log1p(-p) if n_edges - m else 0.0
        terms.append(math.log(c) + lp + lq)
    if not terms:
        return LogProb(float("-inf"))
    hi = max(terms)
    return LogProb(hi + math.log(math.fsum(math.exp(t - hi) for t in terms)))


# ---------------------------------------------------------------------------
# Complete U-statistics: products over k-subsets of n Bernoulli variables.
# ---------------------------------------------------------------------------

def _ustat_violations(n: int, k: int, p: float) -> list[str]:
    v = []
    if not 1 <= k <= n:
        v.append(f"ustat requires 1 <= k <= n, got n={n}, k={k}")
    if not 0.0 <= p <= 1.0:
        v.append(f"ustat requires p in [0, 1], got p={p}")
    return v


def ustat_summary(
    n: int, k: int, p: float, variant: str = FIRST_PRINCIPLES
) -> FamilySummary:
    """Summary for the complete U-statistic family over C(n,k) subsets.

    Two k-subsets sharing exactly m indices have joint expectation p^(2k-m);
    a fixed subset has C(k,m) C(n-k,k-m) partners with overlap m.  The
    printed variant drops the overlap-choice factor, using C(n-k,j) p^(k+j),
    and reuses delta as the covariance sum.
    """
    _check_variant(variant)
    _raise_first(_ustat_violations(n, k, p))
    count = comb(n, k)
    mean = p**k
    if variant == PAPER_AS_PRINTED:
        delta = 0.5 * count * math.fsum(
            comb(n - k, j) * p ** (k + j) for j in range(1, k)
        )
        cov = delta
    else:
        delta = 0.5 * count * math.fsum(
            comb(k, m) * comb(n - k, k - m) * p ** (2 * k - m)
            for m in range(1, k)
        )
        cov = 0.5 * count * math.fsum(
            comb(k, m) * comb(n - k, k - m) * (p ** (2 * k - m) - p ** (2 * k))
            for m in range(1, k)
        )
    return FamilySummary.homogeneous(count=count, p=mean, delta=delta, cov_sum=cov)


def _ustat_sample(uniforms: np.ndarray, n: int, k: int, p: float) -> np.ndarray:
    ones = (uniforms < p).sum(axis=1)
    return ones <= k - 1


def ustat_zero_exact(n: int, k: int, p: float) -> LogProb:
    """P(Z=0) = P(Binomial(n, p) <= k-1), in log domain.

    The complete U-statistic vanishes iff fewer than k of the underlying
    variables succeed.
    """
    _raise_first(_ustat_violations(n, k, p))
    if p == 0.0:
        return LogProb(0.0)
    terms = []
    log_p = math.log(p)
    log_q = math.log1p(-p) if p < 1.0 else None
    for j in range(k):
        if p == 1.0 and n - j > 0:
            continue
        lb = math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
        terms.append(lb + j * log_p + (n - j) * log_q)
    if not terms:
        return LogProb(float("-inf"))
    hi = max(terms)
    return LogProb(hi + math.log(math.fsum(math.exp(t - hi) for t in terms)))


# ---------------------------------------------------------------------------
# Hypergraph coverage: n_draws i.i.d. uniform k-cliques covering K_N.
# ---------------------------------------------------------------------------

def _hyper_violations(N: int, k: int, n_draws: int) -> list[str]:
    v = []
    if not 2 <= k <= N:
        v.append(f"hypergraph-cover requires 2 <= k <= N, got N={N}, k={k}")
    if n_draws < 1:
        v.append(f"hypergraph-cover requires n_draws >= 1, got {n_draws}")
    return v


def _per_draw_avoid_single(N: int, k: int) -> Fraction:
    # P(one uniform k-subset does not contain a fixed edge)
    return 1 - Fraction(comb(N - 2, k - 2), comb(N, k))


def _per_draw_avoid_share(N: int, k: int) -> Fraction:
    # P(one draw contains neither of two edges sharing a vertex); the three
    # binomial terms split by how many of the three involved vertices the
    # draw picks up without completing an edge.
    c = comb(N, k)
    return Fraction(
        comb(N - 3, k) + 3 * comb(N - 3, k - 1) + comb(N - 3, k - 2), c
    )


def _per_draw_avoid_disjoint(N: int, k: int) -> Fraction:
    c = comb(N, k)
    return Fraction(
        comb(N - 4, k) + 4 * comb(N - 4, k - 1) + 4 * comb(N - 4, k - 2), c
    )


def hypergraph_edge_prob(N: int, k: int, n_draws: int) -> LogProb:
    """P(a fixed edge of K_N is uncovered after n_draws uniform k-cliques)."""
    _raise_first(_hyper_violations(N, k, n_draws))
    a = _per_draw_avoid_single(N, k)
    if a == 0:
        return LogProb(NEG_INF)
    return LogProb(n_draws * math.log(float(a)))


def hypergraph_joint_probs(N: int, k: int, n_draws: int) -> tuple[LogProb, LogProb]:
    """P(both edges uncovered) for a vertex-sharing pair and a disjoint pair.

    Requires N >= 3 for the sharing pair; for N = 3 no disjoint pair exists
    and the disjoint probability is reported as zero.
    """
    _raise_first(_hyper_violations(N, k, n_draws))
    if N < 3:
        raise ValueError(f"joint probabilities require N >= 3, got N={N}")

    def power(b: Fraction) -> LogProb:
        if b == 0:
            return LogProb(NEG_INF)
        return LogProb(n_draws * math.log(float(b)))

    q_share = power(_per_draw_avoid_share(N, k))
    if N < 4:
        q_disjoint = LogProb(NEG_INF)
    else:
        q_disjoint = power(_per_draw_avoid_disjoint(N, k))
    return q_share, q_disjoint


def _pair_cov(b_joint: Fraction, a_single: Fraction, n_draws: int) -> float:
    """b^n - a^(2n) without catastrophic cancellation.

    Written as a^(2n) * expm1(n * ln(b / a^2)); exact rationals keep the
    near-one ratio accurate, which matters when the two exponentials agree
    to ten digits.  May be negative: disjoint edge pairs are negatively
    correlated in this family.
    """
    if a_single == 0:
        return 0.0
    p2 = math.exp(2 * n_draws * math.log(float(a_single)))
    if b_joint == 0:
        return -p2
    ratio = b_joint / (a_single * a_single)
    return p2 * math.expm1(n_draws * math.log(float(ratio)))


def hypergraph_summary(N: int, k: int, n_draws: int) -> FamilySummary:
    """Summary for the coverage family over the C(N,2) edges of K_N.

    Every pair of edges is correlated: each edge has 2(N-2) vertex-sharing
    partners and C(N-2,2) disjoint ones, giving C(N,2)(N-2) unordered
    sharing pairs and C(N,2) C(N-2,2)/2 disjoint pairs.  Covariances are
    computed exactly; the disjoint ones are negative (two disjoint edges can
    only compete for draws), so cov_sum itself can be negative, in which
    case the family is not positively associated and the additive bounds
    refuse to run.
    """
    _raise_first(_hyper_violations(N, k, n_draws))
    if N < 4:
        raise ValueError(f"hypergraph summary requires N >= 4, got N={N}")
    count = comb(N, 2)
    a = _per_draw_avoid_single(N, k)
    b_s = _per_draw_avoid_share(N, k)
    b_d = _per_draw_avoid_disjoint(N, k)

    p = hypergraph_edge_prob(N, k, n_draws).linear
    q_s, q_d = hypergraph_joint_probs(N, k, n_draws)

    share_pairs = count * (N - 2)
    disjoint_pairs = count * comb(N - 2, 2) // 2

    delta = share_pairs * q_s.linear + disjoint_pairs * q_d.linear
    cov = share_pairs * _pair_cov(b_s, a, n_draws) + disjoint_pairs * _pair_cov(
        b_d, a, n_draws
    )
    return FamilySummary.homogeneous(count=count, p=p, delta=delta, cov_sum=cov)


@lru_cache(maxsize=None)
def _edge_table(N: int) -> np.ndarray:
    table = np.zeros((N, N), dtype=np.int64)
    for i, (a, b) in enumerate(combinations(range(N), 2)):
        table[a, b] = i
        table[b, a] = i
    return table


def _hyper_sample(
    uniforms: np.ndarray, N: int, k: int, n_draws: int
) -> np.ndarray:
    """Full coverage of K_N, the hypergraph family's event {Z = 0}."""
    batch = uniforms.shape[0]
    n_edges = comb(N, 2)
    table = _edge_table(N)
    covered = np.zeros((batch, n_edges), dtype=bool)
    rows = np.arange(batch)
    pairs = list(combinations(range(k), 2))
    for r in range(n_draws):
        u = uniforms[:, r * k : (r + 1) * k]
        # partial Fisher-Yates: k selection steps, one uniform each
        perm = np.tile(np.arange(N, dtype=np.int64), (batch, 1))
        for j in range(k):
            idx = j + (u[:, j] * (N - j)).astype(np.int64)
            np.minimum(idx, N - 1, out=idx)
            chosen_vals = perm[rows, idx]
            perm[rows, idx] = perm[:, j]
            perm[:, j] = chosen_vals
        for a, b in pairs:
            covered[rows, table[perm[:, a], perm[:, b]]] = True
        if covered.all():
            break
    return covered.all(axis=1)


@lru_cache(maxsize=None)
def _cover_terms(N: int, k: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """Inclusion-exclusion grouped by avoid count, and C(N, k).

    a(S) counts the k-subsets whose clique avoids the edge subset S; the
    result pairs each value a that occurs with c_a = sum of (-1)^|S| over
    the S with a(S) = a, dropping a = 0 and every a whose c_a cancels to 0.
    There are at most C(N, k) + 1 values, against 2^C(N,2) subsets.
    """
    n_edges = comb(N, 2)
    edges = list(combinations(range(N), 2))
    eidx = {e: i for i, e in enumerate(edges)}
    total = comb(N, k)
    # N <= 7: masks fit in 21 bits and counts in C(7,3) = 35
    masks = np.arange(1 << n_edges, dtype=np.uint32)
    avoid = np.zeros(masks.shape, dtype=np.uint8)
    for w in combinations(range(N), k):
        wmask = 0
        for e in combinations(w, 2):
            wmask |= 1 << eidx[e]
        avoid += (masks & wmask) == 0
    odd = (np.bitwise_count(masks) & 1).astype(bool)
    signed = np.bincount(avoid[~odd], minlength=total + 1) - np.bincount(
        avoid[odd], minlength=total + 1
    )
    terms = tuple((a, int(c)) for a, c in enumerate(signed) if a and c)
    return terms, total


def cover_all_exact(N: int, k: int, n_draws: int) -> LogProb:
    """Exact P(n_draws uniform k-cliques cover every edge of K_N), N <= 7.

    Inclusion-exclusion over edge subsets S: sum over S of
    (-1)^|S| (a(S)/C(N,k))^n_draws, where a(S) counts the k-subsets whose
    clique avoids S.  The subsets are grouped by a(S) once per (N, k), and
    the alternating sum is taken in Python integers over C(N,k)^n_draws.
    The result is the exact rational correctly rounded, through log1p of
    the exact deficit when it is near one, and exactly zero (log -inf)
    wherever coverage is impossible.  The integers grow with n_draws, to
    about n_draws * log2(C(N,k)) bits.
    """
    _raise_first(_hyper_violations(N, k, n_draws))
    if N > 7:
        raise ValueError(f"exhaustive oracle supports N <= 7, got N={N}")
    terms, total = _cover_terms(N, k)
    # the number of covering draw sequences out of total**n_draws
    covering = sum(c * a**n_draws for a, c in terms)
    if covering < 0:
        raise ArithmeticError(f"inclusion-exclusion produced {covering} < 0")
    outcomes = total**n_draws
    missing = outcomes - covering
    if 2 * missing > outcomes:
        return LogProb.from_linear(covering / outcomes)
    # near one, log1p of the exact deficit keeps the log's relative accuracy
    return LogProb(math.log1p(-missing / outcomes))


# ---------------------------------------------------------------------------
# The family table, and the functions that dispatch through it.
# ---------------------------------------------------------------------------

FAMILIES: dict[str, Family] = {
    "runs": Family(
        params={"n": int, "k": int, "p": float},
        check=_runs_violations,
        summary=runs_summary,
        budget=lambda n, k, p: n,
        sample=_runs_sample,
        exact=runs_zero_exact,
    ),
    "triangles": Family(
        params={"n": int, "p": float},
        check=_triangles_violations,
        summary=triangles_summary,
        budget=lambda n, p: comb(n, 2),
        sample=_triangles_sample,
        exact=lambda n, p: triangle_free_exact(n, p) if n <= 7 else None,
    ),
    "ustat": Family(
        params={"n": int, "k": int, "p": float},
        check=_ustat_violations,
        summary=ustat_summary,
        budget=lambda n, k, p: n,
        sample=_ustat_sample,
        exact=ustat_zero_exact,
    ),
    "hypergraph-cover": Family(
        params={"N": int, "k": int, "n_draws": int},
        check=_hyper_violations,
        # No printed/first-principles split here: delta and covariances come
        # straight from the exact joint-probability formulas.
        summary=lambda N, k, n_draws, variant: hypergraph_summary(N, k, n_draws),
        budget=lambda N, k, n_draws: n_draws * k,
        sample=_hyper_sample,
        exact=lambda N, k, n_draws: cover_all_exact(N, k, n_draws) if N <= 7 else None,
        aliases=("hypergraph",),
    ),
}


def summary_for(spec: ModelSpec, variant: str = FIRST_PRINCIPLES) -> FamilySummary:
    """Build the FamilySummary for a validated ModelSpec."""
    spec.ensure_valid()
    family, q = bind(spec)
    return family.summary(**q, variant=variant)


def trial_budget(spec: ModelSpec) -> int:
    """Uniform doubles consumed per trial (fixed per spec, never data-dependent)."""
    family, q = bind(spec)
    return family.budget(**q)


def _blocks_per_trial(spec: ModelSpec) -> int:
    # Philox emits 4 uint64 words per counter value; each uniform double
    # consumes one word, so pad the per-trial budget to a whole block count.
    return max(1, -(-trial_budget(spec) // 4))


def trial_uniforms(
    spec: ModelSpec, seed: int, start: int, count: int
) -> np.ndarray:
    """Uniforms for trials [start, start+count), shape (count, budget).

    Trial i reads words [i*4*bpt, i*4*bpt + budget) of the Philox stream
    keyed by the seed, so any batching or parallel split reproduces the
    per-trial values exactly.
    """
    bpt = _blocks_per_trial(spec)
    budget = trial_budget(spec)
    bg = np.random.Philox(key=seed, counter=start * bpt)
    raw = np.random.Generator(bg).random(count * bpt * 4)
    return raw.reshape(count, bpt * 4)[:, :budget]


def simulate_batch(spec: ModelSpec, uniforms: np.ndarray) -> np.ndarray:
    """Map per-trial uniforms to the event {Z = 0}, vectorized over rows.

    For hypergraph-cover the event is full coverage of K_N.
    """
    family, q = bind(spec)
    return family.sample(uniforms, **q)


def sample_is_zero(spec: ModelSpec, rng_seed: int, trial_index: int) -> bool:
    """One realization: True iff Z = 0 (full coverage for hypergraph-cover).

    Deterministic given (rng_seed, trial_index); trials are independently
    positioned in a counter-based stream, so any parallel schedule yields
    identical results.
    """
    spec.ensure_valid()
    u = trial_uniforms(spec, rng_seed, trial_index, 1)
    return bool(simulate_batch(spec, u)[0])
