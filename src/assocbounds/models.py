"""The four built-in indicator families, one :class:`Family` record each in
:data:`FAMILIES`: summaries, Monte Carlo samplers and exact oracles.

Each family ships in two formula variants:

  first-principles   exact pair enumeration (the default); covariances are
                     joint expectation minus product of means
  paper-as-printed   the published closed forms, which use one-sided pair
                     counts in places and substitute delta for the covariance
                     sum; kept so published numbers are reproducible

A summary states only the family's mean and its classes of correlated
pairs, (multiplicity, joint expectation, covariance); :func:`_summary` forms
delta and cov_sum from them for all four families, and
:func:`_power_pairs` holds the covariance p^e - p^(2k) of two indicators of
mean p^k, written so that it does not cancel near p = 1, and the printed
variant's rule, once.

Samplers are pure functions of (seed, trial_index): every trial owns a fixed
block range of a Philox counter-based stream, so scalar evaluation, batched
evaluation, and any parallel split of the trial range produce bit-identical
results.  They read the stream's raw 64-bit words, never doubles: a word w
stands for numpy's uniform double u = (w >> 11) * 2**-53, and each sampler
decides exactly what it would decide on u.  Runs, triangles and ustat test
u < p as one integer comparison per word (:func:`_below`); coverage converts
each step's words to those doubles, scaled by its radix (:func:`_choices`).

The exact oracles deliberately use different machinery than the summary
formulas (transfer matrices, binomial tails, exhaustive enumeration,
inclusion-exclusion) and call no summary code, so they can anchor the bounds
without sharing code paths with them.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Any, Callable, Iterator

import numpy as np

from .family import FamilySummary, ModelSpec
from .numerics import NEG_INF, LogProb, as_float, as_int

FIRST_PRINCIPLES = "first-principles"
PAPER_AS_PRINTED = "paper-as-printed"
VARIANTS = (FIRST_PRINCIPLES, PAPER_AS_PRINTED)

_LN2 = math.log(2.0)


def _refuse(violations: list[str]) -> None:
    """A ValueError naming every violation, joined by "; ", if there is any."""
    if violations:
        raise ValueError("; ".join(violations))


def _summary(
    variant: str, count: int, mean: float,
    pairs: Callable[[bool], tuple[float, list[tuple[float, float, float]]]],
) -> FamilySummary:
    """The summary of ``count`` indicators of one mean from its classes of
    correlated pairs: ``pairs(printed)``, printed whether the variant is
    paper-as-printed, gives (scale, classes), each class (multiplicity m,
    joint expectation, covariance), and delta = scale * sum(m * joint),
    cov_sum = scale * sum(m * covariance).  An OverflowError while they are
    formed reads as inf, which the FamilySummary constructor refuses.  A
    variant outside VARIANTS is refused first.  delta_bar may round to inf
    where delta does not: the ratio bound is then vacuous."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    try:
        scale, classes = pairs(variant == PAPER_AS_PRINTED)
        delta = scale * math.fsum(m * joint for m, joint, _ in classes)
        cov = scale * math.fsum(m * c for m, _, c in classes)
    except OverflowError:
        delta = cov = math.inf
    return FamilySummary(count=count, means=(mean,), delta=delta, cov_sum=cov)


def _power_pairs(m: float, k: int, e: int, p: float, printed: bool) -> tuple[float, ...]:
    """m pairs of indicators of mean p^k with joint expectation p^e; printed,
    the covariance is taken to be the joint expectation.  Otherwise it is
    p^e - p^(2k), written as p^e (1 - p^(2k - e)) = p^e (-expm1((2k - e) ln p))
    so that it keeps its relative accuracy near p = 1, where the difference
    cancels; it is 0 at p = 0."""
    joint = p**e
    if printed:
        return m, joint, joint
    return m, joint, joint * -math.expm1((2 * k - e) * math.log(p)) if p > 0.0 else 0.0


def _log_sum_exp(terms: list[float]) -> float:
    hi = max(terms)
    return hi + math.log(math.fsum(math.exp(t - hi) for t in terms))


@dataclass(frozen=True)
class Family:
    """Everything the package knows about one built-in indicator family.

    ``params`` maps each parameter name to its cast (``int`` or ``float``);
    ``aliases`` are extra names the CLI accepts.  Every callable takes the
    parameters as keywords, cast by ``params``:

      check(**q)             range violations, one message each
      summary(**q, variant)  the FamilySummary
      budget(**q)            Philox words consumed per trial
      sample(w, **q)         per row of uint64 Philox words w, whether Z = 0
      exact(**q)             exact P(Z = 0), or None outside the exact range
    """

    params: dict[str, type]
    check: Callable[..., list[str]]
    summary: Callable[..., FamilySummary]
    budget: Callable[..., int]
    sample: Callable[..., np.ndarray]
    exact: Callable[..., LogProb | None]
    aliases: tuple[str, ...] = ()


def bind(spec: ModelSpec) -> tuple[Family, dict[str, Any]]:
    """The spec's family record and its parameters, cast by the record: the
    one gate for a spec, which every function that reads one goes through.

    A ValueError refuses, in this order, a model not a ``str``, params not a
    ``Mapping``, an unknown model, a missing parameter, a parameter the family
    does not take, a value that ``numerics.as_int`` or ``as_float`` refuses
    (a boolean, a fraction of an ``int`` parameter, what the cast cannot
    read), and the family's range violations, joined by "; ".
    """
    for field, value, want in (("model", spec.model, str), ("params", spec.params, Mapping)):
        if not isinstance(value, want):
            raise ValueError(f"{field} must be a {want.__name__}, got {type(value).__name__}")
    family = FAMILIES.get(spec.model)
    if family is None:
        raise ValueError(f"unknown model {spec.model!r}; expected one of {tuple(FAMILIES)}")
    model, params = f"model {spec.model!r}", spec.params
    missing = [x for x in family.params if params.get(x) is None]
    if missing:
        raise ValueError(f"{model} requires parameters {missing}")
    foreign = [x for x in params if x not in family.params]
    if foreign:
        raise ValueError(f"{model} takes no parameters {foreign}")
    read = {int: as_int, float: as_float}
    try:
        q = {x: read[to](x, params[x]) for x, to in family.params.items()}
    except ValueError as exc:
        raise ValueError(f"{model}: {exc}") from None
    _refuse(family.check(**q))
    return family, q


# Words (512 KB) that one gather step reads: the cover sampler's mask words
# (live trials x draws x words), and _none_all_ones's packed bytes per set member.
_GATHER_WORDS = 1 << 16


def _word_limit(p: float) -> int:
    """The largest 64-bit word w whose numpy double (w >> 11) * 2**-53 lies
    below p, for p in [0, 1]: -1 at p = 0, where no word does, and 2**64 - 1
    at p = 1, where every word does.  (w >> 11) * 2**-53 < p holds exactly
    when w >> 11 < c = ceil(p * 2**53), that is when w < c << 11; p * 2**53
    is exact for every double p."""
    return (math.ceil(p * 2**53) << 11) - 1


def _below(w: np.ndarray, p: float, out: np.ndarray | None = None) -> np.ndarray:
    """The mask u < p of the doubles u = (w >> 11) * 2**-53 of uint64 words
    w, as w <= :func:`_word_limit` (p): one comparison per word, no double."""
    limit = _word_limit(p)
    if limit < 0:  # p = 0: no word is below 0, and -1 is no uint64
        return np.less(w, 0, out=out)
    return np.less_equal(w, np.uint64(limit), out=out)


def _packed_bits(w: np.ndarray, p: float) -> np.ndarray:
    """The bits u < p (:func:`_below`) of rows of words w bit-sliced:
    (columns, ceil(rows / 8)) bytes, bit r % 8 of byte r // 8 in row j
    holding row r's bit j, so one byte op serves eight trials.  It is
    ``np.packbits(_below(w, p).T, axis=1, bitorder="little")``, ORed lane by
    lane from the row-major bits, which skips transposing a byte per trial."""
    bits = np.zeros((-(-len(w) // 8) * 8, w.shape[1]), dtype=bool)
    _below(w, p, out=bits[: len(w)])
    lanes = bits.view(np.uint8).reshape(-1, 8, w.shape[1])
    packed = lanes[:, 0].copy()
    for j in range(1, 8):
        packed |= lanes[:, j] << j
    return np.ascontiguousarray(packed.T)


def _none_all_ones(packed: np.ndarray, sets: np.ndarray, rows: int) -> np.ndarray:
    """Per trial of :func:`_packed_bits` packed, whether no indicator i, the
    product of packed[sets[:, i]] (sets: arity x indicators), is one.  A step
    ANDs the members' rows in turn, 8 * _GATHER_WORDS bytes each, so its
    memory ignores the arity."""
    hit = np.zeros(packed.shape[1], dtype=np.uint8)
    step = max(1, 8 * _GATHER_WORDS // max(len(hit), 1))
    for s in range(0, sets.shape[1], step):
        ones = packed[sets[0, s : s + step]]
        for member in sets[1:, s : s + step]:
            ones &= packed[member]
        hit |= np.bitwise_or.reduce(ones, axis=0)
    return np.unpackbits(hit, count=rows, bitorder="little") == 0


# ---------------------------------------------------------------------------
# k-runs: windows of k consecutive successes in a Bernoulli string.
# ---------------------------------------------------------------------------

def runs_summary(
    n: int, k: int, p: float, variant: str = FIRST_PRINCIPLES
) -> FamilySummary:
    """Summary for the k-runs family: n windows over a length-n string with
    wraparound, requiring n >= 2k so that window pairs overlap in at most one
    stretch.

    Two windows at circular offset d correlate iff d < k, with joint
    expectation p^(k+d); there are n unordered pairs at each offset.

    The printed variant halves the pair count (one neighbor per offset) and
    reuses delta as the covariance sum.
    """
    _refuse(_runs_violations(n, k, p))
    if n < 2 * k:
        raise ValueError(f"circular runs requires n >= 2k, got n={n}, k={k}")

    return _summary(variant, n, p**k, lambda printed: (
        0.5 if printed else 1.0, [_power_pairs(n, k, k + d, p, printed) for d in range(1, k)]
    ))


def runs_poisson_band(n: int, k: int, p: float) -> tuple[float, float]:
    """Poisson-approximation band for P(Z=0) in the runs family.

    Returns (center, radius): |P(Z=0) - exp(-n (1-p) p^k)| <= (2k(1-p)+1) p^k.
    """
    _refuse(_runs_violations(n, k, p))
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


def _run_halves(packed: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(b, sets) with the circular window of the k bits from i on the product
    of b[sets[:, i]], for packed bits (n, bytes): b[i] is the product of the m
    bits from i on, m the largest power of two up to k, by doubling in
    O(n bytes log k)."""
    m = 1
    while 2 * m <= k:
        packed = packed & np.roll(packed, -m, axis=0)
        m *= 2
    i = np.arange(len(packed))
    return packed, np.stack([i, (i + k - m) % len(i)])


def _scaled_power(m: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """(a, e) with m^n = a * 2^e, for n >= 1, by repeated squaring.

    A product whose largest entry falls below 2^-256 or rises above 2^256
    is divided by the power of two that brings that entry into [0.5, 1).
    The division is exact, so the entries stay in the double range however
    far m^n falls below it.  Rescaled, a product's largest entry need not
    bound its spectral radius, so later squares can grow; the upper limit
    keeps them finite.  Where no product leaves [2^-256, 2^256] the products
    are those of ``np.linalg.matrix_power`` for n != 3; at n = 3 numpy forms
    (m m) m and this forms m (m m), which can differ in the last bits.
    """
    def times(a: np.ndarray, b: np.ndarray, e: int) -> tuple[np.ndarray, int]:
        c = a @ b
        top = c.max()
        if top > 0.0 and not 2.0**-256 <= top <= 2.0**256:
            shift = math.frexp(top)[1]
            return np.ldexp(c, -shift), e + shift
        return c, e

    square, square_e = m, 0
    power, power_e = None, 0
    while n:
        n, bit = divmod(n, 2)
        if bit:
            power, power_e = (
                (square, square_e) if power is None
                else times(power, square, power_e + square_e)
            )
        if n:
            square, square_e = times(square, square, 2 * square_e)
    return power, power_e


def runs_zero_exact(n: int, k: int, p: float) -> LogProb:
    """Exact P(no k consecutive ones in a circular Bernoulli(p) string of
    length n).

    State s in {0..k} is the current trailing count of ones, capped at k;
    a one moves s -> min(s+1, k), a zero resets to 0.  Call T this chain and
    M its run-free part, T without state k.  The trace of M^n sums over
    closed state walks and handles the seam.  M^n carries a binary scale, so
    values below the double range keep their log.

    Where M^n gives more than 1/2, 1 - P(some run) would keep only absolute
    accuracy, so there the run probability is summed instead: trace(T^n) = 1
    (each circular string has exactly one closed walk), and P(some run) =
    trace(T^n - M^n) is the trace of the upper-right block of
    [[T, T - M], [0, M]]^n, a sum of nonnegative terms.
    """
    _refuse(_runs_violations(n, k, p))

    t = np.zeros((k + 1, k + 1), dtype=np.float64)
    t[:, 0] = 1.0 - p
    for s in range(k):
        t[s, s + 1] = p
    t[k, k] = p
    m = t[:k, :k]

    power, power_e = _scaled_power(m, n)
    value = float(np.trace(power))
    if power_e == 0 and value > 0.5:
        padded = np.zeros_like(t)
        padded[:k, :k] = m
        block = np.block([[t, t - padded], [np.zeros_like(t), padded]])
        run = float(np.trace(np.linalg.matrix_power(block, n)[: k + 1, k + 1 :]))
        return LogProb(math.log1p(-run))
    if value <= 0.0:
        return LogProb(NEG_INF)
    return LogProb(min(math.log(value) + power_e * _LN2, 0.0))


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
    _refuse(_triangles_violations(n, p))
    count = comb(n, 3)
    return _summary(variant, count, p**3, lambda printed: (
        0.5 * count * (3 * n if printed else 3 * (n - 3)), [_power_pairs(1, 3, 5, p, printed)]
    ))


@lru_cache(maxsize=8)  # 16 MB each at N = 2,000
def _edge_table(N: int) -> np.ndarray:
    """table[a, b] = table[b, a] = the index of edge {a, b} of K_N in
    ``combinations(range(N), 2)`` order, which every edge bit and column uses,
    in the smallest unsigned dtype that holds C(N, 2) - 1.  The table is
    shared between callers and read-only."""
    a, b = np.triu_indices(N, 1)  # row-major, so in combinations order
    table = np.zeros((N, N), dtype=np.min_scalar_type(comb(N, 2) - 1))
    table[a, b] = table[b, a] = np.arange(a.size, dtype=table.dtype)
    table.flags.writeable = False
    return table


# Largest K_N whose 2^C(N,2) edge subsets the exact oracles enumerate
# (2^21 subsets at N = 7).
_ENUM_VERTICES = 7


@lru_cache(maxsize=None)
def _avoid_histogram(N: int, k: int) -> np.ndarray:
    """hist[m, a] = the number of m-edge subsets S of K_N that exactly a of
    the C(N, k) k-cliques avoid (share no edge with S), by enumeration of
    every edge subset.  The table is shared between callers and read-only.
    """
    if N > _ENUM_VERTICES:
        raise ValueError(f"exhaustive oracle supports N <= {_ENUM_VERTICES}, got N={N}")
    n_edges, cliques = comb(N, 2), comb(N, k)
    idx = _edge_table(N).tolist()
    # masks fit in 21 bits and avoid counts in C(7,3) = 35
    masks = np.arange(1 << n_edges, dtype=np.uint32)
    avoid = np.zeros(masks.shape, dtype=np.uint8)
    for w in combinations(range(N), k):
        wmask = 0
        for a, b in combinations(w, 2):
            wmask |= 1 << idx[a][b]
        avoid += (masks & wmask) == 0
    cell = np.bitwise_count(masks).astype(np.int64) * (cliques + 1) + avoid
    hist = np.bincount(cell, minlength=(n_edges + 1) * (cliques + 1))
    hist = hist.reshape(n_edges + 1, cliques + 1)
    hist.flags.writeable = False
    return hist


@lru_cache(maxsize=8)  # 3.3 MB each at n = 150
def _triangle_edge_indices(n: int) -> np.ndarray:
    """Column t holds the three edge indices of the t-th triangle of K_n, in
    the smallest unsigned dtype that holds C(n, 2) - 1: uint16 up to n = 362.
    The index is shared between callers and read-only."""
    vertex = np.min_scalar_type(n - 1)
    # the triangles {a, b, c}, a < b < c, in combinations order: for each a,
    # the pairs b < c above a, which end the row-major pairs of range(n)
    pairs = np.array(np.triu_indices(n, 1), dtype=vertex)
    above = [comb(n - a - 1, 2) for a in range(n - 2)]
    a = np.repeat(np.arange(n - 2, dtype=vertex), above)
    b, c = np.concatenate([pairs[:, pairs.shape[1] - m :] for m in above], axis=1)
    index = _edge_table(n)[[a, a, b], [b, c, c]]
    index.flags.writeable = False
    return index


def triangle_free_exact(n: int, p: float) -> LogProb:
    """Exact P(G(n,p) contains no triangle), for 3 <= n <= 7.

    S is triangle-free iff no triangle avoids its complement, so
    counts[m] = ``_avoid_histogram(n, 3)[M - m, 0]`` graphs with m edges are
    triangle-free, M = C(n, 2).  With p = a/b exactly, the sum of
    counts[m] a^m (b-a)^(M-m) over b^M is taken in Python integers: the
    exact rational, correctly rounded.
    """
    _refuse(_triangles_violations(n, p))
    n_edges = comb(n, 2)
    counts = _avoid_histogram(n, 3)[::-1, 0].tolist()  # counts[m], m edges
    a, b = p.as_integer_ratio()
    free, power = 0, 1  # Horner in b - a, carrying a^m
    for c in counts:
        free = free * (b - a) + c * power
        power *= a
    return LogProb(_log_ratio(free, b**n_edges))


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

    A fixed subset has C(k,j) C(n-k,j) partners that share all but j of its
    indices, each with joint expectation p^(k+j), 0 < j < k.  The printed
    variant drops the overlap-choice factor C(k,j) and reuses delta as the
    covariance sum.

    Raises ValueError where C(n,k), delta or cov_sum exceeds the double
    range (about 1.8e308); ``ustat_zero_exact`` still covers such specs.
    """
    _refuse(_ustat_violations(n, k, p))
    count = comb(n, k)
    return _summary(variant, count, p**k, lambda printed: (0.5 * count, [
        _power_pairs((1 if printed else comb(k, j)) * comb(n - k, j), k, k + j, p, printed)
        for j in range(1, k)
    ]))


def _ustat_sample(w: np.ndarray, n: int, k: int, p: float) -> np.ndarray:
    """Per row of n words, whether fewer than k of the n variables succeed;
    the hits are counted in the smallest unsigned dtype that holds n, by
    einsum over the mask's bytes, which sums short rows faster than sum."""
    ones = np.einsum("ij->i", _below(w, p).view(np.uint8), dtype=np.min_scalar_type(n))
    return ones < k


def ustat_zero_exact(n: int, k: int, p: float) -> LogProb:
    """P(Z=0) = P(Binomial(n, p) <= k-1), in log domain.

    The complete U-statistic vanishes iff fewer than k of the underlying
    variables succeed.  Where that lower tail exceeds 1/2, the upper tail
    is summed instead and the result is log1p(-upper), which keeps the
    log's relative accuracy near one.
    """
    _refuse(_ustat_violations(n, k, p))
    if p == 0.0:
        return LogProb(0.0)
    if p == 1.0:
        return LogProb(NEG_INF)  # all n succeed, and k <= n
    log_p, log_q = math.log(p), math.log1p(-p)

    def terms() -> Iterator[float]:  # ln P(Binomial(n, p) = j), j = 0, 1, ..., n
        # ln C(n, j) sums the ratios ln((n - i)/(i + 1)), i < j, and carries
        # each addition's rounding (Fast2Sum: no ratio exceeds ln C(n, i) in
        # size), so a term is off by a few ulps of ln n, not by the rounding
        # of lgamma(n + 1), which is about n ln n in size
        log_c = carry = 0.0
        for j in range(n):
            yield log_c + carry + j * log_p + (n - j) * log_q
            ratio = math.log((n - j) / (j + 1))
            total = log_c + ratio
            carry += log_c - total + ratio
            log_c = total
        yield log_c + carry + n * log_p

    term = terms()
    lower = _log_sum_exp([next(term) for _ in range(k)])
    if lower <= -_LN2:
        return LogProb(lower)
    # k - 1 is at least the median here, so k is at least the mode and the
    # upper terms only fall; stop once the rest would underflow the sum
    upper = [next(term)]
    for t in term:
        upper.append(t)
        if t < upper[0] - 750.0:
            break
    return LogProb(math.log1p(-math.exp(_log_sum_exp(upper))))


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


# (span, counts) for _per_draw_avoid: one edge, two edges sharing a vertex,
# two disjoint edges
_EDGE, _SHARING, _DISJOINT = (2, (1, 2)), (3, (1, 3, 1)), (4, (1, 4, 4))


def _per_draw_avoid(N: int, k: int, span: int, counts: tuple[int, ...]) -> Fraction:
    """P(one uniform k-subset of the N vertices contains no edge of a pattern
    whose edges span ``span`` vertices), where counts[j] is the number of
    independent j-subsets of the span: those containing no pattern edge.
    It is sum_j counts[j] C(N - span, k - j) / C(N, k), each ratio taken as
    (k)_j (N - k)_(span - j) / (N)_span: at most ``span`` factors at any k."""
    free = sum(c * math.perm(k, j) * math.perm(N - k, span - j) for j, c in enumerate(counts))
    return Fraction(free, math.perm(N, span))


def _log_ratio(num: int, den: int) -> float:
    """ln(num/den) for integers 0 <= num, 0 < den.  Above 1/2 it is log1p of
    the exact (num - den)/den, so the log keeps its relative accuracy near
    one, where log(num/den) would keep only its absolute accuracy; int / int
    rounds correctly.  Below 2^-1022, where num/den would lose digits or
    round to 0, it is ln((num << s)/den) - s ln 2, s the bit-length
    difference, as :func:`runs_zero_exact` carries its exponent."""
    if num == 0:
        return NEG_INF
    if 2 * num > den:
        return math.log1p((num - den) / den)
    if num << 1022 < den:
        s = den.bit_length() - num.bit_length()
        return math.log((num << s) / den) - s * _LN2
    return math.log(num / den)


def _log_uncovered(x: Fraction, n_draws: int) -> float:
    """n_draws ln x, by :func:`_log_ratio` of the exact rational x: ln P(a
    pattern stays uncovered) where x is its :func:`_per_draw_avoid`."""
    return n_draws * _log_ratio(*x.as_integer_ratio())


def hypergraph_edge_prob(N: int, k: int, n_draws: int) -> LogProb:
    """P(a fixed edge of K_N is uncovered after n_draws uniform k-cliques)."""
    _refuse(_hyper_violations(N, k, n_draws))
    return LogProb(_log_uncovered(_per_draw_avoid(N, k, *_EDGE), n_draws))


def hypergraph_joint_probs(N: int, k: int, n_draws: int) -> tuple[LogProb, LogProb]:
    """P(both edges uncovered) for a vertex-sharing pair and a disjoint pair.

    Requires N >= 3 for the sharing pair; for N = 3 no disjoint pair exists
    and the disjoint probability is reported as zero.
    """
    _refuse(_hyper_violations(N, k, n_draws))
    if N < 3:
        raise ValueError(f"joint probabilities require N >= 3, got N={N}")
    q_share = LogProb(_log_uncovered(_per_draw_avoid(N, k, *_SHARING), n_draws))
    if N < 4:
        return q_share, LogProb(NEG_INF)
    return q_share, LogProb(_log_uncovered(_per_draw_avoid(N, k, *_DISJOINT), n_draws))


def _pair_cov(b_joint: Fraction, a_single: Fraction, n_draws: int) -> float:
    """b^n - a^(2n) without catastrophic cancellation.

    Written as a^(2n) * expm1(n * ln(b / a^2)), with both logs taken from
    exact rationals by :func:`_log_ratio`, so the difference keeps its
    relative accuracy when the two powers agree to many digits.  It is not
    exact: the error is a few ulps plus the rounding of exp's argument
    2n ln a, up to about 2|2n ln a| ulps.  May be negative: disjoint edge
    pairs are negatively correlated in this family.  Where x = n ln(b / a^2)
    > 0 and a^(2n) is below the normal range, it is b^n (-expm1(-x)), since
    a^(2n) has lost its digits there and expm1(x) may overflow.
    """
    if a_single == 0:
        return 0.0
    p2 = math.exp(_log_uncovered(a_single, 2 * n_draws))
    x = _log_uncovered(b_joint / (a_single * a_single), n_draws)
    if x > 0 and p2 < sys.float_info.min:
        return math.exp(_log_uncovered(b_joint, n_draws)) * -math.expm1(-x)
    return p2 * math.expm1(x)


def hypergraph_summary(
    N: int, k: int, n_draws: int, variant: str = FIRST_PRINCIPLES
) -> FamilySummary:
    """Summary for the coverage family over the C(N,2) edges of K_N.

    Every pair of edges is correlated: each edge has 2(N-2) vertex-sharing
    partners and C(N-2,2) disjoint ones, giving C(N,2)(N-2) unordered
    sharing pairs and C(N,2) C(N-2,2)/2 disjoint pairs.  Covariances come
    from exact per-draw rationals (:func:`_pair_cov`); the disjoint ones are
    negative (two disjoint edges can only compete for draws), so cov_sum
    itself can be negative, in which case the family is not positively
    associated and the additive bounds refuse to run.  Both variants give
    this summary: there is no printed closed form to reproduce.
    """
    _refuse(_hyper_violations(N, k, n_draws))
    if N < 4:
        raise ValueError(f"hypergraph summary requires N >= 4, got N={N}")
    count = comb(N, 2)
    a, b_s, b_d = (_per_draw_avoid(N, k, *x) for x in (_EDGE, _SHARING, _DISJOINT))
    p, q_s, q_d = (LogProb(_log_uncovered(x, n_draws)).linear for x in (a, b_s, b_d))

    return _summary(variant, count, p, lambda printed: (1.0, [
        (count * (N - 2), q_s, _pair_cov(b_s, a, n_draws)),
        (count * comb(N - 2, 2) // 2, q_d, _pair_cov(b_d, a, n_draws)),
    ]))


def _choices(w: np.ndarray, N: int, k: int) -> np.ndarray:
    """The partial Fisher-Yates choices of words w (rows, draws * k), k per
    draw: step j of a draw chooses c_j = min(floor(u_j (N - j)), N-1-j), u_j
    numpy's double (w_j >> 11) * 2**-53.  The 53-bit integer w_j >> 11 is
    exact as a double and times (N - j) 2**-53, a power-of-two scaling, rounds
    once, as u_j (N - j) does, so each product is numpy's to the bit."""
    radix = N - np.arange(w.shape[1], dtype=np.int32) % k
    scaled = (w >> 11).view(np.int64).astype(np.float64)  # int64 converts faster
    scaled *= radix * 2.0**-53
    choice = scaled.astype(np.int32)
    return np.minimum(choice, radix - 1, out=choice)


def _draw_vertices(choices: np.ndarray, N: int, k: int) -> np.ndarray:
    """The k vertices of K_N that each row of choices (rows, k) draws:
    step j swaps position j with position j + c_j."""
    rows = np.arange(choices.shape[0])
    perm = np.tile(np.arange(N, dtype=np.int64), (choices.shape[0], 1))
    for j in range(k):
        idx = j + choices[:, j]
        chosen = perm[rows, idx]
        perm[rows, idx] = perm[:, j]
        perm[:, j] = chosen
    return perm[:, :k]


# Largest clique-mask table that _cover_table builds, in 64-bit words (codes
# x words per mask): 2 MB, which at N = 10, k = 6 takes about 0.15 s and 30 MB
# of scratch to build on a 2-core Xeon.  A cap on codes alone would let
# N = 100, k = 3 build 600 MB.  Larger shapes sample draw by draw.
_TABLE_WORDS = 1 << 18


@lru_cache(maxsize=16)  # at most 32 MB of tables
def _cover_table(N: int, k: int) -> np.ndarray | None:
    """Clique edge masks of every Fisher-Yates draw, or None over the cap.

    Row c holds the edges of K_N (bit e % 64 of word e // 64) that the draw
    with choice code c covers.  The draw's :func:`_choices` c_j form the
    mixed-radix code c = (..(c_0 (N-1) + c_1)(N-2) + ..)(N-k+1) + c_{k-1} in
    [0, N!/(N-k)!), whose digits row c passes to :func:`_draw_vertices`.
    The table is shared between callers and read-only.
    """
    words = -(-comb(N, 2) // 64)
    codes = math.perm(N, k)
    if codes * words > _TABLE_WORDS:
        return None
    choices = np.empty((codes, k), dtype=np.int64)
    rest = np.arange(codes, dtype=np.int64)
    for j in reversed(range(k)):
        rest, choices[:, j] = np.divmod(rest, N - j)
    vertices = _draw_vertices(choices, N, k)
    edges = _edge_table(N)
    table = np.zeros((codes, words), dtype=np.uint64)
    rows = np.arange(codes)
    for a, b in combinations(range(k), 2):
        e = edges[vertices[:, a], vertices[:, b]]
        table[rows, e >> 6] |= np.uint64(1) << (e & 63).astype(np.uint64)
    table.flags.writeable = False
    return table


def _hyper_sample(w: np.ndarray, N: int, k: int, n_draws: int) -> np.ndarray:
    """Full coverage of K_N, the hypergraph family's event {Z = 0}, from
    words w (rows, n_draws * k), k per draw.

    Each step converts only its own draws' words (:func:`_choices`), so the
    batch is never held as doubles.  Only the live rows, the trials not yet
    covered, take part: once a step covers at least an eighth of them, the
    covered ones are recorded and drop out, and the next steps, sized to
    _GATHER_WORDS over the rows left, grow longer.  The batch stops once no
    row is live.  A trial still reads the same words until it is covered,
    so no outcome changes.
    """
    table = _cover_table(N, k)
    if table is None:
        return _hyper_sample_by_draw(w, N, k, n_draws)
    full = np.bitwise_or.reduce(table)  # every edge lies in some draw
    out = np.zeros(w.shape[0], dtype=bool)
    live = np.arange(w.shape[0])
    covered = np.zeros((len(live), table.shape[1]), dtype=np.uint64)
    done = np.zeros(len(live), dtype=bool)
    r = 0
    while r < n_draws and len(live):
        draws = max(1, min(n_draws - r, _GATHER_WORDS // (len(live) * table.shape[1])))
        # until a row drops out, a view: strided words convert faster than a gather
        rows = live if len(live) < len(out) else slice(None)
        choice = _choices(w[rows, r * k : (r + draws) * k], N, k).reshape(len(live), draws, k)
        code = choice[..., 0]
        for j in range(1, k):
            code = code * (N - j) + choice[..., j]
        covered |= np.bitwise_or.reduce(table[code], axis=1)
        r += draws
        done = covered[:, 0] == full[0]  # faster than all(axis=1) over a few words
        for j in range(1, len(full)):
            done &= covered[:, j] == full[j]
        if 8 * np.count_nonzero(done) >= len(live):
            out[live[done]] = True
            live, covered, done = live[~done], covered[~done], done[~done]
    out[live] = done
    return out


def _hyper_sample_by_draw(w: np.ndarray, N: int, k: int, n_draws: int) -> np.ndarray:
    """:func:`_hyper_sample` one draw at a time, for shapes over the table cap."""
    batch = w.shape[0]
    table = _edge_table(N)
    covered = np.zeros((batch, comb(N, 2)), dtype=bool)
    rows = np.arange(batch)
    pairs = list(combinations(range(k), 2))
    for r in range(n_draws):
        vertices = _draw_vertices(_choices(w[:, r * k : (r + 1) * k], N, k), N, k)
        for a, b in pairs:
            covered[rows, table[vertices[:, a], vertices[:, b]]] = True
        if covered.all():
            break
    return covered.all(axis=1)


# e^-746 < 2^-1075: a deficit below it leaves log1p(-deficit) at -0.0.
_LOG_BELOW_ROUNDING = -746.0


def cover_all_exact(N: int, k: int, n_draws: int) -> LogProb:
    """Exact P(n_draws uniform k-cliques cover every edge of K_N), N <= 7.

    Inclusion-exclusion over edge subsets S: sum over S of
    (-1)^|S| (a(S)/C(N,k))^n_draws, where a(S) counts the k-subsets whose
    clique avoids S.  Grouped by a(S), the signs sum to
    c_a = sum_m (-1)^m hist[m, a] of :func:`_avoid_histogram`, and the
    alternating sum is taken in Python integers over C(N,k)^n_draws.
    The result is the exact rational correctly rounded, through log1p of
    the exact deficit when it is near one, and exactly zero (log -inf)
    wherever coverage is impossible.  The integers grow with n_draws, to
    about n_draws * log2(C(N,k)) bits, so where the deficit is bounded
    below 2^-1075 by sum_{0<a<C} |c_a| (a*/C)^n_draws, a* the largest such a
    with c_a != 0, the log is returned as -0.0, which it rounds to.
    """
    _refuse(_hyper_violations(N, k, n_draws))
    hist = _avoid_histogram(N, k)
    signed = ((-1) ** np.arange(len(hist)) @ hist).tolist()  # c_a
    inner = [(a, abs(c)) for a, c in enumerate(signed[:-1]) if a and c]  # 0 < a < C
    if inner:
        a_star, total = inner[-1][0], sum(c for _, c in inner)
        if math.log(total) + n_draws * math.log(a_star / comb(N, k)) < _LOG_BELOW_ROUNDING:
            return LogProb(-0.0)
    # the number of covering draw sequences out of C(N, k)**n_draws
    covering = sum(c * a**n_draws for a, c in enumerate(signed) if a and c)
    if covering < 0:
        raise ArithmeticError(f"inclusion-exclusion produced {covering} < 0")
    return LogProb(_log_ratio(covering, comb(N, k) ** n_draws))


# ---------------------------------------------------------------------------
# The family table, and the functions that dispatch through it.
# ---------------------------------------------------------------------------

FAMILIES: dict[str, Family] = {
    "runs": Family(
        params={"n": int, "k": int, "p": float},
        check=_runs_violations,
        summary=runs_summary,
        budget=lambda n, k, p: n,
        sample=lambda w, n, k, p: _none_all_ones(*_run_halves(_packed_bits(w, p), k), len(w)),
        exact=runs_zero_exact,
    ),
    "triangles": Family(
        params={"n": int, "p": float},
        check=_triangles_violations,
        summary=triangles_summary,
        budget=lambda n, p: comb(n, 2),
        sample=lambda w, n, p: _none_all_ones(
            _packed_bits(w, p), _triangle_edge_indices(n), len(w)
        ),
        exact=lambda n, p: triangle_free_exact(n, p) if n <= _ENUM_VERTICES else None,
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
        summary=hypergraph_summary,
        budget=lambda N, k, n_draws: n_draws * k,
        sample=_hyper_sample,
        exact=lambda N, k, n_draws: (
            cover_all_exact(N, k, n_draws) if N <= _ENUM_VERTICES else None
        ),
        aliases=("hypergraph",),
    ),
}


def summary_for(spec: ModelSpec, variant: str = FIRST_PRINCIPLES) -> FamilySummary:
    """Build the FamilySummary for a ModelSpec."""
    family, q = bind(spec)
    return family.summary(**q, variant=variant)


def trial_budget(spec: ModelSpec) -> int:
    """Philox words consumed per trial (fixed per spec, never data-dependent)."""
    family, q = bind(spec)
    return family.budget(**q)


def trial_uniforms(
    spec: ModelSpec, seed: int, start: int, count: int
) -> np.ndarray:
    """The raw uint64 Philox words of trials [start, start+count), shape
    (count, budget), 8 bytes a slot.

    Trial i reads words [i*4*bpt, i*4*bpt + budget) of the Philox stream
    keyed by the seed, so any batching or parallel split reproduces the
    per-trial values exactly.  Word w is the one numpy's ``Generator.random``
    turns into the uniform double (w >> 11) * 2**-53; the samplers decide on
    the words what they would decide on those doubles.
    """
    budget = trial_budget(spec)
    # Philox emits 4 uint64 words per counter value; pad the per-trial budget
    # to a whole block count.
    bpt = max(1, -(-budget // 4))
    raw = np.random.Philox(key=seed, counter=start * bpt).random_raw(count * bpt * 4)
    return raw.reshape(count, bpt * 4)[:, :budget]


def simulate_batch(spec: ModelSpec, words: np.ndarray) -> np.ndarray:
    """Map per-trial Philox words (:func:`trial_uniforms`) to the event
    {Z = 0}, vectorized over rows.

    For hypergraph-cover the event is full coverage of K_N.
    """
    family, q = bind(spec)
    return family.sample(words, **q)
