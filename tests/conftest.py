"""Shared brute-force oracles for the test suite, and the ``no_trials``
fixture.

The oracles enumerate full joint laws independently of the library's
formulas, so they can certify summaries (lambda, delta, cov_sum) and
zero-probabilities without sharing any code path with the implementations
under test.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from math import comb

import numpy as np
import pytest

from assocbounds import oracles


@pytest.fixture
def no_trials(monkeypatch):
    """Makes drawing any Monte Carlo trial fail the test."""
    def no_trial(*args):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(oracles, "trial_uniforms", no_trial)

# Pair covariances below this (relative) threshold count as "uncorrelated"
# when deciding which pairs delta sums over.
_COV_EPS = 1e-13


def _weights(n_bits: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    masks = np.arange(1 << n_bits, dtype=np.int64)
    pops = np.bitwise_count(masks.astype(np.uint64)).astype(np.int64)
    w = (p**pops) * ((1.0 - p) ** (n_bits - pops))
    return masks, w


def _family_stats(
    indicators: np.ndarray, w: np.ndarray, all_pairs_delta: bool = False
) -> tuple[float, float, float]:
    """(lambda, delta, cov_sum) from an (outcomes, indicators) 0/1 matrix.

    delta sums E[Z_i Z_j] over pairs with nonzero covariance; with
    all_pairs_delta it sums over every pair instead (the convention used for
    the coverage family, where at isolated parameter points a structurally
    correlated pair can have exactly zero covariance).
    """
    zw = indicators * w[:, None]
    means = zw.sum(axis=0)
    lam = float(means.sum())
    second = indicators.T @ zw
    m = indicators.shape[1]
    delta = 0.0
    cov_sum = 0.0
    for i in range(m):
        for j in range(i + 1, m):
            e_ij = float(second[i, j])
            cov = e_ij - float(means[i] * means[j])
            cov_sum += cov
            if all_pairs_delta or abs(cov) > _COV_EPS * max(1.0, e_ij):
                delta += e_ij
    return lam, delta, cov_sum


def enum_runs_family(n: int, k: int, p: float) -> tuple[float, float, float]:
    masks, w = _weights(n, p)
    bits = ((masks[:, None] >> np.arange(n)) & 1).astype(np.float64)
    cols = []
    for i in range(n):
        idx = [(i + j) % n for j in range(k)]
        cols.append(bits[:, idx].prod(axis=1))
    return _family_stats(np.column_stack(cols), w)


def enum_triangles_family(n: int, p: float) -> tuple[float, float, float]:
    n_edges = comb(n, 2)
    edges = list(combinations(range(n), 2))
    eidx = {e: i for i, e in enumerate(edges)}
    masks, w = _weights(n_edges, p)
    bits = ((masks[:, None] >> np.arange(n_edges)) & 1).astype(np.float64)
    cols = []
    for a, b, c in combinations(range(n), 3):
        cols.append(
            bits[:, eidx[(a, b)]] * bits[:, eidx[(a, c)]] * bits[:, eidx[(b, c)]]
        )
    return _family_stats(np.column_stack(cols), w)


def enum_ustat_family(n: int, k: int, p: float) -> tuple[float, float, float]:
    masks, w = _weights(n, p)
    bits = ((masks[:, None] >> np.arange(n)) & 1).astype(np.float64)
    cols = [bits[:, list(s)].prod(axis=1) for s in combinations(range(n), k)]
    return _family_stats(np.column_stack(cols), w)


def enum_hypergraph_family(N: int, k: int, n_draws: int) -> tuple[float, float, float]:
    subsets = list(combinations(range(N), k))
    edges = list(combinations(range(N), 2))
    eidx = {e: i for i, e in enumerate(edges)}
    n_edges = len(edges)
    emasks = []
    for s in subsets:
        m = 0
        for e in combinations(s, 2):
            m |= 1 << eidx[e]
        emasks.append(m)
    rows = []
    for seq in product(range(len(subsets)), repeat=n_draws):
        covered = 0
        for s in seq:
            covered |= emasks[s]
        rows.append([1 - ((covered >> i) & 1) for i in range(n_edges)])
    indicators = np.array(rows, dtype=np.float64)
    w = np.full(len(rows), 1.0 / len(rows))
    return _family_stats(indicators, w, all_pairs_delta=True)


def enum_hypergraph_cover_prob(N: int, k: int, n_draws: int) -> float:
    """P(all edges covered) by direct enumeration of draw sequences."""
    subsets = list(combinations(range(N), k))
    edges = list(combinations(range(N), 2))
    eidx = {e: i for i, e in enumerate(edges)}
    full = (1 << len(edges)) - 1
    emasks = []
    for s in subsets:
        m = 0
        for e in combinations(s, 2):
            m |= 1 << eidx[e]
        emasks.append(m)
    hits = 0
    total = 0
    for seq in product(range(len(subsets)), repeat=n_draws):
        covered = 0
        for s in seq:
            covered |= emasks[s]
        hits += covered == full
        total += 1
    return hits / total


@lru_cache(maxsize=None)
def triangle_free_counts(n: int) -> tuple[int, ...]:
    """counts[m] = the number of triangle-free graphs on n labeled vertices
    with m edges, grown one vertex at a time: a triangle-free graph gains a
    vertex without a triangle iff the new vertex's neighbours are pairwise
    non-adjacent, so only triangle-free graphs are ever built."""
    counts = [0] * (comb(n, 2) + 1)
    graphs = [((), 0)]  # (neighbour bitmask of each vertex, edge count)
    for v in range(n):
        grown = []
        for adj, edges in graphs:
            for nbrs in range(1 << v):
                if any(nbrs >> u & 1 and adj[u] & nbrs for u in range(v)):
                    continue
                if v == n - 1:
                    counts[edges + bin(nbrs).count("1")] += 1
                    continue
                new = tuple(a | (nbrs >> u & 1) << v for u, a in enumerate(adj))
                grown.append((new + (nbrs,), edges + bin(nbrs).count("1")))
        graphs = grown
    return tuple(counts)


def circular_runs(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Over all 2^n strings as bitmasks: whether each holds k consecutive
    ones circularly, and its number of ones."""
    masks = np.arange(1 << n, dtype=np.int64)
    full = (1 << n) - 1
    acc = masks.copy()
    for d in range(1, k):
        rot = ((masks >> d) | (masks << (n - d))) & full
        acc &= rot
    pops = np.bitwise_count(masks.astype(np.uint64)).astype(np.int64)
    return acc != 0, pops


def brute_runs_zero(n: int, k: int, p: float) -> float:
    """P(no k consecutive ones, circularly) by enumerating all 2^n strings."""
    has_run, pops = circular_runs(n, k)
    counts = np.bincount(pops[~has_run], minlength=n + 1)
    return float(
        sum(c * p**m * (1.0 - p) ** (n - m) for m, c in enumerate(counts) if c)
    )


def brute_ustat_zero(n: int, k: int, p: float) -> float:
    masks = np.arange(1 << n, dtype=np.int64)
    pops = np.bitwise_count(masks.astype(np.uint64)).astype(np.int64)
    good = pops <= k - 1
    counts = np.bincount(pops[good], minlength=n + 1)
    return float(
        sum(c * p**m * (1.0 - p) ** (n - m) for m, c in enumerate(counts) if c)
    )
