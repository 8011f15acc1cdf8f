"""Ground truth for P(Z=0): the exact oracle of each family (defined with
its family in :mod:`models` and re-exported here), a Monte Carlo driver, and
the moment-generating-function gap verifier.
"""

from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

import numpy as np

from .family import ModelSpec
from .models import bind, simulate_batch, trial_budget, trial_uniforms
from .models import (  # noqa: F401  (re-exported: each oracle lives with its family)
    cover_all_exact,
    runs_zero_exact,
    triangle_free_exact,
    ustat_zero_exact,
)
from .numerics import ConfidenceInterval, LogProb, clopper_pearson

DEFAULT_SEED = 0xA55C1A7E  # documented constant so bare runs are reproducible


@dataclass(frozen=True)
class EstimateWithCI:
    """Monte Carlo estimate of P(Z=0) with an exact binomial interval."""

    estimate: float
    ci: ConfidenceInterval
    trials: int
    successes: int
    seed: int

    def __post_init__(self) -> None:
        if not self.ci.lower <= self.estimate <= self.ci.upper:
            raise ValueError("estimate must lie inside its confidence interval")

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "estimate": self.estimate,
            "ci": {
                "lower": self.ci.lower,
                "upper": self.ci.upper,
                "level": self.ci.level,
            },
            "trials": self.trials,
            "successes": self.successes,
            "seed": self.seed,
        }


# ---------------------------------------------------------------------------
# Monte Carlo driver.
# ---------------------------------------------------------------------------

_BATCH_DOUBLES = 4_000_000
# Checked before the pool starts, so an oversized request starts no threads.
MAX_WORKERS = 64


def _count_chunk(spec: ModelSpec, seed: int, start: int, stop: int) -> int:
    budget = trial_budget(spec)
    batch = max(1, min(stop - start, _BATCH_DOUBLES // max(budget, 1)))
    successes = 0
    i = start
    while i < stop:
        count = min(batch, stop - i)
        u = trial_uniforms(spec, seed, i, count)
        successes += int(simulate_batch(spec, u).sum())
        i += count
    return successes


def monte_carlo(
    spec: ModelSpec,
    trials: int,
    seed: int = DEFAULT_SEED,
    level: float = 0.95,
    workers: int = 1,
) -> EstimateWithCI:
    """Estimate P(Z=0) over `trials` counter-seeded trials.

    The success count is a sum over per-trial outcomes that depend only on
    (seed, trial_index), so the result is bit-identical for any worker count
    (1 to MAX_WORKERS threads) or batching schedule.
    """
    spec.ensure_valid()
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must lie in [1, {MAX_WORKERS}], got {workers}")
    if workers == 1 or trials < 2 * workers:
        successes = _count_chunk(spec, seed, 0, trials)
    else:
        bounds_ = [round(w * trials / workers) for w in range(workers + 1)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_count_chunk, spec, seed, a, b)
                for a, b in zip(bounds_[:-1], bounds_[1:])
            ]
            successes = sum(f.result() for f in futures)
    estimate = successes / trials
    ci = clopper_pearson(successes, trials, level)
    return EstimateWithCI(
        estimate=estimate, ci=ci, trials=trials, successes=successes, seed=seed
    )


def oracle_for(spec: ModelSpec) -> LogProb | None:
    """Exact P(Z=0) for the given model spec, or None outside the exact range."""
    family, q = bind(spec)
    return family.exact(**q)


# ---------------------------------------------------------------------------
# Moment-generating-function gap verifier.
# ---------------------------------------------------------------------------

def mgf_gap_check(
    joint: np.ndarray | list[float], t: float
) -> tuple[float, float, bool]:
    """Check |E e^{t sum X} - prod E e^{t X_i}| <= t^2 e^{m t} sum Cov.

    ``joint`` is an explicit law over m binary variables given as 2^m atom
    probabilities (atom index = bitmask, bit i = value of variable i).
    Both sides are computed by exhaustive expectation; returns
    (gap, bound, holds).  A zero covariance sum gives a zero bound, and holds
    allows a slack of 1e-12 times the larger of 1 and the two expectations,
    which round relative to their size.  t must be positive with
    m t <= ln(DBL_MAX), about 709.78, where e^{m t} stays finite.
    """
    probs = np.asarray(joint, dtype=np.float64)
    size = probs.shape[0]
    m = size.bit_length() - 1
    if size != 1 << m or m < 1 or m > 20:
        raise ValueError(
            f"joint law must have 2^m atoms with 1 <= m <= 20, got {size}"
        )
    if abs(float(probs.sum()) - 1.0) > 1e-9 or (probs < -1e-12).any():
        raise ValueError("joint law must be a probability vector summing to 1")
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    if not m * t <= math.log(sys.float_info.max):  # an infinite t too
        raise ValueError(f"m*t must be at most ln(DBL_MAX), about 709.78: got m={m}, t={t}")

    atoms = np.arange(size, dtype=np.uint64)
    bits = ((atoms[:, None] >> np.arange(m, dtype=np.uint64)) & 1).astype(
        np.float64
    )
    pops = bits.sum(axis=1)

    e_joint = float(probs @ np.exp(t * pops))
    marginals = probs @ bits
    per_var = 1.0 + (math.exp(t) - 1.0) * marginals
    e_product = float(np.prod(per_var))
    gap = abs(e_joint - e_product)

    second = bits.T @ (probs[:, None] * bits)
    cov = second - np.outer(marginals, marginals)
    cov_sum = float(np.triu(cov, k=1).sum())
    # where t^2 e^{m t} overflows, a zero sum would read inf * 0 = NaN
    bound = t * t * math.exp(m * t) * cov_sum if cov_sum != 0.0 else 0.0
    slack = 1e-12 * max(1.0, e_joint, e_product)
    return gap, bound, gap <= bound + slack


def random_monotone_joint(
    n_vars: int, n_bits: int, rng: np.random.Generator
) -> np.ndarray:
    """A random joint law of n_vars monotone threshold functions of n_bits
    independent Bernoulli bits; such variables are positively associated.

    Each variable is 1 iff a nonnegative weighted sum of the bits clears a
    random threshold.
    """
    if not 1 <= n_vars <= 16 or not 1 <= n_bits <= 12:
        raise ValueError("need 1 <= n_vars <= 16 and 1 <= n_bits <= 12")
    bit_p = rng.uniform(0.2, 0.8, size=n_bits)
    weights = rng.uniform(0.0, 1.0, size=(n_vars, n_bits))
    thresholds = rng.uniform(0.0, weights.sum(axis=1))

    atoms = np.arange(1 << n_bits, dtype=np.uint64)
    bits = ((atoms[:, None] >> np.arange(n_bits, dtype=np.uint64)) & 1).astype(
        np.float64
    )
    atom_probs = np.prod(np.where(bits == 1.0, bit_p, 1.0 - bit_p), axis=1)
    values = (bits @ weights.T >= thresholds).astype(np.int64)
    indices = (values << np.arange(n_vars, dtype=np.int64)).sum(axis=1)
    joint = np.zeros(1 << n_vars, dtype=np.float64)
    np.add.at(joint, indices, atom_probs)
    return joint
