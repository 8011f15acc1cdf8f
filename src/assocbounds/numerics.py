"""Log-domain arithmetic, binomial coefficients, 1-D minimization, exact binomial CIs.

Every probability-like quantity in this package is carried as a natural log
(:class:`LogProb`) so that products such as (1-p)^m survive exponents in the
thousands without underflow.  Bound values may exceed 1, so a LogProb is a log
of any nonnegative number, not just of a probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from scipy.stats import beta as _beta_dist

NEG_INF = float("-inf")

# Below this n we use exact integer binomials; above, log-gamma.
_EXACT_BINOM_LIMIT = 60


@dataclass(frozen=True, order=True)
class LogProb:
    """ln of a nonnegative quantity; -inf encodes exactly zero.

    log_value lives in [-inf, +inf): NaN and +inf are rejected at
    construction.  Ordering compares log values, i.e. linear magnitudes.
    """

    log_value: float

    def __post_init__(self) -> None:
        v = self.log_value
        if math.isnan(v) or v == math.inf:
            raise ValueError(f"log_value must lie in [-inf, +inf), got {v!r}")

    @classmethod
    def from_linear(cls, x: float) -> "LogProb":
        if math.isnan(x) or x < 0:
            raise ValueError(f"cannot represent {x!r} as a log-domain value")
        if x == 0:
            return cls(NEG_INF)
        return cls(math.log(x))

    @property
    def linear(self) -> float:
        """Back to linear domain; overflows saturate to +inf."""
        if self.log_value == NEG_INF:
            return 0.0
        try:
            return math.exp(self.log_value)
        except OverflowError:
            return math.inf

    @property
    def is_zero(self) -> bool:
        return self.log_value == NEG_INF


ZERO = LogProb(NEG_INF)

# Relative tolerance of log_exceeds, about 4500 ulps of a double.
LOG_RTOL = 1e-12

_JSON_LOG_FLOOR = math.log(1e-300)


def log_exceeds(a: float, b: float) -> bool:
    """True iff log value ``a`` lies above ``b`` by more than LOG_RTOL of the
    larger magnitude.

    Unlike an absolute linear tolerance, this still separates values far
    below the tolerance and values near one.  -inf (exactly zero) lies below
    every finite value rather than widening the tolerance to infinity.
    """
    if a == NEG_INF:
        return False
    if b == NEG_INF:
        return True
    return a - b > LOG_RTOL * max(abs(a), abs(b))


def json_log_linear(lp: LogProb | None) -> tuple[float | None, float | None]:
    """(log, linear) for JSON: null for exact zero, and null linear outside
    [1e-300, e^700), where the linear value would underflow or overflow."""
    if lp is None:
        return None, None
    lv = lp.log_value
    linear = lp.linear if _JSON_LOG_FLOOR <= lv < 700.0 else None
    return (None if lv == NEG_INF else lv), linear


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided interval for a probability, with its nominal level."""

    lower: float
    upper: float
    level: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.lower <= self.upper <= 1.0):
            raise ValueError(
                f"interval must satisfy 0 <= lower <= upper <= 1, "
                f"got [{self.lower}, {self.upper}]"
            )
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must be in (0, 1), got {self.level}")

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper


def log_add_floats(la: float, lb: float) -> float:
    """ln(e^la + e^lb) on bare log values, for loops that build no LogProb."""
    if la == NEG_INF:
        return lb
    if lb == NEG_INF:
        return la
    hi, lo = (la, lb) if la >= lb else (lb, la)
    return hi + math.log1p(math.exp(lo - hi))


def log_add(a: LogProb, b: LogProb) -> LogProb:
    """ln(e^a + e^b) without overflow; -inf acts as the additive identity."""
    return LogProb(log_add_floats(a.log_value, b.log_value))


def log_binom(n: int, k: int) -> LogProb:
    """ln C(n, k); -inf when k < 0 or k > n.

    Exact integer arithmetic below n=60, log-gamma above; the two paths are
    cross-checked in the tests.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if k < 0 or k > n:
        return ZERO
    if n < _EXACT_BINOM_LIMIT:
        return LogProb(math.log(math.comb(n, k)))
    return LogProb(
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_REFINE_STEPS = 400


def minimize_scalar(
    f: Callable[[float], LogProb],
    t_min: float,
    t_max: float,
    grid_points: int = 200,
    refine_tolerance: float = 1e-9,
) -> tuple[float, LogProb]:
    """Grid-then-golden-section minimization of a log-domain objective.

    A log-spaced grid localizes the minimum (the objective is not assumed
    unimodal), then golden-section search refines inside the bracketing
    triple until the bracket width falls below ``refine_tolerance`` relative
    to the bracket's right endpoint.  The returned value never exceeds the
    minimum over the evaluation grid.

    Raises ValueError if the objective fails to evaluate at more than half
    of the grid points.
    """
    if not (0 < t_min < t_max):
        raise ValueError(f"need 0 < t_min < t_max, got [{t_min}, {t_max}]")
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")

    log_lo, log_hi = math.log(t_min), math.log(t_max)
    step = (log_hi - log_lo) / (grid_points - 1)
    grid = [math.exp(log_lo + i * step) for i in range(grid_points)]

    values: list[LogProb | None] = []
    failures = 0
    for t in grid:
        try:
            values.append(f(t))
        except (ValueError, ArithmeticError):
            values.append(None)
            failures += 1
    if failures > grid_points // 2:
        raise ValueError(
            f"objective failed at {failures}/{grid_points} grid points; "
            f"ill-posed objective"
        )

    best_i = min(
        (i for i, v in enumerate(values) if v is not None),
        key=lambda i: values[i].log_value,
    )
    best_t, best_f = grid[best_i], values[best_i]

    a = grid[max(best_i - 1, 0)]
    b = grid[min(best_i + 1, grid_points - 1)]

    def probe(t: float) -> LogProb | None:
        try:
            return f(t)
        except (ValueError, ArithmeticError):
            return None

    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = probe(c), probe(d)
    for _ in range(_MAX_REFINE_STEPS):
        if (b - a) <= refine_tolerance * max(abs(b), 1e-300):
            break
        for t, v in ((c, fc), (d, fd)):
            if v is not None and v.log_value < best_f.log_value:
                best_t, best_f = t, v
        fc_key = math.inf if fc is None else fc.log_value
        fd_key = math.inf if fd is None else fd.log_value
        if fc_key <= fd_key:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = probe(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = probe(d)
    for t, v in ((c, fc), (d, fd)):
        if v is not None and v.log_value < best_f.log_value:
            best_t, best_f = t, v

    return best_t, best_f


def clopper_pearson(successes: int, trials: int, level: float) -> ConfidenceInterval:
    """Exact binomial confidence interval via Beta-quantile inversion."""
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    alpha = 1.0 - level
    if successes == 0:
        lower = 0.0
    else:
        lower = float(_beta_dist.ppf(alpha / 2.0, successes, trials - successes + 1))
    if successes == trials:
        upper = 1.0
    else:
        upper = float(_beta_dist.ppf(1.0 - alpha / 2.0, successes + 1, trials - successes))
    return ConfidenceInterval(lower=lower, upper=upper, level=level)
