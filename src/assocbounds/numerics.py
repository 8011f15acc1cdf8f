"""Log-domain arithmetic, 1-D minimization, exact binomial CIs.

Every probability-like quantity in this package is carried as a natural log
(:class:`LogProb`) so that products such as (1-p)^m survive exponents in the
thousands without underflow.  Bound values may exceed 1, so a LogProb is a log
of any nonnegative number, not just of a probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

NEG_INF = float("-inf")

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


def check_level(level: float) -> None:
    """Refuse a confidence level outside (0, 1), NaN included."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")


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
        check_level(self.level)

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


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# minimize_scalar stops when its bracket is this wide in ln t.
_LOG_T_TOLERANCE = 1e-9


def minimize_scalar(
    f: Callable[[float], float], t_min: float, t_max: float
) -> tuple[float, LogProb]:
    """Golden-section minimization in ln t of an objective unimodal in ln t.

    ``f`` returns a bare log value, so a search builds one LogProb, for the
    minimum, and none per probe.

    Both ends, exactly ``t_min`` and ``t_max``, are evaluated first; the
    search then spans the whole range in ln t until the bracket is
    ``_LOG_T_TOLERANCE`` wide, that is, that wide relative to t.  There is
    no grid: a multimodal objective may be left in a local minimum.  The
    returned t is a point the objective was evaluated at, so it lies in
    ``[t_min, t_max]`` and is exactly an end when the minimum is there.  A
    point where ``f`` returns NaN, or raises ValueError or ArithmeticError,
    counts as +inf.

    Raises ValueError if the objective fails at both ends.
    """
    if not (0 < t_min < t_max < math.inf):
        raise ValueError(f"need 0 < t_min < t_max < inf, got [{t_min}, {t_max}]")

    def probe(t: float) -> float:
        try:
            v = f(t)
        except (ValueError, ArithmeticError):
            return math.inf
        return math.inf if math.isnan(v) else v

    best_f, best_t = min((probe(t), t) for t in (t_min, t_max))
    if best_f == math.inf:
        raise ValueError(
            f"objective failed at both ends t={t_min} and t={t_max}; ill-posed objective"
        )

    a, b = math.log(t_min), math.log(t_max)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    tc, td = math.exp(c), math.exp(d)
    fc, fd = probe(tc), probe(td)
    while True:
        for t, v in ((tc, fc), (td, fd)):
            if v < best_f:
                best_t, best_f = t, v
        if b - a <= _LOG_T_TOLERANCE:
            return best_t, LogProb(best_f)
        if fc <= fd:
            b, d, td, fd = d, c, tc, fc
            c = b - _INV_PHI * (b - a)
            tc = math.exp(c)
            fc = probe(tc)
        else:
            a, c, tc, fc = c, d, td, fd
            d = a + _INV_PHI * (b - a)
            td = math.exp(d)
            fd = probe(td)


def clopper_pearson(successes: int, trials: int, level: float) -> ConfidenceInterval:
    """Exact binomial confidence interval via Beta-quantile inversion.

    ``scipy.stats``, most of a process's start-up, loads on the first call."""
    from scipy.stats import beta as beta_dist

    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    check_level(level)
    alpha = 1.0 - level
    if successes == 0:
        lower = 0.0
    else:
        lower = float(beta_dist.ppf(alpha / 2.0, successes, trials - successes + 1))
    if successes == trials:
        upper = 1.0
    else:
        upper = float(beta_dist.ppf(1.0 - alpha / 2.0, successes + 1, trials - successes))
    return ConfidenceInterval(lower=lower, upper=upper, level=level)
