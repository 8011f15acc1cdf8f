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


# minimize_scalar stops when its Newton or bisection step is this small in ln t.
_LOG_T_TOLERANCE = 1e-9

# f's result at t: (log value, h, dh/du) with u = ln t
_Probe = tuple[float, float, float]
_FAILED: _Probe = (math.inf, math.nan, math.nan)


def minimize_scalar(
    f: Callable[[float], _Probe], t_min: float, t_max: float
) -> tuple[float, LogProb]:
    """Minimize over [t_min, t_max] a log value whose slope in u = ln t has
    the sign of an increasing function h(u), by a safeguarded Newton root of h.

    ``f(t)`` returns ``(log value, h, dh/du)`` as bare floats, so a search
    builds one LogProb, for the minimum, and none per probe.  Both ends,
    exactly ``t_min`` and ``t_max``, are evaluated first.  h >= 0 at
    ``t_min`` certifies that the minimum is there and returns exactly
    ``t_min``; otherwise h <= 0 at ``t_max`` returns exactly ``t_max``.
    Otherwise the ends bracket the root of h, and Newton steps in u follow
    it from the end whose Newton point is the lower.  A step that would
    leave the bracket, or that is more than half the step before the last,
    becomes a bisection (the ``rtsafe`` rule of Numerical Recipes); so does
    a step from a point where dh/du is not positive.  The search stops once a step is under
    ``_LOG_T_TOLERANCE`` in ln t, or h is exactly 0, and returns the last
    point it evaluated, the one nearest the root.  It does not return the
    point of smallest value: where the values round, that may lie further
    from the root.

    A probe fails where ``f`` raises ValueError or ArithmeticError, or
    returns a NaN value or h.  A failed end brackets nothing, and the search
    returns the end of smaller value, a failed end counting as +inf; a
    failed probe inside stops the search at the point before it.  Raises
    ValueError if the objective fails at both ends.
    """
    if not (0 < t_min < t_max < math.inf):
        raise ValueError(f"need 0 < t_min < t_max < inf, got [{t_min}, {t_max}]")

    def probe(t: float) -> _Probe:
        try:
            v, h, dh = f(t)
        except (ValueError, ArithmeticError):
            return _FAILED
        return _FAILED if math.isnan(v) or math.isnan(h) else (v, h, dh)

    v_lo, h_lo, dh_lo = probe(t_min)
    v_hi, h_hi, dh_hi = probe(t_max)
    if v_lo == v_hi == math.inf:
        raise ValueError(
            f"objective failed at both ends t={t_min} and t={t_max}; ill-posed objective"
        )
    if h_lo >= 0.0:
        return t_min, LogProb(v_lo)
    if h_hi <= 0.0:
        return t_max, LogProb(v_hi)
    if math.isnan(h_lo) or math.isnan(h_hi):
        v, t = min((v_lo, t_min), (v_hi, t_max))
        return t, LogProb(v)

    def newton(u: float, h: float, dh: float) -> float:
        return u - h / dh if dh > 0.0 else math.nan

    # the bracket [a, b] keeps h(a) < 0 < h(b).  Where h is convex, both
    # ends' Newton points lie at or above the root; start from the end whose
    # point is the lower.
    a, b = math.log(t_min), math.log(t_max)
    if newton(a, h_lo, dh_lo) < newton(b, h_hi, dh_hi):
        t, v, h, dh, u = t_min, v_lo, h_lo, dh_lo, a
    else:
        t, v, h, dh, u = t_max, v_hi, h_hi, dh_hi, b
    step = last = b - a
    while True:
        u_next = newton(u, h, dh)
        if a <= u_next <= b and abs(2.0 * h) <= abs(last * dh):
            last, step, u = step, u - u_next, u_next
        else:
            last, step = step, 0.5 * (b - a)
            u = a + step
        if abs(step) < _LOG_T_TOLERANCE:
            return t, LogProb(v)
        t_u = math.exp(u)
        v_u, h_u, dh_u = probe(t_u)
        if math.isnan(h_u):
            return t, LogProb(v)
        t, v, h, dh = t_u, v_u, h_u, dh_u
        if h < 0.0:
            a = u
        elif h > 0.0:
            b = u
        else:
            return t, LogProb(v)


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
