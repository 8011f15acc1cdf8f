"""Exponential upper bounds on P(X=0) for sums of associated indicators.

Upper bounds implemented, all evaluated in log domain on a
:class:`~assocbounds.family.FamilySummary`:

  janson-basic       exp(-lambda + delta)
  janson-ratio       exp(-lambda / delta_bar^2) as printed in its source;
                     the literature form exp(-lambda^2 / delta_bar) is
                     available via ``form="standard"``
  boppona-spencer    exp(delta / (1 - max_mean)) * prod(1 - p_i)
  boutsikas-koutras  prod(1 - p_i) + cov_sum
  lv-general         exp(-t|I|) * (prod E[exp(t(1-X_i))] + t^2 e^{t|I|} cov_sum)
  lv-iid             homogeneous rearrangement of lv-general
  lv-optimal         lv-general minimized over t

plus the reference floor ``independent-lower`` = prod(1 - p_i), a *lower*
bound on P(X=0) under positive association.

The additive bounds (boutsikas-koutras, lv-*) are only valid for positively
associated families; they refuse to evaluate when cov_sum < 0, which is the
summary-level signal that positive association fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from .family import FamilySummary
from .numerics import NEG_INF, LogProb, json_log_linear, log_add, log_add_floats, minimize_scalar

# Canonical emission order for evaluate_all.
METHOD_ORDER = (
    "janson-basic",
    "janson-ratio",
    "boppona-spencer",
    "boutsikas-koutras",
    "lv-general",
    "lv-iid",
    "lv-optimal",
    "independent-lower",
)
UPPER_METHODS = METHOD_ORDER[:-1]

# lv-optimal search settings: log-spaced grid, then golden-section refinement.
# The cap at 50 makes the cov_sum=0 limit numerically exact: exp(-50)*p/(1-p)
# is below double rounding for any p of interest.
T_GRID_MIN = 1e-12
T_GRID_MAX = 50.0
T_GRID_POINTS = 200
T_REFINE_TOL = 1e-9

@dataclass(frozen=True)
class BoundResult:
    """One evaluated bound; ``t`` is set only for the lv-* methods.

    ``log_t`` preserves the exact exponent for t overrides given in log form,
    where the linear ``t`` may underflow to 0.0.
    """

    method: str
    value: LogProb
    t: float | None = None
    log_t: float | None = None

    @property
    def vacuous(self) -> bool:
        return self.value.log_value >= 0.0

    def to_json_dict(self) -> dict[str, Any]:
        log_value, linear = json_log_linear(self.value)
        d: dict[str, Any] = {
            "method": self.method,
            "log_value": log_value,
            "value": linear,
            "t": self.t,
            "vacuous": self.vacuous,
            "skipped_reason": None,
        }
        if self.log_t is not None:
            d["log_t"] = self.log_t
        return d


@dataclass(frozen=True)
class SkippedBound:
    """A bound whose precondition failed, with the reason it was skipped."""

    method: str
    reason: str

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "method": self.method,
            "log_value": None,
            "value": None,
            "t": None,
            "vacuous": None,
            "skipped_reason": self.reason,
        }


BoundEntry = BoundResult | SkippedBound


def _log1m(p: float) -> float:
    """ln(1 - p) with the p=1 endpoint mapped to -inf."""
    if p >= 1.0:
        return NEG_INF
    return math.log1p(-p)


def _sum_log1m_means(s: FamilySummary) -> float:
    if s.is_homogeneous:
        return s.count * _log1m(s.means)
    return math.fsum(_log1m(p) for p in s.means)


def _require_nonneg_cov(s: FamilySummary, method: str) -> None:
    if s.cov_sum < 0:
        raise ValueError(
            f"{method} requires a nonnegative covariance sum (positive "
            f"association); got cov_sum={s.cov_sum}"
        )


def janson_basic(s: FamilySummary) -> BoundResult:
    """exp(-lambda + delta)."""
    return BoundResult("janson-basic", LogProb(-s.lambda_ + s.delta))


def janson_ratio(s: FamilySummary, form: str = "printed") -> BoundResult:
    """Ratio-form bound: exp(-lambda/delta_bar^2) or exp(-lambda^2/delta_bar).

    The default ``printed`` form reproduces the source exactly; it is
    dimensionally suspect and is demonstrably not a valid upper bound at
    small lambda (see the tests).  ``standard`` selects the literature form.
    """
    if s.delta_bar <= 0:
        raise ValueError(
            f"janson-ratio requires delta_bar > 0, got {s.delta_bar} "
            f"(only happens when lambda = 0)"
        )
    if form == "printed":
        exponent = -s.lambda_ / (s.delta_bar * s.delta_bar)
    elif form == "standard":
        exponent = -(s.lambda_ * s.lambda_) / s.delta_bar
    else:
        raise ValueError(f"form must be 'printed' or 'standard', got {form!r}")
    return BoundResult("janson-ratio", LogProb(exponent))


def boppona_spencer(s: FamilySummary) -> BoundResult:
    """exp(delta / (1 - max_mean)) * prod(1 - p_i)."""
    if s.max_mean >= 1.0:
        raise ValueError(
            f"boppona-spencer requires max mean < 1, got {s.max_mean}"
        )
    log_value = s.delta / (1.0 - s.max_mean) + _sum_log1m_means(s)
    return BoundResult("boppona-spencer", LogProb(log_value))


def boutsikas_koutras(s: FamilySummary) -> BoundResult:
    """prod(1 - p_i) + cov_sum."""
    _require_nonneg_cov(s, "boutsikas-koutras")
    product = LogProb(_sum_log1m_means(s))
    cov = LogProb(NEG_INF if s.cov_sum == 0 else math.log(s.cov_sum))
    return BoundResult("boutsikas-koutras", log_add(product, cov))


def _resolve_t(t: float | None, log_t: float | None) -> tuple[float, float]:
    """Return (t_linear, log_t); exactly one of the inputs must be given.

    A log-form override reaches exponents far below the double range (the
    linear t then underflows to 0.0 but the covariance term stays exact).
    """
    if (t is None) == (log_t is None):
        raise ValueError("exactly one of t / log_t must be provided")
    if t is not None:
        if not (t > 0) or math.isinf(t):
            raise ValueError(f"t must be a positive finite real, got {t}")
        return t, math.log(t)
    if not math.isfinite(log_t):
        raise ValueError(f"log_t must be finite, got {log_t}")
    if log_t >= 700.0:
        raise ValueError(f"log_t={log_t} is too large; t would overflow")
    # exp underflows to 0.0 for log_t below about -745; the bound math keeps
    # using the exact log_t, only the reported linear t saturates.
    return math.exp(log_t), log_t


def _tilt_term(p: float, t: float) -> float:
    """ln(1 - p + p e^{-t}), the per-indicator factor of the tilted product.

    Equal to ln((1-p)(1 + e^{-t} p/(1-p))) for p < 1; stable for all t > 0.
    """
    if p >= 1.0:
        return -t
    return math.log1p(p * math.expm1(-t))


def _lv_value(s: FamilySummary, t: float, log_t: float) -> LogProb:
    if s.is_homogeneous:
        product_term = s.count * _tilt_term(s.means, t)
    else:
        product_term = math.fsum(_tilt_term(p, t) for p in s.means)
    if s.cov_sum == 0:
        cov_term = NEG_INF
    else:
        cov_term = 2.0 * log_t + math.log(s.cov_sum)
    # the optimizer's objective: one LogProb per evaluation
    return LogProb(log_add_floats(product_term, cov_term))


def lv_general(
    s: FamilySummary, t: float | None = None, *, log_t: float | None = None
) -> BoundResult:
    """exp(-t|I|) * (prod E[e^{t(1-X_i)}] + t^2 e^{t|I|} cov_sum).

    The e^{t|I|} factor cancels, leaving the tilted product plus
    t^2 * cov_sum; both terms are evaluated in log domain.
    """
    _require_nonneg_cov(s, "lv-general")
    t_lin, lt = _resolve_t(t, log_t)
    return BoundResult("lv-general", _lv_value(s, t_lin, lt), t=t_lin, log_t=lt)


def lv_iid(
    s: FamilySummary, t: float | None = None, *, log_t: float | None = None
) -> BoundResult:
    """(1-p)^{|I|} (1 + e^{-t} p/(1-p))^{|I|} + t^2 cov_sum, homogeneous only."""
    if not s.is_homogeneous:
        raise ValueError("lv-iid requires a homogeneous summary")
    if s.means >= 1.0:
        raise ValueError("lv-iid requires p < 1")
    _require_nonneg_cov(s, "lv-iid")
    t_lin, lt = _resolve_t(t, log_t)
    return BoundResult("lv-iid", _lv_value(s, t_lin, lt), t=t_lin, log_t=lt)


def lv_optimal(
    s: FamilySummary,
    t_min: float = T_GRID_MIN,
    t_max: float = T_GRID_MAX,
    grid_points: int = T_GRID_POINTS,
    refine_tolerance: float = T_REFINE_TOL,
) -> BoundResult:
    """lv-general minimized over t on a log-spaced grid with refinement.

    The objective is a sum of a decreasing and an increasing term and is not
    guaranteed unimodal, so a global grid search precedes the local
    refinement; the result never exceeds lv-general at any grid t.
    """
    _require_nonneg_cov(s, "lv-optimal")
    t_star, f_star = minimize_scalar(
        lambda t: _lv_value(s, t, math.log(t)),
        t_min,
        t_max,
        grid_points=grid_points,
        refine_tolerance=refine_tolerance,
    )
    return BoundResult("lv-optimal", f_star, t=t_star, log_t=math.log(t_star))


def independent_lower(s: FamilySummary) -> BoundResult:
    """prod(1 - p_i): a lower bound on P(X=0) under positive association."""
    return BoundResult("independent-lower", LogProb(_sum_log1m_means(s)))


def evaluate_all(
    s: FamilySummary,
    *,
    t: float | None = None,
    log_t: float | None = None,
    eq2_form: str = "printed",
) -> list[BoundEntry]:
    """Evaluate every applicable bound in a deterministic order.

    Bounds whose preconditions fail are reported as :class:`SkippedBound`
    with the reason.  Without a t override, the lv entries are reported at
    the optimizer's t; an explicit t (or log-form log_t) adds an lv-general
    entry at that t and moves lv-iid onto it, while lv-optimal is always the
    minimized bound.
    """
    explicit_t = t is not None or log_t is not None
    entries: list[BoundEntry] = []

    def attempt(method: str, fn) -> BoundEntry:
        try:
            return fn()
        except ValueError as exc:
            return SkippedBound(method, str(exc))

    entries.append(attempt("janson-basic", lambda: janson_basic(s)))
    entries.append(attempt("janson-ratio", lambda: janson_ratio(s, form=eq2_form)))
    entries.append(attempt("boppona-spencer", lambda: boppona_spencer(s)))
    entries.append(attempt("boutsikas-koutras", lambda: boutsikas_koutras(s)))

    if explicit_t:
        entries.append(
            attempt("lv-general", lambda: lv_general(s, t, log_t=log_t))
        )

    optimal = attempt("lv-optimal", lambda: lv_optimal(s))

    if explicit_t:
        entries.append(attempt("lv-iid", lambda: lv_iid(s, t, log_t=log_t)))
    elif isinstance(optimal, BoundResult):
        t_star = optimal.t
        entries.append(attempt("lv-iid", lambda: lv_iid(s, t_star)))
    else:
        entries.append(SkippedBound("lv-iid", optimal.reason))

    entries.append(optimal)
    entries.append(attempt("independent-lower", lambda: independent_lower(s)))
    return entries


def entries_to_json(entries: list[BoundEntry]) -> list[dict[str, Any]]:
    return [e.to_json_dict() for e in entries]


def tightest_upper(entries: list[BoundEntry]) -> BoundResult | None:
    """The non-vacuous upper bound with the smallest value, if any."""
    candidates = [
        e
        for e in entries
        if isinstance(e, BoundResult)
        and e.method in UPPER_METHODS
        and not e.vacuous
    ]
    if not candidates:
        return None
    return min(candidates, key=lambda e: e.value.log_value)
