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
  lv-optimal         lv-general minimized over t in [1e-12, 50] by
                     golden-section search in ln t

plus the reference floor ``independent-lower`` = prod(1 - p_i), a *lower*
bound on P(X=0) under positive association.

The five that read the means are points (t, log_w) of one function,
ln(prod_i(1 - p_i + p_i e^{-t}) + e^{log_w} cov_sum): independent-lower is
(inf, -inf), boppona-spencer adds delta / (1 - max_mean) to it,
boutsikas-koutras is (inf, 0), lv-general is (t, 2 ln t), and lv-optimal
minimizes that over t.  lv-iid forms its product apart (see lv_iid).

The additive bounds (boutsikas-koutras, lv-*) are only valid for positively
associated families; they refuse to evaluate when cov_sum < 0, which is the
summary-level signal that positive association fails.

lv-general needs no grid to minimize: each factor 1 - p_i + p_i e^{-t} is
log-convex in t, so their product is convex, and so is t^2 cov_sum when
cov_sum >= 0.  Their sum is convex on t > 0, hence its log is unimodal in
ln t, and one golden-section search over the whole range finds the minimum.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Any, Callable

import numpy as np

from .family import FamilySummary
from .numerics import NEG_INF, LogProb, json_log_linear, log_add_floats, minimize_scalar

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

# lv-optimal searches t in [T_GRID_MIN, T_GRID_MAX] (see minimize_scalar).
# The cap at 50 makes the cov_sum=0 limit numerically exact:
# exp(-50)*p/(1-p) is below double rounding for any p of interest.
# T_GRID_POINTS counts the two ends the search evaluates first; only the
# benchmark's tests read it.
T_GRID_MIN = 1e-12
T_GRID_MAX = 50.0
T_GRID_POINTS = 2

# lv-iid forms its product in decimal with this many digits beyond those
# its cancellation costs.
_IID_SPARE_DIGITS = 20

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


def _log_cov(s: FamilySummary) -> float:
    """ln cov_sum, and -inf for cov_sum <= 0: the additive bounds refuse a
    negative sum before they read it, and the others drop the term."""
    return math.log(s.cov_sum) if s.cov_sum > 0 else NEG_INF


def _tilted_product(s: FamilySummary) -> Callable[[float, float], LogProb]:
    """(t, log_w) -> ln(prod_i(1 - p_i + p_i e^{-t}) + e^{log_w} cov_sum).

    The bounds that read the means, lv-iid aside, are points of it (see the
    module docstring).  The summary's means and ln cov_sum are bound once:
    lv-optimal evaluates the function about 55 times per summary.  A shared
    mean is evaluated in scalar ``math`` (numpy's cost per call would exceed
    that of the one term), several means in one numpy pass.  On either path
    each term ln(1 - p + p e^{-t}) is log1p(p expm1(-t)), exactly -t at p = 1
    and log1p(-p) at t = inf, and the log product keeps a relative accuracy
    of 1e-14 wherever every p (1 - e^{-t}) <= 1/2.
    """
    log_cov = _log_cov(s)
    if len(s.means) == 1:
        weight, (p,) = s.count, s.means

        def log_product(t: float) -> float:
            term = -t if p >= 1.0 else math.log1p(p * math.expm1(-t))
            # + 0.0 makes a -0.0 term (p = 0, or a log-form t that underflows
            # to 0) read ln 1 = +0.0, as a sum over several means does
            return weight * (term + 0.0)
    else:
        # one indicator per mean; certain ones (p = 1) contribute -t each and
        # stay out of log1p, which would warn on log1p(-1) at t = inf
        means = np.asarray(s.means, dtype=np.float64)
        uncertain = means[means < 1.0]
        n_certain = len(means) - len(uncertain)

        def log_product(t: float) -> float:
            total = float(np.sum(np.log1p(uncertain * math.expm1(-t))))
            return total - n_certain * t if n_certain else total  # 0 * inf is NaN

    def value(t: float, log_w: float) -> LogProb:
        return LogProb(log_add_floats(log_product(t), log_w + log_cov))

    return value


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
    product = _tilted_product(s)(math.inf, NEG_INF).log_value
    return BoundResult("boppona-spencer", LogProb(s.delta / (1.0 - s.max_mean) + product))


def boutsikas_koutras(s: FamilySummary) -> BoundResult:
    """prod(1 - p_i) + cov_sum."""
    _require_nonneg_cov(s, "boutsikas-koutras")
    return BoundResult("boutsikas-koutras", _tilted_product(s)(math.inf, 0.0))


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


def lv_general(
    s: FamilySummary, t: float | None = None, *, log_t: float | None = None
) -> BoundResult:
    """exp(-t|I|) * (prod E[e^{t(1-X_i)}] + t^2 e^{t|I|} cov_sum).

    The e^{t|I|} factor cancels, leaving the tilted product plus
    t^2 * cov_sum; both terms are evaluated in log domain.
    """
    _require_nonneg_cov(s, "lv-general")
    t_lin, lt = _resolve_t(t, log_t)
    return BoundResult("lv-general", _tilted_product(s)(t_lin, 2.0 * lt), t=t_lin, log_t=lt)


def lv_iid(
    s: FamilySummary, t: float | None = None, *, log_t: float | None = None
) -> BoundResult:
    """(1-p)^{|I|} (1 + e^{-t} p/(1-p))^{|I|} + t^2 cov_sum, homogeneous only.

    Computed as written and apart from lv-general, so that their agreement
    (acceptance criterion 3) checks both.  The logs of the two factors,
    |I| ln(1-p) and |I| log1p(e^{-t} p/(1-p)), cancel to about -|I| p t: in
    doubles their sum loses log10(1/(p t)) digits (a relative error of 5e-10
    at t = 1e-6).  So the product of the factors is formed in decimal, with
    that many digits and 20 more, and only its log is taken in doubles.
    """
    if not s.is_homogeneous:
        raise ValueError("lv-iid requires a homogeneous summary")
    p = s.means[0]
    if p >= 1.0:
        raise ValueError("lv-iid requires p < 1")
    _require_nonneg_cov(s, "lv-iid")
    t_lin, lt = _resolve_t(t, log_t)
    tiny = sys.float_info.min
    lost = -math.log10(max(p, tiny)) - math.log10(min(max(t_lin, tiny), 1.0))
    with localcontext() as ctx:
        ctx.prec = _IID_SPARE_DIGITS + math.ceil(lost)
        q = Decimal(p)
        factor = (1 - q) * (1 + (-Decimal(t_lin)).exp() * q / (1 - q))
        product_term = s.count * math.log1p(float(factor - 1))
    value = LogProb(log_add_floats(product_term, 2.0 * lt + _log_cov(s)))
    return BoundResult("lv-iid", value, t=t_lin, log_t=lt)


def lv_optimal(s: FamilySummary) -> BoundResult:
    """lv-general minimized over t in [T_GRID_MIN, T_GRID_MAX].

    The objective is convex in t (see the module docstring), so its log is
    unimodal in ln t and golden-section search in ln t from the two ends of
    the range finds the minimum, in 55 evaluations.  The reported t is
    exactly T_GRID_MIN or T_GRID_MAX when the minimum sits at that end.
    """
    _require_nonneg_cov(s, "lv-optimal")
    value = _tilted_product(s)
    t_star, f_star = minimize_scalar(
        lambda t: value(t, 2.0 * math.log(t)), T_GRID_MIN, T_GRID_MAX
    )
    return BoundResult("lv-optimal", f_star, t=t_star, log_t=math.log(t_star))


def independent_lower(s: FamilySummary) -> BoundResult:
    """prod(1 - p_i): a lower bound on P(X=0) under positive association."""
    return BoundResult("independent-lower", _tilted_product(s)(math.inf, NEG_INF))


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
