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
  lv-optimal         lv-general minimized over t in [1e-12, 50] by a
                     safeguarded Newton root of its slope's sign, in ln t

plus the reference floor ``independent-lower`` = prod(1 - p_i), a *lower*
bound on P(X=0) under positive association.

The five that read the means read one tilted product,
P(t) = prod_i(1 - p_i + p_i e^{-t}), the summary's ``tilted_product``:
independent-lower is P(inf), boppona-spencer multiplies it by
exp(delta / (1 - max_mean)), boutsikas-koutras is P(inf) + cov_sum,
lv-general is P(t) + t^2 cov_sum, and lv-optimal minimizes that over t.
lv-iid forms its product apart (see lv_iid).

The additive bounds (boutsikas-koutras, lv-*) are only valid for positively
associated families; they refuse to evaluate when cov_sum < 0, which is the
summary-level signal that positive association fails.

lv-general needs no grid to minimize: each factor 1 - p_i + p_i e^{-t} is
log-convex in t, so their product P is convex, and so is t^2 cov_sum when
cov_sum >= 0.  Their sum g is convex on t > 0, so its slope P' + 2 t cov_sum
increases, and the minimum is where it changes sign.  That sign is the sign
of h = ln(2 t cov_sum) - ln(-P'), which increases with ln t (_lv_probe);
lv-optimal finds the root of h by Newton steps in ln t, and the sign of h
at 1e-12 or 50 certifies a minimum at that end.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Any, Callable

from .family import FamilySummary
from .numerics import NEG_INF, LogProb, as_float, json_log_linear, log_add_floats, minimize_scalar

# The method order of evaluate_all's entries and of compare's bound columns.
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

# janson-ratio's forms: as printed in its source, and the literature form.
EQ2_FORMS = ("printed", "standard")

# lv-optimal searches t in [T_GRID_MIN, T_GRID_MAX] (see minimize_scalar).
# The cap at 50 makes the cov_sum=0 limit numerically exact:
# exp(-50)*p/(1-p) is below double rounding for any p of interest.
# T_GRID_POINTS counts the two ends the search evaluates first.  Only
# perfbench/test_perfbench.py reads it, and it is kept for that test alone
# until the next change to the benchmark (ROADMAP item 1).
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

_LN2 = math.log(2.0)


def _log_cov(s: FamilySummary) -> float:
    """ln cov_sum, and -inf for cov_sum <= 0: the additive bounds refuse a
    negative sum before they read it, and the others drop the term."""
    return math.log(s.cov_sum) if s.cov_sum > 0 else NEG_INF


def _lv_probe(s: FamilySummary) -> Callable[[float], tuple[float, float, float]]:
    """lv-optimal's objective over the summary's tilted product, for
    minimize_scalar: t -> (lv-general's log value, h, dh/du) with u = ln t.

    h = ln(2 t cov_sum) - ln(-P') = ln 2 + u + ln cov_sum - ln P - ln R1 has
    the sign of the slope of P + t^2 cov_sum and increases with u;
    dh/du = 1 + t + t (R1 - R2 / R1), as dR1/dt = R2 - R1.  h is +inf when
    R1 = 0 (every mean 0) and -inf when cov_sum = 0."""

    terms, log_cov = s.tilted_product[1], _log_cov(s)
    log_2c = _LN2 + log_cov

    def probe(t: float) -> tuple[float, float, float]:
        u = math.log(t)
        log_p, r1, r2 = terms(t)
        value = log_add_floats(log_p, 2.0 * u + log_cov)
        if r1 == 0.0:
            return value, math.inf, 1.0
        return value, log_2c + u - log_p - math.log(r1), 1.0 + t + t * (r1 - r2 / r1)

    return probe


def _require_nonneg_cov(s: FamilySummary, method: str) -> None:
    if s.cov_sum < 0:
        raise ValueError(
            f"{method} requires a nonnegative covariance sum (positive "
            f"association); got cov_sum={s.cov_sum}"
        )


def janson_basic(s: FamilySummary) -> BoundResult:
    """exp(-lambda + delta)."""
    return BoundResult("janson-basic", LogProb(-s.lambda_ + s.delta))


def _check_form(form: str) -> None:
    if form not in EQ2_FORMS:
        raise ValueError(f"form must be one of {EQ2_FORMS}, got {form!r}")


def janson_ratio(s: FamilySummary, form: str = "printed") -> BoundResult:
    """Ratio-form bound: exp(-lambda/delta_bar^2) or exp(-lambda^2/delta_bar).

    The default ``printed`` form reproduces the source exactly; it is
    dimensionally suspect and is demonstrably not a valid upper bound at
    small lambda (see the tests).  ``standard`` selects the literature form.
    Where the square (delta_bar^2 printed, lambda^2 standard) leaves the
    normal double range, the ratio divides first; a delta_bar of inf gives
    -0.0, a vacuous bound.
    """
    _check_form(form)
    lam, delta_bar = s.lambda_, s.delta_bar
    if delta_bar <= 0:
        raise ValueError(
            f"janson-ratio requires delta_bar > 0, got {delta_bar} "
            f"(only happens when lambda = 0)"
        )
    printed = form == "printed"
    square = delta_bar * delta_bar if printed else lam * lam
    if sys.float_info.min <= square < math.inf:
        exponent = -lam / square if printed else -square / delta_bar
    else:
        exponent = -(lam / delta_bar) / delta_bar if printed else -(lam / delta_bar) * lam
    return BoundResult("janson-ratio", LogProb(exponent))


def boppona_spencer(s: FamilySummary) -> BoundResult:
    """exp(delta / (1 - max_mean)) * prod(1 - p_i)."""
    if s.max_mean >= 1.0:
        raise ValueError(
            f"boppona-spencer requires max mean < 1, got {s.max_mean}"
        )
    log_p_inf = s.tilted_product[0]
    return BoundResult("boppona-spencer", LogProb(s.delta / (1.0 - s.max_mean) + log_p_inf))


def boutsikas_koutras(s: FamilySummary) -> BoundResult:
    """prod(1 - p_i) + cov_sum."""
    _require_nonneg_cov(s, "boutsikas-koutras")
    log_p_inf = s.tilted_product[0]
    return BoundResult("boutsikas-koutras", LogProb(log_add_floats(log_p_inf, _log_cov(s))))


def _resolve_t(t: float | None, log_t: float | None) -> tuple[float, float]:
    """Return (t_linear, log_t); exactly one of the inputs must be given,
    and it is read by ``numerics.as_float``.

    A log-form override reaches exponents far below the double range (the
    linear t then underflows to 0.0 but the covariance term stays exact).
    """
    if (t is None) == (log_t is None):
        raise ValueError("exactly one of t / log_t must be provided")
    if t is not None:
        t = as_float("t", t)
        if not (t > 0) or math.isinf(t):
            raise ValueError(f"t must be a positive finite real, got {t}")
        return t, math.log(t)
    log_t = as_float("log_t", log_t)
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
    value = LogProb(log_add_floats(s.tilted_product[1](t_lin)[0], 2.0 * lt + _log_cov(s)))
    return BoundResult("lv-general", value, t=t_lin, log_t=lt)


def lv_iid(
    s: FamilySummary, t: float | None = None, *, log_t: float | None = None
) -> BoundResult:
    """(1-p)^{|I|} (1 + e^{-t} p/(1-p))^{|I|} + t^2 cov_sum, homogeneous only.

    Computed as written and apart from lv-general, so that their agreement
    (acceptance criterion 3) checks both.  The logs of the two factors,
    |I| ln(1-p) and |I| log1p(e^{-t} p/(1-p)), cancel to about -|I| p t: in
    doubles their sum loses log10(1/(p t)) digits (a relative error of 5e-10
    at t = 1e-6).  So the product of the factors is formed in decimal, with
    that many digits and 20 more, and only its log is taken in doubles: as
    ln factor below 1/2, where factor - 1 would keep only absolute accuracy.
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
        log_factor = math.log(float(factor)) if factor < 0.5 else math.log1p(float(factor - 1))
        product_term = s.count * log_factor
    value = LogProb(log_add_floats(product_term, 2.0 * lt + _log_cov(s)))
    return BoundResult("lv-iid", value, t=t_lin, log_t=lt)


def lv_optimal(s: FamilySummary) -> BoundResult:
    """lv-general minimized over t in [T_GRID_MIN, T_GRID_MAX].

    The objective is convex in t (see the module docstring), so the sign of
    its slope, h from :func:`_lv_probe`, locates the minimum, and
    minimize_scalar finds the root of h by safeguarded Newton steps in ln t.
    The reported t is exactly T_GRID_MIN when h >= 0 there and exactly
    T_GRID_MAX when h <= 0 there: cov_sum = 0 gives T_GRID_MAX, and means
    that are all 0 give T_GRID_MIN.
    """
    _require_nonneg_cov(s, "lv-optimal")
    t_star, f_star = minimize_scalar(_lv_probe(s), T_GRID_MIN, T_GRID_MAX)
    return BoundResult("lv-optimal", f_star, t=t_star, log_t=math.log(t_star))


def independent_lower(s: FamilySummary) -> BoundResult:
    """prod(1 - p_i): a lower bound on P(X=0) under positive association."""
    return BoundResult("independent-lower", LogProb(s.tilted_product[0]))


def evaluate_all(
    s: FamilySummary,
    *,
    t: float | None = None,
    log_t: float | None = None,
    eq2_form: str = "printed",
) -> list[BoundEntry]:
    """Evaluate every applicable bound, ordered by METHOD_ORDER.

    Bounds whose preconditions fail are reported as :class:`SkippedBound`
    with the reason.  Without a t override, the lv entries are reported at
    the optimizer's t; an explicit t (or log-form log_t) adds an lv-general
    entry at that t and moves lv-iid onto it, while lv-optimal is always the
    minimized bound.  A bad override or form raises ValueError before any
    bound is evaluated.
    """
    _check_form(eq2_form)
    explicit_t = t is not None or log_t is not None
    if explicit_t:
        _resolve_t(t, log_t)

    def attempt(method: str, fn) -> BoundEntry:
        try:
            return fn()
        except ValueError as exc:
            return SkippedBound(method, str(exc))

    entries = [
        attempt("janson-basic", lambda: janson_basic(s)),
        attempt("janson-ratio", lambda: janson_ratio(s, form=eq2_form)),
        attempt("boppona-spencer", lambda: boppona_spencer(s)),
        attempt("boutsikas-koutras", lambda: boutsikas_koutras(s)),
        attempt("independent-lower", lambda: independent_lower(s)),
    ]
    optimal = attempt("lv-optimal", lambda: lv_optimal(s))
    entries.append(optimal)
    if explicit_t:
        entries.append(attempt("lv-general", lambda: lv_general(s, t, log_t=log_t)))
        entries.append(attempt("lv-iid", lambda: lv_iid(s, t, log_t=log_t)))
    elif isinstance(optimal, BoundResult):
        entries.append(attempt("lv-iid", lambda: lv_iid(s, optimal.t)))
    else:
        entries.append(SkippedBound("lv-iid", optimal.reason))
    entries.sort(key=lambda e: METHOD_ORDER.index(e.method))
    return entries


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
