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

The five that read the means are points (t, log_w) of one function,
ln(prod_i(1 - p_i + p_i e^{-t}) + e^{log_w} cov_sum): independent-lower is
(inf, -inf), boppona-spencer adds delta / (1 - max_mean) to it,
boutsikas-koutras is (inf, 0), lv-general is (t, 2 ln t), and lv-optimal
minimizes that over t.  lv-iid forms its product apart (see lv_iid).

The additive bounds (boutsikas-koutras, lv-*) are only valid for positively
associated families; they refuse to evaluate when cov_sum < 0, which is the
summary-level signal that positive association fails.

lv-general needs no grid to minimize: each factor 1 - p_i + p_i e^{-t} is
log-convex in t, so their product P is convex, and so is t^2 cov_sum when
cov_sum >= 0.  Their sum g is convex on t > 0, so its slope P' + 2 t cov_sum
increases, and the minimum is where it changes sign.  That sign is the sign
of h = ln(2 t cov_sum) - ln(-P'), which increases with ln t; lv-optimal
finds the root of h by Newton steps in ln t, and the sign of h at 1e-12 or
50 certifies a minimum at that end.
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

# _tilted_product's results: (t, log_w) -> a bare log value, and
# lv-optimal's objective t -> (log value, h, dh/du)
_Tilted = Callable[[float, float], float]
_Objective = Callable[[float], tuple[float, float, float]]

_LN2 = math.log(2.0)


def _log_cov(s: FamilySummary) -> float:
    """ln cov_sum, and -inf for cov_sum <= 0: the additive bounds refuse a
    negative sum before they read it, and the others drop the term."""
    return math.log(s.cov_sum) if s.cov_sum > 0 else NEG_INF


def _tilted_product(s: FamilySummary) -> tuple[_Tilted, _Objective]:
    """(t, log_w) -> ln(prod_i(1 - p_i + p_i e^{-t}) + e^{log_w} cov_sum),
    and lv-optimal's objective, both bound to the summary once.

    The bounds that read the means, lv-iid aside, are points of the first
    (see the module docstring).  The summary's means and ln cov_sum are
    bound once, and each function returns bare floats and builds no
    LogProb.  A shared mean is evaluated in scalar ``math`` (numpy's cost
    per call would exceed that of the one term), several means in one numpy
    pass.  On either path each term ln(1 - p + p e^{-t}) is
    log1p(p expm1(-t)), exactly -t at p = 1 and log1p(-p) at t = inf, and
    the log product keeps a relative accuracy of 1e-14 wherever every
    p (1 - e^{-t}) <= 1/2.

    The objective maps t to (lv-general's log value, h, dh/du) for
    :func:`~assocbounds.numerics.minimize_scalar`, where u = ln t and
    h = ln(2 t cov_sum) - ln(-P'(t)) for the product P, so h has the sign
    of the slope of P + t^2 cov_sum and increases with u.  With
    q_i = p_i / (1 + p_i expm1(-t)), -P' = P e^{-t} sum q_i and
    dh/du = 1 + t + t e^{-t} (sum q_i - sum q_i^2 / sum q_i).  h is +inf
    when every mean is 0 (the product is 1) and -inf when cov_sum is 0.
    The value is that of the first function at (t, 2 ln t), bit for bit.
    """
    log_cov = _log_cov(s)
    if len(s.means) == 1:
        weight, (p,) = s.count, s.means

        def value(t: float, log_w: float) -> float:
            term = -t if p >= 1.0 else math.log1p(p * math.expm1(-t))
            # + 0.0 makes a -0.0 term (p = 0, or a log-form t that underflows
            # to 0) read ln 1 = +0.0, as a sum over several means does
            return log_add_floats(weight * (term + 0.0), log_w + log_cov)

        # with one shared mean, sum q_i = weight q and h is
        # ln(2 cov_sum / (weight p)) + u + t - (weight - 1) ln(1 + p expm1(-t))
        h_base = math.inf if p == 0.0 else _LN2 + log_cov - math.log(weight) - math.log(p)

        def objective(t: float) -> tuple[float, float, float]:
            u = math.log(t)
            if p >= 1.0:
                term, r = -t, 1.0
            else:
                x = p * math.expm1(-t)
                term, r = math.log1p(x), p * math.exp(-t) / (1.0 + x)  # r = q e^{-t}
            return (
                log_add_floats(weight * (term + 0.0), 2.0 * u + log_cov),
                h_base + u + t - (weight - 1) * term,
                1.0 + t + (weight - 1) * t * r,
            )

        return value, objective

    # one indicator per mean; certain ones (p = 1) contribute -t each and
    # q = e^t, and stay out of log1p, which would warn on log1p(-1) at t = inf
    means = np.asarray(s.means, dtype=np.float64)
    uncertain = means[means < 1.0]
    n_certain = len(means) - len(uncertain)

    def value(t: float, log_w: float) -> float:
        total = float(np.sum(np.log1p(uncertain * math.expm1(-t))))
        if n_certain:  # 0 * inf is NaN
            total -= n_certain * t
        return log_add_floats(total, log_w + log_cov)

    def objective(t: float) -> tuple[float, float, float]:
        u = math.log(t)
        x = uncertain * math.expm1(-t)
        total = float(np.sum(np.log1p(x)))
        x += 1.0
        q = np.divide(uncertain, x, out=x)
        q_sum, q_sq = float(q.sum()), float(q @ q)
        if n_certain:
            total -= n_certain * t
            e_t = math.exp(t)
            q_sum += n_certain * e_t
            q_sq += n_certain * e_t * e_t
        v = log_add_floats(total, 2.0 * u + log_cov)
        if q_sum == 0.0:
            return v, math.inf, 1.0
        h = _LN2 + u + log_cov - total + t - math.log(q_sum)
        return v, h, 1.0 + t + t * math.exp(-t) * (q_sum - q_sq / q_sum)

    return value, objective


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


def boppona_spencer(s: FamilySummary, *, _tilted: _Tilted | None = None) -> BoundResult:
    """exp(delta / (1 - max_mean)) * prod(1 - p_i)."""
    if s.max_mean >= 1.0:
        raise ValueError(
            f"boppona-spencer requires max mean < 1, got {s.max_mean}"
        )
    product = (_tilted or _tilted_product(s)[0])(math.inf, NEG_INF)
    return BoundResult("boppona-spencer", LogProb(s.delta / (1.0 - s.max_mean) + product))


def boutsikas_koutras(s: FamilySummary, *, _tilted: _Tilted | None = None) -> BoundResult:
    """prod(1 - p_i) + cov_sum."""
    _require_nonneg_cov(s, "boutsikas-koutras")
    value = (_tilted or _tilted_product(s)[0])(math.inf, 0.0)
    return BoundResult("boutsikas-koutras", LogProb(value))


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
    s: FamilySummary,
    t: float | None = None,
    *,
    log_t: float | None = None,
    _tilted: _Tilted | None = None,
) -> BoundResult:
    """exp(-t|I|) * (prod E[e^{t(1-X_i)}] + t^2 e^{t|I|} cov_sum).

    The e^{t|I|} factor cancels, leaving the tilted product plus
    t^2 * cov_sum; both terms are evaluated in log domain.
    """
    _require_nonneg_cov(s, "lv-general")
    t_lin, lt = _resolve_t(t, log_t)
    value = (_tilted or _tilted_product(s)[0])(t_lin, 2.0 * lt)
    return BoundResult("lv-general", LogProb(value), t=t_lin, log_t=lt)


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


def lv_optimal(s: FamilySummary, *, _objective: _Objective | None = None) -> BoundResult:
    """lv-general minimized over t in [T_GRID_MIN, T_GRID_MAX].

    The objective is convex in t (see the module docstring), so the sign of
    its slope, h from :func:`_tilted_product`, locates the minimum, and
    minimize_scalar finds the root of h by safeguarded Newton steps in ln t.
    The reported t is exactly T_GRID_MIN when h >= 0 there and exactly
    T_GRID_MAX when h <= 0 there: cov_sum = 0 gives T_GRID_MAX, and means
    that are all 0 give T_GRID_MIN.
    """
    _require_nonneg_cov(s, "lv-optimal")
    objective = _objective or _tilted_product(s)[1]
    t_star, f_star = minimize_scalar(objective, T_GRID_MIN, T_GRID_MAX)
    return BoundResult("lv-optimal", f_star, t=t_star, log_t=math.log(t_star))


def independent_lower(s: FamilySummary, *, _tilted: _Tilted | None = None) -> BoundResult:
    """prod(1 - p_i): a lower bound on P(X=0) under positive association."""
    value = (_tilted or _tilted_product(s)[0])(math.inf, NEG_INF)
    return BoundResult("independent-lower", LogProb(value))


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

    # the five bounds that read the means share one bind of them
    tilted, objective = _tilted_product(s)
    entries = [
        attempt("janson-basic", lambda: janson_basic(s)),
        attempt("janson-ratio", lambda: janson_ratio(s, form=eq2_form)),
        attempt("boppona-spencer", lambda: boppona_spencer(s, _tilted=tilted)),
        attempt("boutsikas-koutras", lambda: boutsikas_koutras(s, _tilted=tilted)),
        attempt("independent-lower", lambda: independent_lower(s, _tilted=tilted)),
    ]
    optimal = attempt("lv-optimal", lambda: lv_optimal(s, _objective=objective))
    entries.append(optimal)
    if explicit_t:
        entries.append(
            attempt("lv-general", lambda: lv_general(s, t, log_t=log_t, _tilted=tilted))
        )
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
