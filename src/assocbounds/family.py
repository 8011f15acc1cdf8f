"""Model-agnostic summary of an indicator family and its consistency checks.

A :class:`FamilySummary` carries exactly the statistics the inequalities
consume: the indicator count, per-indicator means, delta (the pairwise
joint-expectation sum over correlated pairs) and the exact pairwise
covariance sum.  lambda (the mean of the sum), delta_bar = lambda + 2*delta
and the largest mean are derived from them.  ``delta`` and ``cov_sum`` are
stored separately: the additive bounds use the covariance sum, the
multiplicative ones use delta, and some published variants substitute one
for the other.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable

import numpy as np

from .numerics import as_float, as_int

_REL_TOL_LAMBDA = 1e-10
_REL_TOL_DERIVED = 1e-12
_Terms = Callable[[float], tuple[float, float, float]]  # t -> (ln P(t), R1, R2)


@dataclass(frozen=True)
class FamilySummary:
    """Sufficient statistics of an indicator family.

    ``means`` is a tuple of one or ``count`` entries, each standing for
    ``count // len(means)`` indicators: ``(p,)`` when all ``count``
    indicators share the mean p (a bare number p, or a string that reads as
    one, is stored as ``(p,)``), one entry per indicator otherwise.
    ``lambda_`` (serialized as ``"lambda"``), ``delta_bar`` and
    ``max_mean`` are derived, not given.
    """

    count: int
    means: tuple[float, ...]
    lambda_: float = field(init=False)
    delta: float
    delta_bar: float = field(init=False)
    cov_sum: float
    max_mean: float = field(init=False)

    def __post_init__(self) -> None:
        # the one gate for every summary: built by a model, read from JSON or
        # given; each field goes through numerics' readers, the means in bulk
        raw = self.means
        try:  # a string is one number, as in JSON, not one mean per character
            raw = (raw,) if isinstance(raw, str) else tuple(raw)
        except TypeError:  # a bare number, shared by every indicator
            raw = (raw,)
        try:
            if bool in set(map(type, raw)):  # float() reads True as 1.0
                raise TypeError
            means = tuple(map(float, raw))
        except (TypeError, ValueError, OverflowError):  # None, a list, "x"
            raise ValueError("means must be a number or a list of numbers") from None
        count = as_int("count", self.count)
        if count > sys.float_info.max:
            raise ValueError(
                f"the number of indicators is about 10^{math.log10(count):.1f}, "
                f"beyond the double range (about 1.8e308)"
            )
        for name in ("delta", "cov_sum"):
            x = as_float(name, getattr(self, name))
            if not math.isfinite(x):  # NaN too, as 0 * inf gives it
                raise ValueError(
                    f"{name}={x} is not a number inside the double range (about 1.8e308)"
                )
            object.__setattr__(self, name, x)
        if not means:
            raise ValueError("means must hold at least one entry")
        if len(means) not in (1, count):
            raise ValueError(f"means has {len(means)} entries but count is {count}")
        try:
            lam = (count // len(means)) * math.fsum(means)
        except OverflowError:  # means such as (1e308, 1e308), which validate flags
            lam = math.inf
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "lambda_", lam)
        object.__setattr__(self, "delta_bar", lam + 2.0 * self.delta)
        object.__setattr__(self, "max_mean", max(means))

    def __reduce__(self) -> tuple[type, tuple]:
        # by the given fields, as it compares and hashes: pickle cannot carry the bind
        return type(self), (self.count, self.means, self.delta, self.cov_sum)

    @property
    def is_homogeneous(self) -> bool:
        return len(self.means) == 1

    @cached_property
    def tilted_product(self) -> tuple[float, _Terms]:
        """The tilted product, bound on first read and kept: see _bind_means."""
        return _bind_means(self.count, self.means)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "means": self.means[0] if len(self.means) == 1 else list(self.means),
            "lambda": self.lambda_,
            "delta": self.delta,
            "delta_bar": self.delta_bar,
            "cov_sum": self.cov_sum,
            "max_mean": self.max_mean,
        }

    @classmethod
    def from_json_dict(cls, d: Any) -> "FamilySummary":
        """The summary a JSON object gives, whose ``means`` is one number or a
        list of one mean per indicator, even with one entry, and whose restated
        ``lambda``, ``delta_bar`` and ``max_mean`` agree with the derived ones;
        a ValueError refuses anything else, a field that is not a number too."""
        if not isinstance(d, dict):
            raise ValueError(f"expected an object, got {type(d).__name__}")
        required = {"count", "means", "lambda", "delta", "delta_bar", "cov_sum", "max_mean"}
        missing = required - set(d)
        if missing:
            raise ValueError(f"summary JSON missing fields: {sorted(missing)}")
        listed = isinstance(d["means"], list)  # else the one shared mean
        s = cls(count=d["count"], means=d["means"] if listed else (d["means"],),
                delta=d["delta"], cov_sum=d["cov_sum"])
        if listed and len(s.means) != s.count:
            raise ValueError(f"means has {len(s.means)} entries but count is {s.count}")
        lam, delta_bar, max_mean = (as_float(k, d[k]) for k in ("lambda", "delta_bar", "max_mean"))
        if not _rel_close(lam, s.lambda_, _REL_TOL_LAMBDA):
            raise ValueError(f"lambda={lam} does not match the sum of means {s.lambda_}")
        if not _rel_close(delta_bar, lam + 2.0 * s.delta, _REL_TOL_DERIVED):
            raise ValueError(
                f"delta_bar={delta_bar} does not equal lambda + 2*delta "
                f"= {lam + 2.0 * s.delta}"
            )
        if not _rel_close(max_mean, s.max_mean, _REL_TOL_LAMBDA):
            raise ValueError(
                f"max_mean={max_mean} does not match the largest mean {s.max_mean}"
            )
        return s

    @classmethod
    def from_json(cls, text: str) -> "FamilySummary":
        return cls.from_json_dict(json.loads(text))


def _rel_close(a: float, b: float, rel: float) -> bool:
    # an infinite value is close only to itself: inf - b is not finite
    return a == b or math.isfinite(a - b) and abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def _bind_means(count: int, means: tuple[float, ...]) -> tuple[float, _Terms]:
    """(ln P(inf), terms) for the tilted product P(t) = prod_i(1 - p_i + p_i e^{-t})
    of ``means``, each ``count // len(means)`` indicators; every bound that
    reads the means, lv-iid aside, is written over these (see ``bounds``).

    ``terms(t)`` returns (ln P(t), R1, R2) as bare floats: with
    r_i = p_i e^{-t} / (1 - p_i + p_i e^{-t}) in [0, 1], R1 = sum r_i (so
    -P' = P R1) and R2 = sum r_i^2.  A shared mean is one scalar ``math``
    term times the count (numpy's cost per call would exceed that of the
    term), several means one numpy pass.  Each term is log1p(p expm1(-t)),
    or ln((1 - p) + p e^{-t}) where p (1 - e^{-t}) > 1/2, since there
    1 + p expm1(-t) keeps only its absolute accuracy; so ln P keeps a
    relative accuracy of 1e-14 unless a term p (1 - e^{-t}) is subnormal.
    A mean of 1 adds exactly -t to ln P and 1 to R1 and R2; no e^t is formed.
    """
    if len(means) == 1:
        weight, (p,) = count, means

        def terms(t: float) -> tuple[float, float, float]:
            # + 0.0 makes a -0.0 term (p = 0, or a log-form t that underflows
            # to 0) read ln 1 = +0.0, as a sum over several means does
            if p >= 1.0:
                return weight * (-t + 0.0), weight, weight
            e, x = math.exp(-t), p * math.expm1(-t)
            near_one = x < -0.5
            f = (1.0 - p) + p * e if near_one else 1.0 + x
            term, r = math.log(f) if near_one else math.log1p(x), p * e / f
            return weight * (term + 0.0), weight * r, weight * r * r

        return weight * ((math.log1p(-p) if p < 1.0 else -math.inf) + 0.0), terms

    # one indicator per mean; certain ones (p = 1) stay out of log1p, which
    # would warn on log1p(-1) at t = inf
    listed = np.asarray(means, dtype=np.float64)
    uncertain = listed[listed < 1.0]
    n_certain = len(listed) - len(uncertain)
    any_near_one = bool(uncertain.max(initial=0.0) > 0.5)  # p (1 - e^{-t}) > 1/2 reachable

    def terms(t: float) -> tuple[float, float, float]:
        e, x = math.exp(-t), uncertain * math.expm1(-t)
        logs, f = np.log1p(x), x + 1.0
        if any_near_one:
            near_one = x < -0.5
            p = uncertain[near_one]
            f[near_one] = (1.0 - p) + p * e
            logs[near_one] = np.log(f[near_one])
        log_p = float(logs.sum()) - n_certain * t
        q = np.divide(uncertain, f, out=f)  # r_i = q_i e^{-t}
        return log_p, e * float(q.sum()) + n_certain, e * e * float(q @ q) + n_certain

    return (-math.inf if n_certain else float(np.sum(np.log1p(-uncertain)))), terms


def validate(summary: FamilySummary) -> list[str]:
    """Check the summary's internal consistency.

    Returns one human-readable description per violated invariant; an empty
    list means the summary is consistent.  Violations are data, not errors.
    """
    v: list[str] = []
    s = summary

    if s.count < 1:
        v.append(f"count must be a positive integer, got {s.count}")

    bad = [m for m in s.means if not 0.0 <= m <= 1.0]
    if bad:
        v.append(f"means must lie in [0, 1], offending values: {bad[:5]}")

    if s.delta < 0:
        v.append(f"delta must be nonnegative, got {s.delta}")

    if s.cov_sum < 0:
        v.append(
            f"cov_sum={s.cov_sum} is negative: the family is not positively "
            f"associated (some pairwise covariance is below zero)"
        )

    # each covariance is a joint expectation minus a nonnegative product
    if not bad and s.cov_sum > s.delta * (1.0 + _REL_TOL_DERIVED) + 1e-300:
        v.append(
            f"cov_sum={s.cov_sum} exceeds delta={s.delta}; covariances cannot "
            f"exceed the joint expectations they come from"
        )

    return v


@dataclass(frozen=True)
class ModelSpec:
    """A tagged description of one of the built-in indicator families: the
    name of a record of ``models.FAMILIES`` and its parameters, unchecked
    until ``models.bind`` reads them.
    """

    model: str
    params: dict[str, Any]
