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
from dataclasses import dataclass, field
from numbers import Real
from typing import Any

_REL_TOL_LAMBDA = 1e-10
_REL_TOL_DERIVED = 1e-12


@dataclass(frozen=True)
class FamilySummary:
    """Sufficient statistics of an indicator family.

    ``means`` is a tuple of one or ``count`` entries, each standing for
    ``count // len(means)`` indicators: ``(p,)`` when all ``count``
    indicators share the mean p (a bare number p is stored as ``(p,)``),
    one entry per indicator otherwise.  ``lambda_`` (serialized as
    ``"lambda"``), ``delta_bar`` and ``max_mean`` are derived, not given.
    """

    count: int
    means: tuple[float, ...]
    lambda_: float = field(init=False)
    delta: float
    delta_bar: float = field(init=False)
    cov_sum: float
    max_mean: float = field(init=False)

    def __post_init__(self) -> None:
        try:
            means = tuple(self.means)
        except TypeError:  # a bare number, shared by every indicator
            means = (self.means,)
        if not means:
            raise ValueError("means must hold at least one entry")
        if len(means) not in (1, self.count):
            raise ValueError(f"means has {len(means)} entries but count is {self.count}")
        try:
            lam = (self.count // len(means)) * math.fsum(means)
        except OverflowError:  # an int count beyond the double range
            raise ValueError(
                f"lambda at count about 10^{math.log10(abs(self.count)):.1f} exceeds "
                f"the double range (about 1.8e308)"
            ) from None
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "lambda_", lam)
        object.__setattr__(self, "delta_bar", lam + 2.0 * self.delta)
        object.__setattr__(self, "max_mean", max(means))

    @property
    def is_homogeneous(self) -> bool:
        return len(self.means) == 1

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
    def from_json_dict(cls, d: dict[str, Any]) -> "FamilySummary":
        """The summary a JSON document gives, whose restated ``lambda``,
        ``delta_bar`` and ``max_mean`` must agree with the derived ones."""
        required = {"count", "means", "lambda", "delta", "delta_bar", "cov_sum", "max_mean"}
        missing = required - set(d)
        if missing:
            raise ValueError(f"summary JSON missing fields: {sorted(missing)}")
        raw, means = d["count"], d["means"]
        try:
            count = int(raw)
        except OverflowError:  # JSON reads 1e400 as inf
            raise ValueError(
                f"count={raw} exceeds the double range (about 1.8e308)"
            ) from None
        if isinstance(raw, Real) and count != raw:  # the rule of Family.cast
            raise ValueError(f"count must be an integer, got {raw}")
        try:
            means = tuple(map(float, means))
        except TypeError:  # a number: the mean of every indicator
            means = (float(means),)
        else:  # a list holds one mean per indicator, even when it has one entry
            if len(means) != count:
                raise ValueError(f"means has {len(means)} entries but count is {count}")
        delta, cov_sum = float(d["delta"]), float(d["cov_sum"])
        for name, x in (("delta", delta), ("cov_sum", cov_sum)):
            if not math.isfinite(x):  # JSON reads 1e400 as inf; NaN reads too
                raise ValueError(
                    f"{name}={x} is not a number inside the double range (about 1.8e308)"
                )
        s = cls(count=count, means=means, delta=delta, cov_sum=cov_sum)
        lam, delta_bar = float(d["lambda"]), float(d["delta_bar"])
        if not _rel_close(lam, s.lambda_, _REL_TOL_LAMBDA):
            raise ValueError(f"lambda={lam} does not match the sum of means {s.lambda_}")
        if not _rel_close(delta_bar, lam + 2.0 * s.delta, _REL_TOL_DERIVED):
            raise ValueError(
                f"delta_bar={delta_bar} does not equal lambda + 2*delta "
                f"= {lam + 2.0 * s.delta}"
            )
        max_mean = float(d["max_mean"])
        if not _rel_close(max_mean, s.max_mean, _REL_TOL_LAMBDA):
            raise ValueError(
                f"max_mean={max_mean} does not match the largest mean {s.max_mean}"
            )
        return s

    @classmethod
    def from_json(cls, text: str) -> "FamilySummary":
        return cls.from_json_dict(json.loads(text))


def _rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def validate(summary: FamilySummary) -> list[str]:
    """Check the summary's internal consistency.

    Returns one human-readable description per violated invariant; an empty
    list means the summary is consistent.  Violations are data, not errors.
    """
    v: list[str] = []
    s = summary

    if s.count < 1:
        v.append(f"count must be a positive integer, got {s.count}")

    bad = [m for m in s.means if not (0.0 <= m <= 1.0) or math.isnan(m)]
    if bad:
        v.append(f"means must lie in [0, 1], offending values: {bad[:5]}")

    if s.delta < 0 or math.isnan(s.delta):
        v.append(f"delta must be nonnegative, got {s.delta}")

    if s.cov_sum < 0 or math.isnan(s.cov_sum):
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
    """A tagged description of one of the built-in indicator families.

    ``model`` names a record of ``models.FAMILIES``, whose ``params`` schema
    lists the parameters the model requires.
    """

    model: str
    params: dict[str, Any]

    def validate(self) -> list[str]:
        from .models import FAMILIES  # models imports this module

        family = FAMILIES.get(self.model)
        if family is None:
            return [f"unknown model {self.model!r}; expected one of {tuple(FAMILIES)}"]
        missing = [x for x in family.params if self.params.get(x) is None]
        if missing:
            return [f"model {self.model!r} requires parameters {missing}"]
        try:
            q = family.cast(self.params)
        except ValueError as exc:  # e.g. a fractional value of an int parameter
            return [f"model {self.model!r}: {exc}"]
        return family.check(**q)

    def ensure_valid(self) -> "ModelSpec":
        """The spec; a ValueError with its violations joined by "; " if any."""
        violations = self.validate()
        if violations:
            raise ValueError("; ".join(violations))
        return self

    def to_json_dict(self) -> dict[str, Any]:
        return {"model": self.model, "params": dict(self.params)}

    @classmethod
    def from_json_dict(cls, d: dict[str, Any]) -> "ModelSpec":
        if "model" not in d or "params" not in d:
            raise ValueError('model spec JSON requires "model" and "params"')
        return cls(model=str(d["model"]), params=dict(d["params"]))

    @classmethod
    def from_json(cls, text: str) -> "ModelSpec":
        return cls.from_json_dict(json.loads(text))
