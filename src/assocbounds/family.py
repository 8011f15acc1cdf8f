"""Model-agnostic summary of an indicator family and its consistency checks.

A :class:`FamilySummary` carries exactly the statistics the inequalities
consume: the indicator count, per-indicator means, lambda (the mean of the
sum), delta (the pairwise joint-expectation sum over correlated pairs),
delta_bar = lambda + 2*delta, the exact pairwise covariance sum, and the
largest mean.  ``delta`` and ``cov_sum`` are stored separately: the additive
bounds use the covariance sum, the multiplicative ones use delta, and some
published variants substitute one for the other.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Iterable

_REL_TOL_LAMBDA = 1e-10
_REL_TOL_DERIVED = 1e-12


@dataclass(frozen=True)
class FamilySummary:
    """Sufficient statistics of an indicator family.

    ``means`` is either a single float (homogeneous family) or a tuple of
    per-indicator means.  ``lambda_`` is serialized as ``"lambda"``.
    """

    count: int
    means: float | tuple[float, ...]
    lambda_: float
    delta: float
    delta_bar: float
    cov_sum: float
    max_mean: float

    @property
    def is_homogeneous(self) -> bool:
        return not isinstance(self.means, tuple)

    @classmethod
    def homogeneous(
        cls, count: int, p: float, delta: float, cov_sum: float
    ) -> "FamilySummary":
        lam = count * p
        return cls(
            count=count,
            means=p,
            lambda_=lam,
            delta=delta,
            delta_bar=lam + 2.0 * delta,
            cov_sum=cov_sum,
            max_mean=p,
        )

    @classmethod
    def heterogeneous(
        cls, means: Iterable[float], delta: float, cov_sum: float
    ) -> "FamilySummary":
        ms = tuple(float(m) for m in means)
        lam = math.fsum(ms)
        return cls(
            count=len(ms),
            means=ms,
            lambda_=lam,
            delta=delta,
            delta_bar=lam + 2.0 * delta,
            cov_sum=cov_sum,
            max_mean=max(ms) if ms else 0.0,
        )

    def to_json_dict(self) -> dict[str, Any]:
        means = list(self.means) if isinstance(self.means, tuple) else self.means
        return {
            "count": self.count,
            "means": means,
            "lambda": self.lambda_,
            "delta": self.delta,
            "delta_bar": self.delta_bar,
            "cov_sum": self.cov_sum,
            "max_mean": self.max_mean,
        }

    @classmethod
    def from_json_dict(cls, d: dict[str, Any]) -> "FamilySummary":
        required = {"count", "means", "lambda", "delta", "delta_bar", "cov_sum", "max_mean"}
        missing = required - set(d)
        if missing:
            raise ValueError(f"summary JSON missing fields: {sorted(missing)}")
        means = d["means"]
        if isinstance(means, list):
            means = tuple(float(m) for m in means)
        else:
            means = float(means)
        return cls(
            count=int(d["count"]),
            means=means,
            lambda_=float(d["lambda"]),
            delta=float(d["delta"]),
            delta_bar=float(d["delta_bar"]),
            cov_sum=float(d["cov_sum"]),
            max_mean=float(d["max_mean"]),
        )

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

    if s.is_homogeneous:
        means = [s.means]
    else:
        means = list(s.means)
        if len(means) != s.count:
            v.append(f"means has {len(means)} entries but count is {s.count}")
    bad = [m for m in means if not (0.0 <= m <= 1.0) or math.isnan(m)]
    if bad:
        v.append(f"means must lie in [0, 1], offending values: {bad[:5]}")

    if s.is_homogeneous:
        lam_expected = s.count * s.means
    else:
        lam_expected = math.fsum(means)
    if not _rel_close(s.lambda_, lam_expected, _REL_TOL_LAMBDA):
        v.append(
            f"lambda={s.lambda_} does not match the sum of means {lam_expected}"
        )

    if s.delta < 0 or math.isnan(s.delta):
        v.append(f"delta must be nonnegative, got {s.delta}")

    if not _rel_close(s.delta_bar, s.lambda_ + 2.0 * s.delta, _REL_TOL_DERIVED):
        v.append(
            f"delta_bar={s.delta_bar} does not equal lambda + 2*delta "
            f"= {s.lambda_ + 2.0 * s.delta}"
        )

    if s.cov_sum < 0 or math.isnan(s.cov_sum):
        v.append(
            f"cov_sum={s.cov_sum} is negative: the family is not positively "
            f"associated (some pairwise covariance is below zero)"
        )

    if s.is_homogeneous and not bad and s.cov_sum > s.delta * (1.0 + _REL_TOL_DERIVED) + 1e-300:
        v.append(
            f"cov_sum={s.cov_sum} exceeds delta={s.delta}; covariances cannot "
            f"exceed the joint expectations they come from"
        )

    max_expected = max(means) if means else 0.0
    if not bad and not _rel_close(s.max_mean, max_expected, _REL_TOL_LAMBDA):
        v.append(
            f"max_mean={s.max_mean} does not match the largest mean {max_expected}"
        )

    return v


def ensure_valid(summary: FamilySummary) -> FamilySummary:
    violations = validate(summary)
    if violations:
        raise ValueError("invalid family summary: " + "; ".join(violations))
    return summary


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
        return family.check(**family.cast(self.params))

    def ensure_valid(self) -> "ModelSpec":
        violations = self.validate()
        if violations:
            raise ValueError("invalid model spec: " + "; ".join(violations))
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
