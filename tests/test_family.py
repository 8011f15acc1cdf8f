"""FamilySummary consistency checks, JSON interchange, and ModelSpec validation."""

from __future__ import annotations

import json

import pytest

from assocbounds.family import FamilySummary, ModelSpec, validate
from assocbounds.models import (
    FIRST_PRINCIPLES,
    PAPER_AS_PRINTED,
    hypergraph_summary,
    runs_summary,
    triangles_summary,
    ustat_summary,
)


def consistent_summary(**overrides):
    base = dict(
        count=10,
        means=0.1,
        lambda_=1.0,
        delta=0.2,
        delta_bar=1.4,
        cov_sum=0.05,
        max_mean=0.1,
    )
    base.update(overrides)
    return FamilySummary(**base)


class TestValidate:
    def test_consistent_summary_passes(self):
        assert validate(consistent_summary()) == []

    def test_lambda_mismatch_named(self):
        out = validate(consistent_summary(lambda_=2.0, delta_bar=2.4))
        assert len(out) == 1 and "lambda" in out[0]

    def test_negative_cov_sum_named(self):
        out = validate(consistent_summary(cov_sum=-0.1))
        assert len(out) == 1 and "cov_sum" in out[0]
        assert "associated" in out[0]

    def test_delta_bar_inconsistency_named(self):
        out = validate(consistent_summary(delta_bar=9.9))
        assert len(out) == 1 and "delta_bar" in out[0]

    def test_cov_sum_above_delta_flagged(self):
        out = validate(consistent_summary(cov_sum=0.5))
        assert any("exceeds delta" in v for v in out)
        # every covariance is its joint expectation minus a nonnegative
        # product, whatever the means
        s = FamilySummary.heterogeneous([0.1, 0.2, 0.3], delta=0.02, cov_sum=0.05)
        out = validate(s)
        assert len(out) == 1 and "exceeds delta" in out[0]

    def test_means_out_of_range_flagged(self):
        out = validate(consistent_summary(means=1.5, lambda_=15.0, delta_bar=15.4,
                                          max_mean=1.5))
        assert any("[0, 1]" in v for v in out)

    def test_max_mean_mismatch_flagged(self):
        out = validate(consistent_summary(max_mean=0.9))
        assert len(out) == 1 and "max_mean" in out[0]

    def test_heterogeneous_length_checked(self):
        # each entry stands for count // len(means) indicators, so no other
        # length can be built, validated or not
        with pytest.raises(ValueError, match="2 entries but count is 3"):
            FamilySummary(
                count=3, means=(0.1, 0.2), lambda_=0.3, delta=0.0,
                delta_bar=0.3, cov_sum=0.0, max_mean=0.2,
            )
        with pytest.raises(ValueError, match="at least one"):
            FamilySummary.heterogeneous([], delta=0.0, cov_sum=0.0)


class TestJsonInterchange:
    def test_homogeneous_roundtrip_uses_lambda_key(self):
        s = consistent_summary()
        d = s.to_json_dict()
        assert d["lambda"] == 1.0
        assert set(d) == {
            "count", "means", "lambda", "delta", "delta_bar", "cov_sum", "max_mean"
        }
        assert FamilySummary.from_json(json.dumps(d)) == s
        # a bare number, given or read, is the one-entry tuple
        assert s.means == (0.1,) and d["means"] == 0.1
        assert FamilySummary.from_json(json.dumps(d)).means == (0.1,)

    def test_heterogeneous_roundtrip(self):
        s = FamilySummary.heterogeneous([0.1, 0.25, 0.4], delta=0.1, cov_sum=0.02)
        back = FamilySummary.from_json(json.dumps(s.to_json_dict()))
        assert back == s
        assert isinstance(back.means, tuple)

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            FamilySummary.from_json('{"count": 3}')


class TestModelSpec:
    def test_runs_parameter_region(self):
        assert ModelSpec("runs", {"n": 10, "k": 2, "p": 0.5}).validate() == []
        # n in [k, 2k) supports sampling and the exact oracle, not summaries
        assert ModelSpec("runs", {"n": 3, "k": 2, "p": 0.5}).validate() == []
        assert ModelSpec("runs", {"n": 1, "k": 2, "p": 0.5}).validate() != []
        assert ModelSpec("runs", {"n": 10, "k": 0, "p": 0.5}).validate() != []
        assert ModelSpec("runs", {"n": 10, "k": 2, "p": 1.5}).validate() != []
        # the int cast would truncate these to n=10, k=2; integral floats,
        # as JSON may carry them, still cast
        out = ModelSpec("runs", {"n": 10.7, "k": 2.9, "p": 0.5}).validate()
        assert len(out) == 1 and "n=10.7, k=2.9" in out[0]
        assert ModelSpec("runs", {"n": 10.0, "k": 2.0, "p": 0.5}).validate() == []
        # a string is left to the cast, which reads an integral one
        assert ModelSpec("runs", {"n": "10", "k": "2", "p": 0.5}).validate() == []
        out = ModelSpec("runs", {"n": "10.7", "k": 2, "p": 0.5}).validate()
        assert len(out) == 1 and "fractional" not in out[0]

    def test_remaining_models(self):
        assert ModelSpec("triangles", {"n": 3, "p": 0.0}).validate() == []
        assert ModelSpec("triangles", {"n": 2, "p": 0.5}).validate() != []
        assert ModelSpec("ustat", {"n": 4, "k": 5, "p": 0.5}).validate() != []
        assert ModelSpec("hypergraph-cover", {"N": 6, "k": 3, "n_draws": 4}).validate() == []
        assert ModelSpec("hypergraph-cover", {"N": 6, "k": 1, "n_draws": 4}).validate() != []
        assert ModelSpec("hypergraph-cover", {"N": 6, "k": 3, "n_draws": 4.5}).validate() != []
        assert ModelSpec("nope", {}).validate() != []

    def test_missing_parameters_reported(self):
        out = ModelSpec("runs", {"n": 10}).validate()
        assert any("requires parameters" in v for v in out)

    def test_json_roundtrip(self):
        spec = ModelSpec("ustat", {"n": 8, "k": 2, "p": 0.3})
        back = ModelSpec.from_json(json.dumps(spec.to_json_dict()))
        assert back == spec
        with pytest.raises(ValueError):
            ModelSpec.from_json('{"model": "runs"}')


class TestModelSummariesValidate:
    """Summaries built by the models module must be internally consistent."""

    @pytest.mark.parametrize("variant", [FIRST_PRINCIPLES, PAPER_AS_PRINTED])
    @pytest.mark.parametrize("n,k", [(4, 2), (10, 2), (12, 3), (20, 4)])
    @pytest.mark.parametrize("p", [0.0, 0.05, 0.5, 0.95, 1.0])
    def test_runs(self, n, k, p, variant):
        assert validate(runs_summary(n, k, p, variant)) == []

    @pytest.mark.parametrize("variant", [FIRST_PRINCIPLES, PAPER_AS_PRINTED])
    @pytest.mark.parametrize("n", [3, 5, 8])
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_triangles(self, n, p, variant):
        assert validate(triangles_summary(n, p, variant)) == []

    @pytest.mark.parametrize("variant", [FIRST_PRINCIPLES, PAPER_AS_PRINTED])
    @pytest.mark.parametrize("n,k", [(4, 1), (6, 2), (9, 3)])
    @pytest.mark.parametrize("p", [0.0, 0.2, 0.9])
    def test_ustat(self, n, k, p, variant):
        assert validate(ustat_summary(n, k, p, variant)) == []

    @pytest.mark.parametrize(
        "N,k,n_draws",
        [(10, 3, 200), (6, 3, 64), (5, 3, 64), (8, 4, 128)],
    )
    def test_hypergraph_where_positively_correlated(self, N, k, n_draws):
        s = hypergraph_summary(N, k, n_draws)
        assert s.cov_sum >= 0
        assert validate(s) == []

    @pytest.mark.parametrize(
        "N,k,n_draws",
        [(6, 2, 64), (4, 3, 8), (5, 3, 8), (6, 3, 16)],
    )
    def test_hypergraph_flags_negative_covariance(self, N, k, n_draws):
        # disjoint edge pairs are negatively correlated in the coverage
        # family; where they dominate, the only violation is cov_sum < 0
        s = hypergraph_summary(N, k, n_draws)
        assert s.cov_sum < 0
        out = validate(s)
        assert len(out) == 1 and "cov_sum" in out[0]
