"""FamilySummary consistency checks, JSON interchange, and the ModelSpec gate."""

from __future__ import annotations

import ast
import copy
import dataclasses
import json
import math
import pickle
import re
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assocbounds import family
from assocbounds.bounds import evaluate_all
from assocbounds.family import FamilySummary, ModelSpec, validate
from assocbounds.models import (
    FIRST_PRINCIPLES,
    PAPER_AS_PRINTED,
    bind,
    hypergraph_summary,
    runs_summary,
    triangles_summary,
    ustat_summary,
)


def consistent_summary(**overrides):
    base = dict(count=10, means=0.1, delta=0.2, cov_sum=0.05)
    base.update(overrides)
    return FamilySummary(**base)


def consistent_doc(**overrides):
    doc = {"count": 10, "means": 0.1, "lambda": 1.0, "delta": 0.2,
           "delta_bar": 1.4, "cov_sum": 0.05, "max_mean": 0.1}
    return {**doc, **overrides}


class TestValidate:
    """``validate``, and the checks of the values a JSON document restates."""

    def test_consistent_summary_passes(self):
        s = consistent_summary()
        assert validate(s) == []
        assert (s.lambda_, s.delta_bar, s.max_mean) == (1.0, 1.4, 0.1)

    def test_lambda_mismatch_named(self):
        with pytest.raises(ValueError, match="lambda=2.0 does not match"):
            FamilySummary.from_json_dict(consistent_doc(delta_bar=2.4, **{"lambda": 2.0}))
        # the tolerance is relative 1e-10
        FamilySummary.from_json_dict(consistent_doc(delta_bar=1.4 + 9e-11,
                                                    **{"lambda": 1.0 + 9e-11}))
        with pytest.raises(ValueError, match="lambda"):
            FamilySummary.from_json_dict(consistent_doc(delta_bar=1.4 + 2e-10,
                                                        **{"lambda": 1.0 + 2e-10}))

    def test_negative_cov_sum_named(self):
        out = validate(consistent_summary(cov_sum=-0.1))
        assert len(out) == 1 and "cov_sum" in out[0]
        assert "associated" in out[0]

    def test_delta_bar_inconsistency_named(self):
        with pytest.raises(ValueError, match="delta_bar"):
            FamilySummary.from_json_dict(consistent_doc(delta_bar=9.9))
        # checked against the document's own lambda + 2*delta
        FamilySummary.from_json_dict(
            consistent_doc(delta_bar=1.4 + 5e-11, **{"lambda": 1.0 + 5e-11})
        )

    def test_cov_sum_above_delta_flagged(self):
        out = validate(consistent_summary(cov_sum=0.5))
        assert any("exceeds delta" in v for v in out)
        # every covariance is its joint expectation minus a nonnegative
        # product, whatever the means
        s = FamilySummary(count=3, means=(0.1, 0.2, 0.3), delta=0.02, cov_sum=0.05)
        out = validate(s)
        assert len(out) == 1 and "exceeds delta" in out[0]

    def test_means_out_of_range_flagged(self):
        out = validate(consistent_summary(means=1.5))
        assert any("[0, 1]" in v for v in out)

    def test_max_mean_mismatch_flagged(self):
        with pytest.raises(ValueError, match="max_mean"):
            FamilySummary.from_json_dict(consistent_doc(max_mean=0.9))

    def test_heterogeneous_length_checked(self):
        # each entry stands for count // len(means) indicators, so no other
        # length can be built, validated or not
        with pytest.raises(ValueError, match="2 entries but count is 3"):
            FamilySummary(count=3, means=(0.1, 0.2), delta=0.0, cov_sum=0.0)
        with pytest.raises(ValueError, match="at least one"):
            FamilySummary(count=0, means=(), delta=0.0, cov_sum=0.0)


class TestConstructorGate:
    """What no bound can read is refused however the summary is built."""

    def test_fractional_count_refused(self):
        # every product bound would weight the means by 10.5 indicators
        with pytest.raises(ValueError, match="count must be an integer, got 10.5"):
            consistent_summary(count=10.5)
        s = consistent_summary(count=10.0)
        assert s.count == 10 and isinstance(s.count, int)

    @pytest.mark.parametrize("count", [True, False])
    def test_boolean_count_refused(self, count):
        with pytest.raises(ValueError, match=f"count must be an integer, got {count}"):
            consistent_summary(count=count)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            # float() reads True as 1.0
            ("means", (True, 0.2, 0.3), "means must be a number or a list of numbers"),
            ("means", True, "means must be a number or a list of numbers"),
            ("delta", True, "delta must be a number, got True"),
            ("cov_sum", False, "cov_sum must be a number, got False"),
            # these raised a bare TypeError, or float's own ValueError
            ("means", ("x",), "means must be a number or a list of numbers"),
            ("means", None, "means must be a number or a list of numbers"),
            ("delta", "abc", "delta must be a number, got 'abc'"),
            ("cov_sum", None, "cov_sum must be a number, got None"),
            # float(10**400) raises OverflowError
            ("delta", 10**400, "delta lies beyond the double range (about 1.8e308)"),
        ],
    )
    def test_non_number_field_refused(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            consistent_summary(**{field: value})

    def test_fields_are_stored_as_read(self):
        s = FamilySummary(count="3", means=[1, "0.5", np.float64(0.25)], delta=1, cov_sum="0")
        assert (s.count, s.means, s.delta, s.cov_sum) == (3, (1.0, 0.5, 0.25), 1.0, 0.0)
        assert {type(x) for x in (s.delta, s.cov_sum, *s.means)} == {float}

    @pytest.mark.parametrize("field", ["delta", "cov_sum"])
    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_sum_refused_naming_the_field(self, field, x):
        with pytest.raises(ValueError, match=rf"^{field}=-?(inf|nan) .*double range"):
            consistent_summary(**{field: x})

    def test_count_beyond_double_range_refused_naming_its_size(self):
        with pytest.raises(ValueError, match=r"indicators is about 10\^400\.0, beyond"):
            consistent_summary(count=10**400)
        # checked before the sums, which overflow at such a count
        with pytest.raises(ValueError, match=r"indicators is about 10\^400\.0"):
            consistent_summary(count=10**400, delta=math.inf)

    def test_string_mean_is_one_number(self):
        # as the JSON reader reads it, not one mean per character
        s = FamilySummary(count=2, means="01", delta=0.0, cov_sum=0.0)
        assert (s.means, s.lambda_) == ((1.0,), 2.0)
        assert FamilySummary(count=1, means="0.5", delta=0.0, cov_sum=0.0).means == (0.5,)

    def test_means_summing_beyond_double_range_flagged(self):
        # fsum overflows; such means lie outside [0, 1], which validate flags
        s = FamilySummary(count=2, means=(1e308, 1e308), delta=0.0, cov_sum=0.0)
        assert s.lambda_ == math.inf
        assert validate(s) == ["means must lie in [0, 1], offending values: [1e+308, 1e+308]"]


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
        s = FamilySummary(count=3, means=[0.1, 0.25, 0.4], delta=0.1, cov_sum=0.02)
        back = FamilySummary.from_json(json.dumps(s.to_json_dict()))
        assert back == s
        assert isinstance(back.means, tuple)

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            FamilySummary.from_json('{"count": 3}')

    def test_fractional_count_rejected(self):
        # int() would truncate 10.9 to 10; an integral float still reads
        with pytest.raises(ValueError, match="count must be an integer, got 10.9"):
            FamilySummary.from_json_dict(consistent_doc(count=10.9))
        assert FamilySummary.from_json_dict(consistent_doc(count=10.0)).count == 10

    @pytest.mark.parametrize("count", ["1e400", "1" + "0" * 400], ids=["1e400", "10^400"])
    def test_count_beyond_double_range_rejected(self, count):
        text = json.dumps(consistent_doc(count=0)).replace('"count": 0', f'"count": {count}')
        with pytest.raises(ValueError, match="double range"):
            FamilySummary.from_json(text)

    @pytest.mark.parametrize("field,text", [("delta", "1e400"), ("delta", "NaN"),
                                            ("cov_sum", "Infinity"), ("cov_sum", "NaN")])
    def test_non_finite_sum_named(self, field, text):
        # refused for what it is, before any restated value is compared with it
        doc = json.dumps(consistent_doc(**{field: 0.0})).replace(
            f'"{field}": 0.0', f'"{field}": {text}'
        )
        with pytest.raises(ValueError, match=rf"^{field}=(inf|nan) .*double range"):
            FamilySummary.from_json(doc)


    @pytest.mark.parametrize(
        "text,message",
        [
            ("null", "expected an object, got NoneType"),
            ("5", "expected an object, got int"),
            ('[{"count": 10}]', "expected an object, got list"),
        ],
    )
    def test_non_object_refused(self, text, message):
        with pytest.raises(ValueError, match=message):
            FamilySummary.from_json(text)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("count", None, "count must be an integer, got None"),
            ("count", [10], r"count must be an integer, got \[10\]"),
            ("delta", [0.2], r"delta must be a number, got \[0.2\]"),
            ("max_mean", {}, "max_mean must be a number, got {}"),
            ("lambda", None, "lambda must be a number, got None"),
            ("means", None, "means must be a number or a list of numbers"),
            ("means", [0.1] * 9 + [None], "means must be a number or a list of numbers"),
            # float() reads a JSON boolean as 1.0 or 0.0, and int() true as 1
            ("count", True, "count must be an integer, got True"),
            ("delta", False, "delta must be a number, got False"),
            ("cov_sum", True, "cov_sum must be a number, got True"),
            ("lambda", True, "lambda must be a number, got True"),
            ("delta_bar", False, "delta_bar must be a number, got False"),
            ("max_mean", True, "max_mean must be a number, got True"),
            ("means", True, "means must be a number or a list of numbers"),
            ("means", [0.1] * 9 + [True], "means must be a number or a list of numbers"),
            # a string float() or int() cannot read is refused under the field's name
            ("delta", "abc", "delta must be a number, got 'abc'"),
            ("means", [0.1] * 9 + ["x"], "means must be a number or a list of numbers"),
            ("count", "ten", "count must be an integer, got 'ten'"),
        ],
    )
    def test_non_number_field_refused(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FamilySummary.from_json_dict(consistent_doc(**{field: value}))

    def test_string_mean_is_one_number(self):
        # a string reads as one number, not as one mean per character
        doc = consistent_doc(count=2, means="01", delta=0.0, delta_bar=2.0,
                             cov_sum=0.0, max_mean=1.0, **{"lambda": 2.0})
        assert FamilySummary.from_json_dict(doc).means == (1.0,)
        with pytest.raises(ValueError, match="lambda=1.0 does not match"):
            FamilySummary.from_json_dict({**doc, "lambda": 1.0, "delta_bar": 1.0})

    def test_finite_lambda_is_not_close_to_an_infinite_sum(self):
        # the means' sum overflows to inf; a finite restatement must not match it
        doc = {"count": 2, "means": [1e308, 1e308], "lambda": 1.0, "delta": 0.0,
               "delta_bar": 1.0, "cov_sum": 0.0, "max_mean": 1e308}
        with pytest.raises(ValueError, match="^lambda=1.0 does not match the sum of means inf$"):
            FamilySummary.from_json_dict(doc)


_shared = st.builds(
    lambda count, p: (count, (p,)),
    st.integers(1, 10**6),
    st.floats(0.0, 1.0),
)
_listed = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40).map(
    lambda ms: (len(ms), tuple(ms))
)
_nonneg = st.floats(0.0, 1e12)


@st.composite
def summaries(draw):
    count, means = draw(st.one_of(_shared, _listed))
    return FamilySummary(count=count, means=means, delta=draw(_nonneg),
                         cov_sum=draw(_nonneg))


class TestDerivedFields:
    """lambda, delta_bar and max_mean are functions of the given fields."""

    @settings(max_examples=200, deadline=None)
    @given(summaries())
    def test_json_roundtrip(self, s):
        assert FamilySummary.from_json(json.dumps(s.to_json_dict())) == s

    @settings(max_examples=200, deadline=None)
    @given(summaries())
    def test_bit_equal_to_the_direct_formulas(self, s):
        if len(s.means) == 1:  # count indicators of mean p
            (p,) = s.means
            lam, top = s.count * p, p
        else:
            lam, top = math.fsum(s.means), max(s.means)
        assert s.lambda_ == lam
        assert s.delta_bar == lam + 2.0 * s.delta
        assert s.max_mean == top

    @settings(max_examples=200, deadline=None)
    @given(summaries(), _nonneg)
    def test_replace_rederives(self, s, x):
        r = dataclasses.replace(s, delta=x)
        assert r.delta_bar == s.lambda_ + 2.0 * x
        assert r.lambda_ == s.lambda_ and r.max_mean == s.max_mean

    @pytest.mark.parametrize("means", [(0.1,), (0.1, 0.3, 0.2)], ids=["shared", "listed"])
    def test_an_evaluated_summary_copies_as_a_fresh_one(self, means):
        # the bound tilted product is a closure, which pickle cannot carry
        def fresh():
            return FamilySummary(count=3, means=means, delta=0.02, cov_sum=0.01)

        s = fresh()
        entries = evaluate_all(s)
        for back in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s), copy.copy(s)):
            assert back == fresh() and hash(back) == hash(fresh())
            assert repr(back) == repr(fresh())
            assert evaluate_all(back) == entries

    def test_replace_keeps_no_stale_delta_bar(self):
        s = dataclasses.replace(runs_summary(10, 2, 0.5), delta=5.0)
        assert s.delta_bar == 12.5
        # four given fields; the three derived ones cannot be passed
        assert [f.name for f in dataclasses.fields(s) if f.init] == [
            "count", "means", "delta", "cov_sum"
        ]
        with pytest.raises(TypeError):
            FamilySummary(count=10, means=0.1, delta=0.2, cov_sum=0.05, lambda_=1.0)


def refusal(model, params):
    """The message with which ``bind`` refuses a spec, or None if it binds."""
    try:
        bind(ModelSpec(model, params))
    except ValueError as exc:
        return str(exc)
    return None


class TestModelSpec:
    """``ModelSpec`` is a record; ``models.bind`` is its one gate."""

    def test_runs_parameter_region(self):
        assert refusal("runs", {"n": 10, "k": 2, "p": 0.5}) is None
        # n in [k, 2k) supports sampling and the exact oracle, not summaries
        assert refusal("runs", {"n": 3, "k": 2, "p": 0.5}) is None
        assert refusal("runs", {"n": 1, "k": 2, "p": 0.5}) == (
            "runs requires n >= k, got n=1, k=2"
        )
        assert refusal("runs", {"n": 10, "k": 0, "p": 0.5}) == "runs requires k >= 1, got k=0"
        assert refusal("runs", {"n": 10, "k": 2, "p": 1.5}) == (
            "runs requires p in [0, 1], got p=1.5"
        )
        # every range violation, joined, as a direct call gives them
        assert refusal("runs", {"n": 1, "k": 0, "p": 2.0}) == (
            "runs requires k >= 1, got k=0; runs requires p in [0, 1], got p=2.0"
        )
        # int() would truncate these to n=10, k=2; the first refused is named,
        # and integral floats, as JSON may carry them, still read
        assert refusal("runs", {"n": 10.7, "k": 2.9, "p": 0.5}) == (
            "model 'runs': n must be an integer, got 10.7"
        )
        assert refusal("runs", {"n": 10, "k": 2.9, "p": 0.5}) == (
            "model 'runs': k must be an integer, got 2.9"
        )
        assert refusal("runs", {"n": 10.0, "k": 2.0, "p": 0.5}) is None
        # a string reads as int() and float() read it
        assert refusal("runs", {"n": "10", "k": "2", "p": "0.5"}) is None
        assert refusal("runs", {"n": "10.7", "k": 2, "p": 0.5}) == (
            "model 'runs': n must be an integer, got '10.7'"
        )
        # int() and float() read a boolean as 1 or 0
        assert refusal("runs", {"n": 10, "k": True, "p": 0.5}) == (
            "model 'runs': k must be an integer, got True"
        )
        assert refusal("runs", {"n": 10, "k": 2, "p": True}) == (
            "model 'runs': p must be a number, got True"
        )
        # a library caller can pass these; int() raises OverflowError at inf
        assert refusal("runs", {"n": math.nan, "k": 2, "p": 0.5}) == (
            "model 'runs': n must be an integer, got nan"
        )
        for bad in (math.inf, -math.inf):
            assert refusal("runs", {"n": bad, "k": 2, "p": 0.5}) == (
                f"model 'runs': n={bad} lies beyond the double range (about 1.8e308)"
            )
        # and a non-number, which the cast refuses with a TypeError
        assert refusal("runs", {"n": [10], "k": 2, "p": 0.5}) == (
            "model 'runs': n must be an integer, got [10]"
        )
        assert refusal("runs", {"n": 10, "k": 2, "p": [0.5]}) == (
            "model 'runs': p must be a number, got [0.5]"
        )

    def test_remaining_models(self):
        assert refusal("triangles", {"n": 3, "p": 0.0}) is None
        assert "triangles requires n >= 3" in refusal("triangles", {"n": 2, "p": 0.5})
        assert refusal("triangles", {"n": 5, "p": -0.1}) == (
            "triangles requires p in [0, 1], got p=-0.1"
        )
        assert refusal("ustat", {"n": 4, "k": 2, "p": 1.5}) == (
            "ustat requires p in [0, 1], got p=1.5"
        )
        assert "ustat requires 1 <= k <= n" in refusal("ustat", {"n": 4, "k": 5, "p": 0.5})
        assert refusal("hypergraph-cover", {"N": 6, "k": 3, "n_draws": 4}) is None
        assert "2 <= k <= N" in refusal("hypergraph-cover", {"N": 6, "k": 1, "n_draws": 4})
        assert refusal("hypergraph-cover", {"N": 6, "k": 3, "n_draws": 4.5}) == (
            "model 'hypergraph-cover': n_draws must be an integer, got 4.5"
        )
        assert refusal("nope", {}) == (
            "unknown model 'nope'; expected one of "
            "('runs', 'triangles', 'ustat', 'hypergraph-cover')"
        )

    def test_missing_parameters_reported(self):
        assert refusal("runs", {"n": 10}) == "model 'runs' requires parameters ['k', 'p']"

    def test_foreign_parameters_reported(self):
        assert refusal("runs", {"n": 10, "k": 2, "p": 0.3, "N": 7, "q": 1}) == (
            "model 'runs' takes no parameters ['N', 'q']"
        )

    def test_malformed_fields_refused_before_the_lookup(self):
        # these reached FAMILIES.get or params.get and raised TypeError or
        # AttributeError
        assert refusal("runs", None) == "params must be a Mapping, got NoneType"
        assert refusal("runs", [("n", 10)]) == "params must be a Mapping, got list"
        assert refusal(["runs"], {}) == "model must be a str, got list"
        # any Mapping has .get and [], so it binds
        assert refusal("runs", MappingProxyType({"n": 10, "k": 2, "p": 0.5})) is None

    def test_a_record_of_two_fields(self):
        assert [f.name for f in dataclasses.fields(ModelSpec)] == ["model", "params"]
        assert not [
            name for name, value in vars(ModelSpec).items()
            if callable(value) and not name.startswith("__")
        ]

    def test_family_module_imports_nothing_from_models(self):
        # models imports family; an import back would make the cycle again
        tree = ast.parse(Path(family.__file__).read_text())
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                imported += [module] + [f"{module}.{a.name}" for a in node.names]
        assert imported, "the walk found no import at all"
        assert not [m for m in imported if "models" in m.split(".")]


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
