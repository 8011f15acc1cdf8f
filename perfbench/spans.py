"""Span tracing around assocbounds' public functions, and the per-layer
metrics derived from the spans.

The tracer patches each function where its caller looks it up (``oracles``
imports ``trial_uniforms``, ``simulate_batch`` and ``clopper_pearson`` by
name, ``bounds`` imports ``minimize_scalar`` by name), so nothing under
``src/`` changes.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

from assocbounds import bounds, cli, models, oracles
from assocbounds.family import FamilySummary

FAMILIES = ("runs", "triangles", "ustat", "hypergraph-cover")

# One span: (id, parent id, root id, name, start, end, phase, attrs).
Span = tuple[int, "int | None", int, str, float, float, str, "dict[str, Any] | None"]


def _padded_words(budget: int) -> int:
    # Philox emits 4 words per counter block and every trial starts on a
    # block boundary, so a trial occupies budget rounded up to 4 words.
    return 4 * max(1, -(-budget // 4))


def _family(args: tuple, kwargs: dict) -> dict[str, Any]:
    return {"family": args[0].model}


def _monte_carlo_attrs(args: tuple, kwargs: dict) -> dict[str, Any]:
    return {"workers": kwargs.get("workers", 1)}  # every caller passes it by name


def _uniforms_attrs(args: tuple, kwargs: dict) -> dict[str, Any]:
    spec, count = args[0], args[3]
    budget = models.trial_budget(spec)
    return {"used": count * budget, "words": count * _padded_words(budget)}


def _batch_attrs(args: tuple, kwargs: dict) -> dict[str, Any]:
    return {"family": args[0].model, "rows": len(args[1])}


def _lv_attrs(args: tuple, kwargs: dict) -> dict[str, Any]:
    return {"homogeneous": args[0].is_homogeneous}


class Tracer:
    """Records one span per call of each patched function while installed.

    A span's parent is the innermost open span of its own thread; a pool
    thread with no open span of its own takes the installing thread's
    innermost span, which is the ``monte_carlo`` call waiting on it.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._owner = threading.get_ident()
        self._owner_stack: list[tuple[int, int]] = []
        self._local = threading.local()
        self._saved: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[tuple[int, int]]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(
        self,
        name: str,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        attrs: Callable[[tuple, dict], dict] | None = None,
    ) -> Any:
        stack = self._stack()
        outer = stack or self._owner_stack
        sid = next(self._ids)
        parent, root = (outer[-1][0], outer[-1][1]) if outer else (None, sid)
        stack.append((sid, root))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            extra = attrs(args, kwargs) if attrs is not None else None
            self.spans.append((sid, parent, root, name, start, end, self.phase, extra))

    def _wrap(self, name: str, fn: Callable, attrs=None) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)

        return traced

    def _wrap_minimize(self, fn: Callable) -> Callable:
        # evals_per_call is an exact count of objective evaluations.
        def traced(f, *args, **kwargs):
            evals = [0]

            def counted(t):
                evals[0] += 1
                return f(t)

            return self.call(
                "numerics.minimize_scalar", fn, (counted, *args), kwargs,
                lambda a, k: {"evals": evals[0]},
            )

        return traced

    def install(self) -> None:
        """Patch every traced name; :meth:`uninstall` restores them."""
        if self._saved:
            return
        targets = [
            (cli, "main", "cli.main", None),
            (oracles, "monte_carlo", "oracles.monte_carlo", _monte_carlo_attrs),
            (oracles, "oracle_for", "oracles.oracle_for", _family),
            (oracles, "trial_uniforms", "models.trial_uniforms", _uniforms_attrs),
            (oracles, "simulate_batch", "models.simulate_batch", _batch_attrs),
            (oracles, "clopper_pearson", "numerics.clopper_pearson", None),
            (models, "summary_for", "models.summary_for", None),
            (bounds, "evaluate_all", "bounds.evaluate_all", None),
            (bounds, "lv_optimal", "bounds.lv_optimal", _lv_attrs),
        ]
        for owner, attr, name, attrs in targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, attrs))
        original = bounds.minimize_scalar
        self._saved.append((bounds, "minimize_scalar", original))
        bounds.minimize_scalar = self._wrap_minimize(original)
        # from_json is a classmethod; keep the descriptor to restore it.
        descriptor = FamilySummary.__dict__["from_json"]
        self._saved.append((FamilySummary, "from_json", descriptor))
        plain = self._wrap("family.FamilySummary.from_json", descriptor.__func__)
        FamilySummary.from_json = classmethod(plain)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "root", "name", "start", "end", "phase", "attrs")
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_seconds(spans: list[Span], name: str) -> float:
    """Summed self time of the spans called ``name``: each span's duration
    minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, parent, _root, _n, start, end, _phase, _attrs in spans:
        if parent is not None:
            children[parent].append((start, end))
    return sum(
        (end - start) - _covered(start, end, children.get(sid, []))
        for sid, _p, _r, n, start, end, _phase, _attrs in spans
        if n == name
    )


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, float]:
    """Per-layer metrics from one traced run.

    Times and call counts are per workload round (the run repeats a fixed
    round of calls), so runs of different length compare directly.  Ratios
    whose denominator is zero, because the workload never reaches that layer,
    read 0.
    """
    timed = [s for s in spans if s[6] == "timed"]
    per_round = 1.0 / max(rounds, 1)
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    sums: dict[str, float] = defaultdict(float)
    peak_words = 0
    for _sid, _parent, _root, name, start, end, _phase, attrs in timed:
        dur = end - start
        attrs = attrs or {}
        key = name
        if name == "models.simulate_batch":
            key = f"{name}.{attrs['family']}"
            sums[key + ".rows"] += attrs["rows"]
        elif name == "oracles.oracle_for":
            key = f"{name}.{attrs['family']}"
        elif name == "bounds.lv_optimal":
            kind = "homogeneous" if attrs["homogeneous"] else "heterogeneous"
            key = f"{name}.{kind}"
        elif name == "models.trial_uniforms":
            sums["words"] += attrs["words"]
            sums["used"] += attrs["used"]
            peak_words = max(peak_words, attrs["words"])
        elif name == "numerics.minimize_scalar":
            sums["evals"] += attrs["evals"]
        elif name == "oracles.monte_carlo":
            sums["capacity"] += dur * attrs["workers"]
        if name in ("models.trial_uniforms", "models.simulate_batch"):
            sums["worker_busy"] += dur
        busy[key] += dur
        calls[key] += 1

    def ratio(a: float, b: float) -> float:
        return a / b if b > 0 else 0.0

    out: dict[str, float] = {}
    for fam in FAMILIES:
        key = f"models.simulate_batch.{fam}"
        out[f"{key}.busy_s"] = busy[key] * per_round
        out[f"{key}.rows_per_busy_s"] = ratio(sums[key + ".rows"], busy[key])
    out["models.trial_uniforms.busy_s"] = busy["models.trial_uniforms"] * per_round
    out["models.trial_uniforms.doubles_per_busy_s"] = ratio(
        sums["words"], busy["models.trial_uniforms"]
    )
    out["models.trial_uniforms.bytes"] = 8.0 * peak_words
    out["models.trial_uniforms.used_frac"] = ratio(sums["used"], sums["words"])
    out["oracles.monte_carlo.wall_s"] = busy["oracles.monte_carlo"] * per_round
    out["oracles.monte_carlo.worker_util"] = ratio(sums["worker_busy"], sums["capacity"])
    for fam in FAMILIES:
        key = f"oracles.oracle_for.{fam}"
        out[f"{key}.busy_s"] = busy[key] * per_round
        out[f"{key}.calls"] = calls[key] * per_round
    out["oracles.oracle_for.cold_s"] = sum(
        s[5] - s[4] for s in spans if s[6] == "setup" and s[3] == "oracles.oracle_for"
    )
    for key in (
        "bounds.evaluate_all",
        "bounds.lv_optimal.homogeneous",
        "bounds.lv_optimal.heterogeneous",
        "numerics.minimize_scalar",
        "numerics.clopper_pearson",
        "family.FamilySummary.from_json",
        "models.summary_for",
    ):
        out[f"{key}.busy_s"] = busy[key] * per_round
    out["numerics.minimize_scalar.evals_per_call"] = ratio(
        sums["evals"], calls["numerics.minimize_scalar"]
    )
    out["cli.main.self_s"] = self_seconds(timed, "cli.main") * per_round
    return out
