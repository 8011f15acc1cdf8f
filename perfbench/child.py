"""One workload process: set up, signal readiness, run the timed rounds,
check the outputs and report one JSON result line.

Started by ``run.py``, which times set-up from outside.  The process
writes ``READY`` when the workload is ready and ``RESULT <json>`` at the
end; with ``--probe`` it exits right after ``READY``.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import assocbounds  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = 3
# Median duration of reference_work_seconds() on a 2-core Intel Xeon VM.
REFERENCE_S = 3.25e-3


def reference_work_seconds() -> float:
    """Time a fixed piece of work that does not touch assocbounds: a Python
    float loop, many small numpy operations and a streaming numpy pass.

    On shared hosts the machine's speed drifts by tens of percent over
    minutes, and longer runs do not average it out.  Timings are reported
    scaled by (this duration / REFERENCE_S), measured between rounds of the
    same run, so they read as seconds on the reference machine; the raw
    figures stay in the report.
    """
    floats = [i / 997.0 for i in range(2000)]
    small = np.zeros((256, 8))
    large = np.arange(300_000, dtype=np.float64)
    start = time.perf_counter()
    for _ in range(3):
        math.fsum(math.log1p(x * 0.5) for x in floats)
    for i in range(300):
        small[:, i % 8] += 1.0
    for _ in range(3):
        np.sqrt(large).sum()
    return time.perf_counter() - start


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least a share q
    of the values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_rounds(workload, tally, seconds: float, tracer=None):
    """Repeat whole rounds until ``seconds`` have passed.

    With a tracer, rounds alternate untraced and traced, so drift in the
    machine's speed affects both halves alike.  Returns the untraced and
    traced rounds and the reference-work time taken before each round.
    """
    plain, traced, reference = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        reference.append(reference_work_seconds())
        trace_this = tracer is not None and len(plain) > len(traced)
        if trace_this:
            tracer.install()
        try:
            result = workload.round(tally)
        finally:
            if trace_this:
                tracer.uninstall()
        (traced if trace_this else plain).append(result)
        enough = len(plain) >= MIN_ROUNDS and (tracer is None or len(traced) >= MIN_ROUNDS)
        if enough and time.perf_counter() >= deadline:
            return plain, traced, reference


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="exit once set up")
    parser.add_argument("--out", type=Path, required=True, help="directory for the span file")
    args = parser.parse_args(argv)
    if Path(assocbounds.__file__).resolve().parent != ROOT / "src" / "assocbounds":
        sys.exit(f"imported assocbounds from {assocbounds.__file__}, not from {ROOT / 'src'}")

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    if tracer is not None:
        tracer.uninstall()
        tracer.phase = "timed"
    print("READY", flush=True)
    if args.probe:
        return 0

    tally = workloads.Tally()
    plain, traced, reference = run_rounds(workload, tally, args.seconds, tracer)
    workload.final_checks(tally)

    latencies = [t for r in plain for t in r.latencies]
    raw = {
        "ops_per_s": statistics.median(r.rate for r in plain),
        "call_p50_ms": 1e3 * percentile(latencies, 0.5),
        "call_p90_ms": 1e3 * percentile(latencies, 0.9),
    }
    reference_ratio = statistics.median(reference) / REFERENCE_S
    # The reference work runs on one thread, so it tracks one-thread runs.
    # A two-worker run also depends on the other core and on memory
    # bandwidth; scaling it widened its spread (0.04 to 0.14 over ten seeds).
    slowdown = reference_ratio if workload.workers == 1 else 1.0
    result = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.messages,
        "rounds": len(plain),
        "calls": len(latencies),
        "reference_ratio": reference_ratio,
        "slowdown": slowdown,
        "raw_metrics": raw,
        "metrics": {
            "ops_per_s": raw["ops_per_s"] * slowdown,
            "call_p50_ms": raw["call_p50_ms"] / slowdown,
            "call_p90_ms": raw["call_p90_ms"] / slowdown,
        },
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "workers": workload.workers,
    }
    if tracer is not None:
        untraced_rate = raw["ops_per_s"]
        traced_rate = statistics.median(r.rate for r in traced)
        layer = spans.layer_metrics(tracer.spans, len(traced))
        layer["oracles.monte_carlo.speedup_w2"] = workloads.worker_speedup(args.seed)
        layer["trace.ops_per_s_untraced"] = untraced_rate
        layer["trace.ops_per_s_traced"] = traced_rate
        layer["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate
        result["layer_metrics"] = layer
        result["traced_rounds"] = len(traced)
        result["spans"] = len(tracer.spans)
        path = args.out / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(path)
        result["span_file"] = str(path.relative_to(ROOT))
    # ru_maxrss is in KiB on Linux.
    result["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
