"""Benchmark for assocbounds: one workload run, as declared in BENCHMARK.json.

    python3 perfbench/run.py --workload mc-cover --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  The workload runs in a fresh
process (``child.py``) against ``src/``; this script times its set-up from
outside, together with two more set-up-only processes, and reports the
median as ``setup_s``.  On one-worker workloads the other timings are
scaled to a reference machine speed measured in the same run (see
``child.reference_work_seconds``); the raw figures are in the report.  It prints each metric with its unit, one report
line with provenance and check results, and as the last line the result
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  Reports and span files go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
# At most two threads: the pool of the two-worker workload.  Keep BLAS and
# OpenMP from adding their own.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def commit_of(root: Path) -> str | None:
    """HEAD of the checkout's own git directory, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """SHA-256 over the package sources, which identifies the code measured
    when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


class Child:
    """A workload process run to its end; ``ready_s`` is the time from its
    start until it wrote READY.  A watchdog kills it at the deadline."""

    def __init__(self, args: argparse.Namespace, probe: bool, deadline: float) -> None:
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(OUT)]
        if probe:
            cmd.append("--probe")
        self.ready_s = None
        self.result = None
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            env={**os.environ, **THREAD_ENV},
        )
        watchdog = threading.Timer(max(0.0, deadline - start), self.proc.kill)
        watchdog.start()
        try:
            for line in self.proc.stdout:
                if line.startswith("READY") and self.ready_s is None:
                    self.ready_s = time.perf_counter() - start
                elif line.startswith("RESULT "):
                    self.result = json.loads(line[len("RESULT "):])
            self.proc.wait()
        finally:
            watchdog.cancel()
            watchdog.join()
            self.proc.stdout.close()
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()

    @property
    def ok(self) -> bool:
        return self.proc.returncode == 0 and self.ready_s is not None


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "assocbounds" / "__init__.py").is_file():
        return fail(f"no assocbounds sources under {ROOT / 'src'}; run from a source checkout")

    deadline = started + DEADLINE_S
    setup = []
    if not args.trace:
        # Set-up-only processes first, one at a time, so none competes with
        # another or with the measured run.
        for _ in range(SETUP_SAMPLES - 1):
            probe = Child(args, probe=True, deadline=deadline)
            if not probe.ok:
                return fail(f"set-up probe exited with {probe.proc.returncode}")
            setup.append(probe.ready_s)
    child = Child(args, probe=False, deadline=deadline)
    if not child.ok or child.result is None:
        return fail(f"workload process exited with {child.proc.returncode} and no result")
    res = child.result
    setup.append(child.ready_s)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = dict(res["layer_metrics"] if args.trace else res["metrics"])
    if not args.trace:
        # Not scaled: set-up time (imports, mostly) does not follow the
        # reference work's drift.
        measured["setup_s"] = statistics.median(setup)
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        return fail(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "error_frac": res["failed"] / max(res["attempted"], 1),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failures": res["failures"],
        "rounds": res["rounds"],
        "call_samples": res["calls"],
        "setup_samples_s": setup,
        "reference_ratio": res["reference_ratio"],
        "slowdown": res["slowdown"],
        "raw_metrics": res["raw_metrics"],
        **{k: res[k] for k in ("traced_rounds", "spans", "span_file") if k in res},
        "provenance": {
            "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            **res["versions"],
            "git_commit": commit_of(ROOT),
            "source_sha256": source_digest(ROOT),
            "workload_seed": args.seed,
            "workers": res["workers"],
        },
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'error_frac':48s} {report['error_frac']:>16.6g} fraction "
          f"({res['failed']}/{res['attempted']} operations)")
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
