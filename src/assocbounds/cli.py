"""Command-line surface: evaluate bounds, sweep parameters, verify against
oracles or Monte Carlo, and emit machine-readable comparison tables.

Exit codes: 0 success, 1 verification failure, 2 usage/parameter error.
All randomness is controlled by --seed (default 0xA55C1A7E); there is no
environment-variable configuration.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from . import bounds as bounds_mod
from . import models, oracles
from .family import FamilySummary, ModelSpec, validate
from .numerics import LogProb, json_log_linear, log_exceeds

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2

_VARIANT_ALIASES = {
    "first-principles": models.FIRST_PRINCIPLES,
    "paper": models.PAPER_AS_PRINTED,
    "paper-as-printed": models.PAPER_AS_PRINTED,
}

_MODEL_NAMES = {
    alias: name
    for name, family in models.FAMILIES.items()
    for alias in (name, *family.aliases)
}

# Every family parameter is one flag, with its cast as the flag's type, in
# first-seen order over FAMILIES; spec params and table columns use the order.
_PARAMS = {
    name: cast
    for family in models.FAMILIES.values()
    for name, cast in family.params.items()
}

CSV_METHODS = bounds_mod.METHOD_ORDER

CSV_COLUMNS = (
    ["model", "variant", "eq2_form", *_PARAMS]
    + ["count", "lambda", "delta", "delta_bar", "cov_sum", "max_mean"]
    + [f"{m}_{suffix}" for m in CSV_METHODS for suffix in ("log", "linear", "vacuous")]
    + ["lv-optimal_t", "tightest_method"]
    + ["oracle_log", "oracle_linear"]
    + ["mc_estimate", "mc_ci_lower", "mc_ci_upper", "mc_trials", "mc_seed"]
)


class UsageError(Exception):
    pass


def _parse_t(text: str) -> tuple[float | None, float | None]:
    """--t accepts a positive real or 'log:<real>' for exponents that
    underflow in linear form."""
    if text.startswith("log:"):
        try:
            log_t = float(text[4:])
        except ValueError as exc:
            raise UsageError(f"bad log-form t {text!r}: {exc}") from exc
        if not math.isfinite(log_t):
            raise UsageError(f"log-form t must be finite, got {text!r}")
        return None, log_t
    try:
        value = float(text)
    except ValueError as exc:
        raise UsageError(f"bad t {text!r}: {exc}") from exc
    if not value > 0 or math.isinf(value):
        raise UsageError(f"t must be a positive finite real, got {text!r}")
    return value, None


def _spec_from_args(args: argparse.Namespace) -> ModelSpec:
    if args.model is None:
        raise UsageError("--model is required")
    params = {
        name: getattr(args, name)
        for name in _PARAMS
        if getattr(args, name) is not None
    }
    spec = ModelSpec(model=_MODEL_NAMES[args.model], params=params)
    violations = spec.validate()
    if violations:
        raise UsageError("; ".join(violations))
    return spec


def _resolve_variants(name: str, allow_both: bool = False) -> list[str]:
    if name == "both":
        if not allow_both:
            raise UsageError("variant 'both' is only valid for compare")
        return [models.FIRST_PRINCIPLES, models.PAPER_AS_PRINTED]
    resolved = _VARIANT_ALIASES.get(name)
    if resolved is None:
        raise UsageError(f"unknown variant {name!r}")
    return [resolved]


def _emit(obj: Any) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def cmd_bound(args: argparse.Namespace) -> int:
    t, log_t = (None, None) if args.t is None else _parse_t(args.t)
    variant = _resolve_variants(args.variant)[0]
    if args.summary is not None:
        try:
            summary = FamilySummary.from_json(args.summary)
        except (ValueError, json.JSONDecodeError) as exc:
            raise UsageError(f"bad summary JSON: {exc}") from exc
        violations = validate(summary)
        if violations:
            raise UsageError("inconsistent summary: " + "; ".join(violations))
        header: dict[str, Any] = {"model": None, "params": None}
    else:
        spec = _spec_from_args(args)
        summary = models.summary_for(spec, variant=variant)
        header = {"model": spec.model, "params": spec.params}

    entries = bounds_mod.evaluate_all(
        summary, t=t, log_t=log_t, eq2_form=args.eq2_form
    )
    tight = bounds_mod.tightest_upper(entries)
    _emit(
        {
            **header,
            "variant": variant,
            "eq2_form": args.eq2_form,
            "summary": summary.to_json_dict(),
            "bounds": bounds_mod.entries_to_json(entries),
            "tightest_method": None if tight is None else tight.method,
        }
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

@dataclass
class ComparisonRow:
    """One sweep point: model parameters, summary statistics, every bound,
    the tightest non-vacuous upper method, and optional oracle/MC columns."""

    spec: ModelSpec
    variant: str
    eq2_form: str
    summary: FamilySummary
    entries: list[bounds_mod.BoundEntry]
    oracle: LogProb | None = None
    mc: oracles.EstimateWithCI | None = None

    def tightest(self) -> str | None:
        best = bounds_mod.tightest_upper(self.entries)
        return None if best is None else best.method

    def to_flat_dict(self) -> dict[str, Any]:
        q = self.spec.params
        row: dict[str, Any] = {
            "model": self.spec.model,
            "variant": self.variant,
            "eq2_form": self.eq2_form,
            **{name: q.get(name) for name in _PARAMS},
            **{k: v for k, v in self.summary.to_json_dict().items() if k != "means"},
        }
        by_method = {e.method: e for e in self.entries}
        lv_t = None
        for m in CSV_METHODS:
            e = by_method.get(m)
            if isinstance(e, bounds_mod.BoundResult):
                log_out, linear = json_log_linear(e.value)
                row[f"{m}_log"] = log_out
                row[f"{m}_linear"] = linear
                row[f"{m}_vacuous"] = e.vacuous
                if m == "lv-optimal":
                    lv_t = e.t
            else:
                row[f"{m}_log"] = None
                row[f"{m}_linear"] = None
                row[f"{m}_vacuous"] = None
        row["lv-optimal_t"] = lv_t
        row["tightest_method"] = self.tightest()
        ol, olin = json_log_linear(self.oracle)
        row["oracle_log"] = ol
        row["oracle_linear"] = olin
        if self.mc is None:
            row.update(
                mc_estimate=None,
                mc_ci_lower=None,
                mc_ci_upper=None,
                mc_trials=None,
                mc_seed=None,
            )
        else:
            row.update(
                mc_estimate=self.mc.estimate,
                mc_ci_lower=self.mc.ci.lower,
                mc_ci_upper=self.mc.ci.upper,
                mc_trials=self.mc.trials,
                mc_seed=self.mc.seed,
            )
        return row


def _parse_sweep(text: str) -> tuple[str, list[float]]:
    """Grammar: param=start:stop:count[:geom|:linear]."""
    if "=" not in text:
        raise UsageError(f"bad sweep {text!r}; expected param=start:stop:count[:geom]")
    name, _, grid_text = text.partition("=")
    parts = grid_text.split(":")
    if len(parts) not in (3, 4):
        raise UsageError(f"bad sweep grid {grid_text!r}; expected start:stop:count[:geom]")
    mode = "linear"
    if len(parts) == 4:
        mode = parts[3]
        if mode not in ("geom", "linear"):
            raise UsageError(f"sweep mode must be 'geom' or 'linear', got {mode!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad sweep grid {grid_text!r}: {exc}") from exc
    if count < 1:
        raise UsageError(f"sweep needs at least one grid point, got count={count}")
    if count == 1:
        values = [start]
    elif mode == "geom":
        if start <= 0 or stop <= 0:
            raise UsageError("geometric sweeps require positive endpoints")
        values = list(np.geomspace(start, stop, count))
    else:
        values = list(np.linspace(start, stop, count))
    return name.strip(), [float(v) for v in values]


def cmd_compare(args: argparse.Namespace) -> int:
    if args.sweep is None:
        raise UsageError("--sweep param=start:stop:count[:geom] is required")
    param, grid = _parse_sweep(args.sweep)
    if param not in _PARAMS:
        raise UsageError(f"cannot sweep unknown parameter {param!r}")

    variants = _resolve_variants(args.variant, allow_both=True)
    t, log_t = (None, None) if args.t is None else _parse_t(args.t)

    rows: list[ComparisonRow] = []
    for value in grid:
        cast = round(value) if _PARAMS[param] is int else value
        # each point is validated on its own; violations name the bad values
        spec = _spec_from_args(argparse.Namespace(**{**vars(args), param: cast}))
        for variant in variants:
            summary = models.summary_for(spec, variant=variant)
            entries = bounds_mod.evaluate_all(
                summary, t=t, log_t=log_t, eq2_form=args.eq2_form
            )
            oracle = oracles.oracle_for(spec) if args.oracle else None
            mc = (
                oracles.monte_carlo(spec, args.trials, seed=args.seed, level=args.level)
                if args.mc
                else None
            )
            rows.append(
                ComparisonRow(
                    spec=spec,
                    variant=variant,
                    eq2_form=args.eq2_form,
                    summary=summary,
                    entries=entries,
                    oracle=oracle,
                    mc=mc,
                )
            )

    flat = [r.to_flat_dict() for r in rows]
    if args.format == "csv":
        sys.stdout.write(render_csv(flat))
    else:
        _emit({"sweep": {"param": param, "grid": grid}, "rows": flat})
    return EXIT_OK


def render_csv(flat_rows: list[dict[str, Any]]) -> str:
    """CSV with the fixed documented header; floats use repr so every value
    round-trips to the exact double."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in flat_rows:
        out = []
        for col in CSV_COLUMNS:
            v = row.get(col)
            if v is None:
                out.append("")
            elif isinstance(v, bool):
                out.append("true" if v else "false")
            elif isinstance(v, float):
                out.append(repr(v))
            else:
                out.append(str(v))
        writer.writerow(out)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    variant = _resolve_variants(args.variant)[0]
    summary = models.summary_for(spec, variant=variant)
    entries = bounds_mod.evaluate_all(summary, eq2_form=args.eq2_form)

    oracle = oracles.oracle_for(spec)
    mc = None
    if oracle is None:
        if not args.mc:
            raise UsageError(
                "exact oracle unavailable at this size; rerun with --mc and --trials"
            )
        mc = oracles.monte_carlo(spec, args.trials, seed=args.seed, level=args.level)

    if oracle is not None:
        # log domain, so the check still separates values below 1e-9 or near 1
        def above(b: LogProb) -> bool:
            return log_exceeds(b.log_value, oracle.log_value)

        def below(b: LogProb) -> bool:
            return log_exceeds(oracle.log_value, b.log_value)

        reference = {"kind": "oracle", "value": oracle.linear}
    else:
        def above(b: LogProb) -> bool:
            return b.linear > mc.ci.upper

        def below(b: LogProb) -> bool:
            return b.linear < mc.ci.lower

        reference = {"kind": "monte-carlo", "value": mc.estimate,
                     "ci_lower": mc.ci.lower, "ci_upper": mc.ci.upper}

    checks = []
    passed = True
    for e in entries:
        if isinstance(e, bounds_mod.SkippedBound):
            checks.append(
                {"method": e.method, "status": "skipped", "reason": e.reason}
            )
            continue
        lower = e.method == "independent-lower"
        ok = not above(e.value) if lower else e.vacuous or not below(e.value)
        check = {
            "method": e.method,
            "status": "pass" if ok else "fail",
            "direction": "lower" if lower else "upper",
            "bound": e.value.linear,
        }
        if not lower:
            check["vacuous"] = e.vacuous
        checks.append(check)
        passed = passed and ok

    _emit(
        {
            "model": spec.model,
            "params": spec.params,
            "variant": variant,
            "reference": reference,
            "checks": checks,
            "passed": passed,
        }
    )
    return EXIT_OK if passed else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# mc
# ---------------------------------------------------------------------------

def cmd_mc(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    started = time.perf_counter()
    est = oracles.monte_carlo(
        spec, args.trials, seed=args.seed, level=args.level, workers=args.workers
    )
    elapsed = time.perf_counter() - started
    _emit({"model": spec.model, "params": spec.params, **est.to_json_dict()})
    # timing goes to stderr so stdout stays byte-identical across runs
    rate = args.trials / elapsed if elapsed > 0 else float("inf")
    print(f"trials_per_second: {rate:.0f}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# lemma-check
# ---------------------------------------------------------------------------

def cmd_lemma_check(args: argparse.Namespace) -> int:
    if not 1 <= args.m <= 10:
        raise UsageError(f"m must be in [1, 10] (2^m enumeration), got {args.m}")
    if args.count < 1:
        raise UsageError(f"count must be >= 1, got {args.count}")
    if not args.t > 0:
        raise UsageError(f"t must be positive, got {args.t}")

    rng = np.random.default_rng(args.seed)
    n_bits = min(10, max(args.m, 6))
    worst_ratio = 0.0
    violations = 0
    for _ in range(args.count):
        joint = oracles.random_monotone_joint(args.m, n_bits, rng)
        gap, bound, holds = oracles.mgf_gap_check(joint, args.t)
        if not holds:
            violations += 1
        if bound > 0:
            worst_ratio = max(worst_ratio, gap / bound)
        elif gap > 1e-12:
            violations += 1
            worst_ratio = float("inf")
    _emit(
        {
            "m": args.m,
            "t": args.t,
            "count": args.count,
            "seed": args.seed,
            "max_gap_over_bound": worst_ratio,
            "violations": violations,
            "passed": violations == 0,
        }
    )
    return EXIT_OK if violations == 0 else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=sorted(_MODEL_NAMES), help="built-in family")
    for name, cast in _PARAMS.items():
        users = [m for m, family in models.FAMILIES.items() if name in family.params]
        p.add_argument(
            "--" + name.replace("_", "-"),
            dest=name,
            type=cast,
            help=f"{name} for {'/'.join(users)}",
        )
    p.add_argument(
        "--variant",
        choices=["first-principles", "paper", "paper-as-printed", "both"],
        default="first-principles",
        help="formula variant for model summaries",
    )
    p.add_argument(
        "--eq2-form",
        choices=["printed", "standard"],
        default="printed",
        help="ratio-form bound: as printed in its source, or the literature form",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="assocbounds",
        description=(
            "Evaluate, optimize, and validate exponential upper bounds on "
            "P(X=0) for sums of positively associated indicators."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="evaluate every bound on one instance")
    _add_model_flags(p_bound)
    p_bound.add_argument("--summary", help="raw FamilySummary JSON instead of --model")
    p_bound.add_argument("--t", help="t override: positive real or log:<real>")
    p_bound.set_defaults(func=cmd_bound)

    p_cmp = sub.add_parser("compare", help="sweep one parameter, emit a table")
    _add_model_flags(p_cmp)
    p_cmp.add_argument("--sweep", help="param=start:stop:count[:geom]")
    p_cmp.add_argument("--t", help="t override: positive real or log:<real>")
    p_cmp.add_argument("--oracle", action="store_true", help="attach exact values")
    p_cmp.add_argument("--mc", action="store_true", help="attach Monte Carlo estimates")
    p_cmp.add_argument("--trials", type=int, default=100_000)
    p_cmp.add_argument("--seed", type=int, default=oracles.DEFAULT_SEED)
    p_cmp.add_argument("--level", type=float, default=0.95)
    p_cmp.add_argument("--format", choices=["json", "csv"], default="json")
    p_cmp.set_defaults(func=cmd_compare)

    p_ver = sub.add_parser("verify", help="check bounds against exact truth or MC")
    _add_model_flags(p_ver)
    p_ver.add_argument("--mc", action="store_true", help="fall back to Monte Carlo")
    p_ver.add_argument("--trials", type=int, default=100_000)
    p_ver.add_argument("--seed", type=int, default=oracles.DEFAULT_SEED)
    p_ver.add_argument("--level", type=float, default=0.99)
    p_ver.set_defaults(func=cmd_verify)

    p_mc = sub.add_parser("mc", help="Monte Carlo estimate of P(Z=0)")
    _add_model_flags(p_mc)
    p_mc.add_argument("--trials", type=int, default=100_000)
    p_mc.add_argument("--seed", type=int, default=oracles.DEFAULT_SEED)
    p_mc.add_argument("--level", type=float, default=0.95)
    p_mc.add_argument("--workers", type=int, default=1)
    p_mc.set_defaults(func=cmd_mc)

    p_lem = sub.add_parser(
        "lemma-check",
        help="verify the MGF gap bound on random monotone joint laws",
    )
    p_lem.add_argument("--m", type=int, default=4, help="number of variables (<= 10)")
    p_lem.add_argument("--t", type=float, default=0.5)
    p_lem.add_argument("--count", type=int, default=100)
    p_lem.add_argument("--seed", type=int, default=oracles.DEFAULT_SEED)
    p_lem.set_defaults(func=cmd_lemma_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
