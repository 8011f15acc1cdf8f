"""Command-line surface: evaluate bounds, sweep parameters, verify against
oracles or Monte Carlo, and emit machine-readable comparison tables.

Exit codes: 0 success, 1 verification failure, 2 usage/parameter error,
among them a --seed outside [0, 2**128) and a --sweep of more than
MAX_SWEEP_POINTS points, refused before any work.  All randomness is
controlled by --seed (default 0xA55C1A7E); there is no environment-variable
configuration.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time
from typing import Any, Callable, Sequence

import numpy as np

from . import bounds as bounds_mod
from . import models, oracles
from .family import FamilySummary, ModelSpec, validate
from .numerics import LogProb, json_log_linear, log_exceeds

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2

# Every row of a sweep is held until the document prints.
MAX_SWEEP_POINTS = 10_000

# --variant choices and the formula variants each names; "both" is compare's.
_VARIANTS = {
    "first-principles": (models.FIRST_PRINCIPLES,),
    "paper": (models.PAPER_AS_PRINTED,),
    "paper-as-printed": (models.PAPER_AS_PRINTED,),
    "both": models.VARIANTS,
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

CSV_COLUMNS = (
    ["model", "variant", "eq2_form", *_PARAMS]
    + ["count", "lambda", "delta", "delta_bar", "cov_sum", "max_mean"]
    + [f"{m}_{suffix}" for m in bounds_mod.METHOD_ORDER
       for suffix in ("log", "linear", "vacuous")]
    + ["lv-optimal_t", "tightest_method"]
    + ["oracle_log", "oracle_linear"]
    + ["mc_estimate", "mc_ci_lower", "mc_ci_upper", "mc_trials", "mc_seed"]
)


def _parse_t(text: str | None) -> tuple[float | None, float | None]:
    """--t as (t, None), or (None, log_t) for 'log:<real>', which reaches
    exponents that underflow in linear form; (None, None) when it is not
    given.  bounds.evaluate_all refuses a value out of range."""
    if text is None:
        return None, None
    log_form = text.startswith("log:")
    try:
        value = float(text.removeprefix("log:"))
    except ValueError as exc:
        raise ValueError(f"bad {'log-form t' if log_form else 't'} {text!r}: {exc}") from exc
    return (None, value) if log_form else (value, None)


def _spec_from_args(args: argparse.Namespace) -> ModelSpec:
    # not validated here: the first library call that reads the spec refuses it
    if args.model is None:
        raise ValueError("--model is required")
    params = {
        name: getattr(args, name)
        for name in _PARAMS
        if getattr(args, name) is not None
    }
    return ModelSpec(model=_MODEL_NAMES[args.model], params=params)


def _variants(args: argparse.Namespace, allow_both: bool = False) -> tuple[str, ...]:
    if args.variant == "both" and not allow_both:
        raise ValueError("variant 'both' is only valid for compare")
    return _VARIANTS[args.variant]


# The types the C encoder writes as one token; np.float64 is a float.
_SCALARS = frozenset({str, int, float, bool, type(None), np.float64})


@functools.lru_cache(maxsize=8)  # one per depth; CLI documents are 3 deep
def _encoder(pad: str) -> Callable[[Any], str]:
    """The C encoder of a container at indent ``pad``: its item separator
    holds the newline and the padding of the items."""
    return json.JSONEncoder(separators=(",\n" + pad + "  ", ": ")).encode


def _indent2(obj: Any, pad: str = "") -> str:
    """The text of ``json.dumps(obj, indent=2)`` for ``obj`` at indent ``pad``,
    from the C encoder.

    ``json.dumps`` with an indent runs the pure-Python encoder.  Here each
    non-empty container is one call of the C encoder, whose item separator
    holds the newline and the padding, with the first and last line breaks
    spliced in.  A container that holds containers is encoded with 0 in
    their place and split at its separator, which no token holds (the
    encoder escapes every control character), and each 0 is replaced by the
    text of its container.  Tuples count as lists, and keys are coerced as
    ``json.dumps`` coerces them, by the C encoder itself.
    """
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        return json.dumps(obj)
    inner = pad + "  "
    sep = ",\n" + inner
    items = obj.values() if isinstance(obj, dict) else obj
    if _SCALARS.issuperset(map(type, items)):
        text = _encoder(pad)(obj)
        return f"{text[0]}\n{inner}{text[1:-1]}\n{pad}{text[-1]}"
    nested = [isinstance(x, (dict, list, tuple)) for x in items]
    flat = [0 if n else x for n, x in zip(nested, items)]
    text = _encoder(pad)(dict(zip(obj, flat)) if isinstance(obj, dict) else flat)
    body = sep.join(
        part[:-1] + _indent2(x, inner) if n else part
        for part, n, x in zip(text[1:-1].split(sep), nested, items)
    )
    return f"{text[0]}\n{inner}{body}\n{pad}{text[-1]}"


def _emit(obj: Any) -> None:
    """Write ``json.dumps(obj, indent=2)`` and a newline to stdout."""
    sys.stdout.write(_indent2(obj) + "\n")


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def cmd_bound(args: argparse.Namespace) -> int:
    t, log_t = _parse_t(args.t)
    (variant,) = _variants(args)
    if args.summary is not None:
        try:
            summary = FamilySummary.from_json(args.summary)
        except ValueError as exc:  # json.JSONDecodeError included
            raise ValueError(f"bad summary JSON: {exc}") from exc
        violations = validate(summary)
        if violations:
            raise ValueError("inconsistent summary: " + "; ".join(violations))
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
            "bounds": [e.to_json_dict() for e in entries],
            "tightest_method": None if tight is None else tight.method,
        }
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _row(
    spec: ModelSpec,
    variant: str,
    eq2_form: str,
    summary: FamilySummary,
    entries: list[bounds_mod.BoundEntry],
    oracle: LogProb | None,
    mc: oracles.EstimateWithCI | None,
) -> dict[str, Any]:
    """One sweep point and variant, keyed by exactly CSV_COLUMNS in their
    order: parameters, summary statistics, every bound, the tightest
    non-vacuous upper method, and the oracle and Monte Carlo columns; a
    column with no value (an absent bound, oracle or estimate) is null."""
    row: dict[str, Any] = dict.fromkeys(CSV_COLUMNS)
    row.update(model=spec.model, variant=variant, eq2_form=eq2_form, **spec.params)
    row.update(summary.to_json_dict())
    del row["means"]
    for e in entries:
        d = e.to_json_dict()
        row[f"{e.method}_log"] = d["log_value"]
        row[f"{e.method}_linear"] = d["value"]
        row[f"{e.method}_vacuous"] = d["vacuous"]
        if e.method == "lv-optimal":
            row["lv-optimal_t"] = d["t"]
    tight = bounds_mod.tightest_upper(entries)
    row["tightest_method"] = None if tight is None else tight.method
    row["oracle_log"], row["oracle_linear"] = json_log_linear(oracle)
    if mc is not None:
        row["mc_estimate"], row["mc_trials"], row["mc_seed"] = mc.estimate, mc.trials, mc.seed
        row["mc_ci_lower"], row["mc_ci_upper"] = mc.ci.lower, mc.ci.upper
    return row


def _parse_sweep(text: str) -> tuple[str, list[float]]:
    """Grammar: param=start:stop:count[:geom|:linear], with 1 <= count <=
    MAX_SWEEP_POINTS, refused before the grid is built."""
    if "=" not in text:
        raise ValueError(f"bad sweep {text!r}; expected param=start:stop:count[:geom]")
    name, _, grid_text = text.partition("=")
    parts = grid_text.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(f"bad sweep grid {grid_text!r}; expected start:stop:count[:geom]")
    mode = parts[3] if len(parts) == 4 else "linear"
    if mode not in ("geom", "linear"):
        raise ValueError(f"sweep mode must be 'geom' or 'linear', got {mode!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValueError(f"bad sweep grid {grid_text!r}: {exc}") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"bad sweep grid {grid_text!r}: endpoints must be finite")
    if count < 1:
        raise ValueError(f"sweep needs at least one grid point, got count={count}")
    if count > MAX_SWEEP_POINTS:
        raise ValueError(f"sweep takes at most {MAX_SWEEP_POINTS} grid points, got count={count}")
    if mode == "geom":
        if start <= 0 or stop <= 0:
            raise ValueError("geometric sweeps require positive endpoints")
        values = list(np.geomspace(start, stop, count))
    else:
        values = list(np.linspace(start, stop, count))
    return name.strip(), [float(v) for v in values]


def cmd_compare(args: argparse.Namespace) -> int:
    oracles.check_run(args.trials, args.level, args.seed)  # read with --mc, refused anyway
    if args.sweep is None:
        raise ValueError("--sweep param=start:stop:count[:geom] is required")
    param, grid = _parse_sweep(args.sweep)
    if param not in _PARAMS:
        raise ValueError(f"cannot sweep unknown parameter {param!r}")

    if _PARAMS[param] is int:
        # each distinct rounded value once, in grid order
        grid = [float(v) for v in dict.fromkeys(round(v) for v in grid)]

    variants = _variants(args, allow_both=True)
    t, log_t = _parse_t(args.t)

    rows: list[dict[str, Any]] = []
    for value in grid:
        cast = round(value) if _PARAMS[param] is int else value
        # each point is validated on its own; violations name the bad values
        spec = _spec_from_args(argparse.Namespace(**{**vars(args), param: cast}))
        summaries = [models.summary_for(spec, variant=v) for v in variants]
        # before the oracle and the trials, so evaluate_all refuses a bad
        # --t or --eq2-form before either runs; once per distinct summary,
        # since hypergraph-cover's ignores the variant
        evaluated = {
            s: bounds_mod.evaluate_all(s, t=t, log_t=log_t, eq2_form=args.eq2_form)
            for s in dict.fromkeys(summaries)
        }
        # the truth depends on the spec alone, not on the formula variant
        oracle = oracles.oracle_for(spec) if args.oracle else None
        mc = (
            oracles.monte_carlo(spec, args.trials, seed=args.seed, level=args.level)
            if args.mc
            else None
        )
        for variant, summary in zip(variants, summaries):
            rows.append(
                _row(spec, variant, args.eq2_form, summary, evaluated[summary], oracle, mc)
            )

    if args.format == "csv":
        sys.stdout.write(render_csv(rows))
    else:
        _emit({"sweep": {"param": param, "grid": grid}, "rows": rows})
    return EXIT_OK


def render_csv(rows: list[dict[str, Any]]) -> str:
    """CSV with the fixed documented header.  The writer writes None as an
    empty field and a float as its repr, so every value round-trips to the
    exact double; booleans are written true and false."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(str(v).lower() if isinstance(v, bool) else v for v in row.values())
    return buf.getvalue()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args: argparse.Namespace) -> int:
    oracles.check_run(args.trials, args.level, args.seed)  # read without an exact oracle
    spec = _spec_from_args(args)
    (variant,) = _variants(args)
    summary = models.summary_for(spec, variant=variant)
    entries = bounds_mod.evaluate_all(summary, eq2_form=args.eq2_form)

    low, high, reference = oracles.reference_for(
        spec, args.trials if args.mc else None, seed=args.seed, level=args.level
    )

    checks = []
    for e in entries:
        if isinstance(e, bounds_mod.SkippedBound):
            checks.append(
                {"method": e.method, "status": "skipped", "reason": e.reason}
            )
            continue
        # in log domain, so the check still separates values below 1e-9 or near 1
        lower, v = e.method not in bounds_mod.UPPER_METHODS, e.value.log_value
        ok = not log_exceeds(v, high) if lower else e.vacuous or not log_exceeds(low, v)
        linear = e.value.linear
        check = {
            "method": e.method,
            "status": "pass" if ok else "fail",
            "direction": "lower" if lower else "upper",
            "bound": None if linear == math.inf else linear,  # "vacuous" says >= 1
        }
        if not lower:
            check["vacuous"] = e.vacuous
        checks.append(check)
    passed = all(c["status"] != "fail" for c in checks)

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
        raise ValueError(f"m must be in [1, 10] (2^m enumeration), got {args.m}")
    if args.count < 1:
        raise ValueError(f"count must be >= 1, got {args.count}")
    oracles.check_seed(args.seed)

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
        elif not holds:  # a gap beyond the slack over a zero or negative bound
            worst_ratio = float("inf")
    _emit(
        {
            "m": args.m,
            "t": args.t,
            "count": args.count,
            "seed": args.seed,
            "max_gap_over_bound": None if worst_ratio == math.inf else worst_ratio,
            "violations": violations,
            "passed": violations == 0,
        }
    )
    return EXIT_OK if violations == 0 else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="assocbounds",
        description=(
            "Evaluate, optimize, and validate exponential upper bounds on "
            "P(X=0) for sums of positively associated indicators."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags shared by several commands, each declared once.  A shared action
    # is one object in every command that has it, so set_defaults on one
    # command would change its default in all of them.
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--model", choices=sorted(_MODEL_NAMES), help="built-in family")
    for name, cast in _PARAMS.items():
        users = [m for m, family in models.FAMILIES.items() if name in family.params]
        model.add_argument(
            "--" + name.replace("_", "-"),
            dest=name,
            type=cast,
            help=f"{name} for {'/'.join(users)}",
        )
    formulas = argparse.ArgumentParser(add_help=False)
    formulas.add_argument(
        "--variant",
        choices=list(_VARIANTS),
        default="first-principles",
        help="formula variant for model summaries",
    )
    formulas.add_argument(
        "--eq2-form",
        choices=bounds_mod.EQ2_FORMS,
        default="printed",
        help="ratio-form bound: as printed in its source, or the literature form",
    )
    t_override = argparse.ArgumentParser(add_help=False)
    t_override.add_argument("--t", help="t override: positive real or log:<real>")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=oracles.DEFAULT_SEED)
    trials = argparse.ArgumentParser(add_help=False)
    trials.add_argument("--trials", type=int, default=100_000)

    p_bound = sub.add_parser(
        "bound", parents=[model, formulas, t_override],
        help="evaluate every bound on one instance",
    )
    p_bound.add_argument("--summary", help="raw FamilySummary JSON instead of --model")
    p_bound.set_defaults(func=cmd_bound)

    p_cmp = sub.add_parser(
        "compare", parents=[model, formulas, t_override, trials, seed],
        help="sweep one parameter, emit a table",
    )
    p_cmp.add_argument("--sweep", help="param=start:stop:count[:geom]")
    p_cmp.add_argument("--oracle", action="store_true", help="attach exact values")
    p_cmp.add_argument("--mc", action="store_true", help="attach Monte Carlo estimates")
    p_cmp.add_argument("--level", type=float, default=0.95)
    p_cmp.add_argument("--format", choices=["json", "csv"], default="json")
    p_cmp.set_defaults(func=cmd_compare)

    p_ver = sub.add_parser(
        "verify", parents=[model, formulas, trials, seed],
        help="check bounds against exact truth or MC",
    )
    p_ver.add_argument("--mc", action="store_true", help="fall back to Monte Carlo")
    p_ver.add_argument("--level", type=float, default=0.99)
    p_ver.set_defaults(func=cmd_verify)

    p_mc = sub.add_parser(
        "mc", parents=[model, trials, seed], help="Monte Carlo estimate of P(Z=0)"
    )
    p_mc.add_argument("--level", type=float, default=0.95)
    p_mc.add_argument("--workers", type=int, default=1)
    p_mc.set_defaults(func=cmd_mc)

    p_lem = sub.add_parser(
        "lemma-check", parents=[seed],
        help="verify the MGF gap bound on random monotone joint laws",
    )
    p_lem.add_argument("--m", type=int, default=4, help="number of variables (<= 10)")
    p_lem.add_argument("--t", type=float, default=0.5)
    p_lem.add_argument("--count", type=int, default=100)
    p_lem.set_defaults(func=cmd_lemma_check)

    return parser


# Building the parser costs more than most commands; parse_args keeps no
# state in it, so one parser serves every main call in a process.
_parser = functools.cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
