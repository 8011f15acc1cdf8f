"""Mutant runner: every gate must be able to fail.

A mutant is one edit of a file under ``src/``: an old string that occurs
exactly once in that file, the string that replaces it, and the pytest node
ids that must catch it.  For each mutant the runner copies ``src/`` to a
temporary directory, applies the edit and runs only the named tests against
the copy; they must fail (pytest exit 1).  First, the unmutated copy must
pass the union of the named tests.  Each run checks that ``assocbounds``
imports from its copy, not from an installed package.

Uses only the standard library and pytest, and runs one pytest process at a
time.  From the repository root:

    python tools/mutants.py

It prints one line per mutant and exits 1 naming every surviving mutant (a
mutant whose old string does not occur exactly once counts as surviving),
or 0 when all are killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]


CLI, MODELS = "assocbounds/cli.py", "assocbounds/models.py"
NUMERICS, ORACLES = "assocbounds/numerics.py", "assocbounds/oracles.py"
VERIFY = "tests/test_cli.py::TestVerifyCommand::"
VERIFY_MC = "tests/test_cli.py::TestVerifyMonteCarlo::"
REFERENCE = "tests/test_oracles.py::TestReferenceFor::"
LEMMA_NULL = "tests/test_cli.py::TestLemmaCheckCommand::test_violation_fails_and_prints_null"
SPEC_READERS = (
    "tests/test_models.py::test_invalid_spec_refused_with_its_violations",
    "tests/test_family.py::TestModelSpec::test_foreign_parameters_reported",
    "tests/test_cli.py::TestBoundCommand::test_foreign_parameter_exits_two",
)
COVER_TABLE = "tests/test_models.py::TestCoverTable::test_table_equals_draw_by_draw"
PAIR_SUMS = "tests/test_models.py::test_pair_sums_match_a_100_digit_reference"
NEAR_ONE = "tests/test_models.py::test_cov_sum_near_one_matches_a_100_digit_reference"
SEARCH = "tests/test_numerics.py::TestMinimizeScalar::"
LV_OPTIMAL = "tests/test_bounds.py::TestLvOptimal::"
RATIO_SQUARE = ("tests/test_bounds.py::TestJansonRatio::"
                "test_square_beyond_the_double_range_matches_the_exact_ratio")
BOUNDS, FAMILY = "assocbounds/bounds.py", "assocbounds/family.py"
TILTED = "tests/test_bounds.py::TestTiltedProductPrecision::"
SLOPE_SUMS = TILTED + "test_slope_sums_match_a_60_digit_reference"
SLOPE_REF = LV_OPTIMAL + "test_h_and_its_slope_match_a_50_digit_reference"
AT_INFINITY = ("tests/test_bounds.py::TestIndependentLower::"
               "test_the_product_is_taken_at_infinite_t")
ONE_BIND = "tests/test_bounds.py::TestEvaluateAll::test_a_summary_binds_its_means_once"
COPIES = ("tests/test_family.py::TestDerivedFields::"
          "test_an_evaluated_summary_copies_as_a_fresh_one")
GATE_FIELDS = "tests/test_family.py::TestConstructorGate::test_non_number_field_refused"
RUNS_REGION = "tests/test_family.py::TestModelSpec::test_runs_parameter_region"
T_NAMED = "tests/test_bounds.py::TestLvBounds::test_non_number_t_refused_by_name"
RUN_OPTIONS = ("tests/test_models.py::TestSampling::"
               "test_fraction_or_boolean_option_refused_before_any_trial")
RUN_OPTIONS_READ = "tests/test_models.py::TestSampling::test_integral_options_run_as_their_ints"
NON_NUMBER = ("tests/test_family.py::TestJsonInterchange::test_non_number_field_refused",
              "tests/test_cli.py::TestBoundCommand::test_non_number_field_exits_two_naming_it")

MUTANTS = [
    # the reference: the oracle's point, else the Monte Carlo interval's ends
    Mutant("reference: oracle never above an upper bound", ORACLES,
           "Reference(oracle.log_value, oracle.log_value,",
           "Reference(-math.inf, oracle.log_value,",
           (VERIFY + "test_upper_bound_below_tiny_truth_fails",)),
    Mutant("reference: oracle never below a lower bound", ORACLES,
           "Reference(oracle.log_value, oracle.log_value,",
           "Reference(oracle.log_value, math.inf,",
           (VERIFY + "test_product_above_truth_near_one_fails",
            VERIFY + "test_hypergraph_small_draws_reports_lower_bound_failure")),
    Mutant("reference: Monte Carlo lower end read as 0", ORACLES,
           "for x in (mc.ci.lower, mc.ci.upper)", "for x in (0.0, mc.ci.upper)",
           (VERIFY_MC + "test_upper_bound_at_the_lower_end",)),
    Mutant("reference: Monte Carlo upper end read as 1", ORACLES,
           "for x in (mc.ci.lower, mc.ci.upper)", "for x in (mc.ci.lower, 1.0)",
           (VERIFY_MC + "test_lower_bound_at_the_upper_end",)),
    Mutant("reference: Monte Carlo ends swapped", ORACLES,
           "for x in (mc.ci.lower, mc.ci.upper)", "for x in (mc.ci.upper, mc.ci.lower)",
           (REFERENCE + "test_no_successes_give_a_lower_end_of_minus_infinity",
            VERIFY_MC + "test_upper_bound_at_the_lower_end")),
    Mutant("reference: Monte Carlo in place of the oracle when trials are given", ORACLES,
           "    if oracle is not None:\n        return Reference(",
           "    if oracle is not None and trials is None:\n        return Reference(",
           (REFERENCE + "test_trials_at_an_exact_size_draw_none",)),
    Mutant("reference: a lower end of 0 has no log", ORACLES,
           "LogProb.from_linear(x).log_value", "math.log(x)",
           (VERIFY_MC + "test_no_successes_pass_every_upper_bound",
            REFERENCE + "test_no_successes_give_a_lower_end_of_minus_infinity")),
    # verify: one verdict over the log interval [low, high], in both
    # directions, for both kinds of reference
    Mutant("verify: ends swapped", CLI,
           "not log_exceeds(v, high) if lower else e.vacuous or not log_exceeds(low, v)",
           "not log_exceeds(v, low) if lower else e.vacuous or not log_exceeds(high, v)",
           (VERIFY_MC + "test_upper_bound_at_the_lower_end",
            VERIFY_MC + "test_lower_bound_at_the_upper_end")),
    Mutant("verify: upper verdict without the tolerance", CLI,
           "e.vacuous or not log_exceeds(low, v)", "e.vacuous or not low > v",
           (VERIFY_MC + "test_upper_bound_at_the_lower_end",)),
    Mutant("verify: lower verdict without the tolerance", CLI,
           "not log_exceeds(v, high) if lower", "not v > high if lower",
           (VERIFY_MC + "test_lower_bound_at_the_upper_end",)),
    # stdout is JSON: null where a value is not finite
    Mutant("verify: an infinite bound printed", CLI,
           '"bound": None if linear == math.inf else linear,', '"bound": linear,',
           (VERIFY + "test_vacuous_bound_beyond_the_double_range_prints_null",
            "tests/test_cli_golden.py::test_output_matches_the_recorded_one[46-verify]")),
    Mutant("lemma-check: an infinite ratio printed", CLI,
           "None if worst_ratio == math.inf else worst_ratio", "worst_ratio",
           (LEMMA_NULL,)),
    # a parameter the family does not take
    Mutant("bind: foreign parameter taken", MODELS,
           "    if foreign:\n", "    if False:\n", SPEC_READERS),
    # a one-point geometric sweep obeys the positive-endpoint rule
    Mutant("sweep: one geometric point skips the endpoint rule", CLI,
           '    if mode == "geom":\n', '    if mode == "geom" and count > 1:\n',
           ("tests/test_cli.py::TestCompareCommand::test_sweep_grammar_errors_exit_two",)),
    Mutant("interval: contains everything", "assocbounds/numerics.py",
           "return self.lower <= x <= self.upper", "return True",
           ("tests/test_oracles.py::TestMonteCarlo::test_inconsistent_estimate_rejected",)),
    # gates that no test had shown to fail
    Mutant("--t: one message for both forms", CLI,
           "f\"bad {'log-form t' if log_form else 't'} {text!r}: {exc}\"",
           'f"bad t {text!r}: {exc}"',
           ("tests/test_cli.py::TestCompareCommand::test_bad_option_exits_two_before_any_trial",)),
    Mutant("--t: float's error not caught", CLI,
           "    except ValueError as exc:\n        raise ValueError(f\"bad {'log-form t'",
           "    except TypeError as exc:\n        raise ValueError(f\"bad {'log-form t'",
           ("tests/test_cli.py::TestCompareCommand::test_bad_option_exits_two_before_any_trial",)),
    Mutant("lemma-check: violations not counted", CLI,
           "violations += 1", "violations += 0", (LEMMA_NULL,)),
    Mutant("lemma-check: exit 0 on a violation", CLI,
           "return EXIT_OK if violations == 0 else EXIT_VERIFY_FAIL", "return EXIT_OK",
           (LEMMA_NULL,)),
    Mutant("validate: count 0 taken", "assocbounds/family.py",
           "if s.count < 1:", "if s.count < 0:",
           ("tests/test_cli.py::TestBoundCommand::test_summary_validate_refusals_exit_two",)),
    Mutant("validate: negative delta taken", "assocbounds/family.py",
           "if s.delta < 0:", "if s.delta < -1:",
           ("tests/test_cli.py::TestBoundCommand::test_summary_validate_refusals_exit_two",)),
    Mutant("triangles: p outside [0, 1] taken", MODELS,
           'v.append(f"triangles requires p in [0, 1], got p={p}")', "pass",
           ("tests/test_family.py::TestModelSpec::test_remaining_models",)),
    Mutant("ustat: p outside [0, 1] taken", MODELS,
           'v.append(f"ustat requires p in [0, 1], got p={p}")', "pass",
           ("tests/test_family.py::TestModelSpec::test_remaining_models",)),
    Mutant("ustat_zero_exact: no shortcut at p = 0", MODELS,
           "    if p == 0.0:\n        return LogProb(0.0)",
           "    if False:\n        return LogProb(0.0)",
           ("tests/test_oracles.py::TestUstatZeroExact::test_no_success_is_log_zero_exactly",)),
    Mutant("clopper_pearson: successes outside [0, trials] taken", "assocbounds/numerics.py",
           "if not 0 <= successes <= trials:", "if False:",
           ("tests/test_numerics.py::TestClopperPearson::test_successes_outside_the_trials_rejected",)),
    Mutant("random_monotone_joint: 17 variables taken", ORACLES,
           "not 1 <= n_vars <= 16", "not 1 <= n_vars <= 17",
           ("tests/test_oracles.py::TestMgfGapCheck::test_random_law_size_outside_the_range_rejected",)),
    Mutant("random_monotone_joint: 13 bits taken", ORACLES,
           "not 1 <= n_bits <= 12", "not 1 <= n_bits <= 13",
           ("tests/test_oracles.py::TestMgfGapCheck::test_random_law_size_outside_the_range_rejected",)),
    # the one rule that forms delta and cov_sum from a family's pair classes
    Mutant("summary: printed covariance rule flipped", MODELS,
           "    if printed:\n        return m, joint, joint",
           "    if not printed:\n        return m, joint, joint",
           (PAIR_SUMS,
            "tests/test_models.py::TestRunsSummary::test_printed_formula_frozen_example")),
    Mutant("summary: covariance exponent 2k - 1", MODELS,
           "-math.expm1((2 * k - e) * math.log(p))",
           "-math.expm1((2 * k - 1 - e) * math.log(p))",
           (PAIR_SUMS,)),
    Mutant("summary: covariance written back as a difference", MODELS,
           "joint * -math.expm1((2 * k - e) * math.log(p)) if p > 0.0 else 0.0",
           "joint - p ** (2 * k)",
           (NEAR_ONE,)),
    Mutant("summary: scale dropped from cov_sum", MODELS,
           "cov = scale * math.fsum(", "cov = math.fsum(", (PAIR_SUMS,)),
    Mutant("ustat: overlap choice C(k, j - 1)", MODELS,
           "(1 if printed else comb(k, j))", "(1 if printed else comb(k, j - 1))", (PAIR_SUMS,)),
    Mutant("hypergraph: classes read the variant", MODELS,
           "(count * (N - 2), q_s, _pair_cov(b_s, a, n_draws)),",
           "(count * (N - 2), q_s, q_s if printed else _pair_cov(b_s, a, n_draws)),",
           ("tests/test_models.py::test_hypergraph_summary_is_the_same_in_both_variants",)),
    # janson-ratio divides first where a square leaves the double range
    Mutant("janson-ratio: standard form squares lambda", "assocbounds/bounds.py",
           "else -(lam / delta_bar) * lam", "else -(lam * lam) / delta_bar",
           (RATIO_SQUARE,
            "tests/test_cli.py::TestBoundCommand::"
            "test_ratio_bound_over_an_infinite_delta_bar_is_vacuous",
            "tests/test_cli_golden.py::test_output_matches_the_recorded_one[47-verify]")),
    Mutant("janson-ratio: printed form squares delta_bar", "assocbounds/bounds.py",
           "-(lam / delta_bar) / delta_bar if printed", "-lam / square if printed", (RATIO_SQUARE,)),
    # lv-optimal's search: the sign of h certifies an end, and Newton steps
    # in ln t stop at 1e-9
    Mutant("minimize_scalar: left end certificate with its sign flipped", NUMERICS,
           "if h_lo >= 0.0:", "if h_lo <= 0.0:",
           (SEARCH + "test_minimum_at_an_end_is_that_end_exactly",
            LV_OPTIMAL + "test_an_end_is_returned_exactly_when_the_sign_of_h_certifies_it")),
    Mutant("minimize_scalar: right end certificate with its sign flipped", NUMERICS,
           "if h_hi <= 0.0:", "if h_hi >= 0.0:",
           (SEARCH + "test_minimum_at_an_end_is_that_end_exactly",
            LV_OPTIMAL + "test_an_end_is_returned_exactly_when_the_sign_of_h_certifies_it")),
    Mutant("minimize_scalar: Newton tolerance 1e-3", NUMERICS,
           "_LOG_T_TOLERANCE = 1e-9", "_LOG_T_TOLERANCE = 1e-3",
           (SEARCH + "test_searches_the_whole_range_by_newton_and_bisection",
            LV_OPTIMAL + "test_at_or_below_a_golden_section_search")),
    # the tilted product's bind and terms, and lv-optimal's objective over them
    Mutant("lv objective: sign of ln R1 flipped", BOUNDS,
           "- log_p - math.log(r1),", "- log_p + math.log(r1),",
           (SLOPE_REF, LV_OPTIMAL + "test_at_or_below_a_golden_section_search")),
    Mutant("lv objective: R2 dropped from dh/du", BOUNDS,
           "t * (r1 - r2 / r1)", "t * r1", (SLOPE_REF,)),
    Mutant("tilted product: certain means left out of R1", FAMILY,
           "e * float(q.sum()) + n_certain,", "e * float(q.sum()),", (SLOPE_SUMS,)),
    Mutant("tilted product: near-one threshold -1 (shared mean)", FAMILY,
           "near_one = x < -0.5\n            f = ", "near_one = x < -1.0\n            f = ",
           (TILTED + "test_near_one_means_at_large_t",
            "tests/test_cli_golden.py::test_output_matches_the_recorded_one[48-bound]")),
    Mutant("tilted product: subnormal threshold 0 (shared mean)", FAMILY,
           "if -x < tiny:", "if -x < 0.0:",
           (TILTED + "test_subnormal_terms",)),
    Mutant("tilted product: near-one threshold -1 (several means)", FAMILY,
           "near_one = x < -0.5\n            p = ", "near_one = x < -1.0\n            p = ",
           (SLOPE_SUMS,)),
    Mutant("tilted product: P(inf) taken at t = 50 (shared mean)", FAMILY,
           "return weight * ((math.log1p(-p) if p < 1.0 else -math.inf) + 0.0), terms",
           "return terms(50.0)[0], terms", (AT_INFINITY,)),
    Mutant("tilted product: P(inf) taken at t = 50 (several means)", FAMILY,
           "return (-math.inf if n_certain else float(np.sum(np.log1p(-uncertain)))), terms",
           "return terms(50.0)[0], terms", (AT_INFINITY,)),
    Mutant("tilted product: bound on every read", FAMILY,
           "    @cached_property\n", "    @property\n", (ONE_BIND,)),
    Mutant("__reduce__: cov_sum lost", FAMILY,
           "self.delta, self.cov_sum)", "self.delta, 0.0)", (COPIES,)),
    Mutant("lv-iid: the factor's log through log1p near one", BOUNDS,
           "if factor < 0.5 else", "if factor < 0.0 else",
           ("tests/test_bounds.py::TestLvBounds::test_iid_matches_general_near_one_at_large_t",)),
    # a boolean is not a number, in JSON or from a library caller
    Mutant("constructor: boolean means read as numbers", FAMILY,
           "if bool in set(map(type, raw)):", "if False:", NON_NUMBER + (GATE_FIELDS,)),
    Mutant("from_json_dict: boolean restated sums read as numbers", FAMILY,
           "(as_float(k, d[k]) for k in", "(float(d[k]) for k in", NON_NUMBER),
    Mutant("as_float: a boolean read as a number", NUMERICS,
           "if not isinstance(x, bool):  # float() reads True as 1.0", "if True:  #",
           NON_NUMBER + (GATE_FIELDS, RUNS_REGION, T_NAMED)),
    Mutant("as_int: a boolean read as a number", NUMERICS,
           "n is None or isinstance(x, bool) or", "n is None or",
           ("tests/test_family.py::TestConstructorGate::test_boolean_count_refused",
            RUNS_REGION, RUN_OPTIONS)),
    # a fraction is not an integer
    Mutant("as_int: a fraction truncated", NUMERICS,
           " or not isinstance(x, str) and n != x:", ":",
           ("tests/test_family.py::TestConstructorGate::test_fractional_count_refused",
            RUNS_REGION, RUN_OPTIONS)),
    # and a string that is not one is refused under the field's name
    Mutant("constructor: a string mean refused by float's message", FAMILY,
           'except (TypeError, ValueError, OverflowError):  # None, a list, "x"',
           "except (TypeError, OverflowError):  #", NON_NUMBER + (GATE_FIELDS,)),
    Mutant("as_float: a string refused by float's message", NUMERICS,
           "        except (TypeError, ValueError):\n            pass",
           "        except TypeError:\n            pass", NON_NUMBER + (GATE_FIELDS,)),
    Mutant("as_int: a string refused by int's message", NUMERICS,
           "    except (TypeError, ValueError):\n        n = None",
           "    except TypeError:\n        n = None", NON_NUMBER),
    # the run options and t are used as read
    Mutant("monte_carlo: the unread seed used", ORACLES,
           "trials, level, seed, workers = check_run(", "trials, level, _, workers = check_run(",
           (RUN_OPTIONS_READ,)),
    # the samplers under the Philox stream contract
    Mutant("_word_limit: off by one", MODELS,
           "return (math.ceil(p * 2**53) << 11) - 1", "return math.ceil(p * 2**53) << 11",
           ("tests/test_models.py::TestPhiloxWords::test_limit_mask_equals_numpy_doubles",)),
    Mutant("_choices: reads w >> 12", MODELS,
           "scaled = (w >> 11).view(np.int64)", "scaled = (w >> 12).view(np.int64)",
           ("tests/test_models.py::TestPhiloxWords::test_choices_match_the_doubles",)),
    # covered trials drop out of the table sampler's later steps
    Mutant("_hyper_sample: marks the uncovered rows done", MODELS,
           "out[live[done]] = True", "out[live[~done]] = True", (COVER_TABLE,)),
    Mutant("_hyper_sample: compacts covered but not live", MODELS,
           "live, covered, done = live[~done],", "live, covered, done = live,", (COVER_TABLE,)),
    Mutant("_hyper_sample: drops the rows still live at the end", MODELS,
           "    out[live] = done\n", "", (COVER_TABLE,)),
    Mutant("_hyper_sample: done skips the second mask word", MODELS,
           "for j in range(1, len(full)):", "for j in range(2, len(full)):", (COVER_TABLE,)),
    Mutant("_hyper_sample: Horner radix N - j - 1", MODELS,
           "code = code * (N - j) + choice[..., j]",
           "code = code * (N - j - 1) + choice[..., j]", (COVER_TABLE,)),
    Mutant("_cover_table: writes word e >> 7", MODELS,
           "table[rows, e >> 6]", "table[rows, e >> 7]", (COVER_TABLE,)),
    Mutant("_run_halves: wraps modulo len(i) - 1", MODELS,
           "(i + k - m) % len(i)])", "(i + k - m) % (len(i) - 1)])",
           ("tests/test_models.py::TestNoneAllOnes::test_matches_a_per_row_reference",)),
    Mutant("_ustat_sample: counts hits in uint8", MODELS,
           "dtype=np.min_scalar_type(n))", "dtype=np.uint8)",
           ("tests/test_models.py::TestPhiloxWords::test_ustat_counts_match_the_doubles[300-280-0.93]",)),
    # cache-sized Monte Carlo batches
    Mutant("_batch_rows: no row floor", ORACLES,
           "min(_MIN_ROWS, _MAX_BATCH_WORDS // budget), 1)", "1)",
           ("tests/test_oracles.py::TestMonteCarlo::test_batch_rows",)),
    Mutant("_BATCH_WORDS: 4,000,000 words again", ORACLES,
           "_BATCH_WORDS = 1 << 19", "_BATCH_WORDS = 4_000_000",
           ("tests/test_oracles.py::TestMonteCarlo::test_batches_stay_cache_sized",)),
]


WRONG_COPY = 99  # an exit code pytest does not use

# Run in each pytest process: refuse to test a package other than the copy.
# find_spec locates the package without running it, so a mutant that breaks
# the import fails in pytest's collection (exit 2), not here.
_CHILD = """
import importlib.util
import sys
from pathlib import Path

import pytest

src = Path(sys.argv[1])
origin = importlib.util.find_spec("assocbounds").origin
if Path(origin).resolve().parent != src / "assocbounds":
    sys.stderr.write(f"assocbounds resolves to {origin}, not to the copy in {src}\\n")
    sys.exit(%d)
sys.exit(pytest.main(sys.argv[2:]))
""" % WRONG_COPY


def copy_src(tmp: str) -> Path:
    src = Path(tmp).resolve() / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def run_tests(src: Path, tests: list[str] | tuple[str, ...]) -> tuple[int, str]:
    """pytest's exit code over ``tests`` against the copy at ``src``, and
    the tail of its output.  pytest runs in the copy's directory, so what
    the run writes there (hypothesis's example database among it) goes
    with the copy, not into the repository."""
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(src), "-q", "-x", "-p", "no:cacheprovider",
         "--rootdir", str(ROOT), "-c", str(ROOT / "pyproject.toml"),
         *(f"{ROOT}/{t}" for t in tests)],
        cwd=src.parent,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    tail = "\n".join((proc.stdout + proc.stderr).strip().splitlines()[-5:])
    return proc.returncode, tail


def verdict(m: Mutant) -> str:
    """"killed" when the named tests fail against the mutated copy, else
    why the mutant survives."""
    with tempfile.TemporaryDirectory() as tmp:
        src = copy_src(tmp)
        path = src / m.file
        text = path.read_text()
        found = text.count(m.old)
        if found != 1:
            return f"old string occurs {found} times in {m.file}"
        path.write_text(text.replace(m.old, m.new))
        code, tail = run_tests(src, m.tests)
    return "killed" if code == 1 else f"pytest exit {code}, expected 1\n{tail}"


def main() -> int:
    started = time.perf_counter()
    union = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    with tempfile.TemporaryDirectory() as tmp:
        code, tail = run_tests(copy_src(tmp), union)
    if code != 0:
        print(f"unmutated copy: pytest exit {code} over {len(union)} node ids, expected 0")
        print(tail)
        return 1
    print(f"unmutated copy passes {len(union)} node ids")

    survivors = []
    for m in MUTANTS:
        result = verdict(m)
        print(f"{m.name}: {result if result == 'killed' else 'SURVIVED: ' + result}", flush=True)
        if result != "killed":
            survivors.append(m.name)

    elapsed = time.perf_counter() - started
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed in {elapsed:.0f} s")
    if survivors:
        print("surviving mutants:\n  " + "\n  ".join(survivors))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
