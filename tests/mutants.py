"""Mutation runner:  python tests/mutants.py

A row of MUTANTS is (name, file in src/trapcert, exact old text, new text,
tests that must fail); a test is a test function or a whole test file.
Each mutant is applied to a copy of src/ in a temporary directory, and its
tests run with PYTHONPATH on that copy (child-interpreter tests follow it);
it is killed when every test it names fails.  A row of KNOWN_SURVIVORS adds
the reason no test can kill it, and every test it names must pass on it.
The tests must pass on the unmutated copy first.  Exits 0 when every
mutant is killed and every known survivor survives, 1 otherwise, 2 when
the table does not apply.  Standard library and pytest only; tier-1 checks
the table alone.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MUTANTS = [
    ("floor-rationalized-root", "certify.py",
     "2.0 * s / (1.0 + np.sqrt(1.0 + disc))", "s / (1.0 + np.sqrt(1.0 + disc))",
     ("tests/test_certify.py::test_resolvent_lower_quoted_literals",
      "tests/test_certify.py::test_resolvent_lower_equals_the_oracle",
      "tests/test_acceptance.py::test_criterion_06_resolvent_round_trip")),
    ("resonance-tolerance", "certify.py",
     "k * ell - root) > 1e-12 * root", "k * ell - root) > 1e-6 * root",
     ("tests/test_certify.py::test_certify_gates_a_resonant_box_as_the_oracle",)),
    ("aperture-edge", "geometry.py",
     "gap[1] < 1.0", "gap[1] <= 1.0",
     ("tests/test_geometry.py::test_boxes_name_the_first_tampered_box_outside_the_domain",)),
    ("index-floor-zero", "geometry.py",
     "j[0] >= 1 and", "j[0] >= 0 and",
     ("tests/test_geometry.py::test_boxes_refuse_arrangements_outside_the_invariant",
      "tests/test_geometry.py::test_boxes_name_the_first_index_outside_the_range")),
    ("floor-overflow-branch", "certify.py",
     "c_prime / (math.sqrt(2.0) * k)", "c_prime / (2.0 * k)",
     ("tests/test_certify.py::test_resolvent_lower_round_trip_where_the_product_overflows",
      "tests/test_certify.py::test_resolvent_lower_equals_the_oracle")),
    ("half-integer-derivative-order", "specfun.py",
     "gh = _c_prod((big_m + 0.5) / t", "gh = _c_prod((big_m - 0.5) / t",
     ("tests/test_specfun.py::test_half_integer_closed_form_equals_the_scalar_oracle",
      "tests/test_specfun.py::test_closed_form_in_dimension_5_equals_the_scalar_oracle")),
    ("hankel-pairs-derivative-sign", "specfun.py",
     "_plain((jpm - pp * jm / t) * tp_m", "_plain((jpm + pp * jm / t) * tp_m",
     ("tests/test_dtnverify.py::test_b_m_two_routes_agree_odd_dimensions",
      "tests/test_acceptance.py::test_criterion_09_exact_boundary_cases")),
    ("spherical-order-shifted", "specfun.py",
     "nu = m + 0.5 * n - 1.0", "nu = m + 0.5 * n - 0.5",
     ("tests/test_specfun.py::test_spherical_frozen_references",)),
    ("a-family-drops-4t-over-pi", "dtnverify.py",
     "rho * rho * (jpt * jpt + ypm * ypm), -a3), inv2ey)",
     "rho * rho * (jpt * jpt + ypm * ypm)), inv2ey)",
     ("tests/test_dtnverify.py::test_sweep_records_match_scalar_routes",
      "tests/test_dtnverify.py::test_sweep_equals_per_radius_reference")),
    ("stacking-non-strict", "geometry.py",
     "~(g.min_distance > 0.0)", "~(g.min_distance >= 0.0)",
     ("tests/test_geometry.py::test_stacked_column_with_one_touching_pair",)),
    ("connectivity-stacking-non-strict", "geometry.py",
     "stacked = rows.min_distance > 0.0", "stacked = rows.min_distance >= 0.0",
     ("tests/test_geometry.py::test_connectivity_fails_on_a_touching_column",)),
    ("stacking-gate-dropped", "geometry.py",
     "        if flat.size:", "        if False:",
     ("tests/test_geometry.py::test_interleaved_levels_fail_below_any_floor",)),
    ("stacking-adjacent-only", "geometry.py",
     "gap = np.minimum.accumulate(h)[:-1] - top", "gap = h[:-1] - top",
     ("tests/test_geometry.py::test_inverted_box_does_not_hide_an_overlap",)),
    ("seeds-read-in-sorted-order", "specfun.py",
     'np.argsort(use, kind="stable")[where.ravel()], first[use]',
     "where.ravel(), first[use]",
     ("tests/test_specfun.py::test_scaled_entries_with_shared_seeds_equal_one_point_calls",)),
    ("seeds-run-in-sorted-order", "specfun.py",
     'use = np.argsort(first, kind="stable")', "use = np.arange(first.size)",
     ("tests/test_specfun.py::test_seed_stall_names_the_callers_first_point",)),
    ("floor-rounding-dropped", "geometry.py",
     "~(g.required - g.min_distance <= g.rounding)", "~(g.required - g.min_distance <= 0.0)",
     ("tests/test_geometry.py::test_stacked_floor_allows_the_rounding_of_the_placement",)),
    ("height-fold-reassociated", "geometry.py",
     "fold[1:-1] = np.column_stack((sides[1:], pads[:m - 1])).ravel()",
     "fold[1:-1:2] = sides[1:] + pads[:m - 1]",
     ("tests/test_schedule_columns.py::test_layer_plans_equal_the_level_loop",)),
    ("stack-stops-at-the-padding-table", "geometry.py",
     "min(k_end, d_end + 1,", "min(k_end, d_end,",
     ("tests/test_geometry.py::test_stacked_limit_uses_full_tables",)),
    ("sign-check-passes-nan", "dtnverify.py",
     "~(value <= _SIGN_TOL * bound)", "value > _SIGN_TOL * bound",
     ("tests/test_dtnverify.py::test_sweep_counts_a_nan_as_a_violation",)),
    ("wronskian-check-passes-nan", "dtnverify.py",
     "~(im_resid <= IM_IDENTITY_TOL)", "im_resid > IM_IDENTITY_TOL",
     ("tests/test_dtnverify.py::test_sweep_counts_a_nan_as_a_violation",)),
    ("target-table-admits-zero", "sequences.py",
     "or self.values[0] <= 0.0", "or self.values[0] < 0.0",
     ("tests/test_sequences.py::test_families_refuse_zero_at_their_positivity_boundary",)),
]

KNOWN_SURVIVORS = [
    ("margin-gate-non-strict", "certify.py",
     "margin > 0.0,", "margin >= 0.0,",
     ("tests/test_certify.py", "tests/test_acceptance.py"),
     "no box reaches a margin of exactly 0: c_lb = a needs sqrt(pi) n^(3/4) = 1 "
     "in exact arithmetic, and wherever the threshold was finite c_lb / a never "
     "fell below sqrt(pi) 2^(3/4) = 2.98, over 2.6e8 sampled (n, k, a) at n up "
     "to 100, k and a on the whole positive binary64 range and k at the "
     "overflow edge of 2 k^2 a^2"),
]


def check_table():
    """Rows whose old text is not in its file exactly once or equals the
    new text, or whose edit does not compile (any test would catch that)."""
    problems = []
    for name, file, old, new, *_ in MUTANTS + KNOWN_SURVIVORS:
        text = (ROOT / "src" / "trapcert" / file).read_text(encoding="utf-8")
        if text.count(old) != 1 or old == new:
            problems.append(f"{name}: old text occurs {text.count(old)} times, or equals new")
        try:
            compile(text.replace(old, new), file, "exec")
        except SyntaxError:
            problems.append(f"{name}: the mutant does not compile")
    return problems


def failed(tests, src):
    """The tests with a failing case, or no passing one, on the package in
    src.  No bytecode is written, so a same-size edit made within the same
    second cannot hide behind a stale .pyc; a run that hangs raises."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rA", "-p",
                          "no:cacheprovider", *tests], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=600).stdout
    # summary lines name a test function, or one of its cases as name[...]
    seen = re.findall(r"^(PASSED|FAILED|ERROR) ([^\s\[]+)", out, re.M)
    outcomes = {t: {status for status, node in seen if node == t or node.startswith(t + "::")}
                for t in tests}
    return {t for t, got in outcomes.items() if got != {"PASSED"}}


def main():
    problems = check_table()
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        every_test = sorted({t for row in MUTANTS + KNOWN_SURVIVORS for t in row[4]})
        problems += [f"fails unmutated: {t}" for t in sorted(failed(every_test, src))]
        if problems:
            print(*problems, sep="\n")
            return 2

        def mutated_failures(file, old, new, tests):
            path = src / "trapcert" / file
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(old, new), encoding="utf-8")
            try:
                return failed(tests, src)
            finally:
                path.write_text(text, encoding="utf-8")

        survivors = 0
        for name, file, old, new, tests in MUTANTS:
            missed = sorted(set(tests) - mutated_failures(file, old, new, tests))
            survivors += bool(missed)
            print("SURVIVED" if missed else "killed  ", name)
            print("".join(f"  passed: {t}\n" for t in missed), end="")
        killed_known = 0
        for name, file, old, new, tests, reason in KNOWN_SURVIVORS:
            caught = sorted(mutated_failures(file, old, new, tests))
            killed_known += bool(caught)
            if caught:
                print("KILLED  ", name, "(listed as a known survivor)")
                print("".join(f"  failed: {t}\n" for t in caught), end="")
            else:
                print("survived", name)
                print(f"  known survivor: {reason}")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed, "
          f"{len(KNOWN_SURVIVORS) - killed_known} of {len(KNOWN_SURVIVORS)} "
          f"known survivors survived")
    return 1 if survivors or killed_known else 0


if __name__ == "__main__":
    sys.exit(main())
