"""Mutation runner:  python tests/mutants.py

A row of MUTANTS is (name, file in src/trapcert, exact old text, new text,
test functions that must fail).  Each mutant is applied to a copy of src/
in a temporary directory, and its tests run with PYTHONPATH on that copy
(child-interpreter tests follow it); it is killed when every test it names
fails.  The tests must pass on the unmutated copy first.  Exits 0 when
every mutant is killed, 1 when one survives, 2 when the table does not
apply.  Standard library and pytest only; tier-1 checks the table alone.
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
]


def check_table():
    """Rows whose old text is not in its file exactly once or equals the
    new text, or whose edit does not compile (any test would catch that)."""
    problems = []
    for name, file, old, new, _ in MUTANTS:
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
    return {t for t in tests if ("PASSED", t) not in seen
            or ("FAILED", t) in seen or ("ERROR", t) in seen}


def main():
    problems = check_table()
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        every_test = sorted({t for row in MUTANTS for t in row[4]})
        problems += [f"fails unmutated: {t}" for t in sorted(failed(every_test, src))]
        if problems:
            print(*problems, sep="\n")
            return 2
        survivors = 0
        for name, file, old, new, tests in MUTANTS:
            path = src / "trapcert" / file
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(old, new), encoding="utf-8")
            missed = sorted(set(tests) - failed(tests, src))
            path.write_text(text, encoding="utf-8")
            survivors += bool(missed)
            print("SURVIVED" if missed else "killed  ", name)
            print("".join(f"  passed: {t}\n" for t in missed), end="")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
