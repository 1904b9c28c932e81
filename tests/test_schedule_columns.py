"""The range functions of `sequences` against the per-box scalar oracle in
`schedule_oracle`, `geometry.layer_plans` against its per-level loop (both
layouts), and the builder's stacked layout against the per-box stacked
builder: every column value equal by `float.hex`, and on schedules that
fail, the same exception with the same message, from the first failing box
or level, with nothing printed and no warning raised."""

import ast
import inspect
import json
import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import schedule_oracle as oracle
import trapcert.certify
import trapcert.sequences
from trapcert.cli import run
from trapcert.geometry import build_layered, layer_plans
from trapcert.sequences import (
    CHUNK,
    APower,
    ATable,
    DShiftedPower,
    DTable,
    KLogGrowth,
    KTable,
    Schedule,
    ScheduleError,
    demo_schedule,
    derived_columns,
    derived_params,
    gap_fractions,
    growth_floor_check,
    paddings,
    sidelengths,
    target_norms,
    wavenumbers,
)

COLUMNS = ("k", "ell", "eps", "a")


def hexes(values):
    return [float(v).hex() for v in values]


def outcome(evaluate):
    """('ok', value) or (exception type, message) of `evaluate()`, with any
    warning turned into an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return "ok", evaluate()
        except (ScheduleError, ArithmeticError) as exc:
            return type(exc), str(exc)


def column_outcome(sched, js):
    result = outcome(lambda: derived_columns(sched, js))
    if result[0] != "ok":
        return result
    return "ok", [hexes(column) for column in result[1]]


def oracle_outcome(sched, js):
    """The per-box loop: it raises at the first failing box."""
    result = outcome(lambda: [oracle.derived_params(sched, j) for j in js])
    if result[0] != "ok":
        return result
    return "ok", [[getattr(p, name).hex() for p in result[1]] for name in COLUMNS]


def table_schedule(n=2, k_len=40, a_len=40):
    return Schedule(
        n=n,
        k_family=KTable(tuple(1.5 + 0.37 * j + 0.01 * j * j for j in range(k_len))),
        a_family=ATable(tuple(1e-4 * (1.0 + j // 3) for j in range(a_len))),
        d_family=DTable(tuple(0.5 / (i + 1) ** 1.5 for i in range(60))),
    )


def tampered(c=2.0, amplitude=1e-4, exponent=0.25, n=2):
    return Schedule(n=n, k_family=KLogGrowth(c), a_family=APower(amplitude, exponent),
                    d_family=DShiftedPower(2.0, 6.0, 1.2))


@pytest.mark.parametrize("n, layers", [(2, 30), (3, 5), (4, 4)],
                         ids=["figure-30", "n3", "n4"])
def test_built_columns_equal_the_per_box_oracle(n, layers):
    sched = demo_schedule(n)
    boxes, _ = build_layered(sched, layers)
    refs = [oracle.derived_params(sched, j) for j in boxes.j.tolist()]
    for name, column in zip(COLUMNS, (boxes.k, boxes.side, boxes.gap, boxes.a)):
        assert hexes(column) == [getattr(p, name).hex() for p in refs], name


@pytest.mark.parametrize("sched", [
    table_schedule(),
    Schedule(n=3, k_family=KTable(tuple(2.0 + j for j in range(30))),
             a_family=APower(1e-3, 0.5), d_family=DShiftedPower(2.0, 6.0, 1.2)),
    Schedule(n=2, k_family=KLogGrowth(2.0), a_family=ATable((1e-4,) * 30),
             d_family=DTable(tuple(1.0 / (i + 2) ** 2 for i in range(30)))),
    demo_schedule(2),
    demo_schedule(3),
    tampered(c=1e-320),  # subnormal wavenumbers: infinite sides, no warning
], ids=["all-tables", "k-table", "a-table", "demo-n2", "demo-n3", "c-1e-320"])
def test_family_columns_equal_the_per_box_oracle(sched):
    js = range(1, 31)
    assert column_outcome(sched, js) == oracle_outcome(sched, js)
    for sub in (range(7, 8), range(3, 17)):
        assert column_outcome(sched, sub) == oracle_outcome(sched, sub)


def test_stacked_table_columns_equal_the_per_box_oracle():
    sched = table_schedule()
    boxes, _ = build_layered(sched, 25, "stacked")
    refs = [oracle.derived_params(sched, j) for j in range(1, 26)]
    for name, column in zip(COLUMNS, (boxes.k, boxes.side, boxes.gap, boxes.a)):
        assert hexes(column) == [getattr(p, name).hex() for p in refs], name


def test_one_element_calls_equal_the_oracle():
    js = [1, 2, 17, 30]
    for sched in (demo_schedule(2), demo_schedule(4), table_schedule()):
        ks = [oracle.wavenumber(sched, j) for j in js]
        assert hexes(wavenumbers(sched, js)) == hexes(ks)
        assert hexes(sidelengths(sched, js)) == hexes(
            math.pi * math.sqrt(sched.n) / k for k in ks)
        assert [derived_params(sched, j) for j in js] == [
            oracle.derived_params(sched, j) for j in js]
    assert hexes(target_norms(table_schedule(), range(1, 31))) == hexes(
        oracle.target_norm(table_schedule(), j) for j in range(1, 31))
    for n, k, a in ((2, 2.4, 1e-4), (3, 1e3, 1e9), (5, 0.01, 1e-9)):
        assert hexes(gap_fractions(n, np.array([k]), np.array([a]))) == hexes(
            [oracle.gap_fraction(n, k, a)])


@pytest.mark.parametrize("n, k, a", [(2, 0.0, 1.0), (2, -1.0, 1.0), (2, 1.0, -2.0),
                                     (2, math.nan, 1.0), (3, 1e200, 1e200),
                                     (1, 1.0, 1.0)])
def test_gap_fraction_errors_equal_the_oracle(n, k, a):
    expected = outcome(lambda: oracle.gap_fraction(n, k, a))
    assert expected[0] is ScheduleError
    # the failing box second: the column names it, not the first
    assert outcome(lambda: gap_fractions(n, np.array([2.4, k]), np.array([1e-4, a]))) == expected


@pytest.mark.parametrize("j", [0, -3, 41])
def test_index_errors_equal_the_oracle(j):
    sched = table_schedule()
    for got, ref in ((wavenumbers, oracle.wavenumber), (target_norms, oracle.target_norm),
                     (derived_params, oracle.derived_params)):
        expected = outcome(lambda: ref(sched, j))
        assert expected[0] is ScheduleError
        query = j if got is derived_params else range(j, j + 3)
        assert outcome(lambda: got(sched, query)) == expected


@pytest.mark.parametrize("js", [range(1, 200), [3, 7, 40], range(0, 3), range(-3, 0),
                                range(58, 63), [2, 62, 70]])
@pytest.mark.parametrize("sched", [demo_schedule(2), table_schedule()],
                         ids=["shifted-power", "table"])
def test_paddings_equal_the_oracle(sched, js):
    # the values, or the error of the first index that fails
    assert outcome(lambda: hexes(paddings(sched, js))) == outcome(
        lambda: [oracle.padding(sched, i).hex() for i in js])


IDENTITY = "design identity 1 + 2k sqrt(2k^2 a^2 + a) leaves binary64 at n=2"
# (schedule, box count, exception type, text the message starts with)
TAMPERED = [
    (tampered(c=1e300), 1413, ScheduleError, IDENTITY),
    (tampered(exponent=2000.0), 1413, OverflowError, "(34, "),
    # j**100 first overflows deep in the range, at box 1210
    (tampered(amplitude=1e-300, exponent=100.0), 1413, OverflowError, "(34, "),
    # 2k^2a^2 first overflows deep in the range
    (tampered(amplitude=1e-27, exponent=60.0), 1413, ScheduleError, IDENTITY),
    # box 2 fails its gap fraction before box 4 runs past the target table
    (Schedule(n=2, k_family=KLogGrowth(2.0), a_family=ATable((1e-4, 1e300, 1e300)),
              d_family=DShiftedPower(2.0, 6.0, 1.2)), 10, ScheduleError, IDENTITY),
    # box 31 runs past the wavenumber table before the target table ends
    (table_schedule(k_len=30, a_len=35), 40, ScheduleError,
     "wavenumber table has 30 entries, index 31"),
    (table_schedule(k_len=40, a_len=35), 40, ScheduleError,
     "target table has 35 entries, index 36"),
]


@pytest.mark.parametrize("sched, count, kind, start", TAMPERED,
                         ids=["c-1e300", "pow-overflow", "pow-overflow-deep",
                              "gap-deep", "gap-before-table",
                              "k-table", "a-table"])
def test_tampered_schedules_raise_what_the_oracle_raises(capfd, sched, count, kind,
                                                         start):
    js = range(1, count + 1)
    expected = oracle_outcome(sched, js)
    assert expected[0] is kind and expected[1].startswith(start)
    assert column_outcome(sched, js) == expected
    assert capfd.readouterr() == ("", "")


def test_deep_failure_names_the_first_failing_box():
    sched = tampered(amplitude=1e-300, exponent=100.0)
    assert column_outcome(sched, range(1, 1210))[0] == "ok"
    assert column_outcome(sched, range(1210, 1211))[0] is OverflowError
    assert column_outcome(sched, range(1, 1211))[0] is OverflowError


@pytest.mark.parametrize("c, amplitude, exponent", [(1e300, 1e-4, 0.25),
                                                    (2.0, 1e-300, 100.0)],
                         ids=["c-1e300", "pow-overflow-deep"])
def test_cli_stderr_is_the_oracle_message(tmp_path, capfd, c, amplitude, exponent):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "dimension": 2, "layout": "layered", "layers": 30, "schedule": {
            "wavenumbers": {"family": "log-growth", "c": c},
            "targets": {"family": "power", "amplitude": amplitude,
                        "exponent": exponent},
            "paddings": {"family": "shifted-power", "amplitude": 2.0,
                         "shift": 6.0, "exponent": 1.2}}}), encoding="utf-8")
    kind, message = oracle_outcome(tampered(c, amplitude, exponent), range(1, 1414))
    lead = {ScheduleError: "error: ",
            OverflowError: "error: a derived value leaves binary64: "}[kind]
    for command in ("plan", "build", "certify"):
        assert run([command, "--config", str(cfg), "--out", str(tmp_path / "out")]
                   if command != "plan" else [command, "--config", str(cfg)]) == 2
        assert capfd.readouterr() == ("", f"{lead}{message}\n")


def hex_rows(rows):
    return [tuple(v.hex() if isinstance(v, float) else v for v in row) for row in rows]


def plan_rows(sched, limit, layout):
    """`layer_plans` as the oracle's tuples, floats by `float.hex`."""
    plans = layer_plans(sched, limit, layout)
    assert all(type(v) is int for v in plans.count + plans.start)  # exact, past int64
    return hex_rows(zip(plans.i.tolist(), plans.count, plans.start, plans.cols.tolist(),
                        plans.height.tolist(), plans.max_side.tolist(),
                        plans.pitch.tolist(), plans.width.tolist()))


_K9 = KTable([1.0 + j for j in range(9)])  # levels 1..3 at n = 2
PLAN_CASES = {
    "n2-300": (demo_schedule(2), 300, "layered"),
    "n3-257": (demo_schedule(3), 257, "layered"),
    "n4-257": (demo_schedule(4), 257, "layered"),
    "n32-257": (demo_schedule(32), 257, "layered"),
    "perturbed": (Schedule(2, KLogGrowth(2.0), APower(1.1e-4, 0.25),
                           DShiftedPower(2.1, 5.75, 1.2)), 60, "layered"),
    "tables": (table_schedule(), None, "layered"),
    "subnormal-c": (Schedule(2, KLogGrowth(1e-320), APower(1e-4, 0.25),
                             DShiftedPower(2.0, 6.0, 1.2)), 3, "layered"),
    "height-overflows": (Schedule(2, _K9, APower(1e-4, 0.25),
                                  DTable([1.5e308, 9e307, 5e307])), None, "layered"),
    "width-overflows": (Schedule(2, _K9, APower(1e-4, 0.25),
                                 DTable([1.7e308, 1e308, 5e307])), None, "layered"),
    # one box a level: a stack runs one level past the padding table
    "stacked-n3-300": (demo_schedule(3), 300, "stacked"),
    "stacked-tables": (table_schedule(), None, "stacked"),
    "stacked-limit": (table_schedule(), 7, "stacked"),
    "stacked-past-paddings": (Schedule(2, _K9, APower(1e-4, 0.25),
                                       DTable([0.5, 0.25, 0.125])), None, "stacked"),
    "stacked-subnormal-c": (Schedule(2, KLogGrowth(1e-320), APower(1e-4, 0.25),
                                     DShiftedPower(2.0, 6.0, 1.2)), 3, "stacked"),
    "stacked-height-overflows": (Schedule(2, _K9, APower(1e-4, 0.25),
                                          DTable([1.5e308, 9e307, 5e307])), None, "stacked"),
}


@pytest.mark.parametrize("sched, limit, layout", PLAN_CASES.values(), ids=PLAN_CASES.keys())
def test_layer_plans_equal_the_level_loop(sched, limit, layout):
    # every column bit for bit, the heights in the loop's (H - ell) - d
    # order, or the message of the first level that leaves binary64
    expected = outcome(lambda: hex_rows(oracle.layer_plans(sched, limit, layout)))
    assert outcome(lambda: plan_rows(sched, limit, layout)) == expected
    assert expected[0] == "ok" or expected[1].startswith("level ")


def build_outcome(build, sched, count):
    """('ok', every column of the boxes by dtype and bytes, and the summary
    by repr) or the error of `build(sched, count)`."""
    result = outcome(lambda: build(sched, count))
    if result[0] != "ok":
        return result
    boxes, summary = result[1]
    return "ok", [(name, column.dtype.str, column.shape, column.tobytes())
                  for name, column in vars(boxes).items()], repr(summary)


def stacked_table(count, k, d):
    """A table of `count` boxes: wavenumbers k(j), paddings d(i), and the
    demo targets."""
    return Schedule(2, KTable([k(j) for j in range(1, count + 1)]), APower(1e-4, 0.25),
                    DTable([d(i) for i in range(1, count)]))


@st.composite
def stacked_tables(draw):
    """(schedule, box count): strictly increasing wavenumber tables of up to
    400 entries, padding tables of up to 400, power or table targets, and
    counts up to two past the wavenumber table."""
    n = draw(st.integers(min_value=2, max_value=5))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    size = draw(st.integers(min_value=1, max_value=400))
    k = draw(st.floats(min_value=0.5, max_value=20.0)) + np.cumsum(rng.uniform(0.01, 3.0, size))
    d = np.unique(rng.uniform(1e-3, 2.0, draw(st.integers(min_value=1, max_value=400))))
    if draw(st.booleans()):
        a_family = APower(draw(st.floats(min_value=1e-6, max_value=1e-2)),
                          draw(st.floats(min_value=0.0, max_value=1.0)))
    else:
        a_len = draw(st.integers(min_value=1, max_value=size + 2))
        a_family = ATable(np.sort(rng.uniform(1e-5, 1e-2, a_len)))
    sched = Schedule(n, KTable(k), a_family, DTable(d[::-1]))
    return sched, draw(st.integers(min_value=1, max_value=size + 2))


@given(case=stacked_tables())
@settings(max_examples=150, deadline=None)
@example(case=(stacked_table(2000, lambda j: 9.0 + j, lambda i: 1.0 / (i + 1) ** 2), 2000))
@example(case=(stacked_table(10_000, lambda j: 9.0 + j, lambda i: 1.0 / (i + 1) ** 2),
               10_000))
def test_stacked_build_equals_the_per_box_builder(case):
    # the one builder's stacked layout against the deleted stacked builder:
    # every column and summary field bit for bit, or the same first error
    sched, count = case
    got = build_outcome(partial(build_layered, layout="stacked"), sched, count)
    assert got == build_outcome(oracle.build_stacked, sched, count)


def test_growth_floor_check_equals_the_scalar_loop():
    sched = table_schedule(k_len=60)
    for c in (0.0, 0.5, 1.0, 2.0):
        failures = tuple(j for j in range(1, 61)
                         if not oracle.wavenumber(sched, j)
                         >= (0.0 if c == 0.0 else oracle.growth_value(2, c, j)))
        assert growth_floor_check(sched, c, 60).failures == failures
    assert growth_floor_check(demo_schedule(3), 2.0, 500).passed
    with pytest.raises(ScheduleError, match="index 61 queried"):
        growth_floor_check(sched, 1.0, 70)


def numpy_names(module):
    """The `np.<name>` attributes that `module` uses."""
    return {node.attr for node in ast.walk(ast.parse(inspect.getsource(module)))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "np"}


def test_column_code_calls_no_numpy_transcendental():
    # `empty`: the output columns that the chunked evaluations fill
    assert numpy_names(trapcert.sequences) <= {
        "array", "ndarray", "sqrt", "where", "errstate", "flatnonzero", "argmax", "fromiter",
        "empty"}
    # the certificate chain
    assert numpy_names(trapcert.certify) <= {
        "array", "ndarray", "sqrt", "where", "errstate", "abs", "isinf", "stack",
        "argmax", "argmin", "empty"}


positive = st.floats(min_value=1e-300, max_value=1e300)


@st.composite
def schedules(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    if draw(st.booleans()):
        k_family = KLogGrowth(draw(positive))
    else:
        steps = draw(st.lists(positive, min_size=1, max_size=40))
        values, total = [], 0.0
        for step in steps:
            total += step
            if not values or total > values[-1]:
                values.append(total)
        k_family = KTable(tuple(values))
    if draw(st.booleans()):
        a_family = APower(draw(positive), draw(st.floats(min_value=0.0, max_value=300.0)))
    else:
        a_family = ATable(tuple(sorted(draw(st.lists(positive, min_size=1, max_size=40)))))
    return Schedule(n=n, k_family=k_family, a_family=a_family,
                    d_family=DShiftedPower(2.0, 6.0, 1.2))


@given(sched=schedules(), start=st.integers(min_value=1, max_value=5),
       count=st.integers(min_value=1, max_value=45))
@settings(max_examples=200, deadline=None)
@example(sched=tampered(c=1e300), start=1, count=45)
@example(sched=tampered(exponent=250.0), start=1, count=45)
# more than one chunk: every row, and a first failing box (j = 4,826, its
# design identity past binary64) in the second chunk
@example(sched=demo_schedule(3), start=1, count=CHUNK + 45)
@example(sched=tampered(exponent=42.0), start=1, count=CHUNK + 1000)
def test_random_families_equal_the_per_box_oracle(sched, start, count):
    js = range(start, start + count)
    assert column_outcome(sched, js) == oracle_outcome(sched, js)
