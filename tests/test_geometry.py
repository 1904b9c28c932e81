"""Tests for the builder (layered and stacked layouts) and the geometric
certificates.

Frozen reference values were computed with mpmath at 40 significant digits
(see oracles.py for the regeneration convention); the builder walks the same
recursions in binary64, so agreement is asserted at 1e-13 relative.
"""

import dataclasses
import math
from functools import partial
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trapcert.geometry
import trapcert.sequences
from columns import make_boxes, take, with_values
from packing_oracle import all_pairs_certificate, all_pairs_min_distance
from trapcert.geometry import (
    Boxes,
    DisjointnessReport,
    GeometryError,
    MAX_BOXES,
    ResolutionTooCoarseError,
    _blocked_raster,
    _feature_scale,
    _grid,
    _pair_distances,
    _partition,
    _reach,
    _sweep_pairs,
    _width_tail_bound,
    build_layered,
    connectivity_certificate,
    disjointness_certificate,
    flood_fill_oracle,
    layer_plans,
    suggested_resolution,
)
from trapcert.sequences import (
    APower,
    ATable,
    DShiftedPower,
    DTable,
    KLogGrowth,
    KTable,
    Schedule,
    ScheduleError,
    demo_schedule,
    paddings,
    sidelengths,
    volume_sum,
)

S2 = demo_schedule()

# level data of the demo schedule (n=2), mpmath 40 digits
HEIGHTS = {1: 0.0, 2: -1.3493320595455889, 3: -2.0888692891672507,
           4: -2.55335106710476}
MAX_SIDES = {1: 1.8514306121285546, 2: 1.1557289414311658,
             3: 0.57459874077504996}
PITCHES = {1: 1.998852196078278, 2: 1.2620417783408255,
           3: 0.65672368585395032}
WIDTHS = {2: 3.7861253350224765, 3: 3.2836184292697516}
GAP_IN_LAYER_3 = 0.082124945078900359

COUNTS_30 = [1, 3, 5, 7, 10, 12, 15, 18, 22, 25, 28, 32, 35, 39, 43, 46,
             50, 54, 58, 62, 66, 70, 74, 78, 83, 87, 91, 95, 100, 104]


def rel(x, y):
    return abs(x - y) / abs(y)


# -------------------------------------------------------------------
# layer plans
# -------------------------------------------------------------------

def test_layer_plan_frozen_values():
    plans = layer_plans(S2, 4)
    assert len(plans) == 4 and plans.i.tolist() == [1, 2, 3, 4]
    assert plans.start == (1, 2, 5, 10)
    assert plans.cols.tolist() == [1, 3, 5, 7]
    assert plans.count == (1, 3, 5, 7)
    assert plans.height[0] == 0.0
    for i in HEIGHTS.keys() - {1}:
        assert rel(plans.height[i - 1], HEIGHTS[i]) < 1e-13
    for i in MAX_SIDES:
        assert rel(plans.max_side[i - 1], MAX_SIDES[i]) < 1e-13
        assert rel(plans.pitch[i - 1], PITCHES[i]) < 1e-13
    for i in WIDTHS:
        assert rel(plans.width[i - 1], WIDTHS[i]) < 1e-13


def test_layer_plan_pitch_exceeds_side():
    plans = layer_plans(S2, 19)
    assert (plans.pitch > plans.max_side).all()


def test_width_peak_at_level_two():
    # widths are not monotone (the floor in the column count causes small
    # upticks) but level 2 is the global maximum
    widths = layer_plans(S2, 30).width.tolist()
    assert widths.index(max(widths)) == 1
    assert all(w < widths[1] for w in widths[2:])


def test_width_tail_bound_below_built_maximum():
    # analytically, levels beyond the extension horizon stay narrower than
    # the widest computed level, so the reported extent is global
    assert _width_tail_bound(S2, 257) < WIDTHS[2]


@given(st.integers(1, 9), st.integers(1, 3), st.data())
def test_grid_digits_roundtrip(cols, axes, data):
    grid = _grid(cols, axes)
    assert grid.shape == (cols ** axes, axes)
    r = data.draw(st.integers(0, cols ** axes - 1))
    digits = grid[r].tolist()
    assert all(0 <= d < cols for d in digits)
    assert sum(d * cols ** (axes - 1 - a) for a, d in enumerate(digits)) == r


# -------------------------------------------------------------------
# layered builder
# -------------------------------------------------------------------

def test_demo_thirty_layers_counts():
    boxes, summary = build_layered(S2, 30)
    assert summary.box_count == len(boxes) == 1413
    per_layer = {}
    for layer in boxes.layer.tolist():
        per_layer[layer] = per_layer.get(layer, 0) + 1
    assert [per_layer[i] for i in range(1, 31)] == COUNTS_30
    assert boxes.j.tolist() == list(range(1, 1414))


def test_layer_two_count_across_dimensions():
    for n in (2, 3, 4):
        sched = demo_schedule(n)
        boxes, _ = build_layered(sched, 2)
        assert sum(1 for layer in boxes.layer.tolist() if layer == 2) == 3 ** (n - 1)


def test_first_box_at_origin_with_demo_side():
    boxes, _ = build_layered(S2, 1)
    assert len(boxes) == 1
    assert boxes.lo.tolist() == [[0.0, 0.0]]
    assert rel(boxes.side[0], MAX_SIDES[1]) < 1e-13
    assert boxes.gap[0] > 0.5  # the first aperture fraction is just above 1/2


def test_box_fields_match_schedule():
    boxes, _ = build_layered(S2, 3)
    assert boxes.side.tolist() == sidelengths(S2, boxes.j.tolist()).tolist()
    for side, lo, hi in zip(boxes.side.tolist(), boxes.lo.tolist(), boxes.hi.tolist()):
        assert all(h - l == pytest.approx(side, rel=1e-15) for l, h in zip(lo, hi))
    assert boxes.j[2] == 3 and boxes.layer[2] == 2


def test_second_level_translations_row_major():
    boxes, _ = build_layered(S2, 2)
    level2 = boxes.lo[boxes.layer == 2].tolist()
    plans = layer_plans(S2, 2)
    pitch, height = plans.pitch[1].item(), plans.height[1].item()
    for r, lo in enumerate(level2):
        assert lo == [pitch * r, height]
    assert rel(level2[1][0], PITCHES[2]) < 1e-13
    assert rel(level2[0][1], HEIGHTS[2]) < 1e-13


def test_three_d_translations_row_major():
    sched = demo_schedule(3)
    boxes, _ = build_layered(sched, 2)
    level2 = boxes.lo[boxes.layer == 2].tolist()
    assert len(level2) == 9
    plans = layer_plans(sched, 2)
    pitch, height = plans.pitch[1].item(), plans.height[1].item()
    digits = [(r // 3, r % 3) for r in range(9)]
    for (d0, d1), lo in zip(digits, level2):
        assert lo == [pitch * d0, pitch * d1, height]


@pytest.mark.parametrize("n, layers", [(2, 30), (3, 5), (4, 4)])
def test_translations_match_the_digit_formula(n, layers):
    # every corner is (pitch * digit, ..., height) in plain Python floats,
    # the digits of the in-level index r in base cols, most significant first
    sched = demo_schedule(n)
    boxes, _ = build_layered(sched, layers)
    expected = []
    plans = layer_plans(sched, layers)
    for count, cols, pitch, height in zip(plans.count, plans.cols.tolist(),
                                          plans.pitch.tolist(), plans.height.tolist()):
        for r in range(count):
            digits = [(r // cols ** (n - 2 - a)) % cols for a in range(n - 1)]
            expected.append([pitch * d for d in digits] + [height])
    assert [[x.hex() for x in lo] for lo in boxes.lo.tolist()] == [
        [x.hex() for x in lo] for lo in expected]


def test_heights_strictly_decreasing_with_constructive_gaps():
    boxes, _ = build_layered(S2, 6)
    height = {}
    top = {}
    for layer, base, side in zip(boxes.layer.tolist(), boxes.lo[:, -1].tolist(),
                                 boxes.side.tolist()):
        height[layer] = base
        top[layer] = max(top.get(layer, -math.inf), base + side)
    for i, d_i in enumerate(paddings(S2, range(1, 6)).tolist(), start=1):
        gap = height[i] - top[i + 1]
        assert gap > 0.0
        assert rel(gap, d_i) < 1e-12


def test_summary_demo_values():
    boxes, summary = build_layered(S2, 30)
    assert summary.dimension == 2
    assert summary.layout == "layered"
    assert rel(summary.horizontal_extent, WIDTHS[2]) < 1e-13
    lo, hi = summary.height_interval
    assert lo < hi < 0.0
    # the enclosure sits strictly below every built box
    assert hi < boxes.lo[:, -1].min()
    vlo, vhi = summary.volume_interval
    assert vlo == pytest.approx(volume_sum(2, sidelengths(S2, range(1, 1414)), 1, "volume"),
                                rel=1e-15)
    assert vlo < vhi


def test_enclosures_nest_as_truncation_deepens():
    _, s_a = build_layered(S2, 256)
    _, s_b = build_layered(S2, 300)
    assert s_a.height_interval[0] <= s_b.height_interval[0]
    assert s_b.height_interval[1] <= s_a.height_interval[1]
    assert s_a.volume_interval[0] <= s_b.volume_interval[0]
    assert s_b.volume_interval[1] <= s_a.volume_interval[1]


def test_r_gamma_upper_covers_every_built_box():
    boxes, summary = build_layered(S2, 30)
    worst = 0.0
    for lo, hi in zip(boxes.lo.tolist(), boxes.hi.tolist()):
        corner = math.sqrt(sum(max(abs(l), abs(h)) ** 2 for l, h in zip(lo, hi)))
        worst = max(worst, corner)
    assert worst <= summary.r_gamma_upper


def test_horizontal_extent_covers_built_boxes():
    boxes, summary = build_layered(S2, 30)
    reach = boxes.hi[:, :-1].max()
    assert reach <= summary.horizontal_extent


def test_layered_with_exact_fit_tables():
    kvals = [2.0 + 0.5 * j for j in range(4)]
    sched = Schedule(2, KTable(kvals), APower(1e-4, 0.25), DTable([0.3, 0.2]))
    boxes, summary = build_layered(sched, 2)
    assert summary.box_count == 4
    assert summary.height_interval[0] == summary.height_interval[1]
    assert summary.volume_interval[0] == summary.volume_interval[1]
    with pytest.raises(ScheduleError):
        build_layered(sched, 3)


def test_layered_rejects_zero_layers():
    with pytest.raises(GeometryError):
        build_layered(S2, 0)


# -------------------------------------------------------------------
# stacked layout
# -------------------------------------------------------------------

def stacked_schedule(extra=False):
    base = math.pi * math.sqrt(2.0)
    kvals = [base, 2 * base] + ([4 * base] if extra else [])
    dvals = [1.0] + ([0.5] if extra else [])
    return Schedule(2, KTable(kvals), APower(1e-4, 0.25), DTable(dvals))


@pytest.mark.parametrize("layout", ["stack", "Stacked", "", "layered "])
def test_layouts_other_than_layered_or_stacked_are_refused(layout):
    for plan in (build_layered, layer_plans):
        with pytest.raises(GeometryError) as info:
            plan(S2, 2, layout)
        assert str(info.value) == f"layout must be 'layered' or 'stacked', got {layout!r}"


def test_stacked_example_exact():
    boxes, summary = build_layered(stacked_schedule(), 2, "stacked")
    assert boxes.side.tolist() == [1.0, 0.5]
    assert boxes.lo.tolist() == [[0.0, 0.0], [0.0, -1.5]]
    assert boxes.layer.tolist() == [1, 2]
    assert summary.layout == "stacked"
    assert summary.height_interval == (-1.5, -1.5)
    assert summary.volume_interval == (1.25, 1.25)
    assert summary.horizontal_extent == 1.0
    assert summary.r_gamma_upper == pytest.approx(math.sqrt(3.25), rel=1e-15)


def test_stacked_limit_uses_full_tables():
    boxes, summary = build_layered(stacked_schedule(extra=True), 2, "stacked")
    assert len(boxes) == 2
    # placeable box 3 (side 1/4, after padding 1/2) extends the enclosure
    assert summary.height_interval == (-2.25, -2.25)
    assert summary.volume_interval == (1.25, 1.25 + 0.0625)


def test_stacked_rejects_parametric_wavenumbers():
    with pytest.raises(GeometryError, match="summable"):
        build_layered(S2, 3, "stacked")


def test_stacked_count_past_table():
    with pytest.raises(ScheduleError):
        build_layered(stacked_schedule(), 5, "stacked")


_B = math.pi * math.sqrt(2.0)  # the wavenumber of a unit square
_K4 = KTable([_B, 2 * _B, 4 * _B, 8 * _B])
_A = APower(1e-4, 0.25)
_NEVER = "; tables are never extrapolated"


@pytest.mark.parametrize("k, a, d, count, message", [
    (KTable([_B, 2 * _B]), _A, DTable([1.0, 0.5, 0.25]), 3,
     "wavenumber table has 2 entries, index 3 queried" + _NEVER),
    (_K4, ATable([1e-4, 1e-4]), DTable([1.0, 0.5, 0.25]), 3,
     "target table has 2 entries, index 3 queried" + _NEVER),
    (_K4, _A, DTable([1.0]), 3, "padding table has 1 entries, index 2 queried" + _NEVER),
    # box 3 lacks both its wavenumber and its padding d_2
    (KTable([_B, 2 * _B]), _A, DTable([1.0]), 3,
     "wavenumber table has 2 entries, index 3 queried" + _NEVER),
    (_K4, ATable([1e-4, 1e-4, 1e300]), DTable([1.0]), 3,
     "design identity 1 + 2k sqrt(2k^2 a^2 + a) leaves binary64 at n=2, "
     "k=17.771531752633464, a=1e+300"),
    # box 3 lacks its padding, box 4 its target or its gap fraction
    (_K4, ATable([1e-4] * 3), DTable([1.0]), 4,
     "padding table has 1 entries, index 2 queried" + _NEVER),
    (_K4, ATable([1e-4, 1e-4, 1e-4, 1e300]), DTable([1.0]), 4,
     "padding table has 1 entries, index 2 queried" + _NEVER),
    (_K4, _A, DTable([1.0, 0.5]), 6, "padding table has 2 entries, index 3 queried" + _NEVER),
], ids=["short-k", "short-a", "short-d", "own-checks-before-padding",
        "gap-fraction-before-padding", "first-box-wins", "padding-before-gap-fraction",
        "padding-before-short-k"])
def test_stacked_short_tables_name_the_first_failing_box(k, a, d, count, message):
    with pytest.raises(ScheduleError) as info:
        build_layered(Schedule(2, k, a, d), count, "stacked")
    assert str(info.value) == message


def no_per_box_schedule_calls(monkeypatch):
    def per_box(*args):
        raise AssertionError("a per-box schedule call")

    monkeypatch.setattr(trapcert.geometry, "derived_params", per_box)
    monkeypatch.setattr(trapcert.sequences, "derived_params", per_box)


def test_stacked_reads_columns_not_per_box_values(monkeypatch):
    no_per_box_schedule_calls(monkeypatch)
    boxes, summary = build_layered(stacked_schedule(extra=True), 2, "stacked")
    assert boxes.side.tolist() == [1.0, 0.5]
    assert summary.volume_interval == (1.25, 1.25 + 0.0625)


# n = 2 levels hold 1, 3 and 5 boxes: the wavenumber table ends inside level
# 4, and the padding table allows three levels (or a stack of four boxes)
_VOLUME_SCHEDULE = Schedule(2, KTable([3.0 + j for j in range(11)]), _A,
                            DTable([0.9, 0.5, 0.3]))


@pytest.mark.parametrize("build, built, last", [
    (partial(build_layered, layout="stacked"), 2, 4), (build_layered, 4, 9)],
    ids=["stacked", "layered"])
def test_volume_interval_equals_the_per_box_sum(monkeypatch, build, built, last):
    no_per_box_schedule_calls(monkeypatch)
    boxes, summary = build(_VOLUME_SCHEDULE, 2)
    monkeypatch.undo()
    assert len(boxes) == built
    sides = sidelengths(_VOLUME_SCHEDULE, range(1, last + 1)).tolist()
    vol_lo = math.fsum(v ** 2 for v in sides[:built])
    tail = math.fsum(v ** 2 for v in sides[built:])
    assert tail > 0.0
    assert [v.hex() for v in summary.volume_interval] == [vol_lo.hex(),
                                                          (vol_lo + tail).hex()]


@pytest.mark.parametrize("kvals, dvals, count, message", [
    ([1e-320, 9.0], [0.5], 1, "level 1 leaves binary64: side inf, pitch inf, height 0.0"),
    # the limit's box 3 is not built, but its depth enters the summary
    ([1.0, 2.0, 3.0], [1.5e308, 1e308], 2,
     "level 3 leaves binary64: side 1.480960979386122, pitch 1.480960979386122, "
     "height -inf"),
], ids=["subnormal-wavenumber", "depth-of-the-limit"])
def test_stacked_sides_and_depths_stay_in_binary64(kvals, dvals, count, message):
    with pytest.raises(ScheduleError) as info:
        build_layered(Schedule(2, KTable(kvals), _A, DTable(dvals)), count, "stacked")
    assert str(info.value) == message


@pytest.mark.parametrize("build, sched, size, message", [
    (build_layered,
     Schedule(2, KLogGrowth(2.0), _A, DShiftedPower(1e300, 6.0, 1.0001)), 2,
     "width 9.766419601969611e+299 (bound for the levels past 256), "
     "lowest height -9.998129297044348e+303"),
    (build_layered, Schedule(2, KTable([1.0, 2.0, 3.0, 4.0]), _A, DTable([1e300, 5e299])),
     2, "width 9.668407688201361e+299 (level 2), lowest height -1e+300"),
    # every depth is finite, the square of the lowest one is not
    (partial(build_layered, layout="stacked"),
     Schedule(2, KTable([1.0, 2.0]), _A, DTable([1.5e308])), 2,
     "width 4.442882938158366 (level 1), lowest height -1.5e+308"),
], ids=["layered-width-tail-bound", "layered-table-level", "stacked-depth"])
def test_circumradius_past_binary64_names_the_widest_level(build, sched, size, message):
    with pytest.raises(ScheduleError) as info:
        build(sched, size)
    assert str(info.value) == f"circumradius bound leaves binary64: {message}"


def test_stacked_disjointness_generic():
    sched = stacked_schedule(extra=True)
    boxes, _ = build_layered(sched, 3, "stacked")
    report = disjointness_certificate(boxes, sched)
    assert report.passed and not report.overlap_pairs
    assert len(report.in_layer) == 0  # singleton levels
    cross = report.cross
    assert cross.layer_a.tolist() == [1, 2] and cross.layer_b.tolist() == [2, 3]
    # the measured gaps are the paddings the depth recursion inserted
    d = paddings(sched, cross.layer_a.tolist())
    assert d.tolist() == [1.0, 0.5]
    assert (abs(cross.min_distance - d) / d <= 1e-12).all()


# 30 boxes whose depth reaches about -115 while the paddings shrink to 0.0064:
# the gap of levels 26 and 27 rounds 1.37e-14 below d_26
DEEP_STACK = Schedule(2, KTable([1.0 + 0.01 * (j - 1) for j in range(1, 31)]),
                      ATable([1e-4] * 30), DTable([i ** -1.5 for i in range(1, 30)]))


def test_stacked_floor_allows_the_rounding_of_the_placement():
    boxes, _ = build_layered(DEEP_STACK, 30, "stacked")
    report = assert_matches_all_pairs(boxes, DEEP_STACK)
    assert report.passed
    cross = report.cross
    short = cross.required - cross.min_distance
    assert np.argmax(short) == 25 and short[25] == pytest.approx(1.37e-14, rel=0.01)
    assert (short <= cross.rounding).all()
    # each bound is two spacings of its level's depth at most
    assert (cross.rounding <= 2.0 * np.spacing(-boxes.lo[1:, -1])).all()


def test_stacked_floor_fails_one_bound_past_the_rounding():
    boxes, _ = build_layered(DEEP_STACK, 30, "stacked")
    cross = disjointness_certificate(boxes, DEEP_STACK).cross
    row, = cross[(cross.layer_a == 26) & (cross.layer_b == 27)]
    # box 27 raised so that its gap is one bound-width short of the allowance
    gap = row.required - 2.0 * row.rounding
    depth = boxes.lo[25, -1] - gap - boxes.side[26]
    report = disjointness_certificate(with_values(boxes, 26, lo=(0.0, depth)), DEEP_STACK)
    assert report.failure == ("levels 26 and 27 0.00754293 apart, "
                              "below the floor 0.00754293")


# -------------------------------------------------------------------
# the Boxes invariant
# -------------------------------------------------------------------

VALID = dict(j=[1, 2, 3], layer=[1, 1, 2], side=[1.0, 1.0, 0.5],
             lo=[(0.0, 0.0), (2.0, 0.0), (0.0, -2.0)], gap=[0.1] * 3, k=[10.0] * 3,
             a=[1e-4] * 3)
BIG = 1.7976931348623157e308
# case -> (column, value of box 2, what its message says): no flat or
# inverted box (hi = lo, hi < lo), no gap fraction outside [0, 1), no k or
# target a <= 0
DOMAIN = {
    **{f"side-{value!r}": ("side", value, "is not positive") for value in (0.0, -1.0)},
    **{f"k-{value!r}": ("k", value, "is not positive") for value in (0.0, -1.0)},
    **{f"a-{value!r}": ("a", value, "is not positive") for value in (0.0, -1e-3)},
    **{f"gap-{value!r}": ("gap", value, "is not in [0, 1)") for value in (-1e-300, 1.0, 1.5)},
}
# case -> (j, layer, the start of the message): an index outside
# [1, MAX_BOXES]; where two boxes break it, the first is named
PAST = MAX_BOXES + 1
INDEX = {
    "j-0": ([0, 2, 3], [1, 1, 2], "box 0: j 0"),
    "j--1": ([-1, 0, 3], [1, 1, 2], "box -1: j -1"),
    f"j-{PAST}": ([1, PAST, PAST + 1], [1, 1, 2], f"box {PAST}: j {PAST}"),
    "layer-0": ([1, 2, 3], [0, 0, 2], "box 1: layer 0"),
    f"layer-{PAST}": ([1, 2, 3], [1, PAST, PAST], f"box 2: layer {PAST}"),
}
REFUSED = {
    "empty": {**{name: [] for name in VALID}, "lo": np.zeros((0, 2))},
    "n=1": {"lo": [(0.0,), (2.0,), (0.0,)]},
    "lo-flat": {"lo": [0.0, 2.0, 0.0]},
    "lo-rows": {"lo": [(0.0, 0.0), (2.0, 0.0)]},
    "side-rows": {"side": [1.0, 1.0]},
    "j-flat": {"j": [[1, 2, 3]]},
    "j-repeated": {"j": [1, 2, 2]},
    "j-decreasing": {"j": [1, 3, 2]},
    "layer-decreasing": {"layer": [1, 2, 1]},
    # every value finite, but box 2's upper corner leaves binary64
    "corner-overflows-up": {"lo": [(0.0, 0.0), (BIG, 0.0), (0.0, -2.0)],
                            "side": [1.0, 1e300, 0.5]},
    "corner-overflows-down": {"lo": [(0.0, 0.0), (-BIG, 0.0), (0.0, -2.0)],
                              "side": [1.0, -1e300, 0.5]},
    **{f"{name}-{value!r}": {name: VALID[name][:1]
                             + [(value, 0.0) if name == "lo" else value]
                             + VALID[name][2:]}
       for name in ("side", "gap", "k", "a", "lo")
       for value in (math.nan, math.inf, -math.inf)},
    # finite, but outside the domain of box 2 (DOMAIN)
    **{name: {column: [VALID[column][0], value, VALID[column][2]]}
       for name, (column, value, _) in DOMAIN.items()},
    **{name: {"j": j, "layer": layer} for name, (j, layer, _) in INDEX.items()},
}


def as_boxes(columns):
    return Boxes(**{name: np.asarray(value, dtype=np.int64 if name in ("j", "layer")
                                     else float) for name, value in columns.items()})


@pytest.mark.parametrize("change", REFUSED.values(), ids=REFUSED.keys())
def test_boxes_refuse_arrangements_outside_the_invariant(change):
    assert len(as_boxes(VALID)) == 3
    with pytest.raises(GeometryError):
        as_boxes({**VALID, **change})


@pytest.mark.parametrize("case", DOMAIN)
def test_boxes_name_the_first_value_outside_the_domain(case):
    column, value, need = DOMAIN[case]
    # box 3 is outside the domain too, and box 2 is named
    change = {column: [VALID[column][0], value, value]}
    with pytest.raises(GeometryError) as info:
        as_boxes({**VALID, **change})
    assert str(info.value) == f"box 2: {column} {value!r} {need}"


@pytest.mark.parametrize("case", INDEX)
def test_boxes_name_the_first_index_outside_the_range(case):
    j, layer, named = INDEX[case]
    with pytest.raises(GeometryError, match=rf"^{named} is not in \[1, {MAX_BOXES}\]$"):
        as_boxes({**VALID, "j": j, "layer": layer})


def test_boxes_name_the_first_failing_column_of_a_box():
    # box 2 fails its gap and its k, box 3 its k and its a: box 2's gap,
    # the earlier column, is named
    change = dict(gap=[0.1, 1.0, 0.1], k=[10.0, -1.0, -1.0], a=[1e-4, 1e-4, 0.0])
    with pytest.raises(GeometryError, match=r"^box 2: gap 1\.0 is not in \[0, 1\)$"):
        as_boxes({**VALID, **change})


@pytest.mark.parametrize("gap", [0.0, -0.0])
def test_boxes_hold_sealed_boxes(gap):
    # a gap fraction of 0 is a closed box with no aperture, a real box
    boxes = as_boxes({**VALID, "gap": [0.1, gap, 0.0]})
    assert boxes.gap.tolist() == [0.1, 0.0, 0.0]


def put(column, row, value):
    """A copy of `column` holding `value` at `row`."""
    column = column.copy()
    column[row] = value
    return column


# each case tampers a built 10-layer demo arrangement in one step; the
# refusal names the first failing box
DOMAIN_TAMPERED = {
    "domain": (lambda b: dataclasses.replace(b, k=put(b.k, 9, -1.0), gap=put(b.gap, 3, 1.5)),
               "box 4: gap 1.5 is not in [0, 1)"),
    "aperture-edge": (lambda b: with_values(b, 12, gap=1.0),
                      "box 13: gap 1.0 is not in [0, 1)"),
    "negative-target": (lambda b: with_values(b, [8, 20], a=[-1.0, 0.0]),
                        "box 9: a -1.0 is not positive"),
}


@pytest.mark.parametrize("case", list(DOMAIN_TAMPERED))
def test_boxes_name_the_first_tampered_box_outside_the_domain(case):
    boxes, _ = build_layered(S2, 10)
    tamper, message = DOMAIN_TAMPERED[case]
    with pytest.raises(GeometryError) as info:
        tamper(boxes)
    assert str(info.value) == message


# -------------------------------------------------------------------
# disjointness certificate
# -------------------------------------------------------------------

def test_disjointness_demo_three_layers():
    boxes, _ = build_layered(S2, 3)
    report = disjointness_certificate(boxes, S2)
    assert report.passed
    assert report.overlap_pairs == ()
    gaps = report.in_layer
    assert gaps.layer.tolist() == [2, 3]
    assert rel(gaps.expected[1], GAP_IN_LAYER_3) < 1e-13
    assert rel(gaps.min_distance[1], gaps.expected[1]) <= 1e-12
    cross = report.cross
    assert list(zip(cross.layer_a.tolist(), cross.layer_b.tolist())) == [(1, 2), (2, 3)]
    d = paddings(S2, range(1, 3))
    assert cross.required.tolist() == d.tolist()
    # adjacent levels are exactly their padding apart
    assert (abs(cross.min_distance - d) / d <= 1e-12).all()


def test_disjointness_demo_thirty_layers():
    boxes, _ = build_layered(S2, 30)
    report = disjointness_certificate(boxes, S2)
    assert report.passed
    assert len(boxes) == 1413
    assert len(report.cross) == 29  # one row per level below the first
    gaps = report.in_layer
    assert (abs(gaps.min_distance - gaps.expected) / gaps.expected <= 1e-12).all()


def test_disjointness_flags_overlap():
    # box 3 shifted half a unit past box 2's corner, on their level
    boxes, _ = build_layered(S2, 2)
    tampered = with_values(boxes, 2, lo=boxes.lo[1] + (0.5, 0.0))
    report = disjointness_certificate(tampered, S2)
    assert report.overlap_pairs == ((2, 3),)
    assert not report.passed
    assert report.failure == f"{len(report.overlap_pairs)} overlapping pairs"


def test_disjointness_failure_names_the_first_failing_check():
    gaps = np.rec.fromrecords([(1, 2.0, 2.0), (2, 1.0, 1.25), (3, 1.0, 2.0)],
                              names="layer,min_distance,expected")
    # a distance passes at most `rounding` below its floor
    floors = np.rec.fromrecords([(1, 2, 2.75, 3.0, 0.25), (1, 3, 0.5, 0.75, 0.125),
                                 (2, 3, 0.25, 0.75, 0.125)],
                                names="layer_a,layer_b,min_distance,required,rounding")
    report = DisjointnessReport(((0, 1), (2, 3)), gaps, floors)
    assert report.failure == "2 overlapping pairs"
    report = dataclasses.replace(report, overlap_pairs=())
    # a distance of 0 across levels: they are not stacked, checked first
    touching = floors.copy()
    touching.min_distance[2] = 0.0
    report = dataclasses.replace(report, cross=touching)
    assert report.failure == "levels 2 and 3 not stacked"
    report = dataclasses.replace(report, cross=floors)
    assert report.failure == "level 2 in-layer gap 1 against 1.25, relative error 0.2"
    report = dataclasses.replace(report, in_layer=gaps[:1])
    assert report.failure == "levels 1 and 3 0.5 apart, below the floor 0.75"
    report = dataclasses.replace(report, cross=floors[:1])
    assert report.failure is None and report.passed


def test_disjointness_touching_closures_flagged():
    # closure disjointness is strict: sharing a face must fail
    boxes, _ = build_layered(S2, 2)
    (x, y), side = boxes.lo[1], boxes.side[1]
    tampered = with_values(take(boxes, [1, 2]), 1, lo=(x + side, y))
    report = disjointness_certificate(tampered, S2)
    assert report.overlap_pairs == ((2, 3),)


def assert_matches_all_pairs(boxes, sched, exact=True):
    """The certificate against the all-pairs oracle, which measures every
    pair of levels.

    The overlaps inside the levels and the in-layer rows are the oracle's,
    bit for bit.  The certificate has one cross row per level i' below the
    first, with the oracle's floor and rounding for the level above i';
    its distance is at most the oracle's minimum against every level above
    i', and with `exact` it is the oracle's minimum against the level right
    above i', bit for bit.  A passing certificate leaves the oracle no
    overlap and every pair of levels at its floor within the rounding.
    """
    report = disjointness_certificate(boxes, sched)
    oracle = all_pairs_certificate(boxes, sched)
    level = dict(zip(boxes.j.tolist(), boxes.layer.tolist()))
    inside = tuple(p for p in oracle.overlap_pairs if level[p[0]] == level[p[1]])
    assert repr(report.overlap_pairs) == repr(inside)  # same types as well
    got, want = report.in_layer, oracle.in_layer
    assert isinstance(got, np.recarray)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    cross, pairs = report.cross, oracle.cross
    assert isinstance(cross, np.recarray) and cross.dtype == pairs.dtype
    rank = {la: r for r, la in enumerate(sorted(set(level.values())))}
    adjacent = pairs[np.array([rank[b] == rank[a] + 1 for a, b in
                               zip(pairs.layer_a.tolist(), pairs.layer_b.tolist())], dtype=bool)]
    for name in ("layer_a", "layer_b", "required", "rounding"):
        assert cross[name].tobytes() == adjacent[name].tobytes(), name
    if exact:
        assert cross.tobytes() == adjacent.tobytes()
    for row in cross:
        assert row.min_distance <= pairs.min_distance[pairs.layer_b == row.layer_b].min()
    if report.passed:
        assert oracle.overlap_pairs == ()
        assert (pairs.required - pairs.min_distance <= pairs.rounding).all()
    return report


@pytest.mark.parametrize("layers", range(1, 31))
def test_sweep_matches_all_pairs_demo_n2(layers):
    boxes, _ = build_layered(S2, layers)
    assert assert_matches_all_pairs(boxes, S2).passed


# n = 6 and 7 at 3 layers put 3,125 and 15,625 boxes on level 3, more than
# the dense oracle's level block can hold in memory
@pytest.mark.parametrize("n, layers", [(3, 8), (4, 4), (4, 5), (4, 6),
                                       (5, 2), (5, 3), (6, 2), (7, 2)])
def test_sweep_matches_all_pairs_higher_dimensions(n, layers):
    sched = demo_schedule(n)
    boxes, _ = build_layered(sched, layers)
    assert assert_matches_all_pairs(boxes, sched).passed


def test_sweep_matches_all_pairs_perturbed_schedule():
    sched = Schedule(2, KLogGrowth(2.0), APower(1.1e-4, 0.25),
                     DShiftedPower(2.1, 5.75, 1.2))
    boxes, _ = build_layered(sched, 20)
    assert assert_matches_all_pairs(boxes, sched).passed


def test_sweep_matches_all_pairs_stacked():
    sched = stacked_schedule(extra=True)
    boxes, _ = build_layered(sched, 3, "stacked")
    assert assert_matches_all_pairs(boxes, sched).passed


def test_sweep_matches_all_pairs_tampered():
    # boxes 6 and 13 moved onto boxes 8 and 11 of their levels, or box 6
    # moved against box 5
    boxes, _ = build_layered(S2, 6)
    overlap = with_values(boxes, [5, 12], lo=boxes.lo[[7, 10]])
    touching = with_values(boxes, 5, lo=(boxes.lo[4, 0] + boxes.side[4], boxes.lo[4, 1]))
    for tampered in (overlap, touching):
        assert not assert_matches_all_pairs(tampered, S2).passed
    # overlap pairs come in position order, each with the smaller j first
    report = disjointness_certificate(overlap, S2)
    assert report.overlap_pairs == ((6, 8), (11, 13))


def test_overlap_across_the_level_boundary():
    # the first box of level 3 lifted into the first box of level 2: the
    # levels are not stacked, which fails the certificate without a search
    # for the pair across them that the oracle finds
    boxes, _ = build_layered(S2, 4)
    base = boxes.lo[1]  # box 2, the first of level 2
    lifted = with_values(boxes, 4, lo=(base[0] + 0.1, base[1] + 0.1))
    report = assert_matches_all_pairs(lifted, S2, exact=False)
    assert report.overlap_pairs == ()
    assert report.failure == "levels 2 and 3 not stacked"
    assert all_pairs_certificate(lifted, S2).overlap_pairs == ((2, 5),)


def test_meeting_levels_without_an_overlap():
    # level 2 stands between the two boxes of level 1, one unit from each:
    # no pair meets, but the levels are not stacked, and that fails
    boxes = squares([(0.0, 0.0), (4.0, 0.0), (2.0, 0.0), (2.0, 2.5)],
                    [1.0, 1.0, 1.0, 1.0], layers=[1, 1, 2, 2])
    report = assert_matches_all_pairs(boxes, S2, exact=False)
    assert report.overlap_pairs == ()
    assert report.cross.min_distance.tolist() == [0.0]
    assert report.failure == "levels 1 and 2 not stacked"
    assert report.in_layer.min_distance.tolist() == [3.0, 1.5]
    assert all_pairs_certificate(boxes, S2).cross.min_distance.tolist() == [1.0]


def test_interleaved_levels_fail_below_any_floor():
    # two one-box levels side by side at one height, under a floor far
    # below the rounding of the placement: only the stacking test fails them
    sched = Schedule(2, KTable([1.0, 2.0]), ATable([1e-4] * 2), DTable([1e-300]))
    boxes = squares([(0.0, 0.0), (2.0, 0.0)], [1.0, 1.0], layers=[1, 2])
    report = assert_matches_all_pairs(boxes, sched, exact=False)
    (row,) = report.cross
    assert row.min_distance == 0.0 and row.required - row.min_distance <= row.rounding
    assert report.failure == "levels 1 and 2 not stacked"


def test_inverted_box_does_not_hide_an_overlap():
    # level 2 sits above level 1, not under it: level 3 clears level 2 by
    # 3.5 but reaches up into level 1, and only the lowest bottom of all
    # levels above it, not the bottom of the level right above, shows that
    boxes = squares([(0.0, 0.0), (0.0, 5.0), (0.0, 0.5)], [1.0, 1.0, 1.0],
                    layers=[1, 2, 3])
    report = assert_matches_all_pairs(boxes, S2, exact=False)
    assert report.cross.min_distance.tolist() == [0.0, 0.0]
    assert report.failure == "levels 1 and 2 not stacked"
    assert all_pairs_certificate(boxes, S2).overlap_pairs == ((1, 3),)


def test_stacked_column_with_one_touching_pair():
    # box 3 raised until its top is box 2's bottom: closures that share a
    # face, across two levels of one box each, are not stacked
    sched = stacked_schedule(extra=True)
    boxes, _ = build_layered(sched, 3, "stacked")
    bottom = boxes.lo[1, 1]
    touching = with_values(boxes, 2, lo=(0.0, bottom - boxes.side[2]))
    assert touching.hi[2, 1] == bottom
    report = assert_matches_all_pairs(touching, sched)
    assert report.overlap_pairs == ()
    assert report.cross.min_distance.tolist()[1] == 0.0
    assert report.failure == "levels 2 and 3 not stacked"


def test_stacked_certificate_memory_is_linear():
    # 2,000 one-box levels: a table of their pairs has about two million
    # rows (292 MiB traced), the stacking lemma one row per level
    count = 2000
    sched = Schedule(2, KTable([10.0 + (j - 1) for j in range(1, count + 1)]),
                     APower(1e-4, 0.25), DTable([1.0 / (i + 1) ** 2 for i in range(1, count)]))
    boxes, _ = build_layered(sched, count, "stacked")
    tracemalloc.start()
    try:
        report = disjointness_certificate(boxes, sched)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert report.passed and len(report.cross) == count - 1


_COORD = st.one_of(st.integers(-6, 6).map(lambda v: v / 4.0),
                   st.floats(-2.0, 2.0, allow_nan=False))
_SIDE = st.one_of(st.sampled_from([0.25, 0.5, 1.0]),
                  st.floats(0.0, 1.5, exclude_min=True))


@st.composite
def box_lists(draw):
    n = draw(st.integers(2, 4))
    count = draw(st.integers(1, 14))
    layer = sorted(draw(st.integers(1, 4)) for _ in range(count))
    rows = [(draw(_SIDE), [draw(_COORD) for _ in range(n)]) for _ in range(count)]
    side, lo = zip(*rows)
    return n, make_boxes(range(1, count + 1), layer, side, lo, gap=[0.1] * count,
                         k=[10.0] * count, a=[1e-4] * count)


@st.composite
def level_stacks(draw):
    """A column of one-box levels (no in-layer gap to meet), each placed
    f d_i under the one above, for f in [0, 2] or one of 1, 0 (touching)
    and -1 (interleaved), and shifted sideways by up to one unit."""
    n = draw(st.integers(2, 4))
    count = draw(st.integers(1, 8))
    d = paddings(demo_schedule(n), range(1, count)).tolist()
    factor = st.one_of(st.sampled_from([1.0, 0.0, -1.0]), st.floats(0.0, 2.0))
    shift = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))
    side, lo, bottom = [], [], 0.0
    for i in range(count):
        side.append(draw(st.floats(0.0, 1.0, exclude_min=True)))
        if i:
            bottom = bottom - side[i] - draw(factor) * d[i - 1]
        lo.append([draw(shift) for _ in range(n - 1)] + [bottom])
    return n, make_boxes(range(1, count + 1), range(1, count + 1), side, lo,
                         gap=[0.1] * count, k=[10.0] * count, a=[1e-4] * count)


@settings(max_examples=150, deadline=None)
@given(st.one_of(box_lists(), level_stacks()))
def test_sweep_matches_all_pairs_random_boxes(case):
    n, boxes = case
    assert_matches_all_pairs(boxes, demo_schedule(n), exact=False)
    if len(boxes) > 1:
        scale = _feature_scale(boxes)
        apertures = [side * gap for side, gap in zip(boxes.side.tolist(),
                                                     boxes.gap.tolist()) if gap > 0.0]
        assert scale == min(apertures + [all_pairs_min_distance(boxes)])


@settings(max_examples=150, deadline=None)
@given(box_lists(), st.one_of(st.none(), st.floats(0.0, 2.0)),
       st.sampled_from([1, 5, 1 << 16]))
def test_sweep_drops_only_pairs_proved_apart(case, delta, chunk):
    # the contract of `_sweep_pairs`, pair by pair: every pair of one level
    # comes out once or is apart (strictly, or farther than delta), and no
    # pair of two levels comes out
    _, boxes = case
    lo, hi, level = boxes.lo, boxes.hi, boxes.layer
    reach = np.full(len(lo), 0.0 if delta is None else _reach(delta))
    seen = set()
    with mock.patch.object(trapcert.geometry, "_PAIR_CHUNK", chunk):
        for i, k in _sweep_pairs(lo, hi, reach, level):
            assert len(i) <= max(chunk, len(lo))
            for a, b in zip(i.tolist(), k.tolist()):
                assert level[a] == level[b] and (min(a, b), max(a, b)) not in seen
                seen.add((min(a, b), max(a, b)))
    for a in range(len(lo)):
        for b in range(a + 1, len(lo)):
            if level[a] != level[b] or (a, b) in seen:
                continue
            if delta is None:
                assert ((hi[a] < lo[b]) | (hi[b] < lo[a])).any()
            else:
                assert _pair_distances(lo[[a]], hi[[a]], lo[[b]], hi[[b]])[0] > delta


def squares(corners, sides, layers=None):
    """Level-2 squares (or on `layers`) with the given lower corners and sides."""
    count = len(corners)
    return make_boxes(range(1, count + 1), layers or [2] * count, sides, corners,
                      gap=[0.1] * count, k=[10.0] * count, a=[1e-4] * count)


def partition_axes(boxes, reach=0.0):
    """The axes of `_partition`'s passes and the groups it leaves, as sets
    of j, at the same reach for every box."""
    axes = []
    sorted_on = trapcert.geometry._sorted_on

    def spy(lo, hi, reach, rows, group, ax):
        axes.append(ax)
        return sorted_on(lo, hi, reach, rows, group, ax)

    with mock.patch.object(trapcert.geometry, "_sorted_on", spy):
        rows, group = _partition(boxes.lo, boxes.hi, np.full(len(boxes), reach),
                                 np.zeros_like(boxes.j))
    groups = {}
    for r, g in zip(rows.tolist(), group.tolist()):
        groups.setdefault(g, set()).add(int(boxes.j[r]))
    return axes, sorted(groups.values(), key=min)


def test_partition_splits_on_a_second_pass():
    # box 3 spans the heights of boxes 1 and 2, so the vertical pass keeps
    # all three together; the pass along x splits box 3 off, and only the
    # second vertical pass splits box 1 from box 2
    boxes = squares([(0.0, 0.0), (0.0, 2.0), (5.0, 0.0)], [1.0, 1.0, 3.0])
    assert partition_axes(boxes) == ([1, 0, 1], [])
    assert not assert_matches_all_pairs(boxes, S2).overlap_pairs
    # in three dimensions: box 3 bridges boxes 1 and 2 along x until the
    # pass along y splits it off, and the second pass along x splits them
    cubes = make_boxes([1, 2, 3], [2, 2, 2], [1.0, 1.0, 3.0],
                       [(0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (0.0, 5.0, 0.0)],
                       gap=[0.1] * 3, k=[10.0] * 3, a=[1e-4] * 3)
    assert partition_axes(cubes) == ([2, 0, 1, 2, 0], [])
    assert not assert_matches_all_pairs(cubes, demo_schedule(3)).overlap_pairs


def test_partition_keeps_boxes_touching_on_their_only_separating_axis():
    # box 2 sits on box 1 (y = 1 is both a top and a bottom): the second
    # vertical pass must not cut there, and the pair is an overlap
    boxes = squares([(0.0, 0.0), (0.0, 1.0), (5.0, 0.0)], [1.0, 1.0, 3.0])
    assert partition_axes(boxes) == ([1, 0, 1], [{1, 2}])
    report = assert_matches_all_pairs(boxes, S2)
    assert report.overlap_pairs == ((1, 2),)
    # touching along x, the axis that splits last
    boxes = squares([(0.0, 0.0), (1.0, 0.0), (0.0, 5.0)], [1.0, 1.0, 0.5])
    assert partition_axes(boxes)[1] == [{1, 2}]
    assert assert_matches_all_pairs(boxes, S2).overlap_pairs == ((1, 2),)


def test_partition_merges_reach_widened_chains():
    # the level's first pair is 0.5 apart, so every row is widened by 0.5:
    # boxes 3, 4 and 5 stand in a chain of gaps 0.5 and 0.25 and share one
    # group although boxes 3 and 5 are 1.75 apart; box 6, 0.5 + 2^-48 past
    # box 5 (one ulp past the upward-rounded cut-off), stays apart, and the
    # minimum is the chain's inner gap
    corners = [(0.0, 0.0), (1.5, 0.0), (10.0, 0.0), (11.5, 0.0), (12.75, 0.0),
               (14.25 + 2.0 ** -48, 0.0)]
    boxes = squares(corners, [1.0] * 6)
    assert partition_axes(boxes, _reach(0.5))[1] == [{1, 2}, {3, 4, 5}]
    assert partition_axes(boxes)[1] == []  # unwidened, every gap splits
    report = assert_matches_all_pairs(boxes, S2)
    assert report.in_layer.min_distance.tolist() == [0.25]
    # the chain's minimum is found however its boxes are numbered
    shuffled = squares([corners[r] for r in [4, 0, 5, 2, 1, 3]], [1.0] * 6)
    assert assert_matches_all_pairs(shuffled, S2).in_layer.tobytes() == (
        report.in_layer.tobytes())


@pytest.mark.parametrize("n, layers, in_level_max", [(4, 6, 300), (9, 2, 30_000)])
def test_sweep_work_counts(monkeypatch, n, layers, in_level_max):
    # one sweep, for the overlaps and minima inside the levels, leaves a few
    # candidates per level (one-axis sweeps had 522,602 overlap and 183,219
    # minimum candidates at n=4, 7.2M of each at n=9); the levels are
    # stacked, so no pair across them is swept
    sweep, counts = _sweep_pairs, []

    def counting(*args):
        chunks = list(sweep(*args))
        counts.append(sum(len(i) for i, _ in chunks))
        return iter(chunks)

    monkeypatch.setattr(trapcert.geometry, "_sweep_pairs", counting)
    sched = demo_schedule(n)
    boxes, _ = build_layered(sched, layers)
    assert disjointness_certificate(boxes, sched).passed
    (in_level,) = counts
    assert 0 < in_level <= in_level_max


def test_feature_scale_matches_all_pairs():
    for n, layers in [(2, 5), (2, 12), (3, 3)]:
        boxes, _ = build_layered(demo_schedule(n), layers)
        pitch = all_pairs_min_distance(boxes)
        apertures = (boxes.side * boxes.gap).tolist()
        assert _feature_scale(boxes) == min(apertures + [pitch])


# -------------------------------------------------------------------
# connectivity certificate and flood-fill oracle
# -------------------------------------------------------------------

def connectivity(boxes, summary, sched=S2):
    """The connectivity facts of `boxes`, read from their packing report."""
    return connectivity_certificate(boxes, summary, disjointness_certificate(boxes, sched))


def test_connectivity_facts_demo():
    boxes, summary = build_layered(S2, 3)
    report = connectivity(boxes, summary)
    assert report.passed
    assert [f.name for f in report.facts] == [
        "positive_gap_fractions",
        "strict_height_ordering",
        "finite_horizontal_extent",
        "finite_prefix_above_levels",
    ]


def test_connectivity_fails_on_sealed_boxes():
    boxes, summary = build_layered(S2, 3)
    sealed = dataclasses.replace(boxes, gap=np.zeros(len(boxes)))
    report = connectivity(sealed, summary)
    assert not report.passed
    assert not report.facts[0].passed


def test_connectivity_fails_on_a_touching_column():
    # one box a level, box 3 raised until its top is box 2's bottom: the
    # levels touch, so the stacking row under level 2 is 0 and fails
    sched = stacked_schedule(extra=True)
    boxes, summary = build_layered(sched, 3, "stacked")
    touching = with_values(boxes, 2, lo=(0.0, boxes.lo[1, 1] - boxes.side[2]))
    facts = connectivity(touching, summary, sched).facts
    assert [(f.passed, f.detail) for f in facts[1::2]] == [
        (False, "min inter-level gap 0"), (False, "non-prefix set above level 2")]
    assert connectivity(boxes, summary, sched).passed


def _stacking_rows_by_loops(boxes):
    """(level above, row) per level below the first, box by box: the gap
    from the level's highest top to the lowest bottom above it, as a
    computed distance."""
    bottom, top = {}, {}
    for layer, base, side in zip(boxes.layer.tolist(), boxes.lo[:, -1].tolist(),
                                 boxes.side.tolist()):
        bottom[layer] = min(bottom.get(layer, math.inf), base)
        top[layer] = max(top.get(layer, -math.inf), base + side)
    layers = sorted(bottom)
    return [(la, math.sqrt(max(min(bottom[l] for l in layers[:r + 1]) - top[lb], 0.0) ** 2))
            for r, (la, lb) in enumerate(zip(layers, layers[1:]))]


def _prefix_fact_by_sets(boxes):
    """finite_prefix_above_levels as it was measured before it read the
    stacking rows: for every level cut, the set of levels with a box above
    it must be the level prefix."""
    rows = list(zip(boxes.layer.tolist(), boxes.lo[:, -1].tolist(),
                    boxes.side.tolist()))
    layers = sorted({layer for layer, _, _ in rows})
    height, top = {}, {}
    for layer, base, side in rows:
        height[layer] = base
        top[layer] = max(top.get(layer, -math.inf), base + side)
    for la, lb in zip(layers, layers[1:]):
        cut = height[la] - (height[la] - top[lb])
        above = {layer for layer, base, _ in rows if base > cut}
        if above != {l for l in layers if l <= la}:
            return False
    return True


# the last row of level 3 in the 5-layer demo build: relabelled as level 4,
# the levels still follow the rows
LAST_OF_LEVEL_3 = 8


def test_connectivity_prefix_fact_on_tampered_boxes():
    boxes, summary = build_layered(S2, 5)
    lifted = with_values(boxes, 8, lo=(boxes.lo[8, 0], 0.5))
    relabelled = with_values(boxes, LAST_OF_LEVEL_3, layer=4)
    sunk = with_values(boxes, 0, lo=(0.0, -2.3))
    verdicts = []
    for tampered in (boxes, lifted, relabelled, sunk):
        fact = connectivity(tampered, summary).facts[3]
        assert fact.name == "finite_prefix_above_levels"
        # the verdict of the fact as it was measured before; the detail
        # names the level above the first row that is not stacked
        assert fact.passed == _prefix_fact_by_sets(tampered)
        failing = [la for la, g in _stacking_rows_by_loops(tampered) if not g > 0.0]
        assert fact.detail == (f"non-prefix set above level {failing[0]}" if failing
                               else "boxes above any level cut form the index prefix")
        verdicts.append(fact.passed)
    assert verdicts == [True, False, False, False]
    assert connectivity(lifted, summary).facts[3].detail == (
        "non-prefix set above level 2")


def _first_facts_by_loops(boxes):
    """positive_gap_fractions and strict_height_ordering recomputed box by
    box, as (passed, detail) pairs."""
    bad = [j for j, gap in zip(boxes.j.tolist(), boxes.gap.tolist())
           if not gap > 0.0][:5]
    gaps = [g for _, g in _stacking_rows_by_loops(boxes)]
    return [(not bad, "all boxes" if not bad
             else f"zero/negative aperture at j in {bad}"),
            (all(g > 0.0 for g in gaps),
             f"min inter-level gap {min(gaps):.6g}" if gaps else "single level")]


def _height_ordering_by_levels(boxes):
    """strict_height_ordering as it was measured before it read the
    stacking rows: the base of each level's last box above the highest top
    of the next level."""
    height, top = {}, {}
    for layer, base, side in zip(boxes.layer.tolist(), boxes.lo[:, -1].tolist(),
                                 boxes.side.tolist()):
        height[layer] = base
        top[layer] = max(top.get(layer, -math.inf), base + side)
    layers = sorted(height)
    return all(height[la] - top[lb] > 0.0 for la, lb in zip(layers, layers[1:]))


def test_connectivity_facts_match_per_box_loops():
    boxes, summary = build_layered(S2, 5)
    cases = [boxes, take(boxes, [4, 5]), with_values(boxes, [3, 9, 12], gap=0.0),
             with_values(boxes, LAST_OF_LEVEL_3, layer=4),
             with_values(boxes, 0, lo=(0.0, -2.3)),
             dataclasses.replace(boxes, gap=np.zeros(len(boxes)))]
    for tampered in cases:
        facts = connectivity(tampered, summary).facts[:2]
        assert [(f.passed, f.detail) for f in facts] == _first_facts_by_loops(tampered)
        assert facts[1].passed == _height_ordering_by_levels(tampered)


def _raster_by_loops(boxes, resolution):
    """The flood-fill raster drawn box by box in Python floats: the
    reference for the array route of `_blocked_raster`."""
    lo, hi = boxes.lo.tolist(), boxes.hi.tolist()
    pad = max(boxes.side.tolist()) + 2.0 * resolution
    x0 = min(c[0] for c in lo) - pad - 0.5 * resolution
    y0 = min(c[1] for c in lo) - pad - 0.5 * resolution
    nx = int(math.ceil((max(c[0] for c in hi) + pad - x0) / resolution)) + 1
    ny = int(math.ceil((max(c[1] for c in hi) + pad - y0) / resolution)) + 1
    grid = np.zeros((ny + 4, nx + 4), dtype=np.uint8)
    grid[[0, -1], :] = 1
    grid[:, [0, -1]] = 1
    blocked = grid[2:-2, 2:-2]

    def cell(v, origin):
        return int(math.floor((v - origin) / resolution))

    for (t1, t2), s, gap in zip(lo, boxes.side.tolist(), boxes.gap.tolist()):
        for xa, xb, y in ((t1, t1 + s, t2 + s), (t1 + gap * s, t1 + s, t2)):
            r, ca, cb = cell(y, y0), max(cell(xa, x0), 0), min(cell(xb, x0), nx - 1)
            if 0 <= r < ny and ca <= cb:
                blocked[r, ca:cb + 1] = 1
        for x in (t1, t1 + s):
            c, ra, rb = cell(x, x0), max(cell(t2, y0), 0), min(cell(t2 + s, y0), ny - 1)
            if 0 <= c < nx and ra <= rb:
                blocked[ra:rb + 1, c] = 1
    return grid.tobytes(), nx + 4


@pytest.mark.parametrize("layers", [3, 5])
def test_raster_matches_per_box_loops(layers):
    boxes, _ = build_layered(S2, layers)
    res = suggested_resolution(boxes)
    for case in (boxes, with_values(boxes, -2, gap=0.0),
                 dataclasses.replace(boxes, gap=np.zeros(len(boxes)))):
        for r in (res, 0.77 * res):
            cells, width = _blocked_raster(case, r)
            assert (bytes(cells), width) == _raster_by_loops(case, r)


def test_flood_fill_demo_connected():
    boxes, _ = build_layered(S2, 3)
    assert flood_fill_oracle(boxes, suggested_resolution(boxes))


def test_flood_fill_sealed_disconnected():
    boxes, _ = build_layered(S2, 3)
    sealed = dataclasses.replace(boxes, gap=np.zeros(len(boxes)))
    # sealed boxes have no aperture feature; the pitch still sets the scale
    assert not flood_fill_oracle(sealed, suggested_resolution(sealed))


@pytest.mark.parametrize("layers", [3, 5])
@pytest.mark.parametrize("sealed", ["none", "one", "all"])
def test_flood_fill_matches_scipy_labeling(layers, sealed):
    ndimage = pytest.importorskip("scipy.ndimage")
    boxes, _ = build_layered(S2, layers)
    if sealed == "one":
        boxes = with_values(boxes, -2, gap=0.0)
    elif sealed == "all":
        boxes = dataclasses.replace(boxes, gap=np.zeros(len(boxes)))
    res = suggested_resolution(boxes)
    cells, width = _blocked_raster(boxes, res)
    free = np.frombuffer(cells, dtype=np.uint8).reshape(-1, width) == 0
    _, components = ndimage.label(free)  # 4-connected in 2-d
    assert flood_fill_oracle(boxes, res) == (components == 1)
    assert (components == 1) == (sealed == "none")


def test_flood_fill_resolution_guard():
    boxes, _ = build_layered(S2, 3)
    scale_res = suggested_resolution(boxes)
    with pytest.raises(ResolutionTooCoarseError):
        flood_fill_oracle(boxes, scale_res * 10)
    with pytest.raises(ResolutionTooCoarseError):
        flood_fill_oracle(boxes, 0.0)


def test_flood_fill_dimension_guard():
    boxes, _ = build_layered(demo_schedule(3), 1)
    with pytest.raises(GeometryError):
        flood_fill_oracle(boxes, 0.01)


def test_flood_fill_single_open_box():
    box = make_boxes(j=[1], layer=[1], side=[1.0], lo=[(0.0, 0.0)], gap=[0.3],
                     k=[math.pi * math.sqrt(2)], a=[1e-4])
    assert flood_fill_oracle(box, 0.3 * 0.9 / 4.5)
    sealed = with_values(box, 0, gap=0.0)
    with pytest.raises(GeometryError):
        flood_fill_oracle(sealed, 0.01)  # no positive feature at all


# -------------------------------------------------------------------
# box-count bound
# -------------------------------------------------------------------

@pytest.mark.parametrize("n, layers, count", [(2, 10_000, 435_585_210),
                                              (32, 2, 617_673_396_283_948)])
def test_build_refuses_oversize_plans_before_building(monkeypatch, n, layers, count):
    def no_boxes(*args):
        raise AssertionError("a box was built")

    monkeypatch.setattr(trapcert.geometry, "derived_params", no_boxes)
    monkeypatch.setattr(trapcert.geometry, "derived_columns", no_boxes)
    monkeypatch.setattr(trapcert.geometry, "_grid", no_boxes)
    with pytest.raises(GeometryError, match=f"{layers} layers hold {count} boxes"):
        build_layered(demo_schedule(n), layers)


def test_box_count_bound_is_inclusive(monkeypatch):
    monkeypatch.setattr(trapcert.geometry, "MAX_BOXES", 16)
    boxes, _ = build_layered(S2, 4)  # 1 + 3 + 5 + 7 boxes
    assert len(boxes) == 16
    with pytest.raises(GeometryError, match="more than the 16 one build allows"):
        build_layered(S2, 5)
