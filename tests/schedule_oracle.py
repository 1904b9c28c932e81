"""The per-box schedule evaluation as it ran before the range functions.

`derived_params` here is the scalar reference: one Python evaluation per
box index, in the order wavenumber, target, gap fraction.  The tests
require `sequences.derived_columns` (and the one-element calls built on
it) to equal it bit for bit, and to raise the same exception with the same
message on the first failing box.  `padding` is the same reference for
`sequences.paddings`.  `layer_plans` is the per-level loop that
`geometry.layer_plans` replaced, for both layouts, and `build_stacked` the
per-box stacked builder that the one builder `geometry.build_layered`
replaced, kept as its stacked reference.
"""

import math

import numpy as np

from trapcert.geometry import Boxes, GeometryError, GeometrySummary
from trapcert.sequences import (
    ATable,
    DerivedParams,
    DTable,
    KTable,
    Schedule,
    ScheduleError,
    derived_columns,
    paddings,
    sidelengths,
    volume_sum,
)

_E_E = math.exp(math.e)
_APERTURE_C = (3.0 / (2.0 * math.pi**2)) ** (1.0 / 3.0)


def _check_index(j: int, what: str) -> None:
    if j < 1:
        raise ScheduleError(f"{what} index must be >= 1, got {j}")


def _table_lookup(values, j: int, what: str) -> float:
    if j > len(values):
        raise ScheduleError(
            f"{what} table has {len(values)} entries, index {j} queried; "
            "tables are never extrapolated"
        )
    return values[j - 1]


def growth_value(n: int, c: float, j: int) -> float:
    return (c * (j * math.log(j + math.e)) ** (1.0 / n)
            * math.log(math.log(j + _E_E)) ** 2)


def wavenumber(sched: Schedule, j: int) -> float:
    _check_index(j, "wavenumber")
    fam = sched.k_family
    if isinstance(fam, KTable):
        return _table_lookup(fam.values, j, "wavenumber")
    return growth_value(sched.n, fam.c, j)


def target_norm(sched: Schedule, j: int) -> float:
    _check_index(j, "target")
    fam = sched.a_family
    if isinstance(fam, ATable):
        return _table_lookup(fam.values, j, "target")
    return fam.amplitude * float(j) ** fam.exponent


def padding(sched: Schedule, i: int) -> float:
    _check_index(i, "padding")
    fam = sched.d_family
    if isinstance(fam, DTable):
        return _table_lookup(fam.values, i, "padding")
    return fam.amplitude * (i + fam.shift) ** (-fam.exponent)


def gap_fraction(n: int, k: float, a: float) -> float:
    if n < 2:
        raise ScheduleError(f"dimension must be >= 2, got {n}")
    if not (k > 0.0 and a > 0.0):
        raise ScheduleError(f"gap fraction needs k > 0 and a > 0, got k={k}, a={a}")
    x = 1.0 + 2.0 * k * math.sqrt(2.0 * k * k * a * a + a)
    if not math.isfinite(x):
        raise ScheduleError(
            f"design identity 1 + 2k sqrt(2k^2 a^2 + a) leaves binary64 at "
            f"n={n}, k={k}, a={a}")
    eps = _APERTURE_C * x ** (-2.0 / (3.0 * n - 3.0))
    if not 0.0 < eps < 1.0:
        raise ScheduleError(
            f"gap fraction {eps} left (0,1) at n={n}, k={k}, a={a}; "
            "the schedule violates its own hypotheses"
        )
    return eps


def derived_params(sched: Schedule, j: int) -> DerivedParams:
    k = wavenumber(sched, j)
    a = target_norm(sched, j)
    return DerivedParams(
        j=j, k=k,
        ell=math.pi * math.sqrt(sched.n) / k,
        eps=gap_fraction(sched.n, k, a),
        a=a,
    )


def layer_plans(sched: Schedule, limit, layout="layered"):
    """The level loop as it ran before the plan columns: one tuple (i, count,
    start, cols, height, max_side, pitch, width) per level 1..limit (all
    levels the tables allow when limit is None), the height as the running
    (H - ell) - d, raising at the first level that leaves binary64.  A
    stacked level is one box whose pitch is its side, so it reads no
    padding of its own, and a stack runs one level past the padding table."""
    stacked = layout == "stacked"
    k_end = len(sched.k_family.values) if isinstance(sched.k_family, KTable) else math.inf
    d_end = len(sched.d_family.values) if isinstance(sched.d_family, DTable) else math.inf
    rows = []
    b, h = 1, 0.0
    while (limit is None or len(rows) < limit) and len(rows) < d_end + stacked:
        i = len(rows) + 1
        cols = 1 if stacked else int(math.floor(i * math.log(i + math.e)))
        count = cols ** (sched.n - 1)
        if b + count - 1 > k_end:
            break
        ell = math.pi * math.sqrt(sched.n) / wavenumber(sched, b)
        if i > 1:
            h = h - ell - padding(sched, i - 1)
        pitch = ell if stacked else ell + padding(sched, i) / math.log(i + math.e)
        if not all(map(math.isfinite, (ell, pitch, cols * pitch, h))):
            raise ScheduleError(f"level {i} leaves binary64: side {ell!r}, "
                                f"pitch {pitch!r}, height {h!r}")
        rows.append((i, count, b, cols, h, ell, pitch, cols * pitch))
        b += count
    return rows


def build_stacked(sched: Schedule, count: int):
    """The stacked builder as it ran before the one builder: a single
    vertical column, t_1 = 0, t_{j+1} = t_j - (ell_{j+1} + d_j) e_n, with its
    own depth loop, finiteness gate and table-length rule (box j needs k_j
    and d_(j-1); the first box that cannot be built raises, its own checks
    before its padding).  Returns (Boxes, GeometrySummary)."""
    if count < 1:
        raise GeometryError(f"count must be >= 1, got {count}")
    if not isinstance(sched.k_family, KTable):
        raise GeometryError(
            "stacked layout needs summable 1/k_j; no tail bound is "
            "registrable for the log-growth family (divergent p-series), "
            "use an explicit wavenumber table"
        )
    d_end = len(sched.d_family.values) if isinstance(sched.d_family, DTable) else math.inf
    last = min(len(sched.k_family.values), d_end + 1)
    k, side, gap, a = derived_columns(sched, range(1, min(count, d_end + 2) + 1))
    tail = sidelengths(sched, range(count + 1, last + 1))
    sides = side.tolist() + tail.tolist()
    pads = paddings(sched, range(1, len(sides))).tolist()
    depths = []
    depth = 0.0
    for j, side_j in enumerate(sides, start=1):
        if j > 1:
            depth = depth - side_j - pads[j - 2]
        if not (math.isfinite(side_j) and math.isfinite(depth)):
            raise ScheduleError(f"box {j} leaves binary64: side {side_j!r}, "
                                f"depth {depth!r}")
        depths.append(depth)
    lo = np.zeros((count, sched.n))
    lo[:, -1] = depths[:count]
    boxes = Boxes(j=np.arange(1, count + 1), layer=np.arange(1, count + 1), side=side,
                  gap=gap, k=k, a=a, lo=lo)
    vol_lo = volume_sum(sched.n, boxes.side, 1, "built volume")
    vol_tail = volume_sum(sched.n, tail, count + 1, "volume tail")
    # k increases, so box 1 is the widest
    try:
        r_gamma = math.sqrt((sched.n - 1) * sides[0] ** 2 + max(sides[0], -depth) ** 2)
    except OverflowError:
        r_gamma = math.inf
    if r_gamma == math.inf:
        raise ScheduleError(f"circumradius bound leaves binary64: width {sides[0]!r} "
                            f"(level 1), lowest height {depth!r}")
    if not math.isfinite(vol_lo + vol_tail):
        raise ScheduleError(f"volume enclosure leaves binary64: built volume "
                            f"{vol_lo!r} plus tail {vol_tail!r}")
    return boxes, GeometrySummary(dimension=sched.n, layout="stacked", box_count=count,
                                  horizontal_extent=sides[0], height_interval=(depth, depth),
                                  volume_interval=(vol_lo, vol_lo + vol_tail),
                                  r_gamma_upper=r_gamma)
