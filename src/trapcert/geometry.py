"""Layered and stacked packings of open boxes with certified summaries.

The layered arrangement places, on level i at height H_i <= 0, a grid of
floor(i ln(i+e))^(n-1) boxes: columns at pitch h_i = L_i + d_i/ln(i+e) along
each horizontal axis, where L_i is the sidelength of the first (largest) box
of the level.  Heights recurse by H_{i+1} = H_i - ell_{B_{i+1}} - d_i, so
consecutive levels are separated by exactly d_i while levels keep shrinking
and accumulate at a finite depth.  The stacked arrangement is the same plan
with one box per level (one column, pitch = side), so box j sits at
t_{j+1} = t_j - (ell_{j+1} + d_j) e_n; its depth is finite only for summable
1/k_j, so it is only available for explicit wavenumber tables.  One builder,
`build_layered`, places both from the level plans.

Everything downstream hangs off two kinds of guarantees produced here:

* exact structural certificates (pairwise closure-disjointness by strict
  coordinate comparison, quantitative gap floors, connectivity facts), and
* enclosures for the quantities of the infinite object (depth of the
  accumulation point, total volume, circumradius), obtained by computing a
  few hundred levels explicitly and bounding the remainder analytically.

A built arrangement is one `Boxes` of read-only columns, one row per box.
All coordinates are plain binary64 and every emitted number is a fixed
arithmetic expression of schedule values, so rebuilding reproduces the
geometry bit for bit: arrays carry only correctly rounded operations
(+ - * /, sqrt, comparisons, min/max), while logs and powers stay Python
float operations, per element, chunk by chunk (numpy's pow and log may
differ in the last bit), so a 256-layer build holds under 1 MiB beside its
columns.

The packing certificate forms no pairs of boxes.  Inside a level, a grid
lemma: if its boxes share one base height, take each tuple of per-axis
columns (their distinct horizontal corners) exactly once, and the highest
top of each column lies strictly below the next column, then any two are
strictly apart and the least separation of adjacent columns is the
level's minimum distance; `build_layered` lays each level out so, as
pitch x column.  Across levels, a stacking lemma: with the highest top of
each level strictly below the lowest bottom of every level above it, one
gap per level bounds every pair across it.  Every distance is monotone
under rounding, so the certificate reports the bits of an all-pairs pass
inside the levels, from sorts and O(N) passes in O(N) memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import List, Optional, Tuple

import numpy as np

from trapcert.sequences import (
    DShiftedPower,
    DTable,
    KLogGrowth,
    KTable,
    Schedule,
    ScheduleError,
    derived_columns,
    derived_params,  # not called here; bench/tracer.py wraps this name
    padding_tail_bound,
    paddings,
    sidelengths,
    volume_sum,
    volume_tail_bound,
)

# the analytic layer-tail bounds below are proved for level indices >= 26;
# extending at least this far also puts the slowly-decaying prefactors well
# into their monotone regime
_MIN_EXTENSION = 256

# most boxes one build may hold (32 MiB a column), checked on the layer plans
MAX_BOXES = 1 << 22


class GeometryError(ValueError):
    """Construction or certification cannot proceed as requested."""


class ResolutionTooCoarseError(GeometryError):
    """Raster resolution cannot resolve the narrowest geometric feature."""


@dataclass(frozen=True, eq=False)
class Boxes:
    """Open boxes as read-only columns, one row per box in index order.

    What the builder guarantees is checked here, so every consumer may
    rely on it: at least one box; one entry per box in every column, with
    corners `lo` of shape (N, n), n >= 2; `j` strictly increasing and
    `layer` nondecreasing, so each level is one run of rows, both in
    [1, MAX_BOXES]; every value and every upper corner lo + side finite;
    every side, k and a positive (no box is flat or inverted) and every gap
    in [0, 1) (0: a sealed box).  Anything else raises GeometryError,
    naming the first failing box.
    """

    j: np.ndarray
    layer: np.ndarray
    side: np.ndarray
    gap: np.ndarray
    k: np.ndarray
    a: np.ndarray
    lo: np.ndarray

    def __post_init__(self) -> None:
        for f in fields(self):
            getattr(self, f.name).flags.writeable = False
        if not len(self.j):
            raise GeometryError("an arrangement needs at least one box")
        if any(c.shape != (len(self.j),) for c in (self.j, self.layer, self.side, self.gap,
                                                     self.k, self.a)):
            raise GeometryError("j, layer, side, gap, k and a need one entry per box")
        if self.lo.ndim != 2 or self.lo.shape[0] != len(self.j) or self.lo.shape[1] < 2:
            raise GeometryError(f"corners of shape {self.lo.shape} for {len(self.j)} "
                                f"boxes, need (N, n) with n >= 2")
        if not (self.j[1:] > self.j[:-1]).all():
            raise GeometryError("box indices j must increase strictly")
        if not (self.layer[1:] >= self.layer[:-1]).all():
            raise GeometryError("levels must not decrease along the rows")
        # a column is finite, or in its domain, iff its extrema are, and lo +
        # side lies between the sums of the extrema of lo and side: no (N, n)
        # array is made, and no per-box one unless a check fails
        columns = (self.j, self.layer, self.side, self.gap, self.k, self.a)
        j, layer = ((c[0], c[-1]) for c in columns[:2])
        side, gap, k, a = ((c.min(), c.max()) for c in columns[2:])
        with np.errstate(over="ignore", invalid="ignore"):
            bounds = [self.lo.min(axis=0) + side[0], self.lo.max(axis=0) + side[1], *gap, *k, *a]
        if not np.isfinite(np.hstack(bounds)).all():
            raise GeometryError("every value and every upper corner must be finite")
        if not (j[0] >= 1 and j[1] <= MAX_BOXES and layer[0] >= 1 and layer[1] <= MAX_BOXES
                and side[0] > 0.0 and k[0] > 0.0 and a[0] > 0.0 and gap[0] >= 0.0
                and gap[1] < 1.0):
            out = np.stack(((self.j < 1) | (self.j > MAX_BOXES),
                            (self.layer < 1) | (self.layer > MAX_BOXES), self.side <= 0.0,
                            (self.gap < 0.0) | (self.gap >= 1.0), self.k <= 0.0, self.a <= 0.0))
            p = int(np.argmax(out.any(axis=0)))
            c = int(np.argmax(out[:, p]))
            need = [f"in [1, {MAX_BOXES}]"] * 2 + ["positive", "in [0, 1)"] + ["positive"] * 2
            raise GeometryError(f"box {self.j[p]}: {('j', 'layer', 'side', 'gap', 'k', 'a')[c]} "
                                f"{columns[c][p].item()!r} is not {need[c]}")

    def __len__(self) -> int:
        return len(self.j)

    @property
    def hi(self) -> np.ndarray:
        """Upper corners, lo + side on every axis."""
        return self.lo + self.side[:, None]


@dataclass(frozen=True)
class GeometrySummary:
    """Certified global data: exact values for the built truncation plus
    enclosures ([lo, hi] pairs) for the infinite arrangement's depth and
    volume, and an upper bound on its circumradius."""

    dimension: int
    layout: str
    box_count: int
    horizontal_extent: float
    height_interval: Tuple[float, float]
    volume_interval: Tuple[float, float]
    r_gamma_upper: float


# -------------------------------------------------------------------
# layer plans
# -------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LayerPlans:
    """Levels 1..L as columns, one entry per level: `i`, the box `count`,
    the `start` index of its first box, the grid's `cols` along each
    horizontal axis, the `height` of its base, the `max_side` of its first
    (largest) box, the `pitch` and the `width` cols * pitch.  Counts and
    starts are Python integers, exact past int64 (at n = 32 the levels past
    the built ones hold about 10^97 boxes); the others are numpy arrays."""

    i: np.ndarray
    count: Tuple[int, ...]
    start: Tuple[int, ...]
    cols: np.ndarray
    height: np.ndarray
    max_side: np.ndarray
    pitch: np.ndarray
    width: np.ndarray

    def __len__(self) -> int:
        return len(self.i)


def layer_plans(sched: Schedule, limit: Optional[int],
                layout: str = "layered") -> LayerPlans:
    """Plans of the levels 1..limit, fewer where the tables cannot supply all
    boxes and the paddings they need (limit None: all of them; a family must
    then be a table).  A layered level i is a grid of floor(i ln(i+e))
    columns along each horizontal axis and needs d_i for its pitch; a
    stacked level is one box whose pitch is its side, so it needs no padding
    of its own and a stack runs one level past the padding table (box j
    needs only d_(j-1)).  Start indices follow from the box counts alone, so
    one wavenumber evaluation gives the sides of every level start.  Any
    other layout raises GeometryError."""
    if layout not in ("layered", "stacked"):
        raise GeometryError(f"layout must be 'layered' or 'stacked', got {layout!r}")
    stacked = layout == "stacked"
    k_end = len(sched.k_family.values) if isinstance(sched.k_family, KTable) else math.inf
    d_end = len(sched.d_family.values) if isinstance(sched.d_family, DTable) else math.inf
    logs: List[float] = []  # ln(i + e), for the column count and the pitch
    cols: List[int] = []
    counts: List[int] = []
    starts: List[int] = []
    if stacked:
        cols = counts = [1] * int(min(k_end, d_end + 1, math.inf if limit is None else limit))
        starts = list(range(1, len(cols) + 1))
    b = 1
    while not stacked and (limit is None or len(cols) < limit) and len(cols) < d_end:
        i = len(cols) + 1
        log_i = math.log(i + math.e)
        c = int(math.floor(i * log_i))
        count = c ** (sched.n - 1)
        if b + count - 1 > k_end:
            break
        logs.append(log_i)
        cols.append(c)
        counts.append(count)
        starts.append(b)
        b += count
    m = len(cols)
    cols_arr = np.array(cols, dtype=np.int64)
    sides = sidelengths(sched, starts)
    pads = paddings(sched, range(1, m + 1 - stacked))
    with np.errstate(over="ignore", invalid="ignore"):
        pitch = sides if stacked else sides + pads / np.array(logs)
        width = cols_arr * pitch
        # H_i = (H_{i-1} - ell_{B_i}) - d_{i-1}, as one left fold over
        # [0, ell_2, d_1, ell_3, d_2, ...]; the last entry is not read
        fold = np.zeros(2 * m)
        fold[1:-1] = np.column_stack((sides[1:], pads[:m - 1])).ravel()
        height = np.subtract.accumulate(fold)[::2]
    bad = np.flatnonzero(~np.isfinite(np.stack((sides, pitch, width, height))).all(axis=0))
    if bad.size:
        p = bad[0]
        raise ScheduleError(f"level {p + 1} leaves binary64: side {sides[p].item()!r}, "
                            f"pitch {pitch[p].item()!r}, height {height[p].item()!r}")
    return LayerPlans(i=np.arange(1, m + 1), count=tuple(counts), start=tuple(starts),
                      cols=cols_arr, height=height, max_side=sides, pitch=pitch, width=width)


# -------------------------------------------------------------------
# analytic layer tails (log-growth wavenumbers + shifted-power paddings)
# -------------------------------------------------------------------

def _layer_tail_constant(sched: Schedule) -> float:
    """C_n, from A_n in the level-start lower bound B_i >= A_n i^n ln^(n-1) i.

    Chain, valid for i >= 26: a level j >= i/2 contributes at least
    (0.9 j ln j)^(n-1) boxes once j ln j >= 10, there are at least i/2 such
    levels below i, and j >= 0.45 i with ln j >= ln(i)/2 turn this into the
    stated power bound with A_n = 0.2025^(n-1)/2.  Feeding B_i into the
    growth floor then gives  ell_{B_i} <= pi sqrt(n)/(c C_n i ln i ln^2 ln i)
    with C_n = (A_n n/2)^(1/n), provided (n/2) ln i >= ln(1/A_n); index 26
    covers that threshold for every n >= 2.
    """
    n = sched.n
    a_n = 0.2025 ** (n - 1) / 2.0
    return (a_n * n / 2.0) ** (1.0 / n)


def _level_side_tail(sched: Schedule, m: int) -> float:
    """Upper bound on sum_{i>m} ell_{B_i} for the parametric families."""
    assert m >= _MIN_EXTENSION
    c_n = _layer_tail_constant(sched)
    c = sched.k_family.c
    return math.pi * math.sqrt(sched.n) / (c * c_n * math.log(math.log(m)))


def _width_tail_bound(sched: Schedule, i0: int) -> float:
    """Upper bound on sup_{i>=i0} of the level width cols_i * h_i."""
    assert i0 > _MIN_EXTENSION
    c_n = _layer_tail_constant(sched)
    c = sched.k_family.c
    d = sched.d_family
    ell_part = (math.pi * math.sqrt(sched.n) * math.log(i0 + math.e)
                / (c * c_n * math.log(i0) * math.log(math.log(i0)) ** 2))
    d_part = d.amplitude * i0 * (i0 + d.shift) ** (-d.exponent)
    return ell_part + d_part


# -------------------------------------------------------------------
# the builder
# -------------------------------------------------------------------

def _grid(cols: int, axes: int) -> np.ndarray:
    """The (cols**axes, axes) column indices of a level, row-major."""
    return np.indices((cols,) * axes).reshape(axes, -1).T


def build_layered(sched: Schedule, layers: int,
                  layout: str = "layered") -> Tuple[Boxes, GeometrySummary]:
    """Boxes of the first `layers` levels of `layout`, in global index
    order, plus the certified summary of the full (possibly infinite)
    arrangement.  More than MAX_BOXES boxes are refused before any box is
    built.  A stack has a finite depth only for summable 1/k_j, which of
    the built-in families only tables certify (log-growth 1/k_j decay like
    j^(-1/n) up to logs, a divergent p-series); a stack too short for
    `layers` names its first box that cannot be built, its own checks
    before its missing padding."""
    if layers < 1:
        raise GeometryError(f"layers must be >= 1, got {layers}")
    if layout == "stacked" and not isinstance(sched.k_family, KTable):
        raise GeometryError("stacked layout needs summable 1/k_j; no tail bound is "
                            "registrable for the log-growth family (divergent p-series), "
                            "use an explicit wavenumber table")
    infinite = (isinstance(sched.k_family, KLogGrowth)
                and isinstance(sched.d_family, DShiftedPower))
    target = max(layers + 1, _MIN_EXTENSION) if infinite else None

    plans = layer_plans(sched, target, layout)
    if len(plans) < layers:
        if layout == "stacked":  # raises at the first box it cannot build
            derived_columns(sched, range(1, len(plans) + 2))
            paddings(sched, [len(plans)])
        raise ScheduleError(
            f"schedule tables support only {len(plans)} complete layers, "
            f"{layers} requested"
        )

    # boxes are numbered from 1
    j_built = plans.start[layers - 1] + plans.count[layers - 1] - 1
    if j_built > MAX_BOXES:
        raise GeometryError(f"{layers} layers hold {j_built} boxes, more than "
                            f"the {MAX_BOXES} one build allows")
    k, side, gap, a = derived_columns(sched, range(1, j_built + 1))
    # each level's corner (0, ..., 0, height), once per box of the level;
    # a level of more than one column then lays out its grid
    counts = plans.count[:layers]
    corner = np.zeros((layers, sched.n))
    corner[:, -1] = plans.height[:layers]
    lo = np.repeat(corner, counts, axis=0)
    pitch, cols = plans.pitch.tolist(), plans.cols.tolist()
    for p in np.flatnonzero(plans.cols[:layers] > 1).tolist():
        rows = slice(plans.start[p] - 1, plans.start[p] - 1 + counts[p])
        np.multiply(pitch[p], _grid(cols[p], sched.n - 1), out=lo[rows, :-1])
    boxes = Boxes(j=np.arange(1, j_built + 1), layer=np.repeat(plans.i[:layers], counts),
                  side=side, gap=gap, k=k, a=a, lo=lo)
    j_all = plans.start[-1] + plans.count[-1] - 1
    m_ext = len(plans)
    h_last = plans.height[-1].item()
    w = int(np.argmax(plans.width))  # the first widest level
    extent = plans.width[w].item()
    where, w_big = f"level {w + 1}", extent

    # the built boxes first: a build past binary64 names its largest box
    # before any tail does
    vol_lo = volume_sum(sched.n, boxes.side, 1, "built volume")
    if infinite:
        d_tail = paddings(sched, [m_ext]).item() + padding_tail_bound(sched, m_ext)
        ell_tail = _level_side_tail(sched, m_ext)
        h_lo = h_last - ell_tail - d_tail
        h_hi = h_last
        # the analytic bound holds from box 3 on; a single level sums to there
        vol_tail = (volume_sum(sched.n, sidelengths(sched, range(j_built + 1, 4)),
                               j_built + 1, "volume tail")
                    + volume_tail_bound(sched, max(j_built, 3)))
        w_tail = _width_tail_bound(sched, m_ext + 1)
        if w_tail > extent:
            where, w_big = f"bound for the levels past {m_ext}", w_tail
    else:
        # finite tables: every placeable level is in `plans`, so the deepest
        # level height and the full finite sums are exact
        h_lo = h_hi = h_last
        vol_tail = volume_sum(sched.n, sidelengths(sched, range(j_built + 1, j_all + 1)),
                              j_built + 1, "volume tail")
    # the circumradius from the widest level and the lowest height, and a
    # bound past binary64 names them; the first box spans [0, ell_1]
    try:
        r_gamma = math.sqrt((sched.n - 1) * w_big ** 2 + max(side[0].item(), -h_lo) ** 2)
    except OverflowError:
        r_gamma = math.inf
    if r_gamma == math.inf:
        raise ScheduleError(f"circumradius bound leaves binary64: width {w_big!r} "
                            f"({where}), lowest height {h_lo!r}")
    if not math.isfinite(vol_lo + vol_tail):
        raise ScheduleError(f"volume enclosure leaves binary64: built volume "
                            f"{vol_lo!r} plus tail {vol_tail!r}")
    return boxes, GeometrySummary(dimension=sched.n, layout=layout, box_count=j_built,
                                  horizontal_extent=extent, height_interval=(h_lo, h_hi),
                                  volume_interval=(vol_lo, vol_lo + vol_tail),
                                  r_gamma_upper=r_gamma)


# -------------------------------------------------------------------
# certificates
# -------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DisjointnessReport:
    """The first `breach` of the grid lemma inside the levels (see
    `disjointness_certificate`), naming its box, or its level where cells
    are empty, or None; and the measured gaps as numpy record arrays,
    columns read as `report.cross.min_distance`.  `in_layer` has one row
    per level with two or more boxes: `layer`, the minimum distance between
    its boxes (proved where there is no breach) and the promised `expected`
    = d_i / ln(i+e).  `cross` has one row per level i' below the first:
    `layer_a` right above it, `layer_b` = i', the distance of the vertical
    gap under the levels above, a lower bound for every pair across it (0
    where not stacked), the floor `required` = d_{i'-1} and its `rounding`.
    """

    breach: Optional[str]
    in_layer: np.recarray
    cross: np.recarray

    @property
    def failure(self) -> Optional[str]:
        """The first failing check with its box or level(s) and values: the
        breach, else two levels not stacked, else an in-layer gap off its
        promised value, else a cross-level distance below its floor; None
        when all pass."""
        if self.breach is not None:
            return self.breach
        g = self.cross
        flat = np.flatnonzero(~(g.min_distance > 0.0))
        if flat.size:
            p = flat[0]
            return f"levels {g.layer_a[p]} and {g.layer_b[p]} not stacked"
        g = self.in_layer
        error = np.abs(g.min_distance - g.expected) / g.expected
        off = np.flatnonzero(error > 1e-12)
        if off.size:
            p = off[0]
            return (f"level {g.layer[p]} in-layer gap {g.min_distance[p]:.6g} against "
                    f"{g.expected[p]:.6g}, relative error {error[p]:.3g}")
        g = self.cross
        low = np.flatnonzero(~(g.required - g.min_distance <= g.rounding))
        if low.size:
            p = low[0]
            return (f"levels {g.layer_a[p]} and {g.layer_b[p]} {g.min_distance[p]:.6g} apart, "
                    f"below the floor {g.required[p]:.6g}")
        return None

    @property
    def passed(self) -> bool:
        return self.failure is None


def _level_gaps(boxes: Boxes) -> Tuple[Optional[str], np.ndarray, np.ndarray, np.ndarray,
                                        np.ndarray, np.ndarray, np.ndarray]:
    """The grid and stacking lemmas on every level at once, as plain
    arrays: the first breach or None; per level its layer, box count and
    in-layer minimum (inf for one box); per level below the first, its
    stacking gap, the `rounding` of its floor, and whether the gap is met
    where there is no breach (see `_feature_scale`)."""
    lo, hi, j = boxes.lo, boxes.hi, boxes.j
    # the levels in row order, with the first row and the row count of each:
    # `Boxes` keeps `layer` nondecreasing, so each level is one run, and a
    # stable sort keyed first on the level leaves each level on its rows
    starts = np.r_[0, np.flatnonzero(np.diff(boxes.layer)) + 1]
    layers, sizes = boxes.layer[starts], np.diff(np.r_[starts, len(boxes)])
    level = np.repeat(np.arange(len(layers)), sizes)
    axes = lo.shape[1] - 1

    # per horizontal axis: the column of each box (its rank among the
    # level's distinct lower corners), the columns of each level, and the
    # separation of each column from the next, which gives the minima
    column = np.empty((len(boxes), axes), dtype=np.int64)
    shape = np.empty((axes, len(layers)))
    minima = np.full(len(layers), math.inf)
    reach = []  # (box reaching the next column, axis, first box of that column)
    for ax in range(axes):
        o = np.lexsort((lo[:, ax], level))
        v = lo[o, ax]
        opens = np.r_[True, v[1:] != v[:-1]]
        opens[starts] = True
        first = np.flatnonzero(opens)
        c = np.cumsum(opens) - 1
        column[o, ax] = c - c[starts][level]
        shape[ax] = np.diff(np.r_[c[starts], len(first)])
        top = np.maximum.reduceat(hi[o, ax], first)
        left = np.flatnonzero(np.diff(level[first]) == 0)
        sep = v[first[left + 1]] - top[left]
        np.minimum.at(minima, level[first[left]], np.sqrt(np.maximum(sep, 0.0) ** 2))
        at = np.flatnonzero(np.isin(c, left[~(sep > 0.0)]) & (hi[o, ax] == top[c]))
        if at.size:
            p = at[np.argmin(o[at])]
            reach.append((o[p], ax, o[first[c[p] + 1]]))

    # the first breach: (1) a box off its level's base, the height of the
    # level's first box, (2) a cell taken twice or left empty, (3) a column
    # that reaches the next
    off_base = np.flatnonzero(lo[:, -1] != lo[starts, -1][level])
    o = np.lexsort((*column.T, level))
    twice = np.flatnonzero((np.diff(level) == 0) & (np.diff(column[o], axis=0) == 0).all(axis=1))
    empty = np.flatnonzero(shape.prod(axis=0) != sizes)
    breach = None
    if off_base.size:
        p = off_base[0]
        q = starts[level[p]]
        breach = (f"box {j[p]} stands at {lo[p, -1].item()!r}, off the base "
                  f"{lo[q, -1].item()!r} of level {boxes.layer[p]} (box {j[q]}'s)")
    elif twice.size:
        p = twice[np.argmin(o[twice + 1])]
        breach = f"box {j[o[p + 1]]} shares its grid cell with box {j[o[p]]}"
    elif empty.size:
        p = empty[0]
        breach = (f"level {layers[p]} leaves grid cells empty: {sizes[p]} boxes on "
                  + " x ".join(str(int(c)) for c in shape[:, p]) + " cells")
    elif reach:
        a, ax, b = min(reach)
        breach = (f"box {j[a]} reaches the column of box {j[b]} on axis {ax + 1}: "
                  f"top {hi[a, ax].item()!r} against {lo[b, ax].item()!r}")

    # each level's lowest bottom and highest top; the stacking lemma's gap
    # under every level but the first, from the lowest bottom above it, as
    # a computed distance
    h = np.minimum.reduceat(lo[:, -1], starts)
    top = np.maximum.reduceat(hi[:, -1], starts)
    tall = np.maximum.reduceat(boxes.side, starts)[1:]
    gap = np.minimum.accumulate(h)[:-1] - top[1:]
    between = np.sqrt(np.maximum(gap, 0.0) ** 2)
    rounding = 0.5 * sum(np.spacing(np.abs(v)) for v in
                         (h[:-1] - tall, h[1:], top[1:], h[:-1] - top[1:]))
    # the first box at the highest top of each level below the first, and
    # the first box of the level above, at its lowest bottom if no breach
    high = np.flatnonzero(hi[:, -1] == top[level])
    a, b = high[np.r_[True, np.diff(level[high]) > 0]][1:], starts[:-1]
    met = ((lo[a, :-1] <= hi[b, :-1]) & (lo[b, :-1] <= hi[a, :-1])).all(axis=1)
    return breach, layers, sizes, minima, between, rounding, met


def disjointness_certificate(boxes: Boxes, sched: Schedule) -> DisjointnessReport:
    """Exact closure-disjointness plus the quantitative gap floors: a grid
    lemma inside the levels and a stacking lemma across them.

    Disjointness is decided by strict comparison of computed coordinates,
    no tolerance: two closed boxes are disjoint iff some axis strictly
    separates them.

    Inside a level, a grid lemma.  On each horizontal axis the columns of
    the level are its distinct lower corners in increasing order.  Suppose
    (1) its boxes share one base height; (2) they form a full grid, each
    tuple of per-axis columns taken by exactly one box; and (3) on every
    horizontal axis the highest top t_c of column c lies strictly below the
    lower corner l_(c+1) of column c + 1: s_c = fl(l_(c+1) - t_c) > 0, as a
    rounded difference has the sign of the exact one.  Two boxes of the
    level then sit in columns c < c' on some axis, where one ends by t_c and
    the other starts at l_(c') >= l_(c+1): they are strictly apart.
    Rounding is monotone, so their computed separation there is at least
    s_c; squaring, adding nonnegative terms and sqrt are monotone too, so
    their computed distance is at least fl(sqrt(fl(s_c^2))).  The box that
    reaches t_c and the box of column c + 1 in its other columns (the grid
    is full) share every other lower corner, so that bound is their
    distance: the level's minimum is the least fl(sqrt(fl(s_c^2))) over its
    axes and adjacent columns, the all-pairs one bit for bit.  `breach`
    names the first box that breaks a hypothesis, in the order (1), (2),
    (3), the lowest within one.

    Across levels, a stacking lemma.  For each level i' below the first,
    let b be the lowest bottom of the levels above it, t the highest top of
    i' and g = fl(b - t).  g > 0 iff b > t: every box above i' starts
    higher than every box of i' ends, so each pair of a box of i' and a box
    above it is strictly apart on the vertical axis and does not meet.  As
    above, the pair's computed distance is at least fl(sqrt(fl(g^2))), the
    row's `min_distance`.  In binary64 fl(sqrt(fl(g^2))) = g when g^2 is
    normal and finite (2^-511 <= g < 2^512); a subnormal g^2 may move the
    row off g, and one that flushes to zero makes it 0, which counts as not
    stacked.  Either way the row is at most every pair's computed distance
    (inf past overflow, as is every pair's).  Every side is positive, so
    once the levels above i' are stacked, b is the bottom of the level
    right above; where its first box and the first at t overlap
    horizontally, as on the builder's arrangements, the row is their
    distance.  Levels that are not stacked fail the certificate; their
    pairs are not examined.

    A floor d holds up to the rounding of the placement: a level sits at
    H' = fl(fl(H - ell) - d) under the base H of the level above, ell its
    tallest side, with top fl(H' + ell) and gap fl(H - top).  Each result
    is within half its spacing sp of the exact one and the errors add, so
    the gap is within `rounding` = (sp(H - ell) + sp(H') + sp(top) +
    sp(H - top)) / 2 of d; the levels farther up are farther away.
    """
    breach, layers, sizes, minima, between, rounding, _ = _level_gaps(boxes)
    inside = layers[sizes > 1]
    # d_i at every level with two or more boxes (its promised gap), then
    # above every level but the first (the floor under it)
    need, at = np.unique(np.concatenate((inside, layers[1:] - 1)), return_inverse=True)
    d = paddings(sched, need.tolist())[at]
    log_e = np.array([math.log(i + math.e) for i in inside.tolist()])
    in_layer = np.rec.fromarrays((inside, minima[sizes > 1], d[:len(inside)] / log_e),
                                 names="layer,min_distance,expected")
    cross = np.rec.fromarrays((layers[:-1], layers[1:], between, d[len(inside):], rounding),
                              names="layer_a,layer_b,min_distance,required,rounding")
    return DisjointnessReport(breach=breach, in_layer=in_layer, cross=cross)


@dataclass(frozen=True)
class FactCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ConnectivityReport:
    facts: Tuple[FactCheck, ...]

    @property
    def passed(self) -> bool:
        return all(f.passed for f in self.facts)


def connectivity_certificate(boxes: Boxes, summary: GeometrySummary,
                             packing: DisjointnessReport) -> ConnectivityReport:
    """The hypotheses of the argument that the complement of Gamma is
    connected, checked on the built boxes and their packing report.

    For n >= 2: the slotted boundary of a real box is a closed (n-1)-ball.
    With every stacking row of `packing.cross` positive, the levels past N
    lie in K_N = [0, w_N]^(n-1) x [h_lo, top of level N+1], w_N a bound on
    their widths, and K_N misses the first N levels; so R^n minus these
    levels and K_N is connected (Alexander duality; Hatcher, Algebraic
    Topology, Thm 3.44), and these sets increase to the complement of Gamma
    when w_N -> 0.  Checked: open apertures, positive stacking rows (facts 2
    and 4) and a finite built extent.  From a lemma, not checked: w_N -> 0
    for the infinite families.  Finite tables need no K_N.
    """
    bad_eps = boxes.j[~(boxes.gap > 0.0)][:5].tolist()
    rows = packing.cross
    stacked = rows.min_distance > 0.0
    ok = bool(stacked.all())
    return ConnectivityReport(facts=(
        FactCheck(name="positive_gap_fractions", passed=not bad_eps,
                  detail=("all boxes" if not bad_eps
                          else f"zero/negative aperture at j in {bad_eps}")),
        FactCheck(name="strict_height_ordering", passed=ok,
                  detail=(f"min inter-level gap {rows.min_distance.min():.6g}" if len(rows)
                          else "single level")),
        FactCheck(name="finite_horizontal_extent",
                  passed=math.isfinite(summary.horizontal_extent),
                  detail=f"extent {summary.horizontal_extent:.6g}"),
        FactCheck(name="finite_prefix_above_levels", passed=ok,
                  detail=("boxes above any level cut form the index prefix" if ok else
                          f"non-prefix set above level {rows.layer_a[np.argmin(stacked)]}")),
    ))


# -------------------------------------------------------------------
# flood-fill oracle (independent connectivity probe, dimension 2)
# -------------------------------------------------------------------

def _feature_scale(boxes: Boxes) -> float:
    """Smallest geometric feature: the positive aperture widths (none for a
    sealed box) and the all-pairs minimum distance, from the two lemmas.
    That minimum is proved only where they hold and each stacking gap is
    met: the first box at the highest top under it and the first box of the
    level above overlap horizontally, so the gap is their distance, as on
    the builder's arrangements.  Elsewhere this raises GeometryError."""
    breach, layers, sizes, minima, between, _, met = _level_gaps(boxes)
    if breach is not None:
        raise GeometryError(f"no feature scale off the grid lemma: {breach}")
    bad = np.flatnonzero(~(between > 0.0) | ~met)
    if bad.size:
        p = bad[0]
        why = ("stacked, but their extreme boxes do not overlap horizontally"
               if between[p] > 0.0 else "not stacked")
        raise GeometryError(f"no feature scale: levels {layers[p]} and {layers[p + 1]} {why}")
    feats = (boxes.side * boxes.gap)[boxes.gap > 0.0].tolist()
    feats += minima[sizes > 1].tolist() + between.tolist()
    if not feats:
        raise GeometryError("no positive feature to resolve")
    return min(feats)


def suggested_resolution(boxes: Boxes) -> float:
    """A raster pitch safely below the oracle's precondition (scale/5)."""
    return _feature_scale(boxes) / 5.0


def flood_fill_oracle(boxes: Boxes, resolution: float) -> bool:
    """Raster test (dimension 2 only): is the complement of the drawn
    boundary curves connected?

    Each box contributes its closed square outline minus the aperture
    segment [t_1, t_1 + side*gap] on the bottom edge.  Cells whose closed
    square meets a drawn segment are blocked (conservative), and the answer
    is whether the unblocked cells form one 4-connected component.
    Conservative blocking cannot spuriously disconnect anything because
    every true passage is at least 4 cells wide under the resolution
    precondition.

    The components are counted by run-length labeling with union-find
    (`_one_component`), not by visiting cells: one vectorized pass over the
    raster, then work in the number of free runs along rows (3,350 for the
    767,921 free cells of the 5-layer figure).  Memory: the raster, one
    byte a cell, plus integer arrays over its blocked cells and runs.
    """
    if boxes.lo.shape[1] != 2:
        raise GeometryError("flood-fill oracle is defined for dimension 2 only")
    if resolution <= 0.0:
        raise ResolutionTooCoarseError("resolution must be positive")
    scale = _feature_scale(boxes)
    if not resolution < scale / 4.0:
        raise ResolutionTooCoarseError(
            f"resolution {resolution} cannot resolve the smallest feature "
            f"{scale} (need < {scale / 4.0})"
        )
    return _one_component(*_blocked_raster(boxes, resolution))


def _one_component(cells: bytearray, width: int) -> bool:
    """Do the free (0) cells of a flat row-major raster, whose border cells
    are all blocked, form exactly one 4-connected component?

    Run-length labeling (Hoshen and Kopelman 1976): the free cells of a row
    fall into maximal runs, each run is joined to every run of the next row
    that shares a column with it, and union-find with path halving (Tarjan
    1975) counts the components.  The blocked border ends every row, so the
    runs are the gaps between consecutive blocked cells in flat order, and
    the runs of the next row that meet a run form one contiguous range of
    that order.  Cost: one vectorized pass over the raster for its B
    blocked cells, then O(B + R log R) array work and near-linear
    union-find over the R runs and their joins; memory: a few integer
    arrays of length B or R, none the size of the raster.
    """
    blocked = np.flatnonzero(np.frombuffer(cells, dtype=np.uint8))
    gap = np.flatnonzero(np.diff(blocked) > 1)
    start, end = blocked[gap] + 1, blocked[gap + 1]  # run i is [start, end)
    # the runs of the next row that share a column with run i end past
    # start + width and begin before end + width: indices [first, last)
    first = np.searchsorted(end, start + width, side="right")
    last = np.searchsorted(start, end + width, side="left")
    parent = list(range(len(start)))
    components = len(start)
    for i, below in enumerate(map(range, first.tolist(), last.tolist())):
        for b in below:
            a = i
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if a != b:
                parent[a] = b
                components -= 1
    return components == 1


def _blocked_raster(boxes: Boxes, resolution: float) -> Tuple[bytearray, int]:
    """The oracle's raster as a flat row-major bytearray (1 = blocked) and
    its row width.  The drawn outlines sit inside a free ring, which joins
    every free border cell to the outside, and that inside a blocked
    sentinel ring."""
    lo, hi = boxes.lo, boxes.hi
    pad = float(boxes.side.max()) + 2.0 * resolution
    # half-cell shift keeps structure coordinates off cell boundaries
    x0 = float(lo[:, 0].min()) - pad - 0.5 * resolution
    y0 = float(lo[:, 1].min()) - pad - 0.5 * resolution
    nx = int(math.ceil((float(hi[:, 0].max()) + pad - x0) / resolution)) + 1
    ny = int(math.ceil((float(hi[:, 1].max()) + pad - y0) / resolution)) + 1
    raster = bytearray((ny + 4) * (nx + 4))
    grid = np.frombuffer(raster, dtype=np.uint8).reshape(ny + 4, nx + 4)
    grid[[0, -1], :] = 1
    grid[:, [0, -1]] = 1
    blocked = grid[2:-2, 2:-2]

    x_lo, y_lo, x_hi, y_hi = lo[:, 0], lo[:, 1], hi[:, 0], hi[:, 1]
    slot = x_lo + boxes.gap * boxes.side

    def cells(v: np.ndarray, origin: float) -> List[int]:
        return np.floor((v - origin) / resolution).astype(np.int64).tolist()

    # runs (line, first, last): along rows the top edges and the bottom edges
    # minus the apertures, along columns the left and the right edges
    for view, line, first, last, line0, run0 in (
            (blocked, (y_hi, y_lo), (x_lo, slot), (x_hi, x_hi), y0, x0),
            (blocked.T, (x_lo, x_hi), (y_lo, y_lo), (y_hi, y_hi), x0, y0)):
        for r, a, b in zip(cells(np.concatenate(line), line0),
                           cells(np.concatenate(first), run0),
                           cells(np.concatenate(last), run0)):
            a, b = max(a, 0), min(b, view.shape[1] - 1)
            if 0 <= r < view.shape[0] and a <= b:
                view[r, a:b + 1] = 1
    return raster, nx + 4
