"""Layered and stacked packings of open boxes with certified summaries.

The layered arrangement places, on level i at height H_i <= 0, a grid of
floor(i ln(i+e))^(n-1) boxes: columns at pitch h_i = L_i + d_i/ln(i+e) along
each horizontal axis, where L_i is the sidelength of the first (largest) box
of the level.  Heights recurse by H_{i+1} = H_i - ell_{B_{i+1}} - d_i, so
consecutive levels are separated by exactly d_i while levels keep shrinking
and accumulate at a finite depth.  The stacked arrangement is the simpler
single-column variant t_{j+1} = t_j - (ell_{j+1} + d_j) e_n, which requires
summable 1/k_j and is therefore only available for explicit wavenumber
tables.

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
float operations per element (numpy's pow and log may differ in the last
bit).

The packing certificate never forms all N^2 pairs.  It sorts the boxes
along one axis and sweeps: a pair whose projections on that axis are
strictly separated (or, for a minimum distance, separated by more than the
distance of a pair already in hand) is settled by that comparison alone,
and only the remaining candidates are measured, in bounded chunks.  Every
distance, and every bound used to skip pairs, is one per-pair formula that
is monotone under rounding, so the sweep proves the same facts and reports
the same bits as an all-pairs pass, at O(N log N) plus the candidates.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, fields
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from trapcert.sequences import (
    DerivedParams,
    DShiftedPower,
    DTable,
    KLogGrowth,
    KTable,
    Schedule,
    ScheduleError,
    derived_columns,
    derived_params,
    padding,
    padding_tail_bound,
    sidelength,
    sidelengths,
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


# -------------------------------------------------------------------
# layer plans
# -------------------------------------------------------------------

@dataclass(frozen=True)
class LayerPlan:
    """Derived data of level i: grid shape, indices, height, and pitch."""

    i: int
    count: int
    start_index: int
    height: float
    max_side: float
    pitch: float
    cols: int
    width: float


@dataclass(frozen=True, eq=False)
class Boxes:
    """Open boxes as read-only columns, one row per box in index order."""

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


def _columns(i: int) -> int:
    return int(math.floor(i * math.log(i + math.e)))


def _plans(sched: Schedule, limit: Optional[int]) -> List[LayerPlan]:
    """Plans of the levels 1..limit, fewer where the tables cannot supply all
    boxes and the padding of a level (limit None: all of them; a family must
    then be a table).  Start indices follow from the box counts alone, so
    one wavenumber evaluation gives the sides of every level start."""
    k_end = len(sched.k_family.values) if isinstance(sched.k_family, KTable) else math.inf
    d_end = len(sched.d_family.values) if isinstance(sched.d_family, DTable) else math.inf
    levels: List[Tuple[int, int, int]] = []  # (columns, count, start index)
    b = 1
    while (limit is None or len(levels) < limit) and len(levels) < d_end:
        cols = _columns(len(levels) + 1)
        count = cols ** (sched.n - 1)
        if b + count - 1 > k_end:
            break
        levels.append((cols, count, b))
        b += count
    sides = sidelengths(sched, [start for _, _, start in levels]).tolist()
    plans: List[LayerPlan] = []
    h = 0.0
    for i, ((cols, count, start), ell_b) in enumerate(zip(levels, sides), start=1):
        if i > 1:  # the padding of the level above, d_{i-1}
            h = h - ell_b - d_i
        d_i = padding(sched, i)
        pitch = ell_b + d_i / math.log(i + math.e)
        if not all(map(math.isfinite, (ell_b, pitch, cols * pitch, h))):
            raise ScheduleError(f"level {i} leaves binary64: side {ell_b!r}, "
                                f"pitch {pitch!r}, height {h!r}")
        plans.append(LayerPlan(i=i, count=count, start_index=start, height=h,
                               max_side=ell_b, pitch=pitch, cols=cols,
                               width=cols * pitch))
    return plans


def layer_plan(sched: Schedule, i: int) -> LayerPlan:
    """Plan of level i (heights are cumulative, so levels 1..i-1 are
    evaluated on the way)."""
    return deque(iter_layer_plans(sched, i), maxlen=1)[0]


def iter_layer_plans(sched: Schedule, limit: int) -> Iterator[LayerPlan]:
    """The first `limit` level plans in order, one pass over the heights."""
    if limit < 1:
        raise GeometryError(f"limit must be >= 1, got {limit}")
    plans = _plans(sched, limit)
    if len(plans) < limit:
        raise ScheduleError(f"schedule tables cannot supply layer {limit}")
    return iter(plans)


# -------------------------------------------------------------------
# analytic layer tails (log-growth wavenumbers + shifted-power paddings)
# -------------------------------------------------------------------

def _layer_tail_constants(sched: Schedule) -> Tuple[float, float]:
    """(A_n, C_n) for the level-start lower bound B_i >= A_n i^n ln^(n-1) i.

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
    c_n = (a_n * n / 2.0) ** (1.0 / n)
    return a_n, c_n


def _level_side_tail(sched: Schedule, m: int) -> float:
    """Upper bound on sum_{i>m} ell_{B_i} for the parametric families."""
    assert m >= _MIN_EXTENSION
    _, c_n = _layer_tail_constants(sched)
    c = sched.k_family.c
    return math.pi * math.sqrt(sched.n) / (c * c_n * math.log(math.log(m)))


def _width_tail_bound(sched: Schedule, i0: int) -> float:
    """Upper bound on sup_{i>=i0} of the level width cols_i * h_i."""
    assert i0 > _MIN_EXTENSION
    _, c_n = _layer_tail_constants(sched)
    c = sched.k_family.c
    d = sched.d_family
    ell_part = (math.pi * math.sqrt(sched.n) * math.log(i0 + math.e)
                / (c * c_n * math.log(i0) * math.log(math.log(i0)) ** 2))
    d_part = d.amplitude * i0 * (i0 + d.shift) ** (-d.exponent)
    return ell_part + d_part


# -------------------------------------------------------------------
# builders
# -------------------------------------------------------------------

def _grid(cols: int, axes: int) -> np.ndarray:
    """The (cols**axes, axes) column indices of a level, row-major."""
    return np.indices((cols,) * axes).reshape(axes, -1).T


def plan_columns(sched: Schedule, plans: Sequence[LayerPlan]) -> Tuple[np.ndarray, ...]:
    """The schedule columns (k, ell, eps, a) of the boxes on `plans`, the
    first len(plans) levels: the gates a layered build passes before it
    places a box.  More than MAX_BOXES boxes are refused from the plan
    counts, before any column is evaluated."""
    count = sum(plan.count for plan in plans)
    if count > MAX_BOXES:
        raise GeometryError(f"{len(plans)} layers hold {count} boxes, more than "
                            f"the {MAX_BOXES} one build allows")
    return derived_columns(sched, range(1, count + 1))


def _summary(layout: str, boxes: Boxes, extent: float, w_big: float,
             heights: Tuple[float, float], vol_tail: float) -> GeometrySummary:
    """Summary of a build: the built volume exactly, and the circumradius
    bound from the widest level `w_big` and the lower height `heights[0]`."""
    n = boxes.lo.shape[1]
    sides = boxes.side.tolist()
    vol_lo = math.fsum(s ** n for s in sides)
    # the first box spans [0, ell_1] vertically
    r_gamma = math.sqrt((n - 1) * w_big ** 2 + max(sides[0], -heights[0]) ** 2)
    return GeometrySummary(dimension=n, layout=layout, box_count=len(sides),
                           horizontal_extent=extent, height_interval=heights,
                           volume_interval=(vol_lo, vol_lo + vol_tail),
                           r_gamma_upper=r_gamma)


def build_layered(sched: Schedule, layers: int) -> Tuple[Boxes, GeometrySummary]:
    """Boxes of the first `layers` levels, in global index order, plus the
    certified summary of the full (possibly infinite) arrangement.  More
    than MAX_BOXES boxes are refused before any box is built."""
    if layers < 1:
        raise GeometryError(f"layers must be >= 1, got {layers}")
    infinite = (isinstance(sched.k_family, KLogGrowth)
                and isinstance(sched.d_family, DShiftedPower))
    target = max(layers + 1, _MIN_EXTENSION) if infinite else None

    plans = _plans(sched, target)
    if len(plans) < layers:
        raise ScheduleError(
            f"schedule tables support only {len(plans)} complete layers, "
            f"{layers} requested"
        )

    built = plans[:layers]
    k, side, gap, a = plan_columns(sched, built)
    j_built = len(k)  # boxes are numbered from 1
    lo = np.concatenate([np.column_stack((plan.pitch * _grid(plan.cols, sched.n - 1),
                                          np.full(plan.count, plan.height)))
                         for plan in built])
    layer = np.repeat([plan.i for plan in built], [plan.count for plan in built])
    boxes = Boxes(j=np.arange(1, j_built + 1), layer=layer, side=side, gap=gap,
                  k=k, a=a, lo=lo)
    j_all = plans[-1].start_index + plans[-1].count - 1
    m_ext = plans[-1].i

    if infinite:
        d_tail = padding(sched, m_ext) + padding_tail_bound(sched, m_ext)
        ell_tail = _level_side_tail(sched, m_ext)
        h_lo = plans[-1].height - ell_tail - d_tail
        h_hi = plans[-1].height
        if j_built >= 3:
            vol_tail = volume_tail_bound(sched, j_built)
        else:
            vol_tail = (math.fsum(sidelength(sched, j) ** sched.n
                                  for j in range(j_built + 1, 4))
                        + volume_tail_bound(sched, 3))
        w_big = max(max(p.width for p in plans),
                    _width_tail_bound(sched, m_ext + 1))
    else:
        # finite tables: every placeable level is in `plans`, so the deepest
        # level height and the full finite sums are exact
        h_lo = h_hi = plans[-1].height
        vol_tail = math.fsum(sidelength(sched, j) ** sched.n
                             for j in range(j_built + 1, j_all + 1))
        w_big = max(p.width for p in plans)
    return boxes, _summary("layered", boxes, max(p.width for p in plans), w_big,
                           (h_lo, h_hi), vol_tail)


def build_stacked(sched: Schedule, count: int) -> Tuple[Boxes, GeometrySummary]:
    """Single vertical column: t_1 = 0, t_{j+1} = t_j - (ell_{j+1} + d_j) e_n.

    The column accumulates at depth -sum(ell_{j+1} + d_j), which converges
    only when sum 1/k_j does; of the built-in families only explicit tables
    certify that, so log-growth wavenumbers are rejected (their 1/k_j decay
    like j^(-1/n) up to logs, a divergent p-series for every n >= 2).
    """
    if count < 1:
        raise GeometryError(f"count must be >= 1, got {count}")
    if not isinstance(sched.k_family, KTable):
        raise GeometryError(
            "stacked layout needs summable 1/k_j; no tail bound is "
            "registrable for the log-growth family (divergent p-series), "
            "use an explicit wavenumber table"
        )
    params: List[DerivedParams] = []
    sides: List[float] = []
    depths: List[float] = []  # of the built boxes
    depth = 0.0
    # past `count` the recursion continues exactly while the tables allow,
    # which gives the limit
    for j in itertools.count(1):
        try:
            p = derived_params(sched, j) if j <= count else None
            side = sidelength(sched, j) if p is None else p.ell
            if j > 1:
                depth = depth - side - padding(sched, j - 1)
        except ScheduleError:
            if j <= count:
                raise
            break
        sides.append(side)
        if p is not None:
            params.append(p)
            depths.append(depth)
    lo = np.zeros((count, sched.n))
    lo[:, -1] = depths
    k, side, gap, a = np.array([(p.k, p.ell, p.eps, p.a) for p in params]).T.copy()
    boxes = Boxes(j=np.arange(1, count + 1), layer=np.arange(1, count + 1), side=side,
                  gap=gap, k=k, a=a, lo=lo)
    vol_tail = math.fsum(s ** sched.n for s in sides[count:])
    w_big = max(sides)
    return boxes, _summary("stacked", boxes, w_big, w_big, (depth, depth), vol_tail)


# -------------------------------------------------------------------
# certificates
# -------------------------------------------------------------------

@dataclass(frozen=True)
class InLayerGap:
    """Minimum distance between distinct boxes of one level, with the value
    the construction promises (d_i / ln(i+e))."""

    layer: int
    min_distance: float
    expected: float

    @property
    def relative_error(self) -> float:
        return abs(self.min_distance - self.expected) / self.expected


@dataclass(frozen=True)
class CrossLayerGap:
    """Minimum distance between the boxes of two levels.

    `required` is the floor d_{i'-1} for levels i < i'.  For adjacent levels
    `constructive_gap` is the padding the height recursion inserted, which
    the measured distance must reproduce; it is None otherwise.
    """

    layer_a: int
    layer_b: int
    min_distance: float
    required: float
    constructive_gap: Optional[float]


@dataclass(frozen=True)
class DisjointnessReport:
    box_count: int
    overlap_pairs: Tuple[Tuple[int, int], ...]
    in_layer: Tuple[InLayerGap, ...]
    cross: Tuple[CrossLayerGap, ...]

    @property
    def disjoint(self) -> bool:
        return not self.overlap_pairs

    @property
    def passed(self) -> bool:
        if self.overlap_pairs:
            return False
        if any(g.relative_error > 1e-12 for g in self.in_layer):
            return False
        return all(g.min_distance >= g.required * (1.0 - 1e-12)
                   for g in self.cross)


# candidate pairs examined per numpy step; bounds the working memory of the
# sweep at a few MiB whatever the box count
_PAIR_CHUNK = 1 << 16


def _pair_distances(lo_a, hi_a, lo_b, hi_b) -> np.ndarray:
    """Euclidean distances of the row-aligned box pairs (a_r, b_r), from the
    per-axis separations (zero where the projections overlap).

    This is the one per-pair formula of the module: every distance it
    reports, and every bound used to skip pairs, is this expression on
    (m, n) rows, so equal inputs give equal bits whatever route led to them.
    numpy sums a contiguous last axis the same way for (m, n) rows as for
    (A, B, n) all-pairs blocks; the tests hold the two routes equal.
    """
    sep = np.maximum(lo_a - hi_b, lo_b - hi_a)
    np.maximum(sep, 0.0, out=sep)
    return np.sqrt((sep ** 2).sum(axis=1))


def _reach(delta: float) -> float:
    """A separation u with fl(sqrt(fl(u*u))) > delta.

    A pair whose computed separation along one axis is >= u has a computed
    distance > delta: squaring, summing non-negative terms and sqrt are all
    monotone under round-to-nearest.
    """
    u = math.nextafter(delta, math.inf)
    while u < math.inf and not math.sqrt(u * u) > delta:
        u *= 2.0  # only reached where u*u underflows
    return u


def _sweep_pairs(lo: np.ndarray, hi: np.ndarray,
                 reach: Optional[float]) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Chunks (i, k) of row indices covering every unordered pair of rows
    that is not provably apart along one sweep axis.

    With reach None a pair is dropped only when hi_a < lo_b strictly on the
    sweep axis, which is exactly the certificate's separation test.  With
    reach u a pair is dropped only when lo_b > hi_a + u in exact arithmetic
    (the cut-off is rounded upward), so its computed separation on that
    axis is >= u.  Non-finite coordinates make every pair a candidate.  The
    axis is the one with the fewest candidates; each chunk holds at most
    _PAIR_CHUNK pairs unless one row alone has more.
    """
    m = len(lo)
    if m < 2:
        return
    rank = np.arange(m)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        order, ends = rank, np.full(m, m)
    else:
        best = None
        for ax in range(lo.shape[1]):
            o = np.argsort(lo[:, ax], kind="stable")
            cut = hi[o, ax]
            if reach is not None:
                cut = np.nextafter(cut + reach, math.inf)
            e = np.maximum(np.searchsorted(lo[o, ax], cut, side="right"),
                           rank + 1)
            total = int((e - rank - 1).sum())
            if best is None or total < best[0]:
                best = (total, o, e)
        _, order, ends = best
    counts = ends - rank - 1
    csum = np.cumsum(counts)
    r = 0
    while r < m:
        base = int(csum[r - 1]) if r else 0
        e = max(int(np.searchsorted(csum, base + _PAIR_CHUNK, side="right")),
                r + 1)
        c = counts[r:e]
        total = int(csum[e - 1]) - base
        if total:
            i_rank = np.repeat(rank[r:e], c)
            k_rank = i_rank + 1 + (np.arange(total)
                                   - np.repeat(np.cumsum(c) - c, c))
            yield order[i_rank], order[k_rank]
        r = e


def _min_distance(lo: np.ndarray, hi: np.ndarray, delta: float,
                  label: Optional[np.ndarray] = None) -> float:
    """Minimum computed distance over the pairs of rows (over the pairs with
    different labels, when given), where delta is the computed distance of
    one such pair.

    Every pair the delta-widened sweep drops has a computed distance
    > delta >= the minimum, so the minimum over the candidates is the
    minimum over all pairs, bit for bit.
    """
    best = math.inf
    for i, k in _sweep_pairs(lo, hi, _reach(delta)):
        if label is not None:
            keep = label[i] != label[k]
            i, k = i[keep], k[keep]
            if not len(i):
                continue
        best = np.minimum(best, _pair_distances(lo[i], hi[i], lo[k], hi[k]).min())
    return float(best)


def disjointness_certificate(boxes: Boxes, sched: Schedule) -> DisjointnessReport:
    """Exact pairwise closure-disjointness plus the quantitative gap floors,
    by sort-and-sweep (sweep-and-prune, Cohen et al., I-COLLIDE 1995).

    Disjointness is decided by strict comparison of computed coordinates,
    no tolerance: two closed boxes are disjoint iff some axis strictly
    separates them.  Boxes are sorted along one axis; a pair whose closed
    projections on that axis do not meet is strictly separated there, which
    is its proof, and every other pair gets the all-axes test.

    Per-level and per-level-pair minimum distances are then measured and
    compared against the schedule's promised separations.  A level's
    minimum comes from a sweep widened by the distance of one of its pairs,
    which is an upper bound on it, so every pair left out is farther away.
    For two levels, the distance between their bounding boxes is a lower
    bound on every pair's computed distance (the per-pair formula is
    monotone under rounding); when one witness pair (the lowest box of the
    upper level against the highest box of the lower level) attains it, it
    is the minimum, and otherwise the two levels are swept together.  All
    distances are one formula, so the report equals the all-pairs
    computation bit for bit.

    Cost: O(n N log N) for the sorts, plus the candidate pairs (on the
    layered arrangement, about N times the number of levels a box's
    projection meets), plus O(L^2 n) vectorized bounds for L levels.  Memory
    is O(N) plus a fixed chunk of candidate pairs.
    """
    lo, hi = boxes.lo, boxes.hi
    js, layer_of = boxes.j, boxes.layer

    firsts, seconds = [], []
    for i, k in _sweep_pairs(lo, hi, None):
        # strict separation along some axis, either direction
        apart = ((hi[i] < lo[k]) | (hi[k] < lo[i])).any(axis=1)
        i, k = i[~apart], k[~apart]
        keep = js[i] != js[k]
        i, k = i[keep], k[keep]
        swap = js[i] > js[k]
        firsts.append(np.where(swap, k, i))
        seconds.append(np.where(swap, i, k))
    overlaps: Tuple[Tuple[int, int], ...] = ()
    if firsts:
        first, second = np.concatenate(firsts), np.concatenate(seconds)
        o = np.lexsort((second, first))
        overlaps = tuple(zip(js[first[o]].tolist(), js[second[o]].tolist()))

    by_layer = np.argsort(layer_of, kind="stable")
    layer_ids, starts = np.unique(layer_of[by_layer], return_index=True)
    groups = np.split(by_layer, starts[1:])
    layers = layer_ids.tolist()

    in_layer: List[InLayerGap] = []
    for la, pos in zip(layers, groups):
        if len(pos) < 2:
            continue
        g_lo, g_hi = lo[pos], hi[pos]
        delta = float(_pair_distances(g_lo[:1], g_hi[:1], g_lo[1:2], g_hi[1:2])[0])
        measured = _min_distance(g_lo, g_hi, delta)
        expected = padding(sched, la) / math.log(la + math.e)
        in_layer.append(InLayerGap(layer=la, min_distance=measured,
                                   expected=expected))

    cross: List[CrossLayerGap] = []
    if len(layers) > 1:
        n_lay = len(layers)
        bb_lo = np.array([lo[pos].min(axis=0) for pos in groups])
        bb_hi = np.array([hi[pos].max(axis=0) for pos in groups])
        lowest = np.array([pos[np.argmin(lo[pos, -1])] for pos in groups])
        highest = np.array([pos[np.argmax(hi[pos, -1])] for pos in groups])
        finite = np.array([np.isfinite(lo[pos]).all() and np.isfinite(hi[pos]).all()
                           for pos in groups])
        ia, ib = np.triu_indices(n_lay, 1)
        bound = _pair_distances(bb_lo[ia], bb_hi[ia], bb_lo[ib], bb_hi[ib])
        a_up = bb_lo[ia, -1] >= bb_lo[ib, -1]
        wa = np.where(a_up, lowest[ia], lowest[ib])
        wb = np.where(a_up, highest[ib], highest[ia])
        witness = _pair_distances(lo[wa], hi[wa], lo[wb], hi[wb])
        exact = finite[ia] & finite[ib] & (witness == bound)
        for p, (a, b) in enumerate(zip(ia.tolist(), ib.tolist())):
            if exact[p]:
                measured = float(bound[p])
            else:
                pos = np.concatenate((groups[a], groups[b]))
                label = np.repeat([0, 1], [len(groups[a]), len(groups[b])])
                measured = _min_distance(lo[pos], hi[pos], float(witness[p]),
                                         label)
            la, lb = layers[a], layers[b]
            constructive = padding(sched, la) if lb == la + 1 else None
            cross.append(CrossLayerGap(
                layer_a=la, layer_b=lb, min_distance=measured,
                required=padding(sched, lb - 1),
                constructive_gap=constructive,
            ))

    return DisjointnessReport(
        box_count=len(boxes),
        overlap_pairs=overlaps,
        in_layer=tuple(in_layer),
        cross=tuple(cross),
    )


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


def connectivity_certificate(boxes: Boxes,
                             summary: GeometrySummary) -> ConnectivityReport:
    """The structural facts behind connectedness of the complement:
    every box keeps a positive aperture, levels are strictly ordered in
    height with positive gaps, the horizontal extent is finite, and above
    any level bottom (minus its gap) only a finite index prefix of boxes
    lives.  Each fact is checked on the emitted data, not re-derived."""
    bad_eps = boxes.j[~(boxes.gap > 0.0)][:5].tolist()
    # per level, in level order: the base height of its last box, its
    # highest top and its highest box bottom
    by_layer = np.argsort(boxes.layer, kind="stable")
    layers, starts, sizes = np.unique(boxes.layer[by_layer], return_index=True,
                                      return_counts=True)
    base = boxes.lo[by_layer, -1]
    height = base[starts + sizes - 1]
    top = np.maximum.reduceat(boxes.hi[by_layer, -1], starts)
    bottom = np.maximum.reduceat(base, starts)
    gaps = height[:-1] - top[1:]
    # a level has a box above a cut iff its highest bottom is; so the boxes
    # above the cut under level la form the prefix iff every level up to la
    # reaches above it (prefix minimum) and no later level does (suffix max)
    cut = height[:-1] - gaps  # bottom of each level minus the measured gap
    first_min = np.minimum.accumulate(bottom)[:-1]
    later_max = np.maximum.accumulate(bottom[::-1])[::-1][1:]
    prefix = (first_min > cut) & ~(later_max > cut)
    return ConnectivityReport(facts=(
        FactCheck(name="positive_gap_fractions", passed=not bad_eps,
                  detail=("all boxes" if not bad_eps
                          else f"zero/negative aperture at j in {bad_eps}")),
        FactCheck(name="strict_height_ordering", passed=bool((gaps > 0.0).all()),
                  detail=(f"min inter-level gap {gaps.min():.6g}" if len(gaps)
                          else "single level")),
        FactCheck(name="finite_horizontal_extent",
                  passed=math.isfinite(summary.horizontal_extent),
                  detail=f"extent {summary.horizontal_extent:.6g}"),
        FactCheck(name="finite_prefix_above_levels", passed=bool(prefix.all()),
                  detail=("boxes above any level cut form the index prefix"
                          if prefix.all() else
                          f"non-prefix set above level {layers[np.argmin(prefix)]}")),
    ))


# -------------------------------------------------------------------
# flood-fill oracle (independent connectivity probe, dimension 2)
# -------------------------------------------------------------------

def _feature_scale(boxes: Boxes) -> float:
    """Smallest geometric feature: positive aperture widths and pairwise
    box distances.  Sealed boxes (gap 0) contribute no aperture feature."""
    feats = (boxes.side * boxes.gap)[boxes.gap > 0.0].tolist()
    if len(boxes) > 1:
        lo, hi = boxes.lo, boxes.hi
        delta = float(_pair_distances(lo[:1], hi[:1], lo[1:2], hi[1:2])[0])
        feats.append(_min_distance(lo, hi, delta))
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
    square meets a drawn segment are blocked (conservative), the outside is
    flooded 4-connectedly from the padded border, and the answer is whether
    every unblocked cell was reached.  Conservative blocking cannot
    spuriously disconnect anything because every true passage is at least
    4 cells wide under the resolution precondition.
    """
    if not len(boxes):
        raise GeometryError("no boxes to rasterize")
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

    cells, width = _blocked_raster(boxes, resolution)
    free = cells.count(0)
    # 4-connected breadth-first fill from one cell of the free ring; the
    # sentinel ring stops every step at the edge, so no bounds checks
    cells[width + 1] = 1
    queue = deque([width + 1])
    reached = 0
    while queue:
        p = queue.popleft()
        reached += 1
        for q in (p - width, p + width, p - 1, p + 1):
            if not cells[q]:
                cells[q] = 1
                queue.append(q)
    return reached == free


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
