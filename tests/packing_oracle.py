"""All-pairs packing certificate: the dense reference for the sweep and
the stacking lemma.

`all_pairs_certificate` builds a `DisjointnessReport` like
`trapcert.geometry.disjointness_certificate` by brute force: a chunked N x N
overlap test, one all-pairs distance matrix per level and one all-pairs
block per pair of levels, each row in a Python loop with the scalar padding
of `schedule_oracle`.  Its overlaps include the pairs across levels, and
its `cross` has a row for every pair of levels i < i', where the
certificate keeps one per level i' below the first.  It costs O(N^2) time
and memory, so the tests run it only on small arrangements: the overlaps
inside the levels and the in-layer rows must equal the certificate's bit
for bit, and each certificate row must bound the oracle's rows of its
level (see `assert_matches_all_pairs` in test_geometry.py).
"""

import math
from typing import Dict, List, Tuple

import numpy as np

from schedule_oracle import padding
from trapcert.geometry import Boxes, DisjointnessReport
from trapcert.sequences import Schedule


def _group_min_distance(lo_a, hi_a, lo_b, hi_b) -> float:
    sep = np.maximum(lo_a[:, None, :] - hi_b[None, :, :],
                     lo_b[None, :, :] - hi_a[:, None, :])
    np.maximum(sep, 0.0, out=sep)
    return float(np.sqrt((sep ** 2).sum(axis=2)).min())


def _in_group_min_distance(lo, hi) -> float:
    sep = np.maximum(lo[:, None, :] - hi[None, :, :],
                     lo[None, :, :] - hi[:, None, :])
    np.maximum(sep, 0.0, out=sep)
    dist = np.sqrt((sep ** 2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    return float(dist.min())


def all_pairs_min_distance(boxes: Boxes) -> float:
    """Minimum distance over all pairs of distinct positions."""
    return _in_group_min_distance(boxes.lo, boxes.hi)


def all_pairs_certificate(boxes: Boxes, sched: Schedule) -> DisjointnessReport:
    lo, hi = boxes.lo, boxes.hi
    js, layer_of = boxes.j.tolist(), boxes.layer.tolist()
    n_boxes = len(boxes)

    overlaps: List[Tuple[int, int]] = []
    chunk = 512
    for s in range(0, n_boxes, chunk):
        e = min(s + chunk, n_boxes)
        apart = ((hi[s:e, None, :] < lo[None, :, :])
                 | (hi[None, :, :] < lo[s:e, None, :])).any(axis=2)
        bad = np.argwhere(~apart)
        for a, b in bad:
            ja, jb = js[s + a], js[b]
            if ja < jb:
                overlaps.append((ja, jb))

    layers = sorted(set(layer_of))
    idx: Dict[int, List[int]] = {la: [] for la in layers}
    for pos, la in enumerate(layer_of):
        idx[la].append(pos)

    in_layer: List[Tuple[int, float, float]] = []
    for la in layers:
        pos = idx[la]
        if len(pos) < 2:
            continue
        measured = _in_group_min_distance(lo[pos], hi[pos])
        expected = padding(sched, la) / math.log(la + math.e)
        in_layer.append((la, measured, expected))

    # the rounding of each level's placement under the level above it
    rounding = {lb: _placement_rounding(boxes, idx[la], idx[lb])
                for la, lb in zip(layers, layers[1:])}
    cross: List[Tuple[int, int, float, float, float]] = []
    for a_idx, la in enumerate(layers):
        for lb in layers[a_idx + 1:]:
            measured = _group_min_distance(lo[idx[la]], hi[idx[la]],
                                           lo[idx[lb]], hi[idx[lb]])
            cross.append((la, lb, measured, padding(sched, lb - 1), rounding[lb]))

    return DisjointnessReport(
        overlap_pairs=tuple(overlaps),
        in_layer=_records(in_layer, "layer,min_distance,expected", 1),
        cross=_records(cross, "layer_a,layer_b,min_distance,required,rounding", 2),
    )


def _placement_rounding(boxes: Boxes, upper: List[int], lower: List[int]) -> float:
    """Half an ulp of each rounded result of the lower level's placement:
    H - ell, its base, its top and the gap H - top, with H the upper
    level's base and ell the lower level's tallest side."""
    above = min(boxes.lo[p, -1].item() for p in upper)
    base = min(boxes.lo[p, -1].item() for p in lower)
    top = max(boxes.hi[p, -1].item() for p in lower)
    tall = max(boxes.side[p].item() for p in lower)
    return 0.5 * (math.ulp(above - tall) + math.ulp(base) + math.ulp(top)
                  + math.ulp(above - top))


def _records(rows, names: str, ints: int) -> np.recarray:
    """The rows as a record array whose first `ints` fields are int64 and
    the others float64 (the dtype is explicit, so it also holds for no
    rows)."""
    fields = names.split(",")
    dtype = [(name, np.int64 if f < ints else np.float64) for f, name in enumerate(fields)]
    return np.rec.array(np.array(rows, dtype=dtype))
