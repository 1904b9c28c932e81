"""Helpers that make arrangements for the tests out of `Boxes` columns:
pick rows, overwrite values in some rows, or assemble boxes from scratch.
The columns of a built `Boxes` are read-only, so each helper returns a new
one."""

import dataclasses

import numpy as np

from trapcert.geometry import Boxes


def take(boxes: Boxes, rows) -> Boxes:
    """The arrangement made of `rows` (an index array or a slice), in that
    order; rows may repeat."""
    return dataclasses.replace(boxes, **{f.name: getattr(boxes, f.name)[rows]
                                         for f in dataclasses.fields(boxes)})


def with_values(boxes: Boxes, rows, **columns) -> Boxes:
    """A copy of `boxes` whose named columns hold the given values at
    `rows`."""
    changed = {}
    for name, value in columns.items():
        column = getattr(boxes, name).copy()
        column[rows] = value
        changed[name] = column
    return dataclasses.replace(boxes, **changed)


def make_boxes(j, layer, side, lo, gap, k, a) -> Boxes:
    """Boxes from per-box sequences (`lo` one corner per box)."""
    return Boxes(j=np.asarray(j, dtype=np.int64),
                 layer=np.asarray(layer, dtype=np.int64),
                 side=np.asarray(side, dtype=float), gap=np.asarray(gap, dtype=float),
                 k=np.asarray(k, dtype=float), a=np.asarray(a, dtype=float),
                 lo=np.asarray(lo, dtype=float).reshape(len(j), -1))
