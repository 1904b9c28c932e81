"""The flood-fill oracle's run-length labeling against the cell-by-cell
fill of `fill_oracle.py` and against scipy's component labeling."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from columns import make_boxes
from fill_oracle import bfs_one_component
from trapcert.geometry import (
    _blocked_raster,
    _one_component,
    build_layered,
    flood_fill_oracle,
    suggested_resolution,
)
from trapcert.sequences import demo_schedule

S2 = demo_schedule()


def scipy_one_component(cells, width):
    ndimage = pytest.importorskip("scipy.ndimage")
    free = np.frombuffer(bytes(cells), dtype=np.uint8).reshape(-1, width) == 0
    _, components = ndimage.label(free)  # 4-connected in 2-d
    return components == 1


def with_border(interior):
    """A flat raster (and its width) of a 0/1 array inside a blocked ring."""
    grid = np.pad(np.asarray(interior, dtype=np.uint8), 1, constant_values=1)
    return bytearray(grid.tobytes()), grid.shape[1]


def sealed(boxes, which):
    gap = boxes.gap.copy()
    gap[{"none": slice(0, 0), "one": slice(-1, None), "every-other": slice(None, None, 2),
         "all": slice(None)}[which]] = 0.0
    return dataclasses.replace(boxes, gap=gap)


@pytest.mark.parametrize("factor", [1.0, 0.77])
@pytest.mark.parametrize("which", ["none", "one", "every-other", "all"])
@pytest.mark.parametrize("layers", range(1, 7))
def test_run_labeling_matches_the_cell_fill(layers, which, factor):
    boxes, _ = build_layered(S2, layers)
    res = factor * suggested_resolution(boxes)
    case = sealed(boxes, which)
    cells, width = _blocked_raster(case, res)
    expected = scipy_one_component(cells, width)
    assert expected == (which == "none")
    if layers <= 4:  # the cell-by-cell BFS takes seconds on larger rasters
        assert bfs_one_component(cells, width) == expected
    assert _one_component(cells, width) == expected
    if which == "none" or len(case) > 1:  # a lone sealed box has no feature
        assert flood_fill_oracle(case, res) == expected


def test_eight_layers_connected_until_one_box_is_sealed():
    boxes, _ = build_layered(S2, 8)
    res = suggested_resolution(boxes)
    assert flood_fill_oracle(boxes, res)
    assert not flood_fill_oracle(sealed(boxes, "one"), res)


@pytest.mark.parametrize("interior, connected", [
    ([[0]], True),
    ([[1]], False),  # no free cell at all
    ([[0, 1], [1, 0]], False),  # the runs touch only at a corner
    ([[1, 0], [0, 1]], False),
    ([[0, 0, 1], [1, 0, 0]], True),  # the runs share one column
    ([[1, 0, 0], [0, 0, 1]], True),
    ([[0, 1, 0], [0, 1, 0], [0, 0, 0]], True),  # joined two rows down
    ([[0, 0, 0], [1, 1, 0], [0, 1, 0], [0, 0, 0]], True),
    ([[0, 1, 0], [0, 1, 0], [0, 1, 0]], False),
])
def test_run_labeling_on_small_rasters(interior, connected):
    cells, width = with_border(interior)
    assert bfs_one_component(cells, width) == connected
    assert _one_component(cells, width) == connected


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9).flatmap(lambda w: st.lists(
    st.lists(st.booleans(), min_size=w, max_size=w), min_size=1, max_size=9)))
def test_run_labeling_on_random_rasters(interior):
    cells, width = with_border(interior)
    expected = scipy_one_component(cells, width)
    assert bfs_one_component(cells, width) == expected
    assert _one_component(cells, width) == expected


_box = st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(2, 6),
                 st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.75]))


@settings(max_examples=100, deadline=None)
@given(st.lists(_box, min_size=1, max_size=6))
def test_run_labeling_on_random_planar_boxes(spec):
    # corners and sides on a quarter grid, drawn at resolution 0.1
    boxes = make_boxes(j=range(1, len(spec) + 1), layer=[1] * len(spec),
                       side=[s / 4 for _, _, s, _ in spec],
                       lo=[(x / 4, y / 4) for x, y, _, _ in spec],
                       gap=[g for *_, g in spec], k=[1.0] * len(spec),
                       a=[1.0] * len(spec))
    cells, width = _blocked_raster(boxes, 0.1)
    expected = scipy_one_component(cells, width)
    assert bfs_one_component(cells, width) == expected
    assert _one_component(cells, width) == expected
