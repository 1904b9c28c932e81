"""Cell-by-cell flood fill: the reference for the run-length labeling.

`bfs_one_component` answers the question of
`trapcert.geometry._one_component` by visiting cells: a 4-connected
breadth-first fill from one free cell, then a count of the cells it
reached.  It costs O(cells) Python steps (about 0.4 s on the 5-layer
figure's raster), so the tests run it only on small rasters and require the
two verdicts to be equal.
"""

from collections import deque


def bfs_one_component(cells: bytearray, width: int) -> bool:
    """Do the free (0) cells of a flat row-major raster with a blocked
    border form exactly one 4-connected component?  `cells` is not
    modified."""
    seen = bytearray(cells)
    free = seen.count(0)
    if not free:
        return False
    p = seen.index(0)
    seen[p] = 1
    queue = deque([p])
    reached = 0
    # the blocked border stops every step at the edge, so no bounds checks
    while queue:
        p = queue.popleft()
        reached += 1
        for q in (p - width, p + width, p - 1, p + 1):
            if not seen[q]:
                seen[q] = 1
                queue.append(q)
    return reached == free

