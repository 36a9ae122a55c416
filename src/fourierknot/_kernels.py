"""Segment-pair intersection scan: a uniform-grid bucketed filter in numpy.

The plane is cut into square cells whose side is at least the longest
segment's x and y extent, so each segment's bounding box overlaps at most
2x2 cells, and every segment is registered in each cell its box overlaps.
A proper intersection point lies in both segments' boxes, hence in a cell
both share: testing only pairs that share a cell therefore finds exactly the
candidates of the dense all-pairs scan, with the same float expressions and
in the same lexicographic (i, j) order.  A closed polyline of n segments
spans at most n cells per axis, so cell keys fit easily in int64.

The registrations are put in (cell, segment) order by one stable argsort of
the cell keys, since they are made in segment order.  A pair that shares
two or more cells comes out once per shared cell; one in-place sort of the
pair keys i * n + j (below n**2, far inside int64) and a mask keeping each
key that differs from the one before it drop the repeats.

This is a filter, not a sweep: well-spread curves give O(grid) candidate
pairs, but adversarial inputs (many long segments crowding a few cells) can
still reach O(grid^2).
"""

from __future__ import annotations

import numpy as np

# Pairs with |cross product| under _PARALLEL_EPS (absolute, in length**2) are
# dropped as parallel; the series bound does not set it.  No pair at grid step
# h exceeds 2 h**2 N1(x) N1(y), and the numeric finder refuses knots whose
# cutoff is above _PARALLEL_SHARE of that: T(7,13)/4096 and T(13,29)/8192,
# scaled down, lost crossings silently at 0.1 and none at 6e-3; theorem knots
# reach 9.3e-5 (T(2,3) at the grid cap).
_PARALLEL_EPS = 1e-14
_PARALLEL_SHARE = 1e-4


def _ranges(counts):
    """Concatenated aranges 0..c-1 for each c in counts."""
    starts = np.cumsum(counts) - counts
    return np.arange(counts.sum()) - np.repeat(starts, counts)


def _shared_cell_pairs(px, py, rx, ry):
    """Unique segment pairs (i < j) that share a cell, sorted by (i, j)."""
    n = rx.shape[0]
    side = max(np.abs(rx).max(), np.abs(ry).max()) if n else 0.0
    if side == 0.0:
        none = np.empty(0, np.int64)
        return none, none
    # floor is monotone, so two overlapping boxes get overlapping cell ranges
    # even when rounding stretches a range to a third cell
    lo_x = np.floor((np.minimum(px[:-1], px[1:]) - px.min()) / side).astype(np.int64)
    hi_x = np.floor((np.maximum(px[:-1], px[1:]) - px.min()) / side).astype(np.int64)
    lo_y = np.floor((np.minimum(py[:-1], py[1:]) - py.min()) / side).astype(np.int64)
    hi_y = np.floor((np.maximum(py[:-1], py[1:]) - py.min()) / side).astype(np.int64)
    wide = hi_x - lo_x + 1
    counts = wide * (hi_y - lo_y + 1)
    seg = np.repeat(np.arange(n), counts)
    k = _ranges(counts)
    cell = (lo_x[seg] + k % wide[seg]) * (hi_y.max() + 1) + lo_y[seg] + k // wide[seg]
    # seg ascends, so a stable sort on cell alone orders by (cell, seg)
    order = np.argsort(cell, kind="stable")
    seg = seg[order]
    cell = cell[order]
    # pair every registration with the later ones in its cell
    later = np.searchsorted(cell, cell, side="right") - np.arange(seg.size) - 1
    left = np.repeat(np.arange(seg.size), later)
    right = left + 1 + _ranges(later)
    # drop the repeats of pairs that share two or more cells
    keys = seg[left] * n + seg[right]
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    keys = keys[first]
    return keys // n, keys % n


def scan_segment_pairs(px, py):
    """Candidate crossing cells: (i, j, s, u) per properly intersecting pair.

    i, j index segments of the closed polyline (px[n] == px[0]); s, u are the
    intersection parameters inside segment i and j respectively.  Pairs come
    out sorted by (i, j).  Coordinates must be finite.
    """
    px = np.ascontiguousarray(px, dtype=np.float64)
    py = np.ascontiguousarray(py, dtype=np.float64)
    if not (np.isfinite(px).all() and np.isfinite(py).all()):
        raise ValueError("polyline coordinates must be finite")
    n = px.shape[0] - 1
    ax = px[:-1]
    ay = py[:-1]
    rx = np.diff(px)
    ry = np.diff(py)
    i, j = _shared_cell_pairs(px, py, rx, ry)
    # non-adjacent pairs only: j >= i+2 and not the wrap-adjacent (0, n-1)
    keep = (j >= i + 2) & ~((i == 0) & (j == n - 1))
    i = i[keep]
    j = j[keep]
    rxb = rx[i]
    ryb = ry[i]
    qx = rx[j]
    qy = ry[j]
    denom = rxb * qy - ryb * qx
    ex = ax[j] - ax[i]
    ey = ay[j] - ay[i]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (ex * qy - ey * qx) / denom
        u = (ex * ryb - ey * rxb) / denom
    mask = np.abs(denom) >= _PARALLEL_EPS
    mask &= (s > 0.0) & (s < 1.0) & (u > 0.0) & (u < 1.0)
    return i[mask], j[mask], s[mask], u[mask]
