import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fourierknot import (
    FourierSeries,
    TorusParams,
    analytic_crossing_set,
    find_crossings_numeric,
    gen_standard_knot,
    gen_theorem_knot,
)
from fourierknot import _kernels
from fourierknot.crossings import pair_distance


def test_counts_2_3():
    knot = gen_theorem_knot(TorusParams(2, 3))
    assert len(find_crossings_numeric(knot, 512)) == 7


def test_counts_3_7():
    knot = gen_theorem_knot(TorusParams(3, 7))
    assert len(find_crossings_numeric(knot, 2048)) == 32


@pytest.mark.parametrize("pq", [(2, 3), (3, 5), (4, 7)])
def test_numeric_matches_analytic_times(pq):
    params = TorusParams(*pq)
    knot = gen_theorem_knot(params)
    analytic = analytic_crossing_set(knot, params)
    numeric = find_crossings_numeric(knot, 1024)
    assert len(numeric) == len(analytic)
    ana = [(c.t1, c.t2) for c in analytic.crossings]
    for c in numeric.crossings:
        assert min(pair_distance((c.t1, c.t2), a) for a in ana) < 1e-6


def test_numeric_classification_agrees_with_analytic():
    params = TorusParams(3, 5)
    knot = gen_theorem_knot(params)
    analytic = {
        (round(c.t1, 5), round(c.t2, 5)): (c.sign, c.over)
        for c in analytic_crossing_set(knot, params).crossings
    }
    for c in find_crossings_numeric(knot, 1024).crossings:
        key = (round(c.t1, 5), round(c.t2, 5))
        assert analytic[key] == (c.sign, c.over)


def test_finder_keeps_first_come_along_a_chain(monkeypatch):
    """Refined times A ~ B ~ C with A not near C: B goes for A, and C stays, since B was not kept."""
    from fourierknot import crossings

    params = TorusParams(3, 7)
    knot = gen_theorem_knot(params)
    c = analytic_crossing_set(knot, params).crossings[5]
    step = 0.9 * crossings.EPS_DEDUPE
    chain = [(c.t1 + k * step, c.t2 + k * step) for k in range(3)]
    refined = iter(chain)
    monkeypatch.setattr(_kernels, "scan_segment_pairs", lambda px, py: ([1, 2, 3], [10, 20, 30], [0.5] * 3, [0.5] * 3))
    monkeypatch.setattr(crossings, "_newton_refine", lambda knot, g1, g2: ("ok", *next(refined)))
    found = find_crossings_numeric(knot, 2048)
    assert [(x.t1, x.t2) for x in found.crossings] == [chain[0], chain[2]]


def test_grid_floor_enforced():
    knot = gen_theorem_knot(TorusParams(3, 7))
    floor = 4 * knot.max_frequency() * knot.term_count()
    with pytest.raises(ValueError):
        find_crossings_numeric(knot, floor - 1)


def test_standard_knot_crossing_count():
    # the winding-form projection of (p, q) has exactly q(p-1) double points
    for pq in [(2, 3), (3, 4), (2, 5)]:
        params = TorusParams(*pq)
        knot = gen_standard_knot(params)
        got = len(find_crossings_numeric(knot, 1024))
        assert got == pq[1] * (pq[0] - 1), pq


def scan_pairs_dense(px, py, block: int = 256):
    """Dense all-pairs reference scan, blocked rows: the bucketed scan's oracle."""
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    n = px.shape[0] - 1
    ax = px[:-1]
    ay = py[:-1]
    rx = np.diff(px)
    ry = np.diff(py)
    out_i, out_j, out_s, out_u = [], [], [], []
    cols = np.arange(n)
    for start in range(0, n, block):
        stop = min(start + block, n)
        rows = np.arange(start, stop)
        # pair mask: j >= i+2 and not the wrap-adjacent pair (0, n-1)
        mask = cols[None, :] >= rows[:, None] + 2
        if start == 0:
            mask[0, n - 1] = False
        rxb = rx[rows][:, None]
        ryb = ry[rows][:, None]
        qx = rx[None, :]
        qy = ry[None, :]
        denom = rxb * qy - ryb * qx
        ex = ax[None, :] - ax[rows][:, None]
        ey = ay[None, :] - ay[rows][:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (ex * qy - ey * qx) / denom
            u = (ex * ryb - ey * rxb) / denom
        mask &= np.abs(denom) >= _kernels._PARALLEL_EPS
        mask &= (s > 0.0) & (s < 1.0) & (u > 0.0) & (u < 1.0)
        ib, jb = np.nonzero(mask)
        if ib.size:
            out_i.append(rows[ib])
            out_j.append(cols[jb])
            out_s.append(s[ib, jb])
            out_u.append(u[ib, jb])
    if not out_i:
        e = np.empty(0)
        return e.astype(np.int64), e.astype(np.int64), e, e
    return (
        np.concatenate(out_i),
        np.concatenate(out_j),
        np.concatenate(out_s),
        np.concatenate(out_u),
    )


_terms = st.lists(
    st.tuples(
        st.floats(-2.0, 2.0),
        st.integers(0, 12),
        st.floats(0.0, 2 * math.pi),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=60, deadline=None)
@example(x=[(0.0, 3, 0.0)], y=[(1.5, 0, 0.0)], extra=0)  # zero-extent polyline
@given(x=_terms, y=_terms, extra=st.integers(0, 256))
def test_bucketed_scan_matches_dense(x, y, extra):
    sx = FourierSeries.from_triples(x)
    sy = FourierSeries.from_triples(y)
    grid = 8 * max(sx.max_frequency(), sy.max_frequency(), 1) + extra
    ts = (np.arange(grid + 1) + 0.618) * (2 * math.pi / grid)
    px = np.asarray(sx.eval(ts))
    py = np.asarray(sy.eval(ts))
    px[-1] = px[0]
    py[-1] = py[0]
    got = _kernels.scan_segment_pairs(px, py)
    want = scan_pairs_dense(px, py)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


def test_scan_rejects_non_finite_coordinates():
    px = np.array([0.0, 1.0, math.nan, 0.0])
    py = np.array([0.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        _kernels.scan_segment_pairs(px, py)


def test_numpy_fallback_full_pipeline():
    knot = gen_theorem_knot(TorusParams(2, 5))
    assert len(find_crossings_numeric(knot, 512)) == 2 * 2 * 5 - 2 - 5


def _nudged(i, j, s, u):
    return i, j, 0.9 * s + 0.05, u


def _unchanged(i, j, s, u):
    return i, j, s, u


def _numeric_json(monkeypatch, knot, remap):
    scan = _kernels.scan_segment_pairs
    monkeypatch.setattr(_kernels, "scan_segment_pairs", lambda px, py: remap(*scan(px, py)))
    try:
        return find_crossings_numeric(knot, 1024).to_json()
    finally:
        monkeypatch.setattr(_kernels, "scan_segment_pairs", scan)


@pytest.mark.parametrize("nudged_first", [False, True])
def test_refined_duplicates_keep_first(monkeypatch, nudged_first):
    # every candidate twice, once with s nudged inside its segment: both
    # refine onto the same crossing (to slightly different floats), and the
    # output is what the first of the two alone gives
    knot = gen_theorem_knot(TorusParams(3, 5))
    first, second = (_nudged, _unchanged) if nudged_first else (_unchanged, _nudged)

    def doubled(*cand):
        return tuple(np.r_[a, b] for a, b in zip(first(*cand), second(*cand)))

    want = _numeric_json(monkeypatch, knot, first)
    assert _numeric_json(monkeypatch, knot, doubled) == want


def test_diagnostics_listable():
    knot = gen_theorem_knot(TorusParams(2, 3))
    diags: list = []
    find_crossings_numeric(knot, 512, diagnostics=diags)
    for kind, i, j in diags:
        assert kind in {"tangential", "divergence", "singular"}
