import hashlib
import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fourierknot import (
    CrossingSet,
    FourierKnot,
    TorusParams,
    analytic_crossing_set,
    classify,
    find_crossings_numeric,
    gen_standard_knot,
    gen_theorem_knot,
    knot_with_phases,
    simplified_phase_point,
)
from fourierknot import _kernels, crossings
from fourierknot.crossings import (
    _NEWTON_STATUS,
    EPS_DEDUPE,
    _classify_pairs,
    _crossing_table,
    _newton_refine,
    near_pairs,
    pair_distance,
)
from fourierknot.series import TWO_PI, reduce_angles
from series_reference import scalar_derivative, scalar_value, series_of


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
    params = TorusParams(3, 7)
    knot = gen_theorem_knot(params)
    c = analytic_crossing_set(knot, params).crossings[5]
    step = 0.9 * crossings.EPS_DEDUPE
    chain = [(c.t1 + k * step, c.t2 + k * step) for k in range(3)]
    candidates = (np.array([1, 2, 3]), np.array([10, 20, 30]), np.full(3, 0.5), np.full(3, 0.5))
    monkeypatch.setattr(_kernels, "scan_segment_pairs", lambda px, py: candidates)
    monkeypatch.setattr(crossings, "_newton_refine", lambda knot, g1, g2: (np.zeros(3, np.int8), *np.array(chain).T))
    found = find_crossings_numeric(knot, 2048)
    assert [(x.t1, x.t2) for x in found.crossings] == [chain[0], chain[2]]


def test_grid_floor_enforced():
    knot = gen_theorem_knot(TorusParams(3, 7))
    floor = 4 * knot.max_frequency() * knot.term_count()
    with pytest.raises(ValueError):
        find_crossings_numeric(knot, floor - 1)


@pytest.mark.parametrize("z", [(), ((1.0, 0, 0.0),)], ids=["no terms", "frequency 0"])
def test_grid_below_one_refused(z):
    # with a sampling floor of 0, grid 0 raised a raw ZeroDivisionError at h = 2*pi/grid
    series = series_of(z)
    for grid in (0, -3):
        with pytest.raises(ValueError, match=rf"^grid must be at least 1, got {grid}$"):
            find_crossings_numeric(FourierKnot(series, series, series), grid)


def scaled(knot, factor):
    """The knot with every amplitude of x, y and z multiplied by factor."""
    return FourierKnot(*(series_of((tm.amplitude * factor, tm.frequency, tm.phase) for tm in s.terms)
                         for s in (knot.x, knot.y, knot.z)))


def test_amplitudes_too_small_for_the_scan_are_refused(monkeypatch):
    # at 2**-18 the scan's absolute parallel cutoff dropped all 32 crossings
    # of T(3,7) without a diagnostic; now the knot is refused before the scan
    knot = gen_theorem_knot(TorusParams(3, 7))
    assert len(find_crossings_numeric(scaled(knot, 2.0 ** -10), 2048)) == 32
    monkeypatch.setattr(_kernels, "scan_segment_pairs", lambda px, py: pytest.fail("scanned"))
    for factor in (2.0 ** -18, 2.0 ** -12, 0.0):
        with pytest.raises(ValueError, match="xy amplitudes too small for grid 2048"):
            find_crossings_numeric(scaled(knot, factor), 2048)


@pytest.mark.parametrize("pq, grid, exponents", [
    ((13, 29), 8192, (6, 8)),
    ((7, 13), 4096, (8, 10)),
    ((3, 7), 2048, (10, 12)),
], ids=["T(13,29)", "T(7,13)", "T(3,7)"])
def test_large_amplitudes_keep_every_crossing(pq, grid, exponents):
    # with an absolute Newton tolerance of 1e-12 these scalings lost 5, 31 and
    # 17 crossings at the first exponent and 300, 120 and 31 at the second, all
    # as "divergence": the residual's rounding grows with the amplitudes
    params = TorusParams(*pq)
    knot = gen_theorem_knot(params)
    want = [(c.t1, c.t2) for c in analytic_crossing_set(knot, params).crossings]
    for e in exponents:
        diagnostics: list = []
        found = find_crossings_numeric(scaled(knot, 2.0 ** e), grid, diagnostics)
        assert diagnostics == []
        assert len(found) == len(want)
        assert max(pair_distance((c.t1, c.t2), w) for c, w in zip(found.crossings, want)) < 1e-9


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
    sx = series_of(x)
    sy = series_of(y)
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


def shared_cell_pairs_unique(px, py, rx, ry):
    """The bucketed scan's pair step as it was with np.lexsort and np.unique: (raw keys i * n + j, i, j)."""
    n = rx.shape[0]
    side = max(np.abs(rx).max(), np.abs(ry).max())
    lo_x = np.floor((np.minimum(px[:-1], px[1:]) - px.min()) / side).astype(np.int64)
    hi_x = np.floor((np.maximum(px[:-1], px[1:]) - px.min()) / side).astype(np.int64)
    lo_y = np.floor((np.minimum(py[:-1], py[1:]) - py.min()) / side).astype(np.int64)
    hi_y = np.floor((np.maximum(py[:-1], py[1:]) - py.min()) / side).astype(np.int64)
    wide = hi_x - lo_x + 1
    counts = wide * (hi_y - lo_y + 1)
    seg = np.repeat(np.arange(n), counts)
    k = _kernels._ranges(counts)
    cell = (lo_x[seg] + k % wide[seg]) * (hi_y.max() + 1) + lo_y[seg] + k // wide[seg]
    order = np.lexsort((seg, cell))
    seg, cell = seg[order], cell[order]
    later = np.searchsorted(cell, cell, side="right") - np.arange(seg.size) - 1
    left = np.repeat(np.arange(seg.size), later)
    right = left + 1 + _kernels._ranges(later)
    raw = seg[left] * n + seg[right]
    keys = np.unique(raw)
    return raw, keys // n, keys % n


@pytest.mark.parametrize("pq", [(3, 7), (13, 29)])
def test_shared_cell_pairs_drop_repeats_like_unique(pq):
    # pairs that share two cells are listed twice before the dedupe, and the
    # sort-and-mask dedupe must give np.unique's pairs, order and dtype
    grid = 2048
    knot = gen_theorem_knot(TorusParams(*pq))
    ts = (np.arange(grid + 1) + crossings._GRID_OFFSET) * (2 * math.pi / grid)
    px, py = knot.x.eval(ts), knot.y.eval(ts)
    px[-1], py[-1] = px[0], py[0]
    rx, ry = np.diff(px), np.diff(py)
    raw, *want = shared_cell_pairs_unique(px, py, rx, ry)
    assert np.unique(raw).size < raw.size
    got = _kernels._shared_cell_pairs(px, py, rx, ry)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.int64
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


# sha256 of the diagnostics list and then the JSON of the set, at grid 2048,
# for the short phase pi/(2p) of T(3, q), where the finder drops singular
# candidates.  The finder samples with np.cos, so these run on Linux only.
PINNED_DIAGNOSTICS = {
    5: ("45b46b802f2b1d61bb0b30da772bad509ce619282f47ec0bda7a8f60fbf0fb50",
        "90676797620cb8541191c0d926d06d63306c0a0e34e7b534eb6603614dc20191"),
    7: ("036372e43cdd888b194e1ea2ef2f62a015e8281d4f4753f66fcb7871e7ae6f8f",
        "d7eb3a64cfc6500d0a6abf0a7b2ec949dd08ddcf6bdbfbaec0db2c80afa16baa"),
}


@pytest.mark.parametrize("q", list(PINNED_DIAGNOSTICS))
def test_numeric_diagnostics_pinned(q):
    params = TorusParams(3, q)
    diagnostics: list = []
    cs = find_crossings_numeric(knot_with_phases(params, simplified_phase_point(params)), 2048, diagnostics)
    assert diagnostics
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (repr(diagnostics), cs.to_json()))
    assert digests == PINNED_DIAGNOSTICS[q]


@pytest.mark.parametrize("knot", [
    gen_theorem_knot(TorusParams(3, 7)),
    gen_theorem_knot(TorusParams(7, 13)),
    gen_standard_knot(TorusParams(2, 5)),
], ids=["T(3,7)", "T(7,13)", "winding T(2,5)"])
def test_numeric_rows_equal_classify_bitwise(knot):
    # the finder's samples come from np.cos, so a digest pins its rows on
    # Linux only; on any platform each row must be what classify makes of its
    # two times
    for c in find_crossings_numeric(knot, 2048).crossings:
        ref = classify(knot, c.t1, c.t2)
        assert (ref.t1, ref.t2, ref.sign, ref.over) == (c.t1, c.t2, c.sign, c.over)
        assert [v.hex() for v in ref.position] == [v.hex() for v in c.position]


def newton_refine_scalar(knot, t1, t2):
    """One candidate's damped Newton, as the finder ran it before the lockstep pass: the reference."""
    def differences(a, b):
        x, y = knot.x, knot.y
        return scalar_value(x, a) - scalar_value(x, b), scalar_value(y, a) - scalar_value(y, b)

    tol = 1e-12 * max(1.0, knot.x.norm(), knot.y.norm())
    fx, fy = differences(t1, t2)
    res = math.hypot(fx, fy)
    for _ in range(50):
        if res < tol:
            return "ok", t1, t2
        j11 = scalar_derivative(knot.x, t1)
        j12 = -scalar_derivative(knot.x, t2)
        j21 = scalar_derivative(knot.y, t1)
        j22 = -scalar_derivative(knot.y, t2)
        det = j11 * j22 - j12 * j21
        if abs(det) < 1e-12:
            return "tangential", t1, t2
        dt1 = -(j22 * fx - j12 * fy) / det
        dt2 = -(-j21 * fx + j11 * fy) / det
        lam = 1.0
        while True:
            n1, n2 = t1 + lam * dt1, t2 + lam * dt2
            gx, gy = differences(n1, n2)
            new_res = math.hypot(gx, gy)
            if new_res < res:
                t1, t2, fx, fy, res = n1, n2, gx, gy, new_res
                break
            lam *= 0.5
            if lam < 1e-7:
                return "divergence", t1, t2
    if res < tol:
        return "ok", t1, t2
    return "divergence", t1, t2


def lockstep_and_scalar(knot, t1, t2):
    """Both Newton versions' (status, t1.hex(), t2.hex()) per candidate, and the scalar statuses."""
    status, got1, got2 = _newton_refine(knot, np.array(t1, dtype=float), np.array(t2, dtype=float))
    got = [(_NEWTON_STATUS[c], float(a).hex(), float(b).hex())
           for c, a, b in zip(status.tolist(), got1.tolist(), got2.tolist())]
    want = []
    for a, b in zip(t1, t2):
        code, a, b = newton_refine_scalar(knot, float(a), float(b))
        want.append((code, float(a).hex(), float(b).hex()))
    return got, want


_knot_terms = st.lists(
    st.tuples(st.floats(-2.0, 2.0), st.integers(0, 7), st.floats(0.0, 2 * math.pi)),
    min_size=1,
    max_size=3,
)


@settings(max_examples=150, deadline=None)
@example(  # still descending after 49 steps: "divergence" by the 50-step budget
    axes=([(0.01066370591568866, 4, 0.01814143591416862)],
          [(-0.32582419894671233, 1, 2.0066518195273475), (-1.4683131164416277, 4, 5.926543652393895)],
          [(1.0, 1, 0.0)]),
    starts=[(float.fromhex("0x1.8ab9cb720f4cbp+2"), float.fromhex("0x1.eec33b9dc3317p+1"))],
)
@example(  # y's amplitudes sum to 2: converged below 2e-12
    axes=([(1.0, 4, 0.0)], [(1.0, 4, 0.25), (1.0, 5, 0.0)], [(0.0, 0, 0.0)]),
    starts=[(0.0, 1.0625)],
)
@given(
    axes=st.tuples(_knot_terms, _knot_terms, _knot_terms),
    starts=st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)), max_size=12),
)
def test_lockstep_newton_matches_scalar(axes, starts):
    # bitwise: each candidate ends with the scalar Newton's status and times
    knot = FourierKnot(*map(series_of, axes))
    got, want = lockstep_and_scalar(knot, [a for a, _ in starts], [b for _, b in starts])
    assert got == want


def test_lockstep_newton_matches_scalar_on_a_seeded_batch():
    rng = np.random.default_rng(5)
    statuses = set()
    for _ in range(20):
        knot = FourierKnot(*(series_of(
            (rng.uniform(-2, 2), int(rng.integers(0, 8)), rng.uniform(0, 2 * math.pi))
            for _ in range(rng.integers(1, 4))) for _ in range(3)))
        t1, t2 = rng.uniform(0, 2 * math.pi, (2, 40))
        got, want = lockstep_and_scalar(knot, t1.tolist(), t2.tolist())
        assert got == want
        statuses.update(code for code, _, _ in got)
    assert statuses == {"ok", "tangential", "divergence"}


def test_lockstep_newton_takes_no_candidates():
    knot = gen_theorem_knot(TorusParams(3, 7))
    status, t1, t2 = _newton_refine(knot, np.empty(0), np.empty(0))
    assert status.shape == t1.shape == t2.shape == (0,)


def keep_pass_reference(knot, ii, jj, status, t1, t2, diagnostics, events):
    """The finder's keep pass as a loop over every refined candidate, as it ran before the fate array: the reference.

    Logs and lists the failures as the finder does, returns the kept set,
    and adds to events the name of each rule it applied.
    """
    a, b = reduce_angles(t1), reduce_angles(t2)
    a, b = np.minimum(a, b), np.maximum(a, b)
    gap = b - a
    diagonal = (status == 0) & (np.minimum(gap, TWO_PI - gap) <= EPS_DEDUPE)
    events.update(["diagonal"] if diagonal.any() else [])
    ii, jj, status, a, b = (column[~diagonal] for column in (ii, jj, status, a, b))
    refined = list(zip(ii.tolist(), jj.tolist(), status.tolist()))
    ok = np.flatnonzero(status == 0).tolist()
    earlier: dict[int, list[int]] = {}
    for x, y in near_pairs(a[ok], b[ok]):
        earlier.setdefault(ok[y], []).append(ok[x])
    row = {k: m for m, k in enumerate(ok)}
    classified = _classify_pairs(knot, a[ok], b[ok])
    accepted, kept, singular = [], set(), 0
    for k, (i, j, code) in enumerate(refined):
        if code != 0:
            events.add(_NEWTON_STATUS[code])
            crossings.log.warning("candidate (%d, %d) failed refinement: %s", i, j, _NEWTON_STATUS[code])
            diagnostics.append((_NEWTON_STATUS[code], i, j))
            continue
        if not kept.isdisjoint(earlier.get(k, ())):
            events.add("duplicate of a singular row" if row[k] in classified.singular else "duplicate")
            continue
        message = classified.singular.get(row[k])
        if message is not None:
            events.add("singular")
            crossings.log.warning("candidate (%d, %d) is singular: %s", i, j, message)
            singular += 1
            diagnostics.append(("singular", i, j))
            continue
        events.add("kept past a dropped neighbour" if k in earlier else "kept")
        kept.add(k)
        accepted.append(row[k])
    rows = np.array(accepted, dtype=np.intp)
    order = rows[np.lexsort((classified.b[rows], classified.a[rows]))]
    unindexed = np.full(len(order), -1)
    columns = (column[order] for column in classified[:4])
    return CrossingSet(knot, *columns, unindexed, unindexed, unindexed, "numeric", singular)


_CHAIN_STEPS = [(s1, s2) for s1 in (-1.0, 0.0, 1.0) for s2 in (-1.0, 0.0, 1.0) if s1 or s2]


def planted_candidates(rng, knot, params):
    """Refined candidates (ii, jj, status, t1, t2) around the crossing table's times, in a shuffled scan order.

    Near chains (steps of 0.9 EPS_DEDUPE or 0 in each time, roles swapped or
    a turn added) start at random rows and at every row singular for knot;
    pairs on the diagonal and pairs near each other across t = 0 are added.
    About one candidate in ten is "tangential" and one in ten "divergence".
    """
    table = _crossing_table(params)
    singular = list(_classify_pairs(knot, table.t1, table.t2).singular)
    pairs = []
    for r in rng.choice(len(table.t1), 10, replace=False).tolist() + singular:
        step1, step2 = 0.9 * EPS_DEDUPE * np.array(_CHAIN_STEPS[rng.integers(0, len(_CHAIN_STEPS))])
        for k in range(int(rng.integers(1, 4))):
            a, b = table.t1[r] + k * step1, table.t2[r] + k * step2 + TWO_PI * rng.integers(0, 2)
            pairs.append((a, b) if rng.integers(0, 2) else (b, a))
    for _ in range(3):
        t, u = rng.uniform(0.0, TWO_PI, 2)
        pairs.append((t, t + rng.uniform(-EPS_DEDUPE, EPS_DEDUPE)))
        pairs += [(rng.uniform(0.0, 0.4 * EPS_DEDUPE), u), (TWO_PI - rng.uniform(0.0, 0.4 * EPS_DEDUPE), u)]
    t1, t2 = np.array(pairs)[rng.permutation(len(pairs))].T
    status = rng.choice(np.arange(3, dtype=np.int8), len(pairs), p=[0.8, 0.1, 0.1])
    ii, jj = np.sort(rng.integers(0, 2048, (2, len(pairs))), axis=0)
    return ii, jj, status, t1, t2


def test_keep_pass_matches_the_loop_reference(monkeypatch, caplog):
    # bitwise, on a seeded batch: the diagnostics, the log records,
    # singular_candidates and every column of the kept set
    caplog.set_level(logging.WARNING, logger=crossings.log.name)
    knots = [(knot_with_phases(params, simplified_phase_point(params)), params)
             for params in (TorusParams(3, 5), TorusParams(3, 7))]
    knots.append((gen_theorem_knot(TorusParams(3, 7)), TorusParams(3, 7)))
    rng = np.random.default_rng(7)
    events: set = set()
    for _ in range(30):
        knot, params = knots[rng.integers(0, len(knots))]
        ii, jj, status, t1, t2 = planted_candidates(rng, knot, params)
        half = np.full(len(ii), 0.5)
        monkeypatch.setattr(_kernels, "scan_segment_pairs", lambda px, py: (ii, jj, half, half))
        monkeypatch.setattr(crossings, "_newton_refine", lambda knot, g1, g2: (status.copy(), t1.copy(), t2.copy()))
        runs = []
        for run in (lambda d: find_crossings_numeric(knot, 2048, d),
                    lambda d: keep_pass_reference(knot, ii, jj, status, t1, t2, d, events)):
            caplog.clear()
            diagnostics: list = []
            found = run(diagnostics)
            columns = [(column.dtype.str, column.tobytes())
                       for column in (found.t1, found.t2, found.sign, found.over_t1, found.kind, found.k, found.j)]
            records = [(r.name, r.levelno, r.msg, r.args) for r in caplog.records]
            runs.append((diagnostics, records, found.singular_candidates, found.method, columns))
        assert runs[0] == runs[1]
    assert events == {"kept", "kept past a dropped neighbour", "duplicate", "duplicate of a singular row",
                      "singular", "diagonal", "tangential", "divergence"}
