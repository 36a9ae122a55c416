"""The four workloads: seeded draw rules, the job each one times, its checks.

A run starts with the workload's fixed reference inputs (the largest sizes
ROADMAP quotes), once each, then repeats cycles until its time is up, always
stopping at the end of a cycle.  A cycle has a fixed number of slots per
band of crossing counts n = 2pq - p - q (coprime 2 <= p < q), each filled by
a seeded draw from its band.  So every seed gives the same shape of work with
different concrete inputs.  The bands are narrow and sized so that the
median job falls inside the "bulk" band and the tail job (ten samples
above it) inside the "heavy" band, which keeps both steady across seeds.

A job receives only plain inputs (p, q, grid, phase points, ranges).  Its
timed part calls the package; its check (untimed) compares the output with
oracles.py, which shares no code with the package.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import math
import random

import numpy as np

import oracles

import fourierknot as fk
from fourierknot import cli


def n_crossings(p: int, q: int) -> int:
    return 2 * p * q - p - q


def band(lo: int, hi: int, qmax: int, pmax: int = 13) -> list[tuple[int, int]]:
    """Coprime pairs 2 <= p < q <= qmax, p <= pmax, with lo <= n < hi."""
    return [
        (p, q)
        for p in range(2, pmax + 1)
        for q in range(p + 1, qmax + 1)
        if math.gcd(p, q) == 1 and lo <= n_crossings(p, q) < hi
    ]


def digest(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


_TABLES: dict[tuple[int, int], oracles.Crossings] = {}


def table(p: int, q: int) -> oracles.Crossings:
    if (p, q) not in _TABLES:
        _TABLES[(p, q)] = oracles.Crossings(p, q)
    return _TABLES[(p, q)]


def key(job: dict) -> str:
    """Readable input name, e.g. T(7,13)/512/svg."""
    if "pmax" in job:
        return f"verify {job['pmax']},{job['qmax']}"
    name = f"T({job['p']},{job['q']})"
    if "grid" in job:
        name += f"/{job['grid']}"
    if "enc" in job:
        name += f"/{job['enc']}"
    if "points" in job:
        name += f"/{len(job['points'])}pts"
    return name


# ---------------------------------------------------------------------------
# crosscheck: analytic set, numeric finder at grid 2048|4096, both to_json

CROSS_SMALL = band(7, 61, 29)
CROSS_MID = band(61, 250, 29)
CROSS_LARGE = band(250, 330, 29)  # cheaper than the n < 61 @4096 jobs, which set the tail
CROSS_ANCHORS = [{"p": 3, "q": 7, "grid": 2048}, {"p": 13, "q": 29, "grid": 2048}]


def crosscheck_cycle(rng: random.Random) -> list[dict]:
    jobs = []
    for pool, grid, count in ((CROSS_SMALL, 2048, 7), (CROSS_MID, 2048, 1),
                              (CROSS_SMALL, 4096, 3), (CROSS_LARGE, 2048, 1)):
        jobs += [{"p": p, "q": q, "grid": grid} for p, q in rng.choices(pool, k=count)]
    return jobs


def crosscheck_run(job):
    params = fk.TorusParams(job["p"], job["q"])
    knot = fk.gen_theorem_knot(params)
    analytic = fk.analytic_crossing_set(knot, params)
    diagnostics: list = []
    numeric = fk.find_crossings_numeric(knot, job["grid"], diagnostics=diagnostics)
    return analytic.to_json(), numeric.to_json(), diagnostics


def crosscheck_check(job, out):
    analytic_json, numeric_json, diagnostics = out
    t = table(job["p"], job["q"])
    fails = {"tangential": 0, "divergence": 0, "singular": 0}
    for status, _, _ in diagnostics:
        fails[status] = fails.get(status, 0) + 1
    data = {f"newton_fail.{k}": v for k, v in fails.items()}
    cause = (t.check_counts()
             or oracles.check_crossing_json(t, numeric_json, indexed=False)
             or oracles.check_crossing_json(t, analytic_json, indexed=True))
    return cause, {"analytic_json": digest(analytic_json), "numeric_json": digest(numeric_json)}, data


# ---------------------------------------------------------------------------
# identify: analytic set, Gauss and PD codes, identify, summary JSON

IDENT_LIGHT = band(30, 120, 29)
IDENT_BULK = band(140, 180, 29)
IDENT_HEAVY = band(250, 330, 29)
IDENT_ANCHORS = [{"p": 11, "q": 24}]


def identify_cycle(rng: random.Random) -> list[dict]:
    jobs = []
    for pool, count in ((IDENT_LIGHT, 2), (IDENT_BULK, 7), (IDENT_HEAVY, 3)):
        jobs += [{"p": p, "q": q} for p, q in rng.choices(pool, k=count)]
    return jobs


def identify_run(job):
    params = fk.TorusParams(job["p"], job["q"])
    knot = fk.gen_theorem_knot(params)
    crossings = fk.analytic_crossing_set(knot, params)
    gauss = fk.build_gauss_code(knot, crossings)
    pd = fk.build_pd_code(crossings)
    summary = fk.identify(knot, crossings, params)
    return len(gauss), len(pd), summary.to_json()


def identify_check(job, out):
    gauss_len, pd_len, summary = out
    p, q = job["p"], job["q"]
    t = table(p, q)
    n = n_crossings(p, q)
    cause = None
    if gauss_len != 2 * n or pd_len != n:
        cause = f"Gauss code has {gauss_len} passages and PD code {pd_len} crossings, expected {2 * n} and {n}"
    elif summary != oracles.summary_json(p, q, t):
        cause = f"summary {summary[:120]} differs from the closed form"
    return cause, {"summary_json": digest(summary)}, {}


# ---------------------------------------------------------------------------
# phase: raster + PNG or SVG encoder, or a batch of point queries

# render cost grows with n (two singular lines per crossing), so the render
# bands are narrow
PHASE_TINY = band(13, 20, 13)
PHASE_SMALL = band(31, 38, 13)
PHASE_LIGHT = band(7, 61, 13)
PHASE_BULK = band(110, 140, 13)
QUERY_POINTS = 16
QUERY_SAME = 8
RASTER_CELLS = 24


def _render(rng, p, q, grid, enc):
    cells = [(rng.randrange(grid), rng.randrange(grid)) for _ in range(RASTER_CELLS)]
    return {"p": p, "q": q, "grid": grid, "enc": enc, "cells": cells}


def _regular_points(rng, t, centres):
    """One phase point per centre (None: anywhere; a point: within 1e-3 of it)
    whose every height gap is at least 1e-6 away from zero."""
    out = [None] * len(centres)
    while None in out:
        todo = [i for i, pt in enumerate(out) if pt is None]
        for i in todo:
            c = centres[i]
            out[i] = ((rng.uniform(0.0, 2 * math.pi), rng.uniform(0.0, 2 * math.pi)) if c is None
                      else (c[0] + rng.uniform(-1e-3, 1e-3), c[1] + rng.uniform(-1e-3, 1e-3)))
        gaps = np.abs(oracles.height_gaps(t, [out[i][0] for i in todo], [out[i][1] for i in todo])).min(axis=0)
        for i, g in zip(todo, gaps):
            if g <= 1e-6:
                out[i] = None
    return out


def _queries(rng, p, q):
    t = table(p, q)
    points = _regular_points(rng, t, [None] * QUERY_POINTS)
    # half the pairs compare a point with a close neighbour, mostly in the same region
    near = _regular_points(rng, t, points[:QUERY_SAME // 2])
    pairs = list(zip(points, near)) + [(points[i], points[i + 1]) for i in range(QUERY_SAME // 2)]
    return {"p": p, "q": q, "points": points, "pairs": pairs}


def phase_anchors(rng: random.Random) -> list[dict]:
    return [_render(rng, 7, 13, 512, "svg")]


def phase_cycle(rng: random.Random) -> list[dict]:
    jobs = [_render(rng, p, q, 256, enc) for (p, q), enc in zip(rng.choices(PHASE_SMALL, k=3), ("png", "png", "svg"))]
    jobs += [_render(rng, p, q, 512, "png") for p, q in rng.choices(PHASE_TINY, k=1)]
    jobs += [_queries(rng, p, q) for p, q in rng.choices(PHASE_LIGHT, k=2)]
    jobs += [_queries(rng, p, q) for p, q in rng.choices(PHASE_BULK, k=14)]
    return jobs


def phase_run(job):
    params = fk.TorusParams(job["p"], job["q"])
    if "grid" in job:
        pmap = fk.phase_map_render(params, job["grid"])
        image = pmap.to_png_bytes() if job["enc"] == "png" else pmap.to_svg()
        return pmap, image
    lines = fk.singular_lines(params)
    signs = [fk.sign_vector(params, fk.PhasePoint(*pt)) for pt in job["points"]]
    same = [fk.same_knot_by_phases(params, fk.PhasePoint(*a), fk.PhasePoint(*b)) for a, b in job["pairs"]]
    return lines, signs, same


def _own_signs(p, q, pt, indices):
    """Height-gap signs from knot_with_phases(...).z.eval at the closed-form times."""
    z = fk.knot_with_phases(fk.TorusParams(p, q), fk.PhasePoint(*pt)).z
    times = np.array([oracles.theorem_times(p, q, ix.kind, ix.k, ix.j) for ix in indices])
    return np.where(z.eval(times[:, 0]) - z.eval(times[:, 1]) > 0, 1, -1)


def phase_check(job, out):
    p, q = job["p"], job["q"]
    t = table(p, q)
    if "grid" in job:
        pmap, image = out
        grid = job["grid"]
        data = oracles.class_counts(pmap.classes, pmap.n_classes)
        cause = oracles.check_raster(t, pmap.classes, grid, np.array(job["cells"]))
        if job["enc"] == "png":
            cause = cause or oracles.check_png(image, grid * 2)
        else:
            cause = cause or oracles.check_svg(image, grid * max(1, 512 // grid))
        return cause, {job["enc"]: digest(image)}, data
    lines, signs, same = out
    n = n_crossings(p, q)
    for line in lines:
        z = fk.knot_with_phases(fk.TorusParams(p, q), fk.PhasePoint(1.0, line.phi2_at(1.0))).z
        t1, t2 = oracles.theorem_times(p, q, line.kind, line.k, line.j)
        if abs(z.eval(t1) - z.eval(t2)) > 1e-8:
            return f"singular line {line} is not singular for its crossing", {}, {}
    own = {}
    for pt, sv in zip(job["points"], signs):
        if len(sv.items) != n:
            return f"sign vector has {len(sv.items)} entries, expected {n}", {}, {}
        got = np.array([s for _, s in sv.items])
        own[pt] = _own_signs(p, q, pt, [ix for ix, _ in sv.items])
        if not np.array_equal(got, own[pt]):
            return f"sign_vector at {pt} differs from z.eval at the closed-form times", {}, {}
    order = [ix for ix, _ in signs[0].items]
    for (a, b), answer in zip(job["pairs"], same):
        sa, sb = (own[pt] if pt in own else _own_signs(p, q, pt, order) for pt in (a, b))
        expect = np.array_equal(sa, sb)
        if answer != expect:
            return f"same_knot_by_phases{a, b} = {answer}, expected {expect}", {}, {}
    return None, {"queries": digest(repr([sv.to_json() for sv in signs] + same))}, {"lines": len(lines)}


# ---------------------------------------------------------------------------
# verify: the CLI's verify command in-process, stdout captured

VERIFY_RANGES = [(pmax, qmax) for pmax in range(3, 7) for qmax in range(pmax + 2, 12)]
# bands by the number of coprime pairs a range holds
VERIFY_LIGHT = [r for r in VERIFY_RANGES if oracles.coprime_pairs(*r) <= 8]
VERIFY_BULK = [r for r in VERIFY_RANGES if 11 <= oracles.coprime_pairs(*r) <= 13]
VERIFY_HEAVY = [r for r in VERIFY_RANGES if 16 <= oracles.coprime_pairs(*r) <= 17]
VERIFY_ANCHORS = [{"pmax": 7, "qmax": 13}]


def verify_cycle(rng: random.Random) -> list[dict]:
    jobs = []
    for pool, count in ((VERIFY_LIGHT, 2), (VERIFY_BULK, 6), (VERIFY_HEAVY, 2)):
        jobs += [{"pmax": a, "qmax": b} for a, b in rng.choices(pool, k=count)]
    return jobs


def verify_run(job):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", "--pmax", str(job["pmax"]), "--qmax", str(job["qmax"])])
    return code, buf.getvalue()


def verify_check(job, out):
    code, text = out
    cause = oracles.check_verify(code, text, job["pmax"], job["qmax"])
    return cause, {"stdout": digest(oracles.verify_stable_text(text))}, {}


# ---------------------------------------------------------------------------

Workload = collections.namedtuple("Workload", "anchors cycle run check warmup")

# anchors and warmup take an rng because phase jobs carry seeded cells and points
WORKLOADS = {
    "crosscheck": Workload(lambda rng: CROSS_ANCHORS, crosscheck_cycle, crosscheck_run, crosscheck_check,
                           lambda rng: [{"p": 3, "q": 7, "grid": 2048}]),
    "identify": Workload(lambda rng: IDENT_ANCHORS, identify_cycle, identify_run, identify_check,
                         lambda rng: [{"p": 3, "q": 7}]),
    "phase": Workload(phase_anchors, phase_cycle, phase_run, phase_check,
                      lambda rng: [_render(rng, 2, 3, 64, "png"), _render(rng, 2, 3, 64, "svg"),
                                   _queries(rng, 2, 3)]),
    "verify": Workload(lambda rng: VERIFY_ANCHORS, verify_cycle, verify_run, verify_check,
                       lambda rng: [{"pmax": 3, "qmax": 5}]),
}
