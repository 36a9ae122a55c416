"""Acceptance suite: one test per criterion, each printing a pass line.

Ranges, tolerances and runtime budgets are pinned here; run with -v (and -s
to see the pass lines) for the per-criterion report.
"""

import math
import random
import time

import numpy as np
import pytest

from fourierknot import (
    SingularPoint,
    StandardTorusGeometry,
    TorusParams,
    alexander_from_diagram,
    analytic_crossing_set,
    build_gauss_code,
    build_pd_code,
    certify_intercept_reading,
    classify,
    find_crossings_numeric,
    gen_standard_knot,
    gen_theorem_knot,
    identify,
    sign_vector,
    simplified_phase_point,
    singular_lines,
    theorem_phase_point,
    torus_alexander_oracle,
)
from fourierknot.crossings import (
    TYPE_I,
    TYPE_II,
    CrossingIndices,
    _crossing_table,
    near_pairs,
    pair_difference,
    pair_distance,
)
from fourierknot.phases import PhasePoint, same_knot_by_phases
from fourierknot.series import TWO_PI
from crossings_reference import family
from series_reference import standard_torus_point

FULL_RANGE = [(p, q) for q in range(3, 14) for p in range(2, q) if math.gcd(p, q) == 1]
IDENTIFY_RANGE = [
    (p, q)
    for q in range(3, 21)
    for p in range(2, q)
    if math.gcd(p, q) == 1 and q * (p - 1) <= 20
]
EQUIV_RANGE = [(p, q) for (p, q) in IDENTIFY_RANGE if q * (p - 1) <= 16]
EVEN_P_RANGE = [(p, q) for q in range(3, 12) for p in range(2, q, 2) if math.gcd(p, q) == 1]
ODD_P_RANGE = [(p, q) for q in range(3, 12) for p in range(3, q, 2) if math.gcd(p, q) == 1]


def report(n: int, text: str) -> None:
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_crossing_counts():
    t0 = time.perf_counter()
    for p, q in FULL_RANGE:
        params = TorusParams(p, q)
        assert len(family(params, TYPE_I)) == p * q - q, (p, q)
        assert len(family(params, TYPE_II)) == p * q - p, (p, q)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"enumeration took {elapsed:.2f}s, budget 5s"
    report(1, f"analytic counts pq-q / pq-p exact for {len(FULL_RANGE)} pairs in {elapsed:.2f}s")


def test_criterion_02_numeric_analytic_agreement():
    # one warm-up call so first-use costs are not billed as runtime
    find_crossings_numeric(gen_theorem_knot(TorusParams(2, 3)), 512)
    t0 = time.perf_counter()
    for p, q in FULL_RANGE:
        params = TorusParams(p, q)
        knot = gen_theorem_knot(params)
        numeric = find_crossings_numeric(knot, 2048)
        assert len(numeric) == 2 * p * q - p - q, (p, q, len(numeric))
        analytic = [(c.t1, c.t2) for c in analytic_crossing_set(knot, params).crossings]
        pairs = analytic + [(c.t1, c.t2) for c in numeric.crossings]
        near = {}  # per numeric crossing, its analytic pairs within EPS_DEDUPE = 1e-6
        for i, j in near_pairs([a for a, _ in pairs], [b for _, b in pairs]):
            if i < len(analytic) <= j:
                near.setdefault(j, []).append(i)
        for j, c in enumerate(numeric.crossings, len(analytic)):
            nearest = min((pair_distance((c.t1, c.t2), analytic[k]) for k in near.get(j, ())), default=math.inf)
            assert nearest < 1e-6, (p, q, c.t1, c.t2, nearest)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"numeric sweep took {elapsed:.2f}s, budget 60s"
    report(2, f"numeric finder recovers all 2pq-p-q crossings at grid 2048 in {elapsed:.2f}s")


def test_criterion_03_same_direction_left_handed():
    checked = 0
    for p, q in FULL_RANGE:
        params = TorusParams(p, q)
        knot = gen_theorem_knot(params)
        for ix, t1, t2 in family(params, TYPE_I):
            crossing = classify(knot, t1, t2, ix)
            assert crossing.sign == -1, (p, q, ix)
            a = p * ix.j * math.pi / q
            closed = -math.sin(a - math.pi / (2 * q)) * math.sin(a - math.pi / (4 * q))
            assert closed < 0, (p, q, ix)
            planar = (
                knot.x.eval_derivative(t1) * knot.y.eval_derivative(t2)
                - knot.x.eval_derivative(t2) * knot.y.eval_derivative(t1)
            )
            expr = planar * (knot.z.eval(t1) - knot.z.eval(t2))
            assert (expr > 0) == (closed > 0), (p, q, ix)
            checked += 1
    report(3, f"all {checked} same-direction crossings left-handed, sign matches the closed form")


def test_criterion_04_opposite_direction_over_law():
    checked = 0
    for p, q in FULL_RANGE:
        params = TorusParams(p, q)
        knot = gen_theorem_knot(params)
        for ix, t1, t2 in family(params, TYPE_II):
            crossing = classify(knot, t1, t2, ix)
            t_over = crossing.t1 if crossing.over == "t1" else crossing.t2
            assert knot.x.eval_derivative(t_over) > 0, (p, q, ix)
            lhs = knot.x.eval_derivative(t1) * pair_difference(knot.z, t1, t2)
            bracket = 1 - (-1) ** ix.k * math.sin(
                ix.j * q * math.pi / p + math.pi / (2 * p) - math.pi / (4 * q)
            )
            rhs = 2 * p * math.sin(p * ix.k * math.pi / q) ** 2 * bracket
            assert lhs > 0, (p, q, ix)
            assert abs(lhs - rhs) < 1e-9, (p, q, ix, lhs - rhs)
            checked += 1
    report(4, f"all {checked} opposite-direction crossings obey the over-direction law within 1e-9")


def test_criterion_05_identification():
    for p, q in IDENTIFY_RANGE:
        params = TorusParams(p, q)
        knot = gen_theorem_knot(params)
        crossings = analytic_crossing_set(knot, params)
        diagram = alexander_from_diagram(build_pd_code(crossings))
        assert diagram == torus_alexander_oracle(params), (p, q)
        identify(knot, crossings, params)
    report(5, f"diagram Alexander equals the closed form exactly for {len(IDENTIFY_RANGE)} pairs")


def test_criterion_06_parameterization_equivalence():
    geom = StandardTorusGeometry(2.0, 1.0)
    for p, q in EQUIV_RANGE:
        params = TorusParams(p, q)
        standard = gen_standard_knot(params, geom)
        numeric = find_crossings_numeric(standard, 1024)
        alex_standard = alexander_from_diagram(build_pd_code(numeric))
        theorem = gen_theorem_knot(params)
        alex_theorem = alexander_from_diagram(
            build_pd_code(analytic_crossing_set(theorem, params))
        )
        assert alex_standard == alex_theorem, (p, q)
    report(6, f"three-term and two-term-z forms give identical Alexander for {len(EQUIV_RANGE)} pairs")


def test_criterion_07_even_p_simplification():
    for p, q in EVEN_P_RANGE:
        params = TorusParams(p, q)
        assert same_knot_by_phases(
            params, theorem_phase_point(params), simplified_phase_point(params)
        ), (p, q)
        theorem = gen_theorem_knot(params)
        simplified = gen_theorem_knot(params, simplified=True)
        gc_theorem = build_gauss_code(theorem, analytic_crossing_set(theorem, params))
        simplified_set = analytic_crossing_set(simplified, params)
        gc_simplified = build_gauss_code(simplified, simplified_set)
        assert gc_theorem == gc_simplified, (p, q)
        identify(simplified, simplified_set, params)
    report(7, f"short z phase keeps sign vector, Gauss code and identification for {len(EVEN_P_RANGE)} even-p pairs")


def test_criterion_08_odd_p_boundary():
    for p, q in ODD_P_RANGE:
        params = TorusParams(p, q)
        point = simplified_phase_point(params)
        with pytest.raises(SingularPoint) as err:
            sign_vector(params, point)
        degenerate_type2 = [ix for ix in err.value.indices if ix.kind == TYPE_II]
        assert len(degenerate_type2) >= 2, (p, q, err.value.indices)
        table = _crossing_table(params)
        for ix in degenerate_type2:
            gap = table.height_gap(table.indices.index(ix), point.phi1, point.phi2)
            assert abs(gap) < 1e-9, (p, q, ix)
    report(8, f"short z phase lands on >= 2 crossing-degeneracy lines for {len(ODD_P_RANGE)} odd-p pairs")


def test_criterion_09_rewrite_fidelity():
    rng = random.Random(2024)
    configs = []
    while len(configs) < 10:
        p, q = rng.choice(FULL_RANGE)
        R = rng.uniform(1.5, 3.0)
        r = rng.uniform(0.2, 0.9 * R)
        configs.append((TorusParams(p, q), StandardTorusGeometry(R, r)))
    for params, geom in configs:
        knot = gen_standard_knot(params, geom)
        ts = np.array([rng.uniform(0.0, TWO_PI) for _ in range(1000)])
        rx, ry, rz = standard_torus_point(params, geom, ts)
        assert np.max(np.abs(knot.x.eval(ts) - rx)) < 1e-10
        assert np.max(np.abs(knot.y.eval(ts) - ry)) < 1e-10
        assert np.max(np.abs(knot.z.eval(ts) - rz)) < 1e-10
    report(9, "cosine-series rewrite matches the product form to 1e-10 on 10 random configurations")


def test_criterion_10_singular_line_certification():
    rng = random.Random(7)
    pairs = [(p, q) for (p, q) in FULL_RANGE if q <= 7]
    total = 0
    for p, q in pairs:
        params = TorusParams(p, q)
        lines = singular_lines(params)  # raises CertificationFailure on any bad line
        table = _crossing_table(params)
        for line in lines:
            row = table.indices.index(CrossingIndices(line.kind, line.k, line.j))
            for _ in range(10):
                phi1 = rng.uniform(0.0, TWO_PI)
                point = PhasePoint(phi1, line.phi2_at(phi1))
                assert abs(table.height_gap(row, point.phi1, point.phi2)) < 1e-9, (p, q, line)
        total += len(lines)
    reading, good, bad = certify_intercept_reading(TorusParams(3, 7))
    assert reading == "(1/p - 1/q) * pi/2"
    report(
        10,
        f"{total} singular lines certified below 1e-9; horizontal-line intercept constant "
        f"certified as {reading} (residual {good:.1e}; alternative reading rejected at {bad:.1e})",
    )
