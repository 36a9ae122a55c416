import hashlib
import itertools
import math
import random

import pytest

from fourierknot import (
    FourierKnot,
    FourierSeries,
    FourierTerm,
    GaussCode,
    IdentificationFailure,
    IncompleteCrossingSet,
    LaurentPolynomial,
    NotAKnot,
    PDCode,
    SingularDiagram,
    TorusParams,
    alexander_from_diagram,
    analytic_crossing_set,
    build_gauss_code,
    build_pd_code,
    find_crossings_numeric,
    gen_standard_knot,
    gen_theorem_knot,
    identify,
    knot_with_phases,
    simplified_phase_point,
    torus_alexander_oracle,
    writhe,
)
from fourierknot import diagram
from fourierknot.crossings import TYPE_I, TYPE_II, near_pairs

L = LaurentPolynomial


def theorem_set(p, q, simplified=False):
    params = TorusParams(p, q)
    knot = gen_theorem_knot(params, simplified=simplified)
    return params, knot, analytic_crossing_set(knot, params)


def mirrored(knot):
    """Negate z by shifting both phases by pi."""
    flipped = FourierSeries(
        tuple(FourierTerm(t.amplitude, t.frequency, t.phase + math.pi) for t in knot.z.terms)
    )
    return FourierKnot(knot.x, knot.y, flipped)


# -- oracle ------------------------------------------------------------------


def test_oracle_2_3():
    assert torus_alexander_oracle(TorusParams(2, 3)) == L({0: 1, 1: -1, 2: 1})


def test_oracle_2_5():
    assert torus_alexander_oracle(TorusParams(2, 5)) == L({0: 1, 1: -1, 2: 1, 3: -1, 4: 1})


def test_oracle_determinant_at_minus_one():
    assert abs(torus_alexander_oracle(TorusParams(2, 5)).evaluate_int(-1)) == 5


@pytest.mark.parametrize("pq", [(2, 3), (2, 7), (3, 4), (3, 5), (4, 5)])
def test_oracle_symmetry_and_unit_value(pq):
    poly = torus_alexander_oracle(TorusParams(*pq))
    assert poly.reciprocal().normalized() == poly
    assert abs(poly.evaluate_int(1)) == 1


# -- gauss code ---------------------------------------------------------------


def test_gauss_code_2_3_structure():
    params, knot, cs = theorem_set(2, 3)
    gc = build_gauss_code(knot, cs)
    assert len(gc) == 14
    ids = [cid for cid, _, _ in gc.entries]
    assert sorted(set(ids)) == list(range(1, 8))
    assert all(ids.count(i) == 2 for i in set(ids))


def test_gauss_code_type1_signs_negative():
    params, knot, cs = theorem_set(2, 3)
    gc = build_gauss_code(knot, cs)
    type1_ids = {
        i + 1 for i, c in enumerate(cs.crossings) if c.indices.kind == TYPE_I
    }
    for cid, _, sign in gc.entries:
        if cid in type1_ids:
            assert sign == -1


def test_gauss_code_empty():
    params = TorusParams(2, 3)
    knot = gen_theorem_knot(params)
    from fourierknot import CrossingSet

    empty = CrossingSet(knot, (), "analytic")
    assert len(build_gauss_code(knot, empty)) == 0


def test_gauss_code_validation():
    with pytest.raises(IncompleteCrossingSet):
        GaussCode(((1, "O", 1), (1, "O", 1)))
    with pytest.raises(IncompleteCrossingSet):
        GaussCode(((1, "O", 1), (1, "U", -1)))
    with pytest.raises(IncompleteCrossingSet):
        GaussCode(((1, "O", 1),))


# -- pd code ------------------------------------------------------------------


def test_pd_code_labels_twice():
    params, knot, cs = theorem_set(2, 3)
    pd = build_pd_code(cs)
    counts: dict[int, int] = {}
    for tup in pd.crossings:
        for label in tup:
            counts[label] = counts.get(label, 0) + 1
    assert set(counts.values()) == {2}
    assert set(counts) == set(range(1, 15))


def test_pd_code_rejects_bad_labels():
    # a label seen once; labels seen twice but outside 1..2N
    for code in [((1, 2, 3, 4),), ((5, 6, 6, 5),), ((3, 3, 2, 2),), ((1, 1, 0, 0),)]:
        with pytest.raises(SingularDiagram):
            PDCode(code)


def test_pd_code_rejects_links():
    # Hopf-link-like pairing: edges split into two strand cycles
    with pytest.raises(NotAKnot):
        alexander_from_diagram(PDCode(((1, 3, 2, 4), (3, 1, 4, 2))))


# -- alexander from the diagram ------------------------------------------------


def test_alexander_2_3():
    params, knot, cs = theorem_set(2, 3)
    assert alexander_from_diagram(build_pd_code(cs)) == L({0: 1, 1: -1, 2: 1})


def test_alexander_2_5():
    params, knot, cs = theorem_set(2, 5)
    assert alexander_from_diagram(build_pd_code(cs)) == torus_alexander_oracle(params)


def test_alexander_unknot():
    assert alexander_from_diagram(PDCode(())) == L.one()


@pytest.mark.parametrize("engine", ["bareiss", "modular"])
def test_alexander_engines_agree(engine, monkeypatch):
    from fourierknot import laurent

    # the size rule picks the remainder engine; force the named one
    monkeypatch.setattr(laurent, "BAREISS_MAX_SIZE", 10**9 if engine == "bareiss" else -1)
    params, knot, cs = theorem_set(2, 7)
    assert alexander_from_diagram(build_pd_code(cs)) == torus_alexander_oracle(params)


@pytest.mark.parametrize("pq", [(2, 3), (2, 5), (3, 4), (3, 5)])
def test_alexander_symmetry_from_diagram(pq):
    params, knot, cs = theorem_set(*pq)
    poly = alexander_from_diagram(build_pd_code(cs))
    assert poly.reciprocal().normalized() == poly
    assert abs(poly.evaluate_int(1)) == 1


# -- writhe --------------------------------------------------------------------


def test_writhe_empty():
    from fourierknot import CrossingSet

    knot = gen_theorem_knot(TorusParams(2, 3))
    assert writhe(CrossingSet(knot, (), "analytic")) == 0


def test_writhe_type1_contribution_3_7():
    params, knot, cs = theorem_set(3, 7)
    assert sum(c.sign for c in cs.of_kind(TYPE_I)) == -14


def test_writhe_decomposition_2_3():
    params, knot, cs = theorem_set(2, 3)
    type2_sum = sum(c.sign for c in cs.of_kind(TYPE_II))
    assert writhe(cs) == -3 + type2_sum


# -- identify ------------------------------------------------------------------


def test_identify_3_7():
    params, knot, cs = theorem_set(3, 7)
    summary = identify(knot, cs, params)
    assert (summary.type1_count, summary.type2_count) == (14, 18)
    assert summary.crossing_count == 32
    assert summary.alexander == torus_alexander_oracle(params)


def test_identify_mirror_fails_on_handedness():
    params = TorusParams(2, 3)
    knot = mirrored(gen_theorem_knot(params))
    cs = analytic_crossing_set(knot, params)
    assert len(cs) == 7  # counts are mirror-invariant
    assert all(c.sign == 1 for c in cs.of_kind(TYPE_I))
    with pytest.raises(IdentificationFailure) as err:
        identify(knot, cs, params)
    assert err.value.condition == "type1-handedness"


def test_identify_standard_knot_numeric():
    params = TorusParams(2, 3)
    knot = gen_standard_knot(params)
    cs = find_crossings_numeric(knot, 512)
    summary = identify(knot, cs, params)
    assert summary.alexander == L({0: 1, 1: -1, 2: 1})
    assert summary.type1_count is None and summary.type2_count is None
    assert summary.crossing_count == 3


@pytest.mark.parametrize("pq", [(2, 3), (2, 5), (3, 4)])
def test_identify_small_range(pq):
    params, knot, cs = theorem_set(*pq)
    summary = identify(knot, cs, params)
    assert summary.crossing_count == 2 * pq[0] * pq[1] - pq[0] - pq[1]


def test_summary_json():
    params, knot, cs = theorem_set(2, 3)
    text = identify(knot, cs, params).to_json()
    import json

    data = json.loads(text)
    assert data["crossings"] == 7
    assert data["type1"] == 3 and data["type2"] == 4
    assert data["alexander"] == [[0, 1], [1, -1], [2, 1]]


# every coprime p < q <= 29 with fewer than 330 crossings in (q, p) order, then T(11, 24)
PINNED_PAIRS = [
    (p, q) for q in range(3, 30) for p in range(2, q)
    if math.gcd(p, q) == 1 and 2 * p * q - p - q < 330
] + [(11, 24)]


def test_identify_outputs_pinned():
    # identify(...).to_json() as "p q json" lines over PINNED_PAIRS
    lines = []
    for p, q in PINNED_PAIRS:
        params = TorusParams(p, q)
        knot = gen_theorem_knot(params)
        lines.append(f"{p} {q} {identify(knot, analytic_crossing_set(knot, params), params).to_json()}")
    assert len(lines) == 113
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "807284a3314f5c00369d446dc3348ca8c11968926f35712113100a71528a22d1"
    )


def test_incomplete_passages_detected():
    params = TorusParams(2, 3)
    knot = gen_theorem_knot(params)
    cs = analytic_crossing_set(knot, params)
    from dataclasses import replace
    from fourierknot import CrossingSet

    # clone one crossing onto a distinct-but-coincident passage time
    bad = list(cs.crossings)
    bad[1] = replace(bad[1], t1=bad[0].t1)
    bad.sort(key=lambda c: (c.t1, c.t2))
    broken = CrossingSet(knot, tuple(bad), "analytic")
    with pytest.raises(IncompleteCrossingSet):
        build_gauss_code(knot, broken)


# -- Wirtinger rows ----------------------------------------------------------------


class _Captured(Exception):
    """Raised by the det_poly_matrix stand-in once it holds the minor."""


def captured_minor(monkeypatch, fn, *args):
    """The minor fn(*args) hands to det_poly_matrix: rows of (column, pairs) in dict order."""
    seen = []

    def record(minor):
        seen.append(tuple(tuple((col, e.pairs()) for col, e in row.items()) for row in minor))
        raise _Captured

    monkeypatch.setattr(diagram, "det_poly_matrix", record)
    with pytest.raises(_Captured):
        fn(*args)
    return seen[0]


def test_identify_rows_pinned(monkeypatch):
    # the minors identify builds from passage positions, entry for entry and in
    # dict order, are the ones alexander_from_diagram builds from the PD code
    digest = hashlib.sha256()
    for p, q in PINNED_PAIRS:
        params, knot, cs = theorem_set(p, q)
        rows = captured_minor(monkeypatch, identify, knot, cs, params)
        assert captured_minor(monkeypatch, alexander_from_diagram, build_pd_code(cs)) == rows
        digest.update(f"{p} {q} {rows!r}\n".encode())
    assert digest.hexdigest() == (
        "5da002cba82176582a518076789cb517f8a6c3a112de7142b854b5d9e8dca9c5"
    )


def random_pd_codes(rng, count):
    """PD codes of 2-4 crossings, a third of each kind.

    Knot diagrams written the way build_pd_code writes them (random passage
    positions and signs), the same with two label slots swapped, and random
    shuffles of the label multiset (every label twice, so PDCode accepts them).
    """
    for i in range(count):
        n = rng.randint(2, 4)
        if i % 3 < 2:
            pos = list(range(2 * n))
            rng.shuffle(pos)
            flat = []
            for under, over in zip(pos[::2], pos[1::2]):
                a, c, o_in, o_out = under or 2 * n, under + 1, over or 2 * n, over + 1
                flat += (a, o_out, c, o_in) if rng.random() < 0.5 else (a, o_in, c, o_out)
            if i % 3 == 1:
                s, u = rng.sample(range(4 * n), 2)
                flat[s], flat[u] = flat[u], flat[s]
        else:
            flat = [e for e in range(1, 2 * n + 1) for _ in range(2)]
            rng.shuffle(flat)
        yield tuple(tuple(flat[k:k + 4]) for k in range(0, 4 * n, 4))


def test_random_pd_codes_pinned():
    # which codes are accepted, and their polynomials; every rejection is a
    # NotAKnot or a SingularDiagram
    one_crossing = [(code,) for code in itertools.product((1, 2), repeat=4)]
    codes = one_crossing + list(random_pd_codes(random.Random(20261018), 3000))
    digest = hashlib.sha256()
    accepted = 0
    for code in codes:
        try:
            poly = alexander_from_diagram(PDCode(code))
        except (NotAKnot, SingularDiagram):
            continue
        accepted += 1
        digest.update(f"{code} {poly.pairs()}\n".encode())
    assert (accepted, digest.hexdigest()) == (
        1190, "469678a050e62ad0044f2873783d2f5ad72930a1d964f4d085cc626bf2c5c067"
    )


def test_pd_code_under_pair_fault():
    # one closed strand (1-2-3-4-1 through the strand pairings), but the
    # first crossing's under-strand edges (2, 1) are not consecutive
    with pytest.raises(NotAKnot, match="under-strand"):
        alexander_from_diagram(PDCode(((2, 3, 1, 4), (2, 1, 3, 4))))


def test_pd_code_over_pair_fault():
    # one closed strand (1-2-4-3-1), but neither over pair is consecutive
    with pytest.raises(SingularDiagram, match="over-strand"):
        alexander_from_diagram(PDCode(((1, 2, 2, 4), (3, 3, 4, 1))))


def test_pd_code_link_with_over_pair_fault():
    # two faults: several components and a non-consecutive over pair; the
    # over pair is read first
    with pytest.raises(SingularDiagram, match="over-strand"):
        alexander_from_diagram(PDCode(((4, 5, 5, 6), (2, 4, 3, 1), (3, 1, 2, 6))))


# -- passage positions -----------------------------------------------------------


def one_crossing_knot():
    """x = cos t, y = cos(2t + pi/2), z = cos(t - pi/2): a single left-handed crossing."""
    def term(frequency, phase):
        return FourierSeries((FourierTerm(1.0, frequency, phase),))

    return FourierKnot(term(1, 0.0), term(2, math.pi / 2), term(1, -math.pi / 2))


def test_one_crossing_code_reads_back_left_handed():
    knot = one_crossing_knot()
    cs = find_crossings_numeric(knot, 2048)
    assert [c.sign for c in cs.crossings] == [-1]
    pd = build_pd_code(cs)
    assert pd.crossings == ((1, 2, 2, 1),)
    # with N = 1 both readings of the over pair fit; the over-strand enters
    # on the edge the under-strand does not
    assert diagram._pd_orientation(pd) == diagram._passage_positions(cs) == [(1, 0, -1)]
    assert alexander_from_diagram(pd) == L.one()


@pytest.mark.parametrize("q", [5, 7])
def test_set_with_dropped_singular_candidates_is_refused(q):
    # the short phase pi/(2p) lies on singular lines for odd p: the finder
    # drops the candidates whose strands meet in space, and what is left is
    # no knot diagram
    params = TorusParams(3, q)
    knot = knot_with_phases(params, simplified_phase_point(params))
    diagnostics = []
    cs = find_crossings_numeric(knot, 2048, diagnostics)
    dropped = sum(status == "singular" for status, _, _ in diagnostics)
    assert dropped > 0 and cs.singular_candidates == dropped
    assert len(cs) == 2 * 3 * q - 3 - q - dropped
    for build in (lambda: build_gauss_code(knot, cs), lambda: build_pd_code(cs),
                  lambda: identify(knot, cs, params)):
        with pytest.raises(IncompleteCrossingSet, match=f"{dropped} singular candidate"):
            build()


def random_cosine_series(rng):
    return FourierSeries(tuple(
        FourierTerm(rng.uniform(0.5, 1.5), rng.randint(1, 4), rng.uniform(0.0, 2 * math.pi))
        for _ in range(rng.randint(1, 2))
    ))


def with_phases(knot, phase):
    """The knot with every term's phase replaced by phase(term)."""
    def series(s):
        return FourierSeries(tuple(FourierTerm(t.amplitude, t.frequency, phase(t)) for t in s.terms))

    return FourierKnot(series(knot.x), series(knot.y), series(knot.z))


def numeric_alexander(knot):
    """Alexander polynomial of the knot's numeric set at grid 2048 by both routes.

    None when the finder reported a failed candidate.  A set that dropped a
    singular candidate must be refused.
    """
    diagnostics = []
    cs = find_crossings_numeric(knot, 2048, diagnostics)
    if any(status == "singular" for status, _, _ in diagnostics):
        with pytest.raises(IncompleteCrossingSet, match="singular candidate"):
            build_pd_code(cs)
    if diagnostics:
        return None
    record = diagram._passage_positions(cs)
    pd = build_pd_code(cs)
    assert diagram._pd_orientation(pd) == record
    alex = diagram._alexander_from_positions(record)
    assert alexander_from_diagram(pd) == alex
    return alex


def test_random_cosine_knots_alexander_metamorphic():
    # no oracle: the PD route and the set route agree, and the polynomial is
    # unchanged by the mirror z -> -z, a shift of t and a reversal of t
    rng = random.Random(4)
    usable = nontrivial = 0
    for _ in range(60):
        knot = FourierKnot(*(random_cosine_series(rng) for _ in range(3)))
        delta = rng.uniform(0.0, 2 * math.pi)
        variants = [
            knot,
            mirrored(knot),
            with_phases(knot, lambda t: t.phase + t.frequency * delta),
            with_phases(knot, lambda t: -t.phase),
        ]
        polys = [numeric_alexander(k) for k in variants]
        if None in polys:
            continue
        usable += 1
        alex = polys[0]
        nontrivial += alex != L.one()
        assert polys == [alex] * 4
        assert abs(alex.evaluate_int(1)) == 1
        assert alex.reciprocal().normalized() == alex
    assert usable >= 20 and nontrivial >= 1


def test_random_cosine_knots_grid_doubling():
    # no oracle: on the metamorphic test's 60 draws, every one without
    # diagnostics at grids 2048 and 4096 finds the same crossings at both
    rng = random.Random(4)
    compared = 0
    for _ in range(60):
        knot = FourierKnot(*(random_cosine_series(rng) for _ in range(3)))
        rng.uniform(0.0, 2 * math.pi)  # that test's shift, drawn so the knots match
        diagnostics = []
        coarse = find_crossings_numeric(knot, 2048, diagnostics)
        fine = find_crossings_numeric(knot, 4096, diagnostics)
        if diagnostics:
            continue
        compared += 1
        n = len(coarse)
        assert len(fine) == n
        across = [(i, j) for i, j in near_pairs([(c.t1, c.t2) for c in coarse.crossings + fine.crossings])
                  if i < n <= j]
        assert {i for i, _ in across} == set(range(n))
        assert {j for _, j in across} == set(range(n, 2 * n))
    assert compared >= 20
