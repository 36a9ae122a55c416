import hashlib
import math

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
    torus_alexander_oracle,
    writhe,
)
from fourierknot.crossings import TYPE_I, TYPE_II

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
    with pytest.raises(SingularDiagram):
        PDCode(((1, 2, 3, 4),))


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


def test_identify_outputs_pinned():
    # identify(...).to_json() as "p q json" lines: every coprime p < q <= 29 with
    # fewer than 330 crossings in (q, p) order, then T(11, 24)
    pairs = [
        (p, q) for q in range(3, 30) for p in range(2, q)
        if math.gcd(p, q) == 1 and 2 * p * q - p - q < 330
    ] + [(11, 24)]
    lines = []
    for p, q in pairs:
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
