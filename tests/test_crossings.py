import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fourierknot import (
    CrossingSet,
    SingularCrossing,
    TorusParams,
    WrongKnotShape,
    analytic_crossing_set,
    classify,
    direction_product,
    enumerate_type1,
    enumerate_type2,
    gen_standard_knot,
    gen_theorem_knot,
    zdiff,
)
from fourierknot.crossings import (
    EPS_DEDUPE,
    TYPE_I,
    TYPE_II,
    Crossing,
    circular_distance,
    near_pairs,
    pair_difference,
    pair_distance,
)
from fourierknot.series import TWO_PI, reduce_angle

COPRIME_PAIRS = [(p, q) for q in range(3, 14) for p in range(2, q) if math.gcd(p, q) == 1]


def test_type1_2_3_indices_and_times():
    entries = enumerate_type1(TorusParams(2, 3))
    assert [(ix.k, ix.j) for ix, _, _ in entries] == [(1, 2), (1, 3), (1, 4)]
    ix, t1, t2 = entries[0]
    assert t1 == pytest.approx(math.pi / 12, abs=1e-12)
    assert t2 == pytest.approx(13 * math.pi / 12, abs=1e-12)
    # the shared x value at this pair is cos(pi/6) = sqrt(3)/2
    knot = gen_theorem_knot(TorusParams(2, 3))
    assert knot.x.eval(t1) == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
    assert knot.x.eval(t2) == pytest.approx(math.sqrt(3) / 2, abs=1e-12)


def test_type1_counts():
    assert len(enumerate_type1(TorusParams(2, 3))) == 3
    assert len(enumerate_type1(TorusParams(3, 7))) == 14


def test_type2_2_3_indices_and_times():
    entries = enumerate_type2(TorusParams(2, 3))
    assert [(ix.k, ix.j) for ix, _, _ in entries] == [(1, 1), (1, 2), (1, 3), (2, 2)]
    ix, t1, t2 = entries[0]
    assert t1 == pytest.approx(math.pi / 6, abs=1e-12)
    assert t2 == pytest.approx(5 * math.pi / 6, abs=1e-12)


def test_type2_counts():
    assert len(enumerate_type2(TorusParams(2, 3))) == 4
    assert len(enumerate_type2(TorusParams(3, 7))) == 18


@pytest.mark.parametrize("pq", COPRIME_PAIRS)
def test_per_k_count_identity_exact(pq):
    p, q = pq
    total = 0
    for k in range(1, p):
        j_lo = 1 + (2 * k * q + 1) // (2 * p)
        j_hi = (4 * p * q - 2 * k * q + 1) // (2 * p)
        total += j_hi - j_lo + 1
    assert total == q * (p - 1)


@pytest.mark.parametrize("pq", COPRIME_PAIRS)
def test_residuals_below_bound(pq):
    params = TorusParams(*pq)
    knot = gen_theorem_knot(params)
    for _, t1, t2 in enumerate_type1(params) + enumerate_type2(params):
        assert abs(knot.x.eval(t1) - knot.x.eval(t2)) < 1e-9
        assert abs(knot.y.eval(t1) - knot.y.eval(t2)) < 1e-9


@pytest.mark.parametrize("pq", COPRIME_PAIRS)
def test_direction_law(pq):
    params = TorusParams(*pq)
    p, q = pq
    knot = gen_theorem_knot(params)
    for ix, t1, t2 in enumerate_type1(params):
        d = direction_product(knot, t1, t2)
        closed = p * p * math.sin(ix.j * p * math.pi / q - math.pi / (2 * q)) ** 2
        assert d > 0
        assert d == pytest.approx(closed, abs=1e-9)
    for _, t1, t2 in enumerate_type2(params):
        assert direction_product(knot, t1, t2) < 0


def test_direction_product_diagonal_nonnegative():
    knot = gen_theorem_knot(TorusParams(2, 3))
    assert direction_product(knot, 1.3, 1.3) >= 0


@pytest.mark.parametrize("pq", [(2, 3), (3, 7), (4, 9), (5, 11)])
def test_opposite_direction_over_law_closed_form(pq):
    # x'(t1) * (z(t1) - z(t2)) at every opposite-direction crossing equals
    # 2p sin^2(pk pi/q) [1 - (-1)^k sin(jq pi/p + pi/(2p) - pi/(4q))] > 0
    params = TorusParams(*pq)
    p, q = pq
    knot = gen_theorem_knot(params)
    for ix, t1, t2 in enumerate_type2(params):
        lhs = knot.x.eval_derivative(t1) * zdiff(knot, t1, t2)
        bracket = 1 - (-1) ** ix.k * math.sin(
            ix.j * q * math.pi / p + math.pi / (2 * p) - math.pi / (4 * q)
        )
        rhs = 2 * p * math.sin(p * ix.k * math.pi / q) ** 2 * bracket
        assert lhs > 0
        assert lhs == pytest.approx(rhs, abs=1e-9)


@pytest.mark.parametrize("pq", [(2, 3), (3, 7), (4, 9), (5, 11)])
def test_same_direction_handedness_closed_form(pq):
    # the sign expression at every same-direction crossing agrees with
    # -sin(pj pi/q - pi/(2q)) sin(pj pi/q - pi/(4q)), and both are negative
    params = TorusParams(*pq)
    p, q = pq
    knot = gen_theorem_knot(params)
    for ix, t1, t2 in enumerate_type1(params):
        planar = (
            knot.x.eval_derivative(t1) * knot.y.eval_derivative(t2)
            - knot.x.eval_derivative(t2) * knot.y.eval_derivative(t1)
        )
        expr = planar * (knot.z.eval(t1) - knot.z.eval(t2))
        a = p * ix.j * math.pi / q
        closed = -math.sin(a - math.pi / (2 * q)) * math.sin(a - math.pi / (4 * q))
        assert closed < 0
        assert expr < 0
        assert (expr > 0) == (closed > 0)


def test_classify_type1_all_left_handed_2_3():
    params = TorusParams(2, 3)
    knot = gen_theorem_knot(params)
    for ix, t1, t2 in enumerate_type1(params):
        assert classify(knot, t1, t2, ix).sign == -1


def test_classify_type2_over_moves_right_3_7():
    params = TorusParams(3, 7)
    knot = gen_theorem_knot(params)
    for ix, t1, t2 in enumerate_type2(params):
        c = classify(knot, t1, t2, ix)
        assert knot.x.eval_derivative(c.t_over) > 0
        assert knot.x.eval_derivative(c.t_under) < 0


def test_classify_singular_heights():
    knot = gen_theorem_knot(TorusParams(2, 3))
    with pytest.raises(SingularCrossing):
        classify(knot, 1.1, 1.1)


def test_classify_canonical_order():
    params = TorusParams(2, 3)
    knot = gen_theorem_knot(params)
    ix, t1, t2 = enumerate_type1(params)[0]
    a = classify(knot, t1, t2, ix)
    b = classify(knot, t2, t1, ix)
    assert (a.t1, a.t2, a.sign, a.over) == (b.t1, b.t2, b.sign, b.over)
    assert 0.0 <= a.t1 < a.t2 < 2 * math.pi


def test_zdiff_zero_on_diagonal():
    knot = gen_theorem_knot(TorusParams(3, 7))
    assert zdiff(knot, 0.83, 0.83) == 0.0


def test_zdiff_antisymmetric():
    knot = gen_theorem_knot(TorusParams(3, 7))
    rng = random.Random(5)
    for _ in range(100):
        t1 = rng.uniform(0, 2 * math.pi)
        t2 = rng.uniform(0, 2 * math.pi)
        assert zdiff(knot, t1, t2) == pytest.approx(-zdiff(knot, t2, t1), abs=1e-15)


def test_zdiff_matches_direct_difference():
    params = TorusParams(3, 7)
    knot = gen_theorem_knot(params)
    for ix, t1, t2 in enumerate_type1(params):
        if (ix.k, ix.j) == (1, 3):
            direct = knot.z.eval(t1) - knot.z.eval(t2)
            assert zdiff(knot, t1, t2) == pytest.approx(direct, abs=1e-10)
            break
    else:
        pytest.fail("index (1, 3) missing from the enumeration")
    rng = random.Random(9)
    for _ in range(50):
        t1, t2 = rng.uniform(0, 7), rng.uniform(0, 7)
        assert zdiff(knot, t1, t2) == pytest.approx(knot.z.eval(t1) - knot.z.eval(t2), abs=1e-10)


def test_zdiff_requires_two_term_z():
    standard = gen_standard_knot(TorusParams(2, 3))
    with pytest.raises(WrongKnotShape):
        zdiff(standard, 0.1, 0.2)


def test_pair_difference_any_series():
    knot = gen_standard_knot(TorusParams(2, 3))
    rng = random.Random(1)
    for _ in range(20):
        t1, t2 = rng.uniform(0, 7), rng.uniform(0, 7)
        assert pair_difference(knot.x, t1, t2) == pytest.approx(
            knot.x.eval(t1) - knot.x.eval(t2), abs=1e-12
        )


def test_analytic_set_sorted_and_counted():
    params = TorusParams(3, 7)
    cs = analytic_crossing_set(gen_theorem_knot(params), params)
    assert len(cs) == 2 * 3 * 7 - 3 - 7
    pairs = [(c.t1, c.t2) for c in cs.crossings]
    assert pairs == sorted(pairs)
    assert len(cs.of_kind(TYPE_I)) == 14
    assert len(cs.of_kind(TYPE_II)) == 18


def test_crossing_set_rejects_duplicates():
    params = TorusParams(2, 3)
    knot = gen_theorem_knot(params)
    cs = analytic_crossing_set(knot, params)
    doubled = sorted(cs.crossings + cs.crossings[:1], key=lambda c: (c.t1, c.t2))
    with pytest.raises(ValueError):
        CrossingSet(knot, tuple(doubled), "analytic")


def _set_of(*pairs):
    knot = gen_theorem_knot(TorusParams(2, 3))
    return CrossingSet(knot, tuple(Crossing(a, b, 1, "t1", (0.0, 0.0)) for a, b in pairs), "numeric")


def test_crossing_set_rejects_duplicate_across_wrap_with_swapped_roles():
    with pytest.raises(ValueError, match="duplicate time pair"):
        _set_of((1e-7, 3.0), (2.9999999, TWO_PI - 1e-7))


def test_crossing_set_rejects_duplicate_straddling_cell_boundary():
    side = TWO_PI / math.floor(TWO_PI / EPS_DEDUPE)
    a, b = 1000 * side, 3000 * side
    with pytest.raises(ValueError, match="duplicate time pair"):
        _set_of((a - 3e-7, b - 3e-7), (a + 3e-7, b + 3e-7))


def test_crossing_set_accepts_pairs_two_eps_apart():
    cs = _set_of((1.0, 2.0), (1.0 + 2 * EPS_DEDUPE, 2.0))
    assert len(cs) == 2


def test_crossing_set_names_first_duplicate():
    with pytest.raises(ValueError) as exc:
        _set_of((1e-7, 3.0), (1.5, 2.5), (1.5 + 1e-7, 2.5), (2.9999999, TWO_PI - 1e-7))
    # the lexicographically first offending pair (0, 3), not (1, 2)
    assert str(exc.value) == (
        f"duplicate time pair within {EPS_DEDUPE:g}: (1e-07, 3.0) vs (2.9999999, {TWO_PI - 1e-7})"
    )


# ---------------------------------------------------------------------------
# CrossingSet decides through near_pairs' search over its sorted passages;
# its verdicts, messages included, must be those of the definition below.


def near_duplicate_check_reference(cs):
    """The definition: refuse a time outside [0, 2*pi), then compare all pairs."""
    for c in cs:
        if not (0.0 <= c.t1 < TWO_PI and 0.0 <= c.t2 < TWO_PI):
            raise ValueError(f"crossing time outside [0, 2*pi): ({c.t1}, {c.t2})")
    for i, c in enumerate(cs):
        for d in cs[i + 1:]:
            if pair_distance((c.t1, c.t2), (d.t1, d.t2)) <= EPS_DEDUPE:
                raise ValueError(
                    f"duplicate time pair within {EPS_DEDUPE:g}: "
                    f"({c.t1}, {c.t2}) vs ({d.t1}, {d.t2})"
                )


def coincident_passage_reference(cs):
    """The coincidence scan the Gauss and PD builders ran over freshly sorted passages."""
    events = sorted(
        e for i, c in enumerate(cs)
        for e in ((c.t1, i, c.over == "t1", c.sign), (c.t2, i, c.over == "t2", c.sign))
    )
    for i, ((ta, *_), (tb, *_)) in enumerate(zip(events, events[1:])):
        if circular_distance(ta, tb) <= EPS_DEDUPE:
            return i
    if events and circular_distance(events[0][0], events[-1][0]) <= EPS_DEDUPE:
        return len(events) - 1
    return None


_CELL_SIDE = TWO_PI / math.floor(TWO_PI / EPS_DEDUPE)


@st.composite
def planted_time_pairs(draw):
    """Random canonical time pairs, plus twins planted near some of them."""
    angle = st.floats(0.0, TWO_PI, exclude_max=True)
    nudge = st.floats(-2 * EPS_DEDUPE, 2 * EPS_DEDUPE)
    small = st.floats(0.0, 2 * EPS_DEDUPE)
    pairs = [tuple(sorted((draw(angle), draw(angle)))) for _ in range(draw(st.integers(1, 8)))]
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(pairs))
        how = draw(st.sampled_from(["near", "swapped", "wrap", "cell", "one passage", "outside"]))
        if how == "near":
            planted = [(a + draw(nudge), b + draw(nudge))]
        elif how == "swapped":
            planted = [(b + draw(nudge), a + draw(nudge))]
        elif how == "wrap":  # a passage just past 0 and its twin's just below 2*pi, or back
            start = draw(small)
            planted = [(start, b), (start + draw(nudge), b + draw(nudge))]
        elif how == "cell":  # both twins straddle multiples of a cell side just over EPS_DEDUPE
            m1, m2 = (draw(st.integers(0, int(TWO_PI / _CELL_SIDE) - 1)) for _ in range(2))
            lo, hi = draw(small) / 2, draw(small) / 2
            x, y = m1 * _CELL_SIDE, m2 * _CELL_SIDE
            planted = [(x - lo, y - lo), (x + hi, y + hi)]
        elif how == "one passage":  # shares one passage time only: no duplicate
            planted = [(a + draw(nudge), draw(angle))]
        else:  # left unreduced: a time outside [0, 2*pi)
            pairs.append((a + draw(nudge) - TWO_PI, b + draw(nudge)))
            continue
        pairs += [tuple(sorted(map(reduce_angle, pair))) for pair in planted]
    return pairs


@settings(max_examples=300, deadline=None)
@example(pairs=[(1e-7, 3.0), (2.9999999, TWO_PI - 1e-7)])  # swapped roles across the wrap
@example(pairs=[(1000 * _CELL_SIDE - 3e-7, 3000 * _CELL_SIDE - 3e-7),
                (1000 * _CELL_SIDE + 3e-7, 3000 * _CELL_SIDE + 3e-7)])  # straddles cell corners
@example(pairs=[(1.0, 2.0), (1.0 + 5e-7, 4.0)])  # two passages close, no duplicate
@example(pairs=[(1e-7, 3.0), (1.0, TWO_PI - 1e-7)])  # passages close across the wrap only
@example(pairs=[(1.0, 1.0 + 5e-7)])  # both passages of one crossing close
@example(pairs=[(-1e-7, 3.0), (3.0 + 1e-7, TWO_PI - 1e-7)])  # a time below 0: refused as out of range
@example(pairs=[(1.0, 2.0), (math.nan, 3.0), (4.0, 5.0)])  # NaN: refused as out of range
@given(pairs=planted_time_pairs())
def test_crossing_set_matches_full_duplicate_check(pairs):
    knot = gen_theorem_knot(TorusParams(2, 3))
    crossings = tuple(
        Crossing(a, b, 1 if i % 3 else -1, "t1" if i % 2 else "t2", (0.0, 0.0))
        for i, (a, b) in enumerate(sorted(pairs))
    )
    try:
        near_duplicate_check_reference(crossings)
        expected = None
    except ValueError as exc:
        expected = str(exc)
    try:
        cs = CrossingSet(knot, crossings, "numeric")
    except ValueError as exc:
        assert str(exc) == expected
        return
    assert expected is None
    assert cs.coincident_passage == coincident_passage_reference(crossings)


def test_crossing_set_accepts_close_passages_of_distinct_pairs():
    cs = _set_of((1.0, 2.0), (1.0 + 5e-7, 4.0))
    assert len(cs) == 2 and cs.coincident_passage == 0


@pytest.mark.parametrize("pair", [(3.0, math.nan), (3.0, math.inf), (-1e-7, 3.0), (3.0, TWO_PI)])
def test_crossing_set_refuses_times_outside_the_circle(pair):
    with pytest.raises(ValueError) as exc:
        _set_of(*sorted([(1.0, 2.0), pair]))
    assert str(exc.value) == f"crossing time outside [0, 2*pi): ({pair[0]}, {pair[1]})"


def near_pairs_reference(pairs):
    return [
        (i, j) for i, j in itertools.combinations(range(len(pairs)), 2)
        if pair_distance(pairs[i], pairs[j]) <= EPS_DEDUPE
    ]


@st.composite
def clustered_time_pairs(draw):
    """Time pairs in any order, with twins, chains, runs across the wrap and all-close clusters planted."""
    angle = st.floats(0.0, TWO_PI, exclude_max=True)
    nudge = st.floats(-2 * EPS_DEDUPE, 2 * EPS_DEDUPE)
    step = 0.9 * EPS_DEDUPE
    planted = [(draw(angle), draw(angle)) for _ in range(draw(st.integers(0, 6)))]
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(angle), draw(angle)
        how = draw(st.sampled_from(["twins", "swapped", "chain", "wrap", "all close"]))
        if how == "twins":
            planted += [(a, b), (a + draw(nudge), b + draw(nudge))]
        elif how == "swapped":
            planted += [(a, b), (b + draw(nudge), a + draw(nudge))]
        elif how == "chain":  # each pair near the next, the first not near the last
            planted += [(a + k * step, b + k * step) for k in range(3)]
        elif how == "wrap":  # a run of passages from just below 2*pi to just past 0
            start = -draw(st.floats(0.0, 3 * EPS_DEDUPE))
            times = [start + k * 0.3 * EPS_DEDUPE for k in range(draw(st.integers(2, 8)))]
            planted += [(t, draw(st.sampled_from(times + [a]))) for t in times]
        else:  # every passage within EPS_DEDUPE of every other
            planted += [(a + draw(nudge) / 4, a + draw(nudge) / 4) for _ in range(draw(st.integers(2, 6)))]
    return draw(st.permutations([tuple(map(reduce_angle, pair)) for pair in planted]))


@settings(max_examples=300, deadline=None)
@example(pairs=[(0.0, 3.0), (3e-7, 6e-7), (TWO_PI - 3.5e-7, TWO_PI - 5e-8)])  # near only through the wrap
@example(pairs=[(1.0, 2.0), (1.0 + 3e-7, 4.0), (2.0 + 5e-8, 5.0), (1.0 + 6e-7, 2.0 + 1e-7)])  # near, not adjacent
@example(pairs=[(1.0, 2.0), (1.0 + 9e-7, 2.0 + 9e-7), (1.0 + 1.8e-6, 2.0 + 1.8e-6)])  # a chain
@given(pairs=clustered_time_pairs())
def test_near_pairs_matches_all_pairs(pairs):
    assert near_pairs(pairs) == near_pairs_reference(pairs)


def test_crossing_set_json_csv_shape():
    params = TorusParams(2, 3)
    cs = analytic_crossing_set(gen_theorem_knot(params), params)
    import json

    records = json.loads(cs.to_json())
    assert len(records) == 7
    assert set(records[0]) == {"kind", "k", "j", "t1", "t2", "sign", "over", "x", "y"}
    assert all(r["sign"] in (1, -1) for r in records)
    assert all(r["over"] in ("t1", "t2") for r in records)
    csv_text = cs.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "kind,k,j,t1,t2,sign,over,x,y"
    assert len(lines) == 8
