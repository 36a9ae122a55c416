import functools
import hashlib
import itertools
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fourierknot import (
    CrossingIndices,
    CrossingSet,
    FourierKnot,
    FourierSeries,
    FourierTerm,
    PhasePoint,
    SingularCrossing,
    SingularPoint,
    TorusParams,
    WrongKnotShape,
    alexander_from_diagram,
    analytic_crossing_set,
    build_gauss_code,
    build_pd_code,
    classify,
    find_crossings_numeric,
    gen_standard_knot,
    gen_theorem_knot,
    identify,
    knot_with_phases,
    sign_vector,
    simplified_phase_point,
    singular_lines,
    theorem_phase_point,
    torus_alexander_oracle,
)
from fourierknot.crossings import (
    EPS_DEDUPE,
    TYPE_I,
    TYPE_II,
    Crossing,
    _crossing_table,
    circular_distance,
    crossing_count,
    near_pairs,
    pair_difference,
    pair_distance,
)
from fourierknot.cli import _crossings_text
from fourierknot.series import TWO_PI, reduce_angle
import crossings_reference
from crossings_reference import family
from planted import crossing_set
from series_reference import scalar_value

COPRIME_PAIRS = [(p, q) for q in range(3, 14) for p in range(2, q) if math.gcd(p, q) == 1]


def test_type1_2_3_indices_and_times():
    entries = family(TorusParams(2, 3), TYPE_I)
    assert [(ix.k, ix.j) for ix, _, _ in entries] == [(1, 2), (1, 3), (1, 4)]
    ix, t1, t2 = entries[0]
    assert t1 == pytest.approx(math.pi / 12, abs=1e-12)
    assert t2 == pytest.approx(13 * math.pi / 12, abs=1e-12)
    # the shared x value at this pair is cos(pi/6) = sqrt(3)/2
    knot = gen_theorem_knot(TorusParams(2, 3))
    assert knot.x.eval(t1) == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
    assert knot.x.eval(t2) == pytest.approx(math.sqrt(3) / 2, abs=1e-12)


def test_type1_counts():
    assert len(family(TorusParams(2, 3), TYPE_I)) == 3
    assert len(family(TorusParams(3, 7), TYPE_I)) == 14


def test_type2_2_3_indices_and_times():
    entries = family(TorusParams(2, 3), TYPE_II)
    assert [(ix.k, ix.j) for ix, _, _ in entries] == [(1, 1), (1, 2), (1, 3), (2, 2)]
    ix, t1, t2 = entries[0]
    assert t1 == pytest.approx(math.pi / 6, abs=1e-12)
    assert t2 == pytest.approx(5 * math.pi / 6, abs=1e-12)


def test_type2_counts():
    assert len(family(TorusParams(2, 3), TYPE_II)) == 4
    assert len(family(TorusParams(3, 7), TYPE_II)) == 18


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
    for _, t1, t2 in family(params, TYPE_I) + family(params, TYPE_II):
        assert abs(knot.x.eval(t1) - knot.x.eval(t2)) < 1e-9
        assert abs(knot.y.eval(t1) - knot.y.eval(t2)) < 1e-9


@pytest.mark.parametrize("pq", COPRIME_PAIRS)
def test_direction_law(pq):
    params = TorusParams(*pq)
    p, q = pq
    knot = gen_theorem_knot(params)
    for ix, t1, t2 in family(params, TYPE_I):
        d = knot.x.eval_derivative(t1) * knot.x.eval_derivative(t2)
        closed = p * p * math.sin(ix.j * p * math.pi / q - math.pi / (2 * q)) ** 2
        assert d > 0
        assert d == pytest.approx(closed, abs=1e-9)
    for _, t1, t2 in family(params, TYPE_II):
        assert knot.x.eval_derivative(t1) * knot.x.eval_derivative(t2) < 0


@pytest.mark.parametrize("pq", [(2, 3), (3, 7), (4, 9), (5, 11)])
def test_opposite_direction_over_law_closed_form(pq):
    # x'(t1) * (z(t1) - z(t2)) at every opposite-direction crossing equals
    # 2p sin^2(pk pi/q) [1 - (-1)^k sin(jq pi/p + pi/(2p) - pi/(4q))] > 0
    params = TorusParams(*pq)
    p, q = pq
    knot = gen_theorem_knot(params)
    for ix, t1, t2 in family(params, TYPE_II):
        lhs = knot.x.eval_derivative(t1) * pair_difference(knot.z, t1, t2)
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
    for ix, t1, t2 in family(params, TYPE_I):
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
    for ix, t1, t2 in family(params, TYPE_I):
        assert classify(knot, t1, t2, ix).sign == -1


def test_classify_type2_over_moves_right_3_7():
    params = TorusParams(3, 7)
    knot = gen_theorem_knot(params)
    for ix, t1, t2 in family(params, TYPE_II):
        c = classify(knot, t1, t2, ix)
        t_over, t_under = (c.t1, c.t2) if c.over == "t1" else (c.t2, c.t1)
        assert knot.x.eval_derivative(t_over) > 0
        assert knot.x.eval_derivative(t_under) < 0


def test_classify_singular_heights():
    knot = gen_theorem_knot(TorusParams(2, 3))
    with pytest.raises(SingularCrossing):
        classify(knot, 1.1, 1.1)


def test_classify_canonical_order():
    params = TorusParams(2, 3)
    knot = gen_theorem_knot(params)
    ix, t1, t2 = family(params, TYPE_I)[0]
    a = classify(knot, t1, t2, ix)
    b = classify(knot, t2, t1, ix)
    assert (a.t1, a.t2, a.sign, a.over) == (b.t1, b.t2, b.sign, b.over)
    assert 0.0 <= a.t1 < a.t2 < 2 * math.pi


@pytest.mark.platform_pinned
def test_crossing_positions_equal_scalar_eval_bitwise():
    # positions come from the math order: math.cos per term summed like the
    # scalar reference (sum() compensates float sums from Python 3.12 on), not np.cos
    rng = random.Random(23)
    ts = np.array([rng.uniform(0, TWO_PI) for _ in range(200)] + [0.0, math.pi])
    for terms in (1, 2, 3, 5):
        series = FourierSeries(tuple(
            FourierTerm(rng.uniform(-2, 2), rng.randint(0, 30), rng.uniform(0, TWO_PI)) for _ in range(terms)
        ))
        want = [scalar_value(series, t).hex() for t in ts.tolist()]
        assert [v.hex() for v in series.eval_math(ts)] == want
        knot = FourierKnot(series, series, series)
        firsts = sorted(ts[:3].tolist())
        rows = crossing_set(knot, [Crossing(t, t + 1e-3, 1, "t1", (0.0, 0.0)) for t in firsts])
        assert [c.position[0].hex() for c in rows.crossings] == [scalar_value(series, t).hex() for t in firsts]


@pytest.mark.platform_pinned
def test_no_term_series_keeps_every_crossing_row():
    # an empty x or y evaluates to 0.0 in the math order, so no row is dropped
    knot = gen_theorem_knot(TorusParams(3, 7))
    empty = FourierKnot(FourierSeries(()), FourierSeries(()), knot.z)
    rows = crossing_set(empty, [Crossing(0.5, 1.5, 1, "t1", (0.0, 0.0))], method="numeric")
    assert len(rows) == 1
    assert [c.position for c in rows.crossings] == [(0.0, 0.0)]
    assert rows.to_json() == (
        '[{"kind":null,"k":null,"j":null,"t1":0.5,"t2":1.5,"sign":1,"over":"t1","x":0,"y":0}]'
    )
    assert rows.to_csv() == "kind,k,j,t1,t2,sign,over,x,y\n,,,0.5,1.5,1,t1,0,0\n"


class FixedSeries:
    """A stand-in x or y whose math-order values at the set's t1 are given: the positions the writers print."""

    def __init__(self, values):
        self.values = values

    def eval_math(self, ts):
        assert len(ts) == len(self.values)
        return list(self.values)


@functools.lru_cache(maxsize=None)
def reference_set(method, p, q, simplified=False, grid=0):
    knot = gen_theorem_knot(TorusParams(p, q), simplified=simplified)
    if method == "numeric":
        return find_crossings_numeric(knot, grid)
    return analytic_crossing_set(knot, TorusParams(p, q))


@st.composite
def built_sets(draw):
    """A user-built set: rows of every kind (-1 unindexed among them), both signs and
    both overs, times on a coarse lattice with drawn offsets, -0.0 for a time 0,
    and positions drawn from all floats: -0.0, subnormals, +-1.8e308, infinities."""
    n = draw(st.integers(0, 6))
    slots = draw(st.lists(st.integers(0, 99), min_size=2 * n, max_size=2 * n, unique=True))
    offsets = draw(st.lists(st.floats(0.0, 0.5), min_size=2 * n, max_size=2 * n))
    times = [(slot + offset) * (TWO_PI / 100) for slot, offset in zip(slots, offsets)]
    if draw(st.booleans()):
        times = [-0.0 if t == 0.0 else t for t in times]
    pairs = sorted(tuple(sorted(times[2 * i : 2 * i + 2])) for i in range(n))
    t1, t2 = (np.array([pair[i] for pair in pairs], dtype=np.float64) for i in (0, 1))

    def column(strategy, dtype=np.int64):
        return np.array(draw(st.lists(strategy, min_size=n, max_size=n)), dtype=dtype)

    sign, over = column(st.sampled_from([1, -1])), column(st.booleans(), bool)
    kind, k, j = column(st.sampled_from([-1, 0, 1])), column(st.integers(-9, 10**6)), column(st.integers(-9, 10**6))
    xs, ys = (draw(st.lists(st.floats(), min_size=n, max_size=n)) for _ in range(2))
    knot = FourierKnot(FixedSeries(xs), FixedSeries(ys), FourierSeries(()))
    return CrossingSet(knot, t1, t2, sign, over, kind, k, j, draw(st.sampled_from(["analytic", "numeric"])))


@pytest.mark.platform_pinned
@settings(max_examples=200, deadline=None)
@given(cs=st.one_of(
    st.sampled_from([("analytic", 2, 3), ("analytic", 3, 7), ("analytic", 4, 9, True), ("analytic", 7, 13),
                     ("numeric", 2, 3, False, 64), ("numeric", 3, 7, False, 512)]).map(lambda a: reference_set(*a)),
    built_sets(),
))
@example(cs=crossing_set(gen_theorem_knot(TorusParams(2, 3)), []))
def test_writers_match_the_record_reference(cs):
    assert cs.to_json() == crossings_reference.to_json(cs)
    assert cs.to_csv() == crossings_reference.to_csv(cs)
    for degrees in (False, True):
        assert _crossings_text(cs, degrees) == crossings_reference.to_text(cs, degrees)


def test_zdiff_zero_on_diagonal():
    knot = gen_theorem_knot(TorusParams(3, 7))
    assert pair_difference(knot.z, 0.83, 0.83) == 0.0


def test_zdiff_antisymmetric():
    knot = gen_theorem_knot(TorusParams(3, 7))
    rng = random.Random(5)
    for _ in range(100):
        t1 = rng.uniform(0, 2 * math.pi)
        t2 = rng.uniform(0, 2 * math.pi)
        assert pair_difference(knot.z, t1, t2) == pytest.approx(-pair_difference(knot.z, t2, t1), abs=1e-15)


def test_zdiff_matches_direct_difference():
    params = TorusParams(3, 7)
    knot = gen_theorem_knot(params)
    for ix, t1, t2 in family(params, TYPE_I):
        if (ix.k, ix.j) == (1, 3):
            direct = knot.z.eval(t1) - knot.z.eval(t2)
            assert pair_difference(knot.z, t1, t2) == pytest.approx(direct, abs=1e-10)
            break
    else:
        pytest.fail("index (1, 3) missing from the enumeration")
    rng = random.Random(9)
    for _ in range(50):
        t1, t2 = rng.uniform(0, 7), rng.uniform(0, 7)
        assert pair_difference(knot.z, t1, t2) == pytest.approx(knot.z.eval(t1) - knot.z.eval(t2), abs=1e-10)


def test_pair_difference_any_series():
    knot = gen_standard_knot(TorusParams(2, 3))
    rng = random.Random(1)
    for _ in range(20):
        t1, t2 = rng.uniform(0, 7), rng.uniform(0, 7)
        assert pair_difference(knot.x, t1, t2) == pytest.approx(
            knot.x.eval(t1) - knot.x.eval(t2), abs=1e-12
        )


@pytest.mark.parametrize("pq", COPRIME_PAIRS)
def test_crossing_count_matches_both_families(pq):
    params = TorusParams(*pq)
    assert crossing_count(*pq) == len(family(params, TYPE_I)) + len(family(params, TYPE_II))


def test_analytic_set_sorted_and_counted():
    params = TorusParams(3, 7)
    cs = analytic_crossing_set(gen_theorem_knot(params), params)
    assert len(cs) == 2 * 3 * 7 - 3 - 7
    pairs = [(c.t1, c.t2) for c in cs.crossings]
    assert pairs == sorted(pairs)
    assert [c.indices.kind for c in cs.crossings].count(TYPE_I) == 14
    assert [c.indices.kind for c in cs.crossings].count(TYPE_II) == 18


def test_analytic_set_refuses_another_x_or_y():
    # with y = cos(7t + 1) the curve is another knot (its numeric set says
    # so), which the theorem's crossing times would have passed off as T(3,7)
    params = TorusParams(3, 7)
    knot = gen_theorem_knot(params)
    other_y = FourierKnot(knot.x, FourierSeries((FourierTerm(1.0, 7, 1.0),)), knot.z)
    numeric = alexander_from_diagram(build_pd_code(find_crossings_numeric(other_y, 2048)))
    assert numeric != torus_alexander_oracle(params)
    other_x = FourierKnot(FourierSeries((FourierTerm(1.0, 3, 0.5),)), knot.y, knot.z)
    for other in (other_y, other_x, gen_standard_knot(params)):
        with pytest.raises(WrongKnotShape, match="closed-form crossings"):
            analytic_crossing_set(other, params)


# sha256 of every analytic record's (kind, k, j, t1, t2, sign, over), the
# times as little-endian doubles, without x and y, which come from libm; the
# 241 coprime pairs with q < 30 at the theorem point, at the simplified point
# for even p and at two random points
ANALYTIC_SET_DIGEST = "245355a5cd82572273d8baad62bbc3a51d19e231efed409632379c29bf3dc49b"


@pytest.mark.platform_pinned
def test_analytic_set_pinned():
    pairs = [(p, q) for q in range(3, 30) for p in range(2, q) if math.gcd(p, q) == 1]
    assert len(pairs) == 241
    rng = random.Random(2007)
    digest = hashlib.sha256()
    for p, q in pairs:
        params = TorusParams(p, q)
        points = [theorem_phase_point(params)] + [simplified_phase_point(params)] * (p % 2 == 0)
        points += [PhasePoint(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI)) for _ in range(2)]
        for point in points:
            cs = analytic_crossing_set(knot_with_phases(params, point), params).crossings
            digest.update(repr([(c.indices.key(), c.sign, c.over) for c in cs]).encode())
            digest.update(struct.pack(f"<{2 * len(cs)}d", *(t for c in cs for t in (c.t1, c.t2))))
    assert digest.hexdigest() == ANALYTIC_SET_DIGEST


# sha256 of every crossing table's n_type1, its columns as little-endian
# bytes (k, j, the raw unreduced t1 and t2, s_u, d_u, intercept_u) and the
# repr of its index records, over the 241 coprime pairs with q < 30
CROSSING_TABLE_DIGEST = "0cb6064b9106048d13381d915c577054b17ddbc0a3d2e955b199117414da0013"


@pytest.mark.platform_pinned
def test_crossing_table_pinned():
    pairs = [(p, q) for q in range(3, 30) for p in range(2, q) if math.gcd(p, q) == 1]
    assert len(pairs) == 241
    digest = hashlib.sha256()
    for p, q in pairs:
        table = _crossing_table(TorusParams(p, q))
        digest.update(repr((p, q, table.n_type1)).encode())
        for column in (table.k, table.j, table.s_u, table.d_u, table.intercept_u):
            digest.update(column.astype("<i8").tobytes())
        for column in (table.t1, table.t2):
            digest.update(column.astype("<f8").tobytes())
        digest.update(repr(table.indices).encode())
    assert digest.hexdigest() == CROSSING_TABLE_DIGEST


@pytest.mark.platform_pinned
def test_index_records_are_tuples_with_one_key_format():
    # the records with no checks are NamedTuples (FourierKnot too): each
    # equals, hashes and orders as the tuple of its fields.  The repr and
    # the SingularPoint message were taken from the frozen dataclasses
    # these records replace
    params = TorusParams(3, 7)
    knot = gen_theorem_knot(params)
    cs = analytic_crossing_set(knot, params)
    crossing = cs.crossings[0]
    summary = identify(knot, cs, params)
    for record in (crossing.indices, crossing, summary, knot):
        fields = tuple(getattr(record, name) for name in record._fields)
        assert isinstance(record, tuple) and record == fields and hash(record) == hash(fields)
    assert repr(CrossingIndices("II", 2, 5)) == "CrossingIndices(kind='II', k=2, j=5)"
    assert CrossingIndices("I", 3, 1) < CrossingIndices("II", 1, 1) < CrossingIndices("II", 1, 2)
    with pytest.raises(SingularPoint) as err:
        sign_vector(params, simplified_phase_point(params))
    assert str(err.value) == "phase point is singular for crossings [II:1:4, II:2:1, II:3:4]"
    # key() is the key the CLI's text rows print, at every row
    params = TorusParams(5, 7)
    cs = analytic_crossing_set(gen_theorem_knot(params), params)
    printed = [row.split()[0] for row in _crossings_text(cs, False).splitlines()[1:]]
    assert printed == [c.indices.key() for c in cs.crossings]
    assert len(printed) == crossing_count(5, 7)


def test_set_records_equal_records_built_one_by_one():
    # crossings._records builds them without a Python __new__ per row
    params = TorusParams(3, 7)
    knot = gen_theorem_knot(params)
    cs = analytic_crossing_set(knot, params)
    mixed = crossing_set(knot, [c if i % 3 else c._replace(indices=None) for i, c in enumerate(cs.crossings)])
    for s in (cs, mixed, find_crossings_numeric(knot, 2048)):
        indices = [CrossingIndices((TYPE_I, TYPE_II)[kind], k, j) if kind >= 0 else None
                   for kind, k, j in zip(s.kind.tolist(), s.k.tolist(), s.j.tolist())]
        overs = ["t1" if over else "t2" for over in s.over_t1.tolist()]
        expected = [Crossing(*row) for row in zip(s.t1.tolist(), s.t2.tolist(), s.sign.tolist(), overs,
                                                   zip(*s.positions()), indices)]
        for built, one_by_one in ((s._indices(), indices), (list(s.crossings), expected)):
            assert built == one_by_one
            assert [type(record) for record in built] == [type(record) for record in one_by_one]
    assert None in mixed._indices() and mixed._indices().count(None) < len(mixed)


@pytest.mark.platform_pinned
def test_analytic_set_on_a_singular_line_names_the_first_singular_row():
    # the point lies on the lines of six type-II crossings; the refusal names
    # the first of them in table order, (II, 1, 4), by its reduced times
    params = TorusParams(5, 12)
    lines = singular_lines(params)
    line = lines[len(lines) // 2]
    assert (line.kind, line.k, line.j) == (TYPE_II, 1, 4)
    point = PhasePoint(1.0, line.phi2_at(1.0))
    with pytest.raises(SingularPoint) as degenerate:
        sign_vector(params, point)
    assert len(degenerate.value.indices) == 6
    [(_, t1, t2)] = [e for e in family(params, TYPE_II) if e[0] == degenerate.value.indices[0]]
    assert (f"{t1:.6f}", f"{t2:.6f}") == ("2.251475", "2.775074")
    with pytest.raises(SingularCrossing, match=r"^strands meet in space at \(2\.251475, 2\.775074\): \|dz\| = "):
        analytic_crossing_set(knot_with_phases(params, point), params)


def test_crossing_set_rejects_duplicates():
    params = TorusParams(2, 3)
    knot = gen_theorem_knot(params)
    cs = analytic_crossing_set(knot, params)
    doubled = sorted(cs.crossings + cs.crossings[:1], key=lambda c: (c.t1, c.t2))
    with pytest.raises(ValueError):
        crossing_set(knot, doubled)


def _set_of(*pairs):
    knot = gen_theorem_knot(TorusParams(2, 3))
    return crossing_set(knot, (Crossing(a, b, 1, "t1", (0.0, 0.0)) for a, b in pairs), "numeric")


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


def passages_reference(cs):
    """The passages as the sorted (time, crossing index, is_over, sign) tuples they once were."""
    return sorted(
        e for i, c in enumerate(cs)
        for e in ((c.t1, i, c.over == "t1", c.sign), (c.t2, i, c.over == "t2", c.sign))
    )


def coincident_passage_reference(cs):
    """The coincidence scan the Gauss and PD builders ran over freshly sorted passages."""
    events = passages_reference(cs)
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
@example(pairs=[(1.0, 2.0), (1.0, 4.0), (2.0, 3.0), (3.0, 3.0)])  # equal passage times, within a crossing too
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
        cs = crossing_set(knot, crossings, "numeric")
    except ValueError as exc:
        assert str(exc) == expected
        return
    assert expected is None
    assert cs.coincident_passage == coincident_passage_reference(crossings)
    times, ids, is_over = cs.passages
    reference = passages_reference(crossings)
    assert list(zip(times.tolist(), ids.tolist(), is_over.tolist())) == [e[:3] for e in reference]


@pytest.mark.parametrize("pairs", [[(2.0, 3.0), (1.0, 4.0)], [(1.0, 4.0), (1.0, 3.0)]], ids=["t1", "t2 at one t1"])
def test_crossing_set_refuses_rows_not_sorted(pairs):
    with pytest.raises(ValueError, match=r"^crossings must be sorted by \(t1, t2\)$"):
        _set_of(*pairs)


def test_crossing_set_accepts_close_passages_of_distinct_pairs():
    cs = _set_of((1.0, 2.0), (1.0 + 5e-7, 4.0))
    assert len(cs) == 2 and cs.coincident_passage == 0


@pytest.mark.parametrize("pair", [(3.0, math.nan), (3.0, math.inf), (-1e-7, 3.0), (3.0, TWO_PI)])
def test_crossing_set_refuses_times_outside_the_circle(pair):
    with pytest.raises(ValueError) as exc:
        _set_of(*sorted([(1.0, 2.0), pair]))
    assert str(exc.value) == f"crossing time outside [0, 2*pi): ({pair[0]}, {pair[1]})"


def _with_column(name, change):
    """T(3,7)'s analytic set with one column replaced by change(column)."""
    params = TorusParams(3, 7)
    cs = analytic_crossing_set(gen_theorem_knot(params), params)
    columns = {column: getattr(cs, column) for column in ("t1", "t2", "sign", "over_t1", "kind", "k", "j")}
    columns[name] = change(columns[name])
    return CrossingSet(cs.knot, **columns, method=cs.method)


@pytest.mark.parametrize("sign", [0, 2, -2, 1j, 1.0])  # a float column's JSON read "sign":1.0
def test_crossing_set_refuses_a_sign_other_than_plus_or_minus_one(sign):
    # a sign of 0 was written as a left-handed crossing, and the writhe read -13 for -14
    with pytest.raises(ValueError, match=r"^every sign must be an integer 1 or -1$"):
        _with_column("sign", lambda column: np.r_[column[:3], sign, column[4:]])


@pytest.mark.parametrize("name, change", [
    ("k", lambda column: column.astype(np.float64)),  # its JSON read "k":1.0
    ("j", lambda column: np.r_[column[:3], 2.5, column[4:]]),
    ("k", lambda column: column.astype(bool)),
], ids=["k float", "j 2.5", "k bool"])
def test_crossing_set_refuses_non_integer_k_and_j(name, change):
    with pytest.raises(ValueError, match=f"^every {name} must be an integer$"):
        _with_column(name, change)


@pytest.mark.parametrize("name, message", [
    ("sign", "every sign must be an integer 1 or -1"),
    ("kind", "every kind must be an integer -1, 0 or 1"),
    ("k", "every k must be an integer"),
    ("j", "every j must be an integer"),
])
def test_crossing_set_refuses_timedelta_columns(name, message):
    # numpy files timedelta64 under np.integer, so a column of them passed the integer test
    with pytest.raises(ValueError, match=f"^{message}$"):
        _with_column(name, lambda column: column.astype("m8[s]"))


def test_crossing_set_stores_a_time_of_minus_zero_as_zero():
    # a t1 of -0.0 was kept, and printed as -0 in the JSON, CSV and text rows
    cs = _set_of((-0.0, 2.0), (1.0, 3.0))
    assert math.copysign(1.0, cs.t1[0]) == 1.0 and math.copysign(1.0, cs.passages[0][0]) == 1.0
    assert '"t1":0,' in cs.to_json() and "\n,,,0,2," in cs.to_csv()


@pytest.mark.parametrize("change", [
    lambda kind: np.r_[kind[:3], 2, kind[4:]],  # .crossings raised a raw IndexError on it
    lambda kind: np.r_[kind[:3], -2, kind[4:]],  # read as a crossing without indices
    lambda kind: kind.astype(np.float64),
], ids=["2", "-2", "float"])
def test_crossing_set_refuses_a_kind_other_than_minus_one_zero_or_one(change):
    with pytest.raises(ValueError, match=r"^every kind must be an integer -1, 0 or 1$"):
        _with_column("kind", change)


@pytest.mark.parametrize("name", ["t1", "t2", "sign", "over_t1", "kind", "k", "j"])
def test_crossing_set_columns_are_read_only(name):
    params = TorusParams(3, 7)
    column = getattr(analytic_crossing_set(gen_theorem_knot(params), params), name)
    with pytest.raises(ValueError, match="read-only"):
        column[0] = column[1]


def test_crossing_set_passages_are_read_only():
    params = TorusParams(3, 7)
    for column in analytic_crossing_set(gen_theorem_knot(params), params).passages:
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[1]


def test_crossing_set_does_not_share_the_arrays_passed_in():
    # a write to an input array after the checks planted a duplicate in a checked set
    params = TorusParams(3, 7)
    cs = analytic_crossing_set(gen_theorem_knot(params), params)
    names = ("t1", "t2", "sign", "over_t1", "kind", "k", "j")
    columns = {name: getattr(cs, name).copy() for name in names}
    planted = CrossingSet(cs.knot, **columns, method=cs.method)
    passages = [column.copy() for column in planted.passages]
    gauss, pd = build_gauss_code(cs.knot, planted), build_pd_code(planted)
    for column in columns.values():
        column[5] = column[4]
        column[:3] = column[::-1][:3]
    for name in names:
        assert np.array_equal(getattr(planted, name), getattr(cs, name))
    assert all(map(np.array_equal, planted.passages, passages))
    assert build_gauss_code(cs.knot, planted) == gauss and build_pd_code(planted) == pd


@pytest.mark.parametrize("change", [
    lambda over: np.where(over, 2, 0),  # build_pd_code raised a raw IndexError on it
    lambda over: over.astype(np.int64),
    lambda over: over.astype(np.float64),
], ids=["int 2", "int 0 or 1", "float"])
def test_crossing_set_refuses_an_over_column_without_bool_dtype(change):
    with pytest.raises(ValueError, match=r"^over_t1 must have bool dtype, got (int64|float64)$"):
        _with_column("over_t1", change)


@pytest.mark.parametrize("name, change", [
    ("k", lambda column: column[:-1]),
    ("sign", lambda column: column[:, None]),
    ("over_t1", lambda column: np.r_[column, True]),
    ("t1", lambda column: column[0]),
], ids=["k short", "sign 2-D", "over_t1 long", "t1 scalar"])
def test_crossing_set_refuses_columns_of_other_shapes(name, change):
    with pytest.raises(ValueError, match=r"^the columns must be 1-D and of one length, got shapes "):
        _with_column(name, change)


def test_crossing_set_refuses_two_dimensional_columns():
    params = TorusParams(3, 7)
    cs = analytic_crossing_set(gen_theorem_knot(params), params)
    columns = (cs.t1, cs.t2, cs.sign, cs.over_t1, cs.kind, cs.k, cs.j)
    with pytest.raises(ValueError, match=r"^the columns must be 1-D and of one length, got shapes "):
        CrossingSet(cs.knot, *(column[:, None] for column in columns), cs.method)


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
@example(pairs=[])  # no times: no gap
@example(pairs=[(0.5, 1.0)])  # two times: one gap each way round
@given(pairs=clustered_time_pairs())
def test_near_pairs_matches_all_pairs(pairs):
    assert near_pairs([a for a, _ in pairs], [b for _, b in pairs]) == near_pairs_reference(pairs)


def test_near_pairs_refuses_columns_of_unequal_length():
    with pytest.raises(ValueError, match=r"^near_pairs needs columns of one length, got 1 and 2 times$"):
        near_pairs([0.1], [0.2, 0.3])
    with pytest.raises(ValueError, match=r"got 3 and 0 times$"):
        near_pairs(np.array([0.1, 0.2, 0.3]), np.array([]))


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
