import hashlib
import itertools
import math
import random
import struct
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from fourierknot import (
    CertificationFailure,
    FourierKnot,
    FourierSeries,
    FourierTerm,
    PhaseMap,
    PhasePoint,
    SignVector,
    SimplifyRequiresEvenP,
    SingularLine,
    SingularPoint,
    TorusParams,
    analytic_crossing_set,
    build_gauss_code,
    certify_intercept_reading,
    classify,
    gen_theorem_knot,
    identify,
    knot_with_phases,
    phase_map_render,
    same_knot_by_phases,
    sign_vector,
    simplified_phase_point,
    singular_lines,
    theorem_phase_point,
)
import fourierknot.crossings as crossings_mod
import fourierknot.phases as phases_mod
from fourierknot.crossings import (
    EPS_SINGULAR,
    TYPE_I,
    TYPE_II,
    CrossingIndices,
    _crossing_table,
    _records,
    circular_distance,
    pair_difference,
)
from fourierknot.phases import (
    _CERT_PHI1,
    MAX_SIGN_TABLE,
    _dense_ids,
    _line_candidates,
    _line_gaps,
    _phase_classes,
)
from fourierknot.render import knot_diagram_svg, phase_map_png
from fourierknot.series import TWO_PI, _phi2_along, sine_split
from crossings_reference import family
from planted import crossing_set
from render_reference import phase_rgb, rgb_png, upscaled

# the whole module runs on the second platform and libm (marker in pyproject.toml)
pytestmark = pytest.mark.platform_pinned


def table_rows(params):
    """(indices, raw t1, raw t2) per crossing-table row, in table order."""
    table = _crossing_table(params)
    return list(zip(table.indices, table.t1.tolist(), table.t2.tolist()))


def height_gaps(params, point):
    """The crossing table's height gap at every row, in table order, at the phase point."""
    return _crossing_table(params).height_gap(slice(None), point.phi1, point.phi2).tolist()


# -- the table's height gap ------------------------------------------------------


def test_theorem_point_never_degenerate_3_7():
    params = TorusParams(3, 7)
    point = theorem_phase_point(params)
    for gap in height_gaps(params, point):
        assert abs(gap) > 1e-9


def test_matches_knot_evaluation():
    params = TorusParams(3, 7)
    point = PhasePoint(1.234, 2.345)
    knot = knot_with_phases(params, point)
    for gap, (_, t1, t2) in zip(height_gaps(params, point), table_rows(params)):
        direct = knot.z.eval(t1) - knot.z.eval(t2)
        assert gap == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("pq", [(2, 3), (3, 7), (4, 9), (7, 13)])
def test_matches_pair_difference_bitwise(pq):
    # the table's numpy height gap is the same float arithmetic as the
    # term-wise scalar split at the raw (unreduced) formula times
    params = TorusParams(*pq)
    rng = random.Random(pq[0] * 100 + pq[1])
    points = [theorem_phase_point(params), simplified_phase_point(params)]
    points += [PhasePoint(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI)) for _ in range(10)]
    table = _crossing_table(params)
    for point in points:
        z = knot_with_phases(params, point).z
        for row, (ix, t1, t2) in enumerate(table_rows(params)):
            assert table.height_gap(row, point.phi1, point.phi2) == pair_difference(z, t1, t2), (point, ix)


def test_height_gap_is_sine_split_of_the_raw_times_bitwise():
    # the table keeps the point-independent factors of every row; a gap is
    # still sine_split at the rows' raw times bit for bit, sign bits included,
    # in the three shapes the point queries and certifications ask for
    for q in range(3, 30):
        for p in range(2, q):
            if math.gcd(p, q) != 1:
                continue
            params = TorusParams(p, q)
            table = _crossing_table(params)
            rng = np.random.default_rng(100 * p + q)
            points = rng.uniform(0.0, TWO_PI, (2, 2))
            rows = rng.choice(len(table.k), size=min(7, len(table.k)), replace=False)
            simplified = simplified_phase_point(params)
            cases = [
                (slice(None), simplified.phi1, simplified.phi2),  # on lines for odd p
                (slice(None), float(points[0, 0]), float(points[0, 1])),
                (slice(None), points[:, :1], points[:, 1:]),  # a (2, 1) column of two points
                (rows[:, None], _CERT_PHI1, rng.uniform(0.0, TWO_PI, (len(rows), len(_CERT_PHI1)))),
            ]
            for index, phi1, phi2 in cases:
                gap = table.height_gap(index, phi1, phi2)
                split = sine_split(((1.0, p, phi1), (1.0, q - p, phi2)), table.t1[index], table.t2[index])
                assert gap.shape == split.shape, (p, q)
                assert np.array_equal(gap, split), (p, q)
                assert np.array_equal(np.signbit(gap), np.signbit(split)), (p, q)


def test_gap_factors_read_only_built_once_and_only_for_gaps(monkeypatch):
    built = []
    real = crossings_mod.sine_factors
    monkeypatch.setattr(crossings_mod, "sine_factors", lambda *args: built.append(args) or real(*args))
    params = TorusParams(5, 7)
    _crossing_table.cache_clear()
    knot = gen_theorem_knot(params)
    analytic_crossing_set(knot, params)
    table = _crossing_table(params)
    _phase_classes(table, 64)
    assert built == [] and "_gap_factors" not in vars(table)
    sign_vector(params, theorem_phase_point(params))
    same_knot_by_phases(params, theorem_phase_point(params), PhasePoint(1.0, 2.0))
    singular_lines(params)
    certify_intercept_reading(params)
    assert _crossing_table(params) is table and len(built) == 1
    for column in itertools.chain.from_iterable(table._gap_factors):
        assert column.shape == table.t1.shape and not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 0.0


def test_antisymmetry_under_time_swap():
    # swapping the roles k -> -k negates the gap; checked via the raw formula
    params = TorusParams(3, 5)
    point = PhasePoint(0.7, 1.9)
    knot = knot_with_phases(params, point)
    rng = random.Random(2)
    for _ in range(50):
        t1, t2 = rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI)
        assert pair_difference(knot.z, t1, t2) == pytest.approx(-pair_difference(knot.z, t2, t1), abs=1e-15)


def test_odd_p_simplified_point_hits_two_lines():
    params = TorusParams(3, 5)
    point = PhasePoint(math.pi / 2, math.pi / 6)  # the simplified point for (3, 5)
    rows = zip(_crossing_table(params).indices, height_gaps(params, point))
    degenerate = [ix for ix, gap in rows if abs(gap) < 1e-9]
    assert len(degenerate) >= 1
    assert all(ix.kind == TYPE_II for ix in degenerate)


@pytest.mark.parametrize("phi1, phi2, field", [
    (math.nan, 0.5, "phi1"), (math.inf, 0.0, "phi1"), (0.5, -math.inf, "phi2"), (1.0, math.nan, "phi2"),
])
def test_phase_point_rejects_non_finite(phi1, phi2, field):
    # a nan phase used to give an all -1 sign vector, an infinite one a bare "math domain error"
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        PhasePoint(phi1, phi2)


def test_phase_point_reads_phi1_before_phi2():
    with pytest.raises(ValueError, match="phi1 must be finite"):
        PhasePoint(math.inf, None)


@pytest.mark.parametrize("field", ["phi1", "phi2"])
@pytest.mark.parametrize("bad", ["1.5", "pi", b"1.5", None, 1j, np.complex128(1.0), np.complex64(1.0)],
                         ids=["str", "name", "bytes", "None", "complex", "numpy-complex", "numpy-complex64"])
def test_phase_point_refuses_non_reals_by_name(field, bad):
    # "1.5" used to be taken, None to raise float()'s TypeError and "pi" numpy's message
    values = {"phi1": 0.5, "phi2": 0.5, field: bad}
    with pytest.raises(ValueError, match=f"{field} must be a real number"):
        PhasePoint(**values)


def test_phase_point_takes_what_float_takes_but_text_and_complex():
    # numpy bools, 0-d arrays and Decimals are not numbers.Real, and float() still reads them
    for phi1, phi2 in ((np.float64(0.5), np.float32(1.5)), (Fraction(1, 2), np.int64(3)), (1, True),
                       (np.True_, np.array(0.5)), (Decimal("0.25"), np.array(2))):
        point = PhasePoint(phi1, phi2)
        assert (point.phi1, point.phi2) == (float(phi1), float(phi2))
        assert type(point.phi1) is float and type(point.phi2) is float


# -- sign vectors ----------------------------------------------------------------


def test_sign_vector_2_3_theorem_point():
    params = TorusParams(2, 3)
    sv = sign_vector(params, theorem_phase_point(params))
    entries = dict(sv.items)
    assert len(entries) == 7
    knot = gen_theorem_knot(params)
    for ix, t1, t2 in family(params, TYPE_I) + family(params, TYPE_II):
        direct = knot.z.eval(t1) - knot.z.eval(t2)
        assert entries[ix] == (1 if direct > 0 else -1)
    # every same-direction crossing of the theorem knot is left handed
    for ix, t1, t2 in family(params, TYPE_I):
        assert classify(knot, t1, t2, ix).sign == -1


def test_sign_vector_singular_for_odd_p():
    params = TorusParams(3, 5)
    with pytest.raises(SingularPoint) as err:
        sign_vector(params, PhasePoint(math.pi / 2, math.pi / 6))
    type2 = [ix for ix in err.value.indices if ix.kind == TYPE_II]
    assert len(type2) >= 2


def test_sign_vector_stable_under_small_nudges():
    params = TorusParams(2, 3)
    point = theorem_phase_point(params)
    margin = min(map(abs, height_gaps(params, point)))
    assert margin > 1e-2
    base = sign_vector(params, point)
    eps = 1e-4
    for dx, dy in ((eps, 0), (-eps, 0), (0, eps), (0, -eps), (eps, eps)):
        assert sign_vector(params, PhasePoint(point.phi1 + dx, point.phi2 + dy)) == base


def test_sign_vector_json_keys():
    params = TorusParams(2, 3)
    text = sign_vector(params, theorem_phase_point(params)).to_json()
    import json

    data = json.loads(text)
    assert set(data) == {
        "I:1:2", "I:1:3", "I:1:4", "II:1:1", "II:1:2", "II:1:3", "II:2:2",
    }
    assert set(data.values()) <= {1, -1}


def test_crossing_table_rows_are_in_sorted_order():
    # sign_vector takes the table's rows as they are, where SignVector(...) sorts
    for q in range(3, 31):
        for p in range(2, q):
            if math.gcd(p, q) == 1:
                indices = _crossing_table(TorusParams(p, q)).indices
                assert indices == tuple(sorted(indices)), (p, q)


@pytest.mark.parametrize("pq", [(2, 3), (5, 9), (7, 13)])
def test_table_built_sign_vector_equals_public_one(pq):
    params = TorusParams(*pq)
    rng = random.Random(pq[1])
    built = 0
    while built < 10:
        try:
            vec = sign_vector(params, PhasePoint(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI)))
        except SingularPoint:
            continue
        items = list(vec.items)
        rng.shuffle(items)
        public = SignVector(tuple(items))
        assert public == vec and hash(public) == hash(vec)
        assert public.items == vec.items and public.to_json() == vec.to_json()
        built += 1


def _query_batch(params, seed):
    """sign_vector JSON and same_knot_by_phases answers over seeded regular points."""
    rng = random.Random(seed)
    points, out = [], []
    while len(points) < 24:
        point = PhasePoint(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI))
        try:
            out.append(sign_vector(params, point).to_json())
        except SingularPoint:
            continue
        points.append(point)
    for a, b in zip(points, points[1:]):
        out.append(same_knot_by_phases(params, a, b))
    for a in points:
        try:
            out.append(same_knot_by_phases(params, a, PhasePoint(a.phi1 + 0.05, a.phi2)))
        except SingularPoint as err:
            out.append([ix.key() for ix in err.indices])
    return out


def test_point_queries_pinned():
    # taken before sign_vector and same_knot_by_phases worked on sign arrays
    digest = hashlib.sha256()
    answers = []
    for p, q in ((2, 3), (5, 9), (7, 11), (7, 13)):
        batch = _query_batch(TorusParams(p, q), 100 * p + q)
        digest.update(repr(batch).encode())
        answers += [x for x in batch if isinstance(x, bool)]
    assert True in answers and False in answers
    assert digest.hexdigest() == "f5c317bc085179200e086833e4079d1a9737c59c6b37b03743ce0b1209532a45"


@pytest.mark.parametrize("pq", [(2, 3), (5, 9), (7, 13)])
def test_uncached_point_queries_equal_cached_ones(pq):
    # each uncached call builds its own crossing table (cache_clear first);
    # the cached call before it reads a table whose gap factors are built
    params = TorusParams(*pq)
    rng = random.Random(pq[0] * 100 + pq[1])

    def uncached(query, *args):
        _crossing_table.cache_clear()
        return query(params, *args)

    points = []
    while len(points) < 12:
        point = PhasePoint(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI))
        try:
            cached = sign_vector(params, point)
        except SingularPoint:
            continue
        fresh = uncached(sign_vector, point)
        assert fresh.items == cached.items and fresh.to_json() == cached.to_json()
        points.append(point)

    def same(a, b, clear):
        if clear:
            _crossing_table.cache_clear()
        try:
            return same_knot_by_phases(params, a, b)
        except SingularPoint as err:  # b may lie on a line
            return err.indices

    pairs = list(zip(points, points[1:])) + [(a, PhasePoint(a.phi1 + 1e-3, a.phi2)) for a in points]
    answers = [same(a, b, False) for a, b in pairs]
    assert [same(a, b, True) for a, b in pairs] == answers
    assert True in answers and False in answers
    if params.p % 2:
        with pytest.raises(SingularPoint) as cached_err:
            sign_vector(params, simplified_phase_point(params))
        with pytest.raises(SingularPoint) as fresh_err:
            uncached(sign_vector, simplified_phase_point(params))
        assert fresh_err.value.indices == cached_err.value.indices and fresh_err.value.indices


def _singular_indices(params, point=None):
    with pytest.raises(SingularPoint) as err:
        sign_vector(params, simplified_phase_point(params) if point is None else point)
    # table order, which is sorted order (test_crossing_table_rows_are_in_sorted_order)
    assert list(err.value.indices) == sorted(err.value.indices)
    return err.value.indices


def test_same_knot_refuses_with_the_first_singular_point():
    # T(3,5): b lies on two type-II lines and c on the first singular line, which holds two crossings
    params = TorusParams(3, 5)
    b = simplified_phase_point(params)
    c = PhasePoint(1.0, singular_lines(params)[0].phi2_at(1.0))
    for first, second, keys in ((theorem_phase_point(params), b, ["II:1:2", "II:3:2"]),
                                (c, b, ["I:1:2", "I:1:7"]), (b, c, ["II:1:2", "II:3:2"])):
        with pytest.raises(SingularPoint) as err:
            same_knot_by_phases(params, first, second)
        assert [ix.key() for ix in err.value.indices] == keys


def test_singular_indices_of_simplified_point_pinned():
    # odd p: the simplified point lies on type-II lines; SingularPoint lists
    # their indices in table order, and same_knot_by_phases reports a before b
    assert [ix.key() for ix in _singular_indices(TorusParams(3, 5))] == ["II:1:2", "II:3:2"]
    assert [ix.key() for ix in _singular_indices(TorusParams(7, 13))] == [
        "II:1:4", "II:2:11", "II:3:4", "II:4:11", "II:5:4", "II:7:4",
    ]
    digest = hashlib.sha256()
    for q in range(4, 30):
        for p in range(3, q, 2):
            if math.gcd(p, q) != 1:
                continue
            params = TorusParams(p, q)
            simplified, regular = simplified_phase_point(params), theorem_phase_point(params)
            indices = _singular_indices(params)
            digest.update(repr((p, q, [ix.key() for ix in indices])).encode())
            for a, b in ((simplified, regular), (regular, simplified)):
                with pytest.raises(SingularPoint) as err:
                    same_knot_by_phases(params, a, b)
                assert err.value.indices == indices
            line = next(line for line in singular_lines(params) if line.kind == TYPE_I)
            horizontal = PhasePoint(1.0, line.intercept)
            other = _singular_indices(params, horizontal)
            assert other != indices
            for a, b, expected in ((simplified, horizontal, indices), (horizontal, simplified, other)):
                with pytest.raises(SingularPoint) as err:
                    same_knot_by_phases(params, a, b)
                assert err.value.indices == expected
    assert digest.hexdigest() == "1a9b3d4273597e530a2e75b5dab4d8c3c5229848fb449a1a197ec62b011f1345"


def _refusal(params, point):
    """sign_vector's JSON at the point, or the keys of the indices SingularPoint names."""
    try:
        return sign_vector(params, point).to_json()
    except SingularPoint as err:
        return [ix.key() for ix in err.indices]


def test_refusal_boundary_pinned():
    # taken before the height gap kept its factors on the table: which points
    # are refused, and with which indices, at the simplified point and within
    # 1e-10 of seeded lines; same_knot_by_phases names the near point's
    # indices whichever side it is on
    digest = hashlib.sha256()
    for q in range(3, 14):
        for p in range(2, q):
            if math.gcd(p, q) != 1:
                continue
            params = TorusParams(p, q)
            rng = random.Random(1000 * p + q)
            lines = singular_lines(params)
            regular = theorem_phase_point(params)
            answers = [_refusal(params, simplified_phase_point(params))]
            for line in rng.sample(lines, min(12, len(lines))):
                phi1 = rng.uniform(0.0, TWO_PI)
                point = PhasePoint(phi1, line.phi2_at(phi1) + rng.uniform(-1e-10, 1e-10))
                answers.append(_refusal(params, point))
                for a, b in ((point, regular), (regular, point)):
                    try:
                        answers.append(same_knot_by_phases(params, a, b))
                    except SingularPoint as err:
                        answers.append([ix.key() for ix in err.indices])
            digest.update(repr((p, q, answers)).encode())
    assert digest.hexdigest() == "cf7230157e7d67c86af3802da1fa877dc22dd45c358d3775479fda0c77633ecd"


# -- same_knot_by_phases ----------------------------------------------------------


def test_even_p_simplification_same_region():
    params = TorusParams(2, 3)
    assert same_knot_by_phases(params, theorem_phase_point(params), simplified_phase_point(params))


def test_reflexive():
    params = TorusParams(2, 3)
    a = PhasePoint(1.0, 2.0)
    assert same_knot_by_phases(params, a, a)


def test_odd_p_simplified_point_raises():
    params = TorusParams(3, 5)
    with pytest.raises(SingularPoint):
        same_knot_by_phases(params, theorem_phase_point(params), simplified_phase_point(params))


# -- singular lines -----------------------------------------------------------------


def test_lines_2_3_type1_horizontal_and_certified():
    params = TorusParams(2, 3)
    lines = singular_lines(params)
    t1_lines = [l for l in lines if l.kind == TYPE_I]
    assert all(l.slope == 0 for l in t1_lines)
    one_two = [l for l in t1_lines if (l.k, l.j) == (1, 2)]
    assert one_two
    table = _crossing_table(params)
    row = table.indices.index(CrossingIndices(TYPE_I, 1, 2))
    rng = random.Random(4)
    for line in one_two:
        for _ in range(10):
            point = PhasePoint(rng.uniform(0, TWO_PI), line.intercept)
            v = table.height_gap(row, point.phi1, point.phi2)
            assert abs(v) < 1e-9


def test_type2_slopes_follow_parity():
    params = TorusParams(3, 5)
    for line in singular_lines(params):
        if line.kind == TYPE_II:
            expected = 1 if (line.m + line.k) % 2 == 0 else -1
            assert line.slope == expected
        else:
            assert line.slope == 0


@pytest.mark.parametrize("pq", [(2, 3), (3, 4), (3, 5), (2, 5)])
def test_every_crossing_owns_lines_in_range(pq):
    params = TorusParams(*pq)
    lines = singular_lines(params)
    owners = {(l.kind, l.k, l.j) for l in lines}
    for ix in _crossing_table(params).indices:
        assert (ix.kind, ix.k, ix.j) in owners
    for line in lines:
        assert 0.0 <= line.intercept < TWO_PI


def test_intercept_reading_certified():
    for pq in [(2, 3), (3, 5), (4, 7)]:
        reading, good, bad = certify_intercept_reading(TorusParams(*pq))
        assert reading == "(1/p - 1/q) * pi/2"
        assert good < 1e-9
        assert bad > 1e-3


def test_singular_lines_unchanged_for_small_pairs():
    # the line reprs are pinned by digest; the array phi2 used to certify them
    # must equal phi2_at bit for bit
    digest = hashlib.sha256()
    for q in range(3, 14):
        for p in range(2, q):
            if math.gcd(p, q) == 1:
                lines = singular_lines(TorusParams(p, q))
                digest.update(repr(lines).encode())
                expected = [[line.phi2_at(x) for x in _CERT_PHI1.tolist()] for line in lines]
                intercepts = np.array([line.intercept for line in lines])
                # integer slopes as singular_lines has them, float ones as phase_map_png
                for dtype in (int, float):
                    slopes = np.array([line.slope for line in lines], dtype=dtype)
                    assert _phi2_along(slopes, intercepts, _CERT_PHI1).tolist() == expected, (p, q)
    assert digest.hexdigest() == "e83948101aef5b349f27deabb2e1c5a2d3b9620b48536c18dbc5467c471fdb2e"


def test_singular_lines_are_immutable_records():
    for line in singular_lines(TorusParams(7, 11)):
        fields = (line.kind, line.k, line.j, line.m, line.slope, line.intercept)
        assert type(line) is SingularLine
        assert line == SingularLine(*fields) == fields
        with pytest.raises(AttributeError):
            line.intercept = 0.0
    # CertificationFailure messages embed a line's repr
    first = singular_lines(TorusParams(3, 7))[0]
    assert repr(first) == "SingularLine(kind='I', k=1, j=3, m=-1, slope=0, intercept=1.1967972013675405)"


def test_wrong_intercept_fails_certification(monkeypatch):
    import fourierknot.phases as ph

    monkeypatch.setattr(ph, "_TYPE1_CONST", lambda p, q: (1.0 / p - 1.0 / q) / (2 * math.pi))
    # the message names the first failing line, built alone from the arrays
    message = (
        "line SingularLine(kind='I', k=1, j=2, m=-1, slope=0, intercept=1.0737233750452466) "
        "fails for crossing I:1:2: residual 4.662e-01 at phi1=0.232478"
    )
    for certify in (singular_lines, ph.certified_line_arrays):
        with pytest.raises(CertificationFailure) as err:
            certify(TorusParams(2, 3))
        assert str(err.value) == message
    # the lines a phase map draws are the certified ones
    with pytest.raises(CertificationFailure):
        phase_map_render(TorusParams(2, 3), 64)


def test_record_helper_builds_the_records_one_by_one():
    # crossings._records skips the Python __new__; the records are those built one by one, of the same type
    for pq in ((2, 3), (3, 7), (7, 11)):
        params = TorusParams(*pq)
        table = _crossing_table(params)
        kinds = [TYPE_I if row < table.n_type1 else TYPE_II for row in range(len(table.k))]
        indices = [CrossingIndices(*ix) for ix in zip(kinds, table.k.tolist(), table.j.tolist())]
        rows, m, slopes, intercepts = (column.tolist() for column in phases_mod.certified_line_arrays(params))
        lines = [SingularLine(*indices[row], *rest) for row, *rest in zip(rows, m, slopes, intercepts)]
        for built, one_by_one in (
            (singular_lines(params), lines),
            (list(table.indices), indices),
            (_records(SingularLine, *zip(*lines)), lines),
        ):
            assert built == one_by_one, pq
            assert [type(record) for record in built] == [type(record) for record in one_by_one], pq
    assert _records(SingularLine) == []


def test_certification_gaps_are_per_line_height_gaps_bitwise():
    # one phi1 wave per table row: each line's gap is still (0 + w1) + w2 of a
    # per-line height_gap call at its own row, bit for bit, sign bits included
    for q in range(3, 30):
        for p in range(2, q):
            if math.gcd(p, q) != 1:
                continue
            table = _crossing_table(TorusParams(p, q))
            rows, _, slopes, intercepts = _line_candidates(table)
            assert (rows == np.arange(len(table.k))[:, None]).all(), (p, q)
            gaps = _line_gaps(table, rows, slopes, intercepts)
            rows, slopes, intercepts = rows.ravel(), slopes.ravel(), intercepts.ravel()
            per_line = table.height_gap(rows[:, None], _CERT_PHI1, _phi2_along(slopes, intercepts, _CERT_PHI1))
            assert gaps.shape == per_line.shape == (2 * len(table.k), len(_CERT_PHI1)), (p, q)
            assert gaps.tobytes() == per_line.tobytes(), (p, q)


def test_certification_names_the_first_failing_line_and_sample(monkeypatch):
    # a line past a row's first fails first; the message is the per-line reference's
    real = phases_mod._line_candidates
    params = TorusParams(3, 7)
    candidates = real(_crossing_table(params))
    bent = candidates[3].copy()
    bent[[2, 4], [1, 0]] += 0.3  # the lines at raveled positions 5 and 8
    monkeypatch.setattr(phases_mod, "_line_candidates", lambda table: (*candidates[:3], bent))
    rows, m, slopes, bent = (column.ravel() for column in (*candidates[:3], bent))
    table = _crossing_table(params)
    residual = np.abs(table.height_gap(rows[:, None], _CERT_PHI1, _phi2_along(slopes, bent, _CERT_PHI1)))
    i, sample = np.argwhere(residual > EPS_SINGULAR)[0]
    assert i == 5
    line = SingularLine(TYPE_I if rows[i] < table.n_type1 else TYPE_II, int(table.k[rows[i]]),
                        int(table.j[rows[i]]), int(m[i]), int(slopes[i]), float(bent[i]))
    message = (f"line {line} fails for crossing {CrossingIndices(*line[:3]).key()}: "
               f"residual {residual[i, sample]:.3e} at phi1={_CERT_PHI1[sample]:.6f}")
    with pytest.raises(CertificationFailure) as err:
        phases_mod.certified_line_arrays(params)
    assert str(err.value) == message


def test_same_knot_by_phases_answers_a_python_bool():
    params = TorusParams(5, 9)
    a = theorem_phase_point(params)
    answers = [same_knot_by_phases(params, a, b) for b in (a, PhasePoint(a.phi1 + 1.0, a.phi2 + 2.0))]
    assert answers == [True, False]
    assert [type(answer) for answer in answers] == [bool, bool]


def test_sign_vector_items_are_the_indices_zipped_with_their_signs():
    # sign_vector picks each row's item from the table's sign_items; it equals the pair built one by one
    for pq in ((2, 3), (3, 7), (7, 11)):
        params = TorusParams(*pq)
        table = _crossing_table(params)
        rng = random.Random(sum(pq))
        for _ in range(8):
            point = PhasePoint(rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI))
            gaps = table.height_gap(slice(None), point.phi1, point.phi2)
            expected = tuple(zip(table.indices, [1 if gap > 0.0 else -1 for gap in gaps.tolist()]))
            items = sign_vector(params, point).items
            assert items == expected, (pq, point)
            assert all(type(item) is tuple and type(ix) is CrossingIndices and type(s) is int for item in items
                       for ix, s in [item]), pq


# -- sign vector equality implies equal diagrams ----------------------------------------


@pytest.mark.parametrize("pq", [(2, 3), (3, 4), (2, 5)])
def test_equal_sign_vectors_give_equal_gauss_codes(pq):
    params = TorusParams(*pq)
    rng = random.Random(1000 + pq[0] * pq[1])

    def gauss(point):
        knot = knot_with_phases(params, point)
        return build_gauss_code(knot, analytic_crossing_set(knot, params)).entries

    points = []
    while len(points) < 20:
        cand = PhasePoint(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI))
        try:
            vec = sign_vector(params, cand)
        except SingularPoint:
            continue
        points.append((cand, vec))
    # nudge each point by a margin-bounded step: sign vector provably constant
    for cand, vec in points[:5]:
        margin = min(map(abs, height_gaps(params, cand)))
        step = margin / 8.0  # |d gap / d phi| <= 4, so this cannot flip signs
        nudged = PhasePoint(cand.phi1 + step / 2, cand.phi2 - step / 2)
        assert sign_vector(params, nudged) == vec
        assert gauss(nudged) == gauss(cand)
    # any coincidentally equal vectors among the random sample agree too
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if points[i][1] == points[j][1]:
                assert gauss(points[i][0]) == gauss(points[j][0])


def test_theorem_knot_is_knot_with_phases_at_the_theorem_points():
    # x = cos(p t), y = cos(q t + pi/(2p)), z = cos(p t + pi/2) + cos((q-p) t + phi2)
    # with phi2 = pi/(2p) - pi/(4q), or pi/(2p) for the simplified (even p) knot
    for q in range(3, 30):
        for p in range(2, min(q, 14)):
            if math.gcd(p, q) != 1:
                continue
            params = TorusParams(p, q)
            for simplified, point in ((False, theorem_phase_point(params)),
                                      (True, simplified_phase_point(params))):
                phi2 = math.pi / (2 * p) - (0.0 if simplified else math.pi / (4 * q))
                expected = FourierKnot(
                    FourierSeries((FourierTerm(1.0, p, 0.0),)),
                    FourierSeries((FourierTerm(1.0, q, math.pi / (2 * p)),)),
                    FourierSeries((FourierTerm(1.0, p, math.pi / 2), FourierTerm(1.0, q - p, phi2))),
                )
                assert knot_with_phases(params, point) == expected, (p, q, simplified)
                if simplified and p % 2:
                    with pytest.raises(SimplifyRequiresEvenP):
                        gen_theorem_knot(params, simplified=True)
                else:
                    assert gen_theorem_knot(params, simplified=simplified) == expected, (p, q)


@pytest.mark.parametrize("p, q", [(2, 3), (2, 5), (2, 7), (4, 5)])
def test_even_p_gauss_code_and_identify(p, q):
    params = TorusParams(p, q)
    theorem = gen_theorem_knot(params)
    simplified = gen_theorem_knot(params, simplified=True)
    gc_t = build_gauss_code(theorem, analytic_crossing_set(theorem, params))
    gc_s = build_gauss_code(simplified, analytic_crossing_set(simplified, params))
    assert gc_t == gc_s
    identify(simplified, analytic_crossing_set(simplified, params), params)


# -- phase map -----------------------------------------------------------------------


def test_phase_map_marks_same_class_2_3():
    pmap = phase_map_render(TorusParams(2, 3), 256)
    h = TWO_PI / pmap.grid

    def class_at(point):
        return pmap.classes[int(point.phi1 / h), int(point.phi2 / h)]

    a = class_at(theorem_phase_point(TorusParams(2, 3)))
    b = class_at(simplified_phase_point(TorusParams(2, 3)))
    assert a == b and a >= 0


def test_phase_map_odd_p_point_on_line():
    params = TorusParams(3, 5)
    pmap = phase_map_render(params, 256)
    point = simplified_phase_point(params)
    assert min(circular_distance(point.phi2, line.phi2_at(point.phi1)) for line in pmap.lines) < 1e-9


def test_phase_map_grid_floor():
    with pytest.raises(ValueError):
        phase_map_render(TorusParams(2, 3), 63)
    with pytest.raises(ValueError, match="2048"):
        phase_map_render(TorusParams(2, 3), 2049)


@pytest.mark.parametrize("grid", [64.5, 64.0, "64"])
def test_non_integer_phase_grid_refused_before_any_work(grid, monkeypatch):
    # 64.5 raised numpy's "slice indices must be integers" TypeError
    monkeypatch.setattr(phases_mod, "_crossing_table", lambda params: pytest.fail("table built"))
    with pytest.raises(ValueError, match=rf"^grid must be an integer, got {grid!r}$"):
        phase_map_render(TorusParams(3, 7), grid)


@pytest.mark.parametrize("scale", [1.5, 2.0, "2"])
def test_non_integer_png_scale_refused(scale):
    # 1.5 raised "'float' object cannot be interpreted as an integer"
    pmap = phase_map_render(TorusParams(3, 7), 64)
    with pytest.raises(ValueError, match=rf"^scale must be an integer, got {scale!r}$"):
        pmap.to_png_bytes(scale=scale)


def test_numpy_integer_grid_and_scale_are_taken():
    params = TorusParams(3, 7)
    plain, numpy_grid = phase_map_render(params, 64), phase_map_render(params, np.int32(64))
    assert type(numpy_grid.grid) is int
    assert np.array_equal(plain.classes, numpy_grid.classes)
    assert plain.to_png_bytes(scale=np.int64(3)) == plain.to_png_bytes(scale=3)


def test_diagram_of_a_crossing_free_set_is_one_unbroken_strand():
    knot = gen_theorem_knot(TorusParams(2, 3))
    svg = knot_diagram_svg(knot, crossing_set(knot, []))
    assert svg.count('class="strand"') == 1 and "<circle" not in svg
    samples = max(1024, 128 * knot.max_frequency())
    assert svg.split('class="strand" d="M ')[1].split('"')[0].count(" L ") == samples - 1


def test_image_sizes_below_one_are_refused():
    # they wrote an SVG of width "0" or "-5", or failed inside numpy (scale 0)
    params = TorusParams(2, 3)
    knot = gen_theorem_knot(params)
    with pytest.raises(ValueError, match=r"^size must be at least 1, got 0$"):
        knot_diagram_svg(knot, analytic_crossing_set(knot, params), size=0)
    pmap = phase_map_render(params, 64)
    with pytest.raises(ValueError, match=r"^size must be at least 1, got -5$"):
        pmap.to_svg(size=-5)
    with pytest.raises(ValueError, match=r"^scale must be at least 1, got 0$"):
        pmap.to_png_bytes(scale=0)
    assert 'width="1"' in knot_diagram_svg(knot, analytic_crossing_set(knot, params), size=1)
    assert 'width="1"' in pmap.to_svg(size=1)
    assert pmap.to_png_bytes(scale=1)[16:24] == struct.pack(">II", 64, 64)  # IHDR: width, height


def test_image_sizes_that_are_not_integers_are_refused():
    # 64.5 wrote width="64.5", and "100" raised a bare TypeError from the comparison with 1
    params = TorusParams(2, 3)
    knot = gen_theorem_knot(params)
    cs = analytic_crossing_set(knot, params)
    pmap = phase_map_render(params, 64)
    for size in (64.5, 64.0, "100"):
        with pytest.raises(ValueError, match=rf"^size must be an integer, got {size!r}$"):
            knot_diagram_svg(knot, cs, size=size)
        with pytest.raises(ValueError, match=rf"^size must be an integer, got {size!r}$"):
            pmap.to_svg(size=size)
    # a numpy integer is taken as the int it holds
    assert knot_diagram_svg(knot, cs, size=np.int32(100)) == knot_diagram_svg(knot, cs, size=100)
    assert pmap.to_svg(size=np.int64(100)) == pmap.to_svg(size=100)


def test_phase_map_sign_table_budget(monkeypatch):
    import fourierknot.phases as ph

    def no_table(params):
        raise AssertionError("the crossing table was built")

    monkeypatch.setattr(ph, "_crossing_table", no_table)
    # 1,996,001 crossings: about 4e9 sign-table entries at grid 2048
    with pytest.raises(ValueError, match=str(MAX_SIGN_TABLE)):
        phase_map_render(TorusParams(999, 1000), 2048)
    # T(90,91) has 16,199 crossings: 8,293,888 entries at 512 fit, 16,587,776 at 1024 do not
    with pytest.raises(ValueError, match="16199 crossings x grid 1024"):
        phase_map_render(TorusParams(90, 91), 1024)
    with pytest.raises(AssertionError, match="crossing table"):
        phase_map_render(TorusParams(90, 91), 512)


@pytest.mark.parametrize("p, q, grid", [(2, 3, 64), (5, 9, 97), (7, 13, 512)])
def test_phase_map_classes_match_direct_sign_vectors(p, q, grid):
    # a cell is -1 exactly when sign_vector at its centre raises SingularPoint,
    # and two regular cells share an id exactly when their sign vectors agree;
    # the sample holds random cells and the singular diagonals i1 = i2 and
    # i1 + i2 = grid - 1
    params = TorusParams(p, q)
    pmap = phase_map_render(params, grid)
    rng = random.Random(8)
    h = TWO_PI / grid
    sample = [(rng.randrange(grid), rng.randrange(grid)) for _ in range(150)]
    sample += [(i, i) for i in range(0, grid, 7)] + [(i, grid - 1 - i) for i in range(3, grid, 11)]
    by_vector, by_class, singular = {}, {}, 0
    for i1, i2 in sample:
        cls = int(pmap.classes[i1, i2])
        try:
            vec = sign_vector(params, PhasePoint((i1 + 0.5) * h, (i2 + 0.5) * h))
        except SingularPoint:
            assert cls == -1, (i1, i2)
            singular += 1
            continue
        assert 0 <= cls < pmap.n_classes, (i1, i2)
        assert by_vector.setdefault(vec, cls) == cls
        assert by_class.setdefault(cls, vec) == vec
    assert singular > 0 and len(by_class) > 1


def phase_classes_dense(params, grid):
    """The raster as one dense pass: all n x grid^2 gaps, one np.unique over full packed keys.

    Reference for phase_map_render's factored raster; returns (classes,
    number of distinct ids on non-singular cells).
    """
    p, q = params.p, params.q
    entries = table_rows(params)
    phi = (np.arange(grid) + 0.5) * (TWO_PI / grid)
    n = len(entries)
    term1 = np.empty((n, grid))
    term2 = np.empty((n, grid))
    for c, (_, t1, t2) in enumerate(entries):
        s, d = 0.5 * (t1 + t2), 0.5 * (t1 - t2)
        term1[c] = -2.0 * math.sin(p * d) * np.sin(p * s + phi)
        term2[c] = -2.0 * math.sin((q - p) * d) * np.sin((q - p) * s + phi)
    gaps = term1[:, :, None] + term2[:, None, :]
    bits = np.packbits((gaps > 0.0).reshape(n, -1), axis=0)
    keys = np.ascontiguousarray(bits.T).view(np.dtype((np.void, bits.shape[0]))).ravel()
    _, inverse = np.unique(keys, return_inverse=True)
    classes = inverse.ravel().reshape(grid, grid).astype(np.int32)
    classes[(np.abs(gaps) <= EPS_SINGULAR).any(axis=0)] = -1
    return classes, len(np.unique(classes[classes >= 0]))


def reranked(classes):
    """classes with the ids of the non-singular cells renumbered 0, 1, ... in their order."""
    out = classes.copy()
    _, ranks = np.unique(classes[classes >= 0], return_inverse=True)
    out[classes >= 0] = ranks.ravel()
    return out


_KEY_BITS = np.array([128, 64, 32, 16, 8, 4, 2, 1], dtype=np.uint8)


def phase_classes_bytewise(params, grid):
    """The raster as exact height gaps, refined eight crossings (one key byte) at a time.

    Memory stays O(grid^2) whatever the crossing count.  Reference for
    phase_map_render's factored raster; returns (classes, number of distinct
    ids on non-singular cells).
    """
    table = _crossing_table(params)
    n = len(table.indices)
    phi = (np.arange(grid) + 0.5) * (TWO_PI / grid)
    ids = np.zeros(grid * grid, dtype=np.intp)
    singular = np.zeros(grid * grid, dtype=bool)
    for chunk, start in enumerate(range(0, n, 8)):
        rows = np.arange(start, min(start + 8, n))[:, None, None]
        gaps = table.height_gap(rows, phi[:, None], phi).reshape(len(rows), -1)
        singular |= np.abs(gaps).min(axis=0) <= EPS_SINGULAR
        # ids rank the cells' sign keys so far; appending the next key bytes
        # (first row in the high bit, as np.packbits packs) and ranking again
        # keeps the lexicographic order of the full keys; four bytes per
        # ranking keep ids * 256^4 inside int64 for grid <= 2048
        byte = ((gaps > 0.0) * _KEY_BITS[: len(rows), None]).sum(axis=0, dtype=np.uint8)
        ids = ids * 256 + byte
        if chunk % 4 == 3 or start + 8 >= n:
            _, ids = np.unique(ids, return_inverse=True)
            ids = ids.ravel()
    classes = ids.reshape(grid, grid).astype(np.int32)
    singular = singular.reshape(grid, grid)
    n_classes = len(np.unique(classes[~singular]))
    classes[singular] = -1
    return classes, n_classes


@pytest.mark.parametrize("p, q, grid", [
    (2, 3, 64), (2, 5, 64), (3, 7, 256), (4, 5, 128), (5, 7, 96), (5, 9, 96), (7, 13, 128),
])
def test_phase_map_matches_dense_reference(p, q, grid):
    # crossing counts 7 to 162, key widths of one to 21 bytes
    params = TorusParams(p, q)
    pmap = phase_map_render(params, grid)
    classes, n_classes = phase_classes_dense(params, grid)
    assert np.array_equal(pmap.classes, reranked(classes))
    assert pmap.n_classes == n_classes


def test_dense_and_bytewise_references_agree():
    # T(5,9) has 10 key bytes: two rankings of four bytes and one of two
    for p, q, grid in ((2, 3, 64), (5, 9, 96), (7, 13, 128)):
        dense = phase_classes_dense(TorusParams(p, q), grid)
        bytewise = phase_classes_bytewise(TorusParams(p, q), grid)
        assert np.array_equal(dense[0], bytewise[0]) and dense[1] == bytewise[1], (p, q, grid)


@pytest.mark.parametrize("grid", [64, 97])
def test_phase_classes_match_bytewise_reference(grid):
    # even and odd grids; both hold the singular diagonals i1 = i2 and
    # i1 + i2 = grid - 1 (phi1 = phi2 and phi1 + phi2 = 2 pi)
    pairs = [(p, q) for q in range(3, 14) for p in range(2, q) if math.gcd(p, q) == 1]
    for p, q in pairs:
        params = TorusParams(p, q)
        classes, n_classes = _phase_classes(_crossing_table(params), grid)
        expected = phase_classes_bytewise(params, grid)
        assert np.array_equal(classes, reranked(expected[0])), (p, q)
        assert n_classes == expected[1], (p, q)


@pytest.mark.parametrize("p, q, grid, rows", [(2, 3, 84, 6), (3, 5, 75, 5), (2, 5, 100, 10)])
def test_phase_classes_match_bytewise_on_singular_rows(p, q, grid, rows):
    # grids at which horizontal (type-I) lines pass through cell centres, so
    # whole rows of cells are singular
    params = TorusParams(p, q)
    pmap = phase_map_render(params, grid)
    classes, n_classes = phase_classes_bytewise(params, grid)
    assert np.array_equal(pmap.classes, reranked(classes))
    assert pmap.n_classes == n_classes
    assert int((classes < 0).all(axis=0).sum()) == rows


def test_phase_map_n_classes_counts_only_nonsingular_cells():
    pmap = phase_map_render(TorusParams(3, 7), 256)
    ids = np.unique(pmap.classes[pmap.classes >= 0])
    assert pmap.n_classes == 122
    assert np.array_equal(ids, np.arange(pmap.n_classes))  # no id skipped


@pytest.mark.parametrize("n, size, dtype", [
    (0, 1, np.int32), (0, 0, np.int32), (1, 1, np.int32), (500, 40, np.int32), (500, 500, np.int64),
    (40, 10**6, np.int32), (300, 2**40, np.int64),
])
def test_dense_ids_match_unique(n, size, dtype):
    # size <= n takes the presence table, size > n the sort; both must give
    # the ascending distinct codes and int32 positions among them
    codes = np.random.default_rng(n + size % 1000).integers(0, size, n).astype(dtype)
    if n:
        codes[n // 2] = size - 1
    distinct, positions = _dense_ids(codes, size)
    want, inverse = np.unique(codes, return_inverse=True)
    assert np.array_equal(distinct, want)
    assert np.all(np.diff(distinct) > 0)
    assert positions.dtype == np.int32
    assert np.array_equal(positions, inverse.ravel())


# sha256 of to_png_bytes() and to_svg(), default marks.  Class ids rank the
# non-singular cells' sign keys, whose signs are exact integer results, so no
# libm sine enters these bytes.  T(2,3)/64 is as the byte-at-a-time raster
# drew it; the others changed only by the renumbering of ids when singular
# cells' keys left the ranking
_PINNED_IMAGES = {
    (2, 3, 64): ("227baa74d65ea15e03f3f432788c4aa19474b2daf418be72150488e1c53f9d42",
                 "4d9110c8881f98ff0c44fde255895ff841a30e4c236d443c45e10afe9cf59ad0"),
    (3, 7, 256): ("fcba254d230dace5dd76c073fe19ac57404e47a24e8027defc869b7f3e28ab6f",
                  "2a772e58cad801fcf74a3d21a048ce934db1a640c098e79488b31df726bb74de"),
    (7, 13, 512): ("3ac1d5716327c99565bc68a563c7fefd7a6b5cbe05c6263b199f04e51c5ba5f9",
                   "671ef38c1ad18bc63a4a4e66175fb8eb668c9434fd83099892d5cf4131305e57"),
    (5, 9, 97): ("d84bbf2439beb79a1d8850119c4edebf3bcd0b058b634cb9b9546f5447466889",
                 "07d34037aa7938d4096f2d9e70d85f53000cbac90f70503202889cc3654f6bd4"),
}


@pytest.mark.parametrize("p, q, grid", list(_PINNED_IMAGES))
def test_phase_map_output_bytes_pinned(p, q, grid):
    pmap = phase_map_render(TorusParams(p, q), grid)
    png, svg = _PINNED_IMAGES[p, q, grid]
    assert hashlib.sha256(pmap.to_png_bytes()).hexdigest() == png
    assert hashlib.sha256(pmap.to_svg().encode()).hexdigest() == svg


def _raster_peak(params, grid):
    phase_map_render(params, 64)
    tracemalloc.start()
    try:
        phase_map_render(params, grid)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_phase_map_memory_is_grid_squared():
    # the dense raster held all n x grid^2 gaps: a 36 MB peak at T(3,7)/256
    peak = _raster_peak(TorusParams(3, 7), 256)
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_phase_map_memory_at_7_13_512():
    # 3.3 MB with numpy 2.4 (9.6 MB with float sign tables and the exact-gap
    # fallback); the byte-at-a-time raster peaked at 36.5 MB
    peak = _raster_peak(TorusParams(7, 13), 512)
    assert peak < 6 * 2**20, f"peak {peak / 2**20:.1f} MB"


# -- phase map PNG -------------------------------------------------------------------


def phase_map_png_loop(pmap, scale=2):
    """phase_map_png drawing each line one pixel at a time: the reference for its overlay.

    A line's pixels are those of phi2_at at 4 * side samples of phi1, so they
    depend only on its (slope, intercept); each distinct pair is drawn once.
    """
    grid = pmap.grid
    img = upscaled(phase_rgb(pmap), scale)
    side = grid * scale

    def px(phi):
        return min(int(phi / TWO_PI * side), side - 1)

    for line in {(line.slope, line.intercept): line for line in pmap.lines}.values():
        for i in range(4 * side):
            phi1 = TWO_PI * i / (4 * side)
            phi2 = line.phi2_at(phi1)
            img[side - 1 - px(phi2), px(phi1)] = (255, 255, 255)
    for point, _label in pmap.marks:
        ci, cj = px(point.phi1), px(point.phi2)
        r = max(2, scale)
        lo_y, hi_y = max(0, side - 1 - cj - r), min(side, side - 1 - cj + r + 1)
        lo_x, hi_x = max(0, ci - r), min(side, ci + r + 1)
        img[lo_y:hi_y, lo_x:hi_x] = (255, 230, 0)
    return rgb_png(img)


@pytest.mark.parametrize("p, q, grid", [(2, 3, 64), (3, 7, 256), (4, 5, 128), (7, 13, 128)])
def test_phase_map_png_matches_loop(p, q, grid):
    # n = 7 to 156, with horizontal lines and +-1 diagonals that wrap at phi2 = 0
    pmap = phase_map_render(TorusParams(p, q), grid)
    assert {line.slope for line in pmap.lines} == {-1, 0, 1}
    for marked in (pmap, pmap._replace(marks=())):
        for scale in (1, 2, 3):
            assert phase_map_png(marked, scale=scale) == phase_map_png_loop(marked, scale), scale


def _synthetic_map(grid, line_kind, seed):
    """A PhaseMap of seeded random classes (-1 and ids up to 60, so the palette wraps), lines and corner marks."""
    rng = np.random.default_rng(seed)
    classes = rng.integers(-1, 61, (grid, grid)).astype(np.int32)
    slopes = {"none": [], "horizontal": [0, 0, 0, 0], "diagonal": [1, -1, 1, -1]}[line_kind]
    intercepts = rng.uniform(0.0, TWO_PI, len(slopes))
    intercepts[:1] = 0.0
    pairs = enumerate(zip(slopes, intercepts.tolist()))
    lines = [SingularLine("I" if s == 0 else "II", 1, i, 0, s, c) for i, (s, c) in pairs]
    lines += lines[:1]  # a repeated (slope, intercept) is drawn once
    corners = [(0.0, 0.0), (0.0, TWO_PI - 1e-9), (TWO_PI - 1e-9, 0.0), (TWO_PI - 1e-9, TWO_PI - 1e-9)]
    marks = [(PhasePoint(a, b), "corner") for a, b in corners]  # mark squares clipped at every edge
    return PhaseMap(TorusParams(2, 3), grid, classes, 61, lines, marks)


@pytest.mark.parametrize("line_kind", ["none", "horizontal", "diagonal"])
@pytest.mark.parametrize("grid", [64, 97, 128])
def test_phase_map_png_matches_reference_on_synthetic_maps(grid, line_kind):
    # singular cells, palette wrap-around, odd grids, scales 1-4 and clipped
    # marks, against the RGB image, upscaled and copied into scanlines
    pmap = _synthetic_map(grid, line_kind, seed=grid)
    assert (pmap.classes < 0).any() and pmap.classes.max() >= 32
    for scale in (1, 2, 3, 4):
        assert phase_map_png(pmap, scale=scale) == phase_map_png_loop(pmap, scale), scale


def test_phase_map_output_bytes_pinned_with_duplicate_lines():
    # taken while every line was drawn (1424 lines, 185 distinct (slope,
    # intercept)), and renewed when only the class ids were renumbered
    pmap = phase_map_render(TorusParams(13, 29), 256)
    assert len({(line.slope, line.intercept) for line in pmap.lines}) == 185
    pngs = [hashlib.sha256(phase_map_png(pmap, scale=scale)).hexdigest() for scale in (1, 2)]
    assert pngs == [
        "c0186ed8fe5b3664d9758325b6c34945d7e1ecea9bfc58274c81949b77bedf11",
        "1efa629f56e75f355edb12e1b742b3ce0a3bc05043ce543f7a65b15367802ac9",
    ]
    svg = pmap.to_svg()
    assert svg.count('<line class="singular"') >= len(pmap.lines)
    assert hashlib.sha256(svg.encode()).hexdigest() == (
        "2d91d54d51d71bc29af43cb11abe67b344f6249a3925dcfef9b3b4c5257cbf25"
    )


def test_overlay_samples_fill_every_column():
    # phase_map_png draws a horizontal line as a whole pixel row because its
    # 4 * side samples of phi1 hit every column
    for side in list(range(64, 513)) + [1000, 1023, 1024, 1536, 2047, 2048, 2049 * 2, 2048 * 3]:
        phi1 = TWO_PI * np.arange(4 * side) / (4 * side)
        cols = np.minimum((phi1 / TWO_PI * side).astype(np.intp), side - 1)
        assert np.array_equal(np.unique(cols), np.arange(side)), side


def test_phase_map_png_memory_is_blocked():
    # drawing all 1424 lines of T(13,29) in one indexed write peaks near 90 MB
    pmap = phase_map_render(TorusParams(13, 29), 256)
    phase_map_png(pmap, scale=1)
    tracemalloc.start()
    try:
        phase_map_png(pmap, scale=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pmap.lines) == 1424
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_phase_map_png_memory_at_3_4_512():
    # an RGB image of the classes, upscaled in two copies and then copied into
    # the scanlines, peaked at 6.9 MB; written straight into them, 5.1 MB; with
    # the row copies and the line index arrays in small blocks, 4.0 MB
    pmap = phase_map_render(TorusParams(3, 4), 512)
    phase_map_png(pmap, scale=1)
    tracemalloc.start()
    try:
        phase_map_png(pmap, scale=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 2**20, f"peak {peak / 2**20:.1f} MB"
