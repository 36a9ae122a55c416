import hashlib
import itertools
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fourierknot import (
    LaurentPolynomial,
    TorusParams,
    alexander_from_diagram,
    analytic_crossing_set,
    build_pd_code,
    det_poly_matrix,
    diagram,
    gen_theorem_knot,
    identify,
    laurent,
    torus_alexander_oracle,
)
from laurent_reference import exact_div, trim

L = LaurentPolynomial


def det_reference(m):
    """Permutation-expansion determinant; the independent oracle."""
    n = len(m)
    total = L.zero()
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = L.one() * (-1 if inversions % 2 else 1)
        for i in range(n):
            term = term * m[i][perm[i]]
        total = total + term
    return total


def _sub(a, b):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, v in enumerate(b):
        out[i] -= v
    return trim(out)


def _mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return trim(out)


def det_bareiss_reference(m):
    """Fraction-free Bareiss on coefficient lists; every division is exact in Z[t]."""
    n = len(m)
    if n == 0:
        return [1]
    m = [[list(e) for e in row] for row in m]
    sign = 1
    prev = [1]
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return []
        piv = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            for j in range(k + 1, n):
                m[i][j] = exact_div(_sub(_mul(m[i][j], piv), _mul(mik, m[k][j])), prev)
        prev = piv
    det = m[n - 1][n - 1]
    return [-v for v in det] if sign < 0 else det


def test_basic_arithmetic():
    a = L({0: 1, 1: -1, 2: 1})
    b = L({0: 2, 1: 3})
    assert a + b == L({0: 3, 1: 2, 2: 1})
    assert a - a == L.zero()
    assert (a * b).pairs() == ((0, 2), (1, 1), (2, -1), (3, 3))
    assert a * 0 == L.zero()
    assert -a == L({0: -1, 1: 1, 2: -1})


def test_zero_coefficients_dropped():
    assert L({3: 0, 1: 2}).pairs() == ((1, 2),)
    assert (L({0: 1}) - L({0: 1})).is_zero
    # pairs whose repeated exponent cancels leave no term
    assert L([(1, 2), (0, 1), (1, -2)]).pairs() == ((0, 1),)
    assert L([(3, 4), (3, -4)]).is_zero


def test_degree_valuation_shift():
    a = L({-2: 5, 4: 1})
    assert a.valuation() == -2
    assert a.degree() == 4
    with pytest.raises(ValueError):
        L.zero().degree()
    with pytest.raises(ValueError, match="zero polynomial has no valuation"):
        L.zero().valuation()


def test_normalized_form():
    a = L({-3: -2, -1: 4})
    n = a.normalized()
    assert n.valuation() == 0
    assert n.coeff(0) > 0
    assert n == L({0: 2, 2: -4})


def test_str_rendering():
    assert str(L({0: 1, 1: -1, 2: 1})) == "t^2 - t + 1"
    assert str(L.zero()) == "0"
    assert str(L({-1: 2})) == "2*t^-1"


def test_exact_division():
    num = [-1, 0, 0, 0, 0, 0, 1]  # t^6 - 1
    den = [-1, 0, 1]  # t^2 - 1
    assert exact_div(num, den) == [1, 0, 1, 0, 1]
    with pytest.raises(ArithmeticError):
        exact_div([1, 1], [0, 2])
    assert exact_div([0, 4, 0, 6], [0, 2]) == [2, 0, 3]


@pytest.mark.parametrize("coeffs", [{0: 1.5}, {0.7: 3}, {"1": "2"}], ids=["float", "float exp", "str"])
def test_non_integer_terms_are_refused(coeffs):
    with pytest.raises(TypeError):
        L(coeffs)


@pytest.mark.parametrize("combine", [operator.add, operator.sub, operator.mul], ids=["add", "sub", "mul"])
def test_combining_with_a_float_is_refused(combine):
    with pytest.raises(TypeError, match="cannot combine LaurentPolynomial with <class 'float'>"):
        combine(L.one(), 1.5)


def test_integer_like_terms_are_kept():
    assert L({np.int64(2): np.int32(-3), True: True}) == L({2: -3, 1: 1})
    assert all(type(x) is int for pair in L({np.int64(2): np.int64(5)}).pairs() for x in pair)


def test_hash_and_equality():
    assert L({0: 1}) == 1
    assert hash(L({2: 3})) == hash(L({2: 3}))
    assert L({2: 3}) != L({2: 4})
    # a constant equals its int, so it must hash as that int
    for c in (0, 1, 3, -2, 2**70):
        assert L({0: c}) == c and hash(L({0: c})) == hash(c)
    assert L() == 0 and hash(L()) == hash(0)
    assert len({L({0: 3}), 3}) == 1 and 3 in {L({0: 3})} and L() in {0}
    assert len({L({1: 3}), L({0: 3}), L({0: 3, 1: 3})}) == 3


def test_det_engines_against_reference():
    rng = random.Random(1234)

    def entry():
        r = rng.random()
        if r < 0.25:
            return L.zero()
        if r < 0.5:
            return L.monomial(rng.randint(-2, 2), rng.choice([1, -1]))
        return L({d: rng.randint(-3, 3) for d in range(rng.randint(1, 3))})

    for _ in range(40):
        n = rng.randint(1, 5)
        m = [[entry() for _ in range(n)] for _ in range(n)]
        assert det_poly_matrix(m) == det_reference(m)


def test_det_empty_matrix():
    assert det_poly_matrix([]) == L.one()


def test_det_singular_matrix():
    row = [L({0: 1, 1: 1}), L({0: 2})]
    assert det_poly_matrix([row, row]).is_zero


def test_det_engines_agree_on_larger_random():
    rng = random.Random(77)
    for _ in range(5):
        n = 12
        m = [
            [L({d: rng.randint(-2, 2) for d in range(2)}) for _ in range(n)]
            for _ in range(n)
        ]
        assert det_poly_matrix(m) == det_by_list_bareiss(m)


def test_det_rejects_malformed_rows():
    one = L.one()
    with pytest.raises(ValueError, match="square"):
        det_poly_matrix([[one, one], [one]])
    with pytest.raises(ValueError, match="out of range"):
        det_poly_matrix([{0: one}, {2: one}])


@pytest.mark.parametrize(
    "rows,error,message",
    [
        ([[1]], TypeError, r"row 0, column 0: entry 1 is not a LaurentPolynomial"),
        ([[L.one(), L.one()], [L.one(), 2]], TypeError, r"row 1, column 1: entry 2 is not"),
        ([{0: L.one()}, {1: {0: 1}}], TypeError, r"row 1, column 1: entry \{0: 1\} is not"),
        ([{0.0: L.one()}], TypeError, r"row 0: column 0\.0 is not an integer"),
        ([{0: L.one()}, {"1": L.one()}], TypeError, r"row 1: column '1' is not an integer"),
        ([5], TypeError, r"row 0 is neither a list of entries nor a \{column: entry\} dict: 5"),
        ([[L.one(), L.one()], None], TypeError, r"row 1 is neither"),
        ([{-1: L.one()}], ValueError, r"column index out of range"),
    ],
    ids=["int entry", "late int entry", "map entry", "float column", "str column", "int row", "None row", "negative column"],
)
def test_det_names_the_malformed_row(rows, error, message):
    with pytest.raises(error, match=message):
        det_poly_matrix(rows)


def test_det_takes_numpy_integer_columns():
    t = L.monomial(1)
    assert det_poly_matrix([{np.int64(1): t}, {np.int32(0): L.one()}]) == -t


# ---------------------------------------------------------------------------
# The remainder engine (Bareiss over Z at t = 2**k, complete pivoting on the
# shortest entry) against the list Bareiss, which pivots on the diagonal.


def as_map(e):
    """A LaurentPolynomial or coefficient list as the {exponent: coefficient}
    map that the sparse reduction and the remainder engine take."""
    pairs = e.pairs() if isinstance(e, L) else enumerate(e)
    return {d: c for d, c in pairs if c}


def term_rows(m):
    """Rows of {exponent: coefficient} maps as the engine's rows of (column, exponent, coefficient) terms."""
    return [[(c, d, x) for c, e in enumerate(row) for d, x in e.items()] for row in m]


@st.composite
def coefficient_matrices(draw):
    """Square matrices of trimmed coefficient lists, the format det_bareiss_reference
    takes; the engine gets the same matrices as maps through as_map."""
    n = draw(st.integers(0, 7))
    big = draw(st.sampled_from([3, (1 << 63) - 1, 10**30]))
    coeff = st.one_of(st.integers(-3, 3), st.integers(-big, big))

    def entry():
        if draw(st.integers(0, 3)) == 0:
            return []
        return trim(draw(st.lists(coeff, min_size=1, max_size=4)))

    m = [[entry() for _ in range(n)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        m[draw(st.integers(1, n - 1))] = list(m[0])  # a repeated row: singular
    return m


@settings(max_examples=100, deadline=None)
@example(m=[])
@example(m=[[[3, -1]]])
@example(m=[[[]]])
@example(m=[[[], [1]], [[1], [2, 1]]])  # zero pivot: rows swap, det -1
@example(m=[[[1, 1], [2]], [[1, 1], [2]]])  # singular
@example(m=[[[-(10**30), 7], [5]], [[-1], [0, 0, 10**30]]])
@example(m=[[[1, 2], [3]], [[1], [-1, 1, -4]]])  # det -4 - t - 2t^2 - 8t^3
@example(m=[[[(1 << 31) - 1], [1]], [[1], [1]]])
@example(m=[[[(1 << 31) - 1], [1]], [[(1 << 31) - 1], [2]]])
@example(m=[[[-(1 << 63) + 1, 5], [1 << 62]], [[3], [(1 << 63) - 1]]])
# the shortest entry off the diagonal: a row swap, a column swap, and both
@example(m=[[[9], [7], [5]], [[1], [8], [6]], [[4], [3], [9]]])
@example(m=[[[9], [1], [5]], [[7], [8], [6]], [[4], [3], [9]]])
@example(m=[[[9], [7], [5]], [[6], [8], [1]], [[4], [3], [9]]])
@example(m=[[[], []], [[], []]])  # the whole block is zero at the first step
# after the first step the remaining 2 x 2 block is all zero
@example(m=[[[1], [2], [3]], [[2], [4], [6]], [[3], [6], [9]]])
@example(m=[[[0, 0, 5]]])
@given(m=coefficient_matrices())
def test_remainder_engine_matches_list_bareiss(m):
    det = det_bareiss_reference(m)
    maps = [[as_map(e) for e in row] for row in m]
    assert laurent._det_bareiss_lists(term_rows(maps)) == (0, det)


def det_by_fractions(a):
    """Gaussian elimination over the rationals with a nonzero pivot per column: the core's reference."""
    m = [[Fraction(x) for x in row] for row in a]
    n, det = len(m), Fraction(1)
    for i in range(n):
        pr = next((r for r in range(i, n) if m[r][i]), None)
        if pr is None:
            return 0
        if pr != i:
            m[i], m[pr] = m[pr], m[i]
            det = -det
        det *= m[i][i]
        for r in range(i + 1, n):
            f = m[r][i] / m[i][i]
            m[r] = [x - f * y for x, y in zip(m[r], m[i])]
    return int(det)


@st.composite
def int_matrices(draw):
    """Square matrices of Python ints, small or past 64 bits, some with a repeated row (singular)."""
    n = draw(st.integers(0, 6))
    big = draw(st.sampled_from([3, (1 << 63) - 1, 10**30]))
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-big, big))
    a = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        a[draw(st.integers(1, n - 1))] = list(a[0])
    return a


@settings(max_examples=200, deadline=None)
@example(a=[])
@example(a=[[7]])
@example(a=[[0]])
@example(a=[[0, 1], [1, 0]])  # zero pivot: a swap, det -1
@example(a=[[1, 2], [2, 4]])  # singular
@example(a=[[1, 2, 3], [2, 4, 6], [3, 6, 9]])  # the block left after one step is zero
@example(a=[[9, 7, 5], [6, 8, 1], [4, 3, 9]])  # the shortest entry off the diagonal
@given(a=int_matrices())
def test_bareiss_core_matches_fraction_elimination(a):
    assert laurent._bareiss([row[:] for row in a]) == det_by_fractions(a)


def shifted_rows(m):
    """The reference shift: each row of maps moved by t**-v, v its least exponent
    (or 0 when none is negative), before the engine sees it; returns (sum of v, rows)."""
    shift, rows = 0, []
    for row in m:
        v = min([min(e) for e in row if e] + [0])
        shift += v
        rows.append([{d - v: c for d, c in e.items()} for e in row])
    return shift, rows


@st.composite
def remainder_rows(draw):
    """coefficient_matrices as maps, each entry moved by its own power t**o, -4 <= o <= 2."""
    def moved(e):
        o = draw(st.integers(-4, 2))
        return {d + o: c for d, c in as_map(e).items()}

    return [[moved(e) for e in row] for row in draw(coefficient_matrices())]


@settings(max_examples=100, deadline=None)
@example(m=[[{-2: 1}]])
@example(m=[[{-1: 3, 0: -1}, {}], [{}, {1: 2}]])  # one row shifted, one not: shift -1
@example(m=[[{-3: 1}, {-1: 2}], [{-3: 1}, {-1: 2}]])  # singular: shift -6, no digits
@example(m=[[{}, {}], [{-1: 1}, {-2: 1}]])  # a zero row keeps v = 0
@example(m=[[{}]])  # a row with no terms: v = 0, no digits
# sweep-shaped: every term of every row at a negative exponent, each row moved by its least
@example(m=[[{-3: -1, -2: 1}, {-1: -1}], [{-2: 1}, {-3: 1, -1: -1}]])
@given(m=remainder_rows())
def test_engine_shifts_each_row_as_it_evaluates(m):
    shift, rows = shifted_rows(m)
    low, det = laurent._det_bareiss_lists(term_rows(rows))
    assert low == 0  # rows with no negative exponent are not moved
    assert laurent._det_bareiss_lists(term_rows(m)) == (shift, det)


# ---------------------------------------------------------------------------
# Sparse unit reduction: the determinant factors exactly through it, and it
# stops only when no unit entry of cost at most _FILL_LIMIT is left.


def sparse_rows(dense):
    return [{c: e for c, e in enumerate(row) if e} for row in dense]


def det_by_list_bareiss(dense):
    """Determinant by det_bareiss_reference, each row first shifted to non-negative exponents."""
    shift = 0
    lists = []
    for row in dense:
        v = min([e.valuation() for e in row if e] + [0])
        shift -= v
        lists.append([[e.coeff(d) for d in range(v, e.degree() + 1)] if e else [] for e in row])
    return L(enumerate(det_bareiss_reference(lists), -shift))


def cheap_units(dense):
    """Unit entries whose Markowitz cost (row count - 1) * (column count - 1) is at most _FILL_LIMIT."""
    rows = [sum(1 for e in row if e) for row in dense]
    cols = [sum(1 for row in dense if row[c]) for c in range(len(dense))]
    return [
        (r, c)
        for r, row in enumerate(dense)
        for c, e in enumerate(row)
        if len(e.pairs()) == 1
        and e.pairs()[0][1] in (1, -1)
        and (rows[r] - 1) * (cols[c] - 1) <= laurent._FILL_LIMIT
    ]


def map_rows(dense):
    """dense's nonzero entries as the sparse rows of maps that _sparse_unit_reduce takes."""
    return [{c: as_map(e) for c, e in row.items()} for row in sparse_rows(dense)]


def reduce_dense(dense):
    """_sparse_unit_reduce on dense's nonzero entries."""
    return laurent._sparse_unit_reduce(map_rows(dense))


def reduction_record(result):
    """A reduction's result as plain data: the sign with the unit's +-1 folded in,
    the unit's exponent, and every remainder entry's sorted (exponent, coefficient) pairs."""
    sign, shift, rem = result
    return sign, shift, [[tuple(sorted(e.items())) for e in row] for row in rem]


def assert_reduction_stops(dense):
    """Reduce dense's sparse rows; unless a row vanished, no cheap unit pivot is left.

    Returns (sign, shift, remainder), det = sign * t**shift * det(remainder),
    with the remainder's entries as LaurentPolynomials.
    """
    sign, shift, rem = reduce_dense(dense)
    rem = [[L(e) for e in row] for row in rem]
    if sign == 0:
        assert (shift, rem) == (0, [])
    else:
        assert sign in (1, -1) and isinstance(shift, int)
        assert cheap_units(rem) == []
    return sign, shift, rem


def alexander_minor(p, q, monkeypatch):
    """The Wirtinger minor that alexander_from_diagram hands to det_poly_matrix."""
    params = TorusParams(p, q)
    captured = []

    def capture(rows):
        captured.append(rows)
        return det_poly_matrix(rows)

    monkeypatch.setattr(diagram, "det_poly_matrix", capture)
    alexander_from_diagram(build_pd_code(analytic_crossing_set(gen_theorem_knot(params), params)))
    (minor,) = captured
    n = len(minor)
    return [[row.get(c, L.zero()) for c in range(n)] for row in minor]


_MINOR_PAIRS = [
    (p, q) for q in range(3, 14) for p in range(2, q) if math.gcd(p, q) == 1
] + [(6, 25), (9, 19)]


# a minor of T(p, q) leaves p - 1 remainder rows, except these
_MINOR_REMAINDER_ROWS = {(3, 11): 3, (3, 13): 3, (5, 13): 5, (6, 25): 6, (9, 19): 11}


# The test keeps the id it had when it compared a heap-driven reduction with a scan.
@pytest.mark.parametrize("p,q", _MINOR_PAIRS)
def test_heap_reduction_matches_scan_on_alexander_minors(p, q, monkeypatch):
    sign, shift, rem = assert_reduction_stops(alexander_minor(p, q, monkeypatch))
    assert sign in (1, -1)
    det = det_by_list_bareiss(rem) * L.monomial(shift)
    assert (det if sign > 0 else -det).normalized() == torus_alexander_oracle(TorusParams(p, q))
    assert len(rem) == _MINOR_REMAINDER_ROWS.get((p, q), p - 1)


# sha256 of the reduction records of every _MINOR_PAIRS minor: pins the
# pivots, their order and every remainder entry, not only the determinant
_REDUCTION_DIGEST = "bbbbb73de4ab6cbaf348aff993b342123580918a53a894ac67caa4a0e72927ab"


def test_reduction_pivots_pinned(monkeypatch):
    records = [reduction_record(reduce_dense(alexander_minor(p, q, monkeypatch))) for p, q in _MINOR_PAIRS]
    assert hashlib.sha256(repr(records).encode()).hexdigest() == _REDUCTION_DIGEST


@pytest.mark.parametrize("p,q", _MINOR_PAIRS)
def test_remainder_engines_agree_on_alexander_minors(p, q, monkeypatch):
    minor = alexander_minor(p, q, monkeypatch)
    remainders, engine_rows = [], []
    reduce, engine = laurent._sparse_unit_reduce, laurent._det_bareiss_lists

    def reduce_spy(rows):
        out = reduce(rows)
        remainders.append(out[2])
        return out

    monkeypatch.setattr(laurent, "_sparse_unit_reduce", reduce_spy)
    monkeypatch.setattr(laurent, "_det_bareiss_lists", lambda m: engine_rows.append(m) or engine(m))
    det_poly_matrix(minor)
    (m,) = remainders  # every one of these minors leaves a remainder, of 1 to 11 rows
    assert engine_rows == [term_rows(m)]  # the remainder's maps reach the engine flattened
    shift, det = engine(term_rows(m))
    assert L(enumerate(det, shift)) == det_by_list_bareiss([[L(e) for e in row] for row in m])


def test_identify_t11_24_matches_closed_form():
    params = TorusParams(11, 24)
    knot = gen_theorem_knot(params)
    summary = identify(knot, analytic_crossing_set(knot, params), params)
    assert summary.alexander == torus_alexander_oracle(params)


@st.composite
def sparse_laurent_matrices(draw):
    n = draw(st.integers(1, 12))

    def entry():
        kind = draw(st.integers(0, 9))
        if kind < 5:
            return L.zero()
        if kind < 8:
            return L.monomial(draw(st.integers(-3, 3)), draw(st.sampled_from([1, -1])))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3))
        return L(enumerate(coeffs, draw(st.integers(-2, 2))))

    return [[entry() for _ in range(n)] for _ in range(n)]


def _dense_block_after_free_pivots(block=10):
    """Two cost-0 pivots, then a block x block of units of cost (block - 1)**2: 81 > _FILL_LIMIT at 10."""
    one, t = L.one(), L.monomial(1)
    n = block + 2
    m = [[L.zero()] * n for _ in range(n)]
    m[0][0], m[0][1], m[1][1] = one, t, -t
    for i in range(2, n):
        for j in range(2, n):
            m[i][j] = L.monomial(i * j % 5, 1 if (i + j) % 3 else -1)
    m[1][5] = L({0: 1, 1: 1})
    return m


def matrix_from_text(rows):
    """Dense matrix from rows of 'col:entry' tokens; entry an integer, t, -t or u = 1 + t."""
    named = {"t": L.monomial(1), "-t": L.monomial(1, -1), "u": L({0: 1, 1: 1})}
    m = [[L.zero()] * len(rows) for _ in rows]
    for r, text in enumerate(rows):
        for tok in text.split():
            c, v = tok.split(":")
            m[r][int(c)] = named[v] if v in named else L({0: int(v)})
    return m


_ROW_VANISHES = ["0:1 1:t", "0:-1 1:-t", "1:1 2:1"]  # row 1 is -row 0

# Unit entry (5, 6) cancels and is filled again behind (5, 3) at the same cost:
# the refilled entry goes to the end of its row's order.
_REFILLED_BEHIND = [
    "1:2 7:1", "3:u 4:u", "3:u 4:-1 5:u 6:-1", "0:1 1:1 3:-1 6:t",
    "0:2", "0:1 4:-1 5:-1 6:-1 7:1", "1:2 3:2 5:u 6:-1", "0:1 4:1 5:t 7:t",
]


@settings(max_examples=100, deadline=None)
@example(m=matrix_from_text(_ROW_VANISHES))
@example(m=_dense_block_after_free_pivots())
@example(m=_dense_block_after_free_pivots(block=9))  # its units cost exactly _FILL_LIMIT
@example(m=matrix_from_text(_REFILLED_BEHIND))
@given(m=sparse_laurent_matrices())
def test_heap_reduction_matches_scan_on_random_matrices(m):
    assert_reduction_stops(m)
    det = det_poly_matrix(m)
    assert det_poly_matrix(sparse_rows(m)) == det
    assert det == det_by_list_bareiss(m)


def test_reduction_examples_reach_their_stopping_rules():
    sign, _, rem = reduce_dense(matrix_from_text(_ROW_VANISHES))
    assert (sign, rem) == (0, [])
    sign, _, rem = reduce_dense(_dense_block_after_free_pivots())
    assert sign != 0 and len(rem) == 10


@pytest.mark.parametrize("case", ["T(7,13)", "T(9,19)", "vanishes", "dense block", "refilled"])
def test_reduction_leaves_its_input_unchanged(case, monkeypatch):
    if case.startswith("T("):
        dense = alexander_minor(*map(int, case[2:-1].split(",")), monkeypatch)
    else:
        dense = {
            "vanishes": matrix_from_text(_ROW_VANISHES),
            "dense block": _dense_block_after_free_pivots(),
            "refilled": matrix_from_text(_REFILLED_BEHIND),
        }[case]
    rows = map_rows(dense)
    before = [{c: dict(e) for c, e in row.items()} for row in rows]
    first = laurent._sparse_unit_reduce(rows)
    assert rows == before
    assert laurent._sparse_unit_reduce(rows) == first


@pytest.mark.parametrize("top", [1 << 62, 1 << 64])
def test_det_with_huge_coefficients_above_the_crossover(top):
    """A 20-row cycle, its constants at 2**62 or 2**64."""
    n = 20
    m = [{i: L({0: top + i}), (i + 1) % n: L({1: 2})} for i in range(n)]
    # det = prod(diagonal) + sign(n-cycle) * (2t)**n, sign = (-1)**(n - 1)
    expected = L({0: math.prod(top + i for i in range(n)), n: (-1) ** (n - 1) * 2**n})
    assert det_poly_matrix(m) == expected
