import json
import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from fourierknot import (
    FourierKnot,
    FourierSeries,
    FourierTerm,
    InvalidGeometry,
    InvalidParams,
    SimplifyRequiresEvenP,
    StandardTorusGeometry,
    TorusParams,
    gen_standard_knot,
    gen_theorem_knot,
)
from fourierknot.series import TWO_PI, reduce_angle, reduce_angles, sine_split
from series_reference import array_derivative, array_value, scalar_derivative, scalar_value, series_of, standard_torus_point

COPRIME_PAIRS = [(p, q) for q in range(3, 14) for p in range(2, q) if math.gcd(p, q) == 1]


def test_eval_constant_cosine():
    s = series_of([(1.0, 3, 0.0)])
    assert s.eval(0.0) == 1.0


def test_eval_quarter_phase():
    s = series_of([(1.0, 3, math.pi / 2)])
    assert abs(s.eval(0.0)) < 1e-12


def test_eval_theorem_z_at_zero():
    # independent scalar evaluation of the two z terms for (3, 7)
    expected = math.cos(math.pi / 2) + math.cos(math.pi / 6 - math.pi / 28)
    knot = gen_theorem_knot(TorusParams(3, 7))
    assert knot.z.eval(0.0) == pytest.approx(expected, abs=1e-14)
    assert knot.z.eval(0.0) == pytest.approx(0.9166, abs=1e-3)


def test_derivative_at_zero():
    s = series_of([(1.0, 1, 0.0)])
    assert s.eval_derivative(0.0) == 0.0


def test_derivative_peak():
    p = 5
    s = series_of([(1.0, p, 0.0)])
    assert s.eval_derivative(math.pi / (2 * p)) == pytest.approx(-p, abs=1e-12)


def test_derivative_theorem_x():
    knot = gen_theorem_knot(TorusParams(2, 3))
    assert knot.x.eval_derivative(math.pi / 8) == pytest.approx(-2 * math.sin(math.pi / 4), abs=1e-12)


@pytest.mark.parametrize("pq", [(2, 3), (3, 7), (4, 9)])
def test_derivative_matches_finite_difference(pq):
    params = TorusParams(*pq)
    h = 1e-6
    rng = np.random.default_rng(3)
    for knot in (gen_theorem_knot(params), gen_standard_knot(params)):
        for series in (knot.x, knot.y, knot.z):
            for t in rng.uniform(0.0, TWO_PI, 25):
                fd = (series.eval(t + h) - series.eval(t - h)) / (2 * h)
                assert series.eval_derivative(t) == pytest.approx(fd, abs=1e-6)


def test_theorem_knot_terms_3_7():
    knot = gen_theorem_knot(TorusParams(3, 7))
    assert [(t.amplitude, t.frequency, t.phase) for t in knot.x.terms] == [(1.0, 3, 0.0)]
    assert [(t.amplitude, t.frequency, t.phase) for t in knot.y.terms] == [(1.0, 7, math.pi / 6)]
    assert [(t.amplitude, t.frequency) for t in knot.z.terms] == [(1.0, 3), (1.0, 4)]
    assert knot.z.terms[0].phase == pytest.approx(math.pi / 2)
    assert knot.z.terms[1].phase == pytest.approx(math.pi / 6 - math.pi / 28)
    assert knot.signature == (1, 1, 2)


def test_simplified_z_phase_even_p():
    knot = gen_theorem_knot(TorusParams(2, 3), simplified=True)
    assert knot.z.terms[0].phase == pytest.approx(math.pi / 2)
    assert knot.z.terms[1].phase == pytest.approx(math.pi / 4)


def test_simplified_rejects_odd_p():
    with pytest.raises(SimplifyRequiresEvenP):
        gen_theorem_knot(TorusParams(3, 5), simplified=True)


@pytest.mark.parametrize(
    "p, q",
    [(3, 3), (5, 3), (2, 4), (0, 3), (-2, 3), (1, 2)],
)
def test_invalid_params(p, q):
    with pytest.raises(InvalidParams):
        TorusParams(p, q)


def test_numpy_int_params_are_plain_ints():
    # the params key _crossing_table's cache, so numpy ints must hash like the ints they equal
    params = TorusParams(np.int64(2), np.int64(3))
    assert params == TorusParams(2, 3) and hash(params) == hash(TorusParams(2, 3))
    assert type(params.p) is int and type(params.q) is int
    assert TorusParams(np.int32(3), np.array(7)) == TorusParams(3, 7)


@pytest.mark.parametrize("p, q", [(True, 3), (2, np.True_), (2.0, 3), (2, "3"), (2, None)])
def test_non_integer_params_are_refused(p, q):
    with pytest.raises(InvalidParams, match="p and q must be positive integers"):
        TorusParams(p, q)


def test_standard_knot_terms_2_3():
    knot = gen_standard_knot(TorusParams(2, 3), StandardTorusGeometry(2.0, 1.0))
    assert [(t.amplitude, t.frequency, t.phase) for t in knot.x.terms] == [
        (2.0, 2, 0.0),
        (0.5, 5, 0.0),
        (0.5, 1, 0.0),
    ]
    assert knot.signature == (3, 3, 1)


def test_standard_knot_at_zero():
    knot = gen_standard_knot(TorusParams(2, 3), StandardTorusGeometry(2.0, 1.0))
    x, y, z = (axis.eval(0.0) for axis in (knot.x, knot.y, knot.z))
    assert x == pytest.approx(3.0, abs=1e-12)
    assert y == pytest.approx(0.0, abs=1e-12)
    assert z == pytest.approx(0.0, abs=1e-12)


def test_invalid_geometry():
    with pytest.raises(InvalidGeometry):
        StandardTorusGeometry(1.0, 1.0)
    with pytest.raises(InvalidGeometry):
        StandardTorusGeometry(2.0, -0.5)


@pytest.mark.parametrize("pq", [(2, 3), (3, 5), (4, 7)])
def test_standard_rewrite_matches_raw_form(pq):
    params = TorusParams(*pq)
    geom = StandardTorusGeometry(2.0, 1.0)
    knot = gen_standard_knot(params, geom)
    ts = np.random.default_rng(11).uniform(0.0, TWO_PI, 1000)
    rx, ry, rz = standard_torus_point(params, geom, ts)
    assert np.max(np.abs(knot.x.eval(ts) - rx)) < 1e-10
    assert np.max(np.abs(knot.y.eval(ts) - ry)) < 1e-10
    assert np.max(np.abs(knot.z.eval(ts) - rz)) < 1e-10


@pytest.mark.parametrize("pq", COPRIME_PAIRS)
def test_signatures_and_phase_ranges(pq):
    params = TorusParams(*pq)
    theorem = gen_theorem_knot(params)
    standard = gen_standard_knot(params)
    assert theorem.signature == (1, 1, 2)
    assert standard.signature == (3, 3, 1)
    for knot in (theorem, standard):
        for series in (knot.x, knot.y, knot.z):
            for term in series.terms:
                assert 0.0 <= term.phase < TWO_PI


def test_periodicity():
    knot = gen_theorem_knot(TorusParams(3, 7))
    for t in (0.1, 1.7, 4.0):
        for s in (knot.x, knot.y, knot.z):
            assert s.eval(t) == pytest.approx(s.eval(t + TWO_PI), abs=1e-12)


def test_json_round_trip_is_identical():
    knot = gen_theorem_knot(TorusParams(3, 7))
    text = knot.to_json()
    data = json.loads(text)
    again = FourierKnot(*(series_of(data[axis]) for axis in "xyz"))
    assert again == knot
    assert again.to_json() == text
    # document shape
    assert set(data) == {"x", "y", "z"}
    assert data["y"][0][2] == pytest.approx(0.5235987755982988)


def test_reduce_angle_range():
    for theta in (-10.0, -1e-18, 0.0, 1.0, TWO_PI, 17.5, -TWO_PI):
        r = reduce_angle(theta)
        assert 0.0 <= r < TWO_PI
        assert math.copysign(1.0, r) == 1.0  # never -0.0


def test_reduce_angles_is_bitwise_reduce_angle():
    # -5e-17 + 2*pi rounds to 2*pi itself, and -1e-300 leaves a tiny negative
    edges = [0.0, -0.0, -1e-300, -5e-17, 5e-17, 1e6, -1e6, math.pi, TWO_PI - 1e-15]
    edges += [k * TWO_PI for k in range(-3, 4)]
    edges += [k * TWO_PI + d for k in range(-3, 4) for d in (-1e-15, 1e-15)]
    values = np.array(edges)
    out = reduce_angles(values)
    assert out.dtype == np.float64 and out.shape == values.shape
    for theta, r in zip(edges, out.tolist()):
        expected = reduce_angle(theta)
        assert r == expected and math.copysign(1.0, r) == math.copysign(1.0, expected), theta
    assert np.array_equal(reduce_angles(values.reshape(-1, 1)).ravel(), out)


def test_term_validation():
    with pytest.raises(ValueError):
        FourierTerm(1.0, -2, 0.0)


@pytest.mark.parametrize("bad", [math.inf, None, 1j, math.nan, "x"], ids=["inf", "None", "complex", "nan", "str"])
def test_term_refuses_bad_frequency_by_name(bad):
    # int() used to raise OverflowError for inf, TypeError for None and 1j, and
    # a ValueError naming nothing for nan and "x"
    with pytest.raises(ValueError, match=r"frequency must be a non-negative integer, got "):
        FourierTerm(1.0, bad)


@pytest.mark.parametrize("good", [3, 3.0, np.float64(3.0), np.int64(3), np.uint8(3)])
def test_term_takes_integral_frequencies(good):
    term = FourierTerm(1.0, good)
    assert term.frequency == 3 and type(term.frequency) is int


@pytest.mark.parametrize("field", ["amplitude", "phase"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_term_rejects_non_finite(field, bad):
    kwargs = {"amplitude": 1.0, "frequency": 3, "phase": 0.0, field: bad}
    with pytest.raises(ValueError, match=field):
        FourierTerm(**kwargs)


@pytest.mark.parametrize("field", ["amplitude", "phase"])
@pytest.mark.parametrize("bad", ["1.5", "pi", b"1.5", None, 1j, np.complex128(1.0), np.complex64(1.0)],
                         ids=["str", "name", "bytes", "None", "complex", "numpy-complex", "numpy-complex64"])
def test_term_refuses_non_reals_by_name(field, bad):
    # "1.5" used to be taken, None to raise float()'s TypeError and "pi" numpy's message
    kwargs = {"amplitude": 1.0, "frequency": 3, "phase": 0.0, field: bad}
    with pytest.raises(ValueError, match=f"{field} must be a real number"):
        FourierTerm(**kwargs)


@pytest.mark.parametrize("bad", [(1.0, 3, 0.0), [1.0, 3], None, 3.0], ids=["tuple", "list", "None", "float"])
def test_series_refuses_a_term_that_is_no_fourier_term(bad):
    # a tuple used to be taken, and eval then failed on its missing .frequency
    with pytest.raises(ValueError, match=r"a series term must be a FourierTerm, got "):
        FourierSeries((FourierTerm(1.0, 2), bad))


def test_term_takes_what_float_takes_but_text_and_complex():
    # numpy bools, 0-d arrays and Decimals are not numbers.Real, and float() still reads them
    for amplitude, phase in ((np.float64(0.5), np.float32(1.5)), (Fraction(1, 2), np.int64(3)), (2, Fraction(7, 3)),
                             (np.True_, np.array(0.5)), (Decimal("0.25"), np.array(2))):
        term = FourierTerm(amplitude, 3, phase)
        assert (term.amplitude, term.phase) == (float(amplitude), reduce_angle(float(phase)))
        assert type(term.amplitude) is float and type(term.phase) is float


NOT_REAL_TIMES = [None, "0.1", b"1", 1 + 2j, np.complex128(1.0), np.array([0.1, None], dtype=object),
                  np.array([1 + 2j]), np.array(["0.1"])]


@pytest.mark.parametrize("bad", NOT_REAL_TIMES, ids=["None", "str", "bytes", "complex", "numpy-complex",
                                                     "object-None", "complex-array", "str-array"])
def test_eval_refuses_times_that_are_not_real(bad):
    # None used to give nan, "0.1" and b"1" were parsed, an object array's None read as nan,
    # and a complex array lost its imaginary part with only a ComplexWarning
    series = series_of([(1.0, 3, 0.2)])
    if np.ndim(bad):
        message, row = f"^t must be real, got an array of dtype {np.asarray(bad).dtype}$", bad
    else:
        message, row = "^" + re.escape(f"t must be real, got {bad!r}") + "$", [bad]
    for evaluate in (series.eval, series.eval_derivative):
        with pytest.raises(ValueError, match=message):
            evaluate(bad)
    with pytest.raises(ValueError, match="^t must be real, got an array of dtype "):
        series.eval_math(row)


def test_eval_takes_real_times_as_a_float_conversion_reads_them():
    # ints beyond int64, nan, bools, numpy scalars, Fractions and Decimals, and int, uint,
    # float, bool and real object arrays give the values of their float conversion, bitwise
    series = series_of([(1.0, 3, 0.2), (-0.5, 7, 1.0)])
    for t in (2**70, -(2**64) - 1, math.nan, True, np.uint64(2**64 - 1), np.float32(0.1), Fraction(1, 3),
              Decimal("0.25")):
        for evaluate in (series.eval, series.eval_derivative):
            assert evaluate(t).hex() == evaluate(float(t)).hex(), t
    for ts in ([1, 2.5], np.arange(5, dtype=np.uint8), np.array([True, False]), np.array([0.5, math.nan]),
               np.array([2**70, Fraction(1, 3), np.float32(0.1)], dtype=object)):
        floats = np.asarray(ts, dtype=float)
        for evaluate in (series.eval, series.eval_derivative):
            assert evaluate(ts).tobytes() == evaluate(floats).tobytes(), ts
        assert [v.hex() for v in series.eval_math(ts)] == [v.hex() for v in series.eval_math(floats)], ts


def random_series(seed: int, terms: int) -> FourierSeries:
    rng = np.random.default_rng(seed)
    amplitudes, phases = rng.uniform(-2, 2, terms).tolist(), rng.uniform(0, TWO_PI, terms).tolist()
    return series_of(zip(amplitudes, rng.integers(0, 30, terms).tolist(), phases))


SERIES_TIMES = np.concatenate((np.random.default_rng(7).uniform(-10, 10, 300), [0.0, -0.0, math.pi, TWO_PI]))


@pytest.mark.platform_pinned
@pytest.mark.parametrize("terms", [1, 2, 3, 5])
def test_math_order_matches_the_scalar_reference_bitwise(terms):
    # eval_math and eval on a scalar are the per-term math.cos / math.sin loop summed by sum()
    series = random_series(terms, terms)
    for ordered, scalar, reference in (
        (series.eval_math, series.eval, scalar_value),
        (lambda ts: series.eval_math(ts, True), series.eval_derivative, scalar_derivative),
    ):
        want = [reference(series, t).hex() for t in SERIES_TIMES.tolist()]
        assert [v.hex() for v in ordered(SERIES_TIMES)] == want
        assert [scalar(t).hex() for t in SERIES_TIMES.tolist()] == want


@pytest.mark.platform_pinned
@pytest.mark.parametrize("terms", [1, 2, 3, 5])
def test_numpy_order_matches_the_array_reference_bitwise(terms):
    series = random_series(terms, terms)
    grid = SERIES_TIMES.reshape(2, -1)
    for ordered, reference in ((series.eval, array_value), (series.eval_derivative, array_derivative)):
        assert ordered(SERIES_TIMES).tobytes() == reference(series, SERIES_TIMES).tobytes()
        assert ordered(grid).tobytes() == reference(series, grid).tobytes()


@pytest.mark.platform_pinned
def test_zero_dim_inputs_take_the_math_order():
    series = random_series(4, 3)
    for t in (5, np.int64(5), np.float32(0.25), np.array(1.5), np.float64(-2.0)):
        for scalar, reference in ((series.eval, scalar_value), (series.eval_derivative, scalar_derivative)):
            got = scalar(t)
            assert type(got) is float, (t, type(got))
            assert got.hex() == float(reference(series, float(t))).hex(), t


@pytest.mark.platform_pinned
def test_no_term_series_is_zero_in_both_orders():
    empty = FourierSeries(())
    for scalar in (empty.eval, empty.eval_derivative):
        assert type(scalar(1.0)) is float and scalar(1.0) == 0.0
    assert empty.eval_math(SERIES_TIMES) == empty.eval_math(SERIES_TIMES, True) == [0.0] * len(SERIES_TIMES)
    for ordered in (empty.eval, empty.eval_derivative):
        assert ordered(SERIES_TIMES).tolist() == [0.0] * len(SERIES_TIMES)
    assert sine_split((), SERIES_TIMES, 1.0).tolist() == [0.0] * len(SERIES_TIMES)
    assert empty.norm(0) == empty.norm(2) == 0.0


def test_norm_sums_amplitudes_times_frequency_powers():
    series = series_of([(-1.5, 3, 0.2), (0.5, 0, 1.0), (2.0, 4, 0.0)])
    assert [series.norm(m) for m in (0, 1, 2)] == [4.0, 12.5, 45.5]


def test_sine_split_phases_broadcast():
    # one row of times against a column of phases: each entry is the direct difference
    series = random_series(9, 2)
    t1, t2 = np.array([0.3, 1.1, 4.0]), np.array([2.0, 5.5, 0.7])
    phases = np.linspace(0.0, TWO_PI, 5)[:, None]
    split = sine_split([(tm.amplitude, tm.frequency, phases) for tm in series.terms], t1, t2)
    assert split.shape == (5, 3)
    for row, phi in zip(split, phases[:, 0].tolist()):
        shifted = series_of((tm.amplitude, tm.frequency, phi) for tm in series.terms)
        assert row == pytest.approx(shifted.eval(t1) - shifted.eval(t2), abs=1e-12)
