"""Cosine-series space curves and the two torus-knot generators.

A curve coordinate is a finite sum ``A*cos(n*t + phi)`` with integer
frequencies, so every curve here is exactly 2*pi periodic.  Knots come in two
parameterized families: a two-term-z form (one cosine on x and y, two on z;
built in phases.py from its z phases) and the classical winding form
rewritten as pure cosine series.

Only this module evaluates a cosine series, in two orders whose last bits
may differ between platforms.  The numpy order (eval and eval_derivative on an
array: np.cos or np.sin per term, accumulated into zeros) feeds decisions and
sampling; the math order (eval_math, with or without derivative: math.cos or
math.sin per term, summed by sum) feeds printed positions and Newton, and
eval on a 0-d t is a one-element call of it.  No terms give zeros in both.
A difference z(t1) - z(t2) is the product-of-sines split (sine_split, numpy
order), -2a sin(f s + phi) sin(f d) per term, s and d the half-sum and
half-difference of the times.  It is sine_sum of sine_factors: the factors
f s and sin(f d) depend on the times alone, so a caller that asks for many
phases at fixed times keeps them and runs only the sum, with the same bits.

Error bound (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
ch. 3), with N_m = norm(m) = sum |a_k| f_k**m over M terms, u = 2**-53 and
c*u the error of one library cos or sin (c = 2k within k ulps): an angle
fl(fl(f t) + phi), 0 <= phi < 2*pi, errs by at most u*(2 f |t| + 2*pi), which
cos and sin do not enlarge; each product adds one rounding (two for -a*f*sin),
and summing M terms from zero adds at most (M - 1)*u times the sum of their
sizes (Python 3.12's compensated sum does no worse).  To first order in u,
in both orders a value errs by at most E0 and a slope by at most E1, where
    E0 = u*(2|t| N_1 + (2*pi + c + M) N_0),  E1 = u*(2|t| N_2 + (2*pi + c + M + 1) N_1).
With c = 8 and |t| <= 2*pi, E0 is 4e-14 for cos(29 t); it scales with the amplitudes.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidGeometry, InvalidParams

TWO_PI = 2.0 * math.pi


def _int_at_least(value, low: int, name: str) -> int:
    """value as an int of at least low, read by operator.index (numpy ints pass); else ValueError naming it."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    return value


def _finite_float(value, name: str) -> float:
    """float(value), refused with a ValueError naming it for a str, bytes, None or complex, or if not finite.

    float() would read a str such as "1.5" or "inf", and would refuse None or
    a complex with a TypeError that names nothing; what float() takes
    otherwise (ints, Fractions, numpy's scalars) is still taken.
    """
    if type(value) is not float:
        if value is None or isinstance(value, (str, bytes)) or (
                isinstance(value, numbers.Complex) and not isinstance(value, numbers.Real)):
            raise ValueError(f"{name} must be a real number, got {value!r}")
        value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def reduce_angle(theta: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    r = math.fmod(theta, TWO_PI)
    if r < 0.0:
        r += TWO_PI
    # adding 2*pi to a tiny negative rounds back up to 2*pi itself
    if r >= TWO_PI:
        r = 0.0
    return r + 0.0  # clears negative zero


def reduce_angles(theta: np.ndarray) -> np.ndarray:
    """reduce_angle over an array: the same operations, so bitwise the same values."""
    r = np.fmod(theta, TWO_PI)
    r = np.where(r < 0.0, r + TWO_PI, r)
    r = np.where(r >= TWO_PI, 0.0, r)
    return r + 0.0


def _phi2_along(slopes: np.ndarray, intercepts: np.ndarray, phi1: np.ndarray) -> np.ndarray:
    """phases.SingularLine.phi2_at of the lines (slopes, intercepts) at every phi1, bitwise: (lines, len(phi1))."""
    return reduce_angles(slopes[:, None] * phi1 + intercepts[:, None])


# every printed float: 17 significant digits, round-trip exact for doubles and
# stable across runs; fmt_float and the crossing-set row templates use it
FLOAT_FORMAT = "%.17g"


def fmt_float(x: float) -> str:
    """x printed as FLOAT_FORMAT."""
    return FLOAT_FORMAT % float(x)


@dataclass(frozen=True)
class FourierTerm:
    """One cosine term ``amplitude * cos(frequency*t + phase)``.

    The frequency is a non-negative integer (0 encodes a constant term).
    The amplitude and phase are finite reals, stored as floats
    (_finite_float), the phase reduced to [0, 2*pi).
    """

    amplitude: float
    frequency: int
    phase: float = 0.0

    def __post_init__(self):
        try:
            n = int(self.frequency)
        except (TypeError, ValueError, OverflowError):  # None, complex, nan, inf, "x": refused below
            n = -1
        if n != self.frequency or n < 0:
            raise ValueError(f"frequency must be a non-negative integer, got {self.frequency!r}")
        object.__setattr__(self, "amplitude", _finite_float(self.amplitude, "amplitude"))
        object.__setattr__(self, "frequency", n)
        object.__setattr__(self, "phase", reduce_angle(_finite_float(self.phase, "phase")))


@dataclass(frozen=True)
class FourierSeries:
    """An ordered sum of cosine terms, evaluated as a function of the angle t."""

    terms: tuple[FourierTerm, ...]

    def __post_init__(self):
        terms = tuple(self.terms)
        for term in terms:
            if not isinstance(term, FourierTerm):
                raise ValueError(f"a series term must be a FourierTerm, got {term!r}")
        object.__setattr__(self, "terms", terms)

    def __len__(self) -> int:
        return len(self.terms)

    def eval(self, t):
        """Value at t: a float in the math order for a 0-d t, else an array in the numpy order."""
        return self._eval(t, derivative=False)

    def eval_derivative(self, t):
        """d/dt value at t: a float in the math order for a 0-d t, else an array in the numpy order."""
        return self._eval(t, derivative=True)

    def _waves(self, derivative: bool):
        """(frequency, phase, coefficient) per term: coefficient a of cos, or -a*f of sin for the derivative."""
        return [(tm.frequency, tm.phase, -tm.amplitude * tm.frequency if derivative else tm.amplitude)
                for tm in self.terms]

    def _eval(self, t, derivative: bool):
        if np.ndim(t) == 0:
            return self.eval_math([t], derivative)[0]
        t = np.asarray(t, dtype=float)
        wave = np.sin if derivative else np.cos
        out = np.zeros_like(t)
        for f, phase, c in self._waves(derivative):
            out += c * wave(f * t + phase)
        return out

    def eval_math(self, ts, derivative: bool = False) -> list[float]:
        """Values (or d/dt values) at each t of a 1-D array, in the math order."""
        ts = np.asarray(ts, dtype=float)
        wave = math.sin if derivative else math.cos
        waves = self._waves(derivative)
        if len(waves) == 1:  # sum((v,)) is 0 + v, which turns -0.0 into 0.0
            ((f, phase, c),) = waves
            return [0 + c * wave(u) for u in (f * ts + phase).tolist()]
        columns = [[c * wave(u) for u in (f * ts + phase).tolist()] for f, phase, c in waves]
        return list(map(sum, zip(*columns))) if columns else [0.0] * len(ts)

    def norm(self, m: int = 0) -> float:
        """sum |a_k| f_k**m: bounds the m-th derivative, and enters the error bound (module docstring)."""
        return sum((abs(tm.amplitude) * tm.frequency ** m for tm in self.terms), 0.0)

    def max_frequency(self) -> int:
        return max((tm.frequency for tm in self.terms), default=0)


class FourierKnot(NamedTuple):
    """A closed space curve with one cosine series per coordinate; a tuple of the three."""

    x: FourierSeries
    y: FourierSeries
    z: FourierSeries

    @property
    def signature(self) -> tuple[int, int, int]:
        """Per-axis term counts (x, y, z)."""
        return (len(self.x), len(self.y), len(self.z))

    def max_frequency(self) -> int:
        return max(s.max_frequency() for s in (self.x, self.y, self.z))

    def term_count(self) -> int:
        return len(self.x) + len(self.y) + len(self.z)

    def to_json(self) -> str:
        """Serialize as {"x":[[A,n,phi],...],"y":[...],"z":[...]}, radians."""

        def ser(series: FourierSeries) -> str:
            return "[" + ",".join(
                f"[{fmt_float(tm.amplitude)},{tm.frequency},{fmt_float(tm.phase)}]"
                for tm in series.terms
            ) + "]"

        return f'{{"x":{ser(self.x)},"y":{ser(self.y)},"z":{ser(self.z)}}}'


@dataclass(frozen=True)
class TorusParams:
    """Coprime winding numbers with 2 <= p < q.

    p and q may be any integers operator.index takes (numpy ints too, not
    bools) and are stored as Python ints, so equal pairs hash alike.  p = 1
    is rejected deliberately: it gives an unknotted curve whose crossing
    families are empty and would degenerate everything downstream.
    """

    p: int
    q: int

    def __post_init__(self):
        try:
            if isinstance(self.p, bool) or isinstance(self.q, bool):
                raise TypeError
            p, q = operator.index(self.p), operator.index(self.q)
        except TypeError:
            p = q = 0  # refused below, like a non-positive value
        if p <= 0 or q <= 0:
            raise InvalidParams(f"p and q must be positive integers, got ({self.p!r}, {self.q!r})")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        if p >= q:
            raise InvalidParams(f"p < q required, got ({p}, {q})")
        if math.gcd(p, q) != 1:
            raise InvalidParams(f"p and q must be coprime, got ({p}, {q})")
        if p < 2:
            raise InvalidParams(f"p >= 2 required (p = 1 is the unknot), got ({p}, {q})")


@dataclass(frozen=True)
class StandardTorusGeometry:
    """Radii of the round torus: tube radius r around a circle of radius R."""

    R: float = 2.0
    r: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.r < self.R):
            raise InvalidGeometry(f"0 < r < R required, got (R={self.R}, r={self.r})")


def _folded(amplitude: float, frequency: int, phase: float) -> FourierTerm:
    # cos(-n t + phi) = cos(n t - phi): negative frequencies fold to positive
    if frequency < 0:
        return FourierTerm(amplitude, -frequency, -phase)
    return FourierTerm(amplitude, frequency, phase)


def gen_standard_knot(
    params: TorusParams, geom: StandardTorusGeometry | None = None
) -> FourierKnot:
    """The winding parameterization rewritten as cosine series, signature (3,3,1)."""
    if geom is None:
        geom = StandardTorusGeometry()
    p, q = params.p, params.q
    R, r = geom.R, geom.r
    half = math.pi / 2
    x = FourierSeries((
        _folded(R, p, 0.0),
        _folded(r / 2, p + q, 0.0),
        _folded(r / 2, p - q, 0.0),
    ))
    y = FourierSeries((
        _folded(R, p, -half),
        _folded(r / 2, p + q, -half),
        _folded(r / 2, p - q, -half),
    ))
    z = FourierSeries((_folded(r, q, -half),))
    return FourierKnot(x, y, z)


def theorem_xy(params: TorusParams) -> tuple[FourierSeries, FourierSeries]:
    """The theorem's x = cos(p t) and y = cos(q t + pi/(2p)); the closed-form crossings are theirs."""
    p, q = params.p, params.q
    return FourierSeries((FourierTerm(1.0, p, 0.0),)), FourierSeries((FourierTerm(1.0, q, math.pi / (2 * p)),))


def sine_factors(frequencies, t1, t2) -> tuple[tuple[int, ...], list]:
    """The half of sine_split that no phase enters: the times' shape, and (f*s, sin(f*d)) per frequency f.

    s and d are the half-sum and half-difference of the times t1 and t2
    (floats or arrays that broadcast), so each factor has their shape.
    """
    s, d = 0.5 * (t1 + t2), 0.5 * (t1 - t2)
    return np.shape(s), [(f * s, np.sin(f * d)) for f in frequencies]


def sine_sum(waves, shape):
    """The phase half of sine_split: -2a sin(f*s + phi) sin(f*d) over (a, phi, f*s, sin(f*d)) waves.

    The waves are accumulated into zeros of the factors' shape, in order.
    """
    total = np.zeros(shape)
    for a, phi, fs, sin_fd in waves:
        total = total + -2.0 * a * np.sin(fs + phi) * sin_fd
    return total


def sine_split(terms, t1, t2):
    """sum a*(cos(f t1 + phi) - cos(f t2 + phi)) over (a, f, phi) terms: -2a sin(f s + phi) sin(f d) each.

    s and d are the half-sum and half-difference of the times (floats or
    arrays); the terms are accumulated into zeros in numpy, and times and
    phases broadcast.  It is sine_sum of sine_factors: a caller that asks for
    many phases at fixed times can keep the factors and pay only the sum.
    """
    terms = tuple(terms)
    shape, factors = sine_factors([f for _, f, _ in terms], t1, t2)
    return sine_sum([(a, phi, *factor) for (a, _, phi), factor in zip(terms, factors)], shape)
