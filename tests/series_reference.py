"""Test-side references for the two series evaluation orders, written out per term.

math order: each term from math.cos or math.sin at one scalar t, summed by
Python's sum (the scalar loop FourierSeries.eval ran before both orders
moved into one module).  numpy order: each term's np.cos or np.sin over an
array, accumulated into zeros.  Tests compare the package with these
bitwise, so neither side checks itself.  standard_torus_point is the
winding parameterization in its raw product form, independent of
gen_standard_knot's cosine-series rewrite, which the tests check against it.
series_of builds a series from plain (amplitude, frequency, phase) triples.
"""

import math

import numpy as np

from fourierknot import FourierSeries, FourierTerm


def series_of(triples):
    """The FourierSeries of (amplitude, frequency, phase) triples."""
    return FourierSeries(tuple(FourierTerm(*t) for t in triples))


def scalar_value(series, t):
    return sum(tm.amplitude * math.cos(tm.frequency * t + tm.phase) for tm in series.terms)


def scalar_derivative(series, t):
    return sum(-tm.amplitude * tm.frequency * math.sin(tm.frequency * t + tm.phase) for tm in series.terms)


def array_value(series, ts):
    out = np.zeros_like(ts)
    for tm in series.terms:
        out += tm.amplitude * np.cos(tm.frequency * ts + tm.phase)
    return out


def array_derivative(series, ts):
    out = np.zeros_like(ts)
    for tm in series.terms:
        out += -tm.amplitude * tm.frequency * np.sin(tm.frequency * ts + tm.phase)
    return out


def standard_torus_point(params, geom, t):
    """(x, y, z) of (R + r cos qt)(cos pt, sin pt), r sin qt at the times t."""
    p, q = params.p, params.q
    R, r = geom.R, geom.r
    t = np.asarray(t, dtype=float)
    x = R * np.cos(p * t) + r * np.cos(p * t) * np.cos(q * t)
    y = R * np.sin(p * t) + r * np.sin(p * t) * np.cos(q * t)
    z = r * np.sin(q * t)
    return x, y, z
