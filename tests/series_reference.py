"""Test-side references for the two series evaluation orders, written out per term.

math order: each term from math.cos or math.sin at one scalar t, summed by
Python's sum (the scalar loop FourierSeries.eval ran before both orders
moved into one module).  numpy order: each term's np.cos or np.sin over an
array, accumulated into zeros.  Tests compare the package with these
bitwise, so neither side checks itself.
"""

import math

import numpy as np


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
