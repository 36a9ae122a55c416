"""The phase torus of the two z-phases.

With x and y fixed, the crossing times never move: only the heights
z(t1) - z(t2) respond to the phase pair (phi1, phi2).  Each crossing
degenerates along straight lines in the phase square; off those lines the
tuple of height-difference signs pins down the whole diagram, so equal sign
vectors mean equal knots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .crossings import EPS_SINGULAR, CrossingIndices, _crossing_table, _records, crossing_count
from .errors import CertificationFailure, SimplifyRequiresEvenP, SingularPoint
from .render import phase_map_png, phase_map_svg
from .series import (
    TWO_PI,
    FourierKnot,
    FourierSeries,
    FourierTerm,
    TorusParams,
    _finite_float,
    _int_at_least,
    _phi2_along,
    reduce_angle,
    reduce_angles,
    theorem_xy,
)

# a line certifies where its gap reads as zero to _positive_gaps (<= EPS_SINGULAR); on an exact
# line the split reads only rounding, about 2*E0(z) (series docstring): <= 1.1e-12 up to T(2,351)
_CERT_SAMPLES = 10
# phi1 samples along each line checked by the certifications below
_CERT_PHI1 = np.array([TWO_PI * (s + 0.37) / _CERT_SAMPLES for s in range(_CERT_SAMPLES)])


@dataclass(frozen=True)
class PhasePoint:
    """A point (phi1, phi2) on the phase torus, reduced to [0, 2*pi)^2; each a finite real (_finite_float)."""

    phi1: float
    phi2: float

    def __post_init__(self):
        # phi1 is read and checked before phi2 is: PhasePoint(inf, None) names phi1
        object.__setattr__(self, "phi1", reduce_angle(_finite_float(self.phi1, "phi1")))
        object.__setattr__(self, "phi2", reduce_angle(_finite_float(self.phi2, "phi2")))


class SingularLine(NamedTuple):
    """A line in the phase square where one crossing's height gap vanishes.

    Same-direction crossings give horizontal lines (slope 0, phi2 =
    intercept); opposite-direction crossings give diagonals phi2 =
    slope * phi1 + intercept with slope +-1 set by the parity of k and m.
    A line is a tuple of its six fields: it iterates over them and compares
    equal to a plain tuple of them.
    """

    kind: str
    k: int
    j: int
    m: int
    slope: int
    intercept: float

    def phi2_at(self, phi1: float) -> float:
        return reduce_angle(self.slope * phi1 + self.intercept)


@dataclass(frozen=True)
class SignVector:
    """Signs of z(t1) - z(t2) over every crossing index; the diagram fingerprint."""

    items: tuple[tuple[CrossingIndices, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(sorted(self.items)))

    @classmethod
    def _from_sorted(cls, items: tuple[tuple[CrossingIndices, int], ...]) -> SignVector:
        """A SignVector of items already in sorted index order, without the re-sort."""
        # sign_vector's path: the re-sort would add 10-15 us to a cached query's 22 us at T(7,11)
        vector = object.__new__(cls)
        object.__setattr__(vector, "items", items)
        return vector

    def to_json(self) -> str:
        body = ",".join(f'"{ix.key()}":{s}' for ix, s in self.items)
        return "{" + body + "}"


def theorem_phase_point(params: TorusParams) -> PhasePoint:
    """The phase pair (pi/2, pi/(2p) - pi/(4q)) of the two-term-z generator."""
    p, q = params.p, params.q
    return PhasePoint(math.pi / 2, math.pi / (2 * p) - math.pi / (4 * q))


def simplified_phase_point(params: TorusParams) -> PhasePoint:
    """The shortened phase pair (pi/2, pi/(2p))."""
    return PhasePoint(math.pi / 2, math.pi / (2 * params.p))


def knot_with_phases(params: TorusParams, point: PhasePoint) -> FourierKnot:
    """Theorem x/y with z = cos(p t + phi1) + cos((q-p) t + phi2)."""
    x, y = theorem_xy(params)
    z = FourierSeries((FourierTerm(1.0, params.p, point.phi1), FourierTerm(1.0, params.q - params.p, point.phi2)))
    return FourierKnot(x, y, z)


def gen_theorem_knot(params: TorusParams, simplified: bool = False) -> FourierKnot:
    """The (p,q) torus knot with signature (1,1,2): knot_with_phases at theorem_phase_point.

    With ``simplified`` it is taken at simplified_phase_point, where the
    second z phase is pi/(2p); that variant is a valid parameterization only
    for even p.
    """
    if simplified and params.p % 2 != 0:
        raise SimplifyRequiresEvenP(f"the short z phase pi/(2p) requires even p, got p={params.p}")
    point = simplified_phase_point(params) if simplified else theorem_phase_point(params)
    return knot_with_phases(params, point)


def _positive_gaps(table, phi1, phi2) -> np.ndarray:
    """height gap > 0 at every table row, per point; on a line, SingularPoint.

    phi1 and phi2 are one point's floats, or (k, 1) columns of k points that
    give k rows of signs.  SingularPoint names the degenerate indices, in
    table order, of the first point that has any.
    """
    gaps = table.height_gap(slice(None), phi1, phi2)
    if np.abs(gaps).min() <= EPS_SINGULAR:
        degenerate = np.abs(np.atleast_2d(gaps)) <= EPS_SINGULAR
        first = degenerate.any(axis=1).argmax()
        raise SingularPoint([table.indices[row] for row in np.flatnonzero(degenerate[first]).tolist()])
    return gaps > 0.0


def sign_vector(params: TorusParams, point: PhasePoint) -> SignVector:
    """Sign of the height gap at every crossing; raises SingularPoint on a line.

    The crossing table's rows are in sorted CrossingIndices order (type I
    before type II, then k, then j), so the vector takes them as they are
    rather than sorting them again, and picks each row's item from the
    table's sign_items rather than building it.
    """
    table = _crossing_table(params)
    minus, plus = table.sign_items
    return SignVector._from_sorted(tuple(np.where(_positive_gaps(table, point.phi1, point.phi2), plus, minus).tolist()))


def same_knot_by_phases(params: TorusParams, a: PhasePoint, b: PhasePoint) -> bool:
    """Equal sign vectors force identical diagrams, hence the same knot.

    This is a sufficient test: distinct regions of the phase square could in
    principle share a sign vector, which would still mean equal diagrams.
    Both points' gaps come from one height_gap call on a column of the two
    points, and their signs are compared as two rows of one array, in one
    ufunc pass; a singular a raises SingularPoint with a's indices, whatever
    b is.  The answer is a Python bool.
    """
    table = _crossing_table(params)
    positive = _positive_gaps(table, np.array([[a.phi1], [b.phi1]]), np.array([[a.phi2], [b.phi2]]))
    return not np.not_equal(positive[0], positive[1]).any()


def _TYPE1_CONST(p: int, q: int) -> float:
    # intercept constant of the horizontal singular lines; certified
    # numerically against the table's height gap, see certify_intercept_reading
    return (1.0 / p - 1.0 / q) * math.pi / 2


def _line_candidates(table) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Uncertified lines of every table row: (row, m, slope, intercept) arrays, one table row's lines per array row.

    A row's gap vanishes on phi2 = slope * phi1 + base + m pi, base = N u with
    N = table.intercept_u, u = pi/(2pq).  As pi = 2pq u, (N + 2pq m) u is in
    [0, 2 pi) exactly for m0 = -(N // 2pq) and m0 + 1.  The intercepts stay
    the floats base + m pi, in table order and then by m.
    """
    p, q = table.p, table.q
    type1 = np.arange(len(table.k)) < table.n_type1
    base = np.where(type1, table.j * p * math.pi / q + _TYPE1_CONST(p, q), -table.j * q * math.pi / p)
    m = -(table.intercept_u // (2 * p * q))[:, None] + np.arange(2)
    intercept = base[:, None] + m * math.pi
    # type I: horizontal; type II, k even: slope (-1)^m; k odd: (-1)^(m+1)
    slope = np.where(type1[:, None], 0, np.where((m + table.k[:, None]) % 2 == 0, 1, -1))
    row = np.broadcast_to(np.arange(len(type1))[:, None], m.shape)
    # an exact 0 may round below it; max(intercept, 0.0) as Python's max takes it: -0.0 stays -0.0
    intercept = np.where(intercept < 0.0, 0.0, intercept)
    return row, m, slope, intercept


def _line_gaps(table, rows, slopes, intercepts) -> np.ndarray:
    """The height gap of _line_candidates' lines at every _CERT_PHI1 sample, one row per line in raveled order.

    An array row's lines share their table row, and so the phi1 wave
    -2 sin(p s + phi1) sin(p d), which does not depend on the line.
    height_gap takes each table row once, as an (n, 1, 1) index, against
    phi2 of shape (n, lines per row, samples): each row's phi1 wave is
    evaluated once, and each line's gap is still (0 + phi1 wave) + phi2
    wave, bitwise a per-line call's.
    """
    phi2 = _phi2_along(slopes.ravel(), intercepts.ravel(), _CERT_PHI1).reshape(*slopes.shape, -1)
    return table.height_gap(rows[:, :1, None], _CERT_PHI1, phi2).reshape(slopes.size, -1)


def certified_line_arrays(params: TorusParams) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every singular line of params as (row, m, slope, intercept) arrays, each line certified.

    Certification samples phi1 along the line and demands the owning
    crossing's height gap, at the table row the line was made from, be at
    most EPS_SINGULAR; a failing line raises CertificationFailure rather
    than being dropped, naming the first failing (line, sample).  The gaps
    come from _line_gaps, one phi1 wave per table row.  The arrays are
    _line_candidates', raveled into (row, m) order; singular_lines builds
    its records from them, and verify certifies without the records.
    """
    table = _crossing_table(params)
    rows, m, slopes, intercepts = _line_candidates(table)
    residual = np.abs(_line_gaps(table, rows, slopes, intercepts))
    rows, m, slopes, intercepts = rows.ravel(), m.ravel(), slopes.ravel(), intercepts.ravel()
    failing = np.argwhere(residual > EPS_SINGULAR)
    if len(failing):
        i, s = failing[0]
        line = _lines(table, rows[i : i + 1], m[i : i + 1], slopes[i : i + 1], intercepts[i : i + 1])[0]
        raise CertificationFailure(
            f"line {line} fails for crossing {CrossingIndices(*line[:3]).key()}: "
            f"residual {residual[i, s]:.3e} at phi1={_CERT_PHI1[s]:.6f}"
        )
    return rows, m, slopes, intercepts


def _lines(table, rows, m, slopes, intercepts) -> list[SingularLine]:
    """The SingularLine records of line arrays as certified_line_arrays returns them (crossings._records)."""
    owners = table.kinds(rows), table.k[rows].tolist(), table.j[rows].tolist()
    return _records(SingularLine, *owners, m.tolist(), slopes.tolist(), intercepts.tolist())


def singular_lines(params: TorusParams) -> list[SingularLine]:
    """All singular lines with intercepts in [0, 2*pi), each certified (certified_line_arrays)."""
    return _lines(_crossing_table(params), *certified_line_arrays(params))


def certify_intercept_reading(params: TorusParams) -> tuple[str, float, float]:
    """Resolve the grouping of the horizontal-line intercept constant.

    Tries (1/p - 1/q) * pi/2 against (1/p - 1/q) / (2*pi) and returns
    (certified reading, its worst residual, best residual of the rejected
    reading).  The height-gap oracle, not the transcription, decides.
    """
    p, q = params.p, params.q
    readings = {
        "(1/p - 1/q) * pi/2": _TYPE1_CONST(p, q),
        "(1/p - 1/q) / (2*pi)": (1.0 / p - 1.0 / q) / (2 * math.pi),
    }
    results = {}
    table = _crossing_table(params)
    rows = np.arange(table.n_type1)[:, None]
    for name, const in readings.items():
        phi2 = reduce_angles(table.j[rows] * p * math.pi / q + const)
        results[name] = float(np.abs(table.height_gap(rows, _CERT_PHI1, phi2)).max())
    good = min(results, key=results.get)
    bad = max(results, key=results.get)
    if results[good] > EPS_SINGULAR:
        raise CertificationFailure(f"neither intercept reading certifies: {results}")
    return good, results[good], results[bad]


# ---------------------------------------------------------------------------
# Phase map raster


# the raster's memory budget (phase_map_render).  MAX_SIGN_TABLE caps
# crossings x grid: the peak is 29 to 38 bytes per unit at large n under
# tracemalloc (233 MB at T(90,91)/512, 280 MB at T(2,20001)/128), so at most
# about 320 MB at the cap.  There a sign numerator, below 10 q (pq grid) with
# pq grid <= n grid <= 2^23 and q < n <= 2^17, stays below 2^44 in int64
MAX_GRID = 2048
MAX_SIGN_TABLE = 1 << 23


class PhaseMap(NamedTuple):
    """Sign-vector classes over a grid of phase-square cells; a tuple of its six fields.

    classes[i1, i2] is the class id of the cell centred at
    ((i1 + 0.5) h, (i2 + 0.5) h), h = 2*pi/grid; -1 marks cells whose centre
    lies on a singular line, where some crossing's height gap is exactly 0
    (decided in integers, see _phase_classes).  On this lattice whole
    diagonals do: at every grid i1 = i2 and i1 + i2 = grid - 1 (phi1 = phi2
    and phi1 + phi2 = 2 pi), and more at even grids.
    A cell's sign key is its bits (height gap > 0) over the crossing table's
    rows, type I first.  Ids are the ranks of the non-singular cells' keys in
    lexicographic order, so they run over 0 .. n_classes - 1.
    to_png_bytes and to_svg draw the map (render.py): a cell takes the
    colour of its id mod 16 in render's palette, or black when singular.
    """

    params: TorusParams
    grid: int
    classes: np.ndarray
    n_classes: int
    lines: list[SingularLine]
    marks: tuple[tuple[PhasePoint, str], ...] = ()

    def to_png_bytes(self, scale: int = 2) -> bytes:
        return phase_map_png(self, scale=scale)

    def to_svg(self, size: int = 640) -> str:
        return phase_map_svg(self, size=size)


def _rank_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct rows in lexicographic order, rank of each row) of a 2-D uint8 array."""
    rows = np.ascontiguousarray(rows)
    width = rows.shape[1]
    distinct, inverse = np.unique(rows.view(np.dtype((np.void, width))).ravel(), return_inverse=True)
    # the inverse's shape has changed between numpy releases; only its values matter
    return distinct.view(np.uint8).reshape(-1, width), inverse.ravel()


def _dense_ids(codes: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of codes (all in [0, size)), ascending, and each code's position among them.

    A presence table when size is at most len(codes), else a sort, so that
    memory stays O(len(codes)).  Positions are int32: there are at most
    len(codes) <= MAX_GRID^2 distinct values.
    """
    if size > len(codes):
        distinct, inverse = np.unique(codes, return_inverse=True)
        return distinct, inverse.ravel().astype(np.int32)
    seen = np.zeros(size, dtype=bool)
    seen[codes] = True
    return np.flatnonzero(seen), (np.cumsum(seen, dtype=np.int32) - 1)[codes]


def _by_sum(v: np.ndarray, grid: int) -> np.ndarray:
    """Read-only (grid, grid) view whose [i1, i2] entry is v[i1 + i2]."""
    return sliding_window_view(v, grid)


def _by_diff(v: np.ndarray, grid: int) -> np.ndarray:
    """Read-only (grid, grid) view whose [i1, i2] entry is v[i1 - i2 + grid - 1]."""
    return sliding_window_view(v[::-1], grid)[::-1]


def _sin_signs(num: np.ndarray, den: int) -> np.ndarray:
    """Sign of sin(pi * num / den) for integer num and den > 0, as int8: 0 on a multiple of pi."""
    quot, rem = np.divmod(num, den)
    sign = 1 - 2 * np.bitwise_and(quot, 1, out=quot).astype(np.int8)
    sign[rem == 0] = 0
    return sign


def _phase_classes(table, grid: int) -> tuple[np.ndarray, int]:
    """Class ids of the cells (see PhaseMap) and the number of classes, from exact signs.

    With s, d the half-sum and half-difference of a row's times and r = q - p,
    a type-I gap is -2 sin(r s + phi2) sin(r d), as sin(p d) = sin(-k pi) = 0:
    a sign per column i2.  A type-II gap is -4 sin(p d) F G, as sin(r d) =
    -(-1)^k sin(p d), with F = cos((q s + k pi + phi1 + phi2)/2) a sign per
    sum i1 + i2 and G = sin(((2p - q) s - k pi + phi1 - phi2)/2) one per
    difference i1 - i2.  At cell centres phi = (2i + 1) pi/grid, and s, d are
    integers in units of u = pi/(2pq), so each angle is pi times an integer
    over 2pq grid (4pq grid for F and G), and _sin_signs settles its sign.
    A cell is singular where a factor is 0.  Ids rank the regular cells' keys
    (type-I id of i2, type-II id of the pair (i1 + i2, i1 - i2)); both ids
    rank sign bytes, so this is the order of the full sign keys, type I first.
    """
    p, q, n1 = table.p, table.q, table.n_type1
    s, d, k = table.s_u, table.d_u, table.k
    den = 2 * p * q  # pi in units of u
    cells = np.arange(2 * grid - 1, dtype=np.int64)[:, None]

    # type I, angles over den grid: r s + phi2 at the columns i2 = cells[:grid]
    sign1 = _sin_signs((q - p) * s[:n1] * grid + den * (2 * cells[:grid] + 1), den * grid)
    bytes1, id1 = _rank_rows(np.packbits(sign1 * _sin_signs((q - p) * d[:n1], den) < 0, axis=1))
    # type II, half angles over 2 den grid: F = cos x as sin(x + pi/2) at the
    # sums i1 + i2 = cells, G at the differences i1 - i2 = cells + 1 - grid;
    # a bit is the XOR of a sum bit and a difference bit
    f = _sin_signs((q * s[n1:] + den * (k[n1:] + 1)) * grid + 2 * den * (cells + 1), 2 * den * grid)
    bytes_sum, id_sum = _rank_rows(np.packbits(f * _sin_signs(p * d[n1:], den) < 0, axis=1))
    g = _sin_signs(((2 * p - q) * s[n1:] - den * k[n1:]) * grid + 2 * den * (cells + 1 - grid), 2 * den * grid)
    bytes_diff, id_diff = _rank_rows(np.packbits(g < 0, axis=1))
    singular = _by_sum((f == 0).any(axis=1), grid) | _by_diff((g == 0).any(axis=1), grid)
    regular = ~(singular | (sign1 == 0).any(axis=1))
    del sign1, f, g, singular

    # ids of the regular cells' (sum, difference) pairs, then of their keys.
    # The grid^2 codes and positions are int32, each freed once used: pair
    # codes stay below (2 grid - 1)^2, and key codes below len(bytes1) *
    # len(bytes2), far from 2^31 when measured but unbounded, else int64
    n_diff = len(bytes_diff)
    pair = _by_sum(id_sum.astype(np.int32) * n_diff, grid) + _by_diff(id_diff.astype(np.int32), grid)
    pairs, pair_id = _dense_ids(pair[regular], len(bytes_sum) * n_diff)
    del pair
    sum_of, diff_of = np.divmod(pairs, n_diff)
    bytes2, rank2 = _rank_rows(bytes_sum[sum_of] ^ bytes_diff[diff_of])
    code = np.int32 if len(bytes1) * len(bytes2) <= np.iinfo(np.int32).max else np.int64
    key = np.broadcast_to(id1.astype(code) * len(bytes2), (grid, grid))[regular]
    key += rank2.astype(code)[pair_id]
    del pair_id
    keys, key_id = _dense_ids(key, len(bytes1) * len(bytes2))
    del key
    classes = np.full((grid, grid), -1, dtype=np.int32)
    classes[regular] = key_id
    return classes, len(keys)


def phase_map_render(
    params: TorusParams, grid: int, mark_theorem_points: bool = True
) -> PhaseMap:
    """Colour the phase square by sign-vector class; 64 <= grid <= MAX_GRID.

    The raster builds integer sign tables of n x grid entries, n = 2pq - p - q
    crossings, and touches each cell a fixed number of times, so time and
    memory are O(n * grid + grid^2).  Peaks under tracemalloc: 3.3 MB at
    T(7,13)/512, 52 MB at T(7,13)/2048, 19 MB at T(13,29)/1024 (52 MB at
    2048).  MAX_GRID and MAX_SIGN_TABLE bound the two parts, checked before
    the crossing table is built; a grid that is not an integer is refused
    before them.
    """
    grid = _int_at_least(grid, 64, "grid")
    if grid > MAX_GRID:
        raise ValueError(f"grid must be at most {MAX_GRID}, got {grid}")
    n = crossing_count(params.p, params.q)
    if n * grid > MAX_SIGN_TABLE:
        raise ValueError(f"{n} crossings x grid {grid} is above the budget of {MAX_SIGN_TABLE}")
    classes, n_classes = _phase_classes(_crossing_table(params), grid)
    marks = ()
    if mark_theorem_points:
        marks = (
            (theorem_phase_point(params), "theorem"),
            (simplified_phase_point(params), "simplified"),
        )
    return PhaseMap(params, grid, classes, n_classes, singular_lines(params), marks)
