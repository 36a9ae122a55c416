"""Double points of the xy-projection.

Two routes to the same crossings: closed-form enumeration of the two index
families (valid for the two-term-z knots, whose x and y fix all crossing
times), and a generic numeric finder (grid scan plus damped Newton) that works
for any cosine-series knot and serves as the independent oracle.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import SingularCrossing, WrongKnotShape
from .series import (
    FLOAT_FORMAT,
    TWO_PI,
    FourierKnot,
    FourierSeries,
    TorusParams,
    _int_at_least,
    reduce_angles,
    sine_factors,
    sine_split,
    sine_sum,
    theorem_xy,
)

log = logging.getLogger("fourierknot.crossings")

# Against the series error bound (E0, E1 at |t| <= 2*pi; series docstring):
# |dz| and |planar| err by at most 2*E0(z) and 2*(N1(x) E1(y) + N1(y) E1(x)),
# 9e-14 and 7.8e-11 at T(19,29), and planar at most 7e-10 (T(2,351)) within
# verify's budget, so a row above EPS_SINGULAR there has its exact sign; not so
# at T(181,182) (3.4e-8).  EPS_DEDUPE parts time pairs, not set by the bound:
# it is at most 1/36 of pi/(2pq), the least gap between two crossings of a
# T(p, q) under the CLI's crossing cap, and far above a converged Newton
# candidate's time error at a transverse crossing.
EPS_SINGULAR = 1e-9
EPS_DEDUPE = 1e-6

TYPE_I = "I"
TYPE_II = "II"
# the kind by 0 or 1, as (row >= n_type1) or a set's kind column; an object array hands out the two strings themselves
_KINDS = np.array([TYPE_I, TYPE_II], dtype=object)

# sample offset in grid units; keeps grid nodes off the rational-pi lattice
# where crossing times live, so no intersection sits exactly on a cell corner
_GRID_OFFSET = 0.5 * (math.sqrt(5.0) - 1.0)

# the numeric finder's memory budget: its peak is about 235 bytes per grid
# point under tracemalloc at any crossing count (246 MB at 2**20 for T(13,29)
# and 244 MB for T(3,7)), so the cap of 2**21 needs about 490 MB
MAX_NUMERIC_GRID = 1 << 21

_NEWTON_BUDGET = 50
# an exact double point's residual may read 2*hypot(E0(x), E0(y)): 9e-14 at T(13,29),
# above 1e-12 past frequencies of 250; E0 grows with the amplitudes, so Newton's
# tolerance is _NEWTON_TOL * max(1, N0(x), N0(y)), 1e-12 for every theorem knot
_NEWTON_TOL = 1e-12
_NEWTON_STATUS = ("ok", "tangential", "divergence")  # _newton_refine's status codes
_FATES = _NEWTON_STATUS + ("singular", "duplicate", "diagonal")  # a numeric candidate's fate
_OK, _TANGENTIAL, _DIVERGENCE, _SINGULAR, _DUPLICATE, _DIAGONAL = range(6)

# one row template per output format, filled by CrossingSet._rows with
# (kind, k, j, t1, t2, sign, over, x, y); floats print as FLOAT_FORMAT, like fmt_float
_F = FLOAT_FORMAT
_JSON_ROW = f'{{"kind":%s,"k":%s,"j":%s,"t1":{_F},"t2":{_F},"sign":%s,"over":"%s","x":{_F},"y":{_F}}}'
_CSV_ROW = f"%s,%s,%s,{_F},{_F},%s,%s,{_F},{_F}\n"


class CrossingIndices(NamedTuple):
    """Analytic family and index pair of a crossing: kind "I" or "II", (k, j); a tuple of the three."""

    kind: str
    k: int
    j: int

    def key(self) -> str:
        return "%s:%s:%s" % self


class Crossing(NamedTuple):
    """A resolved double point: canonical times 0 <= t1 < t2 < 2*pi.

    sign is +1 for a right-handed crossing, -1 for left-handed; over names the
    strand ("t1" or "t2") passing on top.  A tuple of its six fields.
    """

    t1: float
    t2: float
    sign: int
    over: str
    position: tuple[float, float]
    indices: CrossingIndices | None = None


def _records(cls, *columns) -> list:
    """cls(*row) for each row of the columns (one per field, in field order), as a list.

    Each record is built by tuple.__new__ at C level, which bypasses
    cls.__new__, so no Python frame runs per record: use it only for a
    NamedTuple whose __new__ checks nothing.
    """
    return list(map(functools.partial(tuple.__new__, cls), zip(*columns)))


def circular_distance(a: float, b: float) -> float:
    """Distance between two angles on the circle."""
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def pair_distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Distance between unordered time pairs, over both role assignments."""
    straight = max(circular_distance(a[0], b[0]), circular_distance(a[1], b[1]))
    crossed = max(circular_distance(a[0], b[1]), circular_distance(a[1], b[0]))
    return min(straight, crossed)


def near_pairs(t1, t2) -> list[tuple[int, int]]:
    """Every (i, j), i < j, with pair_distance((t1[i], t2[i]), (t1[j], t2[j])) <= EPS_DEDUPE, sorted.

    The columns must have one length, and every time must be finite and in
    [0, 2*pi); anything else raises ValueError naming both lengths or the
    first such pair.  The 2n times are sorted, and gap i joins time i to
    the next, circularly (i = 2n - 1: the last against the first, across
    the wrap).  A gap is close when circular_distance would put its times
    within EPS_DEDUPE: for sorted times in [0, 2*pi) that is
    min(d, 2*pi - d) for d = fl(b - a), or fl(last - first) at the wrap (if
    d rounds to 2*pi the remainder is 0, and 2*pi - d = 0 agrees).  Runs of
    close gaps, the last merged into the first across the wrap, group the
    times, and pair_distance is called only for pairs that share a run.

    Why that finds every near pair: a near pair puts a time x of one within
    EPS_DEDUPE of a time y of the other.  Take x <= y and D = fl(y - x).  If
    D <= EPS_DEDUPE, each gap (a, b) sorted between x and y has
    b - a <= y - x, and rounding is monotone, so fl(b - a) <= D: all are
    close.  Otherwise fl(2*pi - D) <= EPS_DEDUPE, so D and y >= D lie in
    [4, 2*pi], where 2*pi - D is exact (Sterbenz) and one ulp is u = 2**-50,
    and every gap the other way round is close: one above y has
    b - a < 2*pi - y <= 2*pi - D; one below x has
    b - a <= x <= (2*pi - u) - (D - u/2) < 2*pi - D; and the wrap's span
    fl(last - first) >= D leaves 2*pi minus it at most 2*pi - D, exactly.
    """
    if len(t1) != len(t2):
        raise ValueError(f"near_pairs needs columns of one length, got {len(t1)} and {len(t2)} times")
    times = np.concatenate((t1, t2), dtype=np.float64)
    owners = np.tile(np.arange(len(t1)), 2)
    order = np.lexsort((owners, times))
    return _near_pairs(times[: len(t1)].tolist(), times[len(t1) :].tolist(), times[order], owners[order])[1]


def _near_pairs(t1, t2, times, owners) -> tuple[list[int], list[tuple[int, int]]]:
    """near_pairs' (close gaps, near pairs) of the pairs (t1[i], t2[i]), given their times sorted and each one's i."""
    inside = (times >= 0.0) & (times < TWO_PI)
    if not inside.all():
        i = int(owners[~inside].min())
        raise ValueError(f"crossing time outside [0, 2*pi): ({t1[i]}, {t2[i]})")
    gaps = np.append(np.diff(times), times[-1:] - times[:1])
    close = np.flatnonzero((gaps <= EPS_DEDUPE) | (TWO_PI - gaps <= EPS_DEDUPE)).tolist()
    runs: list[list[int]] = []
    for i in close:
        if runs and runs[-1][-1] == i:
            runs[-1].append((i + 1) % len(times))
        else:
            runs.append([i, (i + 1) % len(times)])
    if len(runs) > 1 and runs[-1][-1] == 0 == runs[0][0]:
        runs[0] += runs.pop()
    near = set()
    for run in runs:
        members = sorted(set(owners[run].tolist()))
        near.update(
            (a, b) for a, b in itertools.combinations(members, 2)
            if pair_distance((t1[a], t2[a]), (t1[b], t2[b])) <= EPS_DEDUPE
        )
    return close, sorted(near)


def crossing_count(p: int, q: int) -> int:
    """2pq - p - q, the crossings of T(p, q); plain ints, coprime or not."""
    return 2 * p * q - p - q


class _CrossingTable:
    """Both closed-form crossing families of T(p, q), one row per crossing, as columns.

    Rows run over type I then type II, k then j, in enumeration order, which
    is the sorted order of their CrossingIndices.  The first n_type1 rows are
    type I; k and j hold every row's indices as int64 arrays.  t1 and t2
    hold the raw formula times base -/+ half, not reduced mod 2*pi: the
    height gap takes its half-sum and half-difference from them.  Those are
    integer multiples of u = pi/(2pq), held exactly in s_u and d_u (int64,
    in units of u); intercept_u holds the numerator N of the row's singular
    lines phi2 = slope * phi1 + (N + 2pq m) u.  The phase raster's signs
    come from these integers.  The columns are the only store, and what is
    derived from them is built on first read: ``indices``, every row's
    CrossingIndices, ``sign_items``, the two items of each row that a sign
    vector picks from, and the height gap's point-independent factors,
    which the first ``height_gap`` builds over every row, so that each gap
    pays only for its phases.  A table that is never asked for a gap (the
    analytic set, the raster) never builds them.  Building one is most of
    an uncached point query, hence _crossing_table's cache.
    """

    def __init__(self, params: TorusParams):
        p, q = params.p, params.q
        families = []
        # type I (same direction): t = j*pi/q - pi/(2pq) -/+ k*pi/p, 0 < k < p;
        # type II (opposite direction): t = j*pi/p -/+ k*pi/q, 0 < k < q.
        # The j bounds are floors of rationals, computed in exact integer
        # arithmetic because kq/p + 1/(2p) can sit at an integer.  In units
        # of u, the shift is nudge, base is 2aj - nudge and half is 2bk.
        for a, b, shift, nudge in ((p, q, math.pi / (2 * p * q), 1), (q, p, 0.0, 0)):
            k = np.arange(1, a, dtype=np.int64)
            j_lo = 1 + (2 * k * b + nudge) // (2 * a)
            count = (4 * a * b - 2 * k * b + nudge) // (2 * a) - j_lo + 1
            k, j = np.repeat(k, count), np.repeat(j_lo, count) + _kernels._ranges(count)
            half, base = k * math.pi / a, j * math.pi / b - shift
            families.append((k, j, base - half, base + half, 2 * a * j - nudge, -2 * b * k))
        k, j, t1, t2, s_u, d_u = (np.concatenate(columns) for columns in zip(*families))
        self.p, self.q, self.n_type1 = p, q, len(families[0][0])
        self.k, self.j, self.t1, self.t2, self.s_u, self.d_u = k, j, t1, t2, s_u, d_u
        type1 = np.arange(len(k)) < self.n_type1
        self.intercept_u = np.where(type1, 2 * p * p * j + q - p, -2 * q * q * j)
        for column in (self.k, self.j, self.t1, self.t2, self.s_u, self.d_u, self.intercept_u):
            column.setflags(write=False)

    def kinds(self, rows) -> list[str]:
        """The kind, TYPE_I or TYPE_II, of each of the rows (an int array)."""
        return _KINDS.take(rows >= self.n_type1).tolist()

    @functools.cached_property
    def indices(self) -> tuple[CrossingIndices, ...]:
        """Every row's CrossingIndices, in row order (which is sorted order), built on first read."""
        kinds = self.kinds(np.arange(len(self.k)))
        return tuple(_records(CrossingIndices, kinds, self.k.tolist(), self.j.tolist()))

    @functools.cached_property
    def sign_items(self) -> tuple[np.ndarray, np.ndarray]:
        """Every row's (CrossingIndices, -1) and (CrossingIndices, 1), as two object arrays, built on first read.

        A sign vector picks one of each row's two items, so a point query
        builds no tuple per row.
        """
        return tuple(np.fromiter(((ix, s) for ix in self.indices), dtype=object, count=len(self.k)) for s in (-1, 1))

    @functools.cached_property
    def _gap_factors(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(f s, sin(f d)) of every row for f = p and q - p (series.sine_factors), read-only, built on first read."""
        _, factors = sine_factors((self.p, self.q - self.p), self.t1, self.t2)
        for column in itertools.chain.from_iterable(factors):
            column.setflags(write=False)
        return tuple(factors)

    def height_gap(self, rows, phi1, phi2):
        """z(t1) - z(t2) for z = cos(p t + phi1) + cos((q-p) t + phi2).

        The product-of-sines split of both z terms at the given rows, bitwise
        sine_split of the raw times; only its phase half (series.sine_sum)
        runs per call.  rows (any numpy index), phi1 and phi2 broadcast
        against each other.
        """
        (ps, sin_pd), (rs, sin_rd) = self._gap_factors
        ps, rs = ps[rows], rs[rows]
        return sine_sum(((1.0, phi1, ps, sin_pd[rows]), (1.0, phi2, rs, sin_rd[rows])), np.shape(ps))


@functools.lru_cache(maxsize=32)
def _crossing_table(params: TorusParams) -> _CrossingTable:
    # cached, so the point queries of one (p, q) share one table and its gap factors: at T(7,11)
    # an uncached sign_vector takes about 170 us and a cached one 22 us, and one phase query
    # batch of the benchmark (singular_lines, 16 sign vectors, 8 pairs) looks up its table 26 times
    return _CrossingTable(params)


def pair_difference(series: FourierSeries, t1, t2):
    """series(t1) - series(t2) via the term-wise product-of-sines split (sine_split).

    An array for array times; for scalar times an np.float64 (a float), or a
    0-d array for a series with no terms.
    """
    return sine_split([(tm.amplitude, tm.frequency, tm.phase) for tm in series.terms], t1, t2)


class _Classified(NamedTuple):
    """Double points classified in one array pass: times ordered a <= b per row."""

    a: np.ndarray
    b: np.ndarray
    sign: np.ndarray  # +1 right-handed, -1 left-handed
    over_t1: np.ndarray  # z(a) > z(b): the strand at a passes on top
    singular: dict[int, str]  # failing row -> SingularCrossing message, in row order


def _classify_pairs(knot: FourierKnot, t1: np.ndarray, t2: np.ndarray) -> _Classified:
    """Resolve the double points at times (t1, t2), row by row, in one array pass.

    Each row's times are reduced mod 2*pi and ordered into (a, b).  The
    crossing sign is the sign of [x'(a) y'(b) - x'(b) y'(a)] * [z(a) - z(b)],
    which is symmetric in the two times, and the strand with the larger z
    passes over; z(a) - z(b) is the height gap's sine split (pair_difference).
    A row is singular when |z(a) - z(b)| <= EPS_SINGULAR (the strands meet
    in space) or else |planar| <= EPS_SINGULAR (a projection tangency); its
    sign and over are then meaningless.
    """
    a, b = reduce_angles(t1), reduce_angles(t2)
    swap = a > b
    a, b = np.where(swap, b, a), np.where(swap, a, b)
    dz = pair_difference(knot.z, a, b)
    planar = (
        knot.x.eval_derivative(a) * knot.y.eval_derivative(b)
        - knot.x.eval_derivative(b) * knot.y.eval_derivative(a)
    )
    meet = np.abs(dz) <= EPS_SINGULAR
    singular = {}
    for i in np.flatnonzero(meet | (np.abs(planar) <= EPS_SINGULAR)).tolist():
        if meet[i]:
            singular[i] = f"strands meet in space at ({a[i]:.6f}, {b[i]:.6f}): |dz| = {abs(dz[i]):.3e}"
        else:
            singular[i] = f"projection tangency at ({a[i]:.6f}, {b[i]:.6f}): |cross| = {abs(planar[i]):.3e}"
    return _Classified(a, b, np.where(planar * dz > 0, 1, -1), dz > 0, singular)


def classify(knot: FourierKnot, t1: float, t2: float, indices: CrossingIndices | None = None) -> Crossing:
    """Resolve one projection double point into a signed over/under crossing.

    A one-row call of the array classifier the crossing sets use: the times
    are reduced and put in canonical order, and a singular point raises
    SingularCrossing (see _classify_pairs).
    """
    classified = _classify_pairs(knot, np.array([t1], dtype=float), np.array([t2], dtype=float))
    if classified.singular:
        raise SingularCrossing(classified.singular[0])
    (a,), (b,), (sign,), (over,) = (column.tolist() for column in classified[:4])
    return Crossing(a, b, sign, "t1" if over else "t2", (knot.x.eval(a), knot.y.eval(a)), indices)


@dataclass(frozen=True, eq=False)
class CrossingSet:
    """All crossings of one knot as columns, one row per crossing, sorted by (t1, t2), deduplicated.

    t1 <= t2 are float64 times; sign is +1 (right-handed) or -1; over_t1
    (bool) says the strand at t1 passes on top; kind is 0 for type I, 1 for
    type II and -1 without analytic indices, and (k, j) holds the indices.
    The ``crossings`` records are built on first read, for API users only:
    the JSON and CSV writers, the CLI text rows and the rendered crossing
    dots all read the columns.

    The set holds read-only copies of its seven columns, so a write to a
    column raises ValueError and a write to an array passed in does not
    reach the set.  The columns must be 1-D and of one length, every sign an
    integer 1 or -1, every kind an integer -1, 0 or 1, k and j of integer
    dtype and over_t1 of bool dtype.  A time of -0.0 is stored as 0.0.
    Every time must be finite and in [0, 2*pi), and no two crossings may
    lie within EPS_DEDUPE of each other under ``pair_distance``; the times
    are checked once, by ``near_pairs``' search over the sorted
    ``passages``.  Each check refuses with ValueError, and a duplicate
    error names the lexicographically first near pair.

    ``passages`` holds all 2n passages in time order, sorted once as the set
    is built, as read-only arrays (time, crossing index, is_over 0 or 1),
    ties by index and then under first; the codes and the sweep read them.
    ``coincident_passage`` is the first i whose passage lies within
    EPS_DEDUPE of the next one (i = 2n - 1: the last against the first,
    across the wrap, checked last), else None; close passages of distinct
    crossings need not be duplicates.  ``singular_candidates`` counts the
    candidates the numeric finder dropped as singular; the diagram builders
    refuse a set that lost any, or one with a coincident passage.
    """

    knot: FourierKnot
    t1: np.ndarray
    t2: np.ndarray
    sign: np.ndarray
    over_t1: np.ndarray
    kind: np.ndarray
    k: np.ndarray
    j: np.ndarray
    method: str  # "analytic" | "numeric"
    singular_candidates: int = 0
    passages: tuple[np.ndarray, np.ndarray, np.ndarray] = field(init=False, repr=False)
    coincident_passage: int | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        names = ("t1", "t2", "sign", "over_t1", "kind", "k", "j")
        for name in names:  # read-only copies: no later write to the caller's arrays reaches the set
            column = np.array(getattr(self, name))
            if name in ("t1", "t2") and column.dtype.kind == "f":
                column += 0.0  # -0.0 + 0.0 is 0.0: a time of -0.0 is stored, and printed, as 0
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        shapes = {name: getattr(self, name).shape for name in names}
        if len(shapes["t1"]) != 1 or len(set(shapes.values())) != 1:
            raise ValueError(f"the columns must be 1-D and of one length, got shapes {shapes}")
        if not (np.issubdtype(self.sign.dtype, np.integer) and ((self.sign == 1) | (self.sign == -1)).all()):
            raise ValueError("every sign must be an integer 1 or -1")
        if not (np.issubdtype(self.kind.dtype, np.integer) and ((self.kind >= -1) & (self.kind <= 1)).all()):
            raise ValueError("every kind must be an integer -1, 0 or 1")
        for name in ("k", "j"):
            if not np.issubdtype(getattr(self, name).dtype, np.integer):
                raise ValueError(f"every {name} must be an integer")
        if self.over_t1.dtype != bool:
            raise ValueError(f"over_t1 must have bool dtype, got {self.over_t1.dtype}")
        t1, t2 = self.t1, self.t2
        if np.any((t1[:-1] > t1[1:]) | ((t1[:-1] == t1[1:]) & (t2[:-1] > t2[1:]))):
            raise ValueError("crossings must be sorted by (t1, t2)")
        times = np.concatenate((t1, t2))
        ids = np.tile(np.arange(len(t1)), 2)
        is_over = np.concatenate((self.over_t1, ~self.over_t1)).astype(np.intp)
        order = np.lexsort((is_over, ids, times))
        object.__setattr__(self, "passages", (times[order], ids[order], is_over[order]))
        for column in self.passages:
            column.flags.writeable = False
        times, ids, _ = self.passages
        t1, t2 = t1.tolist(), t2.tolist()
        close, near = _near_pairs(t1, t2, times, ids)
        if near:
            a, b = near[0]
            raise ValueError(
                f"duplicate time pair within {EPS_DEDUPE:g}: "
                f"({t1[a]}, {t2[a]}) vs ({t1[b]}, {t2[b]})"
            )
        object.__setattr__(self, "coincident_passage", close[0] if close else None)

    @functools.cached_property
    def crossings(self) -> tuple[Crossing, ...]:
        """The rows as Crossing records, built on first read."""
        overs = ["t1" if over else "t2" for over in self.over_t1.tolist()]
        indices = self._indices()
        columns = self.t1.tolist(), self.t2.tolist(), self.sign.tolist(), overs, zip(*self.positions()), indices
        return tuple(_records(Crossing, *columns))

    def _indices(self) -> list[CrossingIndices | None]:
        """Every row's CrossingIndices, or None for a row without analytic indices (kind -1)."""
        # kind -1 takes _KINDS' last entry, and its record is then replaced by None
        indexed = _records(CrossingIndices, _KINDS.take(self.kind).tolist(), self.k.tolist(), self.j.tolist())
        return [ix if kind >= 0 else None for ix, kind in zip(indexed, self.kind.tolist())]

    def positions(self) -> tuple[list[float], list[float]]:
        """Every row's x(t1) and y(t1) as lists, in the math order (eval_math), so not from numpy's cos."""
        return self.knot.x.eval_math(self.t1), self.knot.y.eval_math(self.t1)

    def __len__(self) -> int:
        return len(self.t1)

    def _rows(self, template: str, labels: tuple[str, str, str]) -> list[str]:
        """Each row as template % (kind, k, j, t1, t2, sign, over, x, y), read off the columns.

        kind is labels[0] (type I) or labels[1] (type II); an unindexed row has labels[2] for kind, k and j.
        """
        kinds = self.kind.tolist()
        k = [v if kind >= 0 else labels[2] for kind, v in zip(kinds, self.k.tolist())]
        j = [v if kind >= 0 else labels[2] for kind, v in zip(kinds, self.j.tolist())]
        overs = [("t2", "t1")[over] for over in self.over_t1.tolist()]
        rows = zip([labels[kind] for kind in kinds], k, j, self.t1.tolist(), self.t2.tolist(),
                   self.sign.tolist(), overs, *self.positions())
        return list(map(template.__mod__, rows))

    def to_json(self) -> str:
        """A JSON array of one object per row: kind ("I", "II" or null), k, j, t1, t2, sign,
        over ("t1" or "t2"), x and y; an unindexed row has null k and j, floats print as FLOAT_FORMAT."""
        return "[" + ",".join(self._rows(_JSON_ROW, ('"I"', '"II"', "null"))) + "]"

    def to_csv(self) -> str:
        """A header kind,k,j,t1,t2,sign,over,x,y, then one line per row; an unindexed row
        leaves kind, k and j empty, floats print as FLOAT_FORMAT, and every line ends in "\\n"."""
        return "kind,k,j,t1,t2,sign,over,x,y\n" + "".join(self._rows(_CSV_ROW, ("I", "II", "")))


def analytic_crossing_set(knot: FourierKnot, params: TorusParams) -> CrossingSet:
    """Enumerate both closed-form families and classify them against the knot's z.

    The families are the crossings of the theorem's x and y (theorem_xy), so
    a knot with any other x or y raises WrongKnotShape; z is free.  The whole
    crossing table is classified in one array pass and sorted by (t1, t2)
    with a lexsort; the first singular row in table order raises
    SingularCrossing.
    """
    if (knot.x, knot.y) != theorem_xy(params):
        raise WrongKnotShape(
            f"the closed-form crossings need x = cos({params.p} t) and y = cos({params.q} t + pi/{2 * params.p})"
        )
    table = _crossing_table(params)
    classified = _classify_pairs(knot, table.t1, table.t2)
    if classified.singular:
        raise SingularCrossing(next(iter(classified.singular.values())))
    order = np.lexsort((classified.b, classified.a))
    kind = (order >= table.n_type1).astype(np.int64)
    columns = (column[order] for column in classified[:4])  # a, b, sign, over_t1
    return CrossingSet(knot, *columns, kind, table.k[order], table.j[order], "analytic")


def _newton_refine(knot: FourierKnot, t1: np.ndarray, t2: np.ndarray):
    """Polish candidate double points in lockstep; returns (status, t1, t2) arrays.

    Damped Newton on (x(t1) - x(t2), y(t1) - y(t2)) from every start pair
    (t1[i], t2[i]) at once.  Each round retires the converged candidates,
    takes one Jacobian and one Newton direction for the rest, and halves a
    shared step length until every one of them has accepted a trial point
    that lowers its residual or has halved below 1e-7.  status[i] indexes
    _NEWTON_STATUS: "ok", "tangential" (singular Jacobian) or "divergence"
    (no descent, or no convergence within the step budget); the times are
    where each candidate stopped, converged below _NEWTON_TOL * max(1, N0(x),
    N0(y)) or not.  Per candidate this is the scalar damped Newton step for
    step: values and slopes in the math order (eval_math), math.hypot
    residuals and the same float64 expressions, so the times are bitwise
    those of polishing each candidate alone.  Each point is evaluated once:
    an accepted trial point's differences are the next round's.
    |det| < 1e-12 only guards the division and is not set by the series
    bound: det is -planar, whose tangency test is the classifier's.
    """
    t1 = np.array(t1, dtype=np.float64)
    t2 = np.array(t2, dtype=np.float64)
    status = np.full(len(t1), _DIVERGENCE, dtype=np.int8)
    tol = _NEWTON_TOL * max(1.0, knot.x.norm(), knot.y.norm())

    def differences(a, b):
        x, y = (np.array(series.eval_math(np.concatenate((a, b)))) for series in (knot.x, knot.y))
        fx, fy = x[:len(a)] - x[len(a):], y[:len(a)] - y[len(a):]
        return fx, fy, np.array(list(map(math.hypot, fx.tolist(), fy.tolist())))

    active = np.arange(len(t1))  # the candidates still moving
    fx, fy, res = differences(t1, t2)
    for _ in range(_NEWTON_BUDGET):
        converged = res < tol
        status[active[converged]] = _OK
        active, fx, fy, res = (v[~converged] for v in (active, fx, fy, res))
        if not active.size:
            break
        a, b = t1[active], t2[active]
        dx, dy = (np.array(series.eval_math(np.concatenate((a, b)), True)) for series in (knot.x, knot.y))
        j11, j12, j21, j22 = dx[:len(a)], -dx[len(a):], dy[:len(a)], -dy[len(a):]
        det = j11 * j22 - j12 * j21
        flat = np.abs(det) < 1e-12
        status[active[flat]] = _TANGENTIAL
        active, fx, fy, res, a, b, j11, j12, j21, j22, det = (
            v[~flat] for v in (active, fx, fy, res, a, b, j11, j12, j21, j22, det)
        )
        dt1 = -(j22 * fx - j12 * fy) / det
        dt2 = -(-j21 * fx + j11 * fy) / det
        searching = np.arange(len(active))  # positions in active still halving lam
        lam = 1.0
        while searching.size:
            n1, n2 = a[searching] + lam * dt1[searching], b[searching] + lam * dt2[searching]
            gx, gy, new_res = differences(n1, n2)
            better = new_res < res[searching]
            took = searching[better]
            t1[active[took]], t2[active[took]] = n1[better], n2[better]
            fx[took], fy[took], res[took] = gx[better], gy[better], new_res[better]
            searching = searching[~better]
            lam *= 0.5
            if lam < 1e-7:
                break
        # the candidates still searching found no descent: they retire with status "divergence"
        active, fx, fy, res = (np.delete(v, searching) for v in (active, fx, fy, res))
    status[active[res < tol]] = _OK
    return status, t1, t2


def find_crossings_numeric(knot: FourierKnot, grid: int, diagnostics: list | None = None) -> CrossingSet:
    """Find all transverse double points of the xy-projection numerically.

    Coarse candidates come from a segment-pair scan over a uniform t-grid,
    then all of them are polished together, in one lockstep damped Newton
    call (_newton_refine) on (x(t1)-x(t2), y(t1)-y(t2)).  Each candidate has
    one fate (_FATES): its Newton status, or, for an ok one, "diagonal"
    within EPS_DEDUPE of t1 = t2, "singular" as classified, or "duplicate"
    within EPS_DEDUPE of an earlier kept one in scan order (over "singular").
    The "ok" ones are kept; the tangential, divergent and singular ones are
    reported in scan order through the logger (and ``diagnostics`` when
    given), never raised.  The set counts the singular ones, and the diagram
    builders refuse it if there are any.  Memory grows as about 235 bytes
    per grid point, so grids above MAX_NUMERIC_GRID = 2**21 (about 490 MB)
    are refused with ValueError before anything is allocated, as are grids
    that are not integers, grids below 1 or the sampling floor, and xy
    amplitudes too small for the scan (_kernels._PARALLEL_SHARE).
    """
    grid = _int_at_least(grid, 1, "grid")
    if grid > MAX_NUMERIC_GRID:
        raise ValueError(f"grid must be at most {MAX_NUMERIC_GRID}, got {grid}")
    floor = 4 * knot.max_frequency() * knot.term_count()
    if grid < floor:
        raise ValueError(f"grid {grid} is below the sampling floor {floor}")
    h = TWO_PI / grid
    largest = 2.0 * h * h * knot.x.norm(1) * knot.y.norm(1)  # no segment pair's cross product is larger
    if not largest * _kernels._PARALLEL_SHARE >= _kernels._PARALLEL_EPS:
        raise ValueError(f"xy amplitudes too small for grid {grid}: segment cross products reach {largest:.3g}")
    ts = (np.arange(grid + 1) + _GRID_OFFSET) * h
    px = np.asarray(knot.x.eval(ts))
    py = np.asarray(knot.y.eval(ts))
    px[-1] = px[0]
    py[-1] = py[0]
    ii, jj, ss, uu = _kernels.scan_segment_pairs(px, py)

    # one fate per candidate, in scan order, from its Newton status
    fate, t1, t2 = _newton_refine(knot, ts[ii] + ss * h, ts[jj] + uu * h)
    a, b = reduce_angles(t1), reduce_angles(t2)
    a, b = np.minimum(a, b), np.maximum(a, b)
    gap = b - a  # circular_distance(a, b), as 0 <= a <= b < 2*pi
    fate[(fate == _OK) & (np.minimum(gap, TWO_PI - gap) <= EPS_DEDUPE)] = _DIAGONAL
    ok = np.flatnonzero(fate == _OK)
    classified = _classify_pairs(knot, a[ok], b[ok])
    singular = dict(zip(ok[list(classified.singular)].tolist(), classified.singular.values()))
    fate[list(singular)] = _SINGULAR
    # sorted by first member, whose fate is final when read: a duplicate of a kept one, even if singular
    for x, y in near_pairs(a[ok], b[ok]):
        if fate[ok[x]] == _OK:
            fate[ok[y]] = _DUPLICATE

    reported = np.flatnonzero((fate > _OK) & (fate <= _SINGULAR))  # tangential, divergence, singular
    for k, i, j, code in zip(reported.tolist(), *(v[reported].tolist() for v in (ii, jj, fate))):
        if code == _SINGULAR:
            log.warning("candidate (%d, %d) is singular: %s", i, j, singular[k])
        else:
            log.warning("candidate (%d, %d) failed refinement: %s", i, j, _FATES[code])
        if diagnostics is not None:
            diagnostics.append((_FATES[code], i, j))
    rows = np.flatnonzero(fate[ok] == _OK)
    order = rows[np.lexsort((classified.b[rows], classified.a[rows]))]
    unindexed = np.full(len(order), -1)
    columns = (column[order] for column in classified[:4])  # a, b, sign, over_t1
    singular_candidates = int(np.count_nonzero(fate == _SINGULAR))
    return CrossingSet(knot, *columns, unindexed, unindexed, unindexed, "numeric", singular_candidates)
