"""Double points of the xy-projection.

Two routes to the same crossings: closed-form enumeration of the two index
families (valid for the two-term-z knots, whose x and y fix all crossing
times), and a generic numeric finder (grid scan plus damped Newton) that works
for any cosine-series knot and serves as the independent oracle.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import SingularCrossing, WrongKnotShape
from .series import TWO_PI, FourierKnot, FourierSeries, TorusParams, fmt_float, reduce_angle

log = logging.getLogger("fourierknot.crossings")

EPS_RESIDUAL = 1e-9
EPS_SINGULAR = 1e-9
EPS_DEDUPE = 1e-6

TYPE_I = "I"
TYPE_II = "II"

# sample offset in grid units; keeps grid nodes off the rational-pi lattice
# where crossing times live, so no intersection sits exactly on a cell corner
_GRID_OFFSET = 0.5 * (math.sqrt(5.0) - 1.0)

# the numeric finder's memory budget: its peak is about 235 bytes per grid
# point under tracemalloc at any crossing count (246 MB at 2**20 for T(13,29)
# and 244 MB for T(3,7)), so the cap of 2**21 needs about 490 MB
MAX_NUMERIC_GRID = 1 << 21

_NEWTON_BUDGET = 50
_NEWTON_TOL = 1e-12


@dataclass(frozen=True, order=True)
class CrossingIndices:
    """Analytic family and index pair of a crossing: kind "I" or "II", (k, j)."""

    kind: str
    k: int
    j: int

    def key(self) -> str:
        return f"{self.kind}:{self.k}:{self.j}"


@dataclass(frozen=True)
class Crossing:
    """A resolved double point: canonical times 0 <= t1 < t2 < 2*pi.

    sign is +1 for a right-handed crossing, -1 for left-handed; over names the
    strand ("t1" or "t2") passing on top.
    """

    t1: float
    t2: float
    sign: int
    over: str
    position: tuple[float, float]
    indices: CrossingIndices | None = None

    @property
    def t_over(self) -> float:
        return self.t1 if self.over == "t1" else self.t2

    @property
    def t_under(self) -> float:
        return self.t2 if self.over == "t1" else self.t1


def circular_distance(a: float, b: float) -> float:
    """Distance between two angles on the circle."""
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def pair_distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Distance between unordered time pairs, over both role assignments."""
    straight = max(circular_distance(a[0], b[0]), circular_distance(a[1], b[1]))
    crossed = max(circular_distance(a[0], b[1]), circular_distance(a[1], b[0]))
    return min(straight, crossed)


def near_pairs(pairs) -> list[tuple[int, int]]:
    """Every (i, j), i < j, with pair_distance(pairs[i], pairs[j]) <= EPS_DEDUPE, sorted.

    Every time must be finite and in [0, 2*pi); any other raises ValueError
    naming the first such pair.  The 2n times are sorted, and gap i joins
    time i to the next, circularly (i = 2n - 1: the last against the first,
    across the wrap).  A gap is close when circular_distance would put its
    times within EPS_DEDUPE: for sorted times in [0, 2*pi) that is
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
    passages = sorted((t, k) for k, pair in enumerate(pairs) for t in pair)
    return _near_pairs(pairs, passages)[1]


def _near_pairs(pairs, passages) -> tuple[list[int], list[tuple[int, int]]]:
    """near_pairs' (close gaps, near pairs), given passages (time, pair index, ...) sorted by time."""
    times = np.array([e[0] for e in passages], dtype=np.float64)
    inside = (times >= 0.0) & (times < TWO_PI)
    if not inside.all():
        a, b = pairs[min(passages[i][1] for i in np.flatnonzero(~inside).tolist())]
        raise ValueError(f"crossing time outside [0, 2*pi): ({a}, {b})")
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
        owners = sorted({passages[i][1] for i in run})
        near.update(
            (a, b) for a, b in itertools.combinations(owners, 2)
            if pair_distance(pairs[a], pairs[b]) <= EPS_DEDUPE
        )
    return close, sorted(near)


class _CrossingTable:
    """Both closed-form crossing families of T(p, q), one row per crossing.

    Rows run over type I then type II, k then j, in enumeration order, which
    is the sorted order of their CrossingIndices.  The first n_type1 rows are
    type I; k and j hold every row's indices as int64 arrays.  t1 and t2
    hold the raw formula times base -/+ half, not reduced mod 2*pi: the
    height gap takes its half-sum and half-difference from them.  Those are
    integer multiples of u = pi/(2pq), held exactly in s_u and d_u (int64,
    in units of u); intercept_u holds the numerator N of the row's singular
    lines phi2 = slope * phi1 + (N + 2pq m) u.  The phase raster's signs
    come from these integers.
    """

    def __init__(self, params: TorusParams):
        p, q = params.p, params.q
        indices, t1, t2 = [], [], []
        # type I (same direction): t = j*pi/q - pi/(2pq) -/+ k*pi/p, 0 < k < p;
        # type II (opposite direction): t = j*pi/p -/+ k*pi/q, 0 < k < q.
        # The j bounds are floors of rationals, computed in exact integer
        # arithmetic because kq/p + 1/(2p) can sit at an integer; nudge is
        # the shift in units of pi/(2pq).
        for kind, a, b, shift, nudge in (
            (TYPE_I, p, q, math.pi / (2 * p * q), 1),
            (TYPE_II, q, p, 0.0, 0),
        ):
            for k in range(1, a):
                half = k * math.pi / a
                j_lo = 1 + (2 * k * b + nudge) // (2 * a)
                j_hi = (4 * a * b - 2 * k * b + nudge) // (2 * a)
                for j in range(j_lo, j_hi + 1):
                    base = j * math.pi / b - shift
                    indices.append(CrossingIndices(kind, k, j))
                    t1.append(base - half)
                    t2.append(base + half)
        self.p, self.q = p, q
        self.indices = tuple(indices)
        self.row = {ix: i for i, ix in enumerate(self.indices)}
        self.n_type1 = sum(ix.kind == TYPE_I for ix in indices)
        self.k = k = np.array([ix.k for ix in indices], dtype=np.int64)
        self.j = j = np.array([ix.j for ix in indices], dtype=np.int64)
        self.t1, self.t2 = np.array(t1), np.array(t2)
        # in units of u, type I has base 2pj - 1 and half 2qk, type II base 2qj and half 2pk
        type1 = np.arange(len(indices)) < self.n_type1
        self.s_u = np.where(type1, 2 * p * j - 1, 2 * q * j)
        self.d_u = np.where(type1, -2 * q * k, -2 * p * k)
        self.intercept_u = np.where(type1, 2 * p * p * j + q - p, -2 * q * q * j)
        for column in (self.k, self.j, self.t1, self.t2, self.s_u, self.d_u, self.intercept_u):
            column.flags.writeable = False

    def entries(self, kind: str | None = None) -> list[tuple[CrossingIndices, float, float]]:
        """(indices, raw t1, raw t2) per row, optionally of one kind only."""
        rows = zip(self.indices, self.t1.tolist(), self.t2.tolist())
        return [row for row in rows if kind is None or row[0].kind == kind]

    def height_gap(self, rows, phi1, phi2):
        """z(t1) - z(t2) for z = cos(p t + phi1) + cos((q-p) t + phi2).

        The product-of-sines split of both z terms at the given rows; rows
        (any numpy index), phi1 and phi2 broadcast against each other.
        """
        p, r = self.p, self.q - self.p
        t1, t2 = self.t1[rows], self.t2[rows]
        s, d = 0.5 * (t1 + t2), 0.5 * (t1 - t2)
        return (-2.0 * np.sin(p * s + phi1)) * np.sin(p * d) - (2.0 * np.sin(r * s + phi2)) * np.sin(r * d)


@functools.lru_cache(maxsize=32)
def _crossing_table(params: TorusParams) -> _CrossingTable:
    # cached: point queries (sign_vector, zdiff_at_phases) read one table many times
    return _CrossingTable(params)


def enumerate_type1(params: TorusParams):
    """Same-direction double points: pq - q entries of ((kind,k,j), t1, t2).

    Times keep their formula roles (t1 carries the -k shift) and are reduced
    mod 2*pi individually.
    """
    entries = _crossing_table(params).entries(TYPE_I)
    return [(ix, reduce_angle(a), reduce_angle(b)) for ix, a, b in entries]


def enumerate_type2(params: TorusParams):
    """Opposite-direction double points: pq - p entries of ((kind,k,j), t1, t2)."""
    entries = _crossing_table(params).entries(TYPE_II)
    return [(ix, reduce_angle(a), reduce_angle(b)) for ix, a, b in entries]


def direction_product(knot: FourierKnot, t1: float, t2: float) -> float:
    """x'(t1) * x'(t2): positive iff both strands head the same left/right way."""
    return knot.x.eval_derivative(t1) * knot.x.eval_derivative(t2)


def pair_difference(series: FourierSeries, t1: float, t2: float) -> float:
    """series(t1) - series(t2) via the term-wise product-of-sines split."""
    s = 0.5 * (t1 + t2)
    d = 0.5 * (t1 - t2)
    total = 0.0
    for tm in series.terms:
        total += -2.0 * tm.amplitude * math.sin(tm.frequency * s + tm.phase) * math.sin(tm.frequency * d)
    return total


def zdiff(knot: FourierKnot, t1: float, t2: float) -> float:
    """z(t1) - z(t2) via the product-of-sines expansion of the two z terms."""
    if len(knot.z) != 2:
        raise WrongKnotShape(f"z must carry exactly two cosine terms, got {len(knot.z)}")
    return pair_difference(knot.z, t1, t2)


def classify(knot: FourierKnot, t1: float, t2: float, indices: CrossingIndices | None = None) -> Crossing:
    """Resolve a projection double point into a signed over/under crossing.

    The crossing sign is the sign of
    [x'(t1) y'(t2) - x'(t2) y'(t1)] * [z(t1) - z(t2)], which is symmetric in
    (t1, t2), so the times may be reordered freely into canonical form.
    """
    a, b = reduce_angle(t1), reduce_angle(t2)
    if a > b:
        a, b = b, a
    z1 = knot.z.eval(a)
    z2 = knot.z.eval(b)
    dz = z1 - z2
    planar = (
        knot.x.eval_derivative(a) * knot.y.eval_derivative(b)
        - knot.x.eval_derivative(b) * knot.y.eval_derivative(a)
    )
    if abs(dz) <= EPS_SINGULAR:
        raise SingularCrossing(f"strands meet in space at ({a:.6f}, {b:.6f}): |dz| = {abs(dz):.3e}")
    if abs(planar) <= EPS_SINGULAR:
        raise SingularCrossing(f"projection tangency at ({a:.6f}, {b:.6f}): |cross| = {abs(planar):.3e}")
    sign = 1 if planar * dz > 0 else -1
    over = "t1" if z1 > z2 else "t2"
    return Crossing(a, b, sign, over, (knot.x.eval(a), knot.y.eval(a)), indices)


@dataclass(frozen=True)
class CrossingSet:
    """All crossings of one knot, sorted by (t1, t2), deduplicated.

    Every time must be finite and in [0, 2*pi), and no two crossings may lie
    within EPS_DEDUPE of each other under ``pair_distance``; both are
    checked once, by ``near_pairs``' search over the sorted ``passages``,
    and refused with ValueError.  A duplicate error names the
    lexicographically first near pair.

    ``passages`` are sorted once per set; the Gauss and PD codes read them.
    ``coincident_passage`` is the first i whose passage lies within
    EPS_DEDUPE of the next one (i = 2n - 1: the last against the first,
    across the wrap, checked last), else None; close passages of distinct
    crossings need not be duplicates.  ``singular_candidates`` counts the
    candidates the numeric finder dropped as singular; the diagram builders
    refuse a set that lost any, or one with a coincident passage.
    """

    knot: FourierKnot
    crossings: tuple[Crossing, ...]
    method: str  # "analytic" | "numeric"
    singular_candidates: int = 0
    coincident_passage: int | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "crossings", tuple(self.crossings))
        cs = self.crossings
        for a, b in zip(cs, cs[1:]):
            if (a.t1, a.t2) > (b.t1, b.t2):
                raise ValueError("crossings must be sorted by (t1, t2)")
        close, near = _near_pairs([(c.t1, c.t2) for c in cs], self.passages)
        if near:
            c, d = cs[near[0][0]], cs[near[0][1]]
            raise ValueError(
                f"duplicate time pair within {EPS_DEDUPE:g}: "
                f"({c.t1}, {c.t2}) vs ({d.t1}, {d.t2})"
            )
        object.__setattr__(self, "coincident_passage", close[0] if close else None)

    @functools.cached_property
    def passages(self) -> list[tuple[float, int, bool, int]]:
        """All 2n passages in time order: (time, crossing index, is_over, sign)."""
        events = []
        for idx, c in enumerate(self.crossings):
            events.append((c.t1, idx, c.over == "t1", c.sign))
            events.append((c.t2, idx, c.over == "t2", c.sign))
        events.sort()
        return events

    def __len__(self) -> int:
        return len(self.crossings)

    def of_kind(self, kind: str) -> tuple[Crossing, ...]:
        return tuple(c for c in self.crossings if c.indices is not None and c.indices.kind == kind)

    def fully_indexed(self) -> bool:
        return all(c.indices is not None for c in self.crossings)

    def to_json(self) -> str:
        """Array of crossing records sorted by (t1, t2); 17-digit floats."""
        rows = []
        for c in self.crossings:
            if c.indices is not None:
                kind = f'"{c.indices.kind}"'
                k, j = str(c.indices.k), str(c.indices.j)
            else:
                kind = k = j = "null"
            rows.append(
                f'{{"kind":{kind},"k":{k},"j":{j},'
                f'"t1":{fmt_float(c.t1)},"t2":{fmt_float(c.t2)},'
                f'"sign":{c.sign},"over":"{c.over}",'
                f'"x":{fmt_float(c.position[0])},"y":{fmt_float(c.position[1])}}}'
            )
        return "[" + ",".join(rows) + "]"

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["kind", "k", "j", "t1", "t2", "sign", "over", "x", "y"])
        for c in self.crossings:
            kind = c.indices.kind if c.indices else ""
            k = c.indices.k if c.indices else ""
            j = c.indices.j if c.indices else ""
            w.writerow([kind, k, j, fmt_float(c.t1), fmt_float(c.t2), c.sign, c.over,
                        fmt_float(c.position[0]), fmt_float(c.position[1])])
        return buf.getvalue()


def analytic_crossing_set(knot: FourierKnot, params: TorusParams) -> CrossingSet:
    """Enumerate both closed-form families and classify against the knot's z."""
    entries = _crossing_table(params).entries()
    crossings = [classify(knot, t1, t2, idx) for idx, t1, t2 in entries]
    crossings.sort(key=lambda c: (c.t1, c.t2))
    return CrossingSet(knot, tuple(crossings), "analytic")


def _newton_refine(knot: FourierKnot, t1: float, t2: float):
    """Polish a candidate double point; returns (status, t1, t2).

    status: "ok", "tangential" (singular Jacobian), "divergence".
    """
    def residual(a, b):
        return math.hypot(knot.x.eval(a) - knot.x.eval(b), knot.y.eval(a) - knot.y.eval(b))

    res = residual(t1, t2)
    for _ in range(_NEWTON_BUDGET):
        if res < _NEWTON_TOL:
            return "ok", t1, t2
        fx = knot.x.eval(t1) - knot.x.eval(t2)
        fy = knot.y.eval(t1) - knot.y.eval(t2)
        j11 = knot.x.eval_derivative(t1)
        j12 = -knot.x.eval_derivative(t2)
        j21 = knot.y.eval_derivative(t1)
        j22 = -knot.y.eval_derivative(t2)
        det = j11 * j22 - j12 * j21
        if abs(det) < 1e-12:
            return "tangential", t1, t2
        dt1 = -(j22 * fx - j12 * fy) / det
        dt2 = -(-j21 * fx + j11 * fy) / det
        lam = 1.0
        while True:
            n1, n2 = t1 + lam * dt1, t2 + lam * dt2
            new_res = residual(n1, n2)
            if new_res < res:
                t1, t2, res = n1, n2, new_res
                break
            lam *= 0.5
            if lam < 1e-7:
                return "divergence", t1, t2
    if res < _NEWTON_TOL:
        return "ok", t1, t2
    return "divergence", t1, t2


def find_crossings_numeric(knot: FourierKnot, grid: int, diagnostics: list | None = None) -> CrossingSet:
    """Find all transverse double points of the xy-projection numerically.

    Coarse candidates come from a segment-pair scan over a uniform t-grid,
    then each candidate is polished by damped Newton on
    (x(t1)-x(t2), y(t1)-y(t2)) and deduplicated on the unordered time pair:
    a candidate within EPS_DEDUPE of an earlier kept one, in scan order, is
    dropped.
    Failed candidates are reported through the logger (and ``diagnostics``
    when given), never raised; the set counts the singular ones, and the
    diagram builders refuse it if there are any.  Memory grows as about 235
    bytes per grid point, so grids above MAX_NUMERIC_GRID = 2**21 (about
    490 MB) are refused with ValueError before anything is allocated.
    """
    if grid > MAX_NUMERIC_GRID:
        raise ValueError(f"grid must be at most {MAX_NUMERIC_GRID}, got {grid}")
    floor = 4 * knot.max_frequency() * knot.term_count()
    if grid < floor:
        raise ValueError(f"grid {grid} is below the sampling floor {floor}")
    h = TWO_PI / grid
    ts = (np.arange(grid + 1) + _GRID_OFFSET) * h
    px = np.asarray(knot.x.eval(ts))
    py = np.asarray(knot.y.eval(ts))
    px[-1] = px[0]
    py[-1] = py[0]
    ii, jj, ss, uu = _kernels.scan_segment_pairs(px, py)

    # refine every candidate, then keep each ok one unless an earlier kept one is near it
    refined = []
    for i, j, s, u in zip(ii, jj, ss, uu):
        g1 = ts[i] + s * h
        g2 = ts[j] + u * h
        status, t1, t2 = _newton_refine(knot, g1, g2)
        if status == "ok":
            t1, t2 = sorted((reduce_angle(t1), reduce_angle(t2)))
            if circular_distance(t1, t2) <= EPS_DEDUPE:
                continue  # converged onto the trivial diagonal
        refined.append((int(i), int(j), status, t1, t2))
    ok = [k for k, r in enumerate(refined) if r[2] == "ok"]
    earlier: dict[int, list[int]] = {}
    for a, b in near_pairs([refined[k][3:] for k in ok]):
        earlier.setdefault(ok[b], []).append(ok[a])

    accepted: list[Crossing] = []
    kept: set[int] = set()
    singular = 0
    for k, (i, j, status, t1, t2) in enumerate(refined):
        if status != "ok":
            log.warning("candidate (%d, %d) failed refinement: %s", i, j, status)
            if diagnostics is not None:
                diagnostics.append((status, i, j))
            continue
        if not kept.isdisjoint(earlier.get(k, ())):
            continue
        try:
            crossing = classify(knot, t1, t2)
        except SingularCrossing as exc:
            log.warning("candidate (%d, %d) is singular: %s", i, j, exc)
            singular += 1
            if diagnostics is not None:
                diagnostics.append(("singular", i, j))
            continue
        kept.add(k)
        accepted.append(crossing)
    accepted.sort(key=lambda c: (c.t1, c.t2))
    return CrossingSet(knot, tuple(accepted), "numeric", singular)
