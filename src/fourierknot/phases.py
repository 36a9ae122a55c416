"""The phase torus of the two z-phases.

With x and y fixed, the crossing times never move: only the heights
z(t1) - z(t2) respond to the phase pair (phi1, phi2).  Each crossing
degenerates along straight lines in the phase square; off those lines the
tuple of height-difference signs pins down the whole diagram, so equal sign
vectors mean equal knots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .crossings import EPS_SINGULAR, TYPE_I, CrossingIndices, _crossing_table
from .errors import CertificationFailure, SimplifyRequiresEvenP, SingularPoint
from .series import (
    TWO_PI,
    FourierKnot,
    FourierSeries,
    FourierTerm,
    TorusParams,
    reduce_angle,
    reduce_angles,
)

_CERT_TOL = 1e-9
_CERT_SAMPLES = 10
# phi1 samples along each line checked by the certifications below
_CERT_PHI1 = np.array([TWO_PI * (s + 0.37) / _CERT_SAMPLES for s in range(_CERT_SAMPLES)])


@dataclass(frozen=True)
class PhasePoint:
    """A point (phi1, phi2) on the phase torus, reduced to [0, 2*pi)^2."""

    phi1: float
    phi2: float

    def __post_init__(self):
        object.__setattr__(self, "phi1", reduce_angle(float(self.phi1)))
        object.__setattr__(self, "phi2", reduce_angle(float(self.phi2)))


@dataclass(frozen=True)
class SingularLine:
    """A line in the phase square where one crossing's height gap vanishes.

    Same-direction crossings give horizontal lines (slope 0, phi2 =
    intercept); opposite-direction crossings give diagonals phi2 =
    slope * phi1 + intercept with slope +-1 set by the parity of k and m.
    """

    kind: str
    k: int
    j: int
    m: int
    slope: int
    intercept: float

    @classmethod
    def _build(cls, kind: str, k: int, j: int, m: int, slope: int, intercept: float) -> SingularLine:
        """SingularLine(kind, k, j, m, slope, intercept), its fields written straight
        into the instance dict instead of by one object.__setattr__ call each."""
        line = object.__new__(cls)
        fields = line.__dict__
        fields["kind"] = kind
        fields["k"] = k
        fields["j"] = j
        fields["m"] = m
        fields["slope"] = slope
        fields["intercept"] = intercept
        return line

    def phi2_at(self, phi1: float) -> float:
        return reduce_angle(self.slope * phi1 + self.intercept)

    def distance_to(self, point: PhasePoint) -> float:
        """Vertical torus distance from the point to the line."""
        d = abs(point.phi2 - self.phi2_at(point.phi1)) % TWO_PI
        return min(d, TWO_PI - d)


def _phi2_along(slopes: np.ndarray, intercepts: np.ndarray, phi1: np.ndarray) -> np.ndarray:
    """phi2_at of the lines (slopes, intercepts) at every phi1, shape (len(slopes), len(phi1)).

    The same operations as SingularLine.phi2_at, so bitwise the same values.
    """
    return reduce_angles(slopes[:, None] * phi1 + intercepts[:, None])


@dataclass(frozen=True)
class SignVector:
    """Signs of z(t1) - z(t2) over every crossing index; the diagram fingerprint."""

    items: tuple[tuple[CrossingIndices, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(sorted(self.items)))

    @classmethod
    def _from_sorted(cls, items: tuple[tuple[CrossingIndices, int], ...]) -> SignVector:
        """A SignVector of items already in sorted index order, without the re-sort."""
        vector = object.__new__(cls)
        object.__setattr__(vector, "items", items)
        return vector

    def as_dict(self) -> dict[CrossingIndices, int]:
        return dict(self.items)

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
    p, q = params.p, params.q
    return FourierKnot(
        x=FourierSeries((FourierTerm(1.0, p, 0.0),)),
        y=FourierSeries((FourierTerm(1.0, q, math.pi / (2 * p)),)),
        z=FourierSeries((FourierTerm(1.0, p, point.phi1), FourierTerm(1.0, q - p, point.phi2))),
    )


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


def zdiff_at_phases(params: TorusParams, point: PhasePoint, indices: CrossingIndices) -> float:
    """z(t1) - z(t2) at the crossing's analytic times, for the given phases.

    indices must name a crossing of T(p, q); any other raises KeyError.
    """
    table = _crossing_table(params)
    return float(table.height_gap(table.row[indices], point.phi1, point.phi2))


def _positive_gaps(table, point: PhasePoint) -> np.ndarray:
    """height gap > 0 at every table row; on a line, SingularPoint with the degenerate indices in table order."""
    gaps = table.height_gap(slice(None), point.phi1, point.phi2)
    degenerate = np.abs(gaps) <= EPS_SINGULAR
    if degenerate.any():
        raise SingularPoint([table.indices[i] for i in np.flatnonzero(degenerate).tolist()])
    return gaps > 0.0


def sign_vector(params: TorusParams, point: PhasePoint) -> SignVector:
    """Sign of the height gap at every crossing; raises SingularPoint on a line.

    The crossing table's rows are in sorted CrossingIndices order (type I
    before type II, then k, then j), so the vector takes them as they are
    rather than sorting them again.
    """
    table = _crossing_table(params)
    signs = np.where(_positive_gaps(table, point), 1, -1).tolist()
    return SignVector._from_sorted(tuple(zip(table.indices, signs)))


def same_knot_by_phases(params: TorusParams, a: PhasePoint, b: PhasePoint) -> bool:
    """Equal sign vectors force identical diagrams, hence the same knot.

    This is a sufficient test: distinct regions of the phase square could in
    principle share a sign vector, which would still mean equal diagrams.
    Both vectors run over the same table rows, so they are compared as sign
    arrays; a singular a raises SingularPoint before b is looked at.
    """
    table = _crossing_table(params)
    return np.array_equal(_positive_gaps(table, a), _positive_gaps(table, b))


def _TYPE1_CONST(p: int, q: int) -> float:
    # intercept constant of the horizontal singular lines; certified
    # numerically against zdiff_at_phases, see certify_intercept_reading
    return (1.0 / p - 1.0 / q) * math.pi / 2


def _line_candidates(table) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Uncertified lines of every table row: (row, m, slope, intercept) arrays.

    A row's gap vanishes on phi2 = slope * phi1 + base + m pi; the lines are
    those with base + m pi in [0, 2 pi) up to 1e-12, in table order and then
    by m.  Going up from m_lo = ceil(-base/pi - 1e-12), base + m pi is at
    least -pi * 1e-12, so m_lo + 3 is past 2 pi and three values of m cover
    every row.
    """
    p, q = table.p, table.q
    type1 = np.arange(len(table.indices)) < table.n_type1
    base = np.where(type1, table.j * p * math.pi / q + _TYPE1_CONST(p, q), -table.j * q * math.pi / p)
    m = np.ceil(-base / math.pi - 1e-12).astype(np.int64)[:, None] + np.arange(3)
    intercept = base[:, None] + m * math.pi
    keep = (intercept >= -1e-12) & (intercept < TWO_PI - 1e-12)
    # type I: horizontal; type II, k even: slope (-1)^m; k odd: (-1)^(m+1)
    slope = np.where(type1[:, None], 0, np.where((m + table.k[:, None]) % 2 == 0, 1, -1))
    row = np.broadcast_to(np.arange(len(type1))[:, None], m.shape)
    # max(intercept, 0.0) as Python's max takes it: -0.0 stays -0.0
    intercept = np.where(intercept < 0.0, 0.0, intercept)
    return row[keep], m[keep], slope[keep], intercept[keep]


def singular_lines(params: TorusParams) -> list[SingularLine]:
    """All singular lines with intercepts in [0, 2*pi), each certified.

    Certification samples phi1 along the line and demands the owning
    crossing's height gap, at the table row the line was made from, vanish
    below 1e-9; a failing line raises CertificationFailure rather than being
    dropped.
    """
    table = _crossing_table(params)
    rows, m, slopes, intercepts = _line_candidates(table)
    phi2 = _phi2_along(slopes, intercepts, _CERT_PHI1)
    residual = np.abs(table.height_gap(rows[:, None], _CERT_PHI1, phi2))
    owners = [table.indices[r] for r in rows.tolist()]
    build = SingularLine._build
    lines = [
        build(ix.kind, ix.k, ix.j, mi, slope, intercept)
        for ix, mi, slope, intercept in zip(owners, m.tolist(), slopes.tolist(), intercepts.tolist())
    ]
    failing = np.argwhere(residual > _CERT_TOL)
    if len(failing):
        i, s = failing[0]
        raise CertificationFailure(
            f"line {lines[i]} fails for crossing {owners[i].key()}: "
            f"residual {residual[i, s]:.3e} at phi1={_CERT_PHI1[s]:.6f}"
        )
    return lines


def certify_intercept_reading(params: TorusParams) -> tuple[str, float, float]:
    """Resolve the grouping of the horizontal-line intercept constant.

    Tries (1/p - 1/q) * pi/2 against (1/p - 1/q) / (2*pi) and returns
    (certified reading, its worst residual, best residual of the rejected
    reading).  The height-gap oracle, not the transcription, decides.
    """
    p, q = params.p, params.q
    readings = {
        "(1/p - 1/q) * pi/2": (1.0 / p - 1.0 / q) * math.pi / 2,
        "(1/p - 1/q) / (2*pi)": (1.0 / p - 1.0 / q) / (2 * math.pi),
    }
    results = {}
    table = _crossing_table(params)
    type1 = [(i, ix.j) for i, ix in enumerate(table.indices) if ix.kind == TYPE_I]
    rows = np.array([[i] for i, _ in type1])
    for name, const in readings.items():
        phi2 = np.array([[reduce_angle(j * p * math.pi / q + const)] for _, j in type1])
        results[name] = float(np.abs(table.height_gap(rows, _CERT_PHI1, phi2)).max())
    good = min(results, key=results.get)
    bad = max(results, key=results.get)
    if results[good] > _CERT_TOL:
        raise CertificationFailure(f"neither intercept reading certifies: {results}")
    return good, results[good], results[bad]


# ---------------------------------------------------------------------------
# Phase map raster


_PALETTE = (
    (31, 119, 180), (255, 127, 14), (44, 160, 44), (214, 39, 40),
    (148, 103, 189), (140, 86, 75), (227, 119, 194), (127, 127, 127),
    (188, 189, 34), (23, 190, 207), (174, 199, 232), (255, 187, 120),
    (152, 223, 138), (255, 152, 150), (197, 176, 213), (196, 156, 148),
)
_SINGULAR_COLOR = (0, 0, 0)
# The raster's shortcuts (_phase_classes) decide a cell from stand-ins for its
# gaps a[i1] - b[i2]: the type-I bound |b| - max |a| and the exact-arithmetic
# type-II product -4 sin(p d) F G.  A stand-in is trusted only where it clears
# EPS_SINGULAR by a margin of _FAST_MARGIN_PER_Q * (q + 1), which must exceed
# how far it can stray from the floats.  The tables round arguments such as
# p s + phi and (q s + k pi)/2, at most 2 pi (q + 1) in size, so each sine is
# off by a few 2^-53 * 2 pi (q + 1); the identity sin((q-p) d) =
# -(-1)^k sin(p d) behind the product is off by q times the rounding of d; and
# type-I rows have |a| <= 2 |sin(p d)|, a rounding error of p d = -k pi.  Summed,
# a stand-in strays by at most about 2e-14 * (q + 1) (1.2e-13 measured at
# q = 29, see test_phases), so the margin is 50 times that at any q.  A wider
# margin costs nothing measurable: a singular line either passes through cell
# centres, where the gap is a rounding error, or misses them by much more.
_FAST_MARGIN_PER_Q = 1e-12
# the raster's memory budget; see phase_map_render
MAX_GRID = 2048


@dataclass
class PhaseMap:
    """Sign-vector classes over a grid of phase-square cells.

    classes[i1, i2] is the class id of the cell centred at
    ((i1 + 0.5) h, (i2 + 0.5) h), h = 2*pi/grid; -1 marks cells whose centre
    sits numerically on a singular line, |height gap| <= EPS_SINGULAR.  On
    this lattice whole diagonals do: at every grid i1 = i2 and
    i1 + i2 = grid - 1 (phi1 = phi2 and phi1 + phi2 = 2 pi), and more at even
    grids.
    A cell's sign key is its bits (height gap > 0) over the crossing table's
    rows, type I first.  Ids are the ranks of the keys in lexicographic order
    among all cells, singular ones included, so they may skip values;
    n_classes counts the distinct ids that remain.
    """

    params: TorusParams
    grid: int
    classes: np.ndarray
    n_classes: int
    lines: list[SingularLine]
    marks: list[tuple[PhasePoint, str]] = field(default_factory=list)

    def cell_of(self, point: PhasePoint) -> tuple[int, int]:
        h = TWO_PI / self.grid
        i1 = min(int(point.phi1 / h), self.grid - 1)
        i2 = min(int(point.phi2 / h), self.grid - 1)
        return i1, i2

    def class_at(self, point: PhasePoint) -> int:
        i1, i2 = self.cell_of(point)
        return int(self.classes[i1, i2])

    def _rgb(self) -> np.ndarray:
        """(grid, grid, 3) uint8 image, row 0 at phi2 = 0 (flip when drawing)."""
        cls = self.classes.T  # rows follow phi2
        colour = cls % len(_PALETTE)
        colour[cls < 0] = len(_PALETTE)  # _SINGULAR_COLOR, after the palette
        return np.take(np.array(_PALETTE + (_SINGULAR_COLOR,), dtype=np.uint8), colour, axis=0)

    def to_png_bytes(self, scale: int = 2) -> bytes:
        from .render import phase_map_png

        return phase_map_png(self, scale=scale)

    def to_svg(self, size: int = 640) -> str:
        from .render import phase_map_svg

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


def _type2_factors(table, n1: int, grid: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sin(p d) of the type-II rows (table rows n1 on) and their factors F, G at the cell centres.

    With d = -k pi/q, sin((q-p) d) = -(-1)^k sin(p d), and sin a - sin b =
    2 cos((a+b)/2) sin((a-b)/2) with a = p s + phi1, b = (q-p) s + phi2 + k pi
    turns the height gap into -4 sin(p d) F[i1 + i2] G[i1 - i2 + grid - 1],
    since (phi1 + phi2)/2 = (i1 + i2 + 1) h/2 and (phi1 - phi2)/2 =
    (i1 - i2) h/2 at cell centres.  F and G are (2 grid - 1, n - n1).
    """
    p, q = table.p, table.q
    k = table.k[n1:].astype(float)
    s, d = 0.5 * (table.t1[n1:] + table.t2[n1:]), 0.5 * (table.t1[n1:] - table.t2[n1:])
    half_h = 0.5 * TWO_PI / grid
    f = np.cos(half_h * np.arange(1, 2 * grid)[:, None] + 0.5 * (q * s + k * math.pi))
    g = np.sin(half_h * np.arange(1 - grid, grid)[:, None] + 0.5 * ((2 * p - q) * s - k * math.pi))
    return np.sin(p * d), f, g


def _exact_keys(a: np.ndarray, b: np.ndarray, n1: int, cells: np.ndarray):
    """Packed keys (type-I bytes, then type-II bytes) and singular flags of the masked cells, in C order."""
    e1, e2 = np.nonzero(cells)
    n = a.shape[1]
    keys = [np.empty((0, (n1 + 7) // 8 + (n - n1 + 7) // 8), dtype=np.uint8)]
    singular = [np.empty(0, dtype=bool)]
    step = max(1, 2**20 // n)
    for lo in range(0, len(e1), step):
        gap = a[e1[lo : lo + step]] - b[e2[lo : lo + step]]
        singular.append((np.abs(gap) <= EPS_SINGULAR).any(axis=1))
        bits = gap > 0.0
        keys.append(np.concatenate([np.packbits(bits[:, :n1], axis=1), np.packbits(bits[:, n1:], axis=1)], axis=1))
    return np.concatenate(keys), np.concatenate(singular)


def _phase_classes(table, grid: int) -> tuple[np.ndarray, int]:
    """Class ids of the cells (see PhaseMap) and the number of non-singular classes.

    The gap at cell (i1, i2) is a[i1] - b[i2], with (grid, n) tables a, b
    from table.gap_terms, the floats of height_gap.  Away from a few
    cells, a cell's key follows from small tables:
    - type-I rows have |sin(p d)| below 1e-14, so |a| is tiny; in a column
      i2 where every |b| clears EPS_SINGULAR + max |a| + margin, the
      sign bits are b < 0 for every i1;
    - type-II gaps are -4 sin(p d) F G (_type2_factors); where every |F| and
      |G| exceeds tol = sqrt((EPS_SINGULAR + margin) / (4 |sin(p d)|)),
      |gap| exceeds EPS_SINGULAR + margin and its sign is that of the
      product.
    So the key is (type-I id of i2, type-II id of the pair (i1 + i2, i1 - i2)),
    and each distinct key is packed once.  The other cells (within the margin
    of a type-I band, or on a sum or difference with a small factor: the
    diagonals through cell centres) get the exact a - b on all rows, which
    decides their bits and the EPS_SINGULAR test.  Ids rank the packed keys of
    all cells, type-I rows first as in the table, so they are the ranks of
    the full lexicographic sign keys.

    Here margin = _FAST_MARGIN_PER_Q * (q + 1), whose comment says why it
    covers the rounding.
    """
    n1 = table.n_type1
    phi = ((np.arange(grid) + 0.5) * (TWO_PI / grid))[:, None]
    a, b = table.gap_terms(slice(None), phi, phi)
    edge = EPS_SINGULAR + _FAST_MARGIN_PER_Q * (table.q + 1)

    # type-I rows: one key per column i2
    band = (np.abs(b[:, :n1]) <= edge + np.abs(a[:, :n1]).max(axis=0)).any(axis=1)
    bytes1, id1 = _rank_rows(np.packbits(b[:, :n1] < 0.0, axis=1))

    # type-II rows: bit = (sin(p d) < 0) ^ (F < 0) ^ (G < 0), the XOR of a sum
    # key and a difference key
    sin_pd, f, g = _type2_factors(table, n1, grid)
    tol = np.sqrt(edge / (4.0 * np.abs(sin_pd)))
    bytes_sum, id_sum = _rank_rows(np.packbits((f < 0.0) ^ (sin_pd < 0.0), axis=1))
    bytes_diff, id_diff = _rank_rows(np.packbits(g < 0.0, axis=1))
    exact = (
        _by_sum((np.abs(f) <= tol).any(axis=1), grid)
        | _by_diff((np.abs(g) <= tol).any(axis=1), grid)
        | band
    )
    fast = ~exact

    # ids of the (sum, difference) pairs, then of the (column, pair) keys,
    # that the fast cells take.  The grid^2 codes and positions are int32,
    # and each is freed once used: pair codes stay below (2 grid - 1)^2, and
    # key codes below len(bytes1) * len(pairs), which is far from 2^31 at
    # every measured size but not bounded by it, so they widen to int64 past it
    n_diff = len(bytes_diff)
    pair = _by_sum(id_sum.astype(np.int32) * n_diff, grid) + _by_diff(id_diff.astype(np.int32), grid)
    pairs, pair_id = _dense_ids(pair[fast], len(bytes_sum) * n_diff)
    del pair
    code = np.int32 if len(bytes1) * len(pairs) <= np.iinfo(np.int32).max else np.int64
    key = np.broadcast_to(id1.astype(code) * len(pairs), (grid, grid))[fast]
    key += pair_id
    del pair_id
    keys, key_id = _dense_ids(key, len(bytes1) * len(pairs))
    del key
    column, pair_of = np.divmod(keys, len(pairs))
    sum_of, diff_of = np.divmod(pairs[pair_of], n_diff)
    fast_bytes = np.concatenate([bytes1[column], bytes_sum[sum_of] ^ bytes_diff[diff_of]], axis=1)

    exact_bytes, singular = _exact_keys(a, b, n1, exact)
    _, rank = _rank_rows(np.concatenate([fast_bytes, exact_bytes]))
    exact_ids = rank[len(keys) :]
    classes = np.empty((grid, grid), dtype=np.int32)
    classes[fast] = rank.astype(np.int32)[key_id]
    classes[exact] = np.where(singular, -1, exact_ids)
    n_classes = len(np.unique(np.concatenate([rank[: len(keys)], exact_ids[~singular]])))
    return classes, n_classes


def phase_map_render(
    params: TorusParams, grid: int, mark_theorem_points: bool = True
) -> PhaseMap:
    """Colour the phase square by sign-vector class; 64 <= grid <= MAX_GRID.

    The raster builds n x grid sign tables and touches each cell a fixed
    number of times (_phase_classes), so time and memory are
    O(n * grid + grid^2).  Peaks under tracemalloc: 9.6 MB at T(7,13)/512,
    67 MB at T(7,13)/2048 and 54 MB at T(13,29)/1024 (103 MB at 2048);
    MAX_GRID bounds the grid^2 part, whose codes and ids are int32.
    """
    if grid < 64:
        raise ValueError(f"grid must be at least 64, got {grid}")
    if grid > MAX_GRID:
        raise ValueError(f"grid must be at most {MAX_GRID}, got {grid}")
    classes, n_classes = _phase_classes(_crossing_table(params), grid)
    marks = []
    if mark_theorem_points:
        marks = [
            (theorem_phase_point(params), "theorem"),
            (simplified_phase_point(params), "simplified"),
        ]
    return PhaseMap(params, grid, classes, n_classes, singular_lines(params), marks)
