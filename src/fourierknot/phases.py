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

    def phi2_at(self, phi1: float) -> float:
        return reduce_angle(self.slope * phi1 + self.intercept)

    def distance_to(self, point: PhasePoint) -> float:
        """Vertical torus distance from the point to the line."""
        d = abs(point.phi2 - self.phi2_at(point.phi1)) % TWO_PI
        return min(d, TWO_PI - d)


def _phi2_along(lines, phi1: np.ndarray) -> np.ndarray:
    """phi2_at of every line at every phi1, shape (len(lines), len(phi1))."""
    slopes = np.array([line.slope for line in lines])[:, None]
    intercepts = np.array([line.intercept for line in lines])[:, None]
    return reduce_angles(slopes * phi1 + intercepts)


@dataclass(frozen=True)
class SignVector:
    """Signs of z(t1) - z(t2) over every crossing index; the diagram fingerprint."""

    items: tuple[tuple[CrossingIndices, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(sorted(self.items)))

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


def sign_vector(params: TorusParams, point: PhasePoint) -> SignVector:
    """Sign of the height gap at every crossing; raises SingularPoint on a line."""
    table = _crossing_table(params)
    gaps = table.height_gap(slice(None), point.phi1, point.phi2).tolist()
    degenerate = [ix for ix, v in zip(table.indices, gaps) if abs(v) <= EPS_SINGULAR]
    if degenerate:
        raise SingularPoint(degenerate)
    return SignVector(tuple((ix, 1 if v > 0 else -1) for ix, v in zip(table.indices, gaps)))


def same_knot_by_phases(params: TorusParams, a: PhasePoint, b: PhasePoint) -> bool:
    """Equal sign vectors force identical diagrams, hence the same knot.

    This is a sufficient test: distinct regions of the phase square could in
    principle share a sign vector, which would still mean equal diagrams.
    """
    return sign_vector(params, a) == sign_vector(params, b)


def _TYPE1_CONST(p: int, q: int) -> float:
    # intercept constant of the horizontal singular lines; certified
    # numerically against zdiff_at_phases, see certify_intercept_reading
    return (1.0 / p - 1.0 / q) * math.pi / 2


def _line_candidates(params: TorusParams):
    """Uncertified line descriptors for every crossing index and admissible m."""
    p, q = params.p, params.q
    out = []
    for ix in _crossing_table(params).indices:
        if ix.kind == TYPE_I:
            base = ix.j * p * math.pi / q + _TYPE1_CONST(p, q)
        else:
            base = -ix.j * q * math.pi / p
        m_lo = math.ceil((-base) / math.pi - 1e-12)
        m = m_lo
        while base + m * math.pi < TWO_PI - 1e-12:
            intercept = base + m * math.pi
            if intercept < -1e-12:
                m += 1
                continue
            if ix.kind == TYPE_I:
                slope = 0
            else:
                # k even: slope (-1)^m; k odd: slope (-1)^(m+1)
                slope = 1 if (m + ix.k) % 2 == 0 else -1
            out.append(SingularLine(ix.kind, ix.k, ix.j, m, slope, max(intercept, 0.0)))
            m += 1
    return out


def singular_lines(params: TorusParams) -> list[SingularLine]:
    """All singular lines with intercepts in [0, 2*pi), each certified.

    Certification samples phi1 along the line and demands the owning
    crossing's height gap vanish below 1e-9; a failing line raises
    CertificationFailure rather than being dropped.
    """
    lines = _line_candidates(params)
    table = _crossing_table(params)
    owners = [CrossingIndices(line.kind, line.k, line.j) for line in lines]
    rows = np.array([table.row[ix] for ix in owners])
    phi2 = _phi2_along(lines, _CERT_PHI1)
    residual = np.abs(table.height_gap(rows[:, None], _CERT_PHI1, phi2))
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
_KEY_BITS = np.array([128, 64, 32, 16, 8, 4, 2, 1], dtype=np.uint8)
# key bytes appended to the cell ids between two rankings: ranks < grid^2
# <= MAX_GRID^2 = 2^22 leave 2^22 * 256^4 = 2^54 inside int64
_BYTES_PER_RANK = 4
# the raster's memory budget; see phase_map_render
MAX_GRID = 2048


@dataclass
class PhaseMap:
    """Sign-vector classes over a grid of phase-square cells.

    classes[i1, i2] is the class id of the cell centred at
    ((i1 + 0.5) h, (i2 + 0.5) h), h = 2*pi/grid; -1 marks cells whose centre
    sits numerically on a singular line.  Ids are the ranks of the cells'
    sign keys among all cells, singular ones included, so they may skip
    values; n_classes counts the distinct ids that remain.
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
        img = np.empty((self.grid, self.grid, 3), dtype=np.uint8)
        palette = np.array(_PALETTE, dtype=np.uint8)
        cls = self.classes.T  # rows follow phi2
        img[:] = palette[cls % len(palette)]
        img[cls < 0] = _SINGULAR_COLOR
        return img

    def to_png_bytes(self, scale: int = 2) -> bytes:
        from .render import phase_map_png

        return phase_map_png(self, scale=scale)

    def to_svg(self, size: int = 640) -> str:
        from .render import phase_map_svg

        return phase_map_svg(self, size=size)


def phase_map_render(
    params: TorusParams, grid: int, mark_theorem_points: bool = True
) -> PhaseMap:
    """Colour the phase square by sign-vector class; 64 <= grid <= MAX_GRID.

    The cells' sign keys are built eight crossings (one key byte) at a time,
    so memory stays O(grid^2) whatever the crossing count: about 146 MB at
    grid 1024 and 600 MB at the cap of 2048, which bounds what one call
    may allocate.
    """
    if grid < 64:
        raise ValueError(f"grid must be at least 64, got {grid}")
    if grid > MAX_GRID:
        raise ValueError(f"grid must be at most {MAX_GRID}, got {grid}")
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
        # keeps the lexicographic order of the full keys
        byte = ((gaps > 0.0) * _KEY_BITS[: len(rows), None]).sum(axis=0, dtype=np.uint8)
        ids = ids * 256 + byte
        if chunk % _BYTES_PER_RANK == _BYTES_PER_RANK - 1 or start + 8 >= n:
            _, ids = np.unique(ids, return_inverse=True)
    classes = ids.reshape(grid, grid).astype(np.int32)
    singular = singular.reshape(grid, grid)
    n_classes = len(np.unique(classes[~singular]))
    classes[singular] = -1
    marks = []
    if mark_theorem_points:
        marks = [
            (theorem_phase_point(params), "theorem"),
            (simplified_phase_point(params), "simplified"),
        ]
    return PhaseMap(params, grid, classes, n_classes, singular_lines(params), marks)
