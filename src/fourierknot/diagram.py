"""Knot diagrams from classified crossings, and identification invariants.

The diagram is read off the circle of parameter times: each crossing
contributes two passages, and sorting all passages yields the Gauss code and
the planar-diagram (PD) code.  Identification combines the crossing-family
counts and handedness laws with the Alexander polynomial, computed exactly
from the crossing-relation matrix and checked against the classical torus
closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .crossings import TYPE_I, TYPE_II, CrossingSet
from .errors import (
    IdentificationFailure,
    IncompleteCrossingSet,
    NotAKnot,
    SingularDiagram,
)
from .laurent import LaurentPolynomial, det_poly_matrix, exact_div
from .series import FourierKnot, TorusParams

OVER = "O"
UNDER = "U"


@dataclass(frozen=True)
class GaussCode:
    """Cyclic passage record: (crossing id, "O"/"U", sign) per passage."""

    entries: tuple[tuple[int, str, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(tuple(e) for e in self.entries))
        seen: dict[int, list[tuple[str, int]]] = {}
        for cid, passage, sign in self.entries:
            if passage not in (OVER, UNDER) or sign not in (1, -1):
                raise IncompleteCrossingSet(f"malformed entry ({cid}, {passage!r}, {sign})")
            seen.setdefault(cid, []).append((passage, sign))
        for cid, events in seen.items():
            if len(events) != 2:
                raise IncompleteCrossingSet(f"crossing {cid} appears {len(events)} times, expected 2")
            (p1, s1), (p2, s2) = events
            if {p1, p2} != {OVER, UNDER}:
                raise IncompleteCrossingSet(f"crossing {cid} lacks an over/under pair")
            if s1 != s2:
                raise IncompleteCrossingSet(f"crossing {cid} has inconsistent signs")

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class PDCode:
    """Planar-diagram code: one (a, b, c, d) tuple of edge labels per crossing.

    Edges are numbered 1..2N along the traversal.  The under-strand enters at
    a and leaves at c; edges are listed counterclockwise, so the over-strand
    enters at d for a right-handed crossing and at b for a left-handed one.
    """

    crossings: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "crossings", tuple(tuple(x) for x in self.crossings))
        counts: dict[int, int] = {}
        for tup in self.crossings:
            if len(tup) != 4:
                raise SingularDiagram(f"PD tuple {tup} must have four edge labels")
            for label in tup:
                counts[label] = counts.get(label, 0) + 1
        bad = {k: v for k, v in counts.items() if v != 2}
        if bad:
            raise SingularDiagram(f"edge labels must appear exactly twice, violations: {bad}")

    def __len__(self) -> int:
        return len(self.crossings)


@dataclass(frozen=True)
class DiagramSummary:
    """Identification evidence: counts, writhe and the Alexander polynomial.

    Family counts are None when the crossings carry no analytic indices
    (numeric crossing sets of arbitrary knots).
    """

    crossing_count: int
    writhe: int
    type1_count: int | None
    type2_count: int | None
    alexander: LaurentPolynomial

    def to_json(self) -> str:
        t1 = "null" if self.type1_count is None else str(self.type1_count)
        t2 = "null" if self.type2_count is None else str(self.type2_count)
        alex = ",".join(f"[{e},{c}]" for e, c in self.alexander.pairs())
        return (
            f'{{"crossings":{self.crossing_count},"writhe":{self.writhe},'
            f'"type1":{t1},"type2":{t2},"alexander":[{alex}]}}'
        )


def _sorted_passages(crossings: CrossingSet):
    """The set's passages in time order; raises if two adjacent ones coincide."""
    events = crossings.passages
    i = crossings.coincident_passage
    if i is not None:
        if i == len(events) - 1:
            raise IncompleteCrossingSet("first and last passages coincide across the wrap")
        (ta, ia, _, _), (_, ib, _, _) = events[i], events[i + 1]
        raise IncompleteCrossingSet(f"passages of crossings {ia} and {ib} coincide at t = {ta:.9f}")
    return events


def build_gauss_code(knot: FourierKnot, crossings: CrossingSet) -> GaussCode:
    """Signed Gauss code in traversal order (ids follow the (t1,t2) sort)."""
    del knot  # the passage times already determine the code
    events = _sorted_passages(crossings)
    return GaussCode(tuple((idx + 1, OVER if is_over else UNDER, sign) for _, idx, is_over, sign in events))


def build_pd_code(crossings: CrossingSet) -> PDCode:
    """PD code with edges 1..2N numbered along the traversal."""
    events = _sorted_passages(crossings)
    n2 = len(events)
    pos_of: dict[tuple[int, bool], int] = {}
    for pos, (_, idx, is_over, _) in enumerate(events):
        pos_of[(idx, is_over)] = pos

    def edge_in(pos: int) -> int:
        return pos if pos >= 1 else n2

    def edge_out(pos: int) -> int:
        return pos + 1

    tuples = []
    for idx, c in enumerate(crossings.crossings):
        pu = pos_of[(idx, False)]
        po = pos_of[(idx, True)]
        a, c_out = edge_in(pu), edge_out(pu)
        o_in, o_out = edge_in(po), edge_out(po)
        if c.sign > 0:
            tuples.append((a, o_out, c_out, o_in))
        else:
            tuples.append((a, o_in, c_out, o_out))
    return PDCode(tuple(tuples))


def writhe(crossings: CrossingSet) -> int:
    """Sum of crossing signs."""
    return sum(c.sign for c in crossings.crossings)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _pd_orientation(pd: PDCode):
    """Recover per-crossing sign and over edges from sequential labels.

    Returns a list of (a, c, over_in, over_out, sign).  The edge following e
    along the strand is e % 2N + 1; the under pair must obey c == next(a) and
    the over pair resolves the handedness.
    """
    n = len(pd)
    n2 = 2 * n

    def nxt(e: int) -> int:
        return e % n2 + 1

    out = []
    for a, b, c, d in pd.crossings:
        if c != nxt(a):
            raise NotAKnot(f"under-strand edges ({a}, {c}) are not consecutive along the curve")
        if b == nxt(d):
            sign = 1  # over-strand runs d -> b
            over_in, over_out = d, b
        elif d == nxt(b):
            sign = -1  # over-strand runs b -> d
            over_in, over_out = b, d
        else:
            raise SingularDiagram(f"over-strand edges ({b}, {d}) are not consecutive along the curve")
        out.append((a, c, over_in, over_out, sign))
    return out


def _assert_single_component(pd: PDCode):
    """The strand pairing (a<->c, b<->d) must form one cycle over all edges."""
    n2 = 2 * len(pd)
    if n2 == 0:
        return
    link: dict[int, list[int]] = {e: [] for e in range(1, n2 + 1)}
    for a, b, c, d in pd.crossings:
        link[a].append(c)
        link[c].append(a)
        link[b].append(d)
        link[d].append(b)
    seen = set()
    stack = [1]
    while stack:
        e = stack.pop()
        if e in seen:
            continue
        seen.add(e)
        stack.extend(link[e])
    if len(seen) != n2:
        raise NotAKnot(f"diagram splits into several components ({len(seen)} of {n2} edges reached)")


def alexander_from_diagram(pd: PDCode) -> LaurentPolynomial:
    """Alexander polynomial from the crossing-relation matrix, exactly.

    Each crossing contributes one linear relation over Z[t, 1/t] among the
    arcs (arcs are edges merged through over-passages); one row and one
    column of the matrix are deleted and the determinant is expanded with
    integer-exact arithmetic, then normalized to the canonical unit.  The
    rows are sparse {column: entry} dicts of at most three entries, which
    point at three shared constants (1 - t, t and -1) unless two arcs of a
    relation coincide and their entries are added.
    """
    n = len(pd)
    if n == 0:
        return LaurentPolynomial.one()
    _assert_single_component(pd)
    oriented = _pd_orientation(pd)

    n2 = 2 * n
    uf = _UnionFind(n2 + 1)
    for _, _, over_in, over_out, _ in oriented:
        uf.union(over_in, over_out)
    arc_ids: dict[int, int] = {}
    for e in range(1, n2 + 1):
        root = uf.find(e)
        if root not in arc_ids:
            arc_ids[root] = len(arc_ids)
    if len(arc_ids) != n:
        raise SingularDiagram(f"expected {n} arcs, found {len(arc_ids)}")

    def arc(e: int) -> int:
        return arc_ids[uf.find(e)]

    one_minus_t = LaurentPolynomial({0: 1, 1: -1})
    t = LaurentPolynomial({1: 1})
    minus_one = LaurentPolynomial({0: -1})
    rows: list[dict[int, LaurentPolynomial]] = []
    for a, c, over_in, _, sign in oriented:
        # Wirtinger relation, abelianized; the left-handed row is scaled by
        # the unit -t so every entry is a plain polynomial.  The three
        # constants are shared (entries are immutable); only two coinciding
        # arcs make a new entry, their sum.
        row: dict[int, LaurentPolynomial] = {}
        under_in, under_out = (t, minus_one) if sign > 0 else (minus_one, t)
        for col, e in ((arc(over_in), one_minus_t), (arc(a), under_in), (arc(c), under_out)):
            row[col] = row[col] + e if col in row else e
        rows.append(row)
    # delete arc 0's column and the first relation
    minor = [{col - 1: e for col, e in row.items() if col} for row in rows[1:]]
    det = det_poly_matrix(minor)
    if det.is_zero:
        raise SingularDiagram("crossing-relation determinant vanishes")
    return det.normalized()


def torus_alexander_oracle(params: TorusParams) -> LaurentPolynomial:
    """Closed form (t^{pq}-1)(t-1)/((t^p-1)(t^q-1)) by exact division."""
    p, q = params.p, params.q

    def cyc(n: int) -> LaurentPolynomial:
        return LaurentPolynomial({n: 1, 0: -1})

    num = cyc(p * q) * LaurentPolynomial({1: 1, 0: -1})
    return exact_div(exact_div(num, cyc(p)), cyc(q)).normalized()


def identify(knot: FourierKnot, crossings: CrossingSet, params: TorusParams) -> DiagramSummary:
    """Certify that the diagram is the (p, q) torus knot (up to mirror).

    For fully indexed crossing sets the family counts, the uniform
    left-handedness of same-direction crossings and the over-direction law of
    opposite-direction crossings are enforced; the Alexander polynomial must
    match the closed form in all cases.  Raises IdentificationFailure naming
    the first violated condition.
    """
    p, q = params.p, params.q
    indexed = crossings.fully_indexed()
    type1 = crossings.of_kind(TYPE_I)
    type2 = crossings.of_kind(TYPE_II)
    if indexed:
        if len(type1) != p * q - q:
            raise IdentificationFailure(
                "type1-count", f"expected {p * q - q} same-direction crossings, found {len(type1)}"
            )
        if len(type2) != p * q - p:
            raise IdentificationFailure(
                "type2-count", f"expected {p * q - p} opposite-direction crossings, found {len(type2)}"
            )
        bad = [c for c in type1 if c.sign != -1]
        if bad:
            raise IdentificationFailure(
                "type1-handedness", f"{len(bad)} same-direction crossings are not left-handed"
            )
        for c in type2:
            if knot.x.eval_derivative(c.t_over) <= 0.0:
                raise IdentificationFailure(
                    "type2-over-direction",
                    f"over-strand at t = {c.t_over:.6f} is not moving rightward",
                )
    alex = alexander_from_diagram(build_pd_code(crossings))
    oracle = torus_alexander_oracle(params)
    if alex != oracle:
        raise IdentificationFailure(
            "alexander-mismatch", f"diagram gives {alex}, closed form gives {oracle}"
        )
    return DiagramSummary(
        crossing_count=len(crossings),
        writhe=writhe(crossings),
        type1_count=len(type1) if indexed else None,
        type2_count=len(type2) if indexed else None,
        alexander=alex,
    )
