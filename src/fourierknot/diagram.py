"""Knot diagrams from classified crossings, and identification invariants.

The diagram is read off the circle of parameter times: each crossing
contributes two passages, and sorting all 2N passages gives every crossing
one record, the positions of its under- and over-passage (and its sign).
The Gauss code, the planar-diagram (PD) code and the crossing-relation
(Wirtinger) matrix are all written from that record; a PD code is read back
into it, and ``alexander_from_diagram`` takes the polynomial from its
(n-1)-row minor.  Identification combines the crossing-family counts and
handedness laws with the Alexander polynomial, checked against the classical
torus closed form.  When x is one cosine term, as in every knot the theorem
generator makes, identify takes the polynomial from a sweep across x
instead: the curve's own crossings, read along the 2p strands between the
critical times of x = cos(p t), give a p-bridge presentation whose
(p-1)-row minor has the same determinant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .crossings import EPS_DEDUPE, TYPE_I, TYPE_II, CrossingSet
from .errors import (
    IdentificationFailure,
    IncompleteCrossingSet,
    NotAKnot,
    SingularDiagram,
    WrongKnotShape,
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
    Every label 1..2N must appear exactly twice.
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
        if set(counts) != set(range(1, 2 * len(self.crossings) + 1)):
            raise SingularDiagram(f"edge labels must be 1..{2 * len(self.crossings)}")

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
    """The set's passages in time order; raises if a singular candidate was dropped or two coincide."""
    if crossings.singular_candidates:
        raise IncompleteCrossingSet(f"{crossings.singular_candidates} singular candidate(s) dropped")
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


def _passage_positions(crossings: CrossingSet) -> list[tuple[int, int, int]]:
    """Per crossing, in index order: (under position, over position, sign).

    Positions index the sorted passages, 0..2N-1.  The 2N passages lie on one
    circle of parameter times, so the positions are a permutation.
    """
    pos = {(idx, is_over): p for p, (_, idx, is_over, _) in enumerate(_sorted_passages(crossings))}
    return [(pos[i, False], pos[i, True], c.sign) for i, c in enumerate(crossings.crossings)]


def build_pd_code(crossings: CrossingSet) -> PDCode:
    """PD code with edges 1..2N numbered along the traversal.

    The passage at position pos enters on edge pos (2N for pos 0) and leaves
    on edge pos + 1.
    """
    n2 = 2 * len(crossings)
    tuples = []
    for pu, po, sign in _passage_positions(crossings):
        a, c, o_in, o_out = pu or n2, pu + 1, po or n2, po + 1
        tuples.append((a, o_out, c, o_in) if sign > 0 else (a, o_in, c, o_out))
    return PDCode(tuple(tuples))


def writhe(crossings: CrossingSet) -> int:
    """Sum of crossing signs."""
    return sum(c.sign for c in crossings.crossings)


def _pd_orientation(pd: PDCode) -> list[tuple[int, int, int]]:
    """Read (under position, over position, sign) per crossing back from the labels.

    Edge e is followed by next(e) = e % 2N + 1, and the passage between them
    sits at position e mod 2N.  The under pair must obey c == next(a); the
    over pair gives the handedness.  With N = 1 both readings of it fit, and
    the over-strand enters on the edge the under-strand does not.
    """
    n2 = 2 * len(pd)

    def nxt(e: int) -> int:
        return e % n2 + 1

    out = []
    for a, b, c, d in pd.crossings:
        if c != nxt(a):
            raise NotAKnot(f"under-strand edges ({a}, {c}) are not consecutive along the curve")
        if b == nxt(d) and not (n2 == 2 and d == a):
            sign, over_in = 1, d  # over-strand runs d -> b
        elif d == nxt(b):
            sign, over_in = -1, b  # over-strand runs b -> d
        else:
            raise SingularDiagram(f"over-strand edges ({b}, {d}) are not consecutive along the curve")
        out.append((a % n2, over_in % n2, sign))
    return out


def _alexander_from_positions(record: list[tuple[int, int, int]]) -> LaurentPolynomial:
    """Alexander polynomial from (under position, over position, sign) per crossing.

    The 2N passages must take every position once, else the diagram is not
    one closed strand.  Arcs break at under-passages: the arc leaving
    position e is the count of under-passages at positions 1..e, mod N.
    Each crossing gives one abelianized Wirtinger relation over Z[t, 1/t];
    one row and one column are deleted, and the determinant is expanded
    exactly and normalized.  The sparse {column: entry} rows share three
    constants (1 - t, t and -1) unless two arcs of a relation coincide.
    """
    n = len(record)
    if n == 0:
        return LaurentPolynomial.one()
    is_under: list[bool | None] = [None] * (2 * n)
    for pu, po, _ in record:
        for pos, under in ((pu, True), (po, False)):
            if is_under[pos] is not None:
                raise NotAKnot(f"two passages at position {pos}: the diagram is not one closed strand")
            is_under[pos] = under
    arc = [k % n for k in itertools.accumulate(is_under[1:], initial=0)]

    one_minus_t = LaurentPolynomial({0: 1, 1: -1})
    t = LaurentPolynomial({1: 1})
    minus_one = LaurentPolynomial({0: -1})
    rows: list[dict[int, LaurentPolynomial]] = []
    for pu, po, sign in record:
        # the left-handed row is scaled by the unit -t so every entry is a
        # plain polynomial; only two coinciding arcs make a new entry, their sum
        row: dict[int, LaurentPolynomial] = {}
        under_in, under_out = (t, minus_one) if sign > 0 else (minus_one, t)
        for col, e in ((arc[po - 1], one_minus_t), (arc[pu - 1], under_in), (arc[pu], under_out)):
            row[col] = row[col] + e if col in row else e
        rows.append(row)
    # delete arc 0's column and the first relation
    minor = [{col - 1: e for col, e in row.items() if col} for row in rows[1:]]
    det = det_poly_matrix(minor)
    if det.is_zero:
        raise SingularDiagram("crossing-relation determinant vanishes")
    return det.normalized()


def alexander_from_diagram(pd: PDCode) -> LaurentPolynomial:
    """Alexander polynomial of a PD code, by identify's crossing-relation matrix.

    Raises NotAKnot for non-consecutive under edges or several strands, and
    SingularDiagram for non-consecutive over edges or a zero determinant.
    """
    return _alexander_from_positions(_pd_orientation(pd))


def _accumulate(r: dict[int, int], src: dict[int, int], shift: int, sgn: int) -> None:
    """r += sgn * t**shift * src on {exponent: coefficient} maps, keeping no zero."""
    for e, c in src.items():
        e += shift
        v = r.get(e, 0) + sgn * c
        if v:
            r[e] = v
        else:
            del r[e]


def _cross_label(under: list[dict], over: list[dict], step: int) -> list[dict]:
    """over + t**step * (under - over), generator by generator.

    Maps are never mutated once in a label, so a generator on which both
    labels hold the same map keeps that map.
    """
    out = []
    for u, o in zip(under, over):
        if u is not o:
            o2 = dict(o)
            _accumulate(o2, u, step, 1)
            _accumulate(o2, o, step, -1)
            o = o2
        out.append(o)
    return out


def _alexander_from_sweep(knot: FourierKnot, crossings: CrossingSet) -> LaurentPolynomial:
    """Alexander polynomial from a sweep across x = a*cos(f*t + phi): a (f-1)-row minor.

    Write x = |a| cos(theta) with theta = f*t + phi (plus pi when a < 0).
    The 2f critical times theta = k*pi cut the curve into 2f strands on
    which x is monotone: strand s holds theta in [s*pi, (s+1)*pi] mod 2f*pi,
    x falls on even s, minimum m joins strands 2m and 2m + 1 and maximum m
    joins 2m - 1 and 2m.  That is an f-bridge presentation: one generator
    per minimum, labels in Z[t, 1/t]^f, and both strands of minimum m start
    at e_m.  Each strand's crossings, ordered by time and oriented towards
    rising x, form a chain; crossings are taken in Kahn order over the
    chains, never sorted by float x, and a cycle raises SingularDiagram.
    At a crossing the under-strand's label right of it, from its label L
    left of it and the over-strand's label O, is t*L + (1 - t)*O when the
    sign is +1 and x rises along the under-strand, or the sign is -1 and x
    falls; otherwise it is t^-1*(L - (1 - t)*O).  Both solve identify's
    abelianized Wirtinger relation for that arc.  Maximum m gives the row
    label(2m - 1) - label(2m); row 0 and column 0 are dropped.

    A passage within EPS_DEDUPE of a critical time raises SingularDiagram:
    it could lie on either strand, and EPS_DEDUPE is the distance at which
    the set already calls two passage times the same.  The analytic set of
    cos(p t) never trips it.  With u = pi/(2pq) each passage time is t_u*u
    for an integer t_u, and the critical times are the multiples of
    pi/p = 2q*u.  Type I times (2pj - 1 -/+ 2qk)*u are odd in u.  A type II
    time 2(qj -/+ pk)*u is a multiple of 2q*u only if q | pk, which
    gcd(p, q) = 1 and 0 < k < q exclude.  So every passage is at least u
    from a critical time, and u > EPS_DEDUPE while pq < 1,500,000.
    Any x but one cosine term raises WrongKnotShape.
    """
    terms = knot.x.terms
    if len(terms) != 1 or terms[0].frequency == 0 or terms[0].amplitude == 0.0:
        raise WrongKnotShape(f"the x-sweep needs x to be one non-constant cosine term, got {len(terms)} term(s)")
    f, a, phi = terms[0].frequency, terms[0].amplitude, terms[0].phase
    offset = phi / math.pi + (a < 0)
    chains: list[list[tuple[float, int, bool]]] = [[] for _ in range(2 * f)]
    for t, idx, is_over, _ in _sorted_passages(crossings):
        w = (f * t / math.pi + offset) % (2 * f)
        if min(w - math.floor(w), math.ceil(w) - w) * math.pi / f <= EPS_DEDUPE:
            raise SingularDiagram(
                f"passage of crossing {idx} at t = {t:.9f} lies within {EPS_DEDUPE:g} of a critical time of x"
            )
        chains[int(w)].append((w, idx, is_over))
    n = len(crossings)
    strand = [[0, 0] for _ in range(n)]  # [under strand, over strand] per crossing
    succ: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for s, chain in enumerate(chains):
        chain.sort(reverse=s % 2 == 0)  # towards rising x
        for _, idx, is_over in chain:
            strand[idx][is_over] = s
        for (_, i, _), (_, j, _) in zip(chain, chain[1:]):
            succ[i].append(j)
            indeg[j] += 1

    labels = [[{0: 1} if g == s // 2 else {} for g in range(f)] for s in range(2 * f)]
    ready = [i for i in range(n) if indeg[i] == 0]
    done = 0
    while ready:
        i = ready.pop()
        done += 1
        under, over = strand[i]
        step = 1 if (crossings.crossings[i].sign > 0) == (under % 2 == 1) else -1
        labels[under] = _cross_label(labels[under], labels[over], step)
        for j in succ[i]:
            indeg[j] -= 1
            if not indeg[j]:
                ready.append(j)
    if done != n:
        raise SingularDiagram(f"the strands' crossing order has a cycle through {n - done} crossing(s)")

    minor = []
    for m in range(1, f):
        row = {}
        for g in range(1, f):
            diff = dict(labels[2 * m - 1][g])
            _accumulate(diff, labels[2 * m][g], 0, -1)
            if diff:
                row[g - 1] = LaurentPolynomial(diff)
        minor.append(row)
    det = det_poly_matrix(minor)
    if det.is_zero:
        raise SingularDiagram("bridge-relation determinant vanishes")
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
    match the closed form in all cases.  The polynomial is built straight
    from the set's crossings, without a PD code: by the x-sweep's (p-1)-row
    bridge minor when x is one cosine term (see _alexander_from_sweep), else
    by the (n-1)-row crossing-relation minor of the passage positions.
    Either way it reads the curve's crossings, not a braid word.  Raises
    IdentificationFailure naming the first violated condition; the sweep
    raises SingularDiagram for a passage at a critical time of x, and both
    routes IncompleteCrossingSet for coincident passages or a set that
    dropped a singular candidate.
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
    if len(knot.x) == 1:
        alex = _alexander_from_sweep(knot, crossings)
    else:  # the three-term winding form: no exact critical times yet
        alex = _alexander_from_positions(_passage_positions(crossings))
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
