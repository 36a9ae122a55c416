"""Knot diagrams from classified crossings, and identification invariants.

The diagram is read off the circle of parameter times: each crossing
contributes two passages, and sorting all 2N passages gives every crossing
one record, the positions of its under- and over-passage (and its sign).
The Gauss code and the planar-diagram (PD) code are written from that
record; ``alexander_from_diagram`` reads a PD code back into it and takes
the polynomial from the (n-1)-row minor of the crossing-relation
(Wirtinger) matrix.  Identification combines the crossing-family counts and
handedness laws with the Alexander polynomial, checked against the classical
torus closed form.  identify takes the polynomial from a sweep across x
instead: the passages, cut into strands wherever the direction of x turns,
give a bridge presentation (p bridges for x = cos(p t)) whose minor, one
row per maximum but the first, has the same determinant.  The sweep packs
each label into one Python int of small fixed-width fields, updates it with
a shift per crossing in Kahn's order and certifies every update with one
mask test, widening the fields and starting again when a test fails.  Its
minor goes to laurent's determinant engine as rows of (column, exponent,
coefficient) terms, read straight from the fields.
"""

from __future__ import annotations

import collections
import itertools
import operator
from collections.abc import Hashable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .crossings import EPS_DEDUPE, CrossingSet
from .errors import (
    IdentificationFailure,
    IncompleteCrossingSet,
    NotAKnot,
    SingularDiagram,
)
from .laurent import LaurentPolynomial, _det_bareiss_lists, det_poly_matrix
from .series import FourierKnot, TorusParams

OVER = "O"
UNDER = "U"


def _as_tuple(item):
    """The item as a tuple, or the item itself when it is not iterable, for the check to refuse."""
    try:
        return tuple(item)
    except TypeError:
        return item


def _check_gauss(entries) -> None:
    """The per-entry walk: raises for the first malformed entry, else the first bad id.

    An entry is malformed unless it is a triple whose passage is "O" or
    "U", whose sign is 1 or -1 and whose id can be hashed.  A numpy array
    is neither a passage nor a sign: it compares element by element.
    """
    seen: dict[object, list[tuple[str, int]]] = {}
    for entry in entries:
        if not isinstance(entry, tuple) or len(entry) != 3:
            raise IncompleteCrossingSet(f"malformed entry {entry!r}")
        cid, passage, sign = entry
        arrays = isinstance(passage, np.ndarray) or isinstance(sign, np.ndarray)
        if not arrays and passage in (OVER, UNDER) and sign in (1, -1):
            try:
                seen.setdefault(cid, []).append((passage, sign))
                continue
            except TypeError:  # an id that cannot be hashed
                pass
        raise IncompleteCrossingSet(f"malformed entry ({cid}, {passage!r}, {sign})")
    for cid, events in seen.items():
        if len(events) != 2:
            raise IncompleteCrossingSet(f"crossing {cid} appears {len(events)} times, expected 2")
        (p1, s1), (p2, s2) = events
        if {p1, p2} != {OVER, UNDER}:
            raise IncompleteCrossingSet(f"crossing {cid} lacks an over/under pair")
        if s1 != s2:
            raise IncompleteCrossingSet(f"crossing {cid} has inconsistent signs")


@dataclass(frozen=True)
class GaussCode:
    """Cyclic passage record: (crossing id, "O"/"U", sign) per passage.

    Crossing ids may be any hashable.  Every id must appear exactly twice,
    once over and once under, with one sign.  The entries are walked one
    by one, and a refusal names the first malformed entry, else the first
    bad id in order of appearance.  build_gauss_code's codes are not
    walked (_of_columns): read from a checked CrossingSet's read-only
    columns, they are valid by construction.
    """

    entries: tuple[tuple[Hashable, str, int], ...]

    def __post_init__(self):
        entries = tuple(map(_as_tuple, self.entries))
        object.__setattr__(self, "entries", entries)
        _check_gauss(entries)

    @classmethod
    def _of_columns(cls, ids: np.ndarray, is_over: np.ndarray, sign: np.ndarray) -> "GaussCode":
        """The code of a checked set's passages: each id once over and once under (over_t1 is bool), one sign."""
        code = object.__new__(cls)
        passages = [UNDER, OVER]
        entries = tuple(zip(ids.tolist(), map(passages.__getitem__, is_over.tolist()), sign.tolist()))
        object.__setattr__(code, "entries", entries)
        return code

    def __len__(self) -> int:
        return len(self.entries)


def _check_pd(crossings) -> None:
    """The per-tuple walk: raises for a wrong length, a non-integer label or the label counts.

    Each in turn names its first offence; the label counts list every
    violation in order of first appearance.  A label is an integer when
    operator.index takes it and, for the counts, it can be hashed: a 0-d
    numpy int array passes operator.index but not the hash.
    """
    for tup in crossings:
        if not isinstance(tup, tuple) or len(tup) != 4:
            raise SingularDiagram(f"PD tuple {tup} must have four edge labels")
    for tup in crossings:
        for label in tup:
            try:
                operator.index(label)
                hash(label)
            except TypeError:
                raise SingularDiagram(f"PD tuple {tup} has a non-integer edge label {label!r}") from None
    counts = collections.Counter(itertools.chain.from_iterable(crossings))
    bad = {k: v for k, v in counts.items() if v != 2}
    if bad:
        raise SingularDiagram(f"edge labels must appear exactly twice, violations: {bad}")
    if set(counts) != set(range(1, 2 * len(crossings) + 1)):
        raise SingularDiagram(f"edge labels must be 1..{2 * len(crossings)}")


@dataclass(frozen=True)
class PDCode:
    """Planar-diagram code: one (a, b, c, d) tuple of edge labels per crossing.

    Edges are numbered 1..2N along the traversal.  The under-strand enters at
    a and leaves at c; edges are listed counterclockwise, so the over-strand
    enters at d for a right-handed crossing and at b for a left-handed one.
    Every label must be an integer, and each of 1..2N must appear exactly
    twice.  The tuples are walked one by one, and a refusal names the first
    offence.  build_pd_code's codes are not walked (_of_array): read from
    a checked CrossingSet's read-only columns, they are valid by
    construction.
    """

    crossings: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self):
        crossings = tuple(map(_as_tuple, self.crossings))
        object.__setattr__(self, "crossings", crossings)
        _check_pd(crossings)

    @classmethod
    def _of_array(cls, labels: np.ndarray) -> "PDCode":
        """The code of a checked set's (N, 4) labels: from a permutation of positions, so each of 1..2N comes twice."""
        code = object.__new__(cls)
        object.__setattr__(code, "crossings", tuple(map(tuple, labels.tolist())))
        return code

    def __len__(self) -> int:
        return len(self.crossings)


class DiagramSummary(NamedTuple):
    """Identification evidence: counts, writhe and the Alexander polynomial.

    Family counts are None when the crossings carry no analytic indices
    (numeric crossing sets of arbitrary knots).  A tuple of its five fields.
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
    """The set's passage arrays in time order; raises if a singular candidate was dropped or two coincide."""
    if crossings.singular_candidates:
        raise IncompleteCrossingSet(f"{crossings.singular_candidates} singular candidate(s) dropped")
    times, ids, is_over = crossings.passages
    i = crossings.coincident_passage
    if i is not None:
        if i == len(times) - 1:
            raise IncompleteCrossingSet("first and last passages coincide across the wrap")
        raise IncompleteCrossingSet(
            f"passages of crossings {ids[i]} and {ids[i + 1]} coincide at t = {times[i]:.9f}"
        )
    return times, ids, is_over


def build_gauss_code(knot: FourierKnot, crossings: CrossingSet) -> GaussCode:
    """Signed Gauss code in traversal order (ids follow the (t1,t2) sort)."""
    del knot  # the passage times already determine the code
    _, ids, is_over = _sorted_passages(crossings)
    return GaussCode._of_columns(ids + 1, is_over, crossings.sign[ids])


def _passage_positions(crossings: CrossingSet) -> np.ndarray:
    """Per crossing, in index order: its (under, over) positions, an (N, 2) array.

    Positions index the sorted passages, 0..2N-1.  The 2N passages lie on one
    circle of parameter times, so the positions are a permutation.
    """
    _, ids, is_over = _sorted_passages(crossings)
    pos = np.empty((len(crossings), 2), dtype=np.intp)
    pos[ids, is_over] = np.arange(len(ids))
    return pos


def build_pd_code(crossings: CrossingSet) -> PDCode:
    """PD code with edges 1..2N numbered along the traversal.

    The passage at position pos enters on edge pos (2N for pos 0) and leaves
    on edge pos + 1.
    """
    pu, po = _passage_positions(crossings).T
    n2 = 2 * len(crossings)
    a, c, o_in, o_out = np.where(pu, pu, n2), pu + 1, np.where(po, po, n2), po + 1
    right = crossings.sign > 0
    return PDCode._of_array(np.column_stack((a, np.where(right, o_out, o_in), c, np.where(right, o_in, o_out))))


def writhe(crossings: CrossingSet) -> int:
    """Sum of crossing signs."""
    return int(crossings.sign.sum())


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


def alexander_from_diagram(pd: PDCode) -> LaurentPolynomial:
    """Alexander polynomial of a PD code from its crossing-relation matrix.

    The passages read back from the labels must take every position once,
    else the diagram is not one closed strand.  Arcs break at
    under-passages: the arc leaving position e is the count of
    under-passages at positions 1..e, mod N.  Each crossing gives one
    abelianized Wirtinger relation over Z[t, 1/t]; one row and one column
    are deleted, and the determinant is expanded exactly and normalized.
    The sparse {column: entry} rows share three constants (1 - t, t and -1)
    unless two arcs of a relation coincide.  Raises NotAKnot for
    non-consecutive under edges or several strands, and SingularDiagram for
    non-consecutive over edges or Delta(1) != +-1 (at t = 1 each row is
    +-(x_in - x_out): one strand's minor is a path's reduced incidence matrix).
    """
    record = _pd_orientation(pd)
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
    at_one = sum(c for _, c in det.pairs())
    if abs(at_one) != 1:
        raise SingularDiagram(f"crossing-relation determinant has Delta(1) = {at_one}, not +-1")
    return det.normalized()


def _label_pass(steps: list[tuple[int, int, bool]], f: int, depth: int, bits: int) -> list[int] | None:
    """The sweep's 2f strand labels after `steps` in fields of `bits` bits, or None when one overflowed.

    A step (under, over, rising) sets the under-strand's label L to
    O + t*(L - O) when rising, else O + t^-1*(L - O), for the over-strand's
    label O.  A label is one Python int: field slot*(f - 1) + g - 1 holds
    the coefficient of t^(slot - depth) in generator g plus 2^(bits - 3),
    for generators 1..f - 1 and slots 0..2*depth, so t^{+-1} is a shift by
    bits*(f - 1) and the biases cancel in L - O.  See _alexander_from_sweep
    for why each step is exact.
    """
    gens = f - 1
    ones = ((1 << bits * (2 * depth + 1) * gens) - 1) // ((1 << bits) - 1)  # a 1 in every field
    bias, mask, shift = ones << (bits - 3), ones * (3 << (bits - 2)), bits * gens
    labels = [bias] * 2 + [bias + (1 << bits * (depth * gens + s // 2 - 1)) for s in range(2, 2 * f)]
    for under, over, rising in steps:
        o = labels[over]
        new = o + ((labels[under] - o) << shift if rising else (labels[under] - o) >> shift)
        if new & mask:  # a field left [0, 2^(bits - 2))
            return None
        labels[under] = new
    return labels


def _sweep_minor(steps: list[tuple[int, int, bool]], f: int, depth: int) -> list[list[tuple[int, int, int]]]:
    """The sweep's f - 1 bridge rows from its steps in Kahn order, D = depth levels deep.

    The labels are packed first in 8-bit fields and, while a field
    overflows, again at twice the width (see _alexander_from_sweep).  The
    2f - 2 labels the rows read are cut into fields with int.to_bytes and
    np.frombuffer, and the biases cancel in each row label(2m - 1) -
    label(2m).  Returns the rows in the form laurent._det_bareiss_lists
    takes: per row, its nonzero (column, exponent, coefficient) terms in
    column and then exponent order, the field of slot s giving exponent
    s - D, as Python ints through tolist(), so any sum over them is exact.
    Fields of up to 64 bits are read as int64, where two fields below 2^62
    (the mask) differ without wrapping; wider ones sum their 64-bit limbs.
    """
    bits = 8
    while (labels := _label_pass(steps, f, depth, bits)) is None:
        bits *= 2
    raw = b"".join(label.to_bytes((2 * depth + 1) * (f - 1) * bits // 8, "little") for label in labels[1:-1])
    if bits <= 64:
        fields = np.frombuffer(raw, dtype=f"<u{bits // 8}").astype(np.int64)
    else:  # each field from its little-endian 64-bit limbs
        limbs = np.frombuffer(raw, dtype="<u8").astype(object).reshape(-1, bits // 64)
        fields = sum(limbs[:, j] << 64 * j for j in range(bits // 64))
    pairs = fields.reshape(f - 1, 2, 2 * depth + 1, f - 1)  # [maximum, side, slot, generator]
    minor = (pairs[:, 0] - pairs[:, 1]).transpose(0, 2, 1)  # [row, column, slot]
    row, col, slot = np.nonzero(minor)
    terms = list(zip(col.tolist(), (slot - depth).tolist(), minor[row, col, slot].tolist()))
    ends = np.searchsorted(row, np.arange(f)).tolist()
    return [terms[i:j] for i, j in zip(ends, ends[1:])]


def _alexander_from_sweep(knot: FourierKnot, crossings: CrossingSet) -> LaurentPolynomial:
    """Alexander polynomial from a sweep across x: a (f-1)-row bridge minor.

    The passages, in time order, are cut into strands on which x moves one
    way; a passage rises when x' > 0.  Passage 0 lies on strand 0 if it
    falls and on strand 1 if it rises; each later passage starts a new
    strand when the direction turned (one more) or when x gained at most
    delta = EPS_DEDUPE*x.norm(1) towards rising x since the previous
    passage (a fold: two more, leaving an empty strand of the other
    direction between).  So x falls on even strands, t = 0 is always a cut,
    and the last passage's strand s gives 2f strands, f = s // 2 + 1; for
    x = cos(p t) the cuts are the critical times k*pi/p.  Minimum m joins
    strands 2m and 2m + 1, maximum m joins 2m - 1 and 2m (0 and 2f - 1
    across t = 0): an f-bridge presentation with one generator per minimum,
    labels in Z[t, 1/t]^f, and both strands of minimum m starting at e_m.
    Each strand's crossings, ordered by time and oriented towards rising x,
    form a chain; crossings are taken in Kahn order over the chains, never
    sorted by float x, and a cycle raises SingularDiagram.  At a crossing
    the under-strand's label right of it, from its label L left of it and
    the over-strand's label O, is t*L + (1 - t)*O when the sign is +1 and x
    rises along the under-strand, or the sign is -1 and x falls; otherwise
    it is t^-1*(L - (1 - t)*O).  Both solve identify's abelianized
    Wirtinger relation for that arc, and both read O + t^{+-1}*(L - O).
    Maximum m gives the row label(2m - 1) - label(2m); row 0 and column 0
    are dropped.  With no crossing the minor is unimodular and the
    polynomial is 1.

    Any cuts between passages give the polynomial: a cut adds one arc and
    the relation equating its two sides, which a Tietze move takes away
    again, so the determinant is the polynomial up to a unit whenever
    Kahn's order exists.  On a genuine crossing set it does: x grows by
    more than delta at each step of a chain, and a crossing's two passages
    agree in x to far less than delta/2, so x at the crossings orders every
    chain.  A passage with |x'| <= EPS_DEDUPE*x.norm(2) raises
    SingularDiagram: its direction is unsettled, and the bound covers every
    passage within EPS_DEDUPE of a critical time (|x''| <= x.norm(2)),
    the distance at which the set calls two passage times the same.

    Kahn's order is walked one crossing at a time; it is taken a level at a
    time only to count its D levels.  Level l holds the crossings whose
    chain predecessors all lie in levels before it, so a crossing of level
    l reads labels that levels before l wrote.  Generator 0 is dropped: its
    column is deleted from the minor, and an update never mixes generators,
    so it never feeds the others.  Each label is one Python int of K-bit
    fields (see _label_pass): one field per exponent slot -D..D and
    generator 1..f - 1, storing the coefficient plus 2^(K-3).  A crossing
    costs one update O + ((L - O) << K*(f - 1)), or >> for t^-1, and one
    AND with a mask of every field's top two bits.
    Why each step is exact:
    - the shifts: after level l every exponent lies in [-l, l], so the
      labels a crossing of level l <= D reads lie in [-(D - 1), D - 1] and
      leave the lowest and the highest slot empty.  The right shift then
      drops only zero bits, and the left shift moves no term past the top
      slot;
    - the certificate: while every field lies in [0, 2^(K-2)), every
      coefficient lies in [-2^(K-3), 2^(K-3)), so an update's true
      coefficients lie within 3*2^(K-3) of 0 and its biased fields within
      (-2^(K-2), 2^(K-1)).  The lowest field outside [0, 2^(K-2)) then
      gets no carry from below and shows one of its top two bits, so a
      passing mask test leaves no hidden carry and every field is its
      biased coefficient;
    - a failed test restarts the walk at 2K bits, from K = 8, so the labels
      stay exact at any size and nothing is refused (see _sweep_minor).
    The minor's term rows go straight to laurent's engine
    (_det_bareiss_lists), past det_poly_matrix, whose unit reduction finds
    no pivot on the theorem knots' sweep minors, and no entry is built as a
    LaurentPolynomial.  The determinant is exact, so the result does not
    depend on the rows' shifts, which normalized() removes.  At t = 1 each
    update O + t*(L - O) is L, so the minor is bidiagonal in +-1, and a
    determinant with Delta(1) != +-1 raises SingularDiagram.
    """
    t, cid, is_over = _sorted_passages(crossings)
    n = len(crossings)
    if not n:
        return LaurentPolynomial.one()
    slope = knot.x.eval_derivative(t)
    near = np.flatnonzero(np.abs(slope) <= EPS_DEDUPE * knot.x.norm(2))
    if near.size:
        k = near[0]
        raise SingularDiagram(
            f"passage of crossing {cid[k]} at t = {t[k]:.9f} may lie within {EPS_DEDUPE:g} "
            f"of a critical time of x (|x'| = {abs(slope[k]):.3g})"
        )
    up = slope > 0.0
    gain = np.diff(knot.x.eval(t))
    gain[~up[1:]] *= -1.0  # towards rising x: back in time on a falling strand
    # passage to passage: a new strand where the direction turns, two at a fold, none on a chain link
    step = np.where(up[1:] != up[:-1], 1, 2 * (gain <= EPS_DEDUPE * knot.x.norm(1)))
    s = np.cumsum(np.concatenate(([up[0]], step)))
    f = int(s[-1]) // 2 + 1
    strand = np.empty((n, 2), dtype=np.intp)  # [under strand, over strand] per crossing
    strand[cid, is_over] = s
    rising = (crossings.sign > 0) == (strand[:, 0] % 2 == 1)  # the new label is O + t*(L - O)
    # chain links join passages i and i + 1 on one strand, oriented towards rising x
    link = np.flatnonzero(step == 0)
    head = link + ~up[link + 1]
    tail = link + up[link + 1]
    succ = np.full((n, 2), n, dtype=np.intp)  # [next on under strand, next on over strand]; n: none
    succ[cid[head], is_over[head]] = cid[tail]
    indeg = np.bincount(cid[tail], minlength=n + 1)
    indeg[n] = -1  # the stand-in successor n never becomes ready

    succ, indeg = succ.tolist(), indeg.tolist()
    steps = list(zip(*strand.T.tolist(), rising.tolist()))  # (under, over, rising) per crossing
    order: list[int] = []
    ready = [i for i in range(n) if not indeg[i]]
    depth = 0
    while ready:
        order += ready
        depth += 1
        level, ready = ready, []
        for i in level:
            for j in succ[i]:
                indeg[j] -= 1
                if not indeg[j]:
                    ready.append(j)
    if len(order) != n:
        raise SingularDiagram(f"the strands' crossing order has a cycle through {n - len(order)} crossing(s)")

    low, det = _det_bareiss_lists(_sweep_minor([steps[i] for i in order], f, depth))
    if abs(sum(det)) != 1:
        raise SingularDiagram(f"bridge-relation determinant has Delta(1) = {sum(det)}, not +-1")
    return LaurentPolynomial._adopt({e: c for e, c in enumerate(det, low) if c}).normalized()


def torus_alexander_oracle(params: TorusParams) -> LaurentPolynomial:
    """Closed form (t^{pq}-1)(t-1)/((t^p-1)(t^q-1)), read off the semigroup <p, q>.

    Delta(t) = (1 - t)*sum_{s in <p,q>, s < c} t^s + t^c, with c = (p-1)(q-1)
    the conductor of the semigroup generated by p and q (Campillo, Delgado
    and Gusein-Zade, "The Alexander polynomial of a plane curve singularity
    via the ring of functions on it", 2003).  The semigroup below c is the
    union of the progressions a + q*N over the multiples a of p below c.
    The result is normalized: its lowest term is the constant 1.
    """
    p, q = params.p, params.q
    c = (p - 1) * (q - 1)
    member = np.zeros(c, dtype=np.int64)
    for a in range(0, c, p):
        member[a::q] = 1
    coeffs = np.zeros(c + 1, dtype=np.int64)
    coeffs[:c] += member
    coeffs[1:] -= member
    coeffs[c] += 1
    exps = np.flatnonzero(coeffs)
    return LaurentPolynomial._adopt(dict(zip(exps.tolist(), coeffs[exps].tolist())))


def identify(knot: FourierKnot, crossings: CrossingSet, params: TorusParams) -> DiagramSummary:
    """Certify that the diagram is the (p, q) torus knot (up to mirror).

    For fully indexed crossing sets the family counts, the uniform
    left-handedness of same-direction crossings and the over-direction law of
    opposite-direction crossings are enforced; the Alexander polynomial must
    match the closed form in all cases.  The polynomial is built straight
    from the set's crossings, without a PD code, by the x-sweep's bridge
    minor for any x (see _alexander_from_sweep): the strands are cut where
    the direction of x turns at the passages, and any cuts between passages
    give the polynomial, so it reads the curve's crossings, not a braid
    word.  Raises IdentificationFailure naming the first violated condition;
    the sweep raises SingularDiagram for a passage near a critical time of
    x, and IncompleteCrossingSet for coincident passages or a set that
    dropped a singular candidate.
    """
    p, q = params.p, params.q
    indexed = bool(np.all(crossings.kind >= 0))
    type1, type2 = crossings.kind == 0, crossings.kind == 1
    n1, n2 = int(type1.sum()), int(type2.sum())
    if indexed:
        if n1 != p * q - q:
            raise IdentificationFailure(
                "type1-count", f"expected {p * q - q} same-direction crossings, found {n1}"
            )
        if n2 != p * q - p:
            raise IdentificationFailure(
                "type2-count", f"expected {p * q - p} opposite-direction crossings, found {n2}"
            )
        bad = int(np.count_nonzero(crossings.sign[type1] != -1))
        if bad:
            raise IdentificationFailure(
                "type1-handedness", f"{bad} same-direction crossings are not left-handed"
            )
        # for x = cos(p t) the analytic passages lie at least pi/(2pq) from a
        # critical time, so |x'| >= p*sin(pi/(2q)) there: the sign test has room
        over_times = np.where(crossings.over_t1, crossings.t1, crossings.t2)[type2]
        wrong = np.flatnonzero(knot.x.eval_derivative(over_times) <= 0.0)
        if wrong.size:
            raise IdentificationFailure(
                "type2-over-direction",
                f"over-strand at t = {over_times[wrong[0]]:.6f} is not moving rightward",
            )
    alex = _alexander_from_sweep(knot, crossings)
    oracle = torus_alexander_oracle(params)
    if alex != oracle:
        raise IdentificationFailure(
            "alexander-mismatch", f"diagram gives {alex}, closed form gives {oracle}"
        )
    return DiagramSummary(
        crossing_count=len(crossings),
        writhe=writhe(crossings),
        type1_count=n1 if indexed else None,
        type2_count=n2 if indexed else None,
        alexander=alex,
    )
