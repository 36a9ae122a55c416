"""Exact integer Laurent polynomials and polynomial-matrix determinants.

Everything in this module is integer arithmetic: no floating point touches
the topology.  A polynomial-matrix determinant is first shrunk by sparse
unit-pivot reduction.  The remainder's determinant is the integer
det(A(2**k)) at a Kronecker point sized by one Hadamard coefficient bound,
computed by fraction-free Bareiss elimination over Z with complete pivoting
on the shortest entry, and read back as balanced base-2**k digits.

Inside the reduction entries are plain {exponent: coefficient} maps.  The
engine takes each row as a list of (column, exponent, coefficient) terms,
the form det_poly_matrix flattens its remainder into and the x-sweep builds
its bridge minor in, and is the one place that turns a Laurent matrix into
Kronecker integers and reads the determinant back.
"""

from __future__ import annotations

import numbers
import operator
from collections.abc import Iterable


class LaurentPolynomial:
    """Immutable integer-coefficient polynomial in t and 1/t.

    Stored as a map exponent -> nonzero coefficient.  Exponents and
    coefficients must be integers (int, bool or a numpy integer); anything
    else, a float or a numeric string included, raises TypeError.  The
    canonical (normalized) form shifts the lowest exponent to 0 and makes
    the constant term positive; invariants are defined up to that unit.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c: dict[int, int] = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            for e, v in items:
                e, v = operator.index(e), operator.index(v)
                if v:
                    nv = c.get(e, 0) + v
                    if nv:
                        c[e] = nv
                    else:
                        c.pop(e, None)
        self._c = c

    @classmethod
    def _adopt(cls, c: dict[int, int]) -> "LaurentPolynomial":
        """Wrap an int exponent -> nonzero int coefficient dict without copying it."""
        out = object.__new__(cls)
        out._c = c
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> "LaurentPolynomial":
        return cls({exponent: coefficient})

    # -- inspection ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._c

    def coeff(self, exponent: int) -> int:
        return self._c.get(exponent, 0)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Sorted (exponent, coefficient) pairs."""
        return tuple(sorted(self._c.items()))

    def degree(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no degree")
        return max(self._c)

    def valuation(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no valuation")
        return min(self._c)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self._c)
        for e, v in other._c.items():
            nv = out.get(e, 0) + v
            if nv:
                out[e] = nv
            else:
                del out[e]
        return LaurentPolynomial._adopt(out)

    def __neg__(self):
        return LaurentPolynomial._adopt({e: -v for e, v in self._c.items()})

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __mul__(self, other):
        other = self._coerce(other)
        out: dict[int, int] = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                nv = out.get(e, 0) + v1 * v2
                if nv:
                    out[e] = nv
                else:
                    del out[e]
        return LaurentPolynomial._adopt(out)

    __radd__ = __add__
    __rmul__ = __mul__

    @staticmethod
    def _coerce(other) -> "LaurentPolynomial":
        if isinstance(other, LaurentPolynomial):
            return other
        if isinstance(other, int):
            return LaurentPolynomial({0: other})
        raise TypeError(f"cannot combine LaurentPolynomial with {type(other)!r}")

    def normalized(self) -> "LaurentPolynomial":
        """Strip units: lowest exponent 0, constant term positive."""
        v = min(self._c, default=0)
        unit = -1 if self._c.get(v, 0) < 0 else 1
        return LaurentPolynomial._adopt({e - v: unit * c for e, c in self._c.items()})

    # -- dunder plumbing -----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPolynomial({0: other})
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        if self._c.keys() <= {0}:
            return hash(self._c.get(0, 0))  # a constant equals, so hashes as, its int
        return hash(frozenset(self._c.items()))

    def __bool__(self) -> bool:
        return bool(self._c)

    def __repr__(self) -> str:
        return f"LaurentPolynomial({dict(sorted(self._c.items()))!r})"

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for e, v in sorted(self._c.items(), reverse=True):
            mag = abs(v)
            if e == 0:
                body = str(mag)
            else:
                power = "t" if e == 1 else f"t^{e}"
                body = power if mag == 1 else f"{mag}*{power}"
            if not parts:
                parts.append(body if v > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if v > 0 else f"- {body}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# The determinant engine: one Bareiss core on square lists of Python ints, with
# one entry.  _det_bareiss_lists takes rows of (column, exponent, coefficient)
# terms from both callers: det_poly_matrix flattens the remainder of its unit
# reduction into them, and the x-sweep (diagram._alexander_from_sweep) hands
# its bridge minor over as it builds it, with no unit reduction, which finds
# no pivot on the theorem knots' sweep minors.  The engine moves each row by
# the unit t**-v, v its least exponent or 0 if none is negative, sizes k by
# _kronecker_bits from exact integer row sums, evaluates the rows at 2**k,
# and reads the integer det(A(2**k)) back as balanced base-2**k digits.
# Coefficients arrive as Python ints (the sweep's through tolist()), so the L1
# norms, their squares and every shift stay exact.


def _kronecker_bits(row_sums: Iterable[int]) -> int:
    """k such that every coefficient of det(m) lies below 2**(k-2) in size.

    row_sums holds, for each row of m, sum_j L1(m_ij)**2 as an exact int,
    L1 the entry's coefficient L1 norm.  On |t| = 1 every entry is bounded
    by that norm, so Hadamard's inequality bounds every coefficient of the
    determinant by B, where B**2 <= the product of the row sums; the product
    is exact in integers.
    """
    bound = 1
    for s in row_sums:
        bound *= s
    return (bound.bit_length() + 1) // 2 + 2


def _balanced_digits(v: int, k: int) -> list[int]:
    """Coefficients of the polynomial whose value at 2**k is v, each below 2**(k-1) in size."""
    half = 1 << (k - 1)
    mask = (1 << k) - 1
    out = []
    while v:
        d = ((v + half) & mask) - half
        out.append(d)
        v = (v - d) >> k
    return out


def _bareiss(a: list[list[int]]) -> int:
    """The determinant of the square int matrix a, by fraction-free Bareiss elimination over Z.

    a is a list of rows and is overwritten.  Each step pivots on the nonzero
    entry of the remaining block with the fewest bits (the first in
    row-major order on a tie), swapped into place by a row swap and a column
    swap that each flip the sign.  Swaps inside the remaining block keep
    every entry a minor of the permuted matrix, so each step's division
    stays exact.  The pivots decide how long those minors get: the x-sweep's
    rows nearly cancel at 2**k, and short pivots keep the minors short.
    """
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for i in range(n - 1):
        bits = 0
        for r in range(i, n):
            row = a[r]
            for c in range(i, n):
                x = row[c]
                if x and (not bits or x.bit_length() < bits):
                    bits, pr, pc = x.bit_length(), r, c
        if not bits:  # the remaining block is zero
            return 0
        if pr != i:
            a[i], a[pr] = a[pr], a[i]
            sign = -sign
        if pc != i:
            for row in a[i:]:
                row[i], row[pc] = row[pc], row[i]
            sign = -sign
        piv = a[i][i]
        pivot_tail = a[i][i + 1 :]
        for row in a[i + 1 :]:
            head = row[i]
            row[i + 1 :] = [(x * piv - head * y) // prev for x, y in zip(row[i + 1 :], pivot_tail)]
        prev = piv
    return sign * a[n - 1][n - 1]


def _det_bareiss_lists(m: list[list[tuple[int, int, int]]]) -> tuple[int, list[int]]:
    """The determinant of a square Laurent matrix at the Kronecker point t = 2**k, by _bareiss.

    m holds one list per row of (column, exponent, coefficient) terms, at
    most one per column and exponent; a column with no term is zero.  The
    coefficients are Python ints: a numpy int would wrap when shifted.  Each
    term's value at 2**k is added to its entry, its exponent moved by its
    row's v, which leaves k alone.  Returns (the sum of the v, the coefficient list): (0, [1]) for
    no rows, and an empty list when the determinant is zero.
    """
    n = len(m)
    norms = [[0] * n for _ in m]  # each entry's coefficient L1 norm
    for row, out in zip(m, norms):
        for c, _, x in row:
            out[c] += abs(x)
    k = _kronecker_bits(sum(x * x for x in out) for out in norms)
    low = [min([e for _, e, _ in row] + [0]) for row in m]
    a = [[0] * n for _ in m]
    for row, v, out in zip(m, low, a):
        for c, e, x in row:
            out[c] += x << k * (e - v)
    return sum(low), _balanced_digits(_bareiss(a), k)


_FILL_LIMIT = 64


def _sparse_unit_reduce(rows: list[dict[int, dict[int, int]]]):
    """Shrink the matrix by Laplace expansion along unit-monomial pivots.

    ``rows[r]`` maps column -> entry of an n x n matrix, n = len(rows), each
    entry an {exponent: coefficient} map; absent and empty entries are zero.
    Row operations with a +-t**k pivot are exact in the Laurent ring, so the
    determinant factors as sign * t**shift * det(remainder).  An entry's cost
    is its Markowitz fill bound (row count - 1) * (column count - 1).  Sweeps
    at rising cost limits visit the remaining rows in order and pivot each on
    its cheapest unit entry if that costs at most the limit; ties go to the
    row's earliest entry (columns in order, fill appended).  A sweep that
    pivots is repeated; one that does not raises the limit to the least cost
    it saw, as stepping by one would, and the pass stops when no unit entry
    costs <= _FILL_LIMIT.

    Each input map is read in place and never mutated, and each updated
    entry old - (+-t**-k * factor) * pivot_entry is built as one fresh map.
    Returns (sign, shift, remainder), the pivots' +-1 folded into sign and
    remainder a dense, possibly empty, list of rows of maps ({} for zero);
    or (0, 0, []) when a row vanishes (determinant zero).
    """
    # row -> {col: coefficient map}, in column order with fill appended; pivoted rows leave
    entries = {r: {c: row[c] for c in sorted(row) if row[c]} for r, row in enumerate(rows)}
    col_rows: list[set[int]] = [set() for _ in rows]
    for r, ents in entries.items():
        for c in ents:
            col_rows[c].add(r)
    col_order = list(range(len(rows)))
    sign, shift = 1, 0
    limit = 0
    while limit <= _FILL_LIMIT:
        next_limit = _FILL_LIMIT + 1
        for rp, pivot_row in list(entries.items()):
            if not pivot_row:
                return 0, 0, []
            rc = len(pivot_row) - 1
            best = None
            for c, d in pivot_row.items():
                if len(d) == 1:
                    ((k, v),) = d.items()
                    if v == 1 or v == -1:
                        cost = rc * (len(col_rows[c]) - 1)
                        if best is None or cost < best[0]:
                            best = (cost, c, k, v)
            if best is None:
                continue
            cost, cp, exp, coef = best
            if cost > limit:
                next_limit = min(next_limit, cost)
                continue
            next_limit = limit  # a pivot: sweep again at this limit
            j = col_order.index(cp)
            if (list(entries).index(rp) + j) % 2:
                sign = -sign
            del entries[rp]
            del col_order[j]
            shift += exp
            sign *= coef
            for c in pivot_row:
                col_rows[c].discard(rp)
            touched = col_rows[cp]
            col_rows[cp] = set()
            others = [(c2, pe) for c2, pe in pivot_row.items() if c2 != cp]
            for r2 in touched:
                ents = entries[r2]
                # old - factor * pe with factor = entry * (c t**exp)**-1; c = +-1 is its own inverse
                factor = [(e - exp, v * coef) for e, v in ents.pop(cp).items()]
                for c2, pe in others:
                    old = ents.get(c2)
                    nv = dict(old) if old else {}
                    for e1, v1 in factor:
                        for e2, v2 in pe.items():
                            e = e1 + e2
                            s = nv.get(e, 0) - v1 * v2
                            if s:
                                nv[e] = s
                            else:
                                del nv[e]
                    if nv:
                        ents[c2] = nv
                        col_rows[c2].add(r2)
                    elif old:
                        del ents[c2]
                        col_rows[c2].discard(r2)
        limit = next_limit
    return sign, shift, [[ents.get(c, {}) for c in col_order] for ents in entries.values()]


def det_poly_matrix(
    rows: list[list[LaurentPolynomial] | dict[int, LaurentPolynomial]],
) -> LaurentPolynomial:
    """Exact determinant of an n x n Laurent-polynomial matrix, n = len(rows).

    Each row is a list of n entries or a sparse {column: entry} dict, each
    column an integer and each entry a LaurentPolynomial; else TypeError or
    ValueError names the row (and column).  The entries' {exponent:
    coefficient} maps go through sparse unit reduction, and the remainder's
    rows go to the engine flattened into (column, exponent, coefficient)
    terms; it moves them to non-negative exponents as it evaluates them at
    t = 2**k, and reads the determinant
    back from its value there, computed by fraction-free Bareiss over Z with
    complete pivoting.  The test suite checks it against permutation
    expansion and against Bareiss on coefficient lists.
    """
    n = len(rows)
    sparse: list[dict[int, dict[int, int]]] = []
    for r, row in enumerate(rows):
        if isinstance(row, (list, tuple)):
            if len(row) != n:
                raise ValueError("matrix must be square")
            row = dict(enumerate(row))
        elif not isinstance(row, dict):
            raise TypeError(f"row {r} is neither a list of entries nor a {{column: entry}} dict: {row!r}")
        for c, e in row.items():
            if not isinstance(c, numbers.Integral):
                raise TypeError(f"row {r}: column {c!r} is not an integer")
            if not 0 <= c < n:
                raise ValueError("column index out of range")
            if not isinstance(e, LaurentPolynomial):
                raise TypeError(f"row {r}, column {c}: entry {e!r} is not a LaurentPolynomial")
        sparse.append({c: e._c for c, e in row.items()})
    sign, shift, remainder = _sparse_unit_reduce(sparse)  # sign 0 when a row vanished
    terms = [[(c, d, x) for c, e in enumerate(row) for d, x in e.items()] for row in remainder]
    low, det = _det_bareiss_lists(terms)  # (0, [1]) when every row was a pivot's
    return LaurentPolynomial._adopt({e: sign * c for e, c in enumerate(det, shift + low) if sign * c})
