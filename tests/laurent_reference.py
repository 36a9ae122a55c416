"""Test-side references on dense coefficient lists (index = exponent, trailing zeros trimmed).

Exact division in Z[t]: the divisions of the tests' list Bareiss and of the
closed form's division oracle.  The package itself never divides polynomials.
"""


def trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def exact_div(num: list[int], den: list[int]) -> list[int]:
    """Quotient num/den in Z[t]; raises ArithmeticError unless exact."""
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    if not num:
        return []
    if len(num) < len(den):
        raise ArithmeticError("inexact polynomial division")
    rem = list(num)
    lead = den[-1]
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        v = rem[i]
        if v == 0:
            continue
        q, r = divmod(v, lead)
        if r:
            raise ArithmeticError("inexact polynomial division")
        out[i - dd] = q
        for j in range(dd + 1):
            rem[i - dd + j] -= q * den[j]
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return trim(out)
