import itertools
import random

import pytest

from fourierknot import LaurentPolynomial, det_poly_matrix, exact_div, laurent

L = LaurentPolynomial


def force_engine(monkeypatch, engine):
    """Make det_poly_matrix's size rule pick the named remainder engine."""
    monkeypatch.setattr(laurent, "BAREISS_MAX_SIZE", 10**9 if engine == "bareiss" else -1)


def det_reference(m):
    """Permutation-expansion determinant; the independent oracle."""
    n = len(m)
    total = L.zero()
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = L.one() * (-1 if inversions % 2 else 1)
        for i in range(n):
            term = term * m[i][perm[i]]
        total = total + term
    return total


def test_basic_arithmetic():
    a = L({0: 1, 1: -1, 2: 1})
    b = L({0: 2, 1: 3})
    assert a + b == L({0: 3, 1: 2, 2: 1})
    assert a - a == L.zero()
    assert (a * b).pairs() == ((0, 2), (1, 1), (2, -1), (3, 3))
    assert a * 0 == L.zero()
    assert -a == L({0: -1, 1: 1, 2: -1})


def test_zero_coefficients_dropped():
    assert L({3: 0, 1: 2}).pairs() == ((1, 2),)
    assert (L({0: 1}) - L({0: 1})).is_zero


def test_degree_valuation_shift():
    a = L({-2: 5, 4: 1})
    assert a.valuation() == -2
    assert a.degree() == 4
    assert a.shifted(2).valuation() == 0
    with pytest.raises(ValueError):
        L.zero().degree()


def test_normalized_form():
    a = L({-3: -2, -1: 4})
    n = a.normalized()
    assert n.valuation() == 0
    assert n.coeff(0) > 0
    assert n == L({0: 2, 2: -4})


def test_reciprocal_of_palindrome():
    a = L({0: 1, 1: -1, 2: 1})
    assert a.reciprocal().normalized() == a


def test_evaluate_int():
    a = L({0: 1, 1: -1, 2: 1})
    assert a.evaluate_int(-1) == 3
    assert a.evaluate_int(2) == 3
    with pytest.raises(ValueError):
        L({-1: 1}).evaluate_int(2)


def test_str_rendering():
    assert str(L({0: 1, 1: -1, 2: 1})) == "t^2 - t + 1"
    assert str(L.zero()) == "0"
    assert str(L({-1: 2})) == "2*t^-1"


def test_exact_division():
    num = L({6: 1, 0: -1})  # t^6 - 1
    den = L({2: 1, 0: -1})  # t^2 - 1
    assert exact_div(num, den) == L({4: 1, 2: 1, 0: 1})
    with pytest.raises(ArithmeticError):
        exact_div(L({1: 1, 0: 1}), L({1: 2}))
    # Laurent shifts divide out exactly
    assert exact_div(num.shifted(-3), den.shifted(2)) == L({4: 1, 2: 1, 0: 1}).shifted(-5)


def test_hash_and_equality():
    assert L({0: 1}) == 1
    assert hash(L({2: 3})) == hash(L({2: 3}))
    assert L({2: 3}) != L({2: 4})


@pytest.mark.parametrize("engine", ["bareiss", "modular"])
def test_det_engines_against_reference(engine, monkeypatch):
    force_engine(monkeypatch, engine)
    rng = random.Random(1234)

    def entry():
        r = rng.random()
        if r < 0.25:
            return L.zero()
        if r < 0.5:
            return L.monomial(rng.randint(-2, 2), rng.choice([1, -1]))
        return L({d: rng.randint(-3, 3) for d in range(rng.randint(1, 3))})

    for _ in range(40):
        n = rng.randint(1, 5)
        m = [[entry() for _ in range(n)] for _ in range(n)]
        assert det_poly_matrix(m) == det_reference(m)


def test_det_empty_matrix():
    assert det_poly_matrix([]) == L.one()


def test_det_singular_matrix():
    row = [L({0: 1, 1: 1}), L({0: 2})]
    assert det_poly_matrix([row, row]).is_zero


def test_det_engines_agree_on_larger_random(monkeypatch):
    rng = random.Random(77)
    for _ in range(5):
        n = 12
        m = [
            [L({d: rng.randint(-2, 2) for d in range(2)}) for _ in range(n)]
            for _ in range(n)
        ]
        dets = []
        for engine in ("bareiss", "modular"):
            with monkeypatch.context() as mp:
                force_engine(mp, engine)
                dets.append(det_poly_matrix(m))
        assert dets[0] == dets[1]
