"""The integer linear-algebra layer against sympy: characteristic
polynomial, rank and rational eigenvalues with multiplicities."""

import random
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest

sympy = pytest.importorskip("sympy")
from hypothesis import given, settings, strategies as st  # noqa: E402

from foliatk import linalg  # noqa: E402
from foliatk.errors import IrrationalEigenvalues  # noqa: E402
from foliatk.resonance import analyze_linear_part  # noqa: E402

T = sympy.Symbol("t")


def rand_rational(rng, span=5):
    den = rng.choice((1, rng.randint(2, 10**6)))
    return Fraction(rng.randint(-span * den, span * den), den)


def jordan_conjugate(rng):
    """``P T P^-1`` for a random invertible integer ``P`` and a ``T`` of
    Jordan blocks with rational eigenvalues (repeated ones, denominators up
    to 10^6), sometimes with a block ``[[0, q], [1, 0]]`` whose eigenvalues
    are the irrational square roots of ``q``."""
    n = rng.randint(2, 5)
    pool = [rand_rational(rng) for _ in range(rng.randint(1, 3))]
    t = sympy.zeros(n, n)
    for i in range(n):
        t[i, i] = sympy.Rational(rng.choice(pool))
        if i and t[i, i] == t[i - 1, i - 1] and rng.random() < 0.5:
            t[i - 1, i] = 1
    if n >= 3 and rng.random() < 0.3:
        q = rng.choice((2, 3, -1, -5, 7))
        t[n - 2:, n - 2:] = sympy.Matrix([[0, q], [1, 0]])
        t[n - 3, n - 2] = 0
    while True:
        p = sympy.Matrix(n, n, lambda i, j: rng.randint(-2, 2))
        if p.det():
            return p * t * p.inv()


def dense_rational(rng):
    n = rng.randint(1, 5)
    return sympy.Matrix(n, n, lambda i, j: sympy.Rational(rand_rational(rng, 3)))


def low_rank(rng):
    n, r = rng.randint(2, 6), rng.randint(0, 4)
    left = sympy.Matrix(n, r, lambda i, j: rng.randint(-3, 3))
    right = sympy.Matrix(r, n, lambda i, j: rng.randint(-3, 3))
    return left * right if r else sympy.zeros(n, n)


def as_fractions(a):
    return [[Fraction(int(v.p), int(v.q)) for v in a.row(i)] for i in range(a.rows)]


@pytest.mark.parametrize("seed", [101, 102, 103])
def test_char_poly_rank_and_eigenvalues_match_sympy(seed):
    rng = random.Random(seed)
    for make in [jordan_conjugate] * 8 + [dense_rational] * 4 + [low_rank] * 4:
        a = make(rng)
        n = a.rows
        m, den = linalg.integer_matrix(as_fractions(a))
        coeffs = linalg.char_poly(m)
        want = [Fraction(int(c.p), int(c.q)) for c in a.charpoly(T).all_coeffs()]
        assert [Fraction(c, den**i) for i, c in enumerate(coeffs)] == want
        assert linalg.rank(m) == a.rank()

        rational = {r: k for r, k in sympy.roots(a.charpoly(T).as_expr(), T).items()
                    if r.is_rational}
        roots, rest = linalg.integer_roots(coeffs)
        assert {Fraction(mu, den): k for mu, k in roots.items()} == \
            {Fraction(int(r.p), int(r.q)): k for r, k in rational.items()}
        assert len(rest) - 1 == n - sum(rational.values())
        if len(rest) > 1:
            with pytest.raises(IrrationalEigenvalues, match="has no rational root"):
                analyze_linear_part(as_fractions(a))
            continue
        analysis = analyze_linear_part(as_fractions(a))
        assert analysis.blocks == {
            Fraction(int(r.p), int(r.q)): (k, n - (a - r * sympy.eye(n)).rank())
            for r, k in rational.items()}
        for mu in roots:
            shifted = [[v - mu if i == j else v for j, v in enumerate(row)]
                       for i, row in enumerate(m)]
            assert linalg.rank(shifted) == (a - sympy.Rational(mu, den) * sympy.eye(n)).rank()


def times_linear(f, r):
    """``f * (t - r)``, coefficients highest first."""
    return [a - r * b for a, b in zip(f + [0], [0] + f)]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.integers(-10**30, 10**30), st.integers(1, 3)), max_size=4),
       st.integers(-10**30, 10**30).filter(lambda q: q < 0 or isqrt(q) ** 2 != q))
def test_integer_roots_of_a_product_with_an_irreducible_quadratic(factors, q):
    f = [1, 0, -q]
    want = Counter()
    for r, k in factors:
        for _ in range(k):
            f = times_linear(f, r)
        want[r] += k
    roots, rest = linalg.integer_roots(f)
    assert roots == dict(want)
    assert rest == [1, 0, -q]
