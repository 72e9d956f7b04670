"""Exact integer linear algebra for the eigen-analysis of a rational matrix.

A rational matrix ``A`` is cleared of denominators once: ``M = D*A`` with
``D`` the lcm of its entries' denominators.  Every later step works on plain
ints, and the eigenvalues of ``A`` are those of ``M`` divided by ``D``.

- ``char_poly`` runs the Faddeev-LeVerrier recurrence on ``M``:
  ``B_1 = M``, ``c_k = -tr(B_k) / k``, ``B_{k+1} = (B_k + c_k I) M``, and
  ``det(tI - M) = t^n + c_1 t^(n-1) + ... + c_n``.  The characteristic
  polynomial of an integer matrix has integer coefficients, so each ``//``
  by ``k`` is exact.
- ``integer_roots`` finds the integer roots of a monic integer polynomial
  by p-adic lifting (Loos).  Its square-free part ``g = f / gcd(f, f')`` is
  monic with integer coefficients (Gauss's lemma).  At the smallest prime
  ``p`` where ``g`` stays square-free, each root of ``g`` mod ``p`` is
  simple, so Newton's step lifts it to a root mod ``p^(2^j)``.  Once the
  modulus passes twice the Cauchy bound ``1 + max |g_i|`` on the roots, the
  symmetric residue is the only integer root the lift can be.  Each such
  candidate is checked by exact division, and its multiplicity counted by
  deflating ``f`` while the division leaves no remainder.
- ``rank`` is Bareiss's fraction-free elimination.  After each step every
  entry below the pivot rows is a minor of the input, so the division by
  the previous pivot is exact and no entry outgrows a minor.

The whole analysis is exact because a monic integer polynomial's rational
roots are integers: a root ``a/b`` in lowest terms has ``b | 1``.  So the
integer roots of ``det(tI - M)`` divided by ``D`` are all the rational
eigenvalues of ``A``.  ``integer_matrix`` prices the work before any
product against ``MATRIX_BUDGET``.

References: R. Loos, "Computing rational zeros of integral polynomials by
p-adic expansion", SIAM J. Comput. 12 (1983); E. H. Bareiss, "Sylvester's
identity and multistep integer-preserving Gaussian elimination", Math.
Comp. 22 (1968).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd, isqrt, lcm
from operator import mul
from typing import Callable, Iterator, Sequence

from .errors import ValidationError

Poly = list[int]  # integer coefficients, highest degree first
# most squared word products (64-bit words) an eigen-analysis is priced at,
# before its first product: see ``analysis_price``
MATRIX_BUDGET = 10**8


def analysis_price(n: int, bits: int) -> int:
    """Price of the eigen-analysis of an ``n x n`` integer matrix whose
    entries have at most ``bits`` bits: the characteristic polynomial and
    the ranks take about ``n^4`` products, each of two numbers no longer than
    an ``n``-minor, ``n * (bits + log2 n)`` bits."""
    words = n * (bits + n.bit_length()) // 64 + 1
    return n**4 * words * words


def _refuse_price(n: int, bits: int) -> None:
    if analysis_price(n, bits) > MATRIX_BUDGET:
        raise ValidationError(f"the eigen-analysis of a {n} x {n} matrix with {bits}-bit entries "
                              f"over their common denominator is priced over MATRIX_BUDGET = "
                              f"{MATRIX_BUDGET}")


def integer_matrix(matrix: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """``(M, D)``: the integer matrix ``M = D*A`` and the lcm ``D`` of the
    denominators of the square matrix ``A``, whose entries are exact ints or
    ``Fraction``s.

    A float or bool entry is refused, naming its row and column, and so is
    a matrix whose analysis ``analysis_price`` puts over ``MATRIX_BUDGET``:
    first on its size alone, then as each entry's bits are added.
    """
    n = len(matrix)
    if n == 0:
        raise ValidationError("matrix must be square and nonempty")
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise ValidationError(f"matrix must be square: row {i} has length {len(row)}, "
                                  f"not {n}")
    _refuse_price(n, 0)
    den = 1
    top = 0  # most bits of a numerator
    for i, row in enumerate(matrix):
        for j, value in enumerate(row):
            if not isinstance(value, (int, Fraction)) or isinstance(value, bool):
                raise ValidationError(f"matrix entry [{i}][{j}] = {value!r} is a "
                                      f"{type(value).__name__}, not an exact int or Fraction")
            den = lcm(den, value.denominator)
            top = max(top, value.numerator.bit_length())
            _refuse_price(n, top + (den - 1).bit_length())  # bits(a*b) <= bits(a) + bits(b-1)
    return [[v.numerator * (den // v.denominator) for v in row] for row in matrix], den


def char_poly(m: list[list[int]]) -> Poly:
    """``[1, c_1, ..., c_n]``, the coefficients of ``det(tI - M)``."""
    n = len(m)
    cols = list(zip(*m))
    coeffs = [1, -sum(m[i][i] for i in range(n))]
    b = m
    for k in range(2, n + 1):
        shifted = [row[:] for row in b]
        for i in range(n):
            shifted[i][i] += coeffs[-1]
        if k < n:
            b = [[sum(map(mul, row, col)) for col in cols] for row in shifted]
            trace = sum(b[i][i] for i in range(n))
        else:  # the last step needs only the trace of B_n
            trace = sum(sum(map(mul, shifted[i], cols[i])) for i in range(n))
        coeffs.append(-trace // k)
    return coeffs


def rank(m: list[list[int]]) -> int:
    """Rank of an integer matrix by Bareiss's fraction-free elimination."""
    rows = [row[:] for row in m]
    width = len(rows[0]) if rows else 0
    r = 0
    prev = 1
    for c in range(width):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        p = top[c]
        for i in range(r + 1, len(rows)):
            row = rows[i]
            lead = row[c]
            rows[i] = [0] * (c + 1) + [(p * row[j] - lead * top[j]) // prev
                                       for j in range(c + 1, width)]
        prev = p
        r += 1
    return r


def _trim(a: Poly) -> Poly:
    """``a`` without leading zero coefficients; ``[]`` is the zero polynomial."""
    for i, c in enumerate(a):
        if c:
            return a[i:]
    return []


def _derivative(a: Poly) -> Poly:
    d = len(a) - 1
    return [c * (d - i) for i, c in enumerate(a[:-1])]


def _pseudo_remainder(a: Poly, b: Poly) -> Poly:
    """The remainder of ``lc(b)^e * a`` by ``b`` for some ``e >= 0``; ``b``
    has no leading zero."""
    lead, tail = b[0], b[1:]
    r = _trim(a)
    while len(r) >= len(b):
        c = r[0]
        r = _trim([lead * x - c * y for x, y in zip(r[1:], tail)]
                  + [lead * x for x in r[len(b):]])
    return r


def _euclid(a: Poly, b: Poly, reduce: Callable[[Poly], Poly]) -> Poly:
    """The last nonzero remainder of Euclid's algorithm on ``a`` and ``b``,
    each pseudo-remainder passed through ``reduce``; ``[1]`` when it is a
    nonzero constant."""
    while len(b) > 1:
        a, b = b, reduce(_pseudo_remainder(a, b))
    return [1] if b else a


def _primitive(a: Poly) -> Poly:
    g = gcd(*a)
    return [c // g for c in a] if g > 1 else a


def _divide_monic(f: Poly, h: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of ``f`` by the monic ``h``."""
    r = list(f)
    split = len(f) - len(h) + 1
    for i in range(split):
        c = r[i]
        if c:
            for j in range(1, len(h)):
                r[i + j] -= c * h[j]
    return r[:split], r[split:]


def _value_mod(a: Poly, x: int, q: int) -> int:
    acc = 0
    for c in a:
        acc = (acc * x + c) % q
    return acc


def _primes() -> Iterator[int]:
    return (p for p in count(2) if all(p % d for d in range(2, isqrt(p) + 1)))


def _square_free_mod(g: Poly, dg: Poly, p: int) -> bool:
    """Whether the monic ``g`` stays square-free mod ``p``: its gcd with its
    derivative ``dg`` there is a constant."""
    def reduce(a: Poly) -> Poly:
        return _trim([c % p for c in a])
    return len(_euclid(reduce(g), reduce(dg), reduce)) == 1


def integer_roots(f: Poly) -> tuple[dict[int, int], Poly]:
    """Integer roots of the monic integer polynomial ``f`` with their
    multiplicities, and the monic factor left once they are divided out."""
    h = _euclid(f, _primitive(_derivative(f)), _primitive)
    g = f if len(h) == 1 else _divide_monic(f, [c if h[0] > 0 else -c for c in h])[0]
    dg = _derivative(g)
    p = next(p for p in _primes() if _square_free_mod(g, dg, p))
    past = 2 * (1 + max(map(abs, g[1:]), default=0))
    roots: dict[int, int] = {}
    rest = f
    for r in range(p):
        if _value_mod(g, r, p):
            continue
        # Newton's step doubles the p-adic digits of r and of s = 1/g'(r)
        q = p
        s = pow(_value_mod(dg, r, p), -1, p)
        while q <= past:
            q *= q
            r = (r - _value_mod(g, r, q) * s) % q
            s = s * (2 - _value_mod(dg, r, q) * s) % q
        mu = r - q if 2 * r > q else r
        while len(rest) > 1:
            quotient, remainder = _divide_monic(rest, [1, -mu])
            if remainder[0]:
                break
            rest = quotient
            roots[mu] = roots.get(mu, 0) + 1
    return roots, rest
