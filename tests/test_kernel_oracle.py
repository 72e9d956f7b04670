"""The polynomial kernel against sympy, and the canonical form of results.

Every identity the toolkit checks is a structural equality of term maps, so
each operation must return a map with no zero coefficient (and, for forms,
no zero coefficient polynomial) that equals what the validating public
constructor and the parser build from the same data.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from foliatk.forms import DiffForm, PolyVectorField, interior_product, pullback
from foliatk.parser import parse_expr, to_form
from foliatk.polynomials import MultiPoly
from helpers import rand_form, rand_poly


def to_sympy(p: MultiPoly, gens) -> "sympy.Poly":
    terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
    return sympy.Poly.from_dict(terms or {(0,) * len(gens): 0}, *gens, domain=sympy.QQ)


def from_sympy(poly: "sympy.Poly", dim: int) -> MultiPoly:
    return MultiPoly(dim, {e: Fraction(int(c.p), int(c.q)) for e, c in poly.as_dict().items()})


def parsed(text: str, dim: int) -> DiffForm:
    return to_form(parse_expr(text, dim), dim)


def assert_canonical_poly(p: MultiPoly) -> None:
    assert all(isinstance(c, Fraction) and c != 0 for c in p.terms.values())
    assert all(len(e) == p.ambient_dim for e in p.terms)
    assert p == MultiPoly(p.ambient_dim, dict(p.terms))
    again = parsed(p.to_str(), p.ambient_dim).coeffs.get((), MultiPoly.zero(p.ambient_dim))
    assert again == p and hash(again) == hash(p)


def assert_canonical_form(f: DiffForm) -> None:
    assert all(not poly.is_zero for poly in f.coeffs.values())
    for poly in f.coeffs.values():
        assert_canonical_poly(poly)
    assert f == DiffForm(f.ambient_dim, f.degree, dict(f.coeffs))
    again = parsed(f.to_str(), f.ambient_dim)
    assert again == f and hash(again) == hash(f)


def test_ring_operations_match_sympy():
    rng = random.Random(91)
    for _ in range(40):
        dim = rng.randint(2, 5)
        gens = sympy.symbols(f"x0:{dim}")
        p = rand_poly(rng, dim, max_degree=3, terms=5)
        q = rand_poly(rng, dim, max_degree=3, terms=5)
        sp, sq = to_sympy(p, gens), to_sympy(q, gens)
        k = rng.randint(0, 4)
        i = rng.randrange(dim)
        cases = [
            (p + q, sp + sq),
            (p - q, sp - sq),
            (p * q, sp * sq),
            (p ** k, sp ** k),
            (p.partial_derivative(i), sp.diff(gens[i])),
        ]
        for ours, theirs in cases:
            assert ours == from_sympy(theirs, dim)
            assert_canonical_poly(ours)
        assert (p - p).terms == {}
        assert (p * 0).terms == {}


def test_substitute_matches_sympy():
    rng = random.Random(92)
    for _ in range(30):
        dim = rng.randint(2, 5)
        target = rng.randint(2, 5)
        xs = sympy.symbols(f"x0:{dim}")
        ys = sympy.symbols(f"y0:{target}")
        p = rand_poly(rng, dim, max_degree=3, terms=4)
        images = [rand_poly(rng, target, max_degree=2, terms=3) for _ in range(dim)]
        expr = to_sympy(p, xs).as_expr().subs(
            {x: to_sympy(g, ys).as_expr() for x, g in zip(xs, images)}, simultaneous=True
        )
        ours = p.substitute(images)
        assert ours == from_sympy(sympy.Poly(expr, *ys, domain=sympy.QQ), target)
        assert_canonical_poly(ours)


def test_form_operations_are_canonical():
    rng = random.Random(93)
    for _ in range(40):
        dim = rng.randint(2, 5)
        a = rand_form(rng, dim, rng.randint(0, dim - 1), entries=3)
        b = rand_form(rng, dim, rng.randint(0, dim - 1), entries=3)
        omega = rand_form(rng, dim, 1, entries=3)
        field = PolyVectorField([rand_poly(rng, dim) for _ in range(dim)])
        images = [rand_poly(rng, dim, max_degree=1, terms=2) for _ in range(dim)]
        results = [
            a + a, a - a, -a, a * 0, a * rand_poly(rng, dim),
            a.wedge(b), a.exterior_derivative(), omega.wedge(omega.exterior_derivative()),
            pullback(images, a),
        ]
        if a.degree > 0:
            results.append(interior_product(field, a))
        for result in results:
            assert_canonical_form(result)
        assert (a - a).coeffs == {}
        assert omega.wedge(omega).coeffs == {}
        assert a.exterior_derivative().exterior_derivative().coeffs == {}
