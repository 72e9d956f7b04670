"""The polynomial kernel against sympy, and the canonical form of results.

Every identity the toolkit checks is a structural equality of term maps, so
each operation must return a map with no zero coefficient (and, for forms,
no zero coefficient polynomial) that equals what the validating public
constructor and the parser build from the same data.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

sympy = pytest.importorskip("sympy")

from foliatk import distribution as dist_mod
from foliatk import foliation as fol
from foliatk import forms, polynomials
from foliatk.errors import ValidationError
from foliatk.forms import (DiffForm, PolyVectorField, diagonal_model_form, interior_product,
                           pullback, total_differential, wedge_sum)
from foliatk.parser import parse_expr, to_form
from foliatk.polynomials import MultiPoly
from foliatk.resonance import build_normal_form, partition
from helpers import rand_form, rand_homogeneous, rand_poly, wedge_term_pairs


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


def rand_mixed_poly(rng, dim, terms=5):
    """Coefficients over several denominators, so sums and products must
    bring numerators over one common denominator and reduce it."""
    out = {}
    for _ in range(rng.randint(0, terms)):
        exps = tuple(rng.randint(0, 3) for _ in range(dim))
        out[exps] = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 5, 6, 7, 9, 12]))
    return MultiPoly(dim, out)


def test_mixed_denominators_match_sympy():
    rng = random.Random(94)
    for _ in range(60):
        dim = rng.randint(1, 4)
        gens = sympy.symbols(f"x0:{dim}")
        p, q = rand_mixed_poly(rng, dim), rand_mixed_poly(rng, dim)
        c = Fraction(rng.randint(-7, 7), rng.choice([1, 2, 3, 10]))
        sp, sq = to_sympy(p, gens).as_expr(), to_sympy(q, gens).as_expr()
        sc = sympy.Rational(c.numerator, c.denominator)
        cases = [(p + q, sp + sq), (p - q, sp - sq), (p * q, sp * sq),
                 (p * c, sp * sc), (c * p, sc * sp), (p + c, sp + sc), (c - p, sc - sp)]
        for ours, theirs in cases:
            assert ours == from_sympy(sympy.Poly(theirs, *gens, domain=sympy.QQ), dim)
            assert_canonical_poly(ours)


def test_equal_polynomials_have_equal_hashes():
    rng = random.Random(95)
    for _ in range(40):
        dim = rng.randint(1, 4)
        gens = sympy.symbols(f"x0:{dim}")
        p, q = rand_mixed_poly(rng, dim), rand_mixed_poly(rng, dim)
        direct = from_sympy(to_sympy(p, gens) * to_sympy(q, gens), dim)
        built = [
            p * q,
            q * p,
            (p * 6) * (q * Fraction(1, 6)),
            ((p + q) * (p + q) - p * p - q * q) * Fraction(1, 2),
            p * q + p - p,
        ]
        for poly in built:
            assert poly == direct and hash(poly) == hash(direct)
        assert p - p == MultiPoly(dim) and hash(p - p) == hash(MultiPoly(dim))


def test_sorted_terms_order_spans_fields():
    rng = random.Random(96)
    exponents = [0, 1, 2, 2**32 - 1, 2**32, 2**62, 2**63 - 1]
    for _ in range(40):
        dim = rng.randint(1, 5)
        terms = {tuple(rng.choice(exponents) for _ in range(dim)): rng.randint(1, 5)
                 for _ in range(8)}
        p = MultiPoly(dim, terms)
        assert list(p.sorted_terms()) == [(e, terms[e]) for e in sorted(terms, reverse=True)]
        assert sorted(p.terms) == sorted(terms)


def test_evaluate_matches_sympy():
    rng = random.Random(97)
    for _ in range(40):
        dim = rng.randint(1, 4)
        gens = sympy.symbols(f"x0:{dim}")
        p = rand_mixed_poly(rng, dim)
        expr = to_sympy(p, gens).as_expr()
        point = [rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-5, 5), rng.choice([2, 3, 7]))])
                 for _ in range(dim)]
        exact = p.evaluate(point)
        expected = expr.subs({g: sympy.Rational(v.numerator, v.denominator)
                              for g, v in zip(gens, point)})
        assert isinstance(exact, Fraction)
        assert exact == Fraction(int(expected.p), int(expected.q))
        cpoint = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(dim)]
        value = p.evaluate(cpoint)
        expected = complex(sympy.N(expr.subs({g: v.real + sympy.I * v.imag
                                               for g, v in zip(gens, cpoint)}), 30))
        assert isinstance(value, complex)
        assert abs(value - expected) <= 1e-12 * (1 + abs(expected))


def test_sums_of_products_matches_sympy():
    rng = random.Random(98)
    for _ in range(60):
        dim = rng.randint(1, 4)
        gens = sympy.symbols(f"x0:{dim}")
        groups = {}
        for key in range(rng.randint(0, 3)):
            triples = [(rng.choice([1, -1]), rand_mixed_poly(rng, dim), rand_mixed_poly(rng, dim))
                       for _ in range(rng.randint(0, 4))]
            if triples and rng.random() < 0.3:
                sign, a, b = triples[0]
                triples.append((-sign, b, a))  # cancels the first product exactly
            groups[key] = triples
        sums = MultiPoly.sums_of_products(dim, groups)
        assert sums.keys() == groups.keys()
        for key, triples in groups.items():
            ours = sums[key]
            theirs = sum((sign * to_sympy(a, gens).as_expr() * to_sympy(b, gens).as_expr()
                          for sign, a, b in triples), sympy.Integer(0))
            assert ours == from_sympy(sympy.Poly(theirs, *gens, domain=sympy.QQ), dim)
            composed = MultiPoly.zero(dim)
            for sign, a, b in triples:
                composed = composed + a * b * sign
            assert ours == composed and hash(ours) == hash(composed)
            assert_canonical_poly(ours)


def _parity(indices) -> int:
    inversions = sum(x > y for t, x in enumerate(indices) for y in indices[t + 1:])
    return -1 if inversions % 2 else 1


def wedge_by_products(a: DiffForm, b: DiffForm) -> DiffForm:
    """``a ^ b`` from ``*`` and ``+`` alone, each sign counted by brute force."""
    out = {}
    for ia, pa in a.coeffs.items():
        for ib, pb in b.coeffs.items():
            if not set(ia) & set(ib):
                key = tuple(sorted(ia + ib))
                term = pa * pb * _parity(ia + ib)
                out[key] = out[key] + term if key in out else term
    return DiffForm(a.ambient_dim, min(a.degree + b.degree, a.ambient_dim), out)


def interior_by_values(field: PolyVectorField, form: DiffForm) -> DiffForm:
    """``i_X omega`` read off ``omega(X, e_J)``: its coefficient at each
    ``J`` is ``sum_i X_i omega(e_i, e_J)`` over the ``i`` not in ``J``."""
    dim = form.ambient_dim
    out = {}
    for key in combinations(range(dim), form.degree - 1):
        total = MultiPoly.zero(dim)
        for i in set(range(dim)) - set(key):
            coeff = form.coeffs.get(tuple(sorted((i,) + key)))
            if coeff is not None:
                total = total + field.components[i] * coeff * _parity((i,) + key)
        out[key] = total
    return DiffForm(dim, form.degree - 1, out)


def rand_mixed_form(rng, dim, degree, entries=3):
    slots = list(combinations(range(dim), degree))
    return DiffForm(dim, degree, {slots[rng.randrange(len(slots))]: rand_mixed_poly(rng, dim, 4)
                                  for _ in range(entries)})


def test_fused_wedge_and_interior_product_match_compositions():
    rng = random.Random(99)
    for _ in range(60):
        dim = rng.randint(1, 5)
        a = rand_mixed_form(rng, dim, rng.randint(0, dim))
        b = rand_mixed_form(rng, dim, rng.randint(0, dim))
        field = PolyVectorField([rand_mixed_poly(rng, dim, 3) for _ in range(dim)])
        h = rand_mixed_poly(rng, dim, 3)
        scaled = DiffForm(dim, a.degree, {i: c * h for i, c in a.coeffs.items()})
        results = [(a.wedge(b), wedge_by_products(a, b)), (a * h, scaled), (h * a, scaled)]
        if a.degree > 0:
            results.append((interior_product(field, a), interior_by_values(field, a)))
        for ours, theirs in results:
            assert ours == theirs and hash(ours) == hash(theirs)
            assert_canonical_form(ours)


def test_cancelling_products_leave_no_coefficient():
    rng = random.Random(100)
    dim = 5
    for _ in range(10):
        f = [rand_mixed_poly(rng, dim, 3) for _ in range(4)]
        df = [total_differential(g) for g in f]
        # omega = f0 df2 - f2 df0 + f1 df3 - f3 df1 and d omega lie in the span
        # of the four df_j, so class_of's last wedge, omega ^ (d omega)^2, is a
        # 5-form in a 4-dimensional span: every coefficient cancels
        omega = df[2] * f[0] - df[0] * f[2] + df[3] * f[1] - df[1] * f[3]
        domega = omega.exterior_derivative()
        current = omega.wedge(domega)
        last = current.wedge(domega)
        assert current == wedge_by_products(omega, domega)
        assert last.coeffs == {} and wedge_by_products(current, domega).coeffs == {}
        # a decomposable 2-form wedges to zero with itself
        sigma = df[0].wedge(df[1] * f[2])
        assert sigma.wedge(sigma).coeffs == {}
        for form in (current, last, sigma):
            assert_canonical_form(form)


def test_wedge_sum_matches_wedges_and_sums(monkeypatch):
    """``wedge_sum`` against ``wedge``, ``*`` and ``+``.  Each sum has a
    pair that cancels exactly, ``c alpha ^ beta`` against
    ``-c (-1)^(pq) beta ^ alpha``, and every other one the square of an even
    form, whose coefficient pairs are still multiplied once each."""
    rng = random.Random(101)
    multiplied = [0]
    real = polynomials._sum_triples

    def counting(dim, triples):
        multiplied[0] += sum(len(a.terms) * len(b.terms) for _, a, b in triples)
        return real(dim, triples)

    monkeypatch.setattr(polynomials, "_sum_triples", counting)
    for n in range(60):
        # every other sum has degree 4 and the square of a 2-form
        dim = rng.randint(4, 6) if n % 2 else rng.randint(2, 6)
        degree = 4 if n % 2 else rng.randint(0, dim)
        terms = []
        for _ in range(rng.randint(1, 3)):
            p = rng.randint(0, degree)
            terms.append((rng.choice([-3, -2, -1, 1, 2, 3]), rand_mixed_form(rng, dim, p),
                          rand_mixed_form(rng, dim, degree - p)))
        if n % 2:
            alpha = rand_mixed_form(rng, dim, 2, entries=4)
            terms.append((rng.choice([-2, 1, 3]), alpha, alpha))
        c, alpha, beta = terms[0]
        terms.append((-c * (-1) ** (alpha.degree * beta.degree), beta, alpha))
        composed = DiffForm.zero(dim, degree)
        for c, alpha, beta in terms:
            composed = composed + alpha.wedge(beta) * c
        multiplied[0] = 0
        ours = wedge_sum(terms)
        assert multiplied[0] == sum(sum(wedge_term_pairs(alpha, beta).values())
                                    // (2 if alpha is beta else 1)
                                    for _, alpha, beta in terms)
        assert ours == composed and hash(ours) == hash(composed)
        assert ours == wedge_sum(terms[1:-1]) if len(terms) > 2 else ours.is_zero
        assert wedge_sum([terms[0], terms[-1]]).coeffs == {}
        assert_canonical_form(ours)


def test_presenting_forms_equal_their_pullback_and_chained_builds(monkeypatch):
    """Each presenting form, built with one contraction or one
    ``wedge_sum``, equals the construction it replaced, on seeded random
    homogeneous generators in 3-7 variables: the rational component (r =
    1..4 ratios) and omega_NR their pullbacks of the diagonal model, and the
    contact form, its Darboux sum, every ratio numerator and every psi_s of
    the normal form the chains of ``*``, ``+`` and ``-``."""
    rng = random.Random(102)
    sums = []

    def recording(terms):
        sums.append(wedge_sum(terms))
        return sums[-1]

    monkeypatch.setattr(dist_mod, "wedge_sum", recording)
    built = {"component": 0, "normal form": 0, "contact": 0}
    for _ in range(40):
        dim = rng.randint(3, 7)
        r = rng.randint(1, min(4, dim - 2))
        degrees = [rng.randint(1, 3) for _ in range(r + 1)]
        polys = [rand_homogeneous(rng, dim, d) for d in degrees]
        try:
            comp = fol.build_rational_component(polys, degrees)
        except ValidationError:
            continue
        old = pullback(polys, diagonal_model_form(degrees))
        assert comp.omega == old and hash(comp.omega) == hash(old)
        assert_canonical_form(comp.omega)
        sums.clear()
        with monkeypatch.context() as patch:  # every wedge in forms is a wedge_sum
            patch.setattr(forms, "wedge_sum", recording)
            assert fol.component_first_integral_check(comp)
        (p, a), *rest = zip(polys, fol.fibration_exponents(degrees).exponents)
        for (q, b), numerator in zip(rest, sums, strict=True):
            assert numerator == total_differential(p) * (q * a) - total_differential(q) * (p * b)
        built["component"] += 1

        lambdas = [1] * dim if rng.random() < 0.2 else rng.sample(range(1, 13), dim)
        data = build_normal_form(partition(lambdas))
        coords = [MultiPoly.variable(dim, j) for j in range(data.nr_count)]
        old = pullback(coords, diagonal_model_form(data.reordered[:data.nr_count]))
        assert data.omega_nr == old and hash(data.omega_nr) == hash(old)
        for s, h, psi in zip(sorted(data.choices), data.h, data.psi, strict=True):
            slot = data.nr_count - 1 + s
            old = (DiffForm.basis_covector(dim, slot) * h
                   - total_differential(h) * MultiPoly.variable(dim, slot))
            assert psi == old and hash(psi) == hash(old)
        built["normal form"] += 1

        pairs = rng.randint(1, dim // 2)
        degree = rng.randint(1, 2)
        gens = [rand_homogeneous(rng, dim, degree) for _ in range(2 * pairs)]
        try:
            contact = dist_mod.build_contact_type(gens)
        except ValidationError:
            continue
        old = DiffForm.zero(dim, 1)
        for front, back in zip(gens[:pairs], gens[pairs:]):
            old = old + total_differential(back) * front - total_differential(front) * back
        assert contact.omega == old and hash(contact.omega) == hash(old)
        sums.clear()
        assert dist_mod.verify_darboux_identities(contact).d_omega_ok
        old = DiffForm.zero(dim, 2)
        for front, back in zip(gens[:pairs], gens[pairs:]):
            old = old + total_differential(front).wedge(total_differential(back)) * 2
        assert sums == [old]
        built["contact"] += 1
    assert min(built.values()) >= 20, built


def test_the_blow_up_transform_equals_its_pullback():
    """``blow_up_strict_transform`` contracts ``x0 d/dx0`` into the wedge of
    the chart's differentials; that equals the pullback of the radial model
    along the chart, which substitutes and wedges every coefficient."""
    for m in range(1, 9):
        _, transform = fol.blow_up_strict_transform(m)
        old = pullback(fol.blow_up_map(m), fol.radial_model_form(m))
        assert transform == old and hash(transform) == hash(old), m
        assert_canonical_form(transform)
