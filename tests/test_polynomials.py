import random
from fractions import Fraction

import pytest

from foliatk import distribution, foliation, forms, parser, polynomials, residue, resonance
from foliatk.errors import DegreeMismatch, DimensionMismatch, ValidationError
from foliatk.polynomials import (COEFFICIENT_BUDGET, MAX_EXPONENT, MAX_VARIABLES,
                                 TERM_PAIR_BUDGET, MultiPoly)
from helpers import euler_degree_check, rand_point, rand_poly, total_degree


def test_zero_coefficients_are_dropped():
    p = MultiPoly(2, {(1, 0): Fraction(0), (0, 1): Fraction(3)})
    assert (1, 0) not in p.terms
    assert p == MultiPoly(2, {(0, 1): 3})


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        MultiPoly(2, {(1, 0): 0.5})


def test_bool_coefficients_rejected():
    for build in (lambda: MultiPoly(2, {(1, 0): True, (0, 1): 2}),
                  lambda: MultiPoly.constant(2, True)):
        with pytest.raises(TypeError, match="got bool"):
            build()


X = [MultiPoly.variable(3, i) for i in range(3)]
LINE_FORM = forms.DiffForm(3, 1, {(0,): -X[1], (1,): X[0]})  # projective, of class 1


@pytest.mark.parametrize("call, error, message", [
    (lambda: MultiPoly(True, {(1,): 1}), ValueError, "ambient_dim must be"),
    (lambda: MultiPoly(2, {(True, 0): 1}), ValueError, "exponents must be"),
    (lambda: X[0] ** True, ValueError, "exponent must be"),
    (lambda: forms.DiffForm(True, 0, {}), ValueError, "ambient_dim must be"),
    (lambda: forms.DiffForm(2, True, {}), DegreeMismatch, "form degree True"),
    (lambda: foliation.build_rational_component(X[:2], [True, 1]), DegreeMismatch,
     "declared degree True"),
    (lambda: foliation.fibration_exponents([True, 2]), DegreeMismatch, "degrees must be"),
    (lambda: foliation.radial_model_form(True), ValidationError, "m=True"),
    (lambda: foliation.blow_up_map(True), ValidationError, "m=True"),
    (lambda: residue.chern_integrality([1, 2], True), ValidationError, "c=True"),
    (lambda: residue.codim1_component_solver(4, True), ValidationError, "d=True"),
    (lambda: resonance.invariant_hypersurface_check([1, 2, 3], (True, True, 0), 2),
     ValidationError, "multi-index"),
    (lambda: parser.parse_expr("x0", True), ValidationError, "ambient_dim must be"),
    (lambda: MultiPoly.variable(2, True), DimensionMismatch, "variable index True"),
    (lambda: MultiPoly.variable(2, 1.0), DimensionMismatch, "variable index 1.0"),
    (lambda: X[1].partial_derivative(True), DimensionMismatch, "variable index True"),
    (lambda: forms.DiffForm.basis_covector(2, True), DimensionMismatch, "covector index True"),
    (lambda: forms.DiffForm(2, 1, {(True,): X[0]}), DimensionMismatch, "covector index"),
    (lambda: resonance.find_resonances([1, 2, 3], True), ValidationError, "target index True"),
    (lambda: resonance.invariant_hypersurface_check([1, 2], (2, 0), True), ValidationError,
     "target index True"),
    (lambda: foliation.validate_projective(LINE_FORM, True), ValidationError, "k=True"),
    (lambda: foliation.validate_projective(LINE_FORM, 1.0), ValidationError, "k=1.0"),
    (lambda: foliation.validate_projective(LINE_FORM, 1, expected_c=2.0), DegreeMismatch,
     "declared c=2.0"),
    (lambda: distribution.build_contact_type(X[:2], r=True), ValidationError, "r=True"),
    (lambda: distribution.validate_class(distribution.DistributionSpec(LINE_FORM, True)),
     ValidationError, "declared class True"),
    (lambda: foliation.sections_dimension(4, True, 5), ValidationError, "k=True"),
    (lambda: foliation.sections_dimension(3, 2, 2.5), ValidationError, "c=2.5"),
    (lambda: foliation.sections_dimension(4.0, 1, 5), ValidationError, "P\\^4.0"),
], ids=["poly-dim", "poly-exponent", "pow", "form-dim", "form-degree", "component-degree",
        "fibration-degree", "radial-model", "blow-up", "chern-twist", "solver-product",
        "hypersurface-index", "parse-dim", "variable-index", "variable-float-index",
        "derivative-index", "covector-index", "form-index", "resonance-target",
        "hypersurface-target", "codimension", "float-codimension", "declared-twist",
        "contact-pairs", "declared-class", "sections-codimension", "sections-float-twist",
        "sections-float-dimension"])
def test_bools_are_refused_as_counts(call, error, message):
    """``True == 1``, but a dimension, degree, count, twist or exponent must
    be an int proper, as a coefficient must."""
    with pytest.raises(error, match=message):
        call()


def test_constructors():
    z = MultiPoly.zero(3)
    assert z.is_zero and total_degree(z) is None
    c = MultiPoly.constant(3, Fraction(5, 2))
    assert total_degree(c) == 0
    x1 = MultiPoly.variable(3, 1)
    assert x1.terms == {(0, 1, 0): Fraction(1)}
    m = MultiPoly.monomial(3, (2, 0, 1))
    assert total_degree(m) == 3


def test_ring_laws_randomized():
    rng = random.Random(11)
    for _ in range(60):
        dim = rng.randint(1, 4)
        p = rand_poly(rng, dim)
        q = rand_poly(rng, dim)
        r = rand_poly(rng, dim)
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert p * (q + r) == p * q + p * r
        assert p - p == MultiPoly.zero(dim)


def test_pow_matches_repeated_multiplication():
    rng = random.Random(12)
    for _ in range(20):
        dim = rng.randint(1, 3)
        p = rand_poly(rng, dim, max_degree=1, terms=2)
        acc = MultiPoly.constant(dim, 1)
        for k in range(5):
            assert p ** k == acc
            acc = acc * p


def test_dimension_mismatch_raises():
    p = MultiPoly.variable(2, 0)
    q = MultiPoly.variable(3, 0)
    with pytest.raises(DimensionMismatch):
        p + q


def test_homogeneity_detection():
    dim = 3
    h = MultiPoly(dim, {(2, 0, 0): 1, (0, 1, 1): -2})
    assert h.homogeneous_degree() == 2
    mixed = MultiPoly(dim, {(2, 0, 0): 1, (0, 1, 0): 1})
    assert mixed.homogeneous_degree() is None
    assert MultiPoly.zero(dim).homogeneous_degree() is None


def test_partial_derivative_leibniz_and_symmetry():
    rng = random.Random(13)
    for _ in range(40):
        dim = rng.randint(2, 4)
        p = rand_poly(rng, dim)
        q = rand_poly(rng, dim)
        i = rng.randrange(dim)
        j = rng.randrange(dim)
        prod = p * q
        assert prod.partial_derivative(i) == p.partial_derivative(i) * q + p * q.partial_derivative(i)
        assert p.partial_derivative(i).partial_derivative(j) == p.partial_derivative(j).partial_derivative(i)


def test_euler_identity_for_homogeneous():
    rng = random.Random(14)
    from helpers import rand_homogeneous

    for _ in range(30):
        dim = rng.randint(1, 4)
        degree = rng.randint(1, 4)
        p = rand_homogeneous(rng, dim, degree)
        assert euler_degree_check(p)


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(15)
    for _ in range(40):
        dim = rng.randint(1, 4)
        p = rand_poly(rng, dim)
        q = rand_poly(rng, dim)
        pt = rand_point(rng, dim)
        assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)
        assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)


def test_evaluate_exact_for_rational_points():
    p = MultiPoly(2, {(2, 0): Fraction(1, 3), (0, 1): 1})
    v = p.evaluate([Fraction(1, 2), Fraction(-1, 4)])
    assert isinstance(v, Fraction)
    assert v == Fraction(1, 3) * Fraction(1, 4) - Fraction(1, 4)


def test_evaluate_complex_points():
    p = MultiPoly(1, {(2,): 1})
    v = p.evaluate([1j])
    assert isinstance(v, complex)
    assert v == -1 + 0j


def test_substitute_composes_with_evaluate():
    rng = random.Random(16)
    for _ in range(30):
        dim = rng.randint(1, 3)
        inner_dim = rng.randint(1, 3)
        p = rand_poly(rng, dim, max_degree=2, terms=2)
        images = [rand_poly(rng, inner_dim, max_degree=1, terms=2) for _ in range(dim)]
        pt = rand_point(rng, inner_dim)
        composed = p.substitute(images)
        assert composed.evaluate(pt) == p.evaluate([g.evaluate(pt) for g in images])


def test_sorted_terms_descending_lex():
    p = MultiPoly(2, {(0, 2): 1, (1, 1): 1, (2, 0): 1, (0, 0): 1})
    keys = [k for k, _ in p.sorted_terms()]
    assert keys == [(2, 0), (1, 1), (0, 2), (0, 0)]


def test_to_str_pinned():
    p = MultiPoly(2, {(2, 0): 3, (0, 1): 6})
    assert p.to_str() == "3*x0^2 + 6*x1"
    q = MultiPoly(2, {(1, 0): Fraction(-1, 2), (0, 0): 1})
    assert q.to_str() == "-1/2*x0 + 1"
    assert MultiPoly.zero(2).to_str() == "0"


def test_hash_consistent_with_eq():
    a = MultiPoly(2, {(1, 0): Fraction(2, 4)})
    b = MultiPoly(2, {(1, 0): Fraction(1, 2)})
    assert a == b and hash(a) == hash(b)


def test_involved_variables():
    p = MultiPoly(4, {(1, 0, 0, 0): 1, (0, 0, 2, 0): 1})
    assert p.involved_variables() == frozenset({0, 2})


def test_exponent_bound():
    top = MAX_EXPONENT
    assert top == 2**63 - 1
    x0, x1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    p = MultiPoly.monomial(2, (top, 0), 3)
    assert p == x0 ** top * 3 and p.terms == {(top, 0): 3}
    assert (p * x1).terms == {(top, 1): 3}
    assert (x1 ** top * x0).terms == {(1, top): 1}  # a full low field does not carry
    assert p.partial_derivative(0) == MultiPoly.monomial(2, (top - 1, 0), 3 * top)
    assert p.to_str() == f"3*x0^{top}" and p.homogeneous_degree() == top
    # the fields' OR sets a top bit here, yet the largest exponents sum to the bound
    a = MultiPoly(2, {(2**62, 0): 1, (2**61, 1): 1})
    b = MultiPoly.monomial(2, (2**62 - 1, 0))
    assert (a * b).terms == {(top, 0): 1, (2**62 + 2**61 - 1, 1): 1}
    crossing = [
        lambda: MultiPoly.monomial(2, (top + 1, 0)),
        lambda: p * x0,
        lambda: x0 * MultiPoly(2, {(top, 0): 1, (0, 1): 1}),
        lambda: a * MultiPoly.monomial(2, (2**62, 0)),
        lambda: MultiPoly.monomial(2, (2**62, 0)) ** 2,
        lambda: (x0 + x1) ** (top + 1),
    ]
    for make in crossing:
        with pytest.raises(ValidationError, match=r"MAX_EXPONENT = 2\^63 - 1"):
            make()


def test_variable_budget():
    assert MultiPoly.variable(MAX_VARIABLES, MAX_VARIABLES - 1).involved_variables() == {
        MAX_VARIABLES - 1}
    for make in (MultiPoly.zero, lambda n: MultiPoly.variable(n, 0)):
        with pytest.raises(ValidationError, match="MAX_VARIABLES"):
            make(MAX_VARIABLES + 1)


def test_coefficient_budget_of_powers():
    two, half = MultiPoly.constant(1, 2), MultiPoly.constant(1, Fraction(1, 2))
    assert (two ** COEFFICIENT_BUDGET).terms == {(0,): 2**COEFFICIENT_BUDGET}
    assert (half ** 3).terms == {(0,): Fraction(1, 8)}
    x0, x1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    for make in (lambda: two ** (COEFFICIENT_BUDGET + 1),
                 lambda: half ** (COEFFICIENT_BUDGET + 1),
                 lambda: (x0 + x1) ** (COEFFICIENT_BUDGET + 1)):
        with pytest.raises(ValidationError, match="COEFFICIENT_BUDGET"):
            make()
    # a first power builds nothing, however long its coefficients are
    big = MultiPoly.constant(1, 2 ** (2 * COEFFICIENT_BUDGET))
    assert big ** 1 == big
    with pytest.raises(ValidationError, match="COEFFICIENT_BUDGET"):
        big ** 2
    # a coefficient-1 monomial adds no bits, so its powers meet only MAX_EXPONENT
    assert (x0 ** MAX_EXPONENT).terms == {(MAX_EXPONENT, 0): 1}


def test_term_pair_budget_of_powers():
    assert TERM_PAIR_BUDGET == 1000**2
    x0, x1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    one = MultiPoly.constant(2, 1)
    # (x0 + x1)^1000 has 1001 terms, so squaring it takes 1001^2 term pairs
    with pytest.raises(ValidationError, match="TERM_PAIR_BUDGET"):
        (x0 + x1) ** 2000
    # a trinomial's 50th power has at most C(52, 2) = 1326 terms by the
    # multinomial count, but at most 101 by the count of monomials of its
    # degrees: 0 to 100 in x0, or 100 in x0 and x1
    for base in (one + x0 + x0 * x0, x0 * x0 + x0 * x1 + x1 * x1):
        assert len((base ** 100).terms) == 201
        with pytest.raises(ValidationError, match="TERM_PAIR_BUDGET"):
            base ** 2002


def test_term_pair_budget_of_products(monkeypatch):
    rows = MultiPoly(2, {(i, 0): 1 for i in range(1001)})
    cols = MultiPoly(2, {(0, j): 1 for j in range(1000)})
    with pytest.raises(ValidationError, match="TERM_PAIR_BUDGET = 1000000"):
        rows * cols
    # a power's estimate prices its last squaring, p * p here, and p * p^2
    # takes 200 * 20100 term pairs: (i + j, i^2 + j^2) tells each pair apart
    p = MultiPoly(2, {(i, i * i): 1 for i in range(200)})
    assert len((p ** 2).terms) == 200 * 201 // 2
    with pytest.raises(ValidationError, match="TERM_PAIR_BUDGET"):
        p ** 3
    one = MultiPoly.constant(2, 1)
    with pytest.raises(DimensionMismatch):
        MultiPoly.sums_of_products(2, {0: [(1, one, MultiPoly.constant(3, 1))]})
    # the products of one sum are priced together: 5 * 10 pairs twice is a
    # budget of 100, and one pair more passes it
    monkeypatch.setattr(polynomials, "TERM_PAIR_BUDGET", 100)
    five = MultiPoly(2, {(i, 0): 1 for i in range(5)})
    ten = MultiPoly(2, {(0, j): 1 for j in range(10)})
    assert MultiPoly.sums_of_products(2, {0: [(1, five, ten), (-1, ten, five)]})[0].is_zero
    with pytest.raises(ValidationError, match="TERM_PAIR_BUDGET = 100"):
        MultiPoly.sums_of_products(2, {0: [(1, five, ten), (-1, ten, five), (1, one, one)]})


def test_all_groups_are_checked_before_any_multiply(monkeypatch):
    summed = []
    real = polynomials._sum_triples
    monkeypatch.setattr(polynomials, "_sum_triples",
                        lambda dim, triples: summed.append(triples) or real(dim, triples))
    monkeypatch.setattr(polynomials, "TERM_PAIR_BUDGET", 100)
    one = MultiPoly.constant(2, 1)
    five = MultiPoly(2, {(i, 0): 1 for i in range(5)})
    ten = MultiPoly(2, {(0, j): 1 for j in range(10)})
    # each group takes 50 term pairs and fits; two of them fill the budget
    assert MultiPoly.sums_of_products(2, {"a": [(1, five, ten)], "b": [(-1, ten, five)]}) == {
        "a": five * ten, "b": -(five * ten)}
    summed.clear()
    with pytest.raises(ValidationError, match="multiplying would take 101 term pairs"):
        MultiPoly.sums_of_products(2, {"a": [(1, five, ten)], "b": [(-1, ten, five)],
                                       "c": [(1, one, one)]})
    # a mismatch or an exponent overflow in the last group stops the first
    dims, top = "ambient dimensions differ", MultiPoly.monomial(2, (MAX_EXPONENT, 0))
    for bad, fault, match in [((1, one, MultiPoly.constant(3, 1)), DimensionMismatch, dims),
                              ((1, MultiPoly.constant(1, 1), one), DimensionMismatch, dims),
                              ((1, top, MultiPoly.variable(2, 0)), ValidationError, "MAX_EXP")]:
        with pytest.raises(fault, match=match):
            MultiPoly.sums_of_products(2, {0: [(1, one, one)], 1: [(1, one, one), bad]})
    assert summed == []


def test_terms_is_a_read_only_view():
    p = MultiPoly(2, {(1, 0): Fraction(1, 2), (0, 3): 2})
    assert dict(p.terms) == {(1, 0): Fraction(1, 2), (0, 3): Fraction(2)}
    assert len(p.terms) == 2 and (0, 3) in p.terms
    assert (3, 0) not in p.terms and (1,) not in p.terms and (-1, 0) not in p.terms
    with pytest.raises(TypeError):
        p.terms[(1, 0)] = 1
