import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from foliatk import polynomials
from foliatk.distribution import (
    ContactDistribution,
    DistributionSpec,
    build_contact_type,
    class_of,
    kupka_test_distribution,
    validate_class,
    verify_darboux_identities,
)
from foliatk.errors import DegreeMismatch, ValidationError
from foliatk.foliation import integrability_check_codim1, total_differential
from foliatk.forms import DiffForm, PolyVectorField, interior_product
from foliatk.polynomials import MultiPoly, term_pairs
from helpers import (
    cheap_zero_group_form, oracle_one_forms, plain_class_and_power, plain_kupka_label,
    rand_homogeneous, rand_point, rand_poly, seeded_contact_forms,
)


def linear_contact(r, dim=None):
    dim = 2 * r if dim is None else dim
    return build_contact_type([MultiPoly.variable(dim, i) for i in range(2 * r)])


def test_class_of_pinned():
    x0 = MultiPoly.variable(3, 0)
    x1 = MultiPoly.variable(3, 1)
    pencil = DiffForm(3, 1, {(0,): -x1, (1,): x0})
    assert class_of(pencil) == 1
    assert class_of(linear_contact(2).omega) == 2
    assert class_of(linear_contact(3).omega) == 3
    with pytest.raises(DegreeMismatch):
        class_of(DiffForm.zero(3, 2))
    with pytest.raises(ValidationError):
        class_of(DiffForm.zero(3, 1))


def test_validate_class_cross_check():
    omega = linear_contact(2).omega
    assert validate_class(DistributionSpec(omega, declared_class=2)) == 2
    with pytest.raises(ValidationError):
        validate_class(DistributionSpec(omega, declared_class=1))


def test_build_contact_type_pinned():
    contact = linear_contact(2)
    assert contact.r == 2 and contact.generator_degree == 1
    assert contact.omega.to_str() == "-x2*dx0 - x3*dx1 + x0*dx2 + x1*dx3"


def test_build_contact_type_rejections():
    x = [MultiPoly.variable(4, i) for i in range(4)]
    with pytest.raises(ValidationError):
        build_contact_type(x[:3])
    with pytest.raises(ValidationError):
        build_contact_type(x, r=1)
    with pytest.raises(DegreeMismatch):
        build_contact_type([x[0], x[1], x[2], x[3] * x[3]])
    with pytest.raises(DegreeMismatch):
        build_contact_type([MultiPoly.constant(4, 1)] * 4)
    with pytest.raises(ValidationError):
        build_contact_type([x[0], x[0]])  # omega collapses to zero


def test_darboux_identities_linear_and_quadratic():
    linear = verify_darboux_identities(linear_contact(2))
    assert linear.d_omega_ok and linear.radial_ok
    assert linear.degree_d == 0 and linear.generator_degree == 1

    squares = build_contact_type([MultiPoly.monomial(4, tuple(2 if j == i else 0 for j in range(4))) for i in range(4)])
    quadratic = verify_darboux_identities(squares)
    assert quadratic.d_omega_ok and quadratic.radial_ok
    assert quadratic.degree_d == 2 and quadratic.generator_degree == 2


def test_darboux_identities_randomized():
    rng = random.Random(61)
    checked = 0
    while checked < 20:
        r = rng.randint(1, 2)
        dim = rng.randint(2 * r, 2 * r + 2)
        degree = rng.randint(1, 2)
        gens = [rand_homogeneous(rng, dim, degree) for _ in range(2 * r)]
        try:
            contact = build_contact_type(gens)
        except ValidationError:
            continue
        report = verify_darboux_identities(contact)
        assert report.d_omega_ok and report.radial_ok
        assert report.degree_d == 2 * degree - 2
        checked += 1


def test_top_power_constant_for_linear_contact():
    # (d omega)^r on 2r variables is (-1)^(r(r-1)/2) * r! * 2^r times the
    # volume form
    expected = {1: 2, 2: -8, 3: -48}
    for r, constant in expected.items():
        dim = 2 * r
        omega = linear_contact(r).omega
        domega = omega.exterior_derivative()
        power = DiffForm.from_poly(MultiPoly.constant(dim, 1))
        for _ in range(r):
            power = power.wedge(domega)
        top = tuple(range(dim))
        assert power.coeffs == {top: MultiPoly.constant(dim, constant)}


def test_kupka_test_distribution_verdicts():
    contact = linear_contact(2, dim=5)
    spec = DistributionSpec(contact.omega)
    kupka = kupka_test_distribution(spec, [0, 0, 0, 0, 1])
    assert kupka.classification == "Kupka"
    assert kupka.mode == "exact" and kupka.scale_consistent
    regular = kupka_test_distribution(spec, [1, 0, 0, 0, 0])
    assert regular.classification == "Regular"

    # an exact 1-form has d omega = 0, so its zeros are never Kupka
    closed = total_differential(MultiPoly.variable(3, 0) * MultiPoly.variable(3, 1))
    degenerate = kupka_test_distribution(DistributionSpec(closed), [0, 0, 1])
    assert degenerate.classification == "NonKupkaSingular"

    numeric = kupka_test_distribution(spec, [1e-12, 0.0, 0.0, 0.0, 1.0])
    assert numeric.classification == "Kupka" and numeric.mode == "numeric"

    with pytest.raises(ValidationError):
        kupka_test_distribution(spec, [0, 0, 0, 0, 0])
    with pytest.raises(ValidationError):
        kupka_test_distribution(spec, [0, 0, 0, float("nan"), 1])


def test_contact_form_contracts_radially():
    rng = random.Random(62)
    for _ in range(10):
        r = rng.randint(1, 3)
        dim = 2 * r + rng.randint(0, 1)
        gens = [rand_homogeneous(rng, dim, rng.randint(1, 2)) for _ in range(2 * r)]
        try:
            contact = build_contact_type(gens)
        except ValidationError:
            continue
        radial = PolyVectorField.radial(dim)
        assert interior_product(radial, contact.omega).is_zero
        assert isinstance(contact, ContactDistribution)


def vanishing_contact_forms(rng, count):
    """Contact forms on ``2r`` or ``2r + 1`` variables whose generators have
    no pure power of the last variable, so ``omega`` vanishes at ``e_last``;
    there ``d omega`` may or may not have a nonzero ``r``-th power."""
    forms = []
    while len(forms) < count:
        r = rng.randint(1, 3)
        dim = 2 * r + rng.randint(0, 1)
        gens = []
        for _ in range(2 * r):
            degree = rng.randint(1, 2)
            pure = tuple(degree if i == dim - 1 else 0 for i in range(dim))
            f = rand_homogeneous(rng, dim, degree, terms=4)
            gens.append(f - MultiPoly.monomial(dim, pure, f.terms.get(pure, 0)))
        try:
            forms.append(build_contact_type(gens).omega)
        except (ValidationError, DegreeMismatch):
            continue
    return forms


def test_class_chain_matches_plain_wedges():
    """``class_of``, ``validate_class`` and ``kupka_test_distribution`` against
    the class by its definition and ``(d omega)^r`` built from 1 and then
    evaluated: on seeded contact forms, contact forms vanishing at
    ``e_last``, inhomogeneous 1-forms and forms with ``iota_R omega != 0``,
    at rational and complex points.  The chain runs on the ``dx_j``
    quotient and the Kupka test takes the power at the point, so any
    disagreement with the plain definition shows here."""
    rng = random.Random(67)
    inhomogeneous = [DiffForm(dim, 1, {(i,): rand_poly(rng, dim) for i in range(dim)})
                     for dim in (3, 4, 5) for _ in range(3)]
    forms = (seeded_contact_forms(rng, 8) + vanishing_contact_forms(rng, 10)
             + oracle_one_forms(rng) + inhomogeneous)
    assert not any(omega.is_projective() for omega in inhomogeneous)
    classes, labels = [], set()
    for omega in forms:
        r, power = plain_class_and_power(omega)
        assert class_of(omega) == r
        assert validate_class(DistributionSpec(omega, declared_class=r)) == r
        with pytest.raises(ValidationError, match=f"declared class {r + 1} but computed {r}"):
            validate_class(DistributionSpec(omega, declared_class=r + 1))
        dim = omega.ambient_dim
        point = rand_point(rng, dim)
        if not any(point):
            point[-1] = 1
        corner = [0] * (dim - 1) + [1]
        for p in (point, corner, [v * 1j for v in point], [v * (1 + 2j) for v in corner]):
            verdict = kupka_test_distribution(DistributionSpec(omega), p)
            label = plain_kupka_label(omega, power, p)
            assert verdict.classification == label
            exact = not isinstance(p[-1], complex)
            assert verdict.mode == ("exact" if exact else "numeric")
            assert verdict.scale_consistent == (
                (exact and omega.is_projective())
                or label == plain_kupka_label(omega, power, [2 * v for v in p]))
            labels.add(label)
        classes.append(r)
    assert {1, 2, 3} <= set(classes)
    assert labels == {"Regular", "Kupka", "NonKupkaSingular"}
    assert class_of(cheap_zero_group_form()) == 2


def test_class_chain_leaves_the_degree_decided_power_unbuilt(monkeypatch):
    """On ``2r + 1`` variables a projective 1-form's class chain runs on the
    quotient by one ``dx_j``, which has ``2r`` covectors: every power it
    builds avoids ``j``, it builds none past ``eta^(r-1)``, and ``omega ^ (d
    omega)^r`` is decided by degree.  The Kupka test builds no wedge at all: it takes
    the ``r``-th power of ``d omega(p)``.  The standard contact form
    ``dx_{2r} + sum_i x_i dx_{i+r}`` is not projective and needs ``(d
    omega)^r`` in full: its class is ``r + 1``."""
    built = []
    wedge = DiffForm.wedge
    monkeypatch.setattr(DiffForm, "wedge", lambda self, other: (
        built.append(wedge(self, other))) or built[-1])
    rng = random.Random(71)
    for r in (1, 2, 3):
        dim = 2 * r + 1
        gens = [rand_homogeneous(rng, dim, 1) + MultiPoly.variable(dim, i) * 7
                for i in range(2 * r)]
        for omega in (linear_contact(r, dim).omega, build_contact_type(gens).omega):
            assert omega.is_projective()
            built.clear()
            assert class_of(omega) == r
            # eta^2, ..., eta^(r-1): eta needs no wedge, eta^r is not tested
            assert [power.degree for power in built] == [2 * k for k in range(2, r)]
            touched = [i for i in range(dim) if any(i in idx for p in built for idx in p.coeffs)]
            assert len(touched) < dim
            built.clear()
            point = [0] * (dim - 1) + [1]
            kupka_test_distribution(DistributionSpec(omega), point)
            assert built == []
        x = [MultiPoly.variable(dim, i) for i in range(dim)]
        standard = DiffForm(dim, 1, {(2 * r,): MultiPoly.constant(dim, 1),
                                     **{(i + r,): x[i] for i in range(r)}})
        built.clear()
        assert not standard.is_projective() and class_of(standard) == r + 1
        assert [power.degree for power in built] == [2 * k for k in range(2, r + 1)]


def test_the_frobenius_test_stops_after_one_zero_test(monkeypatch):
    """``integrability_check_codim1`` on a fresh 1-form runs the class chain
    only to ``k = 1``; ``class_of`` resumes from there, and neither repeats
    a zero test.  On 7 variables a contact form of class 3 takes two: ``k =
    1`` and ``k = 2``; degree decides ``k = 3``."""
    tested = []
    vanishes = DiffForm.wedge_vanishes
    monkeypatch.setattr(DiffForm, "wedge_vanishes", lambda self, other: (
        tested.append(other.degree)) or vanishes(self, other))
    rng = random.Random(5)
    gens = [rand_homogeneous(rng, 7, 2, terms=4) for _ in range(6)]
    omega = build_contact_type(gens).omega
    assert not integrability_check_codim1(omega)
    assert tested == [2]
    assert class_of(omega) == 3
    assert tested == [2, 4]
    assert not integrability_check_codim1(omega) and class_of(omega) == 3
    assert tested == [2, 4]
    # a class-1 form settles at the first test
    tested.clear()
    pencil = linear_contact(1, 4).omega
    assert integrability_check_codim1(pencil) and class_of(pencil) == 1
    assert tested == [2]


def contact_on_nine_variables():
    """The contact form of eight seeded 6-term quadrics on 9 variables, none
    with an ``x8^2`` term, so ``omega(e_8) = 0``."""
    rng = random.Random(0)
    dim = 9
    pairs = [pair for pair in combinations_with_replacement(range(dim), 2) if pair != (8, 8)]
    gens = []
    for _ in range(8):
        terms = {}
        for a, b in rng.sample(pairs, 6):
            exps = [0] * dim
            exps[a] += 1
            exps[b] += 1
            terms[tuple(exps)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        gens.append(MultiPoly(dim, terms))
    return build_contact_type(gens).omega


def test_a_nine_variable_contact_form_gets_its_class_and_kupka_verdict():
    """Building ``(d omega)^3`` in full for this form would take about 2.1
    million term pairs, past ``TERM_PAIR_BUDGET``.  On the ``dx_j`` quotient
    the chain builds ``eta^2`` and ``eta^3`` in 8 covectors and degree
    decides ``k = 4``; the Kupka test at ``e_8`` takes the fourth power of
    the constant 2-form ``d omega(e_8)``."""
    omega = contact_on_nine_variables()
    domega = omega.exterior_derivative()
    with pytest.raises(ValidationError, match="TERM_PAIR_BUDGET"):
        domega.wedge(domega).wedge(domega)
    assert class_of(omega) == 4
    verdict = kupka_test_distribution(DistributionSpec(omega), [0] * 8 + [1])
    assert verdict.classification == "NonKupkaSingular" and verdict.mode == "exact"


def test_class_of_sums_few_term_pairs(monkeypatch):
    """A work guard: on a fixed contact form of class 3 on 7 variables,
    ``class_of`` multiplies at most 2,300 term pairs (2,291 on the ``dx_j``
    quotient; building ``(d omega)^2`` in full took 3,752)."""
    rng = random.Random(0)
    omega = build_contact_type([rand_homogeneous(rng, 7, 2, terms=4) for _ in range(6)]).omega
    summed = [0]
    real = polynomials._sum_triples

    def counting(dim, triples):
        summed[0] += term_pairs(triples)
        return real(dim, triples)

    monkeypatch.setattr(polynomials, "_sum_triples", counting)
    assert class_of(omega) == 3
    assert 0 < summed[0] <= 2300
