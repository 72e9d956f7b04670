import random

import pytest

from foliatk import distribution
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
from foliatk.foliation import classify_projective_point, total_differential
from foliatk.forms import DiffForm, PolyVectorField, interior_product
from foliatk.polynomials import MultiPoly
from helpers import (
    cheap_zero_group_form, oracle_one_forms, plain_class_and_power, rand_homogeneous, rand_point,
    seeded_contact_forms,
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


def test_class_chain_matches_plain_wedges(monkeypatch):
    """``class_of``, ``validate_class`` and ``kupka_test_distribution`` against
    the class by its definition and ``(d omega)^r`` built from 1."""
    rng = random.Random(67)
    forms = seeded_contact_forms(rng, 8) + oracle_one_forms(rng)
    seen = []
    monkeypatch.setattr(distribution, "classify_projective_point",
                        lambda omega, power, *rest: seen.append(power)
                        or classify_projective_point(omega, power, *rest))
    classes = []
    for omega in forms:
        r, power = plain_class_and_power(omega)
        assert class_of(omega) == r
        assert validate_class(DistributionSpec(omega, declared_class=r)) == r
        with pytest.raises(ValidationError, match=f"declared class {r + 1} but computed {r}"):
            validate_class(DistributionSpec(omega, declared_class=r + 1))
        point = rand_point(rng, omega.ambient_dim)
        if not any(point):
            point[-1] = 1
        verdict = kupka_test_distribution(DistributionSpec(omega), point)
        assert seen.pop() == power
        assert verdict == classify_projective_point(omega, power, point, 1e-9)
        classes.append(r)
    assert {1, 2, 3} <= set(classes)
    assert class_of(cheap_zero_group_form()) == 2


def test_class_chain_leaves_the_degree_decided_power_unbuilt(monkeypatch):
    """On ``2r + 1`` variables a projective 1-form's ``omega ^ (d omega)^r``
    has top degree and contracts to zero against the Euler field, so
    ``class_of`` builds no wedge of degree ``2r``; the Kupka test builds
    ``(d omega)^r`` once.  The standard contact form ``dx_{2r} + sum_i x_i
    dx_{i+r}`` is not projective and needs that power: its class is
    ``r + 1``."""
    built = []
    wedge = DiffForm.wedge
    monkeypatch.setattr(DiffForm, "wedge", lambda self, other: (
        built.append(self.degree + other.degree)) or wedge(self, other))
    rng = random.Random(71)
    for r in (1, 2, 3):
        dim = 2 * r + 1
        gens = [rand_homogeneous(rng, dim, 1) + MultiPoly.variable(dim, i) * 7
                for i in range(2 * r)]
        for omega in (linear_contact(r, dim).omega, build_contact_type(gens).omega):
            assert omega.is_projective()
            built.clear()
            assert class_of(omega) == r
            assert all(d < 2 * r for d in built)
            point = [0] * (dim - 1) + [1]
            kupka_test_distribution(DistributionSpec(omega), point)
            assert built.count(2 * r) == (r > 1)  # P_1 = d omega needs no wedge
        x = [MultiPoly.variable(dim, i) for i in range(dim)]
        standard = DiffForm(dim, 1, {(2 * r,): MultiPoly.constant(dim, 1),
                                     **{(i + r,): x[i] for i in range(r)}})
        built.clear()
        assert not standard.is_projective() and class_of(standard) == r + 1
        assert built.count(2 * r) == (r > 1)
