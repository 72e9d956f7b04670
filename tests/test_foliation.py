import dataclasses
import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

from foliatk import distribution, foliation, forms
from foliatk.errors import (
    DegreeMismatch,
    EngineError,
    InhomogeneousCoefficients,
    RadialContractionNonzero,
    ValidationError,
)
from foliatk.foliation import (
    FoliationSpec,
    blow_up_map,
    blow_up_strict_transform,
    blow_up_var_names,
    build_rational_component,
    classify_point,
    component_first_integral_check,
    fibration_exponents,
    first_integral_check,
    integrability_check_codim1,
    invariants,
    kupka_test,
    radial_model_form,
    sections_dimension,
    total_differential,
    validate_projective,
)
from foliatk.forms import DiffForm, PolyVectorField, interior_product
from foliatk.parser import parse_polynomial
from foliatk.polynomials import MultiPoly
from helpers import (
    cheap_zero_group_form, oracle_one_forms, plain_class_and_power, rand_homogeneous, rand_poly,
    seeded_contact_forms,
)


def pencil_form(dim=3):
    # x0 dx1 - x1 dx0, the fibration [x0 : x1]
    x0 = MultiPoly.variable(dim, 0)
    x1 = MultiPoly.variable(dim, 1)
    return DiffForm(dim, 1, {(0,): -x1, (1,): x0})


def test_validate_projective_pencil():
    spec = validate_projective(pencil_form(), k=1)
    assert (spec.n, spec.k, spec.c) == (2, 1, 2)
    assert invariants(spec) == {
        "n": 2, "k": 1, "c": 2, "coefficient_degree": 1, "foliation_degree": 0,
    }


def test_validate_projective_rejections():
    with pytest.raises(DegreeMismatch):
        validate_projective(pencil_form(4), k=1)  # codim 1 in P^3 needs a 2-form
    with pytest.raises(RadialContractionNonzero):
        validate_projective(DiffForm.basis_covector(3, 0) * MultiPoly.variable(3, 1), k=1)
    bad = DiffForm(3, 1, {
        (0,): MultiPoly.variable(3, 1) * -1,
        (1,): MultiPoly.constant(3, 1),
    })
    with pytest.raises(InhomogeneousCoefficients):
        validate_projective(bad, k=1)
    with pytest.raises(ValidationError):
        validate_projective(pencil_form(), k=2)  # k = n leaves no leaf dimension
    with pytest.raises(DegreeMismatch):
        validate_projective(pencil_form(), k=1, expected_c=3)
    with pytest.raises(ValidationError):
        validate_projective(DiffForm.zero(3, 1), k=1)


def test_rational_component_agrees_with_radial_contraction():
    rng = random.Random(31)
    for _ in range(20):
        dim = rng.randint(3, 5)
        count = rng.randint(2, dim - 1)
        degrees = [rng.randint(1, 3) for _ in range(count)]
        polys = [rand_homogeneous(rng, dim, d) for d in degrees]
        try:
            comp = build_rational_component(polys, degrees)
        except ValidationError:
            continue  # dependent generators give the zero form
        wedge_all = DiffForm.from_poly(MultiPoly.constant(dim, 1))
        for f in polys:
            wedge_all = wedge_all.wedge(total_differential(f))
        contracted = interior_product(PolyVectorField.radial(dim), wedge_all)
        assert comp.omega == contracted
        # d omega recovers the twist against the same wedge
        assert comp.omega.exterior_derivative() == wedge_all * comp.foliation.c


def test_rational_component_metadata():
    polys = [MultiPoly.variable(4, 0), MultiPoly.variable(4, 1)]
    comp = build_rational_component(polys, [1, 1])
    assert (comp.foliation.n, comp.foliation.k, comp.foliation.c) == (3, 2, 2)
    assert comp.transversal_weights == (1, 1)


def test_rational_component_rejections():
    x0 = MultiPoly.variable(3, 0)
    x1 = MultiPoly.variable(3, 1)
    with pytest.raises(ValidationError):
        build_rational_component([x0], [1])
    with pytest.raises(DegreeMismatch):
        build_rational_component([x0, x1], [1, 2])
    with pytest.raises(ValidationError):
        build_rational_component([x0, x0], [1, 1])  # dependent
    sq = MultiPoly(3, {(2, 0, 0): 1, (0, 1, 0): 1})
    with pytest.raises(InhomogeneousCoefficients):
        build_rational_component([sq, x1], [2, 1])
    with pytest.raises(ValidationError):
        build_rational_component([x0, x1, MultiPoly.variable(3, 2)], [1, 1, 1])


def test_kupka_test_exact_verdicts():
    spec = validate_projective(pencil_form(), k=1)
    regular = kupka_test(spec, [Fraction(1), Fraction(0), Fraction(0)])
    assert regular.classification == "Regular"
    assert regular.mode == "exact" and regular.scale_consistent
    kupka = kupka_test(spec, [Fraction(0), Fraction(0), Fraction(1)])
    assert kupka.classification == "Kupka"
    assert kupka.mode == "exact" and kupka.scale_consistent

    comp = build_rational_component(
        [MultiPoly.monomial(4, (2, 0, 0, 0)), MultiPoly.monomial(4, (0, 2, 0, 0))],
        [2, 2],
    )
    degenerate = kupka_test(comp.foliation, [0, 0, 1, 0])
    assert degenerate.classification == "NonKupkaSingular"
    assert degenerate.scale_consistent


def test_kupka_test_numeric_mode():
    spec = validate_projective(pencil_form(), k=1)
    verdict = kupka_test(spec, [1e-12, 0.0, 1.0])
    assert verdict.classification == "Kupka"
    assert verdict.mode == "numeric" and verdict.scale_consistent
    # value below tol whose double crosses it: the consistency bit trips
    borderline = kupka_test(spec, [6e-10, 0.0, 1.0])
    assert borderline.classification == "Kupka"
    assert not borderline.scale_consistent


# the --polys and --degrees of the golden rational components, in 4 variables
GOLDEN_COMPONENTS = [("x0;x1;x2", [1, 1, 1]), ("x0^2 + x1*x2;x3^2", [2, 2]),
                     ("x0^2;x1^2", [2, 2]), ("x0^2 + x1*x2;x3^3 - x0*x1*x2", [2, 3])]


def test_exact_verdicts_hold_at_twice_the_point():
    specs = [validate_projective(pencil_form(), k=1)] + [
        build_rational_component([parse_polynomial(p, 4) for p in polys.split(";")],
                                 degrees).foliation
        for polys, degrees in GOLDEN_COMPONENTS
    ]
    rng = random.Random(17)
    seen = set()
    for spec in specs:
        for _ in range(60):
            point = [rng.choice([0, 0, Fraction(rng.randint(-5, 5), rng.randint(1, 4))])
                     for _ in range(spec.n + 1)]
            if not any(point):
                continue
            verdict = kupka_test(spec, point)
            assert verdict.mode == "exact" and verdict.scale_consistent
            doubled = [2 * v for v in point]
            assert classify_point(spec.omega, 1, doubled, verdict.tol)[0] == \
                verdict.classification
            seen.add(verdict.classification)
    assert seen == {"Regular", "Kupka", "NonKupkaSingular"}


def test_only_inexact_or_unvalidated_verdicts_are_recomputed(monkeypatch):
    points = []

    def recording(primary, secondary, point, tol):
        points.append(point)
        return classify_point(primary, secondary, point, tol)

    monkeypatch.setattr(foliation, "classify_point", recording)
    spec = validate_projective(pencil_form(), k=1)
    assert kupka_test(spec, [0, 0, 1]).classification == "Kupka"
    assert points == [[0, 0, 1]]
    points.clear()
    assert kupka_test(spec, [0, 0, 1j]).mode == "numeric"
    assert points == [[0, 0, 1j], [0, 0, 2j]]
    points.clear()
    # a projective distribution has homogeneous coefficients; an affine one
    # is evaluated again at 2p
    omega = distribution.DistributionSpec(pencil_form())
    assert distribution.kupka_test_distribution(omega, [0, 0, 1]).mode == "exact"
    assert points == [[0, 0, 1]]
    points.clear()
    x0 = MultiPoly.variable(3, 0)
    affine = DiffForm(3, 1, {(1,): x0, (2,): MultiPoly.constant(3, 1)})  # x0 dx1 + dx2
    assert not affine.is_projective()
    verdict = distribution.kupka_test_distribution(distribution.DistributionSpec(affine), [0, 0, 1])
    assert verdict.mode == "exact" and verdict.scale_consistent
    assert points == [[0, 0, 1], [0, 0, 2]]


def test_a_hand_built_spec_on_a_non_projective_form_is_recomputed(monkeypatch):
    """The 2p shortcut reads ``is_projective`` off the form, not the spec:
    a validated spec's exact verdict takes one evaluation, a spec built by
    hand around a non-projective form two."""
    points = []

    def recording(primary, secondary, point, tol):
        points.append(point)
        return classify_point(primary, secondary, point, tol)

    monkeypatch.setattr(foliation, "classify_point", recording)
    assert kupka_test(validate_projective(pencil_form(), k=1), [0, 0, 1]).mode == "exact"
    assert points == [[0, 0, 1]]
    points.clear()
    x0 = MultiPoly.variable(3, 0)
    affine = DiffForm(3, 1, {(1,): x0, (2,): MultiPoly.constant(3, 1)})  # x0 dx1 + dx2
    verdict = kupka_test(FoliationSpec(n=2, k=1, c=2, omega=affine), [0, 0, 1])
    assert verdict.mode == "exact" and verdict.scale_consistent
    assert points == [[0, 0, 1], [0, 0, 2]]


def test_kupka_test_input_guards():
    spec = validate_projective(pencil_form(), k=1)
    with pytest.raises(ValidationError):
        kupka_test(spec, [0, 0, 0])
    with pytest.raises(Exception):
        kupka_test(spec, [1, 0])
    for point in ([float("nan"), 0, 1], [0, 0, float("inf")], [0, complex(0, float("nan")), 1]):
        with pytest.raises(ValidationError):
            kupka_test(spec, point)


@pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, float("inf"), "1e-9", True], ids=repr)
def test_a_tolerance_outside_the_positive_reals_is_refused(monkeypatch, tol):
    """Both Kupka entry points refuse a ``tol`` that is not a finite number
    above zero, naming it, before any evaluation: a NaN would pass every
    ``<`` guard as False, and ``inf`` would make every value zero."""
    pencil = validate_projective(pencil_form(), k=1)
    x = [MultiPoly.variable(5, i) for i in range(5)]
    contact = distribution.DistributionSpec(distribution.build_contact_type(x[:4]).omega)
    assert kupka_test(pencil, [0j, 0, 1]).classification == "Kupka"
    assert distribution.kupka_test_distribution(contact, [0j, 0, 0, 0, 1]).classification == "Kupka"
    monkeypatch.setattr(DiffForm, "max_modulus_at", None)  # refused before any evaluation
    with pytest.raises(ValidationError, match=re.escape(repr(tol))):
        kupka_test(pencil, [0j, 0, 1], tol=tol)
    with pytest.raises(ValidationError, match=re.escape(repr(tol))):
        distribution.kupka_test_distribution(contact, [0j, 0, 0, 0, 1], tol=tol)


def test_sections_dimension_values():
    assert sections_dimension(3, 2, 2) == 6
    assert sections_dimension(2, 1, 2) == 3
    assert sections_dimension(3, 1, 2) == 0  # coefficients would need degree 0
    with pytest.raises(ValidationError):
        sections_dimension(3, 3, 2)
    with pytest.raises(ValidationError):
        sections_dimension(3, 1, 0)


def test_integrability_check():
    assert integrability_check_codim1(pencil_form())
    x = [MultiPoly.variable(4, i) for i in range(4)]
    contact = (
        DiffForm.basis_covector(4, 2) * x[0]
        - DiffForm.basis_covector(4, 0) * x[2]
        + DiffForm.basis_covector(4, 3) * x[1]
        - DiffForm.basis_covector(4, 1) * x[3]
    )
    assert not integrability_check_codim1(contact)
    with pytest.raises(DegreeMismatch):
        integrability_check_codim1(DiffForm.zero(3, 2))


def test_first_integral_check():
    omega = pencil_form()
    x0 = MultiPoly.variable(3, 0)
    x1 = MultiPoly.variable(3, 1)
    x2 = MultiPoly.variable(3, 2)
    assert first_integral_check(x0, x1, omega)
    assert not first_integral_check(x0, x2, omega)
    # oracle: the power form (q^b d p^a - p^a d q^b) ^ omega on the built powers
    rng = random.Random(33)
    verdicts = []
    for _ in range(12):
        dim = rng.randint(3, 4)
        degrees = [rng.randint(1, 2) for _ in range(2)]
        try:
            comp = build_rational_component(
                [rand_homogeneous(rng, dim, d) for d in degrees], degrees
            )
        except ValidationError:
            continue
        f, g = comp.polys
        other = rand_homogeneous(rng, dim, rng.randint(1, 2))
        for p, q in ((f, g), (g, f), (f, other), (other, g)):
            for a, b in ((1, 1), (2, 1), (1, 3), (2, 2), (3, 2)):
                verdict = first_integral_check(p, q, comp.omega, a, b)
                assert verdict == first_integral_check(p ** a, q ** b, comp.omega)
                verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_fibration_exponents():
    data = fibration_exponents([2, 3])
    assert data.exponents == (3, 2) and data.common_degree == 6
    assert fibration_exponents([1, 1, 1]).exponents == (1, 1, 1)
    assert fibration_exponents([2, 4]).exponents == (2, 1)
    with pytest.raises(DegreeMismatch):
        fibration_exponents([2, 0])
    for degrees in ([], [3]):
        with pytest.raises(DegreeMismatch, match=f"at least two degrees, got {len(degrees)}$"):
            fibration_exponents(degrees)


def power_form_check(comp):
    """The all-pairs check on the built powers ``f_j^{m_j}``."""
    exps = fibration_exponents(comp.degrees).exponents
    powers = [f ** m for f, m in zip(comp.polys, exps)]
    return all(
        first_integral_check(powers[i], powers[j], comp.omega)
        for i, j in combinations(range(len(powers)), 2)
    )


def test_component_first_integral_check():
    rng = random.Random(32)
    checked = 0
    for _ in range(14):
        dim = rng.randint(3, 4)
        count = rng.randint(2, dim - 1)
        degrees = [rng.randint(1, 3 if count == 2 else 2) for _ in range(count)]
        polys = [rand_homogeneous(rng, dim, d) for d in degrees]
        try:
            comp = build_rational_component(polys, degrees)
        except ValidationError:
            continue
        assert component_first_integral_check(comp)
        assert power_form_check(comp)
        # negative control: one generator perturbed inside the same spec
        j = rng.randrange(count)
        bumped = list(polys)
        bumped[j] = polys[j] + MultiPoly.monomial(dim, (0,) * (dim - 1) + (degrees[j],)) * 7
        bad = dataclasses.replace(comp, polys=tuple(bumped))
        assert not component_first_integral_check(bad)
        assert not power_form_check(bad)
        checked += 1
    assert checked >= 8
    # the last of three generators perturbed: its ratio against f_0 fails
    x = [MultiPoly.variable(4, i) for i in range(4)]
    comp = build_rational_component([x[0], x[1] * x[2] + x[3] * x[3], x[2] * x[2]], [1, 2, 2])
    assert component_first_integral_check(comp) and power_form_check(comp)
    bad = dataclasses.replace(comp, polys=comp.polys[:2] + (comp.polys[2] + x[0] * x[3] * 7,))
    assert not component_first_integral_check(bad)
    assert not power_form_check(bad)


def test_radial_model_and_blow_up():
    assert radial_model_form(1).to_str() == "-x1*dx0 + x0*dx1"
    assert blow_up_var_names(2) == ["x0", "t1", "t2"]
    chart = blow_up_map(2)
    assert chart[0] == MultiPoly.variable(3, 0)
    assert chart[1] == MultiPoly.variable(3, 0) * MultiPoly.variable(3, 1)
    for m in (1, 2, 3):
        epsilon, transform = blow_up_strict_transform(m)
        assert epsilon == 1
        names = blow_up_var_names(m)
        dts = "^^".join(f"dt{j}" for j in range(1, m + 1))
        assert transform.to_str(names) == f"x0^{m + 1}*{dts}"
    with pytest.raises(ValidationError):
        blow_up_strict_transform(0)


def test_a_blow_up_transform_of_another_shape_is_an_engine_error(monkeypatch):
    """epsilon is +1 by construction; a negated transform, or any other,
    is refused rather than reported with epsilon -1."""
    contracted = foliation.contract_differentials
    for wrong in (lambda v, f: -contracted(v, f), lambda v, f: contracted(v, f) * 2):
        monkeypatch.setattr(foliation, "contract_differentials", wrong)
        with pytest.raises(EngineError):
            blow_up_strict_transform(2)


def test_zero_tests_match_plain_wedges():
    """``integrability_check_codim1`` and ``first_integral_check`` against
    ``is_zero`` of the whole wedge, built with plain wedges."""
    rng = random.Random(83)
    forms = oracle_one_forms(rng)
    integrable = []
    for omega in forms:
        plain = omega.wedge(omega.exterior_derivative()).is_zero
        assert integrability_check_codim1(omega) == plain
        integrable.append(plain)
    assert not integrability_check_codim1(cheap_zero_group_form())
    verdicts = []
    for _ in range(12):
        dim = rng.randint(3, 4)
        degrees = [rng.randint(1, 2) for _ in range(2)]
        try:
            comp = build_rational_component(
                [rand_homogeneous(rng, dim, d) for d in degrees], degrees
            )
        except ValidationError:
            continue
        f, g = comp.polys
        other = rand_homogeneous(rng, dim, rng.randint(1, 2))
        for p, q in ((f, g), (g, f), (f, other), (other, g)):
            for a, b in ((1, 1), (2, 1), (1, 3)):
                numerator = total_differential(p) * (q * a) - total_differential(q) * (p * b)
                verdict = first_integral_check(p, q, comp.omega, a, b)
                assert verdict == numerator.wedge(comp.omega).is_zero
                verdicts.append(verdict)
    assert True in integrable and False in integrable
    assert True in verdicts and False in verdicts


def bent_generator(rng, f, degree):
    """``f + x_a^degree`` for a pure power ``f`` lacks: of the same degree, so
    a ratio test against it stays radial, as in the benchmark's negative
    fibration slots."""
    dim = f.ambient_dim
    missing = [a for a in range(dim) if tuple(degree * (i == a) for i in range(dim)) not in f.terms]
    a = rng.choice(missing) if missing else 0
    return f + MultiPoly.variable(dim, a) ** degree


def test_radial_zero_tests_match_plain_wedges(monkeypatch):
    """``class_of``, ``integrability_check_codim1``, ``first_integral_check``
    and ``wedge_vanishes`` against plain full wedges, on projective forms,
    where the radial test runs (seeded contact forms with each other, built
    components, a perturbed generator),
    and on forms where it must not (inhomogeneous 1-forms, forms with
    ``iota_R omega != 0``, a projective form with either); the zero 1-form
    is integrable.  The spy records which path each zero test took."""
    rng = random.Random(2017)
    flags = []
    real = DiffForm._contracts_to_zero
    monkeypatch.setattr(DiffForm, "_contracts_to_zero",
                        lambda self, other: flags.append(real(self, other)) or flags[-1])
    inhomogeneous = [DiffForm(dim, 1, {(i,): rand_poly(rng, dim) for i in range(dim)})
                     for dim in (3, 4, 5) for _ in range(3)]
    twisted = oracle_one_forms(rng)
    contact = seeded_contact_forms(rng, 8)
    for omega in contact + inhomogeneous + twisted + [DiffForm.zero(4, 1)]:
        plain_integrable = omega.wedge(omega.exterior_derivative()).is_zero
        assert integrability_check_codim1(omega) == plain_integrable
        if not omega.is_zero:
            assert distribution.class_of(omega) == plain_class_and_power(omega)[0]
            assert integrability_check_codim1(omega) == plain_integrable  # from the kept class
    assert not any(omega.is_projective() for omega in inhomogeneous)
    assert not all(omega.is_projective() for omega in twisted)
    paths = {}
    for omega in contact:
        others = [form for form in contact + inhomogeneous + twisted
                  if form.ambient_dim == omega.ambient_dim]
        for other in others:
            start = len(flags)
            assert omega.wedge_vanishes(other) == omega.wedge(other).is_zero
            paths.setdefault(other.is_projective(), set()).update(flags[start:])
    assert paths == {True: {True}, False: {False}}
    verdicts = []
    for _ in range(10):
        dim = rng.randint(3, 5)
        degrees = [rng.randint(1, 2) for _ in range(rng.randint(2, dim - 1))]
        try:
            comp = build_rational_component(
                [rand_homogeneous(rng, dim, d) for d in degrees], degrees)
        except ValidationError:
            continue
        omega = comp.omega
        if omega.degree == 1:
            assert integrability_check_codim1(omega)
            assert distribution.class_of(omega) == plain_class_and_power(omega)[0] == 1
            assert integrability_check_codim1(omega)
        f, g = comp.polys[:2]
        bent = bent_generator(rng, f, degrees[0])
        for p, q in ((f, g), (bent, g), (g, bent), (f, bent + f * f)):
            for a, b in ((1, 1), (degrees[1], degrees[0]), (2, 1)):
                numerator = total_differential(p) * (q * a) - total_differential(q) * (p * b)
                verdict = first_integral_check(p, q, omega, a, b)
                assert verdict == numerator.wedge(omega).is_zero
                verdicts.append(verdict)
    assert True in verdicts and False in verdicts
    assert True in flags and False in flags


def test_a_component_checks_its_contraction_once(monkeypatch):
    """The one contraction against the Euler field is the build's, of
    ``df_0 ^ ... ^ df_r``: the built form keeps that it is projective
    (``iota_R iota_R = 0``), so neither ``validate_projective`` nor the
    ratio checks of ``component_first_integral_check`` contract it, and no
    ratio numerator, a 1-form, is contracted at all: Euler's identity
    decides whether it is projective.  ``interior_product``, through which
    ``is_projective`` contracts, groups its products with
    ``forms._interior_groups``."""
    contracted = []
    real = forms._interior_groups
    monkeypatch.setattr(forms, "_interior_groups", lambda field, form: contracted.append(
        form if field is PolyVectorField.radial(field.ambient_dim) else None)
        or real(field, form))
    x = [MultiPoly.variable(5, i) for i in range(5)]
    comp = build_rational_component([x[0], x[1] * x[2] + x[3] * x[4], x[2] ** 2, x[4] ** 2],
                                    [1, 2, 2, 2])
    assert component_first_integral_check(comp)
    assert sum(form is comp.omega for form in contracted) == 0
    assert [form.degree for form in contracted if form is not None] == [4]
