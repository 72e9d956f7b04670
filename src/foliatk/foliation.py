"""Foliations of projective space presented by homogeneous forms.

A codimension-``k`` foliation of ``P^n`` is presented by a ``(n-k)``-form on
affine ``(n+1)``-space whose coefficients are homogeneous of one common
degree and which contracts to zero against the radial (Euler) field
``R = sum_i x_i d/dx_i``.  With ``deg_h`` the coefficient degree, the
integer ``c = deg_h + (n-k)`` is the twist of the presenting form and
``c - (n-k) - 1`` is the degree of the foliation.

The workhorse construction is the rational component: given homogeneous
``f_0, ..., f_{n-k}`` of degrees ``d_j``, the form

    omega = F^* omega_Lambda
          = sum_j (-1)^j d_j f_j df_0 ^ ... ^ (df_j omitted) ^ ... ^ df_{n-k}

is the pullback along ``F = (f_0, ..., f_{n-k})`` of the diagonal model
``omega_Lambda`` with weights ``Lambda = (d_0, ..., d_{n-k})`` (see
``forms.diagonal_model_form``).  By Euler's formula ``R f_j = d_j f_j``, so
it equals the radial contraction of ``df_0 ^ ... ^ df_{n-k}``, which is how
it is built (``forms.contract_differentials``).  It presents the foliation
whose leaves are fibers
of ``[f_0^{m_0} : ... : f_{n-k}^{m_{n-k}}]`` with ``m_j = lcm(d)/d_j``; each
ratio ``f_i^{m_i}/f_j^{m_j}`` is a first integral exactly when
``(m_i f_j df_i - m_j f_i df_j) ^ omega == 0``.

Both zero tests here live in ``forms``, which proves when each may be
radial: the ratio test is ``forms.first_integral_check``, bound here by
name, and the Frobenius test runs the class chain of ``omega``
(``DiffForm.class_chain``) to its first zero test, where it stops.
``validate_projective`` checks the contract with ``DiffForm.is_projective``,
which the form keeps, so a component's ratio checks do not repeat it.

A point is classified by ``classify_point``, shared with distributions:
Regular when ``omega(p) != 0``; otherwise Kupka when ``(d omega)^r(p) !=
0``, with ``r = 1`` for foliations and the class for distributions.  That
secondary is read only when ``omega(p) = 0``, as the ``r``-th wedge power
of the constant form ``d omega(p)``, which evaluation at ``p``, a ring
homomorphism, makes equal to ``(d omega)^r(p)``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    DegreeMismatch,
    DimensionMismatch,
    EngineError,
    InhomogeneousCoefficients,
    RadialContractionNonzero,
    ValidationError,
)
from .forms import (DiffForm, PolyVectorField, contract_differentials, diagonal_model_form,
                    first_integral_check, total_differential)
from .polynomials import MultiPoly, whole

DEFAULT_TOL = 1e-9  # numeric zero threshold of a point classification

REGULAR = "Regular"
KUPKA = "Kupka"
NON_KUPKA = "NonKupkaSingular"


@dataclass(frozen=True)
class FoliationSpec:
    """Validated presentation of a codimension-k foliation of P^n."""

    n: int
    k: int
    c: int
    omega: DiffForm

    @property
    def coefficient_degree(self) -> int:
        return self.c - (self.n - self.k)

    @property
    def foliation_degree(self) -> int:
        return self.c - (self.n - self.k) - 1


def validate_projective(omega: DiffForm, k: int, expected_c: int | None = None) -> FoliationSpec:
    """Check the projective presentation contract and package the result.

    Raises ``DegreeMismatch`` when the form degree does not match the
    declared codimension, ``InhomogeneousCoefficients`` when coefficients
    are not homogeneous of one common degree, ``RadialContractionNonzero``
    when the form does not contract to zero against the Euler field.
    """
    n = omega.ambient_dim - 1
    if not whole(k, 1) or k > n - 1:
        raise ValidationError(f"codimension k={k} outside [1, {n - 1}] for P^{n}")
    if omega.is_zero:
        raise ValidationError("the zero form does not present a foliation")
    if omega.degree != n - k:
        raise DegreeMismatch(
            f"form degree {omega.degree} does not match n-k = {n - k}"
        )
    if not omega.is_projective():
        degrees = set()
        for idx, poly in omega.coeffs.items():
            deg = poly.homogeneous_degree()
            if deg is None:
                raise InhomogeneousCoefficients(f"coefficient at {idx} is not homogeneous")
            degrees.add(deg)
        if len(degrees) != 1:
            raise InhomogeneousCoefficients(
                f"coefficients have mixed degrees {sorted(degrees)}"
            )
        raise RadialContractionNonzero("form does not vanish against the radial field")
    c = omega.coefficient_degree() + (n - k)
    if expected_c is not None and (not whole(expected_c) or expected_c != c):
        raise DegreeMismatch(f"declared c={expected_c} but coefficients give c={c}")
    return FoliationSpec(n=n, k=k, c=c, omega=omega)


def invariants(spec: FoliationSpec) -> dict:
    """Integer invariants of a validated presentation."""
    return {
        "n": spec.n,
        "k": spec.k,
        "c": spec.c,
        "coefficient_degree": spec.coefficient_degree,
        "foliation_degree": spec.foliation_degree,
    }


@dataclass(frozen=True)
class RationalComponentSpec:
    """Rational-fibration presentation built from homogeneous generators."""

    polys: tuple[MultiPoly, ...]
    degrees: tuple[int, ...]
    foliation: FoliationSpec

    @property
    def omega(self) -> DiffForm:
        return self.foliation.omega

    @property
    def transversal_weights(self) -> tuple[int, ...]:
        """Weights of the local transversal model ``sum_j d_j x_j d/dx_j``."""
        return self.degrees


def generator_degree(f: MultiPoly, dim: int, position: int) -> int:
    """The degree of the generator at 0-based ``position``, which must be
    nonzero and homogeneous in ``dim`` variables."""
    if f.ambient_dim != dim:
        raise DimensionMismatch(f"generator {position} lives in a different space")
    degree = f.homogeneous_degree()
    if degree is None:
        raise InhomogeneousCoefficients(
            f"generator {position} is {'zero' if f.is_zero else 'not homogeneous'}")
    return degree


def build_rational_component(
    polys: Sequence[MultiPoly], degrees: Sequence[int]
) -> RationalComponentSpec:
    """Assemble the rational-component form ``F^* omega_Lambda`` from its
    generators ``F = (f_0, ..., f_{n-k})`` and degrees ``Lambda``.

    ``polys`` are ``n-k+1 >= 2`` homogeneous polynomials in ``n+1``
    variables with ``len(polys) <= n`` (so the codimension is at least 1);
    ``degrees`` declares each generator's degree and is verified.
    """
    if len(polys) < 2:
        raise ValidationError("a rational component needs at least two generators")
    if len(polys) != len(degrees):
        raise DimensionMismatch(f"{len(polys)} generators but {len(degrees)} degrees")
    dim = polys[0].ambient_dim
    n = dim - 1
    k = n - len(polys) + 1
    if k < 1:
        raise ValidationError(
            f"{len(polys)} generators in {dim} variables leave codimension {k} < 1"
        )
    for position, (f, d) in enumerate(zip(polys, degrees)):
        if not whole(d, 1):
            raise DegreeMismatch(f"declared degree {d!r} is not a positive integer")
        actual = generator_degree(f, dim, position)
        if actual != d:
            raise DegreeMismatch(f"generator {position} has degree {actual}, declared {d}")
    # each generator is homogeneous of its declared degree, so R f_j = d_j f_j
    omega = contract_differentials(PolyVectorField.radial(dim), polys)
    if omega.is_zero:
        raise ValidationError("generators are dependent; the component form vanishes")
    spec = validate_projective(omega, k, expected_c=sum(degrees))
    return RationalComponentSpec(
        polys=tuple(polys), degrees=tuple(degrees), foliation=spec
    )


@dataclass(frozen=True)
class KupkaVerdict:
    """Pointwise singularity classification with its evaluation mode."""

    classification: str
    mode: str  # "exact" or "numeric"
    tol: float
    scale_consistent: bool


def classify_point(primary: DiffForm, power: int, point, tol: float) -> tuple[str, str]:
    """Three-way pointwise classification shared by foliations and
    distributions: Regular when the primary form ``omega`` is nonzero at the
    point, Kupka when it vanishes but ``(d omega)^power`` does not,
    otherwise NonKupkaSingular.  The secondary is read only when ``omega(p)
    = 0``, as the ``power``-th wedge power of the constant form ``d
    omega(p)`` (``DiffForm.max_modulus_at``).  Rational points are tested
    exactly; any float or complex coordinate switches to a max-modulus
    threshold."""
    exact = all(isinstance(v, (int, Fraction)) for v in point)
    primary_mag = primary.max_modulus_at(point)
    if exact:
        mode = "exact"
        primary_zero = primary_mag == 0
    else:
        mode = "numeric"
        primary_zero = primary_mag < tol
    if not primary_zero:
        return REGULAR, mode
    secondary_mag = primary.exterior_derivative().max_modulus_at(point, power)
    secondary_zero = secondary_mag == 0 if exact else secondary_mag < tol
    return (NON_KUPKA if secondary_zero else KUPKA), mode


def classify_projective_point(
    primary: DiffForm, power: int, point: Sequence, tol: float
) -> KupkaVerdict:
    """``classify_point`` for a point of projective space: the coordinates
    must be finite and not all zero, and the verdict is recomputed at ``2*p``
    (the same projective point), with ``scale_consistent`` recording
    agreement.  An exact verdict is scale-consistent without recomputing
    when ``primary.is_projective()``: it and every power of its ``d`` have
    homogeneous coefficients, each at ``2*p`` a power of 2 times its value
    at ``p``."""
    if len(point) != primary.ambient_dim:
        raise DimensionMismatch(
            f"point has {len(point)} coordinates, expected {primary.ambient_dim}"
        )
    if not all(isinstance(v, (int, Fraction)) or cmath.isfinite(v) for v in point):
        raise ValidationError("point coordinates must be finite")
    if all(v == 0 for v in point):
        raise ValidationError("the origin is not a projective point")
    label, mode = classify_point(primary, power, point, tol)
    consistent = ((mode == "exact" and primary.is_projective())
                  or label == classify_point(primary, power, [v * 2 for v in point], tol)[0])
    return KupkaVerdict(classification=label, mode=mode, tol=tol, scale_consistent=consistent)


def kupka_test(spec: FoliationSpec, point: Sequence, tol: float = DEFAULT_TOL) -> KupkaVerdict:
    """Classify a point as Regular, Kupka, or NonKupkaSingular.

    Regular means ``omega(p) != 0``; Kupka means ``omega(p) = 0`` while
    ``d omega(p) != 0``; the rest is NonKupkaSingular.  Rational points use
    exact zero tests; any float or complex coordinate switches to a
    max-modulus threshold of ``tol``.  See ``classify_projective_point``:
    an exact verdict is evaluated again at ``2*p`` only when the spec was
    built by hand around a form that is not projective.
    """
    return classify_projective_point(spec.omega, 1, point, tol)


def sections_dimension(n: int, k: int, c: int) -> int:
    """Dimension of the space of presenting forms with twist ``c``.

    Counts ``(n-k)``-forms as above: ``C(c+k, c) * C(c-1, n-k)`` when
    ``c >= n-k+1`` and 0 otherwise (coefficients would need degree < 1).
    """
    if not whole(n) or not whole(k, 1) or k > n - 1:
        raise ValidationError(f"codimension k={k} outside [1, {n - 1}] for P^{n}")
    if not whole(c, 1):
        raise ValidationError(f"twist c={c} must be a positive integer")
    if c < n - k + 1:
        return 0
    return math.comb(c + k, c) * math.comb(c - 1, n - k)


def integrability_check_codim1(omega: DiffForm) -> bool:
    """Frobenius test ``omega ^ d omega == 0`` for a 1-form: the zero form
    passes, and any other passes exactly when its class is 1, the first
    zero test of ``DiffForm.class_chain``.  The chain stops there, and the
    form keeps how far it got for a later ``class_of``."""
    if omega.degree != 1:
        raise DegreeMismatch("integrability check applies to 1-forms")
    return omega.is_zero or omega.class_chain(limit=1) == 1


@dataclass(frozen=True)
class FibrationData:
    """Exponents of the fibration map attached to a rational component."""

    exponents: tuple[int, ...]
    common_degree: int


def fibration_exponents(degrees: Sequence[int]) -> FibrationData:
    """Exponents ``m_j = lcm(d)/d_j`` making all ``f_j^{m_j}`` equal-degree.

    The resulting exponent vector is always coprime, so the fibration map
    ``[f_0^{m_0} : ...]`` is not a power of a simpler one.
    """
    if not degrees or not all(whole(d, 1) for d in degrees):
        raise DegreeMismatch(f"degrees must be positive integers, got {degrees!r}")
    common = math.lcm(*degrees)
    exps = tuple(common // d for d in degrees)
    if math.gcd(*exps) != 1:
        raise EngineError("fibration exponents are not coprime")
    return FibrationData(exponents=exps, common_degree=common)


def component_first_integral_check(comp: RationalComponentSpec) -> bool:
    """Verify every fiber-coordinate ratio is a first integral.

    Checks ``first_integral_check(f_0, f_j, omega, m_0, m_j)``, that is
    ``(m_0 f_j df_0 - m_j f_0 df_j) ^ omega == 0``, for each ``j >= 1``.
    These ``r`` ratios suffice: with ``u_j = f_j^{m_j}/f_0^{m_0}``,
    ``d(u_i/u_j) ^ omega = (u_j du_i - u_i du_j) ^ omega / u_j^2`` vanishes
    whenever ``du_i ^ omega`` and ``du_j ^ omega`` do, and no homogeneous
    generator is zero.
    """
    (f, m), *rest = zip(comp.polys, fibration_exponents(comp.degrees).exponents)
    return all(first_integral_check(f, g, comp.omega, m, n) for g, n in rest)


# -- blow-up of the radial local model ------------------------------------

def radial_model_form(m: int) -> DiffForm:
    """The radial contraction of the volume form on ``(m+1)``-space."""
    if not whole(m, 1):
        raise ValidationError(f"model dimension m={m!r} must be a positive integer")
    return diagonal_model_form([1] * (m + 1))


def blow_up_map(m: int) -> list[MultiPoly]:
    """Standard chart ``(x0, t1, ..., tm) -> (x0, x0 t1, ..., x0 tm)``."""
    if not whole(m, 1):
        raise ValidationError(f"model dimension m={m!r} must be a positive integer")
    dim = m + 1
    x0 = MultiPoly.variable(dim, 0)
    return [x0] + [x0 * MultiPoly.variable(dim, j) for j in range(1, dim)]

def blow_up_var_names(m: int) -> list[str]:
    return ["x0"] + [f"t{j}" for j in range(1, m + 1)]


def blow_up_strict_transform(m: int) -> tuple[int, DiffForm]:
    """Pull the radial model back along the blow-up chart.

    The chart lifts ``R`` to ``V = x0 d/dx0``, which fixes ``x0`` and every
    ``x0 t_j``, so the pullback is ``iota_V`` of the wedge of their
    differentials (``forms.contract_differentials``), built with ``m``
    wedges and one contraction.  The result is ``epsilon * x0^{m+1} * dt1
    ^ ... ^ dtm`` with ``epsilon = +1``: the chart has Jacobian ``x0^m``.
    It is returned with the transform; any other shape raises
    ``EngineError``.
    """
    chart = blow_up_map(m)
    pulled = contract_differentials(PolyVectorField.diagonal([1] + [0] * m), chart)
    dim = m + 1
    expected = DiffForm(
        dim, m, {tuple(range(1, dim)): MultiPoly.variable(dim, 0) ** (m + 1)}
    )
    if pulled != expected:
        raise EngineError("blow-up transform is not x0^(m+1) dt1^...^dtm")
    return 1, pulled
