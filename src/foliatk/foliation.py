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
``forms.diagonal_model_form``).  It equals the radial contraction of
``df_0 ^ ... ^ df_{n-k}`` and presents the foliation whose leaves are fibers
of ``[f_0^{m_0} : ... : f_{n-k}^{m_{n-k}}]`` with ``m_j = lcm(d)/d_j``; each
ratio ``f_i^{m_i}/f_j^{m_j}`` is a first integral exactly when
``(m_i f_j df_i - m_j f_i df_j) ^ omega == 0``.

Both zero tests here are radial when ``omega`` is projective (see
``forms``).  With ``theta = a q dp - b p dq`` for homogeneous ``p`` and ``q``
with ``a deg p = b deg q``, Euler's identity gives ``iota_R theta =
(a deg p - b deg q) p q = 0``, so ``iota_R (theta ^ omega) = 0``; and for a
projective 1-form ``iota_R (omega ^ d omega) = -(e + 1) omega ^ omega = 0``.
Each test then sums only the wedge coefficients that avoid one variable.
``validate_projective`` checks the contract with ``DiffForm.is_projective``,
which the form keeps, so a component's ratio checks do not repeat it.
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
from .forms import DiffForm, diagonal_model_form, pullback, total_differential
from .polynomials import MultiPoly

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
    if not 1 <= k <= n - 1:
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
            kind, deg = poly.homogeneity()
            if kind != "homogeneous":
                raise InhomogeneousCoefficients(f"coefficient at {idx} is not homogeneous")
            degrees.add(deg)
        if len(degrees) != 1:
            raise InhomogeneousCoefficients(
                f"coefficients have mixed degrees {sorted(degrees)}"
            )
        raise RadialContractionNonzero("form does not vanish against the radial field")
    c = next(iter(omega.coeffs.values())).homogeneity().degree + (n - k)
    if expected_c is not None and expected_c != c:
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
    for f, d in zip(polys, degrees):
        if f.ambient_dim != dim:
            raise DimensionMismatch("generators live in different spaces")
        if not isinstance(d, int) or d < 1:
            raise DegreeMismatch(f"declared degree {d!r} is not a positive integer")
        kind, actual = f.homogeneity()
        if kind != "homogeneous":
            raise InhomogeneousCoefficients("generator is not homogeneous")
        if actual != d:
            raise DegreeMismatch(f"generator has degree {actual}, declared {d}")
    omega = pullback(polys, diagonal_model_form(degrees))
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


def classify_point(primary: DiffForm, secondary: DiffForm, point, tol: float) -> tuple[str, str]:
    """Three-way pointwise classification shared by foliations and
    distributions: Regular when the primary form is nonzero at the point,
    Kupka when it vanishes but the secondary form does not, otherwise
    NonKupkaSingular.  Rational points are tested exactly; any float or
    complex coordinate switches to a max-modulus threshold."""
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
    secondary_mag = secondary.max_modulus_at(point)
    secondary_zero = secondary_mag == 0 if exact else secondary_mag < tol
    return (NON_KUPKA if secondary_zero else KUPKA), mode


def classify_projective_point(
    primary: DiffForm, secondary: DiffForm, point: Sequence, tol: float,
    homogeneous: bool = False,
) -> KupkaVerdict:
    """``classify_point`` for a point of projective space: the coordinates
    must be finite and not all zero, and the verdict is recomputed at ``2*p``
    (the same projective point), with ``scale_consistent`` recording
    agreement.  When the caller knows both forms have homogeneous
    coefficients, an exact verdict is scale-consistent without recomputing:
    each coefficient at ``2*p`` is a power of 2 times its value at ``p``."""
    if len(point) != primary.ambient_dim:
        raise DimensionMismatch(
            f"point has {len(point)} coordinates, expected {primary.ambient_dim}"
        )
    if not all(isinstance(v, (int, Fraction)) or cmath.isfinite(v) for v in point):
        raise ValidationError("point coordinates must be finite")
    if all(v == 0 for v in point):
        raise ValidationError("the origin is not a projective point")
    label, mode = classify_point(primary, secondary, point, tol)
    consistent = ((homogeneous and mode == "exact")
                  or label == classify_point(primary, secondary, [v * 2 for v in point], tol)[0])
    return KupkaVerdict(classification=label, mode=mode, tol=tol, scale_consistent=consistent)


def kupka_test(spec: FoliationSpec, point: Sequence, tol: float = 1e-9) -> KupkaVerdict:
    """Classify a point as Regular, Kupka, or NonKupkaSingular.

    Regular means ``omega(p) != 0``; Kupka means ``omega(p) = 0`` while
    ``d omega(p) != 0``; the rest is NonKupkaSingular.  Rational points use
    exact zero tests; any float or complex coordinate switches to a
    max-modulus threshold of ``tol``.  See ``classify_projective_point``;
    ``validate_projective`` has checked that the coefficients are
    homogeneous, so an exact verdict needs no second evaluation.
    """
    return classify_projective_point(spec.omega, spec.omega.exterior_derivative(), point, tol,
                                     homogeneous=True)


def sections_dimension(n: int, k: int, c: int) -> int:
    """Dimension of the space of presenting forms with twist ``c``.

    Counts ``(n-k)``-forms as above: ``C(c+k, c) * C(c-1, n-k)`` when
    ``c >= n-k+1`` and 0 otherwise (coefficients would need degree < 1).
    """
    if not 1 <= k <= n - 1:
        raise ValidationError(f"codimension k={k} outside [1, {n - 1}]")
    if c < 1:
        raise ValidationError(f"twist c={c} must be positive")
    if c < n - k + 1:
        return 0
    return math.comb(c + k, c) * math.comb(c - 1, n - k)


def integrability_check_codim1(omega: DiffForm) -> bool:
    """Frobenius test ``omega ^ d omega == 0`` for a 1-form; radial when
    ``omega`` is projective.  A class chain already kept on the form
    answers it without a wedge: the form is integrable exactly when its
    class is 1."""
    if omega.degree != 1:
        raise DegreeMismatch("integrability check applies to 1-forms")
    chain = getattr(omega, "_class", None)
    if chain is not None:
        return chain[0] == 1
    return omega.wedge_vanishes(omega.exterior_derivative(), radial=omega.is_projective())


def first_integral_check(p: MultiPoly, q: MultiPoly, omega: DiffForm,
                         a: int = 1, b: int = 1) -> bool:
    """True iff ``p^a/q^b`` is constant on leaves.  In a domain this is
    ``(a q dp - b p dq) ^ omega == 0``, since ``d(p^a/q^b)`` is that numerator
    times ``p^(a-1) q^(-b-1)``.  The zero test is radial when ``p`` and ``q``
    are homogeneous with ``a deg p = b deg q`` and ``omega`` is projective."""
    numerator = total_differential(p) * (q * a) - total_differential(q) * (p * b)
    (kind_p, deg_p), (kind_q, deg_q) = p.homogeneity(), q.homogeneity()
    radial = (kind_p == kind_q == "homogeneous" and a * deg_p == b * deg_q
              and omega.is_projective())
    return numerator.wedge_vanishes(omega, radial=radial)


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
    if not degrees or any((not isinstance(d, int)) or d < 1 for d in degrees):
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
    if not isinstance(m, int) or m < 1:
        raise ValidationError(f"model dimension m={m!r} must be a positive integer")
    return diagonal_model_form([1] * (m + 1))


def blow_up_map(m: int) -> list[MultiPoly]:
    """Standard chart ``(x0, t1, ..., tm) -> (x0, x0 t1, ..., x0 tm)``."""
    if not isinstance(m, int) or m < 1:
        raise ValidationError(f"model dimension m={m!r} must be a positive integer")
    dim = m + 1
    x0 = MultiPoly.variable(dim, 0)
    return [x0] + [x0 * MultiPoly.variable(dim, j) for j in range(1, dim)]

def blow_up_var_names(m: int) -> list[str]:
    return ["x0"] + [f"t{j}" for j in range(1, m + 1)]


def blow_up_strict_transform(m: int) -> tuple[int, DiffForm]:
    """Pull the radial model back along the blow-up chart.

    The result is ``epsilon * x0^{m+1} * dt1 ^ ... ^ dtm`` with
    ``epsilon in {+1, -1}``; the sign is extracted and returned with the
    pulled-back form.  Any other shape raises ``EngineError``.
    """
    pulled = pullback(blow_up_map(m), radial_model_form(m))
    dim = m + 1
    expected = DiffForm(
        dim, m, {tuple(range(1, dim)): MultiPoly.variable(dim, 0) ** (m + 1)}
    )
    if pulled == expected:
        return 1, pulled
    if pulled == -expected:
        return -1, pulled
    raise EngineError("blow-up transform is not +/- x0^(m+1) dt1^...^dtm")
