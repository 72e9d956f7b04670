"""Class analysis of distributions presented by 1-forms.

The class of a 1-form ``omega`` is the largest ``r`` with
``omega ^ (d omega)^(r-1) != 0``; a completely integrable form (Frobenius)
has class 1 and a contact-type form on ``2r``-space has class ``r``.  One
chain ``P_k = (d omega)^k`` (``DiffForm.class_chain``) finds it as the
first ``k`` at which ``omega ^ P_k`` vanishes and ends on ``(d omega)^r``.
The form keeps the chain, so ``class_of`` and the Kupka test, which
classifies against ``(d omega)^r``, share one run.

When ``omega`` is projective, as every contact construction here is
(``iota_R omega = 0``, coefficients homogeneous of degree ``e``), then
``iota_R d omega = (e + 1) omega`` and ``iota_R (omega ^ (d omega)^k) =
-k (e + 1) omega ^ omega ^ (d omega)^(k-1) = 0``, so each zero test of the
chain sums only the wedge coefficients that avoid one variable (the radial
zero test of ``forms``).  On ``P^{2r}`` the last test has top degree and
needs no multiply.  Any other 1-form gets the plain zero tests.

The model constructions here use ``2r`` homogeneous generators of one
common degree ``m``::

    omega = sum_{i=0}^{r-1} (f_i df_{i+r} - f_{i+r} df_i)

for which ``omega`` contracts to zero against the Euler field,
``d omega = 2 sum_i df_i ^ df_{i+r}``, and ``iota_R d omega = (d+2) omega``
with ``d = (coefficient degree of omega) - 1 = 2m - 2``.  Kupka-type
points of a class-``r`` distribution are zeros of ``omega`` where
``(d omega)^r`` survives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import (
    DegreeMismatch,
    DimensionMismatch,
    EngineError,
    InhomogeneousCoefficients,
    ValidationError,
)
from .foliation import KupkaVerdict, classify_projective_point
from .forms import DiffForm, PolyVectorField, interior_product, total_differential
from .polynomials import MultiPoly


@dataclass(frozen=True)
class DistributionSpec:
    """A 1-form with an optional caller-declared class to cross-check."""

    omega: DiffForm
    declared_class: int | None = None


def class_of(omega: DiffForm) -> int:
    """Largest ``r`` with ``omega ^ (d omega)^(r-1)`` not identically zero."""
    return omega.class_chain()[0]


def _check_declared(spec: DistributionSpec, computed: int) -> int:
    if spec.declared_class is not None and spec.declared_class != computed:
        raise ValidationError(
            f"declared class {spec.declared_class} but computed {computed}"
        )
    return computed


def validate_class(spec: DistributionSpec) -> int:
    return _check_declared(spec, class_of(spec.omega))


@dataclass(frozen=True)
class ContactDistribution:
    """Contact-type presentation built from equal-degree generators."""

    omega: DiffForm
    generators: tuple[MultiPoly, ...]
    r: int
    generator_degree: int


def build_contact_type(polys: Sequence[MultiPoly], r: int | None = None) -> ContactDistribution:
    """Assemble ``sum_i (f_i df_{i+r} - f_{i+r} df_i)`` from ``2r`` generators.

    All generators must be homogeneous of one common positive degree; the
    pair count fixes ``r`` when it is not given explicitly.
    """
    if len(polys) < 2 or len(polys) % 2:
        raise ValidationError(f"contact construction needs 2r generators, got {len(polys)}")
    pairs = len(polys) // 2
    if r is None:
        r = pairs
    elif r != pairs:
        raise ValidationError(f"declared r={r} but {len(polys)} generators give r={pairs}")
    dim = polys[0].ambient_dim
    degree = None
    for f in polys:
        if f.ambient_dim != dim:
            raise DimensionMismatch("generators live in different spaces")
        kind, deg = f.homogeneity()
        if kind != "homogeneous":
            raise InhomogeneousCoefficients("generator is not homogeneous")
        if degree is None:
            degree = deg
        elif deg != degree:
            raise DegreeMismatch(f"generator degrees differ: {degree} vs {deg}")
    if degree < 1:
        raise DegreeMismatch("generators must have positive degree")
    omega = DiffForm.zero(dim, 1)
    for i in range(r):
        front, back = polys[i], polys[i + r]
        omega = omega + total_differential(back) * front - total_differential(front) * back
    if omega.is_zero:
        raise ValidationError("generators are dependent; the contact form vanishes")
    if not omega.is_projective():
        raise EngineError("contact construction failed to contract against the Euler field")
    return ContactDistribution(
        omega=omega, generators=tuple(polys), r=r, generator_degree=degree
    )


@dataclass(frozen=True)
class DarbouxReport:
    """Outcome of the exact structure checks on a contact construction."""

    d_omega_ok: bool
    radial_ok: bool
    degree_d: int
    generator_degree: int


def verify_darboux_identities(contact: ContactDistribution) -> DarbouxReport:
    """Check ``d omega = 2 sum df_i ^ df_{i+r}`` and
    ``iota_R d omega = (d+2) omega`` exactly, with ``d`` read off from the
    coefficient degree of ``omega``."""
    omega = contact.omega
    domega = omega.exterior_derivative()
    expected = DiffForm.zero(omega.ambient_dim, 2)
    for i in range(contact.r):
        dfront = total_differential(contact.generators[i])
        dback = total_differential(contact.generators[i + contact.r])
        expected = expected + dfront.wedge(dback) * 2
    d_omega_ok = domega == expected
    coeff_degrees = {
        poly.homogeneity().degree for poly in omega.coeffs.values()
    }
    if len(coeff_degrees) != 1 or None in coeff_degrees:
        raise InhomogeneousCoefficients("contact form has mixed coefficient degrees")
    degree_d = coeff_degrees.pop() - 1
    contracted = interior_product(PolyVectorField.radial(omega.ambient_dim), domega)
    radial_ok = contracted == omega * (degree_d + 2)
    return DarbouxReport(
        d_omega_ok=d_omega_ok,
        radial_ok=radial_ok,
        degree_d=degree_d,
        generator_degree=contact.generator_degree,
    )


def kupka_test_distribution(
    spec: DistributionSpec, point: Sequence, tol: float = 1e-9
) -> KupkaVerdict:
    """Classify a point against ``omega`` and ``(d omega)^r``.

    Regular when ``omega(p) != 0``; Kupka when ``omega(p) = 0`` while
    ``(d omega)^r(p) != 0``; otherwise NonKupkaSingular.  The class ``r``
    and ``(d omega)^r`` come from the chain ``class_of`` runs, kept on the
    form (``r`` is checked against any declared value); evaluation mode and
    the doubling consistency check behave as in the foliation test.  A
    projective ``omega`` has homogeneous coefficients, and so has
    ``(d omega)^r``, so its exact verdict needs no second evaluation.
    """
    r, power = spec.omega.class_chain()
    _check_declared(spec, r)
    return classify_projective_point(spec.omega, power, point, tol, spec.omega.is_projective())
