"""Class analysis of distributions presented by 1-forms.

The class of a 1-form ``omega`` is the largest ``r`` with
``omega ^ (d omega)^(r-1) != 0``; a completely integrable form (Frobenius)
has class 1 and a contact-type form on ``2r``-space has class ``r``.  One
chain (``DiffForm.class_chain``) finds it as the first ``k`` at which
``omega ^ (d omega)^k`` vanishes; ``k = 1`` is the Frobenius test
(``DiffForm.is_integrable``).  The form keeps both facts, so ``class_of``,
``foliation.integrability_check_codim1`` and the Kupka test run no zero
test twice.

When ``omega`` is projective, as every contact construction here is, each
zero test of the chain contracts to zero against the Euler field, so it
reads only the coefficients that avoid one variable ``j`` (the radial zero
test of ``forms``).  The chain therefore runs in the quotient by ``dx_j``:
it builds only ``eta^k``, ``eta = d omega mod dx_j``, and tests ``omega' ^
eta^k``, ``omega' = omega mod dx_j``, with plain zero tests.  Any other
1-form runs the same loop on ``omega`` and ``d omega``.  Degree decides
once ``2k + 1`` passes ``n - 1`` for a projective ``omega`` on ``n``
variables, ``n`` for any other.  A form built from ``2r`` generators keeps
the class bound ``r``, so the chain also stops once ``2k + 1`` passes
``2r``: it takes at most ``r - 1`` zero tests on any number of variables.

The Kupka test never builds ``(d omega)^r``: evaluation at a point is a
ring homomorphism, so ``(d omega)^r(p)`` is the ``r``-th wedge power of the
constant 2-form ``d omega(p)``, taken only when ``omega(p) = 0``.

The model constructions here use ``2r`` homogeneous generators of one
common degree ``m``::

    omega = sum_{i=0}^{r-1} (f_i df_{i+r} - f_{i+r} df_i)

for which ``d omega = 2 sum_i df_i ^ df_{i+r}`` and ``iota_R d omega =
(d+2) omega`` with ``d = (coefficient degree of omega) - 1 = 2m - 2``.
``forms.contact_form`` builds ``omega`` and keeps three facts it proves:
it is projective, since Euler's identity gives ``iota_R (f_i df_j - f_j
df_i) = m f_i f_j - m f_j f_i = 0``; its coefficient degree is ``2m - 1``;
and its class is at most ``r``, since ``(d omega)^r`` is a multiple of
``df_0 ^ ... ^ df_{2r-1}``, which ``omega``, a combination of the
``df_i``, wedges to zero.  ``omega`` and the sum ``2 sum_i df_i ^
df_{i+r}`` are each one ``forms.wedge_sum``, so all their products are
priced together and summed in one kernel call; the construction keeps the
``df_i`` for the second.  Kupka-type points of a class-``r`` distribution
are zeros of ``omega`` where ``(d omega)^r`` survives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DegreeMismatch, InhomogeneousCoefficients, ValidationError
from .foliation import DEFAULT_TOL, KupkaVerdict, classify_projective_point, generator_degree
from .forms import DiffForm, PolyVectorField, contact_form, interior_product, wedge_sum
from .polynomials import MultiPoly, whole


@dataclass(frozen=True)
class DistributionSpec:
    """A 1-form with an optional caller-declared class to cross-check."""

    omega: DiffForm
    declared_class: int | None = None


def class_of(omega: DiffForm) -> int:
    """Largest ``r`` with ``omega ^ (d omega)^(r-1)`` not identically zero."""
    return omega.class_chain()


def _check_declared(spec: DistributionSpec, computed: int) -> int:
    declared = spec.declared_class
    if declared is not None and (not whole(declared) or declared != computed):
        raise ValidationError(
            f"declared class {declared} but computed {computed}"
        )
    return computed


def validate_class(spec: DistributionSpec) -> int:
    return _check_declared(spec, class_of(spec.omega))


@dataclass(frozen=True)
class ContactDistribution:
    """Contact-type presentation built from equal-degree generators, with
    the generators' differentials ``df_i`` it was built from."""

    omega: DiffForm
    generators: tuple[MultiPoly, ...]
    r: int
    generator_degree: int
    differentials: tuple[DiffForm, ...]


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
    elif not whole(r) or r != pairs:
        raise ValidationError(f"declared r={r} but {len(polys)} generators give r={pairs}")
    dim = polys[0].ambient_dim
    degree = generator_degree(polys[0], dim, 0)
    for position, f in enumerate(polys[1:], 1):
        deg = generator_degree(f, dim, position)
        if deg != degree:
            raise DegreeMismatch(
                f"generator {position} has degree {deg}, generator 0 has degree {degree}")
    if degree < 1:
        raise DegreeMismatch("generators must have positive degree")
    omega, differentials = contact_form(polys)
    if omega.is_zero:
        raise ValidationError("generators are dependent; the contact form vanishes")
    return ContactDistribution(omega=omega, generators=tuple(polys), r=r,
                               generator_degree=degree, differentials=differentials)


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
    r, differentials = contact.r, contact.differentials
    expected = wedge_sum([(2, differentials[i], differentials[i + r]) for i in range(r)])
    d_omega_ok = domega == expected
    coeff_degree = omega.coefficient_degree()
    if coeff_degree is None:
        raise InhomogeneousCoefficients("contact form has mixed coefficient degrees")
    degree_d = coeff_degree - 1
    contracted = interior_product(PolyVectorField.radial(omega.ambient_dim), domega)
    radial_ok = contracted == omega * (degree_d + 2)
    return DarbouxReport(
        d_omega_ok=d_omega_ok,
        radial_ok=radial_ok,
        degree_d=degree_d,
        generator_degree=contact.generator_degree,
    )


def kupka_test_distribution(
    spec: DistributionSpec, point: Sequence, tol: float = DEFAULT_TOL
) -> KupkaVerdict:
    """Classify a point against ``omega`` and ``(d omega)^r``.

    Regular when ``omega(p) != 0``; Kupka when ``omega(p) = 0`` while
    ``(d omega)^r(p) != 0``; otherwise NonKupkaSingular.  The class ``r``
    comes from the chain ``class_of`` runs, kept on the form, and is checked
    against any declared value.  ``(d omega)^r`` is never built: only when
    ``omega(p) = 0`` is the ``r``-th wedge power of the constant 2-form ``d
    omega(p)`` taken.  Evaluation mode and the doubling consistency check
    behave as in the foliation test.
    """
    r = _check_declared(spec, spec.omega.class_chain())
    return classify_projective_point(spec.omega, r, point, tol)
