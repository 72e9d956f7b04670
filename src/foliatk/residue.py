"""Residues of isolated singularities and the degree of the Kupka set.

For a vector field ``X`` on ``m``-space with an isolated zero at the
origin, the residue of ``tr(J_X)^m`` is the contour integral

    (1/(2 pi i))^m  *  Integral of tr(J_X)^m dz / (X_0 ... X_{m-1})

over the product torus ``|z_i| = r_i``.  For the diagonal field with
weights ``Lambda`` the value is ``(sum Lambda)^m / prod Lambda`` exactly,
and a transversal Kupka singularity of twist ``c`` contributes

    deg = prod_i (lambda_i c / sum Lambda)

to the degree of its closure; the product of the two quantities is ``c^m``.

The numeric route is a tensor-product trapezoidal rule on the torus,
``tr(J_X)^m`` expanded symbolically first and evaluated on the sample
grid.  When every component ``X_i`` involves only ``z_i`` the tensor sum
factorizes into per-axis means and is computed that way; otherwise the
full grid is evaluated (streamed along the first axis).  Both paths refuse
denominators that come within a guard threshold of zero on the grid, and a
radius sweep flags non-isolated zeros by value disagreement.  numpy is
imported inside the quadrature functions, so only they load it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    DenominatorNearZeroOnTorus,
    DimensionMismatch,
    NonIsolatedSuspected,
    ValidationError,
)
from .forms import PolyVectorField
from .polynomials import MultiPoly

DENOMINATOR_GUARD = 1e-6
DEFAULT_SWEEP = (0.5, 1.0, 2.0)
DEFAULT_SAMPLES = 256
PRODUCT_BUDGET = 500_000  # most products codim1_realizable_products lists
QUADRATURE_BUDGET = 2**22  # most torus points one quadrature evaluates


def closed_form_residue(lambdas: Sequence[int]) -> Fraction:
    """Exact residue ``(sum Lambda)^m / prod Lambda`` for diagonal weights."""
    if not lambdas:
        raise ValidationError("eigenvalue vector is empty")
    total = Fraction(0)
    prod = Fraction(1)
    for lam in lambdas:
        lam = Fraction(lam)
        if lam == 0:
            raise ValidationError("zero eigenvalue has no isolated singularity")
        total += lam
        prod *= lam
    return total ** len(lambdas) / prod


def kupka_degree(lambdas: Sequence[int], c: int) -> Fraction:
    """Degree ``prod_i (lambda_i c / sum Lambda)`` of the component closure."""
    return math.prod(chern_integrality(lambdas, c).values)


@dataclass(frozen=True)
class ChernReport:
    """Candidate Chern-root data ``d_i = lambda_i c / sum Lambda``."""

    values: tuple[Fraction, ...]
    integer_flags: tuple[bool, ...]
    realizable: bool


def chern_integrality(lambdas: Sequence[int], c: int) -> ChernReport:
    """Per-index degrees with integrality flags; realizable iff all integral.

    The values always sum to ``c`` regardless of integrality.
    """
    if not lambdas:
        raise ValidationError("eigenvalue vector is empty")
    if not isinstance(c, int) or c < 1:
        raise ValidationError(f"twist c={c!r} must be a positive integer")
    total = sum(Fraction(lam) for lam in lambdas)
    if total == 0:
        raise ValidationError("eigenvalues sum to zero")
    values = tuple(Fraction(lam) * c / total for lam in lambdas)
    flags = tuple(v.denominator == 1 for v in values)
    return ChernReport(values=values, integer_flags=flags, realizable=all(flags))


def codim1_component_solver(c: int, d: int) -> tuple[tuple[int, int], ...]:
    """Unordered positive pairs with ``a + b = c`` and ``a * b = d``."""
    if not isinstance(c, int) or c < 2:
        raise ValidationError(f"c={c!r} must be an integer >= 2")
    if not isinstance(d, int) or d < 1:
        raise ValidationError(f"d={d!r} must be a positive integer")
    # a and b are the roots of t^2 - c t + d, so they are integers exactly
    # when the discriminant is a perfect square of the parity of c
    disc = c * c - 4 * d
    root = math.isqrt(max(disc, 0))
    if root * root != disc or (c - root) % 2:
        return ()
    a = (c - root) // 2
    return ((a, c - a),) if a >= 1 else ()


def codim1_realizable_products(c: int) -> tuple[int, ...]:
    """All products ``a(c-a)`` of positive splittings of ``c``, ascending.

    ``a(c-a)`` strictly increases for ``1 <= a <= c/2``, so the products
    come out distinct and sorted.
    """
    if not isinstance(c, int) or c < 2:
        raise ValidationError(f"c={c!r} must be an integer >= 2")
    if c // 2 > PRODUCT_BUDGET:
        raise ValidationError(
            f"c >= {2 * PRODUCT_BUDGET + 2} has more than PRODUCT_BUDGET = "
            f"{PRODUCT_BUDGET} products"
        )
    return tuple(a * (c - a) for a in range(1, c // 2 + 1))


# -- numeric quadrature ----------------------------------------------------

@dataclass(frozen=True)
class ResidueQuery:
    """Torus quadrature request for a polynomial vector field."""

    field: PolyVectorField
    radii: tuple[float, ...]
    samples_per_circle: int = DEFAULT_SAMPLES

    def __post_init__(self):
        dim = self.field.ambient_dim
        if len(self.radii) != dim:
            raise DimensionMismatch(f"{len(self.radii)} radii for {dim} variables")
        if any(not 0 < r < math.inf for r in self.radii):
            raise ValidationError("radii must be finite and positive")
        if not isinstance(self.samples_per_circle, int) or self.samples_per_circle < 4:
            raise ValidationError("samples_per_circle must be an integer >= 4")


def _axis_samples(radius: float, count: int) -> np.ndarray:
    import numpy as np

    angles = 2.0 * np.pi * np.arange(count) / count
    return radius * np.exp(1j * angles)


def _complex(coeff: Fraction) -> complex:
    try:
        return complex(coeff)
    except OverflowError:
        raise ValidationError(
            f"a coefficient of the field or of tr(J_X)^m exceeds the float range "
            f"(largest float {sys.float_info.max:.3e})"
        ) from None


def _complex_terms(poly: MultiPoly) -> list[tuple[tuple[int, ...], complex]]:
    """The terms of ``poly`` in canonical order, coefficients as complex."""
    return [(exps, _complex(coeff)) for exps, coeff in poly.sorted_terms()]


def _eval_on_arrays(terms: list, axes: list) -> np.ndarray | complex:
    """Evaluate ``_complex_terms`` output on broadcastable per-axis sample
    arrays, terms in canonical order for reproducible float accumulation."""
    total = 0
    for exps, term in terms:
        for axis, e in zip(axes, exps):
            if e:
                term = term * axis ** e
        total = total + term
    return total


def _separable_value(
    components: Sequence[MultiPoly],
    numerator: MultiPoly,
    samples: list[np.ndarray],
) -> complex:
    """Tensor trapezoid sum factored into per-axis means.

    Valid when component ``i`` involves only variable ``i``; each monomial
    ``coeff * z^a`` of the numerator times ``prod z_i`` contributes
    ``coeff * prod_i mean(s_i^(a_i + 1) / X_i(s_i))``.
    """
    import numpy as np

    denoms = []
    for i, comp in enumerate(components):
        axes = [samples[i] if j == i else None for j in range(len(components))]
        values = _eval_on_arrays(_complex_terms(comp), axes)
        values = np.asarray(values)
        low = float(np.min(np.abs(values)))
        if not low >= DENOMINATOR_GUARD:
            raise DenominatorNearZeroOnTorus(
                f"|X_{i}| reaches {low:.3e} on the sample torus"
            )
        denoms.append(values)
    cache: dict[tuple[int, int], complex] = {}

    def axis_mean(i: int, power: int) -> complex:
        key = (i, power)
        if key not in cache:
            cache[key] = complex(np.mean(samples[i] ** power / denoms[i]))
        return cache[key]

    total = complex(0)
    for exps, term in _complex_terms(numerator):
        for i, e in enumerate(exps):
            term *= axis_mean(i, e + 1)
        total += term
    return total


def _grid_value(
    components: Sequence[MultiPoly],
    numerator: MultiPoly,
    samples: list[np.ndarray],
) -> complex:
    """Full tensor-grid trapezoid sum, streamed along axis 0."""
    import numpy as np

    m = len(components)
    count = len(samples[0])
    rest_axes = [
        samples[i].reshape((1,) * (i - 1) + (count,) + (1,) * (m - 1 - i))
        for i in range(1, m)
    ]
    numerator_terms = _complex_terms(numerator)
    component_terms = [_complex_terms(comp) for comp in components]
    acc = complex(0)
    low = np.inf
    for j in range(count):
        axes = [samples[0][j]] + rest_axes
        numer = _eval_on_arrays(numerator_terms, axes)
        for axis in axes:
            numer = numer * axis
        denom = 1
        for terms in component_terms:
            values = _eval_on_arrays(terms, axes)
            low = float(np.minimum(low, np.min(np.abs(values))))  # keeps a NaN, unlike min()
            denom = denom * values
        if not low >= DENOMINATOR_GUARD:
            raise DenominatorNearZeroOnTorus(
                f"denominator magnitude reaches {low:.3e} on the sample torus"
            )
        acc += complex(np.sum(np.asarray(numer / denom)))
    return acc / count ** m


def grothendieck_residue_numeric(query: ResidueQuery) -> complex:
    """Trapezoidal estimate of the residue of ``tr(J_X)^m`` at the origin.

    Deterministic for fixed radii and sample count.  The per-axis path
    evaluates ``m * samples`` points and the grid ``samples^m``; more than
    ``QUADRATURE_BUDGET`` raises ``ValidationError`` before any sample
    exists.  Raises ``DenominatorNearZeroOnTorus`` when any ``|X_i|`` drops
    below the guard on the grid.  Float overflow is not warned about: it
    ends in an inf or NaN that the denominator guard or the sweep spread
    check rejects.
    """
    import numpy as np

    field = query.field
    m = field.ambient_dim
    count = query.samples_per_circle
    separable = all(
        comp.involved_variables() <= {i} for i, comp in enumerate(field.components)
    )
    if (m * count if separable else count**m) > QUADRATURE_BUDGET:
        raise ValidationError(
            f"{count} samples per circle in {m} variables take more torus points "
            f"than QUADRATURE_BUDGET = {QUADRATURE_BUDGET}"
        )
    numerator = field.jacobian_trace() ** m
    samples = [_axis_samples(r, count) for r in query.radii]
    value = _separable_value if separable else _grid_value
    with np.errstate(all="ignore"):
        return value(field.components, numerator, samples)


def residue_with_sweep(
    query: ResidueQuery,
    sweep_factors: Sequence[float] = DEFAULT_SWEEP,
    isolation_tol: float = 1e-8,
) -> tuple[complex, float]:
    """Residue at the query radii plus the spread across scaled radii.

    Re-evaluates at ``factor * radii`` for each sweep factor; the spread is
    the largest pairwise modulus difference.  A spread above
    ``isolation_tol`` raises ``NonIsolatedSuspected``.
    """
    if not sweep_factors:
        raise ValidationError("sweep needs at least one factor")
    values = []
    base = None
    for factor in sweep_factors:
        scaled = ResidueQuery(
            field=query.field,
            radii=tuple(r * factor for r in query.radii),
            samples_per_circle=query.samples_per_circle,
        )
        value = grothendieck_residue_numeric(scaled)
        values.append(value)
        if factor == 1.0:
            base = value
    if base is None:
        base = values[0]
    spread = max(
        abs(a - b) for a in values for b in values
    )
    if not spread <= isolation_tol:
        raise NonIsolatedSuspected(
            f"residue varies by {spread:.3e} across the radius sweep"
        )
    return base, spread


def diagonal_weights(field: PolyVectorField) -> tuple[Fraction, ...] | None:
    """Weights when every component is ``w_i * z_i``; None otherwise."""
    weights = []
    for i, comp in enumerate(field.components):
        if len(comp.terms) != 1:
            return None
        (exps, coeff), = comp.terms.items()
        expected = tuple(1 if j == i else 0 for j in range(field.ambient_dim))
        if exps != expected:
            return None
        weights.append(coeff)
    return tuple(weights)


@dataclass(frozen=True)
class ResidueReport:
    """Combined numeric and exact residue data for one query."""

    numeric: complex
    radius_sweep_spread: float
    closed_form: Fraction | None = None
    kupka_degree: Fraction | None = None
    integrality: ChernReport | None = None


def build_residue_report(
    *,
    lambdas: Sequence[int] | None = None,
    field: PolyVectorField | None = None,
    c: int | None = None,
    radii: Sequence[float] | None = None,
    samples_per_circle: int = DEFAULT_SAMPLES,
    sweep_factors: Sequence[float] = DEFAULT_SWEEP,
    isolation_tol: float = 1e-8,
) -> ResidueReport:
    """Run the quadrature with a radius sweep and attach exact data.

    Either diagonal weights ``lambdas`` or an explicit ``field`` must be
    given.  The closed form is attached whenever the field is diagonal with
    nonzero weights; degree and integrality data additionally need ``c``
    and integer weights.
    """
    if field is None:
        if lambdas is None:
            raise ValidationError("either lambdas or a vector field is required")
        field = PolyVectorField.diagonal(list(lambdas))
    if radii is None:
        radii = (1.0,) * field.ambient_dim
    query = ResidueQuery(
        field=field,
        radii=tuple(float(r) for r in radii),
        samples_per_circle=samples_per_circle,
    )
    numeric, spread = residue_with_sweep(query, sweep_factors, isolation_tol)
    weights = diagonal_weights(field)
    closed: Fraction | None = None
    degree: Fraction | None = None
    chern: ChernReport | None = None
    if weights is not None and all(w != 0 for w in weights):
        closed = closed_form_residue(weights)
        if c is not None:
            ints = [int(w) for w in weights]
            if all(w == iw for w, iw in zip(weights, ints)) and all(w > 0 for w in ints):
                degree = kupka_degree(ints, c)
                chern = chern_integrality(ints, c)
    return ResidueReport(
        numeric=numeric,
        radius_sweep_spread=spread,
        closed_form=closed,
        kupka_degree=degree,
        integrality=chern,
    )
