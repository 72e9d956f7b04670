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
factorizes into per-axis means; otherwise the full grid is evaluated, on
half of its row axis, since its sum is real.  Each piece of work is done
once, in the widest loop where it does not change: a radius sweep makes
one ``QuadraturePlan`` (the separable test, the complex terms of the
components and of ``tr(J_X)^m``, the row axis) and runs it at each radius;
the grid's rows run along the variable that the fewest components involve;
and a component that does not involve the row variable is evaluated and
guarded once per slab of the other axes, not once per row.  Both paths
work in blocks of ``GRID_BLOCK`` points and refuse denominators that come
within a guard threshold of zero on the grid or may pass the largest float
on the torus, and a radius sweep flags non-isolated zeros by value
disagreement.  The threshold of ``X_i`` is relative: ``DENOMINATOR_GUARD``
times the largest term of ``X_i`` on the torus.  Each term has a constant
modulus there, so when the largest outweighs the sum of the others by
twice the threshold and a round-off allowance, no sample can trip the
guard and ``X_i`` is not sampled (see ``_guard``); the grid's sum must then
be finite, so a NaN sample still fails.  numpy is imported inside the
quadrature functions, so only they load it.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from operator import itemgetter, mul
from typing import Sequence

from .errors import (
    DenominatorNearZeroOnTorus,
    DenominatorOutOfFloatRange,
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
GRID_BLOCK = 2**12  # torus points one quadrature block evaluates (see _grid_value)


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


def _axis_samples(
    radius: float, count: int, start: int = 0, stop: int | None = None
) -> np.ndarray:
    """Samples ``start`` to ``stop - 1`` of ``count`` equally spaced points on
    ``|z| = radius``, the whole circle by default.  Up to round-off, sample
    ``count - k`` is the conjugate of sample ``k``."""
    import numpy as np

    angles = 2.0 * np.pi * np.arange(start, count if stop is None else stop) / count
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


def _term_logs(terms: list, radii: Sequence[float]) -> list[float]:
    """Logs of ``|c| prod_i r_i^e_i``, the constant modulus of each nonzero
    term of ``_complex_terms`` output on the torus of ``radii``."""
    logs = [math.log(r) for r in radii]
    return [math.log(abs(c)) + sum(map(mul, exps, logs)) for exps, c in terms if c]


def _log_size(terms: list, radii: Sequence[float]) -> float:
    """Log of the term count times the largest ``|c| prod_i max(r_i, 1)^e_i``
    over ``_complex_terms`` output: on the torus it bounds every partial sum
    and product of evaluating them, term by term or by Horner's rule."""
    logs = _term_logs(terms, [max(r, 1.0) for r in radii])
    return max(logs, default=-math.inf) + math.log(max(len(logs), 1))


def _guard(terms: list, radii: Sequence[float]) -> float | None:
    """The least ``|X_i|`` the quadrature divides by, or None when the terms
    of ``X_i`` prove that no sample comes near it.

    The threshold ``g`` is ``DENOMINATOR_GUARD`` times the largest term
    modulus ``T_1`` of ``X_i`` on the torus of ``radii``, so the guard
    scales with the torus, and at least the smallest normal float.  On the
    torus every term has a constant modulus; with ``S`` their sum,
    ``|X_i| >= T_1 - (S - T_1)`` at every point (reverse triangle
    inequality).  When that bound is at least ``2 g + 1e-9 S``, no sample
    can fall below ``g`` and None is returned.

    The ``1e-9 S`` is about 10^7 unit round-offs ``u = 2^-53``.  A sample
    lies within a few ``u`` of its circle, and each power ``z^e`` (by
    repeated products, or by exp and log with ``|log r| <= 745``) and each
    product and sum that evaluates ``X_i``, on the tables and by Horner's
    rule, errs by a few ``u`` of the moduli it combines.  So the computed
    ``|X_i|`` is within about ``(k + 2^11 d) u S`` of its value on the torus
    for ``k`` terms of degree at most ``d``; the proof is used only while
    ``k + 2^11 d <= 2^20``, where that is below ``1e-9 S``, and a larger
    ``X_i`` is sampled.  Underflow errs by at most ``2^-1074`` a step, far
    below ``g``.  A zero ``X_i`` is never proved, and a NaN radius gives a
    NaN guard and bound, which every comparison fails."""
    sizes = _term_logs(terms, radii)
    largest = max(sizes, default=-math.inf)
    guard = max(DENOMINATOR_GUARD * math.exp(min(largest, math.log(sys.float_info.max))),
                sys.float_info.min)
    degree = max((sum(exps) for exps, c in terms if c), default=0)
    if len(sizes) + 2**11 * degree <= 2**20:
        ratio = sum(math.exp(size - largest) for size in sizes)  # S / T_1
        relative = math.exp(min(math.log(guard) - largest, 1.0))  # g / T_1, capped past proof
        if 2 - (1 + 1e-9) * ratio >= 2 * relative:
            return None
    return guard


def _eval_on_arrays(terms: list, axes: list, powers: dict | None = None) -> np.ndarray | complex:
    """Evaluate ``_complex_terms`` output on broadcastable per-axis sample
    arrays, terms in canonical order for reproducible float accumulation.
    ``powers`` holds ``axes[i] ** e`` by ``(i, e)``; calls that share it
    compute each power once."""
    powers = {} if powers is None else powers
    total = 0
    for exps, term in terms:
        for i, e in enumerate(exps):
            if e:
                power = powers.get((i, e))
                if power is None:
                    power = powers[i, e] = axes[i] ** e
                term = term * power
        total = total + term
    return total


def _separable_value(
    components: list,
    numerator: list | MultiPoly,
    radii: Sequence[float],
    count: int,
) -> complex:
    """Tensor trapezoid sum factored into per-axis means; ``components``
    and ``numerator`` are ``_complex_terms`` output (or the numerator the
    polynomial itself).

    Valid when component ``i`` involves only variable ``i``; each monomial
    ``coeff * z^a`` of the numerator times ``prod z_i`` contributes
    ``coeff * prod_i mean(s_i^(a_i + 1) / X_i(s_i))``.  The means are summed
    over blocks of ``GRID_BLOCK`` samples, made and guarded one block at a
    time, so memory does not grow with ``count``.
    """
    import numpy as np

    m = len(components)
    terms = numerator if isinstance(numerator, list) else _complex_terms(numerator)
    powers = [sorted({exps[i] + 1 for exps, _ in terms}) for i in range(m)]
    guards = [_guard(component, radii) for component in components]
    sums: dict[tuple[int, int], complex] = {}
    with np.errstate(all="ignore"):
        for start in range(0, count, GRID_BLOCK):
            stop = min(start + GRID_BLOCK, count)
            for i in range(m):
                axis = _axis_samples(radii[i], count, start, stop)
                axes = [axis if j == i else None for j in range(m)]
                values = np.asarray(_eval_on_arrays(components[i], axes))
                if guards[i] is not None:
                    low = float(np.min(np.abs(values)))
                    if not low >= guards[i]:
                        raise DenominatorNearZeroOnTorus(
                            f"|X_{i}| reaches {low:.3e} on the sample torus"
                        )
                for power in powers[i]:
                    part = np.sum(axis ** power / values)
                    sums[i, power] = sums[i, power] + part if start else part
        total = complex(0)
        for exps, term in terms:
            for i, e in enumerate(exps):
                term *= complex(sums[i, e + 1] / count)
            total += term
    return total


def _first_axis_tables(terms: list, rest_axes: list, powers: dict) -> list:
    """``_complex_terms`` output by powers of ``z_0``: entry ``k`` is the
    coefficient of ``z_0^k`` on the other axes, None where it is absent;
    ``powers`` is shared as in ``_eval_on_arrays``."""
    by_power: dict[int, list] = {}
    for exps, coeff in terms:
        by_power.setdefault(exps[0], []).append((exps[1:], coeff))
    tables = [None] * (max(by_power, default=-1) + 1)
    for power, terms in by_power.items():
        tables[power] = _eval_on_arrays(terms, rest_axes, powers)
    return tables


def _horner(tables: list, z0) -> np.ndarray | complex:
    """Sum of ``tables[k] * z0^k`` by Horner's rule; 0 for no tables."""
    if not tables:
        return 0
    value = tables[-1]
    for table in reversed(tables[:-1]):
        value = value * z0
        if table is not None:
            value = value + table
    return value


def _grid_value(
    components: list,
    numerator: list | MultiPoly,
    radii: Sequence[float],
    samples: list[np.ndarray],
) -> complex:
    """Full tensor-grid trapezoid sum, rows along axis 0, over half of them
    and in blocks; ``components`` and ``numerator`` are ``_complex_terms``
    output (or the numerator the polynomial itself), and ``samples`` lie on
    the torus of ``radii``, at which each ``|X_i|`` is guarded.
    ``QuadraturePlan`` renames the variables so that its row axis is axis 0.

    The samples of every axis must be closed under conjugation, sample
    ``n - k`` the conjugate of sample ``k``, as ``_axis_samples`` gives.
    The coefficients are rational, so row ``n - k`` then sums to the
    conjugate of row ``k``: rows ``0 .. n//2`` weighted 1, 2, ..., 2 (1 for
    row ``n/2`` when ``n`` is even) give the full sum, which is real, and
    ``|X_i|`` takes its full-grid minimum on them.

    The other axes are cut into slabs: a slab is all of them or, when one
    row is larger than ``GRID_BLOCK`` points, one index on each of axes
    ``1 .. s-1`` and a range of axis ``s``, for the first axis ``s`` whose
    slices hold at most ``GRID_BLOCK`` points.  A block is a range of rows
    over one slab, at most ``GRID_BLOCK`` points.  Per slab, each
    polynomial is split by powers of ``z_0`` and its coefficient tables are
    evaluated on the slab, each power of a slab axis once; the numerator's
    tables are multiplied by ``z_1 ... z_{m-1}`` and divided by each
    component that does not involve ``z_0``, which is guarded once, on the
    values it takes on every row.  Per block, only the components that
    involve ``z_0`` are evaluated, by Horner's rule in ``z_0``, and guarded;
    the denominator is their product.  The row weights times ``z_0``
    multiply every point, or the sum of a block of one row.  A component
    that ``_guard`` proves is not sampled, so a NaN sample of it surfaces in
    the sum, which must be finite.  Only elementwise numpy calls are made:
    a matrix product would start a BLAS thread and cost more CPU time than
    it saves.
    """
    import numpy as np

    m = len(components)
    count = len(samples[0])
    numerator = numerator if isinstance(numerator, list) else _complex_terms(numerator)
    half = count // 2 + 1
    weights = np.full(half, 2.0)  # row k stands for rows k and count - k
    weights[0] = 1.0
    if count % 2 == 0:
        weights[-1] = 1.0  # row count/2 is its own conjugate
    z0 = samples[0][:half].reshape((half,) + (1,) * (m - 1))
    weighted_z0 = weights.reshape(z0.shape) * z0
    guards = [_guard(terms, radii) for terms in components]
    varies = [any(exps[0] for exps, _ in terms) for terms in components]
    row = count ** (m - 1)
    rows = max(1, GRID_BLOCK // row)
    split, inner = 1, row // count  # the axis ranged over, points per index of it
    while inner > GRID_BLOCK:
        split, inner = split + 1, inner // count
    width = count if row <= GRID_BLOCK else GRID_BLOCK // inner

    def guarded(values, guard):
        if guard is not None:
            low = float(np.min(np.abs(values)))  # NaN if any value is
            if not low >= guard:
                raise DenominatorNearZeroOnTorus(
                    f"denominator magnitude reaches {low:.3e} on the sample torus")
        return values

    acc = 0
    with np.errstate(all="ignore"):
        for *fixed, j in itertools.product(*[range(count)] * (split - 1), range(0, count, width)):
            ranges = [slice(i, i + 1) for i in fixed] + [slice(j, j + width)]
            axes = [samples[i][ranges[i - 1] if i <= split else slice(None)]
                    .reshape((1,) * (i - 1) + (-1,) + (1,) * (m - 1 - i)) for i in range(1, m)]
            powers: dict = {}
            comps = [_first_axis_tables(terms, axes, powers) for terms in components]
            scale = math.prod(axes)  # z_1 ... z_{m-1}, over the row-constant components
            constant = [guarded(tables[0] if tables else 0, guard)
                        for tables, guard, vary in zip(comps, guards, varies) if not vary]
            if constant:
                scale = scale / math.prod(constant)
            numer = [None if table is None else table * scale
                     for table in _first_axis_tables(numerator, axes, powers)]
            for k in range(0, half, rows):
                block = z0[k:k + rows]
                denom = None
                for tables, guard, vary in zip(comps, guards, varies):
                    if vary:
                        values = guarded(_horner(tables, block), guard)
                        denom = values if denom is None else denom * values
                quotient = _horner(numer, block)
                if denom is not None:
                    quotient = quotient / denom
                if len(block) == 1:
                    acc = acc + np.sum(quotient) * weighted_z0.flat[k]
                else:
                    acc = acc + np.sum(quotient * weighted_z0[k:k + rows])
    if not np.isfinite(acc):
        raise DenominatorNearZeroOnTorus(
            f"the torus sum is {complex(acc)}: a sample or a value on the torus is not finite")
    return complex(acc.real / count**m)


def _renamed(terms: list, order: Sequence[int]) -> list:
    """``_complex_terms`` output with variable ``order[j]`` renamed ``z_j``,
    back in canonical order."""
    return sorted(((tuple(exps[k] for k in order), c) for exps, c in terms),
                  key=itemgetter(0), reverse=True)


class QuadraturePlan:
    """What the torus quadrature of ``field`` at ``samples_per_circle``
    samples needs at every radius, made once and run at each radius of a
    sweep by ``value``.

    ``separable`` picks the per-axis path.  On the grid the rows run along
    ``axis``: the variable that the fewest components involve, a tie going
    to one that ``tr(J_X)``, and so ``tr(J_X)^m``, does not involve, then
    to the lowest index.  The grid's sum is the same along any axis, and
    the samples of every axis are closed under conjugation, so the half-axis
    rule of ``_grid_value`` holds for any row axis.  The variables are
    renamed so that ``axis`` comes first and the others follow in order
    (``order``); the complex terms of the components and of ``tr(J_X)^m``
    are kept renamed, back in canonical order, and the radii are renamed at
    each call.

    The refusals keep their order: ``QUADRATURE_BUDGET`` is checked before
    anything else, and ``tr(J_X)^m``, with its own budgets, is built at the
    first radius whose float-range check passes.
    """

    def __init__(self, field: PolyVectorField, samples_per_circle: int):
        m, count = field.ambient_dim, samples_per_circle
        involved = [comp.involved_variables() for comp in field.components]
        separable = all(variables <= {i} for i, variables in enumerate(involved))
        if (m * count if separable else count**m) > QUADRATURE_BUDGET:
            raise ValidationError(
                f"{count} samples per circle in {m} variables take more torus points "
                f"than QUADRATURE_BUDGET = {QUADRATURE_BUDGET}"
            )
        self.field, self.samples_per_circle, self.separable = field, count, separable
        self.trace = field.jacobian_trace()
        traced = self.trace.involved_variables()
        self.axis = 0 if separable else min(
            range(m), key=lambda k: (sum(k in variables for variables in involved), k in traced, k))
        self.order = (self.axis, *(k for k in range(m) if k != self.axis))
        self.components = [_renamed(_complex_terms(comp), self.order) for comp in field.components]

    @cached_property
    def numerator(self) -> list:
        """The complex terms of ``tr(J_X)^m``, renamed as the components."""
        return _renamed(_complex_terms(self.trace ** self.field.ambient_dim), self.order)

    def value(self, radii: Sequence[float]) -> complex:
        """The quadrature on the torus of ``radii``, in the field's own order."""
        radii = [radii[k] for k in self.order]
        sizes = [_log_size(terms, radii) for terms in self.components]
        size = max(sizes) if self.separable else sum(sizes)
        if not size < math.log(sys.float_info.max):
            raise DenominatorOutOfFloatRange(
                f"a denominator can reach about 10^{size / math.log(10):.1f} on the sample torus, "
                f"past the largest float {sys.float_info.max:.3e}")
        count = self.samples_per_circle
        if self.separable:
            return _separable_value(self.components, self.numerator, radii, count)
        samples = [_axis_samples(r, count) for r in radii]
        return _grid_value(self.components, self.numerator, radii, samples)


def grothendieck_residue_numeric(query: ResidueQuery, plan: QuadraturePlan | None = None) -> complex:
    """Trapezoidal estimate of the residue of ``tr(J_X)^m`` at the origin,
    by ``plan``, made here when not given; a given plan must have been made
    for the query's field and sample count.

    Deterministic for fixed radii and sample count.  The per-axis path
    evaluates ``m * samples`` points and the grid covers ``samples^m``
    (evaluating the ``samples // 2 + 1`` rows of the row axis that stand for
    all, so its value is real); more than ``QUADRATURE_BUDGET`` raises
    ``ValidationError`` before any sample exists.  Raises
    ``DenominatorNearZeroOnTorus`` when any ``|X_i|`` drops below the guard
    on the grid or the grid's sum is not finite, and
    ``DenominatorOutOfFloatRange`` before sampling when a denominator (each
    ``X_i`` per axis, their product on the grid) may pass the largest float,
    so that quotients by it would read 0.  Any other overflow on the
    per-axis path leaves an inf or NaN, which the sweep spread check
    rejects.
    """
    if plan is None:
        plan = QuadraturePlan(query.field, query.samples_per_circle)
    elif plan.field is not query.field or plan.samples_per_circle != query.samples_per_circle:
        raise ValidationError("the quadrature plan was made for another field or sample count")
    return plan.value(query.radii)


def residue_with_sweep(
    query: ResidueQuery,
    sweep_factors: Sequence[float] = DEFAULT_SWEEP,
    isolation_tol: float = 1e-8,
) -> tuple[complex, float]:
    """Residue at the query radii plus the spread across scaled radii.

    Re-evaluates at ``factor * radii`` for each sweep factor, by one
    ``QuadraturePlan``; the base is the value at factor 1 when the sweep has
    it, else at the first factor, and the spread is the largest pairwise
    modulus difference.  A spread above ``isolation_tol`` raises
    ``NonIsolatedSuspected``.
    """
    if not sweep_factors:
        raise ValidationError("sweep needs at least one factor")
    plan = QuadraturePlan(query.field, query.samples_per_circle)
    values = [grothendieck_residue_numeric(replace(query, radii=tuple(r * f for r in query.radii)),
                                           plan)
              for f in sweep_factors]
    base = values[sweep_factors.index(1.0)] if 1.0 in sweep_factors else values[0]
    spread = max(abs(a - b) for a in values for b in values)
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
    closed = chern = None
    if weights is not None and 0 not in weights:
        closed = closed_form_residue(weights)
        if c is not None and all(w.denominator == 1 and w > 0 for w in weights):
            chern = chern_integrality(weights, c)
    degree = None if chern is None else math.prod(chern.values)
    return ResidueReport(numeric=numeric, radius_sweep_spread=spread, closed_form=closed,
                         kupka_degree=degree, integrality=chern)
