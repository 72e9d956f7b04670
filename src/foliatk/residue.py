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
grid.  It runs only on a torus that ``_certify`` proves, by the Rouche
principle for residues (A. K. Tsikh, *Multidimensional Residues and Their
Applications*, AMS 1992; L. A. Aizenberg and A. P. Yuzhakov, *Integral
Representations and Residues in Multidimensional Complex Analysis*, AMS
1983): when no ``X_i`` has a zero on its face ``{|z_i| = r_i, |z_j| <=
r_j}`` of the closed polydisc, ``X`` has finitely many zeros ``a`` in the
polydisc, and the torus integral of ``h dz / (X_0 ... X_{m-1})`` is the sum
of the local residues ``Res_a[h dz / X]``.  Each term of ``X_i`` has a
constant modulus on the torus; when the largest, ``T_i``, is ``c z_i^k``
and outweighs the sum ``S_i`` of all with ``T_i - (S_i - T_i) > 0``, it
keeps that modulus on the face while no other term grows, so ``X_i`` has no
zero there.  Any other torus is refused before a sample exists.  The
printed value is thus the sum of the residues at the zeros inside the
polydisc, the origin's alone when it is the only one, and a radius sweep
flags a change in that set by value disagreement.

The sum runs on the unit torus: with ``z = r w``, each ``X_i`` is divided by
``T_i`` and ``h = tr(J_X)^m`` by ``prod T_i / prod r_i``, which leaves
``h(z) prod z_i / prod X_i(z)`` unchanged.  No sample then depends on the
radii, every coefficient of a component is at most 1 in modulus, and each
``|X_i / T_i|`` lies between ``2 - S_i / T_i`` and 2.  One bound on the
samples, from the certificate, is checked against the float range before
sampling, on both paths, and the sum must come out finite.

When every component ``X_i`` involves only ``z_i`` the tensor sum
factorizes into per-axis means; otherwise the full grid is evaluated, on
half of its row axis, since its sum is real.  Each piece of work is done
once, in the widest loop where it does not change: a radius sweep makes
one ``QuadraturePlan`` (the separable test, the exact terms of the
components and of ``tr(J_X)^m``, the row axis) and runs it at each radius;
the plan samples the first block of the unit circle once, the whole circle
on the grid, and both paths read it at every radius; each power ``w^e`` is
computed once per block of samples, keyed by ``e`` on the per-axis path,
where every axis samples the same points; the grid's rows run along the
variable that the fewest components involve; and a component that does not
involve the row variable is evaluated once per slab of the other axes, not
once per row.  Both paths work in blocks of ``GRID_BLOCK`` points.  numpy
is imported inside the quadrature functions, so only they load it.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from operator import itemgetter, mul, sub
from typing import Sequence

from .errors import (
    DenominatorNearZeroOnTorus,
    DenominatorOutOfFloatRange,
    DimensionMismatch,
    NonIsolatedSuspected,
    ValidationError,
)
from .forms import PolyVectorField
from .polynomials import MultiPoly, coerce_scalar, whole

DENOMINATOR_GUARD = 1e-6
DEFAULT_RADIUS = 1.0  # every torus radius of a report not given its radii
DEFAULT_SWEEP = (0.5, 1.0, 2.0)
DEFAULT_ISOLATION_TOL = 1e-8  # largest residue spread a radius sweep allows
DEFAULT_SAMPLES = 256
PRODUCT_BUDGET = 500_000  # most products codim1_realizable_products lists
QUADRATURE_BUDGET = 2**22  # most torus points one quadrature evaluates
GRID_BLOCK = 2**12  # torus points one quadrature block evaluates (see _grid_value)


def closed_form_residue(lambdas: Sequence[int]) -> Fraction:
    """Exact residue ``(sum Lambda)^m / prod Lambda`` for diagonal weights."""
    if not lambdas:
        raise ValidationError("eigenvalue vector is empty")
    weights = [coerce_scalar(lam) for lam in lambdas]
    if 0 in weights:
        raise ValidationError("zero eigenvalue has no isolated singularity")
    return sum(weights) ** len(weights) / math.prod(weights)


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
    if not whole(c, 1):
        raise ValidationError(f"twist c={c!r} must be a positive integer")
    weights = [coerce_scalar(lam) for lam in lambdas]
    total = sum(weights)
    if total == 0:
        raise ValidationError("eigenvalues sum to zero")
    values = tuple(w * c / total for w in weights)
    flags = tuple(v.denominator == 1 for v in values)
    return ChernReport(values=values, integer_flags=flags, realizable=all(flags))


def codim1_component_solver(c: int, d: int) -> tuple[tuple[int, int], ...]:
    """Unordered positive pairs with ``a + b = c`` and ``a * b = d``."""
    if not whole(c, 2):
        raise ValidationError(f"c={c!r} must be an integer >= 2")
    if not whole(d, 1):
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
    if not whole(c, 2):
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
        if not whole(self.samples_per_circle, 4):
            raise ValidationError("samples_per_circle must be an integer >= 4")


def _axis_samples(count: int, start: int, stop: int) -> np.ndarray:
    """Samples ``start`` to ``stop - 1`` of ``count`` equally spaced points on
    the unit circle.  Up to round-off, sample ``count - k`` is the conjugate
    of sample ``k``."""
    import numpy as np

    angles = 2.0 * np.pi * np.arange(start, stop) / count
    return np.exp(1j * angles)


def _log_terms(poly: MultiPoly) -> list[tuple[tuple[int, ...], float, float]]:
    """The terms of ``poly`` in canonical order as ``(exps, sign, log|c|)``;
    the log is taken of the coefficient's integer numerator and denominator
    in lowest terms, so it exists for a coefficient of any size."""
    return [(exps, -1.0 if num < 0 else 1.0, math.log(abs(num)) - math.log(den))
            for exps, num, den in poly.sorted_ratios()]


def _unit_logs(terms: list, top: tuple, logs: Sequence[float]) -> list[float]:
    """For each term ``c z^e`` of ``_log_terms`` output, the log of
    ``|c r^e| / (|c_top| r^top)``, for ``top`` a term ``(exps, sign,
    log|c_top|)`` and ``logs`` the logs of the radii ``r``: the modulus of
    the term's coefficient once ``z = r w`` and the polynomial is divided
    by ``|c_top| r^top``.  The exponent vectors are subtracted before they
    meet a log, so factors that cancel do so exactly."""
    top_exps, _, top_log = top
    return [log - top_log + sum(map(mul, map(sub, exps, top_exps), logs))
            for exps, _, log in terms]


def _unit_terms(terms: list, sizes: list[float]) -> list[tuple[tuple[int, ...], float]]:
    """``_log_terms`` output with the coefficient moduli ``exp(sizes)`` of
    ``_unit_logs``, as ``(exps, coefficient)``; a term that reads 0 is
    dropped."""
    return [(exps, c) for (exps, sign, _), size in zip(terms, sizes) if (c := sign * math.exp(size))]


def _certify(field: PolyVectorField, i: int, terms: list, logs: Sequence[float]) -> tuple:
    """Prove the torus of log radii ``logs`` for ``X_i``, whose terms are
    ``_log_terms`` output, as the module docstring says, or raise
    ``DenominatorNearZeroOnTorus`` naming ``X_i`` and the reason.

    The largest term on the torus must be ``c z_i^k`` (``k >= 0``), and
    ``X_i`` divided by its modulus ``T_1``, ``X~_i``, has coefficients of
    moduli summing to ``S~ = S / T_1``: ``2 - S~ >= 2 g + 1e-9 S~`` for
    ``g = DENOMINATOR_GUARD`` proves ``|X~_i| >= g`` at every sample of the
    unit torus.  The ``1e-9 S~`` is about 10^7 unit round-offs ``u =
    2^-53``, and a sample, each power ``w^e`` (by products, or by exp and
    log of a point of modulus 1) and each product and sum that evaluates
    ``X~_i`` err by a few ``u`` of the moduli they combine, so the computed
    ``|X~_i|`` is within about ``(k + 2^11 d) u S~`` of its value for ``k``
    terms of degree at most ``d``; the proof is used only while ``k + 2^11 d
    <= 2^20``.  A coefficient of ``X~_i`` below the smallest normal float
    errs by at most ``2^-1074``.  A zero ``X_i`` is never proved, and a NaN
    radius gives a NaN bound, which every comparison fails.

    Returns ``X~_i`` as ``(exps, coefficient)`` terms, every coefficient at
    most 1 in modulus and the top one ``+-1``, with the top term of
    ``terms`` and ``S~``."""
    def cut(poly: MultiPoly) -> str:
        text = poly.to_str()
        return text if len(text) <= 80 else text[:76] + " ..."

    def refuse(reason: str) -> DenominatorNearZeroOnTorus:
        return DenominatorNearZeroOnTorus(f"X_{i} = {cut(field.components[i])} {reason}")

    def named(exps) -> str:
        return cut(MultiPoly.monomial(field.ambient_dim, exps, field.components[i].terms[exps]))

    sizes = [log + sum(map(mul, exps, logs)) for exps, _, log in terms]
    top = max(range(len(sizes)), key=sizes.__getitem__, default=None)
    if top is None or any(e for k, e in enumerate(terms[top][0]) if k != i):
        largest = "none" if top is None else named(terms[top][0])
        raise refuse(f"has no dominant term in x{i} alone on the torus (largest: {largest})")
    degree = max(sum(exps) for exps, _, _ in terms)
    if (size := len(terms) + 2**11 * degree) > 2**20:
        raise refuse(f"is past the size cap: terms + 2^11 * degree = {size} > 2^20, "
                     "beyond which its round-off is not bounded")
    relative = _unit_logs(terms, terms[top], logs)
    ratio = sum(map(math.exp, relative))  # S~
    if not 2 - (1 + 1e-9) * ratio >= 2 * DENOMINATOR_GUARD:
        raise refuse(f"is not certified on the torus: its largest term, {named(terms[top][0])}, "
                     "does not outweigh the sum of the others")
    return _unit_terms(terms, relative), terms[top], ratio


class _Powers(dict):
    """``base ** e`` by ``e``, each computed once, at its first lookup;
    ``e = 1`` maps to ``base`` itself, which numpy's ``base ** 1`` equals
    bit for bit but costs as much as ``base ** 3``."""

    def __init__(self, base):
        super().__init__({1: base})
        self.base = base

    def __missing__(self, e: int):
        power = self[e] = self.base ** e
        return power


def _eval_on_arrays(terms: list, powers: Sequence[_Powers]) -> np.ndarray | complex:
    """Evaluate ``(exps, coefficient)`` terms on broadcastable per-axis
    sample arrays, terms in canonical order for reproducible float
    accumulation.  ``powers[i]`` holds the powers of axis ``i``; calls that
    share them compute each power once, and axes that sample the same
    points may share one ``_Powers``."""
    total = 0
    for exps, term in terms:
        for i, e in enumerate(exps):
            if e:
                term = term * powers[i][e]
        total = total + term
    return total


def _separable_value(components: list, numerator: list, count: int, first) -> complex:
    """Tensor trapezoid sum on the unit torus factored into per-axis means;
    ``components`` and ``numerator`` are ``QuadraturePlan.unit_torus``
    output and ``first`` is ``QuadraturePlan.circle``.

    Valid when component ``i`` involves only variable ``i``; each monomial
    ``coeff * w^a`` of the numerator times ``prod w_i`` contributes
    ``coeff * prod_i mean(s^(a_i + 1) / X_i(s))``.  The means are summed
    over blocks of ``GRID_BLOCK`` samples of the unit circle, shared by
    every axis: the first is ``first``, and each later one is made when it
    is reached, so memory does not grow with ``count``.  Per block, each
    power ``s^e`` is computed once, keyed by ``e``, and read by every
    component value and every mean that needs it.
    """
    import numpy as np

    m = len(components)
    moments = [sorted({exps[i] + 1 for exps, _ in numerator}) for i in range(m)]
    sums: dict[tuple[int, int], complex] = {}
    with np.errstate(all="ignore"):
        for start in range(0, count, GRID_BLOCK):
            circle = _axis_samples(count, start, min(start + GRID_BLOCK, count)) if start else first
            powers = _Powers(circle)
            for i in range(m):
                values = _eval_on_arrays(components[i], [powers] * m)
                for p in moments[i]:
                    part = np.add.reduce(powers[p] / values, None)
                    sums[i, p] = sums[i, p] + part if start else part
        means = {key: complex(part / count) for key, part in sums.items()}
    total = complex(0)
    for exps, term in numerator:
        for i, e in enumerate(exps):
            term *= means[i, e + 1]
        total += term
    return total


def _first_axis_tables(terms: list, powers: Sequence[_Powers]) -> list:
    """``(exps, coefficient)`` terms by powers of ``z_0``: entry ``k`` is the
    coefficient of ``z_0^k`` on the other axes, None where it is absent;
    ``powers`` holds the powers of the other axes, as in
    ``_eval_on_arrays``."""
    by_power: dict[int, list] = {}
    for exps, coeff in terms:
        by_power.setdefault(exps[0], []).append((exps[1:], coeff))
    tables = [None] * (max(by_power, default=-1) + 1)
    for power, terms in by_power.items():
        tables[power] = _eval_on_arrays(terms, powers)
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


def _grid_value(components: list, numerator: list, count: int, circle) -> complex:
    """Full tensor-grid trapezoid sum on the unit torus, ``count`` samples
    per circle, rows along axis 0, over half of them and in blocks;
    ``components`` and ``numerator`` are ``QuadraturePlan.unit_torus``
    output, which renames the variables so that its row axis is axis 0, and
    ``circle`` is ``QuadraturePlan.circle``, here the whole circle.

    Every axis samples the one unit circle of ``_axis_samples``, closed
    under conjugation: sample ``n - k`` is the conjugate of sample ``k``.
    The coefficients are real, so row ``n - k`` then sums to the conjugate
    of row ``k``: rows ``0 .. n//2`` weighted 1, 2, ..., 2 (1 for row
    ``n/2`` when ``n`` is even) give the full sum, which is real.  The
    weights carry the mean's ``1 / count^m`` (exactly, for a power-of-two
    ``count``), so every partial sum stays within the bound that
    ``QuadraturePlan.unit_torus`` checks.

    The other axes are cut into slabs: a slab is all of them or, when one
    row is larger than ``GRID_BLOCK`` points, one index on each of axes
    ``1 .. s-1`` and a range of axis ``s``, for the first axis ``s`` whose
    slices hold at most ``GRID_BLOCK`` points.  A block is a range of rows
    over one slab, at most ``GRID_BLOCK`` points.  Per slab, each
    polynomial is split by powers of ``z_0`` and its coefficient tables are
    evaluated on the slab, each power of a slab axis once; the numerator's
    tables are multiplied by ``z_1 ... z_{m-1}`` and divided by each
    component that does not involve ``z_0``, evaluated once, on the values
    it takes on every row.  Per block, only the components that involve
    ``z_0`` are evaluated, by Horner's rule in ``z_0``; the denominator is
    their product.  The row weights times ``z_0`` multiply every point, or
    the sum of a block of one row.  Only elementwise numpy calls are made:
    a matrix product would start a BLAS thread and cost more CPU time than
    it saves.
    """
    import numpy as np

    m = len(components)
    half = count // 2 + 1
    weights = np.full(half, 2.0)  # row k stands for rows k and count - k
    weights[0] = 1.0
    if count % 2 == 0:
        weights[-1] = 1.0  # row count/2 is its own conjugate
    z0 = circle[:half].reshape((half,) + (1,) * (m - 1))
    weighted_z0 = weights.reshape(z0.shape) / count**m * z0
    varies = [any(exps[0] for exps, _ in terms) for terms in components]
    row = count ** (m - 1)
    rows = max(1, GRID_BLOCK // row)
    split, inner = 1, row // count  # the axis ranged over, points per index of it
    while inner > GRID_BLOCK:
        split, inner = split + 1, inner // count
    width = count if row <= GRID_BLOCK else GRID_BLOCK // inner
    acc = 0
    with np.errstate(all="ignore"):
        for *fixed, j in itertools.product(*[range(count)] * (split - 1), range(0, count, width)):
            ranges = [slice(i, i + 1) for i in fixed] + [slice(j, j + width)]
            axes = [circle[ranges[i - 1] if i <= split else slice(None)]
                    .reshape((1,) * (i - 1) + (-1,) + (1,) * (m - 1 - i)) for i in range(1, m)]
            powers = [_Powers(axis) for axis in axes]
            comps = [_first_axis_tables(terms, powers) for terms in components]
            scale = math.prod(axes)  # z_1 ... z_{m-1}, over the row-constant components
            constant = [tables[0] for tables, vary in zip(comps, varies) if not vary]
            if constant:
                scale = scale / math.prod(constant)
            numer = [None if table is None else table * scale
                     for table in _first_axis_tables(numerator, powers)]
            for k in range(0, half, rows):
                block = z0[k:k + rows]
                denom = None
                for tables, vary in zip(comps, varies):
                    if vary:
                        values = _horner(tables, block)
                        denom = values if denom is None else denom * values
                quotient = _horner(numer, block)
                if denom is not None:
                    quotient = quotient / denom
                # np.sum's pairwise sum without its Python wrapper; it also
                # takes the int 0 of _horner for an empty numerator
                if len(block) == 1:
                    acc = acc + np.add.reduce(quotient, None) * weighted_z0.flat[k]
                else:
                    acc = acc + np.add.reduce(quotient * weighted_z0[k:k + rows], None)
    return complex(acc.real)


def _renamed(terms: list, order: Sequence[int]) -> list:
    """``(exps, coefficient)`` terms with variable ``order[j]`` renamed
    ``z_j``, back in canonical order; ``terms`` itself when ``order`` is the
    identity."""
    if order == tuple(range(len(order))):
        return terms
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
    the unit circle is closed under conjugation, so the half-axis rule of
    ``_grid_value`` holds for any row axis.  The variables are renamed so
    that ``axis`` comes first and the others follow in order (``order``).
    The plan keeps the terms of the components (``terms``) and of
    ``tr(J_X)^m`` (``numerator``) as ``_log_terms`` output, each
    coefficient's sign and log modulus, in the field's own order;
    ``unit_torus`` scales and renames them at each radius.

    The refusals come in this order: ``QUADRATURE_BUDGET`` is checked before
    anything else; at each radius, the certificate of every component; then
    ``tr(J_X)^m``, with its own budgets, is built at the first radius that
    passes them; then the float-range bound of ``unit_torus``.  Only then
    is ``circle`` sampled, once per plan.
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
        self.terms = [_log_terms(comp) for comp in field.components]

    @cached_property
    def numerator(self) -> list:
        """The terms of ``tr(J_X)^m`` as ``_log_terms`` output."""
        return _log_terms(self.trace ** self.field.ambient_dim)

    @cached_property
    def circle(self) -> np.ndarray:
        """The first block of the unit circle, samples ``0 .. min(count,
        GRID_BLOCK) - 1``, made at the first radius that ``unit_torus``
        passes and read by both paths at every radius.  On the grid it is
        the whole circle: ``count^m <= QUADRATURE_BUDGET`` with ``m >= 2``
        keeps ``count`` below ``GRID_BLOCK``."""
        count = self.samples_per_circle
        return _axis_samples(count, 0, min(count, GRID_BLOCK))

    def unit_torus(self, radii: Sequence[float]) -> tuple[list, list]:
        """The components and the numerator on the unit torus, once
        ``_certify`` has proved the torus of ``radii`` for every component
        and the bound below is within the float range; ``(exps,
        coefficient)`` terms, renamed by ``order``.

        With ``z = r w``, each ``X_i`` is divided by the modulus ``T_i`` of
        its top term, and ``h = tr(J_X)^m`` becomes ``h(r w) prod r_i /
        prod T_i``: ``h(z) prod z_i / prod X_i(z)`` is unchanged.  On the
        unit torus ``|X~_i| >= 2 - S~_i`` and the numerator times ``prod
        w_i`` is at most ``H``, the sum of its coefficient moduli, so every
        sample, mean and partial sum of the quadrature is at most ``H / prod
        (2 - S~_i)``, up to round-off; that bound must stay below half the
        largest float, or ``DenominatorOutOfFloatRange`` is raised."""
        logs = [math.log(r) for r in radii]
        components, tops, ratios = zip(*(_certify(self.field, i, terms, logs)
                                         for i, terms in enumerate(self.terms)))
        shift = tuple(sum(column) - 1 for column in zip(*(exps for exps, _, _ in tops)))
        sizes = _unit_logs(self.numerator, (shift, 1.0, sum(log for *_, log in tops)), logs)
        largest = max(sizes, default=0.0)
        total = sum(math.exp(size - largest) for size in sizes)  # H / e^largest
        bound = (largest + math.log(total) if total else -math.inf) - sum(
            math.log(2 - ratio) for ratio in ratios)
        if not bound < math.log(sys.float_info.max / 2):
            raise DenominatorOutOfFloatRange(
                f"a sample of the torus sum can reach about 10^{bound / math.log(10):.1f}, "
                f"past half the largest float ({sys.float_info.max / 2:.3e})")
        return ([_renamed(terms, self.order) for terms in components],
                _renamed(_unit_terms(self.numerator, sizes), self.order))

    def value(self, radii: Sequence[float]) -> complex:
        """The quadrature on the torus of ``radii``, in the field's own
        order, run on ``unit_torus``; a sum that is not finite raises
        ``DenominatorNearZeroOnTorus``."""
        components, numerator = self.unit_torus(radii)
        run = _separable_value if self.separable else _grid_value
        total = run(components, numerator, self.samples_per_circle, self.circle)
        if not cmath.isfinite(total):
            raise DenominatorNearZeroOnTorus(
                f"the torus sum is {total}: a sample or a value on the torus is not finite")
        return total


def grothendieck_residue_numeric(query: ResidueQuery, plan: QuadraturePlan | None = None) -> complex:
    """Trapezoidal estimate of the sum of the residues of ``tr(J_X)^m`` at
    the zeros of ``X`` inside the polydisc of the query's radii (the
    origin's alone when it is the only one there), by ``plan``, made here
    when not given; a given plan must have been made for the query's field
    and sample count.

    Deterministic for fixed radii and sample count.  The sum runs on the
    unit torus, where no sample depends on the radii (see
    ``QuadraturePlan.unit_torus``).  The per-axis path evaluates ``m *
    samples`` points and the grid covers ``samples^m`` (evaluating the
    ``samples // 2 + 1`` rows of the row axis that stand for all, so its
    value is real); more than ``QUADRATURE_BUDGET`` raises
    ``ValidationError`` before any sample exists.  So do
    ``DenominatorNearZeroOnTorus``, when ``_certify`` refuses the torus,
    and ``DenominatorOutOfFloatRange``, when the bound on the samples may
    pass the float range.  A sum that still comes out not finite raises
    ``DenominatorNearZeroOnTorus`` after sampling, on both paths.
    """
    if plan is None:
        plan = QuadraturePlan(query.field, query.samples_per_circle)
    elif plan.field is not query.field or plan.samples_per_circle != query.samples_per_circle:
        raise ValidationError("the quadrature plan was made for another field or sample count")
    return plan.value(query.radii)


def residue_with_sweep(
    query: ResidueQuery,
    sweep_factors: Sequence[float] = DEFAULT_SWEEP,
    isolation_tol: float = DEFAULT_ISOLATION_TOL,
) -> tuple[complex, float]:
    """Residue at the query radii plus the spread across scaled radii.

    Re-evaluates at ``factor * radii`` for each sweep factor, by one
    ``QuadraturePlan``; the base is the value at factor 1 when the sweep has
    it, else at the first factor, and the spread is the largest pairwise
    modulus difference.  A spread above ``isolation_tol`` raises
    ``NonIsolatedSuspected``; a factor that is not finite and positive, or
    that takes a radius out of the float range, raises ``ValidationError``.
    """
    if not sweep_factors:
        raise ValidationError("sweep needs at least one factor")
    for f in sweep_factors:
        if not 0 < f < math.inf:
            raise ValidationError(f"sweep factor {f!r} must be finite and positive")
        for r in query.radii:
            if not 0 < r * f < math.inf:
                raise ValidationError(f"radius {r!r} times sweep factor {f!r} "
                                      "leaves the float range")
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
    isolation_tol: float = DEFAULT_ISOLATION_TOL,
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
        radii = (DEFAULT_RADIUS,) * field.ambient_dim
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
