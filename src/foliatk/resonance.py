"""Resonance analysis for diagonal linear models at transversal singularities.

Fix positive integer eigenvalues ``Lambda = (lambda_0 <= ... <= lambda_{n-k})``
of the diagonal field ``X = sum_i lambda_i x_i d/dx_i``.  An eigenvalue
``lambda_s`` is *resonant* when it can be written as ``<m, Lambda>`` with
``m`` a vector of non-negative integers of order ``|m| = sum m_i >= 2``
(for positive eigenvalues such an ``m`` never touches slot ``s`` itself).

``partition`` splits the sorted eigenvalues by an ascending greedy sweep:
a value joins the non-resonant set ``Lambda_NR`` unless it is an order->=2
combination of the values already collected.  Each resonant value then has
a nonempty relation set ``R(s)`` of multi-indices over ``Lambda_NR``, and
``build_normal_form`` picks one relation per resonant slot to produce, in
relabeled coordinates (non-resonant first), the monomials

    h_s = prod_j x_j^{m_j},  H = prod_s h_s,  G = x_0 ... x_ell * H,

the 1-forms ``psi_s = h_s dx_{ell+s} - x_{ell+s} dh_s`` (one
``forms.wedge_sum`` of ``h_s ^ dx_{ell+s}`` and ``x_{ell+s} ^ dh_s``) and
the lowest block ``omega_nr = sum_j (-1)^j lambda_j x_j dx_0 ^..^ (dx_j
omitted) ^..^ dx_ell``, the diagonal model of ``Lambda_NR`` pulled back
along the projection to ``(x_0, ..., x_ell)``, built as the contraction of
``dx_0 ^ ... ^ dx_ell`` against ``sum_{j <= ell} lambda_j x_j d/dx_j``.
The defining property, verified after clearing denominators, is the exact
polynomial identity

    omega * H  ==  omega_nr ^ psi_1 ^ ... ^ psi_{n-k-ell}

where ``omega`` is the contraction of the volume form against ``X`` in the
relabeled coordinates.  The hypersurface ``G = 0`` is invariant and each
``x_{ell+s}/h_s`` is a meromorphic integrating datum; no meromorphic object
is ever represented directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import IrrationalEigenvalues, ValidationError
from .forms import (DiffForm, PolyVectorField, contract_differentials, diagonal_model_form,
                    interior_product, total_differential, wedge_sum)
from .polynomials import MultiPoly

MultiIndex = tuple[int, ...]
DIVISOR_BUDGET = 10**12  # largest |value| _divisors searches, in <= 10**6 trial divisions
RELATION_BUDGET = 10**5  # most steps one relation search takes


def validate_eigenvector(lambdas: Sequence[int]) -> tuple[int, ...]:
    """Normalize to a sorted tuple of positive integers."""
    if not lambdas:
        raise ValidationError("eigenvalue vector is empty")
    for lam in lambdas:
        if not isinstance(lam, int) or isinstance(lam, bool) or lam < 1:
            raise ValidationError(f"eigenvalues must be positive integers, got {lam!r}")
    return tuple(sorted(lambdas))


def _search_steps(searched: Sequence[int], target: int) -> int:
    """Steps of the depth-first relation search over the ``searched`` values.

    Level by level, ``ways`` maps each partial sum ``<= target`` to the
    number of prefixes reaching it; the nodes of a level are their total.
    The count stops with ``ValidationError`` as soon as it passes
    ``RELATION_BUDGET``, so it costs no more than the budget either.
    """
    steps = 0
    ways = {0: 1}
    for v in searched:
        grown: dict[int, int] = {}
        for t, count in ways.items():
            steps += count * ((target - t) // v + 1)
            if steps > RELATION_BUDGET:
                raise ValidationError(
                    f"the relations for {target} need more than RELATION_BUDGET = "
                    f"{RELATION_BUDGET} search steps"
                )
            for s in range(t, target + 1, v):
                grown[s] = grown.get(s, 0) + count
        ways = grown
    return steps


def _relation_solutions(values: Sequence[int], target: int) -> list[MultiIndex]:
    """All m >= 0 with sum(m_i * values[i]) == target and |m| >= 2.

    Depth-first over the positions of values ``<= target`` in descending
    value order with the bound ``m_i <= remaining // values[i]``; the last,
    smallest value is fixed by the remainder.  ``_search_steps`` bounds the
    search before it starts, and with it the depth: level ``d`` has at least
    ``d + 1`` nodes.  Output sorted lexicographically.
    """
    order = sorted((i for i, v in enumerate(values) if v <= target),
                   key=values.__getitem__, reverse=True)
    if not order:
        return []
    _search_steps([values[i] for i in order[:-1]], target)
    out: list[MultiIndex] = []
    m = [0] * len(values)
    last = len(order) - 1

    def descend(pos: int, remaining: int, size: int) -> None:
        slot = order[pos]
        v = values[slot]
        if remaining == 0 or pos == last:
            if remaining % v == 0 and size + remaining // v >= 2:
                m[slot] = remaining // v
                out.append(tuple(m))
                m[slot] = 0
            return
        for e in range(remaining // v + 1):
            m[slot] = e
            descend(pos + 1, remaining - e * v, size + e)
        m[slot] = 0

    descend(0, target, 0)
    return sorted(out)


def find_resonances(lambdas: Sequence[int], target_index: int) -> list[MultiIndex]:
    """Relations ``lambda_s = <m, Lambda>`` with ``|m| >= 2`` over the full
    index set of the sorted eigenvalue vector.

    For positive eigenvalues no solution can involve slot ``s`` itself, so
    self-terms need no special casing.
    """
    lams = validate_eigenvector(lambdas)
    if not 0 <= target_index < len(lams):
        raise ValidationError(f"target index {target_index} outside [0, {len(lams)})")
    return _relation_solutions(lams, lams[target_index])


@dataclass(frozen=True)
class ResonancePartition:
    """Greedy split of sorted eigenvalues with relation sets over Lambda_NR.

    ``relations`` is keyed by the 1-based resonant slot ``s`` (in ascending
    eigenvalue order); each entry lists multi-indices over the non-resonant
    positions, lexicographically sorted.
    """

    lambdas: tuple[int, ...]
    nr_positions: tuple[int, ...]
    r_positions: tuple[int, ...]
    relations: Mapping[int, tuple[MultiIndex, ...]] = field(hash=False)

    @property
    def nr_values(self) -> tuple[int, ...]:
        return tuple(self.lambdas[i] for i in self.nr_positions)

    @property
    def r_values(self) -> tuple[int, ...]:
        return tuple(self.lambdas[i] for i in self.r_positions)


def partition(lambdas: Sequence[int]) -> ResonancePartition:
    """Ascending greedy sweep building the maximal non-resonant set.

    Duplicate values are allowed (the radial vector ``(1,...,1)`` has no
    resonances at all); the normal-form constructor is stricter.
    An order->=2 relation uses only values below its target, so the one
    search that classifies ``lambda_s`` already finds all of ``R(s)``.
    """
    lams = validate_eigenvector(lambdas)
    nr: list[int] = []
    found: dict[int, list[MultiIndex]] = {}  # resonant position -> R(s)
    for pos, lam in enumerate(lams):
        sols = _relation_solutions([lams[i] for i in nr], lam)
        if sols:
            found[pos] = sols
        else:
            nr.append(pos)
    pad = len(nr)
    relations = {s: tuple(m + (0,) * (pad - len(m)) for m in sols)
                 for s, sols in enumerate(found.values(), start=1)}
    return ResonancePartition(
        lambdas=lams,
        nr_positions=tuple(nr),
        r_positions=tuple(found),
        relations=relations,
    )


@dataclass(frozen=True)
class NormalFormData:
    """Constructive normal-form data in relabeled coordinates.

    ``permutation[new] = old`` maps relabeled slots back to positions in the
    sorted input; slots ``0..nr_count-1`` carry the non-resonant
    eigenvalues, the rest the resonant ones, each block ascending.
    """

    lambdas: tuple[int, ...]
    reordered: tuple[int, ...]
    permutation: tuple[int, ...]
    nr_count: int
    choices: Mapping[int, MultiIndex] = field(hash=False)
    h: tuple[MultiPoly, ...] = field(hash=False)
    H: MultiPoly = field(hash=False)
    G: MultiPoly = field(hash=False)
    psi: tuple[DiffForm, ...] = field(hash=False)
    omega_nr: DiffForm = field(hash=False)


def build_normal_form(
    part: ResonancePartition,
    choices: Mapping[int, Sequence[int]] | None = None,
) -> NormalFormData:
    """Pick one relation per resonant slot and build (h, H, G, psi, omega_nr).

    ``choices`` maps the resonant slot ``s`` to a member of ``R(s)``;
    omitted slots default to the lexicographically smallest relation.
    Eigenvalues must be distinct unless all are equal (the radial case,
    which has no resonant slots and needs no choices).
    """
    lams = part.lambdas
    if len(set(lams)) not in (len(lams), 1):
        raise ValidationError(
            "duplicate eigenvalues are supported only in the radial (all-equal) case"
        )
    dim = len(lams)
    ell = len(part.nr_positions) - 1
    order = list(part.nr_positions) + list(part.r_positions)
    reordered = tuple(lams[i] for i in order)
    chosen: dict[int, MultiIndex] = {}
    for s, rel_set in part.relations.items():
        pick = tuple(choices[s]) if choices and s in choices else rel_set[0]
        if pick not in rel_set:
            raise ValidationError(f"chosen relation {pick} is not in R({s})")
        chosen[s] = pick
    if choices:
        unknown = set(choices) - set(part.relations)
        if unknown:
            raise ValidationError(f"choices given for non-resonant slots {sorted(unknown)}")

    hs: list[MultiPoly] = []
    psis: list[DiffForm] = []
    for s in sorted(chosen):
        m = chosen[s]
        h = MultiPoly.monomial(dim, m + (0,) * (dim - len(m)))
        slot = ell + s
        psis.append(wedge_sum([(1, DiffForm.from_poly(h), DiffForm.basis_covector(dim, slot)),
                               (-1, DiffForm.from_poly(MultiPoly.variable(dim, slot)),
                                total_differential(h))]))
        hs.append(h)

    H = math.prod(hs, start=MultiPoly.constant(dim, 1))
    nr_coords = [MultiPoly.variable(dim, j) for j in range(ell + 1)]
    G = math.prod(nr_coords, start=H)
    # V = sum_{j <= ell} lambda_j x_j d/dx_j has V x_j = lambda_j x_j
    nr_field = PolyVectorField.diagonal(reordered[:ell + 1] + (0,) * (dim - ell - 1))
    omega_nr = contract_differentials(nr_field, nr_coords)

    return NormalFormData(
        lambdas=lams,
        reordered=reordered,
        permutation=tuple(order),
        nr_count=ell + 1,
        choices=chosen,
        h=tuple(hs),
        H=H,
        G=G,
        psi=tuple(psis),
        omega_nr=omega_nr,
    )


def verify_normal_form(data: NormalFormData) -> bool:
    """Exact check of ``omega * H == omega_nr ^ psi_1 ^ ... ^ psi_{n-k-ell}``
    in the relabeled coordinates."""
    omega = diagonal_model_form(data.reordered)
    lhs = omega * data.H
    rhs = data.omega_nr
    for psi in data.psi:
        rhs = rhs.wedge(psi)
    return lhs == rhs


def invariant_hypersurface_check(
    lambdas: Sequence[int], m: Sequence[int], target_index: int
) -> bool:
    """Does ``X`` fix the pencil member ``x_s + x^m`` up to the factor
    ``lambda_s``?

    Applies the derivation ``X = sum_i lambda_i x_i d/dx_i`` to the
    polynomial and compares with ``lambda_s * (x_s + x^m)`` exactly; true
    precisely for resonance relations.
    """
    lams = validate_eigenvector(lambdas)
    dim = len(lams)
    if not 0 <= target_index < dim:
        raise ValidationError(f"target index {target_index} outside [0, {dim})")
    if len(m) != dim or any((not isinstance(e, int)) or e < 0 for e in m):
        raise ValidationError(f"multi-index {m!r} must have {dim} non-negative entries")
    g = MultiPoly.variable(dim, target_index) + MultiPoly.monomial(dim, tuple(m))
    derived = interior_product(PolyVectorField.diagonal(lams), total_differential(g))
    return derived == DiffForm.from_poly(g * lams[target_index])


# -- exact eigenvalue analysis of a general linear part --------------------

@dataclass(frozen=True)
class LinearPartAnalysis:
    """Outcome of exact eigen-analysis over the rationals.

    ``kind`` is ``"decomposes"`` (several eigenvalues, one block each),
    ``"projectively_flat"`` (scalar matrix) or ``"indecomposable"`` (a
    single defective eigenvalue).  ``blocks`` maps each eigenvalue to its
    algebraic and geometric multiplicity.
    """

    kind: str
    eigenvalues: tuple[Fraction, ...]
    blocks: Mapping[Fraction, tuple[int, int]] = field(hash=False)
    diagonalizable: bool = True


def _char_poly(matrix: list[list[Fraction]]) -> list[Fraction]:
    """Monic characteristic polynomial coefficients [1, c1, ..., cn] via the
    Faddeev-LeVerrier recurrence (exact)."""
    n = len(matrix)

    def mat_mul(a, b):
        return [
            [sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]

    def trace(a):
        return sum(a[i][i] for i in range(n))

    coeffs = [Fraction(1)]
    m = [row[:] for row in matrix]
    for step in range(1, n + 1):
        if step > 1:
            shifted = [
                [m[i][j] + (coeffs[-1] if i == j else 0) for j in range(n)]
                for i in range(n)
            ]
            m = mat_mul(matrix, shifted)
        coeffs.append(Fraction(-trace(m), step))
    return coeffs


def _divisors(value: int) -> list[int]:
    value = abs(value)
    if value > DIVISOR_BUDGET:
        raise ValidationError(
            f"rational roots need the divisors of a number over DIVISOR_BUDGET = {DIVISOR_BUDGET}"
        )
    out = []
    d = 1
    while d * d <= value:
        if value % d == 0:
            out.append(d)
            if d != value // d:
                out.append(value // d)
        d += 1
    return sorted(out)


def _rational_roots(coeffs: list[Fraction]) -> dict[Fraction, int]:
    """Rational roots with multiplicities of a monic Fraction polynomial;
    raises when the root set is incomplete."""
    n = len(coeffs) - 1
    work = list(coeffs)
    roots: dict[Fraction, int] = {}

    def value_at(poly: list[Fraction], x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in poly:
            acc = acc * x + c
        return acc

    def deflate(poly: list[Fraction], root: Fraction) -> list[Fraction]:
        out = [poly[0]]
        for c in poly[1:-1]:
            out.append(c + out[-1] * root)
        return out

    scale = 1
    for c in coeffs:
        scale = math.lcm(scale, c.denominator)
    ints = [int(c * scale) for c in coeffs]
    lead = ints[0]
    # strip zero roots first so the constant-coefficient divisor set is usable
    while len(work) > 1 and work[-1] == 0:
        roots[Fraction(0)] = roots.get(Fraction(0), 0) + 1
        work = work[:-1]
        ints = ints[:-1]
    if len(work) > 1:
        candidates = set()
        for p in _divisors(ints[-1]):
            for q in _divisors(lead):
                candidates.add(Fraction(p, q))
                candidates.add(Fraction(-p, q))
        for cand in sorted(candidates):
            while len(work) > 1 and value_at(work, cand) == 0:
                roots[cand] = roots.get(cand, 0) + 1
                work = deflate(work, cand)
    if sum(roots.values()) != n:
        raise IrrationalEigenvalues(
            "characteristic polynomial does not split over the rationals"
        )
    return roots


def _nullity(matrix: list[list[Fraction]]) -> int:
    n = len(matrix)
    rows = [row[:] for row in matrix]
    rank = 0
    col = 0
    while rank < n and col < n:
        pivot = next((r for r in range(rank, n) if rows[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(rank + 1, n):
            if rows[r][col] != 0:
                factor = rows[r][col] / lead
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return n - rank


def analyze_linear_part(matrix: Sequence[Sequence]) -> LinearPartAnalysis:
    """Factor the characteristic polynomial over Q and report block data.

    With several distinct eigenvalues the linear part splits into its
    generalized eigenspaces (``kind="decomposes"``).  A single eigenvalue
    gives ``"projectively_flat"`` when the matrix is scalar and
    ``"indecomposable"`` otherwise.  Irrational or complex eigenvalues
    raise ``IrrationalEigenvalues``.
    """
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise ValidationError("matrix must be square and nonempty")
    rows = [[Fraction(v) for v in row] for row in matrix]
    roots = _rational_roots(_char_poly(rows))
    blocks: dict[Fraction, tuple[int, int]] = {}
    diagonalizable = True
    for lam in sorted(roots):
        shifted = [
            [rows[i][j] - (lam if i == j else 0) for j in range(n)] for i in range(n)
        ]
        geometric = _nullity(shifted)
        blocks[lam] = (roots[lam], geometric)
        if geometric != roots[lam]:
            diagonalizable = False
    eigenvalues = tuple(sorted(roots))
    if len(eigenvalues) > 1:
        kind = "decomposes"
    elif diagonalizable:
        kind = "projectively_flat"
    else:
        kind = "indecomposable"
    return LinearPartAnalysis(
        kind=kind,
        eigenvalues=eigenvalues,
        blocks=blocks,
        diagonalizable=diagonalizable,
    )
