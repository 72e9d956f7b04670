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

from . import linalg
from .errors import IrrationalEigenvalues, ValidationError
from .forms import (DiffForm, PolyVectorField, contract_differentials, diagonal_model_form,
                    interior_product, total_differential, wedge_sum)
from .polynomials import MultiPoly, whole

MultiIndex = tuple[int, ...]
RELATION_BUDGET = 10**5  # most steps one relation search takes


def validate_eigenvector(lambdas: Sequence[int]) -> tuple[int, ...]:
    """Normalize to a sorted tuple of positive integers."""
    if not lambdas:
        raise ValidationError("eigenvalue vector is empty")
    for lam in lambdas:
        if not whole(lam, 1):
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
    if not whole(target_index) or target_index >= len(lams):
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
    if not whole(target_index) or target_index >= dim:
        raise ValidationError(f"target index {target_index} outside [0, {dim})")
    if len(m) != dim or not all(whole(e) for e in m):
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


def analyze_linear_part(matrix: Sequence[Sequence]) -> LinearPartAnalysis:
    """Factor the characteristic polynomial over Q and report block data.

    With several distinct eigenvalues the linear part splits into its
    generalized eigenspaces (``kind="decomposes"``).  A single eigenvalue
    gives ``"projectively_flat"`` when the matrix is scalar and
    ``"indecomposable"`` otherwise.  Irrational or complex eigenvalues
    raise ``IrrationalEigenvalues``, naming the factor of the characteristic
    polynomial that has no rational root.  The work is done on ``M = D*A``
    in ints by ``linalg``: an eigenvalue ``mu`` of ``M`` is ``mu/D`` here.
    Entries must be exact ints or ``Fraction``s.
    """
    m, den = linalg.integer_matrix(matrix)
    roots, rest = linalg.integer_roots(linalg.char_poly(m))
    if len(rest) > 1:
        degree = len(rest) - 1
        factor = MultiPoly(1, {(degree - i,): Fraction(c, den**i) for i, c in enumerate(rest)})
        try:
            text = factor.to_str(["t"])
        except ValueError:  # a coefficient past the interpreter's int-to-str limit
            text = f"a factor of degree {degree}"
        raise IrrationalEigenvalues("characteristic polynomial does not split over the "
                                    f"rationals: {text} has no rational root")
    n = len(m)
    blocks: dict[Fraction, tuple[int, int]] = {}
    for mu in sorted(roots):
        algebraic = roots[mu]
        # an eigenvalue of algebraic multiplicity 1 has a one-dimensional eigenspace
        geometric = 1 if algebraic == 1 else n - linalg.rank(
            [[v - mu if i == j else v for j, v in enumerate(row)] for i, row in enumerate(m)])
        blocks[Fraction(mu, den)] = (algebraic, geometric)
    diagonalizable = all(alg == geo for alg, geo in blocks.values())
    eigenvalues = tuple(blocks)
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
