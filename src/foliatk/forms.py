"""Polynomial differential forms and vector fields in exact arithmetic.

A ``p``-form on affine ``ambient_dim``-space is a map from index sets
``{i1 < ... < ip}`` to nonzero coefficient polynomials; the set stands for
``dx{i1} ^ ... ^ dx{ip}``, and the empty set carries the single coefficient
of a 0-form.  Wedge products are normalized to this basis with the sign of
the sorting permutation, so structural equality of the stored maps is
equality of forms.

A form stores each index set ``I`` only as its int mask ``a``, with bit
``i`` set for each ``i`` in ``I`` (the bitmask basis of Dorst, Fontijne &
Mann, *Geometric Algebra for Computer Science*, ch. 19).  The constructor
checks strictly increasing index tuples and keys each by its mask;
``coeffs`` is a read-only view keyed by those tuples, built on access, and
print order is tuple order.  The prefix parity ``P_I``, the XOR over ``i``
in ``I`` of ``(1 << i) - 1``, has as bit ``b`` the parity of the indices of
``I`` above ``b``.  ``dx_A ^ dx_B`` is zero when ``a & b`` is nonzero;
otherwise it is ``dx_{a | b}`` times ``(-1)^popcount(P_A & b)``, the parity
of the inversions of the word ``A B``.  ``d`` and the interior product move
``dx_i`` past the indices of ``I`` below ``i``: the sign is the parity of
``a & ((1 << i) - 1)``.

A wedge or interior product groups its products of coefficients by the
index each one lands on and passes the groups to one
``MultiPoly.sums_of_products`` call, which prices them all before the first
multiply and sums each group in one pass, so no partial sum is ever copied.
A form times a polynomial is one such call, a group per coefficient, and so
is ``wedge_sum``, a sum of int multiples of wedges: it merges the groups of
all its wedges, so it prices them together (``wedge`` is its one-term
case).  The
square of an even form takes each unordered pair of coefficients once,
twice over, since ``dx_I ^ dx_J = dx_J ^ dx_I`` when ``|I|`` and ``|J|``
are even.  ``wedge_vanishes`` builds the same groups as ``wedge`` and sums
the cheapest one first: a nonzero group settles the test, and only a zero
one leads on to the rest, priced with the whole wedge.

The radial zero test.  Let ``eta`` be a ``p``-form, ``p >= 1``, with
``iota_R eta = 0`` for the Euler field ``R = sum_i x_i d/dx_i``, and fix one
variable ``j``.  Then ``eta = 0`` exactly when every coefficient ``eta_I``
with ``j`` not in ``I`` is zero.  For ``|J| = p - 1`` with ``j`` not in
``J``, the ``dx_J`` coefficient of ``iota_R eta`` is ``+-x_j eta_{jJ}`` plus
a combination of coefficients without ``j``; when those vanish,
``x_j eta_{jJ} = 0``, and ``Q[x]`` is a domain.  Three zero tests use it.
``wedge_vanishes`` proves ``iota_R (alpha ^ beta) = 0`` from facts the forms
keep, ``alpha`` and ``beta`` projective, and then sums only the groups that
avoid the variable carrying the most term pairs; a wedge of top degree
needs no multiply at all.  ``is_projective`` is coefficients homogeneous of
one degree and ``iota_R omega = 0``, and since ``iota_R iota_R omega = 0``
it sums only the coefficients of ``iota_R omega`` that avoid one variable.
The class chain of a projective 1-form (``class_chain``) runs in the
quotient of the exterior algebra by one covector ``dx_j``, where every
coefficient avoids ``j``: it never builds a coefficient the test would not
read.

A form computes its exterior derivative, its coefficient degree and its
projectivity once and keeps them, and keeps how far its class chain got;
forms are immutable, so they cannot go stale.  ``max_modulus_at`` takes a
wedge power of the form's value at a point, never of the form.

Degrees are clamped to the ambient dimension: any operation whose result
would exceed the top degree returns the zero form (stored at top degree).

This module also builds the forms every presentation starts from: the
total differential ``df`` of a polynomial, the diagonal model
``omega_Lambda``, the contraction of ``dy_0 ^ ... ^ dy_r`` against
``sum_j w_j y_j d/dy_j``, and its pullback ``F^* omega_Lambda`` along
``F = (f_0, ..., f_r)``.  When a field ``V`` has ``V f_j = w_j f_j`` for
every ``j``, that pullback is ``iota_V (df_0 ^ ... ^ df_r)``, which
``contract_differentials`` builds with ``r`` wedges and one contraction
instead of ``r`` wedges per coefficient.  The rational component (``V`` the
Euler field), the lowest block of the resonance normal form (``V`` the
diagonal field of the non-resonant eigenvalues) and the blow-up of the
radial model (``V = x0 d/dx0``) are built so.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, wraps
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import DegreeMismatch, DimensionMismatch, ValidationError
from .polynomials import (MultiPoly, Product, Scalar, coerce_scalar, join_signed_terms, term_pairs,
                          whole)

IndexTuple = tuple[int, ...]


def _prefix_parity(mask: int) -> int:
    """``P_I``, the XOR over ``i`` in ``I`` of ``(1 << i) - 1``, for the
    index set ``I`` of ``mask``: bit ``b`` is the parity of the indices of
    ``I`` above ``b``.  It is the suffix XOR of ``mask >> 1``, taken in
    doubling windows."""
    parity = mask >> 1
    width, window = parity.bit_length(), 1
    while window < width:
        parity ^= parity >> window
        window <<= 1
    return parity


def _indices(mask: int) -> IndexTuple:
    """The sorted index tuple of a mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _kept(method):
    """A no-argument method of an immutable form whose value is computed on
    the first call and kept in the slot named ``_`` plus the method's name."""
    slot = "_" + method.__name__

    @wraps(method)
    def kept(self):
        try:
            return getattr(self, slot)
        except AttributeError:
            value = method(self)
            object.__setattr__(self, slot, value)
            return value
    return kept


class DiffForm:
    """Homogeneous-degree differential form with MultiPoly coefficients."""

    # _coeffs maps each nonzero coefficient's index mask to it; _chain holds
    # how far the class chain got (see class_chain); the others are _kept
    __slots__ = ("ambient_dim", "degree", "_coeffs", "_exterior_derivative",
                 "_coefficient_degree", "_is_projective", "_chain")

    def __init__(
        self,
        ambient_dim: int,
        degree: int,
        coeffs: Mapping[IndexTuple, MultiPoly] | None = None,
    ):
        if not whole(ambient_dim, 1):
            raise ValueError(f"ambient_dim must be a positive integer, got {ambient_dim!r}")
        if not whole(degree) or degree > ambient_dim:
            raise DegreeMismatch(
                f"form degree {degree!r} outside [0, {ambient_dim}]"
            )
        acc: dict[int, MultiPoly] = {}
        for idx, poly in (coeffs or {}).items():
            idx = tuple(idx)
            if len(idx) != degree:
                raise DegreeMismatch(f"index tuple {idx} has length {len(idx)}, degree is {degree}")
            if not all(whole(i) and i < ambient_dim for i in idx):
                raise DimensionMismatch(f"covector index out of range in {idx}")
            if any(idx[t] >= idx[t + 1] for t in range(len(idx) - 1)):
                raise ValueError(f"index tuple {idx} is not strictly increasing")
            if not isinstance(poly, MultiPoly):
                raise TypeError("coefficients must be MultiPoly")
            if poly.ambient_dim != ambient_dim:
                raise DimensionMismatch("coefficient polynomial lives in a different space")
            mask = sum(1 << i for i in idx)
            acc[mask] = acc[mask] + poly if mask in acc else poly
        self._store(ambient_dim, degree, acc)

    def _store(self, ambient_dim: int, degree: int, coeffs: dict[int, MultiPoly]):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "_coeffs", {m: p for m, p in coeffs.items() if not p.is_zero})
        return self

    @classmethod
    def _of(cls, ambient_dim: int, degree: int, coeffs: dict[int, MultiPoly]) -> "DiffForm":
        """Result of an operation on valid operands: ``coeffs`` has masks of
        ``degree`` in-range bits as keys, so only its zero coefficients are
        dropped.  A degree past the top is clamped, as in ``zero``."""
        return object.__new__(cls)._store(ambient_dim, min(degree, ambient_dim), coeffs)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("DiffForm is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ambient_dim: int, degree: int) -> "DiffForm":
        return cls(ambient_dim, min(degree, ambient_dim))

    @classmethod
    def from_poly(cls, poly: MultiPoly) -> "DiffForm":
        return cls(poly.ambient_dim, 0, {(): poly})

    @classmethod
    def basis_covector(cls, ambient_dim: int, index: int) -> "DiffForm":
        """The constant 1-form ``dx{index}``."""
        if not whole(index) or index >= ambient_dim:
            raise DimensionMismatch(f"covector index {index} outside [0, {ambient_dim})")
        return cls(ambient_dim, 1, {(index,): MultiPoly.constant(ambient_dim, 1)})

    # -- queries -----------------------------------------------------------

    @property
    def coeffs(self) -> Mapping[IndexTuple, MultiPoly]:
        """The nonzero coefficients keyed by index tuple, as a read-only
        view built on each access."""
        return MappingProxyType({_indices(m): p for m, p in self._coeffs.items()})

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def sorted_coeffs(self) -> list[tuple[IndexTuple, MultiPoly]]:
        """The coefficients as ``(index tuple, poly)`` in tuple order."""
        return sorted(((_indices(m), p) for m, p in self._coeffs.items()), key=lambda ip: ip[0])

    def _check_compatible(self, other: "DiffForm") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    # -- linear structure --------------------------------------------------

    def __add__(self, other) -> "DiffForm":
        if not isinstance(other, DiffForm):
            return NotImplemented
        self._check_compatible(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.degree != other.degree:
            raise DegreeMismatch(f"cannot add a {self.degree}-form and a {other.degree}-form")
        merged = dict(self._coeffs)
        for mask, poly in other._coeffs.items():
            merged[mask] = merged[mask] + poly if mask in merged else poly
        return DiffForm._of(self.ambient_dim, self.degree, merged)

    def __neg__(self) -> "DiffForm":
        return DiffForm._of(self.ambient_dim, self.degree, {m: -p for m, p in self._coeffs.items()})

    def __sub__(self, other) -> "DiffForm":
        if not isinstance(other, DiffForm):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "DiffForm":
        """Multiply by an exact scalar or a polynomial (not another form)."""
        if isinstance(other, (int, Fraction)):
            scaled = {m: p * other for m, p in self._coeffs.items()}
        elif isinstance(other, MultiPoly):
            scaled = MultiPoly.sums_of_products(
                self.ambient_dim, {m: ((1, p, other),) for m, p in self._coeffs.items()})
        else:
            return NotImplemented
        return DiffForm._of(self.ambient_dim, self.degree, scaled)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        # zero forms compare equal across degrees: clamping makes the stored
        # degree of a zero bookkeeping, not content
        if not isinstance(other, DiffForm):
            return NotImplemented
        if self.ambient_dim != other.ambient_dim:
            return False
        if self.is_zero and other.is_zero:
            return True
        return self.degree == other.degree and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        degree = -1 if self.is_zero else self.degree
        return hash((self.ambient_dim, degree, frozenset(self._coeffs.items())))

    # -- graded operations -------------------------------------------------

    def _wedge_groups(self, other: "DiffForm") -> dict[int, list[Product]]:
        """The coefficient products of ``self ^ other``, grouped by the mask
        of the index each lands on; empty when the degrees pass the top.
        ``dx_A ^ dx_B`` is zero when ``a & b`` is nonzero and otherwise
        ``(-1)^popcount(P_A & b) dx_{a | b}``.  The square of an even form
        takes each unordered pair of coefficients once, doubled, since
        ``dx_I ^ dx_J = dx_J ^ dx_I``."""
        self._check_compatible(other)
        groups: dict[int, list[Product]] = {}
        if self.degree + other.degree > self.ambient_dim:
            return groups
        left = list(self._coeffs.items())
        square = other is self and self.degree > 0 and self.degree % 2 == 0
        unit = 2 if square else 1
        for n, (a, pa) in enumerate(left):
            parity = _prefix_parity(a)
            for b, pb in (left[n + 1:] if square else other._coeffs.items()):
                if not a & b:
                    sign = -unit if (parity & b).bit_count() & 1 else unit
                    groups.setdefault(a | b, []).append((sign, pa, pb))
        return groups

    def wedge(self, other: "DiffForm") -> "DiffForm":
        return wedge_sum([(1, self, other)])

    def wedge_vanishes(self, other: "DiffForm") -> bool:
        """Whether ``self ^ other`` is zero.

        When ``_contracts_to_zero`` proves ``iota_R (self ^ other) = 0``,
        only the groups whose index avoids the variable carrying the most
        term pairs are summed (the radial zero test of the module
        docstring).  Of two or more groups, the cheapest of those to be
        summed goes first, and a nonzero sum settles it; otherwise the
        whole wedge is priced, as in ``wedge``, and the groups not summed
        yet are multiplied."""
        groups = self._wedge_groups(other)
        dim = self.ambient_dim
        pairs = {idx: term_pairs(triples) for idx, triples in groups.items()}
        todo = list(groups)
        if self._contracts_to_zero(other):
            j = _heaviest_variable(dim, pairs)
            todo = [mask for mask in todo if not mask >> j & 1]
        if len(groups) > 1 and todo:
            probe = min(todo, key=pairs.__getitem__)
            if not MultiPoly.sums_of_products(dim, {probe: groups[probe]})[probe].is_zero:
                return False
            todo.remove(probe)
        sums = MultiPoly.sums_of_products(dim, groups, keys=todo)
        return all(p.is_zero for p in sums.values())

    def _contracts_to_zero(self, other: "DiffForm") -> bool:
        """Whether ``iota_R (self ^ other) = 0`` follows from kept facts:
        ``self`` and ``other`` are projective."""
        return self.is_projective() and other.is_projective()

    @_kept
    def coefficient_degree(self) -> int | None:
        """The degree of which every coefficient is homogeneous; None when
        they have none in common, and for the zero form."""
        degrees = {poly.homogeneous_degree() for poly in self._coeffs.values()}
        return degrees.pop() if len(degrees) == 1 else None

    @_kept
    def is_projective(self) -> bool:
        """Whether the form has positive degree, a ``coefficient_degree`` and
        ``iota_R omega = 0``, R the Euler field: the contract of a
        projective presentation.  ``iota_R iota_R omega = 0`` always, so the
        radial zero test applies to ``iota_R omega``: only its coefficients
        whose index avoids the variable carrying the most term pairs are
        summed."""
        if self.degree == 0 or self.coefficient_degree() is None:
            return False
        dim = self.ambient_dim
        groups = _interior_groups(PolyVectorField.radial(dim), self)
        keys = None  # a 1-form's contraction has one coefficient
        if self.degree > 1:
            j = _heaviest_variable(dim, {mask: term_pairs(t) for mask, t in groups.items()})
            keys = [mask for mask in groups if not mask >> j & 1]
        return all(p.is_zero for p in MultiPoly.sums_of_products(dim, groups, keys).values())

    def class_chain(self, limit: int | None = None) -> int:
        """The class ``r`` of a nonzero 1-form: the first ``k`` at which
        ``omega ^ (d omega)^k`` vanishes, since ``omega ^ (d omega)^0 =
        omega`` is nonzero.

        A projective ``omega`` with coefficient degree ``e`` has
        ``iota_R d omega = (e + 1) omega``, so ``iota_R (omega ^ (d
        omega)^k) = -k (e + 1) omega ^ omega ^ (d omega)^(k-1) = 0``: by the
        radial zero test, ``omega ^ (d omega)^k`` vanishes exactly when its
        coefficients whose index avoids one variable ``j`` do.  Those are
        the coefficients of its image in the quotient of the exterior
        algebra by ``dx_j``, where reduction is an algebra homomorphism:
        ``omega' ^ eta^k`` with ``omega' = omega mod dx_j`` and ``eta = d
        omega mod dx_j``.  So the chain builds only ``eta^k`` and tests
        ``omega' ^ eta^k`` with plain zero tests.  ``j`` is the variable
        whose ``omega_j`` has the most terms, which tracks the terms of ``d
        omega`` that the quotient drops; ``omega_j != 0``, so ``omega'`` is
        not projective.  The quotient has ``n - 1`` covectors for ``n`` the
        ambient dimension, and degree decides the test once ``2k + 1 > n -
        1``.  A form that is not projective runs the same loop on ``omega``
        and ``d omega`` themselves, where degree decides once ``2k + 1 >
        n``.

        The form keeps how far the chain got: the next ``k`` to test, the
        last power built and whether the class is known.  With ``limit``
        the chain stops once it has shown the class is above ``limit``, and
        returns a number above ``limit``; a later call resumes where it
        stopped, so no zero test runs twice."""
        if self.degree != 1:
            raise DegreeMismatch("class is defined for 1-forms")
        if self.is_zero:
            raise ValidationError("the zero form has no class")
        quotient, eta, top, r, power, settled = (getattr(self, "_chain", None)
                                                 or self._chain_start())
        omega = self if quotient is None else quotient
        while not settled and (limit is None or r <= limit):
            if 2 * r + 1 > top:  # degree decides
                settled = True
                break
            power = eta if power is None else power.wedge(eta)
            settled = omega.wedge_vanishes(power)
            if not settled:
                r += 1
        object.__setattr__(self, "_chain", (quotient, eta, top, r, power, settled))
        return r

    def _chain_start(self) -> tuple:
        """The state of a class chain before its first zero test:
        ``omega'``, None when the form is not projective and wedges itself,
        the 2-form to raise to powers, the top degree of a nonzero test,
        ``k = 1``, no power built and the class not known."""
        dim, domega = self.ambient_dim, self.exterior_derivative()
        if not self.is_projective():
            return None, domega, dim, 1, None, False
        bit = max(self._coeffs, key=lambda mask: len(self._coeffs[mask].terms))
        quotient = DiffForm._of(dim, 1, {m: p for m, p in self._coeffs.items() if m != bit})
        # iota_R omega' = -x_j omega_j is nonzero
        object.__setattr__(quotient, "_is_projective", False)
        eta = DiffForm._of(dim, 2, {m: p for m, p in domega._coeffs.items() if not m & bit})
        return quotient, eta, dim - 1, 1, None, False

    @_kept
    def exterior_derivative(self) -> "DiffForm":
        """``d`` of the form."""
        out: dict[int, MultiPoly] = {}
        for mask, poly in self._coeffs.items():
            for i in poly.involved_variables():
                bit = 1 << i
                if mask & bit:
                    continue
                # dx_i ^ dx_I, with P_{i} = bit - 1
                dpoly = poly.partial_derivative(i)
                term = -dpoly if (mask & (bit - 1)).bit_count() & 1 else dpoly
                key = mask | bit
                out[key] = out[key] + term if key in out else term
        return DiffForm._of(self.ambient_dim, self.degree + 1, out)

    # -- evaluation and printing ------------------------------------------

    def evaluate(self, point: Sequence) -> dict[IndexTuple, Fraction | complex]:
        """Coefficient values at a point, keyed by index tuple (sorted order)."""
        return {idx: poly.evaluate(point) for idx, poly in self.sorted_coeffs()}

    def max_modulus_at(self, point: Sequence, power: int = 1) -> Fraction | float:
        """Largest coefficient magnitude of ``omega^power`` at the point, the
        ``power``-th wedge power; 0 for the zero form.

        The power is taken of the constant form ``omega(p)``: evaluation at
        a point is a ring homomorphism, so ``omega(p)^k = (omega^k)(p)``,
        exactly at a rational point.  At a float or complex point the same
        products run in floats, and every magnitude must be a finite float;
        one that overflows or is NaN (which ``max`` would skip) raises
        ``ValidationError``.
        """
        try:
            value = self.evaluate(point)
            if power > 1:
                value = _constant_power({sum(1 << i for i in idx): v for idx, v in value.items()},
                                        power)
            values = [abs(v) for v in value.values()]
        except OverflowError:
            values = [math.inf]
        if not all(isinstance(v, Fraction) or math.isfinite(v) for v in values):
            raise ValidationError("evaluation at the point leaves the float range")
        return max(values, default=Fraction(0))

    def to_str(self, var_names: Sequence[str] | None = None) -> str:
        """Canonical text form using ``^^`` for the wedge, e.g.
        ``x0*dx1 - x1*dx0`` or ``(x0^2 - x1)*dx0^^dx2``."""
        if self.is_zero:
            return "0"
        if var_names is None:
            var_names = [f"x{i}" for i in range(self.ambient_dim)]
        pieces = []
        for idx, poly in self.sorted_coeffs():
            basis = "^^".join(f"d{var_names[i]}" for i in idx)
            text = poly.to_str(var_names)
            if not basis:
                pieces.append(text)
            elif text == "1":
                pieces.append(basis)
            elif text == "-1":
                pieces.append(f"-{basis}")
            elif len(poly.terms) == 1:
                pieces.append(f"{text}*{basis}")
            else:
                pieces.append(f"({text})*{basis}")
        return join_signed_terms(pieces)

    def __repr__(self) -> str:
        return f"DiffForm({self.ambient_dim}, deg={self.degree}, {self.to_str()!r})"


class PolyVectorField:
    """Polynomial vector field ``sum_i X_i * d/dx_i``."""

    __slots__ = ("ambient_dim", "components")

    def __init__(self, components: Sequence[MultiPoly]):
        if not components:
            raise ValueError("vector field needs at least one component")
        dim = components[0].ambient_dim
        if len(components) != dim:
            raise DimensionMismatch(
                f"{len(components)} components for ambient dimension {dim}"
            )
        for comp in components:
            if not isinstance(comp, MultiPoly):
                raise TypeError("components must be MultiPoly")
            if comp.ambient_dim != dim:
                raise DimensionMismatch("components live in different spaces")
        object.__setattr__(self, "ambient_dim", dim)
        object.__setattr__(self, "components", tuple(components))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("PolyVectorField is immutable")

    @classmethod
    @cache
    def radial(cls, ambient_dim: int) -> "PolyVectorField":
        """The Euler field ``sum_i x_i d/dx_i``, built once per dimension
        (at most ``MAX_VARIABLES`` of them: larger ones raise)."""
        return cls([MultiPoly.variable(ambient_dim, i) for i in range(ambient_dim)])

    @classmethod
    def diagonal(cls, weights: Sequence[Scalar]) -> "PolyVectorField":
        """The linear field ``sum_i w_i x_i d/dx_i``."""
        dim = len(weights)
        return cls([MultiPoly.variable(dim, i) * coerce_scalar(w) for i, w in enumerate(weights)])

    def jacobian_trace(self) -> MultiPoly:
        acc = MultiPoly.zero(self.ambient_dim)
        for i, comp in enumerate(self.components):
            acc = acc + comp.partial_derivative(i)
        return acc

    def __repr__(self) -> str:
        body = "; ".join(c.to_str() for c in self.components)
        return f"PolyVectorField({body})"


def _interior_groups(field: PolyVectorField, form: DiffForm) -> dict[int, list[Product]]:
    """The coefficient products of ``iota_X omega``, grouped by the mask of
    the index each lands on."""
    groups: dict[int, list[Product]] = {}
    for mask, poly in form._coeffs.items():
        for i in range(mask.bit_length()):
            if mask >> i & 1:  # dx_i moves past the indices below it
                sign = -1 if (mask & ((1 << i) - 1)).bit_count() & 1 else 1
                groups.setdefault(mask ^ 1 << i, []).append((sign, field.components[i], poly))
    return groups


def _heaviest_variable(dim: int, pairs: Mapping[int, int]) -> int:
    """The variable whose index carries the most of the term pairs counted
    per index mask in ``pairs``."""
    load = [0] * dim
    for mask, count in pairs.items():
        for i in _indices(mask):
            load[i] += count
    return load.index(max(load))


def _constant_power(value: dict[int, Fraction | complex],
                    power: int) -> dict[int, Fraction | complex]:
    """The ``power``-th wedge power of a constant form given as values keyed
    by mask.  ``Fraction`` values are multiplied as ints over their common
    denominator ``q``, and the power's over ``q^power``."""
    exact = all(isinstance(v, Fraction) for v in value.values())
    if exact:
        q = math.lcm(*(v.denominator for v in value.values()))
        value = {mask: v.numerator * (q // v.denominator) for mask, v in value.items()}
    powered = value
    for _ in range(power - 1):
        out: dict[int, int | complex] = {}
        for a, va in powered.items():
            parity = _prefix_parity(a)
            for b, vb in value.items():
                if not a & b:
                    term = -va * vb if (parity & b).bit_count() & 1 else va * vb
                    out[a | b] = out.get(a | b, 0) + term
        powered = out
    if exact:
        return {mask: Fraction(v, q ** power) for mask, v in powered.items()}
    return powered


def interior_product(field: PolyVectorField, form: DiffForm) -> DiffForm:
    """Contraction ``iota_X omega``; an antiderivation of degree -1."""
    if field.ambient_dim != form.ambient_dim:
        raise DimensionMismatch("vector field and form live in different spaces")
    if form.degree == 0:
        raise DegreeMismatch("cannot contract a 0-form")
    return DiffForm._of(form.ambient_dim, form.degree - 1,
                        MultiPoly.sums_of_products(form.ambient_dim,
                                                   _interior_groups(field, form)))


def total_differential(poly: MultiPoly) -> DiffForm:
    """The 1-form ``df = sum_j (df/dx_j) dx_j``, over the variables ``f``
    involves: the other partials are zero."""
    return DiffForm._of(poly.ambient_dim, 1, {1 << j: poly.partial_derivative(j)
                                               for j in poly.involved_variables()})


def wedge_sum(terms: Sequence[tuple[int, DiffForm, DiffForm]]) -> DiffForm:
    """``sum(c * alpha ^ beta for c, alpha, beta in terms)`` in one
    ``MultiPoly.sums_of_products`` call: the groups of every term's wedge are
    merged by index, each sign times the term's int ``c``, and priced
    together.  Every ``alpha ^ beta`` has one degree; ``wedge`` is the
    one-term case."""
    _, first, second = terms[0]
    dim, degree = first.ambient_dim, first.degree + second.degree
    groups: dict[int, list[Product]] = {}
    for c, alpha, beta in terms:
        first._check_compatible(alpha)
        if alpha.degree + beta.degree != degree:
            raise DegreeMismatch(f"cannot add a {degree}-form and a "
                                 f"{alpha.degree + beta.degree}-form")
        for mask, triples in alpha._wedge_groups(beta).items():
            if c != 1:
                triples = [(c * sign, a, b) for sign, a, b in triples]
            if mask in groups:
                groups[mask] += triples
            else:
                groups[mask] = triples
    return DiffForm._of(dim, degree, MultiPoly.sums_of_products(dim, groups))


def first_integral_check(p: MultiPoly, q: MultiPoly, omega: DiffForm,
                         a: int = 1, b: int = 1) -> bool:
    """True iff ``p^a/q^b`` is constant on leaves.  In a domain this is
    ``(a q dp - b p dq) ^ omega == 0``, since ``d(p^a/q^b)`` is that numerator
    times ``p^(a-1) q^(-b-1)``.  For homogeneous ``p`` and ``q``, Euler's
    identity gives ``iota_R (a q dp - b p dq) = (a deg p - b deg q) p q``, so
    the numerator keeps whether it is projective without a contraction."""
    numerator = wedge_sum([(a, DiffForm.from_poly(q), total_differential(p)),
                           (-b, DiffForm.from_poly(p), total_differential(q))])
    deg_p, deg_q = p.homogeneous_degree(), q.homogeneous_degree()
    if None not in (deg_p, deg_q):
        projective = a * deg_p == b * deg_q and not numerator.is_zero
        object.__setattr__(numerator, "_is_projective", projective)
    return numerator.wedge_vanishes(omega)


def contract_differentials(field: PolyVectorField, polys: Sequence[MultiPoly]) -> DiffForm:
    """``iota_V (df_0 ^ ... ^ df_r)``: ``r`` wedges and one contraction.

    When ``V f_j = w_j f_j`` for every ``j`` this is ``pullback(polys,
    diagonal_model_form(w))``: both are ``sum_j (-1)^j w_j f_j df_0 ^ ...
    ^ (df_j omitted) ^ ... ^ df_r``.  Homogeneous ``f_j`` of degree ``d_j``
    have ``R f_j = d_j f_j`` for the Euler field ``R`` (Euler's formula)."""
    top = total_differential(polys[0])
    for f in polys[1:]:
        top = top.wedge(total_differential(f))
    return interior_product(field, top)


def diagonal_model_form(weights: Sequence[int]) -> DiffForm:
    """Contraction of the volume form against ``sum_i w_i x_i d/dx_i``."""
    dim = len(weights)
    top = DiffForm(dim, dim, {tuple(range(dim)): MultiPoly.constant(dim, 1)})
    return interior_product(PolyVectorField.diagonal(weights), top)


def pullback(images: Sequence[MultiPoly], form: DiffForm) -> DiffForm:
    """Pull ``form`` back along the polynomial map ``x_j -> images[j]``.

    ``images`` has one entry per target variable; all entries live in the
    source space, where the result lives too.  Coefficients are substituted
    and each ``dx_j`` is replaced by the total differential of ``images[j]``.
    """
    if len(images) != form.ambient_dim:
        raise DimensionMismatch(
            f"map needs {form.ambient_dim} component polynomials, got {len(images)}"
        )
    source_dim = images[0].ambient_dim
    for g in images:
        if g.ambient_dim != source_dim:
            raise DimensionMismatch("map components live in different spaces")
    differentials = [total_differential(g) for g in images]
    result = DiffForm._of(source_dim, form.degree, {})
    for mask, poly in form._coeffs.items():
        term = DiffForm._of(source_dim, 0, {0: poly.substitute(images)})
        for i in range(mask.bit_length()):
            if mask >> i & 1:
                term = term.wedge(differentials[i])
        result = result + term if not term.is_zero else result
    return result
