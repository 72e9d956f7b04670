"""Sparse multivariate polynomials over exact rationals.

A polynomial in the variables ``x0 .. x{n-1}`` is stored as int numerators
over one positive int denominator.  Each exponent tuple is packed into one
int with a 64-bit field per variable, ``x0`` in the highest field::

    3*x0^2 + 3/2*x1   ->   numerators {2 << 64: 6, 1: 3}, denominator 2

so a monomial product is one int addition, a coefficient product an int
multiply-add, and descending int order of the packed keys is descending
lexicographic order of the exponent tuples.  Every exponent is at most
``MAX_EXPONENT = 2^63 - 1``: the top bit of each field stays clear, so the
sum of two exponents never carries into the next field.  A constructor,
product or power whose exponents would pass the bound raises
``ValidationError`` before the work starts.

Every product is one call of ``sums_of_products``, which sums
``sign * a * b`` over each group of triples into one map of int numerators
over one common denominator.  Before the first multiply it checks all
factors and prices the term pairs of all groups against
``TERM_PAIR_BUDGET``.  ``a * b`` is its one-triple case; a wedge, interior
product or form times a polynomial has a group per form coefficient.

The representation is canonical: zero numerators are dropped, the gcd of
the denominator and all numerators is 1 (the zero polynomial has
denominator 1), and each result is normalised once.  Two polynomials are
equal exactly when their dimensions, numerator maps and denominators are.
``terms`` is a read-only view of the same polynomial as a map from
exponent tuples to nonzero ``Fraction`` coefficients.  Every dimension,
degree, count, index, exponent and twist is an int proper (``whole``), and
every coefficient or weight an int or ``Fraction`` (``coerce_scalar``):
bools and floats are refused, so exactness cannot be lost silently.

Printing and complex evaluation walk terms in descending lexicographic
order of the exponent tuple, so text output is reproducible and
floating-point evaluation is deterministic.
"""

from __future__ import annotations

import struct
from collections.abc import Hashable, Iterable, Mapping
from fractions import Fraction
from functools import cache, reduce
from math import gcd, isqrt, lcm, log2
from operator import or_
from typing import Iterator, NamedTuple, Sequence, Union

from .errors import DimensionMismatch, ValidationError

Scalar = Union[int, Fraction]
Exponents = tuple[int, ...]
Product = tuple[int, "MultiPoly", "MultiPoly"]  # sign, left and right factor

FIELD_BITS = 64
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
_BOUND = "MAX_EXPONENT = 2^63 - 1"
MAX_VARIABLES = 256  # most variables of a polynomial
COEFFICIENT_BUDGET = 10**6  # most coefficient bits a power is estimated to build
# most term pairs one sums_of_products call may take, counted before its first
# multiply; a power also estimates its last squaring before the first
TERM_PAIR_BUDGET = 10**6
# most term pairs times coefficient bits a power's last squaring is estimated to take
SQUARING_BUDGET = 2 * 10**8


def binomial_exceeds(n: int, r: int, cap: int) -> bool:
    """Whether C(n, r) > cap.  C(n, j) grows with j up to min(r, n - r), so
    the count stops within one factor of ``cap``."""
    count = 1
    for j in range(1, min(r, n - r) + 1):
        count = count * (n - j + 1) // j
        if count > cap:
            return True
    return False


def coerce_scalar(value: Scalar) -> Fraction:
    """Convert an exact scalar to ``Fraction``; floats and bools are refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"exact (int or Fraction) coefficient required, got {type(value).__name__}")


def whole(value, low: int = 0) -> bool:
    """Whether ``value`` is an int proper, not a bool, and at least ``low``."""
    return type(value) is int and value >= low


class _Layout(NamedTuple):
    """Packing of ``n`` exponents: one big-endian unsigned 64-bit field each."""

    fields: struct.Struct
    width: int  # bytes of a packed key
    guard: int  # the top bit of every field

    def pack(self, exps: Sequence[int]) -> int:
        return int.from_bytes(self.fields.pack(*exps), "big")

    def unpack(self, key: int) -> Exponents:
        return self.fields.unpack(key.to_bytes(self.width, "big"))


@cache
def _layout(n: int) -> _Layout:
    width = FIELD_BITS // 8
    guard = int.from_bytes((b"\x80" + bytes(width - 1)) * n, "big")
    return _Layout(struct.Struct(f">{n}Q"), width * n, guard)


def _checked_layout(ambient_dim: int) -> _Layout:
    """The layout of a new polynomial's ``ambient_dim`` variables: a positive
    int, at most ``MAX_VARIABLES``."""
    if not whole(ambient_dim, 1):
        raise ValueError(f"ambient_dim must be a positive integer, got {ambient_dim!r}")
    if ambient_dim > MAX_VARIABLES:
        raise ValidationError(
            f"{ambient_dim} variables are more than MAX_VARIABLES = {MAX_VARIABLES}"
        )
    return _layout(ambient_dim)


def _checked_key(layout: _Layout, ambient_dim: int, exps: Sequence[int]) -> int:
    """The packed key of an exponent tuple from outside: ``ambient_dim``
    non-negative int exponents, each at most ``MAX_EXPONENT``."""
    exps = tuple(exps)
    if len(exps) != ambient_dim:
        raise DimensionMismatch(
            f"exponent tuple {exps} has length {len(exps)}, expected {ambient_dim}"
        )
    if not all(whole(e) for e in exps):
        raise ValueError(f"exponents must be non-negative integers, got {exps}")
    if any(e > MAX_EXPONENT for e in exps):
        raise ValidationError(f"an exponent exceeds {_BOUND}")
    return layout.pack(exps)


def _rescale(acc: dict[int, int], den: int, nden: int) -> tuple[int, int]:
    """Bring ``acc / den`` over the lcm of ``den`` and ``nden`` in place;
    return that lcm and the factor that brings ``nden`` to it."""
    if nden == den:
        return den, 1
    common = lcm(den, nden)
    if common != den:
        up = common // den
        for key in acc:
            acc[key] *= up
    return common, common // nden


def _accumulate(acc: dict[int, int], den: int, nums: Mapping[int, int], nden: int,
                scale: int = 1) -> int:
    """Add ``scale * nums / nden`` into ``acc / den`` in place, over the lcm
    of the two denominators, and return that lcm."""
    den, up = _rescale(acc, den, nden)
    scale *= up
    for key, value in nums.items():
        if key in acc:
            acc[key] += scale * value
        else:
            acc[key] = scale * value
    return den


class MultiPoly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("ambient_dim", "_nums", "_den")

    def __init__(self, ambient_dim: int, terms: Mapping[Exponents, Scalar] | None = None):
        layout = _checked_layout(ambient_dim)
        acc: dict[int, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            key = _checked_key(layout, ambient_dim, exps)
            c = coerce_scalar(coeff)
            acc[key] = acc[key] + c if key in acc else c
        # over the lcm of reduced denominators the numerators share no factor with it
        den = lcm(*(c.denominator for c in acc.values() if c))
        self._fill(ambient_dim, {k: c.numerator * (den // c.denominator)
                                 for k, c in acc.items() if c}, den)

    def _fill(self, ambient_dim: int, nums: dict[int, int], den: int) -> "MultiPoly":
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "_nums", nums)
        object.__setattr__(self, "_den", den)
        return self

    @classmethod
    def _of(cls, ambient_dim: int, nums: dict[int, int], den: int = 1) -> "MultiPoly":
        """Result of an operation on valid operands: ``nums`` has in-bound
        packed keys and int values over ``den > 0``, so only zero entries
        are dropped and the common factor divided out."""
        if 0 in nums.values():
            nums = {k: v for k, v in nums.items() if v}
        if den != 1:
            g = gcd(den, *nums.values())  # den itself when nums is empty
            if g != 1:
                nums = {k: v // g for k, v in nums.items()}
                den //= g
        return object.__new__(cls)._fill(ambient_dim, nums, den)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ambient_dim: int) -> "MultiPoly":
        return cls(ambient_dim)

    @classmethod
    def constant(cls, ambient_dim: int, value: Scalar) -> "MultiPoly":
        _checked_layout(ambient_dim)
        c = coerce_scalar(value)
        return cls._of(ambient_dim, {0: c.numerator}, c.denominator)

    @classmethod
    def variable(cls, ambient_dim: int, index: int) -> "MultiPoly":
        """The monomial ``x{index}``."""
        if not whole(index) or index >= ambient_dim:
            raise DimensionMismatch(f"variable index {index} outside [0, {ambient_dim})")
        _checked_layout(ambient_dim)
        return cls._of(ambient_dim, {1 << FIELD_BITS * (ambient_dim - 1 - index): 1})

    @classmethod
    def monomial(cls, ambient_dim: int, exps: Sequence[int], coeff: Scalar = 1) -> "MultiPoly":
        key = _checked_key(_checked_layout(ambient_dim), ambient_dim, exps)
        c = coerce_scalar(coeff)
        return cls._of(ambient_dim, {key: c.numerator}, c.denominator)

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._nums

    @property
    def terms(self) -> "TermsView":
        """Read-only map from exponent tuples to nonzero ``Fraction``s."""
        return TermsView(self)

    def _fields_or(self) -> int:
        """OR of the packed keys: each field is at least that variable's
        largest exponent and below twice it."""
        return reduce(or_, self._nums, 0)

    def _unpacked(self) -> Iterator[Exponents]:
        unpack = _layout(self.ambient_dim).unpack
        return (unpack(key) for key in self._nums)

    def involved_variables(self) -> frozenset[int]:
        """Indices of variables appearing with positive exponent."""
        span = _layout(self.ambient_dim).unpack(self._fields_or())
        return frozenset(j for j, e in enumerate(span) if e)

    def homogeneous_degree(self) -> int | None:
        """The degree of every term; None for zero and inhomogeneous
        polynomials."""
        degrees = set(map(sum, self._unpacked()))
        return degrees.pop() if len(degrees) == 1 else None

    def sorted_terms(self) -> Iterator[tuple[Exponents, Fraction]]:
        """Terms in descending lexicographic exponent order."""
        unpack = _layout(self.ambient_dim).unpack
        for key in sorted(self._nums, reverse=True):
            yield unpack(key), Fraction(self._nums[key], self._den)

    # -- ring operations ---------------------------------------------------

    def _check_same_space(self, other: "MultiPoly") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def _top_exponents(self) -> list[int]:
        """Largest exponent of each variable (zeros for the zero polynomial)."""
        return [max(column) for column in zip(*self._unpacked(), [0] * self.ambient_dim)]

    def _check_product(self, other: "MultiPoly") -> None:
        """Refuse a product with an exponent past ``MAX_EXPONENT``.  Field
        ORs stay below 2^63, so their sum carries nowhere; only when it sets
        a top bit are the exact per-variable maxima compared."""
        layout = _layout(self.ambient_dim)
        if (self._fields_or() + other._fields_or()) & layout.guard:
            tops = zip(self._top_exponents(), other._top_exponents())
            if any(a + b > MAX_EXPONENT for a, b in tops):
                raise ValidationError(f"a product has an exponent above {_BOUND}")

    def __add__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.ambient_dim, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same_space(other)
        merged = dict(self._nums)
        den = _accumulate(merged, self._den, other._nums, other._den)
        return MultiPoly._of(self.ambient_dim, merged, den)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return object.__new__(MultiPoly)._fill(
            self.ambient_dim, {k: -v for k, v in self._nums.items()}, self._den
        )

    def __sub__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.ambient_dim, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            c = coerce_scalar(other)
            scaled = {k: v * c.numerator for k, v in self._nums.items()}
            return MultiPoly._of(self.ambient_dim, scaled, self._den * c.denominator)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return MultiPoly.sums_of_products(self.ambient_dim, {0: ((1, self, other),)})[0]

    __rmul__ = __mul__

    @classmethod
    def sums_of_products(cls, ambient_dim: int, groups: Mapping[Hashable, Sequence[Product]],
                         keys: Iterable[Hashable] | None = None) -> dict[Hashable, "MultiPoly"]:
        """``{key: sum(sign * a * b for sign, a, b in triples)}`` for every
        group, or for the groups of ``keys`` only.  Before the first multiply,
        every factor's dimension, every product's exponents and the term pairs
        of all groups are checked, summed or not."""
        pairs = 0
        for triples in groups.values():
            for _, a, b in triples:
                for p in (a, b):
                    if p.ambient_dim != ambient_dim:
                        raise DimensionMismatch(
                            f"ambient dimensions differ: {ambient_dim} vs {p.ambient_dim}")
                a._check_product(b)
            pairs += term_pairs(triples)
        if pairs > TERM_PAIR_BUDGET:
            raise ValidationError(f"multiplying would take {pairs} term pairs, more than "
                                  f"TERM_PAIR_BUDGET = {TERM_PAIR_BUDGET}")
        return {key: _sum_triples(ambient_dim, groups[key])
                for key in (groups if keys is None else keys)}

    def __pow__(self, exponent: int) -> "MultiPoly":
        if not whole(exponent):
            raise ValueError(f"exponent must be a non-negative integer, got {exponent!r}")
        if exponent == 1:
            return self
        if max(self._top_exponents()) * exponent > MAX_EXPONENT:
            raise ValidationError(f"the power has an exponent above {_BOUND}")
        # log2 of the sum of |coefficients| bounds the bits each factor adds
        total = sum(map(abs, self._nums.values()))
        size = total.bit_length() + self._den.bit_length() - 2
        if exponent * size > COEFFICIENT_BUDGET:
            raise ValidationError(f"the power's coefficients would pass "
                                  f"COEFFICIENT_BUDGET = {COEFFICIENT_BUDGET} bits")
        # the last squaring multiplies p^(N//2) by itself; with t terms that
        # has at most C(N//2 + t - 1, t - 1) terms, and at most as many as
        # there are monomials of its degrees in the v variables p involves.
        # Each multiply is priced again as it starts: p^a * p^b with a != b,
        # such as p * p^2, can pass the budget where this estimate does not
        half, t = exponent // 2, len(self._nums)

        def more_terms_than(cap: int) -> bool:
            if not binomial_exceeds(half + t - 1, t - 1, cap):
                return False
            degrees = set(map(sum, self._unpacked()))
            v, top = len(self.involved_variables()), half * max(degrees)
            # monomials of degree top, or of degree at most top, in v variables
            n, r = (top + v - 1, v - 1) if len(degrees) == 1 else (top + v, v)
            return binomial_exceeds(n, r, cap)

        if more_terms_than(isqrt(TERM_PAIR_BUDGET)):
            raise ValidationError(f"squaring half of the power would take more than "
                                  f"TERM_PAIR_BUDGET = {TERM_PAIR_BUDGET} term pairs")
        # each pair of that squaring multiplies coefficients of about
        # 1 + (N//2) log2(sum of |numerators| times the denominator) bits
        bits = 1 + half * log2(max(total, 1) * self._den)
        if more_terms_than(isqrt(int(SQUARING_BUDGET / bits))):
            raise ValidationError(f"squaring half of the power would take more term pairs "
                                  f"times coefficient bits than SQUARING_BUDGET = {SQUARING_BUDGET}")
        result = MultiPoly._of(self.ambient_dim, {0: 1})
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim and self._den == other._den
                and self._nums == other._nums)

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self._den, frozenset(self._nums.items())))

    # -- calculus ----------------------------------------------------------

    def partial_derivative(self, index: int) -> "MultiPoly":
        """Exact partial derivative with respect to ``x{index}``."""
        if not whole(index) or index >= self.ambient_dim:
            raise DimensionMismatch(f"variable index {index} outside [0, {self.ambient_dim})")
        shift = FIELD_BITS * (self.ambient_dim - 1 - index)
        mask = (1 << FIELD_BITS) - 1
        unit = 1 << shift
        out: dict[int, int] = {}
        for key, c in self._nums.items():
            e = (key >> shift) & mask
            if e:
                out[key - unit] = c * e
        return MultiPoly._of(self.ambient_dim, out, self._den)

    def evaluate(self, point: Sequence) -> Fraction | complex:
        """Evaluate at a point.

        Returns a ``Fraction`` when every coordinate is an int or
        ``Fraction``; otherwise coordinates are coerced to complex and a
        complex value is returned, its terms summed in descending
        lexicographic order.
        """
        if len(point) != self.ambient_dim:
            raise DimensionMismatch(
                f"point has {len(point)} coordinates, expected {self.ambient_dim}"
            )
        unpack = _layout(self.ambient_dim).unpack
        if all(isinstance(v, (int, Fraction)) for v in point):
            # with x_i = p_i / q_i, sum the ints num * prod p_i^e_i q_i^(top_i - e_i)
            # over den * prod q_i^top_i, where top_i is x_i's largest exponent
            coords = [(v.numerator, v.denominator) for v in point]
            tops = self._top_exponents()
            total = 0
            for key, num in self._nums.items():
                for (p, q), e, top in zip(coords, unpack(key), tops):
                    if e:
                        num *= p ** e
                    if q != 1 and e != top:
                        num *= q ** (top - e)
                total += num
            scale = self._den
            for (_, q), top in zip(coords, tops):
                if q != 1:
                    scale *= q ** top
            return Fraction(total, scale)
        coords = [complex(v) for v in point]
        total = complex(0)
        for key in sorted(self._nums, reverse=True):
            # int true division rounds correctly, as float(Fraction) does
            term = complex(self._nums[key] / self._den)
            for v, e in zip(coords, unpack(key)):
                if e:
                    term *= v ** e
            total += term
        return total

    def substitute(self, images: Sequence["MultiPoly"]) -> "MultiPoly":
        """Ring homomorphism sending ``x{j}`` to ``images[j]``.

        All images must share one ambient dimension; the result lives there.
        """
        if len(images) != self.ambient_dim:
            raise DimensionMismatch(
                f"need {self.ambient_dim} substitution images, got {len(images)}"
            )
        if not all(isinstance(g, MultiPoly) for g in images):
            raise TypeError("substitution images must be MultiPoly")
        target_dim = images[0].ambient_dim
        for g in images:
            if g.ambient_dim != target_dim:
                raise DimensionMismatch("substitution images live in different spaces")
        # exponents repeat across terms, so each power of an image is built once
        image_power = cache(lambda j, e: images[j] ** e)

        one = MultiPoly._of(target_dim, {0: 1})
        unpack = _layout(self.ambient_dim).unpack
        total: dict[int, int] = {}
        den = 1
        for key, c in self._nums.items():
            term = one
            for j, e in enumerate(unpack(key)):
                if e:
                    term = term * image_power(j, e)
            den = _accumulate(total, den, term._nums, term._den, c)
        return MultiPoly._of(target_dim, total, den * self._den)

    # -- printing ----------------------------------------------------------

    def to_str(self, var_names: Sequence[str] | None = None) -> str:
        """Canonical text form, e.g. ``3*x0^2 + 6*x1`` or ``x0^2 - x1^2``."""
        if not self._nums:
            return "0"
        if var_names is None:
            var_names = [f"x{i}" for i in range(self.ambient_dim)]
        elif len(var_names) != self.ambient_dim:
            raise DimensionMismatch("var_names length does not match ambient_dim")
        pieces = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(var_names[i])
                elif e > 1:
                    factors.append(f"{var_names[i]}^{e}")
            mono = "*".join(factors)
            if not mono:
                text = str(coeff)
            elif coeff == 1:
                text = mono
            elif coeff == -1:
                text = f"-{mono}"
            else:
                text = f"{coeff}*{mono}"
            pieces.append(text)
        return join_signed_terms(pieces)

    def __repr__(self) -> str:
        return f"MultiPoly({self.ambient_dim}, {self.to_str()!r})"


def join_signed_terms(pieces: Sequence[str]) -> str:
    """The sum ``a + b - c`` of the term texts ``a``, ``b`` and ``-c``."""
    return pieces[0] + "".join(f" - {text[1:]}" if text.startswith("-") else f" + {text}"
                               for text in pieces[1:])


def term_pairs(triples: Sequence[Product]) -> int:
    """Term pairs that summing ``triples`` multiplies, as ``sums_of_products``
    prices them."""
    pairs = 0
    for _, a, b in triples:
        pairs += len(a._nums) * len(b._nums)
    return pairs


def _sum_triples(ambient_dim: int, triples: Sequence[Product]) -> MultiPoly:
    """``sum(sign * a * b)`` of checked triples in one pass, over a common
    denominator that grows to the lcm as each triple's denominator joins."""
    acc: dict[int, int] = {}
    get = acc.get
    den = 1
    for sign, a, b in triples:
        den, scale = _rescale(acc, den, a._den * b._den)
        scale *= sign
        an, bn = a._nums, b._nums
        if len(an) < len(bn):
            an, bn = bn, an
        for eb, cb in bn.items():
            if scale != 1:
                cb *= scale
            for ea, ca in an.items():
                key = ea + eb
                acc[key] = get(key, 0) + ca * cb
    return MultiPoly._of(ambient_dim, acc, den)


class TermsView(Mapping):
    """A polynomial's terms as a read-only map from exponent tuples to
    nonzero ``Fraction`` coefficients, unpacked on access."""

    __slots__ = ("_poly",)

    def __init__(self, poly: MultiPoly):
        self._poly = poly

    def __len__(self) -> int:
        return len(self._poly._nums)

    def __iter__(self) -> Iterator[Exponents]:
        return self._poly._unpacked()

    def __getitem__(self, exps: Exponents) -> Fraction:
        poly = self._poly
        try:
            key = _layout(poly.ambient_dim).pack(exps)
            return Fraction(poly._nums[key], poly._den)
        except (struct.error, TypeError, KeyError):
            raise KeyError(exps) from None

    def __repr__(self) -> str:
        return repr(dict(self))
