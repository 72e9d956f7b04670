"""Sparse multivariate polynomials over exact rationals.

A polynomial in the variables ``x0 .. x{n-1}`` is stored as a mapping from
exponent tuples to nonzero ``Fraction`` coefficients::

    3*x0^2 + 6*x1   ->   {(2, 0): Fraction(3), (0, 1): Fraction(6)}

The representation is canonical: zero coefficients are dropped at
construction time, every exponent tuple has length ``ambient_dim``, and two
polynomials are equal exactly when their term maps are equal.  All
arithmetic stays in ``Fraction``; float coefficients are rejected so that
exactness cannot be lost silently.

Printing and evaluation both walk terms in descending lexicographic order
of the exponent tuple, so text output is reproducible and floating-point
evaluation is deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterator, Mapping, NamedTuple, Sequence, Union

from .errors import DimensionMismatch

Rational = Fraction
Scalar = Union[int, Fraction]
Exponents = tuple[int, ...]


def coerce_scalar(value: Scalar) -> Fraction:
    """Convert an exact scalar to ``Fraction``; floats are refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact (int or Fraction) coefficient required, got {type(value).__name__}")


class Homogeneity(NamedTuple):
    """Homogeneity verdict: ``kind`` is ``"zero"``, ``"homogeneous"`` or
    ``"inhomogeneous"``; ``degree`` is set only in the homogeneous case."""

    kind: str
    degree: int | None


class MultiPoly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("ambient_dim", "terms")

    def __init__(self, ambient_dim: int, terms: Mapping[Exponents, Scalar] | None = None):
        if not isinstance(ambient_dim, int) or ambient_dim < 1:
            raise ValueError(f"ambient_dim must be a positive integer, got {ambient_dim!r}")
        acc: dict[Exponents, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != ambient_dim:
                raise DimensionMismatch(
                    f"exponent tuple {exps} has length {len(exps)}, expected {ambient_dim}"
                )
            if any((not isinstance(e, int)) or e < 0 for e in exps):
                raise ValueError(f"exponents must be non-negative integers, got {exps}")
            acc[exps] = acc.get(exps, 0) + coerce_scalar(coeff)
        self._store(ambient_dim, acc)

    def _store(self, ambient_dim: int, terms: dict[Exponents, Fraction]):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "terms", {e: c for e, c in terms.items() if c})
        return self

    @classmethod
    def _of(cls, ambient_dim: int, terms: dict[Exponents, Fraction]) -> "MultiPoly":
        """Result of an operation on valid operands: ``terms`` has well-formed
        keys and ``Fraction`` values, so only its zero entries are dropped."""
        return object.__new__(cls)._store(ambient_dim, terms)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ambient_dim: int) -> "MultiPoly":
        return cls(ambient_dim)

    @classmethod
    def constant(cls, ambient_dim: int, value: Scalar) -> "MultiPoly":
        return cls(ambient_dim, {(0,) * ambient_dim: value})

    @classmethod
    def variable(cls, ambient_dim: int, index: int) -> "MultiPoly":
        """The monomial ``x{index}``."""
        if not 0 <= index < ambient_dim:
            raise DimensionMismatch(f"variable index {index} outside [0, {ambient_dim})")
        exps = tuple(1 if j == index else 0 for j in range(ambient_dim))
        return cls(ambient_dim, {exps: 1})

    @classmethod
    def monomial(cls, ambient_dim: int, exps: Sequence[int], coeff: Scalar = 1) -> "MultiPoly":
        return cls(ambient_dim, {tuple(exps): coeff})

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int | None:
        """Maximum term degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def involved_variables(self) -> frozenset[int]:
        """Indices of variables appearing with positive exponent."""
        seen = set()
        for exps in self.terms:
            for j, e in enumerate(exps):
                if e > 0:
                    seen.add(j)
        return frozenset(seen)

    def homogeneity(self) -> Homogeneity:
        """Classify as zero, homogeneous of some degree, or inhomogeneous."""
        if not self.terms:
            return Homogeneity("zero", None)
        degrees = {sum(e) for e in self.terms}
        if len(degrees) == 1:
            return Homogeneity("homogeneous", degrees.pop())
        return Homogeneity("inhomogeneous", None)

    def sorted_terms(self) -> Iterator[tuple[Exponents, Fraction]]:
        """Terms in descending lexicographic exponent order."""
        for exps in sorted(self.terms, reverse=True):
            yield exps, self.terms[exps]

    # -- ring operations ---------------------------------------------------

    def _check_same_space(self, other: "MultiPoly") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def __add__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.ambient_dim, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same_space(other)
        merged = dict(self.terms)
        for exps, c in other.terms.items():
            merged[exps] = merged.get(exps, 0) + c
        return MultiPoly._of(self.ambient_dim, merged)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._of(self.ambient_dim, {e: -c for e, c in self.terms.items()})

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
            return MultiPoly._of(self.ambient_dim, {e: k * c for e, k in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same_space(other)
        product: dict[Exponents, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exps = tuple(map(add, ea, eb))
                product[exps] = product.get(exps, 0) + ca * cb
        return MultiPoly._of(self.ambient_dim, product)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "MultiPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {exponent!r}")
        result = MultiPoly._of(self.ambient_dim, {(0,) * self.ambient_dim: Fraction(1)})
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
        return self.ambient_dim == other.ambient_dim and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ambient_dim, frozenset(self.terms.items())))

    # -- calculus ----------------------------------------------------------

    def partial_derivative(self, index: int) -> "MultiPoly":
        """Exact partial derivative with respect to ``x{index}``."""
        if not 0 <= index < self.ambient_dim:
            raise DimensionMismatch(f"variable index {index} outside [0, {self.ambient_dim})")
        out: dict[Exponents, Fraction] = {}
        for exps, c in self.terms.items():
            e = exps[index]
            if e == 0:
                continue
            dropped = exps[:index] + (e - 1,) + exps[index + 1:]
            out[dropped] = out.get(dropped, 0) + c * e
        return MultiPoly._of(self.ambient_dim, out)

    def evaluate(self, point: Sequence) -> Fraction | complex:
        """Evaluate at a point.

        Returns a ``Fraction`` when every coordinate is an int or
        ``Fraction``; otherwise coordinates are coerced to complex and a
        complex value is returned.  Terms are summed in descending
        lexicographic order either way.
        """
        if len(point) != self.ambient_dim:
            raise DimensionMismatch(
                f"point has {len(point)} coordinates, expected {self.ambient_dim}"
            )
        exact = all(isinstance(v, (int, Fraction)) for v in point)
        if exact:
            total_f = Fraction(0)
            for exps, c in self.sorted_terms():
                term = c
                for v, e in zip(point, exps):
                    if e:
                        term *= Fraction(v) ** e
                total_f += term
            return total_f
        coords = [complex(v) for v in point]
        total = complex(0)
        for exps, c in self.sorted_terms():
            term = complex(c)
            for v, e in zip(coords, exps):
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
        # cache powers of each image; exponents repeat across terms
        powers: dict[tuple[int, int], MultiPoly] = {}

        def image_power(j: int, e: int) -> MultiPoly:
            key = (j, e)
            if key not in powers:
                powers[key] = images[j] ** e
            return powers[key]

        one = MultiPoly._of(target_dim, {(0,) * target_dim: Fraction(1)})
        total: dict[Exponents, Fraction] = {}
        for exps, c in self.terms.items():
            term = one
            for j, e in enumerate(exps):
                if e:
                    term = term * image_power(j, e)
            for k, v in term.terms.items():
                total[k] = total.get(k, 0) + c * v
        return MultiPoly._of(target_dim, total)

    # -- printing ----------------------------------------------------------

    def to_str(self, var_names: Sequence[str] | None = None) -> str:
        """Canonical text form, e.g. ``3*x0^2 + 6*x1`` or ``x0^2 - x1^2``."""
        if not self.terms:
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
        out = pieces[0]
        for text in pieces[1:]:
            if text.startswith("-"):
                out += f" - {text[1:]}"
            else:
                out += f" + {text}"
        return out

    def __repr__(self) -> str:
        return f"MultiPoly({self.ambient_dim}, {self.to_str()!r})"


def euler_degree_check(poly: MultiPoly) -> bool:
    """True iff ``sum_i x_i * d(poly)/dx_i == degree * poly`` (Euler identity).

    Holds exactly when the polynomial is homogeneous; used as a cross-check
    on ``homogeneity``.
    """
    kind, degree = poly.homogeneity()
    if kind == "zero":
        return True
    if kind == "inhomogeneous":
        return False
    acc = MultiPoly.zero(poly.ambient_dim)
    for i in range(poly.ambient_dim):
        acc = acc + MultiPoly.variable(poly.ambient_dim, i) * poly.partial_derivative(i)
    return acc == poly * degree
