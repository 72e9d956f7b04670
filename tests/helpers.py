"""Seeded random generators and oracles shared across test modules."""

from bisect import bisect_right
from fractions import Fraction
from itertools import combinations

from foliatk.distribution import build_contact_type
from foliatk.errors import ValidationError
from foliatk.forms import DiffForm
from foliatk.polynomials import MultiPoly


def rand_coeff(rng):
    num = rng.randint(-6, 6)
    den = rng.choice([1, 1, 1, 2, 3])
    return Fraction(num, den)


def rand_poly(rng, dim, max_degree=2, terms=3):
    out = {}
    for _ in range(terms):
        exps = [0] * dim
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(dim)] += 1
        key = tuple(exps)
        out[key] = out.get(key, Fraction(0)) + rand_coeff(rng)
    return MultiPoly(dim, out)


def rand_homogeneous(rng, dim, degree, terms=3):
    out = {}
    for _ in range(terms):
        exps = [0] * dim
        for _ in range(degree):
            exps[rng.randrange(dim)] += 1
        key = tuple(exps)
        out[key] = out.get(key, Fraction(0)) + rand_coeff(rng)
    poly = MultiPoly(dim, out)
    if poly.is_zero:
        # keep the generator total: pin one deterministic monomial
        poly = MultiPoly.monomial(dim, (degree,) + (0,) * (dim - 1))
    return poly


def rand_form(rng, dim, degree, entries=2, max_coeff_degree=2, coeff_terms=2):
    slots = list(combinations(range(dim), degree))
    coeffs = {}
    for _ in range(entries):
        idx = slots[rng.randrange(len(slots))]
        coeffs[idx] = rand_poly(rng, dim, max_coeff_degree, coeff_terms)
    return DiffForm(dim, degree, coeffs)


def rand_point(rng, dim):
    return [Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2])) for _ in range(dim)]


# -- oracles built on the public ``terms`` view ------------------------------

def total_degree(poly):
    """Maximum term degree, or None for the zero polynomial."""
    return max((sum(e) for e in poly.terms), default=None)


def euler_degree_check(poly):
    """True iff ``sum_i x_i * d(poly)/dx_i == degree * poly`` (Euler identity),
    which holds exactly when the polynomial is homogeneous."""
    degrees = {sum(e) for e in poly.terms}
    if len(degrees) > 1:
        return False
    acc = MultiPoly.zero(poly.ambient_dim)
    for i in range(poly.ambient_dim):
        acc = acc + MultiPoly.variable(poly.ambient_dim, i) * poly.partial_derivative(i)
    return acc == poly * (degrees.pop() if degrees else 0)


def jacobian(field):
    """Matrix of partial derivatives ``d X_i / d x_j`` of a vector field."""
    return [[comp.partial_derivative(j) for j in range(field.ambient_dim)]
            for comp in field.components]


# -- reference index algebra on sorted tuples --------------------------------

def tuple_merge_sign(left, right):
    """Sign and sorted tuple for ``left + right``; None if an index repeats.
    ``left`` is sorted, so the indices of it above ``b`` are one bisection."""
    if set(left) & set(right):
        return None
    inversions = 0
    for b in right:
        inversions += len(left) - bisect_right(left, b)
    sign = -1 if inversions % 2 else 1
    return sign, tuple(sorted(left + right))


def _reference_form(dim, degree, acc):
    return DiffForm(dim, min(degree, dim), {idx: p for idx, p in acc.items() if not p.is_zero})


def reference_wedge(a, b):
    """``a ^ b`` by the tuple merge, one plain product per pair of
    coefficients."""
    acc = {}
    for ia, pa in a.coeffs.items():
        for ib, pb in b.coeffs.items():
            merged = tuple_merge_sign(ia, ib)
            if merged is not None:
                sign, idx = merged
                term = pa * pb * sign
                acc[idx] = acc[idx] + term if idx in acc else term
    return _reference_form(a.ambient_dim, a.degree + b.degree, acc)


def reference_d(form):
    """``d`` of a form by the tuple merge of ``(i,)`` with each index."""
    acc = {}
    for idx, poly in form.coeffs.items():
        for i in range(form.ambient_dim):
            merged = tuple_merge_sign((i,), idx)
            if merged is not None:
                sign, new_idx = merged
                term = poly.partial_derivative(i) * sign
                acc[new_idx] = acc[new_idx] + term if new_idx in acc else term
    return _reference_form(form.ambient_dim, form.degree + 1, acc)


# -- plain-wedge oracles for the early-exit zero tests -----------------------

def wedge_term_pairs(a, b):
    """Term pairs of ``a ^ b`` per index they land on, one entry for every
    index some pair of coefficients reaches, whether or not it cancels."""
    pairs = {}
    for ia, pa in a.coeffs.items():
        for ib, pb in b.coeffs.items():
            if not set(ia) & set(ib):
                idx = tuple(sorted(ia + ib))
                pairs[idx] = pairs.get(idx, 0) + len(pa.terms) * len(pb.terms)
    return pairs


def cheap_zero_group_form():
    """``x2 d(x0 x1) + g dx3`` on 4-space, with ``g`` of six terms.  Its
    ``omega ^ d omega`` is nonzero, but the group with the fewest term pairs,
    at ``dx0 ^ dx1 ^ dx2``, sums to zero: ``x2 d(x0 x1) ^ dx2 ^ d(x0 x1)``."""
    x = [MultiPoly.variable(4, i) for i in range(4)]
    g = x[0] + x[1] + x[2] + x[0] ** 2 + x[1] ** 2 + x[2] ** 2
    return DiffForm(4, 1, {(0,): x[2] * x[1], (1,): x[2] * x[0], (3,): g})


def plain_class_and_power(omega):
    """The class by its definition, ``omega ^ (d omega)^k`` built up with
    plain wedges until it is zero, and ``(d omega)^r`` built from 1."""
    domega = omega.exterior_derivative()
    r, current = 0, omega
    while not current.is_zero:
        r, current = r + 1, current.wedge(domega)
    power = DiffForm.from_poly(MultiPoly.constant(omega.ambient_dim, 1))
    for _ in range(r):
        power = power.wedge(domega)
    return r, power


def plain_kupka_label(omega, power, point, tol=1e-9):
    """The Kupka label by definition, from the coefficient values of
    ``omega`` and of ``power``, ``(d omega)^r`` built in full: a value is
    zero exactly at a rational point, below ``tol`` in modulus otherwise."""
    exact = all(isinstance(v, (int, Fraction)) for v in point)

    def vanishes(form):
        values = [abs(v) for v in form.evaluate(point).values()]
        return all(v == 0 for v in values) if exact else max(values, default=0) < tol

    if not vanishes(omega):
        return "Regular"
    return "NonKupkaSingular" if vanishes(power) else "Kupka"


def seeded_contact_forms(rng, count):
    """Contact forms from 2r random homogeneous generators, r = 1..3, on 2r
    or 2r + 1 variables; dependent draws are skipped."""
    forms = []
    while len(forms) < count:
        r = rng.randint(1, 3)
        dim = 2 * r + rng.randint(0, 1)
        gens = [rand_homogeneous(rng, dim, rng.randint(1, 2)) for _ in range(2 * r)]
        try:
            forms.append(build_contact_type(gens).omega)
        except ValidationError:
            continue
    return forms


def oracle_one_forms(rng):
    """Seeded 1-forms for the class and zero-test oracles: random linear and
    quadratic coefficients on 2-6 variables, the cheap-zero-group form, and
    the caller adds contact forms."""
    forms = [cheap_zero_group_form()]
    for degree in (1, 2):
        for _ in range(10):
            dim = rng.randint(2, 6 if degree == 1 else 5)
            slots = rng.sample(range(dim), rng.randint(1, dim))
            forms.append(DiffForm(dim, 1, {(i,): rand_homogeneous(rng, dim, degree)
                                           for i in slots}))
    return forms
