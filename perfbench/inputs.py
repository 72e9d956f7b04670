"""Seeded input generators shared by the workloads.

Inputs are plain data (term dicts, Fraction points and matrices), made
together with the answer the program must give on them.  Nothing here
imports foliatk.
"""

from __future__ import annotations

import math
from fractions import Fraction

from oracle import (
    NON_KUPKA, REGULAR, first_integral_fails_at, generator_verdict, inverse, mat_mul,
    poly_gradient, poly_value, random_homogeneous, random_point, rank,
)

F = Fraction


def independent_at(polys, point) -> bool:
    return rank([poly_gradient(f, point) for f in polys]) == len(polys)


def independent_generators(rng, nvars, degrees, terms):
    """Generators whose differentials are independent at a seeded point, so
    the rational-component and contact forms built from them are nonzero."""
    while True:
        polys = [random_homogeneous(rng, nvars, d, t) for d, t in zip(degrees, terms)]
        if independent_at(polys, random_point(rng, nvars)):
            return polys


def pure_power(nvars: int, index: int, degree: int) -> tuple[int, ...]:
    return tuple(degree if j == index else 0 for j in range(nvars))


def perturbed_generator(rng, gens, degrees):
    """``f_0 + x_a^d_0`` for a power missing from ``f_0``, checked at a seeded
    point to break ``f_0^m_0 / f_1^m_1`` as a first integral of the form
    built from the unperturbed generators.  None when no power qualifies."""
    nvars = len(next(iter(gens[0])))
    missing = [a for a in range(nvars) if pure_power(nvars, a, degrees[0]) not in gens[0]]
    if not missing:
        return None
    bent = dict(gens[0])
    bent[pure_power(nvars, rng.choice(missing), degrees[0])] = F(1)
    common = math.lcm(*degrees)
    m0, m1 = common // degrees[0], common // degrees[1]
    if first_integral_fails_at(gens, degrees, bent, m0, gens[1], m1, random_point(rng, nvars)):
        return bent
    return None


def vanishing_at(poly: dict, point, degree: int) -> dict:
    """``poly - poly(p) * (x_a / p_a)^degree``: same degree, zero at ``p``."""
    a = next(i for i, v in enumerate(point) if v != 0)
    exps = pure_power(len(point), a, degree)
    out = dict(poly)
    out[exps] = out.get(exps, F(0)) - poly_value(poly, point) / point[a] ** degree
    return {e: c for e, c in out.items() if c != 0}


def linear_form_at(rng, point) -> dict:
    """A nonzero linear form vanishing at ``point``."""
    n = len(point)
    a = next(i for i, v in enumerate(point) if v != 0)
    while True:
        w = [F(rng.randint(-3, 3)) for _ in range(n)]
        w[a] = -sum(w[i] * point[i] for i in range(n) if i != a) / point[a]
        if any(w):
            return {tuple(int(i == j) for j in range(n)): c for i, c in enumerate(w) if c}


def product(f: dict, g: dict) -> dict:
    out: dict = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, F(0)) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def scenario_generators(rng, nvars, degrees, scenario, point, contact, terms=3):
    """Generators (independent at a seeded point) on which ``point`` gets
    the verdict ``scenario``.  Kupka and NonKupkaSingular points are zeros
    of every generator; for NonKupkaSingular ``f_0`` is a product of two
    linear forms through the point, so ``df_0`` vanishes there too."""
    while True:
        polys = [random_homogeneous(rng, nvars, d, terms) for d in degrees]
        if scenario != REGULAR:
            polys = [vanishing_at(f, point, d) for f, d in zip(polys, degrees)]
        if scenario == NON_KUPKA:
            polys[0] = product(linear_form_at(rng, point), linear_form_at(rng, point))
        if any(not f for f in polys):
            continue
        if not independent_at(polys, random_point(rng, nvars)):
            continue
        if generator_verdict(polys, point, contact) == scenario:
            return polys


def linear_part_case(rng, size: int, jordan: bool):
    """``P T P^-1`` with ``T`` diagonal (plus one Jordan link when asked) and
    the eigen-analysis it must get: (matrix, eigenvalues, blocks
    {value: (algebraic, geometric)}, diagonalizable, kind)."""
    if jordan:
        lam = rng.randint(-3, 3)
        diag = [lam, lam] + [rng.randint(-3, 3) for _ in range(size - 2)]
    else:
        diag = [rng.randint(-3, 3) for _ in range(size)]
    t = [[F(diag[i]) if i == j else F(0) for j in range(size)] for i in range(size)]
    if jordan:
        t[0][1] = F(1)
    while True:
        p = [[F(rng.randint(-2, 2)) for _ in range(size)] for _ in range(size)]
        if rank(p) == size:
            break
    matrix = mat_mul(mat_mul(p, t), inverse(p))
    values = sorted(set(diag))
    blocks = {F(v): (diag.count(v), diag.count(v) - int(jordan and v == diag[0])) for v in values}
    diagonalizable = not jordan
    if len(values) > 1:
        kind = "decomposes"
    else:
        kind = "projectively_flat" if diagonalizable else "indecomposable"
    return matrix, [F(v) for v in values], blocks, diagonalizable, kind
