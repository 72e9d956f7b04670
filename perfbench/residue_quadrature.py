"""``residue_quadrature``: ``residue.build_residue_report`` on 2- and
3-variable fields with radius sweeps.

Seven of the twelve fields per round are diagonal or separable and take the
per-axis-mean path; five are non-separable perturbations that take the
streamed full grid.  With that split ``task_p50_s`` sits inside the
separable group and ``tasks_per_s`` is mostly grid time, so a change that
helps one path and costs the other shows in one of the two.  Every field
has linear part ``J(0)`` dominating its higher terms on the torus, so the
only zero inside is the origin and the residue is ``tr(J(0))^m / det J(0)``.
"""

from __future__ import annotations

import random
from fractions import Fraction

from foliatk import residue
from foliatk.forms import PolyVectorField
from foliatk.polynomials import MultiPoly

from harness import Task
from oracle import close_to, det, require

F = Fraction
SMALL = (F(1), F(-1), F(1, 2), F(-1, 2))

# (variables, samples per circle, torus radii, sweep factors)
DIAGONAL_SLOTS = [
    (2, 256, (1.0, 1.0), (0.5, 1.0, 2.0)),
    (3, 256, (0.5, 1.0, 2.0), (0.5, 1.0, 2.0)),
    (3, 1024, (1.0, 1.0, 1.0), (0.5, 1.0, 2.0)),
    (2, 4096, (1.0, 1.0), (0.5, 1.0, 2.0)),
]
SEPARABLE_SLOTS = [(2, 512), (3, 256), (3, 1024)]
# (variables, samples per circle, triangular linear part)
GRID_SLOTS = [(2, 256, False), (2, 256, True), (3, 64, False), (3, 96, True), (3, 128, False)]
RADIUS = 0.2
SWEEP = (0.8, 1.0, 1.2)


def _unit(m, i, power=1):
    return tuple(power if j == i else 0 for j in range(m))


def residue_task(family, components, radii, samples, sweep, c=None) -> Task:
    """``components`` are term dicts whose linear parts form ``J(0)``."""
    m = len(components)
    jac = [[comp.get(_unit(m, j), F(0)) for j in range(m)] for comp in components]
    want = sum(jac[i][i] for i in range(m)) ** m / det(jac)
    diagonal = all(len(comp) == 1 for comp in components) and all(
        jac[i][j] == 0 for i in range(m) for j in range(m) if i != j)
    weights = [jac[i][i] for i in range(m)]
    with_degree = diagonal and c is not None and all(w > 0 and w.denominator == 1 for w in weights)

    def run():
        field = PolyVectorField([MultiPoly(m, comp) for comp in components])
        return residue.build_residue_report(field=field, c=c, radii=radii,
                                            samples_per_circle=samples, sweep_factors=sweep)

    def check(report):
        require(not isinstance(report, BaseException), f"raised {report!r}")
        close_to(report.numeric, want, f"residue of {components}")
        require(0 <= report.radius_sweep_spread <= 1e-8, f"sweep spread {report.radius_sweep_spread}")
        require(report.closed_form == (want if diagonal else None),
                f"closed form {report.closed_form}, expected {want if diagonal else None}")
        if with_degree:
            total = sum(weights)
            values = tuple(w * c / total for w in weights)
            degree = F(1)
            for v in values:
                degree *= v
            require(report.kupka_degree == degree, f"degree {report.kupka_degree} != {degree}")
            require(report.integrality.values == values
                    and report.integrality.realizable == all(v.denominator == 1 for v in values),
                    f"integrality {report.integrality}")
        else:
            require(report.kupka_degree is None and report.integrality is None,
                    "degree data without integer diagonal weights")

    return Task(family, run, check)


def diagonal_task(rng, m, samples, radii, sweep) -> Task:
    comps = [{_unit(m, i): F(rng.randint(1, 6))} for i in range(m)]
    return residue_task("residue_separable", comps, radii, samples, sweep, c=rng.randint(1, 6))


def separable_task(rng, m, samples) -> Task:
    """``X_i = a_i z_i + c_i z_i^k``: the per-axis path with a nontrivial
    numerator; the other zero of ``X_i`` lies outside the torus."""
    comps = [{_unit(m, i): F(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])),
              _unit(m, i, rng.randint(2, 3)): rng.choice(SMALL)} for i in range(m)]
    return residue_task("residue_separable", comps, (RADIUS,) * m, samples, SWEEP)


def grid_task(rng, m, samples, triangular) -> Task:
    """Diagonal (or upper-triangular) linear part plus two quadratic terms in
    other variables per component, so the grid path is taken."""
    comps = []
    for i in range(m):
        comp = {_unit(m, i): F(rng.choice([-4, -3, -2, 2, 3, 4]))}
        if triangular and i + 1 < m:
            comp[_unit(m, i + 1)] = rng.choice((F(1), F(-1)))
        others = [j for j in range(m) if j != i]
        for _ in range(2):
            exps = [0] * m
            exps[rng.choice(others)] += 1
            exps[rng.randrange(m)] += 1
            comp[tuple(exps)] = comp.get(tuple(exps), F(0)) + rng.choice(SMALL)
        comps.append({e: v for e, v in comp.items() if v != 0})
    return residue_task("residue_grid", comps, (RADIUS,) * m, samples, SWEEP)


class ResidueQuadrature:
    name = "residue_quadrature"
    tail_percentile = 95.0
    trace_rounds = 4

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, r: int) -> list[Task]:
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        tasks = [diagonal_task(rng, *slot) for slot in DIAGONAL_SLOTS]
        tasks += [separable_task(rng, *slot) for slot in SEPARABLE_SLOTS]
        tasks += [grid_task(rng, *slot) for slot in GRID_SLOTS]
        return tasks

    def warmup(self) -> list[Task]:
        rng = random.Random(f"{self.name}:warmup")
        return [diagonal_task(rng, 2, 64, (1.0, 1.0), (0.5, 1.0, 2.0)),
                separable_task(rng, 2, 64), grid_task(rng, 2, 32, False)]
