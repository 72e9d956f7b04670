"""``exact_ladder``: library calls on seeded exact verification tasks.

Every round draws fresh generators from ``(seed, round)`` for a fixed list
of slots (shape = variables, degrees, term counts), so a run averages over
many instances of each shape and its figures do not hinge on a few lucky
polynomials.  The polynomial and form kernels do nearly all the work.
"""

from __future__ import annotations

import random

from foliatk import distribution as dist
from foliatk import foliation as fol
from foliatk import resonance as reso
from foliatk.polynomials import MultiPoly

from harness import Task
from inputs import (
    independent_at, independent_generators, linear_part_case, perturbed_generator,
    scenario_generators,
)
from oracle import (
    KUPKA, NON_KUPKA, REGULAR, greedy_partition, poly_value, random_homogeneous,
    random_point, require,
)

# (variables, degrees, terms per generator)
FIBRATION_SLOTS = [
    (4, (2, 3), (5, 5)),
    (5, (2, 2, 2), (4, 4, 4)),
    (5, (1, 2, 2), (3, 4, 4)),
    (4, (2, 2), (5, 5)),
    (4, (1, 2), (3, 5)),
    (3, (1, 1), (2, 2)),
]
# negative controls: one generator perturbed by a monomial it lacks
FIBRATION_NEGATIVE_SLOTS = [(4, (2, 2), (4, 4)), (4, (1, 3), (3, 4))]
# (variables, pairs r, generator degree, terms per generator); the four
# (5, 2, 1, 3) slots, with the contact-form Kupka slots, make the middle of
# the task-time distribution a tight cluster of 5-8 ms tasks, so task_p50_s
# does not jump between slots of different cost
CLASS_SLOTS = [(5, 2, 1, 3)] * 4 + [(5, 2, 2, 3), (6, 2, 2, 3), (6, 3, 1, 3), (7, 3, 1, 3),
                                   (7, 2, 2, 3)]
# eigenvalue vector lengths, and (size, Jordan link) of linear parts
NORMAL_FORM_SLOTS = [3, 4, 4, 5, 5, 6]
LINEAR_PART_SLOTS = [(3, False), (3, True), (4, False), (4, True)]
# (variables, degrees, scenario) for foliations; (variables, degree, scenario) for contact forms
KUPKA_SLOTS = [(4, (1, 2), REGULAR), (4, (2, 2), KUPKA), (4, (2, 2), NON_KUPKA)]
KUPKA_DISTRIBUTION_SLOTS = [(5, 1, REGULAR), (5, 1, KUPKA), (5, 2, NON_KUPKA)]


def _polys(nvars, terms_list):
    return [MultiPoly(nvars, t) for t in terms_list]


def fibration_task(rng, nvars, degrees, terms) -> Task:
    gens = independent_generators(rng, nvars, degrees, terms)

    def run():
        comp = fol.build_rational_component(_polys(nvars, gens), list(degrees))
        return fol.component_first_integral_check(comp)

    def check(out):
        require(out is True, f"first integrals of {degrees} in {nvars} vars: got {out!r}")

    return Task("fibration", run, check)


def fibration_negative_task(rng, nvars, degrees, terms) -> Task:
    while True:
        gens = independent_generators(rng, nvars, degrees, terms)
        bent = perturbed_generator(rng, gens, degrees)
        if bent is not None:
            break

    def run():
        comp = fol.build_rational_component(_polys(nvars, gens), list(degrees))
        bad = fol.RationalComponentSpec(
            polys=(MultiPoly(nvars, bent),) + comp.polys[1:],
            degrees=comp.degrees,
            foliation=comp.foliation,
        )
        return fol.component_first_integral_check(bad)

    def check(out):
        require(out is False, f"perturbed generator accepted as a first integral: {out!r}")

    return Task("fibration", run, check)


def class_task(rng, nvars, r, degree, terms) -> Task:
    while True:
        gens = [random_homogeneous(rng, nvars, degree, terms) for _ in range(2 * r)]
        point = random_point(rng, nvars)
        if any(poly_value(f, point) for f in gens) and independent_at(gens, point):
            break

    def run():
        contact = dist.build_contact_type(_polys(nvars, gens))
        return dist.class_of(contact.omega), dist.verify_darboux_identities(contact)

    def check(out):
        cls, report = out
        require(cls == r, f"class of a contact form from {2 * r} independent generators: {cls} != {r}")
        require(report.d_omega_ok and report.radial_ok, f"Darboux identities failed: {report}")
        require(report.degree_d == 2 * degree - 2 and report.generator_degree == degree,
                f"degree bookkeeping: {report}")

    return Task("class", run, check)


def normal_form_task(rng, length) -> Task:
    lams = sorted(rng.sample(range(2, 15), length))
    nr, res, rels = greedy_partition(lams)
    choices = {s: rng.choice(rel) for s, rel in rels.items()}

    def run():
        part = reso.partition(lams)
        data = reso.build_normal_form(part, choices)
        return part, data, reso.verify_normal_form(data)

    def check(out):
        part, data, verified = out
        require(list(part.nr_values) == nr and list(part.r_values) == res,
                f"partition of {lams}: {part.nr_values}/{part.r_values}, expected {nr}/{res}")
        got = {s: [tuple(m) for m in rel] for s, rel in part.relations.items()}
        require(got == rels, f"relation sets of {lams} differ")
        for s, rel in part.relations.items():
            for m in rel:
                require(sum(a * b for a, b in zip(m, part.nr_values)) == part.r_values[s - 1]
                        and sum(m) >= 2, f"{m} is not a relation for slot {s} of {lams}")
        require(dict(data.choices) == choices, f"choices {data.choices} != {choices}")
        require(verified is True, f"normal form identity of {lams} with {choices}: {verified!r}")

    return Task("normal_form", run, check)


def linear_part_task(rng, size, jordan) -> Task:
    matrix, values, blocks, diagonalizable, kind = linear_part_case(rng, size, jordan)

    def run():
        return reso.analyze_linear_part(matrix)

    def check(out):
        require(out.eigenvalues == tuple(values), f"eigenvalues {out.eigenvalues} != {values}")
        require(dict(out.blocks) == blocks, f"blocks {dict(out.blocks)} != {blocks}")
        require(out.diagonalizable == diagonalizable and out.kind == kind,
                f"kind {out.kind}/{out.diagonalizable}, expected {kind}/{diagonalizable}")

    return Task("normal_form", run, check)


def _check_verdict(out, expected, what):
    require(out.classification == expected, f"{what}: {out.classification}, expected {expected}")
    require(out.mode == "exact" and out.scale_consistent is True, f"{what}: {out}")


def kupka_task(rng, nvars, degrees, scenario) -> Task:
    point = random_point(rng, nvars)
    gens = scenario_generators(rng, nvars, degrees, scenario, point, contact=False)

    def run():
        comp = fol.build_rational_component(_polys(nvars, gens), list(degrees))
        return fol.kupka_test(comp.foliation, point)

    return Task("kupka_point", run, lambda out: _check_verdict(out, scenario, "kupka_test"))


def kupka_distribution_task(rng, nvars, degree, scenario) -> Task:
    point = random_point(rng, nvars)
    gens = scenario_generators(rng, nvars, [degree] * 4, scenario, point, contact=True)

    def run():
        contact = dist.build_contact_type(_polys(nvars, gens))
        return dist.kupka_test_distribution(dist.DistributionSpec(contact.omega), point)

    return Task("kupka_point", run,
                lambda out: _check_verdict(out, scenario, "kupka_test_distribution"))


class ExactLadder:
    name = "exact_ladder"
    tail_percentile = 95.0
    trace_rounds = 2

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, r: int) -> list[Task]:
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        tasks = [fibration_task(rng, *slot) for slot in FIBRATION_SLOTS]
        tasks += [fibration_negative_task(rng, *slot) for slot in FIBRATION_NEGATIVE_SLOTS]
        tasks += [class_task(rng, *slot) for slot in CLASS_SLOTS]
        tasks += [normal_form_task(rng, n) for n in NORMAL_FORM_SLOTS]
        tasks += [linear_part_task(rng, *slot) for slot in LINEAR_PART_SLOTS]
        tasks += [kupka_task(rng, *slot) for slot in KUPKA_SLOTS]
        tasks += [kupka_distribution_task(rng, *slot) for slot in KUPKA_DISTRIBUTION_SLOTS]
        return tasks

    def warmup(self) -> list[Task]:
        rng = random.Random(f"{self.name}:warmup")
        return [
            fibration_task(rng, 3, (1, 1), (2, 2)),
            class_task(rng, 5, 2, 1, 2),
            normal_form_task(rng, 3),
            linear_part_task(rng, 3, False),
            kupka_task(rng, 4, (1, 2), REGULAR),
            kupka_distribution_task(rng, 5, 1, KUPKA),
        ]
