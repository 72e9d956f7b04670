"""``cli_session``: ``cli.run_command`` in process over a seeded stream of
small invocations of all ten subcommands, in text and ``--json``.

Each round is the 15 golden invocations (compared byte for byte with
``tests/golden/``), fresh seeded variants of them, malformed input that
must be rejected with exit 2, and the named faults.  Inputs are tiny, so
parsing, argument dispatch and report rendering dominate.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
from fractions import Fraction
from pathlib import Path

from foliatk import cli

from harness import Task
from inputs import independent_generators, linear_part_case, scenario_generators
from oracle import (
    CheckFailure, KUPKA, NON_KUPKA, REGULAR, binomial_sections, brute_force_pairs, close_to, expect_fields,
    flatten_report, generator_verdict, greedy_partition, poly_text, random_point,
    relations_over, require,
)

F = Fraction

# name -> argv of tests/test_cli.py MANIFEST; the expected bytes are read
# from tests/golden/<name>.txt in place
GOLDENS = [
    ("rational_component_pencil3",
     ["rational-component", "--polys", "x0;x1;x2", "--degrees", "1,1,1", "--vars", "4"]),
    ("rational_component_quadric",
     ["rational-component", "--polys", "x0^2 + x1*x2;x3^2", "--degrees", "2,2",
      "--vars", "4", "--json"]),
    ("kupka_test_degenerate",
     ["kupka-test", "--polys", "x0^2;x1^2", "--degrees", "2,2", "--vars", "4",
      "--point", "0,0,1,0", "--json"]),
    ("kupka_test_blow_up3", ["kupka-test", "--blow-up", "3", "--json"]),
    ("kupka_test_pencil_point",
     ["kupka-test", "--form", "x0*dx1 - x1*dx0", "--vars", "3", "--k", "1",
      "--point", "0,0,1"]),
    ("resonance_123", ["resonance", "--lambda", "1,2,3", "--json"]),
    ("resonance_jordan", ["resonance", "--matrix", "1,1;0,1", "--json"]),
    ("normal_form_245", ["normal-form", "--lambda", "2,4,5", "--json"]),
    ("residue_diag12", ["residue", "--lambda", "1,2", "--json"]),
    ("residue_perturbed",
     ["residue", "--field", "x0 + x1^2;x1", "--radii", "0.5",
      "--sweep", "0.8,1.0,1.2", "--json"]),
    ("kupka_degree_11_c4", ["kupka-degree", "--lambda", "1,1", "--c", "4"]),
    ("distribution_contact5",
     ["distribution-class", "--contact", "x0;x1;x2;x3", "--vars", "5",
      "--point", "0,0,0,0,1", "--json"]),
    ("fibration_23",
     ["fibration", "--degrees", "2,3", "--polys", "x0^2 + x1*x2;x3^3 - x0*x1*x2",
      "--vars", "4"]),
    ("sections_dim_322", ["sections-dim", "--n", "3", "--k", "2", "--c", "2", "--json"]),
    ("codim1_solve_6_8", ["codim1-solve", "--c", "6", "--d", "8"]),
]

PENCIL = ["kupka-test", "--form", "x0*dx1 - x1*dx0", "--vars", "3", "--k", "1"]
# Defects of the program that every round meets; the right answer is a
# rejection with exit 2 and an "error: " message.
FAULTS = [
    ("nan-point", PENCIL + ["--point", "nan,0,1"]),
    ("inf-point", PENCIL + ["--point", "0,0,inf"]),
    ("nan-residue", ["residue", "--lambda", "1,2", "--radii", "inf"]),
    ("nan-tol", PENCIL + ["--point", "0j,0,1", "--tol", "nan"]),
    ("negative-tol", PENCIL + ["--point", "0j,0,1", "--tol", "-1"]),
    ("deep-nesting", ["rational-component", "--polys", "(" * 3000 + "x0" + ")" * 3000 + ";x1",
                      "--degrees", "1,1", "--vars", "3"]),
]


def invoke(argv):
    """Run one invocation in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run_command(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def _succeeded(out):
    require(not isinstance(out, BaseException), f"raised {out!r}")
    code, stdout, stderr = out
    require(code == 0, f"exit {code}: {stderr.strip()[:200]}")
    require(stderr == "", f"unexpected stderr {stderr[:200]!r}")
    return stdout


def golden_task(argv, expected: str) -> Task:
    def check(out):
        require(_succeeded(out) == expected, f"golden bytes differ for {argv}")

    return Task("golden", lambda: invoke(argv), check)


def variant_task(family, argv, as_json, expect) -> Task:
    """``expect(flat)`` checks the flattened report."""
    argv = argv + (["--json"] if as_json else [])

    def check(out):
        expect(flatten_report(_succeeded(out), as_json))

    return Task(family, lambda: invoke(argv), check)


def rejection_task(argv, message=None, fault=None) -> Task:
    """Exit 2, nothing on stdout, and an error message (matching ``message``)."""

    def check(out):
        require(not isinstance(out, BaseException), f"{argv[0]} raised {out!r}")
        code, stdout, stderr = out
        require(code == 2 and stdout == "", f"{argv[0]}: exit {code}, expected a rejection")
        require("error: " in stderr, f"{argv[0]}: no error message")
        if message:
            require(re.search(message, stderr) is not None, f"{stderr.strip()!r} lacks {message!r}")

    return Task("fault" if fault else "rejection", lambda: invoke(argv), check, fault)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


# -- seeded variants -------------------------------------------------------

def rational_component_variant(rng, as_json):
    nvars = rng.randint(3, 5)
    count = rng.randint(2, nvars - 1)
    degrees = [rng.randint(1, 2) for _ in range(count)]
    gens = independent_generators(rng, nvars, degrees, [rng.randint(1, 3) for _ in degrees])
    n = nvars - 1
    k = n - count + 1
    c = sum(degrees)

    def expect(flat):
        expect_fields(flat, {
            "command": "rational-component", "inputs.vars": nvars, "inputs.degrees": degrees,
            "result.n": n, "result.k": k, "result.c": c,
            "result.coefficient_degree": c - (n - k), "result.foliation_degree": c - (n - k) - 1,
            "result.transversal_weights": degrees,
        })
        require(flat.get("result.omega") not in (None, "0"), "empty component form")

    argv = ["rational-component", "--polys=" + ";".join(map(poly_text, gens)),
            "--degrees", _csv(degrees), "--vars", str(nvars)]
    return variant_task("rational-component", argv, as_json, expect)


def kupka_polys_variant(rng, as_json):
    nvars = 4
    scenario = rng.choice([REGULAR, KUPKA, NON_KUPKA])
    degrees = [2, 2] if scenario == NON_KUPKA else [rng.randint(1, 2), 2]
    point = random_point(rng, nvars)
    gens = scenario_generators(rng, nvars, degrees, scenario, point, contact=False, terms=2)
    expected = {"result.classification": scenario, "result.mode": "exact",
                "result.scale_consistent": True, "result.n": 3, "result.k": 2,
                "result.c": sum(degrees)}
    argv = ["kupka-test", "--polys=" + ";".join(map(poly_text, gens)), "--degrees", _csv(degrees),
            "--vars", str(nvars), f"--point={_csv(point)}"]
    return variant_task("kupka-test", argv, as_json, lambda flat: expect_fields(flat, expected))


def kupka_form_variant(rng, as_json):
    """The pencil ``x_a dx_b - x_b dx_a`` at exact or complex points."""
    nvars = rng.randint(3, 5)
    a, b = sorted(rng.sample(range(nvars), 2))
    on_axis = rng.random() < 0.5
    numeric = rng.random() < 0.5
    coords = []
    for i in range(nvars):
        if on_axis and i in (a, b):
            value = F(0)
        else:
            value = F(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2]))
        coords.append(value)
    if numeric:
        texts = [f"{float(v)}{rng.choice(['+', '-'])}{rng.randint(0, 2)}j" if v else "0j"
                 for v in coords]
    else:
        texts = [str(v) for v in coords]
    verdict = generator_verdict([{tuple(int(j == i) for j in range(nvars)): F(1)} for i in (a, b)],
                                coords, contact=False)
    expected = {"result.classification": verdict, "result.mode": "numeric" if numeric else "exact",
                "result.scale_consistent": True, "result.n": nvars - 1, "result.k": nvars - 2,
                "result.c": 2, "result.tol": 1e-9}
    argv = ["kupka-test", "--form", f"x{a}*dx{b} - x{b}*dx{a}", "--vars", str(nvars),
            "--k", str(nvars - 2), "--point=" + ",".join(texts)]
    return variant_task("kupka-test", argv, as_json, lambda flat: expect_fields(flat, expected))


def blow_up_variant(rng, as_json):
    m = rng.randint(1, 4)
    transform = f"x0^{m + 1}*" + "^^".join(f"dt{j}" for j in range(1, m + 1))
    expected = {"result.m": m, "result.epsilon": 1, "result.strict_transform": transform}
    return variant_task("kupka-test", ["kupka-test", "--blow-up", str(m)], as_json,
                        lambda flat: expect_fields(flat, expected))


def resonance_variant(rng, as_json):
    lams = sorted(rng.sample(range(1, 13), rng.randint(2, 4)))
    if rng.random() < 0.25:
        lams = sorted(lams + [rng.choice(lams)])
    nr, res, rels = greedy_partition(lams)
    normal_form_ok = len(set(lams)) in (1, len(lams))
    expected = {"inputs.lambda": lams, "result.non_resonant": nr, "result.resonant": res}
    expected.update({f"result.relations.{s}": [list(m) for m in rel] for s, rel in rels.items()})
    if not rels:
        expected["result.relations"] = {}
    expected["result.identity_verified"] = True if normal_form_ok else None

    def expect(flat):
        expect_fields(flat, expected)
        require((flat.get("result.G") == "null") != normal_form_ok, "G against duplicates")

    return variant_task("resonance", ["resonance", "--lambda", _csv(lams)], as_json, expect)


def matrix_variant(rng, as_json):
    size = rng.randint(2, 3)
    matrix, values, blocks, diagonalizable, kind = linear_part_case(rng, size, rng.random() < 0.5)
    expected = {"result.kind": kind, "result.eigenvalues": [str(v) for v in values],
                "result.diagonalizable": diagonalizable}
    for v, (alg, geo) in blocks.items():
        expected[f"result.blocks.{v}.algebraic"] = alg
        expected[f"result.blocks.{v}.geometric"] = geo
    text = ";".join(_csv(row) for row in matrix)
    return variant_task("resonance", ["resonance", f"--matrix={text}"], as_json,
                        lambda flat: expect_fields(flat, expected))


def target_variant(rng, as_json):
    lams = sorted(rng.sample(range(1, 11), rng.randint(2, 4)))
    target = rng.randrange(len(lams))
    rels = relations_over(lams, lams[target])
    if rng.random() < 0.5:
        expected = {"result.target_value": lams[target], "result.relations": [list(m) for m in rels],
                    "result.count": len(rels)}
        argv = ["resonance", "--lambda", _csv(lams), "--target", str(target)]
    else:
        m = list(rng.choice(rels)) if rels and rng.random() < 0.5 else [
            rng.randint(0, 2) for _ in lams]
        invariant = sum(a * b for a, b in zip(m, lams)) == lams[target]
        expected = {"result.invariant_hypersurface": invariant, "inputs.relation": m}
        argv = ["resonance", "--lambda", _csv(lams), "--target", str(target),
                "--relation", _csv(m)]
    return variant_task("resonance", argv, as_json, lambda flat: expect_fields(flat, expected))


def normal_form_variant(rng, as_json):
    while True:
        lams = sorted(rng.sample(range(2, 13), rng.randint(3, 4)))
        nr, res, rels = greedy_partition(lams)
        if rels:
            break
    choices = {s: list(rng.choice(rel)) for s, rel in rels.items()}
    choice_text = ";".join(f"{s}:{_csv(m)}" for s, m in choices.items())
    expected = {"inputs.lambda": lams, "result.nr_count": len(nr), "result.reordered": nr + res,
                "result.permutation": [lams.index(v) for v in nr + res],
                "result.identity_verified": True}
    expected.update({f"result.choices.{s}": m for s, m in choices.items()})
    return variant_task("normal-form", ["normal-form", "--lambda", _csv(lams), "--choice", choice_text],
                        as_json, lambda flat: expect_fields(flat, expected))


def _check_numeric(flat, want):
    try:
        got = complex(float(flat["result.numeric.re"]), float(flat["result.numeric.im"]))
    except (KeyError, ValueError):
        raise CheckFailure("numeric residue missing") from None
    close_to(got, want, "numeric residue")


def residue_lambda_variant(rng, as_json):
    lams = sorted(rng.sample(range(1, 7), 2))
    c = rng.randint(1, 6)
    total = sum(lams)
    closed = F(total) ** 2 / (lams[0] * lams[1])
    values = [F(lam * c, total) for lam in lams]

    def expect(flat):
        expect_fields(flat, {
            "result.closed_form": closed, "result.kupka_degree": values[0] * values[1],
            "result.integrality.values": [str(v) for v in values],
            "result.integrality.integer_flags": [v.denominator == 1 for v in values],
            "result.integrality.realizable": all(v.denominator == 1 for v in values),
        })
        _check_numeric(flat, closed)

    argv = ["residue", "--lambda", _csv(lams), "--c", str(c)]
    return variant_task("residue", argv, as_json, expect)


def residue_field_variant(rng, as_json):
    """A 2-variable field with diagonal linear part and quadratic terms; its
    residue at the origin is ``tr(J(0))^2 / det J(0)``."""
    a, c = rng.randint(1, 4), rng.randint(1, 4)
    b, d = rng.choice([1, -1, F(1, 2)]), rng.choice([1, -1, F(-1, 2)])
    field = [f"{a}*x0 + {b}*x1^2", f"{c}*x1 + {d}*x0^2"]
    want = F(a + c) ** 2 / (a * c)

    def expect(flat):
        expect_fields(flat, {"result.closed_form": None, "result.kupka_degree": None,
                             "result.integrality": None})
        _check_numeric(flat, want)

    argv = ["residue", "--field=" + ";".join(field), "--radii", "0.2", "--sweep", "0.8,1.0,1.2",
            "--samples", "64"]
    return variant_task("residue", argv, as_json, expect)


def kupka_degree_variant(rng, as_json):
    lams = sorted(rng.randint(1, 6) for _ in range(rng.randint(2, 3)))
    c = rng.randint(1, 8)
    total = sum(lams)
    values = [F(lam * c, total) for lam in lams]
    degree = math.prod(values)
    residue = F(total) ** len(lams) / math.prod(lams)
    expected = {"result.kupka_degree": degree, "result.closed_form_residue": residue,
                "result.product_with_residue": F(c) ** len(lams),
                "result.c_power_m": F(c) ** len(lams),
                "result.chern.values": [str(v) for v in values],
                "result.chern.realizable": all(v.denominator == 1 for v in values)}
    return variant_task("kupka-degree", ["kupka-degree", "--lambda", _csv(lams), "--c", str(c)],
                        as_json, lambda flat: expect_fields(flat, expected))


def contact_variant(rng, as_json):
    scenario = rng.choice([REGULAR, KUPKA])
    point = random_point(rng, 5)
    gens = scenario_generators(rng, 5, [1] * 4, scenario, point, contact=True, terms=2)
    expected = {"result.class": 2, "result.frobenius_integrable": False,
                "result.darboux.d_omega_ok": True, "result.darboux.radial_ok": True,
                "result.darboux.degree_d": 0, "result.darboux.generator_degree": 1,
                "result.point_classification.classification": scenario,
                "result.point_classification.mode": "exact",
                "result.point_classification.scale_consistent": True}
    argv = ["distribution-class", "--contact=" + ";".join(map(poly_text, gens)), "--vars", "5",
            f"--point={_csv(point)}"]
    if rng.random() < 0.5:
        argv += ["--declared-class", "2"]
    return variant_task("distribution-class", argv, as_json,
                        lambda flat: expect_fields(flat, expected))


def form_class_variant(rng, as_json):
    """``sum_i (x_a dx_b - x_b dx_a)`` over disjoint index pairs has class
    equal to the number of pairs."""
    nvars = rng.randint(4, 6)
    pairs = rng.randint(1, 2)
    idx = rng.sample(range(nvars), 2 * pairs)
    form = " + ".join(f"x{idx[2 * i]}*dx{idx[2 * i + 1]} - x{idx[2 * i + 1]}*dx{idx[2 * i]}"
                      for i in range(pairs))
    expected = {"result.class": pairs, "result.frobenius_integrable": pairs == 1}
    return variant_task("distribution-class",
                        ["distribution-class", "--form", form, "--vars", str(nvars)], as_json,
                        lambda flat: expect_fields(flat, expected))


def fibration_variant(rng, as_json):
    if rng.random() < 0.5:
        degrees = [rng.randint(1, 6) for _ in range(rng.randint(2, 4))]
        argv = ["fibration", "--degrees", _csv(degrees)]
        extra = {}
    else:
        nvars = rng.randint(3, 4)
        degrees = [1, rng.randint(1, 2)]
        gens = independent_generators(rng, nvars, degrees, [2, 2])
        argv = ["fibration", "--degrees", _csv(degrees), "--polys=" + ";".join(map(poly_text, gens)),
                "--vars", str(nvars)]
        extra = {"result.first_integrals_verified": True}
    common = math.lcm(*degrees)
    expected = {"result.exponents": [common // d for d in degrees], "result.common_degree": common,
                **extra}
    return variant_task("fibration", argv, as_json, lambda flat: expect_fields(flat, expected))


def sections_variant(rng, as_json):
    n = rng.randint(2, 6)
    k = rng.randint(1, n - 1)
    c = rng.randint(1, 6)
    expected = {"result.dimension": binomial_sections(n, k, c)}
    return variant_task("sections-dim",
                        ["sections-dim", "--n", str(n), "--k", str(k), "--c", str(c)], as_json,
                        lambda flat: expect_fields(flat, expected))


def codim1_variant(rng, as_json):
    c = rng.randint(2, 30)
    if rng.random() < 0.5:
        products = sorted({a * (c - a) for a in range(1, c)})
        expected = {"result.products": products, "result.count": len(products)}
        argv = ["codim1-solve", "--c", str(c)]
    else:
        a = rng.randint(1, c - 1)
        d = a * (c - a) + rng.choice([0, 0, 1])
        pairs = brute_force_pairs(c, d)
        expected = {"result.pairs": pairs, "result.count": len(pairs)}
        argv = ["codim1-solve", "--c", str(c), "--d", str(d)]
    return variant_task("codim1-solve", argv, as_json, lambda flat: expect_fields(flat, expected))


VARIANTS = [
    rational_component_variant, rational_component_variant,
    kupka_polys_variant, kupka_polys_variant,
    kupka_form_variant, kupka_form_variant, kupka_form_variant,
    blow_up_variant,
    resonance_variant, resonance_variant, matrix_variant, target_variant, target_variant,
    normal_form_variant, normal_form_variant,
    residue_lambda_variant, residue_lambda_variant, residue_field_variant,
    kupka_degree_variant, kupka_degree_variant,
    contact_variant, form_class_variant,
    fibration_variant, fibration_variant,
    sections_variant, sections_variant,
    codim1_variant, codim1_variant,
]


# -- malformed input -------------------------------------------------------

POSITIONED = r"at line \d+, col \d+"


def rejections(rng) -> list[Task]:
    nvars = rng.randint(3, 5)
    bad_index = nvars + rng.randint(0, 5)
    good = f"x0 + {rng.randint(2, 9)}*x1"
    unknown = f"{good} - x{bad_index}"
    col = unknown.index(f"x{bad_index}") + 1
    base = ["rational-component", "--degrees", "1,1", "--vars", str(nvars)]
    return [
        rejection_task(base + ["--polys", f"{good} + *x1;x1"], POSITIONED),
        rejection_task(base + ["--polys", f"({good};x1"], POSITIONED),
        rejection_task(base + ["--polys", f"{unknown};x1"],
                       rf"unknown variable 'x{bad_index}' at col {col}\b"),
        rejection_task(PENCIL),
        rejection_task(PENCIL + ["--point", f"0,0,{rng.choice(['bad', '1/0x', '--'])}"]),
        rejection_task(["sections-dim", "--n", str(nvars), "--k", str(nvars), "--c", "2"]),
        rejection_task(["normal-form", "--lambda", "1,2,2"]),
        rejection_task(["resonance", "--lambda", f"0,{rng.randint(1, 5)}"]),
        rejection_task(["residue"]),
        rejection_task(["kupka-degree", "--lambda", "1,2"]),
        rejection_task(["codim1-solve", "--c", "1"]),
        rejection_task(["distribution-class", "--form", "dx0^^dx1", "--vars", str(nvars)]),
        rejection_task(["no-such-command"]),
    ]


class CliSession:
    name = "cli_session"
    tail_percentile = 99.5
    trace_rounds = 10

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        golden_dir = root / "tests" / "golden"
        self.goldens = [(argv, (golden_dir / f"{name}.txt").read_text(encoding="utf-8"))
                        for name, argv in GOLDENS]

    def round(self, r: int) -> list[Task]:
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        tasks = [golden_task(argv, expected) for argv, expected in self.goldens]
        tasks += [make(rng, rng.random() < 0.5) for make in VARIANTS]
        tasks += rejections(rng)
        tasks += [rejection_task(argv, fault=name) for name, argv in FAULTS]
        return tasks

    def warmup(self) -> list[Task]:
        return [golden_task(argv, expected) for argv, expected in self.goldens]
