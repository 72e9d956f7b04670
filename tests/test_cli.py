import argparse
import contextlib
import hashlib
import io
import json
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest

from foliatk import cli
from foliatk import foliation as fol
from foliatk import residue as res_mod
from foliatk import resonance as reso
from foliatk import distribution as dist_mod
from foliatk import forms
from foliatk.forms import DiffForm
from foliatk.polynomials import MultiPoly

GOLDEN_DIR = Path(__file__).parent / "golden"

# name -> argv; every subcommand appears, nine invocations emit JSON
MANIFEST = [
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


def run(argv):
    out = io.StringIO()
    err = io.StringIO()
    code = cli.run_command(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


# -- operation coverage ----------------------------------------------------

# Every engine operation, by the label under which it is counted; the
# golden invocations plus the two resonance queries below must reach each.
# forms.pullback and MultiPoly.substitute are reached by no invocation: they
# stay as the reference that tests/test_kernel_oracle.py checks builds against.
ENGINE_OPERATIONS = {
    "polynomials.arithmetic": MultiPoly.__add__,
    "polynomials.evaluate": MultiPoly.evaluate,
    "polynomials.partial_derivative": MultiPoly.partial_derivative,
    "polynomials.homogeneous_degree": MultiPoly.homogeneous_degree,
    "forms.wedge": DiffForm.wedge,
    "forms.exterior_derivative": DiffForm.exterior_derivative,
    "forms.interior_product": forms.interior_product,
    "forms.wedge_sum": forms.wedge_sum,
    "forms.contract_differentials": forms.contract_differentials,
    "forms.evaluate": DiffForm.evaluate,
    "foliation.validate_projective": fol.validate_projective,
    "foliation.build_rational_component": fol.build_rational_component,
    "foliation.kupka_test": fol.kupka_test,
    "foliation.invariants": fol.invariants,
    "foliation.sections_dimension": fol.sections_dimension,
    "foliation.integrability_check_codim1": fol.integrability_check_codim1,
    "foliation.first_integral_check": fol.first_integral_check,
    "foliation.fibration_exponents": fol.fibration_exponents,
    "resonance.find_resonances": reso.find_resonances,
    "resonance.partition": reso.partition,
    "resonance.build_normal_form": reso.build_normal_form,
    "resonance.verify_normal_form": reso.verify_normal_form,
    "resonance.invariant_hypersurface_check": reso.invariant_hypersurface_check,
    "resonance.analyze_linear_part": reso.analyze_linear_part,
    "residue.closed_form_residue": res_mod.closed_form_residue,
    "residue.grothendieck_residue_numeric": res_mod.grothendieck_residue_numeric,
    "residue.kupka_degree": res_mod.kupka_degree,
    "residue.chern_integrality": res_mod.chern_integrality,
    "residue.codim1_component_solver": res_mod.codim1_component_solver,
    "distribution.class_of": dist_mod.class_of,
    "distribution.build_contact_type": dist_mod.build_contact_type,
    "distribution.verify_darboux_identities": dist_mod.verify_darboux_identities,
    "distribution.kupka_test_distribution": dist_mod.kupka_test_distribution,
}

RESONANCE_QUERIES = [
    ["resonance", "--lambda", "1,2,3", "--target", "2", "--json"],
    ["resonance", "--lambda", "1,2", "--target", "1", "--relation", "2,0", "--json"],
]


def test_invocations_reach_every_operation(monkeypatch):
    from foliatk import parser, polynomials

    reached = set()

    def recording(label, fn):
        def wrapper(*args, **kwargs):
            reached.add(label)
            return fn(*args, **kwargs)
        return wrapper

    namespaces = [polynomials, forms, fol, dist_mod, reso, res_mod, parser, cli,
                  MultiPoly, DiffForm]
    for label, fn in ENGINE_OPERATIONS.items():
        wrapper = recording(label, fn)
        for owner in namespaces:
            for attr, value in list(vars(owner).items()):
                if value is fn:
                    monkeypatch.setattr(owner, attr, wrapper)
    for argv in [argv for _, argv in MANIFEST] + RESONANCE_QUERIES:
        code, _, err = run(argv)
        assert code == 0, (argv, err)
    assert reached == set(ENGINE_OPERATIONS)


def test_every_subcommand_in_manifest():
    parser = cli.build_arg_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert {argv[0] for _, argv in MANIFEST} == set(subparsers.choices)


# -- report shape ----------------------------------------------------------

def test_json_report_shape():
    code, out, err = run(["sections-dim", "--n", "3", "--k", "2", "--c", "2", "--json"])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert list(report) == ["schema", "engine", "command", "inputs", "result"]
    assert report["schema"] == 1
    assert report["engine"].startswith("foliatk ")
    assert report["command"] == "sections-dim"
    assert report["result"] == {"dimension": 6}


def test_text_report_shape():
    code, out, err = run(["sections-dim", "--n", "3", "--k", "2", "--c", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "schema: 1"
    assert "  dimension: 6" in lines


# -- one happy path per subcommand -----------------------------------------

def test_rational_component_result():
    code, out, _ = run(["rational-component", "--polys", "x0;x1", "--degrees", "1,1",
                        "--vars", "3", "--json"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["omega"] == "-x1*dx0 + x0*dx1"
    assert (result["n"], result["k"], result["c"]) == (2, 1, 2)


def test_kupka_test_results():
    code, out, _ = run(["kupka-test", "--form", "x0*dx1 - x1*dx0", "--vars", "3",
                        "--k", "1", "--point", "0,0,1", "--json"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["classification"] == "Kupka"
    assert result["mode"] == "exact" and result["scale_consistent"]

    code, out, _ = run(["kupka-test", "--blow-up", "2", "--json"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["epsilon"] == 1
    assert result["strict_transform"] == "x0^3*dt1^^dt2"


def test_resonance_results():
    code, out, _ = run(["resonance", "--lambda", "1,2,3", "--json"])
    result = json.loads(out)["result"]
    assert code == 0
    assert result["non_resonant"] == [1] and result["resonant"] == [2, 3]
    assert result["G"] == "x0^6" and result["identity_verified"] is True

    code, out, _ = run(["resonance", "--lambda", "1,2,2", "--json"])
    result = json.loads(out)["result"]
    assert code == 0 and result["G"] is None and result["identity_verified"] is None

    code, out, _ = run(["resonance", "--lambda", "1,2,3", "--target", "2", "--json"])
    result = json.loads(out)["result"]
    assert result["relations"] == [[1, 1, 0], [3, 0, 0]]

    code, out, _ = run(["resonance", "--lambda", "1,2", "--target", "1",
                        "--relation", "2,0", "--json"])
    assert json.loads(out)["result"]["invariant_hypersurface"] is True

    code, out, _ = run(["resonance", "--matrix", "1,1;0,1", "--json"])
    result = json.loads(out)["result"]
    assert result["kind"] == "indecomposable"
    assert result["blocks"]["1"] == {"algebraic": 2, "geometric": 1}


def test_normal_form_result():
    code, out, _ = run(["normal-form", "--lambda", "2,4,5", "--json"])
    result = json.loads(out)["result"]
    assert code == 0
    assert result["permutation"] == [0, 2, 1]
    assert result["G"] == "x0^3*x1"
    assert result["identity_verified"] is True

    code, out, _ = run(["normal-form", "--lambda", "2,3,12", "--choice", "1:3,2", "--json"])
    result = json.loads(out)["result"]
    assert result["choices"] == {"1": [3, 2]} and result["identity_verified"] is True
    # a slot chosen twice is refused, not overwritten by its last choice
    code, out, err = run(["normal-form", "--lambda", "2,3,4,5", "--choice", "1:0,3;1:2,0"])
    assert (code, out, err) == (2, "", "error: resonant slot 1 is chosen twice\n")


def test_residue_result():
    code, out, _ = run(["residue", "--lambda", "1,2", "--c", "3", "--json"])
    result = json.loads(out)["result"]
    assert code == 0
    assert abs(result["numeric"]["re"] - 4.5) < 1e-9
    assert result["closed_form"] == "9/2"
    assert result["kupka_degree"] == "2"
    assert result["integrality"]["realizable"] is True


def test_kupka_degree_result():
    code, out, _ = run(["kupka-degree", "--lambda", "1,2", "--c", "3", "--json"])
    result = json.loads(out)["result"]
    assert code == 0
    assert result["kupka_degree"] == "2"
    assert result["product_with_residue"] == result["c_power_m"] == "9"


def test_distribution_class_result():
    code, out, _ = run(["distribution-class", "--contact", "x0;x1;x2;x3",
                        "--vars", "5", "--point", "0,0,0,0,1", "--json"])
    result = json.loads(out)["result"]
    assert code == 0
    assert result["class"] == 2 and result["frobenius_integrable"] is False
    assert result["darboux"]["d_omega_ok"] and result["darboux"]["radial_ok"]
    assert result["point_classification"]["classification"] == "Kupka"

    code, out, _ = run(["distribution-class", "--form", "x0*dx1 - x1*dx0",
                        "--vars", "3", "--json"])
    result = json.loads(out)["result"]
    assert result["class"] == 1 and result["frobenius_integrable"] is True


def test_fibration_result():
    code, out, _ = run(["fibration", "--degrees", "2,3", "--polys",
                        "x0^2 + x1*x2;x3^3 - x0*x1*x2", "--vars", "4", "--json"])
    result = json.loads(out)["result"]
    assert code == 0
    assert result["exponents"] == [3, 2] and result["common_degree"] == 6
    assert result["first_integrals_verified"] is True


def test_codim1_solve_result():
    code, out, _ = run(["codim1-solve", "--c", "6", "--d", "8", "--json"])
    result = json.loads(out)["result"]
    assert result == {"pairs": [[2, 4]], "count": 1}
    code, out, _ = run(["codim1-solve", "--c", "6", "--json"])
    result = json.loads(out)["result"]
    assert result == {"products": [5, 8, 9], "count": 3}
    code, out, _ = run(["codim1-solve", "--c", "100000000000", "--d", "5", "--json"])
    assert code == 0 and json.loads(out)["result"] == {"pairs": [], "count": 0}


# -- exit codes ------------------------------------------------------------

def test_validation_failures_exit_2():
    cases = [
        ["rational-component", "--polys", "x0 +;x1", "--degrees", "1,1", "--vars", "3"],
        ["rational-component", "--polys", "x0;x9", "--degrees", "1,1", "--vars", "3"],
        ["kupka-test", "--form", "x0*dx1 - x1*dx0", "--vars", "3", "--k", "1"],
        ["kupka-test", "--form", "x0*dx1 - x1*dx0", "--vars", "3", "--k", "1",
         "--point", "0,0,bad"],
        ["resonance"],
        ["normal-form", "--lambda", "1,2,2"],
        ["residue"],
        ["kupka-degree", "--lambda", "1,2"],
        ["distribution-class", "--vars", "3"],
        ["sections-dim", "--n", "3", "--k", "3", "--c", "2"],
    ]
    # literals are ASCII digits no longer than the int-to-str digit limit
    long_digits = "1" * 5000
    for polys in ["x0\u00b2;x1", "x\u00b2;x1", "\u00b2*x0;x1", "x0^\u00b2;x1",
                  "\u0663*x0;x1", long_digits + "*x0;x1", "x0^" + long_digits + ";x1",
                  "1/" + long_digits + "*x0;x1", "x" + long_digits + ";x1"]:
        cases.append(["rational-component", "--polys", polys, "--degrees", "1,1", "--vars", "3"])
    for argv in cases:
        code, out, err = run(argv)
        assert code == 2, argv
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv


PENCIL = ["kupka-test", "--form", "x0*dx1 - x1*dx0", "--vars", "3", "--k", "1"]


# argv, and the reason its error line names ("" where only the exit is checked)
NUMBER_FAULTS = [
    (PENCIL + ["--point", "nan,0,1"], ""),
    (PENCIL + ["--point", "0,0,inf"], ""),
    (PENCIL + ["--point", "0j,0,1", "--tol", "nan"], ""),
    (PENCIL + ["--point", "0j,0,1", "--tol", "-1"], ""),
    (PENCIL + ["--point", "0j,0,1", "--tol", "inf"], ""),
    (["residue", "--lambda", "1,2", "--isolation-tol", "nan"], ""),
    (["residue", "--lambda", "1,2", "--isolation-tol", "-1"], ""),
    (["residue", "--lambda", "1,2", "--radii", "inf"], "radii must be finite and positive"),
    (["residue", "--lambda", "1,2", "--sweep", "1,inf"],
     "sweep factor inf must be finite and positive"),
    (["residue", "--lambda", "1,2", "--sweep", "0"],
     "sweep factor 0.0 must be finite and positive"),
    (["residue", "--lambda", "1,2", "--sweep", "nan"],
     "sweep factor nan must be finite and positive"),
    (["residue", "--lambda", "1,2", "--radii", "1e308", "--sweep", "2"],
     "radius 1e+308 times sweep factor 2.0 leaves the float range"),
    # numeric evaluation beyond the float range: 2p overflows, a power
    # overflows, and inf - inf gives a NaN that max() would skip
    (PENCIL + ["--point", "0j,0,1e308"], ""),
    (["kupka-test", "--form", "-x1^3*dx0 + x1*x2^2*dx0 + x0*x1^2*dx1 - x0*x2^2*dx1",
      "--vars", "3", "--k", "1", "--point", "0j,1e200,1e200"], ""),
    (["kupka-test", "--form", "-x1*x2*x5*dx0 + x3*x4*x5*dx0 + x0*x1*x2*dx5 - x0*x3*x4*dx5",
      "--vars", "6", "--k", "4", "--point", "0j,1e200,1e200,1e200,1e200,1"], ""),
]


@pytest.mark.parametrize("argv, reason", NUMBER_FAULTS,
                         ids=[" ".join(argv[-2:])[:48] for argv, _ in NUMBER_FAULTS])
def test_non_finite_and_out_of_range_numbers_exit_2(argv, reason):
    code, out, err = run(argv)
    assert code == 2 and out == ""
    assert "error: " in err and "Warning" not in err
    assert reason in err


@pytest.mark.parametrize("argv, reason", [
    (["rational-component", "--polys", "x0;x1+x2^2", "--degrees", "1,1", "--vars", "3"],
     "generator 1 is not homogeneous"),
    (["rational-component", "--polys", "0;x1", "--degrees", "1,1", "--vars", "3"],
     "generator 0 is zero"),
    (["rational-component", "--polys", "x0;x1^2", "--degrees", "1,1", "--vars", "3"],
     "generator 1 has degree 2, declared 1"),
    (["distribution-class", "--contact", "x0;x1;x2;x3^2", "--vars", "5"],
     "generator 3 has degree 2, generator 0 has degree 1"),
], ids=["inhomogeneous", "zero", "undeclared degree", "unequal degrees"])
def test_a_bad_generator_is_named_by_its_position(argv, reason):
    code, out, err = run(argv)
    assert (code, out, err) == (2, "", f"error: {reason}\n")


def test_expression_depth_and_length():
    component = ["--degrees", "1,1", "--vars", "3"]
    for polys in ["(" * 170 + "x0" + ")" * 170 + ";x1", "-" * 1000 + "x0;x1"]:
        code, out, err = run(["rational-component", "--polys=" + polys] + component)
        assert code == 2 and out == "" and "nesting" in err
    code, out, _ = run(["rational-component", "--polys=" + "+".join(["x0"] * 5000) + ";x1",
                        "--json"] + component)
    assert code == 0 and json.loads(out)["result"]["omega"] == "-5000*x1*dx0 + 5000*x0*dx1"


def test_expression_errors_come_in_reading_order():
    """Tokens are read as the parser needs them, so a character no token
    starts with is reported only when no earlier error is."""
    component = ["--degrees", "1,1", "--vars", "3"]
    for polys, message in [
        ("x0 + + \u00e9;x1", "unexpected '+' at line 1, col 6"),
        ("x0 + 2*x9 + \u00e9;x1", "unknown variable 'x9' at col 8"),
        ("x0 + \u00e9 + +;x1", "unexpected character '\u00e9' at line 1, col 6"),
    ]:
        code, out, err = run(["rational-component", "--polys", polys] + component)
        assert code == 2 and out == "" and err.startswith(f"error: {message}")


def test_rejecting_deep_nesting_reads_only_its_start():
    """The parser stops at the first error, and so does the lexer: the
    400,005-character input (0.4 MB) is rejected at col 65 without
    tokenizing the rest, which took 48 MB as a list of tokens."""
    polys = "(" * 200000 + "x0" + ")" * 200000 + ";x1"
    argv = ["rational-component", "--polys", polys, "--degrees", "1,1", "--vars", "3"]
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, err = run(argv)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == "" and "nesting deeper than 64 levels at line 1, col 65" in err
    assert elapsed < 0.25 and peak < 2**20


def test_numeric_faults_exit_1():
    # at radius 1, X_0 = x0 + x1^2 has two terms of equal modulus: no certificate
    code, _, err = run(["residue", "--field", "x0 + x1^2;x1", "--radii", "1.0"])
    assert code == 1 and err.startswith("error: ")
    # the sweep's torus of radius 1.25, where x1^2 outweighs x0, is refused
    code, _, err = run(["residue", "--field", "x0 + x1^2;x1", "--radii", "0.5",
                        "--sweep", "1.0,2.5"])
    assert code == 1 and err.startswith("error: ")
    # a zero entering the polydisc changes the sum of residues across the sweep
    code, _, err = run(["residue", "--field", "2*x0 + x0^2;x1", "--sweep", "1.0,2.5"])
    assert code == 1 and err.startswith("error: residue varies by ")
    # at radius 1e200 x1^2 outweighs x0 on the grid, and numpy warns of nothing
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(["residue", "--field", "x0 + x1^2;x1", "--radii", "1e200",
                            "--sweep", "1"])
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1
    assert caught == []
    # the unit torus keeps 2 * z1 at radius 1e308 in range: 9/2, as at radius 1
    for sweep in ("1", "0.9,1"):
        code, out, err = run(["residue", "--lambda", "1,2", "--radii", "1e308", "--sweep", sweep])
        assert code == 0 and err == "" and "    re: 4.5\n" in out


@pytest.mark.parametrize("field, reason", [
    # a residue of about 10^400 is past the float range
    ("1" + "0" * 400 + "*x0;x1", "can reach about 10^400.0"),
    # a coefficient 10^400 of x1^2 outweighs x0
    ("x0 + 1" + "0" * 400 + "*x1^2;x1", "no dominant term in x0 alone"),
], ids=["1e400*x0", "x0+1e400*x1^2"])
def test_residue_coefficients_past_the_float_range_exit_1(field, reason):
    code, out, err = run(["residue", "--field", field])
    assert code == 1 and out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert reason in err and "Warning" not in err


def test_an_uncertified_torus_prints_no_residue():
    """The true residue of (x0 + 2 x1, 2 x0 + x1) at 0 is tr(J)^2 / det J =
    -4/3; the torus quadrature read +4/3 because no term of X_0 is a power
    of x0 alone.  (x0^2 + x1^2, x0 x1) read 9 or 0 by the order of its
    radii.  Each exits 1 with no report, naming the component that fails
    and its largest term."""
    code, out, err = run(["residue", "--field", "x0+2*x1;2*x0+x1"])
    assert (code, out) == (1, "")
    assert err == ("error: X_0 = x0 + 2*x1 has no dominant term in x0 alone on the torus "
                   "(largest: 2*x1)\n")
    for radii, named in [("0.1,0.05", "X_1 = x0*x1"), ("0.05,0.1", "X_0 = x0^2 + x1^2")]:
        code, out, err = run(["residue", "--field", "x0^2+x1^2;x0*x1", "--radii", radii])
        assert (code, out) == (1, "") and err.startswith(f"error: {named} has no dominant term")
    code, out, err = run(["residue", "--field", "x1;x0"])
    assert (code, out) == (1, "") and err.startswith("error: X_0 = x1 has no dominant term")


def test_argparse_failures_return_2():
    code, _, _ = run([])
    assert code == 2
    code, _, _ = run(["no-such-command"])
    assert code == 2
    # --tol is an option of the two point classifiers only
    code, out, err = run(["sections-dim", "--n", "3", "--k", "2", "--c", "2", "--tol", "1e-3"])
    assert code == 2 and out == "" and "unrecognized arguments: --tol" in err
    parser = cli.build_arg_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    with_tol = {name for name, sub in subparsers.choices.items()
                if any("--tol" in a.option_strings for a in sub._actions)}
    assert with_tol == {"kupka-test", "distribution-class"}


def test_argparse_output_goes_to_the_given_streams():
    stray_out, stray_err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stray_out), contextlib.redirect_stderr(stray_err):
        for _ in range(2):  # the second call parses with the same parser
            code, out, err = run(["sections-dim", "--n", "x", "--k", "2", "--c", "2"])
            assert code == 2 and out == "" and "invalid int value" in err
            code, out, err = run(["sections-dim", "--help"])
            assert code == 0 and out.startswith("usage: ") and err == ""
    assert stray_out.getvalue() == stray_err.getvalue() == ""


def test_one_argument_parser_per_process(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    run(MANIFEST[0][1])
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    argvs = [argv for _, argv in MANIFEST] + RESONANCE_QUERIES + [
        ["sections-dim", "--n", "x", "--k", "2", "--c", "2"],
        ["codim1-solve", "--c", "6"],
        ["fibration", "--degrees", "2,3"],
    ]
    assert len(argvs) == 20 and {argv[0] for argv in argvs} == {argv[0] for _, argv in MANIFEST}
    for argv in argvs:
        run(argv)
    assert built == []
    cli.build_arg_parser()
    assert len(built) == 11  # the counter sees the top parser and ten subparsers


def test_a_failed_parse_leaves_the_next_call_intact():
    golden = dict(MANIFEST)
    expected = (GOLDEN_DIR / "sections_dim_322.txt").read_text(encoding="utf-8")
    for bad in ([], ["no-such-command"], ["sections-dim", "--n", "x", "--k", "2", "--c", "2"],
                ["sections-dim", "--n", "3", "--k", "2", "--c", "2", "--tol", "1e-3"],
                ["kupka-test", "--tol", "-1", "--point", "0,0,1"]):
        assert run(bad)[0] == 2
        assert run(golden["sections_dim_322"]) == (0, expected, "")


def test_options_of_one_call_do_not_reach_the_next(tmp_path):
    pencil = dict(MANIFEST)["kupka_test_pencil_point"]
    expected = (GOLDEN_DIR / "kupka_test_pencil_point.txt").read_text(encoding="utf-8")
    target = tmp_path / "report.json"
    code, out, _ = run(pencil + ["--json", "--out", str(target), "--tol", "1e-3"])
    assert code == 0 and out == "" and json.loads(target.read_text())["result"]["tol"] == 1e-3
    # the golden is text on stdout and echoes the default tol, 1e-09
    assert run(pencil) == (0, expected, "")


@pytest.mark.parametrize("argv", [
    ["sections-dim", "--n", "7501", "--k", "1", "--c", "15001"],
    ["kupka-degree", "--lambda", "1,1,1,1,1", "--c", "9" * 1000],
    # polynomial and form coefficients: omega's are 6000 digits long
    ["rational-component", "--polys", f"{'7' * 3000}*x0;{'7' * 3000}*x1", "--degrees", "1,1",
     "--vars", "3"],
], ids=["sections-dim", "kupka-degree", "rational-component"])
@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_results_too_long_to_print_exit_2(argv, fmt):
    code, out, err = run(argv + fmt)
    limit = sys.get_int_max_str_digits()
    assert code == 2 and out == ""
    assert err == f"error: result has more than {limit} digits, the interpreter's limit " \
        "for integer string conversion\n"


PRIMES = "2,3,5,7,11,13,17,19,23"
TEENS = "10,11,12,13,14,15,16,17,18,19"
PERTURBED = ["residue", "--field", "x0 + x1^2;x1", "--radii", "0.5", "--sweep", "0.8,1.0,1.2"]


@pytest.mark.parametrize("argv, budget", [
    (["resonance", "--matrix", ";".join([",".join(["0"] * 60)] * 60)], "MATRIX_BUDGET"),
    (["codim1-solve", "--c", str(2 * res_mod.PRODUCT_BUDGET + 2)], "PRODUCT_BUDGET"),
    (["resonance", "--lambda", f"{PRIMES},200", "--target", "9"], "RELATION_BUDGET"),
    (["resonance", "--lambda", f"{TEENS},300"], "RELATION_BUDGET"),
    (["normal-form", "--lambda", f"{TEENS},300"], "RELATION_BUDGET"),
    (PERTURBED + ["--samples", "2049"], "QUADRATURE_BUDGET"),
    (["residue", "--lambda", "1,2", "--samples", str(res_mod.QUADRATURE_BUDGET // 2 + 1)],
     "QUADRATURE_BUDGET"),
    (["residue", "--field", "x0 + x1^2;x1;x2;x3"], "QUADRATURE_BUDGET"),
    (["rational-component", "--polys", "2^100000000*x0;x1", "--degrees", "1,1", "--vars", "3"],
     "COEFFICIENT_BUDGET"),
    (["rational-component", "--polys", "x0;x1", "--degrees", "1,1", "--vars", "20000"],
     "MAX_VARIABLES"),
    (["normal-form", "--lambda", ",".join(map(str, range(1, 258)))], "MAX_VARIABLES"),
    (["kupka-test", "--blow-up", "256"], "MAX_VARIABLES"),
    (["rational-component", "--polys", "(x0+x1)^4000;x1", "--degrees", "4000,1", "--vars", "3"],
     "TERM_PAIR_BUDGET"),
    (["rational-component", "--polys", "(x0+x1+x2)^88;x3", "--degrees", "88,1", "--vars", "4"],
     "TERM_PAIR_BUDGET"),
    # the first-integral wedge of (m_0 f_1 df_0 - m_1 f_0 df_1) with omega is priced whole
    (["fibration", "--polys", "(x0+x1+x2)^24;x3", "--degrees", "24,1", "--vars", "4"],
     "TERM_PAIR_BUDGET"),
    (["fibration", "--polys", "(x0+x1+x2)^87;x3", "--degrees", "87,1", "--vars", "4"],
     "TERM_PAIR_BUDGET"),
    # df_0 ^ df_1 of the component takes 7 * C(28, 2)^2 = 1,000,188 term pairs
    (["rational-component", "--polys", "(x0+x1+x2)^27;(x1+x2+x3)^27", "--degrees", "27,27",
      "--vars", "4"], "TERM_PAIR_BUDGET"),
    # the last squaring takes 1000^2 term pairs of about 1,000-bit coefficients
    (["rational-component", "--polys", "(x0+x1)^1998;x2", "--degrees", "1998,1", "--vars", "3"],
     "SQUARING_BUDGET"),
    # C(1500000, 500000) * C(999999, 500000) has over 700,000 digits
    (["sections-dim", "--n", "1000000", "--k", "500000", "--c", "1000000"],
     f"more than {sys.get_int_max_str_digits()} digits"),
    # Fraction("1e10000000") alone takes 12 s to build its 10,000,001 digits
    (PENCIL + ["--point", "1e10000000,0,1"],
     f"number '1e10000000' has more than {sys.get_int_max_str_digits()} digits"),
    (PENCIL + ["--point", "0,1.5e-4299,1"],
     f"number '1.5e-4299' has more than {sys.get_int_max_str_digits()} digits"),
    (["resonance", "--matrix", "1e10000000,0;0,1"],
     f"number '1e10000000' has more than {sys.get_int_max_str_digits()} digits"),
], ids=["matrix-60x60", "products-just-over", "relations-target",
        "relations-partition", "relations-normal-form", "quadrature-grid", "quadrature-per-axis",
        "quadrature-grid-4-vars", "coefficient-power", "variables-vars", "variables-lambda",
        "variables-blow-up", "term-pairs-binomial", "term-pairs-just-over",
        "term-pairs-fibration-just-over", "term-pairs-fibration-87",
        "term-pairs-component-just-over", "squaring-1998",
        "digits-sections-dim",
        "digits-coordinate", "digits-coordinate-denominator", "digits-matrix-entry"])
def test_work_budgets_exit_2_at_once(argv, budget):
    start = time.perf_counter()
    code, out, err = run(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and err.startswith("error: ") and budget in err


# the eigenvalues of the matrices answered below
MATRIX_EIGENVALUES = {
    "100000000000000000000000,0;0,1": "[1, 100000000000000000000000]",
    "1000000000001,0;0,1": "[1, 1000000000001]",
    "1000000000039,0;0,2": "[2, 1000000000039]",
}


@pytest.mark.parametrize("argv", [
    ["resonance", "--lambda", f"{PRIMES},60", "--target", "9"],
    ["resonance", "--lambda", f"{TEENS},60"],
    ["resonance", "--lambda", "1,10000000"],
    ["resonance", "--lambda", ",".join(map(str, [*range(1, 7), *range(1000, 3000)])),
     "--target", "5"],
    PERTURBED + ["--samples", "2048"],
    ["residue", "--lambda", "1,2", "--samples", "65536"],
    ["rational-component", "--polys", "2^1000*x0;x1", "--degrees", "1,1", "--vars", "3"],
    ["rational-component", "--polys", "x0;x1", "--degrees", "1,1", "--vars", "256"],
    ["kupka-test", "--blow-up", "8"],
    # the last squaring takes C(45, 2)^2 = 980100 term pairs; exponent 88 takes 1035^2
    ["rational-component", "--polys", "(x0+x1+x2)^87;x3", "--degrees", "87,1", "--vars", "4"],
    # the last squaring takes 512^2 term pairs times 512 bits, about 1.3e8
    ["rational-component", "--polys", "(x0+x1)^1022;x2", "--degrees", "1022,1", "--vars", "3"],
    # the first-integral wedge takes 953,856 term pairs; exponent 24 takes 1,125,000
    ["fibration", "--polys", "(x0+x1+x2)^23;x3", "--degrees", "23,1", "--vars", "4"],
    # df_0 ^ df_1 of the component takes 7 * C(27, 2)^2 = 862,407 term pairs
    ["rational-component", "--polys", "(x0+x1+x2)^26;(x1+x2+x3)^26", "--degrees", "26,26",
     "--vars", "4"],
    # (c + 1) * (c - 1) = 10^limit - 1 has as many digits as the limit allows
    ["sections-dim", "--n", "2", "--k", "1", "--c",
     "1" + "0" * (sys.get_int_max_str_digits() // 2)],
    # 10^4000 and 10^4299 have 4,001 and 4,300 digits
    PENCIL + ["--point", "1e4000,0,1"],
    PENCIL + ["--point", "0,1e-4299,1"],
    ["resonance", "--matrix", "100000000000000000000000,0;0,1"],
    ["resonance", "--matrix", "1000000000001,0;0,1"],
    ["resonance", "--matrix", "1000000000039,0;0,2"],
], ids=["relations-target", "relations-partition", "relations-last-position",
        "relations-2006-values", "quadrature-grid", "quadrature-per-axis", "coefficient-power",
        "variables-vars", "variables-blow-up", "term-pairs", "squaring-1022", "term-pairs-fibration",
        "term-pairs-component",
        "digits-sections-dim", "digits-coordinate", "digits-coordinate-denominator",
        "divisors-10^23", "divisors-just-over", "matrix-prime-over-10^12"])
def test_inputs_inside_the_work_budgets_are_answered(argv):
    code, out, err = run(argv)
    assert code == 0 and err == "" and out.startswith("schema: 1\n")
    if "--matrix" in argv:
        assert f"  eigenvalues: {MATRIX_EIGENVALUES[argv[-1]]}\n" in out


@pytest.mark.parametrize("matrix, factor", [
    ("0,-1;1,0", "t^2 + 1"),
    ("1/2,0,0;0,0,-1;0,1/3,0", "t^2 + 1/3"),
    ("2,0,0;0,1,1;0,1,0", "t^2 - t - 1"),
])
def test_a_characteristic_polynomial_that_does_not_split_is_named(matrix, factor):
    code, out, err = run(["resonance", "--matrix", matrix])
    assert code == 2 and out == ""
    assert err == "error: characteristic polynomial does not split over the rationals: " \
        f"{factor} has no rational root\n"


@pytest.mark.parametrize("head, option, value", [
    (["kupka-test", "--form", "x0*dx1 - x1*dx0", "--vars", "3", "--k", "1"], "--point", "-1,0,1"),
    (["resonance"], "--matrix", "-1,0;0,2"),
    (["rational-component", "--degrees", "1,1", "--vars", "3"], "--polys", "-x0;x1"),
])
def test_negative_values_after_a_space(head, option, value):
    spaced = run(head + [option, value])
    assert spaced == run(head + [f"{option}={value}"])
    assert spaced[0] == 0 and spaced[2] == ""


def test_negative_tolerance_after_a_space_exits_2():
    code, out, err = run(["kupka-test", "--form", "x0*dx1 - x1*dx0", "--vars", "3", "--k", "1",
                          "--point", "0,0,1", "--tol", "-1"])
    assert code == 2 and out == "" and "argument --tol: expected a finite positive number" in err


def test_out_writes_file(tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(["sections-dim", "--n", "3", "--k", "2", "--c", "2",
                        "--json", "--out", str(target)])
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["result"] == {"dimension": 6}


def test_out_to_a_missing_directory_exits_2(tmp_path):
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run(["sections-dim", "--n", "3", "--k", "2", "--c", "2", "--out", str(target)])
    assert code == 2 and out == ""
    assert err == f"error: cannot write the report to {target}: No such file or directory\n"


@pytest.mark.parametrize("argv", [
    ["sections-dim", "--n", "7501", "--k", "1", "--c", "15001"],
    ["kupka-degree", "--lambda", "1,1,1,1,1", "--c", "9" * 1000],
], ids=["int", "fraction"])
@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_a_result_too_long_to_print_creates_no_out_file(tmp_path, argv, fmt):
    """The report is rendered whole before ``--out`` opens its file, so a
    result past the int-to-str limit exits 2 and leaves no file behind."""
    target = tmp_path / "report.txt"
    code, out, err = run(argv + fmt + ["--out", str(target)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: result has more than {sys.get_int_max_str_digits()} digits")
    assert not target.exists()


def unread(argv, option, path):
    """Assert that ``argv`` exits 2 on its first unread option."""
    assert run(argv) == (2, "", f"error: {option} is not read {path}\n")


def test_kupka_test_refuses_options_its_input_path_never_reads():
    blow_up = ["kupka-test", "--blow-up", "2"]
    for option, value in [("--point", "1,2,3"), ("--form", "x0"), ("--polys", "x0;x1"),
                          ("--degrees", "1,1"), ("--vars", "3"), ("--k", "1"), ("--c", "2"),
                          ("--tol", "1e-3")]:
        unread(blow_up + [option, value], option, "with --blow-up")
    form = PENCIL + ["--point", "0,0,1"]
    unread(form + ["--polys", "x0;x1"], "--polys", "with --form")
    unread(form + ["--degrees", "1,1"], "--degrees", "with --form")
    polys = ["kupka-test", "--polys", "x0;x1", "--degrees", "1,1", "--vars", "3",
             "--point", "0,0,1"]
    unread(polys + ["--k", "1"], "--k", "without --form")
    unread(polys + ["--c", "2"], "--c", "without --form")
    assert run(polys)[0] == 0 and run(form + ["--c", "2"])[0] == 0


def test_resonance_refuses_options_its_input_path_never_reads():
    matrix = ["resonance", "--matrix", "1,1;0,1"]
    for option, value in [("--lambda", "1,2"), ("--target", "0"), ("--relation", "1,0")]:
        unread(matrix + [option, value], option, "with --matrix")
    assert run(matrix)[0] == 0


def test_residue_refuses_options_its_input_path_never_reads():
    field = ["residue", "--field", "x0;2*x1"]
    unread(field + ["--lambda", "1,2"], "--lambda", "with --field")
    assert run(field)[0] == 0


def test_distribution_class_refuses_options_its_input_path_never_reads():
    contact = ["distribution-class", "--contact", "x0;x1;x2;x3", "--vars", "5"]
    unread(contact + ["--form", "x0*dx1"], "--form", "with --contact")
    form = ["distribution-class", "--form", "x0*dx1 - x1*dx0", "--vars", "3"]
    unread(form + ["--r", "1"], "--r", "with --form")
    unread(contact + ["--tol", "1e-3"], "--tol", "without --point")
    unread(form + ["--tol", "1e-3"], "--tol", "without --point")
    assert run(contact + ["--r", "2"])[0] == 0 and run(form)[0] == 0
    assert run(contact + ["--point", "0,0,0,0,1", "--tol", "1e-3"])[0] == 0


def test_fibration_refuses_one_degree():
    assert run(["fibration", "--degrees", "1"]) == (
        2, "", "error: a fibration needs at least two degrees, got 1\n")


def test_fibration_refuses_vars_without_polys():
    unread(["fibration", "--degrees", "2,3", "--vars", "4"], "--vars", "without --polys")
    assert run(["fibration", "--degrees", "2,3"])[0] == 0


def test_exponents_up_to_the_bound_are_answered():
    def component(exponent, *fmt):
        return run(["rational-component", "--polys", f"x0^{exponent};x1",
                    "--degrees", f"{exponent},1", "--vars", "3", *fmt])

    code, out, err = component(2**63)
    assert code == 2 and out == ""
    assert err == "error: the power has an exponent above MAX_EXPONENT = 2^63 - 1\n"
    top = 2**63 - 1
    code, out, _ = component(top, "--json")
    assert code == 0
    assert json.loads(out)["result"]["omega"] == \
        f"-{top}*x0^{top - 1}*x1*dx0 + {top}*x0^{top}*dx1"
    # exponents past 2^32 print as they did with tuple exponents
    code, out, _ = component(5000000000)
    assert code == 0 and out.endswith(
        "  omega: -5000000000*x0^4999999999*x1*dx0 + 5000000000*x0^5000000000*dx1\n"
        "  transversal_weights: [5000000000, 1]\n")


# -- golden suite ----------------------------------------------------------

def test_golden_suite_byte_stable():
    for name, argv in MANIFEST * 2:
        expected = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
        code1, out1, err1 = run(argv)
        code2, out2, err2 = run(argv)
        assert code1 == code2 == 0, name
        assert err1 == err2 == "", name
        assert out1 == out2, name
        assert out1 == expected, name



LARGE_REPORT = ["resonance", "--lambda", "2,3,5,7,11,13,17,19,23,110", "--target", "9"]


@pytest.mark.parametrize("fmt, size, digest", [
    ([], 1_343_062, "1b20fb6c9a315ffae4db5f199b4c7c7272b7c5d76d26c42f4b617130e4930e22"),
    (["--json"], 5_220_983, "7bf10f76d0e306b4ca7dbc56135186d2266b5effee218dcb8a4a37ce3159bfb9"),
], ids=["text", "json"])
def test_large_report_bytes(fmt, size, digest):
    """A report of many relation tuples keeps its bytes, in both formats."""
    code, out, err = run(LARGE_REPORT + fmt)
    data = out.encode("utf-8")
    assert code == 0 and err == ""
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


AGREEMENT = [argv for _, argv in MANIFEST] + RESONANCE_QUERIES + [
    ["resonance", "--matrix", "1/2,0;0,3/2"],
    ["kupka-degree", "--lambda", "1,2,3", "--c", "12"],
    ["residue", "--lambda", "1,2", "--c", "3"],
    ["kupka-test", "--form", "x0*dx1 - x1*dx0", "--vars", "3", "--k", "1", "--point", "0,1j,1"],
    ["distribution-class", "--contact", "x0;x1;x2;x3", "--vars", "5",
     "--point", "0,0,0,0.5j,1"],
]


@pytest.mark.parametrize("argv", [[a for a in argv if a != "--json"] for argv in AGREEMENT],
                         ids=lambda argv: " ".join(argv))
def test_the_text_report_renders_the_json_report(argv):
    """Each renderer converts engine values on its own; the text report is
    still the JSON report rendered as text."""
    code, text, err = run(argv)
    assert code == 0, err
    code, out, err = run(argv + ["--json"])
    assert code == 0, err
    assert cli.render_text(json.loads(out)) == text


@pytest.mark.parametrize("brk", ["\n", "\r", "\u2028"], ids=["lf", "cr", "u2028"])
@pytest.mark.parametrize("template", [
    ["kupka-test", "--form", "x0*dx1{} - x1*dx0", "--vars", "3", "--k", "1", "--point", "0,0,1"],
    ["resonance", "--matrix", "1,1;0,1{}"],
    ["kupka-test", "--form", "x0*dx1 - x1*dx0", "--vars", "3", "--k", "1", "--point", "0,0,1{}"],
], ids=["form", "matrix", "point"])
def test_a_line_break_in_echoed_input_stays_on_its_line(template, brk):
    """Echoed option text with a line break prints as a JSON string literal,
    so the text report has as many lines as with a space in its place."""
    code, out, err = run([item.format(brk) for item in template])
    assert code == 0, err
    _, spaced, _ = run([item.format(" ") for item in template])
    assert len(out.split("\n")) == len(spaced.split("\n"))
    assert out.splitlines() == out.split("\n")[:-1]
    assert json.dumps(brk)[1:-1] in out


def test_text_quotes_the_strings_that_splitlines_breaks():
    breaks = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2029", "\r\n"]
    for brk in breaks:
        assert cli.render_text({"s": f"a{brk}"}) == f"s: {json.dumps(f'a{brk}')}\n"
    assert cli.render_text({"s": "", "t": "a\tb \u00e9", "u": ["x\ny", "z"]}) == (
        's: \nt: a\tb \u00e9\nu: ["x\\ny", z]\n')

def test_benchmark_trace_hooks_reach_the_parser(monkeypatch):
    """``perfbench/tracing.py`` wraps the parser's public functions by
    name; a rename there would break ``run.py --trace 1`` silently."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code, _, err = run(dict(MANIFEST)["kupka_test_pencil_point"])
    finally:
        tracer.uninstall()
    assert code == 0, err
    assert tracer.calls["parser.parse"] >= 1 and tracer.calls["parser.to_form"] >= 1


def test_benchmark_trace_hooks_count_the_euler_contraction(monkeypatch):
    """``DiffForm.is_projective`` contracts through ``interior_product``,
    which ``perfbench/tracing.py`` wraps, so the per-layer trace counts
    every Euler contraction: the hand-written pencil of the Kupka golden is
    contracted once."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code, _, err = run(dict(MANIFEST)["kupka_test_pencil_point"])
    finally:
        tracer.uninstall()
    assert code == 0, err
    assert tracer.calls["forms.interior_product"] >= 1


def test_benchmark_trace_hooks_reach_the_class_chain(monkeypatch):
    """``perfbench/tracing.py`` also wraps ``class_of``,
    ``kupka_test_distribution`` and ``DiffForm.exterior_derivative`` by
    name; each must still be called on the way to a distribution's verdict."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code, _, err = run(dict(MANIFEST)["distribution_contact5"])
    finally:
        tracer.uninstall()
    assert code == 0, err
    for name in ["distribution.class_of", "distribution.kupka_test_distribution",
                 "forms.exterior_derivative"]:
        assert tracer.calls[name] >= 1, name


def test_a_zero_probe_is_not_summed_again(monkeypatch):
    """After a zero probe, ``wedge_vanishes`` prices the whole wedge but
    multiplies only the groups not summed yet: on the first-integral check
    at the edge of ``TERM_PAIR_BUDGET``, no coefficient group reaches the
    kernel twice."""
    from foliatk import polynomials

    summed = []  # kept alive, so no two entries share an id
    real = polynomials._sum_triples
    monkeypatch.setattr(polynomials, "_sum_triples",
                        lambda dim, triples: summed.append(triples) or real(dim, triples))
    code, _, err = run(["fibration", "--polys", "(x0+x1+x2)^23;x3", "--degrees", "23,1",
                        "--vars", "4"])
    assert code == 0, err
    assert any(len(triples) > 1 for triples in summed)
    assert len({id(triples) for triples in summed}) == len(summed)


def test_text_lists_of_ints_print_plain_and_bools_as_words():
    report = {"ints": [3, -1, 0], "mixed": [1, True, None, [2, False]], "empty": []}
    assert cli.render_text(report) == (
        "ints: [3, -1, 0]\nmixed: [1, true, null, [2, false]]\nempty: []\n")
    assert cli.render_text({"flags": [True, False]}) == "flags: [true, false]\n"


def test_distribution_class_runs_the_class_chain_once(monkeypatch):
    """``distribution-class --point`` reports the class and the Kupka verdict
    from one chain, kept on the form: for the class-2 contact form on five
    variables that is one zero test, ``omega' ^ eta`` on the ``dx_j``
    quotient, which the Frobenius test reads back from the kept class.  The
    quotient has four covectors, so degree decides ``k = 2``, and the Kupka
    test takes the square of ``d omega(p)``: no wedge is built."""
    built, tested = [], []
    wedge, vanishes = DiffForm.wedge, DiffForm.wedge_vanishes
    monkeypatch.setattr(DiffForm, "wedge", lambda self, other: (
        built.append(self)) or wedge(self, other))
    monkeypatch.setattr(DiffForm, "wedge_vanishes", lambda self, other: (
        tested.append(other.degree)) or vanishes(self, other))
    code, out, err = run(dict(MANIFEST)["distribution_contact5"])
    assert code == 0, err
    assert json.loads(out)["result"]["class"] == 2
    assert built == []
    assert tested == [2]
    assert json.loads(out)["result"]["frobenius_integrable"] is False


@pytest.mark.parametrize("module, name", [
    ("exact_ladder", "ExactLadder"), ("cli_session", "CliSession"),
    ("residue_quadrature", "ResidueQuadrature"),
], ids=["exact_ladder", "cli_session", "residue_quadrature"])
def test_each_workload_passes_its_checks(monkeypatch, module, name):
    """Rounds 0 and 1 of each ``perfbench`` workload, run in process
    through its harness: every task's check passes and none fails.
    ``cli_session`` compares reports with the golden files byte for byte."""
    root = Path(__file__).resolve().parent.parent
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import harness

    cls = getattr(__import__(module), name)
    workload = cls(2001, root) if module == "cli_session" else cls(2001)
    stats = harness.run_rounds(workload, seconds=0, min_rounds=2, max_rounds=2)
    assert stats.rounds == 2 and stats.attempted == 2 * len(workload.round(0))
    assert stats.correct and stats.failed == 0, stats.errors


def test_benchmark_trace_hooks_reach_the_residue_kernels(monkeypatch):
    """``perfbench/tracing.py`` names each quadrature span after the path the
    field takes; the per-layer residue metrics follow the kernels only while
    a ``--field`` call lands on the grid and a ``--lambda`` call on the
    per-axis path."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import tracing

    paths = {"residue_perturbed": ("residue.numeric_grid", "residue.numeric_separable", 256**2),
             "residue_diag12": ("residue.numeric_separable", "residue.numeric_grid", 0)}
    for golden, (taken, other, grid_points) in paths.items():
        tracer = tracing.Tracer()
        tracer.install()
        try:
            code, _, err = run(dict(MANIFEST)[golden])
        finally:
            tracer.uninstall()
        assert code == 0, err
        # one quadrature per radius-sweep factor, three in both goldens
        assert tracer.calls[taken] == 3 and tracer.calls[other] == 0, golden
        assert tracer.self_s[taken] > 0 and tracer.counts["residue.numerator_terms"] > 0
        assert tracer.counts["residue.numeric_grid.points"] == 3 * grid_points, golden
    assert not hasattr(res_mod.grothendieck_residue_numeric, "__wrapped__")


def test_residue_reports_do_not_depend_on_earlier_runs():
    """Each quadrature plan samples its own circle, so a residue invocation
    repeated in one process, after others at other sample counts, prints
    the same bytes."""
    diagonal = [run(["residue", "--lambda", "1,2", "--samples", n]) for n in ("256", "512", "256")]
    perturbed = [run(dict(MANIFEST)["residue_perturbed"]) for _ in range(2)]
    assert all(code == 0 for code, _, _ in diagonal + perturbed)
    assert diagonal[0] == diagonal[2] and diagonal[0] != diagonal[1]
    assert perturbed[0] == perturbed[1]
