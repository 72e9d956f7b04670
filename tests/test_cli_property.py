"""Property test: ``run_command`` on generated argv always ends in an exit
code and never writes outside the streams it is given."""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from foliatk import cli  # noqa: E402

# each subcommand's own options; --json and --out are shared, --out is left out
OPTIONS = {
    "rational-component": ["--polys", "--degrees", "--vars"],
    "kupka-test": ["--polys", "--degrees", "--form", "--vars", "--k", "--c", "--point",
                   "--blow-up", "--tol"],
    "resonance": ["--lambda", "--target", "--relation", "--matrix"],
    "normal-form": ["--lambda", "--choice"],
    "residue": ["--lambda", "--field", "--c", "--radii", "--sweep", "--isolation-tol"],
    "kupka-degree": ["--lambda", "--c"],
    "distribution-class": ["--form", "--contact", "--vars", "--r", "--declared-class",
                           "--point", "--tol"],
    "fibration": ["--degrees", "--polys", "--vars"],
    "sections-dim": ["--n", "--k", "--c"],
    "codim1-solve": ["--c", "--d"],
}


def joined(piece, sep, max_size):
    return st.lists(piece, min_size=1, max_size=max_size).map(sep.join)


SMALL_INT = st.integers(-2, 6).map(str)
INTS = joined(st.sampled_from(["1", "2", "3", "4", "5", "6", "7", "0", "-1"]), ",", 5)
POLY = st.sampled_from(["x0", "x1", "x2", "x4", "x0^2 + x1*x2", "x0*x1 - x3^2", "x2^3",
                        "1/2*x1", "0", "x0 +", "x9", "(x0", "2", "x0\u00b2", "1" * 5000])
FORM = st.sampled_from(["x0*dx1 - x1*dx0", "x0*dx1", "x2*dx0^^dx1 - x1*dx0^^dx2",
                        "x0*dx1 - x1*dx0 + x2*dx3 - x3*dx2", "dx0 +", "", "x0"])
POINT = joined(st.sampled_from(["0", "1", "-1", "1/2", "1e-9", "2j", "nan", "inf", "x"]), ",", 5)
MATRIX = st.sampled_from(["1,1;0,1", "2,0;0,3", "0,1;-1,0", "1,2;3", "a", "1/2,0;0,1/3",
                          "0,1;0,0", "100000000000000000000000,0;0,1"])
REAL = st.sampled_from(["1.0", "0.5", "2", "0", "-1", "inf", "nan", "x", "1e-6"])

VALUES = {
    "--polys": joined(POLY, ";", 3),
    "--contact": joined(POLY, ";", 4),
    "--field": joined(POLY, ";", 3),
    "--degrees": INTS,
    "--lambda": INTS,
    "--relation": INTS,
    "--vars": st.integers(0, 5).map(str),
    "--form": FORM,
    "--point": POINT,
    "--matrix": MATRIX,
    "--choice": st.sampled_from(["1:2,0", "1:1", "2:0,3;1:1,0", "x", "1"]),
    "--radii": joined(REAL, ",", 3),
    "--sweep": joined(REAL, ",", 3),
    "--tol": REAL,
    "--isolation-tol": REAL,
    "--blow-up": st.integers(-1, 4).map(str),
    **{name: SMALL_INT for name in ["--k", "--c", "--n", "--d", "--r", "--target",
                                    "--declared-class"]},
}
FLAGS = ["--json", "--help", "--bogus"]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(OPTIONS) + ["no-such-command"]))
    names = draw(st.lists(st.sampled_from(OPTIONS.get(command, ["--c"])), unique=True))
    names += draw(st.lists(st.sampled_from(sorted(VALUES) + FLAGS), max_size=1))
    argv = [command]
    for name in draw(st.permutations(names)):
        argv.append(name)
        if name in VALUES:
            argv.append(draw(VALUES[name]))
    if command == "residue":
        # keep the quadrature grid small: at most 16 samples per circle
        argv += ["--samples", str(draw(st.integers(0, 16)))]
    return argv


@settings(max_examples=200, derandomize=True, deadline=None)
@given(argvs())
def test_run_command_ends_in_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    stray_out, stray_err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stray_out), contextlib.redirect_stderr(stray_err):
        code = cli.run_command(argv, stdout=out, stderr=err)
    assert code in (0, 1, 2)
    assert stray_out.getvalue() == stray_err.getvalue() == ""
    assert (code == 0) == (err.getvalue() == "") or "--help" in argv
