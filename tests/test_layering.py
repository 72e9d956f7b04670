"""The package is layered: each module imports only from the modules
before it in ``LAYERS``, and the two siblings over ``forms``, ``foliation``
and ``resonance``, import nothing from each other."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from foliatk import distribution, foliation, forms, residue, resonance
from foliatk.forms import DiffForm

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "foliatk"
LAYERS = ["errors", "linalg", "polynomials", "forms", "foliation", "resonance", "distribution",
          "residue", "parser", "cli"]


def package_imports(module: str) -> set[str]:
    """Modules of the package that ``module`` imports; a name imported from
    the package itself (``from . import __version__``) counts as none."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("foliatk."))
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                path = node.module or ""
            elif (node.module or "").split(".")[0] == "foliatk":
                path = node.module[len("foliatk."):]
            else:
                continue
            if path:
                found.add(path.split(".")[0])
            else:
                found.update(a.name for a in node.names if a.name in LAYERS)
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert modules == set(LAYERS)


def test_modules_import_only_from_earlier_layers():
    for rank, module in enumerate(LAYERS):
        later = package_imports(module) - set(LAYERS[:rank])
        assert not later, f"{module} imports {sorted(later)}"


def test_foliation_and_resonance_are_siblings():
    assert "resonance" not in package_imports("foliation")
    assert "foliation" not in package_imports("resonance")


def test_shared_constructions_live_in_forms():
    # the other modules bind the one definition, not a wrapper of it
    assert foliation.total_differential is forms.total_differential
    assert foliation.first_integral_check is forms.first_integral_check
    assert resonance.diagonal_model_form is forms.diagonal_model_form
    assert distribution.contact_form is forms.contact_form


def test_only_forms_names_the_mask_keyed_store():
    # DiffForm keys its coefficients by index mask in ``_coeffs`` and keeps
    # what it computed once in its other private slots; every other module
    # reads them through ``coeffs``, ``sorted_coeffs`` and the methods
    private = {slot for slot in DiffForm.__slots__ if slot.startswith("_")}
    assert "_coeffs" in private
    for module in set(LAYERS) - {"forms"}:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
        assert not private & names, (module, private & names)


def test_only_polynomials_says_what_a_whole_number_is():
    # a count, degree or index is tested by ``polynomials.whole`` and a weight
    # by ``polynomials.coerce_scalar``; ``linalg`` sits below them and tests
    # its matrix entries itself
    hits = []
    for module in sorted(set(LAYERS) - {"polynomials", "linalg"}):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                kinds = node.args[1]
                kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
                if any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds):
                    hits.append(f"{module}.py:{node.lineno}")
    assert not hits, hits


def numpy_imports(node) -> list:
    """The statements under ``node`` that import numpy or a part of it."""
    return [n for n in ast.walk(node)
            if isinstance(n, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in n.names)
            or isinstance(n, ast.ImportFrom) and not n.level
            and (n.module or "").split(".")[0] == "numpy"]


def test_only_the_loader_imports_numpy():
    # residue._numpy sets the BLAS thread count for the import; a second
    # import elsewhere could load numpy without it
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found = numpy_imports(tree)
        if path.stem == "residue":
            loader, = (n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_numpy")
            assert found and found == numpy_imports(loader)
        else:
            assert not found, path.stem


TASKS = Path("/proc/self/task")  # one entry per thread of the process that reads it
THREADS = "len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else ''"
RESIDUE = "cli.run_command(['residue', '--lambda', '1,2'], stdout=io.StringIO())"


def fresh(script: str, **env: str) -> str:
    """The stdout of ``script``, run in a fresh interpreter that imports the
    package from ``src``, with the BLAS thread variables of ``env`` set and
    no other; the run must succeed."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    base = {k: v for k, v in os.environ.items() if k not in residue.BLAS_THREAD_VARIABLES}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**base, "PYTHONPATH": path, **env}, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_only_the_quadrature_loads_numpy():
    script = (
        "import io, os, sys\n"
        "from foliatk import cli\n"
        "assert 'numpy' not in sys.modules, 'import'\n"
        "assert cli.run_command(['sections-dim', '--n', '3', '--k', '2', '--c', '2'],\n"
        "                       stdout=io.StringIO()) == 0\n"
        "assert 'numpy' not in sys.modules, 'sections-dim'\n"
        "env = dict(os.environ)\n"
        f"assert {RESIDUE} == 0\n"
        "assert 'numpy' in sys.modules, 'residue'\n"
        "assert dict(os.environ) == env, 'environ'\n"
        f"print({THREADS})\n"
    )
    threads = fresh(script).strip()
    # numpy loaded with one OpenBLAS thread: no worker thread spins
    assert threads == ("1" if TASKS.is_dir() else "")


@pytest.mark.parametrize("env, numpy_first", [
    ({"OPENBLAS_NUM_THREADS": "2"}, False),
    ({"GOTO_NUM_THREADS": "2"}, False),
    ({"OMP_NUM_THREADS": "2"}, False),
    ({}, True),
], ids=["OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "numpy-first"])
def test_the_quadrature_keeps_the_callers_blas_threads(env, numpy_first):
    # the process runs as many threads as numpy alone starts under the same
    # choice, and its environment is left as the caller set it
    if not TASKS.is_dir():
        pytest.skip("no /proc/self/task to count threads in")
    script = (
        "import io, os\n"
        + ("import numpy\n" if numpy_first else "")
        + "from foliatk import cli\n"
        "env = dict(os.environ)\n"
        f"assert {RESIDUE} == 0\n"
        "assert dict(os.environ) == env, 'environ'\n"
        f"print({THREADS})\n"
    )
    alone = fresh(f"import os, numpy\nprint({THREADS})\n", **env)
    assert fresh(script, **env) == alone
    if len(os.sched_getaffinity(0)) >= 2:
        assert alone.strip() != "1"  # the choice shows where there are two CPUs
