"""The package is layered: each module imports only from the modules
before it in ``LAYERS``, and the two siblings over ``forms``, ``foliation``
and ``resonance``, import nothing from each other."""

import ast
import os
import subprocess
import sys
from pathlib import Path

from foliatk import foliation, forms, resonance
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


def test_only_the_quadrature_loads_numpy():
    script = (
        "import io, sys\n"
        "from foliatk import cli\n"
        "assert 'numpy' not in sys.modules, 'import'\n"
        "assert cli.run_command(['sections-dim', '--n', '3', '--k', '2', '--c', '2'],\n"
        "                       stdout=io.StringIO()) == 0\n"
        "assert 'numpy' not in sys.modules, 'sections-dim'\n"
        "assert cli.run_command(['residue', '--lambda', '1,2'], stdout=io.StringIO()) == 0\n"
        "assert 'numpy' in sys.modules, 'residue'\n"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
