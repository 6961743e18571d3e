"""What importing the package loads: numpy stays out of the analytic path, and deferred names resolve."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import seqdef
from seqdef.experiments_cli import run

SRC = str(Path(seqdef.__file__).resolve().parents[1])
ANALYTIC_COMMANDS = ("qc-sweep", "m1", "worst-case", "empirical", "operation-curves")


def _fresh(code):
    """Run `code` in a fresh interpreter that imports seqdef from this checkout; stdout as bytes."""
    proc = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": SRC}, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc


def test_import_leaves_numpy_out():
    # the analytic names need only the standard library; numpy loads where arrays are built
    _fresh("import sys, seqdef, seqdef.experiments_cli; assert 'numpy' not in sys.modules")


@pytest.mark.parametrize("command", ANALYTIC_COMMANDS)
def test_analytic_command_leaves_numpy_out(command, capsys):
    code = (
        "import sys\n"
        "from seqdef import experiments_cli\n"
        f"sys.argv = ['seqdef', {command!r}]\n"
        "try:\n"
        "    experiments_cli.main()\n"
        "finally:\n"
        "    sys.stderr.write(f'numpy loaded: {\"numpy\" in sys.modules}')\n"
    )
    proc = _fresh(code)
    assert proc.stderr == b"numpy loaded: False"
    assert run([command]) == 0
    assert proc.stdout == capsys.readouterr().out.encode()


def test_empirical_thresholds_leave_numpy_out():
    # an empirical model's analytic readers share one pure-Python pmf; cutoff_degree returned np.float64
    _fresh(
        "import sys\n"
        "from seqdef import DegreeModel, cutoff_degree, moments, qc_random, thin\n"
        "model = DegreeModel.empirical({2: .5, 4: .25, 7: .25}, n=1000)\n"
        "moments(model), qc_random(model), thin(model, 0.3)\n"
        "cutoff = cutoff_degree(model, 0.3)\n"
        "assert type(cutoff) is float, type(cutoff)\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded'\n"
    )


def test_public_names_resolve_by_getattr():
    # each name is the object its home module defines, whether bound at import or on first use
    _fresh(
        "import sys, seqdef\n"
        "for name in seqdef.__all__:\n"
        "    value = getattr(seqdef, name)\n"
        "    assert value is getattr(sys.modules[value.__module__], name), name\n"
    )


def test_public_names_resolve_by_star_import():
    _fresh("from seqdef import *\nimport seqdef\nmissing = set(seqdef.__all__) - set(globals())\nassert not missing, missing")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        seqdef.no_such_name
    with pytest.raises(ImportError):
        from seqdef import no_such_name  # noqa: F401
    _fresh(
        "import sys, seqdef\n"
        "try:\n"
        "    seqdef.no_such_name\n"
        "except AttributeError:\n"
        "    assert 'numpy' not in sys.modules\n"
        "else:\n"
        "    raise AssertionError('seqdef.no_such_name resolved')\n"
    )


def test_simulate_detection_loads_graph_engine():
    # perfbench's tracer looks up seqdef.graph_engine in sys.modules for every workload, the detection
    # workload too, which imports only simulate_detection; so binding it must load graph_engine
    _fresh("import sys\nfrom seqdef import simulate_detection\nassert 'seqdef.graph_engine' in sys.modules")


def _package_imports(source):
    """The package modules that `source` imports, at any depth: relative or through `seqdef`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "seqdef"):
            base = (node.module or "").removeprefix("seqdef").lstrip(".")
            found |= {base} if base else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {alias.name.removeprefix("seqdef.") for alias in node.names if alias.name.startswith("seqdef.")}
    return found


def test_package_imports_reads_every_form():
    source = "from . import a\nfrom .b import x\nimport seqdef.c\nfrom seqdef.d import y\n"
    source += "def f():\n    from seqdef import e\n    import numpy\n    from math import log\n"
    assert _package_imports(source) == set("abcde")


@pytest.mark.parametrize("module", ["percolation_analytic", "degree_models"])
def test_threshold_layer_imports_no_detection_or_graph_code(module):
    # the threshold layer reads only the numeric helpers, the errors and the degree models
    found = _package_imports((Path(seqdef.__file__).parent / f"{module}.py").read_text())
    assert found <= {"_solve", "_rand", "errors", "degree_models"}, found
