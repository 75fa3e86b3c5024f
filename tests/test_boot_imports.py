"""A ``repro serve`` boot imports only the code serving runs.

The package facades (``repro``, ``repro.serve``, ``repro.experiments``)
resolve their re-exports on first access, and the CLI imports the experiment
registry only for ``run`` and ``list``, so a serve boot compiles neither the
experiment runners nor the evaluator, the socket client or the trace
recorder.  The facade tests pin that every public name still resolves to the
object its defining module holds.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"

_BOOT_SCRIPT = """
import json, sys
from repro.cli import main
status = main(
    ["serve", "--users", "1", "--requests", "2", "--scale", "smoke", "--no-artifacts", "--quiet"]
)
print(json.dumps({"status": status, "modules": sorted(sys.modules)}))
"""

#: Modules a serve boot must not import (``repro.eval`` and everything under it too).
NOT_IMPORTED_BY_SERVE = (
    "repro.experiments.common",
    "repro.experiments.registry",
    "repro.experiments.figure2",
    "repro.experiments.figure3",
    "repro.experiments.table2",
    "repro.experiments.table3",
    "repro.experiments.table4",
    "repro.eval",
    "repro.serve.client",
    "repro.serve.trace",
    "multiprocessing",
)

FACADES = ("repro", "repro.serve", "repro.experiments")


def test_serve_boot_imports_only_the_serving_code():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_ROOT) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", _BOOT_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert report["status"] == 0
    loaded = [
        module
        for module in report["modules"]
        if any(module == name or module.startswith(name + ".") for name in NOT_IMPORTED_BY_SERVE)
    ]
    assert loaded == []


def _static_exports(package: str):
    """``(module, name)`` pairs of the facade's ``if TYPE_CHECKING:`` imports."""
    path = importlib.import_module(package).__file__
    tree = ast.parse(Path(path).read_text())
    [block] = [
        node
        for node in tree.body
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING"
    ]
    return [(node.module, alias.name) for node in block.body for alias in node.names]


@pytest.mark.parametrize("package", FACADES)
def test_every_public_name_resolves_to_its_defining_object(package):
    module = importlib.import_module(package)
    exports = _static_exports(package)
    names = {name for _, name in exports}
    # The static import block covers __all__ (a facade may re-export a few
    # names beyond it), and dir() lists every re-export.
    assert set(module.__all__) - {"__version__"} <= names
    assert names | set(module.__all__) <= set(dir(module))
    for source, name in exports:
        assert getattr(module, name) is getattr(importlib.import_module(source), name), name
    with pytest.raises(AttributeError, match="no attribute 'not_a_public_name'"):
        getattr(module, "not_a_public_name")


@pytest.mark.parametrize("package", FACADES)
def test_star_import_binds_every_public_name(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    module = importlib.import_module(package)
    for name in module.__all__:
        assert namespace[name] is getattr(module, name)
