"""Every function a heatzeta module exports is run by `verify` or the CLI.

Each function named in a module's ``__all__`` and defined in that module
(the selection ``perfbench/tracer.py`` traces) is wrapped and rebound in
every ``heatzeta.*`` namespace that holds it.  Full ``verify`` and one op of
each other subcommand must then call every one, so an export that nothing
runs fails here.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import heatzeta
from heatzeta import cli

MODULES = ("cli", "verify", "graphs", "heat_graph", "heat_tree", "bessel", "series", "zeta")
# BENCHMARK.json's per-layer metrics name heat_graph.heat_kernel_series, and the
# benchmark's own tests call it; the CLI and verify use heat_kernel_series_row
EXEMPT = {"heat_graph.heat_kernel_series"}

K4_EDGES = "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"


def _exports() -> dict:
    found = {}
    for short in MODULES:
        module = importlib.import_module(f"heatzeta.{short}")
        for attr in module.__all__:
            obj = getattr(module, attr)
            if (
                callable(obj)
                and not inspect.isclass(obj)
                and getattr(obj, "__module__", None) == module.__name__
            ):
                found[f"{short}.{attr}"] = obj
    return found


def _recording(fn, name: str, called: set):
    def wrapper(*args, **kwargs):
        called.add(name)
        return fn(*args, **kwargs)

    return wrapper


def test_every_export_is_called(monkeypatch, capsys, tmp_path):
    exports = _exports()
    called: set = set()
    namespaces = [
        module
        for name, module in sys.modules.items()
        if name == "heatzeta" or name.startswith("heatzeta.")
    ]
    for name, fn in exports.items():
        wrapper = _recording(fn, name, called)
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if value is fn:
                    monkeypatch.setattr(namespace, attr, wrapper)
    path = tmp_path / "k4.txt"
    path.write_text(K4_EDGES)
    for argv in (
        ["verify"],
        ["analyze", "--graph", str(path), "--order", "4"],
        ["heat", "--graph", "petersen", "--t", "0.5"],
        ["zeta", "--graph", "cube", "--order", "6"],
    ):
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    assert "heat_graph.heat_kernel_series" in exports
    assert sorted(set(exports) - EXEMPT - called) == []


def test_no_module_imports_scipy_special():
    # the building blocks come from the package's own log evaluator
    found = []
    for path in sorted(Path(heatzeta.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names if name.startswith("scipy.special")]
    assert found == []
