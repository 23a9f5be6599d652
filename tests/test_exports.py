"""Every function a heatzeta module exports is run by `verify` or the CLI.

Each function named in a module's ``__all__`` and defined in that module
(the selection ``perfbench/tracer.py`` traces) is wrapped and rebound in
every ``heatzeta.*`` namespace that holds it.  Full ``verify`` and one op of
each other subcommand must then call every one, so an export that nothing
runs fails here.  The other way round, the production subcommands must run
with every oracle patched to raise, and every name a module exports must be
defined in that module.
"""

import ast
import importlib
import inspect
import os
import subprocess
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


def _patch_everywhere(monkeypatch, fn, replacement) -> None:
    """Rebind fn to replacement in every heatzeta.* namespace that holds it."""
    namespaces = [
        module
        for name, module in sys.modules.items()
        if name == "heatzeta" or name.startswith("heatzeta.")
    ]
    for namespace in namespaces:
        for attr, value in list(vars(namespace).items()):
            if value is fn:
                monkeypatch.setattr(namespace, attr, replacement)


def _recording(fn, name: str, called: set):
    def wrapper(*args, **kwargs):
        called.add(name)
        return fn(*args, **kwargs)

    return wrapper


def test_every_export_is_called(monkeypatch, capsys, tmp_path):
    exports = _exports()
    called: set = set()
    for name, fn in exports.items():
        _patch_everywhere(monkeypatch, fn, _recording(fn, name, called))
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


# the slow independent routes that only verify and the tests may run
ORACLES = (
    "graphs.geodesic_counts",
    "graphs.enumerate_geodesics",
    "graphs.enumerate_closed_geodesics",
    "heat_graph.heat_kernel_series_row",
    "heat_graph.heat_kernel_series",
    "heat_graph.heat_kernel_ode",
    "bessel.bessel_i",
    "bessel.bessel_i_quadrature",
    "bessel.building_block",
    "bessel.building_block_time_derivatives",
)


def _refusing(name: str):
    def refuse(*args, **kwargs):
        raise AssertionError(f"production path called the oracle {name}")

    return refuse


def test_production_commands_call_no_oracle(monkeypatch, capsys):
    commands = [
        [command, "--graph", graph, *options]
        for graph in ("k4", "petersen", "cube", "k33", "c5")
        for command, options in (
            ("analyze", ["--order", "12"]),
            ("zeta", ["--order", "12"]),
            ("heat", ["--t", "0.1,1,20,200"]),
        )
    ]
    commands += [
        ["heat", "--graph", "tree", "--q", q, "--order", "12", "--t", "0.1,1,5"] for q in "234"
    ]
    expected = []
    for argv in commands:
        assert cli.main(argv) == 0, argv
        expected.append(capsys.readouterr())
    exports = _exports()
    for name in ORACLES:
        _patch_everywhere(monkeypatch, exports[name], _refusing(name))
    for argv, before in zip(commands, expected):
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr() == before, argv


def test_every_public_name_is_defined_in_its_module():
    # one place per name: a module lists in __all__ only what it defines itself
    found = []
    for short in MODULES:
        module = importlib.import_module(f"heatzeta.{short}")
        defined = set()
        for node in ast.parse(Path(module.__file__).read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        found += [f"{short}.{name}" for name in module.__all__ if name not in defined]
    assert found == []


def test_no_module_imports_scipy():
    # every integral and the propagator run on numpy alone; scipy serves the tests
    found = []
    for path in sorted(Path(heatzeta.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}: {name}" for name in names if name.split(".")[0] == "scipy"
            ]
    assert found == []


def test_no_module_uses_numpy_fft():
    # every integral runs on bessel._nested_trapezoid, with no FFT error estimate beside it
    found = []
    for path in sorted(Path(heatzeta.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names if "fft" in name.split(".")]
    assert found == []


def test_fresh_verify_loads_no_scipy():
    code = (
        "import sys; import heatzeta.cli as cli; "
        "assert cli.main(['verify', '--graph', 'k4']) == 0; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), file=sys.stderr)"
    )
    env = dict(os.environ)
    source_root = str(Path(heatzeta.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[]\n"


def test_package_namespace_binds_no_function_or_class():
    # the modules are the one import path: heatzeta.graphs, heatzeta.zeta, ...
    bound = [
        name
        for name, value in vars(heatzeta).items()
        if inspect.isfunction(value) or inspect.isclass(value)
    ]
    assert bound == []


def test_every_approx_states_abs():
    # pytest.approx's default abs of 1e-12 would pass any pin on a value below it
    found = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "approx"
                and "abs" not in {keyword.arg for keyword in node.keywords}
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
