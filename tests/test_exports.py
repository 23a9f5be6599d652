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
    assert sorted(set(exports) - called) == []


# the slow independent routes, and the routes of verify's identities, that only
# verify and the tests may run
ORACLES = (
    "graphs.geodesic_counts",
    "graphs.enumerate_geodesics",
    "graphs.enumerate_geodesic_counts",
    "graphs.enumerate_closed_geodesics",
    "heat_graph.heat_kernel_series_row",
    "heat_graph.heat_kernel_series",
    "heat_graph.heat_kernel_ode",
    "bessel.bessel_i",
    "bessel.bessel_i_quadrature",
    "bessel.building_block",
    "heat_tree.tree_heat_kernel_time_derivatives",
    "heat_tree.horocycle_solution",
    "heat_graph.diagonal_tree_decomposition",
    "zeta.g_transform_numeric",
    "zeta.euler_product_series",
    "zeta.two_variable_zeta",
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


def names_outside(owners: dict[str, set[str]]) -> list[str]:
    """file:line: name for each name of owners, as a name, an attribute or an import,
    in a module of the package outside that name's owning files."""
    found = []
    for path in sorted(Path(heatzeta.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno}: {name}"
                for name in names
                if path.name not in owners.get(name, {path.name})
            ]
    return found


def importers(module: str) -> list[str]:
    """file:line of each import of module in a module of the package."""
    found = []
    for path in sorted(Path(heatzeta.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names if name == module]
    return found


def test_bessel_owns_the_time_grid():
    # every heat route reads its blocks through bessel._grid_passes, so a patch of
    # bessel's evaluator or cap reaches them all; verify's G-transform of blocks
    # reads the evaluator as bessel.log_building_blocks.  Each time's start and cut
    # are bessel's too: no other module names the Miller margin or bisects orders
    owners = {
        "_GRID_ENTRIES": {"bessel.py"},
        "_miller_margin": {"bessel.py"},
        "log_building_blocks": {"bessel.py", "verify.py"},
    }
    assert names_outside(owners) == []
    assert importers("bisect") == []


def test_one_recursion_owns_the_gather():
    # every walk of the package, series and Chebyshev rows, geodesic counts and walk
    # counts, runs through graphs._recursion, the one caller of the gather
    assert names_outside({"_adjacency_gather": {"graphs.py"}}) == []


def test_zeta_runs_no_eigensolve():
    # the determinant formula reads closed-walk traces: only heat_graph's spectral
    # routes build the Laplacian, and nothing calls eigvalsh
    assert names_outside({"laplacian": {"heat_graph.py"}, "eigvalsh": set()}) == []


def test_bessel_owns_the_log_tail():
    # the tree values cut at one certified_truncation per parity, so only bessel reads
    # the log tail of its bound
    assert names_outside({"_log_tail": {"bessel.py"}}) == []


def test_trapezoid_rule_serves_the_tree_measure_and_the_g_transform():
    # every tree-measure integral runs through bessel._tree_measure, which holds the
    # tree's density once; zeta's half-line G-transform is the rule's one other caller
    assert names_outside({"_nested_trapezoid": {"bessel.py", "zeta.py"}}) == []


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


def test_no_verify_check_has_a_default():
    # each check's graphs or trees come from its run_* caller, and a value used
    # once is a constant in the check
    tree = ast.parse(Path(importlib.import_module("heatzeta.verify").__file__).read_text())
    found = [
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("check_")
        and (node.args.defaults or any(node.args.kw_defaults))
    ]
    assert found == []


def test_no_verify_check_builds_a_graph():
    # run_graph_checks builds each graph once and hands it to every check
    tree = ast.parse(Path(importlib.import_module("heatzeta.verify").__file__).read_text())
    found = [
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("check_")
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "builtin_graph"
    ]
    assert found == []
