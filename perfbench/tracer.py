"""Per-layer tracing of heatzeta from outside the package.

The tracer wraps every public function of the eight heatzeta modules (the
names in each module's ``__all__`` that are functions defined there) plus a
few methods, and rebinds each wrapper in every ``heatzeta.*`` namespace that
holds the same object.  Rebinding everywhere matters: ``heat_graph``,
``heat_tree`` and ``zeta`` import ``building_block`` and ``spectral_data``
by name, so patching only the defining module would miss their calls.

Each call is a span.  A span's self time is its duration minus the time of
the spans it caused, so the modules' self times sum to the time of the
outermost span (``cli.main``) with nothing counted twice.  Spans are folded
into per-function totals in memory as they close; ``end_op`` hands back the
totals for one op.  ``Graph.out_edges`` is deliberately not wrapped: it runs
more than 700k times per counting op, and its cost already shows in
``Graph.regularity`` and in ``geodesic_counts`` self time.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

MODULES = ("cli", "verify", "graphs", "heat_graph", "heat_tree", "bessel", "series", "zeta")
METHODS = (
    ("graphs", "Graph", "regularity"),
    ("series", "PowerSeries", "__mul__"),
    ("series", "PowerSeries", "exp"),
    ("series", "PowerSeries", "log"),
    ("zeta", "TreeDensity", "integrate"),
)


class Tracer:
    """Wraps heatzeta's public functions; ``install`` and ``uninstall`` toggle it."""

    def __init__(self) -> None:
        self._stack: list[list[float]] = []  # child time of each open span
        self._stats: dict[str, list] = {}  # name -> [calls, incl_s, self_s, errors, depth]
        self._building_block_args: set = set()
        self._edge_steps = 0
        self._patches: list[tuple[object, str, object, object]] = []  # (owner, attr, original, wrapper)
        self._spectral_misses = 0
        self._spectral_data = importlib.import_module("heatzeta.heat_graph").spectral_data
        targets = []  # (original, span name)
        for short in MODULES:
            module = importlib.import_module(f"heatzeta.{short}")
            for attr in module.__all__:
                obj = getattr(module, attr)
                if callable(obj) and not inspect.isclass(obj) and getattr(obj, "__module__", None) == module.__name__:
                    targets.append((obj, f"{short}.{attr}"))
        namespaces = [m for name, m in sys.modules.items() if name == "heatzeta" or name.startswith("heatzeta.")]
        for obj, name in targets:
            wrapper = self._wrap(obj, name)
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is obj:
                        self._patches.append((namespace, attr, obj, wrapper))
        for short, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"heatzeta.{short}"), cls_name)
            original = vars(cls)[method]
            self._patches.append((cls, method, original, self._wrap(original, f"{short}.{cls_name}.{method}")))
        self.span_names = sorted(self._stats)

    def _note_block_args(self, args, kwargs) -> None:
        self._building_block_args.add((args, tuple(sorted(kwargs.items()))))

    def _note_edge_steps(self, args, kwargs) -> None:
        g, _x0, K = args[:3]
        # edge-transfer steps, computed from the arguments: K |E| q
        self._edge_steps += K * g.n_edges * (g.origin.count(g.origin[0]) - 1)

    def _wrap(self, fn, name: str):
        stack = self._stack
        st = self._stats[name] = [0, 0.0, 0.0, 0, 0]
        hook = {"bessel.building_block": self._note_block_args,
                "graphs.geodesic_counts": self._note_edge_steps}.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            st[0] += 1
            st[4] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                st[3] += 1
                raise
            finally:
                duration = clock() - start
                stack.pop()
                st[4] -= 1
                if st[4] == 0:  # inclusive time counts only the outermost active call
                    st[1] += duration
                st[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    def begin_op(self) -> None:
        for st in self._stats.values():
            st[:] = [0, 0.0, 0.0, 0, 0]
        self._building_block_args.clear()
        self._edge_steps = 0
        self._spectral_misses = self._spectral_data.cache_info().misses

    def end_op(self) -> dict[str, float]:
        """Flat per-function and per-module totals for the op just run."""
        out: dict[str, float] = {}
        for name, (calls, incl, self_s, errors, _depth) in self._stats.items():
            if not calls:
                continue
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = incl
            out[f"{name}.self_s"] = self_s
            out[f"{name}.errors"] = errors
            module = name.split(".", 1)[0]
            out[f"{module}.calls"] = out.get(f"{module}.calls", 0) + calls
            out[f"{module}.self_s"] = out.get(f"{module}.self_s", 0.0) + self_s
            out[f"{module}.errors"] = out.get(f"{module}.errors", 0) + errors
        out["bessel.building_block.distinct_args"] = len(self._building_block_args)
        out["graphs.geodesic_counts.edge_steps"] = self._edge_steps
        out["heat_graph.spectral_data.misses"] = (
            self._spectral_data.cache_info().misses - self._spectral_misses
        )
        return out
