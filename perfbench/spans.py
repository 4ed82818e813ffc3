"""Span tracing installed from outside the package.

``Tracer.install`` replaces public entry points of the ``homlie`` modules
with wrappers that record spans; ``Tracer.uninstall`` puts the originals
back.  Nothing in ``src/`` is edited.  A function imported by name into
several modules (``from .linalg import nullspace_of_rows``) is replaced in
every module namespace that holds it.

Spans are kept in memory.  Per-row wrappers (row iterators, elimination,
``multiply``, membership tests) only update per-name aggregates; coarser
spans are also kept as records ``(id, parent, name, start, end)`` so that
``dump`` can write them when the run ends.  Per name the tracer sums calls,
self time (a span's duration minus the durations of its direct child
spans) and total time.
"""

from __future__ import annotations

import functools
import importlib.machinery
import json
import sys
import time

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.stack: list[list] = []
        self.agg: dict[str, list] = {}  # name -> [calls, self seconds, total seconds]
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._solved: set = set()
        self._systems: list[list[int]] = []

    # -- spans -------------------------------------------------------------

    def enter(self, name: str, keep: bool = True) -> list:
        self._next_id += 1
        frame = [name, _clock(), 0.0, self._next_id, keep]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = _clock()
        name, start, child, sid, keep = frame
        self.stack.pop()
        dur = end - start
        if self.stack:
            self.stack[-1][2] += dur
        slot = self.agg.get(name)
        if slot is None:
            slot = self.agg[name] = [0, 0.0, 0.0]
        slot[0] += 1
        slot[1] += dur - child
        slot[2] += dur
        if keep:
            parent = self.stack[-1][3] if self.stack else 0
            self.spans.append((sid, parent, name, start, end))

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def begin_pass(self) -> None:
        """Forget which (algebra, kind) pairs were solved: repeats are
        counted within one pass."""
        self._solved.clear()

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn, name, keep: bool = True):
        """``name`` is a span name or a function of the call's arguments."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.enter(name if isinstance(name, str) else name(*args, **kwargs), keep)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(frame)

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "homlie" and not modname.startswith("homlie."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def _function(self, module, attr: str, name, keep: bool = True) -> None:
        original = getattr(module, attr)
        self._patch_everywhere(original, self.wrap(original, name, keep))

    def _method(self, cls, attr: str, name, keep: bool = True) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self.wrap(raw.__func__, name, keep)))
        else:
            self._set(cls, attr, self.wrap(raw, name, keep))

    def install(self) -> None:
        from homlie import actions, algebra, battery, constructions, jordan, linalg, scenarios, serialize, solver, window

        for attr in ("builtin", "make_algebra"):
            self._function(algebra, attr, "algebra.build")
        self._method(algebra.AlgebraSpec, "multiply", "algebra.multiply", keep=False)

        for attr in ("km_window", "tensor_lie", "central_extension", "semidirect_derivation", "adjoin_map"):
            self._function(constructions, attr, "constructions.build")

        solve = solver.solve_structures

        def solve_structures(alg, kind):
            key = (alg.dim, alg.flavor, tuple(sorted(alg.table.items())), kind)
            if key in self._solved:
                self.count("solver.solve_repeats")
            self._solved.add(key)
            return solve(alg, kind)

        self._patch_everywhere(solve, self.wrap(functools.wraps(solve)(solve_structures), "solver.solve"))

        # One wrapper per importing module, so that the time spent producing
        # rows is charged to the compiler that produced them.
        nullspace_of_rows = linalg.nullspace_of_rows
        for module, compile_name in ((solver, "solver.compile"), (window, "window.compile")):
            self._set(module, "nullspace_of_rows", self._nullspace_wrapper(nullspace_of_rows, compile_name))

        add = linalg.RowAccumulator.add

        def accumulate(acc, row):
            direct = self._in_system()
            frame = self.enter("linalg.eliminate", keep=False)
            try:
                grew = add(acc, row)
            finally:
                self.exit(frame)
            if direct:
                system = self._systems[-1]
                system[3] = acc
                system[0] += 1
                if grew:
                    system[1] += 1
                    system[2] = system[0]
            return grew

        self._set(linalg.RowAccumulator, "add", accumulate)
        for attr in ("rref_matrix", "nullspace"):
            self._method(linalg.RowAccumulator, attr, "linalg.backsub", keep=False)
        for attr in ("from_spanning", "combine", "contains"):
            self._method(linalg.Subspace, attr, "linalg.subspace", keep=False)

        self._function(window, "solve_window", "window.solve")
        self._function(window, "_inner_report", "window.inner_report")

        self._function(actions, "act", "actions.act", keep=False)
        self._function(actions, "rational_eigenvalues", "actions.eigen")

        self._function(jordan, "closure_check", "jordan.closure")
        self._function(jordan, "counterexample_suite", "jordan.counterexample")

        for attr in ("lie_battery", "random_lie_battery"):
            self._function(battery, attr, "battery.generate")
        for i, (prop, fn) in enumerate(list(battery.PROPERTY_CHECKS)):
            self._set_item(battery.PROPERTY_CHECKS, i, (prop, self.wrap(fn, f"battery.check.{prop}")))

        self._method(scenarios.Scenario, "execute", lambda sc: f"scenarios.{sc.id}")

        for attr in ("format_scalar", "parse_scalar"):
            self._function(serialize, attr, "serialize.json", keep=False)
        for attr in ("algebra_to_json", "algebra_from_json", "partial_to_json", "subspace_to_json", "solution_to_json"):
            self._function(serialize, attr, "serialize.json")
        if "homlie.cli" in sys.modules:
            self._set(sys.modules["homlie.cli"], "json", _TracedJson(self))

        sys.meta_path.insert(0, _SympyImportTimer(self))

    def _set_item(self, seq: list, index: int, value) -> None:
        self._patches.append((seq, index, seq[index]))
        seq[index] = value

    def _in_system(self) -> bool:
        """True when the caller is ``nullspace_of_rows`` itself, so that rows
        of nested subspace work are not counted as rows of the system."""
        return bool(self.stack) and self.stack[-1][0] == "linalg.nullspace_of_rows"

    def _nullspace_wrapper(self, original, compile_name: str):
        tracer = self

        def timed_rows(rows):
            it = iter(rows)
            while True:
                frame = tracer.enter(compile_name, keep=False)
                try:
                    row = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.exit(frame)
                yield row

        def nullspace_of_rows(ncols, rows):
            # rows in, rows that raised the rank, index of the last such row, accumulator
            system = [0, 0, 0, None]
            tracer._systems.append(system)
            try:
                return original(ncols, timed_rows(rows))
            finally:
                tracer._systems.pop()
                if compile_name == "window.compile":
                    tracer.count("window.blocks")
                tracer.count("linalg.systems")
                tracer.count("linalg.rows_in", system[0])
                tracer.count("linalg.rows_rank", system[1])
                tracer.count("linalg.last_rank_rows", system[2])
                if system[3] is not None:
                    bits = max((abs(v).bit_length() for row in system[3].pivots.values() for v in row.values()), default=0)
                    tracer.counts["linalg.max_pivot_bits"] = max(tracer.counts.get("linalg.max_pivot_bits", 0), bits)

        return self.wrap(nullspace_of_rows, "linalg.nullspace_of_rows")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(attr, int):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        sys.meta_path[:] = [f for f in sys.meta_path if not isinstance(f, _SympyImportTimer)]

    # -- output ------------------------------------------------------------

    def to_json(self) -> dict:
        return {"agg": self.agg, "counts": self.counts}

    def merge(self, doc: dict) -> None:
        for name, values in doc["agg"].items():
            slot = self.agg.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(values):
                slot[i] += v
        for name, n in doc["counts"].items():
            if name == "linalg.max_pivot_bits":
                self.counts[name] = max(self.counts.get(name, 0), n)
            else:
                self.count(name, n)

    def dump(self, path, **extra) -> None:
        with open(path, "w") as f:
            json.dump({"agg": self.agg, "counts": self.counts, "spans": self.spans, **extra}, f)


class _TracedJson:
    """Stands in for the ``json`` module inside ``homlie.cli`` so that
    encoding the command's output is charged to the serialize layer."""

    def __init__(self, tracer: Tracer):
        self.dumps = tracer.wrap(json.dumps, "serialize.json")

    def __getattr__(self, attr):
        return getattr(json, attr)


class _SympyImportTimer:
    """Meta-path hook that times the first (lazy) ``import sympy``."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path=None, target=None):
        if fullname != "sympy":
            return None
        sys.meta_path.remove(self)
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        tracer = self.tracer

        def timed_exec(module):
            frame = tracer.enter("actions.sympy_import")
            try:
                exec_module(module)
            finally:
                tracer.exit(frame)

        spec.loader.exec_module = timed_exec
        return spec
