"""Per-layer tracing from outside the program: wrap public calls, time them.

:class:`LayerTracer` patches the public functions and methods where one
layer calls into the next, times every call with ``perf_counter`` and keeps
a call stack, so a layer's self time is its calls' duration minus the
wrapped calls made inside them.  Nothing under ``src/`` changes; the
wrappers are installed in the benchmark's own process and removed by
:meth:`LayerTracer.uninstall`.

Wrapped boundaries (layer name: callee):

* ``frontend``: ``VerificationTask.load`` (first load of each task only is
  counted as front-end work; later calls are memo hits);
* ``cache.key``: ``cache_key``;
* ``encoding``: ``warm_task_templates``;
* ``ladder``: ``run_sequential_ladder``;
* ``engines``: each registered engine class's ``verify``;
* ``sat``: ``repro.sat.solver.Solver.solve`` plus ``Solver.stats`` deltas;
* ``certs``: ``CertificateValidator.validate``, split by certificate kind;
* ``cache.lookup`` / ``cache.store``: ``ResultCache.lookup`` /
  ``ResultCache.store`` (validation inside a lookup is also reported as
  ``certs.hit_validate_s``);
* ``cache.minimize``: ``minimize_certificate`` as the cache calls it.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

LAYERS = (
    "frontend",
    "cache.key",
    "encoding",
    "ladder",
    "engines",
    "sat",
    "certs",
    "cache.lookup",
    "cache.store",
    "cache.minimize",
)

CERT_KINDS = ("witness", "inductive", "k-inductive")

#: engine statuses that decide nothing: time spent on them is wasted work
WASTED_STATUSES = ("unknown", "timeout")


class _Frame:
    __slots__ = ("layer", "start", "children_s")

    def __init__(self, layer: str, start: float) -> None:
        self.layer = layer
        self.start = start
        self.children_s = 0.0


class LayerTracer:
    """Install wrappers, collect per-layer counts and times, uninstall."""

    def __init__(self) -> None:
        self._stack: List[_Frame] = []
        self._patches: List[tuple] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.values: Dict[str, float] = defaultdict(float)
        self.ladder_walls: List[float] = []
        #: top-level engine calls inside a ladder: (engine, seconds, status)
        self.attempts: List[tuple] = []
        self._seen_tasks = set()

    # ------------------------------------------------------------------
    def _call(self, layer: str, fn: Callable, args, kwargs, after=None):
        frame = _Frame(layer, time.perf_counter())
        parent_layers = [f.layer for f in self._stack]
        self._stack.append(frame)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame.start
            self.self_s[layer] += duration - frame.children_s
            if self._stack:
                self._stack[-1].children_s += duration
            if after is not None:
                after(duration, args, result, parent_layers)

    def _patch(self, owner, attr: str, layer: str, after=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer._call(layer, original, args, kwargs, after)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # ------------------------------------------------------------------
    def install(self) -> "LayerTracer":
        from repro.cache import key as key_module
        from repro.cache import result_cache
        from repro.certs.validate import CertificateValidator
        from repro.engines import batch, portfolio
        from repro.engines.registry import ENGINE_REGISTRY, list_engines
        from repro.sat.solver import Solver

        values = self.values

        def on_load(duration, args, result, parents):
            task = args[0]
            fresh = len(args) > 1 and args[1] or False
            key = (task.kind, repr(task.spec))
            if key in self._seen_tasks and not fresh:
                return
            self._seen_tasks.add(key)
            values["frontend.loads"] += 1
            values["frontend.load_s"] += duration
            if task.kind == "verilog":
                values["frontend.verilog_load_s"] += duration

        self._patch(portfolio.VerificationTask, "load", "frontend", on_load)

        def on_key(duration, args, result, parents):
            values["cache.key_s"] += duration

        self._patch(key_module, "cache_key", "cache.key", on_key)
        self._patch(result_cache, "cache_key", "cache.key", on_key)

        def on_warm(duration, args, result, parents):
            values["encoding.warm_s"] += duration

        self._patch(portfolio, "warm_task_templates", "encoding", on_warm)
        self._patch(batch, "warm_task_templates", "encoding", on_warm)

        def on_ladder(duration, args, result, parents):
            self.ladder_walls.append(duration)

        self._patch(batch, "run_sequential_ladder", "ladder", on_ladder)

        def on_verify(duration, args, result, parents):
            name = getattr(args[0], "name", "?")
            registration = ENGINE_REGISTRY.get(name)
            name = registration.name if registration is not None else name
            values[f"engine.{name}.calls"] += 1
            values[f"engine.{name}.s"] += duration
            status = getattr(result, "status", "error")
            if "ladder" in parents and "engines" not in parents:
                self.attempts.append((name, duration, status))

        patched = set()
        for registration in list_engines():
            cls = registration.engine_class
            for klass in cls.__mro__:
                if "verify" in klass.__dict__ and klass not in patched:
                    if getattr(klass.__dict__["verify"], "__isabstractmethod__", False):
                        continue
                    patched.add(klass)
                    self._patch(klass, "verify", "engines", on_verify)

        def solve(original):
            @functools.wraps(original)
            def wrapper(solver, *args, **kwargs):
                stats = solver.stats
                before = (stats.conflicts, stats.decisions, stats.propagations)
                try:
                    return self._call("sat", original, (solver,) + args, kwargs)
                finally:
                    values["sat.solves"] += 1
                    values["sat.conflicts"] += stats.conflicts - before[0]
                    values["sat.decisions"] += stats.decisions - before[1]
                    values["sat.propagations"] += stats.propagations - before[2]

            return wrapper

        original_solve = Solver.__dict__["solve"]
        self._patches.append((Solver, "solve", original_solve))
        Solver.solve = solve(original_solve)

        def on_validate(duration, args, result, parents):
            kind = str(getattr(args[1], "kind", "?"))
            values["certs.validations"] += 1
            values["certs.validate_s"] += duration
            values[f"certs.{kind}.validations"] += 1
            values[f"certs.{kind}.validate_s"] += duration
            if "cache.lookup" in parents:
                values["certs.hit_validate_s"] += duration

        self._patch(CertificateValidator, "validate", "certs", on_validate)

        def on_lookup(duration, args, result, parents):
            values["cache.lookup_s"] += duration
            if getattr(result, "hit", False):
                values["cache.hits"] += 1
            else:
                values["cache.misses"] += 1
            if getattr(result, "demoted", False):
                values["cache.demotions"] += 1

        def on_store(duration, args, result, parents):
            values["cache.store_s"] += duration

        def on_minimize(duration, args, result, parents):
            values["cache.minimize_s"] += duration

        self._patch(result_cache.ResultCache, "lookup", "cache.lookup", on_lookup)
        self._patch(result_cache.ResultCache, "store", "cache.store", on_store)
        self._patch(result_cache, "minimize_certificate", "cache.minimize", on_minimize)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def metrics(self, engines: Optional[List[str]] = None) -> Dict[str, float]:
        """Every layer metric, zero where the layer did no work."""
        out: Dict[str, float] = {}
        for name in (
            "frontend.loads", "frontend.load_s", "frontend.verilog_load_s",
            "cache.key_s", "encoding.warm_s",
            "sat.solves", "sat.solve_s", "sat.conflicts", "sat.decisions",
            "sat.propagations", "certs.validations", "certs.validate_s",
            "certs.hit_validate_s",
            "cache.hits", "cache.misses", "cache.demotions", "cache.lookup_s",
            "cache.store_s", "cache.minimize_s",
        ):
            out[name] = float(self.values.get(name, 0.0))
        out["sat.solve_s"] = self.self_s.get("sat", 0.0)
        for kind in CERT_KINDS:
            for suffix in ("validations", "validate_s"):
                out[f"certs.{kind}.{suffix}"] = float(
                    self.values.get(f"certs.{kind}.{suffix}", 0.0)
                )
        for engine in engines or []:
            for suffix in ("calls", "s"):
                out[f"engine.{engine}.{suffix}"] = float(
                    self.values.get(f"engine.{engine}.{suffix}", 0.0)
                )
        attempts = len(self.attempts)
        unknown = [a for a in self.attempts if a[2] in WASTED_STATUSES]
        definitive = [a for a in self.attempts if a[2] in ("safe", "unsafe")]
        out["ladder.attempts"] = float(attempts)
        out["ladder.attempts_unknown"] = float(
            sum(1 for a in self.attempts if a[2] == "unknown")
        )
        out["ladder.useful_ratio"] = len(definitive) / attempts if attempts else 0.0
        out["ladder.wasted_s"] = sum(a[1] for a in unknown)
        out["ladder.wall_s"] = sum(self.ladder_walls)
        out["ladder.unit_wall_p50_s"] = (
            statistics.median(self.ladder_walls) if self.ladder_walls else 0.0
        )
        out["ladder.unit_wall_max_s"] = max(self.ladder_walls, default=0.0)
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = self.self_s.get(layer, 0.0)
        return out
