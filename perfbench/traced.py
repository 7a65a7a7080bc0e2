"""The traced in-process pass (a child of ``run.py``).

Usage: ``python3 perfbench/traced.py SPEC.json`` with ``units``,
``cache_dir`` and ``traced`` (bool) in the spec.  It drives every unit
sequentially through the same calls a batch pool worker and its parent
make::

    VerificationTask.load -> warm_task_templates
      -> run_sequential_ladder -> ResultCache.store

then, with ``traced``, replays every unit as a cache hit
(``ResultCache.lookup``) and runs the instrument self-check.  With
``traced`` false it runs only the cold pass with no wrappers installed: its
wall time is the untraced twin the tracing overhead is measured against.
Prints one JSON document.
"""

from __future__ import annotations

import json
import sys
import time

from common import (
    REPRESENTATION,
    UNIT_TIMEOUT_S,
    BenchmarkFailure,
    check_verdict,
    units_from_json,
    use_src,
)


def cold_pass(units, cache, ladder, items) -> float:
    """Verify every unit in order; returns the wall time of the pass.

    Appends each unit's verdict to ``items`` (checked in ``run.py``).
    """
    from repro.engines import batch, portfolio

    start = time.perf_counter()
    for unit in units:
        task = unit.task()
        system = task.load()
        portfolio.warm_task_templates(task, (REPRESENTATION,))
        result = batch.run_sequential_ladder(
            system, unit.prop, ladder, UNIT_TIMEOUT_S
        )
        stored = False
        if result.is_definitive:
            stored = cache.store(
                system, unit.prop, REPRESENTATION, result, design=task.name
            ).stored
        items.append({"label": unit.label, "status": result.status, "validated": stored})
    return time.perf_counter() - start


def warm_replay(units, cache) -> float:
    start = time.perf_counter()
    for unit in units:
        lookup = cache.lookup(unit.task().load(), unit.prop, REPRESENTATION)
        if not lookup.hit:
            raise BenchmarkFailure(f"warm replay missed {unit.label}: {lookup.reason}")
        check_verdict(unit, lookup.result.status, True, "traced warm replay")
    return time.perf_counter() - start


def self_check(unit, tracer, ladder, cache_dir) -> dict:
    """Compare the wrappers' counts with the program's own telemetry spans."""
    from repro.cache import ResultCache
    from repro.engines import batch
    from repro.obs import telemetry

    engines_before = {
        k: v for k, v in tracer.values.items() if k.endswith(".calls")
    }
    validations_before = tracer.values.get("certs.validations", 0.0)
    cache = ResultCache(cache_dir)
    with telemetry.recording() as recorder:
        system = unit.task().load(fresh=True)
        result = batch.run_sequential_ladder(
            system, unit.prop, ladder, UNIT_TIMEOUT_S
        )
        cache.store(system, unit.prop, REPRESENTATION, result)
        spans = recorder.export()["spans"]
    engine_calls = sum(
        v - engines_before.get(k, 0.0)
        for k, v in tracer.values.items()
        if k.startswith("engine.") and k.endswith(".calls")
    )
    validations = tracer.values.get("certs.validations", 0.0) - validations_before
    span_engines = sum(1 for s in spans if s.get("name") == "engine.verify")
    span_validations = sum(1 for s in spans if s.get("name") == "certs.validate")
    check = {
        "unit": unit.label,
        "engine_calls": engine_calls,
        "engine_spans": span_engines,
        "validations": validations,
        "validation_spans": span_validations,
    }
    if engine_calls != span_engines or validations != span_validations:
        raise BenchmarkFailure(f"instrument self-check failed: {check}")
    return check


def main(spec_path: str) -> int:
    with open(spec_path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    units = units_from_json(spec["units"])
    use_src()
    from repro.cache import ResultCache
    from repro.engines.portfolio import default_budget_ladder, learn_priors
    from repro.engines.registry import list_engines

    ladder = default_budget_ladder(
        (REPRESENTATION,), timeout=UNIT_TIMEOUT_S, priors=learn_priors()
    )
    cache_dir = spec["cache_dir"]
    document = {"items": []}
    if not spec["traced"]:
        document["cold_wall_s"] = cold_pass(
            units, ResultCache(cache_dir), ladder, document["items"]
        )
        print(json.dumps(document))
        return 0

    from layers import LayerTracer

    tracer = LayerTracer().install()
    try:
        document["cold_wall_s"] = cold_pass(
            units, ResultCache(cache_dir), ladder, document["items"]
        )
        document["warm_wall_s"] = warm_replay(units, ResultCache(cache_dir))
        engines = [r.name for r in list_engines(ladder_only=True)]
        document["layers"] = tracer.metrics(engines)
        probe = next(u for u in units if u.expected == "unsafe")
        document["self_check"] = self_check(
            probe, tracer, ladder, cache_dir + "-self-check"
        )
    finally:
        tracer.uninstall()
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
