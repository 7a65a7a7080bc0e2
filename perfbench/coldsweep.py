"""One cold pool sweep in a fresh interpreter (a child of ``run.py``).

Usage: ``python3 perfbench/coldsweep.py SPEC.json`` where the spec holds
``units`` (in sweep order) and ``cache_dir`` (an empty directory).  The
sweep runs through :class:`repro.engines.BatchRunner` with the pool size
and per-item timeout pinned in :mod:`common`, and prints one JSON document:

* ``wall_s``: pool start to report, timed here around ``runner.run``;
* ``cpu_s``: this process plus every reaped pool worker over the sweep;
* ``items``: per-unit status, validation flag and supervision record.

A fresh interpreter per sweep keeps the sweep cold: no memoized system,
template library or validator state survives from an earlier sweep.
"""

from __future__ import annotations

import json
import resource
import sys
import time

from common import POOL_JOBS, REPRESENTATION, UNIT_TIMEOUT_S, units_from_json, use_src


def main(spec_path: str) -> int:
    with open(spec_path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    units = units_from_json(spec["units"])
    use_src()
    from repro.cache import ResultCache
    from repro.engines import BatchItem, BatchRunner

    runner = BatchRunner(
        cache=ResultCache(spec["cache_dir"]),
        jobs=POOL_JOBS,
        timeout=UNIT_TIMEOUT_S,
        representation=REPRESENTATION,
    )
    items = [
        BatchItem(unit.task(), unit.prop, expected=unit.expected) for unit in units
    ]
    cpu0 = time.process_time()
    children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    report = runner.run(items)
    wall_s = time.perf_counter() - t0
    children1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = (time.process_time() - cpu0) + (
        children1.ru_utime + children1.ru_stime
        - children0.ru_utime - children0.ru_stime
    )
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, children1.ru_maxrss
    )
    document = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "workers": report.workers,
        "retries": report.retries,
        "ladder": [
            {"tier": rung.tier, "budget": rung.budget, "configs": list(rung.labels)}
            for rung in runner.ladder
        ],
        "items": [
            {
                "label": unit.label,
                "status": item.status,
                "validated": item.validated,
                "supervision": item.supervision,
            }
            for unit, item in zip(units, report.items)
        ],
    }
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
