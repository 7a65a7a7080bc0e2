"""Shared helpers of the benchmark: paths, inputs, statistics, the oracle.

Everything here runs in the benchmark's own processes.  The program under
test is imported from ``<root>/src``; the benchmark never reads or writes
outside the checkout root, and all scratch files live under
``<root>/.perfbench_tmp`` (removed when a run ends).
"""

from __future__ import annotations

import json
import os
import random
import statistics
import sys
import tempfile
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.join(ROOT, "perfbench")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")

#: pinned inputs of the program under test, recorded in every result
POOL_JOBS = 2
UNIT_TIMEOUT_S = 60.0
REPRESENTATION = "word"

SAFE = "safe"
UNSAFE = "unsafe"
DEFINITIVE = (SAFE, UNSAFE)


class BenchmarkFailure(RuntimeError):
    """A WRONG or unvalidated verdict, or a broken run: no numbers."""


def child_env() -> Dict[str, str]:
    """Environment of every program process: the checkout's ``src`` only,
    and temporary files and compiled kernels under the run's directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.setdefault("PYTHONHASHSEED", "0")
    env["TMPDIR"] = tempfile.gettempdir()
    env["REPRO_KERNEL_CACHE"] = os.path.join(tempfile.gettempdir(), "kernels")
    return env


def use_src() -> None:
    """Make ``import repro`` resolve to the checkout in this process."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


@dataclass(frozen=True)
class Unit:
    """One (design, property) query and its ground-truth verdict."""

    kind: str  # "benchmark" or "verilog"
    spec: str  # suite design name or Verilog path
    prop: str
    expected: str
    #: the generated design class; designs of one class cost the same to
    #: verify, so miss latencies take one median per class
    group: str = ""

    @property
    def label(self) -> str:
        name = os.path.basename(self.spec) if self.kind == "verilog" else self.spec
        return f"{name}:{self.prop}"

    def task(self):
        from repro.engines import VerificationTask

        if self.kind == "benchmark":
            return VerificationTask.benchmark(self.spec)
        return VerificationTask.verilog(self.spec)

    def request(self) -> Dict[str, object]:
        """The ``repro-serve`` request fields naming this unit."""
        key = "design" if self.kind == "benchmark" else "verilog"
        return {key: self.spec, "property": self.prop}


def units_to_json(units: Sequence[Unit]) -> List[Dict[str, str]]:
    return [asdict(unit) for unit in units]


def units_from_json(doc) -> List[Unit]:
    return [Unit(**row) for row in doc]


def suite_units() -> List[Unit]:
    """The suite: one unit per declared property, expected from the suite."""
    use_src()
    from repro.benchmarks import BENCHMARKS, get_benchmark, load_system

    units = []
    for name in BENCHMARKS:
        expected = get_benchmark(name).expected
        for prop in load_system(name).properties:
            units.append(Unit("benchmark", name, prop.name, expected))
    return units


def verilog_units(directory: str, seed: int, count: int, prefix: str) -> List[Unit]:
    from genverilog import PROPERTY, generate

    return [
        Unit("verilog", design.path, PROPERTY, design.expected, design.group)
        for design in generate(directory, seed, count, prefix=prefix)
    ]


def shuffled(items: Sequence, seed: object) -> list:
    out = list(items)
    random.Random(str(seed)).shuffle(out)
    return out


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


def check_verdict(
    unit: Unit, status: str, validated: Optional[bool], where: str
) -> bool:
    """Check one verdict against ground truth; True iff it is decided.

    A definitive verdict that differs from the unit's expected verdict
    (WRONG), or one not reported as validated, raises
    :class:`BenchmarkFailure`.  An inconclusive verdict returns False and
    counts as failed.
    """
    if status in DEFINITIVE:
        if status != unit.expected:
            raise BenchmarkFailure(
                f"WRONG verdict in {where}: {unit.label} is {unit.expected}, "
                f"the program said {status}"
            )
        if validated is not True:
            raise BenchmarkFailure(
                f"unvalidated verdict in {where}: {unit.label} ({status})"
            )
        return True
    return False


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    if not values:
        raise BenchmarkFailure("no samples for a median")
    return float(statistics.median(values))


def tail(values: Sequence[float], beyond: int = 10):
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(percentile, value)``; the percentile is the share of samples
    at or below the reported value, so with ``n`` samples it is
    ``(n - beyond) / n``.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        raise BenchmarkFailure(
            f"{n} samples cannot give a tail with {beyond} beyond it"
        )
    index = n - beyond - 1
    return 100.0 * (index + 1) / n, ordered[index]


def emit_json_line(document) -> None:
    print(json.dumps(document, sort_keys=True), flush=True)
