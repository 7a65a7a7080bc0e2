"""The per-layer instrument agrees with the program's own telemetry."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from common import UNIT_TIMEOUT_S, Unit, use_src  # noqa: E402
from genverilog import PROPERTY, UNSAFE, generate  # noqa: E402
from layers import LayerTracer  # noqa: E402
from traced import self_check  # noqa: E402

use_src()

from repro.engines import batch  # noqa: E402
from repro.engines.portfolio import default_budget_ladder  # noqa: E402
from repro.engines.registry import list_engines  # noqa: E402
from repro.sat.solver import Solver  # noqa: E402


def test_counts_match_telemetry_spans(tmp_path):
    design = next(
        d for d in generate(str(tmp_path / "d"), 3, 8) if d.expected == UNSAFE
    )
    unit = Unit("verilog", design.path, PROPERTY, design.expected)
    ladder = default_budget_ladder(("word",), timeout=UNIT_TIMEOUT_S)
    tracer = LayerTracer().install()
    try:
        check = self_check(unit, tracer, ladder, str(tmp_path / "cache"))
    finally:
        tracer.uninstall()
    assert check["engine_calls"] == check["engine_spans"] >= 1
    assert check["validations"] == check["validation_spans"] == 1
    metrics = tracer.metrics([r.name for r in list_engines(ladder_only=True)])
    assert metrics["ladder.attempts"] >= 1
    assert metrics["sat.solves"] >= 1
    assert metrics["certs.witness.validations"] == 1


def test_uninstall_restores_the_program():
    originals = (Solver.__dict__["solve"], batch.run_sequential_ladder)
    tracer = LayerTracer().install()
    assert batch.run_sequential_ladder is not originals[1]
    tracer.uninstall()
    assert (Solver.__dict__["solve"], batch.run_sequential_ladder) == originals
