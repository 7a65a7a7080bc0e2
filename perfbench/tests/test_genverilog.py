"""The miss-stream generator: files load, verdicts hold by construction."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from common import UNIT_TIMEOUT_S, use_src  # noqa: E402
from genverilog import CLASSES, PROPERTY, SAFE, UNSAFE, generate  # noqa: E402

use_src()

from repro.engines import VerificationTask, make_engine  # noqa: E402
from repro.engines.batch import run_sequential_ladder  # noqa: E402
from repro.engines.portfolio import default_budget_ladder  # noqa: E402


def test_same_seed_same_files_and_distinct_modules(tmp_path):
    first = generate(str(tmp_path / "a"), 7, 10)
    second = generate(str(tmp_path / "b"), 7, 10)
    other = generate(str(tmp_path / "c"), 8, 10)
    for a, b in zip(first, second):
        with open(a.path) as fa, open(b.path) as fb:
            assert fa.read() == fb.read()
    modules = {d.module for d in first} | {d.module for d in other}
    assert len(modules) == 20
    assert [d.expected for d in first] == [d.expected for d in other]


def test_every_file_loads_with_its_property(tmp_path):
    for seed in (1, 2, 3):
        for design in generate(str(tmp_path / str(seed)), seed, len(CLASSES)):
            system = VerificationTask.verilog(design.path).load()
            assert [p.name for p in system.properties] == [PROPERTY]


def test_safe_designs_are_one_inductive(tmp_path):
    for seed in (1, 2):
        for design in generate(str(tmp_path / str(seed)), seed, len(CLASSES)):
            if design.expected != SAFE:
                continue
            system = VerificationTask.verilog(design.path).load()
            result = make_engine("k-induction", system, max_k=1).verify(
                PROPERTY, timeout=30
            )
            assert result.status == SAFE, design.path


def test_unsafe_bug_is_within_shallow_bmc_reach(tmp_path):
    for seed in (1, 2, 3):
        for design in generate(str(tmp_path / str(seed)), seed, len(CLASSES)):
            if design.expected != UNSAFE:
                continue
            system = VerificationTask.verilog(design.path).load()
            result = make_engine("bmc", system, max_bound=16).verify(
                PROPERTY, timeout=30
            )
            assert result.status == UNSAFE, design.path
            assert len(result.counterexample.steps) <= design.bug_depth + 1


def test_ladder_verdicts_match_construction(tmp_path):
    ladder = default_budget_ladder(("word",), timeout=UNIT_TIMEOUT_S)
    for seed in (4, 5):
        for design in generate(str(tmp_path / str(seed)), seed, 4):
            system = VerificationTask.verilog(design.path).load()
            result = run_sequential_ladder(system, PROPERTY, ladder, UNIT_TIMEOUT_S)
            assert result.status == design.expected, design.path
