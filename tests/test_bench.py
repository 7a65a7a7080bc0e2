"""The ``repro-bench`` report schema, its gate helper and its command line."""

import json
import warnings
from pathlib import Path

import pytest

from repro.engines.portfolio import learn_priors
from repro.tools.bench import MODES, gate, main, write_report

ROOT = Path(__file__).resolve().parents[1]
COMMITTED = sorted(ROOT.glob("BENCH_*.json"))


def test_committed_reports_share_one_schema():
    assert COMMITTED, "no committed BENCH_*.json reports"
    for path in COMMITTED:
        report = json.loads(path.read_text())
        assert set(report) == {"config", "rows", "gates", "summary"}, path.name
        assert report["config"]["mode"] in MODES, path.name
        assert all("section" in row for row in report["rows"]), path.name
        assert report["gates"], path.name
        for name, outcome in report["gates"].items():
            assert isinstance(outcome["ok"], bool), (path.name, name)


def test_committed_gates_are_what_the_judges_compute():
    for path in COMMITTED:
        report = json.loads(path.read_text())
        judge = MODES[report["config"]["mode"]].judge
        gates, summary = judge(report["config"], report["rows"])
        assert gates == report["gates"], path.name
        assert summary == report["summary"], path.name


def test_learn_priors_reads_committed_reports_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        priors = learn_priors([str(path) for path in COMMITTED])
    assert priors  # portfolio, certify, incremental and serve rows are engine runs


def test_write_report_fails_on_one_failing_gate(tmp_path, capsys):
    out = tmp_path / "BENCH_t.json"
    gates = {
        "holds": gate(True),
        "warm_speedup": gate(False, observed=1.5, min=3.0),
    }
    ok = write_report(str(out), "serve", {}, [], gates, {})
    assert ok is False
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert "warm_speedup" in line and "holds" not in line
    report = json.loads(out.read_text())
    assert set(report) == {"config", "rows", "gates", "summary"}
    assert report["gates"]["warm_speedup"] == {"ok": False, "observed": 1.5, "min": 3.0}
    assert write_report(str(out), "serve", {}, [], {"holds": gate(1)}, {}) is True


#: every mode that takes designs, given an unknown one, and two modes at once
BAD_COMMAND_LINES = [
    ([f"--{name}"] if mode.help else []) + ["--benchmarks", "nope"]
    for name, mode in MODES.items()
    if mode.designs
] + [["--portfolio", "--certify"]]


@pytest.mark.parametrize("argv", BAD_COMMAND_LINES, ids=" ".join)
def test_bad_command_lines_exit_2_before_running(argv, tmp_path):
    out = tmp_path / "BENCH_never.json"
    with pytest.raises(SystemExit) as caught:
        main([*argv, "--out", str(out)])
    assert caught.value.code == 2
    assert not out.exists()
