"""End-to-end engine verdicts and the process-based portfolio runner."""

import multiprocessing
import time

import pytest

from repro.benchmarks import get_benchmark, load_system
from repro.engines import (
    LadderRung,
    PortfolioConfig,
    PortfolioRunner,
    Status,
    VerificationTask,
    default_portfolio_configs,
    make_engine,
)


# ---------------------------------------------------------------------------
# end-to-end single-engine verdicts (each portfolio engine on >= 2 designs)
# ---------------------------------------------------------------------------

VERDICT_CASES = [
    # (engine, design, options)
    ("bmc", "daio", {"max_bound": 70}),
    ("bmc", "tlc", {"max_bound": 70}),
    ("k-induction", "huffman_dec", {}),
    ("k-induction", "buffalloc", {}),
    ("interpolation", "huffman_dec", {}),
    ("interpolation", "arbiter", {}),
    ("pdr", "huffman_dec", {}),
    ("pdr", "buffalloc", {}),
    ("kiki", "huffman_dec", {}),
    ("kiki", "buffalloc", {}),
    ("kiki", "daio", {"max_k": 70}),
]


@pytest.mark.parametrize("engine_name,design,options", VERDICT_CASES)
def test_engine_verdict_end_to_end(engine_name, design, options):
    benchmark = get_benchmark(design)
    engine = make_engine(engine_name, benchmark.load(), **options)
    result = engine.verify(timeout=90)
    assert result.status == benchmark.expected, (engine_name, design, result)
    if benchmark.expected == Status.UNSAFE:
        assert result.counterexample is not None
        assert result.counterexample.length == benchmark.bug_cycle + 1


def test_bmc_counterexample_reproduces_cycle_64_bug():
    """The daio bug manifests at cycle 64, as stated in Section IV of the paper."""
    result = make_engine("bmc", load_system("daio"), max_bound=70).verify(timeout=90)
    assert result.status == Status.UNSAFE
    assert result.detail["bound"] == 64
    assert result.counterexample.length == 65


# ---------------------------------------------------------------------------
# the portfolio runner
# ---------------------------------------------------------------------------


def test_default_configs_cross_engines_and_representations():
    word_only = default_portfolio_configs()
    assert [config.engine for config in word_only] == [
        "bmc", "k-induction", "interpolation", "pdr", "kiki",
    ]
    both = default_portfolio_configs(representations=("word", "bit"))
    assert len(both) == 10
    bounded = default_portfolio_configs(bound=12)[0]
    assert bounded.options_dict["max_bound"] == 12


def test_portfolio_refutes_daio_and_cancels_losers():
    events = []
    runner = PortfolioRunner(
        configs=default_portfolio_configs(bound=80),
        timeout=120,
        on_event=events.append,
    )
    result = runner.run(VerificationTask.benchmark("daio"))
    assert result.status == Status.UNSAFE
    assert result.winner_engine == "bmc"
    assert result.counterexample is not None
    assert result.counterexample.length == 65
    # losers must have been cancelled (or skipped), not run to completion
    loser_states = {
        outcome.state for outcome in result.workers if outcome.label != result.winner
    }
    assert loser_states <= {"cancelled", "skipped", "done"}
    assert "cancelled" in loser_states or "skipped" in loser_states
    # the race must finish well before the slowest loser would have
    # (k-induction alone needs ~10s on this design)
    assert result.runtime < 10
    assert any(event["event"] == "result" for event in events)


def test_portfolio_proves_safe_design():
    runner = PortfolioRunner(configs=default_portfolio_configs(bound=40), timeout=120)
    result = runner.run(VerificationTask.benchmark("buffalloc"))
    assert result.status == Status.SAFE
    assert result.winner is not None
    winning = result.worker(result.winner)
    assert winning.result.status == Status.SAFE


@pytest.mark.parametrize("design", ["daio", "buffalloc"])
def test_fanout_is_a_one_rung_ladder(design):
    # a fast refuter, a fast prover and a slow prover: one clear winner each
    configs = [
        PortfolioConfig.of("bmc", max_bound=80),
        PortfolioConfig.of("k-induction", max_k=80),
        PortfolioConfig.of("pdr", max_frames=80),
    ]
    task = VerificationTask.benchmark(design)
    fanout = PortfolioRunner(configs=configs, timeout=120).run(task)
    ladder = PortfolioRunner(ladder=[LadderRung(tuple(configs))], timeout=120).run(task)
    assert fanout.status == ladder.status == get_benchmark(design).expected
    assert fanout.winner_engine == ladder.winner_engine
    assert fanout.detail["ladder"]["decided_rung"] == 0
    assert not multiprocessing.active_children()


def test_portfolio_timeout_aggregation():
    # two prover configs that cannot conclude on the unsafe tlc design in time
    configs = [
        PortfolioConfig.of("pdr", representation="word"),
        PortfolioConfig.of("interpolation", representation="word"),
    ]
    runner = PortfolioRunner(configs=configs, timeout=1.0)
    result = runner.run(VerificationTask.benchmark("tlc"))
    assert result.status == Status.TIMEOUT
    assert result.winner is None
    # every configuration is accounted for in the aggregate
    assert {outcome.label for outcome in result.workers} == {
        "pdr[word]", "interpolation[word]",
    }
    statuses = {outcome.status for outcome in result.workers}
    assert statuses <= {Status.TIMEOUT, "timed-out", "cancelled", "crashed"}


def test_portfolio_flags_wrong_answer_against_ground_truth():
    runner = PortfolioRunner(
        configs=[PortfolioConfig.of("bmc", max_bound=80)],
        timeout=120,
        expected=Status.SAFE,  # deliberately wrong ground truth for daio
    )
    result = runner.run(VerificationTask.benchmark("daio"))
    assert result.status == Status.WRONG
    assert result.detail["claimed"] == Status.UNSAFE


def test_cross_check_adjudicates_disagreement_by_certificate():
    """An injected wrong-verdict engine loses the cross-check adjudication."""
    runner = PortfolioRunner(
        configs=[
            PortfolioConfig.of("bmc", max_bound=80),
            PortfolioConfig.of("oracle", claim=Status.SAFE),
        ],
        timeout=120,
        cross_check=True,
    )
    result = runner.run(VerificationTask.benchmark("daio"))
    # mere disagreement is no longer WRONG: bmc's witness validates, the
    # oracle's forged TRUE invariant does not, so bmc's verdict stands
    assert result.status == Status.UNSAFE
    assert result.winner_engine == "bmc"
    assert set(result.detail["disagreement"].values()) == {Status.SAFE, Status.UNSAFE}
    adjudication = result.detail["adjudication"]
    assert adjudication["bmc[word]"]["certified"] is True
    assert adjudication["oracle[word]"]["certified"] is False
    assert "adjudicated" in result.reason


def test_cross_check_without_any_valid_certificate_stays_wrong():
    """Two liars disagreeing cannot be adjudicated: the verdict is WRONG."""
    runner = PortfolioRunner(
        configs=[
            PortfolioConfig.of("oracle", claim=Status.SAFE),
            PortfolioConfig.of("oracle", claim=Status.UNSAFE, representation="bit"),
        ],
        timeout=60,
        cross_check=True,
    )
    result = runner.run(VerificationTask.benchmark("daio"))
    assert result.status == Status.WRONG
    assert "could not adjudicate" in result.reason
    adjudication = result.detail["adjudication"]
    assert all(not verdict["certified"] for verdict in adjudication.values())


def test_worker_error_is_reported_not_raised():
    runner = PortfolioRunner(
        configs=[PortfolioConfig.of("bmc", representation="nonsense")],
        timeout=30,
    )
    result = runner.run(VerificationTask.benchmark("huffman_dec"))
    assert result.status == Status.ERROR
    assert result.workers[0].result.status == Status.ERROR
    assert "representation" in result.workers[0].result.reason


def test_task_loaders_roundtrip(tmp_path):
    from repro.aig import aig_from_transition_system, write_aiger

    system = load_system("daio")
    path = tmp_path / "daio.aag"
    path.write_text(write_aiger(aig_from_transition_system(system)))
    loaded = VerificationTask.aiger(str(path)).load()
    loaded.validate()
    assert len(loaded.properties) == 1
    result = make_engine("bmc", loaded, max_bound=70).verify(timeout=90)
    assert result.status == Status.UNSAFE
    assert result.counterexample.length == 65
