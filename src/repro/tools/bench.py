"""``repro-bench``: the benchmark harness (``python -m repro.tools.bench``).

Every mode writes one report shape through :func:`write_report`::

    {"config":  {"mode": ..., the run's parameters, python, platform, cpus},
     "rows":    [{"section": ..., ...}, ...],
     "gates":   {name: {"ok": bool, observed..., threshold...}},
     "summary": {headline numbers}}

``rows`` is one flat list; each row names its ``section``.  A mode's
pass/fail lives only in its judge, a pure function of ``config`` and
``rows`` that returns the named gates, and the exit status is 0 exactly
when every gate is ok.  A row that records a production-path engine run
carries ``engine``, ``status`` and ``runtime_s``;
:func:`repro.engines.portfolio.learn_priors` learns the ladder priors from
those rows and from nothing else.  The modes, their workloads and their
gates are described in the README section "Benchmarks: ``repro-bench``".
"""

from __future__ import annotations

import argparse
import os
import platform
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.benchmarks import benchmark_names, get_benchmark
from repro.certs import validate_result
from repro.engines.encoding import FrameEncoder
from repro.engines.interpolation import InterpolationEngine
from repro.engines.kiki import KikiEngine
from repro.engines.kinduction import KInductionEngine
from repro.engines.pdr import PDREngine
from repro.engines.portfolio import (
    PortfolioConfig,
    PortfolioRunner,
    VerificationTask,
    bound_options,
    default_portfolio_configs,
)
from repro.engines.registry import list_engines, make_engine
from repro.engines.result import Status
from repro.jsonio import write_json_atomic
from repro.obs import log as _log
from repro.obs import telemetry as _telemetry
from repro.smt import BVResult

#: default designs for the deep-unroll comparison (encode-dominated datapaths)
DEFAULT_BMC_BENCHMARKS = ["mac16", "barrel16", "huffman_enc", "daio"]
#: default designs for the end-to-end engine comparison (small control logic)
DEFAULT_ENGINE_BENCHMARKS = ["huffman_dec", "proc3", "buffalloc", "arbiter"]
#: default designs for the portfolio-vs-single comparison: a mix where the
#: fastest winner differs (BMC refutes daio/tlc, the provers win the rest)
DEFAULT_PORTFOLIO_BENCHMARKS = ["daio", "tlc", "buffalloc", "huffman_dec"]

ENGINE_FACTORIES = {
    "k-induction": lambda system, template: KInductionEngine(
        system, max_k=16, incremental_template=template
    ),
    "interpolation": lambda system, template: InterpolationEngine(
        system, incremental_template=template
    ),
    "kiki": lambda system, template: KikiEngine(
        system, max_k=16, incremental_template=template
    ),
    "pdr": lambda system, template: PDREngine(system, incremental_template=template),
}


# ---------------------------------------------------------------------------
# the report schema
# ---------------------------------------------------------------------------


def gate(ok: object, **observed: object) -> Dict[str, object]:
    """One named pass/fail condition: ``{"ok": bool, observed..., threshold...}``."""
    return {"ok": bool(ok), **observed}


def section(rows: List[Dict], name: str) -> List[Dict]:
    """The rows of one section, in report order."""
    return [row for row in rows if row["section"] == name]


def write_report(
    out: str,
    mode: str,
    config: Dict[str, object],
    rows: List[Dict],
    gates: Dict[str, Dict[str, object]],
    summary: Dict[str, object],
) -> bool:
    """Write ``{config, rows, gates, summary}`` to ``out``; True when every gate is ok."""
    report = {
        "config": {
            "mode": mode,
            **config,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "rows": rows,
        "gates": gates,
        "summary": summary,
    }
    write_json_atomic(out, report)
    failed = [name for name, outcome in gates.items() if not outcome["ok"]]
    print(
        f"\nwrote {out}: {mode} {len(gates) - len(failed)}/{len(gates)} gates ok"
        + (f", FAILED: {', '.join(failed)}" if failed else "")
    )
    return not failed


# ---------------------------------------------------------------------------
# unroll mode (the default): template vs legacy unrolling
# ---------------------------------------------------------------------------


def profile_bmc_unroll(
    system,
    property_name: Optional[str],
    depth: int,
    representation: str,
    incremental_template: bool,
) -> Dict[str, object]:
    """Unroll BMC to ``depth``, timing encode and solve separately.

    Mirrors :class:`repro.engines.bmc.BMCEngine` exactly (same queries in the
    same order) so the verdict comparison is meaningful, but keeps its own
    stopwatch around the encode calls (``assert_trans`` / ``property_literal``)
    versus the solve calls (``check``).
    """
    start = time.monotonic()
    encoder = FrameEncoder(
        system,
        representation=representation,
        incremental_template=incremental_template,
    )
    encoder.assert_init(0)
    setup_s = time.monotonic() - start
    if property_name is None:
        property_name = system.properties[0].name

    encode_s = 0.0
    solve_s = 0.0
    verdict = "unknown"
    bound_reached = depth
    for bound in range(depth + 1):
        t0 = time.monotonic()
        literal = encoder.property_literal(property_name, bound)
        encode_s += time.monotonic() - t0
        t0 = time.monotonic()
        outcome = encoder.solver.check(assumptions=[-literal])
        solve_s += time.monotonic() - t0
        if outcome == BVResult.SAT:
            verdict = "unsafe"
            bound_reached = bound
            break
        t0 = time.monotonic()
        encoder.assert_trans(bound)
        encode_s += time.monotonic() - t0
    sat_solver = encoder.solver.solver
    return {
        "verdict": verdict,
        "bound": bound_reached,
        "setup_s": round(setup_s, 6),
        "encode_s": round(encode_s, 6),
        "solve_s": round(solve_s, 6),
        "total_s": round(setup_s + encode_s + solve_s, 6),
        "clauses": sat_solver.num_clauses,
        "vars": sat_solver.num_vars,
        "solver_stats": sat_solver.stats.as_dict(),
    }


def _best_of(runs: List[Dict[str, object]]) -> Dict[str, object]:
    """Keep the fastest run (by encode+solve) — standard noise reduction."""
    return min(runs, key=lambda r: r["encode_s"] + r["solve_s"])


def run_bmc_section(
    names: List[str], depth: int, representation: str, repeats: int = 3
) -> List[Dict]:
    rows = []
    for name in names:
        benchmark = get_benchmark(name)
        system = benchmark.load()
        template = _best_of(
            [
                profile_bmc_unroll(system, None, depth, representation, True)
                for _ in range(repeats)
            ]
        )
        legacy = _best_of(
            [
                profile_bmc_unroll(system, None, depth, representation, False)
                for _ in range(repeats)
            ]
        )
        speedup = (
            legacy["encode_s"] + legacy["solve_s"]
        ) / max(1e-9, template["encode_s"] + template["solve_s"])
        row = {
            "section": "bmc_unroll",
            "benchmark": name,
            "representation": representation,
            "depth": depth,
            "template": template,
            "legacy": legacy,
            "encode_solve_speedup": round(speedup, 2),
            "verdicts_match": (template["verdict"], template["bound"])
            == (legacy["verdict"], legacy["bound"]),
        }
        rows.append(row)
        _log.info(
            f"bmc {name:12s} depth={depth} [{representation}] "
            f"template={row['template']['total_s']:.3f}s "
            f"legacy={row['legacy']['total_s']:.3f}s "
            f"speedup={row['encode_solve_speedup']:.2f}x "
            f"verdict={template['verdict']} "
            f"{'OK' if row['verdicts_match'] else 'MISMATCH'}"
        )
    return rows


def run_engine_section(names: List[str], engines: List[str], timeout: float) -> List[Dict]:
    rows = []
    for name in names:
        benchmark = get_benchmark(name)
        for engine_name in engines:
            factory = ENGINE_FACTORIES[engine_name]
            outcomes = {}
            for template in (True, False):
                system = benchmark.load()
                t0 = time.monotonic()
                result = factory(system, template).verify(timeout=timeout)
                outcomes["template" if template else "legacy"] = {
                    "status": result.status,
                    "runtime_s": round(time.monotonic() - t0, 6),
                    "solver_stats": result.detail.get("solver_stats"),
                }
            speedup = outcomes["legacy"]["runtime_s"] / max(
                1e-9, outcomes["template"]["runtime_s"]
            )
            row = {
                "section": "engine_unroll",
                "engine": engine_name,
                "benchmark": name,
                "representation": "word",
                "template": outcomes["template"],
                "legacy": outcomes["legacy"],
                "speedup": round(speedup, 2),
                "verdicts_match": outcomes["template"]["status"]
                == outcomes["legacy"]["status"],
                "expected": benchmark.expected,
            }
            rows.append(row)
            _log.info(
                f"eng {engine_name:13s} {name:12s} "
                f"template={row['template']['runtime_s']:.3f}s/{row['template']['status']} "
                f"legacy={row['legacy']['runtime_s']:.3f}s/{row['legacy']['status']} "
                f"{'OK' if row['verdicts_match'] else 'MISMATCH'}"
            )
    return rows


def run_unroll(args, depth: int, names: List[str]) -> Tuple[Dict, List[Dict]]:
    rows = run_bmc_section(
        names, depth, args.representation, repeats=max(1, args.repeats)
    )
    if not args.skip_engines:
        rows += run_engine_section(
            args.engine_benchmarks or DEFAULT_ENGINE_BENCHMARKS,
            args.engines,
            args.timeout,
        )
    return {"depth": depth, "representation": args.representation}, rows


def judge_unroll(config: Dict, rows: List[Dict]) -> Tuple[Dict, Dict]:
    speedups = {
        row["benchmark"]: row["encode_solve_speedup"]
        for row in section(rows, "bmc_unroll")
    }
    gates = {"verdicts_match": _verdicts_match_gate(rows)}
    summary = {
        "bmc_encode_solve_speedups": speedups,
        "benchmarks_at_or_above_3x": sum(1 for s in speedups.values() if s >= 3.0),
    }
    return gates, summary


def _verdicts_match_gate(rows: List[Dict]) -> Dict[str, object]:
    """Every row's ``verdicts_match`` holds; names the rows where it does not."""
    mismatched = [
        f"{row['section']}:{row['benchmark']}"
        + (f":{row['engine']}" if "engine" in row else "")
        for row in rows
        if "verdicts_match" in row and not row["verdicts_match"]
    ]
    return gate(not mismatched, mismatched=mismatched)


# ---------------------------------------------------------------------------
# portfolio mode (--portfolio): the portfolio vs individually timed engines
# ---------------------------------------------------------------------------


def run_portfolio(args, depth: int, names: List[str]) -> Tuple[Dict, List[Dict]]:
    """Portfolio wall-clock vs. individually-timed single engines per design."""
    configs = default_portfolio_configs(bound=depth)
    rows = []
    for name in names:
        benchmark = get_benchmark(name)
        expected = benchmark.expected

        singles = []
        for config in configs:
            system = benchmark.load()
            t0 = time.monotonic()
            result = make_engine(
                config.engine,
                system,
                ignore_unknown_options=True,
                **config.options_dict,
            ).verify(timeout=args.timeout)
            singles.append({
                "section": "single",
                "benchmark": name,
                "engine": config.engine,
                "config": config.label,
                "status": result.status,
                "runtime_s": round(time.monotonic() - t0, 6),
                "correct": result.status == expected,
                "solver_stats": result.detail.get("solver_stats"),
            })

        runner = PortfolioRunner(
            configs=configs, timeout=args.timeout, max_workers=args.jobs,
            expected=expected,
        )
        portfolio = runner.run(VerificationTask.benchmark(name))

        winning = [row["runtime_s"] for row in singles if row["correct"]]
        best_single = min(winning, default=None)
        slowest_winning = max(winning, default=None)
        row = {
            "section": "portfolio",
            "benchmark": name,
            "expected": expected,
            "status": portfolio.status,
            "winner": portfolio.winner,
            "wall_s": round(portfolio.runtime, 6),
            "workers": {
                outcome.label: outcome.status for outcome in portfolio.workers
            },
            "correct": portfolio.status == expected,
            "winner_solver_stats": portfolio.detail.get("winner_solver_stats"),
            "best_single_s": best_single,
            "slowest_winning_single_s": slowest_winning,
            "within_slowest_winning": (
                slowest_winning is not None and portfolio.runtime <= slowest_winning
            ),
            "vs_best_single": (
                round(portfolio.runtime / best_single, 2) if best_single else None
            ),
        }
        rows += singles + [row]
        _log.info(
            f"pfl {name:12s} portfolio={portfolio.runtime:.3f}s/{portfolio.status} "
            f"winner={portfolio.winner} best_single={best_single} "
            f"slowest_winning={slowest_winning} "
            f"{'OK' if row['correct'] else 'WRONG'}"
        )
    return {"depth": depth, "timeout_s": args.timeout}, rows


def judge_portfolio(config: Dict, rows: List[Dict]) -> Tuple[Dict, Dict]:
    portfolios = section(rows, "portfolio")
    wrong = [row["benchmark"] for row in portfolios if not row["correct"]]
    gates = {"portfolio_verdicts_correct": gate(not wrong, wrong=wrong)}
    summary = {
        "designs": len(portfolios),
        "designs_within_slowest_winning_single": sum(
            1 for row in portfolios if row["within_slowest_winning"]
        ),
        "portfolio_vs_best_single": {
            row["benchmark"]: row["vs_best_single"] for row in portfolios
        },
    }
    return gates, summary


# ---------------------------------------------------------------------------
# certification mode (--certify): validate every definitive verdict
# ---------------------------------------------------------------------------


def run_certify(args, bound: int, names: List[str]) -> Tuple[Dict, List[Dict]]:
    """Run every paper engine on every design and validate each certificate,
    then demo certificate-based adjudication against an injected liar."""
    engines = [
        registration.name
        for registration in list_engines()
        if registration.name != "oracle"  # fault injection is not a paper engine
    ]
    rows = []
    for name in names:
        benchmark = get_benchmark(name)
        expected = benchmark.expected
        for engine_name in engines:
            system = benchmark.load()
            row: Dict[str, object] = {
                "section": "certify",
                "benchmark": name,
                "expected": expected,
                "engine": engine_name,
            }
            t0 = time.monotonic()
            try:
                result = make_engine(
                    engine_name,
                    system,
                    ignore_unknown_options=True,
                    **bound_options(bound),
                ).verify(timeout=args.timeout)
            except Exception as error:  # noqa: BLE001 - crash category
                row["status"] = Status.ERROR
                row["runtime_s"] = round(time.monotonic() - t0, 6)
                row["reason"] = f"{type(error).__name__}: {error}"
                rows.append(row)
                continue
            row["status"] = result.status
            row["runtime_s"] = round(time.monotonic() - t0, 6)
            row["solver_stats"] = result.detail.get("solver_stats")
            if result.is_definitive:
                row["correct"] = result.status == expected
                validation = validate_result(system, result, timeout=args.timeout)
                row["certificate"] = getattr(result.certificate, "kind", None)
                row["certified"] = validation.ok
                row["validate_s"] = round(validation.runtime, 6)
                if not validation.ok:
                    row["validation_reason"] = validation.reason
            rows.append(row)
        definitive = [
            row for row in rows if row["benchmark"] == name and "certified" in row
        ]
        _log.info(
            f"cert {name:12s} definitive={len(definitive)}/{len(engines)} "
            f"correct={sum(1 for row in definitive if row['correct'])} "
            f"certified={sum(1 for row in definitive if row['certified'])}"
        )
    # inject the liar on the first unsafe design (fallback: the first)
    demo = next(
        (n for n in names if get_benchmark(n).expected == Status.UNSAFE), names[0]
    )
    expected = get_benchmark(demo).expected
    wrong_claim = Status.SAFE if expected == Status.UNSAFE else Status.UNSAFE
    configs = default_portfolio_configs(bound=bound) + [
        PortfolioConfig.of("oracle", claim=wrong_claim)
    ]
    result = PortfolioRunner(
        configs=configs, timeout=args.timeout, cross_check=True, expected=expected
    ).run(VerificationTask.benchmark(demo))
    rows.append({
        "section": "adjudication",
        "benchmark": demo,
        "expected": expected,
        "injected_claim": wrong_claim,
        "status": result.status,
        "winner": result.winner,
        "adjudication": result.detail.get("adjudication"),
    })
    _log.info(
        f"adj  {demo:12s} injected={wrong_claim} portfolio={result.status} "
        f"winner={result.winner}"
    )
    return {"bound": bound, "timeout_s": args.timeout}, rows


def judge_certify(config: Dict, rows: List[Dict]) -> Tuple[Dict, Dict]:
    definitive = [row for row in section(rows, "certify") if "certified" in row]
    wrong = [
        f"{row['benchmark']}:{row['engine']}"
        for row in definitive
        if not row["correct"]
    ]
    unvalidated = [
        f"{row['benchmark']}:{row['engine']}"
        for row in definitive
        if not row["certified"]
    ]
    demo = section(rows, "adjudication")
    gates = {
        "definitive_verdicts_correct": gate(not wrong, wrong=wrong),
        "definitive_verdicts_validated": gate(not unvalidated, unvalidated=unvalidated),
        # the cross-check must side with the honest engines, by adjudication
        "adjudication": gate(
            bool(demo)
            and demo[0]["status"] == demo[0]["expected"]
            and demo[0]["adjudication"] is not None
        ),
    }
    validated = len(definitive) - len(unvalidated)
    summary = {
        "designs": len({row["benchmark"] for row in section(rows, "certify")}),
        "definitive_verdicts": len(definitive),
        "correct_verdicts": len(definitive) - len(wrong),
        "validated_certificates": validated,
        "validation_rate": (
            round(validated / len(definitive), 4) if definitive else None
        ),
    }
    return gates, summary


# ---------------------------------------------------------------------------
# incremental-session mode (--incremental)
# ---------------------------------------------------------------------------

#: mode name -> (incremental_template, persistent_session)
INCREMENTAL_MODES = {
    "session": (True, True),
    "template": (True, False),
    "legacy": (False, False),
}

#: default designs for the incremental-session comparison: the two unsafe
#: designs drive k-induction/kIkI through every bound (their bugs are beyond
#: the depth cap, so the sliding window deepens to max_k), huffman_enc is the
#: solver-bound datapath of BENCH_unroll, mac16 the encode-bound one
DEFAULT_INCREMENTAL_BENCHMARKS = ["daio", "tlc", "huffman_enc", "mac16"]

#: engines of the session-vs-legacy verdict sweep (all converted engines)
SWEEP_ENGINES = ["bmc", "k-induction", "kiki", "interpolation", "predabs"]


def _bound_summary(
    bounds: int, wall_s: float, first: Dict[str, int], last: Dict[str, int]
) -> Dict[str, object]:
    """Bound count, summed per-bound wall clock and the solver work they added."""
    return {
        "bounds": bounds,
        "wall_s": round(wall_s, 6),
        **{
            key: last.get(key, 0) - first.get(key, 0)
            for key in ("conflicts", "propagations", "decisions")
        },
    }


def profile_kinduction_incremental(
    system, property_name: Optional[str], depth: int, mode: str, timeout: float
) -> Dict[str, object]:
    """Profile k-induction bound by bound in one incremental mode.

    Mirrors :class:`repro.engines.kinduction.KInductionEngine` exactly (same
    queries in the same order, through the engine's own session helpers) but
    keeps a per-bound stopwatch and sums the ``SolverStats`` the bounds add.
    """
    from repro.engines.result import Budget
    from repro.sat.solver import SolverStats

    template, persistent = INCREMENTAL_MODES[mode]
    if property_name is None:
        property_name = system.properties[0].name
    engine = KInductionEngine(
        system,
        max_k=depth,
        incremental_template=template,
        persistent_session=persistent,
    )
    engine._stats = SolverStats()
    budget = Budget(timeout)
    start = time.monotonic()

    def totals(base, step) -> Dict[str, int]:
        snapshot = SolverStats()
        snapshot.add(engine._stats)
        for encoder in (base, step):
            if encoder is not None:
                snapshot.add(encoder.solver.stats)
        return snapshot.as_dict()

    base = step = None
    if persistent:
        base, step = engine._fresh_pair(budget)
    first = totals(base, step)
    bounds, bound_wall = 0, 0.0
    verdict = "unknown"
    k_reached = depth
    for k in range(depth + 1):
        if budget.expired():
            verdict = "timeout"
            k_reached = k
            break
        t0 = time.monotonic()
        if not persistent:
            engine._retire_pair(base, step)
            base, step = engine._fresh_pair(budget)
            for frame in range(k):
                base.assert_trans(frame)
            engine._extend_step(step, k, property_name)
        base_property = base.property_literal(property_name, k)
        outcome = base.solver.check(assumptions=[-base_property])
        concluded = None
        if outcome == BVResult.SAT:
            concluded = ("unsafe", k)
        elif outcome == BVResult.UNKNOWN:
            concluded = ("timeout", k)
        if concluded is None:
            if persistent:
                engine._extend_step_frame(step, k, property_name)
            step_property = step.property_literal(property_name, k + 1)
            outcome = step.solver.check(assumptions=[-step_property])
            if outcome == BVResult.UNSAT:
                concluded = ("safe", k + 1)
            elif outcome == BVResult.UNKNOWN:
                concluded = ("timeout", k)
            elif persistent:
                base.assert_trans(k)
        bounds, bound_wall = bounds + 1, bound_wall + time.monotonic() - t0
        if concluded is not None:
            verdict, k_reached = concluded
            break
    summary = _bound_summary(bounds, bound_wall, first, totals(base, step))
    engine._retire_pair(base, step)
    return {
        "mode": mode,
        "verdict": verdict,
        "k": k_reached,
        "total_s": round(time.monotonic() - start, 6),
        "solver_stats": engine._stats.as_dict(),
        "per_bound_summary": summary,
    }


def profile_bmc_incremental(
    system, property_name: Optional[str], depth: int, mode: str, timeout: float
) -> Dict[str, object]:
    """Profile BMC bound by bound in one incremental mode.

    Mirrors :class:`repro.engines.bmc.BMCEngine`: the session mode extends a
    single solver, the template/legacy modes rebuild (with and without frame
    templates) and re-unroll from scratch at every bound.
    """
    from repro.engines.result import Budget
    from repro.sat.solver import SolverStats

    template, persistent = INCREMENTAL_MODES[mode]
    if property_name is None:
        property_name = system.properties[0].name
    budget = Budget(timeout)
    start = time.monotonic()
    totals = SolverStats()

    def snapshot(encoder) -> Dict[str, int]:
        current = SolverStats()
        current.add(totals)
        if encoder is not None:
            current.add(encoder.solver.solver.stats)
        return current.as_dict()

    def fresh():
        encoder = FrameEncoder(
            system, incremental_template=template
        )
        encoder.solver.set_deadline(budget.deadline)
        encoder.assert_init(0)
        return encoder

    encoder = None
    first = snapshot(None)
    bounds, bound_wall = 0, 0.0
    verdict = "unknown"
    bound_reached = depth
    for bound in range(depth + 1):
        if budget.expired():
            verdict = "timeout"
            bound_reached = bound
            break
        t0 = time.monotonic()
        if persistent:
            if encoder is None:
                encoder = fresh()
        else:
            if encoder is not None:
                totals.add(encoder.solver.solver.stats)
            encoder = fresh()
            for frame in range(bound):
                encoder.assert_trans(frame)
        literal = encoder.property_literal(property_name, bound)
        outcome = encoder.solver.check(assumptions=[-literal])
        if outcome == BVResult.SAT:
            verdict = "unsafe"
            bound_reached = bound
        elif outcome == BVResult.UNKNOWN:
            verdict = "timeout"
            bound_reached = bound
        elif persistent:
            encoder.assert_trans(bound)
        bounds, bound_wall = bounds + 1, bound_wall + time.monotonic() - t0
        if verdict != "unknown":
            break
    summary = _bound_summary(bounds, bound_wall, first, snapshot(encoder))
    if encoder is not None:
        totals.add(encoder.solver.solver.stats)
    return {
        "mode": mode,
        "verdict": verdict,
        "bound": bound_reached,
        "total_s": round(time.monotonic() - start, 6),
        "solver_stats": totals.as_dict(),
        "per_bound_summary": summary,
    }


def profile_kiki_incremental(
    system, property_name: Optional[str], depth: int, mode: str, timeout: float
) -> Dict[str, object]:
    """Time kIkI end to end in one incremental mode."""
    template, persistent = INCREMENTAL_MODES[mode]
    t0 = time.monotonic()
    result = KikiEngine(
        system,
        max_k=depth,
        incremental_template=template,
        persistent_session=persistent,
    ).verify(timeout=timeout)
    return {
        "mode": mode,
        "verdict": result.status,
        "k": result.detail.get("k", result.detail.get("max_k")),
        "total_s": round(time.monotonic() - t0, 6),
        "solver_stats": result.detail.get("solver_stats"),
    }


#: section -> (profiler, the bound key its modes must agree on besides the
#: verdict); kIkI's k may legitimately differ between lifecycles
INCREMENTAL_PROFILES = {
    "kinduction": (profile_kinduction_incremental, "k"),
    "kiki": (profile_kiki_incremental, None),
    "bmc": (profile_bmc_incremental, "bound"),
}


def run_incremental_section(
    name: str, designs: List[str], depth: int, timeout: float
) -> List[Dict]:
    """Profile one engine per design in every lifecycle of ``INCREMENTAL_MODES``."""
    profile, bound_key = INCREMENTAL_PROFILES[name]
    rows = []
    for design in designs:
        benchmark = get_benchmark(design)
        modes = {
            mode: profile(benchmark.load(), None, depth, mode, timeout)
            for mode in INCREMENTAL_MODES
        }
        session_s = max(1e-9, modes["session"]["total_s"])
        row = {
            "section": name,
            "benchmark": design,
            "depth": depth,
            "modes": modes,
            "speedup_session_vs_legacy": round(
                modes["legacy"]["total_s"] / session_s, 2
            ),
            "speedup_session_vs_template": round(
                modes["template"]["total_s"] / session_s, 2
            ),
            "verdicts_match": len(
                {(m["verdict"], m.get(bound_key)) for m in modes.values()}
            ) == 1,
        }
        rows.append(row)
        _log.info(
            f"{name:10s} {design:12s} depth={depth} "
            + " ".join(f"{mode}={m['total_s']:.3f}s" for mode, m in modes.items())
            + f" speedup={row['speedup_session_vs_legacy']:.2f}x "
            f"verdict={modes['session']['verdict']} "
            f"{'OK' if row['verdicts_match'] else 'MISMATCH'}"
        )
    return rows


def run_incremental_sweep(bound: int, timeout: float) -> List[Dict]:
    """Session vs legacy verdicts for every converted engine on every design.

    The session run is the production path, so it is the row's engine run;
    the legacy run is nested under ``legacy``.
    """
    rows = []
    for name in benchmark_names():
        benchmark = get_benchmark(name)
        for engine_name in SWEEP_ENGINES:
            outcomes = {}
            for label, persistent in (("session", True), ("legacy", False)):
                system = benchmark.load()
                t0 = time.monotonic()
                result = make_engine(
                    engine_name,
                    system,
                    ignore_unknown_options=True,
                    persistent_session=persistent,
                    **bound_options(bound),
                ).verify(timeout=timeout)
                outcomes[label] = {
                    "status": result.status,
                    "runtime_s": round(time.monotonic() - t0, 6),
                }
            rows.append({
                "section": "verdict_sweep",
                "benchmark": name,
                "engine": engine_name,
                **outcomes["session"],
                "legacy": outcomes["legacy"],
                "verdicts_match": outcomes["session"]["status"]
                == outcomes["legacy"]["status"],
            })
        matches = sum(
            1 for row in rows if row["benchmark"] == name and row["verdicts_match"]
        )
        _log.info(
            f"swp  {name:12s} {matches}/{len(SWEEP_ENGINES)} engines "
            f"session==legacy"
        )
    return rows


def run_incremental(args, depth: int, names: List[str]) -> Tuple[Dict, List[Dict]]:
    rows = [
        row
        for name in INCREMENTAL_PROFILES
        for row in run_incremental_section(name, names, depth, args.timeout)
    ] + run_incremental_sweep(min(depth, 8), args.timeout)
    return {"depth": depth, "timeout_s": args.timeout}, rows


def judge_incremental(config: Dict, rows: List[Dict]) -> Tuple[Dict, Dict]:
    def speedups(name: str) -> Dict[str, float]:
        return {
            row["benchmark"]: row["speedup_session_vs_legacy"]
            for row in section(rows, name)
        }

    gates = {"verdicts_match": _verdicts_match_gate(rows)}
    summary = {
        "kinduction_speedups_session_vs_legacy": speedups("kinduction"),
        "kiki_speedups_session_vs_legacy": speedups("kiki"),
        "bmc_speedups_session_vs_legacy": speedups("bmc"),
        "runs_at_or_above_2x": sum(
            1
            for row in section(rows, "kinduction") + section(rows, "kiki")
            if row["speedup_session_vs_legacy"] >= 2.0
        ),
        "bmc_conflicts_session_vs_legacy": {
            row["benchmark"]: {
                mode: row["modes"][mode]["solver_stats"]["conflicts"]
                for mode in ("session", "legacy")
            }
            for row in section(rows, "bmc")
        },
    }
    return gates, summary


# ---------------------------------------------------------------------------
# serve mode (--serve): cache sweeps, ladder vs fan-out, minimization
# ---------------------------------------------------------------------------

#: designs raced ladder-vs-fanout (a mix where different engines of the
#: cheap rung decide: random simulation or BMC refutes daio/tlc, absint
#: proves huffman_dec, the shallow kIkI proves buffalloc)
DEFAULT_LADDER_BENCHMARKS = ["daio", "tlc", "huffman_dec", "buffalloc"]

#: (design, engine) pairs whose SAFE certificates carry droppable conjuncts
#: (kIkI's strengthening invariants usually all drop once k is found, PDR's
#: frame clauses sometimes do); the minimization subsection shrinks them and
#: times validation before/after
DEFAULT_MINIMIZE_CASES = [
    ("huffman_dec", "kiki"),
    ("rcu", "kiki"),
    ("arbiter", "kiki"),
    ("proc3", "pdr"),
]


def run_serve_sweeps(
    names: List[str],
    bound: int,
    timeout: float,
    jobs: Optional[int],
    cache_dir: str,
) -> List[Dict]:
    """Sweep the suite twice against one cache: cold fills, warm must hit.

    Each pass yields one ``sweep`` row and one ``sweep_item`` row per item;
    an item the engines computed (not a cache hit) names its ``engine``.
    """
    from repro.cache import ResultCache
    from repro.engines.batch import BatchItem, BatchRunner

    items = [BatchItem.benchmark(name) for name in names]
    rows: List[Dict] = []
    for label in ("cold", "warm"):
        cache = ResultCache(cache_dir, validation_timeout=timeout)
        runner = BatchRunner(
            cache=cache, jobs=jobs, timeout=timeout, bound=bound
        )
        report = runner.run(items)
        sweep = report.to_json()
        results = sweep.pop("items")
        rows.append({
            "section": "sweep", "pass": label, **sweep,
            "cache_stats": cache.stats(),
        })
        for item in results:
            if not str(item["source"]).startswith("cache"):
                item["engine"] = item["source"]
            rows.append({"section": "sweep_item", "pass": label, **item})
        _log.info(
            f"serve {label:5s} {len(report.items)} items in {report.wall_s:.3f}s: "
            f"{report.cache_hits} hits / {report.cache_misses} misses, "
            f"verdicts {'OK' if report.all_correct else 'WRONG'}"
        )
    return rows


def run_ladder_section(
    names: List[str], bound: int, timeout: float, jobs: Optional[int]
) -> List[Dict]:
    """Race the budget ladder against the all-at-once fan-out per design."""
    from repro.engines.portfolio import default_budget_ladder, learn_priors

    priors = learn_priors()
    rows = []
    for name in names:
        benchmark = get_benchmark(name)
        task = VerificationTask.benchmark(name)
        fanout = PortfolioRunner(
            configs=default_portfolio_configs(bound=bound),
            timeout=timeout,
            max_workers=jobs,
            expected=benchmark.expected,
        ).run(task)
        ladder = PortfolioRunner(
            ladder=default_budget_ladder(
                bound=bound, timeout=timeout, priors=priors
            ),
            timeout=timeout,
            max_workers=jobs,
            expected=benchmark.expected,
        ).run(task)
        ladder_detail = ladder.detail.get("ladder", {})
        decided_rung = ladder_detail.get("decided_rung")
        rung_rows = ladder_detail.get("rungs", [])
        decided_tier = (
            rung_rows[decided_rung]["tier"]
            if decided_rung is not None and decided_rung < len(rung_rows)
            else None
        )
        cheap_decided = decided_tier == "cheap"
        row = {
            "section": "ladder_vs_fanout",
            "benchmark": name,
            "expected": benchmark.expected,
            "fanout": {
                "status": fanout.status,
                "winner": fanout.winner,
                "wall_s": round(fanout.runtime, 6),
                "cpu_s": fanout.detail.get("cpu_s"),
            },
            "ladder": {
                "status": ladder.status,
                "winner": ladder.winner,
                "wall_s": round(ladder.runtime, 6),
                "cpu_s": ladder.detail.get("cpu_s"),
                "decided_rung": decided_rung,
                "decided_tier": decided_tier,
                "rungs": rung_rows,
            },
            "verdicts_match": fanout.status == ladder.status,
            "cheap_rung_decided": cheap_decided,
            "ladder_cpu_within_fanout": (
                ladder.detail.get("cpu_s", 0.0)
                <= fanout.detail.get("cpu_s", 0.0)
            ),
        }
        rows.append(row)
        _log.info(
            f"ldr  {name:12s} ladder={row['ladder']['wall_s']:.3f}s/"
            f"cpu {row['ladder']['cpu_s']}s rung={decided_rung} "
            f"fanout={row['fanout']['wall_s']:.3f}s/cpu {row['fanout']['cpu_s']}s "
            f"{'OK' if row['verdicts_match'] else 'MISMATCH'}"
        )
    return rows


def run_minimization_section(
    cases: List[Tuple[str, str]], timeout: float, repeats: int = 3
) -> List[Dict]:
    """Shrink SAFE certificates and time validation before/after.

    Validation is timed as the fastest of ``repeats`` passes — a single
    validator run is a few milliseconds, so one-shot timings are noise.
    """
    from repro.cache import minimize_certificate
    from repro.certs import validate_certificate

    def timed_validation(system, certificate):
        best = float("inf")
        validation = None
        for _ in range(max(1, repeats)):
            t0 = time.monotonic()
            validation = validate_certificate(system, certificate)
            best = min(best, time.monotonic() - t0)
        return validation, best

    rows = []
    for name, engine_name in cases:
        benchmark = get_benchmark(name)
        system = benchmark.load()
        result = make_engine(engine_name, system).verify(timeout=timeout)
        if result.status != Status.SAFE or result.certificate is None:
            rows.append({
                "section": "minimization",
                "benchmark": name,
                "engine": engine_name,
                "status": result.status,
            })
            continue
        original_validation, validate_original_s = timed_validation(
            system, result.certificate
        )
        minimization = minimize_certificate(system, result.certificate)
        minimized_validation, validate_minimized_s = timed_validation(
            system, minimization.certificate
        )
        row = {
            "section": "minimization",
            "benchmark": name,
            "engine": engine_name,
            "status": result.status,
            "certificate_kind": getattr(result.certificate, "kind", None),
            "original_conjuncts": minimization.original_size,
            "minimized_conjuncts": minimization.size,
            "minimize_checks": minimization.checks,
            "validate_original_s": round(validate_original_s, 6),
            "validate_minimized_s": round(validate_minimized_s, 6),
            "both_validate": bool(
                original_validation.ok and minimized_validation.ok
            ),
            "validation_speedup": round(
                validate_original_s / max(1e-9, validate_minimized_s), 2
            ),
        }
        rows.append(row)
        _log.info(
            f"min  {name:12s} {engine_name:5s} {minimization.original_size} -> "
            f"{minimization.size} conjuncts, validate "
            f"{validate_original_s * 1e3:.1f}ms -> {validate_minimized_s * 1e3:.1f}ms "
            f"{'OK' if row['both_validate'] else 'FAIL'}"
        )
    return rows


def run_serve(args, bound: int, names: List[str]) -> Tuple[Dict, List[Dict]]:
    cache_dir = args.cache_dir
    if cache_dir is None:
        import tempfile

        cache_dir = tempfile.mkdtemp(prefix="repro-serve-cache-")
    ladder_names = [n for n in DEFAULT_LADDER_BENCHMARKS if n in names] or names[:4]
    minimize_cases = [
        (n, engine) for n, engine in DEFAULT_MINIMIZE_CASES if n in names
    ] or [(n, "pdr") for n in names[:4]]
    rows = (
        run_serve_sweeps(names, bound, args.timeout, args.jobs, cache_dir)
        + run_ladder_section(ladder_names, bound, args.timeout, args.jobs)
        + run_minimization_section(minimize_cases, args.timeout)
    )
    return {"bound": bound, "timeout_s": args.timeout}, rows


def judge_serve(config: Dict, rows: List[Dict]) -> Tuple[Dict, Dict]:
    passes = {row["pass"]: row for row in section(rows, "sweep")}
    cold = [row for row in section(rows, "sweep_item") if row["pass"] == "cold"]
    warm = [row for row in section(rows, "sweep_item") if row["pass"] == "warm"]
    speedup = round(
        passes["cold"]["wall_s"] / max(1e-9, passes["warm"]["wall_s"]), 2
    )
    cold_cheap = sum(1 for row in cold if row["rung"] == 0)
    ladder = section(rows, "ladder_vs_fanout")
    cheap = [row for row in ladder if row["cheap_rung_decided"]]
    minimized = [
        row
        for row in section(rows, "minimization")
        if row.get("minimized_conjuncts") is not None
        and row["minimized_conjuncts"] < row["original_conjuncts"]
    ]
    original_s = sum(row["validate_original_s"] for row in minimized)
    minimized_s = sum(row["validate_minimized_s"] for row in minimized)

    def verdicts(items: List[Dict]) -> Dict[Tuple[str, str], str]:
        return {(row["design"], row["property"]): row["status"] for row in items}

    gates = {
        "cold_warm_verdicts_agree": gate(verdicts(cold) == verdicts(warm)),
        "verdicts_correct": gate(
            passes["cold"]["all_correct"] and passes["warm"]["all_correct"]
        ),
        "warm_all_hits": gate(all(row["source"] == "cache" for row in warm)),
        "warm_hits_revalidated": gate(all(row["validated"] for row in warm)),
        "warm_speedup": gate(speedup >= 3.0, observed=speedup, min=3.0),
        # the cheap rung (probes, shallow kIkI, then BMC) decides every cold
        # unit: no suite unit may need the provers of the later rungs
        "cold_sweep_decided_in_cheap_rung": gate(
            cold_cheap == len(cold), observed=cold_cheap, min=len(cold)
        ),
        "ladder_verdicts_match": _verdicts_match_gate(ladder),
        # the CPU gate only applies where the *cheap* tier decided: a design
        # escalated to the provers pays the cheap rung's probe as overhead
        "ladder_cpu_within_fanout": gate(
            all(row["ladder_cpu_within_fanout"] for row in cheap),
            cheap_decided=[row["benchmark"] for row in cheap],
        ),
        "minimized_certificates_validate": gate(
            all(row["both_validate"] for row in minimized)
        ),
        "minimized_validate_no_slower": gate(
            minimized_s <= original_s,
            minimized_s=round(minimized_s, 6),
            original_s=round(original_s, 6),
        ),
    }
    summary = {
        "items": len(cold),
        "cold_wall_s": passes["cold"]["wall_s"],
        "warm_wall_s": passes["warm"]["wall_s"],
        "warm_speedup": speedup,
        "cold_decided_in_cheap_rung": cold_cheap,
        "ladder_designs": len(ladder),
        "cheap_rung_decided": len(cheap),
        "certificates_minimized": len(minimized),
    }
    return gates, summary


# ---------------------------------------------------------------------------
# --faults: seeded chaos sweeps through the supervised batch runner
# ---------------------------------------------------------------------------

#: designs for the chaos sweeps: one fast refutation, one fast proof — small
#: enough that a sweep with kills, hangs and retries still finishes quickly
DEFAULT_FAULTS_BENCHMARKS = ["daio", "buffalloc"]

#: per-kind firing rates of a chaos sweep; destructive kinds are frequent
#: enough that every sweep exercises them, but ``first_attempt_only`` plans
#: let supervised retries run clean so the sweep still converges
CHAOS_RATES = {
    "crash": 0.35,
    "slow-start": 0.5,
    "worker-kill": 0.35,
    "hang": 0.25,
    "hang-hard": 0.25,
    "spawn-fail": 0.15,
    "cert-forge": 0.3,
    "cache-corrupt": 0.5,
    "cache-truncate": 0.5,
}


def _reap_leaked_children(grace_s: float = 5.0) -> List[int]:
    """Join any still-registered child processes; return leaked PIDs."""
    import multiprocessing

    deadline = time.monotonic() + grace_s
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))
    return [
        child.pid
        for child in multiprocessing.active_children()
        if child.is_alive()
    ]


def run_chaos_sweep(
    seed: int,
    names: List[str],
    bound: int,
    timeout: float,
    jobs: Optional[int],
    cache_dir: str,
) -> List[Dict]:
    """One seeded fault-injection sweep through the certified batch runner.

    The sweep must end with a definitive, independently validated verdict
    for every item despite injected kills, crashes, wedges, spawn failures,
    forged certificates and cache tampering — and must leak no processes.
    After the sweep, ``fsck`` heals whatever the tamper faults left in the
    cache; a second ``fsck`` must come back clean.
    """
    from repro.cache import ResultCache
    from repro.engines.batch import BatchItem, BatchRunner
    from repro.faults.injection import plan_installed
    from repro.faults.plan import FaultPlan

    items = [BatchItem.benchmark(name) for name in names]
    plan = FaultPlan(seed=seed, rates=dict(CHAOS_RATES))
    start = time.perf_counter()
    with plan_installed(plan):
        cache = ResultCache(cache_dir, validation_timeout=timeout)
        runner = BatchRunner(
            cache=cache,
            jobs=jobs,
            timeout=timeout,
            bound=bound,
            certify=True,
            attempt_timeout=max(3.0, timeout / 4.0),
        )
        report = runner.run(items)
    wall = time.perf_counter() - start
    leaked = _reap_leaked_children()

    results = report.to_json()["items"]
    all_definitive = all(item["status"] in Status.DEFINITIVE for item in results)

    # heal the cache the tamper faults mangled, then prove it stays healed
    heal = ResultCache(cache_dir, validation_timeout=timeout)
    fsck_first = heal.fsck()
    fsck_second = heal.fsck()

    row = {
        "section": "chaos_sweep",
        "seed": seed,
        "wall_s": round(wall, 6),
        "driver_faults_fired": list(plan.fired),
        "retries": report.retries,
        "degraded": report.degraded,
        "all_correct": report.all_correct,
        "all_definitive": all_definitive,
        "leaked_pids": leaked,
        "fsck": {
            "first": {
                "checked": fsck_first["checked"],
                "pruned": len(fsck_first["pruned"]),
                "quarantined": len(fsck_first["quarantined"]),
            },
            "second_clean": bool(fsck_second["clean"]),
        },
    }
    _log.info(
        f"chaos seed {seed}: {len(results)} items in {wall:.3f}s, "
        f"{report.retries} retries, {report.degraded} degraded, "
        f"verdicts {'OK' if report.all_correct else 'WRONG'}"
        f"{'' if all_definitive else ' (non-definitive!)'}, "
        f"fsck pruned {row['fsck']['first']['pruned']} / quarantined "
        f"{row['fsck']['first']['quarantined']}, "
        f"leaked {leaked or 'none'}"
    )
    return [row] + [
        {
            "section": "chaos_item",
            "seed": seed,
            "design": item["design"],
            "property": item["property"],
            "status": item["status"],
            "source": item["source"],
            "attempts": len((item.get("supervision") or {}).get("attempts", [])) or 1,
        }
        for item in results
    ]


def run_hang_interrupt_demo(timeout: float) -> Dict[str, object]:
    """Wedge a SAT solve in-process; the cooperative deadline must break it.

    A ``hang``-only plan arms the solver wedge inside a driver-process
    ``verify`` call.  The wedge spins until the engine's armed deadline
    passes, the next checkpoint raises ``SolverInterrupted``, and the engine
    returns a TIMEOUT verdict — the process itself must survive (same PID,
    no exception), which is the acceptance path for hangs injected into
    in-process (degraded) execution.
    """
    from repro.faults.injection import plan_installed
    from repro.faults.plan import HANG, FaultPlan

    system = get_benchmark("buffalloc").load()
    budget = min(2.0, timeout)
    pid = os.getpid()
    start = time.perf_counter()
    with plan_installed(FaultPlan(seed=0, rates={HANG: 1.0})):
        engine = make_engine("k-induction", system, max_k=16)
        result = engine.verify(timeout=budget)
    wall = time.perf_counter() - start
    row = {
        "section": "hang_demo",
        "design": "buffalloc",
        "engine": "k-induction",
        "budget_s": budget,
        "wall_s": round(wall, 6),
        "status": str(result.status),
        "pid_preserved": os.getpid() == pid,
        "interrupted_within_budget": wall < budget + 2.0,
    }
    _log.info(
        f"hang demo: wedged k-induction on buffalloc interrupted after "
        f"{wall:.3f}s (budget {budget:.1f}s), verdict {result.status}, "
        f"process survived: {row['pid_preserved']}"
    )
    return row


def run_faults(args, bound: int, names: List[str]) -> Tuple[Dict, List[Dict]]:
    import tempfile

    rows: List[Dict] = []
    for seed in range(args.seeds):
        cache_dir = (
            os.path.join(args.cache_dir, f"seed{seed}")
            if args.cache_dir is not None
            else tempfile.mkdtemp(prefix=f"repro-chaos-cache-{seed}-")
        )
        rows += run_chaos_sweep(seed, names, bound, args.timeout, args.jobs, cache_dir)
    rows.append(run_hang_interrupt_demo(args.timeout))
    config = {"bound": bound, "timeout_s": args.timeout, "rates": CHAOS_RATES}
    return config, rows


def judge_faults(config: Dict, rows: List[Dict]) -> Tuple[Dict, Dict]:
    sweeps = section(rows, "chaos_sweep")
    hang = section(rows, "hang_demo")

    def every_sweep(failed) -> Dict[str, object]:
        seeds = [row["seed"] for row in sweeps if failed(row)]
        return gate(sweeps and not seeds, failed_seeds=seeds)

    gates = {
        "zero_wrong_verdicts": every_sweep(lambda row: not row["all_correct"]),
        "all_verdicts_definitive": every_sweep(lambda row: not row["all_definitive"]),
        "zero_leaked_processes": every_sweep(lambda row: row["leaked_pids"]),
        "caches_healed": every_sweep(lambda row: not row["fsck"]["second_clean"]),
        # the wedge is broken by the deadline: same process, no verdict, on time
        "hang_interrupted_in_process": gate(
            hang
            and hang[0]["pid_preserved"]
            and hang[0]["interrupted_within_budget"]
            and hang[0]["status"] not in (Status.SAFE, Status.UNSAFE)
        ),
    }
    summary = {
        "sweeps": len(sweeps),
        "total_retries": sum(row["retries"] for row in sweeps),
        "total_degraded": sum(row["degraded"] for row in sweeps),
    }
    return gates, summary


# ---------------------------------------------------------------------------
# --serve-soak: chaos soak against a live repro-serve server
# ---------------------------------------------------------------------------

#: chaos rates installed *in the soaked server* (engine-site faults retried
#: under supervision plus the journal-tear); the client-disconnect draws run
#: in the harness process against distinct per-design sites
SOAK_SERVER_RATES = (
    "crash=0.25,slow-start=0.3,worker-kill=0.25,cert-forge=0.25,"
    "journal-torn=0.2"
)
SOAK_COALESCE_DESIGN = "mac16"
SOAK_COALESCE_CLIENTS = 8
SOAK_DISCONNECT_DESIGNS = ["proc3", "rcu", "fifo", "iqueue", "arbiter", "barrel16"]


def _start_soak_server(args_list: List[str]) -> "subprocess.Popen":
    """Launch one server subprocess in its own session (= process group).

    The fresh session is the leak oracle: after a drain or a kill, every
    process the server ever forked must be gone, which
    :func:`_soak_group_gone` checks by signalling the whole group.
    """
    import subprocess
    import sys

    return subprocess.Popen(
        [sys.executable, "-m", "repro.tools.serve_cli", *args_list],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )


def _soak_group_gone(pgid: int, grace_s: float = 20.0) -> bool:
    """True when no process of the server's group survives within the grace."""
    import signal as signal_module

    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        except PermissionError:  # pragma: no cover - zombie group
            pass
        time.sleep(0.1)
    try:
        os.killpg(pgid, signal_module.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return True
    return False


def _soak_wait_socket(path: str, timeout_s: float = 30.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if os.path.exists(path):
            return True
        time.sleep(0.05)
    return False


def _soak_classify(design: str, reply: Dict[str, object]) -> str:
    """Apply the WRONG classification to a server reply (suite ground truth)."""
    status = str(reply.get("status", Status.ERROR))
    expected = get_benchmark(design).expected
    if status in Status.DEFINITIVE and status != expected:
        return Status.WRONG
    return status


def run_serve_soak(
    seed: int, timeout: float, workdir: str
) -> List[Dict]:
    """The full soak: graceful chaos run, SIGKILL mid-flight, recovery run.

    Run A starts a chaos-seeded server and drives it through the acceptance
    scenarios — K-client coalescing, a warm-hit latency sample, an
    over-capacity flood, seeded client disconnects, a too-tight deadline —
    then drains it gracefully.  Run B accepts slow requests and SIGKILLs
    the whole server group mid-flight, leaving the journal with open
    entries.  Run C restarts on that journal and must NACK every one.
    Each phase's observations become one row; :func:`judge_serve_soak`
    holds the gates.
    """
    import statistics
    import signal as signal_module

    from repro.faults.injection import client_disconnect, plan_installed
    from repro.faults.plan import CLIENT_DISCONNECT, FaultPlan
    from repro.obs.export import lint_trace, load_trace
    from repro.serve.client import ServeClient, ServeError
    from repro.serve.journal import RequestJournal

    sock = os.path.join(workdir, "serve.sock")
    cache_dir = os.path.join(workdir, "cache")
    journal_a = os.path.join(workdir, "journal_a.jsonl")
    trace_a = os.path.join(workdir, "trace_a.jsonl")
    phases: Dict[str, Dict] = {}

    # ----- run A: chaos-seeded serving until graceful drain --------------
    server = _start_soak_server([
        "--socket", sock, "--cache-dir", cache_dir,
        "--journal", journal_a, "--trace", trace_a,
        "--max-queue", "4", "--workers", "1:2",
        "--target-latency", "5",
        "--default-deadline", str(timeout),
        "--attempt-timeout", str(max(3.0, timeout / 4.0)),
        "--certify",
        "--chaos", str(seed), "--chaos-rates", SOAK_SERVER_RATES,
        "-q",
    ])
    pgid_a = server.pid
    if not _soak_wait_socket(sock):
        server.kill()
        return _phase_rows({"error": {"error": "run A server never opened its socket"}})

    wrong: List[str] = []

    _log.verbose(f"soak seed {seed}: run A up (pid {server.pid})")

    # A.1 coalescing: K concurrent identical cold queries, one computation
    import threading

    barrier = threading.Barrier(SOAK_COALESCE_CLIENTS)
    coalesce_replies: List[Dict[str, object]] = []
    coalesce_accepts: List[Dict[str, object]] = []
    lock = threading.Lock()

    def coalesce_client() -> None:
        with ServeClient(socket_path=sock) as client:
            barrier.wait()
            accepted = client.submit(
                {"design": SOAK_COALESCE_DESIGN, "bound": 96,
                 "deadline_s": max(60.0, timeout)}
            )
            reply = client.result(accepted["id"])
            with lock:
                coalesce_accepts.append(accepted)
                coalesce_replies.append(reply)

    threads = [
        threading.Thread(target=coalesce_client)
        for _ in range(SOAK_COALESCE_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=max(120.0, timeout * 3))
    with ServeClient(socket_path=sock) as client:
        stats_after_k = client.stats()
    computations_k = stats_after_k["counters"]["computations"]
    coalesced_k = sum(1 for a in coalesce_accepts if a.get("coalesced"))
    for reply in coalesce_replies:
        if _soak_classify(SOAK_COALESCE_DESIGN, reply) == Status.WRONG:
            wrong.append(f"{SOAK_COALESCE_DESIGN}: {reply.get('status')}")
    phases["coalesce"] = {
        "clients": SOAK_COALESCE_CLIENTS,
        "replies": len(coalesce_replies),
        "computations": computations_k,
        "coalesced": coalesced_k,
        "ratio": round(coalesced_k / SOAK_COALESCE_CLIENTS, 3),
    }

    _log.verbose("soak: coalesce phase done")

    # A.2 warm path: repeated hits served from the validated-cert cache
    warm_latencies: List[float] = []
    warm_sources: List[str] = []
    with ServeClient(socket_path=sock) as client:
        for _ in range(20):
            t0 = time.perf_counter()
            reply = client.verify(
                design=SOAK_COALESCE_DESIGN, bound=96,
                deadline_s=max(60.0, timeout),
            )
            warm_latencies.append(time.perf_counter() - t0)
            warm_sources.append(str(reply.get("source")))
            if _soak_classify(SOAK_COALESCE_DESIGN, reply) == Status.WRONG:
                wrong.append(f"warm {SOAK_COALESCE_DESIGN}: {reply.get('status')}")
    warm_p50 = statistics.median(warm_latencies)
    phases["warm"] = {
        "queries": len(warm_latencies),
        "all_cache_hits": all(s == "cache" for s in warm_sources),
        "p50_s": round(warm_p50, 6),
        "max_s": round(max(warm_latencies), 6),
    }

    _log.verbose("soak: warm phase done")

    # A.3 flood: distinct keys past the queue cap; overload must be explicit
    flood_targets = [
        (name, rep)
        for rep in ("word", "bit")
        for name in benchmark_names()
    ]
    flood_accepted: List[Tuple[str, str]] = []
    flood_rejected = 0
    with ServeClient(socket_path=sock) as client:
        for name, rep in flood_targets:
            try:
                accepted = client.submit(
                    {"design": name, "representation": rep, "bound": 64,
                     "deadline_s": min(20.0, timeout), "priority": "bulk"}
                )
                flood_accepted.append((name, accepted["id"]))
            except ServeError:
                flood_rejected += 1
        for name, request_id in flood_accepted:
            reply = client.result(request_id)
            if _soak_classify(name, reply) == Status.WRONG:
                wrong.append(f"flood {name}: {reply.get('status')}")
    phases["flood"] = {
        "submitted": len(flood_targets),
        "accepted": len(flood_accepted),
        "rejected_overloaded": flood_rejected,
    }

    _log.verbose("soak: flood phase done")

    # A.4 seeded client disconnects: hang up mid-request, server must not
    disconnects = 0
    with plan_installed(FaultPlan(seed=seed, rates={CLIENT_DISCONNECT: 0.5})):
        for name in SOAK_DISCONNECT_DESIGNS:
            client = ServeClient(socket_path=sock)
            try:
                accepted = client.submit(
                    {"design": name, "bound": 64,
                     "deadline_s": min(30.0, timeout)}
                )
            except ServeError:
                client.close()
                continue
            if client_disconnect(name):
                disconnects += 1
                client.close()  # vanish without reading the result
            else:
                reply = client.result(accepted["id"])
                if _soak_classify(name, reply) == Status.WRONG:
                    wrong.append(f"disconnect {name}: {reply.get('status')}")
                client.close()
    phases["disconnects"] = {"fired": disconnects}

    _log.verbose("soak: disconnect phase done")

    # A.5 deadline: a too-tight budget must come back, on time, not wedge
    t0 = time.perf_counter()
    with ServeClient(socket_path=sock) as client:
        reply = client.verify(
            design="huffman_dec", representation="bit", bound=128,
            deadline_s=0.2,
        )
    deadline_wall = time.perf_counter() - t0
    phases["deadline"] = {
        "status": reply.get("status"),
        "wall_s": round(deadline_wall, 6),
        "wrong": _soak_classify("huffman_dec", reply) == Status.WRONG,
    }

    _log.verbose("soak: deadline phase done")

    # A.6 graceful drain: everything accepted was answered or cancelled
    with ServeClient(socket_path=sock) as client:
        final_stats = client.stats()
        client.drain()
    drain_rc = server.wait(timeout=max(120.0, timeout * 3))
    counters = final_stats["counters"]
    group_a_gone = _soak_group_gone(pgid_a)
    trace_problems: List[str] = []
    try:
        trace_problems = lint_trace(load_trace(trace_a))
    except (OSError, ValueError) as error:
        trace_problems = [str(error)]
    phases["run_a"] = {
        "counters": counters,
        "throttle": final_stats["throttle"],
        "drain_exit_code": drain_rc,
        "journal_torn_injected": final_stats.get("journal", {}).get(
            "torn_injected", 0
        ),
        "no_leaked_processes": group_a_gone,
        "trace_problems": trace_problems,
        "journal_open_after_drain": len(
            RequestJournal(journal_a).replay().open_requests
        ),
    }

    _log.verbose("soak: run A drained")

    # ----- run B: SIGKILL mid-flight leaves the journal open -------------
    journal_b = os.path.join(workdir, "journal_b.jsonl")
    cache_b = os.path.join(workdir, "cache_b")
    if os.path.exists(sock):
        os.unlink(sock)
    server_b = _start_soak_server([
        "--socket", sock, "--cache-dir", cache_b,
        "--journal", journal_b,
        "--max-queue", "8", "--workers", "1:2",
        "--default-deadline", "120", "-q",
    ])
    pgid_b = server_b.pid
    kill_row: Dict[str, object] = {}
    if not _soak_wait_socket(sock):
        server_b.kill()
        kill_row["error"] = "run B server never opened its socket"
    else:
        client = ServeClient(socket_path=sock)
        client.submit({"design": "mac16", "representation": "bit",
                       "bound": 120, "deadline_s": 120})
        client.submit({"design": "huffman_dec", "representation": "bit",
                       "bound": 120, "deadline_s": 120})
        time.sleep(0.5)
        try:
            os.killpg(pgid_b, signal_module.SIGKILL)
        except ProcessLookupError:
            pass
        client.close()
        server_b.wait(timeout=30)
    kill_row["no_survivors"] = _soak_group_gone(pgid_b)
    open_after_kill = RequestJournal(journal_b).replay().open_requests
    kill_row["journal_open_after_kill"] = len(open_after_kill)
    phases["run_b"] = kill_row

    _log.verbose("soak: run B killed")

    # ----- run C: restart on the killed journal, NACK the orphans --------
    trace_c = os.path.join(workdir, "trace_c.jsonl")
    # a SIGKILLed server cannot unlink its socket; clear the stale file so
    # the bind (and our readiness poll) see a fresh one
    if os.path.exists(sock):
        os.unlink(sock)
    server_c = _start_soak_server([
        "--socket", sock, "--cache-dir", cache_b,
        "--journal", journal_b, "--recover", "nack",
        "--trace", trace_c,
        "--max-queue", "8", "--workers", "1:2", "-q",
    ])
    pgid_c = server_c.pid
    restart_row: Dict[str, object] = {}
    if not _soak_wait_socket(sock):
        server_c.kill()
        restart_row["error"] = "run C server never opened its socket"
    else:
        with ServeClient(socket_path=sock) as client:
            stats_c = client.stats()
            reply = client.verify(design="daio", deadline_s=max(60.0, timeout))
            if _soak_classify("daio", reply) == Status.WRONG:
                wrong.append(f"post-restart daio: {reply.get('status')}")
            client.drain()
        rc_c = server_c.wait(timeout=max(120.0, timeout * 3))
        restart_row["recovered_nacked"] = stats_c["counters"]["recovered_nacked"]
        restart_row["recovery"] = stats_c["recovery"]
        restart_row["post_restart_status"] = reply.get("status")
        restart_row["drain_exit_code"] = rc_c
        restart_row["no_leaked_processes"] = _soak_group_gone(pgid_c)
        try:
            problems_c = lint_trace(load_trace(trace_c))
        except (OSError, ValueError) as error:
            problems_c = [str(error)]
        restart_row["trace_problems"] = problems_c
        restart_row["journal_open_after_drain"] = len(
            RequestJournal(journal_b).replay().open_requests
        )
    phases["run_c"] = restart_row

    phases["verdicts"] = {"wrong": wrong}
    _log.info(
        f"serve soak seed {seed}: coalesce {coalesced_k}/{SOAK_COALESCE_CLIENTS} "
        f"({computations_k} computation), warm p50 {warm_p50*1000:.1f}ms, "
        f"{flood_rejected} overload rejection(s), {disconnects} disconnect(s), "
        f"kill left {len(open_after_kill)} journaled, "
        f"recovery nacked {restart_row.get('recovered_nacked', '?')}"
    )
    return _phase_rows(phases)


def _phase_rows(phases: Dict[str, Dict]) -> List[Dict]:
    """One row per soak phase, in the order the phases ran."""
    return [{"section": name, **data} for name, data in phases.items()]


def run_soak(
    soak: Callable[[int, float, str], List[Dict]],
    trace_name: str,
    rates: Dict[str, str],
    args,
    depth,
    names,
) -> Tuple[Dict, List[Dict]]:
    """Run one soak in a fresh work dir; copy its trace to ``--trace-out``."""
    import shutil
    import tempfile

    workdir = tempfile.mkdtemp(prefix="repro-soak-", dir="/tmp")
    rows = soak(args.seed, args.timeout, workdir)
    trace = os.path.join(workdir, trace_name)
    if os.path.exists(trace):
        shutil.copyfile(trace, args.trace_out)
        print(f"soak trace copied to {args.trace_out}")
    return {"timeout_s": args.timeout, "seed": args.seed, **rates}, rows


def judge_serve_soak(config: Dict, rows: List[Dict]) -> Tuple[Dict, Dict]:
    phase = {row["section"]: row for row in rows}
    coalesce, warm, flood = (phase.get(n, {}) for n in ("coalesce", "warm", "flood"))
    deadline, run_a = phase.get("deadline", {}), phase.get("run_a", {})
    run_b, run_c = phase.get("run_b", {}), phase.get("run_c", {})
    counters = run_a.get("counters") or {}
    wrong = phase.get("verdicts", {}).get("wrong")
    open_after_kill = run_b.get("journal_open_after_kill", 0)
    gates = {
        "coalesce": gate(
            coalesce.get("replies") == SOAK_COALESCE_CLIENTS
            and coalesce.get("computations") == 1
            and coalesce.get("coalesced") == SOAK_COALESCE_CLIENTS - 1,
            computations=coalesce.get("computations"),
            coalesced=coalesce.get("coalesced"),
        ),
        "warm_hits": gate(
            warm.get("all_cache_hits") and warm.get("p50_s", float("inf")) <= 2.0,
            p50_s=warm.get("p50_s"),
            max_p50_s=2.0,
        ),
        "overload_rejected": gate(
            flood.get("rejected_overloaded", 0) >= 1 and flood.get("accepted", 0) >= 1,
            rejected=flood.get("rejected_overloaded"),
        ),
        "deadline_enforced": gate(
            deadline.get("wall_s", float("inf")) <= 0.2 + 15.0
            and deadline.get("wrong") is False,
            wall_s=deadline.get("wall_s"),
            max_wall_s=0.2 + 15.0,
        ),
        "every_accept_resolved": gate(
            counters
            and counters["accepted"] == counters["answered"] + counters["cancelled"]
        ),
        "graceful_drain": gate(run_a.get("drain_exit_code") == 0),
        # under journal-torn chaos a drained journal may legitimately keep open
        # accepts: a tear eats the tail of the record just written AND merges
        # the following append onto the same garbage line, so each tear can
        # destroy up to two records — a destroyed *close* orphans its accept.
        # That is the at-least-once contract (a restart would NACK, never
        # silently lose), so the gate is "opens explainable by tears", and
        # exactly zero when no tear fired.
        "journal_open_explained_by_tears": gate(
            "journal_open_after_drain" in run_a
            and run_a["journal_open_after_drain"]
            <= 2 * int(run_a["journal_torn_injected"]),
            open=run_a.get("journal_open_after_drain"),
            torn=run_a.get("journal_torn_injected"),
        ),
        "zero_leaked_processes": gate(
            run_a.get("no_leaked_processes")
            and run_b.get("no_survivors")
            and run_c.get("no_leaked_processes")
        ),
        "traces_clean": gate(
            run_a.get("trace_problems") == [] and run_c.get("trace_problems") == []
        ),
        "zero_wrong_verdicts": gate(wrong == [], wrong=wrong),
        "kill_leaves_journal_open": gate(
            "error" not in run_b and open_after_kill >= 1, open=open_after_kill
        ),
        "restart_nacks_orphans": gate(
            "error" not in run_c
            and run_c.get("recovered_nacked") == open_after_kill
            and run_c.get("drain_exit_code") == 0
            and run_c.get("journal_open_after_drain") == 0,
            nacked=run_c.get("recovered_nacked"),
        ),
    }
    summary = {
        "coalescing_ratio": coalesce.get("ratio"),
        "warm_p50_s": warm.get("p50_s"),
        "overload_rejections": flood.get("rejected_overloaded"),
    }
    if "error" in phase:
        summary["error"] = phase["error"]["error"]
    return gates, summary


# ---------------------------------------------------------------------------
# --fleet-soak: failover soak over a primary + hot standby + router fleet
# ---------------------------------------------------------------------------

#: chaos installed in each *member*: replication-link drops and heartbeat
#: blackouts must be absorbed, not amplified
FLEET_MEMBER_RATES = "repl-link-drop=0.25,heartbeat-blackout=0.15"
#: chaos installed in the *router*: reconnect attempts sporadically refused
FLEET_ROUTER_RATES = "router-partition=0.2"
#: phase-1 sanity sweep through the router (fast, definitive designs)
FLEET_SANITY_DESIGNS = ["daio", "rcu", "fifo", "iqueue", "arbiter", "tlc"]
#: phase-2 slow queries in flight when the primary is SIGKILLed
FLEET_SLOW_QUERIES = [
    {"design": "mac16", "representation": "word", "bound": 96},
    {"design": "mac16", "representation": "bit", "bound": 96},
    {"design": "huffman_enc", "representation": "word", "bound": 96},
    {"design": "huffman_dec", "representation": "word", "bound": 96},
]


def _start_fleet_router(args_list: List[str]) -> "subprocess.Popen":
    import subprocess
    import sys

    return subprocess.Popen(
        [sys.executable, "-m", "repro.tools.router_cli", *args_list],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )


def _fleet_reply_gate(
    design: str, reply: Dict[str, object], wrong: List[str], unvalidated: List[str]
) -> None:
    """Classify one reply against ground truth + the certification gate."""
    if _soak_classify(design, reply) == Status.WRONG:
        wrong.append(f"{design}: {reply.get('status')}")
    if (
        str(reply.get("status")) in Status.DEFINITIVE
        and reply.get("validated") is not True
    ):
        unvalidated.append(f"{design}: validated={reply.get('validated')!r}")


def run_fleet_soak(
    seed: int, timeout: float, workdir: str
) -> List[Dict]:
    """Fleet failover soak: two shards, a hot standby, a router, one SIGKILL.

    Topology: member ``box-a`` (primary, ``--sync-level sync``) streams its
    journal to hot standby ``box-a2`` (same certificate cache dir); member
    ``box-b`` serves the other shard solo; a ``repro-serve-router`` fronts
    both, with ``box-a2`` registered as box-a's failover address.  All four
    run as subprocesses in their own sessions (the leak oracle) with
    member/router chaos rates installed.

    Phase 1 drives a sanity sweep and a cross-client coalescing pair
    through the router under replication-link, heartbeat-blackout and
    router-partition faults.  Phase 2 submits slow queries, waits for them
    to be accepted (sync level: the standby already holds their journal
    records), SIGKILLs the primary's whole process group mid-computation,
    and requires every accepted request to be answered exactly once by the
    promoted standby or by failover routing — zero lost, zero duplicates.
    After a graceful fleet drain the surviving members' counters must
    balance (``accepted == answered + cancelled``), every definitive
    verdict must have been certificate-validated, no process group may
    survive, and the stitched cross-box trace must lint clean.
    """
    import signal as signal_module
    import threading

    from repro.obs.export import (
        lint_trace, load_trace, stitch_traces, write_trace_document,
    )
    from repro.serve.client import ServeClient, ServeError

    sock_a = os.path.join(workdir, "a.sock")
    sock_a2 = os.path.join(workdir, "a2.sock")
    sock_b = os.path.join(workdir, "b.sock")
    sock_router = os.path.join(workdir, "router.sock")
    cache_a = os.path.join(workdir, "cache_a")
    cache_b = os.path.join(workdir, "cache_b")
    trace_a2 = os.path.join(workdir, "trace_a2.jsonl")
    trace_b = os.path.join(workdir, "trace_b.jsonl")
    trace_router = os.path.join(workdir, "trace_router.jsonl")
    stitched_path = os.path.join(workdir, "trace_fleet.jsonl")
    phases: Dict[str, Dict] = {}
    deadline_s = max(120.0, timeout * 3)

    primary = _start_soak_server([
        "--socket", sock_a, "--cache-dir", cache_a,
        "--journal", os.path.join(workdir, "a.journal"),
        "--server-id", "box-a", "--sync-level", "sync",
        "--workers", "1:2", "--max-queue", "16", "--certify",
        "--default-deadline", str(deadline_s),
        "--progress-interval", "1.0",
        "--chaos", str(seed), "--chaos-rates", FLEET_MEMBER_RATES, "-q",
    ])
    standby = _start_soak_server([
        "--socket", sock_a2, "--cache-dir", cache_a,
        "--journal", os.path.join(workdir, "a2.journal"),
        "--server-id", "box-a2", "--standby-of", f"unix:{sock_a}",
        "--takeover-after", "1.5", "--trace", trace_a2,
        "--workers", "1:2", "--max-queue", "16", "--certify",
        "--default-deadline", str(deadline_s),
        "--progress-interval", "1.0", "-q",
    ])
    solo = _start_soak_server([
        "--socket", sock_b, "--cache-dir", cache_b,
        "--journal", os.path.join(workdir, "b.journal"),
        "--server-id", "box-b", "--trace", trace_b,
        "--workers", "1:2", "--max-queue", "16", "--certify",
        "--default-deadline", str(deadline_s),
        "--progress-interval", "1.0",
        "--chaos", str(seed + 1), "--chaos-rates", FLEET_MEMBER_RATES, "-q",
    ])
    pgids = {"box-a": primary.pid, "box-a2": standby.pid, "box-b": solo.pid}
    if not all(_soak_wait_socket(s) for s in (sock_a, sock_a2, sock_b)):
        for proc in (primary, standby, solo):
            proc.kill()
        return _phase_rows({"error": {"error": "a fleet member never opened its socket"}})

    router = _start_fleet_router([
        "--socket", sock_router,
        "--member", f"box-a=unix:{sock_a},standby=unix:{sock_a2}",
        "--member", f"box-b=unix:{sock_b}",
        "--heartbeat-interval", "0.25", "--trace", trace_router,
        "--chaos", str(seed), "--chaos-rates", FLEET_ROUTER_RATES, "-q",
    ])
    pgids["router"] = router.pid
    if not _soak_wait_socket(sock_router):
        for proc in (primary, standby, solo, router):
            proc.kill()
        return _phase_rows({"error": {"error": "router never opened its socket"}})
    time.sleep(1.0)  # let the standby subscribe and the heartbeats settle

    wrong: List[str] = []
    unvalidated: List[str] = []
    _log.verbose(f"fleet soak seed {seed}: fleet up (router pid {router.pid})")

    # ----- phase 1: sanity sweep + cross-client coalescing under chaos ---
    progress_frames: List[str] = []
    with ServeClient(socket_path=sock_router, timeout=deadline_s) as client:
        client.on_progress = lambda frame: progress_frames.append(
            str(frame.get("kind"))
        )
        for design in FLEET_SANITY_DESIGNS:
            reply = client.verify(
                design=design, representation="word", bound=64,
                deadline_s=deadline_s,
            )
            _fleet_reply_gate(design, reply, wrong, unvalidated)

    barrier = threading.Barrier(2)
    pair_replies: List[Dict[str, object]] = []
    pair_lock = threading.Lock()

    def pair_client() -> None:
        with ServeClient(socket_path=sock_router, timeout=deadline_s) as c:
            barrier.wait()
            accepted = c.submit(
                {"design": "barrel16", "representation": "word", "bound": 80,
                 "deadline_s": deadline_s}
            )
            reply = c.result(accepted["id"])
            with pair_lock:
                pair_replies.append(reply)

    pair_threads = [threading.Thread(target=pair_client) for _ in range(2)]
    for thread in pair_threads:
        thread.start()
    for thread in pair_threads:
        thread.join(timeout=deadline_s)
    for reply in pair_replies:
        _fleet_reply_gate("barrel16", reply, wrong, unvalidated)
    with ServeClient(socket_path=sock_router, timeout=30.0) as client:
        router_status_mid = client.status()
    phases["phase1"] = {
        "sanity_queries": len(FLEET_SANITY_DESIGNS),
        "pair_replies": len(pair_replies),
        "router_coalesced": router_status_mid["counters"]["coalesced"],
        "progress_frames_seen": len(progress_frames),
        "progress_kinds": sorted(set(progress_frames)),
    }
    _log.verbose("fleet soak: phase 1 done")

    # ----- phase 2: SIGKILL the primary mid-computation ------------------
    killed_row: Dict[str, object] = {}
    results: Dict[str, Dict[str, object]] = {}
    result_lock = threading.Lock()
    submit_client = ServeClient(socket_path=sock_router, timeout=deadline_s)
    submitted: List[Tuple[str, str]] = []  # (design, request id)
    accepted_members: List[str] = []
    for query in FLEET_SLOW_QUERIES:
        accepted = submit_client.submit(dict(query, deadline_s=deadline_s))
        submitted.append((str(query["design"]), accepted["id"]))
        accepted_members.append(str(accepted.get("member", "?")))
    time.sleep(0.6)  # let the computations start on the primary
    try:
        os.killpg(pgids["box-a"], signal_module.SIGKILL)
    except ProcessLookupError:
        pass
    primary.wait(timeout=30)  # reap: a zombie would fool the leak oracle
    kill_t0 = time.monotonic()

    def read_result(design: str, request_id: str) -> None:
        reply = submit_client.result(request_id)
        with result_lock:
            results[request_id] = dict(reply, _design=design)

    # results come back in completion order on the one connection; read
    # them sequentially (the client parks out-of-order frames by id)
    reader_errors: List[str] = []
    for design, request_id in submitted:
        try:
            read_result(design, request_id)
        except (ServeError, OSError) as error:
            reader_errors.append(f"{request_id}: {error}")
    failover_wall = time.monotonic() - kill_t0
    submit_client.close()
    for reply in results.values():
        _fleet_reply_gate(str(reply["_design"]), reply, wrong, unvalidated)
    killed_row["submitted"] = len(submitted)
    killed_row["answered"] = len(results)
    killed_row["routed_to"] = sorted(set(accepted_members))
    killed_row["reader_errors"] = reader_errors
    killed_row["failover_wall_s"] = round(failover_wall, 3)
    killed_row["client_reconnects"] = submit_client.reconnects
    killed_row["zero_lost"] = len(results) == len(submitted)
    killed_row["zero_duplicates"] = len(results) == len(
        {rid for _, rid in submitted}
    )
    killed_row["primary_group_gone"] = _soak_group_gone(pgids["box-a"])
    phases["phase2_kill"] = killed_row
    _log.verbose(
        f"fleet soak: phase 2 done ({len(results)}/{len(submitted)} answered "
        f"{failover_wall:.1f}s after SIGKILL)"
    )

    # ----- drain: accounting on the survivors, then shut the fleet down --
    members: List[Dict] = []
    for name, sock in (("box-a2", sock_a2), ("box-b", sock_b)):
        try:
            with ServeClient(
                socket_path=sock, timeout=30.0, reconnect=False
            ) as client:
                status = client.status()
                client.drain()
        except (ServeError, OSError) as error:
            members.append({"section": "member", "name": name, "error": str(error)})
            continue
        counters = status["counters"]
        members.append({
            "section": "member",
            "name": name,
            "role": status.get("role"),
            "accepted": counters["accepted"],
            "answered": counters["answered"],
            "cancelled": counters["cancelled"],
            "takeovers": counters.get("takeovers", 0),
            "takeover_requeued": counters.get("takeover_requeued", 0),
            "wedged_kills": counters.get("wedged_kills", 0),
            "heartbeats": counters.get("heartbeats", 0),
            "heartbeats_blacked_out": counters.get("heartbeats_blacked_out", 0),
            "repl_link_drops": (status.get("replication") or {}).get(
                "link_drops", 0
            ),
        })

    try:
        with ServeClient(
            socket_path=sock_router, timeout=30.0, reconnect=False
        ) as client:
            router_final = client.status()
            client.drain()
        phases["router"] = {
            "counters": router_final["counters"],
            "members": [
                {k: m[k] for k in ("name", "healthy", "connects", "partitions",
                                   "resubmitted")}
                for m in router_final["members"]
            ],
        }
    except (ServeError, OSError) as error:
        phases["router"] = {"error": str(error)}

    exits = {}
    for name, proc in (("box-a2", standby), ("box-b", solo), ("router", router)):
        try:
            exits[name] = proc.wait(timeout=deadline_s)
        except Exception:  # noqa: BLE001 - timeout: count it as a leak
            proc.kill()
            exits[name] = None
    phases["drain"] = {
        "exit_codes": exits,
        "leaked_groups": [
            name for name, pgid in pgids.items() if not _soak_group_gone(pgid)
        ],
    }

    # ----- stitch the surviving boxes' traces and lint the union ---------
    stitch_row: Dict[str, object] = {}
    try:
        traces = [load_trace(p) for p in (trace_a2, trace_b, trace_router)]
        stitched = stitch_traces(traces)
        write_trace_document(stitched, stitched_path)
        problems = lint_trace(stitched)
        fleet_roots = sum(
            1 for span in stitched.spans if span.get("name") == "fleet.request"
        )
        stitch_row = {
            "traces": 3,
            "spans": len(stitched.spans),
            "cross_box_requests": fleet_roots,
            "problems": problems,
        }
    except (OSError, ValueError) as error:
        stitch_row = {"error": str(error)}
    phases["stitched_trace"] = stitch_row
    phases["verdicts"] = {"wrong": wrong, "unvalidated": unvalidated}
    _log.info(
        f"fleet soak seed {seed}: "
        f"{killed_row.get('answered', 0)}/{killed_row.get('submitted', 0)} "
        f"answered after SIGKILL ({killed_row.get('failover_wall_s', '?')}s), "
        f"leaked groups {phases['drain']['leaked_groups'] or 'none'}, "
        f"stitched trace problems {stitch_row.get('problems', '?')}"
    )
    return _phase_rows(phases) + members


def judge_fleet_soak(config: Dict, rows: List[Dict]) -> Tuple[Dict, Dict]:
    phase = {row["section"]: row for row in rows if row["section"] != "member"}
    members = section(rows, "member")
    phase1, kill = phase.get("phase1", {}), phase.get("phase2_kill", {})
    drain, stitched = phase.get("drain", {}), phase.get("stitched_trace", {})
    verdicts = phase.get("verdicts", {})
    exits = drain.get("exit_codes", {})
    gates = {
        "phase1_pair_and_progress": gate(
            phase1.get("pair_replies") == 2
            and phase1.get("progress_frames_seen", 0) >= 1
        ),
        "failover_zero_lost": gate(
            kill.get("zero_lost") and kill.get("reader_errors") == [],
            submitted=kill.get("submitted"),
            answered=kill.get("answered"),
        ),
        "failover_zero_duplicates": gate(kill.get("zero_duplicates")),
        "takeover_seen": gate(any(row.get("takeovers") for row in members)),
        "fleet_accounting_balanced": gate(
            len(members) == 2
            and all(
                "error" not in row
                and row["accepted"] == row["answered"] + row["cancelled"]
                for row in members
            )
        ),
        "graceful_drain": gate(
            all(exits.get(name) == 0 for name in ("box-a2", "box-b", "router")),
            exit_codes=exits,
        ),
        "zero_leaked_process_groups": gate(
            kill.get("primary_group_gone") and drain.get("leaked_groups") == [],
            leaked=drain.get("leaked_groups"),
        ),
        "stitched_trace_clean": gate(
            stitched.get("problems") == []
            and stitched.get("cross_box_requests", 0) >= 1
        ),
        "zero_wrong_verdicts": gate(
            verdicts.get("wrong") == [], wrong=verdicts.get("wrong")
        ),
        "all_verdicts_certificate_validated": gate(
            verdicts.get("unvalidated") == [],
            unvalidated=verdicts.get("unvalidated"),
        ),
    }
    summary = {
        "failover_wall_s": kill.get("failover_wall_s"),
        "cross_box_requests_stitched": stitched.get("cross_box_requests"),
    }
    if "error" in phase:
        summary["error"] = phase["error"]["error"]
    return gates, summary


# ---------------------------------------------------------------------------
# --kernels: the two replay tiers (scalar reference / bit-parallel packed)
# ---------------------------------------------------------------------------


def _random_workload(system, cycles: int, lanes: int, seed: int = 2016):
    """``lanes`` independent random input sequences of ``cycles`` cycles."""
    import random as random_module

    rng = random_module.Random(seed)
    return [
        [
            {name: rng.getrandbits(width) for name, width in system.inputs.items()}
            for _ in range(cycles)
        ]
        for _ in range(lanes)
    ]


def run_kernels_section(
    names: List[str], cycles: int, lanes: int, repeats: int = 3
) -> List[Dict]:
    """Time the scalar and packed replay tiers per design on one random workload.

    Methodology: the workload is ``lanes`` independent input sequences of
    ``cycles`` cycles each.  Packing the bit planes happens once *outside*
    the timed region, so the numbers compare steady-state stepping
    throughput — the regime of the rsim falsifier, where one packing is
    amortized over many runs.  Both tiers do the same work per cycle: step
    the registers and evaluate every property and constraint.  The scalar
    tier steps every sequence through the reference
    :class:`~repro.netlist.simulate.Simulator`; the packed tier runs all
    ``lanes`` sequences in one bit-parallel pass.  The scalar tier is timed
    once and the packed tier keeps its best of ``repeats`` runs, which only
    ever *understates* the reported speedup.

    Each row also records a verdict-agreement check: a sample of the
    sequences is replayed packed and through the scalar violation rule
    (:func:`~repro.netlist.simulate.first_violation`), and the (first
    violation cycle, property) pairs must match exactly.
    """
    from repro.exprs import evaluate
    from repro.netlist.bitsim import PackedSimulator, pack_values
    from repro.netlist.simulate import Simulator, first_violation

    rows: List[Dict] = []
    for name in names:
        system = get_benchmark(name).load()
        sequences = _random_workload(system, cycles, lanes)
        checks = [prop.expr for prop in system.properties] + system.constraints

        start = time.perf_counter()
        for sequence in sequences:
            simulator = Simulator(system)
            for inputs in sequence:
                env = simulator.step(inputs)
                for expr in checks:
                    evaluate(expr, env)
        scalar_s = time.perf_counter() - start

        packed = PackedSimulator(system, lanes=lanes)
        planes = [
            {
                input_name: pack_values(
                    [sequence[cycle][input_name] for sequence in sequences], width
                )
                for input_name, width in system.inputs.items()
            }
            for cycle in range(cycles)
        ]
        packed_s = min(
            _timed(lambda: packed.run(planes, stop_on_violation=False, record=False))
            for _ in range(repeats)
        )

        single = PackedSimulator(system, lanes=1)
        verdicts_agree = True
        for sequence in sequences[: min(4, lanes)]:
            hit = single.replay(sequence, record=False).violation
            scalar = first_violation(system, sequence)
            packed_hit = (hit.cycle, hit.property_name) if hit else (None, None)
            if packed_hit != (scalar.cycle, scalar.property_name):
                verdicts_agree = False

        row = {
            "section": "replay_tier",
            "design": name,
            "cycles": cycles,
            "lanes": lanes,
            "scalar_s": round(scalar_s, 6),
            "packed_s": round(packed_s, 6),
            "packed_speedup": round(scalar_s / packed_s, 2) if packed_s else None,
            "verdicts_agree": verdicts_agree,
        }
        rows.append(row)
        _log.info(
            f"kernels {name:14s} scalar {scalar_s:8.3f}s  packed "
            f"{packed_s:8.4f}s ({row['packed_speedup']}x)  "
            f"verdicts {'agree' if verdicts_agree else 'DIVERGE'}"
        )
    return rows


def _timed(thunk) -> float:
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def run_kernels_rsim_section(names: List[str], timeout: float) -> List[Dict]:
    """Run the rsim falsifier on the suite's unsafe designs, validating witnesses."""
    from repro.engines.rsim import RandomSimulationEngine

    rows: List[Dict] = []
    for name in names:
        benchmark = get_benchmark(name)
        if benchmark.expected != Status.UNSAFE:
            continue
        system = benchmark.load()
        start = time.perf_counter()
        result = RandomSimulationEngine(system).verify(timeout=timeout)
        wall = time.perf_counter() - start
        validated = (
            result.status == Status.UNSAFE and validate_result(system, result).ok
        )
        row = {
            "section": "rsim",
            "design": name,
            "status": str(result.status),
            "wall_s": round(wall, 6),
            "violation_cycle": result.detail.get("violation_cycle"),
            "vectors": result.detail.get("vectors"),
            "witness_validated": validated,
            "found_and_validated": validated,
        }
        rows.append(row)
        _log.info(
            f"rsim    {name:14s} {result.status:8s} in {wall:.3f}s "
            f"(cycle {row['violation_cycle']}, {row['vectors']} vectors), "
            f"witness {'validated' if validated else 'NOT VALIDATED'}"
        )
    return rows


def run_kernels(args, depth, names: List[str]) -> Tuple[Dict, List[Dict]]:
    rows = run_kernels_section(names, args.cycles, args.lanes) + run_kernels_rsim_section(
        names, args.timeout
    )
    config = {
        "cycles": args.cycles,
        "lanes": args.lanes,
        "packed_gate": args.packed_gate,
    }
    return config, rows


def judge_kernels(config: Dict, rows: List[Dict]) -> Tuple[Dict, Dict]:
    tiers, rsim = section(rows, "replay_tier"), section(rows, "rsim")
    packed_hits = sum(
        1
        for row in tiers
        if row["packed_speedup"] is not None
        and row["packed_speedup"] >= config["packed_gate"]
    )
    gates = {
        "packed_gate": gate(
            packed_hits >= 3,
            threshold=config["packed_gate"],
            designs_at_or_above=packed_hits,
            required=3,
        ),
        "verdict_agreement": gate(
            all(row["verdicts_agree"] for row in tiers),
            diverged=[row["design"] for row in tiers if not row["verdicts_agree"]],
        ),
        "rsim_falsification": gate(
            rsim and all(row["found_and_validated"] for row in rsim)
        ),
    }
    summary = {
        "designs": len(tiers),
        "rsim_bugs_found": sum(1 for row in rsim if row["status"] == Status.UNSAFE),
    }
    return gates, summary


# ---------------------------------------------------------------------------
# observability mode: telemetry overhead gates (--obs)
# ---------------------------------------------------------------------------

#: designs for the enabled-vs-disabled overhead sweeps (small and fast, so
#: the telemetry fraction of the wall is as visible as it ever gets)
DEFAULT_OBS_BENCHMARKS = ["daio", "tlc", "proc3", "rcu", "buffalloc", "arbiter"]


def _obs_noop_costs(iterations: int = 200_000) -> Dict[str, float]:
    """Per-call cost (ns) of the disabled telemetry API: the no-op tax."""
    assert _telemetry.get_recorder() is None, "micro-benchmark needs telemetry off"
    t0 = time.perf_counter()
    for _ in range(iterations):
        with _telemetry.span("bench.noop"):
            pass
    span_ns = (time.perf_counter() - t0) / iterations * 1e9
    t0 = time.perf_counter()
    for _ in range(iterations):
        _telemetry.counter("bench.noop")
    counter_ns = (time.perf_counter() - t0) / iterations * 1e9
    return {
        "iterations": iterations,
        "span_ns": round(span_ns, 2),
        "counter_ns": round(counter_ns, 2),
    }


def run_obs(args, bound: int, names: List[str]) -> Tuple[Dict, List[Dict]]:
    """Sweep the suite with telemetry off and on; measure what tracing costs.

    The *same* batch sweep (sequential ladder per item, warm pool, no cache
    so every item really runs) is timed twice: once with the recorder
    disabled — the shipping default — and once recording, with the full
    cross-process trace assembled, exported to ``trace_out`` and linted.
    A micro-benchmark prices the disabled no-op calls so the report can
    bound the tax telemetry puts on users who never turn it on.
    """
    from repro.engines.batch import BatchItem, BatchRunner
    from repro.obs.export import lint_trace, load_trace, summarize_trace, write_trace

    noop = _obs_noop_costs()

    trace_out = args.trace_out

    def sweep() -> Tuple[float, object]:
        runner = BatchRunner(jobs=args.jobs, timeout=args.timeout, bound=bound)
        t0 = time.monotonic()
        report = runner.run([BatchItem.benchmark(name) for name in names])
        return time.monotonic() - t0, report

    disabled_wall, disabled_report = sweep()
    _log.info(
        f"obs  disabled sweep: {len(disabled_report.items)} items "
        f"in {disabled_wall:.3f}s"
    )

    with _telemetry.recording() as recorder:
        enabled_wall, enabled_report = sweep()
        write_trace(
            recorder,
            trace_out,
            meta={"tool": "repro.tools.bench", "mode": "obs", "designs": names},
        )
    _log.info(
        f"obs  enabled sweep:  {len(enabled_report.items)} items "
        f"in {enabled_wall:.3f}s -> {trace_out}"
    )

    trace = load_trace(trace_out)
    problems = lint_trace(trace)
    rollup = summarize_trace(trace, top=10)
    # price the disabled mode: every span the enabled run recorded is one
    # no-op span call (plus its counter bumps) the disabled run paid for
    counter_bumps = len(trace.counters)
    estimated_noop_s = (
        len(trace.spans) * noop["span_ns"] + counter_bumps * noop["counter_ns"]
    ) / 1e9
    rows = [
        {
            "section": "noop",
            **noop,
            "estimated_disabled_overhead_s": round(estimated_noop_s, 6),
        },
        {
            "section": "sweep",
            "telemetry": "disabled",
            "wall_s": round(disabled_wall, 6),
            "verdicts": {
                f"{d}:{p}": status
                for (d, p), status in disabled_report.verdicts().items()
            },
        },
        {
            "section": "sweep",
            "telemetry": "enabled",
            "wall_s": round(enabled_wall, 6),
            "verdicts": {
                f"{d}:{p}": status
                for (d, p), status in enabled_report.verdicts().items()
            },
            "trace": trace_out,
            "spans": len(trace.spans),
            "processes": rollup["processes"],
            "dropped_spans": trace.header.get("dropped_spans", 0),
            "lint_problems": problems,
            "rollup": rollup,
        },
    ]
    return {"bound": bound, "timeout_s": args.timeout, "designs": names}, rows


def judge_obs(config: Dict, rows: List[Dict]) -> Tuple[Dict, Dict]:
    disabled, enabled = section(rows, "sweep")
    overhead = section(rows, "noop")[0]["estimated_disabled_overhead_s"]
    ratio = (
        round(enabled["wall_s"] / disabled["wall_s"], 4) if disabled["wall_s"] else None
    )
    gates = {
        # 0.5s absolute slack keeps the ratio gate meaningful on fast suites
        # where scheduler jitter alone exceeds 10% of the wall
        "enabled_overhead": gate(
            enabled["wall_s"] <= disabled["wall_s"] * 1.10 + 0.5,
            enabled_wall_s=enabled["wall_s"],
            disabled_wall_s=disabled["wall_s"],
            max_ratio=1.10,
            slack_s=0.5,
        ),
        "disabled_overhead": gate(
            overhead <= max(disabled["wall_s"], 1e-9) * 0.01,
            estimated_s=overhead,
            max_fraction=0.01,
        ),
        "trace_lint": gate(
            not enabled["lint_problems"], problems=enabled["lint_problems"]
        ),
        "verdict_agreement": gate(disabled["verdicts"] == enabled["verdicts"]),
    }
    summary = {
        "designs": len(config["designs"]),
        "spans_recorded": enabled["spans"],
        "processes": enabled["processes"],
        "enabled_vs_disabled": ratio,
    }
    return gates, summary


# ---------------------------------------------------------------------------
# the mode table and the command line
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mode:
    """One ``repro-bench`` mode: its defaults, its run and its judge.

    ``run(args, depth, names)`` returns ``(config, rows)``; ``judge(config,
    rows)`` returns ``(gates, summary)``.  ``designs`` is the default design
    list (``()``: the mode takes none); ``help`` is empty only for the
    default mode, which has no flag.
    """

    out: str
    run: Callable[..., Tuple[Dict, List[Dict]]]
    judge: Callable[[Dict, List[Dict]], Tuple[Dict, Dict]]
    depth: Optional[int] = None
    designs: Sequence[str] = ()
    trace: Optional[str] = None
    help: str = ""


SUITE = tuple(benchmark_names())

MODES: Dict[str, Mode] = {
    "unroll": Mode(
        "BENCH_unroll.json", run_unroll, judge_unroll, 32, DEFAULT_BMC_BENCHMARKS
    ),
    "portfolio": Mode(
        "BENCH_portfolio.json", run_portfolio, judge_portfolio, 80,
        DEFAULT_PORTFOLIO_BENCHMARKS,
        help="race the portfolio against individually timed engines",
    ),
    "certify": Mode(
        "BENCH_certify.json", run_certify, judge_certify, 80, SUITE,
        help="validate every definitive verdict's certificate on the suite "
             "and demo cross-check adjudication",
    ),
    "incremental": Mode(
        "BENCH_incremental.json", run_incremental, judge_incremental, 32,
        DEFAULT_INCREMENTAL_BENCHMARKS,
        help="per-bound k-induction/BMC and end-to-end kIkI timings for the "
             "session vs template vs legacy solver lifecycles, plus a "
             "session-vs-legacy verdict sweep over the whole suite",
    ),
    "serve": Mode(
        "BENCH_serve.json", run_serve, judge_serve, 80, SUITE,
        help="cold/warm cache sweeps over the suite through the batch runner, "
             "budget-ladder vs all-at-once fan-out races, and "
             "SAFE-certificate minimization timings",
    ),
    "faults": Mode(
        "BENCH_faults.json", run_faults, judge_faults, 80,
        DEFAULT_FAULTS_BENCHMARKS,
        help="seeded fault-injection sweeps through the supervised batch "
             "runner and an in-process hang interrupt",
    ),
    "serve-soak": Mode(
        "BENCH_server.json",
        partial(run_soak, run_serve_soak, "trace_a.jsonl",
                {"chaos_rates": SOAK_SERVER_RATES}),
        judge_serve_soak,
        trace="BENCH_server_trace.jsonl",
        help="drive a live chaos-seeded repro-serve through coalescing, "
             "flood, disconnect, deadline, SIGKILL and journal-recovery "
             "scenarios",
    ),
    "fleet-soak": Mode(
        "BENCH_fleet.json",
        partial(run_soak, run_fleet_soak, "trace_fleet.jsonl",
                {"member_chaos_rates": FLEET_MEMBER_RATES,
                 "router_chaos_rates": FLEET_ROUTER_RATES}),
        judge_fleet_soak,
        trace="BENCH_fleet_trace.jsonl",
        help="primary + journal-replicated hot standby + solo shard behind "
             "a repro-serve-router; SIGKILL the primary mid-computation",
    ),
    "kernels": Mode(
        "BENCH_kernels.json", run_kernels, judge_kernels, None, SUITE,
        help="time the scalar and bit-parallel packed replay tiers, check "
             "their verdict agreement, and run the rsim falsifier on the "
             "unsafe designs",
    ),
    "obs": Mode(
        "BENCH_obs.json", run_obs, judge_obs, 80, DEFAULT_OBS_BENCHMARKS,
        trace="BENCH_obs_trace.jsonl",
        help="sweep the suite with telemetry disabled and enabled, lint the "
             "exported trace, and gate the recording overhead",
    ),
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="benchmark the verifier: without a mode flag, template vs "
                    "legacy unrolling; every mode writes one {config, rows, "
                    "gates, summary} report and exits 0 when every gate is ok",
    )
    flags = parser.add_mutually_exclusive_group()
    for name, mode in MODES.items():
        if mode.help:
            flags.add_argument(
                f"--{name}", dest="mode", action="store_const", const=name,
                help=f"{mode.help} -> {mode.out}",
            )
    parser.set_defaults(mode="unroll")
    parser.add_argument(
        "--out", default=None,
        help="output JSON path (default: the mode's BENCH_*.json)",
    )
    parser.add_argument(
        "--depth", type=int, default=None,
        help="BMC unroll depth / search bound (default 32 for unrolling and "
             "--incremental, 80 otherwise so the cycle-64/65 bugs of the "
             "unsafe designs stay reachable)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="--serve-soak/--fleet-soak: chaos seed (default 0)",
    )
    parser.add_argument(
        "--seeds", type=_positive_int, default=3,
        help="--faults: number of seeded chaos sweeps (seeds 0..N-1)",
    )
    parser.add_argument(
        "--trace-out", default=None,
        help="--obs/--serve-soak/--fleet-soak: path for the exported trace "
             "(default: the mode's BENCH_*_trace.jsonl)",
    )
    parser.add_argument(
        "--cycles", type=_positive_int, default=64,
        help="--kernels: cycles per replay sequence (default 64)",
    )
    parser.add_argument(
        "--lanes", type=_positive_int, default=64,
        help="--kernels: parallel sequences / packed lanes (default 64)",
    )
    parser.add_argument(
        "--packed-gate", type=float, default=20.0,
        help="--kernels: required packed-vs-scalar speedup on >= 3 designs "
             "(default 20)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker-process cap for the portfolio races and batch sweeps "
             "(default: one per configuration for a portfolio, one per CPU "
             "for a batch sweep)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="--serve/--faults: certificate cache directory (default: a fresh "
             "temporary directory, so the first sweep is genuinely cold)",
    )
    parser.add_argument(
        "--representation", default="word", choices=["word", "bit"],
        help="frame encoding for the BMC unrolling section",
    )
    parser.add_argument(
        "--benchmarks", nargs="*", default=None,
        help="designs to run (default: the mode's own list; for unrolling "
             f"{' '.join(DEFAULT_BMC_BENCHMARKS)})",
    )
    parser.add_argument(
        "--engine-benchmarks", nargs="*", default=None,
        help="designs for the unrolling mode's engine section "
             f"(default: {' '.join(DEFAULT_ENGINE_BENCHMARKS)})",
    )
    parser.add_argument(
        "--engines", nargs="*", default=list(ENGINE_FACTORIES),
        choices=list(ENGINE_FACTORIES),
        help="unbounded engines to compare end to end",
    )
    parser.add_argument(
        "--timeout", type=float, default=30.0, help="per engine-run timeout (s)"
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="BMC section repetitions per path (fastest run kept)",
    )
    parser.add_argument(
        "--skip-engines", action="store_true", help="only run the BMC section"
    )
    _log.add_verbosity_flags(parser)
    args = parser.parse_args(argv)
    _log.configure_from_args(args)

    mode = MODES[args.mode]
    names = args.benchmarks or list(mode.designs)
    unknown = [n for n in names + (args.engine_benchmarks or []) if n not in SUITE]
    if unknown:
        parser.error(f"unknown benchmarks: {', '.join(unknown)}")
    depth = args.depth if args.depth is not None else mode.depth
    args.trace_out = args.trace_out or mode.trace
    config, rows = mode.run(args, depth, names)
    gates, summary = mode.judge(config, rows)
    ok = write_report(args.out or mode.out, args.mode, config, rows, gates, summary)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
