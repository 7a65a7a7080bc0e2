"""Engine scheduling: one rung loop over engine×representation configurations.

The paper's headline observation is that no single technique wins everywhere:
BMC refutes quickly, k-induction/interpolation/kIkI/PDR prove, and which
prover is fastest varies per design (Figures 3–5).  A *portfolio* exploits
exactly that: run several engine configurations on the same verification
task and take the first definitive answer.

There is one scheduler, :func:`run_ladder`: a sequence of
:class:`LadderRung` config groups, each with a wall-clock budget, run in
order until one rung decides.  A rung runs its configurations either
in-process one at a time (batch and serve workers, see
:mod:`repro.engines.batch`) or as a race of worker *processes* on one
:class:`~repro.engines.supervision.WorkerSupervisor` pool (the engines are
CPU-bound pure Python, so threads would serialize on the GIL).  Each worker
reports over its own supervised pipe; the first definitive answer sets the
pool map's abort event, which cancels the rung's losers.  Both paths run
every configuration through the same :func:`run_config`.

:class:`PortfolioRunner` drives the race: the all-at-once portfolio is a
ladder with one rung and no rung budget, ``ladder=`` escalates cheap →
medium → heavy tiers, and *cross-check* mode races without the abort, so
every worker finishes and disagreeing definitive answers are adjudicated by
certificate validation — or reported as
:data:`repro.engines.result.Status.WRONG`, the "wrong result" category of
the paper's figures applied to our own engines.

Workers receive a picklable :class:`VerificationTask` (a suite benchmark
name, a Verilog/AIGER file path, or a transition system) and rebuild the
design in the child process, so nothing non-picklable ever crosses the
process boundary under any start method.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engines.registry import list_engines, make_engine
from repro.engines.result import Budget, Counterexample, Status, VerificationResult
from repro.engines.supervision import (
    CRASHED,
    DONE,
    RetryPolicy,
    WorkerSupervisor,
    default_context,
    report_progress,
)
from repro.netlist import TransitionSystem
from repro.obs import telemetry as _telemetry


# ---------------------------------------------------------------------------
# task and configuration descriptions (picklable)
# ---------------------------------------------------------------------------


#: (kind, spec) -> (file stamp, built transition system) for the file-based
#: task kinds; suite benchmarks have their own memo (``load_system_cached``).
#: Sharing one instance per task means every load within a process — the
#: CLI's verify / certify / save-certificate steps, the portfolio parent's
#: pre-warm and adjudication, every batch item on the same file — resolves
#: to the same object, so the template library (keyed by instance) is
#: blasted once instead of once per load.  The (mtime, size) stamp
#: invalidates the entry when the file changes on disk: a long-lived serving
#: process must never answer for stale file contents (the result cache keys
#: off whatever system this loader returns).
_TASK_SYSTEMS: Dict[Tuple[str, object], Tuple[object, TransitionSystem]] = {}

#: memo cap: a pinned TransitionSystem also pins its blasted template
#: libraries, so a long-lived serving process sweeping many distinct files
#: must not grow without bound; eviction is oldest-first (dict order)
_TASK_SYSTEMS_MAX = 64


def _file_stamp(path: str) -> Optional[Tuple[int, int]]:
    try:
        stat = os.stat(path)
        return (stat.st_mtime_ns, stat.st_size)
    except OSError:
        return None


@dataclass(frozen=True)
class VerificationTask:
    """A picklable description of *what* to verify.

    ``kind`` selects the loader: a suite ``"benchmark"`` by name, a
    ``"verilog"`` or ``"aiger"`` file by path, or a ``"system"`` carried
    directly (requires the transition system itself to pickle, which holds
    under the default ``fork`` start method on POSIX).
    """

    kind: str
    spec: object
    name: str = ""

    @staticmethod
    def benchmark(name: str) -> "VerificationTask":
        return VerificationTask("benchmark", name, name)

    @staticmethod
    def verilog(path: str, top: Optional[str] = None) -> "VerificationTask":
        return VerificationTask("verilog", (path, top), os.path.basename(path))

    @staticmethod
    def aiger(path: str) -> "VerificationTask":
        return VerificationTask("aiger", path, os.path.basename(path))

    @staticmethod
    def system(system: TransitionSystem) -> "VerificationTask":
        return VerificationTask("system", system, system.name)

    def load(self, fresh: bool = False) -> TransitionSystem:
        """Build (or fetch the memoized) transition system of this task.

        Every kind resolves through a per-process memo: suite benchmarks via
        :func:`repro.benchmarks.load_system_cached`, Verilog/AIGER files via
        a ``(kind, spec)`` table here.  Repeated loads therefore return the
        *same instance*, so the blasted frame templates (cached per system
        object) are built once per process — and under the ``fork`` start
        method a worker's load returns the very object the parent
        pre-warmed, so the templates arrive via copy-on-write memory
        instead of being rebuilt per worker.  Pass ``fresh=True`` to force
        a cold rebuild (timing harnesses).
        """
        if self.kind == "system":
            return self.spec
        if self.kind == "benchmark":
            from repro.benchmarks import load_system, load_system_cached

            return load_system(self.spec) if fresh else load_system_cached(self.spec)
        key = (self.kind, self.spec)
        path = self.spec[0] if self.kind == "verilog" else self.spec
        stamp = _file_stamp(path)
        if not fresh:
            cached = _TASK_SYSTEMS.get(key)
            if cached is not None and cached[0] == stamp:
                return cached[1]
        if self.kind == "verilog":
            from repro.synth import synthesize_file

            path, top = self.spec
            system = synthesize_file(path, top=top)
        elif self.kind == "aiger":
            from repro.aig.bitblast import transition_system_from_aig
            from repro.aig.formats import read_aiger

            with open(self.spec, "r", encoding="utf-8") as handle:
                system = transition_system_from_aig(read_aiger(handle.read()))
        else:
            raise ValueError(f"unknown task kind {self.kind!r}")
        if not fresh:
            while len(_TASK_SYSTEMS) >= _TASK_SYSTEMS_MAX:
                _TASK_SYSTEMS.pop(next(iter(_TASK_SYSTEMS)))
            _TASK_SYSTEMS[key] = (stamp, system)
        return system


def warm_task_templates(
    task: "VerificationTask", representations: Sequence[str]
) -> None:
    """Blast a task's frame-template libraries in the calling process.

    The template cache is keyed by system instance, and every task kind
    resolves repeated loads to the same instance (benchmarks via the
    memoized suite loader, files via the stamped per-task memo, systems by
    identity) — so workers forked after this call find the parent's warm
    blast in copy-on-write memory.  Shared by the portfolio and the batch
    pool.  Best-effort: failures are ignored, a worker that cannot build
    templates reports its own error through the normal result channel.
    """
    try:
        from repro.engines.encoding import template_library

        system = task.load()
        for representation in sorted(set(map(str, representations))):
            library = template_library(system, representation)
            for prop in library.flat.properties:
                library.property_template(prop.name)
    except Exception:  # noqa: BLE001 - warm-up is best effort
        pass


@dataclass(frozen=True)
class PortfolioConfig:
    """One engine configuration raced by the portfolio.

    ``depth_cap`` makes the configuration a *shallow* attempt: its depth
    options (see :func:`bound_options`) are capped at that many frames,
    whatever the shared bound says, and its label carries the cap
    (``kiki[word]@8``), so a shallow attempt and a full run of the same
    engine stay distinguishable within one ladder.
    """

    engine: str
    options: Tuple[Tuple[str, object], ...] = ()
    depth_cap: Optional[int] = None

    @staticmethod
    def of(engine: str, **options) -> "PortfolioConfig":
        return PortfolioConfig(engine, tuple(sorted(options.items())))

    @property
    def options_dict(self) -> Dict[str, object]:
        options = dict(self.options)
        if self.depth_cap is not None:
            options.update(bound_options(self.depth_cap))
        return options

    @property
    def label(self) -> str:
        representation = self.options_dict.get("representation", "word")
        label = f"{self.engine}[{representation}]"
        return label if self.depth_cap is None else f"{label}@{self.depth_cap}"


def bound_options(bound: int) -> Dict[str, object]:
    """The shared depth-cap option bag, routed per engine by the drivers.

    Each engine keeps only the key it understands (``max_bound`` for BMC,
    ``max_k`` for k-induction/kIkI, ``max_depth`` for interpolation/IMPACT,
    ``max_frames`` for PDR).
    """
    return {
        "max_bound": bound,
        "max_k": bound,
        "max_depth": bound,
        "max_frames": max(bound, 2),
    }


def default_portfolio_configs(
    representations: Sequence[str] = ("word",),
    bound: Optional[int] = None,
) -> List[PortfolioConfig]:
    """The default engine×representation fan-out.

    Takes every portfolio-flagged engine of the registry crossed with the
    requested representations (filtered by each engine's declared
    capabilities).  ``bound`` caps the search depth of the bounded/iterative
    engines through the shared option bag (routed per engine, see
    :func:`repro.engines.registry.make_engine`).
    """
    configs: List[PortfolioConfig] = []
    for representation in representations:
        for registration in list_engines(portfolio_only=True):
            if representation not in registration.capabilities.representations:
                continue
            options: Dict[str, object] = {"representation": representation}
            if bound is not None:
                options.update(bound_options(bound))
            configs.append(PortfolioConfig.of(registration.name, **options))
    return configs


# ---------------------------------------------------------------------------
# budget-ladder scheduling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LadderRung:
    """One rung of a budget ladder: a config group and its wall-clock budget.

    ``budget`` is the rung's wall-clock allowance in seconds (``None``:
    whatever remains of the overall budget — the usual choice for the final
    rung).  :func:`run_ladder` runs the rungs in order and escalates only
    when a rung ends without a definitive answer; within a rung the
    configurations run one at a time in-process, in ``configs`` order, or
    race on the supervised pool (launched in that order when the pool has
    fewer slots than configurations) where the first definitive answer
    cancels the rest.  The default ladder's cheap rung relies on that order
    to put SAT-free probes and a depth-capped prover ahead of BMC (see
    :func:`default_budget_ladder`).  The all-at-once portfolio is a single
    rung with no budget.
    """

    configs: Tuple[PortfolioConfig, ...]
    budget: Optional[float] = None
    tier: str = ""

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(config.label for config in self.configs)


#: fraction of the overall budget granted to the non-final tiers; the final
#: tier always receives whatever remains
DEFAULT_RUNG_FRACTIONS = {"cheap": 0.10, "medium": 0.30}

#: floor (seconds) under which a rung budget is not worth a process launch
MIN_RUNG_BUDGET = 0.5

#: depth cap of the shallow prover in the cheap rung (clipped to the ladder's
#: bound): kIkI at k <= 8 proves every property that is k-inductive at that
#: depth, and its base case refutes every bug within 8 cycles
SHALLOW_K = 8

#: the engine the cheap rung runs depth-capped as its shallow prover
SHALLOW_PROVER = "kiki"

#: launch order of the cheap rung (see :func:`default_budget_ladder`):
#: priors never move an engine across this order, so BMC to the bound cap
#: always runs last
CHEAP_ORDER = ("absint", SHALLOW_PROVER, "rsim", "bmc")


def learn_priors(paths: Optional[Sequence[str]] = None) -> Dict[str, Dict[str, float]]:
    """Learn engine priors from past ``BENCH_*.json`` reports.

    Every ``repro-bench`` report holds one flat ``rows`` list; a row that
    records a production-path engine run carries ``engine``, ``status`` and
    ``runtime_s``, and those rows are aggregated into ``{engine: {runs,
    definitive_rate, mean_runtime_s, score}}``.  ``score`` orders engines
    within a ladder rung — lower is better: historically fast engines that
    actually reach verdicts launch first.  Missing or unreadable reports
    contribute nothing; with no data the returned dict is empty and the
    ladder keeps registration order.
    """
    import glob as glob_module
    import json

    if paths is None:
        paths = sorted(glob_module.glob("BENCH_*.json"))
    samples: Dict[str, List[Tuple[float, bool]]] = {}

    from repro.engines.registry import ENGINE_REGISTRY

    def record(engine: object, runtime: object, status: object) -> None:
        if engine is None or status is None or not isinstance(runtime, (int, float)):
            return
        engine = str(engine)
        # canonicalize through the registry: batch results record the engine
        # *class* name ("abstract-interpretation"), ladder configs look
        # priors up by registry name ("absint") — both must hit one bucket
        registration = ENGINE_REGISTRY.get(engine)
        if registration is not None:
            engine = registration.name
        samples.setdefault(engine, []).append(
            (float(runtime), status in Status.DEFINITIVE)
        )

    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                report = json.load(handle)
        except (OSError, ValueError) as error:
            warnings.warn(
                f"learn_priors: skipping unreadable benchmark report "
                f"{path}: {error}",
                stacklevel=2,
            )
            continue
        if not isinstance(report, dict):
            warnings.warn(
                f"learn_priors: skipping malformed benchmark report "
                f"{path}: top level is not an object",
                stacklevel=2,
            )
            continue
        # a torn or hand-mangled report may hold any shape under its rows;
        # one bad report must not poison prior learning for the rest
        try:
            for row in report.get("rows") or []:
                record(row.get("engine"), row.get("runtime_s"), row.get("status"))
        except (AttributeError, TypeError, ValueError) as error:
            warnings.warn(
                f"learn_priors: skipping malformed benchmark report "
                f"{path}: {error}",
                stacklevel=2,
            )
            continue

    priors: Dict[str, Dict[str, float]] = {}
    for engine, runs in samples.items():
        total = sum(runtime for runtime, _ in runs)
        definitive = sum(1 for _, ok in runs if ok)
        rate = definitive / len(runs)
        mean = total / len(runs)
        priors[engine] = {
            "runs": len(runs),
            "definitive_rate": round(rate, 4),
            "mean_runtime_s": round(mean, 6),
            # fast deciders first; an engine that rarely decides is heavily
            # discounted but never excluded (the rung still runs it)
            "score": round(mean / max(rate, 0.05), 6),
        }
    return priors


def default_budget_ladder(
    representations: Sequence[str] = ("word",),
    bound: Optional[int] = None,
    timeout: Optional[float] = None,
    priors: Optional[Dict[str, Dict[str, float]]] = None,
) -> List[LadderRung]:
    """Build the default budget ladder from the engines' declared cost tiers.

    Ladder-flagged engines are grouped by
    :attr:`repro.engines.base.EngineCapabilities.cost` into rungs: the
    cheap rung first at a small slice of the budget, the
    k-induction-family provers next, the fixpoint provers last with
    everything that remains.  Empty tiers are skipped.

    The cheap rung runs its engines in the fixed order :data:`CHEAP_ORDER`,
    so a unit pays for BMC to the bound cap only when nothing cheaper
    decides it:

    1. interval abstract interpretation (``absint``), milliseconds;
    2. the shallow prover, :data:`SHALLOW_PROVER` capped at
       :data:`SHALLOW_K` frames: it proves every property that is
       k-inductive at that depth, and its base case refutes every bug
       within that many cycles.  When ``bound`` is at most
       :data:`SHALLOW_K` the cap is the bound, and the capped run replaces
       the prover's full run in its own tier;
    3. random simulation (``rsim``) for deeper bugs; it runs after the
       shallow prover because that is cheaper overall (safe units, the
       majority, never pay for simulation);
    4. BMC to the bound cap, for bugs nothing above found.

    A cheap engine missing from that order runs after BMC.  ``priors``
    (see :func:`learn_priors`) order the configurations of the other rungs
    by historical score; in the cheap rung they can only order
    configurations of one engine, so no prior moves BMC ahead.
    """
    from repro.engines.base import EngineCapabilities

    tiers: Dict[str, List[PortfolioConfig]] = {
        tier: [] for tier in EngineCapabilities.COST_TIERS
    }
    order: Dict[str, int] = {}

    def add(tier: str, config: PortfolioConfig) -> None:
        tiers[tier].append(config)
        order[config.label] = len(order)

    shallow_k = SHALLOW_K if bound is None else min(SHALLOW_K, bound)
    for representation in representations:
        for registration in list_engines(ladder_only=True):
            capabilities = registration.capabilities
            if representation not in capabilities.representations:
                continue
            options: Dict[str, object] = {"representation": representation}
            if registration.name == SHALLOW_PROVER:
                add("cheap", PortfolioConfig(
                    registration.name,
                    (("representation", representation),),
                    depth_cap=shallow_k,
                ))
                if shallow_k == bound:
                    continue  # the capped run is the full run
            if bound is not None:
                options.update(bound_options(bound))
            add(capabilities.cost, PortfolioConfig.of(registration.name, **options))

    def sort_key(tier: str, config: PortfolioConfig) -> Tuple[int, float, int]:
        rank = len(CHEAP_ORDER)
        if tier == "cheap" and config.engine in CHEAP_ORDER:
            rank = CHEAP_ORDER.index(config.engine)
        prior = (priors or {}).get(config.engine)
        score = prior["score"] if prior else float("inf")
        return (rank, score, order[config.label])

    populated = [
        (tier, configs) for tier, configs in tiers.items() if configs
    ]
    rungs: List[LadderRung] = []
    for index, (tier, configs) in enumerate(populated):
        final = index == len(populated) - 1
        budget: Optional[float] = None
        if not final and timeout is not None:
            fraction = DEFAULT_RUNG_FRACTIONS.get(tier, 0.2)
            budget = max(MIN_RUNG_BUDGET, timeout * fraction)
        rungs.append(
            LadderRung(
                tuple(sorted(configs, key=lambda c: sort_key(tier, c))),
                budget,
                tier,
            )
        )
    return rungs


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


#: a configuration that never started (a winner emerged first, or its rung
#: ran out of budget); the other configuration states are the supervision
#: taxonomy: done, cancelled, timed-out, crashed
SKIPPED = "skipped"


@dataclass
class WorkerOutcome:
    """What happened to one configuration of a ladder or portfolio run."""

    label: str
    engine: str
    options: Dict[str, object]
    state: str = SKIPPED
    result: Optional[VerificationResult] = None
    runtime: float = 0.0
    #: attempts this configuration consumed (retries increment it)
    attempts: int = 0
    #: True when the outcome was produced in-process after pool degradation
    degraded: bool = False
    #: index of the ladder rung the configuration ran in
    rung: int = 0

    @property
    def status(self) -> str:
        if self.result is not None:
            return self.result.status
        return self.state


def _worker_cpu(outcome: WorkerOutcome) -> float:
    """CPU seconds one configuration consumed.

    Engines measure their own ``process_time`` (see
    :class:`repro.engines.base.Engine`), which survives the trip back from
    the worker process on ``result.cpu_time``; workers that never reported
    (killed, crashed) fall back to their wall time — an over-estimate, but
    the honest bound for a CPU-bound child the parent cannot observe.
    """
    if outcome.result is not None and outcome.result.cpu_time:
        return outcome.result.cpu_time
    return outcome.runtime


def _decides(result: VerificationResult, certify: bool) -> bool:
    """A definitive answer — with ``certify``, one whose certificate validated."""
    return result.is_definitive and (
        not certify or result.detail.get("certified") is True
    )


def _undecided_status(outcomes: Sequence[WorkerOutcome]) -> str:
    """Summarize configurations none of which reached a definitive answer."""
    statuses = [
        outcome.result.status for outcome in outcomes if outcome.result is not None
    ]
    if Status.UNKNOWN in statuses:
        return Status.UNKNOWN
    if statuses and all(status == Status.ERROR for status in statuses):
        return Status.ERROR
    if not statuses and any(outcome.state == CRASHED for outcome in outcomes):
        # every worker died without reporting: a crash, not a timeout
        return Status.ERROR
    return Status.TIMEOUT


@dataclass
class PortfolioResult:
    """Aggregated outcome of one portfolio run."""

    status: str
    property_name: str
    runtime: float
    winner: Optional[str] = None  # label of the deciding configuration
    winner_engine: Optional[str] = None
    counterexample: Optional[Counterexample] = None
    workers: List[WorkerOutcome] = field(default_factory=list)
    detail: Dict[str, object] = field(default_factory=dict)
    reason: str = ""
    #: the winning configuration's checkable certificate (see :mod:`repro.certs`)
    certificate: Optional[object] = None

    @property
    def is_definitive(self) -> bool:
        return self.status in Status.DEFINITIVE

    def worker(self, label: str) -> WorkerOutcome:
        for outcome in self.workers:
            if outcome.label == label:
                return outcome
        raise KeyError(f"no portfolio worker labelled {label!r}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PortfolioResult({self.status}, winner={self.winner!r}, "
            f"{self.runtime:.3f}s, {len(self.workers)} workers)"
        )


# ---------------------------------------------------------------------------
# one configuration: the unit of work of every rung
# ---------------------------------------------------------------------------


def run_config(payload: Tuple) -> VerificationResult:
    """Run one engine configuration; the same function in-process and in a worker.

    ``payload`` is ``(config, target, property_name, timeout, certify,
    rung)``, where ``target`` is a picklable :class:`VerificationTask`
    (loaded here, in the worker) or an already-built transition system
    (in-process).  An engine exception becomes an ERROR result — the crash
    category of the paper.  With ``certify`` a definitive answer is checked
    by the independent validator right here, next to the engine:
    ``detail["certified"]`` records the verdict of the check,
    ``detail["validation"]`` its record (which a cache store reuses as its
    own original check) and, for a rejected certificate,
    ``detail["certify_reason"]`` the reason.  A
    result that cannot be pickled (engine-specific detail) keeps its
    verdict, times and telemetry but drops the rest, so it can always cross
    a process boundary.
    """
    config, target, property_name, timeout, certify, rung = payload
    start = time.monotonic()
    try:
        with _telemetry.span(
            "ladder.attempt", config=config.label, rung=rung
        ) as attempt_span:
            system = target.load() if isinstance(target, VerificationTask) else target
            engine = make_engine(
                config.engine,
                system,
                ignore_unknown_options=True,
                **config.options_dict,
            )
            result = engine.verify(property_name, timeout=timeout)
            attempt_span.set_outcome(result.status)
        if certify and result.is_definitive:
            from repro.certs import validate_result

            validation = validate_result(system, result, timeout=timeout)
            result.detail["certified"] = validation.ok
            result.detail["validation"] = validation.to_json()
            if not validation.ok:
                result.detail["certify_reason"] = validation.reason
    except Exception as error:  # noqa: BLE001 - crash category of the paper
        result = VerificationResult(
            Status.ERROR,
            config.engine,
            property_name or "",
            runtime=time.monotonic() - start,
            reason=f"{type(error).__name__}: {error}",
        )
    try:
        pickle.dumps(result)
    except Exception:  # pragma: no cover - unpicklable engine detail
        result = VerificationResult(
            result.status,
            result.engine,
            result.property_name,
            runtime=result.runtime,
            cpu_time=result.cpu_time,
            reason=result.reason or "detail dropped (not picklable)",
            telemetry=result.telemetry,  # JSON-safe primitives, always pickles
        )
    return result


# ---------------------------------------------------------------------------
# the rung loop
# ---------------------------------------------------------------------------


@dataclass
class LadderRun:
    """What one pass of the rung loop did."""

    #: every configuration of every rung that ran, in schedule order
    workers: List[WorkerOutcome] = field(default_factory=list)
    #: per-rung accounting rows (budget, wall, CPU, status, winner)
    rungs: List[Dict[str, object]] = field(default_factory=list)
    #: the configuration whose answer decided the run (the first to arrive)
    winner: Optional[WorkerOutcome] = None
    decided_rung: Optional[int] = None
    wall_s: float = 0.0

    @property
    def status(self) -> str:
        """The deciding answer's status, or the summary of an undecided run."""
        return self.winner.status if self.winner else _undecided_status(self.workers)


def run_ladder(
    target,
    property_name: Optional[str],
    rungs: Sequence[LadderRung],
    timeout: Optional[float] = None,
    certify: bool = False,
    pool: Optional[WorkerSupervisor] = None,
    jobs: int = 1,
    race: bool = True,
    on_event: Optional[Callable[[Dict[str, object]], None]] = None,
) -> LadderRun:
    """Escalate through ``rungs`` until one of them decides.

    Each rung gets its own budget (``None``: whatever remains), clipped to
    the overall ``timeout``.  Without a ``pool`` a rung runs its
    configurations in-process, one at a time, each with the rung's
    remaining budget: the path of batch and serve workers, whose own
    process is already supervised.  With a ``pool`` the rung's
    configurations race as supervised workers
    (:meth:`WorkerSupervisor.run_map`, at most ``jobs`` at once) and the
    first decisive answer sets the map's ``abort`` event, which cancels the
    rung's losers; ``race=False`` (cross-check) lets every configuration
    finish.  A decisive answer is a definitive one — with ``certify``, one
    whose certificate validated (see :func:`run_config`).  The loop stops
    after the first rung with a decisive answer.

    ``target`` is a :class:`VerificationTask`, or (in-process only) an
    already-built transition system.
    """
    overall = Budget(timeout)
    run = LadderRun()
    for index, rung in enumerate(rungs):
        if overall.expired():
            break
        budget, remaining = rung.budget, overall.remaining()
        if remaining is not None:
            budget = remaining if budget is None else min(budget, remaining)

        def emit(event: str, **fields) -> None:
            if on_event is not None:
                on_event({"event": event, "rung": index, "tier": rung.tier, **fields})

        outcomes = [
            WorkerOutcome(config.label, config.engine, config.options_dict, rung=index)
            for config in rung.configs
        ]
        payloads = [
            (config, target, property_name, budget, certify, index)
            for config in rung.configs
        ]
        clock = Budget(budget)
        with _telemetry.span("ladder.rung", rung=index, tier=rung.tier) as rung_span:
            if pool is None:
                winner = _run_inline(payloads, outcomes, clock, certify)
            else:
                winner = _race(pool, jobs, payloads, outcomes, clock, certify, race, emit)
            status = winner.status if winner else _undecided_status(outcomes)
            rung_span.set_outcome(status)
        run.workers.extend(outcomes)
        run.rungs.append(
            {
                "rung": index,
                "tier": rung.tier,
                "configs": list(rung.labels),
                "budget_s": None if budget is None else round(budget, 6),
                "wall_s": round(clock.elapsed(), 6),
                "cpu_s": round(sum(map(_worker_cpu, outcomes)), 6),
                "status": status,
                "winner": winner.label if winner else None,
            }
        )
        if winner is not None:
            run.winner, run.decided_rung = winner, index
            break
    run.wall_s = overall.elapsed()
    return run


def _rebudget(payload, clock: Budget, allowance=None):
    """Thread an attempt's allowance, clipped to the rung's budget, into ``payload``."""
    left = clock.remaining()
    if left is not None:
        allowance = left if allowance is None else min(allowance, left)
    return payload[:3] + (allowance,) + payload[4:]


def _run_inline(payloads, outcomes, clock: Budget, certify) -> Optional[WorkerOutcome]:
    """One rung in-process: configurations one at a time, first decider wins."""
    for payload, outcome in zip(payloads, outcomes):
        if clock.expired():
            break
        # a rung landing is a liveness milestone: under supervision it
        # streams to the waiting client as a progress frame
        report_progress(
            milestone=True, phase="rung", rung=outcome.rung, config=outcome.label
        )
        t0 = time.monotonic()
        result = run_config(_rebudget(payload, clock))
        outcome.state, outcome.result, outcome.attempts = DONE, result, 1
        outcome.runtime = time.monotonic() - t0
        if _decides(result, certify):
            return outcome
    return None


def _race(
    pool, jobs, payloads, outcomes, clock: Budget, certify, race, emit
) -> Optional[WorkerOutcome]:
    """One rung on the supervised pool: the first decider aborts the rest."""
    unit_of = {id(payload): unit for unit, payload in enumerate(payloads)}
    abort = threading.Event()
    deciders: List[WorkerOutcome] = []

    def accept(payload, result) -> None:
        outcome = outcomes[unit_of[id(payload)]]
        emit("result", label=outcome.label, status=result.status)
        if not deciders and _decides(result, certify):
            deciders.append(outcome)
            if race:
                abort.set()
        return None  # every report is an answer; only a death is retried

    def relay(event: Dict[str, object]) -> None:
        unit = event.pop("unit", None)
        if event["event"] != "progress":  # per-bound ticks would flood
            label = outcomes[unit].label if unit is not None else ""
            emit(event.pop("event"), label=label, **event)

    supervised = pool.run_map(
        payloads,
        run_config,
        jobs=jobs,
        timeout=clock.remaining(),
        # a configuration queued behind others still stops at the rung deadline
        rebudget=lambda payload, allowance: _rebudget(payload, clock, allowance),
        accept=accept,
        abort=abort,
        on_event=relay,
    )
    for outcome, unit in zip(outcomes, supervised):
        outcome.attempts = len(unit.attempts)
        outcome.runtime = sum(attempt["runtime_s"] for attempt in unit.attempts)
        outcome.degraded = unit.degraded
        if unit.state == DONE:
            outcome.state, outcome.result = DONE, unit.value
        elif unit.attempts:  # never launched: stays skipped
            outcome.state = unit.state
    return deciders[0] if deciders else None


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------


class PortfolioRunner:
    """Race engine configurations in supervised worker processes.

    Every run is a budget ladder on one :class:`WorkerSupervisor` pool (see
    :func:`run_ladder`); the all-at-once portfolio is the ladder with one
    rung and no rung budget.

    Parameters
    ----------
    configs:
        The configurations to race at once (default:
        :func:`default_portfolio_configs`).
    timeout:
        Overall wall-clock budget in seconds for the whole run; each worker
        receives what remains of it (or of its rung's budget) as its engine
        budget.
    max_workers:
        Concurrent process cap (default: one process per configuration, so
        the race is decided by the OS scheduler even when configurations
        outnumber cores).  With a smaller cap the remaining configurations
        are queued and launched as slots free up.
    cross_check:
        When True the runner does *not* cancel on the first definitive
        answer; every worker runs to completion and disagreeing definitive
        answers are adjudicated by certificate validation, or yield an
        overall ``Status.WRONG`` when validation cannot decide.
    expected:
        Optional ground-truth verdict (``"safe"``/``"unsafe"``).  A
        definitive portfolio answer contradicting it is reported as
        ``Status.WRONG`` — the harness-side classification of the paper.
    on_event:
        Optional callback receiving progress dicts
        (``{"event": "attempt"|"result"|"retry"|..., "label": ..., "rung":
        ..., ...}``) as the workers start and report.
    ladder:
        Budget-ladder mode (mutually exclusive with ``configs`` and
        ``cross_check``): a sequence of :class:`LadderRung` (see
        :func:`default_budget_ladder`).  The rungs race in order — cheap
        refuters at a small budget first, escalating to the provers only
        when a rung ends without a definitive answer.  ``timeout`` still
        bounds the whole ladder.
    retry:
        :class:`repro.engines.supervision.RetryPolicy` for workers that die
        without reporting: the crashed configuration is relaunched with
        exponential backoff while its remaining budget allows (default:
        one retry).
    certify:
        Accept a definitive worker answer only when its certificate passes
        independent validation (:func:`repro.certs.validate_result`); an
        uncertified claim is excluded from winning and recorded under
        ``detail["certification"]``.
    """

    def __init__(
        self,
        configs: Optional[Sequence[PortfolioConfig]] = None,
        timeout: Optional[float] = None,
        max_workers: Optional[int] = None,
        cross_check: bool = False,
        expected: Optional[str] = None,
        on_event: Optional[Callable[[Dict[str, object]], None]] = None,
        ladder: Optional[Sequence[LadderRung]] = None,
        retry: Optional[RetryPolicy] = None,
        certify: bool = False,
    ) -> None:
        if ladder is not None:
            if cross_check:
                raise ValueError(
                    "budget-ladder scheduling cancels rung by rung and is "
                    "incompatible with cross_check (which needs every worker "
                    "to finish)"
                )
            if configs is not None:
                raise ValueError("pass either configs or ladder, not both")
            self.rungs = list(ladder)
        else:
            if configs is None:
                configs = default_portfolio_configs()
            self.rungs = [LadderRung(tuple(configs))]
        self.configs = [config for rung in self.rungs for config in rung.configs]
        if not self.configs:
            raise ValueError("portfolio needs at least one configuration")
        self.timeout = timeout
        self.max_workers = max(1, max_workers or len(self.configs))
        self.cross_check = cross_check
        self.expected = expected
        self.on_event = on_event
        self.retry = retry if retry is not None else RetryPolicy()
        self.certify = certify
        self._context = default_context()

    # ------------------------------------------------------------------
    def _prewarm(self, task: VerificationTask) -> None:
        """Blast the task's frame templates once, in the parent, before forking.

        Every representation the configurations use is warmed, so the
        forked workers find their ``(system, representation)`` template
        library already built in inherited (copy-on-write) memory.  No-op
        under the ``spawn`` start method (workers warm their own caches).
        """
        if self._context.get_start_method() != "fork":
            return
        warm_task_templates(
            task,
            {
                str(config.options_dict.get("representation", "word"))
                for config in self.configs
            },
        )

    # ------------------------------------------------------------------
    def run(
        self,
        task: VerificationTask,
        property_name: Optional[str] = None,
    ) -> PortfolioResult:
        """Run the ladder (one rung for the all-at-once portfolio) on ``task``."""
        with _telemetry.span(
            "portfolio.run", task=task.name, configs=len(self.configs),
            rungs=len(self.rungs),
        ) as run_span:
            start = time.monotonic()
            self._prewarm(task)
            pool = WorkerSupervisor(self._context, retry=self.retry)
            run = run_ladder(
                task,
                property_name,
                self.rungs,
                self.timeout,
                certify=self.certify,
                pool=pool,
                jobs=self.max_workers,
                race=not self.cross_check,
                on_event=self.on_event,
            )
            supervision = {
                "spawned": pool.spawned,
                "spawn_failures": pool.spawn_failures,
                "retries": pool.retries_launched,
                "kills": pool.kills,
                "degraded": any(outcome.degraded for outcome in run.workers),
            }
            result = self._aggregate(task, property_name, run, start, supervision)
            run_span.set_outcome(result.status)
            return result

    # ------------------------------------------------------------------
    def _aggregate(
        self,
        task: VerificationTask,
        property_name: Optional[str],
        run: LadderRun,
        start: float,
        supervision: Dict[str, object],
    ) -> PortfolioResult:
        outcomes = run.workers
        runtime = time.monotonic() - start
        reported = [o.result for o in outcomes if o.result is not None]
        resolved_property = property_name or next(
            (result.property_name for result in reported if result.property_name), ""
        )
        detail: Dict[str, object] = {
            "task": task.name,
            "configs": [outcome.label for outcome in outcomes],
            "worker_statuses": {outcome.label: outcome.status for outcome in outcomes},
            "cross_check": self.cross_check,
            # CPU the run spent: each worker's measured process time (wall
            # for workers that never reported), compared between the ladder
            # and the all-at-once fan-out by the serve bench
            "cpu_s": round(sum(map(_worker_cpu, outcomes)), 6),
            "supervision": supervision,
            "ladder": {
                "rungs": run.rungs,
                "decided_rung": run.decided_rung,
                "schedule": [list(rung.labels) for rung in self.rungs],
            },
        }

        definitive = [
            outcome
            for outcome in outcomes
            if outcome.result is not None and outcome.result.is_definitive
        ]

        # certify mode: a definitive claim counts only with a certificate the
        # independent validator accepted (checked in the worker, next to the
        # engine) — a liar is excluded from winning and its rejection
        # recorded, never silently dropped
        if self.certify and definitive:
            detail["certification"] = {
                outcome.label: {
                    "claimed": outcome.result.status,
                    "certified": _decides(outcome.result, True),
                    "reason": outcome.result.detail.get("certify_reason", ""),
                }
                for outcome in definitive
            }
            definitive = [o for o in definitive if _decides(o.result, True)]

        # disagreeing definitive answers (cross-check, or two racers landing
        # together) are adjudicated by validating the workers' certificates
        # with the independent checker; only an undecidable disagreement
        # remains a wrong result
        winning = run.winner
        if len({outcome.result.status for outcome in definitive}) > 1:
            detail["disagreement"] = {
                outcome.label: outcome.result.status for outcome in definitive
            }
            winning = self._adjudicate(task, definitive, detail)
            if winning is None:
                return PortfolioResult(
                    Status.WRONG,
                    resolved_property,
                    runtime,
                    workers=outcomes,
                    detail=detail,
                    reason=(
                        "portfolio workers returned contradictory definitive "
                        "answers and certificate validation could not adjudicate"
                    ),
                )

        if winning is None:
            return PortfolioResult(
                run.status,
                resolved_property,
                runtime,
                workers=outcomes,
                detail=detail,
                reason="no portfolio configuration reached a definitive answer",
            )

        result = winning.result
        assert result is not None
        status = result.status
        reason = result.reason
        if "adjudication" in detail:
            reason = (
                f"cross-check disagreement adjudicated by certificate "
                f"validation in favour of {winning.label}"
            )
        if self.expected is not None and status != self.expected:
            detail["expected"] = self.expected
            detail["claimed"] = status
            status = Status.WRONG
            reason = (
                f"{winning.label} claimed {result.status!r} but the benchmark "
                f"is known {self.expected!r}"
            )
        return PortfolioResult(
            status,
            result.property_name,
            runtime,
            winner=winning.label,
            winner_engine=winning.engine,
            counterexample=result.counterexample,
            workers=outcomes,
            detail={**detail, **{f"winner_{k}": v for k, v in result.detail.items()}},
            reason=reason,
            certificate=result.certificate,
        )

    def _adjudicate(
        self,
        task: VerificationTask,
        definitive: List[WorkerOutcome],
        detail: Dict[str, object],
    ) -> Optional[WorkerOutcome]:
        """Decide a definitive-answer disagreement by validating certificates.

        Every disagreeing worker's certificate is checked by the independent
        validator (:func:`repro.certs.validate_result`).  If exactly one
        claimed status survives validation, the fastest worker holding a
        validated certificate of that status wins; otherwise (no certificate
        validates, or — which would indicate a validator bug — both sides
        validate) adjudication abstains and the caller reports WRONG.  The
        per-worker verdicts are recorded under ``detail["adjudication"]``.
        """
        from repro.certs import validate_result

        try:
            system = task.load()
        except Exception as error:  # noqa: BLE001 - loader failures abstain
            detail["adjudication"] = {"error": f"{type(error).__name__}: {error}"}
            return None
        verdicts: Dict[str, Dict[str, object]] = {}
        validated: List[WorkerOutcome] = []
        for outcome in definitive:
            # validation runs in the parent after the race; bound it by the
            # same per-run budget the workers had
            validation = validate_result(system, outcome.result, timeout=self.timeout)
            verdicts[outcome.label] = {
                "claimed": outcome.result.status,
                "certified": validation.ok,
                "reason": validation.reason,
            }
            if validation.ok:
                validated.append(outcome)
        detail["adjudication"] = verdicts
        validated_statuses = {outcome.result.status for outcome in validated}
        if len(validated_statuses) != 1:
            return None
        return min(validated, key=lambda outcome: outcome.runtime)

