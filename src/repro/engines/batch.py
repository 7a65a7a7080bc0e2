"""Batched suite sweeps over one warm process pool.

The serving workload of the ROADMAP is not "one design, one query" but a
*sweep*: many designs × properties verified together, repeatedly.  The
:class:`BatchRunner` turns such a sweep into one warm pipeline:

* items are expanded to one unit of work per ``(design, property)`` — a
  multi-property design is sharded one worker per *property*, so its
  properties verify concurrently while sharing the design's blast;
* the parent pre-blasts every task's frame-template library once and then
  forks the pool, so all workers inherit the warm blasts via copy-on-write
  (same mechanism as the portfolio pre-warm, amortized over the whole
  batch instead of one query);
* each item is first looked up in the certificate-keyed
  :class:`repro.cache.ResultCache` (when one is attached): hits are served
  from the parent after independent re-validation, only misses reach the
  pool;
* the pool is one :class:`~repro.engines.supervision.WorkerSupervisor`
  map, and each worker runs the in-process form of the one rung loop
  (:func:`run_sequential_ladder`): with the pool already saturating the
  cores on batch parallelism, racing engines per item would oversubscribe —
  instead each worker escalates cheap → medium → heavy one engine at a
  time and stops at the first definitive answer;
* with a cache attached, the worker that produced a definitive verdict also
  certifies it (:func:`repro.cache.result_cache.certify_result`): it
  validates the certificate, minimizes a SAFE one and encodes the cache
  entry, in parallel with the other units.  The parent re-checks the cheap
  provenance, writes the exact bytes the worker validated and memoizes
  their digest (:meth:`ResultCache.commit`), so the *next* sweep over the
  same designs is all hits.  A forged or failing certificate is refused in
  the worker and never written.  The unit's ``wall_s`` includes this
  certification; ``certify_s`` reports its share.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engines.portfolio import (
    LadderRung,
    VerificationTask,
    default_budget_ladder,
    learn_priors,
    run_ladder,
    warm_task_templates,
)
from repro.engines.result import Status, VerificationResult
from repro.engines.supervision import (
    CANCELLED as _UNIT_CANCELLED,
    TIMED_OUT as _UNIT_TIMED_OUT,
    RetryPolicy,
    SupervisedOutcome,
    WorkerSupervisor,
    default_context,
)
from repro.obs import telemetry as _telemetry


# ---------------------------------------------------------------------------
# the in-process budget ladder (one batch worker = one item)
# ---------------------------------------------------------------------------


def run_sequential_ladder(
    system,
    property_name: Optional[str],
    rungs: Sequence[LadderRung],
    timeout: Optional[float] = None,
    certify: bool = False,
) -> VerificationResult:
    """Escalate through the ladder rungs one engine at a time, in-process.

    The in-process form of the one rung loop (:func:`run_ladder`): every
    configuration of a rung runs with the rung's remaining budget (clipped
    to the overall ``timeout``); the first definitive answer wins and the
    attempt log is recorded under ``detail["ladder_attempts"]``.  Engine
    crashes are recorded and skipped — the batch counterpart of the
    portfolio's crash category.  With ``certify`` a definitive answer is
    accepted only if its certificate passes independent validation; a claim
    that fails (a lying or fault-injected engine) is recorded as an
    ``uncertified`` attempt and the ladder escalates past it.
    """
    run = run_ladder(system, property_name, rungs, timeout, certify=certify)
    attempts = [
        _attempt_row(outcome) for outcome in run.workers if outcome.result is not None
    ]
    if run.winner is not None:
        result = run.winner.result
        result.detail["ladder_rung"] = run.decided_rung
        result.detail["ladder_attempts"] = attempts
        # keep result.runtime as the deciding engine's own time — consumers
        # (learn_priors) attribute it to that engine, so it must not absorb
        # earlier rungs' failed probes; the whole ladder's elapsed time is
        # reported separately
        result.detail["ladder_wall_s"] = round(run.wall_s, 6)
        return result
    resolved_property = property_name or (
        system.properties[0].name if system.properties else ""
    )
    return VerificationResult(
        run.status,
        "ladder",
        resolved_property,
        runtime=run.wall_s,
        detail={"ladder_attempts": attempts},
        reason="no ladder configuration reached a definitive answer",
    )


def _attempt_row(outcome) -> Dict[str, object]:
    """One ``ladder_attempts`` entry: config, rung, status, runtime, reason."""
    result = outcome.result
    row: Dict[str, object] = {
        "config": outcome.label,
        "rung": outcome.rung,
        "status": result.status,
        "runtime_s": round(outcome.runtime, 6),
    }
    if result.status == Status.ERROR:
        row["reason"] = result.reason
    elif result.detail.get("certified") is False:
        row["status"] = "uncertified"
        row["reason"] = f"certificate rejected: {result.detail.get('certify_reason')}"
    return row


# ---------------------------------------------------------------------------
# batch items and per-item results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchItem:
    """One batch request: a task and (optionally) one of its properties.

    ``property_name=None`` expands to one unit of work per declared
    property of the design.  ``expected`` is the known ground truth used for
    the WRONG classification; for suite benchmarks it defaults to the
    suite's recorded verdict.
    """

    task: VerificationTask
    property_name: Optional[str] = None
    expected: Optional[str] = None

    @staticmethod
    def benchmark(name: str, property_name: Optional[str] = None) -> "BatchItem":
        return BatchItem(VerificationTask.benchmark(name), property_name)


@dataclass
class BatchItemResult:
    """The outcome of one ``(design, property)`` unit of work."""

    design: str
    property_name: str
    status: str
    #: "cache" for hits, the deciding engine name for pool runs
    source: str
    #: the deciding engine's own time (re-validation time for cache hits)
    runtime_s: float
    #: the unit's wall time: its supervised attempts end to end, including
    #: the worker's certification (the re-validation for cache hits)
    wall_s: float = 0.0
    #: seconds the worker spent certifying the verdict for the cache
    #: (validate + minimize + encode); ``None`` when nothing was certified
    certify_s: Optional[float] = None
    cache_key: Optional[str] = None
    #: True iff the verdict is backed by an independently validated
    #: certificate (always true for cache hits; true for stored results)
    validated: bool = False
    stored: bool = False
    rung: Optional[int] = None
    expected: Optional[str] = None
    reason: str = ""
    minimization: Optional[Dict[str, object]] = None
    #: supervision record of the unit (attempt log, retries, degradation)
    supervision: Optional[Dict[str, object]] = None

    @property
    def correct(self) -> Optional[bool]:
        if self.expected is None or self.status not in Status.DEFINITIVE:
            return None
        return self.status == self.expected

    def to_json(self) -> Dict[str, object]:
        return {
            "design": self.design,
            "property": self.property_name,
            "status": self.status,
            "source": self.source,
            "runtime_s": round(self.runtime_s, 6),
            "wall_s": round(self.wall_s, 6),
            "certify_s": None if self.certify_s is None else round(self.certify_s, 6),
            "cache_key": self.cache_key,
            "validated": self.validated,
            "stored": self.stored,
            "rung": self.rung,
            "expected": self.expected,
            "correct": self.correct,
            "reason": self.reason,
            "minimization": self.minimization,
            "supervision": self.supervision,
        }


@dataclass
class BatchReport:
    """Aggregated outcome of one batch sweep."""

    items: List[BatchItemResult] = field(default_factory=list)
    wall_s: float = 0.0
    workers: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    demotions: int = 0
    #: supervised retries launched across all units
    retries: int = 0
    #: units that ran in-process after the pool went unhealthy
    degraded: int = 0

    @property
    def all_definitive(self) -> bool:
        return all(item.status in Status.DEFINITIVE for item in self.items)

    @property
    def all_correct(self) -> bool:
        return all(item.correct is not False for item in self.items)

    def verdicts(self) -> Dict[Tuple[str, str], str]:
        return {
            (item.design, item.property_name): item.status for item in self.items
        }

    def to_json(self) -> Dict[str, object]:
        return {
            "wall_s": round(self.wall_s, 6),
            "workers": self.workers,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "demotions": self.demotions,
            "retries": self.retries,
            "degraded": self.degraded,
            "all_definitive": self.all_definitive,
            "all_correct": self.all_correct,
            "items": [item.to_json() for item in self.items],
        }


# ---------------------------------------------------------------------------
# the pool worker
# ---------------------------------------------------------------------------


def _batch_worker(payload: Tuple) -> Tuple[int, VerificationResult, object]:
    """Run one unit of work (the in-process ladder) in a pool process.

    ``payload`` is ``(index, task, property_name, rungs, timeout, certify,
    store)``.  With ``store`` — ``(representation, validation timeout)`` of
    the caller's cache — a definitive verdict is certified right here, next to
    the ladder, and the :class:`~repro.cache.result_cache.Certification`
    travels back with the result for the parent to commit.  Engine crashes
    and unpicklable results are handled per configuration by
    :func:`repro.engines.portfolio.run_config`; a failure to load the
    design (or of the ladder itself) becomes the unit's ERROR result here.
    """
    index, task, property_name, rungs, timeout, certify, store = payload
    start = time.monotonic()
    try:
        with _telemetry.span(
            "batch.unit", design=task.name, property=property_name or ""
        ) as unit_span:
            system = task.load()
            result = run_sequential_ladder(
                system, property_name, rungs, timeout, certify=certify
            )
            unit_span.set_outcome(result.status)
    except Exception as error:  # noqa: BLE001 - loader/ladder crash
        result = VerificationResult(
            Status.ERROR,
            "batch",
            property_name or "",
            runtime=time.monotonic() - start,
            reason=f"{type(error).__name__}: {error}",
        )
    certification = None
    if store is not None and result.is_definitive:
        from repro.cache.result_cache import certify_result

        representation, validation_timeout = store
        certification = certify_result(
            system, property_name, representation, result, task.name, validation_timeout
        )
    return index, result, certification


def _result_from_outcome(
    outcome: SupervisedOutcome, property_name: Optional[str]
) -> VerificationResult:
    """Map a supervised unit that never reported into the result taxonomy.

    Used when ``outcome.value`` is ``None`` — the worker crashed, timed out,
    or the unit was cancelled before any attempt answered.  The supervision
    state surfaces through an ordinary :class:`VerificationResult`, never a
    silent skip.
    """
    if outcome.state == _UNIT_TIMED_OUT:
        status = Status.TIMEOUT
    elif outcome.state == _UNIT_CANCELLED:
        status = Status.UNKNOWN
    else:
        status = Status.ERROR
    runtime = sum(a.get("runtime_s", 0.0) for a in outcome.attempts)
    return VerificationResult(
        status,
        "batch",
        property_name or "",
        runtime=runtime,
        reason=(
            f"worker {outcome.state} after {len(outcome.attempts)} attempt(s)"
            + (f": {outcome.reason}" if outcome.reason else "")
        ),
    )


def run_supervised_unit(
    task: VerificationTask,
    property_name: Optional[str],
    rungs: Sequence[LadderRung],
    timeout: Optional[float] = None,
    attempt_timeout: Optional[float] = None,
    certify: bool = False,
    retry: Optional[RetryPolicy] = None,
    abort=None,
    stall=None,
    on_event=None,
    store=None,
) -> Tuple[VerificationResult, SupervisedOutcome, object]:
    """Run one ``(task, property)`` unit in a supervised worker process.

    This is the single-unit form of the batch pool (:func:`_run_units`).
    The serve layer runs every admitted request through here, so a server
    request gets exactly the deadline/kill/retry hygiene of a batch unit —
    plus ``abort`` for client-disconnect cancellation and ``stall`` for the
    wedged-request liveness kill (both settable events, see
    :meth:`WorkerSupervisor.run_map`).  ``store`` is the worker's
    certification request (see :func:`_batch_worker`); the returned
    certification is ``None`` without one.
    """
    payload = (0, task, property_name, tuple(rungs), timeout, certify, store)
    return _run_units(
        WorkerSupervisor(default_context(), retry=retry),
        [payload],
        jobs=1,
        timeout=timeout,
        attempt_timeout=attempt_timeout,
        abort=abort,
        stall=stall,
        on_event=on_event,
    )[0]


def _run_units(
    supervisor: WorkerSupervisor,
    payloads: Sequence[Tuple],
    jobs: int,
    timeout: Optional[float],
    **map_options,
) -> List[Tuple[VerificationResult, SupervisedOutcome, object]]:
    """Run batch units through :meth:`WorkerSupervisor.run_map`.

    Each payload is ``(index, task, property_name, rungs, timeout,
    certify, store)``; each answer is ``(result, outcome,
    certification)``.  The attempt's allowance is threaded into the payload, so
    the ladder (and its solvers) arm cooperative deadlines; the external
    kill is only the backstop for wedged workers.  A ladder that returned
    no definitive verdict is retried under the remaining budget.  A unit
    that never reported surfaces its supervision state through the
    ordinary result taxonomy, never as a skip.
    """
    outcomes = supervisor.run_map(
        payloads,
        _batch_worker,
        jobs=jobs,
        timeout=timeout,
        rebudget=lambda payload, allowance: payload[:4] + (allowance,) + payload[5:],
        accept=_accept_definitive,
        **map_options,
    )
    return [
        (outcome.value[1], outcome, outcome.value[2])
        if outcome.value is not None
        else (_result_from_outcome(outcome, payload[2]), outcome, None)
        for payload, outcome in zip(payloads, outcomes)
    ]


def _accept_definitive(payload, value) -> Optional[str]:
    """Supervision acceptance test for a batch worker's answer.

    A ladder that came back without a definitive verdict (every rung
    crashed, wedged, or had its certificate rejected) is worth retrying
    while the unit still has wall budget — the supervisor keeps the
    rejected answer as the fallback if the retry fares no better.
    """
    try:
        _, result, _ = value
    except (TypeError, ValueError):
        return "malformed worker answer"
    if result.status in Status.DEFINITIVE:
        return None
    return f"no definitive verdict ({result.status}: {result.reason or 'inconclusive'})"


# ---------------------------------------------------------------------------
# the batch runner
# ---------------------------------------------------------------------------


class BatchRunner:
    """Verify many designs × properties through one warm process pool.

    Parameters
    ----------
    cache:
        Optional :class:`repro.cache.ResultCache`.  Hits are served from
        the parent after re-validation; definitive pool results are
        validated and minimized in the worker that produced them and
        committed by the parent, so the cache warms up over the batch and
        across batches.
    jobs:
        Pool size (default: CPU count, capped by the number of misses).
    timeout:
        Per-item wall-clock budget in seconds.
    bound:
        Search-depth cap routed to every engine of the ladder.
    ladder:
        The rung schedule each worker escalates through (default: the
        cost-tier ladder of :func:`default_budget_ladder`, ordered by
        priors learned from local ``BENCH_*.json`` reports).
    on_event:
        Optional callback receiving progress dicts (``hit``/``scheduled``/
        ``result``/``stored``/``supervision`` events).
    retry:
        :class:`repro.engines.supervision.RetryPolicy` for crashed or
        timed-out units (default: one retry with backoff).
    attempt_timeout:
        Per-attempt wall cap in seconds (on top of the per-item ``timeout``
        budget); a wedged worker is killed this long after launch.
    certify:
        Accept a definitive ladder answer only when its certificate passes
        independent validation (see :func:`run_sequential_ladder`).
    """

    def __init__(
        self,
        cache=None,
        jobs: Optional[int] = None,
        timeout: Optional[float] = None,
        bound: Optional[int] = None,
        representation: str = "word",
        ladder: Optional[Sequence[LadderRung]] = None,
        priors: Optional[Dict[str, Dict[str, float]]] = None,
        on_event: Optional[Callable[[Dict[str, object]], None]] = None,
        retry: Optional[RetryPolicy] = None,
        attempt_timeout: Optional[float] = None,
        certify: bool = False,
    ) -> None:
        self.cache = cache
        self.jobs = jobs
        self.timeout = timeout
        self.bound = bound
        self.representation = representation
        if ladder is None:
            if priors is None:
                priors = learn_priors()
            ladder = default_budget_ladder(
                (representation,), bound=bound, timeout=timeout, priors=priors
            )
        self.ladder = tuple(ladder)
        self.on_event = on_event
        self.retry = retry
        self.attempt_timeout = attempt_timeout
        self.certify = certify
        self._context = default_context()

    # ------------------------------------------------------------------
    def _emit(self, event: str, **payload) -> None:
        if self.on_event is not None:
            self.on_event({"event": event, **payload})

    def _expand(
        self, items: Sequence[BatchItem]
    ) -> List[Tuple[VerificationTask, str, Optional[str]]]:
        """One unit of work per (task, property): the per-property sharding."""
        units: List[Tuple[VerificationTask, str, Optional[str]]] = []
        for item in items:
            expected = item.expected
            if expected is None and item.task.kind == "benchmark":
                from repro.benchmarks import get_benchmark

                expected = get_benchmark(item.task.spec).expected
            if item.property_name is not None:
                units.append((item.task, item.property_name, expected))
                continue
            try:
                system = item.task.load()
            except Exception:  # noqa: BLE001 - loader/parse failures
                # keep the unit: the pool worker re-attempts the load and
                # reports the failure as this item's ERROR result, so one
                # bad target cannot abort the rest of the sweep
                units.append((item.task, "", expected))
                continue
            for prop in system.properties:
                units.append((item.task, prop.name, expected))
        return units

    def _prewarm(self, units: Sequence[Tuple[VerificationTask, str, Optional[str]]]) -> None:
        """Blast every task's template library once, before forking the pool."""
        if self._context.get_start_method() != "fork":
            return
        for task in dict.fromkeys(task for task, _, _ in units):
            warm_task_templates(task, (self.representation,))

    # ------------------------------------------------------------------
    def run(self, items: Sequence[BatchItem]) -> BatchReport:
        """Sweep the batch; returns the per-item report."""
        with _telemetry.span("batch.run", items=len(items)) as batch_span:
            report = self._run(items)
            batch_span.annotate(
                units=len(report.items),
                cache_hits=report.cache_hits,
                cache_misses=report.cache_misses,
            )
            return report

    def _run(self, items: Sequence[BatchItem]) -> BatchReport:
        start = time.monotonic()
        units = self._expand(items)
        report = BatchReport(items=[None] * len(units))  # type: ignore[list-item]

        # serve cache hits from the parent (re-validated), queue the misses
        pending: List[int] = []
        keys: Dict[int, str] = {}
        for index, (task, property_name, expected) in enumerate(units):
            if self.cache is None:
                pending.append(index)
                continue
            try:
                system = task.load()
            except Exception:  # noqa: BLE001 - loader/parse failures
                pending.append(index)  # the worker reports the load error
                continue
            lookup = self.cache.lookup(system, property_name, self.representation)
            keys[index] = lookup.key
            if lookup.hit:
                assert lookup.result is not None
                report.cache_hits += 1
                entry = lookup.entry
                report.items[index] = BatchItemResult(
                    design=task.name,
                    property_name=property_name,
                    status=lookup.result.status,
                    source="cache",
                    runtime_s=lookup.runtime_s,
                    wall_s=lookup.runtime_s,
                    cache_key=lookup.key,
                    validated=True,
                    expected=expected,
                    reason=lookup.result.reason,
                    minimization=(
                        {
                            "minimized": entry.minimized,
                            "original_size": entry.original_size,
                            "size": entry.size,
                        }
                        if entry is not None and entry.size is not None
                        else None
                    ),
                )
                self._emit(
                    "hit",
                    design=task.name,
                    property=property_name,
                    status=lookup.result.status,
                )
            else:
                report.cache_misses += 1
                if lookup.demoted:
                    report.demotions += 1
                    self._emit(
                        "demoted",
                        design=task.name,
                        property=property_name,
                        reason=lookup.reason,
                    )
                pending.append(index)

        if pending:
            self._prewarm([units[index] for index in pending])
            jobs = self.jobs or os.cpu_count() or 1
            jobs = max(1, min(jobs, len(pending)))
            report.workers = jobs
            store = (
                None
                if self.cache is None
                else (self.representation, self.cache.validation_timeout)
            )
            payloads = [
                (index, *units[index][:2], self.ladder, self.timeout, self.certify, store)
                for index in pending
            ]
            for index in pending:
                task, property_name, _ = units[index]
                self._emit("scheduled", design=task.name, property=property_name)
            ran = _run_units(
                WorkerSupervisor(self._context, retry=self.retry),
                payloads,
                jobs=jobs,
                timeout=self.timeout,
                attempt_timeout=self.attempt_timeout,
                on_event=lambda event: self._emit(
                    "supervision", **{"kind" if k == "event" else k: v for k, v in event.items()}
                ),
            )
            for payload, (result, outcome, certification) in zip(payloads, ran):
                index = payload[0]
                task, property_name, expected = units[index]
                row = self._finish(
                    task, property_name, expected, result, certification, keys.get(index)
                )
                row.supervision = outcome.to_json()
                row.wall_s = sum(a["runtime_s"] for a in outcome.attempts)
                report.items[index] = row
                report.retries += max(0, len(outcome.attempts) - 1)
                if outcome.degraded:
                    report.degraded += 1

        report.wall_s = time.monotonic() - start
        return report

    # ------------------------------------------------------------------
    def _finish(
        self,
        task: VerificationTask,
        property_name: str,
        expected: Optional[str],
        result: VerificationResult,
        certification,
        key: Optional[str],
    ) -> BatchItemResult:
        """Record one pool result, committing the worker's certification.

        ``key`` is the cache key the parent looked the unit up under (none
        when it could not load the design, and then nothing is committed).
        """
        row = BatchItemResult(
            design=task.name,
            property_name=property_name,
            status=result.status,
            source=result.engine,
            runtime_s=result.runtime,
            rung=result.detail.get("ladder_rung"),
            expected=expected,
            reason=result.reason,
        )
        self._emit(
            "result",
            design=task.name,
            property=property_name,
            status=result.status,
            source=result.engine,
            runtime=result.runtime,
        )
        if self.cache is not None and result.is_definitive:
            # the worker certified every definitive verdict it returned
            outcome = self.cache.commit(
                certification, key=key, property_name=property_name, status=result.status
            )
            row.cache_key = outcome.key
            row.certify_s = outcome.certify_s
            row.stored = outcome.stored
            row.validated = outcome.stored
            if outcome.minimization is not None:
                row.minimization = {
                    "minimized": bool(outcome.minimization.dropped),
                    "original_size": outcome.minimization.original_size,
                    "size": outcome.minimization.size,
                    "checks": outcome.minimization.checks,
                    "validate_original_s": round(outcome.validate_original_s or 0.0, 6),
                    "validate_minimized_s": round(outcome.validate_minimized_s or 0.0, 6),
                }
            if outcome.stored:
                self._emit(
                    "stored", design=task.name, property=property_name, key=outcome.key
                )
            else:
                row.reason = (row.reason + "; " if row.reason else "") + (
                    f"not cached: {outcome.reason}"
                )
        return row
