"""The verifier's benchmark: one command, every metric, checked verdicts.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload suite --seed 1 --seconds 60 --trace 0

A run of either workload (see ``README.md``):

1. blocks of a cold sweep (a fresh ``BatchRunner`` pool sweep against an
   empty cache) and two server boots (``repro-serve`` spawn to first
   ``pong``) fill the run; the bounded timings come from these;
2. one warm pass, a fresh ``repro-verify --batch --cache-dir`` process over
   the cache the last cold sweep filled, every unit a hit;
3. one serving round on ``repro-serve``: every hit unit once and one fresh
   generated design per class as a miss.

``--trace 1`` runs the per-layer variant instead (``traced.py``,
``layers.py``) and prints the per-layer metrics.  Every verdict is checked
against ground truth that comes from the suite or from the generator's
construction; one WRONG or unvalidated verdict, or one serving request
rejected or left unanswered, fails the run with exit code 1 and prints no
numbers.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List

from common import (
    BENCH_DIR,
    POOL_JOBS,
    REPRESENTATION,
    ROOT,
    SRC,
    TMP_ROOT,
    UNIT_TIMEOUT_S,
    BenchmarkFailure,
    Unit,
    check_verdict,
    child_env,
    emit_json_line,
    median,
    shuffled,
    suite_units,
    tail,
    units_to_json,
    use_src,
    verilog_units,
)
from genverilog import CLASSES

WORKLOADS = ("suite", "verilog")

#: units per workload (the suite has 14: 12 designs, two with 2 properties)
UNITS = 14
#: input generations per run; ``setup_s`` takes their median
SETUP_REPEATS = 3
#: share of ``--seconds`` given to the blocks of one cold sweep and
#: ``BOOTS_PER_BLOCK`` server boots; the rest goes to one warm pass and one
#: serving round
BLOCK_SHARE, BOOTS_PER_BLOCK = 0.9, 2
#: the least number of blocks in a run, so every median has 3 samples
MIN_BLOCKS = 3
#: the end-to-end serving round: one request per hit unit and one miss per
#: generated design class, at this rate; it feeds the oracle and the
#: server's peak RSS, not a latency
ROUND_RATE = 10.0
#: the traced run's hit-only serving rows: (requests per second, rounds of
#: the hit units).  The first is the reference rate of ``serve.hit_p50_ms``
#: and ``serve.hit_tail_ms``; the last is past saturation on 2 cores.
HIT_RATES = ((6.0, 3), (30.0, 3), (240.0, 12))
#: the traced run's miss-only row: its rate and whole cycles of the
#: generator's design classes
MISS_RATE, MISS_CYCLES = 2.0, 2
#: hit-tail limit that a rate must meet to count towards serve.max_rate_rps
HIT_TAIL_LIMIT_MS = 400.0
#: a rate shows a growing backlog when more than this many requests are
#: still unanswered at its last scheduled send
BACKLOG_LIMIT = 8
#: how long a serving row may take to settle after its last send
SETTLE_S = 60.0
#: how long one child process (a sweep, a pass, a traced pass) may run
CHILD_TIMEOUT_S = 150.0


# ---------------------------------------------------------------------------
# process helpers
# ---------------------------------------------------------------------------


def spawn(command: List[str], stdout, stderr) -> subprocess.Popen:
    """Start a program process in its own process group at the checkout root."""
    return subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=stdout, stderr=stderr, start_new_session=True,
    )


def kill_group(process: subprocess.Popen) -> None:
    """Kill a child and everything it started (pool workers included)."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(command: List[str], timeout: float = CHILD_TIMEOUT_S):
    """Run a program process to exit; returns (seconds, code, stdout)."""
    start = time.perf_counter()
    process = spawn(command, subprocess.PIPE, subprocess.PIPE)
    try:
        out, err = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_group(process)
        process.communicate()
        raise BenchmarkFailure(f"{command[1:4]} did not finish in {timeout:g}s")
    finally:
        kill_group(process)
    seconds = time.perf_counter() - start
    if process.returncode != 0 and err:
        sys.stderr.write(err.decode("utf-8", "replace")[-4000:])
    return seconds, process.returncode, out.decode("utf-8", "replace")


def child_json(command: List[str]) -> dict:
    _, code, out = run_child(command)
    if code != 0:
        raise BenchmarkFailure(f"{os.path.basename(command[1])} exited with {code}")
    return json.loads(out.strip().splitlines()[-1])


def spawn_exit_rss(command: List[str], timeout: float = CHILD_TIMEOUT_S):
    """Spawn → exit wall time, exit code, output and the child's peak RSS.

    The child is reaped with ``wait4`` to read its resource usage; the
    2 ms polling step bounds the timing error.
    """
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        process = spawn(command, out, subprocess.STDOUT)
        pid = 0
        try:
            while True:
                pid, status, usage = os.wait4(process.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() - start > timeout:
                    raise BenchmarkFailure(
                        f"{command[2:4]} did not finish in {timeout:g}s"
                    )
                time.sleep(0.002)
        finally:
            kill_group(process)
            if not pid:
                os.waitpid(process.pid, 0)
        seconds = time.perf_counter() - start
        process.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode("utf-8", "replace")
    return seconds, process.returncode, text, usage.ru_maxrss / 1024.0


def host_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: a reading of host speed."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        sum(range(200_000))
        samples.append(1000.0 * (time.perf_counter() - start))
    return median(samples)


def write_spec(path: str, document: dict) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return path


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


class Run:
    """One benchmark run: inputs, phases, samples, the verdict tally."""

    def __init__(self, workload: str, seed: int, seconds: float, tmp: str) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tmp = tmp
        self.verdicts = 0
        self.undecided = 0
        #: (phase, unit label) -> every verdict of the unit in the phase
        #: was decided; ``decided_share`` is the share of these pairs
        self.pairs: Dict[tuple, bool] = {}
        self.peak_rss_mb = 0.0
        self.setup_gen_s: List[float] = []
        self.setup_boot_s: List[float] = []
        self.units: List[Unit] = []
        self.misses: List[Unit] = []
        self.lines: List[str] = []
        self.cache_dir = ""

    def tally(self, unit: Unit, status: str, validated, where: str) -> None:
        decided = check_verdict(unit, status, validated, where)
        self.verdicts += 1
        self.undecided += not decided
        key = (where, unit.label)
        self.pairs[key] = self.pairs.get(key, True) and decided

    def decided_share(self) -> float:
        return sum(self.pairs.values()) / len(self.pairs)

    def fresh_dir(self, name: str) -> str:
        return tempfile.mkdtemp(prefix=name + "-", dir=self.tmp)

    # ------------------------------------------------------------------
    def generate_inputs(self, miss_cycles: int) -> None:
        """Set-up part 1: write the run's Verilog inputs into a fresh dir."""
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            directory = self.fresh_dir("designs")
            if self.workload == "suite":
                units = suite_units()
            else:
                units = verilog_units(directory, self.seed, UNITS, prefix="w")
            misses = verilog_units(
                directory, self.seed, miss_cycles * len(CLASSES), prefix="m"
            )
            self.setup_gen_s.append(time.perf_counter() - start)
        self.units, self.misses = units, misses

    # ------------------------------------------------------------------
    def cold_sweep(self, index: int) -> dict:
        cache_dir = self.fresh_dir("cache")
        order = shuffled(self.units, f"{self.seed}:cold:{index}")
        spec = write_spec(
            os.path.join(self.tmp, f"cold-{index}.json"),
            {"units": units_to_json(order), "cache_dir": cache_dir},
        )
        doc = child_json([sys.executable, os.path.join(BENCH_DIR, "coldsweep.py"), spec])
        by_label = {unit.label: unit for unit in order}
        for item in doc["items"]:
            self.tally(by_label[item["label"]], item["status"], item["validated"],
                       "cold sweep")
        self.peak_rss_mb = max(self.peak_rss_mb, doc["peak_rss_mb"])
        self.cache_dir = cache_dir
        return doc

    def warm_targets(self, index: int) -> List[str]:
        if self.workload == "suite":
            targets = sorted({unit.spec for unit in self.units})
        else:
            targets = [unit.spec for unit in self.units]
        return shuffled(targets, f"{self.seed}:warm:{index}")

    def warm_sweep(self, index: int) -> float:
        """One fresh ``repro-verify --batch`` process; spawn → exit seconds."""
        command = [
            sys.executable, "-m", "repro.tools.verify_cli",
            *self.warm_targets(index),
            "--batch", "--cache-dir", self.cache_dir,
            "--timeout", f"{UNIT_TIMEOUT_S:g}", "--quiet",
        ]
        seconds, code, text, rss = spawn_exit_rss(command)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        if code != 0:
            sys.stderr.write(text[-4000:])
            raise BenchmarkFailure(f"warm sweep exited with {code}")
        rows = {}
        for line in text.splitlines():
            fields = line.split()
            if len(fields) >= 3 and ":" in fields[0] and fields[2].endswith("s"):
                rows[fields[0]] = (fields[1], line)
        for unit in self.units:
            status, line = rows.get(unit.label, ("missing", ""))
            if status in ("safe", "unsafe") and (
                "NOT VALIDATED" in line or " cache" not in line
            ):
                raise BenchmarkFailure(f"warm sweep did not serve a validated hit: {line}")
            self.tally(unit, status, True, "warm sweep")
        return seconds

    # ------------------------------------------------------------------
    def serve(self, phases=()) -> list:
        """Boot ``repro-serve`` on the last cold sweep's cache, run the
        serving ``phases`` (none: boot only), drain it and check replies.

        The boot, spawn to first ``pong``, is a ``setup_s`` sample.  It runs
        alone: the sweep before it has exited and no other server is up.
        """
        from serveload import ServerProcess, open_loop

        server = ServerProcess(
            os.path.join(self.fresh_dir("sock"), "s.sock"),
            self.cache_dir,
            os.path.join(self.tmp, f"serve-{len(self.setup_boot_s)}.log"),
        )
        try:
            server.start()
            self.setup_boot_s.append(server.wait_ready())
            results = open_loop(server, phases, SETTLE_S) if phases else []
            self.peak_rss_mb = max(self.peak_rss_mb, server.peak_rss_mb())
            server.drain()
        finally:
            server.kill()
        for phase in results:
            for request in phase.requests:
                if request.rejected is not None:
                    raise BenchmarkFailure(
                        f"serving rejected {request.unit.label}: {request.rejected}"
                    )
                if request.reply is None:
                    raise BenchmarkFailure(f"serving left {request.unit.label} unanswered")
                self.tally(request.unit, request.reply.get("status"),
                           request.reply.get("validated"), "serving")
        return results

    def schedule(self, tag: str, hits: List[Unit], misses: List[Unit], rate: float):
        """One open-loop row: the requests in a seeded order at seeded
        Poisson arrivals, the gaps scaled so the row offers exactly ``rate``."""
        from serveload import Request

        rng = random.Random(f"{self.seed}:serve:{tag}")
        order = shuffled([(u, False) for u in hits] + [(u, True) for u in misses],
                         rng.random())
        gaps = [rng.expovariate(rate) for _ in order]
        scale = len(order) / rate / sum(gaps)
        offset, requests = 0.0, []
        for i, ((unit, miss), gap) in enumerate(zip(order, gaps)):
            offset += gap * scale
            requests.append(Request(f"{tag}-{i}", unit, miss, offset))
        return rate, requests


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def latencies(phase) -> List[float]:
    """Scheduled send to ``result`` frame, in seconds, of every request."""
    return [r.answered - r.due for r in phase.requests]


def phase_passes(phase) -> bool:
    hits_ms = [1000.0 * s for s in latencies(phase)]
    # with fewer than 20 hits the tail percentile lies below the median
    limit_value = max(tail(hits_ms)[1], median(hits_ms))
    return limit_value <= HIT_TAIL_LIMIT_MS and phase.backlog_at_end <= BACKLOG_LIMIT


def phase_throughput(phase) -> float:
    """Results received by the phase's last scheduled send ÷ its duration."""
    last = max(r.due for r in phase.requests)
    served = sum(1 for r in phase.requests if r.answered <= last)
    return served / (last - phase.started)


def describe_phases(results, lines: List[str]) -> None:
    for phase in results:
        values = latencies(phase)
        miss = phase.requests[0].miss
        row = (
            f"# {'miss' if miss else 'hit'} rate {phase.rate:g}/s: "
            f"{len(values)} requests, p50 {1000 * median(values):.2f} ms, "
        )
        # below 20 samples the tail percentile lies under the median
        if len(values) >= 20:
            pct, tail_s = tail(values)
            row += f"p{pct:.1f} {1000 * tail_s:.2f} ms, "
        row += (
            f"backlog max {phase.backlog_max} (end {phase.backlog_at_end}), "
            f"gen lag max {1000 * max(phase.lag_s):.2f} ms"
        )
        if not miss:
            row += f", {'passes' if phase_passes(phase) else 'fails'} the limit"
        lines.append(row)


def group_p50_s(phase) -> float:
    """Each group's median latency in ``phase``, averaged over the groups.

    A hit's group is its unit; a miss's group is its generated design class
    (misses are all distinct designs, so a class is the smallest group that
    repeats).  A plain median over all requests falls between cost groups:
    on the suite seven units re-validate in under 10 ms while mac16 and
    buffalloc take 35 to 45 ms.  The mean over groups weighs every group's
    cost once, so it does not depend on a guessed mix of groups.
    """
    by_group: Dict[str, List[float]] = {}
    for request in phase.requests:
        key = request.unit.group if request.miss else request.unit.label
        by_group.setdefault(key, []).append(request.answered - request.due)
    return statistics.fmean(median(v) for v in by_group.values())


END_TO_END_UNITS = {
    "setup_s": "s",
    "cold_sweep_wall_s": "s",
    "cold_sweep_cpu_s": "s",
    "decided_share": "ratio",
    "peak_rss_mb": "MB",
}


def run_end_to_end(run: Run) -> Dict[str, tuple]:
    """Blocks of one cold sweep and two server boots fill the run, so the
    sweeps and the boots both sample its whole span: machine speed drifts
    over seconds.  One warm pass and one serving round end it; they check
    verdicts and peak RSS."""
    run.generate_inputs(miss_cycles=1)
    cold: List[dict] = []
    start = time.perf_counter()
    block_s = 0.0
    # no block starts that would end past the blocks' share of the run
    while len(cold) < MIN_BLOCKS or (
        time.perf_counter() - start + block_s < BLOCK_SHARE * run.seconds
    ):
        block = time.perf_counter()
        cold.append(run.cold_sweep(len(cold)))
        for _ in range(BOOTS_PER_BLOCK):
            run.serve()
        block_s = time.perf_counter() - block
    warm_s = run.warm_sweep(0)
    run.serve([run.schedule("round", run.units, run.misses, ROUND_RATE)])

    run.lines.append(
        "# ladder " + json.dumps(cold[-1]["ladder"]) + f" workers {cold[-1]['workers']}"
    )
    run.lines.append("# cold wall " + " ".join(f"{d['wall_s']:.3f}" for d in cold))
    run.lines.append("# boot " + " ".join(f"{s:.3f}" for s in run.setup_boot_s))
    run.lines.append(f"# warm wall {warm_s:.3f}")
    run.lines.append(
        f"# samples: {len(cold)} cold sweeps, {len(run.setup_boot_s)} server boots, "
        f"{len(run.setup_gen_s)} input generations, {len(run.pairs)} "
        f"(phase, unit) pairs of {run.verdicts} verdicts"
    )
    metrics = {
        "setup_s": median(run.setup_gen_s) + median(run.setup_boot_s),
        "cold_sweep_wall_s": median([doc["wall_s"] for doc in cold]),
        "cold_sweep_cpu_s": median([doc["cpu_s"] for doc in cold]),
        "decided_share": run.decided_share(),
        "peak_rss_mb": run.peak_rss_mb,
    }
    return {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}


def run_traced(run: Run) -> Dict[str, tuple]:
    """The per-layer run: pool sweep, traced and untraced passes, serving."""
    run.generate_inputs(miss_cycles=MISS_CYCLES)
    out: Dict[str, tuple] = {}

    pool = run.cold_sweep(0)
    attempts = [a for item in pool["items"] for a in (item["supervision"] or {}).get("attempts", [])]
    unit_wall = sum(a.get("runtime_s", 0.0) for a in attempts)
    out["batch.pool_wall_s"] = (pool["wall_s"], "s")
    out["batch.parallel_efficiency"] = (
        unit_wall / (pool["workers"] * pool["wall_s"]), "ratio")
    out["supervisor.attempts"] = (float(len(attempts)), "count")
    out["supervisor.retries"] = (float(pool["retries"]), "count")

    twins = {}
    for traced in (False, True):
        order = shuffled(run.units, f"{run.seed}:traced")
        spec = write_spec(
            os.path.join(run.tmp, f"traced-{int(traced)}.json"),
            {"units": units_to_json(order), "cache_dir": run.fresh_dir("tcache"),
             "traced": traced},
        )
        twins[traced] = child_json(
            [sys.executable, os.path.join(BENCH_DIR, "traced.py"), spec]
        )
    by_label = {unit.label: unit for unit in run.units}
    for traced, doc in twins.items():
        for item in doc["items"]:
            run.tally(by_label[item["label"]], item["status"], item["validated"],
                      "traced pass" if traced else "untraced pass")
    traced_doc = twins[True]
    for name, value in traced_doc["layers"].items():
        unit = "s" if name.endswith(("_s", ".s")) else "ratio" if name.endswith("ratio") else "count"
        out[name] = (value, unit)
    out["obs.trace_overhead_ratio"] = (
        traced_doc["cold_wall_s"] / twins[False]["cold_wall_s"], "ratio")
    run.lines.append("# self-check " + json.dumps(traced_doc["self_check"]))

    imports = [
        run_child([sys.executable, "-c", "import repro.tools.verify_cli"])[0]
        for _ in range(3)
    ]
    out["tools.import_s"] = (median(imports), "s")
    # the warm CLI pass over the cache the pool sweep filled
    out["warm.pass_s"] = (median([run.warm_sweep(i) for i in range(3)]), "s")

    # one untimed round first: a long-lived server has warm memos.  Then
    # hit-only rows and a miss-only row, so that no guessed mix of reads
    # and writes is reported as the serving workload.
    rows = [run.schedule("p", run.units, [], ROUND_RATE)]
    for number, (rate, rounds) in enumerate(HIT_RATES):
        rows.append(run.schedule(f"h{number}", run.units * rounds, [], rate))
    rows.append(run.schedule("m", [], run.misses, MISS_RATE))
    _, *results = run.serve(rows)  # the priming round only feeds the oracle
    hit_rows, miss_row = results[:-1], results[-1]
    describe_phases(results, run.lines)
    reference = hit_rows[0]
    pct, tail_ms = tail([1000.0 * s for s in latencies(reference)])
    run.lines.append(
        f"# hit tail at {reference.rate:g}/s: p{pct:.1f} of "
        f"{len(reference.requests)} hits is {tail_ms:.2f} ms"
    )
    passing = [p for p in hit_rows if phase_passes(p)]
    out["serve.hit_p50_ms"] = (1000.0 * group_p50_s(reference), "ms")
    out["serve.hit_tail_ms"] = (tail_ms, "ms")
    out["serve.miss_p50_s"] = (group_p50_s(miss_row), "s")
    out["serve.max_rate_rps"] = (
        phase_throughput(passing[-1]) if passing else 0.0, "1/s")
    requests = [r for r in reference.requests if r.accepted]
    out["serve.accept_ms"] = (median(
        [1000 * (r.accepted - r.sent) for r in requests]), "ms")
    out["serve.result_ms"] = (median(
        [1000 * (r.answered - r.accepted) for r in requests]), "ms")
    for counter, name in (("computations", "serve.computations"),
                          ("coalesced", "serve.coalesced")):
        out[name] = (float(results[-1].status_after.get(counter, 0)
                           - results[0].status_before.get(counter, 0)), "count")
    rejected = sum(
        p.status_after.get(k, 0) - p.status_before.get(k, 0)
        for p in results for k in ("rejected_overloaded", "rejected_draining")
    )
    out["serve.rejected"] = (float(rejected), "count")
    out["serve.backlog_max"] = (float(max(p.backlog_max for p in results)), "count")
    out["gen.lag_ms"] = (1000 * max(max(p.lag_s) for p in results), "ms")
    for phase in results:
        tag = "miss" if phase is miss_row else f"r{phase.rate:g}"
        out[f"serve.{tag}.backlog_max"] = (float(phase.backlog_max), "count")
        out[f"gen.{tag}.lag_ms"] = (1000 * max(phase.lag_s), "ms")
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def config_record() -> dict:
    """The hidden inputs of the program, recorded with every result."""
    from repro.engines.portfolio import default_budget_ladder, learn_priors
    from serveload import SERVER_FLAGS

    priors = learn_priors()
    ladder = default_budget_ladder(
        (REPRESENTATION,), timeout=UNIT_TIMEOUT_S, priors=priors
    )
    return {
        "ladder": [list(rung.labels) for rung in ladder],
        "priors_sha256": hashlib.sha256(
            json.dumps(priors, sort_keys=True).encode()
        ).hexdigest()[:16],
        "pool_jobs": POOL_JOBS,
        "unit_timeout_s": UNIT_TIMEOUT_S,
        "server_flags": list(SERVER_FLAGS),
        "block_share": BLOCK_SHARE,
        "boots_per_block": BOOTS_PER_BLOCK,
        "round_rate": ROUND_RATE,
        "hit_rates": [list(rate) for rate in HIT_RATES],
        "miss_rate": [MISS_RATE, MISS_CYCLES],
        "hit_tail_limit_ms": HIT_TAIL_LIMIT_MS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "pythonhashseed": child_env()["PYTHONHASHSEED"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its servers and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not os.path.isdir(os.path.join(SRC, "repro", "engines")):
        sys.stderr.write(
            f"error: no program to benchmark: {SRC}/repro is missing; run "
            "from the root of a full checkout\n"
        )
        return 2
    os.chdir(ROOT)  # learn_priors() reads BENCH_*.json from the working dir
    use_src()
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=TMP_ROOT)
    tempfile.tempdir = tmp  # this process and its children stay in the checkout
    run = Run(args.workload, args.seed, args.seconds, tmp)
    try:
        config = config_record()
        config.update(workload=args.workload, seed=args.seed, trace=args.trace)
        print("# config " + json.dumps(config, sort_keys=True), flush=True)
        host_before = host_loop_ms()
        metrics = run_traced(run) if args.trace else run_end_to_end(run)
        run.lines.append(
            f"# host loop {host_before:.2f} ms at start, {host_loop_ms():.2f} ms "
            "at end (a fixed pure-Python loop: higher means a slower host)"
        )
    except BenchmarkFailure as error:
        sys.stderr.write("".join(line + "\n" for line in run.lines))
        sys.stderr.write(f"benchmark failed: {error}\n")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass
    for line in run.lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    emit_json_line(
        {
            "correct": True,
            "attempted": run.verdicts,
            "failed": run.undecided,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
