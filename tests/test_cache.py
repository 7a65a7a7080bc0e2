"""The certificate-keyed result cache, its store, and the serving paths.

The cache's safety contract is the subject here: a key must change whenever
the query's semantics change (no stale hits), a stored entry is never
trusted (every hit is validated against its stored bytes, once per content
in a process; tampered entries are demoted to misses),
and invariant minimization must hand back certificates that still pass the
independent validator on every suite design.
"""

import json
import os

import pytest

from repro.benchmarks import BENCHMARKS, get_benchmark, load_system
from repro.cache import ResultCache, cache_key, minimize_certificate
from repro.cache import result_cache
from repro.cache.result_cache import VALIDATION_MEMO, ValidationMemo
from repro.cache.store import CacheEntry, CertificateStore
from repro.certs import validate_certificate
from repro.engines import (
    BatchItem,
    BatchRunner,
    LadderRung,
    PortfolioConfig,
    PortfolioRunner,
    Status,
    VerificationTask,
    default_budget_ladder,
    default_portfolio_configs,
    learn_priors,
    make_engine,
)
from repro.engines.batch import run_sequential_ladder
from repro.engines.portfolio import SHALLOW_K
from repro.exprs import TRUE, bv_const


def _verify(design, engine="pdr", **options):
    system = load_system(design)
    result = make_engine(engine, system, **options).verify(timeout=90)
    assert result.status in Status.DEFINITIVE
    assert result.certificate is not None
    return system, result


# ---------------------------------------------------------------------------
# keys: any semantic mutation of the query must miss
# ---------------------------------------------------------------------------


def test_key_is_deterministic_across_loads():
    first = load_system("huffman_dec")
    second = load_system("huffman_dec")
    prop = first.properties[0].name
    assert cache_key(first, prop) == cache_key(second, prop)


def test_key_changes_with_property_and_representation():
    system = load_system("mac16")
    names = [prop.name for prop in system.properties]
    assert len(names) >= 2  # the suite's multi-property design
    assert cache_key(system, names[0]) != cache_key(system, names[1])
    assert cache_key(system, names[0], "word") != cache_key(system, names[0], "bit")


def test_key_changes_when_design_mutates():
    base = load_system("huffman_dec")
    prop = base.properties[0].name
    reference = cache_key(base, prop)

    mutated = load_system("huffman_dec")
    name, expr = next(iter(mutated.next.items()))
    mutated.set_next(name, expr + bv_const(1, expr.width))
    assert cache_key(mutated, prop) != reference

    reinit = load_system("huffman_dec")
    name, expr = next(iter(reinit.init.items()))
    reinit.set_init(name, expr + bv_const(1, expr.width))
    assert cache_key(reinit, prop) != reference

    constrained = load_system("huffman_dec")
    constrained.add_constraint(TRUE)
    assert cache_key(constrained, prop) != reference


# ---------------------------------------------------------------------------
# the cache proper: store, hit after re-validation, stale-miss
# ---------------------------------------------------------------------------


def test_safe_roundtrip_hits_after_revalidation(tmp_path):
    system, result = _verify("huffman_dec")
    cache = ResultCache(str(tmp_path))
    outcome = cache.store(
        system, result.property_name, "word", result, design="huffman_dec"
    )
    assert outcome.stored

    lookup = cache.lookup(system, result.property_name, "word")
    assert lookup.hit
    assert lookup.result.status == Status.SAFE
    assert lookup.validation is not None and lookup.validation.ok
    assert lookup.result.detail["cache"]["design"] == "huffman_dec"
    assert cache.stats()["hits"] == 1 and cache.stats()["entries"] == 1


def test_unsafe_roundtrip_serves_witness(tmp_path):
    system, result = _verify("daio", engine="bmc", max_bound=70)
    cache = ResultCache(str(tmp_path))
    assert cache.store(system, result.property_name, "word", result).stored
    lookup = cache.lookup(system, result.property_name, "word")
    assert lookup.hit
    assert lookup.result.status == Status.UNSAFE
    assert lookup.result.certificate.kind == "witness"


def test_mutated_design_misses_no_stale_hit(tmp_path):
    system, result = _verify("huffman_dec")
    cache = ResultCache(str(tmp_path))
    cache.store(system, result.property_name, "word", result)

    mutated = load_system("huffman_dec")
    name, expr = next(iter(mutated.next.items()))
    mutated.set_next(name, expr + bv_const(1, expr.width))
    lookup = cache.lookup(mutated, result.property_name, "word")
    assert not lookup.hit
    assert lookup.reason == "absent"  # different key: the entry is invisible


def test_indefinitive_and_uncertified_results_are_not_stored(tmp_path):
    from repro.engines.result import VerificationResult

    system = load_system("huffman_dec")
    prop = system.properties[0].name
    cache = ResultCache(str(tmp_path))
    unknown = VerificationResult(Status.UNKNOWN, "bmc", prop)
    assert not cache.store(system, prop, "word", unknown).stored
    bare = VerificationResult(Status.SAFE, "bmc", prop)
    assert not cache.store(system, prop, "word", bare).stored
    assert cache.stats()["entries"] == 0


# ---------------------------------------------------------------------------
# tampered / corrupted entries: demoted to misses, never served
# ---------------------------------------------------------------------------


def _stored_entry_path(cache, system, property_name):
    key = cache.key_for(system, property_name, "word")
    return key, cache.store_backend.path_for(key)


def test_corrupted_entry_reads_as_absent(tmp_path):
    system, result = _verify("huffman_dec")
    cache = ResultCache(str(tmp_path))
    cache.store(system, result.property_name, "word", result)
    _, path = _stored_entry_path(cache, system, result.property_name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{not json")
    lookup = cache.lookup(system, result.property_name, "word")
    assert not lookup.hit and lookup.reason == "absent"


def test_flipped_status_cannot_justify_and_is_demoted(tmp_path):
    system, result = _verify("huffman_dec")
    cache = ResultCache(str(tmp_path))
    cache.store(system, result.property_name, "word", result)
    _, path = _stored_entry_path(cache, system, result.property_name)
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    document["status"] = Status.UNSAFE  # an invariant cannot prove UNSAFE
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    lookup = cache.lookup(system, result.property_name, "word")
    assert not lookup.hit and lookup.demoted
    assert not os.path.exists(path)  # the bad entry was dropped


def test_forged_invariant_fails_revalidation_and_is_demoted(tmp_path):
    """A syntactically fine but wrong certificate is caught by the validator."""
    import dataclasses

    system, result = _verify("huffman_dec")
    cache = ResultCache(str(tmp_path))
    key = cache.key_for(system, result.property_name, "word")
    forged = dataclasses.replace(result.certificate, invariant=TRUE)
    cache.store_backend.save(
        CacheEntry(
            key=key,
            status=Status.SAFE,
            property_name=result.property_name,
            engine="oracle",
            representation="word",
            certificate=forged,
        )
    )
    lookup = cache.lookup(system, result.property_name, "word")
    assert not lookup.hit and lookup.demoted
    assert "re-validation failed" in lookup.reason
    assert cache.stats()["demotions"] == 1
    # the demotion deleted the forgery: the next lookup is a plain miss
    assert cache.lookup(system, result.property_name, "word").reason == "absent"


def _counting_validator(monkeypatch):
    calls = []

    def counting(system, certificate, timeout=None):
        calls.append(certificate)
        return validate_certificate(system, certificate, timeout=timeout)

    monkeypatch.setattr(result_cache, "validate_certificate", counting)
    return calls


def test_hit_on_stored_bytes_reuses_the_store_time_validation(tmp_path, monkeypatch):
    system, result = _verify("huffman_dec")
    cache = ResultCache(str(tmp_path))
    assert cache.store(system, result.property_name, "word", result).stored
    calls = _counting_validator(monkeypatch)
    for _ in range(2):
        lookup = cache.lookup(system, result.property_name, "word")
        assert lookup.hit and lookup.validation.ok
        assert lookup.result.detail["cache"]["validation_memoized"]
    assert calls == []  # validated once, at store time
    assert cache.stats()["memo_hits"] == 2


def test_unmemoized_entry_is_validated_once_per_content(tmp_path, monkeypatch):
    """A fresh process (empty memo) validates on the first hit only."""
    system, result = _verify("huffman_dec")
    cache = ResultCache(str(tmp_path))
    cache.store(system, result.property_name, "word", result)
    VALIDATION_MEMO.clear()
    calls = _counting_validator(monkeypatch)
    first = cache.lookup(system, result.property_name, "word")
    second = cache.lookup(system, result.property_name, "word")
    assert first.hit and second.hit
    assert not first.result.detail["cache"]["validation_memoized"]
    assert second.result.detail["cache"]["validation_memoized"]
    assert len(calls) == 1


def test_rewritten_bytes_force_revalidation_after_a_memoized_store(tmp_path):
    """The memo is keyed by the entry bytes: a forgery written over a
    validated entry is validated afresh, fails, and is demoted."""
    import dataclasses

    system, result = _verify("huffman_dec")
    cache = ResultCache(str(tmp_path))
    cache.store(system, result.property_name, "word", result)
    assert cache.lookup(system, result.property_name, "word").hit
    key, _ = _stored_entry_path(cache, system, result.property_name)
    entry = cache.store_backend.load(key)
    forged = dataclasses.replace(entry.certificate, invariant=TRUE)
    cache.store_backend.save(dataclasses.replace(entry, certificate=forged))
    lookup = cache.lookup(system, result.property_name, "word")
    assert not lookup.hit and lookup.demoted
    assert "re-validation failed" in lookup.reason


def test_validation_memo_keeps_only_passed_validations_and_is_bounded():
    from repro.certs import ValidationResult

    memo = ValidationMemo(capacity=2)
    memo.put("k", "d0", ValidationResult(False, "witness", "p"))
    assert memo.get("k", "d0") is None
    memo.put("k", "", ValidationResult(True, "witness", "p"))
    assert memo.get("k", "") is None  # an entry without a digest
    for digest in ("d1", "d2", "d3"):
        memo.put("k", digest, ValidationResult(True, "witness", "p"))
    assert memo.get("k", "d1") is None  # least recently used, evicted
    assert memo.get("k", "d2") is not None and memo.get("k", "d3") is not None


def test_entry_under_wrong_key_does_not_impersonate(tmp_path):
    system, result = _verify("huffman_dec")
    cache = ResultCache(str(tmp_path))
    cache.store(system, result.property_name, "word", result)
    key, path = _stored_entry_path(cache, system, result.property_name)
    other = cache.key_for(system, result.property_name, "bit")
    other_path = cache.store_backend.path_for(other)
    os.makedirs(os.path.dirname(other_path), exist_ok=True)
    with open(path, "r", encoding="utf-8") as src, open(
        other_path, "w", encoding="utf-8"
    ) as dst:
        dst.write(src.read())
    assert cache.store_backend.load(other) is None  # key/file mismatch
    assert not cache.lookup(system, result.property_name, "bit").hit


# ---------------------------------------------------------------------------
# minimization: smaller, still validated by the independent checker
# ---------------------------------------------------------------------------


SAFE_DESIGNS = [
    name
    for name, benchmark in sorted(BENCHMARKS.items())
    if benchmark.expected == Status.SAFE
]


@pytest.mark.parametrize("design", SAFE_DESIGNS)
def test_minimized_invariants_validate_on_every_safe_suite_design(design):
    system = load_system(design)
    ladder = default_budget_ladder(bound=40, timeout=60)
    result = run_sequential_ladder(system, None, ladder, timeout=60)
    assert result.status == Status.SAFE, (design, result.status)
    minimization = minimize_certificate(system, result.certificate, timeout=60)
    assert minimization.size <= minimization.original_size
    validation = validate_certificate(system, minimization.certificate)
    assert validation.ok, (design, validation.reason)


def test_minimization_shrinks_a_padded_invariant():
    """Redundant conjuncts injected into a real invariant are dropped."""
    import dataclasses

    from repro.exprs import bool_and

    system, result = _verify("huffman_dec")
    certificate = result.certificate
    state = next(iter(system.state_vars))
    width = system.state_vars[state]
    # pad with tautological-but-droppable conjuncts over a real state var
    from repro.exprs import bv_ule, bv_var

    pad = bv_ule(bv_var(state, width), bv_const((1 << width) - 1, width))
    padded = dataclasses.replace(
        certificate, invariant=bool_and(certificate.invariant, pad, pad)
    )
    assert validate_certificate(system, padded).ok
    minimization = minimize_certificate(system, padded)
    assert minimization.dropped >= 1
    assert validate_certificate(system, minimization.certificate).ok


# ---------------------------------------------------------------------------
# certification next to the verdict: the worker certifies, the parent commits
# ---------------------------------------------------------------------------


def _worker_unit(design, cache, certify=False):
    """Run one unit through the batch worker in-process, certifying for ``cache``."""
    from repro.engines.batch import _batch_worker

    task = VerificationTask.benchmark(design)
    system = task.load()
    prop = system.properties[0].name
    ladder = tuple(default_budget_ladder(bound=40, timeout=60, priors={}))
    _, result, certification = _batch_worker(
        (0, task, prop, ladder, 60.0, certify, ("word", cache.validation_timeout))
    )
    return system, prop, result, certification


def test_parent_commits_the_exact_bytes_the_worker_validated(tmp_path, monkeypatch):
    cache = ResultCache(str(tmp_path))
    system, prop, result, certification = _worker_unit("rcu", cache)
    assert result.status == Status.SAFE and certification.ok
    assert certification.minimization.dropped  # rcu's auxiliaries go
    key = cache.key_for(system, prop)

    # the cheap provenance re-check refuses a certification for another query
    query = {"key": key, "property_name": prop, "status": result.status}
    for wrong in ({"key": "0" * 64}, {"property_name": "other"}, {"status": Status.UNSAFE}):
        outcome = cache.commit(certification, **{**query, **wrong})
        assert not outcome.stored
        assert outcome.reason == "certification provenance mismatch"
    assert len(cache.store_backend) == 0

    outcome = cache.commit(certification, **query)
    assert outcome.stored and outcome.key == key
    with open(outcome.path, "rb") as handle:
        assert handle.read() == certification.raw
    # the digest of those bytes is memoized: a hit here validates nothing
    calls = _counting_validator(monkeypatch)
    lookup = cache.lookup(system, prop, "word")
    assert lookup.hit and lookup.result.detail["cache"]["validation_memoized"]
    assert lookup.entry.minimized and calls == []


def test_forged_certificate_is_refused_before_anything_is_written(tmp_path):
    from repro.cache.result_cache import certify_result

    system = load_system("daio")
    forged = make_engine("oracle", system, claim=Status.SAFE).verify(timeout=10)
    assert forged.status == Status.SAFE and forged.certificate is not None
    certification = certify_result(system, forged.property_name, "word", forged)
    assert not certification.ok and certification.raw is None
    assert certification.reason.startswith("certificate failed validation")
    cache = ResultCache(str(tmp_path))
    outcome = cache.commit(
        certification,
        key=certification.key,
        property_name=forged.property_name,
        status=forged.status,
    )
    assert not outcome.stored and outcome.reason == certification.reason
    assert len(cache.store_backend) == 0


@pytest.mark.parametrize("design", ["rcu", "buffalloc", "daio"])
@pytest.mark.parametrize("certify", [False, True])
def test_one_validation_per_stored_certificate(tmp_path, monkeypatch, design, certify):
    """The store validates the certificate once, or not at all when the
    ``certify`` ladder already validated it next to the engine; a minimized
    certificate costs one more validation besides the minimizer's checks."""
    from repro.certs.validate import CertificateValidator

    calls = []
    validate = CertificateValidator.validate

    def counting(self, certificate):
        calls.append(certificate)
        return validate(self, certificate)

    monkeypatch.setattr(CertificateValidator, "validate", counting)
    cache = ResultCache(str(tmp_path))
    _, _, result, certification = _worker_unit(design, cache, certify=certify)
    assert certification.ok
    assert result.detail.get("certified") is (True if certify else None)
    minimization = certification.minimization
    checks = minimization.checks if minimization else 0
    minimized = 1 if minimization and minimization.dropped else 0
    assert len(calls) == 1 + checks + minimized


def test_batch_workers_certify_and_the_parent_only_commits(tmp_path, monkeypatch):
    def parent_store(*args, **kwargs):
        raise AssertionError("the parent certified a pool result itself")

    monkeypatch.setattr(ResultCache, "store", parent_store)
    cache = ResultCache(str(tmp_path))
    items = [BatchItem.benchmark("daio"), BatchItem.benchmark("rcu")]
    report = BatchRunner(cache=cache, timeout=90, bound=80, jobs=2).run(items)
    assert report.all_definitive and report.all_correct
    for item in report.items:
        assert item.stored and item.validated
        # the worker's certification is part of the unit's wall time
        assert 0 < item.certify_s <= item.wall_s
        assert item.to_json()["certify_s"] == round(item.certify_s, 6)
    rcu = next(item for item in report.items if item.design == "rcu")
    assert rcu.minimization["minimized"]
    assert rcu.minimization["validate_original_s"] > 0
    assert rcu.minimization["validate_minimized_s"] > 0
    # the parent memoized the committed bytes: warm hits validate nothing
    calls = _counting_validator(monkeypatch)
    warm = BatchRunner(cache=cache, timeout=90, bound=80, jobs=2).run(items)
    assert warm.cache_hits == 2 and calls == []
    assert all(item.certify_s is None for item in warm.items)


# ---------------------------------------------------------------------------
# the batch runner: cold fills, warm is all re-validated hits
# ---------------------------------------------------------------------------


def test_batch_cold_then_warm_all_hits(tmp_path):
    items = [
        BatchItem.benchmark("daio"),
        BatchItem.benchmark("huffman_dec"),
        BatchItem.benchmark("mac16"),  # multi-property: sharded per property
    ]
    cache = ResultCache(str(tmp_path))
    cold = BatchRunner(cache=cache, timeout=90, bound=80, jobs=2).run(items)
    assert len(cold.items) == 4  # mac16 contributes two (design, property) units
    assert cold.cache_hits == 0 and cold.cache_misses == 4
    assert cold.all_definitive and cold.all_correct
    assert all(item.stored for item in cold.items)

    warm_cache = ResultCache(str(tmp_path))
    warm = BatchRunner(cache=warm_cache, timeout=90, bound=80, jobs=2).run(items)
    assert warm.cache_hits == 4 and warm.cache_misses == 0
    assert all(item.source == "cache" and item.validated for item in warm.items)
    assert warm.verdicts() == cold.verdicts()


def test_batch_without_cache_still_sweeps():
    report = BatchRunner(timeout=90, bound=80, jobs=2).run(
        [BatchItem.benchmark("daio"), BatchItem.benchmark("huffman_dec")]
    )
    assert report.all_definitive and report.all_correct
    assert report.cache_hits == 0 and report.cache_misses == 0


# ---------------------------------------------------------------------------
# the budget ladder: cheap rungs first, priors order within a rung
# ---------------------------------------------------------------------------


def test_default_ladder_orders_cost_tiers():
    ladder = default_budget_ladder(bound=40, timeout=60)
    assert [rung.tier for rung in ladder] == ["cheap", "medium", "heavy"]
    # the cheap rung: SAT-free prover, shallow kIkI, random simulation, and
    # only then BMC to the bound cap
    assert ladder[0].labels == (
        "absint[word]", "kiki[word]@8", "rsim[word]", "bmc[word]",
    )
    shallow = ladder[0].configs[1]
    assert shallow.depth_cap == SHALLOW_K
    assert shallow.options_dict["max_k"] == SHALLOW_K
    assert ladder[0].configs[-1].options_dict["max_bound"] == 40
    # the later rungs are unchanged, the full-depth kIkI among them
    assert set(ladder[1].labels) == {"k-induction[word]", "kiki[word]"}
    assert all(
        config.options_dict["max_k"] == 40
        for config in ladder[1].configs
    )
    assert set(ladder[2].labels) == {"interpolation[word]", "pdr[word]"}
    # non-final rungs are budgeted, the last rung takes what remains
    assert all(rung.budget is not None for rung in ladder[:-1])
    assert ladder[-1].budget is None
    # the shallow cap is clipped to a smaller bound, and the capped run then
    # replaces the full one: no rung repeats the same kIkI computation
    for bound in (5, SHALLOW_K):
        clipped = default_budget_ladder(bound=bound, timeout=60)
        assert clipped[0].labels == (
            "absint[word]", f"kiki[word]@{bound}", "rsim[word]", "bmc[word]",
        )
        assert clipped[0].configs[1].options_dict["max_k"] == bound
        assert clipped[1].labels == ("k-induction[word]",)
    deeper = default_budget_ladder(bound=SHALLOW_K + 1, timeout=60)
    assert "kiki[word]" in deeper[1].labels


def test_priors_cannot_move_bmc_ahead_of_the_shallow_prover(tmp_path):
    report = {
        "rows": [
            {"engine": "bmc", "runtime_s": 0.001, "status": "unsafe"},
            {"engine": "kiki", "runtime_s": 9.0, "status": "unknown"},
            {"engine": "rsim", "runtime_s": 9.0, "status": "unknown"},
            {"engine": "absint", "runtime_s": 9.0, "status": "unknown"},
        ]
    }
    path = tmp_path / "BENCH_fake.json"
    path.write_text(json.dumps(report))
    priors = learn_priors([str(path)])
    assert priors["bmc"]["score"] < priors["kiki"]["score"]
    for representations in (("word",), ("word", "bit")):
        ladder = default_budget_ladder(
            representations, bound=40, timeout=60, priors=priors
        )
        labels = ladder[0].labels
        first_bmc = min(
            index for index, label in enumerate(labels) if label.startswith("bmc")
        )
        assert all(label.startswith("bmc") for label in labels[first_bmc:])
        assert labels.index("kiki[word]@8") < first_bmc
        assert labels.index("rsim[word]") < first_bmc
        assert labels.index("absint[word]") < first_bmc


def test_sequential_ladder_decides_every_suite_unit_in_the_cheap_rung():
    ladder = default_budget_ladder(timeout=60)
    for name in BENCHMARKS:
        system = load_system(name)
        for prop in system.properties:
            result = run_sequential_ladder(system, prop.name, ladder, timeout=60)
            assert result.status == get_benchmark(name).expected, (name, prop.name)
            assert result.detail["ladder_rung"] == 0, (name, prop.name)
            configs = [a["config"] for a in result.detail["ladder_attempts"]]
            assert not any(c.startswith("bmc") for c in configs), (name, configs)


@pytest.mark.parametrize("design,cycle", [("daio", 64), ("tlc", 65)])
def test_deep_bugs_reach_rung0_bmc_without_random_simulation(design, cycle):
    ladder = default_budget_ladder(bound=80, timeout=120)
    no_rsim = [
        LadderRung(
            tuple(c for c in rung.configs if c.engine != "rsim"),
            rung.budget,
            rung.tier,
        )
        for rung in ladder
    ]
    result = run_sequential_ladder(load_system(design), None, no_rsim, timeout=120)
    assert result.status == Status.UNSAFE
    assert result.engine == "bmc"
    assert result.detail["ladder_rung"] == 0
    assert result.detail["bound"] == cycle
    attempts = {a["config"]: a["status"] for a in result.detail["ladder_attempts"]}
    assert attempts == {
        "absint[word]": Status.UNKNOWN,
        "kiki[word]@8": Status.UNKNOWN,
        "bmc[word]": Status.UNSAFE,
    }


def test_shallow_and_full_kiki_are_distinguishable():
    """A depth-capped attempt and a full run of one engine keep two labels."""
    shallow = PortfolioConfig("kiki", (("representation", "word"),), depth_cap=8)
    full = PortfolioConfig.of("kiki", representation="word", max_k=80)
    assert (shallow.label, full.label) == ("kiki[word]@8", "kiki[word]")
    ladder = [
        LadderRung((shallow,), None, "cheap"),
        LadderRung((full,), None, "medium"),
    ]
    result = run_sequential_ladder(load_system("daio"), None, ladder, timeout=120)
    assert result.status == Status.UNSAFE
    assert [
        (a["config"], a["rung"], a["status"])
        for a in result.detail["ladder_attempts"]
    ] == [
        ("kiki[word]@8", 0, Status.UNKNOWN),
        ("kiki[word]", 1, Status.UNSAFE),
    ]
    raced = PortfolioRunner(ladder=ladder, timeout=120).run(
        VerificationTask.benchmark("daio")
    )
    assert raced.status == Status.UNSAFE
    assert raced.winner == "kiki[word]"
    assert raced.worker("kiki[word]@8").status == Status.UNKNOWN
    assert raced.worker("kiki[word]").status == Status.UNSAFE
    assert raced.worker("kiki[word]@8").rung == 0


def test_priors_reorder_a_rung(tmp_path):
    report = {
        "rows": [
            {"section": "single", "engine": "pdr", "runtime_s": 0.1, "status": "safe"},
            {
                "section": "single",
                "engine": "interpolation",
                "runtime_s": 9.0,
                "status": "safe",
            },
        ]
    }
    path = tmp_path / "BENCH_fake.json"
    path.write_text(json.dumps(report))
    priors = learn_priors([str(path)])
    assert priors["pdr"]["score"] < priors["interpolation"]["score"]
    ladder = default_budget_ladder(bound=40, timeout=60, priors=priors)
    heavy = [config.engine for config in ladder[-1].configs]
    assert heavy.index("pdr") < heavy.index("interpolation")


def test_ladder_runner_decides_daio_in_cheap_rung():
    runner = PortfolioRunner(
        ladder=default_budget_ladder(bound=80, timeout=120),
        timeout=120,
        expected=Status.UNSAFE,
    )
    result = runner.run(VerificationTask.benchmark("daio"))
    assert result.status == Status.UNSAFE
    detail = result.detail["ladder"]
    assert detail["decided_rung"] == 0
    # the cheap rung never launched the provers: total CPU stays below what
    # the all-at-once fan-out burns on its cancelled k-induction/pdr workers
    fanout = PortfolioRunner(
        configs=default_portfolio_configs(bound=80),
        timeout=120,
        expected=Status.UNSAFE,
    ).run(VerificationTask.benchmark("daio"))
    assert fanout.status == Status.UNSAFE
    assert result.detail["cpu_s"] <= fanout.detail["cpu_s"]


def test_sequential_ladder_reports_attempts():
    system = load_system("daio")
    result = run_sequential_ladder(
        system, None, default_budget_ladder(bound=80, timeout=90), timeout=90
    )
    assert result.status == Status.UNSAFE
    assert result.detail["ladder_rung"] == 0
    assert result.detail["ladder_attempts"][0]["rung"] == 0


# ---------------------------------------------------------------------------
# the CLI serving path: --cache-dir fills on miss, hits on repeat
# ---------------------------------------------------------------------------


def test_verify_cli_single_query_cache(tmp_path, capsys):
    from repro.tools.verify_cli import main

    cache_dir = str(tmp_path / "cache")
    argv = ["daio", "--engine", "bmc", "--bound", "70", "--cache-dir", cache_dir]
    assert main(argv) == 0
    first = capsys.readouterr()
    # progress narration goes to stderr; the result lines own stdout
    assert "cache miss" in first.err and "cached under key" in first.out
    assert main(argv) == 0
    second = capsys.readouterr().err
    assert "cache hit" in second and "re-validated" in second


def test_verify_cli_portfolio_representations_cache_roundtrip(tmp_path, capsys):
    """Lookup and store must key the same representation (--representations)."""
    from repro.tools.verify_cli import main

    cache_dir = str(tmp_path / "cache")
    argv = [
        "daio", "--portfolio", "--representations", "word",
        "--bound", "80", "--cache-dir", cache_dir,
    ]
    assert main(argv) == 0
    assert "cached under key" in capsys.readouterr().out
    assert main(argv) == 0
    assert "cache hit" in capsys.readouterr().err


def test_verify_cli_batch_respects_property_scope(tmp_path, capsys):
    from repro.tools.verify_cli import main

    argv = [
        "mac16", "--batch", "--quiet", "--property", "cnt_in_range",
        "--timeout", "90", "--bound", "80",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "cnt_in_range" in out and "cnt_le_9" not in out
    assert "1 items" in out


def test_verify_cli_batch_time_column_is_the_unit_wall_time(capsys):
    """The table's time is the unit's wall time; the engine's is in the note."""
    from repro.tools.verify_cli import main

    # the unit's wall time also covers the interval probe that precedes the
    # deciding shallow kIkI, so it exceeds the deciding engine's own time
    assert main(["buffalloc", "--batch", "--quiet", "--timeout", "90", "--bound", "40"]) == 0
    row = next(
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("buffalloc:")
    )
    _, status, wall, engine, engine_time, *rest = row.split()
    assert status == Status.SAFE and rest[:1] == ["rung"]
    assert float(wall.rstrip("s")) > float(engine_time.rstrip("s"))

    report = BatchRunner(timeout=90, bound=40, jobs=1).run([BatchItem.benchmark("buffalloc")])
    item = report.items[0]
    assert item.to_json()["wall_s"] == round(item.wall_s, 6)
    attempts = item.supervision["attempts"]
    assert item.wall_s == pytest.approx(sum(a["runtime_s"] for a in attempts))
    assert item.wall_s > item.runtime_s


def test_verify_cli_rejects_cross_check_with_ladder_or_batch(capsys):
    from repro.tools.verify_cli import main

    for mode in ("--ladder", "--batch"):
        with pytest.raises(SystemExit) as excinfo:
            main(["daio", mode, "--cross-check"])
        assert excinfo.value.code == 2
        assert "--cross-check" in capsys.readouterr().err


def test_file_task_memo_invalidates_on_edit(tmp_path):
    """A long-lived process must not serve a stale parse of an edited file."""
    from repro.aig import aig_from_transition_system, write_aiger

    path = tmp_path / "design.aag"
    path.write_text(write_aiger(aig_from_transition_system(load_system("daio"))))
    task = VerificationTask.aiger(str(path))
    first = task.load()
    assert task.load() is first  # memoized while the file is unchanged

    path.write_text(
        write_aiger(aig_from_transition_system(load_system("huffman_dec")))
    )
    os.utime(path, ns=(0, 0))  # force a stamp change even on coarse clocks
    second = task.load()
    assert second is not first
    assert len(second.state_vars) != len(first.state_vars)


def test_sequential_ladder_attributes_runtime_to_deciding_engine():
    """Probe attempts before the decider must not inflate its runtime."""
    cases = [
        # buffalloc: the interval probe fails, the shallow kIkI proves it
        ("buffalloc", Status.SAFE, ["absint[word]"], "kiki[word]@8"),
        # daio: the probe and the shallow kIkI fail, random simulation refutes
        ("daio", Status.UNSAFE, ["absint[word]", "kiki[word]@8"], "rsim[word]"),
    ]
    for design, status, probes, decider in cases:
        result = run_sequential_ladder(
            load_system(design), None, default_budget_ladder(bound=40, timeout=60),
            timeout=60,
        )
        assert result.status == status
        assert result.detail["ladder_rung"] == 0
        attempts = result.detail["ladder_attempts"]
        assert [a["config"] for a in attempts] == probes + [decider]
        assert all(a["status"] == Status.UNKNOWN for a in attempts[:-1])
        probe_s = sum(attempt["runtime_s"] for attempt in attempts[:-1])
        assert result.runtime <= attempts[-1]["runtime_s"]
        assert result.detail["ladder_wall_s"] >= result.runtime + probe_s * 0.5
        assert result.runtime < result.detail["ladder_wall_s"]


def test_batch_survives_unloadable_target(tmp_path):
    """One bad file yields one ERROR item, not an aborted sweep."""
    bad = BatchItem(VerificationTask.aiger(str(tmp_path / "missing.aag")))
    report = BatchRunner(timeout=90, bound=80, jobs=2).run(
        [bad, BatchItem.benchmark("daio")]
    )
    by_design = {item.design: item for item in report.items}
    assert by_design["missing.aag"].status == Status.ERROR
    assert by_design["daio"].status == Status.UNSAFE


def test_learn_priors_canonicalizes_engine_aliases(tmp_path):
    """Batch sweeps record class names; priors must land on registry names."""
    report = {
        "rows": [
            {
                "section": "sweep_item",
                "source": "abstract-interpretation",
                "engine": "abstract-interpretation",
                "runtime_s": 0.01,
                "status": "safe",
            }
        ]
    }
    path = tmp_path / "BENCH_fake.json"
    path.write_text(json.dumps(report))
    priors = learn_priors([str(path)])
    assert "absint" in priors and "abstract-interpretation" not in priors


def test_verify_cli_rejects_certify_with_batch(capsys):
    from repro.tools.verify_cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["daio", "--batch", "--certify"])
    assert excinfo.value.code == 2
    assert "--certify" in capsys.readouterr().err


def test_verify_cli_cache_hit_still_certifies(tmp_path, capsys):
    from repro.tools.verify_cli import main

    cache_dir = str(tmp_path / "cache")
    argv = [
        "daio", "--engine", "bmc", "--bound", "70",
        "--cache-dir", cache_dir, "--certify",
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "cache hit" in captured.err
    assert "certification:" in captured.out and "VALIDATED" in captured.out


def test_verify_cli_batch_twice_all_hits(tmp_path, capsys):
    from repro.tools.verify_cli import main

    cache_dir = str(tmp_path / "cache")
    argv = [
        "daio", "huffman_dec", "--batch", "--quiet",
        "--cache-dir", cache_dir, "--timeout", "90", "--bound", "80",
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "2 cache hit(s), 0 miss(es)" in out
