"""The trust root under environment constraints: witnesses must respect them.

``fifo`` constrains its environment (``get`` only while ``count != 0``).  The
bit-level lowering folds constraints into ``bad`` only at the property frame,
so bit-level BMC finds a 2-cycle "counterexample" on this safe design whose
cycle-0 inputs break the constraint (``count`` underflows).  A violation at
cycle ``c`` counts only if every constraint held at cycles ``0..c``, so the
validator, the cache and the CLI must all refuse that witness.
"""

import pytest

from repro.benchmarks import load_system
from repro.cache import ResultCache
from repro.cache.store import CacheEntry
from repro.certs import validate_result
from repro.engines import BMCEngine, Status


@pytest.fixture(scope="module")
def fifo_bit_witness():
    system = load_system("fifo")
    result = BMCEngine(system, max_bound=5, representation="bit").verify(timeout=60)
    assert result.status == Status.UNSAFE and result.detail["bound"] == 1
    first = result.certificate.input_sequence()[0]
    assert first["get"] == 1  # get while count == 0: the constraint breaks
    return system, result


def test_validator_rejects_constraint_violating_witness(fifo_bit_witness):
    system, result = fifo_bit_witness
    validation = validate_result(system, result)
    assert not validation.ok
    outcomes = {o.name: o.outcome for o in validation.obligations}
    assert outcomes["constraints-hold"] == "failed"
    assert "cycle 0" in validation.reason


def test_cache_refuses_to_store_constraint_violating_witness(fifo_bit_witness, tmp_path):
    system, result = fifo_bit_witness
    cache = ResultCache(str(tmp_path))
    outcome = cache.store(system, result.property_name, "bit", result, design="fifo")
    assert not outcome.stored
    assert "constraint" in outcome.reason
    assert len(cache.store_backend) == 0


def test_fsck_prunes_constraint_violating_witness(fifo_bit_witness, tmp_path):
    """A store written before witnesses were checked against the constraints
    heals on ``fsck``: the entry is re-validated and pruned."""
    system, result = fifo_bit_witness
    cache = ResultCache(str(tmp_path))
    key = cache.key_for(system, result.property_name, "bit")
    cache.store_backend.save(
        CacheEntry(
            key=key,
            status=Status.UNSAFE,
            property_name=result.property_name,
            engine="bmc",
            representation="bit",
            certificate=result.certificate,
            design="fifo",
        )
    )
    report = cache.fsck()
    assert report["checked"] == 1 and report["ok"] == 0
    assert [pruned["key"] for pruned in report["pruned"]] == [key]
    assert "constraint" in report["pruned"][0]["reason"]
    assert key not in cache.store_backend


def test_cli_certify_names_the_engine_wrong(capsys):
    from repro.tools.verify_cli import main

    argv = ["fifo", "--engine", "bmc", "--representation", "bit", "--bound", "5",
            "--certify"]
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert "constraints-hold     failed" in out
    assert "the engine is wrong" in out
    assert "the expectation is wrong" not in out
