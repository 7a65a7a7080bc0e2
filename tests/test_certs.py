"""Certificates: serialization, independent validation, adjudication, exit codes."""

import json

import pytest

from repro.benchmarks import get_benchmark
from repro.certs import (
    CertificateError,
    InductiveCertificate,
    KInductiveCertificate,
    Witness,
    certificate_from_json,
    dumps,
    expr_from_json,
    expr_to_json,
    loads,
    validate_certificate,
    validate_result,
    witness_from_counterexample,
)
from repro.certs.exprjson import ExprJsonError
from repro.engines import Status, make_engine
from repro.exprs import TRUE, bool_and, bv_const, bv_ule, bv_var


def _verify(engine_name, design, **options):
    benchmark = get_benchmark(design)
    system = benchmark.load()
    result = make_engine(engine_name, system, **options).verify(timeout=90)
    return system, result


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_expr_json_round_trip():
    expr = bool_and(
        bv_ule(bv_var("x", 8), bv_const(200, 8)),
        bv_var("flag", 1),
        bv_var("y", 4).bit(2),
    )
    assert expr_from_json(expr_to_json(expr)) == expr


def test_expr_json_rejects_malformed():
    with pytest.raises(ExprJsonError):
        expr_from_json(["o", "no-such-op", 1, [], [["c", 0, 1]]])
    with pytest.raises(ExprJsonError):
        expr_from_json(["c", "not-an-int", 4])
    with pytest.raises(ExprJsonError):
        expr_from_json([])


def test_certificate_json_round_trips():
    witness = Witness("p", "bmc", ({"a": 1, "b": 0}, {"a": 0, "b": 3}))
    inductive = InductiveCertificate("p", "pdr", bv_ule(bv_var("x", 4), bv_const(9, 4)))
    k_inductive = KInductiveCertificate(
        "p", "kiki", k=3, simple_path=True, invariants=(bv_var("ok", 1),)
    )
    for certificate in (witness, inductive, k_inductive):
        assert loads(dumps(certificate)) == certificate


def test_certificate_json_rejects_malformed():
    with pytest.raises(CertificateError):
        certificate_from_json({"format": "other", "kind": "witness"})
    with pytest.raises(CertificateError):
        certificate_from_json(
            {"format": "repro-cert-v1", "kind": "nonsense", "property": "p", "engine": "e"}
        )
    with pytest.raises(CertificateError):
        certificate_from_json(
            {"format": "repro-cert-v1", "kind": "k-inductive", "property": "p",
             "engine": "e", "k": 0}
        )


def test_witness_aiger_stimulus_export():
    from repro.aig import aig_from_transition_system

    system, result = _verify("bmc", "daio", max_bound=70)
    stimulus = result.certificate.to_aiger_stimulus(aig_from_transition_system(system))
    lines = stimulus.strip().split("\n")
    input_bits = sum(system.inputs.values())
    assert len(lines) == result.counterexample.length
    assert all(len(line) == input_bits and set(line) <= {"0", "1"} for line in lines)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


def test_counterexample_fully_valuates_inputs():
    system, result = _verify("bmc", "daio", max_bound=70)
    for step in result.counterexample.steps:
        for name in system.inputs:
            assert name in step
    sequence = result.counterexample.input_sequence(dict(system.inputs))
    assert all(set(cycle) == set(system.inputs) for cycle in sequence)


def test_witness_validates_by_concrete_replay():
    system, result = _verify("bmc", "daio", max_bound=70)
    validation = validate_result(system, result)
    assert validation.ok
    assert validation.kind == "witness"
    assert "cycle 64" in validation.reason


def test_tampered_witness_fails_replay():
    system, result = _verify("bmc", "daio", max_bound=70)
    witness = result.certificate
    truncated = Witness(witness.property_name, witness.engine, witness.inputs[:10])
    validation = validate_certificate(system, truncated)
    assert not validation.ok
    assert "never violates" in validation.reason


def test_witness_validates_claimed_property_on_multi_property_design():
    """Another property failing earlier must not mask the claimed violation."""
    from repro.exprs import bv_ne
    from repro.netlist import TransitionSystem

    system = TransitionSystem("two_props")
    system.add_input("inc", 1)
    counter = system.add_state_var("counter", 4, init=0)
    system.set_next("counter", counter + bv_const(1, 4))
    system.add_property("fails_at_2", bv_ne(counter, bv_const(2, 4)))
    system.add_property("fails_at_5", bv_ne(counter, bv_const(5, 4)))
    system.validate()

    result = make_engine("bmc", system, max_bound=10).verify("fails_at_5", timeout=30)
    assert result.status == Status.UNSAFE
    validation = validate_result(system, result)
    assert validation.ok, validation.reason
    assert "cycle 5" in validation.reason


def test_witness_for_unknown_property_fails():
    system, result = _verify("bmc", "daio", max_bound=70)
    renamed = Witness("no_such_property", "bmc", result.certificate.inputs)
    validation = validate_certificate(system, renamed)
    assert not validation.ok


# ---------------------------------------------------------------------------
# safety certificates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "engine_name,design,kind",
    [
        ("pdr", "huffman_dec", "inductive"),
        ("interpolation", "huffman_dec", "inductive"),
        ("impact", "huffman_dec", "inductive"),
        ("predabs", "huffman_dec", "inductive"),
        ("absint", "arbiter", "inductive"),
        ("k-induction", "buffalloc", "k-inductive"),
        ("kiki", "huffman_dec", "k-inductive"),
    ],
)
def test_safe_certificates_validate(engine_name, design, kind):
    system, result = _verify(engine_name, design)
    assert result.status == Status.SAFE
    assert result.certificate is not None
    assert result.certificate.kind == kind
    assert result.certificate.engine == result.engine
    validation = validate_result(system, result)
    assert validation.ok, validation.reason
    # the certificate survives a JSON round trip and still validates
    revived = loads(dumps(result.certificate))
    assert validate_certificate(system, revived).ok


def test_forged_trivial_invariant_fails():
    system = get_benchmark("huffman_dec").load()
    forged = InductiveCertificate(system.properties[0].name, "oracle", TRUE)
    validation = validate_certificate(system, forged)
    assert not validation.ok
    failed = {o.name for o in validation.failed_obligations()}
    assert "property" in failed  # TRUE does not exclude the unreachable bad states


def test_non_inductive_invariant_fails_consecution():
    system = get_benchmark("huffman_dec").load()
    # node == 0 holds initially and implies the property but is not inductive
    bogus = InductiveCertificate(
        system.properties[0].name,
        "test",
        bv_var("node", 3).eq(bv_const(0, 3)),
    )
    validation = validate_certificate(system, bogus)
    assert not validation.ok
    assert {o.name for o in validation.failed_obligations()} == {"consecution"}


def test_invariant_over_non_state_signals_rejected():
    system = get_benchmark("huffman_dec").load()
    bogus = InductiveCertificate(
        system.properties[0].name, "test", bv_var("bit", 1)
    )
    validation = validate_certificate(system, bogus)
    assert not validation.ok
    assert "non-state signal" in validation.reason


def test_k_inductive_with_bogus_aux_invariant_fails():
    from repro.exprs import bv_ne, evaluate

    system, result = _verify("k-induction", "buffalloc")
    genuine = result.certificate
    # an auxiliary invariant that is false in the initial state can never
    # be admitted by the validator
    flat = system.flattened()
    name, width = next(iter(flat.state_vars.items()))
    init_value = evaluate(flat.init[name], {})
    bogus = KInductiveCertificate(
        genuine.property_name,
        genuine.engine,
        genuine.k,
        genuine.simple_path,
        invariants=(bv_ne(bv_var(name, width), bv_const(init_value, width)),),
    )
    validation = validate_certificate(system, bogus)
    assert not validation.ok
    assert "aux-init" in {o.name for o in validation.failed_obligations()}


def test_certificate_kind_must_match_status():
    system, result = _verify("pdr", "huffman_dec")
    result.status = Status.UNSAFE  # claim flipped, certificate kept
    validation = validate_result(system, result)
    assert not validation.ok
    assert "cannot justify" in validation.reason


def test_missing_certificate_fails_validation():
    system, result = _verify("pdr", "huffman_dec")
    result.certificate = None
    validation = validate_result(system, result)
    assert not validation.ok
    assert "no certificate" in validation.reason


# ---------------------------------------------------------------------------
# cone of influence: only the definitions an obligation reads are asserted
# ---------------------------------------------------------------------------


def _cone(validation, obligation):
    """``(kept, total)`` from an obligation's ``cone kept/total`` note."""
    note = next(o.note for o in validation.obligations if o.name == obligation)
    kept, total = note.split()[1].split("/")
    return int(kept), int(total)


@pytest.mark.parametrize("property_name", ["cnt_in_range", "cnt_le_9"])
def test_cnt_obligations_assert_no_acc_definition(property_name):
    """mac16's ``cnt`` properties never read ``acc``: its multiplier stays unblasted."""
    system = get_benchmark("mac16").load()
    assert sorted(system.flattened().next) == ["acc", "cnt"]
    for k in (1, 3):
        claim = KInductiveCertificate(property_name, "test", k, False)
        validation = validate_certificate(system, claim)
        assert validation.ok, validation.reason
        # one cnt definition per step; the k acc definitions are out of the cone
        assert _cone(validation, "step") == (k, 2 * k)
        assert _cone(validation, "base") == (k - 1, 2 * (k - 1))


def _shift_chain():
    """A counter feeding a three-register shift chain; ``r3 == 1`` at cycle 3."""
    from repro.netlist import TransitionSystem

    ts = TransitionSystem("chain")
    r0 = ts.add_state_var("r0", 4, init=1)
    r1 = ts.add_state_var("r1", 4, init=0)
    r2 = ts.add_state_var("r2", 4, init=0)
    r3 = ts.add_state_var("r3", 4, init=0)
    ts.set_next("r0", r0)
    ts.set_next("r1", r0)
    ts.set_next("r2", r1)
    ts.set_next("r3", r2)
    ts.add_property("r3_not_1", r3.ne(bv_const(1, 4)))
    return ts


def test_three_frame_definition_chain_still_refutes_the_step():
    """A k=3 claim on a design violated at cycle 3: the base holds only through
    the two-frame chain r3#2 <- r2#1 <- r1#0, the step fails only through the
    three-frame chain r3#3 <- r2#2 <- r1#1 <- r0#0."""
    system = _shift_chain()
    validation = validate_certificate(
        system, KInductiveCertificate("r3_not_1", "test", 3, False)
    )
    assert not validation.ok
    assert [o.name for o in validation.failed_obligations()] == ["step"]
    assert validation.reason == "obligation 'step' is violated"
    # r3#1..3, r2#1..2 and r1#1 are read; no r0 definition and no r1#2, r1#3
    assert _cone(validation, "step") == (6, 12)


def test_constraint_on_out_of_cone_register_keeps_its_definitions():
    """``en`` may fire only when the free-running ``z`` reads 3, so the
    counter first reaches 1 at cycle 4.  ``z`` is outside the property's cone;
    the base case of a k=3 claim holds only because the constraint pulls
    ``z``'s definitions in, and the claim fails at the step, as before."""
    from repro.exprs import bool_not, bool_or, bv_ite
    from repro.netlist import TransitionSystem

    ts = TransitionSystem("gated")
    en = ts.add_input("en", 1)
    cnt = ts.add_state_var("cnt", 4, init=0)
    z = ts.add_state_var("z", 2, init=0)
    ts.set_next("cnt", bv_ite(en, cnt + bv_const(1, 4), cnt))
    ts.set_next("z", z + bv_const(1, 2))
    ts.add_constraint(bool_or(bool_not(en), z.eq(bv_const(3, 2))))
    ts.add_property("cnt_not_1", cnt.ne(bv_const(1, 4)))

    validation = validate_certificate(
        ts, KInductiveCertificate("cnt_not_1", "test", 3, False)
    )
    assert not validation.ok
    assert [o.name for o in validation.failed_obligations()] == ["step"]
    assert _cone(validation, "base") == (4, 4)  # cnt#1, cnt#2, z#1, z#2

    # the base case rests on the constraint: without it, en fires at cycle 0
    ts.constraints = []
    unconstrained = validate_certificate(
        ts, KInductiveCertificate("cnt_not_1", "test", 3, False)
    )
    assert "base" in {o.name for o in unconstrained.failed_obligations()}


def test_suite_certificates_validate_with_unchanged_obligation_outcomes():
    """Every suite unit's certificate gets the same obligation outcomes from
    the cone discharge as from asserting every definition."""
    from repro.benchmarks import BENCHMARKS
    from repro.certs.validate import CertificateValidator
    from repro.engines.batch import run_sequential_ladder
    from repro.engines.portfolio import default_budget_ladder

    class WholeDesign(CertificateValidator):
        """Reference discharge: every definition asserted, no cone."""

        def _unsat(self, conjuncts, definitions):
            return super()._unsat(conjuncts + list(definitions.values()), {})

    ladder = default_budget_ladder(("word",), timeout=60, priors={})
    checked = 0
    for name in BENCHMARKS:
        system = get_benchmark(name).load()
        for prop in system.properties:
            result = run_sequential_ladder(system, prop.name, ladder, 60)
            assert result.status == get_benchmark(name).expected
            cone = validate_certificate(system, result.certificate)
            whole = WholeDesign(system).validate(result.certificate)
            assert cone.ok and whole.ok, (name, cone.reason, whole.reason)
            outcomes = [(o.name, o.outcome) for o in cone.obligations]
            assert outcomes == [(o.name, o.outcome) for o in whole.obligations]
            checked += 1
    assert checked == 14


# ---------------------------------------------------------------------------
# the fault-injection oracle
# ---------------------------------------------------------------------------


def test_oracle_forged_certificates_fail_validation():
    system = get_benchmark("daio").load()
    safe_claim = make_engine("oracle", system, claim=Status.SAFE).verify(timeout=10)
    assert safe_claim.status == Status.SAFE
    assert not validate_result(system, safe_claim).ok
    unsafe_claim = make_engine("oracle", system, claim=Status.UNSAFE).verify(timeout=10)
    assert unsafe_claim.status == Status.UNSAFE
    assert not validate_result(system, unsafe_claim).ok


def test_witness_helper_defaults_missing_inputs_to_zero():
    from repro.engines.result import Counterexample

    system = get_benchmark("daio").load()
    cex = Counterexample(system.properties[0].name, [{}, {}])
    witness = witness_from_counterexample(system, "test", cex)
    assert witness.length == 2
    for cycle in witness.inputs:
        assert set(cycle) == set(system.inputs)
        assert all(value == 0 for value in cycle.values())


# ---------------------------------------------------------------------------
# CLI exit codes (CI-gateable contract)
# ---------------------------------------------------------------------------


def test_cli_exit_codes(capsys):
    from repro.tools.verify_cli import main

    # 0: validated expected verdict
    assert main(["daio", "--engine", "bmc", "--bound", "80", "--certify"]) == 0
    # 2: wrong verdict against known ground truth
    assert main(["daio", "--engine", "oracle", "--timeout", "10"]) == 2
    # 3: inconclusive (bmc cannot refute within a tiny bound)
    assert main(["huffman_dec", "--engine", "bmc", "--bound", "3"]) == 3
    capsys.readouterr()


def test_cli_certify_demotes_unvalidated_verdict(capsys):
    from repro.tools.verify_cli import main

    # the oracle's SAFE claim on a safe design matches the ground truth but
    # its forged certificate cannot be validated -> WRONG under --certify
    assert main(["huffman_dec", "--engine", "oracle", "--timeout", "10"]) == 0
    assert main(["huffman_dec", "--engine", "oracle", "--certify", "--timeout", "10"]) == 2
    out = capsys.readouterr().out
    assert "NOT VALIDATED" in out


def test_cli_certify_validates_a_wrong_verdict(capsys):
    """A WRONG verdict that carries a certificate is checked, not skipped."""
    from repro.tools.verify_cli import main

    # bmc's daio witness is genuine: the (deliberately false) expectation
    # is what is wrong, and the verdict stays WRONG
    argv = ["daio", "--engine", "bmc", "--bound", "80", "--expected", "safe", "--certify"]
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert "skipped" not in out
    assert "violation-reached" in out and "-> VALIDATED" in out
    assert "the expectation is wrong" in out
    # the oracle's forged SAFE invariant on the unsafe daio: the engine is
    assert main(["daio", "--engine", "oracle", "--timeout", "10", "--certify"]) == 2
    out = capsys.readouterr().out
    assert "NOT VALIDATED" in out and "the engine is wrong" in out


def test_cli_saves_certificate_and_stimulus(tmp_path, capsys):
    from repro.tools.verify_cli import main

    path = tmp_path / "daio.cert.json"
    code = main(
        ["daio", "--engine", "bmc", "--bound", "80",
         "--save-certificate", str(path)]
    )
    capsys.readouterr()
    assert code == 0
    document = json.loads(path.read_text())
    assert document["format"] == "repro-cert-v1"
    assert document["kind"] == "witness"
    cex = tmp_path / "daio.cert.cex"
    assert cex.exists()
    assert len(cex.read_text().strip().split("\n")) == 65
