"""AIG → TransitionSystem lifting: round trips and simulator cross-checks.

The bit-level flow lowers a word-level design to an AIG, serializes it as
ASCII AIGER and lifts it back into a (1-bit-word) transition system
(:func:`repro.aig.bitblast.transition_system_from_aig`).  These tests assert
the paper's Section III.C equivalence argument on that path: the lifted
model agrees with the word-level reference simulator cycle by cycle, and
bugs manifest in the same clock cycle in both models.
"""

import random

import pytest

from repro.aig import aig_from_transition_system, write_aiger
from repro.aig.bitblast import transition_system_from_aig
from repro.aig.formats import read_aiger
from repro.benchmarks import get_benchmark
from repro.engines import Status, make_engine
from repro.exprs import evaluate
from repro.netlist.simulate import Simulator, first_violation


def _lift_round_trip(system):
    """system -> AIG -> AIGER text -> AIG -> lifted transition system."""
    aig = aig_from_transition_system(system)
    lifted = transition_system_from_aig(read_aiger(write_aiger(aig)))
    lifted.validate()
    return aig, lifted


def _bit_inputs(system, word_inputs):
    """Decompose word-level input values into the lifted ``name[i]`` bits."""
    bits = {}
    for name, width in system.inputs.items():
        value = word_inputs.get(name, 0)
        for index in range(width):
            bits[f"{name}[{index}]"] = (value >> index) & 1
    return bits


def _state_bits(system, state):
    bits = {}
    for name, width in system.state_vars.items():
        for index in range(width):
            bits[f"{name}[{index}]"] = (state[name] >> index) & 1
    return bits


def _property_values(system, env):
    return {prop.name: evaluate(prop.expr, env) for prop in system.properties}


@pytest.mark.parametrize("design", ["huffman_dec", "arbiter", "daio"])
def test_lifting_round_trip_structure(design):
    system = get_benchmark(design).load()
    aig, lifted = _lift_round_trip(system)
    assert len(lifted.inputs) == sum(system.inputs.values())
    assert len(lifted.state_vars) == sum(system.state_vars.values())
    assert len(lifted.properties) == len(system.properties)
    assert {p.name for p in lifted.properties} == {p.name for p in system.properties}
    # reset values survive the round trip
    lifted_sim = Simulator(lifted)
    word_sim = Simulator(system)
    assert lifted_sim.state == _state_bits(system, word_sim.state)


@pytest.mark.parametrize("design", ["huffman_dec", "arbiter"])
def test_lifted_simulation_matches_word_level(design):
    """Random simulation agrees register bit by register bit, cycle by cycle."""
    system = get_benchmark(design).load()
    _, lifted = _lift_round_trip(system)
    word_sim = Simulator(system)
    bit_sim = Simulator(lifted)
    rng = random.Random(2016)
    for cycle in range(64):
        word_inputs = {
            name: rng.getrandbits(width) for name, width in system.inputs.items()
        }
        bit_inputs = _bit_inputs(system, word_inputs)
        word_env = word_sim.step(word_inputs)
        bit_env = bit_sim.step(bit_inputs)
        # same property values in the current cycle...
        assert _property_values(system, word_env) == _property_values(
            lifted, bit_env
        ), f"property values diverge at cycle {cycle}"
        # ... and the same next state, register bit by register bit
        assert bit_sim.state == _state_bits(system, word_sim.state), (
            f"state diverges at cycle {cycle + 1}"
        )


def test_lifted_model_reproduces_bug_in_same_cycle():
    """The daio bug manifests at cycle 64 in the lifted model too (III.C)."""
    benchmark = get_benchmark("daio")
    system = benchmark.load()
    result = make_engine("bmc", system, max_bound=70).verify(timeout=90)
    assert result.status == Status.UNSAFE
    _, lifted = _lift_round_trip(system)
    witness = result.certificate
    bit_sequence = [_bit_inputs(system, step) for step in witness.input_sequence()]
    verdict = first_violation(lifted, bit_sequence)
    assert verdict.property_name == result.property_name
    assert verdict.cycle == benchmark.bug_cycle
