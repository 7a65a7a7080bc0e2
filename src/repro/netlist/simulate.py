"""Cycle-accurate scalar simulation of a transition system.

:class:`Simulator` is the executable reference semantics of the word-level
netlist: registers start from their reset values, absent primary inputs
read 0, wires are evaluated in the system's topological
:meth:`~repro.netlist.TransitionSystem.wire_order`, and every register
updates simultaneously from the cycle's pre-update values.

:func:`first_violation` is the one rule for "property ``p`` is violated at
cycle ``c``" (the paper's Section III.C: a counterexample is trusted only
when the cycle-accurate model reaches the violation in the claimed clock
cycle).  Witness validation and the rsim engine's confirmation call it; the
packed simulator's ``alive`` mask (:mod:`repro.netlist.bitsim`) applies the
same rule to 64 lanes at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

from repro.exprs import evaluate
from repro.exprs.nodes import to_unsigned
from repro.netlist.transition import TransitionSystem


class Simulator:
    """Executes a transition system cycle by cycle."""

    def __init__(self, system: TransitionSystem) -> None:
        system.validate()
        self.system = system
        self._wire_order = system.wire_order()
        self.reset()

    def reset(self) -> None:
        """Reset all registers to their initial values."""
        self._state: Dict[str, int] = {
            name: evaluate(init_expr, {}) for name, init_expr in self.system.init.items()
        }
        self.cycle = 0

    @property
    def state(self) -> Dict[str, int]:
        """Current register values."""
        return dict(self._state)

    def step(self, inputs: Optional[Mapping[str, int]] = None) -> Dict[str, int]:
        """Advance one clock cycle.

        Returns every signal's value in the cycle, read before the register
        update: registers, inputs and wires.
        """
        inputs = inputs or {}
        env: Dict[str, int] = dict(self._state)
        for name, width in self.system.inputs.items():
            env[name] = to_unsigned(inputs.get(name, 0), width)
        for name in self._wire_order:
            env[name] = evaluate(self.system.wires[name], env)
        self._state = {
            name: evaluate(expr, env) for name, expr in self.system.next.items()
        }
        self.cycle += 1
        return env


@dataclass(frozen=True)
class ReplayVerdict:
    """What :func:`first_violation` observed on one input sequence.

    At most one of ``cycle`` and ``constraint_failed_at`` is set: the replay
    ends at the first counted violation, or at the first cycle where an
    environment constraint fails (no later violation can count).
    """

    cycle: Optional[int] = None
    property_name: Optional[str] = None
    constraint_failed_at: Optional[int] = None

    @property
    def violated(self) -> bool:
        return self.cycle is not None


def first_violation(
    system: TransitionSystem,
    input_sequence: Sequence[Mapping[str, int]],
    properties: Optional[Sequence[str]] = None,
) -> ReplayVerdict:
    """Replay ``input_sequence`` from reset and find the first counted violation.

    A violation of a watched property (``properties`` by name, default all)
    at cycle ``c`` counts only if every environment constraint held at
    cycles ``0..c`` — the SAT frames assert the constraints in every frame up
    to and including the violation frame, and the packed simulator drops a
    lane from its ``alive`` mask on the same condition.
    """
    watched = (
        system.properties
        if properties is None
        else [system.property_by_name(name) for name in properties]
    )
    simulator = Simulator(system)
    for cycle, inputs in enumerate(input_sequence):
        env = simulator.step(inputs)
        if any(evaluate(constraint, env) == 0 for constraint in system.constraints):
            return ReplayVerdict(constraint_failed_at=cycle)
        for prop in watched:
            if evaluate(prop.expr, env) == 0:
                return ReplayVerdict(cycle, prop.name)
    return ReplayVerdict()
