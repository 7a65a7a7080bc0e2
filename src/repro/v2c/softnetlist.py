"""Software-netlist structure.

The software-netlist is the program view of the circuit: a state structure
(one field per register, nested following the module hierarchy), an input
structure, and a *step function* that computes the combinational signals and
updates every register exactly once — one call per clock cycle, as described
in Section III.A of the paper.

:class:`SoftwareNetlist` holds that structure once for both programs built
from it: the ANSI-C output (:mod:`repro.v2c.codegen`) and the bit-parallel
Python step function of :mod:`repro.netlist.bitsim`.  Its scalar semantics
is the reference simulator, :mod:`repro.netlist.simulate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.exprs import Expr, evaluate
from repro.netlist import TransitionSystem


@dataclass
class AssertionPoint:
    """An instrumented assertion checked each cycle before the state update."""

    name: str
    expr: Expr


class SoftwareNetlist:
    """Straight-line program structure of a transition system.

    Wire assignments follow the system's topological
    :meth:`~repro.netlist.TransitionSystem.wire_order`; register updates
    come last and read only pre-update values, which reproduces the
    non-blocking assignment semantics of the RTL.
    """

    def __init__(self, system: TransitionSystem) -> None:
        system.validate()
        self.system = system
        self.name = system.name
        self.inputs: Dict[str, int] = dict(system.inputs)
        self.registers: Dict[str, int] = dict(system.state_vars)
        self.initial_values: Dict[str, int] = {
            name: evaluate(expr, {}) for name, expr in system.init.items()
        }
        self.wire_order: List[str] = system.wire_order()
        self.assertions: List[AssertionPoint] = [
            AssertionPoint(prop.name, prop.expr) for prop in system.properties
        ]
        self.constraints: List[Expr] = list(system.constraints)

    # ------------------------------------------------------------------
    # structure queries used by the C code generator
    # ------------------------------------------------------------------
    def hierarchy(self) -> Dict:
        """Return the register hierarchy as nested dicts keyed by path component.

        Dotted names produced by the synthesizer (``u_fifo.count``) become
        nested structure members, which is how the generated C retains the
        module hierarchy of the RTL.
        """
        tree: Dict = {}
        for name, width in self.registers.items():
            parts = name.split(".")
            node = tree
            for part in parts[:-1]:
                node = node.setdefault(part, {})
            node[parts[-1]] = width
        return tree

    def stats(self) -> Dict[str, int]:
        """Return program-size statistics."""
        return {
            "inputs": len(self.inputs),
            "registers": len(self.registers),
            "wire_assignments": len(self.wire_order),
            "assertions": len(self.assertions),
        }
