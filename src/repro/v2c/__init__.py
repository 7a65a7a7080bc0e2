"""v2c: synthesis of Verilog RTL into a software-netlist.

This package is the reproduction of the paper's core artefact, the ``v2c``
tool (Section III): it turns the word-level transition system obtained from
Verilog RTL into

* a *software-netlist* in ANSI-C (:class:`repro.v2c.codegen.CCodeGenerator`):
  a cycle-accurate, bit-precise, word-level C program in which one call of the
  top-level step function corresponds to one clock cycle, with the safety
  properties instrumented as assertions and the primary inputs assigned
  non-deterministic values, and
* the program structure that C is printed from
  (:class:`repro.v2c.softnetlist.SoftwareNetlist`): registers, inputs, wires
  in dependency order and the instrumented assertions.  The bit-parallel
  simulator (:mod:`repro.netlist.bitsim`) compiles the same structure into a
  Python step function; the scalar reference semantics of Section III.C's
  same-cycle argument is :mod:`repro.netlist.simulate`.
"""

from repro.v2c.softnetlist import SoftwareNetlist
from repro.v2c.codegen import CCodeGenerator, generate_c
from repro.v2c.instrument import instrument_properties

__all__ = [
    "SoftwareNetlist",
    "CCodeGenerator",
    "generate_c",
    "instrument_properties",
]
