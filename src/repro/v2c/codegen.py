"""ANSI-C code generation: the software-netlist emitted by v2c.

The generated program is cycle-accurate and bit-precise:

* every register of the RTL becomes a field of the state structure (nested
  structures follow the module hierarchy of the Verilog),
* every primary input becomes a field of the input structure, assigned a
  non-deterministic value each cycle in the verification harness,
* one call of ``<top>_step`` corresponds to one clock cycle: combinational
  signals are computed first (in dependency order), the safety properties are
  checked as C ``assert`` statements, and finally all registers are updated
  simultaneously from temporaries (non-blocking assignment semantics),
* Verilog operators with no direct C equivalent (part-select, bit-select,
  concatenation, reduction) are translated into semantically equivalent
  combinations of C shift/mask operators, as described in Section III.B.

The output is self-contained C11 and compiles with a normal C compiler; with
``-DUSE_VERIFIER_NONDET`` the harness uses ``__VERIFIER_nondet_*`` inputs in
the style expected by SV-COMP software verifiers (CBMC, CPAChecker, 2LS, ...).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.exprs import Expr
from repro.exprs.nodes import Const, Op, Var, mask
from repro.netlist import TransitionSystem
from repro.v2c.softnetlist import SoftwareNetlist


def _c_type(width: int) -> str:
    """Smallest stdint type holding ``width`` bits."""
    if width <= 8:
        return "uint8_t"
    if width <= 16:
        return "uint16_t"
    if width <= 32:
        return "uint32_t"
    if width <= 64:
        return "uint64_t"
    raise ValueError(f"signals wider than 64 bits are not supported by the C backend ({width})")


def _mask_literal(width: int) -> str:
    return f"0x{mask(width):x}ULL"


def _sanitize(name: str) -> str:
    """Turn a hierarchical signal name into a C identifier."""
    return name.replace(".", "__").replace("[", "_").replace("]", "_")


class CCodeGenerator:
    """Generates the ANSI-C software-netlist for a transition system."""

    def __init__(self, system: TransitionSystem, name: Optional[str] = None) -> None:
        self.netlist = SoftwareNetlist(system)
        self.system = system
        self.module_name = _sanitize(name or system.name or "design")

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def generate(self, include_main: bool = True) -> str:
        """Return the complete C translation unit."""
        sections = [
            self._header(),
            self._state_struct(),
            self._input_struct(),
            self._init_function(),
            self._step_function(),
        ]
        if include_main:
            sections.append(self._main_function())
        return "\n".join(sections)

    # ------------------------------------------------------------------
    # sections
    # ------------------------------------------------------------------
    def _header(self) -> str:
        lines = [
            "/*",
            f" * Software-netlist generated by repro.v2c from module '{self.system.name}'.",
            " * One call of the step function corresponds to one clock cycle of the RTL.",
            " * The translation is cycle-accurate and bit-precise; properties are",
            " * instrumented as assert() statements before the register update.",
            " */",
            "#include <stdint.h>",
            "#include <assert.h>",
            "#include <stdlib.h>",
            "#include <stdio.h>",
            "",
            "#ifdef USE_VERIFIER_NONDET",
            "extern uint8_t  __VERIFIER_nondet_uchar(void);",
            "extern uint16_t __VERIFIER_nondet_ushort(void);",
            "extern uint32_t __VERIFIER_nondet_uint(void);",
            "extern uint64_t __VERIFIER_nondet_ulonglong(void);",
            "#define NONDET_U8()  __VERIFIER_nondet_uchar()",
            "#define NONDET_U16() __VERIFIER_nondet_ushort()",
            "#define NONDET_U32() __VERIFIER_nondet_uint()",
            "#define NONDET_U64() __VERIFIER_nondet_ulonglong()",
            "#else",
            "#define NONDET_U8()  ((uint8_t)rand())",
            "#define NONDET_U16() ((uint16_t)rand())",
            "#define NONDET_U32() ((uint32_t)rand())",
            "#define NONDET_U64() (((uint64_t)rand() << 32) | (uint64_t)rand())",
            "#endif",
            "",
        ]
        return "\n".join(lines)

    def _nested_struct(self, tree: Dict, indent: str) -> List[str]:
        lines: List[str] = []
        for key in sorted(tree):
            value = tree[key]
            member = _sanitize(key)
            if isinstance(value, dict):
                lines.append(f"{indent}struct {{")
                lines.extend(self._nested_struct(value, indent + "    "))
                lines.append(f"{indent}}} {member};")
            else:
                lines.append(f"{indent}{_c_type(value)} {member}; /* {value} bit(s) */")
        return lines

    def _state_struct(self) -> str:
        tree = self.netlist.hierarchy()
        lines = [f"/* Register state; nested structs retain the RTL module hierarchy. */"]
        lines.append(f"struct state_{self.module_name} {{")
        lines.extend(self._nested_struct(tree, "    "))
        lines.append("};")
        lines.append("")
        return "\n".join(lines)

    def _input_struct(self) -> str:
        lines = ["/* Primary inputs: assigned a non-deterministic value every cycle. */"]
        lines.append(f"struct inputs_{self.module_name} {{")
        for name, width in self.netlist.inputs.items():
            lines.append(f"    {_c_type(width)} {_sanitize(name)}; /* {width} bit(s) */")
        lines.append("};")
        lines.append("")
        return "\n".join(lines)

    def _state_ref(self, name: str) -> str:
        parts = [_sanitize(part) for part in name.split(".")]
        return "s->" + ".".join(parts)

    def _init_function(self) -> str:
        lines = [f"void {self.module_name}_init(struct state_{self.module_name} *s) {{"]
        for name, value in self.netlist.initial_values.items():
            lines.append(f"    {self._state_ref(name)} = {value}u;")
        lines.append("}")
        lines.append("")
        return "\n".join(lines)

    def _step_function(self) -> str:
        lines = [
            "/* One clock cycle: combinational evaluation, assertion checks, register update. */",
            f"int {self.module_name}_step(struct state_{self.module_name} *s, "
            f"const struct inputs_{self.module_name} *in) {{",
        ]
        widths = self.system.signal_widths()
        # combinational signals in dependency order
        for wire in self.netlist.wire_order:
            expr = self.system.wires[wire]
            width = widths[wire]
            code = self._emit(expr)
            lines.append(
                f"    const {_c_type(width)} {_sanitize(wire)} = "
                f"({_c_type(width)})({code} & {_mask_literal(width)});"
            )
        # assertions (the instrumented safety properties)
        for assertion in self.netlist.assertions:
            lines.append(f"    /* property: {assertion.name} */")
            lines.append(f"    assert(({self._emit(assertion.expr)}) != 0);")
        # next-state values into temporaries (non-blocking semantics)
        for register, width in self.netlist.registers.items():
            expr = self.system.next[register]
            code = self._emit(expr)
            lines.append(
                f"    const {_c_type(width)} next_{_sanitize(register)} = "
                f"({_c_type(width)})({code} & {_mask_literal(width)});"
            )
        for register in self.netlist.registers:
            lines.append(f"    {self._state_ref(register)} = next_{_sanitize(register)};")
        lines.append("    return 0;")
        lines.append("}")
        lines.append("")
        return "\n".join(lines)

    def _nondet_for(self, width: int) -> str:
        if width <= 8:
            return "NONDET_U8()"
        if width <= 16:
            return "NONDET_U16()"
        if width <= 32:
            return "NONDET_U32()"
        return "NONDET_U64()"

    def _main_function(self) -> str:
        lines = [
            "/* Verification harness: unbounded loop, non-deterministic inputs each cycle. */",
            "int main(void) {",
            f"    struct state_{self.module_name} s;",
            f"    struct inputs_{self.module_name} in;",
            f"    {self.module_name}_init(&s);",
            "#ifdef BOUNDED_CYCLES",
            "    for (unsigned long _cycle = 0; _cycle < BOUNDED_CYCLES; ++_cycle) {",
            "#else",
            "    while (1) {",
            "#endif",
        ]
        for name, width in self.netlist.inputs.items():
            lines.append(
                f"        in.{_sanitize(name)} = ({_c_type(width)})({self._nondet_for(width)} "
                f"& {_mask_literal(width)});"
            )
        lines.append(f"        {self.module_name}_step(&s, &in);")
        lines.append("    }")
        lines.append("    return 0;")
        lines.append("}")
        lines.append("")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # expression emission
    # ------------------------------------------------------------------
    def _operand(self, name: str, width: int) -> str:
        if name in self.netlist.registers:
            return self._state_ref(name)
        if name in self.netlist.inputs:
            return f"in->{_sanitize(name)}"
        return _sanitize(name)

    def _emit(self, expr: Expr) -> str:
        """Emit a C expression computing ``expr`` as a uint64_t-valued rvalue."""
        if isinstance(expr, Const):
            return f"{expr.value}ULL"
        if isinstance(expr, Var):
            return f"(uint64_t){self._operand(expr.name, expr.width)}"
        assert isinstance(expr, Op)
        op = expr.op
        width = expr.width
        wmask = _mask_literal(width)

        def arg(index: int) -> str:
            return self._emit(expr.args[index])

        if op == "not":
            return f"((~{arg(0)}) & {wmask})"
        if op == "neg":
            return f"((0ULL - {arg(0)}) & {wmask})"
        if op in ("and", "or", "xor"):
            symbol = {"and": "&", "or": "|", "xor": "^"}[op]
            return f"({arg(0)} {symbol} {arg(1)})"
        if op == "xnor":
            return f"((~({arg(0)} ^ {arg(1)})) & {wmask})"
        if op == "nand":
            return f"((~({arg(0)} & {arg(1)})) & {wmask})"
        if op == "nor":
            return f"((~({arg(0)} | {arg(1)})) & {wmask})"
        if op in ("add", "sub", "mul"):
            symbol = {"add": "+", "sub": "-", "mul": "*"}[op]
            return f"(({arg(0)} {symbol} {arg(1)}) & {wmask})"
        if op == "udiv":
            return f"(({arg(1)}) == 0 ? {wmask} : (({arg(0)}) / ({arg(1)})))"
        if op == "urem":
            return f"(({arg(1)}) == 0 ? ({arg(0)}) : (({arg(0)}) % ({arg(1)})))"
        if op == "shl":
            return f"((({arg(1)}) >= {width}ULL) ? 0ULL : ((({arg(0)}) << ({arg(1)})) & {wmask}))"
        if op == "lshr":
            return f"((({arg(1)}) >= {width}ULL) ? 0ULL : (({arg(0)}) >> ({arg(1)})))"
        if op == "ashr":
            sign = f"(({arg(0)} >> {width - 1}) & 1ULL)"
            body = (
                f"((({arg(0)}) >> ({arg(1)})) | ({sign} ? "
                f"(~(({arg(1)}) >= {width}ULL ? 0ULL : ({wmask} >> ({arg(1)})))) & {wmask} : 0ULL))"
            )
            return f"((({arg(1)}) >= {width}ULL) ? ({sign} ? {wmask} : 0ULL) : ({body} & {wmask}))"
        if op in ("eq", "ne", "ult", "ule", "ugt", "uge"):
            symbol = {
                "eq": "==",
                "ne": "!=",
                "ult": "<",
                "ule": "<=",
                "ugt": ">",
                "uge": ">=",
            }[op]
            return f"((uint64_t)(({arg(0)}) {symbol} ({arg(1)})))"
        if op in ("slt", "sle", "sgt", "sge"):
            operand_width = expr.args[0].width
            offset = f"0x{1 << (operand_width - 1):x}ULL"
            symbol = {"slt": "<", "sle": "<=", "sgt": ">", "sge": ">="}[op]
            # compare after flipping the sign bit (maps two's complement to unsigned order)
            return (
                f"((uint64_t)(((({arg(0)}) ^ {offset})) {symbol} ((({arg(1)}) ^ {offset}))))"
            )
        if op == "redand":
            operand_mask = _mask_literal(expr.args[0].width)
            return f"((uint64_t)(({arg(0)}) == {operand_mask}))"
        if op == "redor":
            return f"((uint64_t)(({arg(0)}) != 0ULL))"
        if op == "redxor":
            return f"((uint64_t)(__builtin_parityll({arg(0)})))"
        if op == "concat":
            parts = []
            shift = 0
            # last argument is least significant
            for child in reversed(expr.args):
                emitted = self._emit(child)
                parts.append(f"(({emitted}) << {shift})" if shift else f"({emitted})")
                shift += child.width
            return "(" + " | ".join(parts) + ")"
        if op == "extract":
            hi, lo = expr.params
            return f"((({arg(0)}) >> {lo}) & {_mask_literal(hi - lo + 1)})"
        if op == "zext":
            return arg(0)
        if op == "sext":
            inner_width = expr.args[0].width
            sign = f"((({arg(0)}) >> {inner_width - 1}) & 1ULL)"
            high = mask(width) ^ mask(inner_width)
            return f"(({arg(0)}) | ({sign} ? 0x{high:x}ULL : 0ULL))"
        if op == "ite":
            return f"(({arg(0)}) ? ({arg(1)}) : ({arg(2)}))"
        raise ValueError(f"cannot translate operator {op!r} to C")


def generate_c(
    system: TransitionSystem, name: Optional[str] = None, include_main: bool = True
) -> str:
    """Convenience wrapper: generate the software-netlist C code for a system."""
    return CCodeGenerator(system, name=name).generate(include_main=include_main)

