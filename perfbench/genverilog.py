"""Seeded generator of small Verilog designs with a verdict known by construction.

Two families, both with one labelled ``assert property`` named ``ok``:

* ``counter``: a W-bit counter that adds ``step`` while ``en`` is high.
  The safe variant wraps to 0 before passing ``limit`` and asserts
  ``count <= limit``; that assertion is 1-inductive (from any state that
  satisfies it, one step satisfies it again).  The unsafe variant never
  wraps before ``k * step`` and asserts ``count != k * step``, which is
  violated after ``k`` enabled cycles (``k <= 12``, well inside the rung-0
  BMC bound).
* ``controller``: an idle/busy/done FSM with a timer that runs while busy
  and times out at ``limit``.  The safe variant asserts
  ``state != 3 && timer <= limit`` (1-inductive: every transition keeps the
  encoding and the timer in range).  The unsafe variant asserts that the
  FSM is never busy with the timer at ``limit``, which it reaches
  ``limit + 1`` cycles after ``go``.

The verdict of a design comes from this construction alone, never from an
engine or the certificate validator.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import List

from common import SAFE, UNSAFE

#: the property label every generated design asserts
PROPERTY = "ok"


@dataclass(frozen=True)
class GeneratedDesign:
    """One generated file and its by-construction verdict."""

    path: str
    module: str
    family: str
    expected: str
    #: cycle at which the unsafe variant first violates ``ok`` (None if safe)
    bug_depth: object = None
    #: the design's class (family, width, verdict): designs of one class
    #: differ only in their module name
    group: str = ""


def _counter(rng: random.Random, width: int, unsafe: bool):
    step = rng.randint(1, 5)
    if unsafe:
        k = rng.randint(3, 12)
        while k * step >= (1 << width):
            k -= 1
        body = f"""  reg [{width - 1}:0] count = {width}'d0;
  always @(posedge clk) begin
    if (en) count <= count + {width}'d{step};
  end
  ok: assert property (@(posedge clk) count != {width}'d{k * step});"""
        return body, k
    limit = rng.randint(step + 2, (1 << width) - 2)
    body = f"""  reg [{width - 1}:0] count = {width}'d0;
  always @(posedge clk) begin
    if (en) begin
      if (count > {width}'d{limit - step}) count <= {width}'d0;
      else count <= count + {width}'d{step};
    end
  end
  ok: assert property (@(posedge clk) count <= {width}'d{limit});"""
    return body, None


def _controller(rng: random.Random, width: int, unsafe: bool):
    limit = rng.randint(3, 10)
    if unsafe:
        check = f"!(state == 2'd1 && timer == {width}'d{limit})"
    else:
        check = f"state != 2'd3 && timer <= {width}'d{limit}"
    body = f"""  reg [1:0] state = 2'd0;
  reg [{width - 1}:0] timer = {width}'d0;
  always @(posedge clk) begin
    case (state)
      2'd0: begin
        timer <= {width}'d0;
        if (go) state <= 2'd1;
      end
      2'd1: begin
        if (stop) begin state <= 2'd0; timer <= {width}'d0; end
        else if (timer >= {width}'d{limit}) begin state <= 2'd2; timer <= {width}'d0; end
        else timer <= timer + {width}'d1;
      end
      2'd2: begin state <= 2'd0; timer <= {width}'d0; end
      default: begin state <= 2'd0; timer <= {width}'d0; end
    endcase
  end
  ok: assert property (@(posedge clk) {check});"""
    return body, (limit + 1 if unsafe else None)


_FAMILIES = {
    "counter": (_counter, "input clk, input en"),
    "controller": (_controller, "input clk, input go, input stop"),
}

#: the design classes, cycled in this order: (family, width, unsafe): 6 safe
#: and 2 unsafe designs in every 8.  A class also fixes its constants (step,
#: limit, bug depth), drawn once from the class index: the cost of proving
#: a design safe varies up to 2x with its constants, and a benchmark whose
#: cost moved with the seed could not bound a regression.  The seed names
#: the modules, so every seed gives designs with their own cache keys.
CLASSES = (
    ("counter", 5, False),
    ("controller", 4, False),
    ("counter", 6, True),
    ("controller", 5, False),
    ("counter", 7, False),
    ("controller", 4, True),
    ("counter", 6, False),
    ("controller", 5, False),
)


def generate(directory: str, seed: int, count: int, prefix: str = "g") -> List[GeneratedDesign]:
    """Write ``count`` designs into ``directory``; same seed, same files."""
    os.makedirs(directory, exist_ok=True)
    designs: List[GeneratedDesign] = []
    for index in range(count):
        family, width, unsafe = CLASSES[index % len(CLASSES)]
        build, ports = _FAMILIES[family]
        module = f"{prefix}_{family}_{seed}_{index}"
        body, depth = build(random.Random(index % len(CLASSES)), width, unsafe)
        path = os.path.join(directory, f"{module}.v")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"module {module} ({ports});\n{body}\nendmodule\n")
        verdict = UNSAFE if unsafe else SAFE
        designs.append(
            GeneratedDesign(
                path, module, family, verdict, depth, f"{family}{width}-{verdict}"
            )
        )
    return designs
