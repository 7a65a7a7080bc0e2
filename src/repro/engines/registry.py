"""Registry of engines by name, used by the CLI, portfolio and bench harness.

Each engine is registered once, as an :class:`EngineRegistration` carrying
its canonical name, accepted aliases, capabilities and a one-line summary.
Drivers look engines up with :func:`get_registration` / :func:`make_engine`
and enumerate them with :func:`list_engines`; options are validated against
the engine's declared constructor signature so a typo'd or misrouted option
produces a targeted :class:`repro.engines.base.EngineOptionError` instead of
an opaque ``TypeError`` from deep inside a constructor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Type

from repro.engines.absint import AbstractInterpretationEngine
from repro.engines.base import Engine, EngineCapabilities, EngineOptionError
from repro.engines.bmc import BMCEngine
from repro.engines.impact import ImpactEngine
from repro.engines.interpolation import InterpolationEngine
from repro.engines.kiki import KikiEngine
from repro.engines.kinduction import KInductionEngine
from repro.engines.oracle import OracleEngine
from repro.engines.pdr import PDREngine
from repro.engines.predabs import PredicateAbstractionEngine
from repro.engines.rsim import RandomSimulationEngine
from repro.netlist import TransitionSystem


@dataclass(frozen=True)
class EngineRegistration:
    """Metadata for one registered engine.

    The registration is callable with the constructor signature of the engine
    (``registration(system, **options)``), so code that used to treat the
    registry as a name -> constructor map keeps working.
    """

    name: str
    engine_class: Type[Engine]
    aliases: Tuple[str, ...] = ()
    summary: str = ""
    #: included in the default process-parallel portfolio
    portfolio: bool = False
    #: scheduled by the default budget ladder (None: same as ``portfolio``)
    ladder: Optional[bool] = None

    @property
    def in_ladder(self) -> bool:
        return self.portfolio if self.ladder is None else self.ladder

    @property
    def capabilities(self) -> EngineCapabilities:
        return self.engine_class.capabilities

    @property
    def option_names(self) -> Tuple[str, ...]:
        return self.engine_class.option_names()

    def __call__(self, system: TransitionSystem, **options) -> Engine:
        return self.engine_class(system, **options)


_REGISTRATIONS: List[EngineRegistration] = [
    EngineRegistration(
        "bmc",
        BMCEngine,
        summary="incremental bounded model checking (refutation only)",
        portfolio=True,
    ),
    EngineRegistration(
        "k-induction",
        KInductionEngine,
        aliases=("kind", "kinduction"),
        summary="k-induction with optional simple-path constraints",
        portfolio=True,
    ),
    EngineRegistration(
        "interpolation",
        InterpolationEngine,
        aliases=("itp",),
        summary="McMillan-style interpolation-based reachability",
        portfolio=True,
    ),
    EngineRegistration(
        "pdr",
        PDREngine,
        aliases=("ic3",),
        summary="IC3/PDR over the register bits",
        portfolio=True,
    ),
    EngineRegistration(
        "kiki",
        KikiEngine,
        summary="kIkI: BMC + k-induction + interval k-invariants (2LS)",
        portfolio=True,
    ),
    EngineRegistration(
        "impact",
        ImpactEngine,
        summary="lazy abstraction with interpolants (IMPACT/IMPARA)",
    ),
    EngineRegistration(
        "predabs",
        PredicateAbstractionEngine,
        aliases=("predicate-abstraction",),
        summary="Boolean predicate abstraction with CEGAR",
    ),
    EngineRegistration(
        "absint",
        AbstractInterpretationEngine,
        aliases=("abstract-interpretation", "intervals"),
        summary="interval abstract interpretation (may raise false alarms)",
        # not raced by the all-at-once portfolio (too incomplete to spend a
        # process on), but a near-free first rung for the budget ladder
        ladder=True,
    ),
    EngineRegistration(
        "rsim",
        RandomSimulationEngine,
        aliases=("random-sim", "random-simulation"),
        summary="bit-parallel random-simulation falsification (refutation only)",
        # not worth a portfolio process (BMC subsumes it there), but on the
        # budget ladder's cheap rung it finds the deep paper bugs (cycles
        # 64/65) in milliseconds, ahead of BMC to the bound cap
        ladder=True,
    ),
    EngineRegistration(
        "oracle",
        OracleEngine,
        summary="fault injection: claims a fixed verdict with a forged certificate",
    ),
]


#: every engine name and alias -> its registration (case-insensitive keys)
ENGINE_REGISTRY: Dict[str, EngineRegistration] = {}
for _registration in _REGISTRATIONS:
    for _key in (_registration.name, *_registration.aliases):
        if _key in ENGINE_REGISTRY:  # pragma: no cover - registration-time guard
            raise ValueError(f"duplicate engine registration {_key!r}")
        ENGINE_REGISTRY[_key] = _registration


def list_engines(
    portfolio_only: bool = False, ladder_only: bool = False
) -> List[EngineRegistration]:
    """Return the deduplicated registrations, in registration order.

    Each entry carries the canonical name and its aliases; with
    ``portfolio_only`` the list is restricted to the engines raced by the
    default portfolio, with ``ladder_only`` to the engines scheduled by the
    default budget ladder.
    """
    return [
        registration
        for registration in _REGISTRATIONS
        if (not portfolio_only or registration.portfolio)
        and (not ladder_only or registration.in_ladder)
    ]


def get_registration(name: str) -> EngineRegistration:
    """Look up an engine registration by (case-insensitive) name or alias."""
    key = name.lower()
    if key not in ENGINE_REGISTRY:
        canonical = ", ".join(registration.name for registration in _REGISTRATIONS)
        raise KeyError(f"unknown engine {name!r}; available: {canonical}")
    return ENGINE_REGISTRY[key]


def make_engine(
    name: str,
    system: TransitionSystem,
    ignore_unknown_options: bool = False,
    **options,
) -> Engine:
    """Instantiate an engine by (case-insensitive) name.

    Options are validated against the engine's declared constructor
    signature: unknown options raise
    :class:`repro.engines.base.EngineOptionError` naming the supported ones,
    unless ``ignore_unknown_options`` routes them away (used by drivers that
    pass one shared option bag to heterogeneous engines, keeping only what
    each engine understands).
    """
    registration = get_registration(name)
    accepted = registration.engine_class.validate_options(
        options, ignore_unknown=ignore_unknown_options
    )
    return registration.engine_class(system, **accepted)


__all__ = [
    "ENGINE_REGISTRY",
    "EngineRegistration",
    "EngineOptionError",
    "get_registration",
    "list_engines",
    "make_engine",
]
