"""Independent validation of witnesses and safety certificates.

The validator deliberately shares no code with the producing engines: it
never touches :class:`repro.engines.encoding.FrameEncoder`, the frame
templates or any engine module.  Witnesses are replayed *concretely* through
the scalar reference simulator; safety certificates are discharged with
fresh SAT queries over expressions the validator stamps itself
(``name#frame``), one fresh solver per obligation:

* witness — ``property-exists``; ``constraints-hold``: every environment
  constraint holds at cycles ``0..c`` of the replay, where ``c`` is the
  first violation; ``violation-reached``: the claimed property is violated
  at some cycle ``c`` of the replay.  Both replay obligations are decided by
  :func:`repro.netlist.simulate.first_violation`, the one violation rule
  the SAT frames and the packed simulator also follow,
* inductive invariant ``Inv`` — ``Init ∧ C ⊆ Inv``, ``Inv ∧ C ∧ T ⊆ Inv′``
  and ``Inv ∧ C ⊆ P`` (``C`` are the design's environment constraints, which
  scope reachability),
* k-inductive claim — the auxiliary invariants are jointly inductive, the
  property holds in the first ``k`` frames from reset, and ``k`` consecutive
  property frames (under the auxiliary invariants and optionally the
  simple-path side condition) force the property in frame ``k``.

Each obligation is recorded separately so a failed validation names exactly
which proof step broke.

**Cone of influence.**  An obligation is a set of *conjuncts* (reset state,
environment constraints at every frame, invariants, the negated property,
simple-path) plus the transition *definitions* ``v#(f+1) = next(v)@f``, one
per register and step.  Only the conjuncts are asserted outright; a
definition is added when its target is referenced by something already
asserted, to a fixpoint, so logic the obligation never reads (the multiplier
behind ``mac16.acc`` for a property over ``cnt``) is never bit-blasted.  This
is exactly equisatisfiable: each target is defined once and definitions only
point backwards in time (frame ``f + 1`` from frame ``f``), so any model of
the kept formula extends to the dropped definitions by evaluating them in
frame order — none of their targets is read by a kept formula.  And dropping
conjuncts can only turn UNSAT into SAT, never the reverse, so a ``holds``
outcome on the cone is a ``holds`` on the whole obligation.  Every
obligation note records the kept/total definition count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.certs.certificate import (
    INDUCTIVE,
    K_INDUCTIVE,
    WITNESS,
    InductiveCertificate,
    KInductiveCertificate,
    Witness,
)
from repro.exprs import (
    Expr,
    TRUE,
    bool_and,
    bool_not,
    bool_or,
    bv_eq,
    bv_ne,
    bv_var,
    collect_vars,
)
from repro.exprs.substitute import rename
from repro.netlist import TransitionSystem
from repro.netlist.simulate import first_violation
from repro.obs import telemetry as _telemetry
from repro.smt import BVResult, BVSolver

#: validation outcome of one obligation
HOLDS = "holds"
FAILED = "failed"
UNDECIDED = "undecided"  # solver gave up (deadline)


@dataclass
class Obligation:
    """One discharged (or failed) proof obligation."""

    name: str
    outcome: str
    note: str = ""

    @property
    def holds(self) -> bool:
        return self.outcome == HOLDS


@dataclass
class ValidationResult:
    """The outcome of validating one certificate against one design."""

    ok: bool
    kind: str
    property_name: str
    engine: str = ""
    obligations: List[Obligation] = field(default_factory=list)
    reason: str = ""
    runtime: float = 0.0

    def failed_obligations(self) -> List[Obligation]:
        return [o for o in self.obligations if not o.holds]

    def to_json(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "kind": self.kind,
            "property": self.property_name,
            "engine": self.engine,
            "obligations": {o.name: o.outcome for o in self.obligations},
            "reason": self.reason,
            "runtime_s": round(self.runtime, 6),
        }

    @staticmethod
    def from_json(document: Dict[str, object]) -> "ValidationResult":
        """Rebuild a result from :meth:`to_json` (obligation notes are not kept)."""
        return ValidationResult(
            bool(document.get("ok")),
            str(document.get("kind", "")),
            str(document.get("property", "")),
            engine=str(document.get("engine", "")),
            obligations=[
                Obligation(str(name), str(outcome))
                for name, outcome in dict(document.get("obligations", {})).items()
            ],
            reason=str(document.get("reason", "")),
            runtime=float(document.get("runtime_s", 0.0)),
        )


class CertificateValidator:
    """Discharges certificate obligations against one transition system."""

    def __init__(self, system: TransitionSystem, timeout: Optional[float] = None) -> None:
        self.system = system
        self.flat = system.flattened()
        self.flat.validate()
        self.timeout = timeout
        self._deadline: Optional[float] = None

    # ------------------------------------------------------------------
    def validate(self, certificate) -> ValidationResult:
        """Validate any certificate kind; never raises on bad certificates."""
        start = time.monotonic()
        self._deadline = None if self.timeout is None else start + self.timeout
        kind = getattr(certificate, "kind", None)
        with _telemetry.span(
            "certs.validate",
            kind=str(kind),
            property=getattr(certificate, "property_name", ""),
        ) as validate_span:
            try:
                if kind == WITNESS:
                    result = self._validate_witness(certificate)
                elif kind == INDUCTIVE:
                    result = self._validate_inductive(certificate)
                elif kind == K_INDUCTIVE:
                    result = self._validate_k_inductive(certificate)
                else:
                    result = ValidationResult(
                        False, str(kind), "", reason=f"unknown certificate kind {kind!r}"
                    )
            except Exception as error:  # noqa: BLE001 - malformed certificates
                result = ValidationResult(
                    False,
                    str(kind),
                    getattr(certificate, "property_name", ""),
                    engine=getattr(certificate, "engine", ""),
                    reason=f"{type(error).__name__}: {error}",
                )
            result.runtime = time.monotonic() - start
            validate_span.set_outcome("ok" if result.ok else "failed")
            validate_span.annotate(obligations=len(result.obligations))
            _telemetry.counter(
                "certs.validations.ok" if result.ok else "certs.validations.failed"
            )
        return result

    # ------------------------------------------------------------------
    # witness replay
    # ------------------------------------------------------------------
    def _validate_witness(self, witness: Witness) -> ValidationResult:
        result = ValidationResult(
            False, WITNESS, witness.property_name, engine=witness.engine
        )
        try:
            prop = self.system.property_by_name(witness.property_name)
        except KeyError:
            result.reason = f"design declares no property {witness.property_name!r}"
            result.obligations.append(Obligation("property-exists", FAILED))
            return result
        result.obligations.append(Obligation("property-exists", HOLDS))
        if not witness.inputs:
            result.reason = "witness has no cycles"
            result.obligations.append(Obligation("violation-reached", FAILED))
            return result

        # only the *claimed* property is watched, so another property failing
        # earlier cannot mask the violation
        verdict = first_violation(
            self.system, witness.input_sequence(), properties=[prop.name]
        )
        if verdict.constraint_failed_at is not None:
            result.reason = (
                f"an environment constraint fails at cycle "
                f"{verdict.constraint_failed_at}, before any violation of "
                f"{witness.property_name!r}"
            )
            result.obligations.append(Obligation("constraints-hold", FAILED, result.reason))
            return result
        if not verdict.violated:
            result.reason = (
                f"replay never violates {witness.property_name!r} "
                f"within {witness.length} cycles"
            )
            result.obligations.append(Obligation("violation-reached", FAILED, result.reason))
            return result
        result.obligations.append(
            Obligation("constraints-hold", HOLDS, f"at cycles 0..{verdict.cycle}")
        )
        note = f"violated at cycle {verdict.cycle} (claimed {witness.violation_cycle})"
        result.obligations.append(Obligation("violation-reached", HOLDS, note))
        result.ok = True
        result.reason = note
        return result

    # ------------------------------------------------------------------
    # expression stamping (independent of the engines' frame encoder)
    # ------------------------------------------------------------------
    @staticmethod
    def _at(expr: Expr, frame: int) -> Expr:
        return rename(expr, lambda name: f"{name}#{frame}")

    def _init_expr(self) -> Expr:
        return bool_and(
            *[
                bv_eq(bv_var(name, width), self.flat.init[name])
                for name, width in self.flat.state_vars.items()
            ]
        )

    def _trans_exprs(self, frame: int) -> Tuple[List[Expr], Dict[str, Expr]]:
        """Step ``frame`` → ``frame + 1``: constraints at ``frame`` (conjuncts)
        and ``v#(frame+1) = next(v)@frame`` (definitions, keyed by target)."""
        definitions = {
            f"{name}#{frame + 1}": bv_eq(
                bv_var(f"{name}#{frame + 1}", self.flat.state_vars[name]),
                self._at(next_expr, frame),
            )
            for name, next_expr in self.flat.next.items()
        }
        return self._constraints_at(frame), definitions

    def _unroll(
        self, conjuncts: List[Expr], steps: int
    ) -> Tuple[List[Expr], Dict[str, Expr]]:
        """``steps`` transitions from frame 0, appended to ``conjuncts``."""
        definitions: Dict[str, Expr] = {}
        for frame in range(steps):
            constraints, step = self._trans_exprs(frame)
            conjuncts.extend(constraints)
            definitions.update(step)
        return conjuncts, definitions

    def _constraints_at(self, frame: int) -> List[Expr]:
        return [self._at(constraint, frame) for constraint in self.flat.constraints]

    def _unsat(
        self, conjuncts: List[Expr], definitions: Dict[str, Expr]
    ) -> Tuple[str, str]:
        """Check an obligation with a fresh solver; HOLDS iff unsatisfiable.

        Asserts every conjunct, then only the definitions in their cone of
        influence (see the module docstring).  Returns the outcome and a
        note with the kept/total definition count.
        """
        solver = BVSolver()
        solver.set_deadline(self._deadline)
        asserted: List[Expr] = list(conjuncts)
        kept = set()
        for expr in asserted:  # grows as the cone is reached
            solver.assert_expr(expr)
            # sorted: a deterministic assertion order, whatever the hash seed
            for var in sorted(collect_vars(expr), key=lambda v: v.name):
                if var.name in definitions and var.name not in kept:
                    kept.add(var.name)
                    asserted.append(definitions[var.name])
        note = f"cone {len(kept)}/{len(definitions)} definitions"
        outcome = solver.check()
        if outcome == BVResult.UNSAT:
            return HOLDS, note
        if outcome == BVResult.SAT:
            return FAILED, note
        return UNDECIDED, note

    def _check_state_expr(self, expr: Expr, label: str) -> Optional[str]:
        """Reject invariants mentioning signals that are not state variables."""
        for var in collect_vars(expr):
            if var.name not in self.flat.state_vars:
                return f"{label} mentions non-state signal {var.name!r}"
            if var.width != self.flat.state_vars[var.name]:
                return (
                    f"{label} uses {var.name!r} with width {var.width}, "
                    f"declared {self.flat.state_vars[var.name]}"
                )
        return None

    # ------------------------------------------------------------------
    # inductive invariants
    # ------------------------------------------------------------------
    def _validate_inductive(self, certificate: InductiveCertificate) -> ValidationResult:
        result = ValidationResult(
            False, INDUCTIVE, certificate.property_name, engine=certificate.engine
        )
        try:
            prop = self.flat.property_by_name(certificate.property_name)
        except KeyError:
            result.reason = f"design declares no property {certificate.property_name!r}"
            result.obligations.append(Obligation("property-exists", FAILED))
            return result
        invariant = certificate.invariant
        if invariant.width != 1:
            result.reason = "invariant is not a 1-bit expression"
            result.obligations.append(Obligation("well-formed", FAILED, result.reason))
            return result
        complaint = self._check_state_expr(invariant, "invariant")
        if complaint is not None:
            result.reason = complaint
            result.obligations.append(Obligation("well-formed", FAILED, complaint))
            return result
        result.obligations.append(Obligation("well-formed", HOLDS))

        checks = [
            (
                "init",  # Init ∧ C ⊆ Inv
                [self._at(self._init_expr(), 0)]
                + self._constraints_at(0)
                + [self._at(bool_not(invariant), 0)],
                {},
            ),
            (
                "consecution",  # Inv ∧ C ∧ T ⊆ Inv′
                *self._unroll(
                    [self._at(invariant, 0), self._at(bool_not(invariant), 1)], 1
                ),
            ),
            (
                "property",  # Inv ∧ C ⊆ P
                [self._at(invariant, 0)]
                + self._constraints_at(0)
                + [self._at(bool_not(prop.expr), 0)],
                {},
            ),
        ]
        return self._discharge(result, checks)

    # ------------------------------------------------------------------
    # k-induction
    # ------------------------------------------------------------------
    def _validate_k_inductive(self, certificate: KInductiveCertificate) -> ValidationResult:
        result = ValidationResult(
            False, K_INDUCTIVE, certificate.property_name, engine=certificate.engine
        )
        try:
            prop = self.flat.property_by_name(certificate.property_name)
        except KeyError:
            result.reason = f"design declares no property {certificate.property_name!r}"
            result.obligations.append(Obligation("property-exists", FAILED))
            return result
        if certificate.k < 1:
            result.reason = f"k must be >= 1, got {certificate.k}"
            result.obligations.append(Obligation("well-formed", FAILED, result.reason))
            return result
        for invariant in certificate.invariants:
            complaint = (
                "auxiliary invariant is not a 1-bit expression"
                if invariant.width != 1
                else self._check_state_expr(invariant, "auxiliary invariant")
            )
            if complaint is not None:
                result.reason = complaint
                result.obligations.append(Obligation("well-formed", FAILED, complaint))
                return result
        result.obligations.append(Obligation("well-formed", HOLDS))

        k = certificate.k
        aux = bool_and(*certificate.invariants) if certificate.invariants else TRUE
        checks = []
        if certificate.invariants:
            checks.append(
                (
                    "aux-init",  # Init ∧ C ⊆ A
                    [self._at(self._init_expr(), 0)]
                    + self._constraints_at(0)
                    + [self._at(bool_not(aux), 0)],
                    {},
                )
            )
            checks.append(
                (
                    "aux-consecution",  # A ∧ C ∧ T ⊆ A′
                    *self._unroll([self._at(aux, 0), self._at(bool_not(aux), 1)], 1),
                )
            )

        # base: from reset, P holds in frames 0 .. k-1
        base, base_definitions = self._unroll([self._at(self._init_expr(), 0)], k - 1)
        base.extend(self._constraints_at(k - 1))
        base.append(
            bool_not(bool_and(*[self._at(prop.expr, frame) for frame in range(k)]))
        )
        checks.append(("base", base, base_definitions))

        # step: k consecutive (P ∧ A)-frames force P in frame k
        step: List[Expr] = []
        for frame in range(k):
            step.append(self._at(prop.expr, frame))
            step.append(self._at(aux, frame))
        step, step_definitions = self._unroll(step, k)
        step.append(self._at(aux, k))
        step.extend(self._constraints_at(k))
        if certificate.simple_path:
            step.extend(self._simple_path_exprs(k))
        step.append(self._at(bool_not(prop.expr), k))
        checks.append(("step", step, step_definitions))
        return self._discharge(result, checks)

    def _simple_path_exprs(self, last_frame: int) -> List[Expr]:
        """Pairwise-distinct state constraints over frames 0 .. last_frame."""
        exprs = []
        for i in range(last_frame + 1):
            for j in range(i + 1, last_frame + 1):
                differences = [
                    bv_ne(
                        bv_var(f"{name}#{i}", width),
                        bv_var(f"{name}#{j}", width),
                    )
                    for name, width in self.flat.state_vars.items()
                ]
                exprs.append(bool_or(*differences))
        return exprs

    # ------------------------------------------------------------------
    def _discharge(
        self,
        result: ValidationResult,
        checks: List[Tuple[str, List[Expr], Dict[str, Expr]]],
    ) -> ValidationResult:
        all_hold = True
        for name, conjuncts, definitions in checks:
            outcome, note = self._unsat(conjuncts, definitions)
            result.obligations.append(Obligation(name, outcome, note))
            if outcome != HOLDS:
                all_hold = False
                if not result.reason:
                    result.reason = (
                        f"obligation {name!r} "
                        f"{'is violated' if outcome == FAILED else 'could not be decided'}"
                    )
        result.ok = all_hold
        if all_hold:
            result.reason = "all obligations discharged"
        return result


# ---------------------------------------------------------------------------
# result-level entry points
# ---------------------------------------------------------------------------

#: which certificate kinds can justify which verdict
_KINDS_FOR_STATUS = {
    "unsafe": (WITNESS,),
    "safe": (INDUCTIVE, K_INDUCTIVE),
}


def validate_certificate(
    system: TransitionSystem, certificate, timeout: Optional[float] = None
) -> ValidationResult:
    """Validate one certificate against a design."""
    return CertificateValidator(system, timeout=timeout).validate(certificate)


def validate_result(
    system: TransitionSystem, result, timeout: Optional[float] = None
) -> ValidationResult:
    """Validate the certificate attached to a :class:`VerificationResult`.

    A definitive verdict without a certificate, or with a certificate kind
    that cannot justify the claimed status (a witness for SAFE, an invariant
    for UNSAFE), fails validation outright.
    """
    status = getattr(result, "status", None)
    certificate = getattr(result, "certificate", None)
    allowed = _KINDS_FOR_STATUS.get(status)
    if allowed is None:
        return ValidationResult(
            False,
            "",
            getattr(result, "property_name", ""),
            engine=getattr(result, "engine", ""),
            reason=f"status {status!r} is not a certifiable definitive verdict",
        )
    if certificate is None:
        return ValidationResult(
            False,
            "",
            getattr(result, "property_name", ""),
            engine=getattr(result, "engine", ""),
            reason=f"no certificate attached to the {status} verdict",
        )
    if getattr(certificate, "kind", None) not in allowed:
        return ValidationResult(
            False,
            str(getattr(certificate, "kind", None)),
            getattr(result, "property_name", ""),
            engine=getattr(result, "engine", ""),
            reason=(
                f"certificate kind {getattr(certificate, 'kind', None)!r} cannot "
                f"justify a {status} verdict"
            ),
        )
    return validate_certificate(system, certificate, timeout=timeout)
