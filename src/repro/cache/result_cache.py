"""The certificate-keyed result cache: re-validate instead of re-verify.

:class:`ResultCache` serves repeated verification queries from a store of
validated certificates.  The contract:

* the key is a content hash of ``(design, property, representation)``
  (:func:`repro.cache.key.cache_key`), so any semantic mutation of the query
  misses;
* a lookup *never* trusts the store: the entry's certificate is re-validated
  against the queried design by the independent
  :class:`repro.certs.CertificateValidator` before the verdict is served.  A
  hit is a validated certificate; an entry that fails re-validation (corrupt,
  tampered, or wrong) is deleted and reported as a miss;
* only definitive verdicts carrying certificates that the validator accepts
  are stored, and SAFE certificates are shrunk first
  (:mod:`repro.cache.minimize`) so the re-validation on future hits stays
  fast.

A store is two steps.  :func:`certify_result` validates the result,
minimizes a SAFE certificate and encodes the entry; it returns the exact
bytes it validated, or why it refused.  It runs wherever the verdict was
produced: in the batch and server pool worker, next to the ladder, or in
this process for :meth:`ResultCache.store`.  :meth:`ResultCache.commit` then
re-checks the cheap provenance (key, status, certificate kind, property),
writes those bytes and memoizes their digest.  :meth:`ResultCache.store` is
exactly ``commit(certify_result(...))``, so there is one store path.

Re-validating is much cheaper than re-verifying: the engine searched for the
invariant or trace, the validator only checks it (a handful of SAT queries
respectively one concrete replay).  Within one process it is done once per
*content*: the validator is deterministic over (design, entry bytes), so a
passed validation is memoized under ``(cache key, SHA-256 of the entry
bytes)`` — the key hashes the design, the digest the certificate.  Any
change to the stored bytes (tampering, a forged entry, a re-store) changes
the digest and forces a fresh validation.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.cache.key import cache_key
from repro.cache.minimize import MinimizationResult, minimize_certificate
from repro.cache.store import CacheEntry, CertificateStore, encode_entry
from repro.certs import (
    INDUCTIVE,
    K_INDUCTIVE,
    WITNESS,
    ValidationResult,
    certificate_from_json,
    certificate_to_json,
    validate_certificate,
)
from repro.engines.result import Status, VerificationResult
from repro.jsonio import write_json_atomic
from repro.netlist import TransitionSystem
from repro.obs import telemetry as _telemetry

#: validator passes the minimizer may spend on one SAFE certificate
MINIMIZE_MAX_CHECKS = 64

#: certificate kinds that can justify each definitive status (a witness can
#: never be served for SAFE, an invariant never for UNSAFE)
_KINDS_FOR_STATUS = {
    Status.UNSAFE: (WITNESS,),
    Status.SAFE: (INDUCTIVE, K_INDUCTIVE),
}


class ValidationMemo:
    """Passed validations of stored entries, keyed ``(cache key, digest)``.

    Bounded LRU, shared by every :class:`ResultCache` of the process, so a
    cache opened afresh on the same root (``repro-bench --serve`` opens one
    per sweep) still finds the validations of an earlier one.  Only passed
    validations are remembered: a failed or undecided one is always re-run.
    """

    def __init__(self, capacity: int = 4096) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[str, str], ValidationResult]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: str, digest: str) -> Optional[ValidationResult]:
        with self._lock:
            validation = self._entries.get((key, digest))
            if validation is not None:
                self._entries.move_to_end((key, digest))
            return validation

    def put(self, key: str, digest: str, validation: ValidationResult) -> None:
        if not (validation.ok and digest):
            return
        with self._lock:
            self._entries[(key, digest)] = validation
            self._entries.move_to_end((key, digest))
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


#: the process-wide memo of :meth:`ResultCache.lookup` and ``store``
VALIDATION_MEMO = ValidationMemo()


@dataclass
class CacheLookup:
    """Outcome of one cache lookup."""

    hit: bool
    key: str
    reason: str
    result: Optional[VerificationResult] = None
    entry: Optional[CacheEntry] = None
    validation: Optional[ValidationResult] = None
    #: an entry existed but failed re-validation and was dropped
    demoted: bool = False
    runtime_s: float = 0.0


@dataclass
class CacheStoreOutcome:
    """Outcome of offering one result to the cache."""

    stored: bool
    key: str
    reason: str
    path: Optional[str] = None
    minimization: Optional[MinimizationResult] = None
    validate_original_s: Optional[float] = None
    validate_minimized_s: Optional[float] = None
    #: seconds the certification took where it ran (validate + minimize)
    certify_s: float = 0.0


@dataclass
class Certification:
    """One result certified for the store, or the reason it was refused.

    ``raw`` holds the exact entry bytes whose certificate passed
    validation, ``digest`` their SHA-256.  ``validation`` is the passed
    validation of the stored certificate, or ``None`` when the bytes do not
    decode back to it (then no hit may skip re-validating them).
    """

    key: str
    reason: str
    raw: Optional[bytes] = None
    digest: str = ""
    status: str = ""
    kind: str = ""
    property_name: str = ""
    validation: Optional[ValidationResult] = None
    minimization: Optional[MinimizationResult] = None
    validate_original_s: Optional[float] = None
    validate_minimized_s: Optional[float] = None
    #: seconds spent certifying: validation, minimization and encoding
    certify_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.raw is not None


def _ladder_validation(result, certificate) -> Optional[ValidationResult]:
    """The passed validation ``run_config(certify=True)`` made of this result.

    The ladder validates a definitive winner next to the engine and records
    it in ``detail["validation"]``; that check stands in for the store's
    original one, so a certificate is not validated twice in a row.
    """
    detail = getattr(result, "detail", None)
    record = detail.get("validation") if isinstance(detail, dict) else None
    if not (
        isinstance(record, dict)
        and detail.get("certified") is True
        and record.get("ok") is True
        and record.get("kind") == getattr(certificate, "kind", None)
        and record.get("property") == getattr(certificate, "property_name", None)
    ):
        return None
    return ValidationResult.from_json(record)


def certify_result(
    system: TransitionSystem,
    property_name: str,
    representation: str,
    result: VerificationResult,
    design: str = "",
    timeout: Optional[float] = None,
) -> Certification:
    """Validate a definitive result and minimize its SAFE certificate.

    Returns the encoded cache entry of the validated (and possibly
    minimized) certificate, or the reason it cannot be stored.  ``timeout``
    bounds each validation and the minimization.  The timing of the original
    and minimized validator passes is recorded so harnesses can report the
    hit-latency effect of minimization.
    """
    start = time.monotonic()
    key = cache_key(system, property_name, representation)
    with _telemetry.span("cache.certify", key=key, property=property_name) as span:

        def refuse(reason: str, **extra) -> Certification:
            span.set_outcome("rejected")
            return Certification(
                key, reason, certify_s=time.monotonic() - start, **extra
            )

        certificate = getattr(result, "certificate", None)
        allowed = _KINDS_FOR_STATUS.get(result.status)
        if allowed is None:
            return refuse("verdict is not definitive")
        if certificate is None:
            return refuse("result carries no certificate")
        if getattr(certificate, "kind", None) not in allowed:
            return refuse("certificate kind cannot justify the verdict")
        if getattr(certificate, "property_name", None) != property_name:
            return refuse("certificate/property provenance mismatch")

        validation = _ladder_validation(result, certificate)
        if validation is None:
            validation = validate_certificate(system, certificate, timeout=timeout)
        validate_original_s = validation.runtime
        if not validation.ok:
            _telemetry.counter("cache.store_rejected")
            return refuse(
                f"certificate failed validation: {validation.reason}",
                validate_original_s=validate_original_s,
            )

        minimization: Optional[MinimizationResult] = None
        validate_minimized_s = validate_original_s
        if result.status == Status.SAFE:
            with _telemetry.span("cache.minimize", key=key) as minimize_span:
                minimization = minimize_certificate(
                    system, certificate, timeout=timeout, max_checks=MINIMIZE_MAX_CHECKS
                )
                minimize_span.annotate(dropped=minimization.dropped)
            if minimization.dropped:
                final = validate_certificate(
                    system, minimization.certificate, timeout=timeout
                )
                if final.ok:
                    certificate = minimization.certificate
                    validation = final
                    validate_minimized_s = final.runtime
                else:  # pragma: no cover - minimizer re-checks drops
                    minimization = None

        # both single-engine VerificationResults and aggregated
        # PortfolioResults (winner_engine) are storable
        engine = (
            getattr(result, "engine", None)
            or getattr(result, "winner_engine", None)
            or ""
        )
        entry = CacheEntry(
            key=key,
            status=result.status,
            property_name=property_name,
            engine=engine,
            representation=representation,
            certificate=certificate,
            design=design or getattr(system, "name", ""),
            minimized=bool(minimization and minimization.dropped),
            original_size=minimization.original_size if minimization else None,
            size=minimization.size if minimization else None,
            extra={
                "validate_original_s": round(validate_original_s, 6),
                "validate_minimized_s": round(validate_minimized_s, 6),
            },
        )
        raw = encode_entry(entry)
        span.set_outcome("certified")
        return Certification(
            key,
            "certified",
            raw=raw,
            digest=entry.digest,
            status=entry.status,
            kind=certificate.kind,
            property_name=property_name,
            # the bytes decode to the certificate just validated, so hits on
            # them need not validate it again in this process
            validation=validation if _round_trips(certificate) else None,
            minimization=minimization,
            validate_original_s=validate_original_s,
            validate_minimized_s=validate_minimized_s,
            certify_s=time.monotonic() - start,
        )


class PersistentCounters:
    """Lifetime cache counters persisted next to the entries.

    The in-memory counters on :class:`ResultCache` reset with every process;
    these survive in ``<root>/counters.json`` (atomic writes, tolerant of a
    missing or corrupt file) so ``repro-cache stats`` can report hit/miss/
    re-validation totals across the cache's whole life, not just the current
    CLI invocation.
    """

    FILENAME = "counters.json"
    FIELDS = (
        "hits",
        "misses",
        "stores",
        "demotions",
        "revalidations_ok",
        "revalidations_failed",
    )

    def __init__(self, root: str) -> None:
        self.path = os.path.join(root, self.FILENAME)
        self.values: Dict[str, int] = {name: 0 for name in self.FIELDS}
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                loaded = json.load(handle)
            for name in self.FIELDS:
                value = loaded.get(name)
                if isinstance(value, int) and value >= 0:
                    self.values[name] = value
        except (OSError, ValueError):
            pass  # fresh cache or corrupt counter file: start from zero

    def bump(self, **deltas: int) -> None:
        for name, delta in deltas.items():
            if delta:
                self.values[name] = self.values.get(name, 0) + delta
        try:
            write_json_atomic(self.path, self.values)
        except OSError:  # pragma: no cover - read-only cache directory
            pass

    def as_dict(self) -> Dict[str, int]:
        return dict(self.values)


class ResultCache:
    """An on-disk, certificate-keyed verification result cache."""

    def __init__(
        self,
        root: str,
        validation_timeout: Optional[float] = None,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        self.store_backend = CertificateStore(
            root, max_entries=max_entries, max_bytes=max_bytes
        )
        #: deadline of every validation this cache runs, or a worker runs
        #: certifying a result for it
        self.validation_timeout = validation_timeout
        # observability counters (per ResultCache instance)
        self.hits = 0
        self.misses = 0
        self.demotions = 0
        self.stores = 0
        #: hits whose validation came from :data:`VALIDATION_MEMO`
        self.memo_hits = 0
        # lifetime counters shared by every process using this cache root
        self.persistent = PersistentCounters(self.store_backend.root)

    # ------------------------------------------------------------------
    @property
    def root(self) -> str:
        return self.store_backend.root

    def key_for(
        self, system: TransitionSystem, property_name: str, representation: str = "word"
    ) -> str:
        return cache_key(system, property_name, representation)

    # ------------------------------------------------------------------
    def lookup(
        self,
        system: TransitionSystem,
        property_name: str,
        representation: str = "word",
    ) -> CacheLookup:
        """Look one query up; a hit is served only after re-validation."""
        start = time.monotonic()
        key = self.key_for(system, property_name, representation)
        with _telemetry.span(
            "cache.lookup", key=key, property=property_name
        ) as lookup_span:

            def miss(
                reason: str,
                demoted: bool = False,
                revalidate_failed: bool = False,
                **extra,
            ) -> CacheLookup:
                self.misses += 1
                if demoted:
                    self.demotions += 1
                self.persistent.bump(
                    misses=1,
                    demotions=1 if demoted else 0,
                    revalidations_failed=1 if revalidate_failed else 0,
                )
                _telemetry.counter("cache.miss")
                if demoted:
                    _telemetry.counter("cache.demotion")
                if revalidate_failed:
                    _telemetry.counter("cache.revalidate_fail")
                lookup_span.set_outcome("demoted" if demoted else "miss")
                return CacheLookup(
                    False,
                    key,
                    reason,
                    demoted=demoted,
                    runtime_s=time.monotonic() - start,
                    **extra,
                )

            entry = self.store_backend.load(key)
            if entry is None:
                return miss("absent")
            allowed = _KINDS_FOR_STATUS.get(entry.status)
            certificate_kind = getattr(entry.certificate, "kind", None)
            if (
                allowed is None
                or certificate_kind not in allowed
                or entry.property_name != property_name
                or getattr(entry.certificate, "property_name", None) != property_name
            ):
                # malformed provenance: the certificate cannot justify the claim
                self.store_backend.delete(key)
                return miss(
                    "entry cannot justify its verdict", demoted=True, entry=entry
                )

            validation = VALIDATION_MEMO.get(key, entry.digest)
            memoized = validation is not None
            if validation is None:
                validation = validate_certificate(
                    system, entry.certificate, timeout=self.validation_timeout
                )
                VALIDATION_MEMO.put(key, entry.digest, validation)
            else:
                self.memo_hits += 1
                _telemetry.counter("cache.validation_memo_hit")
            if not validation.ok:
                self.store_backend.delete(key)
                return miss(
                    f"re-validation failed: {validation.reason}",
                    demoted=True,
                    revalidate_failed=True,
                    entry=entry,
                    validation=validation,
                )

            self.hits += 1
            self.persistent.bump(hits=1, revalidations_ok=1)
            _telemetry.counter("cache.hit")
            lookup_span.set_outcome("hit")
            runtime = time.monotonic() - start
            result = VerificationResult(
                entry.status,
                f"cache:{entry.engine}" if entry.engine else "cache",
                property_name,
                runtime=runtime,
                detail={
                    "cache": {
                        "key": key,
                        "design": entry.design,
                        "engine": entry.engine,
                        "representation": entry.representation,
                        "minimized": entry.minimized,
                        "invariant_size": entry.size,
                        "validation_memoized": memoized,
                    },
                    "validation": validation.to_json(),
                },
                reason="served from the certificate cache after re-validation",
                certificate=entry.certificate,
            )
            return CacheLookup(
                True,
                key,
                "hit (re-validated)",
                result=result,
                entry=entry,
                validation=validation,
                runtime_s=runtime,
            )

    # ------------------------------------------------------------------
    def store(
        self,
        system: TransitionSystem,
        property_name: str,
        representation: str,
        result: VerificationResult,
        design: str = "",
    ) -> CacheStoreOutcome:
        """Offer one engine result to the cache: certify it, then commit it.

        Only definitive verdicts whose certificate the independent validator
        accepts enter the store; SAFE certificates are minimized first (see
        :func:`certify_result`).
        """
        certification = certify_result(
            system, property_name, representation, result, design, self.validation_timeout
        )
        return self.commit(
            certification,
            key=certification.key,
            property_name=property_name,
            status=result.status,
        )

    def commit(
        self, certification: Certification, *, key: str, property_name: str, status: str
    ) -> CacheStoreOutcome:
        """Write a certification's entry bytes exactly as they were validated.

        ``key``, ``property_name`` and ``status`` describe the query and
        verdict the caller holds; the certification must match them, with a
        certificate kind that can justify the status, or nothing is written
        (the cheap provenance re-check of bytes certified elsewhere).  The
        bytes' digest goes into :data:`VALIDATION_MEMO`, so a hit on them in
        this process skips re-validation, while any rewrite of the bytes
        changes the digest and is validated afresh.
        """
        with _telemetry.span("cache.store", key=key, property=property_name) as store_span:

            def outcome(stored: bool, reason: str, path: Optional[str] = None):
                store_span.set_outcome("stored" if stored else "rejected")
                return CacheStoreOutcome(
                    stored,
                    key,
                    reason,
                    path=path,
                    minimization=certification.minimization if stored else None,
                    validate_original_s=certification.validate_original_s,
                    validate_minimized_s=certification.validate_minimized_s,
                    certify_s=certification.certify_s,
                )

            if not certification.ok:
                return outcome(False, certification.reason)
            if (
                certification.key != key
                or certification.property_name != property_name
                or certification.status != status
                or certification.kind not in _KINDS_FOR_STATUS.get(status, ())
            ):
                return outcome(False, "certification provenance mismatch")
            path = self.store_backend.save_bytes(key, certification.raw)
            if certification.validation is not None:
                VALIDATION_MEMO.put(key, certification.digest, certification.validation)
            self.stores += 1
            self.persistent.bump(stores=1)
            _telemetry.counter("cache.store")
            return outcome(True, "stored", path)

    # ------------------------------------------------------------------
    def fsck(
        self,
        resolve: Optional[Callable[[CacheEntry], Optional[TransitionSystem]]] = None,
        prune: bool = True,
    ) -> Dict[str, object]:
        """Re-validate every store entry and heal what fails.

        For each key: an undecodable document is quarantined (by the load
        path), an entry whose certificate cannot justify its verdict or
        fails independent re-validation against its design is pruned
        (``prune=False`` only reports).  ``resolve`` maps an entry to its
        :class:`~repro.netlist.TransitionSystem`; the default resolver
        loads suite benchmarks by the recorded design name — entries whose
        design it cannot resolve get the structural checks only and are
        reported as ``unresolved``.
        """
        if resolve is None:
            resolve = _resolve_benchmark_design

        report: Dict[str, object] = {
            "checked": 0,
            "ok": 0,
            "pruned": [],
            "quarantined": [],
            "unresolved": [],
        }
        for key in list(self.store_backend.keys()):
            report["checked"] += 1
            quarantined_before = self.store_backend.quarantined
            entry = self.store_backend.load(key)
            if entry is None:
                if self.store_backend.quarantined > quarantined_before:
                    report["quarantined"].append(key)
                continue

            def fail(reason: str) -> None:
                if prune:
                    self.store_backend.delete(key)
                report["pruned"].append({"key": key, "reason": reason})

            allowed = _KINDS_FOR_STATUS.get(entry.status)
            kind = getattr(entry.certificate, "kind", None)
            if allowed is None or kind not in allowed:
                fail("certificate kind cannot justify the verdict")
                continue
            if getattr(entry.certificate, "property_name", None) != entry.property_name:
                fail("certificate/property provenance mismatch")
                continue
            system = resolve(entry)
            if system is None:
                report["unresolved"].append(key)
                report["ok"] += 1  # structurally sound; design not at hand
                continue
            validation = VALIDATION_MEMO.get(key, entry.digest)
            memoized = validation is not None
            if validation is None:
                validation = validate_certificate(
                    system, entry.certificate, timeout=self.validation_timeout
                )
                VALIDATION_MEMO.put(key, entry.digest, validation)
            else:
                self.memo_hits += 1
                _telemetry.counter("cache.validation_memo_hit")
            if not validation.ok:
                fail(f"re-validation failed: {validation.reason}")
                continue
            report["ok"] += 1

        report["entries"] = len(self.store_backend)
        report["bytes"] = self.store_backend.total_bytes()
        report["quarantine_backlog"] = len(self.store_backend.quarantine_keys())
        report["clean"] = not report["pruned"] and not report["quarantined"]
        return report

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "demotions": self.demotions,
            "stores": self.stores,
            "memo_hits": self.memo_hits,
            "entries": len(self.store_backend),
            "evictions": self.store_backend.evictions,
            "quarantined": self.store_backend.quarantined,
            "lifetime": self.persistent.as_dict(),
        }


def _round_trips(certificate) -> bool:
    """Whether the stored document decodes back to the same document."""
    document = certificate_to_json(certificate)
    try:
        return certificate_to_json(certificate_from_json(document)) == document
    except Exception:  # noqa: BLE001 - an undecodable document never round-trips
        return False


def _resolve_benchmark_design(entry: CacheEntry) -> Optional[TransitionSystem]:
    """Default fsck resolver: look the recorded design name up in the suite."""
    if not entry.design:
        return None
    try:
        from repro.benchmarks import load_system_cached

        return load_system_cached(entry.design)
    except Exception:  # noqa: BLE001 - unknown design name
        return None
