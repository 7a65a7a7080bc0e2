"""Certificate-keyed verification result cache.

The serving hot path of the reproduction: repeated verification queries are
answered from an on-disk store of validated certificates keyed by a content
hash of ``(design, property, representation)``.  A hit *re-validates* the
stored certificate with the independent checker instead of re-running an
engine — far cheaper, and exactly as trustworthy (an entry that fails
re-validation is demoted to a miss and dropped).  SAFE certificates are
minimized before storage so hit latency stays low; a pool worker certifies
its own verdict (:func:`certify_result`) and the parent commits the bytes.
"""

from repro.cache.key import KEY_FORMAT, cache_key, system_to_canonical_json
from repro.cache.minimize import (
    MinimizationResult,
    join_conjuncts,
    minimize_certificate,
    split_conjuncts,
)
from repro.cache.result_cache import (
    CacheLookup,
    CacheStoreOutcome,
    Certification,
    ResultCache,
    certify_result,
)
from repro.cache.store import (
    ENTRY_FORMAT,
    QUARANTINE_DIR,
    CacheEntry,
    CertificateStore,
)

__all__ = [
    "KEY_FORMAT",
    "ENTRY_FORMAT",
    "QUARANTINE_DIR",
    "cache_key",
    "system_to_canonical_json",
    "CacheEntry",
    "CertificateStore",
    "MinimizationResult",
    "minimize_certificate",
    "split_conjuncts",
    "join_conjuncts",
    "CacheLookup",
    "CacheStoreOutcome",
    "Certification",
    "ResultCache",
    "certify_result",
]
