"""Canonical content keys for verification queries.

A cached verdict may only be served for the *exact* query that produced it:
the same design semantics, the same property and the same frame
representation.  The key is therefore a content hash of the full
``(TransitionSystem, property, representation)`` triple — every declared
signal, initial value, next-state function, environment constraint, wire
definition and the property expression are serialized into one canonical
JSON document (expressions through the stable node format of
:mod:`repro.certs.exprjson`) and digested with SHA-256.

Any semantic mutation of the design — a changed width, a different reset
value, an edited next-state function, an added constraint — changes the key,
so a stale entry can never be looked up.  Renaming-only changes also change
the key: the cache prefers a spurious miss (re-verify) over any risk of a
wrong hit, and a hit is *re-validated* against the queried design anyway
(see :mod:`repro.cache.result_cache`).
"""

from __future__ import annotations

import hashlib
import json

from repro.certs.exprjson import expr_to_json
from repro.netlist import TransitionSystem

#: format tag baked into every key so key-schema changes invalidate old stores
KEY_FORMAT = "repro-cache-key-v1"


def system_to_canonical_json(system: TransitionSystem) -> dict:
    """Serialize a design's verification-relevant content canonically.

    Signal maps are sorted by name so that declaration order does not leak
    into the key; constraint order is kept (it is part of how the design was
    stated, and order sensitivity can only cause a miss, never a wrong hit).
    """
    return {
        "name": system.name,
        "inputs": sorted(system.inputs.items()),
        "state_vars": sorted(system.state_vars.items()),
        "init": sorted(
            (name, expr_to_json(expr)) for name, expr in system.init.items()
        ),
        "next": sorted(
            (name, expr_to_json(expr)) for name, expr in system.next.items()
        ),
        "wires": sorted(
            (name, expr_to_json(expr)) for name, expr in system.wires.items()
        ),
        "constraints": [expr_to_json(expr) for expr in system.constraints],
    }


def cache_key(
    system: TransitionSystem, property_name: str, representation: str = "word"
) -> str:
    """The cache key of one verification query, as a SHA-256 hex digest."""
    prop = system.property_by_name(property_name)
    document = {
        "format": KEY_FORMAT,
        "representation": representation,
        "property": property_name,
        "property_expr": expr_to_json(prop.expr),
        "system": system_to_canonical_json(system),
    }
    payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()

