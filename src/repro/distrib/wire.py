"""Versioned wire messages of the distributed aggregation tier.

A switch periodically ships its counter state to the aggregator as one
message per epoch: either a full **snapshot** or a **delta** against the last
epoch the aggregator acknowledged.  Messages ride inside the same
checksummed container the checkpoint layer writes to disk
(:func:`repro.core.checkpoint.pack_payload` - magic, format version, payload
length, SHA-256), so a truncated or corrupted message is rejected at the
framing layer before any of its content is trusted.

Inside the container, a message is a plain dict::

    {
        "format": "distrib-wire",
        "wire_version": 1,
        "kind": "snapshot" | "delta",
        "switch": <emitting switch id>,
        "epoch": <emission epoch>,
        "base_epoch": <acked epoch a delta is computed against, or None>,
        "geometry": {...},      # see algorithm_geometry()
        "total": <switch's cumulative packet count>,
        "nodes": [<per-lattice-node counter state or delta>, ...],
    }

The **geometry** block fingerprints everything a merge silently depends on -
hierarchy shape, lattice width, counter backend and its capacity, the
compression policy - so an aggregator built for a different configuration
rejects the message with a typed
:class:`~repro.exceptions.WireCompatibilityError` instead of merging
incompatible summaries (the cross-version compatibility contract the
property tests pin).

Per-node counter state uses the Space Saving entries codec where possible
(``(key, count, error)`` triples plus the absent-key floor - the form the
compression layer truncates and delta-encodes); any other mergeable backend
(the sketches, Misra-Gries) is carried whole via the pickle codec.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Optional, Tuple

from repro.core.checkpoint import pack_payload, unpack_payload
from repro.exceptions import CheckpointError, WireCompatibilityError, WireFormatError
from repro.hh.space_saving import SpaceSaving
from repro.hierarchy.base import Hierarchy

#: Wire protocol version; bumped on any incompatible message-schema change.
WIRE_VERSION = 1

#: The ``format`` tag distinguishing wire messages from checkpoint payloads.
WIRE_FORMAT = "distrib-wire"

#: Message kinds.
KIND_SNAPSHOT = "snapshot"
KIND_DELTA = "delta"


# --------------------------------------------------------------------------- #
# per-node counter state codec
# --------------------------------------------------------------------------- #


def encode_counter_state(counter: Any) -> Dict[str, Any]:
    """Snapshot one counter summary as plain wire data.

    Space Saving summaries become the entries codec - the compressible,
    delta-encodable form; anything else is shipped whole via pickle (it
    still merges at the aggregator, it just cannot be truncated).
    """
    if (
        hasattr(counter, "_entries")
        and hasattr(counter, "_absent_floor")
        and hasattr(counter, "capacity")
    ):
        return {
            "codec": "space_saving",
            "capacity": int(counter.capacity),
            "total": int(counter.total),
            # ascending-count order, the order _rebuild consumes.
            "entries": [(key, int(count), int(error)) for key, count, error in counter._entries()],
            "absent_floor": int(counter._absent_floor),
            # iteration order, preserved so a decoded summary is
            # indistinguishable from the live one (the lockstep guarantee).
            "order": list(counter),
        }
    return {"codec": "pickle", "blob": copy.deepcopy(counter)}


def decode_counter_state(state: Dict[str, Any]) -> Any:
    """Materialise a counter summary from its wire state.

    The entries codec rebuilds a :class:`~repro.hh.space_saving.SpaceSaving`
    from its entries.  Returns a fresh object the caller may mutate (merge
    into) freely.
    """
    codec = state.get("codec")
    if codec == "pickle":
        return copy.deepcopy(state["blob"])
    if codec != "space_saving":
        raise WireFormatError(f"unknown counter codec {codec!r} in wire message")
    summary = SpaceSaving(capacity=int(state["capacity"]))
    summary._rebuild(
        [(key, count, error) for key, count, error in state["entries"]], int(state["total"])
    )
    order = state.get("order")
    if order is not None and len(order) == len(summary._where):
        summary._where = {key: summary._where[key] for key in order}
    summary._absent_floor = int(state["absent_floor"])
    return summary


# --------------------------------------------------------------------------- #
# geometry fingerprinting
# --------------------------------------------------------------------------- #


def algorithm_geometry(
    algorithm: Any, hierarchy: Hierarchy, *, top_k: Optional[int] = None
) -> Dict[str, Any]:
    """Fingerprint the merge-relevant shape of a lattice algorithm.

    Two parties can merge counter summaries only if these fields all agree:
    the hierarchy shape (same lattice, same node indexing), the number of
    per-node counters, the counter backend and its geometry (capacity for the
    tables, depth x width for the sketches), and the compression policy
    (truncation changes the shipped capacity).  ``top_k`` is the truncation
    limit in force, ``None`` for lossless shipping.
    """
    counters = getattr(algorithm, "_counters", None)
    if not counters:
        raise WireFormatError(
            f"{type(algorithm).__name__} keeps no per-node counter lattice; "
            "the distributed tier ships lattice algorithms (rhhh, mst, sampled_mst)"
        )
    probe = counters[0]
    geometry: Dict[str, Any] = {
        "algorithm": type(algorithm).__name__,
        "hierarchy_size": int(hierarchy.size),
        "hierarchy_depth": int(hierarchy.depth),
        "dimensions": int(hierarchy.dimensions),
        "nodes": len(counters),
        "counter": type(probe).__name__,
        "top_k": top_k,
    }
    capacity = getattr(probe, "capacity", None)
    if capacity is not None:
        shipped = int(capacity)
        if top_k is not None:
            shipped = min(shipped, int(top_k))
        geometry["capacity"] = shipped
    width = getattr(probe, "_width", None)
    depth = getattr(probe, "_depth", None)
    if width is not None and depth is not None:
        geometry["sketch"] = (int(depth), int(width))
    return geometry


def check_geometry(expected: Dict[str, Any], got: Dict[str, Any]) -> None:
    """Raise a typed error naming every field on which two geometries differ."""
    mismatches: Dict[str, Tuple[Any, Any]] = {}
    for field in sorted(set(expected) | set(got)):
        if expected.get(field) != got.get(field):
            mismatches[field] = (expected.get(field), got.get(field))
    if mismatches:
        detail = ", ".join(
            f"{field}: expected {exp!r}, got {val!r}"
            for field, (exp, val) in sorted(mismatches.items())
        )
        raise WireCompatibilityError(
            f"wire message geometry does not match this aggregator ({detail}); "
            "rebuild both ends from the same experiment spec",
            mismatches=mismatches,
        )


# --------------------------------------------------------------------------- #
# message encode/decode
# --------------------------------------------------------------------------- #


def encode_message(
    *,
    kind: str,
    switch: int,
    epoch: int,
    geometry: Dict[str, Any],
    total: int,
    nodes: List[Dict[str, Any]],
    base_epoch: Optional[int] = None,
) -> bytes:
    """Frame one wire message as container bytes ready for a transport."""
    if kind not in (KIND_SNAPSHOT, KIND_DELTA):
        raise WireFormatError(f"unknown wire message kind {kind!r}")
    if kind == KIND_DELTA and base_epoch is None:
        raise WireFormatError("delta messages need the base_epoch they are computed against")
    message = {
        "format": WIRE_FORMAT,
        "wire_version": WIRE_VERSION,
        "kind": kind,
        "switch": int(switch),
        "epoch": int(epoch),
        "base_epoch": None if base_epoch is None else int(base_epoch),
        "geometry": dict(geometry),
        "total": int(total),
        "nodes": nodes,
    }
    return pack_payload(message, label="wire message")


def decode_message(raw: bytes) -> Dict[str, Any]:
    """Verify and open a wire message.

    Raises:
        WireFormatError: the container framing fails (truncation, bad magic,
            checksum) or the schema inside is not a wire message.
        WireCompatibilityError: the message is well formed but speaks a
            different wire protocol version.
    """
    try:
        message = unpack_payload(raw, label="wire message")
    except CheckpointError as exc:
        raise WireFormatError(str(exc)) from exc
    if message.get("format") != WIRE_FORMAT:
        raise WireFormatError(
            f"payload is not a distrib wire message (format={message.get('format')!r})"
        )
    version = message.get("wire_version")
    if version != WIRE_VERSION:
        raise WireCompatibilityError(
            f"wire message speaks protocol version {version!r}, "
            f"this aggregator speaks {WIRE_VERSION}",
            mismatches={"wire_version": (WIRE_VERSION, version)},
        )
    if message.get("kind") not in (KIND_SNAPSHOT, KIND_DELTA):
        raise WireFormatError(f"unknown wire message kind {message.get('kind')!r}")
    for field in ("switch", "epoch", "geometry", "total", "nodes"):
        if field not in message:
            raise WireFormatError(f"wire message is missing its {field!r} field")
    if message["kind"] == KIND_DELTA and message.get("base_epoch") is None:
        raise WireFormatError("delta wire message carries no base_epoch")
    if not isinstance(message["nodes"], list):
        raise WireFormatError("wire message nodes field must be a list of counter states")
    return message
