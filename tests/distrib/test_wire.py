"""Wire message framing, the counter codec, and cross-version compatibility.

The compatibility half is the satellite contract: an aggregator must reject
any message whose geometry (hierarchy shape, counter backend, capacities,
compression policy) or protocol version differs from its own with a *typed*
error - never merge it silently.  Property tests sweep mismatch shapes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import build_algorithm, make_hierarchy
from repro.api.specs import AlgorithmSpec, CounterSpec
from repro.distrib import wire
from repro.distrib.aggregator import Aggregator
from repro.exceptions import WireCompatibilityError, WireFormatError
from repro.hh.space_saving import SpaceSaving


def _summary(items, capacity=8):
    counter = SpaceSaving(capacity=capacity)
    for key, weight in items:
        counter.update(key, weight)
    return counter


class TestCounterCodec:
    def test_round_trip_is_state_identical(self):
        counter = _summary([(i % 11, i + 1) for i in range(40)])
        decoded = wire.decode_counter_state(wire.encode_counter_state(counter))
        assert decoded._entries() == counter._entries()
        assert list(decoded) == list(counter)
        assert decoded._absent_floor == counter._absent_floor
        assert decoded._min_count() == counter._min_count()
        assert decoded.total == counter.total
        assert decoded.capacity == counter.capacity

    def test_decoded_summary_keeps_querying_like_the_original(self):
        counter = _summary([(i % 5, 1) for i in range(100)])
        decoded = wire.decode_counter_state(wire.encode_counter_state(counter))
        for key in range(5):
            assert decoded.upper_bound(key) == counter.upper_bound(key)
            assert decoded.lower_bound(key) == counter.lower_bound(key)

    def test_unknown_codec_is_a_typed_error(self):
        with pytest.raises(WireFormatError, match="unknown counter codec"):
            wire.decode_counter_state({"codec": "mystery"})


class TestMessageFraming:
    def _message(self, **overrides):
        fields = {
            "kind": wire.KIND_SNAPSHOT,
            "switch": 0,
            "epoch": 1,
            "geometry": {"nodes": 1},
            "total": 10,
            "nodes": [wire.encode_counter_state(_summary([(1, 5)]))],
        }
        fields.update(overrides)
        return wire.encode_message(**fields)

    def test_round_trip(self):
        raw = self._message()
        message = wire.decode_message(raw)
        assert message["kind"] == wire.KIND_SNAPSHOT
        assert message["switch"] == 0
        assert message["epoch"] == 1
        assert message["total"] == 10
        assert len(message["nodes"]) == 1

    def test_truncated_bytes_raise_wire_format_error(self):
        raw = self._message()
        for cut in (0, 3, len(raw) // 2, len(raw) - 1):
            with pytest.raises(WireFormatError):
                wire.decode_message(raw[:cut])

    def test_corrupted_payload_fails_the_checksum(self):
        raw = bytearray(self._message())
        raw[-1] ^= 0xFF
        with pytest.raises(WireFormatError, match="SHA-256"):
            wire.decode_message(bytes(raw))

    def test_garbage_magic_raises(self):
        with pytest.raises(WireFormatError, match="bad magic"):
            wire.decode_message(b"NOPE" + b"\x00" * 100)

    def test_checkpoint_payload_is_not_a_wire_message(self):
        from repro.core.checkpoint import pack_payload

        raw = pack_payload({"some": "checkpoint"})
        with pytest.raises(WireFormatError, match="not a distrib wire message"):
            wire.decode_message(raw)

    def test_future_wire_version_is_a_typed_compatibility_error(self):
        from repro.core.checkpoint import pack_payload

        message = {
            "format": wire.WIRE_FORMAT,
            "wire_version": wire.WIRE_VERSION + 1,
            "kind": "snapshot",
            "switch": 0,
            "epoch": 1,
            "base_epoch": None,
            "geometry": {},
            "total": 0,
            "nodes": [],
        }
        with pytest.raises(WireCompatibilityError) as excinfo:
            wire.decode_message(pack_payload(message))
        assert excinfo.value.mismatches == {
            "wire_version": (wire.WIRE_VERSION, wire.WIRE_VERSION + 1)
        }

    def test_delta_without_base_epoch_is_rejected_encode_and_decode(self):
        with pytest.raises(WireFormatError, match="base_epoch"):
            self._message(kind=wire.KIND_DELTA)

    def test_missing_fields_are_rejected(self):
        from repro.core.checkpoint import pack_payload

        for dropped in ("switch", "epoch", "geometry", "total", "nodes"):
            message = {
                "format": wire.WIRE_FORMAT,
                "wire_version": wire.WIRE_VERSION,
                "kind": "snapshot",
                "switch": 0,
                "epoch": 1,
                "base_epoch": None,
                "geometry": {},
                "total": 0,
                "nodes": [],
            }
            del message[dropped]
            with pytest.raises(WireFormatError, match=dropped):
                wire.decode_message(pack_payload(message))

    @given(st.binary(max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_bytes_never_decode_silently(self, blob):
        """Fuzz the framing: random bytes either raise the typed error or
        (astronomically unlikely) decode - never raise anything else."""
        try:
            wire.decode_message(blob)
        except WireFormatError:
            pass


class TestGeometryCompatibility:
    """The aggregator must reject mismatched peers, never merge them."""

    def _aggregator(self, **spec_kwargs):
        hierarchy = make_hierarchy(spec_kwargs.pop("hierarchy", "1d-bytes"))
        spec = AlgorithmSpec(
            name="rhhh", epsilon=spec_kwargs.pop("epsilon", 0.1), delta=0.1, seed=3, **spec_kwargs
        )
        return Aggregator(spec, hierarchy, 2)

    def _emission(self, *, hierarchy="1d-bytes", epsilon=0.1, top_k=None, counter=None, seed=3):
        from repro.core.shard import per_shard_algorithm_spec

        hierarchy_obj = make_hierarchy(hierarchy)
        spec = AlgorithmSpec(name="rhhh", epsilon=epsilon, delta=0.1, seed=seed, counter=counter)
        algorithm = build_algorithm(per_shard_algorithm_spec(spec, seed, 2), hierarchy_obj)
        for key in range(200):
            algorithm.update((key % 17, key % 5) if hierarchy_obj.dimensions == 2 else key % 17)
        from repro.distrib import compress

        states = [wire.encode_counter_state(c) for c in algorithm._counters]
        states = [compress.truncate_counter_state(s, top_k) for s in states]
        return wire.encode_message(
            kind=wire.KIND_SNAPSHOT,
            switch=0,
            epoch=1,
            geometry=wire.algorithm_geometry(algorithm, hierarchy_obj, top_k=top_k),
            total=algorithm.total,
            nodes=states,
        )

    def test_matching_geometry_is_accepted(self):
        aggregator = self._aggregator()
        assert aggregator.ingest(self._emission()) == (0, 1)

    @pytest.mark.parametrize(
        "mismatch",
        [
            {"hierarchy": "2d-bytes"},
            {"epsilon": 0.01},  # different counter capacity
            {"top_k": 4},  # different compression policy
            {"counter": CounterSpec(name="misra_gries")},
        ],
        ids=["hierarchy", "capacity", "compression", "backend"],
    )
    def test_mismatched_peer_is_rejected_with_named_fields(self, mismatch):
        aggregator = self._aggregator()
        with pytest.raises(WireCompatibilityError) as excinfo:
            aggregator.ingest(self._emission(**mismatch))
        assert excinfo.value.mismatches  # names at least one differing field
        # nothing was stored: the bad message never became a contribution
        assert aggregator.messages_accepted == 0
        assert aggregator.contribution_epoch(0) is None

    @given(
        epsilon=st.sampled_from([0.02, 0.05, 0.2]),
        hierarchy=st.sampled_from(["1d-bytes", "2d-bytes"]),
        top_k=st.sampled_from([None, 3, 5]),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_only_identical_geometry_is_ever_accepted(self, epsilon, hierarchy, top_k):
        """Sweep mismatch shapes: a peer built from (epsilon, hierarchy,
        top_k) is accepted iff all three match the aggregator's own."""
        hierarchy_obj = make_hierarchy("1d-bytes")
        aggregator = Aggregator(
            AlgorithmSpec(name="rhhh", epsilon=0.05, delta=0.1, seed=3),
            hierarchy_obj,
            2,
            top_k=5,
        )
        emission = self._emission(hierarchy=hierarchy, epsilon=epsilon, top_k=top_k)
        # The exact oracle: accepted iff the geometry fingerprints are equal
        # (e.g. epsilon=0.02 truncated to top_k=5 ships the same capacity as
        # epsilon=0.05 truncated to 5 - legitimately mergeable).
        compatible = wire.decode_message(emission)["geometry"] == aggregator.expected_geometry
        if compatible:
            assert aggregator.ingest(emission) == (0, 1)
        else:
            with pytest.raises(WireCompatibilityError):
                aggregator.ingest(emission)

    def test_wrong_node_count_inside_a_matching_lattice_is_rejected(self):
        aggregator = self._aggregator()
        raw = self._emission()
        message = wire.decode_message(raw)
        message["nodes"] = message["nodes"][:-1]
        from repro.core.checkpoint import pack_payload

        with pytest.raises(WireFormatError, match="node states"):
            aggregator.ingest(pack_payload(message))

    def test_unknown_switch_id_is_rejected(self):
        aggregator = self._aggregator()
        raw = self._emission()
        message = wire.decode_message(raw)
        message["switch"] = 99
        from repro.core.checkpoint import pack_payload

        with pytest.raises(WireFormatError, match="switch 99"):
            aggregator.ingest(pack_payload(message))
