"""Batch-aware baselines: vectorized MST/SampledMST == their scalar references.

The contract mirrors RHHH's: the vectorized ``update_batch`` (every-node
masking, duplicate aggregation, ascending key order - and pre-drawn bulk coin
flips for the sampled variant) must leave the algorithm bit-identical to the
same chunks fed through ``update_batch_reference``, across hierarchies,
weighted streams, counter backends and the object-key scalar fallback.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.hhh.mst import MST
from repro.hhh.sampled_mst import SampledMST
from repro.traffic.caida_like import named_workload


def _counter_signature(algorithm, hierarchy_size):
    state = []
    for node in range(hierarchy_size):
        counter = algorithm.node_counter(node)
        state.append(
            sorted((key, counter.estimate(key), counter.lower_bound(key)) for key in counter)
        )
    return state


def _output_signature(algorithm, theta):
    return [
        (c.prefix.node, c.prefix.value, c.lower_bound, c.upper_bound, c.conditioned_estimate)
        for c in algorithm.output(theta)
    ]


def _assert_bit_identical(vectorized, reference, hierarchy, theta=0.1):
    assert vectorized.total == reference.total
    assert _counter_signature(vectorized, hierarchy.size) == _counter_signature(
        reference, hierarchy.size
    )
    assert _output_signature(vectorized, theta) == _output_signature(reference, theta)


def _feed(algorithm, keys, batch_size, *, reference=False, weights=None):
    feed = algorithm.update_batch_reference if reference else algorithm.update_batch
    for lo in range(0, len(keys), batch_size):
        chunk_weights = None if weights is None else weights[lo : lo + batch_size]
        feed(keys[lo : lo + batch_size], chunk_weights)


class TestMSTBatchEquivalence:
    def test_1d_bytes(self, byte_hierarchy, small_backbone_keys_1d):
        keys = small_backbone_keys_1d[:10_000]
        vectorized = MST(byte_hierarchy, epsilon=0.02)
        reference = MST(byte_hierarchy, epsilon=0.02)
        _feed(vectorized, np.asarray(keys, dtype=np.int64), 2_048)
        _feed(reference, keys, 2_048, reference=True)
        _assert_bit_identical(vectorized, reference, byte_hierarchy)

    def test_2d_bytes(self, two_dim_hierarchy, small_backbone_keys_2d):
        keys = small_backbone_keys_2d[:10_000]
        vectorized = MST(two_dim_hierarchy, epsilon=0.02)
        reference = MST(two_dim_hierarchy, epsilon=0.02)
        _feed(vectorized, np.asarray(keys, dtype=np.int64), 2_048)
        _feed(reference, keys, 2_048, reference=True)
        _assert_bit_identical(vectorized, reference, two_dim_hierarchy)

    def test_weighted_batches(self, two_dim_hierarchy):
        keys = named_workload("chicago16", num_flows=2_000).keys_2d(6_000)
        weights = np.random.default_rng(5).integers(1, 12, size=len(keys))
        vectorized = MST(two_dim_hierarchy, epsilon=0.02)
        reference = MST(two_dim_hierarchy, epsilon=0.02)
        _feed(vectorized, np.asarray(keys, dtype=np.int64), 1_000, weights=weights)
        _feed(reference, keys, 1_000, reference=True, weights=list(weights))
        _assert_bit_identical(vectorized, reference, two_dim_hierarchy)

    def test_object_key_fallback_matches_reference(self, byte_hierarchy):
        # Keys numpy cannot coerce (>64-bit ints) take the scalar machinery,
        # which must still implement the aggregated batch semantics.
        huge = 1 << 80
        keys = [huge + 1, huge + 2, huge + 1, huge + 3] * 50
        vectorized = MST(byte_hierarchy, epsilon=0.1)
        reference = MST(byte_hierarchy, epsilon=0.1)
        vectorized.update_batch(keys)
        reference.update_batch_reference(keys)
        assert vectorized.total == reference.total
        assert _counter_signature(vectorized, byte_hierarchy.size) == _counter_signature(
            reference, byte_hierarchy.size
        )

    def test_empty_batch_and_mismatched_weights(self, byte_hierarchy):
        algorithm = MST(byte_hierarchy, epsilon=0.05)
        algorithm.update_batch([])
        assert algorithm.total == 0
        with pytest.raises(ConfigurationError):
            algorithm.update_batch([1, 2, 3], weights=[1, 2])
        with pytest.raises(ConfigurationError):
            algorithm.update_batch_reference([1, 2, 3], weights=[1, 2])

    def test_interoperates_with_scalar_updates(self, byte_hierarchy, small_backbone_keys_1d):
        keys = small_backbone_keys_1d[:2_000]
        algorithm = MST(byte_hierarchy, epsilon=0.05)
        algorithm.update_batch(np.asarray(keys[:1_000], dtype=np.int64))
        for key in keys[1_000:]:
            algorithm.update(key)
        assert algorithm.total == len(keys)
        assert algorithm.output(0.2).total == len(keys)


class TestSampledMSTBatchEquivalence:
    def test_1d_bytes(self, byte_hierarchy, small_backbone_keys_1d):
        keys = small_backbone_keys_1d[:10_000]
        vectorized = SampledMST(byte_hierarchy, epsilon=0.02, seed=9)
        reference = SampledMST(byte_hierarchy, epsilon=0.02, seed=9)
        _feed(vectorized, np.asarray(keys, dtype=np.int64), 2_048)
        _feed(reference, keys, 2_048, reference=True)
        _assert_bit_identical(vectorized, reference, byte_hierarchy)
        assert vectorized.sampled_packets == reference.sampled_packets

    def test_2d_bytes_weighted(self, two_dim_hierarchy, small_backbone_keys_2d):
        keys = small_backbone_keys_2d[:8_000]
        weights = np.random.default_rng(11).integers(1, 7, size=len(keys))
        vectorized = SampledMST(two_dim_hierarchy, epsilon=0.02, seed=21)
        reference = SampledMST(two_dim_hierarchy, epsilon=0.02, seed=21)
        _feed(vectorized, np.asarray(keys, dtype=np.int64), 1_500, weights=weights)
        _feed(reference, keys, 1_500, reference=True, weights=list(weights))
        _assert_bit_identical(vectorized, reference, two_dim_hierarchy)
        assert vectorized.sampled_packets == reference.sampled_packets

    def test_sampling_probability_one_matches_mst_semantics(self, byte_hierarchy):
        # With p = 1 every packet is sampled, so the batch path must build
        # exactly the aggregated every-node state MST's batch path builds.
        keys = np.asarray([10, 20, 10, 30, 20, 10], dtype=np.int64) << 24
        sampled = SampledMST(byte_hierarchy, epsilon=0.1, sampling_probability=1.0, seed=1)
        mst = MST(byte_hierarchy, epsilon=0.1)
        sampled.update_batch(keys)
        mst.update_batch(keys)
        assert sampled.sampled_packets == len(keys)
        assert _counter_signature(sampled, byte_hierarchy.size) == _counter_signature(
            mst, byte_hierarchy.size
        )

    def test_batch_and_per_packet_share_total_accounting(self, byte_hierarchy):
        algorithm = SampledMST(byte_hierarchy, epsilon=0.05, seed=3)
        algorithm.update_batch(np.asarray([1, 2, 3, 4], dtype=np.int64))
        algorithm.update(5)
        assert algorithm.total == 5
