"""The partition -> merge -> query path shared by both scale-out engines.

``ShardedHHH`` and the distributed tier split batches with
:func:`partition_batch` and query merged lattices with :func:`query_merged`
(both in ``repro.core.shard``).  This suite pins the split - every key lands
on the part :func:`shard_of_key` names, in stream order, whatever shape the
batch has - and the query's restore guarantee: a query that raises inside
the template's ``output`` leaves every swapped template attribute restored,
and later answers still match the from-scratch reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.specs import AlgorithmSpec, DistribSpec, ExperimentSpec
from repro.core.base import HHHAlgorithm
from repro.core.shard import ShardedHHH, partition_batch, shard_of_key
from repro.distrib.cluster import DistributedCluster
from repro.exceptions import ConfigurationError
from repro.traffic.caida_like import named_workload

BATCH = 600
CHUNK = 4_096


def _int_keys():
    # A narrow key range, so the batch repeats keys and stream order matters.
    return np.random.default_rng(5).integers(0, 40, size=BATCH, dtype=np.int64) << 24


def _pair_keys():
    return np.random.default_rng(6).integers(0, 20, size=(BATCH, 2), dtype=np.int64) << 24


def _weights():
    return np.random.default_rng(7).integers(1, 9, size=BATCH, dtype=np.int64)


BATCHES = {
    "int_array": _int_keys,
    "pair_array": _pair_keys,
    "int_list": lambda: _int_keys().tolist(),
    "tuple_list": lambda: [tuple(row) for row in _pair_keys().tolist()],
    "object_int_array": lambda: _int_keys().astype(object),
    "object_pair_array": lambda: _pair_keys().astype(object),
}


def _keys_of(batch):
    return list(HHHAlgorithm._iter_batch_keys(batch))


class TestPartitionBatch:
    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
    @pytest.mark.parametrize("parts", [1, 2, 3, 7])
    @pytest.mark.parametrize("shape", sorted(BATCHES))
    def test_each_key_lands_on_its_owning_part_in_stream_order(self, shape, parts, weighted):
        keys = BATCHES[shape]()
        weights = _weights() if weighted else None
        split = partition_batch(keys, weights, BATCH, parts)
        assert len(split) == parts
        expected = [([], []) for _ in range(parts)]
        for i, key in enumerate(_keys_of(keys)):
            part = shard_of_key(key, parts)
            expected[part][0].append(key)
            expected[part][1].append(int(weights[i]) if weighted else 1)
        for part, (sub_keys, sub_weights) in enumerate(split):
            assert _keys_of(sub_keys) == expected[part][0]
            if weighted:
                assert sub_weights.tolist() == expected[part][1]
            else:
                assert sub_weights is None

    @pytest.mark.parametrize("shape", ["int_array", "pair_array"])
    def test_numeric_batches_stay_numpy_arrays(self, shape):
        for sub_keys, _ in partition_batch(BATCHES[shape](), None, BATCH, 3):
            assert isinstance(sub_keys, np.ndarray)
            assert sub_keys.dtype.kind in "iu"

    def test_a_single_part_passes_the_batch_through(self):
        keys = _pair_keys()
        weights = _weights()
        [(sub_keys, sub_weights)] = partition_batch(keys, weights, BATCH, 1)
        assert sub_keys is keys and sub_weights is weights


def _output_state(output):
    return (
        output.total,
        output.threshold,
        [
            (c.prefix, c.lower_bound, c.upper_bound, c.conditioned_estimate)
            for c in output.candidates
        ],
        output.failed_shards,
    )


def _template_state(template):
    return (
        template._counters,
        template._total,
        template.extra_correction,
        template._output_cache,
        template._versions,
    )


def _assert_same_template_state(before, after):
    counters, total, correction, cache, versions = before
    assert after[0] is counters
    assert after[1] == total
    assert after[2] == correction == 0.0
    assert after[3] is cache
    assert after[4] is versions


def _sharded(reference: bool):
    engine = ShardedHHH(
        AlgorithmSpec(name="rhhh", epsilon=0.05, delta=0.1, seed=3),
        "1d-bytes",
        shards=3,
        parallel=False,
    )
    if reference:
        engine._template_cache = None
    return engine, engine._template


def _cluster(reference: bool):
    spec = ExperimentSpec(
        algorithm=AlgorithmSpec(name="rhhh", epsilon=0.05, delta=0.1, seed=7),
        hierarchy="1d-bytes",
        batch_size=CHUNK,
        distrib=DistribSpec(switches=3, epoch_batches=1),
    )
    cluster = DistributedCluster(spec)
    if reference:
        cluster.aggregator._query_cache = None
    return cluster, cluster.aggregator._template


class TestFailingQueryRestoresTheTemplate:
    """A query raising inside ``template.output`` leaves no merged state behind."""

    @pytest.mark.parametrize("build", [_sharded, _cluster], ids=["sharded", "cluster"])
    def test_invalid_theta_restores_every_swapped_attribute(self, build):
        keys = named_workload("sanjose14", num_flows=2_000).key_array(3 * CHUNK)[:, 0].copy()
        engine, template = build(reference=False)
        reference, _ = build(reference=True)
        for engine_ in (engine, reference):
            engine_.update_batch(keys[:CHUNK])
        assert _output_state(engine.output(0.1)) == _output_state(reference.output(0.1))
        before = _template_state(template)
        with pytest.raises(ConfigurationError, match="theta"):
            engine.output(1.5)
        _assert_same_template_state(before, _template_state(template))
        # The incremental pass survives the failed query: later answers still
        # match the from-scratch reference, before and after more updates.
        assert _output_state(engine.output(0.1)) == _output_state(reference.output(0.1))
        for lo in range(CHUNK, len(keys), CHUNK):
            engine.update_batch(keys[lo : lo + CHUNK])
            reference.update_batch(keys[lo : lo + CHUNK])
            assert _output_state(engine.output(0.05)) == _output_state(reference.output(0.05))
