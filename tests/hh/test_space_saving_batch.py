"""Lockstep suite: ``SpaceSaving.update_batch`` == the scalar ``update`` path.

``update_batch`` is an inlined copy of the three Space Saving update cases
(hit, free slot, eviction) and carries the residual scalar cost of the
vectorized RHHH engine, so it is pinned here against its specification - the
same pairs fed one at a time through :meth:`SpaceSaving.update` - through
random aggregated batches, weighted batches far past the tail bucket, mixed
scalar/batch streams, tuple keys and eviction storms.  The full observable
state (monitored set, iteration order, counts, errors, totals) must stay in
lockstep after every step.  A second group checks the scalar path itself
against exact counts: the Space Saving invariants must hold after every
update.
"""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest

from repro.core.rhhh import RHHH
from repro.hh.space_saving import SpaceSaving
from repro.traffic.caida_like import named_workload


def _full_state(counter):
    """Every observable of the summary, for lockstep comparison."""
    return {
        "entries": {
            key: (counter.estimate(key), counter.lower_bound(key), counter.error_of(key))
            for key in counter
        },
        "order": list(counter),
        "total": counter.total,
        "len": len(counter),
        "unmonitored_estimate": counter.estimate("__never_inserted__"),
        "state": counter.__getstate__(),
    }


def _aggregated_batch(rng, key_space, max_keys, max_weight):
    count = rng.randrange(1, max_keys + 1)
    keys = sorted(rng.sample(range(key_space), min(count, key_space)))
    return [(key, rng.randrange(1, max_weight + 1)) for key in keys]


def _scalar_feed(counter, pairs):
    for key, weight in pairs:
        counter.update(key, weight)


class TestScalarInvariants:
    """update(key, w) keeps the Space Saving invariants against exact counts."""

    @pytest.mark.parametrize("capacity", [1, 2, 5, 16])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_scalar_streams(self, capacity, seed):
        counter = SpaceSaving(capacity=capacity)
        exact: Counter = Counter()
        rng = random.Random(seed)
        for _ in range(500):
            key = rng.randrange(capacity * 4)
            weight = rng.randrange(1, 7)
            counter.update(key, weight)
            exact[key] += weight
            assert counter.total == sum(exact.values())
            assert len(counter) <= capacity
            # Evictions hand the victim's count to the newcomer, so the
            # monitored counts always sum to the stream length.
            assert sum(counter.estimate(key) for key in counter) == counter.total
            min_count = counter._min_count()
            for seen, true_count in exact.items():
                assert counter.lower_bound(seen) <= true_count <= counter.upper_bound(seen)
                if seen in counter:
                    assert counter.estimate(seen) - true_count <= min_count

    def test_single_pair_batches_match_scalar_updates(self):
        scalar, batched = SpaceSaving(capacity=6), SpaceSaving(capacity=6)
        rng = random.Random(5)
        for _ in range(400):
            pair = (rng.randrange(30), rng.randrange(1, 5))
            scalar.update(*pair)
            batched.update_batch([pair])
            assert _full_state(batched) == _full_state(scalar)

    def test_scalar_state_stays_bounded_on_hit_only_streams(self):
        # A hot-set steady state must not grow the summary: one bucket per
        # distinct count at most, never more keys than counters.
        counter = SpaceSaving(capacity=4)
        for key in range(5):  # fill + one eviction
            counter.update(key)
        for _ in range(5_000):  # hit-only stretch on the monitored set
            counter.update(4)
        state = counter.__getstate__()
        assert len(counter) == 4
        assert len(state["buckets"]) <= counter.capacity


class TestBatchEquivalence:
    """update_batch on aggregated pairs matches the scalar path step for step."""

    @pytest.mark.parametrize("capacity", [1, 2, 8, 32, 100])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_aggregated_batches(self, capacity, seed):
        scalar = SpaceSaving(capacity=capacity)
        batched = SpaceSaving(capacity=capacity)
        rng = random.Random(1_000 * capacity + seed)
        for _ in range(12):
            pairs = _aggregated_batch(rng, capacity * 10, capacity * 6 + 1, 6)
            _scalar_feed(scalar, pairs)
            batched.update_batch(list(pairs))
            assert _full_state(batched) == _full_state(scalar)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_heavy_weights_past_the_tail(self, seed):
        # Large aggregated weights push evictions far past every existing
        # count level, so the bucket search runs the whole list.
        scalar = SpaceSaving(capacity=8)
        batched = SpaceSaving(capacity=8)
        rng = random.Random(seed)
        for _ in range(15):
            pairs = _aggregated_batch(rng, 60, 30, 5_000)
            _scalar_feed(scalar, pairs)
            batched.update_batch(list(pairs))
            assert _full_state(batched) == _full_state(scalar)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_mixed_scalar_and_batch_streams(self, seed):
        rng = random.Random(seed)
        capacity = rng.choice([1, 3, 10, 50])
        scalar = SpaceSaving(capacity=capacity)
        mixed = SpaceSaving(capacity=capacity)
        for _ in range(10):
            if rng.random() < 0.4:
                for _ in range(rng.randrange(1, 40)):
                    key = rng.randrange(capacity * 5)
                    weight = rng.randrange(1, 6)
                    scalar.update(key, weight)
                    mixed.update(key, weight)
            else:
                pairs = _aggregated_batch(rng, capacity * 8, capacity * 7 + 1, 4)
                _scalar_feed(scalar, pairs)
                mixed.update_batch(list(pairs))
            assert _full_state(mixed) == _full_state(scalar)

    def test_tuple_keys(self):
        # 2-D masked keys arrive as (src, dst) tuples from the batch engine.
        scalar = SpaceSaving(capacity=6)
        batched = SpaceSaving(capacity=6)
        rng = random.Random(7)
        for _ in range(10):
            pool = {(rng.randrange(20), rng.randrange(20)): rng.randrange(1, 5)
                    for _ in range(rng.randrange(1, 30))}
            pairs = sorted(pool.items())
            _scalar_feed(scalar, pairs)
            batched.update_batch(list(pairs))
            assert _full_state(batched) == _full_state(scalar)

    def test_eviction_storm_far_exceeding_capacity(self):
        # Many more distinct keys per batch than counters: the steady state
        # of a backbone leaf node, where the whole table churns repeatedly
        # within one batch.
        scalar = SpaceSaving(capacity=20)
        batched = SpaceSaving(capacity=20)
        rng = random.Random(13)
        for step in range(8):
            pairs = [(step * 1_000 + i, rng.randrange(1, 3)) for i in range(300)]
            _scalar_feed(scalar, pairs)
            batched.update_batch(list(pairs))
            assert _full_state(batched) == _full_state(scalar)


class TestBatchContracts:
    def test_empty_batch_is_a_noop(self):
        counter = SpaceSaving(capacity=4)
        counter.update_batch([])
        counter.update_batch_reference([])
        assert counter.total == 0 and len(counter) == 0

    def test_generator_input(self):
        counter = SpaceSaving(capacity=8)
        counter.update_batch((key, 2) for key in range(5))
        assert counter.total == 10
        assert counter.estimate(3) == 2.0

    def test_numpy_weights_match_python_ints(self):
        # The batch engine hands over np.int64 weights straight from its
        # aggregation arrays; the summary must not depend on the int type.
        keys = [3, 7, 11, 20, 21, 40, 3]
        weights = [2, 1, 5, 1, 1, 9, 4]
        via_python = SpaceSaving(capacity=5)
        via_numpy = SpaceSaving(capacity=5)
        via_python.update_batch(list(zip(keys, weights)))
        via_numpy.update_batch(zip(keys, np.asarray(weights, dtype=np.int64)))
        assert _full_state(via_numpy) == _full_state(via_python)

    def test_invalid_weight_fails_like_the_scalar_twin(self):
        # Both paths apply the valid prefix and then raise on the bad pair,
        # leaving identical summaries behind.
        batched, reference = SpaceSaving(capacity=4), SpaceSaving(capacity=4)
        for counter in (batched, reference):
            counter.update(1, 3)
        pairs = [(2, 5), (3, 0), (4, 1)]
        with pytest.raises(ValueError):
            batched.update_batch(list(pairs))
        with pytest.raises(ValueError):
            reference.update_batch_reference(list(pairs))
        assert _full_state(batched) == _full_state(reference)
        assert batched.total == 8
        assert list(batched) == [1, 2]

    def test_duplicate_keys_replay_sequentially(self):
        # Duplicate keys interact through the table state; a batch must
        # replay them exactly like consecutive scalar updates.
        reference = SpaceSaving(capacity=2)
        duplicated = SpaceSaving(capacity=2)
        pairs = [(1, 2), (2, 1), (1, 3), (3, 4), (2, 2)]
        _scalar_feed(reference, pairs)
        duplicated.update_batch(list(pairs))
        assert _full_state(duplicated) == _full_state(reference)


class TestRHHHIntegration:
    """The RHHH batch engine stays bit-identical to its scalar reference with
    Space Saving pinned explicitly as the per-node backend (the reference
    path drives the counters through scalar update() calls, the vectorized
    path through update_batch)."""

    @pytest.mark.parametrize("counter", ["space_saving", "factory"])
    def test_rhhh_vectorized_vs_reference_with_space_saving(self, two_dim_hierarchy, counter):
        keys = named_workload("chicago16", num_flows=3_000).key_array(15_000)
        backend = counter if counter != "factory" else (lambda epsilon: SpaceSaving(epsilon=epsilon))
        make = lambda: RHHH(
            two_dim_hierarchy, epsilon=0.02, delta=0.05, seed=11, counter=backend
        )
        vectorized, reference = make(), make()
        for lo in range(0, len(keys), 4_096):
            vectorized.update_batch(keys[lo : lo + 4_096])
            reference.update_batch_reference(keys[lo : lo + 4_096])
        for node in range(two_dim_hierarchy.size):
            left = vectorized.node_counter(node)
            right = reference.node_counter(node)
            assert isinstance(left, SpaceSaving)
            assert _full_state(left) == _full_state(right)
        assert vectorized.total == reference.total
