"""Differential twin tests for the counter batch paths.

``SpaceSaving.update_batch`` carries an inlined fast path; its scalar twin
(``update_batch_reference``) is the specification.  These tests feed the
same pair streams through both and require bit-identical summaries - the
contract the ``twin-parity`` reprolint rule enforces statically.
"""

from __future__ import annotations

import random

import pytest

from repro.hh.space_saving import SpaceSaving


def _pair_stream(seed: int, n: int, key_space: int, aggregated: bool):
    rng = random.Random(seed)
    pairs = [(rng.randrange(key_space), rng.randint(1, 9)) for _ in range(n)]
    if aggregated:
        totals = {}
        for key, weight in pairs:
            totals[key] = totals.get(key, 0) + weight
        return list(totals.items())
    return pairs


@pytest.mark.parametrize("aggregated", [True, False], ids=["aggregated", "raw-pairs"])
@pytest.mark.parametrize("seed", [1, 7, 23])
class TestSpaceSavingTwins:
    def test_linked_space_saving_batch_matches_reference(self, seed, aggregated):
        batch, reference = SpaceSaving(capacity=32), SpaceSaving(capacity=32)
        pairs = _pair_stream(seed, 600, key_space=120, aggregated=aggregated)
        batch.update_batch(pairs)
        reference.update_batch_reference(pairs)
        assert batch.__getstate__() == reference.__getstate__()

