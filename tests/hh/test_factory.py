"""Unit tests for the counter-resolution helpers in ``repro.hh.factory``.

Every HHH engine turns its ``counter`` argument - a registered name, a
``CounterSpec`` or a ``factory(epsilon)`` callable - into per-node counters
through :func:`resolve_counter` (one instance) or
:func:`prepare_counter_factory` (resolve once, then build identical fresh
instances per lattice node).
"""

from __future__ import annotations

import warnings

import pytest

from repro.api.registry import build_counter, counter_names
from repro.api.specs import CounterSpec
from repro.exceptions import ConfigurationError, ConfigurationWarning
from repro.hh.base import CounterAlgorithm
from repro.hh.factory import prepare_counter_factory, resolve_counter
from repro.hh.space_saving import SpaceSaving

BUILTIN_COUNTERS = sorted(counter_names())


class TestResolveCounter:
    @pytest.mark.parametrize("name", BUILTIN_COUNTERS)
    def test_every_registered_counter_instantiates(self, name):
        counter = resolve_counter(name, epsilon=0.01)
        assert isinstance(counter, CounterAlgorithm)

    @pytest.mark.parametrize("name", BUILTIN_COUNTERS)
    def test_every_counter_counts(self, name):
        counter = resolve_counter(name, epsilon=0.01)
        for _ in range(50):
            counter.update("hot")
        assert counter.estimate("hot") > 0
        assert counter.total == 50

    @pytest.mark.parametrize("name", BUILTIN_COUNTERS)
    def test_name_and_spec_forms_agree(self, name):
        by_name = resolve_counter(name, epsilon=0.05)
        by_spec = resolve_counter(CounterSpec(name=name), epsilon=0.05)
        assert type(by_name) is type(by_spec)
        assert by_name.counters() == by_spec.counters()

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            resolve_counter("no-such-algorithm", epsilon=0.01)

    def test_registry_contains_space_saving(self):
        assert "space_saving" in counter_names()
        assert isinstance(resolve_counter("space_saving", epsilon=0.01), SpaceSaving)

    def test_callable_receives_the_epsilon(self):
        seen = []

        def factory(epsilon):
            seen.append(epsilon)
            return SpaceSaving(epsilon=epsilon)

        counter = resolve_counter(factory, epsilon=0.1)
        assert seen == [0.1]
        assert counter.capacity == 10

    def test_spec_epsilon_wins_over_the_default(self):
        counter = resolve_counter(CounterSpec(name="space_saving", epsilon=0.25), epsilon=0.01)
        assert counter.capacity == 4

    def test_spec_capacity_overrides_the_epsilon_derivation(self):
        counter = resolve_counter(CounterSpec(name="space_saving", capacity=7), epsilon=0.01)
        assert counter.capacity == 7


class TestPrepareCounterFactory:
    @pytest.mark.parametrize("name", BUILTIN_COUNTERS)
    def test_factory_builds_fresh_identical_instances(self, name):
        make = prepare_counter_factory(name, epsilon=0.05)
        first, second = make(), make()
        assert first is not second
        assert type(first) is type(second)
        assert first.counters() == second.counters()
        first.update("only-in-first", 3)
        assert second.total == 0

    def test_matches_a_direct_build(self):
        prepared = prepare_counter_factory("space_saving", epsilon=0.02)()
        direct = build_counter("space_saving", epsilon=0.02)
        assert prepared.capacity == direct.capacity == 50

    def test_callable_is_wrapped_not_called_eagerly(self):
        calls = []

        def factory(epsilon):
            calls.append(epsilon)
            return SpaceSaving(epsilon=epsilon)

        make = prepare_counter_factory(factory, epsilon=0.2)
        assert calls == []
        assert make().capacity == 5
        assert make().capacity == 5
        assert calls == [0.2, 0.2]

    def test_unknown_name_raises_on_first_build(self):
        make = prepare_counter_factory("no-such-algorithm", epsilon=0.01)
        with pytest.raises(ConfigurationError):
            make()

    def test_epsilon_clamp_warns_once_per_factory(self):
        # The spec is resolved once, so a lattice of many nodes emits the
        # clamp warning once, not once per node.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            make = prepare_counter_factory("count_sketch", epsilon=0.0001)
            counters = [make() for _ in range(5)]
        clamp_warnings = [w for w in caught if issubclass(w.category, ConfigurationWarning)]
        assert len(clamp_warnings) == 1
        assert len({counter.counters() for counter in counters}) == 1

    def test_auto_spec_chooses_the_backend_once(self):
        spec = CounterSpec(auto=True, memory_bytes=10_000_000)
        make = prepare_counter_factory(spec, epsilon=0.01)
        assert all(isinstance(make(), SpaceSaving) for _ in range(3))
