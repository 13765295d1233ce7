"""Unit tests for the memory-budget counter chooser."""

from __future__ import annotations

import pytest

from repro.api.memory import (
    SPACE_SAVING_BYTES_PER_COUNTER,
    choose_counter_backend,
    estimate_counter_memory,
)
from repro.api.registry import build_counter
from repro.api.specs import CounterSpec
from repro.exceptions import ConfigurationError
from repro.hh.count_min import CountMinSketch
from repro.hh.count_sketch import CountSketch


class TestEstimates:
    def test_space_saving_scales_with_one_over_epsilon(self):
        small = estimate_counter_memory("space_saving", epsilon=0.01)
        large = estimate_counter_memory("space_saving", epsilon=0.001)
        assert small == 100 * SPACE_SAVING_BYTES_PER_COUNTER
        assert large == 10 * small

    def test_capacity_override(self):
        assert estimate_counter_memory("space_saving", epsilon=0.01, capacity=7) == (
            7 * SPACE_SAVING_BYTES_PER_COUNTER
        )

    def test_bounded_track_shrinks_sketches(self):
        default = estimate_counter_memory("count_min", epsilon=0.01)
        bounded = estimate_counter_memory("count_min", epsilon=0.01, track=50)
        assert bounded < default

    def test_exact_has_no_model(self):
        with pytest.raises(ConfigurationError, match="bounded"):
            estimate_counter_memory("exact", epsilon=0.01)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="memory model"):
            estimate_counter_memory("nope", epsilon=0.01)


class TestChooser:
    def test_space_saving_preferred_when_it_fits(self):
        budget = estimate_counter_memory("space_saving", epsilon=0.01) + 1
        assert choose_counter_backend(budget, epsilon=0.01) == "space_saving"

    def test_sketch_chosen_when_space_saving_does_not_fit(self):
        # With a tightly bounded tracked set the count-min table undercuts
        # the Space Saving entries; pick a budget between the two.
        epsilon = 0.01
        sketch = estimate_counter_memory("count_min", epsilon=epsilon, track=10)
        space_saving = estimate_counter_memory("space_saving", epsilon=epsilon)
        assert sketch < space_saving
        budget = (sketch + space_saving) // 2
        assert choose_counter_backend(budget, epsilon=epsilon, track=10) == "count_min"

    def test_impossible_budget_names_the_cheapest_backend(self):
        with pytest.raises(ConfigurationError, match="raise the budget"):
            choose_counter_backend(16, epsilon=0.001)

    def test_auto_spec_builds_space_saving_on_a_big_budget(self):
        counter = build_counter(
            CounterSpec(auto=True, memory_bytes=10_000_000), epsilon=0.01
        )
        assert type(counter).__name__ == "SpaceSaving"

    def test_auto_spec_builds_sketch_on_a_tight_budget(self):
        epsilon = 0.01
        sketch = estimate_counter_memory("count_min", epsilon=epsilon, track=10)
        space_saving = estimate_counter_memory("space_saving", epsilon=epsilon)
        budget = (sketch + space_saving) // 2
        counter = build_counter(
            CounterSpec(auto=True, memory_bytes=budget, track=10), epsilon=epsilon
        )
        assert type(counter).__name__ == "CountMinSketch"

    def test_auto_spec_resolution_is_recorded(self):
        resolved = CounterSpec(auto=True, memory_bytes=10_000_000).resolve(0.01)
        assert resolved.name == "space_saving" and resolved.auto is False

    def test_auto_spec_prices_a_pinned_capacity(self):
        # 5000 pinned counters cost far more than the 100 that epsilon=0.01
        # derives; no backend fits, so nothing is built.
        assert estimate_counter_memory("space_saving", epsilon=0.01, capacity=5000) > 30_000
        spec = CounterSpec(auto=True, memory_bytes=30_000, epsilon=0.01, capacity=5000)
        with pytest.raises(ConfigurationError, match="raise the budget"):
            build_counter(spec)

    def test_auto_spec_prices_a_pinned_sketch_geometry(self):
        # The churn hint prefers a sketch, but the pinned 5 x 100000 table
        # is priced as pinned and does not fit 60 kB.
        assert estimate_counter_memory("count_min", epsilon=0.01, width=100_000, depth=5) > 60_000
        spec = CounterSpec(
            auto=True, memory_bytes=60_000, epsilon=0.01, working_set=10**6, width=100_000, depth=5
        )
        assert spec.resolve().name == "space_saving"
        # Space Saving has no table width, so the pinned sketch geometry is
        # a configuration error rather than a 4 MB Count-Min.
        with pytest.raises(ConfigurationError, match="rejected its parameters"):
            build_counter(spec)


class TestChooserBoundaries:
    """Exact budget boundaries: the chooser treats "fits" as ``<=``."""

    def test_budget_exactly_at_estimate_fits(self):
        budget = estimate_counter_memory("space_saving", epsilon=0.01)
        assert choose_counter_backend(budget, epsilon=0.01) == "space_saving"

    def test_budget_below_every_estimate_is_an_error(self):
        cheapest = min(
            estimate_counter_memory(name, epsilon=0.01)
            for name in ("space_saving", "count_min", "count_sketch")
        )
        assert choose_counter_backend(cheapest, epsilon=0.01)  # boundary fits
        with pytest.raises(ConfigurationError, match="raise the budget"):
            choose_counter_backend(cheapest - 1, epsilon=0.01)

    def test_minimum_budget_validation(self):
        with pytest.raises(ConfigurationError, match="memory_bytes"):
            choose_counter_backend(0, epsilon=0.01)


class TestShardBudgetDivision:
    """``shards=N`` divides the deployment budget into per-shard budgets."""

    def test_per_shard_spec_divides_memory_bytes(self):
        from repro.core.shard import per_shard_algorithm_spec
        from repro.api.specs import AlgorithmSpec

        spec = AlgorithmSpec(
            name="rhhh", counter=CounterSpec(auto=True, memory_bytes=100_000)
        )
        assert per_shard_algorithm_spec(spec, 1, 4).counter.memory_bytes == 25_000
        # A budget smaller than the shard count still yields a valid spec
        # (the chooser then reports the shortfall with its usual error).
        assert per_shard_algorithm_spec(spec, 1, 200_001).counter.memory_bytes == 1

    def test_sharded_engine_downgrades_backend_to_fit_the_divided_budget(self):
        from repro.api.specs import AlgorithmSpec
        from repro.core.shard import ShardedHHH

        space_saving = estimate_counter_memory("space_saving", epsilon=0.01)
        sketch = estimate_counter_memory("count_min", epsilon=0.01, track=10)
        budget = space_saving + sketch  # fits Space Saving outright...
        assert sketch <= budget // 2 < space_saving  # ...but halved, only the sketch
        spec = AlgorithmSpec(
            name="rhhh",
            epsilon=0.05,
            seed=1,
            counter=CounterSpec(auto=True, memory_bytes=budget, epsilon=0.01, track=10),
        )
        assert spec.counter.resolve().name == "space_saving"
        engine = ShardedHHH(spec, "1d-bytes", 2, parallel=False)
        for shard in range(2):
            node_counter = engine.shard_algorithm(shard).node_counter(0)
            assert type(node_counter).__name__ == "CountMinSketch"


class TestSketchGeometryEstimates:
    """The estimates price exactly the tables the constructors build."""

    def test_count_min_estimate_prices_the_constructed_table(self):
        sketch = CountMinSketch(epsilon=0.02, delta=0.14)
        estimate = estimate_counter_memory("count_min", epsilon=0.02, delta=0.14, track=0)
        assert estimate == sketch.depth * sketch.width * 8

    def test_count_sketch_even_depth_delta_prices_the_bumped_table(self):
        # ceil(ln 1/0.14) == 2, which CountSketch.__init__ bumps to 3 so the
        # median stays unambiguous; the estimate must price the bumped row
        # too, not under-count the table at even-depth deltas.
        sketch = CountSketch(epsilon=0.05, delta=0.14)
        assert sketch.depth == 3
        estimate = estimate_counter_memory("count_sketch", epsilon=0.05, delta=0.14, track=0)
        assert estimate == sketch.depth * sketch.width * 8

    @pytest.mark.parametrize("name, cls", [("count_min", CountMinSketch), ("count_sketch", CountSketch)])
    def test_pinned_geometry_prices_the_constructed_table(self, name, cls):
        # An explicit even depth is bumped by CountSketch too.
        sketch = cls(epsilon=0.05, width=300, depth=4)
        estimate = estimate_counter_memory(name, epsilon=0.05, width=300, depth=4, track=0)
        assert estimate == sketch.depth * sketch.width * 8

    def test_count_sketch_odd_depth_delta_is_not_bumped(self):
        # ceil(ln 1/0.04) == 4 bumps to 5; ceil(ln 1/0.01) == 5 stays 5.
        even = estimate_counter_memory("count_sketch", epsilon=0.05, delta=0.04, track=0)
        odd = estimate_counter_memory("count_sketch", epsilon=0.05, delta=0.01, track=0)
        assert even == odd == CountSketch(epsilon=0.05, delta=0.01).depth * CountSketch.derived_width(0.05) * 8


class TestChurnAwareChoice:
    """``working_set`` steers the chooser toward sketches under churn."""

    BIG_BUDGET = 4 << 20  # every backend fits at epsilon=0.01, track=50

    def test_high_churn_prefers_a_fitting_sketch(self):
        calm = choose_counter_backend(self.BIG_BUDGET, epsilon=0.01, track=50)
        stormy = choose_counter_backend(
            self.BIG_BUDGET, epsilon=0.01, track=50, working_set=1000
        )
        assert calm == "space_saving"
        assert stormy == "count_min"

    @pytest.mark.parametrize("working_set, capacity", [(100, None), (1000, 5000)])
    def test_working_set_within_capacity_keeps_space_saving(self, working_set, capacity):
        # The capacity - ceil(1/epsilon) == 100 counters, or the 5000 the
        # caller pinned - holds the whole working set: no eviction storm,
        # the paper's deterministic counter stays preferred.
        choice = choose_counter_backend(
            self.BIG_BUDGET, epsilon=0.01, track=50, working_set=working_set, capacity=capacity
        )
        assert choice == "space_saving"

    def test_churn_preference_requires_a_fitting_sketch(self):
        # A budget only the Space Saving variants fit: the churn hint cannot
        # conjure a sketch into the budget.
        budget = estimate_counter_memory("space_saving", epsilon=0.01)
        assert estimate_counter_memory("count_min", epsilon=0.01) > budget
        choice = choose_counter_backend(budget, epsilon=0.01, working_set=10**6)
        assert choice == "space_saving"

    def test_working_set_validation(self):
        with pytest.raises(ConfigurationError, match="working_set"):
            choose_counter_backend(self.BIG_BUDGET, epsilon=0.01, working_set=0)
        with pytest.raises(ConfigurationError, match="working_set"):
            CounterSpec(auto=True, memory_bytes=1024, working_set=0)

    def test_counter_spec_resolves_and_round_trips_working_set(self):
        spec = CounterSpec(
            auto=True,
            memory_bytes=self.BIG_BUDGET,
            epsilon=0.01,
            track=50,
            working_set=1000,
        )
        resolved = spec.resolve()
        assert resolved.name == "count_min"
        assert resolved.working_set == 1000
        clone = CounterSpec.from_dict(spec.to_dict())
        assert clone == spec
        counter = build_counter(resolved)
        assert type(counter).__name__ == "CountMinSketch"
