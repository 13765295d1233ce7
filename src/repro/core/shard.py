"""Sharded parallel batch execution: hash-partitioned shards, mergeable counters.

The per-node grouping inside :meth:`repro.core.rhhh.RHHH.update_batch` is
embarrassingly parallel, and this module is the scale lever built on that
fact: a :class:`ShardedHHH` hash-partitions every key batch across ``N``
shard replicas of a lattice algorithm (RHHH, MST or SampledMST - anything
built from an :class:`~repro.api.specs.AlgorithmSpec` that keeps one
mergeable counter per lattice node), drives each replica's own vectorized
``update_batch`` over its sub-stream, and reduces the per-node counter
summaries with the :meth:`~repro.hh.base.FrequencyEstimator.merge` protocol
at output time.  This is the local-update/central-merge loop of the
federated-aggregation literature with per-shard counter summaries playing
the role of the local models.

Two execution modes share identical semantics:

* ``parallel=False`` runs the shard replicas in-process (deterministic,
  dependency-free - the reference the lockstep tests compare against);
* ``parallel=True`` gives each shard a dedicated worker process (spawn-safe:
  workers rebuild their replica from the pickled spec + hierarchy, so no
  live state crosses the fork boundary) and overlaps the per-shard batch
  work across cores.

Parallel workers run under a :class:`~repro.core.supervise.ShardSupervisor`:
every wait is bounded by an IPC timeout with liveness checks, and the
supervisor's :class:`~repro.core.supervise.SupervisorPolicy` decides what a
worker death means - ``fail`` raises a typed
:class:`~repro.exceptions.ShardFailure` naming the shard and exitcode,
``restart`` respawns the shard from its last supervision checkpoint and
replays the journaled delta (bit-identical to a failure-free run), and
``degrade`` continues on the survivors, merging the lost shard's
checkpointed contribution and widening the output's error bounds by exactly
the unaccounted weight (reported via ``HHHOutput.failed_shards``).  The
whole engine state also snapshots/restores through
:meth:`ShardedHHH.snapshot_state`/:meth:`ShardedHHH.restore_state`, which is
what ``Session`` checkpointing builds on.

Each *key* is routed to exactly one shard (multiplicative hashing on the
packed key), so at the fully-specified lattice node the shard summaries see
disjoint key sets and the reduction uses ``merge(..., disjoint=True)``: the
merged estimate over-counts a monitored key by at most its owning shard's
error bound.  At generalized nodes disjointness does *not* hold - two
packets of the same /24 aggregate can hash to different shards - so those
nodes reduce with the generic merge, whose estimates stay within the
*summed* per-shard error bounds (and the sketch merges are exactly the
single-pass tables everywhere).  Merged output is *not* bit-identical to an
unsharded run (the sampling draws differ and Space Saving truncates the
merged summary to capacity), which is why the property and statistical
suites in ``tests/core/test_shard.py`` and
``tests/eval/test_accuracy_regression.py`` pin the error-bound and
(epsilon, delta)-coverage guarantees instead.

The distributed tier (:mod:`repro.distrib`) shares this module's partition
-> merge -> query path: :func:`partition_batch`, :func:`merge_template`,
:func:`reduce_counter_states` and :func:`query_merged`.

Per-shard RNG streams are derived with ``numpy.random.SeedSequence.spawn``:
for a fixed ``(seed, shards)`` pair every run draws the same per-shard
seeds, while different shards get cryptographically independent streams (no
two workers ever replay the same coin flips).
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.specs import AlgorithmSpec
from repro.core.base import HHHAlgorithm, HHHOutput
from repro.core.batch import coerce_key_array, coerce_weights
from repro.core.checkpoint import apply_runtime_state, capture_runtime_state
from repro.core.output import OutputCache
from repro.core.supervise import ShardLoss, ShardSupervisor, SupervisorPolicy
from repro.exceptions import AlgorithmError, CheckpointError, ConfigurationError
from repro.hh.base import FrequencyEstimator
from repro.hierarchy.base import Hierarchy

_MASK64 = (1 << 64) - 1
#: Odd multiplicative-hash constants (golden-ratio and xxhash64 primes).
_GOLDEN_SRC = 0x9E3779B97F4A7C15
_GOLDEN_DST = 0xC2B2AE3D27D4EB4F
#: Keep the top 31 bits of the mixed word: the low bits of ``x * odd`` are a
#: permutation of ``x``'s low bits, the high bits are well mixed.
_MIX_SHIFT = 33


def spawn_shard_seeds(seed: Optional[int], shards: int) -> List[int]:
    """Derive one independent RNG seed per shard via ``SeedSequence.spawn``.

    Reproducible: a fixed ``(seed, shards)`` pair always yields the same
    seed list.  Independent: spawned children occupy disjoint entropy
    streams, so two shards never see identical draw sequences (the paired
    regression test feeds both seeds into RHHH and compares the node
    choices).  ``seed=None`` draws fresh OS entropy, matching the unseeded
    behaviour of the underlying algorithms.
    """
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    root = np.random.SeedSequence(seed)
    return [int(child.generate_state(1, dtype=np.uint64)[0]) for child in root.spawn(shards)]


def per_shard_algorithm_spec(spec: AlgorithmSpec, seed: Optional[int], shards: int) -> AlgorithmSpec:
    """The spec one shard replica is built from: own seed, divided memory budget.

    A memory-budgeted auto counter (``CounterSpec(auto=True, memory_bytes=B)``)
    describes the *deployment's* budget; ``N`` shards each get ``B // N`` so
    the sharded run stays inside the same envelope.  The churn hint divides
    the same way: hash partitioning spreads the distinct keys evenly, so one
    shard sees roughly ``working_set // N`` of them.
    """
    counter = spec.counter
    if counter is not None and counter.auto and counter.memory_bytes is not None:
        working_set = counter.working_set
        if working_set is not None:
            working_set = max(1, working_set // shards)
        counter = dataclasses.replace(
            counter,
            memory_bytes=max(1, counter.memory_bytes // shards),
            working_set=working_set,
        )
    return dataclasses.replace(spec, seed=seed, counter=counter)


# --------------------------------------------------------------------------- #
# hash partitioning
# --------------------------------------------------------------------------- #


def shard_of_key(key: Hashable, shards: int) -> int:
    """Shard owning ``key`` - the scalar twin of :func:`shard_assignments`.

    Integer and integer-pair keys use the same multiplicative mix as the
    vectorized path (modulo ``2**64``), so a key is routed identically
    whether it arrives through ``update`` or inside a numpy batch; other key
    types fall back to Python ``hash`` (deterministic per process family
    only for types unaffected by hash randomization, which covers the ints
    and int tuples the hierarchies emit).
    """
    if isinstance(key, tuple) and len(key) == 2:
        src, dst = key
        if isinstance(src, (int, np.integer)) and isinstance(dst, (int, np.integer)):
            mixed = ((int(src) * _GOLDEN_SRC) & _MASK64) ^ ((int(dst) * _GOLDEN_DST) & _MASK64)
            return (mixed >> _MIX_SHIFT) % shards
    if isinstance(key, (int, np.integer)) and not isinstance(key, bool):
        return (((int(key) * _GOLDEN_SRC) & _MASK64) >> _MIX_SHIFT) % shards
    return hash(key) % shards


def shard_assignments(keys: Sequence, shards: int) -> Optional[np.ndarray]:
    """Per-packet shard ids for a key batch, or ``None`` for non-numeric keys.

    Vectorized multiplicative hashing over the batch: 1-D integer arrays mix
    each key, ``(n, 2)`` arrays mix source and destination with different
    odd constants.  Identical keys always land in the same shard, which is
    what makes the shard summaries key-disjoint and the ``disjoint=True``
    merge reduction valid.
    """
    arr = coerce_key_array(keys, len(keys))
    if arr is None or arr.dtype.kind not in "iu":
        return None
    if arr.ndim == 1:
        mixed = arr.astype(np.uint64) * np.uint64(_GOLDEN_SRC)
    elif arr.ndim == 2 and arr.shape[1] == 2:
        mixed = (arr[:, 0].astype(np.uint64) * np.uint64(_GOLDEN_SRC)) ^ (
            arr[:, 1].astype(np.uint64) * np.uint64(_GOLDEN_DST)
        )
    else:
        return None
    return ((mixed >> np.uint64(_MIX_SHIFT)) % np.uint64(shards)).astype(np.int64)


# --------------------------------------------------------------------------- #
# the shared partition -> merge -> query path
# --------------------------------------------------------------------------- #


def partition_batch(
    keys: Sequence, weights_arr: Optional[np.ndarray], n: int, parts: int
) -> List[Tuple[Sequence, Optional[np.ndarray]]]:
    """Split a batch into per-part ``(keys, weights)`` sub-batches.

    Part ``i`` receives the keys :func:`shard_of_key` routes to ``i``, in
    stream order.  Non-numeric batches iterate
    :meth:`~repro.core.base.HHHAlgorithm._iter_batch_keys`, so a 2-D object
    array routes as the key tuples its rows stand for.
    """
    if parts == 1:
        return [(keys if isinstance(keys, np.ndarray) else list(keys), weights_arr)]
    assignments = shard_assignments(keys, parts)
    key_list = None
    if assignments is None:
        key_list = list(HHHAlgorithm._iter_batch_keys(keys))
        assignments = np.array([shard_of_key(key, parts) for key in key_list], dtype=np.int64)
    else:
        keys_arr = coerce_key_array(keys, n)
    split: List[Tuple[Sequence, Optional[np.ndarray]]] = []
    for part in range(parts):
        picked = np.flatnonzero(assignments == part)
        sub_keys = keys_arr[picked] if key_list is None else [key_list[i] for i in picked.tolist()]
        split.append((sub_keys, weights_arr[picked] if weights_arr is not None else None))
    return split


def merge_template(
    spec: AlgorithmSpec, hierarchy: Hierarchy, parts: int
) -> Tuple[HHHAlgorithm, List[bool]]:
    """Build the merged-output delegate and the per-node disjointness flags.

    The template is sized like one part, so capacities line up with the part
    summaries.  Hash partitioning is key-disjoint only at the fully-specified
    (level-0) node, where the counter keys *are* the routed keys; generalized
    nodes aggregate keys from many parts and take the summed-bound merge.
    Raises :class:`ConfigurationError` for a spec without a mergeable
    per-node counter lattice.
    """
    from repro.api.registry import build_algorithm

    template = build_algorithm(per_shard_algorithm_spec(spec, spec.seed, parts), hierarchy)
    if not hasattr(template, "_counters"):
        raise ConfigurationError(
            f"algorithm {spec.name!r} keeps no per-node counter lattice; only the "
            "lattice algorithms (rhhh, mst, sampled_mst) can be partitioned and merged"
        )
    probe = template._counters[0]
    if type(probe).merge is FrequencyEstimator.merge:
        raise ConfigurationError(
            f"counter backend {type(probe).__name__} does not implement merge(); "
            "pick a mergeable backend (space_saving, misra_gries, count_min, count_sketch)"
        )
    node_disjoint = [hierarchy.node_level(node) == 0 for node in range(hierarchy.size)]
    return template, node_disjoint


def reduce_counter_states(
    states: Sequence[Tuple[int, Sequence]], node_disjoint: Sequence[bool]
) -> Tuple[List, int]:
    """Merge per-part ``(total, counters)`` states, in order, into one lattice.

    The first part's counters are the merge targets and are mutated; the
    rest are read-only merge arguments (``merge`` never mutates its
    argument).  Returns ``(counters, total)`` with the summed part totals.
    """
    first_total, first_counters = states[0]
    merged = list(first_counters)
    total = first_total
    for part_total, counters in states[1:]:
        total += part_total
        for node, counter in enumerate(counters):
            merged[node].merge(counter, disjoint=node_disjoint[node])
    return merged, total


def query_merged(
    template: HHHAlgorithm,
    merged: List,
    total: int,
    theta: float,
    *,
    losses: Sequence[ShardLoss],
    lost: int,
    versions: List[int],
    cache: Optional[OutputCache],
) -> HHHOutput:
    """Run the template's Output on a merged lattice, widened by lost weight.

    The merged state and the caller's ``versions``/``cache`` pair replace the
    template's own for one ``output`` call and are swapped back even if it
    raises.  ``cache=None`` is the from-scratch reference pass.  ``lost`` is
    weight the merge does not account for: ``N`` counts it, every
    conditioned estimate gains it (no prefix that could reach the threshold
    is dropped) and every upper bound is stretched by it; ``losses`` rides
    along on ``failed_shards``.
    """
    saved = (template._counters, template._total, template._versions, template._output_cache)
    template._counters, template._total = merged, total + lost
    template._versions, template._output_cache = versions, cache
    template.extra_correction = float(lost)
    try:
        result = template.output(theta)
    finally:
        template.extra_correction = 0.0
        template._counters, template._total, template._versions, template._output_cache = saved
    if lost:
        result.candidates = [
            dataclasses.replace(candidate, upper_bound=candidate.upper_bound + lost)
            for candidate in result.candidates
        ]
    result.failed_shards = list(losses)
    return result


# --------------------------------------------------------------------------- #
# the sharded engine
# --------------------------------------------------------------------------- #


class ShardedHHH(HHHAlgorithm):
    """Hash-partitioned shard replicas of a lattice HHH algorithm.

    Args:
        algorithm: the :class:`~repro.api.specs.AlgorithmSpec` each shard
            replica is built from (or a bare registry name).  The spec's
            ``seed`` is the *root* seed; per-shard seeds are spawned from it.
        hierarchy: the hierarchical domain - a registry name (preferred for
            process workers: each worker rebuilds it by name) or a
            :class:`~repro.hierarchy.base.Hierarchy` instance (pickled to
            the workers; the builtin hierarchies are plain data).
        shards: number of shard replicas (>= 1).
        parallel: ``True`` gives each shard a worker process; ``False`` runs
            the replicas in-process (same results, no processes - the
            lockstep reference and the sensible choice for tiny runs).
        supervisor: failure handling for the worker pool - a
            :class:`~repro.core.supervise.SupervisorPolicy`, a bare policy
            name (``"fail"``/``"restart"``/``"degrade"``), or ``None`` for
            the default fail-fast policy.
        fault_plan: optional :class:`~repro.core.faults.FaultPlan` firing
            deterministic worker kills/delays at scheduled batch indices
            (``parallel=True`` only; the fault-injection test hook).
    """

    name = "sharded"

    def __init__(
        self,
        algorithm: Union[AlgorithmSpec, str] = "rhhh",
        hierarchy: Union[Hierarchy, str] = "2d-bytes",
        shards: int = 2,
        *,
        parallel: bool = True,
        supervisor: Union[SupervisorPolicy, str, None] = None,
        fault_plan=None,
    ) -> None:
        from repro.api.registry import build_algorithm, make_hierarchy

        spec = AlgorithmSpec(name=algorithm) if isinstance(algorithm, str) else algorithm
        if not isinstance(spec, AlgorithmSpec):
            raise ConfigurationError(
                f"algorithm must be an AlgorithmSpec or name, got {type(algorithm).__name__}"
            )
        if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
            raise ConfigurationError(f"shards must be a positive integer, got {shards!r}")
        if isinstance(supervisor, str):
            supervisor = SupervisorPolicy(policy=supervisor)
        elif supervisor is None:
            supervisor = SupervisorPolicy()
        elif not isinstance(supervisor, SupervisorPolicy):
            raise ConfigurationError(
                f"supervisor must be a SupervisorPolicy or policy name, "
                f"got {type(supervisor).__name__}"
            )
        if fault_plan is not None and not parallel:
            raise ConfigurationError(
                "fault_plan injects worker kills/delays and requires parallel=True"
            )
        hierarchy_obj = make_hierarchy(hierarchy) if isinstance(hierarchy, str) else hierarchy
        super().__init__(hierarchy_obj)
        self._spec = spec
        self._shards = shards
        self._parallel = bool(parallel)
        self._policy = supervisor
        self._seeds = spawn_shard_seeds(spec.seed, shards)
        self._shard_specs = [
            per_shard_algorithm_spec(spec, seed, shards) for seed in self._seeds
        ]
        # The merged-output delegate; building it up front also fail-fasts
        # on unshardable specs.
        self._template, self._node_disjoint = merge_template(spec, hierarchy_obj, shards)
        self._replicas: List[HHHAlgorithm] = []
        self._supervisor: Optional[ShardSupervisor] = None
        self._batch_index = 0
        self._closed = False
        # Incremental-query plumbing.  Serial mode caches the merged counter
        # of each lattice node keyed by the per-replica version stamps of
        # that node; parallel mode (full states shipped per query) caches
        # the whole merge keyed by the dispatch clock.  The template's
        # version/cache pair is swapped in around the hijacked output call
        # so the merged lattice gets its own incremental passes, disjoint
        # from the template's native state.  Set ``_template_cache = None``
        # to force every query through the from-scratch reference path.
        hierarchy_size = hierarchy_obj.size
        self._merged_node_cache: List[Optional[Tuple[tuple, object]]] = [None] * hierarchy_size
        self._parallel_merge_cache: Optional[Tuple[tuple, List, int]] = None
        self._template_versions: List[int] = [0] * hierarchy_size
        self._template_cache: Optional[OutputCache] = OutputCache()
        if self._parallel:
            self._supervisor = ShardSupervisor(
                self._shard_specs,
                hierarchy if isinstance(hierarchy, str) else hierarchy_obj,
                supervisor,
                fault_plan=fault_plan,
            )
            self._supervisor.start()
        else:
            self._replicas = [
                build_algorithm(shard_spec, hierarchy_obj) for shard_spec in self._shard_specs
            ]

    # ------------------------------------------------------------------ #
    # worker lifecycle
    # ------------------------------------------------------------------ #

    def close(self, raise_errors: bool = True) -> None:
        """Shut the worker pool down (idempotent; serial mode is a no-op).

        The supervisor collects close-time failures of shards not already
        reported and raises them as one error naming each shard and
        exitcode; ``raise_errors=False`` (the GC/unwind path) still cleans
        every process up but swallows the report.
        """
        if self._closed:
            return
        self._closed = True
        if self._supervisor is not None:
            self._supervisor.close(raise_errors=raise_errors)

    def __enter__(self) -> "ShardedHHH":
        return self

    def __exit__(self, exc_type, exc_value, exc_tb) -> None:
        # Do not mask an in-flight exception with close-time failures.
        self.close(raise_errors=exc_type is None)

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close(raise_errors=False)
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # stream processing
    # ------------------------------------------------------------------ #

    def update(self, key: Hashable, weight: int = 1) -> None:
        """Route one packet to the shard owning its key.

        ``self._total`` moves only after the owning shard acknowledged (or
        the supervisor recovered/degraded the failure), so a dispatch
        failure never leaves the recorded total ahead of the shard state.
        """
        shard = shard_of_key(key, self._shards)
        if self._parallel:
            batch = self._batch_index
            self._supervisor.begin_batch(batch)
            if self._supervisor.send_update(shard, ("update", key, weight), weight, batch):
                self._supervisor.collect_acks([shard], batch)
            self._supervisor.maybe_checkpoint(batch)
            self._batch_index += 1
        else:
            self._replicas[shard].update(key, weight)
            self._batch_index += 1
        self._total += weight

    # The sharded engine has no scalar twin of its own: its reference is the
    # serial replica set the lockstep suite (test_shard.py) drives in parallel.
    def update_batch(  # reprolint: ok(twin-parity)
        self, keys: Sequence[Hashable], weights: Optional[Sequence[int]] = None
    ) -> None:
        """Hash-partition the batch and drive every shard's own ``update_batch``.

        In parallel mode the sub-batches are dispatched to all workers before
        any acknowledgement is collected, so the per-shard vectorized engines
        run concurrently; serial mode applies them in shard order.  Either
        way each shard sees exactly the sub-stream of keys it owns, in stream
        order - the property the lockstep suite pins.  The recorded total
        only moves once every touched shard acknowledged (or its failure was
        recovered/degraded), keeping ``total`` consistent with shard state
        when a dispatch fails.
        """
        n = len(keys)
        if n == 0:
            return
        weights_arr, total_weight = coerce_weights(weights, n)
        parts = partition_batch(keys, weights_arr, n, self._shards)
        if self._parallel:
            batch = self._batch_index
            self._supervisor.begin_batch(batch)
            touched = []
            for shard, (sub_keys, sub_weights) in enumerate(parts):
                if len(sub_keys) == 0:
                    continue
                sub_weight = (
                    int(sub_weights.sum()) if sub_weights is not None else len(sub_keys)
                )
                message = ("update_batch", sub_keys, sub_weights)
                if self._supervisor.send_update(shard, message, sub_weight, batch):
                    touched.append(shard)
            self._supervisor.collect_acks(touched, batch)
            self._supervisor.maybe_checkpoint(batch)
            self._batch_index += 1
        else:
            for shard, (sub_keys, sub_weights) in enumerate(parts):
                if len(sub_keys):
                    self._replicas[shard].update_batch(sub_keys, sub_weights)
            self._batch_index += 1
        self._total += total_weight

    # ------------------------------------------------------------------ #
    # checkpoint/restore of the whole engine
    # ------------------------------------------------------------------ #

    def snapshot_state(self) -> dict:
        """Full engine snapshot: per-shard runtime states + engine bookkeeping.

        Plain picklable data, suitable for
        :func:`repro.core.checkpoint.save_checkpoint`.  Raises
        :class:`~repro.exceptions.CheckpointError` on a degraded engine
        (lost shards have no state left to snapshot).
        """
        if self._parallel:
            shard_states = self._supervisor.runtime_states()
        else:
            shard_states = [capture_runtime_state(replica) for replica in self._replicas]
        return {
            "engine": "sharded",
            "shards": self._shards,
            "seeds": list(self._seeds),
            "total": self._total,
            "batch_index": self._batch_index,
            "shard_states": shard_states,
        }

    def restore_state(self, state: dict) -> None:
        """Apply a :meth:`snapshot_state` snapshot to this (freshly built) engine.

        The engine must have been built from the same spec: shard count and
        spawned seeds are verified, so a checkpoint can never be silently
        replayed onto a differently-partitioned engine.  In parallel mode
        the restored states also become the supervisor's recovery baseline.
        """
        if state.get("engine") != "sharded":
            raise CheckpointError(
                f"checkpoint holds {state.get('engine')!r} state, expected 'sharded'"
            )
        if state.get("shards") != self._shards:
            raise CheckpointError(
                f"checkpoint was taken with {state.get('shards')} shards, engine has {self._shards}"
            )
        if list(state.get("seeds", [])) != list(self._seeds):
            raise CheckpointError(
                "checkpoint shard seeds do not match this engine's spawned seeds "
                "(different root seed or shard count)"
            )
        shard_states = state["shard_states"]
        if self._parallel:
            self._supervisor.restore_states(shard_states)
        else:
            for replica, shard_state in zip(self._replicas, shard_states):
                apply_runtime_state(replica, shard_state)
        self._total = int(state["total"])
        self._batch_index = int(state["batch_index"])
        # Replaced shard state invalidates every merge/query cache: restored
        # version stamps could coincidentally match cached signatures from a
        # different timeline.
        self._merged_node_cache = [None] * len(self._merged_node_cache)
        self._parallel_merge_cache = None
        if self._template_cache is not None:
            self._template_cache.invalidate()

    # ------------------------------------------------------------------ #
    # the merge reduction and queries
    # ------------------------------------------------------------------ #

    def _shard_states(self) -> List[Tuple[int, List]]:
        """Collect ``(total, counters)`` from every shard.

        Parallel snapshots arrive as fresh pickled copies via the
        supervisor, which substitutes the last supervision checkpoint for a
        degraded shard; the serial path deep-copies shard 0 (the merge
        target) and hands the rest over read-only - ``merge`` never mutates
        its argument.
        """
        if self._parallel:
            return self._supervisor.merge_states()
        states = []
        for shard, replica in enumerate(self._replicas):
            counters = replica._counters
            if shard == 0:
                counters = copy.deepcopy(counters)
            states.append((replica.total, counters))
        return states

    def merged_counters(self) -> Tuple[List, int]:
        """Reduce the shard summaries into one per-node counter list.

        Returns ``(counters, total)``: the merge of every shard's per-node
        summaries (key-disjoint at the fully-specified node, generic
        summed-bound elsewhere) and the summed shard totals.  Under the
        degrade policy a lost shard contributes its last checkpointed
        summary, so the returned total *excludes* the packets reported in
        the supervisor's loss report.
        """
        states = self._shard_states()
        if not states:
            raise AlgorithmError(
                "no shard state survives the failures: every shard was lost "
                "before its first supervision checkpoint"
            )
        return reduce_counter_states(states, self._node_disjoint)

    def _merged_counters_cached(self) -> Tuple[List, int]:
        """Incremental twin of :meth:`merged_counters`.

        Serial mode re-merges only the lattice nodes whose per-replica
        version stamps moved since the last query, reusing the cached merged
        summary everywhere else; a rebuilt node bumps its template version so
        the incremental output pass re-enumerates exactly those nodes.
        Parallel mode ships whole shard states per query, so the merge is
        cached wholesale and keyed on the dispatch clock (plus the loss
        account, which can move without a dispatch under the degrade
        policy).  Either way the merged counters are value-identical to
        :meth:`merged_counters` - same merge order, same disjointness flags.
        """
        if self._parallel:
            lost = self._supervisor.lost_packets()
            key = (self._batch_index, lost)
            cached = self._parallel_merge_cache
            if cached is not None and cached[0] == key:
                return cached[1], cached[2]
            merged, total = self.merged_counters()
            self._parallel_merge_cache = (key, merged, total)
            versions = self._template_versions
            for node in range(len(versions)):
                versions[node] += 1
            return merged, total
        replicas = self._replicas
        merged = []
        for node in range(len(self._merged_node_cache)):
            sig = tuple(replica._versions[node] for replica in replicas)
            cached = self._merged_node_cache[node]
            if cached is not None and cached[0] == sig:
                merged.append(cached[1])
                continue
            counter = copy.deepcopy(replicas[0]._counters[node])
            disjoint = self._node_disjoint[node]
            for replica in replicas[1:]:
                counter.merge(replica._counters[node], disjoint=disjoint)
            self._merged_node_cache[node] = (sig, counter)
            self._template_versions[node] += 1
            merged.append(counter)
        total = sum(replica.total for replica in replicas)
        return merged, total

    def output(self, theta: float) -> HHHOutput:
        """Merge the shards and run the underlying algorithm's Output on the result.

        The delegate instance supplies the algorithm-specific scaling and
        sampling correction (``V`` and the ``2 Z sqrt(NV)`` term for RHHH,
        the plain lattice output for MST), computed against the *combined*
        stream length.  Under the degrade policy the supervisor's lost
        packets widen the bounds as :func:`query_merged` describes, and the
        per-shard :class:`~repro.core.supervise.ShardLoss` reports ride along
        on ``failed_shards``.

        Queries run incrementally by default: the merged lattice carries the
        wrapper-owned version stamps and output cache, so a repeat query
        re-enumerates only the nodes whose merge was rebuilt.  Setting
        ``_template_cache = None`` forces the from-scratch reference path
        (full re-merge, uncached output pass) - the parity suite compares
        the two.
        """
        if self._template_cache is not None:
            merged, merged_total = self._merged_counters_cached()
        else:
            merged, merged_total = self.merged_counters()
        supervisor = self._supervisor
        return query_merged(
            self._template,
            merged,
            merged_total,
            theta,
            losses=supervisor.losses() if supervisor is not None else [],
            lost=supervisor.lost_packets() if supervisor is not None else 0,
            versions=self._template_versions,
            cache=self._template_cache,
        )

    def counters(self) -> int:
        if self._parallel:
            return self._shards * self._template.counters()
        return sum(replica.counters() for replica in self._replicas)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def shards(self) -> int:
        """Number of shard replicas."""
        return self._shards

    @property
    def parallel(self) -> bool:
        """Whether shards run in worker processes."""
        return self._parallel

    @property
    def supervisor(self) -> Optional[ShardSupervisor]:
        """The worker-pool supervisor (``None`` in serial mode)."""
        return self._supervisor

    @property
    def supervisor_policy(self) -> SupervisorPolicy:
        """The failure policy in force."""
        return self._policy

    @property
    def failed_shards(self) -> List[ShardLoss]:
        """Loss reports of shards abandoned under the degrade policy."""
        return self._supervisor.losses() if self._supervisor is not None else []

    @property
    def batch_index(self) -> int:
        """Number of update/update_batch dispatch steps performed so far."""
        return self._batch_index

    @property
    def shard_seeds(self) -> List[int]:
        """The per-shard RNG seeds spawned from the root seed."""
        return list(self._seeds)

    @property
    def shard_specs(self) -> List[AlgorithmSpec]:
        """The per-shard algorithm specs (own seed, divided memory budget)."""
        return list(self._shard_specs)

    def worker_pids(self) -> dict:
        """Pid of every live worker keyed by shard (parallel mode only)."""
        if self._supervisor is None:
            return {}
        return self._supervisor.worker_pids()

    def shard_algorithm(self, shard: int) -> HHHAlgorithm:
        """The live replica of ``shard`` (serial mode only; for tests)."""
        if self._parallel:
            raise AlgorithmError("shard replicas live in worker processes when parallel=True")
        return self._replicas[shard]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "parallel" if self._parallel else "serial"
        return (
            f"ShardedHHH({self._spec.name!r}, shards={self._shards}, {mode}, "
            f"N={self._total})"
        )
