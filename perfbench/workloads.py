"""The benchmark's workloads and the closed-loop driver that measures them.

Every workload runs RHHH (``V = H``) on the ``2d-bytes`` hierarchy
(``H = 25``) with epsilon 0.003, delta 0.01 and theta 0.05, fed through the
public API: :class:`repro.api.Session` and the engine's
``update_batch``/``output``.  One producer drives the engine in a closed
loop: the next batch is sent when the previous call returns.

A run has three phases.

1. **Set-up**, repeated :data:`SETUP_REPEATS` times (the median is
   ``setup_s``): draw the traffic from the seed, write it as a v2 trace
   where the workload replays one, build the session (spawning the shard
   workers on ``sharded``) and, on ``monitor``, warm the engine up.
2. **Episodes.**  An episode restores the engine to the state set-up left
   it in and replays the workload's stream once, so every episode does the
   same work and the report at its end covers the same packets, however
   fast the engine is.  One untimed episode comes first (imports, page
   faults, first batch); timed episodes follow until ``--seconds`` have
   passed and at least :data:`MIN_EPISODES` ran.
3. **Final report**: the end-of-stream ``output(theta)`` is taken
   repeatedly, spread over the run, from a cold output cache (the engine is
   restored from a snapshot of its end state before each), and checked
   against the exact answer.  ``final_query_ms`` is the median repeat.

Every timing is normalised for the machine's speed at the moment it was
taken.  On a shared machine the same work can take twice as long for
seconds at a time (other tenants), which no amount of repetition averages
out of a ten-second run.  So a short fixed calibration task
(:func:`calibration_work`: a numpy ``unique`` and a Python dict loop, the two
kinds of work the engine does) runs before every timed call, and each
measured interval is scaled by ``CALIBRATION_REFERENCE_S`` over the median of
the latest calibration times: a figure reads as it would on a machine that
runs the calibration task in exactly ``CALIBRATION_REFERENCE_S``.  Raw
wall-clock figures are printed alongside.  Span times in the traced run
are raw.
"""

from __future__ import annotations

import dataclasses
import gc
import resource
import statistics
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.api.session as session_module
from repro.analysis.bounds import coverage_correction
from repro.api import AlgorithmSpec, CounterSpec, ExperimentSpec, Session
from repro.api.registry import make_hierarchy
from repro.core.checkpoint import restore_algorithm, snapshot_algorithm
from repro.core.shard import ShardedHHH
from repro.eval import precision_recall
from repro.traffic import WORKLOADS as NAMED_TRAFFIC
from repro.traffic import BackboneTraceGenerator, TraceV2Writer, zipf_weights

from tracing import Tracer, span_stats
from truth import cached_truth, check_report

HIERARCHY = "2d-bytes"
EPSILON = 0.003
DELTA = 0.01
THETA = 0.05
#: The named workload whose flow population every stream draws from.
TRAFFIC = "sanjose14"
#: The flood's victim network and the HHH it must produce.
VICTIM_NET = (203 << 24) | (0 << 16) | (113 << 8)
VICTIM_PREFIX = "(*, 203.0.113.*)"

#: Stream length past which the RHHH correction 2 Z sqrt(N V) stays below
#: theta * N at V = H = 25 (it crosses near 220k packets).
CONVERGED = 327_680

SETUP_REPEATS = 3
MIN_EPISODES = 4
FINAL_QUERY_REPEATS = 5
FINAL_QUERY_BUDGET_S = 1.0
FINAL_QUERY_MAX = 15
#: Typical calibration task time between engine calls on the machine the
#: benchmark was defined on (a 2-core 2.0 GHz Xeon VM); normalised timings
#: read as they would there at that speed.
CALIBRATION_REFERENCE_S = 0.0025
#: Calibration samples whose median sets the current speed.
CALIBRATION_WINDOW = 3
#: Timed episodes stop after this long even if MIN_EPISODES did not run.
MAX_TIMED_S = 100.0
#: Shard workers that do not answer within this long fail the call.
SHARD_TIMEOUT_S = 20.0

OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass(frozen=True)
class Workload:
    """One named workload.

    ``packets`` is the stream an episode replays (after ``warmup`` packets
    fed during set-up); ``replay`` is ``"trace"`` (a v2 trace file through
    ``Session.feed_trace``) or ``"keys"`` (an in-memory key array through
    ``Session.feed``).
    """

    name: str
    why: str
    traffic: str
    counter: str
    packets: int
    batch: int
    replay: str
    warmup: int = 0
    shards: Optional[int] = None
    query_every_batch: bool = False
    must_report: Tuple[str, ...] = ()

    def shortened(self, factor: int) -> "Workload":
        """The same workload with its replayed stream ``factor`` times shorter.

        The warm-up and stream together stay at least :data:`CONVERGED`
        packets long: before that, the sampling correction exceeds the
        threshold, every tracked prefix is selected and a query crawls.
        """
        packets = max(self.packets // factor, CONVERGED - self.warmup, self.batch)
        return dataclasses.replace(self, packets=-(-packets // self.batch) * self.batch)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="backbone",
            why="Zipf backbone trace replayed from a v2 file: Space Saving updates dominate, one final query",
            traffic="backbone", counter="space_saving", packets=2_097_152, batch=65_536,
            replay="trace",
        ),
        Workload(
            name="monitor",
            why="converged engine queried after every 4096-packet chunk: the incremental output pass dominates",
            traffic="backbone", counter="space_saving", packets=102_400, batch=4_096,
            replay="keys", warmup=524_288, query_every_batch=True,
        ),
        Workload(
            name="flood",
            why="half the packets spoof random sources at one /24: ~1 distinct key per 2 packets, Count-Min counters",
            traffic="flood", counter="count_min", packets=524_288, batch=65_536,
            replay="trace", must_report=(VICTIM_PREFIX,),
        ),
        Workload(
            name="sharded",
            why="backbone keys in memory over a 2-worker process pool: partition, dispatch, ack and replica merge",
            traffic="backbone", counter="space_saving", packets=2_097_152, batch=65_536,
            replay="keys", shards=2,
        ),
    )
}


# --------------------------------------------------------------------------- #
# traffic
# --------------------------------------------------------------------------- #


def make_keys(traffic: str, seed: int, count: int) -> np.ndarray:
    """The ``(count, 2)`` (src, dst) stream of a traffic kind, drawn from ``seed``.

    The flow population is the ``sanjose14`` workload's own (its generator
    parameters and seed); ``seed`` draws the packets from it and, on the
    flood, the spoofed sources and which packets carry them.
    """
    named = NAMED_TRAFFIC[TRAFFIC]
    population = BackboneTraceGenerator(
        num_flows=named.num_flows,
        flow_skew=named.flow_skew,
        prefix_skew=named.prefix_skew,
        top_level_networks=named.top_level_networks,
        branching=named.branching,
        seed=named.seed,
    )
    flows = np.array(population.flow_population(), dtype=np.int64)
    rng = np.random.default_rng(seed)
    keys = flows[rng.choice(len(flows), size=count, p=zipf_weights(len(flows), named.flow_skew))]
    if traffic == "flood":
        spoofed = np.flatnonzero(rng.random(count) < 0.5)
        keys[spoofed, 0] = rng.integers(0, 1 << 32, size=len(spoofed), dtype=np.int64)
        keys[spoofed, 1] = VICTIM_NET | rng.integers(0, 256, size=len(spoofed), dtype=np.int64)
    elif traffic != "backbone":
        raise ValueError(f"unknown traffic {traffic!r}")
    return keys


# --------------------------------------------------------------------------- #
# set-up
# --------------------------------------------------------------------------- #


@dataclass
class Rig:
    """A session ready for episodes."""

    workload: Workload
    keys: np.ndarray
    session: Session
    trace_path: Optional[Path]
    setup_s: float
    gen_s: float
    start_state: dict = field(default_factory=dict)

    @property
    def algorithm(self):
        return self.session.algorithm

    def close(self) -> None:
        self.session.close()


def build_rig(workload: Workload, seed: int) -> Rig:
    """One set-up: traffic, trace file, session, shard workers, warm-up."""
    started = time.perf_counter()
    keys = make_keys(workload.traffic, seed, workload.warmup + workload.packets)
    gen_s = time.perf_counter() - started
    trace_path = None
    if workload.replay == "trace":
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        trace_path = OUT_DIR / f"{workload.name}-{seed}.v2"
        with TraceV2Writer(trace_path) as writer:
            writer.write_arrays(keys[:, 0], keys[:, 1])
    spec = ExperimentSpec(
        algorithm=AlgorithmSpec(
            name="rhhh", epsilon=EPSILON, delta=DELTA, seed=seed,
            counter=CounterSpec(name=workload.counter),
        ),
        hierarchy=HIERARCHY,
        workload=TRAFFIC,
        trace=str(trace_path) if trace_path is not None else None,
        packets=len(keys),
        theta=THETA,
        batch_size=workload.batch,
        shards=workload.shards,
        shard_policy="fail",
        shard_timeout=SHARD_TIMEOUT_S,
    )
    session = Session(spec, keys=None if trace_path is not None else keys)
    if workload.warmup:
        session.feed(keys[: workload.warmup])
    rig = Rig(workload, keys, session, trace_path,
              setup_s=time.perf_counter() - started, gen_s=gen_s)
    rig.start_state = snapshot_algorithm(session.algorithm)
    return rig


# --------------------------------------------------------------------------- #
# episodes
# --------------------------------------------------------------------------- #


_CALIBRATION_KEYS = np.random.default_rng(0).integers(0, 1 << 20, size=(2048, 2))
_CALIBRATION_TABLE = np.arange(4 * 256).reshape(4, 256)
_CALIBRATION_ROWS = np.arange(4)


def calibration_work() -> None:
    """The fixed task that gauges the machine's current speed (a few ms).

    One part each of what the engine spends its time on: a bulk numpy
    aggregation (batch grouping), a Python dict loop (Space Saving, the
    output pass) and tiny numpy lookups (sketch estimates).
    """
    np.unique(_CALIBRATION_KEYS, axis=0, return_counts=True)
    counts: Dict[int, int] = {}
    for i in range(1000):
        key = (i * 7919) % 1009
        counts[key] = counts.get(key, 0) + 1
    for i in range(100):
        _CALIBRATION_TABLE[_CALIBRATION_ROWS, (_CALIBRATION_ROWS * i) % 256].min()


class Clock:
    """Measures intervals in seconds normalised for the machine's current speed.

    :meth:`lap` closes the interval since the previous mark, runs the
    calibration task and sets a new mark, so calibration time is never part
    of an interval.  ``elapsed`` sums the normalised intervals since
    :meth:`start`.
    """

    def __init__(self) -> None:
        self._recent: deque = deque(maxlen=CALIBRATION_WINDOW)
        self.samples: List[float] = []
        self._mark: Optional[float] = None
        self.factor = 1.0
        self.elapsed = 0.0
        self.raw_elapsed = 0.0
        #: When set, each calibration is recorded as a span of its own, so
        #: that no layer's self time includes it.
        self.tracer: Optional[Tracer] = None

    def calibrate(self) -> None:
        started = time.perf_counter()
        if self.tracer is None:
            calibration_work()
        else:
            with self.tracer.span("bench.calibrate"):
                calibration_work()
        self._recent.append(time.perf_counter() - started)
        self.samples.append(self._recent[-1])
        self.factor = CALIBRATION_REFERENCE_S / statistics.median(self._recent)

    def start(self) -> None:
        self.elapsed = self.raw_elapsed = 0.0
        self.calibrate()
        self._mark = time.perf_counter()

    def lap(self) -> None:
        self.stop()
        self.calibrate()
        self._mark = time.perf_counter()

    def stop(self) -> None:
        if self._mark is not None:
            raw = time.perf_counter() - self._mark
            self.raw_elapsed += raw
            self.elapsed += raw * self.factor
            self._mark = None

    def measure(self, fn, *args, **kwargs):
        """``fn(*args)`` and its normalised seconds (speed gauged before and after)."""
        self.calibrate()
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - started
        factor = self.factor
        self.calibrate()
        return result, raw * (factor + self.factor) / 2


@dataclass
class Episode:
    """One replay of the stream: normalised feed time and call times (s)."""

    seconds: float = 0.0
    raw_seconds: float = 0.0
    batches: List[float] = field(default_factory=list)
    queries: List[float] = field(default_factory=list)


class CallLog:
    """Counts attempted and failed calls; times each one on the clock."""

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.episode = Episode()

    def call(self, fn, *args, **kwargs):
        """``fn(*args)``, counted as one attempted call; returns (result, seconds)."""
        self.clock.lap()
        self.attempted += 1
        started = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise
        return result, (time.perf_counter() - started) * self.clock.factor

    def timed_batch(self, fn):
        """Wrap an ``update_batch`` so that each call's time is kept."""
        def update_batch(*args, **kwargs):
            result, seconds = self.call(fn, *args, **kwargs)
            self.episode.batches.append(seconds)
            return result

        return update_batch


@dataclass
class Timed:
    """What the timed episodes measured."""

    log: CallLog
    packets: int
    episodes: List[Episode] = field(default_factory=list)
    #: (report, seconds) of every cold end-of-stream query.
    finals: List[Tuple[object, float]] = field(default_factory=list)
    last_report: object = None
    error: Optional[str] = None

    @property
    def seconds(self) -> float:
        """Wall-clock seconds of timed feed so far."""
        return sum(e.raw_seconds for e in self.episodes)

    def throughput_pps(self, raw: bool = False) -> float:
        """Stream length over the median episode time."""
        return self.packets / statistics.median(
            e.raw_seconds if raw else e.seconds for e in self.episodes)

    def calls_ms(self, kind: str) -> np.ndarray:
        """Every timed call of one kind (``batches``/``queries``), in ms."""
        return np.concatenate([getattr(e, kind) for e in self.episodes]) * 1e3


class Instrumentation:
    """Wraps the layers of one rig with tracer spans, one episode at a time."""

    def __init__(self, tracer: Tracer, rig: Rig) -> None:
        self.tracer = tracer
        self.rig = rig
        self.sharded = isinstance(rig.algorithm, ShardedHHH)
        self.queries = 0
        self.dirty_nodes = 0
        self.candidates = 0
        #: Node totals at the start of the current episode and at the last query.
        self.episode_start: Optional[List[int]] = None
        self._last: Optional[List[int]] = None

    def node_totals(self) -> Optional[List[int]]:
        if self.sharded:
            return None  # the node counters live in the worker processes
        algorithm = self.rig.algorithm
        return [algorithm.node_counter(node).total for node in range(algorithm.hierarchy.size)]

    def mark_episode_start(self) -> None:
        self.episode_start = self._last = self.node_totals()

    def install(self) -> None:
        tracer = self.tracer
        session = self.rig.session
        algorithm = self.rig.algorithm
        layer = "shard" if self.sharded else "rhhh"
        for method in ("feed_trace", "feed", "output"):
            tracer.patch(session, method, f"session.{method}")
        tracer.patch(algorithm, "update_batch", f"{layer}.update_batch")
        tracer.patch(algorithm, "output", f"{layer}.output")
        if self.sharded:
            merged_counters = tracer.wrap("shard.merge", algorithm.merged_counters)

            def traced_merge():
                counters, total = merged_counters()
                for counter in counters:
                    self._patch_counter(counter, updates=False)
                return counters, total

            tracer.replace(algorithm, "merged_counters", traced_merge)
        else:
            for node in range(algorithm.hierarchy.size):
                self._patch_counter(algorithm.node_counter(node), updates=True)
        original = session_module.trace_key_batches
        tracer.replace(
            session_module, "trace_key_batches",
            lambda *args, **kwargs: tracer.traced_batches(original(*args, **kwargs)),
        )

    def _patch_counter(self, counter, *, updates: bool) -> None:
        tracer = self.tracer
        if updates:
            tracer.patch(counter, "update_batch", "counter.update", self._count_items)
            tracer.patch(counter, "update_aggregated", "counter.update", self._count_keys)
        for method in ("upper_bound", "lower_bound", "estimate"):
            tracer.patch(counter, method, "counter.bound")

    def _count_items(self, args):
        items = list(args[0])  # a one-shot iterator of (key, weight) pairs
        self.tracer.count("counter.keys_in", len(items))
        return (items,) + args[1:]

    def _count_keys(self, args):
        self.tracer.count("counter.keys_in", len(args[0]))
        return args

    def observe_query(self, report, since: Optional[List[int]] = None) -> None:
        """Count one traced query's candidates and the nodes updated since ``since``.

        ``since`` defaults to the node totals at the previous query.
        """
        self.queries += 1
        self.candidates += len(report.candidates)
        before = since if since is not None else self._last
        now = self.node_totals()
        if now is not None and before is not None:
            self.dirty_nodes += sum(a != b for a, b in zip(now, before))
        self._last = now

    def remove(self) -> None:
        self.tracer.unpatch()


def _episode(rig: Rig, timed: Timed, instrumentation: Optional[Instrumentation]) -> Episode:
    """Restore the start state and replay the stream once."""
    workload = rig.workload
    session = rig.session
    log = timed.log
    stream = rig.keys[workload.warmup:]
    log.episode = episode = Episode()
    restore_algorithm(rig.algorithm, rig.start_state)
    # The replaced state is cyclic garbage that a continuous run would never
    # make; collect it now rather than in the middle of a timed call.
    gc.collect()
    if workload.query_every_batch:
        # A running monitor has a warm output cache; restoring cleared it.
        log.call(session.output, THETA)
    if instrumentation is not None:
        instrumentation.mark_episode_start()
        instrumentation.install()
    algorithm = rig.algorithm
    traced_update = vars(algorithm).get("update_batch")
    algorithm.update_batch = log.timed_batch(algorithm.update_batch)
    log.clock.start()
    try:
        if workload.replay == "trace":
            session.feed_trace()
        elif workload.query_every_batch:
            for lo in range(0, len(stream), workload.batch):
                session.feed(stream[lo : lo + workload.batch])
                timed.last_report, query_s = log.call(session.output, THETA)
                episode.queries.append(query_s)
                if instrumentation is not None:
                    instrumentation.observe_query(timed.last_report)
        else:
            session.feed(stream)
    finally:
        log.clock.stop()
        episode.seconds, episode.raw_seconds = log.clock.elapsed, log.clock.raw_elapsed
        if traced_update is None:
            del algorithm.update_batch
        else:
            algorithm.update_batch = traced_update
        if instrumentation is not None:
            instrumentation.remove()
    return episode


def _final_report(rig: Rig, timed: Timed, end_state: dict,
                  instrumentation: Optional[Instrumentation]) -> None:
    """Take the end-of-stream report from a cold output cache."""
    # Restoring a snapshot also drops any cached output pass.
    restore_algorithm(rig.algorithm, end_state)
    gc.collect()
    if instrumentation is not None:
        instrumentation.install()
    try:
        report, seconds = timed.log.call(rig.session.output, THETA)
    finally:
        if instrumentation is not None:
            instrumentation.remove()
    if instrumentation is not None:
        instrumentation.observe_query(report, since=instrumentation.episode_start)
    timed.finals.append((report, seconds))


def run_episodes(rig: Rig, clock: Clock, seconds: float, min_episodes: int, final_repeats: int,
                 *, instrumentation: Optional[Instrumentation] = None) -> Timed:
    """One untimed episode, then timed ones until the time is up.

    Every episode ends in the same state; the end-of-stream report is taken
    from it ``final_repeats`` times spread over the run (after every
    ``seconds / final_repeats`` of timed feed), then again until the repeats
    add up to :data:`FINAL_QUERY_BUDGET_S` (at most :data:`FINAL_QUERY_MAX`
    in all): a short query needs more repeats to time steadily.  Monitor
    queries are traced in the loop; on the other workloads
    ``instrumentation`` traces the final reports.
    """
    algorithm = rig.algorithm
    timed = Timed(CallLog(clock), packets=rig.workload.packets)
    final_instrumentation = None if rig.workload.query_every_batch else instrumentation
    clock.tracer = instrumentation.tracer if instrumentation is not None else None
    end_state = None
    try:
        _episode(rig, timed, None)
        while True:
            timed.episodes.append(_episode(rig, timed, instrumentation))
            if end_state is None:
                end_state = snapshot_algorithm(algorithm)
            due = len(timed.finals) * seconds / final_repeats
            if len(timed.finals) < final_repeats and timed.seconds >= due:
                _final_report(rig, timed, end_state, final_instrumentation)
            if timed.seconds >= seconds and len(timed.episodes) >= min_episodes:
                break
            if timed.seconds >= MAX_TIMED_S:
                break
        while len(timed.finals) < final_repeats or (
            len(timed.finals) < FINAL_QUERY_MAX
            and sum(s for _, s in timed.finals) < FINAL_QUERY_BUDGET_S
        ):
            _final_report(rig, timed, end_state, final_instrumentation)
    except Exception as exc:  # a failed call ends the run; it is reported, not raised
        timed.error = f"{type(exc).__name__}: {exc}"
    finally:
        clock.tracer = None
    return timed


# --------------------------------------------------------------------------- #
# one benchmark run
# --------------------------------------------------------------------------- #


@dataclass
class Result:
    """The outcome of one run: the gate's verdict, call counts and metrics."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    problems: List[str]
    notes: Dict[str, object] = field(default_factory=dict)


def same_report(a, b) -> bool:
    """True when two reports select the same prefixes with the same bounds."""
    def rows(report):
        return [(str(c.prefix), c.lower_bound, c.upper_bound, c.conditioned_estimate)
                for c in report.candidates]

    return a.total == b.total and rows(a) == rows(b)


def gate_tolerances(packets: int, v: int) -> Dict[str, float]:
    """How far a correct RHHH report may stray from the exact answer, in packets.

    Each frequency bound may be off by the sampling correction
    ``2 Z sqrt(N V)`` (the term RHHH adds to every estimate) plus the
    counters' own ``epsilon * N``; a reported prefix must carry the
    threshold less that correction and twice the counter error.
    """
    correction = coverage_correction(packets, v, DELTA)
    return {
        "slack": correction + EPSILON * packets,
        "floor": THETA * packets - correction - 2 * EPSILON * packets,
    }


def _peak_rss_mb(algorithm) -> float:
    """Peak RSS of this process, plus the largest shard worker's."""
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if isinstance(algorithm, ShardedHHH):
        peak_kib += max((_worker_hwm_kib(pid) for pid in algorithm.worker_pids().values()),
                        default=0)
    return peak_kib / 1024.0


def _worker_hwm_kib(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def run(workload: Workload, seed: int, seconds: float, *, trace: bool,
        min_episodes: int = MIN_EPISODES, setup_repeats: int = SETUP_REPEATS,
        final_repeats: int = FINAL_QUERY_REPEATS) -> Result:
    """One benchmark run of ``workload``; ``trace`` adds the traced per-layer run."""
    clock = Clock()
    setups: List[float] = []
    rig = None
    traced = tracer = instrumentation = None
    try:
        for _ in range(setup_repeats):
            if rig is not None:
                rig.close()
                rig = None
                gc.collect()
            rig, setup_s = clock.measure(build_rig, workload, seed)
            setups.append(setup_s)
        timed = run_episodes(rig, clock, seconds, min_episodes, final_repeats)
        log = timed.log
        if trace and timed.error is None:
            tracer = Tracer()
            instrumentation = Instrumentation(tracer, rig)
            traced = run_episodes(rig, clock, seconds, min_episodes, final_repeats,
                                  instrumentation=instrumentation)
            log.attempted += traced.log.attempted
            log.failed += traced.log.failed
            timed.error = traced.error
        peak_rss_mb = _peak_rss_mb(rig.algorithm)
        sampled = _sampled_frac(rig) if timed.error is None else float("nan")
        entries = rig.algorithm.counters()
    finally:
        if rig is not None:
            rig.close()
            if rig.trace_path is not None:
                rig.trace_path.unlink(missing_ok=True)

    problems: List[str] = []
    if timed.error is not None:
        problems.append(f"call failed: {timed.error}")
    precision = recall = float("nan")
    reports = [report for report, _ in timed.finals]
    final_s = [query_s for _, query_s in timed.finals]
    if reports:
        hierarchy = make_hierarchy(HIERARCHY)
        truth = cached_truth(f"{workload.traffic}-{seed}", hierarchy, rig.keys, THETA)
        report = reports[0]
        problems += check_report(report, truth, must_report=workload.must_report,
                                 **gate_tolerances(truth.total, hierarchy.size))
        if any(not same_report(report, other) for other in reports[1:]):
            problems.append("repeated end-of-stream reports differ")
        if workload.query_every_batch and not same_report(timed.last_report, report):
            problems.append("last in-loop report differs from the cold final report")
        precision, recall = precision_recall(report, truth, THETA)
    elif timed.error is None:
        problems.append("no final report")

    nan = float("nan")
    have_episodes = bool(timed.episodes)
    batch_ms = timed.calls_ms("batches") if have_episodes else np.array([])
    # The final query's repeats time one call on one state; their median
    # stands for it.
    final_ms = np.array([statistics.median(final_s) * 1e3]) if final_s else np.array([])
    if workload.query_every_batch:
        query_ms = timed.calls_ms("queries") if have_episodes else np.array([])
    else:
        query_ms = final_ms  # the one query per stream these workloads make
    metrics: Dict[str, Tuple[float, str]] = {
        "throughput_pps": (timed.throughput_pps() if have_episodes else nan, "packets/s"),
        "batch_ms_p50": (_pct(batch_ms, 50), "ms"),
        "batch_ms_p90": (_pct(batch_ms, 90), "ms"),
        "query_ms_p50": (_pct(query_ms, 50), "ms"),
        "query_ms_p90": (_pct(query_ms, 90), "ms"),
        "final_query_ms": (_pct(final_ms, 50), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "precision": (precision, "ratio"),
        "recall": (recall, "ratio"),
        "failed_frac": (log.failed / max(1, log.attempted), "ratio"),
    }
    notes: Dict[str, object] = {
        "episodes": len(timed.episodes),
        "packets_per_episode": timed.packets,
        "seconds_timed": round(timed.seconds, 3),
        "batch_samples": int(batch_ms.size),
        "query_samples": int(query_ms.size),
        "final_query_ms_each": [round(q * 1e3, 1) for q in final_s],
        "raw_throughput_pps": round(timed.throughput_pps(raw=True)) if have_episodes else None,
        "calibration_ms_median": round(statistics.median(clock.samples) * 1e3, 3),
    }
    if traced is not None and traced.error is None:
        metrics.update(_per_layer(tracer, instrumentation, traced, timed,
                                  rig.gen_s, sampled, entries))
        notes["spans"] = len(tracer)
        notes["span_file"] = str(tracer.dump(OUT_DIR / f"spans-{workload.name}-{seed}.npz"))
    return Result(
        correct=not problems,
        attempted=log.attempted,
        failed=log.failed,
        metrics=metrics,
        problems=problems,
        notes=notes,
    )


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else float("nan")


def _sampled_frac(rig: Rig) -> float:
    """Counter updates per packet fed (H/V for RHHH), over the end state."""
    algorithm = rig.algorithm
    if isinstance(algorithm, ShardedHHH):
        states = algorithm.snapshot_state()["shard_states"]
        updates = sum(state["attrs"]["_update_calls"] for state in states)
        total = sum(state["attrs"]["_total"] for state in states)
    else:
        updates, total = algorithm.counter_updates, algorithm.total
    return updates / total if total else 0.0


def _per_layer(tracer: Tracer, instrumentation: Instrumentation, traced: Timed, untraced: Timed,
               gen_s: float, sampled: float, entries: int) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of the traced episodes (and their final queries)."""
    stats = span_stats(tracer.names, tracer.arrays())
    episodes = len(traced.episodes)
    queries = max(1, instrumentation.queries)

    def figure(name: str, key: str = "total_s") -> float:
        return stats.get(name, {}).get(key, 0.0)

    def per_episode_ms(name: str, key: str = "total_s") -> float:
        return figure(name, key) * 1e3 / episodes

    session_self = sum(v["self_s"] for k, v in stats.items()
                       if k.startswith("session.") and "@" not in k)
    bound_spans = ("counter.bound@rhhh.output", "counter.bound@shard.output")
    return {
        "session.self_ms": (session_self * 1e3 / episodes, "ms/episode"),
        "trace.read_ms": (per_episode_ms("trace.read"), "ms/episode"),
        "trace.batches": (tracer.counts["trace.batches"] / episodes, "count/episode"),
        "trace.bytes": (tracer.counts["trace.bytes"] / episodes, "bytes/episode"),
        "gen.ms": (gen_s * 1e3, "ms"),
        "rhhh.self_ms": (per_episode_ms("rhhh.update_batch", "self_s"), "ms/episode"),
        "rhhh.sampled_frac": (sampled, "ratio"),
        "counter.update_ms": (per_episode_ms("counter.update"), "ms/episode"),
        "counter.calls": (figure("counter.update", "calls") / episodes, "count/episode"),
        "counter.keys_in": (tracer.counts["counter.keys_in"] / episodes, "count/episode"),
        "counter.entries": (float(entries), "count"),
        "output.self_ms": (
            sum(figure(n, "self_s") for n in ("rhhh.output", "shard.output")) * 1e3 / queries,
            "ms/query"),
        "output.bound_ms": (sum(figure(n) for n in bound_spans) * 1e3 / queries, "ms/query"),
        "output.bound_calls": (sum(figure(n, "calls") for n in bound_spans) / queries,
                               "count/query"),
        "output.dirty_nodes": (instrumentation.dirty_nodes / queries, "count/query"),
        "output.candidates": (instrumentation.candidates / queries, "count/query"),
        "shard.dispatch_ms": (per_episode_ms("shard.update_batch"), "ms/episode"),
        "shard.merge_ms": (figure("shard.merge") * 1e3 / queries, "ms/query"),
        "tracing.overhead_frac": (1.0 - traced.throughput_pps() / untraced.throughput_pps(),
                                  "ratio"),
    }
