"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side of each layer boundary: a
:class:`Tracer` replaces a public entry point on one object (a ``Session``
method, ``algorithm.update_batch``, a node counter's ``upper_bound``...) with
a wrapper that records the call as a span, and puts the original back on
:meth:`Tracer.unpatch`.  Nothing in the program under test is edited.

Each span has a name, a start and an end (``time.perf_counter`` seconds) and
the index of the span that was open when it started (its parent, ``-1`` at
the top).  Spans live in flat arrays in memory and are written out once, by
:meth:`Tracer.dump`, when the run ends.  A span's self time is its duration
minus the time its child spans cover; the feed loop is single-threaded, so
children nest strictly inside their parent.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np


class Tracer:
    """In-memory span and count recorder."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._open: List[int] = [-1]
        self.counts: Dict[str, float] = defaultdict(float)
        self._patched: List[Tuple[object, str, bool, object]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def _begin(self, name_id: int) -> int:
        index = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._open[-1])
        self._start.append(0.0)
        self._end.append(0.0)
        self._open.append(index)
        self._start[index] = time.perf_counter()
        return index

    def _finish(self, index: int) -> None:
        self._end[index] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span."""
        index = self._begin(self._name_id(name))
        try:
            yield
        finally:
            self._finish(index)

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the named counter."""
        self.counts[name] += amount

    def wrap(self, name: str, fn: Callable, prepare: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped so that every call is recorded as a span.

        ``prepare(args) -> args``, when given, sees (and may replace) the
        positional arguments before the span opens - where the caller counts
        the work a call carries.
        """
        name_id = self._name_id(name)
        begin = self._begin
        finish = self._finish

        def traced(*args, **kwargs):
            if prepare is not None:
                args = prepare(args)
            index = begin(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(index)

        return traced

    def patch(self, obj: object, attr: str, name: str, prepare: Optional[Callable] = None) -> bool:
        """Shadow ``obj.attr`` with a traced wrapper; False when there is no such method."""
        fn = getattr(obj, attr, None)
        if not callable(fn):
            return False
        self.replace(obj, attr, self.wrap(name, fn, prepare))
        return True

    def replace(self, obj: object, attr: str, value: object) -> None:
        """Set ``obj.attr`` to ``value`` until :meth:`unpatch` puts back what was there."""
        own = vars(obj)
        self._patched.append((obj, attr, attr in own, own.get(attr)))
        setattr(obj, attr, value)

    def unpatch(self) -> None:
        """Undo every :meth:`patch` and :meth:`replace`, newest first."""
        for obj, attr, had_own, previous in reversed(self._patched):
            if had_own:
                setattr(obj, attr, previous)
            else:
                delattr(obj, attr)
        self._patched.clear()

    def traced_batches(self, batches: Iterator, name: str = "trace.read") -> Iterator:
        """Yield from ``batches``, recording each ``next`` as a span plus batch/byte counts."""
        name_id = self._name_id(name)
        iterator = iter(batches)
        while True:
            index = self._begin(name_id)
            try:
                batch = next(iterator)
            except StopIteration:
                return
            finally:
                self._finish(index)
            self.count("trace.batches")
            self.count("trace.bytes", getattr(batch, "nbytes", 0))
            yield batch

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._start)

    def arrays(self) -> Dict[str, np.ndarray]:
        """The spans as numpy columns (name id, parent index, start, end)."""
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def dump(self, path: Path) -> Path:
        """Write every span (and the name table) to ``path`` as ``.npz``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
        return path


def span_stats(names: List[str], spans: Dict[str, np.ndarray]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total duration and total self time (seconds).

    Also returns, under ``"<name>@<parent name>"``, the same figures for the
    spans of ``name`` whose parent is a ``parent name`` span.
    """
    name, parent = spans["name"], spans["parent"]
    duration = spans["end"] - spans["start"]
    covered = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    self_time = duration - covered
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
    stats: Dict[str, Dict[str, float]] = {}
    for name_id, label in enumerate(names):
        mask = name == name_id
        if not mask.any():
            continue
        stats[label] = _figures(mask, duration, self_time)
        for parent_id in np.unique(parent_name[mask]):
            if parent_id < 0:
                continue
            sub = mask & (parent_name == parent_id)
            stats[f"{label}@{names[parent_id]}"] = _figures(sub, duration, self_time)
    return stats


def _figures(mask: np.ndarray, duration: np.ndarray, self_time: np.ndarray) -> Dict[str, float]:
    return {
        "calls": float(mask.sum()),
        "total_s": float(duration[mask].sum()),
        "self_s": float(self_time[mask].sum()),
        "min_self_s": float(self_time[mask].min()),
    }
