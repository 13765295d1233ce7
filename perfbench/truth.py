"""Exact answers for a benchmark stream and the correctness gate.

The exact HHH set comes from :class:`repro.eval.GroundTruth` (the
:class:`~repro.hhh.exact.ExactHHH` solver), fed the stream's distinct keys
with their counts, outside any timed region.  The solver's cost grows with
the number of distinct keys (hundreds of thousands on the flood stream), so
its answer is cached per (traffic, seed, stream length) under ``cache/``.
The exact frequency of a reported prefix is counted directly from the
stream's distinct keys, which is cheap.

Every workload replays one fixed stream from a fixed engine state, so the
report the gate checks is always taken after exactly ``len(stream)``
packets, however fast the engine ran.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import List, Set, Tuple

import numpy as np

from repro.eval import GroundTruth, precision_recall
from repro.hierarchy.base import Hierarchy

CACHE_DIR = Path(__file__).resolve().parent / "cache"

#: Least share of the exact HHH set a report must find.
RECALL_FLOOR = 0.6

PrefixKey = Tuple[int, Tuple[int, int]]


class Truth:
    """Exact answers for one ``(n, 2)`` key stream at one threshold."""

    def __init__(self, hierarchy: Hierarchy, keys: np.ndarray, theta: float,
                 hhh: Set[PrefixKey]) -> None:
        self.total = len(keys)
        self.theta = theta
        self.hhh = hhh
        self._distinct, self._counts = np.unique(keys, axis=0, return_counts=True)
        self._generalizers = hierarchy.compile_batch_generalizers()

    def hhh_set(self, theta: float) -> Set[PrefixKey]:
        """The exact HHH set (what ``precision_recall`` reads)."""
        if theta != self.theta:
            raise ValueError(f"truth was computed at theta={self.theta}, not {theta}")
        return self.hhh

    def frequency(self, prefix: PrefixKey) -> int:
        """Exact number of packets under ``prefix``."""
        node, value = prefix
        masked = self._generalizers[node](self._distinct)
        return int(self._counts[(masked == np.asarray(value)).all(axis=1)].sum())


def exact_hhh(hierarchy: Hierarchy, keys: np.ndarray, theta: float) -> Set[PrefixKey]:
    """The exact HHH set of the ``(n, 2)`` stream ``keys`` (ExactHHH, Definition 8)."""
    distinct, counts = np.unique(keys, axis=0, return_counts=True)
    truth = GroundTruth(hierarchy, ())
    for key, count in zip(map(tuple, distinct.tolist()), counts.tolist()):
        truth.exact.update(key, count)
    return set(truth.hhh_set(theta))


def cached_truth(label: str, hierarchy: Hierarchy, keys: np.ndarray, theta: float) -> Truth:
    """The :class:`Truth` of ``keys``; the exact HHH set is cached under ``label``."""
    path = CACHE_DIR / f"{label}-{len(keys)}-{theta}.hhh.json"
    if path.exists():
        hhh = {(node, tuple(value)) for node, value in json.loads(path.read_text())}
    else:
        hhh = exact_hhh(hierarchy, keys, theta)
        CACHE_DIR.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(sorted([node, list(value)] for node, value in hhh)))
        tmp.replace(path)
    return Truth(hierarchy, keys, theta, hhh)


def check_report(output, truth: Truth, *, slack: float, floor: float,
                 must_report: Tuple[str, ...] = ()) -> List[str]:
    """Every way ``output`` fails the gate against ``truth`` (empty when it passes).

    The gate: the report covers the whole stream; each candidate's bounds are
    ordered, bracket the prefix's exact frequency to within ``slack``
    packets, and the prefix carries at least ``floor`` packets; recall
    against the exact HHH set reaches :data:`RECALL_FLOOR`; and every prefix
    named in ``must_report`` (formatted as the report prints it) is there.
    """
    problems: List[str] = []
    if output.total != truth.total:
        problems.append(f"report covers {output.total} packets, stream has {truth.total}")
    for candidate in output.candidates:
        exact = truth.frequency(candidate.prefix.key())
        if not candidate.lower_bound <= candidate.upper_bound:
            problems.append(f"{candidate.prefix}: lower bound above upper bound")
        if not candidate.lower_bound - slack <= exact <= candidate.upper_bound + slack:
            problems.append(
                f"{candidate.prefix}: {exact} packets, outside "
                f"[{candidate.lower_bound:.0f}, {candidate.upper_bound:.0f}] +- {slack:.0f}"
            )
        if exact < floor:
            problems.append(f"{candidate.prefix}: reported with {exact} packets, under {floor:.0f}")
    _, recall = precision_recall(output, truth, truth.theta)
    if recall < RECALL_FLOOR:
        problems.append(f"recall {recall:.3f} below {RECALL_FLOOR}")
    reported = {str(candidate.prefix) for candidate in output.candidates}
    for name in must_report:
        if name not in reported:
            problems.append(f"{name} not reported")
    return problems
