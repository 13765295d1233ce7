"""The aggregator: merges epoch-aligned switch contributions into one answer.

The receiving half of the distributed tier.  An :class:`Aggregator` holds,
per switch, the most recent contribution it accepted (decoded wire state, as
plain data); :meth:`Aggregator.output` materialises counter summaries from
those states, then merges and queries them through the partition -> merge
-> query path it shares with the sharded engine (:mod:`repro.core.shard`).

Loss accounting maps directly onto the degrade-policy bracket: any weight
the cluster dispatched to a switch that the aggregator's stored contribution
does not account for - because the switch died, its message was dropped or
is still in flight, or it simply has not emitted since - is treated exactly
like a degraded shard's loss: the global ``N`` still counts it, every
conditioned estimate and candidate upper bound is widened by it, and a
per-switch :class:`~repro.core.supervise.ShardLoss` report rides along on
``failed_shards``.  Bounds therefore stay sound (lower <= true <= upper)
under switch loss, message loss *and* lossy compression: truncation only
ever raises upper bounds (the folded residual) and never raises lower
bounds above truth.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.api.specs import AlgorithmSpec
from repro.core.base import HHHOutput
from repro.core.output import OutputCache
from repro.core.shard import merge_template, query_merged, reduce_counter_states
from repro.core.supervise import ShardLoss
from repro.distrib import compress, wire
from repro.exceptions import AlgorithmError, ConfigurationError, WireFormatError
from repro.hierarchy.base import Hierarchy


class Aggregator:
    """Merges switch contributions and serves the global ``output(theta)``.

    Args:
        algorithm: the cluster-level algorithm spec; the aggregator builds a
            replica-shaped template from it (same per-switch sizing as the
            switches, so merged capacities line up).
        hierarchy: the shared hierarchical domain.
        switches: cluster size.
        top_k: the compression policy in force, part of the expected wire
            geometry (a differently-compressed peer is incompatible).
    """

    def __init__(
        self,
        algorithm: AlgorithmSpec,
        hierarchy: Hierarchy,
        switches: int,
        *,
        top_k: Optional[int] = None,
    ) -> None:
        if not isinstance(switches, int) or isinstance(switches, bool) or switches < 1:
            raise ConfigurationError(f"switches must be a positive integer, got {switches!r}")
        self._switches = switches
        self._template, self._node_disjoint = merge_template(algorithm, hierarchy, switches)
        self._expected_geometry = wire.algorithm_geometry(self._template, hierarchy, top_k=top_k)
        #: per switch: the newest accepted contribution, as plain wire state.
        self._contributions: Dict[int, Dict[str, Any]] = {}
        self.messages_accepted = 0
        self.messages_late = 0
        self.deltas_applied = 0
        # Incremental-query plumbing.  The merge is cached wholesale, keyed
        # on the exact (switch, epoch) contribution set it was built from;
        # per-switch decoded counter objects are kept as merge *arguments*
        # (merge never mutates its argument) and dropped the moment a newer
        # contribution from that switch is accepted.  ``_merge_clock`` stamps
        # each rebuild so the template's incremental output pass sees every
        # node dirty exactly when the merged lattice changed.  Set
        # ``_query_cache = None`` to force the from-scratch reference path.
        self._decoded: Dict[int, List] = {}
        self._merge_cache: Optional[Tuple[tuple, List, int]] = None
        self._merge_clock = 0
        self._query_versions: List[int] = [0] * hierarchy.size
        self._query_cache: Optional[OutputCache] = OutputCache()

    # ------------------------------------------------------------------ #
    # ingest
    # ------------------------------------------------------------------ #

    @property
    def switches(self) -> int:
        return self._switches

    @property
    def expected_geometry(self) -> Dict[str, Any]:
        """The wire geometry this aggregator accepts."""
        return dict(self._expected_geometry)

    def contribution_epoch(self, switch: int) -> Optional[int]:
        """The epoch of the stored contribution of ``switch`` (``None`` if none)."""
        stored = self._contributions.get(switch)
        return None if stored is None else stored["epoch"]

    def ingest(self, raw: bytes) -> Optional[Tuple[int, int]]:
        """Verify, decode and store one wire message.

        Returns ``(switch, epoch)`` when the message was accepted (the
        cluster acknowledges it back to the switch), ``None`` when it was
        late - older than, or a duplicate of, the stored contribution
        (reordered delivery; counted, not an error).

        Raises:
            WireFormatError: broken framing/schema, a delta whose base the
                aggregator does not hold, or a switch id outside the cluster.
            WireCompatibilityError: the message's geometry or protocol
                version does not match this aggregator.
        """
        message = wire.decode_message(raw)
        wire.check_geometry(self._expected_geometry, message["geometry"])
        switch = int(message["switch"])
        if not 0 <= switch < self._switches:
            raise WireFormatError(
                f"wire message names switch {switch}, cluster has {self._switches} switches"
            )
        epoch = int(message["epoch"])
        stored = self._contributions.get(switch)
        if stored is not None and epoch <= stored["epoch"]:
            self.messages_late += 1
            return None
        nodes = message["nodes"]
        if len(nodes) != len(self._template._counters):
            raise WireFormatError(
                f"wire message carries {len(nodes)} node states, "
                f"lattice has {len(self._template._counters)} nodes"
            )
        if message["kind"] == wire.KIND_DELTA:
            base_epoch = int(message["base_epoch"])
            if stored is None or stored["epoch"] != base_epoch:
                held = None if stored is None else stored["epoch"]
                raise WireFormatError(
                    f"delta from switch {switch} is based on epoch {base_epoch}, "
                    f"aggregator holds epoch {held}"
                )
            nodes = [
                compress.delta_decode(delta, base)
                for delta, base in zip(nodes, stored["nodes"])
            ]
            self.deltas_applied += 1
        self._contributions[switch] = {
            "epoch": epoch,
            "total": int(message["total"]),
            "nodes": nodes,
        }
        self._decoded.pop(switch, None)
        self.messages_accepted += 1
        return switch, epoch

    # ------------------------------------------------------------------ #
    # the merge reduction and the global query
    # ------------------------------------------------------------------ #

    def _contribution_states(self, decoded: Optional[Dict[int, List]]) -> List[Tuple[int, List]]:
        """``(total, counters)`` per stored contribution, in switch-id order.

        The first switch, the mutated merge target, is always decoded fresh;
        the others are looked up in and stored to the ``decoded`` cache when
        one is given (``None`` decodes every switch fresh).
        """
        order = sorted(self._contributions)
        if not order:
            raise AlgorithmError(
                "the aggregator holds no switch contributions; nothing was "
                "delivered (or every emission was lost)"
            )
        states: List[Tuple[int, List]] = []
        for position, switch in enumerate(order):
            contribution = self._contributions[switch]
            cache = decoded if position else None
            counters = None if cache is None else cache.get(switch)
            if counters is None:
                counters = [wire.decode_counter_state(state) for state in contribution["nodes"]]
                if cache is not None:
                    cache[switch] = counters
            states.append((contribution["total"], counters))
        return states

    def merged_counters(self) -> Tuple[List, int]:
        """Materialise and reduce the stored contributions.

        Counter objects are rebuilt fresh from the stored wire states on
        every call (merge mutates its target), reduced in switch-id order -
        the same deterministic order as the sharded engine's serial merge.
        Returns ``(counters, accounted_total)``.
        """
        states = self._contribution_states(None)
        return reduce_counter_states(states, self._node_disjoint)

    def _merged_counters_cached(self) -> Tuple[List, int]:
        """Incremental twin of :meth:`merged_counters`.

        Short-circuits on the contribution signature: back-to-back queries
        with no accepted message in between reuse the previous merge (and
        hence the previous output pass's cached state) outright.  A re-merge
        reuses the cached decodes of every switch but the first, then bumps
        the merge clock so every node reads as dirty.  Value-identical to
        :meth:`merged_counters`: same decode, same merge order, same
        disjointness flags.
        """
        signature = tuple(
            sorted((switch, state["epoch"]) for switch, state in self._contributions.items())
        )
        cached = self._merge_cache
        if cached is not None and cached[0] == signature:
            return cached[1], cached[2]
        states = self._contribution_states(self._decoded)
        merged, total = reduce_counter_states(states, self._node_disjoint)
        self._merge_cache = (signature, merged, total)
        self._merge_clock += 1
        self._query_versions = [self._merge_clock] * len(self._query_versions)
        return merged, total

    def output(
        self, theta: float, *, dispatched_totals: Optional[Dict[int, int]] = None
    ) -> HHHOutput:
        """Merge the cluster and run the algorithm's Output on the result.

        ``dispatched_totals`` maps each switch to the weight the cluster
        actually routed to it; any excess over what the stored contributions
        account for is quantified loss, widening the bracket exactly like
        the degrade policy (see the module docstring).  Without it the
        aggregator trusts the contributions alone (loss invisible to it is
        then unaccounted - the cluster always passes the totals).

        Queries run incrementally by default (``_query_cache = None`` forces
        the from-scratch reference path): an unchanged contribution set
        reuses the previous merge and the output pass's cached per-node
        state.
        """
        if self._query_cache is not None:
            merged, accounted = self._merged_counters_cached()
        else:
            merged, accounted = self.merged_counters()
        losses: List[ShardLoss] = []
        lost = 0
        if dispatched_totals:
            for switch in sorted(dispatched_totals):
                dispatched = int(dispatched_totals[switch])
                stored = self._contributions.get(switch)
                held = stored["total"] if stored is not None else 0
                missing = dispatched - held
                if missing > 0:
                    lost += missing
                    losses.append(
                        ShardLoss(
                            shard=switch,
                            lost_packets=missing,
                            exitcode=None,
                            at_batch=None if stored is None else stored["epoch"],
                            reason=(
                                "no contribution ever delivered"
                                if stored is None
                                else f"last contribution at epoch {stored['epoch']}"
                            ),
                        )
                    )
        return query_merged(
            self._template,
            merged,
            accounted,
            theta,
            losses=losses,
            lost=lost,
            versions=self._query_versions,
            cache=self._query_cache,
        )
