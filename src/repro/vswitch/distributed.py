"""The distributed deployment: the switch samples and forwards, a VM measures.

In the paper's second integration mode the switch does not run the HHH update
at all; it forwards (a sample of) the traffic to a measurement virtual machine
that runs RHHH.  When ``V > H`` only the packets whose random draw selects a
real level need to be forwarded, so the switch-side cost per packet is one RNG
draw plus, with probability ``H / V``, one packet clone towards the VM - which
is why throughput improves with ``V`` in Figure 8.  The VM itself is modelled
as a separate budget: it receives roughly ``N * H / V`` packets and spends one
counter update on each.
"""

from __future__ import annotations

import random
from typing import Hashable, Iterable, Optional, Sequence

import numpy as np

from repro.core.base import HHHAlgorithm, HHHOutput
from repro.core.determinism import resolve_seed
from repro.core.rhhh import RHHH
from repro.exceptions import SwitchError
from repro.traffic.packet import Packet
from repro.vswitch.cost_model import CostModel, ThroughputResult
from repro.vswitch.moongen import LINE_RATE_64B_MPPS


class MeasurementVM:
    """The measurement virtual machine of the distributed deployment.

    It receives the sampled packets and performs one counter update per
    received packet.  Any spec-built lattice algorithm can sit on the VM side
    (a sharded engine, a sketch-backed RHHH, MST); a *plain* RHHH must be
    configured with ``V = H``, because the ``V > H`` sampling already
    happened at the switch and sampling twice would double-discount the
    stream.

    Args:
        algorithm: the algorithm owned by the VM.
        cost_model: cycle costs used to model the VM's own processing rate.
    """

    def __init__(self, algorithm: HHHAlgorithm, cost_model: Optional[CostModel] = None) -> None:
        if isinstance(algorithm, RHHH) and algorithm.v != algorithm.hierarchy.size:
            raise SwitchError(
                "the VM-side RHHH must use V = H; the switch performs the V > H sampling"
            )
        self._algorithm = algorithm
        self._cost = cost_model or CostModel()
        self._received = 0

    @property
    def algorithm(self) -> HHHAlgorithm:
        """The VM-side algorithm instance."""
        return self._algorithm

    @property
    def received(self) -> int:
        """Packets received from the switch so far."""
        return self._received

    def receive(self, key: Hashable) -> None:
        """Process one forwarded packet."""
        self._received += 1
        self._algorithm.update(key)

    def receive_batch(self, keys: Sequence) -> None:
        """Process a batch of forwarded packets in one vectorized update."""
        if len(keys) == 0:
            return
        self._received += len(keys)
        self._algorithm.update_batch(keys)

    def output(self, theta: float) -> HHHOutput:
        """Query the VM-side algorithm."""
        return self._algorithm.output(theta)

    def processing_rate_mpps(self) -> float:
        """Packets per second the VM itself can absorb (one counter update each)."""
        cycles = self._cost.rng_cycles + self._cost.mask_cycles + self._cost.counter_update_cycles
        return self._cost.mpps_for_cycles(cycles)


class DistributedMeasurement:
    """Switch-side sampling plus VM-side measurement (the deployment of Figure 8).

    Args:
        hierarchy_size: the hierarchy size ``H``.
        v: the performance parameter ``V >= H`` controlling the sampling rate.
        vm: the measurement VM the sampled packets are forwarded to.
        cost_model: cycle costs for the switch side.
        dimensions: 1 for source keys, 2 for (source, destination) keys.
        seed: RNG seed of the switch-side sampling.
    """

    def __init__(
        self,
        hierarchy_size: int,
        v: int,
        vm: MeasurementVM,
        cost_model: Optional[CostModel] = None,
        *,
        dimensions: int = 2,
        seed: Optional[int] = None,
    ) -> None:
        if v < hierarchy_size or hierarchy_size < 1:
            raise SwitchError(f"need 1 <= H <= V, got H={hierarchy_size}, V={v}")
        if dimensions not in (1, 2):
            raise SwitchError(f"dimensions must be 1 or 2, got {dimensions}")
        self._h = hierarchy_size
        self._v = v
        self._vm = vm
        self._cost = cost_model or CostModel()
        self._dimensions = dimensions
        self._rng = random.Random(resolve_seed(seed))
        # Separate numpy stream for the vectorized batch path (the same
        # dual-RNG arrangement RHHH uses: the scalar and batch paths own
        # independent generators, each internally reproducible).
        self._batch_rng = np.random.default_rng(resolve_seed(seed))
        self._seen = 0
        self._forwarded = 0

    @property
    def vm(self) -> MeasurementVM:
        """The measurement VM."""
        return self._vm

    @property
    def seen(self) -> int:
        """Packets observed by the switch."""
        return self._seen

    @property
    def forwarded(self) -> int:
        """Packets forwarded to the VM."""
        return self._forwarded

    @property
    def forwarding_probability(self) -> float:
        """Probability that a packet is forwarded to the VM (``H / V``)."""
        return self._h / self._v

    # ------------------------------------------------------------------ #
    # packet path
    # ------------------------------------------------------------------ #

    def __call__(self, packet: Packet) -> float:
        """Datapath hook: sample, maybe forward to the VM, return the switch-side cycles."""
        self._seen += 1
        cycles = self._cost.rng_cycles
        if self._rng.randrange(self._v) < self._h:
            self._forwarded += 1
            cycles += self._cost.forward_to_vm_cycles
            key: Hashable = packet.key_1d() if self._dimensions == 1 else packet.key_2d()
            self._vm.receive(key)
        return cycles

    def process(self, packets: Iterable[Packet]) -> None:
        """Run a batch of packets through the sampling path (without a full switch model)."""
        for packet in packets:
            self(packet)

    # ------------------------------------------------------------------ #
    # vectorized batch path
    # ------------------------------------------------------------------ #

    def _key_array(self, packets: Sequence[Packet]) -> np.ndarray:
        """Extract the batch's keys as the numpy array the VM's engine expects."""
        if self._dimensions == 1:
            return np.fromiter(
                (packet.src for packet in packets), dtype=np.int64, count=len(packets)
            )
        return np.array([(packet.src, packet.dst) for packet in packets], dtype=np.int64)

    def process_batch(self, packets: Sequence[Packet]) -> float:
        """Vectorized sampling path: pre-drawn mask, one batched VM forward.

        Semantically the batch twin of :meth:`process`: every packet costs
        one RNG draw, the drawn ones are forwarded - but the draws come as
        one vectorized block from the batch RNG stream and the forwarded
        keys reach the VM as a single ``update_batch`` call.  Returns the
        switch-side cycles spent on the batch.
        """
        n = len(packets)
        if n == 0:
            return 0.0
        draws = self._batch_rng.integers(0, self._v, size=n)
        mask = draws < self._h
        forwarded = int(np.count_nonzero(mask))
        self._seen += n
        self._forwarded += forwarded
        if forwarded:
            self._vm.receive_batch(self._key_array(packets)[mask])
        return n * self._cost.rng_cycles + forwarded * self._cost.forward_to_vm_cycles

    def process_batch_reference(self, packets: Sequence[Packet]) -> float:
        """Scalar twin of :meth:`process_batch`, for parity testing.

        Consumes the *same* pre-drawn RNG block and forwards the same keys
        in the same order (accumulated, then one batched VM forward), but
        walks the packets one by one in Python - so a same-seeded instance
        driven through this path ends bit-identical to the vectorized one.
        """
        n = len(packets)
        if n == 0:
            return 0.0
        draws = self._batch_rng.integers(0, self._v, size=n)
        keys = self._key_array(packets)
        picked = []
        for i in range(n):
            self._seen += 1
            if draws[i] < self._h:
                self._forwarded += 1
                picked.append(i)
        if picked:
            self._vm.receive_batch(keys[np.asarray(picked, dtype=np.int64)])
        return n * self._cost.rng_cycles + len(picked) * self._cost.forward_to_vm_cycles

    # ------------------------------------------------------------------ #
    # throughput model
    # ------------------------------------------------------------------ #

    def switch_cycles_per_packet(self, base_forwarding_cycles: Optional[float] = None) -> float:
        """Expected switch-side cycles per packet (forwarding plus sampling)."""
        base = (
            base_forwarding_cycles
            if base_forwarding_cycles is not None
            else self._cost.base_forwarding_cycles
        )
        return base + self._cost.sampling_forward_cycles(self._h, self._v)

    def throughput(
        self,
        *,
        offered_mpps: float = LINE_RATE_64B_MPPS,
        line_rate_mpps: float = LINE_RATE_64B_MPPS,
    ) -> ThroughputResult:
        """Model the switch's sustainable rate in the distributed deployment (Figure 8)."""
        cycles = self.switch_cycles_per_packet()
        return self._cost.throughput(cycles, offered_mpps=offered_mpps, line_rate_mpps=line_rate_mpps)
