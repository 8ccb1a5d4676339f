"""Communication channels: physical links and loss models.

The snapshot algorithm's system model (paper §4.1) is a graph of
processing units connected by unidirectional FIFO channels.  Two channel
flavours exist in the simulator:

* **Physical links** (:class:`Link`) connect an egress unit of one device
  to an ingress unit of another.  They are full duplex (modelled as two
  independent unidirectional directions), have a fixed propagation delay
  and an optional loss model.  Because the delay is constant and senders
  serialise departures, each direction is FIFO.
* **Fabric channels** (inside :mod:`repro.sim.switch`) connect every
  ingress unit to every egress unit of the same device with a constant
  pipeline latency — also FIFO per (ingress, egress, CoS) triple.

Packet loss is the one non-ideality the protocol must tolerate (§6
"Ensuring liveness"); :class:`BernoulliLoss` provides seeded random drops
and :class:`ScriptedLoss` lets tests drop specific packets.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from functools import partial
from typing import Any, Optional, Protocol, cast

from repro.sim.engine import Simulator
from repro.sim.packet import Packet


class LossModel:
    """Decides whether a given transmission is dropped."""

    def should_drop(self, packet: Packet) -> bool:
        raise NotImplementedError

    def reset(self) -> None:
        """Reset any internal state (optional)."""


class NoLoss(LossModel):
    """A lossless channel (the default)."""

    def should_drop(self, packet: Packet) -> bool:
        return False


class BernoulliLoss(LossModel):
    """Independent per-packet drops with fixed probability."""

    def __init__(self, probability: float, rng: random.Random) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        self.probability = probability
        self.rng = rng
        self._random = rng.random  # bound once; the per-packet hot path
        self.dropped = 0

    def should_drop(self, packet: Packet) -> bool:
        if self._random() < self.probability:
            self.dropped += 1
            return True
        return False

    def reset(self) -> None:
        self.dropped = 0


class GilbertElliottLoss(LossModel):
    """Two-state bursty loss (the Gilbert–Elliott channel model).

    The channel alternates between a GOOD state (loss probability
    ``p_loss_good``, typically ~0) and a BAD state (loss probability
    ``p_loss_bad``, typically high); per-packet transition probabilities
    ``p_good_to_bad`` / ``p_bad_to_good`` control burst frequency and
    mean burst length (``1 / p_bad_to_good`` packets).  Unlike
    :class:`BernoulliLoss`, drops cluster — the pattern that stresses
    the snapshot protocol's liveness machinery hardest, because a burst
    can swallow an initiation *and* its immediate retries.
    """

    def __init__(self, rng: random.Random, *,
                 p_good_to_bad: float = 0.001,
                 p_bad_to_good: float = 0.05,
                 p_loss_good: float = 0.0,
                 p_loss_bad: float = 0.5) -> None:
        for name, p in (("p_good_to_bad", p_good_to_bad),
                        ("p_bad_to_good", p_bad_to_good),
                        ("p_loss_good", p_loss_good),
                        ("p_loss_bad", p_loss_bad)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        self.rng = rng
        self._random = rng.random
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.p_loss_good = p_loss_good
        self.p_loss_bad = p_loss_bad
        self.in_bad_state = False
        self.dropped = 0
        self.bursts_entered = 0

    def should_drop(self, packet: Packet) -> bool:
        rand = self._random
        if self.in_bad_state:
            if rand() < self.p_bad_to_good:
                self.in_bad_state = False
        elif rand() < self.p_good_to_bad:
            self.in_bad_state = True
            self.bursts_entered += 1
        p_loss = self.p_loss_bad if self.in_bad_state else self.p_loss_good
        if p_loss and rand() < p_loss:
            self.dropped += 1
            return True
        return False

    def reset(self) -> None:
        self.in_bad_state = False
        self.dropped = 0
        self.bursts_entered = 0


class ScriptedLoss(LossModel):
    """Drop exactly the packets whose uid is in ``drop_uids``.

    Used by tests to inject deterministic losses (e.g. "drop the snapshot
    initiation message and verify the control plane re-initiates").
    """

    def __init__(self, drop_uids: Optional[set[int]] = None,
                 predicate: Optional[Callable[[Packet], bool]] = None) -> None:
        self.drop_uids = drop_uids or set()
        self.predicate = predicate
        self.dropped: list[Packet] = []

    def should_drop(self, packet: Packet) -> bool:
        drop = packet.uid in self.drop_uids or (
            self.predicate is not None and self.predicate(packet)
        )
        if drop:
            self.dropped.append(packet)
        return drop

    def reset(self) -> None:
        self.dropped = []


class LinkEndpoint(Protocol):
    """Anything that can sit at the end of a link (switch port or host).

    The link hands the endpoint's inbound packets to the ``deliver``
    callable given at :meth:`Link.attach`; an endpoint attached without
    one must define ``receive_from_link(packet, link)``.
    """

    @property
    def endpoint_name(self) -> str:
        ...  # pragma: no cover - protocol definition


class ReceivingEndpoint(LinkEndpoint, Protocol):
    """An endpoint that takes its packets through ``receive_from_link``."""

    def receive_from_link(self, packet: Packet, link: "Link") -> None:
        ...  # pragma: no cover - protocol definition


class Link:
    """A full-duplex point-to-point link.

    Endpoints are attached with :meth:`attach`, which returns the
    endpoint's bound sender; it (or :meth:`transmit`) delivers a packet
    to the other endpoint after the propagation delay.  Serialisation
    delay is the sender's responsibility (the egress queue model in
    :mod:`repro.sim.switch` / :mod:`repro.sim.host`), which keeps each
    direction strictly FIFO.
    """

    def __init__(self, sim: Simulator, bandwidth_bps: int = 25_000_000_000,
                 propagation_ns: int = 500,
                 loss: Optional[LossModel] = None,
                 name: str = "") -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if propagation_ns < 0:
            raise ValueError("propagation delay cannot be negative")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.propagation_ns = propagation_ns
        self._loss = loss or NoLoss()
        #: Fast-path flag: a NoLoss link skips the loss-model call per
        #: packet entirely (kept in sync by the ``loss`` setter).
        self._lossless = isinstance(self._loss, NoLoss)
        self.name = name
        #: Administrative / physical link state.  A down link drops every
        #: transmission (counted in ``packets_dropped``); flapped by the
        #: fault injector (:mod:`repro.faults`).
        self.up = True
        #: Extra one-way delay added to ``propagation_ns`` (latency-spike
        #: faults).  While non-zero — and until in-flight spiked packets
        #: have drained — delivery goes through a slow path that clamps
        #: delivery times to stay monotone per direction, preserving the
        #: FIFO channel property the snapshot algorithm requires (§4.1).
        self.extra_delay_ns = 0
        #: receiving side -> earliest allowed delivery time for the next
        #: packet in that direction (only populated during/after spikes).
        self._fifo_floor: dict[int, int] = {}
        self._endpoints: list[Optional[LinkEndpoint]] = [None, None]
        #: Per side: the one-argument callable that takes the packets
        #: delivered to that side's endpoint.
        self._receivers: list[Optional[Callable[[Packet], Any]]] = [None, None]
        #: size_bytes -> serialization ns (traffic uses a handful of
        #: fixed sizes, so this is effectively a precomputed multiplier).
        self._ser_cache: dict = {}
        self.packets_delivered = 0
        self.packets_dropped = 0

    @property
    def loss(self) -> LossModel:
        return self._loss

    @loss.setter
    def loss(self, model: LossModel) -> None:
        self._loss = model
        self._lossless = isinstance(model, NoLoss)

    def attach(self, endpoint: LinkEndpoint,
               deliver: Optional[Callable[[Packet], Any]] = None
               ) -> Callable[[Packet], bool]:
        """Attach an endpoint whose inbound packets go to ``deliver``
        (default: its ``receive_from_link(packet, link)``).

        Returns the endpoint's sender: ``send(packet)`` transmits to the
        other side exactly like ``transmit(endpoint, packet)``, with the
        side resolved once here instead of per packet.
        """
        for side in (0, 1):
            if self._endpoints[side] is None:
                if deliver is None:
                    receiver = cast(ReceivingEndpoint, endpoint)
                    deliver = partial(receiver.receive_from_link, link=self)
                self._endpoints[side] = endpoint
                self._receivers[side] = deliver
                return partial(self._send, 1 - side)
        raise RuntimeError(f"link {self.name!r} already has two endpoints")

    def peer_of(self, endpoint: LinkEndpoint) -> LinkEndpoint:
        """The endpoint at the other side of the link."""
        a, b = self._endpoints
        if endpoint is a:
            if b is None:
                raise RuntimeError(f"link {self.name!r} has no second endpoint")
            return b
        if endpoint is b:
            if a is None:
                raise RuntimeError(f"link {self.name!r} has no first endpoint")
            return a
        raise ValueError(f"{endpoint!r} is not attached to link {self.name!r}")

    def serialization_ns(self, size_bytes: int) -> int:
        """Time to clock ``size_bytes`` onto the wire at link rate
        (memoized per size)."""
        ns = self._ser_cache.get(size_bytes)
        if ns is None:
            ns = (size_bytes * 8 * 1_000_000_000) // self.bandwidth_bps
            self._ser_cache[size_bytes] = ns
        return ns

    def packet_serialization_ns(self, packet: Packet) -> int:
        """:meth:`serialization_ns` of one packet (the ``ser_fn`` an
        endpoint's queue binds at connect time)."""
        ns = self._ser_cache.get(packet.size_bytes)
        return self.serialization_ns(packet.size_bytes) if ns is None else ns

    def transmit(self, sender: LinkEndpoint, packet: Packet) -> bool:
        """Send ``packet`` from ``sender`` to the peer endpoint.

        Returns False if the loss model dropped the packet.  Delivery is
        scheduled ``propagation_ns`` in the future; the caller has already
        accounted for serialisation time.
        """
        a, b = self._endpoints
        if sender is a:
            return self._send(1, packet)
        if sender is b:
            return self._send(0, packet)
        raise ValueError(f"{sender!r} is not attached to link {self.name!r}")

    def _send(self, to_side: int, packet: Packet) -> bool:
        """Transmit toward the endpoint on ``to_side`` (the body behind
        :meth:`transmit` and every sender :meth:`attach` returns)."""
        if not self.up:
            self.packets_dropped += 1
            return False
        if not self._lossless and self._loss.should_drop(packet):
            self.packets_dropped += 1
            return False
        if self.extra_delay_ns or self._fifo_floor:
            self._transmit_slow(to_side, packet)
            return True
        self.sim.schedule_fast(self.propagation_ns, self._deliver,
                               self._receivers[to_side], packet)
        return True

    def _transmit_slow(self, to_side: int, packet: Packet) -> None:
        """Delivery under (or draining from) a latency spike.

        Clamps each delivery to be no earlier than the previous one in
        the same direction: a spike that ends (``extra_delay_ns`` back
        to 0) must not let later packets overtake slower in-flight ones,
        which would break the FIFO-channel assumption.  Equal delivery
        times are fine — the engine's tie-break preserves send order.
        """
        at = self.sim.now + self.propagation_ns + self.extra_delay_ns
        floor = self._fifo_floor.get(to_side, 0)
        if self.extra_delay_ns:
            if at < floor:
                at = floor
            self._fifo_floor[to_side] = at
        elif at >= floor:
            self._fifo_floor.pop(to_side, None)  # natural timing caught up
        else:
            # Still draining: clamp to the last spiked delivery and keep
            # the floor until un-spiked deliveries naturally pass it.
            at = floor
        self.sim.schedule_at(at, self._deliver, self._receivers[to_side],
                             packet)

    def _deliver(self, receive: Callable[[Packet], Any],
                 packet: Packet) -> None:
        """The modeled delivery site: every packet a link carries reaches
        its receiving endpoint here, in one call."""
        self.packets_delivered += 1
        receive(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = [e.endpoint_name if e else "?" for e in self._endpoints]
        return f"Link({names[0]} <-> {names[1]}, {self.bandwidth_bps // 10**9}Gbps)"
