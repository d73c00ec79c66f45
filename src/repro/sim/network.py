"""The simulated site-and-network fabric.

Sites crash and recover; communication links lose messages and can
partition the functioning sites into groups that cannot reach each other
(paper, Section 3).  The fabric exposes two communication styles:

* :meth:`Network.request` — a synchronous RPC used by front-ends to read
  and write repository state.  It consults crash and partition state,
  may lose the request or the reply (indistinguishable to the caller, as
  the paper notes: "the absence of a response may indicate that the
  original message was lost, that the reply was lost, that the recipient
  has crashed, or simply that the recipient is slow"), charges simulated
  latency, and raises :class:`Timeout` on failure.
* :meth:`Network.gather` — the one quorum walk: it probes destinations
  in visit order, in *waves*, until the caller's ``stop`` predicate
  holds.  Two wave policies share it.  ``"batched"`` waves are the
  shortest prefix of the remaining destinations that could satisfy
  ``stop`` if every probe in it responded; the wave's probes overlap
  their latencies through two kernel events, so a stable set of
  reachable sites is probed exactly as the serial walk would probe it
  (same attempted sites, same message counts) while a failed probe
  widens the next wave.  ``"serial"`` waves hold one site each, sent
  through :meth:`Network.request` — the reference policy.  Replies are
  reported in deterministic (completion time, site id) order.
* :meth:`Network.send` — an asynchronous message scheduled through the
  kernel, used by failure injectors and background anti-entropy.

All styles draw from the simulator's seeded RNG, so behaviour is
deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Iterable

from repro.errors import SimulationError
from repro.obs.trace import NULL_TRACER, Span, Tracer
from repro.sim.kernel import Simulator

#: Deterministic completion order for gather replies.
_REPLY_ORDER = attrgetter("completed_at", "site")


@dataclass(frozen=True, slots=True)
class ProbeReply:
    """One successful probe from a :meth:`Network.gather` call."""

    site: int
    value: Any
    completed_at: float


@dataclass(frozen=True, slots=True)
class GatherResult:
    """Outcome of one :meth:`Network.gather` walk.

    ``replies`` holds the successful probes in deterministic completion
    order — (completion time, site id) — while ``attempted`` preserves
    launch order, which is the visit order under either wave policy.
    """

    replies: tuple[ProbeReply, ...]
    attempted: tuple[int, ...]
    failed: frozenset[int]

    @property
    def responders(self) -> frozenset[int]:
        """Sites whose round trip fully completed."""
        return frozenset(reply.site for reply in self.replies)

    def in_attempt_order(self) -> tuple[ProbeReply, ...]:
        """Replies reordered by launch (visit) order.

        This is the order in which the serial wave policy observes the
        same responses, so callers that fold over replies (log merging,
        snapshot election) get the same result under either policy.
        """
        by_site = {reply.site: reply for reply in self.replies}
        return tuple(
            by_site[site] for site in self.attempted if site in by_site
        )


class Timeout(Exception):
    """An RPC got no response: lost message, crash, or partition."""

    def __init__(self, destination: int):
        super().__init__(f"no response from site {destination}")
        self.destination = destination


class Network:
    """Crash, partition, and loss state for a fixed universe of sites."""

    #: Valid front-end RPC modes, which are also :meth:`gather`'s wave
    #: policies.
    RPC_MODES = ("batched", "serial")

    def __init__(
        self,
        sim: Simulator,
        n_sites: int,
        latency: float = 1.0,
        drop_probability: float = 0.0,
        *,
        tracer: Tracer | None = None,
        rpc_mode: str = "batched",
    ):
        if n_sites <= 0:
            raise SimulationError("network needs at least one site")
        if not 0.0 <= drop_probability < 1.0:
            raise SimulationError("drop probability must be in [0, 1)")
        if rpc_mode not in self.RPC_MODES:
            raise SimulationError(
                f"rpc_mode must be one of {self.RPC_MODES}, got {rpc_mode!r}"
            )
        self.sim = sim
        self.n_sites = n_sites
        self.latency = latency
        self.drop_probability = drop_probability
        #: The wave policy front-ends pass to :meth:`gather`:
        #: ``"batched"`` overlaps quorum probes; ``"serial"`` is the
        #: one-at-a-time reference walk.
        self.rpc_mode = rpc_mode
        #: Span/event sink; defaults to the simulator's (usually null).
        self.tracer = tracer if tracer is not None else sim.tracer
        self._crashed: set[int] = set()
        #: Partition groups: a list of disjoint site sets.  Sites in no
        #: group are mutually reachable (the default, un-partitioned state).
        self._groups: list[frozenset[int]] = []
        #: Observers of failure-state transitions; see
        #: :meth:`add_failure_listener`.
        self._failure_listeners: list = []
        self.messages_sent = 0
        self.messages_dropped = 0

    # -- failure state -----------------------------------------------------

    def add_failure_listener(self, listener) -> None:
        """Subscribe to failure-state transitions.

        ``listener(kind, **info)`` is called synchronously *after* the
        state change, with:

        * ``kind="crash"`` / ``"recover"`` — ``info["site"]``;
        * ``kind="partition"`` — ``info["groups"]`` (the new cut);
        * ``kind="heal"`` — ``info["former_groups"]`` (the cut that was
          just removed; empty when the network was not partitioned).

        Listeners run in registration order — the resilience layer
        relies on this (crash-recovery replay restores a repository
        before the heal driver tries to synchronize it).
        """
        self._failure_listeners.append(listener)

    def remove_failure_listener(self, listener) -> None:
        """Unsubscribe a previously added failure listener (no-op if absent)."""
        try:
            self._failure_listeners.remove(listener)
        except ValueError:
            pass

    def _notify(self, kind: str, **info) -> None:
        for listener in tuple(self._failure_listeners):
            listener(kind, **info)

    def crash(self, site: int) -> None:
        """Mark ``site`` down: unreachable until :meth:`recover`."""
        self._check_site(site)
        self._crashed.add(site)
        if self.tracer.enabled:
            self.tracer.event("site.crash", site=site)
        self._notify("crash", site=site)

    def recover(self, site: int) -> None:
        """Bring a crashed ``site`` back up (no-op if it was up)."""
        self._check_site(site)
        self._crashed.discard(site)
        if self.tracer.enabled:
            self.tracer.event("site.recover", site=site)
        self._notify("recover", site=site)

    def is_up(self, site: int) -> bool:
        """Is ``site`` currently functioning (not crashed)?"""
        self._check_site(site)
        return site not in self._crashed

    @property
    def crashed_sites(self) -> frozenset[int]:
        return frozenset(self._crashed)

    @property
    def partitioned(self) -> bool:
        """Is a partition cut currently active?"""
        return bool(self._groups)

    def partition(self, *groups) -> None:
        """Split the network into the given disjoint groups.

        Sites in different groups cannot exchange messages; sites
        omitted from every group form an implicit final group together.
        """
        sets = [frozenset(g) for g in groups]
        seen: set[int] = set()
        for group in sets:
            for site in group:
                self._check_site(site)
                if site in seen:
                    raise SimulationError(f"site {site} in two partition groups")
                seen.add(site)
        rest = frozenset(range(self.n_sites)) - seen
        if rest:
            sets.append(rest)
        self._groups = sets
        if self.tracer.enabled:
            self.tracer.event(
                "net.partition", groups=[sorted(group) for group in sets]
            )
        self._notify("partition", groups=tuple(sets))

    def heal(self) -> None:
        """Remove all partitions (crashed sites stay crashed).

        Failure listeners receive the cut that was just removed as
        ``former_groups``, which is how the resilience layer's
        :class:`~repro.resilience.heal.PartitionHealDriver` knows which
        site pairs to reconcile.
        """
        former = tuple(self._groups)
        self._groups = []
        if self.tracer.enabled:
            self.tracer.event("net.heal")
        self._notify("heal", former_groups=former)

    def reachable(self, src: int, dst: int) -> bool:
        """Can a message flow from ``src`` to ``dst`` right now?"""
        self._check_site(src)
        self._check_site(dst)
        return self._reachable(src, dst)

    def _reachable(self, src: int, dst: int) -> bool:
        """:meth:`reachable` minus the site-range validation.

        Internal message legs only probe sites the network itself
        addressed, so the per-message fast path skips re-validating
        them; the public :meth:`reachable` keeps the range check.
        """
        if src in self._crashed or dst in self._crashed:
            return False
        if src == dst or not self._groups:
            return True
        return any(src in group and dst in group for group in self._groups)

    # -- communication -------------------------------------------------------

    def request(self, src: int, dst: int, handler: Callable[[], Any]) -> Any:
        """Synchronous RPC: run ``handler`` at ``dst`` and return its result.

        Charges two message latencies; raises :class:`Timeout` when the
        destination is unreachable or either direction loses the message.
        Each round trip is one ``rpc`` span (homed at the destination
        repository) when tracing is on.
        """
        if self.tracer.enabled:
            with self.tracer.span("rpc", kind="rpc", site=dst, src=src, dst=dst):
                return self._round_trip(src, dst, handler)
        return self._round_trip(src, dst, handler)

    def _round_trip(self, src: int, dst: int, handler: Callable[[], Any]) -> Any:
        self.messages_sent += 1
        self.sim.advance(self.latency)
        self.sim.drain()  # apply failures due while the message travelled
        if not self._reachable(src, dst) or self._lost():
            self.messages_dropped += 1
            raise Timeout(dst)
        result = handler()
        self.messages_sent += 1
        self.sim.advance(self.latency)
        self.sim.drain()
        if not self._reachable(dst, src) or self._lost():
            self.messages_dropped += 1
            raise Timeout(dst)
        return result

    def gather(
        self,
        src: int,
        dsts: Iterable[int],
        handler: Callable[[int], Any],
        *,
        stop: Callable[[frozenset[int]], bool] | None = None,
        waves: str = "batched",
    ) -> GatherResult:
        """Walk ``dsts`` in order, probing in waves until ``stop`` holds.

        ``stop`` sees the sites that have answered so far and is asked
        before every wave (``None`` walks every destination).  Under
        ``waves="batched"`` a wave is the shortest prefix of the
        remaining destinations that would satisfy ``stop`` if every
        probe in it succeeded; its probes share one request leg and one
        reply leg (two kernel events), so a wave costs two latencies
        however wide it is, and a failed probe widens the next wave.
        Under ``waves="serial"`` each wave is one :meth:`request`.
        Under a stable failure state without loss both policies attempt
        the same sites and count the same messages.

        Per-probe semantics are those of :meth:`request`: the request
        leg is checked against crash, partition and loss state at
        arrival time, the handler runs at the destination at arrival
        time, and its side effects survive a lost reply leg.  Each probe
        is one ``rpc`` span when tracing is on, with the handler's own
        events parented beneath it.
        """
        if waves not in self.RPC_MODES:
            raise SimulationError(
                f"waves must be one of {self.RPC_MODES}, got {waves!r}"
            )
        order = list(dsts)
        sim = self.sim
        serial = waves == "serial"
        traced = self.tracer.enabled
        responders: set[int] = set()
        failed: set[int] = set()
        attempted: list[int] = []
        replies: dict[int, ProbeReply] = {}
        idx = 0
        while idx < len(order):
            if stop is not None and stop(frozenset(responders)):
                break
            if serial:
                site = order[idx]
                idx += 1
                attempted.append(site)
                try:
                    value = self.request(src, site, lambda: handler(site))
                except Timeout:
                    failed.add(site)
                    continue
                replies[site] = ProbeReply(
                    site=site, value=value, completed_at=sim.now
                )
                responders.add(site)
                continue
            wave: list[int] = []
            assumed = set(responders)
            while idx < len(order):
                site = order[idx]
                idx += 1
                wave.append(site)
                assumed.add(site)
                if stop is not None and stop(frozenset(assumed)):
                    break
            arrive_at = sim.now + self.latency
            reply_at = arrive_at + self.latency
            attempted.extend(wave)
            self.messages_sent += len(wave)
            spans = (
                tuple(
                    self.tracer.start_span(
                        "rpc", kind="rpc", site=site, src=src, dst=site, batched=True
                    )
                    for site in wave
                )
                if traced
                else (None,) * len(wave)
            )
            sim.call_at(
                arrive_at,
                self._wave_arrive(
                    src, tuple(zip(wave, spans)), handler, reply_at, replies, failed
                ),
            )
            # One pass dispatches both legs: the arrival at ``arrive_at``
            # runs first (after any failure events due in the window) and
            # schedules the wave's delivery at ``reply_at``.
            sim.run(until=reply_at)
            responders.update(site for site in wave if site in replies)
        ordered = tuple(sorted(replies.values(), key=_REPLY_ORDER))
        return GatherResult(
            replies=ordered, attempted=tuple(attempted), failed=frozenset(failed)
        )

    def _wave_arrive(
        self,
        src: int,
        wave: tuple[tuple[int, Span | None], ...],
        handler: Callable[[int], Any],
        reply_at: float,
        replies: dict[int, ProbeReply],
        failed: set[int],
    ) -> Callable[[], None]:
        """Build the single arrival callback for a whole batched wave.

        ``wave`` pairs each destination with its open ``rpc`` span
        (``None`` untraced).  One event dispatch replays every probe in
        launch order — reachability checked at arrival time, loss drawn
        per leg in the same RNG order, the handler run under its span,
        side effects surviving a lost reply — then one shared delivery
        event completes the probes whose request leg survived.  A span
        closes with outcome ``"timeout"`` on whichever leg fails, or
        ``"ok"`` at delivery.
        """
        tracer = self.tracer

        def arrive() -> None:
            values: list[tuple[int, Any, Span | None]] = []
            for dst, span in wave:
                if not self._reachable(src, dst) or self._lost():
                    self.messages_dropped += 1
                    failed.add(dst)
                    if span is not None:
                        tracer.end_span(span, outcome="timeout")
                    continue
                if span is not None:
                    with tracer.under(span):
                        value = handler(dst)
                else:
                    value = handler(dst)
                values.append((dst, value, span))
                self.messages_sent += 1
            if not values:
                return

            def deliver() -> None:
                now = self.sim.now
                for dst, value, span in values:
                    if not self._reachable(dst, src) or self._lost():
                        self.messages_dropped += 1
                        failed.add(dst)
                        if span is not None:
                            tracer.end_span(span, outcome="timeout")
                        continue
                    replies[dst] = ProbeReply(
                        site=dst, value=value, completed_at=now
                    )
                    if span is not None:
                        tracer.end_span(span)

            self.sim.call_at(reply_at, deliver)

        return arrive

    def send(self, src: int, dst: int, deliver: Callable[[], None]) -> None:
        """Asynchronous one-way message through the event queue."""
        self.messages_sent += 1
        if not self._reachable(src, dst) or self._lost():
            self.messages_dropped += 1
            if self.tracer.enabled:
                self.tracer.event("msg.dropped", site=src, dst=dst)
            return
        if self.tracer.enabled:
            self.tracer.event("msg.send", site=src, dst=dst)
        self.sim.call_at(self.sim.now + self.latency, self._guarded(dst, deliver))

    def _guarded(self, dst: int, deliver: Callable[[], None]) -> Callable[[], None]:
        def run() -> None:
            if dst not in self._crashed:
                deliver()

        return run

    def _lost(self) -> bool:
        return (
            self.drop_probability > 0.0
            and self.sim.rng.random() < self.drop_probability
        )

    def _check_site(self, site: int) -> None:
        if not 0 <= site < self.n_sites:
            raise SimulationError(f"site {site} outside universe 0..{self.n_sites - 1}")
