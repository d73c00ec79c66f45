"""The quorum walk: ``Network.gather`` and the administrative walks on it.

Reconfiguration, compaction, and the available-copies method all probe
sites one at a time until a transversal (or any copy) answers.  These
tests pin what each walk does under one crashed site and a lossy link —
the sites it attempts in order, the message counters, the simulated
clock afterwards, and the missing set of the error it raises — so the
walks stay observably unchanged however they are implemented.
"""

import pytest

from repro.dependency import known
from repro.errors import SimulationError, UnavailableError
from repro.histories.events import Invocation
from repro.obs.trace import Tracer
from repro.quorum.assignment import OperationQuorums, QuorumAssignment
from repro.quorum.coterie import ThresholdCoterie
from repro.replication.available_copies import AvailableCopiesObject
from repro.replication.cluster import build_cluster, build_keyspace
from repro.replication.keyspace import KeyspaceSpec, ObjectSpec, PlacementRule
from repro.replication.reconfig import reconfigure
from repro.replication.snapshot import compact
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.types import Queue

pytestmark = pytest.mark.throughput

ENQ_A = Invocation("Enq", ("a",))
ENQ_B = Invocation("Enq", ("b",))
DEQ = Invocation("Deq")


def _queue_cluster(seed: int):
    """Five fully replicated sites, three committed queue operations."""
    tracer = Tracer()
    cluster = build_cluster(5, seed=seed, tracer=tracer)
    queue = Queue()
    obj = cluster.add_object(
        "obj", queue, "hybrid", relation=known.ground(queue, known.QUEUE_STATIC, 5)
    )
    frontend = cluster.frontends[0]
    for invocation in (ENQ_A, ENQ_B, DEQ):
        txn = cluster.tm.begin(0)
        frontend.execute(txn, "obj", invocation)
        cluster.tm.commit(txn)
    return cluster, obj, tracer


def _threshold(n: int, initial: int, final: int) -> QuorumAssignment:
    quorums = OperationQuorums(
        initial=ThresholdCoterie(n, initial), final=ThresholdCoterie(n, final)
    )
    return QuorumAssignment(n, {"Enq": quorums, "Deq": quorums})


def _walk(network: Network, tracer: Tracer, call, *, crashed: int, drop: float):
    """Run ``call`` under one crashed site and message loss ``drop``.

    Returns the attempted ``(site, outcome)`` walk read off the ``rpc``
    spans, the message-counter deltas, the clock afterwards, and the
    raised error's missing set (``None`` when the call succeeded).
    """
    network.crash(crashed)
    network.drop_probability = drop
    mark = len(tracer.spans)
    sent, dropped = network.messages_sent, network.messages_dropped
    try:
        call()
        missing = None
    except UnavailableError as error:
        missing = error.missing
    walk = [
        (span.attrs["dst"], span.outcome)
        for span in tracer.spans[mark:]
        if span.kind == "rpc"
    ]
    return (
        walk,
        network.messages_sent - sent,
        network.messages_dropped - dropped,
        network.sim.now,
        missing,
    )


class TestAdminWalks:
    def test_reconfiguration_hand_over_succeeds(self):
        cluster, obj, tracer = _queue_cluster(seed=6)
        result = _walk(
            cluster.network,
            tracer,
            lambda: reconfigure(
                cluster.network, cluster.repositories, obj, _threshold(5, 2, 4), 1
            ),
            crashed=3,
            drop=0.2,
        )
        drain = [(1, "ok"), (2, "ok"), (3, "timeout"), (4, "timeout"), (0, "ok")]
        prime = [(1, "ok"), (2, "ok"), (3, "timeout"), (4, "ok"), (0, "ok")]
        assert result == (drain + prime, 17, 3, 29.0, None)
        assert obj.epoch == 1

    def test_reconfiguration_prime_failure_reports_missing_sites(self):
        cluster, obj, tracer = _queue_cluster(seed=0)
        result = _walk(
            cluster.network,
            tracer,
            lambda: reconfigure(
                cluster.network, cluster.repositories, obj, _threshold(5, 2, 4), 1
            ),
            crashed=3,
            drop=0.3,
        )
        drain = [(1, "ok"), (2, "timeout"), (3, "timeout"), (4, "ok"), (0, "ok")]
        prime = [(1, "ok"), (2, "ok"), (3, "timeout"), (4, "timeout"), (0, "ok")]
        assert result == (drain + prime, 17, 4, 29.0, frozenset({3, 4}))
        assert obj.epoch == 0

    def test_reconfiguration_drain_failure_reports_missing_sites(self):
        cluster, obj, tracer = _queue_cluster(seed=3)
        result = _walk(
            cluster.network,
            tracer,
            lambda: reconfigure(
                cluster.network, cluster.repositories, obj, _threshold(5, 2, 4), 1
            ),
            crashed=3,
            drop=0.3,
        )
        drain = [(1, "timeout"), (2, "ok"), (3, "timeout"), (4, "ok"), (0, "timeout")]
        assert result == (drain, 7, 3, 19.0, frozenset({0, 1, 3}))

    def test_compaction_drains_then_installs_everywhere_reachable(self):
        cluster, obj, tracer = _queue_cluster(seed=0)
        result = _walk(
            cluster.network,
            tracer,
            lambda: compact(cluster.network, cluster.repositories, obj, cluster.tm, 1),
            crashed=3,
            drop=0.3,
        )
        drain = [(1, "ok"), (2, "timeout"), (3, "timeout"), (4, "ok"), (0, "ok")]
        install = [(1, "ok"), (2, "ok"), (3, "timeout"), (4, "timeout"), (0, "ok")]
        assert result == (drain + install, 17, 4, 29.0, None)

    def test_compaction_drain_failure_reports_missing_sites(self):
        cluster, obj, tracer = _queue_cluster(seed=1)
        result = _walk(
            cluster.network,
            tracer,
            lambda: compact(cluster.network, cluster.repositories, obj, cluster.tm, 1),
            crashed=3,
            drop=0.3,
        )
        drain = [(1, "timeout"), (2, "ok"), (3, "timeout"), (4, "timeout"), (0, "ok")]
        assert result == (drain, 7, 3, 19.0, frozenset({1, 3, 4}))

    @staticmethod
    def _available_copies(seed: int):
        tracer = Tracer()
        sim = Simulator(seed=seed, tracer=tracer)
        tracer.bind_clock(sim)
        network = Network(sim, 4, tracer=tracer)
        return AvailableCopiesObject("q", Queue(), network), network, tracer

    def test_available_copies_reads_one_and_writes_all_reachable(self):
        obj, network, tracer = self._available_copies(seed=1)
        result = _walk(
            network,
            tracer,
            lambda: obj.execute(1, Invocation("Enq", ("x",))),
            crashed=2,
            drop=0.3,
        )
        read = [(1, "timeout"), (2, "timeout"), (3, "ok")]
        write = [(1, "timeout"), (2, "timeout"), (3, "ok"), (0, "ok")]
        assert result == (read + write, 10, 4, 10.0, None)
        assert [copy.state for copy in obj.copies] == [("x",), (), (), ("x",)]

    def test_available_copies_with_no_reachable_copy_is_unavailable(self):
        obj, network, tracer = self._available_copies(seed=0)
        result = _walk(
            network,
            tracer,
            lambda: obj.execute(1, Invocation("Enq", ("x",))),
            crashed=2,
            drop=0.8,
        )
        read = [(1, "timeout"), (2, "timeout"), (3, "timeout"), (0, "timeout")]
        assert result == (read, 5, 4, 5.0, frozenset())
        assert obj.executed == []


class TestCompactionUnderPartialReplication:
    def test_missing_set_names_only_replica_sites(self):
        queue = Queue()
        spec = KeyspaceSpec(
            5,
            (
                ObjectSpec(
                    "obj",
                    queue,
                    placement=PlacementRule.at((0, 1, 2)),
                    relation=known.ground(queue, known.QUEUE_STATIC, 5),
                ),
            ),
        )
        cluster = build_keyspace(spec)
        obj = cluster.tm.object("obj")
        for site in (1, 2):
            cluster.network.crash(site)
        with pytest.raises(UnavailableError) as raised:
            compact(
                cluster.network,
                cluster.repositories,
                obj,
                cluster.tm,
                sites=(0, 1, 2),
            )
        # Sites 3 and 4 never held the object, so they cannot be missing.
        assert raised.value.missing == frozenset({1, 2})


class TestGatherWavePolicies:
    def test_each_wave_dispatches_two_kernel_events(self):
        tracer = Tracer()
        sim = Simulator(seed=0, tracer=tracer)
        tracer.bind_clock(sim)
        network = Network(sim, 5, drop_probability=0.3, tracer=tracer)
        network.crash(1)
        mark = len(tracer.spans)
        with tracer.span("quorum.initial", kind="quorum") as quorum:
            outcome = network.gather(
                0,
                [0, 1, 2, 3, 4],
                lambda site: site,
                stop=ThresholdCoterie(5, 3).has_quorum,
            )
        spans = tracer.spans[mark:]
        runs = [span.attrs["dispatched"] for span in spans if span.name == "sim.run"]
        rpcs = [span for span in spans if span.kind == "rpc"]
        # Wave one probes sites 0-2 (site 1 is down, site 2's reply is
        # lost); wave two widens to sites 3 and 4.  Each wave is one
        # arrival and one delivery event, traced or not.
        assert outcome.attempted == (0, 1, 2, 3, 4)
        assert runs == [2, 2]
        first = quorum.span_id
        assert [
            (span.span_id, span.parent_id, span.site, span.start, span.end, span.outcome)
            for span in rpcs
        ] == [
            (first + 1, first, 0, 0.0, 2.0, "ok"),
            (first + 2, first, 1, 0.0, 1.0, "timeout"),
            (first + 3, first, 2, 0.0, 2.0, "timeout"),
            (first + 5, first, 3, 2.0, 4.0, "ok"),
            (first + 6, first, 4, 2.0, 4.0, "ok"),
        ]
        assert all(span.attrs["batched"] for span in rpcs)
        assert outcome.responders == frozenset({0, 3, 4})
        assert (network.messages_sent, network.messages_dropped) == (9, 2)
        assert sim.now == 4.0

    def test_serial_waves_probe_one_site_per_round_trip(self):
        network = Network(Simulator(seed=0), 4)
        network.crash(1)
        outcome = network.gather(
            0,
            [0, 1, 2, 3],
            lambda site: site * 10,
            stop=ThresholdCoterie(4, 2).has_quorum,
            waves="serial",
        )
        assert outcome.attempted == (0, 1, 2)
        assert outcome.failed == frozenset({1})
        assert [(r.site, r.value, r.completed_at) for r in outcome.replies] == [
            (0, 0, 2.0),
            (2, 20, 5.0),
        ]
        # Two round trips plus the one request leg site 1 never answered.
        assert network.sim.now == 5.0
        assert (network.messages_sent, network.messages_dropped) == (5, 1)

    def test_unknown_wave_policy_is_rejected(self):
        network = Network(Simulator(seed=0), 3)
        with pytest.raises(SimulationError):
            network.gather(0, [0, 1, 2], lambda site: site, waves="overlapped")
