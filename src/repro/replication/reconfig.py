"""Quorum reconfiguration: changing an object's quorum assignment online.

The paper's Section 2 discusses reconfiguration-based methods (the
true-copy token scheme moves "true copies" around to adapt to access
patterns).  Quorum consensus supports the same adaptivity by *changing
the quorum assignment*: a deployment can shift between, say,
read-optimized (`1/n`) and write-optimized (`n/1`) layouts as the
workload changes, as long as the hand-over preserves the quorum
intersection invariants.

The hand-over rule implemented here:

1. **Drain the old configuration** — read the logs of a site set that
   intersects *every final quorum of the old assignment*, so the merged
   view provably contains every event any past operation installed.
2. **Prime the new configuration** — write that complete view to a site
   set that intersects *every initial quorum of the new assignment*, so
   every future view is guaranteed to include the pre-reconfiguration
   history regardless of which quorum it reads.
3. Atomically switch the object's assignment and bump its **epoch**
   (assignment metadata is kept with the transaction-manager state,
   reliable by the same modeling convention as transaction status).
   Every front-end's per-object view-merge and serial-prefix caches are
   invalidated for the new epoch, and a ``reconfig.switch`` point event
   announces the change to trace listeners — the auditor's
   ``reconfig-epoch`` monitor advances its expected epoch from exactly
   this event, so a front-end that keeps using the old quorums (the
   ``stale-assignment`` mutation) is flagged while a legitimate switch
   stays green.

Both site sets are *transversals* (hitting sets) of coteries; for a
threshold coterie of ``k`` of ``n`` (or ``k`` of a replica subset) the
cheapest transversal is any ``n - k + 1`` member sites, and for explicit
coteries :func:`greedy_transversal` computes a greedy hitting set.  If
the live sites contain no transversal the reconfiguration raises
:class:`~repro.errors.UnavailableError` and changes nothing.

The module predates the keyspace (PR 6) and observability (PR 2/7)
layers; it is now placement-aware — the hand-over walks only the
object's replica set, so genuine partial replication is preserved — and
instrumented: ``reconfig.drain`` / ``reconfig.prime`` spans, the
``reconfig.switch`` point event, and ``reconfig.attempts`` /
``reconfig.success`` / ``reconfig.aborted`` / ``reconfig.noop``
counters when a :class:`~repro.obs.metrics.MetricsRegistry` is passed.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, Sequence

from repro.errors import QuorumError, UnavailableError
from repro.obs.trace import NULL_TRACER, Tracer
from repro.quorum.assignment import QuorumAssignment
from repro.quorum.coterie import (
    Coterie,
    EmptyCoterie,
    SubsetThresholdCoterie,
    ThresholdCoterie,
)
from repro.replication.log import Log
from repro.replication.object import ReplicatedObject
from repro.replication.viewcache import fold_view
from repro.sim.network import Network

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.replication.frontend import FrontEnd
    from repro.replication.keyspace import Placement


def transversal_size(coterie: Coterie) -> int | None:
    """The size of the cheapest site set intersecting every quorum.

    ``None`` when the coterie has a quorum that cannot be hit (an
    :class:`EmptyCoterie`'s empty quorum intersects nothing).
    """
    if isinstance(coterie, EmptyCoterie):
        return None
    if isinstance(coterie, SubsetThresholdCoterie):
        if coterie.threshold == 0:
            return None
        return len(coterie.members) - coterie.threshold + 1
    if isinstance(coterie, ThresholdCoterie):
        if coterie.threshold == 0:
            return None
        return coterie.n_sites - coterie.threshold + 1
    quorums = list(coterie.quorums())
    if not quorums:
        return 0  # no quorums: vacuously hit
    if any(not quorum for quorum in quorums):
        return None
    for size in range(1, coterie.n_sites + 1):
        for candidate in combinations(range(coterie.n_sites), size):
            chosen = frozenset(candidate)
            if all(chosen & quorum for quorum in quorums):
                return size
    return None  # pragma: no cover - unreachable for well-formed coteries


def is_transversal(coterie: Coterie, sites: frozenset[int]) -> bool:
    """Does ``sites`` intersect every quorum of ``coterie``?

    An :class:`EmptyCoterie` (or zero threshold) has the empty set as a
    quorum, which no site set intersects — but nothing was ever written
    under it either, so for hand-over purposes it needs no coverage;
    callers filter those out via :func:`needs_coverage`.
    """
    if isinstance(coterie, SubsetThresholdCoterie):
        if coterie.threshold == 0:
            return False
        return (
            len(sites & coterie.members)
            >= len(coterie.members) - coterie.threshold + 1
        )
    if isinstance(coterie, ThresholdCoterie):
        if coterie.threshold == 0:
            return False
        return len(sites) >= coterie.n_sites - coterie.threshold + 1
    return all(sites & quorum for quorum in coterie.quorums())


def covers_all(coteries: Sequence[Coterie]):
    """Walk stop predicate: is a site set a transversal of every coterie?"""
    return lambda reached: all(is_transversal(c, reached) for c in coteries)


def needs_coverage(coterie: Coterie) -> bool:
    """Whether the hand-over must hit this coterie at all.

    Final coteries with an empty quorum record nothing anywhere (their
    events live only in views), and unsatisfiable coteries admit no
    operations; neither constrains the hand-over.
    """
    if isinstance(coterie, EmptyCoterie):
        return False
    if isinstance(coterie, (ThresholdCoterie, SubsetThresholdCoterie)):
        return coterie.threshold > 0
    quorums = list(coterie.quorums())
    return bool(quorums) and all(quorum for quorum in quorums)


def greedy_transversal(
    coterie: Coterie, available: frozenset[int] | None = None
) -> frozenset[int] | None:
    """A small hitting set of ``coterie`` drawn from ``available`` sites.

    Threshold shapes use their closed form (the lowest-numbered
    ``n - k + 1`` eligible sites); explicit coteries run the classic
    greedy set-cover heuristic — repeatedly pick the site hitting the
    most still-unhit quorums, lowest site id breaking ties — which is
    within a logarithmic factor of the optimum and, crucially for the
    hand-over, always *correct*: the result intersects every quorum.
    Returns ``None`` when no transversal exists within ``available``
    (including the :class:`EmptyCoterie`, whose empty quorum nothing
    hits).  Deterministic for fixed inputs.
    """
    if available is None:
        available = coterie.universe
    if isinstance(coterie, EmptyCoterie):
        return None
    if isinstance(coterie, SubsetThresholdCoterie):
        if coterie.threshold == 0:
            return None
        pool = sorted(available & coterie.members)
        need = len(coterie.members) - coterie.threshold + 1
        if len(pool) < need:
            return None
        return frozenset(pool[:need])
    if isinstance(coterie, ThresholdCoterie):
        if coterie.threshold == 0:
            return None
        pool = sorted(available & coterie.universe)
        need = coterie.n_sites - coterie.threshold + 1
        if len(pool) < need:
            return None
        return frozenset(pool[:need])
    remaining = [frozenset(q & available) for q in coterie.quorums()]
    if not remaining:
        return frozenset()  # no quorums: vacuously hit
    if any(not q for q in remaining):
        return None  # some quorum has no available site (or is empty)
    chosen: set[int] = set()
    while remaining:
        counts: dict[int, int] = {}
        for quorum in remaining:
            for site in quorum:
                counts[site] = counts.get(site, 0) + 1
        best = max(sorted(counts), key=lambda site: counts[site])
        chosen.add(best)
        remaining = [q for q in remaining if best not in q]
    return frozenset(chosen)


def _same_coterie(a: Coterie, b: Coterie) -> bool:
    """Structural equality of two coteries (same quorums)."""
    if a is b:
        return True
    if a.n_sites != b.n_sites:
        return False
    empty_a = isinstance(a, EmptyCoterie)
    empty_b = isinstance(b, EmptyCoterie)
    if empty_a or empty_b:
        return empty_a and empty_b
    if isinstance(a, SubsetThresholdCoterie) and isinstance(
        b, SubsetThresholdCoterie
    ):
        return a.members == b.members and a.threshold == b.threshold
    if isinstance(a, ThresholdCoterie) and isinstance(b, ThresholdCoterie):
        return a.threshold == b.threshold
    # Mixed shapes (a full-universe subset coterie vs a plain threshold,
    # or explicit coteries): compare the minimal quorum sets directly —
    # admin-path only, never on the per-operation hot path.
    return frozenset(a.quorums()) == frozenset(b.quorums())


def same_assignment(a: QuorumAssignment, b: QuorumAssignment) -> bool:
    """Do two assignments give every event class identical quorums?

    The structural no-op test behind ``reconfigure``: switching to an
    assignment with the same quorums would drain, prime, and bump the
    epoch for nothing, so callers (the online tuner above all) skip the
    hand-over entirely when this holds.
    """
    if a is b:
        return True
    if a.n_sites != b.n_sites or a.operation_names != b.operation_names:
        return False
    kinds = {
        (op, kind)
        for assignment in (a, b)
        for (op, kind) in assignment._final_by_kind
    }
    for op in a.operation_names:
        if not _same_coterie(a.initial(op), b.initial(op)):
            return False
        if not _same_coterie(a.final(op), b.final(op)):
            return False
    for op, kind in kinds:
        if not _same_coterie(a.final(op, kind), b.final(op, kind)):
            return False
    return True


def _count(registry: "MetricsRegistry | None", name: str) -> None:
    if registry is not None:
        registry.counter(name).inc()


def _visit_order(
    pool: Sequence[int],
    coordinator_site: int,
    n_sites: int,
    coteries: Sequence[Coterie],
) -> list[int]:
    """The order the hand-over probes sites in.

    The base order is the pool rotated from the coordinator (exactly the
    classic full-universe walk when the pool is every site).  When any
    coterie is explicit (no threshold closed form), the greedy hitting
    set of its quorums is promoted to the front so the transversal
    completes in as few RPCs as the heuristic allows; threshold coteries
    need no such help — any ``n - k + 1`` pool sites do.
    """
    rotation = sorted(pool, key=lambda site: ((site - coordinator_site) % n_sites, site))
    explicit = [
        c
        for c in coteries
        if not isinstance(c, (ThresholdCoterie, SubsetThresholdCoterie, EmptyCoterie))
    ]
    if not explicit:
        return rotation
    priority: list[int] = []
    available = frozenset(pool)
    for coterie in explicit:
        hit = greedy_transversal(coterie, available)
        if hit is None:
            continue  # the drain loop will surface the unavailability
        for site in sorted(hit):
            if site not in priority:
                priority.append(site)
    return priority + [site for site in rotation if site not in priority]


def reconfigure(
    network: Network,
    repositories,
    obj: ReplicatedObject,
    new_assignment: QuorumAssignment,
    coordinator_site: int = 0,
    *,
    placement: "Placement | None" = None,
    frontends: Sequence["FrontEnd"] = (),
    tracer: Tracer | None = None,
    registry: "MetricsRegistry | None" = None,
) -> bool:
    """Switch ``obj`` to ``new_assignment`` with a safe log hand-over.

    Returns ``True`` when the assignment actually changed and ``False``
    for a structural no-op (``new_assignment`` already describes the
    object's quorums) — a no-op performs no RPCs and does not bump the
    epoch.  Raises :class:`UnavailableError` (leaving the old
    assignment, epoch, and every repository byte-identical) when the
    reachable sites cannot drain the old configuration, and
    :class:`~repro.errors.SpecificationError` when ``placement`` is
    given and the new assignment draws quorums from outside the
    object's replica set.

    With ``placement`` the hand-over walks only the object's replica
    set (genuine partial replication); ``frontends`` get their
    per-object :class:`~repro.replication.viewcache.QuorumViewCache`
    and serial-prefix cache entries invalidated at the switch;
    ``tracer`` receives ``reconfig`` / ``reconfig.drain`` /
    ``reconfig.prime`` spans and the ``reconfig.switch`` point event;
    ``registry`` the ``reconfig.*`` counters.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    if new_assignment.n_sites != obj.assignment.n_sites:
        raise QuorumError("reconfiguration cannot change the site universe")
    _count(registry, "reconfig.attempts")
    if same_assignment(obj.assignment, new_assignment):
        _count(registry, "reconfig.noop")
        return False
    if placement is not None:
        from repro.replication.keyspace import _require_genuine

        _require_genuine(
            obj.name, new_assignment, frozenset(placement.replicas(obj.name))
        )
        pool: Sequence[int] = placement.replicas(obj.name)
    else:
        pool = range(network.n_sites)

    old_finals = [
        coterie
        for coterie in obj.assignment.final_coteries()
        if needs_coverage(coterie)
    ]
    new_initials = [
        coterie
        for coterie in new_assignment.initial_coteries()
        if needs_coverage(coterie)
    ]

    with tracer.span(
        "reconfig",
        kind="reconfig",
        object=obj.name,
        from_epoch=obj.epoch,
        to_epoch=obj.epoch + 1,
        site=coordinator_site,
    ) as span:
        try:
            merged, best_snapshot = _drain(
                network,
                repositories,
                obj,
                old_finals,
                pool,
                coordinator_site,
                tracer,
            )
            _prime_phase(
                network,
                repositories,
                obj,
                new_initials,
                pool,
                coordinator_site,
                tracer,
                merged,
                best_snapshot,
            )
        except UnavailableError:
            _count(registry, "reconfig.aborted")
            raise

        # Phase 3: switch — the epoch transaction commit point.  The
        # assignment swap, epoch bump, and cache invalidations happen
        # between operations (the simulation is single-threaded), so no
        # operation ever sees a half-switched object.
        obj.assignment = new_assignment
        obj.epoch += 1
        for frontend in frontends:
            frontend.view_cache.invalidate(obj.name)
            frontend.serial_caches.pop(obj.name, None)
        tracer.event("reconfig.switch", object=obj.name, epoch=obj.epoch)
        _count(registry, "reconfig.success")
        if tracer.enabled:
            span.annotate(epoch=obj.epoch)
    return True


def _drain(
    network: Network,
    repositories,
    obj: ReplicatedObject,
    old_finals: Sequence[Coterie],
    pool: Sequence[int],
    coordinator_site: int,
    tracer: Tracer,
):
    """Phase 1: merge logs (and the best compaction snapshot) from
    reachable sites until they form a transversal of every old final
    coterie.  Without the snapshot, a primed site that was unreachable
    during a past compaction could end up holding neither the folded
    entries nor the state that subsumes them."""
    with tracer.span(
        "reconfig.drain", kind="reconfig", object=obj.name, site=coordinator_site
    ) as span:
        covered = covers_all(old_finals)
        outcome = network.gather(
            coordinator_site,
            _visit_order(pool, coordinator_site, network.n_sites, old_finals),
            lambda site: (
                repositories[site].read_log(obj.name),
                repositories[site].read_snapshot(obj.name),
            ),
            stop=covered,
            waves="serial",
        )
        reached = outcome.responders
        if not covered(reached):
            if tracer.enabled:
                span.annotate(responders=sorted(reached))
            raise UnavailableError("reconfigure", frozenset(pool) - reached)
        merged, best_snapshot, _ = fold_view(
            reply.value for reply in outcome.in_attempt_order()
        )
        if tracer.enabled:
            span.annotate(quorum=sorted(reached), entries=len(merged))
    return merged, best_snapshot


def _prime_phase(
    network: Network,
    repositories,
    obj: ReplicatedObject,
    new_initials: Sequence[Coterie],
    pool: Sequence[int],
    coordinator_site: int,
    tracer: Tracer,
    merged: Log,
    best_snapshot,
) -> None:
    """Phase 2: install the complete view (snapshot first, then the
    residual log) on a transversal of every new initial coterie."""
    with tracer.span(
        "reconfig.prime", kind="reconfig", object=obj.name, site=coordinator_site
    ) as span:
        covered = covers_all(new_initials)
        acked = network.gather(
            coordinator_site,
            _visit_order(pool, coordinator_site, network.n_sites, new_initials),
            lambda site: _prime(
                repositories[site], obj.name, best_snapshot, merged
            ),
            stop=covered,
            waves="serial",
        ).responders
        if not covered(acked):
            if tracer.enabled:
                span.annotate(responders=sorted(acked))
            raise UnavailableError("reconfigure", frozenset(pool) - acked)
        if tracer.enabled:
            span.annotate(quorum=sorted(acked))


def _prime(repository, object_name: str, snapshot, merged: Log) -> None:
    """Install the hand-over state at one repository."""
    if snapshot is not None:
        repository.install_snapshot(object_name, snapshot)
    repository.write_log(object_name, merged)
