"""Incremental quorum view construction (paper, Section 3.2, sped up).

A front-end reconstructs an object's view by merging the log fragments
of an initial quorum.  The merge is a set union, so re-merging a quorum
whose fragments have not changed is pure waste — and in the common case
(same front-end, same quorum, only its own last write new) almost
nothing has changed.  :class:`QuorumViewCache` keys the merged union on
per-repository log version counters (:meth:`Repository.log_version`):

* **hit** — every probed fragment reports the version already cached:
  the cached merge is returned as-is (object identity preserved, so the
  :class:`~repro.replication.log.Log` lazy order/grouping caches carry
  over to the next operation);
* **delta** — some fragments moved: only those fragments are merged
  into the cached union (logs only grow while their compaction snapshot
  is unchanged, so the union stays exact);
* **rebuild** — the responding site set or any site's snapshot object
  changed: the union is rebuilt by :func:`fold_view`, the from-scratch
  fold every other view construction uses.

After a successful final-quorum write the cache is refreshed from the
acks alone (:meth:`note_write`): each acked repository confirmed, via a
version-before/version-after pair captured atomically with the write,
that nothing else touched its fragment since our read, so the new union
is the cached union plus the written update — no re-read needed.

Every path preserves *exact* set equality with :func:`fold_view` over
the same probes; the equality tests in ``tests/test_sim_throughput.py``
enforce it end to end.  Front-ends consult the cache only under the
batched wave policy of :meth:`~repro.sim.network.Network.gather`.
Serial walks — front-end reads, reconfiguration and compaction drains —
call :func:`fold_view` directly and stay the cache-free reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.replication.log import Log


def _elect(values: Iterable[Sequence[Any]]) -> Any:
    """The first snapshot, in visit order, that subsumes every earlier one."""
    best = None
    for value in values:
        snapshot = value[1]
        if snapshot is not None and snapshot.subsumes(best):
            best = snapshot
    return best


def fold_view(values: Iterable[Sequence[Any]]) -> tuple[Log, Any, Log]:
    """The from-scratch view of ``(log, snapshot, ...)`` probe values.

    Merges the log fragments (in visit order), keeps the snapshot that
    subsumes the others, and drops the entries it covers.  Returns
    ``(view, best_snapshot_or_None, raw_union)``.
    """
    values = tuple(values)
    raw = Log()
    for value in values:
        raw = raw.merge(value[0])
    best = _elect(values)
    if best is None:
        return raw, None, raw
    return Log(e for e in raw if e.action not in best.dropped), best, raw


@dataclass
class _CacheEntry:
    """Cached merge for one object, valid for one responder-site tuple.

    Invariant: ``raw`` is the union of each cached site's fragment as of
    ``versions[site]``, under the snapshot objects in ``snaps``; and
    ``filtered`` is ``raw`` minus the actions dropped by ``best``.
    """

    sites: tuple[int, ...]
    versions: dict[int, int]
    snaps: dict[int, Any]
    #: Each cached site's fragment Log as last probed — the lineage
    #: anchor for O(delta) re-merges via :meth:`Log.fresh_since`.
    logs: dict[int, Log]
    raw: Log
    best: Any
    filtered: Log


class QuorumViewCache:
    """Per-front-end cache of merged initial-quorum views."""

    __slots__ = ("_entries", "hits", "delta_merges", "rebuilds", "write_throughs")

    def __init__(self) -> None:
        self._entries: dict[str, _CacheEntry] = {}
        self.hits = 0
        self.delta_merges = 0
        self.rebuilds = 0
        self.write_throughs = 0

    def merged_view(
        self, object_name: str, probes: Sequence[Any]
    ) -> tuple[Log, Any]:
        """Merge quorum read probes, reusing cached work where sound.

        ``probes`` are :class:`~repro.sim.network.ProbeReply` objects in
        attempt (visit) order, each carrying a ``(log, snapshot,
        version)`` triple captured atomically at the repository.
        Returns ``(filtered_log, best_snapshot_or_None)`` with exactly
        the sets :func:`fold_view` over the same probes produces.
        """
        sites = tuple(probe.site for probe in probes)
        entry = self._entries.get(object_name)
        if (
            entry is not None
            and entry.sites == sites
            and all(entry.snaps[probe.site] is probe.value[1] for probe in probes)
        ):
            changed = [
                probe
                for probe in probes
                if entry.versions[probe.site] != probe.value[2]
            ]
            if not changed:
                self.hits += 1
                return entry.filtered, entry.best
            self.delta_merges += 1
            best = _elect(probe.value for probe in probes)
            raw_entries = entry.raw.entry_set
            fresh: set = set()
            for probe in changed:
                # O(delta) when the fragment's extension lineage reaches
                # the log we probed last time; the O(n) union-and-diff
                # over the whole fragment is the fallback.
                chunk = probe.value[0].fresh_since(entry.logs[probe.site])
                if chunk is not None:
                    fresh.update(
                        e for e in chunk if e not in raw_entries
                    )
                else:
                    fresh |= probe.value[0].entry_set
                    fresh -= raw_entries
            # extended() bisect-inserts the delta into the cached sorted
            # order, so the per-operation cost is O(|delta| log n), not a
            # fresh O(n log n) sort of the whole union.
            raw = entry.raw.extended(fresh)
            if best is None:
                filtered = raw
            elif raw is entry.raw and best == entry.best:
                filtered = entry.filtered
            elif best == entry.best:
                filtered = entry.filtered.extended(
                    e for e in fresh if e.action not in best.dropped
                )
            else:  # snapshots were identity-stable, so this is unreachable;
                # kept as a safe fallback rather than an assumption.
                filtered = Log(e for e in raw if e.action not in best.dropped)
            entry.versions = {probe.site: probe.value[2] for probe in probes}
            entry.logs = {probe.site: probe.value[0] for probe in probes}
            entry.raw = raw
            entry.best = best
            entry.filtered = filtered
            return filtered, best
        self.rebuilds += 1
        filtered, best, raw = fold_view(probe.value for probe in probes)
        self._entries[object_name] = _CacheEntry(
            sites=sites,
            versions={probe.site: probe.value[2] for probe in probes},
            snaps={probe.site: probe.value[1] for probe in probes},
            logs={probe.site: probe.value[0] for probe in probes},
            raw=raw,
            best=best,
            filtered=filtered,
        )
        return filtered, best

    def note_write(
        self,
        object_name: str,
        update: Log,
        acks: Sequence[tuple[int, int, int]],
    ) -> None:
        """Refresh the cache from a final-quorum write's acks.

        ``acks`` holds ``(site, version_before, version_after)`` per
        acked repository, the version pair captured atomically around
        the write.  The refresh only applies when every cached site
        acked with ``version_before`` equal to the cached version — the
        proof that nothing else touched the fragment between our read
        and our write, so its new fragment is exactly the old one plus
        ``update``.  A moved version means an interleaved writer; the
        entry is discarded and the next read rebuilds.  Repositories
        holding compaction snapshots filter incoming updates, so the
        refresh is also skipped (never applied unsoundly) when any
        cached site has one.
        """
        entry = self._entries.get(object_name)
        if entry is None:
            return
        if any(snapshot is not None for snapshot in entry.snaps.values()):
            return
        before = {site: b for site, b, _ in acks}
        after = {site: a for site, _, a in acks}
        cached = set(entry.sites)
        if not cached <= set(before):
            return
        if any(before[site] != entry.versions[site] for site in cached):
            self._entries.pop(object_name, None)
            return
        raw = entry.raw.extended(update.entry_set)
        entry.raw = raw
        # No snapshots anywhere in the entry, so nothing is filtered.
        entry.filtered = raw
        entry.versions = {
            site: after.get(site, version)
            for site, version in entry.versions.items()
        }
        self.write_throughs += 1

    def invalidate(self, object_name: str | None = None) -> None:
        """Drop one object's entry, or everything when ``None``."""
        if object_name is None:
            self._entries.clear()
        else:
            self._entries.pop(object_name, None)

    def stats(self) -> dict[str, int]:
        """Counter snapshot (hits/deltas/rebuilds/write-throughs)."""
        return {
            "hits": self.hits,
            "delta_merges": self.delta_merges,
            "rebuilds": self.rebuilds,
            "write_throughs": self.write_throughs,
        }
