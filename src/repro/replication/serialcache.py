"""Incremental commit-order serialization for the hybrid fast path.

Hybrid atomicity chooses every response against the serial history of
committed events in commit-timestamp order (paper, Definition 3).  The
reference implementation rebuilds that history from the view on every
operation — an O(n log n) classify-and-sort over all actions in the log
— and then replays it through the legality trie, O(n) memoized hops.
Profiling shows this pair dominating the replicated-workload hot path.

The observation that makes it incremental: commit timestamps come from
the transaction manager's single monotone Lamport clock, so the global
commit order is *append-only*.  A front-end revisiting a grown view
almost always sees the same committed prefix plus a few newly committed
actions at the end, so the legality-trie node reached by the committed
prefix can be carried forward and stepped only through the delta.

:class:`SerialPrefixCache` holds, per (front-end, object), the trie node
for the committed prefix, the entry set it was computed from, and the
classification of every action seen so far.  It *rebuilds from scratch*
— which is exactly the reference computation — whenever any of its
soundness conditions fails:

* the view's compaction base changed (snapshot installed);
* the view no longer contains every cached entry (checked by the size
  of one frozenset difference: ``len(new) - len(new - old) == len(old)``
  holds exactly when ``old <= new``);
* a new entry arrived for an action already folded into the prefix
  (a lagging fragment filled in late);
* a newly committed action's timestamp orders *before* the cached
  prefix's last commit (its entries reached this view late);
* the legality oracle's memo was trimmed since the node was taken.

The serial RPC path never constructs one of these, so the existing
serial-vs-batched byte-identity suite checks the cache end to end.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.txn.ids import ActionId, TxnStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.replication.view import View
    from repro.spec.legality import LegalityOracle


class SerialPrefixCache:
    """Carried-forward commit-order replay position for one object.

    Owned by a front-end (one per object name, like the quorum view
    cache) because different front-ends visit replicas in different
    orders and therefore hold slightly different merged views.
    """

    __slots__ = (
        "_entries",
        "_node",
        "_committed_set",
        "_aborted_set",
        "_undecided",
        "_last_commit_ts",
        "_base",
        "_trims_seen",
        "hits",
        "delta_folds",
        "rebuilds",
    )

    def __init__(self):
        self._entries = None  # frozenset[LogEntry] the node was computed from
        self._node = None
        self._committed_set: set[ActionId] = set()
        self._aborted_set: set[ActionId] = set()
        self._undecided: set[ActionId] = set()
        self._last_commit_ts = None
        self._base = None
        self._trims_seen = -1
        self.hits = 0
        self.delta_folds = 0
        self.rebuilds = 0

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "delta_folds": self.delta_folds,
            "rebuilds": self.rebuilds,
        }

    def committed_node(self, view: "View", oracle: "LegalityOracle"):
        """The trie node after the view's committed events in commit order.

        Equivalent, by construction, to walking
        ``view.commit_order_serial(own=None)`` through the oracle from
        ``view.base_state`` — incrementally when sound, by rebuilding
        (the reference computation itself) otherwise.
        """
        statuses = view.statuses
        entries = view.log.entry_set
        if self._node is None or self._trims_seen != oracle.cache_trims or (
            self._base is not view.base
        ):
            return self._rebuild(view, oracle)
        delta = ()
        if entries is not self._entries:
            # One C-level pass; its size certifies the cached set is a
            # subset, so no separate ``<=`` pass is needed.
            delta = entries - self._entries
            if len(entries) - len(delta) != len(self._entries):
                return self._rebuild(view, oracle)

        if delta:
            committed_set = self._committed_set
            aborted_set = self._aborted_set
            undecided = self._undecided
            for entry in delta:
                action = entry.action
                if action in committed_set:
                    # A lagging entry for an already-folded action: the
                    # folded prefix is missing it, so the node is stale.
                    return self._rebuild(view, oracle)
                if action not in aborted_set:
                    undecided.add(action)
        self._entries = entries

        newly_committed = None
        if self._undecided:
            decided_aborts = None
            for action in self._undecided:
                status = statuses.status_of(action)
                if status is TxnStatus.COMMITTED:
                    if newly_committed is None:
                        newly_committed = []
                    newly_committed.append(action)
                elif status is TxnStatus.ABORTED:
                    if decided_aborts is None:
                        decided_aborts = []
                    decided_aborts.append(action)
            if decided_aborts is not None:
                self._undecided.difference_update(decided_aborts)
                self._aborted_set.update(decided_aborts)

        if newly_committed is None:
            self.hits += 1
            return self._node

        newly_committed.sort(key=statuses.commit_ts_of)
        if (
            self._last_commit_ts is not None
            and statuses.commit_ts_of(newly_committed[0]) < self._last_commit_ts
        ):
            # Commit order is globally append-only, but this view may
            # learn of an older commit late; it belongs *inside* the
            # folded prefix, not at its end.
            return self._rebuild(view, oracle)

        node = self._node
        step = oracle._step
        log = view.log
        for action in newly_committed:
            for entry in log.entries_of(action):
                node = step(node, entry.event)
        self._node = node
        self._undecided.difference_update(newly_committed)
        self._committed_set.update(newly_committed)
        self._last_commit_ts = statuses.commit_ts_of(newly_committed[-1])
        self.delta_folds += 1
        return node

    def _rebuild(self, view: "View", oracle: "LegalityOracle"):
        """The reference computation: classify, sort, replay from the root."""
        self.rebuilds += 1
        statuses = view.statuses
        log = view.log
        committed = view.committed_actions()
        node = oracle._root_for(view.base_state)
        step = oracle._step
        for action in committed:
            for entry in log.entries_of(action):
                node = step(node, entry.event)
        committed_set = set(committed)
        aborted: set[ActionId] = set()
        undecided: set[ActionId] = set()
        for action in log.actions():
            if action in committed_set:
                continue
            if statuses.status_of(action) is TxnStatus.ABORTED:
                aborted.add(action)
            else:
                undecided.add(action)
        self._entries = log.entry_set
        self._node = node
        self._committed_set = committed_set
        self._aborted_set = aborted
        self._undecided = undecided
        self._last_commit_ts = (
            statuses.commit_ts_of(committed[-1]) if committed else None
        )
        self._base = view.base
        self._trims_seen = oracle.cache_trims
        return node

    def contains_committed(self, action: ActionId) -> bool:
        """Is ``action`` already folded into the cached prefix?"""
        return action in self._committed_set
