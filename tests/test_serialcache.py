"""Unit tests for the incremental commit-order prefix cache.

Every case checks the node :meth:`SerialPrefixCache.committed_node`
returns against the reference computation — replaying
``view.commit_order_serial()`` through the legality oracle from
``view.base_state`` — and pins which path (hit, delta fold, rebuild)
produced it.  Trie nodes are memoized per path, so the reference replay
lands on the *same* node object exactly when the event sequence matches.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.clocks.timestamps import Timestamp
from repro.histories.events import event, ok
from repro.replication.log import Log, LogEntry
from repro.replication.serialcache import SerialPrefixCache
from repro.replication.view import View
from repro.spec.legality import LegalityOracle
from repro.txn.ids import ActionId, TxnStatus
from repro.types import Queue


class _Statuses:
    """A transaction-manager stand-in: status and commit timestamps."""

    def __init__(self):
        self._commits: dict[ActionId, Timestamp] = {}
        self._aborts: set[ActionId] = set()

    def commit(self, action: ActionId, counter: int) -> None:
        self._commits[action] = Timestamp(counter, 0)

    def abort(self, action: ActionId) -> None:
        self._aborts.add(action)

    def status_of(self, action: ActionId) -> TxnStatus:
        if action in self._commits:
            return TxnStatus.COMMITTED
        if action in self._aborts:
            return TxnStatus.ABORTED
        return TxnStatus.ACTIVE

    def commit_ts_of(self, action: ActionId) -> Timestamp | None:
        return self._commits.get(action)


@dataclass(frozen=True)
class _Base:
    """A compaction base: only its state matters to the replay."""

    state: tuple


def _action(seq: int) -> ActionId:
    return ActionId(seq, 0)


def _enq(counter: int, seq: int, item: str = "a") -> LogEntry:
    return LogEntry(Timestamp(counter, 0), event("Enq", (item,)), _action(seq))


def _deq(counter: int, seq: int, item: str) -> LogEntry:
    return LogEntry(Timestamp(counter, 0), event("Deq", (), ok(item)), _action(seq))


def _reference(view: View, oracle: LegalityOracle):
    node = oracle._root_for(view.base_state)
    for step in view.commit_order_serial():
        node = oracle._step(node, step)
    return node


class _Harness:
    def __init__(self):
        self.oracle = LegalityOracle(Queue())
        self.statuses = _Statuses()
        self.cache = SerialPrefixCache()

    def check(self, entries, base=None, **counts) -> None:
        """Assert the cache's node is the reference node, then the counters."""
        view = View(Log(entries), self.statuses, base=base)
        node = self.cache.committed_node(view, self.oracle)
        assert node is _reference(view, self.oracle)
        assert self.cache.stats() == {
            "hits": counts.get("hits", 0),
            "delta_folds": counts.get("delta_folds", 0),
            "rebuilds": counts.get("rebuilds", 0),
        }


class TestDeltaFold:
    def test_first_view_rebuilds_and_an_unchanged_view_hits(self):
        h = _Harness()
        h.statuses.commit(_action(1), 10)
        entries = [_enq(1, 1, "a")]
        h.check(entries, rebuilds=1)
        h.check(entries, hits=1, rebuilds=1)

    def test_newly_committed_actions_fold_in_commit_order(self):
        h = _Harness()
        h.statuses.commit(_action(1), 10)
        entries = [_enq(1, 1, "a")]
        h.check(entries, rebuilds=1)
        # Two new actions commit in the opposite order to their entries'
        # timestamps; an aborted one is ignored.
        entries += [_enq(2, 2, "b"), _enq(3, 3, "a"), _enq(4, 4, "b")]
        h.statuses.commit(_action(3), 11)
        h.statuses.commit(_action(2), 12)
        h.statuses.abort(_action(4))
        h.check(entries, delta_folds=1, rebuilds=1)

    def test_active_growth_hits_and_folds_once_it_commits(self):
        h = _Harness()
        h.statuses.commit(_action(1), 10)
        entries = [_enq(1, 1, "a"), _enq(2, 2, "b")]
        h.check(entries, rebuilds=1)
        entries.append(_deq(3, 2, "a"))
        h.check(entries, hits=1, rebuilds=1)
        h.statuses.commit(_action(2), 11)
        h.check(entries, hits=1, delta_folds=1, rebuilds=1)


class TestRebuildConditions:
    def test_changed_base_rebuilds(self):
        h = _Harness()
        h.statuses.commit(_action(2), 10)
        entries = [_enq(2, 2, "b")]
        h.check(entries, rebuilds=1)
        h.check(entries, base=_Base(("a",)), rebuilds=2)

    def test_lagging_entry_for_a_folded_action_rebuilds(self):
        h = _Harness()
        h.statuses.commit(_action(1), 10)
        h.check([_enq(1, 1, "a")], rebuilds=1)
        # Action 1's second entry reaches this view only now.
        h.check([_enq(1, 1, "a"), _enq(2, 1, "b")], rebuilds=2)

    def test_older_commit_learned_late_rebuilds(self):
        h = _Harness()
        h.statuses.commit(_action(1), 10)
        h.statuses.commit(_action(2), 11)
        h.check([_enq(2, 2, "b")], rebuilds=1)
        # Action 1 committed before action 2, so it belongs inside the
        # folded prefix, not after it.
        h.check([_enq(1, 1, "a"), _enq(2, 2, "b")], rebuilds=2)

    def test_view_that_is_no_longer_a_superset_rebuilds(self):
        h = _Harness()
        for seq in (1, 2, 3):
            h.statuses.commit(_action(seq), 10 + seq)
        h.check([_enq(1, 1, "a"), _enq(2, 2, "b")], rebuilds=1)
        # Same size, one entry swapped: only the size of the difference
        # tells this apart from growth.
        h.check([_enq(1, 1, "a"), _enq(3, 3, "a")], rebuilds=2)
        # Strictly smaller.
        h.check([_enq(1, 1, "a")], rebuilds=3)

    def test_trimmed_oracle_memo_rebuilds(self):
        h = _Harness()
        h.statuses.commit(_action(1), 10)
        entries = [_enq(1, 1, "a")]
        h.check(entries, rebuilds=1)
        h.oracle.trim_cache()
        h.check(entries, rebuilds=2)
