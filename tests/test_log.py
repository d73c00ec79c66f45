"""Unit and property tests for replicated logs (merge is a join)."""

import gc
import pickle

from hypothesis import given
from hypothesis import strategies as st

from repro.clocks.timestamps import Timestamp
from repro.histories.events import event, ok
from repro.replication.log import Log, LogEntry
from repro.txn.ids import ActionId


def _entry(counter: int, site: int = 0, op: str = "Enq", seq: int = 1) -> LogEntry:
    return LogEntry(Timestamp(counter, site), event(op, ("a",)), ActionId(seq, site))


entries_strategy = st.lists(
    st.builds(
        _entry,
        counter=st.integers(1, 20),
        site=st.integers(0, 3),
        seq=st.integers(1, 5),
    ),
    max_size=12,
).map(Log)


class TestLogBasics:
    def test_ordered_by_timestamp(self):
        log = Log([_entry(5), _entry(2), _entry(9)])
        counters = [e.ts.counter for e in log.ordered()]
        assert counters == sorted(counters)

    def test_add_is_persistent(self):
        base = Log()
        extended = base.add(_entry(1))
        assert len(base) == 0 and len(extended) == 1

    def test_entries_of_action(self):
        log = Log([_entry(1, seq=1), _entry(2, seq=2), _entry(3, seq=1)])
        assert len(log.entries_of(ActionId(1, 0))) == 2

    def test_actions(self):
        log = Log([_entry(1, seq=1), _entry(2, seq=2)])
        assert log.actions() == {ActionId(1, 0), ActionId(2, 0)}

    def test_contains_and_iter(self):
        entry = _entry(1)
        log = Log([entry])
        assert entry in log
        assert list(log) == [entry]


class TestMergeLaws:
    """Merge must be a join: idempotent, commutative, associative — the
    properties that make a view independent of how its quorum logs were
    combined."""

    @given(entries_strategy)
    def test_idempotent(self, log):
        assert log.merge(log) == log

    @given(entries_strategy, entries_strategy)
    def test_commutative(self, first, second):
        assert first.merge(second) == second.merge(first)

    @given(entries_strategy, entries_strategy, entries_strategy)
    def test_associative(self, a, b, c):
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    @given(entries_strategy, entries_strategy)
    def test_merge_is_an_upper_bound(self, first, second):
        merged = first.merge(second)
        for entry in first:
            assert entry in merged
        for entry in second:
            assert entry in merged

    @given(entries_strategy)
    def test_merge_with_empty_is_identity(self, log):
        assert log.merge(Log()) == log


class TestNoRetainedHistory:
    """A log holds its entries and derived caches, never another log."""

    def test_derived_logs_reference_no_other_log(self):
        base = Log([_entry(1), _entry(2, seq=2)])
        # Warm the lazy caches so extended()/add() take the carry-forward
        # paths rather than the cold ones.
        base.ordered(), base.entries_of(ActionId(1, 0)), base.actions()
        derived = (
            base.extended([_entry(3), _entry(4, seq=3)]),
            base.add(_entry(5)),
            base.merge(Log([_entry(6)])),
        )
        for log in derived:
            assert not any(
                isinstance(referent, Log) for referent in gc.get_referents(log)
            )

    def test_pickle_round_trip_preserves_an_extended_log(self):
        base = Log([_entry(1)])
        grown = base.extended([_entry(2)])
        copied = pickle.loads(pickle.dumps(grown))
        assert copied == grown
        assert copied.ordered() == grown.ordered()
