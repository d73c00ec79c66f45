"""Timestamped event logs (paper, Figure 3-1).

A replicated object's state is a log: a sequence of entries, each
consisting of a timestamp, an event, and an action identifier.  Logs are
partially replicated among repositories; a front-end reconstructs a
view by *merging* the logs of an initial quorum.  Merge is a set union
ordered by timestamp, which makes it idempotent, commutative, and
associative — the properties the hypothesis test suite checks, since
they are what make quorum consensus insensitive to how a view was
assembled.
"""

from __future__ import annotations

from bisect import bisect, insort
from operator import attrgetter
from typing import Iterable, Iterator

from repro.clocks.timestamps import Timestamp
from repro.histories.events import Event
from repro.txn.ids import ActionId

#: Shared sort key: (counter, site, seq) — identical ordering to the old
#: ``(entry.ts, entry.action.seq)`` tuple key, since Timestamp compares
#: (counter, site) first, but precomputed once per entry instead of
#: rebuilt per comparison.
_SORT_KEY = attrgetter("sort_key")


class LogEntry:
    """One log record: when, what, and on whose behalf.

    ``__slots__`` value type with the hash and the log sort key
    precomputed at construction: log-set algebra hashes entries on every
    quorum merge, and ordered insertion compares sort keys O(log n)
    times per entry.  The hash equals the dataclass hash it replaces
    (``hash((ts, event, action))``), so frozenset iteration orders and
    seeded fingerprints are unchanged.  Entries are not interned — their
    key space grows with the run (see ``docs/PERFORMANCE.md``).
    """

    __slots__ = ("ts", "event", "action", "sort_key", "_hash")

    def __init__(self, ts: Timestamp, event: Event, action: ActionId):
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "event", event)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "sort_key", (ts.counter, ts.site, action.seq))
        object.__setattr__(self, "_hash", hash((ts, event, action)))

    def __setattr__(self, name, value):
        raise AttributeError(f"LogEntry is immutable (tried to set {name!r})")

    def __delattr__(self, name):
        raise AttributeError(f"LogEntry is immutable (tried to delete {name!r})")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, LogEntry):
            return NotImplemented
        return (
            self.ts == other.ts
            and self.event == other.event
            and self.action == other.action
        )

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return (LogEntry, (self.ts, self.event, self.action))

    def __repr__(self):
        return f"LogEntry(ts={self.ts!r}, event={self.event!r}, action={self.action!r})"

    def __str__(self) -> str:
        return f"[{self.ts}] {self.event} {self.action}"


class Log:
    """An immutable-by-convention set of entries ordered by timestamp.

    Lamport timestamps (counter, site) are unique per entry in a correct
    run; merge tolerates duplicates by keying on the full entry.
    """

    __slots__ = ("_entries", "_ordered", "_by_action", "_actions")

    def __init__(self, entries: Iterable[LogEntry] = ()):
        self._entries: frozenset[LogEntry] = frozenset(entries)
        # Lazy caches; logs are immutable so each is computed at most once.
        self._ordered: tuple[LogEntry, ...] | None = None
        self._by_action: dict[ActionId, tuple[LogEntry, ...]] | None = None
        self._actions: frozenset[ActionId] | None = None

    @classmethod
    def _from_entry_set(cls, entries: frozenset[LogEntry]) -> "Log":
        """Wrap an already-frozen entry set without re-freezing it."""
        out = cls.__new__(cls)
        out._entries = entries
        out._ordered = None
        out._by_action = None
        out._actions = None
        return out

    def merge(self, other: "Log") -> "Log":
        """The least upper bound of two logs (set union)."""
        if other._entries <= self._entries:
            return self
        if self._entries <= other._entries:
            return other
        return Log._from_entry_set(self._entries | other._entries)

    def add(self, entry: LogEntry) -> "Log":
        if entry in self._entries:
            return self
        return self.extended((entry,))

    def extended(self, added: Iterable[LogEntry]) -> "Log":
        """Union with ``added``, carrying this log's caches forward.

        Semantically identical to ``self.merge(Log(added))``, but when
        this log's lazy caches have already been computed the result is
        seeded incrementally: each new entry is bisect-inserted into the
        sorted order instead of re-sorting the whole log.  Quorum view
        caches use this so that a front-end revisiting a grown log pays
        one C-level O(n) set union plus O(delta log n) inserts rather
        than an O(n log n) Python-level sort per operation.  Sound
        because timestamps are unique per entry in a correct run, so the
        seeded order equals the order :meth:`ordered` would compute.

        The membership filter runs as C-level frozenset difference, so a
        caller may pass a whole superset log's entries and pay only for
        the genuinely new ones.
        """
        if isinstance(added, (frozenset, set)):
            fresh_set = added - self._entries
        else:
            fresh_set = frozenset(added) - self._entries
        if not fresh_set:
            return self
        out = Log._from_entry_set(self._entries | fresh_set)
        if len(fresh_set) == 1:
            # The dominant caller shape: one front-end appending one new
            # entry per quorum phase, almost always with the greatest
            # timestamp so far.  Tuple concatenation replaces the
            # list-copy + insort + re-tuple round trip.
            (entry,) = fresh_set
            if self._ordered is not None:
                ordered = self._ordered
                if not ordered or ordered[-1].sort_key <= entry.sort_key:
                    out._ordered = ordered + (entry,)
                else:
                    i = bisect(ordered, entry.sort_key, key=_SORT_KEY)
                    out._ordered = ordered[:i] + (entry,) + ordered[i:]
            if self._by_action is not None:
                grouped = dict(self._by_action)
                group = grouped.get(entry.action)
                if group is None:
                    grouped[entry.action] = (entry,)
                elif group[-1].sort_key <= entry.sort_key:
                    grouped[entry.action] = group + (entry,)
                else:
                    expanded = list(group)
                    insort(expanded, entry, key=_SORT_KEY)
                    grouped[entry.action] = tuple(expanded)
                out._by_action = grouped
            if self._actions is not None:
                out._actions = (
                    self._actions
                    if entry.action in self._actions
                    else self._actions | {entry.action}
                )
            return out
        fresh = sorted(fresh_set, key=_SORT_KEY)
        if self._ordered is not None:
            ordered = list(self._ordered)
            for entry in fresh:
                insort(ordered, entry, key=_SORT_KEY)
            out._ordered = tuple(ordered)
        if self._by_action is not None:
            grouped = dict(self._by_action)
            for entry in fresh:
                group = list(grouped.get(entry.action, ()))
                insort(group, entry, key=_SORT_KEY)
                grouped[entry.action] = tuple(group)
            out._by_action = grouped
        if self._actions is not None:
            out._actions = self._actions.union(e.action for e in fresh)
        return out

    def ordered(self) -> tuple[LogEntry, ...]:
        """Entries sorted by timestamp (total order; site breaks ties)."""
        if self._ordered is None:
            self._ordered = tuple(sorted(self._entries, key=_SORT_KEY))
        return self._ordered

    def max_entry(self) -> LogEntry | None:
        """The timestamp-greatest entry, without forcing a full sort."""
        if self._ordered is not None:
            return self._ordered[-1] if self._ordered else None
        if not self._entries:
            return None
        return max(self._entries, key=_SORT_KEY)

    def entries_of(self, action: ActionId) -> tuple[LogEntry, ...]:
        if self._by_action is None:
            grouped: dict[ActionId, list[LogEntry]] = {}
            for entry in self.ordered():
                grouped.setdefault(entry.action, []).append(entry)
            self._by_action = {a: tuple(es) for a, es in grouped.items()}
        return self._by_action.get(action, ())

    def actions(self) -> frozenset[ActionId]:
        if self._actions is None:
            self._actions = frozenset(e.action for e in self._entries)
        return self._actions

    @property
    def entry_set(self) -> frozenset[LogEntry]:
        """The raw unordered entry set.

        Set algebra on two logs' ``entry_set``s (difference, subset)
        reuses the hashes already stored in the frozensets, so it is
        much cheaper than element-wise iteration, which both re-hashes
        and sorts (``__iter__`` goes through :meth:`ordered`).  The
        online auditor's incremental log scans depend on this.
        """
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[LogEntry]:
        return iter(self.ordered())

    def __contains__(self, entry: LogEntry) -> bool:
        return entry in self._entries

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Log) and self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __reduce__(self):
        # Rebuilt from the entry set alone: the lazy order/grouping
        # caches are derived data and recompute on the other side.
        return (Log, (tuple(self._entries),))

    def __str__(self) -> str:
        return "\n".join(str(e) for e in self.ordered())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Log({len(self._entries)} entries)"
