"""Indexed per-device queues: the one place serving queues are mutated.

A device's queue used to be a plain deque, and every scheduling
decision walked it: batch formation rebuilt the head-of-line set and the
whole queue on each call, and the rebalancer recounted it on every move.
That is quadratic in the backlog. :class:`DeviceQueue` keeps the same
*ordered view* — iterating it yields exactly the order the deque had —
and maintains, incrementally as tickets come and go, the indexes those
decisions read:

* **per-session FIFOs** — a session's queued tickets, in global order.
  Every removal the scheduler makes takes a session's *head* (both batch
  formers take at most one ticket per session, the first one), so
  per-session FIFO order can never be violated by construction;
* **a global order key per ticket** — ``append`` counts up from one,
  ``appendleft`` counts down from zero, so "front of the queue" is "smallest key"
  and the ordered view is the front map read backwards, then the back
  map;
* **an arrival-ordered frontier** of session heads that have not been
  admitted yet, feeding **one EDF heap** of admitted heads keyed
  ``(deadline_ms, arrival_ms, seq, order key)`` — the async former's
  sort key, with the order key standing in for the stable sort's
  queue-order tie-break;
* **per-session queued counts**, kept sorted by ``(count, head order
  key)`` — the rebalancer's "closest to the transfer target" pick, with
  the old dict-iteration tie-break (first session in queue order).

Heap entries are invalidated lazily: a session record points at its one
live entry, and anything else popped is dropped. Stale entries are
compacted once they outnumber the queued sessions, and all indexes are
dropped whenever the queue empties, so the index holds O(queued tickets
+ queued sessions) at any time.

The per-session objects are shaped with the allocator in mind: the
record *is* the FIFO list, heap entries are 4- and 5-tuples, and a count
rank is one packed int. None of them shares CPython's 64-byte size class
with short strings. Index objects of that class, freed one by one while
a large flush printed its outputs, scattered the surviving output
strings over many memory pools; the next server's construction then
allocated into the holes, and its garbage collections ran measurably
slower over the scattered objects.

:class:`ResidentSet` is the companion per-device index of *resident*
sessions (queued or not), kept in the server's open order.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from heapq import heapify, heappop, heappush
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .session import TenantSession, Ticket

__all__ = ["DeviceQueue", "ResidentSet"]

_INF = float("inf")
#: Count-index ranks pack ``(count, head order key)`` into one int: the
#: count above ``_KEY_BITS`` bits, the biased order key below.
_KEY_BITS = 40
_KEY_BIAS = 1 << (_KEY_BITS - 1)


class _SessionQueue(list):
    """One session's queued tickets in global order (``[0]`` is the
    head), plus the head's index state."""

    __slots__ = ("entry", "admitted")

    def __init__(self, ticket: "Ticket") -> None:
        super().__init__((ticket,))
        #: The head's live heap entry (frontier or EDF), or None while
        #: the batch former holds it between ``pop_admitted`` and
        #: ``take``/``readmit``.
        self.entry: Optional[tuple] = None
        #: True once the head passed an admission horizon (EDF heap).
        self.admitted = False


class DeviceQueue:
    """A device's request queue with incremental scheduling indexes.

    Behaves like the deque it replaces for reading (``len``, truth,
    ordered iteration). Mutations go through ``append``/``extend``,
    ``appendleft`` (quarantine requeue), ``take`` (a batch former
    removing a session head), ``remove_session`` (close, migration) and
    ``clear`` (failover).
    """

    __slots__ = (
        "_front", "_back", "_head_key", "_tail_key", "_sessions",
        "_frontier", "_edf", "_stale", "_admitted", "_horizon", "_ranks",
        "_ranked",
    )

    def __init__(self) -> None:
        self._front: dict = {}  #: appendleft'ed ticket -> key (<= 0)
        self._back: dict = {}   #: appended ticket -> key (> 0)
        self._head_key = 1
        self._tail_key = 0
        self._sessions: dict = {}  #: session -> _SessionQueue
        self._reset_index()

    def _reset_index(self) -> None:
        self._frontier: list = []  #: (arrival, key, head, rec)
        self._edf: list = []       #: (deadline, arrival, seq, key, rec)
        self._stale = 0            #: dead entries still in either heap
        self._admitted = 0         #: live heads in the EDF heap
        self._horizon = -_INF      #: the last effective admission horizon
        self._ranks: list = []     #: sorted count-index ranks (_rank)
        self._ranked: dict = {}    #: rank -> session

    # -- the ordered view ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._front) + len(self._back)

    def __iter__(self) -> Iterator["Ticket"]:
        return chain(reversed(self._front), self._back)

    def count(self, session: "TenantSession") -> int:
        """Queued tickets of ``session`` on this device."""
        rec = self._sessions.get(session)
        return len(rec) if rec is not None else 0

    def _key(self, ticket: "Ticket") -> int:
        key = self._back.get(ticket)
        return self._front[ticket] if key is None else key

    # -- mutations ----------------------------------------------------------------

    def append(self, ticket: "Ticket") -> None:
        self._tail_key += 1
        key = self._back[ticket] = self._tail_key
        session = ticket.session
        rec = self._sessions.get(session)
        if rec is None:
            self._new_session(ticket, key)
            return
        head_key = self._key(rec[0])
        self._unrank(rec, head_key)
        rec.append(ticket)
        self._rank(rec, head_key, session)

    def extend(self, tickets: Iterable["Ticket"]) -> None:
        for ticket in tickets:
            self.append(ticket)

    def appendleft(self, ticket: "Ticket") -> None:
        """Put ``ticket`` at the very front (it becomes its session's
        head, displacing the old head from the admission index)."""
        self._head_key -= 1
        key = self._front[ticket] = self._head_key
        session = ticket.session
        rec = self._sessions.get(session)
        if rec is None:
            self._new_session(ticket, key)
            return
        self._unrank(rec, self._key(rec[0]))
        self._drop_entry(rec)
        rec.insert(0, ticket)
        self._rank(rec, key, session)
        self._push_frontier(rec, ticket, key)

    def take(self, ticket: "Ticket") -> None:
        """Remove ``ticket``, which must be its session's head."""
        session = ticket.session
        rec = self._sessions[session]
        if rec[0] is not ticket:
            raise ValueError(f"{ticket!r} is not its session's queue head")
        key = self._back.pop(ticket, None)
        if key is None:
            key = self._front.pop(ticket)
        self._unrank(rec, key)
        self._drop_entry(rec)
        del rec[0]
        if rec:
            head = rec[0]
            key = self._key(head)
            self._rank(rec, key, session)
            self._push_frontier(rec, head, key)
        else:
            del self._sessions[session]
            if not self._sessions:
                self._reset_index()

    def remove_session(self, session: "TenantSession") -> list["Ticket"]:
        """Remove and return every queued ticket of ``session``, in order."""
        rec = self._sessions.pop(session, None)
        if rec is None:
            return []
        self._unrank(rec, self._key(rec[0]))
        self._drop_entry(rec)
        back, front = self._back, self._front
        for ticket in rec:
            if back.pop(ticket, None) is None:
                del front[ticket]
        if not self._sessions:
            self._reset_index()
        return list(rec)

    def clear(self) -> list["Ticket"]:
        """Empty the queue; returns what it held, in order."""
        tickets = list(self)
        self._front.clear()
        self._back.clear()
        self._sessions.clear()
        self._reset_index()
        return tickets

    # -- index upkeep -------------------------------------------------------------

    def _new_session(self, ticket: "Ticket", key: int) -> None:
        session = ticket.session
        rec = self._sessions[session] = _SessionQueue(ticket)
        self._rank(rec, key, session)
        self._push_frontier(rec, ticket, key)

    def _rank(self, rec: _SessionQueue, head_key: int, session) -> None:
        """Enter a session in the count index: one int per session,
        ordered as ``(queued count, head order key)``."""
        rank = (len(rec) << _KEY_BITS) + head_key + _KEY_BIAS
        insort(self._ranks, rank)
        self._ranked[rank] = session

    def _unrank(self, rec: _SessionQueue, head_key: int) -> None:
        rank = (len(rec) << _KEY_BITS) + head_key + _KEY_BIAS
        del self._ranks[bisect_left(self._ranks, rank)]
        del self._ranked[rank]

    def _push_frontier(self, rec: _SessionQueue, head: "Ticket", key: int) -> None:
        entry = rec.entry = (head.arrival_ms, key, head, rec)
        rec.admitted = False
        heappush(self._frontier, entry)

    def _drop_entry(self, rec: _SessionQueue) -> None:
        """The head of ``rec`` is leaving: retire its heap entry."""
        if rec.admitted:
            self._admitted -= 1
            rec.admitted = False
        if rec.entry is not None:
            rec.entry = None
            self._stale += 1
            if self._stale > len(self._sessions) + 64:
                self._compact()

    def _compact(self) -> None:
        """Rebuild both heaps from the live entries only."""
        live = [r for r in self._sessions.values() if r.entry is not None]
        self._frontier = [r.entry for r in live if not r.admitted]
        self._edf = [r.entry for r in live if r.admitted]
        heapify(self._frontier)
        heapify(self._edf)
        self._stale = 0

    # -- EDF admission (the async batch former) -----------------------------------

    def admit(self, horizon_ms: float) -> None:
        """Admit every session head that has arrived by the effective
        horizon: ``horizon_ms`` (the device pipeline's), or the earliest
        head arrival when nothing has arrived by then.

        Admitted heads stay admitted, which is exact while the effective
        horizon never moves backwards: each admitted head arrived by the
        previous horizon, so the earliest head is never later than a
        pipeline horizon at or past it. A failed dispatch of a batch
        whose horizon had jumped ahead leaves the pipeline uncharged,
        behind that jump; then the index is rebuilt — every head goes
        back to the frontier and admission restarts from the exact
        earliest arrival.
        """
        if self._admitted and horizon_ms < self._horizon:
            self._rebuild()
        frontier = self._frontier
        if not self._admitted:
            while frontier and frontier[0][3].entry is not frontier[0]:
                heappop(frontier)
                self._stale -= 1
            if not frontier:
                return
            horizon_ms = max(horizon_ms, frontier[0][0])
        edf = self._edf
        admitted = 0
        while frontier and frontier[0][0] <= horizon_ms:
            entry = heappop(frontier)
            rec = entry[3]
            if rec.entry is not entry:
                self._stale -= 1
                continue
            head = entry[2]
            rec.entry = edf_entry = (
                head.deadline_ms, head.arrival_ms, head.seq, entry[1], rec,
            )
            rec.admitted = True
            admitted += 1
            heappush(edf, edf_entry)
        self._admitted += admitted
        self._horizon = horizon_ms

    def _rebuild(self) -> None:
        """Un-admit every head (exact fallback for a backwards horizon)."""
        frontier = []
        for rec in self._sessions.values():
            head = rec[0]
            rec.entry = (head.arrival_ms, self._key(head), head, rec)
            rec.admitted = False
            frontier.append(rec.entry)
        heapify(frontier)
        self._frontier = frontier
        self._edf = []
        self._stale = 0
        self._admitted = 0

    def pop_admitted(self) -> Optional["Ticket"]:
        """The next admitted head in EDF order, or None. The ticket
        stays queued: the caller hands it to :meth:`take` (it joins the
        batch) or :meth:`readmit` (it waits for a later batch)."""
        edf = self._edf
        while edf:
            entry = heappop(edf)
            rec = entry[4]
            if rec.entry is entry:
                rec.entry = None
                return rec[0]
            self._stale -= 1
        return None

    def readmit(self, ticket: "Ticket") -> None:
        """Return a head from :meth:`pop_admitted` to the EDF heap."""
        rec = self._sessions[ticket.session]
        rec.entry = entry = (
            ticket.deadline_ms, ticket.arrival_ms, ticket.seq,
            self._key(ticket), rec,
        )
        heappush(self._edf, entry)

    # -- rebalancer reads ---------------------------------------------------------

    def pick_session(self, target_tickets: int) -> Optional["TenantSession"]:
        """The queued session whose ticket count is the largest not
        above ``target_tickets`` (the lightest session when every count
        overshoots); ties go to the session whose head is queued first."""
        ranks = self._ranks
        if not ranks:
            return None
        i = bisect_right(ranks, ((target_tickets + 1) << _KEY_BITS) - 1)
        if i:
            count = ranks[i - 1] >> _KEY_BITS
            i = bisect_left(ranks, count << _KEY_BITS)
        return self._ranked[ranks[i]]


class ResidentSet:
    """The sessions placed on one device, in the server's open order.

    Entries are ``(rank, session)`` with ``rank`` the session's position
    in the server's open order, so a session migrated in keeps its
    original place among the residents rather than going to the end.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: list = []

    def add(self, session: "TenantSession") -> None:
        entries = self._entries
        if not entries or entries[-1][0] < session.open_rank:
            entries.append((session.open_rank, session))
        else:
            insort(entries, (session.open_rank, session))

    def discard(self, session: "TenantSession") -> None:
        entries = self._entries
        i = bisect_left(entries, (session.open_rank,))
        if i < len(entries) and entries[i][1] is session:
            del entries[i]

    def sessions(self) -> list["TenantSession"]:
        return [session for _, session in self._entries]

    def __len__(self) -> int:
        return len(self._entries)
