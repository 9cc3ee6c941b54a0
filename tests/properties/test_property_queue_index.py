"""Differential property: the indexed device queue against the deque walk.

:class:`~repro.serve.queue.DeviceQueue` replaced a plain deque that the
async batch former and the rebalancer rescanned on every call. The
deque-walk versions of ``Scheduler.form_batch_async`` and the
rebalancer's ``_pick_session`` are kept here, verbatim in behaviour, as
the reference. Hypothesis drives both sides through the same operation
sequences — appends and bare ``appendleft`` calls, batch formation (async and lockstep), quarantine
``appendleft`` after a batch-fatal failure, close and migration
(``remove_session``), and failover ``clear`` plus re-enqueue with the
replay suffix first — over bulk-carrier chunks mixed with deadline
tickets, a bounded command buffer, and pipelines that are sometimes left
uncharged by a failed dispatch (so the effective horizon can move
backwards). After every step both sides must hold the same tickets in
the same order, form identical batches, and pick identical sessions,
tie-breaks included.
"""

from __future__ import annotations

from collections import deque
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CuLiError
from repro.serve.queue import DeviceQueue
from repro.serve.scheduler import Scheduler
from repro.serve.session import TenantSession, Ticket
from repro.serve.stats import ServerStats

DEVICE = "dev#0"
#: Short and long texts, so a small command buffer splits batches.
TEXTS = ["1", "(+ 1 2)", "(car (quote (a b c)))", "(* 12345 67890 13579)"]


# -- the deque-walk references -----------------------------------------------------


def reference_form_batch_async(queue, horizon, capacity, max_batch):
    """The deque-walk async batch former the index replaced."""
    if not queue:
        return []
    heads = []
    seen = set()
    for ticket in queue:
        sid = ticket.session.session_id
        if sid in seen:
            continue
        seen.add(sid)
        heads.append(ticket)
    earliest = min(t.arrival_ms for t in heads)
    horizon = max(horizon, earliest)
    admissible = [t for t in heads if t.arrival_ms <= horizon]
    admissible.sort(key=lambda t: (t.deadline_ms, t.arrival_ms, t.seq))
    batch = []
    payload = 0
    has_deadline = False
    for ticket in admissible:
        if ticket.quarantined:
            if not batch:
                batch.append(ticket)
            break
        if ticket.session.bulk and has_deadline:
            continue
        size = Scheduler.payload_size(ticket.text)
        if capacity is not None and batch and payload + size > capacity:
            break
        payload += size
        batch.append(ticket)
        if ticket.deadline_ms != float("inf"):
            has_deadline = True
        if len(batch) >= max_batch:
            break
    chosen = set(map(id, batch))
    remaining = [t for t in queue if id(t) not in chosen]
    queue.clear()
    queue.extend(remaining)
    return batch


def reference_form_batch(queue, capacity, max_batch):
    """The popleft/appendleft lockstep walk."""
    batch = []
    in_batch = set()
    deferred = []
    payload = 0
    while queue and len(batch) < max_batch:
        ticket = queue.popleft()
        if ticket.quarantined:
            if batch:
                queue.appendleft(ticket)
            else:
                batch.append(ticket)
            break
        sid = ticket.session.session_id
        if sid in in_batch:
            deferred.append(ticket)
            continue
        size = Scheduler.payload_size(ticket.text)
        if capacity is not None and batch and payload + size > capacity:
            queue.appendleft(ticket)
            break
        in_batch.add(sid)
        payload += size
        batch.append(ticket)
    for ticket in reversed(deferred):
        queue.appendleft(ticket)
    return batch


def reference_pick_session(queue, target_tickets):
    """The queue-recounting ``Rebalancer._pick_session`` that
    ``DeviceQueue.pick_session`` replaced."""
    counts = {}
    for ticket in queue:
        counts[ticket.session] = counts.get(ticket.session, 0) + 1
    if not counts:
        return None
    fitting = [s for s, n in counts.items() if n <= target_tickets]
    if fitting:
        return max(fitting, key=lambda s: counts[s])
    return min(counts, key=lambda s: counts[s])


# -- the harness ---------------------------------------------------------------------


class Model:
    """One indexed queue and one reference deque fed the same tickets."""

    def __init__(self, n_sessions, capacity, max_batch):
        self.sessions = []
        for k in range(n_sessions):
            kind = k % 3  # interactive (SLO), best-effort, bulk carrier
            session = TenantSession(
                None, f"s{k}", DEVICE, None,
                slo_ms=(1.0 + k % 2) if kind == 0 else None,
            )
            session.bulk = kind == 2
            self.sessions.append(session)
        cmdbuf = SimpleNamespace(capacity=capacity) if capacity else None
        self.pdev = SimpleNamespace(
            device_id=DEVICE,
            queue=DeviceQueue(),
            device=SimpleNamespace(cmdbuf=cmdbuf),
        )
        self.ref = deque()
        self.capacity = capacity
        self.scheduler = Scheduler(None, max_batch=max_batch, mode="async")
        self.stats = ServerStats()
        self.stats.register_device(DEVICE, "dev", "gpu")
        self.pipe = self.scheduler.pipeline(DEVICE)
        self.last_batch = []

    def check(self):
        assert list(self.pdev.queue) == list(self.ref)
        assert len(self.pdev.queue) == len(self.ref)
        for target in range(1, 6):
            assert self.pdev.queue.pick_session(target) is (
                reference_pick_session(self.ref, target)
            )
        for session in self.sessions:
            assert self.pdev.queue.count(session) == sum(
                1 for t in self.ref if t.session is session
            )

    def append(self, k, text, arrival):
        ticket = Ticket(self.sessions[k], TEXTS[text], arrival_ms=arrival)
        self.pdev.queue.append(ticket)
        self.ref.append(ticket)

    def push_front(self, k, text, arrival):
        """A bare ``appendleft`` of a fresh ticket: it displaces its
        session's head even when that head is already admitted."""
        ticket = Ticket(self.sessions[k], TEXTS[text], arrival_ms=arrival)
        self.pdev.queue.appendleft(ticket)
        self.ref.appendleft(ticket)

    def form(self, charged, lockstep):
        horizon = self.pipe.horizon_ms
        if lockstep:
            got = self.scheduler.form_batch(self.pdev)
            want = reference_form_batch(
                self.ref, self.capacity, self.scheduler.max_batch
            )
        else:
            got = self.scheduler.form_batch_async(self.pdev)
            want = reference_form_batch_async(
                self.ref, horizon, self.capacity, self.scheduler.max_batch
            )
        assert got == want
        self.last_batch = got
        if got and charged:
            floor = max(t.arrival_ms for t in got)
            self.pipe.charge(floor, 0.25, 0.5 * len(got), 0.25)
        # Uncharged (a failed dispatch): the pipeline stays behind any
        # horizon jump this batch made.

    def quarantine(self):
        """The batch-fatal path: the last batch's tickets go back to the
        front for solo retries (or resolve poisoned)."""
        batch = [t for t in self.last_batch if not t.done]
        self.last_batch = []
        if not batch:
            return
        retried = [t for t in batch if len(batch) > 1 and not t.quarantined]
        self.scheduler._handle_fatal_batch(
            self.pdev, batch, CuLiError("batch-fatal"), self.stats
        )
        for ticket in reversed(retried):
            self.ref.appendleft(ticket)

    def remove(self, k, bounce):
        """Close (drop) or migrate out and back in (re-append in order)."""
        session = self.sessions[k]
        moved = self.pdev.queue.remove_session(session)
        want = [t for t in self.ref if t.session is session]
        assert moved == want
        self.ref = deque(t for t in self.ref if t.session is not session)
        if bounce:
            self.pdev.queue.extend(moved)
            self.ref.extend(moved)

    def failover(self, replay):
        """Clear, then re-enqueue per victim session: replay suffix,
        in-flight retry (quarantined), then its queued tickets."""
        queued = self.pdev.queue.clear()
        assert queued == list(self.ref)
        self.ref.clear()
        inflight = [t for t in self.last_batch if not t.done]
        self.last_batch = []
        for session in self.sessions:
            tickets = []
            for _ in range(replay):
                ticket = Ticket(session, TEXTS[0], arrival_ms=0.0)
                ticket.replay = True
                tickets.append(ticket)
            for ticket in inflight:
                if ticket.session is session:
                    ticket.quarantined = True
                    tickets.append(ticket)
            tickets += [t for t in queued if t.session is session]
            for ticket in tickets:
                self.pdev.queue.append(ticket)
                self.ref.append(ticket)


OPS = st.one_of(
    st.tuples(
        st.just("append"),
        st.integers(0, 5),
        st.integers(0, len(TEXTS) - 1),
        st.integers(0, 8).map(float),
    ),
    st.tuples(
        st.just("push_front"),
        st.integers(0, 5),
        st.integers(0, len(TEXTS) - 1),
        st.integers(0, 8).map(float),
    ),
    st.tuples(st.just("form"), st.booleans(), st.booleans()),
    st.tuples(st.just("form"), st.booleans(), st.just(False)),
    st.tuples(st.just("quarantine")),
    st.tuples(st.just("remove"), st.integers(0, 5), st.booleans()),
    st.tuples(st.just("failover"), st.integers(0, 2)),
)


def run(model, ops):
    for op in ops:
        name, args = op[0], op[1:]
        getattr(model, name)(*args)
        model.check()
    while model.ref:  # drain: the two must agree to the last batch
        model.form(True, False)
        model.check()


@settings(max_examples=300, deadline=None)
@given(
    ops=st.lists(OPS, max_size=60),
    capacity=st.sampled_from([None, 24, 40]),
    max_batch=st.integers(1, 4),
)
def test_index_matches_deque_walk(ops, capacity, max_batch):
    run(Model(6, capacity, max_batch), ops)


def test_backwards_horizon_rebuilds_exactly():
    """A horizon jump whose dispatch failed leaves the pipeline behind
    it. A head exposed afterwards that arrived earlier pulls the
    effective horizon back, and the index must forget what it admitted
    at the jump."""
    model = Model(6, 24, 2)
    model.append(0, 3, 5.0)  # s0: a long command at 5.0 ...
    model.append(0, 0, 1.0)  # ... then a short one that arrived at 1.0
    model.append(3, 3, 5.0)  # s3: a long command at 5.0
    model.append(1, 0, 3.0)
    model.form(False, False)  # horizon jumps to 3.0: s1; not charged
    # The horizon jumps to 5.0: s0 goes first (EDF); s3 does not fit the
    # command buffer beside it and stays admitted. Not charged either.
    model.form(False, False)
    assert [t.session.session_id for t in model.last_batch] == ["s0"]
    assert model.pipe.horizon_ms < 5.0
    # s0's next head arrived at 1.0, so the effective horizon is 1.0:
    # s3 (arrived 5.0) is no longer admissible, though it would fit.
    model.form(False, False)
    assert [t.session.session_id for t in model.last_batch] == ["s0"]
    model.check()
    run(model, [])


def test_appendleft_over_an_admitted_head():
    """An ``appendleft`` that displaces an already admitted head takes
    it out of the admitted count: with nothing admitted left, the next
    batch must jump the horizon to the new head's arrival."""
    model = Model(6, None, 1)
    model.append(1, 0, 0.0)  # best effort
    model.append(0, 0, 0.0)  # interactive: EDF first
    model.form(False, False)
    assert [t.session.session_id for t in model.last_batch] == ["s0"]
    model.push_front(1, 0, 10.0)  # displaces s1's admitted head
    model.form(False, False)
    assert [t.arrival_ms for t in model.last_batch] == [10.0]
    model.check()
    run(model, [])
