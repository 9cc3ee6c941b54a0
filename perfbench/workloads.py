"""The four benchmark workloads.

Each workload makes its inputs from a seed when it is constructed
(input generation is the benchmark's work, not the program's), then
repeats one *rep* as often as the run's time allows:

* ``setup()`` builds the program's state before the first measured
  request (servers, calibration, warm-up state) and is timed as set-up;
* ``serve(state)`` sends every request, lets the program resolve them,
  and returns a :class:`Served` record. Its host wall time is the
  measured window.

Every rep of a run sends the same inputs, so every rep must produce the
same outputs and the same modeled numbers; ``run.py`` checks that.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro import CuLiServer
from repro.bench.claims import check_all_claims
from repro.bench.harness import PAPER_DEVICE_ORDER, SweepPoint
from repro.cpu.device import CPUDeviceConfig
from repro.errors import AdmissionError, LispError
from repro.gpu.device import GPUDeviceConfig
from repro.runtime.fidelity import Fidelity
from repro.runtime.session import CuLiSession
from repro.runtime.workloads import FIB_DEFUN, THREAD_SWEEP

from reference import (
    Tenant,
    cheap_form,
    error_form,
    expected,
    heavy_form,
    stateful_form,
)

#: Latency limit of every interactive request, in modeled ms.
SLO_MS = 5.0


@dataclass
class Served:
    """What one rep did, as seen from outside the program."""

    attempted: int = 0
    completed: int = 0
    failed: int = 0
    mismatches: list = field(default_factory=list)
    #: Arrival-to-resolve time of each interactive request (modeled ms);
    #: a failed or refused request is recorded as ``inf`` (an SLO miss).
    latencies: list = field(default_factory=list)
    #: Modeled time from the start of the rep until 99% of its requests
    #: had resolved. (The plain makespan rests on a single straggler.)
    span_ms: float = 0.0
    outputs: list = field(default_factory=list)
    #: Modeled figures and program counters read after the rep.
    counters: dict = field(default_factory=dict)


def grade(served: Served, ticket, want: tuple, label: str) -> None:
    """Compare one ticket with its reference result."""
    served.completed += 1
    if not ticket.done:
        served.failed += 1
        return
    ok, text = want
    err = ticket.error
    output = ticket.output
    served.outputs.append(output)
    if err is not None and not isinstance(err, LispError):
        served.failed += 1  # poisoned, cancelled or device-faulted
    elif ok and err is None and output == text:
        pass
    elif not ok and err is not None and text in output:
        pass
    else:
        served.mismatches.append(f"{label}: got {output!r}, want {want!r}")


def completion_span(resolves: list, start: float = 0.0) -> float:
    """The p99 of the requests' resolve times, measured from ``start``."""
    return percentile([t - start for t in resolves], 0.99)


def _interactive_latency(ticket, failed: bool) -> float:
    if failed or not ticket.done or ticket.resolve_ms is None:
        return float("inf")
    return ticket.resolve_ms - ticket.arrival_ms


def server_counters(servers) -> dict:
    """Program counters and timeline gauges summed over ``servers``."""
    out: dict = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    utils = []
    for server in servers:
        st = server.stats
        add("admission.refused", st.requests_rejected)
        add("rebalancer.migrations", st.sessions_migrated)
        add("checkpoint.shipped", st.checkpoints_shipped)
        add("checkpoint.skipped", st.checkpoints_skipped)
        add("checkpoint.bytes", st.checkpoint_bytes)
        add("failover.recovered", st.sessions_recovered)
        add("failover.replayed", st.requests_replayed)
        add("bulk.chunks", st.bulk_chunks)
        add("gc.major_collections", st.gc_major_collections)
        add("gc.regions_reset", st.gc_regions_reset)
        add("jit.traces_compiled", st.jit_traces_compiled)
        add("jit.trace_hits", st.jit_trace_hits)
        add("jit.guard_bails", st.jit_guard_bails)
        for pipe in server.scheduler.pipelines.values():
            add("pipeline.overlap_ms", pipe.overlap_ms)
            utils.append(pipe.utilization)
    out["pipeline.util_spread"] = max(utils) - min(utils) if utils else 0.0
    return out


def open_loop_arrivals(
    rng: random.Random, n: int, duration_ms: float, burst: int
) -> list[float]:
    """Bursty on/off arrival times for one tenant's ``n`` requests."""
    bursts = max(1, n // burst)
    mean_gap = duration_ms / bursts
    t = rng.uniform(0.0, mean_gap)
    out = []
    while len(out) < n:
        for _ in range(min(burst, n - len(out))):
            out.append(round(t, 4))
            t += rng.uniform(0.0, 0.05)
        t += rng.expovariate(1.0 / mean_gap)
    return out


# -- fleet-zipf-10k ------------------------------------------------------------------


class FleetZipf:
    """10k Zipf tenants, 12k open-loop requests on a mixed fleet."""

    name = "fleet-zipf-10k"
    DEVICES = ["gtx1080", "gtx1080", "tesla-v100", "intel-e5-2620"]
    TENANTS = 10_000
    REQUESTS = 12_000
    DURATION_MS = 5.0
    ZIPF_EXPONENT = 1.1
    #: No tenant gets more than this share of the requests.
    HEAD_CAP = 0.02
    INTERACTIVE_SHARE = 0.5
    HEAVY_SHARE = 0.15
    STATEFUL_SHARE = 0.3
    ERROR_SHARE = 0.02

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        counts = self._counts(rng)
        #: The tail tenants (one or two requests each) are interactive;
        #: the Zipf head sends bulk streams with no SLO.
        self.first_interactive = self.TENANTS - round(self.TENANTS * self.INTERACTIVE_SHARE)
        trace = []
        for tenant, n in enumerate(counts):
            ref = Tenant()
            interactive = tenant >= self.first_interactive
            times = open_loop_arrivals(
                rng, n, self.DURATION_MS, 2 if interactive else 4
            )
            for t in times:
                draw = rng.random()
                if draw < self.ERROR_SHARE:
                    text = error_form(rng)
                elif n > 1 and draw < self.ERROR_SHARE + self.STATEFUL_SHARE:
                    text = stateful_form(rng, ref, "v")
                elif not interactive and rng.random() < self.HEAVY_SHARE:
                    text = heavy_form(rng, rng.randint(8, 24))
                else:
                    text = cheap_form(rng)
                trace.append((t, tenant, text, expected(ref, text)))
        trace.sort(key=lambda r: (r[0], r[1]))
        self.trace = trace

    def _counts(self, rng: random.Random) -> list[int]:
        """One request per tenant, the rest drawn from Zipf weights
        with the head clamped at ``HEAD_CAP`` of the requests."""
        weights = [1.0 / (t + 1) ** self.ZIPF_EXPONENT for t in range(self.TENANTS)]
        cap = round(self.HEAD_CAP * self.REQUESTS)
        counts = [1] * self.TENANTS
        extra = self.REQUESTS - self.TENANTS
        while extra:
            for t in rng.choices(range(self.TENANTS), weights, k=extra):
                if extra and counts[t] < cap:
                    counts[t] += 1
                    extra -= 1
        return counts

    def setup(self):
        return CuLiServer(
            devices=list(self.DEVICES),
            placement="cost",
            rebalance=True,
            max_session_queue=512,
        )

    def serve(self, server) -> Served:
        served = Served()
        sessions = {}
        sent = []
        for arrival, tenant, text, want in self.trace:
            session = sessions.get(tenant)
            if session is None:
                interactive = tenant >= self.first_interactive
                session = sessions[tenant] = server.open_session(
                    name=f"t{tenant}", slo_ms=SLO_MS if interactive else None
                )
            served.attempted += 1
            try:
                sent.append((session.submit(text, arrival_ms=arrival), tenant, want))
            except AdmissionError:
                served.failed += 1
                if tenant >= self.first_interactive:
                    served.latencies.append(float("inf"))
        server.flush()
        for ticket, tenant, want in sent:
            failed0 = served.failed
            grade(served, ticket, want, f"tenant {tenant} {ticket.text}")
            if tenant >= self.first_interactive:
                served.latencies.append(
                    _interactive_latency(ticket, served.failed > failed0)
                )
        served.span_ms = completion_span([t.resolve_ms for t, _, _ in sent])
        served.counters = server_counters([server])
        return served

    def close(self, server) -> None:
        server.close()


# -- hot-repl-jit --------------------------------------------------------------------


def _wide(head: str, terms: list[str]) -> str:
    return f"({head} " + " ".join(terms) + ")"


class HotReplJit:
    """16 closed-loop REPL tenants re-issuing cache-hot forms."""

    name = "hot-repl-jit"
    DEVICE = "gtx1080"
    TENANTS = 16
    ROUNDS = 80
    #: Each tenant redefines ``scale`` every this many rounds.
    REDEFINE_EVERY = 10
    #: Closed loop: a tenant sends its next command this long (uniform
    #: in 0..THINK_MS) after its previous one resolved.
    THINK_MS = 0.2
    #: Wide literal sums: width and how many are sent per rep.
    WIDE_WIDTH = 128
    WIDE_REQUESTS = 16
    WARMUP = [
        "(setq acc 1 step 3 base 7 bias 11)",
        "(defun scale (x) (+ (* x 3) 1))",
    ]

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        hot = [
            _wide("+", ["acc", "step", "base", "bias"]
                  + [f"(* base {k})" for k in range(1, 17)]),
            "(if (> acc 100000) (setq acc (- acc 100000)) (setq acc "
            + _wide("+", ["acc", "bias"] + [f"(* step base {k})" for k in range(1, 25)])
            + "))",
            _wide("+", ["acc", "(scale step)", "(scale base)", "(scale bias)"]),
            "(setq step (if (> step 40) 3 (+ step 1)))",
        ]
        hot += [
            heavy_form(rng, 16, leaf=rng.choice(["step", "base", "bias"]))
            for _ in range(2)
        ]
        redefine = [
            "(defun scale (x) (+ (* x 5) 2))",
            "(defun scale (x) (+ (* x 3) 1))",
        ]
        wide = "(+ " + " ".join(
            str(rng.randint(1, 999)) for _ in range(self.WIDE_WIDTH)
        ) + ")"
        #: Sent once by a separate session during set-up, so the parse
        #: cache is hot when the measured rounds start; the wide literal
        #: still turns JIT-hot only in the measured rounds.
        self.cache_warmup = hot + redefine + [wide]
        # At most one wide literal per round, so no round stacks them.
        wide_slots = {
            r * self.TENANTS + rng.randrange(self.TENANTS)
            for r in rng.sample(range(self.ROUNDS), self.WIDE_REQUESTS)
        }
        refs = [Tenant() for _ in range(self.TENANTS)]
        for ref in refs:
            for text in self.WARMUP:
                expected(ref, text)
        self.rounds = []
        for r in range(self.ROUNDS):
            commands = []
            for k, ref in enumerate(refs):
                if r * self.TENANTS + k in wide_slots:
                    text = wide
                elif (r + k) % self.REDEFINE_EVERY == self.REDEFINE_EVERY - 1:
                    text = redefine[(r + k) // self.REDEFINE_EVERY % 2]
                else:
                    text = rng.choice(hot)
                think = rng.uniform(0.0, self.THINK_MS)
                commands.append((text, expected(ref, text), think))
            self.rounds.append(commands)

    def setup(self):
        server = CuLiServer(devices=[self.DEVICE], max_batch=self.TENANTS, jit=True)
        tenants = [server.open_session(slo_ms=SLO_MS) for _ in range(self.TENANTS)]
        for tenant in tenants:
            for text in self.WARMUP:
                tenant.submit(text)
        warmup = server.open_session(name="warmup")
        for text in self.WARMUP + self.cache_warmup:
            warmup.submit(text)
        server.flush()
        return server, tenants

    def serve(self, state) -> Served:
        server, tenants = state
        served = Served()
        start = server.scheduler.now_ms
        last = [start] * len(tenants)
        resolves = []
        for r, commands in enumerate(self.rounds):
            # One command in flight per tenant, so admission never refuses.
            sent = [
                (tenant.submit(text, arrival_ms=last[k] + think), want)
                for k, (tenant, (text, want, think)) in enumerate(zip(tenants, commands))
            ]
            served.attempted += len(sent)
            server.flush()
            for k, (ticket, want) in enumerate(sent):
                failed0 = served.failed
                grade(served, ticket, want, f"round {r} {ticket.text[:60]}")
                served.latencies.append(
                    _interactive_latency(ticket, served.failed > failed0)
                )
                resolves.append(ticket.resolve_ms)
                last[k] = ticket.resolve_ms
        served.span_ms = completion_span(resolves, start)
        served.counters = server_counters([server])
        return served

    def close(self, state) -> None:
        state[0].close()


# -- bulk-failover -------------------------------------------------------------------


class BulkFailover:
    """Stateful interactive tenants beside a sharded ``gpu-map`` on
    4x gtx1080, one device killed mid-phase, at three fixed rates."""

    name = "bulk-failover"
    DEVICES = ["gtx1080"] * 4
    TENANTS = 12
    #: Interactive arrival rates of the three phases, requests/s.
    RATES_RPS = (60_000, 120_000, 300_000)
    #: Interactive requests per phase (the same at every rate, so no
    #: rate dominates the pooled latency figures).
    PHASE_REQUESTS = 4000
    BULK_ELEMS = 512
    CHUNK_ELEMS = 32
    MAX_BATCH = 8
    ERROR_SHARE = 0.02

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.phases = []
        for rate in self.RATES_RPS:
            refs = [Tenant() for _ in range(self.TENANTS)]
            half_ms = self.PHASE_REQUESTS / rate * 1000.0 / 2
            t = 0.0
            requests = []
            for _ in range(self.PHASE_REQUESTS):
                t += rng.expovariate(rate / 1000.0)
                k = rng.randrange(self.TENANTS)
                if rng.random() < self.ERROR_SHARE:
                    text = error_form(rng)
                else:
                    text = stateful_form(rng, refs[k], rng.choice(["a", "b"]))
                requests.append((round(t, 4), k, text, expected(refs[k], text)))
            c = rng.randint(1, 9)
            fn = f"(lambda (x) (+ (* x x) {c}))"
            jobs = []
            for start in (0.0, half_ms):
                elems = [rng.randint(1, 99) for _ in range(self.BULK_ELEMS)]
                want = "(" + " ".join(str(x * x + c) for x in elems) + ")"
                jobs.append((start, elems, want))
            self.phases.append(
                {
                    "rate": rate,
                    "requests": requests,
                    "fn": fn,
                    "jobs": jobs,
                    "kill": rng.randrange(len(self.DEVICES)),
                    "half_ms": half_ms,
                }
            )

    def _server(self):
        return CuLiServer(
            devices=list(self.DEVICES),
            max_batch=self.MAX_BATCH,
            failover=True,
            scheduler="async",
            # Every arrival of a phase is queued before the drain, so
            # the per-session cap must hold a whole phase.
            max_session_queue=1024,
        )

    def setup(self):
        return [self._server() for _ in self.phases]

    def serve(self, servers) -> Served:
        served = Served()
        per_rate = []
        spans = []
        for phase, server in zip(self.phases, servers):
            failed0 = served.failed
            sessions = {}
            sent = []
            jobs = []
            half = phase["half_ms"]
            parts = (
                [r for r in phase["requests"] if r[0] < half],
                [r for r in phase["requests"] if r[0] >= half],
            )
            for i, (part, (start, elems, want)) in enumerate(zip(parts, phase["jobs"])):
                if i:
                    server.flush()
                jobs.append(
                    (server.submit_bulk(phase["fn"], elems,
                                        chunk_elems=self.CHUNK_ELEMS,
                                        arrival_ms=start), want)
                )
                for arrival, k, text, ref in part:
                    session = sessions.get(k)
                    if session is None:
                        session = sessions[k] = server.open_session(
                            name=f"i{k}", slo_ms=SLO_MS
                        )
                    served.attempted += 1
                    sent.append((session.submit(text, arrival_ms=arrival), k, ref))
            # Mid-phase: the second half is queued when the device dies.
            device_id = list(server.pool.devices)[phase["kill"]]
            server.supervisor.kill_device(device_id, reason="benchmark kill")
            server.flush()
            waits = []
            for ticket, k, ref in sent:
                before = served.failed
                grade(served, ticket, ref, f"rate {phase['rate']} tenant {k} {ticket.text}")
                waits.append(_interactive_latency(ticket, served.failed > before))
            served.latencies.extend(waits)
            for job, want in jobs:
                served.attempted += len(job.chunks)
                served.completed += len(job.chunks)
                out = job.result()
                served.outputs.append(out)
                if out != want:
                    served.mismatches.append(
                        f"gpu-map at rate {phase['rate']}: got {out[:80]!r}..."
                    )
                first_arrival = min(c.ticket.arrival_ms for c in job.chunks)
                last_resolve = max(c.ticket.resolve_ms for c in job.chunks)
                spans.append(last_resolve - first_arrival)
            served.span_ms += completion_span(
                [t.resolve_ms for t, _, _ in sent]
                + [c.ticket.resolve_ms for job, _ in jobs for c in job.chunks]
            )
            # ``sent`` is in arrival order, so the last quarter of
            # ``waits`` is the last quarter of the phase's arrivals.
            growing = percentile(waits[3 * len(waits) // 4:], 0.5) > SLO_MS
            per_rate.append(
                (phase["rate"], percentile(waits, 0.99),
                 served.failed - failed0, growing)
            )
        served.counters = server_counters(servers)
        served.counters["bulk.elements"] = 2 * self.BULK_ELEMS * len(self.phases)
        served.counters["bulk.span_ms"] = sum(spans)
        served.counters["per_rate"] = per_rate
        return served

    def close(self, servers) -> None:
        for server in servers:
            server.close()


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failures) sort last."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) - 1e-9)
    return ordered[min(len(ordered), max(1, rank)) - 1]


# -- paper-fib-sweep -----------------------------------------------------------------


class PaperFibSweep:
    """The paper's section IV sweep in the literal paper mode."""

    name = "paper-fib-sweep"
    FIB_N = 5

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        #: Each device visits the paper's thread counts in a seeded order
        #: (the REPL keeps state between inputs, so the order is an input).
        self.orders = {}
        for device in PAPER_DEVICE_ORDER:
            counts = list(THREAD_SWEEP)
            rng.shuffle(counts)
            self.orders[device] = counts
        a, b = 0, 1
        for _ in range(self.FIB_N):
            a, b = a + b, a
        self.fib = a

    def setup(self):
        sessions = {}
        for device in PAPER_DEVICE_ORDER:
            session = CuLiSession(
                device,
                gpu_config=GPUDeviceConfig(fidelity=Fidelity.WARP),
                cpu_config=CPUDeviceConfig(fidelity=Fidelity.WARP),
            )
            session.eval(FIB_DEFUN)
            sessions[device] = session
        return sessions

    def serve(self, sessions) -> Served:
        served = Served()
        sweep = {}
        base = {}
        busy = []
        for device, session in sessions.items():
            base[device] = session.base_latency_ms
            points = []
            for n in self.orders[device]:
                text = f"(||| {n} fib (" + " ".join([str(self.FIB_N)] * n) + "))"
                served.attempted += 1
                stats = session.submit(text)
                served.completed += 1
                want = "(" + " ".join([str(self.fib)] * n) + ")"
                served.outputs.append(stats.output)
                if stats.output != want:
                    served.mismatches.append(
                        f"{device} x{n}: got {stats.output[:40]!r}..."
                    )
                points.append(SweepPoint(device, session.device.kind, n, stats, base[device]))
                # Each of the launch's n worker jobs waits for the launch.
                served.latencies.extend([stats.times.total_ms] * n)
                busy.append(stats.times.total_ms)
            points.sort(key=lambda p: p.threads)
            sweep[device] = points
        claims = check_all_claims(base, sweep)
        # A launch occupies its device alone and nothing queues, so the
        # span is the launches' summed modeled time.
        served.span_ms = sum(busy)
        served.counters = {
            "claims_passed": sum(1 for c in claims if c.passed),
            "claims_failed": [c.claim_id for c in claims if not c.passed],
        }
        return served

    def close(self, sessions) -> None:
        for session in sessions.values():
            session.close()


WORKLOADS = {w.name: w for w in (FleetZipf, HotReplJit, BulkFailover, PaperFibSweep)}

__all__ = ["WORKLOADS", "Served", "SLO_MS", "percentile"]
