"""Serving metrics: throughput, latency phases, queue depth, utilization.

All times are *simulated* device milliseconds (the paper's quantities),
not simulator wall time. Devices in a pool run concurrently, so the
server's simulated makespan is the busiest device's busy time; per-device
utilization is measured against that makespan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple, Union

from ..timing import PhaseBreakdown

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.batch import BatchResult

__all__ = [
    "COUNTERS",
    "Counter",
    "DeviceStats",
    "LatencyReservoir",
    "MigrationRecord",
    "ServerStats",
]


class LatencyReservoir:
    """Bounded sample of per-request enqueue->resolve latencies.

    Keeps at most ``capacity`` samples via Algorithm R (uniform
    reservoir sampling) so a million-request run costs O(capacity)
    memory while p50/p95/p99 stay statistically faithful. The
    replacement PRNG is seeded, so percentile figures are reproducible
    run to run — the same determinism contract as the rest of the
    modeled metrics. Exact count/mean/max are tracked over *all*
    samples, not just the retained ones.
    """

    def __init__(self, capacity: int = 2048, seed: int = 0x51A7) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.count = 0
        self.sum = 0.0
        self.max = 0.0
        self._samples: list[float] = []
        self._rng = random.Random(seed)

    def record(self, latency_ms: float) -> None:
        self.count += 1
        self.sum += latency_ms
        if latency_ms > self.max:
            self.max = latency_ms
        if len(self._samples) < self.capacity:
            self._samples.append(latency_ms)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.capacity:
                self._samples[slot] = latency_ms

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The q-th percentile (0..100) by nearest-rank over the sample."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1)))))
        return ordered[rank]

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "mean_ms": self.mean,
            "p50_ms": self.percentile(50),
            "p95_ms": self.percentile(95),
            "p99_ms": self.percentile(99),
            "max_ms": self.max,
        }


@dataclass
class DeviceStats:
    """Accumulated serving counters for one pooled device."""

    device_id: str
    name: str
    kind: str
    capability_ms: float = 0.0  #: calibrated modeled ms per probe request
    busy_ms: float = 0.0     #: simulated time spent executing batches
    batches: int = 0
    requests: int = 0
    jobs: int = 0            #: worker jobs (service + nested ``|||``)
    rounds: int = 0          #: shared distribution rounds
    faults: int = 0          #: device faults (contained + batch-fatal)
    migrations_in: int = 0   #: sessions restored onto this device
    migrations_out: int = 0  #: sessions snapshotted off this device
    # Failover/availability accounting (device-loss supervisor PR):
    losses: int = 0          #: times this device crashed or hung
    hangs: int = 0           #: the subset of losses that were hangs
    recoveries_in: int = 0   #: victim sessions rebuilt onto this device
    rounds_total: int = 0    #: supervisor rounds this device existed for
    rounds_up: int = 0       #: ... of which it was serviceable

    @property
    def uptime(self) -> float:
        """Share of supervised rounds this device was serviceable
        (1.0 when no supervisor ran — nothing ever took it down)."""
        if self.rounds_total == 0:
            return 1.0
        return self.rounds_up / self.rounds_total

    def snapshot(self, utilization: float) -> dict:
        """The device's ``ServerStats.snapshot()["devices"]`` entry: every
        field but the id and the raw uptime tallies, then the ratios."""
        entry = {
            key: value
            for key, value in vars(self).items()
            if key not in ("device_id", "rounds_total", "rounds_up")
        }
        entry["uptime"] = self.uptime
        entry["utilization"] = utilization
        return entry


@dataclass
class MigrationRecord:
    """One completed session migration (what ``migrate()`` returns)."""

    session_id: str
    source: str              #: device_id the heap was serialized off
    dest: str                #: device_id the heap was restored onto
    nodes: int               #: heap nodes carried by the snapshot
    nbytes: int              #: snapshot wire size
    transfer_ms: float       #: modeled host<->device time (both links)


class Counter(NamedTuple):
    """One cumulative server counter (a row of :data:`COUNTERS`)."""

    group: str               #: ``snapshot()`` group it is reported under
    key: str                 #: its key within that group
    attr: str                #: the ``ServerStats`` attribute holding it
    zero: Union[int, float]  #: its initial value (and JSON type)
    help: str                #: what it counts


#: Every cumulative server counter, declared once: ``ServerStats`` sets
#: each ``attr`` to its ``zero`` and ``snapshot()`` reports it as
#: ``snapshot()[group][key]``. An event that touches one counter
#: increments the attribute where it happens; one that updates several
#: counters, a device's totals or the phase totals has a ``record_*``.
COUNTERS = tuple(Counter(*row) for row in (
    # -- requests ------------------------------------------------------------
    ("requests", "enqueued", "requests_enqueued", 0,
     "tickets enqueued: tenant submissions and failover replays"),
    ("requests", "completed", "requests_completed", 0,
     "tickets served, with a result or a (poisoned) error"),
    ("requests", "cancelled", "requests_cancelled", 0,
     "queued tickets cancelled by a session close; every enqueued ticket ends up "
     "completed, cancelled or still pending, never lost"),
    ("requests", "rejected", "requests_rejected", 0,
     "submissions refused by admission control (the per-tenant queue cap), never "
     "enqueued"),
    ("requests", "errors", "errors", 0,
     "completed tickets that resolved with an error"),
    # -- fault isolation -----------------------------------------------------
    ("faults", "contained", "faults_contained", 0,
     "device faults contained to their own request"),
    ("faults", "batch_fatal", "faults_batch_fatal", 0,
     "batch transactions aborted by a device-fatal error"),
    ("faults", "quarantine_retries", "quarantine_retries", 0,
     "tickets requeued for a solo retry after a batch-fatal abort"),
    ("faults", "poisoned", "poisoned_requests", 0,
     "tickets resolved with a batch-fatal error (poison requests)"),
    # -- batches -------------------------------------------------------------
    ("batches", "count", "batches", 0, "batches that completed"),
    ("batches", "max_size", "batch_size_max", 0, "largest completed batch, in tickets"),
    # -- garbage collection --------------------------------------------------
    ("gc", "nodes_freed", "gc_nodes_freed", 0, "heap nodes reclaimed"),
    ("gc", "regions_reset", "gc_regions_reset", 0, "nursery regions reset"),
    ("gc", "major_collections", "gc_major_collections", 0, "full mark-sweep passes"),
    ("gc", "wall_ms", "gc_wall_ms", 0.0,
     "simulator wall time spent collecting (modeled: phase_totals.gc_ms)"),
    # -- JIT trace tier ------------------------------------------------------
    ("jit", "traces_compiled", "jit_traces_compiled", 0,
     "cache-hot texts compiled to traces"),
    ("jit", "trace_hits", "jit_trace_hits", 0, "forms executed as traces"),
    ("jit", "guard_bails", "jit_guard_bails", 0,
     "trace runs that bailed to the tree-walker on a stale guard"),
    # -- bulk gpu-map jobs ---------------------------------------------------
    ("bulk", "jobs", "bulk_jobs", 0, "jobs sharded across the fleet"),
    ("bulk", "chunks", "bulk_chunks", 0, "chunk tickets the jobs fanned out to"),
    ("bulk", "elements", "bulk_elements", 0, "list elements the chunks carried"),
    ("bulk", "jobs_gathered", "bulk_jobs_gathered", 0,
     "jobs gathered back in element order"),
    ("bulk", "chunk_errors", "bulk_chunk_errors", 0,
     "gathered chunks that resolved with a contained error"),
    # -- elastic rebalancing -------------------------------------------------
    ("rebalance", "migrations", "sessions_migrated", 0,
     "session heaps moved between devices"),
    ("rebalance", "nodes_moved", "migration_nodes", 0, "heap nodes the moves carried"),
    ("rebalance", "bytes_moved", "migration_bytes", 0,
     "snapshot wire bytes of the moves"),
    ("rebalance", "transfer_ms", "migration_transfer_ms", 0.0,
     "modeled transfer time of the moves (both links)"),
    ("rebalance", "devices_drained", "devices_drained", 0,
     "devices drained after repeated faults (sessions migrate off)"),
    ("rebalance", "sessions_restored", "sessions_restored", 0,
     "sessions rebuilt from a saved fleet snapshot (restart)"),
    # -- failover ------------------------------------------------------------
    ("failover", "devices_lost", "devices_lost", 0,
     "devices that crashed or hung past the watchdog"),
    ("failover", "device_hangs", "device_hangs", 0,
     "the subset of losses that were hangs"),
    ("failover", "sessions_recovered", "sessions_recovered", 0,
     "victim sessions rebuilt from their checkpoints"),
    ("failover", "requests_replayed", "requests_replayed", 0,
     "replay tickets served (the suffix re-executed in recovery)"),
    ("failover", "rpo_max_rounds", "rpo_rounds_max", 0,
     "most suffix rounds replayed for one recovered session"),
    ("failover", "checkpoints_shipped", "checkpoints_shipped", 0,
     "session checkpoints shipped device->host"),
    ("failover", "checkpoints_skipped", "checkpoints_skipped", 0,
     "due checkpoints whose digest matched the stored one: the suffix log reset for "
     "free"),
    ("failover", "checkpoint_bytes", "checkpoint_bytes", 0,
     "wire bytes of the shipped checkpoints"),
    ("failover", "checkpoint_transfer_ms", "checkpoint_transfer_ms", 0.0,
     "their modeled transfer time"),
    ("failover", "restore_bytes", "failover_restore_bytes", 0,
     "checkpoint bytes restored host->device"),
    ("failover", "restore_transfer_ms", "failover_restore_ms", 0.0,
     "their modeled transfer time"),
    ("failover", "breaker_opens", "breaker_opens", 0,
     "device circuit breakers tripped open"),
    ("failover", "probes_sent", "probes_sent", 0,
     "half-open probe batches sent to recovering devices"),
    ("failover", "probes_ok", "probes_ok", 0,
     "probes that succeeded (their breaker closed)"),
    ("failover", "devices_evicted", "devices_evicted", 0,
     "permanently flapping devices removed from the pool"),
))


class ServerStats:
    """The server-wide metrics surface: every :data:`COUNTERS` attribute,
    ``phase_totals`` (every batch's :class:`PhaseBreakdown` merged — the
    paper's per-command phase split, for the whole serving run), the
    latency reservoir, per-device totals and three live gauges."""

    def __init__(self) -> None:
        for counter in COUNTERS:
            setattr(self, counter.attr, counter.zero)
        # Accumulators behind the derived ``batches.mean_size`` and
        # ``failover.rpo_mean_rounds`` entries.
        self.batch_size_sum = 0
        self.rpo_rounds_sum = 0
        self.phase_totals = PhaseBreakdown()
        #: Enqueue->resolve latency of every tenant request, recorded by
        #: the scheduler when the ticket resolves (replay tickets and
        #: close-time cancellations excluded — no tenant was waiting).
        self.latency = LatencyReservoir()
        self.per_device: dict[str, DeviceStats] = {}
        #: Live gauges: the server installs the queue-depth and
        #: scheduler-timeline ones, the supervisor the breaker states.
        self.queue_depths: Callable[[], dict[str, int]] = dict
        self.scheduler_state: Callable[[], dict] = dict
        self.breaker_states: Callable[[], dict[str, str]] = dict

    # -- recording ----------------------------------------------------------------

    def register_device(
        self, device_id: str, name: str, kind: str, capability_ms: float = 0.0
    ) -> None:
        self.per_device[device_id] = DeviceStats(device_id, name, kind, capability_ms)

    def record_batch(self, device_id: str, result: "BatchResult") -> None:
        self.batches += 1
        self.batch_size_sum += result.size
        self.batch_size_max = max(self.batch_size_max, result.size)
        self.requests_completed += result.size
        self.errors += len(result.errors)
        n_faults = len(result.faults)
        self.faults_contained += n_faults
        self.phase_totals = self.phase_totals.merged_with(result.times)
        self.gc_nodes_freed += result.nodes_freed
        self.gc_regions_reset += result.regions_reset
        self.gc_major_collections += result.major_collections
        self.gc_wall_ms += result.gc_wall_ms
        self.jit_traces_compiled += result.traces_compiled
        self.jit_trace_hits += result.trace_hits
        self.jit_guard_bails += result.guard_bails
        dstats = self.per_device[device_id]
        dstats.busy_ms += result.times.total_ms
        dstats.batches += 1
        dstats.requests += result.size
        dstats.jobs += result.jobs
        dstats.rounds += result.rounds
        dstats.faults += n_faults

    def record_batch_fatal(self, device_id: str) -> None:
        """A whole batch transaction aborted on a device-fatal error."""
        self.faults_batch_fatal += 1
        self.per_device[device_id].faults += 1

    def record_migration(
        self, record: MigrationRecord, source_ms: float, dest_ms: float
    ) -> None:
        """One session heap moved between devices.

        The snapshot's wire crossing is modeled work on *both* ends:
        ``source_ms`` (serialize-out over the source's link) joins the
        source device's busy time, ``dest_ms`` the destination's, and
        the sum lands in ``phase_totals.transfer_ms`` — so rebalancing
        is never free in the makespan it is trying to shrink.
        """
        self.sessions_migrated += 1
        self.migration_nodes += record.nodes
        self.migration_bytes += record.nbytes
        self.migration_transfer_ms += record.transfer_ms
        self.phase_totals = self.phase_totals.merged_with(
            PhaseBreakdown(transfer_ms=record.transfer_ms)
        )
        src = self.per_device[record.source]
        src.busy_ms += source_ms
        src.migrations_out += 1
        dst = self.per_device[record.dest]
        dst.busy_ms += dest_ms
        dst.migrations_in += 1

    def record_poisoned(self, device_id: str, n: int) -> None:
        """Tickets resolved with a batch-fatal error (poison requests).

        They *were* served — with an error — so they count as completed
        (and as errors): the enqueued/completed/cancelled balance holds.
        """
        self.poisoned_requests += n
        self.requests_completed += n
        self.errors += n
        self.per_device[device_id].requests += n

    # -- failover recording (device-loss supervisor) -------------------------------

    def record_device_lost(
        self, device_id: str, hang: bool = False, detect_ms: float = 0.0
    ) -> None:
        """A whole device crashed (or hung past the watchdog deadline).

        ``detect_ms`` is the modeled time the watchdog spent waiting the
        hang out before force-resetting — real makespan the fleet lost,
        charged to the device like any busy time.
        """
        self.devices_lost += 1
        dstats = self.per_device[device_id]
        dstats.losses += 1
        dstats.faults += 1
        if hang:
            self.device_hangs += 1
            dstats.hangs += 1
        dstats.busy_ms += detect_ms
        if detect_ms > 0.0:
            self.phase_totals = self.phase_totals.merged_with(
                PhaseBreakdown(other_ms=detect_ms)
            )

    def record_session_recovered(self, dest_device_id: str, rpo_rounds: int) -> None:
        """One victim session rebuilt from its checkpoint on a survivor.

        ``rpo_rounds`` is the recovery point actually observed: how many
        completed rounds sat in the suffix log and had to be replayed —
        never more than the checkpoint interval, which is the RPO bound
        the supervisor advertises.
        """
        self.sessions_recovered += 1
        self.rpo_rounds_sum += rpo_rounds
        self.rpo_rounds_max = max(self.rpo_rounds_max, rpo_rounds)
        self.per_device[dest_device_id].recoveries_in += 1

    def record_checkpoint(
        self, device_id: str, nbytes: int, transfer_ms: float
    ) -> None:
        """One session checkpoint shipped device->host: its wire size is
        modeled transfer on the device's link, like a migration's source
        half — the clean-path overhead the failover bench bounds."""
        self.checkpoints_shipped += 1
        self.checkpoint_bytes += nbytes
        self.checkpoint_transfer_ms += transfer_ms
        self._charge_transfer(device_id, transfer_ms)

    def record_failover_restore(
        self, device_id: str, nbytes: int, transfer_ms: float
    ) -> None:
        """A checkpoint restored host->device during recovery."""
        self.failover_restore_bytes += nbytes
        self.failover_restore_ms += transfer_ms
        self._charge_transfer(device_id, transfer_ms)

    def _charge_transfer(self, device_id: str, transfer_ms: float) -> None:
        self.phase_totals = self.phase_totals.merged_with(
            PhaseBreakdown(transfer_ms=transfer_ms)
        )
        self.per_device[device_id].busy_ms += transfer_ms

    def record_probe_ok(self, device_id: str, busy_ms: float) -> None:
        """A probe succeeded (breaker closes): its round is real device
        time but no tenant request — only busy time is charged."""
        self.probes_ok += 1
        self.per_device[device_id].busy_ms += busy_ms

    # -- derived quantities -------------------------------------------------------

    @property
    def mean_batch_size(self) -> float:
        return self.batch_size_sum / self.batches if self.batches else 0.0

    @property
    def simulated_makespan_ms(self) -> float:
        """Devices execute concurrently: the pool is done when the
        busiest device is done."""
        return max((d.busy_ms for d in self.per_device.values()), default=0.0)

    @property
    def throughput_rps(self) -> float:
        """Completed requests per simulated second."""
        makespan = self.simulated_makespan_ms
        if makespan <= 0:
            return 0.0
        return self.requests_completed / (makespan / 1000.0)

    def utilization(self) -> dict[str, float]:
        """Per-device busy share of the pool makespan (0..1)."""
        makespan = self.simulated_makespan_ms
        if makespan <= 0:
            return {device_id: 0.0 for device_id in self.per_device}
        return {
            device_id: d.busy_ms / makespan for device_id, d in self.per_device.items()
        }

    def utilization_spread(self) -> float:
        """Max minus min per-device utilization (0 with < 2 devices).

        The fleet-balance health metric for heterogeneous pools: when
        capability-aware placement is doing its job, busy share stays
        clustered across unequal devices and the spread is small; a
        count-based placement on a mixed fleet parks equal work on
        unequal devices and the spread opens up (what
        ``benchmarks/bench_hetero_fleet.py`` reports).
        """
        util = self.utilization()
        if len(util) < 2:
            return 0.0
        values = list(util.values())
        return max(values) - min(values)

    # -- reporting ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """A plain-dict summary for logging/reporting: every counter
        under its :data:`COUNTERS` group, plus the derived entries."""
        snap: dict = {}
        for counter in COUNTERS:
            snap.setdefault(counter.group, {})[counter.key] = getattr(
                self, counter.attr
            )
        snap["batches"]["mean_size"] = self.mean_batch_size
        snap["gc"]["simulated_ms"] = self.phase_totals.gc_ms
        snap["failover"]["rpo_mean_rounds"] = (
            self.rpo_rounds_sum / self.sessions_recovered
            if self.sessions_recovered
            else 0.0
        )
        snap["failover"]["breaker_states"] = self.breaker_states()
        snap["latency"] = self.latency.snapshot()
        snap["scheduler"] = self.scheduler_state()
        snap["throughput_rps"] = self.throughput_rps
        snap["makespan_ms"] = self.simulated_makespan_ms
        snap["fleet"] = {
            "devices": len(self.per_device),
            "utilization_spread": self.utilization_spread(),
        }
        phases = self.phase_totals
        snap["phases_ms"] = {
            "parse": phases.parse_ms,
            "eval": phases.eval_ms,
            "print": phases.print_ms,
            "transfer": phases.transfer_ms,
            "overhead": phases.other_ms + phases.host_ms,
            "gc": phases.gc_ms,
        }
        utilization = self.utilization()
        snap["devices"] = {
            device_id: d.snapshot(utilization[device_id])
            for device_id, d in self.per_device.items()
        }
        snap["queue_depths"] = self.queue_depths()
        return snap

    def render(self) -> str:
        """A human-readable one-screen summary."""
        snap = self.snapshot()
        req, lat, flt = snap["requests"], snap["latency"], snap["faults"]
        bat, gc, jit = snap["batches"], snap["gc"], snap["jit"]
        bulk, reb, fo = snap["bulk"], snap["rebalance"], snap["failover"]
        lines = [
            f"requests: {req['completed']}/{req['enqueued']} completed, "
            f"{req['cancelled']} cancelled, {req['rejected']} rejected, "
            f"{req['errors']} errors",
            f"latency:  p50 {lat['p50_ms']:.3f} / p95 {lat['p95_ms']:.3f} / "
            f"p99 {lat['p99_ms']:.3f} ms (mean {lat['mean_ms']:.3f}, "
            f"max {lat['max_ms']:.3f}, n={lat['count']})",
            f"faults:   {flt['contained']} contained, "
            f"{flt['batch_fatal']} batch-fatal "
            f"({flt['quarantine_retries']} quarantine retries, "
            f"{flt['poisoned']} poisoned)",
            f"batches:  {bat['count']} (mean {bat['mean_size']:.1f}, "
            f"max {bat['max_size']})",
            f"throughput: {snap['throughput_rps']:.1f} req/s simulated"
            f" over {snap['makespan_ms']:.3f} ms makespan "
            f"({snap['fleet']['devices']} devices, utilization spread "
            f"{snap['fleet']['utilization_spread'] * 100:.0f}%)",
            f"gc:       {gc['nodes_freed']} nodes freed in "
            f"{gc['regions_reset']} region resets + "
            f"{gc['major_collections']} major collections "
            f"({gc['simulated_ms']:.3f} ms simulated)",
            f"jit:      {jit['traces_compiled']} traces compiled, "
            f"{jit['trace_hits']} trace hits, {jit['guard_bails']} guard bails",
            f"bulk:     {bulk['jobs']} jobs ({bulk['chunks']} chunks, "
            f"{bulk['elements']} elements), {bulk['jobs_gathered']} gathered, "
            f"{bulk['chunk_errors']} chunk errors",
            f"rebalance: {reb['migrations']} migrations "
            f"({reb['nodes_moved']} nodes, {reb['transfer_ms']:.3f} ms "
            f"transfer), {reb['devices_drained']} drained, "
            f"{reb['sessions_restored']} restored",
            f"failover: {fo['devices_lost']} losses "
            f"({fo['device_hangs']} hangs), "
            f"{fo['sessions_recovered']} sessions recovered, "
            f"{fo['requests_replayed']} replayed "
            f"(RPO mean {fo['rpo_mean_rounds']:.1f} / "
            f"max {fo['rpo_max_rounds']} rounds); "
            f"checkpoints {fo['checkpoints_shipped']} shipped + "
            f"{fo['checkpoints_skipped']} skipped "
            f"({fo['checkpoint_bytes']} B, "
            f"{fo['checkpoint_transfer_ms']:.3f} ms); "
            f"breaker {fo['breaker_opens']} opens, "
            f"probes {fo['probes_ok']}/{fo['probes_sent']} ok, "
            f"{fo['devices_evicted']} evicted",
        ]
        sched = snap["scheduler"]
        if sched:
            overlap = sum(
                d["overlap_ms"] for d in sched.get("devices", {}).values()
            )
            lines.append(
                f"scheduler: {sched['mode']}, virtual clock "
                f"{sched['makespan_ms']:.3f} ms, "
                f"transfer overlap {overlap:.3f} ms"
            )
        for device_id, d in snap["devices"].items():
            line = (
                f"  {device_id} [{d['name']}/{d['kind']}]: {d['requests']} reqs in "
                f"{d['batches']} batches, busy {d['busy_ms']:.3f} ms, "
                f"util {d['utilization'] * 100:.0f}%, "
                f"up {d['uptime'] * 100:.0f}%, "
                f"cap {d['capability_ms']:.4f} ms/req"
            )
            state = fo["breaker_states"].get(device_id)
            if state is not None:
                line += f", breaker {state}"
            lines.append(line)
        return "\n".join(lines)
