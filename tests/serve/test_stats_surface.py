"""The metrics surface: ``ServerStats.snapshot()`` keys and value types.

Every cumulative counter is declared once, as a row of
:data:`repro.serve.stats.COUNTERS`; ``snapshot()`` reports it from that
row. These checks pin the table against the snapshot and the snapshot's
whole key set, so a metric can only appear, vanish or change type on
purpose.
"""

from __future__ import annotations

from repro.core.interpreter import InterpreterOptions
from repro.cpu.device import CPUDeviceConfig
from repro.gpu.device import GPUDeviceConfig
from repro.serve import CuLiServer
from repro.serve.stats import COUNTERS, ServerStats

DEVICES = ["gtx1080#0", "intel-e5-2620#1"]

#: Every ``snapshot()`` leaf and its JSON type; ``{dev}`` expands to each
#: device id.
SURFACE = {
    "requests.enqueued": "int",
    "requests.completed": "int",
    "requests.cancelled": "int",
    "requests.rejected": "int",
    "requests.errors": "int",
    "latency.count": "int",
    "latency.mean_ms": "float",
    "latency.p50_ms": "float",
    "latency.p95_ms": "float",
    "latency.p99_ms": "float",
    "latency.max_ms": "float",
    "scheduler.mode": "str",
    "scheduler.clock_ms": "float",
    "scheduler.makespan_ms": "float",
    "scheduler.devices.{dev}.completed_ms": "float",
    "scheduler.devices.{dev}.serial_ms": "float",
    "scheduler.devices.{dev}.overlap_ms": "float",
    "scheduler.devices.{dev}.engine_busy_ms": "float",
    "scheduler.devices.{dev}.utilization": "float",
    "scheduler.devices.{dev}.batches": "int",
    "faults.contained": "int",
    "faults.batch_fatal": "int",
    "faults.quarantine_retries": "int",
    "faults.poisoned": "int",
    "batches.count": "int",
    "batches.mean_size": "float",
    "batches.max_size": "int",
    "throughput_rps": "float",
    "makespan_ms": "float",
    "fleet.devices": "int",
    "fleet.utilization_spread": "float",
    "phases_ms.parse": "float",
    "phases_ms.eval": "float",
    "phases_ms.print": "float",
    "phases_ms.transfer": "float",
    "phases_ms.overhead": "float",
    "phases_ms.gc": "float",
    "gc.nodes_freed": "int",
    "gc.regions_reset": "int",
    "gc.major_collections": "int",
    "gc.simulated_ms": "float",
    "gc.wall_ms": "float",
    "jit.traces_compiled": "int",
    "jit.trace_hits": "int",
    "jit.guard_bails": "int",
    "bulk.jobs": "int",
    "bulk.chunks": "int",
    "bulk.elements": "int",
    "bulk.jobs_gathered": "int",
    "bulk.chunk_errors": "int",
    "rebalance.migrations": "int",
    "rebalance.nodes_moved": "int",
    "rebalance.bytes_moved": "int",
    "rebalance.transfer_ms": "float",
    "rebalance.devices_drained": "int",
    "rebalance.sessions_restored": "int",
    "failover.devices_lost": "int",
    "failover.device_hangs": "int",
    "failover.sessions_recovered": "int",
    "failover.requests_replayed": "int",
    "failover.rpo_mean_rounds": "float",
    "failover.rpo_max_rounds": "int",
    "failover.checkpoints_shipped": "int",
    "failover.checkpoints_skipped": "int",
    "failover.checkpoint_bytes": "int",
    "failover.checkpoint_transfer_ms": "float",
    "failover.restore_bytes": "int",
    "failover.restore_transfer_ms": "float",
    "failover.breaker_opens": "int",
    "failover.probes_sent": "int",
    "failover.probes_ok": "int",
    "failover.devices_evicted": "int",
    "failover.breaker_states.{dev}": "str",
    "devices.{dev}.name": "str",
    "devices.{dev}.kind": "str",
    "devices.{dev}.capability_ms": "float",
    "devices.{dev}.busy_ms": "float",
    "devices.{dev}.batches": "int",
    "devices.{dev}.requests": "int",
    "devices.{dev}.jobs": "int",
    "devices.{dev}.rounds": "int",
    "devices.{dev}.faults": "int",
    "devices.{dev}.migrations_in": "int",
    "devices.{dev}.migrations_out": "int",
    "devices.{dev}.losses": "int",
    "devices.{dev}.hangs": "int",
    "devices.{dev}.recoveries_in": "int",
    "devices.{dev}.uptime": "float",
    "devices.{dev}.utilization": "float",
    "queue_depths.{dev}": "int",
}


def leaves(node: dict, prefix: str = "") -> dict:
    """``{dotted key path: value}`` for every leaf of a nested dict (an
    empty dict is a leaf)."""
    out = {}
    for key, value in node.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict) and value:
            out.update(leaves(value, path))
        else:
            out[path] = value
    return out


class TestCounterTable:
    def test_rows_are_unique(self):
        assert len({(c.group, c.key) for c in COUNTERS}) == len(COUNTERS)
        assert len({c.attr for c in COUNTERS}) == len(COUNTERS)
        assert all(c.help for c in COUNTERS)

    def test_each_row_is_exactly_one_snapshot_leaf(self):
        """Give every counter a distinct value: each must then show up
        exactly once in the snapshot, at its row's group and key."""
        stats = ServerStats()
        for n, counter in enumerate(COUNTERS, start=1):
            assert getattr(stats, counter.attr) == counter.zero
            setattr(stats, counter.attr, type(counter.zero)(1000 + n))
        flat = leaves(stats.snapshot())
        for n, counter in enumerate(COUNTERS, start=1):
            value = type(counter.zero)(1000 + n)
            where = [path for path, got in flat.items() if got == value]
            assert where == [f"{counter.group}.{counter.key}"], counter


def test_snapshot_key_paths_and_types():
    """A server that ran failover, a bulk job, a migration and an
    injected batch-fatal fault reports exactly the pinned surface."""
    opts = InterpreterOptions.fast(enable_fault_injection=True)
    with CuLiServer(
        devices=["gtx1080", "intel-e5-2620"],
        scheduler="async",
        failover=True,
        rebalance=True,
        gpu_config=GPUDeviceConfig(interpreter=opts),
        cpu_config=CPUDeviceConfig(interpreter=opts),
    ) as server:
        a = server.open_session("a")
        b = server.open_session("b")
        a.submit("(setq v (list 1 2 3))")
        b.submit("(+ 1 1)")
        job = server.submit_bulk("(lambda (x) (* x x))", list(range(40)), 8)
        server.flush()
        assert job.result().startswith("(0 1 4 9")
        server.migrate_session(a)
        a.submit("(car v)")
        b.submit('(inject-fault "shutdown")')
        server.flush()
        server.supervisor.kill_device(a.device_id)
        a.submit("(cdr v)")
        server.flush()
        snap = server.stats.snapshot()
    assert snap["bulk"]["jobs_gathered"] == 1
    assert snap["rebalance"]["migrations"] >= 1
    assert snap["faults"]["batch_fatal"] >= 1
    assert snap["failover"]["devices_lost"] == 1
    want = {}
    for path, kind in SURFACE.items():
        for dev in DEVICES if "{dev}" in path else [None]:
            want[path.format(dev=dev)] = kind
    got = {path: type(value).__name__ for path, value in leaves(snap).items()}
    assert got == want
