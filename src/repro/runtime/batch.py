"""Batched multi-tenant submission: the request/result types shared by
the device back-ends and the serving layer.

A :class:`BatchRequest` is one tenant's REPL command plus the persistent
environment it must run in (``None`` means the device's true global
environment, i.e. classic single-tenant behaviour). Devices accept a
whole batch at once through ``submit_batch`` and amortize the
per-command costs the paper charges once per REPL input — the mapped
memory handshake, the PCIe transfer latency, and (on the GPU) the
master's distribute/collect work, which is shared across tenants inside
``|||``-style service rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Optional

from ..core.environment import Environment
from ..timing import CommandStats, PhaseBreakdown

__all__ = ["BatchRequest", "BatchItem", "BatchResult"]


@dataclass
class BatchRequest:
    """One tenant command queued for batched execution."""

    text: str
    env: Optional[Environment] = None  #: tenant scope; None = device global env
    tag: Any = None                    #: opaque routing key (e.g. a session id)


@dataclass
class BatchItem:
    """Outcome of one request within a batch.

    Lisp-level failures (parse errors, evaluation errors) *and*
    containable device faults (arena exhaustion, a livelock confined to
    one job — see :class:`~repro.errors.DeviceError`) are isolated per
    request: ``error`` carries the exception and ``stats.output`` the
    rendered message, while the rest of the batch completes normally.
    Only device-fatal failures abort the whole batch.
    """

    request: BatchRequest
    stats: CommandStats
    error: Optional[Exception] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def faulted(self) -> bool:
        """True when this request was killed by a contained device fault
        (as opposed to an ordinary Lisp-level error)."""
        from ..errors import DeviceError

        return isinstance(self.error, DeviceError)


@dataclass
class BatchResult:
    """All outcomes of one ``submit_batch`` call plus the true batch totals.

    ``times`` counts every shared cost exactly once, so ``times.total_ms``
    is the simulated wall time of the whole batch. Each item's
    ``stats.times`` carries that item's own work plus a 1/n share of the
    shared overheads; summing item evals generally *exceeds* the batch
    eval wall time because tenants evaluated concurrently on workers.
    """

    items: list[BatchItem] = field(default_factory=list)
    times: PhaseBreakdown = field(default_factory=PhaseBreakdown)
    jobs: int = 0          #: worker jobs executed (service + nested |||)
    rounds: int = 0        #: shared distribution rounds used
    # Direction-split command-buffer transfer (continuous-batching PR):
    # the async scheduler's event timeline needs to know which part of
    # ``times.transfer_ms`` is the host->device payload upload (can
    # overlap the *previous* batch's kernel occupancy under double
    # buffering) and which is the device->host result download (serial
    # after this batch's kernel). Mid-eval file-service transfers stay
    # inside kernel occupancy and are in neither. Zero on CPU devices
    # (shared memory).
    upload_ms: float = 0.0
    download_ms: float = 0.0
    nodes_freed: int = 0   #: nodes reclaimed by end-of-batch collection
    # GC work performed by the end-of-batch collection (satellite of the
    # generational-GC PR). ``times.gc_ms`` carries the *modeled* device
    # cost; ``gc_wall_ms`` is simulator host wall time.
    regions_reset: int = 0       #: nursery regions reclaimed (minor GCs)
    major_collections: int = 0   #: full mark-sweep passes triggered
    gc_wall_ms: float = 0.0      #: host wall time spent collecting
    # JIT trace-tier work performed by this batch (trace-tier PR): how
    # many cache-hot texts were compiled, how many forms ran as traces,
    # and how many trace executions bailed to the tree-walker on a
    # stale guard. All zero when ``InterpreterOptions.jit`` is off.
    traces_compiled: int = 0
    trace_hits: int = 0
    guard_bails: int = 0

    def absorb(self, part: "BatchResult") -> None:
        """Fold in the next buffer transaction of a batch too large for
        one: items append in order and every total adds up."""
        self.items.extend(part.items)
        self.times = self.times.merged_with(part.times)
        for f in fields(self):
            if f.name not in ("items", "times"):
                setattr(self, f.name, getattr(self, f.name) + getattr(part, f.name))

    @property
    def size(self) -> int:
        return len(self.items)

    @property
    def outputs(self) -> list[str]:
        return [item.stats.output for item in self.items]

    @property
    def errors(self) -> list[Exception]:
        return [item.error for item in self.items if item.error is not None]

    @property
    def faults(self) -> list[Exception]:
        """Contained device faults only (a subset of :attr:`errors`)."""
        return [item.error for item in self.items if item.faulted]
