"""What the GPU and CPU back-ends share.

The paper's CuLi is one interpreter built twice, for CUDA and for
pthreads. :class:`DeviceBackend` is the part of a simulated device that
does not depend on which build it is: the closed and lost state, the
tenant scopes, the end-of-command collection and the JIT counters a
batch reports. :func:`contain_fault` is the one per-job fault handler
every batch path uses.

A subclass sets ``spec`` and ``interp`` and keeps its own phase model:
``master_cycles``, ``base_latency_ms``, ``close``, ``submit`` and
``submit_batch``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..errors import DeviceLostError, DeviceShutdownError, is_containable_fault
from ..ops import Op

if TYPE_CHECKING:  # pragma: no cover
    from ..context import ExecContext
    from ..core.arena import NodeArena
    from ..core.environment import Environment

__all__ = ["DeviceBackend", "HOST_LOOP_MS", "contain_fault"]

#: Host-side work per command (prompt handling, fgets, puts) in ms.
HOST_LOOP_MS = 0.001


def contain_fault(
    exc: Exception, arena: "NodeArena", watermark: int, ctx: "ExecContext"
) -> None:
    """Contain one job's device fault, or re-raise it as device-fatal.

    A containable fault (see :class:`~repro.errors.DeviceError`) kills
    only the job that raised it. Write-barrier promotions already
    rescued whatever escaped into a persistent scope; every other node
    the job allocated past ``watermark`` is rolled back now, so the rest
    of its batch can reuse the space, and the frees are charged to the
    job's context as one ``NODE_WRITE`` each.
    """
    if not is_containable_fault(exc):
        raise exc
    freed, _ = arena.rollback_region(watermark)
    ctx.charge(Op.NODE_WRITE, freed)


class DeviceBackend:
    """One CuLi instance: lifecycle, loss, tenant scopes and GC."""

    def __init__(self) -> None:
        self.commands_executed = 0
        self._closed = False
        self._lost_reason: Optional[str] = None

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def closed(self) -> bool:
        return self._closed

    # -- device loss (failover support) -------------------------------------------

    def mark_lost(self, reason: str = "device lost") -> None:
        """Simulate a whole-device crash (a GPU falling off the bus, a
        pthread pool's host dying): every subsequent command or batch
        raises :class:`~repro.errors.DeviceLostError` until the serving
        layer force-resets the device (replaces it with a fresh one —
        the crashed arena's contents are unrecoverable)."""
        self._lost_reason = reason

    @property
    def lost(self) -> bool:
        return self._lost_reason is not None

    def _check_lost(self) -> None:
        """Refuse a command or batch on a shut-down or lost device."""
        if self._closed:
            raise DeviceShutdownError(f"device {self.name} has been shut down")
        if self._lost_reason is not None:
            raise DeviceLostError(f"device {self.name} lost: {self._lost_reason}")

    # -- tenant environments (multi-tenant serving) -------------------------------

    def create_session_env(self, label: str = "session") -> "Environment":
        """A persistent per-tenant session-root scope (tenant isolation +
        GC-root registration — see :meth:`Interpreter.create_session_env`)."""
        return self.interp.create_session_env(label)

    def release_session_env(self, env: "Environment") -> None:
        """Drop a tenant scope; its bindings become garbage."""
        self.interp.release_session_env(env)

    # -- accounting shared by both builds -----------------------------------------

    def _run_gc(self) -> tuple[int, float, int, int, float]:
        """End-of-command reclamation charged as modeled device time;
        see :func:`repro.core.gc.collect_with_accounting`."""
        from ..core.gc import collect_with_accounting

        return collect_with_accounting(self.interp, self.spec)

    def _jit_delta(self, before: dict) -> dict:
        """JIT counters gained since ``before`` (a ``jit_stats.as_dict()``),
        keyed like the matching :class:`~repro.runtime.batch.BatchResult`
        fields."""
        after = self.interp.jit_stats.as_dict()
        return {key: after[key] - before[key] for key in after}
