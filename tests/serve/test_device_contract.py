"""The contract both device back-ends keep, checked on one GPU and one CPU.

A lost device refuses single commands and batches alike, a closed one
refuses batches, and a contained device fault is rolled back and
charged to the faulting request the same way wherever it strikes: while
the master parses the request or while a worker evaluates it.
"""

from __future__ import annotations

import pytest

from repro.core.arena import NodeArena
from repro.core.interpreter import InterpreterOptions
from repro.cpu.device import CPUDeviceConfig
from repro.errors import ArenaExhaustedError, DeviceLostError, DeviceShutdownError
from repro.gpu.device import GPUDeviceConfig
from repro.ops import Op
from repro.runtime.batch import BatchRequest
from repro.runtime.devices import device_for

DEVICES = ["gtx1080", "intel-e5-2620"]

#: A request that exhausts an 800-node arena while it is being parsed,
#: and one that allocates, then faults while it is being evaluated.
FAULT_SITES = {
    "parse": "(list" + " 1" * 900 + ")",
    "eval": '(progn (list 1 2 3 4 5 6 7 8) (inject-fault "arena-exhausted"))',
}


def make_device(name: str):
    options = InterpreterOptions.fast(
        enable_fault_injection=True, arena_capacity=800
    )
    return device_for(
        name,
        gpu_config=GPUDeviceConfig(interpreter=options),
        cpu_config=CPUDeviceConfig(interpreter=options),
    )


@pytest.mark.parametrize("name", DEVICES)
def test_lost_device_refuses_commands_and_batches(name):
    device = make_device(name)
    device.mark_lost("test: fell off the bus")
    assert device.lost
    with pytest.raises(DeviceLostError):
        device.submit("(+ 1 2)")
    with pytest.raises(DeviceLostError):
        device.submit_batch([BatchRequest("(+ 1 2)")])


@pytest.mark.parametrize("name", DEVICES)
def test_closed_device_refuses_batches(name):
    device = make_device(name)
    device.close()
    with pytest.raises(DeviceShutdownError):
        device.submit_batch([BatchRequest("(+ 1 2)")])


def own_ms(result) -> float:
    """The faulting request's own modeled work (its parse, eval and print
    phases; the shared batch overheads are identical across runs)."""
    times = result.items[0].stats.times
    return times.parse_ms + times.eval_ms + times.print_ms


@pytest.mark.parametrize("site", sorted(FAULT_SITES))
@pytest.mark.parametrize("name", DEVICES)
def test_contained_fault_rolls_back_and_charges_the_frees(name, site, monkeypatch):
    rollback = NodeArena.rollback_region
    freed: list[int] = []

    def recording(arena, watermark):
        result = rollback(arena, watermark)
        freed.append(result[0])
        return result

    monkeypatch.setattr(NodeArena, "rollback_region", recording)
    device = make_device(name)
    contained = device.submit_batch([BatchRequest(FAULT_SITES[site])])
    assert isinstance(contained.items[0].error, ArenaExhaustedError)
    assert device.interp.arena.gc_stats.checkpoint_rollbacks == 1
    assert len(freed) == 1 and freed[0] > 0
    assert device.submit("(+ 2 2)").output == "4"

    # The same fault on a device whose rollback frees nothing: the only
    # difference left in the request's own time is the charge for the
    # frees, one NODE_WRITE per node.
    monkeypatch.setattr(NodeArena, "rollback_region", lambda arena, mark: (0, 0))
    uncharged = make_device(name).submit_batch([BatchRequest(FAULT_SITES[site])])
    spec = device.spec
    charge_ms = spec.cycles_to_ms(freed[0] * spec.costs.cost_of(Op.NODE_WRITE))
    assert own_ms(contained) - own_ms(uncharged) == pytest.approx(charge_ms)
