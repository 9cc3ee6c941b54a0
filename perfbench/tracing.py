"""Per-layer measurement from outside the program.

The benchmark wraps the public entry point of each layer (the table
``ENTRY_POINTS``) and restores the originals afterwards. Two probes use
the wraps:

* :class:`SpanProbe` records one span per call — name, start, end,
  parent span and request or batch id — and derives each layer's self
  time: a span's duration minus the part its child spans cover.
* :class:`CountProbe` counts Python-level calls into the program's own
  code with ``sys.setprofile`` and gives each to the innermost open
  layer (``<layer>.pycalls``), a deterministic proxy for host time. It
  also reads the modeled figures and per-layer counts off the entry
  points' arguments and results.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

#: (layer, module, attribute path) of every wrapped entry point.
ENTRY_POINTS = [
    ("admission", "repro.serve.server", "CuLiServer.submit"),
    ("admission", "repro.serve.server", "CuLiServer.open_session"),
    ("placement", "repro.serve.pool", "DevicePool.place_session"),
    ("formation", "repro.serve.scheduler", "Scheduler.form_batch_async"),
    ("formation", "repro.serve.scheduler", "Scheduler.form_batch"),
    ("pipeline", "repro.serve.timeline", "DevicePipeline.charge"),
    ("rebalancer", "repro.serve.scheduler", "Rebalancer.at_safe_point"),
    ("rebalancer", "repro.serve.scheduler", "Rebalancer.after_round"),
    ("rebalancer", "repro.serve.server", "CuLiServer.migrate_session"),
    ("supervisor", "repro.serve.supervisor", "DeviceSupervisor.submit"),
    ("supervisor", "repro.serve.supervisor", "DeviceSupervisor.at_safe_point"),
    ("supervisor", "repro.serve.supervisor", "DeviceSupervisor.after_round"),
    ("supervisor", "repro.serve.supervisor", "DeviceSupervisor.on_device_loss"),
    ("supervisor", "repro.serve.checkpoint", "CheckpointStore.checkpoint"),
    ("snapshot", "repro.runtime.snapshot", "snapshot_env"),
    ("snapshot", "repro.runtime.snapshot", "restore_env"),
    ("bulk.shard", "repro.serve.bulk", "shard_bulk_job"),
    ("bulk.gather", "repro.serve.bulk", "BulkJob.result"),
    ("device.gpu", "repro.gpu.device", "GPUDevice.submit_batch"),
    ("device.gpu", "repro.gpu.device", "GPUDevice.submit"),
    ("device.cpu", "repro.cpu.device", "CPUDevice.submit_batch"),
    ("device.cpu", "repro.cpu.device", "CPUDevice.submit"),
    ("parse", "repro.core.interpreter", "Interpreter.prepare_command"),
    ("eval", "repro.core.interpreter", "Interpreter.run_plan_step"),
    ("eval", "repro.gpu.kernel", "GPUParallelEngine.run_service_batch"),
    ("eval", "repro.gpu.kernel", "GPUParallelEngine.__call__"),
    ("print", "repro.core.printer", "Printer.print_node"),
    ("gc", "repro.core.gc", "collect_with_accounting"),
    ("gc", "repro.core.interpreter", "Interpreter.collect_garbage"),
    ("jit.compile", "repro.jit.compiler", "compile_form"),
    ("jit.exec", "repro.jit.executor", "execute_trace"),
    ("parse_cache", "repro.runtime.parse_cache", "ParseCache.get"),
    ("parse_cache", "repro.runtime.parse_cache", "ParseCache.get_entry"),
]


def _stats_entry_points():
    from repro.serve.stats import ServerStats

    return [
        ("stats", "repro.serve.stats", f"ServerStats.{name}")
        for name in sorted(vars(ServerStats))
        if name.startswith("record_")
    ]


#: Layers reported in the per-layer metrics, in report order. The
#: parse-cache lookups sit inside ``parse`` and only feed its hit rate.
LAYERS = [
    "admission", "placement", "formation", "pipeline", "rebalancer",
    "supervisor", "snapshot", "bulk", "stats", "device", "parse", "eval",
    "print", "gc", "jit",
]


#: Layers whose host time is reported in parts (``<layer>.<part>_host_ms``).
SPLIT_LAYERS = {
    "bulk": ("shard", "gather"),
    "device": ("gpu", "cpu"),
    "jit": ("compile", "exec"),
}


def report_layer(layer: str) -> str:
    """The reported layer a wrapped layer name belongs to."""
    if layer == "parse_cache":
        return "parse"
    return layer.split(".")[0]


class _Patcher:
    """Installs wrappers on every entry point and restores them."""

    def __init__(self) -> None:
        self._saved: list = []

    def install(self, make_wrapper, skip=()) -> None:
        for layer, module_name, path in ENTRY_POINTS + _stats_entry_points():
            if layer in skip:
                continue
            module = importlib.import_module(module_name)
            if "." in path:
                owner_name, attr = path.split(".")
                owner = getattr(module, owner_name)
                original = vars(owner)[attr]
                wrapper = make_wrapper(original, layer, path)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            # A module-level function: rebind it in every loaded module
            # of the program that imported it by name.
            original = getattr(module, path)
            wrapper = make_wrapper(original, layer, path)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("repro") and (
                    vars(mod).get(path) is original
                ):
                    self._saved.append((mod, path, original))
                    setattr(mod, path, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class SpanProbe:
    """Records a span for every call of a wrapped entry point."""

    def __init__(self) -> None:
        #: [name, layer, start, end, parent index, request/batch id]
        self.spans: list = []
        self._stack: list = []
        self._batch = None
        self._batches = 0
        self._patcher = _Patcher()

    def __enter__(self) -> "SpanProbe":
        # Cache lookups sit inside ``parse`` and add nothing to its
        # self time, so they carry no span.
        self._patcher.install(self._wrap, skip=("parse_cache",))
        return self

    def __exit__(self, *exc) -> None:
        self._patcher.restore()

    def _wrap(self, fn, layer, name):
        probe = self
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        formation = layer == "formation"
        admission = layer == "admission"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            if admission and not stack:
                probe._batch = None  # outside any batch again
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, probe._batch]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if formation and result:
                probe._batches += 1
                probe._batch = span[5] = f"batch:{probe._batches}"
            elif admission:
                span[5] = (
                    f"req:{result.seq}" if name == "CuLiServer.submit"
                    else f"session:{result.session_id}"
                )
            return result

        return wrapper

    def self_times(self) -> dict:
        """Self time in seconds per wrapped layer name."""
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent, rid in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(float)
        for i, (name, layer, start, end, parent, rid) in enumerate(self.spans):
            out[layer] += (end - start) - child[i]
        return out

    def write(self, path: str, origin: float) -> None:
        """Write the spans as JSON lines, times in ms from ``origin``."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for name, layer, start, end, parent, rid in self.spans:
                fh.write(json.dumps([
                    name, round((start - origin) * 1e3, 4),
                    round((end - origin) * 1e3, 4), parent, rid,
                ]) + "\n")


class CountProbe:
    """Counts program calls per layer and reads modeled per-layer figures."""

    def __init__(self, src_dir: str) -> None:
        self.src_dir = src_dir
        self.pycalls: dict = defaultdict(int)
        self.calls: dict = defaultdict(int)
        self.values: dict = defaultdict(float)
        self.batch_sizes: list = []
        self.queue_waits: list = []
        self._pending: dict = {}
        self._layers: list = ["unattributed"]
        self._patcher = _Patcher()

    def __enter__(self) -> "CountProbe":
        self._patcher.install(self._wrap)
        sys.setprofile(self._profiler())
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)
        self._patcher.restore()

    def _profiler(self):
        """The profile hook; it runs on every call event, so it keeps
        everything it touches in local variables."""
        inside: dict = {}
        counts = self.pycalls
        layers = self._layers
        src = self.src_dir

        def profile(frame, event, arg):
            if event == "call":
                code = frame.f_code
                hit = inside.get(code)
                if hit is None:
                    hit = inside[code] = code.co_filename.startswith(src)
                if hit:
                    counts[layers[-1]] += 1

        return profile

    def _wrap(self, fn, layer, name):
        probe = self
        layers = self._layers
        reported = report_layer(layer)
        after = getattr(self, "_after_" + layer.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            layers.append(reported)
            try:
                result = fn(*args, **kwargs)
            finally:
                layers.pop()
            probe.calls[layer] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- modeled figures and counts, read at the entry points -----------------------

    def _after_formation(self, args, batch) -> None:
        scheduler, pdev = args[0], args[1]
        if batch:
            self.calls["formation.nonempty"] += 1
            self.batch_sizes.append(len(batch))
            pipe = scheduler.pipelines.get(pdev.device_id)
            if pipe is not None:
                self._pending[id(pipe)] = batch

    def _after_pipeline(self, args, done) -> None:
        pipe = args[0]
        slot = pipe.last
        self.values["pipeline.stall_ms"] += slot.stall_ms
        for ticket in self._pending.pop(id(pipe), ()):
            self.queue_waits.append(slot.upload_start_ms - ticket.arrival_ms)

    def _device(self, result) -> None:
        times = result.times
        upload = getattr(result, "upload_ms", None)
        if upload is None:  # a single command: its whole PCIe transfer
            upload, download = times.transfer_ms, 0.0
        else:
            download = result.download_ms
        v = self.values
        v["device.batches"] += 1
        v["device.modeled_upload_ms"] += upload
        v["device.modeled_download_ms"] += download
        v["device.modeled_kernel_ms"] += times.total_ms - upload - download
        v["parse.modeled_ms"] += times.parse_ms
        v["eval.modeled_ms"] += times.eval_ms
        v["print.modeled_ms"] += times.print_ms
        v["gc.modeled_ms"] += times.gc_ms

    def _after_device_gpu(self, args, result) -> None:
        self._device(result)

    def _after_device_cpu(self, args, result) -> None:
        self._device(result)

    def _after_parse_cache(self, args, result) -> None:
        self.values["parse_cache.lookups"] += 1
        if result is not None:
            self.values["parse_cache.hits"] += 1

    def _after_snapshot(self, args, result) -> None:
        nbytes = getattr(result, "nbytes", None)
        if nbytes is not None:  # snapshot_env returns the snapshot
            self.values["snapshot.bytes"] += nbytes
