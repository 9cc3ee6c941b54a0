"""Scaling probe: batch formation and rebalancing stay near-linear.

A Zipf fleet replay (the shape of the 10k-tenant harness: a few hot
tenants, a long tail of one-request sessions, every request queued
before the flush) is run at N and 2N tenants. The probe counts Python
calls made inside ``Scheduler.form_batch_async`` and the rebalancer's
safe-point hook with ``sys.setprofile`` — deterministic for a seeded
trace, unlike wall time. Doubling the fleet must at most about double
the work (ratio <= 2.3). A formation or rebalancing pass that rescans
the whole queue makes the ratio approach 4.
"""

from __future__ import annotations

import functools
import os
import sys

import repro
from repro import CuLiServer
from repro.serve import generate_trace, replay_trace
from repro.serve.scheduler import Rebalancer, Scheduler

FLEET = ["gtx1080", "gtx1080", "tesla-v100", "intel-e5-2620"]
SRC = os.path.dirname(repro.__file__)


def counted_calls(monkeypatch, tenants: int) -> int:
    """Python calls into ``repro`` under formation and rebalancing for
    one seeded Zipf replay of ``tenants`` tenants."""
    calls = 0
    in_repro: dict = {}

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            hit = in_repro.get(code)
            if hit is None:
                hit = in_repro[code] = code.co_filename.startswith(SRC)
            calls += hit

    def probed(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sys.setprofile(profile)
            try:
                return fn(*args, **kwargs)
            finally:
                sys.setprofile(None)

        return wrapper

    monkeypatch.setattr(
        Scheduler, "form_batch_async", probed(Scheduler.form_batch_async)
    )
    monkeypatch.setattr(
        Rebalancer, "at_safe_point", probed(Rebalancer.at_safe_point)
    )
    trace = generate_trace(
        seed=11,
        tenants=tenants,
        requests=tenants * 6 // 5,
        # The 10k harness's arrival density (12k requests over 5 ms).
        duration_ms=tenants / 2000.0,
        weighting="zipf",
    )
    with CuLiServer(
        devices=list(FLEET),
        placement="cost",
        rebalance=True,
        scheduler="async",
        max_session_queue=512,
    ) as server:
        replay_trace(server, trace)
        server.flush()
        assert server.pending == 0
    monkeypatch.undo()
    return calls


def test_formation_and_rebalancing_scale_near_linearly(monkeypatch):
    small = counted_calls(monkeypatch, 1000)
    large = counted_calls(monkeypatch, 2000)
    assert small > 0
    ratio = large / small
    assert ratio <= 2.3, (
        f"formation + rebalancer calls grew {ratio:.2f}x from 1k to 2k "
        f"tenants ({small} -> {large}): superlinear queue work"
    )
