"""Scaling probe: a JIT-hot literal costs host work linear in its width.

Every CONST/LOAD instruction of a form refers to the form's sibling
list, and the executor links each literal's following siblings the way
the tree-walker's ``nxt`` chain holds them. If every instruction walked
its whole tail (or carried its own copy of it), a form with N literal
arguments would cost O(N²) host work to compile and to run. The probe
counts Python calls into ``repro`` with ``sys.setprofile`` — deterministic,
unlike wall time — for the same program at width N and 2N. Doubling the
width must at most about double the work (ratio <= 2.3); a quadratic
walk makes the ratio approach 4.
"""

from __future__ import annotations

import os
import sys

import repro
from repro.context import CountingContext
from repro.core.interpreter import Interpreter, InterpreterOptions

SRC = os.path.dirname(repro.__file__)
WIDTH = 300
RUNS = 4


def counted_calls(width: int) -> int:
    """Python calls into ``repro`` while one interpreter parses, caches,
    compiles and re-runs ``(+ 1 1 ...)`` with ``width`` arguments."""
    interp = Interpreter(InterpreterOptions.fast(jit=True, jit_threshold=1))
    ctx = CountingContext(max_depth=256)
    source = "(+" + " 1" * width + ")"
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

    sys.setprofile(profile)
    try:
        outputs = [interp.process(source, ctx) for _ in range(RUNS)]
    finally:
        sys.setprofile(None)
    assert outputs == [str(width)] * RUNS
    assert interp.jit_stats.traces_compiled == 1
    assert interp.jit_stats.trace_hits >= RUNS - 2
    return calls


def test_wide_literal_jit_work_is_linear_in_width():
    small = counted_calls(WIDTH)
    large = counted_calls(2 * WIDTH)
    ratio = large / small
    assert ratio <= 2.3, (
        f"JIT host work grew {ratio:.2f}x for 2x literal width "
        f"({small} -> {large} calls)"
    )
