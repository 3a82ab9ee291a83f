"""Operations, timed passes, statistics and the run record.

An operation is one user command (`boxlab norm ...`, `boxlab suite ...`)
called in-process through `boxlab.cli.main` with stdout and stderr
captured.  Operations run one at a time from this process: a closed loop
with a single client.  Only the call itself is timed; parsing and checking
the output happen after the pass, outside every timed span.
"""

from __future__ import annotations

import io
import json
import math
import os
import platform
import resource
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

import speed
from boxlab import cli

ENV_VARS = ("BOXLAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@dataclass
class Op:
    """One CLI command and the check its output must pass.

    `check(code, stdout, stderr, outputs)` returns None when the output is
    right and a one-line description of what is wrong otherwise; `outputs`
    maps the names of operations already checked in the same pass to their
    parsed JSON output.  `fault` names the known program fault that makes
    this operation fail today.
    """

    name: str
    argv: list[str]
    check: Callable[[int, str, str, dict], str | None]
    fault: str | None = None


@dataclass
class Call:
    code: int | None
    out: str
    err: str
    seconds: float
    raised: str | None = None  # repr of an exception that escaped cli.main
    probe_s: float = 0.0  # mean of the speed probes just before and after

    @property
    def scaled_s(self) -> float:
        return speed.scaled(self.seconds, self.probe_s)


def call_cli(argv: list[str]) -> Call:
    out, err = io.StringIO(), io.StringIO()
    raised = None
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argument errors exit through argparse
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, not a failed run
            code, raised = None, repr(exc)
        seconds = time.perf_counter() - t0
    return Call(code, out.getvalue(), err.getvalue(), seconds, raised)


def run_pass(ops: list[Op], before_op=None) -> list[Call]:
    """One pass over the operations, in order; `before_op(k, op)` runs untimed.

    A speed probe runs between every two calls (and before the first and
    after the last), outside the timed spans; each call keeps the mean of
    the probes on either side of it.
    """
    calls = []
    before = speed.probe()
    for k, op in enumerate(ops):
        if before_op is not None:
            before_op(k, op)
        call = call_cli(op.argv)
        after = speed.probe()
        call.probe_s = (before + after) / 2
        calls.append(call)
        before = after
    return calls


def parse_output(call: Call):
    try:
        return json.loads(call.out)
    except ValueError:
        return None


def check_pass(ops: list[Op], calls: list[Call]) -> list[tuple[Op, str]]:
    """Check every call of one pass; returns the (op, problem) failures."""
    outputs: dict = {}
    failures = []
    for op, call in zip(ops, calls):
        if call.raised is not None:
            problem = f"raised {call.raised}"
        else:
            try:
                problem = op.check(call.code, call.out, call.err, outputs)
            except Exception as exc:
                problem = f"check raised {exc!r} on this output"
        if problem is not None:
            failures.append((op, problem))
        outputs[op.name] = parse_output(call)
    return failures


@dataclass
class Outcome:
    """Attempted and failed operations over all passes of a run."""

    attempted: int = 0
    failed: int = 0
    unexpected: int = 0
    by_op: dict = field(default_factory=dict)

    def add_pass(self, ops, failures) -> None:
        self.attempted += len(ops)
        for op, problem in failures:
            self.failed += 1
            if op.fault is None:
                self.unexpected += 1
            entry = self.by_op.setdefault(
                op.name, {"op": op.name, "fault": op.fault, "problem": problem, "count": 0}
            )
            entry["count"] += 1

    @property
    def correct(self) -> bool:
        return self.unexpected == 0


def exit_if_wrong(code: int, want: int = 0) -> str | None:
    if code != want:
        return f"exit code {code}, expected {want}"
    return None


def rel_close(a: float, b: float, tol: float, scale: float | None = None) -> bool:
    s = max(abs(a), abs(b)) if scale is None else scale
    return abs(a - b) <= tol * s


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(s)))
    return s[rank - 1]


MIN_PASSES = 2


def until(seconds: float, one_pass) -> None:
    """Run whole passes until their timed calls add up to `seconds`; at least two.

    `one_pass()` returns the seconds its timed calls took.  Two passes at
    least, so that a pass of about `seconds` (`suite`, `norms`) is always
    run twice: with "at least one", a slow first pass ends the run while a
    fast one earns a second try, and the runs made on a slow machine keep
    their slow time.
    """
    timed, passes = 0.0, 0
    while timed < seconds or passes < MIN_PASSES:
        timed += one_pass()
        passes += 1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "env": {name: os.environ.get(name) for name in ENV_VARS},
    }
