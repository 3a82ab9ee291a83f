"""Run one boxlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload norms|certify|suite --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # each workload in its own process

Run from the root of a boxlab source tree: the program is imported from
`src/` and the plain-loop oracles from `tests/oracles.py`.  The last line
of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it is the run record
(environment, passes, failed operations by name and fault).  With
`--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
per-module ones from a traced run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("norms", "certify", "suite")
# Set-up samples per untraced run: one before the first pass and one after
# each of the first two (every run makes at least two passes).
SETUP_REPEATS = 3


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program() -> tuple[float, float]:
    """Put the source tree on the path and import boxlab.

    Returns the seconds the import took and the speed probe around it.
    """
    src = os.path.join(ROOT, "src")
    oracles = os.path.join(ROOT, "tests", "oracles.py")
    for need in (os.path.join(src, "boxlab", "__init__.py"), oracles):
        if not os.path.isfile(need):
            sys.exit(f"run.py: {need} not found; run from a boxlab source tree")
    sys.path[:0] = [src, os.path.join(ROOT, "tests")]
    cli, seconds, probe_s = speed.timed(lambda: importlib.import_module("boxlab.cli"))
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"run.py: boxlab was imported from {cli.__file__}, not {src}")
    return seconds, probe_s


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import boxlab.cli; print(time.perf_counter() - t0)"
)


def fresh_import_seconds() -> tuple[float, float]:
    """Seconds to import boxlab.cli in a fresh interpreter, and the speed probe."""
    before = speed.probe()
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, os.path.join(ROOT, "src")],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    return float(proc.stdout), (before + speed.probe()) / 2


def run_workload(args) -> tuple[dict, dict]:
    import_s = [import_program()]
    import harness
    import workloads

    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return measure(args, import_s, workdir, harness, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, import_s, workdir, harness, workloads):
    build = workloads.BUILDERS[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(ROOT)
        tracer.install()
    ops, *sample = speed.timed(lambda: build(workdir, args.seed))
    setup_times = [tuple(sample)]  # (seconds, probe seconds)
    if tracer is not None:
        tracer.remove()

    def setup_sample():
        """One more timed import and build, into a directory of its own.

        Taken after a pass rather than before the first, so that the
        samples of `setup_s` spread over the run like those of `run_s`
        and a slow spell of the machine at its start does not set both.
        """
        import_s.append(fresh_import_seconds())
        extra = os.path.join(workdir, f"setup-{len(setup_times)}")
        os.makedirs(extra)
        _, *sample = speed.timed(lambda: build(extra, args.seed))
        setup_times.append(tuple(sample))
        shutil.rmtree(extra)

    outcome = harness.Outcome()
    pass_times: list[float] = []
    per_op: list[list] = [[] for _ in ops]  # the calls of each operation

    def best(op_calls) -> float:
        """An operation's fastest call in the run, on the probe's scale."""
        if workloads.SCALING[args.workload] == "call":
            return min(c.scaled_s for c in op_calls)
        run_probe_s = statistics.median(c.probe_s for calls in per_op for c in calls)
        return speed.scaled(min(c.seconds for c in op_calls), run_probe_s)

    def before_op(k, op):
        if tracer is not None:
            tracer.op = k

    def one_pass():
        if tracer is not None:
            tracer.phase = len(pass_times)
        calls = harness.run_pass(ops, before_op)
        pass_times.append(sum(call.seconds for call in calls))
        for op_calls, call in zip(per_op, calls):
            op_calls.append(call)
        outcome.add_pass(ops, harness.check_pass(ops, calls))
        if tracer is None and len(setup_times) < SETUP_REPEATS:
            setup_sample()
        return pass_times[-1]

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if tracer is None:
        harness.until(args.seconds, one_pass)
        best_ms = [best(op_calls) * 1000.0 for op_calls in per_op]
        metrics = {
            "setup_s": (scaled_median(import_s) + scaled_median(setup_times), "s"),
            "run_s": (sum(best_ms) / 1000.0, "s"),
            "peak_rss_mb": (harness.peak_rss_mb(), "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        # Latency of single operations: shown, but not an end-to-end metric
        # because it does not repeat within 25% on a machine with slow spells.
        record["op_p50_ms"] = statistics.median(best_ms)
        record["op_p90_ms"] = harness.percentile(best_ms, 90)
        # The same figures unscaled, and the probe readings.
        record["wall_run_s"] = sum(min(c.seconds for c in op_calls) for op_calls in per_op)
        record["wall_setup_s"] = (statistics.median(t for t, _ in import_s)
                                  + statistics.median(t for t, _ in setup_times))
        record["import_samples_s"] = import_s
        record["setup_samples_s"] = setup_times
        record["probe_s"] = {"ref": speed.REF_S, "median": statistics.median(
            c.probe_s for op_calls in per_op for c in op_calls)}
    else:
        harness.until(args.seconds / 2, one_pass)
        untraced = sum(best(op_calls) for op_calls in per_op)
        first_traced = len(pass_times)
        per_op = [[] for _ in ops]
        tracer.install()
        try:
            harness.until(args.seconds / 2, one_pass)
        finally:
            tracer.remove()
        traced = sum(best(op_calls) for op_calls in per_op)
        metrics = tracer.metrics(range(first_traced, len(pass_times)))
        metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_spans(spans_path)
        record["spans"] = {"path": os.path.relpath(spans_path, ROOT), "count": len(tracer.spans)}
        record["untraced_run_s"] = untraced
        record["traced_run_s"] = traced
    record.update(
        passes=len(pass_times),
        ops_per_pass=len(ops),
        pass_s=pass_times,
        env=harness.environment(),
        attempted=outcome.attempted,
        failed=outcome.failed,
        failed_ops=[
            dict(entry, fault_text=workloads.FAULTS.get(entry["fault"]))
            for entry in outcome.by_op.values()
        ],
    )
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    return record, result


def scaled_median(samples) -> float:
    """Median of (seconds, probe seconds) samples, each put on the probe's scale."""
    return statistics.median(speed.scaled(t, p) for t, p in samples)


def print_result(record: dict, result: dict) -> None:
    workload = record["workload"]
    for name, m in result["metrics"].items():
        print(f"{workload:8s} {name:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"{workload:8s} attempted {result['attempted']}, failed {result['failed']}")
    for e in record["failed_ops"]:
        fault = e["fault"] or "UNEXPECTED"
        print(f"{workload:8s}   failed {e['count']}x {e['op']} [{fault}]: {e['problem']}")
    print(json.dumps(record))
    print(json.dumps(result))


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is that workload's own."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        sys.stdout.write("\n".join(lines[:-2]) + "\n")
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        results[name] = {"record": json.loads(lines[-2]), "result": json.loads(lines[-1])}
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    record, result = run_workload(args)
    print_result(record, result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
