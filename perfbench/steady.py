"""Steadiness check: repeated runs, quartiles, and agreement of two sets.

    python3 perfbench/steady.py run --runs 10 --first-seed 1 --out A.json
    python3 perfbench/steady.py run --runs 10 --first-seed 101 --out B.json
    python3 perfbench/steady.py compare A.json B.json

`run` calls `perfbench/run.py --workload all` (untraced) once per seed, at
BENCHMARK.json's `run_seconds`, so the workloads interleave and a change
in machine load reaches all of them alike; `--out` keeps every result and
run record.  It prints, for every
end-to-end metric, the median, the quartiles and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json.
`compare` says whether two sets of runs of the same commit agree: every
spread within its bound, the two medians of every metric within the bound
of each other in either direction, and the same share of failed
operations.  The spread of setup_s is printed and marked when it is over
the bound, but does not decide agreement (its median still does): see
"Steadiness" in perfbench/README.md for its measured spreads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_PY = os.path.join(ROOT, "perfbench", "run.py")
# Set-up is a few seconds of one run, so a slow spell of the machine moves
# all of it; its spread is reported but only its median is held to the bound.
SPREAD_EXEMPT = {"setup_s"}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def spread(values) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def run_set(runs: int, first_seed: int, out: str | None) -> dict:
    spec = load_spec()
    data: dict = {"seconds": spec["run_seconds"], "runs": {}, "records": {}}
    for seed in range(first_seed, first_seed + runs):
        cmd = [sys.executable, RUN_PY, "--workload", "all", "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"seed {seed} exited {proc.returncode}:\n{proc.stderr}")
        for name, both in json.loads(proc.stdout.splitlines()[-1]).items():
            result = both["result"]
            data["runs"].setdefault(name, []).append(result)
            data["records"].setdefault(name, []).append(both["record"])
            print(f"{name:8s} seed {seed:4d} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{m}={v['value']:.4g}" for m, v in result["metrics"].items()),
                  flush=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1)
    report(data, spec)
    return data


def report(data: dict, spec: dict) -> None:
    """Print quartiles per metric, marking spreads above a third of the bound."""
    print(f"{'workload':8s} {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name, results in data["runs"].items():
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            med, q1, q3, sp = spread(values)
            mark = "" if sp < metric["bound"] / 3 else "  above bound/3"
            print(f"{name:8s} {metric['name']:16s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{sp:8.4f} {metric['bound']:6.3f}{mark}")
        shares = {(r["failed"], r["attempted"]) for r in results}
        print(f"{name:8s} failed/attempted per run: {sorted(shares)}")


def failed_share(results) -> set:
    return {r["failed"] / r["attempted"] for r in results}


def compare(a: dict, b: dict, spec: dict) -> bool:
    agree = True
    for name in a["runs"]:
        ra, rb = a["runs"][name], b["runs"][name]
        if failed_share(ra) != failed_share(rb) or len(failed_share(ra)) != 1:
            agree = False
            print(f"{name:8s} failed shares differ: {failed_share(ra)} vs {failed_share(rb)}")
        if not all(r["correct"] for r in ra + rb):
            agree = False
            print(f"{name:8s} some run reported correct=false")
        for metric in spec["end_to_end"]:
            m, bound = metric["name"], metric["bound"]
            ma, _, _, sa = spread([r["metrics"][m]["value"] for r in ra])
            mb, _, _, sb = spread([r["metrics"][m]["value"] for r in rb])
            change = (mb - ma) / ma
            steady = sa <= bound and sb <= bound
            ok = abs(change) <= bound and (steady or m in SPREAD_EXEMPT)
            agree = agree and ok
            verdict = "ok" if ok else "DISAGREE"
            if ok and not steady:
                verdict += " (spread over bound, exempt)"
            print(f"{name:8s} {m:16s} median {ma:10.5g} -> {mb:10.5g} ({change:+.3f}) "
                  f"spread {sa:.3f} / {sb:.3f} bound {bound:.3f} {verdict}")
    print("the two sets agree" if agree else "the two sets DO NOT agree")
    return agree


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Steadiness of the boxlab benchmark.")
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run every workload once per seed")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--out", default=None, help="write the raw results here")
    c = sub.add_parser("compare", help="do two saved sets agree within the bounds?")
    c.add_argument("first")
    c.add_argument("second")
    args = ap.parse_args(argv)
    if args.cmd == "run":
        run_set(args.runs, args.first_seed, args.out)
        return 0
    with open(args.first, encoding="utf-8") as fa, open(args.second, encoding="utf-8") as fb:
        return 0 if compare(json.load(fa), json.load(fb), load_spec()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
