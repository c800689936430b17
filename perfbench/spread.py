#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises the spread, or
compares two such summaries (two commits).

Run from the repository root:

    python3 perfbench/spread.py run --workload sweep --seeds 1-10 --out a.jsonl
    python3 perfbench/spread.py compare a.jsonl b.jsonl

`run` executes the command of BENCHMARK.json once per seed, keeps the
last output line of each run (the JSON result) in --out, and prints per
metric the median, the quartiles (as `statistics.quantiles(n=4)` gives
them) and their distance as a share of the median next to the metric's
bound. `compare` prints, per workload and metric, the change of the
median from the first file to the second and whether it stays within the
bound in the metric's worse direction.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarise(rows, bench):
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    by_workload = {}
    for row in rows:
        by_workload.setdefault(row["workload"], []).append(row)
    table = {}
    for workload, runs in sorted(by_workload.items()):
        names = runs[0]["result"]["metrics"].keys()
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            share = (q3 - q1) / abs(med) if med else float("nan")
            table[(workload, name)] = (med, q1, q3, share, bounds.get(name), len(values))
    return table


def cmd_run(args):
    bench = load_benchmark()
    rows = []
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]),
            "--trace", str(args.trace),
        ]
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        wall = time.monotonic() - start
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
        result = json.loads(lines[-1])
        rows.append({"workload": args.workload, "seed": seed, "wall_s": wall, "result": result})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              f"wall {wall:.1f} s", flush=True)
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps(rows[-1]) + "\n")
    for (workload, name), (med, q1, q3, share, bound, n) in summarise(rows, bench).items():
        flag = ""
        if bound is not None and name != "setup_s" and share > bound / 3:
            flag = "  <-- spread above a third of the bound"
        print(f"{workload:9} {name:24} median {med:<14.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {share:7.4f} bound {bound} (n={n}){flag}")


def read_rows(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def cmd_compare(args):
    bench = load_benchmark()
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    a = summarise(read_rows(args.base), bench)
    b = summarise(read_rows(args.change), bench)
    for key in sorted(a.keys() & b.keys()):
        (ma, _, _, sa, bound, _), (mb, _, _, _, _, _) = a[key], b[key]
        change = (mb - ma) / abs(ma) if ma else float("nan")
        worse = -change if better[key[1]] == "higher" else change
        verdict = ""
        if bound is not None:
            if worse > bound:
                verdict = "WORSE than bound"
            elif abs(change) <= sa:
                verdict = "within noise"
            else:
                verdict = "better" if worse < 0 else "worse, within bound"
        print(f"{key[0]:9} {key[1]:24} {ma:<14.6g} -> {mb:<14.6g} {change:+8.2%}  {verdict}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workload", required=True)
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--trace", type=int, default=0)
    run.add_argument("--out")
    compare = sub.add_parser("compare")
    compare.add_argument("base")
    compare.add_argument("change")
    args = parser.parse_args()
    {"run": cmd_run, "compare": cmd_compare}[args.cmd](args)


if __name__ == "__main__":
    main()
