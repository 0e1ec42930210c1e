"""Run the benchmark over several seeds and workloads, and compare two sets.

    python3 bench/sweep.py --seeds 42                      # every workload once
    python3 bench/sweep.py --seeds 1-10 --save .bench_out/set-a.json
    python3 bench/sweep.py --compare .bench_out/set-a.json .bench_out/set-b.json

Each run is ``bench/run.py`` in a fresh process.  A set reports, per workload
and end-to-end metric, the median of its runs and the spread between their
first and third quartiles as a share of that median, next to the metric's
bound in BENCHMARK.json.  Comparing two sets checks that each median moved by
less than the bound and that the deterministic fingerprints of the same
workload and seed agree exactly: a fingerprint that differs means the
program's answers or its search changed, which no amount of noise explains.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("fingerprint."):
            key, _, value = line.partition(" = ")
            result[key] = value
        if line.startswith("FAILED"):
            print(f"  {workload} seed {seed}: {line}", file=sys.stderr)
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(runs, spec, trace):
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    for workload in sorted({r["workload"] for r in runs}):
        rows = [r for r in runs if r["workload"] == workload]
        attempted = sum(r["result"]["attempted"] for r in rows)
        failed = sum(r["result"]["failed"] for r in rows)
        correct = all(r["result"]["correct"] for r in rows)
        print(f"{workload}: {len(rows)} runs, seeds {[r['seed'] for r in rows]}, "
              f"correct={correct}, fail_ratio = {failed / attempted:.4f} 1 "
              f"({failed} of {attempted} requests)")
        for m in metrics:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in rows]
            med = statistics.median(values)
            line = f"  {m['name']:<48} median {med:12.6g} {m['unit']:<6}"
            if len(values) >= 2 and med:
                line += f" spread {spread(values):7.4f}"
            if "bound" in m:
                line += f" bound {m['bound']}"
            print(line)


def compare(first, second, spec):
    """Median drift per workload and metric, and exact fingerprint agreement."""
    ok = True
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    a_runs = {(r["workload"], r["seed"], r["trace"]): r for r in first["runs"]}
    b_runs = {(r["workload"], r["seed"], r["trace"]): r for r in second["runs"]}
    for key in sorted(a_runs.keys() & b_runs.keys()):
        for fp in ("fingerprint.answers", "fingerprint.counters"):
            a, b = a_runs[key]["result"].get(fp), b_runs[key]["result"].get(fp)
            if a != b:
                ok = False
                print(f"FINGERPRINT {fp} differs for {key}: {a} vs {b}")
    answers = {}  # traced and plain runs of one workload and seed answer alike
    for r in first["runs"] + second["runs"]:
        answers.setdefault((r["workload"], r["seed"]), set()).add(
            r["result"]["fingerprint.answers"])
    for key, digests in sorted(answers.items()):
        if len(digests) > 1:
            ok = False
            print(f"FINGERPRINT fingerprint.answers differs between runs of {key}")
    for workload in sorted({k[0] for k in a_runs} & {k[0] for k in b_runs}):
        for name, m in bounds.items():
            med = []
            for runs in (first["runs"], second["runs"]):
                values = [r["result"]["metrics"][name]["value"] for r in runs
                          if r["workload"] == workload and not r["trace"]]
                med.append(statistics.median(values) if values else None)
            if None in med:
                continue
            change = (med[1] - med[0]) / med[0]
            worse = change if m["better"] == "lower" else -change
            verdict = "ok" if worse <= m["bound"] else "WORSE"
            ok = ok and verdict == "ok"
            print(f"{workload:<14} {name:<16} {med[0]:12.6g} -> {med[1]:12.6g} {m['unit']:<3} "
                  f"{change:+8.2%} (bound {m['bound']:.0%}) {verdict}")
    return ok


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="42")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="write the set of runs to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path, encoding="utf-8") as fh:
                sets.append(json.load(fh))
        return 0 if compare(*sets, spec) else 1

    runs = []
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"workload": workload, "seed": seed, "trace": args.trace,
                         "result": result})
            print(f"  ran {workload} seed {seed}", file=sys.stderr, flush=True)
    if args.save:
        os.makedirs(os.path.dirname(os.path.abspath(args.save)), exist_ok=True)
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump({"seconds": args.seconds, "runs": runs}, fh, indent=1)
    summarize(runs, spec, args.trace)
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
