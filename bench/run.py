"""End-to-end benchmark of strongdim through its user entry point.

    python3 bench/run.py --workload product-large --seed 42 --seconds 25 --trace 0

Run from the root of a checkout.  One client sends requests closed-loop to
``strongdim.cli.main`` in this process: each request is one command line, and
the next starts only when the previous one has returned.  The request set is
built from --seed before timing starts and sized from --seconds.  Every answer
is checked after the timed section.

--trace 0 reports the end-to-end metrics, with every time scaled to nominal
host speed by the samples of speed.py.  --trace 1 runs every request twice,
once plain and once with spans recorded around each layer's public functions
(see spans.py), and reports the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object; the lines before it name
every metric with its unit, the machine and the run's deterministic
fingerprint.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
TAIL_BEYOND = 10
SETUP_RUNS = 9

# The 22 claim ids of ``strongdim verify all``, one per-layer metric each.
CLAIM_IDS = (
    "lemma-mmd", "thm-boundary", "thm-sandwich", "cor-beta-chain",
    "thm-ind-sandwich", "thm-vizing", "thm-lex", "lemma-cartesian-sum",
    "thm-bounds", "lemma-cgraph", "thm-cgraph-exact", "lemma-c1graph",
    "thm-c1-lower", "cor-cgraphs-i", "cor-cgraphs-ii", "cor-cgraphs-iii",
    "cor-cgraphs-iv", "cor-cgraphs-v", "thm-oddcycle-bounds",
    "thm-odd-odd-beta", "thm-odd-odd-bounds", "remark-c3",
)

# A fresh interpreter made ready for the workload: the program imported and
# the request set built.  The import is timed first, cold, before any of the
# benchmark's modules loads; the build runs under the speed gauge, whose
# samples also follow the import.  Prints that time at nominal host speed,
# then as measured.  argv: src dir, bench dir, workload, seed, seconds,
# output dir.
SETUP_SNIPPET = """\
import sys, time
start = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import strongdim.cli
elapsed = time.perf_counter() - start
import speed, workloads
gauge = speed.Gauge()
start = time.perf_counter()
gauge.start()
workloads.build(sys.argv[3], int(sys.argv[4]), float(sys.argv[5]), sys.argv[6])
elapsed += time.perf_counter() - start - gauge.stop()
print(elapsed / gauge.slowdown(0), elapsed)
"""


def machine_info(seed):
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "seed": seed,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def git_sha():
    """HEAD of the checkout, read from .git without running git; a checkout
    that is not a repository has none."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(FileNotFoundError):
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(workload, seed, seconds):
    """Median time, at nominal host speed and as measured, that a fresh
    interpreter takes to import the program and build the request set."""
    argv = [sys.executable, "-c", SETUP_SNIPPET, SRC, BENCH_DIR, workload,
            str(seed), str(seconds), OUT_DIR]
    nominal, measured = [], []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(argv, check=True, cwd=ROOT, capture_output=True,
                             text=True).stdout.split()
        nominal.append(float(out[0]))
        measured.append(float(out[1]))
    return statistics.median(nominal), statistics.median(measured)


def send(cli, argv):
    """One request: returns (seconds, exit code, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        elapsed = time.perf_counter() - start
        error = f"exit {exc.code}: {err.getvalue().strip()[-200:]}"
    except Exception:  # a request that raises is a failed request, not a crash
        elapsed = time.perf_counter() - start
        error = traceback.format_exc(limit=3).strip()
    else:
        elapsed = time.perf_counter() - start
    return elapsed, rc, out.getvalue(), error


def answer_of(wl, req, rc, stdout, error):
    """(answer, why it failed): the answer is reduced before the next request."""
    if error is not None:
        return None, error
    if rc != req.expect_rc:
        return None, f"exit code {rc}, want {req.expect_rc}"
    try:
        return wl.digest(req, stdout), None
    except (ValueError, KeyError, TypeError, OSError) as exc:
        return None, f"unreadable answer: {exc!r}"


def tail_of(times):
    """Time at the highest percentile that leaves TAIL_BEYOND requests beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    value = ordered[n - TAIL_BEYOND - 1]
    return value, 100.0 * (n - TAIL_BEYOND) / n


def digest_json(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def load_benchmark_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "strongdim", "cli.py")):
        print(f"error: no program to benchmark: {SRC}/strongdim is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import strongdim.cli as cli
    import workloads as wl
    import spans
    import speed

    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(SRC, "strongdim"):
        print(f"error: strongdim was imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {wl.WORKLOADS}", file=sys.stderr)
        return 2
    e2e_names, layer_names = load_benchmark_names()
    os.makedirs(OUT_DIR, exist_ok=True)

    info = machine_info(args.seed)
    setup_s, setup_raw_s = ((None, None) if args.trace else
                            measure_setup(args.workload, args.seed, args.seconds))
    requests = wl.build(args.workload, args.seed, args.seconds, OUT_DIR)
    cover_values = wl.load_cover_values() if args.workload == "cover-search" else None
    tracer = spans.Tracer()

    # The request set and the imported program are long-lived; keep them out
    # of the collector's scans so they do not slow the program's collections.
    gc.collect()
    gc.freeze()

    gauge = speed.Gauge()
    runs = []  # (mode, time as measured, time less the speed samples inside it)
    answers, failures = [], []
    for i, req in enumerate(requests):
        modes = ("plain", "traced") if i % 2 == 0 else ("traced", "plain")
        results = {}
        for mode in (modes if args.trace else ("plain",)):
            # Each request starts from an empty collector, so where the
            # program's collections fall does not depend on request order.
            gc.collect()
            if mode == "traced":
                tracer.request = i
                tracer.install()
            try:
                gauge.start()
                elapsed, rc, stdout, error = send(cli, req.argv)
                sampled = gauge.stop()
            finally:
                tracer.uninstall()  # nothing to undo after a plain run
            runs.append((mode, elapsed, elapsed - sampled))
            results[mode] = answer_of(wl, req, rc, stdout, error)
        answer, why = results["plain"]
        if why is None and args.trace and results["traced"] != results["plain"]:
            why = "traced answer differs from the plain one"
        answers.append(answer)
        failures.append(why)

    nominal = gauge.scale([t for _, _, t in runs])
    plain = [k for k, run in enumerate(runs) if run[0] == "plain"]
    plain_times = [runs[k][2] for k in plain]
    raw_times = [runs[k][1] for k in plain]
    plain_nominal = [nominal[k] for k in plain]

    # Answer checks, outside the timed section.
    first_answer = {}
    for i, (req, answer) in enumerate(zip(requests, answers)):
        if failures[i] is not None:
            continue
        failures[i] = wl.check(req, answer, cover_values)
        seen = first_answer.setdefault(req.label, answer)
        if failures[i] is None and seen != answer:
            failures[i] = "repeated request gave a different answer"

    attempted = len(requests)
    failed = sum(why is not None for why in failures)
    distinct = {}
    for i, req in enumerate(requests):
        distinct.setdefault(req.label, i)
    fingerprint = [
        dict(request=label, **wl.fingerprint_of(requests[i], answers[i]))
        if answers[i] is not None else {"request": label, "failed": True}
        for label, i in distinct.items()
    ]

    print(f"# workload {args.workload}  seed {info['seed']}  git {info['git_sha']}  "
          f"python {info['python']}  nproc {info['nproc']}  cpu {info['cpu']}")
    print(f"# {attempted} requests, closed loop, one client; trace={args.trace}")
    for i, why in enumerate(failures):
        if why is not None:
            print(f"FAILED {requests[i].label}: {why}")

    per_label = {}
    for i, req in enumerate(requests):
        per_label.setdefault(req.label, []).append(plain_times[i])
    for row in fingerprint:
        t = statistics.median(per_label[row["request"]])
        detail = " ".join(f"{k}={v}" for k, v in row.items() if k != "request")
        print(f"  {row['request']:<26} {t:9.4f} s  {detail}")
    answers_digest = digest_json(fingerprint)
    print(f"fingerprint.answers = {answers_digest}")

    if args.trace:
        counters = spans.counters_by_request(tracer.spans)
        counters_by_label = {label: counters.get(i, {}) for label, i in distinct.items()}
        print(f"fingerprint.counters = {digest_json(counters_by_label)}")
        if tracer.missing:
            print(f"# not in the program, reported as 0: {sorted(tracer.missing)}")
        metrics = spans.per_layer(tracer.spans, CLAIM_IDS)
        traced_nominal = [t for t, run in zip(nominal, runs) if run[0] == "traced"]
        metrics["trace.overhead_s"] = (sum(traced_nominal) - sum(plain_nominal), "s")
        names = layer_names
    else:
        counters_by_label = None
        p50 = statistics.median(plain_nominal)
        tail, pct = tail_of(plain_nominal)
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (sum(plain_nominal), "s"),
            "request_p50_s": (p50, "s"),
            "request_tail_s": (tail, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        names = e2e_names
        print(f"request_tail_s is p{pct:.1f}: {TAIL_BEYOND} of {attempted} requests beyond it")
        print(f"setup_s is the median of {SETUP_RUNS} fresh interpreters")
        slowdown = statistics.median(gauge.slowdown(k) for k in range(len(runs)))
        print(f"times are at nominal host speed (see speed.py): the host ran {slowdown:.3f}x "
              f"slower over {gauge.count()} speed samples; measured as is: "
              f"wall {sum(raw_times):.4f} s, p50 {statistics.median(raw_times):.4f} s, "
              f"tail {tail_of(raw_times)[0]:.4f} s, setup {setup_raw_s:.4f} s")
        print(f"fail_ratio = {failed / attempted:.4f} 1 ({failed} of {attempted})")
    if set(metrics) != set(names):
        print(f"error: metrics {sorted(set(metrics) ^ set(names))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 2
    for name in names:
        value, unit = metrics[name]
        print(f"{name} = {value:.6g} {unit}")

    record = {"info": info, "workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "answers": fingerprint,
              "answers_digest": answers_digest, "counters": counters_by_label,
              "times": [[req.label, t] for req, t in zip(requests, plain_times)]}
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request", "counts"],
                       "spans": tracer.spans}, fh)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
