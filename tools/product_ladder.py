"""Time where a ``product --dim-s`` request spends its time, rung by rung.

    PYTHONPATH=src python3 tools/product_ladder.py [--repeats R] [--only NAME ...]

Each rung is one strong product of the benchmark's ``product-large`` ladder,
run in this process as ``strongdim product strong G H --dim-s --format json``
with its standard output captured.  The script wraps, from outside, the
functions the request goes through: ``dimension.product_dimension`` (the
whole answer); inside it, ``predicted_mmd_edges`` (the SR graph predicted
from the factors, wrapped in ``dimension``'s namespace, which imports it by
name) and ``dimension.is_strong_generator`` (the definitional check);
``graph.to_graph6`` (the product's and its SR graph's strings) and
``cli.to_json`` (the JSON text, the SR graph's edge list included: it is
written there, straight from the graph's rows).  Per rung it prints the
median over the repeats of the request's wall time and of each function's
time within it, all in milliseconds, and the rest of the request (parsing,
the product build and labels) as ``other``.  The next column is the same
product given as one graph6 string, ``strongdim compute dim-s <graph6>
--format json``, timed whole; each repeat runs the two requests in turn.
The last, ``_dilate calls``, counts in one more ``product`` request, not
timed, the calls to ``dimension._dilate``, the generator check's layer step:
a count that does not depend on the host.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import statistics
import time

from strongdim import cli, dimension, graph, products

LADDER = {
    "P30xP30": ("path:30", "path:30"),
    "P18xP48": ("path:18", "path:48"),
    "C12xP50": ("cycle:12", "path:50"),
    "K6xP60": ("complete:6", "path:60"),
    "C21xP8": ("cycle:21", "path:8"),
}

# (module, function) wrapped during a request; the column is the function name
TIMED = (
    (dimension, "product_dimension"),
    (dimension, "predicted_mmd_edges"),
    (dimension, "is_strong_generator"),
    (graph, "to_graph6"),
    (cli, "to_json"),
)


def _timed_request(argv):
    """(request seconds, {function name: seconds inside it}, stdout) of one request."""
    spent = {name: 0.0 for _, name in TIMED}
    originals = [(module, name, getattr(module, name)) for module, name in TIMED]

    def wrap(fn, name):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[name] += time.perf_counter() - start
        return timed

    for module, name, fn in originals:
        setattr(module, name, wrap(fn, name))
    out = io.StringIO()
    try:
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        total = time.perf_counter() - start
    finally:
        for module, name, fn in originals:
            setattr(module, name, fn)
    if rc != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {rc}")
    return total, spent, out.getvalue()


def _dilate_calls(argv):
    """How many times one request calls ``dimension._dilate``, wrapped from outside."""
    calls = 0
    real = dimension._dilate

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    dimension._dilate = counted
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
    finally:
        dimension._dilate = real
    return calls


def measure(name, repeats):
    g, h = LADDER[name]
    argv = ["product", "strong", g, h, "--dim-s", "--format", "json"]
    prod = products.product("strong", graph.generate(g), graph.generate(h))
    compute_argv = ["compute", "dim-s", graph.to_graph6(prod), "--format", "json"]
    totals, computes, parts = [], [], {fn: [] for _, fn in TIMED}
    for _ in range(repeats):
        total, spent, _ = _timed_request(argv)
        totals.append(total)
        for fn, secs in spent.items():
            parts[fn].append(secs)
        computes.append(_timed_request(compute_argv)[0])
    ms = {fn: statistics.median(values) * 1000 for fn, values in parts.items()}
    total = statistics.median(totals) * 1000
    # predicted_mmd_edges and is_strong_generator run inside product_dimension,
    # so they are not subtracted twice
    other = total - ms["product_dimension"] - ms["to_graph6"] - ms["to_json"]
    return [name, f"{total:.1f}", *(f"{ms[fn]:.1f}" for _, fn in TIMED), f"{other:.1f}",
            f"{statistics.median(computes) * 1000:.1f}", str(_dilate_calls(argv))]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=7, help="requests per rung")
    parser.add_argument("--only", nargs="+", choices=list(LADDER), help="rungs to run")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    columns = ["rung", "request ms", *(fn + " ms" for _, fn in TIMED), "other ms",
               "compute dim-s ms", "_dilate calls"]
    print("| " + " | ".join(columns) + " |")
    print("|---" * len(columns) + "|")
    for name in args.only or LADDER:
        print("| " + " | ".join(measure(name, args.repeats)) + " |", flush=True)


if __name__ == "__main__":
    main()
