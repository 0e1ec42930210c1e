"""Time both exact cover engines on a fixed ladder of SR graphs.

    PYTHONPATH=src python3 tools/cover_ladder.py [--cap NODES] [--only NAME ...]

For each instance the script builds the strong resolving graph and solves it
with ``min_vertex_cover`` twice: once with every component sent to the colour
engine and once with every component sent to branch and reduce, each under a
node cap.  It prints theta-hat (the largest greedy clique-partition count over
the components, with its share of that component's order), the cover size,
and each engine's nodes and seconds; ``>cap`` marks an engine that ran out of
nodes.  ``COLOUR_ENGINE_MAX_THETA`` in ``strongdim.cover`` is fitted on this
table.
"""

from __future__ import annotations

import argparse
import time

from strongdim import cover
from strongdim.graph import component_masks, cycle, path, random_connected
from strongdim.products import product
from strongdim.resolving import strong_resolving_graph


def _strong(a, b):
    return lambda: product("strong", a(), b())


def _cyc(n):
    return lambda: cycle(n)


def _path(n):
    return lambda: path(n)


def _gnp(n, p, seed):
    return lambda: random_connected(n, p, seed)


LADDER = {
    "C3xC41": _strong(_cyc(3), _cyc(41)),
    "C9xC9": _strong(_cyc(9), _cyc(9)),
    "C15xC15": _strong(_cyc(15), _cyc(15)),
    "C21xC21": _strong(_cyc(21), _cyc(21)),
    "C11xC13": _strong(_cyc(11), _cyc(13)),
    "C5xP12": _strong(_cyc(5), _path(12)),
    "P9xC9": _strong(_path(9), _cyc(9)),
    "C9xP20": _strong(_cyc(9), _path(20)),
    "C7xP30": _strong(_cyc(7), _path(30)),
    "C5xP60": _strong(_cyc(5), _path(60)),
    **{f"G100/.08/s{s}": _gnp(100, 0.08, s) for s in (1, 2, 3, 4)},
    "G100/.05/s1": _gnp(100, 0.05, 1),
    **{f"G80/.15/s{s}": _gnp(80, 0.15, s) for s in (1, 2)},
    "G60/.3/s1": _gnp(60, 0.3, 1),
    "G120/.1/s1": _gnp(120, 0.1, 1),
    "G120/.12/s1": _gnp(120, 0.12, 1),
    **{f"G150/.1/s{s}": _gnp(150, 0.1, s) for s in (1, 2)},
    **{f"G200/.05/s{s}": _gnp(200, 0.05, s) for s in (1, 2)},
}


def _solve(sr, colour, cap):
    """(cover size or None, nodes, seconds) with every component sent to the
    colour engine (``colour`` true) or to branch and reduce."""
    saved = cover.COLOUR_ENGINE_MAX_SHARE, cover.COLOUR_ENGINE_MAX_THETA
    cover.COLOUR_ENGINE_MAX_SHARE, cover.COLOUR_ENGINE_MAX_THETA = (
        (1, sr.n) if colour else (0, -1))
    try:
        t0 = time.perf_counter()
        res = cover.min_vertex_cover(sr, cap)
        secs = time.perf_counter() - t0
    finally:
        cover.COLOUR_ENGINE_MAX_SHARE, cover.COLOUR_ENGINE_MAX_THETA = saved
    return (res.size if res.proven_optimal else None), res.nodes_explored, secs


def measure(name, cap):
    sr = strong_resolving_graph(LADDER[name]()).sr
    adj = list(sr.adj)
    theta, order = max((cover._colour_input(adj, c)[0], c.bit_count())
                       for c in component_masks(sr))
    row = [name, str(sr.n), str(sr.num_edges), f"{theta} ({theta / order:.2f})"]
    sizes = set()
    for colour in (True, False):
        size, nodes, secs = _solve(sr, colour, cap)
        if size is None:
            row += [f">{cap}", f">{secs:.2f}"]
        else:
            sizes.add(size)
            row += [str(nodes), f"{secs:.3f}"]
    if len(sizes) > 1:
        raise AssertionError(f"{name}: the engines disagree, {sorted(sizes)}")
    row.insert(4, str(sizes.pop()) if sizes else "?")
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cap", type=int, default=300_000, help="node cap per engine")
    parser.add_argument("--only", nargs="+", choices=list(LADDER), help="instances to run")
    args = parser.parse_args(argv)
    print("| instance | n | m | theta-hat (/order) | cover | colour nodes | colour s "
          "| reduce nodes | reduce s |")
    print("|---" * 9 + "|")
    for name in args.only or LADDER:
        print("| " + " | ".join(measure(name, args.cap)) + " |", flush=True)


if __name__ == "__main__":
    main()
