"""Time the exact cover routes on a fixed ladder of graphs.

    PYTHONPATH=src python3 tools/cover_ladder.py [--cap NODES] [--only NAME ...]

An instance named ``beta:X`` is the graph X itself, solved as given (its
cover is n - beta(X)); one named ``beta0:X``, for X = C_m x C_n, is X - N[0],
the residue whose beta the ``thm-odd-odd-beta`` claim searches (beta(X) is
one more); every other instance is the strong resolving graph of the graph
its name gives.  The script solves each with ``min_vertex_cover``
four times, each under a node cap: with every component sent to the colour
engine, once with its memo of finished candidate sets and once with
``MEMO_MAX = 0``, which keeps nothing; with every component sent to branch
and reduce with the frontier gate shut (``FRONTIER_MAX_WIDTH = 0``); and
with every root kernel that the clique bound leaves below the greedy cover
sent to the frontier DP (the gate forced open: ``_frontier_order`` builds
the order with cap n, which no width exceeds).  It prints theta-hat (the
largest greedy clique-partition count over the components, with its share
of that component's order), the cover size, each route's nodes and
seconds, for the frontier route the width of its order and the most states
it held after one step, and the seconds one ``_theta_hat`` call takes on
the largest component (both orders, each numbered from the top with its
partition counted: the preamble a route pays before it searches, unless the
greedy set settles the component first); ``>cap`` marks a route that ran
out of nodes, and ``-`` a width where no kernel reached the DP (the
reductions or the bound settled the root).  The engine rule's share
(``COLOUR_ENGINE_MAX_SHARE``) and the frontier gate's width cap
(``FRONTIER_MAX_WIDTH``) in ``strongdim.cover`` are fitted on this table;
the gate's other half, the root's own gap (the greedy cover less the clique
bound), is not.  The colour routes set the share to 1, which every
component meets, and the reduce and frontier routes set it to 0, which none
does.
"""

from __future__ import annotations

import argparse
import time

from strongdim import cover, verify
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


def _residue(m, n):
    return lambda: verify._vertex_residue(product("strong", cycle(m), cycle(n)), n)


LADDER = {
    "C3xC41": _strong(_cyc(3), _cyc(41)),
    "C9xC9": _strong(_cyc(9), _cyc(9)),
    "C15xC15": _strong(_cyc(15), _cyc(15)),
    "C21xC21": _strong(_cyc(21), _cyc(21)),
    "C11xC13": _strong(_cyc(11), _cyc(13)),
    "C5xP12": _strong(_cyc(5), _path(12)),
    "C5xP20": _strong(_cyc(5), _path(20)),
    "C5xP24": _strong(_cyc(5), _path(24)),
    "C4xP60": _strong(_cyc(4), _path(60)),
    "P9xC9": _strong(_path(9), _cyc(9)),
    "C9xP20": _strong(_cyc(9), _path(20)),
    "C7xP30": _strong(_cyc(7), _path(30)),
    "C5xP60": _strong(_cyc(5), _path(60)),
    "C5xP200": _strong(_cyc(5), _path(200)),
    **{f"G100/.08/s{s}": _gnp(100, 0.08, s) for s in (1, 2, 3, 4)},
    "G100/.05/s1": _gnp(100, 0.05, 1),
    **{f"G80/.15/s{s}": _gnp(80, 0.15, s) for s in (1, 2)},
    "G60/.3/s1": _gnp(60, 0.3, 1),
    "G120/.1/s1": _gnp(120, 0.1, 1),
    "G120/.12/s1": _gnp(120, 0.12, 1),
    **{f"G150/.1/s{s}": _gnp(150, 0.1, s) for s in (1, 2)},
    **{f"G200/.05/s{s}": _gnp(200, 0.05, s) for s in (1, 2)},
    # beta of odd-odd products: long colour searches, where the memo pays
    "beta:C7xC9": _strong(_cyc(7), _cyc(9)),
    "beta:C9xC9": _strong(_cyc(9), _cyc(9)),
    "beta:C9xC11": _strong(_cyc(9), _cyc(11)),
    "beta:C11xC11": _strong(_cyc(11), _cyc(11)),
    # the residues X - N[0] that thm-odd-odd-beta searches in their place
    "beta0:C9xC11": _residue(9, 11),
    "beta0:C11xC11": _residue(11, 11),
}


GATES = ("COLOUR_ENGINE_MAX_SHARE", "FRONTIER_MAX_WIDTH", "MEMO_MAX")
ROUTES = ("colour", "no memo", "reduce", "frontier")


def _solve(g, route, cap):
    """(cover size or None, nodes, seconds, width, peak states) with every
    component sent to ``route``; width and peak are 0 unless the frontier DP
    ran, and the largest over its runs if it ran more than once."""
    saved = [getattr(cover, name) for name in GATES]
    memo, wide = saved[GATES.index("MEMO_MAX")], saved[GATES.index("FRONTIER_MAX_WIDTH")]
    settings = {"colour": (1, 0, memo), "no memo": (1, 0, 0),
                "reduce": (0, 0, memo), "frontier": (0, wide, memo)}[route]
    dp, placed = cover._frontier_mis, cover._frontier_order
    width = peak = 0

    def uncapped(adj, active, cap):
        return placed(adj, active, g.n)

    def traced(adj, order, leave, charge):
        nonlocal width, peak
        frontier = 0  # placed vertices with a neighbour still to come
        for gone in leave:
            frontier += 1 - gone.bit_count()
            width = max(width, frontier)

        def counted(states):
            nonlocal peak
            peak = max(peak, states)
            charge(states)

        return dp(adj, order, leave, counted)

    for name, value in zip(GATES, settings):
        setattr(cover, name, value)
    cover._frontier_mis = traced
    if route == "frontier":
        cover._frontier_order = uncapped
    try:
        t0 = time.perf_counter()
        res = cover.min_vertex_cover(g, cap)
        secs = time.perf_counter() - t0
    finally:
        for name, value in zip(GATES, saved):
            setattr(cover, name, value)
        cover._frontier_mis, cover._frontier_order = dp, placed
    return (res.size if res.proven_optimal else None), res.nodes_explored, secs, width, peak


def measure(name, cap):
    g = LADDER[name]()
    if not name.startswith(("beta:", "beta0:")):
        g = strong_resolving_graph(g).sr
    adj, bit = list(g.adj), cover._bit_table(g.n)
    hats = []  # (theta-hat, order, seconds of _theta_hat) per component
    for c in component_masks(g):
        t0 = time.perf_counter()
        theta = cover._theta_hat(adj, bit, c, -1)[0]  # -1: count min-width order too
        hats.append((theta, c.bit_count(), time.perf_counter() - t0))
    theta, order, _ = max(hats)
    hat_s = max(hats, key=lambda hat: hat[1])[2]
    row = [name, str(g.n), str(g.num_edges), f"{theta} ({theta / order:.2f})"]
    sizes = set()
    for route in ROUTES:
        size, nodes, secs, width, peak = _solve(g, route, cap)
        if size is None:
            row += [f">{cap}", f">{secs:.2f}"]
        else:
            sizes.add(size)
            row += [str(nodes), f"{secs:.3f}"]
    row += [str(width) if width else "-", str(peak)]  # of the frontier route, run last
    row.append(f"{hat_s:.4f}")
    if len(sizes) > 1:
        raise AssertionError(f"{name}: the routes disagree, {sorted(sizes)}")
    row.insert(4, str(sizes.pop()) if sizes else "?")
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cap", type=int, default=300_000, help="node cap per route")
    parser.add_argument("--only", nargs="+", choices=list(LADDER), help="instances to run")
    args = parser.parse_args(argv)
    print("| instance | n | m | theta-hat (/order) | cover | colour nodes | colour s "
          "| no-memo nodes | no-memo s | reduce nodes | reduce s "
          "| frontier nodes | frontier s | width | peak states | theta-hat s |")
    print("|---" * 16 + "|")
    for name in args.only or LADDER:
        print("| " + " | ".join(measure(name, args.cap)) + " |", flush=True)


if __name__ == "__main__":
    main()
