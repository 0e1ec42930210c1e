"""Definitional readings and oracles that the package no longer carries.

Every distance here comes from ``bfs_balls``, one breadth-first search per
source, never from the package's all-sources ball pass
(``strongdim.metrics._grow``) that these oracles referee.  ``distance_rows``
reads d(u, v) off any per-source distance balls: the oracle's own, or the
package's ``DistanceMatrix.balls`` when a test puts those under check.

``strongly_resolves`` reads strong resolution off one triple of distances;
the package checks a whole basis at once from distance balls
(``strongdim.dimension.is_strong_generator``).  ``is_maximally_distant`` and
``mutually_maximally_distant`` read the maximal-distance relation pair by
pair, where the package builds the strong resolving graph for all pairs at
once.  ``is_c1_graph`` composes the C1-graph test from the package's C-graph
test and the verifier's split search, as ``strongdim.verify.Env.c1_graph``
does with the run's cached answers.  ``brute_force_dimension`` finds dim_s, and
``brute_min_cover`` the vertex cover number, by subset enumeration, apart
from the SR-cover pipeline.  ``per_source_hulls`` sweeps each source's
full-width balls alone (the product's ``bfs_balls``, wherever it referees
the strong-product check), stepping by the graph's rows, where the
package's strong-product check reads only the factors' distance matrices
and sweeps all of a column's sources as blocks of one integer, each block
entering on the column's top layer with the reach of a narrow sweep of the
column's tail or of its own row's tail (``strongdim.dimension._product_hulls``).  ``max_clique`` runs the package's colour engine
on a complement, which the package itself never builds.  ``edge_list_form``
is the plain list that a ``strongdim.jsonout.EdgeList`` stands for, read
bit by bit off every pair of rows, where the JSON writer walks each row's
set bits and writes the text directly.  ``graphs_isomorphic`` backtracks
over degree classes for the tests that compare graphs up to relabelling;
the package's exhaustive corpus sweeps relabelling orbits of edge masks
instead (``strongdim.verify._all_connected_upto``) and never tests
isomorphism.
"""

import math
from itertools import combinations
from typing import NamedTuple, Sequence

from strongdim import cover, verify
from strongdim.cover import c_graph_partition
from strongdim.graph import Graph, bits, complement

BRUTE_FORCE_SIZE_CAP = 15

Rows = list[list[int | None]]


class BruteForceResult(NamedTuple):
    dim: int
    basis: frozenset[int]


def edge_list_form(edges) -> list[list]:
    """[names[u], names[v]] for each pair u < v whose rows hold each other, in (u, v) order."""
    rows, names = edges.rows, edges.names
    return [[names[u], names[v]] for u, v in combinations(range(len(rows)), 2)
            if rows[u] >> v & 1]


def bfs_balls(g: Graph, src: int) -> list[int]:
    """Per-source BFS: the balls of src, one per radius, up to its reachable
    set and with no repeat at the end."""
    seen = frontier = 1 << src
    levels = [seen]
    while True:
        nxt = 0
        for u in bits(frontier):
            nxt |= g.adj[u]
        frontier = nxt & ~seen
        if not frontier:
            return levels
        seen |= frontier
        levels.append(seen)


def distance_rows(balls: Sequence[Sequence[int]]) -> Rows:
    """d(u, v) for every pair, read off per-source distance balls: the first
    k with ``balls[u][k] >> v & 1``, and ``None`` where v lies outside u's
    last ball."""
    n = len(balls)
    rows = []
    for u in range(n):
        row: list[int | None] = [None] * n
        inner = 0
        for k, ball in enumerate(balls[u]):
            for v in bits(ball & ~inner):
                row[v] = k
            inner = ball
        rows.append(row)
    return rows


def bfs_rows(g: Graph) -> Rows:
    """d(u, v) for every pair by one BFS per source; ``None`` if unreachable."""
    return distance_rows([bfs_balls(g, u) for u in range(g.n)])


def per_source_hulls(prod: Graph, dm, members) -> list[int]:
    """H_u for every u outside ``members`` (0 for a member), each from its
    own reverse sweep over the full-width layers of ``dm.balls[u]``: a vertex
    at distance k from u is in H_u iff it is a member or has a neighbour, by
    ``prod``'s rows, in H_u at distance k + 1."""
    smask = sum(1 << w for w in set(members))
    hulls = [0] * prod.n
    for u in range(prod.n):
        if smask >> u & 1:
            continue
        levels = dm.balls[u]
        reach = 0
        for k in range(len(levels) - 1, 0, -1):
            nbrs = 0
            for w in bits(reach):
                nbrs |= prod.adj[w]
            reach = levels[k] & ~levels[k - 1] & (smask | nbrs)
            hulls[u] |= reach
    return hulls


def strongly_resolves(rows: Rows, w: int, u: int, v: int) -> bool:
    """True iff some shortest w-u path passes v or some shortest w-v path passes u."""
    if u == v:
        raise ValueError("strong resolution is defined for distinct vertices")
    dwu, dwv, duv = rows[w][u], rows[w][v], rows[u][v]
    if dwu is None or dwv is None or duv is None:
        raise ValueError("strong resolution needs a connected graph")
    return dwu == dwv + duv or dwv == dwu + duv


def is_maximally_distant(rows: Rows, g: Graph, u: int, v: int) -> bool:
    """True iff no neighbor of u is strictly farther from v than u is.

    Not symmetric in (u, v).
    """
    d = rows[v][u]
    if d is None:
        raise ValueError("maximal distance is undefined for unreachable pairs")
    return all(rows[v][w] <= d for w in bits(g.adj[u]))


def mutually_maximally_distant(rows: Rows, g: Graph, u: int, v: int) -> bool:
    return is_maximally_distant(rows, g, u, v) and is_maximally_distant(rows, g, v, u)


def is_c1_graph(g: Graph, independent: frozenset[int], node_budget: int) -> bool:
    """True iff g is not a C-graph but V(g) minus one vertex b partitions into
    beta(g) cliques, for a maximum independent set that the caller holds;
    ``node_budget`` nodes for the C-graph test, and as many for the searches
    on every V(g) - b together."""
    return (c_graph_partition(g, independent, node_budget)[0] is None
            and verify._splits_less_a_vertex(g, independent, node_budget))


def max_clique(g: Graph) -> frozenset[int]:
    """Exact maximum clique: the colour engine on the complement of g, with
    no budget."""
    if g.n == 0:
        return frozenset()
    search = cover._ColourSearch([0, *complement(g).adj], cover._bit_table(g.n), math.inf)
    return frozenset(bits(search.run((1 << g.n) - 1, 1)))


def graphs_isomorphic(a: Graph, b: Graph) -> bool:
    """Exact isomorphism test by backtracking over degree classes."""
    if a.n != b.n or a.num_edges != b.num_edges:
        return False
    ca = [a.degree(u) for u in range(a.n)]
    cb = [b.degree(x) for x in range(b.n)]
    if sorted(ca) != sorted(cb):
        return False

    n = a.n
    order = sorted(range(n), key=lambda u: (ca.count(ca[u]), ca[u], u))
    mapping = [-1] * n
    used = 0

    def extend(pos: int) -> bool:
        nonlocal used
        if pos == n:
            return True
        u = order[pos]
        for x in range(n):
            if (used >> x) & 1 or cb[x] != ca[u]:
                continue
            if all(a.adj[u] >> order[q] & 1 == b.adj[x] >> mapping[order[q]] & 1
                   for q in range(pos)):
                mapping[u] = x
                used |= 1 << x
                if extend(pos + 1):
                    return True
                used ^= 1 << x
                mapping[u] = -1
        return False

    return extend(0)


def brute_min_cover(g: Graph) -> int:
    """Vertex cover number by subset enumeration, increasing size."""
    edges = list(g.edges())
    for k in range(g.n + 1):
        for subset in combinations(range(g.n), k):
            s = set(subset)
            if all(u in s or v in s for u, v in edges):
                return k
    raise AssertionError


def brute_force_dimension(
    g: Graph, size_cap: int = BRUTE_FORCE_SIZE_CAP
) -> BruteForceResult:
    """Independent oracle: smallest strong generator by subset enumeration,
    increasing size, lexicographic within a size class."""
    if g.n > size_cap:
        raise ValueError(f"brute force capped at {size_cap} vertices")
    if g.n < 2:
        raise ValueError("strong metric dimension needs n >= 2")
    rows = bfs_rows(g)
    if None in rows[0]:
        raise ValueError("strong metric dimension needs a connected graph")
    # resolver mask per vertex pair; a generator must hit every one
    pair_masks = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            duv = rows[u][v]
            mask = 0
            for w in range(g.n):
                if rows[w][u] == rows[w][v] + duv or rows[w][v] == rows[w][u] + duv:
                    mask |= 1 << w
            pair_masks.append(mask)
    pair_masks.sort(key=lambda m: m.bit_count())  # scarcest resolvers first
    for k in range(1, g.n + 1):
        for subset in combinations(range(g.n), k):
            smask = 0
            for w in subset:
                smask |= 1 << w
            if all(smask & m for m in pair_masks):
                return BruteForceResult(k, frozenset(subset))
    raise AssertionError("the full vertex set must be a strong generator")
