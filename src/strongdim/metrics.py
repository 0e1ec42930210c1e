"""Shortest-path metric and structural classifiers (antipodality, block graphs).

Distances are exact hop counts, kept as distance balls grown for all sources
at once, one radius at a time: each ball is the union of its neighbours'
balls one radius smaller, and their intersection, taken in the same loop,
gives the rows of the strong resolving graph.
"""

from __future__ import annotations

from .graph import Graph, bits, component_masks

__all__ = [
    "DistanceMatrix",
    "all_pairs_distances",
    "is_connected",
    "is_two_antipodal",
    "cut_vertices",
    "is_generalized_tree",
    "leaf_count",
]


class DistanceMatrix:
    """All-pairs hop distances, kept as per-source distance balls (bitmasks).

    ``balls[v][k]`` is the bitmask of vertices within distance k of v; the
    last entry is v's whole reachable set.  The balls power the O(1)
    maximal-distance tests in the strong resolving machinery.  ``far[v]`` is
    the set of vertices from which v is maximally distant.
    """

    __slots__ = ("n", "balls", "far")

    def __init__(self, n: int, balls: list[list[int]], far: list[int]):
        self.n = n
        self.balls = balls
        self.far = far

    def ball(self, v: int, radius: int) -> int:
        """Bitmask of vertices within ``radius`` of v (clamped to reachability)."""
        if radius < 0:
            return 0
        levels = self.balls[v]
        return levels[radius] if radius < len(levels) else levels[-1]

    def connected(self) -> bool:
        """True iff the graph is connected: vertex 0 reaches every vertex."""
        return self.n > 0 and self.balls[0][-1] == (1 << self.n) - 1


def _grow(g: Graph, keep: bool) -> tuple[list[list[int]] | None, list[int], list[int]]:
    """(balls, F, reach): every vertex's distance balls if ``keep``, else
    ``None``; F[v], the vertices from which v is maximally distant; and each
    vertex's reachable set.  B(v, k + 1) = the union of B(w, k) over w in
    N(v), k >= 1, and a source drops out once its ball stops growing.  v is
    maximally distant from u at distance k iff N(v) lies within k of u, so
    F[v] gains layer_k(v) & AND over w in N(v) of B(w, k).
    """
    n = g.n
    # lists, not tuples: CPython keeps up to 2,000 freed tuples of each short
    # length on free lists, so tuples here leave memory held after the call.
    # Each is read from the top bit down; the pass only ORs and ANDs its balls
    nbrs = []
    for a in g.adj:
        nbrs.append(row := [])
        while a:
            row.append(w := a.bit_length() - 1)
            a ^= 1 << w
    last = [a | 1 << v for v, a in enumerate(g.adj)]  # B(v, 1)
    older = [1 << v for v in range(n)]  # B(v, 0)
    balls = [[b] if a == b else [b, a] for a, b in zip(last, older)] if keep else None
    far = [0] * n
    growing = [v for v in range(n) if g.adj[v]]
    while growing:
        prev = last[:]
        still = []
        for v in growing:
            ball = 0
            hit = prev[v] ^ older[v]  # layer_k(v)
            for w in nbrs[v]:
                b = prev[w]
                ball |= b
                hit &= b
            far[v] |= hit
            if ball != prev[v]:
                last[v] = ball
                if keep:
                    balls[v].append(ball)
                still.append(v)
        growing = still
        older = prev
    return balls, far, last


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """Every distance ball of every vertex, with ``far`` recorded."""
    balls, far, _ = _grow(g, keep=True)
    return DistanceMatrix(g.n, balls, far)


def is_connected(g: Graph) -> bool:
    return len(component_masks(g)) == 1


def _require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise ValueError("graph must be connected")


def is_two_antipodal(g: Graph) -> bool:
    """True iff every vertex has exactly one vertex at distance diam(G)."""
    _require_connected(g)
    balls = all_pairs_distances(g).balls
    d = max(map(len, balls)) - 1
    return all(len(b) == d + 1 and (b[d] ^ b[d - 1] if d else b[0]).bit_count() == 1
               for b in balls)


# ---------------------------------------------------------------------------
# cut vertices and block graphs
# ---------------------------------------------------------------------------


def cut_vertices(g: Graph) -> frozenset[int]:
    """Articulation points of a connected graph: the vertices v that leave
    more than two components (v alone and at least two others) once v's row
    and bit are cleared."""
    _require_connected(g)
    cuts = []
    for v in range(g.n):
        keep = ~(1 << v)
        rest = [a & keep for a in g.adj]
        rest[v] = 0
        if len(component_masks(Graph(g.n, rest))) > 2:
            cuts.append(v)
    return frozenset(cuts)


def is_generalized_tree(g: Graph) -> bool:
    """Block-graph test: every block induces a complete subgraph.

    Block graphs are exactly the chordal, diamond-free graphs.  No diamond:
    the common neighbourhood of every edge is a clique.  Chordal: simplicial
    vertices (whose neighbourhood is a clique) peel off until none are left.
    """
    _require_connected(g)
    adj = g.adj

    def is_clique(mask: int) -> bool:
        return all(mask & ~adj[w] == 1 << w for w in bits(mask))

    for u in range(g.n):
        for v in bits(adj[u] >> u << u):  # each edge once, as u < v
            if not is_clique(adj[u] & adj[v]):
                return False
    left = (1 << g.n) - 1
    while left:
        simplicial = next((v for v in bits(left) if is_clique(adj[v] & left)), None)
        if simplicial is None:
            return False
        left ^= 1 << simplicial
    return True


def leaf_count(g: Graph) -> int:
    _require_connected(g)
    return sum(1 for u in range(g.n) if g.degree(u) == 1)
