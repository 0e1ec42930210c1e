"""Shortest-path metric and structural classifiers (antipodality, blocks).

Distances are exact BFS hop counts.  Unreachable pairs carry ``None`` --- a
dedicated sentinel that fails fast in arithmetic instead of corrupting
max/min comparisons.
"""

from __future__ import annotations

from typing import Sequence

from .graph import Graph, component_masks

__all__ = [
    "DistanceMatrix",
    "all_pairs_distances",
    "is_connected",
    "diameter",
    "is_two_antipodal",
    "cut_vertices",
    "blocks",
    "is_generalized_tree",
    "leaf_count",
]


class DistanceMatrix:
    """All-pairs hop distances, kept as per-source distance balls (bitmasks).

    ``balls[v][k]`` is the bitmask of vertices within distance k of v; the
    last entry is v's whole reachable set.  The balls power the O(1)
    maximal-distance tests in the strong resolving machinery.
    """

    __slots__ = ("n", "balls")

    def __init__(self, n: int, balls: Sequence[Sequence[int]]):
        self.n = n
        self.balls = balls

    def dist(self, u: int, v: int) -> int | None:
        """The first ball level of u that contains v; ``None`` if none does."""
        for d, ball in enumerate(self.balls[u]):
            if ball >> v & 1:
                return d
        return None

    def ball(self, v: int, radius: int) -> int:
        """Bitmask of vertices within ``radius`` of v (clamped to reachability)."""
        if radius < 0:
            return 0
        levels = self.balls[v]
        return levels[radius] if radius < len(levels) else levels[-1]

    def eccentricity(self, v: int) -> int:
        """Largest finite distance from v."""
        return len(self.balls[v]) - 1

    def finite_diameter(self) -> int:
        return max(self.eccentricity(v) for v in range(self.n))


def _bfs_balls(adj: Sequence[int], src: int) -> list[int]:
    seen = frontier = 1 << src
    levels = [seen]
    while True:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= adj[low.bit_length() - 1]
            f ^= low
        frontier = nxt & ~seen
        if not frontier:
            return levels
        seen |= frontier
        levels.append(seen)


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    return DistanceMatrix(g.n, [_bfs_balls(g.adj, v) for v in range(g.n)])


def is_connected(g: Graph) -> bool:
    return len(component_masks(g)) == 1


def _require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise ValueError("graph must be connected")


def diameter(g: Graph, dm: DistanceMatrix | None = None) -> int:
    _require_connected(g)
    dm = dm or all_pairs_distances(g)
    return dm.finite_diameter()


def is_two_antipodal(g: Graph, dm: DistanceMatrix | None = None) -> bool:
    """True iff every vertex has exactly one vertex at distance diam(G)."""
    _require_connected(g)
    dm = dm or all_pairs_distances(g)
    d = dm.finite_diameter()
    for v in range(g.n):
        levels = dm.balls[v]
        if len(levels) - 1 != d:
            return False
        at_diam = levels[d] & ~levels[d - 1] if d > 0 else levels[0]
        if at_diam.bit_count() != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# blocks and cut vertices (iterative Hopcroft-Tarjan)
# ---------------------------------------------------------------------------


def _block_structure(g: Graph) -> tuple[frozenset[int], list[frozenset[int]]]:
    _require_connected(g)
    n = g.n
    if n == 1:
        return frozenset(), [frozenset({0})]

    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    cut = set()
    comp_edges: list[list[tuple[int, int]]] = []
    edge_stack: list[tuple[int, int]] = []
    timer = 0

    # stack entries: (vertex, iterator over neighbors)
    stack = [(0, iter(list(g.neighbors(0))))]
    disc[0] = low[0] = timer
    timer += 1
    root_children = 0

    while stack:
        u, it = stack[-1]
        advanced = False
        for v in it:
            if disc[v] == -1:
                parent[v] = u
                if u == 0:
                    root_children += 1
                edge_stack.append((u, v))
                disc[v] = low[v] = timer
                timer += 1
                stack.append((v, iter(list(g.neighbors(v)))))
                advanced = True
                break
            elif v != parent[u] and disc[v] < disc[u]:
                edge_stack.append((u, v))
                low[u] = min(low[u], disc[v])
        if advanced:
            continue
        stack.pop()
        if stack:
            p = stack[-1][0]
            low[p] = min(low[p], low[u])
            if low[u] >= disc[p]:
                comp = []
                while edge_stack and edge_stack[-1] != (p, u):
                    comp.append(edge_stack.pop())
                comp.append(edge_stack.pop())
                comp_edges.append(comp)
                if p != 0:
                    cut.add(p)
    if root_children >= 2:
        cut.add(0)

    blocks_out = [
        frozenset(x for edge in comp for x in edge) for comp in comp_edges
    ]
    return frozenset(cut), blocks_out


def cut_vertices(g: Graph) -> frozenset[int]:
    """Articulation points of a connected graph."""
    return _block_structure(g)[0]


def blocks(g: Graph) -> list[frozenset[int]]:
    """Vertex sets of the maximal biconnected subgraphs, in discovery order."""
    return _block_structure(g)[1]


def is_generalized_tree(g: Graph) -> bool:
    """Block-graph test: every block induces a complete subgraph."""
    _require_connected(g)
    for block in blocks(g):
        mask = 0
        for v in block:
            mask |= 1 << v
        for v in block:
            if g.adj[v] & mask != mask ^ (1 << v):
                return False
    return True


def leaf_count(g: Graph) -> int:
    _require_connected(g)
    return sum(1 for u in range(g.n) if g.degree(u) == 1)
