"""Mutually-maximally-distant machinery: boundary, strong resolving graph,
and the factor-level prediction of MMD pairs in a strong product.

``predicted_mmd_edges`` evaluates only factor distances and factor MMD
relations --- no BFS on the product --- so comparing it against the directly
computed strong resolving graph of the product is a genuine two-route check.
"""

from __future__ import annotations

from operator import and_, xor

from .graph import Graph, bits, to_dot
from .metrics import DistanceMatrix, all_pairs_distances, is_connected
from .products import ProductSpec, coordinate_labels

__all__ = [
    "SRGraph",
    "PredictedSR",
    "is_maximally_distant",
    "mutually_maximally_distant",
    "strong_resolving_graph",
    "boundary",
    "predicted_mmd_edges",
    "sr_to_dot",
]


def is_maximally_distant(dm: DistanceMatrix, g: Graph, u: int, v: int) -> bool:
    """True iff no neighbor of u is strictly farther from v than u is.

    Not symmetric in (u, v).
    """
    d = dm.dist(u, v)
    if d is None:
        raise ValueError("maximal distance is undefined for unreachable pairs")
    return g.adj[u] & ~dm.ball(v, d) == 0


def mutually_maximally_distant(dm: DistanceMatrix, g: Graph, u: int, v: int) -> bool:
    return is_maximally_distant(dm, g, u, v) and is_maximally_distant(dm, g, v, u)


class SRGraph:
    """The strong resolving graph of a graph, on the graph's own ids."""

    __slots__ = ("sr",)

    def __init__(self, sr: Graph):
        self.sr = sr

    @property
    def boundary(self) -> frozenset[int]:
        """Vertices in at least one MMD pair = non-isolated vertices of sr."""
        return frozenset(u for u in range(self.sr.n) if self.sr.adj[u])

    def __repr__(self) -> str:
        return f"SRGraph(n={self.sr.n}, sr_edges={self.sr.num_edges})"


def strong_resolving_graph(g: Graph, dm: DistanceMatrix | None = None) -> SRGraph:
    """Graph on V(g) whose edges are exactly the MMD pairs of g.

    v is maximally distant from u iff every neighbour w of v lies within
    d(u, v) of u.  Read from v's side, that is

        F[v] = union over k of  layer_k(v) & AND over w in N(v) of B(w, k),

    the set of all u from which v is maximally distant, and the SR graph is
    F & transpose(F).  B(w, k) is every vertex once k >= ecc(w), so those
    balls are skipped; v's own last layer is intersected like the others.
    """
    if g.n < 2:
        raise ValueError("strong resolving graph needs n >= 2")
    if not is_connected(g):
        raise ValueError("strong resolving graph needs a connected graph")
    dm = dm or all_pairs_distances(g)
    n = g.n
    balls = dm.balls
    inner = [levels[1:-1] for levels in balls]  # B(w, k) for 1 <= k < ecc(w)
    far = []
    for v in range(n):
        levels = balls[v]
        layers = list(map(xor, levels[1:], levels))  # layer_k(v) for k >= 1
        for w in bits(g.adj[v]):
            iw = inner[w]
            layers[:len(iw)] = map(and_, layers, iw)  # the map is read out before the store
        far.append(sum(layers))  # the layers are disjoint, so sum is union
    return SRGraph(Graph(n, list(map(and_, far, _transpose(far, n)))))


def _transpose(rows: list[int], n: int) -> list[int]:
    """Bit-matrix transpose of n rows of n bits: bit v of row u of the result
    is bit u of rows[v].  Each row becomes an n-digit bit string, ``zip``
    reads off the columns and one ``int(..., 2)`` parses each, all in C."""
    width = f"0{n}b"
    cols = [int("".join(col), 2) for col in zip(*[format(r, width) for r in reversed(rows)])]
    cols.reverse()
    return cols


def boundary(g: Graph) -> frozenset[int]:
    return strong_resolving_graph(g).boundary


# ---------------------------------------------------------------------------
# predicted MMD pairs of a strong product (factor-level only)
# ---------------------------------------------------------------------------


class PredictedSR:
    """Predicted strong resolving graph of a strong product.

    Edges come from five factor-level conditions; ``condition(p, q)`` reports
    the first condition (1..5) that fires for a predicted edge.  ``dm_g`` and
    ``dm_h`` are the factors' distance matrices the prediction was built on.
    """

    __slots__ = ("spec", "graph", "_sr_g", "_sr_h", "dm_g", "dm_h")

    def __init__(self, spec, graph, sr_g, sr_h, dm_g, dm_h):
        self.spec = spec
        self.graph = graph
        self._sr_g = sr_g
        self._sr_h = sr_h
        self.dm_g = dm_g
        self.dm_h = dm_h

    def condition(self, p: int, q: int) -> int:
        if not self.graph.has_edge(p, q):
            raise ValueError(f"({p},{q}) is not a predicted MMD pair")
        u, v = self.spec.decode(p)
        x, y = self.spec.decode(q)
        mmd_g = u != x and self._sr_g.has_edge(u, x)
        mmd_h = v != y and self._sr_h.has_edge(v, y)
        dg = self.dm_g.dist(u, x)
        dh = self.dm_h.dist(v, y)
        if mmd_g and mmd_h:
            return 1
        if mmd_g and v == y:
            return 2
        if mmd_h and u == x:
            return 3
        if mmd_g and dg > dh:
            return 4
        if mmd_h and dg < dh:
            return 5
        raise AssertionError("predicted edge matches no condition")

    def condition_histogram(self) -> dict[int, int]:
        hist = {i: 0 for i in range(1, 6)}
        for p, q in self.graph.edges():
            hist[self.condition(p, q)] += 1
        return hist


def _one_sided_pred(n1: int, n2: int, sr_g: Graph, sr_h: Graph,
                    dm_g: DistanceMatrix, dm_h: DistanceMatrix) -> list[int]:
    """Pairs {(u,v),(x,y)} with u,x MMD in G and (v,y MMD in H, v=y, or d_H < d_G).

    Returned as adjacency bitmasks over u*n2+v ids.
    """
    pred = [0] * (n1 * n2)
    ball = dm_h.ball
    sr_h_adj = sr_h.adj
    for u in range(n1):
        base = u * n2
        for x in bits(sr_g.adj[u]):
            dg = dm_g.dist(u, x)
            shift = x * n2
            for v in range(n2):
                ymask = sr_h_adj[v] | ball(v, dg - 1)
                pred[base + v] |= ymask << shift
    return pred


def predicted_mmd_edges(g: Graph, h: Graph) -> PredictedSR:
    """Predicted MMD edge set of the strong product, from factor data alone."""
    for name, f in (("g", g), ("h", h)):
        if f.n < 2:
            raise ValueError(f"factor {name} must be nontrivial (n >= 2)")
        if not is_connected(f):
            raise ValueError(f"factor {name} must be connected")
    dm_g = all_pairs_distances(g)
    dm_h = all_pairs_distances(h)
    sr_g = strong_resolving_graph(g, dm_g).sr
    sr_h = strong_resolving_graph(h, dm_h).sr
    n1, n2 = g.n, h.n

    pred = _one_sided_pred(n1, n2, sr_g, sr_h, dm_g, dm_h)
    # mirror pass with the factor roles swapped, then transpose coordinates
    swapped = _one_sided_pred(n2, n1, sr_h, sr_g, dm_h, dm_g)
    for p2 in range(n2 * n1):
        v, u = divmod(p2, n1)
        row = swapped[p2]
        base = u * n2 + v
        for q2 in bits(row):
            y, x = divmod(q2, n1)
            pred[base] |= 1 << (x * n2 + y)

    spec = ProductSpec("strong", n1, n2)
    return PredictedSR(spec, Graph(n1 * n2, pred), sr_g, sr_h, dm_g, dm_h)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def sr_to_dot(srg: SRGraph, spec: ProductSpec | None = None) -> str:
    labels = coordinate_labels(spec) if spec is not None else None
    return to_dot(srg.sr, labels=labels, name="SR")
