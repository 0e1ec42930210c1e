"""The four two-factor graph products, with one fixed coordinate convention.

A product vertex (u, v) gets id ``u * n2 + v`` (row-major).  Adjacency rows
are assembled with shifted-bitmask arithmetic, so building a product costs
O(n1 * n2) big-int operations rather than a Python loop over vertex pairs.
"""

from __future__ import annotations

from operator import eq

from .graph import Graph, bits

__all__ = [
    "PRODUCT_KINDS",
    "product",
    "strong_factors",
    "coordinate_labels",
]

PRODUCT_KINDS = ("strong", "cartesian", "lexicographic", "cartesian_sum")


def _stride(mask: int, n2: int) -> int:
    """Sum of 2^(u*n2) over the set bits u of a G-side mask."""
    out = 0
    for u in bits(mask):
        out |= 1 << (u * n2)
    return out


def _strong_rows(g_rows, h_rows):
    """The strong product's rows in id order, N[(u,v)] = N_G[u] x N_H[v] less (u,v),
    G's rows read only as they are reached."""
    n2 = len(h_rows)
    for u, g_row in enumerate(g_rows):
        s, base = _stride(g_row | 1 << u, n2), u * n2
        for v, row in enumerate(h_rows):
            yield (row | 1 << v) * s & ~(1 << base + v)


def strong_factors(g: Graph) -> tuple[Graph, Graph] | None:
    """(G, H) with ``product("strong", G, H) == g`` and both of order above 1, or None.

    Each divisor n2 of n, ascending, is tried on the closed row of vertex 0
    first: it must be (its column-0 bits) x (its bits below n2), so most
    graphs are refused by a few big-int operations.  H is then read from the
    ids below n2, G from the multiples of n2, and their product is compared
    with g row by row, stopping at the first row that differs.  A product
    whose ids are not row-major is not recognised.
    """
    n = g.n
    for n2 in filter(lambda d: n % d == 0, range(2, n // 2 + 1)):
        low, row0 = (1 << n2) - 1, g.adj[0] | 1
        col = ((1 << n) - 1) // low  # bit u*n2 for every row u
        if row0 != (row0 & col) * (row0 & low):
            continue
        h_rows = [row & low for row in g.adj[:n2]]

        def g_rows():  # G's row u from the column-0 bits of (u, 0), read when reached
            return (sum(1 << x // n2 for x in bits(g.adj[p] & col)) for p in range(0, n, n2))
        if all(map(eq, _strong_rows(g_rows(), h_rows), g.adj)):
            return Graph(n // n2, g_rows()), Graph(n2, h_rows)
    return None


def product(kind: str, g: Graph, h: Graph) -> Graph:
    """Product graph of g and h under the row-major index convention."""
    if g.n == 0 or h.n == 0:
        raise ValueError("product factors must be nonempty")
    if kind not in PRODUCT_KINDS:
        raise ValueError(f"unknown product kind {kind!r}")
    if kind == "strong":
        return Graph(g.n * h.n, _strong_rows(g.adj, h.adj))
    n1, n2 = g.n, h.n
    full_h = (1 << n2) - 1
    stride_open = [_stride(g.adj[u], n2) for u in range(n1)]
    ones_all = _stride((1 << n1) - 1, n2)

    adj = [0] * (n1 * n2)
    if kind == "cartesian":
        for u in range(n1):
            base = u * n2
            s = stride_open[u]
            for v in range(n2):
                adj[base + v] = (h.adj[v] << base) | ((1 << v) * s)
    elif kind == "lexicographic":
        for u in range(n1):
            base = u * n2
            layer = full_h * stride_open[u]
            for v in range(n2):
                adj[base + v] = layer | (h.adj[v] << base)
    else:  # cartesian_sum
        for u in range(n1):
            base = u * n2
            layer = full_h * stride_open[u]
            for v in range(n2):
                adj[base + v] = layer | (h.adj[v] * ones_all)
    return Graph(n1 * n2, adj)


def coordinate_labels(n1: int, n2: int) -> dict[int, str]:
    """DOT-friendly labels 'u,v' for every id of an n1 x n2 product."""
    cols = [str(v) for v in range(n2)]
    return dict(enumerate([f"{u},{v}" for u in range(n1) for v in cols]))
