"""The four two-factor graph products, built by one row formula.

A product vertex (u, v) gets id ``u * n2 + v`` (row-major).  Every kind's
row is L(v) * stride(N_G(u)) | N_H(v) * T(u): L(v) is N_H[v], {v}, V(H), V(H)
and T(u) is {u}, {u}, {u}, V(G) for the strong, Cartesian, lexicographic and
Cartesian-sum products, so building one costs O(n1 * n2) big-int operations
rather than a Python loop over vertex pairs.
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


def _rows(kind, g_rows, h_rows, n1):
    """The ``kind`` product's rows in id order, row (u, v) = L(v) * stride(N_G(u))
    | N_H(v) * T(u), G's rows read only as they are reached.  T(u) = {u} shifts
    N_H(v) by u*n2; a layer V(H) * stride(N_G(u)) is formed once per u."""
    n2 = at = len(h_rows)  # T(u) = {u}: N_H(v) shifted by u*at
    if kind == "cartesian_sum":  # T(u) = V(G): N_H(v) * V(G) formed once, shifted by 0
        every = ((1 << n1 * n2) - 1) // ((1 << n2) - 1)
        h_rows, at = [row * every for row in h_rows], 0
    for u, g_row in enumerate(g_rows):
        s, base = _stride(g_row, n2), u * at
        if kind == "strong":
            for v, row in enumerate(h_rows):
                yield (row | 1 << v) * s | row << base
        elif kind == "cartesian":
            for v, row in enumerate(h_rows):
                yield s << v | row << base
        else:
            layer = ((1 << n2) - 1) * s
            for row in h_rows:
                yield layer | row << base


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
        if all(map(eq, _rows("strong", g_rows(), h_rows, n // n2), g.adj)):
            return Graph(n // n2, g_rows()), Graph(n2, h_rows)
    return None


def product(kind: str, g: Graph, h: Graph) -> Graph:
    """Product graph of g and h under the row-major index convention."""
    if g.n == 0 or h.n == 0:
        raise ValueError("product factors must be nonempty")
    if kind not in PRODUCT_KINDS:
        raise ValueError(f"unknown product kind {kind!r}")
    return Graph(g.n * h.n, _rows(kind, g.adj, h.adj, g.n))


def coordinate_labels(n1: int, n2: int) -> dict[int, str]:
    """DOT-friendly labels 'u,v' for every id of an n1 x n2 product."""
    cols = [str(v) for v in range(n2)]
    return dict(enumerate([f"{u},{v}" for u in range(n1) for v in cols]))
