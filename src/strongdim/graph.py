"""Simple undirected graphs over dense integer ids, backed by per-vertex bitsets.

Everything downstream (metrics, products, exact solvers) leans on the bitset
representation: ``adj[u]`` is an int whose bit ``v`` is set iff ``uv`` is an
edge.  Graphs are immutable after construction and safe to share.
"""

from __future__ import annotations

import binascii
import random
from operator import or_
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Graph",
    "make_graph",
    "path",
    "cycle",
    "complete",
    "complete_multipartite",
    "grid",
    "star",
    "random_connected",
    "generalized_tree",
    "generate",
    "disjoint_union",
    "complement",
    "from_graph6",
    "to_graph6",
    "to_dot",
    "bits",
    "component_masks",
]

RANDOM_CONNECTED_RETRY_CAP = 10_000


def bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable simple undirected graph on vertices ``0..n-1``."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Sequence[int]):
        self.n = n
        self.adj = tuple(adj)

    # -- queries ----------------------------------------------------------

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return (self.adj[u] >> v) & 1 == 1

    def edges(self) -> list[tuple[int, int]]:
        """All edges as ordered pairs (u, v) with u < v, in order of u, then v."""
        out = []
        for u, row in enumerate(self.adj):
            m = row >> (u + 1)
            while m:
                low = m & -m
                out.append((u, u + low.bit_length()))
                m ^= low
        return out

    @property
    def num_edges(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(m.bit_count() for m in self.adj))

    # -- dunder -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


def component_masks(g: Graph) -> list[int]:
    """Vertex bitmasks of the connected components, ordered by lowest vertex id."""
    adj = g.adj
    comps = []
    remaining = (1 << g.n) - 1
    while remaining:
        seen = frontier = remaining & -remaining
        while frontier:
            nxt = 0
            for u in bits(frontier):
                nxt |= adj[u]
            frontier = nxt & ~seen
            seen |= frontier
        comps.append(seen)
        remaining &= ~seen
    return comps


def make_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; edges are deduplicated.

    Raises ValueError for negative n, out-of-range endpoints or loops.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) has an endpoint outside [0,{n})")
        if u == v:
            raise ValueError(f"loop edge at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, adj)


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------


def path(n: int) -> Graph:
    """Path P_n on n >= 1 vertices."""
    if n < 1:
        raise ValueError("path needs n >= 1")
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    """Cycle C_n on n >= 3 vertices."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    """Complete graph K_n on n >= 1 vertices."""
    if n < 1:
        raise ValueError("complete needs n >= 1")
    full = (1 << n) - 1
    return Graph(n, [full ^ (1 << u) for u in range(n)])


def complete_multipartite(parts: Sequence[int]) -> Graph:
    """Complete multipartite graph; vertices grouped by consecutive parts."""
    if len(parts) < 2:
        raise ValueError("complete_multipartite needs at least 2 parts")
    if any(p < 1 for p in parts):
        raise ValueError("part sizes must be positive")
    full = (1 << sum(parts)) - 1
    adj: list[int] = []
    for p in parts:
        adj += [full ^ (((1 << p) - 1) << len(adj))] * p
    return Graph(len(adj), adj)


def grid(rows: int, cols: int) -> Graph:
    """Grid graph: the Cartesian product P_rows x P_cols, in row-major ids."""
    from .products import _rows  # products imports this module
    if rows < 1 or cols < 1:
        raise ValueError("grid needs positive dimensions")
    return Graph(rows * cols, _rows("cartesian", path(rows).adj, path(cols).adj, rows))


def star(n: int) -> Graph:
    """Star on n >= 2 vertices: center 0 joined to all others."""
    if n < 2:
        raise ValueError("star needs n >= 2")
    return make_graph(n, [(0, v) for v in range(1, n)])


def random_connected(n: int, p: float, seed: int) -> Graph:
    """Seeded Erdos-Renyi draws, rejected until connected.

    Raises ValueError when the retry cap is hit (p too small for n).
    """
    if n < 1:
        raise ValueError("random_connected needs n >= 1")
    if not 0.0 < p <= 1.0:
        raise ValueError("edge probability must be in (0, 1]")
    rng = random.Random(seed)
    for _ in range(RANDOM_CONNECTED_RETRY_CAP):
        adj = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
        g = Graph(n, adj)
        if len(component_masks(g)) == 1:
            return g
    raise ValueError(
        f"no connected graph found in {RANDOM_CONNECTED_RETRY_CAP} draws "
        f"(n={n}, p={p})"
    )


def generalized_tree(block_sizes: Sequence[int], seed: int) -> Graph:
    """Chain complete blocks: each new block shares one vertex with the graph so far.

    The attachment vertex is drawn uniformly from the existing vertices
    (seeded, reproducible).  All block sizes must be >= 2.
    """
    if not block_sizes:
        raise ValueError("generalized_tree needs at least one block")
    if any(s < 2 for s in block_sizes):
        raise ValueError("block sizes must all be >= 2")
    rng = random.Random(seed)
    n = block_sizes[0]
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for s in block_sizes[1:]:
        attach = rng.randrange(n)
        block = [attach] + list(range(n, n + s - 1))
        n += s - 1
        edges.extend(
            (block[i], block[j]) for i in range(s) for j in range(i + 1, s)
        )
    return make_graph(n, edges)


def generate(spec: str) -> Graph:
    """Build a named-family graph from a compact ``family:params`` string.

    Examples: ``path:4``, ``cycle:7``, ``complete:5``, ``kpartite:2,2,3``,
    ``grid:3x4``, ``star:5``, ``random:8,0.4,17`` (n, p, seed),
    ``gtree:3,3@17`` (block sizes, optional @seed).
    """
    family, sep, arg = spec.partition(":")
    if not sep:
        raise ValueError(f"generator spec {spec!r} is missing ':'")
    # parse apart from building, so that only malformed parameters get the
    # spec-naming message and the constructors' own ValueErrors pass unchanged
    try:
        parsed = _parse_spec(family, arg)
    except ValueError as exc:  # int()/float() or unpacking on malformed params
        raise ValueError(f"bad parameters in generator spec {spec!r}: {exc}") from exc
    if parsed is None:
        raise ValueError(f"unknown graph family {family!r}")
    build, params = parsed
    try:
        return build(*params)
    except (OverflowError, MemoryError) as exc:  # e.g. 1 << n for a huge n
        raise ValueError(f"generator spec {spec!r} is too large to build") from exc


def _parse_spec(family: str, arg: str):
    """(constructor, arguments) for one generator spec; None for an unknown family."""
    single = {"path": path, "cycle": cycle, "complete": complete, "star": star}
    if family in single:
        return single[family], (int(arg),)
    if family == "kpartite":
        return complete_multipartite, ([int(s) for s in arg.split(",")],)
    if family == "grid":
        a, b = arg.split("x")
        return grid, (int(a), int(b))
    if family == "random":
        n_s, p_s, seed_s = arg.split(",")
        return random_connected, (int(n_s), float(p_s), int(seed_s))
    if family == "gtree":
        sizes_s, _, seed_s = arg.partition("@")
        sizes = [int(s) for s in sizes_s.split(",")]
        return generalized_tree, (sizes, int(seed_s) if seed_s else 0)
    return None


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    """Disjoint union; vertex blocks are relabeled by cumulative offset."""
    adj: list[int] = []
    for g in graphs:
        offset = len(adj)
        adj += [mask << offset for mask in g.adj]
    return Graph(len(adj), adj)


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, [full ^ mask ^ (1 << u) for u, mask in enumerate(g.adj)])


# ---------------------------------------------------------------------------
# graph6 serialization
# ---------------------------------------------------------------------------

_G6_MAX_N = 1 << 18


def to_graph6(g: Graph) -> str:
    """Encode in standard graph6 (printable ASCII, upper triangle column-major)."""
    n = g.n
    if n >= _G6_MAX_N:
        raise ValueError(f"graph6 encoding supported for n < {_G6_MAX_N}")
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    # the pair stream read backwards is one integer: column v, the bits of
    # u = 0..v-1, sits at place v(v-1)/2.  Adjacent runs of columns merge
    # pairwise, a run into the one below it once it is at least as wide, so
    # each bit is copied about log2(n) times, not once per later column
    adj = g.adj
    runs: list[tuple[int, int]] = []  # (bits, width), narrower up the stack
    for v in range(1, n):
        run, width = adj[v] & ((1 << v) - 1), v
        while runs and runs[-1][1] <= width:
            low, low_width = runs.pop()
            run, width = low | run << low_width, low_width + width
        runs.append((run, width))
    if not runs:
        return head
    stream = 0
    for low, low_width in reversed(runs):
        stream = low | stream << low_width
    nbits = n * (n - 1) // 2
    # base64 turns each 6 bits into one character: pad to whole 3-byte groups,
    # bit-reverse every little-endian byte into stream order, keep the
    # characters the stream needs, and map base64's alphabet onto 63..126
    data = stream.to_bytes(-(-nbits // 24) * 3, "little").translate(_BIT_REVERSED)
    b64 = binascii.b2a_base64(data, newline=False)
    return head + b64[:-(-nbits // 6)].translate(_G6_FROM_B64).decode("ascii")


_BIT_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
_G6_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_G6_FROM_B64 = bytes.maketrans(_G6_B64, bytes(range(63, 127)))
_G6_TO_B64 = bytes.maketrans(bytes(range(63, 127)), _G6_B64)


def from_graph6(text: str) -> Graph:
    """Decode a graph6 string; strict about truncation and trailing garbage."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ValueError("empty graph6 string")
    if min(s) < "?" or max(s) > "~":
        ch = next(ch for ch in s if not "?" <= ch <= "~")
        raise ValueError(f"invalid graph6 byte {ch!r}")
    if s[0] != "~":
        n = ord(s[0]) - 63
        body = s[1:]
    else:
        if len(s) >= 2 and s[1] == "~":
            raise ValueError("graph6 order >= 2^18 not supported")
        if len(s) < 4:
            raise ValueError("truncated graph6 header")
        n = 0
        for ch in s[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        if n <= 62:
            raise ValueError("non-canonical graph6 header (small order in long form)")
        body = s[4:]
    npairs = n * (n - 1) // 2
    need = (npairs + 5) // 6
    if len(body) < need:
        raise ValueError("truncated graph6 bit stream")
    if len(body) > need:
        raise ValueError("trailing garbage after graph6 bit stream")
    # the inverse of to_graph6: base64 reads the sextets as one integer (padded
    # with zero sextets to whole 4-character groups), whose low bits past the
    # pair bits must be zero
    b64 = body.encode("ascii").translate(_G6_TO_B64) + b"A" * (-len(body) % 4)
    data = binascii.a2b_base64(b64)
    spare = 8 * len(data) - npairs
    stream = int.from_bytes(data, "big")
    if stream & ((1 << spare) - 1):
        raise ValueError("nonzero padding bits in graph6 stream")
    # the pair bits backwards: column v, the bits of u = v-1 down to 0, is a
    # slice that int() reads with bit u at place u
    rev = format(stream >> spare, f"0{npairs}b")[::-1]
    upper = [0] * n
    end = npairs
    for v in range(1, n):
        upper[v] = int(rev[end - v:end], 2)
        end -= v
    return Graph(n, list(map(or_, upper, _transpose(upper, n))))


def _transpose(rows: list[int], n: int) -> list[int]:
    """Bit-matrix transpose of n rows of n bits: bit v of row u of the result
    is bit u of rows[v].  The rows, last first, become one string of n-digit
    bit strings; a slice with step n reads off a column and one
    ``int(..., 2)`` parses it, all in C."""
    width = f"0{n}b"
    text = "".join([format(r, width) for r in reversed(rows)])
    return [int(text[i::n], 2) for i in range(n - 1, -1, -1)]


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def to_dot(g: Graph, labels: dict[int, str] | None = None, name: str = "G") -> str:
    """Render as an undirected DOT graph; ``labels`` override vertex names."""
    lines = [f"graph {name} {{"]
    for u in range(g.n):
        label = labels.get(u) if labels else None
        if label is not None:
            lines.append(f'  {u} [label="{label}"];')
        else:
            lines.append(f"  {u};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
