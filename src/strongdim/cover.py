"""Exact solvers: minimum vertex cover, independence number, clique cover.

The cover solver is a branch-and-bound over bitmask states: branch on a
max-degree vertex (it joins the cover, or its whole neighborhood does), with
degree-0/1 eliminations, both degree-2 reductions (triangle rule and vertex
folding), and matching / greedy-clique-partition lower bounds.  Everything is
deterministic: ties break on the lowest vertex id.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, bits, complement, component_masks, induced_subgraph

__all__ = [
    "CoverResult",
    "CliquePartition",
    "BudgetExhausted",
    "DEFAULT_NODE_BUDGET",
    "min_vertex_cover",
    "independence_number",
    "max_independent_set",
    "max_clique",
    "chromatic_number",
    "clique_cover_number",
    "is_c_graph",
    "is_c1_graph",
]

DEFAULT_NODE_BUDGET = 50_000_000
DEFAULT_RECOGNITION_CAP = 20


class BudgetExhausted(RuntimeError):
    """Search-node budget ran out before optimality was proven."""


@dataclass
class CoverResult:
    size: int
    witness: frozenset[int]
    nodes_explored: int
    proven_optimal: bool


class _Budget(Exception):
    pass


class _CoverSearch:
    """Branch-and-bound on one connected component (adjacency as bitmasks)."""

    __slots__ = ("adj", "nodes", "budget")

    def __init__(self, adj: list[int], budget: int):
        self.adj = adj
        self.nodes = 0
        self.budget = budget

    # -- bounds ------------------------------------------------------------

    def greedy_cover(self, active: int) -> int:
        """Complement of a min-degree greedy independent set; always a valid cover."""
        adj = self.adj
        rem = active
        independent = 0
        while rem:
            best_u = -1
            best_d = 1 << 60
            m = rem
            while m:
                low = m & -m
                u = low.bit_length() - 1
                m ^= low
                d = (adj[u] & rem).bit_count()
                if d < best_d:
                    best_u, best_d = u, d
                    if d == 0:
                        break
            independent |= 1 << best_u
            rem &= ~(adj[best_u] | (1 << best_u))
        return active & ~independent

    def lower_bound(self, active: int) -> int:
        """max(greedy matching, greedy clique partition) lower bound on the cover."""
        adj = self.adj
        # greedy matching
        rem = active
        matching = 0
        while rem:
            low = rem & -rem
            u = low.bit_length() - 1
            rem ^= low
            nb = adj[u] & rem
            if nb:
                rem ^= nb & -nb
                matching += 1
        # greedy clique partition: a clique on q vertices forces q-1 cover vertices
        rem = active
        cliques = 0
        while rem:
            low = rem & -rem
            u = low.bit_length() - 1
            clique = low
            cand = adj[u] & rem
            while cand:
                tlow = cand & -cand
                clique |= tlow
                cand &= adj[tlow.bit_length() - 1]
            rem &= ~clique
            cliques += clique.bit_count() - 1
        return max(matching, cliques)

    # -- search ------------------------------------------------------------

    def solve(self, active: int, limit: int) -> tuple[int, int | None]:
        """Exact minimum cover of adj|active if below ``limit``, else (limit, None)."""
        self.nodes += 1
        if self.nodes > self.budget:
            raise _Budget
        if limit <= 0:
            return limit, None
        adj = self.adj
        fixed = 0          # cover size committed by reductions at this node
        chosen = 0         # vertices committed by reductions
        folds: list[tuple[int, int, int]] = []
        undo: list[tuple[int, int]] = []

        try:
            # reduction fixpoint
            changed = True
            while changed:
                changed = False
                m = active
                while m:
                    low = m & -m
                    u = low.bit_length() - 1
                    m ^= low
                    if not (active >> u) & 1:
                        continue
                    au = adj[u] & active
                    d = au.bit_count()
                    if d == 0:
                        active ^= low
                    elif d == 1:
                        chosen |= au
                        fixed += 1
                        active &= ~(au | low)
                        changed = True
                    elif d == 2:
                        vlow = au & -au
                        v = vlow.bit_length() - 1
                        w = (au ^ vlow).bit_length() - 1
                        if (adj[v] >> w) & 1:
                            chosen |= au
                            fixed += 2
                            active &= ~(au | low)
                        else:
                            # fold u,v,w into the slot of u
                            merged = ((adj[v] | adj[w]) & active) & ~(au | low)
                            undo.append((u, adj[u]))
                            adj[u] = merged
                            for t in bits(merged):
                                if not (adj[t] >> u) & 1:
                                    undo.append((t, adj[t]))
                                    adj[t] |= low
                            active &= ~au
                            folds.append((u, v, w))
                            fixed += 1
                        changed = True

            def finish(sub_size: int, sub_mask: int) -> tuple[int, int]:
                mask = chosen | sub_mask
                for z, v, w in reversed(folds):
                    if (mask >> z) & 1:
                        mask = (mask ^ (1 << z)) | (1 << v) | (1 << w)
                    else:
                        mask |= 1 << z
                return fixed + sub_size, mask

            if fixed >= limit:
                return limit, None
            if active == 0:
                return finish(0, 0)
            if fixed + self.lower_bound(active) >= limit:
                return limit, None

            # branch on the max-degree vertex (ties: lowest id)
            pivot = -1
            pivot_deg = -1
            m = active
            while m:
                low = m & -m
                u = low.bit_length() - 1
                m ^= low
                d = (adj[u] & active).bit_count()
                if d > pivot_deg:
                    pivot, pivot_deg = u, d
            pv = adj[pivot] & active

            best_size, best_mask = limit, None
            # branch 1: pivot joins the cover
            s, mk = self.solve(active & ~(1 << pivot), best_size - fixed - 1)
            if mk is not None:
                total, full = finish(1 + s, mk | (1 << pivot))
                if total < best_size:
                    best_size, best_mask = total, full
            # branch 2: the whole neighborhood joins the cover
            s, mk = self.solve(
                active & ~(pv | (1 << pivot)), best_size - fixed - pivot_deg
            )
            if mk is not None:
                total, full = finish(pivot_deg + s, mk | pv)
                if total < best_size:
                    best_size, best_mask = total, full
            return best_size, best_mask
        finally:
            for idx, old in reversed(undo):
                adj[idx] = old


def min_vertex_cover(g: Graph, node_budget: int = DEFAULT_NODE_BUDGET) -> CoverResult:
    """Exact minimum vertex cover (disconnected and edgeless inputs allowed).

    When the node budget runs out the best cover found so far is returned
    with ``proven_optimal=False``; callers that need exactness must raise.
    """
    search = _CoverSearch(list(g.adj), node_budget)
    cover_mask = 0
    proven = True
    for comp in component_masks(g):
        if comp & (comp - 1) == 0:
            continue  # an isolated vertex needs no cover
        try:
            greedy = search.greedy_cover(comp)
            limit = greedy.bit_count() + 1
            size, mask = search.solve(comp, limit)
            assert mask is not None and mask.bit_count() == size
            cover_mask |= mask
        except _Budget:
            proven = False
            cover_mask |= search.greedy_cover(comp)
    witness = frozenset(bits(cover_mask))
    for u, v in g.edges():
        if u not in witness and v not in witness:
            raise AssertionError("cover witness misses an edge")
    return CoverResult(len(witness), witness, search.nodes, proven)


def independence_number(g: Graph, node_budget: int = DEFAULT_NODE_BUDGET) -> int:
    return len(max_independent_set(g, node_budget))


def max_independent_set(
    g: Graph, node_budget: int = DEFAULT_NODE_BUDGET
) -> frozenset[int]:
    """Maximum independent set as the complement of an exact minimum cover."""
    res = min_vertex_cover(g, node_budget)
    if not res.proven_optimal:
        raise BudgetExhausted(
            f"cover search exhausted its node budget ({res.nodes_explored} nodes)"
        )
    indep = frozenset(range(g.n)) - res.witness
    mask = 0
    for v in indep:
        mask |= 1 << v
    for u in indep:
        if g.adj[u] & mask:
            raise AssertionError("independent-set witness spans an edge")
    return indep


# ---------------------------------------------------------------------------
# cliques, coloring, clique covers
# ---------------------------------------------------------------------------


def max_clique(g: Graph) -> frozenset[int]:
    """Exact maximum clique by branch-and-bound with a greedy coloring bound.

    Independent of the cover solver, so the two can cross-check each other
    through complement identities.
    """
    n = g.n
    if n == 0:
        return frozenset()
    adj = g.adj
    best_mask = 1  # single vertex is always a clique
    best_size = 1

    def color_order(p: int) -> list[tuple[int, int]]:
        """Greedy coloring of the candidate set; returns (vertex, color#) pairs."""
        order = []
        color = 0
        rem = p
        while rem:
            color += 1
            avail = rem
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                order.append((v, color))
                avail &= ~adj[v]
                avail ^= low
                rem ^= low
        return order

    def expand(r_mask: int, r_size: int, p: int) -> None:
        nonlocal best_mask, best_size
        order = color_order(p)
        for v, bound in reversed(order):
            if r_size + bound <= best_size:
                return
            nxt_r = r_mask | (1 << v)
            nxt_p = p & adj[v]
            if nxt_p:
                expand(nxt_r, r_size + 1, nxt_p)
            elif r_size + 1 > best_size:
                best_size, best_mask = r_size + 1, nxt_r
            p &= ~(1 << v)

    expand(0, 0, (1 << n) - 1)
    return frozenset(bits(best_mask))


def _greedy_coloring(g: Graph) -> list[int]:
    """Largest-degree-first greedy coloring (upper bound seed)."""
    order = sorted(range(g.n), key=lambda u: (-g.degree(u), u))
    color = [-1] * g.n
    for u in order:
        used = {color[w] for w in g.neighbors(u) if color[w] >= 0}
        c = 0
        while c in used:
            c += 1
        color[u] = c
    return color


def chromatic_number(g: Graph) -> tuple[int, list[int]]:
    """Exact chromatic number and a witness coloring (desk-scale backtracking)."""
    n = g.n
    if n == 0:
        return 0, []
    if g.num_edges == 0:
        return 1, [0] * n
    clique = sorted(max_clique(g))
    lb = len(clique)
    greedy = _greedy_coloring(g)
    ub = max(greedy) + 1
    if lb == ub:
        return ub, greedy
    for k in range(lb, ub):
        colors = _try_coloring(g, k, clique)
        if colors is not None:
            return k, colors
    return ub, greedy


def _try_coloring(g: Graph, k: int, clique: list[int]) -> list[int] | None:
    """Backtracking k-coloring; the max clique is preassigned to break symmetry."""
    n = g.n
    if len(clique) > k:
        return None
    color = [-1] * n
    for i, v in enumerate(clique):
        color[v] = i

    full = (1 << k) - 1

    def feasible(u: int) -> int:
        used = 0
        for w in bits(g.adj[u]):
            c = color[w]
            if c >= 0:
                used |= 1 << c
        return full & ~used

    def backtrack(ncolored: int, max_used: int) -> bool:
        if ncolored == n:
            return True
        # most-constrained uncolored vertex, ties by id
        pick = -1
        pick_avail = 0
        pick_count = k + 1
        for u in range(n):
            if color[u] >= 0:
                continue
            av = feasible(u)
            c = av.bit_count()
            if c == 0:
                return False
            if c < pick_count:
                pick, pick_avail, pick_count = u, av, c
        # never open more than one fresh color index (color symmetry)
        cap = min(k - 1, max_used + 1)
        for c in bits(pick_avail & ((1 << (cap + 1)) - 1)):
            color[pick] = c
            if backtrack(ncolored + 1, max(max_used, c)):
                return True
            color[pick] = -1
        return False

    ok = backtrack(len(clique), len(clique) - 1)
    return color[:] if ok else None


@dataclass
class CliquePartition:
    """Partition of the vertex set into cliques."""

    parts: tuple[frozenset[int], ...]

    def validate(self, g: Graph) -> None:
        seen: set[int] = set()
        for part in self.parts:
            if seen & part:
                raise AssertionError("clique parts overlap")
            seen |= part
            for u in part:
                for v in part:
                    if u < v and not g.has_edge(u, v):
                        raise AssertionError(f"part {sorted(part)} is not a clique")
        if seen != set(range(g.n)):
            raise AssertionError("clique parts do not cover the vertex set")


def clique_cover_number(
    g: Graph, cap: int = DEFAULT_RECOGNITION_CAP
) -> tuple[int, CliquePartition]:
    """Minimum number of cliques partitioning V(g) = chromatic number of the
    complement, with a witness partition."""
    if g.n > cap:
        raise ValueError(f"clique cover recognition capped at {cap} vertices")
    if g.n == 0:
        return 0, CliquePartition(())
    k, colors = chromatic_number(complement(g))
    groups: dict[int, set[int]] = {}
    for u, c in enumerate(colors):
        groups.setdefault(c, set()).add(u)
    parts = tuple(
        frozenset(groups[c]) for c in sorted(groups, key=lambda c: min(groups[c]))
    )
    partition = CliquePartition(parts)
    partition.validate(g)
    return k, partition


def is_c_graph(g: Graph, cap: int = DEFAULT_RECOGNITION_CAP) -> bool:
    """True iff V(g) partitions into exactly beta(g) cliques."""
    theta, _ = clique_cover_number(g, cap)
    return theta == independence_number(g)


def is_c1_graph(g: Graph, cap: int = DEFAULT_RECOGNITION_CAP) -> bool:
    """True iff g is not a C-graph but V(g) minus one vertex partitions into
    beta(g) cliques (the removed vertex is the partition's singleton)."""
    if g.n > cap:
        raise ValueError(f"C1-graph recognition capped at {cap} vertices")
    if g.n < 2:
        return False
    beta = independence_number(g)
    theta, _ = clique_cover_number(g, cap)
    if theta == beta:
        return False
    for b in range(g.n):
        sub, _ = induced_subgraph(g, set(range(g.n)) - {b})
        if chromatic_number(complement(sub))[0] == beta:
            return True
    return False
