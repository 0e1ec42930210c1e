"""Exact solvers: minimum vertex cover, independence number, clique cover.

``min_vertex_cover`` solves each connected component with one of two exact
engines, chosen from a bound the component itself shows:

- The colour engine (``_CliqueSearch``) is a maximum-clique branch and bound
  with a greedy colouring bound (MCQ; Tomita & Seki 2003).  Run on the
  complement of a component, it finds a maximum independent set, and the
  cover is the rest.  ``max_clique`` is the same engine on the graph itself.
- The branch-and-reduce engine (``_CoverSearch``; Akiba & Iwata, TCS 609,
  2016) branches on a max-degree vertex (it joins the cover, or its whole
  neighbourhood does).  At each node a worklist of the vertices whose degree
  changed drives degree-0/1 eliminations and both degree-2 reductions
  (triangle rule and vertex folding) to a fixpoint; one lower bound prunes:
  the vertices left minus the cliques of their greedy partition.

The rule reads theta-hat, the size of a greedy clique partition of the
component, taken in id order or in min-width order, whichever is smaller.
Every independent set meets each clique of a partition at most once, so
alpha <= theta-hat.  A component with theta-hat <= ``COLOUR_ENGINE_MAX_SHARE``
of its order and theta-hat <= ``COLOUR_ENGINE_MAX_THETA`` goes to the colour
engine: it partitions into few large cliques, so the complement's colour
bound is tight, and the recursion depth (at most alpha + 1) stays small.  Any
other component, typically long and sparse with many small cliques that the
reductions take apart, goes to branch and reduce.  Both engines count nodes
into one budget; when it runs out the component keeps its greedy cover and
the result says ``proven_optimal=False``.

The two engines are each other's oracle: the tests run both on the same
components, and both against subset enumeration.  Everything is
deterministic: every tie breaks on vertex ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

from .graph import Graph, bits, component_masks

__all__ = [
    "CoverResult",
    "CliquePartition",
    "BudgetExhausted",
    "DEFAULT_NODE_BUDGET",
    "min_vertex_cover",
    "max_independent_set",
    "max_clique",
    "clique_cover_number",
    "is_c_graph",
    "is_c1_graph",
]

DEFAULT_NODE_BUDGET = 50_000_000
DEFAULT_RECOGNITION_CAP = 20
# The engine rule (see the module docstring), fitted on the SR-graph ladder of
# tools/cover_ladder.py; the cap on theta-hat bounds the colour engine's
# recursion depth well inside Python's default limit of 1000 frames.
COLOUR_ENGINE_MAX_SHARE = 0.42
COLOUR_ENGINE_MAX_THETA = 300


class BudgetExhausted(RuntimeError):
    """Search-node budget ran out before optimality was proven."""


@dataclass
class CoverResult:
    size: int
    witness: frozenset[int]
    nodes_explored: int
    proven_optimal: bool

    def exact(self) -> CoverResult:
        """This result if the search proved it minimum; ``BudgetExhausted`` otherwise."""
        if not self.proven_optimal:
            raise BudgetExhausted(
                f"cover search exhausted its node budget ({self.nodes_explored} nodes)")
        return self


class _Budget(Exception):
    pass


def _greedy_cover(adj: list[int], active: int) -> int:
    """Complement of a min-degree greedy independent set; always a valid cover."""
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


def _clique_partition_count(adj: list[int], active: int) -> int:
    """theta-hat: the number of cliques in a greedy partition of ``active``,
    each grown from its lowest vertex by adding the lowest common neighbour."""
    rem = active
    cliques = 0
    while rem:
        low = rem & -rem
        clique = low
        cand = adj[low.bit_length() - 1] & rem
        while cand:
            tlow = cand & -cand
            clique |= tlow
            cand &= adj[tlow.bit_length() - 1]
        rem &= ~clique
        cliques += 1
    return cliques


class _CoverSearch:
    """Branch and reduce on one connected component (adjacency as bitmasks)."""

    __slots__ = ("adj", "nodes", "budget")

    def __init__(self, adj: list[int], budget: int):
        self.adj = adj
        self.nodes = 0
        self.budget = budget

    def cover(self, comp: int, greedy: int) -> int:
        """Minimum cover of ``comp``; ``greedy`` is a cover to beat."""
        size, mask = self.solve(comp, greedy.bit_count() + 1, comp)
        assert mask is not None and mask.bit_count() == size
        return mask

    def solve(self, active: int, limit: int, dirty: int) -> tuple[int, int | None]:
        """Exact minimum cover of adj|active if below ``limit``, else (limit, None).

        ``dirty`` holds the vertices whose degree may have changed since the
        parent's reduction fixpoint: every other active vertex had degree at
        least 3 there and still has it, so no reduction can fire on it.
        """
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
            # Reduction fixpoint over a worklist.  A pass visits its vertices
            # in increasing id; a vertex whose degree a reduction changed is
            # visited later in the same pass if it lies ahead of the cursor,
            # else in the next pass.  This fires the same reductions in the
            # same order as rescanning every active vertex until none fires.
            queue = dirty & active
            while queue:
                todo, queue = queue, 0
                while todo:
                    low = todo & -todo
                    todo ^= low
                    if not active & low:
                        continue
                    u = low.bit_length() - 1
                    au = adj[u] & active
                    d = au.bit_count()
                    if d == 0:
                        active ^= low
                        continue
                    if d == 1:
                        chosen |= au
                        fixed += 1
                        active &= ~(au | low)
                        touched = adj[au.bit_length() - 1] & active
                    elif d == 2:
                        vlow = au & -au
                        v = vlow.bit_length() - 1
                        w = (au ^ vlow).bit_length() - 1
                        if (adj[v] >> w) & 1:
                            chosen |= au
                            fixed += 2
                            active &= ~(au | low)
                            touched = (adj[v] | adj[w]) & active
                        else:
                            # fold u,v,w into the slot of u
                            merged = ((adj[v] | adj[w]) & active) & ~(au | low)
                            undo.append((u, adj[u]))
                            adj[u] = merged
                            m = merged
                            while m:
                                tlow = m & -m
                                m ^= tlow
                                t = tlow.bit_length() - 1
                                if not adj[t] & low:
                                    undo.append((t, adj[t]))
                                    adj[t] |= low
                            active &= ~au
                            folds.append((u, v, w))
                            fixed += 1
                            touched = merged | low
                    else:
                        continue
                    ahead = touched & -(low << 1)
                    todo |= ahead
                    queue |= touched ^ ahead

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
            # a clique on q vertices forces q - 1 of them into the cover
            if fixed + active.bit_count() - _clique_partition_count(adj, active) >= limit:
                return limit, None

            # branch on the max-degree vertex (ties: lowest id); the worklist
            # left every active vertex at degree >= 3, so this is the only scan
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
            s, mk = self.solve(active & ~(1 << pivot), best_size - fixed - 1, pv)
            if mk is not None:
                total, full = finish(1 + s, mk | (1 << pivot))
                if total < best_size:
                    best_size, best_mask = total, full
            # branch 2: the whole neighborhood joins the cover
            rest = active & ~(pv | (1 << pivot))
            touched = 0
            m = pv
            while m:
                tlow = m & -m
                m ^= tlow
                touched |= adj[tlow.bit_length() - 1]
            s, mk = self.solve(rest, best_size - fixed - pivot_deg, touched & rest)
            if mk is not None:
                total, full = finish(pivot_deg + s, mk | pv)
                if total < best_size:
                    best_size, best_mask = total, full
            return best_size, best_mask
        finally:
            for idx, old in reversed(undo):
                adj[idx] = old


class _CliqueSearch:
    """Maximum clique by branch and bound with a greedy colouring bound (MCQ).

    At each node the candidate set is coloured greedily, lowest id first, into
    independent classes; a clique takes at most one vertex per class, so the
    colour of a vertex bounds the clique it can still grow into.  The search
    branches from the highest colour down and stops at the first class that
    cannot beat the best clique found.  Recursion depth is at most the clique
    number plus one.
    """

    __slots__ = ("adj", "nodes", "budget", "best_size", "best_mask")

    def __init__(self, adj: list[int], budget: float):
        self.adj = adj
        self.nodes = 0
        self.budget = budget
        self.best_size = 0
        self.best_mask = 0

    def run(self, cand: int, start: int) -> int:
        """Maximum clique within ``cand``; ``start`` is a clique to beat."""
        self.best_mask = start
        self.best_size = start.bit_count()
        self._expand(0, 0, cand)
        return self.best_mask

    def _expand(self, r_mask: int, r_size: int, p: int) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise _Budget
        adj = self.adj
        # colour classes, keeping only colours above kmin: a vertex of colour
        # k <= kmin = best - |R| cannot lead to a clique larger than the best
        kmin = max(self.best_size - r_size, 0)
        classes = []
        colour = 0
        rem = p
        while rem:
            colour += 1
            avail = rem
            cls = 0
            while avail:
                low = avail & -avail
                cls |= low
                avail &= ~adj[low.bit_length() - 1]
                avail ^= low
            rem ^= cls
            if colour > kmin:
                classes.append(cls)
        while classes:
            bound = kmin + len(classes)  # the colour of the last class
            cls = classes.pop()
            while cls:
                if r_size + bound <= self.best_size:
                    return
                v = cls.bit_length() - 1
                bit = 1 << v
                cls ^= bit
                nxt = p & adj[v]
                if nxt:
                    self._expand(r_mask | bit, r_size + 1, nxt)
                elif r_size + 1 > self.best_size:
                    self.best_size, self.best_mask = r_size + 1, r_mask | bit
                p ^= bit


def _renumbered(adj: list[int], order: list[int]) -> list[int]:
    """Adjacency of the component holding ``order`` in new ids (i for order[i]).

    A row with more than a seventh of ``order`` as neighbours is read by one
    C-level gather over its bit string, a sparser one bit by bit: stepping
    over one bit costs about as much as gathering seven digits."""
    top = len(adj) - 1  # bit u of a row is digit top - u of its bit string
    gather = itemgetter(*[top - u for u in reversed(order)])  # new ids, high to low
    width = f"0{len(adj)}b"
    new_bit = {u: 1 << i for i, u in enumerate(order)}
    return [int("".join(gather(format(a, width))), 2) if 7 * a.bit_count() > len(order)
            else sum(map(new_bit.__getitem__, bits(a)))
            for a in map(adj.__getitem__, order)]


def _min_width_order(adj: list[int], comp: int) -> list[int]:
    """Min-width order of ``comp`` for a clique search on the complement
    (Tomita & Kameda 2007): repeatedly take out the vertex of least complement
    degree among those left, the highest id on ties; the last one taken out
    comes first.  Colouring then starts in the densest core of the complement
    and branching from its sparsest vertices."""
    left = list(bits(comp))[::-1]
    deg = {u: (adj[u] & comp).bit_count() for u in left}
    taken = []
    while left:
        u = max(left, key=deg.__getitem__)  # most neighbours, least complement degree
        left.remove(u)
        taken.append(u)
        comp ^= 1 << u
        for v in bits(adj[u] & comp):
            deg[v] -= 1
    return taken[::-1]


def _colour_input(adj: list[int], comp: int) -> tuple[int, list[int], list[int]]:
    """theta-hat of a component and the colour engine's input for it.

    Two vertex orders are tried: id order, which follows the structure of
    products, and min-width order, which suits graphs without such structure.
    The one whose greedy clique partition is smaller wins (ties: id order).
    Returns that partition's size, the order (new id -> old id) and the
    complement's adjacency in new ids.
    """
    full = (1 << comp.bit_count()) - 1
    best = None
    for order in (list(bits(comp)), _min_width_order(adj, comp)):
        radj = _renumbered(adj, order)
        theta = _clique_partition_count(radj, full)
        if best is None or theta < best[0]:
            best = theta, order, radj
    theta, order, radj = best
    return theta, order, [full ^ a ^ (1 << i) for i, a in enumerate(radj)]


def min_vertex_cover(g: Graph, node_budget: int = DEFAULT_NODE_BUDGET) -> CoverResult:
    """Exact minimum vertex cover (disconnected and edgeless inputs allowed).

    A component goes to the colour engine on its complement when its greedy
    clique partition has theta-hat <= ``COLOUR_ENGINE_MAX_SHARE`` of its order
    and <= ``COLOUR_ENGINE_MAX_THETA`` cliques, and to branch and reduce
    otherwise.  When the node budget runs out the component keeps its greedy
    cover and the result has ``proven_optimal=False``; callers that need
    exactness read it through ``CoverResult.exact``.
    """
    adj = list(g.adj)
    nodes = 0
    cover_mask = 0
    proven = True
    for comp in component_masks(g):
        if comp & (comp - 1) == 0:
            continue  # an isolated vertex needs no cover
        greedy = _greedy_cover(adj, comp)
        theta, order, cadj = _colour_input(adj, comp)
        colour = theta <= min(COLOUR_ENGINE_MAX_SHARE * len(order), COLOUR_ENGINE_MAX_THETA)
        budget = node_budget - nodes
        engine = _CliqueSearch(cadj, budget) if colour else _CoverSearch(adj, budget)
        try:
            if colour:
                # a maximum clique of the complement is a maximum independent set
                start = 0
                for i, u in enumerate(order):
                    if not greedy >> u & 1:
                        start |= 1 << i
                indep = engine.run((1 << len(order)) - 1, start)
                cover_mask |= comp
                for i in bits(indep):
                    cover_mask ^= 1 << order[i]
            else:
                cover_mask |= engine.cover(comp, greedy)
        except _Budget:
            proven = False
            cover_mask |= greedy
        nodes += engine.nodes
    outside = ((1 << g.n) - 1) & ~cover_mask
    for u in bits(outside):
        if adj[u] & outside:
            raise AssertionError("cover witness misses an edge")
    witness = frozenset(bits(cover_mask))
    return CoverResult(len(witness), witness, nodes, proven)


def max_independent_set(
    g: Graph, node_budget: int = DEFAULT_NODE_BUDGET
) -> frozenset[int]:
    """Maximum independent set as the complement of an exact minimum cover.

    ``min_vertex_cover`` has checked that no edge joins two vertices outside
    its cover, so the complement is independent."""
    return frozenset(range(g.n)) - min_vertex_cover(g, node_budget).exact().witness


# ---------------------------------------------------------------------------
# cliques and clique partitions
# ---------------------------------------------------------------------------


def max_clique(g: Graph) -> frozenset[int]:
    """Exact maximum clique: the colour engine on the whole vertex set.

    It shares no code with the branch-and-reduce engine, so the two
    cross-check each other through complement identities.
    """
    if g.n == 0:
        return frozenset()
    search = _CliqueSearch(list(g.adj), math.inf)
    return frozenset(bits(search.run((1 << g.n) - 1, 1)))


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


def _clique_partition(adj: list[int], active: int, k: int, seeds: int) -> list[int] | None:
    """A partition of ``active`` into at most k cliques, as masks, or None.

    ``seeds`` is an independent set, so each seed opens its own clique.  The
    search places the most constrained vertex first (fewest cliques it can
    join, plus one if a clique may still open; lowest id on ties), and opens
    at most one new clique per step, so no two branches differ only in the
    order of their cliques.
    """
    cliques = [1 << s for s in bits(seeds)]
    if len(cliques) > k:
        return None

    def place(rem: int) -> bool:
        if not rem:
            return True
        pick, pick_opts, fewest = -1, [], k + 2
        for u in bits(rem):
            out = ~adj[u]
            opts = [i for i, c in enumerate(cliques) if not c & out]
            count = len(opts) + (len(cliques) < k)
            if count == 0:
                return False
            if count < fewest:
                pick, pick_opts, fewest = u, opts, count
        bit = 1 << pick
        for i in pick_opts:
            cliques[i] |= bit
            if place(rem ^ bit):
                return True
            cliques[i] ^= bit
        if len(cliques) < k:
            cliques.append(bit)
            if place(rem ^ bit):
                return True
            cliques.pop()
        return False

    return cliques if place(active & ~seeds) else None


def _recognition_input(g: Graph, cap: int, what: str) -> tuple[list[int], int, int]:
    """Adjacency, vertex mask and a maximum independent set (as a mask) of g."""
    if g.n > cap:
        raise ValueError(f"{what} recognition capped at {cap} vertices")
    seeds = 0
    for v in max_independent_set(g):
        seeds |= 1 << v
    return list(g.adj), (1 << g.n) - 1, seeds


def clique_cover_number(
    g: Graph, cap: int = DEFAULT_RECOGNITION_CAP
) -> tuple[int, CliquePartition]:
    """Minimum number of cliques partitioning V(g), with a witness partition.

    Counts k up from beta(g), which every clique partition reaches: the
    cliques hold the vertices of an independent set one each."""
    adj, full, seeds = _recognition_input(g, cap, "clique cover")
    k = seeds.bit_count()
    while (cliques := _clique_partition(adj, full, k, seeds)) is None:
        k += 1
    parts = tuple(frozenset(bits(c)) for c in sorted(cliques, key=lambda c: c & -c))
    partition = CliquePartition(parts)
    partition.validate(g)
    return k, partition


def is_c_graph(g: Graph, cap: int = DEFAULT_RECOGNITION_CAP) -> bool:
    """True iff V(g) partitions into exactly beta(g) cliques."""
    adj, full, seeds = _recognition_input(g, cap, "C-graph")
    return _clique_partition(adj, full, seeds.bit_count(), seeds) is not None


def is_c1_graph(g: Graph, cap: int = DEFAULT_RECOGNITION_CAP) -> bool:
    """True iff g is not a C-graph but V(g) minus one vertex b partitions into
    beta(g) cliques (b is then the partition's singleton).

    When g is not a C-graph, theta(g - b) >= theta(g) - 1 >= beta(g), so "at
    most beta cliques" is "exactly beta cliques"."""
    adj, full, seeds = _recognition_input(g, cap, "C1-graph")
    beta = seeds.bit_count()
    if _clique_partition(adj, full, beta, seeds) is not None:
        return False
    return any(_clique_partition(adj, full ^ (1 << b), beta, seeds & ~(1 << b)) is not None
               for b in range(g.n))
