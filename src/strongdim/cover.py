"""Exact solvers: minimum vertex cover, independence number, clique cover.

``min_vertex_cover`` solves each connected component with one of two exact
engines, chosen from a bound the component itself shows:

- The colour engine (``_ColourSearch``) is a maximum-independent-set branch
  and bound with a greedy colouring bound (MCQ; Tomita & Seki 2003), run on
  the component's own rows: its colour classes are the cliques of the greedy
  clique partition, which an independent set meets once each.  The cover is
  the rest of the component.
- The branch-and-reduce engine (``_CoverSearch``; Akiba & Iwata, TCS 609,
  2016) branches on a max-degree vertex (it joins the cover, or its whole
  neighbourhood does).  At each node a worklist of the vertices whose degree
  changed drives degree-0/1 eliminations and both degree-2 reductions
  (triangle rule and vertex folding) to a fixpoint; one lower bound prunes:
  the vertices left minus the cliques of their greedy partition.  It looks
  only below the greedy cover, and keeps it, proven, if it finds nothing.
- At the root of branch and reduce, a long, thin kernel that the bound does
  not settle goes to a frontier DP instead of the branch (after Bodlaender's
  path-decomposition DP for independent set).  It places the kernel in
  reverse Cuthill–McKee order (Cuthill & McKee 1969) and keeps, per set of
  chosen vertices on the frontier, the best independent set that leaves it:
  at most 2^width states a step, with width the order's vertex separation.
  Its cover, which may tie the greedy cover, goes through the folds' undo.
  The gate weighs the DP's 2^width states against the gap the branch would
  have to close, the greedy cover less the clique bound: the width is at
  most that gap and at most ``FRONTIER_MAX_WIDTH``, which bounds the live
  states.

The rule reads theta-hat, the size of a greedy clique partition of the
component, taken in id order or in min-width order, whichever is smaller.
Every independent set meets each clique of a partition at most once, so
alpha <= theta-hat.  A component with theta-hat <= ``COLOUR_ENGINE_MAX_SHARE``
of its order goes to the colour engine: it partitions into few large
cliques, so the colour bound is tight.  The engine recurses at most
alpha + 1 <= theta-hat + 1 levels, so it also needs that many frames left
below ``sys.getrecursionlimit()``; ``min_vertex_cover`` counts the frames
on the stack once per call.  Any other component, typically long and sparse
with many small cliques that the reductions take apart, goes to branch and
reduce, whose depth has no bound known up front: a search that outgrows the
stack raises ``BudgetExhausted``.  Both engines count nodes, and the DP its
states, into one budget; when it runs out the component keeps its greedy
cover and the result says ``proven_optimal=False``.

An id-order component runs on the graph's rows as they are; only the
min-width order is renumbered, to count its partition.  When the id-order
count is no larger than the greedy independent set, alpha <= theta-hat
proves the greedy cover minimum and no order can count fewer, so the
min-width order is not built; on the colour side the engine's root then
keeps no class to branch on and settles the component in one node (642 of
the 1,065 components of ``verify all --seed 42``, over its 744 cover calls).

The colour engine keeps the bounds it proves.  When a node with candidate
set P and current set R returns, every set that could beat the incumbent
was found or pruned against it, so alpha(P) <= best - |R|: the incumbent
only grows, and a budget stop raises before the store.  A memo maps P to
that bound (the smaller one when P is proven twice), and a child whose
candidate set P' has |R| + 1 + memo[P'] <= best is skipped.  A skipped child
could not raise the incumbent, so the witness is the one the plain search
finds.  The memo keeps at most ``MEMO_MAX`` sets and is cleared when it
overflows.  The search repeats candidate sets on odd-odd products:
beta(C9xC9) = 18 takes 4,680 nodes with the memo and 47,398 without it,
beta(C9xC11) = 22 21,752 against 214,881, and beta(C11xC11) = 27 144,020,
where the plain search runs past 2,000,000.

The two engines share only the greedy clique partition, so subset
enumeration referees them: the tests run both on the same components, and
both against it; with the frontier gate shut, and with the DP run on every
root kernel (its order built without a cap on width), both check the DP
too.  Everything is deterministic: every tie breaks on vertex ids.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from dataclasses import dataclass
from operator import itemgetter

from .graph import Graph, bits, component_masks

__all__ = [
    "CoverResult",
    "BudgetExhausted",
    "DEFAULT_NODE_BUDGET",
    "min_vertex_cover",
    "max_independent_set",
    "clique_cover_number",
    "c_graph_partition",
]

DEFAULT_NODE_BUDGET = 50_000_000
DEFAULT_RECOGNITION_CAP = 20
# The engine rule (see the module docstring), fitted on the SR-graph ladder of
# tools/cover_ladder.py.
COLOUR_ENGINE_MAX_SHARE = 0.42
# The frontier gate's cap on the DP's width (see the module docstring).
FRONTIER_MAX_WIDTH = 20
# The colour engine's memo (see the module docstring): the most candidate
# sets one search keeps proofs for, about 6 MB; a full memo is cleared.
MEMO_MAX = 1 << 16


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


def _greedy_clique_partition(adj: list[int], active: int) -> list[int]:
    """The greedy clique partition of ``active`` that theta-hat counts, as
    masks: each clique grown from its lowest vertex left by adding the lowest
    common neighbour.  Its size bounds beta from above."""
    rem = active
    cliques = []
    while rem:
        low = rem & -rem
        clique = low
        cand = adj[low.bit_length() - 1] & rem
        while cand:
            tlow = cand & -cand
            clique |= tlow
            cand &= adj[tlow.bit_length() - 1]
        rem &= ~clique
        cliques.append(clique)
    return cliques


def _frontier_order(adj: list[int], active: int, cap: int) -> tuple[list[int], list[int]] | None:
    """Reverse Cuthill–McKee order of ``active`` for the frontier DP, or None
    once its vertex separation exceeds ``cap``.

    Each breadth-first search starts from a vertex of least degree and takes
    new neighbours by (degree, id); it restarts on each piece of ``active``.
    Read backwards, the search's queue is the frontier: after the vertices
    behind position i in Cuthill–McKee order are placed, the placed vertices
    with a neighbour still to come are those queued when i is dequeued.  So
    the separation is the longest queue, and a vertex leaves the frontier
    when the vertex that queued it is placed (a search's first vertex, which
    none queued, when it is placed itself).  Returns the order and, for each
    position, the mask of vertices that leave the frontier there.
    """
    deg = {u: (adj[u] & active).bit_count() for u in bits(active)}
    key = deg.__getitem__  # min and sort keep id order on ties
    order: list[int] = []
    leave: list[int] = []
    unseen = active
    while unseen:
        root = min(bits(unseen), key=key)
        unseen ^= 1 << root
        order.append(root)
        gone = 1 << root
        while len(leave) < len(order):
            new = adj[order[len(leave)]] & unseen
            unseen ^= new
            order += sorted(bits(new), key=key)
            leave.append(gone | new)
            gone = 0
            if len(order) - len(leave) > cap:
                return None
    return order[::-1], leave[::-1]


def _frontier_mis(adj: list[int], order: list[int], leave: list[int],
                  charge: Callable[[int], None]) -> int:
    """Maximum independent set of the vertices of ``order``, as a mask.

    The vertices are placed in order.  A state is the set of chosen vertices
    still on the frontier; it maps to the size and the mask of the best
    choice so far that leaves it.  A vertex may join when none of its
    neighbours is in the state, since its placed neighbours are all still on
    the frontier.  ``charge`` is told the number of states after each step.
    On equal sizes the state reached first is kept.
    """
    states = {0: (0, 0)}
    for v, gone in zip(order, leave):
        bit = 1 << v
        nbrs = adj[v]
        keep = ~gone
        nxt: dict[int, tuple[int, int]] = {}
        get = nxt.get
        for state, (size, chosen) in states.items():
            k = state & keep
            best = get(k)
            if best is None or best[0] < size:
                nxt[k] = (size, chosen)
            if not state & nbrs:
                k = (state | bit) & keep
                best = get(k)
                if best is None or best[0] <= size:
                    nxt[k] = (size + 1, chosen | bit)
        charge(len(nxt))
        states = nxt
    return states[0][1]


class _CoverSearch:
    """Branch and reduce on one connected component (adjacency as bitmasks)."""

    __slots__ = ("adj", "nodes", "budget")

    def __init__(self, adj: list[int], budget: int):
        self.adj = adj
        self.nodes = 0
        self.budget = budget

    def cover(self, comp: int, greedy: int) -> int:
        """Minimum cover of ``comp``: the search looks only below the cover
        ``greedy``, and ``greedy`` itself when it finds none."""
        mask = self.solve(comp, greedy.bit_count(), comp, root=True)[1]
        return greedy if mask is None else mask

    def charge(self, count: int) -> None:
        """Count frontier states into the node budget."""
        self.nodes += count
        if self.nodes > self.budget:
            raise BudgetExhausted

    def solve(self, active: int, limit: int, dirty: int,
              root: bool = False) -> tuple[int, int | None]:
        """Exact minimum cover of adj|active if below ``limit``, else (limit, None).

        ``dirty`` holds the vertices whose degree may have changed since the
        parent's reduction fixpoint: every other active vertex had degree at
        least 3 there and still has it, so no reduction can fire on it.  At
        the ``root`` a kernel that passes the frontier gate goes to the
        frontier DP, whose cover is returned even if it reaches ``limit``.
        """
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExhausted
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
            kernel = active.bit_count()
            lower = fixed + kernel - len(_greedy_clique_partition(adj, active))
            if lower >= limit:
                return limit, None
            if root:
                path = _frontier_order(adj, active, min(FRONTIER_MAX_WIDTH, limit - lower))
                if path is not None:
                    indep = _frontier_mis(adj, *path, self.charge)
                    return finish(kernel - indep.bit_count(), active ^ indep)

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


class _ColourSearch:
    """Maximum independent set by branch and bound with a greedy colouring
    bound (MCQ; Tomita & Seki 2003), on the graph's own rows.

    At each node the candidate set is split into the cliques of its greedy
    partition (``_greedy_clique_partition``: the colour classes of the
    complement); an independent set takes at most one vertex per clique, so
    the index of a vertex's clique bounds the set it can still grow into.
    The search branches from the last clique down and stops at the first
    that cannot beat the best set found, and skips a child whose candidate
    set the memo has proven too small (see the module docstring).  Recursion
    depth is at most the independence number plus one.
    """

    __slots__ = ("adj", "nodes", "budget", "best_size", "best_mask", "memo")

    def __init__(self, adj: list[int], budget: float):
        self.adj = adj
        self.nodes = 0
        self.budget = budget
        self.best_size = 0
        self.best_mask = 0
        self.memo: dict[int, int] = {}  # candidate set -> proven bound on its alpha

    def run(self, cand: int, start: int) -> int:
        """Maximum independent set within ``cand``; ``start`` is one to beat."""
        self.best_mask = start
        self.best_size = start.bit_count()
        self._expand(0, 0, cand)
        return self.best_mask

    def _expand(self, r_mask: int, r_size: int, p: int) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExhausted
        adj, memo, cand = self.adj, self.memo, p
        # drop the first kmin = best - |R| cliques: a vertex in clique
        # k <= kmin cannot lead to a set larger than the best
        kmin = max(self.best_size - r_size, 0)
        classes = _greedy_clique_partition(adj, p)[kmin:]
        while classes and r_size + kmin + len(classes) > self.best_size:
            bound = kmin + len(classes)  # the colour of the last class
            cls = classes.pop()
            while cls and r_size + bound > self.best_size:
                v = cls.bit_length() - 1
                bit = 1 << v
                cls ^= bit
                nxt = p & ~adj[v] ^ bit
                # nxt lies in the first bound - 1 cliques, so alpha(nxt) <
                # bound, and a set with no proof yet is always searched
                if not nxt:
                    if r_size + 1 > self.best_size:
                        self.best_size, self.best_mask = r_size + 1, r_mask | bit
                elif r_size + 1 + memo.get(nxt, bound) > self.best_size:
                    self._expand(r_mask | bit, r_size + 1, nxt)
                p ^= bit
        # every set in cand that could beat the incumbent was searched or
        # pruned against it, and the incumbent only grows
        proved = self.best_size - r_size
        if proved < memo.get(cand, proved + 1):
            memo[cand] = proved
            if len(memo) > MEMO_MAX:
                memo.clear()


def _renumbered(adj: list[int], order: list[int]) -> list[int]:
    """Adjacency of the subgraph on ``order`` in new ids (i for order[i]).

    Rows are cut to ``order``; one with more than a seventh of it as
    neighbours is read by a C-level gather over its bit string, a sparser one
    bit by bit: stepping over a bit costs about as much as gathering seven."""
    if not order:
        return []
    top = len(adj) - 1  # bit u of a row is digit top - u of its bit string
    gather = itemgetter(*[top - u for u in reversed(order)])  # new ids, high to low
    width = f"0{len(adj)}b"
    new_bit = {u: 1 << i for i, u in enumerate(order)}
    keep = sum(1 << u for u in order)
    return [int("".join(gather(format(a, width))), 2) if 7 * a.bit_count() > len(order)
            else sum(map(new_bit.__getitem__, bits(a)))
            for a in (adj[u] & keep for u in order)]


def _min_width_order(adj: list[int], comp: int) -> list[int]:
    """Min-width order of ``comp`` for the colour engine (Tomita & Kameda
    2007, on the complement): repeatedly take out the vertex with the most
    neighbours among those left, the highest id on ties; the last one taken
    out comes first.  The greedy clique partition then starts in the
    sparsest core of the component, and branching from its densest vertices.

    The degrees are bit-sliced (BBMC; San Segundo et al. 2011): bit u of
    ``planes[j]`` is bit j of the degree of u among the vertices left.  A
    step narrows those to the most-degree set from the top plane down, and
    lowers its neighbours' degrees in one borrow chain: O(log n) mask
    operations in place of one update per edge, a third of the time."""
    planes = [0] * comp.bit_count().bit_length()  # a degree is below |comp|
    for u in bits(comp):  # add each row into the counters, a carry chain per row
        carry = adj[u] & comp
        j = 0
        while carry:
            p = planes[j]
            planes[j] = p ^ carry
            carry &= p
            j += 1
    taken = []
    while comp:
        cand = comp
        for p in reversed(planes):
            if cand & p:
                cand &= p
        u = cand.bit_length() - 1
        comp ^= 1 << u
        taken.append(u)
        borrow = adj[u] & comp  # each has degree >= 1, so the chain stops
        j = 0
        while borrow:
            p = planes[j]
            planes[j] = p ^ borrow
            borrow &= ~p
            j += 1
        if planes and not planes[-1] & comp:
            planes.pop()
    return taken[::-1]


def _colour_side(theta: int, size: int, room: int) -> bool:
    """The engine rule: True sends a component of ``size`` vertices whose
    greedy clique partition has ``theta`` cliques to the colour engine;
    ``room`` is the frames the stack has left for its theta + 1 levels."""
    return theta <= COLOUR_ENGINE_MAX_SHARE * size and theta < room


def _theta_hat(adj: list[int], comp: int,
               theta_id: int) -> tuple[int, tuple[list[int], list[int]] | None]:
    """theta-hat of a component, given ``theta_id``, its greedy clique
    partition in id order, which follows the structure of products; min-width
    order suits graphs without it.  Returns the smaller count (ties: id order)
    and, when min-width order wins, that order (new id -> old id) with the
    component's rows in it; else None."""
    order = _min_width_order(adj, comp)
    rows = _renumbered(adj, order)
    theta = len(_greedy_clique_partition(rows, (1 << len(order)) - 1))
    return (theta, (order, rows)) if theta < theta_id else (theta_id, None)


def min_vertex_cover(g: Graph, node_budget: int = DEFAULT_NODE_BUDGET) -> CoverResult:
    """Exact minimum vertex cover (disconnected and edgeless inputs allowed).

    A component goes to the colour engine when its greedy clique partition
    has theta-hat <= ``COLOUR_ENGINE_MAX_SHARE`` of its order and the stack
    has room for theta-hat + 1 more levels of recursion, and to branch and
    reduce otherwise, whose root kernel goes to the frontier DP when it
    passes the frontier gate.  When the node budget runs out the component
    keeps its greedy cover and the result has ``proven_optimal=False``;
    callers that need exactness read it through ``CoverResult.exact``.  A
    search that outgrows ``sys.getrecursionlimit()`` raises
    ``BudgetExhausted``.
    """
    # frames left for the colour engine's levels: the limit, less the frames
    # on the stack (this one included) and 12 for ``run``, the partition the
    # deepest level calls, and calls made through C, which count towards the
    # limit but hold no frame
    depth, frame = 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    room = sys.getrecursionlimit() - depth - 12
    adj = list(g.adj)
    nodes = 0
    cover_mask = 0
    proven = True
    for comp in component_masks(g):
        if comp & (comp - 1) == 0:
            continue  # an isolated vertex needs no cover
        greedy = _greedy_cover(adj, comp)
        start = comp & ~greedy
        theta = len(_greedy_clique_partition(adj, comp))
        renumbered = None
        # alpha <= theta-hat in any order, so when the greedy independent set
        # reaches the id-order count, min-width order cannot beat it
        if theta > start.bit_count():
            theta, renumbered = _theta_hat(adj, comp, theta)
        budget = node_budget - nodes
        colour = _colour_side(theta, comp.bit_count(), room)
        order, rows = renumbered or (None, adj)
        engine = _ColourSearch(rows, budget) if colour else _CoverSearch(adj, budget)
        try:
            if not colour:
                cover_mask |= engine.cover(comp, greedy)
            elif order is None:
                cover_mask |= comp & ~engine.run(comp, start)
            else:
                indep = engine.run((1 << len(order)) - 1,
                                   sum(1 << i for i, u in enumerate(order) if start >> u & 1))
                cover_mask |= comp & ~sum(1 << order[i] for i in bits(indep))
        except BudgetExhausted:
            proven = False
            cover_mask |= greedy
        except RecursionError:
            raise BudgetExhausted("cover search outgrew the recursion limit of "
                                  f"{sys.getrecursionlimit()} frames") from None
        nodes += engine.nodes
    outside = ((1 << g.n) - 1) & ~cover_mask
    for u in bits(outside):
        if g.adj[u] & outside:
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


def _clique_partition(adj: list[int], active: int, k: int, seeds: int,
                      node_budget: int) -> list[int] | None:
    """A partition of ``active`` into at most k cliques, as masks, or None;
    ``BudgetExhausted`` once it would place more than ``node_budget`` vertices.

    ``seeds`` is an independent set of at most k vertices, so each seed opens
    its own clique.  The search places the most constrained vertex first
    (fewest cliques it can join, plus one if a clique may still open; lowest
    id on ties), and opens at most one new clique per step, so no two
    branches differ only in the order of their cliques.
    """
    cliques = [1 << s for s in bits(seeds)]
    nodes = 0

    def place(rem: int) -> bool:
        nonlocal nodes
        if not rem:
            return True
        nodes += 1
        if nodes > node_budget:
            raise BudgetExhausted("clique partition search exhausted its node budget")
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


def _checked_partition(g: Graph, cliques: list[int]) -> list[int]:
    """``cliques``, masks partitioning V(g) into cliques, checked and ordered
    by lowest vertex."""
    seen = 0
    for c in cliques:
        if seen & c:
            raise AssertionError("clique parts overlap")
        seen |= c
        if any(c & ~(g.adj[u] | 1 << u) for u in bits(c)):
            raise AssertionError(f"part {list(bits(c))} is not a clique")
    if seen != (1 << g.n) - 1:
        raise AssertionError("clique parts do not cover the vertex set")
    return sorted(cliques, key=lambda c: c & -c)


def clique_cover_number(g: Graph, node_budget: int) -> tuple[int, list[int]]:
    """Minimum number of cliques partitioning V(g), with the witness cliques
    as masks ordered by lowest vertex; ``BudgetExhausted`` when the cover, or
    a partition search given the nodes that the cover left, runs out of
    ``node_budget``.

    Counts k up from beta(g), which every clique partition reaches: the
    cliques hold the vertices of an independent set one each."""
    if g.n > DEFAULT_RECOGNITION_CAP:
        raise ValueError(f"clique cover recognition capped at {DEFAULT_RECOGNITION_CAP} vertices")
    res = min_vertex_cover(g, node_budget).exact()
    full = (1 << g.n) - 1
    seeds = full & ~sum(1 << v for v in res.witness)
    left = node_budget - res.nodes_explored
    k = seeds.bit_count()
    while (cliques := _clique_partition(g.adj, full, k, seeds, left)) is None:
        k += 1
    return k, _checked_partition(g, cliques)


def c_graph_partition(g: Graph, independent: frozenset[int], node_budget: int,
                      cap: int = DEFAULT_RECOGNITION_CAP) -> list[int] | None:
    """A partition of V(g) into |independent| cliques, as checked masks
    ordered by lowest vertex, or None, for a maximum independent set that the
    caller holds; a partition proves theta = beta.

    The id-order greedy partition decides first; if it has more cliques, the
    exact search seeded with ``independent`` decides, within ``node_budget``
    nodes, and only up to ``cap`` vertices (above it None means "not
    shown").  A partition into beta cliques puts the vertices of any maximum
    independent set in distinct cliques, so the seeds change no answer."""
    if not all(0 <= v < g.n for v in independent):
        raise ValueError(f"independent-set vertex outside the vertex range 0..{g.n - 1}")
    seeds = sum(1 << v for v in independent)
    if any(g.adj[v] & seeds for v in independent):
        raise ValueError("C-graph recognition needs an independent set")
    full = (1 << g.n) - 1
    cliques = _greedy_clique_partition(g.adj, full)
    if len(cliques) > len(independent):
        cliques = (_clique_partition(g.adj, full, len(independent), seeds, node_budget)
                   if g.n <= cap else None)
    return None if cliques is None else _checked_partition(g, cliques)


def _splits_less_a_vertex(g: Graph, independent: frozenset[int], node_budget: int) -> bool:
    """The C1-graph test once g is known not to be a C-graph: some V(g) - b
    partitions into at most beta cliques, which then means exactly beta, as
    theta(g - b) >= theta(g) - 1 >= beta(g)."""
    seeds = sum(1 << v for v in independent)
    full = (1 << g.n) - 1
    return any(_clique_partition(g.adj, full ^ (1 << b), len(independent), seeds & ~(1 << b),
                                 node_budget) is not None for b in range(g.n))
