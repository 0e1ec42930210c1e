"""Exact solvers: minimum vertex cover, independence number, clique cover.

``min_vertex_cover`` solves each connected component with one of two exact
engines, chosen from a bound the component itself shows:

- The colour engine (``_ColourSearch``) is a maximum-independent-set branch
  and bound with a greedy colouring bound (MCQ; Tomita & Seki 2003): its
  colour classes are the cliques of the greedy clique partition, which an
  independent set meets once each; the cover is the rest.  A node builds
  only the cliques it branches on, and settles leaf children in its loop.
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
cliques, so the colour bound is tight.  Any other component, typically
long and sparse with many small cliques that the reductions take apart, goes
to branch and reduce.  Both engines count nodes, and the DP its states, into
one budget; when it runs out the component keeps its greedy cover and the
result says ``proven_optimal=False``.  Their search frames are generators
that yield each child frame, run by ``_drive`` on one list, so the depth of
a search is bounded by the budget, not by the interpreter's stack.

A component settles first, in one node as the colour engine's root would,
when a greedy clique partition of the graph's own rows has no more cliques
than the min-degree greedy independent set (851 of the 1,065 components of
the 744 covers of ``verify all --seed 42``).  Any other is numbered from
the top (``_top_rows``: one bit-matrix transpose if dense, else bit by bit),
its rows and single bits in lists indexed by bit length.  Every scan runs
from the top bit, one ``bit_length()`` a step, and the colour engine
branches from each class's lowest bit: each search is the lowest-first one
in mirror image, node for node.  The min-width order is built only when id
order counts more cliques than the greedy independent set.

The colour engine keeps the bounds it proves.  When a node with candidate
set P and current set R returns, or is settled in its parent's loop, every
set that could beat the incumbent was found or pruned against it, so
alpha(P) <= best - |R|: the incumbent only grows, and a budget stop raises
before the store.  A memo maps P to that bound (the smaller one when P is
proven twice), and a child whose candidate set P' has |R| + 1 + memo[P'] <=
best is skipped.  A skipped child could not raise the incumbent, so the
witness is the one the plain search finds.  The memo keeps at most
``MEMO_MAX`` sets and is cleared when it overflows.  The search repeats
candidate sets on odd-odd products: beta(C9xC9) = 18 takes 4,680 nodes with
the memo and 47,398 without it, beta(C9xC11) = 22 21,752 against 214,881,
and beta(C11xC11) = 27 144,020, where the plain search runs past 2,000,000.

The two engines share only the greedy clique partition, so subset
enumeration referees them: the tests run both on the same components, and
both against it; with the frontier gate shut, and with the DP run on every
root kernel (its order built without a cap on width), both check the DP
too.  Everything is deterministic: every tie breaks on vertex ids.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from typing import NamedTuple

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


class CoverResult(NamedTuple):
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


def _bit_table(n: int) -> list[int]:
    """The single bits of ids 0..n-1, indexed by bit length (entry 0 is 0)."""
    return [0, *(1 << i for i in range(n))]


def _greedy_clique_partition(rows: list[int], bit: list[int], active: int,
                             skip: int = 0) -> list[int]:
    """The greedy clique partition of ``active``, as masks: each clique grown
    from its highest vertex left by adding the highest common neighbour.  Its
    size bounds beta.  rows[t] is the row of vertex bit[t], t its bit length
    (entries 0 are 0, so a step on no vertex is void).  The first ``skip``
    cliques (none if ``skip`` <= 0) are taken out but not returned."""
    rem = active
    for _ in range(skip):
        t = rem.bit_length()
        rem ^= bit[t]
        cand = rows[t] & rem
        while cand:
            t = cand.bit_length()
            rem ^= bit[t]
            cand &= rows[t]
    cliques = []
    while rem:
        t = rem.bit_length()
        clique = bit[t]
        cand = rows[t] & rem
        while cand:
            t = cand.bit_length()
            clique |= bit[t]
            cand &= rows[t]
        rem ^= clique
        cliques.append(clique)
    return cliques


def _top_rows(adj: list[int], order: list[int]) -> tuple[list[int], list[int]]:
    """``order`` numbered from the top, so a top-first scan meets it in order:
    (ids, rows), ids[i] the old id of new id i, rows indexed by bit length."""
    ids = order[::-1]
    return ids, [0, *_renumbered(adj, ids)]


def _frontier_order(adj: list[int], active: int, cap: int) -> tuple[list[int], list[int]] | None:
    """Reverse Cuthill–McKee order of ``active`` for the frontier DP, or None
    once its vertex separation exceeds ``cap``.

    Each breadth-first search starts from a vertex of least degree and takes
    new neighbours by (degree, -id); it restarts on each piece of ``active``.
    Read backwards, the search's queue is the frontier: after the vertices
    behind position i in Cuthill–McKee order are placed, the placed vertices
    with a neighbour still to come are those queued when i is dequeued.  So
    the separation is the longest queue, and a vertex leaves the frontier
    when the vertex that queued it is placed (a search's first vertex, which
    none queued, when it is placed itself).  Returns the order and, for each
    position, the mask of vertices that leave the frontier there.
    """
    deg = {u: ((adj[u] & active).bit_count(), -u) for u in bits(active)}
    key = deg.__getitem__  # ties: the higher id first
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


def _drive(frame: Iterator) -> None:
    """Run a search whose frames are generators that yield each child frame
    to run before they resume: the frames live on one list, not the stack."""
    stack = [frame]
    while stack:
        if (child := next(stack[-1], None)) is None:
            stack.pop()
        else:
            stack.append(child)


class _CoverSearch:
    """Branch and reduce on one connected component; vertices go by bit length."""

    __slots__ = ("adj", "bit", "nodes", "budget", "result")

    def __init__(self, adj: list[int], bit: list[int], budget: int):
        self.adj = adj
        self.bit = bit
        self.nodes = 0
        self.budget = budget

    def cover(self, comp: int, greedy: int) -> int:
        """Minimum cover of ``comp``: the search looks only below the cover
        ``greedy``, and ``greedy`` itself when it finds none."""
        _drive(self.solve(comp, greedy.bit_count(), comp, root=True))
        mask = self.result[1]
        return greedy if mask is None else mask

    def charge(self, count: int) -> None:
        """Count frontier states into the node budget."""
        self.nodes += count
        if self.nodes > self.budget:
            raise BudgetExhausted

    def solve(self, active: int, limit: int, dirty: int,
              root: bool = False) -> Iterator[Iterator]:
        """The frame that leaves in ``result`` the exact minimum cover of
        adj|active, (size, mask), if below ``limit``, else (limit, None).

        ``dirty`` holds the vertices whose degree may have changed since the
        parent's reduction fixpoint: every other active vertex had degree at
        least 3 there and still has it, so no reduction can fire on it.  At
        the ``root`` a kernel that passes the frontier gate goes to the
        frontier DP, whose cover is returned even if it reaches ``limit``.
        """
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExhausted
        self.result = limit, None
        if limit <= 0:
            return
        adj, bit = self.adj, self.bit
        fixed = 0          # cover size committed by reductions at this node
        chosen = 0         # vertices committed by reductions
        folds: list[tuple[int, int, int]] = []
        undo: list[tuple[int, int]] = []

        try:
            # Reduction fixpoint over a worklist.  A pass visits its vertices
            # from the top down; a vertex whose degree a reduction changed is
            # visited later in the same pass if it lies below the cursor,
            # else in the next pass.  This fires the same reductions in the
            # same order as rescanning every active vertex until none fires.
            queue = dirty & active
            while queue:
                todo, queue = queue, 0
                while todo:
                    u = todo.bit_length()
                    low = bit[u]
                    todo ^= low
                    if not active & low:
                        continue
                    au = adj[u] & active
                    d = au.bit_count()
                    if d == 0:
                        active ^= low
                        continue
                    if d == 1:
                        chosen |= au
                        fixed += 1
                        active &= ~(au | low)
                        touched = adj[au.bit_length()] & active
                    elif d == 2:
                        v = au.bit_length()
                        w = (au ^ bit[v]).bit_length()
                        if adj[v] & bit[w]:
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
                                t = m.bit_length()
                                m ^= bit[t]
                                if not adj[t] & low:
                                    undo.append((t, adj[t]))
                                    adj[t] |= low
                            active &= ~au
                            folds.append((u, v, w))
                            fixed += 1
                            touched = merged | low
                    else:
                        continue
                    below = touched & (low - 1)
                    todo |= below
                    queue |= touched ^ below

            def finish(sub_size: int, sub_mask: int) -> tuple[int, int]:
                mask = chosen | sub_mask
                for z, v, w in reversed(folds):
                    if mask & bit[z]:
                        mask = (mask ^ bit[z]) | bit[v] | bit[w]
                    else:
                        mask |= bit[z]
                return fixed + sub_size, mask

            if fixed >= limit:
                return
            if active == 0:
                self.result = finish(0, 0)
                return
            # a clique on q vertices forces q - 1 of them into the cover
            kernel = active.bit_count()
            lower = fixed + kernel - len(_greedy_clique_partition(adj, bit, active))
            if lower >= limit:
                return
            if root:
                rows = adj[1:]  # the DP reads rows by id
                path = _frontier_order(rows, active, min(FRONTIER_MAX_WIDTH, limit - lower))
                if path is not None:
                    indep = _frontier_mis(rows, *path, self.charge)
                    self.result = finish(kernel - indep.bit_count(), active ^ indep)
                    return

            # branch on the max-degree vertex (ties: the highest); the worklist
            # left every active vertex at degree >= 3, so this is the only scan
            pivot = -1
            pivot_deg = -1
            m = active
            while m:
                u = m.bit_length()
                m ^= bit[u]
                d = (adj[u] & active).bit_count()
                if d > pivot_deg:
                    pivot, pivot_deg = u, d
            pv = adj[pivot] & active

            best_size, best_mask = limit, None
            # branch 1: pivot joins the cover
            yield self.solve(active & ~bit[pivot], best_size - fixed - 1, pv)
            s, mk = self.result
            if mk is not None:
                total, full = finish(1 + s, mk | bit[pivot])
                if total < best_size:
                    best_size, best_mask = total, full
            # branch 2: the whole neighborhood joins the cover
            rest = active & ~(pv | bit[pivot])
            touched = 0
            m = pv
            while m:
                t = m.bit_length()
                m ^= bit[t]
                touched |= adj[t]
            yield self.solve(rest, best_size - fixed - pivot_deg, touched & rest)
            s, mk = self.result
            if mk is not None:
                total, full = finish(pivot_deg + s, mk | pv)
                if total < best_size:
                    best_size, best_mask = total, full
            self.result = best_size, best_mask
        finally:
            for idx, old in reversed(undo):
                adj[idx] = old


class _ColourSearch:
    """Maximum independent set by branch and bound with a greedy colouring
    bound (MCQ; Tomita & Seki 2003), on rows and bits indexed by bit length.

    At each node the candidate set is split into the cliques of its greedy
    partition (``_greedy_clique_partition``: the colour classes of the
    complement); an independent set takes at most one vertex per clique, so
    the index of a vertex's clique bounds the set it can still grow into.
    The search branches from the last clique down, each from its lowest bit,
    and stops at the first that cannot beat the best set found, and skips a
    child whose candidate set the memo has proven too small (see the module
    docstring).  Each node's cliques past kmin = best - |R|, the only ones
    it branches on, are built in its parent's loop (``run``'s, at the root).
    A child P' with none is settled there, charged one node, with memo[P'] =
    best - |R| - 1; only a child with cliques gets a frame.
    """

    __slots__ = ("adj", "bit", "nodes", "budget", "best_size", "best_mask", "memo")

    def __init__(self, adj: list[int], bit: list[int], budget: float):
        self.adj = adj
        self.bit = bit
        self.nodes = 0
        self.budget = budget
        self.best_size = 0
        self.best_mask = 0
        self.memo: dict[int, int] = {}  # candidate set -> proven bound on its alpha

    def run(self, cand: int, start: int) -> int:
        """Maximum independent set within ``cand``; ``start`` is one to beat."""
        self.best_mask = start
        self.best_size = start.bit_count()
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExhausted
        if classes := _greedy_clique_partition(self.adj, self.bit, cand, self.best_size):
            _drive(self._expand(0, 0, cand, classes))
        return self.best_mask

    def _expand(self, r_mask: int, r_size: int, p: int, classes: list[int]) -> Iterator[Iterator]:
        adj, bit, memo, cand = self.adj, self.bit, self.memo, p
        kmin = max(self.best_size - r_size, 0)  # clique k <= kmin cannot beat best
        while classes and r_size + kmin + len(classes) > self.best_size:
            bound = kmin + len(classes)  # the colour of the last class
            cls = classes.pop()
            while cls and r_size + bound > self.best_size:
                low = cls & -cls
                cls ^= low
                nxt = p & ~adj[low.bit_length()] ^ low
                # nxt lies in the first bound - 1 cliques, so alpha(nxt) <
                # bound, and a set with no proof yet is always searched
                if not nxt:
                    if r_size + 1 > self.best_size:
                        self.best_size, self.best_mask = r_size + 1, r_mask | low
                elif r_size + 1 + memo.get(nxt, bound) > self.best_size:
                    self.nodes += 1
                    if self.nodes > self.budget:
                        raise BudgetExhausted
                    if kids := _greedy_clique_partition(adj, bit, nxt, self.best_size - r_size - 1):
                        yield self._expand(r_mask | low, r_size + 1, nxt, kids)
                    else:  # settled here: alpha(nxt) <= its kmin
                        memo[nxt] = self.best_size - r_size - 1
                        if len(memo) > MEMO_MAX:
                            memo.clear()
                p ^= low
        # every set in cand that could beat the incumbent was searched or
        # pruned against it, and the incumbent only grows
        proved = self.best_size - r_size
        if proved < memo.get(cand, proved + 1):
            memo[cand] = proved
            if len(memo) > MEMO_MAX:
                memo.clear()


def _renumbered(adj: list[int], order: list[int]) -> list[int]:
    """Adjacency of the subgraph on ``order`` in new ids (i for order[i]).

    Rows are cut to ``order``.  If they hold over a seventh of it as
    neighbours on average, the new row of order[j] is its old column (the
    rows are symmetric), one ``int(..., 2)`` of the rows' bit string over the
    ids ``order`` spans; sparser rows are read bit by bit, and so build no
    string of len(order) times that span."""
    keep = sum(1 << u for u in order)
    rows = [adj[u] & keep for u in order]
    if 7 * sum(a.bit_count() for a in rows) <= len(order) ** 2:
        new_bit = {u: 1 << i for i, u in enumerate(order)}
        return [sum(map(new_bit.__getitem__, bits(a))) for a in rows]
    lo, hi = min(order), max(order)  # new ids high to low, old ids hi down to lo
    matrix = "".join(format(a >> lo, f"0{hi - lo + 1}b") for a in reversed(rows))
    return [int(matrix[hi - u::hi - lo + 1], 2) for u in order]


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


def _colour_side(theta: int, size: int) -> bool:
    """The engine rule: True sends a component of ``size`` vertices whose
    greedy clique partition has ``theta`` cliques to the colour engine."""
    return theta <= COLOUR_ENGINE_MAX_SHARE * size


def _theta_hat(adj: list[int], bit: list[int], comp: int,
               independent: int) -> tuple[int, tuple, tuple]:
    """theta-hat of a component: its greedy clique partition counted in id
    order, which follows the structure of products, and, past ``independent``
    cliques, in min-width order, which suits graphs without it.  Returns the
    smaller count (ties: id order), with ``_top_rows`` of both orders."""
    full = (1 << comp.bit_count()) - 1
    by_id = _top_rows(adj, list(bits(comp)))
    theta = len(_greedy_clique_partition(by_id[1], bit, full))
    if theta > independent:
        by_width = _top_rows(adj, _min_width_order(adj, comp))
        width = len(_greedy_clique_partition(by_width[1], bit, full))
        if width < theta:
            return width, by_id, by_width
    return theta, by_id, by_id


def min_vertex_cover(g: Graph, node_budget: int = DEFAULT_NODE_BUDGET) -> CoverResult:
    """Exact minimum vertex cover (disconnected and edgeless inputs allowed).

    A component goes to the colour engine when its greedy clique partition
    has theta-hat <= ``COLOUR_ENGINE_MAX_SHARE`` of its order, and to branch
    and reduce otherwise, whose root kernel goes to the frontier DP when it
    passes the frontier gate (see the module docstring for the components
    that settle first).  When the node budget runs out the component keeps
    its greedy cover and the result has ``proven_optimal=False``; callers
    that need exactness read it through ``CoverResult.exact``.
    """
    adj = list(g.adj)
    own, bit = [0, *adj], _bit_table(g.n)  # the graph's own rows, by bit length
    nodes = 0
    cover_mask = 0
    proven = True
    for comp in component_masks(g):
        if comp & (comp - 1) == 0:
            continue  # an isolated vertex needs no cover
        greedy = _greedy_cover(adj, comp)
        start = comp & ~greedy
        # alpha <= the size of any clique partition (see the module docstring)
        if len(_greedy_clique_partition(own, bit, comp)) <= start.bit_count():
            nodes += 1
            proven = proven and nodes <= node_budget
            cover_mask |= greedy
            continue
        theta, by_id, by_theta = _theta_hat(adj, bit, comp, start.bit_count())
        colour = _colour_side(theta, len(by_id[0]))
        ids, rows = by_theta if colour else by_id
        full = (1 << len(ids)) - 1
        indep = sum(1 << i for i, u in enumerate(ids) if start >> u & 1)
        engine = (_ColourSearch if colour else _CoverSearch)(rows, bit, node_budget - nodes)
        try:
            indep = engine.run(full, indep) if colour else full & ~engine.cover(full, full & ~indep)
            cover_mask |= comp & ~sum(1 << ids[i] for i in bits(indep))
        except BudgetExhausted:
            proven = False
            cover_mask |= greedy
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
    ids, rows = _top_rows(g.adj, list(range(g.n)))
    cliques = [sum(1 << ids[i] for i in bits(c)) for c in _greedy_clique_partition(
        rows, _bit_table(g.n), full)]
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
