import hashlib
import random
import sys
from itertools import combinations
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongdim import cover, dimension, verify
from strongdim.cli import main as cli_main
from strongdim.cover import (
    DEFAULT_NODE_BUDGET,
    BudgetExhausted,
    c_graph_partition,
    clique_cover_number,
    max_independent_set,
    min_vertex_cover,
)
from strongdim.graph import (
    bits,
    complement,
    complete,
    complete_multipartite,
    component_masks,
    cycle,
    disjoint_union,
    grid,
    make_graph,
    path,
    random_connected,
    star,
    to_graph6,
)
from strongdim.products import product
from strongdim.resolving import strong_resolving_graph

from oracles import brute_min_cover, is_c1_graph, max_clique
from test_graph import random_graph_strategy


def brute_clique_cover(g):
    """Exhaustive search for the smallest partition of V into cliques."""
    def is_clique(part):
        return all(g.adj[a] >> b & 1 for a in part for b in part if a < b)

    best = [g.n]

    def rec(remaining, count):
        if count >= best[0]:
            return
        if not remaining:
            best[0] = count
            return
        v = min(remaining)
        rest = sorted(remaining - {v})
        for r in range(len(rest) + 1):
            for extra in combinations(rest, r):
                part = {v, *extra}
                if is_clique(part):
                    rec(remaining - part, count + 1)

    rec(frozenset(range(g.n)), 0)
    return best[0]


def seeded_graphs(count, n_lo, n_hi, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randrange(n_lo, n_hi + 1)
        p = rng.choice([0.2, 0.35, 0.5, 0.7])
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        out.append(make_graph(n, edges))
    return out


# -- vertex cover ---------------------------------------------------------------


def test_cover_of_complete_and_odd_cycle():
    for n in range(2, 8):
        assert min_vertex_cover(complete(n)).size == n - 1
    assert min_vertex_cover(cycle(5)).size == 3


def test_cover_handles_edgeless_and_disconnected():
    assert min_vertex_cover(make_graph(4, [])).size == 0
    g = disjoint_union([cycle(5), complete(3), complete(1)])
    assert min_vertex_cover(g).size == 3 + 2


def test_cover_matches_brute_force_on_seeded_corpus():
    for g in seeded_graphs(120, 1, 10, seed=2024):
        res = min_vertex_cover(g)
        assert res.proven_optimal
        assert res.size == brute_min_cover(g)


def test_cover_matches_brute_force_up_to_n14():
    for g in seeded_graphs(8, 13, 14, seed=404):
        assert min_vertex_cover(g).size == brute_min_cover(g)


def plain_max_independent(adj, active):
    """Reduction-free branching MIS; an independent oracle for the folding code."""
    if not active:
        return 0
    low = active & -active
    v = low.bit_length() - 1
    without = plain_max_independent(adj, active ^ low)
    with_v = 1 + plain_max_independent(adj, active & ~(adj[v] | low))
    return max(without, with_v)


def test_sparse_graphs_stress_folding_chains():
    # sparse inputs drive long degree-1/degree-2 reduction chains
    rng = random.Random(555)
    for _ in range(40):
        n = rng.randrange(12, 17)
        p = rng.choice([0.12, 0.18, 0.25])
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        g = make_graph(n, edges)
        alpha = min_vertex_cover(g).size
        assert alpha == g.n - plain_max_independent(g.adj, (1 << g.n) - 1)


def test_paths_and_cycles_closed_forms():
    # paths and cycles collapse entirely through folding
    for n in range(2, 31):
        res = min_vertex_cover(path(n))
        assert res.size == n // 2
    for n in range(3, 31):
        res = min_vertex_cover(cycle(n))
        assert res.size == (n + 1) // 2


@given(random_graph_strategy(max_n=9))
@settings(max_examples=80, deadline=None)
def test_cover_witness_and_gallai(g):
    res = min_vertex_cover(g)
    for u, v in g.edges():
        assert u in res.witness or v in res.witness
    assert len(res.witness) == res.size
    assert len(max_independent_set(g)) == g.n - res.size


def _renumbered_by_dict(adj, order):
    """The subgraph on ``order`` in new ids, one neighbour at a time."""
    pos = {u: i for i, u in enumerate(order)}
    return [sum(1 << pos[w] for w in bits(adj[u]) if w in pos) for u in order]


def test_renumbered_matches_dict_loop():
    rng = random.Random(3)
    g = disjoint_union([complete(1), cycle(7), random_connected(140, 0.05, 11), path(5),
                        complete(1)])
    adj = list(g.adj)
    comps = component_masks(g)
    assert [comp.bit_count() for comp in comps] == [1, 7, 140, 5, 1]
    # every component but the first lies off the prefix of the ids; the rows of
    # C7 and P5 are dense enough for the transpose, those of the G(140, .05) not
    for comp in comps:
        order = list(bits(comp))
        rng.shuffle(order)
        for o in (list(bits(comp)), order, cover._min_width_order(adj, comp)):
            assert cover._renumbered(adj, o) == _renumbered_by_dict(adj, o)


def test_renumbered_cuts_rows_that_leave_order():
    # both branches drop a neighbour outside ``order``, and an empty order
    # has no rows
    assert cover._renumbered([2, 1], [0]) == [0]
    assert cover._renumbered([0, 0], []) == []
    rng = random.Random(4)
    dense = set()
    for g in (complete(12), cycle(9), random_connected(140, 0.05, 11),
              random_connected(60, 0.5, 2)):
        adj = list(g.adj)
        for _ in range(6):
            order = rng.sample(range(g.n), rng.randint(1, g.n - 1))
            keep = sum(1 << u for u in order)
            dense.add(7 * sum((adj[u] & keep).bit_count() for u in order) > len(order) ** 2)
            assert any(adj[u] & ~keep for u in order)
            assert cover._renumbered(adj, order) == _renumbered_by_dict(adj, order)
    assert dense == {False, True}


def test_renumbered_transposes_a_dense_component_far_from_id_0():
    # the transpose reads columns over the span of ``order``: here ids
    # 3000..3059 of a 3,060-vertex graph, whose sparse cycle keeps the bit loop
    g = disjoint_union([cycle(3000), random_connected(60, 0.5, 2)])
    adj = list(g.adj)
    rng = random.Random(5)
    for comp in component_masks(g):
        order = list(bits(comp))
        rng.shuffle(order)
        for o in (list(bits(comp)), order, order[: len(order) // 2]):
            rows = [adj[u] & sum(1 << w for w in o) for u in o]
            dense = 7 * sum(a.bit_count() for a in rows) > len(o) ** 2
            assert dense == (min(o) >= 3000)
            assert cover._renumbered(adj, o) == _renumbered_by_dict(adj, o)


def test_vertex_residue_rows_match_the_dict_loop():
    prod = product("strong", cycle(9), cycle(11))
    order = list(bits(((1 << 99) - 1) & ~(prod.adj[0] | 1)))
    residue = verify._vertex_residue(prod, 11)
    assert residue.n == 99 - 9
    assert list(residue.adj) == _renumbered_by_dict(list(prod.adj), order)


def _min_width_order_by_max(adj, comp):
    """The min-width order by its definition: the max of a dict of degrees at
    each step, updated one edge at a time."""
    left = list(bits(comp))[::-1]
    deg = {u: (adj[u] & comp).bit_count() for u in left}
    taken = []
    while left:
        u = max(left, key=deg.__getitem__)  # the first of the highest ids
        left.remove(u)
        taken.append(u)
        comp ^= 1 << u
        for v in bits(adj[u] & comp):
            deg[v] -= 1
    return taken[::-1]


@st.composite
def graph_and_mask(draw):
    g = draw(random_graph_strategy(max_n=16))
    return g, draw(st.integers(min_value=0, max_value=(1 << g.n) - 1))


@given(graph_and_mask())
@settings(max_examples=200, deadline=None)
def test_min_width_order_matches_max_over_degrees(case):
    g, mask = case
    adj = list(g.adj)
    assert cover._min_width_order(adj, mask) == _min_width_order_by_max(adj, mask)


def test_min_width_order_breaks_ties_like_max_over_degrees():
    # every step is a tie on an edgeless, complete or cycle graph, and the
    # SR graphs of G(100, .08) are the colour engine's usual input
    assert cover._min_width_order(list(complete(3).adj), 0) == []
    assert cover._min_width_order(list(complete(3).adj), 0b100) == [2]
    cases = [make_graph(n, []) for n in (1, 2, 9)] + [complete(n) for n in (2, 5, 11)]
    cases += [cycle(n) for n in (3, 8, 13)]
    cases += [strong_resolving_graph(random_connected(100, 0.08, seed)).sr for seed in (1, 2, 3)]
    rng = random.Random(27)
    for g in cases:
        adj = list(g.adj)
        for mask in ((1 << g.n) - 1, rng.getrandbits(g.n), *component_masks(g)):
            assert cover._min_width_order(adj, mask) == _min_width_order_by_max(adj, mask)
    # C5 takes out 4 (a tie of five), 2 (of 1, 2), 1 (of 0, 1), then 3 and 0
    assert cover._min_width_order(list(cycle(5).adj), 0b11111) == [0, 3, 1, 2, 4]


def own_partition(g, mask, skip=0):
    """The greedy clique partition of ``mask`` on the graph's own rows."""
    return cover._greedy_clique_partition([0, *g.adj], cover._bit_table(g.n), mask, skip)


def to_new(mask, ids):
    """``mask`` in the new ids of ``ids`` (new id -> old id)."""
    return sum(1 << i for i, u in enumerate(ids) if mask >> u & 1)


def to_old(mask, ids):
    """``mask``, in the new ids of ``ids``, read back in old ids."""
    return sum(1 << ids[i] for i in bits(mask))


def id_order_partition(adj, active, skip=0):
    """The greedy clique partition in id order, by its definition: each clique
    grown from its lowest vertex left by adding the lowest common neighbour;
    the first ``skip`` cliques left out."""
    rem, cliques = active, []
    while rem:
        clique = rem & -rem
        cand = adj[clique.bit_length() - 1] & rem
        while cand:
            low = cand & -cand
            clique |= low
            cand &= adj[low.bit_length() - 1]
        rem ^= clique
        cliques.append(clique)
    return cliques[max(skip, 0):]


def test_greedy_clique_partition_splits_its_mask_into_cliques():
    # the one greedy partition behind the colour classes, the branch-and-reduce
    # bound, the engine rule and the C-graph test: on any mask its parts are
    # nonempty, disjoint cliques that cover the mask and nothing else, so with
    # each vertex outside the mask as a part of its own they partition V(g)
    rng = random.Random(20)
    for g in seeded_graphs(200, 1, 24, seed=20):
        for mask in ((1 << g.n) - 1, *(rng.getrandbits(g.n) for _ in range(4))):
            cliques = own_partition(g, mask)
            assert all(cliques)
            outside = [1 << v for v in range(g.n) if not mask >> v & 1]
            cover._checked_partition(g, cliques + outside)


@given(random_graph_strategy(max_n=12), st.integers(0, 1 << 12), st.integers(-1, 13))
@settings(max_examples=150, deadline=None)
def test_greedy_clique_partition_skips_its_first_cliques(g, mask, skip):
    mask &= (1 << g.n) - 1
    full = own_partition(g, mask)
    assert own_partition(g, mask, skip) == full[max(skip, 0):]
    assert own_partition(g, mask, len(full) + skip % 3) == []


@given(random_graph_strategy(max_n=12), st.integers(0, 1 << 12), st.integers(-1, 13))
@settings(max_examples=200, deadline=None)
def test_partition_numbered_from_the_top_is_the_id_order_partition(g, mask, skip):
    # the top-first scan of ``mask`` numbered from the top, read back, is the
    # lowest-first partition in id order, skipped cliques included
    mask &= (1 << g.n) - 1
    ids, rows = cover._top_rows(list(g.adj), list(bits(mask)))
    cliques = cover._greedy_clique_partition(rows, cover._bit_table(len(ids)),
                                             (1 << len(ids)) - 1, skip)
    assert [to_old(c, ids) for c in cliques] == id_order_partition(g.adj, mask, skip)


def test_partition_edge_cases():
    # no vertices, one, an edgeless graph, one edge, and rows past any fixed
    # table: a 1,000-vertex path numbered from the top
    assert own_partition(make_graph(0, []), 0) == []
    assert own_partition(complete(1), 1) == [1]
    assert own_partition(make_graph(3, []), 0b111, 1) == [0b010, 0b001]
    assert own_partition(complete(2), 0b11) == [0b11]
    assert cover._top_rows([], []) == ([], [0])
    g = path(1000)
    ids, rows = cover._top_rows(list(g.adj), list(range(1000)))
    cliques = cover._greedy_clique_partition(rows, cover._bit_table(1000), (1 << 1000) - 1)
    assert [to_old(c, ids) for c in cliques] == [3 << i for i in range(0, 1000, 2)]


def sr_of(a, b):
    return strong_resolving_graph(product("strong", a, b)).sr


def theta_hat(adj, comp):
    """theta-hat of a component, both orders counted, and the component
    numbered from the top in the order that counts it (new id -> old id, and
    rows by bit length), as ``min_vertex_cover`` reads them."""
    theta, _, (ids, rows) = cover._theta_hat(adj, cover._bit_table(len(adj)), comp, -1)
    return theta, ids, rows


def id_order_rows(adj, comp):
    """``comp`` numbered from the top in id order, as ``min_vertex_cover``
    gives it to branch and reduce: (ids, rows, bit, the new ids' mask)."""
    ids, rows = cover._top_rows(adj, list(bits(comp)))
    return ids, rows, cover._bit_table(len(ids)), (1 << len(ids)) - 1


def colour_side(g):
    """True iff the engine rule sends every component of g to the colour engine."""
    adj = list(g.adj)
    sides = {cover._colour_side(theta_hat(adj, comp)[0], comp.bit_count())
             for comp in component_masks(g)}
    assert len(sides) == 1
    return sides.pop()


def counting_frontier(monkeypatch):
    """Wrap the frontier DP; each run appends the kernel's adjacency, as it
    stood when the DP ran, the order, and the adjacency its branch-and-reduce
    search started from (rows by id, in the component's new ids)."""
    runs = []
    started = []
    dp, search = cover._frontier_mis, cover._CoverSearch.cover

    def starting(self, *args):
        started.append(self.adj[1:])
        return search(self, *args)

    def counted(adj, order, *rest):
        runs.append((list(adj), order, started[-1]))
        return dp(adj, order, *rest)

    monkeypatch.setattr(cover._CoverSearch, "cover", starting)
    monkeypatch.setattr(cover, "_frontier_mis", counted)
    return runs


# fixed SR instances on both sides of the engine rule and of the frontier
# gate, with their exact node counts (frontier states count as nodes)
RULE_SIDES = [
    ("SR(C9xC9)", lambda: sr_of(cycle(9), cycle(9)), True, 23, 65),
    # the frontier gate reads the root's gap, greedy cover less clique bound,
    # against the order's width 17: 11 keeps SR(C5xP12) on the branch, and
    # 19 sends SR(C5xP20) to the DP
    ("SR(C5xP12)", lambda: sr_of(cycle(5), path(12)), False, 117, 38),
    ("SR(C5xP20)", lambda: sr_of(cycle(5), path(20)), False, 28007, 62),
    ("SR(C9xP20)", lambda: sr_of(cycle(9), path(20)), False, 935, 104),
    ("SR(C5xP60)", lambda: sr_of(cycle(5), path(60)), False, 73767, 182),
    # width 8, but the clique bound proves the greedy cover at the root: one node
    ("SR(C4xP60)", lambda: sr_of(cycle(4), path(60)), False, 1, 122),
    # the product itself, beta = 18: the memo of finished candidate sets
    # skips repeated subtrees (47,398 nodes with MEMO_MAX = 0)
    ("C9xC9", lambda: product("strong", cycle(9), cycle(9)), True, 4680, 63),
]
FRONTIER_SOLVED = {"SR(C5xP20)", "SR(C5xP60)"}  # the rows whose root kernel passes the gate


@pytest.mark.parametrize("name,build,colour,nodes,size", RULE_SIDES)
def test_node_counts_pinned_per_engine(name, build, colour, nodes, size, monkeypatch):
    g = build()
    assert colour_side(g) is colour
    runs = counting_frontier(monkeypatch)
    res = min_vertex_cover(g)
    assert res.proven_optimal
    assert (res.nodes_explored, res.size) == (nodes, size)
    assert len(runs) == (name in FRONTIER_SOLVED)


def test_budget_exhaustion_is_flagged_not_wrong():
    # graphs on both sides of the rule, and one the frontier DP solves
    for name, build, colour, _, size in RULE_SIDES:
        g = build()
        assert colour_side(g) is colour
        res = min_vertex_cover(g, node_budget=5)
        if name == "SR(C4xP60)":  # settled at the root, well inside the budget
            assert res.proven_optimal and (res.size, res.nodes_explored) == (size, 1)
            continue
        assert not res.proven_optimal
        # the fallback witness is still a valid cover
        for u, v in g.edges():
            assert u in res.witness or v in res.witness
        assert len(res.witness) == res.size >= size
        with pytest.raises(BudgetExhausted):
            max_independent_set(g, node_budget=5)


def test_reduce_root_bound_meeting_the_greedy_cover_keeps_it():
    # the cube C4 x K2 is 3-regular, so no reduction fires, and its greedy
    # clique partition is 4 edges: the bound 8 - 4 meets the greedy cover at
    # the root, so branch and reduce returns that cover without branching
    # (both also settle before the engines, by the partition of their own rows)
    for g in (product("cartesian", cycle(4), path(2)), sr_of(cycle(4), path(60))):
        adj, (comp,) = list(g.adj), [c for c in component_masks(g) if c & (c - 1)]
        assert not colour_side(g)
        greedy = cover._greedy_cover(adj, comp)
        ids, rows, bit, full = id_order_rows(adj, comp)
        lower = comp.bit_count() - len(cover._greedy_clique_partition(rows, bit, full))
        assert lower == greedy.bit_count()
        search = cover._CoverSearch(rows, bit, DEFAULT_NODE_BUDGET)
        assert search.cover(full, to_new(greedy, ids)) == to_new(greedy, ids)
        assert search.nodes == 1
        res = min_vertex_cover(g)
        assert res.proven_optimal and res.nodes_explored == 1
        assert res.witness == frozenset(bits(greedy))


def dispatched_cover(g, node_budget, settle=True, certify=True):
    """``min_vertex_cover`` rebuilt from its parts: (size, witness, nodes,
    proven), and the nodes spent on each component that the partition of the
    graph's own rows settles.  With ``settle`` such a component keeps its
    greedy cover in one node.  With ``certify`` an id-order count no larger
    than the greedy independent set skips the min-width order; without it
    ``_theta_hat`` counts both orders.  Every other component runs on the
    engine the rule picks, numbered from the top, from the greedy start, and
    keeps its greedy cover when the budget runs out."""
    adj = list(g.adj)
    bit = cover._bit_table(g.n)
    nodes, witness, proven, settled = 0, 0, True, []
    for comp in component_masks(g):
        if comp & (comp - 1) == 0:
            continue
        greedy = cover._greedy_cover(adj, comp)
        start = comp & ~greedy
        settles = len(own_partition(g, comp)) <= start.bit_count()
        if settle and settles:
            nodes += 1
            proven = proven and nodes <= node_budget
            witness |= greedy
            settled.append(1)
            continue
        theta, by_id, by_theta = cover._theta_hat(adj, bit, comp,
                                                  start.bit_count() if certify else -1)
        colour = cover._colour_side(theta, comp.bit_count())
        ids, rows = by_theta if colour else by_id
        full = (1 << len(ids)) - 1
        engine = (cover._ColourSearch if colour else cover._CoverSearch)(
            rows, bit, node_budget - nodes)
        try:
            if colour:
                indep = engine.run(full, to_new(start, ids))
            else:
                indep = full & ~engine.cover(full, to_new(greedy, ids))
            witness |= comp & ~to_old(indep, ids)
        except BudgetExhausted:
            witness |= greedy
            proven = False
        nodes += engine.nodes
        if settles:
            settled.append(engine.nodes)
    return (witness.bit_count(), frozenset(bits(witness)), nodes, proven), settled


def uncertified_cover(g, node_budget):
    """(size, witness, nodes, proven) of ``min_vertex_cover`` with both orders
    counted for every component that does not settle first."""
    return dispatched_cover(g, node_budget, certify=False)[0]


def certified_components(g):
    """The components whose greedy cover the colour engine's root proves: the
    rule sends them to the colour engine, and their id-order clique partition
    is no larger than the greedy independent set, so ``_theta_hat`` does not
    build their min-width order."""
    adj = list(g.adj)
    out = []
    for comp in component_masks(g):
        if comp & (comp - 1):
            _, rows, bit, full = id_order_rows(adj, comp)
            theta = len(cover._greedy_clique_partition(rows, bit, full))
            if (cover._colour_side(theta, comp.bit_count())
                    and theta == (comp & ~cover._greedy_cover(adj, comp)).bit_count()):
                out.append(comp)
    return out


def test_root_certificate_on_a_union_of_cliques():
    # K2 goes to branch and reduce (theta-hat 1 is above 0.42 of 2 vertices);
    # K3, K4 and K5 go to the colour engine, whose root proves each one's
    # greedy cover: one node per component, and each keeps its lowest vertex.
    # (Each clique now settles first, as one clique of its own rows.)
    g = disjoint_union([complete(k) for k in range(2, 6)])
    assert len(certified_components(g)) == 3
    res = min_vertex_cover(g)
    assert res.proven_optimal and res.nodes_explored == 4
    assert res.witness == frozenset(range(14)) - {0, 2, 5, 9}
    assert uncertified_cover(g, DEFAULT_NODE_BUDGET) == (10, res.witness, 4, True)
    # three nodes pay for K2, K3 and K4; K5's root finds none left
    res = min_vertex_cover(g, node_budget=3)
    assert not res.proven_optimal and res.nodes_explored == 4
    assert res.witness == frozenset(range(14)) - {0, 2, 5, 9}
    with pytest.raises(BudgetExhausted):
        max_independent_set(g, node_budget=3)


def test_root_certificate_matches_the_colour_engine():
    graphs = seeded_graphs(150, 3, 12, seed=31)
    graphs += [sr_of(a, b) for a in (cycle(3), cycle(5), path(3), complete(4))
               for b in (path(4), cycle(4), cycle(5), path(5))]
    graphs += [strong_resolving_graph(random_connected(n, 0.3, seed)).sr
               for n in (8, 10, 12) for seed in range(6)]
    hits = colour = 0
    for g in graphs:
        adj = list(g.adj)
        hits += len(certified_components(g))
        colour += sum(cover._colour_side(theta_hat(adj, c)[0], c.bit_count())
                      for c in component_masks(g) if c & (c - 1))
        for budget in (*range(6), DEFAULT_NODE_BUDGET):
            res = min_vertex_cover(g, node_budget=budget)
            got = (res.size, res.witness, res.nodes_explored, res.proven_optimal)
            assert got == uncertified_cover(g, budget)
    assert hits >= 50 and colour - hits >= 25


# components whose id-order and min-width partitions tie, with the node count
# and witness of the colour engine run in id order; min-width order would take
# 4, 3 and 67 nodes
TIED_ORDERS = [
    ("P3xC5", lambda: product("strong", path(3), cycle(5)), 6, 11),
    ("SR(C3xC7)", lambda: sr_of(cycle(3), cycle(7)), 2, 18),
    ("C5xC7", lambda: product("strong", cycle(5), cycle(7)), 35, 28),
]


@pytest.mark.parametrize("name,build,nodes,size", TIED_ORDERS)
def test_engine_rule_keeps_id_order_on_ties(name, build, nodes, size):
    g = build()
    adj, (comp,) = list(g.adj), component_masks(g)
    ids, rows, bit, full = id_order_rows(adj, comp)
    theta_id = len(cover._greedy_clique_partition(rows, bit, full))
    width_rows = cover._top_rows(adj, cover._min_width_order(adj, comp))[1]
    assert len(cover._greedy_clique_partition(width_rows, bit, full)) == theta_id
    theta, by_id, by_theta = cover._theta_hat(adj, bit, comp, -1)
    assert theta == theta_id and by_theta is by_id
    assert colour_side(g) and not certified_components(g)
    res = min_vertex_cover(g)
    assert res.proven_optimal and (res.nodes_explored, res.size) == (nodes, size)
    # the colour engine in id order, from the greedy start, gives this witness
    greedy = cover._greedy_cover(adj, comp)
    engine = cover._ColourSearch(rows, bit, DEFAULT_NODE_BUDGET)
    indep = engine.run(full, to_new(comp & ~greedy, ids))
    assert frozenset(bits(comp & ~to_old(indep, ids))) == res.witness and engine.nodes == nodes



def triangle_chain(k):
    """k triangles in a row, each joined to the next by one edge:
    theta-hat = alpha = k, and the triangle rule takes it apart."""
    edges = [(3 * i + a, 3 * i + b) for i in range(k) for a, b in ((0, 1), (0, 2), (1, 2))]
    edges += [(3 * i + 2, 3 * i + 3) for i in range(k - 1)]
    return make_graph(3 * k, edges)


def two_cycles(n, seed):
    """The cycle 0..n-1 and a shuffled cycle on the same vertices: 4-regular
    but for shared edges, so no reduction fires and branch and reduce dives."""
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)]
                      + [(order[i - 1], order[i]) for i in range(n)])


def stack_depth():
    """The frames on the stack, the caller's included."""
    depth, frame = 0, sys._getframe(1)
    while frame:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_colour_engine_runs_past_the_recursion_limit(monkeypatch):
    # from an empty start the colour engine dives to depth alpha = k on a
    # chain of k triangles, one node a level.  Its frames live on a list, not
    # the stack, so under a limit 150 frames above this one every chain runs
    # there in full, the longest 149 levels deep: the stack picks no engine
    monkeypatch.setattr(cover, "_greedy_cover", lambda adj, comp: comp)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 150)
    try:
        runs = {k: min_vertex_cover(triangle_chain(k)) for k in range(120, 150)}
    finally:
        sys.setrecursionlimit(limit)
    assert all(res.proven_optimal and (res.size, res.nodes_explored) == (2 * k, k)
               for k, res in runs.items())


def test_reduce_past_the_recursion_limit_spends_its_budget(capsys):
    # two_cycles(400, 1) takes branch and reduce 74 levels deep within 3,000
    # nodes; under a limit 50 frames above this one the search still spends
    # its whole budget, in the library and through the CLI, as it does under
    # the default limit
    g = two_cycles(400, 1)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 50)
    try:
        res = min_vertex_cover(g, node_budget=3000)
        code = cli_main(["compute", "alpha", to_graph6(g), "--node-budget", "3000"])
    finally:
        sys.setrecursionlimit(limit)
    assert (res.size, res.nodes_explored, res.proven_optimal) == (244, 3001, False)
    assert res == min_vertex_cover(g, node_budget=3000)
    assert code == 3
    assert capsys.readouterr().err == (
        "error: budget-exhausted: cover search exhausted its node budget (3001 nodes)\n")


def test_deterministic_witness(monkeypatch):
    runs = counting_frontier(monkeypatch)
    for g in (disjoint_union([cycle(7), path(5)]), sr_of(cycle(5), path(60))):
        a = min_vertex_cover(g)
        b = min_vertex_cover(g)
        assert a.witness == b.witness
    assert len(runs) == 2  # SR(C5xP60) is solved by the frontier DP


# SR(G(100, .08)) for seeds 1-8, the cover-search workload's kind of graph:
# nodes and maximum independent set (the witness is the rest of the 100), as
# the searches found them when they still scanned in id order, lowest first
RANDOM_SR_COVERS = [
    (1, 341, [1, 27, 29, 31, 46, 52, 54, 57, 58, 59, 60, 64, 78, 84, 89, 95, 97, 99]),
    (2, 123, [12, 15, 17, 21, 26, 28, 33, 34, 40, 42, 57, 67, 69, 72, 74, 75, 80, 82, 86, 95]),
    (3, 498, [0, 5, 18, 28, 29, 34, 38, 46, 49, 66, 68, 74, 77, 88, 93, 95]),
    (4, 312, [2, 10, 19, 21, 25, 27, 29, 42, 45, 48, 51, 56, 69, 70, 75, 77, 82, 83]),
    (5, 696, [5, 16, 17, 20, 26, 30, 33, 34, 38, 39, 42, 43, 58, 78, 80, 81]),
    (6, 135, [2, 10, 11, 19, 35, 38, 40, 46, 52, 64, 66, 73, 76, 82, 84, 89, 93, 97, 99]),
    (7, 1443, [3, 6, 8, 17, 21, 27, 31, 36, 40, 52, 58, 59, 64, 73, 76, 80, 98]),
    (8, 199, [3, 8, 14, 22, 23, 29, 31, 33, 39, 40, 41, 46, 54, 60, 76, 80, 82, 91, 98]),
]


@pytest.mark.parametrize("seed, nodes, independent", RANDOM_SR_COVERS)
def test_random_sr_covers_are_pinned(seed, nodes, independent):
    sr = strong_resolving_graph(random_connected(100, 0.08, seed)).sr
    res = min_vertex_cover(sr)
    assert res.proven_optimal and res.nodes_explored == nodes
    assert sorted(res.witness) == [u for u in range(100) if u not in independent]


def records_digest(records):
    """SHA-256 of a list of cover records, each a tuple of ints, bools and
    tuples of ints."""
    return hashlib.sha256(repr(records).encode()).hexdigest()


# Every cover of one seed-42 Env pass over the claims that test_verify's
# layer count runs, as the searches found them when they still scanned in id
# order, lowest first: the number of calls, their nodes, and the digests of
# [(size, sorted witness, nodes, proven)] and of the same without nodes
ENV_PASS_COVERS = (
    744, 3_048, "c295f468b8a25a5bcae54eceecc2f198785b0b99ac8e6f96004e87b1e6a6e5f2",
    "c97c79feaf2bb5627871cec26e6495d2872d5e73fabcfaad8877f293760b6488")


def test_env_pass_covers_match_the_search_in_id_order(monkeypatch):
    # without the settle before renumbering, the covers numbered from the top
    # are the id-order searches node for node; with it, sizes, witnesses and
    # proofs stay, and only the components it settles count one node each
    calls = []
    real = cover.min_vertex_cover

    def recorded(g, node_budget=DEFAULT_NODE_BUDGET):
        calls.append((g, node_budget))
        return real(g, node_budget)

    for module in (cover, dimension):
        monkeypatch.setattr(module, "min_vertex_cover", recorded)
    verify.run_suite(verify.Corpus(verify.CorpusSpec(seed=42)),
                     [cid for cid in verify.claim_ids() if cid != "lemma-mmd"])
    results = [real(g, budget) for g, budget in calls]
    unsettled = [dispatched_cover(g, budget, settle=False) for g, budget in calls]
    count, nodes, digest, digest_without_nodes = ENV_PASS_COVERS
    assert len(calls) == count
    assert records_digest([(size, tuple(sorted(witness)), spent, proven)
                           for (size, witness, spent, proven), _ in unsettled]) == digest
    assert sum(res[2] for res, _ in unsettled) == nodes
    assert records_digest([(res.size, tuple(sorted(res.witness)), res.proven_optimal)
                           for res in results]) == digest_without_nodes
    moved = 0
    for res, (old, settled) in zip(results, unsettled):
        assert res.nodes_explored == old[2] - sum(settled) + len(settled)
        moved += sum(spent > 1 for spent in settled)
    # three 20-vertex components that went to branch and reduce settle first
    assert (moved, sum(res.nodes_explored for res in results)) == (3, 3_026)


def test_settled_component_spends_one_node():
    # SR(C4xP60)'s component settles before renumbering: a budget of 0 leaves
    # its greedy cover unproven, and 1 proves it
    g = sr_of(cycle(4), path(60))
    adj, (comp,) = list(g.adj), [c for c in component_masks(g) if c & (c - 1)]
    greedy = cover._greedy_cover(adj, comp)
    assert len(own_partition(g, comp)) <= (comp & ~greedy).bit_count()
    for budget in (0, 1):
        res = min_vertex_cover(g, node_budget=budget)
        assert (res.proven_optimal, res.nodes_explored) == (budget == 1, 1)
        assert res.witness == frozenset(bits(greedy))


def test_cover_edge_cases():
    # no vertices, one, edgeless graphs, one edge, and a 1,000-vertex graph
    for g, size in ((make_graph(0, []), 0), (complete(1), 0), (make_graph(5, []), 0),
                    (complete(2), 1), (make_graph(4, [(1, 3)]), 1)):
        res = min_vertex_cover(g)
        assert res.proven_optimal and res.size == size
        assert res.nodes_explored == (size > 0)
    res = min_vertex_cover(two_cycles(1000, 2), node_budget=200)
    assert res.nodes_explored == 201 and not res.proven_optimal
    assert all(u in res.witness or v in res.witness for u, v in two_cycles(1000, 2).edges())


def test_colour_budget_on_a_random_sr_graph():
    # SR(G(100, .08), seed 1), a 99-vertex component on the colour side and an
    # isolated vertex, is covered by 82 vertices in 341 nodes: a budget proves
    # it exactly from 341 on, and a smaller one is spent to the node
    sr = strong_resolving_graph(random_connected(100, 0.08, 1)).sr
    comp = max(component_masks(sr), key=int.bit_count)
    assert comp.bit_count() == 99
    assert cover._colour_side(theta_hat(list(sr.adj), comp)[0], 99)
    for budget in [*range(0, 341, 7), 340, 341]:
        res = min_vertex_cover(sr, node_budget=budget)
        assert res.proven_optimal == (budget >= 341)
        if res.proven_optimal:
            assert (res.size, res.nodes_explored) == (82, 341)
        else:
            assert res.nodes_explored == budget + 1
            assert res.size >= 82 and all(u in res.witness or v in res.witness
                                           for u, v in sr.edges())


def test_colour_budget_ends_proven_or_flagged():
    # every budget either proves beta(C9xC9) = 18 or ends with a valid cover
    # flagged unproven; a search stopped by its budget stores no bound
    g = product("strong", cycle(9), cycle(9))
    for budget in range(51):
        res = min_vertex_cover(g, node_budget=budget)
        for u, v in g.edges():
            assert u in res.witness or v in res.witness
        assert len(res.witness) == res.size
        assert res.size == 81 - 18 if res.proven_optimal else res.size >= 81 - 18


def test_memo_never_holds_more_than_its_cap(monkeypatch):
    # a memo of one or eight entries is cleared over and over; every bound it
    # keeps in between is still a proof, so both engines agree with subset
    # enumeration and the memo never grows past the cap
    sizes = []
    expand = cover._ColourSearch._expand

    def watched(self, *args):
        yield from expand(self, *args)
        sizes.append(len(self.memo))

    monkeypatch.setattr(cover._ColourSearch, "_expand", watched)
    graphs = seeded_graphs(40, 2, 9, seed=77) + seeded_graphs(6, 13, 14, seed=404)
    for cap in (1, 8):
        monkeypatch.setattr(cover, "MEMO_MAX", cap)
        sizes.clear()
        for g in graphs:
            want = brute_min_cover(g)
            assert engine_cover_sizes(g) == (want, want)
        assert max(sizes) == cap


def test_memo_proves_beta_c11_strong_c11():
    # with MEMO_MAX = 0 the search runs past 2,000,000 nodes
    res = min_vertex_cover(product("strong", cycle(11), cycle(11)), node_budget=200_000)
    assert res.proven_optimal and res.size == 121 - 27


# -- frontier DP --------------------------------------------------------------------


def open_frontier_gate(monkeypatch):
    """Send every root kernel that the clique bound leaves open to the
    frontier DP: its order is built with cap n, the graph's order, which no
    width exceeds."""
    order = cover._frontier_order
    monkeypatch.setattr(cover, "_frontier_order",
                        lambda adj, active, cap: order(adj, active, len(adj)))
    monkeypatch.setattr(cover, "COLOUR_ENGINE_MAX_SHARE", 0)


def pieces(adj, active):
    """Number of connected pieces of adj|active."""
    count = 0
    while active:
        count += 1
        reach = active & -active
        while True:
            grown = reach
            for u in bits(reach):
                grown |= adj[u] & active
            if grown == reach:
                break
            reach = grown
        active &= ~reach
    return count


def gnp_core(p):
    """Core edges of G(core, p)."""
    return lambda rng, core: [(u, v) for u in range(core) for v in range(u + 1, core)
                              if rng.random() < p]


def ring_core(rings):
    """Core edges of the union of ``rings`` random Hamiltonian cycles: degree
    up to 2 * rings and few triangles, so the clique bound rarely reaches the
    greedy cover."""
    def edges(rng, core):
        out = set()
        for _ in range(rings):
            ring = rng.sample(range(core), core)
            out.update((min(e), max(e)) for e in zip(ring, ring[1:] + ring[:1]))
        return sorted(out)
    return edges


def core_with_attachments(rng, core, core_edges, chains, pendants):
    """A core on ``core`` vertices with degree-2 chains between core vertices
    and pendant paths hung off it: the reductions fold the chains and take
    the pendants, and taking a pendant's anchor can split the kernel."""
    edges = core_edges(rng, core)
    n = core
    for _ in range(chains):
        a, b = rng.sample(range(core), 2)
        length = rng.randrange(1, 4)
        nodes = [a, *range(n, n + length), b]
        edges += list(zip(nodes, nodes[1:]))
        n += length
    for _ in range(pendants):
        length = rng.randrange(1, 3)
        nodes = [rng.randrange(core), *range(n, n + length)]
        edges += list(zip(nodes, nodes[1:]))
        n += length
    return make_graph(n, edges)


def frontier_corpus():
    rng = random.Random(8)
    graphs = seeded_graphs(120, 1, 10, seed=2024) + seeded_graphs(8, 13, 14, seed=404)
    graphs += [core_with_attachments(rng, rng.randrange(5, 10),
                                     gnp_core(rng.choice([0.5, 0.7, 0.9])),
                                     rng.randrange(0, 3), rng.randrange(0, 3))
               for _ in range(100)]
    # the clique bound proves most kernels above at the root; these reach the DP
    graphs += [core_with_attachments(rng, rng.randrange(7, 10), ring_core(3),
                                     rng.randrange(0, 2), rng.randrange(0, 2))
               for _ in range(200)]
    # two cores that the clique bound leaves open, the 5-wheel and the
    # complement of C7, joined only through a hub that a pendant forces into
    # the cover: the root kernel is the two cores, in two pieces
    wheel = (6, [(0, i) for i in range(1, 6)] + [(i, i % 5 + 1) for i in range(1, 6)])
    c7bar = (7, [(u, v) for u in range(7) for v in range(u + 2, min(u + 6, 7))])
    for (a, first), (b, second) in ((wheel, wheel), (wheel, c7bar), (c7bar, c7bar)):
        hub = a + b
        edges = first + [(u + a, v + a) for u, v in second]
        edges += [(1, hub), (a + 1, hub), (hub, hub + 1)]
        graphs.append(make_graph(hub + 2, edges))
    return graphs


def cuthill_mckee_by_ids(adj, active):
    """Reverse Cuthill–McKee order of ``active`` by its definition: each
    search starts from a vertex of least degree and queues new neighbours by
    (degree, id), the lower id first on ties."""
    key = {u: ((adj[u] & active).bit_count(), u) for u in bits(active)}.__getitem__
    order, unseen = [], active
    while unseen:
        root = min(bits(unseen), key=key)
        unseen ^= 1 << root
        order.append(root)
        i = len(order) - 1
        while i < len(order):
            new = adj[order[i]] & unseen
            unseen ^= new
            order += sorted(bits(new), key=key)
            i += 1
    return order[::-1]


def test_frontier_order_numbered_from_the_top_keeps_id_order_ties():
    # on rows numbered from the top the frontier order takes the higher id
    # on ties, so read back it is the order with the lower id first
    graphs = [cycle(9), path(8), grid(4, 5), sr_of(cycle(5), path(12)),
              disjoint_union([cycle(6), complete(4), path(5)])]
    graphs += seeded_graphs(40, 4, 14, seed=9)
    for g in graphs:
        comp = (1 << g.n) - 1
        ids, rows, _, full = id_order_rows(list(g.adj), comp)
        order, _ = cover._frontier_order(rows[1:], full, g.n)
        assert [ids[i] for i in order] == cuthill_mckee_by_ids(g.adj, comp)


def test_frontier_dp_matches_brute_force(monkeypatch):
    runs = counting_frontier(monkeypatch)
    open_frontier_gate(monkeypatch)
    split = folded = 0
    for g in frontier_corpus():
        before = len(runs)
        res = min_vertex_cover(g)
        assert res.proven_optimal
        assert res.size == len(res.witness) == brute_min_cover(g)
        for u, v in g.edges():
            assert u in res.witness or v in res.witness
        for adj, order, start in runs[before:]:
            active = sum(1 << u for u in order)
            split += pieces(adj, active) > 1
            # a fold rewrites the rows of the kernel it leaves behind
            folded += any(adj[u] & active != start[u] & active for u in order)
    assert len(runs) >= 60 and split >= 3 and folded >= 20


def test_frontier_gate_keeps_a_wide_kernel_on_the_branch(monkeypatch):
    # SR(C7xP45) reaches the gate with a gap of 44 above its order's width 39,
    # so only FRONTIER_MAX_WIDTH keeps it on the branch, which proves it in
    # 16,651 nodes where the DP spends 5,000,000 without a proof
    g = sr_of(cycle(7), path(45))
    adj = list(g.adj)
    (comp,) = component_masks(g)
    assert not colour_side(g)
    _, rows, bit, full = id_order_rows(adj, comp)
    gap = (cover._greedy_cover(adj, comp).bit_count()
           - g.n + len(cover._greedy_clique_partition(rows, bit, full)))
    order, leave = cover._frontier_order(rows[1:], full, g.n)
    width = frontier = 0
    for gone in leave:
        frontier += 1 - gone.bit_count()
        width = max(width, frontier)
    assert (gap, width) == (44, 39)
    caps = []
    placed = cover._frontier_order

    def traced(adj, active, cap):
        caps.append(cap)
        return placed(adj, active, cap)

    monkeypatch.setattr(cover, "_frontier_order", traced)
    runs = counting_frontier(monkeypatch)
    res = min_vertex_cover(g, node_budget=50)
    assert not res.proven_optimal and caps == [cover.FRONTIER_MAX_WIDTH] and not runs
    # with the width cap lifted, the gap alone opens the gate
    monkeypatch.setattr(cover, "FRONTIER_MAX_WIDTH", g.n)
    assert not min_vertex_cover(g, node_budget=50).proven_optimal
    assert caps[1:] == [gap] and len(runs) == 1


# -- independence -----------------------------------------------------------------


def test_beta_of_complete_is_one():
    for n in range(1, 7):
        assert len(max_independent_set(complete(n))) == 1


def test_beta_of_c5_strong_c5():
    assert len(max_independent_set(product("strong", cycle(5), cycle(5)))) == 5


def test_independent_witness_spans_no_edge():
    g = cycle(9)
    s = max_independent_set(g)
    assert len(s) == 4
    for u in s:
        for v in s:
            if u != v:
                assert not g.adj[u] >> v & 1


def engine_cover_sizes(g):
    """Minimum cover size of g from each engine alone, component by component:
    branch and reduce on the component, and the colour engine on its rows in
    the order theta-hat picks, started from a single vertex.  Both witnesses
    are checked.  The frontier gate is shut, so branch and reduce never hands
    its kernel to the frontier DP and stays an oracle for it."""
    adj = list(g.adj)
    reduce_size = colour_size = 0
    for comp in component_masks(g):
        ids, rows, bit, full = id_order_rows(adj, comp)
        search = cover._CoverSearch(rows, bit, DEFAULT_NODE_BUDGET)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cover, "FRONTIER_MAX_WIDTH", 0)
            mask = to_old(search.cover(full, to_new(cover._greedy_cover(adj, comp), ids)), ids)
        assert all(mask >> u & 1 or not adj[u] & comp & ~mask for u in bits(comp))
        reduce_size += mask.bit_count()
        _, order, rows = theta_hat(adj, comp)
        indep = cover._ColourSearch(rows, bit, DEFAULT_NODE_BUDGET).run(full, 1)
        members = [order[i] for i in bits(indep)]
        assert not any(g.adj[u] >> v & 1 for u, v in combinations(members, 2))
        colour_size += comp.bit_count() - len(members)
    return reduce_size, colour_size


def test_beta_cross_checks_with_max_clique_engine():
    # the two exact engines share only the greedy clique partition, so subset
    # enumeration referees both, component by component, up to n = 14
    graphs = seeded_graphs(60, 2, 9, seed=77) + seeded_graphs(8, 13, 14, seed=404)
    graphs += [disjoint_union([cycle(5), complete(3), path(4)])]
    for g in graphs:
        want = brute_min_cover(g)
        assert engine_cover_sizes(g) == (want, want)


def test_engines_agree_on_sr_graphs(monkeypatch):
    # both engines, run alone, also check the frontier DP with its gate open
    runs = counting_frontier(monkeypatch)
    for g in (sr_of(cycle(5), path(6)), sr_of(cycle(7), cycle(3)), sr_of(path(4), cycle(5))):
        reduce_size, colour_size = engine_cover_sizes(g)
        assert reduce_size == colour_size == min_vertex_cover(g).size
        assert not runs
        with monkeypatch.context() as mp:
            open_frontier_gate(mp)
            res = min_vertex_cover(g)
        assert len(runs) == 1
        runs.clear()
        assert res.proven_optimal and res.size == reduce_size
        for u, v in g.edges():
            assert u in res.witness or v in res.witness


# -- cliques / coloring -------------------------------------------------------------


def test_max_clique_known_values():
    assert len(max_clique(complete(6))) == 6
    assert len(max_clique(cycle(5))) == 2
    assert len(max_clique(cycle(3))) == 3
    assert max_clique(make_graph(1, [])) == frozenset({0})


def test_clique_cover_known_values():
    assert clique_cover_number(complete(5), DEFAULT_NODE_BUDGET)[0] == 1
    theta_c6, part = clique_cover_number(cycle(6), DEFAULT_NODE_BUDGET)
    assert theta_c6 == 3 == len(max_independent_set(cycle(6)))
    assert cover._checked_partition(cycle(6), part) == part
    theta_c5 = clique_cover_number(cycle(5), DEFAULT_NODE_BUDGET)[0]
    assert theta_c5 == 3 > len(max_independent_set(cycle(5)))


def test_chromatic_known_values():
    """chi(G) = theta(complement of G): a clique partition of the complement
    is a proper colouring of G."""
    assert clique_cover_number(complement(complete(5)), DEFAULT_NODE_BUDGET)[0] == 5
    assert clique_cover_number(complement(cycle(6)), DEFAULT_NODE_BUDGET)[0] == 2
    assert clique_cover_number(complement(cycle(7)), DEFAULT_NODE_BUDGET)[0] == 3
    k33 = complement(complete_multipartite([2, 2, 2]))
    assert clique_cover_number(k33, DEFAULT_NODE_BUDGET)[0] == 3
    k, part = clique_cover_number(complement(cycle(5)), DEFAULT_NODE_BUDGET)
    assert k == 3
    assert cover._checked_partition(complement(cycle(5)), part) == part
    colour = {v: i for i, p in enumerate(part) for v in bits(p)}
    for u, v in cycle(5).edges():
        assert colour[u] != colour[v]


def test_clique_cover_matches_brute_partition_search():
    for g in seeded_graphs(40, 1, 7, seed=5):
        assert clique_cover_number(g, DEFAULT_NODE_BUDGET)[0] == brute_clique_cover(g)


def test_clique_cover_spends_its_node_budget():
    # theta(C5) = 3 > beta = 2.  Its cover takes one node, the k = 2 search
    # that fails three and the k = 3 search that succeeds three more, all from
    # one budget: 6 runs out, though each search alone would fit in what the
    # cover leaves
    for budget in (0, 3, 6):
        with pytest.raises(BudgetExhausted):
            clique_cover_number(cycle(5), budget)
    assert clique_cover_number(cycle(5), 7)[0] == 3


def test_clique_cover_beyond_20_vertices():
    # no order is refused: the node budget is the only bound, and the exact
    # search's None is a proof that theta > beta
    assert clique_cover_number(complete(21), DEFAULT_NODE_BUDGET) == (1, [(1 << 21) - 1])
    assert clique_cover_number(cycle(21), DEFAULT_NODE_BUDGET)[0] == 11
    assert c_graph_partition(complete(25), frozenset({0}), DEFAULT_NODE_BUDGET) == ([(1 << 25) - 1], 0)
    with patch.object(cover, "_clique_partition", wraps=cover._clique_partition) as search:
        assert c_graph_partition(cycle(21), frozenset(range(0, 20, 2)), DEFAULT_NODE_BUDGET)[0] is None
    assert search.called
    assert is_c1_graph(cycle(21), frozenset(range(0, 20, 2)), DEFAULT_NODE_BUDGET)


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_c_graph_partition_refutes_sr_c401_with_a_shallow_stack():
    # SR(C401) is a 401-cycle: beta = 200 < theta = 201.  The refuting search
    # stacks 201 placements, each a frame on _drive's list, not on the
    # interpreter's stack, so it runs under a recursion limit 100 frames above
    # this test's own depth
    sr = strong_resolving_graph(cycle(401)).sr
    independent = max_independent_set(sr)
    limit = sys.getrecursionlimit()
    with patch.object(cover, "_clique_partition", wraps=cover._clique_partition) as search:
        sys.setrecursionlimit(_stack_depth() + 100)
        try:
            partition, nodes = c_graph_partition(sr, independent, DEFAULT_NODE_BUDGET)
        finally:
            sys.setrecursionlimit(limit)
    assert partition is None and search.called and nodes == 201


def test_checked_partition_rejects_nonsense():
    with pytest.raises(AssertionError, match=r"part \[0, 1\] is not a clique"):
        cover._checked_partition(make_graph(2, []), [0b11])
    with pytest.raises(AssertionError, match="do not cover the vertex set"):
        cover._checked_partition(make_graph(2, []), [0b01])
    with pytest.raises(AssertionError, match="parts overlap"):
        cover._checked_partition(complete(2), [0b11, 0b10])
    # a partition passes whatever its order, and comes back by lowest vertex
    assert cover._checked_partition(path(3), [0b100, 0b011]) == [0b011, 0b100]


# -- C-graph / C1-graph recognition ---------------------------------------------------


# P4 as 2-0-1-3: the greedy partition {0, 1}, {2}, {3} has three cliques,
# but {0, 2}, {1, 3} has beta = 2
SHUFFLED_P4 = make_graph(4, [(0, 2), (0, 1), (1, 3)])


def is_c_graph(g):
    return c_graph_partition(g, max_independent_set(g), DEFAULT_NODE_BUDGET)[0] is not None


def is_c1(g):
    return is_c1_graph(g, max_independent_set(g), DEFAULT_NODE_BUDGET)


def test_c_graph_families():
    for n in range(2, 7):
        assert is_c_graph(complete(n))
    assert is_c_graph(cycle(4))
    assert is_c_graph(cycle(6))
    assert is_c_graph(cycle(8))
    assert not is_c_graph(cycle(5))
    assert not is_c_graph(cycle(7))


def test_c_graph_greedy_partition_decides_first():
    # the id-order greedy partition decides when it has beta cliques, and is
    # then the partition returned; otherwise the exact search decides
    def decided(g):
        with patch.object(cover, "_clique_partition", wraps=cover._clique_partition) as search:
            partition, nodes = c_graph_partition(g, max_independent_set(g), DEFAULT_NODE_BUDGET)
        assert (nodes > 0) == search.called  # the greedy partition spends no node
        if partition is not None and not search.called:
            greedy = id_order_partition(g.adj, (1 << g.n) - 1)
            assert partition == greedy
        return partition is not None, search.called

    for g in [path(n) for n in range(2, 9)] + [complete(n) for n in range(2, 7)] + [
            grid(2, 3), grid(3, 4), grid(4, 4), cycle(6)]:
        assert decided(g) == (True, False)
    assert decided(cycle(5)) == (False, True)
    assert decided(SHUFFLED_P4) == (True, True)


@given(random_graph_strategy(max_n=8))
@settings(max_examples=150, deadline=None)
def test_c_graph_partition_matches_brute_clique_cover(g):
    # an oracle that shares no code with the predicate: the smallest clique
    # partition by exhaustive search, against beta by subset enumeration
    beta = g.n - brute_min_cover(g)
    partition = c_graph_partition(g, max_independent_set(g), DEFAULT_NODE_BUDGET)[0]
    assert (partition is not None) == (brute_clique_cover(g) == beta)
    if partition is not None:
        assert cover._checked_partition(g, partition) == partition
        assert len(partition) == beta


def test_exact_partition_search_spends_its_node_budget():
    # the greedy partition spends no node; the exact search raises once it
    # places more vertices than its budget allows, and reports what it placed
    assert c_graph_partition(path(6), frozenset({0, 2, 4}), 0) == ([0b11, 0b1100, 0b110000], 0)
    with pytest.raises(BudgetExhausted, match="clique partition search exhausted"):
        c_graph_partition(cycle(5), frozenset({0, 2}), 0)
    with pytest.raises(BudgetExhausted, match="clique partition search exhausted"):
        is_c1_graph(cycle(5), frozenset({0, 2}), 0)
    assert c_graph_partition(cycle(5), frozenset({0, 2}), DEFAULT_NODE_BUDGET) == (None, 3)


def test_c_graph_partition_refuses_a_dependent_set():
    with pytest.raises(ValueError, match="needs an independent set"):
        c_graph_partition(cycle(5), frozenset({0, 1}), DEFAULT_NODE_BUDGET)


@pytest.mark.parametrize("independent", [{7}, {5}, {-1}, {0, 7}])
@pytest.mark.parametrize("recognise", [c_graph_partition, is_c1_graph])
def test_c_graph_recognition_refuses_out_of_range_ids(recognise, independent):
    with pytest.raises(ValueError, match=r"outside the vertex range 0\.\.4"):
        recognise(cycle(5), frozenset(independent), DEFAULT_NODE_BUDGET)


def test_c1_graph_families():
    assert is_c1(cycle(5))
    assert is_c1(cycle(7))
    assert is_c1(cycle(9))
    assert not is_c1(cycle(6))  # already a C-graph
    assert not is_c1(complete(4))


def _without(g, b):
    """g - b, with the ids above b shifted down by one."""
    keep = [u for u in range(g.n) if u != b]
    return make_graph(len(keep), [(keep.index(u), keep.index(v))
                                  for u, v in g.edges() if b not in (u, v)])


def odd_hole_graphs(count, seed):
    """Seeded graphs with n <= 8 around an induced C5 or C7, half of them
    complemented: the odd hole or antihole keeps most of them off C-graphs."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        k = rng.choice([5, 7])
        n = rng.randrange(k, 9)
        p = rng.choice([0.2, 0.35, 0.5, 0.7])
        edges = [(i, (i + 1) % k) for i in range(k)]
        edges += [(u, v) for v in range(k, n) for u in range(v) if rng.random() < p]
        g = make_graph(n, edges)
        out.append(complement(g) if rng.random() < 0.5 else g)
    return out


def test_recognition_matches_definitions():
    # C-graph: V splits into beta cliques.  C1-graph: not a C-graph, and V - b
    # splits into beta cliques for some b.  Both from subset enumeration.
    graphs = seeded_graphs(60, 1, 8, seed=31) + odd_hole_graphs(60, seed=31)
    graphs += [strong_resolving_graph(f).sr
               for f in [path(n) for n in range(2, 8)] + [cycle(n) for n in range(3, 10)]
               + [grid(2, 3), grid(3, 3), grid(2, 4), grid(3, 4)]]
    graphs.append(disjoint_union([cycle(5), cycle(5)]))  # neither kind
    seen = set()
    for g in graphs:
        beta = g.n - brute_min_cover(g)
        c_graph = brute_clique_cover(g) == beta
        c1_graph = not c_graph and any(
            brute_clique_cover(_without(g, b)) <= beta for b in range(g.n))
        assert (is_c_graph(g), is_c1(g)) == (c_graph, c1_graph)
        seen.add((c_graph, c1_graph))
    assert seen == {(True, False), (False, True), (False, False)}


def test_sr_of_p4_is_c_graph():
    sr = strong_resolving_graph(path(4)).sr
    # one edge plus two isolated vertices: beta = 3 = theta
    assert len(max_independent_set(sr)) == 3
    assert is_c_graph(sr)


def test_star_sr_is_c_graph():
    sr = strong_resolving_graph(star(5)).sr
    assert is_c_graph(sr)
