"""Strong metric dimension: definitional checks, the SR-cover pipeline and
the closed forms of the strong product laws.

On a strong product G x H the definitional check runs on the factors' own
distance matrices: d((u,v),(x,y)) = max(d_G(u,x), d_H(v,y)), so ball k of
(u,v) is B_G(u,k) x B_H(v,k), and the product's balls are never built.

The closed forms are pure integer arithmetic kept apart from graph code, so
the claim verifier can compare formula values against computed truth without
circularity.  The paper's family corollaries are ``general_upper`` (or
``c1_lower``) at the dim_s each family states.
"""

from __future__ import annotations

from itertools import repeat
from operator import mul
from typing import NamedTuple

from .cover import DEFAULT_NODE_BUDGET, CoverResult, c_graph_partition, min_vertex_cover
from .graph import Graph, bits
from .metrics import DistanceMatrix, all_pairs_distances
from .products import _stride, product
from .resolving import PredictedSR, predicted_mmd_edges, strong_resolving_graph

__all__ = [
    "DimensionResult",
    "is_strong_generator",
    "sr_cover_dimension",
    "strong_metric_dimension",
    "product_dimension",
    "product_sr_graph",
]


class DimensionResult(NamedTuple):
    dim: int
    basis: frozenset[int]
    sr: Graph  # the SR graph the basis covers
    graph: Graph  # the graph that the basis and ``sr`` are on


def _difference_classes(adj) -> list[tuple[int, int, int]]:
    """(d, A_d, A_d << d) per id difference d of an edge, A_d = {x : x ~ x + d}."""
    classes: dict[int, int] = {}
    for x, row in enumerate(adj):
        m = row >> (x + 1)
        while m:
            b = m & -m
            d = b.bit_length()
            classes[d] = classes.get(d, 0) | 1 << x
            m ^= b
    return [(d, a, a << d) for d, a in classes.items()]


def _dilate(x: int, stages) -> int:
    """x dilated by each stage in turn, to x | N(x) across its classes (s, A, A << s)."""
    for classes in stages:
        out = x
        for s, a, ad in classes:
            out |= (x & a) << s | (x & ad) >> s
        x = out
    return x


def _product_stages(adj, dm_g: DistanceMatrix, dm_h: DistanceMatrix) -> tuple[list, list]:
    """The strong product's closed neighbourhoods as two stages of classes.

    With p = u*n2 + v, N[(u,v)] = N_G[u] x N_H[v].  The first stage holds
    H's edge-difference classes, tiled over every row; the second holds G's,
    as shifts of d*n2 over whole rows.  Both factors are read from the
    radius-1 balls of ``dm_h`` and ``dm_g``; ``adj`` is only confirmed:
    every vertex's closure through the two stages must be its own row of
    ``adj`` plus itself, or this raises ``AssertionError``.
    """
    n1, n2 = dm_g.n, dm_h.n
    if len(adj) != n1 * n2:
        raise AssertionError(f"a graph on {len(adj)} vertices is not a {n1} x {n2} product")
    full_h = (1 << n2) - 1
    col = _stride((1 << n1) - 1, n2)  # column 0: bit u*n2 for every row u
    h_rows = [dm_h.ball(v, 1) ^ 1 << v for v in range(n2)]
    g_rows = [dm_g.ball(u, 1) ^ 1 << u for u in range(n1)]
    stages = (
        [(d, col * a, col * ad) for d, a, ad in _difference_classes(h_rows)],
        [(d * n2, _stride(a, n2) * full_h, _stride(ad, n2) * full_h)
         for d, a, ad in _difference_classes(g_rows)],
    )
    for p, row in enumerate(adj):
        if _dilate(1 << p, stages) != row | 1 << p:
            raise AssertionError(f"the product of the balls' factors misses row {p}")
    return stages


def _union(x: int, rows) -> int:
    """N(x) for ``rows`` = [0, *adj]: the union of rows[b] over x's bits' lengths b."""
    out = 0
    while x:
        b = x.bit_length()
        out |= rows[b]
        x ^= 1 << b - 1
    return out


def _sweep(balls, reach: int, hull: int, smask: int, step, data) -> tuple[int, int]:
    """(reach, hull) after the layers between consecutive ``balls``, outermost
    first, from ``reach`` above them: each layer's reach is the layer's part of
    S | step(reach, data), the neighbours of the reach above.  Lazy ``balls``
    are held two at a time, and each layer is formed after the step, so it is
    not held during it."""
    balls = iter(balls)
    ball = next(balls)
    for inner in balls:
        reach = (smask | (reach and step(reach, data))) & (ball ^ inner)
        hull |= reach
        ball = inner
    return reach, hull


def _product_hulls(dm_g: DistanceMatrix, dm_h: DistanceMatrix, outside: int, smask: int,
                   stages) -> list[int]:
    """H_p for every p = (u, v) outside S, from sweeps shared by columns and rows.

    Above ecc_G(u), layer k of (u, v) is V(G) x L^H_k(v), alike down column
    v; above ecc_H(v), it is L^G_k(u) x V(H), alike along row u.  Each column
    v sweeps its sources' layers from e = min(max_j ecc_G(u_j), ecc_H(v)) in
    one int: source j holds the block of W = 8*ceil(n/8) bits at jW, its ball
    k is that block of P_k * B_H(v, k), P_k = sum_j stride(B_G(u_j, k)) << jW,
    and S and the stages are tiled over the blocks.  Every block enters on
    layer e with the reach above it: if e < ecc_H(v), that of one narrow
    sweep of the column's tail, tiled with its hull; else, if ecc_G(u_j) > e,
    that of its row's tail, which forks each source off at ecc_H(v) < ecc_G(u)
    with the reach (n bits; 0.20-0.34 n^2 in all on P1000 x C5, P400 x C5,
    P30 x P30 and C21 x P8) and hull so far.  P_k, up to the smaller
    diameter, is built again when a column's rows differ from the last one's,
    from the rows' strided balls kept as bytes: at most n*W bits each.  A
    row's balls are strided layer by layer, stride(B_k) = stride(B_{k-1}) |
    stride(B_k - B_{k-1}): n1 bits a row.
    """
    n1, n2 = dm_g.n, dm_h.n
    g_balls, h_balls = dm_g.balls, dm_h.balls
    full_h, hulls = (1 << n2) - 1, [0] * (n1 * n2)
    state = {}  # p -> its row tail's reach above layer ecc_H(v); its hull is in hulls
    rows = [outside >> u * n2 & full_h for u in range(n1)]  # row u's H-mask outside S
    col = _stride((1 << n1) - 1, n2)  # V(G) strided: bit u*n2 of every row u
    size, top = (n1 * n2 + 7) // 8, min(max(map(len, g_balls)), max(map(len, h_balls))) - 1
    heads = {}  # row u -> stride(B_G(u, k)) for k = 0..top, as blocks of bytes
    for u, gl in enumerate(g_balls):
        if rows[u]:
            sg, s = [], 0  # stride(B_G(u, k)) for each k
            for inner, ball in zip([0, *gl], gl):
                sg.append(s := s | _stride(ball ^ inner, n2))
            k, reach, hull = len(gl) - 1, 0, 0
            for e, v in sorted([(len(h_balls[v]) - 1, v) for v in bits(rows[u])
                                if len(h_balls[v]) < len(gl)], reverse=True):
                if e < k:
                    reach, hull = _sweep([sg[i] * full_h for i in range(k, e - 1, -1)],
                                         reach, hull, smask, _dilate, stages)
                state[u * n2 + v], hulls[u * n2 + v], k = reach, hull, e
            heads[u] = [s.to_bytes(size, "little") for s in (sg + sg[-1:] * top)[:top + 1]]

    def tile(x, c=len(heads)):  # x in each of c blocks, by default one a row with sources
        return int.from_bytes(x.to_bytes(size, "little") * c, "little")
    s_t, tiled = tile(smask), [[(s, tile(a), tile(ad)) for s, a, ad in c] for c in stages]
    last = None
    for v, hl in enumerate(h_balls):
        if not (key := outside >> v & col):
            continue
        if key != last:
            last, us = key, [p // n2 for p in bits(key)]
            levels = [int.from_bytes(b"".join([heads[u][k] for u in us]), "little")
                      for k in range(top + 1)]
            top_g = max(len(g_balls[u]) for u in us) - 1
        e, c = min(top_g, len(hl) - 1), len(us)
        reach, hull = _sweep(map(mul, reversed(hl[e:]), repeat(col)),
                             0, 0, smask, _dilate, stages) if e < len(hl) - 1 else (0, 0)
        # every block enters at e with the column tail's reach, or else its row tail's
        reach, hull = _sweep(
            map(mul, levels[e::-1], hl[e::-1]),
            int.from_bytes(b"".join([state.pop(u * n2 + v, 0).to_bytes(size, "little")
                                     for u in us]), "little")
            if e < top_g else reach and tile(reach, c),
            hull and tile(hull, c), s_t, _dilate, tiled)
        hull = hull.to_bytes(c * size, "little")
        for j, u in enumerate(us):
            hulls[u * n2 + v] |= int.from_bytes(hull[j * size:(j + 1) * size], "little")
    return hulls


def is_strong_generator(
    g: Graph, members, dm: DistanceMatrix | tuple[DistanceMatrix, DistanceMatrix] | None = None
) -> bool:
    """True iff every vertex pair is strongly resolved by some member.

    A pair with an endpoint in S is resolved by that endpoint.  For u, v
    outside S, a member w resolves them iff v lies on a shortest u-w path or
    u on a shortest v-w path; so S generates iff v is in H_u or u is in H_v,
    where H_u is the union of the intervals I[u, w] over w in S.  One reverse
    sweep over u's distance layers finds H_u: a vertex at distance k from u
    is in H_u iff it is in S or has a neighbour in H_u at distance k + 1.
    ``dm`` is g's own distance matrix (built here if omitted), or the pair
    (dm_G, dm_H) of the factors' matrices when g is G x H in row-major ids.
    Then ball k of (u, v) is B_G(u, k) x B_H(v, k), and the product's balls
    share a row's or a column's tail layers and a column's head layers,
    packed in one int (``_product_hulls``): row forks take at most n^2 bits
    and a packed column n*W, W = 8*ceil(n/8).

    Every hull is built before any pair is checked, so a set that fails
    returns False only after all sweeps.  Then each pair {u, v} outside S is
    checked once, at whichever of the two comes later in ascending order of
    (|H|, id): all of them at once by a mask, v in H_u, and one bit of H_v
    looked up only for a v outside H_u.  A later vertex's hull is the larger
    and tends to hold the vertices before it: with ``product_dimension``'s
    bases on P30 x P30, P18 x P48 and C12 x P50 no bit is looked up at all,
    where id order looked up 54,810, 30,600 and 1,356.

    Each layer's step needs N(reach), the neighbours of H_u on the layer
    above.  On a factor pair, ``g`` must be the product of the factors, and
    the step dilates by two stages of edge-difference classes that
    ``_dilate`` applies in turn, N[X] = X | ((X & A_d) << d) |
    ((X & (A_d << d)) >> d) over each d, with A_d the set of x adjacent to
    x + d: H's within each row, then G's as whole-row shifts.  On g's own
    matrix the step ORs the rows of ``reach``.  The radius-1 balls (the
    factors' on a product) must give every row of ``g.adj``, or this raises
    ``AssertionError``.
    """
    dm = dm or all_pairs_distances(g)
    adj = g.adj
    if isinstance(dm, tuple):  # a strong product is connected iff its factors are
        stages, connected = _product_stages(adj, *dm), dm[0].connected() and dm[1].connected()
    else:
        if len(dm.balls) != g.n or any(dm.ball(v, 1) != a | 1 << v for v, a in enumerate(adj)):
            raise AssertionError("the distance balls are not the graph's own")
        stages, connected = None, dm.connected()
    if not connected:
        raise ValueError("strong generators are defined for connected graphs")
    smask = 0
    for w in members:
        if not 0 <= w < g.n:
            raise ValueError("member id outside the vertex range")
        smask |= 1 << w
    outside = ((1 << g.n) - 1) & ~smask
    if stages is not None:
        hulls = _product_hulls(*dm, outside, smask, stages)
    else:
        hulls, rows = [0] * g.n, [0, *adj]
        for u in bits(outside):
            hulls[u] = _sweep(reversed(dm.balls[u]), 0, 0, smask, _union, rows)[1]
    # each pair {v, u} outside S once, at the later of the two in (|H|, id)
    # order: v in H_u, or else u in H_v
    seen = 0
    for u in sorted(bits(outside), key=lambda x: hulls[x].bit_count()):
        missed = seen & ~hulls[u]
        while missed:
            b = missed & -missed
            if not hulls[b.bit_length() - 1] >> u & 1:
                return False
            missed ^= b
        seen |= 1 << u
    return True


def sr_cover_dimension(
    g: Graph, sr: Graph, dm: DistanceMatrix | tuple[DistanceMatrix, DistanceMatrix],
    cover: CoverResult
) -> DimensionResult:
    """dim_s of g from ``cover``, a minimum vertex cover of g's SR graph ``sr``.

    The covering characterization becomes two runtime checks: an unproven
    cover raises ``BudgetExhausted``, and a cover that fails the definitional
    generator check on ``dm`` (g's own matrix, or its factors' pair; see
    ``is_strong_generator``) raises ``AssertionError``.  The result
    carries ``sr`` and g, so callers that print them need not rebuild them.
    """
    basis = cover.exact().witness
    if not is_strong_generator(g, basis, dm):
        raise AssertionError("SR cover failed the definitional generator check")
    return DimensionResult(cover.size, basis, sr, g)


def strong_metric_dimension(
    g: Graph, node_budget: int = DEFAULT_NODE_BUDGET
) -> DimensionResult:
    """dim_s via the SR-graph vertex cover pipeline, on the graph's own distance balls."""
    if g.n < 2:
        raise ValueError("strong metric dimension needs n >= 2")
    dm = all_pairs_distances(g)
    if not dm.connected():
        raise ValueError("strong metric dimension needs a connected graph")
    sr = strong_resolving_graph(g, dm).sr
    return sr_cover_dimension(g, sr, dm, min_vertex_cover(sr, node_budget))


def _factor_prediction(kind: str, g: Graph, h: Graph) -> PredictedSR | None:
    """The MMD-lemma prediction of the product's SR graph, where the factors give one.

    That is a strong product of two nontrivial factors.  Every other product
    is built and solved directly; G x K1 among them, since it is G with G's
    own ids (u*1 + 0 = u).
    """
    if kind == "strong" and g.n > 1 and h.n > 1:
        return predicted_mmd_edges(g, h)
    return None


def product_dimension(
    kind: str, g: Graph, h: Graph, node_budget: int = DEFAULT_NODE_BUDGET
) -> DimensionResult:
    """dim_s of the ``kind`` product of g and h, from the factors where they allow it.

    On the factor route the SR graph comes from the MMD lemma, and the
    generator check runs on the factors' distance matrices, so no all-pairs
    BFS and no direct SR build runs on the product, and its balls are never
    built.
    Its minimum cover is certified from the factors when
    ``c_graph_partition`` splits either factor's SR graph into beta
    cliques (the C-graph theorem; see ``general_upper``):
    with I_G and I_H maximum independent sets of the factors' SR graphs, the
    cover is the complement of I_G x I_H; H's partition is tested only when
    G's fails.  Otherwise the cover is searched on the whole SR graph.  The
    factor covers, the partition searches and that search spend one node
    budget in turn, and the searched cover's node count includes them all.
    Either way the witness is checked definitionally against
    ``product(kind, g, h)``, built here: on the factor route the stages read
    from the factors' balls must give every row of it.
    """
    pred = _factor_prediction(kind, g, h)
    if pred is None:
        return strong_metric_dimension(product(kind, g, h), node_budget)
    spent, masks, certified = 0, [], False
    for sr in (pred.sr_g, pred.sr_h):
        cover = min_vertex_cover(sr, node_budget - spent).exact()
        spent += cover.nodes_explored
        independent = frozenset(range(sr.n)) - cover.witness
        if not certified:
            partition, nodes = c_graph_partition(sr, independent, node_budget - spent)
            certified, spent = partition is not None, spent + nodes
        masks.append(sum(1 << v for v in independent))
    if certified:
        cover_mask = ((1 << g.n * h.n) - 1) & ~(_stride(masks[0], h.n) * masks[1])
        cover = CoverResult(cover_mask.bit_count(), frozenset(bits(cover_mask)), spent, True)
    else:
        cover = min_vertex_cover(pred.graph, node_budget - spent)
        cover = cover._replace(nodes_explored=cover.nodes_explored + spent)
    return sr_cover_dimension(product(kind, g, h), pred.graph, (pred.dm_g, pred.dm_h), cover)


def product_sr_graph(kind: str, g: Graph, h: Graph) -> Graph:
    """SR graph of the ``kind`` product of g and h, on ``product_dimension``'s route."""
    pred = _factor_prediction(kind, g, h)
    return pred.graph if pred else strong_resolving_graph(product(kind, g, h)).sr


# ---------------------------------------------------------------------------
# closed forms and bounds for dim_s of strong products
# ---------------------------------------------------------------------------


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def general_lower(n1: int, n2: int, dim_g: int, dim_h: int) -> int:
    return max(n2 * dim_g, n1 * dim_h)


def general_upper(n1: int, n2: int, dim_g: int, dim_h: int) -> int:
    """Upper bound; exact when either factor's SR graph partitions into beta cliques.

    It is n1*n2 - beta_G*beta_H, with beta_F = beta(SR(F)) = |F| - dim_s(F).
    For maximum independent sets I_G, I_H of SR(G), SR(H), I_G x I_H is
    independent in SR(G x H): each condition of the MMD lemma needs an MMD
    pair in one coordinate.  For cliques Q of SR(G) and R of SR(H), Q x R is a
    clique of SR(G x H) (conditions 1-3).  If SR(G) partitions into beta_G
    cliques Q_i, an independent set meets each Q_i x V(H) in vertices with
    distinct H-coordinates, pairwise not MMD in H, so in at most beta_H of
    them; then beta(SR(G x H)) = beta_G*beta_H and the bound is dim_s.
    ``product_dimension`` takes this as its certified route.
    """
    return n2 * dim_g + n1 * dim_h - dim_g * dim_h


def c1_lower(n1: int, n2: int, dim_g: int, dim_h: int) -> int:
    return n1 * (dim_h - 1) + dim_g * (n2 - dim_h + 1)


def odd_odd_lower(r: int, t: int) -> int:
    _check(1 <= r <= t, "odd-odd bounds need 1 <= r <= t")
    return 3 * r * t + 2 * r + 2 * t + 1 - r // 2


def odd_odd_upper(r: int, t: int) -> int:
    _check(1 <= r <= t, "odd-odd bounds need 1 <= r <= t")
    return 3 * r * t + 2 * r + 2 * t + 1

