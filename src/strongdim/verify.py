"""Machine verification of the structural laws behind the toolkit.

Every claim in the registry states a law about strong resolving graphs,
independence numbers, or strong metric dimension of product graphs, and is
checked exactly on a reproducible instance corpus.  Each claim declares its
hypotheses: instances that fail one count as skipped, never as passed, and
no claim passes on zero checked instances.
"""

from __future__ import annotations

import csv
import functools
import io
import random
import time
from collections import Counter
from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Iterable

from . import cover as cov
from . import dimension as dim
from . import graph as gr
from . import metrics as mt
from . import products as pr
from . import resolving as rs
from .graph import Graph
from .jsonout import to_json

__all__ = [
    "CorpusSpec",
    "Corpus",
    "ClaimReport",
    "CLAIMS",
    "claim_ids",
    "verify_claim",
    "run_suite",
    "replay_instance",
    "suite_to_json",
    "to_json",
    "suite_to_csv",
    "suite_exit_code",
]


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


EXHAUSTIVE_N_CAP = 7


@dataclass(frozen=True)
class CorpusSpec:
    """Knobs for the default desk-scale corpus; the seed fixes everything."""

    seed: int = 42
    exhaustive_n: int = 5        # all connected graphs up to this order
    samples_per_n: int = 4       # seeded connected samples for n in [6, 8]
    pair_samples: int = 100      # seeded factor pairs for the product-law claims
    max_product: int = 400       # cap on product order
    t_max: int = 5               # remark-c3 checks t = 1..t_max
    odd_odd_max: int = 4         # thm-odd-odd-beta checks 1 <= r <= t <= odd_odd_max
    odd_odd_dim_max: int = 3     # thm-odd-odd-bounds range
    odd_odd_fixed: tuple[int, int] | None = None  # restrict odd-odd claims to one (r, t)
    recognition_cap: int = cov.DEFAULT_RECOGNITION_CAP  # C-graph / C1-graph recognition cap
    node_budget: int = cov.DEFAULT_NODE_BUDGET

    def __post_init__(self):
        # order n enumerates 2^(n choose 2) edge masks: 2^21 at 7, 2^28 at 8
        if self.exhaustive_n > EXHAUSTIVE_N_CAP:
            raise ValueError(f"exhaustive_n {self.exhaustive_n} exceeds the cap of "
                             f"{EXHAUSTIVE_N_CAP}")
        # below these a corpus checks nothing: the smallest product is K2xK2
        for name, low in (("exhaustive_n", 2), ("max_product", 4), ("t_max", 1),
                          ("odd_odd_max", 1), ("odd_odd_dim_max", 1), ("samples_per_n", 0),
                          ("pair_samples", 0), ("node_budget", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} {getattr(self, name)} is below {low}")


@functools.cache
def _all_connected_upto(n_max: int) -> tuple[Graph, ...]:
    """All connected graphs with 2 <= n <= n_max, one per isomorphism class.

    One sweep over the edge masks in increasing order: an unseen mask is the
    least of its class, so every relabelling of it is marked seen, and it is
    kept if connected, as every member of its class then is.  Cached per
    process: it depends on n_max alone, not on the corpus seed."""
    out: list[Graph] = []
    for n in range(2, n_max + 1):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        index = {pair: i for i, pair in enumerate(pairs)}
        # per relabelling p, the image bit of each pair's bit
        images = [[1 << index[min(p[u], p[v]), max(p[u], p[v])] for u, v in pairs]
                  for p in permutations(range(n))]
        seen = bytearray(1 << len(pairs))
        found = []
        for mask in range(len(seen)):
            if seen[mask]:
                continue
            edges = [i for i in range(len(pairs)) if mask >> i & 1]
            for image in images:
                seen[sum([image[i] for i in edges])] = 1
            g = gr.make_graph(n, [pairs[i] for i in edges])
            if mt.is_connected(g):
                found.append(g)
        found.sort(key=gr.to_graph6)
        out.extend(found)
    return tuple(out)


class Corpus:
    """Deterministic instance pools derived from a CorpusSpec."""

    def __init__(self, spec: CorpusSpec):
        self.spec = spec

    def _rng(self, tag: str) -> random.Random:
        return random.Random(f"{self.spec.seed}:{tag}")

    def exhaustive_small(self) -> tuple[Graph, ...]:
        return _all_connected_upto(self.spec.exhaustive_n)

    def sampled(self, n: int, count: int, tag: str) -> list[Graph]:
        rng = self._rng(f"sample:{n}:{tag}")
        out = []
        for i in range(count):
            p = rng.choice([0.3, 0.4, 0.5, 0.6])
            out.append(gr.random_connected(n, p, rng.randrange(1 << 30)))
        return out

    def family_factors(self) -> list[Graph]:
        """Named small families used as factors throughout."""
        graphs = [gr.path(n) for n in (2, 3, 4, 5, 6)]
        graphs += [gr.cycle(n) for n in (3, 4, 5, 6, 7, 8)]
        graphs += [gr.complete(n) for n in (3, 4, 5)]
        graphs += [gr.complete_multipartite(p) for p in ([2, 2], [2, 3], [1, 3])]
        graphs += [gr.grid(2, 3), gr.grid(3, 3)]
        graphs += [gr.generalized_tree(b, s) for b, s in ([[3, 3], 1], [[2, 2, 3], 2])]
        graphs += [gr.star(5)]
        return graphs

    def base_pool(self, n_cap: int = 8) -> list[Graph]:
        pool = [g for g in self.exhaustive_small() if g.n <= n_cap]
        for n in range(self.spec.exhaustive_n + 1, min(n_cap, 8) + 1):
            pool.extend(self.sampled(n, self.spec.samples_per_n, "pool"))
        pool.extend(g for g in self.family_factors() if g.n <= n_cap)
        return pool

    def product_pairs(self) -> list[tuple[Graph, Graph]]:
        """Pairs for the SR-structure claims (lemma-mmd and friends)."""
        tiny = [g for g in self.exhaustive_small() if g.n <= 4]
        pairs = [(g, h) for g in tiny for h in tiny]
        pool = self.base_pool(8)
        rng = self._rng("product-pairs")
        cap = self.spec.max_product
        for _ in range(60):
            g = pool[rng.randrange(len(pool))]
            h = pool[rng.randrange(len(pool))]
            if g.n * h.n <= cap:
                pairs.append((g, h))
        stress = [
            (gr.cycle(9), gr.cycle(9)),
            (gr.path(20), gr.path(20)),
            (gr.grid(4, 4), gr.complete(5)),
            (gr.complete(6), gr.path(10)),
            (gr.cycle(5), gr.grid(3, 4)),
        ]
        pairs.extend((g, h) for g, h in stress if g.n * h.n <= cap)
        return pairs

    def solver_pairs(self) -> list[tuple[Graph, Graph]]:
        """Seeded pairs with small factors for the exact beta/dimension laws."""
        pool = [g for g in self.base_pool(7) if g.n <= 7]
        rng = self._rng("solver-pairs")
        pairs = [
            (gr.complete(3), gr.path(3)),
            (gr.path(4), gr.complete(2)),
            (gr.cycle(6), gr.path(3)),
            (gr.cycle(5), gr.path(3)),
            (gr.cycle(7), gr.complete(2)),
        ]
        for _ in range(self.spec.pair_samples):
            g = pool[rng.randrange(len(pool))]
            h = pool[rng.randrange(len(pool))]
            pairs.append((g, h))
        return pairs

    def dimension_partners(self) -> list[Graph]:
        return [gr.complete(2), gr.path(3), gr.complete(3), gr.path(4), gr.cycle(5)]


# ---------------------------------------------------------------------------
# shared computation environment (memoized per run)
# ---------------------------------------------------------------------------


class Env:
    """One memo per run: each layer of each graph is built once, keyed by
    the layer's name and its arguments."""

    def __init__(self, spec: CorpusSpec):
        self.spec = spec
        self._memo: dict[tuple, object] = {}

    def _cached(self, key: tuple, build: Callable[[], object]):
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    def graph6(self, g: Graph) -> str:
        """The instance records' graph6 string of ``g``, encoded once per run."""
        return self._cached(("graph6", g), lambda: gr.to_graph6(g))

    def product(self, kind: str, g: Graph, h: Graph) -> Graph:
        return self._cached(("product", kind, g, h), lambda: pr.product(kind, g, h))

    def sr(self, g: Graph) -> rs.SRGraph:
        return self._cached(("sr", g), lambda: rs.strong_resolving_graph(g))

    def cover(self, g: Graph) -> cov.CoverResult:
        """Held even when unproven; ``beta`` and ``dim_s`` read it through ``exact``."""
        return self._cached(
            ("cover", g), lambda: cov.min_vertex_cover(g, self.spec.node_budget))

    def beta(self, g: Graph) -> int:
        return g.n - self.cover(g).exact().size

    def dim_s(self, g: Graph) -> int:
        """beta(SR(g)), checked on BFS balls that an SR graph built here shares."""
        def build() -> int:
            dm = mt.all_pairs_distances(g)
            sr = self._cached(("sr", g), lambda: rs.strong_resolving_graph(g, dm)).sr
            return dim.sr_cover_dimension(g, sr, dm, self.cover(sr)).dim

        return self._cached(("dim_s", g), build)

    def _independent(self, g: Graph) -> frozenset[int]:
        return frozenset(range(g.n)) - self.cover(g).exact().witness

    def c_graph(self, g: Graph) -> bool:
        return self._cached(("c_graph", g), lambda: cov.c_graph_partition(
            g, self._independent(g), self.spec.node_budget, self.spec.recognition_cap) is not None)

    def c1_graph(self, g: Graph) -> bool:
        return self._cached(("c1_graph", g), lambda: not self.c_graph(g) and (
            cov._splits_less_a_vertex(g, self._independent(g), self.spec.node_budget)))


# ---------------------------------------------------------------------------
# claim infrastructure
# ---------------------------------------------------------------------------


@dataclass
class ClaimReport:
    claim_id: str
    description: str
    status: str  # all_passed | counterexample | skipped_precondition | inconclusive
    instances_checked: int
    skipped: int
    inconclusive: int
    counterexamples: int
    seed: int
    instances: list[dict]
    elapsed_ms: int = 0  # last: the report writes it only with timings


# a claim's hypothesis: a test on (env, g, h), and the skip note of an instance that fails it
Hypothesis = tuple[Callable[[Env, Graph, Graph | None], bool], str]


@dataclass(frozen=True)
class Claim:
    claim_id: str
    description: str
    instances: Callable[[Corpus], Iterable[tuple[Graph, Graph | None]]]
    check: Callable[[Env, Graph, Graph | None], dict]
    requires: tuple[Hypothesis, ...]


def _record(env: Env, g: Graph, h: Graph | None, outcome: str, expected, actual,
            **extra) -> dict:
    rec = {
        "g6_g": env.graph6(g),
        "g6_h": env.graph6(h) if h is not None else None,
        "outcome": outcome,
        "expected": expected,
        "actual": actual,
    }
    rec.update(extra)
    return rec


def _is_odd_cycle(g: Graph) -> bool:
    return g.n >= 3 and g.n % 2 == 1 and g == gr.cycle(g.n)


CONNECTED: Hypothesis = (lambda env, g, h: min(g.n, h.n) >= 2 and mt.is_connected(g)
                         and mt.is_connected(h), "factors must be connected and nontrivial")
FACTOR_IN_CAP: Hypothesis = (lambda env, g, h: g.n <= env.spec.recognition_cap,
                             "factor exceeds the recognition cap")
SR_IN_CAP: Hypothesis = (lambda env, g, h: env.sr(g).sr.n <= env.spec.recognition_cap,
                         "SR graph exceeds the recognition cap")
ODD_ODD: Hypothesis = (lambda env, g, h: _is_odd_cycle(g) and _is_odd_cycle(h) and g.n <= h.n,
                       "needs odd cycles with r <= t")

CLAIMS: dict[str, Claim] = {}


def _claim(claim_id: str, description: str, instances, *requires: Hypothesis):
    """Register a check, stated under ``requires``, tested in the order given."""
    def wrap(fn):
        CLAIMS[claim_id] = Claim(claim_id, description, instances, fn, requires)
        return fn
    return wrap


def claim_ids() -> list[str]:
    return list(CLAIMS)


# -- instance iterators ------------------------------------------------------


def _singleton_with_partners(factors: Callable[[], list[Graph]]):
    def gen(corpus: Corpus):
        partners = corpus.dimension_partners()
        return [(g, partners[i % len(partners)]) for i, g in enumerate(factors())]
    return gen


def _odd_odd_instances(limit_attr: str):
    def gen(corpus: Corpus):
        if corpus.spec.odd_odd_fixed is not None:
            r, t = corpus.spec.odd_odd_fixed
            return [(gr.cycle(2 * r + 1), gr.cycle(2 * t + 1))]
        m = getattr(corpus.spec, limit_attr)
        return [
            (gr.cycle(2 * r + 1), gr.cycle(2 * t + 1))
            for r in range(1, m + 1)
            for t in range(r, m + 1)
        ]
    return gen


def _c3_instances(corpus: Corpus):
    return [(gr.cycle(3), gr.cycle(2 * t + 1)) for t in range(1, corpus.spec.t_max + 1)]


def _odd_cycle_instances(corpus: Corpus):
    partners = [gr.path(4), gr.cycle(6), gr.complete(4)]
    return [(gr.cycle(2 * r + 1), h) for r in (1, 2, 3) for h in partners]


# -- structural claims -------------------------------------------------------


@_claim(
    "lemma-mmd",
    "factor-level prediction of MMD pairs matches the strong product's SR graph",
    lambda corpus: corpus.product_pairs(),
    CONNECTED,
)
def _check_lemma_mmd(env: Env, g: Graph, h: Graph) -> dict:
    prod = env.product("strong", g, h)
    actual = env.sr(prod).sr
    predicted = rs.predicted_mmd_edges(g, h)
    ok = actual.adj == predicted.graph.adj
    diff: list[list[int]] = []
    if not ok:
        actual_edges = set(actual.edges())
        predicted_edges = set(predicted.graph.edges())
        diff = [list(e) for e in sorted(actual_edges ^ predicted_edges)[:20]]
    return _record(
        env, g, h, "pass" if ok else "fail",
        actual.num_edges, predicted.graph.num_edges,
        condition_tags={str(k): v for k, v in predicted.histogram.items()},
        **({"differing_pairs": diff} if diff else {}),
    )


@_claim(
    "thm-boundary",
    "boundary of a strong product is (bd(G) x V(H)) union (V(G) x bd(H))",
    lambda corpus: corpus.product_pairs(),
    CONNECTED,
)
def _check_thm_boundary(env: Env, g: Graph, h: Graph) -> dict:
    prod = env.product("strong", g, h)
    actual = env.sr(prod).boundary
    bd_g = env.sr(g).boundary
    bd_h = env.sr(h).boundary
    expected = frozenset(
        u * h.n + v
        for u in range(g.n)
        for v in range(h.n)
        if u in bd_g or v in bd_h
    )
    ok = actual == expected
    return _record(env, g, h, "pass" if ok else "fail", len(expected), len(actual))


@_claim(
    "thm-sandwich",
    "SR(G) x SR(H) is a subgraph of SR(G x H), itself a subgraph of SR(G) (+) SR(H)",
    lambda corpus: corpus.product_pairs(),
    CONNECTED,
)
def _check_thm_sandwich(env: Env, g: Graph, h: Graph) -> dict:
    prod_sr = env.sr(env.product("strong", g, h)).sr
    sr_g, sr_h = env.sr(g).sr, env.sr(h).sr
    lower = env.product("strong", sr_g, sr_h)
    upper = env.product("cartesian_sum", sr_g, sr_h)
    ok_low = all(lower.adj[p] & ~prod_sr.adj[p] == 0 for p in range(prod_sr.n))
    ok_up = all(prod_sr.adj[p] & ~upper.adj[p] == 0 for p in range(prod_sr.n))
    return _record(
        env, g, h, "pass" if (ok_low and ok_up) else "fail",
        [lower.num_edges, upper.num_edges], prod_sr.num_edges,
    )


@_claim(
    "cor-beta-chain",
    "beta(SR(G) x SR(H)) >= beta(SR(G x H)) >= beta(SR(G) (+) SR(H))",
    lambda corpus: corpus.solver_pairs(),
    CONNECTED,
)
def _check_cor_beta_chain(env: Env, g: Graph, h: Graph) -> dict:
    sr_g, sr_h = env.sr(g).sr, env.sr(h).sr
    b_strong = env.beta(env.product("strong", sr_g, sr_h))
    b_mid = env.beta(env.sr(env.product("strong", g, h)).sr)
    b_sum = env.beta(env.product("cartesian_sum", sr_g, sr_h))
    ok = b_strong >= b_mid >= b_sum
    return _record(env, g, h, "pass" if ok else "fail",
                   "non-increasing chain", [b_strong, b_mid, b_sum])


@_claim(
    "thm-ind-sandwich",
    "beta(G) * beta(H) <= beta(G x H) <= beta(G box H)",
    lambda corpus: corpus.solver_pairs(),
)
def _check_thm_ind_sandwich(env: Env, g: Graph, h: Graph) -> dict:
    lo = env.beta(g) * env.beta(h)
    mid = env.beta(env.product("strong", g, h))
    hi = env.beta(env.product("cartesian", g, h))
    ok = lo <= mid <= hi
    return _record(env, g, h, "pass" if ok else "fail", "bracketed", [lo, mid, hi])


@_claim(
    "thm-vizing",
    "beta(G box H) <= min(beta(G) * |V(H)|, beta(H) * |V(G)|)",
    lambda corpus: corpus.solver_pairs(),
)
def _check_thm_vizing(env: Env, g: Graph, h: Graph) -> dict:
    actual = env.beta(env.product("cartesian", g, h))
    bound = min(env.beta(g) * h.n, env.beta(h) * g.n)
    ok = actual <= bound
    return _record(env, g, h, "pass" if ok else "fail", f"<= {bound}", actual)


@_claim(
    "thm-lex",
    "beta(G o H) = beta(G) * beta(H) for the lexicographic product",
    lambda corpus: corpus.solver_pairs(),
)
def _check_thm_lex(env: Env, g: Graph, h: Graph) -> dict:
    expected = env.beta(g) * env.beta(h)
    actual = env.beta(env.product("lexicographic", g, h))
    return _record(env, g, h, "pass" if actual == expected else "fail", expected, actual)


@_claim(
    "lemma-cartesian-sum",
    "beta(G (+) H) = beta(G) * beta(H) for the Cartesian sum",
    lambda corpus: corpus.solver_pairs(),
)
def _check_lemma_cartesian_sum(env: Env, g: Graph, h: Graph) -> dict:
    expected = env.beta(g) * env.beta(h)
    actual = env.beta(env.product("cartesian_sum", g, h))
    return _record(env, g, h, "pass" if actual == expected else "fail", expected, actual)


@_claim(
    "thm-bounds",
    "dim_s(G x H) lies between max(n2 dim_s(G), n1 dim_s(H)) and "
    "n2 dim_s(G) + n1 dim_s(H) - dim_s(G) dim_s(H); equality at the top "
    "whenever a factor's SR graph partitions into beta cliques",
    lambda corpus: corpus.solver_pairs(),
    CONNECTED,
)
def _check_thm_bounds(env: Env, g: Graph, h: Graph) -> dict:
    dg, dh = env.dim_s(g), env.dim_s(h)
    actual = env.dim_s(env.product("strong", g, h))
    lo = dim.general_lower(g.n, h.n, dg, dh)
    hi = dim.general_upper(g.n, h.n, dg, dh)
    ok = lo <= actual <= hi
    note = ""
    for name, factor in (("G", g), ("H", h)):
        sr = env.sr(factor).sr
        if sr.n <= env.spec.recognition_cap and env.c_graph(sr):
            ok = ok and actual == hi
            note = f"upper bound must be attained (SR({name}) is a C-graph)"
            break
    return _record(env, g, h, "pass" if ok else "fail", [lo, hi], actual,
                   **({"note": note} if note else {}))


@_claim(
    "lemma-cgraph",
    "if V(G) partitions into beta(G) cliques then beta(G x H) = beta(G) beta(H)",
    lambda corpus: corpus.solver_pairs(),
    FACTOR_IN_CAP,
    (lambda env, g, h: env.c_graph(g), "G is not a C-graph"),
)
def _check_lemma_cgraph(env: Env, g: Graph, h: Graph) -> dict:
    expected = env.beta(g) * env.beta(h)
    actual = env.beta(env.product("strong", g, h))
    return _record(env, g, h, "pass" if actual == expected else "fail", expected, actual)


@_claim(
    "thm-cgraph-exact",
    "if SR(G) partitions into beta cliques then dim_s(G x H) equals the upper bound",
    lambda corpus: corpus.solver_pairs(),
    CONNECTED,
    SR_IN_CAP,
    (lambda env, g, h: env.c_graph(env.sr(g).sr), "SR(G) is not a C-graph"),
)
def _check_thm_cgraph(env: Env, g: Graph, h: Graph) -> dict:
    expected = dim.general_upper(g.n, h.n, env.dim_s(g), env.dim_s(h))
    actual = env.dim_s(env.product("strong", g, h))
    return _record(env, g, h, "pass" if actual == expected else "fail", expected, actual)


@_claim(
    "lemma-c1graph",
    "if V(G) partitions into beta(G) cliques plus one singleton then "
    "beta(G x H) <= beta(G) (beta(H) + 1)",
    lambda corpus: corpus.solver_pairs(),
    FACTOR_IN_CAP,
    (lambda env, g, h: env.c1_graph(g), "G is not a C1-graph"),
)
def _check_lemma_c1graph(env: Env, g: Graph, h: Graph) -> dict:
    bound = env.beta(g) * (env.beta(h) + 1)
    actual = env.beta(env.product("strong", g, h))
    return _record(env, g, h, "pass" if actual <= bound else "fail", f"<= {bound}", actual)


@_claim(
    "thm-c1-lower",
    "if SR(G) is a C1-graph then dim_s(G x H) >= "
    "n1 (dim_s(H) - 1) + dim_s(G) (n2 - dim_s(H) + 1)",
    lambda corpus: corpus.solver_pairs(),
    CONNECTED,
    SR_IN_CAP,
    (lambda env, g, h: env.c1_graph(env.sr(g).sr), "SR(G) is not a C1-graph"),
)
def _check_thm_c1_lower(env: Env, g: Graph, h: Graph) -> dict:
    bound = dim.c1_lower(g.n, h.n, env.dim_s(g), env.dim_s(h))
    actual = env.dim_s(env.product("strong", g, h))
    return _record(env, g, h, "pass" if actual >= bound else "fail", f">= {bound}", actual)


# -- corollary families -------------------------------------------------------


def _clique_sizes(g: Graph) -> list[int] | None:
    """The sorted orders of g's components if every one is a clique, else None."""
    parts = gr.component_masks(g)
    if any(g.adj[u] | 1 << u != part for part in parts for u in gr.bits(part)):
        return None
    return sorted(p.bit_count() for p in parts)


def _family_check(env, g, h, shape_sizes):
    """Common body: SR(G) is a union of cliques of ``shape_sizes``, and the
    dimension is ``general_upper`` at the dim_s(G) that shape states: beta of a
    union of cliques is their number.  The report names the shape by the
    graph6 of those cliques, joined in the order given."""
    shape_ok = _clique_sizes(env.sr(g).sr) == sorted(shape_sizes)
    expected = dim.general_upper(g.n, h.n, g.n - len(shape_sizes), env.dim_s(h))
    actual = env.dim_s(env.product("strong", g, h))
    outcome = "pass" if (shape_ok and actual == expected) else "fail"
    shape = gr.disjoint_union([gr.complete(size) for size in shape_sizes])
    return _record(
        env, g, h, outcome, expected, actual,
        sr_shape_ok=shape_ok, sr_shape_g6=env.graph6(shape),
    )


@_claim(
    "cor-cgraphs-i",
    "complete factor: SR(K_n) is K_n and dim_s(K_n x H) follows the closed form",
    _singleton_with_partners(lambda: [gr.complete(n) for n in (2, 3, 4, 5, 6)]),
)
def _check_cor_i(env: Env, g: Graph, h: Graph) -> dict:
    return _family_check(env, g, h, [g.n])


@_claim(
    "cor-cgraphs-ii",
    "complete k-partite factor: SR is the union of the part cliques and "
    "dim_s follows the closed form",
    _singleton_with_partners(lambda: [
        gr.complete_multipartite(p) for p in ([2, 2], [2, 3], [1, 3], [3, 3], [2, 2, 2])]),
    (lambda env, g, h: _multipartite_parts(g) is not None, "factor is not complete multipartite"),
    (lambda env, g, h: _multipartite_parts(g).count(1) <= 1, "more than one singleton part"),
)
def _check_cor_ii(env: Env, g: Graph, h: Graph) -> dict:
    return _family_check(env, g, h, _multipartite_parts(g))


def _multipartite_parts(g: Graph) -> list[int] | None:
    """Part sizes if g is complete multipartite (complement is a clique union)."""
    parts = _clique_sizes(gr.complement(g))
    return parts if parts and len(parts) >= 2 else None


@_claim(
    "cor-cgraphs-iii",
    "generalized-tree factor with c cut vertices: SR is K_(n-c) plus c isolated "
    "vertices and dim_s follows the closed form (trees: l(G)-1 in place of n-c-1)",
    _singleton_with_partners(lambda: [
        gr.generalized_tree([3, 3], 1), gr.generalized_tree([4, 2, 3], 2),
        gr.generalized_tree([2, 2, 2, 2], 3), gr.path(5), gr.star(6)]),
    (lambda env, g, h: mt.is_generalized_tree(g), "factor is not a generalized tree"),
)
def _check_cor_iii(env: Env, g: Graph, h: Graph) -> dict:
    c = len(mt.cut_vertices(g))
    rec = _family_check(env, g, h, [g.n - c] + [1] * c)
    if g.num_edges == g.n - 1:  # tree: the leaf form, dim_s = l(G) - 1, must agree
        tree_value = dim.general_upper(g.n, h.n, mt.leaf_count(g) - 1, env.dim_s(h))
        if tree_value != rec["expected"]:
            rec["outcome"] = "fail"
            rec["note"] = f"tree leaf form disagrees: {tree_value} != {rec['expected']}"
    return rec


@_claim(
    "cor-cgraphs-iv",
    "2-antipodal factor of order n: SR is n/2 disjoint edges and dim_s follows "
    "the closed form",
    _singleton_with_partners(lambda: [gr.cycle(n) for n in (4, 6, 8, 10)] + [
        pr.product("cartesian", gr.complete(2), gr.grid(2, 2))]),  # Q3 = K2 box (2x2 grid)
    (lambda env, g, h: mt.is_two_antipodal(g), "factor is not 2-antipodal"),
)
def _check_cor_iv(env: Env, g: Graph, h: Graph) -> dict:
    return _family_check(env, g, h, [2] * (g.n // 2))


@_claim(
    "cor-cgraphs-v",
    "grid factor (beyond the 2x2 grid): SR is K_4 plus isolated vertices and "
    "dim_s follows the closed form",
    _singleton_with_partners(lambda: [
        gr.grid(a, b) for a, b in ((2, 3), (2, 4), (3, 3), (3, 4), (4, 4))]),
    (lambda env, g, h: g.n > 4, "the 2x2 grid is 2-antipodal, not a K4-shape grid"),
)
def _check_cor_v(env: Env, g: Graph, h: Graph) -> dict:
    return _family_check(env, g, h, [4] + [1] * (g.n - 4))


# -- odd-cycle claims ---------------------------------------------------------


@_claim(
    "thm-oddcycle-bounds",
    "n(r+1) + r(dim_s(H)-1) <= dim_s(C_(2r+1) x H) <= n(r+1) + r dim_s(H)",
    _odd_cycle_instances,
    (lambda env, g, h: _is_odd_cycle(g), "factor is not an odd cycle"),
)
def _check_oddcycle_bounds(env: Env, g: Graph, h: Graph) -> dict:
    # SR(C_(2r+1)) is C_(2r+1), a C1-graph: r cliques and a singleton, dim_s r + 1
    dg, dh = (g.n + 1) // 2, env.dim_s(h)
    lo, hi = dim.c1_lower(g.n, h.n, dg, dh), dim.general_upper(g.n, h.n, dg, dh)
    actual = env.dim_s(env.product("strong", g, h))
    ok = lo <= actual <= hi
    return _record(env, g, h, "pass" if ok else "fail", [lo, hi], actual)


@_claim(
    "thm-odd-odd-beta",
    "beta(C_(2r+1) x C_(2t+1)) = r t + floor(r/2) for 1 <= r <= t",
    _odd_odd_instances("odd_odd_max"),
    ODD_ODD,
)
def _check_odd_odd_beta(env: Env, g: Graph, h: Graph) -> dict:
    r, t = (g.n - 1) // 2, (h.n - 1) // 2
    expected = r * t + r // 2
    actual = 1 + env.beta(_vertex_residue(env.product("strong", g, h), h.n))
    return _record(env, g, h, "pass" if actual == expected else "fail", expected, actual)


def _vertex_residue(g: Graph, n2: int) -> Graph:
    """g - N[0] in new ids, for g = C_n1 x C_n2 numbered u * n2 + v.

    Both rotations, (u, v) -> (u + 1, v) and (u, v) -> (u, v + 1), are checked
    to map every row to the row of its image.  Together they act transitively,
    so some maximum independent set holds 0 and beta(g) = 1 + beta(g - N[0])."""
    n, full, adj = g.n, (1 << g.n) - 1, list(g.adj)
    last = pr._stride(full >> (n - n // n2), n2) << (n2 - 1)  # the column v = n2 - 1
    # the rows of (u + 1, v) and of (u, v + 1), in the order of (u, v)
    next_u = adj[n2:] + adj[:n2]
    next_v = [a for b in range(0, n, n2) for a in adj[b + 1:b + n2] + adj[b:b + 1]]
    if (next_u != [((a << n2) | (a >> (n - n2))) & full for a in adj]
            or next_v != [((a & ~last) << 1) | ((a & last) >> (n2 - 1)) for a in adj]):
        raise AssertionError(f"the rotations of C_{n // n2} x C_{n2} do not map its rows")
    order = list(gr.bits(full & ~(adj[0] | 1)))
    return Graph(len(order), cov._renumbered(adj, order))


@_claim(
    "thm-odd-odd-bounds",
    "3rt + 2r + 2t + 1 - floor(r/2) <= dim_s(C_(2r+1) x C_(2t+1)) <= 3rt + 2r + 2t + 1",
    _odd_odd_instances("odd_odd_dim_max"),
    ODD_ODD,
)
def _check_odd_odd_bounds(env: Env, g: Graph, h: Graph) -> dict:
    r, t = (g.n - 1) // 2, (h.n - 1) // 2
    lo, hi = dim.odd_odd_lower(r, t), dim.odd_odd_upper(r, t)
    actual = env.dim_s(env.product("strong", g, h))
    ok = lo <= actual <= hi
    return _record(env, g, h, "pass" if ok else "fail", [lo, hi], actual)


@_claim(
    "remark-c3",
    "dim_s(C_3 x C_(2t+1)) = 5t + 3",
    _c3_instances,
    (lambda env, g, h: g == gr.cycle(3) and _is_odd_cycle(h), "needs C_3 and an odd cycle"),
)
def _check_remark_c3(env: Env, g: Graph, h: Graph) -> dict:
    expected = dim.odd_odd_upper(1, (h.n - 1) // 2)  # the odd-odd bounds meet at r = 1
    actual = env.dim_s(env.product("strong", g, h))
    return _record(env, g, h, "pass" if actual == expected else "fail", expected, actual)


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def _outcome(claim: Claim, env: Env, g: Graph, h: Graph | None) -> dict:
    """One instance's record.  The first hypothesis it fails is its skip note;
    a budget spent by a hypothesis or by the check makes it inconclusive."""
    try:
        for holds, note in claim.requires:
            if not holds(env, g, h):
                return _record(env, g, h, "skip", None, None, note=note)
        return claim.check(env, g, h)
    except cov.BudgetExhausted as exc:
        return _record(env, g, h, "inconclusive", None, None, note=str(exc))


def verify_claim(
    claim_id: str, corpus: Corpus, env: Env | None = None
) -> ClaimReport:
    if claim_id not in CLAIMS:
        raise ValueError(f"unknown claim id {claim_id!r}")
    claim = CLAIMS[claim_id]
    env = env or Env(corpus.spec)
    t0 = time.perf_counter()
    records = [_outcome(claim, env, g, h) for g, h in claim.instances(corpus)]
    tally = Counter(rec["outcome"] for rec in records)
    failures, inconclusive = tally["fail"], tally["inconclusive"]
    checked = tally["pass"] + failures
    skipped = len(records) - checked - inconclusive
    if failures:
        status = "counterexample"
    elif inconclusive:
        status = "inconclusive"
    elif checked == 0:
        status = "skipped_precondition"
    else:
        status = "all_passed"
    elapsed = int((time.perf_counter() - t0) * 1000)
    return ClaimReport(
        claim_id, claim.description, status, checked, skipped, inconclusive,
        failures, corpus.spec.seed, records, elapsed,
    )


def run_suite(
    corpus: Corpus, claim_ids_filter: list[str] | None = None
) -> list[ClaimReport]:
    ids = claim_ids_filter or claim_ids()
    for cid in ids:
        if cid not in CLAIMS:
            raise ValueError(f"unknown claim id {cid!r}")
    env = Env(corpus.spec)
    return [verify_claim(cid, corpus, env) for cid in ids]


def replay_instance(claim_id: str, record: dict, spec: CorpusSpec | None = None) -> dict:
    """Re-run a claim on an instance decoded from its own report record."""
    if claim_id not in CLAIMS:
        raise ValueError(f"unknown claim id {claim_id!r}")
    g = gr.from_graph6(record["g6_g"])
    h = gr.from_graph6(record["g6_h"]) if record.get("g6_h") else None
    return _outcome(CLAIMS[claim_id], Env(spec or CorpusSpec()), g, h)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def suite_to_json(
    reports: list[ClaimReport], spec: CorpusSpec, include_timing: bool = False
) -> str:
    claims = [{k: v for k, v in vars(rep).items() if include_timing or k != "elapsed_ms"}
              for rep in reports]
    statuses = [r.status for r in reports]
    doc = {
        "seed": spec.seed,
        "corpus": vars(spec),
        "claims": claims,
        "summary": {
            "claims": len(reports),
            "all_passed": statuses.count("all_passed"),
            "counterexample": statuses.count("counterexample"),
            "skipped_precondition": statuses.count("skipped_precondition"),
            "inconclusive": statuses.count("inconclusive"),
        },
    }
    return to_json(doc) + "\n"


def suite_to_csv(reports: list[ClaimReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    fields = ["claim_id", "status", "instances_checked", "skipped", "inconclusive",
              "counterexamples"]
    writer.writerow(fields)
    writer.writerows([getattr(rep, name) for name in fields] for rep in reports)
    return buf.getvalue()


def suite_exit_code(reports: list[ClaimReport]) -> int:
    statuses = {r.status for r in reports}
    if "counterexample" in statuses:
        return 2
    if "inconclusive" in statuses:
        return 3
    return 0
