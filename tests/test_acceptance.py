"""Acceptance suite: one test per exit criterion, exact values throughout.

Each test prints a single pass/fail line.  Criterion 6 includes the grid
family (cor-cgraphs-v), whose stated SR shape (a K4 on the corners) is
contradicted by direct computation and by the definitional brute-force
oracle; the criterion is asserted as stated and fails honestly, while the
companion finding test pins down the corrected law (two diagonal edges,
dimension 2).
"""

import random

import pytest

from strongdim.cli import main as cli_main
from strongdim.cover import min_vertex_cover
from strongdim.dimension import general_upper, strong_metric_dimension
from strongdim.graph import (
    complete,
    cycle,
    disjoint_union,
    grid,
    make_graph,
    path,
    random_connected,
)
from strongdim.products import product
from strongdim.resolving import predicted_mmd_edges, strong_resolving_graph
from strongdim.verify import Corpus, CorpusSpec, Env, verify_claim

from oracles import brute_force_dimension, brute_min_cover, graphs_isomorphic


DEFAULT = CorpusSpec()


@pytest.fixture(scope="module")
def corpus():
    return Corpus(DEFAULT)


@pytest.fixture(scope="module")
def env():
    return Env(DEFAULT)


def _line(num, ok, desc):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {desc}")


# -- criterion 1 --------------------------------------------------------------


def test_criterion_1_c3_closed_form():
    desc = "dim_s(C3 x C(2t+1)) = 5t+3 for t in 1..5; brute force agrees for t in 1..2"
    ok = False
    try:
        values = []
        for t in range(1, 6):
            prod = product("strong", cycle(3), cycle(2 * t + 1))
            values.append(strong_metric_dimension(prod).dim)
        assert values == [8, 13, 18, 23, 28], values
        for t in (1, 2):
            prod = product("strong", cycle(3), cycle(2 * t + 1))
            assert brute_force_dimension(prod).dim == 5 * t + 3
        ok = True
    finally:
        _line(1, ok, desc)


# -- criterion 2 --------------------------------------------------------------


def test_criterion_2_odd_odd_independence():
    desc = "beta(C(2r+1) x C(2t+1)) = rt + floor(r/2) for 1 <= r <= t <= 4"
    ok = False
    try:
        for r in range(1, 5):
            for t in range(r, 5):
                prod = product("strong", cycle(2 * r + 1), cycle(2 * t + 1))
                res = min_vertex_cover(prod)
                assert res.proven_optimal
                assert prod.n - res.size == r * t + r // 2, (r, t)
        spots = {
            (2, 2): 5,
            (2, 3): 7,
            (3, 3): 10,
        }
        for (r, t), expected in spots.items():
            prod = product("strong", cycle(2 * r + 1), cycle(2 * t + 1))
            assert prod.n - min_vertex_cover(prod).size == expected
        ok = True
    finally:
        _line(2, ok, desc)


# -- criterion 3 --------------------------------------------------------------


def test_criterion_3_oracle_equivalence(corpus):
    desc = "SR-cover pipeline equals brute force on all connected graphs n<=5 and 200 seeded n in [6,9]"
    ok = False
    try:
        mismatches = 0
        small = corpus.exhaustive_small()
        assert len(small) == 30  # 1 + 2 + 6 + 21 connected graphs on 2..5 vertices
        for g in small:
            if strong_metric_dimension(g).dim != brute_force_dimension(g).dim:
                mismatches += 1
        rng = random.Random(4242)
        checked = 0
        while checked < 200:
            n = rng.randrange(6, 10)
            g = random_connected(n, rng.choice([0.25, 0.4, 0.55, 0.7]),
                                 rng.randrange(1 << 30))
            if strong_metric_dimension(g).dim != brute_force_dimension(g).dim:
                mismatches += 1
            checked += 1
        assert mismatches == 0 and checked == 200
        ok = True
    finally:
        _line(3, ok, desc)


# -- criterion 4 --------------------------------------------------------------


def test_criterion_4_mmd_lemma_equivalence(corpus, env):
    desc = "predicted MMD edges equal the computed SR edge set on every desk-corpus pair (product <= 400)"
    ok = False
    try:
        pairs = [
            (g, h) for g, h in corpus.product_pairs() if g.n * h.n <= 400
        ]
        assert len(pairs) >= 100
        mismatches = 0
        for g, h in pairs:
            direct = env.sr(env.product("strong", g, h)).sr
            if predicted_mmd_edges(g, h).graph != direct:
                mismatches += 1
        assert mismatches == 0
        ok = True
    finally:
        _line(4, ok, desc)


# -- criterion 5 --------------------------------------------------------------


def test_criterion_5_sandwich_and_bounds(corpus, env):
    desc = "thm-sandwich, cor-beta-chain, thm-bounds pass on 100+ seeded pairs with upper-bound attainment"
    ok = False
    try:
        for cid in ("thm-sandwich", "cor-beta-chain", "thm-bounds"):
            rep = verify_claim(cid, corpus, env)
            assert rep.status == "all_passed", (cid, rep.status)
            assert rep.instances_checked >= 100, (cid, rep.instances_checked)
        # attainment must actually be exercised: a C-graph SR factor appears
        rep = verify_claim("thm-bounds", corpus, env)
        attained = [r for r in rep.instances if r.get("note")]
        assert attained, "no instance exercised the attainment assertion"
        ok = True
    finally:
        _line(5, ok, desc)


# -- criterion 6 --------------------------------------------------------------


def test_criterion_6_corollary_families(corpus, env):
    desc = "families (i)-(v): >= 5 instances pass SR shape + dimension formula; path spot values hold"
    ok = False
    try:
        # spot values first: K2 x P3, the P2 x P2 = K4 anchor, and all path pairs
        assert strong_metric_dimension(product("strong", complete(2), path(3))).dim == 4
        assert product("strong", path(2), path(2)) == complete(4)
        for n in range(2, 6):
            for m in range(2, 6):
                prod = product("strong", path(n), path(m))
                assert strong_metric_dimension(prod).dim == n + m - 1, (n, m)
        for cid in ("cor-cgraphs-i", "cor-cgraphs-ii", "cor-cgraphs-iii",
                    "cor-cgraphs-iv", "cor-cgraphs-v"):
            rep = verify_claim(cid, corpus, env)
            assert rep.status == "all_passed", (cid, rep.status)
            assert rep.instances_checked >= 5, (cid, rep.instances_checked)
        ok = True
    finally:
        _line(6, ok, desc)


def test_finding_grid_family_corrected_law(env):
    """The grid family claim is false as stated; the corrected law holds.

    For Cartesian grids with both sides >= 2 the SR graph is two diagonal
    corner edges plus isolated vertices (the four corners do not form a K4:
    a same-side corner has a perpendicular neighbor strictly farther away),
    so dim_s(grid) = 2 and the product law ``general_upper`` holds at 2,
    not at the stated 3.
    """
    partners = [complete(2), path(3), complete(3), path(4), cycle(5)]
    grids = [grid(a, b) for a, b in ((2, 3), (2, 4), (3, 3), (3, 4), (4, 4))]
    for g, h in zip(grids, partners):
        srg = strong_resolving_graph(g)
        shape = disjoint_union([complete(2)] * 2 + [complete(1)] * (g.n - 4))
        assert graphs_isomorphic(srg.sr, shape)
        assert strong_metric_dimension(g).dim == 2
        dim_h = env.dim_s(h)
        corrected = general_upper(g.n, h.n, 2, dim_h)
        actual = env.dim_s(env.product("strong", g, h))
        assert actual == corrected
        # the stated form, at dim_s(grid) = 3, overshoots by (h.n - dim_h)
        stated = general_upper(g.n, h.n, 3, dim_h)
        assert stated - actual == h.n - dim_h > 0


# -- criterion 7 --------------------------------------------------------------


def test_criterion_7_cartesian_sum_law(corpus, env):
    desc = "beta(G (+) H) = beta(G) beta(H) on 100 seeded pairs with n <= 7"
    ok = False
    try:
        rep = verify_claim("lemma-cartesian-sum", corpus, env)
        assert rep.status == "all_passed"
        assert rep.instances_checked >= 100
        ok = True
    finally:
        _line(7, ok, desc)


# -- criterion 8 --------------------------------------------------------------


def test_criterion_8_solver_soundness():
    desc = "exact cover matches 2^n enumeration on 300 seeded graphs n <= 12; witnesses and Gallai hold"
    ok = False
    try:
        rng = random.Random(31337)
        for _ in range(300):
            n = rng.randrange(1, 13)
            p = rng.choice([0.15, 0.3, 0.45, 0.6, 0.8])
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < p
            ]
            g = make_graph(n, edges)
            res = min_vertex_cover(g)
            assert res.proven_optimal
            assert res.size == brute_min_cover(g)
            assert len(res.witness) == res.size
            for u, v in g.edges():
                assert u in res.witness or v in res.witness
            # Gallai: the witness complement is independent of size n - alpha
            indep = set(range(n)) - res.witness
            assert len(indep) == n - res.size
            for u in indep:
                for v in indep:
                    if u < v:
                        assert not g.adj[u] >> v & 1
        ok = True
    finally:
        _line(8, ok, desc)


# -- criterion 9 --------------------------------------------------------------


def test_criterion_9_determinism(tmp_path, capsys):
    desc = "two runs of 'verify all --seed 42' produce byte-identical JSON"
    ok = False
    try:
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        code_a = cli_main(["verify", "all", "--seed", "42", "--out", str(out_a)])
        code_b = cli_main(["verify", "all", "--seed", "42", "--out", str(out_b)])
        capsys.readouterr()
        assert code_a == code_b
        assert out_a.read_bytes() == out_b.read_bytes()
        ok = True
    finally:
        _line(9, ok, desc)
