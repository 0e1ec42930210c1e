import ast
import hashlib
import json
import sys
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongdim import cover, dimension, graph, products, resolving, verify
from strongdim.graph import (
    complete,
    complete_multipartite,
    cycle,
    disjoint_union,
    grid,
    make_graph,
    path,
    to_graph6,
)
from strongdim.verify import (
    CLAIMS,
    ClaimReport,
    Corpus,
    CorpusSpec,
    Env,
    _clique_sizes,
    _vertex_residue,
    claim_ids,
    replay_instance,
    run_suite,
    suite_exit_code,
    suite_to_csv,
    suite_to_json,
    to_json,
    verify_claim,
)

from oracles import graphs_isomorphic
from test_cli import _patch_everywhere
from test_cover import stack_depth

SMALL = CorpusSpec(
    seed=7,
    exhaustive_n=4,
    samples_per_n=2,
    pair_samples=12,
    max_product=100,
    t_max=2,
    odd_odd_max=2,
    odd_odd_dim_max=2,
)


@pytest.fixture(scope="module")
def small_corpus():
    return Corpus(SMALL)


@pytest.fixture(scope="module")
def small_reports(small_corpus):
    return run_suite(small_corpus)


def test_registry_has_all_claims():
    ids = claim_ids()
    assert len(ids) == 22
    expected = {
        "lemma-mmd", "thm-boundary", "thm-sandwich", "cor-beta-chain",
        "thm-ind-sandwich", "thm-vizing", "thm-lex", "lemma-cartesian-sum",
        "thm-bounds", "lemma-cgraph", "thm-cgraph-exact", "lemma-c1graph",
        "thm-c1-lower", "cor-cgraphs-i", "cor-cgraphs-ii", "cor-cgraphs-iii",
        "cor-cgraphs-iv", "cor-cgraphs-v", "thm-oddcycle-bounds",
        "thm-odd-odd-beta", "thm-odd-odd-bounds", "remark-c3",
    }
    assert set(ids) == expected


def test_unknown_claim_rejected(small_corpus):
    with pytest.raises(ValueError):
        verify_claim("thm-nonsense", small_corpus)
    with pytest.raises(ValueError):
        run_suite(small_corpus, ["thm-nonsense"])


# SHA-256 of the space-joined graph6 strings of the connected graphs on 2..6
# vertices, in enumeration order: it pins each class's representative and
# the order, which the corpora and the golden report read
CONNECTED_UPTO_6_SHA256 = "1750375a650658e471bded16050143c85231e92f97107f307fee42ccfc589139"


def test_exhaustive_small_counts(small_corpus):
    # connected graphs up to isomorphism (OEIS A001349): 1, 2, 6, 21 and 112
    # on 2..6 vertices
    graphs = Corpus(CorpusSpec(exhaustive_n=6)).exhaustive_small()
    sizes = Counter(g.n for g in graphs)
    assert [sizes[n] for n in range(2, 7)] == [1, 2, 6, 21, 112]
    text = " ".join(map(graph.to_graph6, graphs))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == CONNECTED_UPTO_6_SHA256


def test_statuses_of_small_suite(small_reports):
    by_id = {r.claim_id: r for r in small_reports}
    # the grid-family shape claim is genuinely false for Cartesian grids:
    # the corners pair up across the diagonals only, so the registry must
    # report a counterexample rather than hide it
    assert by_id["cor-cgraphs-v"].status == "counterexample"
    for cid, rep in by_id.items():
        if cid == "cor-cgraphs-v":
            continue
        assert rep.status == "all_passed", (cid, rep.status)
        assert rep.instances_checked >= 1


def test_no_claim_passes_on_zero_instances(small_reports):
    for rep in small_reports:
        if rep.status == "all_passed":
            assert rep.instances_checked >= 1


def test_skip_semantics(small_corpus):
    rep = verify_claim("lemma-c1graph", small_corpus)
    assert rep.skipped > 0  # most factors are not C1-graphs
    assert rep.instances_checked >= 1


def test_records_carry_graph6(small_reports):
    for rep in small_reports:
        for rec in rep.instances:
            assert rec["g6_g"]
            assert rec["outcome"] in ("pass", "fail", "skip", "inconclusive")


def test_determinism_same_seed_byte_identical(small_corpus):
    a = suite_to_json(run_suite(small_corpus), SMALL)
    b = suite_to_json(run_suite(Corpus(SMALL)), SMALL)
    assert a == b


def test_seed_change_keeps_verdicts():
    other = CorpusSpec(
        seed=8, exhaustive_n=4, samples_per_n=2, pair_samples=12,
        max_product=100, t_max=2, odd_odd_max=2, odd_odd_dim_max=2,
    )
    a = {r.claim_id: r.status for r in run_suite(Corpus(SMALL))}
    b = {r.claim_id: r.status for r in run_suite(Corpus(other))}
    assert a == b


@pytest.mark.parametrize("field,low", [
    ("exhaustive_n", 2), ("max_product", 4), ("t_max", 1), ("odd_odd_max", 1),
    ("odd_odd_dim_max", 1), ("samples_per_n", 0), ("pair_samples", 0), ("node_budget", 0),
])
def test_corpus_spec_refuses_a_corpus_that_checks_nothing(field, low):
    # the smallest value is kept; one below it names the field and the value
    assert getattr(CorpusSpec(**{field: low}), field) == low
    with pytest.raises(ValueError, match=f"^{field} {low - 1} is below {low}$"):
        CorpusSpec(**{field: low - 1})


def test_budget_exhaustion_reports_inconclusive():
    spec = CorpusSpec(
        seed=7, exhaustive_n=3, samples_per_n=0, pair_samples=4,
        odd_odd_max=2, node_budget=3,
    )
    rep = verify_claim("thm-odd-odd-beta", Corpus(spec))
    assert rep.status == "inconclusive"
    assert suite_exit_code([rep]) == 3


def test_search_past_the_recursion_limit_passes():
    # under a limit 30 frames above this one the cover search runs every
    # residue to the end, with the engines and the records of a run under
    # the default limit: the stack decides no instance
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 30)
    try:
        rep = verify_claim("thm-odd-odd-beta", Corpus(CorpusSpec()))
    finally:
        sys.setrecursionlimit(limit)
    assert rep.status == "all_passed" and rep.instances_checked == 10
    assert rep.instances == verify_claim("thm-odd-odd-beta", Corpus(CorpusSpec())).instances


# -- thm-odd-odd-beta: beta(C x C) = 1 + beta(C x C - N[0]) ---------------------


def test_odd_odd_residue_matches_the_product_cover():
    # the claim searches one vertex's residue; the plain search covers the
    # whole product, so the two routes share only min_vertex_cover
    env = Env(CorpusSpec())
    check = CLAIMS["thm-odd-odd-beta"].check
    for r in range(1, 5):
        for t in range(r, 5):
            g, h = cycle(2 * r + 1), cycle(2 * t + 1)
            prod = products.product("strong", g, h)
            expected = prod.n - cover.min_vertex_cover(prod).size
            assert check(env, g, h)["actual"] == expected, (r, t)


def test_odd_odd_residue_of_c3_strong_c3_is_empty():
    # C3 x C3 is K9: N[0] is every vertex, and beta = 1 + beta(empty graph)
    k9 = products.product("strong", cycle(3), cycle(3))
    assert k9 == complete(9) and _vertex_residue(k9, 3) == graph.Graph(0, [])
    rec = CLAIMS["thm-odd-odd-beta"].check(Env(CorpusSpec()), cycle(3), cycle(3))
    assert (rec["outcome"], rec["actual"]) == ("pass", 1)


def test_odd_odd_residue_checks_the_rotations():
    prod = products.product("strong", cycle(5), cycle(7))
    assert _vertex_residue(prod, 7).n == 35 - 9
    edges = prod.edges()
    one_less = graph.make_graph(35, edges[1:])
    swap = {3: 17, 17: 3}
    # a relabelling of prod, so still vertex-transitive, but not in the rotations' ids
    swapped = graph.make_graph(35, [(swap.get(u, u), swap.get(v, v)) for u, v in edges])
    for bad in (one_less, swapped):
        with pytest.raises(AssertionError, match="the rotations of C_5 x C_7 do not map its rows"):
            _vertex_residue(bad, 7)


def test_odd_odd_beta_up_to_c11_strong_c11():
    # every 1 <= r <= t <= 5, C11 x C11 included (24,025 residue nodes)
    rep = verify_claim("thm-odd-odd-beta", Corpus(CorpusSpec(odd_odd_max=5)))
    assert (rep.status, rep.instances_checked) == ("all_passed", 15)


def test_exit_codes(small_reports):
    assert suite_exit_code(small_reports) == 2  # the honest grid counterexample
    passing = [r for r in small_reports if r.status == "all_passed"]
    assert suite_exit_code(passing) == 0


def test_replay_reproduces_outcomes(small_reports):
    for rep in small_reports:
        if rep.claim_id not in ("remark-c3", "thm-odd-odd-beta", "cor-cgraphs-v"):
            continue
        for rec in rep.instances:
            replayed = replay_instance(rep.claim_id, rec)
            assert replayed["outcome"] == rec["outcome"]
            assert replayed["expected"] == rec["expected"]
            assert replayed["actual"] == rec["actual"]


def test_replay_flags_tampered_record():
    # a synthetic record claiming a wrong value re-verifies as failing
    record = {
        "g6_g": to_graph6(cycle(3)),
        "g6_h": to_graph6(cycle(5)),
        "outcome": "pass",
        "expected": 12,
        "actual": 12,
    }
    replayed = replay_instance("remark-c3", record)
    assert replayed["expected"] == 13
    assert replayed["actual"] == 13
    assert replayed != record
    with pytest.raises(ValueError, match="unknown claim id 'nope'"):
        replay_instance("nope", record)


@pytest.mark.parametrize("claim_id,g,h", [
    ("thm-odd-odd-beta", complete(2), complete(2)),
    ("thm-odd-odd-beta", cycle(3), path(2)),
    ("thm-odd-odd-bounds", complete(2), complete(2)),
    ("thm-odd-odd-bounds", cycle(3), path(2)),
    ("remark-c3", cycle(3), path(2)),
    ("thm-oddcycle-bounds", complete(1), cycle(5)),
])
def test_replay_skips_factors_too_small_for_a_cycle(claim_id, g, h):
    record = {"g6_g": to_graph6(g), "g6_h": to_graph6(h)}
    assert replay_instance(claim_id, record)["outcome"] == "skip"


CONNECTED_NOTE = "factors must be connected and nontrivial"
TWO_ISOLATED = make_graph(2, [])
P21 = path(21)  # a factor, and an SR graph, of 21 vertices: one over the recognition cap


@pytest.mark.parametrize("claim_id,g,h,note", [
    ("lemma-mmd", complete(1), path(3), CONNECTED_NOTE),
    ("thm-boundary", path(3), TWO_ISOLATED, CONNECTED_NOTE),
    ("thm-sandwich", TWO_ISOLATED, path(3), CONNECTED_NOTE),
    ("cor-beta-chain", path(3), complete(1), CONNECTED_NOTE),
    ("thm-bounds", complete(1), complete(2), CONNECTED_NOTE),
    ("thm-cgraph-exact", TWO_ISOLATED, complete(2), CONNECTED_NOTE),
    ("thm-c1-lower", complete(2), TWO_ISOLATED, CONNECTED_NOTE),
    ("lemma-cgraph", P21, complete(2), "factor exceeds the recognition cap"),
    ("lemma-c1graph", P21, complete(2), "factor exceeds the recognition cap"),
    ("thm-cgraph-exact", P21, complete(2), "SR graph exceeds the recognition cap"),
    ("thm-c1-lower", P21, complete(2), "SR graph exceeds the recognition cap"),
    ("lemma-cgraph", cycle(5), complete(2), "G is not a C-graph"),
    ("lemma-c1graph", complete(3), complete(2), "G is not a C1-graph"),
    ("thm-cgraph-exact", cycle(5), complete(2), "SR(G) is not a C-graph"),  # SR(C5) is C5
    ("thm-c1-lower", path(3), complete(2), "SR(G) is not a C1-graph"),  # SR(P3) is K2 + K1
    ("cor-cgraphs-ii", path(4), complete(2), "factor is not complete multipartite"),
    ("cor-cgraphs-ii", graph.complete_multipartite([1, 1, 2]), complete(2),
     "more than one singleton part"),
    ("cor-cgraphs-iii", cycle(4), complete(2), "factor is not a generalized tree"),
    ("cor-cgraphs-iv", path(3), complete(2), "factor is not 2-antipodal"),
    ("cor-cgraphs-v", grid(2, 2), complete(2), "the 2x2 grid is 2-antipodal, not a K4-shape grid"),
    ("thm-oddcycle-bounds", cycle(4), path(3), "factor is not an odd cycle"),
    ("thm-odd-odd-beta", cycle(7), cycle(5), "needs odd cycles with r <= t"),
    ("thm-odd-odd-bounds", cycle(7), cycle(5), "needs odd cycles with r <= t"),
    ("remark-c3", cycle(5), cycle(5), "needs C_3 and an odd cycle"),
])
def test_replay_pins_each_skip_note(claim_id, g, h, note):
    # one instance per hypothesis: the first one it fails names the skip
    rec = replay_instance(claim_id, {"g6_g": to_graph6(g), "g6_h": to_graph6(h)})
    assert (rec["outcome"], rec["note"]) == ("skip", note)
    assert (rec["expected"], rec["actual"]) == (None, None)


def test_only_the_runner_writes_a_skip():
    # a claim states its hypotheses to _claim; no check may skip an instance
    # itself, so every skip record comes from _outcome and its declared notes
    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    runner = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_outcome")

    def skips(root):
        return {node for node in ast.walk(root)
                if isinstance(node, ast.Constant) and node.value == "skip"}

    assert skips(runner) and skips(tree) == skips(runner)


@given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.data())
@settings(max_examples=100, deadline=None)
def test_clique_sizes_match_isomorphism(sizes, data):
    # oracle: a graph's components are cliques of these orders iff it is
    # isomorphic to their disjoint union; one toggled pair may break that
    n = sum(sizes)
    perm = data.draw(st.permutations(range(n)))
    base = disjoint_union([complete(s) for s in sizes])
    edges = {tuple(sorted((perm[u], perm[v]))) for u, v in base.edges()}
    if n >= 2 and data.draw(st.booleans()):
        u = data.draw(st.integers(0, n - 2))
        edges ^= {(u, data.draw(st.integers(u + 1, n - 1)))}
    g = make_graph(n, sorted(edges))
    shape = disjoint_union([complete(s) for s in sorted(sizes)])
    assert (_clique_sizes(g) == sorted(sizes)) == graphs_isomorphic(g, shape)


@pytest.mark.parametrize("claim_id,g,shape_ok,outcome,expected", [
    ("cor-cgraphs-iv", cycle(18), True, "pass", 27),  # SR(C18): nine disjoint edges
    ("cor-cgraphs-i", complete(17), True, "pass", 33),
    ("cor-cgraphs-v", grid(3, 6), False, "fail", 21),  # two corner edges, not K4; actual 20
])
def test_family_shape_above_sixteen_vertices(claim_id, g, shape_ok, outcome, expected):
    # the SR shape is read as clique components, so no order cap applies
    rec = replay_instance(claim_id, {"g6_g": to_graph6(g), "g6_h": to_graph6(complete(2))})
    assert (rec["sr_shape_ok"], rec["outcome"], rec["expected"]) == (shape_ok, outcome, expected)


@pytest.mark.parametrize("claim_id,g,h,expected", [
    ("cor-cgraphs-ii", complete_multipartite([3, 3, 3]), path(3), 21),
    ("cor-cgraphs-iii", path(7), cycle(5), 23),
    ("thm-oddcycle-bounds", cycle(7), cycle(8), [41, 44]),
    ("thm-oddcycle-bounds", cycle(9), complete(5), [37, 41]),
    ("remark-c3", cycle(3), cycle(13), 33),
    ("thm-odd-odd-bounds", cycle(5), cycle(7), [28, 29]),
])
def test_stated_forms_outside_the_corpus(claim_id, g, h, expected):
    # the paper's printed values on instances the seed-42 corpus does not hold;
    # dim_s(H) > 1 separates the C1-graph lower bound from general_lower
    rec = replay_instance(claim_id, {"g6_g": to_graph6(g), "g6_h": to_graph6(h)})
    assert (rec["outcome"], rec["expected"]) == ("pass", expected)


def test_json_shape(small_reports):
    doc = json.loads(suite_to_json(small_reports, SMALL))
    assert doc["seed"] == 7
    assert doc["corpus"]["pair_samples"] == 12
    assert len(doc["claims"]) == 22
    assert "elapsed_ms" not in doc["claims"][0]
    assert doc["summary"]["claims"] == 22
    timed = json.loads(suite_to_json(small_reports, SMALL, include_timing=True))
    assert "elapsed_ms" in timed["claims"][0]


def test_json_claim_keys_are_the_report_fields(small_reports):
    # each claim entry is written from ClaimReport's own fields, in field
    # order; elapsed_ms is the last field and is written only with timings
    names = [f.name for f in fields(ClaimReport)]
    assert names[-1] == "elapsed_ms"
    plain = json.loads(suite_to_json(small_reports, SMALL))["claims"]
    timed = json.loads(suite_to_json(small_reports, SMALL, include_timing=True))["claims"]
    assert all(list(entry) == names[:-1] for entry in plain)
    assert all(list(entry) == names for entry in timed)
    assert [entry["elapsed_ms"] for entry in timed] == [r.elapsed_ms for r in small_reports]


def test_csv_shape(small_reports):
    text = suite_to_csv(small_reports)
    lines = text.strip().splitlines()
    assert lines[0].startswith("claim_id,status,")
    assert len(lines) == 23


GOLDEN_REPORT = Path(__file__).resolve().parents[1] / "bench" / "expected" / "verify-all-seed42.json"


def test_golden_report_seed42():
    # the default corpus must reproduce the committed report byte for byte;
    # an intended change replaces the file and says why in CHANGES.md
    spec = CorpusSpec(seed=42)
    reports = run_suite(Corpus(spec))
    text = suite_to_json(reports, spec)
    assert text == GOLDEN_REPORT.read_text(encoding="ascii")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert suite_exit_code(reports) == 2


def test_records_encode_each_graph_once_per_run(monkeypatch):
    # Env holds the graph6 string of every instance graph for the run: each
    # graph is encoded once, however many records name it
    spec = CorpusSpec(seed=42)
    Corpus(spec).exhaustive_small()  # its process-wide cache sorts by graph6
    encoded = []
    real = graph.to_graph6

    def counted(g):
        encoded.append(g)
        return real(g)

    monkeypatch.setattr(graph, "to_graph6", counted)
    reports = run_suite(Corpus(spec))
    assert [g for g, count in Counter(encoded).items() if count > 1] == []
    names = sum(2 - (rec["g6_h"] is None) for rep in reports for rec in rep.instances)
    assert 0 < len(encoded) < names // 10


def test_env_cache_consistency(small_corpus):
    env = Env(SMALL)
    g = cycle(5)
    assert env.dim_s(g) == 3
    assert env.beta(g) == 2
    assert env.dim_s(g) == 3  # cached path
    assert env.sr(g).sr.num_edges == 5


def test_env_never_reads_an_unproven_cover_as_a_number():
    env = Env(replace(SMALL, node_budget=3))
    g = products.product("strong", cycle(5), cycle(5))
    sr = env.sr(g).sr
    with pytest.raises(cover.BudgetExhausted):
        env.beta(sr)
    assert not env.cover(sr).proven_optimal  # held, unproven
    with pytest.raises(cover.BudgetExhausted):
        env.dim_s(g)
    with pytest.raises(cover.BudgetExhausted):
        env.beta(sr)


def test_each_layer_built_once_per_run(monkeypatch):
    # Env memoises every layer a claim reads, so no layer is built twice for
    # one graph: recognition takes its independent set from the run's cover,
    # and the C1-graph test reads the run's C-graph answer.  lemma-mmd builds
    # the factors' SR graphs inside predicted_mmd_edges and solves no cover,
    # so it is left out.
    calls = []
    nodes = []
    for fn in (cover.min_vertex_cover, resolving.strong_resolving_graph,
               dimension.sr_cover_dimension, products.product,
               cover.c_graph_partition, cover._splits_less_a_vertex):
        def counted(*args, _fn=fn, **kwargs):
            # the graph a layer is built for; a product is its kind and factors
            graph = args[:3] if _fn.__name__ == "product" else args[0]
            calls.append((_fn.__name__, graph))
            result = _fn(*args, **kwargs)
            if _fn.__name__ == "min_vertex_cover":
                nodes.append(result.nodes_explored)
            return result

        _patch_everywhere(monkeypatch, fn, counted)
    ids = [cid for cid in claim_ids() if cid != "lemma-mmd"]
    reports = {rep.claim_id: rep for rep in run_suite(Corpus(CorpusSpec(seed=42)), ids)}
    assert {call[0] for call in calls} == {
        "min_vertex_cover", "strong_resolving_graph", "sr_cover_dimension", "product",
        "c_graph_partition", "_splits_less_a_vertex"}
    assert [call for call, count in Counter(calls).items() if count > 1] == []
    # the seed-42 counter: the covers' calls and search nodes are deterministic.
    # thm-odd-odd-beta covers the residues C x C - N[0] of its 10 products; the
    # C3xC3 and C3xC5 product covers stay, as other claims read them.  Three
    # components that took 3, 9 and 13 branch-and-reduce nodes now settle in
    # one each before renumbering (3,048 before; see test_cover's ENV_PASS_COVERS)
    assert (len(nodes), sum(nodes)) == (744, 3_026)
    for cid in ("lemma-cgraph", "thm-cgraph-exact", "lemma-c1graph", "thm-c1-lower"):
        assert reports[cid].instances_checked >= 1 and reports[cid].skipped >= 1


def test_recognition_spends_the_run_budget():
    # recognition reads the run's cover, so it runs out with the run's node
    # budget: every lemma-cgraph instance within the cap is inconclusive, and
    # none is skipped as "G is not a C-graph"
    rep = verify_claim("lemma-cgraph", Corpus(replace(SMALL, node_budget=0)))
    assert rep.status == "inconclusive"
    assert rep.inconclusive == len(rep.instances) >= 1
    assert {rec["note"] for rec in rep.instances} == {
        "cover search exhausted its node budget (1 nodes)"}


def test_lemma_mmd_reports_a_dropped_edge(monkeypatch):
    # a prediction one edge short is a counterexample whose record names the
    # pair: the first pair is K2 x K2, whose SR graph is K4
    original = resolving.predicted_mmd_edges

    def drop_first_edge(g, h):
        predicted = original(g, h)
        u, v = predicted.graph.edges()[0]
        adj = list(predicted.graph.adj)
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        return predicted._replace(graph=graph.Graph(len(adj), adj))

    _patch_everywhere(monkeypatch, original, drop_first_edge)
    rep = verify_claim("lemma-mmd", Corpus(SMALL))
    assert rep.status == "counterexample"
    first = rep.instances[0]
    assert first["outcome"] == "fail"
    assert first["differing_pairs"] == [[0, 1]]


def test_lemma_cgraph_skips_every_factor_over_the_recognition_cap():
    rep = verify_claim("lemma-cgraph", Corpus(replace(SMALL, recognition_cap=1)))
    assert (rep.status, rep.instances_checked, rep.skipped) == ("skipped_precondition", 0, 17)
    assert {rec["note"] for rec in rep.instances} == {"factor exceeds the recognition cap"}


def test_replay_reproduces_an_inconclusive_record():
    # replay runs the hypotheses and the check under the run's budget, as
    # verify_claim does: a spent budget is the same inconclusive record
    spec = replace(SMALL, node_budget=0)
    records = verify_claim("lemma-cgraph", Corpus(spec)).instances
    assert records and all(rec["outcome"] == "inconclusive" for rec in records)
    for rec in records:
        assert replay_instance("lemma-cgraph", rec, spec) == rec


class TreesOnlyCorpus(Corpus):
    """Custom pool: every factor is a tree, so tree SR shapes drive the
    C-graph claims (tree SR graphs are always C-graphs)."""

    def solver_pairs(self):
        import random

        from strongdim.graph import make_graph, path, star

        rng = random.Random(self.spec.seed)
        trees = [path(4), path(5), star(5), star(6)]
        for _ in range(8):
            n = rng.randrange(3, 8)
            trees.append(make_graph(n, [(rng.randrange(v), v) for v in range(1, n)]))
        return [(g, h) for g in trees for h in trees[:3]]


def test_trees_only_corpus_exercises_cgraph_claims():
    corpus = TreesOnlyCorpus(SMALL)
    for cid in ("lemma-cgraph", "thm-cgraph-exact", "thm-bounds"):
        rep = verify_claim(cid, corpus)
        assert rep.status == "all_passed", (cid, rep.status)
        assert rep.instances_checked >= 1


def test_max_product_knob_filters_pairs():
    tight = CorpusSpec(seed=7, exhaustive_n=4, samples_per_n=2, max_product=50)
    for g, h in Corpus(tight).product_pairs():
        assert g.n * h.n <= 50


# -- the JSON writer: json.dumps(obj, indent=2), byte for byte -----------------


def _rows(cells):
    """Lists (or tuples) of one length, the shape of an edge list."""
    return st.integers(0, 3).flatmap(lambda k: st.lists(
        st.lists(cells, min_size=k, max_size=k)
        | st.tuples(*[cells] * k).map(list)
        | st.tuples(*[cells] * k)))


_json_leaves = (st.none() | st.booleans() | st.integers() | st.text()
                | st.lists(st.text()) | st.lists(st.integers()) | st.lists(st.booleans())
                | _rows(st.text()) | _rows(st.integers()))
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@given(_json_values)
@settings(max_examples=400, deadline=None)
def test_to_json_matches_json_dumps_indent_2(obj):
    assert to_json(obj) == json.dumps(obj, indent=2)


def test_to_json_matches_json_dumps_on_edge_cases():
    cases = [
        {}, [], "", [[]], [[], []], [{}], {"a": []}, [[1, 2], [3]], [["a"], [1]],
        [1, True], [1.5, float("inf")], [-0.0, 1e300, 5e-324, float("nan"), float("-inf")],
        "\u00e9\n\"\\\x00", (), ((1, 2), (3, 4)), [("a", "b"), ["c", "d"]],
    ]
    for obj in cases:
        assert to_json(obj) == json.dumps(obj, indent=2), obj
    for bad in ({1, 2}, object(), [{1: 0}], {"a": {"b": 1, 2: 0}}):
        with pytest.raises(TypeError):
            to_json(bad)
