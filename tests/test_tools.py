import importlib.util
import json
import os

from strongdim import cli, cover, dimension, graph, verify
from strongdim.graph import cycle, path
from strongdim.products import product
from strongdim.resolving import strong_resolving_graph

TOOLS = os.path.join(os.path.dirname(__file__), os.pardir, "tools")


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(TOOLS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_cover_ladder():
    return _load_tool("cover_ladder")


def test_cover_ladder_forces_each_engine_and_restores_the_gate(capsys):
    # the node counts differ only if _solve really reaches each route through
    # the gate constants and the uncapped frontier order; a renamed constant
    # would time the portfolio twice
    ladder = _load_cover_ladder()
    assert set(ladder.GATES) == {"MEMO_MAX"} | {
        name for name in vars(cover) if name.startswith(("COLOUR_ENGINE_", "FRONTIER_"))}
    gate = [getattr(cover, name) for name in ladder.GATES]
    dp, placed = cover._frontier_mis, cover._frontier_order
    sr = strong_resolving_graph(product("strong", cycle(9), cycle(9))).sr
    size, colour_nodes, *_ = ladder._solve(sr, "colour", 20_000)
    assert (size, colour_nodes) == (65, 23)
    size, reduce_nodes, *_ = ladder._solve(sr, "reduce", 20_000)
    assert (size, reduce_nodes) == (65, 111)
    # SR(C5xP12)'s root gap of 11 is below its order's width 17, so the gate
    # keeps it on the branch, and only the frontier route's uncapped order
    # sends it to the DP
    sr = strong_resolving_graph(product("strong", cycle(5), path(12))).sr
    assert ladder._solve(sr, "frontier", 50_000)[:2] == (38, 18855)
    # SR(C5xP24)'s gap of 23 passes the frontier gate as it stands, so only a
    # shut gate keeps the reduce route on branch and reduce
    sr = strong_resolving_graph(product("strong", cycle(5), path(24))).sr
    assert ladder._solve(sr, "reduce", 20_000)[:2] == (74, 513)
    size, frontier_nodes, _, width, peak = ladder._solve(sr, "frontier", 50_000)
    assert (size, frontier_nodes, width, peak) == (74, 32583, 17, 1152)
    assert cover.min_vertex_cover(sr).nodes_explored == frontier_nodes
    # the memo proves beta(C9xC9) in under a fifth of the 47,398 nodes its
    # colour search takes when MEMO_MAX = 0 keeps nothing
    g = product("strong", cycle(9), cycle(9))
    assert ladder._solve(g, "colour", 20_000)[:2] == (63, 4680)
    assert ladder._solve(g, "no memo", 50_000)[:2] == (63, 47398)
    # a beta0 rung is C9xC11 - N[0] solved as given: beta(C9xC11) = 1 + (90 - 69),
    # in 2,512 colour nodes where the whole product takes 21,752
    row = ladder.measure("beta0:C9xC11", 3_000)
    assert row[:6] == ["beta0:C9xC11", "90", "344", "26 (0.29)", "69", "2512"]
    assert row[7] == ">3000"  # the no-memo route
    # the last column is the seconds _theta_hat spends on the largest component
    ladder.main(["--only", "C5xP12", "--cap", "100"])
    header, _, line = capsys.readouterr().out.splitlines()
    assert header.endswith("| peak states | theta-hat s |") and float(line.split("|")[-2]) > 0
    assert [getattr(cover, name) for name in ladder.GATES] == gate
    assert (cover._frontier_mis, cover._frontier_order) == (dp, placed)


def test_product_ladder_times_each_function_and_restores_it(capsys):
    ladder = _load_tool("product_ladder")
    originals = [getattr(module, name) for module, name in ladder.TIMED]
    real_dilate = dimension._dilate
    total, spent, out = ladder._timed_request(
        ["product", "strong", *ladder.LADDER["C21xP8"], "--dim-s", "--format", "json"])
    # every wrapped function ran inside the request: one product_dimension,
    # one prediction, one check, the product's and the SR graph's graph6, one
    # JSON text
    assert set(spent) == {"product_dimension", "predicted_mmd_edges", "is_strong_generator",
                          "to_graph6", "to_json"}
    assert all(0 < secs < total for secs in spent.values())
    doc = json.loads(out)
    assert (doc["n"], doc["dim_s"], len(doc["basis"])) == (168, 98, 98)
    ladder.main(["--repeats", "1", "--only", "C21xP8", "K6xP60", "P18xP48"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5 and lines[0].startswith("| rung | request ms |")
    assert lines[0].endswith("| other ms | compute dim-s ms | _dilate calls |")
    assert [line.split(" | ")[0] for line in lines[2:]] == ["| C21xP8", "| K6xP60", "| P18xP48"]
    assert all(line.count("|") == 11 for line in lines)
    # the next to last column times the product's graph6 through compute
    # dim-s, which takes the factor route: product_dimension runs inside it
    assert all(float(line.split(" | ")[-2]) > 0 for line in lines[2:])
    # the last counts the check's layer steps, the same on every host: one
    # per vertex for the stages (168, 360 and 864), then the shared sweeps';
    # P18xP48's: a column's tail stops at its sources' largest ecc_G
    assert [int(line.split(" | ")[-1].rstrip(" |")) for line in lines[2:]] == [255, 2912, 2474]
    assert dimension._dilate is real_dilate
    g6 = graph.to_graph6(product("strong", *map(graph.generate, ladder.LADDER["C21xP8"])))
    total, spent, out = ladder._timed_request(["compute", "dim-s", g6, "--format", "json"])
    assert 0 < spent["product_dimension"] < total and json.loads(out)["value"] == 98
    assert [getattr(module, name) for module, name in ladder.TIMED] == originals
    assert (dimension.predicted_mmd_edges, dimension.is_strong_generator, graph.to_graph6,
            cli.to_json) == tuple(originals[1:])


def test_memory_probe_reports_the_child_and_limits_it_alone(capfd):
    probe = _load_tool("memory_probe")
    assert probe.main(["--limit-mb", "1536", "compute", "sr-graph", "path:5"]) == 0
    answer, report = capfd.readouterr().out.splitlines()
    assert answer == "sr-graph = 1"
    fields = dict(item.split("=") for item in report.split())
    assert fields["exit"] == "0" and float(fields["wall_s"]) > 0
    assert 0 < float(fields["maxrss_mb"]) < 1536
    # a limit too small to load the interpreter fails the child, not the caller
    code, _, _ = probe.probe(["compute", "sr-graph", "path:5"], limit_mb=1)
    assert code != 0


def test_memory_probe_reports_the_child_not_its_caller():
    # Linux carries a forking process's high-water mark across fork and exec
    # into the child's ru_maxrss; the probe reads the child's own VmHWM, so a
    # caller holding 64 MB still sees the small child (about 18 MB)
    ballast = b"x" * (64 << 20)
    code, _, rss = _load_tool("memory_probe").probe(["compute", "alpha", "path:3"])
    assert len(ballast) == 64 << 20
    assert code == 0 and 0 < rss < 64


def test_sr_graph_of_a_long_path_needs_no_stored_balls():
    # every ball of P1500 is about 350 MB; the SR graph alone holds two radii
    code, _, rss = _load_tool("memory_probe").probe(
        ["compute", "sr-graph", "path:1500"], limit_mb=100)
    assert code == 0 and rss < 100
