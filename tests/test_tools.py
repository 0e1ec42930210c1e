import importlib.util
import os

from strongdim import cover
from strongdim.graph import cycle, path
from strongdim.products import product
from strongdim.resolving import strong_resolving_graph

LADDER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "cover_ladder.py")


def _load_cover_ladder():
    spec = importlib.util.spec_from_file_location("cover_ladder", LADDER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cover_ladder_forces_each_engine_and_restores_the_gate():
    # the node counts differ only if _solve really reaches each route through
    # the gate constants; a renamed constant would time the portfolio twice
    ladder = _load_cover_ladder()
    assert set(ladder.GATES) == {"MEMO_MAX"} | {
        name for name in vars(cover) if name.startswith(("COLOUR_ENGINE_", "FRONTIER_"))}
    gate = [getattr(cover, name) for name in ladder.GATES]
    dp = cover._frontier_mis
    sr = strong_resolving_graph(product("strong", cycle(9), cycle(9))).sr
    size, colour_nodes, *_ = ladder._solve(sr, "colour", 20_000)
    assert (size, colour_nodes) == (65, 23)
    size, reduce_nodes, *_ = ladder._solve(sr, "reduce", 20_000)
    assert (size, reduce_nodes) == (65, 111)
    # SR(C5xP24) passes the frontier gate as it stands, so only a shut gate
    # keeps the reduce route on branch and reduce
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
    assert [getattr(cover, name) for name in ladder.GATES] == gate
    assert cover._frontier_mis is dp
