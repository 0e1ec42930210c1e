import importlib.util
import os

from strongdim import cover
from strongdim.graph import cycle
from strongdim.products import product
from strongdim.resolving import strong_resolving_graph

LADDER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "cover_ladder.py")


def _load_cover_ladder():
    spec = importlib.util.spec_from_file_location("cover_ladder", LADDER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cover_ladder_forces_each_engine_and_restores_the_gate():
    # the node counts differ only if _solve really reaches each engine through
    # the two gate constants; a renamed constant would time the portfolio twice
    ladder = _load_cover_ladder()
    gate = cover.COLOUR_ENGINE_MAX_SHARE, cover.COLOUR_ENGINE_MAX_THETA
    sr = strong_resolving_graph(product("strong", cycle(9), cycle(9))).sr
    size, colour_nodes, _ = ladder._solve(sr, True, 20_000)
    assert (size, colour_nodes) == (65, 23)
    size, reduce_nodes, _ = ladder._solve(sr, False, 20_000)
    assert (size, reduce_nodes) == (65, 127)
    assert (cover.COLOUR_ENGINE_MAX_SHARE, cover.COLOUR_ENGINE_MAX_THETA) == gate
