import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from strongdim import cli, cover, metrics, products, resolving, verify
from strongdim.cli import main
from strongdim.dimension import strong_metric_dimension
from strongdim.graph import (
    complete,
    cycle,
    disjoint_union,
    from_graph6,
    generate,
    graphs_isomorphic,
    random_connected,
    to_graph6,
)
from strongdim.products import coordinate_labels, product
from strongdim.resolving import strong_resolving_graph

from test_dimension import assert_minimum_basis


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_dim_s_of_c7(capsys):
    code, out, _ = run_cli(capsys, "compute", "dim-s", "--gen", "cycle:7")
    assert code == 0
    assert "dim-s = 4" in out


def test_compute_sr_graph_dot(capsys):
    code, out, _ = run_cli(capsys, "compute", "sr-graph", "--gen", "path:4",
                           "--format", "dot")
    assert code == 0
    assert "0 -- 3;" in out
    assert out.count("--") == 1


def test_compute_beta_of_k5(capsys):
    code, out, _ = run_cli(capsys, "compute", "beta", "--gen", "complete:5")
    assert code == 0
    assert "beta = 1" in out


def test_compute_json_payload(capsys):
    code, out, _ = run_cli(capsys, "compute", "alpha", "--gen", "cycle:5",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 3
    assert len(doc["witness"]) == 3


def test_compute_theta(capsys):
    code, out, _ = run_cli(capsys, "compute", "theta", "--gen", "cycle:6",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 3
    assert sorted(len(p) for p in doc["parts"]) == [2, 2, 2]


@pytest.fixture
def json_texts(monkeypatch):
    """Each JSON text the CLI writes, checked against json.dumps(obj, indent=2)."""
    texts = []
    real = verify.to_json

    def checked(obj):
        text = real(obj)
        assert text == json.dumps(obj, indent=2)
        texts.append(text)
        return text

    monkeypatch.setattr(verify, "to_json", checked)
    return texts


@pytest.mark.parametrize("what", ["dim-s", "sr-graph", "alpha", "beta", "boundary", "theta"])
def test_compute_json_is_json_dumps_output(capsys, monkeypatch, json_texts, what):
    import io

    code, out, _ = run_cli(capsys, "compute", what, "--gen", "grid:3x4", "--format", "json")
    assert (code, out) == (0, json_texts[-1] + "\n")
    text = to_graph6(cycle(5)) + "\n" + to_graph6(random_connected(7, 0.4, 3)) + "\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run_cli(capsys, "compute", what, "-", "--format", "json")
    assert (code, out) == (0, json_texts[-1] + "\n")
    assert isinstance(json.loads(out), list) and len(json_texts) == 2


@pytest.mark.parametrize("flags", [[], ["--sr"], ["--dim-s"], ["--sr", "--dim-s"]],
                         ids=["plain", "sr", "dim-s", "sr+dim-s"])
@pytest.mark.parametrize("kind, g, h", [
    ("strong", "path:30", "path:30"), ("strong", "cycle:5", "path:6"),
    ("lex", "cycle:4", "path:3"),
])
def test_product_json_is_json_dumps_output(capsys, json_texts, flags, kind, g, h):
    code, out, _ = run_cli(capsys, "product", kind, g, h, *flags, "--format", "json")
    assert (code, out) == (0, json_texts[-1] + "\n")
    doc = json.loads(out)
    assert ("sr_edges" in doc) == bool(flags) and ("dim_s" in doc) == ("--dim-s" in flags)


def test_compute_from_graph6_argument(capsys):
    code, out, _ = run_cli(capsys, "compute", "sr-graph", to_graph6(cycle(4)),
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == 2


def test_compute_from_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(to_graph6(cycle(5)) + "\n"))
    code, out, _ = run_cli(capsys, "compute", "dim-s", "-")
    assert code == 0
    assert "dim-s = 3" in out


def test_compute_multiple_graphs_from_stdin(capsys, monkeypatch):
    import io

    text = to_graph6(cycle(5)) + "\n" + to_graph6(cycle(7)) + "\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run_cli(capsys, "compute", "dim-s", "-", "--format", "json")
    assert code == 0
    docs = json.loads(out)
    assert [d["value"] for d in docs] == [3, 4]


@pytest.mark.parametrize("options", [
    ["--format", "json"],
    ["--format", "json", "--node-budget", "100"],
])
@pytest.mark.parametrize("source", ["cycle:5", "-"])
def test_compute_source_may_follow_options(capsys, monkeypatch, options, source):
    import io

    outs = []
    for argv in (["dim-s", source, *options], ["dim-s", *options, source]):
        monkeypatch.setattr("sys.stdin", io.StringIO(to_graph6(cycle(5)) + "\n"))
        code, out, err = run_cli(capsys, "compute", *argv)
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["witness"] == [2, 3, 4]


def test_compute_from_file(capsys, tmp_path):
    f = tmp_path / "graphs.g6"
    f.write_text(to_graph6(cycle(6)) + "\n")
    code, out, _ = run_cli(capsys, "compute", "alpha", f"@{f}")
    assert code == 0
    assert "alpha = 3" in out


def test_compute_disconnected_dim_errors(capsys):
    code, _, err = run_cli(capsys, "compute", "dim-s", to_graph6(from_graph6("A?")))
    assert code == 1
    assert err.startswith("error:")


def test_product_strong_c3_c5_dim(capsys):
    code, out, _ = run_cli(capsys, "product", "strong", "cycle:3", "cycle:5",
                           "--dim-s", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim_s"] == 13
    assert len(doc["basis"]) == 13
    assert all("," in label for label in doc["basis"])


def _generic_product_payload(prod, labels, with_dim):
    """The product fields as the BFS + direct-SR route on the product gives
    them; the basis is left out, since another minimum one may be printed."""
    sr = strong_resolving_graph(prod).sr
    out = {
        "n": prod.n,
        "m": prod.num_edges,
        "graph6": to_graph6(prod),
        "sr_graph6": to_graph6(sr),
        "sr_edges": [[labels[u], labels[v]] for u, v in sr.edges()],
    }
    if with_dim:
        out["dim_s"] = strong_metric_dimension(prod).dim
    return out


FACTOR_ROUTE_CASES = [
    ("complete:1", "path:5"),
    ("path:5", "complete:1"),
    ("cycle:5", "complete:3"),
    ("grid:2x3", "path:4"),
    ("cycle:3", "cycle:5"),
]


@pytest.mark.parametrize("g_spec,h_spec", FACTOR_ROUTE_CASES)
@pytest.mark.parametrize("flag", ["--dim-s", "--sr"])
def test_product_strong_factor_route_matches_generic(capsys, g_spec, h_spec, flag):
    code, out, _ = run_cli(capsys, "product", "strong", g_spec, h_spec, flag,
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    g, h = generate(g_spec), generate(h_spec)
    prod = product("strong", g, h)
    labels = coordinate_labels(g.n, h.n)
    expected = _generic_product_payload(prod, labels, flag == "--dim-s")
    assert {key: doc.get(key) for key in expected} == expected
    assert ("dim_s" in doc) == ("basis" in doc) == (flag == "--dim-s")
    if flag == "--dim-s":
        ids = {label: v for v, label in labels.items()}
        assert_minimum_basis(prod, doc["dim_s"], {ids[x] for x in doc["basis"]})


def test_product_strong_trivial_factor_dim(capsys):
    code, out, _ = run_cli(capsys, "product", "strong", "complete:1", "path:5",
                           "--dim-s", "--format", "json")
    assert code == 0
    assert json.loads(out)["dim_s"] == 1


# run by a fresh interpreter, which prints its own peak RSS in kB: VmHWM, as
# Linux carries the forking process's high-water mark into ru_maxrss
_PEAK_RSS_SNIPPET = """\
import sys
from strongdim import cli
rc = cli.main(["product", "strong", "cycle:5", "path:400", "--dim-s", "--format", "json"])
with open("/proc/self/status") as status:
    peak_kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(rc, peak_kb, file=sys.stderr)
"""


def test_product_strong_peak_memory_stays_small():
    # C5xP400 has 2,000 vertices; holding every product vertex's distance
    # balls at once peaked at about 200 MB, reading them from the factors'
    # balls one vertex at a time stays near 30 MB
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_SNIPPET], capture_output=True,
                          text=True, env=env, timeout=300)
    rc, peak_kb = proc.stderr.split()[-2:]
    assert rc == "0"
    assert json.loads(proc.stdout)["dim_s"] == 1202
    assert int(peak_kb) < 100 * 1024


@pytest.mark.parametrize("first_trivial", [False, True])
def test_product_strong_disconnected_factor_single_line_error(capsys, first_trivial):
    g6 = to_graph6(disjoint_union([complete(2)] * 2))
    g_arg = "complete:1" if first_trivial else g6
    code, _, err = run_cli(capsys, "product", "strong", g_arg, g6, "--dim-s")
    assert code == 1
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


def test_product_cartesian_p2_p2_is_c4(capsys):
    code, out, _ = run_cli(capsys, "product", "cartesian", "path:2", "path:2",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert graphs_isomorphic(from_graph6(doc["graph6"]), cycle(4))


def test_product_sum_k2_k2_is_k4(capsys):
    code, out, _ = run_cli(capsys, "product", "sum", "complete:2", "complete:2",
                           "--format", "json")
    assert code == 0
    assert from_graph6(json.loads(out)["graph6"]) == complete(4)


def test_product_dot_labels(capsys):
    code, out, _ = run_cli(capsys, "product", "strong", "path:2", "path:2",
                           "--format", "dot")
    assert code == 0
    assert '[label="0,0"]' in out


def _patch_everywhere(monkeypatch, original, replacement):
    """Swap ``original`` for ``replacement`` in every strongdim namespace."""
    name = original.__name__
    for key, mod in list(sys.modules.items()):
        if key == "strongdim" or key.startswith("strongdim."):
            if vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, replacement)


@pytest.mark.parametrize("argv", [
    ("compute", "dim-s", "--gen", "cycle:7", "--format", "dot"),
    ("product", "strong", "cycle:5", "path:4", "--dim-s", "--format", "dot"),
    ("product", "cartesian", "path:3", "path:4", "--dim-s", "--format", "dot"),
])
def test_dot_format_rejected_before_any_cover(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("the cover search ran before the format was checked")

    _patch_everywhere(monkeypatch, cover.min_vertex_cover, refuse)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


LAYERS = (metrics.all_pairs_distances, resolving.strong_resolving_graph,
          resolving.predicted_mmd_edges, products.product)


@pytest.mark.parametrize("argv,expected", [
    (("product", "strong", "path:30", "path:30", "--dim-s"),
     {"all_pairs_distances": 2, "strong_resolving_graph": 2, "predicted_mmd_edges": 1,
      "product": 1}),
    (("product", "cartesian", "path:3", "path:4", "--dim-s"),
     {"all_pairs_distances": 1, "strong_resolving_graph": 1, "predicted_mmd_edges": 0,
      "product": 1}),
    # an SR graph alone needs no stored balls: it comes from the pass that
    # holds two radii, not from all_pairs_distances
    (("compute", "sr-graph", "--gen", "cycle:7", "--format", "dot"),
     {"all_pairs_distances": 0, "strong_resolving_graph": 1, "predicted_mmd_edges": 0,
      "product": 0}),
    # DOT shows the product alone, so --sr builds no SR graph
    (("product", "strong", "path:3", "path:4", "--sr", "--format", "dot"),
     {"all_pairs_distances": 0, "strong_resolving_graph": 0, "predicted_mmd_edges": 0,
      "product": 1}),
    (("product", "lex", "cycle:4", "path:3", "--dim-s"),
     {"all_pairs_distances": 1, "strong_resolving_graph": 1, "predicted_mmd_edges": 0,
      "product": 1}),
    # G x K1 is G with its own ids, so it takes the direct route
    (("product", "strong", "complete:1", "path:5", "--sr"),
     {"all_pairs_distances": 0, "strong_resolving_graph": 1, "predicted_mmd_edges": 0,
      "product": 1}),
])
def test_each_layer_built_once_per_request(capsys, monkeypatch, argv, expected):
    calls = dict.fromkeys(expected, 0)
    for fn in LAYERS:
        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        _patch_everywhere(monkeypatch, fn, counted)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert calls == expected


def test_product_dot_ignores_sr(capsys):
    plain = run_cli(capsys, "product", "strong", "path:3", "path:4", "--format", "dot")
    with_sr = run_cli(capsys, "product", "strong", "path:3", "path:4", "--sr",
                      "--format", "dot")
    assert plain[0] == with_sr[0] == 0
    assert with_sr[1] == plain[1]


@pytest.mark.parametrize("g", [
    product("strong", cycle(9), cycle(9)),  # SR graph on the colour-engine side
    product("strong", cycle(5), generate("path:12")),  # on the branch-and-reduce side
    random_connected(18, 0.3, 1),  # within theta's cap of 20 vertices
])
def test_compute_dim_s_budget_exhausted_exits_3(capsys, g):
    small = g.n <= cover.DEFAULT_RECOGNITION_CAP
    for what in ("dim-s", "alpha", "theta") if small else ("dim-s", "alpha"):
        code, out, err = run_cli(capsys, "compute", what, to_graph6(g), "--node-budget", "5")
        assert code == 3, what
        assert out == ""
        assert err.startswith("error: budget-exhausted")
        assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("compute", "dim-s", "path:30"),
    ("product", "strong", "path:4", "path:5", "--dim-s"),
])
def test_out_of_memory_is_one_error_line(capsys, monkeypatch, argv):
    # a layer that runs out of memory ends the run with one line and exit 1
    def exhausted(*args, **kwargs):
        raise MemoryError

    _patch_everywhere(monkeypatch, metrics.all_pairs_distances, exhausted)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", "error: out of memory\n")


def test_consecutive_calls_share_no_flags_or_defaults(capsys):
    # one parser serves every call in a process; no call may see another's flags
    assert cli._build_parser() is cli._build_parser()
    with_dim = run_cli(capsys, "product", "strong", "path:3", "path:4", "--dim-s",
                       "--format", "json")
    plain = run_cli(capsys, "product", "strong", "path:3", "path:4", "--format", "json")
    assert with_dim[0] == plain[0] == 0
    assert json.loads(with_dim[1])["dim_s"] == 6
    assert set(json.loads(plain[1])) == {"kind", "n", "m", "graph6"}
    g6 = to_graph6(product("strong", cycle(9), cycle(9)))
    assert run_cli(capsys, "compute", "dim-s", g6, "--node-budget", "5")[0] == 3
    code, out, _ = run_cli(capsys, "compute", "dim-s", g6, "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == 81 - 16


def test_verify_remark_c3(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, _, err = run_cli(capsys, "verify", "remark-c3", "--t-max", "3",
                           "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    claim = next(c for c in doc["claims"] if c["claim_id"] == "remark-c3")
    assert claim["status"] == "all_passed"
    assert [rec["actual"] for rec in claim["instances"]] == [8, 13, 18]
    assert "remark-c3: all_passed" in err


def test_verify_defaults_are_the_corpus_spec_defaults(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "verify", "remark-c3", "--out", str(out_file))
    assert code == 0
    assert json.loads(out_file.read_text())["corpus"] == dataclasses.asdict(verify.CorpusSpec())


def test_verify_odd_odd_fixed_pair(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm-odd-odd-beta", "--r", "2", "--t", "2")
    assert code == 0
    doc = json.loads(out)
    claim = next(c for c in doc["claims"] if c["claim_id"] == "thm-odd-odd-beta")
    assert claim["instances"][0]["actual"] == 5


def test_verify_unknown_claim(capsys):
    code, _, err = run_cli(capsys, "verify", "thm-flat-earth")
    assert code == 1
    assert err.startswith("error:")


def test_verify_exhaustive_n_above_cap_refused(capsys):
    # order 8 would enumerate 2^28 edge masks; the corpus spec refuses it up front
    code, out, err = run_cli(capsys, "verify", "all", "--exhaustive-n", "8")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "cap of 7" in err
    assert len(err.strip().splitlines()) == 1


def test_verify_csv_summary(capsys, tmp_path):
    out_file = tmp_path / "r.json"
    csv_file = tmp_path / "r.csv"
    code, _, _ = run_cli(capsys, "verify", "remark-c3", "--t-max", "2",
                         "--out", str(out_file), "--csv", str(csv_file))
    assert code == 0
    lines = csv_file.read_text().strip().splitlines()
    assert lines[0].startswith("claim_id,")
    assert any(ln.startswith("remark-c3,all_passed") for ln in lines)


def test_verify_timings_flag_controls_json(capsys, tmp_path):
    plain = tmp_path / "a.json"
    timed = tmp_path / "b.json"
    run_cli(capsys, "verify", "remark-c3", "--t-max", "2", "--out", str(plain))
    run_cli(capsys, "verify", "remark-c3", "--t-max", "2", "--timings",
            "--out", str(timed))
    assert "elapsed_ms" not in plain.read_text()
    assert "elapsed_ms" in timed.read_text()


def test_bad_generator_spec_single_line_error(capsys):
    code, _, err = run_cli(capsys, "compute", "dim-s", "--gen", "octahedron:4")
    assert code == 1
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("spec", ["path:abc", "grid:3", "kpartite:"])
def test_malformed_generator_params_name_the_spec(capsys, spec):
    code, _, err = run_cli(capsys, "compute", "dim-s", "--gen", spec)
    assert code == 1
    assert err.startswith(f"error: bad parameters in generator spec '{spec}': ")
    assert len(err.strip().splitlines()) == 1


def test_family_constructor_error_passes_unchanged(capsys):
    code, _, err = run_cli(capsys, "compute", "dim-s", "--gen", "cycle:2")
    assert code == 1
    assert err.strip() == "error: cycle needs n >= 3"


def test_oversized_generator_param_single_line_error(capsys):
    # 1 << n overflows at once for this n, before anything is allocated
    spec = "complete:99999999999999999999"
    code, _, err = run_cli(capsys, "compute", "dim-s", "--gen", spec)
    assert code == 1
    assert err.strip() == f"error: generator spec '{spec}' is too large to build"


def test_missing_graph_file_single_line_error(capsys, tmp_path):
    missing = tmp_path / "missing.g6"
    code, _, err = run_cli(capsys, "compute", "dim-s", f"@{missing}")
    assert code == 1
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


def test_unwritable_report_path_single_line_error(capsys, tmp_path):
    out_file = tmp_path / "no-such-dir" / "r.json"
    code, _, err = run_cli(capsys, "verify", "remark-c3", "--t-max", "1",
                           "--out", str(out_file))
    assert code == 1
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


def test_mismatched_r_t_flags(capsys):
    code, _, err = run_cli(capsys, "verify", "thm-odd-odd-beta", "--r", "2")
    assert code == 1
    assert "together" in err


@pytest.mark.parametrize("r, t", [("0", "1"), ("1", "0"), ("-1", "2")])
def test_verify_r_t_below_one_is_a_usage_error(capsys, monkeypatch, r, t):
    def no_corpus(spec):
        raise AssertionError("no corpus is built for a refused --r/--t")

    monkeypatch.setattr(verify, "Corpus", no_corpus)
    code, out, err = run_cli(capsys, "verify", "all", "--r", r, "--t", t)
    assert (code, out) == (1, "")
    assert err == "error: --r and --t must be at least 1\n"


def test_verify_r_above_t_is_a_usage_error(capsys, monkeypatch):
    # the odd-odd claims need r <= t, so r > t would check nothing and pass
    def no_corpus(spec):
        raise AssertionError("no corpus is built for a refused --r/--t")

    monkeypatch.setattr(verify, "Corpus", no_corpus)
    code, out, err = run_cli(capsys, "verify", "thm-odd-odd-beta", "--r", "3", "--t", "2")
    assert (code, out) == (1, "")
    assert err == "error: --r 3 is above --t 2; the odd-odd claims need r <= t\n"


@pytest.mark.parametrize("argv,named", [
    (["remark-c3", "--t-max", "0"], "t_max 0"),
    (["thm-odd-odd-beta", "--odd-odd-max", "0"], "odd_odd_max 0"),
    (["lemma-mmd", "--max-product", "3"], "max_product 3"),
    (["lemma-mmd", "--exhaustive-n", "1"], "exhaustive_n 1"),
    (["all", "--exhaustive-n", "-1"], "exhaustive_n -1"),
    (["all", "--samples", "-1"], "samples_per_n -1"),
    (["all", "--pair-samples", "-3"], "pair_samples -3"),
])
def test_verify_corpus_that_checks_nothing_is_a_usage_error(capsys, monkeypatch, argv, named):
    # the CLI names the option the user typed; CorpusSpec itself, for library
    # callers, keeps naming its field
    def no_corpus(spec):
        raise AssertionError("no corpus is built for a refused corpus spec")

    monkeypatch.setattr(verify, "Corpus", no_corpus)
    code, out, err = run_cli(capsys, "verify", *argv)
    option, value = argv[1:]
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {option} {value} is below ") and err.count("\n") == 1
    field = named.split()[0]
    with pytest.raises(ValueError, match=f"^{named} is below "):
        verify.CorpusSpec(**{field: int(value)})


def test_verify_exhaustive_n_cap_names_the_option(capsys):
    code, out, err = run_cli(capsys, "verify", "all", "--exhaustive-n", "9")
    assert (code, out) == (1, "")
    assert err == "error: --exhaustive-n 9 exceeds the cap of 7\n"
    with pytest.raises(ValueError, match="^exhaustive_n 9 exceeds the cap of 7$"):
        verify.CorpusSpec(exhaustive_n=9)


@pytest.mark.parametrize("argv", [
    ["compute", "dim-s", "cycle:5"],
    ["product", "strong", "cycle:3", "cycle:5", "--dim-s"],
    ["verify", "remark-c3"],
])
def test_negative_node_budget_is_a_usage_error(capsys, monkeypatch, argv):
    monkeypatch.setattr(verify, "Corpus", None)  # refused before any corpus
    code, out, err = run_cli(capsys, *argv, "--node-budget", "-1")
    assert (code, out) == (1, "")
    assert err == "error: argument --node-budget: -1 is below 0\n"
    if argv[0] == "compute":  # a budget of 0 is a budget that runs out
        assert run_cli(capsys, *argv, "--node-budget", "0")[0] == 3


@pytest.mark.parametrize("argv", [
    ["compute", "dim-s", "cycle:7", "--gen", "cycle:5"],
    ["compute", "dim-s", "--gen", "cycle:5", "cycle:7"],
])
def test_two_graph_sources_are_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == ("error: two graph sources, 'cycle:7' and --gen 'cycle:5'; give one\n")


@pytest.mark.parametrize("argv, names", [
    (["verify", "all", "--seed", "abc"], "--seed"),
    (["verify"], "claim"),
    (["compute", "nope"], "nope"),
    # a source after the options is taken once, and never an unknown option
    (["compute", "dim-s", "--format", "json", "cycle:5", "cycle:7"], "cycle:7"),
    (["compute", "dim-s", "--bogus", "cycle:5"], "--bogus cycle:5"),
])
def test_usage_error_exits_1_not_the_counterexample_code(capsys, argv, names):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and names in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: strongdim")
