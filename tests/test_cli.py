import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import prodgraph
from prodgraph import (
    SparseAdjacency,
    closed_form_cartesian,
    dense_adjacency,
    k_factor_adjacency,
    load_graph,
)
from prodgraph.cli import main
from prodgraph.model import ForwardConfig, build_forward_model, save_parameters
from helpers import entry_set, read_coo, read_pe
from tuple_reference import point_pairs, reference_adjacency

P2_JSON = '{"n":2,"edges":[[0,1]]}'


@pytest.fixture()
def p2_file(tmp_path):
    path = tmp_path / "p2.json"
    path.write_text(P2_JSON)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_product_k2(p2_file, tmp_path, capsys):
    out = tmp_path / "adj"
    code, _, _ = run_cli(capsys, "build-product", p2_file, "--out", str(out))
    assert code == 0
    for name, nnz in (("internal.coo", 4), ("external.coo", 4), ("point.coo", 4)):
        adj = read_coo((out / name).read_text())
        assert adj.nnz == nnz
        assert (adj.rows, adj.cols) == (4, 4)


def test_build_product_k3_writes_four_files(p2_file, tmp_path, capsys):
    out = tmp_path / "adj3"
    code, _, _ = run_cli(capsys, "build-product", p2_file, "--tuple-order", "3", "--out", str(out))
    assert code == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == ["slot0.coo", "slot1.coo", "slot2.coo", "union.coo"]
    union = read_coo((out / "union.coo").read_text())
    assert union.nnz == 24  # the 3-cube


def test_build_product_k3_optional_point_files(p2_file, tmp_path, capsys):
    out = tmp_path / "adj3p"
    code, _, _ = run_cli(
        capsys, "build-product", p2_file, "--tuple-order", "3", "--out", str(out),
        "--include-point",
    )
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["point1.coo", "point2.coo", "point3.coo",
                     "slot0.coo", "slot1.coo", "slot2.coo", "union.coo"]
    for i in (1, 2, 3):
        pt = read_coo((out / f"point{i}.coo").read_text())
        assert pt.nnz == 4  # n^2 entries


def test_build_product_k3_matches_oracles(tmp_path, capsys):
    graph = tmp_path / "star.json"
    graph.write_text('{"n":4,"edges":[[0,1],[1,2],[1,3]]}')
    out = tmp_path / "adj3"
    code, stdout, _ = run_cli(capsys, "build-product", str(graph), "--tuple-order", "3",
                              "--out", str(out), "--include-point")
    assert code == 0
    names = ["slot0", "slot1", "slot2", "union", "point1", "point2", "point3"]
    nnz = [96, 96, 96, 288, 16, 16, 16]
    assert stdout.splitlines() == [
        f"wrote {out / name}.coo (nnz={count})" for name, count in zip(names, nnz)
    ]
    g = load_graph(graph.read_text())
    a = dense_adjacency(g)
    expected = {f"slot{k}": SparseAdjacency.from_dense(k_factor_adjacency(a, k, 3)) for k in range(3)}
    expected["union"] = SparseAdjacency.from_dense(closed_form_cartesian(a, 3))
    for i in (1, 2, 3):
        expected[f"point{i}"] = reference_adjacency(4, 3, point_pairs(4, 3, i))
    for name, adj in expected.items():
        assert (out / f"{name}.coo").read_text() == adj.to_coo_text()


def test_build_product_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run_cli(capsys, "build-product", str(bad), "--out", str(tmp_path / "x"))
    assert code == 2
    assert "ParseError" in err


def test_build_product_scale_guard(tmp_path, capsys):
    import json

    big = tmp_path / "big.json"
    big.write_text(json.dumps({"n": 9, "edges": [[0, 1]]}))
    code, _, err = run_cli(capsys, "build-product", str(big), "--tuple-order", "4",
                           "--out", str(tmp_path / "y"))
    assert code == 2
    assert "ScaleError" in err


def test_pe_product_labels(p2_file, tmp_path, capsys):
    out = tmp_path / "pe.txt"
    code, stdout, _ = run_cli(capsys, "pe", p2_file, "--k", "4", "--variant", "product",
                              "--out", str(out))
    assert code == 0
    assert stdout.splitlines()[-1] == "0 2 2 4"
    pe = read_pe(out.read_text())
    assert pe.rows == 4 and pe.k == 4


def test_pe_concat_shape(p2_file, capsys):
    code, stdout, _ = run_cli(capsys, "pe", p2_file, "--k", "2", "--variant", "concat")
    assert code == 0
    assert len(stdout.split()) == 4  # 2k labels


def test_pe_tuple_variant(p2_file, capsys):
    code, stdout, _ = run_cli(capsys, "pe", p2_file, "--k", "8", "--variant", "tuple:3")
    assert code == 0
    assert stdout.split() == ["0", "2", "2", "2", "4", "4", "4", "6"]


def test_pe_k_zero_is_input_error(p2_file, capsys):
    code, _, err = run_cli(capsys, "pe", p2_file, "--k", "0")
    assert code == 2
    assert "RangeError" in err


def test_mark_output(p2_file, capsys):
    code, stdout, _ = run_cli(capsys, "mark", p2_file)
    assert code == 0
    assert stdout.splitlines() == ["2 3", "0 1", "1 0"]


def test_mark_out_writes_what_mark_prints(p2_file, tmp_path, capsys):
    _, printed, _ = run_cli(capsys, "mark", p2_file)
    path = tmp_path / "marks.txt"
    code, stdout, _ = run_cli(capsys, "mark", p2_file, "--out", str(path))
    assert (code, stdout) == (0, f"wrote {path}\n")
    assert path.read_text() == printed


def test_forward_deterministic_and_golden(p2_file, capsys):
    args = ["forward", p2_file, "--k", "4", "--seed", "7", "--layers", "2"]
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2  # byte-identical stdout for identical flags
    golden = np.array(
        [0.30116298190044843, 0.3676151750339528, 0.49567302214650349,
         0.37884628416192034, 0.086584872491644566, 0.19000755773772909,
         0.13867774728062007, 0.48568039882196862]
    )  # pinned reference run
    got = np.array([float(x) for x in out1.split()])
    assert np.abs(got - golden).max() <= 1e-12


@pytest.mark.parametrize("pool, golden", [
    ("sum_sum", [-2.0178575065687983, 0.44085634118806183, 0.00027024679076992353,
                 -0.09733311030852547, 1.3133535669117771, -0.56829155384104635,
                 1.4306649029609839, -0.29766515478288436]),
    # mean_sum divides the sum over the m*n sampled rows by n, not by m*n
    ("mean_sum", [-0.69371010609271755, -0.045196171493379678, -0.13983113841627598,
                  -0.11868918377828296, 0.28933163535778877, -0.031906254747110813,
                  0.43307136642035415, -0.25505650935286828]),
], ids=["sum_sum", "mean_sum"])
def test_forward_sampled_golden(tmp_path, capsys, pool, golden):
    graph = tmp_path / "g6.json"
    graph.write_text('{"n":6,"edges":[[0,1],[1,2],[2,3],[3,4],[1,4],[4,5],[0,2]]}')
    code, out, _ = run_cli(capsys, "forward", str(graph), "--sample-ratio", "0.5",
                           "--sample-seed", "3", "--pool", pool)
    assert code == 0
    got = np.array([float(x) for x in out.split()])
    assert np.abs(got - np.array(golden)).max() <= 1e-12  # pinned reference run


def test_forward_sample_ratio_one_matches_unsampled(p2_file, capsys):
    base = ["forward", p2_file, "--k", "4", "--seed", "3"]
    code, out1, _ = run_cli(capsys, *base)
    code, out2, _ = run_cli(capsys, *base, "--sample-ratio", "1.0")
    assert out1 == out2


def test_forward_param_container_roundtrip(p2_file, tmp_path, capsys):
    container = tmp_path / "params.bin"
    args = ["forward", p2_file, "--k", "4", "--seed", "9"]
    _, out1, _ = run_cli(capsys, *args, "--save-params", str(container))
    assert container.exists()
    _, out2, _ = run_cli(capsys, *args, "--load-params", str(container))
    assert out1 == out2


def test_forward_bad_sample_ratio(p2_file, capsys):
    code, _, err = run_cli(capsys, "forward", p2_file, "--sample-ratio", "0.0")
    assert code == 2
    assert "EmptySample" in err
    code, _, err = run_cli(capsys, "forward", p2_file, "--sample-ratio", "1.5")
    assert code == 2
    assert "RangeError" in err


@pytest.mark.parametrize("argv", [
    ["forward", "{graph}", "--sample-ratio", "nan"],
    ["sample", "{graph}", "--ratio", "nan"],
    ["forward", "{graph}", "--sample-ratio=-inf"],
    ["forward", "{graph}", "--heads", "0"],
    ["forward", "{graph}", "--heads=-4"],
    ["forward", "{graph}", "--d", "0"],
    ["forward", "{graph}", "--layers", "-1"],
    ["forward", "{graph}", "--k", "-20"],
], ids=["forward-ratio-nan", "sample-ratio-nan", "ratio-minus-inf", "heads-0",
        "heads-minus-4", "d-0", "layers-minus-1", "k-minus-20"])
def test_out_of_range_model_and_sampling_arguments_are_input_errors(p2_file, capsys, argv):
    code, out, err = run_cli(capsys, *(a.format(graph=p2_file) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("RangeError: ") and "Traceback" not in err and err.count("\n") == 1


def _container(manifest) -> bytes:
    """A parameter container holding `manifest`, as JSON or as the given
    bytes, and no array data."""
    body = manifest if isinstance(manifest, bytes) else json.dumps(manifest).encode("utf-8")
    return struct.pack("<Q", len(body)) + body


@pytest.mark.parametrize("argv, container", [
    (["pe", "{graph}", "--k", "4", "--variant", "tuple:x"], None),
    (["pe", "{graph}", "--k", "4", "--variant", "tuple:"], None),
    (["build-product", "{graph}", "--tuple-order", "1", "--out", "{params}.d"], None),
    (["forward", "{graph}", "--load-params", "{params}"], b"{nope"),
    (["forward", "{graph}", "--load-params", "{params}"], {"arrays": []}),
    (["forward", "{graph}", "--load-params", "{params}"], []),
    (["forward", "{graph}", "--load-params", "{params}"], {"arrays": [{"shape": [2]}]}),
    (["forward", "{graph}", "--load-params", "{params}"],
     {"arrays": [{"name": "mark_table", "shape": [-1, 8]}]}),
    (["forward", "{graph}", "--load-params", "{params}"],
     {"arrays": [{"name": "mark_table", "shape": "ab"}]}),
    (["forward", "{graph}", "--load-params", "{params}"],
     {"arrays": [{"name": "mark_table", "shape": [0, 2**62, 4]}]}),
], ids=["tuple-x", "tuple-empty", "tuple-order-1", "manifest-not-json", "missing-mark-table",
        "manifest-list", "entry-without-name", "shape-negative",
        "shape-string", "shape-empty-but-oversized"])
def test_malformed_outside_input_is_input_error(p2_file, tmp_path, capsys, argv, container):
    params = tmp_path / "params.bin"
    if container is not None:
        params.write_bytes(_container(container) + bytes(64))
    code, out, err = run_cli(capsys, *(a.format(graph=p2_file, params=params) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith(("ParseError: ", "RangeError: ")) and err.count("\n") == 1


def test_parameter_of_another_shape_is_shape_mismatch(p2_file, tmp_path, capsys):
    params = tmp_path / "params.bin"  # P2's mark table is (3, 8)
    params.write_bytes(_container({"arrays": [{"name": "mark_table", "shape": [4, 8]}]}) + bytes(8 * 32))
    code, out, err = run_cli(capsys, "forward", p2_file, "--load-params", str(params))
    assert (code, out) == (2, "")
    assert err.startswith("ShapeMismatch: mark_table: ") and err.count("\n") == 1


@pytest.mark.parametrize("container", [
    struct.pack("<Q", 2**64 - 1) + b"{}",
    _container({"arrays": [{"name": "mark_table", "shape": [2**40, 2**40]}]}),
    _container({"arrays": [{"name": "mark_table", "shape": [2**62, 4]}]}),
], ids=["manifest-length", "shape-2^40-by-2^40", "shape-2^62-by-4"])
def test_oversized_parameter_container_is_truncated(p2_file, tmp_path, capsys, container):
    params = tmp_path / "params.bin"
    params.write_bytes(container + bytes(64))
    code, out, err = run_cli(capsys, "forward", p2_file, "--load-params", str(params))
    assert (code, out) == (2, "")
    assert err.startswith("ParseError: parameter container truncated") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--k", str(10**20)], ["--d", str(10**20), "--heads", "1"]],
                         ids=["k", "d"])
def test_unaddressable_parameter_draw_is_input_error(p2_file, capsys, argv):
    code, out, err = run_cli(capsys, "forward", p2_file, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("ScaleError: ") and err.count("\n") == 1


FEATURE_COMMANDS = (["forward", "{graph}"], ["pe", "{graph}", "--k", "2"], ["mark", "{graph}"],
                    ["sample", "{graph}", "--ratio", "0.5"],
                    ["build-product", "{graph}", "--out", "{out}"])


@pytest.mark.parametrize("value", ['"a"', "true", "null", "[1]", "NaN", "-Infinity", "1e400",
                                   "1" + "0" * 400, "1" + "0" * 5000],
                         ids=["string", "bool", "null", "array", "nan", "minus-inf",
                              "float-overflow", "int-overflow", "int-too-long"])
def test_feature_values_must_be_finite_numbers(tmp_path, capsys, value):
    graph = tmp_path / "g.json"
    graph.write_text('{"n":3,"edges":[[0,1]],"features":[[1],[2.5],[%s]]}' % value)
    for argv in FEATURE_COMMANDS:
        code, out, err = run_cli(capsys, *(a.format(graph=graph, out=tmp_path / "adj") for a in argv))
        assert code == 2, argv
        assert out == ""
        assert err.startswith("ParseError: ") and err.count("\n") == 1


@pytest.mark.parametrize("data, error", [
    (b'{"n":0,"edges":[]}', "ValidationError"),
    (b'{"n":-3,"edges":[]}', "ValidationError"),
    (b'{"n":"3","edges":[]}', "ParseError"),
    (b'{"n":3,"edges":{"0":1}}', "ParseError"),
    (b'{"n":3,"edges":[[0,1.5]]}', "ParseError"),
    (b'{"n":3,"edges":[[0,true]]}', "ParseError"),
    (b'[3,[[0,1]]]', "ParseError"),
    (b'{"n":3,"edges":[]}\xff\xfe', "ParseError"),
    (b'{"n":3,"edges":[[0,1]],"features":"abc"}', "ParseError"),
    (b'{"n":3,"edges":[[0,1]],"features":[[1],[2,3],[4]]}', "ValidationError"),
], ids=["n-0", "n-minus-3", "n-string", "edges-object", "endpoint-float", "endpoint-bool",
        "top-level-array", "non-utf8", "features-string", "features-ragged"])
def test_malformed_graph_is_input_error(tmp_path, capsys, data, error):
    graph = tmp_path / "g.json"
    graph.write_bytes(data)
    for argv in FEATURE_COMMANDS:
        code, out, err = run_cli(capsys, *(a.format(graph=graph, out=tmp_path / "adj") for a in argv))
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"{error}: ") and err.count("\n") == 1, argv


def test_non_finite_parameter_container_is_parse_error(p2_file, tmp_path, capsys):
    g = load_graph(P2_JSON)
    named = build_forward_model(g, ForwardConfig()).named()
    dict(named)["layers.0.fuse_mlp.w1"][0, 0] = np.nan
    params = tmp_path / "nan.bin"
    with params.open("wb") as fh:
        save_parameters(fh, named)
    code, out, err = run_cli(capsys, "forward", p2_file, "--load-params", str(params))
    assert code == 2
    assert out == ""
    assert err.startswith("ParseError: ") and "layers.0.fuse_mlp.w1" in err


def test_overflowing_parameters_are_an_error_not_nan(tmp_path, capsys):
    # finite parameters whose forward pass overflows float64
    graph = tmp_path / "p4.json"
    graph.write_text('{"n":4,"edges":[[0,1],[1,2],[2,3]]}')
    named = build_forward_model(load_graph(graph.read_text()), ForwardConfig(k=2)).named()
    for name, arr in named:
        if name.startswith("layers.") and name.endswith(".fuse_mlp.w1"):
            arr[...] = -1e200
    params = tmp_path / "big.bin"
    with params.open("wb") as fh:
        save_parameters(fh, named)
    code, out, err = run_cli(capsys, "forward", str(graph), "--k", "2", "--load-params", str(params))
    assert (code, out) == (2, "")
    assert err.startswith("RangeError: ") and err.count("\n") == 1


def test_overflowing_initial_state_is_a_range_error(tmp_path, capsys):
    # finite encoder weights whose product overflows float64 in init_state
    graph = tmp_path / "p4.json"
    graph.write_text('{"n":4,"edges":[[0,1],[1,2],[2,3]]}')
    named = build_forward_model(load_graph(graph.read_text()), ForwardConfig(k=2)).named()
    dict(named)["encoder.weight"][...] = 1.7e308
    params = tmp_path / "huge.bin"
    with params.open("wb") as fh:
        save_parameters(fh, named)
    code, out, err = run_cli(capsys, "forward", str(graph), "--k", "2", "--load-params", str(params))
    assert (code, out) == (2, "")
    assert err.startswith("RangeError: state contains non-finite entries") and err.count("\n") == 1


def test_sample_masked_files(p2_file, tmp_path, capsys):
    out = tmp_path / "masked"
    code, stdout, _ = run_cli(capsys, "sample", p2_file, "--ratio", "0.5", "--seed", "3",
                              "--out", str(out))
    assert code == 0
    sampled = {int(x) for x in stdout.splitlines()[0].split()}
    assert len(sampled) == 1
    external = read_coo((out / "external.coo").read_text())
    assert external.nnz == 0  # external edges always cross subgraphs
    internal = read_coo((out / "internal.coo").read_text())
    s = next(iter(sampled))
    assert entry_set(internal) == {(s * 2, s * 2 + 1), (s * 2 + 1, s * 2)}


def test_sample_is_seed_deterministic(p2_file, capsys):
    _, out1, _ = run_cli(capsys, "sample", p2_file, "--ratio", "0.5", "--seed", "3")
    _, out2, _ = run_cli(capsys, "sample", p2_file, "--ratio", "0.5", "--seed", "3")
    assert out1 == out2


OUTPUT_DIGESTS = {
    "k2/external.coo": "12dc71f028b49f48f4878b59a6388733b8e58b6d9b89e099051b35c1f690360c",
    "k2/internal.coo": "3ff5db5c81c2778c7a0bdae2b89478e11dae637f0b579a863a570b3085c42b85",
    "k2/point.coo": "4cf5ac695a1c9ec97a5120217f429844e397734d8d99e9961d9f94294d8990c9",
    "k3/point1.coo": "6aaca65db6270b8b8284e0affdcba8debafed367f732d792a442a64887893a4d",
    "k3/point2.coo": "f83f21d8f476b5589e2a619e97a544ee3ab93e735fbc6533a371c620f3591494",
    "k3/point3.coo": "37c4a1093adbbbb62143c42b948b18aec6e74409cec34eaf074d32a81808719b",
    "k3/slot0.coo": "349f2288487b2e6b98a6e7bbd6e130522cf14c940bf3996f56d7f8a90089b3f2",
    "k3/slot1.coo": "569d71382835949782bada2967ab32f6b2def8c74d605d6db2be3b35ace1459d",
    "k3/slot2.coo": "127092ca54cb096e4ace0301bd5fecf86c323a1745b5e789b4f129d866fff487",
    "k3/union.coo": "3a3af7f3bdc6586641e255423be9f942e8010df5b8db37020a269bb1b54bb01d",
    "s/external.coo": "f0b50d3b9f22058243f36a87a78cad4d349e878e2d74d26da8d5d32eb470665b",
    "s/internal.coo": "520ba33a0fea32d09a9714c11b8978a3dca2aed892c94286234c9cf842e77f40",
    "s/point.coo": "aecf7835c1b34dc80768c58666d808360030917c28834777518df0c1bf570e0f",
}


def test_output_files_are_pinned_by_digest(tmp_path, capsys):
    # a 7-node graph with an isolated node (6); the sample keeps 5 of 7 subgraphs
    graph = tmp_path / "g.json"
    graph.write_text('{"n":7,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],[1,4]]}')
    for order in ("2", "3"):
        code, _, _ = run_cli(capsys, "build-product", str(graph), "--tuple-order", order,
                             "--include-point", "--out", str(tmp_path / f"k{order}"))
        assert code == 0
    code, stdout, _ = run_cli(capsys, "sample", str(graph), "--ratio", "0.6", "--seed", "1",
                              "--out", str(tmp_path / "s"))
    assert code == 0
    assert stdout.splitlines()[0] == "0 1 3 4 6"
    written = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.rglob("*.coo")}
    assert written == OUTPUT_DIGESTS


def test_pe_output_independent_of_sampling(p2_file, tmp_path, capsys):
    pe1 = tmp_path / "pe1.txt"
    pe2 = tmp_path / "pe2.txt"
    run_cli(capsys, "pe", p2_file, "--k", "4", "--out", str(pe1))
    run_cli(capsys, "forward", p2_file, "--k", "4", "--sample-ratio", "0.5")
    run_cli(capsys, "pe", p2_file, "--k", "4", "--out", str(pe2))
    assert pe1.read_bytes() == pe2.read_bytes()


def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "mark", "/nonexistent/graph.json")
    assert code == 2


def _child_env():
    """The environment of a child that imports the same prodgraph as this
    process, installed or not."""
    src = str(Path(prodgraph.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_cli_subprocess_byte_determinism(p2_file):
    cmd = [sys.executable, "-m", "prodgraph", "forward", p2_file, "--k", "4", "--seed", "5"]
    env = _child_env()
    a = subprocess.run(cmd, capture_output=True, env=env)
    b = subprocess.run(cmd, capture_output=True, env=env)
    assert a.returncode == 0
    assert a.stdout == b.stdout


def _limit_address_space():
    # a regression that allocates per node then fails fast instead of
    # filling the machine's memory
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


HUGE_GRAPH_ARGV = [
    ("forward",), ("pe", "--k", "4"), ("mark",), ("sample", "--ratio", "0.5", "--out", "s"),
    ("build-product", "--out", "b"),
]


def _run_on_huge_graph(tmp_path, argv, n):
    """Run a subcommand on a graph of n nodes and one edge under a 2 GB
    address-space limit; it must exit 2 with one line and write nothing."""
    graph = tmp_path / "huge.json"
    graph.write_text(f'{{"n": {n}, "edges": [[0, 1]]}}')
    cmd = [sys.executable, "-m", "prodgraph", argv[0], str(graph), *argv[1:]]
    env = {**_child_env(), "OPENBLAS_NUM_THREADS": "1"}  # BLAS thread buffers stay inside the limit
    done = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=tmp_path,
                          timeout=60, preexec_fn=_limit_address_space)
    assert done.returncode == 2, done.stderr
    assert done.stderr.count("\n") == 1, done.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.json"]
    return done.stderr


@pytest.mark.parametrize("argv", HUGE_GRAPH_ARGV)
def test_impossible_node_count_is_input_error(tmp_path, argv):
    # n^2 overflows int64, so no product-node index exists; each subcommand
    # must refuse the graph on loading, before it allocates anything
    assert _run_on_huge_graph(tmp_path, argv, 10**12).startswith("ScaleError:")


@pytest.mark.parametrize("argv", HUGE_GRAPH_ARGV)
def test_unaddressable_node_count_is_input_error(tmp_path, argv):
    # n^2 fits int64, but an n x n int64 matrix (8 n^2 bytes) is not
    # addressable: the dense builders refuse it, the rest run out of memory
    err = _run_on_huge_graph(tmp_path, argv, 2 * 10**9)
    assert err.startswith(("ScaleError:", "MemoryError:")), err
    if argv[0] in ("pe", "mark"):
        assert err.startswith("ScaleError:"), err


ONE_NODE_JSON = '{"n":1,"edges":[]}'


@pytest.mark.parametrize("graph, argv", [
    (P2_JSON, ("pe", "--k", "5", "--variant", f"tuple:{10**20}")),
    (P2_JSON, ("build-product", "--tuple-order", str(10**20), "--out", "b")),
    (ONE_NODE_JSON, ("pe", "--k", "1", "--variant", "tuple:65")),
    (ONE_NODE_JSON, ("build-product", "--tuple-order", "13", "--out", "b")),
], ids=["pe-10^20", "build-product-10^20", "pe-one-node-65", "build-product-one-node-13"])
def test_tuple_order_is_bounded_before_the_power(tmp_path, graph, argv):
    # K > log2(MAX_DENSE_PRODUCT_NODES) is refused before n^K is computed,
    # which for K = 10^20 would run without bound
    path = tmp_path / "g.json"
    path.write_text(graph)
    cmd = [sys.executable, "-m", "prodgraph", argv[0], str(path), *argv[1:]]
    done = subprocess.run(cmd, capture_output=True, text=True, env=_child_env(), cwd=tmp_path,
                          timeout=60, preexec_fn=_limit_address_space)
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert done.stderr.startswith("ScaleError: tuple order") and done.stderr.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json"]


def test_model_larger_than_memory_is_refused_before_drawing(p2_file, tmp_path):
    # 10^8 layers of about 6.7 KB each: the total is refused before the
    # first block is drawn, so the child neither grows nor takes long
    cmd = [sys.executable, "-m", "prodgraph", "forward", p2_file, "--layers", str(10**8)]
    done = subprocess.run(cmd, capture_output=True, text=True, env=_child_env(), cwd=tmp_path,
                          timeout=60, preexec_fn=_limit_address_space)
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert done.stderr.startswith("ScaleError: the model's") and done.stderr.count("\n") == 1


@pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 7.28 TiB")])
def test_memory_error_is_input_error(p2_file, capsys, monkeypatch, exc):
    def fail(g):
        raise exc
    monkeypatch.setattr("prodgraph.cli.node_mark_indices", fail)
    code, out, err = run_cli(capsys, "mark", p2_file)
    assert code == 2 and out == ""
    assert err.startswith("MemoryError: ") and err.count("\n") == 1 and len(err) > 15


def test_verify_quick_passes(capsys):
    code, stdout, _ = run_cli(capsys, "verify", "--scale", "quick")
    assert code == 0
    lines = [ln for ln in stdout.splitlines() if ln.startswith("[")]
    assert len(lines) == 24
    assert all(ln.startswith("[PASS]") for ln in lines)


def test_verify_rejects_jobs_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--jobs", "4"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
