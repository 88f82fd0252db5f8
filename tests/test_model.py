import hashlib
import io
import json
import math
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from prodgraph import (
    AttentionParams,
    EncoderParams,
    Graph,
    KronAdjacency,
    MLPParams,
    ParseError,
    PEMatrix,
    Pipeline,
    ProductState,
    RangeError,
    RGCNParams,
    SABParams,
    ScaleError,
    ShapeMismatch,
    build_product_bundle,
    concatenation_pe,
    dense_adjacency,
    external_adjacency,
    grad_check,
    init_state,
    internal_adjacency,
    kron,
    load_parameters,
    node_mark_indices,
    point_adjacency,
    point_update,
    product_pe,
    random_graph,
    rgcn_layer,
    save_parameters,
    sparse_attention,
)
from prodgraph import model as model_module
from prodgraph.graphs import complete_graph, load_graph, path_graph
from prodgraph.model import (
    ForwardConfig,
    ForwardModel,
    _attention_backward,
    _attention_forward,
    _mlp_backward,
    _mlp_forward,
    _named,
    _point_forward,
    _sab_backward_raw,
    _sab_forward_raw,
    _uniform_array,
    build_forward_model,
    run_forward,
)
from prodgraph.product import SamplingMask, product_permutation, restrict_adjacency, restrict_rows
from prodgraph.rng import SplitMix64
from prodgraph.verify import (
    ISOLATED_NODE_GRAPH,
    ISOLATED_NODE_MASK,
    dense_attention_oracle,
    dense_point_oracle,
    dense_rgcn_oracle,
)
from helpers import concatenated_mlp, concatenated_mlp_backward, concatenated_state, entry_set, traced_peak

P2 = path_graph(2)
K3 = complete_graph(3)


def random_state(rows, d, seed):
    rng = SplitMix64(seed)
    return np.array([[rng.uniform(-1.0, 1.0) for _ in range(d)] for _ in range(rows)])


def identity_mlp(d):
    """relu(x) - relu(-x) = x: an MLP that is exactly the identity."""
    eye = np.eye(d)
    return MLPParams(
        w1=np.hstack([eye, -eye]),
        b1=np.zeros(2 * d),
        w2=np.vstack([eye, -eye]),
        b2=np.zeros(d),
    )


def zero_sab_params(d, heads=4, with_bias=None):
    rng = SplitMix64(0)
    params = SABParams.from_rng(d, d, rng, heads=heads)
    for _, arr in params.named("p"):
        arr.reshape(-1)[...] = 0.0
    if with_bias is not None:
        params.fuse_mlp.b2[...] = with_bias
    return params


def pipeline_on(g, layers, pool_mlp, variant="sum_sum"):
    """A Pipeline over g's product bundle; pooling tests pass no layers."""
    bundle = build_product_bundle(g)
    return Pipeline(bundle.internal, bundle.external, bundle.point, g.n, layers, pool_mlp, variant)


# --- sparse attention ------------------------------------------------------


def test_attention_singleton_neighborhood_is_value_projection():
    # a perfect matching: every row has exactly one in-neighbour along either
    # axis, so its softmax weight is 1 and it emits that neighbour's value
    g = Graph(n=4, edges=frozenset({(0, 2), (1, 3)}))
    bundle = build_product_bundle(g)
    params = AttentionParams.from_rng(5, 8, 4, SplitMix64(1))
    x = random_state(16, 5, seed=2)
    values = x @ params.w_value
    for adj, coo in ((bundle.internal, internal_adjacency(g)), (bundle.external, external_adjacency(g))):
        out = sparse_attention(ProductState(x=x), adj, params, heads=4)
        for (r, c) in entry_set(coo):
            assert np.abs(out[r] - values[c]).max() <= 1e-14


def test_attention_identical_features_give_uniform_weights():
    g = complete_graph(4)
    adj = build_product_bundle(g).internal
    x = np.tile(random_state(1, 6, seed=3), (16, 1))
    rng = SplitMix64(4)
    params = AttentionParams.from_rng(6, 8, 4, rng)
    out = sparse_attention(ProductState(x=x), adj, params, heads=4)
    values = x @ params.w_value
    # uniform alpha over identical values reproduces any neighbor's value row
    assert np.abs(out[0] - values[0]).max() <= 1e-12


def test_attention_empty_rows_emit_zeros():
    g = path_graph(3)  # nodes 0-1-2; node pairs without edges stay empty
    adj = build_product_bundle(g).internal
    x = random_state(9, 4, seed=5)
    rng = SplitMix64(6)
    params = AttentionParams.from_rng(4, 4, 2, rng)
    out = sparse_attention(ProductState(x=x), adj, params, heads=2)
    rows_with_edges = set(internal_adjacency(g).entries[:, 0].tolist())
    for r in range(9):
        if r not in rows_with_edges:
            assert not out[r].any()
    # an edgeless base graph leaves every row empty and must not poison anything
    x2 = random_state(4, 4, seed=7)
    none = build_product_bundle(Graph(n=2, edges=frozenset()))
    for adj in (none.internal, none.external):
        assert not sparse_attention(ProductState(x=x2), adj, params, heads=2).any()


def test_attention_matches_dense_oracle():
    for seed in range(20):
        n = 2 + seed % 4
        g = random_graph(n, 0.5, seed=seed)
        rng = SplitMix64(seed + 10)
        params = AttentionParams.from_rng(6, 8, 4, rng)
        x = random_state(n * n, 6, seed=seed + 30)
        bundle = build_product_bundle(g)
        for adj, coo in ((bundle.internal, internal_adjacency(g)),
                         (bundle.external, external_adjacency(g))):
            sparse = sparse_attention(ProductState(x=x), adj, params, heads=4)
            dense = dense_attention_oracle(x, coo.to_dense(), params)
            assert np.abs(sparse - dense).max() <= 1e-12
        # the K = 3 slots: the same kernel along another axis of the n^3 grid
        x3, a = random_state(n ** 3, 6, seed=seed + 60), dense_adjacency(g)
        for j in range(3):
            slot = KronAdjacency(*g.directed_edges, j, (n,) * 3)
            dense = dense_attention_oracle(x3, kron(kron(np.eye(n ** j), a), np.eye(n ** (2 - j))), params)
            assert np.abs(_attention_forward(x3, slot, params) - dense).max() <= 1e-12


def test_pipeline_refuses_edge_types_off_its_grid():
    # a node count the edge types do not carry used to run: n = 7 on this
    # 4-node bundle moved the mean_sum output by 0.11
    bundle = build_product_bundle(path_graph(4))
    model = build_forward_model(path_graph(4), ForwardConfig(layers=1))
    parts = (model.layers, model.pool_mlp, "mean_sum")
    Pipeline(bundle.internal, bundle.external, bundle.point, 4, *parts)
    with pytest.raises(ShapeMismatch):
        Pipeline(bundle.internal, bundle.external, bundle.point, 7, *parts)
    with pytest.raises(ShapeMismatch):
        Pipeline(bundle.internal, build_product_bundle(path_graph(5)).external, bundle.point, 4, *parts)
    sampled = restrict_adjacency(bundle.internal, SamplingMask(n=4, sampled=(0, 2)))
    with pytest.raises(ShapeMismatch):
        Pipeline(sampled, bundle.external, bundle.point, 4, *parts)


def test_attention_shape_mismatch():
    params = AttentionParams.from_rng(6, 8, 4, SplitMix64(0))
    internal = build_product_bundle(P2).internal
    x = random_state(4, 5, seed=1)
    with pytest.raises(ShapeMismatch):
        sparse_attention(ProductState(x=x), internal, params, heads=4)
    # a state with rows for another grid is refused
    with pytest.raises(ShapeMismatch):
        sparse_attention(ProductState(x=random_state(9, 6, seed=1)), internal, params, heads=4)
    # the head count is the parameters'; a heads argument that disagrees is refused
    x = random_state(4, 6, seed=1)
    for heads in (1, 2, 3, 8):
        with pytest.raises(ShapeMismatch):
            sparse_attention(ProductState(x=x), internal, params, heads=heads)


# --- point update -----------------------------------------------------------


def point_of(n):
    return build_product_bundle(path_graph(n)).point


def test_point_update_formula_is_uniform_at_roots():
    # with eps = -1 the self term cancels and the root row passes through
    n = 3
    x = random_state(n * n, 4, seed=11)
    out = point_update(ProductState(x=x), point_of(n), -1.0, identity_mlp(4))
    for v in range(n):
        root = v * n + v
        assert np.abs(out[root] - x[root]).max() <= 1e-14  # (1-1)X + X at roots


def test_point_update_identity_mlp_eps_zero():
    n = 3
    x = random_state(n * n, 4, seed=12)
    out = point_update(ProductState(x=x), point_of(n), 0.0, identity_mlp(4))
    assert np.abs(out - (x + point_adjacency(n).to_dense() @ x)).max() <= 1e-14


def test_point_update_matches_dense_oracle():
    for seed in range(10):
        n = 2 + seed % 3
        rng = SplitMix64(seed)
        mlp = MLPParams.from_rng(4, 6, 5, rng)
        eps = rng.uniform(-0.5, 0.5)
        x = random_state(n * n, 4, seed=seed + 50)
        out = point_update(ProductState(x=x), point_of(n), eps, mlp)
        dense = dense_point_oracle(x, point_adjacency(n).to_dense(), eps, mlp)
        assert np.abs(out - dense).max() <= 1e-12


def test_point_message_under_sampling():
    # in a sampled system, row (s, v) reads root row (v, v) when subgraph v
    # was sampled and gets no point message when it was not; subgraph 2 of
    # ISOLATED_NODE_GRAPH is left out
    n = ISOLATED_NODE_GRAPH.n
    kept = ISOLATED_NODE_MASK.sampled
    rank = {s: i for i, s in enumerate(kept)}
    full, x0 = make_pipeline(ISOLATED_NODE_GRAPH, seed=7)
    pipe, x = full.sampled(ISOLATED_NODE_MASK), restrict_rows(x0, ISOLATED_NODE_MASK)
    assert pipe.point.nnz == len(kept) ** 2
    out = point_update(ProductState(x=x), pipe.point, 0.25, identity_mlp(4))
    for s in kept:
        for v in range(n):
            row = rank[s] * n + v
            if v in rank:
                assert np.array_equal(out[row], 1.25 * x[row] + x[rank[v] * n + v])
            else:
                assert np.array_equal(out[row], 1.25 * x[row])


# --- SAB forward ------------------------------------------------------------


def test_sab_zero_weights():
    x = random_state(4, 4, seed=13)
    out = pipeline_on(P2, [zero_sab_params(4)], identity_mlp(4)).stack(x)
    assert not out.any()
    biased = pipeline_on(P2, [zero_sab_params(4, with_bias=2.5)], identity_mlp(4)).stack(x)
    assert np.abs(biased - 2.5).max() == 0.0  # constant rows with bias


def test_sab_golden_p2():
    # reference run pinned at the first correct build (seed 42, d = 4)
    rng = SplitMix64(42)
    params = SABParams.from_rng(4, 4, rng)
    x0 = np.array([[rng.uniform(-1.0, 1.0) for _ in range(4)] for _ in range(4)])
    out = pipeline_on(P2, [params], identity_mlp(4)).stack(x0)
    golden = np.array(
        [
            [-0.3473828393775458, -0.1603411238727743, 0.6737755799488487, 0.29212997992926715],
            [-0.41866679159588044, -0.3086526388381765, 0.49030106922545025, 0.3320667935107056],
            [-0.381271677020055, -0.26257772132974805, 0.5495999978325594, 0.2925838657929616],
            [-0.38361623964484964, -0.34481193109625485, 0.4715261244678642, 0.2902069521521371],
        ]
    )
    assert np.isfinite(out).all()
    assert np.abs(out - golden).max() <= 1e-12


@pytest.mark.parametrize("widths", [(8,), (8, 8, 8), (3, 1, 5)])
def test_mlp_of_column_blocks_matches_concatenated_mlp(widths):
    # the fuse MLP reads its three branches as column blocks, never as one
    # (rows, 3d) array; one block is the concatenated MLP bit for bit
    rng = SplitMix64(sum(widths))
    p = MLPParams.from_rng(sum(widths), 6, 5, rng)
    parts = [random_state(40, w, seed=90 + w + i) for i, w in enumerate(widths)]
    dy = random_state(40, 5, seed=99)
    y = _mlp_forward(parts, p)  # the backward takes the same blocks again
    want_y, want_cache = concatenated_mlp(parts, p)
    dh, grads = _mlp_backward(dy, parts, p)
    dx = np.hstack([dh @ w1.T for w1 in np.split(p.w1, np.cumsum(widths)[:-1])])
    want_dx, want_grads = concatenated_mlp_backward(dy, want_cache, p)
    pairs = [(y, want_y), (dx, want_dx)]
    pairs += [(getattr(grads, f.name), getattr(want_grads, f.name)) for f in fields(MLPParams)]
    for got, want in pairs:
        assert got.shape == want.shape
        if len(widths) == 1:
            assert got.tobytes() == want.tobytes()
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def _cache_buffers(node, owners: dict) -> dict:
    """The arrays reachable from a cache through lists and tuples, each
    resolved to the array that owns its memory, keyed by identity."""
    if isinstance(node, (list, tuple)):
        for child in node:
            _cache_buffers(child, owners)
    elif isinstance(node, np.ndarray):
        while isinstance(node.base, np.ndarray):
            node = node.base
        owners[id(node)] = node
    return owners


def test_layer_caches_hold_only_what_the_backward_cannot_rebuild():
    # per layer exactly three (rows, d) arrays: its input and the two
    # attention outputs.  The softmax weights and sign masks, the values,
    # the point branch's output and MLP input, both MLPs' activations and a
    # (rows, 3d) fuse input are rebuilt by the backward or never formed.
    pipe, x0 = sampled_g6_system()
    caches: list = []
    pipe._layers(x0, caches)
    rows, d = x0.shape
    assert len(caches) == len(pipe.layers) == 2
    for cache in caches:
        assert [(a.shape, a.dtype.str) for a in cache] == [((rows, d), "<f8")] * 3
        # and no entry is a view that keeps a larger buffer alive
        assert sorted(a.nbytes for a in _cache_buffers(cache, {}).values()) == [rows * d * 8] * 3


def test_sab_permutation_equivariance():
    n = 4
    g = random_graph(n, 0.5, seed=21)
    rng = SplitMix64(22)
    params = SABParams.from_rng(4, 4, rng)
    x = random_state(n * n, 4, seed=23)
    out = pipeline_on(g, [params], identity_mlp(4)).stack(x)
    from prodgraph import permute_graph, random_permutation

    perm = random_permutation(n, seed=24)
    pp = product_permutation(perm)
    x_p = np.empty_like(x)
    x_p[pp] = x
    out_p = pipeline_on(permute_graph(g, perm), [params], identity_mlp(4)).stack(x_p)
    expected = np.empty_like(out)
    expected[pp] = out
    assert np.abs(out_p - expected).max() <= 1e-10


# --- pooling ----------------------------------------------------------------


def test_pool_zero_state():
    mlp = MLPParams.from_rng(4, 4, 4, SplitMix64(31))
    x = np.zeros((4, 4))
    out = pipeline_on(P2, [], mlp).pooled(x)
    h = np.maximum(mlp.b1, 0.0)
    assert np.abs(out - (h @ mlp.w2 + mlp.b2)).max() <= 1e-15


def test_pool_variants_differ_by_factor_n():
    n = 3
    x = np.ones((9, 4))
    mlp = identity_mlp(4)
    s = pipeline_on(path_graph(n), [], mlp, "sum_sum").pooled(x)
    m = pipeline_on(path_graph(n), [], mlp, "mean_sum").pooled(x)
    assert np.abs(s - n * m).max() <= 1e-12


def test_pool_rejects_unknown_variant():
    mlp = identity_mlp(4)
    with pytest.raises(ShapeMismatch):  # at construction, before any forward
        pipeline_on(P2, [], mlp, "max")
    pipe = pipeline_on(P2, [], mlp)
    pipe.variant = "max"
    with pytest.raises(ShapeMismatch):  # and at a forward after an assignment
        pipe.pooled(np.zeros((4, 4)))


def test_pool_gradient_without_layers_is_a_writable_dx0():
    mlp = MLPParams.from_rng(4, 4, 4, SplitMix64(53))
    x0 = random_state(9, 4, seed=54)
    for variant, divisor in (("sum_sum", 1), ("mean_sum", 3)):
        pipe = pipeline_on(path_graph(3), [], mlp, variant)
        _, _, dx0 = pipe.loss_and_grads(x0)
        assert dx0.shape == x0.shape and dx0.flags.writeable
        # every row gets the pool MLP's input gradient, divided by the divisor
        h = (x0.sum(axis=0) / divisor) @ mlp.w1 + mlp.b1
        want = ((mlp.w2.sum(axis=1) * (h > 0.0)) @ mlp.w1.T) / divisor
        assert np.abs(dx0 - want).max() <= 1e-12
        before = dx0.tobytes()
        dx0 += 1.0  # the caller owns it: the next step's dx0 is unchanged
        assert pipe.loss_and_grads(x0)[2].tobytes() == before


# --- RGCN -------------------------------------------------------------------


def test_rgcn_identity():
    bundle = build_product_bundle(K3)
    x = random_state(9, 4, seed=41)
    params = RGCNParams(
        w_self=np.eye(4), w_internal=np.zeros((4, 4)),
        w_external=np.zeros((4, 4)), w_point=np.zeros((4, 4)),
    )
    out = rgcn_layer(ProductState(x=x), bundle, params).x
    assert np.array_equal(out, x)


def test_rgcn_block_weights_concatenate():
    n = 3
    g = random_graph(n, 0.6, seed=42)
    bundle = build_product_bundle(g)
    d = 4
    x = random_state(n * n, d, seed=43)
    eye = np.eye(d)
    zeros = np.zeros((d, d))
    params = RGCNParams(
        w_self=np.hstack([eye, zeros, zeros, zeros]),
        w_point=np.hstack([zeros, eye, zeros, zeros]),
        w_internal=np.hstack([zeros, zeros, eye, zeros]),
        w_external=np.hstack([zeros, zeros, zeros, eye]),
    )
    out = rgcn_layer(ProductState(x=x), bundle, params).x
    expected = np.hstack([x, point_adjacency(n).to_dense() @ x,
                          internal_adjacency(g).to_dense() @ x, external_adjacency(g).to_dense() @ x])
    assert np.abs(out - expected).max() == 0.0


def test_rgcn_matches_dense_oracle():
    for seed in range(10):
        n = 2 + seed % 4
        g = random_graph(n, 0.5, seed=seed + 60)
        bundle = build_product_bundle(g)
        params = RGCNParams.from_rng(5, 7, SplitMix64(seed))
        x = random_state(n * n, 5, seed=seed + 70)
        out = rgcn_layer(ProductState(x=x), bundle, params).x
        dense = dense_rgcn_oracle(
            x,
            internal_adjacency(g).to_dense(),
            external_adjacency(g).to_dense(),
            point_adjacency(n).to_dense(),
            params,
        )
        assert np.abs(out - dense).max() <= 1e-12


# --- gradient checking ------------------------------------------------------


def make_pipeline(g, seed, d=4, layers=1, variant="sum_sum"):
    rng = SplitMix64(seed)
    layer_params = [SABParams.from_rng(d, d, rng) for _ in range(layers)]
    pool_mlp = MLPParams.from_rng(d, d, d, rng)
    x0 = random_state(g.n * g.n, d, seed=seed + 1000)
    return pipeline_on(g, layer_params, pool_mlp, variant), x0


def test_grad_check_linear_pipeline_is_exact():
    # no SAB layers; pool MLP with ReLU forced active is affine per parameter
    mlp = MLPParams.from_rng(4, 4, 4, SplitMix64(51))
    mlp.b1[...] = 10.0  # pre-activations strictly positive for this state
    pipe = pipeline_on(P2, [], mlp)
    x0 = random_state(4, 4, seed=52)
    report = grad_check(pipe, x0)
    assert report.passed
    assert report.max_rel_error <= 1e-9


def test_grad_check_full_sab_on_p2():
    pipe, x0 = make_pipeline(P2, seed=0, layers=2)
    report = grad_check(pipe, x0)
    assert report.passed
    assert report.max_rel_error <= 1e-4


def test_grad_check_flags_corrupted_gradient():
    pipe, x0 = make_pipeline(P2, seed=1)
    original = pipe.loss_and_grads

    def corrupted(x):
        loss, grads, dx = original(x)
        grads["layers.0.fuse_mlp.w2"] = grads["layers.0.fuse_mlp.w2"] * 2.0
        return loss, grads, dx

    pipe.loss_and_grads = corrupted
    report = grad_check(pipe, x0)
    assert not report.passed
    assert report.worst_parameter == "layers.0.fuse_mlp.w2"


def test_grad_check_flags_corrupted_input_gradient():
    pipe, x0 = make_pipeline(P2, seed=1)
    original = pipe.loss_and_grads

    def corrupted(x):
        loss, grads, dx = original(x)
        dx = dx.copy()
        dx[2, 1] *= 2.0
        return loss, grads, dx

    pipe.loss_and_grads = corrupted
    report = grad_check(pipe, x0)
    assert not report.passed
    assert (report.worst_parameter, report.worst_index) == ("x0", (2, 1))


def test_grad_check_seeds_and_graphs():
    for g in (P2, path_graph(4), K3):
        for seed in range(2):
            pipe, x0 = make_pipeline(g, seed)
            assert grad_check(pipe, x0).passed


def test_grad_check_rejects_non_finite_gradient():
    from prodgraph import NonFiniteGradient

    pipe, x0 = make_pipeline(P2, seed=2)
    original = pipe.loss_and_grads

    def poisoned(x):
        loss, grads, dx = original(x)
        grads["pool_mlp.w1"] = grads["pool_mlp.w1"] * np.nan
        return loss, grads, dx

    pipe.loss_and_grads = poisoned
    with pytest.raises(NonFiniteGradient):
        grad_check(pipe, x0)


def test_grad_check_sampled_system_with_empty_rows():
    full, x0 = make_pipeline(ISOLATED_NODE_GRAPH, seed=3, layers=2)
    pipe, x0 = full.sampled(ISOLATED_NODE_MASK), restrict_rows(x0, ISOLATED_NODE_MASK)
    ones = np.ones((x0.shape[0], 1))
    for received in (pipe.internal.neighbor_sum(ones), pipe.external.neighbor_sum(ones),
                     pipe.point.gather(ones)):  # some rows lack in-neighbors
        assert 0 < np.count_nonzero(received) < x0.shape[0]
    report = grad_check(pipe, x0)
    assert report.passed
    assert report.max_rel_error <= 1e-4


def test_grad_check_mean_sum_sampled_system():
    full, x0 = make_pipeline(ISOLATED_NODE_GRAPH, seed=3, layers=2, variant="mean_sum")
    report = grad_check(full.sampled(ISOLATED_NODE_MASK), restrict_rows(x0, ISOLATED_NODE_MASK))
    assert report.passed
    assert report.max_rel_error <= 1e-4


def test_public_ops_take_a_sampled_product_state():
    # 3 of 7 subgraphs: 21 rows, which is no square
    g = random_graph(7, 0.45, seed=5)
    full, x = make_pipeline(g, seed=9)
    mask = SamplingMask(n=7, sampled=(1, 2, 5))
    pipe, x = full.sampled(mask), restrict_rows(x, mask)
    assert x.shape[0] == 21
    layer = pipe.layers[0]
    state = ProductState(x=x)
    for adj, params in ((pipe.internal, layer.internal), (pipe.external, layer.external)):
        want = _attention_forward(x, adj, params)
        assert np.array_equal(sparse_attention(state, adj, params, heads=layer.heads), want)
    want = _point_forward(x, pipe.point, layer.epsilon, layer.point_mlp)
    assert np.array_equal(point_update(state, pipe.point, float(layer.epsilon), layer.point_mlp), want)


G6 = '{"n":6,"edges":[[0,1],[1,2],[2,3],[3,4],[1,4],[4,5],[0,2]]}'
SAMPLED_GRADS_GOLDEN = Path(__file__).with_name("golden_sampled_grads.json")


def sampled_g6_system():
    """What `prodgraph forward g6 --sample-ratio 0.5 --sample-seed 3` runs:
    k = 4, seed 0, 2 layers, d = 8, 4 heads, 3 of the 6 subgraphs kept."""
    g = load_graph(G6)
    cfg = ForwardConfig(sample_ratio=0.5, sample_seed=3)
    params = build_forward_model(g, cfg)
    state = init_state(g, product_pe(g, cfg.k), node_mark_indices(g), params.mark_table,
                       params.encoder)
    full = pipeline_on(g, params.layers, params.pool_mlp, cfg.pool_variant)
    mask = SamplingMask.from_ratio(g.n, cfg.sample_ratio, SplitMix64(cfg.sample_seed))
    return full.sampled(mask), restrict_rows(state.x, mask)


def test_sampled_gradients_golden():
    # every gradient, captured with the per-edge score gathers and np.add.at
    # scatters that preceded the per-node kernels; some w_query entries are
    # ~1e-20 rounding noise, so the bound is relative to the largest gradient
    # entry over all parameters
    pipe, x0 = sampled_g6_system()
    loss, grads, dx0 = pipe.loss_and_grads(x0)
    golden = json.loads(SAMPLED_GRADS_GOLDEN.read_text())
    assert sorted(grads) == sorted(golden["grads"]) == sorted(n for n, _ in pipe.named_arrays())
    bound = 1e-12 * max(np.abs(np.array(g)).max() for g in golden["grads"].values())
    assert abs(loss - golden["loss"]) <= 1e-12 * abs(golden["loss"])
    for name, want in golden["grads"].items():
        want = np.array(want)
        assert grads[name].shape == want.shape, name
        assert np.abs(grads[name] - want).max() <= bound, name
    assert np.abs(dx0 - np.array(golden["dx0"])).max() <= bound


def test_loss_is_the_loss_of_loss_and_grads_bitwise():
    sampled = sampled_g6_system()
    unsampled = make_pipeline(path_graph(4), seed=4, layers=2)
    for pipe, x0 in (sampled, unsampled):
        loss = pipe.loss(x0)
        assert np.isfinite(loss)
        assert loss == pipe.loss_and_grads(x0)[0]


def test_backward_consumes_its_caches_and_steps_repeat_bitwise():
    pipe, x0 = sampled_g6_system()
    layer, adjs = pipe.layers[0], (pipe.internal, pipe.external, pipe.point)
    x_bytes = x0.tobytes()
    _, cache = _sab_forward_raw(x0, *adjs, layer)
    _sab_backward_raw(random_state(x0.shape[0], 8, seed=5), cache, *adjs, layer)
    assert cache == []  # emptied, so each array goes once nothing reads it
    # the attention backward rebuilds its weights from its inputs, so two
    # backwards from the same inputs agree to the byte and write no input
    dout = random_state(x0.shape[0], 8, seed=6)
    runs = []
    for _ in range(2):
        dx = np.zeros_like(x0)
        grads = _attention_backward(dout, x0, pipe.internal, layer.internal, dx)
        runs.append([dx.tobytes()] + [a.tobytes() for _, a in _named(grads)])
    assert runs[0] == runs[1]
    assert x0.tobytes() == x_bytes
    (loss, grads, dx), (loss2, grads2, dx2) = pipe.loss_and_grads(x0), pipe.loss_and_grads(x0)
    assert np.float64(loss).tobytes() == np.float64(loss2).tobytes()
    assert list(grads) == list(grads2)
    assert all(grads[name].tobytes() == grads2[name].tobytes() for name in grads)
    assert dx.tobytes() == dx2.tobytes()


def test_each_attention_quantity_has_one_route(monkeypatch):
    # One score loop, _bucket_weights: the forward uses each degree bucket's
    # weights as they are made, and the backward has them written into edge
    # order with their sign masks (_attention_weights).  Per attention type,
    # layer and bucket, a training step calls it twice and a forward once,
    # and only the backward asks for the mask; a second copy of the loop in
    # either pass leaves its calls missing.  The backward also rebuilds the
    # values with the forward's own function: per type and layer, twice in
    # a step and once in a forward.
    pipe, x0 = sampled_g6_system()
    kinds = {"internal": pipe.internal, "external": pipe.external}
    calls, in_backward = [], []

    def kind_of(adj):
        return next(name for name, a in kinds.items() if a is adj)

    def weights(s_q, s_k, b, out=None, negative=None, fn=model_module._bucket_weights):
        key = next((name, i) for name, a in kinds.items() for i, c in enumerate(a.buckets) if c is b)
        calls.append(("weights", *key, negative is not None, bool(in_backward)))
        return fn(s_q, s_k, b, out, negative)

    def values(x, adj, p, fn=model_module._values):
        calls.append(("values", kind_of(adj)))
        return fn(x, adj, p)

    def backward(*args, fn=model_module._attention_backward):
        in_backward.append(True)
        try:
            return fn(*args)
        finally:
            in_backward.pop()

    monkeypatch.setattr(model_module, "_bucket_weights", weights)
    monkeypatch.setattr(model_module, "_values", values)
    monkeypatch.setattr(model_module, "_attention_backward", backward)
    layers = len(pipe.layers)
    for run, passes in ((pipe.loss_and_grads, (False, True)), (pipe.pooled, (False,))):
        calls.clear()
        run(x0)
        want = {("values", name): layers * len(passes) for name in kinds}
        want.update({("weights", name, i, masked, masked): layers for name, adj in kinds.items()
                     for i in range(len(adj.buckets)) for masked in passes})
        assert {key: calls.count(key) for key in set(calls)} == want, run.__name__


def test_sampled_step_peak_memory():
    # Peak traced bytes of one sampled training step, in units of its input
    # state's bytes: 39.6x when every layer's cache lived until the step
    # returned and the backward copied the softmax weights to edge order,
    # 29.3x with each cache freed once read and dz written over the weights,
    # 28.2x with one edge-order array per attention cache, 18.3x with
    # caches that keep only what the backward cannot rebuild (the layer
    # input, the softmax weights and signs, the fuse input blocks), and
    # 15.5x with the point branch's output rebuilt, the input gradients
    # added in place, the values rebuilt per bucket and the signs packed,
    # and 12.8x with the softmax weights and sign masks rebuilt in each
    # attention backward.  Gathering each bucket's values from the forward's
    # node-major x W_V instead of one W_V product per bucket kept 12.8x: the
    # step peaks in the score-gradient loop, where that array is the size of
    # the node-major x it replaced.  10.6x with channel-major values and
    # upstream gradients, so that a bucket gathers one (r, k, P, heads)
    # channel at a time, and with the fuse MLP's hidden gradient freed once
    # its three input blocks are formed (the layout alone: 11.6x, the freed
    # dh alone: 11.8x).  10.15x with the score gradient's receiver sums
    # formed after the channel-major values and upstream gradient are freed
    # (10.6x when they were filled in the score-gradient loop).  The bound
    # fails a step that lacks any of the three, and leaves 3 % of headroom.
    g = random_graph(48, 4 / 47, seed=3)
    full, x = make_pipeline(g, seed=8, d=8, layers=2)
    mask = SamplingMask.from_ratio(g.n, 0.5, SplitMix64(7))
    pipe, x0 = full.sampled(mask), restrict_rows(x, mask)
    pipe.loss_and_grads(x0)  # builds the degree buckets, which the adjacencies keep
    _, peak = traced_peak(lambda: pipe.loss_and_grads(x0))
    assert peak <= 10.45 * x0.nbytes


@pytest.mark.parametrize("ratio, bound", [(None, 6.4), (0.5, 3.1), (0.05, 0.54)],
                         ids=["unsampled", "ratio-0.5", "ratio-0.05"])
def test_run_forward_peak_memory(ratio, bound):
    # Peak traced bytes of run_forward at n = 200, in units of the n^2-row
    # state's bytes: 8.65x unsampled, 4.17x at ratio 0.5 and 1.95x at
    # ratio 0.05 while the forward wrote each attention call's softmax
    # weights and sign masks into (E, P, heads) arrays in edge order, the
    # encoder read the whole (n^2, k) PE, and the PE and the marks lived
    # through the stack.  7.22x, 3.52x and 1.46x with each degree bucket's
    # weights used as they are made (7.96x without, unsampled), the PE and
    # the marks dropped once the state is built (4.17x without, at 0.5),
    # and the encoder reading the PE's Kronecker factors in blocks of
    # subgraphs (1.96x without, at 0.05, where the state's build sets the
    # peak).  6.22x, 3.02x and 0.53x with the stack handed the only
    # reference to the state, which is freed once layer 0 has run (7.22x
    # and 3.52x without), and the marks and the state built for the
    # sampled subgraphs only (1.46x without, at 0.05).  Each bound fails
    # the forward that lacks its change and leaves about 3 % of headroom.
    n = 200
    g = random_graph(n, 4 / (n - 1), seed=3)
    cfg = ForwardConfig(sample_ratio=ratio)
    params = build_forward_model(g, cfg)
    _, peak = traced_peak(lambda: run_forward(g, cfg, params))
    assert peak <= bound * n * n * cfg.d * 8


def test_full_mask_sampled_system_reproduces_pooled_bitwise():
    for g in (P2, path_graph(4), K3, ISOLATED_NODE_GRAPH):
        for variant in ("sum_sum", "mean_sum"):
            pipe, x0 = make_pipeline(g, seed=5, layers=2, variant=variant)
            mask = SamplingMask.full(g.n)
            restricted, x_r = pipe.sampled(mask), restrict_rows(x0, mask)
            assert np.array_equal(x_r, x0)
            assert restricted.pooled(x_r).tobytes() == pipe.pooled(x0).tobytes()


# --- init state -------------------------------------------------------------


def test_init_state_zero_weights():
    g = P2
    pe = product_pe(g, 2)
    marks = node_mark_indices(g)
    mark_table = np.zeros((3, 4))
    encoder = EncoderParams(weight=np.zeros((1 + 2 + 4, 4)), bias=np.zeros(4))
    state = init_state(g, pe, marks, mark_table, encoder)
    assert not state.x.any()


def test_init_state_composes_parts():
    # encoder that writes [feat, pe, mark-embedding] straight through
    g = P2
    pe = product_pe(g, 1)
    marks = node_mark_indices(g)
    mark_table = np.arange(3.0)[:, None]  # 1-wide embedding = the mark index
    width = 1 + 1 + 1
    encoder = EncoderParams(weight=np.eye(width), bias=np.zeros(width))
    state = init_state(g, pe, marks, mark_table, encoder)
    for s in range(2):
        for v in range(2):
            row = state.x[s * 2 + v]
            assert row[0] == 1.0  # constant feature stand-in
            assert row[1] == pytest.approx(0.5)  # constant eigenvector entry
            assert row[2] == float(marks.dist[s, v])


def test_init_state_feature_rows_indexed_by_node():
    g = random_graph(3, 0.5, seed=71, with_features=2)
    pe = product_pe(g, 2)
    marks = node_mark_indices(g)
    mark_table = np.zeros((4, 1))
    width = 2 + 2 + 1
    encoder = EncoderParams(weight=np.eye(width), bias=np.zeros(width))
    state = init_state(g, pe, marks, mark_table, encoder)
    for s in range(3):
        for v in range(3):
            assert np.array_equal(state.x[s * 3 + v, :2], g.features[v])


def test_init_state_equivariance_given_permuted_inputs():
    from prodgraph import permute_graph, random_permutation

    n = 4
    g = random_graph(n, 0.5, seed=72, with_features=2)
    pe = product_pe(g, 3)
    marks = node_mark_indices(g)
    rng = SplitMix64(73)
    mark_table = _uniform_array(rng, (n + 1, 3), n + 1)
    encoder = EncoderParams.from_rng(2 + 3 + 3, 5, rng)
    state = init_state(g, pe, marks, mark_table, encoder)
    perm = random_permutation(n, seed=74)
    pp = product_permutation(perm)
    gp = permute_graph(g, perm)
    pe_rows = np.empty_like(pe.data)
    pe_rows[pp] = pe.data
    from prodgraph.spectral import PEMatrix

    pe_p = PEMatrix(data=pe_rows, eigenvalues=pe.eigenvalues)
    state_p = init_state(gp, pe_p, node_mark_indices(gp), mark_table, encoder)
    expected = np.empty_like(state.x)
    expected[pp] = state.x
    assert np.abs(state_p.x - expected).max() <= 1e-12


@pytest.mark.parametrize("features", [None, 2, 0], ids=["no-features", "2-features", "0-width"])
def test_init_state_matches_concatenation(features):
    n = 6
    g = random_graph(n, 0.5, seed=75, with_features=features or 0)
    if features == 0:
        g = load_graph(json.dumps({"n": n, "edges": [list(e) for e in sorted(g.edges)],
                                   "features": [[] for _ in range(n)]}))
        assert g.features.shape == (n, 0)
    pe = product_pe(g, 3)
    marks = node_mark_indices(g)
    rng = SplitMix64(76)
    mark_table = _uniform_array(rng, (n + 1, 4), n + 1)
    d_feat = 1 if features is None else features
    encoder = EncoderParams.from_rng(d_feat + 3 + 4, 5, rng)
    x = init_state(g, pe, marks, mark_table, encoder).x
    expected = concatenated_state(g, pe, marks, mark_table, encoder)
    assert x.shape == expected.shape == (n * n, 5)
    assert np.abs(x - expected).max() <= 1e-15 * np.abs(expected).max()


def test_init_state_mark_blocks_match_one_pass_bitwise():
    # 150 subgraphs span two full blocks of mark rows and a partial one
    n = 150
    g = random_graph(n, 3 / (n - 1), seed=77)
    pe, marks = product_pe(g, 3), node_mark_indices(g)
    rng = SplitMix64(78)
    mark_table = _uniform_array(rng, (n + 1, 4), n + 1)
    encoder = EncoderParams.from_rng(1 + 3 + 4, 4, rng)
    w_f, w_pe, w_m = np.split(encoder.weight, [1, 4])
    want = (pe.data @ w_pe).reshape(n, n, 4)
    want += np.ones((n, 1)) @ w_f + encoder.bias
    want += (mark_table @ w_m)[marks.dist]
    assert init_state(g, pe, marks, mark_table, encoder).x.tobytes() == want.tobytes()
    # the PE's expansion, given as data, takes the same block loop as a row slice
    expanded = PEMatrix(data=pe.data, eigenvalues=pe.eigenvalues)
    assert init_state(g, expanded, marks, mark_table, encoder).x.tobytes() == want.tobytes()


def test_sampled_first_state_is_the_restricted_full_state_bitwise():
    # init_state on marks from some subgraphs builds only their rows, and
    # they are restrict_rows of the full state bit for bit: random,
    # disconnected and featured graphs, the isolated node, a mask whose
    # first block of subgraphs follows on (read as a slice) and ones that do
    # not (gathered), and a PE given as data, whose rows are gathered too
    cases = [(random_graph(150, 3 / 149, seed=77), [0.5, tuple(range(10, 100))]),
             (random_graph(30, 0.02, seed=4), [0.3, 1.0]),
             (random_graph(12, 0.3, seed=6, with_features=2), [0.5]),
             (ISOLATED_NODE_GRAPH, [ISOLATED_NODE_MASK.sampled])]
    for g, samples in cases:
        width = 1 if g.features is None else g.features.shape[1]
        for pe in (product_pe(g, 3), concatenation_pe(g, 2)):
            rng = SplitMix64(g.n)
            mark_table = _uniform_array(rng, (g.n + 1, 4), g.n + 1)
            encoder = EncoderParams.from_rng(width + pe.k + 4, 4, rng)
            full = init_state(g, pe, node_mark_indices(g), mark_table, encoder).x
            for sample in samples:
                mask = (SamplingMask.from_ratio(g.n, sample, SplitMix64(3)) if isinstance(sample, float)
                        else SamplingMask(n=g.n, sampled=sample))
                got = init_state(g, pe, node_mark_indices(g, mask.sampled), mark_table, encoder).x
                assert got.tobytes() == restrict_rows(full, mask).tobytes()


def test_init_state_peak_memory():
    # 2.00x the output when the gathered mark rows formed a second (n, n, d)
    # array; 1.13x with them added in blocks of subgraphs, where the state's
    # (rows, d) finiteness mask set the peak; 1.06x with that mask checked
    # in blocks of rows, where one block of gathered mark rows (1/16 of
    # the output here) sets it
    n = 1024
    g = random_graph(n, 4 / (n - 1), seed=3)
    pe, marks = product_pe(g, 4), node_mark_indices(g)
    rng = SplitMix64(5)
    mark_table = _uniform_array(rng, (n + 1, 8), n + 1)
    encoder = EncoderParams.from_rng(1 + 4 + 8, 8, rng)
    x, peak = traced_peak(lambda: init_state(g, pe, marks, mark_table, encoder).x)
    assert peak <= 1.10 * x.nbytes


def test_init_state_shape_mismatch():
    g = P2
    pe = product_pe(g, 2)
    marks = node_mark_indices(g)
    with pytest.raises(ShapeMismatch):
        init_state(g, pe, marks, np.zeros((3, 4)), EncoderParams(np.zeros((5, 4)), np.zeros(4)))
    big_pe = product_pe(path_graph(3), 2)
    with pytest.raises(ShapeMismatch):
        init_state(g, big_pe, marks, np.zeros((3, 4)), EncoderParams(np.zeros((7, 4)), np.zeros(4)))
    # one block one column too wide for a 1 + 2 + 4 encoder: refused before
    # the weight is split
    encoder = EncoderParams(np.zeros((7, 4)), np.zeros(4))
    for args in (
        (random_graph(2, 1.0, seed=1, with_features=2), pe, marks, np.zeros((3, 4))),  # features
        (g, product_pe(g, 3), marks, np.zeros((3, 4))),  # PE k
        (g, pe, marks, np.zeros((3, 5))),  # mark table
    ):
        with pytest.raises(ShapeMismatch, match="encoder expects width 7, got 8"):
            init_state(*args, encoder)


def test_product_state_freezes_a_view_not_the_callers_array():
    a = np.zeros((4, 2))
    state = ProductState(x=a)
    assert a.flags.writeable and not state.x.flags.writeable
    assert np.shares_memory(state.x, a)  # no copy


def test_product_state_validation():
    for rows in (9, 21, 3):  # m*n rows of any m subgraphs: 21 for 3 of 7
        assert not ProductState(x=np.zeros((rows, 2))).x.flags.writeable
    with pytest.raises(ShapeMismatch):
        ProductState(x=np.zeros(4))
    with pytest.raises(RangeError):
        ProductState(x=np.full((4, 2), np.nan))


# --- parameter container ----------------------------------------------------


def test_parameter_container_roundtrip():
    rng = SplitMix64(81)
    params = SABParams.from_rng(4, 8, rng)
    named = params.named("sab")
    buf = io.BytesIO()
    save_parameters(buf, named)
    buf.seek(0)
    loaded = load_parameters(buf)
    assert set(loaded) == {name for name, _ in named}
    for name, arr in named:
        assert np.array_equal(loaded[name], arr)


def test_parameter_container_load_into():
    from prodgraph.model import load_into

    rng = SplitMix64(82)
    a = SABParams.from_rng(4, 4, rng)
    b = SABParams.from_rng(4, 4, SplitMix64(83))
    buf = io.BytesIO()
    save_parameters(buf, a.named("p"))
    buf.seek(0)
    load_into(b.named("p"), load_parameters(buf))
    for (_, x), (_, y) in zip(a.named("p"), b.named("p")):
        assert np.array_equal(x, y)


def test_load_into_refuses_a_name_the_model_lacks():
    from prodgraph.model import load_into

    one, two = (build_forward_model(P2, ForwardConfig(layers=layers, seed=3)) for layers in (1, 2))
    data = dict(two.named())
    before = [a.copy() for _, a in one.named()]
    with pytest.raises(ShapeMismatch, match="container holds parameter layers.1.internal.w_query"):
        load_into(one.named(), data)
    assert all(np.array_equal(a, b) for (_, a), b in zip(one.named(), before))  # nothing copied
    del data["layers.1.internal.w_query"]
    with pytest.raises(ShapeMismatch, match="layers.1.internal.w_key"):  # the first extra name
        load_into(one.named(), data)


def test_load_parameters_refuses_a_repeated_name():
    named = SABParams.from_rng(4, 4, SplitMix64(84)).named("p")
    buf = io.BytesIO()
    save_parameters(buf, named + [(named[2][0], named[5][1])])
    buf.seek(0)
    with pytest.raises(ParseError, match=f"parameter manifest repeats {named[2][0]}$"):
        load_parameters(buf)


# --- end-to-end forward -----------------------------------------------------


def test_run_forward_deterministic():
    g = random_graph(5, 0.5, seed=91)
    cfg = ForwardConfig(k=3, seed=7, layers=2, d=8, heads=4)
    a = run_forward(g, cfg)
    b = run_forward(g, cfg)
    assert np.array_equal(a, b)


def test_run_forward_full_ratio_matches_unsampled_bitwise():
    for g in (random_graph(5, 0.5, seed=92), random_graph(70, 3 / 69, seed=92, with_features=2)):
        base = run_forward(g, ForwardConfig(k=3, seed=1))
        full = run_forward(g, ForwardConfig(k=3, seed=1, sample_ratio=1.0, sample_seed=99))
        assert base.tobytes() == full.tobytes()


def test_sampled_first_forward_matches_the_restricted_full_system(monkeypatch):
    # the sampled forward builds the marks and the state for the sampled
    # subgraphs only, and pools what the restricted full system pools, bit
    # for bit; it restricts no n^2-row state
    systems = []
    for g, ratio in ((random_graph(70, 3 / 69, seed=9), 0.5), (random_graph(20, 0.1, seed=2, with_features=2), 0.3),
                     (ISOLATED_NODE_GRAPH, 0.75), (random_graph(9, 0.4, seed=1), 1.0)):
        cfg = ForwardConfig(k=4, seed=g.n, sample_ratio=ratio, sample_seed=4, pool_variant="mean_sum")
        params = build_forward_model(g, cfg)
        mask = SamplingMask.from_ratio(g.n, ratio, SplitMix64(4))
        state = init_state(g, product_pe(g, cfg.k), node_mark_indices(g), params.mark_table,
                           params.encoder)
        full = pipeline_on(g, params.layers, params.pool_mlp, cfg.pool_variant)
        systems.append((g, cfg, params, full.sampled(mask).pooled(restrict_rows(state.x, mask))))

    def refuse(*args):
        raise AssertionError("the sampled forward restricted an n^2-row state")

    bfs, mark_shapes = model_module.spectral.node_mark_indices, []

    def marks(*args):
        out = bfs(*args)
        mark_shapes.append(out.dist.shape)
        return out

    monkeypatch.setattr(model_module.product, "restrict_rows", refuse)
    monkeypatch.setattr(model_module.spectral, "node_mark_indices", marks)
    for g, cfg, params, want in systems:
        mark_shapes.clear()
        assert run_forward(g, cfg, params).tobytes() == want.tobytes()
        assert mark_shapes == [(math.ceil(cfg.sample_ratio * g.n), g.n)]


def test_pooled_frees_the_stack_input_after_the_first_layer(monkeypatch):
    # handed the only reference to its input, pooled keeps none while the
    # stack runs, so the input is gone by the time layer 1 starts
    g = random_graph(9, 0.4, seed=2)
    pipe, x = make_pipeline(g, seed=4, layers=3)
    want = pipe.pooled(x)
    inputs = [x.copy()]
    gone = weakref.ref(inputs[0])
    freed = []
    layer = model_module._sab_forward_raw

    def watched(x, *args):
        freed.append(gone() is None)
        return layer(x, *args)

    monkeypatch.setattr(model_module, "_sab_forward_raw", watched)
    got = pipe.pooled(inputs.pop())  # outside an assert, which would keep the popped input
    assert got.tobytes() == want.tobytes()
    assert freed == [False, True, True]


def test_run_forward_sampling_is_seeded():
    g = random_graph(6, 0.5, seed=93)
    a = run_forward(g, ForwardConfig(k=3, seed=1, sample_ratio=0.5, sample_seed=5))
    b = run_forward(g, ForwardConfig(k=3, seed=1, sample_ratio=0.5, sample_seed=5))
    c = run_forward(g, ForwardConfig(k=3, seed=1, sample_ratio=0.5, sample_seed=6))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("layers, d, heads, features", [(0, 1, 1, 0), (2, 8, 4, 0), (3, 6, 2, 3)])
def test_model_size_is_bounded_by_memory_before_drawing(monkeypatch, layers, d, heads, features):
    # the bound counts exactly the parameters the model draws
    g = random_graph(5, 0.5, seed=95, with_features=features)
    cfg = ForwardConfig(k=3, layers=layers, d=d, heads=heads)
    count = sum(arr.size for _, arr in build_forward_model(g, cfg).named())
    sysconf = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 8 * count}
    monkeypatch.setattr(model_module.os, "sysconf", sysconf.__getitem__)
    build_forward_model(g, cfg)
    sysconf["SC_PHYS_PAGES"] -= 1
    with pytest.raises(ScaleError):
        build_forward_model(g, cfg)


def test_forward_builds_no_product_coo(monkeypatch):
    # the model path runs on the factored edge types: no COO expansion of
    # them and no K-tuple COO builder may be reached
    from prodgraph import product

    def refuse(*args, **kwargs):
        raise AssertionError("the forward pass built an n^2-row COO adjacency")

    for name in ("slot_adjacency", "k_point_adjacency"):
        monkeypatch.setattr(product, name, refuse)
    for cls in (product.KronAdjacency, product.PointAdjacency):
        monkeypatch.setattr(cls, "to_sparse", refuse)
    g = random_graph(7, 0.5, seed=94)
    for ratio in (None, 0.5, 1.0):
        assert np.isfinite(run_forward(g, ForwardConfig(k=3, sample_ratio=ratio))).all()


@pytest.mark.xfail(strict=True, reason="the eigenvector sign rule depends on node order")
def test_run_forward_is_invariant_to_relabelling():
    # fails while the PE sign comes from each eigenvector's first large
    # entry in node order; passes, and so XPASSes, once the rule is fixed
    from prodgraph import permute_graph, random_permutation

    cfg = ForwardConfig()
    worst = 0.0
    for seed in range(40):
        g = random_graph(7, 0.5, seed=seed)
        model = build_forward_model(g, cfg)
        relabelled = permute_graph(g, random_permutation(7, seed=seed))
        worst = max(worst, float(np.abs(run_forward(relabelled, cfg, model)
                                        - run_forward(g, cfg, model)).max()))
    assert worst <= 1e-10


def test_build_forward_model_rejects_bad_heads():
    with pytest.raises(ShapeMismatch):
        build_forward_model(P2, ForwardConfig(d=6, heads=4))


def test_model_arguments_out_of_range_are_range_errors():
    for heads, d_out in ((0, 8), (-4, 8), (4, 0)):
        with pytest.raises(RangeError):
            SABParams.from_rng(4, d_out, SplitMix64(0), heads=heads)
    for cfg in (ForwardConfig(heads=0), ForwardConfig(heads=-4), ForwardConfig(d=0),
                ForwardConfig(layers=-1), ForwardConfig(k=0), ForwardConfig(k=-9),
                ForwardConfig(k=-20)):
        with pytest.raises(RangeError):
            build_forward_model(P2, cfg)
    assert build_forward_model(P2, ForwardConfig(layers=0)).layers == []


def _scalar_uniform_array(rng, shape, fan_in):
    """Reference parameter fill: one SplitMix64.uniform call per element."""
    bound = 1.0 / np.sqrt(max(1, fan_in))
    size = int(np.prod(shape)) if shape else 1
    return np.array([rng.uniform(-bound, bound) for _ in range(size)]).reshape(shape)


def test_build_forward_model_matches_scalar_draws(monkeypatch):
    # the reference draws every parameter from a raw stream, one value at a
    # time; the 600-node model's mark table alone is 601 x 8 = 4808 draws
    cases = [(random_graph(9, 0.4, seed=2), ForwardConfig(seed=11)),
             (path_graph(600), ForwardConfig(seed=5))]
    fast = [build_forward_model(g, cfg) for g, cfg in cases]
    monkeypatch.setattr(model_module, "_DrawCursor", lambda seed, count: SplitMix64(seed))
    monkeypatch.setattr(model_module, "_uniform_array", _scalar_uniform_array)
    for model, (g, cfg) in zip(fast, cases):
        ref = build_forward_model(g, cfg)
        assert [name for name, _ in model.named()] == [name for name, _ in ref.named()]
        for (name, got), (_, want) in zip(model.named(), ref.named()):
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert np.array_equal(got, want), name
        fast_bytes, ref_bytes = io.BytesIO(), io.BytesIO()
        save_parameters(fast_bytes, model.named())
        save_parameters(ref_bytes, ref.named())
        assert fast_bytes.getvalue() == ref_bytes.getvalue()


def test_multi_block_model_matches_per_array_draws(monkeypatch):
    # one run of 601 x 8 mark-table draws and more, cut into arrays, against
    # one uniform_array call per array on the raw stream
    g = path_graph(600)
    cfg = ForwardConfig(seed=5)
    fast = build_forward_model(g, cfg)
    assert fast.mark_table.size == 601 * cfg.d
    monkeypatch.setattr(model_module, "_DrawCursor", lambda seed, count: SplitMix64(seed))
    ref = build_forward_model(g, cfg)
    fast_bytes, ref_bytes = io.BytesIO(), io.BytesIO()
    save_parameters(fast_bytes, fast.named())
    save_parameters(ref_bytes, ref.named())
    assert fast_bytes.getvalue() == ref_bytes.getvalue()


def test_draw_cursor_serves_its_run_and_refuses_an_over_read():
    cursor = model_module._DrawCursor(7, 10)
    raw = SplitMix64(7)
    for low, high, size in ((-0.5, 0.5, 3), (0.0, 1.0, 0), (-2.0, 1.0, 6)):
        got = cursor.uniform_array(low, high, size)
        want = raw.uniform_array(low, high, size)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for size in (2, -1):
        with pytest.raises(ValueError):
            cursor.uniform_array(0.0, 1.0, size)
    assert cursor.uniform_array(3.0, 4.0, 1).tobytes() == raw.uniform_array(3.0, 4.0, 1).tobytes()


SAB_LEAVES = [f"{part}.{leaf}" for part, leaves in (
    ("internal", ("w_query", "w_key", "w_value", "attn")),
    ("external", ("w_query", "w_key", "w_value", "attn")),
    ("point_mlp", ("w1", "b1", "w2", "b2")),
) for leaf in leaves] + ["epsilon"] + [f"fuse_mlp.{leaf}" for leaf in ("w1", "b1", "w2", "b2")]


def test_parameter_layout_is_pinned():
    # names, order and container bytes of the default 2-layer model on G6;
    # saved parameter files depend on all three
    model = build_forward_model(load_graph(G6), ForwardConfig(layers=2))
    expected = (["mark_table", "encoder.weight", "encoder.bias"]
                + [f"layers.{idx}.{leaf}" for idx in range(2) for leaf in SAB_LEAVES]
                + ["pool_mlp.w1", "pool_mlp.b1", "pool_mlp.w2", "pool_mlp.b2"])
    assert [name for name, _ in model.named()] == expected
    buf = io.BytesIO()
    save_parameters(buf, model.named())
    digest = hashlib.sha256(buf.getvalue()).hexdigest()
    assert digest == "3ea730a7a93ae5307f34eb309a38d69f0fe13fb786d759fd78af0ddb51d1219f"


PARAMETER_TYPES = (ForwardModel, SABParams, AttentionParams, MLPParams, EncoderParams, RGCNParams)


def test_parameter_dataclasses_hold_only_arrays():
    # sizes are read from the arrays' shapes; a size stored beside them is a
    # second copy that can disagree with them
    seen = set()

    def walk(node):
        assert type(node) in PARAMETER_TYPES, type(node)
        seen.add(type(node))
        for f in fields(node):
            value = getattr(node, f.name)
            for item in value if isinstance(value, list) else [value]:
                if not isinstance(item, np.ndarray):
                    walk(item)

    walk(build_forward_model(load_graph(G6), ForwardConfig(layers=1)))
    walk(RGCNParams.from_rng(3, 4, SplitMix64(0)))
    assert seen == set(PARAMETER_TYPES)


@pytest.mark.parametrize("layers", [0, 1, 2])
def test_gradient_names_are_parameter_names(layers):
    pipe, x0 = make_pipeline(path_graph(3), seed=4, layers=layers)
    _, grads, _ = pipe.loss_and_grads(x0)
    assert list(grads) == [name for name, _ in pipe.named_arrays()]
    assert len(grads) == 4 + layers * len(SAB_LEAVES)
