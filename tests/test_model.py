import hashlib
import io
import json
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
    Pipeline,
    ProductState,
    RangeError,
    RGCNParams,
    SABParams,
    ScaleError,
    ShapeMismatch,
    build_product_bundle,
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
    _point_forward,
    _uniform_array,
    build_forward_model,
    run_forward,
)
from prodgraph.product import SamplingMask, product_permutation, restrict_adjacency
from prodgraph.rng import SplitMix64
from prodgraph.verify import (
    ISOLATED_NODE_GRAPH,
    ISOLATED_NODE_MASK,
    dense_attention_oracle,
    dense_point_oracle,
    dense_rgcn_oracle,
)
from helpers import concatenated_state, entry_set

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
            assert np.abs(_attention_forward(x3, slot, params)[0] - dense).max() <= 1e-12


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
    pipe, x = full.sampled(x0, ISOLATED_NODE_MASK)
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
    pipe, x0 = full.sampled(x0, ISOLATED_NODE_MASK)
    ones = np.ones((x0.shape[0], 1))
    for received in (pipe.internal.neighbor_sum(ones), pipe.external.neighbor_sum(ones),
                     pipe.point.gather(ones)):  # some rows lack in-neighbors
        assert 0 < np.count_nonzero(received) < x0.shape[0]
    report = grad_check(pipe, x0)
    assert report.passed
    assert report.max_rel_error <= 1e-4


def test_grad_check_mean_sum_sampled_system():
    full, x0 = make_pipeline(ISOLATED_NODE_GRAPH, seed=3, layers=2, variant="mean_sum")
    report = grad_check(*full.sampled(x0, ISOLATED_NODE_MASK))
    assert report.passed
    assert report.max_rel_error <= 1e-4


def test_public_ops_take_a_sampled_product_state():
    # 3 of 7 subgraphs: 21 rows, which is no square
    g = random_graph(7, 0.45, seed=5)
    full, x = make_pipeline(g, seed=9)
    pipe, x = full.sampled(x, SamplingMask(n=7, sampled=(1, 2, 5)))
    assert x.shape[0] == 21
    layer = pipe.layers[0]
    state = ProductState(x=x)
    for adj, params in ((pipe.internal, layer.internal), (pipe.external, layer.external)):
        want, _ = _attention_forward(x, adj, params)
        assert np.array_equal(sparse_attention(state, adj, params, heads=layer.heads), want)
    want, _ = _point_forward(x, pipe.point, layer.epsilon, layer.point_mlp)
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
    return full.sampled(state.x, mask)


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
    params = pipe.layers[0].internal
    _, cache = _attention_forward(x0, pipe.internal, params)
    dout = random_state(x0.shape[0], 8, seed=6)
    _attention_backward(dout, cache, params)
    with pytest.raises(ValueError, match="consumed"):  # dz has overwritten the weights
        _attention_backward(dout, cache, params)
    (loss, grads, dx), (loss2, grads2, dx2) = pipe.loss_and_grads(x0), pipe.loss_and_grads(x0)
    assert np.float64(loss).tobytes() == np.float64(loss2).tobytes()
    assert list(grads) == list(grads2)
    assert all(grads[name].tobytes() == grads2[name].tobytes() for name in grads)
    assert dx.tobytes() == dx2.tobytes()


def test_sampled_step_peak_memory():
    # Peak traced bytes of one sampled training step, in units of its input
    # state's bytes: 39.6x when every layer's cache lived until the step
    # returned and the backward copied the softmax weights to edge order,
    # 29.3x with each cache freed once read and dz written over the weights.
    # The bound leaves about 15 % of headroom over the latter and still
    # fails a step that keeps each layer's cache to the end (36.4x).
    import tracemalloc

    g = random_graph(48, 4 / 47, seed=3)
    full, x = make_pipeline(g, seed=8, d=8, layers=2)
    pipe, x0 = full.sampled(x, SamplingMask.from_ratio(g.n, 0.5, SplitMix64(7)))
    pipe.loss_and_grads(x0)  # builds the degree buckets, which the adjacencies keep
    tracemalloc.start()
    try:
        pipe.loss_and_grads(x0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 34 * x0.nbytes


def test_full_mask_sampled_system_reproduces_pooled_bitwise():
    for g in (P2, path_graph(4), K3, ISOLATED_NODE_GRAPH):
        for variant in ("sum_sum", "mean_sum"):
            pipe, x0 = make_pipeline(g, seed=5, layers=2, variant=variant)
            restricted, x_r = pipe.sampled(x0, SamplingMask.full(g.n))
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


# --- end-to-end forward -----------------------------------------------------


def test_run_forward_deterministic():
    g = random_graph(5, 0.5, seed=91)
    cfg = ForwardConfig(k=3, seed=7, layers=2, d=8, heads=4)
    a = run_forward(g, cfg)
    b = run_forward(g, cfg)
    assert np.array_equal(a, b)


def test_run_forward_full_ratio_matches_unsampled_bitwise():
    g = random_graph(5, 0.5, seed=92)
    base = run_forward(g, ForwardConfig(k=3, seed=1))
    full = run_forward(g, ForwardConfig(k=3, seed=1, sample_ratio=1.0, sample_seed=99))
    assert np.array_equal(base, full)


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
