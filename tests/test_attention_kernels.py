"""The degree-bucketed attention kernel against the (E, heads) reference.

The reference sums in entry order and the kernel by degree bucket, so the
two agree to within 1e-12 of each output's scale, the bound of the goldens
and the dense-oracle checks, not bit for bit.
"""

import math

import numpy as np
import pytest

from attention_reference import attention_backward, attention_forward
from prodgraph import (
    AttentionParams,
    Graph,
    KronAdjacency,
    Pipeline,
    SamplingMask,
    build_product_bundle,
    random_graph,
    restrict_rows,
)
from prodgraph.graphs import path_graph
from prodgraph.model import _attention_backward, _attention_forward, _attention_weights, _values
from prodgraph.rng import SplitMix64
from prodgraph.verify import ISOLATED_NODE_GRAPH, ISOLATED_NODE_MASK
from tuple_reference import factored_adjacency

D_IN = 5


def _systems():
    """(name, x, adjacency) cases: internal and external of full bundles and
    of Pipeline.sampled systems, an edgeless graph among them."""
    rng = SplitMix64(11)
    cases = []
    for gname, g, mask in (("g7", random_graph(7, 0.45, seed=5), SamplingMask(n=7, sampled=(1, 2, 5))),
                           ("isolated", ISOLATED_NODE_GRAPH, ISOLATED_NODE_MASK),
                           ("edgeless", Graph(n=3, edges=frozenset()), SamplingMask(n=3, sampled=(0, 2)))):
        bundle = build_product_bundle(g)
        full = Pipeline(bundle.internal, bundle.external, bundle.point, g.n, [], None)
        x = rng.uniform_array(-2.0, 2.0, g.n * g.n * D_IN).reshape(g.n * g.n, D_IN)
        sampled, x_sampled = full.sampled(mask), restrict_rows(x, mask)
        for kind in ("internal", "external"):
            cases.append((f"{gname}-{kind}", x, getattr(full, kind)))
            cases.append((f"{gname}-{kind}-sampled", x_sampled, getattr(sampled, kind)))
    return cases


def _close(got, want):
    return got.shape == want.shape and np.abs(got - want).max(initial=0.0) <= 1e-12 * max(
        1.0, np.abs(want).max(initial=0.0))


def _alpha_by_entry(adj, alphas):
    """The bucketed weights as an (E, heads) array in row-major entry order."""
    m, n = adj.grid
    keys, values = [], []
    for b in adj.buckets:
        alpha = b.view(alphas)
        batch = np.arange(adj.grid[1 - adj.axis])
        u, w, t = b.nodes[:, None, None], b.senders[:, :, None], batch[None, None, :]
        rows, cols = ((t * n + u), (t * n + w)) if adj.axis else ((u * n + t), (w * n + t))
        keys.append(np.broadcast_to(rows * (m * n) + cols, alpha.shape[:3]).ravel())
        values.append(alpha.reshape(-1, alpha.shape[3]))
    if not keys:
        return np.empty((0, 0))
    return np.concatenate(values)[np.argsort(np.concatenate(keys))]


@pytest.mark.parametrize("heads", (1, 2, 4))
@pytest.mark.parametrize("head_dim", (1, 2, 3))
def test_attention_matches_entry_major_reference(heads, head_dim):
    d_out = heads * head_dim
    seen_empty_rows = False
    for name, x, adj in _systems():
        rng = SplitMix64(heads * 10 + head_dim)
        params = AttentionParams.from_rng(D_IN, d_out, heads, rng)
        # a SAB layer hands each branch a contiguous gradient; a strided column
        # block of a wider array is kept here as a robustness case
        fused = rng.uniform_array(-1.0, 1.0, x.shape[0] * 3 * d_out).reshape(x.shape[0], 3 * d_out)
        dout = fused[:, d_out:2 * d_out]
        coo = factored_adjacency(adj)
        out = _attention_forward(x, adj, params)
        want, want_cache = attention_forward(x, coo, params, heads)
        assert _close(out, want), name
        if coo.nnz:
            assert _close(_alpha_by_entry(adj, _attention_weights(x, adj, params)[0]), want_cache["alpha"]), name
        dx = np.zeros_like(x)
        grads = _attention_backward(dout, x, adj, params, dx)
        want_dx, want_grads = attention_backward(dout, want_cache, params)
        assert _close(dx, want_dx), name
        for field in ("w_query", "w_key", "w_value", "attn"):
            assert _close(getattr(grads, field), getattr(want_grads, field)), (name, field)
        seen_empty_rows |= np.unique(coo.entries[:, 0]).size < coo.rows
    assert seen_empty_rows


def _sign_cases():
    """(name, x, adjacency) on odd grids with 3 heads: a random graph, an
    edgeless one (E = 0) and a path, whose two ends form a degree-1 bucket."""
    rng = SplitMix64(17)
    cases = []
    for gname, g in (("g7", random_graph(7, 0.45, seed=5)), ("edgeless", Graph(n=3, edges=frozenset())),
                     ("path", path_graph(5))):
        bundle = build_product_bundle(g)
        x = rng.uniform_array(-2.0, 2.0, g.n * g.n * D_IN).reshape(g.n * g.n, D_IN)
        for kind in ("internal", "external"):
            cases.append(pytest.param(f"{gname}-{kind}", x, getattr(bundle, kind), id=f"{gname}-{kind}"))
    return cases


@pytest.mark.parametrize("name, x, adj", _sign_cases())
def test_sign_mask_is_the_reference_scores_sign(name, x, adj):
    heads = 3
    params = AttentionParams.from_rng(D_IN, 2 * heads, heads, SplitMix64(len(name)))
    alpha_e, negative_e = _attention_weights(x, adj, params)
    _, want_cache = attention_forward(x, factored_adjacency(adj), params, heads)
    assert negative_e.shape == alpha_e.shape == (adj.src.size, x.shape[0] // adj.grid[adj.axis], heads)
    assert negative_e.dtype == bool
    if name.startswith("edgeless"):
        assert alpha_e.shape[0] == 0 and want_cache["z"].size == 0
        return
    if name.startswith("path"):
        assert 1 in {b.senders.shape[1] for b in adj.buckets}
    assert np.array_equal(_alpha_by_entry(adj, negative_e), want_cache["z"] <= 0.0)


def test_backward_adds_the_input_gradient_into_the_callers_dx():
    x, adj = {name: (x, adj) for name, x, adj in _systems()}["g7-external-sampled"]
    params = AttentionParams.from_rng(D_IN, 8, 4, SplitMix64(23))
    dout = SplitMix64(24).uniform_array(-1.0, 1.0, x.shape[0] * 8).reshape(x.shape[0], 8)
    x_bytes = x.tobytes()
    fresh = np.zeros_like(x)
    want = _attention_backward(dout, x, adj, params, fresh)
    base = SplitMix64(25).uniform_array(-3.0, 3.0, x.size).reshape(x.shape)
    dx = base.copy()
    grads = _attention_backward(dout, x, adj, params, dx)
    for field in ("w_query", "w_key", "w_value", "attn"):
        assert getattr(grads, field).tobytes() == getattr(want, field).tobytes(), field
    assert np.abs((dx - base) - fresh).max() <= 1e-15 * np.abs(dx).max()
    assert x.tobytes() == x_bytes  # the backward rebuilds its weights and writes no input


@pytest.mark.parametrize("head_dim", (1, 2, 3))
def test_values_are_channel_major_and_the_layout_round_trips(head_dim):
    # entry [c, q, l * right + r, h] of the values is column h * head_dim + c
    # of row (l, q, r) of x W_V, on the (m, n) grids of _systems and on each
    # slot of a K = 3 grid whose sides differ
    heads, d_out, grid = 2, 2 * head_dim, (3, 4, 5)
    rng = SplitMix64(31 + head_dim)
    x3 = rng.uniform_array(-2.0, 2.0, math.prod(grid) * D_IN).reshape(-1, D_IN)
    slots = [(f"k3-slot{slot}", x3, KronAdjacency(*path_graph(grid[slot]).directed_edges, slot, grid))
             for slot in range(3)]
    for name, x, adj in _systems() + slots:
        params = AttentionParams.from_rng(D_IN, d_out, heads, rng)
        flat = x @ params.w_value
        v = _values(x, adj, params)
        left, size = math.prod(adj.grid[:adj.axis]), adj.grid[adj.axis]
        right = x.shape[0] // (left * size)
        assert v.shape == (head_dim, size, left * right, heads) and v.flags.c_contiguous, name
        c, q, l, r, h = np.indices((head_dim, size, left, right, heads)).reshape(5, -1)
        want = flat[(l * size + q) * right + r, h * head_dim + c]
        assert v[c, q, l * right + r, h].tobytes() == want.tobytes(), name
        # the inverse restores the rows bit for bit, also from a strided column
        # block like the fuse gradient's
        fused = rng.uniform_array(-1.0, 1.0, x.shape[0] * 3 * d_out).reshape(x.shape[0], 3 * d_out)
        for a in (flat, fused[:, d_out:2 * d_out]):
            back = adj.channel_rows(adj.channel_major(a, head_dim))
            assert back.shape == a.shape and back.tobytes() == np.ascontiguousarray(a).tobytes(), name
