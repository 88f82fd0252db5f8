"""The channel-major attention kernels give the bits of the (E, heads) reference."""

import numpy as np
import pytest

from attention_reference import attention_backward, attention_forward
from prodgraph import (
    AttentionParams,
    Pipeline,
    SamplingMask,
    SparseAdjacency,
    build_product_bundle,
    random_graph,
)
from prodgraph.model import _attention_backward, _attention_forward
from prodgraph.rng import SplitMix64
from prodgraph.verify import ISOLATED_NODE_GRAPH, ISOLATED_NODE_MASK

D_IN = 5


def _systems():
    """(name, x, adjacency) cases: the three adjacencies of full bundles and
    of Pipeline.sampled systems, the point adjacency among them, plus an
    empty one."""
    rng = SplitMix64(11)
    cases = []
    for gname, g, mask in (("g7", random_graph(7, 0.45, seed=5), SamplingMask(n=7, sampled=(1, 2, 5))),
                           ("isolated", ISOLATED_NODE_GRAPH, ISOLATED_NODE_MASK)):
        bundle = build_product_bundle(g)
        full = Pipeline(bundle.internal, bundle.external, bundle.point, g.n, [], None)
        x = rng.uniform_array(-2.0, 2.0, g.n * g.n * D_IN).reshape(g.n * g.n, D_IN)
        sampled, x_sampled = full.sampled(x, mask)
        for kind in ("internal", "external", "point"):
            cases.append((f"{gname}-{kind}", x, getattr(full, kind)))
            cases.append((f"{gname}-{kind}-sampled", x_sampled, getattr(sampled, kind)))
    cases.append(("empty", cases[0][1], SparseAdjacency(cases[0][2].rows, cases[0][2].cols)))
    return cases


@pytest.mark.parametrize("heads", (1, 2, 4))
@pytest.mark.parametrize("head_dim", (1, 2, 3))
def test_attention_matches_entry_major_reference(heads, head_dim):
    d_out = heads * head_dim
    seen_empty_rows = False
    for name, x, adj in _systems():
        rng = SplitMix64(heads * 10 + head_dim)
        params = AttentionParams.from_rng(D_IN, d_out, heads, rng)
        # the upstream gradient is a column block of the fused one, as in a SAB layer
        fused = rng.uniform_array(-1.0, 1.0, x.shape[0] * 3 * d_out).reshape(x.shape[0], 3 * d_out)
        dout = fused[:, d_out:2 * d_out]
        out, cache = _attention_forward(x, adj, params, heads)
        want, want_cache = attention_forward(x, adj, params, heads)
        assert np.array_equal(out, want), name
        assert cache.alpha.shape == (adj.nnz, heads)
        assert np.array_equal(cache.alpha, want_cache["alpha"]), name
        dx, grads = _attention_backward(dout, cache, params)
        want_dx, want_grads = attention_backward(dout, want_cache, params)
        assert np.array_equal(dx, want_dx), name
        for field in ("w_query", "w_key", "w_value", "attn"):
            assert np.array_equal(getattr(grads, field), getattr(want_grads, field)), (name, field)
        seen_empty_rows |= 0 < np.unique(adj.entries[:, 0]).size < adj.rows
    assert seen_empty_rows
