"""Subgraph attention block: sparse attention, point update, fusion, pooling.

One block computes, per product node, an attention aggregation over each of
the two symmetric edge types plus a GIN-style point update, concatenates the
three d_out-wide results, and mixes them with an MLP:

    out = MLP_fuse( attn_internal(X) || attn_external(X) || point(X) )

Attention follows the GAT scoring rule per head h:

    z_ij = a_h . [ (W_Q x_i)_h || (W_K x_j)_h ]      (i receives from j)
    e_ij = LeakyReLU(z_ij, slope 0.2)
    alpha_i: = softmax of e over the in-neighborhood of i
    out_i,h = sum_j alpha_ij (W_V x_j)_h

computed only on the stored adjacency entries (row = receiver).  Rows with
an empty in-neighborhood emit zeros.  Every forward step has a hand-written
backward; gradients are validated against central finite differences by
grad_check.

Parameters are dataclass trees; `_named` gives each array its dotted name
(fields in declaration order, list items as .0, .1, ...).  Backward steps
return gradient trees of their parameters' types, so the gradients of
`loss_and_grads` carry the `named_arrays()` names.

The score splits into a receiver term and a sender term,
z_ij = s_q[i] + s_k[j] with s_q = (W_Q x)_h . a_q and s_k = (W_K x)_h . a_k.
Both are linear in x, so the projection and the scoring vector fold into
one (d_in, heads) map each: s_q = x @ M_q with
M_q[:, h] = W_Q[:, h-block] @ a_q[h], and the same for K.  No query or key
projection is formed, and only the two score sums are gathered per edge.
The backward pass runs the same way in reverse: dz is summed per receiver
and per sender, dM_q = x.T @ (per-receiver sums), and dW_Q and d(a_q)
follow from dM_q through the fold (likewise for K).

The state's m*n rows are the (m, n, d) grid of m subgraphs by n nodes, and
internal and external attention are one kernel along one grid axis of it
(product.KronAdjacency).  The kernel views its arrays node-major and walks
the base factor's degree buckets: the r receivers of degree k gather their
senders' rows as one (r, k, ...) block, and the softmax reduces the k axis.
The score terms are node-major (Q, P, heads) arrays, Q the attended axis
and P the batch of the others.  The values and the upstream gradient are
channel-major, (hd, Q, P, heads) (KronAdjacency.channel_major): each of
the hd channels of a head is a node-major array of its own, so a bucket
gathers and reduces one contiguous (r, k, P, heads) channel at a time, and
no einsum runs in the bucket loops.
One function computes softmax weights, _bucket_weights, one degree bucket
at a time.  The forward uses each bucket's weights as they are made and
keeps no weights and no sign mask.  Only the backward asks for more:
_attention_weights has the function write the buckets' weights back to
back into one (E, P, heads) array in edge order, and the bool mask of the
LeakyReLU's negative side into one array of that shape.  The adjacency is
symmetric, so the backward gathers instead of scattering: what a node sends
on are the reverses of its own edges, read through the bucket's reverse
index.  The value gradient is the one step that reads other buckets'
weights that way, so it runs first, and the score gradient dz then
overwrites each bucket's weights in place.

A layer caches only its input x and the two attention outputs (the fuse
MLP's first two input blocks).  The backward rebuilds the rest from x, each
quantity with the forward's own function for it, so it reads the forward's
bits: the attention weights (_bucket_weights, in edge order and with
their sign masks), the channel-major values x W_V (_values), the point
branch's MLP input (_point_pre) and output (_point_forward), and both
MLPs' activations (_mlp_hidden).  It reads the parameters as they are
when it runs, so forward and backward stay inside one `loss_and_grads`
call.  The fuse MLP's input stays column blocks.  Its backward's hidden
gradient is freed once it has given the three input blocks' gradients,
before any branch backward runs, and each branch backward holds the only
reference to its block.  The point backward returns the layer's input
gradient, and each attention backward adds its own into that array in
place.  `Pipeline` holds the only loop over the blocks.

A forward-only walk holds the stack's input no longer than layer 0 reads
it: `Pipeline.pooled` keeps no name for its argument, and the layer loop
rebinds its own to each layer's output.  So when the caller hands over the
only reference, as `run_forward` does with the state it has just built,
the layer-0 input is freed once layer 0 has run.  A training step keeps
each layer's input in that layer's cache until its backward has run.

All math is float64.  ReLU takes subgradient 0 at 0.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, fields, replace
from typing import IO, Sequence

import numpy as np

from . import product, spectral
from .errors import NonFiniteGradient, ParseError, RangeError, ScaleError, ShapeMismatch
from .graphs import DistanceMatrix, Graph, check_addressable
from .product import KronAdjacency, PointAdjacency, ProductGraphBundle
from .rng import SplitMix64
from .spectral import PEMatrix

LEAKY_SLOPE = 0.2


def _uniform_array(rng: SplitMix64, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """Uniform draws in [-1/sqrt(fan_in), +1/sqrt(fan_in)], C-order fill.
    Every parameter draw comes here, and a shape whose float64 array is not
    addressable is refused before any of its values are drawn."""
    check_addressable(shape)
    bound = 1.0 / math.sqrt(max(1, fan_in))
    return rng.uniform_array(-bound, bound, math.prod(shape)).reshape(shape)


class _DrawCursor:
    """The first `count` units u of SplitMix64(seed), drawn as one run.
    `uniform_array(low, high, size)` serves the next `size` in order as
    low + (high - low) * u, the raw stream's values bit for bit
    (0.0 + 1.0 * u is u); a request past the end is refused."""

    def __init__(self, seed: int, count: int):
        self._units = SplitMix64(seed).uniform_array(0.0, 1.0, count)
        self._pos = 0

    def uniform_array(self, low: float, high: float, size: int) -> np.ndarray:
        if not 0 <= size <= self._units.size - self._pos:
            raise ValueError(f"{size} draws asked, {self._units.size - self._pos} left")
        unit = self._units[self._pos:self._pos + size]
        self._pos += size
        return low + (high - low) * unit


def _named(node, path: tuple[str, ...] = ()) -> list[tuple[str, np.ndarray]]:
    """(dotted name, array) leaves of a parameter tree: dataclass fields in
    declaration order, list items as .0, .1, ....  Every leaf is an array:
    sizes are read from the arrays' shapes, never stored beside them."""
    if isinstance(node, np.ndarray):
        return [(".".join(path), node)]
    if isinstance(node, list):
        items = enumerate(node)
    else:
        items = ((f.name, getattr(node, f.name)) for f in fields(node))
    return [leaf for key, child in items for leaf in _named(child, path + (str(key),))]


@dataclass
class MLPParams:
    """Single hidden layer with ReLU: y = relu(x W1 + b1) W2 + b2."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    @classmethod
    def from_rng(cls, d_in: int, hidden: int, d_out: int, rng: SplitMix64) -> "MLPParams":
        return cls(
            w1=_uniform_array(rng, (d_in, hidden), d_in),
            b1=_uniform_array(rng, (hidden,), d_in),
            w2=_uniform_array(rng, (hidden, d_out), hidden),
            b2=_uniform_array(rng, (d_out,), hidden),
        )


@dataclass
class AttentionParams:
    """Per-edge-type projections and scoring vectors, split across heads."""

    w_query: np.ndarray  # (d_in, d_out)
    w_key: np.ndarray
    w_value: np.ndarray
    attn: np.ndarray  # (heads, 2 * d_out // heads)

    @classmethod
    def from_rng(cls, d_in: int, d_out: int, heads: int, rng: SplitMix64) -> "AttentionParams":
        hd = d_out // heads
        return cls(
            w_query=_uniform_array(rng, (d_in, d_out), d_in),
            w_key=_uniform_array(rng, (d_in, d_out), d_in),
            w_value=_uniform_array(rng, (d_in, d_out), d_in),
            attn=_uniform_array(rng, (heads, 2 * hd), 2 * hd),
        )


@dataclass
class SABParams:
    """All weights of one subgraph attention block."""

    internal: AttentionParams
    external: AttentionParams
    point_mlp: MLPParams  # d_in -> d_out
    epsilon: np.ndarray  # 0-d array so finite differences can perturb it
    fuse_mlp: MLPParams  # 3 * d_out -> d_out

    @classmethod
    def from_rng(cls, d_in: int, d_out: int, rng: SplitMix64, heads: int = 4) -> "SABParams":
        if min(d_in, d_out, heads) < 1:
            raise RangeError(f"need d_in, d_out, heads >= 1, got {d_in}, {d_out}, {heads}")
        if d_out % heads:
            raise ShapeMismatch(f"d_out={d_out} not divisible by heads={heads}")
        return cls(
            internal=AttentionParams.from_rng(d_in, d_out, heads, rng),
            external=AttentionParams.from_rng(d_in, d_out, heads, rng),
            epsilon=np.array(0.0),
            point_mlp=MLPParams.from_rng(d_in, d_out, d_out, rng),
            fuse_mlp=MLPParams.from_rng(3 * d_out, d_out, d_out, rng),
        )

    @property
    def heads(self) -> int:
        return self.internal.attn.shape[0]

    def named(self, prefix: str):
        return _named(self, (prefix,))


@dataclass
class RGCNParams:
    """Unnormalized relational layer: X W0 + sum_rel (A_rel X) W_rel."""

    w_self: np.ndarray
    w_internal: np.ndarray
    w_external: np.ndarray
    w_point: np.ndarray

    @classmethod
    def from_rng(cls, d_in: int, d_out: int, rng: SplitMix64) -> "RGCNParams":
        return cls(*(_uniform_array(rng, (d_in, d_out), d_in) for _ in range(4)))


@dataclass
class EncoderParams:
    """Single linear map fusing node feature, PE row, and mark embedding."""

    weight: np.ndarray
    bias: np.ndarray

    @classmethod
    def from_rng(cls, d_in: int, d_out: int, rng: SplitMix64) -> "EncoderParams":
        return cls(
            weight=_uniform_array(rng, (d_in, d_out), d_in),
            bias=_uniform_array(rng, (d_out,), d_in),
        )


_FINITE_BLOCK = 1 << 16  # entries per block of ProductState's finiteness check


@dataclass(frozen=True)
class ProductState:
    """Features of m*n product nodes, m subgraphs by n nodes: row s*n + v."""

    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64).view()  # freezing a view leaves the caller's array writable
        if x.ndim != 2:
            raise ShapeMismatch(f"state must be a (rows, d) array, got shape {x.shape}")
        rows = max(1, _FINITE_BLOCK // max(1, x.shape[1]))  # a block's mask, not a (rows, d) one
        if not all(np.isfinite(x[i:i + rows]).all() for i in range(0, x.shape[0], rows)):
            raise RangeError("state contains non-finite entries")
        x.flags.writeable = False
        object.__setattr__(self, "x", x)


# ---------------------------------------------------------------------------
# forward/backward primitives (cache-passing style)
# ---------------------------------------------------------------------------


def _mlp_hidden(parts: list[np.ndarray], p: MLPParams) -> np.ndarray:
    """relu(sum_b parts[b] @ W1_b + b1), W1_b the rows of W1 that read
    column block b of the input: the blocks are never concatenated."""
    widths = [part.shape[1] for part in parts]
    if sum(widths) != p.w1.shape[0]:
        raise ShapeMismatch(f"MLP expects width {p.w1.shape[0]}, got {sum(widths)}")
    blocks = np.split(p.w1, np.cumsum(widths)[:-1])
    act = parts[0] @ blocks[0]
    for part, w1 in zip(parts[1:], blocks[1:]):
        act += part @ w1
    act += p.b1
    act *= act > 0.0
    return act


def _mlp_forward(parts: list[np.ndarray], p: MLPParams) -> np.ndarray:
    """The MLP of the column blocks `parts`; its backward takes `parts` again."""
    y = _mlp_hidden(parts, p) @ p.w2
    y += p.b2
    return y


def _mlp_backward(dy: np.ndarray, parts: list[np.ndarray], p: MLPParams):
    """(dh, gradients) with dh the gradient at the hidden pre-activation.
    The activation is rebuilt from `parts`.  The gradient of input block b
    is dh @ W1_b.T, which each caller forms when it reads it."""
    act = _mlp_hidden(parts, p)
    dw2 = act.T @ dy
    db2 = dy.sum(axis=0)
    dh = dy @ p.w2.T
    dh *= act > 0.0  # act = h * (h > 0), so act > 0 exactly where h > 0
    del act
    dw1 = np.vstack([part.T @ dh for part in parts])
    db1 = dh.sum(axis=0)
    return dh, MLPParams(w1=dw1, b1=db1, w2=dw2, b2=db2)


def _score_maps(p: AttentionParams):
    """(d_in, heads) maps from a row to its receiver and sender score terms:
    M_q[:, h] = W_Q[:, h-block] @ a_q[h], and the same for K."""
    d_in, d_out = p.w_query.shape
    heads = p.attn.shape[0]
    hd = d_out // heads
    m_q = np.einsum("dhk,hk->dh", p.w_query.reshape(d_in, heads, hd), p.attn[:, :hd])
    m_k = np.einsum("dhk,hk->dh", p.w_key.reshape(d_in, heads, hd), p.attn[:, hd:])
    return m_q, m_k


def _scores(x: np.ndarray, adj: KronAdjacency, p: AttentionParams):
    """(s_q, s_k): the node-major (Q, P, heads) receiver and sender score terms."""
    m_q, m_k = _score_maps(p)
    return adj.node_major(x @ m_q), adj.node_major(x @ m_k)


def _bucket_weights(s_q: np.ndarray, s_k: np.ndarray, b: product.DegreeBucket,
                    out: np.ndarray | None = None, negative: np.ndarray | None = None) -> np.ndarray:
    """Bucket b's (r, k, P, heads) softmax weights, written into `out` when
    one is given, and with `negative` the bool mask of the scores z <= 0,
    where the LeakyReLU has LEAKY_SLOPE.  The one score loop: the forward
    uses each bucket's weights as they are made, and the backward has them
    written into edge order with their masks (_attention_weights), so both
    read the same weights bit for bit."""
    # with out=, the default mode="raise" buffers the whole gather; the indices are in range
    alpha = np.take(s_k, b.senders, axis=0, out=out, mode="clip")
    alpha += s_q[b.nodes, None]  # the score z
    if negative is not None:
        np.less_equal(alpha, 0.0, out=negative)
    np.maximum(alpha, LEAKY_SLOPE * alpha, out=alpha)  # the LeakyReLU, then the softmax
    alpha -= alpha.max(axis=1, keepdims=True)
    np.exp(alpha, out=alpha)
    alpha /= alpha.sum(axis=1, keepdims=True)
    return alpha


def _attention_weights(x: np.ndarray, adj: KronAdjacency, p: AttentionParams):
    """(alpha_e, negative_e): the (E, P, heads) softmax weights in edge order,
    a bucket's rows read by bucket.view, and their sign masks, each bucket
    written by _bucket_weights."""
    s_q, s_k = _scores(x, adj, p)
    alpha_e = np.empty((adj.src.size,) + s_k.shape[1:])  # (E, P, H) in edge order
    negative_e = np.empty(alpha_e.shape, dtype=bool)
    for b in adj.buckets:
        _bucket_weights(s_q, s_k, b, b.view(alpha_e), b.view(negative_e))
    return alpha_e, negative_e


def _values(x: np.ndarray, adj: KronAdjacency, p: AttentionParams) -> np.ndarray:
    """(hd, Q, P, heads) values x W_V, channel-major, in the forward and the backward alike."""
    return adj.channel_major(x @ p.w_value, p.w_value.shape[1] // p.attn.shape[0])


def _weighted_sum(weights: np.ndarray, a: np.ndarray, b: product.DegreeBucket, out: np.ndarray) -> None:
    """out[c, receiver] = sum over bucket b's senders of weights * a[c, sender],
    for each channel c of the channel-major `a`; `weights` is b's (r, k, P, heads)."""
    for c in range(a.shape[0]):
        g = np.take(a[c], b.senders, axis=0)
        g *= weights
        out[c, b.nodes] = g.sum(axis=1)
        del g  # before the next channel's gather


def _attention_forward(x: np.ndarray, adj: KronAdjacency, p: AttentionParams) -> np.ndarray:
    rows_n, d_in = x.shape
    if math.prod(adj.grid) != rows_n:
        raise ShapeMismatch(f"adjacency grid {adj.grid} does not match {rows_n} state rows")
    if p.w_query.shape[0] != d_in:
        raise ShapeMismatch(f"attention expects width {p.w_query.shape[0]}, got {d_in}")
    s_q, s_k = _scores(x, adj, p)
    v = _values(x, adj, p)
    out = np.zeros_like(v)
    for b in adj.buckets:
        _weighted_sum(_bucket_weights(s_q, s_k, b), v, b, out)
    return adj.channel_rows(out)


def _attention_backward(dout: np.ndarray, x: np.ndarray, adj: KronAdjacency, p: AttentionParams,
                        dx: np.ndarray) -> AttentionParams:
    """Gradients of the attention forward of (x, adj): the parameters' are
    returned, and the input's is added into the caller's `dx` in place.  The
    weights are rebuilt first, on an array of this call's own, the values
    after `dv`; each channel-major array is dropped once nothing reads it."""
    alpha_e, negative_e = _attention_weights(x, adj, p)
    d_in, d_out = p.w_query.shape
    heads = p.attn.shape[0]
    hd = d_out // heads
    dout = adj.channel_major(dout, hd)  # (hd, Q, P, H)
    # dv first: it is the one step that reads other buckets' weights, the
    # weights of the edges a node sends on, through the reverse index
    dv = np.zeros_like(dout)
    for b in adj.buckets:
        _weighted_sum(np.take(alpha_e, b.reverse, axis=0), dout, b, dv)
    dv = adj.channel_rows(dv)
    dw_value = x.T @ dv
    dx += dv @ p.w_value.T
    del dv
    v = _values(x, adj, p)
    for b in adj.buckets:
        dz = b.view(alpha_e)
        # dalpha = dout[receiver] . v[sender] over head_dim, one contiguous
        # channel of the senders' values at a time
        dalpha = np.take(v[0], b.senders, axis=0)
        dalpha *= dout[0, b.nodes, None]
        for c in range(1, hd):
            term = np.take(v[c], b.senders, axis=0)
            term *= dout[c, b.nodes, None]
            dalpha += term
            del term  # before the next channel's gather
        dalpha -= (dz * dalpha).sum(axis=1, keepdims=True)
        dz *= dalpha  # the bucket's weights become its dz
        del dalpha
        negative = b.view(negative_e)
        dz *= negative * LEAKY_SLOPE + ~negative  # exactly LEAKY_SLOPE or 1; branch-free, unlike np.where
    sums = dout.shape[1:]  # (Q, P, H)
    del dout, v, negative_e
    # z = (x @ M_q)[receiver] + (x @ M_k)[sender], so the score gradient
    # reaches each node through its receiver and sender sums of dz, and the
    # maps through x.T times those sums; alpha_e holds dz now
    dz_r, dz_c = np.zeros(sums), np.zeros(sums)
    for b in adj.buckets:
        dz_r[b.nodes] = b.view(alpha_e).sum(axis=1)
        dz_c[b.nodes] = np.take(alpha_e, b.reverse, axis=0).sum(axis=1)
    del alpha_e
    m_q, m_k = _score_maps(p)
    dz_r = adj.grid_rows(dz_r)
    dm_q = x.T @ dz_r  # (d_in, H)
    dx += dz_r @ m_q.T
    del dz_r
    dz_c = adj.grid_rows(dz_c)
    dm_k = x.T @ dz_c
    dx += dz_c @ m_k.T
    del dz_c
    w_q = p.w_query.reshape(d_in, heads, hd)
    w_k = p.w_key.reshape(d_in, heads, hd)
    return AttentionParams(
        w_query=(dm_q[..., None] * p.attn[:, :hd]).reshape(d_in, d_out),
        w_key=(dm_k[..., None] * p.attn[:, hd:]).reshape(d_in, d_out),
        w_value=dw_value,
        attn=np.hstack([np.einsum("dhk,dh->hk", w_q, dm_q),
                        np.einsum("dhk,dh->hk", w_k, dm_k)]),
    )


def _point_pre(x: np.ndarray, point: PointAdjacency, epsilon: np.ndarray) -> np.ndarray:
    """The point MLP's input (1 + eps) x + P x, in the forward and the backward alike."""
    return (1.0 + float(epsilon)) * x + point.gather(x)


def _point_forward(x: np.ndarray, point: PointAdjacency, epsilon: np.ndarray, mlp: MLPParams) -> np.ndarray:
    """The GIN update MLP((1 + eps) x + P x)."""
    if math.prod(point.grid) != x.shape[0]:
        raise ShapeMismatch(f"point adjacency grid {point.grid} does not match {x.shape[0]} state rows")
    return _mlp_forward([_point_pre(x, point, epsilon)], mlp)


def _point_backward(dy: np.ndarray, x: np.ndarray, point: PointAdjacency, epsilon: np.ndarray,
                    mlp: MLPParams):
    """(dx, d eps, MLP gradients) of the point forward of (x, point); the
    MLP input is rebuilt."""
    dh, mlp_grads = _mlp_backward(dy, [_point_pre(x, point, epsilon)], mlp)
    dpre = dh @ mlp.w1.T
    del dh
    deps = float((dpre * x).sum())
    dx = (1.0 + float(epsilon)) * dpre
    point.add_transposed(dpre, dx)
    return dx, deps, mlp_grads


def _sab_forward_raw(x, internal, external, point, params: SABParams):
    """The layer's output and its cache [x, a_int, a_ext]: the input and the
    two attention outputs, the fuse MLP's first two input blocks."""
    a_int = _attention_forward(x, internal, params.internal)
    a_ext = _attention_forward(x, external, params.external)
    a_pt = _point_forward(x, point, params.epsilon, params.point_mlp)
    y = _mlp_forward([a_int, a_ext, a_pt], params.fuse_mlp)
    return y, [x, a_int, a_ext]  # the backward rebuilds a_pt


def _sab_backward_raw(dy, cache: list, internal, external, point, params: SABParams):
    """Empties `cache`, the list `_sab_forward_raw` returned, so the
    attention outputs go once the fuse backward has run.  The point
    branch's output is rebuilt for the fuse MLP's third input block, and
    each branch's backward rebuilds the rest from x.  The fuse MLP's hidden
    gradient dh gives the three blocks of its input's gradient, dh @ W1_b.T,
    and is freed before any branch backward runs.  Each backward is handed
    its block by `blocks.pop()`, so no reference here outlives the callee's
    layout conversion of it.  Both attention backwards add into the point
    branch's dx."""
    x, a_int, a_ext = cache
    cache.clear()
    a_pt = _point_forward(x, point, params.epsilon, params.point_mlp)
    dh, fuse_grads = _mlp_backward(dy, [a_int, a_ext, a_pt], params.fuse_mlp)
    del a_int, a_ext, a_pt
    blocks = [dh @ w1.T for w1 in np.split(params.fuse_mlp.w1, 3)]  # internal, external, point
    del dh
    dx, deps, point_grads = _point_backward(blocks.pop(), x, point, params.epsilon, params.point_mlp)
    ext_grads = _attention_backward(blocks.pop(), x, external, params.external, dx)
    int_grads = _attention_backward(blocks.pop(), x, internal, params.internal, dx)
    grads = SABParams(internal=int_grads, external=ext_grads, point_mlp=point_grads,
                      epsilon=np.array(deps), fuse_mlp=fuse_grads)
    return dx, grads


def _pool_forward(x: np.ndarray, divisor: int, mlp: MLPParams):
    """Column sum of all rows divided by `divisor`, then the pool MLP."""
    parts = [(x.sum(axis=0) / divisor)[None, :]]
    return _mlp_forward(parts, mlp)[0], (x.shape, divisor, parts)


def _pool_backward(dy: np.ndarray, cache, mlp: MLPParams):
    """The gradient of every row is one vector: a read-only broadcast of it."""
    shape, divisor, parts = cache
    dh, mlp_grads = _mlp_backward(dy[None, :], parts, mlp)
    return np.broadcast_to((dh @ mlp.w1.T)[0] / divisor, shape), mlp_grads


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def sparse_attention(state: ProductState, adj: KronAdjacency, params: AttentionParams, heads: int) -> np.ndarray:
    """Attention of every row of `state.x`, m*n rows on adj's grid, over its
    in-neighbours.  The head count is that of `params`; `heads` must agree."""
    if heads != params.attn.shape[0]:
        raise ShapeMismatch(f"heads={heads}, but the parameters have {params.attn.shape[0]} heads")
    return _attention_forward(state.x, adj, params)


def point_update(state: ProductState, point: PointAdjacency, epsilon: float, mlp: MLPParams) -> np.ndarray:
    return _point_forward(state.x, point, np.asarray(epsilon), mlp)


def rgcn_layer(state: ProductState, bundle: ProductGraphBundle, params: RGCNParams) -> ProductState:
    x = state.x
    if x.shape[1] != params.w_self.shape[0]:
        raise ShapeMismatch(
            f"RGCN expects width {params.w_self.shape[0]}, got {x.shape[1]}"
        )
    y = (
        x @ params.w_self
        + bundle.internal.neighbor_sum(x) @ params.w_internal
        + bundle.external.neighbor_sum(x) @ params.w_external
        + bundle.point.gather(x) @ params.w_point
    )
    return ProductState(x=y)


_MARK_BLOCK = 64  # subgraphs per block of gathered mark rows in init_state


def _node_features(g: Graph) -> np.ndarray:
    """g.features, or for a graph without them one column of ones (a broadcast)."""
    return g.features if g.features is not None else np.broadcast_to(1.0, (g.n, 1))


def init_state(
    g: Graph,
    pe: PEMatrix,
    marks: DistanceMatrix,
    mark_table: np.ndarray,
    encoder: EncoderParams,
) -> ProductState:
    """X(s,v) = Linear( feat(v) || pe(s,v) || mark_table[dist(s,v)] ), block by block.

    The state holds the subgraphs s that the marks run from, one (n, d)
    block of rows each, in the marks' order: all n for all-pairs marks, or
    the m subgraphs of a sampling mask for marks from its sources, which
    gives the m*n rows that restrict_rows keeps of the full state.  The
    rows of the encoder weight split at the block widths into W_f, W_pe
    and W_m, so with b the bias

        X(s,v) = (feat W_f + b)[v] + pe(s,v) W_pe + (mark_table W_m)[dist(s,v)]

    The side terms are rows of an n-row and an (n + 1)-row table; the PE
    product is the only m*n-row operation.  Each block of _MARK_BLOCK
    subgraphs reads its PE rows (PEMatrix.runs, which forms the rows of a
    factored PE there, from a slice of the leading factor when the block's
    subgraphs follow on from each other), writes their product with W_pe
    into the state, and adds the feature and mark rows, so no (n^2, k) PE
    and no second (m, n, d) array exists; each entry gets the same
    operations as in one pass over all rows.
    """
    n = g.n
    if pe.rows != n * n:
        raise ShapeMismatch(f"PE has {pe.rows} rows, expected {n * n}")
    if marks.n != n or mark_table.shape[0] != marks.vocabulary:
        raise ShapeMismatch("mark table rows must equal the mark vocabulary")
    feats = _node_features(g)
    width = feats.shape[1] + pe.k + mark_table.shape[1]
    if width != encoder.weight.shape[0]:
        raise ShapeMismatch(f"encoder expects width {encoder.weight.shape[0]}, got {width}")
    w_f, w_pe, w_m = np.split(encoder.weight, [feats.shape[1], feats.shape[1] + pe.k])
    d = encoder.weight.shape[1]
    subgraphs = marks.sources
    x = np.empty((subgraphs.size, n, d))  # x[i, v] is product node (subgraphs[i], v)
    feat_rows = feats @ w_f + encoder.bias
    mark_rows = mark_table @ w_m
    for i in range(0, subgraphs.size, _MARK_BLOCK):
        blk = x[i:i + _MARK_BLOCK]
        np.matmul(pe.runs(subgraphs[i:i + _MARK_BLOCK] * n, n), w_pe, out=blk.reshape(-1, d))
        blk += feat_rows
        blk += mark_rows[marks.dist[i:i + _MARK_BLOCK]]
    return ProductState(x=x.reshape(-1, d))


# ---------------------------------------------------------------------------
# pipeline and gradient checking
# ---------------------------------------------------------------------------


@dataclass
class Pipeline:
    """SAB stack + pooling on a fixed set of adjacencies.

    Works on raw (rows, d) arrays so the same machinery drives both the full
    n^2-row system and row-restricted sampled systems (`sampled`).  Every
    forward and backward pass walks the layers through `_layers`; the
    forward-only methods keep no layer caches.  The scalar objective used by
    loss/grad checking is the sum of the pooled vector.
    """

    internal: KronAdjacency
    external: KronAdjacency
    point: PointAdjacency
    n: int
    layers: list[SABParams]
    pool_mlp: MLPParams
    variant: str = "sum_sum"

    def __post_init__(self):
        grids = self.internal.grid, self.external.grid, self.point.grid
        if not grids[0] == grids[1] == grids[2] == (grids[2][0], self.n):
            raise ShapeMismatch(f"edge types on grids {grids} do not share one (m, {self.n}) grid")
        self._pool_divisor  # refuses an unknown pooling variant at construction

    @property
    def _pool_divisor(self) -> int:
        """The row sum's divisor: 1 for "sum_sum"; n for "mean_sum", even on
        the m*n rows of a sampled system."""
        divisor = {"sum_sum": 1, "mean_sum": self.n}.get(self.variant)
        if divisor is None:
            raise ShapeMismatch(f"unknown pooling variant {self.variant!r}")
        return divisor

    def named_arrays(self):
        return _named(self.layers, ("layers",)) + _named(self.pool_mlp, ("pool_mlp",))

    def sampled(self, mask: product.SamplingMask) -> "Pipeline":
        """This stack on the three edge types restricted to the m*n rows of
        the mask's sampled subgraphs.  Its input rows are init_state's for
        marks from the mask's subgraphs, or product.restrict_rows of an
        n^2-row state.  A full mask reproduces the unsampled system bit for
        bit."""
        return replace(
            self,
            internal=product.restrict_adjacency(self.internal, mask),
            external=product.restrict_adjacency(self.external, mask),
            point=product.restrict_adjacency(self.point, mask),
        )

    def _layers(self, x: np.ndarray, caches: list | None = None) -> np.ndarray:
        """The one walk of the SAB stack.  Each layer's backward cache is
        appended to `caches` when a list is given; otherwise it is dropped
        as soon as the layer returns."""
        for layer in self.layers:
            x, cache = _sab_forward_raw(x, self.internal, self.external, self.point, layer)
            if caches is not None:
                caches.append(cache)
            del cache
        return x

    def stack(self, x0: np.ndarray) -> np.ndarray:
        """Per-row output of the SAB stack, before pooling."""
        return self._layers(x0)

    def pooled(self, x0: np.ndarray) -> np.ndarray:
        """The pooled output of the stack.  pooled keeps no name for x0 while
        the stack runs: `inputs.pop()` hands _layers the reference, and
        _layers rebinds it to layer 0's output.  So a caller that hands over
        its only reference, as run_forward does, gets x0 freed once layer 0
        has run.  That rests on CPython >= 3.11, where a Python-to-Python
        call moves its arguments into the callee's frame.  A caller that
        keeps a reference gets the same result without the saving."""
        inputs = [x0]
        del x0
        out, _ = _pool_forward(self._layers(inputs.pop()), self._pool_divisor, self.pool_mlp)
        return out

    def loss(self, x0: np.ndarray) -> float:
        return float(self.pooled(x0).sum())

    def loss_and_grads(self, x0: np.ndarray):
        caches: list = []
        pooled, pool_cache = _pool_forward(self._layers(x0, caches), self._pool_divisor, self.pool_mlp)
        loss = float(pooled.sum())
        dx, pool_grads = _pool_backward(np.ones_like(pooled), pool_cache, self.pool_mlp)
        layer_grads = []
        for layer in reversed(self.layers):  # each layer's cache is dropped once its backward ran
            dx, layer_grad = _sab_backward_raw(dx, caches.pop(), self.internal, self.external, self.point,
                                               layer)
            layer_grads.insert(0, layer_grad)
        if not self.layers:  # dx is still the pool's read-only broadcast
            dx = dx.copy()
        # a Pipeline of gradients: its names are named_arrays() names by construction
        grads = replace(self, layers=layer_grads, pool_mlp=pool_grads)
        return loss, dict(grads.named_arrays()), dx


GRAD_CHECK_STEP = 1e-5
GRAD_CHECK_TOLERANCE = 1e-4


@dataclass(frozen=True)
class GradCheckReport:
    passed: bool
    max_rel_error: float
    worst_parameter: str
    worst_index: tuple


def grad_check(pipeline: Pipeline, x0: np.ndarray) -> GradCheckReport:
    """Compare the analytic gradients of every parameter and of the input
    x0 against central finite differences of step GRAD_CHECK_STEP.

    Relative error per entry is |a - f| / max(|a|, |f|, 1e-6), and the check
    passes when no entry exceeds GRAD_CHECK_TOLERANCE; the report carries
    the worst offender, a parameter name or "x0", so a corrupted gradient
    can be pinpointed.
    """
    _, grads, dx0 = pipeline.loss_and_grads(x0)
    grads["x0"] = dx0
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NonFiniteGradient(f"gradient of {name} is not finite")
    x0 = np.array(x0, dtype=np.float64)  # a copy: its entries are perturbed like the parameters'
    max_rel = 0.0
    worst_name = ""
    worst_index: tuple = ()
    for name, arr in pipeline.named_arrays() + [("x0", x0)]:
        gflat = grads[name].ravel()
        flat = arr.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + GRAD_CHECK_STEP
            f_plus = pipeline.loss(x0)
            flat[idx] = orig - GRAD_CHECK_STEP
            f_minus = pipeline.loss(x0)
            flat[idx] = orig
            fd = (f_plus - f_minus) / (2.0 * GRAD_CHECK_STEP)
            if not np.isfinite(fd):
                raise NonFiniteGradient(f"finite difference of {name}[{idx}] is not finite")
            rel = abs(gflat[idx] - fd) / max(abs(gflat[idx]), abs(fd), 1e-6)
            if rel > max_rel:
                max_rel = rel
                worst_name = name
                worst_index = np.unravel_index(idx, arr.shape) if arr.shape else ()
    return GradCheckReport(
        passed=max_rel <= GRAD_CHECK_TOLERANCE,
        max_rel_error=max_rel,
        worst_parameter=worst_name,
        worst_index=tuple(int(i) for i in worst_index),
    )


# ---------------------------------------------------------------------------
# end-to-end forward driver
# ---------------------------------------------------------------------------


@dataclass
class ForwardConfig:
    """Knobs of the full forward pass; all defaults deterministic."""

    k: int = 4
    seed: int = 0
    layers: int = 2
    d: int = 8
    heads: int = 4
    pool_variant: str = "sum_sum"
    sample_ratio: float | None = None
    sample_seed: int | None = None


@dataclass
class ForwardModel:
    """All parameters of one forward pass, built from a single seed.

    Draw order is fixed (mark table, encoder, layers in order, pool MLP) so
    that a seed pins every weight.
    """

    mark_table: np.ndarray
    encoder: EncoderParams
    layers: list[SABParams]
    pool_mlp: MLPParams

    def named(self):
        return _named(self)


def build_forward_model(g: Graph, cfg: ForwardConfig) -> ForwardModel:
    """Every parameter of the forward pass, drawn from SplitMix64(cfg.seed).

    The model's values are counted first and drawn as one run of the
    stream (_DrawCursor); each array holds the values that per-array
    uniform_array calls on the raw stream give.
    """
    if min(cfg.k, cfg.d, cfg.heads) < 1 or cfg.layers < 0:
        raise RangeError(f"need k, d, heads >= 1 and layers >= 0, got k={cfg.k}, d={cfg.d}, "
                         f"heads={cfg.heads}, layers={cfg.layers}")
    if cfg.d % cfg.heads:
        raise ShapeMismatch(f"d={cfg.d} not divisible by heads={cfg.heads}")
    d, d_feat = cfg.d, _node_features(g).shape[1]
    # mark table, encoder, layers and pool MLP, counted before any is drawn
    count = (g.n + d_feat + cfg.k + 3 * d + 4) * d + cfg.layers * (12 * d * d + 8 * d + 1)
    if 8 * count > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise ScaleError(f"the model's {count} float64 parameters exceed the machine's memory")
    rng = _DrawCursor(cfg.seed, count)
    mark_table = _uniform_array(rng, (g.n + 1, d), g.n + 1)
    encoder = EncoderParams.from_rng(d_feat + cfg.k + d, d, rng)
    layers = [SABParams.from_rng(d, d, rng, cfg.heads) for _ in range(cfg.layers)]
    pool_mlp = MLPParams.from_rng(d, d, d, rng)
    return ForwardModel(mark_table=mark_table, encoder=encoder, layers=layers, pool_mlp=pool_mlp)


def run_forward(g: Graph, cfg: ForwardConfig, model: ForwardModel | None = None) -> np.ndarray:
    """Pooled output of the SAB stack; deterministic given graph and config.

    The base eigenpairs of the positional encoding always come from the
    full, unsampled graph.  With sampling, ceil(ratio * n) subgraphs S are
    drawn from the seeded stream before anything else is built: the marks
    run BFS from S only, the state is built for the m*n rows of S only
    (their PE rows formed from the PE's factors), and the three adjacencies
    are restricted to those rows, so no n^2-row object exists.  Ratio 1.0
    reproduces the unsampled forward bit for bit.  The stack is handed the
    only reference to the state, so the state is freed once the first layer
    has run (Pipeline.pooled).  Pooling "mean_sum" divides the sum over the
    m*n sampled rows by n, whatever m is.  Parameters large enough to
    overflow float64, in the initial state or later in the stack, raise
    RangeError instead of returning NaN or infinity.
    """
    # product.* and spectral.* are looked up at call time, so that wrappers
    # installed on those modules (profilers, tracers) see every stage.
    if model is None:
        model = build_forward_model(g, cfg)
    bundle = product.build_product_bundle(g)
    pipeline = Pipeline(
        bundle.internal, bundle.external, bundle.point, g.n, model.layers, model.pool_mlp,
        cfg.pool_variant,
    )
    subgraphs = None  # all n
    if cfg.sample_ratio is not None:
        sample_seed = cfg.seed if cfg.sample_seed is None else cfg.sample_seed
        mask = product.SamplingMask.from_ratio(g.n, cfg.sample_ratio, SplitMix64(sample_seed))
        pipeline, subgraphs = pipeline.sampled(mask), mask.sampled
    with np.errstate(over="ignore", invalid="ignore"):  # refused below as one error
        # init_state's arguments and result are temporaries: the PE and the
        # marks go once it returns, and pooled receives the only reference
        # to the state
        pooled = pipeline.pooled(init_state(
            g, spectral.product_pe(g, cfg.k), spectral.node_mark_indices(g, subgraphs),
            model.mark_table, model.encoder).x)
    if not np.isfinite(pooled).all():
        raise RangeError("the pooled output is not finite: the parameters overflow float64")
    return pooled


# ---------------------------------------------------------------------------
# parameter container serialization
# ---------------------------------------------------------------------------


def save_parameters(fileobj: IO[bytes], named: Sequence[tuple[str, np.ndarray]]) -> None:
    """Flat binary container: length-prefixed JSON manifest, then raw f64.

    Layout: uint64 little-endian manifest length, the UTF-8 JSON manifest
    {"arrays": [{"name", "shape"}...]}, then each array's float64 buffer in
    little-endian C order, concatenated in manifest order.
    """
    manifest = json.dumps(
        {"arrays": [{"name": n, "shape": list(a.shape)} for n, a in named]}
    ).encode("utf-8")
    fileobj.write(struct.pack("<Q", len(manifest)))
    fileobj.write(manifest)
    for _, arr in named:
        fileobj.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


_READ_CHUNK = 1 << 24


def _read_exact(fileobj: IO[bytes], count: int, what: str) -> bytes:
    """`count` bytes, or ParseError when the container ends first.  The read
    goes in bounded chunks, so a declared size beyond what the file holds,
    or beyond what one read call accepts, costs no more than the file."""
    chunks = []
    while count > 0:
        chunk = fileobj.read(min(count, _READ_CHUNK))
        if not chunk:
            raise ParseError(f"parameter container truncated at {what}")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def load_parameters(fileobj: IO[bytes]) -> dict[str, np.ndarray]:
    (length,) = struct.unpack("<Q", _read_exact(fileobj, 8, "the manifest length"))
    try:
        manifest = json.loads(_read_exact(fileobj, length, "the manifest").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"bad parameter manifest: {exc}") from exc
    arrays = manifest.get("arrays", []) if isinstance(manifest, dict) else None
    if not isinstance(arrays, list):
        raise ParseError('parameter manifest must be an object with an "arrays" list')
    out: dict[str, np.ndarray] = {}
    for item in arrays:
        entry = item if isinstance(item, dict) else {}
        name, shape = entry.get("name"), entry.get("shape")
        if not (isinstance(name, str) and isinstance(shape, list)
                and all(type(s) is int and s >= 0 for s in shape)):
            raise ParseError(f"bad parameter manifest entry {item!r}: need a name string "
                             "and a shape list of non-negative integers")
        if name in out:
            raise ParseError(f"parameter manifest repeats {name}")
        buf = _read_exact(fileobj, 8 * math.prod(shape), name)
        try:
            arr = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
        except ValueError as exc:  # an empty shape whose other sides overflow numpy's size
            raise ParseError(f"parameter {name} has shape {shape}: {exc}") from exc
        if not np.isfinite(arr).all():
            raise ParseError(f"parameter {name} holds non-finite values")
        out[name] = arr
    return out


def load_into(named: Sequence[tuple[str, np.ndarray]], data: dict[str, np.ndarray]) -> None:
    """Copy loaded arrays into existing parameter storage: the container must
    hold exactly the model's names, each with its shape."""
    names = {name for name, _ in named}
    extra = [name for name in data if name not in names]
    if extra:
        raise ShapeMismatch(f"container holds parameter {extra[0]}, which the model lacks")
    for name, arr in named:
        if name not in data:
            raise ParseError(f"container is missing parameter {name}")
        if data[name].shape != arr.shape:
            raise ShapeMismatch(
                f"{name}: container shape {data[name].shape} != expected {arr.shape}"
            )
        arr[...] = data[name]
