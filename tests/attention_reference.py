"""Row-major (E, heads) sparse attention, forward and backward, as a reference.

This is the entry-major kernel the library ran before its attention arrays
became channel-major: scores and weights are (E, heads) arrays, gathered
values and messages (E, heads, head_dim), the softmax segments are derived
from the receiver column on every call, and every scatter is np.add.at,
which adds in entry order.  It shares no array code with prodgraph.model;
tests require the library's kernels to give the same bits.
"""

import numpy as np

from prodgraph import AttentionParams

LEAKY_SLOPE = 0.2


def _scatter(index, vals, size):
    out = np.zeros((size,) + vals.shape[1:])
    np.add.at(out, index, vals)
    return out


def _segments(rows):
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    counts = np.diff(np.r_[starts, rows.size])
    return starts, counts


def _score_maps(p, heads):
    d_in, d_out = p.w_query.shape
    hd = d_out // heads
    m_q = np.einsum("dhk,hk->dh", p.w_query.reshape(d_in, heads, hd), p.attn[:, :hd])
    m_k = np.einsum("dhk,hk->dh", p.w_key.reshape(d_in, heads, hd), p.attn[:, hd:])
    return m_q, m_k


def attention_forward(x, adj, p, heads):
    """(rows, d_out) output and the backward cache; cache["alpha"] is (E, heads)."""
    rows_n, d_in = x.shape
    d_out = p.w_query.shape[1]
    hd = d_out // heads
    v = (x @ p.w_value).reshape(rows_n, heads, hd)
    r = adj.entries[:, 0]
    c = adj.entries[:, 1]
    m_q, m_k = _score_maps(p, heads)
    z = np.take(x @ m_q, r, axis=0) + np.take(x @ m_k, c, axis=0)
    e = np.where(z > 0.0, z, LEAKY_SLOPE * z)
    starts, counts = _segments(r)
    shifted = e - np.repeat(np.maximum.reduceat(e, starts, axis=0), counts, axis=0)
    ex = np.exp(shifted)
    alpha = ex / np.repeat(np.add.reduceat(ex, starts, axis=0), counts, axis=0)
    out = _scatter(r, alpha[:, :, None] * np.take(v, c, axis=0), rows_n)
    cache = dict(x=x, adj=adj, v=v, z=z, alpha=alpha, starts=starts, counts=counts)
    return out.reshape(rows_n, d_out), cache


def attention_backward(dout, cache, p):
    """(dx, AttentionParams of gradients) for the upstream gradient dout."""
    x, adj, v, z, alpha = (cache[k] for k in ("x", "adj", "v", "z", "alpha"))
    starts, counts = cache["starts"], cache["counts"]
    rows_n, heads, hd = v.shape
    d_in, d_out = p.w_query.shape
    r = adj.entries[:, 0]
    c = adj.entries[:, 1]
    dout_r = np.take(dout.reshape(rows_n, heads, hd), r, axis=0)
    dalpha = np.einsum("ehd,ehd->eh", dout_r, np.take(v, c, axis=0))
    dv = _scatter(c, alpha[:, :, None] * dout_r, rows_n).reshape(rows_n, d_out)
    weighted = alpha * dalpha
    seg = np.repeat(np.add.reduceat(weighted, starts, axis=0), counts, axis=0)
    dz = alpha * (dalpha - seg)
    dz = dz * np.where(z > 0.0, 1.0, LEAKY_SLOPE)
    dz_r = _scatter(r, dz, rows_n)
    dz_c = _scatter(c, dz, rows_n)
    dm_q = x.T @ dz_r
    dm_k = x.T @ dz_c
    w_q = p.w_query.reshape(d_in, heads, hd)
    w_k = p.w_key.reshape(d_in, heads, hd)
    grads = AttentionParams(
        w_query=(dm_q[..., None] * p.attn[:, :hd]).reshape(d_in, d_out),
        w_key=(dm_k[..., None] * p.attn[:, hd:]).reshape(d_in, d_out),
        w_value=x.T @ dv,
        attn=np.hstack([np.einsum("dhk,dh->hk", w_q, dm_q),
                        np.einsum("dhk,dh->hk", w_k, dm_k)]),
    )
    m_q, m_k = _score_maps(p, heads)
    dx = dz_r @ m_q.T + dz_c @ m_k.T + dv @ p.w_value.T
    return dx, grads
