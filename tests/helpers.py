"""Test-side code the library does not carry.

Readers of the COO and PE text the CLI writes, kept here because nothing
in the program reads those files back; three concatenation formulas: the
concatenation PE's, the reference for its two factor blocks, the
encoder's, the reference for the block-by-block `init_state`, and the
MLP's, the reference for the MLP of column blocks; and `traced_peak`, the
memory probe of the peak-memory tests.
"""

import tracemalloc

import numpy as np

from prodgraph import MLPParams, SparseAdjacency
from prodgraph.spectral import PEMatrix, base_eigenpairs


def read_coo(text: str) -> SparseAdjacency:
    """'rows cols nnz', then one 'row col' line per entry, in the sorted,
    deduplicated order that SparseAdjacency checks on construction."""
    header, *lines = text.splitlines()
    rows, cols, nnz = (int(x) for x in header.split())
    entries = np.array([ln.split() for ln in lines], dtype=np.int64).reshape(-1, 2)
    assert len(entries) == nnz, f"header says {nnz} entries, text has {len(entries)}"
    return SparseAdjacency(rows, cols, entries)


def read_pe(text: str) -> PEMatrix:
    """'rows k', one line of k labels, then `rows` lines of k values."""
    header, labels, *lines = text.splitlines()
    rows, k = (int(x) for x in header.split())
    data = np.array([ln.split() for ln in lines], dtype=np.float64).reshape(-1, k)
    assert data.shape == (rows, k), f"header says {(rows, k)}, text has {data.shape}"
    return PEMatrix(factors=[data], eigenvalues=np.array(labels.split(), dtype=np.float64))


def entry_set(adj: SparseAdjacency) -> set[tuple[int, int]]:
    return {(int(r), int(c)) for r, c in adj.entries}


def concatenated_pe(g, k: int) -> np.ndarray:
    """Row s*n + v = [U_s || U_v] over the first k base eigenvectors U, as
    the (n*n, 2k) array the concatenation PE once built."""
    u = base_eigenpairs(g, k).vectors
    return np.hstack([np.repeat(u, g.n, axis=0), np.tile(u, (g.n, 1))])


def concatenated_state(g, pe, marks, mark_table, encoder) -> np.ndarray:
    """X(s,v) = Linear( feat(v) || pe(s,v) || mark_table[dist(s,v)] ) over
    the (n*n, d_feat + k + d_mark) concatenation of the three blocks."""
    n = g.n
    feats = g.features if g.features is not None else np.ones((n, 1))
    node_part = np.tile(feats, (n, 1))  # row s*n + v carries feat(v)
    mark_part = mark_table[marks.dist.ravel()]  # row s*n + v carries mark dist(s, v)
    return np.hstack([node_part, pe.data, mark_part]) @ encoder.weight + encoder.bias


def concatenated_mlp(parts, p: MLPParams):
    """relu(hstack(parts) @ W1 + b1) @ W2 + b2, and its (input, activation) cache."""
    x = np.hstack(parts)
    h = x @ p.w1 + p.b1
    act = h * (h > 0.0)
    return act @ p.w2 + p.b2, (x, act)


def concatenated_mlp_backward(dy, cache, p: MLPParams):
    """The gradient of the concatenated input, and the parameters' gradients."""
    x, act = cache
    dh = (dy @ p.w2.T) * (act > 0.0)
    grads = MLPParams(w1=x.T @ dh, b1=dh.sum(axis=0), w2=act.T @ dy, b2=dy.sum(axis=0))
    return dh @ p.w1.T, grads


def traced_peak(fn):
    """(fn(), the peak of the bytes tracemalloc traced while fn ran)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak
