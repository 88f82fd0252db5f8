"""Test-side code the library does not carry.

Readers of the COO and PE text the CLI writes, kept here because nothing
in the program reads those files back, and the encoder's concatenation
formula, the reference for the block-by-block `init_state`.
"""

import numpy as np

from prodgraph import SparseAdjacency
from prodgraph.spectral import PEMatrix


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
    return PEMatrix(data=data, eigenvalues=np.array(labels.split(), dtype=np.float64))


def entry_set(adj: SparseAdjacency) -> set[tuple[int, int]]:
    return {(int(r), int(c)) for r, c in adj.entries}


def concatenated_state(g, pe, marks, mark_table, encoder) -> np.ndarray:
    """X(s,v) = Linear( feat(v) || pe(s,v) || mark_table[dist(s,v)] ) over
    the (n*n, d_feat + k + d_mark) concatenation of the three blocks."""
    n = g.n
    feats = g.features if g.features is not None else np.ones((n, 1))
    node_part = np.tile(feats, (n, 1))  # row s*n + v carries feat(v)
    mark_part = mark_table[marks.dist.ravel()]  # row s*n + v carries mark dist(s, v)
    return np.hstack([node_part, pe.data, mark_part]) @ encoder.weight + encoder.bias
