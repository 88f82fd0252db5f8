"""Brute-force K-tuple adjacencies and PEs, enumerated from their definitions.

The adjacency references share no index arithmetic with the library: every
tuple is decoded with `unflatten`, edited as a Python tuple, and encoded
again with `flatten`, a scalar digit loop kept here rather than in the
library.  The PE reference sorts every one of the n^K index tuples, which
the library's sort of the candidate tuples must reproduce byte for byte.
"""

import numpy as np

from prodgraph import PointAdjacency, SparseAdjacency, eig_sym, laplacian


def flatten(t, n):
    """sum_j t_j * n^(K-j): the first tuple slot is the most significant
    digit, matching row-major Kronecker flattening."""
    idx = 0
    for x in t:
        idx = idx * n + x
    return idx


def unflatten(idx, n, tuple_order):
    """The inverse of `flatten` on [0, n^K)."""
    out = []
    for _ in range(tuple_order):
        out.append(idx % n)
        idx //= n
    return tuple(reversed(out))


def slot_pairs(g, tuple_order, slot):
    """(t, t') where t' is t with t[slot] moved along one base edge."""
    n = g.n
    nbrs = g.neighbors()
    pairs = []
    for idx in range(n**tuple_order):
        t = unflatten(idx, n, tuple_order)
        for w in nbrs[t[slot]]:
            pairs.append((idx, flatten(t[:slot] + (w,) + t[slot + 1:], n)))
    return pairs


def point_pairs(n, tuple_order, i):
    """(t, (c, ..., c)) whenever every slot of t except slot i (1-indexed) is c."""
    pairs = []
    for idx in range(n**tuple_order):
        t = unflatten(idx, n, tuple_order)
        rest = t[:i - 1] + t[i:]
        for c in range(n):
            if all(x == c for x in rest):
                pairs.append((idx, flatten((c,) * tuple_order, n)))
    return pairs


def reference_adjacency(n, tuple_order, pairs):
    size = n**tuple_order
    return SparseAdjacency.from_pairs(size, size, pairs)


def factored_adjacency(adj):
    """The m*n x m*n COO matrix of a factored edge type, entry by entry.

    A KronAdjacency entry moves the grid coordinate on its axis along one
    base edge and keeps the other; a PointAdjacency sends row (s, v) to
    (rank v, v) for every v in its sampled set.
    """
    m, n = adj.grid
    pairs = []
    if isinstance(adj, PointAdjacency):
        rank = {v: i for i, v in enumerate(adj.sampled.tolist())}
        pairs = [(s * n + v, rank[v] * n + v) for s in range(m) for v in rank]
    else:
        for u, w in zip(adj.src.tolist(), adj.dst.tolist()):
            for b in range(adj.grid[1 - adj.axis]):
                (s, v), (s2, v2) = ((b, u), (b, w)) if adj.axis else ((u, b), (w, b))
                pairs.append((s * n + v, s2 * n + v2))
    return SparseAdjacency.from_pairs(m * n, m * n, pairs)


def full_enumeration_tuple_pe(g, tuple_order, k):
    """(data, eigenvalues) of the first k K-tuple PE columns, every one of
    the n^K base index tuples a candidate, sorted by (label, t1, ..., tK)."""
    base = eig_sym(laplacian(g))
    lam = base.values
    tuples = [t.ravel() for t in np.indices((g.n,) * tuple_order)]
    labels = lam[tuples[0]]
    for t in tuples[1:]:
        labels = labels + lam[t]
    order = np.lexsort((*tuples[::-1], labels))[:k]
    data = base.vectors[:, tuples[0][order]]
    for t in tuples[1:]:
        factor = base.vectors[:, t[order]]
        data = (data[:, None, :] * factor[None, :, :]).reshape(-1, k)
    return data, labels[order]
