"""Brute-force K-tuple adjacencies, enumerated tuple by tuple from their definitions.

These references share no index arithmetic with the library: every tuple is
decoded with `unflatten`, edited as a Python tuple, and encoded again with
`flatten`, a scalar digit loop kept here rather than in the library.
"""

from prodgraph import SparseAdjacency


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
