"""Brute-force K-tuple adjacencies, enumerated tuple by tuple from their definitions.

These references share no index arithmetic with the sparse builders: every
tuple is decoded with TupleIndexing.unflatten, edited as a Python tuple, and
encoded again with flatten.
"""

from prodgraph import SparseAdjacency, TupleIndexing


def slot_pairs(g, tuple_order, slot):
    """(t, t') where t' is t with t[slot] moved along one base edge."""
    ti = TupleIndexing(g.n, tuple_order)
    nbrs = g.neighbors()
    pairs = []
    for idx in range(ti.size):
        t = ti.unflatten(idx)
        for w in nbrs[t[slot]]:
            pairs.append((idx, ti.flatten(t[:slot] + (w,) + t[slot + 1:])))
    return pairs


def point_pairs(n, tuple_order, i):
    """(t, (c, ..., c)) whenever every slot of t except slot i (1-indexed) is c."""
    ti = TupleIndexing(n, tuple_order)
    pairs = []
    for idx in range(ti.size):
        t = ti.unflatten(idx)
        rest = t[:i - 1] + t[i:]
        for c in range(n):
            if all(x == c for x in rest):
                pairs.append((idx, ti.flatten((c,) * tuple_order)))
    return pairs


def reference_adjacency(n, tuple_order, pairs):
    size = n**tuple_order
    return SparseAdjacency.from_pairs(size, size, pairs)
