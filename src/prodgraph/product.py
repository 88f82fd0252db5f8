"""Adjacency structures on tuples of nodes.

A graph on n nodes induces a product graph on the n^2 tuples (s, v), where s
indexes the subgraph (one marked root per subgraph) and v the node.  Tuples
flatten as s*n + v, so the LEFT Kronecker factor acts on the s slot:
(A (x) I)((s,v),(s',v')) = A(s,s') * I(v,v').  Three edge types live on this
node set:

  internal  (s,v)-(s,v')  for v ~ v'   == I (x) A   (within one subgraph)
  external  (s,v)-(s',v)  for s ~ s'   == A (x) I   (across subgraphs)
  point     (s,v) <- (v,v)             (each tuple reads its root's row)

The K-tuple generalization replaces pairs with K-tuples: slot j carries
I (x) ... (x) A (x) ... (x) I with A in position j, so internal and external
are the K = 2 slots 1 and 0, and each free slot has its own point adjacency.
All of these are built sparsely from the base edge list, each entry placed
at its row-major position by index arithmetic, so no builder sorts or
dedups: SparseAdjacency's strict-order check is their guard, and
SparseAdjacency.from_pairs, which sorts and dedups, serves arbitrary input
only (union, from_dense, from_coo_text).  Dense matrices
appear only in the oracle builders (kron, cartesian_operator,
k_factor_adjacency, closed_form_cartesian), guarded to n^K <= 4096 product
nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptySample, InvalidInput, RangeError, ScaleError, ValidationError
from .graphs import Graph, SparseAdjacency, check_permutation, complete_graph

MAX_DENSE_PRODUCT_NODES = 4096


@dataclass(frozen=True)
class TupleIndexing:
    """Bijection between [0,n)^k tuples and flat indices [0, n^k).

    flatten((t_1, ..., t_k)) = sum_j t_j * n^(k-j): the first tuple slot is
    the most significant digit, matching row-major Kronecker flattening.
    """

    n: int
    k: int

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise RangeError(f"TupleIndexing needs n, k >= 1, got n={self.n}, k={self.k}")

    @property
    def size(self) -> int:
        return self.n**self.k

    def flatten(self, t: Sequence[int]) -> int:
        if len(t) != self.k:
            raise ValidationError(f"expected a {self.k}-tuple, got {t!r}")
        idx = 0
        for x in t:
            if not 0 <= x < self.n:
                raise ValidationError(f"tuple component {x} out of [0, {self.n})")
            idx = idx * self.n + x
        return idx

    def unflatten(self, idx: int) -> tuple[int, ...]:
        if not 0 <= idx < self.size:
            raise ValidationError(f"flat index {idx} out of [0, {self.size})")
        out = []
        for _ in range(self.k):
            out.append(idx % self.n)
            idx //= self.n
        return tuple(reversed(out))

    def product_permutation(self, perm: Sequence[int]) -> np.ndarray:
        """Flat image of applying a base-node permutation to every slot."""
        perm = np.asarray(check_permutation(perm, self.n), dtype=np.int64)
        shape = (self.n,) * self.k
        return np.ravel_multi_index(tuple(perm[np.indices(shape).reshape(self.k, -1)]), shape)


@dataclass(frozen=True)
class ProductGraphBundle:
    """The three 2-tuple adjacencies of one base graph."""

    internal: SparseAdjacency
    external: SparseAdjacency
    point: SparseAdjacency


def slot_adjacency(g: Graph, tuple_order: int, slot: int) -> SparseAdjacency:
    """I (x) ... (x) A (x) ... (x) I with A in `slot`, 0-indexed from the left.

    Tuples t, t' are adjacent iff they agree everywhere except at `slot`,
    where t[slot] ~ t'[slot] in g.  Entries are built in row-major order:
    left digits, then source, right digits, target.  Within one left-digit
    block, directed edge e (sorted by source, then target) with rank k in
    its source's run of deg entries, starting at first[source], and right
    digits r sits at first[source] * stride + r * deg + k.
    """
    if not 0 <= slot < tuple_order:
        raise RangeError(f"slot {slot} out of [0, {tuple_order})")
    n = g.n
    src, dst = g.directed_edges
    stride = n ** (tuple_order - slot - 1)
    deg = np.bincount(src, minlength=n)[src]
    first = np.searchsorted(src, src)
    rank = np.arange(src.size) - first
    right = np.arange(stride, dtype=np.int64)
    pos = (first * stride + rank)[:, None] + right * deg[:, None]
    block = np.empty((2, pos.size), dtype=np.int64)  # (row, col) of one left-digit block
    block[0][pos] = src[:, None] * stride + right
    block[1][pos] = dst[:, None] * stride + right
    left = np.arange(n**slot, dtype=np.int64)[:, None] * (n * stride)
    entries = np.empty((2, left.size, pos.size), dtype=np.int64)
    np.add(block[:, None, :], left, out=entries)
    size = n**tuple_order
    return SparseAdjacency(rows=size, cols=size, entries=entries.reshape(2, -1).T)


def internal_adjacency(g: Graph) -> SparseAdjacency:
    """Entries ((s,v),(s,v')) for every subgraph s and edge v ~ v'; I (x) A."""
    return slot_adjacency(g, 2, 1)


def external_adjacency(g: Graph) -> SparseAdjacency:
    """Entries ((s,v),(s',v)) for every node v and edge s ~ s'; A (x) I."""
    return slot_adjacency(g, 2, 0)


def point_adjacency(n: int) -> SparseAdjacency:
    """Row (s,v) has its single entry at column (v,v); asymmetric, nnz = n^2."""
    return k_point_adjacency(n, 2, 1)


def cartesian_product_adjacency(g: Graph) -> SparseAdjacency:
    """Union of internal and external entries; equals A (x) I + I (x) A."""
    return internal_adjacency(g).union(external_adjacency(g))


def build_product_bundle(g: Graph) -> ProductGraphBundle:
    return ProductGraphBundle(
        internal=internal_adjacency(g),
        external=external_adjacency(g),
        point=point_adjacency(g.n),
    )


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product: (a (x) b)[(i,j),(i',j')] = a[i,i'] * b[j,j']."""
    a = np.asarray(a)
    b = np.asarray(b)
    p, q = a.shape
    r, s = b.shape
    return np.einsum("ik,jl->ijkl", a, b).reshape(p * r, q * s)


def _check_hollow_symmetric(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"adjacency must be square, got shape {a.shape}")
    if np.diagonal(a).any():
        raise InvalidInput("adjacency has self loops")
    if not np.array_equal(a, a.T):
        raise InvalidInput("adjacency is not symmetric")
    return a.astype(np.int8)


def check_scale(n: int, k: int) -> int:
    """n^k, or ScaleError when it exceeds MAX_DENSE_PRODUCT_NODES."""
    size = n**k
    if size > MAX_DENSE_PRODUCT_NODES:
        raise ScaleError(
            f"n^k = {n}^{k} = {size} exceeds the {MAX_DENSE_PRODUCT_NODES}-node guard"
        )
    return size


def cartesian_operator(a: np.ndarray, k: int) -> np.ndarray:
    """K-fold Cartesian power adjacency, built from the recursion
    C^k(A) = C^(k-1)(A) (x) I_n + I_(n^(k-1)) (x) A, with C^1(A) = A.
    """
    if k < 1:
        raise RangeError(f"tuple order must be >= 1, got {k}")
    a = _check_hollow_symmetric(a)
    n = a.shape[0]
    check_scale(n, k)
    out = a
    eye_n = np.eye(n, dtype=np.int8)
    for j in range(2, k + 1):
        out = kron(out, eye_n) + kron(np.eye(n ** (j - 1), dtype=np.int8), a)
    return out


def k_factor_adjacency(a: np.ndarray, k: int, tuple_order: int) -> np.ndarray:
    """I (x) ... (x) A (x) ... (x) I with A in slot k, 0-indexed from the left."""
    if not 0 <= k < tuple_order:
        raise RangeError(f"slot {k} out of [0, {tuple_order})")
    a = _check_hollow_symmetric(a)
    n = a.shape[0]
    check_scale(n, tuple_order)
    left = np.eye(n**k, dtype=np.int8)
    right = np.eye(n ** (tuple_order - k - 1), dtype=np.int8)
    return kron(kron(left, a), right)


def closed_form_cartesian(a: np.ndarray, tuple_order: int) -> np.ndarray:
    """Sum of the single-slot adjacencies over all slots.

    Without self loops the slot entry sets are pairwise disjoint, so the sum
    stays binary and equals cartesian_operator(a, tuple_order) entrywise.
    """
    if tuple_order < 1:
        raise RangeError(f"tuple order must be >= 1, got {tuple_order}")
    a = _check_hollow_symmetric(a)
    n = a.shape[0]
    size = check_scale(n, tuple_order)
    out = np.zeros((size, size), dtype=np.int8)
    for k in range(tuple_order):
        out += k_factor_adjacency(a, k, tuple_order)
    if out.max(initial=0) > 1:
        raise InvalidInput("slot sum exceeded 1; input cannot be loop-free")
    return out


def k_point_adjacency(n: int, tuple_order: int, i: int) -> SparseAdjacency:
    """Point update for K-tuples with free slot i (1-indexed).

    Entry ((v_1..v_K), (v'_1..v'_K)) is 1 iff the target is a root tuple,
    v'_1 = ... = v'_K = c, and every source slot except slot i equals c.
    For K = 2, i = 1 this is point_adjacency(n); nnz = n^2.  Entries are
    built in row-major order: by (c, c') for i > 1, where the leading digit
    is c, and by (c', c) for i = 1, where it is the free value c'.
    """
    if n < 1:
        raise RangeError(f"node count must be >= 1, got {n}")
    if not 1 <= i <= tuple_order:
        raise RangeError(f"slot {i} out of [1, {tuple_order}]")
    c = np.arange(n, dtype=np.int64)
    stride = n ** (tuple_order - i)
    root = c * sum(n**j for j in range(tuple_order))  # flatten((c, ..., c))
    # Source rows: root tuple (c, ..., c) with slot i overwritten by every value c' in [0, n).
    rows = (root - c * stride)[:, None] + c[None, :] * stride
    cols = np.broadcast_to(root[:, None], rows.shape)
    if i == 1:  # c' is the leading digit, so the rows ascend in (c', c) order
        rows, cols = rows.T, cols.T
    size = n**tuple_order
    return SparseAdjacency(rows=size, cols=size, entries=np.array([rows.ravel(), cols.ravel()]).T)


def global_adjacencies(n: int) -> tuple[SparseAdjacency, SparseAdjacency]:
    """Clique-derived connectivities: (I (x) (J - I),  (J - I) (x) I).

    These are the internal and external adjacencies of the complete graph
    K_n: (s,v)-(s,v') for all v != v', and (s,v)-(s',v) for all s != s'.
    Each has nnz = n^2 (n-1).
    """
    if n < 1:
        raise RangeError(f"node count must be >= 1, got {n}")
    clique = complete_graph(n)
    return internal_adjacency(clique), external_adjacency(clique)


@dataclass(frozen=True)
class SamplingMask:
    """Subset of subgraph indices kept by stochastic sampling."""

    n: int
    sampled: tuple[int, ...]

    def __post_init__(self):
        kept = tuple(sorted(set(self.sampled)))
        if not kept:
            raise EmptySample("sampling mask keeps zero subgraphs")
        if kept[0] < 0 or kept[-1] >= self.n:
            raise ValidationError(f"sampled indices out of [0, {self.n})")
        object.__setattr__(self, "sampled", kept)

    @classmethod
    def full(cls, n: int) -> "SamplingMask":
        return cls(n=n, sampled=tuple(range(n)))

    @classmethod
    def from_ratio(cls, n: int, ratio: float, rng) -> "SamplingMask":
        """ceil(ratio * n) subgraphs chosen uniformly without replacement."""
        if not (math.isfinite(ratio) and ratio <= 1.0):
            raise RangeError(f"sampling ratio must be finite and <= 1, got {ratio}")
        count = math.ceil(ratio * n)
        if count <= 0:
            raise EmptySample(f"ratio {ratio} keeps ceil({ratio} * {n}) = 0 subgraphs")
        return cls(n=n, sampled=tuple(rng.sample_without_replacement(n, count)))


def _sampled_entries(adj: SparseAdjacency, mask: SamplingMask) -> np.ndarray:
    """The entries whose row and column subgraphs are sampled.

    The adjacency must be square on the mask's n^2 product nodes.  A boolean
    subset of row-major entries keeps their order, so the result is still
    sorted and unique.  It is selected from the (2, nnz) view of the
    column-major entries, so it comes out column-major too.
    """
    n = mask.n
    if adj.rows != n * n or adj.cols != n * n:
        raise ValidationError(f"mask is for {n * n} product nodes, adjacency is {adj.rows}x{adj.cols}")
    is_sampled = np.zeros(n, dtype=bool)
    is_sampled[np.asarray(mask.sampled, dtype=np.int64)] = True
    keep = is_sampled[adj.entries[:, 0] // n] & is_sampled[adj.entries[:, 1] // n]
    return adj.entries.T[:, keep].T


def apply_sampling_mask(adj: SparseAdjacency, mask: SamplingMask) -> SparseAdjacency:
    """Keep entry ((s,v),(s',v')) iff both s and s' are sampled."""
    entries = _sampled_entries(adj, mask)
    if entries.shape[0] == adj.nnz:
        return adj
    return SparseAdjacency(rows=adj.rows, cols=adj.cols, entries=entries)


def restrict_adjacency(adj: SparseAdjacency, mask: SamplingMask) -> SparseAdjacency:
    """Masked adjacency reindexed onto the m*n sampled product nodes.

    Subgraph s maps to its rank within mask.sampled; node indices are kept.
    With a full mask this is the identity reindexing.  The rank map is
    strictly increasing, so the reindexed entries stay row-major sorted.
    """
    n = mask.n
    entries = _sampled_entries(adj, mask)
    kept = np.asarray(mask.sampled, dtype=np.int64)
    m = kept.size
    rank = np.zeros(n, dtype=np.int64)
    rank[kept] = np.arange(m, dtype=np.int64)
    reindexed = rank[entries // n] * n + entries % n
    return SparseAdjacency(rows=m * n, cols=m * n, entries=reindexed)


def restrict_rows(x: np.ndarray, mask: SamplingMask) -> np.ndarray:
    """Rows of an (n^2, d) product-node matrix for sampled subgraphs only.

    Row s*n + v is entry (s, v) of the (n, n, d) view, so this is a slice of
    the subgraph axis: the m sampled (n, d) blocks, in mask order.
    """
    n = mask.n
    if x.shape[0] != n * n:
        raise ValidationError(f"expected {n * n} rows, got {x.shape[0]}")
    sampled = np.asarray(mask.sampled, dtype=np.int64)
    d = x.shape[1]
    return x.reshape(n, n, d)[sampled].reshape(sampled.size * n, d)
