"""Adjacency structures on tuples of nodes.

A graph on n nodes induces a product graph on the n^2 tuples (s, v), where s
indexes the subgraph (one marked root per subgraph) and v the node.  Tuples
flatten as s*n + v, so the LEFT Kronecker factor acts on the s slot:
(A (x) I)((s,v),(s',v')) = A(s,s') * I(v,v').  Three edge types live on this
node set:

  internal  (s,v)-(s,v')  for v ~ v'   == I (x) A   (within one subgraph)
  external  (s,v)-(s',v)  for s ~ s'   == A (x) I   (across subgraphs)
  point     (s,v) <- (v,v)             (each tuple reads its root's row)

Each edge type has one implementation: internal and external are one
KronAdjacency type (the base factor acting along the node or the subgraph
axis of the (m, n) grid of m kept subgraphs by n nodes, or along axis j for
slot j of a K-tuple) and point is PointAdjacency.  The model runs them
factored, and sampling keeps m subgraphs without touching an array of n^2
entries.  The COO matrices of `build-product`, `sample` and the oracles are
their to_sparse() expansions; only the K > 2 point type (k_point_adjacency)
is built on its own.  Each COO builder places every entry at its row-major
position by index arithmetic, so none sorts or dedups:
SparseAdjacency's strict-order check is their guard.  Dense matrices appear
only in the oracle builders (kron, cartesian_operator, k_factor_adjacency,
closed_form_cartesian), guarded to n^K <= 4096 product nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import EmptySample, InvalidInput, RangeError, ScaleError, ValidationError
from .graphs import Graph, SparseAdjacency, check_permutation

MAX_DENSE_PRODUCT_NODES = 4096


def product_permutation(perm: Sequence[int]) -> np.ndarray:
    """Flat image of applying a base-node permutation to both slots of every
    pair: product node s*n + v moves to perm[s]*n + perm[v], n = len(perm)."""
    n = len(perm)
    perm = np.asarray(check_permutation(perm, n), dtype=np.int64)
    return (perm[:, None] * n + perm).ravel()


class DegreeBucket(NamedTuple):
    """The receivers of one in-degree k of a base factor."""

    nodes: np.ndarray  # (r,) receivers, ascending
    senders: np.ndarray  # (r, k) each receiver's senders, ascending
    reverse: np.ndarray  # (r, k) edge-order position of each edge's reverse
    edges: slice  # the bucket's r * k positions in edge order

    def view(self, a: np.ndarray) -> np.ndarray:
        """The bucket's (r, k, ...) rows of an (E, ...) array in edge order."""
        return a[self.edges].reshape(self.senders.shape + a.shape[1:])


@dataclass(frozen=True)
class KronAdjacency:
    """I (x) ... (x) A (x) ... (x) I on a K-axis `grid`, A along `axis`: on
    the (m, n) grid, I_m (x) A (`axis` 1) or A_S (x) I_n (`axis` 0).

    The base factor is a symmetric adjacency on grid[axis] nodes, held as
    its directed edges (src receives from dst) sorted by (src, dst).  A row
    of a (prod(grid), d) state receives from the rows that differ from it
    only along `axis`, by one base edge; the other axes are batch axes.
    """

    src: np.ndarray
    dst: np.ndarray
    axis: int
    grid: tuple[int, ...]

    @cached_property
    def _split(self) -> tuple[int, int, int]:
        """(left, size, right): the grid axes before, at and after `axis`, flattened."""
        return (math.prod(self.grid[:self.axis]), self.grid[self.axis],
                math.prod(self.grid[self.axis + 1:]))

    @property
    def nnz(self) -> int:
        """Entries of the matrix: one per base edge and batch index."""
        return self.src.size * math.prod(self.grid) // self.grid[self.axis]

    @cached_property
    def buckets(self) -> tuple[DegreeBucket, ...]:
        """Receivers grouped by degree, ascending, built once in O(|E| log |E|).

        Edge order is bucket order: buckets by degree, receivers, senders.
        The reverse of edge (u <- w) is (w <- u), found by key search, which
        exists because the base factor is symmetric.
        """
        size = self.grid[self.axis]
        deg = np.bincount(self.src, minlength=size)[self.src]
        order = np.argsort(deg, kind="stable")  # edges already sorted by (src, dst)
        position = np.empty_like(order)
        position[order] = np.arange(order.size)
        reverse = position[np.searchsorted(self.src * size + self.dst, self.dst * size + self.src)]
        src, dst, reverse, deg = self.src[order], self.dst[order], reverse[order], deg[order]
        starts = np.flatnonzero(np.diff(deg, prepend=-1))
        return tuple(DegreeBucket(src[a:b:deg[a]], dst[a:b].reshape(-1, deg[a]),
                                  reverse[a:b].reshape(-1, deg[a]), slice(a, b))
                     for a, b in zip(starts, np.r_[starts[1:], deg.size]))

    def node_major(self, a: np.ndarray) -> np.ndarray:
        """(rows, ...) as a contiguous (size, left * right, ...) array: the
        (left, size, right, ...) view with its first two axes swapped."""
        left, size, right = self._split
        a = np.ascontiguousarray(a.reshape((left, size, right) + a.shape[1:]).swapaxes(0, 1))
        return a.reshape((size, left * right) + a.shape[3:])

    def grid_rows(self, a: np.ndarray) -> np.ndarray:
        """The inverse of node_major: back to (rows, ...)."""
        left, size, right = self._split
        a = a.reshape((size, left, right) + a.shape[2:]).swapaxes(0, 1)
        return a.reshape((-1,) + a.shape[3:])

    def neighbor_sum(self, x: np.ndarray) -> np.ndarray:
        """The matrix times x: each row's sum over its in-neighbours' rows."""
        xq = self.node_major(x)
        out = np.zeros_like(xq)
        for b in self.buckets:
            out[b.nodes] = np.take(xq, b.senders, axis=0).sum(axis=1)
        return self.grid_rows(out)

    def to_sparse(self) -> SparseAdjacency:
        """The matrix as COO, built in row-major order: left index, then
        source, right index, target.  Within one left block, directed edge e
        (sorted by source, then target) with rank k in its source's run of
        deg entries, starting at first[source], and right index r sits at
        first[source] * right + r * deg + k."""
        left, size, right = self._split
        src, dst = self.src, self.dst
        deg = np.bincount(src, minlength=size)[src]
        first = np.searchsorted(src, src)
        rank = np.arange(src.size) - first
        r = np.arange(right, dtype=np.int64)
        pos = (first * right + rank)[:, None] + r * deg[:, None]
        block = np.empty((2, pos.size), dtype=np.int64)  # (row, col) of one left block
        block[0][pos] = src[:, None] * right + r
        block[1][pos] = dst[:, None] * right + r
        offsets = np.arange(left, dtype=np.int64)[:, None] * (size * right)
        entries = np.empty((2, left, pos.size), dtype=np.int64)
        np.add(block[:, None, :], offsets, out=entries)
        rows = left * size * right
        return SparseAdjacency(rows=rows, cols=rows, entries=entries.reshape(2, -1).T)


@dataclass(frozen=True)
class PointAdjacency:
    """Row (s, v) reads root row (rank v, v) when v is in the sampled set S,
    the ascending `sampled` of n nodes, and nothing otherwise; m = |S|."""

    sampled: np.ndarray
    n: int

    @property
    def grid(self) -> tuple[int, int]:
        return self.sampled.size, self.n

    @property
    def nnz(self) -> int:
        return self.sampled.size ** 2

    def gather(self, x: np.ndarray) -> np.ndarray:
        """The matrix times x: each row's root row, or zeros."""
        m = self.sampled.size
        x3 = x.reshape(m, self.n, -1)
        out = np.zeros_like(x3)
        out[:, self.sampled] = x3[np.arange(m), self.sampled]
        return out.reshape(x.shape)

    def add_transposed(self, y: np.ndarray, out: np.ndarray) -> None:
        """out += the transposed matrix times y, in place: each root row
        (rank v, v) gains the rows (s, v) that read it.  `out` is C-contiguous."""
        m = self.sampled.size
        roots = y.reshape(m, self.n, -1)[:, self.sampled].sum(axis=0)
        out.reshape(m, self.n, -1)[np.arange(m), self.sampled] += roots

    def to_sparse(self) -> SparseAdjacency:
        """The matrix as COO: one entry per row (s, v) with v in S, in row order."""
        m, n = self.grid
        roots = np.arange(m, dtype=np.int64) * n + self.sampled
        rows = (np.arange(m, dtype=np.int64)[:, None] * n + self.sampled).ravel()
        return SparseAdjacency(rows=m * n, cols=m * n, entries=np.array([rows, np.tile(roots, m)]).T)


@dataclass(frozen=True)
class ProductGraphBundle:
    """The three 2-tuple edge types of one base graph, factored."""

    internal: KronAdjacency
    external: KronAdjacency
    point: PointAdjacency


def slot_adjacency(g: Graph, tuple_order: int, slot: int) -> SparseAdjacency:
    """I (x) ... (x) A (x) ... (x) I with A in `slot`, 0-indexed from the left.

    Tuples t, t' are adjacent iff they agree everywhere except at `slot`,
    where t[slot] ~ t'[slot] in g: the expansion of the KronAdjacency on
    the n^K grid with A on axis `slot`.
    """
    if not 0 <= slot < tuple_order:
        raise RangeError(f"slot {slot} out of [0, {tuple_order})")
    return KronAdjacency(*g.directed_edges, slot, (g.n,) * tuple_order).to_sparse()


def internal_adjacency(g: Graph) -> SparseAdjacency:
    """Entries ((s,v),(s,v')) for every subgraph s and edge v ~ v'; I (x) A."""
    return slot_adjacency(g, 2, 1)


def external_adjacency(g: Graph) -> SparseAdjacency:
    """Entries ((s,v),(s',v)) for every node v and edge s ~ s'; A (x) I."""
    return slot_adjacency(g, 2, 0)


def point_adjacency(n: int) -> SparseAdjacency:
    """Row (s,v) has its single entry at column (v,v); asymmetric, nnz = n^2."""
    if n < 1:
        raise RangeError(f"node count must be >= 1, got {n}")
    return PointAdjacency(np.arange(n), n).to_sparse()


def cartesian_product_adjacency(g: Graph) -> SparseAdjacency:
    """Union of internal and external entries; equals A (x) I + I (x) A."""
    return internal_adjacency(g).union(external_adjacency(g))


def build_product_bundle(g: Graph) -> ProductGraphBundle:
    """Internal, external and point on g's n x n grid: all n subgraphs kept."""
    src, dst = g.directed_edges
    grid = (g.n, g.n)
    return ProductGraphBundle(internal=KronAdjacency(src, dst, 1, grid),
                              external=KronAdjacency(src, dst, 0, grid),
                              point=PointAdjacency(np.arange(g.n), g.n))


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
    """n^k, or ScaleError when it exceeds MAX_DENSE_PRODUCT_NODES.

    K above log2(MAX_DENSE_PRODUCT_NODES) is refused before the power is
    taken: for n >= 2 it fails the node guard anyway, and n^K of an
    outside K could take unbounded time and memory to compute.
    """
    max_order = MAX_DENSE_PRODUCT_NODES.bit_length() - 1
    if k > max_order:
        raise ScaleError(f"tuple order {k} exceeds {max_order} = log2 of the "
                         f"{MAX_DENSE_PRODUCT_NODES}-node guard")
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


def restrict_adjacency(adj: KronAdjacency | PointAdjacency, mask: SamplingMask):
    """An edge type of the n x n grid restricted to the mask's m subgraphs,
    renumbered by rank: I_m (x) A, A_S (x) I_n with A induced on S, or point
    on S.  The rank map ascends, so induced edges stay sorted, and a full
    mask gives arrays equal to the unrestricted ones."""
    n = mask.n
    if adj.grid != (n, n):
        raise ValidationError(f"mask is for a {n} x {n} grid, adjacency is on {adj.grid}")
    kept = np.asarray(mask.sampled, dtype=np.int64)
    if isinstance(adj, PointAdjacency):
        return PointAdjacency(kept, n)
    if adj.axis == 1:
        return replace(adj, grid=(kept.size, n))
    rank = np.full(n, -1, dtype=np.int64)
    rank[kept] = np.arange(kept.size, dtype=np.int64)
    src, dst = rank[adj.src], rank[adj.dst]
    keep = (src >= 0) & (dst >= 0)
    return KronAdjacency(src[keep], dst[keep], 0, (kept.size, n))


def sampled_adjacency(adj: KronAdjacency | PointAdjacency, mask: SamplingMask) -> SparseAdjacency:
    """An edge type of the n x n grid as an n^2-square COO matrix with every
    entry outside the sampled subgraphs dropped: restrict_adjacency's
    expansion, each rank r mapped back to subgraph kept[r] by restrict_rows.
    The map ascends, so the entries stay row-major."""
    n = mask.n
    index = restrict_rows(np.arange(n * n)[:, None], mask).ravel()  # rank row -> product row
    entries = index[restrict_adjacency(adj, mask).to_sparse().entries]
    return SparseAdjacency(rows=n * n, cols=n * n, entries=entries)


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
