"""Laplacians, dense symmetric eigendecomposition, and positional encodings.

The key fact used throughout: the Laplacian of the Cartesian product G [] G
factorizes as L (x) I + I (x) L, so its eigenpairs are exactly
(u_i (x) u_j, lam_i + lam_j) over all pairs of base eigenpairs.  Positional
encodings for the n^2 product nodes therefore never require diagonalizing an
n^2 x n^2 matrix: they read the first min(n, k) base eigenpairs and keep
each of the k requested columns as its K factor columns (K * n * k values).
The k * n^K values of the columns are formed only where they are read:
in runs of rows (PEMatrix.runs), or all at once by PEMatrix.data.

One function, base_eigenpairs, owns the base decomposition.  The Laplacian's
null space has one dimension per connected component and an exact basis:
the normalized indicator of each component, eigenvalue 0.0.  Those come
first, so a graph with at least min(n, k) components needs no eigensolver,
and the rest come from LAPACK through numpy.linalg.eigh on the n x n
Laplacian (n^3 work).  The cyclic Jacobi solver stays as pe_oracle_check's
independent second route.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NotSymmetric, ProdGraphError, RangeError, ScaleError, ShapeMismatch
from .graphs import (
    DistanceMatrix,
    Graph,
    check_addressable,
    connected_components,
    dense_adjacency,
    shortest_path_distances,
)
from .product import cartesian_product_adjacency, check_scale


def laplacian(g: Graph) -> np.ndarray:
    """L = D - A with D = diag(A 1); symmetric, PSD, zero row sums."""
    a = dense_adjacency(g).astype(np.float64)
    return np.diag(a.sum(axis=1)) - a


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenpairs of a symmetric matrix, values ascending, vectors orthonormal."""

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values))
        object.__setattr__(self, "vectors", _frozen(self.vectors))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    arr.flags.writeable = False
    return arr


def _round_robin_rounds(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Partition all index pairs into rounds of pairwise-disjoint pivots."""
    m = n if n % 2 == 0 else n + 1  # odd n gets a bye at index m-1
    others = list(range(1, m))
    rounds = []
    for _ in range(m - 1):
        arr = [0] + others
        ps, qs = [], []
        for i in range(m // 2):
            p, q = arr[i], arr[m - 1 - i]
            if p < n and q < n:
                ps.append(min(p, q))
                qs.append(max(p, q))
        rounds.append((np.array(ps, dtype=np.int64), np.array(qs, dtype=np.int64)))
        others = others[-1:] + others[:-1]
    return rounds


JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 60
PE_EIGENVALUE_TOL = 1e-8  # pe_oracle_check: eigenvalue multisets agree within this
PE_PROJECTOR_TOL = 1e-6  # and cluster projectors within this, in max-norm


def jacobi_eigh(matrix: np.ndarray):
    """Cyclic Jacobi diagonalization of a symmetric matrix.

    This is the solver-independent oracle for eig_sym: pe_oracle_check uses
    it on the explicit product Laplacian.

    Pivots follow a round-robin ordering; each round's pivots touch disjoint
    index pairs, so the whole round is applied as one batched rotation (the
    result is bit-identical to applying those rotations sequentially).  Stops
    when the off-diagonal Frobenius norm falls below
    JACOBI_TOL * max(1, ||A||_F), and gives up after JACOBI_MAX_SWEEPS sweeps.

    Returns (values, vectors) with values unsorted (diagonal order).
    """
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    if n == 1:
        return a.diagonal().copy(), v
    scale = max(1.0, float(np.linalg.norm(a)))
    rounds = _round_robin_rounds(n)
    diag_mask = ~np.eye(n, dtype=bool)
    for _ in range(JACOBI_MAX_SWEEPS):
        off = float(np.linalg.norm(a[diag_mask]))
        if off <= JACOBI_TOL * scale:
            return a.diagonal().copy(), v
        for p_all, q_all in rounds:
            apq = a[p_all, q_all]
            live = apq != 0.0
            if not live.any():
                continue
            p, q = p_all[live], q_all[live]
            apq = apq[live]
            app, aqq = a[p, p], a[q, q]
            with np.errstate(over="ignore"):
                theta = np.clip((aqq - app) / (2.0 * apq), -1e150, 1e150)
            sign = np.where(theta >= 0.0, 1.0, -1.0)
            t = sign / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            # A <- J^T A J restricted to the touched rows/columns.
            acp, acq = a[:, p], a[:, q]
            a[:, p] = c * acp - s * acq
            a[:, q] = s * acp + c * acq
            arp, arq = a[p, :], a[q, :]
            a[p, :] = c[:, None] * arp - s[:, None] * arq
            a[q, :] = s[:, None] * arp + c[:, None] * arq
            # The rotated pivot block has the exact closed form; using it
            # avoids the roundoff of the generic update on the diagonal.
            a[p, p] = app - t * apq
            a[q, q] = aqq + t * apq
            a[p, q] = 0.0
            a[q, p] = 0.0
            vcp, vcq = v[:, p], v[:, q]
            v[:, p] = c * vcp - s * vcq
            v[:, q] = s * vcp + c * vcq
    raise ProdGraphError(f"jacobi did not converge in {JACOBI_MAX_SWEEPS} sweeps")


def _canonical_signs(vectors: np.ndarray, threshold: float = 1e-9) -> np.ndarray:
    """Flip each column so its first entry above threshold is positive."""
    if not vectors.shape[0]:
        return vectors.copy()
    above = np.abs(vectors) > threshold
    lead = vectors[above.argmax(axis=0), np.arange(vectors.shape[1])]
    return np.where(above.any(axis=0) & (lead < 0), -vectors, vectors)


def eig_sym(matrix: np.ndarray) -> EigenDecomposition:
    """Full decomposition of a symmetric matrix, deterministic ordering.

    Eigenpairs come from LAPACK (numpy.linalg.eigh) in its order: values
    ascend, and equal values keep the order LAPACK gives them.  Each
    eigenvector's first entry with magnitude > 1e-9 is positive.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSymmetric(f"matrix must be square, got shape {m.shape}")
    bound = 1e-12 * max(1.0, float(np.abs(m).max(initial=0.0)))
    if m.size and float(np.abs(m - m.T).max()) > bound:
        raise NotSymmetric("matrix is not symmetric within 1e-12")
    values, vectors = np.linalg.eigh(m)
    return EigenDecomposition(values=values, vectors=_canonical_signs(vectors))


NULL_TOL = 1e-9  # LAPACK's null-space labels lie within this times the largest label


def base_eigenpairs(g: Graph, count: int) -> EigenDecomposition:
    """The first `count` eigenpairs of laplacian(g), in the order the PEs read.

    The first c = min(count, components) pairs are the normalized indicator
    vectors of the connected components, ordered by each component's
    smallest node, with eigenvalue exactly 0.0: an exact basis of the null
    space, the same on every BLAS build and thread count.  When count is at
    most the number of components that is the whole answer, and neither
    the dense Laplacian nor an eigensolver is built.  Otherwise
    eig_sym(laplacian(g)) supplies pairs c .. count - 1, after a check that
    it found exactly c eigenvalues in the null space.
    """
    comp = connected_components(g)
    sizes = np.bincount(comp)
    c = min(count, sizes.size)
    rows = np.flatnonzero(comp < c)
    vectors = np.zeros((g.n, c))
    vectors[rows, comp[rows]] = 1.0 / np.sqrt(sizes[comp[rows]])
    values = np.zeros(c)
    if count > c:
        full = eig_sym(laplacian(g))
        null = int(np.count_nonzero(full.values <= NULL_TOL * max(1.0, full.values[-1])))
        if null != c:
            raise ProdGraphError(f"LAPACK found {null} null eigenvalues on a graph with {c} "
                                 "connected components")
        values = np.concatenate([values, full.values[c:count]])
        vectors = np.hstack([vectors, full.vectors[:, c:count]])
    return EigenDecomposition(values=values, vectors=vectors)


@dataclass(frozen=True, init=False, eq=False)
class PEMatrix:
    """Positional-encoding block: rows x k values plus one label per column.

    The values are held as K factor column blocks, and row (s_1, ..., s_K)
    of column c is factors[0][s_1, c] * ... * factors[K-1][s_K, c], the
    row-wise Kronecker product of the blocks.  A PE given as `data` is its
    own single factor.  `runs` reads runs of rows, `block` one run; `data`
    is the whole (rows, k) expansion, built on first read and kept.
    """

    factors: tuple[np.ndarray, ...]
    eigenvalues: np.ndarray

    def __init__(self, data: np.ndarray | None = None, *, eigenvalues: np.ndarray,
                 factors: Sequence[np.ndarray] = ()):
        factors = tuple(_frozen(f) for f in factors) if data is None else (_frozen(data),)
        labels = _frozen(eigenvalues)
        if not factors:
            raise ShapeMismatch("a PE needs its data or its factor blocks")
        for f in factors:
            if f.ndim != 2 or labels.shape != f.shape[1:]:
                raise ShapeMismatch(f"PE data of shape {f.shape} needs one label per column, "
                                    f"got labels of shape {labels.shape}")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "eigenvalues", labels)

    @property
    def rows(self) -> int:
        return math.prod(f.shape[0] for f in self.factors)

    @property
    def k(self) -> int:
        return self.eigenvalues.size

    def block(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo .. hi - 1 of the expansion: the one run runs([lo], hi - lo)."""
        return self.runs([lo], hi - lo)

    def runs(self, starts: Sequence[int], length: int) -> np.ndarray:
        """Rows start .. start + length - 1 of the expansion for each of
        `starts`, run after run.  The starts and the length must be multiples
        of the rows one row of the leading factor spans; for a single factor
        that is every row.  Runs that follow on from each other are one slice
        of the leading factor, a view of it for a single factor; the rows of
        other runs are gathered from it."""
        head, *rest = self.factors
        span = math.prod(f.shape[0] for f in rest)
        starts = np.asarray(starts, dtype=np.int64)
        if length % span or (starts % span).any():
            raise RangeError(f"runs of {length} rows do not start and end on multiples of {span}")
        lead, count = starts // span, length // span
        if (np.diff(lead) == count).all():
            out = head[lead[0]:lead[0] + lead.size * count]
        else:
            out = head[(lead[:, None] + np.arange(count)).ravel()]
        for factor in rest:
            out = (out[:, None, :] * factor[None, :, :]).reshape(-1, self.k)
        return out

    @functools.cached_property
    def data(self) -> np.ndarray:
        return _frozen(self.block(0, self.rows))

    def to_text(self) -> str:
        """Header 'rows k', one line of labels, then values row-major."""
        lines = [f"{self.rows} {self.k}"]
        lines.append(" ".join(format(x, ".17g") for x in self.eigenvalues))
        for row in self.data:
            lines.append(" ".join(format(x, ".17g") for x in row))
        return "\n".join(lines) + "\n"


def _tuple_pe(g: Graph, tuple_order: int, k: int) -> PEMatrix:
    """First k columns u_t1 (x) ... (x) u_tK over all n^K base index tuples.

    Label of tuple t is lam_t1 + ... + lam_tK, summed left to right.  Tuples
    sort by (label, t1, ..., tK); ties inherit the base order.  Only tuples
    with every index below k are candidates: eigenvalues ascend, so lowering
    an index never raises the label, and a tuple with an index j >= k comes
    after the k tuples that replace that index by 0, ..., k - 1.  The PE
    holds the K (n, k) factor blocks, base column t_i of each selected
    tuple in block i; their (n^K, k) expansion, which `.data` builds, is
    checked to be addressable before anything is built.
    """
    check_addressable((g.n**tuple_order, k))
    count = min(g.n, k)
    base = base_eigenpairs(g, count)
    lam = base.values
    tuples = [t.ravel() for t in np.indices((count,) * tuple_order)]
    labels = lam[tuples[0]]
    for t in tuples[1:]:
        labels = labels + lam[t]
    order = np.lexsort((*tuples[::-1], labels))[:k]
    return PEMatrix(factors=[base.vectors[:, t[order]] for t in tuples], eigenvalues=labels[order])


def product_pe(g: Graph, k: int) -> PEMatrix:
    """First k product-graph eigenvector columns, from the base spectrum.

    Candidate columns are (u_i (x) u_j) with label lam_i + lam_j over all n^2
    index pairs.  Pairs sort by (label, i, j); ties inherit the base order.
    Column (i, j) holds U[s,i] * U[v,j] at product node (s, v).  Nothing
    larger than the n x n Laplacian is allocated here: the columns stay as
    their two (n, k) factor blocks, and `.data` expands them to the
    (n^2, k) product on first read.
    """
    n = g.n
    if not 1 <= k <= n * n:
        raise RangeError(f"k must lie in [1, {n * n}], got {k}")
    return _tuple_pe(g, 2, k)


def k_tuple_pe(g: Graph, tuple_order: int, k: int) -> PEMatrix:
    """Generalization to K-tuples: labels are K-fold eigenvalue sums."""
    n = g.n
    if tuple_order < 1:
        raise RangeError(f"tuple order must be >= 1, got {tuple_order}")
    size = check_scale(n, tuple_order)
    if not 1 <= k <= size:
        raise RangeError(f"k must lie in [1, {size}], got {k}")
    return _tuple_pe(g, tuple_order, k)


def concatenation_pe(g: Graph, k: int) -> PEMatrix:
    """Row (s,v) = [U_s,1..k || U_v,1..k]; raw vectors, 2k columns.

    Any downstream mixing (the learned map that recovers products of halves)
    is the consumer's job.  The label array repeats the k base eigenvalues
    for each half.
    """
    n = g.n
    if not 1 <= k <= n:
        raise RangeError(f"k must lie in [1, {n}], got {k}")
    check_addressable((n * n, 2 * k))
    base = base_eigenpairs(g, k)
    data = np.hstack([np.repeat(base.vectors, n, axis=0), np.tile(base.vectors, (n, 1))])
    labels = np.concatenate([base.values, base.values])
    return PEMatrix(data=data, eigenvalues=labels)


def node_mark_indices(g: Graph, subgraphs: Sequence[int] | None = None) -> DistanceMatrix:
    """Node-mark index of product node (s, v): the BFS distance dist(s, v),
    n when v is unreachable from s, so the vocabulary is n + 1.  One row per
    subgraph s: the given ones, in their order (a sampling mask's), or all n."""
    return shortest_path_distances(g, subgraphs)


@dataclass(frozen=True)
class PEOracleReport:
    """Outcome of checking the factorized spectrum against direct diagonalization."""

    passed: bool
    eigenvalue_deviation: float
    projector_deviation: float


def _cluster_bounds(values: np.ndarray, gap: float) -> list[tuple[int, int]]:
    bounds = []
    start = 0
    for i in range(1, values.size):
        if values[i] - values[i - 1] > gap:
            bounds.append((start, i))
            start = i
    bounds.append((start, values.size))
    return bounds


def pe_oracle_check(g: Graph) -> PEOracleReport:
    """Diagonalize the product-graph Laplacian directly and compare.

    The factored PE rests on the LAPACK base decomposition; the direct route
    diagonalizes the n^2 x n^2 product Laplacian with jacobi_eigh instead, so
    the two sides share no solver.

    Eigenvalue multisets must agree within PE_EIGENVALUE_TOL; for each
    eigenvalue cluster the two orthogonal eigenspace projectors must agree
    within PE_PROJECTOR_TOL in max-norm (individual eigenvectors of repeated
    eigenvalues are basis-ambiguous, projectors are not).
    """
    if g.n > 8:
        raise ScaleError(f"oracle check is limited to n <= 8, got n={g.n}")
    factored = product_pe(g, k=g.n * g.n)
    a2 = cartesian_product_adjacency(g).to_dense().astype(np.float64)
    l2 = np.diag(a2.sum(axis=1)) - a2
    values, vectors = jacobi_eigh(l2)
    order = np.argsort(values, kind="stable")
    values, vectors = values[order], vectors[:, order]
    eig_dev = float(np.abs(factored.eigenvalues - values).max())
    gap = 1e-6 * max(1.0, float(np.abs(values).max()))
    proj_dev = 0.0
    for lo, hi in _cluster_bounds(values, gap):
        p_factored = factored.data[:, lo:hi] @ factored.data[:, lo:hi].T
        p_direct = vectors[:, lo:hi] @ vectors[:, lo:hi].T
        proj_dev = max(proj_dev, float(np.abs(p_factored - p_direct).max()))
    return PEOracleReport(
        passed=eig_dev <= PE_EIGENVALUE_TOL and proj_dev <= PE_PROJECTOR_TOL,
        eigenvalue_deviation=eig_dev,
        projector_deviation=proj_dev,
    )
