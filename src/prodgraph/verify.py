"""Self-verification suites: every structural invariant vs an independent oracle.

Each check rebuilds the quantity under test by a second route (dense
Kronecker products, masked dense softmax, direct Jacobi diagonalization,
finite differences, brute-force enumeration) and reports the worst
deviation.  The `full` scale runs the complete seed counts; `quick` shrinks
them but still exercises every check.
"""

from __future__ import annotations

import functools
import itertools
import time
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np

from .graphs import (
    Graph,
    SparseAdjacency,
    complete_graph,
    cycle_graph,
    dense_adjacency,
    path_graph,
    permutation_matrix,
    permute_graph,
    random_graph,
    random_permutation,
    shortest_path_distances,
)
from .model import (
    LEAKY_SLOPE,
    POOL_VARIANTS,
    MLPParams,
    Pipeline,
    ProductState,
    RGCNParams,
    SABParams,
    grad_check,
    rgcn_layer,
    _attention_forward,
    _attention_weights,
    _point_forward,
)
from .product import (
    PointAdjacency,
    SamplingMask,
    build_product_bundle,
    cartesian_operator,
    cartesian_product_adjacency,
    closed_form_cartesian,
    external_adjacency,
    internal_adjacency,
    k_factor_adjacency,
    kron,
    point_adjacency,
    product_permutation,
    restrict_adjacency,
    restrict_rows,
    sampled_adjacency,
    slot_adjacency,
)
from . import spectral
from .rng import SplitMix64
from .spectral import (
    NULL_TOL,
    PE_EIGENVALUE_TOL,
    PE_PROJECTOR_TOL,
    PEOracleReport,
    base_eigenpairs,
    concatenation_pe,
    eig_sym,
    k_tuple_pe,
    laplacian,
    pe_oracle_check,
    product_pe,
)


# ---------------------------------------------------------------------------
# independent dense oracles
# ---------------------------------------------------------------------------


def dense_attention_oracle(x: np.ndarray, adj_dense: np.ndarray, params) -> np.ndarray:
    """Masked full-matrix softmax attention; scores -inf off the adjacency.
    The head count is that of `params`."""
    rows = x.shape[0]
    d_out = params.w_query.shape[1]
    heads = params.attn.shape[0]
    hd = d_out // heads
    q = x @ params.w_query
    k = x @ params.w_key
    v = x @ params.w_value
    out = np.zeros((rows, d_out))
    for h in range(heads):
        sl = slice(h * hd, (h + 1) * hd)
        aq = params.attn[h, :hd]
        ak = params.attn[h, hd:]
        z = (q[:, sl] @ aq)[:, None] + (k[:, sl] @ ak)[None, :]
        e = np.where(z > 0, z, LEAKY_SLOPE * z)
        scores = np.where(adj_dense > 0, e, -np.inf)
        nonempty = adj_dense.sum(axis=1) > 0
        alpha = np.zeros_like(scores)
        if nonempty.any():
            shifted = scores[nonempty] - scores[nonempty].max(axis=1, keepdims=True)
            ex = np.exp(shifted)
            alpha[nonempty] = ex / ex.sum(axis=1, keepdims=True)
        out[:, sl] = alpha @ v[:, sl]
    return out


def _dense_mlp(x: np.ndarray, p: MLPParams) -> np.ndarray:
    h = x @ p.w1 + p.b1
    return np.maximum(h, 0.0) @ p.w2 + p.b2


def dense_point_oracle(x, point_dense, epsilon, mlp: MLPParams) -> np.ndarray:
    return _dense_mlp((1.0 + float(epsilon)) * x + point_dense @ x, mlp)


def dense_rgcn_oracle(x, internal_d, external_d, point_d, p: RGCNParams) -> np.ndarray:
    return (
        x @ p.w_self
        + internal_d @ x @ p.w_internal
        + external_d @ x @ p.w_external
        + point_d @ x @ p.w_point
    )


def _random_state(rows: int, d: int, rng: SplitMix64) -> np.ndarray:
    return rng.uniform_array(-1.0, 1.0, rows * d).reshape(rows, d)


# ---------------------------------------------------------------------------
# graph-core checks
# ---------------------------------------------------------------------------


def check_permutation_conjugation(scale: str):
    dev = 0
    for seed in range(8 if scale == "full" else 3):
        g = random_graph(6, 0.5, seed=seed)
        perm = random_permutation(6, seed=seed + 100)
        p = permutation_matrix(perm)
        lhs = dense_adjacency(permute_graph(g, perm))
        rhs = p @ dense_adjacency(g) @ p.T
        dev = max(dev, int(np.abs(lhs - rhs).max()))
    return dev == 0, float(dev)


def _bellman_deviation(g: Graph, dist: np.ndarray) -> int:
    """Largest gap between `dist` and the one solution of the BFS equations:
    d(s, s) = 0, every other finite d(s, v) is 1 + the least d(s, w) over
    v's neighbours w, and d(s, v) = n exactly when none of them is
    reachable from s.  No other matrix solves them, so this is exact."""
    n = g.n
    expected = np.full((n, n), n, dtype=np.int64)
    for v, nbrs in enumerate(g.neighbors()):
        if nbrs:
            expected[:, v] = np.minimum(n, 1 + dist[:, nbrs].min(axis=1))
    np.fill_diagonal(expected, 0)
    return int(np.abs(dist - expected).max())


def check_bfs_properties(scale: str):
    seeds = range(20 if scale == "full" else 6)
    graphs = [random_graph(2 + seed % 9, 0.4, seed=seed) for seed in seeds]
    # past the 64-source word, and a path long enough that both BFS phases run
    graphs += [random_graph(65, 0.04, seed=0), path_graph(100)]
    if scale == "full":
        graphs.append(random_graph(130, 0.02, seed=2))
    dev = max(_bellman_deviation(g, shortest_path_distances(g).dist) for g in graphs)
    return dev == 0, float(dev)


def check_sparse_roundtrip(scale: str):
    dev = 0
    for seed in range(10 if scale == "full" else 4):
        rng = SplitMix64(seed)
        mat = (rng.uniform_array(0.0, 1.0, 35).reshape(5, 7) < 0.3).astype(np.int64)
        back = SparseAdjacency.from_dense(mat).to_dense()
        dev = max(dev, int(np.abs(mat - back).max()))
    return dev == 0, float(dev)


# ---------------------------------------------------------------------------
# product-graph checks
# ---------------------------------------------------------------------------


def check_kron_equivalence(scale: str):
    count = 50 if scale == "full" else 12
    dev = 0
    for seed in range(count):
        n = 2 + seed % 7
        g = random_graph(n, 0.45, seed=seed)
        a = dense_adjacency(g)
        eye = np.eye(n, dtype=np.int64)
        dev = max(dev, int(np.abs(internal_adjacency(g).to_dense() - kron(eye, a)).max()))
        dev = max(dev, int(np.abs(external_adjacency(g).to_dense() - kron(a, eye)).max()))
        cart = cartesian_product_adjacency(g).to_dense()
        dev = max(dev, int(np.abs(cart - (kron(a, eye) + kron(eye, a))).max()))
        for j in range(3):
            slot = slot_adjacency(g, 3, j).to_dense()
            dev = max(dev, int(np.abs(slot - k_factor_adjacency(a, j, 3)).max()))
    return dev == 0, float(dev)


def check_closed_form(scale: str):
    seeds = range(20 if scale == "full" else 6)
    dev = 0
    for seed in seeds:
        for n in (2, 3, 4):
            a = dense_adjacency(random_graph(n, 0.5, seed=seed))
            for order in (1, 2, 3):
                lhs = cartesian_operator(a, order)
                rhs = closed_form_cartesian(a, order)
                dev = max(dev, int(np.abs(lhs.astype(np.int64) - rhs).max()))
    return dev == 0, float(dev)


def check_slot_disjointness(scale: str):
    dev = 0
    for seed in range(6 if scale == "full" else 2):
        for n in (2, 3, 4):
            g = random_graph(n, 0.5, seed=seed)
            for order in (2, 3):
                slots = [slot_adjacency(g, order, k).to_dense() for k in range(order)]
                for i in range(order):
                    for j in range(i + 1, order):
                        dev = max(dev, int((slots[i] * slots[j]).sum()))
    return dev == 0, float(dev)


def check_edge_counts(scale: str):
    graphs = [path_graph(2), path_graph(4), complete_graph(3), cycle_graph(5)]
    graphs += [random_graph(2 + s % 7, 0.4, seed=s) for s in range(20 if scale == "full" else 6)]
    ok = True
    for g in graphs:
        target, bundle = 2 * g.n * g.num_edges, build_product_bundle(g)
        for adj, count in ((bundle.internal, target), (bundle.external, target), (bundle.point, g.n * g.n)):
            ok &= adj.nnz == adj.to_sparse().nnz == count
    return ok, 0.0 if ok else 1.0


def check_adjacency_equivariance(scale: str):
    dev = 0
    for seed in range(8 if scale == "full" else 3):
        n = 3 + seed % 4
        g = random_graph(n, 0.5, seed=seed)
        perm = random_permutation(n, seed=seed + 50)
        pp = product_permutation(perm)
        for build in (internal_adjacency, external_adjacency, lambda h: point_adjacency(h.n)):
            orig = build(g).to_dense()
            conjugated = np.zeros_like(orig)
            conjugated[np.ix_(pp, pp)] = orig
            dev = max(dev, int(np.abs(build(permute_graph(g, perm)).to_dense() - conjugated).max()))
    return dev == 0, float(dev)


def check_sampled_adjacency_semantics(scale: str):
    dev = 0
    for seed in range(8 if scale == "full" else 3):
        n = 3 + seed % 4
        g = random_graph(n, 0.5, seed=seed)
        mask = SamplingMask.from_ratio(n, 0.6, SplitMix64(seed))
        a, eye = dense_adjacency(g), np.eye(n, dtype=np.int64)
        point = np.zeros((n * n, n * n), dtype=np.int64)
        point[np.arange(n * n), np.arange(n * n) % n * (n + 1)] = 1  # (s, v) reads (v, v)
        kept = np.repeat(np.isin(np.arange(n), mask.sampled), n)
        bundle = build_product_bundle(g)
        for adj, dense in ((bundle.internal, kron(eye, a)), (bundle.external, kron(a, eye)),
                           (bundle.point, point)):
            expected = dense * kept[:, None] * kept[None, :]
            dev = max(dev, int(np.abs(sampled_adjacency(adj, mask).to_dense() - expected).max()))
    return dev == 0, float(dev)


# ---------------------------------------------------------------------------
# spectral checks
# ---------------------------------------------------------------------------


def _spectral_test_graphs(scale: str) -> list[Graph]:
    graphs = [path_graph(2), path_graph(4), complete_graph(3), cycle_graph(5)]
    count = 20 if scale == "full" else 6
    graphs += [random_graph(2 + s % 7, 0.45, seed=s + 300) for s in range(count)]
    return graphs


@functools.cache
def _pe_oracle_reports(scale: str) -> tuple[PEOracleReport, ...]:
    """One direct n^2 x n^2 diagonalization per test graph, shared by the
    spectrum and projector checks."""
    return tuple(pe_oracle_check(g) for g in _spectral_test_graphs(scale))


def check_spectrum_sum_law(scale: str):
    dev = 0.0
    ok = True
    for report in _pe_oracle_reports(scale):
        dev = max(dev, report.eigenvalue_deviation)
        ok &= report.eigenvalue_deviation <= PE_EIGENVALUE_TOL
    p2 = product_pe(path_graph(2), 4)
    ok &= np.abs(p2.eigenvalues - np.array([0.0, 2.0, 2.0, 4.0])).max() <= PE_EIGENVALUE_TOL
    return ok, dev


def check_eigenspace_projectors(scale: str):
    dev = 0.0
    ok = True
    for report in _pe_oracle_reports(scale):
        dev = max(dev, report.projector_deviation)
        ok &= report.projector_deviation <= PE_PROJECTOR_TOL
    return ok, dev


def _eig_sym_calls(fn) -> list[tuple[int, ...]]:
    """Shapes of the matrices that fn passes to eig_sym, counted through the
    spectral module attribute that the PE route calls."""
    shapes = []
    solver = spectral.eig_sym

    def counted(matrix):
        shapes.append(np.shape(matrix))
        return solver(matrix)

    spectral.eig_sym = counted
    try:
        fn()
    finally:
        spectral.eig_sym = solver
    return shapes


def _traced_peak(fn) -> int:
    """Peak bytes that tracemalloc traced while fn ran."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _component_paths(n: int, parts: int) -> Graph:
    """`parts` disjoint paths of n // parts nodes each."""
    m = n // parts
    return Graph(n=n, edges=frozenset((i, i + 1) for i in range(n - 1) if (i + 1) % m))


def check_pe_cost_structure(scale: str):
    """product_pe(g, 8) and its expansion allocate no n^4 block, and their
    cost grows boundedly per doubling, in quantities the host's load cannot
    move.

    On n in {12, 24, 48}, for a connected ER graph (the LAPACK route) and
    for eight disjoint paths (eight components, the solver-free route), two
    tracemalloc peaks are read: product_pe alone, which builds the base
    eigenpairs and the two (n, 8) factor blocks, and product_pe followed by
    reading .data, which adds the (n^2, 8) expansion.  Each peak grows by at
    most 6x per doubling (an n^2-sized array gives 4x, an n^4 block 16x);
    at n = 48 each stays below a quarter of an n^4 float64 block and below
    16 (n^3 + 8 n^2) doubles; eig_sym runs once, on at most an n x n
    matrix, on the connected graph, and never on the paths.
    """
    k, sizes = 8, (12, 24, 48)
    bound = min(sizes[-1] ** 4 * 8 // 4, 16 * (sizes[-1] ** 3 + k * sizes[-1] ** 2) * 8)
    dev, calls_ok = 0.0, True
    for family, solver_calls in ((lambda n: random_graph(n, 0.3, seed=n), 1),
                                 (lambda n: _component_paths(n, k), 0)):
        built, expanded = [], []
        for n in sizes:
            g = family(n)
            built.append(_traced_peak(lambda: product_pe(g, k)))
            expanded.append(_traced_peak(lambda: product_pe(g, k).data))
            calls = _eig_sym_calls(lambda: product_pe(g, k))
            calls_ok &= len(calls) == solver_calls and all(max(shape) <= n for shape in calls)
        for peaks in (built, expanded):
            dev = max(dev, peaks[-1] / bound, *(cur / prev / 6.0 for prev, cur in zip(peaks, peaks[1:])))
    return dev <= 1.0 and calls_ok, float(dev)


def check_pe_factorization(scale: str):
    """Every product column is an elementwise product of two concat halves."""
    dev = 0.0
    for seed in range(8 if scale == "full" else 3):
        n = 2 + seed % 5
        g = random_graph(n, 0.5, seed=seed + 900)
        full = product_pe(g, n * n)
        concat = concatenation_pe(g, n)
        lam = base_eigenpairs(g, n).values
        i_idx = np.repeat(np.arange(n), n)
        j_idx = np.tile(np.arange(n), n)
        order = np.lexsort((j_idx, i_idx, lam[i_idx] + lam[j_idx]))
        for col, pair in enumerate(order):
            i, j = i_idx[pair], j_idx[pair]
            product = concat.data[:, i] * concat.data[:, n + j]
            dev = max(dev, float(np.abs(full.data[:, col] - product).max()))
    return dev <= 1e-12, dev


def check_null_space_exact(scale: str):
    """The indicator basis is an exact basis of the Laplacian's null space,
    and a graph with c components gets product_pe(g, c) without eig_sym.

    On isolated nodes, two triangles, an edgeless graph and ER graphs of at
    least 4 components: each vector base_eigenpairs labels 0.0 is constant
    on its support, and L times that support is zero in integer
    arithmetic, so L v = 0 holds exactly; the vectors' projector equals
    the projector onto LAPACK's null space within 1e-12; and
    product_pe(g, c) makes no eig_sym call.
    """
    two_triangles = Graph(n=6, edges=frozenset({(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)}))
    graphs = [(ISOLATED_NODE_GRAPH, 2), (two_triangles, 2), (Graph(n=5, edges=frozenset()), 5)]
    graphs += [(random_graph(32, 0.06, seed=s), 4) for s in range(4 if scale == "full" else 1)]
    dev, ok = 0.0, True
    for g, least in graphs:
        basis = base_eigenpairs(g, g.n)
        null = basis.vectors[:, basis.values == 0.0]
        support = null != 0.0
        lap = laplacian(g)
        ok &= null.shape[1] >= least and not (lap.astype(np.int64) @ support).any()
        ok &= all(np.ptp(col[on]) == 0.0 for col, on in zip(null.T, support.T))
        full = eig_sym(lap)
        lapack = full.vectors[:, full.values <= NULL_TOL * max(1.0, full.values[-1])]
        dev = max(dev, float(np.abs(null @ null.T - lapack @ lapack.T).max()))
        ok &= not _eig_sym_calls(lambda: product_pe(g, null.shape[1]))
    return ok and dev <= 1e-12, dev


def kron_tuple_pe(g: Graph, tuple_order: int, k: int):
    """(columns, labels) of the first k K-tuple PE columns by enumeration:
    every tuple of base indices, sorted by (label, t1, ..., tK) with the
    label lam_t1 + ... + lam_tK summed left to right, and each column the
    np.kron of its tuple's base eigenvectors."""
    base = base_eigenpairs(g, g.n)
    lam = base.values.tolist()

    def label(t):
        return sum(lam[i] for i in t)

    tuples = sorted(itertools.product(range(g.n), repeat=tuple_order), key=lambda t: (label(t), *t))[:k]
    columns = [functools.reduce(np.kron, (base.vectors[:, i] for i in t)) for t in tuples]
    return np.stack(columns, axis=1), np.array([label(t) for t in tuples])


def check_tuple_pe_specialization(scale: str):
    """product_pe and k_tuple_pe at K = 3 expand to kron_tuple_pe's columns.

    On ER graphs with n in 2..5 (K = 2) and 2..4 (K = 3), for k = n^K and
    for a k below n, which leaves some base indices out of the candidates:
    labels and values (PEMatrix.data, the expansion of the factor blocks)
    must agree within 1e-12.
    """
    dev = 0.0
    for seed in range(6 if scale == "full" else 3):
        for order, make in ((2, product_pe), (3, lambda g, k: k_tuple_pe(g, 3, k))):
            n = 2 + seed % (6 - order)
            g = random_graph(n, 0.5, seed=seed + 40)
            for k in (n**order, 1 + seed % (n - 1)):
                pe = make(g, k)
                columns, labels = kron_tuple_pe(g, order, k)
                dev = max(dev, float(np.abs(pe.data - columns).max()),
                          float(np.abs(pe.eigenvalues - labels).max()))
    return dev <= 1e-12, dev


def check_pe_permutation_covariance(scale: str):
    """|entries| match after row permutation, on columns with isolated labels.

    Degenerate eigenspaces admit arbitrary orthonormal bases, so only columns
    whose label is separated from both neighbors are compared; degenerate
    content is covered by the projector check.
    """
    dev = 0.0
    checked = 0
    for seed in range(20):
        n = 4 + seed % 3
        g = random_graph(n, 0.5, seed=seed + 77)
        lam = base_eigenpairs(g, n).values
        if np.diff(lam).min(initial=1.0) <= 1e-6:
            continue  # needs a simple base spectrum
        checked += 1
        perm = random_permutation(n, seed=seed + 13)
        pp = product_permutation(perm)
        pe = product_pe(g, n * n)
        pe_perm = product_pe(permute_graph(g, perm), n * n)
        labels = pe.eigenvalues
        gaps_prev = np.r_[np.inf, np.diff(labels)]
        gaps_next = np.r_[np.diff(labels), np.inf]
        isolated = (gaps_prev > 1e-6) & (gaps_next > 1e-6)
        permuted_rows = np.empty_like(pe.data)
        permuted_rows[pp] = pe.data
        dev = max(
            dev,
            float(
                np.abs(
                    np.abs(pe_perm.data[:, isolated]) - np.abs(permuted_rows[:, isolated])
                ).max()
            ),
        )
        if checked >= (6 if scale == "full" else 2):
            break
    return checked > 0 and dev <= 1e-8, dev


# ---------------------------------------------------------------------------
# model checks
# ---------------------------------------------------------------------------


def check_attention_dense_oracle(scale: str):
    """Internal and external attention, unsampled and on a sampled system,
    against kron(I_m, A) and kron(A_S, I_n) built from the dense base graph."""
    dev = 0.0
    for seed in range(20 if scale == "full" else 5):
        n = 2 + seed % 4
        g = random_graph(n, 0.5, seed=seed + 500)
        rng = SplitMix64(seed)
        params = SABParams.from_rng(6, 8, rng)
        a = dense_adjacency(g)
        bundle = build_product_bundle(g)
        for mask in (SamplingMask.full(n), SamplingMask.from_ratio(n, 0.6, rng)):
            internal, external = (restrict_adjacency(e, mask) for e in (bundle.internal, bundle.external))
            kept = list(mask.sampled)
            x = _random_state(len(kept) * n, 6, rng)
            for adj, dense in ((internal, kron(np.eye(len(kept)), a)),
                               (external, kron(a[np.ix_(kept, kept)], np.eye(n)))):
                sparse = _attention_forward(x, adj, params.internal)
                dev = max(dev, float(np.abs(sparse - dense_attention_oracle(x, dense, params.internal)).max()))
    return dev <= 1e-12, dev


def check_point_dense_oracle(scale: str):
    """The point update, unsampled and sampled, against the rows and columns
    of the sampled subgraphs in the dense n^2-node point adjacency."""
    dev = 0.0
    for seed in range(20 if scale == "full" else 5):
        n = 2 + seed % 4
        rng = SplitMix64(seed)
        params = SABParams.from_rng(6, 8, rng)
        point = point_adjacency(n).to_dense()
        for mask in (SamplingMask.full(n), SamplingMask.from_ratio(n, 0.6, rng)):
            rows = (np.asarray(mask.sampled)[:, None] * n + np.arange(n)).ravel()
            x = _random_state(rows.size, 6, rng)
            pt = restrict_adjacency(PointAdjacency(np.arange(n), n), mask)
            sparse = _point_forward(x, pt, params.epsilon, params.point_mlp)
            dense = dense_point_oracle(x, point[np.ix_(rows, rows)], params.epsilon, params.point_mlp)
            dev = max(dev, float(np.abs(sparse - dense).max()))
    return dev <= 1e-12, dev


def check_rgcn_dense_oracle(scale: str):
    dev = 0.0
    for seed in range(20 if scale == "full" else 5):
        n = 2 + seed % 4
        g = random_graph(n, 0.5, seed=seed + 600)
        rng = SplitMix64(seed)
        params = RGCNParams.from_rng(5, 7, rng)
        x = _random_state(n * n, 5, rng)
        bundle = build_product_bundle(g)
        sparse = rgcn_layer(ProductState(x=x), bundle, params).x
        dense = dense_rgcn_oracle(
            x,
            internal_adjacency(g).to_dense(),
            external_adjacency(g).to_dense(),
            point_adjacency(n).to_dense(),
            params,
        )
        dev = max(dev, float(np.abs(sparse - dense).max()))
    return dev <= 1e-12, dev


def check_attention_row_stochastic(scale: str):
    dev = 0.0
    for seed in range(10 if scale == "full" else 4):
        n = 2 + seed % 4
        g = random_graph(n, 0.5, seed=seed + 700)
        rng = SplitMix64(seed)
        params = SABParams.from_rng(4, 8, rng)
        bundle = build_product_bundle(g)
        for mask in (SamplingMask.full(n), SamplingMask.from_ratio(n, 0.6, rng)):
            internal, external = (restrict_adjacency(e, mask) for e in (bundle.internal, bundle.external))
            x = _random_state(len(mask.sampled) * n, 4, rng)
            for adj in (internal, external):
                alpha_e = _attention_weights(x, adj, params.internal)[0]
                for b in adj.buckets:
                    alpha = b.view(alpha_e)
                    dev = max(dev, float(-alpha.min()))
                    sums = np.zeros((b.nodes.size,) + alpha.shape[2:])
                    # deliberately np.add.at, a route independent of the kernel's sum
                    np.add.at(sums, np.repeat(np.arange(b.nodes.size), b.senders.shape[1]),
                              alpha.reshape((-1,) + alpha.shape[2:]))
                    dev = max(dev, float(np.abs(sums - 1.0).max()))
    return dev <= 1e-12, dev


def _build_pipeline(g: Graph, seed: int, d: int = 4, layers: int = 2, variant: str = "sum_sum"):
    bundle = build_product_bundle(g)
    rng = SplitMix64(seed)
    layer_params = [SABParams.from_rng(d, d, rng) for _ in range(layers)]
    pool_mlp = MLPParams.from_rng(d, d, d, rng)
    pipe = Pipeline(
        bundle.internal, bundle.external, bundle.point, g.n, layer_params, pool_mlp, variant
    )
    x0 = _random_state(g.n * g.n, d, rng)
    return pipe, x0


def _relabelled(pipe: Pipeline, g: Graph, perm: list[int], x0: np.ndarray):
    """The same stack on g relabelled by perm, x0 with its rows moved to
    match, and the product permutation pp that moved them: row i goes to
    row pp[i]."""
    bundle = build_product_bundle(permute_graph(g, perm))
    pipe_p = replace(pipe, internal=bundle.internal, external=bundle.external, point=bundle.point)
    pp = product_permutation(perm)
    x0_p = np.empty_like(x0)
    x0_p[pp] = x0
    return pipe_p, x0_p, pp


def check_sab_equivariance(scale: str):
    dev = 0.0
    for seed in range(6 if scale == "full" else 2):
        n = 4
        g = random_graph(n, 0.5, seed=seed + 800)
        pipe, x0 = _build_pipeline(g, seed)
        pipe_p, x0_p, pp = _relabelled(pipe, g, random_permutation(n, seed=seed + 21), x0)
        dev = max(dev, float(np.abs(pipe_p.stack(x0_p)[pp] - pipe.stack(x0)).max()))
    return dev <= 1e-10, dev


def check_pool_invariance(scale: str):
    dev = 0.0
    graphs = [path_graph(4), complete_graph(3), cycle_graph(5)]
    graphs += [random_graph(5, 0.5, seed=s + 850) for s in range(2)]
    reps = 10 if scale == "full" else 3
    for gi, g in enumerate(graphs):
        pipe, x0 = _build_pipeline(g, seed=gi, variant="mean_sum" if gi % 2 else "sum_sum")
        base = pipe.pooled(x0)
        for rep in range(reps):
            perm = random_permutation(g.n, seed=rep + 31 * gi)
            pipe_p, x0_p, _ = _relabelled(pipe, g, perm, x0)
            dev = max(dev, float(np.abs(pipe_p.pooled(x0_p) - base).max()))
    return dev <= 1e-10, dev


def check_masked_full_bag(scale: str):
    dev = 0.0
    for seed in range(6 if scale == "full" else 2):
        n = 3 + seed % 3
        g = random_graph(n, 0.5, seed=seed + 950)
        pipe, x0 = _build_pipeline(g, seed)
        mask = SamplingMask.full(n)
        restricted, x0_r = pipe.sampled(mask), restrict_rows(x0, mask)
        dev = max(dev, float(np.abs(restricted.pooled(x0_r) - pipe.pooled(x0)).max()))
    return dev == 0.0, dev


# Path 0-1-2 plus isolated node 3, with subgraph 2 left out: rows (s, 3) have
# no internal in-neighbor, rows (3, v) no external one, and rows (s, 2) lose
# their point message.
ISOLATED_NODE_GRAPH = Graph(n=4, edges=frozenset({(0, 1), (1, 2)}))
ISOLATED_NODE_MASK = SamplingMask(n=4, sampled=(0, 1, 3))


def check_gradient_correctness(scale: str):
    """grad_check, parameters and x0, on unsampled 1-layer stacks over P2, P4
    and K3, and on the sampled 2-layer system of ISOLATED_NODE_GRAPH, whose
    empty rows take the backward pass's empty-neighborhood paths.  Odd seeds
    pool with "mean_sum", even ones with "sum_sum"."""
    graphs = [path_graph(2), path_graph(4), complete_graph(3)]
    seeds = range(5 if scale == "full" else 2)
    systems = [_build_pipeline(g, seed, d=4, layers=1, variant=POOL_VARIANTS[seed % 2])
               for g in graphs for seed in seeds]
    for seed in seeds:
        pipe, x0 = _build_pipeline(ISOLATED_NODE_GRAPH, seed, d=4, variant=POOL_VARIANTS[seed % 2])
        systems.append((pipe.sampled(ISOLATED_NODE_MASK), restrict_rows(x0, ISOLATED_NODE_MASK)))
    worst = 0.0
    ok = True
    for pipe, x0 in systems:
        report = grad_check(pipe, x0)
        worst = max(worst, report.max_rel_error)
        ok &= report.passed
    return ok, worst


def check_rgcn_simulation(scale: str):
    """Block weights reproduce [X, point X, internal X, external X]; the
    concatenated rows separate distinct update inputs on all connected
    3-node graphs (brute-force enumeration with one-hot features)."""
    ok = True
    dev = 0.0
    for g in _connected_three_node_graphs():
        n = g.n
        d = n * n
        x = np.eye(d)
        bundle = build_product_bundle(g)
        zeros = np.zeros((d, d))
        eye = np.eye(d)
        params = RGCNParams(
            w_self=np.hstack([eye, zeros, zeros, zeros]),
            w_point=np.hstack([zeros, eye, zeros, zeros]),
            w_internal=np.hstack([zeros, zeros, eye, zeros]),
            w_external=np.hstack([zeros, zeros, zeros, eye]),
        )
        out = rgcn_layer(ProductState(x=x), bundle, params).x
        expected = np.hstack([x, point_adjacency(n).to_dense() @ x,
                              internal_adjacency(g).to_dense() @ x, external_adjacency(g).to_dense() @ x])
        dev = max(dev, float(np.abs(out - expected).max()))
        ok &= _rows_separate_update_inputs(g, x, out)
    return ok and dev == 0.0, dev


def _connected_three_node_graphs() -> list[Graph]:
    graphs = []
    pairs = [(0, 1), (0, 2), (1, 2)]
    for bits in range(1, 8):
        edges = frozenset(p for i, p in enumerate(pairs) if bits >> i & 1)
        g = Graph(n=3, edges=edges)
        if (shortest_path_distances(g).dist < 3).all():
            graphs.append(g)
    return graphs


def _rows_separate_update_inputs(g: Graph, x: np.ndarray, rows: np.ndarray) -> bool:
    """Distinct (self, root, neighbor-multisets) tuples get distinct rows."""
    n = g.n
    adj = g.neighbors()
    signatures = {}
    for s in range(n):
        for v in range(n):
            idx = s * n + v
            self_part = tuple(x[idx])
            root_part = tuple(x[v * n + v])
            internal_part = tuple(sorted(tuple(x[s * n + w]) for w in adj[v]))
            external_part = tuple(sorted(tuple(x[t * n + v]) for t in adj[s]))
            sig = (self_part, root_part, internal_part, external_part)
            row = tuple(np.round(rows[idx], 9))
            if sig in signatures:
                if signatures[sig] != row:
                    return False
            else:
                for other_sig, other_row in signatures.items():
                    if other_sig != sig and other_row == row:
                        return False
                signatures[sig] = row
    return True


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_deviation: float
    elapsed: float


# (module, declared invariant, covering checks): one table, in run order;
# the full report enumerates it
CHECKS = [
    ("graph-core", "permutation conjugates the dense adjacency",
     [("permutation-conjugation", check_permutation_conjugation)]),
    ("graph-core", "BFS distances solve d(s, s) = 0, d(s, v) = 1 + min over neighbours, "
                   "n if unreachable",
     [("bfs-distance-properties", check_bfs_properties)]),
    ("graph-core", "dense/sparse round trip is the identity",
     [("sparse-roundtrip", check_sparse_roundtrip)]),
    ("product-graph", "internal/external/cartesian and K = 3 slots equal their Kronecker forms",
     [("kron-equivalence", check_kron_equivalence)]),
    ("product-graph", "recursive and closed-form Cartesian operators agree",
     [("closed-form-equality", check_closed_form)]),
    ("product-graph", "slot adjacencies are pairwise disjoint",
     [("slot-disjointness", check_slot_disjointness)]),
    ("product-graph", "edge counts are 2n|E|, 2n|E|, n^2",
     [("edge-count-formulas", check_edge_counts)]),
    ("product-graph", "adjacency construction is permutation-equivariant",
     [("adjacency-equivariance", check_adjacency_equivariance)]),
    ("product-graph", "sampled adjacencies are the dense edge types on the sampled rows and columns",
     [("sampled-adjacency-semantics", check_sampled_adjacency_semantics)]),
    ("spectral-pe", "pairwise eigenvalue sums match the product spectrum",
     [("spectrum-sum-law", check_spectrum_sum_law)]),
    ("spectral-pe", "eigenspace projectors agree across both routes",
     [("eigenspace-projectors", check_eigenspace_projectors)]),
    ("spectral-pe", "PE path and its expansion allocate no n^4 block, each traced peak grows "
                    "<= 6x per doubling, and eig_sym runs once on the n x n Laplacian, or never "
                    "with c >= k",
     [("pe-cost-structure", check_pe_cost_structure)]),
    ("spectral-pe", "component indicators are an exact null-space basis; c >= k needs no eig_sym",
     [("null-space-exact", check_null_space_exact)]),
    ("spectral-pe", "product columns factor into concatenation halves",
     [("pe-factorization", check_pe_factorization)]),
    ("spectral-pe", "product and K=3 tuple PEs expand to np.kron of base eigenvector tuples "
                    "sorted by (label, t1, ..., tK)",
     [("tuple-pe-specialization", check_tuple_pe_specialization)]),
    ("spectral-pe", "product PE is permutation-covariant",
     [("pe-permutation-covariance", check_pe_permutation_covariance)]),
    ("sab-model", "sparse ops match dense masked oracles",
     [("attention-dense-oracle", check_attention_dense_oracle),
      ("point-dense-oracle", check_point_dense_oracle),
      ("rgcn-dense-oracle", check_rgcn_dense_oracle)]),
    ("sab-model", "attention rows are convex combinations",
     [("attention-row-stochastic", check_attention_row_stochastic)]),
    ("sab-model", "SAB stacks equivariant, pooled output invariant",
     [("sab-equivariance", check_sab_equivariance), ("pool-invariance", check_pool_invariance)]),
    ("sab-model", "full-bag mask reproduces the unmasked forward",
     [("masked-full-bag", check_masked_full_bag)]),
    ("sab-model", "analytic gradients of parameters and x0 match finite differences, both pool "
     "variants and sampled systems with empty rows included",
     [("gradient-correctness", check_gradient_correctness)]),
    ("sab-model", "block-weight RGCN concatenates and separates update inputs",
     [("rgcn-simulation", check_rgcn_simulation)]),
]
ALL_CHECKS = [check for _, _, checks in CHECKS for check in checks]
INVARIANT_COVERAGE = [(module, invariant, ", ".join(name for name, _ in checks))
                      for module, invariant, checks in CHECKS]


@dataclass(frozen=True)
class VerifyReport:
    scale: str
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def format(self) -> str:
        lines = []
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            lines.append(
                f"[{status}] {r.name}  max_dev={r.max_deviation:.3e}  t={r.elapsed:.2f}s"
            )
        verdict = "all checks passed" if self.passed else "FAILURES PRESENT"
        lines.append(f"{len(self.results)} checks ({self.scale}): {verdict}")
        if self.scale == "full":
            lines.append("")
            lines.append("invariant coverage:")
            for module, bullet, checks in INVARIANT_COVERAGE:
                lines.append(f"  {module}: {bullet} -> {checks}")
        return "\n".join(lines)


def run_checks(scale: str = "quick") -> VerifyReport:
    results = []
    for name, fn in ALL_CHECKS:
        start = time.perf_counter()
        passed, dev = fn(scale)
        results.append(CheckResult(name=name, passed=passed, max_deviation=dev,
                                   elapsed=time.perf_counter() - start))
    return VerifyReport(scale=scale, results=tuple(results))
