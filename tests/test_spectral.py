import numpy as np
import pytest

from prodgraph import (
    EigenDecomposition,
    Graph,
    NotSymmetric,
    PEMatrix,
    ProdGraphError,
    RangeError,
    ScaleError,
    ShapeMismatch,
    cartesian_operator,
    cartesian_product_adjacency,
    concatenation_pe,
    dense_adjacency,
    eig_sym,
    jacobi_eigh,
    k_tuple_pe,
    laplacian,
    node_mark_indices,
    pe_oracle_check,
    permute_graph,
    product_pe,
    random_graph,
    random_permutation,
    spectral,
)
from prodgraph.graphs import complete_graph, connected_components, cycle_graph, path_graph
from prodgraph.product import product_permutation
from prodgraph.spectral import _canonical_signs, base_eigenpairs
from helpers import concatenated_pe, read_pe, traced_peak
from tuple_reference import full_enumeration_tuple_pe

P2 = path_graph(2)
P4 = path_graph(4)
K3 = complete_graph(3)
C5 = cycle_graph(5)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def product_laplacian(g):
    """Independent route: Laplacian of the explicit n^2-node product graph."""
    a2 = cartesian_product_adjacency(g).to_dense().astype(float)
    return np.diag(a2.sum(axis=1)) - a2


def test_laplacian_examples():
    assert laplacian(P2).tolist() == [[1.0, -1.0], [-1.0, 1.0]]
    assert not laplacian(Graph(n=2, edges=frozenset())).any()
    lk3 = laplacian(K3)
    assert np.array_equal(np.diag(lk3), [2.0, 2.0, 2.0])
    assert (lk3[~np.eye(3, dtype=bool)] == -1.0).all()


def test_laplacian_row_sums_zero_and_psd():
    for seed in range(6):
        g = random_graph(6, 0.5, seed=seed)
        lap = laplacian(g)
        assert np.abs(lap.sum(axis=1)).max() == 0.0
        assert eig_sym(lap).values[0] >= -1e-10


def test_eig_sym_p2_closed_form():
    dec = eig_sym(laplacian(P2))
    assert np.allclose(dec.values, [0.0, 2.0], atol=1e-12)
    assert np.allclose(dec.vectors[:, 0], [INV_SQRT2, INV_SQRT2], atol=1e-12)
    assert np.allclose(dec.vectors[:, 1], [INV_SQRT2, -INV_SQRT2], atol=1e-12)


def test_eig_sym_zero_matrix():
    dec = eig_sym(np.zeros((3, 3)))
    assert dec.values.tolist() == [0.0, 0.0, 0.0]
    assert np.array_equal(dec.vectors, np.eye(3))


def test_eig_sym_k3_spectrum():
    # characteristic polynomial of the K3 Laplacian gives {0, 3, 3}
    dec = eig_sym(laplacian(K3))
    assert np.allclose(dec.values, [0.0, 3.0, 3.0], atol=1e-12)


def test_eig_sym_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        eig_sym(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(NotSymmetric):
        eig_sym(np.zeros((2, 3)))


def test_eig_sym_invariants_on_random_matrices():
    rng = np.random.default_rng(0)
    for n in (2, 7, 19, 40):
        mat = rng.standard_normal((n, n))
        mat = (mat + mat.T) / 2
        dec = eig_sym(mat)
        scale = max(1.0, np.abs(mat).max())
        assert np.abs(mat @ dec.vectors - dec.vectors * dec.values).max() <= 1e-8 * scale
        assert np.abs(dec.vectors.T @ dec.vectors - np.eye(n)).max() <= 1e-10
        assert (np.diff(dec.values) >= 0).all()
        # agrees with an independent solver
        assert np.abs(dec.values - np.linalg.eigvalsh(mat)).max() <= 1e-10 * scale


def test_eig_sym_sign_convention():
    for seed in range(5):
        g = random_graph(6, 0.5, seed=seed)
        dec = eig_sym(laplacian(g))
        for j in range(6):
            col = dec.vectors[:, j]
            first = col[np.abs(col) > 1e-9][0]
            assert first > 0


def _loop_canonical_signs(vectors, threshold=1e-9):
    """Reference sign rule, one column at a time."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.flatnonzero(np.abs(col) > threshold)
        if nz.size and col[nz[0]] < 0:
            out[:, j] = -col
    return out


def test_canonical_signs_match_column_loop_bitwise():
    t = 1e-9
    columns = [
        [1e-10, -5e-10, 0.0, -t],  # entirely at or below the threshold
        [0.0, 0.0, 0.0, 0.0],  # exact zeros
        [-0.0, 0.0, -0.0, -0.0],  # negative zeros, none above the threshold
        [-0.0, -t, -2e-9, 0.5],  # a tie at the threshold, then a negative lead
        [t, -t, 3e-9, -1.0],  # ties in both signs, then a positive lead
        [-0.0, 0.0, -0.7, 0.7],  # zeros ahead of a negative lead
        [0.25, -0.0, -0.5, -0.0],  # a positive lead keeps its -0.0 entries
        [-1.0, 0.0, -0.0, 1e-12],
    ]
    vectors = np.array(columns).T
    rng = np.random.default_rng(3)
    for m in (vectors, rng.standard_normal((6, 5)), np.zeros((3, 0))):
        assert _canonical_signs(m).tobytes() == _loop_canonical_signs(m).tobytes()
        assert _canonical_signs(m).shape == m.shape


def test_jacobi_is_deterministic():
    g = random_graph(12, 0.4, seed=3)
    v1, u1 = jacobi_eigh(laplacian(g))
    v2, u2 = jacobi_eigh(laplacian(g))
    assert np.array_equal(v1, v2)
    assert np.array_equal(u1, u2)


def _sorted_jacobi(mat):
    values, vectors = jacobi_eigh(mat)
    order = np.argsort(values, kind="stable")
    return values[order], vectors[:, order]


def test_eig_sym_agrees_with_jacobi():
    """LAPACK route vs the Jacobi oracle: values, and projectors per cluster."""
    rng = np.random.default_rng(7)
    mats = []
    for n in (1, 2, 5, 12, 30):
        mat = rng.standard_normal((n, n))
        mats.append((mat + mat.T) / 2)
    # degenerate spectra: repeated eigenvalues make single vectors ambiguous
    mats += [laplacian(K3), laplacian(cycle_graph(6)), laplacian(complete_graph(5))]
    for mat in mats:
        dec = eig_sym(mat)
        values, vectors = _sorted_jacobi(mat)
        scale = max(1.0, float(np.abs(mat).max()))
        assert np.abs(dec.values - values).max() <= 1e-10 * scale
        cuts = np.flatnonzero(np.diff(values) > 1e-6 * scale) + 1
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, values.size]):
            p_lapack = dec.vectors[:, lo:hi] @ dec.vectors[:, lo:hi].T
            p_jacobi = vectors[:, lo:hi] @ vectors[:, lo:hi].T
            assert np.abs(p_lapack - p_jacobi).max() <= 1e-8


def test_base_eigenpairs_null_space_is_the_component_indicators(monkeypatch):
    # components {0, 5}, {1, 4, 6}, {2} and {3}, numbered by smallest node
    g = Graph(n=7, edges=frozenset({(1, 4), (4, 6), (0, 5)}))
    indicators = np.zeros((7, 4))
    for col, nodes in enumerate(([0, 5], [1, 4, 6], [2], [3])):
        indicators[nodes, col] = 1.0 / np.sqrt(len(nodes))
    calls = []
    monkeypatch.setattr(spectral, "eig_sym", lambda m: calls.append(m.shape) or eig_sym(m))
    for count in (1, 3, 4):
        dec = base_eigenpairs(g, count)
        assert dec.values.tolist() == [0.0] * count
        assert np.array_equal(dec.vectors, indicators[:, :count])
    assert calls == []
    dec = base_eigenpairs(g, 6)
    full = eig_sym(laplacian(g))
    assert calls == [(7, 7)]
    assert np.array_equal(dec.values, np.r_[np.zeros(4), full.values[4:6]])
    assert np.array_equal(dec.vectors, np.hstack([indicators, full.vectors[:, 4:6]]))


def test_base_eigenpairs_refuses_a_lapack_null_space_of_another_dimension(monkeypatch):
    def lifted(m):  # every label 1e-6 up: LAPACK seems to see no null space
        dec = eig_sym(m)
        return EigenDecomposition(values=dec.values + 1e-6, vectors=dec.vectors)

    monkeypatch.setattr(spectral, "eig_sym", lifted)
    with pytest.raises(ProdGraphError, match="found 0 null eigenvalues"):
        base_eigenpairs(path_graph(3), 2)


def test_product_pe_p2_labels_exact():
    pe = product_pe(P2, 4)
    assert pe.eigenvalues.tolist() == [0.0, 2.0, 2.0, 4.0]
    direct = np.linalg.eigvalsh(product_laplacian(P2))
    assert np.allclose(sorted(pe.eigenvalues), direct, atol=1e-12)


def test_product_pe_k3_label_multiset():
    pe = product_pe(K3, 9)
    assert np.allclose(pe.eigenvalues, [0.0, 3, 3, 3, 3, 6, 6, 6, 6], atol=1e-12)


def test_product_pe_first_column_constant():
    for g in (P2, K3, C5, path_graph(5)):
        pe = product_pe(g, 1)
        assert abs(pe.eigenvalues[0]) <= 1e-10
        col = pe.data[:, 0]
        assert np.abs(col - col[0]).max() <= 1e-10


def test_product_pe_entry_is_product_of_base_entries():
    g = random_graph(5, 0.5, seed=8)
    dec = base_eigenpairs(g, 5)
    pe = product_pe(g, 25)
    lam = dec.values
    # recompute the documented (label, i, j) order
    pairs = sorted(
        ((lam[i] + lam[j], i, j) for i in range(5) for j in range(5)),
        key=lambda t: (t[0], t[1], t[2]),
    )
    for col, (_, i, j) in enumerate(pairs):
        for s in range(5):
            for v in range(5):
                assert pe.data[s * 5 + v, col] == pytest.approx(
                    dec.vectors[s, i] * dec.vectors[v, j], abs=1e-12
                )


def test_product_pe_columns_unit_norm():
    g = random_graph(6, 0.5, seed=2)
    pe = product_pe(g, 10)
    assert np.abs(np.linalg.norm(pe.data, axis=0) - 1.0).max() <= 1e-10


def test_product_pe_range_errors():
    with pytest.raises(RangeError):
        product_pe(P2, 0)
    with pytest.raises(RangeError):
        product_pe(P2, 5)


def test_k_tuple_pe_matches_product_pe_bitwise():
    for seed in range(4):
        n = 2 + seed
        g = random_graph(n, 0.5, seed=seed)
        a = product_pe(g, n * n)
        b = k_tuple_pe(g, 2, n * n)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)


def test_k_tuple_pe_sorts_only_candidate_tuples_bytewise():
    # the library enumerates only tuples with every index below k; the
    # reference sorts all n^K of them
    graphs = [cycle_graph(6), complete_graph(4), path_graph(5), Graph(n=1, edges=frozenset()),
              Graph(n=4, edges=frozenset())]
    graphs += [random_graph(n, 0.4, seed=n) for n in (3, 7, 12)]
    cases = 0
    for g in graphs:
        for order in (2, 3):
            for k in (1, 2, 4, 9):
                if k > g.n**order:
                    continue
                pe = k_tuple_pe(g, order, k)
                data, labels = full_enumeration_tuple_pe(g, order, k)
                assert pe.data.tobytes() == data.tobytes(), (g.n, order, k)
                assert pe.eigenvalues.tobytes() == labels.tobytes(), (g.n, order, k)
                cases += 1
    assert cases == 58


def test_k_tuple_pe_p2_cube_spectrum():
    pe = k_tuple_pe(P2, 3, 8)
    assert np.allclose(pe.eigenvalues, [0, 2, 2, 2, 4, 4, 4, 6], atol=1e-12)
    cube = cartesian_operator(dense_adjacency(P2), 3).astype(float)
    direct = np.linalg.eigvalsh(np.diag(cube.sum(axis=1)) - cube)
    assert np.allclose(pe.eigenvalues, direct, atol=1e-10)


def test_k_tuple_pe_order_one_is_base():
    g = random_graph(5, 0.5, seed=4)
    dec = eig_sym(laplacian(g))
    pe = k_tuple_pe(g, 1, 5)
    assert np.allclose(pe.data, dec.vectors, atol=1e-15)
    assert np.allclose(pe.eigenvalues, dec.values, atol=1e-15)


def test_k_tuple_pe_guards():
    with pytest.raises(ScaleError):
        k_tuple_pe(random_graph(9, 0.3, seed=0), 4, 2)
    with pytest.raises(RangeError):
        k_tuple_pe(P2, 2, 0)


def test_concatenation_pe_p2_row():
    pe = concatenation_pe(P2, 2)
    assert pe.k == 4
    row01 = pe.data[0 * 2 + 1]
    assert np.allclose(row01, [INV_SQRT2, INV_SQRT2, INV_SQRT2, -INV_SQRT2], atol=1e-12)


def test_concatenation_pe_swapped_tuples_swap_halves():
    g = random_graph(5, 0.5, seed=6)
    pe = concatenation_pe(g, 3)
    for s in range(5):
        for v in range(5):
            fwd = pe.data[s * 5 + v]
            rev = pe.data[v * 5 + s]
            assert np.array_equal(fwd[:3], rev[3:])
            assert np.array_equal(fwd[3:], rev[:3])


def test_concatenation_pe_factorizes_product_pe():
    for seed in range(5):
        n = 2 + seed
        g = random_graph(n, 0.5, seed=seed + 20)
        full = product_pe(g, n * n)
        concat = concatenation_pe(g, n)
        lam = base_eigenpairs(g, n).values
        pairs = sorted(
            ((lam[i] + lam[j], i, j) for i in range(n) for j in range(n)),
            key=lambda t: (t[0], t[1], t[2]),
        )
        for col, (_, i, j) in enumerate(pairs):
            product = concat.data[:, i] * concat.data[:, n + j]
            assert np.abs(full.data[:, col] - product).max() <= 1e-12


def test_concatenation_pe_range():
    with pytest.raises(RangeError):
        concatenation_pe(P2, 3)


def test_node_mark_examples():
    assert node_mark_indices(P2).dist.tolist() == [[0, 1], [1, 0]]
    lonely = node_mark_indices(Graph(n=2, edges=frozenset()))
    assert lonely.dist.tolist() == [[0, 2], [2, 0]]
    assert lonely.vocabulary == 3
    assert node_mark_indices(P4).dist[0, 3] == 3


def test_pe_oracle_check_examples():
    rep = pe_oracle_check(P2)
    assert rep.passed and rep.eigenvalue_deviation <= 1e-12
    assert pe_oracle_check(K3).passed
    assert pe_oracle_check(random_graph(6, 0.4, seed=1)).passed


def test_pe_oracle_check_guards_scale():
    with pytest.raises(ScaleError):
        pe_oracle_check(random_graph(9, 0.4, seed=0))


def test_spectrum_sum_law_many_graphs():
    graphs = [P2, P4, K3, C5] + [random_graph(2 + s % 7, 0.45, seed=s) for s in range(12)]
    for g in graphs:
        pe = product_pe(g, g.n * g.n)
        direct = np.linalg.eigvalsh(product_laplacian(g))
        assert np.abs(np.sort(pe.eigenvalues) - direct).max() <= 1e-8


def test_pe_permutation_covariance_simple_spectrum():
    checked = 0
    for seed in range(20):
        n = 4 + seed % 3
        g = random_graph(n, 0.5, seed=seed + 77)
        lam = eig_sym(laplacian(g)).values
        if np.diff(lam).min(initial=1.0) <= 1e-6:
            continue
        checked += 1
        perm = random_permutation(n, seed=seed)
        pp = product_permutation(perm)
        pe = product_pe(g, n * n)
        pe_perm = product_pe(permute_graph(g, perm), n * n)
        labels = pe.eigenvalues
        isolated = (np.r_[np.inf, np.diff(labels)] > 1e-6) & (np.r_[np.diff(labels), np.inf] > 1e-6)
        rows = np.empty_like(pe.data)
        rows[pp] = pe.data
        dev = np.abs(np.abs(pe_perm.data[:, isolated]) - np.abs(rows[:, isolated])).max()
        assert dev <= 1e-8
        if checked >= 4:
            break
    assert checked >= 2


def test_pe_text_roundtrip():
    pe = product_pe(random_graph(4, 0.5, seed=3), 6)
    text = pe.to_text()
    back = read_pe(text)
    assert back.rows == pe.rows and back.k == pe.k
    assert np.array_equal(back.data, pe.data)  # 17 significant digits round-trips f64
    assert np.array_equal(back.eigenvalues, pe.eigenvalues)


def test_pe_matrix_sizes_come_from_data():
    # a PE is its factor blocks: rows multiply, and every block has one
    # column per label
    pe = PEMatrix(factors=[np.zeros((4, 3))], eigenvalues=np.zeros(3))
    assert (pe.rows, pe.k) == (4, 3)
    assert PEMatrix(factors=[np.zeros((4, 3)), np.zeros((5, 3))], eigenvalues=np.zeros(3)).rows == 20
    for labels in (np.zeros(4), np.zeros(2), np.zeros((3, 1))):
        with pytest.raises(ShapeMismatch):
            PEMatrix(factors=[np.zeros((4, 3))], eigenvalues=labels)
    for factors in ([np.zeros(2)], [np.zeros((3, 2)), np.zeros((3, 3))], []):
        with pytest.raises(ShapeMismatch):
            PEMatrix(factors=factors, eigenvalues=np.zeros(2))


def test_pe_blocks_are_rows_of_the_expansion():
    # expand(lead) forms, bit for bit, the rows of .data whose leading index
    # is each entry of lead, in lead's order, repeats included: the K
    # (n, k) factor blocks of product and K = 3 and K = 1 tuple PEs, and
    # the two (n, 2k) blocks of a concatenation PE
    g = random_graph(5, 0.5, seed=8)
    cases = ((product_pe(g, 7), 2), (k_tuple_pe(g, 3, 9), 3), (k_tuple_pe(g, 1, 4), 1),
             (concatenation_pe(g, 3), 2))
    for pe, order in cases:
        assert [f.shape for f in pe.factors] == [(g.n, pe.k)] * order
        assert not pe.data.flags.writeable and pe.data is pe.data
        by_lead = pe.data.reshape(g.n, -1, pe.k)
        for lead in ([0], [3, 1], list(range(g.n)), [4, 0, 4], []):
            got = pe.expand(lead)
            assert got.shape == (len(lead) * pe.rows // g.n, pe.k)
            assert got.tobytes() == by_lead[lead].tobytes()


def test_concatenation_pe_is_the_concatenated_rows_bitwise():
    # the two factor blocks [U | 1] and [1 | U] expand to the (n^2, 2k)
    # concatenation [repeat(U) | tile(U)] bit for bit: random, disconnected
    # (the indicator basis, no eigensolver) and featured graphs
    for g in (random_graph(9, 0.4, seed=2), random_graph(30, 0.02, seed=4),
              random_graph(12, 0.3, seed=6, with_features=2), P2):
        for k in sorted({1, 2, g.n}):
            pe = concatenation_pe(g, k)
            assert pe.data.tobytes() == concatenated_pe(g, k).tobytes()
            assert pe.eigenvalues.tobytes() == np.tile(base_eigenpairs(g, k).values, 2).tobytes()


def test_concatenation_pe_peak_memory():
    # on a graph of at least k components no eigensolver runs, and the PE
    # is its two (n, 2k) blocks: 16 KB here, against the 4 MB (n^2, 2k)
    # concatenation it built before it was factored
    n, k = 256, 4
    g = random_graph(n, 1 / (n - 1), seed=5)
    assert connected_components(g).max() + 1 >= k
    pe, peak = traced_peak(lambda: concatenation_pe(g, k))
    assert peak < n * n * 2 * k * 8 / 16
    assert [f.shape for f in pe.factors] == [(n, 2 * k)] * 2
