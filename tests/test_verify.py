"""The verification suite itself, plus negative-control bug injections."""

import numpy as np

from prodgraph import (
    SparseAdjacency,
    concatenation_pe,
    dense_adjacency,
    eig_sym,
    internal_adjacency,
    kron,
    laplacian,
    product_pe,
    random_graph,
    spectral,
    verify,
)
from prodgraph.spectral import EigenDecomposition
from prodgraph.verify import ALL_CHECKS, INVARIANT_COVERAGE, run_checks


def test_quick_scale_runs_every_check():
    report = run_checks("quick")
    assert report.passed
    assert len(report.results) == len(ALL_CHECKS) == 25
    assert [r.name for r in report.results] == [name for name, _ in ALL_CHECKS]


def test_full_scale_passes_every_check():
    report = run_checks("full")
    assert report.passed, [r.name for r in report.results if not r.passed]
    assert [r.name for r in report.results] == [name for name, _ in ALL_CHECKS]


def test_coverage_table_names_each_check_once():
    covered = [
        name.strip()
        for _, _, checks in INVARIANT_COVERAGE
        for name in checks.split(",")
    ]
    assert sorted(covered) == sorted(name for name, _ in ALL_CHECKS)


def test_full_report_enumerates_coverage():
    report = run_checks("quick")
    # coverage listing is a full-scale feature
    assert "invariant coverage" not in report.format()
    full_like = type(report)(scale="full", results=report.results)
    text = full_like.format()
    assert "invariant coverage:" in text
    for module in ("graph-core", "product-graph", "spectral-pe", "sab-model"):
        assert module in text


def test_negative_control_flatten_off_by_one():
    # an off-by-one in the tuple flattening must contradict the Kronecker oracle
    g = random_graph(4, 0.5, seed=0)
    n = g.n
    good = internal_adjacency(g)
    shifted = SparseAdjacency.from_pairs(
        good.rows, good.cols, (good.entries + 1) % (n * n)
    )
    a = dense_adjacency(g)
    oracle = kron(np.eye(n, dtype=np.int64), a)
    assert np.array_equal(good.to_dense(), oracle)
    assert not np.array_equal(shifted.to_dense(), oracle)


def test_negative_control_sign_flip():
    """Negating one base eigenvector: projector and paired-half factorization
    checks are sign-blind, but flipping only ONE concatenation half is caught."""
    g = random_graph(5, 0.5, seed=3)
    n = g.n
    dec = eig_sym(laplacian(g))
    flipped_vectors = dec.vectors.copy()
    flipped_vectors[:, 1] = -flipped_vectors[:, 1]
    # projectors never see the sign
    span = dec.vectors[:, 1:2] @ dec.vectors[:, 1:2].T
    span_flipped = flipped_vectors[:, 1:2] @ flipped_vectors[:, 1:2].T
    assert np.abs(span - span_flipped).max() <= 1e-15
    # both halves flipped: the product-PE column (1, 1) is unchanged
    both = np.multiply.outer(flipped_vectors[:, 1], flipped_vectors[:, 1]).ravel()
    orig = np.multiply.outer(dec.vectors[:, 1], dec.vectors[:, 1]).ravel()
    assert np.abs(both - orig).max() <= 1e-15
    # only one half flipped: the factorization check must detect the mismatch
    concat = concatenation_pe(g, n)
    full = product_pe(g, n * n)
    corrupted = concat.data.copy()
    corrupted[:, 1] = -corrupted[:, 1]  # s-half of eigenvector 1 only
    lam = dec.values
    pairs = sorted(
        ((lam[i] + lam[j], i, j) for i in range(n) for j in range(n)),
        key=lambda t: (t[0], t[1], t[2]),
    )
    col = next(idx for idx, (_, i, j) in enumerate(pairs) if i == 1 and j == 1)
    bad_product = corrupted[:, 1] * corrupted[:, n + 1]
    good_product = concat.data[:, 1] * concat.data[:, n + 1]
    assert np.abs(full.data[:, col] - good_product).max() <= 1e-12
    assert np.abs(full.data[:, col] - bad_product).max() > 1e-6


def test_negative_control_broken_edge_count():
    # dropping one directed entry must violate the exact 2n|E| count
    g = random_graph(4, 0.6, seed=5)
    adj = internal_adjacency(g)
    broken = SparseAdjacency.from_pairs(adj.rows, adj.cols, adj.entries[:-1])
    assert adj.nnz == 2 * g.n * g.num_edges
    assert broken.nnz != 2 * g.n * g.num_edges


def test_negative_control_missing_null_indicator(monkeypatch):
    # a null basis one component short spans too little of the null space
    exact = verify.base_eigenpairs

    def one_short(g, count):
        dec = exact(g, count)
        last = int(np.count_nonzero(dec.values == 0.0)) - 1
        keep = np.arange(dec.values.size) != last
        return EigenDecomposition(values=dec.values[keep], vectors=dec.vectors[:, keep])

    assert verify.check_null_space_exact("quick")[0]
    monkeypatch.setattr(verify, "base_eigenpairs", one_short)
    ok, dev = verify.check_null_space_exact("quick")
    assert not ok and dev > 0.1


def test_negative_control_product_laplacian_breaks_pe_cost_structure(monkeypatch):
    # a PE route that builds the n^2 x n^2 product Laplacian next to the
    # base decomposition allocates an n^4 block
    solver = spectral.eig_sym

    def via_product_laplacian(matrix):
        eye = np.eye(matrix.shape[0])
        np.kron(matrix, eye) + np.kron(eye, matrix)
        return solver(matrix)

    monkeypatch.setattr(spectral, "eig_sym", via_product_laplacian)
    ok, dev = verify.check_pe_cost_structure("quick")
    assert not ok and dev > 1.0


def test_negative_control_swapped_factor_blocks_break_tuple_pe_specialization(monkeypatch):
    # an expansion that multiplies the factor blocks in reverse order puts
    # u_j (x) u_i where u_i (x) u_j belongs; product_pe and k_tuple_pe(g, 2)
    # still agree with each other, so only an independent oracle sees it
    expand = spectral.PEMatrix.expand

    def reversed_blocks(pe, lead):
        return expand(spectral.PEMatrix(factors=pe.factors[::-1], eigenvalues=pe.eigenvalues), lead)

    assert verify.check_tuple_pe_specialization("quick")[0]
    monkeypatch.setattr(spectral.PEMatrix, "expand", reversed_blocks)
    g = random_graph(4, 0.5, seed=41)
    assert np.array_equal(spectral.product_pe(g, 16).data, spectral.k_tuple_pe(g, 2, 16).data)
    ok, dev = verify.check_tuple_pe_specialization("quick")
    assert not ok and dev > 0.1
