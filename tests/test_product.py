import numpy as np
import pytest

from prodgraph import (
    EmptySample,
    Graph,
    InvalidInput,
    InvalidPermutation,
    RangeError,
    SamplingMask,
    ScaleError,
    ValidationError,
    cartesian_operator,
    cartesian_product_adjacency,
    closed_form_cartesian,
    dense_adjacency,
    external_adjacency,
    internal_adjacency,
    k_factor_adjacency,
    k_point_adjacency,
    kron,
    permute_graph,
    point_adjacency,
    product_permutation,
    random_graph,
    random_permutation,
    restrict_adjacency,
    restrict_rows,
    sampled_adjacency,
    slot_adjacency,
)
from prodgraph.product import KronAdjacency, build_product_bundle
from prodgraph.graphs import SparseAdjacency, complete_graph, path_graph
from prodgraph.rng import SplitMix64
from helpers import entry_set
from tuple_reference import (
    factored_adjacency,
    flatten,
    masked_adjacency,
    point_pairs,
    reference_adjacency,
    slot_pairs,
    unflatten,
)

P2 = path_graph(2)
K3 = complete_graph(3)
EMPTY2 = Graph(n=2, edges=frozenset())


def brute_force_kron(a, b):
    p, q = a.shape
    r, s = b.shape
    out = np.zeros((p * r, q * s), dtype=a.dtype)
    for i in range(p):
        for j in range(r):
            for ii in range(q):
                for jj in range(s):
                    out[i * r + j, ii * s + jj] = a[i, ii] * b[j, jj]
    return out


def test_tuple_indexing_bijection():
    # the reference digit code of tests/tuple_reference.py
    assert flatten((2, 1), 3) == 7
    seen = {flatten(unflatten(i, 3, 2), 3) for i in range(9)}
    assert seen == set(range(9))
    assert flatten((1, 0, 1), 2) == 5
    assert unflatten(5, 2, 3) == (1, 0, 1)


def test_internal_adjacency_p2():
    assert entry_set(internal_adjacency(P2)) == {(0, 1), (1, 0), (2, 3), (3, 2)}


def test_internal_adjacency_empty_graph():
    assert internal_adjacency(EMPTY2).nnz == 0


def test_internal_adjacency_k3_count():
    assert internal_adjacency(K3).nnz == 3 * 6


def test_external_adjacency_p2():
    assert entry_set(external_adjacency(P2)) == {(0, 2), (2, 0), (1, 3), (3, 1)}


def test_external_is_tuple_transposed_internal():
    for seed in range(8):
        n = 2 + seed % 5
        g = random_graph(n, 0.5, seed=seed)
        swap = np.array([flatten(unflatten(i, n, 2)[::-1], n) for i in range(n * n)])
        internal = internal_adjacency(g).to_dense()
        conjugated = internal[np.ix_(swap, swap)]
        assert np.array_equal(external_adjacency(g).to_dense(), conjugated)


def test_point_adjacency_examples():
    assert entry_set(point_adjacency(2)) == {(0, 0), (1, 3), (2, 0), (3, 3)}
    assert entry_set(point_adjacency(1)) == {(0, 0)}
    row7 = {(r, c) for r, c in entry_set(point_adjacency(3)) if r == 7}
    assert row7 == {(7, 4)}  # (s=2,v=1) reads its root (1,1)


def test_point_adjacency_one_entry_per_row():
    for n in (1, 2, 5):
        adj = point_adjacency(n)
        assert adj.nnz == n * n
        rows = adj.entries[:, 0]
        assert sorted(rows.tolist()) == list(range(n * n))


def test_cartesian_product_p2_is_c4():
    cart = cartesian_product_adjacency(P2)
    assert cart.nnz == 8
    dense = cart.to_dense()
    assert np.array_equal(dense, dense.T)
    assert dense.sum(axis=1).tolist() == [2, 2, 2, 2]  # the 4-cycle 0-1-3-2-0
    assert dense[0, 1] == dense[1, 3] == dense[3, 2] == dense[2, 0] == 1


def test_cartesian_product_empty():
    assert cartesian_product_adjacency(Graph(n=3, edges=frozenset())).nnz == 0


def test_kron_examples():
    a = np.array([[0, 1], [1, 0]])
    eye = np.eye(2, dtype=np.int64)
    block_diag = kron(eye, a)
    assert np.array_equal(block_diag[:2, :2], a)
    assert np.array_equal(block_diag[2:, 2:], a)
    assert not block_diag[:2, 2:].any()
    anti = kron(a, eye)
    assert np.array_equal(anti[:2, 2:], eye)
    assert not anti[:2, :2].any()
    assert not kron(np.zeros((2, 2), dtype=int), a).any()


def test_kron_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = (rng.random((3, 2)) < 0.5).astype(np.int64)
        b = (rng.random((2, 4)) < 0.5).astype(np.int64)
        assert np.array_equal(kron(a, b), brute_force_kron(a, b))


def test_kronecker_oracle_equivalence():
    for seed in range(20):
        n = 2 + seed % 7
        g = random_graph(n, 0.45, seed=seed)
        a = dense_adjacency(g)
        eye = np.eye(n, dtype=np.int64)
        assert np.array_equal(internal_adjacency(g).to_dense(), kron(eye, a))
        assert np.array_equal(external_adjacency(g).to_dense(), kron(a, eye))
        assert np.array_equal(
            cartesian_product_adjacency(g).to_dense(), kron(a, eye) + kron(eye, a)
        )


def test_cartesian_operator_base_case():
    a = dense_adjacency(K3)
    assert np.array_equal(cartesian_operator(a, 1), a.astype(np.int8))


def test_cartesian_operator_k2_matches_bundle():
    a = dense_adjacency(P2)
    assert np.array_equal(
        cartesian_operator(a, 2).astype(np.int64),
        cartesian_product_adjacency(P2).to_dense(),
    )


def test_cartesian_operator_k3_gives_hypercube():
    cube = cartesian_operator(dense_adjacency(P2), 3)
    assert cube.sum() == 24
    assert (cube.sum(axis=1) == 3).all()
    assert np.array_equal(cube, cube.T)
    assert not np.diag(cube).any()


def test_cartesian_operator_rejects_self_loops():
    bad = np.array([[1, 1], [1, 0]])
    with pytest.raises(InvalidInput):
        cartesian_operator(bad, 2)
    with pytest.raises(InvalidInput):
        closed_form_cartesian(bad, 2)


def test_cartesian_operator_scale_guard():
    a = dense_adjacency(random_graph(9, 0.4, seed=0))
    with pytest.raises(ScaleError):
        cartesian_operator(a, 4)  # 9^4 = 6561 > 4096


def test_k_factor_slots_match_named_adjacencies():
    for seed in range(6):
        g = random_graph(3 + seed % 3, 0.5, seed=seed)
        a = dense_adjacency(g)
        assert np.array_equal(
            k_factor_adjacency(a, 0, 2).astype(np.int64),
            external_adjacency(g).to_dense(),
        )
        assert np.array_equal(
            k_factor_adjacency(a, 1, 2).astype(np.int64),
            internal_adjacency(g).to_dense(),
        )


def test_k_factor_slot_sum_is_cartesian():
    a = dense_adjacency(P2)
    total = sum(k_factor_adjacency(a, k, 3) for k in range(3))
    assert np.array_equal(total, cartesian_operator(a, 3))


def test_k_factor_rejects_bad_slot():
    with pytest.raises(RangeError):
        k_factor_adjacency(dense_adjacency(P2), 2, 2)


def test_closed_form_equals_recursive():
    for seed in range(20):
        for n in (2, 3, 4):
            a = dense_adjacency(random_graph(n, 0.5, seed=seed))
            for order in (1, 2, 3):
                assert np.array_equal(
                    cartesian_operator(a, order), closed_form_cartesian(a, order)
                )


def test_closed_form_k3_degrees():
    out = closed_form_cartesian(dense_adjacency(K3), 2)
    assert out.shape == (9, 9)
    assert (out.sum(axis=1) == 4).all()


def test_slot_disjointness():
    for seed in range(6):
        for n in (2, 3, 4):
            a = dense_adjacency(random_graph(n, 0.5, seed=seed))
            for order in (2, 3):
                slots = [k_factor_adjacency(a, k, order).astype(np.int64) for k in range(order)]
                for i in range(order):
                    for j in range(i + 1, order):
                        assert (slots[i] * slots[j]).sum() == 0


def test_k_point_recovers_point_adjacency():
    for n in (2, 3, 4):
        assert np.array_equal(
            k_point_adjacency(n, 2, 1).to_dense(),
            point_adjacency(n).to_dense(),
        )


def test_k_point_other_slot_is_transposed_variant():
    # free slot 2: row (v1, v2) reads root (v1, v1)
    entries = sorted(entry_set(k_point_adjacency(2, 2, 2)))
    assert entries == [(0, 0), (1, 0), (2, 3), (3, 3)]


def test_k_point_single_node():
    for order in (1, 2, 3):
        for i in range(1, order + 1):
            assert k_point_adjacency(1, order, i).to_dense().tolist() == [[1]]


def test_k_point_counts_and_range():
    kp = k_point_adjacency(3, 3, 2)
    assert kp.nnz == 9  # one entry per (root value, free slot value)
    with pytest.raises(RangeError):
        k_point_adjacency(3, 2, 0)
    with pytest.raises(RangeError):
        k_point_adjacency(3, 2, 3)


def test_tuple_builders_match_brute_force_enumeration():
    # K = 4 at n <= 3 is the first case with right-digit strides > 1 on
    # both sides of an inner slot
    for n in range(1, 5):
        graphs = [path_graph(n)] + [random_graph(n, 0.6, seed=seed) for seed in range(3)]
        for order in range(1, 5 if n <= 3 else 4):
            for g in graphs:
                a = dense_adjacency(g)
                for slot in range(order):
                    built = slot_adjacency(g, order, slot)
                    ref = reference_adjacency(n, order, slot_pairs(g, order, slot))
                    assert np.array_equal(built.entries, ref.entries)
                    assert np.array_equal(built.to_dense(), k_factor_adjacency(a, slot, order))
            for i in range(1, order + 1):
                ref = reference_adjacency(n, order, point_pairs(n, order, i))
                assert np.array_equal(k_point_adjacency(n, order, i).entries, ref.entries)


def test_tuple_builders_emit_row_major_entries_without_from_pairs(monkeypatch):
    # the builders place every entry by index arithmetic; the strict-order
    # check of SparseAdjacency.__post_init__ is their only guard
    def spy(*args, **kwargs):
        raise AssertionError("a tuple builder called SparseAdjacency.from_pairs")
    monkeypatch.setattr(SparseAdjacency, "from_pairs", spy)
    for g in (EMPTY2, P2, K3, random_graph(5, 0.5, seed=1)):
        for order in range(1, 5):
            for slot in range(order):
                slot_adjacency(g, order, slot)
            for i in range(1, order + 1):
                k_point_adjacency(g.n, order, i)
        build_product_bundle(g)


def test_sparse_tuple_builders_pass_the_dense_guard():
    g = random_graph(9, 0.4, seed=0)  # 9^4 = 6561 > 4096
    for slot in range(4):
        assert slot_adjacency(g, 4, slot).nnz == 2 * g.num_edges * 9**3
    for i in range(1, 5):
        assert k_point_adjacency(9, 4, i).nnz == 81
    with pytest.raises(RangeError):
        slot_adjacency(g, 2, 2)
    with pytest.raises(RangeError):
        slot_adjacency(g, 2, -1)
    with pytest.raises(ScaleError):
        k_point_adjacency(40, 6, 1)  # (40^6)^2 entry keys overflow int64


def test_product_permutation_matches_tuple_loop():
    for n in range(1, 7):
        perm = random_permutation(n, seed=10 * n)
        ref = [flatten([perm[x] for x in unflatten(i, n, 2)], n) for i in range(n * n)]
        pp = product_permutation(perm)
        assert pp.dtype == np.int64 and pp.tolist() == ref
    with pytest.raises(InvalidPermutation):
        product_permutation([0, 0, 1])


def _clique_adjacencies(n):
    """The global connectivities (I (x) (J - I), (J - I) (x) I): the internal
    and external adjacencies of the complete graph K_n."""
    clique = complete_graph(n)
    return internal_adjacency(clique), external_adjacency(clique)


def test_global_adjacencies():
    gi, ge = _clique_adjacencies(3)
    assert gi.nnz == 18 and ge.nnz == 18
    n = 3
    for (r, c) in entry_set(gi):
        assert r // n == c // n and r % n != c % n
    for (r, c) in entry_set(ge):
        assert r % n == c % n and r // n != c // n


def test_global_adjacencies_edge_cases():
    gi, ge = _clique_adjacencies(1)
    assert gi.nnz == 0 and ge.nnz == 0
    gi2, _ = _clique_adjacencies(2)
    assert entry_set(gi2) == entry_set(internal_adjacency(P2))


def test_global_matches_clique_kron():
    n = 4
    jii = np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)
    eye = np.eye(n, dtype=np.int64)
    gi, ge = _clique_adjacencies(n)
    assert np.array_equal(gi.to_dense(), kron(eye, jii))
    assert np.array_equal(ge.to_dense(), kron(jii, eye))


def test_edge_count_formulas():
    for seed in range(10):
        g = random_graph(2 + seed % 7, 0.4, seed=seed)
        target = 2 * g.n * g.num_edges
        assert internal_adjacency(g).nnz == target
        assert external_adjacency(g).nnz == target
        assert point_adjacency(g.n).nnz == g.n * g.n
        # the K = 3 slots: 2|E| n^(K-1) entries, counted and expanded
        for axis in range(3):
            slot = KronAdjacency(*g.directed_edges, axis, (g.n,) * 3)
            assert slot.nnz == slot.to_sparse().nnz == 2 * g.num_edges * g.n ** 2


def test_bundle_disjoint_internal_external():
    for seed in range(6):
        g = random_graph(4, 0.6, seed=seed)
        bundle = build_product_bundle(g)
        internal, external = factored_adjacency(bundle.internal), factored_adjacency(bundle.external)
        assert not (entry_set(internal) & entry_set(external))
        # the factored types are the matrices the COO builders materialize
        for factored, coo, built in ((bundle.internal, internal, internal_adjacency(g)),
                                     (bundle.external, external, external_adjacency(g)),
                                     (bundle.point, factored_adjacency(bundle.point), point_adjacency(4))):
            assert np.array_equal(coo.entries, built.entries)
            assert factored.nnz == built.nnz


def test_degree_buckets_partition_the_base_edges():
    for g in (random_graph(9, 0.4, seed=3), Graph(n=4, edges=frozenset({(0, 1)})), EMPTY2):
        adj = build_product_bundle(g).internal
        nbrs = g.neighbors()
        seen = []
        edges = [(u, w) for b in adj.buckets for u, row in zip(b.nodes, b.senders) for w in row]
        for b in adj.buckets:
            assert (np.diff(b.nodes) > 0).all()
            for u, row, rev in zip(b.nodes, b.senders, b.reverse):
                assert row.tolist() == nbrs[u]  # every receiver of degree k, its senders ascending
                assert [edges[e] for e in rev] == [(w, u) for w in row]
                seen.append(int(u))
        assert sorted(seen) == [u for u in range(g.n) if nbrs[u]]
        assert len(edges) == 2 * g.num_edges


def test_adjacency_permutation_equivariance():
    for seed in range(6):
        n = 3 + seed % 4
        g = random_graph(n, 0.5, seed=seed)
        perm = random_permutation(n, seed=seed + 9)
        pp = product_permutation(perm)
        for build in (internal_adjacency, external_adjacency, cartesian_product_adjacency):
            orig = build(g).to_dense()
            conj = np.zeros_like(orig)
            conj[np.ix_(pp, pp)] = orig
            assert np.array_equal(build(permute_graph(g, perm)).to_dense(), conj)


def test_sampling_mask_validation():
    with pytest.raises(EmptySample):
        SamplingMask(n=3, sampled=())
    with pytest.raises(EmptySample):
        SamplingMask.from_ratio(4, 0.0, SplitMix64(0))
    with pytest.raises(RangeError):
        SamplingMask.from_ratio(4, 1.5, SplitMix64(0))
    mask = SamplingMask.from_ratio(4, 0.5, SplitMix64(0))
    assert len(mask.sampled) == 2


def test_full_mask_keeps_everything():
    g = random_graph(5, 0.5, seed=2)
    adj = internal_adjacency(g)
    masked = sampled_adjacency(build_product_bundle(g).internal, SamplingMask.full(5))
    assert entry_set(masked) == entry_set(adj)


def test_mask_filters_p2_examples():
    mask = SamplingMask(n=2, sampled=(0,))
    bundle = build_product_bundle(P2)
    masked_internal = sampled_adjacency(bundle.internal, mask)
    assert entry_set(masked_internal) == {(0, 1), (1, 0)}
    masked_external = sampled_adjacency(bundle.external, mask)
    assert masked_external.nnz == 0  # every external edge crosses subgraphs


def _from_pairs_restriction(adj, mask):
    """Reference route: filter, reindex, then sort and dedup via from_pairs."""
    n = mask.n
    kept = np.asarray(mask.sampled)
    ent = adj.entries
    keep = np.isin(ent[:, 0] // n, kept) & np.isin(ent[:, 1] // n, kept)
    masked = SparseAdjacency.from_pairs(adj.rows, adj.cols, ent[keep])
    rows = np.searchsorted(kept, masked.entries[:, 0] // n) * n + masked.entries[:, 0] % n
    cols = np.searchsorted(kept, masked.entries[:, 1] // n) * n + masked.entries[:, 1] % n
    m = kept.size
    return masked, SparseAdjacency.from_pairs(m * n, m * n, np.column_stack([rows, cols]))


def test_restriction_matches_from_pairs_route():
    for seed in range(12):
        n = 3 + seed % 6
        g = random_graph(n, 0.5, seed=seed + 40)
        rng = SplitMix64(seed)
        mask = SamplingMask.from_ratio(n, 0.2 + 0.1 * (seed % 8), rng)
        bundle = build_product_bundle(g)
        for adj, factored in ((internal_adjacency(g), bundle.internal),
                              (external_adjacency(g), bundle.external),
                              (point_adjacency(n), bundle.point)):
            masked_ref, restricted_ref = _from_pairs_restriction(adj, mask)
            masked = sampled_adjacency(factored, mask)
            restricted = restrict_adjacency(factored, mask)
            assert np.array_equal(masked.entries, masked_ref.entries)
            assert np.array_equal(factored_adjacency(restricted).entries, restricted_ref.entries)
            assert restricted.nnz == restricted_ref.nnz
            assert restricted.grid == (len(mask.sampled), n)


def test_factored_products_match_dense():
    # neighbor_sum and gather are the matrices times x, sampled or not, and
    # rows without in-neighbours (all of them for an edgeless graph) get zeros
    rng = np.random.default_rng(3)
    for g in (random_graph(5, 0.5, seed=6), EMPTY2, Graph(n=1, edges=frozenset())):
        bundle = build_product_bundle(g)
        for mask in (SamplingMask.full(g.n), SamplingMask(n=g.n, sampled=(0,))):
            for kind in ("internal", "external", "point"):
                adj = restrict_adjacency(getattr(bundle, kind), mask)
                x = rng.standard_normal((len(mask.sampled) * g.n, 3))
                got = adj.gather(x) if kind == "point" else adj.neighbor_sum(x)
                assert got.shape == x.shape and got.dtype == np.float64
                assert np.allclose(got, factored_adjacency(adj).to_dense() @ x, rtol=0, atol=1e-12)


def test_restriction_full_mask_keeps_arrays_and_refuses_a_second_mask():
    g = random_graph(6, 0.5, seed=8)
    bundle = build_product_bundle(g)
    for kind in ("internal", "external", "point"):
        adj = getattr(bundle, kind)
        full = restrict_adjacency(adj, SamplingMask.full(6))
        for name, value in vars(adj).items():
            if name != "buckets":
                assert np.array_equal(getattr(full, name), value), (kind, name)
        restricted = restrict_adjacency(adj, SamplingMask(n=6, sampled=(0, 3, 4)))
        with pytest.raises(ValidationError):
            restrict_adjacency(restricted, SamplingMask(n=6, sampled=(0, 1)))
        with pytest.raises(ValidationError):
            restrict_adjacency(adj, SamplingMask(n=5, sampled=(0, 1)))


def test_mask_idempotent():
    # a sampled adjacency already lies on the sampled rows and columns:
    # filtering it by the mask again drops nothing
    g = random_graph(5, 0.5, seed=4)
    mask = SamplingMask(n=5, sampled=(0, 2, 3))
    bundle = build_product_bundle(g)
    for adj in (bundle.internal, bundle.external, bundle.point):
        once = sampled_adjacency(adj, mask)
        assert entry_set(masked_adjacency(once, mask)) == entry_set(once)


def test_mask_matches_dense_and_semantics():
    for seed in range(6):
        n = 4 + seed % 3
        g = random_graph(n, 0.5, seed=seed)
        mask = SamplingMask.from_ratio(n, 0.6, SplitMix64(seed))
        kept = set(mask.sampled)
        bundle = build_product_bundle(g)
        for adj, factored in ((internal_adjacency(g), bundle.internal),
                              (external_adjacency(g), bundle.external),
                              (point_adjacency(n), bundle.point)):
            masked = sampled_adjacency(factored, mask)
            assert np.array_equal(masked.entries, masked_adjacency(adj, mask).entries)
            for (r, c) in entry_set(masked):
                assert r // n in kept and c // n in kept
            # dense oracle: elementwise AND with the mask matrix
            mvec = np.array([1 if s in kept else 0 for s in range(n)])
            mask_dense = np.repeat(mvec, n)[:, None] * np.repeat(mvec, n)[None, :]
            assert np.array_equal(masked.to_dense(), adj.to_dense() * mask_dense)


def test_restrict_adjacency_reindexes():
    g = random_graph(4, 0.6, seed=1)
    mask = SamplingMask(n=4, sampled=(1, 3))
    bundle = build_product_bundle(g)
    rank = {1: 0, 3: 1}  # subgraph 1 -> 0, subgraph 3 -> 1
    for adj, factored in ((internal_adjacency(g), bundle.internal),
                          (external_adjacency(g), bundle.external)):
        restricted = restrict_adjacency(factored, mask)
        assert restricted.grid == (2, 4)
        masked = masked_adjacency(adj, mask)
        expect = set()
        for (r, c) in entry_set(masked):
            expect.add((rank[r // 4] * 4 + r % 4, rank[c // 4] * 4 + c % 4))
        assert entry_set(factored_adjacency(restricted)) == expect


def test_restriction_is_a_slice_not_a_coo_filter():
    # the train_er256_sampled system: n = 256, mean degree 4, half the
    # subgraphs; the restricted internal COO alone would be 131,072 entries
    # of 16 bytes, 2 MB
    import tracemalloc

    n = 256
    g = random_graph(n, 4 / (n - 1), seed=12)
    bundle = build_product_bundle(g)
    mask = SamplingMask.from_ratio(n, 0.5, SplitMix64(13))
    tracemalloc.start()
    try:
        restricted = [restrict_adjacency(getattr(bundle, kind), mask)
                      for kind in ("internal", "external", "point")]
        for adj in restricted[:2]:  # the degree buckets the kernel walks
            adj.buckets
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024
    assert restricted[0].nnz == 128 * 2 * g.num_edges


def test_restrict_rows():
    n = 3
    x = np.arange(9 * 2, dtype=float).reshape(9, 2)
    mask = SamplingMask(n=n, sampled=(0, 2))
    out = restrict_rows(x, mask)
    assert np.array_equal(out, x[[0, 1, 2, 6, 7, 8]])
