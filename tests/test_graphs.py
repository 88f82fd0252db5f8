import io
import json

import numpy as np
import pytest

from prodgraph import (
    Graph,
    InvalidPermutation,
    ParseError,
    SparseAdjacency,
    ValidationError,
    dense_adjacency,
    graph_to_json,
    load_graph,
    permutation_matrix,
    permute_graph,
    random_graph,
    random_permutation,
    shortest_path_distances,
)
from prodgraph.graphs import complete_graph, cycle_graph, path_graph, scatter_sum
from prodgraph.rng import SplitMix64


def test_load_minimal_path_graph():
    g = load_graph('{"n":2,"edges":[[0,1]]}')
    assert g.n == 2
    assert g.edges == frozenset({(0, 1)})


def test_load_triangle():
    g = load_graph('{"n":3,"edges":[[0,1],[1,2],[0,2]]}')
    assert g.n == 3
    assert g.num_edges == 3


def test_load_rejects_self_loop():
    with pytest.raises(ValidationError):
        load_graph('{"n":2,"edges":[[0,0]]}')


def test_load_rejects_out_of_range_endpoint():
    with pytest.raises(ValidationError):
        load_graph('{"n":2,"edges":[[0,5]]}')


def test_load_rejects_malformed_json():
    with pytest.raises(ParseError):
        load_graph("{nope")
    with pytest.raises(ParseError):
        load_graph('{"edges":[]}')
    with pytest.raises(ParseError):
        load_graph('{"n":2,"edges":[[0,1,2]]}')


def test_load_rejects_bad_feature_rows():
    with pytest.raises(ValidationError):
        load_graph('{"n":2,"edges":[[0,1]],"features":[[1.0]]}')


def test_load_collapses_duplicates_and_directions():
    g = load_graph('{"n":3,"edges":[[0,1],[1,0],[0,1]]}')
    assert g.edges == frozenset({(0, 1)})


def test_load_from_byte_stream_and_roundtrip():
    doc = {"n": 3, "edges": [[0, 1], [1, 2]], "features": [[1.0], [2.0], [3.0]]}
    g = load_graph(io.BytesIO(json.dumps(doc).encode()))
    assert g.features.shape == (3, 1)
    again = load_graph(graph_to_json(g))
    assert again.edges == g.edges
    assert np.array_equal(again.features, g.features)


def test_dense_adjacency_examples():
    assert dense_adjacency(path_graph(2)).tolist() == [[0, 1], [1, 0]]
    assert not dense_adjacency(Graph(n=3, edges=frozenset())).any()
    k3 = dense_adjacency(complete_graph(3))
    assert k3.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_bfs_examples():
    assert shortest_path_distances(path_graph(2)).dist.tolist() == [[0, 1], [1, 0]]
    lonely = shortest_path_distances(Graph(n=2, edges=frozenset()))
    assert lonely.dist.tolist() == [[0, 2], [2, 0]]  # sentinel is n
    assert lonely.unreachable == 2
    p4 = shortest_path_distances(path_graph(4))
    assert p4.dist[0, 3] == 3


def test_bfs_symmetry_and_zero_diagonal():
    for seed in range(12):
        g = random_graph(2 + seed % 9, 0.4, seed=seed)
        d = shortest_path_distances(g).dist
        assert np.array_equal(d, d.T)
        assert not np.diag(d).any()


def _queue_bfs(g):
    """Reference: one Python queue per source, unreachable pairs left at n."""
    nbrs = g.neighbors()
    dist = np.full((g.n, g.n), g.n, dtype=np.int64)
    for src in range(g.n):
        dist[src, src] = 0
        queue = [src]
        for u in queue:
            for w in nbrs[u]:
                if dist[src, w] == g.n:
                    dist[src, w] = dist[src, u] + 1
                    queue.append(w)
    return dist


def test_bfs_matches_queue_reference():
    for seed in range(60):
        g = random_graph(1 + seed % 30, (seed % 7) / 12, seed=seed + 400)
        got = shortest_path_distances(g).dist
        assert got.dtype == np.int64
        assert np.array_equal(got, _queue_bfs(g))
    # long diameters: one BFS level per hop
    for g in (path_graph(1), path_graph(40), cycle_graph(41), Graph(n=4, edges=frozenset())):
        assert np.array_equal(shortest_path_distances(g).dist, _queue_bfs(g))


def test_permute_identity_and_swap():
    g = path_graph(2)
    assert permute_graph(g, [0, 1]).edges == g.edges
    assert permute_graph(g, [1, 0]).edges == g.edges  # unordered pair


def test_permute_path_reversal():
    g = path_graph(4)
    rev = permute_graph(g, [3, 2, 1, 0])
    degs = sorted(rev.degrees().tolist())
    assert degs == [1, 1, 2, 2]
    assert rev.edges == frozenset({(2, 3), (1, 2), (0, 1)})


def test_permute_rejects_non_bijection():
    with pytest.raises(InvalidPermutation):
        permute_graph(path_graph(3), [0, 0, 1])


def test_permutation_conjugates_adjacency():
    for seed in range(10):
        g = random_graph(6, 0.5, seed=seed)
        perm = random_permutation(6, seed=seed + 1)
        p = permutation_matrix(perm)
        assert np.array_equal(
            dense_adjacency(permute_graph(g, perm)), p @ dense_adjacency(g) @ p.T
        )


def test_permute_moves_feature_rows():
    g = Graph(n=3, edges=frozenset({(0, 1)}), features=np.array([[0.0], [1.0], [2.0]]))
    moved = permute_graph(g, [2, 0, 1])
    assert moved.features[:, 0].tolist() == [1.0, 2.0, 0.0]


def test_sparse_dense_roundtrip():
    for seed in range(8):
        g = random_graph(5, 0.5, seed=seed)
        mat = dense_adjacency(g)
        assert np.array_equal(SparseAdjacency.from_dense(mat).to_dense(), mat)


def test_sparse_entries_sorted_and_deduped():
    adj = SparseAdjacency.from_pairs(3, 3, [(2, 1), (0, 2), (2, 1), (0, 1)])
    assert adj.entry_set() == {(0, 1), (0, 2), (2, 1)}
    assert adj.nnz == 3
    keys = adj.entries[:, 0] * 3 + adj.entries[:, 1]
    assert (np.diff(keys) > 0).all()


def test_from_pairs_dedups_shuffled_keys_like_sorted_set():
    rng = SplitMix64(17)
    for rows, cols, count in ((1, 1, 3), (7, 5, 60), (40, 33, 2000)):
        drawn = np.column_stack([
            (rng.uniform_array(0.0, 1.0, count) * rows).astype(np.int64),
            (rng.uniform_array(0.0, 1.0, count) * cols).astype(np.int64),
        ])
        pairs = np.concatenate([drawn, drawn[: count // 3]])  # duplicates for sure
        pairs = pairs[random_permutation(len(pairs), seed=count)]
        adj = SparseAdjacency.from_pairs(rows, cols, pairs)
        assert adj.entries.tolist() == [list(p) for p in sorted(set(map(tuple, pairs.tolist())))]
        assert adj.entries.dtype == np.int64
    assert SparseAdjacency.from_pairs(3, 3, []).nnz == 0


def test_sparse_rejects_out_of_bounds():
    with pytest.raises(ValidationError):
        SparseAdjacency.from_pairs(2, 2, [(0, 5)])


def test_coo_text_roundtrip():
    adj = SparseAdjacency.from_pairs(4, 4, [(0, 1), (3, 2), (1, 1)])
    text = adj.to_coo_text()
    assert text.splitlines()[0] == "4 4 3"
    back = SparseAdjacency.from_coo_text(text)
    assert back.entry_set() == adj.entry_set()
    assert (back.rows, back.cols) == (4, 4)


def test_coo_text_rejects_bad_header():
    with pytest.raises(ParseError):
        SparseAdjacency.from_coo_text("4 4 7\n0 1\n")


def test_sparse_matmul_matches_dense():
    rng = np.random.default_rng(5)
    adj = SparseAdjacency.from_pairs(4, 4, [(0, 1), (1, 3), (2, 0), (2, 2)])
    x = rng.standard_normal((4, 3))
    assert np.allclose(adj.matmul(x), adj.to_dense() @ x)


def test_sparse_matmul_of_empty_adjacency_is_zero():
    out = SparseAdjacency(rows=3, cols=5).matmul(np.ones((5, 2)))
    assert out.shape == (3, 2) and out.dtype == np.float64
    assert not out.any()


def _scatter_cases():
    rng = np.random.default_rng(11)
    index = rng.integers(0, 7, 300)  # repeated and unsorted; size 10 leaves rows 7-9 empty
    # magnitudes over 16 decades make every summation order round differently
    scale = 10.0 ** rng.uniform(-8.0, 8.0, 300)
    empty = np.empty(0, dtype=np.int64)
    return [
        (index, rng.standard_normal(300) * scale, 10),
        (index, rng.standard_normal((300, 4, 2)) * scale[:, None, None], 10),
        (empty, np.empty(0), 5),
        (empty, np.empty((0, 4, 2)), 5),
    ]


@pytest.mark.parametrize("index, vals, size", _scatter_cases(),
                         ids=["1d", "e-4-2", "empty-1d", "empty-e-4-2"])
def test_scatter_sum_equals_add_at_bitwise(index, vals, size):
    expected = np.zeros((size,) + vals.shape[1:])
    np.add.at(expected, index, vals)
    got = scatter_sum(index, vals, size)
    assert got.shape == expected.shape and got.dtype == np.float64
    assert got.tobytes() == expected.tobytes()


def test_random_graph_is_seed_deterministic():
    a = random_graph(8, 0.4, seed=123)
    b = random_graph(8, 0.4, seed=123)
    c = random_graph(8, 0.4, seed=124)
    assert a.edges == b.edges
    assert a.edges != c.edges  # overwhelmingly likely for these seeds


def _scalar_random_graph(n, p, seed, with_features=0):
    """Reference draw: one SplitMix64.next_float call per pair, then per feature."""
    rng = SplitMix64(seed)
    edges = set()
    for u in range(n):
        for v in range(u + 1, n):
            if rng.next_float() < p:
                edges.add((u, v))
    features = None
    if with_features:
        features = np.array(
            [[rng.next_float() for _ in range(with_features)] for _ in range(n)]
        )
    return Graph(n=n, edges=frozenset(edges), features=features)


@pytest.mark.parametrize("n", (1, 2, 7, 23))
@pytest.mark.parametrize("with_features", (0, 3))
def test_random_graph_matches_scalar_draws(n, with_features):
    for seed in range(5):
        p = (0.0, 0.2, 0.5, 0.9, 1.0)[seed]
        got = random_graph(n, p, seed=seed, with_features=with_features)
        want = _scalar_random_graph(n, p, seed=seed, with_features=with_features)
        assert got.edges == want.edges
        if with_features:
            assert got.features.shape == want.features.shape == (n, with_features)
            assert got.features.tobytes() == want.features.tobytes()
        else:
            assert got.features is None


def test_named_graphs():
    assert cycle_graph(5).num_edges == 5
    assert complete_graph(4).num_edges == 6
    assert path_graph(4).num_edges == 3
