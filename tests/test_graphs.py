import io
import json

import numpy as np
import pytest

from prodgraph import (
    DistanceMatrix,
    Graph,
    InvalidPermutation,
    ParseError,
    SamplingMask,
    ScaleError,
    SparseAdjacency,
    ValidationError,
    build_product_bundle,
    dense_adjacency,
    external_adjacency,
    graph_to_json,
    internal_adjacency,
    load_graph,
    permutation_matrix,
    permute_graph,
    random_graph,
    random_permutation,
    sampled_adjacency,
    shortest_path_distances,
)
from prodgraph.graphs import complete_graph, connected_components, cycle_graph, path_graph
from prodgraph.rng import SplitMix64
from helpers import entry_set, read_coo, traced_peak


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


def test_directed_edges_are_the_sorted_neighbour_lists():
    for g in (Graph(n=3, edges=frozenset()), path_graph(2), random_graph(9, 0.4, seed=4)):
        src, dst = g.directed_edges
        assert src.dtype == dst.dtype == np.int64
        assert g.directed_edges is g.directed_edges and not src.flags.writeable
        assert list(zip(src.tolist(), dst.tolist())) == [
            (u, w) for u, nbrs in enumerate(g.neighbors()) for w in nbrs]


def test_node_count_whose_square_overflows_int64_is_refused():
    limit = 3037000499  # the largest n with n * n <= 2^63 - 1
    assert Graph(n=limit, edges=frozenset({(0, 1)})).n == limit
    with pytest.raises(ScaleError):
        Graph(n=limit + 1, edges=frozenset({(0, 1)}))
    with pytest.raises(ScaleError):
        load_graph('{"n": 1000000000000, "edges": [[0, 1]]}')


def test_bfs_examples():
    assert shortest_path_distances(path_graph(2)).dist.tolist() == [[0, 1], [1, 0]]
    lonely = shortest_path_distances(Graph(n=2, edges=frozenset()))
    assert lonely.dist.tolist() == [[0, 2], [2, 0]]  # sentinel is n
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


def _grid_graph(rows, cols):
    return Graph(n=rows * cols, edges=frozenset(
        {(v, v + 1) for v in range(rows * cols) if (v + 1) % cols}
        | {(v, v + cols) for v in range(rows * cols - cols)}))


def test_bfs_matches_queue_reference():
    for seed in range(60):
        g = random_graph(1 + seed % 30, (seed % 7) / 12, seed=seed + 400)
        got = shortest_path_distances(g).dist
        assert got.dtype == np.int64
        assert np.array_equal(got, _queue_bfs(g))
    # source counts on both sides of the 64-source bitset word
    for n in (63, 64, 65, 127, 128, 129):
        for p in (3 / n, 0.5):
            g = random_graph(n, p, seed=n)
            assert np.array_equal(shortest_path_distances(g).dist, _queue_bfs(g))
    # isolated nodes and several components: a path, a cycle, five lone nodes
    parts = Graph(n=25, edges=frozenset({(i, i + 1) for i in range(9)}
                                        | {(10 + i, 10 + (i + 1) % 10) for i in range(10)}))
    # long diameters: one BFS level per hop, most of them in the sparse tail
    for g in (path_graph(1), path_graph(40), cycle_graph(41), Graph(n=4, edges=frozenset()),
              Graph(n=70, edges=frozenset()), parts, random_graph(90, 0.015, seed=5),
              path_graph(300), cycle_graph(257), _grid_graph(12, 12)):
        assert np.array_equal(shortest_path_distances(g).dist, _queue_bfs(g))


def test_bfs_from_sources_is_those_rows_of_all_pairs():
    # BFS from some sources gives those rows of the all-pairs distances,
    # sentinel n included, in the sources' order: a source count on each
    # side of the 64-source bitset word, a lone source, repeated and
    # descending sources, lone nodes, several components, and a 300-node
    # path whose diameter outlasts the dense levels' count
    parts = Graph(n=25, edges=frozenset({(i, i + 1) for i in range(9)}
                                        | {(10 + i, 10 + (i + 1) % 10) for i in range(10)}))
    graphs = [random_graph(150, 2 / 149, seed=31), random_graph(40, 0.1, seed=3), parts,
              Graph(n=4, edges=frozenset()), path_graph(300), _grid_graph(9, 13)]
    rng = SplitMix64(21)
    for g in graphs:
        full = shortest_path_distances(g)
        drawn = sorted(rng.sample_without_replacement(g.n, -(-g.n // 3)))
        for sources in (drawn, drawn[:70], drawn[::-1], [g.n - 1], [0, 0, g.n - 1], list(range(g.n))):
            marks = shortest_path_distances(g, sources)
            assert marks.dist.flags.c_contiguous and marks.dist.dtype == np.int64
            assert np.array_equal(marks.dist, full.dist[sources])
            assert marks.sources.tolist() == sources
            assert (marks.n, marks.vocabulary) == (g.n, g.n + 1)
        assert np.array_equal(full.sources, np.arange(g.n))
    # each of the two sources reaches the 10 nodes of its component only
    assert (shortest_path_distances(parts, [3, 12]).dist == parts.n).sum() == 2 * 15
    with pytest.raises(ValidationError):
        shortest_path_distances(path_graph(3), [0, 3])


def test_distance_matrix_validates_its_fields():
    # init_state trusts the marks: a row count that is not one per source
    # broadcasts mark rows into a state of the wrong size, a source outside
    # [0, n) names no subgraph (a negative one would wrap to another's PE
    # rows), and a distance outside [0, n] reads a row that is not its mark
    dist = np.array([[0, 1, 3], [1, 0, 3]])
    marks = DistanceMatrix(dist=dist, sources=np.array([2, 0]))  # the sentinel 3 is a distance
    assert (marks.n, marks.vocabulary) == (3, 4)
    assert DistanceMatrix(dist=np.zeros((0, 3), dtype=np.int64), sources=np.zeros(0, dtype=np.int64)).n == 3
    for bad, sources in (
        (dist[:1], [0, 1, 2]),  # one row, three sources
        (dist, [0]),  # two rows, one source
        (dist[0], [0]),  # a 1-D dist
        (dist, [[0, 1]]),  # 2-D sources
        (dist, [0, -1]),
        (dist, [0, 3]),
        (np.array([[0, -1, 1]]), [0]),
        (np.array([[0, 4, 1]]), [0]),
    ):
        with pytest.raises(ValidationError):
            DistanceMatrix(dist=bad, sources=np.array(sources))


def test_bfs_deeper_than_the_dense_levels_count():
    # the circulant C_n(1, 2, 3): every frontier holds 6 nodes per source,
    # too many for the sparse tail, for 259 levels, more than the dense
    # phase's uint8 level count holds; d(s, v) = ceil(cyclic gap / 3)
    n = 1560
    g = Graph(n=n, edges=frozenset((v, (v + j) % n) for v in range(n) for j in (1, 2, 3)))
    gap = np.abs(np.arange(n)[:, None] - np.arange(n))
    assert np.array_equal(shortest_path_distances(g).dist, -(-np.minimum(gap, n - gap) // 3))


def test_bfs_peak_memory():
    # the dense levels hold the frontier as bitsets and count depths in one
    # uint8 matrix: 1.3x the int64 output here, against 21x for a BFS that
    # expands and deduplicates every (source, node) pair of every level
    g = random_graph(512, 8 / 511, seed=11)
    g.directed_edges  # cached on the graph, not the BFS's own memory
    dist, peak = traced_peak(lambda: shortest_path_distances(g).dist)
    assert peak <= 3 * dist.nbytes


def test_connected_components_number_by_smallest_node():
    graphs = [random_graph(1 + seed % 30, (seed % 7) / 40, seed=seed + 400) for seed in range(40)]
    # a path visited in shuffled node order takes the most hooking passes
    perm = random_permutation(300, seed=2)
    graphs += [path_graph(1), Graph(n=5, edges=frozenset()), _grid_graph(6, 9),
               Graph(n=300, edges=frozenset((perm[i], perm[i + 1]) for i in range(299)))]
    for g in graphs:
        reach = _queue_bfs(g) < g.n
        smallest = reach.argmax(axis=1)  # the least node each node reaches
        expected = np.unique(smallest, return_inverse=True)[1]
        got = connected_components(g)
        assert got.dtype == np.int64 and not got.flags.writeable
        assert np.array_equal(got, expected)


def test_permute_identity_and_swap():
    g = path_graph(2)
    assert permute_graph(g, [0, 1]).edges == g.edges
    assert permute_graph(g, [1, 0]).edges == g.edges  # unordered pair


def test_permute_path_reversal():
    g = path_graph(4)
    rev = permute_graph(g, [3, 2, 1, 0])
    degs = sorted(len(nb) for nb in rev.neighbors())
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
    assert entry_set(adj) == {(0, 1), (0, 2), (2, 1)}
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


def _adjacency_routes():
    g = random_graph(5, 0.5, seed=3)
    internal = internal_adjacency(g)
    pairs = np.array([(3, 2), (0, 1), (1, 1), (0, 1), (4, 0)])
    mask = SamplingMask(n=5, sampled=(0, 2, 3))
    return {
        "direct": SparseAdjacency(4, 4, np.array([[0, 1], [1, 1], [3, 2]])),
        "from_pairs": SparseAdjacency.from_pairs(5, 5, pairs),
        "from_dense": SparseAdjacency.from_dense(dense_adjacency(g)),
        "union": internal.union(external_adjacency(g)),
        "sampled_adjacency": sampled_adjacency(build_product_bundle(g).internal, mask),
    }


@pytest.mark.parametrize("route", list(_adjacency_routes()))
def test_entry_columns_are_contiguous(route):
    adj = _adjacency_routes()[route]
    assert adj.nnz > 1
    assert adj.entries[:, 0].flags.c_contiguous and adj.entries[:, 1].flags.c_contiguous
    assert not adj.entries.flags.writeable


def test_sparse_rejects_out_of_bounds():
    with pytest.raises(ValidationError):
        SparseAdjacency.from_pairs(2, 2, [(0, 5)])


def test_coo_text_roundtrip():
    adj = SparseAdjacency.from_pairs(4, 4, [(0, 1), (3, 2), (1, 1)])
    text = adj.to_coo_text()
    assert text == "4 4 3\n0 1\n1 1\n3 2\n"
    back = read_coo(text)
    assert entry_set(back) == entry_set(adj)
    assert (back.rows, back.cols) == (4, 4)


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
