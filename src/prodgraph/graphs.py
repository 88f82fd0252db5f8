"""Graph data model, binary sparse matrices, BFS distances, and permutations.

Everything downstream (product-graph adjacencies, spectral encodings, the
attention model) is built on the three types defined here.  All types are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import InvalidPermutation, ParseError, ScaleError, ValidationError
from .rng import SplitMix64


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Graph:
    """Undirected graph on nodes 0..n-1 with optional node features.

    Edges are stored once, as unordered pairs (u, v) with u < v; dense and
    sparse views materialize both directions.  Self loops are rejected.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    features: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValidationError(f"node count must be a positive integer, got {self.n!r}")
        if self.n * self.n > np.iinfo(np.int64).max:
            raise ScaleError(f"n = {self.n}: the n^2 product-node indices overflow int64")
        normalized = set()
        for edge in self.edges:
            u, v = edge
            if u == v:
                raise ValidationError(f"self loop on node {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValidationError(f"edge {edge} out of range for n={self.n}")
            normalized.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(normalized))
        if self.features is not None:
            feats = np.asarray(self.features, dtype=np.float64)
            if feats.ndim != 2 or feats.shape[0] != self.n:
                raise ValidationError(
                    f"features must be an {self.n}x d matrix, got shape {feats.shape}"
                )
            object.__setattr__(self, "features", _readonly(feats))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def directed_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Both directions of every edge as parallel read-only (source,
        target) int64 arrays, sorted by (source, target); built once."""
        uv = np.array(list(self.edges), dtype=np.int64).reshape(-1, 2)
        keys = np.sort(np.concatenate([uv[:, 0] * self.n + uv[:, 1], uv[:, 1] * self.n + uv[:, 0]]))
        src, dst = np.divmod(keys, self.n)
        return _readonly(src), _readonly(dst)

    def neighbors(self) -> list[list[int]]:
        """Adjacency lists, each sorted ascending.  Built from the edge set
        without `directed_edges`, so tests use it as an independent reference."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in sorted(self.edges | {(v, u) for u, v in self.edges}):
            adj[u].append(v)
        return adj


def _finite_number(value) -> bool:
    """A JSON number that float64 holds as a finite value.  Python's json
    reads NaN and Infinity as floats; a bool is not a number here."""
    if type(value) not in (int, float):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float64 range
        return False


def load_graph(source: IO[bytes] | IO[str] | bytes | str) -> Graph:
    """Parse a graph from the JSON format and validate it.

    The format is an object with keys "n" (int), "edges" (array of 2-arrays
    of ints), and optional "features" (array of n arrays of finite numbers).  Edge
    order and direction are irrelevant; duplicates collapse.
    """
    if hasattr(source, "read"):
        payload = source.read()
    else:
        payload = source
    if isinstance(payload, bytes):
        try:
            payload = payload.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}") from exc
    try:
        doc = json.loads(payload)
    except ValueError as exc:  # JSONDecodeError, or an integer literal too long to convert
        raise ParseError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    if "n" not in doc or "edges" not in doc:
        raise ParseError('graph object requires keys "n" and "edges"')
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError(f'"n" must be an integer, got {n!r}')
    raw_edges = doc["edges"]
    if not isinstance(raw_edges, list):
        raise ParseError('"edges" must be an array')
    edges = set()
    for item in raw_edges:
        if not (isinstance(item, list) and len(item) == 2):
            raise ParseError(f"edge entries must be 2-arrays, got {item!r}")
        u, v = item
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (u, v)):
            raise ParseError(f"edge endpoints must be integers, got {item!r}")
        edges.add((u, v))
    features = doc.get("features")
    if features is not None:
        if not isinstance(features, list) or not all(isinstance(r, list) for r in features):
            raise ParseError('"features" must be an array of arrays')
        for value in (value for row in features for value in row):
            if not _finite_number(value):
                raise ParseError(f"feature values must be finite numbers, got {value!r:.40}")
        widths = {len(r) for r in features}
        if len(widths) > 1:
            raise ValidationError("feature rows have inconsistent widths")
        if len(features) != n:
            raise ValidationError(
                f"feature row count {len(features)} does not match n={n}"
            )
    return Graph(n=n, edges=frozenset(edges), features=features)


def graph_to_json(g: Graph) -> str:
    """Inverse of load_graph, with edges sorted for stable output."""
    doc: dict = {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}
    if g.features is not None:
        doc["features"] = g.features.tolist()
    return json.dumps(doc)


_MAX_ARRAY_BYTES = np.iinfo(np.intp).max


def check_addressable(shape: tuple[int, ...]) -> None:
    """ScaleError when an int64 or float64 array of this shape exceeds the
    address space.  Its element count may still fit int64, as Graph requires
    of n^2, while its 8-byte items do not."""
    nbytes = math.prod(shape) * 8
    if nbytes > _MAX_ARRAY_BYTES:
        raise ScaleError(f"an array of shape {shape} and {nbytes} bytes is not addressable")


def dense_adjacency(g: Graph) -> np.ndarray:
    """Symmetric 0/1 adjacency matrix with zero diagonal."""
    check_addressable((g.n, g.n))
    a = np.zeros((g.n, g.n), dtype=np.int64)
    a[g.directed_edges] = 1
    return a


def connected_components(g: Graph) -> np.ndarray:
    """Read-only int64 component index of each node; components are
    numbered 0, 1, ... in the order of their smallest node.

    Hooking and shortcutting (Shiloach and Vishkin, J. Algorithms 1982) over
    the directed edges, O(n + |E|) per pass and no n^2 array.  Each node
    holds a label, a node of its own component that never rises: a pass
    lowers every label's own label to the least label across each edge,
    then moves each node to its label's label.  A pass that changes nothing
    leaves both ends of every edge with the same label, which is then the
    component's smallest node.
    """
    src, dst = g.directed_edges
    low = np.arange(g.n)
    while True:
        hooked = low.copy()
        np.minimum.at(hooked, low[src], low[dst])
        hooked = hooked[hooked]
        if np.array_equal(hooked, low):
            break
        low = hooked
    index = np.cumsum(low == np.arange(g.n)) - 1  # the roots, in node order
    return _readonly(index[low])


@dataclass(frozen=True)
class DistanceMatrix:
    """BFS hop counts from some sources to every node; unreachable pairs
    carry the sentinel n.

    Row i of `dist` holds the distances from node sources[i]: an (m, n)
    array, and n is read from its columns.  It is also the node-mark index
    of the encoder: product node (sources[i], v) looks up row dist[i, v] of
    a mark table of `vocabulary` = n + 1 rows, whichever sources ran.  The
    sentinel n is strictly greater than any finite shortest-path distance
    in an n-node graph, so it is that table's last row.  Anything else, a
    dist that is not 2-D, not one source per row, a source outside [0, n)
    or a distance outside [0, n], is a ValidationError.
    """

    dist: np.ndarray
    sources: np.ndarray

    def __post_init__(self):
        dist, sources = np.asarray(self.dist), np.asarray(self.sources)
        if dist.ndim != 2 or sources.shape != dist.shape[:1]:
            raise ValidationError(f"distances of shape {dist.shape} need one source per row, got {sources.shape}")
        n = dist.shape[1]
        if sources.size and not (0 <= sources.min() <= sources.max() < n and 0 <= dist.min() <= dist.max() <= n):
            raise ValidationError(f"sources must lie in [0, {n}) and distances in [0, {n}]")

    @property
    def n(self) -> int:
        return self.dist.shape[1]

    @property
    def vocabulary(self) -> int:
        return self.n + 1


def shortest_path_distances(g: Graph, sources: Sequence[int] | None = None) -> DistanceMatrix:
    """Level-synchronous BFS from every source at once, in two phases:
    from the given nodes, in their order, or from all n nodes.

    Dense levels keep the frontier as bitsets: row v of `front` holds the
    sources that first reached v at the last depth, 64 to a uint64 word
    (Then et al., "The More the Merrier", PVLDB 2014).  A dense level ORs
    the rows of each node's neighbours with one `reduceat` over the sorted
    directed edges and clears the sources already seen: O((n + |E|) *
    ceil(m / 64)) word operations for m sources, plus O(n * m) bytes to
    unpack and count the unseen pairs, however few pairs the frontier
    holds.  A pair's depth is the number of levels at which it was still
    unseen, so the dense levels only add to a uint8 count, which bounds
    them at 254.  Row v of the bitsets lists sources, so the count is the
    transpose of the (m, n) output, and from all n sources, by symmetry,
    the output itself.  The bitsets, the count and one
    unpacked mask take about 0.3 times the int64 output's bytes.

    Once the frontier has stopped growing and its (source, node) pairs
    times 2|E| are at most n * m * ceil(m / 64), following their edges
    costs no more than one dense level, and a sparse tail finishes the BFS
    (Beamer et al., "Direction-Optimizing Breadth-First Search", SC 2012):
    each level follows every edge of the pairs first reached at the last
    depth, O(pairs * degree) work.
    """
    n = g.n
    check_addressable((n if sources is None else len(sources), n))
    seeds = np.arange(n) if sources is None else np.array(sources, dtype=np.int64)
    if seeds.ndim != 1 or (seeds.size and not 0 <= seeds.min() <= seeds.max() < n):
        raise ValidationError(f"BFS sources must be a list of nodes in [0, {n})")
    m = seeds.size
    heads, nbrs = g.directed_edges  # sorted by source: nbrs[start[u]:start[u + 1]] are u's
    start = np.r_[0, np.cumsum(np.bincount(heads, minlength=n))]
    linked = np.flatnonzero(np.diff(start))  # reduceat needs non-empty segments
    words = -(-m // 64)
    front = np.zeros((n, 64 * words), dtype=bool)
    front[seeds, np.arange(m)] = True  # source i has reached its own node
    front = np.packbits(front, axis=1).view(np.uint64)
    unseen = ~front
    mask = np.unpackbits(unseen.view(np.uint8), axis=1, count=m).view(bool)
    hops = mask.astype(np.uint8)  # levels a pair was unseen at: its depth once reached; < 256
    left = np.count_nonzero(mask)
    depth, last, pairs = 0, 0, m
    while pairs and depth < 254 and (pairs > last or pairs * nbrs.size > n * m * words):
        depth += 1
        reach = np.zeros_like(front)
        if linked.size:
            reach[linked] = np.bitwise_or.reduceat(front[nbrs], start[linked])
        front = reach & unseen
        unseen ^= front
        mask = np.unpackbits(unseen.view(np.uint8), axis=1, count=m).view(bool)
        hops += mask
        last, pairs = pairs, left - np.count_nonzero(mask)
        left -= pairs
    if sources is not None:  # counts are (node, source); all-pairs ones are symmetric
        hops, mask = hops.T, mask.T
    dist = np.ascontiguousarray(hops, dtype=np.int64)
    np.copyto(dist, n, where=mask)
    packed = front.view(np.uint8)  # the frontier's pairs, found byte by byte
    node, byte = np.nonzero(packed)
    hit, bit = np.nonzero(np.unpackbits(packed[node, byte, None], axis=1))
    node, row = node[hit], 8 * byte[hit] + bit
    while row.size:
        depth += 1
        deg = start[node + 1] - start[node]
        edge = np.arange(deg.sum()) + np.repeat(start[node] - np.cumsum(deg) + deg, deg)
        row, node = np.repeat(row, deg), nbrs[edge]
        fresh = np.flatnonzero(dist[row, node] == n)
        row, node = row[fresh], node[fresh]
        tag = -1 - np.arange(row.size)  # a repeated pair keeps one candidate:
        dist[row, node] = tag  # the one whose tag landed
        keep = dist[row, node] == tag
        row, node = row[keep], node[keep]
        dist[row, node] = depth
    return DistanceMatrix(dist=_readonly(dist), sources=_readonly(seeds))


def check_permutation(perm: Sequence[int], n: int) -> list[int]:
    perm = list(perm)
    if len(perm) != n or sorted(perm) != list(range(n)):
        raise InvalidPermutation(f"not a bijection on [0, {n}): {perm!r}")
    return perm


def permute_graph(g: Graph, perm: Sequence[int]) -> Graph:
    """Relabel node u as perm[u]; the result is isomorphic to the input."""
    perm = check_permutation(perm, g.n)
    edges = frozenset((perm[u], perm[v]) for u, v in g.edges)
    features = None
    if g.features is not None:
        features = np.empty_like(g.features)
        for v in range(g.n):
            features[perm[v]] = g.features[v]
    return Graph(n=g.n, edges=edges, features=features)


def permutation_matrix(perm: Sequence[int]) -> np.ndarray:
    """P with P[perm[i], i] = 1, so that P A P^T relabels i as perm[i]."""
    n = len(perm)
    p = np.zeros((n, n), dtype=np.int64)
    for i, tgt in enumerate(check_permutation(perm, n)):
        p[tgt, i] = 1
    return p


def random_graph(n: int, p: float, seed: int, with_features: int = 0) -> Graph:
    """Erdos-Renyi draw from the SplitMix64 stream; same seed, same graph.

    Pairs are visited in lexicographic order so the consumed stream is fixed.
    `with_features` > 0 attaches that many uniform[0,1) feature columns.
    """
    rng = SplitMix64(seed)
    us, vs = np.triu_indices(n, 1)
    keep = rng.uniform_array(0.0, 1.0, us.size) < p
    edges = frozenset(zip(us[keep].tolist(), vs[keep].tolist()))
    features = None
    if with_features:
        features = rng.uniform_array(0.0, 1.0, n * with_features).reshape(n, with_features)
    return Graph(n=n, edges=edges, features=features)


def path_graph(n: int) -> Graph:
    return Graph(n=n, edges=frozenset((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    return Graph(n=n, edges=frozenset((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> Graph:
    return Graph(n=n, edges=frozenset((u, v) for u in range(n) for v in range(u + 1, n)))


def random_permutation(n: int, seed: int) -> list[int]:
    rng = SplitMix64(seed)
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.next_below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


@dataclass(frozen=True)
class SparseAdjacency:
    """Binary sparse matrix as a sorted, deduplicated set of (row, col) pairs.

    The entry set IS the matrix: every stored position holds 1.  Entries are
    kept in row-major order in a read-only (nnz, 2) int64 array stored
    column-major, so `entries[:, 0]` (rows) and `entries[:, 1]` (columns)
    are contiguous views.
    """

    rows: int
    cols: int
    entries: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int64))

    def __post_init__(self):
        if self.rows * self.cols > np.iinfo(np.int64).max:
            raise ScaleError(f"a {self.rows} x {self.cols} matrix overflows int64 entry keys")
        ent = np.asfortranarray(np.asarray(self.entries, dtype=np.int64).reshape(-1, 2))
        object.__setattr__(self, "entries", _readonly(ent))
        if ent.size:
            if ent[:, 0].min() < 0 or ent[:, 0].max() >= self.rows:
                raise ValidationError("entry row index out of bounds")
            if ent[:, 1].min() < 0 or ent[:, 1].max() >= self.cols:
                raise ValidationError("entry column index out of bounds")
            keys = ent[:, 0] * self.cols + ent[:, 1]
            if not (keys[1:] > keys[:-1]).all():
                raise ValidationError("entries must be strictly row-major sorted, unique")

    @classmethod
    def from_pairs(cls, rows: int, cols: int, pairs: Iterable[tuple[int, int]] | np.ndarray) -> "SparseAdjacency":
        """Build from an arbitrary iterable of index pairs, in any order;
        sorts and dedups."""
        ent = np.asarray(list(pairs) if not isinstance(pairs, np.ndarray) else pairs,
                         dtype=np.int64).reshape(-1, 2)
        if ent.size:
            # sort plus a neighbour compare: np.unique may take a hash route
            # that is far slower on large int64 key arrays
            keys = ent[:, 0] * cols
            keys += ent[:, 1]
            keys.sort()
            keys = keys[np.r_[True, keys[1:] != keys[:-1]]]
            ent = np.empty((keys.size, 2), dtype=np.int64, order="F")  # column-major, as stored
            np.divmod(keys, cols, out=(ent[:, 0], ent[:, 1]))
            del keys  # freed before the order check makes its own
        return cls(rows=rows, cols=cols, entries=ent)

    @classmethod
    def from_dense(cls, mat: np.ndarray) -> "SparseAdjacency":
        mat = np.asarray(mat)
        r, c = np.nonzero(mat)
        return cls.from_pairs(mat.shape[0], mat.shape[1], np.column_stack([r, c]))

    @property
    def nnz(self) -> int:
        return self.entries.shape[0]

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols), dtype=np.int64)
        if self.nnz:
            out[self.entries[:, 0], self.entries[:, 1]] = 1
        return out

    def union(self, other: "SparseAdjacency") -> "SparseAdjacency":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValidationError("union requires matching shapes")
        return SparseAdjacency.from_pairs(
            self.rows, self.cols, np.concatenate([self.entries, other.entries])
        )

    def to_coo_text(self) -> str:
        """Serialize as 'rows cols nnz' then one 'row col' pair per line."""
        lines = [f"{self.rows} {self.cols} {self.nnz}"]
        lines.extend(f"{r} {c}" for r, c in self.entries)
        return "\n".join(lines) + "\n"
