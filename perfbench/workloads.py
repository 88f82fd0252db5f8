"""The benchmark's workloads.

Every workload is a closed loop with one client: the next operation starts
only after the previous one returned.  Constructing a workload is its
set-up; it builds every input from the workload seed.  `op(i)` runs one
operation on pool entry `i` through the library's public functions, called
as module attributes at call time so that the traced run can wrap them.

Output checks use invariants that hold on any correct build of the library,
never pinned output values: results are finite, and bit-identical whenever
the same input recurs within a run.  `check(i, out)` returns an error
message or None; `run_checks()` runs the once-per-run checks and returns
(name, error or None) pairs.
"""

from __future__ import annotations

import numpy as np

from prodgraph import graphs, model, product, spectral
from prodgraph.rng import SplitMix64

_SEED_BITS = 1 << 31


def er_graph(n: int, mean_degree: float, rng: SplitMix64) -> graphs.Graph:
    """Erdős–Rényi G(n, m) draw with m = n * mean_degree / 2 edges exactly.

    A fixed edge count keeps the work per graph the same across seeds, so
    the spread between seeds reflects the solver, not the draw's size.
    """
    m = round(n * mean_degree / 2)
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u, v = rng.next_below(n), rng.next_below(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return graphs.Graph(n=n, edges=frozenset(edges))


def _recurs_identically(seen: dict, key, data: bytes) -> str | None:
    """Record the first output for `key`; later outputs must match it."""
    first = seen.setdefault(key, data)
    return None if first == data else f"output for input {key} changed between runs"


def _pe_residual_error(g: graphs.Graph, k: int) -> str | None:
    """The product PE columns are orthonormal eigenvectors of L(x)I + I(x)L.

    Each length-n^2 column reshaped to (n, n) as P gives
    (L (x) I + I (x) L) vec(P) = vec(L P + P L) for row-major vec.
    """
    pe = spectral.product_pe(g, k)
    lap = spectral.laplacian(g)
    n = g.n
    residual = 0.0
    for col in range(pe.k):
        p = pe.data[:, col].reshape(n, n)
        r = lap @ p + p @ lap - pe.eigenvalues[col] * p
        residual += float(np.sum(r * r))
    residual = residual**0.5
    ortho = float(np.abs(pe.data.T @ pe.data - np.eye(pe.k)).max())
    if residual > 1e-8:
        return f"PE eigen-residual {residual:.3g} exceeds 1e-8"
    if ortho > 1e-10:
        return f"PE columns deviate from orthonormal by {ortho:.3g}"
    return None


class TrainER256Sampled:
    """One sampled training step (loss and gradients) on a fixed n = 256 graph."""

    name = "train_er256_sampled"
    why = ("sampled loss_and_grads with the PE built in set-up: model and "
           "restriction work, zero eigensolver work per step")
    n, ratio, masks_in_pool = 256, 0.5, 4

    def __init__(self, seed: int):
        rng = SplitMix64(seed)
        self.graph = er_graph(self.n, 4.0, rng)
        self.cfg = model.ForwardConfig(k=4, seed=rng.next_below(_SEED_BITS), layers=2,
                                       d=8, heads=4, pool_variant="sum_sum")
        self.mask_seed = rng.next_below(_SEED_BITS)
        self.check_seed = rng.next_below(_SEED_BITS)
        self.model = model.build_forward_model(self.graph, self.cfg)
        pe = spectral.product_pe(self.graph, self.cfg.k)
        marks = spectral.node_mark_indices(self.graph)
        self.state = model.init_state(self.graph, pe, marks, self.model.mark_table,
                                      self.model.encoder)
        self.bundle = product.build_product_bundle(self.graph)
        # Steps cycle through a fixed set of mask seeds so that every run
        # covers the same sampled systems a whole number of times.
        self.pool_size = self.masks_in_pool
        self.peak_inputs = [0]
        self._seen: dict = {}

    def sampled_system(self, i: int):
        """The step's fresh mask, restricted adjacencies and rows, as a Pipeline."""
        mask = product.SamplingMask.from_ratio(self.n, self.ratio,
                                               SplitMix64(self.mask_seed + i))
        internal = product.restrict_adjacency(self.bundle.internal, mask)
        external = product.restrict_adjacency(self.bundle.external, mask)
        point = product.restrict_adjacency(self.bundle.point, mask)
        x = product.restrict_rows(self.state.x, mask)
        pipe = model.Pipeline(internal, external, point, self.n, self.model.layers,
                              self.model.pool_mlp, self.cfg.pool_variant)
        return pipe, x

    def op(self, i: int):
        pipe, x = self.sampled_system(i)
        loss, grads, _ = pipe.loss_and_grads(x)
        return loss, grads

    def check(self, i: int, out) -> str | None:
        loss, grads = out
        if not np.isfinite(loss):
            return f"loss of step {i} is not finite"
        for name, grad in grads.items():
            if not np.isfinite(grad).all():
                return f"gradient {name} of step {i} is not finite"
        return _recurs_identically(self._seen, i, np.float64(loss).tobytes())

    def run_checks(self):
        pipe, x = self.sampled_system(0)
        loss, grads, _ = pipe.loss_and_grads(x)
        forward = pipe.loss(x)
        loss_error = None
        if abs(loss - forward) > 1e-12 * max(1.0, abs(forward)):
            loss_error = f"loss_and_grads loss {loss!r} != forward-only loss {forward!r}"
        return [("loss_matches_forward", loss_error),
                ("directional_gradient", self._directional_gradient_error(pipe, x, grads))]

    def _directional_gradient_error(self, pipe, x, grads, step=1e-5, tolerance=1e-4):
        """Central difference along one seeded unit direction in parameter space."""
        rng = SplitMix64(self.check_seed)
        named = pipe.named_arrays()
        direction = [np.array([rng.uniform(-1.0, 1.0) for _ in range(arr.size)]).reshape(arr.shape)
                     for _, arr in named]
        norm = sum(float(np.sum(d * d)) for d in direction) ** 0.5
        direction = [d / norm for d in direction]
        analytic = sum(float(np.sum(grads[name] * d)) for (name, _), d in zip(named, direction))
        originals = [arr.copy() for _, arr in named]

        def loss_at(scale):
            for (_, arr), orig, d in zip(named, originals, direction):
                arr[...] = orig + scale * d
            return pipe.loss(x)

        try:
            numeric = (loss_at(step) - loss_at(-step)) / (2.0 * step)
        finally:
            for (_, arr), orig in zip(named, originals):
                arr[...] = orig
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
        if rel > tolerance:
            return f"directional derivative {analytic!r} vs finite difference {numeric!r}"
        return None


class InferSmallBatch:
    """What `prodgraph forward` does, per graph, over 64 molecule-sized graphs."""

    name = "infer_small_batch"
    why = ("64 graphs with n in [12, 40]: per-call overheads (JSON, parameter "
           "init, small Jacobi) that n = 256 hides")
    graphs_in_pool, n_low, n_high = 64, 12, 40

    def __init__(self, seed: int):
        rng = SplitMix64(seed)
        # Sizes cover [n_low, n_high] evenly rather than by random draw: the
        # cost grows like n^3, so drawn sizes would make the pool's cost, not
        # the library, set the spread between seeds.
        span = self.n_high - self.n_low + 1
        sizes = [self.n_low + (span * i) // self.graphs_in_pool
                 for i in range(self.graphs_in_pool)]
        self.texts = [graphs.graph_to_json(er_graph(n, 3.0, rng)) for n in sizes]
        self.cfg = model.ForwardConfig(k=4, seed=rng.next_below(_SEED_BITS), layers=2,
                                       d=8, heads=4, pool_variant="sum_sum")
        self.pool_size = len(self.texts)
        # The largest graphs set the peak; sizes ascend through the pool.
        self.peak_inputs = list(range(self.pool_size - 4, self.pool_size))
        self._seen: dict = {}

    def op(self, i: int):
        g = graphs.load_graph(self.texts[i])
        params = model.build_forward_model(g, self.cfg)
        pooled = model.run_forward(g, self.cfg, params)
        return pooled, " ".join(format(x, ".17g") for x in pooled)

    def check(self, i: int, out) -> str | None:
        pooled, line = out
        if not np.isfinite(pooled).all():
            return f"pooled vector for input {i} is not finite"
        return _recurs_identically(self._seen, i, line.encode())

    def run_checks(self):
        largest = graphs.load_graph(self.texts[-1])
        return [("pe_eigen_residual", _pe_residual_error(largest, self.cfg.k))]


WORKLOADS = {w.name: w for w in (TrainER256Sampled, InferSmallBatch)}
