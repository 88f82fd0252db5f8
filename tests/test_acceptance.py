"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Every criterion prints a single pass/fail line (visible with `pytest -s`).
Oracles here are independent of the code paths under test: dense Kronecker
products, numpy's eigensolver on the explicit product-graph Laplacian, dense
masked softmax, central finite differences, and brute-force enumeration.
"""

import time
import tracemalloc

import numpy as np

from prodgraph import (
    Pipeline,
    ProductState,
    RGCNParams,
    SABParams,
    SamplingMask,
    apply_sampling_mask,
    build_product_bundle,
    cartesian_operator,
    cartesian_product_adjacency,
    closed_form_cartesian,
    dense_adjacency,
    external_adjacency,
    grad_check,
    internal_adjacency,
    k_factor_adjacency,
    kron,
    permute_graph,
    point_adjacency,
    product_pe,
    random_graph,
    random_permutation,
    rgcn_layer,
)
from prodgraph.graphs import complete_graph, cycle_graph, path_graph
from prodgraph.model import MLPParams, run_forward, ForwardConfig, _attention_forward
from prodgraph.product import product_permutation
from prodgraph.rng import SplitMix64
from prodgraph.verify import (
    dense_attention_oracle,
    dense_point_oracle,
    dense_rgcn_oracle,
    _connected_three_node_graphs,
    _rows_separate_update_inputs,
)

P2 = path_graph(2)
P4 = path_graph(4)
K3 = complete_graph(3)
C5 = cycle_graph(5)


def _report(number, name, passed, detail, elapsed):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number}: {name} ({detail}, {elapsed:.2f}s)")
    return passed


def _random_state(rows, d, seed):
    rng = SplitMix64(seed)
    return np.array([[rng.uniform(-1.0, 1.0) for _ in range(d)] for _ in range(rows)])


def test_criterion_1_kronecker_equivalence():
    start = time.perf_counter()
    dev = 0
    for seed in range(50):
        n = 2 + seed % 7  # n in [2, 8]
        g = random_graph(n, 0.45, seed=seed)
        a = dense_adjacency(g)
        eye = np.eye(n, dtype=np.int64)
        dev = max(dev, int(np.abs(internal_adjacency(g).to_dense() - kron(eye, a)).max()))
        dev = max(dev, int(np.abs(external_adjacency(g).to_dense() - kron(a, eye)).max()))
        dev = max(dev, int(np.abs(
            cartesian_product_adjacency(g).to_dense() - (kron(a, eye) + kron(eye, a))
        ).max()))
    elapsed = time.perf_counter() - start
    ok = dev == 0 and elapsed < 5.0
    assert _report(1, "Kronecker equivalence", ok, f"max_dev={dev}, 50 graphs", elapsed)


def test_criterion_2_spectrum_sum_law():
    start = time.perf_counter()
    graphs = [P2, P4, K3, C5] + [random_graph(2 + s % 7, 0.45, seed=s + 300) for s in range(20)]
    eig_dev = 0.0
    proj_dev = 0.0
    for g in graphs:
        pe = product_pe(g, g.n * g.n)
        a2 = cartesian_product_adjacency(g).to_dense().astype(float)
        l2 = np.diag(a2.sum(axis=1)) - a2
        direct_vals, direct_vecs = np.linalg.eigh(l2)
        eig_dev = max(eig_dev, float(np.abs(np.sort(pe.eigenvalues) - direct_vals).max()))
        gap = 1e-6 * max(1.0, float(np.abs(direct_vals).max()))
        boundaries = [0] + [
            i for i in range(1, direct_vals.size) if direct_vals[i] - direct_vals[i - 1] > gap
        ] + [direct_vals.size]
        for lo, hi in zip(boundaries, boundaries[1:]):
            p_f = pe.data[:, lo:hi] @ pe.data[:, lo:hi].T
            p_d = direct_vecs[:, lo:hi] @ direct_vecs[:, lo:hi].T
            proj_dev = max(proj_dev, float(np.abs(p_f - p_d).max()))
    p2_exact = product_pe(P2, 4).eigenvalues.tolist() == [0.0, 2.0, 2.0, 4.0]
    elapsed = time.perf_counter() - start
    ok = eig_dev <= 1e-8 and proj_dev <= 1e-6 and p2_exact and elapsed < 30.0
    assert _report(
        2, "spectrum-sum law", ok,
        f"eig_dev={eig_dev:.2e}, proj_dev={proj_dev:.2e}, P2 exact={p2_exact}", elapsed,
    )


def test_criterion_3_k_tuple_closed_form():
    start = time.perf_counter()
    dev = 0
    inner = 0
    for seed in range(20):
        for n in (2, 3, 4):
            a = dense_adjacency(random_graph(n, 0.5, seed=seed))
            for order in (2, 3):
                rec = cartesian_operator(a, order).astype(np.int64)
                closed = closed_form_cartesian(a, order).astype(np.int64)
                dev = max(dev, int(np.abs(rec - closed).max()))
                slots = [k_factor_adjacency(a, k, order).astype(np.int64) for k in range(order)]
                for i in range(order):
                    for j in range(i + 1, order):
                        inner = max(inner, int((slots[i] * slots[j]).sum()))
    cube = cartesian_operator(dense_adjacency(P2), 3).astype(float)
    cube_edges = int(cube.sum())
    cube_spectrum = np.linalg.eigvalsh(np.diag(cube.sum(axis=1)) - cube)
    spectrum_ok = np.abs(cube_spectrum - np.array([0, 2, 2, 2, 4, 4, 4, 6])).max() <= 1e-9
    elapsed = time.perf_counter() - start
    ok = dev == 0 and inner == 0 and cube_edges == 24 and spectrum_ok and elapsed < 10.0
    assert _report(
        3, "k-tuple closed form", ok,
        f"max_dev={dev}, disjoint_inner={inner}, cube_edges={cube_edges}", elapsed,
    )


def test_criterion_4_edge_count_formulas():
    start = time.perf_counter()
    graphs = [P2, P4, K3, C5] + [random_graph(2 + s % 7, 0.45, seed=s) for s in range(50)]
    ok = True
    for g in graphs:
        target = 2 * g.n * g.num_edges
        ok &= internal_adjacency(g).nnz == target
        ok &= external_adjacency(g).nnz == target
        ok &= point_adjacency(g.n).nnz == g.n * g.n
    elapsed = time.perf_counter() - start
    assert _report(4, "edge-count formulas", ok, f"{len(graphs)} graphs, exact", elapsed)


def test_criterion_5_pe_cost_structure():
    start = time.perf_counter()
    n_mem = 48
    g = random_graph(n_mem, 0.3, seed=1)
    tracemalloc.start()
    product_pe(g, 8)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    n4_bytes = n_mem**4 * 8
    linear_bound = 16 * (n_mem**3 + 8 * n_mem**2) * 8
    no_n4_alloc = peak < min(n4_bytes // 4, linear_bound)
    times = []
    for n in (16, 32, 64):
        gn = random_graph(n, 0.3, seed=n)
        product_pe(gn, 8)  # warm-up: keep first-call setup out of the timing
        best = None
        for _ in range(5):
            t0 = time.perf_counter()
            product_pe(gn, 8)
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        times.append(best)
    ratios = [times[1] / times[0], times[2] / times[1]]
    ratio_ok = max(ratios) <= 6.0
    elapsed = time.perf_counter() - start
    ok = no_n4_alloc and ratio_ok
    assert _report(
        5, "PE cost structure", ok,
        f"peak={peak / 1e6:.1f}MB (n^4 would be {n4_bytes / 1e6:.0f}MB), "
        f"doubling ratios={ratios[0]:.2f},{ratios[1]:.2f}", elapsed,
    )


def test_criterion_6_sab_correctness():
    start = time.perf_counter()
    oracle_dev = 0.0
    stochastic_dev = 0.0
    for seed in range(20):
        n = 2 + seed % 4  # n <= 5
        g = random_graph(n, 0.5, seed=seed + 500)
        rng = SplitMix64(seed)
        params = SABParams.from_rng(6, 8, rng)
        rgcn = RGCNParams.from_rng(6, 8, rng)
        x = _random_state(n * n, 6, seed=seed + 30)
        bundle = build_product_bundle(g)
        for adj, coo in ((bundle.internal, internal_adjacency(g)),
                         (bundle.external, external_adjacency(g))):
            sparse, cache = _attention_forward(x, adj, params.internal)
            dense = dense_attention_oracle(x, coo.to_dense(), params.internal)
            oracle_dev = max(oracle_dev, float(np.abs(sparse - dense).max()))
            for b, alpha in zip(adj.buckets, cache.alpha):  # (r, k, batch, heads) per degree k
                stochastic_dev = max(stochastic_dev, float(max(0.0, -alpha.min())))
                sums = np.zeros((b.nodes.size,) + alpha.shape[2:])
                # deliberately np.add.at, a route independent of the kernel's sum
                np.add.at(sums, np.repeat(np.arange(b.nodes.size), b.senders.shape[1]),
                          alpha.reshape((-1,) + alpha.shape[2:]))
                stochastic_dev = max(stochastic_dev, float(np.abs(sums - 1.0).max()))
        from prodgraph.model import _point_forward

        pt_out, _ = _point_forward(x, bundle.point, params.epsilon, params.point_mlp)
        pt_dense = dense_point_oracle(x, point_adjacency(n).to_dense(), params.epsilon, params.point_mlp)
        oracle_dev = max(oracle_dev, float(np.abs(pt_out - pt_dense).max()))
        rg_out = rgcn_layer(ProductState(x=x), bundle, rgcn).x
        rg_dense = dense_rgcn_oracle(
            x, internal_adjacency(g).to_dense(), external_adjacency(g).to_dense(),
            point_adjacency(n).to_dense(), rgcn,
        )
        oracle_dev = max(oracle_dev, float(np.abs(rg_out - rg_dense).max()))
    grad_worst = 0.0
    grad_ok = True
    for g in (P2, P4, K3):
        bundle = build_product_bundle(g)
        for seed in range(5):
            rng = SplitMix64(seed)
            layers = [SABParams.from_rng(4, 4, rng)]
            pool_mlp = MLPParams.from_rng(4, 4, 4, rng)
            pipe = Pipeline(bundle.internal, bundle.external, bundle.point, g.n,
                            layers, pool_mlp, "sum_sum")
            x0 = _random_state(g.n * g.n, 4, seed=seed + 99)
            report = grad_check(pipe, x0)
            grad_worst = max(grad_worst, report.max_rel_error)
            grad_ok &= report.passed
    elapsed = time.perf_counter() - start
    ok = oracle_dev <= 1e-12 and stochastic_dev <= 1e-12 and grad_ok and elapsed < 60.0
    assert _report(
        6, "SAB correctness", ok,
        f"oracle_dev={oracle_dev:.2e}, rows_stochastic_dev={stochastic_dev:.2e}, "
        f"grad_max_rel={grad_worst:.2e}", elapsed,
    )


def test_criterion_7_permutation_invariance():
    """Pooled output under node permutation, with the PE rows carried as data
    (the architecture's invariance claim; eigenvector sign/basis freedom is
    exercised separately by the projector checks)."""
    start = time.perf_counter()
    graphs = [P4, K3, C5, random_graph(5, 0.5, seed=851), random_graph(5, 0.4, seed=852)]
    dev = 0.0
    for gi, g in enumerate(graphs):
        n = g.n
        bundle = build_product_bundle(g)
        rng = SplitMix64(gi)
        layers = [SABParams.from_rng(4, 4, rng) for _ in range(2)]
        pool_mlp = MLPParams.from_rng(4, 4, 4, rng)
        variant = "mean_sum" if gi % 2 else "sum_sum"
        pipe = Pipeline(bundle.internal, bundle.external, bundle.point, n,
                        layers, pool_mlp, variant)
        x0 = _random_state(n * n, 4, seed=gi + 55)
        base = pipe.pooled(x0)
        for rep in range(10):
            perm = random_permutation(n, seed=rep + 31 * gi)
            pp = product_permutation(perm)
            gp = permute_graph(g, perm)
            bundle_p = build_product_bundle(gp)
            pipe_p = Pipeline(bundle_p.internal, bundle_p.external, bundle_p.point, n,
                              layers, pool_mlp, variant)
            x0_p = np.empty_like(x0)
            x0_p[pp] = x0
            dev = max(dev, float(np.abs(pipe_p.pooled(x0_p) - base).max()))
    elapsed = time.perf_counter() - start
    ok = dev <= 1e-10
    assert _report(7, "permutation invariance", ok,
                   f"max_dev={dev:.2e}, 10 perms x 5 graphs", elapsed)


def test_criterion_8_sampling_semantics():
    start = time.perf_counter()
    exact_ok = True
    for seed in range(10):
        n = 4 + seed % 4
        g = random_graph(n, 0.5, seed=seed + 400)
        mask = SamplingMask.from_ratio(n, 0.5, SplitMix64(seed))
        kept = np.array([1 if s in set(mask.sampled) else 0 for s in range(n)])
        mask_dense = np.repeat(kept, n)[:, None] * np.repeat(kept, n)[None, :]
        for adj in (internal_adjacency(g), external_adjacency(g), point_adjacency(n)):
            masked = apply_sampling_mask(adj, mask)
            exact_ok &= np.array_equal(masked.to_dense(), adj.to_dense() * mask_dense)
    g = random_graph(6, 0.5, seed=431)
    base = run_forward(g, ForwardConfig(k=3, seed=2))
    full = run_forward(g, ForwardConfig(k=3, seed=2, sample_ratio=1.0, sample_seed=77))
    full_bag_bitwise = np.array_equal(base, full)
    pe_before = product_pe(g, 4).to_text()
    run_forward(g, ForwardConfig(k=4, seed=2, sample_ratio=0.5))
    pe_after = product_pe(g, 4).to_text()
    pe_independent = pe_before == pe_after
    elapsed = time.perf_counter() - start
    ok = exact_ok and full_bag_bitwise and pe_independent
    assert _report(
        8, "sampling semantics", ok,
        f"mask_exact={exact_ok}, full_bag_bitwise={full_bag_bitwise}, "
        f"pe_independent={pe_independent}", elapsed,
    )


def test_criterion_9_rgcn_simulation():
    start = time.perf_counter()
    graphs = _connected_three_node_graphs()
    concat_dev = 0.0
    injective = True
    for g in graphs:
        n = g.n
        d = n * n
        x = np.eye(d)
        bundle = build_product_bundle(g)
        eye = np.eye(d)
        zeros = np.zeros((d, d))
        params = RGCNParams(
            w_self=np.hstack([eye, zeros, zeros, zeros]),
            w_point=np.hstack([zeros, eye, zeros, zeros]),
            w_internal=np.hstack([zeros, zeros, eye, zeros]),
            w_external=np.hstack([zeros, zeros, zeros, eye]),
        )
        out = rgcn_layer(ProductState(x=x), bundle, params).x
        expected = np.hstack([x, point_adjacency(n).to_dense() @ x,
                              internal_adjacency(g).to_dense() @ x, external_adjacency(g).to_dense() @ x])
        concat_dev = max(concat_dev, float(np.abs(out - expected).max()))
        injective &= _rows_separate_update_inputs(g, x, out)
    elapsed = time.perf_counter() - start
    ok = concat_dev == 0.0 and injective and len(graphs) == 4
    assert _report(
        9, "RGCN simulation scaffolding", ok,
        f"concat_dev={concat_dev}, injective={injective}, {len(graphs)} connected graphs",
        elapsed,
    )
