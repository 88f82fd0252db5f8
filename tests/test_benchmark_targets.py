"""The benchmark still measures what the library does.

perfbench/tracing.py reports a target the library no longer defines as
absent instead of failing, so a refactor that renames or removes one would
silently blank a benchmark span; its replay of the attention and point
stages runs on whatever edge types the library's Pipeline holds.
perfbench/workloads.py builds the sampled training system itself, so a
library change could make it measure a system that `Pipeline.sampled` no
longer builds.  The benchmark's sources are read
and run here without writing anything next to them.
"""

import types
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from prodgraph import model, product
from prodgraph.rng import SplitMix64

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name):
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_trace_and_replay_targets_resolve():
    tracing = _perfbench_module("tracing")
    assert tracing.TARGETS and tracing.REPLAY_TARGETS
    for owner_path, attr, span in tracing.TARGETS:
        owner = tracing._resolve(owner_path)
        # the tracer wraps the attribute found in the owner's own namespace
        assert owner is not None and vars(owner).get(attr) is not None, span
    for owner_path, attr in tracing.REPLAY_TARGETS:
        assert callable(getattr(tracing._resolve(owner_path), attr, None)), f"{owner_path}.{attr}"


def test_sampled_training_workload_runs_the_library_sampled_system():
    workload = _perfbench_module("workloads").TrainER256Sampled(seed=1)
    full = model.Pipeline(workload.bundle.internal, workload.bundle.external,
                          workload.bundle.point, workload.n, workload.model.layers,
                          workload.model.pool_mlp, workload.cfg.pool_variant)
    for i in range(2):
        pipe, x = workload.sampled_system(i)
        mask = product.SamplingMask.from_ratio(workload.n, workload.ratio,
                                               SplitMix64(workload.mask_seed + i))
        ref_pipe, ref_x = full.sampled(mask), product.restrict_rows(workload.state.x, mask)
        for kind in ("internal", "external", "point"):
            got, want = getattr(pipe, kind), getattr(ref_pipe, kind)
            assert type(got) is type(want), kind
            for field in fields(want):
                assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), kind
        assert x.tobytes() == ref_x.tobytes()
        assert (pipe.n, pipe.variant) == (ref_pipe.n, ref_pipe.variant)
        loss, grads, dx = pipe.loss_and_grads(x)
        ref_loss, ref_grads, ref_dx = ref_pipe.loss_and_grads(ref_x)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert list(grads) == list(ref_grads)
        for name, grad in grads.items():
            assert grad.tobytes() == ref_grads[name].tobytes(), name
        assert dx.tobytes() == ref_dx.tobytes()


@pytest.mark.parametrize("name", ["train_er256_sampled", "infer_small_batch"])
def test_workload_operation_and_checks_pass(name):
    # every workload's first operation and its once-per-run checks run on
    # the library as it is, so a change that breaks what the benchmark calls
    # fails here rather than in a benchmark run
    workload = _perfbench_module("workloads").WORKLOADS[name](seed=7)
    assert workload.check(0, workload.op(0)) is None
    checks = workload.run_checks()
    assert checks and all(error is None for _, error in checks), checks


@pytest.mark.parametrize("name", ["train_er256_sampled", "infer_small_batch"])
def test_traced_replay_measures_every_stage(name):
    # the tracer replays each captured Pipeline call through sparse_attention
    # and point_update on the pipeline's own edge types, so a change to those
    # types that the replay cannot run would blank the per-stage spans
    tracing = _perfbench_module("tracing")
    workload = _perfbench_module("workloads").WORKLOADS[name](seed=7)
    with tracing.Tracer() as tracer:
        tracer.run_op(workload.op, 0)
    metrics = tracer.metrics(untraced_op_s=0.0)
    assert not [metric for metric, (_, _, absent) in metrics.items() if absent]
    for stage in ("model.attn_internal.s", "model.attn_external.s", "model.point.s"):
        assert metrics[stage][0] > 0, stage
