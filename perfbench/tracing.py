"""Per-layer spans recorded from outside the library.

While a Tracer is installed it replaces public functions and methods of the
prodgraph modules with wrappers that record one span per call: its name,
start, end and the enclosing recorded span.  Nothing inside the library
changes, so spans exist only at calls into the public names listed in
TARGETS.  A target the library no longer defines is reported as absent, and
so is every metric derived from it.

The attention, point and fusion stages are private inside a SAB layer.  They
are measured by replaying each captured Pipeline call through the public
`sparse_attention` and `point_update` after the operation, outside its wall
time; those metrics are marked as replayed in the benchmark's README.
"""

from __future__ import annotations

import functools
import statistics
from collections import Counter, defaultdict
from time import perf_counter
from types import SimpleNamespace

from prodgraph import graphs, model, product, spectral

_MODULES = {"graphs": graphs, "model": model, "product": product, "spectral": spectral}

# (owner, attribute, span name); the owner is a module or a class in one.
TARGETS = (
    ("graphs", "load_graph", "graphs.load_graph"),
    ("graphs.SparseAdjacency", "from_pairs", "graphs.from_pairs"),
    ("spectral", "eig_sym", "spectral.eig_sym"),
    ("spectral", "product_pe", "spectral.product_pe"),
    ("spectral", "node_mark_indices", "spectral.node_mark_indices"),
    ("product", "build_product_bundle", "product.build_product_bundle"),
    ("product.SamplingMask", "from_ratio", "product.sample_mask"),
    ("product", "restrict_adjacency", "product.restrict_adjacency"),
    ("product", "restrict_rows", "product.restrict_rows"),
    ("model", "build_forward_model", "model.build_forward_model"),
    ("model", "init_state", "model.init_state"),
    ("model.Pipeline", "pooled", "model.pipeline_pooled"),
    ("model.Pipeline", "loss_and_grads", "model.pipeline_loss_and_grads"),
)

# Public functions the replay calls; they are not wrapped.
REPLAY_TARGETS = (("model", "sparse_attention"), ("model", "point_update"))

# Spans summed as one stage; a member nested inside another member counts once.
GROUPS = {
    "product.sample_mask": "product.restrict",
    "product.restrict_adjacency": "product.restrict",
    "product.restrict_rows": "product.restrict",
}


def _bundle_entries(args, bundle):
    return bundle.internal.nnz + bundle.external.nnz + bundle.point.nnz


# Per-span quantities computed from a call's arguments and result.
VALUES = {
    "product.build_product_bundle": _bundle_entries,
    "model.build_forward_model": lambda args, m: sum(arr.size for _, arr in m.named()),
}

PIPELINE_SPANS = ("model.pipeline_pooled", "model.pipeline_loss_and_grads")
REPLAY_REPEATS = 3


def _resolve(path: str):
    head, *rest = path.split(".")
    owner = _MODULES[head]
    for attr in rest:
        owner = getattr(owner, attr, None)
    return owner


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_time", "value")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.child_time = 0.0
        self.value = None


class Tracer:
    """Wraps the TARGETS while installed; records spans only inside an op."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op_walls: list[float] = []
        self.absent: set[str] = set()
        self.replayed: defaultdict[str, float] = defaultdict(float)
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._recording = False
        self._pipeline_calls: list[tuple[str, object, object]] = []

    def __enter__(self):
        for owner_path, attr, name in TARGETS:
            owner = _resolve(owner_path)
            descriptor = vars(owner).get(attr) if owner is not None else None
            if descriptor is None:
                self.absent.add(name)
                continue
            if isinstance(descriptor, classmethod):
                wrapped = classmethod(self._wrap(name, descriptor.__func__))
            else:
                wrapped = self._wrap(name, descriptor)
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, descriptor))
        for owner_path, attr in REPLAY_TARGETS:
            if getattr(_resolve(owner_path), attr, None) is None:
                self.absent.add(f"{owner_path}.{attr}")
        return self

    def __exit__(self, *exc_info):
        for owner, attr, descriptor in reversed(self._patches):
            setattr(owner, attr, descriptor)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        value_of = VALUES.get(name)
        captures_pipeline = name in PIPELINE_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._recording:
                return fn(*args, **kwargs)
            span = Span(name, self._stack[-1] if self._stack else None)
            self._stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
                if span.parent is not None:
                    span.parent.child_time += span.end - span.start
                self.spans.append(span)
            if value_of is not None:
                span.value = value_of(args, result)
            if captures_pipeline:
                self._pipeline_calls.append((name, args[0], args[1]))
            return result

        return wrapper

    def run_op(self, op, i: int):
        """Run op(i) with spans recorded; replay its pipelines afterwards."""
        self._recording = True
        start = perf_counter()
        try:
            return op(i)
        finally:
            self.op_walls.append(perf_counter() - start)
            self._recording = False
            self._stack.clear()
            self._replay()

    def _replay(self):
        calls, self._pipeline_calls = self._pipeline_calls, []
        can_replay = not self.absent.intersection(("model.sparse_attention", "model.point_update"))
        for name, pipe, x0 in calls:
            self.replayed["rows"] += x0.shape[0]
            self.replayed["edges_attended"] += len(pipe.layers) * (pipe.internal.nnz + pipe.external.nnz)
            # A sampled system has m*n rows, which ProductState rejects; the
            # public functions read only `x`.  Every layer maps d to d, so the
            # layer-0 input has the shape each layer sees.
            state = SimpleNamespace(n=pipe.n, x=x0)
            stages = {"forward": lambda: pipe.pooled(x0)}
            if can_replay:
                stages["attn_internal"] = lambda: [
                    model.sparse_attention(state, pipe.internal, layer.internal, layer.heads)
                    for layer in pipe.layers]
                stages["attn_external"] = lambda: [
                    model.sparse_attention(state, pipe.external, layer.external, layer.heads)
                    for layer in pipe.layers]
                stages["point"] = lambda: [
                    model.point_update(state, pipe.point, layer.epsilon, layer.point_mlp)
                    for layer in pipe.layers]
            # Fusion has no public entry point, so it is derived per repeat as
            # the forward minus the three stages, which cancels slow drift of
            # a shared machine; every stage reports the median over repeats.
            times: defaultdict[str, list[float]] = defaultdict(list)
            for _ in range(REPLAY_REPEATS):
                for stage, replay in stages.items():
                    start = perf_counter()
                    replay()
                    times[stage].append(perf_counter() - start)
                if can_replay:
                    times["fuse_pool"].append(times["forward"][-1] - times["attn_internal"][-1]
                                              - times["attn_external"][-1] - times["point"][-1])
            for stage, values in times.items():
                self.replayed[stage] += statistics.median(values)
            if name == "model.pipeline_loss_and_grads":
                # Backward time is loss_and_grads minus a forward on the same inputs.
                self.replayed["forward_for_backward"] += statistics.median(times["forward"])

    def metrics(self, untraced_op_s: float) -> dict[str, tuple[float, str, bool]]:
        """Per-op means of every per-layer metric: name -> (value, unit, absent)."""
        total: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        value: defaultdict[str, float] = defaultdict(float)
        calls: Counter[str] = Counter()
        covered = 0.0
        for span in self.spans:
            dur = span.end - span.start
            calls[span.name] += 1
            total[span.name] += dur
            own[span.name] += dur - span.child_time
            value[span.name] += span.value or 0
            if span.parent is None:
                covered += dur
            group = GROUPS.get(span.name)
            if group and (span.parent is None or GROUPS.get(span.parent.name) != group):
                total[group] += dur
                value[group] += span.value or 0
        r = self.replayed
        forward = total["model.pipeline_pooled"] + r["forward_for_backward"]
        replay_deps = ("model.sparse_attention", "model.point_update") + PIPELINE_SPANS
        rows = [
            ("spectral.eig_sym.s", total["spectral.eig_sym"], "s", ("spectral.eig_sym",)),
            ("spectral.eig_sym.calls", calls["spectral.eig_sym"], "count", ("spectral.eig_sym",)),
            ("spectral.product_pe.self_s", own["spectral.product_pe"], "s",
             ("spectral.product_pe", "spectral.eig_sym")),
            ("spectral.node_mark_indices.s", total["spectral.node_mark_indices"], "s",
             ("spectral.node_mark_indices",)),
            ("model.forward.s", forward, "s", PIPELINE_SPANS),
            ("model.backward.s", total["model.pipeline_loss_and_grads"] - r["forward_for_backward"],
             "s", PIPELINE_SPANS),
            ("model.attn_internal.s", r["attn_internal"], "s", replay_deps),
            ("model.attn_external.s", r["attn_external"], "s", replay_deps),
            ("model.point.s", r["point"], "s", replay_deps),
            ("model.fuse_pool.s", r["fuse_pool"], "s", replay_deps),
            ("model.rows", r["rows"], "count", PIPELINE_SPANS),
            ("model.edges_attended", r["edges_attended"], "count", PIPELINE_SPANS),
            ("model.build_forward_model.s", total["model.build_forward_model"], "s",
             ("model.build_forward_model",)),
            ("model.param_count", value["model.build_forward_model"], "count",
             ("model.build_forward_model",)),
            ("model.init_state.s", total["model.init_state"], "s", ("model.init_state",)),
            ("product.build_product_bundle.s", total["product.build_product_bundle"], "s",
             ("product.build_product_bundle",)),
            ("product.adjacency_entries", value["product.build_product_bundle"], "count",
             ("product.build_product_bundle",)),
            ("product.adjacency_bytes", 16 * value["product.build_product_bundle"], "bytes",
             ("product.build_product_bundle",)),
            ("product.restrict.s", total["product.restrict"], "s",
             tuple(k for k, g in GROUPS.items() if g == "product.restrict")),
            ("graphs.from_pairs.s", total["graphs.from_pairs"], "s", ("graphs.from_pairs",)),
            ("graphs.from_pairs.calls", calls["graphs.from_pairs"], "count", ("graphs.from_pairs",)),
            ("graphs.load_graph.s", total["graphs.load_graph"], "s", ("graphs.load_graph",)),
        ]
        ops = len(self.op_walls)
        out = {}
        for name, amount, unit, deps in rows:
            absent = bool(self.absent.intersection(deps))
            out[name] = (0.0 if absent else amount / ops, unit, absent)
        wall = sum(self.op_walls)
        out["trace.coverage"] = (covered / wall, "ratio", False)
        out["trace.overhead"] = (wall / ops - untraced_op_s, "s", False)
        out["trace.ops"] = (ops, "count", False)
        return out
