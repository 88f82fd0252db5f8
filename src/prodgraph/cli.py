"""Command-line interface.

Subcommands:
  build-product  write the tuple adjacencies of a graph as COO text files
  pe             write a positional-encoding matrix, print its labels
  mark           print or write the node-marking index matrix
  forward        run the attention stack, print the pooled vector
  sample         draw a subgraph sample, optionally write masked adjacencies
  verify         run the oracle-verification suites

Exit codes: 0 success, 1 verification failure, 2 input error (an input too
large to hold in memory included).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .errors import ProdGraphError, RangeError
from .graphs import SparseAdjacency, load_graph
from .model import (
    ForwardConfig,
    build_forward_model,
    load_into,
    load_parameters,
    run_forward,
    save_parameters,
)
from .product import (
    SamplingMask,
    apply_sampling_mask,
    check_scale,
    external_adjacency,
    internal_adjacency,
    k_point_adjacency,
    point_adjacency,
    slot_adjacency,
)
from .rng import SplitMix64
from .spectral import concatenation_pe, k_tuple_pe, node_mark_indices, product_pe
from .verify import run_checks


def _load(path: str):
    with open(path, "rb") as fh:
        return load_graph(fh)


def _write_coo(adj: SparseAdjacency, path: Path) -> None:
    path.write_text(adj.to_coo_text())
    print(f"wrote {path} (nnz={adj.nnz})")


def cmd_build_product(args) -> int:
    g = _load(args.graph)
    order = args.tuple_order
    if order < 2:
        raise RangeError(f"tuple order must be >= 2, got {order}")
    if order > 2:
        check_scale(g.n, order)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if order == 2:
        _write_coo(internal_adjacency(g), out / "internal.coo")
        _write_coo(external_adjacency(g), out / "external.coo")
        _write_coo(point_adjacency(g.n), out / "point.coo")
        return 0
    slots = [slot_adjacency(g, order, k) for k in range(order)]
    for k, slot in enumerate(slots):
        _write_coo(slot, out / f"slot{k}.coo")
    _write_coo(functools.reduce(SparseAdjacency.union, slots), out / "union.coo")
    if args.include_point:
        for i in range(1, order + 1):
            _write_coo(k_point_adjacency(g.n, order, i), out / f"point{i}.coo")
    return 0


def cmd_pe(args) -> int:
    g = _load(args.graph)
    kind, _, order = args.variant.partition(":")
    if args.variant == "product":
        pe = product_pe(g, args.k)
    elif args.variant == "concat":
        pe = concatenation_pe(g, args.k)
    elif kind == "tuple" and order.isdecimal():
        pe = k_tuple_pe(g, int(order), args.k)
    else:
        raise RangeError(f"unknown PE variant {args.variant!r}")
    if args.out:
        Path(args.out).write_text(pe.to_text())
        print(f"wrote {args.out} ({pe.rows} rows x {pe.k} dims)")
    print(" ".join(format(x, "g") for x in pe.eigenvalues))
    return 0


def cmd_mark(args) -> int:
    g = _load(args.graph)
    marks = node_mark_indices(g)
    lines = [f"{marks.n} {marks.vocabulary}"]
    lines += [" ".join(str(int(x)) for x in row) for row in marks.marks]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_forward(args) -> int:
    g = _load(args.graph)
    cfg = ForwardConfig(
        k=args.k,
        seed=args.seed,
        layers=args.layers,
        d=args.d,
        heads=args.heads,
        pool_variant=args.pool,
        sample_ratio=args.sample_ratio,
        sample_seed=args.sample_seed,
    )
    model = build_forward_model(g, cfg)
    if args.load_params:
        with open(args.load_params, "rb") as fh:
            load_into(model.named(), load_parameters(fh))
    if args.save_params:
        with open(args.save_params, "wb") as fh:
            save_parameters(fh, model.named())
    pooled = run_forward(g, cfg, model)
    print(" ".join(format(x, ".17g") for x in pooled))
    return 0


def cmd_sample(args) -> int:
    g = _load(args.graph)
    mask = SamplingMask.from_ratio(g.n, args.ratio, SplitMix64(args.seed))
    print(" ".join(str(s) for s in mask.sampled))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_coo(apply_sampling_mask(internal_adjacency(g), mask), out / "internal.coo")
        _write_coo(apply_sampling_mask(external_adjacency(g), mask), out / "external.coo")
        _write_coo(apply_sampling_mask(point_adjacency(g.n), mask), out / "point.coo")
    return 0


def cmd_verify(args) -> int:
    report = run_checks(scale=args.scale)
    print(report.format())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prodgraph",
        description="Product-graph adjacencies, spectral encodings, attention blocks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-product", help="write tuple adjacencies as COO text")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("--tuple-order", type=int, default=2, metavar="K")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--include-point", action="store_true",
                   help="also write the K per-slot point adjacencies for K > 2")
    p.set_defaults(func=cmd_build_product)

    p = sub.add_parser("pe", help="write a positional-encoding matrix")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True, help="number of encoding dimensions")
    p.add_argument("--variant", default="product",
                   help="product | concat | tuple:K (default product)")
    p.add_argument("--out", help="output file")
    p.set_defaults(func=cmd_pe)

    p = sub.add_parser("mark", help="node-marking index matrix")
    p.add_argument("graph")
    p.add_argument("--out")
    p.set_defaults(func=cmd_mark)

    p = sub.add_parser("forward", help="run the attention stack, print pooled vector")
    p.add_argument("graph")
    p.add_argument("--k", type=int, default=4, help="PE dimensions (default 4)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--d", type=int, default=8, help="feature width (default 8)")
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--pool", choices=["sum_sum", "mean_sum"], default="sum_sum")
    p.add_argument("--sample-ratio", type=float, default=None)
    p.add_argument("--sample-seed", type=int, default=None,
                   help="seed for the subgraph sample (default: --seed)")
    p.add_argument("--save-params", help="write parameters to this container file")
    p.add_argument("--load-params", help="read parameters from a container file")
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("sample", help="draw a subgraph sample")
    p.add_argument("graph")
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="directory for masked COO files")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="run the oracle-verification suites")
    p.add_argument("--scale", choices=["quick", "full"], default="quick")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ProdGraphError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"MemoryError: {str(exc) or 'the input is too large to hold in memory'}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"IOError: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
