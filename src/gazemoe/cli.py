"""Command-line interface.

Subcommands: synth-gen, train, eval, gradcheck, route-dump, and
experiment (one headline experiment from ``experiments.py`` over a seed
range). Exit codes: 0 on success, 1 for bad user input (missing files,
unwritable output paths, malformed configs, bad CLI usage), 2 for
internal failures (broken invariants, non-finite training, failed
gradient checks).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import traceback

# One BLAS thread unless the user set one, before numpy loads OpenBLAS: the
# helper thread already keeps the second core busy (a hybrid block's second
# branch, the gaze encoder, evaluation batches, the second backward walker).
# Measured on 2026-10-20, when the helper also took half of each conv's
# forward: a one-epoch quickstart train() took 1.89 s (median) with one BLAS
# thread and 2.15 s with OpenBLAS's one per core; one thread won 11 of 12
# alternating process pairs on a 2-vCPU Xeon.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from .config import SyntheticSpec, TrainConfig, load_config
from .data import generate_synthetic
from .errors import ConfigError, GazeMoeError, InputError
from .experiments import EXPERIMENTS
from .train import evaluate, route_dump, run_gradcheck, train

USAGE_EXIT = 1
INTERNAL_EXIT = 2


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (bad input) instead of its default 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gazemoe",
        description="Gaze-conditioned hybrid mixture-of-experts workflows.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    gen = sub.add_parser("synth-gen", help="generate a synthetic dataset")
    gen.add_argument("--spec", required=True, help="dataset spec, key=value lines")
    gen.add_argument("--out", required=True, help="output dataset directory")
    gen.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override a spec entry (repeatable)")

    tr = sub.add_parser("train", help="train one subject-wise fold")
    tr.add_argument("--config", required=True, help="training config, key=value lines")
    tr.add_argument("--manifest", required=True, help="dataset manifest.csv")
    tr.add_argument("--out", required=True, help="run output directory")
    tr.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                    help="override a config entry (repeatable)")

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a manifest")
    ev.add_argument("--checkpoint", required=True, help="checkpoint directory")
    ev.add_argument("--manifest", required=True)
    ev.add_argument("--fold", type=int, default=None,
                    help="restrict to this fold's test split")

    gc = sub.add_parser("gradcheck",
                        help="finite-difference check of the training loss")
    gc.add_argument("--config", required=True)
    gc.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    gc.add_argument("--tol", type=float, default=1e-4)
    gc.add_argument("--coords", type=int, default=3,
                    help="coordinates probed per parameter")

    rd = sub.add_parser("route-dump", help="export per-sample routing scores")
    rd.add_argument("--checkpoint", required=True)
    rd.add_argument("--manifest", required=True)
    rd.add_argument("--out", required=True, help="output CSV path")

    ex = sub.add_parser("experiment",
                        help="run a headline experiment over a range of seeds")
    ex.add_argument("name", metavar="NAME", help=", ".join(EXPERIMENTS))
    ex.add_argument("--seeds", required=True, metavar="A-B",
                    help="model seeds A through B, inclusive")
    ex.add_argument("--out", default="runs", metavar="DIR",
                    help="work directory; each seed trains under OUT/NAME/seed<N>/")

    return parser


def _cmd_synth_gen(args) -> int:
    spec = load_config(args.spec, SyntheticSpec, args.set)
    manifest = generate_synthetic(spec, args.out)
    print(manifest)
    return 0


def _cmd_train(args) -> int:
    cfg = load_config(args.config, TrainConfig, args.set)
    res = train(cfg, args.manifest, args.out)
    print(f"metrics: {res.metrics_path}")
    print(f"checkpoint_best: {res.best_dir} (epoch {res.best_epoch}, "
          f"auc {res.best_auc:.2f})")
    print(f"checkpoint_final: {res.final_dir}")
    print(f"final test: acc {res.final_test.acc:.2f} auc {res.final_test.auc:.2f} "
          f"loss {res.final_test.loss_total:.6f}")
    return 0


def _cmd_eval(args) -> int:
    res = evaluate(args.checkpoint, args.manifest, fold=args.fold)
    rep = res.report
    print(f"samples: {len(rep.sample_ids)}")
    print(f"loss_cls: {rep.loss_cls:.6f}")
    print(f"loss_lb: {rep.loss_lb:.6f}")
    print(f"loss_total: {rep.loss_total:.6f}")
    print(f"acc: {rep.acc:.2f}")
    print(f"auc: {rep.auc:.2f}")
    for (block_id, branch), value in sorted(res.purity.items()):
        print(f"purity_b{block_id}_{branch.lower()}: {value:.4f}")
    return 0


def _cmd_gradcheck(args) -> int:
    cfg = load_config(args.config, TrainConfig, args.set)
    report = run_gradcheck(cfg, max_coords_per_param=args.coords, tol=args.tol)
    print(report)
    return 0 if report.passed else INTERNAL_EXIT


def _cmd_route_dump(args) -> int:
    print(route_dump(args.checkpoint, args.manifest, args.out))
    return 0


def _table_row(cells, widths) -> str:
    """Right-aligned columns; numbers to 6 significant digits."""
    return " ".join(f"{c:>{w}}" if isinstance(c, str) else f"{c:>{w}.6g}"
                    for c, w in zip(cells, widths))


def _cmd_experiment(args) -> int:
    if args.name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {args.name!r}; choose from "
                          f"{', '.join(EXPERIMENTS)}")
    match = re.fullmatch(r"(\d+)-(\d+)", args.seeds)
    if not match or int(match[1]) > int(match[2]):
        raise ConfigError(f"--seeds expects A-B with 0 <= A <= B, got {args.seeds!r}")
    spec, run = EXPERIMENTS[args.name]
    root = os.path.join(args.out, args.name)
    manifest = generate_synthetic(spec, os.path.join(root, "data")) if spec else None
    rows = []
    for seed in range(int(match[1]), int(match[2]) + 1):
        result = run(seed, manifest, os.path.join(root, f"seed{seed}"))
        if not rows:
            widths = [max(12, len(c)) for c in ["seed", *result]]
            print(_table_row(["seed", *result], widths))
        rows.append(list(result.values()))
        print(_table_row([str(seed), *rows[-1]], widths), flush=True)
    for label, stat in (("median", np.median), ("min", np.min), ("max", np.max)):
        print(_table_row([label, *stat(rows, axis=0)], widths))
    return 0


_COMMANDS = {
    "synth-gen": _cmd_synth_gen,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "route-dump": _cmd_route_dump,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return USAGE_EXIT
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return USAGE_EXIT
    try:
        return _COMMANDS[args.command](args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except GazeMoeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_EXIT
    except Exception:
        traceback.print_exc()
        return INTERNAL_EXIT


if __name__ == "__main__":
    sys.exit(main())
