"""Span recording around gazemoe's public functions, and the per-layer
metrics derived from the spans.

A plain call wraps only the phase boundaries visible from outside the
timed call (``train.evaluate_split`` and ``serialize.save_checkpoint``). A
traced call wraps every public function and every ``__call__`` of each
gazemoe module, plus the public methods listed in ``METHODS``. Each wrap
records a span (name, start, end, parent). A tensor op's returned
tensor gets its ``_backward`` replaced too, so the op's backward time is
a span of its own, a child of the ``tensor.backward`` tape walk.

Spans stay in memory; ``layer_metrics`` and ``conv_census`` reduce them
after the call returns.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("tensor", "layers", "moe", "model", "losses", "metrics", "data",
           "optim", "serialize", "train")
PHASES = ("train.evaluate_split", "serialize.save_checkpoint")
METHODS = {"moe": {"MoeBranch": ("route",), "ExpertBank": ("run_expert",)},
           "optim": {"Adam": ("step",)}}
INDEX_OPS = {"take_rows", "put_rows", "take_per_row", "put_per_row"}
NON_OPS = {"backward", "zero_grads", "finite_diff_check"}

NAME, START, END, PARENT, EXTRA = range(5)


class Tracer:
    """Records spans while installed; ``full=False`` wraps the phases only."""

    def __init__(self, full: bool):
        self.full = full
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack.pop()

    def timed(self, name: str, fn, describe=None):
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if describe is not None:
                span[EXTRA] = describe(args, kwargs, out, span)
            return out

        return wrapper

    def root(self, fn, *args, **kwargs):
        """Run the timed call itself under a root span."""
        return self.timed("call", fn)(*args, **kwargs)

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_function(self, span: str, fn) -> None:
        """Replace ``fn`` wherever a gazemoe module holds it, so callers
        that imported it by name see the wrapper too."""
        wrapper = self.timed(span, fn, self._describer(span))
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("gazemoe"):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, wrapper)

    def install(self) -> "Tracer":
        for short in MODULES:
            mod = importlib.import_module(f"gazemoe.{short}")
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__ or name.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    if self.full or f"{short}.{name}" in PHASES:
                        self._patch_function(f"{short}.{name}", obj)
                elif inspect.isclass(obj) and self.full:
                    methods = ("__call__",) + METHODS.get(short, {}).get(name, ())
                    for meth in methods:
                        if meth in vars(obj):
                            span = f"{short}.{name}.{meth}".replace(".__call__", "")
                            self._patch(obj, meth, self.timed(
                                span, vars(obj)[meth], self._describer(span)))
        return self

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()

    # -- per-span details ---------------------------------------------------

    def _describer(self, span: str):
        if span == "train.evaluate_split":
            return lambda a, k, out, s: len(a[1])
        if not self.full:
            return None
        short, _, name = span.partition(".")
        if short == "tensor" and name not in NON_OPS:
            return self._op_describer(name)
        return {
            # rows pushed through one expert
            "moe.ExpertBank.run_expert": lambda a, k, out, s: a[2].shape[0],
            # rows a branch routes: batch x top_k
            "moe.MoeBranch": lambda a, k, out, s: a[1].shape[0] * a[0].top_k,
            "model.HybridMoeNet": lambda a, k, out, s: (
                "train" if out[0].requires_grad else "eval"),
            "serialize.save_checkpoint": self._describe_checkpoint,
        }.get(span)

    def _op_describer(self, name: str):
        bwd_name = f"tensor.{name}.bwd"

        def describe(args, kwargs, out, span):
            extra = _conv_shape(args, kwargs, out) if name == "conv2d" else None
            back = getattr(out, "_backward", None)
            if back is not None:
                bwd_extra = None if extra is None else (extra[0], 2 * extra[1])
                timed_back = self.timed(bwd_name, back,
                                        lambda a, k, o, s: bwd_extra)
                out._backward = timed_back
            return extra

        return describe

    def _describe_checkpoint(self, args, kwargs, out, span):
        # counted after the span closed, under a span of its own so the
        # directory scan is charged to tracing, not to the caller
        scan = self._open("trace.scan")
        files = 0
        size = 0
        for entry in os.scandir(args[0]):
            files += 1
            size += entry.stat().st_size
        self._close(scan)
        return files, size


def _conv_shape(args, kwargs, out):
    """((C, O, k, stride, H, W), forward FLOPs) of one conv2d call."""
    x, w = args[0], args[1]
    stride = kwargs.get("stride", args[2] if len(args) > 2 else 1)
    b, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    _, _, oh, ow = out.shape
    return (c, o, kh, stride, h, wd), 2 * b * o * oh * ow * c * kh * kw


# -- reductions ---------------------------------------------------------------


def _durations(spans):
    return [s[END] - s[START] for s in spans]


def _child_time(spans):
    """Per span: total time of its children, and of its children by name."""
    child = [0.0] * len(spans)
    named = defaultdict(float)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
            named[s[PARENT], s[NAME]] += s[END] - s[START]
    return child, named


def phase_metrics(spans) -> dict:
    """Phase split of one timed call from its root and phase spans."""
    root = spans[0]
    evals = [s for s in spans if s[NAME] == "train.evaluate_split"]
    ckpts = [s for s in spans if s[NAME] == "serialize.save_checkpoint"]
    wall = root[END] - root[START]
    out = {"wall_s": wall, "eval_s": sum(_durations(evals)),
           "eval_samples": sum(s[EXTRA] for s in evals),
           "ckpt_s": sum(_durations(ckpts))}
    if evals:
        first, last = evals[0][START], evals[-1][END]
        out["setup_s"] = first - root[START]
        inside = sum(_durations(s for s in ckpts if first <= s[START] < last))
        out["train_s"] = (last - first) - out["eval_s"] - inside
    return out


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced call (all times in seconds)."""
    child, named = _child_time(spans)
    total = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        total[s[NAME]] += s[END] - s[START]
        calls[s[NAME]] += 1

    def self_of(name, minus=None):
        """Span time minus its children (all, or only those named)."""
        acc = 0.0
        for i, s in enumerate(spans):
            if s[NAME] == name:
                sub = child[i] if minus is None else sum(named[i, m] for m in minus)
                acc += s[END] - s[START] - sub
        return acc

    def top_level(prefix):
        return sum(s[END] - s[START] for s in spans if s[NAME].startswith(prefix)
                   and (s[PARENT] < 0 or not spans[s[PARENT]][NAME].startswith(prefix)))

    def op_time(names, bwd):
        suffix = ".bwd" if bwd else ""
        return sum(total[f"tensor.{op}{suffix}"] for op in names)

    op_names = {s[NAME].split(".")[1] for s in spans
                if s[NAME].startswith("tensor.")} - NON_OPS
    other_ops = op_names - INDEX_OPS - {"conv2d", "matmul"}
    conv_flops = sum(s[EXTRA][1] for s in spans
                     if s[NAME] in ("tensor.conv2d", "tensor.conv2d.bwd"))
    conv_s = total["tensor.conv2d"] + total["tensor.conv2d.bwd"]
    bwd_ops = sum(calls[name] for name in calls if name.endswith(".bwd"))
    rows = sum(s[EXTRA] for s in spans if s[NAME] == "moe.ExpertBank.run_expert")
    routed = sum(s[EXTRA] for s in spans if s[NAME] == "moe.MoeBranch")
    ckpt = [s[EXTRA] for s in spans if s[NAME] == "serialize.save_checkpoint"]
    forward = defaultdict(float)
    for s in spans:
        if s[NAME] == "model.HybridMoeNet":
            forward[s[EXTRA]] += s[END] - s[START]

    return {
        "tensor.conv2d.fwd_s": total["tensor.conv2d"],
        "tensor.conv2d.bwd_s": total["tensor.conv2d.bwd"],
        "tensor.conv2d.calls": calls["tensor.conv2d"],
        "tensor.conv2d.gflop": conv_flops / 1e9,
        "tensor.conv2d.gflop_per_s": conv_flops / 1e9 / conv_s if conv_s else 0.0,
        "tensor.matmul.fwd_s": total["tensor.matmul"],
        "tensor.matmul.bwd_s": total["tensor.matmul.bwd"],
        "tensor.index.fwd_s": op_time(INDEX_OPS, False),
        "tensor.index.bwd_s": op_time(INDEX_OPS, True),
        "tensor.elementwise.fwd_s": op_time(other_ops, False),
        "tensor.elementwise.bwd_s": op_time(other_ops, True),
        "tensor.backward.self_s": self_of("tensor.backward"),
        "tensor.graph_ops_per_step": (bwd_ops / calls["tensor.backward"]
                                      if calls["tensor.backward"] else 0.0),
        "layers.Conv2d.self_s": self_of("layers.Conv2d", ["tensor.conv2d"]),
        "moe.route.s": total["moe.MoeBranch.route"],
        "moe.experts.s": total["moe.ExpertBank.run_expert"],
        "moe.experts.calls": calls["moe.ExpertBank.run_expert"],
        "moe.experts.rows": rows,
        "moe.experts.rows_per_routed": rows / routed if routed else 0.0,
        "moe.dispatch.self_s": self_of(
            "moe.MoeBranch", ["moe.MoeBranch.route", "moe.ExpertBank.run_expert"]),
        "moe.gate.s": total["moe.FusionGate"],
        "moe.hybrid.self_s": self_of("moe.HybridMoeBlock",
                                     ["moe.MoeBranch", "moe.FusionGate"]),
        "model.gaze_encoder.s": total["model.GazeEncoder"],
        "model.forward.train_s": forward["train"],
        "model.forward.eval_s": forward["eval"],
        "losses.s": top_level("losses."),
        "optim.adam.step_s": total["optim.Adam.step"],
        "data.read_pgm.s": total["data.read_pgm"],
        "data.read_pgm.calls": calls["data.read_pgm"],
        "data.load_manifest.s": total["data.load_manifest"],
        "data.augment.s": total["data.augment"],
        "serialize.save_checkpoint.s": total["serialize.save_checkpoint"],
        "serialize.save_checkpoint.calls": calls["serialize.save_checkpoint"],
        "serialize.files_written": sum(files for files, _ in ckpt),
        "serialize.bytes_written": sum(size for _, size in ckpt),
        "serialize.load_checkpoint.s": total["serialize.load_checkpoint"],
        "metrics.s": top_level("metrics."),
        "trace.unattributed_s": self_of("call"),
        "trace.wall_s": total["call"],
        "trace.spans": len(spans),
    }


def span_table(spans) -> list[tuple[str, int, float, float]]:
    """(name, calls, total_s, self_s) per span name, by self time."""
    child, _ = _child_time(spans)
    rows = defaultdict(lambda: [0, 0.0, 0.0])
    for i, s in enumerate(spans):
        row = rows[s[NAME]]
        row[0] += 1
        row[1] += s[END] - s[START]
        row[2] += s[END] - s[START] - child[i]
    return sorted(((k, *v) for k, v in rows.items()), key=lambda r: -r[3])


def conv_census(spans) -> list[dict]:
    """Per conv shape (C, O, k, stride, H, W): calls, fwd/bwd time, GFLOP."""
    table: dict = {}
    for s in spans:
        if s[NAME] in ("tensor.conv2d", "tensor.conv2d.bwd"):
            shape, flops = s[EXTRA]
            row = table.setdefault(shape, {"calls": 0, "fwd_s": 0.0, "bwd_s": 0.0,
                                           "gflop": 0.0})
            if s[NAME] == "tensor.conv2d":
                row["calls"] += 1
                row["fwd_s"] += s[END] - s[START]
            else:
                row["bwd_s"] += s[END] - s[START]
            row["gflop"] += flops / 1e9
    return [dict(zip(("C", "O", "k", "stride", "H", "W"), shape), **row)
            for shape, row in sorted(table.items())]
