"""One workload's closed loop, run in a fresh process by ``run.py``.

Usage: ``python3 perfbench/worker.py JOB.json`` (written by run.py). The
worker repeats the workload's timed call (``train.train`` or
``train.evaluate``) with one caller until ``seconds`` have passed, then
checks every call's outputs and writes ``result.json`` beside the job.
In a traced run, calls alternate plain and traced, starting plain, so
the run measures its own tracing overhead.
"""

from __future__ import annotations

import ctypes
import gc
import glob
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
import traceback

import numpy as np

from gazemoe import train as gtrain
from gazemoe.data import load_manifest, read_pgm
from gazemoe.tensor import Tensor

import spans as tr
from workloads import WORKLOADS, Workload

TRAIN = gtrain.train
EVALUATE = gtrain.evaluate


# -- one timed call ---------------------------------------------------------------


def timed_call(kind: str, workload: Workload, manifest: str, out_dir: str,
               traced: bool, ckpt_dir: str = "") -> dict:
    """Run one ``train`` or ``eval`` call; returns its phases, outputs and,
    when traced, its per-layer metrics."""
    cfg = workload.train_config()
    tracer = tr.Tracer(full=traced).install()
    record: dict = {"traced": traced, "error": None}
    try:
        if kind == "train":
            result = tracer.root(TRAIN, cfg, manifest, out_dir)
        else:
            result = tracer.root(EVALUATE, ckpt_dir, manifest, None)
    except Exception:
        record["error"] = traceback.format_exc()
        return record
    finally:
        tracer.uninstall()
    spans = tracer.spans
    record["phases"] = tr.phase_metrics(spans)
    if kind == "train":
        # train.train evaluates the train split first
        n_train = next(s[tr.EXTRA] for s in spans if s[tr.NAME] == "train.evaluate_split")
        record["phases"]["step_samples"] = (
            cfg.epochs * math.ceil(n_train / cfg.batch_size) * cfg.batch_size)
        record["outputs"] = _train_outputs(result)
    else:
        record["outputs"] = _eval_outputs(result)
    if traced:
        record["layers"] = tr.layer_metrics(spans)
        record["census"] = tr.conv_census(spans)
        record["span_table"] = tr.span_table(spans)[:20]
    return record


def _train_outputs(result) -> dict:
    return {
        "metrics_path": result.metrics_path,
        "final_dir": result.final_dir,
        "train_loss": result.final_train.loss_total,
        "test_loss": result.final_test.loss_total,
        "test_acc": result.final_test.acc,
        "test_auc": result.final_test.auc,
        "sha256": {"metrics.csv": _sha_file(result.metrics_path),
                   "checkpoint_final": _sha_dir(result.final_dir)},
    }


def _eval_outputs(result) -> dict:
    rep = result.report
    fracs = {f"b{b}_{br}": [float(v) for v in f]
             for (b, br), f in sorted(rep.expert_fracs.items())}
    top1 = {f"b{b}_{br}": t.tolist() for (b, br), t in sorted(rep.top1.items())}
    scored = json.dumps([rep.sample_ids, rep.loss_cls, rep.loss_lb, rep.loss_total,
                         rep.acc, rep.auc, fracs, top1])
    return {
        "test_loss": rep.loss_total,
        "test_auc": rep.auc,
        "sample_ids_sha256": _sha_ids(rep.sample_ids),
        "top1_lengths": [len(t) for t in top1.values()],
        "frac_sums": [math.fsum(f) for f in fracs.values()],
        "sha256": {"scores": hashlib.sha256(scored.encode()).hexdigest()},
    }


def _sha_ids(ids: list[str]) -> str:
    return hashlib.sha256("\n".join(ids).encode()).hexdigest()


def _sha_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _sha_dir(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


# -- output checks ---------------------------------------------------------------


def rows_per_routed(ckpt_dir: str, manifest: str) -> float:
    """Expert rows over routed rows (samples x k x branches) for one batch
    of the manifest through the checkpoint's model; 1.0 when sparse
    activation is exact."""
    model, cfg = gtrain.load_model(ckpt_dir)
    rows = load_manifest(manifest, cfg.model.num_classes)[: cfg.batch_size]

    def batch(path_of):
        arrays = []
        for m in rows:
            data, maxval = read_pgm(path_of(m))
            arrays.append(data.astype(np.float64)[None] / maxval)
        return Tensor(np.stack(arrays))

    expert_rows = model.count_expert_evals(batch(lambda m: m.image_path),
                                           batch(lambda m: m.heatmap_path))
    routed = len(rows) * cfg.model.top_k * 2 * len(model.hybrid_blocks())
    return expert_rows / routed


def check_files(kind: str, workload: Workload, manifest: str, record: dict,
                ckpt_dir: str = "") -> list[str]:
    """Checks on the files a call left behind; failures, empty if none.

    Every call of a run writes the same output directory, and the
    per-call hashes show that each wrote the same bytes, so checking the
    files once covers every call."""
    out = record["outputs"]
    failed = []
    if kind == "train":
        with open(out["metrics_path"], newline="") as fh:
            lines = fh.read().splitlines()
        header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
        loss_cols = [i for i, c in enumerate(header) if c.startswith("loss_")]
        if not all(math.isfinite(float(r[i])) for r in rows for i in loss_cols):
            failed.append("metrics.csv holds a non-finite loss")
        if len(rows) != 2 * (workload.epochs + 1):
            failed.append(f"metrics.csv has {len(rows)} rows, "
                          f"expected {2 * (workload.epochs + 1)}")
        rep = EVALUATE(out["final_dir"], manifest, fold=0).report
        got = (rep.loss_total, rep.acc, rep.auc)
        want = (out["test_loss"], out["test_acc"], out["test_auc"])
        if got != want:
            failed.append(f"reloaded checkpoint_final scores {got}, training "
                          f"reported {want}")
        ckpt_dir = out["final_dir"]
    ratio = rows_per_routed(ckpt_dir, manifest)
    if ratio != 1.0:
        failed.append(f"expert rows per routed row is {ratio}, expected 1.0")
    return failed


def check_call(record: dict, first: dict, sample_ids: list[str]) -> list[str]:
    """Checks on what one call returned; failures, empty if none."""
    if record["error"] is not None:
        return ["call raised:\n" + record["error"]]
    out = record["outputs"]
    failed = []
    if not all(math.isfinite(out[k]) for k in ("train_loss", "test_loss") if k in out):
        failed.append("a reported loss is not finite")
    if "sample_ids_sha256" in out:
        if out["sample_ids_sha256"] != _sha_ids(sample_ids) or any(
                n != len(sample_ids) for n in out["top1_lengths"]):
            failed.append("eval did not score exactly one row per manifest sample")
        if any(abs(s - 1.0) > 1e-9 for s in out["frac_sums"]):
            failed.append(f"expert fractions sum to {out['frac_sums']}, expected 1")
    if record["traced"] and record["layers"]["moe.experts.rows_per_routed"] != 1.0:
        failed.append("traced moe.experts.rows_per_routed != 1.0")
    if out["sha256"] != first["outputs"]["sha256"]:
        failed.append("outputs differ from the run's first call at the same seed")
    return failed


# -- environment -----------------------------------------------------------------


def peak_rss_kb() -> int:
    """Peak resident set of this process's own address space.

    ``ru_maxrss`` is not used where ``VmHWM`` exists: on Linux it also
    counts the RSS the parent had when it forked this process.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def blas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(workload: Workload) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "dtype": workload.train_config().precision,
    }


# -- main ---------------------------------------------------------------------------


def main(job_path: str) -> None:
    with open(job_path) as fh:
        job = json.load(fh)
    workload = WORKLOADS[job["workload"]]
    deadline = time.perf_counter() + job["seconds"]
    # One output directory for the whole run: after the first call the
    # checkpoints are rewritten in place. A fresh directory per call
    # spent 0.3 s more in file creation and varied more from call to
    # call on the host the benchmark was sized on.
    out_dir = os.path.join(job["work"], "run")
    calls = []
    while True:
        # Outside the timed call, write back the previous call's files
        # and collect the heap, so each call starts from the same state.
        gc.collect()
        os.sync()
        traced = bool(job["trace"]) and len(calls) % 2 == 1
        record = timed_call(workload.kind, workload, job["manifest"], out_dir,
                            traced, job.get("ckpt_dir", ""))
        calls.append(record)
        enough = not job["trace"] or len(calls) >= 2
        if time.perf_counter() >= deadline and enough:
            break
    peak_rss_mb = peak_rss_kb() / 1024.0
    done = [c for c in calls if c["error"] is None]
    shared = []
    if done:
        try:
            shared = check_files(workload.kind, workload, job["manifest"], done[-1],
                                 job.get("ckpt_dir", ""))
        except Exception:
            shared = ["check raised:\n" + traceback.format_exc()]
    sample_ids = [m.sample_id for m in load_manifest(job["manifest"])]
    first = done[0] if done else None
    for call in calls:
        call["failed_checks"] = (check_call(call, first, sample_ids)
                                 + (shared if call["error"] is None else []))
    result = {"calls": calls, "peak_rss_mb": peak_rss_mb,
              "env": environment(workload)}
    with open(os.path.join(os.path.dirname(job_path), "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
