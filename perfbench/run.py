"""gazemoe benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or any checkout of it). The run generates
the workload's inputs from ``--seed``, runs the workload's closed loop
in a fresh worker process for ``--seconds`` seconds, checks every
call's outputs, and prints every metric by name with its unit. The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced
run (see perfbench/README.md). A full record, with the run environment,
goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
DEADLINE_S = 170  # a run must end within 180 s

# One BLAS thread, set before numpy is first imported. On the shared
# 2-vCPU host the benchmark was sized on, a second thread made training
# at most 8% faster and evaluation no faster, and it doubled the run's
# exposure to the other tenants' noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Import gazemoe from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "gazemoe", "train.py")):
        _fail(f"no gazemoe sources under {SRC}")
    sys.path.insert(0, SRC)
    import gazemoe.train

    if not os.path.abspath(gazemoe.train.__file__).startswith(SRC + os.sep):
        _fail(f"imported gazemoe from {gazemoe.train.__file__}, not {SRC}")


# -- determinism record ---------------------------------------------------------


def check_determinism(workload, seed: int, hashes: dict) -> str | None:
    """Compare output hashes with the record kept for (workload, seed);
    store them when absent. Returns a failure message or None."""
    path = os.path.join(STATE, "determinism.json")
    record = {}
    if os.path.isfile(path):
        with open(path) as fh:
            record = json.load(fh)
    key = f"{workload.name}:{seed}"
    if key in record and record[key] != hashes:
        return f"outputs at seed {seed} differ from an earlier run: " \
               f"{record[key]} != {hashes}"
    record[key] = hashes
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return None


# -- aggregation ------------------------------------------------------------------


def end_to_end(calls, peak_rss_mb, train_source) -> dict:
    """Medians over a plain run's calls. ``train_source`` holds the calls
    that give the train-only metrics: the timed calls themselves, or for
    eval the training that made the evaluated checkpoint. The first call
    of a process runs cold; it is a warm-up, left out when others exist."""
    calls = calls[1:] or calls
    train_source = train_source[1:] or train_source
    return {
        "setup_s": statistics.median(c["phases"]["setup_s"] for c in calls),
        "wall_s": statistics.median(c["phases"]["wall_s"] for c in calls),
        "train_samples_per_s": statistics.median(
            c["phases"]["step_samples"] / c["phases"]["train_s"] for c in train_source),
        "eval_samples_per_s": statistics.median(
            c["phases"]["eval_samples"] / c["phases"]["eval_s"] for c in calls),
        "peak_rss_mb": peak_rss_mb,
        "train_loss": train_source[0]["outputs"]["train_loss"],
        "test_auc": calls[0]["outputs"]["test_auc"],
    }


def per_layer(calls) -> dict:
    traced = [c for c in calls if c["traced"]]
    # the first call of a process runs cold (first allocations, new
    # checkpoint files); leave it out of the baseline when another exists
    plain = [c for c in calls if not c["traced"]]
    plain = plain[1:] or plain
    out = {k: statistics.median(c["layers"][k] for c in traced) for k in traced[0]["layers"]}
    out["trace.overhead_s"] = (statistics.median(c["phases"]["wall_s"] for c in traced)
                               - statistics.median(c["phases"]["wall_s"] for c in plain))
    return out


def declared_units(section: str) -> dict:
    """name -> unit of one metric list in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


# -- report ---------------------------------------------------------------------------


def print_report(args, env, calls, metrics, units, hashes, failures) -> None:
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(calls)} timed calls ({sum(c['traced'] for c in calls)} traced)")
    print("env " + json.dumps(env, sort_keys=True))
    print("sha256 " + json.dumps(hashes, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {units[name]}")
    traced = [c for c in calls if c["traced"]]
    if traced:
        last = traced[-1]
        print("conv2d shape census (last traced call):")
        print(f"  {'C':>3} {'O':>3} {'k':>2} {'s':>2} {'H':>4} {'W':>4} "
              f"{'calls':>6} {'fwd_s':>9} {'bwd_s':>9} {'GFLOP':>8}")
        for row in last["census"]:
            print(f"  {row['C']:>3} {row['O']:>3} {row['k']:>2} {row['stride']:>2} "
                  f"{row['H']:>4} {row['W']:>4} {row['calls']:>6} "
                  f"{row['fwd_s']:>9.4f} {row['bwd_s']:>9.4f} {row['gflop']:>8.3f}")
        print("spans by self time (last traced call):")
        for name, n, total, own in last["span_table"]:
            print(f"  {name:40s} {n:>7d} {total:>9.4f} s {own:>9.4f} s self")
    for message in failures:
        print("FAILED: " + message)


def main(argv=None) -> int:
    start = time.perf_counter()
    args = _parse_args(argv)
    _import_program()
    sys.path.insert(0, HERE)
    import worker
    from workloads import WORKLOADS, generate_inputs

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    work = os.path.join(STATE, "work", f"{workload.name}-s{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        inputs = generate_inputs(workload, args.seed, work)
        job = {"workload": workload.name, "seconds": args.seconds, "trace": args.trace,
               "work": work, "manifest": inputs.manifest}
        failures = []
        op_failed = []  # one flag per attempted operation
        hashes = {}
        train_source = None
        if workload.kind == "eval":
            # The evaluated checkpoint is trained here, as input generation;
            # its training supplies the eval workload's train-only metrics.
            gen = worker.timed_call("train", workload, inputs.ckpt_manifest,
                                    os.path.join(work, "ckpt"), traced=False)
            if gen["error"]:
                _fail("checkpoint training raised:\n" + gen["error"])
            gen_failed = (worker.check_call(gen, gen, [])
                          + worker.check_files("train", workload,
                                               inputs.ckpt_manifest, gen))
            failures += [f"checkpoint training: {m}" for m in gen_failed]
            op_failed.append(bool(gen_failed))
            job["ckpt_dir"] = gen["outputs"]["final_dir"]
            hashes.update({f"ckpt {k}": v for k, v in gen["outputs"]["sha256"].items()})
            train_source = [gen]
        # Flush the inputs' dirty pages now, so writeback does not land
        # inside the timed loop.
        os.sync()
        job_path = os.path.join(work, "job.json")
        with open(job_path, "w") as fh:
            json.dump(job, fh)
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + HERE)
        budget = DEADLINE_S - (time.perf_counter() - start)
        try:
            subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), job_path],
                           env=env, check=True, timeout=budget)
        except subprocess.TimeoutExpired:
            _fail(f"worker did not finish within {budget:.0f} s")
        except subprocess.CalledProcessError as exc:
            _fail(f"worker exited with code {exc.returncode}")
        with open(os.path.join(work, "result.json")) as fh:
            result = json.load(fh)
        calls = result["calls"]
        for i, call in enumerate(calls):
            failures += [f"call {i}: {m}" for m in call["failed_checks"]]
        ok_calls = [c for c in calls if not c["error"]]
        if not ok_calls or not any(not c["traced"] for c in ok_calls):
            print("\n".join(failures), file=sys.stderr)
            _fail("no timed call completed; nothing to measure")
        hashes.update(ok_calls[0]["outputs"]["sha256"])
        mismatch = check_determinism(workload, args.seed, hashes)
        if mismatch:
            failures.append(mismatch)
        # every call wrote the hashed outputs, so a mismatch fails them all
        op_failed += [bool(c["failed_checks"]) or bool(mismatch) for c in calls]
        if args.trace:
            metrics = per_layer(ok_calls)
            units = declared_units("per_layer")
        else:
            metrics = end_to_end(ok_calls, result["peak_rss_mb"],
                                 train_source or ok_calls)
            units = declared_units("end_to_end")
        if set(metrics) != set(units):
            _fail(f"measured metrics {sorted(metrics)} do not match "
                  f"BENCHMARK.json {sorted(units)}")
        print_report(args, result["env"], calls, metrics, units, hashes, failures)
        summary = {
            "correct": not any(op_failed),
            "attempted": len(op_failed),
            "failed": sum(op_failed),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
        record_path = os.path.join(
            STATE, "results", f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
        with open(record_path, "w") as fh:
            json.dump(dict(summary, env=result["env"], sha256=hashes,
                           failures=failures, calls=calls), fh, indent=1)
        print(json.dumps(summary))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        # Settle the deletes (the filesystem may discard freed blocks)
        # before the next run starts.
        os.sync()


if __name__ == "__main__":
    sys.exit(main())
