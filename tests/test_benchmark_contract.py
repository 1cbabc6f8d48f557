"""The benchmark's worker runs against the current program on a tiny workload.

``perfbench/worker.py`` times ``train.train`` and ``train.evaluate`` and
checks what each call returns and writes. This runs the same calls and
checks on a few-second dataset, so a change that breaks what the
benchmark reads (the checkpoint directory, the traced spans, the
returned reports) fails here rather than only in a benchmark run.
"""

import os
import sys

from gazemoe.data import load_manifest
from gazemoe.layers import Conv2d, Module
from gazemoe.model import HybridMoeNet

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                                "perfbench"))
import worker  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Workload(
    name="tiny", kind="train",
    spec=dict(task="blob", num_subjects=10, samples_per_subject=4, image_size=32,
              num_classes=3),
    config_text=workloads.README_TRAIN_CFG, epochs=1,
)

# the train_many_experts recipe (16 experts, top-2, every block hybrid) on a
# few subjects: every branch combines at least two experts' rows
MANY_EXPERTS = workloads.Workload(
    name="many_experts", kind="train",
    spec=dict(task="patterns", num_subjects=4, samples_per_subject=8, image_size=16,
              num_classes=4),
    config_text=workloads.MANY_EXPERTS_TRAIN_CFG, epochs=1,
)


def _conv_layers(module):
    for value in vars(module).values():
        for item in value if isinstance(value, (list, tuple)) else [value]:
            if isinstance(item, Conv2d):
                yield item
            elif isinstance(item, Module):
                yield from _conv_layers(item)


def test_worker_calls_pass_their_checks(tmp_path):
    manifest = workloads.generate_inputs(TINY, 0, str(tmp_path)).manifest
    sample_ids = [m.sample_id for m in load_manifest(manifest)]
    out_dir = str(tmp_path / "run")  # one output directory per run, as the worker
    calls = [worker.timed_call("train", TINY, manifest, out_dir, traced)
             for traced in (False, True)]
    for call in calls:
        assert worker.check_call(call, calls[0], sample_ids) == []
    assert worker.check_files("train", TINY, manifest, calls[-1]) == []
    layers = calls[1]["layers"]
    assert layers["serialize.save_checkpoint.calls"] >= 2  # best at epoch 0, final
    # each save leaves exactly one file in its checkpoint directory
    assert layers["serialize.files_written"] == layers["serialize.save_checkpoint.calls"]
    # per-op backward spans come from the _backward wrapper the tracer sets at
    # forward time; a tape walk that skipped or lost it would zero these
    assert layers["tensor.graph_ops_per_step"] > 0
    assert layers["tensor.conv2d.bwd_s"] > 0
    # the census reads each conv's stride from the op's arguments; a signature
    # change it misreads would show up here as a wrong or missing shape
    model = HybridMoeNet(TINY.train_config().model)
    convs = {(conv.in_channels, conv.out_channels, conv.kernel_size, conv.stride)
             for conv in _conv_layers(model)}
    assert {(row["C"], row["O"], row["k"], row["stride"])
            for row in calls[1]["census"]} == convs

    ckpt = calls[0]["outputs"]["final_dir"]
    evals = [worker.timed_call("eval", TINY, manifest, "", traced, ckpt)
             for traced in (False, True)]
    for call in evals:
        assert worker.check_call(call, evals[0], sample_ids) == []
    assert worker.check_files("eval", TINY, manifest, evals[-1], ckpt) == []
    # the split pass runs its chunks on pool threads: their spans must still
    # count every routed row once and every conv shape, and every forward
    # must run without recording a graph
    layers = evals[1]["layers"]
    assert layers["moe.experts.rows_per_routed"] == 1.0
    assert layers["model.forward.train_s"] == 0 < layers["model.forward.eval_s"]
    assert {(row["C"], row["O"], row["k"], row["stride"])
            for row in evals[1]["census"]} == convs


def test_worker_checks_hold_over_multi_expert_dispatch(tmp_path):
    manifest = workloads.generate_inputs(MANY_EXPERTS, 0, str(tmp_path)).manifest
    sample_ids = [m.sample_id for m in load_manifest(manifest)]
    cfg = MANY_EXPERTS.train_config()
    branches = 2 * len(cfg.model.hybrid_positions)
    out_dir = str(tmp_path / "run")
    calls = [worker.timed_call("train", MANY_EXPERTS, manifest, out_dir, traced)
             for traced in (False, True)]
    for call in calls:
        assert worker.check_call(call, calls[0], sample_ids) == []
    assert worker.check_files("train", MANY_EXPERTS, manifest, calls[-1]) == []
    assert calls[1]["layers"]["moe.experts.rows_per_routed"] == 1.0

    ckpt = calls[0]["outputs"]["final_dir"]
    evals = [worker.timed_call("eval", MANY_EXPERTS, manifest, "", traced, ckpt)
             for traced in (False, True)]
    for call in evals:
        assert worker.check_call(call, evals[0], sample_ids) == []
    assert worker.check_files("eval", MANY_EXPERTS, manifest, evals[-1], ckpt) == []
    layers = evals[1]["layers"]
    assert layers["moe.experts.rows_per_routed"] == 1.0
    # top-2 puts two distinct experts in every row, so each branch forward
    # over a chunk runs at least two of them
    chunks = -(-len(sample_ids) // cfg.batch_size)
    assert layers["moe.experts.calls"] >= 2 * branches * chunks
