"""Trainer tests: metrics CSV schema, reproducibility, checkpointing,
eval-after-train consistency, divergence aborts, and the balance-term
and loss-descent training invariants."""

import csv
import importlib
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from gazemoe import tensor as T
from gazemoe.cli import main
from gazemoe.config import AugmentConfig, ModelConfig, SyntheticSpec, TrainConfig
from gazemoe.data import (SampleManifest, augment, generate_synthetic, load_manifest,
                          write_manifest, write_pgm)
from gazemoe.errors import ConfigError, FormatError, NumericsError
from gazemoe.losses import objective
from gazemoe.metrics import usage_entropy
from gazemoe.model import HybridMoeNet
from gazemoe.serialize import load_checkpoint, save_checkpoint
from gazemoe.tensor import Tensor, no_grad
from gazemoe.train import (_assemble, _forward_split, _load_pixels, evaluate,
                           evaluate_split, load_model, route_dump, train)
from oracles import load_image


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("blobs"))
    spec = SyntheticSpec(
        num_subjects=6, samples_per_subject=6, image_size=24, num_classes=3,
        task="blob", blob_radii=(2.5, 4.0, 6.0), blob_intensities=(0.6, 0.8, 1.0),
        heatmap_sigma=3.0, image_noise=0.05, seed=0,
    )
    return generate_synthetic(spec, root)


@pytest.fixture(scope="module")
def patterns_dataset(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("patterns"))
    spec = SyntheticSpec(
        num_subjects=4, samples_per_subject=4, image_size=24, num_classes=4,
        task="patterns", blob_radii=(2.5, 4.0, 6.0),
        blob_intensities=(0.6, 0.8, 1.0), heatmap_sigma=3.0, seed=0,
    )
    return generate_synthetic(spec, root)


def make_config(**overrides):
    model = ModelConfig(
        stem_channels=4, stage_channels=(4, 8), blocks_per_stage=(1, 1),
        stage_strides=(1, 2), hybrid_positions=((1, 0),), num_experts=2,
        top_k=1, gaze_encoder_channels=(4, 8), gaze_feature_width=8,
        num_classes=3, seed=3,
    )
    base = dict(
        lr=3e-3, step_size=50, gamma=0.5, epochs=3, batch_size=12,
        lb_weight=0.01, seed=1, fold=0, folds=3, model=model,
        augment=AugmentConfig(noise_sigma=0.02),
    )
    model_overrides = overrides.pop("model_overrides", {})
    if model_overrides:
        from dataclasses import replace
        base["model"] = replace(model, **model_overrides)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def run(dataset, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("run"))
    cfg = make_config()
    return cfg, train(cfg, dataset, out)


def _read_metrics(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestMetricsCsv:
    def test_header_and_row_grid(self, run):
        cfg, res = run
        with open(res.metrics_path, newline="") as fh:
            header = next(csv.reader(fh))
        assert header == [
            "epoch", "split", "loss_cls", "loss_lb", "loss_total", "acc", "auc",
            "f_b0_dd_e0", "f_b0_dd_e1", "f_b0_de_e0", "f_b0_de_e1",
        ]
        rows = _read_metrics(res.metrics_path)
        assert [int(r["epoch"]) for r in rows] == [0, 0, 1, 1, 2, 2, 3, 3]
        assert [r["split"] for r in rows] == ["train", "test"] * 4

    def test_values_parse_finite_and_consistent(self, run):
        _, res = run
        for row in _read_metrics(res.metrics_path):
            values = {k: float(v) for k, v in row.items() if k != "split"}
            assert all(np.isfinite(v) for v in values.values()), row
            assert values["loss_total"] == pytest.approx(
                values["loss_cls"] + 0.01 * values["loss_lb"], rel=1e-12
            )
            assert 0.0 <= values["acc"] <= 100.0
            assert 0.0 <= values["auc"] <= 100.0
            for branch in ("dd", "de"):
                frac = values[f"f_b0_{branch}_e0"] + values[f"f_b0_{branch}_e1"]
                assert frac == pytest.approx(1.0, abs=1e-9)

    def test_loss_falls_over_training(self, run):
        _, res = run
        train_rows = [r for r in _read_metrics(res.metrics_path)
                      if r["split"] == "train"]
        assert float(train_rows[-1]["loss_total"]) < float(train_rows[0]["loss_total"])

    def test_finished_epochs_survive_a_crash(self, run, dataset, tmp_path, monkeypatch):
        cfg, res = run
        train_module = importlib.import_module("gazemoe.train")
        evaluate_split = train_module.evaluate_split
        calls = []

        def crash_on_epoch_2_train_pass(*args, **kwargs):
            calls.append(None)
            # passes run train, test per epoch from epoch 0; the fifth is epoch 2's train
            if len(calls) == 5:
                raise NumericsError("injected")
            return evaluate_split(*args, **kwargs)

        monkeypatch.setattr(train_module, "evaluate_split", crash_on_epoch_2_train_pass)
        with pytest.raises(NumericsError, match="injected"):
            train(cfg, dataset, str(tmp_path))
        with open(os.path.join(tmp_path, "metrics.csv"), "rb") as fh:
            crashed = fh.read().splitlines(keepends=True)
        with open(res.metrics_path, "rb") as fh:
            full = fh.read().splitlines(keepends=True)
        # header plus the epoch-0 and epoch-1 rows, byte for byte as a full run writes them
        assert crashed == full[:5]
        assert [r[:2] for r in csv.reader(line.decode() for line in crashed[1:])] == [
            ["0", "train"], ["0", "test"], ["1", "train"], ["1", "test"]]


class TestReproducibility:
    def test_identical_runs_are_byte_identical(self, dataset, tmp_path):
        cfg = make_config(epochs=2)
        res_a = train(cfg, dataset, os.path.join(tmp_path, "a"))
        res_b = train(cfg, dataset, os.path.join(tmp_path, "b"))
        assert Path(res_a.metrics_path).read_bytes() == Path(res_b.metrics_path).read_bytes()
        for fname in sorted(os.listdir(res_a.final_dir)):
            a = Path(res_a.final_dir, fname).read_bytes()
            b = Path(res_b.final_dir, fname).read_bytes()
            assert a == b, fname

    # the hybrid model shares its gaze encoder and its DD/DE branches; the
    # baseline model's training forward shares nothing and runs on this thread
    @pytest.mark.parametrize("model_overrides", [{}, {"hybrid_positions": ()}],
                             ids=["hybrid", "baseline"])
    def test_a_two_cpu_run_writes_the_one_cpu_bytes(self, model_overrides, dataset, tmp_path,
                                                    monkeypatch, helper_jobs):
        # gate 8 under threads: with small patch chunks every training conv
        # takes several, and the run's files are those of a one-CPU run
        monkeypatch.setattr(T, "_PATCH_BYTES", 1 << 15)
        cfg = make_config(epochs=2, model_overrides=model_overrides)
        with monkeypatch.context() as one_cpu:
            one_cpu.setattr(T, "usable_cpus", lambda: 1)
            serial = train(cfg, dataset, os.path.join(tmp_path, "serial"))
        assert helper_jobs == []  # the next batch too is assembled inline
        walk_jobs = []  # the jobs submitted while a backward walk runs
        assemblies = []  # per training step, batch assemblies submitted before its walk
        real_backward = T.backward

        def backward(loss):
            assemblies.append(helper_jobs.count("next_batch"))
            start = len(helper_jobs)
            real_backward(loss)
            walk_jobs.extend(helper_jobs[start:])

        monkeypatch.setattr(T, "backward", backward)
        split = train(cfg, dataset, os.path.join(tmp_path, "split"))
        # split jobs outside the walks (the evaluation pass's batches, and the
        # hybrid model's forward), and one second walker per backward; a walk
        # submits no split job
        assert any(isinstance(job, list) and job for job in helper_jobs)
        assert walk_jobs and all(job == "walker" for job in walk_jobs)
        # step s hands batch s+1 to the helper before its walk; the first
        # step assembles its own batch and the last hands on none
        assert assemblies == [1, 2, 3, 3]
        assert helper_jobs.count("next_batch") == len(assemblies) - 1
        assert helper_jobs.all_done()
        assert Path(split.metrics_path).read_bytes() == Path(serial.metrics_path).read_bytes()
        for sub in ("best_dir", "final_dir"):
            a, b = Path(getattr(split, sub)), Path(getattr(serial, sub))
            assert sorted(os.listdir(a)) == sorted(os.listdir(b)) == ["checkpoint.dkt"]
            assert (a / "checkpoint.dkt").read_bytes() == (b / "checkpoint.dkt").read_bytes()

    def test_seed_changes_the_run(self, dataset, tmp_path):
        res_a = train(make_config(epochs=1), dataset, os.path.join(tmp_path, "a"))
        res_b = train(make_config(epochs=1, seed=9), dataset, os.path.join(tmp_path, "b"))
        assert Path(res_a.metrics_path).read_text() != Path(res_b.metrics_path).read_text()


class TestCheckpoints:
    def test_zero_epochs_saves_initial_state(self, dataset, tmp_path):
        res = train(make_config(epochs=0), dataset, str(tmp_path))
        rows = _read_metrics(res.metrics_path)
        assert [int(r["epoch"]) for r in rows] == [0, 0]
        assert res.best_epoch == 0
        best, _ = load_checkpoint(res.best_dir)
        final, _ = load_checkpoint(res.final_dir)
        assert set(best) == set(final)
        for name in best:
            np.testing.assert_array_equal(best[name], final[name])

    def test_best_checkpoint_tracks_max_test_auc(self, run):
        _, res = run
        test_rows = [r for r in _read_metrics(res.metrics_path)
                     if r["split"] == "test"]
        aucs = [float(r["auc"]) for r in test_rows]
        assert res.best_auc == max(aucs)
        assert res.best_epoch == int(np.argmax(aucs))

    def test_loaded_model_reproduces_training_params(self, run):
        cfg, res = run
        model, loaded_cfg = load_model(res.final_dir)
        assert loaded_cfg == cfg
        arrays, _ = load_checkpoint(res.final_dir)
        for name, p in model.named_parameters():
            np.testing.assert_array_equal(p.data, arrays[name])

    def test_each_checkpoint_is_one_file(self, run):
        _, res = run
        for ckpt in (res.best_dir, res.final_dir):
            assert os.listdir(ckpt) == ["checkpoint.dkt"]

    def test_tampered_config_fails_shape_check(self, run, tmp_path):
        _, res = run
        arrays, text = load_checkpoint(res.final_dir)
        assert "model.stem_channels=4" in text
        broken = os.path.join(tmp_path, "broken")
        save_checkpoint(broken, [(k, Tensor(a)) for k, a in arrays.items()],
                        text.replace("model.stem_channels=4", "model.stem_channels=6"))
        with pytest.raises(FormatError):
            load_model(broken)


class TestEvaluate:
    def test_eval_after_train_matches_exactly(self, run, dataset):
        cfg, res = run
        ev = evaluate(res.final_dir, dataset, fold=cfg.fold)
        assert ev.report.loss_cls == res.final_test.loss_cls
        assert ev.report.loss_lb == res.final_test.loss_lb
        assert ev.report.loss_total == res.final_test.loss_total
        assert ev.report.acc == res.final_test.acc
        assert ev.report.auc == res.final_test.auc

    def test_whole_manifest_when_fold_omitted(self, run, dataset):
        _, res = run
        ev = evaluate(res.final_dir, dataset)
        rows = load_manifest(dataset, num_classes=3)
        assert ev.report.sample_ids == [m.sample_id for m in rows]

    def test_no_purity_without_groups_sidecar(self, run, dataset):
        _, res = run
        assert evaluate(res.final_dir, dataset).purity == {}

    def test_purity_reported_with_groups_sidecar(self, patterns_dataset, tmp_path):
        cfg = make_config(
            epochs=0, folds=2,
            model_overrides=dict(num_classes=4, num_experts=4),
        )
        res = train(cfg, patterns_dataset, str(tmp_path))
        ev = evaluate(res.final_dir, patterns_dataset)
        assert set(ev.purity) == {(0, "DD"), (0, "DE")}
        for value in ev.purity.values():
            assert 0.25 <= value <= 1.0

    def test_bad_fold_rejected(self, run, dataset):
        _, res = run
        with pytest.raises(ConfigError, match="fold"):
            evaluate(res.final_dir, dataset, fold=7)


class TestSplitPass:
    def test_threaded_pass_equals_a_serial_loop(self, run, dataset):
        _, res = run
        model, cfg = load_model(res.final_dir)
        rows = load_manifest(dataset, num_classes=3)
        batch = 8
        assert len(rows) % batch  # the last chunk is partial
        cache = _load_pixels(rows)
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the GIL between the two threads at every chance
        try:
            logits, _, _, _, _ = _forward_split(model, rows, cache, batch, cfg.lb_weight)
            report = evaluate_split(model, rows, cache, batch, cfg.lb_weight)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads
        # no_grad ends with each chunk's forward: this thread still records
        assert (Tensor([1.0], requires_grad=True) * 2.0).requires_grad

        # reference: one chunk after another on this thread, pixels from load_image
        cls_sum = lb_sum = 0.0
        ref_logits, parts = [], {}
        with no_grad():
            for start in range(0, len(rows), batch):
                chunk = rows[start : start + batch]
                images = np.stack([load_image(m.image_path) for m in chunk])
                heatmaps = np.stack([load_image(m.heatmap_path) for m in chunk])
                out, records = model(Tensor(images), Tensor(heatmaps))
                _, cls, lb = objective(out, records, np.array([m.label for m in chunk]),
                                       cfg.lb_weight)
                cls_sum += cls * len(chunk)
                lb_sum += lb * len(chunk)
                ref_logits.append(out.data)
                for rec in records:
                    parts.setdefault((rec.block_id, rec.branch), []).append(rec)
        assert logits.tobytes() == np.concatenate(ref_logits).tobytes()
        assert report.loss_cls == cls_sum / len(rows)
        assert report.loss_lb == lb_sum / len(rows)
        assert [(r.block_id, r.branch) for r in report.records] == list(parts)
        for rec in report.records:
            recs = parts[rec.block_id, rec.branch]
            for got, want in ((rec.raw_scores.data, [r.raw_scores.data for r in recs]),
                              (rec.indices, [r.indices for r in recs]),
                              (rec.gate_p, [r.gate_p for r in recs])):
                want = np.concatenate(want)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_split_pass_submits_one_job_and_its_convs_none(self, run, dataset, monkeypatch,
                                                           helper_jobs):
        # the deadlock guard: the model's own shares (the gaze encoder beside
        # the image path, DD beside DE) run inline inside a shared chunk, on
        # either thread, so nothing on the helper waits for the helper
        _, res = run
        model, cfg = load_model(res.final_dir)
        rows = load_manifest(dataset, num_classes=3)
        cache = _load_pixels(rows)
        want = _forward_split(model, rows, cache, 8, cfg.lb_weight)
        del helper_jobs[:]
        monkeypatch.setattr(T, "_PATCH_BYTES", 1 << 12)  # many chunks per conv
        got = _forward_split(model, rows, cache, 8, cfg.lb_weight)
        assert len(helper_jobs) == 1
        assert helper_jobs[0][0] == rows[:8]  # the helper's items are chunks of rows
        assert all(isinstance(chunk, list) for chunk in helper_jobs[0])
        assert got[0].tobytes() == want[0].tobytes()
        # the same forward on this thread, outside a share, shares its gaze
        # encoder with its image path, then its DD branch with its DE branch
        images, heatmaps, _ = _assemble(rows[:8], cache, model.dtype)
        with no_grad():
            logits, _ = model(images, heatmaps)
        assert len(helper_jobs) == 3 and callable(helper_jobs[1][0])
        assert [item[2] for item in helper_jobs[2]] in (["DD"], ["DD", "DE"])
        assert logits.data.tobytes() == want[0][:8].tobytes()

    def test_every_forward_runs_on_this_thread_or_the_helper(self, dataset, tmp_path,
                                                             monkeypatch):
        # one second thread for the whole program: the training convs and the
        # evaluation pass share the one helper, and no other thread starts
        before = threading.active_count()
        monkeypatch.setattr(T, "usable_cpus", lambda: 2)
        helper = T._helper.submit(threading.current_thread).result()
        seen = []  # (thread, live thread count) at each model forward
        real = HybridMoeNet.__call__

        def forward(self, *args):
            seen.append((threading.current_thread(), threading.active_count()))
            return real(self, *args)

        monkeypatch.setattr(HybridMoeNet, "__call__", forward)
        res = train(make_config(epochs=2), dataset, str(tmp_path))
        evaluate(res.final_dir, dataset)
        assert len(seen) > 2 * 2
        assert {thread for thread, _ in seen} <= {threading.current_thread(), helper}
        assert max(count for _, count in seen) <= before + 1

    def test_every_kernel_gradient_task_runs_on_this_thread_or_the_helper(
            self, dataset, tmp_path, monkeypatch):
        # the deferred kernel gradients use the one helper too, and no other thread starts
        before = threading.active_count()
        monkeypatch.setattr(T, "usable_cpus", lambda: 2)
        helper = T._helper.submit(threading.current_thread).result()
        seen = []  # (thread, live thread count) at each kernel-gradient task
        real = T.conv2d

        def conv2d(*args, **kwargs):
            out = real(*args, **kwargs)
            rule = out._backward
            if rule is None:  # the evaluation pass records no graph
                return out

            def back(g):
                input_grad, kernel_grad, *rest = rule(g)

                def task():
                    seen.append((threading.current_thread(), threading.active_count()))
                    return kernel_grad()

                return [input_grad, task, *rest]

            out._backward = back
            return out

        monkeypatch.setattr(T, "conv2d", conv2d)
        train(make_config(epochs=2), dataset, str(tmp_path))
        assert len(seen) > 2 * 2
        assert helper in {thread for thread, _ in seen}
        assert {thread for thread, _ in seen} <= {threading.current_thread(), helper}
        assert max(count for _, count in seen) <= before + 1

    def test_split_pass_runs_without_sched_getaffinity(self, run, dataset, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity
        _, res = run
        model, cfg = load_model(res.final_dir)
        rows = load_manifest(dataset, num_classes=3)
        cache = _load_pixels(rows)
        want = _forward_split(model, rows, cache, 8, cfg.lb_weight)
        monkeypatch.delattr(os, "sched_getaffinity")
        T.usable_cpus.cache_clear()  # count again, through the fallback
        try:
            got = _forward_split(model, rows, cache, 8, cfg.lb_weight)
            assert T.usable_cpus() == (os.cpu_count() or 1)
        finally:
            T.usable_cpus.cache_clear()
        assert got[0].tobytes() == want[0].tobytes()  # logits
        assert got[2:4] == want[2:4]  # cross-entropy and balance term
        assert len(got[4]) == len(want[4]) > 0
        for g, w in zip(got[4], want[4]):
            assert (g.block_id, g.branch) == (w.block_id, w.branch)
            for a, b in ((g.raw_scores.data, w.raw_scores.data), (g.indices, w.indices),
                         (g.gate_p, w.gate_p)):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("augmented", [False, True])
    def test_assembled_pixels_equal_load_image(self, tmp_path, dtype, augmented):
        # 8-bit and 16-bit files, with full-range and odd maxvals, in one batch
        rng = np.random.default_rng(4)
        rows = []
        for i, (img_max, heat_max) in enumerate([(255, 65535), (65535, 255),
                                                 (200, 1000), (4095, 7)]):
            paths = [os.path.join(tmp_path, f"{kind}{i}.pgm") for kind in "ih"]
            for path, maxval in zip(paths, (img_max, heat_max)):
                write_pgm(path, rng.uniform(size=(5, 7)), maxval=maxval)
            rows.append(SampleManifest(f"s{i}", *paths, i % 3, f"p{i}"))
        cfg = AugmentConfig(noise_sigma=0.02) if augmented else None
        images, heatmaps, labels = _assemble(rows, _load_pixels(rows), dtype, cfg,
                                             np.random.default_rng(9))

        # reference: per sample from load_image, augmented in row order
        ref_rng = np.random.default_rng(9)
        ref_images, ref_heatmaps = [], []
        for m in rows:
            image, heatmap = load_image(m.image_path), load_image(m.heatmap_path)
            if cfg is not None:
                image, heatmap = augment(image, heatmap, cfg, ref_rng)
            ref_images.append(image)
            ref_heatmaps.append(heatmap)
        for got, ref in ((images, ref_images), (heatmaps, ref_heatmaps)):
            want = np.stack(ref).astype(dtype)
            assert got.data.dtype == dtype and got.shape == want.shape == (4, 1, 5, 7)
            assert got.data.tobytes() == want.tobytes()
        assert labels.tolist() == [0, 1, 2, 0]


class TestRouteDump:
    def test_routing_csv_covers_every_sample_per_branch(self, run, dataset, tmp_path):
        _, res = run
        out = os.path.join(tmp_path, "routes.csv")
        assert route_dump(res.final_dir, dataset, out) == out
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        manifest_ids = [m.sample_id for m in load_manifest(dataset, num_classes=3)]
        assert len(rows) == 2 * len(manifest_ids)
        for branch in ("DD", "DE"):
            ids = [r["sample_id"] for r in rows if r["branch"] == branch]
            assert ids == manifest_ids
        for r in rows:
            assert r["block_id"] == "0"
            assert int(r["top1_index"]) in (0, 1)
            assert 0.0 <= float(r["gate_p"]) <= 1.0
            scores = [float(r["raw_score_0"]), float(r["raw_score_1"])]
            assert np.isfinite(scores).all()
            assert int(r["top1_index"]) == int(np.argmax(scores))

    def test_partial_last_chunk_matches_evaluate_report(self, dataset, tmp_path):
        # 36 samples in chunks of 10 leave a partial last chunk of 6; three
        # epochs spread the routing over several experts
        cfg = make_config(epochs=3, batch_size=10, model_overrides=dict(
            num_experts=4, top_k=2, hybrid_positions=((0, 0), (1, 0))))
        res = train(cfg, dataset, str(tmp_path / "run"))
        out = str(tmp_path / "routes.csv")
        route_dump(res.final_dir, dataset, out)
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        report = evaluate(res.final_dir, dataset).report
        n = len(report.sample_ids)
        keys = list(dict.fromkeys((int(r["block_id"]), r["branch"]) for r in rows))
        assert keys == [(0, "DD"), (0, "DE"), (1, "DD"), (1, "DE")]
        assert list(report.top1) == keys
        assert any(np.count_nonzero(f) > 1 for f in report.expert_fracs.values())
        for key in keys:
            top1 = np.array([int(r["top1_index"]) for r in rows
                             if (int(r["block_id"]), r["branch"]) == key])
            np.testing.assert_array_equal(top1, report.top1[key])
            np.testing.assert_array_equal(np.bincount(top1, minlength=4) / n,
                                          report.expert_fracs[key])
        # metrics.csv's last rows carry each branch's fractions under its own columns
        for row, rep in zip(_read_metrics(res.metrics_path)[-2:],
                            (res.final_train, res.final_test)):
            for (block_id, branch), fracs in rep.expert_fracs.items():
                cols = [f"f_b{block_id}_{branch.lower()}_e{i}" for i in range(4)]
                assert [float(row[c]) for c in cols] == fracs.tolist()

    def test_single_label_manifest_dumps_but_does_not_evaluate(self, run, dataset,
                                                               tmp_path, capsys):
        _, res = run
        one = [m for m in load_manifest(dataset, num_classes=3) if m.label == 1]
        manifest = str(tmp_path / "one_label.csv")
        write_manifest(manifest, one)
        out = str(tmp_path / "routes.csv")
        assert main(["route-dump", "--checkpoint", res.final_dir,
                     "--manifest", manifest, "--out", out]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for branch in ("DD", "DE"):
            assert [r["sample_id"] for r in rows if r["branch"] == branch] == [
                m.sample_id for m in one]
        assert main(["eval", "--checkpoint", res.final_dir,
                     "--manifest", manifest]) == 1
        assert "fewer than 2 distinct labels" in capsys.readouterr().err


class TestTrainingGuards:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_context(self, dataset, tmp_path):
        cfg = make_config(epochs=1, lr=1e200)
        with pytest.raises(NumericsError, match="non-finite loss .* at epoch 1"):
            train(cfg, dataset, str(tmp_path))

    # batch 1 is assembled by its own step; batch 3, the first of epoch 2, on
    # the helper during step 2, before epoch 1's rows are written
    @pytest.mark.parametrize("batch", [1, 3])
    def test_an_error_assembling_a_batch_ends_the_run_as_at_one_cpu(
            self, batch, dataset, tmp_path, monkeypatch, helper_jobs):
        train_module = importlib.import_module("gazemoe.train")
        cfg = make_config(epochs=2)
        calls = []

        def failing_augment(*args):  # once per sample, 12 to a batch
            calls.append(None)
            if len(calls) == (batch - 1) * cfg.batch_size + 5:
                raise ValueError(f"augment call {len(calls)} failed")
            return augment(*args)

        monkeypatch.setattr(train_module, "augment", failing_augment)
        ends = []
        for cpus in (1, 2):
            calls.clear()
            out = os.path.join(tmp_path, f"cpus{cpus}")
            with monkeypatch.context() as m:
                m.setattr(T, "usable_cpus", lambda: cpus)
                with pytest.raises(ValueError) as raised:
                    train(cfg, dataset, out)
            ends.append((str(raised.value), Path(out, "metrics.csv").read_bytes()))
        assert ends[0] == ends[1]
        epochs = [r["epoch"] for r in _read_metrics(os.path.join(tmp_path, "cpus2", "metrics.csv"))]
        assert epochs == (["0", "0"] if batch == 1 else ["0", "0", "1", "1"])
        assert helper_jobs.count("next_batch") == batch - 1 and helper_jobs.all_done()

    def test_a_divergence_waits_for_the_batch_in_flight(self, dataset, tmp_path, monkeypatch,
                                                        helper_jobs):
        # step 2 diverges while the helper is still assembling batch 3
        train_module = importlib.import_module("gazemoe.train")
        cfg = make_config(epochs=2)
        started = threading.Event()
        finished = []
        draws = []
        steps = []

        def slow_augment(*args):
            draws.append(None)
            if len(draws) == 2 * cfg.batch_size + 1:  # batch 3's first sample
                started.set()
                time.sleep(0.2)
                finished.append(None)
            return augment(*args)

        def diverging_objective(logits, *rest):
            total, cls, lb = objective(logits, *rest)
            if logits.requires_grad:  # a training step, not the evaluation pass
                steps.append(None)
                if len(steps) == 2:
                    assert started.wait(10)
                    total = T.scale(total, float("nan"))
            return total, cls, lb

        monkeypatch.setattr(train_module, "augment", slow_augment)
        monkeypatch.setattr(train_module, "objective", diverging_objective)
        with pytest.raises(NumericsError, match="at epoch 1, step 1"):
            train(cfg, dataset, str(tmp_path))
        assert finished and helper_jobs.all_done()
        assert helper_jobs.count("next_batch") == 2

    def test_fold_out_of_range_rejected(self, dataset, tmp_path):
        with pytest.raises(ConfigError, match="fold"):
            train(make_config(fold=3), dataset, str(tmp_path))


class TestTrainingInvariants:
    def test_moving_average_loss_descends_in_first_lr_stage(self, dataset, tmp_path):
        cfg = make_config(epochs=8, model_overrides=dict(num_experts=4))
        res = train(cfg, dataset, str(tmp_path))
        losses = [float(r["loss_total"]) for r in _read_metrics(res.metrics_path)
                  if r["split"] == "train"]
        windows = [np.mean(losses[i : i + 5]) for i in range(len(losses) - 4)]
        for earlier, later in zip(windows, windows[1:]):
            assert later <= earlier + 1e-9

    def test_balance_term_raises_usage_entropy(self, dataset, tmp_path):
        entropies = {}
        for lb in (0.0, 0.01):
            cfg = make_config(epochs=5, lb_weight=lb,
                              model_overrides=dict(num_experts=4))
            res = train(cfg, dataset, os.path.join(tmp_path, f"lb{lb}"))
            entropies[lb] = {
                key: usage_entropy(fracs)
                for key, fracs in res.final_train.expert_fracs.items()
            }
        for key in entropies[0.0]:
            assert entropies[0.01][key] >= entropies[0.0][key] - 1e-9, key
        gain = sum(entropies[0.01].values()) - sum(entropies[0.0].values())
        assert gain > 0.1
