"""CLI tests: subcommand wiring, exit codes (0 success / 1 input error /
2 internal), --set overrides, and printed summaries."""

import ast
import contextlib
import dataclasses
import io
import os
import re
import subprocess
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazemoe import cli, experiments
from gazemoe import train as train_module
from gazemoe.cli import main
from gazemoe.config import (AugmentConfig, ModelConfig, SyntheticSpec, TrainConfig,
                            config_from_text, load_config)
from gazemoe.data import SampleManifest, load_manifest, write_manifest, write_pgm
from gazemoe.errors import ConfigError, ValidationError
from gazemoe.serialize import load_checkpoint, save_checkpoint
from gazemoe.tensor import Tensor
from gazemoe.train import evaluate, run_gradcheck

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

SPEC_TEXT = """\
num_subjects=6
samples_per_subject=6
image_size=24
num_classes=3
task=blob
blob_radii=2.5,4.0,6.0
blob_intensities=0.6,0.8,1.0
heatmap_sigma=3.0
seed=0
"""

TRAIN_TEXT = """\
lr=0.003
step_size=50
gamma=0.5
epochs=1
batch_size=12
lambda=0.01
seed=1
fold=0
folds=3
model.stem_channels=4
model.stage_channels=4,8
model.blocks_per_stage=1,1
model.stage_strides=1,2
model.hybrid_positions=1:0
n=2
k=1
model.gaze_encoder_channels=4,8
model.gaze_feature_width=8
model.num_classes=3
model.seed=3
augment.noise_sigma=0.02
"""


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def assert_one_line_error(err, *needles):
    """Bad input gets a single ``error:`` line and no traceback."""
    assert err.startswith("error: "), err
    assert err.count("\n") == 1, err
    for needle in needles:
        assert needle in err


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("cli"))
    spec_path = os.path.join(root, "spec.txt")
    config_path = os.path.join(root, "train.txt")
    with open(spec_path, "w") as fh:
        fh.write(SPEC_TEXT)
    with open(config_path, "w") as fh:
        fh.write(TRAIN_TEXT)
    data_dir = os.path.join(root, "data")
    assert run_cli(["synth-gen", "--spec", spec_path, "--out", data_dir]) == 0
    manifest = os.path.join(data_dir, "manifest.csv")
    run_dir = os.path.join(root, "run")
    assert run_cli(["train", "--config", config_path, "--manifest", manifest,
                    "--out", run_dir]) == 0
    return {
        "root": root,
        "spec": spec_path,
        "config": config_path,
        "manifest": manifest,
        "run": run_dir,
        "checkpoint": os.path.join(run_dir, "checkpoint_final"),
    }


class TestUsage:
    def test_no_args_prints_usage_and_exits_1(self, capsys):
        assert main([]) == 1
        assert "usage:" in capsys.readouterr().err

    def test_unknown_command_exits_1(self):
        assert run_cli(["frobnicate"]) == 1

    def test_missing_required_argument_exits_1(self):
        assert run_cli(["train", "--config"]) == 1

    def test_subprocess_entry_point(self):
        # the child imports the same gazemoe tree as this test process
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "gazemoe"],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 1
        assert "usage:" in proc.stderr

    def test_blas_gets_one_thread_unless_the_user_set_one(self):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        code = f"import os, gazemoe.cli; print(*(os.environ[n] for n in {names}))"
        env = {k: v for k, v in os.environ.items() if k not in names}
        for user, want in (({}, "1 1 1"), ({"OMP_NUM_THREADS": "3"}, "1 3 1")):
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  env={**env, **user, "PYTHONPATH": path}, timeout=60)
            assert proc.stdout.strip() == want, proc.stderr


class TestSynthGen:
    def test_prints_manifest_path(self, workspace, capsys):
        out = os.path.join(workspace["root"], "data2")
        assert run_cli(["synth-gen", "--spec", workspace["spec"],
                        "--out", out]) == 0
        printed = capsys.readouterr().out.strip()
        assert printed == os.path.join(out, "manifest.csv")
        assert os.path.isfile(printed)

    def test_set_overrides_spec(self, workspace):
        out = os.path.join(workspace["root"], "data3")
        assert run_cli(["synth-gen", "--spec", workspace["spec"], "--out", out,
                        "--set", "num_subjects=3",
                        "--set", "samples_per_subject=2"]) == 0
        with open(os.path.join(out, "manifest.csv")) as fh:
            assert len(fh.read().strip().split("\n")) == 1 + 6

    def test_invalid_override_value_exits_1(self, workspace, capsys):
        out = os.path.join(workspace["root"], "data4")
        assert run_cli(["synth-gen", "--spec", workspace["spec"], "--out", out,
                        "--set", "task=volleyball"]) == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_set_exits_1(self, workspace, capsys):
        out = os.path.join(workspace["root"], "data5")
        assert run_cli(["synth-gen", "--spec", workspace["spec"], "--out", out,
                        "--set", "num_subjects"]) == 1
        assert "KEY=VALUE" in capsys.readouterr().err

    # ids name the override and field only, so they stay short
    @pytest.mark.parametrize("override, field, reason", [
        pytest.param(override, field, reason, id=f"{override}-{field}")
        for override, field, reason in [
            ("heatmap_sigma=nan", "heatmap_sigma", "not a finite number"),
            ("image_noise=nan", "image_noise", "not a finite number"),
            ("blob_intensities=nan,0.8,1.0", "blob_intensities", "not a finite number"),
            ("blob_radii=2.5,inf,6.0", "blob_radii", "not a finite number"),
            ("seed=-1", "seed", ">= 0"),
        ]
    ])
    def test_non_finite_value_exits_1(self, workspace, tmp_path, capsys,
                                      override, field, reason):
        out = os.path.join(tmp_path, "data")
        assert run_cli(["synth-gen", "--spec", workspace["spec"], "--out", out,
                        "--set", override]) == 1
        assert_one_line_error(capsys.readouterr().err, field, reason)
        assert not os.path.exists(out)

    def test_blob_too_big_for_image_exits_1(self, workspace, capsys):
        out = os.path.join(workspace["root"], "data6")
        assert run_cli(["synth-gen", "--spec", workspace["spec"], "--out", out,
                        "--set", "image_size=16",
                        "--set", "blob_radii=4.0,7.0,10.0"]) == 1
        assert_one_line_error(capsys.readouterr().err, "blob radius 7.0")
        assert not os.path.exists(out)


class TestLoadConfig:
    def test_overrides_apply_in_order_and_validate(self, workspace):
        cfg = load_config(workspace["config"], TrainConfig,
                          ["epochs=4", "lr=0.5", "epochs=7"])
        assert (cfg.epochs, cfg.lr, cfg.model.num_experts) == (7, 0.5, 2)
        with pytest.raises(ConfigError, match="batch_size"):
            load_config(workspace["config"], TrainConfig, ["batch_size=0"])

    def test_override_without_equals_rejected(self, workspace):
        with pytest.raises(ConfigError, match="KEY=VALUE"):
            load_config(workspace["config"], TrainConfig, ["epochs"])


class TestReadmeQuickstart:
    """The README quickstart is the CLI contract; its config files must load."""

    @staticmethod
    def heredocs():
        with open(os.path.join(REPO, "README.md")) as fh:
            text = fh.read()
        return dict(re.findall(r"cat > (\S+) <<'EOF'\n(.*?)^EOF$", text,
                               re.DOTALL | re.MULTILINE))

    def test_spec_and_train_configs_load(self, tmp_path):
        docs = self.heredocs()
        for name, cls in (("spec.cfg", SyntheticSpec), ("train.cfg", TrainConfig)):
            path = os.path.join(tmp_path, name)
            with open(path, "w") as fh:
                fh.write(docs[name])
            assert isinstance(load_config(path, cls), cls)

    def test_benchmark_recipe_copies_the_readme(self, tmp_path):
        # read the constant from source so nothing is written under perfbench/
        with open(os.path.join(REPO, "perfbench", "workloads.py")) as fh:
            tree = ast.parse(fh.read())
        recipe = next(ast.literal_eval(node.value) for node in tree.body
                      if isinstance(node, ast.Assign)
                      and node.targets[0].id == "README_TRAIN_CFG")
        path = os.path.join(tmp_path, "train.cfg")
        with open(path, "w") as fh:
            fh.write(self.heredocs()["train.cfg"])
        assert config_from_text(recipe + "epochs=30\n") == load_config(path)


class TestTrain:
    def test_writes_outputs_and_prints_summary(self, workspace, capsys):
        # The module fixture already trained; re-run into a fresh dir to
        # capture stdout.
        out = os.path.join(workspace["root"], "run2")
        assert run_cli(["train", "--config", workspace["config"],
                        "--manifest", workspace["manifest"], "--out", out,
                        "--set", "epochs=0"]) == 0
        printed = capsys.readouterr().out
        assert "metrics:" in printed
        assert "checkpoint_best:" in printed
        assert "final test: acc" in printed
        assert os.path.isfile(os.path.join(out, "metrics.csv"))
        assert os.path.isdir(os.path.join(out, "checkpoint_final"))

    def test_missing_config_exits_1(self, workspace, capsys):
        assert run_cli(["train", "--config", "/nonexistent.txt",
                        "--manifest", workspace["manifest"],
                        "--out", os.path.join(workspace["root"], "x")]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_config_key_exits_1(self, workspace, tmp_path, capsys):
        bad = os.path.join(tmp_path, "bad.txt")
        with open(bad, "w") as fh:
            fh.write(TRAIN_TEXT + "warp_factor=9\n")
        assert run_cli(["train", "--config", bad,
                        "--manifest", workspace["manifest"],
                        "--out", os.path.join(tmp_path, "x")]) == 1
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("override, field", [
        ("model.stage_strides=0,2", "stage_strides"),
        ("model.stage_channels=0,8", "stage_channels"),
        ("model.stem_channels=0", "stem_channels"),
        ("model.gaze_feature_width=0", "gaze_feature_width"),
        ("model.gaze_encoder_channels=0", "gaze_encoder_channels"),
        ("model.in_channels=0", "in_channels"),
        ("model.in_channels=2", "in_channels"),
        ("model.blocks_per_stage=-1,1", "blocks_per_stage"),
        ("model.blocks_per_stage=0,1", "blocks_per_stage"),
    ])
    def test_nonpositive_width_or_stride_exits_1(self, workspace, tmp_path, capsys,
                                                 override, field):
        assert run_cli(["train", "--config", workspace["config"],
                        "--manifest", workspace["manifest"],
                        "--out", os.path.join(tmp_path, "x"),
                        "--set", override]) == 1
        assert_one_line_error(capsys.readouterr().err, field, ">= 1")

    @pytest.mark.parametrize("override, field, reason", [
        ("lr=nan", "lr", "not a finite number"),
        ("lr=inf", "lr", "not a finite number"),
        ("lambda=nan", "lb_weight", "not a finite number"),
        ("gamma=-inf", "gamma", "not a finite number"),
        ("augment.noise_sigma=nan", "noise_sigma", "not a finite number"),
        ("augment.brightness_contrast_range=0.8,nan", "brightness_contrast_range",
         "not a finite number"),
        ("augment.brightness_contrast_range=1", "brightness_contrast_range",
         "exactly 2 entries"),
        ("augment.brightness_contrast_range=0.8,1.0,1.2",
         "brightness_contrast_range", "exactly 2 entries"),
        ("seed=-1", "seed", ">= 0"),
        ("model.seed=-1", "seed", ">= 0"),
    ])
    def test_non_finite_or_short_value_exits_1(self, workspace, tmp_path, capsys,
                                               override, field, reason):
        assert run_cli(["train", "--config", workspace["config"],
                        "--manifest", workspace["manifest"],
                        "--out", os.path.join(tmp_path, "x"),
                        "--set", override]) == 1
        assert_one_line_error(capsys.readouterr().err, field, reason)
        assert not os.path.exists(os.path.join(tmp_path, "x"))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_training_exits_2(self, workspace, tmp_path, capsys):
        assert run_cli(["train", "--config", workspace["config"],
                        "--manifest", workspace["manifest"],
                        "--out", os.path.join(tmp_path, "x"),
                        "--set", "lr=1e200"]) == 2
        assert "internal error" in capsys.readouterr().err

    OVERRIDE_KEYS = (
        [f.name for f in dataclasses.fields(TrainConfig) if f.name not in ("model", "augment")]
        + [f"model.{f.name}" for f in dataclasses.fields(ModelConfig)]
        + [f"augment.{f.name}" for f in dataclasses.fields(AugmentConfig)]
        + ["lambda", "n", "k", "model", "warp_factor", "model.warp", "augment.enabled.on"]
    )
    OVERRIDE_VALUES = ["0", "-1", "nan", "1e309", "abc", "", "1,0", "3", "5:0", "1:0", "0.5",
                       "float32"]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(OVERRIDE_KEYS), st.sampled_from(OVERRIDE_VALUES)),
                    min_size=1, max_size=3))
    def test_any_override_exits_0_or_1_with_one_error_line(self, workspace, overrides):
        sets = [arg for key, value in overrides for arg in ("--set", f"{key}={value}")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run_cli(["train", "--config", workspace["config"],
                            "--manifest", workspace["manifest"],
                            "--out", tempfile.mkdtemp(dir=workspace["root"]), *sets])
        assert code in (0, 1), err.getvalue()
        if code == 1:
            assert_one_line_error(err.getvalue())


class TestEval:
    def test_prints_metrics(self, workspace, capsys):
        assert run_cli(["eval", "--checkpoint", workspace["checkpoint"],
                        "--manifest", workspace["manifest"], "--fold", "0"]) == 0
        printed = capsys.readouterr().out
        for key in ("samples:", "loss_cls:", "loss_lb:", "loss_total:",
                    "acc:", "auc:"):
            assert key in printed

    def test_float32_run_trains_evaluates_and_saves_float32(self, workspace,
                                                           tmp_path, capsys):
        run_dir = os.path.join(tmp_path, "f32")
        assert run_cli(["train", "--config", workspace["config"],
                        "--manifest", workspace["manifest"], "--out", run_dir,
                        "--set", "precision=float32", "--set", "epochs=1"]) == 0
        final = os.path.join(run_dir, "checkpoint_final")
        assert run_cli(["eval", "--checkpoint", final,
                        "--manifest", workspace["manifest"], "--fold", "0"]) == 0
        assert "auc:" in capsys.readouterr().out
        for ckpt in ("checkpoint_best", "checkpoint_final"):
            arrays, _ = load_checkpoint(os.path.join(run_dir, ckpt))
            assert arrays
            assert {name: a.dtype for name, a in arrays.items()
                    if a.dtype != np.float32} == {}

    def test_missing_checkpoint_exits_1(self, workspace, capsys):
        assert run_cli(["eval", "--checkpoint", "/no/such/dir",
                        "--manifest", workspace["manifest"]]) == 1
        assert "error" in capsys.readouterr().err

    def test_checkpoint_without_config_exits_1_naming_it(self, workspace,
                                                         tmp_path, capsys):
        # evaluating with the default config would score another model
        arrays, _ = load_checkpoint(workspace["checkpoint"])
        ckpt = os.path.join(tmp_path, "no_config")
        save_checkpoint(ckpt, [(k, Tensor(a)) for k, a in arrays.items()], "")
        assert run_cli(["eval", "--checkpoint", ckpt,
                        "--manifest", workspace["manifest"]]) == 1
        assert_one_line_error(capsys.readouterr().err, "no training config", ckpt)

    def test_directory_without_checkpoint_file_exits_1_naming_it(self, workspace,
                                                                  tmp_path, capsys):
        # includes the retired layout: manifest.txt, config.txt, param_NNNN.dkt
        old = os.path.join(tmp_path, "old_layout")
        os.makedirs(old)
        _, config_text = load_checkpoint(workspace["checkpoint"])
        for name, text in (("manifest.txt", "stem.w\t4x1x3x3\tparam_0000.dkt\n"),
                           ("config.txt", config_text), ("param_0000.dkt", "")):
            with open(os.path.join(old, name), "w") as fh:
                fh.write(text)
        for ckpt in (old, str(tmp_path)):
            for argv in (["eval", "--checkpoint", ckpt, "--manifest", workspace["manifest"]],
                         ["route-dump", "--checkpoint", ckpt, "--manifest",
                          workspace["manifest"], "--out", os.path.join(tmp_path, "r.csv")]):
                assert run_cli(argv) == 1, argv
                assert_one_line_error(capsys.readouterr().err,
                                      os.path.join(ckpt, "checkpoint.dkt"))
        assert not os.path.exists(os.path.join(tmp_path, "r.csv"))

    def test_old_parameter_names_exit_1_with_short_message(self, workspace,
                                                           tmp_path, capsys):
        arrays, config_text = load_checkpoint(workspace["checkpoint"])
        hybrid = sorted({int(n.split(".")[1]) for n in arrays if ".gaze_proj." in n})
        assert hybrid
        layouts = [
            # checkpoints once nested blocks in stages and router MLPs in a wrapper
            (lambda name: re.sub(r"^blocks\.(\d+)\.", r"stages.\1.blocks.0.", name)
             .replace(".router.", ".router.mlp."),
             "blocks.0.conv1.w", "stages.0.blocks.0.conv1.w"),
            # ... and kept the hybrid blocks' gaze projections in a list of their own
            (lambda name: re.sub(r"^blocks\.(\d+)\.gaze_proj\.",
                                 lambda m: f"gaze_projs.{hybrid.index(int(m[1]))}.", name),
             f"blocks.{hybrid[0]}.gaze_proj.w", "gaze_projs.0.w"),
        ]
        for case, (rename, missing, unexpected) in enumerate(layouts):
            old = os.path.join(tmp_path, f"old{case}")
            save_checkpoint(old, [(rename(n), Tensor(a)) for n, a in arrays.items()],
                            config_text)
            assert run_cli(["eval", "--checkpoint", old,
                            "--manifest", workspace["manifest"]]) == 1, case
            err = capsys.readouterr().err
            assert_one_line_error(err, f"missing (first {missing!r})",
                                  f"unexpected (first {unexpected!r})")
            assert len(err) < 200

    def test_heatmap_above_1_in_a_later_chunk_exits_1(self, workspace, tmp_path,
                                                     capsys, monkeypatch):
        # a heatmap cached as samples above its maxval scales past 1; the gaze
        # encoder refuses it inside a chunk that either thread may run, and the
        # error must reach the caller as if the chunks had run on its own thread.
        # read_pgm refuses such a file, so a reader that lets it through stands in
        rows = load_manifest(workspace["manifest"])
        hot = os.path.join(tmp_path, "hot.pgm")
        write_pgm(hot, np.zeros((24, 24)))
        real = train_module.read_pgm

        def lenient(path):
            return (np.full((24, 24), 255, np.uint8), 100) if path == hot else real(path)

        monkeypatch.setattr(train_module, "read_pgm", lenient)
        m = rows[20]  # batch_size is 12: the second chunk
        rows[20] = SampleManifest(m.sample_id, m.image_path, hot, m.label, m.subject_id)
        manifest = os.path.join(tmp_path, "manifest.csv")
        write_manifest(manifest, rows)
        threads = threading.active_count()
        with pytest.raises(ValidationError, match=r"heatmap values must lie in \[0,1\]"):
            evaluate(workspace["checkpoint"], manifest)
        assert threading.active_count() == threads
        assert run_cli(["eval", "--checkpoint", workspace["checkpoint"],
                        "--manifest", manifest]) == 1
        assert_one_line_error(capsys.readouterr().err, "heatmap values", "2.55")
        assert threading.active_count() == threads

    def test_sample_above_maxval_exits_1_naming_the_file(self, workspace, tmp_path, capsys):
        rows = load_manifest(workspace["manifest"])
        hot = os.path.join(tmp_path, "hot.pgm")
        with open(hot, "wb") as fh:
            fh.write(b"P5\n24 24\n100\n" + bytes([255]) * 24 * 24)
        m = rows[5]
        rows[5] = SampleManifest(m.sample_id, hot, m.heatmap_path, m.label, m.subject_id)
        manifest = os.path.join(tmp_path, "manifest.csv")
        write_manifest(manifest, rows)
        assert run_cli(["eval", "--checkpoint", workspace["checkpoint"],
                        "--manifest", manifest]) == 1
        assert_one_line_error(capsys.readouterr().err, hot, "sample 255 exceeds maxval 100")

    def test_manifest_row_naming_a_directory_exits_1_naming_it(self, workspace, tmp_path,
                                                               capsys):
        rows = load_manifest(workspace["manifest"])
        folder = os.path.join(tmp_path, "not_an_image.pgm")
        os.makedirs(folder)
        m = rows[3]
        rows[3] = SampleManifest(m.sample_id, folder, m.heatmap_path, m.label, m.subject_id)
        manifest = os.path.join(tmp_path, "manifest.csv")
        write_manifest(manifest, rows)
        assert run_cli(["eval", "--checkpoint", workspace["checkpoint"],
                        "--manifest", manifest]) == 1
        assert_one_line_error(capsys.readouterr().err, folder)

    @pytest.mark.parametrize("group, needle", [("two", "group 'two' is not an integer"),
                                               ("1", "duplicate sample_id")])
    def test_bad_groups_line_exits_1_naming_it(self, workspace, tmp_path, capsys,
                                                group, needle):
        # groups.csv beside the manifest adds routing purity to the report
        rows = load_manifest(workspace["manifest"])
        manifest = os.path.join(tmp_path, "manifest.csv")
        write_manifest(manifest, rows)
        groups = os.path.join(tmp_path, "groups.csv")
        with open(groups, "w") as fh:
            fh.write("sample_id,group\n")
            fh.writelines(f"{m.sample_id},0\n" for m in rows)
            fh.write(f"{rows[1].sample_id},{group}\n")
        assert run_cli(["eval", "--checkpoint", workspace["checkpoint"],
                        "--manifest", manifest]) == 1
        assert_one_line_error(capsys.readouterr().err, f"{groups}:{len(rows) + 2}:", needle)

    def test_purity_lines_on_patterns_data(self, workspace, capsys):
        root = workspace["root"]
        data = os.path.join(root, "patterns")
        assert run_cli(["synth-gen", "--spec", workspace["spec"], "--out", data,
                        "--set", "task=patterns", "--set", "num_classes=4",
                        "--set", "num_subjects=4",
                        "--set", "samples_per_subject=4"]) == 0
        run_dir = os.path.join(root, "patterns_run")
        assert run_cli(["train", "--config", workspace["config"],
                        "--manifest", os.path.join(data, "manifest.csv"),
                        "--out", run_dir,
                        "--set", "epochs=0", "--set", "folds=2",
                        "--set", "model.num_classes=4", "--set", "n=4"]) == 0
        capsys.readouterr()
        assert run_cli(["eval",
                        "--checkpoint", os.path.join(run_dir, "checkpoint_final"),
                        "--manifest", os.path.join(data, "manifest.csv")]) == 0
        printed = capsys.readouterr().out
        assert "purity_b0_dd:" in printed
        assert "purity_b0_de:" in printed


class TestMixedPixelShapes:
    def test_every_reader_exits_1_naming_the_odd_file(self, workspace, tmp_path,
                                                      capsys):
        rows = load_manifest(workspace["manifest"])
        odd = os.path.join(tmp_path, "odd.pgm")
        write_pgm(odd, np.zeros((20, 20)))
        m = rows[3]
        rows[3] = SampleManifest(m.sample_id, odd, m.heatmap_path, m.label,
                                 m.subject_id)
        manifest = os.path.join(tmp_path, "manifest.csv")
        write_manifest(manifest, rows)
        commands = [
            ["train", "--config", workspace["config"], "--manifest", manifest,
             "--out", os.path.join(tmp_path, "run")],
            ["eval", "--checkpoint", workspace["checkpoint"], "--manifest", manifest],
            ["route-dump", "--checkpoint", workspace["checkpoint"],
             "--manifest", manifest, "--out", os.path.join(tmp_path, "r.csv")],
        ]
        for argv in commands:
            assert run_cli(argv) == 1, argv[0]
            assert_one_line_error(capsys.readouterr().err, odd, "20x20",
                                  rows[0].image_path, "24x24")


class TestGradcheck:
    def test_pass_prints_and_exits_0(self, workspace, capsys):
        assert run_cli(["gradcheck", "--config", workspace["config"],
                        "--coords", "2"]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("PASS")
        assert "max rel err" in printed

    def test_fail_exits_2_showing_one_sided_differences(self, workspace, capsys):
        assert run_cli(["gradcheck", "--config", workspace["config"],
                        "--coords", "2", "--tol", "1e-15"]) == 2
        printed = capsys.readouterr().out
        assert printed.startswith("FAIL: max rel err")
        assert re.search(r"one-sided diffs there \S+ \(forward\), \S+ \(backward\)",
                         printed)

    # no coordinates checks nothing; tol inf passes anything, tol 0, < 0 or
    # nan can never pass
    @pytest.mark.parametrize("flag, value", [
        ("--coords", "0"), ("--coords", "-1"),
        ("--tol", "0"), ("--tol", "-1"), ("--tol", "nan"), ("--tol", "inf"),
    ])
    def test_bad_coords_or_tol_exits_1(self, workspace, capsys, flag, value):
        assert run_cli(["gradcheck", "--config", workspace["config"],
                        flag, value]) == 1
        assert_one_line_error(capsys.readouterr().err, flag, value)


class TestRouteDump:
    def test_writes_csv(self, workspace):
        out = os.path.join(workspace["root"], "routes.csv")
        assert run_cli(["route-dump", "--checkpoint", workspace["checkpoint"],
                        "--manifest", workspace["manifest"], "--out", out]) == 0
        with open(out) as fh:
            header = fh.readline().strip().split(",")
        assert header[:3] == ["sample_id", "block_id", "branch"]

    def test_baseline_checkpoint_exits_1(self, workspace, tmp_path, capsys):
        run_dir = os.path.join(tmp_path, "baseline")
        assert run_cli(["train", "--config", workspace["config"],
                        "--manifest", workspace["manifest"], "--out", run_dir,
                        "--set", "epochs=0", "--set", "model.hybrid_positions="]) == 0
        capsys.readouterr()
        out = os.path.join(tmp_path, "routes.csv")
        assert run_cli(["route-dump",
                        "--checkpoint", os.path.join(run_dir, "checkpoint_final"),
                        "--manifest", workspace["manifest"], "--out", out]) == 1
        assert_one_line_error(capsys.readouterr().err,
                              "baseline model has no routing to dump")
        assert not os.path.exists(out)

    def test_header_only_manifest_exits_1(self, workspace, tmp_path, capsys):
        manifest = os.path.join(tmp_path, "empty.csv")
        write_manifest(manifest, [])
        out = os.path.join(tmp_path, "routes.csv")
        assert run_cli(["route-dump", "--checkpoint", workspace["checkpoint"],
                        "--manifest", manifest, "--out", out]) == 1
        assert_one_line_error(capsys.readouterr().err, "empty split")
        assert not os.path.exists(out)


class TestOutputPaths:
    @pytest.mark.parametrize("command", ["route-dump", "train", "synth-gen", "experiment"])
    def test_unwritable_output_path_exits_1(self, workspace, tmp_path, capsys, command):
        a_file = os.path.join(tmp_path, "a_file")
        open(a_file, "w").close()
        argv = {
            "route-dump": ["route-dump", "--checkpoint", workspace["checkpoint"],
                           "--manifest", workspace["manifest"],
                           "--out", os.path.join(tmp_path, "nodir", "r.csv")],
            "train": ["train", "--config", workspace["config"],
                      "--manifest", workspace["manifest"], "--out", a_file],
            "synth-gen": ["synth-gen", "--spec", workspace["spec"],
                          "--out", os.path.join(a_file, "x")],
            "experiment": ["experiment", "blob", "--seeds", "0-0", "--out", a_file],
        }[command]
        assert run_cli(argv) == 1
        assert_one_line_error(capsys.readouterr().err, tmp_path.name)


class TestExperiment:
    def test_gradcheck_sweep_prints_seed_rows_and_summary(self, tmp_path, capsys):
        assert run_cli(["experiment", "gradcheck", "--seeds", "3-4",
                        "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == \
            ["seed", "3", "4", "median", "min", "max"]
        assert lines[0].split()[1:] == ["max_rel_err_k1", "max_rel_err_k2"]
        expected = [run_gradcheck(experiments.gradcheck_config(3, k)).max_rel_err
                    for k in (1, 2)]
        row3 = [float(v) for v in lines[1].split()[1:]]
        assert row3 == pytest.approx(expected, rel=1e-5)

    def test_dataset_made_once_and_each_seed_gets_its_directory(
            self, monkeypatch, tmp_path, capsys):
        spec = SyntheticSpec(num_subjects=2, samples_per_subject=3, image_size=16,
                             num_classes=3, blob_radii=(2.0, 3.0, 4.0))
        calls = []

        def run(seed, manifest, out_dir):
            calls.append((seed, manifest, out_dir))
            return {"value": 10.0 * seed}

        monkeypatch.setitem(cli.EXPERIMENTS, "tiny", (spec, run))
        assert run_cli(["experiment", "tiny", "--seeds", "1-3",
                        "--out", str(tmp_path)]) == 0
        manifest = os.path.join(tmp_path, "tiny", "data", "manifest.csv")
        assert len(load_manifest(manifest)) == 6
        assert calls == [(s, manifest, os.path.join(tmp_path, "tiny", f"seed{s}"))
                         for s in (1, 2, 3)]
        lines = capsys.readouterr().out.splitlines()
        assert [line.split() for line in lines[-3:]] == \
            [["median", "20"], ["min", "10"], ["max", "30"]]

    @pytest.mark.parametrize("argv, needle", [
        (["gradcheck", "--seeds", "5-3"], "'5-3'"),
        (["gradcheck", "--seeds", "x"], "'x'"),
        (["frobnicate", "--seeds", "0-1"], "unknown experiment 'frobnicate'"),
    ], ids=["reversed_range", "not_a_range", "unknown_name"])
    def test_bad_name_or_seed_range_exits_1(self, tmp_path, capsys, argv, needle):
        assert run_cli(["experiment", *argv, "--out", str(tmp_path)]) == 1
        assert_one_line_error(capsys.readouterr().err, needle)
        assert os.listdir(tmp_path) == []
