"""Dataset plumbing tests: manifest parsing, PGM round-trips, the
augmentation formula, subject-wise folds, class-uniform sampling, and
the synthetic generator's layout/determinism/task contracts."""

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gazemoe.config import AugmentConfig, SyntheticSpec
from gazemoe.data import (
    MANIFEST_HEADER,
    SampleManifest,
    augment,
    generate_synthetic,
    load_groups,
    load_manifest,
    read_pgm,
    subject_kfold,
    uniform_class_iter,
    write_manifest,
    write_pgm,
)
from gazemoe.errors import ConfigError, FormatError, ParseError
from oracles import load_image


def _touch_pgm(path):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    write_pgm(path, np.zeros((2, 2)))


def _write_rows(tmp_path, rows, make_files=True):
    """Write a manifest CSV (and referenced PGM files) under tmp_path."""
    if make_files:
        for row in rows:
            _touch_pgm(os.path.join(tmp_path, row[1]))
            _touch_pgm(os.path.join(tmp_path, row[2]))
    path = os.path.join(tmp_path, "manifest.csv")
    with open(path, "w") as fh:
        fh.write(",".join(MANIFEST_HEADER) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    return path


GOOD_ROWS = [
    ("a01", "images/a01.pgm", "heatmaps/a01.pgm", 0, "subjA"),
    ("a02", "images/a02.pgm", "heatmaps/a02.pgm", 2, "subjA"),
    ("b01", "images/b01.pgm", "heatmaps/b01.pgm", 1, "subjB"),
]


class TestManifest:
    def test_round_trip_fields(self, tmp_path):
        path = _write_rows(str(tmp_path), GOOD_ROWS)
        rows = load_manifest(path, num_classes=3)
        assert [r.sample_id for r in rows] == ["a01", "a02", "b01"]
        assert [r.label for r in rows] == [0, 2, 1]
        assert [r.subject_id for r in rows] == ["subjA", "subjA", "subjB"]
        for r in rows:
            assert os.path.isfile(r.image_path)
            assert os.path.isfile(r.heatmap_path)

    def test_paths_resolve_against_manifest_dir(self, tmp_path, monkeypatch):
        path = _write_rows(str(tmp_path), GOOD_ROWS)
        monkeypatch.chdir("/")
        rows = load_manifest(path, num_classes=3)
        assert all(os.path.isabs(r.image_path) for r in rows)

    def test_header_only_gives_empty_list(self, tmp_path):
        path = _write_rows(str(tmp_path), [])
        assert load_manifest(path) == []

    def test_bad_header_is_parse_error_at_line_1(self, tmp_path):
        path = os.path.join(tmp_path, "manifest.csv")
        with open(path, "w") as fh:
            fh.write("id,img,heat,label,subject\n")
        with pytest.raises(ParseError, match=":1:"):
            load_manifest(path)

    def test_empty_file_is_parse_error(self, tmp_path):
        path = os.path.join(tmp_path, "manifest.csv")
        open(path, "w").close()
        with pytest.raises(ParseError, match="empty"):
            load_manifest(path)

    def test_missing_file_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError, match="not found"):
            load_manifest(os.path.join(tmp_path, "nope.csv"))

    def test_label_out_of_range_names_line(self, tmp_path):
        rows = list(GOOD_ROWS)
        rows[1] = ("a02", "images/a02.pgm", "heatmaps/a02.pgm", 7, "subjA")
        path = _write_rows(str(tmp_path), rows)
        with pytest.raises(ParseError, match=r":3: label 7 outside \[0, 3\)"):
            load_manifest(path, num_classes=3)

    def test_negative_label_rejected_without_num_classes(self, tmp_path):
        rows = [("a01", "images/a01.pgm", "heatmaps/a01.pgm", -1, "subjA")]
        path = _write_rows(str(tmp_path), rows)
        with pytest.raises(ParseError, match=":2:"):
            load_manifest(path)

    def test_non_integer_label_names_line(self, tmp_path):
        rows = [("a01", "images/a01.pgm", "heatmaps/a01.pgm", "two", "subjA")]
        path = _write_rows(str(tmp_path), rows)
        with pytest.raises(ParseError, match=":2:.*not an integer"):
            load_manifest(path)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = os.path.join(tmp_path, "manifest.csv")
        with open(path, "w") as fh:
            fh.write(",".join(MANIFEST_HEADER) + "\n")
            fh.write("a01,images/a01.pgm,0,subjA\n")
        with pytest.raises(ParseError, match=":2: expected 5 fields"):
            load_manifest(path)

    def test_duplicate_sample_id_rejected(self, tmp_path):
        rows = [GOOD_ROWS[0], GOOD_ROWS[0]]
        path = _write_rows(str(tmp_path), rows)
        with pytest.raises(ParseError, match=":3: duplicate sample_id 'a01'"):
            load_manifest(path)

    def test_referenced_file_must_exist(self, tmp_path):
        path = _write_rows(str(tmp_path), GOOD_ROWS, make_files=False)
        with pytest.raises(ParseError, match=":2: file not found"):
            load_manifest(path)

    def test_write_manifest_round_trips(self, tmp_path):
        src = _write_rows(str(tmp_path), GOOD_ROWS)
        rows = load_manifest(src, num_classes=3)
        out = os.path.join(tmp_path, "copy.csv")
        write_manifest(out, rows)
        again = load_manifest(out, num_classes=3)
        assert again == rows


class TestPgm:
    def test_exact_bytes_8bit(self, tmp_path):
        path = os.path.join(tmp_path, "t.pgm")
        write_pgm(path, np.array([[0.0, 1.0, 0.5]]), maxval=255)
        blob = Path(path).read_bytes()
        # round(0.5 * 255) = round(127.5) -> 128 under round-half-to-even
        assert blob == b"P5\n3 1\n255\n" + bytes([0, 255, 128])

    def test_exact_bytes_16bit_big_endian(self, tmp_path):
        path = os.path.join(tmp_path, "t.pgm")
        write_pgm(path, np.array([[0.0, 1.0]]), maxval=65535)
        blob = Path(path).read_bytes()
        assert blob == b"P5\n2 1\n65535\n" + b"\x00\x00\xff\xff"

    def test_read_back_8bit(self, tmp_path):
        path = os.path.join(tmp_path, "t.pgm")
        values = np.arange(12).reshape(3, 4) / 255.0
        write_pgm(path, values, maxval=255)
        data, maxval = read_pgm(path)
        assert maxval == 255
        np.testing.assert_array_equal(data, np.arange(12).reshape(3, 4))

    @given(raw=hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, max_side=16)))
    def test_8bit_round_trip_is_bit_exact(self, tmp_path_factory, raw):
        path = os.path.join(str(tmp_path_factory.mktemp("pgm")), "t.pgm")
        write_pgm(path, raw / 255.0, maxval=255)
        data, maxval = read_pgm(path)
        assert maxval == 255
        np.testing.assert_array_equal(data, raw)

    @given(raw=hnp.arrays(np.uint16, hnp.array_shapes(min_dims=2, max_dims=2, max_side=8)))
    def test_16bit_round_trip_is_bit_exact(self, tmp_path_factory, raw):
        path = os.path.join(str(tmp_path_factory.mktemp("pgm")), "t.pgm")
        write_pgm(path, raw / 65535.0, maxval=65535)
        data, maxval = read_pgm(path)
        assert maxval == 65535
        np.testing.assert_array_equal(data, raw)

    def test_header_comment_is_skipped(self, tmp_path):
        path = os.path.join(tmp_path, "t.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n# made by hand\n2 1\n255\n" + bytes([7, 9]))
        data, maxval = read_pgm(path)
        assert maxval == 255
        np.testing.assert_array_equal(data, [[7, 9]])

    def test_bad_magic_is_format_error(self, tmp_path):
        path = os.path.join(tmp_path, "t.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P6\n2 1\n255\n" + bytes([7, 9]))
        with pytest.raises(FormatError, match="magic"):
            read_pgm(path)

    def test_truncated_payload_is_format_error(self, tmp_path):
        path = os.path.join(tmp_path, "t.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n4 4\n255\n" + bytes([1, 2, 3]))
        with pytest.raises(FormatError, match="payload"):
            read_pgm(path)

    def test_truncated_header_is_format_error(self, tmp_path):
        path = os.path.join(tmp_path, "t.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n4")
        with pytest.raises(FormatError, match="truncated"):
            read_pgm(path)

    def test_non_numeric_header_is_format_error(self, tmp_path):
        path = os.path.join(tmp_path, "t.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\nw 1\n255\n\x00")
        with pytest.raises(FormatError, match="non-numeric"):
            read_pgm(path)

    @pytest.mark.parametrize("maxval, samples, top", [
        (100, bytes([50, 200]), 200),
        (1000, (999).to_bytes(2, "big") + (5000).to_bytes(2, "big"), 5000),
    ])
    def test_sample_above_maxval_is_format_error(self, tmp_path, maxval, samples, top):
        path = os.path.join(tmp_path, "t.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n2 1\n%d\n" % maxval + samples)
        with pytest.raises(FormatError, match=f"sample {top} exceeds maxval {maxval}") as info:
            read_pgm(path)
        assert path in str(info.value)

    @pytest.mark.parametrize("maxval, samples", [
        (100, bytes([100, 0])),
        (1000, (1000).to_bytes(2, "big") + (0).to_bytes(2, "big")),
    ])
    def test_sample_at_maxval_reads(self, tmp_path, maxval, samples):
        path = os.path.join(tmp_path, "t.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n2 1\n%d\n" % maxval + samples)
        data, got = read_pgm(path)
        assert got == maxval
        np.testing.assert_array_equal(data, [[maxval, 0]])

    def test_payload_with_newline_and_eof_bytes_reads_whole(self, tmp_path):
        # a text-mode read would turn CR LF into LF and stop at 0x1A
        path = os.path.join(tmp_path, "t.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n4 1\n255\n" + bytes([13, 10, 26, 13]))
        data, _ = read_pgm(path)
        np.testing.assert_array_equal(data, [[13, 10, 26, 13]])

    def test_missing_file_or_directory_is_os_error_naming_it(self, tmp_path):
        # a bare os.read of a directory says only "Is a directory"
        for path in (os.path.join(tmp_path, "absent.pgm"), str(tmp_path)):
            with pytest.raises(OSError) as info:
                read_pgm(path)
            assert info.value.filename == path
            assert path in str(info.value)

    def test_load_image_scales_and_shapes(self, tmp_path):
        path = os.path.join(tmp_path, "t.pgm")
        write_pgm(path, np.array([[0.0, 1.0], [1.0, 0.0]]), maxval=255)
        img = load_image(path)
        assert img.shape == (1, 2, 2)
        assert img.dtype == np.float64
        np.testing.assert_array_equal(img[0], [[0.0, 1.0], [1.0, 0.0]])

    def test_load_image_16bit_scales_by_maxval(self, tmp_path):
        path = os.path.join(tmp_path, "t.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n1 1\n65535\n" + (32768).to_bytes(2, "big"))
        img = load_image(path)
        assert img[0, 0, 0] == 32768 / 65535


class TestAugment:
    def _pair(self, seed=3):
        rng = np.random.default_rng(seed)
        image = rng.uniform(0, 1, size=(1, 8, 8))
        heatmap = rng.uniform(0, 1, size=(1, 8, 8))
        return image, heatmap

    def test_disabled_is_bitwise_identity(self):
        image, heatmap = self._pair()
        cfg = AugmentConfig(enabled=False)
        out_img, out_heat = augment(image, heatmap, cfg, np.random.default_rng(0))
        assert out_img is image and out_heat is heatmap

    def test_degenerate_ranges_are_identity(self):
        image, heatmap = self._pair()
        cfg = AugmentConfig(brightness_contrast_range=(1.0, 1.0), noise_sigma=0.0)
        out_img, out_heat = augment(image, heatmap, cfg, np.random.default_rng(0))
        np.testing.assert_array_equal(out_img, image)
        np.testing.assert_array_equal(out_heat, heatmap)

    def test_matches_formula_exactly(self):
        image, heatmap = self._pair()
        cfg = AugmentConfig(brightness_contrast_range=(0.8, 1.2), noise_sigma=0.05)
        out_img, _ = augment(image, heatmap, cfg, np.random.default_rng(11))
        ref = np.random.default_rng(11)
        contrast = ref.uniform(0.8, 1.2)
        brightness = ref.uniform(0.8, 1.2)
        noise = ref.normal(0.0, 0.05, size=image.shape)
        expected = np.clip(
            contrast * (image - 0.5) + 0.5 + (brightness - 1.0) * 0.5 + noise, 0.0, 1.0
        )
        np.testing.assert_array_equal(out_img, expected)

    def test_heatmap_passes_through_untouched(self):
        image, heatmap = self._pair()
        cfg = AugmentConfig()
        _, out_heat = augment(image, heatmap, cfg, np.random.default_rng(5))
        assert out_heat is heatmap

    def test_same_rng_state_reproduces(self):
        image, heatmap = self._pair()
        cfg = AugmentConfig()
        a, _ = augment(image, heatmap, cfg, np.random.default_rng(42))
        b, _ = augment(image, heatmap, cfg, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    @given(st.integers(0, 2**32 - 1))
    def test_output_stays_in_unit_interval(self, seed):
        image, heatmap = self._pair()
        cfg = AugmentConfig(brightness_contrast_range=(0.2, 3.0), noise_sigma=0.5)
        out_img, _ = augment(image, heatmap, cfg, np.random.default_rng(seed))
        assert out_img.min() >= 0.0 and out_img.max() <= 1.0


def _fake_manifests(subject_sizes: dict[str, int], num_classes=3):
    rows = []
    i = 0
    for subject, count in subject_sizes.items():
        for _ in range(count):
            rows.append(SampleManifest(f"s{i:04d}", "x", "y", i % num_classes, subject))
            i += 1
    return rows


class TestSubjectKfold:
    def test_23_subjects_5_folds_sizes(self):
        rows = _fake_manifests({f"p{i:02d}": 2 for i in range(23)})
        folds = subject_kfold(rows, k=5, seed=0)
        sizes = sorted(
            len({r.subject_id for r in rows if r.sample_id in set(test)})
            for _, test in folds
        )
        assert sizes == [4, 4, 5, 5, 5]

    def test_each_sample_tests_exactly_once(self):
        rows = _fake_manifests({f"p{i}": 3 for i in range(7)})
        folds = subject_kfold(rows, k=3, seed=1)
        seen = []
        for train, test in folds:
            assert set(train).isdisjoint(test)
            assert set(train) | set(test) == {r.sample_id for r in rows}
            seen.extend(test)
        assert sorted(seen) == sorted(r.sample_id for r in rows)

    def test_no_subject_straddles_train_and_test(self):
        rows = _fake_manifests({f"p{i}": 4 for i in range(6)})
        by_id = {r.sample_id: r for r in rows}
        for train, test in subject_kfold(rows, k=3, seed=9):
            train_subjects = {by_id[s].subject_id for s in train}
            test_subjects = {by_id[s].subject_id for s in test}
            assert train_subjects.isdisjoint(test_subjects)

    def test_deterministic_given_seed(self):
        rows = _fake_manifests({f"p{i}": 2 for i in range(11)})
        assert subject_kfold(rows, 4, seed=7) == subject_kfold(rows, 4, seed=7)

    def test_k_below_two_rejected(self):
        rows = _fake_manifests({"a": 2, "b": 2})
        with pytest.raises(ConfigError, match="k >= 2"):
            subject_kfold(rows, k=1, seed=0)

    def test_fewer_subjects_than_folds_rejected(self):
        rows = _fake_manifests({"a": 2, "b": 2})
        with pytest.raises(ConfigError, match="at least 3 subjects"):
            subject_kfold(rows, k=3, seed=0)


class TestUniformClassIter:
    def test_3000_draws_near_uniform(self):
        # 100/10/1 samples in classes 0/1/2: draws must ignore the skew.
        rows = _fake_manifests({"a": 111}, num_classes=1)
        rows = (
            [SampleManifest(f"c0_{i}", "x", "y", 0, "a") for i in range(100)]
            + [SampleManifest(f"c1_{i}", "x", "y", 1, "a") for i in range(10)]
            + [SampleManifest("c2_0", "x", "y", 2, "a")]
        )
        it = uniform_class_iter(rows, batch_size=50, rng=np.random.default_rng(0))
        counts = np.zeros(3, dtype=int)
        for _ in range(60):
            for m in next(it):
                counts[m.label] += 1
        assert counts.sum() == 3000
        assert all(900 <= c <= 1100 for c in counts)

    def test_batch_size_and_membership(self):
        rows = _fake_manifests({"a": 6}, num_classes=2)
        it = uniform_class_iter(rows, batch_size=4, rng=np.random.default_rng(1))
        batch = next(it)
        assert len(batch) == 4
        assert all(m in rows for m in batch)

    def test_empty_class_rejected(self):
        rows = [SampleManifest("s0", "x", "y", 0, "a"),
                SampleManifest("s1", "x", "y", 2, "a")]
        with pytest.raises(ConfigError, match="class 1 has no samples"):
            uniform_class_iter(rows, 4, np.random.default_rng(0))

    def test_empty_manifest_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            uniform_class_iter([], 4, np.random.default_rng(0))

    def test_bad_batch_size_rejected(self):
        rows = _fake_manifests({"a": 3}, num_classes=1)
        with pytest.raises(ConfigError, match="batch_size"):
            uniform_class_iter(rows, 0, np.random.default_rng(0))

    def test_deterministic_given_rng(self):
        rows = _fake_manifests({"a": 9}, num_classes=3)
        a = uniform_class_iter(rows, 5, np.random.default_rng(3))
        b = uniform_class_iter(rows, 5, np.random.default_rng(3))
        for _ in range(4):
            assert [m.sample_id for m in next(a)] == [m.sample_id for m in next(b)]


def _tiny_spec(**overrides):
    base = dict(
        num_subjects=4,
        samples_per_subject=3,
        image_size=32,
        num_classes=3,
        task="blob",
        blob_radii=(3.0, 5.0, 7.0),
        blob_intensities=(0.6, 0.75, 0.9),
        gaze_fidelity=1.0,
        heatmap_sigma=4.0,
        image_noise=0.05,
        seed=0,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


def _argmax_yx(arr):
    return np.unravel_index(np.argmax(arr), arr.shape)


class TestGenerateSynthetic:
    def test_layout_and_manifest(self, tmp_path):
        spec = _tiny_spec()
        manifest_path = generate_synthetic(spec, str(tmp_path))
        assert manifest_path == os.path.join(str(tmp_path), "manifest.csv")
        rows = load_manifest(manifest_path, num_classes=3)
        assert len(rows) == spec.num_subjects * spec.samples_per_subject
        assert {r.subject_id for r in rows} == {f"subj{i:03d}" for i in range(4)}
        counts = np.bincount([r.label for r in rows], minlength=3)
        assert counts.max() - counts.min() <= 1
        for r in rows:
            data, maxval = read_pgm(r.image_path)
            assert data.shape == (32, 32) and maxval == 255

    def test_byte_identical_given_seed(self, tmp_path):
        spec = _tiny_spec(seed=12)
        path_a = generate_synthetic(spec, os.path.join(tmp_path, "a"))
        path_b = generate_synthetic(spec, os.path.join(tmp_path, "b"))
        assert Path(path_a).read_bytes() == Path(path_b).read_bytes()
        for rel in ("images/subj000_000.pgm", "heatmaps/subj003_002.pgm"):
            a = Path(tmp_path, "a", rel).read_bytes()
            b = Path(tmp_path, "b", rel).read_bytes()
            assert a == b

    def test_different_seed_changes_pixels(self, tmp_path):
        path_a = generate_synthetic(_tiny_spec(seed=0), os.path.join(tmp_path, "a"))
        path_b = generate_synthetic(_tiny_spec(seed=1), os.path.join(tmp_path, "b"))
        img_a, _ = read_pgm(os.path.join(tmp_path, "a", "images", "subj000_000.pgm"))
        img_b, _ = read_pgm(os.path.join(tmp_path, "b", "images", "subj000_000.pgm"))
        assert not np.array_equal(img_a, img_b)

    def test_full_fidelity_heatmap_sits_on_blob(self, tmp_path):
        manifest_path = generate_synthetic(_tiny_spec(gaze_fidelity=1.0), str(tmp_path))
        for r in load_manifest(manifest_path, num_classes=3):
            img, _ = read_pgm(r.image_path)
            heat, _ = read_pgm(r.heatmap_path)
            iy, ix = _argmax_yx(img)
            hy, hx = _argmax_yx(heat)
            assert np.hypot(hy - iy, hx - ix) <= 2.0, r.sample_id

    def test_zero_fidelity_heatmap_wanders(self, tmp_path):
        manifest_path = generate_synthetic(
            _tiny_spec(gaze_fidelity=0.0, seed=5), str(tmp_path)
        )
        distances = []
        for r in load_manifest(manifest_path, num_classes=3):
            img, _ = read_pgm(r.image_path)
            heat, _ = read_pgm(r.heatmap_path)
            iy, ix = _argmax_yx(img)
            hy, hx = _argmax_yx(heat)
            distances.append(np.hypot(hy - iy, hx - ix))
        assert np.mean(distances) > 5.0

    def test_gaze_task_peak_encodes_hidden_bit(self, tmp_path):
        spec = _tiny_spec(task="gaze", num_classes=4, samples_per_subject=4)
        manifest_path = generate_synthetic(spec, str(tmp_path))
        for r in load_manifest(manifest_path, num_classes=4):
            heat, maxval = read_pgm(r.heatmap_path)
            peak = heat.max() / maxval
            if r.label % 2 == 0:
                assert peak < 0.7, r.sample_id
            else:
                assert peak > 0.7, r.sample_id

    def test_patterns_task_writes_groups_sidecar(self, tmp_path):
        spec = _tiny_spec(task="patterns", num_classes=4, samples_per_subject=4)
        manifest_path = generate_synthetic(spec, str(tmp_path))
        groups = load_groups(os.path.join(tmp_path, "groups.csv"))
        rows = load_manifest(manifest_path, num_classes=4)
        assert set(groups) == {r.sample_id for r in rows}
        for r in rows:
            assert groups[r.sample_id] == r.label
        assert set(groups.values()) == {0, 1, 2, 3}

    def test_patterns_task_encodes_bits_in_heatmap(self, tmp_path):
        spec = _tiny_spec(task="patterns", num_classes=4, samples_per_subject=8,
                          image_size=48)
        manifest_path = generate_synthetic(spec, str(tmp_path))
        rows = load_manifest(manifest_path, num_classes=4)
        mass = {label: [] for label in range(4)}
        for r in rows:
            heat, maxval = read_pgm(r.heatmap_path)
            scaled = heat / maxval
            if r.label < 2:
                assert scaled.max() < 0.7, r.sample_id
            else:
                assert scaled.max() > 0.7, r.sample_id
            mass[r.label].append(scaled.mean())
        # spread bit: at equal peak, the wide fixation carries more mass
        assert np.mean(mass[1]) > 2 * np.mean(mass[0])
        assert np.mean(mass[3]) > 2 * np.mean(mass[2])

    def test_blob_task_has_no_groups_sidecar(self, tmp_path):
        generate_synthetic(_tiny_spec(), str(tmp_path))
        assert not os.path.exists(os.path.join(tmp_path, "groups.csv"))

    def test_groups_bad_header_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "groups.csv")
        with open(path, "w") as fh:
            fh.write("id,grp\nxx,1\n")
        with pytest.raises(ParseError, match=":1:"):
            load_groups(path)

    def test_invalid_spec_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="4-class"):
            generate_synthetic(_tiny_spec(task="gaze", num_classes=3), str(tmp_path))

    @pytest.mark.parametrize("task, radii, bad", [
        ("blob", (3.0, 5.0, 11.0), "11.0"),
        ("gaze", (3.0, 11.0, 1.0, 1.0), "11.0"),
        ("patterns", (11.0, 1.0, 1.0, 1.0), "11.0"),
        ("blob", (3.0, 0.0, 7.0), "0.0"),
    ])
    def test_blob_radius_must_fit_image(self, task, radii, bad):
        num_classes = 3 if task == "blob" else 4
        spec = _tiny_spec(task=task, num_classes=num_classes, blob_radii=radii,
                          blob_intensities=(0.8,) * len(radii))
        with pytest.raises(ConfigError, match=f"blob radius {bad} must be"):
            spec.validate()

    @pytest.mark.parametrize("task, radii, image_size", [
        ("gaze", (3.0, 10.0, 99.0, 99.0), 30),  # gaze never draws a third radius
        ("patterns", (4.0, 7.0, 10.0), 16),  # default radii; only the first drawn
        ("blob", (3.0, 5.0, 10.0), 30),  # 3r == image_size is still drawable
    ])
    def test_undrawn_radii_are_not_checked(self, task, radii, image_size):
        num_classes = 3 if task == "blob" else 4
        _tiny_spec(task=task, num_classes=num_classes, blob_radii=radii,
                   blob_intensities=(0.8,) * len(radii),
                   image_size=image_size).validate()

    def test_too_few_radii_for_task_rejected(self):
        spec = _tiny_spec(task="gaze", num_classes=4, blob_radii=(3.0,),
                          blob_intensities=(0.8,))
        with pytest.raises(ConfigError, match="draws 2 blob radii"):
            spec.validate()
