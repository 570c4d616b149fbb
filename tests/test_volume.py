"""Volume I/O, normalization, resampling, and the synthetic generator."""

import os

import numpy as np
import pytest

from vmim.volume import (
    LabelVolume,
    Volume,
    VolumeIOError,
    load_labels,
    load_volume,
    normalize_ct,
    normalize_zscore,
    resample,
    resample_labels,
    save_labels,
    save_volume,
    synth_generate,
)


def rand_volume(rng, shape=(1, 16, 16, 16), spacing=(1.0, 1.0, 1.0)):
    data = rng.uniform(size=shape).astype(np.float32).astype(np.float64)
    return Volume(data, spacing)


class TestIO:
    def test_round_trip_is_bitwise(self, tmp_path):
        v = rand_volume(np.random.default_rng(0), spacing=(1.5, 1.5, 2.0))
        path = str(tmp_path / "v.vol")
        save_volume(path, v)
        loaded = load_volume(path)
        assert np.array_equal(loaded.data, v.data)
        assert loaded.spacing == v.spacing
        assert loaded.modality == v.modality

    def test_header_size_arithmetic(self, tmp_path):
        v = Volume(np.zeros((1, 16, 16, 16)))
        path = str(tmp_path / "v.vol")
        save_volume(path, v)
        assert os.path.getsize(path) == 4096 * 4
        assert load_volume(path).data.size == 4096

    def test_payload_length_mismatch_names_bytes(self, tmp_path):
        v = Volume(np.zeros((1, 16, 16, 16)))
        path = str(tmp_path / "v.vol")
        save_volume(path, v)
        with open(path, "ab") as fh:
            fh.write(b"\x00\x00\x00\x00")
        with pytest.raises(VolumeIOError, match=r"16388.*16384"):
            load_volume(path)

    def test_missing_header(self, tmp_path):
        path = str(tmp_path / "orphan.vol")
        np.zeros(8, dtype="<f4").tofile(path)
        with pytest.raises(VolumeIOError, match="header"):
            load_volume(path)

    def test_garbled_header(self, tmp_path):
        v = Volume(np.zeros((1, 16, 16, 16)))
        path = str(tmp_path / "v.vol")
        save_volume(path, v)
        with open(str(tmp_path / "v.volh"), "w") as fh:
            fh.write("shape = banana\nspacing = 1 1 1\nmodality = SYNTH\ndtype = f32le\n")
        with pytest.raises(VolumeIOError, match="garbled"):
            load_volume(path)

    def test_non_finite_payload_rejected(self, tmp_path):
        v = Volume(np.zeros((1, 16, 16, 16)))
        path = str(tmp_path / "v.vol")
        save_volume(path, v)
        bad = np.zeros(4096, dtype="<f4")
        bad[77] = np.nan
        bad.tofile(path)
        with pytest.raises(VolumeIOError, match="finite"):
            load_volume(path)

    def test_negative_volume_extents_name_header(self, tmp_path):
        # 1 * -2 * -2 * 4 = 16 voxels matches the 64-byte payload.
        path = str(tmp_path / "v.vol")
        np.zeros(16, dtype="<f4").tofile(path)
        with open(str(tmp_path / "v.volh"), "w") as fh:
            fh.write("shape = 1 -2 -2 4\nspacing = 1 1 1\nmodality = SYNTH\ndtype = f32le\n")
        with pytest.raises(VolumeIOError, match=r"v\.volh.*extents"):
            load_volume(path)

    def test_negative_label_extents_name_header(self, tmp_path):
        path = str(tmp_path / "l.lab")
        np.zeros(8, dtype="<u2").tofile(path)
        with open(str(tmp_path / "l.labh"), "w") as fh:
            fh.write("shape = -1 -2 4\nnum_classes = 3\ndtype = u16le\n")
        with pytest.raises(VolumeIOError, match=r"l\.labh.*extents"):
            load_labels(path)

    def test_label_round_trip(self, tmp_path):
        labels = LabelVolume(np.random.default_rng(1).integers(0, 3, size=(8, 8, 8)), 3)
        path = str(tmp_path / "l.lab")
        save_labels(path, labels)
        loaded = load_labels(path)
        assert np.array_equal(loaded.data, labels.data)
        assert loaded.num_classes == 3


class TestNormalizeCT:
    def test_window_endpoints(self):
        v = Volume(np.array([-175.0, 200.0]).reshape(1, 1, 1, 2), modality="CT")
        out = normalize_ct(v)
        assert np.array_equal(out.data.ravel(), [0.0, 1.0])

    def test_clamps_below_window(self):
        v = Volume(np.full((1, 1, 1, 1), -500.0), modality="CT")
        assert normalize_ct(v).data.item() == 0.0

    def test_midpoint(self):
        v = Volume(np.full((1, 1, 1, 1), 12.5), modality="CT")
        assert normalize_ct(v).data.item() == pytest.approx((12.5 + 175) / 375, abs=1e-15)

    def test_range_always_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = Volume(rng.normal(scale=500.0, size=(1, 4, 4, 4)), modality="CT")
            out = normalize_ct(v).data
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_bad_window(self):
        with pytest.raises(ValueError, match="lo < hi"):
            normalize_ct(Volume(np.zeros((1, 1, 1, 1))), lo=10, hi=10)


class TestNormalizeZscore:
    def test_constant_channel_becomes_zeros(self):
        v = Volume(np.full((2, 4, 4, 4), 7.0))
        out = normalize_zscore(v)
        assert np.array_equal(out.data, np.zeros_like(out.data))

    def test_hand_case(self):
        v = Volume(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 1, 4))
        out = normalize_zscore(v).data.ravel()
        expected = np.array([-1.3416, -0.4472, 0.4472, 1.3416])
        assert np.abs(out - expected).max() < 1e-4

    def test_moments_and_idempotence(self):
        rng = np.random.default_rng(3)
        v = Volume(rng.normal(3.0, 5.0, size=(2, 6, 6, 6)))
        once = normalize_zscore(v)
        for c in range(2):
            assert abs(once.data[c].mean()) < 1e-9
            assert abs(once.data[c].std() - 1.0) < 1e-9
        twice = normalize_zscore(once)
        assert np.abs(twice.data - once.data).max() < 1e-9


class TestResample:
    def test_identity_spacing_is_bitwise(self):
        rng = np.random.default_rng(4)
        v = rand_volume(rng, (1, 12, 10, 8), spacing=(1.5, 1.5, 2.0))
        out = resample(v, (1.5, 1.5, 2.0))
        assert np.array_equal(out.data, v.data)

    def test_ramp_stays_on_ramp_when_spacing_doubles(self):
        ramp = np.broadcast_to(np.arange(32.0)[:, None, None], (32, 16, 16)).copy()
        v = Volume(ramp[None], (1.0, 1.0, 1.0))
        out = resample(v, (2.0, 1.0, 1.0))
        positions = (np.arange(out.data.shape[1]) + 0.5) * 2.0 - 0.5
        assert np.abs(out.data[0, :, 0, 0] - positions).max() < 1e-9

    def test_extent_arithmetic_for_downsampling(self):
        v = Volume(np.zeros((1, 96, 96, 96)), (1.0, 1.0, 1.0))
        out = resample(v, (1.5, 1.5, 2.0))
        assert out.data.shape == (1, 64, 64, 48)

    def test_label_resampling_emits_only_input_ids(self):
        rng = np.random.default_rng(5)
        labels = LabelVolume(rng.choice([0, 2, 5], size=(10, 10, 10)).astype(np.uint16), 6)
        out = resample_labels(labels, (1.0, 1.0, 1.0), (1.7, 0.6, 1.3))
        assert set(np.unique(out.data)) <= set(np.unique(labels.data))

    def test_label_identity(self):
        labels = LabelVolume(np.random.default_rng(6).integers(0, 3, (8, 8, 8)), 3)
        out = resample_labels(labels, (2.0, 2.0, 2.0), (2.0, 2.0, 2.0))
        assert np.array_equal(out.data, labels.data)


class TestSynth:
    def test_deterministic_in_seed(self):
        a = synth_generate(7, 2, 16, 3)
        b = synth_generate(7, 2, 16, 3)
        for (va, la), (vb, lb) in zip(a, b):
            assert np.array_equal(va.data, vb.data)
            assert np.array_equal(la.data, lb.data)
        c = synth_generate(8, 1, 16, 3)
        assert not np.array_equal(a[0][0].data, c[0][0].data)

    def test_every_class_present(self):
        samples = synth_generate(1, 3, 20, 4)
        for _, labels in samples:
            assert set(np.unique(labels.data)) == {0, 1, 2, 3}

    def test_background_majority(self):
        for _, labels in synth_generate(2, 4, 16, 5):
            assert (labels.data == 0).mean() > 0.5

    def test_argument_validation(self):
        with pytest.raises(ValueError, match=">= 16"):
            synth_generate(0, 1, 8, 3)
        with pytest.raises(ValueError, match=">= 2"):
            synth_generate(0, 1, 16, 1)
