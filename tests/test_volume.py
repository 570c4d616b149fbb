"""Volume I/O and the synthetic generator."""

import math
import os
import re
import warnings

import numpy as np
import pytest

from vmim.rng import Rng
from vmim.train import _augment_view, crop_sampler
from vmim.volume import (
    LabelVolume,
    Volume,
    VolumeIOError,
    load_labels,
    load_volume,
    save_labels,
    save_volume,
    synth_generate,
)


def rand_volume(rng, shape=(1, 16, 16, 16)):
    return Volume(rng.uniform(size=shape).astype(np.float32).astype(np.float64))


class TestIO:
    def test_round_trip_is_bitwise(self, tmp_path):
        v = rand_volume(np.random.default_rng(0))
        path = str(tmp_path / "v.vol")
        save_volume(path, v)
        loaded = load_volume(path)
        assert loaded.data.tobytes() == v.data.tobytes()

    def test_sidecar_holds_only_shape_and_dtype(self, tmp_path):
        path = str(tmp_path / "v.vol")
        save_volume(path, rand_volume(np.random.default_rng(0), shape=(2, 16, 17, 18)))
        with open(str(tmp_path / "v.volh"), encoding="utf-8") as fh:
            assert fh.read() == "shape = 2 16 17 18\ndtype = f32le\n"

    def test_older_sidecar_with_spacing_and_modality_loads_bitwise(self, tmp_path):
        v = rand_volume(np.random.default_rng(2))
        path = str(tmp_path / "v.vol")
        v.data.astype("<f4").tofile(path)
        with open(str(tmp_path / "v.volh"), "w", encoding="utf-8") as fh:
            fh.write("shape = 1 16 16 16\nspacing = 1.5 1.5 2.0\nmodality = CT\n"
                     "dtype = f32le\n")
        assert load_volume(path).data.tobytes() == v.data.tobytes()

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
        with pytest.raises(VolumeIOError, match=re.escape(path) + ": .*non-finite"):
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

    def test_label_id_out_of_range_names_the_file(self, tmp_path):
        path = str(tmp_path / "l.lab")
        save_labels(path, LabelVolume(np.zeros((2, 2, 2), dtype=np.uint16), 3))
        bad = np.zeros(8, dtype="<u2")
        bad[5] = 7
        bad.tofile(path)
        message = re.escape(path) + r": label id 7 out of range \[0, 3\)"
        with pytest.raises(VolumeIOError, match=message):
            load_labels(path)

    def test_volumes_hold_float32_from_every_source(self, tmp_path):
        (v, _), = synth_generate(3, 1, 16, 3)
        path = str(tmp_path / "v.vol")
        save_volume(path, v)
        sources = {
            "float64 input": Volume(np.zeros((1, 4, 4, 4))),
            "int input": Volume(np.ones((1, 4, 4, 4), dtype=np.int64)),
            "synth_generate": v,
            "load_volume": load_volume(path),
            "crop_sampler": crop_sampler(v, None, 8, Rng(0))[0],
            "_augment_view": _augment_view(v, 8, Rng(0)),
        }
        for name, volume in sources.items():
            assert volume.data.dtype == np.float32 and volume.data.itemsize == 4, name
        # A synth volume is what saving and reloading it gives.
        assert sources["load_volume"].data.tobytes() == v.data.tobytes()

    @pytest.mark.parametrize("value", [1e300, -1e300, 3.5e38])
    def test_voxel_beyond_float32_range_rejected(self, value):
        data = np.zeros((1, 2, 2, 2))
        data[0, 1, 0, 1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(VolumeIOError, match=re.escape(f"voxel {value!r} outside the float32")):
                Volume(data)
        edge = float(np.finfo(np.float32).max)
        assert Volume(np.full((1, 2, 2, 2), -edge)).data.min() == -edge

    @pytest.mark.parametrize("ids, pattern", [
        ([65536, 1], r"label id 65536 out of range \[0, 3\)"),
        ([-65535, 1], r"label id -65535 out of range \[0, 3\)"),
        ([1.7, 1], "integer dtype, got float64"),
    ], ids=["above-uint16", "negative", "fraction"])
    def test_label_ids_that_uint16_would_corrupt_rejected(self, ids, pattern):
        with pytest.raises(VolumeIOError, match=pattern):
            LabelVolume(np.array(ids).reshape(2, 1, 1), 3)

    def test_label_round_trip(self, tmp_path):
        labels = LabelVolume(np.random.default_rng(1).integers(0, 3, size=(8, 8, 8)), 3)
        path = str(tmp_path / "l.lab")
        save_labels(path, labels)
        loaded = load_labels(path)
        assert np.array_equal(loaded.data, labels.data)
        assert loaded.num_classes == 3


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
        for noise in (-1e-9, math.inf, math.nan):
            with pytest.raises(ValueError, match="noise must be finite and >= 0"):
                synth_generate(0, 1, 16, 3, noise=noise)
