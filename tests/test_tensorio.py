"""Round-trip and error-path tests for the file formats."""

import re
import shutil

import numpy as np
import pytest

from voxelstereo.geometry import Intrinsics, Pose, look_at
from voxelstereo.synthgen import generate_dataset
from voxelstereo.tensorio import (
    TensorFormatError,
    load_cameras,
    load_scene,
    read_tensor,
    save_cameras,
    write_tensor,
)


class TestTensorRoundTrip:
    def test_float_2x3_bit_exact(self, tmp_path):
        x = np.array([[1.5, -2.25, 3.0], [0.1, 1e-20, -7.0]], dtype=np.float32)
        p = tmp_path / "t.lsmt"
        write_tensor(p, x, "f32")
        y = read_tensor(p)
        assert y.dtype == np.float32
        assert y.shape == (2, 3)
        assert x.tobytes() == y.tobytes()

    def test_u8_round_trip(self, tmp_path):
        x = np.arange(24, dtype=np.uint8).reshape(2, 3, 4)
        p = tmp_path / "t.lsmt"
        write_tensor(p, x, "u8")
        y = read_tensor(p)
        assert y.dtype == np.uint8
        np.testing.assert_array_equal(x, y)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 8])
    def test_all_ranks(self, tmp_path, rank):
        shape = (2,) * rank
        x = np.random.default_rng(rank).random(shape).astype(np.float32)
        p = tmp_path / "t.lsmt"
        write_tensor(p, x, "f32")
        y = read_tensor(p)
        assert y.shape == shape
        assert x.tobytes() == y.tobytes()

    def test_float64_input_stored_as_f32(self, tmp_path):
        x = np.array([1.0, 2.0, np.pi])
        p = tmp_path / "t.lsmt"
        write_tensor(p, x, "f32")
        np.testing.assert_array_equal(read_tensor(p), x.astype(np.float32))

    def test_f64_bit_exact(self, tmp_path):
        x = np.array([[np.pi, -1e-300], [1.0 / 3.0, -0.0]])
        p = tmp_path / "t.lsmt"
        write_tensor(p, x, "f64")
        y = read_tensor(p)
        assert y.dtype == np.float64
        assert p.read_bytes()[6] == 3
        assert x.tobytes() == y.tobytes()

    def test_dtype_is_required(self, tmp_path):
        # inferring one would round a float64 array to float32 without a word
        with pytest.raises(TypeError):
            write_tensor(tmp_path / "t.lsmt", np.array([np.pi]))


class TestTensorErrors:
    def test_bad_magic_named_with_offset(self, tmp_path):
        p = tmp_path / "t.lsmt"
        write_tensor(p, np.zeros(3, dtype=np.float32), "f32")
        data = bytearray(p.read_bytes())
        data[:4] = b"XXXX"
        p.write_bytes(bytes(data))
        with pytest.raises(TensorFormatError, match="magic at offset 0"):
            read_tensor(p)

    def test_bad_version(self, tmp_path):
        p = tmp_path / "t.lsmt"
        write_tensor(p, np.zeros(3, dtype=np.float32), "f32")
        data = bytearray(p.read_bytes())
        data[4] = 9
        p.write_bytes(bytes(data))
        with pytest.raises(TensorFormatError, match="version"):
            read_tensor(p)

    def test_bad_dtype_code(self, tmp_path):
        p = tmp_path / "t.lsmt"
        write_tensor(p, np.zeros(3, dtype=np.float32), "f32")
        data = bytearray(p.read_bytes())
        data[6] = 77
        p.write_bytes(bytes(data))
        with pytest.raises(TensorFormatError, match="dtype"):
            read_tensor(p)

    @pytest.mark.parametrize("values", [[0.5, 200.7], [0.9], [-1.0], [256.0], [np.nan]])
    def test_u8_rejects_values_that_are_not_bytes(self, tmp_path, values):
        with pytest.raises(ValueError, match=r"integers in \[0, 255\]"):
            write_tensor(tmp_path / "t.lsmt", np.array(values), "u8")

    def test_u8_takes_integral_floats_exactly(self, tmp_path):
        write_tensor(tmp_path / "t.lsmt", np.array([0.0, 1.0, 255.0]), "u8")
        np.testing.assert_array_equal(read_tensor(tmp_path / "t.lsmt"), [0, 1, 255])

    def test_rank_zero_write_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="rank"):
            write_tensor(tmp_path / "t.lsmt", np.float32(3.0), "f32")

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "t.lsmt"
        write_tensor(p, np.zeros((4, 4), dtype=np.float32), "f32")
        p.write_bytes(p.read_bytes()[:-5])
        with pytest.raises(TensorFormatError, match="payload"):
            read_tensor(p)


class TestCameraFile:
    def test_round_trip(self, tmp_path):
        cams = [
            (Intrinsics(fx=100.0, fy=101.0, cx=31.5, cy=30.5, width=64, height=64),
             look_at([2.0, 0.3, -0.4], [0, 0, 0])),
            (Intrinsics(fx=60.0, fy=60.0, cx=31.5, cy=31.5, width=64, height=64),
             Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 2.0]))),
        ]
        p = tmp_path / "cameras.txt"
        save_cameras(p, cams)
        loaded = load_cameras(p)
        assert len(loaded) == 2
        for (c0, p0), (c1, p1) in zip(cams, loaded):
            assert c0 == c1
            np.testing.assert_array_equal(p0.rotation, p1.rotation)
            np.testing.assert_array_equal(p0.translation, p1.translation)

    def test_orthonormality_enforced_on_load(self, tmp_path):
        p = tmp_path / "cameras.txt"
        nums = [100.0, 100.0, 32.0, 32.0, 64, 64] + [1.1, 0, 0, 0, 1, 0, 0, 0, 1] + [0, 0, 2]
        p.write_text(" ".join(str(x) for x in nums) + "\n")
        with pytest.raises(ValueError, match="orthonormal"):
            load_cameras(p)

    def test_wrong_field_count(self, tmp_path):
        p = tmp_path / "cameras.txt"
        p.write_text("1 2 3\n")
        with pytest.raises(ValueError, match="18 values"):
            load_cameras(p)

    def test_non_integral_size_rejected(self, tmp_path):
        p = tmp_path / "cameras.txt"
        nums = [100.0, 100.0, 16.0, 16.0, 32.9, 32] + [1, 0, 0, 0, 1, 0, 0, 0, 1] + [0, 0, 2]
        p.write_text(" ".join(str(x) for x in nums) + "\n")
        with pytest.raises(ValueError, match=r"cameras\.txt: line 1: width and height"):
            load_cameras(p)

    def test_camera_errors_name_the_file_and_line(self, tmp_path):
        p = tmp_path / "cameras.txt"
        good = "100 100 16 16 32 32 1 0 0 0 1 0 0 0 1 0 0 2"
        p.write_text(f"{good}\n{good.replace('100 100', 'inf 100', 1)}\n")
        with pytest.raises(ValueError, match=r"cameras\.txt: line 2: fx must be finite"):
            load_cameras(p)
        p.write_text(f"{good}\n\n{good[:-1]}nan\n")
        with pytest.raises(ValueError,
                           match=r"cameras\.txt: line 3: translation has non-finite"):
            load_cameras(p)

    def test_non_numeric_token_names_the_file_and_line(self, tmp_path):
        p = tmp_path / "cameras.txt"
        good = "100 100 16 16 32 32 1 0 0 0 1 0 0 0 1 0 0 2"
        p.write_text(f"{good}\n{good.replace('16 16', '16 abc', 1)}\n")
        with pytest.raises(ValueError, match=r"cameras\.txt: line 2: .*'abc'"):
            load_cameras(p)

    def test_non_finite_camera_rejected(self, tmp_path):
        p = tmp_path / "cameras.txt"
        p.write_text("inf 100 16 16 32 32 1 0 0 0 1 0 0 0 1 nan 0 2\n")
        with pytest.raises(ValueError, match="fx must be finite"):
            load_cameras(p)
        p.write_text("100 100 16 16 32 32 1 0 0 0 1 0 0 0 1 nan 0 2\n")
        with pytest.raises(ValueError, match="translation has non-finite entries"):
            load_cameras(p)


@pytest.fixture(scope="module")
def scene_source(tmp_path_factory):
    """One generated scene: 2 views of 16 x 16 pixels over an 8^3 grid."""
    manifest = generate_dataset(1, 2, tmp_path_factory.mktemp("data"), seed=0, resolution=8,
                                image_size=(16, 16))
    return manifest.root / manifest.scenes[0]


class TestSceneLayout:
    @pytest.mark.parametrize("kind,values", [("depth", np.zeros((8, 8))),
                                             ("mask", np.zeros((16, 8), np.uint8))])
    def test_view_map_of_another_size_rejected(self, scene_source, tmp_path, kind, values):
        scene_dir = shutil.copytree(scene_source, tmp_path / "scene")
        write_tensor(scene_dir / f"view_0001.{kind}.lsmt", values,
                     {"depth": "f32", "mask": "u8"}[kind])
        with pytest.raises(ValueError, match=re.escape(f"scene: view 1: {kind} of shape "
                                                       f"{values.shape}, its image is (16, 16)")):
            load_scene(scene_dir)

    def test_occupancy_that_is_not_a_cube_rejected(self, scene_source, tmp_path):
        scene_dir = shutil.copytree(scene_source, tmp_path / "scene")
        write_tensor(scene_dir / "occupancy.lsmt", np.zeros((8, 8, 4), np.uint8), "u8")
        with pytest.raises(ValueError, match=r"scene: occupancy of shape \(8, 8, 4\) is not"):
            load_scene(scene_dir)
