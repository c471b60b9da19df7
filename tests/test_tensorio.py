"""Round-trip and error-path tests for the file formats."""

import json
import re
import shutil
import struct

import numpy as np
import pytest

from voxelstereo.geometry import Intrinsics, Pose, look_at, scale_intrinsics
from voxelstereo.synthgen import SceneSpec, Sphere, generate_dataset, render_view
from voxelstereo.tensorio import (
    DatasetManifest,
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

    def test_dims_whose_product_overflows_int64(self, tmp_path):
        # 65536**4 == 2**64 wraps to 0 in int64, which an empty payload would match
        p = tmp_path / "t.lsmt"
        write_tensor(p, np.zeros((1, 1, 1, 1), dtype=np.float32), "f32")
        header = p.read_bytes()[:8] + struct.pack("<4I", *(65536,) * 4)
        p.write_bytes(header)
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


def _write(name, shape):
    return lambda scene_dir: write_tensor(scene_dir / name, np.zeros(shape), "f32")


def _rewrite(name, dtype, values):
    """Rewrite a scene tensor as `dtype`, holding values(old values)."""
    def damage(scene_dir):
        write_tensor(scene_dir / name, values(read_tensor(scene_dir / name)), dtype)
    return damage


def _set_first(name, x):
    """Rewrite a float32 scene tensor with its first entry set to x."""
    def set_first(values):
        values.flat[0] = x
        return values
    return _rewrite(name, "f32", set_first)


def _shrink_second_camera(scene_dir):
    cameras = load_cameras(scene_dir / "cameras.txt")
    cam, pose = cameras[1]
    save_cameras(scene_dir / "cameras.txt", [cameras[0], (scale_intrinsics(cam, 8, 8), pose)])


class TestSceneLayout:
    def test_scene_is_five_files(self, scene_source):
        assert sorted(p.name for p in scene_source.iterdir()) == [
            "cameras.txt", "depths.lsmt", "images.lsmt", "occupancy.lsmt", "scene.json"]
        meta = json.loads((scene_source / "scene.json").read_text())
        assert sorted(meta) == ["family", "primitives", "seed", "texture", "view_sampler"]

    @pytest.mark.parametrize("damage,message", [
        pytest.param(_write("depths.lsmt", (2, 8, 8)),
                     "depths of shape (2, 8, 8), images are (2, 16, 16)", id="depth-shape"),
        pytest.param(_write("images.lsmt", (1, 16, 16, 3)),
                     "images of shape (1, 16, 16, 3), expected (2, H, W, 3) for 2 cameras",
                     id="image-count"),
        pytest.param(_write("images.lsmt", (2, 16, 16, 4)),
                     "images of shape (2, 16, 16, 4), expected (2, H, W, 3) for 2 cameras",
                     id="image-channels"),
        pytest.param(_shrink_second_camera,
                     "cameras of (H, W) [(8, 8), (16, 16)], images are (16, 16)",
                     id="camera-size"),
        pytest.param(_rewrite("images.lsmt", "u8", lambda v: np.round(255 * v)),
                     "images.lsmt is uint8, not float32", id="image-dtype"),
        pytest.param(_rewrite("depths.lsmt", "u8", np.round),
                     "depths.lsmt is uint8, not float32", id="depth-dtype"),
        pytest.param(_rewrite("occupancy.lsmt", "f32", lambda v: np.full(v.shape, 0.5)),
                     "occupancy.lsmt is float32, not uint8", id="occupancy-dtype"),
        pytest.param(_rewrite("occupancy.lsmt", "u8", lambda v: v + 1),
                     "occupancy.lsmt holds values other than 0 and 1", id="occupancy-values"),
        *(pytest.param(_set_first("images.lsmt", x),
                       "images.lsmt holds values outside [0, 1] or NaN", id=f"image-{name}")
          for name, x in (("nan", np.nan), ("negative", -0.5), ("above-one", 1.5))),
        *(pytest.param(_set_first("depths.lsmt", x),
                       "depths.lsmt holds negative or non-finite values", id=f"depth-{name}")
          for name, x in (("nan", np.nan), ("negative", -1.0), ("inf", np.inf))),
    ])
    def test_inconsistent_scene_rejected(self, scene_source, tmp_path, damage, message):
        scene_dir = shutil.copytree(scene_source, tmp_path / "scene")
        damage(scene_dir)
        with pytest.raises(ValueError, match=re.escape(f"{scene_dir}: {message}")):
            load_scene(scene_dir)

    def test_missing_image_tensor_named(self, scene_source, tmp_path):
        scene_dir = shutil.copytree(scene_source, tmp_path / "scene")
        (scene_dir / "images.lsmt").unlink()
        with pytest.raises(FileNotFoundError, match="images.lsmt"):
            load_scene(scene_dir)

    def test_manifest_loads_only_its_own_scenes(self, scene_source, tmp_path):
        shutil.copytree(scene_source, tmp_path / "other" / scene_source.name)
        shutil.copytree(scene_source, tmp_path / "data" / scene_source.name)
        manifest = DatasetManifest.scan(tmp_path / "data")
        assert manifest.load(scene_source.name).name == scene_source.name
        for name in (f"../other/{scene_source.name}", "scene_9999"):
            with pytest.raises(ValueError, match=re.escape(f"'{name}' is not a scene")):
                manifest.load(name)

    @pytest.mark.parametrize("text,kind", [
        pytest.param('["not", "an", "object"]', "list", id="list"),
        pytest.param('"family"', "str", id="string"),
        pytest.param("3", "int", id="number"),
        pytest.param("null", "NoneType", id="null"),
    ])
    def test_scene_json_that_is_not_an_object_rejected(self, scene_source, tmp_path, text,
                                                       kind):
        scene_dir = shutil.copytree(scene_source, tmp_path / "scene")
        (scene_dir / "scene.json").write_text(text + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{scene_dir}: scene.json holds a {kind}, not a JSON object")):
            load_scene(scene_dir)

    def test_occupancy_that_is_not_a_cube_rejected(self, scene_source, tmp_path):
        scene_dir = shutil.copytree(scene_source, tmp_path / "scene")
        write_tensor(scene_dir / "occupancy.lsmt", np.zeros((8, 8, 4), np.uint8), "u8")
        with pytest.raises(ValueError, match=r"scene: occupancy of shape \(8, 8, 4\) is not"):
            load_scene(scene_dir)


class TestCamerasSeeTheCube:
    """load_scene rejects a camera that does not see the whole unit cube, and
    depths that the cube at the origin cannot produce."""

    @pytest.mark.parametrize("position, target", [
        pytest.param([0.1, 0.0, 0.0], [0.5, 0.0, 0.0], id="inside-the-cube"),
        pytest.param([0.0, 0.0, 2.0], [0.0, 0.0, 3.0], id="looking-away"),
        pytest.param([0.7, 0.0, 0.0], [0.8, 0.05, 0.0], id="beside-a-face"),
        pytest.param([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], id="too-close"),
    ])
    def test_camera_that_misses_the_cube_rejected(self, scene_source, tmp_path, position,
                                                  target):
        scene_dir = shutil.copytree(scene_source, tmp_path / "scene")
        cameras = load_cameras(scene_dir / "cameras.txt")
        save_cameras(scene_dir / "cameras.txt",
                     [cameras[0], (cameras[1][0], look_at(position, target))])
        with pytest.raises(ValueError, match=re.escape(
                f"{scene_dir}: camera 1 of cameras.txt does not see the whole unit cube")):
            load_scene(scene_dir)

    def test_scene_not_centred_at_the_origin_rejected(self, scene_source, tmp_path):
        # a sphere on camera 0's axis, 0.8 from it: nearer than any cube corner
        scene_dir = shutil.copytree(scene_source, tmp_path / "scene")
        cameras = load_cameras(scene_dir / "cameras.txt")
        center = 0.6 * cameras[0][1].camera_center
        shifted = SceneSpec(nodes=[("union", Sphere(center=tuple(center), radius=0.1))],
                            family="sphere")
        depths = np.stack([render_view(shifted, cam, pose)[1] for cam, pose in cameras])
        assert (depths[0] > 0).any()
        write_tensor(scene_dir / "depths.lsmt", depths, "f32")
        with pytest.raises(ValueError, match=re.escape(f"{scene_dir}: view 0 of depths.lsmt "
                                                       "holds depths in [0.")):
            load_scene(scene_dir)

    @pytest.mark.parametrize("size", [64, 32, 16])
    def test_generated_datasets_load(self, tmp_path, size):
        manifest = generate_dataset(3, 6, tmp_path, seed=size, resolution=8,
                                    image_size=(size, size))
        for scene in manifest.load_all():
            assert scene.n_views == 6 and scene.images.shape[1:3] == (size, size)
