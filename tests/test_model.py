"""The learned pipeline end to end: gradients, training reproducibility and checkpoints.

Everything runs on a tiny configuration (8^3 grid, 16x16 images, 2 views)
over a dataset generated into a temporary directory.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from voxelstereo.nnkit.model import ToyModelConfig, load_checkpoint, save_checkpoint
from voxelstereo.nnkit.tape import backward
from voxelstereo.nnkit.train import train_toy
from voxelstereo.synthgen import generate_dataset
from voxelstereo.tensorio import write_tensor

PIPELINES = [("voxel", "gru"), ("depth", "mean")]


def tiny_config(head, fusion):
    return ToyModelConfig(head=head, fusion=fusion, grid_resolution=8, image_hw=(16, 16),
                          views=2)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    return generate_dataset(2, 3, tmp_path_factory.mktemp("data"), seed=0, resolution=8,
                            image_size=(16, 16))


@pytest.fixture(scope="module")
def trained(dataset):
    """One voxel/GRU model trained for two iterations."""
    return train_toy(tiny_config("voxel", "gru"), dataset, iters=2).model


PARAMETER_GROUPS = {"encoder": ("enc",), "gru": ("gru.",), "reasoner": ("reason",),
                    "head": ("voxel_head", "ray_reduce", "depth_refine")}


@pytest.mark.parametrize("head", ["voxel", "depth"])
@pytest.mark.parametrize("fusion", ["gru", "mean", "max"])
def test_tape_gradient_matches_central_difference(dataset, head, fusion):
    # both heads are zero-initialised, so at initialisation every gradient
    # upstream of the head is exactly 0; two iterations in, none is
    model = train_toy(replace(tiny_config(head, fusion), n_z=8), dataset, iters=2).model
    scene = dataset.load_all()[0]
    views = [0, 1]

    def loss():
        return model.loss(scene.images[views], [scene.cameras[i] for i in views],
                          occupancy_gt=scene.occupancy,
                          depth_gt=[scene.depths[i] for i in views])

    for p in model.parameters():
        p.zero_grad()
    backward(loss())
    groups = {name: [p for p in model.parameters() if p.name.startswith(prefixes)]
              for name, prefixes in PARAMETER_GROUPS.items()}
    assert sum(map(len, groups.values())) == len(model.parameters())
    rng = np.random.default_rng(0)
    # a step of 1e-6 already crosses ReLU kinks of the voxel/GRU model;
    # 1e-7 stays clear of them and well above the rounding floor
    step = 1e-7
    for name, params in groups.items():
        if not params:
            continue
        direction = [rng.standard_normal(p.value.shape) for p in params]
        analytic = sum(float(np.sum(p.grad * d)) for p, d in zip(params, direction))
        start = [p.value for p in params]
        ends = []
        for sign in (1.0, -1.0):
            for p, x, d in zip(params, start, direction):
                p.value = x + sign * step * d
            ends.append(float(loss().value))
        for p, x in zip(params, start):
            p.value = x
        numeric = (ends[0] - ends[1]) / (2 * step)
        assert abs(numeric - analytic) <= 1e-5 * abs(analytic), (name, analytic, numeric)


@pytest.mark.parametrize("head,fusion", PIPELINES)
def test_same_seed_gives_bitwise_identical_losses(dataset, head, fusion):
    cfg = tiny_config(head, fusion)
    first = train_toy(cfg, dataset, iters=2).losses
    second = train_toy(cfg, dataset, iters=2).losses
    assert len(first) == 3 and np.isfinite(first).all()
    assert first == second


def test_checkpoint_round_trip_is_float32_exact(trained, tmp_path):
    save_checkpoint(trained, tmp_path / "ckpt")
    loaded = load_checkpoint(tmp_path / "ckpt")
    assert loaded.cfg == trained.cfg
    saved = {p.name: p.value for p in trained.parameters()}
    restored = {p.name: p.value for p in loaded.parameters()}
    assert restored.keys() == saved.keys()
    for name, value in saved.items():
        np.testing.assert_array_equal(restored[name],
                                      value.astype(np.float32).astype(np.float64), name)


def _edit_manifest(ckpt, edit):
    path = ckpt / "manifest.json"
    meta = json.loads(path.read_text())
    edit(meta["parameters"])
    path.write_text(json.dumps(meta))


def test_checkpoint_missing_parameters_rejected(trained, tmp_path):
    ckpt = tmp_path / "ckpt"
    save_checkpoint(trained, ckpt)
    dropped = ["reason2.kernel", "gru.update.bias"]
    assert set(dropped) <= {p.name for p in trained.parameters()}

    def drop(params):
        for name in dropped:
            del params[name]

    _edit_manifest(ckpt, drop)
    with pytest.raises(ValueError, match="missing parameters") as err:
        load_checkpoint(ckpt)
    for name in dropped:
        assert name in str(err.value)


def test_checkpoint_wrong_shape_rejected(trained, tmp_path):
    ckpt = tmp_path / "ckpt"
    save_checkpoint(trained, ckpt)
    # file and manifest agree with each other, not with the model
    write_tensor(ckpt / "reason2.bias.lsmt", np.zeros(3, dtype=np.float32))
    _edit_manifest(ckpt, lambda params: params["reason2.bias"].update(shape=[3]))
    with pytest.raises(ValueError, match="reason2.bias"):
        load_checkpoint(ckpt)
