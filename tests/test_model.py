"""The learned pipeline end to end: training reproducibility and checkpoints.

Everything runs on a tiny configuration (8^3 grid, 16x16 images, 2 views)
over a dataset generated into a temporary directory.
"""

import json

import numpy as np
import pytest

from voxelstereo.nnkit.model import ToyModelConfig, load_checkpoint, save_checkpoint
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
