"""The learned pipeline end to end: gradients, training reproducibility and checkpoints.

Everything runs on a tiny configuration (8^3 grid, 16x16 images, 2 views)
over a dataset generated into a temporary directory, except the check that
training is bitwise the same at one and two BLAS threads, which trains at
16^3 in subprocesses.
"""

import json
import os
import re
import subprocess
import sys
import types
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from voxelstereo.nnkit import layers, tape, train
from voxelstereo.nnkit.adam import Adam
from voxelstereo.nnkit.model import ToyModel, ToyModelConfig, load_checkpoint, save_checkpoint
from voxelstereo.nnkit.tape import backward
from voxelstereo.nnkit.train import dataset_loss, train_toy
from voxelstereo.synthgen import generate_dataset
from voxelstereo.tensorio import write_tensor

SRC = Path(__file__).resolve().parent.parent / "src"

# Two training iterations of each pipeline at 16^3 on the dataset in argv[1];
# prints one sha256 of every parameter's name and bytes per pipeline.
TRAIN_HASHES = """
import hashlib, sys
from voxelstereo.nnkit.model import ToyModelConfig
from voxelstereo.nnkit.train import train_toy
from voxelstereo.tensorio import DatasetManifest

dataset = DatasetManifest.scan(sys.argv[1])
for head, fusion in (("voxel", "gru"), ("depth", "mean")):
    cfg = ToyModelConfig(head=head, fusion=fusion, grid_resolution=16, image_hw=(32, 32))
    digest = hashlib.sha256()
    for name, p in sorted(train_toy(cfg, dataset, iters=2).model.params.items()):
        digest.update(name.encode())
        digest.update(p.value.tobytes())
    print(head, fusion, digest.hexdigest())
"""

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


@pytest.fixture(scope="module")
def depth_run(dataset, tmp_path_factory):
    """One depth/mean run of two iterations that writes its outputs."""
    out_dir = tmp_path_factory.mktemp("run")
    return train_toy(tiny_config("depth", "mean"), dataset, iters=2, out_dir=out_dir), out_dir


PARAMETER_GROUPS = {"encoder": ("enc",), "gru": ("gru.",), "reasoner": ("reason",),
                    "head": ("voxel_head", "ray_reduce", "depth_refine")}


@pytest.mark.parametrize("head", ["voxel", "depth"])
@pytest.mark.parametrize("fusion", ["gru", "mean"])
def test_tape_gradient_matches_central_difference(dataset, head, fusion):
    # both heads are zero-initialised, so at initialisation every gradient
    # upstream of the head is exactly 0; two iterations in, none is
    model = train_toy(tiny_config(head, fusion), dataset, iters=2).model
    scene = dataset.load_all()[0]
    views = [0, 1]

    def loss():
        return model.loss(scene, views)

    for p in model.parameters():
        p.grad = None
    backward(loss())
    groups = {name: [p for key, p in model.params.items() if key.startswith(prefixes)]
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


def conv_block(name):
    return {f"{name}.{p}" for p in ("kernel", "gain", "shift")}


ENCODER_AND_REASONER = set().union(*map(conv_block, ["enc1", "enc2", "enc3", "reason1",
                                                     "reason2"]))
GRU = {f"gru.{gate}.{p}" for gate in ("update", "reset", "candidate")
       for p in ("kernel", "bias", "ln_gain", "ln_shift")}
# grid_resolution * REASONER_CHANNELS[1] = 8 * 8 ray channels, halved six times to one
RAY_REDUCE = {f"ray_reduce{i}.{p}" for i in range(6) for p in ("kernel", "bias")}
CHECKPOINT_NAMES = {
    ("voxel", "gru"): ENCODER_AND_REASONER | GRU | {"voxel_head.kernel", "voxel_head.bias"},
    ("depth", "mean"): ENCODER_AND_REASONER | RAY_REDUCE
    | {"depth_refine.kernel", "depth_refine.bias"},
}


def test_a_voxel_gru_forward_keeps_no_layer_norm_output(dataset, monkeypatch):
    # each GRU step keeps x, h and its gates' normalized pre-activations and
    # rebuilds the rest in backward, so once loss returns nothing holds a
    # conv output, a layer-norm output (z and r before their sigmoid, c
    # after its tanh, which runs in place), a sigmoid output or r * h
    made = {"conv_forward": [], "layer_norm_channels": [], "sigmoid": []}
    blocks = []  # the h, then the r * h, each later GRU step's gate convs read

    def record(name):
        f = getattr(layers, name)

        def recorded(*args):
            out = f(*args)
            made[name].append(weakref.ref(out[0] if name == "layer_norm_channels" else out))
            if name == "conv_forward" and isinstance(args[0], list):
                blocks.append(weakref.ref(args[0][1]))
            return out
        monkeypatch.setattr(layers, name, recorded)

    for name in made:
        record(name)
    model = ToyModel.create(tiny_config("voxel", "gru"))
    root = model.loss(dataset.load_all()[0], [0, 1, 2])
    # 3 views: 9 encoder convs, 5 gate convs, 2 reasoner convs and the head
    assert [len(refs) for refs in made.values()] == [17, 8, 5]
    assert all(ref() is None for refs in made.values() for ref in refs)
    states, products = blocks[0::2], blocks[1::2]
    assert len(states) == len(products) == 2
    assert all(ref() is not None for ref in states)  # the step's VJP holds h
    assert all(ref() is None for ref in products)
    backward(root)
    Adam(model.parameters()).step()
    assert all(np.isfinite(p.value).all() for p in model.parameters())


@pytest.mark.parametrize("head", ["voxel", "depth"])
def test_a_mean_fusion_forward_keeps_no_unprojected_grid(dataset, monkeypatch, head):
    # mean_stack's VJP reads nothing of its inputs, and unproject's reads the
    # feature map, so once loss returns nothing holds an unprojected grid
    grids = []
    unproject = tape.unproject

    def recorded(*args):
        node = unproject(*args)
        grids.append(weakref.ref(node.value))
        return node

    monkeypatch.setattr(tape, "unproject", recorded)
    model = ToyModel.create(tiny_config(head, "mean"))
    root = model.loss(dataset.load_all()[0], [0, 1])
    assert len(grids) == 2 and all(ref() is None for ref in grids)
    backward(root)
    Adam(model.parameters()).step()
    assert all(np.isfinite(p.value).all() for p in model.parameters())


def tape_nodes_in(obj, seen):
    """The TapeNodes obj reaches through closure cells, of nested functions too,
    and through lists and tuples."""
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, tape.TapeNode):
        return [obj]
    if isinstance(obj, (list, tuple)):
        items = obj
    elif isinstance(obj, types.FunctionType):
        items = [cell.cell_contents for cell in obj.__closure__ or ()]
    else:
        return []
    return [node for item in items for node in tape_nodes_in(item, seen)]


@pytest.mark.parametrize("head", ["voxel", "depth"])
@pytest.mark.parametrize("fusion", ["gru", "mean"])
def test_no_vjp_of_a_recorded_loss_holds_a_tape_node(dataset, head, fusion):
    # a VJP that captured a node would keep the node's value alive until backward
    model = ToyModel.create(tiny_config(head, fusion))
    root = model.loss(dataset.load_all()[0], [0, 1])
    slots, stack, seen = [], [root.slot], set()
    while stack:
        slot = stack.pop()
        if id(slot) not in seen:
            seen.add(id(slot))
            slots.append(slot)
            stack.extend(slot.parents)
    vjps = [slot.vjp for slot in slots if slot.vjp is not None]
    assert len(vjps) > 20
    assert [vjp.__qualname__ for vjp in vjps if tape_nodes_in(vjp, set())] == []


@pytest.mark.parametrize("head,fusion", PIPELINES)
def test_parameter_store_holds_exactly_the_checkpoint_names(head, fusion):
    model = ToyModel.create(tiny_config(head, fusion))
    assert set(model.params) == CHECKPOINT_NAMES[head, fusion]
    assert model.parameters() == list(model.params.values())


@pytest.mark.parametrize("head", ["voxel", "depth"])
def test_loss_rejects_images_of_another_size(dataset, head):
    # the dataset's images are 16 x 16
    model = ToyModel.create(replace(tiny_config(head, "mean"), image_hw=(8, 8)))
    scene = dataset.load_all()[0]
    with pytest.raises(ValueError, match=r"\(16, 16\).*\(8, 8\)"):
        model.loss(scene, [0, 1])


def test_voxel_loss_rejects_occupancy_of_another_grid(dataset):
    model = ToyModel.create(tiny_config("voxel", "mean"))
    scene = dataset.load_all()[0]
    scene = replace(scene, occupancy=scene.occupancy[:, :, :4])
    with pytest.raises(ValueError, match=rf"scene {scene.name} has occupancy of shape "
                                         r"\(8, 8, 4\), the model's grid is \(8, 8, 8\)"):
        model.loss(scene, [0, 1])


@pytest.mark.parametrize("head,fusion", PIPELINES)
def test_same_seed_gives_bitwise_identical_losses(dataset, head, fusion):
    cfg = tiny_config(head, fusion)
    first = train_toy(cfg, dataset, iters=2).losses
    second = train_toy(cfg, dataset, iters=2).losses
    assert len(first) == 3 and np.isfinite(first).all()
    assert first == second


def test_trained_parameters_are_bitwise_equal_at_one_and_two_blas_threads(tmp_path):
    # OpenBLAS reads its thread count once, at load, so each count runs in
    # its own process, on one dataset written here
    generate_dataset(2, 4, tmp_path, seed=0, resolution=16, image_size=(32, 32))
    hashes = []
    for threads in (1, 2):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
               "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", TRAIN_HASHES, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stdout + done.stderr
        hashes.append(done.stdout.split())
    assert hashes[0][::3] == ["voxel", "depth"]
    assert hashes[0] == hashes[1]


def test_checkpoint_round_trip_is_exact(trained, tmp_path):
    save_checkpoint(trained, tmp_path / "ckpt")
    loaded = load_checkpoint(tmp_path / "ckpt")
    assert loaded.cfg == trained.cfg
    saved = {name: p.value for name, p in trained.params.items()}
    restored = {name: p.value for name, p in loaded.params.items()}
    assert restored.keys() == saved.keys()
    for name, value in saved.items():
        assert restored[name].dtype == np.float64, name
        assert restored[name].tobytes() == value.tobytes(), name


@pytest.mark.parametrize("dtype,name", [("f32", "float32"), ("u8", "uint8")])
def test_checkpoint_tensor_not_float64_rejected(trained, tmp_path, dtype, name):
    ckpt = tmp_path / "ckpt"
    save_checkpoint(trained, ckpt)
    # right file and shape, wrong dtype: a silent cast would load [0. 1. 2. ...]
    write_tensor(ckpt / "enc1.shift.lsmt", np.arange(8), dtype)
    with pytest.raises(ValueError, match=f"^checkpoint entry enc1.shift is {name}, not float64$"):
        load_checkpoint(ckpt)


def _edit_manifest(ckpt, edit):
    """Apply edit to the manifest's list of parameter names in place."""
    path = ckpt / "manifest.json"
    meta = json.loads(path.read_text())
    edit(meta["parameters"])
    path.write_text(json.dumps(meta))


def test_checkpoint_missing_parameters_rejected(trained, tmp_path):
    ckpt = tmp_path / "ckpt"
    save_checkpoint(trained, ckpt)
    dropped = ["reason2.kernel", "gru.update.bias"]
    assert set(dropped) <= set(trained.params)

    def drop(params):
        for name in dropped:
            params.remove(name)

    _edit_manifest(ckpt, drop)
    with pytest.raises(ValueError, match="missing parameters") as err:
        load_checkpoint(ckpt)
    for name in dropped:
        assert name in str(err.value)

    # a manifest with separate x / h kernels in place of the gate's one kernel
    save_checkpoint(trained, ckpt)

    def split(params):
        params.remove("gru.update.kernel")
        params.extend(["gru.update.w_x", "gru.update.w_h"])

    _edit_manifest(ckpt, split)
    with pytest.raises(ValueError, match="missing parameters: gru.update.kernel"):
        load_checkpoint(ckpt)


# biases of the convs that feed an instance norm, which cancels them: a
# checkpoint written when the model had them lists them, with their files
NORM_CANCELLED_BIASES = [f"{name}.bias" for name in ("enc1", "enc2", "enc3", "reason1",
                                                     "reason2")]


@pytest.mark.parametrize("extra", [["../outside"], NORM_CANCELLED_BIASES],
                         ids=["outside", "norm-cancelled-biases"])
def test_checkpoint_parameter_the_model_lacks_rejected_before_any_read(trained, tmp_path,
                                                                       monkeypatch, extra):
    ckpt = tmp_path / "ckpt"
    save_checkpoint(trained, ckpt)
    for name in extra:
        write_tensor(ckpt / f"{name}.lsmt", np.zeros(8), "f64")
    _edit_manifest(ckpt, lambda params: params.extend(extra))
    read = []
    monkeypatch.setattr("voxelstereo.nnkit.model.read_tensor", read.append)
    with pytest.raises(ValueError, match="^checkpoint has parameters the model lacks: "
                                         + re.escape(", ".join(extra)) + "$"):
        load_checkpoint(ckpt)
    assert read == []


def test_trained_parameters_carry_no_gradient(trained, depth_run):
    for model in (trained, depth_run[0].model):
        assert all(p.grad is None for p in model.parameters())


def test_checkpoint_config_field_the_model_does_not_take_rejected(trained, tmp_path):
    ckpt = tmp_path / "ckpt"
    save_checkpoint(trained, ckpt)
    path = ckpt / "manifest.json"
    meta = json.loads(path.read_text())
    meta["config"]["encoder_channels"] = [8, 16, 16]
    path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="encoder_channels"):
        load_checkpoint(ckpt)


def test_checkpoint_config_missing_fields_rejected(tmp_path):
    # a 3-view depth run: the defaults (views=4, seed=0) must not fill in
    cfg = replace(tiny_config("depth", "mean"), views=3, seed=5)
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ToyModel.create(cfg), ckpt)
    path = ckpt / "manifest.json"
    meta = json.loads(path.read_text())
    for name in ("views", "seed"):
        del meta["config"][name]
    path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="^checkpoint config is missing fields: seed, views$"):
        load_checkpoint(ckpt)


@pytest.mark.parametrize("edit,message", [
    (lambda meta: {"parameters": meta["parameters"]}, "^checkpoint manifest is missing 'config'$"),
    (lambda meta: {"config": meta["config"]}, "^checkpoint manifest is missing 'parameters'$"),
    (lambda meta: [meta], "^checkpoint manifest is not a JSON object: list$"),
    (lambda meta: {**meta, "config": []}, "^checkpoint config must be an object, got list$"),
    (lambda meta: {**meta, "parameters": 5}, "^checkpoint parameters must be a list of strings$"),
    (lambda meta: {**meta, "parameters": meta["parameters"] + [7]},
     "^checkpoint parameters must be a list of strings$"),
    (lambda meta: {**meta, "parameters": "abc"},
     "^checkpoint parameters must be a list of strings$"),
], ids=["no-config", "no-parameters", "list", "config-list", "parameters-int",
        "parameters-non-string", "parameters-string"])
def test_checkpoint_malformed_manifest_rejected(trained, tmp_path, edit, message):
    ckpt = tmp_path / "ckpt"
    save_checkpoint(trained, ckpt)
    path = ckpt / "manifest.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(ValueError, match=message):
        load_checkpoint(ckpt)


@pytest.mark.parametrize("field", ["views", "grid_resolution"])
@pytest.mark.parametrize("value", [0, -2])
def test_config_rejects_counts_below_one(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be >= 1"):
        replace(tiny_config("depth", "mean"), **{field: value})


@pytest.mark.parametrize("field", ["views", "grid_resolution", "seed"])
@pytest.mark.parametrize("value", [2.5, True, "2"])
def test_config_rejects_counts_that_are_not_ints(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an int"):
        replace(tiny_config("depth", "mean"), **{field: value})


def test_checkpoint_config_with_a_fractional_count_rejected(trained, tmp_path):
    ckpt = tmp_path / "ckpt"
    save_checkpoint(trained, ckpt)
    path = ckpt / "manifest.json"
    meta = json.loads(path.read_text())
    meta["config"]["grid_resolution"] = 8.5
    path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="^grid_resolution must be an int, got 8.5$"):
        load_checkpoint(ckpt)


@pytest.mark.parametrize("value", [(64, 64, 64), (64.0, 64.0), (64,), (True, 64), 64, "64"],
                         ids=["three", "floats", "one", "bool", "int", "str"])
def test_config_rejects_image_hw_that_is_not_two_ints(value):
    with pytest.raises(ValueError, match=r"^image_hw must be a tuple of two ints"):
        replace(tiny_config("depth", "mean"), image_hw=value)


@pytest.mark.parametrize("value", [[16, 16, 16], [16.0, 16.0], 16])
def test_checkpoint_config_with_a_bad_image_hw_rejected(trained, tmp_path, value):
    ckpt = tmp_path / "ckpt"
    save_checkpoint(trained, ckpt)
    path = ckpt / "manifest.json"
    meta = json.loads(path.read_text())
    meta["config"]["image_hw"] = value
    path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=r"^image_hw must be a tuple of two ints"):
        load_checkpoint(ckpt)


def test_config_rejects_max_fusion():
    # pointwise max pooling is gone: mean is the one permutation-invariant fusion
    with pytest.raises(ValueError, match="fusion 'max'"):
        ToyModelConfig(fusion="max")


def test_config_has_no_depth_plane_count():
    # the depth head samples grid_resolution planes, one per voxel of a grid edge
    with pytest.raises(TypeError, match="n_z"):
        ToyModelConfig(n_z=8)


def test_checkpoint_config_naming_a_depth_plane_count_rejected(trained, tmp_path):
    ckpt = tmp_path / "ckpt"
    save_checkpoint(trained, ckpt)
    path = ckpt / "manifest.json"
    meta = json.loads(path.read_text())
    meta["config"]["n_z"] = 32
    path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="^checkpoint config has unknown fields: n_z$"):
        load_checkpoint(ckpt)


def test_checkpoint_manifest_lists_the_sorted_parameter_names(trained, tmp_path):
    save_checkpoint(trained, tmp_path / "ckpt")
    meta = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
    assert meta["parameters"] == sorted(trained.params)


def test_checkpoint_wrong_shape_rejected(trained, tmp_path):
    ckpt = tmp_path / "ckpt"
    save_checkpoint(trained, ckpt)
    # the tensor file's header is the checkpoint's one record of a shape
    write_tensor(ckpt / "reason2.shift.lsmt", np.zeros(3), "f64")
    with pytest.raises(ValueError, match=r"^checkpoint entry reason2.shift has shape \(3,\), "
                                         r"the model's is \(8,\)$"):
        load_checkpoint(ckpt)


def test_train_toy_writes_checkpoint_and_loss_curve(depth_run):
    result, out_dir = depth_run
    # the checkpoint manifest is the run's one copy of its config
    assert {p.name for p in out_dir.iterdir()} == {"checkpoint", "loss_curve.txt"}
    loaded = load_checkpoint(out_dir / "checkpoint")
    assert loaded.cfg == result.model.cfg
    for name, p in result.model.params.items():
        assert loaded.params[name].value.tobytes() == p.value.tobytes(), name
    lines = (out_dir / "loss_curve.txt").read_text().splitlines()
    assert len(result.losses) == 3
    assert lines == [f"{i} {loss!r}" for i, loss in enumerate(result.losses)]


@pytest.mark.parametrize("views", [0, -1])
def test_dataset_loss_rejects_fewer_than_one_view(depth_run, dataset, views):
    with pytest.raises(ValueError, match="at least one view"):
        dataset_loss(depth_run[0].model, dataset, views=views)


def test_dataset_loss_rejects_more_views_than_a_scene_has(depth_run, dataset):
    with pytest.raises(ValueError, match="has 3 views, asked for 4"):
        dataset_loss(depth_run[0].model, dataset, views=4)


def test_train_toy_rejects_more_views_than_a_scene_has(dataset):
    cfg = replace(tiny_config("depth", "mean"), views=4)
    with pytest.raises(ValueError, match="has 3 views, asked for 4"):
        train_toy(cfg, dataset, iters=0)


def test_dataset_loss_is_the_mean_scene_loss_of_the_leading_views(depth_run, dataset):
    # the views evalkit.view_count_sweep gives the visual hull
    model = depth_run[0].model
    value = dataset_loss(model, dataset, views=model.cfg.views)
    assert np.isfinite(value)
    assert dataset_loss(model, dataset, views=model.cfg.views) == value
    total = 0.0
    scenes = dataset.load_all()
    for scene in scenes:
        order = list(range(model.cfg.views))
        total += float(model.loss(scene, order).value)
    assert value == total / len(scenes)


@pytest.mark.parametrize("head,fusion", [("voxel", "mean"), ("voxel", "gru"), ("depth", "mean")])
def test_dataset_loss_without_a_graph_equals_the_recorded_loss(dataset, head, fusion):
    model = train_toy(tiny_config(head, fusion), dataset, iters=2).model
    views = model.cfg.views
    total = 0.0
    scenes = dataset.load_all()
    for scene in scenes:
        order = list(range(views))
        recorded = model.loss(scene, order)
        assert recorded.slot.parents
        with tape.no_record():
            free = model.loss(scene, order)
        assert free.slot.parents == ()
        assert float(free.value).hex() == float(recorded.value).hex()
        total += float(recorded.value)
    assert dataset_loss(model, dataset, views=views).hex() == (total / len(scenes)).hex()


def test_no_parameter_gets_a_gradient_from_an_unrecorded_loss(dataset):
    model = ToyModel.create(tiny_config("voxel", "gru"))
    with tape.no_record():
        root = model.loss(dataset.load_all()[0], [0, 1])
    with pytest.raises(ValueError, match="no_record"):
        backward(root)
    assert all(p.grad is None for p in model.parameters())


def test_train_toy_closing_loss_equals_a_recorded_forward(dataset):
    cfg = tiny_config("depth", "mean")
    result = train_toy(cfg, dataset, iters=2)
    *_, (scene, order) = train._batches(dataset.load_all(), cfg, 2)
    assert float(result.model.loss(scene, order).value).hex() == result.losses[-1].hex()
