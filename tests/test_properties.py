"""Randomized identities of the ray operators and convolution, drawn with hypothesis.

Each ray operator is linear in its feature values, so its VJP must be its
exact adjoint: <A x, y> = <x, A^T y> for every camera, including cameras
inside the grid, grazing views that see only part of the cube, and sample
points outside the image. Back-projection must invert projection.
Convolution must match a direct per-output-position sum, and its VJP must be
the adjoint in the input and in the kernel, and tape.conv's in the bias, over
non-cubic grids, size-1 axes, strides up to 3 and odd kernels wider than the
input. The scene check of tensorio.load_scene must accept and reject the
same camera sets and depth maps, with the same messages, as the array check
it replaced.
The GRU step's hand-written VJP must match central differences of the fold
over 1 to 3 views, in every input and parameter.
Examples are derandomized, so every run checks the same cases. A falsified
property must be reported as a test failure under the project's pytest
configuration.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import tape_vjp, views_of_cube_reference

from voxelstereo.diffops import (
    GeomFeatureConfig,
    bilinear_sample,
    plane_depths,
    project,
    project_vjp,
    unproject,
    unproject_vjp,
)
from voxelstereo.fusion import fuse_recurrent_node, init_gru_params
from voxelstereo.geometry import (
    Intrinsics,
    VoxelGridSpec,
    backproject,
    camera_z_range,
    look_at,
    pixel_grid,
    plane_transfer,
    project_points,
    transfer,
)
from voxelstereo.nnkit import tape
from voxelstereo.nnkit.layers import conv_forward, conv_vjp
from voxelstereo.tensorio import _check_views_of_cube

PROPERTY = settings(derandomize=True, deadline=None, database=None)

seeds = st.integers(0, 2**32 - 1)


def coords(lo, hi):
    return st.tuples(*[st.floats(lo, hi)] * 3).map(np.array)


@st.composite
def cameras(draw):
    """A pinhole camera of at most 8x8 pixels looking toward the unit cube."""
    if draw(st.booleans()):
        position = draw(coords(-0.45, 0.45))  # inside the grid
    else:
        position = draw(coords(-3.0, 3.0))
        assume(np.abs(position).max() > 0.6)
    # targets near the cube faces give grazing views that see part of it
    target = draw(coords(-0.8, 0.8))
    assume(np.linalg.norm(target - position) > 0.1)
    width, height = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    focal = draw(st.floats(0.5, 2.0)) * width
    cam = Intrinsics(fx=focal, fy=focal, cx=(width - 1) / 2, cy=(height - 1) / 2,
                     width=width, height=height)
    return cam, look_at(position, target)


def assert_adjoint(ax, y, x, aty):
    lhs = float(np.sum(ax * y))
    rhs = float(np.sum(x * aty))
    scale = max(1.0, float(np.abs(ax).ravel() @ np.abs(y).ravel()))
    assert abs(lhs - rhs) <= 1e-12 * scale, (lhs, rhs)


@PROPERTY
@given(seed=seeds, h=st.integers(1, 8), w=st.integers(1, 8), c=st.integers(1, 3))
def test_bilinear_sample_adjoint(seed, h, w, c):
    # the sampler has no public VJP: its adjoint S.T runs inside
    # unproject_vjp, checked by test_unproject_adjoint. This checks the
    # sampler's edge rule on the same random maps and points.
    rng = np.random.default_rng(seed)
    fmap = rng.standard_normal((h, w, c))
    # a margin of two pixels puts some points outside, some on the border
    pts = rng.uniform([-2.0, -2.0], [w + 1.0, h + 1.0], (20, 2))
    vals = bilinear_sample(fmap, pts)
    u, v = pts[:, 0], pts[:, 1]
    outside = (u < 0) | (u > w - 1) | (v < 0) | (v > h - 1)
    assert (vals[outside] == 0).all()


@PROPERTY
@given(seed=seeds, camera=cameras(), v=st.integers(1, 8), geom=st.booleans())
def test_unproject_adjoint(seed, camera, v, geom):
    cam, pose = camera
    spec = VoxelGridSpec(resolution=v)
    gcfg = GeomFeatureConfig(geometric=geom)
    rng = np.random.default_rng(seed)
    fmap = rng.standard_normal((cam.height, cam.width, 2))
    grid = unproject(fmap, cam, pose, spec, gcfg)
    up = rng.standard_normal(grid.shape)
    # geometric channels do not depend on fmap, so only feature channels pair
    assert_adjoint(grid[..., :2], up[..., :2], fmap,
                   unproject_vjp(fmap, cam, pose, spec, gcfg, up))


@PROPERTY
@given(seed=seeds, camera=cameras(), v=st.integers(1, 8))
def test_project_adjoint(seed, camera, v):
    cam, pose = camera
    rng = np.random.default_rng(seed)
    grid = rng.standard_normal((v, v, v, 2))
    rays = project(grid, cam, pose)
    up = rng.standard_normal(rays.shape)
    assert_adjoint(rays, up, grid, project_vjp(grid, cam, pose, up))


@PROPERTY
@given(seed=seeds, camera=cameras())
def test_project_points_inverts_backproject(seed, camera):
    cam, pose = camera
    rng = np.random.default_rng(seed)
    uv = rng.uniform(-5.0, 13.0, (4, 5, 2))  # in and out of the image
    z = rng.uniform(0.05, 5.0, (4, 5))
    uv_back, z_back, _ = project_points(backproject(uv, z, cam, pose).reshape(-1, 3), cam, pose)
    np.testing.assert_allclose(uv_back, uv.reshape(-1, 2), rtol=0, atol=1e-9)
    np.testing.assert_allclose(z_back, z.ravel(), rtol=1e-12, atol=0)


@PROPERTY
@given(camera=cameras(), other=cameras(), n_planes=st.integers(1, 40))
def test_plane_transfer_matches_backproject_and_project_points(camera, other, n_planes):
    # the sweep's pixel -> pixel map over its own planes, against the
    # pixel -> world -> pixel path it replaces
    cam, pose = camera
    ocam, opose = other
    z, _ = plane_depths(pose, n_planes)
    a, b = plane_transfer(cam, pose, ocam, opose)
    uv, valid = transfer(a, b, z, ocam)
    pts = backproject(pixel_grid(cam).reshape(-1, 2), z[:, None], cam, pose)
    uv_ref, _, valid_ref = project_points(pts.reshape(-1, 3), ocam, opose)
    assert uv.shape == uv_ref.shape and valid.shape == valid_ref.shape
    # a point on the image border (as when both cameras are one) is inside
    # or outside by the last bit of either path; any other keeps its validity
    on_border = np.zeros(len(uv), dtype=bool)
    for coord, size in ((uv_ref[:, 0], ocam.width), (uv_ref[:, 1], ocam.height)):
        on_border |= (np.abs(coord) <= 1e-9) | (np.abs(coord - (size - 1)) <= 1e-9)
    np.testing.assert_array_equal(valid[~on_border], valid_ref[~on_border])
    both = valid & valid_ref
    np.testing.assert_allclose(uv[both], uv_ref[both], rtol=0, atol=1e-9)


def _f32_step(x, toward):
    return np.nextafter(np.float32(x), np.float32(toward))


@st.composite
def views_of_cube(draw):
    """One to four cameras around the unit cube, with depth maps at its range ends.

    Cameras sit 1.6 to 3.5 from the origin, look near it and have focal
    lengths of 0.4 to 1.0 image widths, so that some see the whole cube and
    some do not. Each view holds up to three depths, each at, just inside or
    just outside an end of its camera's float32 depth range, and 0 elsewhere.
    """
    width, height = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    cameras, depths = [], np.zeros((draw(st.integers(1, 4)), height, width), dtype=np.float32)
    for view in depths:
        direction = draw(coords(-1.0, 1.0))
        assume(np.linalg.norm(direction) > 0.1)
        position = direction / np.linalg.norm(direction) * draw(st.floats(1.6, 3.5))
        focal = draw(st.floats(0.4, 1.0)) * width
        cam = Intrinsics(fx=focal, fy=focal, cx=(width - 1) / 2, cy=(height - 1) / 2,
                         width=width, height=height)
        pose = look_at(position, draw(coords(-0.3, 0.3)))
        cameras.append((cam, pose))
        near, far = np.float32(camera_z_range(pose))
        ends = [near, _f32_step(near, np.inf), _f32_step(near, 0.0),
                far, _f32_step(far, 0.0), _f32_step(far, np.inf)]
        values = draw(st.lists(st.sampled_from(ends), max_size=3))
        view.flat[:len(values)] = values
    return cameras, depths


@PROPERTY
@given(scene=views_of_cube())
def test_views_of_cube_check_matches_the_array_reference(scene):
    cameras, depths = scene
    messages = []
    for check in (_check_views_of_cube, views_of_cube_reference):
        try:
            check("scene", cameras, depths)
            messages.append(None)
        except ValueError as e:
            messages.append(str(e))
    assert messages[0] == messages[1]


@st.composite
def convs(draw):
    """Shapes of a 1D-3D same-padded convolution: (spatial, kspatial, c_in, c_out, stride)."""
    nd = draw(st.integers(1, 3))
    spatial = tuple(draw(st.integers(1, 6)) for _ in range(nd))
    kspatial = tuple(draw(st.sampled_from([1, 3, 5])) for _ in range(nd))
    return (spatial, kspatial, draw(st.integers(1, 3)), draw(st.integers(1, 3)),
            draw(st.integers(1, 3)))


def conv_reference(x, kernel, stride):
    """Same-padded cross-correlation summed directly at every output position."""
    nd = x.ndim - 1
    kspatial = kernel.shape[:nd]
    pads = [k // 2 for k in kspatial]
    xp = np.pad(x, [(p, p) for p in pads] + [(0, 0)])
    out = [(n - k) // stride + 1 for n, k in zip(xp.shape[:nd], kspatial)]
    y = np.zeros(out + [kernel.shape[-1]])
    for pos in np.ndindex(*out):
        window = xp[tuple(slice(i * stride, i * stride + k) for i, k in zip(pos, kspatial))]
        y[pos] = np.tensordot(window, kernel, axes=nd + 1)
    return y


@PROPERTY
@given(seed=seeds, shapes=convs())
def test_conv_matches_direct_sum_and_vjp_is_adjoint(seed, shapes):
    spatial, kspatial, c_in, c_out, stride = shapes
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(spatial + (c_in,))
    kernel = rng.standard_normal(kspatial + (c_in, c_out))
    bias = rng.standard_normal(c_out)
    y = conv_forward(x, kernel, bias, stride)
    ref = conv_reference(x, kernel, stride) + bias
    assert y.shape == ref.shape
    np.testing.assert_allclose(y, ref, rtol=1e-12, atol=1e-12)

    up = rng.standard_normal(y.shape)
    grad_x, grad_k = conv_vjp(x, kernel, stride, "same", up)
    assert grad_x.shape == x.shape and grad_k.shape == kernel.shape
    linear = conv_forward(x, kernel, None, stride)
    assert_adjoint(linear, up, x, grad_x)
    assert_adjoint(linear, up, kernel, grad_k)
    grad_b = tape_vjp(lambda b: tape.conv(tape.TapeNode(x), tape.TapeNode(kernel), b, stride),
                      bias, up)
    assert_adjoint(np.broadcast_to(bias, y.shape), up, bias, grad_b)


@settings(PROPERTY, max_examples=50)
@given(seed=seeds, spatial=st.tuples(*[st.integers(1, 3)] * 3), c_in=st.integers(1, 3),
       c_h=st.integers(1, 3), k=st.integers(1, 3))
def test_gru_fold_vjp_matches_central_differences(seed, spatial, c_in, c_h, k):
    # the first step runs from the zero state and each later one from h, so
    # k >= 2 checks both VJPs; each input and parameter is moved along one
    # random direction. Over 400 random draws the largest error was 7e-6.
    rng = np.random.default_rng(seed)
    params = init_gru_params(c_in, c_h, rng)
    for p in params.values():
        p.value = p.value + 0.3 * rng.standard_normal(p.value.shape)
    grids = [tape.TapeNode(rng.standard_normal((*spatial, c_in))) for _ in range(k)]
    u = rng.standard_normal((*spatial, c_h))
    h = fuse_recurrent_node(grids, params)
    tape.backward(tape.TapeNode(np.sum(h.value * u), (h,), lambda g: (g * u,)))
    step = 1e-6
    for node in [*grids, *params.values()]:
        d = rng.standard_normal(node.value.shape)
        # a one-view fold leaves the reset gate without a gradient
        analytic = 0.0 if node.grad is None else float(np.sum(node.grad * d))
        start = node.value
        ends = []
        for sign in (1.0, -1.0):
            node.value = start + sign * step * d
            with tape.no_record():
                ends.append(float(np.sum(fuse_recurrent_node(grids, params).value * u)))
        node.value = start
        numeric = (ends[0] - ends[1]) / (2 * step)
        assert abs(numeric - analytic) <= 1e-4 * max(1.0, abs(analytic)), (numeric, analytic)


def test_failing_property_is_reported_as_a_failure(tmp_path):
    # pytest turns warnings into errors; hypothesis's failure report must not
    # turn that into an INTERNALERROR that stops the run
    (tmp_path / "test_probe.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_falsified(n):
            assert n < 0

        def test_passes():
            pass
    """))
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "-p", "no:cacheprovider", "-q",
         str(tmp_path / "test_probe.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout
