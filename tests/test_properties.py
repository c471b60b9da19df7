"""Randomized identities of the ray operators, drawn with hypothesis.

Each operator is linear in its feature values, so its VJP must be its exact
adjoint: <A x, y> = <x, A^T y> for every camera, including cameras inside
the grid, grazing views that see only part of the cube, and sample points
outside the image. Back-projection must invert projection. Examples are
derandomized, so every run checks the same cases.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from voxelstereo.diffops import (
    GeomFeatureConfig,
    bilinear_sample,
    bilinear_sample_vjp,
    project,
    project_vjp,
    unproject,
    unproject_vjp,
)
from voxelstereo.geometry import Intrinsics, VoxelGridSpec, backproject, look_at, project_points

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
    rng = np.random.default_rng(seed)
    fmap = rng.standard_normal((h, w, c))
    # a margin of two pixels puts some points outside, some on the border
    pts = rng.uniform([-2.0, -2.0], [w + 1.0, h + 1.0], (20, 2))
    up = rng.standard_normal((20, c))
    vals, valid = bilinear_sample(fmap, pts)
    assert (vals[~valid] == 0).all()
    assert_adjoint(vals, up, fmap, bilinear_sample_vjp(fmap, pts, up))


@PROPERTY
@given(seed=seeds, camera=cameras(), v=st.integers(1, 8), geom=st.booleans())
def test_unproject_adjoint(seed, camera, v, geom):
    cam, pose = camera
    spec = VoxelGridSpec(resolution=v)
    gcfg = GeomFeatureConfig(append_depth=geom, append_ray_dir=geom)
    rng = np.random.default_rng(seed)
    fmap = rng.standard_normal((cam.height, cam.width, 2))
    grid = unproject(fmap, cam, pose, spec, gcfg)
    up = rng.standard_normal(grid.shape)
    # geometric channels do not depend on fmap, so only feature channels pair
    assert_adjoint(grid[..., :2], up[..., :2], fmap,
                   unproject_vjp(fmap, cam, pose, spec, gcfg, up))


@PROPERTY
@given(seed=seeds, camera=cameras(), v=st.integers(1, 8), n_planes=st.integers(1, 8),
       interp=st.sampled_from(["nearest", "trilinear"]))
def test_project_adjoint(seed, camera, v, n_planes, interp):
    cam, pose = camera
    spec = VoxelGridSpec(resolution=v)
    rng = np.random.default_rng(seed)
    grid = rng.standard_normal((v, v, v, 2))
    rays = project(grid, spec, cam, pose, n_planes, interp)
    up = rng.standard_normal(rays.shape)
    assert_adjoint(rays, up, grid, project_vjp(grid, spec, cam, pose, n_planes, interp, up))


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
