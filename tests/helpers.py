"""Shared numeric oracles for the test suite."""

import numpy as np
from scipy.ndimage import minimum_filter

from voxelstereo import classical, diffops, geometry, synthgen
from voxelstereo.nnkit import layers, tape


def fd_gradient(func, x, step=1e-3):
    """Central finite-difference gradient of a scalar function, elementwise.

    64-bit arithmetic; func must accept an array of x.shape and return a
    float.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.copy().reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + step
        hi = func(xf.reshape(x.shape))
        xf[i] = orig - step
        lo = func(xf.reshape(x.shape))
        xf[i] = orig
        flat[i] = (hi - lo) / (2 * step)
    return grad


def max_rel_error(analytic, reference):
    """Max elementwise deviation, relative to the reference's magnitude."""
    analytic = np.asarray(analytic, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    scale = max(1.0, float(np.abs(reference).max(initial=0.0)))
    return float(np.abs(analytic - reference).max(initial=0.0)) / scale


def assert_vjp_matches_fd(func, vjp, x, upstream, tol=1e-4, step=1e-3):
    """Check <func(x), upstream> gradient against central differences."""
    upstream = np.asarray(upstream, dtype=np.float64)
    analytic = vjp(x, upstream)
    fd = fd_gradient(lambda xp: float(np.sum(func(xp) * upstream)), x, step=step)
    err = max_rel_error(analytic, fd)
    assert err < tol, f"VJP mismatch: max relative error {err:.3e} >= {tol}"


def TapeDot(node, u):
    """<node, u> as a tape op, so that backward hands `node` exactly u (1.0 * u)."""
    return tape.TapeNode((node.value * u).sum(), (node,), lambda g: (g * u,))


def tape_vjp(op, x, u):
    """The cotangent the tape op `op` hands its input x when its output's is u."""
    leaf = tape.TapeNode(x)
    tape.backward(TapeDot(op(leaf), u))
    return leaf.grad


def _one_minus(a):
    return tape.TapeNode(1.0 - a.value, (a,), lambda g: (-g,))


# Tape ops that the package composes only inside fusion.gru_step_node's one
# op, written as the separate ops the reference fold and the tape tests use.

def tape_mul(a, b):
    av, bv = a.value, b.value
    return tape.TapeNode(av * bv, (a, b), lambda g: (g * bv, g * av))


def tape_sigmoid(a):
    """Keeps its output, not its input."""
    s = layers.sigmoid(a.value)
    return tape.TapeNode(s, (a,), lambda g: (g * s * (1.0 - s),))


def tape_tanh(a):
    t = np.tanh(a.value)
    return tape.TapeNode(t, (a,), lambda g: (g * (1.0 - t * t),))


def tape_layer_norm_channels(x, gain, shift):
    gv = gain.value
    y, xhat, var = layers.layer_norm_channels(x.value, gv, shift.value)
    return tape.TapeNode(y, (x, gain, shift),
                         lambda g: layers.layer_norm_channels_vjp(xhat, var, gv, g))


def joined_concat(nodes):
    """Channel concatenation as one joined array, split back in the VJP."""
    splits = np.cumsum([n.value.shape[-1] for n in nodes])[:-1]
    return tape.TapeNode(np.concatenate([n.value for n in nodes], axis=-1), tuple(nodes),
                         lambda g: np.split(g, splits, axis=-1))


def gru_fold_reference(grids, params):
    """fusion.fuse_recurrent_node as it was written with separate tape ops.

    One conv per gate, each reading a joined copy of its input, not channel
    blocks; the blend h' = (1 - z) * h + z * c is one_minus, two muls and an
    add, so the graph keeps 1 - z, both concatenated copies and every
    activation; the first step, from the zero state, convolves x with the x
    rows of each kernel alone. The fold's one op per step must give the same
    bytes, in its value and every gradient.
    """
    def preact(xh, gate, rows=None):
        p = f"gru.{gate}."
        kernel = params[p + "kernel"]
        if rows is not None:
            kernel = tape.take(kernel, slice(0, rows), axis=3)
        return tape_layer_norm_channels(tape.conv(xh, kernel, params[p + "bias"]),
                                        params[p + "ln_gain"], params[p + "ln_shift"])

    h = None
    for x in grids:
        if h is None:
            c_in = x.value.shape[-1]
            z = tape_sigmoid(preact(x, "update", rows=c_in))
            h = tape_mul(z, tape_tanh(preact(x, "candidate", rows=c_in)))
            continue
        xh = joined_concat([x, h])
        z = tape_sigmoid(preact(xh, "update"))
        r = tape_sigmoid(preact(xh, "reset"))
        c = tape_tanh(preact(joined_concat([x, tape_mul(r, h)]), "candidate"))
        h = tape.add(tape_mul(_one_minus(z), h), tape_mul(z, c))
    return h


def bilinear_corners_reference(fmap_shape, pts, valid=True):
    """diffops._bilinear_corners as it was written with a broadcast where= zeroing.

    The corner table's bytes must not depend on how the dropped weights
    are zeroed.
    """
    h, w = fmap_shape[0], fmap_shape[1]
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    u, v = pts[:, 0], pts[:, 1]
    uc = np.fmin(np.fmax(u, 0), w - 1) + 0.0
    vc = np.fmin(np.fmax(v, 0), h - 1) + 0.0
    keep = (uc == u) & (vc == v) & valid
    u0 = np.minimum(uc.astype(np.int64), max(w - 2, 0))
    v0 = np.minimum(vc.astype(np.int64), max(h - 2, 0))
    du, dv = uc - u0, vc - v0
    step_u, step_v = min(1, w - 1), w * min(1, h - 1)
    lin = (v0 * w + u0) + np.array([[0], [step_u], [step_v], [step_v + step_u]])
    weights = np.stack([(1 - du) * (1 - dv), du * (1 - dv), (1 - du) * dv, du * dv])
    np.copyto(weights, 0.0, where=~keep)
    return lin, weights


def plane_sweep_reference(ref_image, other_images, ref_camera, other_cameras, n_planes):
    """classical.plane_sweep_depth as it was written plane by plane.

    One plane-induced transfer, one CSR sample, one 2D window score and
    one minimum_filter window check per plane and other view, and a full
    np.sort for the best k views; the chunked sweep must return the same
    bytes.
    """
    cam, pose = ref_camera
    h, w = cam.height, cam.width
    ref = classical.to_grayscale(ref_image)
    grays = [classical.to_grayscale(im) for im in other_images]
    z_planes, spacing = diffops.plane_depths(pose, n_planes)
    score = classical.window_zncc(ref)
    score_volume = np.full((n_planes, h, w), -np.inf)
    for k_plane, z in enumerate(z_planes):
        view_scores = np.full((len(grays), h, w), -np.inf)
        for j, (gray, (ocam, opose)) in enumerate(zip(grays, other_cameras)):
            a, b = geometry.plane_transfer(cam, pose, ocam, opose)
            uv, sample_ok = geometry.transfer(a, b, [z], ocam)
            warped = diffops._bilinear_matrix(gray.shape, uv) @ gray.reshape(-1, 1)
            window_ok = minimum_filter(sample_ok.reshape(h, w).astype(np.uint8),
                                       size=classical._WINDOW, mode="constant") > 0
            view_scores[j] = np.where(window_ok, score(warped.reshape(h, w)), -np.inf)
        k = min(classical._TOP_K_VIEWS, len(grays))
        ranked = -np.sort(-view_scores, axis=0)[:k]
        top_sum = np.where(np.isfinite(ranked), ranked, 0.0).sum(axis=0)
        score_volume[k_plane] = np.where(np.isfinite(ranked[0]), top_sum / k, -np.inf)

    valid = np.isfinite(score_volume).any(axis=0)
    best_k = np.argmax(score_volume, axis=0)
    best_score = np.take_along_axis(score_volume, best_k[None], axis=0)[0]
    depth = z_planes[best_k]
    interior = (best_k > 0) & (best_k < n_planes - 1) & valid
    km = np.clip(best_k - 1, 0, n_planes - 1)
    kp = np.clip(best_k + 1, 0, n_planes - 1)
    s_m = np.take_along_axis(score_volume, km[None], axis=0)[0]
    s_p = np.take_along_axis(score_volume, kp[None], axis=0)[0]
    refinable = interior & np.isfinite(s_m) & np.isfinite(s_p)
    s_m = np.where(refinable, s_m, 0.0)
    s_p = np.where(refinable, s_p, 0.0)
    s_0 = np.where(refinable, best_score, 0.0)
    denom = s_m - 2.0 * s_0 + s_p
    safe = refinable & (np.abs(denom) > 1e-12)
    offset = np.where(safe, 0.5 * (s_m - s_p) / np.where(safe, denom, 1.0), 0.0)
    depth += np.clip(offset, -0.5, 0.5) * spacing
    depth = np.where(valid, depth, 0.0)
    best_score = np.where(valid, best_score, 0.0)
    return depth, best_score, valid


def views_of_cube_reference(scene_dir, cameras, depths) -> None:
    """tensorio._check_views_of_cube as it was written with its own pinhole map.

    One array check over all the cameras: a (6, K, 1) intrinsics array,
    fx * x / z + cx against a clamped depth, and the corners' depth extent
    as each camera's range. The check through project_points and
    camera_z_range must accept and reject the same scenes with the same
    messages.
    """
    x_cam = np.stack([pose.transform(geometry.CUBE_CORNERS) for _, pose in cameras])
    intr = np.array([[cam.fx, cam.fy, cam.cx, cam.cy, cam.width, cam.height]
                     for cam, _ in cameras]).T[..., None]
    fx, fy, cx, cy, w, h = intr
    z = x_cam[..., 2]
    in_front = z > geometry.Z_EPS
    z_safe = np.where(in_front, z, 1.0)
    u = fx * x_cam[..., 0] / z_safe + cx
    v = fy * x_cam[..., 1] / z_safe + cy
    sees = in_front & (u >= -0.5) & (u <= w - 0.5) & (v >= -0.5) & (v <= h - 0.5)
    blind = np.flatnonzero(~sees.all(axis=1))
    if len(blind):
        i = int(blind[0])
        raise ValueError(f"{scene_dir}: camera {i} of cameras.txt does not see the whole unit "
                         f"cube: {int((~sees[i]).sum())} of its 8 corners lie behind it or "
                         f"outside its image")
    z_near, z_far = z.min(axis=1).astype(np.float32), z.max(axis=1).astype(np.float32)
    lo = np.where(depths > 0, depths, np.inf).min(axis=(1, 2))
    hi = depths.max(axis=(1, 2))
    outside = np.flatnonzero((lo < z_near) | (hi > z_far))
    if len(outside):
        i = int(outside[0])
        raise ValueError(f"{scene_dir}: view {i} of depths.lsmt holds depths in "
                         f"[{lo[i]}, {hi[i]}], outside the unit cube's depth range "
                         f"[{z_near[i]}, {z_far[i]}] in its camera")


def render_view_reference(scene, cam, pose):
    """synthgen.render_view as it was written with a boolean mask of active rays.

    Each step re-reads the mask with flatnonzero and gathers and scatters
    t through it; the live-ray renderer must return the same bytes.
    """
    h, w = cam.height, cam.width
    origin, dirs = geometry.rays_through_pixels(geometry.pixel_grid(cam).reshape(-1, 2),
                                                cam, pose)
    n = dirs.shape[0]
    t = np.zeros(n)
    active = np.ones(n, dtype=bool)
    hit = np.zeros(n, dtype=bool)
    t_max = np.linalg.norm(origin) + 2.0
    for _ in range(synthgen.MAX_MARCH_STEPS):
        if not active.any():
            break
        d = synthgen.sdf_eval(scene, origin + t[active, None] * dirs[active])
        newly_hit = d < synthgen.HIT_TOL
        idx = np.flatnonzero(active)
        hit[idx[newly_hit]] = True
        t[active] += np.maximum(d, 0.0)
        active[idx] = ~newly_hit & (t[active] <= t_max)

    points = origin + t[:, None] * dirs
    depth = np.where(hit, pose.transform(points)[:, 2], 0.0).reshape(h, w)
    image = np.ones((n, 3))
    if hit.any():
        albedo = synthgen.texture_color(scene, points[hit])
        lambert = np.clip(synthgen.sdf_normal(scene, points[hit]) @ synthgen._LIGHT_DIR,
                          0.0, 1.0)
        image[hit] = np.clip(albedo * (0.25 + 0.75 * lambert)[:, None], 0.0, 1.0)
    return image.reshape(h, w, 3), depth
