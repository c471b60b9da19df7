"""Grid fusion semantics and reverse-mode composition checks."""

import gc
import itertools
import weakref

import numpy as np
import pytest

from helpers import TapeDot, fd_gradient, max_rel_error

from voxelstereo import diffops
from voxelstereo.diffops import GeomFeatureConfig
from voxelstereo.fusion import (
    fuse_recurrent_node,
    gru_step_node,
    init_gru_params,
)
from voxelstereo.geometry import Intrinsics, VoxelGridSpec, look_at
from voxelstereo.nnkit import layers, tape


def zeroed(params):
    for name, p in params.items():
        p.value[...] = 1.0 if name.endswith(".ln_gain") else 0.0
    return params


def leaves(arrays):
    """One leaf tape node per array: tape ops take nodes only."""
    return [tape.TapeNode(a) for a in arrays]


def mean(grids):
    """Pointwise fusion as the model runs it: tape.mean_stack."""
    return tape.mean_stack(leaves(grids)).value


class TestFusePointwise:
    def test_single_grid_identity(self):
        g = np.random.default_rng(0).random((4, 4, 4, 2))
        np.testing.assert_array_equal(mean([g]), g)

    def test_bitwise_permutation_invariance(self):
        rng = np.random.default_rng(1)
        grids = [rng.random((3, 3, 3, 2)) for _ in range(5)]
        base = mean(grids)
        for _ in range(10):
            perm = rng.permutation(5)
            out = mean([grids[i] for i in perm])
            assert out.tobytes() == base.tobytes()

    def test_signed_zeros_are_bitwise_invariant_over_every_order(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 3, 3, 2))
        b = rng.standard_normal((3, 3, 3, 2))
        b[..., 0] = -a[..., 0]  # pairs that cancel to an exact zero
        a[0, 0, 0] = b[0, 0, 0] = -0.0  # voxels that hold only zeros of both signs
        grids = [np.full_like(a, -0.0), np.zeros_like(a), a, b]
        base = mean(grids)
        for perm in itertools.permutations(range(4)):
            assert mean([grids[i] for i in perm]).tobytes() == base.tobytes(), perm
        # one +0.0 among the summands makes the zero sum +0.0
        assert not np.signbit(base[0, 0, 0]).any()

    def test_mean_of_constants(self):
        a = np.full((2, 2, 2, 1), 1.0)
        b = np.full((2, 2, 2, 1), 3.0)
        np.testing.assert_array_equal(mean([a, b]), 2.0)

    def test_errors(self):
        with pytest.raises(ValueError, match="at least one"):
            mean([])
        with pytest.raises(ValueError, match="same shape"):
            mean([np.zeros((2, 2, 2, 1)), np.zeros((3, 3, 3, 1))])


class TestGruStep:
    def test_zero_weights_halve_state(self):
        params = zeroed(init_gru_params(2, 2, rng=np.random.default_rng(0)))
        h = np.random.default_rng(1).random((3, 3, 3, 2))
        x = np.zeros((3, 3, 3, 2))
        out = gru_step_node(tape.TapeNode(h), tape.TapeNode(x), params).value
        # zero pre-activations: z = 0.5, candidate = 0, h' = 0.5 h
        np.testing.assert_allclose(out, 0.5 * h, atol=1e-12)

    def test_closed_update_gate_freezes_state(self):
        params = zeroed(init_gru_params(2, 2, rng=np.random.default_rng(0)))
        params["gru.update.ln_shift"].value[...] = -50.0  # z -> 0
        h = np.random.default_rng(2).random((3, 3, 3, 2))
        x = np.random.default_rng(3).random((3, 3, 3, 2))
        out = gru_step_node(tape.TapeNode(h), tape.TapeNode(x), params).value
        np.testing.assert_allclose(out, h, atol=1e-12)

    def test_open_update_gate_overwrites_state(self):
        rng = np.random.default_rng(4)
        params = init_gru_params(2, 2, rng=rng)
        params["gru.update.ln_shift"].value[...] = 50.0   # z -> 1: h' = candidate
        params["gru.reset.ln_shift"].value[...] = -50.0   # r -> 0: candidate ignores h
        grids = [rng.random((3, 3, 3, 2)) for _ in range(3)]
        out = fuse_recurrent_node(leaves(grids), params).value
        # full overwrite: result depends only on the last view
        grids2 = [rng.random((3, 3, 3, 2)) for _ in range(2)] + [grids[-1]]
        out2 = fuse_recurrent_node(leaves(grids2), params).value
        np.testing.assert_allclose(out, out2, atol=1e-9)

    def test_single_view_zero_weights(self):
        params = zeroed(init_gru_params(2, 2, rng=np.random.default_rng(0)))
        out = fuse_recurrent_node(leaves([np.zeros((3, 3, 3, 2))]), params).value
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_outputs_finite(self):
        rng = np.random.default_rng(5)
        params = init_gru_params(3, 4, rng=rng)
        grids = [10.0 * rng.standard_normal((4, 4, 4, 3)) for _ in range(4)]
        out = fuse_recurrent_node(leaves(grids), params).value
        assert np.isfinite(out).all()

    def test_gradcheck_all_parameters_and_input(self):
        rng = np.random.default_rng(6)
        params = init_gru_params(2, 2, rng=rng)
        h = rng.standard_normal((3, 3, 3, 2)) * 0.5
        x = rng.standard_normal((3, 3, 3, 2)) * 0.5
        target = rng.standard_normal((3, 3, 3, 2))

        def loss_value():
            h_node = tape.TapeNode(h)
            out = gru_step_node(h_node, tape.TapeNode(x), params)
            diff = tape.add(out, tape.TapeNode(-target))
            return tape.mul(diff, diff), h_node

        sq, h_node = loss_value()
        loss = TapeSum(sq)
        tape.backward(loss)
        # layer norm over 2 channels has strong curvature; step 1e-4 keeps
        # the O(h^2) truncation below the 1e-3 tolerance
        for name, p in params.items():
            def f(v, p=p):
                old = p.value.copy()
                p.value = v
                out = gru_step_node(tape.TapeNode(h), tape.TapeNode(x), params).value
                p.value = old
                return float(((out - target) ** 2).sum())
            fd = fd_gradient(f, p.value.copy(), step=1e-4)
            err = max_rel_error(p.grad, fd)
            assert err < 1e-3, f"{name}: {err:.2e}"
        fd_h = fd_gradient(
            lambda v: float(((gru_step_node(tape.TapeNode(v), tape.TapeNode(x), params).value
                              - target) ** 2).sum()), h.copy(), step=1e-4)
        assert max_rel_error(h_node.grad, fd_h) < 1e-3

    def test_matches_formula_with_separate_x_and_h_rows(self):
        # pins the kernel row layout: rows [:C_in] act on x, rows [C_in:] on h
        rng = np.random.default_rng(10)
        c_in, c_h = 3, 2
        params = init_gru_params(c_in, c_h, rng=rng)
        for p in params.values():
            p.value = p.value + 0.3 * rng.standard_normal(p.value.shape)
        h = rng.standard_normal((4, 4, 4, c_h))
        x = rng.standard_normal((4, 4, 4, c_in))

        def preact(gate, state):
            k, b, gain, shift = (params[f"gru.{gate}.{name}"].value
                                 for name in ("kernel", "bias", "ln_gain", "ln_shift"))
            pre = (layers.conv_forward(x, k[..., :c_in, :], b)
                   + layers.conv_forward(state, k[..., c_in:, :]))
            return layers.layer_norm_channels(pre, gain, shift)

        def sigmoid(v):
            return tape.sigmoid(tape.TapeNode(v)).value

        z = sigmoid(preact("update", h))
        r = sigmoid(preact("reset", h))
        c = np.tanh(preact("candidate", r * h))
        expected = (1.0 - z) * h + z * c
        out = gru_step_node(tape.TapeNode(h), tape.TapeNode(x), params).value
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)


class TestZeroStateFold:
    """The fold starts from h = None, whose step skips the reset gate and h rows."""

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_bitwise_equal_to_the_fold_from_explicit_zeros(self, k):
        # the model's widths (20 -> 16 channels); with a 1-channel input BLAS
        # takes another GEMM path for the narrower kernel and the sums differ
        def run(explicit):
            params = init_gru_params(20, 16, rng=np.random.default_rng(11))
            rng = np.random.default_rng(12)
            grids = [tape.TapeNode(rng.standard_normal((6, 6, 6, 20))) for _ in range(k)]
            if explicit:
                h = tape.TapeNode(np.zeros((6, 6, 6, 16)))
                for g in grids:
                    h = gru_step_node(h, g, params)
            else:
                h = fuse_recurrent_node(grids, params)
            tape.backward(TapeDot(h, rng.standard_normal(h.value.shape)))
            # Adam reads a missing gradient (the unused reset gate at k = 1) as zeros
            grads = {name: np.zeros_like(p.value) if p.grad is None else p.grad
                     for name, p in params.items()}
            return h.value, grads, [g.grad for g in grids]

        h, grads, grid_grads = run(explicit=False)
        h_ref, grads_ref, grid_grads_ref = run(explicit=True)
        assert h.tobytes() == h_ref.tobytes()
        assert len(grads) == 12
        for name in grads_ref:
            assert grads[name].tobytes() == grads_ref[name].tobytes(), name
        for g, g_ref in zip(grid_grads, grid_grads_ref, strict=True):
            assert g.tobytes() == g_ref.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_a_k_view_fold_runs_3k_minus_1_gate_convs_and_norms(self, k, monkeypatch):
        calls = {"conv_forward": 0, "layer_norm_channels": 0}
        for name in calls:
            def counted(*args, _f=getattr(layers, name), _name=name):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(layers, name, counted)
        rng = np.random.default_rng(13)
        params = init_gru_params(3, 2, rng=rng)
        fuse_recurrent_node(leaves(rng.standard_normal((3, 3, 3, 3)) for _ in range(k)), params)
        assert calls == {"conv_forward": 3 * k - 1, "layer_norm_channels": 3 * k - 1}


def TapeSum(node):
    """Scalar sum as a tape op (test-local helper)."""
    return tape.TapeNode(node.value.sum(), (node,),
                         lambda g: (np.broadcast_to(g, node.value.shape).copy(),))


class TestTape:
    def test_fanout_accumulates(self):
        x = tape.TapeNode(np.array([2.0]))
        y = tape.add(tape.mul(x, x), tape.scale(x, 3.0))  # x^2 + 3x
        tape.backward(TapeSum(y))
        np.testing.assert_allclose(x.grad, [7.0])  # 2x + 3

    def test_each_node_visited_once(self):
        x = tape.TapeNode(np.array([1.0, 2.0]))
        shared = tape.mul(x, x)
        out = tape.add(shared, shared)  # 2x^2
        tape.backward(TapeSum(out))
        np.testing.assert_allclose(x.grad, 4.0 * x.value)

    def test_backward_keeps_gradients_on_leaves_only(self):
        x = tape.TapeNode(np.array([2.0, -1.0]))
        c = tape.TapeNode(np.array([3.0, 4.0]))  # a second leaf
        inner = tape.mul(x, c)
        tape.backward(TapeSum(inner))
        np.testing.assert_array_equal(x.grad, [3.0, 4.0])
        np.testing.assert_array_equal(c.grad, [2.0, -1.0])
        assert inner.grad is None

    def test_backward_releases_what_the_vjps_captured(self):
        x = tape.TapeNode(np.array([0.5, -2.0]))
        hidden = tape.tanh(x)
        root = TapeSum(tape.relu(hidden))  # relu's VJP captures hidden's value
        captured = weakref.ref(hidden.value)
        del hidden
        tape.backward(root)
        assert captured() is None
        assert root.slot.parents == () and root.slot.vjp is None
        assert root.value == np.tanh(0.5)
        np.testing.assert_allclose(x.grad, [1.0 - np.tanh(0.5) ** 2, 0.0], rtol=1e-15)

    def test_second_backward_over_the_same_root_changes_no_leaf(self):
        rng = np.random.default_rng(15)
        x = tape.TapeNode(rng.standard_normal((3, 4)))
        c = tape.TapeNode(rng.standard_normal((3, 4)))
        shared = tape.mul(x, c)
        root = TapeSum(tape.add(tape.sigmoid(shared), shared))
        tape.backward(root)
        first = [x.grad.tobytes(), c.grad.tobytes()]
        tape.backward(root)
        assert [x.grad.tobytes(), c.grad.tobytes()] == first
        assert shared.slot.parents == () and shared.grad is None

    def test_a_leaf_is_freed_by_reference_counting_alone(self):
        # a leaf's slot does not reference its node, so the graph above it
        # holds neither the node nor its value; the cyclic GC stays off
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            x = tape.TapeNode(np.array([1.0, -2.0]))
            value = weakref.ref(x.value)  # x holds it, so it dies no sooner than x
            root = TapeSum(tape.add(x, x))
            del x
            assert value() is None
            assert root.value == -2.0
        finally:
            if was_enabled:
                gc.enable()

    def test_a_norm_output_only_sigmoid_reads_is_freed_before_backward(self):
        rng = np.random.default_rng(16)
        x, gain, shift = leaves([rng.standard_normal((2, 3, 2, 4)),
                                 rng.standard_normal(4), rng.standard_normal(4)])
        normed = tape.layer_norm_channels(x, gain, shift)
        unread = weakref.ref(normed.value)
        s = tape.sigmoid(normed)  # sigmoid's VJP captures its own output, not its input
        root = TapeSum(s)
        del normed
        assert unread() is None
        tape.backward(root)
        expected = layers.layer_norm_channels_vjp(x.value, gain.value, s.value * (1.0 - s.value))
        for leaf, g in zip((x, gain, shift), expected, strict=True):
            np.testing.assert_array_equal(leaf.grad, g)

    def test_a_grid_that_only_enters_a_concat_is_freed_before_backward(self):
        rng = np.random.default_rng(17)
        cam = Intrinsics(fx=12.0, fy=12.0, cx=3.5, cy=3.5, width=8, height=8)
        pose = look_at([0.4, 0.7, -1.9], [0, 0, 0])
        spec = VoxelGridSpec(resolution=4)
        gcfg = GeomFeatureConfig(geometric=True)
        fmap, other = leaves([rng.random((8, 8, 3)), rng.random((4, 4, 4, 2))])
        grid = tape.unproject(fmap, cam, pose, spec, gcfg)
        unread = weakref.ref(grid.value)
        channels = grid.value.shape[-1]
        root = TapeSum(tape.concat([grid, other]))  # concat's VJP only splits
        del grid
        assert unread() is None
        tape.backward(root)
        upstream = np.ones((4, 4, 4, channels + 2))[..., :channels]  # as concat splits it
        np.testing.assert_array_equal(
            fmap.grad, diffops.unproject_vjp(fmap.value, cam, pose, spec, gcfg, upstream))
        np.testing.assert_array_equal(other.grad, np.ones_like(other.value))

    def test_composed_model_adjoint_identity(self):
        # whole-pipeline dot-product test on a tiny instance: for the
        # composed linear+nonlinear map, <J delta, u> must equal <delta, J^T u>
        # computed by the tape, to first order measured by central differences
        rng = np.random.default_rng(8)
        cam = Intrinsics(fx=12.0, fy=12.0, cx=3.5, cy=3.5, width=8, height=8)
        pose = look_at([0.4, 0.7, -1.9], [0, 0, 0])
        spec = VoxelGridSpec(resolution=4)
        gcfg = GeomFeatureConfig(geometric=True)
        image = rng.random((8, 8, 3))
        k1 = tape.TapeNode(rng.standard_normal((3, 3, 3, 4)) * 0.2)
        b1 = tape.TapeNode(np.zeros(4))
        k3d = tape.TapeNode(rng.standard_normal((3, 3, 3, 8, 2)) * 0.1)
        b3d = tape.TapeNode(np.zeros(2))

        def forward():
            feat = tape.relu(tape.conv(tape.TapeNode(image), k1, b1))
            grid = tape.unproject(feat, cam, pose, spec, gcfg)
            out = tape.conv(grid, k3d, b3d)
            return tape.softmax_channels(out)

        out = forward()
        up = rng.standard_normal(out.value.shape)
        tape.backward(TapeDot(out, up))
        for p, name in [(k1, "k1"), (b1, "b1"), (k3d, "k3d")]:
            def f(v, p=p):
                old = p.value.copy()
                p.value = v
                val = float((forward().value * up).sum())
                p.value = old
                return val
            fd = fd_gradient(f, p.value.copy(), step=1e-4)
            assert max_rel_error(p.grad, fd) < 1e-4, name

    def test_mean_stack_matches_pointwise_fusion(self):
        rng = np.random.default_rng(9)
        grids = [rng.random((2, 2, 2, 2)) for _ in range(4)]
        node = tape.mean_stack(leaves(grids))
        # the sorted-summand mean, accumulated over the view axis
        expected = np.sort(np.stack(grids), axis=0).sum(axis=0) / len(grids)
        assert node.value.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("index,axis", [(slice(1, 4), 3), (2, -1)])
    def test_take_adjoint_identity(self, index, axis):
        rng = np.random.default_rng(14)
        a = tape.TapeNode(rng.standard_normal((2, 3, 2, 5, 4)))
        out = tape.take(a, index, axis)
        key = (slice(None),) * (axis % 5) + (index,)
        assert out.value.tobytes() == a.value[key].tobytes()
        u = rng.standard_normal(out.value.shape)
        tape.backward(TapeDot(out, u))
        # <take(a), u> = <a, take^T(u)>, and take^T(u) is zero off the taken entries
        np.testing.assert_allclose((out.value * u).sum(), (a.value * a.grad).sum(), rtol=1e-13)
        rest = a.grad.copy()
        rest[key] = 0.0
        assert not rest.any()
        np.testing.assert_array_equal(a.grad[key], u)
