"""Grid fusion semantics and reverse-mode composition checks."""

import gc
import itertools
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from helpers import (
    TapeDot,
    fd_gradient,
    gru_fold_reference,
    max_rel_error,
    tape_layer_norm_channels,
    tape_mul,
    tape_sigmoid,
    tape_tanh,
)

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

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_nan_and_infinities_as_a_sorted_stack(self, k):
        rng = np.random.default_rng(k)
        grids = [rng.standard_normal((4, 4, 4, 2)) for _ in range(k)]
        grids[0][0, 0, 0] = np.nan
        grids[-1][1, 1, 1] = np.inf
        grids[k // 2][1, 1, 1, 0] = -np.inf
        grids[-1][2, 2, 2, 1] = -np.inf
        grids[0][3, 3, 3, 1] = np.nan
        grids[-1][3, 3, 3, 1] = np.inf
        with np.errstate(invalid="ignore"):  # inf + -inf
            want = np.sort(np.stack(grids), axis=0).sum(axis=0) / k
            got = mean(grids)
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()
        assert np.isinf(got).any()

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_blocks_and_a_ragged_tail_are_bitwise_a_sorted_stack(self, k):
        rng = np.random.default_rng(20 + k)
        shape = (3, 17, 19, 101)  # 97,869 elements: two whole blocks and a ragged third
        assert 2 * tape._MEAN_BLOCK < np.prod(shape) < 3 * tape._MEAN_BLOCK
        grids = [rng.standard_normal(shape) for _ in range(k)]
        want = np.sort(np.stack(grids), axis=0).sum(axis=0) / k
        assert mean(grids).tobytes() == want.tobytes()

    def test_nan_infinities_and_signed_zeros_in_every_block(self):
        rng = np.random.default_rng(26)
        grids = [rng.standard_normal((3, 17, 19, 101)) for _ in range(4)]
        flat = [g.reshape(-1) for g in grids]
        block = tape._MEAN_BLOCK
        # in the first block, across the first boundary, in the middle and tail blocks
        anchors = [10, block - 2, 2 * block + 10, flat[0].size - 5]
        for p in anchors:
            flat[0][p] = np.nan
            flat[1][p + 1] = np.inf
            flat[2][p + 2] = -np.inf
            flat[3][p + 3], flat[1][p + 3] = np.inf, -np.inf  # inf + -inf
            for sign, f in zip([-0.0, 0.0, -0.0, -0.0], flat):  # zeros of both signs only
                f[p + 4] = sign
        with np.errstate(invalid="ignore"):
            want = np.sort(np.stack(grids), axis=0).sum(axis=0) / 4
            got = mean(grids)
        nan = np.isnan(want)
        assert nan.sum() == 2 * len(anchors)
        np.testing.assert_array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()
        assert np.isinf(got).sum() == 2 * len(anchors)
        zeros = got.reshape(-1)[[p + 4 for p in anchors]]
        assert not zeros.any() and not np.signbit(zeros).any()  # the sum starts from +0.0

    @pytest.mark.parametrize("k", [2, 4, 5])
    def test_scratch_is_k_plus_one_blocks_not_grids(self, k):
        rng = np.random.default_rng(27)
        shape = (17, 16, 16, 64)  # 8.5 blocks
        nodes = leaves(rng.standard_normal(shape) for _ in range(k))
        grid_bytes = nodes[0].value.nbytes
        block_bytes = tape._MEAN_BLOCK * 8
        slack = 64 * 1024  # views, lists, the node and its slot
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = tape.mean_stack(nodes)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert out.value.nbytes == grid_bytes
        # one grid of scratch would exceed this bound
        assert (k + 1) * block_bytes + slack < grid_bytes
        assert peak <= grid_bytes + (k + 1) * block_bytes + slack, peak

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
            return tape_mul(diff, diff), h_node

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
            return layers.layer_norm_channels(pre, gain, shift)[0]

        z = layers.sigmoid(preact("update", h))
        r = layers.sigmoid(preact("reset", h))
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
    def test_a_k_view_fold_runs_2k_minus_1_gate_convs_and_3k_minus_1_norms(self, k,
                                                                            monkeypatch):
        # the gates that read the same input run as one conv: update and
        # candidate from the zero state, update and reset after it
        calls = {"conv_forward": 0, "layer_norm_channels": 0}
        for name in calls:
            def counted(*args, _f=getattr(layers, name), _name=name):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(layers, name, counted)
        rng = np.random.default_rng(13)
        params = init_gru_params(3, 2, rng=rng)
        fuse_recurrent_node(leaves(rng.standard_normal((3, 3, 3, 3)) for _ in range(k)), params)
        assert calls == {"conv_forward": 2 * k - 1, "layer_norm_channels": 3 * k - 1}


class TestFoldAgainstReference:
    """The fold is one op per step, whose VJP rebuilds the activations; the
    reference is separate tape ops, one conv per gate over a whole
    concatenation, blended with one_minus, mul and add."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_value_and_every_gradient_equal_the_reference_as_bytes(self, k):
        def run(fold):
            params = init_gru_params(20, 16, rng=np.random.default_rng(30))
            rng = np.random.default_rng(31)
            grids = leaves(rng.standard_normal((6, 5, 4, 20)) for _ in range(k))
            h = fold(grids, params)
            tape.backward(TapeDot(h, rng.standard_normal(h.value.shape)))
            grads = {name: None if p.grad is None else p.grad.tobytes()
                     for name, p in params.items()}
            return h.value.tobytes(), grads, [g.grad.tobytes() for g in grids]

        h, grads, grid_grads = run(fuse_recurrent_node)
        h_ref, grads_ref, grid_grads_ref = run(gru_fold_reference)
        assert h == h_ref
        assert grads.keys() == grads_ref.keys() and len(grads) == 12
        for name in grads_ref:
            assert grads[name] == grads_ref[name], name
        assert (grads["gru.reset.kernel"] is None) == (k == 1)
        assert grid_grads == grid_grads_ref

    def test_a_recorded_fold_holds_no_concatenated_copy(self):
        # 3 views at 16^3, 20 -> 16 channels. Held beyond the inputs, in
        # states of 16 channels: each gate's normalized pre-activation xhat
        # (two in step 1, three in each later step) and its variance (1/16
        # of a state), and each step's result. That is 11.5 states. The
        # fold of separate tape ops held 21: in place of xhat, step 1 kept
        # two conv outputs, z and c, and each later step three conv outputs,
        # z, r, c and r * h. One whose convs kept whole concatenations held
        # 30: in place of r * h, each later step kept two 36-channel copies
        # and 1 - z.
        params = init_gru_params(20, 16, rng=np.random.default_rng(32))
        rng = np.random.default_rng(33)
        grids = leaves(rng.standard_normal((16, 16, 16, 20)) for _ in range(3))
        state_bytes = 16 ** 3 * 16 * 8
        tracemalloc.start()
        try:
            h = fuse_recurrent_node(grids, params)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert h.value.nbytes == state_bytes
        assert held <= 12 * state_bytes

    def test_a_recorded_fold_peaks_without_a_joined_copy(self):
        # The same fold as above: each gate conv reads the blocks [x, h], so
        # no step writes a 36-channel joined copy (2.25 states) on top of
        # what it holds. A fold that writes the two joined copies peaked at
        # 28.2 states, the fold of separate tape ops at 22.9, this one at
        # 17.3.
        params = init_gru_params(20, 16, rng=np.random.default_rng(32))
        rng = np.random.default_rng(33)
        grids = leaves(rng.standard_normal((16, 16, 16, 20)) for _ in range(3))
        state_bytes = 16 ** 3 * 16 * 8
        tracemalloc.start()
        try:
            fuse_recurrent_node(grids, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 18 * state_bytes

    def test_a_fold_and_its_backward_peak_below_23_states(self):
        # The same fold, then backward. Each step's VJP drops each array it
        # holds once read, the gates that read one input run as one conv,
        # and each conv frees its padded rows before it copies its output
        # out: the peak read 22.0 states. The fold of separate tape ops
        # peaked at 27.8; one conv per gate, with the padded rows held
        # through the output copy, at 29.2.
        params = init_gru_params(20, 16, rng=np.random.default_rng(32))
        rng = np.random.default_rng(33)
        grids = leaves(rng.standard_normal((16, 16, 16, 20)) for _ in range(3))
        target = rng.standard_normal((16, 16, 16, 16))
        state_bytes = 16 ** 3 * 16 * 8
        tracemalloc.start()
        try:
            h = fuse_recurrent_node(grids, params)
            tape.backward(TapeDot(h, target))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 23 * state_bytes


# Feature maps of the model's encoder width, unprojected into 6^3 grids with
# the geometric channels: 16 + 4 = 20 channels, the GRU's input width.
UNPROJECT_CAM = Intrinsics(fx=12.0, fy=12.0, cx=3.5, cy=3.5, width=8, height=8)
UNPROJECT_SPEC = VoxelGridSpec(resolution=6)
UNPROJECT_GEOM = GeomFeatureConfig(geometric=True)
UNPROJECT_POSES = [look_at(eye, [0, 0, 0]) for eye in
                   ([0.4, 0.7, -1.9], [1.8, 0.3, 0.6], [-1.2, 0.9, 1.3], [-0.5, -1.6, -1.0])]


def unprojected(fmap, pose):
    """The tape node of fmap unprojected through UNPROJECT_CAM at pose."""
    return tape.unproject(fmap, UNPROJECT_CAM, pose, UNPROJECT_SPEC, UNPROJECT_GEOM)


class TestFoldOverUnprojectedGrids:
    """Each step holds a recorded unproject's rebuild in place of its grid."""

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_value_and_every_gradient_equal_a_fold_over_leaf_copies_as_bytes(self, k):
        rng = np.random.default_rng(40)
        maps = [rng.standard_normal((8, 8, 16)) for _ in range(k)]
        u = rng.standard_normal((6, 6, 6, 16))
        poses = UNPROJECT_POSES[:k]

        def run(over_nodes):
            params = init_gru_params(20, 16, rng=np.random.default_rng(41))
            fmaps = leaves(maps)
            if over_nodes:
                grids = (unprojected(f, pose) for f, pose in zip(fmaps, poses))
            else:
                grids = leaves(unprojected(f, pose).value.copy()
                               for f, pose in zip(fmaps, poses))
            h = fuse_recurrent_node(grids, params)
            tape.backward(TapeDot(h, u))
            grads = {name: None if p.grad is None else p.grad.tobytes()
                     for name, p in params.items()}
            if over_nodes:
                map_grads = [f.grad for f in fmaps]
            else:  # the unproject VJP, applied by hand to each leaf's gradient
                map_grads = [diffops.unproject_vjp(m, UNPROJECT_CAM, pose, UNPROJECT_SPEC,
                                                   UNPROJECT_GEOM, g.grad)
                             for m, pose, g in zip(maps, poses, grids)]
            return h.value.tobytes(), grads, [g.tobytes() for g in map_grads]

        h, grads, map_grads = run(over_nodes=True)
        h_ref, grads_ref, map_grads_ref = run(over_nodes=False)
        assert h == h_ref
        assert grads == grads_ref and len(grads) == 12
        assert map_grads == map_grads_ref

    def test_each_step_rebuilds_its_grid_once_in_backward(self, monkeypatch):
        calls = []
        unproject = diffops.unproject

        def counted(*args):
            calls.append(args[2])
            return unproject(*args)

        monkeypatch.setattr(diffops, "unproject", counted)
        rng = np.random.default_rng(42)
        params = init_gru_params(20, 16, rng=rng)
        fmaps = leaves(rng.standard_normal((8, 8, 16)) for _ in range(3))
        h = fuse_recurrent_node((unprojected(f, pose) for f, pose in zip(fmaps, UNPROJECT_POSES)),
                                params)
        assert calls == UNPROJECT_POSES[:3]
        tape.backward(TapeDot(h, rng.standard_normal(h.value.shape)))
        assert calls == UNPROJECT_POSES[:3] + UNPROJECT_POSES[2::-1]  # last step's VJP first

    def test_a_recorded_unproject_rebuilds_its_value_from_the_map_its_vjp_holds(self):
        fmap = tape.TapeNode(np.random.default_rng(43).standard_normal((8, 8, 16)))
        held = weakref.ref(fmap.value)
        node = unprojected(fmap, UNPROJECT_POSES[0])
        del fmap
        assert held() is not None
        assert node.rebuild().tobytes() == node.value.tobytes()

    def test_a_node_recorded_under_no_record_keeps_no_feature_map(self):
        fmap = tape.TapeNode(np.random.default_rng(44).standard_normal((8, 8, 16)))
        held = weakref.ref(fmap.value)
        with tape.no_record():
            node = unprojected(fmap, UNPROJECT_POSES[0])
        del fmap
        assert held() is None
        assert node.rebuild is None and node.value.shape == (6, 6, 6, 20)

    def test_an_empty_iterator_raises(self):
        params = init_gru_params(20, 16, rng=np.random.default_rng(45))
        with pytest.raises(ValueError, match="at least one grid"):
            fuse_recurrent_node(iter([]), params)

    def test_a_generator_gives_the_bits_of_a_list(self):
        rng = np.random.default_rng(46)
        arrays = [rng.standard_normal((6, 6, 6, 20)) for _ in range(3)]
        u = rng.standard_normal((6, 6, 6, 16))

        def run(as_list):
            params = init_gru_params(20, 16, rng=np.random.default_rng(47))
            grids = leaves(arrays)
            h = fuse_recurrent_node(grids if as_list else (g for g in grids), params)
            tape.backward(TapeDot(h, u))
            return ([h.value.tobytes()] + [g.grad.tobytes() for g in grids]
                    + [p.grad.tobytes() for p in params.values()])

        assert run(as_list=False) == run(as_list=True)


def TapeSum(node):
    """Scalar sum as a tape op (test-local helper)."""
    return tape.TapeNode(node.value.sum(), (node,),
                         lambda g: (np.broadcast_to(g, node.value.shape).copy(),))


class TestTape:
    def test_fanout_accumulates(self):
        x = tape.TapeNode(np.array([2.0]))
        y = tape.add(tape_mul(x, x), tape.scale(x, 3.0))  # x^2 + 3x
        tape.backward(TapeSum(y))
        np.testing.assert_allclose(x.grad, [7.0])  # 2x + 3

    def test_each_node_visited_once(self):
        x = tape.TapeNode(np.array([1.0, 2.0]))
        shared = tape_mul(x, x)
        out = tape.add(shared, shared)  # 2x^2
        tape.backward(TapeSum(out))
        np.testing.assert_allclose(x.grad, 4.0 * x.value)

    def test_backward_keeps_gradients_on_leaves_only(self):
        x = tape.TapeNode(np.array([2.0, -1.0]))
        c = tape.TapeNode(np.array([3.0, 4.0]))  # a second leaf
        inner = tape_mul(x, c)
        tape.backward(TapeSum(inner))
        np.testing.assert_array_equal(x.grad, [3.0, 4.0])
        np.testing.assert_array_equal(c.grad, [2.0, -1.0])
        assert inner.grad is None

    def test_backward_releases_what_the_vjps_captured(self):
        x = tape.TapeNode(np.array([0.5, -2.0]))
        hidden = tape_tanh(x)
        root = TapeSum(tape.relu(hidden))  # tanh's VJP captures hidden's value
        captured = weakref.ref(hidden.value)
        del hidden
        tape.backward(root)
        assert captured() is None
        assert root.slot.parents == () and root.slot.vjp is None
        assert root.value == np.tanh(0.5)
        np.testing.assert_allclose(x.grad, [1.0 - np.tanh(0.5) ** 2, 0.0], rtol=1e-15)

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="before CPython 3.11 the caller's stack keeps a call's "
                               "arguments until it returns, so no VJP can free its cotangent")
    @pytest.mark.parametrize("fan_out", [False, True])
    def test_a_vjp_that_drops_its_cotangent_frees_it_before_it_returns(self, fan_out):
        # backward hands each VJP the cotangent's only reference, a sum of
        # fan-out terms included
        x = tape.TapeNode(np.array([1.0, 2.0]))
        freed = []

        def vjp(g):
            cotangent = weakref.ref(g)
            grad = 2.0 * g
            del g
            freed.append(cotangent() is None)
            return (grad,)

        mid = tape.TapeNode(2.0 * x.value, (x,), vjp)
        tape.backward(TapeSum(tape.add(mid, mid) if fan_out else mid))
        assert freed == [True]
        np.testing.assert_array_equal(x.grad, [4.0, 4.0] if fan_out else [2.0, 2.0])

    def test_second_backward_over_the_same_root_changes_no_leaf(self):
        rng = np.random.default_rng(15)
        x = tape.TapeNode(rng.standard_normal((3, 4)))
        c = tape.TapeNode(rng.standard_normal((3, 4)))
        shared = tape_mul(x, c)
        root = TapeSum(tape.add(tape_sigmoid(shared), shared))
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
        normed = tape_layer_norm_channels(x, gain, shift)
        unread = weakref.ref(normed.value)
        s = tape_sigmoid(normed)  # sigmoid's VJP captures its own output, not its input
        root = TapeSum(s)
        del normed
        assert unread() is None
        tape.backward(root)
        _, xhat, var = layers.layer_norm_channels(x.value, gain.value, shift.value)
        expected = layers.layer_norm_channels_vjp(xhat, var, gain.value,
                                                  s.value * (1.0 - s.value))
        for leaf, g in zip((x, gain, shift), expected, strict=True):
            np.testing.assert_array_equal(leaf.grad, g)

    def test_relus_input_is_freed_before_backward(self):
        rng = np.random.default_rng(19)
        x, gain, shift = leaves([rng.standard_normal((2, 3, 2, 4)),
                                 rng.standard_normal(4), rng.standard_normal(4)])
        normed = tape.instance_norm(x, gain, shift)
        unread = weakref.ref(normed.value)
        y = tape.relu(normed)  # relu's VJP captures its own output, not its input
        root = TapeSum(y)
        del normed
        assert unread() is None
        tape.backward(root)
        _, xhat, var = layers.instance_norm(x.value, gain.value, shift.value)
        expected = layers.instance_norm_vjp(xhat, var, gain.value, (y.value > 0).astype(float))
        for leaf, g in zip((x, gain, shift), expected, strict=True):
            np.testing.assert_array_equal(leaf.grad, g)

    def test_a_grid_that_is_only_scaled_is_freed_before_backward(self):
        rng = np.random.default_rng(17)
        cam = Intrinsics(fx=12.0, fy=12.0, cx=3.5, cy=3.5, width=8, height=8)
        pose = look_at([0.4, 0.7, -1.9], [0, 0, 0])
        spec = VoxelGridSpec(resolution=4)
        gcfg = GeomFeatureConfig(geometric=True)
        (fmap,) = leaves([rng.random((8, 8, 3))])
        grid = tape.unproject(fmap, cam, pose, spec, gcfg)
        unread = weakref.ref(grid.value)
        shape = grid.value.shape
        root = TapeSum(tape.scale(grid, 0.5))  # scale's VJP keeps only the factor
        del grid
        assert unread() is None
        tape.backward(root)
        upstream = np.full(shape, 0.5)  # ones, as TapeSum hands it, times the factor
        np.testing.assert_array_equal(
            fmap.grad, diffops.unproject_vjp(fmap.value, cam, pose, spec, gcfg, upstream))

    def test_grids_that_are_only_averaged_are_freed_before_backward(self):
        rng = np.random.default_rng(20)
        xs = leaves([rng.standard_normal((2, 3, 2, 4)) for _ in range(3)])
        grids = [tape.scale(x, 2.0) for x in xs]
        unread = [weakref.ref(g.value) for g in grids]
        root = TapeSum(tape.mean_stack(grids))  # mean_stack's VJP keeps only the count
        del grids
        assert all(ref() is None for ref in unread)
        tape.backward(root)
        for x in xs:
            np.testing.assert_array_equal(x.grad, np.full(x.value.shape, 2.0 / 3.0))

    def test_a_concat_holds_its_blocks_arrays_and_a_leaf_holds_an_array(self):
        a, b = leaves([np.zeros((2, 3, 4)), np.ones((2, 3, 1))])
        joined = tape.concat([a, b])
        assert joined.value[0] is a.value and joined.value[1] is b.value
        leaf = tape.TapeNode([1.0, 2.0])
        assert isinstance(leaf.value, np.ndarray) and leaf.value.dtype == np.float64

    def test_no_record_computes_the_same_values_and_keeps_no_graph(self):
        rng = np.random.default_rng(18)
        x, gain, shift = leaves([rng.standard_normal((2, 3, 2, 4)),
                                 rng.standard_normal(4), rng.standard_normal(4)])

        def forward():
            return tape_sigmoid(tape_layer_norm_channels(tape_mul(x, x), gain, shift))

        with tape.no_record():
            free = forward()
            leaf = tape.TapeNode(x.value)
        recorded = forward()
        assert free.value.tobytes() == recorded.value.tobytes()
        assert free.slot.parents == () and recorded.slot.parents
        assert leaf.slot.vjp is None  # a leaf is the same in either mode

    def test_backward_refuses_a_root_built_under_no_record(self):
        x = tape.TapeNode(np.array([1.0, -2.0]))
        with tape.no_record():
            root = TapeSum(tape_mul(x, x))
        with pytest.raises(ValueError, match="no_record"):
            tape.backward(root)
        assert x.grad is None and root.grad is None

    def test_no_record_nests_and_is_restored_after_an_exception(self):
        x = tape.TapeNode(np.array([3.0]))

        def recorded():
            return bool(tape.scale(x, 2.0).slot.parents)

        with tape.no_record():
            with tape.no_record():
                assert not recorded()
            assert not recorded()
        assert recorded()
        with pytest.raises(RuntimeError, match="inside"):
            with tape.no_record():
                raise RuntimeError("inside")
        assert recorded()

    def test_another_thread_records_while_this_one_does_not(self):
        x = tape.TapeNode(np.array([1.5, -0.5]))
        made = {}

        def other():
            made["root"] = TapeSum(tape_mul(x, x))

        with tape.no_record():
            worker = threading.Thread(target=other)
            worker.start()
            worker.join(timeout=30)
            mine = tape_mul(x, x)
        assert not worker.is_alive()
        assert mine.slot.parents == ()
        tape.backward(made["root"])
        np.testing.assert_array_equal(x.grad, 2.0 * x.value)

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

    @pytest.mark.parametrize("axis", [3, 5, -4])
    def test_take_refuses_an_axis_outside_the_rank(self, axis):
        # axis % ndim would read axis 0 for 3 and axis 2 for 5 and -4
        with pytest.raises(ValueError, match=f"axis {axis} is out of range for an array of 3"):
            tape.take(tape.TapeNode(np.zeros((2, 3, 4))), 0, axis)
