import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncause import autodiff as ad
from dyncause import blocks
from dyncause.blocks import GcnLayer, GruCell, Mlp

from test_autodiff import central_diff_grad, rel_err


def zero_cell(d, h):
    return GruCell(w=np.zeros((d, 3 * h)), u=np.zeros((h, 3 * h)), b=np.zeros(3 * h))


def gates(cell):
    """The per-gate blocks of a fused cell: (W_z, W_r, W_h), (U_z, ...), (b_z, ...)."""
    h = cell.hidden_dim
    split = lambda a: [a[..., k * h:(k + 1) * h] for k in range(3)]
    return split(cell.w), split(cell.u), split(cell.b)


class TestGruStep:
    def test_all_zero_parameters(self):
        cell = zero_cell(2, 3)
        tape = ad.Tape()
        h_prev = np.array([0.4, -1.0, 2.0])
        out = blocks.gru_step(cell, tape.leaf([5.0, -3.0]), tape.leaf(h_prev))
        # z = sigmoid(0) = 0.5, candidate = tanh(0) = 0, so h = 0.5 * h_prev
        np.testing.assert_allclose(out.data, 0.5 * h_prev, rtol=1e-15)

    def test_zero_state_zero_recurrent(self):
        rng = np.random.default_rng(0)
        cell = zero_cell(2, 3)
        cell.w = rng.standard_normal((2, 9))
        (w_z, _, w_h), _, _ = gates(cell)
        x = np.array([0.7, -0.2])
        tape = ad.Tape()
        out = blocks.gru_step(cell, tape.leaf(x), tape.leaf(np.zeros(3)))
        # h_prev = 0: h = (1 - z) * tanh(W_h x); z in (0,1) cannot flip the sign
        z = 1.0 / (1.0 + np.exp(-(x @ w_z)))
        np.testing.assert_allclose(out.data, (1 - z) * np.tanh(x @ w_h), rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        cell = GruCell.init(rng, 3, 4)
        x0 = rng.standard_normal(3)
        h0 = rng.standard_normal(4)

        names = ["w", "u", "b"]
        for name in names + ["x", "h"]:
            def loss(v, name=name):
                c = GruCell(**{n: getattr(cell, n).copy() for n in names})
                tape = ad.Tape()
                xx, hh = x0, h0
                if name == "x":
                    xx = v
                elif name == "h":
                    hh = v
                else:
                    setattr(c, name, v)
                out = blocks.gru_step(c, tape.leaf(xx), tape.leaf(hh))
                return ad.sq_l2_norm(out).data.item()

            tape = ad.Tape()
            tx, th = tape.leaf(x0), tape.leaf(h0)
            leaves = dict(zip(names, [tape.leaf(getattr(cell, n)[None]) for n in names]))
            xs = ad.reshape(tx, (1, 1, 3))
            hh = ad.reshape(th, (1, 4))
            out = blocks.gru_sequence(xs, hh, *leaves.values())
            grads = tape.backward(ad.sq_l2_norm(out))
            for name in names:
                base = getattr(cell, name)
                fd = central_diff_grad(lambda v, n=name: loss(v, n), base)
                assert rel_err(grads.wrt(leaves[name])[0], fd) < 1e-4, name
            assert rel_err(grads.wrt(tx), central_diff_grad(lambda v: loss(v, "x"), x0)) < 1e-4
            assert rel_err(grads.wrt(th), central_diff_grad(lambda v: loss(v, "h"), h0)) < 1e-4

    def test_shape_mismatch(self):
        cell = zero_cell(2, 3)
        tape = ad.Tape()
        with pytest.raises(ad.ShapeError):
            blocks.gru_step(cell, tape.leaf([1.0, 2.0, 3.0]), tape.leaf(np.zeros(3)))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_output_is_convex_combination(self, seed):
        rng = np.random.default_rng(seed)
        cell = GruCell.init(rng, 2, 5)
        x = rng.standard_normal(2) * 2
        h_prev = rng.standard_normal(5) * 2
        tape = ad.Tape()
        out = blocks.gru_step(cell, tape.leaf(x), tape.leaf(h_prev)).data
        # recompute the candidate to get the other endpoint
        (w_z, w_r, w_h), (u_z, u_r, u_h), (b_z, b_r, b_h) = gates(cell)
        z = 1.0 / (1.0 + np.exp(-(x @ w_z + h_prev @ u_z + b_z)))
        r = 1.0 / (1.0 + np.exp(-(x @ w_r + h_prev @ u_r + b_r)))
        c = np.tanh(x @ w_h + (r * h_prev) @ u_h + b_h)
        lo = np.minimum(h_prev, c) - 1e-12
        hi = np.maximum(h_prev, c) + 1e-12
        assert np.all(out >= lo) and np.all(out <= hi)


class TestGruUnroll:
    def test_single_step_equals_step_from_zero(self):
        rng = np.random.default_rng(1)
        cell = GruCell.init(rng, 2, 3)
        x = rng.standard_normal((1, 2))
        tape = ad.Tape()
        unrolled = blocks.gru_unroll(cell, tape.leaf(x))
        stepped = blocks.gru_step(cell, tape.leaf(x[0]), tape.leaf(np.zeros(3)))
        np.testing.assert_array_equal(unrolled.data, stepped.data)

    def test_zero_series_zero_biases_stays_zero(self):
        cell = zero_cell(2, 3)
        rng = np.random.default_rng(2)
        cell.w[:, 6:] = rng.standard_normal((2, 3))  # W_h
        tape = ad.Tape()
        out = blocks.gru_unroll(cell, tape.leaf(np.zeros((5, 2))))
        np.testing.assert_array_equal(out.data, np.zeros(3))

    def test_three_steps_match_manual_composition(self):
        rng = np.random.default_rng(3)
        cell = GruCell.init(rng, 2, 4)
        series = rng.standard_normal((3, 2))
        tape = ad.Tape()
        unrolled = blocks.gru_unroll(cell, tape.leaf(series))
        h = tape.leaf(np.zeros(4))
        for t in range(3):
            h = blocks.gru_step(cell, tape.leaf(series[t]), h)
        np.testing.assert_allclose(unrolled.data, h.data, rtol=1e-12, atol=1e-15)

    def test_empty_series_rejected(self):
        cell = zero_cell(2, 3)
        tape = ad.Tape()
        with pytest.raises(ad.ShapeError):
            blocks.gru_unroll(cell, tape.leaf(np.zeros((0, 2))))


def gru_arrays(rng, t_len, cells, k, d, h):
    """x_seq (T, cells*k, d), h0 (cells*k, h) and the stacked cell
    parameters w, u, b, in ``gru_sequence`` argument order."""
    return [rng.standard_normal((t_len, cells * k, d)),
            0.5 * rng.standard_normal((cells * k, h)),
            rng.uniform(-0.7, 0.7, (cells, d, 3 * h)),
            rng.uniform(-0.7, 0.7, (cells, h, 3 * h)),
            rng.uniform(-0.7, 0.7, (cells, 3 * h))]


def gru_probe_grads(arrays, probe):
    """Output of ``gru_sequence`` and the gradients of sum(out * probe) with
    respect to all five inputs."""
    tape = ad.Tape()
    leaves = [tape.leaf(a) for a in arrays]
    out = blocks.gru_sequence(*leaves)
    grads = tape.backward(ad.reduce_sum(ad.hadamard(out, tape.constant(probe))))
    return out.data, [grads.wrt(leaf) for leaf in leaves]


class TestGruRowContract:
    """gru_sequence runs B cells over M = B*k rows; row b*k + s is cell b's."""

    INPUTS = ["x_seq", "h0", "w", "u", "b"]

    def test_gradient_matches_finite_differences(self):
        t_len, cells, k, d, h = 3, 2, 2, 2, 3
        rng = np.random.default_rng(31)
        arrays = gru_arrays(rng, t_len, cells, k, d, h)
        probe = rng.standard_normal((t_len, cells * k, h))
        _, grads = gru_probe_grads(arrays, probe)

        for pos, name in enumerate(self.INPUTS):
            def loss(v, pos=pos):
                tape = ad.Tape()
                args = [tape.leaf(v if i == pos else a) for i, a in enumerate(arrays)]
                out = blocks.gru_sequence(*args)
                return float(np.sum(out.data * probe))

            fd = central_diff_grad(loss, arrays[pos])
            assert grads[pos].shape == arrays[pos].shape, name
            assert rel_err(grads[pos], fd) < 1e-7, name

    def test_folded_rows_equal_separate_calls(self):
        # one call with k rows per cell == k calls with one row per cell
        t_len, cells, k, d, h = 5, 3, 4, 2, 3
        rng = np.random.default_rng(32)
        arrays = gru_arrays(rng, t_len, cells, k, d, h)
        probe = rng.standard_normal((t_len, cells * k, h))
        out, grads = gru_probe_grads(arrays, probe)

        summed = [np.zeros_like(a) for a in arrays[2:]]
        for s in range(k):
            rows = slice(s, None, k)
            part = [arrays[0][:, rows], arrays[1][rows]] + arrays[2:]
            out_s, grads_s = gru_probe_grads(part, probe[:, rows])
            np.testing.assert_allclose(out[:, rows], out_s, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(grads[0][:, rows], grads_s[0], rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(grads[1][rows], grads_s[1], rtol=1e-12, atol=1e-15)
            for acc, g in zip(summed, grads_s[2:]):
                acc += g
        for name, g, want in zip(self.INPUTS[2:], grads[2:], summed):
            np.testing.assert_allclose(g, want, rtol=1e-12, atol=1e-14, err_msg=name)

    def test_saturated_gates_stay_finite(self):
        # exp(-x) overflows for x < -709; the sigmoid must still give 0 and,
        # with RuntimeWarnings raised as errors, must not warn
        rng = np.random.default_rng(36)
        arrays = gru_arrays(rng, 3, 2, 2, 1, 3)
        arrays[0] = np.full_like(arrays[0], -1e4)
        out, grads = gru_probe_grads(arrays, np.ones((3, 4, 3)))
        assert np.all(np.isfinite(out)) and all(np.all(np.isfinite(g)) for g in grads)

    def test_tape_freed_without_cycle_collection(self):
        # the backward closure must hold arrays, not tensors: a tensor holds
        # its tape, and a tape that only the cycle collector frees kept every
        # training step's buffers alive (about 5x peak memory)
        def run():
            rng = np.random.default_rng(37)
            arrays = gru_arrays(rng, 3, 2, 2, 1, 3)
            tape = ad.Tape()
            out = blocks.gru_sequence(tape.constant(arrays[0]),
                                      *[tape.leaf(a) for a in arrays[1:]])
            tape.backward(ad.reduce_sum(out))
            return weakref.ref(tape)

        gc.disable()
        try:
            assert run()() is None
        finally:
            gc.enable()

    # The ids name a gate block of the fused arrays: w_r is w[..., h:2h].
    # "wide": that block gains one column, so the array is 3h + 1 wide.
    # "one_cell": the array holds one cell, which would broadcast to every
    # cell and get a (B, ...) gradient; this hits every block of the array.
    # The cell count is read from w, so a one-cell w is reported as a
    # mismatch with u (the w_r and w_h cases; w_z has none).
    GATE_BLOCKS = [f"{kind}_{gate}" for kind in "wub" for gate in "zrh"]

    @pytest.mark.parametrize("block, corrupt",
                             [(b, "wide") for b in GATE_BLOCKS]
                             + [(b, "one_cell") for b in GATE_BLOCKS[1:]])
    def test_every_parameter_shape_checked(self, block, corrupt):
        h = 3
        rng = np.random.default_rng(33)
        arrays = gru_arrays(rng, 4, 2, 1, 1, h)
        pos = self.INPUTS.index(block[0])
        arr = arrays[pos]
        if corrupt == "wide":
            end = ("zrh".index(block[2]) + 1) * h
            arrays[pos] = np.concatenate([arr[..., :end], arr[..., end - 1:]], axis=-1)
        else:
            arrays[pos] = arr[:1]
        blamed = "u" if block[0] == "w" and corrupt == "one_cell" else block[0]
        tape = ad.Tape()
        with pytest.raises(ad.ShapeError, match=rf"\b{blamed} shape"):
            blocks.gru_sequence(*[tape.leaf(a) for a in arrays])

    def test_rows_must_be_a_multiple_of_the_cells(self):
        rng = np.random.default_rng(35)
        arrays = gru_arrays(rng, 4, 2, 1, 1, 3)
        arrays[0] = rng.standard_normal((4, 3, 1))
        arrays[1] = np.zeros((3, 3))
        tape = ad.Tape()
        with pytest.raises(ad.ShapeError, match="multiple"):
            blocks.gru_sequence(*[tape.leaf(a) for a in arrays])


class TestGcn:
    def test_self_loop_only_reduces_to_dense(self):
        rng = np.random.default_rng(4)
        n, din, dout = 4, 3, 2
        layer = GcnLayer.init(rng, np.zeros((n, n)), din, dout, self_loop=1.0, phi="tanh")
        h = rng.standard_normal((n, din))
        tape = ad.Tape()
        out = blocks.gcn_forward(layer, tape.leaf(h))
        np.testing.assert_allclose(out.data, np.tanh(h @ layer.w), rtol=1e-12)

    def test_all_ones_two_nodes_hand_computed(self):
        layer = GcnLayer(w=np.eye(2), adjacency=np.ones((2, 2)), self_loop=0.0, phi="identity")
        np.testing.assert_allclose(layer.prop, [[0.5, 0.5], [0.5, 0.5]], rtol=1e-15)
        h = np.array([[1.0, 2.0], [3.0, 4.0]])
        tape = ad.Tape()
        out = blocks.gcn_forward(layer, tape.leaf(h))
        np.testing.assert_allclose(out.data, [[2.0, 3.0], [2.0, 3.0]], rtol=1e-14)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 6))
    def test_permutation_equivariance(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0, 1, (n, n))
        h = rng.standard_normal((n, 3))
        perm = rng.permutation(n)
        p = np.eye(n)[perm]
        layer = GcnLayer.init(rng, a, 3, 2, self_loop=0.5)
        permuted = GcnLayer(w=layer.w, adjacency=p @ a @ p.T, self_loop=0.5, phi=layer.phi)
        out = blocks.gcn_forward(layer, ad.Tape().leaf(h)).data
        out_p = blocks.gcn_forward(permuted, ad.Tape().leaf(p @ h)).data
        np.testing.assert_allclose(out_p, p @ out, rtol=1e-10, atol=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 30))
    def test_symmetric_prop_spectral_radius_at_most_one(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0, 1, (n, n))
        a = (a + a.T) / 2
        prop = blocks.normalized_propagation_matrix(a, 1.0)
        np.testing.assert_allclose(prop, prop.T, rtol=1e-12, atol=1e-14)
        radius = np.max(np.abs(np.linalg.eigvalsh(prop)))
        assert radius <= 1.0 + 1e-10

    def test_row_count_validated(self):
        layer = GcnLayer.init(np.random.default_rng(0), np.zeros((3, 3)), 2, 2)
        with pytest.raises(ad.ShapeError):
            blocks.gcn_forward(layer, ad.Tape().leaf(np.zeros((4, 2))))

    def test_degenerate_row_sum_rejected(self):
        with pytest.raises(ValueError):
            blocks.normalized_propagation_matrix(np.zeros((3, 3)), 0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0, 1, (3, 3))
        layer = GcnLayer.init(rng, a, 2, 2)
        h0 = rng.standard_normal((3, 2))

        def loss_w(w):
            lyr = GcnLayer(w=w, adjacency=a, self_loop=1.0, phi="tanh")
            return ad.sq_l2_norm(blocks.gcn_forward(lyr, ad.Tape().leaf(h0))).data.item()

        fd = central_diff_grad(loss_w, layer.w)
        tape2 = ad.Tape()
        tw = tape2.leaf(layer.w)
        act2 = ad.tanh(ad.matmul(ad.matmul(tape2.constant(layer.prop), tape2.leaf(h0)), tw))
        grads2 = tape2.backward(ad.sq_l2_norm(act2))
        assert rel_err(grads2.wrt(tw), fd) < 1e-4


class TestNgcnRow:
    def test_matches_row_of_full_gcn(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(0, 1, (3, 3))
        layer = GcnLayer.init(rng, a, 2, 4)
        h = rng.standard_normal((3, 2))
        full = blocks.gcn_forward(layer, ad.Tape().leaf(h)).data
        for i in range(3):
            row = blocks.ngcn_row_forward(layer, i, ad.Tape().leaf(h)).data
            # gemv vs gemm BLAS kernels differ by at most an ulp
            np.testing.assert_allclose(row[0], full[i], rtol=1e-14, atol=1e-16)

    def test_self_loop_only(self):
        rng = np.random.default_rng(7)
        layer = GcnLayer.init(rng, np.zeros((3, 3)), 2, 2, self_loop=1.0)
        h = rng.standard_normal((3, 2))
        out = blocks.ngcn_row_forward(layer, 1, ad.Tape().leaf(h)).data
        np.testing.assert_allclose(out[0], np.tanh(h[1] @ layer.w), rtol=1e-12)

    def test_index_out_of_range(self):
        layer = GcnLayer.init(np.random.default_rng(0), np.zeros((3, 3)), 2, 2)
        with pytest.raises(IndexError):
            blocks.ngcn_row_forward(layer, 3, ad.Tape().leaf(np.zeros((3, 2))))


class TestMlp:
    def test_identity_single_layer(self):
        net = Mlp(weights=[np.eye(3)], biases=[np.zeros(3)], out_act="identity")
        x = np.array([1.0, -2.0, 0.5])
        out = blocks.mlp_forward(net, ad.Tape().leaf(x))
        np.testing.assert_array_equal(out.data, x)

    def test_zero_weights_sigmoid_output(self):
        net = Mlp(weights=[np.zeros((4, 2))], biases=[np.zeros(2)], out_act="sigmoid")
        out = blocks.mlp_forward(net, ad.Tape().leaf(np.random.default_rng(0).standard_normal(4)))
        np.testing.assert_array_equal(out.data, [0.5, 0.5])

    def test_two_layer_gradient_check(self):
        rng = np.random.default_rng(8)
        net = Mlp.init(rng, [3, 5, 2], hidden_act="tanh", out_act="identity")
        x0 = rng.standard_normal(3)

        def loss_w0(w):
            n2 = Mlp(weights=[w, net.weights[1]], biases=net.biases, hidden_act="tanh")
            return ad.sq_l2_norm(blocks.mlp_forward(n2, ad.Tape().leaf(x0))).data.item()

        tape = ad.Tape()
        tw = tape.leaf(net.weights[0])
        h = ad.tanh(ad.add(ad.matmul(ad.reshape(tape.leaf(x0), (1, 3)), tw),
                           tape.leaf(net.biases[0][None, :])))
        out = ad.add(ad.matmul(h, tape.leaf(net.weights[1])), tape.leaf(net.biases[1][None, :]))
        grads = tape.backward(ad.sq_l2_norm(out))
        assert rel_err(grads.wrt(tw), central_diff_grad(loss_w0, net.weights[0])) < 1e-4

    def test_input_dim_mismatch(self):
        net = Mlp.init(np.random.default_rng(0), [3, 2])
        with pytest.raises(ad.ShapeError):
            blocks.mlp_forward(net, ad.Tape().leaf(np.zeros(4)))


class TestGradientSuite:
    """Finite-difference checks over random draws for every block."""

    @pytest.mark.parametrize("draw", range(10))
    def test_gru_step_random_draws(self, draw):
        rng = np.random.default_rng(100 + draw)
        cell = GruCell.init(rng, 2, 3)
        x0, h0 = rng.standard_normal(2), rng.standard_normal(3)

        def loss(w):
            c2 = GruCell(w=w, u=cell.u, b=cell.b)
            tape = ad.Tape()
            return ad.sq_l2_norm(blocks.gru_step(c2, tape.leaf(x0), tape.leaf(h0))).data.item()

        tape = ad.Tape()
        leaves = [tape.leaf(a[None]) for a in (cell.w, cell.u, cell.b)]
        out = blocks.gru_sequence(ad.reshape(tape.leaf(x0), (1, 1, 2)),
                                  ad.reshape(tape.leaf(h0), (1, 3)), *leaves)
        grads = tape.backward(ad.sq_l2_norm(out))
        assert rel_err(grads.wrt(leaves[0])[0], central_diff_grad(loss, cell.w)) < 1e-4

    @pytest.mark.parametrize("draw", range(10))
    def test_gcn_and_mlp_random_draws(self, draw):
        rng = np.random.default_rng(200 + draw)
        a = rng.uniform(0, 1, (3, 3))
        layer = GcnLayer.init(rng, a, 2, 2)
        h0 = rng.standard_normal((3, 2))

        def loss_gcn(w):
            lyr = GcnLayer(w=w, adjacency=a, self_loop=1.0, phi="tanh")
            return ad.sq_l2_norm(blocks.gcn_forward(lyr, ad.Tape().leaf(h0))).data.item()

        tape = ad.Tape()
        tw = tape.leaf(layer.w)
        out = ad.tanh(ad.matmul(ad.matmul(tape.constant(layer.prop), tape.leaf(h0)), tw))
        grads = tape.backward(ad.sq_l2_norm(out))
        assert rel_err(grads.wrt(tw), central_diff_grad(loss_gcn, layer.w)) < 1e-4

        net = Mlp.init(rng, [4, 6, 3], out_act="sigmoid")
        x0 = rng.standard_normal(4)

        def loss_mlp(w0):
            n2 = Mlp(weights=[w0] + net.weights[1:], biases=net.biases,
                     hidden_act="tanh", out_act="sigmoid")
            return ad.sq_l2_norm(blocks.mlp_forward(n2, ad.Tape().leaf(x0))).data.item()

        tape2 = ad.Tape()
        tw0 = tape2.leaf(net.weights[0])
        h = ad.tanh(ad.add(ad.matmul(ad.reshape(tape2.leaf(x0), (1, 4)), tw0),
                           tape2.leaf(net.biases[0][None, :])))
        out2 = ad.sigmoid(ad.add(ad.matmul(h, tape2.leaf(net.weights[1])),
                                 tape2.leaf(net.biases[1][None, :])))
        grads2 = tape2.backward(ad.sq_l2_norm(out2))
        assert rel_err(grads2.wrt(tw0), central_diff_grad(loss_mlp, net.weights[0])) < 1e-4
