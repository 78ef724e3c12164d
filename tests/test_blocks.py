import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncause import autodiff as ad
from dyncause import blocks
from dyncause import model as mdl

from reference_model import gru_step, reference_forward
from test_autodiff import central_diff_grad, rel_err
from test_model import assert_matches_reference


def cell_params(rng, d, h):
    """One cell's fused w (d, 3h) and u (h, 3h), drawn, and zero b (3h,)."""
    return (rng.uniform(-0.7, 0.7, (d, 3 * h)), rng.uniform(-0.7, 0.7, (h, 3 * h)),
            np.zeros(3 * h))


def gates(w, u, b):
    """The per-gate blocks of a fused cell: (W_z, W_r, W_h), (U_z, ...), (b_z, ...)."""
    h = u.shape[0]
    split = lambda a: [a[..., k * h:(k + 1) * h] for k in range(3)]
    return split(w), split(u), split(b)


def run_cell(w, u, b, series, h0):
    """``gru_sequence`` at one cell and one row: series (T, d), h0 (h,);
    returns the (T, h) states and the leaves of the five inputs."""
    tape = ad.Tape()
    series = np.asarray(series, dtype=np.float64)
    leaves = [tape.leaf(series), tape.leaf(h0), tape.leaf(w[None]), tape.leaf(u[None]),
              tape.leaf(b[None])]
    t_len, d = series.shape
    out = blocks.gru_sequence(ad.reshape(leaves[0], (t_len, 1, d)),
                              ad.reshape(leaves[1], (1, len(h0))), *leaves[2:])
    return ad.reshape(out, (t_len, len(h0))), leaves


def sum_of_squares(t):
    return ad.reduce_sum(ad.hadamard(t, t))


def one_step(w, u, b, x, h_prev):
    out, _ = run_cell(w, u, b, np.asarray(x)[None], h_prev)
    return out.data[0]


class TestGruStep:
    def test_all_zero_parameters(self):
        h_prev = np.array([0.4, -1.0, 2.0])
        out = one_step(np.zeros((2, 9)), np.zeros((3, 9)), np.zeros(9), [5.0, -3.0], h_prev)
        # z = sigmoid(0) = 0.5, candidate = tanh(0) = 0, so h = 0.5 * h_prev
        np.testing.assert_allclose(out, 0.5 * h_prev, rtol=1e-15)

    def test_zero_state_zero_recurrent(self):
        rng = np.random.default_rng(0)
        w, u, b = rng.standard_normal((2, 9)), np.zeros((3, 9)), np.zeros(9)
        (w_z, _, w_h), _, _ = gates(w, u, b)
        x = np.array([0.7, -0.2])
        out = one_step(w, u, b, x, np.zeros(3))
        # h_prev = 0: h = (1 - z) * tanh(W_h x); z in (0,1) cannot flip the sign
        z = 1.0 / (1.0 + np.exp(-(x @ w_z)))
        np.testing.assert_allclose(out, (1 - z) * np.tanh(x @ w_h), rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        w, u, _ = cell_params(rng, 3, 4)
        b = rng.uniform(-0.5, 0.5, 12)
        inputs = [rng.standard_normal((1, 3)), rng.standard_normal(4), w, u, b]
        out, leaves = run_cell(w, u, b, inputs[0], inputs[1])
        grads = out.tape.backward(sum_of_squares(out))
        for pos, name in enumerate(["x", "h", "w", "u", "b"]):
            def loss(v, pos=pos):
                args = [v if k == pos else a for k, a in enumerate(inputs)]
                out, _ = run_cell(args[2], args[3], args[4], args[0], args[1])
                return sum_of_squares(out).data.item()

            got = grads.wrt(leaves[pos])
            got = got if pos < 2 else got[0]
            assert rel_err(got, central_diff_grad(loss, inputs[pos])) < 1e-4, name

    def test_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            one_step(np.zeros((2, 9)), np.zeros((3, 9)), np.zeros(9), [1.0, 2.0, 3.0],
                     np.zeros(3))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_output_is_convex_combination(self, seed):
        rng = np.random.default_rng(seed)
        w, u, b = cell_params(rng, 2, 5)
        x = rng.standard_normal(2) * 2
        h_prev = rng.standard_normal(5) * 2
        out = one_step(w, u, b, x, h_prev)
        # recompute the candidate to get the other endpoint
        (w_z, w_r, w_h), (u_z, u_r, u_h), (b_z, b_r, b_h) = gates(w, u, b)
        z = 1.0 / (1.0 + np.exp(-(x @ w_z + h_prev @ u_z + b_z)))
        r = 1.0 / (1.0 + np.exp(-(x @ w_r + h_prev @ u_r + b_r)))
        c = np.tanh(x @ w_h + (r * h_prev) @ u_h + b_h)
        lo = np.minimum(h_prev, c) - 1e-12
        hi = np.maximum(h_prev, c) + 1e-12
        assert np.all(out >= lo) and np.all(out <= hi)


class TestGruUnroll:
    def test_single_step_equals_step_from_zero(self):
        rng = np.random.default_rng(1)
        w, u, _ = cell_params(rng, 2, 3)
        b = rng.uniform(-0.5, 0.5, 9)
        x = rng.standard_normal((1, 2))
        out, _ = run_cell(w, u, b, x, np.zeros(3))
        np.testing.assert_allclose(out.data[0], gru_step(w, u, b, x[0], np.zeros(3)),
                                   rtol=1e-14)

    def test_zero_series_zero_biases_stays_zero(self):
        rng = np.random.default_rng(2)
        w, u, b = cell_params(rng, 2, 3)
        out, _ = run_cell(w, u, b, np.zeros((5, 2)), np.zeros(3))
        np.testing.assert_array_equal(out.data, np.zeros((5, 3)))

    def test_three_steps_match_manual_composition(self):
        # one call over three steps == three one-step calls, each started
        # from the state the previous one returned
        rng = np.random.default_rng(3)
        w, u, b = cell_params(rng, 2, 4)
        series = rng.standard_normal((3, 2))
        unrolled, _ = run_cell(w, u, b, series, np.zeros(4))
        h = np.zeros(4)
        for t in range(3):
            h = one_step(w, u, b, series[t], h)
            np.testing.assert_allclose(unrolled.data[t], h, rtol=1e-12, atol=1e-15)

    def test_empty_series_rejected(self):
        w, u, b = cell_params(np.random.default_rng(4), 2, 3)
        with pytest.raises(ad.ShapeError, match="empty series"):
            run_cell(w, u, b, np.zeros((0, 2)), np.zeros(3))


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
    """The propagation rule D^-1/2 (A + lam I) D^-1/2 that every GCN uses."""

    def test_self_loop_only_reduces_to_dense(self):
        # no edges: propagation is the identity, so the GCN is a dense layer
        prop = blocks.normalized_propagation_matrix(np.zeros((4, 4)), 1.0)
        np.testing.assert_array_equal(prop, np.eye(4))

    def test_all_ones_two_nodes_hand_computed(self):
        prop = blocks.normalized_propagation_matrix(np.ones((2, 2)), 0.0)
        np.testing.assert_allclose(prop, [[0.5, 0.5], [0.5, 0.5]], rtol=1e-15)
        h = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(prop @ h, [[2.0, 3.0], [2.0, 3.0]], rtol=1e-14)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 6))
    def test_permutation_equivariance(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0, 1, (n, n))
        p = np.eye(n)[rng.permutation(n)]
        prop = blocks.normalized_propagation_matrix(a, 0.5)
        prop_p = blocks.normalized_propagation_matrix(p @ a @ p.T, 0.5)
        np.testing.assert_allclose(prop_p, p @ prop @ p.T, rtol=1e-12, atol=1e-15)

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
        with pytest.raises(ad.ShapeError, match="square"):
            blocks.normalized_propagation_matrix(np.ones((3, 4)), 1.0)

    def test_degenerate_row_sum_rejected(self):
        with pytest.raises(ValueError):
            blocks.normalized_propagation_matrix(np.zeros((3, 3)), 0.0)

    def test_gradient_matches_finite_differences(self):
        # the encoder GCN mixes the N hidden states; its gradient back into
        # the GRU bank, read at the cell biases, must match the masks' own
        rng = np.random.default_rng(5)
        stack = random_stack(rng, share=False)
        x = rng.standard_normal((2, 3, 4, 1))
        assert_model_gradients(stack, x, ["enc_w", "gru_b"], rng)


def random_stack(rng, share, n=3, d=1, h=3, phi="tanh"):
    """A small stack with every array drawn, biases included."""
    config = mdl.ModelConfig(hidden=h, share_encoder=share, phi=phi)
    stack = mdl.build_node_models(n, d, config, 0)
    for arr in stack.arrays().values():
        arr[...] = rng.uniform(-0.8, 0.8, arr.shape)
    return stack


def assert_model_gradients(stack, x, names, rng):
    """The tape gradient of a random probe of ``batched_forward``'s masks and
    predictions, w.r.t. each named array, matches central differences."""
    tape = ad.Tape()
    out = mdl.batched_forward(stack, x, tape)
    probes = (rng.standard_normal(out.masks.shape),
              rng.standard_normal(out.predictions.shape))

    def probe_root(out):
        tape = out.tape
        return ad.add(ad.reduce_sum(ad.hadamard(out.masks, tape.constant(probes[0]))),
                      ad.reduce_sum(ad.hadamard(out.predictions, tape.constant(probes[1]))))

    grads = tape.backward(probe_root(out))
    for name in names:
        def loss(v, name=name):
            out = mdl.batched_forward(replace(stack, **{name: v}), x, ad.Tape())
            return probe_root(out).data.item()

        fd = central_diff_grad(loss, getattr(stack, name))
        assert rel_err(grads.wrt(out.leaves[name]), fd) < 1e-6, name


def gated_pool_arrays(rng, n=2, n_in=3, g=4, d=2, h=3):
    """gate (n, g, n_in) in (0, 1), x_prev (n_in, g, d), w (n, d, h),
    b (n, 1, h) and prop (n, n_in), in ``gated_pool`` argument order."""
    return [rng.uniform(0.05, 0.95, (n, g, n_in)), rng.standard_normal((n_in, g, d)),
            rng.uniform(-0.8, 0.8, (n, d, h)), rng.uniform(-0.8, 0.8, (n, 1, h)),
            rng.uniform(0.1, 1.0, (n, n_in))]


def gated_pool_on_tape(arrays, phi, gate_needs=True):
    """(pooled, gate, w, b) with gate, w and b on a fresh tape."""
    gate, x_prev, w, b, prop = arrays
    tape = ad.Tape()
    leaves = [tape.leaf(gate) if gate_needs else tape.constant(gate),
              tape.leaf(w), tape.leaf(b)]
    pooled = blocks.gated_pool(leaves[0], x_prev, leaves[1], leaves[2], prop, phi)
    return (pooled, *leaves)


class TestGatedPool:
    """The decoder's first layer and NGCN pooling, one fused op."""

    def test_matches_definition(self):
        rng = np.random.default_rng(50)
        gate, x_prev, w, b, prop = arrays = gated_pool_arrays(rng)
        pooled = gated_pool_on_tape(arrays, "tanh")[0].data
        n, g, n_in = gate.shape
        for i in range(n):
            for t in range(g):
                want = sum(prop[i, j] * np.tanh(gate[i, t, j] * x_prev[j, t] @ w[i] + b[i, 0])
                           for j in range(n_in))
                np.testing.assert_allclose(pooled[i, t], want, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("gate_needs", [True, False])
    @pytest.mark.parametrize("phi", sorted(ad.ACTIVATIONS))
    def test_gradient_matches_finite_differences(self, phi, gate_needs):
        # at d = 2 the gate scales a vector, so d gate sums over d; a
        # constant gate (the mask override) takes no gradient at all
        rng = np.random.default_rng(51)
        arrays = gated_pool_arrays(rng)
        probe = rng.standard_normal((2, 4, 3))
        pooled, *leaves = gated_pool_on_tape(arrays, phi, gate_needs)
        grads = pooled.tape.backward(
            ad.reduce_sum(ad.hadamard(pooled, pooled.tape.constant(probe))))
        for leaf, pos, name in zip(leaves, (0, 2, 3), ("gate", "w", "b")):
            def loss(v, pos=pos):
                args = [v if k == pos else a for k, a in enumerate(arrays)]
                return float(np.sum(gated_pool_on_tape(args, phi)[0].data * probe))

            want = (central_diff_grad(loss, arrays[pos]) if leaf.needs
                    else np.zeros_like(arrays[pos]))
            assert rel_err(grads.wrt(leaf), want) < 1e-7, name

    def test_overflowed_pre_activation_raises(self):
        # tanh(inf) = 1 would hide the overflow; the pre-activation is checked
        rng = np.random.default_rng(52)
        arrays = gated_pool_arrays(rng)
        arrays[1] = np.full_like(arrays[1], 10.0)
        arrays[2] = np.full_like(arrays[2], 1e308)
        with pytest.raises(ad.NumericError, match="gated_pool"):
            gated_pool_on_tape(arrays, "tanh")

    def test_tape_freed_without_cycle_collection(self):
        # as for gru_sequence: the backward closure holds arrays and flags,
        # never a tensor, which would keep its tape and buffers alive
        def run():
            pooled, *_ = gated_pool_on_tape(
                gated_pool_arrays(np.random.default_rng(53)), "tanh")
            tape = pooled.tape
            cells = tape._backward[pooled.idx].__closure__
            assert not any(isinstance(c.cell_contents, (ad.Tensor, ad.Tape)) for c in cells)
            tape.backward(ad.reduce_sum(pooled))
            return weakref.ref(tape)

        gc.disable()
        try:
            assert run()() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("share", [False, True])
    @pytest.mark.parametrize("phi", sorted(ad.ACTIVATIONS))
    def test_model_gradients_every_activation(self, phi, share):
        # mmg_w2's gradient reaches the encoder through d gate
        rng = np.random.default_rng(54)
        stack = random_stack(rng, share, phi=phi)
        x = rng.standard_normal((2, 3, 4, 1))
        assert_model_gradients(stack, x, ["rl_w", "rl_b", "mmg_w2"], rng)


class TestMlp:
    """The encoder's MMG and the decoder's MLP layers inside the model."""

    def test_identity_single_layer(self):
        # phi = "identity" turns every hidden activation of the model linear
        stack = mdl.build_node_models(3, 2, mdl.ModelConfig(hidden=4, phi="identity"), 8)
        x = np.random.default_rng(8).standard_normal((2, 3, 5, 2))
        assert_matches_reference(stack, x)
        _, preds = mdl.forward_full(stack, x)
        _, tanh_preds = reference_forward(
            replace(stack, config=replace(stack.config, phi="tanh")), x)
        assert not np.allclose(preds.values, tanh_preds)

    def test_zero_weights_sigmoid_output(self):
        # the gates are sigmoid(a1 W2 + b2): zero output weights give 0.5
        # whatever the GRU bank, GCN and first MMG layer compute
        rng = np.random.default_rng(0)
        stack = random_stack(rng, share=False)
        stack.mmg_w2[...] = 0.0
        stack.mmg_b2[...] = 0.0
        masks, _ = mdl.forward_full(stack, rng.standard_normal((1, 3, 5, 1)))
        np.testing.assert_array_equal(masks.values, np.full((1, 4, 3, 3), 0.5))

    def test_two_layer_gradient_check(self):
        # the decoder's two-layer output MLP
        rng = np.random.default_rng(9)
        stack = random_stack(rng, share=True)
        x = rng.standard_normal((2, 3, 4, 1))
        assert_model_gradients(stack, x, ["tip_w1", "tip_b1", "tip_w2", "tip_b2"], rng)

    def test_input_dim_mismatch(self):
        stack = mdl.build_node_models(3, 1, mdl.ModelConfig(hidden=4), 0)
        with pytest.raises(ad.ShapeError):
            mdl.forward_full(stack, np.zeros((1, 3, 5, 2)))


class TestGradientSuite:
    """Finite-difference checks over random draws for every block."""

    @pytest.mark.parametrize("draw", range(10))
    def test_gru_step_random_draws(self, draw):
        rng = np.random.default_rng(100 + draw)
        w, u, b = cell_params(rng, 2, 3)
        x0, h0 = rng.standard_normal((1, 2)), rng.standard_normal(3)

        def loss(w):
            out, _ = run_cell(w, u, b, x0, h0)
            return sum_of_squares(out).data.item()

        out, leaves = run_cell(w, u, b, x0, h0)
        grads = out.tape.backward(sum_of_squares(out))
        assert rel_err(grads.wrt(leaves[2])[0], central_diff_grad(loss, w)) < 1e-4

    @pytest.mark.parametrize("draw", range(10))
    def test_gcn_and_mlp_random_draws(self, draw):
        # the GCNs and MLPs of encoder and decoder; even draws per node, odd
        # draws with a shared encoder
        rng = np.random.default_rng(200 + draw)
        stack = random_stack(rng, share=bool(draw % 2), n=2)
        x = rng.standard_normal((2, 2, 4, 1))
        assert_model_gradients(stack, x, ["enc_w", "mmg_w1", "mmg_b1", "mmg_w2", "mmg_b2",
                                          "rl_w", "rl_b", "ngcn_w"], rng)
