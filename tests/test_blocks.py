import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncause import autodiff as ad
from dyncause import blocks
from dyncause import model as mdl

from reference_model import gru_step
from test_autodiff import central_diff_grad, dot, rel_err, total
from test_model import ACTIVATION_LAYERS, assert_matches_reference


def cell_params(rng, d, h):
    """One cell's fused w = [W; b] (d+1, 3h) and u (h, 3h): W and u drawn,
    the bias row b zero."""
    w = np.zeros((d + 1, 3 * h))
    w[:d] = rng.uniform(-0.7, 0.7, (d, 3 * h))
    return w, rng.uniform(-0.7, 0.7, (h, 3 * h))


def gates(w, u):
    """The per-gate blocks of a fused cell: (W_z, W_r, W_h), (U_z, ...) and
    (b_z, ...), the bias read from w's last row."""
    h = u.shape[0]
    split = lambda a: [a[..., k * h:(k + 1) * h] for k in range(3)]
    return split(w[:-1]), split(u), split(w[-1])


def run_cell(w, u, series, h0):
    """``gru_sequence`` at one cell and one row: series (T, d), h0 (h,);
    returns the (T, 1, h) states and the leaves of the four inputs, series
    and h0 as the op reads them, (T, 1, d) and (1, h) views."""
    tape = ad.Tape()
    series = np.asarray(series, dtype=np.float64)
    leaves = [tape.leaf(series[:, None]), tape.leaf(np.asarray(h0, dtype=np.float64)[None]),
              tape.leaf(w[None]), tape.leaf(u[None])]
    return blocks.gru_sequence(*leaves), leaves


def sum_of_squares(t):
    return dot(t, t)


def one_step(w, u, x, h_prev):
    out, _ = run_cell(w, u, np.asarray(x)[None], h_prev)
    return out.data[0, 0]


class TestGruStep:
    def test_all_zero_parameters(self):
        h_prev = np.array([0.4, -1.0, 2.0])
        out = one_step(np.zeros((3, 9)), np.zeros((3, 9)), [5.0, -3.0], h_prev)
        # z = sigmoid(0) = 0.5, candidate = tanh(0) = 0, so h = 0.5 * h_prev
        np.testing.assert_allclose(out, 0.5 * h_prev, rtol=1e-15)

    def test_zero_state_zero_recurrent(self):
        rng = np.random.default_rng(0)
        w = np.vstack([rng.standard_normal((2, 9)), np.zeros(9)])  # zero bias row
        u = np.zeros((3, 9))
        (w_z, _, w_h), _, _ = gates(w, u)
        x = np.array([0.7, -0.2])
        out = one_step(w, u, x, np.zeros(3))
        # h_prev = 0: h = (1 - z) * tanh(W_h x); z in (0,1) cannot flip the sign
        z = 1.0 / (1.0 + np.exp(-(x @ w_z)))
        np.testing.assert_allclose(out, (1 - z) * np.tanh(x @ w_h), rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        w, u = cell_params(rng, 3, 4)
        w[-1] = rng.uniform(-0.5, 0.5, 12)  # the bias row's gradient is w's last row
        inputs = [rng.standard_normal((1, 3)), rng.standard_normal(4), w, u]
        out, leaves = run_cell(w, u, inputs[0], inputs[1])
        grads = out.tape.backward(sum_of_squares(out))
        for leaf in leaves[:2]:  # the series and h0 are data
            np.testing.assert_array_equal(grads.wrt(leaf), np.zeros_like(leaf.data))
        for pos, name in ((2, "w"), (3, "u")):
            def loss(v, pos=pos):
                args = [v if k == pos else a for k, a in enumerate(inputs)]
                out, _ = run_cell(args[2], args[3], args[0], args[1])
                return sum_of_squares(out).data.item()

            got = grads.wrt(leaves[pos]).reshape(inputs[pos].shape)
            assert rel_err(got, central_diff_grad(loss, inputs[pos])) < 1e-4, name

    def test_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            one_step(np.zeros((3, 9)), np.zeros((3, 9)), [1.0, 2.0, 3.0], np.zeros(3))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_output_is_convex_combination(self, seed):
        rng = np.random.default_rng(seed)
        w, u = cell_params(rng, 2, 5)
        x = rng.standard_normal(2) * 2
        h_prev = rng.standard_normal(5) * 2
        out = one_step(w, u, x, h_prev)
        # recompute the candidate to get the other endpoint
        (w_z, w_r, w_h), (u_z, u_r, u_h), (b_z, b_r, b_h) = gates(w, u)
        z = 1.0 / (1.0 + np.exp(-(x @ w_z + h_prev @ u_z + b_z)))
        r = 1.0 / (1.0 + np.exp(-(x @ w_r + h_prev @ u_r + b_r)))
        c = np.tanh(x @ w_h + (r * h_prev) @ u_h + b_h)
        lo = np.minimum(h_prev, c) - 1e-12
        hi = np.maximum(h_prev, c) + 1e-12
        assert np.all(out >= lo) and np.all(out <= hi)


class TestGruUnroll:
    def test_single_step_equals_step_from_zero(self):
        rng = np.random.default_rng(1)
        w, u = cell_params(rng, 2, 3)
        w[-1] = rng.uniform(-0.5, 0.5, 9)
        x = rng.standard_normal((1, 2))
        out, _ = run_cell(w, u, x, np.zeros(3))
        np.testing.assert_allclose(out.data[0, 0], gru_step(w, u, x[0], np.zeros(3)),
                                   rtol=1e-14)

    def test_zero_series_zero_biases_stays_zero(self):
        rng = np.random.default_rng(2)
        w, u = cell_params(rng, 2, 3)
        out, _ = run_cell(w, u, np.zeros((5, 2)), np.zeros(3))
        np.testing.assert_array_equal(out.data, np.zeros((5, 1, 3)))

    def test_three_steps_match_manual_composition(self):
        # one call over three steps == three one-step calls, each started
        # from the state the previous one returned
        rng = np.random.default_rng(3)
        w, u = cell_params(rng, 2, 4)
        series = rng.standard_normal((3, 2))
        unrolled, _ = run_cell(w, u, series, np.zeros(4))
        h = np.zeros(4)
        for t in range(3):
            h = one_step(w, u, series[t], h)
            np.testing.assert_allclose(unrolled.data[t, 0], h, rtol=1e-12, atol=1e-15)

    def test_empty_series_rejected(self):
        w, u = cell_params(np.random.default_rng(4), 2, 3)
        with pytest.raises(ad.ShapeError, match="empty series"):
            run_cell(w, u, np.zeros((0, 2)), np.zeros(3))


def gru_arrays(rng, t_len, cells, k, d, h):
    """x_seq (T, cells*k, d), h0 (cells*k, h) and the stacked cell
    parameters w = [W; b] (bias row drawn too) and u, in ``gru_sequence``
    argument order."""
    return [rng.standard_normal((t_len, cells * k, d)),
            0.5 * rng.standard_normal((cells * k, h)),
            rng.uniform(-0.7, 0.7, (cells, d + 1, 3 * h)),
            rng.uniform(-0.7, 0.7, (cells, h, 3 * h))]


def gru_probe_grads(arrays, probe):
    """Output of ``gru_sequence`` and the gradients of sum(out * probe) with
    respect to all four inputs: zeros for x_seq and h0, which are data."""
    tape = ad.Tape()
    leaves = [tape.leaf(a) for a in arrays]
    out = blocks.gru_sequence(*leaves)
    grads = tape.backward(dot(out, tape.leaf(probe)))
    return out.data, [grads.wrt(leaf) for leaf in leaves]


class TestGruRowContract:
    """gru_sequence runs B cells over M = B*k rows; row b*k + s is cell b's."""

    INPUTS = ["x_seq", "h0", "w", "u"]

    def test_gradient_matches_finite_differences(self):
        t_len, cells, k, d, h = 3, 2, 2, 2, 3
        rng = np.random.default_rng(31)
        arrays = gru_arrays(rng, t_len, cells, k, d, h)
        probe = rng.standard_normal((t_len, cells * k, h))
        _, grads = gru_probe_grads(arrays, probe)
        for pos in (0, 1):
            np.testing.assert_array_equal(grads[pos], np.zeros_like(arrays[pos]))

        for pos, name in ((2, "w"), (3, "u")):
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
            out = blocks.gru_sequence(*[tape.leaf(a) for a in arrays])
            tape.backward(total(out))
            return weakref.ref(tape)

        gc.disable()
        try:
            assert run()() is None
        finally:
            gc.enable()

    def test_states_identical_without_gradient(self):
        rng = np.random.default_rng(38)
        arrays = gru_arrays(rng, 6, 3, 4, 2, 3)
        tape = ad.Tape()
        with_grad = blocks.gru_sequence(*[tape.leaf(a) for a in arrays])
        free = ad.Tape(grad=False)
        without = blocks.gru_sequence(*[free.leaf(a) for a in arrays])
        np.testing.assert_array_equal(without.data, with_grad.data)
        assert free._backward[without.idx] is None

    def test_gradient_free_call_keeps_no_gate_history(self):
        # switch8-windows' shape: T=39 steps, B=64 cells, k=50 windows per cell.
        # The (T, 3, B, k, h) gate history would take 44.9 MB. The call may
        # hold the (T+1, B, k, h) states it returns (15.4 MB) plus three
        # one-step (3, B, k, h) gate buffers (1.2 MB each), 18.8 MB in all;
        # a T-long copy of the input with a column of ones (2.0 MB) would
        # not fit beside the call's own step buffers
        t_len, cells, k, h = 39, 64, 50, 15
        bound = ((t_len + 1) + 3 * 3) * cells * k * h * 8
        arrays = gru_arrays(np.random.default_rng(39), t_len, cells, k, 1, h)
        tape = ad.Tape(grad=False)
        inputs = [tape.leaf(a) for a in arrays]
        tracemalloc.start()
        try:
            out = blocks.gru_sequence(*inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.data.shape == (t_len, cells * k, h)
        assert peak < bound

    def test_backward_memory_bound(self):
        # var10-node's shape: T=499 steps, B=100 cells, k=1 row per cell. One
        # (T, B*k, h) state buffer takes 5.7 MiB. A forward plus backward may
        # hold the states, the upstream gradient, the (T, 3, B, k, h) gate
        # history, whose memory the gate gradients reuse, and r_t * h_{t-1}
        # for dU_h: 6 buffers, plus the step buffers. Gate gradients beside
        # the gate history would be 3 buffers more
        t_len, cells, k, h = 499, 100, 1, 15
        unit = t_len * cells * k * h * 8
        arrays = gru_arrays(np.random.default_rng(40), t_len, cells, k, 1, h)
        tape = ad.Tape()
        inputs = [tape.leaf(a) for a in arrays]
        tracemalloc.start()
        try:
            out = blocks.gru_sequence(*inputs)
            grads = tape.backward(total(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grads.wrt(inputs[3]).shape == arrays[3].shape
        assert peak < 8 * unit

    # The ids name a block of the fused arrays: w_r is w[:-1, h:2h], u_r is
    # u[..., h:2h] and b is w's last row, the bias of every gate.
    # "wide": a gate block gains one column, so the array is 3h + 1 wide;
    # b gains a second bias row (d + 2 rows).
    # "one_cell": the array holds one cell, which would broadcast to every
    # cell and get a (B, ...) gradient; this hits every block of the array.
    # The cell count is read from w, so a one-cell w is reported as a
    # mismatch with u (the w_r and w_h cases; w_z has none). For b it
    # drops the bias row (d rows, the old W-only layout).
    BLOCKS = [f"{kind}_{gate}" for kind in "wu" for gate in "zrh"] + ["b"]

    @pytest.mark.parametrize("block, corrupt",
                             [(b, "wide") for b in BLOCKS]
                             + [(b, "one_cell") for b in BLOCKS[1:]])
    def test_every_parameter_shape_checked(self, block, corrupt):
        h = 3
        rng = np.random.default_rng(33)
        arrays = gru_arrays(rng, 4, 2, 1, 1, h)
        kind = "w" if block == "b" else block[0]  # the array holding the block
        pos = self.INPUTS.index(kind)
        arr = arrays[pos]
        if block == "b":  # an extra or a missing bias row
            arrays[pos] = (np.concatenate([arr, arr[:, -1:]], axis=1) if corrupt == "wide"
                           else arr[:, :-1])
        elif corrupt == "wide":
            end = ("zrh".index(block[2]) + 1) * h
            arrays[pos] = np.concatenate([arr[..., :end], arr[..., end - 1:]], axis=-1)
        else:
            arrays[pos] = arr[:1]
        blamed = "u" if block[0] == "w" and corrupt == "one_cell" else kind
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


def encoder_gcn_arrays(rng, n_e, s_count, n=3, tt=2, h=2):
    """hs (T', n_e*N*S, h), w (n_e, h, h) and prop (N, N), in ``encoder_gcn``
    argument order. prop is not symmetric, unlike the model's, so a
    backward that mixes by prop where it needs prop^T fails."""
    return [rng.standard_normal((tt, n_e * n * s_count, h)),
            rng.uniform(-0.8, 0.8, (n_e, h, h)), rng.uniform(0.1, 1.0, (n, n))]


def encoder_gcn_on_tape(arrays):
    """(out, hs, w) with hs and w on a fresh tape."""
    hs, w, prop = arrays
    tape = ad.Tape()
    leaves = [tape.leaf(hs), tape.leaf(w)]
    return (blocks.encoder_gcn(leaves[0], leaves[1], prop), *leaves)


# the one activation the fused ops apply: the unfused steps look it up by
# name, and the test ids carry it
FUSED_PHI = ["tanh"]


def unfused_encoder_gcn(hs, w, prop, phi, g):
    """The encoder GCN as separate steps: the mix in ``gru_sequence``'s
    layout, one (N, N)@(N, S*h) product per step and encoder row, a
    transposed copy into the (n_e, S*T'*N, h) rows, the weight product and
    phi; returns the output in the op's (n_e, S*T', N*h) layout and the
    (d hs, d w) of upstream ``g``, given in that layout."""
    tt, rows, h = hs.shape
    n_e, n = w.shape[0], prop.shape[0]
    s_count = rows // (n_e * n)
    mixed = np.matmul(prop, hs.reshape(tt * n_e, n, s_count * h))
    mixed = mixed.reshape(tt, n_e, n, s_count, h).transpose(1, 3, 0, 2, 4)
    mixed = mixed.reshape(n_e, s_count * tt * n, h)
    phi_fn, phi_deriv = ad.ACTIVATIONS[phi]
    pre = np.matmul(mixed, w)
    out = phi_fn(pre, np.empty_like(pre))
    d_pre = g.reshape(out.shape) * phi_deriv(out, np.empty_like(out))
    dw = np.matmul(np.swapaxes(mixed, -1, -2), d_pre)
    d_mixed = np.matmul(d_pre, np.swapaxes(w, -1, -2))
    d_mixed = d_mixed.reshape(n_e, s_count, tt, n, h).transpose(2, 0, 3, 1, 4)
    dhs = np.matmul(prop.T, d_mixed.reshape(tt * n_e, n, s_count * h))
    return out.reshape(n_e, s_count * tt, n * h), dhs.reshape(tt, rows, h), dw


class TestEncoderGcn:
    """The encoder's GCN over the GRU states, one fused op."""

    @pytest.mark.parametrize("n_e", [1, 3])
    @pytest.mark.parametrize("s_count", [1, 3])
    @pytest.mark.parametrize("phi", FUSED_PHI)
    def test_gradient_matches_finite_differences(self, phi, s_count, n_e):
        # n_e = 1 is a shared encoder, n_e = N one encoder row per node
        rng = np.random.default_rng(60)
        arrays = encoder_gcn_arrays(rng, n_e, s_count)
        out, *leaves = encoder_gcn_on_tape(arrays)
        probe = rng.standard_normal(out.shape)
        np.testing.assert_array_equal(out.data, unfused_encoder_gcn(*arrays, phi, probe)[0])
        grads = out.tape.backward(dot(out, out.tape.leaf(probe)))
        for leaf, pos, name in zip(leaves, (0, 1), ("hs", "w")):
            def loss(v, pos=pos):
                args = [v if k == pos else a for k, a in enumerate(arrays)]
                return float(np.sum(encoder_gcn_on_tape(args)[0].data * probe))

            assert rel_err(grads.wrt(leaf), central_diff_grad(loss, arrays[pos])) < 1e-7, name

    @pytest.mark.parametrize("n_e, s_count", [(1, 1), (1, 4), (3, 1), (3, 4)])
    @pytest.mark.parametrize("phi", FUSED_PHI)
    def test_bit_equal_to_the_unfused_steps(self, phi, n_e, s_count):
        # the fused op changes where values are written, not how they are
        # summed: output and gradients match the separate steps bit for bit
        rng = np.random.default_rng(61)
        arrays = encoder_gcn_arrays(rng, n_e, s_count, n=4, tt=5, h=3)
        out, *leaves = encoder_gcn_on_tape(arrays)
        probe = rng.standard_normal(out.shape)
        grads = out.tape.backward(dot(out, out.tape.leaf(probe)))
        want, dhs, dw = unfused_encoder_gcn(*arrays, phi, probe)
        np.testing.assert_array_equal(out.data, want)
        np.testing.assert_array_equal(grads.wrt(leaves[0]), dhs)
        np.testing.assert_array_equal(grads.wrt(leaves[1]), dw)

    @pytest.mark.parametrize("n_e, s_count", [(1, 1), (1, 3), (4, 1), (4, 3)])
    @pytest.mark.parametrize("phi", FUSED_PHI)
    def test_output_identical_without_gradient(self, phi, n_e, s_count):
        # both kinds of tape run one kernel, the weight product over the
        # mix one encoder row at a time; only the backward closure differs
        rng = np.random.default_rng(66)
        hs, w, prop = encoder_gcn_arrays(rng, n_e, s_count, n=4, tt=5, h=15)
        with_grad, *_ = encoder_gcn_on_tape([hs, w, prop])
        free = ad.Tape(grad=False)
        without = blocks.encoder_gcn(free.leaf(hs), free.leaf(w), prop)
        np.testing.assert_array_equal(without.data, with_grad.data)
        want = unfused_encoder_gcn(hs, w, prop, phi, np.zeros_like(with_grad.data))[0]
        np.testing.assert_array_equal(without.data, want)
        assert free._backward[without.idx] is None

    def test_gradient_tape_call_keeps_no_second_buffer(self):
        # var10-node's shape: n_e = N = 10, S = 1, T' = 499, h = 15. The
        # product goes over the mix on a gradient tape too, and the backward
        # recomputes the mix from hs: the call holds its output, not the
        # mix beside it as well (2 outputs). The backward runs one encoder
        # row at a time: beside the output and d hs it holds one row of the
        # mix and of tanh' * g, not the whole of each (3 outputs, with the mix
        # kept from the forward)
        n_e, s_count, n, tt, h = 10, 1, 10, 499, 15
        unit = n_e * s_count * tt * n * h * 8
        hs, w, prop = encoder_gcn_arrays(np.random.default_rng(67), n_e, s_count, n, tt, h)
        tape = ad.Tape()
        inputs = [tape.leaf(hs), tape.leaf(w)]
        tracemalloc.start()
        try:
            out = blocks.encoder_gcn(*inputs, prop)
            held = tracemalloc.get_traced_memory()[0]
            grads = tape.backward(total(out))  # a broadcast 1: g takes no memory
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert held < 1.5 * unit
        assert grads.wrt(inputs[0]).shape == hs.shape
        assert peak < 2.5 * unit

    @pytest.mark.parametrize("name, corrupt", [
        ("hs", lambda hs, w, prop: (hs[..., :1], w, prop)),  # h differs from w's
        ("hs", lambda hs, w, prop: (hs[:, :-1], w, prop)),  # rows not n_e*N*S
        ("hs", lambda hs, w, prop: (hs[0], w, prop)),
        ("w", lambda hs, w, prop: (hs, w[0], prop)),
        pytest.param("w", lambda hs, w, prop: (hs, np.concatenate([w, w], axis=2), prop),
                     id="w-not_square"),
        ("prop", lambda hs, w, prop: (hs, w, prop[:, :2])),
    ])
    def test_bad_shape_named(self, name, corrupt):
        rng = np.random.default_rng(63)
        arrays = corrupt(*encoder_gcn_arrays(rng, 3, 2))
        with pytest.raises(ad.ShapeError, match=rf"encoder_gcn: {name} shape"):
            encoder_gcn_on_tape(list(arrays))

    def test_overflowed_pre_activation_raises(self):
        # tanh(inf) = 1 would hide the overflow; the pre-activation is checked
        rng = np.random.default_rng(64)
        arrays = encoder_gcn_arrays(rng, 3, 2)
        arrays[0] = np.full_like(arrays[0], 10.0)
        arrays[1] = np.full_like(arrays[1], 1e308)
        with pytest.raises(ad.NumericError, match="encoder_gcn"):
            encoder_gcn_on_tape(arrays)

    def test_tape_freed_without_cycle_collection(self):
        # as for gru_sequence: the backward closure holds arrays, never a
        # tensor, which would keep its tape and buffers alive
        def run():
            out, *_ = encoder_gcn_on_tape(encoder_gcn_arrays(np.random.default_rng(65), 3, 2))
            tape = out.tape
            cells = tape._backward[out.idx].__closure__
            assert not any(isinstance(c.cell_contents, (ad.Tensor, ad.Tape)) for c in cells)
            tape.backward(total(out))
            return weakref.ref(tape)

        gc.disable()
        try:
            assert run()() is None
        finally:
            gc.enable()


class TestGcn:
    """The complete-graph GCN that mixes the encoder's N hidden states."""

    def test_gradient_matches_finite_differences(self):
        # the encoder GCN mixes the N hidden states; its gradient back into
        # the GRU bank, read at the cell weights and bias rows, must match
        # the masks' own
        rng = np.random.default_rng(5)
        stack = random_stack(rng, share=False)
        x = rng.standard_normal((2, 3, 4, 1))
        assert_model_gradients(stack, x, ["enc_w", "gru_w"], rng)


def random_stack(rng, share, n=3, d=1, h=3):
    """A small stack with every array drawn, biases included."""
    config = mdl.ModelConfig(hidden=h, share_encoder=share)
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
        return dot(out.masks, tape.leaf(probes[0]),
                   out.predictions, tape.leaf(probes[1]))

    grads = tape.backward(probe_root(out))
    for name in names:
        def loss(v, name=name):
            out = mdl.batched_forward(replace(stack, **{name: v}), x, ad.Tape())
            return probe_root(out).data.item()

        fd = central_diff_grad(loss, getattr(stack, name))
        assert rel_err(grads.wrt(out.leaves[name]), fd) < 1e-6, name


def gated_pool_arrays(rng, n=2, n_in=3, g=4, d=2, h=3):
    """gate (n, g, n_in) in (0, 1), x_prev (n_in, g, d), w = [W; b]
    (n, d+1, h), bias row drawn too, the NGCN weight v (n, h, h) and prop
    (n, n_in), in ``gated_pool`` argument order."""
    return [rng.uniform(0.05, 0.95, (n, g, n_in)), rng.standard_normal((n_in, g, d)),
            rng.uniform(-0.8, 0.8, (n, d + 1, h)), rng.uniform(-0.8, 0.8, (n, h, h)),
            rng.uniform(0.1, 1.0, (n, n_in))]


def gated_pool_on_tape(arrays):
    """(out, gate, w, v) with gate, w and v on a fresh tape."""
    gate, x_prev, w, v, prop = arrays
    tape = ad.Tape()
    leaves = [tape.leaf(gate), tape.leaf(w), tape.leaf(v)]
    out = blocks.gated_pool(leaves[0], x_prev, leaves[1], leaves[2], prop)
    return (out, *leaves)


def whole_array_gated_pool(gate, x_prev, w, v, prop, go):
    """``gated_pool`` as a whole-array kernel: the (N, N', g, d+1) gated
    input and the (N, N', g, h) activation each in one buffer, every product
    one batched matmul over the nodes. Returns the output and the
    (d gate, d w, d v) of upstream ``go``."""
    n, g, n_in = gate.shape
    d, h = x_prev.shape[2], w.shape[-1]
    tanh, tanh_deriv = ad.ACTIVATIONS["tanh"]
    xg = np.empty((n, n_in, g, d + 1))
    xg[..., d] = 1.0
    np.multiply(gate.transpose(0, 2, 1)[..., None], x_prev, out=xg[..., :d])
    xg_rows = xg.reshape(n, n_in * g, d + 1)
    a = np.matmul(xg_rows, w).reshape(n, n_in, g, h)
    tanh(a, a)
    pooled = np.matmul(prop[:, None, :], a.reshape(n, n_in, g * h)).reshape(n, g, h)
    out = np.matmul(pooled, v)
    tanh(out, out)
    dy = go * tanh_deriv(out, np.empty_like(out))
    dv = np.matmul(np.swapaxes(pooled, -1, -2), dy)
    gp = np.matmul(dy, np.swapaxes(v, -1, -2))
    D = tanh_deriv(a, a) * prop[:, :, None, None] * gp.reshape(n, 1, g, h)
    D_rows = D.reshape(n, n_in * g, h)
    dw = np.concatenate((np.matmul(xg_rows[..., :d].transpose(0, 2, 1), D_rows),
                         np.matmul(np.ones((1, n_in * g)), D_rows)), axis=1)
    dxg = np.matmul(D, np.swapaxes(w[:, :d], 1, 2)[:, None]) * x_prev
    return out, (dxg.sum(axis=3).transpose(0, 2, 1), dw, dv)


class TestGatedPool:
    """The decoder's first layer, NGCN pooling and NGCN weight, one fused op
    that runs one target node at a time."""

    def test_matches_definition(self):
        rng = np.random.default_rng(50)
        gate, x_prev, w, v, prop = arrays = gated_pool_arrays(rng)
        out = gated_pool_on_tape(arrays)[0].data
        n, g, n_in = gate.shape
        for i in range(n):
            for t in range(g):
                pooled = sum(prop[i, j] * np.tanh(gate[i, t, j] * x_prev[j, t] @ w[i, :-1]
                                                  + w[i, -1])
                             for j in range(n_in))
                np.testing.assert_allclose(out[i, t], np.tanh(pooled @ v[i]),
                                           rtol=1e-13, atol=1e-15)

    def test_gradient_matches_finite_differences(self):
        # at d = 2 the gate scales a vector, so d gate sums over d; w's last
        # row is the bias; v weights the pooled output
        rng = np.random.default_rng(51)
        arrays = gated_pool_arrays(rng)
        probe = rng.standard_normal((2, 4, 3))
        out, *leaves = gated_pool_on_tape(arrays)
        grads = out.tape.backward(dot(out, out.tape.leaf(probe)))
        for leaf, pos, name in zip(leaves, (0, 2, 3), ("gate", "w", "v")):
            def loss(a, pos=pos):
                args = [a if k == pos else b for k, b in enumerate(arrays)]
                return float(np.sum(gated_pool_on_tape(args)[0].data * probe))

            assert rel_err(grads.wrt(leaf), central_diff_grad(loss, arrays[pos])) < 1e-7, name

    def test_overflowed_pre_activation_raises(self):
        # tanh(inf) = 1 would hide the overflow; the pre-activations of the
        # first layer and of the NGCN weight are both checked
        rng = np.random.default_rng(52)
        first = gated_pool_arrays(rng)
        first[1] = np.full_like(first[1], 10.0)
        first[2] = np.full_like(first[2], 1e308)
        ngcn = gated_pool_arrays(rng)  # tanh saturates at 1: pooled = N' = 3
        for pos, value in ((1, 1.0), (2, 10.0), (3, 1e308), (4, 1.0)):
            ngcn[pos] = np.full_like(ngcn[pos], value)
        for arrays in (first, ngcn):
            with pytest.raises(ad.NumericError, match="gated_pool"):
                gated_pool_on_tape(arrays)

    @pytest.mark.parametrize("d", [1, 2])
    def test_bit_equal_to_the_whole_array_kernel(self, d):
        # streaming the nodes changes where values are written, not how they
        # are summed: each per-node product is the item the batched matmul
        # runs for that node. N' differs from N, so a loop over the wrong
        # axis fails on shape
        arrays = gated_pool_arrays(np.random.default_rng(58), n=3, n_in=4, g=6, d=d, h=5)
        gate, x_prev, w, v, prop = arrays
        out, *leaves = gated_pool_on_tape(arrays)
        probe = np.random.default_rng(59).standard_normal(out.shape)
        grads = out.tape.backward(dot(out, out.tape.leaf(probe)))
        want, want_grads = whole_array_gated_pool(*arrays, probe)
        np.testing.assert_array_equal(out.data, want)
        for leaf, want_grad, name in zip(leaves, want_grads, ("gate", "w", "v")):
            assert np.array_equal(grads.wrt(leaf), want_grad), name
        free = ad.Tape(grad=False)
        without = blocks.gated_pool(free.leaf(gate), x_prev, free.leaf(w), free.leaf(v), prop)
        np.testing.assert_array_equal(without.data, want)

    def test_output_identical_without_gradient(self):
        # both kinds of tape run one kernel, node by node; only the backward
        # closure differs
        gate, x_prev, w, v, prop = gated_pool_arrays(np.random.default_rng(56), n=3, g=7)
        with_grad, *_ = gated_pool_on_tape([gate, x_prev, w, v, prop])
        free = ad.Tape(grad=False)
        without = blocks.gated_pool(free.leaf(gate), x_prev, free.leaf(w), free.leaf(v), prop)
        np.testing.assert_array_equal(without.data, with_grad.data)
        assert free._backward[without.idx] is None

    # the memory tests' shape, and its sizes in bytes
    MEMORY_SHAPE = N, N_IN, G, D, H = 8, 2, 5000, 1, 32
    UNIT = N * G * H * 8  # the output; the whole activation takes N' of them
    NODE = N_IN * G * (D + 1 + H) * 8  # one node's gated input and activation
    ROW = G * H * 8  # one (g, h) row

    def traced_call(self, tape, seed):
        """(out, leaves, held, peak) of one call on ``tape``, the bytes it
        holds after and at most during, as tracemalloc counts them."""
        gate, x_prev, w, v, prop = gated_pool_arrays(np.random.default_rng(seed),
                                                     *self.MEMORY_SHAPE)
        inputs = [tape.leaf(a) for a in (gate, w, v)]
        tracemalloc.start()
        try:
            out = blocks.gated_pool(inputs[0], x_prev, inputs[1], inputs[2], prop)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return out, inputs, held, peak

    def test_gradient_free_call_frees_the_activation_first(self):
        # without a gradient the op runs its one loop: one node's gated input
        # and activation live at a time, the pooled row goes into the output
        # and the NGCN product through one row back over it. The call peaks
        # at the output, one node's two buffers, one row and one row of slack
        out, _, _, peak = self.traced_call(ad.Tape(grad=False), 55)
        assert out.data.shape == (self.N, self.G, self.H)
        assert peak < self.UNIT + self.NODE + 2 * self.ROW

    def test_gradient_tape_call_keeps_no_pooled_output(self):
        # a gradient tape runs the same loop, to the same peak: no pooled
        # output is made beside the output, whose rows take the pooled rows
        out, _, _, peak = self.traced_call(ad.Tape(), 57)
        assert out.tape._backward[out.idx] is not None
        assert peak < self.UNIT + self.NODE + 2 * self.ROW

    def test_gradient_tape_call_keeps_no_activation(self):
        # the backward rebuilds each node's gated input and activation by the
        # forward's expressions, so the closure keeps the operands and the
        # output: after the call the op holds at most the output and one
        # node's two buffers
        tape = ad.Tape()
        out, inputs, held, _ = self.traced_call(tape, 57)
        assert held < self.UNIT + self.NODE
        assert tape.backward(total(out)).wrt(inputs[0]).shape == (self.N, self.G, self.N_IN)

    def test_tape_freed_without_cycle_collection(self):
        # as for gru_sequence: the backward closure holds arrays, never a
        # tensor, which would keep its tape and buffers alive
        def run():
            out, *_ = gated_pool_on_tape(gated_pool_arrays(np.random.default_rng(53)))
            tape = out.tape
            cells = tape._backward[out.idx].__closure__
            assert not any(isinstance(c.cell_contents, (ad.Tensor, ad.Tape)) for c in cells)
            tape.backward(total(out))
            return weakref.ref(tape)

        gc.disable()
        try:
            assert run()() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("share", [False, True])
    @pytest.mark.parametrize("phi", sorted(ad.ACTIVATIONS))
    def test_model_gradients_every_activation(self, phi, share):
        # mmg_w2's gradient reaches the encoder through d gate; beside it,
        # every layer that applies phi
        rng = np.random.default_rng(54)
        stack = random_stack(rng, share)
        x = rng.standard_normal((2, 3, 4, 1))
        names = sorted({"rl_w", "mmg_w2", *ACTIVATION_LAYERS[phi]})
        assert_model_gradients(stack, x, names, rng)


class TestMlp:
    """The encoder's MMG and the decoder's MLP layers inside the model."""

    def test_identity_single_layer(self):
        # the output layer is one identity layer: doubling its [W; b]
        # doubles every prediction, which a tanh layer would not do
        stack = mdl.build_node_models(3, 2, mdl.ModelConfig(hidden=4), 8)
        x = np.random.default_rng(8).standard_normal((2, 3, 5, 2))
        assert_matches_reference(stack, x)
        _, preds = mdl.forward_full(stack, x)
        _, doubled = mdl.forward_full(replace(stack, tip_w2=2.0 * stack.tip_w2), x)
        np.testing.assert_array_equal(doubled.values, 2.0 * preds.values)

    def test_zero_weights_sigmoid_output(self):
        # the gates are sigmoid(a1 W2 + b2): zero output weights give 0.5
        # whatever the GRU bank, GCN and first MMG layer compute
        rng = np.random.default_rng(0)
        stack = random_stack(rng, share=False)
        stack.mmg_w2[...] = 0.0  # [W; b]: the bias row too
        masks, _ = mdl.forward_full(stack, rng.standard_normal((1, 3, 5, 1)))
        np.testing.assert_array_equal(masks.values, np.full((1, 4, 3, 3), 0.5))

    def test_two_layer_gradient_check(self):
        # the decoder's two-layer output MLP
        rng = np.random.default_rng(9)
        stack = random_stack(rng, share=True)
        x = rng.standard_normal((2, 3, 4, 1))
        assert_model_gradients(stack, x, ["tip_w1", "tip_w2"], rng)

    def test_input_dim_mismatch(self):
        stack = mdl.build_node_models(3, 1, mdl.ModelConfig(hidden=4), 0)
        with pytest.raises(ad.ShapeError):
            mdl.forward_full(stack, np.zeros((1, 3, 5, 2)))


class TestGradientSuite:
    """Finite-difference checks over random draws for every block."""

    @pytest.mark.parametrize("draw", range(10))
    def test_gru_step_random_draws(self, draw):
        rng = np.random.default_rng(100 + draw)
        w, u = cell_params(rng, 2, 3)
        x0, h0 = rng.standard_normal((1, 2)), rng.standard_normal(3)

        def loss(w):
            out, _ = run_cell(w, u, x0, h0)
            return sum_of_squares(out).data.item()

        out, leaves = run_cell(w, u, x0, h0)
        grads = out.tape.backward(sum_of_squares(out))
        assert rel_err(grads.wrt(leaves[2])[0], central_diff_grad(loss, w)) < 1e-4

    @pytest.mark.parametrize("draw", range(10))
    def test_gcn_and_mlp_random_draws(self, draw):
        # the GCNs and MLPs of encoder and decoder; even draws per node, odd
        # draws with a shared encoder
        rng = np.random.default_rng(200 + draw)
        stack = random_stack(rng, share=bool(draw % 2), n=2)
        x = rng.standard_normal((2, 2, 4, 1))
        assert_model_gradients(stack, x, ["enc_w", "mmg_w1", "mmg_w2", "rl_w", "ngcn_w"], rng)
