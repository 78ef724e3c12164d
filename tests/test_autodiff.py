import gc
import math
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncause import autodiff as ad
from dyncause import blocks
from dyncause import training as tr


def central_diff_grad(f, x0, h=1e-5):
    """Independent gradient oracle: central finite differences per entry."""
    x0 = np.asarray(x0, dtype=np.float64)
    g = np.zeros_like(x0)
    flat = x0.ravel()
    gflat = g.ravel()
    for k in range(flat.size):
        xp = flat.copy()
        xm = flat.copy()
        xp[k] += h
        xm[k] -= h
        gflat[k] = (f(xp.reshape(x0.shape)) - f(xm.reshape(x0.shape))) / (2 * h)
    return g


def rel_err(a, b):
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-8)
    return np.max(np.abs(a - b)) / denom


def dot(*operands):
    """sum_k sum(a_k * b_k) over the operand pairs (a_1, b_1, a_2, b_2, ...)
    as one tape node: the tests' scalar probe, recorded through
    ``Tape.record`` like every op. b_k has a_k's shape, or is 0-d, as the 1
    of ``total``: a 0-d operand's gradient sums over its partner. In
    ``dot(x, x)`` both operands are x, so x's gradient 2x is accumulated."""
    data = [t.data for t in operands]
    value = sum(np.sum(a * b) for a, b in zip(data[::2], data[1::2]))
    partners = [data[k ^ 1] for k in range(len(data))]  # 0 <-> 1, 2 <-> 3, ...
    shapes = [t.shape for t in operands]

    def backward(g):
        # total's 1 broadcasts over its operand: that gradient is a view, not a copy
        return tuple(np.broadcast_to(g * p, s) if s else np.sum(g * p)
                     for p, s in zip(partners, shapes))

    return operands[0].tape.record(value, operands, backward, op="dot")


def total(x):
    """sum(x): ``dot`` with a 1 broadcast over x."""
    return dot(x, x.tape.leaf(1.0))


def with_bias(w, b=None):
    """[W; b], W's bias row below it: zeros unless ``b`` is given."""
    w = np.asarray(w, dtype=np.float64)
    b = np.zeros(w.shape[:-2] + (1, w.shape[-1])) if b is None else np.asarray(b)
    return np.concatenate((w, b.reshape(w.shape[:-2] + (1, w.shape[-1]))), axis=-2)


def activation(x, phi):
    """``phi`` of a (1, g, K) x, elementwise, as ``dense`` of x with [I; 0]."""
    k = x.shape[-1]
    return ad.dense(x, x.tape.leaf(with_bias(np.eye(k)[None])), phi)


def dense_fd_check(x0, wb0, phi, tol=1e-6):
    """``dense``'s gradients in x and wb, under a random probe, match
    central differences; both keep their operand's shape."""
    probe = np.random.default_rng(4).standard_normal(
        (wb0.shape[0], x0.shape[1], wb0.shape[2]))

    def loss(x, wb):
        tape = ad.Tape()
        return dot(ad.dense(tape.leaf(x), tape.leaf(wb), phi), tape.leaf(probe)).data.item()

    tape = ad.Tape()
    tx, twb = tape.leaf(x0), tape.leaf(wb0)
    grads = tape.backward(dot(ad.dense(tx, twb, phi), tape.leaf(probe)))
    assert grads.wrt(tx).shape == x0.shape and grads.wrt(twb).shape == wb0.shape
    assert rel_err(grads.wrt(tx), central_diff_grad(lambda x: loss(x, wb0), x0)) < tol
    assert rel_err(grads.wrt(twb), central_diff_grad(lambda wb: loss(x0, wb), wb0)) < tol


class TestMatmul:
    """The matrix product of ``dense``: node i's row times node i's [W; b]."""

    def test_identity(self):
        tape = ad.Tape()
        b = np.arange(9.0).reshape(1, 3, 3)
        out = ad.dense(tape.leaf(np.eye(3)[None]), tape.leaf(with_bias(b)), "identity")
        np.testing.assert_array_equal(out.data, b)

    def test_hand_product(self):
        tape = ad.Tape()
        a = tape.leaf([[[1.0, 2.0], [3.0, 4.0]]])
        wb = tape.leaf([[[1.0], [1.0], [0.5]]])
        np.testing.assert_array_equal(ad.dense(a, wb, "identity").data, [[[3.5], [7.5]]])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        dense_fd_check(rng.standard_normal((2, 4, 5)), rng.standard_normal((2, 6, 3)), "tanh")

    def test_shape_mismatch(self):
        tape = ad.Tape()
        with pytest.raises(ad.ShapeError):
            ad.dense(tape.leaf(np.ones((1, 2, 3))), tape.leaf(np.ones((1, 3, 3))), "tanh")

    def test_batched_matches_per_slice(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 2, 4))
        wb = rng.standard_normal((6, 5, 3))
        tape = ad.Tape()
        out = ad.dense(tape.leaf(a), tape.leaf(wb), "identity")
        for k in range(6):
            np.testing.assert_array_equal(out.data[k], a[k] @ wb[k, :-1] + wb[k, -1])


class TestAffine:
    """``dense(x, wb, phi)`` = phi(x @ wb[:, :-1] + wb[:, -1:])."""

    def test_gradient_matches_finite_differences(self):
        # a shared encoder's (1, g, K) input serves N weight rows, with
        # K > 1 and h > 1, so its gradient sums the nodes' gradients
        rng = np.random.default_rng(17)
        dense_fd_check(rng.standard_normal((1, 4, 3)), rng.standard_normal((2, 4, 5)), "tanh")

    @pytest.mark.parametrize("x_shape", [(1, 4, 3), (5, 4, 3)], ids=["broadcast", "stacked"])
    def test_bit_equal_to_matmul_then_add(self, x_shape):
        # the stack's [W; b] layout trains exactly as a product plus a bias,
        # and a shared row's gradient is numpy's sum of the nodes', in
        # their order (five nodes, so the order shows): phi = identity
        # passes the gradient through unchanged
        rng = np.random.default_rng(18)
        x0 = rng.standard_normal(x_shape)
        wb0 = rng.standard_normal((5, 4, 5))
        w, b = wb0[:, :-1], wb0[:, -1:]
        upstream = rng.standard_normal((5, 4, 5))  # the output's gradient
        tape = ad.Tape()
        x, wb = tape.leaf(x0), tape.leaf(wb0)
        out = ad.dense(x, wb, "identity")
        grads = tape.backward(dot(out, tape.leaf(upstream)))
        np.testing.assert_array_equal(out.data, np.matmul(x0, w) + b)
        dx = np.matmul(upstream, np.swapaxes(w, -1, -2))
        np.testing.assert_array_equal(grads.wrt(x), dx.sum(axis=0, keepdims=True)
                                      if x_shape[0] == 1 else dx)
        dw = np.matmul(np.swapaxes(x0, -1, -2), upstream)
        db = upstream.sum(axis=1, keepdims=True)
        np.testing.assert_array_equal(grads.wrt(wb), np.concatenate((dw, db), axis=1))

    def test_shared_row_gradient_forms_no_node_stack(self):
        # var20-shared's shape: N = 20 nodes read one (g, K) row, K = N*h.
        # The row's gradient sums the nodes' products one at a time, so the
        # sweep never holds their (N, g, K) stack, 22.8 MB here
        n, g, h = 20, 499, 15
        k = n * h
        rng = np.random.default_rng(23)
        tape = ad.Tape()
        x = tape.leaf(rng.standard_normal((1, g, k)))
        wb = tape.leaf(rng.standard_normal((n, k + 1, h)) * 0.05)
        tracemalloc.start()
        try:
            grads = tape.backward(total(ad.dense(x, wb, "tanh")))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grads.wrt(x).shape == (1, g, k)
        assert peak < 0.5 * n * g * k * 8

    @pytest.mark.parametrize("x_shape, wb_shape", [
        ((4, 3), (2, 4, 5)), ((1, 4, 3), (4, 5)), ((2, 4, 3), (2, 3, 5)),
        ((2, 4, 3), (3, 4, 5))],
        ids=["rank", "wb-rank", "inner", "batch"])
    def test_shape_contract(self, x_shape, wb_shape):
        # x is (N or 1, g, K) and wb (N, K+1, h): np.matmul would broadcast
        # either rank case, which no layer of the model passes
        tape = ad.Tape()
        x = tape.leaf(np.ones(x_shape))
        with pytest.raises(ad.ShapeError, match="^dense .*" + re.escape(f"{x_shape} @ {wb_shape}")):
            ad.dense(x, tape.leaf(np.ones(wb_shape)), "tanh")


class TestElementwise:
    """The activation of ``dense``: an entry of ``ACTIVATIONS``, elementwise."""

    def test_sigmoid_zero(self):
        tape = ad.Tape()
        assert activation(tape.leaf([[[0.0]]]), "sigmoid").data.item() == 0.5

    def test_tanh_zero(self):
        tape = ad.Tape()
        assert activation(tape.leaf([[[0.0]]]), "tanh").data.item() == 0.0

    def test_sigmoid_gradient_value(self):
        tape = ad.Tape()
        x = tape.leaf([[[1.0]]])
        grads = tape.backward(total(activation(x, "sigmoid")))
        s = 1.0 / (1.0 + np.exp(-1.0))
        assert grads.wrt(x).item() == pytest.approx(s * (1 - s), rel=1e-12)
        assert grads.wrt(x).item() == pytest.approx(0.19661, abs=1e-5)
        fd = central_diff_grad(
            lambda v: activation(ad.Tape().leaf(v), "sigmoid").data.item(), np.ones((1, 1, 1)))
        assert rel_err(grads.wrt(x), fd) < 1e-8

    def test_overflow_raises_numeric_error(self):
        # tanh(inf) = 1 would hide the overflow: the pre-activation is
        # checked, and numpy's warning does not escape
        tape = ad.Tape()
        big = tape.leaf([[[1e200]]])
        with warnings.catch_warnings(), pytest.raises(ad.NumericError, match="dense"):
            warnings.simplefilter("error")
            ad.dense(big, tape.leaf([[[1e200], [0.0]]]), "tanh")

    def test_nan_leaf_rejected(self):
        tape = ad.Tape()
        with pytest.raises(ad.NumericError):
            tape.leaf([1.0, np.nan])

    def test_table_holds_what_the_model_calls(self):
        # tanh for every hidden layer, sigmoid for the gates, identity for
        # the output layer: an entry no layer reads is untested design
        assert sorted(ad.ACTIVATIONS) == ["identity", "sigmoid", "tanh"]

    @pytest.mark.parametrize("name", sorted(ad.ACTIVATIONS))
    def test_unary_gradients_match_fd(self, name):
        # every activation goes through the one op
        rng = np.random.default_rng(5)
        dense_fd_check(rng.standard_normal((2, 3, 4)) * 0.8 + 0.1,
                       rng.standard_normal((2, 5, 2)), name)

    @pytest.mark.parametrize("name", sorted(ad.ACTIVATIONS))
    def test_activation_of_a_scalar(self, name):
        # one input, one weight, one bias: the (1, 1, 1) product
        dense_fd_check(np.full((1, 1, 1), 0.3), np.array([[[0.7], [-0.1]]]), name, tol=1e-8)

    @pytest.mark.parametrize("name, edge", [("sigmoid", 800.0), ("tanh", 50.0)])
    def test_saturated_activation_stays_finite(self, name, edge):
        # exp(800) overflows; the sigmoid must still give 0 and 1, and no
        # RuntimeWarning may escape
        tape = ad.Tape()
        x = tape.leaf([[[-edge, edge]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = activation(x, name)
            grad = tape.backward(total(out)).wrt(x)
        low = 0.0 if name == "sigmoid" else -1.0
        np.testing.assert_array_equal(out.data, [[[low, 1.0]]])
        np.testing.assert_array_equal(grad, [[[0.0, 0.0]]])


class TestReduce:
    # the probe dot(x, x) is the finite-difference tests' root: both
    # operands are x, so its gradient must add up
    def test_sq_l2_norm(self):
        tape = ad.Tape()
        x = tape.leaf([3.0, 4.0])
        assert dot(x, x).data.item() == 25.0

    def test_sq_l2_norm_gradient(self):
        tape = ad.Tape()
        x = tape.leaf([3.0, 4.0])
        grads = tape.backward(dot(x, x))
        np.testing.assert_array_equal(grads.wrt(x), [6.0, 8.0])


class TestBackward:
    def test_square(self):
        tape = ad.Tape()
        x = tape.leaf(3.0)
        grads = tape.backward(dot(x, x))
        assert grads.wrt(x).item() == 6.0

    def test_tanh_chain_matches_fd(self):
        rng = np.random.default_rng(17)
        w0 = rng.standard_normal((1, 4, 4))
        xb = with_bias(rng.standard_normal((1, 4, 1)))

        def loss(w):
            tape = ad.Tape()
            return total(ad.dense(tape.leaf(w), tape.leaf(xb), "tanh")).data.item()

        tape = ad.Tape()
        tw = tape.leaf(w0)
        grads = tape.backward(total(ad.dense(tw, tape.leaf(xb), "tanh")))
        assert rel_err(grads.wrt(tw), central_diff_grad(loss, w0)) < 1e-5

    def test_unused_parameter_gets_exact_zero(self):
        tape = ad.Tape()
        x = tape.leaf(2.0)
        unused = tape.leaf([1.0, 2.0])
        grads = tape.backward(dot(x, x))
        np.testing.assert_array_equal(grads.wrt(unused), [0.0, 0.0])

    def test_non_scalar_root_rejected(self):
        tape = ad.Tape()
        x = tape.leaf([1.0, 2.0])
        with pytest.raises(ad.ShapeError):
            tape.backward(x)

    def test_determinism_bit_identical(self):
        def run():
            rng = np.random.default_rng(99)
            tape = ad.Tape()
            w = tape.leaf(rng.standard_normal((1, 5, 5)))
            x = tape.leaf(rng.standard_normal((1, 6, 2)))
            root = total(ad.dense(w, x, "sigmoid"))
            return tape.backward(root).wrt(w)

        g1, g2 = run(), run()
        assert np.array_equal(g1, g2)

    @settings(max_examples=25, deadline=None)
    @given(
        alpha=st.floats(-3, 3, allow_nan=False),
        beta=st.floats(-3, 3, allow_nan=False),
        seed=st.integers(0, 1000),
    )
    def test_backward_linearity(self, alpha, beta, seed):
        # the sweep is linear in the root's upstream weights: the probe
        # weights tanh(x W + b), with both x and [W; b] trainable
        rng = np.random.default_rng(seed)
        x0 = rng.standard_normal((1, 3, 4))
        wb0 = rng.standard_normal((2, 5, 4))
        a, b = rng.standard_normal((2, 2, 3, 4))

        def grads_of(weight):
            tape = ad.Tape()
            x, wb = tape.leaf(x0), tape.leaf(wb0)
            root = dot(ad.dense(x, wb, "tanh"), tape.leaf(weight))
            grads = tape.backward(root)
            return grads.wrt(x), grads.wrt(wb)

        for got, ga, gb in zip(grads_of(alpha * a + beta * b), grads_of(a), grads_of(b)):
            np.testing.assert_allclose(got, alpha * ga + beta * gb, rtol=1e-12, atol=1e-12)


# every op of autodiff, blocks and training: (shapes of its tensor operands,
# the op applied to tensors of those shapes). gated_pool's x_prev and prop,
# encoder_gcn's prop and criterion's series and weights are not tensors,
# so they are fixed here.
_POOL_X, _POOL_PROP = np.linspace(-1.0, 1.0, 24).reshape(3, 4, 2), np.full((2, 3), 0.5)
_GCN_PROP = np.full((2, 2), 0.5)
_CRIT_X = np.linspace(-1.0, 1.0, 10).reshape(1, 2, 5, 1)
_CRIT_WEIGHTS = tr.LossWeights.with_uniform_prior(2)
OPS = {
    "dense": ([(1, 2, 3), (2, 4, 5)], lambda x, wb: ad.dense(x, wb, "tanh")),
    "gru_sequence": ([(2, 4, 1), (4, 3), (2, 2, 9), (2, 3, 9)], blocks.gru_sequence),
    "gated_pool": ([(2, 4, 3), (2, 3, 3), (2, 3, 3)],
                   lambda gate, w, v: blocks.gated_pool(gate, _POOL_X, w, v, _POOL_PROP)),
    "encoder_gcn": ([(2, 8, 3), (2, 3, 3)],
                    lambda hs, w: blocks.encoder_gcn(hs, w, _GCN_PROP)),
    "criterion": ([(2, 4, 2), (2, 4, 1)],
                  lambda masks, x_hat: tr.criterion(masks, x_hat, _CRIT_X, _CRIT_WEIGHTS)[0]),
}


def op_operands(name):
    # in (0, 1): valid gates
    return [np.random.default_rng(61).uniform(0.1, 0.9, shape) for shape in OPS[name][0]]


class TestRecord:
    """Tape.record is every op's one way onto the tape."""

    def test_every_op_is_listed(self):
        ops = {name for name in ad.__all__ if name.islower() and name != "ACTIVATIONS"}
        assert set(OPS) == ops | {"gru_sequence", "gated_pool", "encoder_gcn", "criterion"}

    @pytest.mark.parametrize("name", [name for name, (shapes, _) in OPS.items()
                                      if len(shapes) > 1])
    def test_operands_from_two_tapes_rejected(self, name):
        *same, last = op_operands(name)
        tape = ad.Tape()
        operands = [tape.leaf(a) for a in same] + [ad.Tape().leaf(last)]
        with pytest.raises(ValueError, match="same tape"):
            OPS[name][1](*operands)

    @pytest.mark.parametrize("name", OPS)
    def test_constant_operands_keep_no_closure(self, name):
        # on a gradient-free tape every operand is a constant: the op is
        # recorded, but keeps no closure
        arrays = op_operands(name)
        tape = ad.Tape(grad=False)
        OPS[name][1](*[tape.leaf(a) for a in arrays])
        assert len(tape) == len(arrays) + 1 and tape._backward == [None] * len(tape)

    @pytest.mark.parametrize("name", OPS)
    def test_leaf_operands_keep_the_closure(self, name):
        arrays = op_operands(name)
        tape = ad.Tape()
        out = OPS[name][1](*[tape.leaf(a) for a in arrays])
        assert callable(tape._backward[out.idx])
        assert len(tape) == len(arrays) + 1  # one node per op


class TestSweep:
    """A tape is swept once, freeing each op's closure and gradient as it goes."""

    @pytest.mark.parametrize("name", OPS)
    def test_every_closure_dropped(self, name):
        tape = ad.Tape()
        out = OPS[name][1](*[tape.leaf(a) for a in op_operands(name)])
        unreached = total(out)  # never on the root's path
        root = dot(out, out)
        assert callable(tape._backward[out.idx]) and callable(tape._backward[unreached.idx])
        tape.backward(root)
        assert tape._backward == [None] * len(tape)

    def test_closure_buffer_freed_mid_sweep(self):
        # op "late" runs its VJP first; by the time "early" runs, the array
        # only late's closure held must be gone, while the tape still lives
        tape = ad.Tape()
        x = tape.leaf(np.arange(3.0))
        seen = []

        def early_backward(g):
            seen.append(ref() is None)
            return (g,)

        def make_late():
            buf = np.full(3, 2.0)
            return weakref.ref(buf), lambda g: (g * buf,)

        early = tape.record(x.data.copy(), (x,), early_backward, op="early")
        ref, late_backward = make_late()
        late = tape.record(early.data * 2.0, (early,), late_backward, op="late")
        del late_backward
        gc.disable()
        try:
            grads = tape.backward(total(late))
        finally:
            gc.enable()
        assert seen == [True]
        np.testing.assert_array_equal(grads.wrt(x), [2.0, 2.0, 2.0])

    def test_gradients_of_another_tape_rejected(self):
        # the other tape's tensor sits at the same index as a leaf of the
        # swept one; its gradient is not that leaf's
        tape, other = ad.Tape(), ad.Tape()
        x = tape.leaf([1.0, 2.0])
        stranger = other.leaf([3.0, 4.0])
        assert stranger.idx == x.idx
        grads = tape.backward(dot(x, x))
        with pytest.raises(ValueError, match="does not belong"):
            grads.wrt(stranger)
        np.testing.assert_array_equal(grads.wrt(x), [2.0, 4.0])

    def test_second_backward_raises(self):
        tape = ad.Tape()
        x = tape.leaf([1.0, 2.0])
        root = dot(x, x)
        tape.backward(root)
        with pytest.raises(RuntimeError, match="swept"):
            tape.backward(root)

    def test_interior_gradient_raises_leaf_kept(self):
        tape = ad.Tape()
        x = tape.leaf([[[1.0, -2.0]]])
        data = tape.leaf([[[3.0, 4.0]]])
        interior = activation(x, "identity")
        root = dot(interior, data)
        grads = tape.backward(root)
        for node in (interior, root):
            with pytest.raises(ValueError, match="op's output"):
                grads.wrt(node)
        np.testing.assert_array_equal(grads.wrt(x), [[[3.0, 4.0]]])
        np.testing.assert_array_equal(grads.wrt(data), [[[1.0, -2.0]]])

    @pytest.mark.parametrize("phi", sorted(ad.ACTIVATIONS))
    @pytest.mark.parametrize("shape", [(), (3, 41)])
    def test_derivative_in_place_bit_equal(self, phi, shape):
        fn, deriv = ad.ACTIVATIONS[phi]
        a = np.linspace(-6.0, 6.0, math.prod(shape)).reshape(shape) + 0.37
        y = fn(a, np.empty_like(a))
        fresh = deriv(y, np.empty_like(y))
        in_place = y.copy()
        got = deriv(in_place, in_place)
        assert got is in_place
        assert fresh.shape == shape and fresh.tobytes() == got.tobytes()
