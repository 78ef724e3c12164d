import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncause import autodiff as ad


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


class TestMatmul:
    def test_identity(self):
        tape = ad.Tape()
        b = np.arange(9.0).reshape(3, 3)
        out = ad.matmul(tape.leaf(np.eye(3)), tape.leaf(b))
        np.testing.assert_array_equal(out.data, b)

    def test_hand_product(self):
        tape = ad.Tape()
        a = tape.leaf([[1.0, 2.0], [3.0, 4.0]])
        b = tape.leaf([[1.0], [1.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).data, [[3.0], [7.0]])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        a0 = rng.standard_normal((4, 5))
        b0 = rng.standard_normal((5, 3))

        def loss_a(a):
            tape = ad.Tape()
            out = ad.activation(ad.matmul(tape.leaf(a), tape.leaf(b0)), "tanh")
            return ad.reduce_sum(out).data.item()

        def loss_b(b):
            tape = ad.Tape()
            out = ad.activation(ad.matmul(tape.leaf(a0), tape.leaf(b)), "tanh")
            return ad.reduce_sum(out).data.item()

        tape = ad.Tape()
        ta, tb = tape.leaf(a0), tape.leaf(b0)
        root = ad.reduce_sum(ad.activation(ad.matmul(ta, tb), "tanh"))
        grads = tape.backward(root)
        assert rel_err(grads.wrt(ta), central_diff_grad(loss_a, a0)) < 1e-6
        assert rel_err(grads.wrt(tb), central_diff_grad(loss_b, b0)) < 1e-6

    def test_shape_mismatch(self):
        tape = ad.Tape()
        with pytest.raises(ad.ShapeError):
            ad.matmul(tape.leaf(np.ones((2, 3))), tape.leaf(np.ones((2, 3))))

    def test_batched_matches_per_slice(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 2, 4))
        b = rng.standard_normal((6, 4, 3))
        tape = ad.Tape()
        out = ad.matmul(tape.leaf(a), tape.leaf(b))
        for k in range(6):
            np.testing.assert_array_equal(out.data[k], a[k] @ b[k])

    def test_batched_broadcast_gradient(self):
        rng = np.random.default_rng(11)
        a0 = rng.standard_normal((3, 2, 4))
        w0 = rng.standard_normal((4, 2))  # broadcast over the stack axis

        def loss_w(w):
            tape = ad.Tape()
            return ad.reduce_sum(ad.matmul(tape.leaf(a0), tape.leaf(w))).data.item()

        tape = ad.Tape()
        ta, tw = tape.leaf(a0), tape.leaf(w0)
        grads = tape.backward(ad.reduce_sum(ad.matmul(ta, tw)))
        assert rel_err(grads.wrt(tw), central_diff_grad(loss_w, w0)) < 1e-6


class TestElementwise:
    def test_sigmoid_zero(self):
        tape = ad.Tape()
        assert ad.activation(tape.leaf(0.0), "sigmoid").data.item() == 0.5

    def test_tanh_zero(self):
        tape = ad.Tape()
        assert ad.activation(tape.leaf(0.0), "tanh").data.item() == 0.0

    def test_sigmoid_gradient_value(self):
        tape = ad.Tape()
        x = tape.leaf(1.0)
        grads = tape.backward(ad.reduce_sum(ad.activation(x, "sigmoid")))
        s = 1.0 / (1.0 + np.exp(-1.0))
        assert grads.wrt(x).item() == pytest.approx(s * (1 - s), rel=1e-12)
        assert grads.wrt(x).item() == pytest.approx(0.19661, abs=1e-5)
        fd = central_diff_grad(
            lambda v: ad.activation(ad.Tape().leaf(v), "sigmoid").data.item(), np.asarray(1.0)
        )
        assert rel_err(grads.wrt(x), fd) < 1e-8

    def test_binary_shape_mismatch(self):
        tape = ad.Tape()
        with pytest.raises(ad.ShapeError):
            ad.add(tape.leaf(np.ones((2, 3))), tape.leaf(np.ones((4, 5))))

    def test_log_domain_error(self):
        tape = ad.Tape()
        with pytest.raises(ad.DomainError):
            ad.log(tape.leaf([1.0, -1.0]))

    def test_overflow_raises_numeric_error(self):
        tape = ad.Tape()
        with pytest.raises(ad.NumericError):
            ad.exp(tape.leaf(1e4))

    def test_nan_leaf_rejected(self):
        tape = ad.Tape()
        with pytest.raises(ad.NumericError):
            tape.leaf([1.0, np.nan])

    @pytest.mark.parametrize("name", sorted(ad.ACTIVATIONS) + ["exp", "neg"])
    def test_unary_gradients_match_fd(self, name):
        # every activation goes through the one op
        op = getattr(ad, name) if name in ("exp", "neg") else (
            lambda x: ad.activation(x, name))
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal((3, 4)) * 0.8 + 0.1

        def loss(x):
            return ad.reduce_sum(op(ad.Tape().leaf(x))).data.item()

        tape = ad.Tape()
        tx = tape.leaf(x0)
        grads = tape.backward(ad.reduce_sum(op(tx)))
        assert rel_err(grads.wrt(tx), central_diff_grad(loss, x0)) < 1e-6

    @pytest.mark.parametrize("name", sorted(ad.ACTIVATIONS))
    def test_activation_of_a_scalar(self, name):
        tape = ad.Tape()
        x = tape.leaf(0.3)
        grad = tape.backward(ad.activation(x, name)).wrt(x)
        fd = central_diff_grad(
            lambda v: ad.activation(ad.Tape().leaf(v), name).data.item(), np.asarray(0.3))
        assert grad.shape == () and rel_err(grad, fd) < 1e-8

    @pytest.mark.parametrize("name, edge", [("sigmoid", 800.0), ("tanh", 50.0)])
    def test_saturated_activation_stays_finite(self, name, edge):
        # exp(800) overflows; the sigmoid must still give 0 and 1, and no
        # RuntimeWarning may escape
        tape = ad.Tape()
        x = tape.leaf([-edge, edge])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ad.activation(x, name)
            grad = tape.backward(ad.reduce_sum(out)).wrt(x)
        low = 0.0 if name == "sigmoid" else -1.0
        np.testing.assert_array_equal(out.data, [low, 1.0])
        np.testing.assert_array_equal(grad, [0.0, 0.0])

    def test_hadamard_broadcast_gradient(self):
        rng = np.random.default_rng(9)
        a0 = rng.standard_normal((4, 3))
        b0 = rng.standard_normal((4, 1))

        def loss_b(b):
            tape = ad.Tape()
            return ad.reduce_sum(ad.hadamard(tape.leaf(a0), tape.leaf(b))).data.item()

        tape = ad.Tape()
        ta, tb = tape.leaf(a0), tape.leaf(b0)
        grads = tape.backward(ad.reduce_sum(ad.hadamard(ta, tb)))
        assert rel_err(grads.wrt(tb), central_diff_grad(loss_b, b0)) < 1e-6

    def test_clamp_gradient_zero_outside(self):
        tape = ad.Tape()
        x = tape.leaf([0.5, 2.0, -3.0])
        grads = tape.backward(ad.reduce_sum(ad.clamp(x, 0.0, 1.0)))
        np.testing.assert_array_equal(grads.wrt(x), [1.0, 0.0, 0.0])


class TestReduce:
    # the squared norm reduce_sum(hadamard(x, x)) is the finite-difference
    # tests' root: both hadamard operands are x, so its gradient must add up
    def test_sq_l2_norm(self):
        tape = ad.Tape()
        x = tape.leaf([3.0, 4.0])
        assert ad.reduce_sum(ad.hadamard(x, x)).data.item() == 25.0

    def test_mean(self):
        tape = ad.Tape()
        assert ad.mean_axis(tape.leaf([1.0, 2.0, 3.0]), (0,)).data.item() == 2.0

    def test_sq_l2_norm_gradient(self):
        tape = ad.Tape()
        x = tape.leaf([3.0, 4.0])
        grads = tape.backward(ad.reduce_sum(ad.hadamard(x, x)))
        np.testing.assert_array_equal(grads.wrt(x), [6.0, 8.0])

    def test_axis_reductions_match_fd(self):
        rng = np.random.default_rng(13)
        x0 = rng.standard_normal((2, 3, 4))
        for fn in (lambda t: ad.sum_axis(t, (1,)), lambda t: ad.mean_axis(t, (0, 2))):
            def loss(x, fn=fn):
                return ad.reduce_sum(ad.exp(fn(ad.Tape().leaf(x)))).data.item()

            tape = ad.Tape()
            tx = tape.leaf(x0)
            grads = tape.backward(ad.reduce_sum(ad.exp(fn(tx))))
            assert rel_err(grads.wrt(tx), central_diff_grad(loss, x0)) < 1e-6


class TestConcatReshape:
    def test_flatten_row_major(self):
        tape = ad.Tape()
        out = ad.reshape(tape.leaf([[1.0, 2.0], [3.0, 4.0]]), (4,))
        np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0, 4.0])

    def test_flatten_backward_is_reshape(self):
        tape = ad.Tape()
        x = tape.leaf([[1.0, 2.0], [3.0, 4.0]])
        y = ad.reshape(x, (4,))
        w = tape.leaf([1.0, 10.0, 100.0, 1000.0])
        grads = tape.backward(ad.reduce_sum(ad.hadamard(y, w)))
        np.testing.assert_array_equal(grads.wrt(x), [[1.0, 10.0], [100.0, 1000.0]])

    def test_views_skip_the_finite_check(self, monkeypatch):
        # reshape and transpose move no values, and their operand was
        # checked when it was made
        tape = ad.Tape()
        x = tape.leaf(np.ones((2, 3)))
        checked = []
        monkeypatch.setattr(ad, "_check_finite", lambda data, op: checked.append(op))
        ad.activation(ad.transpose(ad.reshape(x, (3, 2)), (1, 0)), "tanh")
        assert checked == ["tanh"]

    def test_transpose_gradient(self):
        rng = np.random.default_rng(21)
        x0 = rng.standard_normal((2, 3, 4))

        def root(x):
            y = ad.transpose(x, (2, 0, 1))
            return ad.reduce_sum(ad.hadamard(y, y))

        def loss(x):
            return root(ad.Tape().leaf(x)).data.item()

        tape = ad.Tape()
        tx = tape.leaf(x0)
        grads = tape.backward(root(tx))
        assert rel_err(grads.wrt(tx), central_diff_grad(loss, x0)) < 1e-6


class TestBackward:
    def test_square(self):
        tape = ad.Tape()
        x = tape.leaf(3.0)
        grads = tape.backward(ad.hadamard(x, x))
        assert grads.wrt(x).item() == 6.0

    def test_tanh_chain_matches_fd(self):
        rng = np.random.default_rng(17)
        w0 = rng.standard_normal((4, 4))
        x0 = rng.standard_normal((4, 1))

        def loss(w):
            tape = ad.Tape()
            out = ad.activation(ad.matmul(tape.leaf(w), tape.leaf(x0)), "tanh")
            return ad.reduce_sum(out).data.item()

        tape = ad.Tape()
        tw = tape.leaf(w0)
        out = ad.activation(ad.matmul(tw, tape.leaf(x0)), "tanh")
        grads = tape.backward(ad.reduce_sum(out))
        assert rel_err(grads.wrt(tw), central_diff_grad(loss, w0)) < 1e-5

    def test_unused_parameter_gets_exact_zero(self):
        tape = ad.Tape()
        x = tape.leaf(2.0)
        unused = tape.leaf([1.0, 2.0])
        grads = tape.backward(ad.hadamard(x, x))
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
            w = tape.leaf(rng.standard_normal((5, 5)))
            x = tape.leaf(rng.standard_normal((5, 2)))
            root = ad.reduce_sum(ad.activation(ad.matmul(w, x), "sigmoid"))
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
        rng = np.random.default_rng(seed)
        x0 = rng.standard_normal(4)

        def grad_of(make_root):
            tape = ad.Tape()
            x = tape.leaf(x0)
            return tape.backward(make_root(x)).wrt(x)

        f = lambda x: ad.reduce_sum(ad.activation(x, "tanh"))
        g = lambda x: ad.reduce_sum(ad.hadamard(x, x))
        combined = lambda x: ad.add(ad.scale(f(x), alpha), ad.scale(g(x), beta))
        expected = alpha * grad_of(f) + beta * grad_of(g)
        np.testing.assert_allclose(grad_of(combined), expected, rtol=1e-12, atol=1e-12)
