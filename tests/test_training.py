import csv
import gc
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncause import autodiff as ad
from dyncause import training as tr
from dyncause.autodiff import Tape
from dyncause import simulate as sim
from dyncause.model import GATE_HI, GATE_LO, ModelConfig, build_node_models, forward_full
from dyncause.simulate import gen_var, standardize

from reference_model import reference_loss
from test_autodiff import central_diff_grad, rel_err


class TestLossWeights:
    def test_prior_required_for_kl(self):
        with pytest.raises(ValueError):
            tr.LossWeights(lambda2=0.5, lambda3=0.0)

    def test_uniform_prior_helper(self):
        # the weights a prior fit has always trained with, to the bit
        w = tr.LossWeights.with_uniform_prior(4)
        assert w.prior.shape == (4, 4)
        assert (w.lambda1, w.lambda2, w.lambda3) == (1 / 3, 1 / 3, 1.0 - 1 / 3 - 1 / 3)

    def test_entropy_weight_is_what_kl_and_js_leave(self):
        prior = np.full((2, 2), 0.3)
        assert tr.LossWeights().lambda1 == 1.0
        assert tr.LossWeights(lambda2=0.25, lambda3=0.5, prior=prior).lambda1 == 0.25
        assert tr.LossWeights(lambda2=0.5, lambda3=0.5, prior=prior).lambda1 == 0.0

    @pytest.mark.parametrize("lambda2, lambda3, lambda1", [(0.75, 0.5, None), (0.9, 0.1, 0.0)],
                             ids=["past_one", "rounds_to_one"])
    def test_kl_and_js_may_not_take_more_than_one(self, lambda2, lambda3, lambda1):
        # the sum is checked, not what it leaves: 0.9 + 0.1 is 1.0, though
        # 1 - 0.9 - 0.1 is -2.8e-17, which lambda1 reads as 0, never negative
        prior = np.full((2, 2), 0.3)
        if lambda1 is None:
            with pytest.raises(ValueError, match=f"^lambda2 {lambda2} and lambda3 {lambda3} "):
                tr.LossWeights(lambda2=lambda2, lambda3=lambda3, prior=prior)
        else:
            assert tr.LossWeights(lambda2=lambda2, lambda3=lambda3, prior=prior).lambda1 == lambda1

    def test_prior_is_a_copy(self):
        # the caller's float64 array was kept as it was: a 0 written into it
        # after the checks reached train() as a non-finite 'div' term
        prior = np.full((3, 3), 0.2)
        weights = tr.LossWeights(lambda2=0.5, prior=prior)
        prior[0, 0] = 0.0
        assert weights.prior[0, 0] == 0.2
        series = np.random.default_rng(0).standard_normal((1, 3, 8, 1))
        fit = tr.train(series, tr.TrainConfig(epochs=1, hidden=3), weights)
        assert np.all(np.isfinite(fit.final_losses))

    @pytest.mark.parametrize("prior, match", [
        (np.full((1, 3), 0.2), r"square .* \(1, 3\)"), (np.asarray(0.2), r"square .* \(\)"),
        (np.full((2, 2, 2), 0.2), "square"), (np.array([[0.2, np.nan], [0.2, 0.2]]), "finite"),
        (np.array([[0.2, 1.0], [0.2, 0.2]]), "inside")],
        ids=["row", "scalar", "cube", "nan_entry", "entry_of_one"])
    def test_prior_must_be_a_finite_square_matrix(self, prior, match):
        with pytest.raises(ValueError, match=match):
            tr.LossWeights(lambda2=0.5, prior=prior)


def loss_terms(weights, masks, x_hat=None, x_target=None):
    """``criterion``'s per-node terms when every node gets the gate rows
    ``masks`` (G, N); ``x_hat`` (N, G, d) are the predictions and
    ``x_target`` (G, N, d) the true values at the predicted steps, zeros by
    default, laid out as the (1, N, G+1, d) series ``criterion`` reads."""
    masks = np.asarray(masks, dtype=np.float64)
    g, n = masks.shape
    x_target = np.zeros((g, n, 1)) if x_target is None else np.asarray(x_target)
    x_hat = np.zeros((n, g, x_target.shape[2])) if x_hat is None else np.asarray(x_hat)
    series = np.zeros((1, n, g + 1, x_target.shape[2]))
    series[0, :, 1:, :] = x_target.transpose(1, 0, 2)
    tape = Tape()
    every = np.broadcast_to(masks, (n, g, n)).copy()
    return tr.criterion(tape.leaf(every), tape.leaf(x_hat), series, weights)[1]


def recon_loss(x_true, x_hat):
    """Reconstruction loss of one node; x_true (G, d), x_hat (G, d) values."""
    x_true = np.asarray(x_true)
    return loss_terms(tr.LossWeights(), np.full((len(x_true), 1), 0.5),
                      np.asarray(x_hat)[None], x_true[:, None, :])["recon"].item()


def struct_loss(x_target, node_index, x_hat):
    """Structure loss of one node; x_target (G, N, d) true values at t,
    x_hat (G, d) the node's predictions."""
    g, n, d = x_target.shape
    x_hats = np.zeros((n, g, d))
    x_hats[node_index] = x_hat
    terms = loss_terms(tr.LossWeights(), np.full((g, n), 0.5), x_hats, x_target)
    return terms["struct"][node_index].item()


def divergence_loss(masks, weights, node_index):
    """Divergence loss of one node's (G, N) gate rows: every node gets the
    same rows, and node ``node_index``'s entry is read against its prior row."""
    return loss_terms(weights, masks)["div"][node_index].item()


def sparsity_loss(masks):
    return loss_terms(tr.LossWeights(), masks)["sparsity"][0].item()


class TestReconLoss:
    def test_exact_prediction_is_zero(self):
        x = np.array([[1.0], [2.0], [3.0]])
        assert recon_loss(x, x.copy()) == 0.0

    def test_hand_arithmetic(self):
        # truths 1,2,3 vs constant prediction 1: (0 + 1 + 4) / 3
        x = np.array([[1.0], [2.0], [3.0]])
        assert recon_loss(x, [[1.0], [1.0], [1.0]]) == pytest.approx(5.0 / 3.0, rel=1e-15)

    def test_quadratic_homogeneity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 2))
        err = rng.standard_normal((5, 2))
        base = recon_loss(x, x + err)
        scaled = recon_loss(x, x + 3.0 * err)
        assert scaled == pytest.approx(9.0 * base, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ad.ShapeError):
            recon_loss(np.zeros((4, 1)), np.zeros((3, 1)))


class TestStructLoss:
    def test_exact_prediction_is_zero(self):
        rng = np.random.default_rng(1)
        x_target = rng.standard_normal((4, 3, 1))
        assert struct_loss(x_target, 1, x_target[:, 1, :].copy()) == 0.0

    def test_kernel_self_similarity_is_one(self):
        # the truth kernel of node i at input i, at every transition: the
        # kernel of the true next values, in both of criterion's layouts
        x = np.random.default_rng(2).standard_normal((2, 3, 5, 2))
        x_next = np.ascontiguousarray(x[:, :, 1:].transpose(1, 0, 2, 3).reshape(3, 8, 2))
        tau_true = tr._kernel(x_next.transpose(1, 0, 2)[None], x_next)[1]
        for i in range(3):
            np.testing.assert_array_equal(tau_true[i, :, i], 1.0)

    def test_hand_arithmetic(self):
        # N=2, one transition, d=1: truths x1=1, x2=3, prediction for node 0
        # is 2. tau_true = [1, exp(-4)]; tau_pred = [exp(-1), exp(-1)]
        x_target = np.array([[[1.0], [3.0]]])
        got = struct_loss(x_target, 0, [[2.0]])
        expected = ((1 - np.exp(-1)) ** 2 + (np.exp(-4) - np.exp(-1)) ** 2) / 2
        assert got == pytest.approx(expected, rel=1e-12)


class TestDivergenceLoss:
    def test_kl_js_zero_when_mask_equals_prior(self):
        n = 4
        prior = np.full((n, n), 0.3)
        w = tr.LossWeights(lambda2=0.5, lambda3=0.5, prior=prior)
        out = divergence_loss(np.full((6, n), 0.3), w, node_index=2)
        assert abs(out) < 1e-12

    def test_entropy_at_one_over_e(self):
        # -m log m at m = 1/e is 1/e per entry, so the mean is 1/e
        n = 5
        w = tr.LossWeights(lambda2=0.0, lambda3=0.0)
        out = divergence_loss(np.full((3, n), 1.0 / np.e), w, node_index=0)
        assert out == pytest.approx(1.0 / np.e, rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_js_nonnegative_and_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        n = 4
        m_vals = rng.uniform(0.05, 0.95, n)
        p_vals = rng.uniform(0.05, 0.95, (n, n))
        w_mp = tr.LossWeights(lambda2=0.0, lambda3=1.0, prior=p_vals)
        js_mp = divergence_loss(np.tile(m_vals, (3, 1)), w_mp, node_index=1)
        assert js_mp >= -1e-15
        # swap roles: prior row becomes the mask value and vice versa
        p_swapped = p_vals.copy()
        p_swapped[1] = m_vals
        w_pm = tr.LossWeights(lambda2=0.0, lambda3=1.0, prior=p_swapped)
        js_pm = divergence_loss(np.tile(p_vals[1], (3, 1)), w_pm, node_index=1)
        assert js_mp == pytest.approx(js_pm, rel=1e-10, abs=1e-12)

    def test_js_bounded_by_log2(self):
        # per-entry JS contribution before the 1/(2N) averaging is <= log 2
        n = 3
        prior = np.full((n, n), 1.0 - 1e-7)
        w = tr.LossWeights(lambda2=0.0, lambda3=1.0, prior=prior)
        out = divergence_loss(np.full((2, n), 1e-7), w, node_index=0)
        assert out <= np.log(2) + 1e-9


class TestSparsityLoss:
    def test_zero_mask_limit(self):
        out = sparsity_loss(np.full((4, 3), 1e-15))
        assert abs(out) < 1e-10

    def test_entry_at_epsilon_gives_log_two(self):
        out = sparsity_loss(np.full((1, 1), 0.01))  # the log-sum scale
        assert out == pytest.approx(np.log(2.0), rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_monotone_in_every_entry(self, seed):
        rng = np.random.default_rng(seed)
        base = rng.uniform(0.1, 0.8, (3, 4))
        bumped = base.copy()
        i, j = rng.integers(0, 3), rng.integers(0, 4)
        bumped[i, j] += 0.1
        lo = sparsity_loss(base)
        hi = sparsity_loss(bumped)
        assert hi > lo


def random_terms(weights, seed=0, g=5, n=3):
    """``loss_terms`` on drawn gates, predictions and truths."""
    rng = np.random.default_rng(seed)
    return loss_terms(weights, rng.uniform(0.05, 0.95, (g, n)),
                      rng.standard_normal((n, g, 1)), rng.standard_normal((g, n, 1)))


def term_free_sum(m, x_hat, x, weights, terms):
    """The total and the gates' and predictions' gradients of recon plus each
    term whose beta is positive, a zero-beta term left out rather than
    weighted by 0: ``criterion``'s closed forms in its operation order, on
    the (1, N, G+1, d) series ``x`` and the unweighted ``terms`` it reported."""
    _, g, n = m.shape
    x_next = x[0, :, 1:]
    x_target = x_next.transpose(1, 0, 2)[None]
    total = terms["recon"]
    betas = (weights.beta1, weights.beta2, weights.beta3)
    for key, beta in zip(tr.LOSS_TERMS[1:], betas):
        if beta > 0:
            total = total + terms[key] * beta
    dx = (x_hat - x_next) * (2.0 / g)
    if weights.beta1 > 0:
        delta = x_target - x_hat[:, :, None, :]
        delta_true = x_target - x_next[:, :, None, :]
        tau = np.exp(-(delta * delta).sum(axis=3))
        gap = (np.exp(-(delta_true * delta_true).sum(axis=3)) - tau) * tau
        dx = dx - (delta * gap[..., None]).sum(axis=2) * (4.0 * weights.beta1 / (g * n))
    dm = np.zeros_like(m)
    if weights.beta3 > 0:
        eps = tr.SPARSITY_EPS
        dm = (weights.beta3 / (g * n * eps)) / (m * (1.0 / eps) + 1.0)
    if weights.beta2 > 0:
        dm = dm + tr._divergence(m.mean(axis=1), weights)[1][:, None, :] * (
            weights.beta2 / (g * n))
    return total, dm, dx


class TestTotalLoss:
    @staticmethod
    def _check_zero_betas(*betas):
        # every term is reported, unweighted, as with its beta switched on;
        # total and both gradients are those of the sum without the zero-beta
        # terms, bit for bit
        n, g = 3, 5
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, n, g + 1, 1))
        m0, x0 = rng.uniform(0.05, 0.95, (n, g, n)), rng.standard_normal((n, g, 1))

        def run(weights):
            tape = Tape()
            masks, x_hat = tape.leaf(m0.copy()), tape.leaf(x0.copy())
            root, terms = tr.criterion(masks, x_hat, x, weights)
            grads = tape.backward(root)
            return terms, grads.wrt(masks), grads.wrt(x_hat)

        weights = tr.LossWeights(**dict.fromkeys(betas, 0.0))
        terms, dm, dx = run(weights)
        switched_on = run(tr.LossWeights())[0]
        assert set(terms) == {*tr.LOSS_TERMS, "total"}
        for key in tr.LOSS_TERMS:
            np.testing.assert_array_equal(terms[key], switched_on[key], err_msg=key)
        assert all(np.all(terms[key] > 0) for key in tr.LOSS_TERMS)
        total, want_dm, want_dx = term_free_sum(m0, x0, x, weights, terms)
        np.testing.assert_array_equal(terms["total"], total)
        np.testing.assert_array_equal(dm, want_dm)
        np.testing.assert_array_equal(dx, want_dx)

    def test_zero_betas_pure_reconstruction(self):
        self._check_zero_betas("beta1", "beta2", "beta3")

    @pytest.mark.parametrize("key, beta", [("struct", "beta1"), ("div", "beta2"),
                                           ("sparsity", "beta3")])
    def test_zero_beta_term_is_reported_and_weighs_nothing(self, key, beta):
        # a zero beta used to leave its term out of the terms, so the history
        # read 0 for it
        self._check_zero_betas(beta)

    def test_beta3_linearity(self):
        t1 = random_terms(tr.LossWeights(beta1=0.1, beta2=0.2, beta3=0.3))
        t2 = random_terms(tr.LossWeights(beta1=0.1, beta2=0.2, beta3=0.6))
        np.testing.assert_allclose(t2["total"] - t1["total"], 0.3 * t1["sparsity"],
                                   rtol=1e-12)

    def test_total_is_the_weighted_sum_and_the_root_its_sum(self):
        weights = tr.LossWeights(beta1=0.1, beta2=0.2, beta3=0.3)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 3, 6, 1))
        tape = Tape()
        masks = tape.leaf(rng.uniform(0.05, 0.95, (3, 5, 3)))
        root, terms = tr.criterion(masks, tape.leaf(rng.standard_normal((3, 5, 1))),
                                   x, weights)
        want = (terms["recon"] + 0.1 * terms["struct"] + 0.2 * terms["div"]
                + 0.3 * terms["sparsity"])
        np.testing.assert_allclose(terms["total"], want, rtol=1e-15)
        assert root.shape == () and root.data == terms["total"].sum()
        assert len(tape) == 3 and tape._parents[root.idx] == (masks.idx, masks.idx + 1)

    def test_full_gradient_matches_finite_differences(self):
        # tiny end-to-end instance: N=3, S=2 samples, T=5, H=4, both encoder
        # modes; gradient of the summed per-node loss w.r.t. one MMG weight
        # matrix, one GRU matrix and the other parameter groups
        from dyncause.model import batched_forward, build_node_models

        n, s_count, t_len, h = 3, 2, 5, 4
        rng = np.random.default_rng(3)
        x = rng.standard_normal((s_count, n, t_len, 1))
        weights = tr.LossWeights(beta1=0.5, beta2=0.4, beta3=0.3)

        def full_loss(stack):
            tape = Tape()
            out = batched_forward(stack, x, tape)
            root, _ = tr.criterion(out.masks, out.predictions, x, weights)
            return tape, out, root

        for share in (False, True):
            cfg = tr.TrainConfig(hidden=h, seed=7, share_encoder=share)
            stack = build_node_models(n, 1, cfg.model_config(), cfg.seed)
            assert stack.enc_w.shape[0] == (1 if share else n)
            tape, out, loss = full_loss(stack)
            grads = tape.backward(loss)

            # the GRU checks take one gate block each: U_h and W_z
            for name, cols in (("mmg_w1", slice(None)), ("gru_u", slice(2 * h, None)),
                               ("gru_w", slice(0, h)), ("tip_w2", slice(None)),
                               ("rl_w", slice(None)), ("enc_w", slice(None))):
                base = getattr(stack, name)[..., cols]

                def scalar_loss(v, name=name, cols=cols, cfg=cfg):
                    stack2 = build_node_models(n, 1, cfg.model_config(), cfg.seed)
                    getattr(stack2, name)[..., cols] = v
                    _, _, loss2 = full_loss(stack2)
                    return loss2.data.item()

                fd = central_diff_grad(scalar_loss, base)
                got = grads.wrt(out.leaves[name])[..., cols]
                assert rel_err(got, fd) < 1e-4, (share, name)


class TestCriterion:
    """``criterion`` against a plain-numpy oracle, its closed-form backward
    against central differences, and its one node on the tape."""

    N, G = 3, 4

    @staticmethod
    def _weights(case, n):
        prior = np.random.default_rng(2).uniform(0.1, 0.9, (n, n))
        off = {"beta1": 0.0, "beta2": 0.0, "beta3": 0.0}
        return {
            "recon": tr.LossWeights(**off),
            "struct": tr.LossWeights(**{**off, "beta1": 0.5}),
            "entropy": tr.LossWeights(**{**off, "beta2": 0.8}),
            "kl": tr.LossWeights(**{**off, "beta2": 0.8}, lambda2=1.0, prior=prior),
            "js": tr.LossWeights(**{**off, "beta2": 0.8}, lambda3=1.0, prior=prior),
            "sparsity": tr.LossWeights(**{**off, "beta3": 0.35}),
            "default": tr.LossWeights(),
            "all": tr.LossWeights.with_uniform_prior(n, beta1=0.5),
        }[case]

    @staticmethod
    def _clamp(m):
        # the mean gate of input 0 below GATE_LO and that of input 1 above GATE_HI
        m[..., 0] = 1e-8
        m[..., 1] = 1.0 - 1e-9

    @pytest.mark.parametrize("s_count", [1, 3])
    @pytest.mark.parametrize("case", ["default", "all", "kl", "js", "recon", "struct",
                                      "entropy", "sparsity"])
    def test_terms_match_reference(self, case, s_count):
        # S samples lay out node i's rows sample-major, G = S * (T-1); a term
        # whose beta is 0 is reported all the same
        n, t1 = self.N, self.G
        rng = np.random.default_rng(13)
        weights = self._weights(case, n)
        x = rng.standard_normal((s_count, n, t1 + 1, 1))
        masks = rng.uniform(0.02, 0.98, (s_count, t1, n, n))
        self._clamp(masks[:, :, 0])  # for node 0 only
        preds = rng.standard_normal((s_count, t1, n, 1))
        rows = lambda a: np.ascontiguousarray(
            a.transpose(2, 0, 1, 3).reshape(n, s_count * t1, a.shape[3]))
        tape = Tape()
        _, terms = tr.criterion(tape.leaf(rows(masks)), tape.leaf(rows(preds)), x, weights)
        want = reference_loss(masks, preds, x, weights)
        assert set(terms) == set(want)
        for key in want:
            np.testing.assert_allclose(terms[key], want[key], rtol=1e-12, err_msg=key)

    @pytest.mark.parametrize("case, clamped", [
        ("recon", False), ("struct", False), ("entropy", False), ("entropy", True),
        ("kl", False), ("kl", True), ("js", False), ("js", True), ("sparsity", False),
        ("all", False), ("all", True)],
        ids=["recon", "struct", "entropy", "entropy-clamped", "kl", "kl-clamped", "js",
             "js-clamped", "sparsity", "all", "all-clamped"])
    def test_gradient_matches_central_differences(self, case, clamped):
        # each term's gradient in the gates and the predictions, alone and
        # all together. Clamped, the logs of the divergence read the clipped
        # mean gate and have no gradient; the step is small enough that the
        # means stay clamped
        n, g = self.N, self.G
        rng = np.random.default_rng(11)
        weights = self._weights(case, n)
        x = rng.standard_normal((1, n, g + 1, 1))
        m0 = rng.uniform(0.05, 0.95, (n, g, n))
        x0 = rng.standard_normal((n, g, 1))
        step = 1e-6
        if clamped:
            self._clamp(m0)
            step = 1e-9
            m_bar = m0.mean(axis=1)
            assert np.all(m_bar[:, 0] < GATE_LO) and np.all(m_bar[:, 1] > GATE_HI)

        def root(m, x_hat):
            tape = Tape()
            return tr.criterion(tape.leaf(m), tape.leaf(x_hat), x, weights)[0]

        tape = Tape()
        masks, x_hat = tape.leaf(m0), tape.leaf(x0)
        grads = tape.backward(tr.criterion(masks, x_hat, x, weights)[0])
        fd_m = central_diff_grad(lambda m: root(m, x0).data.item(), m0, h=step)
        fd_x = central_diff_grad(lambda x: root(m0, x).data.item(), x0)
        assert rel_err(grads.wrt(masks), fd_m) < 1e-6
        assert rel_err(grads.wrt(x_hat), fd_x) < 1e-6

    @pytest.mark.parametrize("operand, shape", [
        ("masks", (3, 5, 4)), ("masks", (3, 7, 3)), ("x_hat", (3, 5, 2)), ("x_hat", (2, 5, 1))],
        ids=["masks-inputs", "masks-transitions", "x_hat-features", "x_hat-nodes"])
    def test_operand_of_another_shape_named(self, operand, shape):
        # N and G came from the gates, so gates of the wrong shape gave
        # finite terms for a 3-node, 5-transition series
        x = np.random.default_rng(6).standard_normal((1, 3, 6, 1))
        ops = {"masks": np.full((3, 5, 3), 0.5), "x_hat": np.zeros((3, 5, 1))}
        ops[operand] = np.full(shape, 0.5)
        tape = Tape()
        want = (3, 5, 3) if operand == "masks" else (3, 5, 1)
        message = f"{operand} shape {shape} != {want} for a series of shape (1, 3, 6, 1)"
        with pytest.raises(ad.ShapeError, match=f"^{re.escape(message)}$"):
            tr.criterion(tape.leaf(ops["masks"]), tape.leaf(ops["x_hat"]), x,
                         tr.LossWeights())

    @pytest.mark.parametrize("share", [False, True])
    def test_train_step_tape_is_the_forward_and_one_node(self, monkeypatch, share):
        forwards = []
        original = tr.batched_forward

        def spy(stack, x, *args, **kwargs):
            out = original(stack, x, *args, **kwargs)
            forwards.append((out.tape, len(out.tape)))
            return out

        monkeypatch.setattr(tr, "batched_forward", spy)
        config = tr.TrainConfig(hidden=3, share_encoder=share)
        weights = tr.LossWeights.with_uniform_prior(3)
        x = standardize(np.random.default_rng(5).standard_normal((2, 3, 8, 1)))
        stack = build_node_models(3, 1, config.model_config(), config.seed)
        tr._train_step(stack, x, config, weights, zero_adam(stack.arrays()),
                       np.ones(3, dtype=bool))
        [(tape, forward_nodes)] = forwards
        assert (forward_nodes, len(tape)) == (18, 19)


def zero_adam(params: dict):
    """An Adam state with zero moments for ``params``, as ``train`` makes it."""
    return tr.AdamState(m={k: np.zeros_like(a) for k, a in params.items()},
                        v={k: np.zeros_like(a) for k, a in params.items()})


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        params = {"w": np.array([1.0, -2.0])}
        state = zero_adam(params)
        grads = {"w": np.zeros(2)}
        tr.adam_step(state, params, grads, tr.TrainConfig())
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])

    def test_first_step_is_signed_learning_rate(self):
        config = tr.TrainConfig(learning_rate=1e-3)
        params = {"w": np.array([1.0, 1.0, 1.0])}
        state = zero_adam(params)
        grads = {"w": np.array([0.5, -2.0, 1e-12])}
        tr.adam_step(state, params, grads, config)
        # first bias-corrected step is -lr * g / (|g| + eps)
        np.testing.assert_allclose(params["w"][:2], [1.0 - 1e-3, 1.0 + 1e-3],
                                   atol=2e-8)

    def test_two_steps_use_the_textbook_constants(self):
        # beta1 0.9, beta2 0.999 and eps 1e-8 (Kingma and Ba), bias-corrected
        params = {"w": np.array([0.5, -1.0])}
        state = zero_adam(params)
        g1, g2 = np.array([0.3, -2.0]), np.array([-0.1, 0.7])
        for g in (g1, g2):
            tr.adam_step(state, params, {"w": g}, tr.TrainConfig(learning_rate=0.1))
        m = 0.9 * (0.1 * g1) + 0.1 * g2
        v = 0.999 * (0.001 * g1 * g1) + 0.001 * g2 * g2
        step1 = 0.1 * g1 / (np.abs(g1) + 1e-8)
        step2 = 0.1 * (m / (1 - 0.9 ** 2)) / (np.sqrt(v / (1 - 0.999 ** 2)) + 1e-8)
        np.testing.assert_allclose(params["w"], [0.5, -1.0] - step1 - step2, rtol=1e-14)

    def test_two_runs_bit_identical(self):
        def run():
            rng = np.random.default_rng(5)
            params = {"w": rng.standard_normal(4)}
            state = zero_adam(params)
            for _ in range(10):
                grads = {"w": rng.standard_normal(4)}
                tr.adam_step(state, params, grads, tr.TrainConfig())
            return params["w"]

        np.testing.assert_array_equal(run(), run())

    def test_train_makes_every_moment_before_the_first_step(self, monkeypatch):
        # made after the first backward, the moments would land in the heap
        # space it freed, where the next forward's largest buffer goes;
        # train() makes them, zero, before its first forward
        first = []
        original = tr.adam_step

        def spy(state, params, grads, cfg, write_mask=None):
            if state.step == 0:
                first.append({k: (k in state.m and k in state.v and state.m[k].shape == p.shape
                                  and not state.m[k].any() and not state.v[k].any())
                              for k, p in params.items()})
            return original(state, params, grads, cfg, write_mask)

        monkeypatch.setattr(tr, "adam_step", spy)
        series, _ = small_var_data(n=3, t=30)
        tr.train(series, tr.TrainConfig(epochs=2, hidden=4), tr.LossWeights())
        assert len(first) == 1 and len(first[0]) == 9 and all(first[0].values())


def small_var_data(n=5, t=120, seed=0):
    series, truth = gen_var(n, 1, t, seed=seed)
    return series, truth


class TestTrain:
    def test_loss_finite_and_reconstruction_improves(self):
        series, _ = small_var_data()
        config = tr.TrainConfig(epochs=40, hidden=6, seed=1)
        result = tr.train(series, config, tr.LossWeights())
        totals = [row["total"] for row in result.history]
        assert all(np.isfinite(totals))
        first = np.mean([r["recon"] for r in result.history if r["epoch"] == 1])
        last_epoch = result.epochs_run
        last = np.mean([r["recon"] for r in result.history if r["epoch"] == last_epoch])
        assert last < first

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError):
            tr.TrainConfig(epochs=0)

    @pytest.mark.parametrize("field,value", [
        ("minibatch_size", 0), ("minibatch_size", -1), ("hidden", 0), ("threads", 0),
        ("threads", -2), ("threads", 2), ("learning_rate", np.nan), ("learning_rate", 0.0),
        ("adam_eps", np.inf), ("adam_eps", -1e-8), ("adam_beta1", 1.0),
        ("adam_beta2", -1.0), ("beta1", np.nan), ("beta3", np.inf), ("lambda1", np.nan),
        ("gamma", np.nan), ("epsilon", np.inf), ("beta2", -0.1), ("lambda2", -0.5),
        ("early_stop_tol", np.nan), ("early_stop_tol", -1e-6), ("early_stop_patience", 0),
        ("phi", "gelu"), ("self_loop", np.nan), ("self_loop", np.inf), ("self_loop", -1.0),
        ("epochs", 2.5), ("minibatch_size", 2.5), ("early_stop_patience", 2.5),
        ("seed", 1.5), ("hidden", 2.5), ("epochs", True), ("seed", False),
        ("hidden", True), ("share_encoder", "no"), ("share_encoder", 1),
        ("learning_rate", None), ("adam_beta1", None), ("adam_beta2", None),
        ("adam_eps", None), ("early_stop_tol", None), ("self_loop", None), ("beta1", None),
        ("beta2", None), ("beta3", None), ("lambda1", None), ("lambda2", None),
        ("lambda3", None), ("gamma", None), ("epsilon", None), ("early_stop_tol", "x"),
        ("epsilon", "x"), ("gamma", True), ("threads", True), ("threads", 1.0)])
    def test_counts_below_one_rejected_by_name(self, field, value):
        # every out-of-range setting, of TrainConfig or LossWeights, fails at
        # construction with the field named; a value that is not a real
        # number used to raise a bare TypeError naming no field. The
        # activation, the self loop, Adam's constants, the kernel scale, the
        # log-sum scale and the entropy weight are fixed, so setting one
        # fails as an unknown keyword that names it
        fixed_weights = ("lambda1", "gamma", "epsilon")
        cls = (tr.LossWeights if hasattr(tr.LossWeights, field) or field in fixed_weights
               else tr.TrainConfig)
        error = TypeError if field in ("phi", "self_loop", "adam_beta1", "adam_beta2",
                                       "adam_eps", *fixed_weights) else ValueError
        with pytest.raises(error, match=field):
            cls(**{field: value})

    @pytest.mark.parametrize("inf", [True, False])
    def test_non_finite_input_named_by_location(self, inf):
        series, _ = small_var_data(t=60)
        series[0, 2, 17, 0] = np.inf if inf else np.nan
        config = tr.TrainConfig(epochs=2, hidden=4)
        with pytest.raises(ValueError, match=r"\(0, 2, 17\)"):
            tr.train(series, config, tr.LossWeights())

    def test_saturated_gate_keeps_the_finished_fit(self):
        # a gate bias of 40 rounds the sigmoid to exactly 1.0; the read-out
        # clips it to GATE_HI, and forward_full replays the masks bit for bit
        stack = build_node_models(3, 1, ModelConfig(hidden=3), 0)
        stack.mmg_w2[:, -1] = 40.0  # the gate bias row of [W; b]
        series = gen_var(3, 1, 30, 0)[0]
        config = tr.TrainConfig(epochs=3, hidden=3)
        result = tr.train(series, config, tr.LossWeights(), models=stack)
        assert result.epochs_run == 3 and result.masks.values.max() == GATE_HI
        masks, _ = forward_full(result.models, standardize(series))
        np.testing.assert_array_equal(masks.values, result.masks.values)

    def test_prior_shape_must_match_the_nodes(self):
        series, _ = small_var_data(n=3, t=30)
        weights = tr.LossWeights.with_uniform_prior(4)
        with pytest.raises(ValueError, match=r"\(4, 4\).*\(3, 3\)"):
            tr.train(series, tr.TrainConfig(epochs=2, hidden=4), weights)

    def test_trains_given_stack_in_place(self):
        from dyncause.model import build_node_models

        series, _ = small_var_data(t=40)
        config = tr.TrainConfig(epochs=3, hidden=4, seed=2)
        stack = build_node_models(5, 1, config.model_config(), config.seed)
        before = stack.mmg_w1.copy()
        result = tr.train(series, config, tr.LossWeights(), models=stack)
        assert result.models is stack and not np.array_equal(stack.mmg_w1, before)
        default = tr.train(series, config, tr.LossWeights())
        np.testing.assert_array_equal(result.masks.values, default.masks.values)

    def test_given_stack_must_match_config(self):
        # a stack built for another architecture would train without complaint
        series, _ = small_var_data(t=30)
        stack = build_node_models(5, 1, ModelConfig(hidden=7, share_encoder=True), 0)
        with pytest.raises(ValueError, match=r"\(hidden, encoder rows\) = \(7, 1\), the config "
                                             r"asks for \(4, 5\)"):
            tr.train(series, tr.TrainConfig(epochs=1, hidden=4), tr.LossWeights(),
                     models=stack)

    def test_one_node_stack_serves_either_encoder_config(self):
        # at N = 1 the one encoder row is both shared and per node: the two
        # builds are the same arrays, and train() takes either under either
        def build(share):
            return build_node_models(1, 1, ModelConfig(hidden=3, share_encoder=share), 4)

        shared, per_node = build(True), build(False)
        for name, arr in shared.arrays().items():
            np.testing.assert_array_equal(arr, per_node.arrays()[name], err_msg=name)
        for name, rows in shared.serves().items():
            np.testing.assert_array_equal(rows, per_node.serves()[name], err_msg=name)
        series = np.random.default_rng(4).standard_normal((1, 1, 30, 1))
        for built_shared in (True, False):
            for share in (True, False):
                config = tr.TrainConfig(epochs=1, hidden=3, share_encoder=share)
                fit = tr.train(series, config, tr.LossWeights(), models=build(built_shared))
                assert fit.epochs_run == 1

    def test_given_stack_must_match_data(self):
        # a stack for 6 nodes used to fail deep inside the GRU bank
        series, _ = small_var_data(t=30)
        config = tr.TrainConfig(epochs=1, hidden=4)
        stack = build_node_models(6, 1, config.model_config(), 0)
        with pytest.raises(ValueError, match=r"\(6, 1\), the data has \(5, 1\)"):
            tr.train(series, config, tr.LossWeights(), models=stack)

    @pytest.mark.parametrize("shape,axis", [
        ((0, 3, 10, 1), "sample"), ((1, 0, 10, 1), "node"), ((1, 3, 10, 0), "feature")])
    @pytest.mark.parametrize("batch_mode", ["full", "sample_minibatch"])
    def test_empty_axis_named(self, batch_mode, shape, axis):
        # no samples used to fail on a zero chunk step in range(), no nodes
        # inside the GRU bank, and no features dividing by a zero fan-in
        config = tr.TrainConfig(epochs=1, hidden=4, batch_mode=batch_mode)
        with pytest.raises(ad.ShapeError, match=f"empty on its {axis} axis"):
            tr.train(np.zeros(shape), config, tr.LossWeights())

    def test_same_seed_identical_masks(self):
        series, _ = small_var_data(t=60)
        config = tr.TrainConfig(epochs=8, hidden=5, seed=3)
        r1 = tr.train(series, config, tr.LossWeights())
        r2 = tr.train(series, config, tr.LossWeights())
        assert np.array_equal(r1.masks.values, r2.masks.values)

    def test_nan_abort_carries_diagnostics(self, monkeypatch):
        series, _ = small_var_data(t=40)

        calls = {"n": 0}
        original = tr.criterion

        def poisoned(*args):
            calls["n"] += 1
            if calls["n"] == 3:
                raise ad.NumericError("non-finite loss term 'recon' at node 0")
            return original(*args)

        monkeypatch.setattr(tr, "criterion", poisoned)
        with pytest.raises(tr.TrainingError, match="epoch 3"):
            tr.train(series, tr.TrainConfig(epochs=10, hidden=4, seed=5),
                     tr.LossWeights())

    def test_non_finite_loss_names_epoch_node_and_term(self):
        # a prediction of 1e200 is finite, its squared error is not: the
        # criterion names the node and the term, and no overflow warning
        # escapes on the way
        series, _ = small_var_data(n=3, t=30)
        config = tr.TrainConfig(epochs=2, hidden=3)
        stack = build_node_models(3, 1, config.model_config(), config.seed)
        stack.tip_w2[1, -1] = 1e200  # node 1's output bias row of [W; b]
        with warnings.catch_warnings(), pytest.raises(
                tr.TrainingError, match=r"^epoch 1: non-finite loss term 'recon' at node 1$"):
            warnings.simplefilter("error")
            tr.train(series, config, tr.LossWeights(), models=stack)

    def test_early_stop_freezes_everything(self):
        series, _ = small_var_data(t=40)
        config = tr.TrainConfig(epochs=500, hidden=4, seed=6,
                                early_stop_tol=1e9, early_stop_patience=3)
        result = tr.train(series, config, tr.LossWeights())
        # epoch 1 improves from infinity, then patience epochs of stall
        assert result.epochs_run == 4

    @pytest.mark.parametrize("share", [False, True])
    def test_partial_early_stop_freezes_only_converged_rows(self, monkeypatch, share):
        # some nodes stop while others train: a frozen node's rows and Adam
        # moments stay bit for bit, and a shared encoder trains while any
        # node does. Row layout: per-node GRU rows i*N..i*N+N-1, other rows i.
        series, _ = gen_var(5, 1, 60, 1)
        n = series.shape[1]
        config = tr.TrainConfig(learning_rate=1e-2, hidden=6, seed=3, epochs=80,
                                early_stop_tol=5e-3, early_stop_patience=2,
                                share_encoder=share)
        models = build_node_models(n, 1, config.model_config(), config.seed)
        encoder = ("gru_w", "gru_u", "enc_w")
        assert set(encoder) <= models.arrays().keys()  # a stale name would match nothing
        steps = []  # per Adam step: name -> (rows, N) bool, "row of node i changed"
        original = tr.adam_step

        def spy(state, params, grads, cfg, write_mask=None):
            arrays = models.arrays()
            zero = {k: np.zeros_like(a) for k, a in arrays.items()}  # moments start at 0
            before = {k: (a.copy(), state.m.get(k, zero[k]).copy(),
                          state.v.get(k, zero[k]).copy()) for k, a in arrays.items()}
            out = original(state, params, grads, cfg, write_mask)
            changed = {}
            for k, a in arrays.items():
                nodes = 1 if share and k in encoder else n
                moved = [(x0 != x1).reshape(nodes, -1).any(axis=1)
                         for x0, x1 in zip(before[k], (a, state.m[k], state.v[k]))]
                changed[k] = np.array(moved)  # (param|m|v, nodes)
            steps.append(changed)
            return out

        monkeypatch.setattr(tr, "adam_step", spy)
        result = tr.train(series, config, tr.LossWeights(), models=models)
        assert len(steps) == result.epochs_run < config.epochs
        # the history comes out in (epoch, node) order, and each node's final
        # loss is its last epoch's total
        order = [(r["epoch"], r["node"]) for r in result.history]
        assert order == [(e, i) for e in range(1, result.epochs_run + 1) for i in range(n)]
        np.testing.assert_array_equal(result.final_losses,
                                      [r["total"] for r in result.history[-n:]])

        # replay the early-stop rule on the recorded losses
        totals = np.array([[r["total"] for r in result.history if r["epoch"] == e]
                           for e in range(1, result.epochs_run + 1)])
        best, stall, active = np.full(n, np.inf), np.zeros(n, int), np.ones(n, bool)
        partial = 0
        for changed, cur in zip(steps, totals):
            partial += not active.all()
            for k, moved in changed.items():
                if share and k in encoder:
                    assert moved[0, 0], k  # some node still trains
                else:
                    assert not moved[:, ~active].any(), k
                    assert moved[0, active].all(), k
            improved = cur < best - config.early_stop_tol
            stall = np.where(improved, 0, stall + 1)
            best = np.minimum(best, cur)
            active &= stall < config.early_stop_patience
        assert partial > len(steps) // 2

    def test_each_chunk_tape_freed_before_next_forward(self, monkeypatch):
        # without the cycle collector, chunk k's tape (every forward array
        # and backward closure) must be gone when chunk k+1's forward starts
        rng = np.random.default_rng(7)
        series = rng.standard_normal((5, 3, 20, 1))
        config = tr.TrainConfig(epochs=2, hidden=4, seed=8,
                                batch_mode="sample_minibatch", minibatch_size=2)
        tapes = []
        original = tr.batched_forward

        def spy(stack, x, *args, **kwargs):
            assert all(ref() is None for ref in tapes)
            out = original(stack, x, *args, **kwargs)
            tapes.append(weakref.ref(out.tape))  # the epilogue's is private
            return out

        monkeypatch.setattr(tr, "batched_forward", spy)
        gc.disable()
        try:
            tr.train(series, config, tr.LossWeights())
        finally:
            gc.enable()
        assert len(tapes) == 2 * 3 + 1  # 3 chunks per epoch, then the epilogue

    def test_train_step_memory_bound(self):
        # var20-shared's shape: N=20, T=500, h=15, one shared encoder row. One
        # (N, N, T-1, h) buffer, the size of gated pooling's whole activation,
        # takes 22.8 MiB. gated_pool holds one node's activation at a time and
        # rebuilds it in its backward, the sweep frees each op's closure once
        # it has run, and the fused backwards write over the buffers they read
        # last, so the step peaks near 0.9 such buffers. An activation kept
        # for the backward takes it near 2
        n, t_len, h = 20, 500, 15
        unit = n * n * (t_len - 1) * h * 8
        config = tr.TrainConfig(hidden=h, seed=2, share_encoder=True)
        weights = tr.LossWeights()
        stack = build_node_models(n, 1, config.model_config(), config.seed)
        x = standardize(gen_var(n, 1, t_len, seed=3)[0])
        active = np.ones(n, dtype=bool)
        tracemalloc.start()
        try:
            terms = tr._train_step(stack, x, config, weights,
                                   zero_adam(stack.arrays()), active)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(terms["total"]))
        assert peak < 1.25 * unit

    def test_zero_beta_history_reads_the_unweighted_term(self, monkeypatch):
        # a beta1 = 0 fit logged struct 0; it now logs what criterion reports
        # for the same gates and predictions with the term switched on
        seen = []
        original = tr.criterion

        def spy(masks, x_hat, x, weights):
            seen.append((masks.data.copy(), x_hat.data.copy(), x))
            return original(masks, x_hat, x, weights)

        monkeypatch.setattr(tr, "criterion", spy)
        series, _ = small_var_data(n=3, t=30)
        result = tr.train(series, tr.TrainConfig(epochs=2, hidden=3),
                          tr.LossWeights(beta1=0.0))
        assert len(seen) == 2  # one full-batch step per epoch
        for epoch, (m, x_hat, x) in enumerate(seen, 1):
            tape = Tape()
            want = original(tape.leaf(m), tape.leaf(x_hat), x, tr.LossWeights())[1]
            got = [row["struct"] for row in result.history if row["epoch"] == epoch]
            np.testing.assert_array_equal(got, want["struct"])
            assert np.all(want["struct"] > 0)

    def test_loss_history_csv_round_trips(self, tmp_path):
        series, _ = small_var_data(n=3, t=30)
        result = tr.train(series, tr.TrainConfig(epochs=3, hidden=4, seed=9),
                          tr.LossWeights())
        path = tmp_path / "history.csv"
        tr.write_loss_history_csv(result.history, path)
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
            assert reader.fieldnames == tr.HISTORY_FIELDS
        assert len(rows) == len(result.history) == 9
        for row, want in zip(rows, result.history):
            got = {k: (int(v) if k in ("epoch", "node") else float(v))
                   for k, v in row.items()}
            assert got == want

    def test_minibatch_mode_runs(self):
        rng = np.random.default_rng(7)
        series = rng.standard_normal((4, 3, 30, 1))
        # numpy integers count as integers
        config = tr.TrainConfig(epochs=np.int64(4), hidden=4, seed=8,
                                batch_mode="sample_minibatch", minibatch_size=np.int64(2))
        result = tr.train(series, config, tr.LossWeights())
        assert result.masks.values.shape == (4, 29, 3, 3)


def strong_positive_var(seed):
    """A (1, 5, 500, 1) VAR(1) series and its truth: ``gen_var``'s draw with
    every coefficient made positive and the transition rescaled to spectral
    radius 0.9, so each cause explains much of its effect's next step."""
    rng = np.random.default_rng(seed)
    transition, truth = sim._draw_var_system(5, 1, rng)
    a = np.abs(transition[0])
    a *= 0.9 / sim.companion_spectral_radius([a])
    series = sim._simulate_var([a], 500, rng, sim.VAR_BURN_IN)
    return series.T[None, :, :, None], truth.adjacency


def offdiag_auroc(score, adjacency):
    """The probability that an off-diagonal true edge outscores an
    off-diagonal non-edge, a tie counting one half."""
    off = ~np.eye(adjacency.shape[0], dtype=bool)
    s, edge = score[off], adjacency[off].astype(bool)
    diff = s[edge][:, None] - s[~edge][None, :]
    return float(((diff > 0) + 0.5 * (diff == 0)).mean())


class TestGraphRecovery:
    """A fit recovers the graph of a strong positive-sign VAR: the
    time-averaged gates rank true edges above the rest."""

    # measured 1.00, 0.87 and 1.00 at init seed 0; init seeds 1-3 read
    # 0.94-1.00, 0.72-0.95 and 0.88-1.00. Chance is 0.5
    FLOORS = {1: 0.85, 2: 0.70, 3: 0.85}

    @pytest.mark.parametrize("seed", sorted(FLOORS))
    def test_time_averaged_gates_rank_the_true_edges(self, seed):
        x, adjacency = strong_positive_var(seed)
        fit = tr.train(x, tr.TrainConfig(learning_rate=1e-2, epochs=100, seed=0),
                       tr.LossWeights())
        score = fit.masks.values.mean(axis=(0, 1))
        assert offdiag_auroc(score, adjacency) >= self.FLOORS[seed]

    # the other two paths a fit takes, each on data seed 1 at init seed 0.
    # shared encoder: measured 1.00; init seeds 0-2 on data seeds 1-3 read
    # 0.90-1.00. Ten windows of 50 steps, minibatches of 5: measured 1.00,
    # and 1.00 at all nine
    @pytest.mark.parametrize("extra, windows, floor", [
        ({"share_encoder": True}, 1, 0.85),
        ({"batch_mode": "sample_minibatch", "minibatch_size": 5}, 10, 0.90),
    ], ids=["shared-encoder", "windowed-minibatches"])
    def test_other_paths_rank_the_true_edges(self, extra, windows, floor):
        x, adjacency = strong_positive_var(1)
        _, n, t_len, d = x.shape
        x = x[0].reshape(n, windows, t_len // windows, d).transpose(1, 0, 2, 3)
        fit = tr.train(x, tr.TrainConfig(learning_rate=1e-2, epochs=100, seed=0, **extra),
                       tr.LossWeights())
        score = fit.masks.values.mean(axis=(0, 1))
        assert offdiag_auroc(score, adjacency) >= floor


class TestGridSearch:
    def test_single_point_grid(self):
        cfg = tr.TrainConfig(epochs=2, hidden=4)
        w = tr.LossWeights()
        best_cfg, best_w, score, trials = tr.grid_search(
            {"beta1": [2.0]}, cfg, w, objective=lambda c, wt: wt.beta1)
        assert best_w.beta1 == 2.0
        assert len(trials) == 1

    def test_constant_objective_lexicographic_tiebreak(self):
        cfg = tr.TrainConfig(epochs=2, hidden=4)
        w = tr.LossWeights()
        best_cfg, best_w, score, trials = tr.grid_search(
            {"beta3": [3.0, 1.0], "beta1": [0.5, 0.1]}, cfg, w,
            objective=lambda c, wt: 7.0)
        # sorted names: beta1, beta3; first combination is (0.5, 3.0), and
        # the last name varies fastest
        assert best_w.beta1 == 0.5 and best_w.beta3 == 3.0
        assert trials[1]["params"] == {"beta1": 0.5, "beta3": 1.0}

    def test_two_by_two_grid_evaluates_four(self):
        cfg = tr.TrainConfig(epochs=2, hidden=4)
        w = tr.LossWeights()
        seen = []
        tr.grid_search({"beta1": [1.0, 2.0], "learning_rate": [1e-3, 1e-2]},
                       cfg, w, objective=lambda c, wt: seen.append(1) or 0.0)
        assert len(seen) == 4

    @pytest.mark.parametrize("name", ["model_config", "with_uniform_prior", "nodes",
                                      "lambda1"])
    def test_only_config_and_weight_fields_are_hyperparameters(self, name):
        # methods and properties are attributes too, but not fields that
        # replace() can set
        with pytest.raises(ValueError, match=f"unknown hyperparameter '{name}'"):
            tr.grid_search({name: [1]}, tr.TrainConfig(), tr.LossWeights(), lambda c, w: 0)

    def test_iterator_of_candidates_read_once(self):
        # the emptiness check used to consume a generator, so no combination
        # was left to try
        trials = tr.grid_search({"learning_rate": (v for v in [1e-3, 1e-2])},
                                tr.TrainConfig(), tr.LossWeights(),
                                lambda c, w: c.learning_rate)[3]
        assert [t["params"]["learning_rate"] for t in trials] == [1e-3, 1e-2]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            tr.grid_search({}, tr.TrainConfig(), tr.LossWeights(), lambda c, w: 0)

    def test_non_finite_score_rejected_naming_its_params(self):
        # a NaN scored first would otherwise stay best: no score compares below it
        scores = iter([np.nan, 1.0, 0.5])
        with pytest.raises(ValueError, match=r"nan for \{'learning_rate': 0.001\}"):
            tr.grid_search({"learning_rate": [1e-3, 1e-2, 1e-1]}, tr.TrainConfig(),
                           tr.LossWeights(), objective=lambda c, w: next(scores))

    def test_validation_objective_rejects_empty_holdout(self):
        # T=10 at fraction 0.04 cuts at round(9.6) = 10: no held-out transition
        series, _ = gen_var(4, 1, 10, 0)
        with pytest.raises(ValueError, match="holds out no transition"):
            tr.validation_recon_objective(series, holdout_fraction=0.04)

    @pytest.mark.parametrize("shape", [(1, 3, 5), (20,)], ids=["3-D", "1-D"])
    def test_validation_objective_rejects_a_non_series(self, shape):
        # a 3-D array used to be accepted with its feature axis read as time
        with pytest.raises(ad.ShapeError, match=r"series must be \(S, N, T, d\)"):
            tr.validation_recon_objective(np.zeros(shape))

    @pytest.mark.parametrize("fraction", [1.5, np.nan, np.inf, 0.0, 1.0, -0.2])
    def test_validation_objective_rejects_a_bad_fraction_by_name(self, fraction):
        # 1.5 used to be clamped to a 2-step training prefix without a word
        series, _ = gen_var(4, 1, 20, 0)
        with pytest.raises(ValueError, match="holdout_fraction must be finite and strictly"):
            tr.validation_recon_objective(series, holdout_fraction=fraction)

    def test_validation_objective_runs(self):
        series, _ = small_var_data(n=4, t=60)
        objective = tr.validation_recon_objective(series)
        cfg = tr.TrainConfig(epochs=3, hidden=4, seed=9)
        score = objective(cfg, tr.LossWeights())
        assert np.isfinite(score) and score >= 0

    def test_validation_objective_scores_on_training_scale(self, monkeypatch):
        # the holdout must be standardized with the training prefix's moments,
        # not the whole series': the model never saw the latter's scale
        series, _ = gen_var(4, 1, 60, 0)
        seen = []
        forward_full = tr.forward_full

        def spy(models, x, *args, **kwargs):
            seen.append(x)
            return forward_full(models, x, *args, **kwargs)

        monkeypatch.setattr(tr, "forward_full", spy)
        objective = tr.validation_recon_objective(series, holdout_fraction=0.2)
        score = objective(tr.TrainConfig(epochs=2, hidden=4, seed=9), tr.LossWeights())
        assert np.isfinite(score)
        (x_eval,) = seen
        assert x_eval.shape == series.shape
        np.testing.assert_array_equal(x_eval[:, :, :48], standardize(series[:, :, :48]))
