import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncause import autodiff as ad
from dyncause import training as tr
from dyncause.autodiff import Tape
from dyncause.simulate import gen_var, standardize

from test_autodiff import central_diff_grad, rel_err


class TestLossWeights:
    def test_mixture_must_sum_to_one(self):
        with pytest.raises(ValueError):
            tr.LossWeights(lambda1=0.5, lambda2=0.2, lambda3=0.2)

    def test_prior_required_for_kl(self):
        with pytest.raises(ValueError):
            tr.LossWeights(lambda1=0.5, lambda2=0.5, lambda3=0.0)

    def test_uniform_prior_helper(self):
        w = tr.LossWeights.with_uniform_prior(4)
        assert w.prior.shape == (4, 4)
        assert abs(w.lambda1 + w.lambda2 + w.lambda3 - 1.0) < 1e-12


# The loss terms take a leading node axis; these tests use one node.


def recon_loss(x_true, x_hat):
    """Reconstruction loss of one node; x_true (G, d), x_hat (G, d) values."""
    return tr._recon_vec(x_true[None], Tape().leaf(np.asarray(x_hat)[None])).data.item()


def struct_loss(x_target, node_index, x_hat, gamma):
    """Structure loss of one node, with the kernel rows built by training's
    own constants; x_target (G, N, d) true values at t, x_hat (G, d)."""
    g, n, d = x_target.shape
    series = np.zeros((1, n, g + 1, d))
    series[0, :, 1:, :] = x_target.transpose(1, 0, 2)
    consts = tr._group_consts(series, [node_index], gamma)
    x_hat = Tape().leaf(np.asarray(x_hat)[None])
    return tr._struct_vec(consts.x_target, consts.tau_true, x_hat, gamma).data.item()


def divergence_loss(masks, weights, node_index):
    """Divergence loss of one node's (G, N) gate rows."""
    return tr._divergence_vec(Tape().leaf(masks[None]), weights, [node_index]).data.item()


def sparsity_loss(masks, epsilon):
    return tr._sparsity_vec(Tape().leaf(masks[None]), epsilon).data.item()


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
        assert struct_loss(x_target, 1, x_target[:, 1, :].copy(), gamma=1.0) == 0.0

    def test_kernel_self_similarity_is_one(self):
        for gamma in (0.5, 1.0, 3.0):
            x = np.random.default_rng(2).standard_normal(3)
            assert np.exp(-gamma * ((x - x) ** 2).sum()) == 1.0

    def test_hand_arithmetic(self):
        # N=2, one transition, d=1, gamma=1: truths x1=1, x2=3, prediction for
        # node 0 is 2. tau_true = [1, exp(-4)]; tau_pred = [exp(-1), exp(-1)]
        x_target = np.array([[[1.0], [3.0]]])
        got = struct_loss(x_target, 0, [[2.0]], gamma=1.0)
        expected = ((1 - np.exp(-1)) ** 2 + (np.exp(-4) - np.exp(-1)) ** 2) / 2
        assert got == pytest.approx(expected, rel=1e-12)


class TestDivergenceLoss:
    def test_kl_js_zero_when_mask_equals_prior(self):
        n = 4
        prior = np.full((n, n), 0.3)
        w = tr.LossWeights(lambda1=0.0, lambda2=0.5, lambda3=0.5, prior=prior)
        out = divergence_loss(np.full((6, n), 0.3), w, node_index=2)
        assert abs(out) < 1e-12

    def test_entropy_at_one_over_e(self):
        # -m log m at m = 1/e is 1/e per entry, so the mean is 1/e
        n = 5
        w = tr.LossWeights(lambda1=1.0, lambda2=0.0, lambda3=0.0)
        out = divergence_loss(np.full((3, n), 1.0 / np.e), w, node_index=0)
        assert out == pytest.approx(1.0 / np.e, rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_js_nonnegative_and_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        n = 4
        m_vals = rng.uniform(0.05, 0.95, n)
        p_vals = rng.uniform(0.05, 0.95, (n, n))
        w_mp = tr.LossWeights(lambda1=0.0, lambda2=0.0, lambda3=1.0, prior=p_vals)
        js_mp = divergence_loss(np.tile(m_vals, (3, 1)), w_mp, node_index=1)
        assert js_mp >= -1e-15
        # swap roles: prior row becomes the mask value and vice versa
        p_swapped = p_vals.copy()
        p_swapped[1] = m_vals
        w_pm = tr.LossWeights(lambda1=0.0, lambda2=0.0, lambda3=1.0, prior=p_swapped)
        js_pm = divergence_loss(np.tile(p_vals[1], (3, 1)), w_pm, node_index=1)
        assert js_mp == pytest.approx(js_pm, rel=1e-10, abs=1e-12)

    def test_js_bounded_by_log2(self):
        # per-entry JS contribution before the 1/(2N) averaging is <= log 2
        n = 3
        prior = np.full((n, n), 1.0 - 1e-7)
        w = tr.LossWeights(lambda1=0.0, lambda2=0.0, lambda3=1.0, prior=prior)
        out = divergence_loss(np.full((2, n), 1e-7), w, node_index=0)
        assert out <= np.log(2) + 1e-9


class TestSparsityLoss:
    def test_zero_mask_limit(self):
        out = sparsity_loss(np.full((4, 3), 1e-15), epsilon=0.01)
        assert abs(out) < 1e-10

    def test_entry_at_epsilon_gives_log_two(self):
        out = sparsity_loss(np.full((1, 1), 0.01), epsilon=0.01)
        assert out == pytest.approx(np.log(2.0), rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_monotone_in_every_entry(self, seed):
        rng = np.random.default_rng(seed)
        base = rng.uniform(0.1, 0.8, (3, 4))
        bumped = base.copy()
        i, j = rng.integers(0, 3), rng.integers(0, 4)
        bumped[i, j] += 0.1
        lo = sparsity_loss(base, 0.01)
        hi = sparsity_loss(bumped, 0.01)
        assert hi > lo


def total_loss(recon, struct, div, sparsity, weights):
    tape = Tape()
    terms = (recon, struct, div, sparsity)
    vecs = {k: tape.leaf([v]) for k, v in zip(("recon", "struct", "div", "sparsity"), terms)}
    return tr._combine(vecs, weights).data.item()


class TestTotalLoss:
    def test_zero_betas_pure_reconstruction(self):
        w = tr.LossWeights(beta1=0, beta2=0, beta3=0)
        assert total_loss(1.3, 0.7, 0.2, 0.9, w) == 1.3

    def test_beta3_linearity(self):
        w1 = tr.LossWeights(beta1=0.1, beta2=0.2, beta3=0.3)
        w2 = tr.LossWeights(beta1=0.1, beta2=0.2, beta3=0.6)
        l1 = total_loss(1.0, 0.5, 0.25, 2.0, w1)
        l2 = total_loss(1.0, 0.5, 0.25, 2.0, w2)
        assert l2 - l1 == pytest.approx(0.3 * 2.0, rel=1e-12)

    def test_full_gradient_matches_finite_differences(self):
        # tiny end-to-end instance: N=3, S=2 samples, T=5, H=4, both encoder
        # modes; gradient of the summed per-node loss w.r.t. one MMG weight
        # matrix, one GRU matrix and the other parameter groups
        from dyncause.model import batched_forward, build_node_models

        n, s_count, t_len, h = 3, 2, 5, 4
        rng = np.random.default_rng(3)
        x = rng.standard_normal((s_count, n, t_len, 1))
        weights = tr.LossWeights(beta1=0.5, beta2=0.4, beta3=0.3, gamma=1.0,
                                 epsilon=0.05)
        consts = tr._group_consts(x, range(n), weights.gamma)

        def full_loss(stack):
            tape = Tape()
            out = batched_forward(stack, x, tape)
            vecs = tr._loss_vectors(out, consts, weights, range(n))
            return tape, out, ad.reduce_sum(tr._combine(vecs, weights))

        for share in (False, True):
            cfg = tr.TrainConfig(hidden=h, seed=7, share_encoder=share)
            stack = build_node_models(n, 1, cfg.model_config(), cfg.seed)
            assert stack.shared_encoder == share
            tape, out, loss = full_loss(stack)
            grads = tape.backward(loss)

            for name in ("mmg_w1", "gru.u_h", "gru.w_z", "tip_w2", "rl_w", "enc_w"):
                field = name.replace("gru.", "")
                base = (stack.gru[field] if name.startswith("gru.")
                        else getattr(stack, name))

                def scalar_loss(v, name=name, field=field, cfg=cfg):
                    stack2 = build_node_models(n, 1, cfg.model_config(), cfg.seed)
                    if name.startswith("gru."):
                        stack2.gru[field] = v
                    else:
                        setattr(stack2, name, v)
                    _, _, loss2 = full_loss(stack2)
                    return loss2.data.item()

                fd = central_diff_grad(scalar_loss, base)
                assert rel_err(grads.wrt(out.leaves[name]), fd) < 1e-4, (share, name)


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        state = tr.AdamState()
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.zeros(2)}
        tr.adam_step(state, params, grads, tr.TrainConfig())
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])

    def test_first_step_is_signed_learning_rate(self):
        config = tr.TrainConfig(learning_rate=1e-3)
        state = tr.AdamState()
        params = {"w": np.array([1.0, 1.0, 1.0])}
        grads = {"w": np.array([0.5, -2.0, 1e-12])}
        tr.adam_step(state, params, grads, config)
        # first bias-corrected step is -lr * g / (|g| + eps)
        np.testing.assert_allclose(params["w"][:2], [1.0 - 1e-3, 1.0 + 1e-3],
                                   atol=2e-8)

    def test_two_runs_bit_identical(self):
        def run():
            rng = np.random.default_rng(5)
            state = tr.AdamState()
            params = {"w": rng.standard_normal(4)}
            for _ in range(10):
                grads = {"w": rng.standard_normal(4)}
                tr.adam_step(state, params, grads, tr.TrainConfig())
            return params["w"]

        np.testing.assert_array_equal(run(), run())


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

    @pytest.mark.parametrize("field,value", [("minibatch_size", 0), ("minibatch_size", -1),
                                             ("hidden", 0), ("threads", 0),
                                             ("threads", -2)])
    def test_counts_below_one_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            tr.TrainConfig(**{field: value})

    @pytest.mark.parametrize("standardize_input", [True, False])
    def test_non_finite_input_named_by_location(self, standardize_input):
        series, _ = small_var_data(t=60)
        series[0, 2, 17, 0] = np.inf if standardize_input else np.nan
        config = tr.TrainConfig(epochs=2, hidden=4, standardize_input=standardize_input)
        with pytest.raises(ValueError, match=r"\(0, 2, 17\)"):
            tr.train(series, config, tr.LossWeights())

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

    def test_same_seed_identical_masks(self):
        series, _ = small_var_data(t=60)
        config = tr.TrainConfig(epochs=8, hidden=5, seed=3)
        r1 = tr.train(series, config, tr.LossWeights())
        r2 = tr.train(series, config, tr.LossWeights())
        assert np.array_equal(r1.masks.values, r2.masks.values)

    @pytest.mark.parametrize("threads", [2, 3])
    def test_thread_count_does_not_change_results(self, threads):
        series, _ = small_var_data(n=6, t=60)
        base = tr.train(series, tr.TrainConfig(epochs=6, hidden=4, seed=4),
                        tr.LossWeights())
        # the node groups update disjoint rows of the shared stack in place;
        # frequent thread switches make a lost or crossed update likelier
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            split = tr.train(series,
                             tr.TrainConfig(epochs=6, hidden=4, seed=4, threads=threads),
                             tr.LossWeights())
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(base.masks.values, split.masks.values)
        assert np.array_equal(base.predictions.values, split.predictions.values)

    def test_nan_abort_carries_diagnostics(self, monkeypatch):
        series, _ = small_var_data(t=40)

        calls = {"n": 0}
        original = tr._recon_vec

        def poisoned(x_next, x_hat):
            calls["n"] += 1
            if calls["n"] == 3:
                raise ad.NumericError("non-finite value produced by op 'matmul'")
            return original(x_next, x_hat)

        monkeypatch.setattr(tr, "_recon_vec", poisoned)
        with pytest.raises(tr.TrainingError, match="epoch 3"):
            tr.train(series, tr.TrainConfig(epochs=10, hidden=4, seed=5),
                     tr.LossWeights())

    def test_early_stop_freezes_everything(self):
        series, _ = small_var_data(t=40)
        config = tr.TrainConfig(epochs=500, hidden=4, seed=6,
                                early_stop_tol=1e9, early_stop_patience=3)
        result = tr.train(series, config, tr.LossWeights())
        # epoch 1 improves from infinity, then patience epochs of stall
        assert result.epochs_run == 4

    def test_minibatch_mode_runs(self):
        rng = np.random.default_rng(7)
        series = rng.standard_normal((4, 3, 30, 1))
        config = tr.TrainConfig(epochs=4, hidden=4, seed=8,
                                batch_mode="sample_minibatch", minibatch_size=2)
        result = tr.train(series, config, tr.LossWeights())
        assert result.masks.values.shape == (4, 29, 3, 3)


class TestGridSearch:
    def test_single_point_grid(self):
        cfg = tr.TrainConfig(epochs=2, hidden=4)
        w = tr.LossWeights()
        best_cfg, best_w, score, trials = tr.grid_search(
            {"gamma": [2.0]}, cfg, w, objective=lambda c, wt: wt.gamma)
        assert best_w.gamma == 2.0
        assert len(trials) == 1

    def test_constant_objective_lexicographic_tiebreak(self):
        cfg = tr.TrainConfig(epochs=2, hidden=4)
        w = tr.LossWeights()
        best_cfg, best_w, score, trials = tr.grid_search(
            {"gamma": [3.0, 1.0], "epsilon": [0.5, 0.1]}, cfg, w,
            objective=lambda c, wt: 7.0)
        # sorted names: epsilon, gamma; first combination is (0.5, 3.0)
        assert best_w.epsilon == 0.5 and best_w.gamma == 3.0

    def test_two_by_two_grid_evaluates_four(self):
        cfg = tr.TrainConfig(epochs=2, hidden=4)
        w = tr.LossWeights()
        seen = []
        tr.grid_search({"gamma": [1.0, 2.0], "learning_rate": [1e-3, 1e-2]},
                       cfg, w, objective=lambda c, wt: seen.append(1) or 0.0)
        assert len(seen) == 4

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            tr.grid_search({}, tr.TrainConfig(), tr.LossWeights(), lambda c, w: 0)

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
