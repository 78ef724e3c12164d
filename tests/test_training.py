import csv
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncause import autodiff as ad
from dyncause import training as tr
from dyncause.autodiff import Tape
from dyncause.model import ModelConfig, build_node_models
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

    @pytest.mark.parametrize("prior, match", [
        (np.full((1, 3), 0.2), r"square .* \(1, 3\)"), (np.asarray(0.2), r"square .* \(\)"),
        (np.full((2, 2, 2), 0.2), "square"), (np.array([[0.2, np.nan], [0.2, 0.2]]), "finite"),
        (np.array([[0.2, 1.0], [0.2, 0.2]]), "inside")],
        ids=["row", "scalar", "cube", "nan_entry", "entry_of_one"])
    def test_prior_must_be_a_finite_square_matrix(self, prior, match):
        with pytest.raises(ValueError, match=match):
            tr.LossWeights(lambda1=0.5, lambda2=0.5, prior=prior)


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
    consts = tr._group_consts(series, gamma)
    tau_row = consts.tau_true[node_index : node_index + 1]
    x_hat = Tape().leaf(np.asarray(x_hat)[None])
    return tr._struct_vec(consts.x_target, tau_row, x_hat, gamma).data.item()


def divergence_loss(masks, weights, node_index):
    """Divergence loss of one node's (G, N) gate rows: every node gets the
    same rows, and node ``node_index``'s entry is read against its prior row."""
    n = masks.shape[1]
    every = np.broadcast_to(masks, (n,) + masks.shape).copy()
    return tr._divergence_vec(Tape().leaf(every), weights).data[node_index].item()


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
        consts = tr._group_consts(x, weights.gamma)

        def full_loss(stack):
            tape = Tape()
            out = batched_forward(stack, x, tape)
            vecs = tr._loss_vectors(out, consts, weights)
            return tape, out, ad.reduce_sum(tr._combine(vecs, weights))

        for share in (False, True):
            cfg = tr.TrainConfig(hidden=h, seed=7, share_encoder=share)
            stack = build_node_models(n, 1, cfg.model_config(), cfg.seed)
            assert stack.shared_encoder == share
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

    @pytest.mark.parametrize("field,value", [
        ("minibatch_size", 0), ("minibatch_size", -1), ("hidden", 0), ("threads", 0),
        ("threads", -2), ("threads", 2), ("learning_rate", np.nan), ("learning_rate", 0.0),
        ("adam_eps", np.inf), ("adam_eps", -1e-8), ("adam_beta1", 1.0),
        ("adam_beta2", -1.0), ("beta1", np.nan), ("beta3", np.inf), ("lambda1", np.nan),
        ("gamma", np.nan), ("epsilon", np.inf), ("beta2", -0.1), ("lambda2", -0.5),
        ("early_stop_tol", np.nan), ("early_stop_tol", -1e-6), ("early_stop_patience", 0),
        ("phi", "gelu"), ("self_loop", np.nan), ("self_loop", np.inf), ("self_loop", -1.0)])
    def test_counts_below_one_rejected_by_name(self, field, value):
        # every out-of-range setting, of TrainConfig or LossWeights, fails at
        # construction with the field named
        cls = tr.TrainConfig if hasattr(tr.TrainConfig, field) else tr.LossWeights
        with pytest.raises(ValueError, match=field):
            cls(**{field: value})

    @pytest.mark.parametrize("standardize_input", [True, False])
    def test_non_finite_input_named_by_location(self, standardize_input):
        series, _ = small_var_data(t=60)
        series[0, 2, 17, 0] = np.inf if standardize_input else np.nan
        config = tr.TrainConfig(epochs=2, hidden=4, standardize_input=standardize_input)
        with pytest.raises(ValueError, match=r"\(0, 2, 17\)"):
            tr.train(series, config, tr.LossWeights())

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
        stack = build_node_models(5, 1, ModelConfig(hidden=7, phi="relu"), 0)
        with pytest.raises(ValueError, match=r"hidden 7 != 4, phi 'relu' != 'tanh'"):
            tr.train(series, tr.TrainConfig(epochs=1, hidden=4), tr.LossWeights(),
                     models=stack)

    def test_given_stack_must_match_data(self):
        # a stack for 6 nodes used to fail deep inside the GRU bank
        series, _ = small_var_data(t=30)
        config = tr.TrainConfig(epochs=1, hidden=4)
        stack = build_node_models(6, 1, config.model_config(), 0)
        with pytest.raises(ValueError, match=r"\(6, 1\), the data has \(5, 1\)"):
            tr.train(series, config, tr.LossWeights(), models=stack)

    def test_same_seed_identical_masks(self):
        series, _ = small_var_data(t=60)
        config = tr.TrainConfig(epochs=8, hidden=5, seed=3)
        r1 = tr.train(series, config, tr.LossWeights())
        r2 = tr.train(series, config, tr.LossWeights())
        assert np.array_equal(r1.masks.values, r2.masks.values)

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
        encoder = ("gru_w", "gru_u", "gru_b", "enc_w")
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

        def spy(stack, x, tape, **kwargs):
            assert all(ref() is None for ref in tapes)
            tapes.append(weakref.ref(tape))
            return original(stack, x, tape, **kwargs)

        monkeypatch.setattr(tr, "batched_forward", spy)
        gc.disable()
        try:
            tr.train(series, config, tr.LossWeights())
        finally:
            gc.enable()
        assert len(tapes) == 2 * 3 + 1  # 3 chunks per epoch, then the epilogue

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

    @pytest.mark.parametrize("name", ["model_config", "with_uniform_prior", "nodes"])
    def test_only_config_and_weight_fields_are_hyperparameters(self, name):
        # methods are attributes too, but not fields that replace() can set
        with pytest.raises(ValueError, match=f"unknown hyperparameter '{name}'"):
            tr.grid_search({name: [1]}, tr.TrainConfig(), tr.LossWeights(), lambda c, w: 0)

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
