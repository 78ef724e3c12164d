import numpy as np
import pytest

from dyncause import autodiff as ad
from dyncause import blocks
from dyncause import model as mdl
from dyncause.autodiff import Tape

from test_autodiff import central_diff_grad, rel_err


def tiny_models(n=3, d=1, hidden=4, seed=11, **kw):
    cfg = mdl.ModelConfig(hidden=hidden, **kw)
    return mdl.build_node_models(n, d, cfg, base_seed=seed), cfg


def zero_models(n=3, d=1, hidden=4):
    stack, _ = tiny_models(n, d, hidden, seed=0)
    for arr in stack.arrays().values():
        arr[...] = 0.0
    return stack


def complete_gcn(w, n, self_loop=1.0):
    return blocks.GcnLayer(w=w, adjacency=np.ones((n, n)), self_loop=self_loop, phi="tanh")


class TestInitStreams:
    @pytest.mark.parametrize("share", [False, True])
    def test_streams_follow_documented_draw_order(self, share):
        # redraw every node's stream by hand: a changed draw order would
        # silently move every fit and the benchmark's stored reference fits
        n, d, h, seed = 3, 2, 4, 21
        stack, _ = tiny_models(n, d, h, seed, share_encoder=share)
        for i in range(n):
            rng = np.random.default_rng(seed ^ i)

            def draw(fan_in, shape):
                bound = np.sqrt(1.0 / fan_in)
                return rng.uniform(-bound, bound, size=shape)

            if i == 0 or not share:
                for j in range(n):
                    for f in ("w_z", "u_z", "w_r", "u_r", "w_h", "u_h"):
                        want = draw(d, (d, h)) if f[0] == "w" else draw(h, (h, h))
                        np.testing.assert_array_equal(stack.gru[f][i * n + j], want)
                np.testing.assert_array_equal(stack.enc_w[i], draw(h, (h, h)))
            for name, want in (("mmg_w1", draw(n * h, (n * h, h))),
                               ("mmg_w2", draw(h, (h, n))),
                               ("rl_w", draw(d, (d, h))),
                               ("ngcn_w", draw(h, (h, h))),
                               ("tip_w1", draw(h, (h, h))),
                               ("tip_w2", draw(h, (h, d)))):
                np.testing.assert_array_equal(getattr(stack, name)[i], want, err_msg=name)
        cells = n if share else n * n
        assert stack.gru["w_z"].shape[0] == cells and stack.shared_encoder == share
        for name, arr in stack.arrays().items():
            if name.startswith("gru.b") or "_b" in name:
                assert not arr.any(), name


class TestEncodeMaskRow:
    def test_all_zero_parameters_give_half(self):
        stack = zero_models()
        hist = np.random.default_rng(0).standard_normal((3, 4, 1))
        row = mdl.encode_mask_row(stack, 1, hist)
        np.testing.assert_array_equal(row.data, np.full(3, 0.5))

    @pytest.mark.parametrize("t", [1, 2, 5])
    def test_output_shape(self, t):
        stack, _ = tiny_models()
        hist = np.random.default_rng(1).standard_normal((3, t, 1))
        assert mdl.encode_mask_row(stack, 0, hist).data.shape == (3,)

    def test_matches_manual_composition(self):
        stack, _ = tiny_models(n=3, d=2, hidden=4, seed=5)
        hist = np.random.default_rng(2).standard_normal((3, 2, 2))
        row = mdl.encode_mask_row(stack, 2, hist)

        tape = Tape()
        hs = []
        for j in range(3):
            cell = blocks.GruCell(**{f: stack.gru[f][2 * 3 + j] for f in blocks.GRU_FIELDS})
            hs.append(ad.reshape(blocks.gru_unroll(cell, tape.constant(hist[j])), (1, 4)))
        h_mat = ad.concat_rows(hs)
        z = blocks.gcn_forward(complete_gcn(stack.enc_w[2], 3), h_mat)
        mmg = blocks.Mlp(weights=[stack.mmg_w1[2], stack.mmg_w2[2]],
                         biases=[stack.mmg_b1[2, 0], stack.mmg_b2[2, 0]],
                         hidden_act="tanh", out_act="sigmoid")
        expected = blocks.mlp_forward(mmg, ad.flatten(z))
        np.testing.assert_allclose(row.data, expected.data, rtol=1e-12)

    def test_empty_history_rejected(self):
        stack, _ = tiny_models()
        with pytest.raises(ad.ShapeError):
            mdl.encode_mask_row(stack, 0, np.zeros((3, 0, 1)))

    def test_range_open_interval(self):
        stack, _ = tiny_models(seed=33)
        hist = np.random.default_rng(3).standard_normal((3, 6, 1)) * 3
        row = mdl.encode_mask_row(stack, 0, hist).data
        assert np.all(row > 0) and np.all(row < 1)


class TestApplyMask:
    def test_near_ones_passthrough(self):
        tape = Tape()
        x = np.random.default_rng(0).standard_normal((4, 2))
        out = mdl.apply_mask(tape.leaf(np.full(4, 1.0 - 1e-12)), tape.leaf(x))
        np.testing.assert_allclose(out.data, x, rtol=1e-11)

    def test_zero_gate_zeroes_row(self):
        tape = Tape()
        gates = np.array([1.0, 0.0, 1.0])
        x = np.ones((3, 2))
        out = mdl.apply_mask(tape.leaf(gates), tape.leaf(x))
        np.testing.assert_array_equal(out.data[1], [0.0, 0.0])
        np.testing.assert_array_equal(out.data[0], [1.0, 1.0])

    def test_gradient_wrt_gate_is_inner_product(self):
        rng = np.random.default_rng(4)
        x0 = rng.standard_normal((3, 2))
        g0 = rng.uniform(0.2, 0.8, 3)
        w = rng.standard_normal((3, 2))

        tape = Tape()
        tg = tape.leaf(g0)
        out = mdl.apply_mask(tg, tape.leaf(x0))
        root = ad.reduce_sum(ad.hadamard(out, tape.constant(w)))
        grads = tape.backward(root)
        np.testing.assert_allclose(grads.wrt(tg), (x0 * w).sum(axis=1), rtol=1e-12)

        def loss(g):
            tape = Tape()
            out = mdl.apply_mask(tape.leaf(g), tape.leaf(x0))
            return ad.reduce_sum(ad.hadamard(out, tape.constant(w))).data.item()

        assert rel_err(grads.wrt(tg), central_diff_grad(loss, g0)) < 1e-6

    def test_shape_mismatch(self):
        tape = Tape()
        with pytest.raises(ad.ShapeError):
            mdl.apply_mask(tape.leaf(np.ones(4)), tape.leaf(np.ones((3, 2))))


class TestDecodePredict:
    def test_zero_input_zero_bias_constant(self):
        stack = zero_models()
        tape = Tape()
        out = mdl.decode_predict(stack, 0, tape.leaf(np.zeros((3, 1))))
        np.testing.assert_array_equal(out.data, [0.0])

    def test_output_dim(self):
        stack, _ = tiny_models(n=4, d=3, hidden=5, seed=6)
        tape = Tape()
        out = mdl.decode_predict(stack, 2, tape.leaf(np.zeros((4, 3))))
        assert out.data.shape == (3,)

    def test_matches_manual_composition(self):
        stack, _ = tiny_models(n=3, d=2, hidden=4, seed=7)
        x_masked = np.random.default_rng(5).standard_normal((3, 2))
        out = mdl.decode_predict(stack, 1, Tape().leaf(x_masked))

        tape = Tape()
        rl = blocks.Mlp(weights=[stack.rl_w[1]], biases=[stack.rl_b[1, 0]],
                        hidden_act="tanh", out_act="tanh")
        tip = blocks.Mlp(weights=[stack.tip_w1[1], stack.tip_w2[1]],
                         biases=[stack.tip_b1[1, 0], stack.tip_b2[1, 0]],
                         hidden_act="tanh", out_act="identity")
        h = blocks.mlp_forward(rl, tape.leaf(x_masked))
        z = blocks.ngcn_row_forward(complete_gcn(stack.ngcn_w[1], 3), 1, h)
        expected = blocks.mlp_forward(tip, ad.reshape(z, (4,)))
        np.testing.assert_allclose(out.data, expected.data, rtol=1e-12)


class TestForwardFull:
    def test_output_shapes(self):
        models, _ = tiny_models(n=4, d=2, hidden=3, seed=8)
        x = np.random.default_rng(6).standard_normal((2, 4, 7, 2))
        masks, preds = mdl.forward_full(models, x)
        assert masks.values.shape == (2, 6, 4, 4)
        assert preds.values.shape == (2, 6, 4, 2)

    def test_sample_permutation_equivariance(self):
        models, _ = tiny_models(n=3, d=1, hidden=3, seed=9)
        x = np.random.default_rng(7).standard_normal((3, 3, 5, 1))
        masks, preds = mdl.forward_full(models, x)
        perm = [2, 0, 1]
        masks_p, preds_p = mdl.forward_full(models, x[perm])
        np.testing.assert_array_equal(masks_p.values, masks.values[perm])
        np.testing.assert_array_equal(preds_p.values, preds.values[perm])

    def test_single_cell_matches_pipeline_ops(self):
        models, _ = tiny_models(n=3, d=2, hidden=4, seed=10)
        x = np.random.default_rng(8).standard_normal((2, 3, 5, 2))
        masks, preds = mdl.forward_full(models, x)
        for (s, i, tau) in [(0, 0, 0), (1, 2, 3), (0, 1, 2)]:
            row = mdl.encode_mask_row(models, i, x[s, :, : tau + 1, :])
            np.testing.assert_allclose(masks.values[s, tau, i], row.data, rtol=1e-10)
            tape = row.tape
            gated = mdl.apply_mask(row, tape.constant(x[s, :, tau, :]))
            pred = mdl.decode_predict(models, i, gated)
            np.testing.assert_allclose(preds.values[s, tau, i], pred.data, rtol=1e-10)

    def test_mask_range(self):
        models, _ = tiny_models(n=3, seed=12)
        x = np.random.default_rng(9).standard_normal((1, 3, 8, 1))
        masks, _ = mdl.forward_full(models, x)
        assert masks.values.min() > 0.0 and masks.values.max() < 1.0

    def test_causal_ordering_bit_exact(self):
        models, _ = tiny_models(n=3, seed=13)
        rng = np.random.default_rng(10)
        x = rng.standard_normal((1, 3, 8, 1))
        masks, _ = mdl.forward_full(models, x)
        for trial in range(5):
            k = int(rng.integers(2, 8))
            x2 = x.copy()
            x2[0, :, k:, :] += rng.standard_normal(x2[0, :, k:, :].shape)
            masks2, _ = mdl.forward_full(models, x2)
            assert np.array_equal(masks2.values[0, : k - 1], masks.values[0, : k - 1])

    def test_node_disentanglement(self):
        models, _ = tiny_models(n=4, seed=14)
        x = np.random.default_rng(11).standard_normal((1, 4, 6, 1))
        masks, preds = mdl.forward_full(models, x)
        models.mmg_w1[2] += 0.3
        models.tip_b2[2] += 1.0
        masks2, preds2 = mdl.forward_full(models, x)
        for i in range(4):
            same_mask = np.array_equal(masks2.values[:, :, i], masks.values[:, :, i])
            same_pred = np.array_equal(preds2.values[:, :, i], preds.values[:, :, i])
            assert same_mask == (i != 2)
            assert same_pred == (i != 2)

    def test_mask_override_ones_is_unmasked_predictor(self):
        models, _ = tiny_models(n=3, seed=15)
        x = np.random.default_rng(12).standard_normal((1, 3, 5, 1))
        _, preds = mdl.forward_full(models, x, mask_override=np.ones(3))
        # predictions must equal decode_predict applied to the raw snapshot
        for tau in range(4):
            for i in range(3):
                tape = Tape()
                pred = mdl.decode_predict(models, i, tape.constant(x[0, :, tau, :]))
                np.testing.assert_allclose(preds.values[0, tau, i], pred.data, rtol=1e-10)

    def test_too_short_series_rejected(self):
        models, _ = tiny_models()
        with pytest.raises(ad.ShapeError):
            mdl.forward_full(models, np.zeros((1, 3, 1, 1)))

    def test_shared_encoder_variant(self):
        models, _ = tiny_models(n=3, seed=16, share_encoder=True)
        assert models.shared_encoder
        assert models.gru["w_z"].shape[0] == 3 and models.enc_w.shape[0] == 1
        x = np.random.default_rng(13).standard_normal((1, 3, 6, 1))
        masks, preds = mdl.forward_full(models, x)
        assert masks.values.shape == (1, 5, 3, 3)
        # per-node ops agree with the batched path in the shared case too
        row = mdl.encode_mask_row(models, 1, x[0, :, :3, :])
        np.testing.assert_allclose(masks.values[0, 2, 1], row.data, rtol=1e-10)

    def test_shared_encoder_samples_match_pipeline_ops(self):
        # several samples fold into the shared bank's rows; each sample's
        # masks and predictions must still match the per-node reference ops
        models, _ = tiny_models(n=3, d=2, hidden=4, seed=17, share_encoder=True)
        x = np.random.default_rng(14).standard_normal((3, 3, 5, 2))
        masks, preds = mdl.forward_full(models, x)
        for (s, i, tau) in [(0, 0, 0), (1, 2, 3), (2, 1, 2), (2, 0, 3), (1, 1, 0)]:
            row = mdl.encode_mask_row(models, i, x[s, :, : tau + 1, :])
            np.testing.assert_allclose(masks.values[s, tau, i], row.data, rtol=1e-10)
            gated = mdl.apply_mask(row, row.tape.constant(x[s, :, tau, :]))
            pred = mdl.decode_predict(models, i, gated)
            np.testing.assert_allclose(preds.values[s, tau, i], pred.data, rtol=1e-10)


class TestBatchedForward:
    @pytest.mark.parametrize("share", [False, True])
    @pytest.mark.parametrize("s_count", [1, 3])
    def test_one_gru_call_for_all_samples(self, monkeypatch, share, s_count):
        calls = []

        def counting(*args):
            calls.append(args[0].data.shape)
            return blocks.gru_sequence(*args)

        monkeypatch.setattr(mdl, "gru_sequence", counting)
        n, t_len, hidden = 3, 6, 4
        models, _ = tiny_models(n=n, hidden=hidden, seed=18, share_encoder=share)
        x = np.random.default_rng(15).standard_normal((s_count, n, t_len, 1))
        out = mdl.batched_forward(models, x, Tape())
        cells = n if share else n * n
        assert calls == [(t_len - 1, cells * s_count, 1)]
        assert out.masks.data.shape == (n, s_count * (t_len - 1), n)


class TestStackRoundTrip:
    def test_causal_mask_series_validation(self):
        with pytest.raises(ValueError):
            mdl.CausalMaskSeries(values=np.ones((1, 2, 3, 3)))
        with pytest.raises(ad.ShapeError):
            mdl.CausalMaskSeries(values=np.full((1, 2, 3), 0.5))
        ok = mdl.CausalMaskSeries(values=np.full((1, 2, 3, 3), 0.5))
        assert ok.num_nodes == 3
