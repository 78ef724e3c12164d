import re

import numpy as np
import pytest

from dyncause import autodiff as ad
from dyncause import blocks
from dyncause import model as mdl
from dyncause.autodiff import Tape

from reference_model import reference_forward


def tiny_models(n=3, d=1, hidden=4, seed=11, **kw):
    cfg = mdl.ModelConfig(hidden=hidden, **kw)
    return mdl.build_node_models(n, d, cfg, base_seed=seed), cfg


def zero_models(n=3, d=1, hidden=4):
    stack, _ = tiny_models(n, d, hidden, seed=0)
    for arr in stack.arrays().values():
        arr[...] = 0.0
    return stack


def assert_matches_reference(stack, x, mask_override=None):
    """forward_full agrees with the plain-numpy oracle on every entry."""
    masks, preds = mdl.forward_full(stack, x, mask_override=mask_override)
    want_masks, want_preds = reference_forward(stack, x, mask_override)
    np.testing.assert_allclose(masks.values, want_masks, rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(preds.values, want_preds, rtol=1e-10, atol=1e-14)


class TestModelConfig:
    @pytest.mark.parametrize("field, value", [
        ("phi", "gelu"), ("self_loop", np.nan), ("self_loop", np.inf),
        ("self_loop", -1.0), ("hidden", 0), ("hidden", -3)])
    def test_invalid_value_rejected_by_name(self, field, value):
        # rejected when the config is made, before any model is built
        with pytest.raises(ValueError, match=field):
            mdl.ModelConfig(**{"hidden": 4, field: value})


class TestRowLayout:
    def test_node_rows_and_back(self):
        # one row block per node, sample-major; rows_to_series takes rows back
        # out to the (S, T', N, d) layout of masks and predictions
        x = np.random.default_rng(3).standard_normal((2, 3, 4, 5))
        rows = mdl.node_rows(x)
        assert rows.shape == (3, 8, 5)
        for s in range(2):
            for j in range(3):
                for t in range(4):
                    np.testing.assert_array_equal(rows[j, s * 4 + t], x[s, j, t])
        series = mdl.rows_to_series(rows, 2)
        assert series.shape == (2, 4, 3, 5)
        for s in range(2):
            for t in range(4):
                for j in range(3):
                    np.testing.assert_array_equal(series[s, t, j], x[s, j, t])
        np.testing.assert_array_equal(mdl.node_rows(series.transpose(0, 2, 1, 3)), rows)


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
                    for gate in range(3):  # W_z, U_z, W_r, U_r, W_h, U_h
                        cols = slice(gate * h, (gate + 1) * h)
                        np.testing.assert_array_equal(stack.gru_w[i * n + j][:, cols],
                                                      draw(d, (d, h)))
                        np.testing.assert_array_equal(stack.gru_u[i * n + j][:, cols],
                                                      draw(h, (h, h)))
                np.testing.assert_array_equal(stack.enc_w[i], draw(h, (h, h)))
            for name, want in (("mmg_w1", draw(n * h, (n * h, h))),
                               ("mmg_w2", draw(h, (h, n))),
                               ("rl_w", draw(d, (d, h))),
                               ("ngcn_w", draw(h, (h, h))),
                               ("tip_w1", draw(h, (h, h))),
                               ("tip_w2", draw(h, (h, d)))):
                np.testing.assert_array_equal(getattr(stack, name)[i], want, err_msg=name)
        cells = n if share else n * n
        assert stack.gru_w.shape == (cells, d, 3 * h) and stack.shared_encoder == share
        for name, arr in stack.arrays().items():
            if "_b" in name:
                assert not arr.any(), name


class TestEncodeMaskRow:
    """The encoder's gate rows, read from ``forward_full``."""

    def test_all_zero_parameters_give_half(self):
        stack = zero_models()
        x = np.random.default_rng(0).standard_normal((1, 3, 4, 1))
        masks, _ = mdl.forward_full(stack, x)
        np.testing.assert_array_equal(masks.values, np.full((1, 3, 3, 3), 0.5))

    @pytest.mark.parametrize("t", [1, 2, 5])
    def test_output_shape(self, t):
        stack, _ = tiny_models()
        x = np.random.default_rng(1).standard_normal((1, 3, t + 1, 1))
        masks, _ = mdl.forward_full(stack, x)
        assert masks.values.shape == (1, t, 3, 3)

    def test_matches_manual_composition(self):
        stack, _ = tiny_models(n=3, d=2, hidden=4, seed=5, self_loop=0.5)
        assert_matches_reference(stack, np.random.default_rng(2).standard_normal((2, 3, 4, 2)))

    def test_empty_history_rejected(self):
        stack, _ = tiny_models()
        with pytest.raises(ad.ShapeError):
            mdl.forward_full(stack, np.zeros((1, 3, 0, 1)))

    def test_range_open_interval(self):
        stack, _ = tiny_models(seed=33)
        x = np.random.default_rng(3).standard_normal((1, 3, 6, 1)) * 30
        masks, _ = mdl.forward_full(stack, x)
        assert np.all(masks.values > 0) and np.all(masks.values < 1)


class TestApplyMask:
    """The decoder's gating, driven through ``mask_override``."""

    def test_near_ones_passthrough(self):
        stack, _ = tiny_models(n=4, d=2, seed=4)
        x = np.random.default_rng(0).standard_normal((1, 4, 5, 2))
        _, ones = mdl.forward_full(stack, x, mask_override=np.ones(4))
        _, near = mdl.forward_full(stack, x, mask_override=np.full(4, 1.0 - 1e-12))
        np.testing.assert_allclose(near.values, ones.values, rtol=1e-11)

    def test_zero_gate_zeroes_row(self):
        # a zero gate on input 1 is the same as input 1 reading zeros at the
        # decoder; the override makes the encoder's gates irrelevant
        stack, _ = tiny_models(d=2, seed=5)
        x = np.random.default_rng(1).standard_normal((2, 3, 5, 2))
        _, gated = mdl.forward_full(stack, x, mask_override=np.array([1.0, 0.0, 1.0]))
        x_zeroed = x.copy()
        x_zeroed[:, 1] = 0.0
        _, zeroed = mdl.forward_full(stack, x_zeroed, mask_override=np.ones(3))
        np.testing.assert_array_equal(gated.values, zeroed.values)

    def test_shape_mismatch(self):
        stack, _ = tiny_models()
        x = np.random.default_rng(2).standard_normal((1, 3, 5, 1))
        for shape in [(4,), (1, 3), (3, 1), (4, 3), (4, 3, 3), ()]:
            with pytest.raises(ad.ShapeError, match=rf"got {re.escape(str(shape))}"):
                mdl.forward_full(stack, x, mask_override=np.ones(shape))

    @pytest.mark.parametrize("t_len", [4, 6])
    def test_matrix_override_gates_node_i_input_j(self, t_len):
        # entry [i, j] gates node i's input j at every step. At T=4 there are
        # as many transitions as nodes, so a matrix laid on the (step, input)
        # axes instead would still broadcast, and change every node at step 1
        stack = mdl.build_node_models(3, 1, mdl.ModelConfig(hidden=4), 0)
        x = np.random.default_rng(3).standard_normal((1, 3, t_len, 1))
        override = np.ones((3, 3))
        override[1] = 0.0
        override[2, 0] = 0.25
        _, ones = mdl.forward_full(stack, x, mask_override=np.ones(3))
        _, preds = mdl.forward_full(stack, x, mask_override=override)
        np.testing.assert_array_equal(preds.values[:, :, 0], ones.values[:, :, 0])
        assert np.all(preds.values[:, :, 1:] != ones.values[:, :, 1:])
        assert_matches_reference(stack, x, override)


class TestDecodePredict:
    """The decoder's predictions, read from ``forward_full``."""

    def test_zero_input_zero_bias_constant(self):
        # zero data through zero biases: the GRU state stays 0 and the gated
        # snapshot is 0, so every layer outputs tanh(0) = 0 whatever the weights
        stack, _ = tiny_models()
        _, preds = mdl.forward_full(stack, np.zeros((2, 3, 4, 1)))
        np.testing.assert_array_equal(preds.values, np.zeros((2, 3, 3, 1)))

    def test_output_dim(self):
        stack, _ = tiny_models(n=4, d=3, hidden=5, seed=6)
        _, preds = mdl.forward_full(stack, np.zeros((1, 4, 3, 3)))
        assert preds.values.shape == (1, 2, 4, 3)

    def test_matches_manual_composition(self):
        stack, _ = tiny_models(n=3, d=2, hidden=4, seed=7, self_loop=2.0)
        assert_matches_reference(stack, np.random.default_rng(5).standard_normal((2, 3, 4, 2)))

    @pytest.mark.parametrize("phi", sorted(ad.ACTIVATIONS))
    def test_every_activation_matches_reference(self, phi):
        stack, _ = tiny_models(n=3, d=2, hidden=4, seed=7, phi=phi)
        assert_matches_reference(stack, np.random.default_rng(6).standard_normal((2, 3, 4, 2)))


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
        assert_matches_reference(models, x)

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
        x = np.random.default_rng(12).standard_normal((2, 3, 5, 1))
        assert_matches_reference(models, x, mask_override=np.ones(3))

    def test_mask_override_keeps_the_encoder_masks(self):
        # the override reaches the decoder only: the masks returned are the
        # encoder's, in the same container as without an override
        models, _ = tiny_models(n=3, seed=15)
        x = np.random.default_rng(12).standard_normal((2, 3, 5, 1))
        masks, _ = mdl.forward_full(models, x)
        gated, _ = mdl.forward_full(models, x, mask_override=np.zeros(3))
        assert isinstance(gated, mdl.CausalMaskSeries)
        np.testing.assert_array_equal(gated.values, masks.values)

    def test_too_short_series_rejected(self):
        models, _ = tiny_models()
        with pytest.raises(ad.ShapeError):
            mdl.forward_full(models, np.zeros((1, 3, 1, 1)))

    def test_shared_encoder_variant(self):
        models, _ = tiny_models(n=3, seed=16, share_encoder=True)
        assert models.shared_encoder
        assert models.gru_w.shape[0] == 3 and models.enc_w.shape[0] == 1
        x = np.random.default_rng(13).standard_normal((1, 3, 6, 1))
        masks, preds = mdl.forward_full(models, x)
        assert masks.values.shape == (1, 5, 3, 3)
        # one shared GRU bank, but the gate rows differ through each node's MMG
        assert not np.array_equal(masks.values[:, :, 0], masks.values[:, :, 1])
        assert_matches_reference(models, x)

    def test_shared_encoder_samples_match_pipeline_ops(self):
        # several samples fold into the shared bank's rows; each sample's
        # masks and predictions must still match the oracle's
        models, _ = tiny_models(n=3, d=2, hidden=4, seed=17, share_encoder=True)
        x = np.random.default_rng(14).standard_normal((3, 3, 5, 2))
        assert_matches_reference(models, x)


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


    def test_both_encoder_modes_take_one_path(self):
        # a shared encoder is one encoder row broadcast over the nodes, not a
        # separate branch: both modes record the same tape nodes
        x = np.random.default_rng(16).standard_normal((2, 4, 12, 1))
        lengths = []
        for share in (False, True):
            models, _ = tiny_models(n=4, hidden=3, seed=19, share_encoder=share)
            tape = Tape()
            mdl.batched_forward(models, x, tape)
            lengths.append(len(tape))
        assert lengths[0] == lengths[1]

    @pytest.mark.parametrize("share", [False, True])
    def test_rows_report_the_nodes_they_serve(self, share):
        n = 4
        models, _ = tiny_models(n=n, hidden=3, seed=20, share_encoder=share)
        x = np.random.default_rng(17).standard_normal((1, n, 5, 1))
        out = mdl.batched_forward(models, x, Tape())
        assert out.serves.keys() == out.leaves.keys() == models.arrays().keys()
        for name, serves in out.serves.items():
            assert serves.shape == (out.leaves[name].data.shape[0], n), name
            # Adam writes the leaves in place, so they must be the stack arrays
            leaf, arr = out.leaves[name].data, getattr(models, name)
            assert leaf.shape == arr.shape and np.shares_memory(leaf, arr), name
        np.testing.assert_array_equal(out.serves["mmg_w1"], np.eye(n, dtype=bool))
        if share:  # one encoder row and its N cells serve every node
            assert out.serves["enc_w"].all() and out.serves["gru_w"].shape == (n, n)
            assert out.serves["gru_u"].all()
        else:  # node i's GRU rows i*N..i*N+N-1
            np.testing.assert_array_equal(out.serves["enc_w"], np.eye(n, dtype=bool))
            np.testing.assert_array_equal(out.serves["gru_b"],
                                          np.repeat(np.eye(n, dtype=bool), n, axis=0))


class TestStackRoundTrip:
    def test_causal_mask_series_validation(self):
        with pytest.raises(ValueError):
            mdl.CausalMaskSeries(values=np.ones((1, 2, 3, 3)))
        with pytest.raises(ad.ShapeError):
            mdl.CausalMaskSeries(values=np.full((1, 2, 3), 0.5))
        ok = mdl.CausalMaskSeries(values=np.full((1, 2, 3, 3), 0.5))
        assert ok.num_nodes == 3
