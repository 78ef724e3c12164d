import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from dyncause import autodiff as ad
from dyncause import blocks
from dyncause import model as mdl
from dyncause import training as tr
from dyncause.autodiff import Tape
from dyncause.simulate import SimulationError

from reference_model import reference_forward


# the [W; b] arrays, each with its bias as the last row
BIASED = ("gru_w", "mmg_w1", "mmg_w2", "rl_w", "tip_w1", "tip_w2")


# the layers that apply each activation in ad.ACTIVATIONS: tanh every
# hidden layer, sigmoid the MMG's gates, identity the output layer
ACTIVATION_LAYERS = {"tanh": ("enc_w", "mmg_w1", "rl_w", "ngcn_w", "tip_w1"),
                     "sigmoid": ("mmg_w2",), "identity": ("tip_w2",)}


def amplify(stack, phi, scale=3.0):
    """Scales the weights of the layers that apply ``phi`` in place, so that
    they see large pre-activations: tanh and sigmoid saturate, identity
    passes them on."""
    for name in ACTIVATION_LAYERS[phi]:
        getattr(stack, name)[...] *= scale
    return stack


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
        ("self_loop", -1.0), ("hidden", 0), ("hidden", -3), ("hidden", 2.5), ("hidden", True),
        ("share_encoder", "no"), ("share_encoder", 0)])
    def test_invalid_value_rejected_by_name(self, field, value):
        # rejected when the config is made, before any model is built; the
        # activation and the self loop are fixed, so setting either fails as
        # an unknown keyword that names it
        error = TypeError if field in ("phi", "self_loop") else ValueError
        with pytest.raises(error, match=field):
            mdl.ModelConfig(**{"hidden": 4, field: value})


class TestParamStack:
    @pytest.mark.parametrize("bad", [
        lambda a: a.astype(np.float32), lambda a: a.astype(np.int64), lambda a: a.tolist()],
        ids=["float32", "int64", "list"])
    def test_non_float64_array_rejected_by_name(self, bad):
        # the tape would wrap a converted copy, so Adam's in-place updates
        # would never reach the stack: the array would silently not train
        stack, _ = tiny_models()
        with pytest.raises(ValueError, match="rl_w must be a float64 ndarray"):
            replace(stack, rl_w=bad(stack.rl_w))

    @pytest.mark.parametrize("change, message", [
        # one shared encoder row on a per-node GRU bank: the arrays, not a
        # separate record, say how many encoder rows there are
        ({"enc_w": np.zeros((1, 4, 4))},
         r"gru_w shape \(9, 2, 12\), expected \(3, 2, 12\) .* 1 encoder row"),
        # h is read from enc_w: a width the other arrays lack names the first of them
        ({"enc_w": np.zeros((3, 5, 5))},
         r"gru_w shape \(9, 2, 12\), expected \(9, 2, 15\) .* hidden = 5"),
        # an rl_w of another d made check_series blame the data
        ({"rl_w": np.zeros((3, 3, 4))},
         r"gru_w shape \(9, 2, 12\), expected \(9, 3, 12\) .* d = 2 \(rl_w\)"),
    ], ids=["shared-config-on-per-node-arrays", "hidden", "rl_w-input-dim"])
    def test_config_contradicting_the_arrays_rejected(self, change, message):
        stack, _ = tiny_models()
        with pytest.raises(ValueError, match=message):
            replace(stack, **change)

    def test_non_finite_weight_named_with_its_index(self):
        # a NaN weight passed, and the first forward failed with "non-finite
        # value produced by op 'leaf'", naming neither the array nor the node
        stack, _ = tiny_models()
        bad = stack.mmg_w1.copy()
        bad[2, 5, 1] = np.nan
        bad[2, 7, 0] = np.inf
        with pytest.raises(ValueError, match=r"^mmg_w1\[2, 5, 1\] is nan, not a finite weight$"):
            replace(stack, mmg_w1=bad)

    def test_array_without_three_axes_rejected_by_name(self):
        # N and d are read from mmg_w2 and rl_w, so their axes come first
        stack, _ = tiny_models()
        with pytest.raises(ValueError, match=r"mmg_w2 must be a float64 ndarray of 3 axes, "
                                             r"got float64 \(3,\)"):
            replace(stack, mmg_w2=np.zeros(3))

    @pytest.mark.parametrize("name", ["gru_u", "mmg_w1", "ngcn_w", "tip_w1", "tip_w2"])
    def test_array_of_another_shape_named(self, name):
        stack, _ = tiny_models()
        arr = getattr(stack, name)
        with pytest.raises(ValueError, match=rf"^{name} shape \({arr.shape[0] + 1}, "):
            replace(stack, **{name: np.zeros((arr.shape[0] + 1, *arr.shape[1:]))})

    @pytest.mark.parametrize("shape", [(2, 4, 4), (3, 0, 0)], ids=["two-rows", "no-width"])
    def test_encoder_rows_neither_one_nor_n_named(self, shape):
        # E is read from enc_w, so it is checked before the shapes it sets:
        # one row every node shares, or one per node, each at least 1 wide
        stack, _ = tiny_models(n=3)
        with pytest.raises(ValueError, match=rf"^enc_w shape {re.escape(str(shape))}: need 1 "
                                             r"\(shared\) or N = 3 \(mmg_w2\) encoder rows"):
            replace(stack, enc_w=np.zeros(shape))

    def test_param_shapes_is_the_layout_of_every_stack(self):
        # the table names every field in field order, with the shape a
        # build allocates for a per-node, a shared and a one-node stack
        for n, d, h, share in ((3, 2, 4, False), (3, 2, 4, True), (1, 1, 2, False)):
            stack, _ = tiny_models(n, d, h, share_encoder=share)
            e = 1 if share else n
            assert list(mdl.param_shapes(n, d, h, e)) == list(stack.arrays())
            assert {k: a.shape for k, a in stack.arrays().items()} == mdl.param_shapes(n, d, h, e)


class TestBuildNodeModels:
    @pytest.mark.parametrize("field, value", [
        ("n", 0), ("n", -1), ("n", 2.5), ("d", 0), ("base_seed", -1), ("base_seed", True)])
    def test_bad_size_rejected_by_name(self, field, value):
        # n=0 used to build an empty stack, d=0 to divide by zero in
        # uniform_init, and base_seed=True to seed like 1
        sizes = {"n": 3, "d": 1, "base_seed": 0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            mdl.build_node_models(sizes["n"], sizes["d"], mdl.ModelConfig(hidden=4),
                                  sizes["base_seed"])


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
                        np.testing.assert_array_equal(stack.gru_w[i * n + j][:d, cols],
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
                np.testing.assert_array_equal(getattr(stack, name)[i][:want.shape[0]], want,
                                              err_msg=name)
        cells = n if share else n * n
        assert stack.gru_w.shape == (cells, d + 1, 3 * h)
        assert stack.enc_w.shape[0] == (1 if share else n)
        assert stack.rl_w.shape == (n, d + 1, h)
        assert stack.mmg_w1.shape == (n, n * h + 1, h) and stack.mmg_w2.shape == (n, h + 1, n)
        assert stack.tip_w1.shape == (n, h + 1, h) and stack.tip_w2.shape == (n, h + 1, d)
        # only W is drawn: the bias row of every [W; b] array starts at zero
        for name in BIASED:
            assert not getattr(stack, name)[:, -1].any(), name


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
        stack, _ = tiny_models(n=3, d=2, hidden=4, seed=5)
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

    def test_non_finite_override_named_with_its_index(self):
        # the first bad entry in C order, as ParamStack names a bad weight
        stack, _ = tiny_models()
        x = np.random.default_rng(4).standard_normal((1, 3, 5, 1))
        override = np.ones((3, 3))
        override[1, 2], override[2, 0] = np.inf, np.nan
        with pytest.raises(ValueError, match=r"^mask_override\[1, 2\] is inf, not a finite gate$"):
            mdl.forward_full(stack, x, mask_override=override)
        with pytest.raises(ValueError, match=r"^mask_override\[2\] is nan, not a finite gate$"):
            mdl.forward_full(stack, x, mask_override=np.array([1.0, 0.5, np.nan]))

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
        stack, _ = tiny_models(n=3, d=2, hidden=4, seed=7)
        assert_matches_reference(stack, np.random.default_rng(5).standard_normal((2, 3, 4, 2)))

    @pytest.mark.parametrize("phi", sorted(ad.ACTIVATIONS))
    def test_every_activation_matches_reference(self, phi):
        # each activation's layers at large pre-activations
        stack, _ = tiny_models(n=3, d=2, hidden=4, seed=7)
        amplify(stack, phi)
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
        models.tip_w2[2, -1] += 1.0  # node 2's output bias
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

    def test_series_without_samples_named(self):
        # an empty sample axis used to run the whole model, then divide by
        # zero while laying out its rows
        models, _ = tiny_models()
        with pytest.raises(ad.ShapeError, match="empty on its sample axis"):
            mdl.forward_full(models, np.zeros((0, 3, 6, 1)))

    @pytest.mark.parametrize("shape,bad,where", [
        ((3,), (1,), r"\[1\] is nan"), ((3, 3), (2, 0), r"\[2, 0\] is inf")],
        ids=["row", "matrix"])
    def test_non_finite_mask_override_named(self, shape, bad, where):
        models, _ = tiny_models(n=3, seed=15)
        x = np.random.default_rng(12).standard_normal((2, 3, 5, 1))
        override = np.full(shape, 0.5)
        override[bad] = np.nan if len(shape) == 1 else np.inf
        with pytest.raises(ValueError, match="mask_override" + where):
            mdl.forward_full(models, x, mask_override=override)
        # a zero gate knocks an edge out; it stays legal
        override[bad] = 0.0
        mdl.forward_full(models, x, mask_override=override)

    def test_shared_encoder_variant(self):
        models, _ = tiny_models(n=3, seed=16, share_encoder=True)
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

    @pytest.mark.parametrize("phi", sorted(ad.ACTIVATIONS))
    @pytest.mark.parametrize("share", [False, True])
    @settings(max_examples=12, deadline=None)
    @given(n=st.integers(2, 4), s_count=st.integers(1, 3), t_len=st.integers(2, 6),
           d=st.integers(1, 3), override=st.booleans(), seed=st.integers(0, 2**16))
    def test_matches_reference_on_drawn_shapes(self, phi, share, n, s_count, t_len, d,
                                               override, seed):
        # covers the folded [x, 1] @ [w; b] products at d > 1 and the GCN
        # mix over S > 1 samples; the biases start at zero, so draw them:
        # each is the last row of its [W; b] array. The layers that apply
        # phi see large pre-activations
        models, _ = tiny_models(n=n, d=d, hidden=3, seed=seed, share_encoder=share)
        rng = np.random.default_rng(seed)
        for name in BIASED:
            bias = getattr(models, name)[:, -1]
            bias[...] = rng.uniform(-0.5, 0.5, bias.shape)
        amplify(models, phi)
        x = rng.standard_normal((s_count, n, t_len, d))
        mask_override = rng.uniform(0.0, 1.0, (n, n)) if override else None
        assert_matches_reference(models, x, mask_override)


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
    def test_forward_records_18_nodes(self, monkeypatch, share):
        # the tape bookkeeping per forward is a cost on every chunk: 9
        # parameter leaves, 2 data leaves and one op per layer; a training
        # step adds the criterion. Every op goes through Tape.record
        ops = []
        record = Tape.record

        def named(tape, out_data, parents, backward_fn, op="custom"):
            ops.append(op)
            return record(tape, out_data, parents, backward_fn, op=op)

        monkeypatch.setattr(Tape, "record", named)
        models, _ = tiny_models(n=4, d=2, hidden=3, seed=21, share_encoder=share)
        x = np.random.default_rng(21).standard_normal((2, 4, 6, 2))
        tape = Tape()
        out = mdl.batched_forward(models, x, tape)
        assert len(tape) == 18
        weights = tr.LossWeights()
        tr.criterion(out.masks, out.predictions, x, weights)
        assert len(tape) == 19
        assert ops == ["gru_sequence", "encoder_gcn", "dense", "dense", "gated_pool",
                       "dense", "dense", "criterion"]

    @pytest.mark.parametrize("share", [False, True])
    def test_rows_report_the_nodes_they_serve(self, share):
        n = 4
        models, _ = tiny_models(n=n, hidden=3, seed=20, share_encoder=share)
        x = np.random.default_rng(17).standard_normal((1, n, 5, 1))
        out = mdl.batched_forward(models, x, Tape())
        serves = models.serves()
        assert serves.keys() == out.leaves.keys() == models.arrays().keys()
        for name, rows in serves.items():
            assert rows.shape == (out.leaves[name].data.shape[0], n), name
            # Adam writes the leaves in place, so they must be the stack arrays
            leaf, arr = out.leaves[name].data, getattr(models, name)
            assert leaf.shape == arr.shape and np.shares_memory(leaf, arr), name
        np.testing.assert_array_equal(serves["mmg_w1"], np.eye(n, dtype=bool))
        if share:  # one encoder row and its N cells serve every node
            assert serves["enc_w"].all() and serves["gru_w"].shape == (n, n)
            assert serves["gru_u"].all()
        else:  # node i's GRU rows i*N..i*N+N-1
            np.testing.assert_array_equal(serves["enc_w"], np.eye(n, dtype=bool))
            np.testing.assert_array_equal(serves["gru_w"],
                                          np.repeat(np.eye(n, dtype=bool), n, axis=0))


class TestInference:
    """forward_full and a forward without a tape take no gradient."""

    @pytest.mark.parametrize("share", [False, True])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("override", [False, True])
    def test_equals_the_gradient_tape_forward(self, share, d, override):
        n, s_count = 4, 2
        models, _ = tiny_models(n=n, d=d, hidden=3, seed=22, share_encoder=share)
        rng = np.random.default_rng(18)
        x = rng.standard_normal((s_count, n, 9, d))
        mask_override = rng.uniform(0.1, 0.9, (n, n)) if override else None
        masks, preds = mdl.forward_full(models, x, mask_override=mask_override)
        out = mdl.batched_forward(models, x, Tape(), mask_override=mask_override)
        np.testing.assert_array_equal(masks.values,
                                      mdl.rows_to_series(out.masks.data, s_count))
        np.testing.assert_array_equal(preds.values,
                                      mdl.rows_to_series(out.predictions.data, s_count))

    @pytest.mark.parametrize("share", [False, True])
    def test_no_op_keeps_a_backward_closure(self, share):
        models, _ = tiny_models(n=3, hidden=3, seed=23, share_encoder=share)
        x = np.random.default_rng(19).standard_normal((2, 3, 6, 1))
        out = mdl.batched_forward(models, x)
        assert not out.tape.grad
        assert all(fn is None for fn in out.tape._backward)
        # the same ops as a training forward, only without their closures
        assert len(out.tape) == len(mdl.batched_forward(models, x, Tape()).tape)

    def test_gradient_free_forward_cannot_train(self):
        # a loss on the read-out's tape would sweep to all-zero gradients, so
        # a training loop built on it would never move: the sweep raises
        models, _ = tiny_models(n=3, hidden=3, seed=23)
        x = np.random.default_rng(19).standard_normal((2, 3, 6, 1))
        out = mdl.batched_forward(models, x)
        weights = tr.LossWeights()
        root, _ = tr.criterion(out.masks, out.predictions, x, weights)
        with pytest.raises(RuntimeError, match="grad=False"):
            out.tape.backward(root)

    def test_forward_full_memory_bound(self):
        # switch8-windows' shape: S=50 windows of T=40 steps, N=8, h=15, one
        # encoder row per node. One state-sized buffer, (T-1, N*N*S, h),
        # takes 15.0 MB. The call may hold the GRU states (T steps), the GCN
        # mix (T-1), over which the activated weight product is written, and
        # half a buffer for the rest: the GRU's input copy and step buffers
        # and the product's one-row buffer. A weight product beside the mix
        # is one buffer more than that
        s_count, n, t_len, h = 50, 8, 40, 15
        step = n * n * s_count * h * 8
        bound = (t_len + (t_len - 1) + (t_len - 1) // 2) * step
        models, _ = tiny_models(n=n, hidden=h, seed=26)
        x = np.random.default_rng(21).standard_normal((s_count, n, t_len, 1))
        tracemalloc.start()
        try:
            masks, _ = mdl.forward_full(models, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert masks.values.shape == (s_count, t_len - 1, n, n)
        assert peak < bound

    def test_non_finite_input_named(self):
        models, _ = tiny_models(n=3, seed=24)
        x = np.random.default_rng(20).standard_normal((2, 3, 6, 1))
        x[0, 1, 4, 0] = np.nan
        with pytest.raises(SimulationError, match=r"\(0, 1, 4\)"):
            mdl.forward_full(models, x)

    def test_node_count_must_match_the_stack(self):
        models, _ = tiny_models(n=3, seed=25)
        x = np.zeros((1, 4, 6, 1))
        with pytest.raises(ad.ShapeError,
                           match=r"built for \(N, d\) = \(3, 1\), the data has \(4, 1\)"):
            mdl.forward_full(models, x)


class TestStackRoundTrip:
    def test_causal_mask_series_validation(self):
        with pytest.raises(ValueError):
            mdl.CausalMaskSeries(values=np.ones((1, 2, 3, 3)))
        with pytest.raises(ad.ShapeError):
            mdl.CausalMaskSeries(values=np.full((1, 2, 3), 0.5))
        ok = mdl.CausalMaskSeries(values=np.full((1, 2, 3, 3), 0.5))
        assert ok.num_nodes == 3

    @pytest.mark.parametrize("value", [np.nan, 0.0, 1.0])
    def test_mask_outside_the_open_interval_rejected(self, value):
        # NaN compares False both ways, so a range test written as
        # "min <= 0 or max >= 1" let it through
        values = np.full((1, 2, 3, 3), 0.5)
        values[0, 1, 2, 0] = value
        with pytest.raises(ValueError, match="strictly inside"):
            mdl.CausalMaskSeries(values=values)
