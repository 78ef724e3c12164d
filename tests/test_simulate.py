import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncause import simulate as sim


class TestGenVar:
    def test_truth_diagonal_all_ones(self):
        _, truth = sim.gen_var(8, 1, 50, seed=0)
        np.testing.assert_array_equal(np.diag(truth.adjacency), np.ones(8))

    def test_truth_rows_sum_to_three(self):
        _, truth = sim.gen_var(10, 1, 50, seed=1)
        np.testing.assert_array_equal(truth.adjacency.sum(axis=1), np.full(10, 3))

    def test_ols_recovers_transition_matrix(self):
        # independent oracle: lag-1 least squares on the generated data
        n, t = 6, 5000
        series, truth = sim.gen_var(n, 1, t, seed=3)
        x = series[0, :, :, 0].T  # (T, N)
        past, future = x[:-1], x[1:]
        a_hat = np.linalg.lstsq(past, future, rcond=None)[0].T
        rng = np.random.default_rng(3)
        transition, _ = sim._draw_var_system(n, 1, rng)
        assert np.max(np.abs(a_hat - transition[0])) < 0.03
        np.testing.assert_array_equal((transition[0] != 0).astype(int), truth.adjacency)

    def test_shapes_and_dtype(self):
        series, truth = sim.gen_var(5, 2, 37, seed=2)
        assert series.shape == (1, 5, 37, 1)
        assert series.dtype == np.float64
        assert truth.adjacency.shape == (5, 5)

    def test_var2_identical_supports_across_lags(self):
        rng = np.random.default_rng(11)
        transition, _ = sim._draw_var_system(7, 2, rng)
        np.testing.assert_array_equal(transition[0] != 0, transition[1] != 0)

    def test_spectral_radius_capped(self, monkeypatch):
        # at the default VAR_COEFF no draw reaches the cap (0.57 at most over
        # 200 seeds at p=2), so the rescale would go untested: at 0.5 the p=2
        # draws exceed it and must come back at exactly the cap
        monkeypatch.setattr(sim, "VAR_COEFF", 0.5)
        for p in (1, 2):
            radii = [sim.companion_spectral_radius(
                sim._draw_var_system(12, p, np.random.default_rng(seed))[0])
                for seed in range(5)]
            assert max(radii) < 0.95 + 1e-9, p
        # the p=2 draws were rescaled to the cap
        assert any(abs(r - 0.95) < 1e-9 for r in radii)

    def test_invalid_lag_rejected(self):
        with pytest.raises(sim.SimulationError):
            sim.gen_var(5, 3, 100, seed=0)

    def test_degenerate_node_count_rejected(self):
        with pytest.raises(sim.SimulationError):
            sim.gen_var(2, 1, 100, seed=0)

    def test_same_seed_bit_identical(self):
        a, _ = sim.gen_var(6, 1, 200, seed=9)
        b, _ = sim.gen_var(6, 1, 200, seed=9)
        assert np.array_equal(a, b)

    def test_stationary_variance_bounded(self):
        series, _ = sim.gen_var(10, 1, 100_000, seed=4)
        assert np.max(np.abs(series)) < 1e3


class TestGenLorenz96:
    def test_truth_in_degree_is_four(self):
        _, truth = sim.gen_lorenz96(10, 10.0, 50, seed=0)
        np.testing.assert_array_equal(truth.adjacency.sum(axis=1), np.full(10, 4))

    def test_fixed_point_has_zero_derivative(self):
        f = 10.0
        deriv = sim.lorenz96_deriv(np.full(8, f), f)
        np.testing.assert_array_equal(deriv, np.zeros(8))

    @staticmethod
    def _advance(x, steps, h, f):
        for _ in range(steps):
            k1 = sim.lorenz96_deriv(x, f)
            k2 = sim.lorenz96_deriv(x + 0.5 * h * k1, f)
            k3 = sim.lorenz96_deriv(x + 0.5 * h * k2, f)
            k4 = sim.lorenz96_deriv(x + h * k3, f)
            x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return x

    def test_rk4_step_halving_convergence(self):
        # step-halving oracle: 10 coarse steps vs 20 half steps from the same
        # state; uses a mild regime since chaotic amplification at F=10 puts
        # any fixed bound at the mercy of the start state
        rng = np.random.default_rng(5)
        f, dt = 0.5, 0.05
        x0 = f + rng.normal(0, 0.01, size=10)
        coarse = self._advance(x0.copy(), 10, dt, f)
        fine = self._advance(x0.copy(), 20, dt / 2, f)
        assert np.max(np.abs(coarse - fine)) < 1e-5

    def test_rk4_is_order_four_on_attractor(self):
        # halving the step divides the error by ~2^4 even in the chaotic regime
        f = 10.0
        series, _ = sim.gen_lorenz96(10, f, 5, seed=5)
        x0 = series[0, :, -1, 0]
        horizon = 0.1
        ref = self._advance(x0.copy(), 80, horizon / 80, f)
        e1 = np.max(np.abs(self._advance(x0.copy(), 2, horizon / 2, f) - ref))
        e2 = np.max(np.abs(self._advance(x0.copy(), 4, horizon / 4, f) - ref))
        assert 8.0 < e1 / e2 < 32.0

    def test_truth_is_circulant(self):
        _, truth = sim.gen_lorenz96(9, 10.0, 50, seed=0)
        a = truth.adjacency
        for i in range(9):
            for j in range(9):
                assert a[i, j] == a[(i + 1) % 9, (j + 1) % 9]

    def test_minimum_node_count(self):
        with pytest.raises(sim.SimulationError):
            sim.gen_lorenz96(3, 10.0, 100, seed=0)

    def test_divergence_detected(self):
        with pytest.raises(sim.IntegrationError):
            sim.gen_lorenz96(10, 10.0, 100, dt=1.0, seed=0)

    # each of these used to return an all-NaN or empty series, or leak
    # numpy's own error
    @pytest.mark.parametrize("kwargs, match", [
        ({"forcing": np.nan}, "forcing"), ({"forcing": np.inf}, "forcing"),
        ({"forcing": -1.0}, "forcing"), ({"dt": np.nan}, "dt"),
        ({"dt": np.inf}, "dt"), ({"t_steps": 1}, "t_steps"), ({"t_steps": 0}, "t_steps"),
        ({"t_steps": -1}, "t_steps")],
        ids=["forcing_nan", "forcing_inf", "forcing_negative", "dt_nan", "dt_inf",
             "one_step", "no_steps", "negative_steps"])
    def test_invalid_parameter_rejected(self, kwargs, match):
        args = {"n": 10, "forcing": 10.0, "t_steps": 50, **kwargs}
        with pytest.raises(sim.SimulationError, match=match):
            sim.gen_lorenz96(**args, seed=0)

    def test_non_finite_state_names_the_step(self, monkeypatch):
        # a NaN state compares False with the divergence limit; it must
        # still stop the integration, at the step where it appears
        calls = {"n": 0}
        original = sim.lorenz96_deriv

        def poisoned(x, forcing):
            calls["n"] += 1  # four calls per RK4 step
            return np.full_like(x, np.nan) if calls["n"] > 4 * 7 else original(x, forcing)

        monkeypatch.setattr(sim, "lorenz96_deriv", poisoned)
        with pytest.raises(sim.IntegrationError, match="at step 7$"):
            sim.gen_lorenz96(10, 10.0, 50, seed=0)

    def test_same_seed_bit_identical(self):
        a, _ = sim.gen_lorenz96(6, 10.0, 100, seed=7)
        b, _ = sim.gen_lorenz96(6, 10.0, 100, seed=7)
        assert np.array_equal(a, b)

    def test_shapes(self):
        series, _ = sim.gen_lorenz96(10, 10.0, 123, seed=1)
        assert series.shape == (1, 10, 123, 1)


class TestGenSwitchingVar:
    def test_regimes_differ(self):
        _, truth = sim.gen_switching_var(8, 200, 100, seed=0)
        assert truth.is_switching
        (s0, a0), (s1, a1) = truth.regimes
        assert (s0, s1) == (0, 100)
        assert not np.array_equal(a0, a1)

    def test_switch_at_boundary_rejected(self):
        with pytest.raises(sim.SimulationError):
            sim.gen_switching_var(8, 200, 200, seed=0)
        with pytest.raises(sim.SimulationError):
            sim.gen_switching_var(8, 200, 0, seed=0)

    def test_series_continuous_and_finite(self):
        series, _ = sim.gen_switching_var(6, 400, 200, seed=1)
        assert np.all(np.isfinite(series))
        x = series[0, :, :, 0]
        # splice must not introduce a jump beyond the typical step scale
        steps = np.abs(np.diff(x, axis=1))
        assert np.abs(x[:, 200] - x[:, 199]).max() < 20 * steps.mean() + 1.0

    def test_regime_lookup(self):
        _, truth = sim.gen_switching_var(6, 100, 40, seed=2)
        np.testing.assert_array_equal(truth.regime_at(0), truth.regimes[0][1])
        np.testing.assert_array_equal(truth.regime_at(39), truth.regimes[0][1])
        np.testing.assert_array_equal(truth.regime_at(40), truth.regimes[1][1])


# a valid call of each generator, and for each argument a value of the wrong
# kind, which the generator must reject by the argument's name, not leave to
# numpy's TypeError or SeedSequence's error
GENERATORS = {
    "gen_var": ({"n": 5, "p": 1, "t_steps": 20, "seed": 0},
                {"n": 5.0, "p": 1.5, "t_steps": 20.5, "seed": 0.5}),
    "gen_switching_var": ({"n": 5, "t_steps": 100, "switch_t": 50, "seed": 0},
                          {"n": "5", "t_steps": 100.0, "switch_t": 50.5, "seed": -1}),
    "gen_lorenz96": ({"n": 10, "forcing": 10.0, "t_steps": 20, "dt": 0.05, "seed": 0},
                     {"n": 10.0, "forcing": "10", "t_steps": 2.5, "dt": None,
                      "seed": True}),
}


@pytest.mark.parametrize("gen, arg", [(gen, arg) for gen, (_, bad) in GENERATORS.items()
                                      for arg in bad])
def test_generator_argument_checked_by_name(gen, arg):
    valid, bad = GENERATORS[gen]
    getattr(sim, gen)(**valid)
    with pytest.raises(sim.SimulationError, match=f"^{arg} must be"):
        getattr(sim, gen)(**{**valid, arg: bad[arg]})


class TestGroundTruthGraph:
    EYE = np.eye(3, dtype=int)

    @pytest.mark.parametrize("regimes, match", [
        ([(0, EYE), (5, np.ones((3, 4), dtype=int))], r"regime 1 .*\(3, 4\)"),
        ([(0, EYE), (5, np.full((4, 4), 1))], r"regime 1 .*\(4, 4\)"),
        ([(0, EYE), (5, np.full((3, 3), 7))], "regime 1 .*0 or 1"),
        ([(0, EYE), (0, EYE)], "increasing")],
        ids=["not_square", "other_node_count", "not_binary", "start_repeats"])
    def test_every_regime_validated(self, regimes, match):
        with pytest.raises(sim.SimulationError, match=match):
            sim.GroundTruthGraph(regimes)

    @pytest.mark.parametrize("start", [2.5, True, np.inf, -1],
                             ids=["float", "bool", "inf", "negative"])
    def test_regime_start_must_be_a_time_step(self, start):
        # a start of 2.5 was kept, so regime_at(2) read regime 0 of a graph
        # that switches at 2.5
        with pytest.raises(sim.SimulationError, match="^regime 1 start must be"):
            sim.GroundTruthGraph([(0, self.EYE), (start, self.EYE)])

    def test_every_regime_stored_as_an_int_array(self):
        # a regime given as nested lists came back from regime_at as a list
        eye = np.eye(3).tolist()
        cycle = [[0, 1, 0], [0, 0, 1], [True, False, False]]
        truth = sim.GroundTruthGraph([(0, eye), (5, cycle)])
        for adj, want in ((truth.regime_at(5), cycle), (truth.regime_at(0), eye),
                          (truth.adjacency, eye)):
            assert isinstance(adj, np.ndarray) and adj.dtype == np.int64
            np.testing.assert_array_equal(adj, want)

    def test_regimes_are_copies_and_adjacency_is_the_first(self):
        # an int64 array was kept as it was, so writing into it after the
        # checks changed the truth
        first, second = np.eye(3, dtype=np.int64), np.ones((3, 3), dtype=np.int64)
        truth = sim.GroundTruthGraph([(0, first), (4, second)])
        first[0, 0] = 2
        second[:] = 0
        np.testing.assert_array_equal(truth.regimes[0][1], np.eye(3))
        np.testing.assert_array_equal(truth.regimes[1][1], np.ones((3, 3)))
        assert truth.adjacency is truth.regimes[0][1]

    @pytest.mark.parametrize("t", [-1, 2.0, True], ids=["negative", "float", "bool"])
    def test_regime_at_needs_a_time_step(self, t):
        # a negative t silently read regime 0
        truth = sim.GroundTruthGraph([(0, self.EYE)])
        with pytest.raises(sim.SimulationError, match="^t must be"):
            truth.regime_at(t)

    def test_at_least_one_regime(self):
        with pytest.raises(sim.SimulationError, match="at least one regime"):
            sim.GroundTruthGraph([])

    @pytest.mark.parametrize("adjacency", [np.ones((2, 3)), np.full((3, 3), 2)],
                             ids=["not_square", "not_binary"])
    def test_static_graph_validated(self, adjacency):
        with pytest.raises(sim.SimulationError, match="square|0 or 1"):
            sim.GroundTruthGraph([(0, adjacency)])


class TestStandardize:
    def test_constant_channel_maps_to_zero(self):
        x = np.full((1, 3, 10, 1), 7.0)
        np.testing.assert_array_equal(sim.standardize(x), np.zeros_like(x))

    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(0)
        x = rng.normal(3.0, 2.5, size=(2, 4, 50, 1))
        z = sim.standardize(x)
        np.testing.assert_allclose(z.mean(axis=2), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=2), 1.0, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(1, 3, 20, 2)) * rng.uniform(0.5, 4.0)
        once = sim.standardize(x)
        twice = sim.standardize(once)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_too_short_rejected(self):
        with pytest.raises(sim.SimulationError):
            sim.standardize(np.zeros((1, 2, 1, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_named_by_location(self, bad):
        # one NaN used to zero its whole channel: std > 0 is False for NaN
        x, _ = sim.gen_var(5, 1, 60, 0)
        x[0, 2, 17, 0] = bad
        x[0, 4, 30, 0] = bad
        message = rf"^non-finite value {bad} at \(sample, node, t\) = \(0, 2, 17\)$"
        with pytest.raises(sim.SimulationError, match=message):
            sim.standardize(x)


class TestStandardizeLike:
    def test_prefix_moments_applied_to_whole_series(self):
        x, _ = sim.gen_var(4, 1, 60, 0)
        x[0, 1, :48, 0] = 2.0  # constant over the prefix only
        z = sim.standardize_like(x, x[:, :, :48])
        np.testing.assert_array_equal(z[:, :, :48], sim.standardize(x[:, :, :48]))
        np.testing.assert_array_equal(z[0, 1], np.zeros((60, 1)))
        head = x[0, 0, :48]
        np.testing.assert_allclose(z[0, 0, 48:], (x[0, 0, 48:] - head.mean()) / head.std(),
                                   rtol=1e-15)

    def test_mismatched_channels_rejected(self):
        x, _ = sim.gen_var(4, 1, 60, 0)
        with pytest.raises(sim.SimulationError, match="differ"):
            sim.standardize_like(x, x[:, :3, :48])

    def test_non_finite_series_named_by_location(self):
        x, _ = sim.gen_var(4, 1, 60, 0)
        x[0, 3, 55, 0] = np.nan  # outside the reference prefix
        with pytest.raises(sim.SimulationError, match=r"\(0, 3, 55\)"):
            sim.standardize_like(x, x[:, :, :48])
