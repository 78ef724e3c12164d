"""Benchmark time-series generators with known ground-truth causal graphs.

Series are returned as (S, N, T, d) float64 arrays with S = 1 sample and a
single scalar feature per node. Truth adjacency follows the convention
``adjacency[i, j] == 1`` iff node j causes node i.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

VAR_COEFF = 0.1
VAR_NOISE_STD = 0.1
VAR_CAUSES_PER_NODE = 2  # random parents in addition to the self loop
VAR_SPECTRAL_CAP = 0.95
VAR_BURN_IN = 200
LORENZ_DT = 0.05
LORENZ_BURN_IN = 100
LORENZ_INIT_STD = 0.01
LORENZ_DIVERGENCE_LIMIT = 1e6


class SimulationError(ValueError):
    """Invalid generator parameters or input series."""


class IntegrationError(ArithmeticError):
    """The ODE integration left the stable region."""


def check_count(name: str, value, least: int, error: type = ValueError) -> None:
    """``error`` naming ``name`` unless ``value`` is an integer >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise error(f"{name} must be an integer of at least {least}, got {value!r}")


def check_real(name: str, value, error: type = ValueError) -> None:
    """``error`` naming ``name`` unless ``value`` is a finite real number."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise error(f"{name} must be a finite real number, got {value!r}")


def first_non_finite(arr: np.ndarray) -> tuple | None:
    """The index, as a tuple of ints, of the first NaN or Inf of ``arr`` in
    C order, or None if every entry is finite."""
    bad = np.argwhere(~np.isfinite(arr))
    return tuple(int(k) for k in bad[0]) if len(bad) else None


@dataclass
class GroundTruthGraph:
    """Binary causal adjacency, optionally switching between regimes.

    ``regimes`` lists (start_t, adjacency) with strictly increasing start
    times, each an integer time step, the first 0; a static graph has a
    single regime, and ``adjacency`` is the first regime's. Every matrix is
    a square 0/1 matrix over the same N nodes, stored as an int64 copy
    whatever the caller passed.
    """

    regimes: list

    def __post_init__(self):
        if not self.regimes:
            raise SimulationError("a graph needs at least one regime")
        shape = np.shape(self.regimes[0][1])
        if len(shape) != 2 or shape[0] != shape[1]:
            raise SimulationError(f"regime 0 adjacency must be square, got shape {shape}")
        for k, (_, adj) in enumerate(self.regimes):
            if np.shape(adj) != shape:
                raise SimulationError(f"regime {k} adjacency has shape {np.shape(adj)}, "
                                      f"expected {shape}")
            if not np.isin(adj, (0, 1)).all():
                raise SimulationError(f"regime {k} adjacency entries must be 0 or 1")
        starts = [s for s, _ in self.regimes]
        for k, start in enumerate(starts):
            check_count(f"regime {k} start", start, 0, SimulationError)
        if starts[0] != 0 or any(b <= a for a, b in zip(starts, starts[1:])):
            raise SimulationError("regime starts must be strictly increasing from 0")
        self.regimes = [(s, np.array(adj, dtype=np.int64)) for s, adj in self.regimes]

    @property
    def adjacency(self) -> np.ndarray:
        return self.regimes[0][1]

    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def is_switching(self) -> bool:
        return len(self.regimes) > 1

    def regime_at(self, t: int) -> np.ndarray:
        """Adjacency generating the value at time step ``t`` >= 0."""
        check_count("t", t, 0, SimulationError)
        return next(adj for start, adj in reversed(self.regimes) if t >= start)


def companion_spectral_radius(transition: list) -> float:
    n = transition[0].shape[0]
    p = len(transition)
    comp = np.zeros((n * p, n * p))
    for k, a in enumerate(transition):
        comp[:n, k * n : (k + 1) * n] = a
    if p > 1:
        comp[n:, : n * (p - 1)] = np.eye(n * (p - 1))
    return float(np.max(np.abs(np.linalg.eigvals(comp))))


def _draw_var_system(n: int, p: int, rng: np.random.Generator) -> tuple:
    """A sparse VAR(p) as (transition, truth): one (N, N) matrix per lag, every
    lag on node i's support, i itself and VAR_CAUSES_PER_NODE other parents."""
    adjacency = np.zeros((n, n), dtype=np.int64)
    supports = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        chosen = rng.choice(others, size=VAR_CAUSES_PER_NODE, replace=False)
        supports.append(np.array([i, *chosen]))
    transition = []
    for _ in range(p):
        a = np.zeros((n, n))
        for i, supp in enumerate(supports):
            signs = rng.choice([-1.0, 1.0], size=supp.size)
            a[i, supp] = VAR_COEFF * signs
            adjacency[i, supp] = 1
        transition.append(a)
    radius = companion_spectral_radius(transition)
    if radius >= VAR_SPECTRAL_CAP:
        c = VAR_SPECTRAL_CAP / radius
        transition = [a * c ** (k + 1) for k, a in enumerate(transition)]
    return transition, GroundTruthGraph([(0, adjacency)])


def _check_var_counts(n, t_steps, seed) -> None:
    check_count("n", n, 3, SimulationError)  # 2 causes besides the node itself
    check_count("t_steps", t_steps, 10, SimulationError)
    check_count("seed", seed, 0, SimulationError)


def _simulate_var(transition: list, t_steps: int, rng: np.random.Generator,
                  burn_in: int, init: np.ndarray | None = None) -> np.ndarray:
    n, p = transition[0].shape[0], len(transition)
    total = burn_in + t_steps
    x = np.zeros((total + p, n))
    if init is not None:
        x[:p] = init
    noise = rng.normal(0.0, VAR_NOISE_STD, size=(total, n))
    for t in range(total):
        acc = noise[t].copy()
        for k, a in enumerate(transition):
            acc += a @ x[p + t - 1 - k]
        x[p + t] = acc
    return x[p + burn_in :]


def gen_var(n: int, p: int, t_steps: int, seed: int):
    """Sparse VAR(p) series; returns ((1, N, T, 1) array, GroundTruthGraph).
    A bad argument raises ``SimulationError`` naming it."""
    _check_var_counts(n, t_steps, seed)
    check_count("p", p, 1, SimulationError)
    if p > 2:
        raise SimulationError(f"lag order p must be 1 or 2, got {p}")
    rng = np.random.default_rng(seed)
    transition, truth = _draw_var_system(n, p, rng)
    series = _simulate_var(transition, t_steps, rng, VAR_BURN_IN)
    return series.T[None, :, :, None], truth


def gen_switching_var(n: int, t_steps: int, switch_t: int, seed: int):
    """Two lag-1 VAR regimes spliced at ``switch_t`` with a continuous state.
    A bad argument raises ``SimulationError`` naming it."""
    _check_var_counts(n, t_steps, seed)
    check_count("switch_t", switch_t, 1, SimulationError)
    if switch_t >= t_steps:
        raise SimulationError(f"switch time must lie strictly inside (0, {t_steps})")
    rng = np.random.default_rng(seed)
    trans_a, truth_a = _draw_var_system(n, 1, rng)
    trans_b, truth_b = _draw_var_system(n, 1, rng)
    first = _simulate_var(trans_a, switch_t, rng, VAR_BURN_IN)
    second = _simulate_var(trans_b, t_steps - switch_t, rng, burn_in=0,
                           init=first[-1:])
    series = np.concatenate([first, second], axis=0)
    truth = GroundTruthGraph([(0, truth_a.adjacency), (switch_t, truth_b.adjacency)])
    return series.T[None, :, :, None], truth


def lorenz96_deriv(x: np.ndarray, forcing: float) -> np.ndarray:
    return (np.roll(x, -1) - np.roll(x, 2)) * np.roll(x, 1) - x + forcing


def lorenz96_truth(n: int) -> GroundTruthGraph:
    adjacency = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for offset in (-2, -1, 0, 1):
            adjacency[i, (i + offset) % n] = 1
    return GroundTruthGraph([(0, adjacency)])


def gen_lorenz96(n: int, forcing: float, t_steps: int, dt: float = LORENZ_DT,
                 seed: int = 0):
    """Lorenz-96 series via RK4; returns ((1, N, T, 1) array, GroundTruthGraph).

    A bad argument raises ``SimulationError`` naming it. Raises
    ``IntegrationError`` naming the step at which the state leaves
    |x| <= ``LORENZ_DIVERGENCE_LIMIT`` or stops being finite.
    """
    check_count("n", n, 4, SimulationError)
    check_count("t_steps", t_steps, 2, SimulationError)
    check_count("seed", seed, 0, SimulationError)
    for name, value in (("forcing", forcing), ("dt", dt)):
        check_real(name, value, SimulationError)
        if value <= 0:
            raise SimulationError(f"{name} must be positive, got {value!r}")
    rng = np.random.default_rng(seed)
    x = forcing + rng.normal(0.0, LORENZ_INIT_STD, size=n)
    samples = np.empty((t_steps, n))
    total = LORENZ_BURN_IN + t_steps
    for t in range(total):
        k1 = lorenz96_deriv(x, forcing)
        k2 = lorenz96_deriv(x + 0.5 * dt * k1, forcing)
        k3 = lorenz96_deriv(x + 0.5 * dt * k2, forcing)
        k4 = lorenz96_deriv(x + dt * k3, forcing)
        x = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.max(np.abs(x)) <= LORENZ_DIVERGENCE_LIMIT:  # NaN fails too
            raise IntegrationError(f"state diverged or became non-finite at step {t}")
        if t >= LORENZ_BURN_IN:
            samples[t - LORENZ_BURN_IN] = x
    return samples.T[None, :, :, None], lorenz96_truth(n)


def require_finite(x: np.ndarray) -> np.ndarray:
    """Return the (S, N, T, d) series ``x``; raise at its first NaN or Inf."""
    where = first_non_finite(x)
    if where is not None:
        raise SimulationError(f"non-finite value {x[where]} at (sample, node, t) = "
                              f"{where[:3]}")
    return x


def standardize(x: np.ndarray) -> np.ndarray:
    """Z-score every (sample, node, feature) channel over time; constants -> 0.

    Non-finite input raises ``SimulationError`` naming its (sample, node, t).
    """
    return standardize_like(x, x)


def standardize_like(x: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Z-score ``x`` with the per-channel mean and std over time of
    ``reference``, an (S, N, T', d) series with the same S, N and d.

    ``standardize_like(x, x[:, :, :cut])`` puts the whole series on the scale
    of ``standardize(x[:, :, :cut])``, bit for bit on the first ``cut`` steps.
    Channels constant in ``reference`` map to 0.
    """
    ref = np.asarray(reference, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    for arr in (ref, x):
        if arr.ndim != 4:
            raise SimulationError(f"expected (S, N, T, d) series, got shape {arr.shape}")
    if ref.shape[2] < 2:
        raise SimulationError("need at least 2 time steps to standardize")
    if x.shape[:2] + x.shape[3:] != ref.shape[:2] + ref.shape[3:]:
        raise SimulationError(f"series {x.shape} and reference {ref.shape} differ "
                              "in samples, nodes or features")
    require_finite(ref)
    if x is not ref:  # standardize(x) checks its series once
        require_finite(x)
    mean = ref.mean(axis=2, keepdims=True)
    std = ref.std(axis=2, keepdims=True)
    return np.where(std > 0, (x - mean) / np.where(std > 0, std, 1.0), 0.0)
