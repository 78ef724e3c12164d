"""Benchmark time-series generators with known ground-truth causal graphs.

Series are returned as (S, N, T, d) float64 arrays with S = 1 sample and a
single scalar feature per node. Truth adjacency follows the convention
``adjacency[i, j] == 1`` iff node j causes node i.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class GroundTruthGraph:
    """Binary causal adjacency, optionally switching between regimes.

    ``regimes`` lists (start_t, adjacency) with strictly increasing start
    times, the first at 0 with ``adjacency`` itself; a static graph has a
    single regime. Every matrix is a square 0/1 matrix over the same N nodes.
    """

    adjacency: np.ndarray
    regimes: list = field(default_factory=list)

    def __post_init__(self):
        self.adjacency = np.asarray(self.adjacency)
        shape = self.adjacency.shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise SimulationError(f"adjacency must be square, got shape {shape}")
        if not self.regimes:
            self.regimes = [(0, self.adjacency)]
        for k, (_, adj) in enumerate(self.regimes):
            if np.shape(adj) != shape:
                raise SimulationError(f"regime {k} adjacency has shape {np.shape(adj)}, "
                                      f"expected {shape}")
            if not np.isin(adj, (0, 1)).all():
                raise SimulationError(f"regime {k} adjacency entries must be 0 or 1")
        if not np.array_equal(self.regimes[0][1], self.adjacency):
            raise SimulationError("regime 0 adjacency must equal adjacency")
        starts = [s for s, _ in self.regimes]
        if starts[0] != 0 or any(b <= a for a, b in zip(starts, starts[1:])):
            raise SimulationError("regime starts must be strictly increasing from 0")

    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def is_switching(self) -> bool:
        return len(self.regimes) > 1

    def regime_at(self, t: int) -> np.ndarray:
        """Adjacency generating the value at time step ``t``."""
        current = self.regimes[0][1]
        for start, adj in self.regimes:
            if t >= start:
                current = adj
        return current


@dataclass
class VarSystem:
    """Sparse vector autoregression of order p with Gaussian innovations."""

    transition: list  # one (N, N) matrix per lag
    noise_std: float
    truth: GroundTruthGraph

    @property
    def num_nodes(self) -> int:
        return self.transition[0].shape[0]

    @property
    def lag(self) -> int:
        return len(self.transition)


def companion_spectral_radius(transition: list) -> float:
    n = transition[0].shape[0]
    p = len(transition)
    comp = np.zeros((n * p, n * p))
    for k, a in enumerate(transition):
        comp[:n, k * n : (k + 1) * n] = a
    if p > 1:
        comp[n:, : n * (p - 1)] = np.eye(n * (p - 1))
    return float(np.max(np.abs(np.linalg.eigvals(comp))))


def _draw_supports(n: int, rng: np.random.Generator) -> list:
    """Node i's support: i itself, then VAR_CAUSES_PER_NODE other parents."""
    supports = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        chosen = rng.choice(others, size=VAR_CAUSES_PER_NODE, replace=False)
        supports.append(np.array([i, *chosen]))
    return supports


def _draw_var_system(n: int, p: int, rng: np.random.Generator,
                     identical_lag_supports: bool = True) -> VarSystem:
    adjacency = np.zeros((n, n), dtype=np.int64)
    supports = _draw_supports(n, rng)
    transition = []
    for lag in range(p):
        if lag > 0 and not identical_lag_supports:
            supports = _draw_supports(n, rng)
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
    return VarSystem(transition=transition, noise_std=VAR_NOISE_STD,
                     truth=GroundTruthGraph(adjacency=adjacency))


def _simulate_var(system: VarSystem, t_steps: int, rng: np.random.Generator,
                  burn_in: int, init: np.ndarray | None = None) -> np.ndarray:
    n, p = system.num_nodes, system.lag
    total = burn_in + t_steps
    x = np.zeros((total + p, n))
    if init is not None:
        x[:p] = init
    noise = rng.normal(0.0, system.noise_std, size=(total, n))
    for t in range(total):
        acc = noise[t].copy()
        for k, a in enumerate(system.transition):
            acc += a @ x[p + t - 1 - k]
        x[p + t] = acc
    return x[p + burn_in :]


def gen_var(n: int, p: int, t_steps: int, seed: int,
            identical_lag_supports: bool = True):
    """Sparse VAR(p) series; returns ((1, N, T, 1) array, GroundTruthGraph)."""
    if p not in (1, 2):
        raise SimulationError(f"lag order must be 1 or 2, got {p}")
    if n < 3:
        raise SimulationError("need at least 3 nodes to draw 2 non-self causes")
    if t_steps < 10:
        raise SimulationError("series length must be at least 10")
    rng = np.random.default_rng(seed)
    system = _draw_var_system(n, p, rng, identical_lag_supports)
    series = _simulate_var(system, t_steps, rng, VAR_BURN_IN)
    return series.T[None, :, :, None], system.truth


def gen_switching_var(n: int, t_steps: int, switch_t: int, seed: int):
    """Two lag-1 VAR regimes spliced at ``switch_t`` with a continuous state."""
    if not 0 < switch_t < t_steps:
        raise SimulationError(f"switch time must lie strictly inside (0, {t_steps})")
    if n < 3:
        raise SimulationError("need at least 3 nodes to draw 2 non-self causes")
    if t_steps < 10:
        raise SimulationError("series length must be at least 10")
    rng = np.random.default_rng(seed)
    sys_a = _draw_var_system(n, 1, rng)
    sys_b = _draw_var_system(n, 1, rng)
    first = _simulate_var(sys_a, switch_t, rng, VAR_BURN_IN)
    second = _simulate_var(sys_b, t_steps - switch_t, rng, burn_in=0,
                           init=first[-1:])
    series = np.concatenate([first, second], axis=0)
    truth = GroundTruthGraph(
        adjacency=sys_a.truth.adjacency,
        regimes=[(0, sys_a.truth.adjacency), (switch_t, sys_b.truth.adjacency)],
    )
    return series.T[None, :, :, None], truth


def lorenz96_deriv(x: np.ndarray, forcing: float) -> np.ndarray:
    return (np.roll(x, -1) - np.roll(x, 2)) * np.roll(x, 1) - x + forcing


def lorenz96_truth(n: int) -> GroundTruthGraph:
    adjacency = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for offset in (-2, -1, 0, 1):
            adjacency[i, (i + offset) % n] = 1
    return GroundTruthGraph(adjacency=adjacency)


def gen_lorenz96(n: int, forcing: float, t_steps: int, dt: float = LORENZ_DT,
                 seed: int = 0):
    """Lorenz-96 series via RK4; returns ((1, N, T, 1) array, GroundTruthGraph)."""
    if n < 4:
        raise SimulationError("Lorenz-96 needs at least 4 variables")
    if forcing <= 0:
        raise SimulationError("forcing must be positive")
    if dt <= 0:
        raise SimulationError("integrator step must be positive")
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
        if np.max(np.abs(x)) > LORENZ_DIVERGENCE_LIMIT:
            raise IntegrationError(f"state diverged at step {t}")
        if t >= LORENZ_BURN_IN:
            samples[t - LORENZ_BURN_IN] = x
    return samples.T[None, :, :, None], lorenz96_truth(n)


def require_finite(x: np.ndarray) -> np.ndarray:
    """Return the (S, N, T, d) series ``x``; raise at its first NaN or Inf."""
    bad = ~np.isfinite(x)
    if bad.any():
        where = tuple(int(k) for k in np.argwhere(bad)[0])
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
