"""The benchmark's workloads: inputs made from a seed, the training
configuration, and the regimes the fitted masks are scored on.

Every workload trains with lr=1e-2, the default ``LossWeights``, one thread
and early stopping disabled, so ``train()`` always runs its fixed epoch
count. The dyncause modules are passed in rather than imported here, because
the set-up phase re-imports them on every repeat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LEARNING_RATE = 1e-2


# train() epochs per call, each call about 2-3 s. Why each workload exists is
# stated in BENCHMARK.json: var10-node is dominated by the N^2 GRU bank,
# var20-shared by dense model tensors and tape bookkeeping, switch8-windows
# by many short GRU calls, tapes and Adam steps.
EPOCHS = {"var10-node": 10, "var20-shared": 10, "switch8-windows": 5}

SWITCH_N, SWITCH_T, SWITCH_AT, WINDOW = 8, 2000, 1000, 40


@dataclass
class Inputs:
    x: np.ndarray  # (S, N, T, 1) raw series handed to train()
    regimes: list  # (sample indices, (N, N) truth adjacency) pairs to score


def cut_windows(series: np.ndarray, window: int) -> np.ndarray:
    """(1, N, T, d) -> (T // window, N, window, d) consecutive windows."""
    _, n, t_len, d = series.shape
    count = t_len // window
    return np.ascontiguousarray(
        series[0, :, :count * window].reshape(n, count, window, d).transpose(1, 0, 2, 3))


def windows_in_regime(count: int, window: int, start: int, stop: int) -> np.ndarray:
    """Indices of the windows lying wholly inside [start, stop)."""
    first = np.arange(count) * window
    return np.flatnonzero((first >= start) & (first + window <= stop))


def generate(simulate, name: str, seed: int) -> Inputs:
    """The workload's series and scoring regimes, drawn from ``seed`` only."""
    if name == "var10-node":
        x, truth = simulate.gen_var(10, 1, 500, seed)
        return Inputs(x, [(np.arange(1), truth.adjacency)])
    if name == "var20-shared":
        x, truth = simulate.gen_var(20, 1, 500, seed)
        return Inputs(x, [(np.arange(1), truth.adjacency)])
    if name == "switch8-windows":
        series, truth = simulate.gen_switching_var(SWITCH_N, SWITCH_T, SWITCH_AT, seed)
        x = cut_windows(series, WINDOW)
        (_, adj_a), (_, adj_b) = truth.regimes
        count = x.shape[0]
        return Inputs(x, [(windows_in_regime(count, WINDOW, 0, SWITCH_AT), adj_a),
                          (windows_in_regime(count, WINDOW, SWITCH_AT, SWITCH_T), adj_b)])
    raise KeyError(name)


def configs(training, name: str, seed: int, epochs: int | None = None):
    """(TrainConfig, LossWeights) for the workload; init seeded by ``seed``."""
    epochs = EPOCHS[name] if epochs is None else epochs
    extra = {}
    if name == "var20-shared":
        extra = {"share_encoder": True}
    elif name == "switch8-windows":
        extra = {"batch_mode": "sample_minibatch", "minibatch_size": 5}
    config = training.TrainConfig(learning_rate=LEARNING_RATE, epochs=epochs,
                                  early_stop_patience=epochs + 1, threads=1,
                                  seed=seed, **extra)
    return config, training.LossWeights()


def chunks_per_epoch(config, num_samples: int) -> int:
    """Forward/backward/Adam rounds per epoch, as ``train()`` splits samples."""
    if config.batch_mode == "sample_minibatch" and num_samples > 1:
        return -(-num_samples // config.minibatch_size)
    return 1


# Short fixed-seed fits checked against reference.json on every attempt; each
# runs the same code path as its workload at a fraction of the size.
REFERENCE_EPOCHS = 3
REFERENCE_SEED = 5


def reference_series(simulate, name: str) -> np.ndarray:
    if name == "var10-node":
        return simulate.gen_var(5, 1, 40, 11)[0]
    if name == "var20-shared":
        return simulate.gen_var(6, 1, 40, 12)[0]
    if name == "switch8-windows":
        return cut_windows(simulate.gen_switching_var(4, 120, 60, 13)[0], 20)
    raise KeyError(name)
