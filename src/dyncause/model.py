"""Per-node masked auto-encoder: encoder emits a causal gate row per
transition, decoder predicts the next step from the gated snapshot.

All node models live in one ``ParamStack``: every parameter carries a
leading node (or encoder row) axis, and ``ParamStack.config`` is the one
``ModelConfig`` the stack was built for. ``batched_forward`` is the model: it
runs every node, sample and transition in one tape pass, and training and
``forward_full`` use it. Shared and per-node encoders take the same path:
the encoder rows (one shared row, or one per node) run as one
``gru_sequence`` call whose rows are cell-major (row b*S + s runs bank cell
b on sample s), and the per-node MMG weights broadcast over a shared
encoder's single output. The decoder's first layer and its NGCN pooling are
one ``gated_pool`` call: its rows are (i, j, t), node i's gated view of input
j at transition t, pooled over j. ``batched_forward`` also reports which
nodes each parameter row serves, so training needs no knowledge of the
parameter layout. Masks, predictions and targets share one row layout,
(N, S*(T-1), .), which ``node_rows`` and ``rows_to_series`` own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tape, Tensor
from .blocks import gated_pool, gru_sequence, normalized_propagation_matrix, uniform_init


@dataclass
class ModelConfig:
    """Architecture hyperparameters shared by all node models."""

    hidden: int = 15
    self_loop: float = 1.0
    phi: str = "tanh"
    share_encoder: bool = False

    def __post_init__(self):
        if self.hidden < 1:
            raise ValueError(f"hidden must be at least 1, got {self.hidden}")
        if not (math.isfinite(self.self_loop) and self.self_loop >= 0):
            raise ValueError(f"self_loop must be finite and nonnegative, got {self.self_loop}")
        if self.phi not in ad.ACTIVATIONS:
            raise ValueError(f"phi must be one of {sorted(ad.ACTIVATIONS)}, got {self.phi!r}")


_ARRAYS = ("gru_w", "gru_u", "gru_b", "enc_w", "mmg_w1", "mmg_b1", "mmg_w2", "mmg_b2",
           "rl_w", "rl_b", "ngcn_w", "tip_w1", "tip_b1", "tip_w2", "tip_b2")


@dataclass
class ParamStack:
    """Every node model's parameters, stacked on a leading node axis.

    The encoder has E rows: E = N, one per node, or E = 1 when every node
    shares it. Encoder row e owns ``enc_w[e]`` and the GRU rows e*N..e*N+N-1,
    where row e*N + j is its cell for input node j. A GRU row holds the
    gates side by side, the layout ``gru_sequence`` computes in:
    ``gru_w[r]`` = W_z|W_r|W_h (d, 3h), ``gru_u[r]`` = U_z|U_r|U_h (h, 3h)
    and ``gru_b[r]`` = b_z|b_r|b_h (3h,). ``config`` is the architecture the
    stack was built for: the encoder GCN and the decoder NGCN both propagate
    over the complete graph with self-loop intensity ``config.self_loop``,
    and ``config.phi`` is every hidden activation of encoder and decoder.
    """

    gru_w: np.ndarray  # (E*N, d, 3h)
    gru_u: np.ndarray  # (E*N, h, 3h)
    gru_b: np.ndarray  # (E*N, 3h)
    enc_w: np.ndarray  # (E, h, h)
    mmg_w1: np.ndarray  # (N, N*h, h)
    mmg_b1: np.ndarray  # (N, 1, h)
    mmg_w2: np.ndarray  # (N, h, N)
    mmg_b2: np.ndarray  # (N, 1, N)
    rl_w: np.ndarray  # (N, d, h)
    rl_b: np.ndarray  # (N, 1, h)
    ngcn_w: np.ndarray  # (N, h, h)
    tip_w1: np.ndarray  # (N, h, h)
    tip_b1: np.ndarray  # (N, 1, h)
    tip_w2: np.ndarray  # (N, h, d)
    tip_b2: np.ndarray  # (N, 1, d)
    config: ModelConfig

    @property
    def num_nodes(self) -> int:
        return self.mmg_w2.shape[2]

    @property
    def input_dim(self) -> int:
        return self.rl_w.shape[1]

    @property
    def shared_encoder(self) -> bool:
        return self.enc_w.shape[0] < self.mmg_w1.shape[0]

    def arrays(self) -> dict:
        return {name: getattr(self, name) for name in _ARRAYS}


def build_node_models(n: int, d: int, config: ModelConfig, base_seed: int) -> ParamStack:
    """Draw every node's parameters, node i from its own stream base_seed ^ i.

    Node i draws its N GRU cells, for j = 0..N-1 the gate blocks W_z, U_z,
    W_r, U_r, W_h and U_h of cell j in that order, then enc_w, mmg_w1,
    mmg_w2, rl_w, ngcn_w, tip_w1 and tip_w2; biases start at zero. With a
    shared encoder only node 0 draws the GRU bank and enc_w.
    """
    h = config.hidden
    shared = config.share_encoder and n > 1
    enc_count = 1 if shared else n
    cells = enc_count * n
    stack = ParamStack(
        gru_w=np.zeros((cells, d, 3 * h)), gru_u=np.zeros((cells, h, 3 * h)),
        gru_b=np.zeros((cells, 3 * h)), enc_w=np.zeros((enc_count, h, h)),
        mmg_w1=np.zeros((n, n * h, h)), mmg_b1=np.zeros((n, 1, h)),
        mmg_w2=np.zeros((n, h, n)), mmg_b2=np.zeros((n, 1, n)),
        rl_w=np.zeros((n, d, h)), rl_b=np.zeros((n, 1, h)),
        ngcn_w=np.zeros((n, h, h)),
        tip_w1=np.zeros((n, h, h)), tip_b1=np.zeros((n, 1, h)),
        tip_w2=np.zeros((n, h, d)), tip_b2=np.zeros((n, 1, d)), config=config)
    for i in range(n):
        rng = np.random.default_rng(base_seed ^ i)
        if i < enc_count:
            for j in range(n):
                for gate in range(3):
                    cols = slice(gate * h, (gate + 1) * h)
                    stack.gru_w[i * n + j][:, cols] = uniform_init(rng, d, (d, h))
                    stack.gru_u[i * n + j][:, cols] = uniform_init(rng, h, (h, h))
            stack.enc_w[i] = uniform_init(rng, h, (h, h))
        stack.mmg_w1[i] = uniform_init(rng, n * h, (n * h, h))
        stack.mmg_w2[i] = uniform_init(rng, h, (h, n))
        stack.rl_w[i] = uniform_init(rng, d, (d, h))
        stack.ngcn_w[i] = uniform_init(rng, h, (h, h))
        stack.tip_w1[i] = uniform_init(rng, h, (h, h))
        stack.tip_w2[i] = uniform_init(rng, h, (h, d))
    return stack


# ---------------------------------------------------------------------------
# batched path


def node_rows(x: np.ndarray) -> np.ndarray:
    """(S, N, T', d) series -> (N, S*T', d) rows, row [j, s*T' + t] = x[s, j, t].

    The model's row layout: node j's rows run over its samples, each sample's
    T' steps in order.
    """
    s_count, n, t_len, d = x.shape
    return x.transpose(1, 0, 2, 3).reshape(n, s_count * t_len, d)


def rows_to_series(rows: np.ndarray, s_count: int) -> np.ndarray:
    """(N, S*T', d) rows -> (S, T', N, d), entry [s, t, j] = rows[j, s*T' + t]:
    ``node_rows`` undone into the layout of ``CausalMaskSeries`` and
    ``Prediction``, time before node."""
    n, g, d = rows.shape
    return rows.reshape(n, s_count, g // s_count, d).transpose(1, 2, 0, 3)


@dataclass
class BatchedOutput:
    masks: Tensor  # (N, S*(T-1), N) gate rows, node-major
    predictions: Tensor  # (N, S*(T-1), d)
    leaves: dict  # parameter name -> leaf Tensor over the stack array itself
    serves: dict  # parameter name -> (leaf rows, N) bool: row r serves node i
    tape: Tape
    num_samples: int


def batched_forward(stack: ParamStack, x: np.ndarray, tape: Tape,
                    mask_override: np.ndarray | None = None) -> BatchedOutput:
    """Forward pass of every node model over every (sample, transition).

    ``x`` is the full (S, N, T, d) series. The leaves wrap the stack arrays
    without a copy, so optimizer steps on them write through to ``stack``.
    ``mask_override`` replaces the decoder's gates at every transition: an
    (N,) row gives input j the gate [j] in every node, and an (N, N) matrix
    gives node i's input j the gate [i, j].
    """
    if x.ndim != 4:
        raise ShapeError(f"series must be (S, N, T, d), got {x.shape}")
    s_count, n, t_len, d = x.shape
    if t_len < 2:
        raise ShapeError("need at least 2 time steps")
    if mask_override is not None:
        mask_override = np.asarray(mask_override, dtype=np.float64)
        if mask_override.shape not in ((n,), (n, n)):
            raise ShapeError(f"mask_override must be ({n},) or ({n}, {n}), "
                             f"got {mask_override.shape}")
    tt = t_len - 1
    g = s_count * tt
    h, phi = stack.config.hidden, stack.config.phi

    # the encoder has one shared row or one row per node
    node_serves = np.eye(n, dtype=bool)
    enc_serves = np.ones((1, n), dtype=bool) if stack.shared_encoder else node_serves
    n_e = enc_serves.shape[0]
    leaves, serves = {}, {}
    for name, arr in stack.arrays().items():
        leaves[name] = tape.leaf(arr)
        if name.startswith("gru_"):  # N cells per encoder row
            serves[name] = np.repeat(enc_serves, n, axis=0)
        else:
            serves[name] = enc_serves if name == "enc_w" else node_serves

    # ---- encoder: the GRU bank over the first T-1 steps of every sample in
    # one call. Rows are cell-major: row b*S + s runs cell b = e*N + j (encoder
    # e's cell for input node j, which reads series j) on sample s.
    series = x[:, :, :tt, :].transpose(2, 1, 0, 3)  # (tt, N_j, S, d)
    series = np.broadcast_to(series[:, None], (tt, n_e, n, s_count, d))
    x_seq = series.reshape(tt, n_e * n * s_count, d)
    h0 = tape.constant(np.zeros((n_e * n * s_count, h)))
    hs = gru_sequence(tape.constant(x_seq), h0, leaves["gru_w"], leaves["gru_u"],
                      leaves["gru_b"])  # (tt, n_e*N*S, h)
    hs = ad.reshape(hs, (tt, n_e, n, s_count, h))
    hs = ad.transpose(hs, (1, 3, 0, 2, 4))
    hs = ad.reshape(hs, (n_e, g, n, h))

    prop = normalized_propagation_matrix(np.ones((n, n)), stack.config.self_loop)
    mixed = ad.matmul(tape.constant(prop), hs)  # (n_e, g, N, h)
    # flatten (g, N) so the per-encoder weight product is one wide dgemm each
    z = ad.activation(ad.matmul(ad.reshape(mixed, (n_e, g * n, h)), leaves["enc_w"]), phi)
    z_flat = ad.reshape(z, (n_e, g, n * h))  # a shared row broadcasts below
    a1 = ad.activation(ad.add(ad.matmul(z_flat, leaves["mmg_w1"]), leaves["mmg_b1"]), phi)
    mask_pre = ad.add(ad.matmul(a1, leaves["mmg_w2"]), leaves["mmg_b2"])
    masks = ad.activation(mask_pre, "sigmoid")  # (N, g, N)

    # ---- decoder on gated snapshots: x_prev[j] holds input j's steps 0..T-2
    x_prev = node_rows(x[:, :, :tt])
    if mask_override is None:
        gate = masks
    else:  # an (N,) row broadcasts over nodes i; a matrix keeps [i, j] on (i, ., j)
        gate = tape.constant(np.broadcast_to(
            mask_override.reshape(-1, 1, n), (n, g, n)).copy())
    pooled = gated_pool(gate, x_prev, leaves["rl_w"], leaves["rl_b"], prop, phi)  # (N, g, h)
    z_dec = ad.activation(ad.matmul(pooled, leaves["ngcn_w"]), phi)
    t1 = ad.activation(ad.add(ad.matmul(z_dec, leaves["tip_w1"]), leaves["tip_b1"]), phi)
    x_hat = ad.add(ad.matmul(t1, leaves["tip_w2"]), leaves["tip_b2"])  # (N, g, d)

    return BatchedOutput(masks=masks, predictions=x_hat, leaves=leaves, serves=serves,
                         tape=tape, num_samples=s_count)


@dataclass
class CausalMaskSeries:
    """(S, T-1, N, N) gate values; entry [s, t, i, j] gates j's influence on i."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 4 or v.shape[2] != v.shape[3]:
            raise ShapeError(f"mask series must be (S, T-1, N, N), got {v.shape}")
        if v.size and (v.min() <= 0.0 or v.max() >= 1.0):
            raise ValueError("mask entries must lie strictly inside (0, 1)")
        self.values = v

    @property
    def num_nodes(self) -> int:
        return self.values.shape[2]


@dataclass
class Prediction:
    """(S, T-1, N, d) one-step-ahead forecasts."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 4:
            raise ShapeError(f"predictions must be (S, T-1, N, d), got {v.shape}")
        if v.size and not np.all(np.isfinite(v)):
            raise ValueError("predictions contain non-finite values")
        self.values = v


def forward_full(stack: ParamStack, x: np.ndarray,
                 mask_override: np.ndarray | None = None):
    """The encoder's masks and the one-step predictions for every sample, node
    and transition; ``mask_override`` changes only the predictions."""
    x = np.asarray(x, dtype=np.float64)
    tape = Tape()
    out = batched_forward(stack, x, tape, mask_override=mask_override)
    return (CausalMaskSeries(values=rows_to_series(out.masks.data, out.num_samples)),
            Prediction(values=rows_to_series(out.predictions.data, out.num_samples)))
