"""Per-node masked auto-encoder: encoder emits a causal gate row per
transition, decoder predicts the next step from the gated snapshot.

All node models live in one ``ParamStack``: every parameter carries a
leading node axis, so node subsets slice cleanly. ``batched_forward`` runs
every node, sample and transition in one tape pass; training and
``forward_full`` use it. Its GRU bank is one ``gru_sequence`` call whose
rows are cell-major: row b*S + s runs bank cell b on sample s. The per-node
ops (``encode_mask_row``, ``apply_mask``, ``decode_predict``) read node i's
rows into the single-cell blocks of ``blocks`` and transcribe the model
directly, without going through ``batched_forward``; tests use them as its
independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tape, Tensor
from .blocks import (ACTIVATIONS, GRU_FIELDS, GcnLayer, GruCell, Mlp, gcn_forward,
                     gru_sequence, gru_unroll, mlp_forward, ngcn_row_forward,
                     normalized_propagation_matrix, uniform_init)


@dataclass
class ModelConfig:
    """Architecture hyperparameters shared by all node models."""

    hidden: int = 15
    self_loop: float = 1.0
    phi: str = "tanh"
    share_encoder: bool = False


_NODE_ARRAYS = ("enc_w", "mmg_w1", "mmg_b1", "mmg_w2", "mmg_b2", "rl_w", "rl_b",
                "ngcn_w", "tip_w1", "tip_b1", "tip_w2", "tip_b2")


@dataclass
class ParamStack:
    """Every node model's parameters, stacked on a leading node axis.

    GRU rows are node-major: row i*N + j is node i's cell for input node j.
    With a shared encoder the GRU bank has N rows and ``enc_w`` one row, used
    by every node. The encoder GCN and the decoder NGCN both propagate over
    the complete graph with self-loop intensity ``self_loop``.
    """

    gru: dict  # field -> (N*N, ...) array, or (N, ...) when the encoder is shared
    enc_w: np.ndarray  # (N, h, h), or (1, h, h) when shared
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
    self_loop: float = 1.0
    phi: str = "tanh"  # every hidden activation of encoder and decoder

    @property
    def num_nodes(self) -> int:
        return self.mmg_w2.shape[2]

    @property
    def input_dim(self) -> int:
        return self.rl_w.shape[1]

    @property
    def hidden(self) -> int:
        return self.rl_w.shape[2]

    @property
    def shared_encoder(self) -> bool:
        return self.enc_w.shape[0] < self.mmg_w1.shape[0]

    @property
    def prop(self) -> np.ndarray:
        """Normalized propagation matrix of the complete graph, (N, N)."""
        n = self.num_nodes
        return normalized_propagation_matrix(np.ones((n, n)), self.self_loop)

    def arrays(self) -> dict:
        out = {f"gru.{k}": v for k, v in self.gru.items()}
        for name in _NODE_ARRAYS:
            out[name] = getattr(self, name)
        return out


def build_node_models(n: int, d: int, config: ModelConfig, base_seed: int) -> ParamStack:
    """Draw every node's parameters, node i from its own stream base_seed ^ i.

    Node i draws its N GRU cells (for j = 0..N-1, see ``GruCell.init``), then
    enc_w, mmg_w1, mmg_w2, rl_w, ngcn_w, tip_w1 and tip_w2; biases start at
    zero. With a shared encoder only node 0 draws the GRU bank and enc_w.
    """
    h = config.hidden
    shared = config.share_encoder and n > 1
    enc_count = 1 if shared else n
    cell_shapes = {"w": (d, h), "u": (h, h), "b": (h,)}
    gru = {f: np.zeros((enc_count * n,) + cell_shapes[f[0]]) for f in GRU_FIELDS}
    stack = ParamStack(
        gru=gru, enc_w=np.zeros((enc_count, h, h)),
        mmg_w1=np.zeros((n, n * h, h)), mmg_b1=np.zeros((n, 1, h)),
        mmg_w2=np.zeros((n, h, n)), mmg_b2=np.zeros((n, 1, n)),
        rl_w=np.zeros((n, d, h)), rl_b=np.zeros((n, 1, h)),
        ngcn_w=np.zeros((n, h, h)),
        tip_w1=np.zeros((n, h, h)), tip_b1=np.zeros((n, 1, h)),
        tip_w2=np.zeros((n, h, d)), tip_b2=np.zeros((n, 1, d)),
        self_loop=config.self_loop, phi=config.phi)
    for i in range(n):
        rng = np.random.default_rng(base_seed ^ i)
        if i < enc_count:
            for j in range(n):
                cell = GruCell.init(rng, d, h)
                for f in GRU_FIELDS:
                    gru[f][i * n + j] = getattr(cell, f)
            stack.enc_w[i] = uniform_init(rng, h, (h, h))
        stack.mmg_w1[i] = uniform_init(rng, n * h, (n * h, h))
        stack.mmg_w2[i] = uniform_init(rng, h, (h, n))
        stack.rl_w[i] = uniform_init(rng, d, (d, h))
        stack.ngcn_w[i] = uniform_init(rng, h, (h, h))
        stack.tip_w1[i] = uniform_init(rng, h, (h, h))
        stack.tip_w2[i] = uniform_init(rng, h, (h, d))
    return stack


# ---------------------------------------------------------------------------
# per-node reference operations


def _check_node(stack: ParamStack, i: int) -> None:
    if not 0 <= i < stack.num_nodes:
        raise IndexError(f"node index {i} out of range for {stack.num_nodes} nodes")


def _complete_gcn(stack: ParamStack, w: np.ndarray) -> GcnLayer:
    n = stack.num_nodes
    return GcnLayer(w=w, adjacency=np.ones((n, n)), self_loop=stack.self_loop,
                    phi=stack.phi)


def encode_mask_row(stack: ParamStack, i: int, x_hist, tape: Tape | None = None) -> Tensor:
    """Node i's gate row for the transition following ``x_hist`` (N, t, d)."""
    _check_node(stack, i)
    tape = tape or Tape()
    hist = x_hist.data if isinstance(x_hist, Tensor) else np.asarray(x_hist, dtype=np.float64)
    n, d, h = stack.num_nodes, stack.input_dim, stack.hidden
    if hist.ndim != 3 or hist.shape[0] != n or hist.shape[2] != d:
        raise ShapeError(f"history must be ({n}, t, {d}), got {hist.shape}")
    if hist.shape[1] < 1:
        raise ShapeError("history must contain at least one step")
    x_t = x_hist if isinstance(x_hist, Tensor) else tape.constant(hist)
    owner = 0 if stack.shared_encoder else i
    rows = []
    for j in range(n):
        cell = GruCell(**{f: stack.gru[f][owner * n + j] for f in GRU_FIELDS})
        h_j = gru_unroll(cell, ad.take_axis0(x_t, j))
        rows.append(ad.reshape(h_j, (1, h)))
    z = gcn_forward(_complete_gcn(stack, stack.enc_w[owner]), ad.concat_rows(rows))
    mmg = Mlp(weights=[stack.mmg_w1[i], stack.mmg_w2[i]],
              biases=[stack.mmg_b1[i, 0], stack.mmg_b2[i, 0]],
              hidden_act=stack.phi, out_act="sigmoid")
    return mlp_forward(mmg, ad.flatten(z))


def apply_mask(mask_row: Tensor, x_prev: Tensor) -> Tensor:
    """Scale row j of ``x_prev`` by gate j; differentiable in both inputs."""
    n = x_prev.data.shape[0]
    if mask_row.data.shape != (n,):
        raise ShapeError(
            f"mask row shape {mask_row.data.shape} does not match {n} nodes")
    return ad.hadamard(ad.reshape(mask_row, (n, 1)), x_prev)


def decode_predict(stack: ParamStack, i: int, x_masked: Tensor) -> Tensor:
    """Node i's one-step prediction from a gated snapshot (N, d)."""
    _check_node(stack, i)
    n, d, h = stack.num_nodes, stack.input_dim, stack.hidden
    if x_masked.data.shape != (n, d):
        raise ShapeError(f"masked snapshot must be ({n}, {d}), got {x_masked.data.shape}")
    rl = Mlp(weights=[stack.rl_w[i]], biases=[stack.rl_b[i, 0]],
             hidden_act=stack.phi, out_act=stack.phi)
    z = ngcn_row_forward(_complete_gcn(stack, stack.ngcn_w[i]), i, mlp_forward(rl, x_masked))
    tip = Mlp(weights=[stack.tip_w1[i], stack.tip_w2[i]],
              biases=[stack.tip_b1[i, 0], stack.tip_b2[i, 0]],
              hidden_act=stack.phi, out_act="identity")
    return ad.reshape(mlp_forward(tip, ad.reshape(z, (h,))), (d,))


# ---------------------------------------------------------------------------
# batched path


@dataclass
class BatchedOutput:
    masks: Tensor  # (n_nodes, S*(T-1), N) gate rows, node-major
    predictions: Tensor  # (n_nodes, S*(T-1), d)
    leaves: dict  # parameter name -> leaf Tensor
    tape: Tape
    num_samples: int
    num_transitions: int


def batched_forward(stack: ParamStack, x: np.ndarray, tape: Tape,
                    node_slice: slice | None = None,
                    mask_override: np.ndarray | None = None) -> BatchedOutput:
    """Forward pass over every (sample, transition) for a set of nodes.

    ``x`` is the full (S, N, T, d) series; ``node_slice`` restricts which
    node models run (their parameters slice along the stacked axis), while
    every node's series still feeds the encoder and decoder inputs.
    """
    if x.ndim != 4:
        raise ShapeError(f"series must be (S, N, T, d), got {x.shape}")
    s_count, n, t_len, d = x.shape
    if t_len < 2:
        raise ShapeError("need at least 2 time steps")
    tt = t_len - 1
    node_ids = range(*(node_slice or slice(0, n)).indices(n))
    if node_ids.step != 1:
        raise ValueError("node_slice must be a contiguous range of nodes")
    lo, hi = node_ids.start, node_ids.stop
    n_i = len(node_ids)
    h = stack.hidden
    g = s_count * tt
    shared = stack.shared_encoder
    act = ACTIVATIONS[stack.phi]

    # leaves are views of the stack rows, so optimizer steps write through
    leaves = {}
    for name, arr in stack.arrays().items():
        if name.startswith("gru."):
            rows = slice(None) if shared else slice(lo * n, hi * n)
        else:
            rows = slice(None) if shared and name == "enc_w" else slice(lo, hi)
        leaves[name] = tape.leaf(arr[rows])

    # ---- encoder: the GRU bank over the first T-1 steps of every sample in
    # one call. Rows are cell-major: row b*S + s runs cell b on sample s.
    cells = n if shared else n_i * n
    series = x[:, :, :tt, :].transpose(2, 1, 0, 3)  # (tt, N_j, S, d)
    if not shared:  # node i's cell j reads series j
        series = np.broadcast_to(series[:, None], (tt, n_i, n, s_count, d))
    x_seq = series.reshape(tt, cells * s_count, d)
    h0 = tape.constant(np.zeros((cells * s_count, h)))
    hs = gru_sequence(tape.constant(x_seq), h0,
                      *(leaves[f"gru.{f}"] for f in GRU_FIELDS))  # (tt, cells*S, h)

    if shared:
        hs = ad.reshape(hs, (tt, n, s_count, h))
        hs = ad.transpose(hs, (2, 0, 1, 3))
        hs = ad.reshape(hs, (1, g, n, h))  # broadcasts over the node axis below
    else:
        hs = ad.reshape(hs, (tt, n_i, n, s_count, h))
        hs = ad.transpose(hs, (1, 3, 0, 2, 4))
        hs = ad.reshape(hs, (n_i, g, n, h))

    prop = stack.prop
    prop_c = tape.constant(prop)
    mixed = ad.matmul(prop_c, hs)  # (n_i|1, g, N, h)
    lead = 1 if shared else n_i
    # flatten (g, N) so the per-node weight product is one wide dgemm per node
    z = act(ad.matmul(ad.reshape(mixed, (lead, g * n, h)), leaves["enc_w"]))
    if shared:
        # materialize the node axis before the per-node MMG weights
        z = ad.hadamard(ad.reshape(z, (1, g, n * h)),
                        tape.constant(np.ones((n_i, 1, 1))))
    z_flat = ad.reshape(z, (n_i, g, n * h))
    a1 = act(ad.add(ad.matmul(z_flat, leaves["mmg_w1"]), leaves["mmg_b1"]))
    mask_pre = ad.add(ad.matmul(a1, leaves["mmg_w2"]), leaves["mmg_b2"])
    masks = ad.sigmoid(mask_pre)  # (n_i, g, N)

    # ---- decoder on gated snapshots
    x_prev = np.ascontiguousarray(
        x[:, :, :tt, :].transpose(0, 2, 1, 3).reshape(1, g, n, d))
    gate = masks if mask_override is None else tape.constant(
        np.broadcast_to(mask_override, (n_i, g, n)).copy())
    x_tilde = ad.hadamard(ad.reshape(gate, (n_i, g, n, 1)), tape.constant(x_prev))
    h_dec = act(
        ad.add(ad.matmul(ad.reshape(x_tilde, (n_i, g * n, d)), leaves["rl_w"]),
               leaves["rl_b"]))
    h_dec = ad.reshape(h_dec, (n_i, g, n, h))
    row_sel = prop[lo:hi].reshape(n_i, 1, n, 1)
    pooled = ad.sum_axis(ad.hadamard(h_dec, tape.constant(row_sel)), (2,))  # (n_i, g, h)
    z_dec = act(ad.matmul(pooled, leaves["ngcn_w"]))
    t1 = act(ad.add(ad.matmul(z_dec, leaves["tip_w1"]), leaves["tip_b1"]))
    x_hat = ad.add(ad.matmul(t1, leaves["tip_w2"]), leaves["tip_b2"])  # (n_i, g, d)

    return BatchedOutput(masks=masks, predictions=x_hat, leaves=leaves, tape=tape,
                         num_samples=s_count, num_transitions=tt)


def masks_to_series(masks_data: np.ndarray, s_count: int, tt: int) -> np.ndarray:
    """(n, S*tt, N) node-major gate rows -> (S, tt, N, N) mask matrices."""
    n = masks_data.shape[0]
    return masks_data.reshape(n, s_count, tt, -1).transpose(1, 2, 0, 3)


def predictions_to_series(pred_data: np.ndarray, s_count: int, tt: int) -> np.ndarray:
    n, _, d = pred_data.shape
    return pred_data.reshape(n, s_count, tt, d).transpose(1, 2, 0, 3)


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
    """Masks and one-step predictions for every sample, node and transition."""
    x = np.asarray(x, dtype=np.float64)
    tape = Tape()
    out = batched_forward(stack, x, tape, mask_override=mask_override)
    mask_series = masks_to_series(out.masks.data, out.num_samples, out.num_transitions)
    preds = predictions_to_series(out.predictions.data, out.num_samples, out.num_transitions)
    if mask_override is not None:
        return mask_series, Prediction(values=preds)
    return CausalMaskSeries(values=mask_series), Prediction(values=preds)
