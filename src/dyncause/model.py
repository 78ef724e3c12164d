"""Per-node masked auto-encoder: encoder emits a causal gate row per
transition, decoder predicts the next step from the gated snapshot.

All node models live in one ``ParamStack``: every parameter carries a
leading node (or encoder row) axis, and the arrays, laid out as
``param_shapes`` states, are the one record of the architecture: N, d, the
hidden width and the encoder rows are read from their shapes.
``batched_forward`` is the model: it runs every node, sample and
transition in one tape pass, and training and ``forward_full`` use it.
Training passes its own tape; ``forward_full`` and training's final forward
pass none and record on a private ``Tape(grad=False)``, which runs the same
kernels but keeps no backward state.
Shared and per-node encoders take the same path: the encoder rows (one
shared row, or one per node) run as one ``gru_sequence`` call whose rows are
cell-major (row b*S + s runs bank cell b on sample s), its states feed one
``encoder_gcn`` call, which writes the GCN's rows in the (sample, step,
node) order the MMG reads, and the per-node MMG weights broadcast over a
shared encoder's single output. The decoder's first layer and its NGCN are
one ``gated_pool`` call, which runs one target node i at a time: its rows
are (j, t), node i's gated view of input j at transition t, pooled over j
and then weighted by ``ngcn_w``.
Every layer is one tape node: the GRU bank, the two GCNs, and the two
layers each of the MMG and the output MLP, which are ``ad.dense`` calls.
Every biased layer reads one [W; b] array, bias last, whole, and every
hidden layer ends in tanh. Both GCNs run over the complete graph, A all
ones, with the usual self loop of weight 1, so the propagation
D^-1/2 (A + I) D^-1/2 is (A + I) / (N + 1). ``ParamStack.serves``
reports which nodes each parameter row serves, so training needs no
knowledge of the parameter layout. Masks, predictions and targets share one
row layout, (N, S*(T-1), .), which ``node_rows`` and ``rows_to_series`` own;
read out without a gradient, the gates lie in [``GATE_LO``, ``GATE_HI``].
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tape, Tensor
from .blocks import encoder_gcn, gated_pool, gru_sequence, uniform_init
from .simulate import check_count, first_non_finite, require_finite

GATE_LO = 1e-7  # gates leave the model inside [GATE_LO, GATE_HI]
GATE_HI = 1.0 - 1e-7


@dataclass
class ModelConfig:
    """Architecture hyperparameters ``build_node_models`` draws a stack for:
    the hidden width h and whether every node shares one encoder. The rest
    is fixed: every hidden activation is tanh and both GCNs take a self loop
    of weight 1."""

    hidden: int = 15
    share_encoder: bool = False

    def __post_init__(self):
        check_count("hidden", self.hidden, 1)
        if not isinstance(self.share_encoder, (bool, np.bool_)):
            raise ValueError(f"share_encoder must be a bool, got {self.share_encoder!r}")


def param_shapes(n: int, d: int, h: int, e: int) -> dict:
    """Array name -> shape, in field order, of a ``ParamStack`` of N nodes, d
    features, hidden width h and E encoder rows: the one statement of the
    layout. Each axis of d+1, N*h+1 or h+1 rows ends in the bias row."""
    return {"gru_w": (e * n, d + 1, 3 * h), "gru_u": (e * n, h, 3 * h), "enc_w": (e, h, h),
            "mmg_w1": (n, n * h + 1, h), "mmg_w2": (n, h + 1, n), "rl_w": (n, d + 1, h),
            "ngcn_w": (n, h, h), "tip_w1": (n, h + 1, h), "tip_w2": (n, h + 1, d)}


@dataclass
class ParamStack:
    """Every node model's parameters, stacked on a leading node axis.

    The encoder has E rows: E = N, one per node, or E = 1 when every node
    shares it. Encoder row e owns ``enc_w[e]`` and the GRU rows e*N..e*N+N-1,
    where row e*N + j is its cell for input node j. Every biased affine map
    is one [W; b] array, its bias the last row, read whole by a fused kernel
    or by ``ad.dense``; the GRU gates sit side by side, W_z|W_r|W_h in
    ``gru_w`` and U_z|U_r|U_h in ``gru_u``. The arrays are the architecture:
    N is read from ``mmg_w2``, d from ``rl_w`` and E and h from ``enc_w``,
    and each array must have its ``param_shapes`` shape, else ``ValueError``
    names it; at N = 1 a shared and a per-node stack are the same arrays.
    Both GCNs propagate by (A + I) / (N + 1), A all ones, and every hidden
    activation is tanh.
    """

    gru_w: np.ndarray
    gru_u: np.ndarray
    enc_w: np.ndarray
    mmg_w1: np.ndarray
    mmg_w2: np.ndarray
    rl_w: np.ndarray
    ngcn_w: np.ndarray
    tip_w1: np.ndarray
    tip_w2: np.ndarray

    def __post_init__(self):
        # the tape wraps each array as a leaf without a copy, and Adam writes
        # the leaf in place; any other array would be converted, so its
        # updates would reach a copy and the stack would never train
        for name, arr in self.arrays().items():
            if not isinstance(arr, np.ndarray) or arr.dtype != np.float64 or arr.ndim != 3:
                kind = f"{getattr(arr, 'dtype', type(arr).__name__)} {np.shape(arr)}"
                raise ValueError(f"{name} must be a float64 ndarray of 3 axes, got {kind}")
            bad = first_non_finite(arr)
            if bad is not None:  # else the first forward fails, naming only the tape op 'leaf'
                raise ValueError(f"{name}[{', '.join(map(str, bad))}] is {arr[bad]}, "
                                 "not a finite weight")
        n, d = self.num_nodes, self.input_dim
        e, h = self.enc_w.shape[:2]
        if e not in (1, n) or h < 1:
            raise ValueError(f"enc_w shape {self.enc_w.shape}: need 1 (shared) or N = {n} "
                             "(mmg_w2) encoder rows of hidden width at least 1")
        want = param_shapes(n, d, h, e)
        for name, arr in self.arrays().items():
            if arr.shape != want[name]:
                raise ValueError(f"{name} shape {arr.shape}, expected {want[name]} for N = {n} "
                                 f"(mmg_w2), d = {d} (rl_w), hidden = {h} and {e} encoder "
                                 "row(s) (enc_w)")

    @property
    def num_nodes(self) -> int:
        return self.mmg_w2.shape[2]

    @property
    def input_dim(self) -> int:
        return self.rl_w.shape[1] - 1

    def arrays(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def serves(self) -> dict:
        """Array name -> (rows, N) bool, True where row r serves node i: an
        encoder row and its N GRU rows serve every node when shared."""
        n = self.num_nodes
        node = np.eye(n, dtype=bool)
        enc = np.ones((1, n), dtype=bool) if len(self.enc_w) == 1 else node
        return {name: np.repeat(enc, n, axis=0) if name.startswith("gru_")
                else enc if name == "enc_w" else node for name in self.arrays()}


def build_node_models(n: int, d: int, config: ModelConfig, base_seed: int) -> ParamStack:
    """Draw every node's parameters, node i from its own stream base_seed ^ i.

    Node i draws its N GRU cells, for j = 0..N-1 the gate blocks W_z, U_z,
    W_r, U_r, W_h and U_h of cell j in that order, then enc_w, mmg_w1,
    mmg_w2, rl_w, ngcn_w, tip_w1 and tip_w2. Only the W rows are drawn: the
    bias row of every [W; b] array starts at zero. With a shared encoder
    only node 0 draws the GRU bank and enc_w. ``n``, ``d`` and ``base_seed``
    must be integers, n and d at least 1 and base_seed at least 0.
    """
    check_count("n", n, 1)
    check_count("d", d, 1)
    check_count("base_seed", base_seed, 0)
    h = config.hidden
    enc_count = 1 if config.share_encoder else n
    stack = ParamStack(**{name: np.zeros(shape)
                          for name, shape in param_shapes(n, d, h, enc_count).items()})
    for i in range(n):
        rng = np.random.default_rng(base_seed ^ i)
        if i < enc_count:
            for j in range(n):
                for gate in range(3):
                    cols = slice(gate * h, (gate + 1) * h)
                    stack.gru_w[i * n + j][:d, cols] = uniform_init(rng, d, (d, h))
                    stack.gru_u[i * n + j][:, cols] = uniform_init(rng, h, (h, h))
            stack.enc_w[i] = uniform_init(rng, h, (h, h))
        stack.mmg_w1[i][:-1] = uniform_init(rng, n * h, (n * h, h))
        stack.mmg_w2[i][:-1] = uniform_init(rng, h, (h, n))
        stack.rl_w[i][:-1] = uniform_init(rng, d, (d, h))
        stack.ngcn_w[i] = uniform_init(rng, h, (h, h))
        stack.tip_w1[i][:-1] = uniform_init(rng, h, (h, h))
        stack.tip_w2[i][:-1] = uniform_init(rng, h, (h, d))
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


def series_shape(x: np.ndarray) -> tuple:
    """The (S, N, T, d) shape of the series ``x``; ``ShapeError`` unless it
    has a sample, a node, a feature and a transition (T >= 2)."""
    if x.ndim != 4:
        raise ShapeError(f"series must be (S, N, T, d), got {x.shape}")
    s_count, n, t_len, d = x.shape
    for axis, size in (("sample", s_count), ("node", n), ("feature", d)):
        if size < 1:
            raise ShapeError(f"series {x.shape} is empty on its {axis} axis")
    if t_len < 2:
        raise ShapeError(f"need at least 2 time steps, got T = {t_len}")
    return x.shape


def check_series(stack: ParamStack, x: np.ndarray) -> None:
    """Raise ``ShapeError`` unless ``x`` is a ``series_shape`` series with
    the N and d that ``stack`` was built for."""
    _, n, _, d = series_shape(x)
    built, given = (stack.num_nodes, stack.input_dim), (n, d)
    if built != given:
        raise ShapeError(f"models are built for (N, d) = {built}, the data has {given}")


@dataclass
class BatchedOutput:
    masks: Tensor  # (N, S*(T-1), N) gate rows, node-major
    predictions: Tensor  # (N, S*(T-1), d)
    leaves: dict  # parameter name -> tape Tensor over the stack array itself
    tape: Tape


def batched_forward(stack: ParamStack, x: np.ndarray, tape: Tape | None = None,
                    mask_override: np.ndarray | None = None) -> BatchedOutput:
    """Forward pass of every node model over every (sample, transition).

    ``x`` is the full (S, N, T, d) series, for the stack's N and d. The
    ``leaves`` wrap the stack arrays without a copy, so optimizer steps on
    them write through to ``stack``. Without a ``tape`` the forward records
    on a private ``Tape(grad=False)``, returned as ``BatchedOutput.tape``: no
    op keeps a backward closure, so each intermediate is freed once nothing
    reads it.
    ``mask_override`` replaces the decoder's gates at every transition: an
    (N,) row gives input j the gate [j] in every node, and an (N, N) matrix
    gives node i's input j the gate [i, j]; a non-finite entry raises
    ``ValueError`` naming its index, while 0 (a knocked-out edge) is legal.

    The GRU states go straight into ``encoder_gcn``, which mixes them into
    the (n_e, g, N*h) rows the MMG reads, one per (sample, step) for each of
    the n_e encoder rows, and applies ``enc_w`` and tanh in that buffer. Both
    GCNs propagate by (A + I) / (N + 1), A all ones, and the MMG's and the
    output MLP's hidden layers end in tanh.
    Either tape runs the same kernels; without a gradient the forward keeps
    only what the next layer reads: the GRU keeps one step of gates and its
    states die once mixed, the encoder output dies once the MMG's first
    layer has read it. ``gated_pool`` runs one target node at a time on
    either tape, and its backward rebuilds each node's gated input and
    activation, so neither outlives its node.
    """
    check_series(stack, x)
    s_count, n, t_len, d = x.shape
    if mask_override is not None:
        mask_override = np.asarray(mask_override, dtype=np.float64)
        if mask_override.shape not in ((n,), (n, n)):
            raise ShapeError(f"mask_override must be ({n},) or ({n}, {n}), "
                             f"got {mask_override.shape}")
        bad = first_non_finite(mask_override)
        if bad is not None:
            raise ValueError(f"mask_override[{', '.join(map(str, bad))}] is "
                             f"{mask_override[bad]}, not a finite gate")
    tt = t_len - 1
    g = s_count * tt
    n_e, h = stack.enc_w.shape[:2]  # one shared encoder row or one per node
    if tape is None:  # no gradient will be taken
        tape = Tape(grad=False)
    leaves = {name: tape.leaf(arr) for name, arr in stack.arrays().items()}

    # ---- encoder: the GRU bank over the first T-1 steps of every sample in
    # one call, hs (tt, n_e*N*S, h). Rows are cell-major: row b*S + s runs
    # cell b = e*N + j (encoder e's cell for input j, which reads series j) on sample s.
    series = x[:, :, :tt, :].transpose(2, 1, 0, 3)  # (tt, N_j, S, d)
    series = np.broadcast_to(series[:, None], (tt, n_e, n, s_count, d))
    x_seq = series.reshape(tt, n_e * n * s_count, d)
    h0 = tape.leaf(np.zeros((n_e * n * s_count, h)))
    # complete graph: every degree of A + I is n + 1. Dividing by n + 1
    # instead rounds differently at some n (20 among them), by up to 2e-16
    inv_sqrt = 1.0 / np.sqrt(n + 1.0)
    prop = (np.ones((n, n)) + np.eye(n)) * inv_sqrt * inv_sqrt
    z = encoder_gcn(gru_sequence(tape.leaf(x_seq), h0, leaves["gru_w"], leaves["gru_u"]),
                    leaves["enc_w"], prop)  # (n_e, g, N*h): a shared row broadcasts below
    a1 = ad.dense(z, leaves["mmg_w1"], "tanh")
    del z  # without a gradient, the encoder output dies here
    masks = ad.dense(a1, leaves["mmg_w2"], "sigmoid")  # (N, g, N)

    # ---- decoder on gated snapshots: x_prev[j] holds input j's steps 0..T-2
    x_prev = node_rows(x[:, :, :tt])
    if mask_override is None:
        gate = masks
    else:  # an (N,) row broadcasts over nodes i; a matrix keeps [i, j] on (i, ., j)
        gate = tape.leaf(np.broadcast_to(
            mask_override.reshape(-1, 1, n), (n, g, n)).copy())
    z_dec = gated_pool(gate, x_prev, leaves["rl_w"], leaves["ngcn_w"], prop)  # (N, g, h)
    t1 = ad.dense(z_dec, leaves["tip_w1"], "tanh")
    x_hat = ad.dense(t1, leaves["tip_w2"], "identity")  # (N, g, d)

    return BatchedOutput(masks=masks, predictions=x_hat, leaves=leaves, tape=tape)


@dataclass
class CausalMaskSeries:
    """(S, T-1, N, N) gate values; entry [s, t, i, j] gates j's influence on i."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 4 or v.shape[2] != v.shape[3]:
            raise ShapeError(f"mask series must be (S, T-1, N, N), got {v.shape}")
        if v.size and not (v.min() > 0.0 and v.max() < 1.0):  # NaN fails too
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


def output_series(out: BatchedOutput, s_count: int):
    """(``CausalMaskSeries``, ``Prediction``) of a gradient-free forward over
    ``s_count`` samples, its gates clipped into [GATE_LO, GATE_HI]: a
    sigmoid is exactly 1.0 above about 36.7, which the series rejects."""
    masks = np.clip(out.masks.data, GATE_LO, GATE_HI)
    return (CausalMaskSeries(values=rows_to_series(masks, s_count)),
            Prediction(values=rows_to_series(out.predictions.data, s_count)))


def forward_full(stack: ParamStack, x: np.ndarray,
                 mask_override: np.ndarray | None = None):
    """The encoder's masks and the one-step predictions for every sample, node
    and transition; ``mask_override`` changes only the predictions.

    The forward takes no gradient, so it keeps none of the state a backward
    would read, and clips its gates as ``output_series`` does. A series with
    an empty axis or a single step, or whose N or d differs from the stack's,
    raises ``ShapeError``, and a non-finite value raises ``SimulationError``
    naming its (sample, node, t).
    """
    x = np.asarray(x, dtype=np.float64)
    check_series(stack, x)  # before require_finite names an (S, N, T) index
    out = batched_forward(stack, require_finite(x), mask_override=mask_override)
    return output_series(out, x.shape[0])
