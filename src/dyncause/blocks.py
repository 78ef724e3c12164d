"""Network building blocks: GRU cell, graph-convolution layer, and MLP.

``gru_sequence`` is the one GRU: a numpy op that runs B independent cells
over a whole series in one tape node, with a hand-written backward verified
against finite differences in the test suite. ``gru_step`` and
``gru_unroll`` run a single ``GruCell`` through it; together with
``GcnLayer`` and ``Mlp`` they make up the per-node reference model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tape, Tensor

ACTIVATIONS = {
    "tanh": ad.tanh,
    "sigmoid": ad.sigmoid,
    "relu": ad.relu,
    "identity": lambda x: x,
}


def uniform_init(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = np.sqrt(1.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


# ---------------------------------------------------------------------------
# GRU

GRU_FIELDS = ["w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h"]


@dataclass
class GruCell:
    """One gated recurrent unit cell mapping inputs of dim d to hidden dim d1.

    Update rule: h_t = z_t * h_{t-1} + (1 - z_t) * c_t with
    z = sigmoid(x W_z + h U_z + b_z), r = sigmoid(x W_r + h U_r + b_r),
    c = tanh(x W_h + (r * h) U_h + b_h).
    """

    w_z: np.ndarray
    u_z: np.ndarray
    b_z: np.ndarray
    w_r: np.ndarray
    u_r: np.ndarray
    b_r: np.ndarray
    w_h: np.ndarray
    u_h: np.ndarray
    b_h: np.ndarray

    @property
    def input_dim(self) -> int:
        return self.w_z.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.w_z.shape[1]

    @classmethod
    def init(cls, rng: np.random.Generator, input_dim: int, hidden_dim: int) -> "GruCell":
        d, h = input_dim, hidden_dim
        return cls(
            w_z=uniform_init(rng, d, (d, h)),
            u_z=uniform_init(rng, h, (h, h)),
            b_z=np.zeros(h),
            w_r=uniform_init(rng, d, (d, h)),
            u_r=uniform_init(rng, h, (h, h)),
            b_r=np.zeros(h),
            w_h=uniform_init(rng, d, (d, h)),
            u_h=uniform_init(rng, h, (h, h)),
            b_h=np.zeros(h),
        )


def _sigmoid(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _gru_forward(X, H0, Wz, Uz, Bz, Wr, Ur, Br, Wh, Uh, Bh):
    T, B, d = X.shape
    d1 = H0.shape[1]
    xT = np.ascontiguousarray(X.transpose(1, 0, 2))  # (B, T, d)
    ax_z = np.matmul(xT, Wz).transpose(1, 0, 2)[:, :, None, :]  # (T, B, 1, d1)
    ax_r = np.matmul(xT, Wr).transpose(1, 0, 2)[:, :, None, :]
    ax_h = np.matmul(xT, Wh).transpose(1, 0, 2)[:, :, None, :]
    bz, br, bh = Bz[:, None, :], Br[:, None, :], Bh[:, None, :]
    Zs = np.empty((T, B, d1))
    Rs = np.empty((T, B, d1))
    Cs = np.empty((T, B, d1))
    Hs = np.empty((T, B, d1))
    h = H0[:, None, :]
    for t in range(T):
        z = _sigmoid(ax_z[t] + np.matmul(h, Uz) + bz)
        r = _sigmoid(ax_r[t] + np.matmul(h, Ur) + br)
        c = np.tanh(ax_h[t] + np.matmul(r * h, Uh) + bh)
        h = z * h + (1.0 - z) * c
        Zs[t], Rs[t], Cs[t], Hs[t] = z[:, 0], r[:, 0], c[:, 0], h[:, 0]
    return Hs, Zs, Rs, Cs


def _gru_backward(X, H0, Wz, Uz, Wr, Ur, Wh, Uh, Zs, Rs, Cs, Hs, G):
    T, B, d = X.shape
    d1 = H0.shape[1]
    UzT = np.swapaxes(Uz, -1, -2)
    UrT = np.swapaxes(Ur, -1, -2)
    UhT = np.swapaxes(Uh, -1, -2)
    D_az = np.empty((T, B, d1))
    D_ar = np.empty((T, B, d1))
    D_ac = np.empty((T, B, d1))
    dh = np.zeros((B, 1, d1))
    for t in range(T - 1, -1, -1):
        gt = G[t][:, None, :] + dh
        h_prev = (Hs[t - 1] if t > 0 else H0)[:, None, :]
        z, r, c = Zs[t][:, None, :], Rs[t][:, None, :], Cs[t][:, None, :]
        dz = gt * (h_prev - c)
        dc = gt * (1.0 - z)
        dh = gt * z
        d_ac = dc * (1.0 - c * c)
        d_rh = np.matmul(d_ac, UhT)
        dr = d_rh * h_prev
        dh = dh + d_rh * r
        d_az = dz * (z * (1.0 - z))
        d_ar = dr * (r * (1.0 - r))
        dh = dh + np.matmul(d_az, UzT) + np.matmul(d_ar, UrT)
        D_az[t], D_ar[t], D_ac[t] = d_az[:, 0], d_ar[:, 0], d_ac[:, 0]
    dh0 = dh[:, 0, :]

    # batched parameter-gradient accumulation over all steps
    Hprev = np.concatenate([H0[None], Hs[:-1]], axis=0)
    RH = Rs * Hprev
    xc = X.transpose(1, 2, 0)  # (B, d, T) view; matmul copies as needed
    Daz, Dar, Dac = (D.transpose(1, 0, 2) for D in (D_az, D_ar, D_ac))
    dWz = np.matmul(xc, Daz)
    dWr = np.matmul(xc, Dar)
    dWh = np.matmul(xc, Dac)
    dUz = np.matmul(Hprev.transpose(1, 2, 0), Daz)
    dUr = np.matmul(Hprev.transpose(1, 2, 0), Dar)
    dUh = np.matmul(RH.transpose(1, 2, 0), Dac)
    dbz = D_az.sum(axis=0)
    dbr = D_ar.sum(axis=0)
    dbh = D_ac.sum(axis=0)
    dX = (np.matmul(Daz, np.swapaxes(Wz, -1, -2))
          + np.matmul(Dar, np.swapaxes(Wr, -1, -2))
          + np.matmul(Dac, np.swapaxes(Wh, -1, -2))).transpose(1, 0, 2)
    return dX, dh0, dWz, dUz, dbz, dWr, dUr, dbr, dWh, dUh, dbh


def gru_sequence(x_seq: Tensor, h0: Tensor, w_z: Tensor, u_z: Tensor, b_z: Tensor,
                 w_r: Tensor, u_r: Tensor, b_r: Tensor,
                 w_h: Tensor, u_h: Tensor, b_h: Tensor) -> Tensor:
    """Run B independent GRU cells over a series in one fused op.

    x_seq: (T, B, d); h0: (B, d1); weights stacked per cell: w_* (B, d, d1),
    u_* (B, d1, d1), b_* (B, d1). Returns all hidden states (T, B, d1).
    """
    X, H0 = x_seq.data, h0.data
    if X.ndim != 3:
        raise ShapeError(f"gru_sequence expects (T, B, d) input, got {X.shape}")
    T, B, d = X.shape
    if T < 1:
        raise ShapeError("empty series")
    d1 = H0.shape[-1]
    if H0.shape != (B, d1):
        raise ShapeError(f"h0 shape {H0.shape} incompatible with batch {B}")
    Wz, Uz, Bz = w_z.data, u_z.data, b_z.data
    Wr, Ur, Br = w_r.data, u_r.data, b_r.data
    Wh, Uh, Bh = w_h.data, u_h.data, b_h.data
    for name, arr, want in (("w_z", Wz, (B, d, d1)), ("u_z", Uz, (B, d1, d1)), ("b_z", Bz, (B, d1))):
        if arr.shape != want:
            raise ShapeError(f"gru_sequence: {name} shape {arr.shape}, expected {want}")

    Hs, Zs, Rs, Cs = _gru_forward(X, H0, Wz, Uz, Bz, Wr, Ur, Br, Wh, Uh, Bh)

    def backward(g):
        return _gru_backward(X, H0, Wz, Uz, Wr, Ur, Wh, Uh, Zs, Rs, Cs, Hs,
                             np.ascontiguousarray(g))

    return x_seq.tape.record(
        Hs, (x_seq, h0, w_z, u_z, b_z, w_r, u_r, b_r, w_h, u_h, b_h),
        backward, op="gru_sequence")


def _cell_leaves(tape: Tape, cell: GruCell) -> list:
    return [tape.leaf(getattr(cell, f)[None]) for f in GRU_FIELDS]


def gru_step(cell: GruCell, x_t: Tensor, h_prev: Tensor) -> Tensor:
    """One GRU update; x_t has shape (d,), h_prev and the result (d1,)."""
    d, d1 = cell.input_dim, cell.hidden_dim
    if x_t.data.shape != (d,):
        raise ShapeError(f"x_t shape {x_t.data.shape}, cell expects ({d},)")
    if h_prev.data.shape != (d1,):
        raise ShapeError(f"h_prev shape {h_prev.data.shape}, cell expects ({d1},)")
    tape = x_t.tape
    xs = ad.reshape(x_t, (1, 1, d))
    h0 = ad.reshape(h_prev, (1, d1))
    out = gru_sequence(xs, h0, *_cell_leaves(tape, cell))
    return ad.reshape(out, (d1,))


def gru_unroll(cell: GruCell, series: Tensor) -> Tensor:
    """Run the cell over a (t, d) series from a zero state; returns final h."""
    if series.data.ndim != 2 or series.data.shape[0] < 1:
        raise ShapeError(f"series must be (t, d) with t >= 1, got {series.data.shape}")
    t, d = series.data.shape
    if d != cell.input_dim:
        raise ShapeError(f"series feature dim {d} != cell input dim {cell.input_dim}")
    tape = series.tape
    d1 = cell.hidden_dim
    xs = ad.reshape(series, (t, 1, d))
    h0 = tape.constant(np.zeros((1, d1)))
    out = gru_sequence(xs, h0, *_cell_leaves(tape, cell))
    return ad.reshape(ad.take_axis0(out, t - 1), (d1,))


# ---------------------------------------------------------------------------
# GCN


def normalized_propagation_matrix(adjacency: np.ndarray, self_loop: float) -> np.ndarray:
    """D^{-1/2} (A + lam I) D^{-1/2} with D the row sums of the loop-augmented A."""
    a = np.asarray(adjacency, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"adjacency must be square, got {a.shape}")
    if np.any(a < 0):
        raise ValueError("adjacency entries must be nonnegative")
    if self_loop < 0:
        raise ValueError("self-loop intensity must be >= 0")
    a_tilde = a + self_loop * np.eye(a.shape[0])
    deg = a_tilde.sum(axis=1)
    if np.any(deg <= 0):
        raise ValueError("loop-augmented adjacency has a non-positive row sum")
    inv_sqrt = 1.0 / np.sqrt(deg)
    return a_tilde * inv_sqrt[:, None] * inv_sqrt[None, :]


@dataclass
class GcnLayer:
    """Graph convolution H -> phi(L H W) with L the normalized adjacency."""

    w: np.ndarray
    adjacency: np.ndarray
    self_loop: float = 1.0
    phi: str = "tanh"
    _prop: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._prop = normalized_propagation_matrix(self.adjacency, self.self_loop)

    @property
    def prop(self) -> np.ndarray:
        return self._prop

    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]

    @classmethod
    def init(cls, rng: np.random.Generator, adjacency: np.ndarray, in_dim: int,
             out_dim: int, self_loop: float = 1.0, phi: str = "tanh") -> "GcnLayer":
        return cls(w=uniform_init(rng, in_dim, (in_dim, out_dim)),
                   adjacency=np.asarray(adjacency, dtype=np.float64),
                   self_loop=self_loop, phi=phi)


def gcn_forward(layer: GcnLayer, h: Tensor) -> Tensor:
    n = layer.num_nodes
    if h.data.ndim != 2 or h.data.shape[0] != n:
        raise ShapeError(f"node features must be ({n}, din), got {h.data.shape}")
    tape = h.tape
    act = ACTIVATIONS[layer.phi]
    return act(ad.matmul(ad.matmul(tape.constant(layer.prop), h), tape.leaf(layer.w)))


def ngcn_row_forward(layer: GcnLayer, i: int, h: Tensor) -> Tensor:
    """Row restriction phi(L_i H W); the decoder's single-node fusion."""
    n = layer.num_nodes
    if not 0 <= i < n:
        raise IndexError(f"node index {i} out of range for {n} nodes")
    if h.data.ndim != 2 or h.data.shape[0] != n:
        raise ShapeError(f"node features must be ({n}, din), got {h.data.shape}")
    tape = h.tape
    act = ACTIVATIONS[layer.phi]
    row = tape.constant(layer.prop[i : i + 1])
    return act(ad.matmul(ad.matmul(row, h), tape.leaf(layer.w)))


# ---------------------------------------------------------------------------
# MLP


@dataclass
class Mlp:
    """Affine/activation chain; the last layer uses ``out_act``."""

    weights: list
    biases: list
    hidden_act: str = "tanh"
    out_act: str = "identity"

    @property
    def layer_sizes(self) -> list:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @classmethod
    def init(cls, rng: np.random.Generator, layer_sizes: list,
             hidden_act: str = "tanh", out_act: str = "identity") -> "Mlp":
        weights, biases = [], []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            weights.append(uniform_init(rng, fan_in, (fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(weights=weights, biases=biases, hidden_act=hidden_act, out_act=out_act)


def mlp_forward(net: Mlp, x: Tensor) -> Tensor:
    """Apply the chain to a (din,) vector or (rows, din) matrix."""
    squeeze = x.data.ndim == 1
    h = ad.reshape(x, (1, x.data.size)) if squeeze else x
    if h.data.shape[-1] != net.weights[0].shape[0]:
        raise ShapeError(
            f"input dim {h.data.shape[-1]} != first layer dim {net.weights[0].shape[0]}")
    tape = x.tape
    last = len(net.weights) - 1
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = ad.add(ad.matmul(h, tape.leaf(w)), tape.leaf(b[None, :]))
        act = ACTIVATIONS[net.out_act if k == last else net.hidden_act]
        h = act(h)
    return ad.reshape(h, (h.data.shape[-1],)) if squeeze else h
