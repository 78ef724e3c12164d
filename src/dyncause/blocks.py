"""Network building blocks: GRU cell, graph-convolution layer, and MLP.

``gru_sequence`` is the one GRU: a numpy op that runs B independent cells
over a whole series in one tape node, with a hand-written backward verified
against finite differences in the test suite. Its row contract: the series
has M = B*k rows and row b*k + s is run by cell b, so one call carries k
independent sequences per cell (k is read from the shapes) and each step is
one (k, h) matrix product per cell for the fused z|r gates and one for the
candidate. ``gru_step`` and ``gru_unroll`` run a single ``GruCell`` through
it; together with ``GcnLayer`` and ``Mlp`` they make up the per-node
reference model.
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


def _gru_forward(X, H0, Wg, Uzr, Uh, Bg):
    """Forward recurrence; Wg = W_z, W_r, W_h stacked (3, B, d, h), Bg the
    biases likewise (3, B, h), Uzr = U_z|U_r (B, h, 2h).

    The input projection fills the gate-major step buffer P (T, 3, B, k, h)
    in one batched GEMM, bias added in place; each step then turns P[t] into the
    gates z, r and the candidate c in place, with one (k, h)@(h, 2h) product
    per cell for both gates and one (k, h)@(h, h) for the candidate. Returns
    P and the states Hb (T+1, B, k, h) with Hb[0] = h0 and Hb[t+1] = h_t.
    """
    T, M, d = X.shape
    B, h = Uh.shape[0], H0.shape[1]
    k = M // B
    P = np.empty((T, 3, B, k, h))
    x_rows = X.reshape(T, B, k, d).transpose(1, 2, 0, 3)  # (B, k, T, d)
    np.matmul(x_rows, Wg[:, :, None], out=P.transpose(1, 2, 3, 0, 4))
    P += Bg[:, :, None, :]
    Hb = np.empty((T + 1, B, k, h))
    Hb[0] = H0.reshape(B, k, h)
    hu = np.empty((B, k, 2 * h))
    hu_zr = hu.reshape(B, k, 2, h).transpose(2, 0, 1, 3)  # (2, B, k, h) view
    hc = np.empty((B, k, h))
    tmp = np.empty((B, k, h))
    with np.errstate(over="ignore"):  # exp(-x) overflows to inf: sigmoid -> 0
        for t in range(T):
            h_prev, h_t, zr, z, r, c = Hb[t], Hb[t + 1], P[t, :2], P[t, 0], P[t, 1], P[t, 2]
            np.matmul(h_prev, Uzr, out=hu)
            zr += hu_zr
            np.negative(zr, out=zr)
            np.exp(zr, out=zr)
            zr += 1.0
            np.reciprocal(zr, out=zr)
            np.multiply(r, h_prev, out=tmp)
            c += np.matmul(tmp, Uh, out=hc)
            np.tanh(c, out=c)
            # h_t = z * h_prev + (1 - z) * c
            np.subtract(1.0, z, out=tmp)
            tmp *= c
            np.multiply(z, h_prev, out=h_t)
            h_t += tmp
    return P, Hb


def _gru_backward(X, Wg, Uzr, Uh, P, Hb, G, need_dx):
    """Gradients of all 11 ``gru_sequence`` inputs for upstream G (T, B*k, h);
    dX is None unless ``need_dx``.

    Each step writes d_az|d_ar|d_ac into one (T, B, k, 3h) buffer D and takes
    one (k, 2h)@(2h, h) product per cell for both gates. After the loop each
    gradient is one GEMM over T per (cell, row), every operand read in place
    as a (T, .) matrix, summed over the cell's k rows.
    """
    T, M, d = X.shape
    B, h = Uh.shape[0], Hb.shape[-1]
    k, h2 = M // B, 2 * h
    G = G.reshape(T, B, k, h)
    UzrT = np.swapaxes(Uzr, 1, 2)  # (B, 2h, h)
    UhT = np.swapaxes(Uh, 1, 2)
    D = np.empty((T, B, k, 3 * h))  # d_az | d_ar | d_ac
    D_zr, D_c = D[..., :h2], D[..., h2:]
    D_g = D.reshape(T, B, k, 3, h).transpose(0, 3, 1, 2, 4)  # (T, 3, B, k, h) view
    omzr = np.empty((2, B, k, h))  # 1 - z, 1 - r
    fzr = np.empty((2, B, k, h))  # z(1 - z), r(1 - r)
    dzr = np.empty((2, B, k, h))  # dL/dz, dL/dr
    dh = np.zeros((B, k, h))
    gt = np.empty((B, k, h))
    d_rh = np.empty((B, k, h))
    tmp = np.empty((B, k, h))
    tmp2 = np.empty((B, k, h))
    for t in range(T - 1, -1, -1):
        h_prev, zr, z, r, c = Hb[t], P[t, :2], P[t, 0], P[t, 1], P[t, 2]
        np.add(G[t], dh, out=gt)
        np.subtract(1.0, zr, out=omzr)
        np.multiply(zr, omzr, out=fzr)
        # d_ac = gt * (1 - z) * (1 - c * c)
        np.multiply(gt, omzr[0], out=tmp)
        np.multiply(c, c, out=tmp2)
        np.subtract(1.0, tmp2, out=tmp2)
        np.multiply(tmp, tmp2, out=D_g[t, 2])
        np.matmul(D_c[t], UhT, out=d_rh)
        # d_az, d_ar = (gt * (h_prev - c), d_rh * h_prev) * (z(1 - z), r(1 - r))
        np.subtract(h_prev, c, out=tmp)
        np.multiply(gt, tmp, out=dzr[0])
        np.multiply(d_rh, h_prev, out=dzr[1])
        np.multiply(dzr, fzr, out=D_g[t, :2])
        # dh = gt * z + d_rh * r + (d_az | d_ar) @ (U_z | U_r)^T
        np.multiply(gt, z, out=dh)
        np.multiply(d_rh, r, out=tmp)
        dh += tmp
        np.matmul(D_zr[t], UzrT, out=tmp)
        dh += tmp

    Dk = D.transpose(1, 2, 0, 3)  # (B, k, T, 3h)

    def weight_grad(Y, Dpart):  # Y (T, B, k, n) -> (B, n, Dpart width)
        return np.matmul(Y.transpose(1, 2, 3, 0), Dpart).sum(axis=1)

    dW = weight_grad(X.reshape(T, B, k, d), Dk)
    dUzr = weight_grad(Hb[:-1], Dk[..., :h2])
    dUh = weight_grad(P[:, 1] * Hb[:-1], Dk[..., h2:])  # r_t * h_{t-1}
    db = D.sum(axis=0).sum(axis=1)  # (B, 3h)
    dX = None
    if need_dx:  # the encoder feeds data, which needs no gradient
        W = np.concatenate(Wg, axis=2)  # W_z|W_r|W_h (B, d, 3h)
        dX = np.empty((T, M, d))
        np.matmul(Dk, np.swapaxes(W, 1, 2)[:, None],
                  out=dX.reshape(T, B, k, d).transpose(1, 2, 0, 3))
    return (dX, dh.reshape(M, h),
            dW[..., :h], dUzr[..., :h], db[:, :h],
            dW[..., h:h2], dUzr[..., h:], db[:, h:h2],
            dW[..., h2:], dUh, db[:, h2:])


def gru_sequence(x_seq: Tensor, h0: Tensor, w_z: Tensor, u_z: Tensor, b_z: Tensor,
                 w_r: Tensor, u_r: Tensor, b_r: Tensor,
                 w_h: Tensor, u_h: Tensor, b_h: Tensor) -> Tensor:
    """Run B independent GRU cells over a series in one fused op.

    Row contract: x_seq is (T, M, d) and h0 (M, d1) with M = B*k rows, where
    B is the number of cells read from the weights, w_* (B, d, d1),
    u_* (B, d1, d1), b_* (B, d1). Row b*k + s is run by cell b, so each cell
    carries k independent sequences (k is read from the shapes). Returns all
    hidden states (T, M, d1), row-aligned with x_seq.
    """
    X, H0 = x_seq.data, h0.data
    if X.ndim != 3:
        raise ShapeError(f"gru_sequence expects (T, M, d) input, got {X.shape}")
    T, M, d = X.shape
    if T < 1:
        raise ShapeError("empty series")
    if H0.ndim != 2 or H0.shape[0] != M:
        raise ShapeError(f"h0 shape {H0.shape} incompatible with {M} input rows")
    d1 = H0.shape[1]
    params = [p.data for p in (w_z, u_z, b_z, w_r, u_r, b_r, w_h, u_h, b_h)]
    B = params[0].shape[0] if params[0].ndim else 0
    if B < 1 or M % B:
        raise ShapeError(f"gru_sequence: {M} input rows are not a multiple of "
                         f"the {B} cells of w_z")
    want = {"w": (B, d, d1), "u": (B, d1, d1), "b": (B, d1)}
    for name, arr in zip(GRU_FIELDS, params):
        if arr.shape != want[name[0]]:
            raise ShapeError(
                f"gru_sequence: {name} shape {arr.shape}, expected {want[name[0]]}")
    Wz, Uz, Bz, Wr, Ur, Br, Wh, Uh, Bh = params
    Wg = np.stack((Wz, Wr, Wh))
    Uzr = np.concatenate((Uz, Ur), axis=2)

    P, Hb = _gru_forward(X, H0, Wg, Uzr, Uh, np.stack((Bz, Br, Bh)))
    need_dx = x_seq.needs  # a bool: the closure must not keep the tape alive

    def backward(g):
        return _gru_backward(X, Wg, Uzr, Uh, P, Hb, np.ascontiguousarray(g), need_dx)

    return x_seq.tape.record(
        Hb[1:].reshape(T, M, d1), (x_seq, h0, w_z, u_z, b_z, w_r, u_r, b_r, w_h, u_h, b_h),
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
