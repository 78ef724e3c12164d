"""Network building blocks: the GRU bank op, the gated pooling op and the
graph propagation matrix.

``gru_sequence`` is the one GRU: a numpy op that runs B independent cells
over a whole series in one tape node, with a hand-written backward verified
against finite differences in the test suite. Every GRU parameter is stored
with its gates side by side, W_z|W_r|W_h, in one array per kind (``w``,
``u``, ``b``), the layout the op computes in. Its row contract: the series
has M = B*k rows and row b*k + s is run by cell b, so one call carries k
independent sequences per cell (k is read from the shapes) and each step is
one (k, h) matrix product per cell for the fused z|r gates and one for the
candidate.

``gated_pool`` is the decoder's first layer and its NGCN pooling, built the
same way: one tape node whose (i, j, t, .) buffers hold node i's view of
input j at transition t, so the (N, N, g, h) activation is written once and
read back once in the backward; phi and phi' come from
``autodiff.ACTIVATIONS``. ``normalized_propagation_matrix`` is the GCN
propagation rule that ``model.batched_forward`` applies over the complete
graph.
"""

from __future__ import annotations

import numpy as np

from .autodiff import ACTIVATIONS, ShapeError, Tensor, _check_finite


def uniform_init(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = np.sqrt(1.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


# ---------------------------------------------------------------------------
# GRU


def _gru_forward(X, H0, W, U, b):
    """Forward recurrence for the fused cell weights W (B, d, 3h),
    U (B, h, 3h) and b (B, 3h).

    The input projection fills the gate-major step buffer P (T, 3, B, k, h)
    in one batched GEMM, bias added in place; each step then turns P[t] into the
    gates z, r and the candidate c in place, with one (k, h)@(h, 2h) product
    per cell for both gates and one (k, h)@(h, h) for the candidate. Returns
    P and the states Hb (T+1, B, k, h) with Hb[0] = h0 and Hb[t+1] = h_t.
    """
    T, M, d = X.shape
    B, h = U.shape[0], H0.shape[1]
    k = M // B
    Uzr, Uh = U[..., :2 * h], U[..., 2 * h:]
    P = np.empty((T, 3, B, k, h))
    x_rows = X.reshape(T, B, k, d).transpose(1, 2, 0, 3)  # (B, k, T, d)
    Wg = W.reshape(B, d, 3, h).transpose(2, 0, 1, 3)  # (3, B, d, h) view
    np.matmul(x_rows, Wg[:, :, None], out=P.transpose(1, 2, 3, 0, 4))
    P += b.reshape(B, 3, h).transpose(1, 0, 2)[:, :, None, :]
    Hb = np.empty((T + 1, B, k, h))
    Hb[0] = H0.reshape(B, k, h)
    hu = np.empty((B, k, 2 * h))
    hu_zr = hu.reshape(B, k, 2, h).transpose(2, 0, 1, 3)  # (2, B, k, h) view
    hc = np.empty((B, k, h))
    tmp = np.empty((B, k, h))
    # sigmoid and tanh inline, not from ACTIVATIONS, whose sigmoid enters
    # np.errstate on each call (about 2 us, once per step)
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


def _gru_backward(X, W, U, P, Hb, G, need_dx):
    """Gradients of the five ``gru_sequence`` inputs for upstream G
    (T, B*k, h); dX is None unless ``need_dx``.

    Each step writes d_az|d_ar|d_ac into one (T, B, k, 3h) buffer D and takes
    one (k, 2h)@(2h, h) product per cell for both gates. After the loop each
    gradient is one GEMM over T per (cell, row), every operand read in place
    as a (T, .) matrix, summed over the cell's k rows.
    """
    T, M, d = X.shape
    B, h = U.shape[0], Hb.shape[-1]
    k, h2 = M // B, 2 * h
    G = G.reshape(T, B, k, h)
    UzrT = np.swapaxes(U[..., :h2], 1, 2)  # (B, 2h, h)
    UhT = np.swapaxes(U[..., h2:], 1, 2)
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
    dU = np.concatenate((weight_grad(Hb[:-1], Dk[..., :h2]),
                         weight_grad(P[:, 1] * Hb[:-1], Dk[..., h2:])),  # r_t * h_{t-1}
                        axis=2)
    db = D.sum(axis=0).sum(axis=1)  # (B, 3h)
    dX = None
    if need_dx:  # the encoder feeds data, which needs no gradient
        dX = np.empty((T, M, d))
        np.matmul(Dk, np.swapaxes(W, 1, 2)[:, None],
                  out=dX.reshape(T, B, k, d).transpose(1, 2, 0, 3))
    return dX, dh.reshape(M, h), dW, dU, db


def gru_sequence(x_seq: Tensor, h0: Tensor, w: Tensor, u: Tensor, b: Tensor) -> Tensor:
    """Run B independent GRU cells over a series in one fused op.

    Each cell maps inputs of dim d to hidden dim d1 by
    h_t = z_t * h_{t-1} + (1 - z_t) * c_t with
    z = sigmoid(x W_z + h U_z + b_z), r = sigmoid(x W_r + h U_r + b_r) and
    c = tanh(x W_h + (r * h) U_h + b_h). The gates sit side by side:
    w = W_z|W_r|W_h is (B, d, 3*d1), u = U_z|U_r|U_h is (B, d1, 3*d1) and
    b = b_z|b_r|b_h is (B, 3*d1); B, the number of cells, is read from w.

    Row contract: x_seq is (T, M, d) and h0 (M, d1) with M = B*k rows.
    Row b*k + s is run by cell b, so each cell carries k independent
    sequences (k is read from the shapes). Returns all hidden states
    (T, M, d1), row-aligned with x_seq.
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
    W, U, Bias = w.data, u.data, b.data
    B = W.shape[0] if W.ndim else 0
    if B < 1 or M % B:
        raise ShapeError(f"gru_sequence: {M} input rows are not a multiple of "
                         f"the {B} cells of w")
    for name, arr, want in (("w", W, (B, d, 3 * d1)), ("u", U, (B, d1, 3 * d1)),
                            ("b", Bias, (B, 3 * d1))):
        if arr.shape != want:
            raise ShapeError(f"gru_sequence: {name} shape {arr.shape}, expected {want}")

    P, Hb = _gru_forward(X, H0, W, U, Bias)
    need_dx = x_seq.needs  # a bool: the closure must not keep the tape alive

    def backward(g):
        return _gru_backward(X, W, U, P, Hb, np.ascontiguousarray(g), need_dx)

    return x_seq.tape.record(Hb[1:].reshape(T, M, d1), (x_seq, h0, w, u, b),
                             backward, op="gru_sequence")


# ---------------------------------------------------------------------------
# gated pooling


def gated_pool(gate: Tensor, x_prev: np.ndarray, w: Tensor, b: Tensor,
               prop: np.ndarray, phi: str) -> Tensor:
    """Gate every input, apply each node's first decoder layer, and pool
    over the inputs with the propagation matrix, in one fused op:

        pooled[i, t] = sum_j prop[i, j] * phi(gate[i, t, j] * x_prev[j, t] @ w[i] + b[i])

    gate (N, g, N') is a tensor; x_prev (N', g, d) and prop (N, N') are
    arrays that take no gradient; w is (N, d, h), b (N, 1, h) and phi a key
    of ``ACTIVATIONS``. Returns (N, g, h).

    The gated input and the activation are laid out (i, j, t, .), with w[i]
    broadcast over j, so the first layer is one batched matmul and the
    pooling one (1, N')@(N', g*h) product per node. An overflowed
    pre-activation raises ``NumericError`` even where phi would squash it.
    """
    G, X, W, B = gate.data, x_prev, w.data, b.data
    if G.ndim != 3:
        raise ShapeError(f"gated_pool expects an (N, g, N') gate, got {G.shape}")
    n, g, n_in = G.shape
    if X.ndim != 3 or X.shape[:2] != (n_in, g):
        raise ShapeError(f"gated_pool: x_prev shape {X.shape}, expected ({n_in}, {g}, d)")
    d, h = X.shape[2], W.shape[-1]
    for name, arr, want in (("w", W, (n, d, h)), ("b", B, (n, 1, h)),
                            ("prop", prop, (n, n_in))):
        if arr.shape != want:
            raise ShapeError(f"gated_pool: {name} shape {arr.shape}, expected {want}")
    phi_fn, phi_deriv = ACTIVATIONS[phi]

    Xg = np.empty((n, n_in, g, d))  # Xg[i, j, t] = gate[i, t, j] * x_prev[j, t]
    np.multiply(G.transpose(0, 2, 1)[..., None], X, out=Xg)
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        A = np.matmul(Xg, W[:, None])  # (n, n_in, g, h)
        A += B[:, None]
    _check_finite(A, "gated_pool")
    phi_fn(A, A)
    pooled = np.matmul(prop[:, None, :], A.reshape(n, n_in, g * h)).reshape(n, g, h)
    need_gate = gate.needs  # a bool: the closure must not keep the tape alive

    def backward(gp):
        # D[i, j, t] = phi'(a[i, j, t]) * prop[i, j] * dpooled[i, t]
        D = phi_deriv(A)
        D *= prop[:, :, None, None]
        D *= gp.reshape(n, 1, g, h)
        D_rows = D.reshape(n, n_in * g, h)
        db = np.matmul(np.ones((1, n_in * g)), D_rows)
        # w[i] serves every input j, so its gradient sums over the (j, t) rows
        dw = np.matmul(Xg.reshape(n, n_in * g, d).transpose(0, 2, 1), D_rows)
        dgate = None
        if need_gate:
            dXg = np.matmul(D, np.swapaxes(W, 1, 2)[:, None])  # (n, n_in, g, d)
            dXg *= X
            dgate = dXg.sum(axis=3).transpose(0, 2, 1)
        return dgate, dw, db

    return gate.tape.record(pooled, (gate, w, b), backward, op="gated_pool")


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
