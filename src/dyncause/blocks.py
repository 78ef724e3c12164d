"""Network building blocks: the GRU bank op, the encoder GCN op and the
gated pooling op.

``gru_sequence`` is the one GRU: a numpy op that runs B independent cells
over a whole series in one tape node, with a hand-written backward verified
against finite differences in the test suite. Every GRU parameter is stored
with its gates side by side, W_z|W_r|W_h, the layout the op computes in:
``w`` = [W; b], the bias as the last row, and ``u``. Its row contract: the
series has M = B*k rows and row b*k + s is run by cell b, so one call carries
k independent sequences per cell (k is read from the shapes). Each step
projects its own input, [x_t, 1] @ [W; b], one (k, d+1) GEMM per cell and
gate, then takes one (k, h) matrix product per cell for the fused z|r gates
and one for the candidate. The series and h0 are data: the backward returns
the gradients of the weights alone. The op keeps the gate history of every
step only on a tape that takes gradients; on a ``Tape(grad=False)`` it
reuses one step's buffer.

``gated_pool`` is the decoder's first layer and its NGCN, built the same
way: one tape node that runs one target node i at a time, its (j, t, .)
buffers holding node i's view of input j at transition t. Node i's
activation is one [gate * x, 1] @ [w; b] GEMM, pooled into the output's row
i, which then takes the NGCN weight and tanh, as ``encoder_gcn``'s mix takes
its weight. The backward runs the same loop and rebuilds each node's gated
input and activation by the same expressions, so no (N, N, g, h) buffer
lives on either kind of tape: recomputation in the backward, the
rematerialisation of Chen et al. (arXiv 1604.06174). Both GCN ops end in
tanh, the model's one hidden activation, read with its derivative from
``autodiff.ACTIVATIONS``.

``encoder_gcn`` is the encoder's GCN layer over the GRU states, built the
same way: it mixes ``gru_sequence``'s output straight into the (sample,
step, node) rows the mask generator reads, takes the weight product and
tanh in one buffer, and writes its input gradient back into the GRU's row
layout, so neither direction makes a transposed copy. Both GCN ops run one
kernel on either tape, the weight product written back over the mix or
pooled row it reads, one encoder row or node at a time; the backward
recomputes what it reads of the forward by the forward's own expressions.
The GCN ops never read ``tape.grad``: ``Tape.record`` drops the closure of
a gradient-free tape, and with it all they keep.

``Tape.backward`` runs each closure at most once and then drops it, so the
fused backwards overwrite the internal buffers they read for the last time,
never the op's output, which a caller may hold: the GRU's gate gradients
go over its gate history, ``gated_pool``'s tanh' over a node's rebuilt
activation and ``encoder_gcn``'s mix gradient over the recomputed mix.

Each affine map in the GRU and gated pooling ops is one GEMM, the bias
entering as an input column of ones, and takes its [W; b] array as stored,
with no separate bias. For d=1 this is faster as well as shorter: on large
outputs numpy's matmul at inner dimension 1 is several times slower than at
2-4, and a separate bias add is a second pass over the output.
"""

from __future__ import annotations

import numpy as np

from .autodiff import ACTIVATIONS, ShapeError, Tensor, _check_finite


def uniform_init(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = np.sqrt(1.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


# ---------------------------------------------------------------------------
# GRU


def _gru_forward(X, H0, W, U, history):
    """Forward recurrence for the fused cell weights W = [W; b] (B, d+1, 3h)
    and U (B, h, 3h).

    Each step first copies x_t into a (B, k, d+1) buffer whose last column
    holds ones, and projects it, [x_t, 1] @ W, into the gate-major step
    buffer (3, B, k, h) with one (k, d+1)@(d+1, h) product per cell and
    gate. That input buffer holds one step, so the series is never copied
    whole. It then turns the buffer into the gates z, r and the candidate c in place,
    with one (k, h)@(h, 2h) product per cell for both gates and one
    (k, h)@(h, h) for the candidate. With ``history`` set, step t uses P[t]
    of P (T, 3, B, k, h), the gate history the backward reads; without it,
    P is one step long and every step reuses P[0]. Returns P and the states
    Hb (T+1, B, k, h) with Hb[0] = h0 and Hb[t+1] = h_t.
    """
    T, M, d = X.shape
    B, h = U.shape[0], H0.shape[1]
    k = M // B
    Uzr, Uh = U[..., :2 * h], U[..., 2 * h:]
    Wb = W.reshape(B, d + 1, 3, h).transpose(2, 0, 1, 3)  # (3, B, d+1, h) view
    x_rows = X.reshape(T, B, k, d)
    xa = np.ones((B, k, d + 1))  # [x_t, 1]: the step's input is copied into [..., :d]
    P = np.empty((T if history else 1, 3, B, k, h))
    Hb = np.empty((T + 1, B, k, h))
    Hb[0] = H0.reshape(B, k, h)
    hu = np.empty((B, k, 2 * h))
    hu_zr = hu.reshape(B, k, 2, h).transpose(2, 0, 1, 3)  # (2, B, k, h) view
    hc = np.empty((B, k, h))
    tmp = np.empty((B, k, h))
    with np.errstate(over="ignore"):  # exp(-x) overflows to inf: sigmoid -> 0
        for t in range(T):
            p = P[t if history else 0]
            xa[..., :d] = x_rows[t]
            np.matmul(xa, Wb, out=p)
            h_prev, h_t, zr, z, r, c = Hb[t], Hb[t + 1], p[:2], p[0], p[1], p[2]
            np.matmul(h_prev, Uzr, out=hu)
            zr += hu_zr
            ACTIVATIONS["sigmoid"][0](zr, zr)
            np.multiply(r, h_prev, out=tmp)
            c += np.matmul(tmp, Uh, out=hc)
            np.tanh(c, out=c)
            # h_t = z * h_prev + (1 - z) * c
            np.subtract(1.0, z, out=tmp)
            tmp *= c
            np.multiply(z, h_prev, out=h_t)
            h_t += tmp
    return P, Hb


def _gru_backward(X, U, P, Hb, G):
    """Gradients dW and dU of the cell weights for upstream G (T, B*k, h).

    Each step writes d_az|d_ar|d_ac into D (T, B, k, 3h) and takes one
    (k, 2h)@(2h, h) product per cell for both gates. D is the gate history
    P's memory read in D's layout: step t reads only P[t], so it copies P[t]
    into a one-step buffer and then writes D[t] over it. P must not be read
    again. Each step also keeps r_t * h_{t-1}, which dU_h reads, in one
    (T, B, k, h) buffer. After the loop each weight gradient is one GEMM
    over T per (cell, row), every operand read in place as a (T, .) matrix,
    summed over the cell's k rows; dW's bias row is D summed over steps and
    rows.
    """
    T, M, d = X.shape
    B, h = U.shape[0], Hb.shape[-1]
    k, h2 = M // B, 2 * h
    G = G.reshape(T, B, k, h)
    UzrT = np.swapaxes(U[..., :h2], 1, 2)  # (B, 2h, h)
    UhT = np.swapaxes(U[..., h2:], 1, 2)
    D = P.reshape(T, B, k, 3 * h)  # d_az | d_ar | d_ac, over P
    D_zr, D_c = D[..., :h2], D[..., h2:]
    D_g = D.reshape(T, B, k, 3, h).transpose(0, 3, 1, 2, 4)  # (T, 3, B, k, h) view
    p = np.empty((3, B, k, h))  # z, r, c of the step
    zr, z, r, c = p[:2], p[0], p[1], p[2]
    RH = np.empty((T, B, k, h))  # r_t * h_{t-1}
    omzr = np.empty((2, B, k, h))  # 1 - z, 1 - r
    fzr = np.empty((2, B, k, h))  # z(1 - z), r(1 - r)
    dzr = np.empty((2, B, k, h))  # dL/dz, dL/dr
    dh = np.zeros((B, k, h))
    gt = np.empty((B, k, h))
    d_rh = np.empty((B, k, h))
    tmp = np.empty((B, k, h))
    tmp2 = np.empty((B, k, h))
    for t in range(T - 1, -1, -1):
        h_prev = Hb[t]
        p[...] = P[t]  # before D[t] overwrites it
        np.multiply(r, h_prev, out=RH[t])
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

    dW = np.empty((B, d + 1, 3 * h))
    dW[:, :d] = weight_grad(X.reshape(T, B, k, d), Dk)
    dW[:, d] = D.sum(axis=0).sum(axis=1)  # the bias row
    dU = np.concatenate((weight_grad(Hb[:-1], Dk[..., :h2]),
                         weight_grad(RH, Dk[..., h2:])),
                        axis=2)
    return dW, dU


def gru_sequence(x_seq: Tensor, h0: Tensor, w: Tensor, u: Tensor) -> Tensor:
    """Run B independent GRU cells over a series in one fused op.

    Each cell maps inputs of dim d to hidden dim d1 by
    h_t = z_t * h_{t-1} + (1 - z_t) * c_t with
    z = sigmoid(x W_z + h U_z + b_z), r = sigmoid(x W_r + h U_r + b_r) and
    c = tanh(x W_h + (r * h) U_h + b_h). The gates sit side by side:
    w = [W_z|W_r|W_h; b_z|b_r|b_h] is (B, d+1, 3*d1), the bias its last row,
    and u = U_z|U_r|U_h is (B, d1, 3*d1); B, the number of cells, is read from w.

    Row contract: x_seq is (T, M, d) and h0 (M, d1) with M = B*k rows.
    Row b*k + s is run by cell b, so each cell carries k independent
    sequences (k is read from the shapes). Returns all hidden states
    (T, M, d1), row-aligned with x_seq. x_seq and h0 are data: they take
    no gradient.
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
    W, U = w.data, u.data
    B = W.shape[0] if W.ndim else 0
    if B < 1 or M % B:
        raise ShapeError(f"gru_sequence: {M} input rows are not a multiple of "
                         f"the {B} cells of w")
    for name, arr, want in (("w", W, (B, d + 1, 3 * d1)), ("u", U, (B, d1, 3 * d1))):
        if arr.shape != want:
            raise ShapeError(f"gru_sequence: {name} shape {arr.shape}, expected {want}")

    # without a gradient P holds one step, and record drops the backward
    # that would read it
    P, Hb = _gru_forward(X, H0, W, U, history=x_seq.tape.grad)

    def backward(g):  # run at most once: it writes its gate gradients over P
        return (None, None, *_gru_backward(X, U, P, Hb, np.ascontiguousarray(g)))

    return x_seq.tape.record(Hb[1:].reshape(T, M, d1), (x_seq, h0, w, u),
                             backward, op="gru_sequence")


# ---------------------------------------------------------------------------
# gated pooling


def gated_pool(gate: Tensor, x_prev: np.ndarray, w: Tensor, v: Tensor,
               prop: np.ndarray) -> Tensor:
    """Gate every input, apply each node's first decoder layer, pool over
    the inputs with the propagation matrix and apply the NGCN weight:

        pooled[i, t] = sum_j prop[i, j] * tanh([gate[i, t, j] * x_prev[j, t], 1] @ w[i])
        out[i, t] = tanh(pooled[i, t] @ v[i])

    gate (N, g, N') is a tensor; x_prev (N', g, d) and prop (N, N') are
    arrays that take no gradient; w = [W; b] is (N, d+1, h), the bias its
    last row, and v (N, h, h) the NGCN weight. Returns (N, g, h).

    The op runs one target node i at a time, in one (N', g, d+1) buffer for
    its gated input [gate * x_prev, 1] and one (N', g, h) buffer for its
    activation, both laid out (j, t, .): the first layer, bias included, is
    one (N'*g, d+1)@(d+1, h) product with w[i], the pooling one
    (1, N')@(N', g*h) product with prop[i] into the output's row i, and the
    NGCN product goes through one row-sized buffer back over that row. An
    overflowed pre-activation of either layer raises ``NumericError`` even
    where tanh would squash it. The backward runs the same loop and rebuilds
    node i's gated input, activation and pooled row by the forward's own
    expressions, so no (N, N', g, .) buffer lives on either kind of tape,
    and the closure keeps only the operands and the output.
    """
    G, X, W, V = gate.data, x_prev, w.data, v.data
    if G.ndim != 3:
        raise ShapeError(f"gated_pool expects an (N, g, N') gate, got {G.shape}")
    n, g, n_in = G.shape
    if X.ndim != 3 or X.shape[:2] != (n_in, g):
        raise ShapeError(f"gated_pool: x_prev shape {X.shape}, expected ({n_in}, {g}, d)")
    d, h = X.shape[2], W.shape[-1]
    for name, arr, want in (("w", W, (n, d + 1, h)), ("v", V, (n, h, h)),
                            ("prop", prop, (n, n_in))):
        if arr.shape != want:
            raise ShapeError(f"gated_pool: {name} shape {arr.shape}, expected {want}")
    tanh, tanh_deriv = ACTIVATIONS["tanh"]
    gate_in = G.transpose(0, 2, 1)[..., None]  # (N, N', g, 1) view: [i, j, t] = gate[i, t, j]

    def node_buffers():
        # xg[j, t] = [gate[i, t, j] * x_prev[j, t], 1] and the activation a[j, t], for one node i
        xg = np.empty((n_in, g, d + 1))
        xg[..., d] = 1.0
        return xg, np.empty((n_in, g, h))

    def first_layer(i, xg, a):  # node i's gated input and pre-activation, for both passes
        np.multiply(gate_in[i], X, out=xg[..., :d])
        np.matmul(xg.reshape(n_in * g, d + 1), W[i], out=a.reshape(n_in * g, h))

    def pool(i, a, pooled):  # (1, N')@(N', g*h): node i's pooled row into pooled (g, h)
        np.matmul(prop[i:i + 1], a.reshape(n_in, g * h), out=pooled.reshape(1, g * h))

    xg, a = node_buffers()
    out, row = np.empty((n, g, h)), np.empty((g, h))
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, or by record
        for i in range(n):
            first_layer(i, xg, a)
            _check_finite(a, "gated_pool")
            tanh(a, a)
            pool(i, a, out[i])
            np.matmul(out[i], V[i], out=row)  # the NGCN product, back over the pooled row
            out[i] = row

    def backward(go):
        dgate = np.empty((n, n_in, g))  # returned as its (N, g, N') view
        dw, dv = np.empty((n, d + 1, h)), np.empty((n, h, h))
        xg, a = node_buffers()
        dy, pooled, gp = np.empty((g, h)), np.empty((g, h)), np.empty((g, h))
        dxg = np.empty((n_in, g, d))
        ones = np.ones((1, n_in * g))
        for i in range(n):
            # tanh' into its own buffer, not over out: a caller may hold the op's output
            tanh_deriv(out[i], dy)
            dy *= go[i]
            first_layer(i, xg, a)
            tanh(a, a)
            pool(i, a, pooled)
            np.matmul(pooled.T, dy, out=dv[i])
            np.matmul(dy, V[i].T, out=gp)
            # D[j, t] = tanh'(a[j, t]) * prop[i, j] * dpooled[t], written over the activation
            D = tanh_deriv(a, a)
            D *= prop[i][:, None, None]
            D *= gp
            D_rows = D.reshape(n_in * g, h)
            # w[i] serves every input j: its gradient sums over the (j, t) rows, W and b apart
            np.matmul(xg.reshape(n_in * g, d + 1)[:, :d].T, D_rows, out=dw[i, :d])
            np.matmul(ones, D_rows, out=dw[i, d:])
            np.matmul(D, W[i, :d].T, out=dxg)
            dxg *= X
            np.sum(dxg, axis=2, out=dgate[i])
        return dgate.transpose(0, 2, 1), dw, dv

    # record scans the NGCN pre-activation, which an overflow of the pooled
    # output reaches too; tanh then runs in place on the recorded buffer
    node = gate.tape.record(out, (gate, w, v), backward, op="gated_pool")
    tanh(out, out)
    return node


# ---------------------------------------------------------------------------
# encoder GCN


def encoder_gcn(hs: Tensor, w: Tensor, prop: np.ndarray) -> Tensor:
    """The encoder's GCN over the GRU bank's states, in one fused op:

        out[e, (s*T' + t)*N + i] = tanh(sum_j prop[i, j] * hs[t, (e*N + j)*S + s] @ w[e])

    hs (T', n_e*N*S, h) is ``gru_sequence``'s output for n_e encoder rows of
    N cells, each running S samples; w (n_e, h, h) is a tensor and prop
    (N, N) an array that takes no gradient. n_e is read from w, N from prop
    and S from the rows of hs. Returns (n_e, S*T', N*h): one row per
    (sample, step), the N nodes' outputs side by side, the layout the mask
    generator reads.

    The mix is one (N, N)@(N, h) product per (step, row, sample), written
    straight into that (n_e, S, T', N, h) layout, so no transposed copy is
    made; the weight product is one (S*T'*N, h)@(h, h) GEMM per encoder
    row, through one row-sized buffer back over the mix, so the op's output
    is the mix's memory (w is square so that the product fits there), and
    tanh is applied to it in place. An overflowed pre-activation raises
    ``NumericError`` even where tanh would squash it. The backward, also one
    encoder row at a time, recomputes the row's mix from ``hs``, writes its
    gradient over it and d``hs`` straight into ``gru_sequence``'s layout.
    """
    H, W = hs.data, w.data
    if W.ndim != 3 or W.shape[1] != W.shape[2]:
        raise ShapeError(f"encoder_gcn: w shape {W.shape}, expected (n_e, h, h)")
    n_e, h = W.shape[:2]
    if prop.ndim != 2 or prop.shape[0] != prop.shape[1]:
        raise ShapeError(f"encoder_gcn: prop shape {prop.shape}, expected (N, N)")
    n = prop.shape[0]
    cells = n_e * n
    if H.ndim != 3 or H.shape[2] != h or H.shape[1] < cells or H.shape[1] % cells:
        raise ShapeError(f"encoder_gcn: hs shape {H.shape}, expected (T', {n_e}*{n}*S, {h})")
    tt, rows = H.shape[:2]
    s_count = rows // cells
    tanh, tanh_deriv = ACTIVATIONS["tanh"]

    def by_step(a):  # (T', n_e, S, N, h) view of the hs rows: row (e*N + j)*S + s
        return a.reshape(tt, n_e, n, s_count, h).transpose(0, 1, 3, 2, 4)

    A, row = np.empty((n_e, s_count * tt * n, h)), np.empty((s_count * tt * n, h))
    np.matmul(prop, by_step(H), out=A.reshape(n_e, s_count, tt, n, h).transpose(2, 0, 1, 3, 4))
    with np.errstate(over="ignore", invalid="ignore"):  # record reports it
        for e in range(n_e):
            np.matmul(A[e], W[e], out=row)
            A[e] = row

    def backward(g):
        # per encoder row: D takes tanh' * g (not over A, the op's output, which a caller
        # may hold), Z the mix, recomputed as the forward computes it, then its gradient
        g = g.reshape(A.shape)
        dw, dhs = np.empty_like(W), np.empty((tt, rows, h))
        D, Z = np.empty(A.shape[1:]), np.empty(A.shape[1:])
        Z_steps = Z.reshape(s_count, tt, n, h).transpose(1, 0, 2, 3)  # (T', S, N, h) view
        for e in range(n_e):
            tanh_deriv(A[e], D)
            D *= g[e]
            np.matmul(prop, by_step(H)[:, e], out=Z_steps)
            np.matmul(Z.T, D, out=dw[e])
            np.matmul(D, W[e].T, out=Z)
            np.matmul(prop.T, Z_steps, out=by_step(dhs)[:, e])
        return dhs, dw

    # record scans A before tanh, where an overflow still shows (tanh would
    # squash it), and wraps it without a copy; tanh then runs in place on the
    # recorded buffer, so the output is scanned once. A is contiguous: the
    # view is free
    out = hs.tape.record(A.reshape(n_e, s_count * tt, n * h), (hs, w), backward,
                         op="encoder_gcn")
    tanh(A, A)
    return out
