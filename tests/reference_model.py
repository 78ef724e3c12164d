"""Plain-numpy oracle for ``dyncause.model.batched_forward``.

A direct transcription of the model, one (sample, node, transition, input)
at a time. It reads only the ``ParamStack`` arrays and its ``config``, and
owes nothing else to ``dyncause``: no tape, no ``gru_sequence``, no
activation table and no propagation-matrix helper, so a fault in any of them
shows up as a mismatch with this file.
"""

import numpy as np


def _sigmoid(a):
    return 1.0 / (1.0 + np.exp(-a))


ACT = {"tanh": np.tanh, "sigmoid": _sigmoid, "relu": lambda a: np.maximum(a, 0.0),
       "identity": lambda a: a}


def gru_step(w, u, b, x, h_prev):
    """One GRU update of a cell whose gates sit side by side: w = W_z|W_r|W_h
    (d, 3h), u = U_z|U_r|U_h (h, 3h) and b = b_z|b_r|b_h (3h,)."""
    h = u.shape[0]
    w_z, w_r, w_c = w[:, :h], w[:, h:2 * h], w[:, 2 * h:]
    u_z, u_r, u_c = u[:, :h], u[:, h:2 * h], u[:, 2 * h:]
    b_z, b_r, b_c = b[:h], b[h:2 * h], b[2 * h:]
    z = _sigmoid(x @ w_z + h_prev @ u_z + b_z)
    r = _sigmoid(x @ w_r + h_prev @ u_r + b_r)
    c = np.tanh(x @ w_c + (r * h_prev) @ u_c + b_c)
    return z * h_prev + (1.0 - z) * c


def complete_graph_propagation(n, self_loop):
    """D^-1/2 (A + lam I) D^-1/2 for the all-ones adjacency A."""
    a = np.ones((n, n)) + self_loop * np.eye(n)
    deg = a.sum(axis=1)
    return a / np.sqrt(np.outer(deg, deg))


def reference_forward(stack, x, mask_override=None):
    """(S, T-1, N, N) masks and (S, T-1, N, d) predictions of every node.

    Transition t reads x^0..x^t: node i's GRU bank runs input j's series up
    to step t, the GCN mixes the N hidden states, and the MMG turns them into
    the gate row m_i. The decoder gates x^t with that row, or with
    ``mask_override`` (an (N,) row or an (N, N) matrix indexed [i, j]), and
    predicts x_i^{t+1}.
    """
    x = np.asarray(x, dtype=np.float64)
    override = None if mask_override is None else np.asarray(mask_override, dtype=np.float64)
    s_count, n, t_len, d = x.shape
    h = stack.rl_w.shape[2]
    act = ACT[stack.config.phi]
    prop = complete_graph_propagation(n, stack.config.self_loop)
    masks = np.empty((s_count, t_len - 1, n, n))
    preds = np.empty((s_count, t_len - 1, n, d))
    for s in range(s_count):
        for i in range(n):
            owner = 0 if stack.enc_w.shape[0] == 1 else i  # a shared encoder has one row
            hidden = np.zeros((n, h))
            for t in range(t_len - 1):
                for j in range(n):
                    cell = owner * n + j
                    w_b = stack.gru_w[cell]  # [W; b]: the bias is the last row
                    hidden[j] = gru_step(w_b[:-1], stack.gru_u[cell], w_b[-1],
                                         x[s, j, t], hidden[j])
                z = act(prop @ hidden @ stack.enc_w[owner])
                a1 = act(z.reshape(-1) @ stack.mmg_w1[i] + stack.mmg_b1[i, 0])
                m = _sigmoid(a1 @ stack.mmg_w2[i] + stack.mmg_b2[i, 0])
                masks[s, t, i] = m
                if override is not None:
                    m = override if override.ndim == 1 else override[i]
                pooled = np.zeros(h)
                w, b = stack.rl_w[i, :-1], stack.rl_w[i, -1]  # [W; b]: the bias is the last row
                for j in range(n):
                    r_j = act((m[j] * x[s, j, t]) @ w + b)
                    pooled += prop[i, j] * r_j
                z_dec = act(pooled @ stack.ngcn_w[i])
                t1 = act(z_dec @ stack.tip_w1[i] + stack.tip_b1[i, 0])
                preds[s, t, i] = t1 @ stack.tip_w2[i] + stack.tip_b2[i, 0]
    return masks, preds
