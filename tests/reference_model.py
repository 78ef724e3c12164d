"""Plain-numpy oracles for ``dyncause.model.batched_forward`` and
``dyncause.training.criterion``.

``reference_forward`` is a direct transcription of the model, one (sample,
node, transition, input) at a time, with its fixed choices written here as
literals: tanh for every hidden layer and a GCN self loop of weight 1. It
reads only the ``ParamStack`` arrays and owes nothing else to ``dyncause``:
no tape, no ``gru_sequence``, no activation table and no propagation-matrix
helper, so a fault in any of them shows up as a mismatch with this file.
``reference_loss`` transcribes the four loss terms one node at a time, in
that function's layout, reading only the ``LossWeights`` fields.
"""

import numpy as np


def _sigmoid(a):
    return 1.0 / (1.0 + np.exp(-a))


def affine(x, wb):
    """x @ W + b for a [W; b] parameter: every bias is the last row of its weight."""
    return x @ wb[:-1] + wb[-1]


def gru_step(wb, u, x, h_prev):
    """One GRU update of a cell whose gates sit side by side: wb = [W_z|W_r|W_h;
    b_z|b_r|b_h] (d+1, 3h) and u = U_z|U_r|U_h (h, 3h)."""
    h = u.shape[0]
    a = affine(x, wb)
    u_z, u_r, u_c = u[:, :h], u[:, h:2 * h], u[:, 2 * h:]
    z = _sigmoid(a[:h] + h_prev @ u_z)
    r = _sigmoid(a[h:2 * h] + h_prev @ u_r)
    c = np.tanh(a[2 * h:] + (r * h_prev) @ u_c)
    return z * h_prev + (1.0 - z) * c


def complete_graph_propagation(n):
    """D^-1/2 (A + I) D^-1/2 for the all-ones adjacency A."""
    a = np.ones((n, n)) + np.eye(n)
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
    prop = complete_graph_propagation(n)
    masks = np.empty((s_count, t_len - 1, n, n))
    preds = np.empty((s_count, t_len - 1, n, d))
    for s in range(s_count):
        for i in range(n):
            owner = 0 if stack.enc_w.shape[0] == 1 else i  # a shared encoder has one row
            hidden = np.zeros((n, h))
            for t in range(t_len - 1):
                for j in range(n):
                    cell = owner * n + j
                    hidden[j] = gru_step(stack.gru_w[cell], stack.gru_u[cell], x[s, j, t],
                                         hidden[j])
                z = np.tanh(prop @ hidden @ stack.enc_w[owner])
                a1 = np.tanh(affine(z.reshape(-1), stack.mmg_w1[i]))
                m = _sigmoid(affine(a1, stack.mmg_w2[i]))
                masks[s, t, i] = m
                if override is not None:
                    m = override if override.ndim == 1 else override[i]
                pooled = np.zeros(h)
                for j in range(n):
                    r_j = np.tanh(affine(m[j] * x[s, j, t], stack.rl_w[i]))
                    pooled += prop[i, j] * r_j
                z_dec = np.tanh(pooled @ stack.ngcn_w[i])
                t1 = np.tanh(affine(z_dec, stack.tip_w1[i]))
                preds[s, t, i] = affine(t1, stack.tip_w2[i])
    return masks, preds


def reference_loss(masks, preds, x, weights):
    """The four-term loss of every node, as a dict of (N,) arrays: "recon",
    "struct", "div" and "sparsity", each unweighted and present whatever its
    beta, and their weighted sum "total".

    ``masks`` (S, T-1, N, N) and ``preds`` (S, T-1, N, d) are in
    ``reference_forward``'s layout, ``x`` the (S, N, T, d) series and
    ``weights`` a ``LossWeights``. Node i's terms are means over every
    (sample, transition) and, where a term has one, input j. The structure
    kernel is exp(-||a - b||^2), with no scale, and the log-sum scale is eps.
    """
    gate_lo, gate_hi, eps = 1e-7, 1.0 - 1e-7, 0.01
    s_count, t1, n, _ = masks.shape
    truth = np.transpose(x[:, :, 1:], (0, 2, 1, 3))  # (S, T-1, N, d), as preds
    rows = {"recon": [], "struct": [], "div": [], "sparsity": []}
    for i in range(n):
        rows["recon"].append(((truth[:, :, i] - preds[:, :, i]) ** 2).sum(axis=-1).mean())
        kernel = np.exp(-((truth - truth[:, :, i:i + 1]) ** 2).sum(axis=-1))
        fitted = np.exp(-((truth - preds[:, :, i:i + 1]) ** 2).sum(axis=-1))
        rows["struct"].append(((kernel - fitted) ** 2).mean())
        m_bar = masks[:, :, i].mean(axis=(0, 1))  # (N,)
        log_m = np.log(np.clip(m_bar, gate_lo, gate_hi))
        div = weights.lambda1 * -(m_bar * log_m).mean()
        if weights.prior is not None:
            p = weights.prior[i]
            log_q = np.log(np.clip((m_bar + p) / 2.0, gate_lo, 1.0))
            div += weights.lambda2 * (m_bar * (log_m - np.log(p))).mean()
            div += weights.lambda3 * 0.5 * (m_bar * (log_m - log_q)
                                            + p * (np.log(p) - log_q)).mean()
        rows["div"].append(div)
        rows["sparsity"].append(np.log(masks[:, :, i] / eps + 1.0).mean())
    terms = {key: np.array(value) for key, value in rows.items()}
    terms["total"] = (terms["recon"] + weights.beta1 * terms["struct"]
                      + weights.beta2 * terms["div"] + weights.beta3 * terms["sparsity"])
    return terms
