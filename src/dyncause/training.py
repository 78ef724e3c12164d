"""Learning criteria and optimization: reconstruction + structure kernel +
divergence + log-sum sparsity, trained per node with Adam.

Every node model trains independently (disjoint parameters, per-node loss).
``train`` runs all N nodes through one ``batched_forward`` tape per chunk of
samples. ``criterion`` puts the four-term loss of every node on that tape as
one node with a closed-form backward. Like the forward, it reads the
chunk's series, and it builds the true next values and their structure
kernel on every call, so a fit keeps no copy of the data beside it. Its
root is the sum of the per-node losses, so gradients and Adam steps equal
those of training each node alone. The tape leaves are the ``ParamStack``
arrays, and Adam updates them in place. Input is always standardized per
channel. The structure kernel has no scale and the log-sum scale is
``SPARSITY_EPS``; ``LossWeights`` holds only the weights a fit chooses.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields, replace
from itertools import product

import numpy as np

from .autodiff import NumericError, ShapeError, Tape, Tensor
from .model import (GATE_HI, GATE_LO, CausalMaskSeries, ModelConfig, ParamStack,
                    Prediction, batched_forward, build_node_models, check_series,
                    forward_full, node_rows, output_series, rows_to_series, series_shape)
from .simulate import check_count, check_real, standardize, standardize_like


class TrainingError(RuntimeError):
    """Training aborted (non-finite loss or invalid configuration)."""


@dataclass
class LossWeights:
    """Coefficients of the four-term criterion and the divergence mixture,
    whose entropy weight ``lambda1`` is what KL's and JS's leave of 1."""

    beta1: float = 0.01  # structure
    beta2: float = 0.35  # divergence
    beta3: float = 0.35  # sparsity
    lambda2: float = 0.0  # KL vs prior
    lambda3: float = 0.0  # JS vs prior
    prior: np.ndarray | None = None  # (N, N) entries in (0, 1)

    def __post_init__(self):
        for name in ("beta1", "beta2", "beta3", "lambda2", "lambda3"):
            check_real(name, getattr(self, name))
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.lambda2 + self.lambda3 > 1.0:
            raise ValueError(f"lambda2 {self.lambda2} and lambda3 {self.lambda3} sum to "
                             f"{self.lambda2 + self.lambda3} > 1: nothing is left for "
                             f"lambda1 = 1 - lambda2 - lambda3")
        if self.prior is None:
            if self.lambda2 > 0 or self.lambda3 > 0:
                raise ValueError("KL/JS divergence terms need a prior matrix")
            return
        p = np.array(self.prior, dtype=np.float64)  # a copy: the caller keeps theirs
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError(f"prior must be a square (N, N) matrix, got shape {p.shape}")
        if not (np.all(p > 0.0) and np.all(p < 1.0)):  # NaN fails both
            raise ValueError("prior entries must be finite and lie strictly inside (0, 1)")
        self.prior = p

    @property
    def lambda1(self) -> float:
        # the sum is checked above: a negative value here is a rounding error
        # (1 - 0.9 - 0.1 is -2.8e-17, though 0.9 + 0.1 is 1)
        return max(0.0, 1.0 - self.lambda2 - self.lambda3)

    @classmethod
    def with_uniform_prior(cls, n: int, prior_value: float = 0.2, **kw) -> "LossWeights":
        # lambda1 comes out at exactly 1/3
        kw.setdefault("lambda2", 1.0 / 3.0)
        kw.setdefault("lambda3", 1.0 - 1.0 / 3.0 - 1.0 / 3.0)
        return cls(prior=np.full((n, n), prior_value), **kw)


@dataclass
class TrainConfig:
    """Settings of ``train``, which always standardizes its input and steps
    with Adam at ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``."""

    learning_rate: float = 1e-3
    epochs: int = 1000
    hidden: int = 15
    seed: int = 0
    batch_mode: str = "full"  # or "sample_minibatch"
    minibatch_size: int = 1
    early_stop_tol: float = 1e-6
    early_stop_patience: int = 50
    threads: int = 1  # the only accepted value
    share_encoder: bool = False

    def __post_init__(self):
        for name in ("learning_rate", "early_stop_tol"):
            check_real(name, getattr(self, name))
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.early_stop_tol < 0:
            raise ValueError(f"early_stop_tol must be nonnegative, got {self.early_stop_tol}")
        for name in ("epochs", "minibatch_size", "early_stop_patience"):
            check_count(name, getattr(self, name), 1)
        check_count("seed", self.seed, 0)
        self.model_config()  # validates hidden and share_encoder
        check_count("threads", self.threads, 1)
        if self.threads != 1:
            raise ValueError(f"threads must be 1, got {self.threads}")
        if self.batch_mode not in ("full", "sample_minibatch"):
            raise ValueError(f"unknown batch mode {self.batch_mode!r}")

    def model_config(self) -> ModelConfig:
        return ModelConfig(hidden=self.hidden, share_encoder=self.share_encoder)


# ---------------------------------------------------------------------------
# criterion

LOSS_TERMS = ("recon", "struct", "div", "sparsity")
SPARSITY_EPS = 0.01  # the log-sum scale of Candes, Wakin and Boyd (2008)


def _kernel(x_target: np.ndarray, centres: np.ndarray) -> tuple:
    """The structure kernel (delta, tau) of ``centres`` (N, G, d) against ``x_target``
    (1, G, N, d): delta[i, t, j] = x_j^t - centres[i, t], tau = exp(-||delta||^2)."""
    delta = x_target - centres[:, :, None, :]
    tau = (delta * delta).sum(axis=3)
    np.negative(tau, out=tau)
    return delta, np.exp(tau, out=tau)


def _divergence(m_bar: np.ndarray, weights: LossWeights) -> tuple:
    """The lambda-weighted entropy, KL and JS of the time-averaged gate rows
    ``m_bar`` (N, N), the last two against the prior's rows and computed
    whenever a prior is given. Returns each node's value, a mean over its N
    inputs, and the derivative in m_bar of each input's summand, which the
    caller scales by the mean's 1/N. The logs read m_bar clipped into
    [GATE_LO, GATE_HI], and the JS midpoint clipped into [GATE_LO, 1];
    where a clip engages, its log has no gradient."""
    clipped = np.clip(m_bar, GATE_LO, GATE_HI)
    log_m = np.log(clipped)
    dlog_m = ((m_bar >= GATE_LO) & (m_bar <= GATE_HI)) / clipped
    value = -(m_bar * log_m).mean(axis=1) * weights.lambda1
    grad = -(log_m + m_bar * dlog_m) * weights.lambda1
    if weights.prior is None:
        return value, grad
    p = weights.prior
    log_p = np.log(p)
    q = (m_bar + p) * 0.5
    q_clipped = np.clip(q, GATE_LO, 1.0)
    log_q = np.log(q_clipped)
    dlog_q = ((q >= GATE_LO) & (q <= 1.0)) / q_clipped * 0.5
    kl = (m_bar * (log_m - log_p)).mean(axis=1)
    js = (m_bar * (log_m - log_q) + p * (log_p - log_q)).mean(axis=1) * 0.5
    value = value + kl * weights.lambda2 + js * weights.lambda3
    grad = (grad + (log_m - log_p + m_bar * dlog_m) * weights.lambda2
            + (log_m - log_q + m_bar * dlog_m - (m_bar + p) * dlog_q) * 0.5 * weights.lambda3)
    return value, grad


@np.errstate(over="ignore", invalid="ignore")  # an overflow is named below, by node and term
def criterion(masks: Tensor, x_hat: Tensor, x: np.ndarray, weights: LossWeights) -> tuple:
    """The four-term loss of every node of the batch, as one tape node.

    ``masks`` (N, G, N) and ``x_hat`` (N, G, d) are the forward's gate rows
    and predictions over the G = S*(T-1) transitions of ``x``, the chunk's
    standardized (S, N, T, d) series: the forward's input, from which the
    truths are read. An operand of any other shape raises ``ShapeError``
    naming both shapes. Returns the scalar root, the sum over nodes of
    recon + beta1*struct + beta2*div + beta3*sparsity, and a dict of
    per-node arrays: each of ``LOSS_TERMS``, unweighted and computed on
    every call, a zero beta included, and their weighted sum "total". A
    beta only scales its term and that term's gradient.

    - recon: (1/G) sum_t ||x_i^t - xhat_i^t||^2;
    - struct: mean over (t, j) of (tau_true - tau)^2, where
      tau = exp(-||x_j^t - xhat_i^t||^2) is the predicted kernel row and
      tau_true the same kernel at the true x_i^t;
    - div: ``_divergence`` of the time-averaged gate rows;
    - sparsity: mean over (t, j) of log(m/SPARSITY_EPS + 1); gates are
      positive.

    The closed-form gradients in ``masks`` and ``x_hat`` are formed here;
    the backward scales them by the root's gradient. A non-finite term
    raises ``NumericError`` naming the first node and term that hold one.
    """
    s, n, t, d = x.shape
    g = s * (t - 1)
    for name, op, want in (("masks", masks, (n, g, n)), ("x_hat", x_hat, (n, g, d))):
        if op.shape != want:
            raise ShapeError(f"{name} shape {op.shape} != {want} for a series of "
                             f"shape {x.shape}")
    m, xh = masks.data, x_hat.data
    x_next = np.ascontiguousarray(node_rows(x[:, :, 1:]))
    x_target = np.ascontiguousarray(rows_to_series(x_next, s).reshape(1, g, n, d))
    # the truth kernel first, so that its (N, G, N, d) delta is freed before
    # the prediction's is made
    gap = _kernel(x_target, x_next)[1]
    # every gradient is formed here, in a buffer the loss has read for the
    # last time, so the closure holds only dm and dx. Kept for the backward,
    # the forward's buffers read about 3% more peak RSS on var10-node, and
    # fresh gradient arrays about 4%
    diff = xh - x_next
    recon = (diff * diff).sum(axis=2).mean(axis=1)
    dx = np.multiply(diff, 2.0 / g, out=diff)
    delta, tau = _kernel(x_target, xh)
    gap -= tau
    struct = (gap * gap).mean(axis=(1, 2))
    gap *= tau
    delta *= gap[..., None]
    dx -= delta.sum(axis=2) * (4.0 * weights.beta1 / (g * n))
    dm = m * (1.0 / SPARSITY_EPS)
    dm += 1.0
    sparsity = np.log(dm).mean(axis=(1, 2))
    np.divide(weights.beta3 / (g * n * SPARSITY_EPS), dm, out=dm)
    div, dbar = _divergence(m.mean(axis=1), weights)
    dm += dbar[:, None, :] * (weights.beta2 / (g * n))
    total = recon + struct * weights.beta1 + div * weights.beta2 + sparsity * weights.beta3
    terms = dict(zip(LOSS_TERMS, (recon, struct, div, sparsity)), total=total)
    bad = np.flatnonzero(~np.isfinite(total))
    if bad.size:  # a term, or their weighted sum, overflowed
        i = int(bad[0])
        term = next(k for k in terms if not np.isfinite(terms[k][i]))
        raise NumericError(f"non-finite loss term '{term}' at node {i}")

    def backward(grad):
        # runs once: the gradients may be scaled in place
        return np.multiply(dm, grad, out=dm), np.multiply(dx, grad, out=dx)

    return masks.tape.record(total.sum(), (masks, x_hat), backward, op="criterion"), terms


# ---------------------------------------------------------------------------
# Adam

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma and Ba's defaults


@dataclass
class AdamState:
    m: dict  # param name -> first moment; train() makes both, zero, before its first forward
    v: dict  # param name -> second moment
    step: int = 0


def adam_step(state: AdamState, params: dict, grads: dict, config: TrainConfig,
              write_mask: dict | None = None) -> dict:
    """One bias-corrected Adam update at ``ADAM_BETA1``, ``ADAM_BETA2`` and
    ``ADAM_EPS`` with ``config.learning_rate``, in place on the params and
    their moments.

    ``write_mask`` (name -> bool rows) freezes rows whose nodes have
    converged: their moments and values stay exactly as they were.
    """
    state.step += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    for name, p in params.items():
        g = grads[name]
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} != param shape {p.shape} for {name}")
        rows = slice(None) if write_mask is None else write_mask[name]
        m = state.m[name]
        v = state.v[name]
        m[rows] = ADAM_BETA1 * m[rows] + (1.0 - ADAM_BETA1) * g[rows]
        v[rows] = ADAM_BETA2 * v[rows] + (1.0 - ADAM_BETA2) * g[rows] * g[rows]
        p[rows] = p[rows] - config.learning_rate * (m[rows] / c1) / (
            np.sqrt(v[rows] / c2) + ADAM_EPS)
    return params


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainResult:
    models: ParamStack  # the trained parameters
    history: list  # dict rows of HISTORY_FIELDS: every term unweighted, a zero beta's too
    masks: CausalMaskSeries
    predictions: Prediction
    final_losses: np.ndarray  # per-node total loss at the last epoch
    epochs_run: int


HISTORY_FIELDS = ["epoch", "node", *LOSS_TERMS, "total"]


def write_loss_history_csv(history: list, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=HISTORY_FIELDS)
        writer.writeheader()
        for row in history:
            writer.writerow(row)


def _train_step(stack: ParamStack, x: np.ndarray, config: TrainConfig,
                weights: LossWeights, adam: AdamState, active: np.ndarray) -> dict:
    """One forward, backward and Adam step on one chunk of samples; returns
    the loss terms and total as arrays, so the chunk's tape dies here.

    A parameter row trains while any node it serves is ``active``.
    """
    tape = Tape()
    out = batched_forward(stack, x, tape)
    root, terms = criterion(out.masks, out.predictions, x, weights)
    grads = tape.backward(root)
    params = {name: leaf.data for name, leaf in out.leaves.items()}
    grad_arrays = {name: grads.wrt(leaf) for name, leaf in out.leaves.items()}
    write_mask = None if active.all() else {
        name: (serves & active).any(axis=1) for name, serves in stack.serves().items()}
    adam_step(adam, params, grad_arrays, config, write_mask)
    return terms


def train(data: np.ndarray, config: TrainConfig, weights: LossWeights,
          models: ParamStack | None = None) -> TrainResult:
    """Fit all node models on (S, N, T, d) data; see TrainResult. Data with
    an empty axis or a single step raises ``ShapeError`` (``series_shape``).

    ``models`` (default: ``build_node_models`` at ``config.seed``) is trained
    in place and returned as ``TrainResult.models``. Its arrays must have the
    data's N and d, else ``ShapeError`` as in ``forward_full``, and the config's
    (hidden, encoder rows), 1 row if shared, else ``ValueError`` names both pairs.
    Input is always standardized, and non-finite input raises
    ``SimulationError`` naming its (sample, node, t). A node stops training
    once its total loss has not improved by ``early_stop_tol`` for
    ``early_stop_patience`` epochs; training ends when every node has stopped.
    """
    x = np.asarray(data, dtype=np.float64)
    s_count, n, _, d = series_shape(x)
    if weights.prior is not None and weights.prior.shape != (n, n):
        raise ValueError(f"prior shape {weights.prior.shape} does not match the "
                         f"{n} nodes of the data, expected {(n, n)}")
    if models is not None:
        check_series(models, x)
        have = models.enc_w.shape[1], len(models.enc_w)
        want = config.hidden, 1 if config.share_encoder else n
        if have != want:
            raise ValueError(f"models have (hidden, encoder rows) = {have}, the config "
                             f"asks for {want}")
    x = standardize(x)
    stack = (build_node_models(n, d, config.model_config(), config.seed) if models is None
             else models)

    # moments made before the first forward: made after the first backward, they would
    # split the heap space it freed, where the next forward's largest buffer goes
    adam = AdamState(m={k: np.zeros_like(a) for k, a in stack.arrays().items()},
                     v={k: np.zeros_like(a) for k, a in stack.arrays().items()})
    best = np.full(n, np.inf)
    stall = np.zeros(n, dtype=int)
    active = np.ones(n, dtype=bool)
    history = []  # appended in (epoch, node) order
    size = config.minibatch_size if config.batch_mode == "sample_minibatch" else s_count
    chunks = [x[k:k + size] for k in range(0, s_count, size)]

    for epoch in range(1, config.epochs + 1):
        sums = {key: np.zeros(n) for key in (*LOSS_TERMS, "total")}
        try:
            for xc in chunks:
                for key, value in _train_step(stack, xc, config, weights, adam,
                                              active).items():
                    sums[key] += value
        except NumericError as err:
            raise TrainingError(f"epoch {epoch}: {err}") from err

        means = {key: total / len(chunks) for key, total in sums.items()}
        for i in range(n):
            history.append({"epoch": epoch, "node": i,
                            **{key: v[i] for key, v in means.items()}})

        cur = means["total"]
        improved = cur < best - config.early_stop_tol
        stall = np.where(improved, 0, stall + 1)
        best = np.minimum(best, cur)
        active = active & (stall < config.early_stop_patience)
        if not active.any():
            break

    # free the Adam moments, two copies of every parameter, before the
    # full-series forward, the largest of the fit: the chunks are views of x,
    # so the moments are all the loop leaves to free
    del adam
    masks, preds = output_series(batched_forward(stack, x), s_count)  # no gradient state
    return TrainResult(models=stack, history=history, masks=masks,
                       predictions=preds, final_losses=means["total"],
                       epochs_run=epoch)


# ---------------------------------------------------------------------------
# grid search


def validation_recon_objective(data: np.ndarray, holdout_fraction: float = 0.2):
    """Default objective: recon loss on the final fraction of transitions.

    ``data`` must be an (S, N, T, d) series (``series_shape``, else
    ``ShapeError``). Raises ``ValueError`` unless ``holdout_fraction`` is
    finite and strictly inside (0, 1), or if it leaves no transition to hold
    out.
    """
    x = np.asarray(data, dtype=np.float64)
    t_len = series_shape(x)[2]
    if not (math.isfinite(holdout_fraction) and 0.0 < holdout_fraction < 1.0):
        raise ValueError("holdout_fraction must be finite and strictly inside (0, 1), "
                         f"got {holdout_fraction}")
    cut = max(2, int(round(t_len * (1.0 - holdout_fraction))))
    if cut >= t_len:
        raise ValueError(f"holdout_fraction {holdout_fraction} of {t_len} steps "
                         "holds out no transition")

    def objective(config: TrainConfig, weights: LossWeights) -> float:
        prefix = x[:, :, :cut, :]
        result = train(prefix, config, weights)
        # the model was fitted on the prefix standardized by its own moments
        x_eval = standardize_like(x, prefix)
        masks, preds = forward_full(result.models, x_eval)
        target = rows_to_series(node_rows(x_eval[:, :, 1:]), x.shape[0])
        err = ((preds.values - target) ** 2).sum(axis=3)
        return float(err[:, cut - 1 :].mean())

    return objective


def grid_search(grid: dict, base_config: TrainConfig, base_weights: LossWeights,
                objective) -> tuple:
    """Exhaustive search; returns (best_config, best_weights, best_score, trials).

    Ties break toward the lexicographically first candidate combination in
    sorted-parameter-name order. A non-finite score raises ``ValueError``
    naming its parameters.
    """
    if not grid:
        raise ValueError("empty hyperparameter grid")
    names = sorted(grid)
    candidates = [list(grid[name]) for name in names]  # an iterator is read once
    config_names = {f.name for f in fields(base_config)}
    weight_names = {f.name for f in fields(base_weights)}
    for name, values in zip(names, candidates):
        if not values:
            raise ValueError(f"no candidates for {name!r}")
        if name not in config_names | weight_names:
            raise ValueError(f"unknown hyperparameter {name!r}")
    best = None
    trials = []
    for combo in product(*candidates):
        cfg_kw = {n: v for n, v in zip(names, combo) if n in config_names}
        w_kw = {n: v for n, v in zip(names, combo) if n not in config_names}
        config = replace(base_config, **cfg_kw)
        weights = replace(base_weights, **w_kw)
        params = dict(zip(names, combo))
        score = float(objective(config, weights))
        if not math.isfinite(score):
            raise ValueError(f"objective returned {score} for {params}")
        trials.append({"params": params, "score": score})
        if best is None or score < best[2]:
            best = (config, weights, score)
    return best[0], best[1], best[2], trials
