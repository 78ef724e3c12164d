"""Learning criteria and optimization: reconstruction + structure kernel +
divergence + log-sum sparsity, trained per node with Adam.

Every node model trains independently (disjoint parameters, per-node loss).
``train`` runs a group of nodes through one ``batched_forward`` tape, takes
each loss term as a vector with one entry per node, and backpropagates their
sum, so gradients and Adam steps equal those of training each node alone.
The tape leaves are views of the ``ParamStack`` rows, and Adam updates them
in place. ``threads`` partitions the nodes into contiguous groups trained
concurrently; results are bit-identical for any partition.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from . import autodiff as ad
from .autodiff import NumericError, ShapeError, Tape, Tensor
from .model import (BatchedOutput, CausalMaskSeries, ModelConfig, ParamStack,
                    Prediction, batched_forward, build_node_models, forward_full,
                    masks_to_series, predictions_to_series)
from .simulate import require_finite, standardize, standardize_like

CLAMP_LO = 1e-7
CLAMP_HI = 1.0 - 1e-7


class TrainingError(RuntimeError):
    """Training aborted (non-finite loss or invalid configuration)."""


@dataclass
class LossWeights:
    """Coefficients of the four-term criterion and the divergence mixture."""

    beta1: float = 0.01  # structure
    beta2: float = 0.35  # divergence
    beta3: float = 0.35  # sparsity
    lambda1: float = 1.0  # entropy
    lambda2: float = 0.0  # KL vs prior
    lambda3: float = 0.0  # JS vs prior
    gamma: float = 1.0  # structure kernel scale
    epsilon: float = 0.01  # log-sum scale
    prior: np.ndarray | None = None  # (N, N) entries in (0, 1)

    def __post_init__(self):
        if min(self.beta1, self.beta2, self.beta3) < 0:
            raise ValueError("loss coefficients must be nonnegative")
        if abs(self.lambda1 + self.lambda2 + self.lambda3 - 1.0) > 1e-12:
            raise ValueError("divergence mixture weights must sum to 1")
        if self.gamma <= 0 or self.epsilon <= 0:
            raise ValueError("gamma and epsilon must be positive")
        if (self.lambda2 > 0 or self.lambda3 > 0):
            if self.prior is None:
                raise ValueError("KL/JS divergence terms need a prior matrix")
            p = np.asarray(self.prior, dtype=np.float64)
            if p.min() <= 0.0 or p.max() >= 1.0:
                raise ValueError("prior entries must lie strictly inside (0, 1)")
            self.prior = p

    @classmethod
    def with_uniform_prior(cls, n: int, prior_value: float = 0.2, **kw) -> "LossWeights":
        kw.setdefault("lambda1", 1.0 / 3.0)
        kw.setdefault("lambda2", 1.0 / 3.0)
        kw.setdefault("lambda3", 1.0 - kw["lambda1"] - kw["lambda2"])
        return cls(prior=np.full((n, n), prior_value), **kw)


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    epochs: int = 1000
    hidden: int = 15
    seed: int = 0
    batch_mode: str = "full"  # or "sample_minibatch"
    minibatch_size: int = 1
    standardize_input: bool = True
    early_stop_tol: float = 1e-6
    early_stop_patience: int = 50
    threads: int = 1
    share_encoder: bool = False
    self_loop: float = 1.0
    phi: str = "tanh"

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        for name in ("epochs", "hidden", "minibatch_size", "threads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.batch_mode not in ("full", "sample_minibatch"):
            raise ValueError(f"unknown batch mode {self.batch_mode!r}")

    def model_config(self) -> ModelConfig:
        return ModelConfig(hidden=self.hidden, self_loop=self.self_loop,
                           phi=self.phi, share_encoder=self.share_encoder)


# ---------------------------------------------------------------------------
# loss terms: each returns one value per node of the batch (leading axis)


def _recon_vec(x_next: np.ndarray, x_hat: Tensor) -> Tensor:
    """(1/(T-1)) sum_t ||x_i^t - xhat_i^t||^2, averaged over samples."""
    if x_hat.data.shape != x_next.shape:
        raise ShapeError(f"prediction shape {x_hat.data.shape} != truth {x_next.shape}")
    diff = ad.sub(x_hat, x_hat.tape.constant(x_next))
    return ad.mean_axis(ad.sum_axis(ad.hadamard(diff, diff), (2,)), (1,))


def _struct_vec(x_target: np.ndarray, tau_true: np.ndarray, x_hat: Tensor,
                gamma: float) -> Tensor:
    """Mean squared gap between the data kernel rows and the predicted ones."""
    tape = x_hat.tape
    n_i, g, d = x_hat.data.shape
    xh = ad.reshape(x_hat, (n_i, g, 1, d))
    diff = ad.sub(tape.constant(x_target), xh)  # (n_i, g, N, d)
    ssq = ad.sum_axis(ad.hadamard(diff, diff), (3,))
    tau_pred = ad.exp(ad.scale(ssq, -gamma))
    gap = ad.sub(tape.constant(tau_true), tau_pred)
    return ad.mean_axis(ad.hadamard(gap, gap), (1, 2))


def _divergence_vec(masks: Tensor, weights: LossWeights, node_ids) -> Tensor:
    """lambda-weighted entropy / KL / JS of the time-averaged gate rows."""
    m_bar = ad.mean_axis(masks, (1,))  # (n_i, N)
    log_m = ad.log(ad.clamp(m_bar, CLAMP_LO, CLAMP_HI))
    total = None
    if weights.lambda1 > 0:
        ent = ad.neg(ad.mean_axis(ad.hadamard(m_bar, log_m), (1,)))
        total = ad.scale(ent, weights.lambda1)
    if weights.lambda2 > 0 or weights.lambda3 > 0:
        p_rows = weights.prior[list(node_ids)]
        p_c = masks.tape.constant(p_rows)
        log_p = np.log(p_rows)
        if weights.lambda2 > 0:
            kl = ad.mean_axis(
                ad.hadamard(m_bar, ad.sub(log_m, masks.tape.constant(log_p))), (1,))
            term = ad.scale(kl, weights.lambda2)
            total = term if total is None else ad.add(total, term)
        if weights.lambda3 > 0:
            q = ad.scale(ad.add(m_bar, p_c), 0.5)
            log_q = ad.log(ad.clamp(q, CLAMP_LO, 1.0))
            left = ad.hadamard(m_bar, ad.sub(log_m, log_q))
            right = ad.hadamard(p_c, ad.sub(masks.tape.constant(log_p), log_q))
            js = ad.scale(ad.mean_axis(ad.add(left, right), (1,)), 0.5)
            term = ad.scale(js, weights.lambda3)
            total = term if total is None else ad.add(total, term)
    return total


def _sparsity_vec(masks: Tensor, epsilon: float) -> Tensor:
    """(1/N)(1/(T-1)) sum log(|M|/eps + 1); gates are positive by range."""
    return ad.mean_axis(
        ad.log(ad.add_scalar(ad.scale(masks, 1.0 / epsilon), 1.0)), (1, 2))


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0


def adam_step(state: AdamState, params: dict, grads: dict, config: TrainConfig,
              write_mask: dict | None = None) -> dict:
    """One bias-corrected Adam update, in place on the param arrays.

    ``write_mask`` (name -> bool rows) freezes rows whose nodes have
    converged: their moments and values stay exactly as they were.
    """
    state.step += 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    for name, p in params.items():
        g = grads[name]
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} != param shape {p.shape} for {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        rows = slice(None) if write_mask is None else write_mask[name]
        m = state.m[name]
        v = state.v[name]
        m[rows] = b1 * m[rows] + (1.0 - b1) * g[rows]
        v[rows] = b2 * v[rows] + (1.0 - b2) * g[rows] * g[rows]
        p[rows] = p[rows] - config.learning_rate * (m[rows] / c1) / (
            np.sqrt(v[rows] / c2) + config.adam_eps)
    return params


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainResult:
    models: ParamStack  # the trained parameters
    history: list  # dict rows: epoch, node, recon, struct, div, sparsity, total
    masks: CausalMaskSeries
    predictions: Prediction
    final_losses: np.ndarray  # per-node total loss at the last epoch
    epochs_run: int


HISTORY_FIELDS = ["epoch", "node", "recon", "struct", "div", "sparsity", "total"]


def write_loss_history_csv(history: list, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=HISTORY_FIELDS)
        writer.writeheader()
        for row in history:
            writer.writerow(row)


@dataclass
class _GroupConsts:
    x_next: np.ndarray  # (n_g, G, d)
    x_target: np.ndarray  # (1, G, N, d)
    tau_true: np.ndarray  # (n_g, G, N)


def _group_consts(x: np.ndarray, node_ids, gamma: float) -> _GroupConsts:
    s, n, t, d = x.shape
    g = s * (t - 1)
    x_next = x[:, list(node_ids), 1:, :].transpose(1, 0, 2, 3).reshape(len(node_ids), g, d)
    x_target = np.ascontiguousarray(
        x[:, :, 1:, :].transpose(0, 2, 1, 3).reshape(1, g, n, d))
    # tau_true[i_local, g, j] = exp(-gamma * ||x_j^t - x_i^t||^2)
    tau = np.empty((len(node_ids), g, n))
    for k, i in enumerate(node_ids):
        delta = x_target[0] - x_target[0][:, i : i + 1, :]
        tau[k] = np.exp(-gamma * (delta ** 2).sum(axis=2))
    return _GroupConsts(x_next=np.ascontiguousarray(x_next), x_target=x_target,
                        tau_true=tau)


def _loss_vectors(out: BatchedOutput, consts: _GroupConsts, weights: LossWeights,
                  node_ids) -> dict:
    vecs = {"recon": _recon_vec(consts.x_next, out.predictions)}
    vecs["struct"] = (_struct_vec(consts.x_target, consts.tau_true, out.predictions,
                                  weights.gamma) if weights.beta1 > 0 else None)
    vecs["div"] = (_divergence_vec(out.masks, weights, node_ids)
                   if weights.beta2 > 0 else None)
    vecs["sparsity"] = (_sparsity_vec(out.masks, weights.epsilon)
                        if weights.beta3 > 0 else None)
    return vecs


def _combine(vecs: dict, weights: LossWeights) -> Tensor:
    total = vecs["recon"]
    for key, beta in (("struct", weights.beta1), ("div", weights.beta2),
                      ("sparsity", weights.beta3)):
        if vecs[key] is not None and beta > 0:
            total = ad.add(total, ad.scale(vecs[key], beta))
    return total


def _train_group(stack: ParamStack, x: np.ndarray, node_slice: slice,
                 config: TrainConfig, weights: LossWeights) -> list:
    """Train the nodes of one slice to convergence; mutates ``stack`` rows."""
    s_count, n, t_len, d = x.shape
    node_ids = list(range(*node_slice.indices(n)))
    n_g = len(node_ids)
    consts = _group_consts(x, node_ids, weights.gamma)
    adam = AdamState()
    best = np.full(n_g, np.inf)
    stall = np.zeros(n_g, dtype=int)
    active = np.ones(n_g, dtype=bool)
    history = []
    shared = stack.shared_encoder

    if config.batch_mode == "sample_minibatch" and s_count > 1:
        chunks = [list(range(k, min(k + config.minibatch_size, s_count)))
                  for k in range(0, s_count, config.minibatch_size)]
    else:
        chunks = [list(range(s_count))]
    chunk_consts = ([consts] if len(chunks) == 1 else
                    [_group_consts(x[c], node_ids, weights.gamma) for c in chunks])

    epoch = 0
    for epoch in range(1, config.epochs + 1):
        epoch_total = np.zeros(n_g)
        epoch_terms = {k: np.zeros(n_g) for k in ("recon", "struct", "div", "sparsity")}
        try:
            for chunk, cc in zip(chunks, chunk_consts):
                tape = Tape()
                x_chunk = x if len(chunk) == s_count else x[chunk]
                out = batched_forward(stack, x_chunk, tape, node_slice=node_slice)
                vecs = _loss_vectors(out, cc, weights, node_ids)
                total_vec = _combine(vecs, weights)
                for key in epoch_terms:
                    if vecs[key] is not None:
                        epoch_terms[key] += vecs[key].data
                epoch_total += total_vec.data
                loss = ad.reduce_sum(total_vec)
                grads = tape.backward(loss)

                params, grad_arrays, write_mask = {}, {}, {}
                all_active = bool(active.all())
                for name, leaf in out.leaves.items():
                    grad_arrays[name] = grads.wrt(leaf)
                    params[name] = leaf.data
                    if shared and (name.startswith("gru.") or name == "enc_w"):
                        # encoder shared across nodes: update while any node trains
                        write_mask[name] = (slice(None) if active.any()
                                            else slice(0, 0))
                    elif all_active:
                        write_mask[name] = slice(None)
                    elif name.startswith("gru."):
                        write_mask[name] = np.repeat(active, n)
                    else:
                        write_mask[name] = active
                adam_step(adam, params, grad_arrays, config, write_mask)
        except NumericError as err:
            raise TrainingError(f"epoch {epoch}: {err}") from err

        denom = len(chunks)
        for k, i in enumerate(node_ids):
            row = {"epoch": epoch, "node": i,
                   "recon": epoch_terms["recon"][k] / denom,
                   "struct": epoch_terms["struct"][k] / denom,
                   "div": epoch_terms["div"][k] / denom,
                   "sparsity": epoch_terms["sparsity"][k] / denom,
                   "total": epoch_total[k] / denom}
            if not math.isfinite(row["total"]):
                term = next((t for t in ("recon", "struct", "div", "sparsity")
                             if not math.isfinite(row[t])), "total")
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, node {i}, term {term}")
            history.append(row)

        cur = epoch_total / denom
        improved = cur < best - config.early_stop_tol
        stall = np.where(improved, 0, stall + 1)
        best = np.minimum(best, cur)
        active = active & (stall < config.early_stop_patience)
        if not active.any():
            break
    return history


def train(data: np.ndarray, config: TrainConfig, weights: LossWeights,
          models: ParamStack | None = None) -> TrainResult:
    """Fit all node models on (S, N, T, d) data; see TrainResult.

    ``models`` (default: ``build_node_models`` at ``config.seed``) is trained
    in place and returned as ``TrainResult.models``. Non-finite input raises
    ``SimulationError`` naming its (sample, node, t).
    """
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 4:
        raise ShapeError(f"expected (S, N, T, d) data, got {x.shape}")
    if x.shape[2] < 2:
        raise ShapeError("need at least 2 time steps to train")
    s_count, n, t_len, d = x.shape
    x = standardize(x) if config.standardize_input else require_finite(x)
    stack = (build_node_models(n, d, config.model_config(), config.seed)
             if models is None else models)

    threads = min(config.threads, n)
    if stack.shared_encoder and threads > 1:
        raise TrainingError("shared-encoder training cannot split nodes across threads")
    bounds = np.linspace(0, n, threads + 1).astype(int)
    slices = [slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])
              if b > a]
    if len(slices) == 1:
        histories = [_train_group(stack, x, slices[0], config, weights)]
    else:
        with ThreadPoolExecutor(max_workers=len(slices)) as pool:
            futures = [pool.submit(_train_group, stack, x, sl, config, weights)
                       for sl in slices]
            histories = [f.result() for f in futures]

    history = [row for rows in histories for row in rows]
    history.sort(key=lambda r: (r["epoch"], r["node"]))

    tape = Tape()
    out = batched_forward(stack, x, tape)
    masks = CausalMaskSeries(values=masks_to_series(out.masks.data, s_count, t_len - 1))
    preds = Prediction(values=predictions_to_series(out.predictions.data, s_count,
                                                    t_len - 1))
    last_epoch = max(row["epoch"] for row in history)
    final = np.zeros(n)
    for row in history:  # ascending epochs: last write is each node's final loss
        final[row["node"]] = row["total"]
    return TrainResult(models=stack, history=history, masks=masks,
                       predictions=preds, final_losses=final,
                       epochs_run=last_epoch)


# ---------------------------------------------------------------------------
# grid search


def validation_recon_objective(data: np.ndarray, holdout_fraction: float = 0.2):
    """Default objective: recon loss on the final fraction of transitions."""

    def objective(config: TrainConfig, weights: LossWeights) -> float:
        x = np.asarray(data, dtype=np.float64)
        t_len = x.shape[2]
        cut = max(2, int(round(t_len * (1.0 - holdout_fraction))))
        prefix = x[:, :, :cut, :]
        result = train(prefix, config, weights)
        # the model was fitted on the prefix standardized by its own moments
        x_eval = standardize_like(x, prefix) if config.standardize_input else x
        masks, preds = forward_full(result.models, x_eval)
        target = x_eval[:, :, 1:, :].transpose(0, 2, 1, 3)
        err = ((preds.values - target) ** 2).sum(axis=3)
        return float(err[:, cut - 1 :].mean())

    return objective


def grid_search(grid: dict, base_config: TrainConfig, base_weights: LossWeights,
                objective) -> tuple:
    """Exhaustive search; returns (best_config, best_weights, best_score, trials).

    Ties break toward the lexicographically first candidate combination in
    sorted-parameter-name order.
    """
    if not grid:
        raise ValueError("empty hyperparameter grid")
    names = sorted(grid)
    for name in names:
        if not list(grid[name]):
            raise ValueError(f"no candidates for {name!r}")
        if not (hasattr(base_config, name) or hasattr(base_weights, name)):
            raise ValueError(f"unknown hyperparameter {name!r}")
    best = None
    trials = []
    for combo in product(*(grid[name] for name in names)):
        cfg_kw = {n: v for n, v in zip(names, combo) if hasattr(base_config, n)}
        w_kw = {n: v for n, v in zip(names, combo) if not hasattr(base_config, n)}
        config = replace(base_config, **cfg_kw)
        weights = replace(base_weights, **w_kw)
        score = float(objective(config, weights))
        trials.append({"params": dict(zip(names, combo)), "score": score})
        if best is None or score < best[2]:
            best = (config, weights, score)
    return best[0], best[1], best[2], trials
