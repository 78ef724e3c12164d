"""Learning criteria and optimization: reconstruction + structure kernel +
divergence + log-sum sparsity, trained per node with Adam.

Every node model trains independently (disjoint parameters, per-node loss).
``train`` runs all N nodes through one ``batched_forward`` tape per chunk of
samples, takes each loss term as a vector with one entry per node, and
backpropagates their sum, so gradients and Adam steps equal those of
training each node alone. The tape leaves are the ``ParamStack`` arrays,
and Adam updates them in place.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import product

import numpy as np

from . import autodiff as ad
from .autodiff import NumericError, ShapeError, Tape, Tensor
from .model import (BatchedOutput, CausalMaskSeries, ModelConfig, ParamStack,
                    Prediction, batched_forward, build_node_models, forward_full,
                    node_rows, rows_to_series)
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
        for name in ("beta1", "beta2", "beta3", "lambda1", "lambda2", "lambda3",
                     "gamma", "epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("beta1", "beta2", "beta3", "lambda1", "lambda2", "lambda3"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if abs(self.lambda1 + self.lambda2 + self.lambda3 - 1.0) > 1e-12:
            raise ValueError("divergence mixture weights must sum to 1")
        if self.gamma <= 0 or self.epsilon <= 0:
            raise ValueError("gamma and epsilon must be positive")
        if self.prior is None:
            if self.lambda2 > 0 or self.lambda3 > 0:
                raise ValueError("KL/JS divergence terms need a prior matrix")
            return
        p = np.asarray(self.prior, dtype=np.float64)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError(f"prior must be a square (N, N) matrix, got shape {p.shape}")
        if not (np.all(p > 0.0) and np.all(p < 1.0)):  # NaN fails both
            raise ValueError("prior entries must be finite and lie strictly inside (0, 1)")
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
    threads: int = 1  # the only accepted value
    share_encoder: bool = False
    self_loop: float = 1.0
    phi: str = "tanh"

    def __post_init__(self):
        for name in ("learning_rate", "adam_eps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if not (math.isfinite(self.early_stop_tol) and self.early_stop_tol >= 0):
            raise ValueError("early_stop_tol must be finite and nonnegative, "
                             f"got {self.early_stop_tol}")
        for name in ("epochs", "minibatch_size", "early_stop_patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        self.model_config()  # validates hidden, self_loop and phi
        if self.threads != 1:
            raise ValueError(f"threads must be 1, got {self.threads}")
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


def _divergence_vec(masks: Tensor, weights: LossWeights) -> Tensor:
    """lambda-weighted entropy / KL / JS of the time-averaged gate rows."""
    m_bar = ad.mean_axis(masks, (1,))  # (N, N)
    log_m = ad.log(ad.clamp(m_bar, CLAMP_LO, CLAMP_HI))
    total = None
    if weights.lambda1 > 0:
        ent = ad.neg(ad.mean_axis(ad.hadamard(m_bar, log_m), (1,)))
        total = ad.scale(ent, weights.lambda1)
    if weights.lambda2 > 0 or weights.lambda3 > 0:
        p_c = masks.tape.constant(weights.prior)
        log_p = np.log(weights.prior)
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
    x_next: np.ndarray  # (N, G, d)
    x_target: np.ndarray  # (1, G, N, d)
    tau_true: np.ndarray  # (N, G, N)


def _group_consts(x: np.ndarray, gamma: float) -> _GroupConsts:
    s, n, t, d = x.shape
    g = s * (t - 1)
    x_next = np.ascontiguousarray(node_rows(x[:, :, 1:]))
    x_target = np.ascontiguousarray(rows_to_series(x_next, s).reshape(1, g, n, d))
    # tau_true[i, g, j] = exp(-gamma * ||x_j^t - x_i^t||^2)
    tau = np.empty((n, g, n))
    for i in range(n):
        delta = x_target[0] - x_target[0][:, i : i + 1, :]
        tau[i] = np.exp(-gamma * (delta ** 2).sum(axis=2))
    return _GroupConsts(x_next=x_next, x_target=x_target, tau_true=tau)


def _loss_vectors(out: BatchedOutput, consts: _GroupConsts, weights: LossWeights) -> dict:
    vecs = {"recon": _recon_vec(consts.x_next, out.predictions)}
    vecs["struct"] = (_struct_vec(consts.x_target, consts.tau_true, out.predictions,
                                  weights.gamma) if weights.beta1 > 0 else None)
    vecs["div"] = _divergence_vec(out.masks, weights) if weights.beta2 > 0 else None
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


def _train_step(stack: ParamStack, x: np.ndarray, consts: _GroupConsts,
                config: TrainConfig, weights: LossWeights, adam: AdamState,
                active: np.ndarray) -> dict:
    """One forward, backward and Adam step on one chunk of samples; returns
    the loss terms and total as arrays, so the chunk's tape dies here.

    A parameter row trains while any node it serves is ``active``.
    """
    tape = Tape()
    out = batched_forward(stack, x, tape)
    vecs = _loss_vectors(out, consts, weights)
    total_vec = _combine(vecs, weights)
    grads = tape.backward(ad.reduce_sum(total_vec))
    params = {name: leaf.data for name, leaf in out.leaves.items()}
    grad_arrays = {name: grads.wrt(leaf) for name, leaf in out.leaves.items()}
    write_mask = None if active.all() else {
        name: (serves & active).any(axis=1) for name, serves in out.serves.items()}
    adam_step(adam, params, grad_arrays, config, write_mask)
    terms = {key: vec.data for key, vec in vecs.items() if vec is not None}
    terms["total"] = total_vec.data
    return terms


def train(data: np.ndarray, config: TrainConfig, weights: LossWeights,
          models: ParamStack | None = None) -> TrainResult:
    """Fit all node models on (S, N, T, d) data; see TrainResult.

    ``models`` (default: ``build_node_models`` at ``config.seed``) is trained
    in place and returned as ``TrainResult.models``; it must be built for
    ``config.model_config()`` and the data's N and d, or ``ValueError`` names
    what differs. Non-finite input raises
    ``SimulationError`` naming its (sample, node, t). A node stops training
    once its total loss has not improved by ``early_stop_tol`` for
    ``early_stop_patience`` epochs; training ends when every node has stopped.
    """
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 4:
        raise ShapeError(f"expected (S, N, T, d) data, got {x.shape}")
    if x.shape[2] < 2:
        raise ShapeError("need at least 2 time steps to train")
    s_count, n, _, d = x.shape
    if weights.prior is not None and weights.prior.shape != (n, n):
        raise ValueError(f"prior shape {weights.prior.shape} does not match the "
                         f"{n} nodes of the data, expected {(n, n)}")
    arch = config.model_config()
    if models is not None:
        have, want = asdict(models.config), asdict(arch)
        differ = [f"{k} {have[k]!r} != {want[k]!r}" for k in want if have[k] != want[k]]
        if differ:
            raise ValueError("models differ from config in " + ", ".join(differ))
        if (models.num_nodes, models.input_dim) != (n, d):
            raise ValueError(f"models are built for (N, d) = "
                             f"{(models.num_nodes, models.input_dim)}, the data has {(n, d)}")
    x = standardize(x) if config.standardize_input else require_finite(x)
    stack = build_node_models(n, d, arch, config.seed) if models is None else models

    adam = AdamState()
    best = np.full(n, np.inf)
    stall = np.zeros(n, dtype=int)
    active = np.ones(n, dtype=bool)
    history = []  # appended in (epoch, node) order
    size = config.minibatch_size if config.batch_mode == "sample_minibatch" else s_count
    chunks = [x[k:k + size] for k in range(0, s_count, size)]
    chunk_consts = [_group_consts(xc, weights.gamma) for xc in chunks]

    for epoch in range(1, config.epochs + 1):
        sums = {key: np.zeros(n) for key in HISTORY_FIELDS[2:]}
        try:
            for xc, cc in zip(chunks, chunk_consts):
                for key, value in _train_step(stack, xc, cc, config, weights, adam,
                                              active).items():
                    sums[key] += value
        except NumericError as err:
            raise TrainingError(f"epoch {epoch}: {err}") from err

        means = {key: total / len(chunks) for key, total in sums.items()}
        for i in range(n):
            row = {"epoch": epoch, "node": i, **{key: v[i] for key, v in means.items()}}
            if not math.isfinite(row["total"]):
                term = next(t for t in HISTORY_FIELDS[2:] if not math.isfinite(row[t]))
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, node {i}, term {term}")
            history.append(row)

        cur = means["total"]
        improved = cur < best - config.early_stop_tol
        stall = np.where(improved, 0, stall + 1)
        best = np.minimum(best, cur)
        active = active & (stall < config.early_stop_patience)
        if not active.any():
            break

    # free the Adam moments and chunk constants before the full-series
    # forward, the largest of the fit: alive, they add about 7 MB to the
    # peak RSS of a 50-window minibatch fit
    del adam, chunk_consts
    out = batched_forward(stack, x, Tape())
    masks = CausalMaskSeries(values=rows_to_series(out.masks.data, s_count))
    preds = Prediction(values=rows_to_series(out.predictions.data, s_count))
    return TrainResult(models=stack, history=history, masks=masks,
                       predictions=preds, final_losses=means["total"],
                       epochs_run=epoch)


# ---------------------------------------------------------------------------
# grid search


def validation_recon_objective(data: np.ndarray, holdout_fraction: float = 0.2):
    """Default objective: recon loss on the final fraction of transitions.

    Raises ``ValueError`` if the fraction leaves no transition to hold out.
    """
    x = np.asarray(data, dtype=np.float64)
    t_len = x.shape[2]
    cut = max(2, int(round(t_len * (1.0 - holdout_fraction))))
    if cut >= t_len:
        raise ValueError(f"holdout_fraction {holdout_fraction} of {t_len} steps "
                         "holds out no transition")

    def objective(config: TrainConfig, weights: LossWeights) -> float:
        prefix = x[:, :, :cut, :]
        result = train(prefix, config, weights)
        # the model was fitted on the prefix standardized by its own moments
        x_eval = standardize_like(x, prefix) if config.standardize_input else x
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
    config_names = {f.name for f in fields(base_config)}
    weight_names = {f.name for f in fields(base_weights)}
    for name in names:
        if not list(grid[name]):
            raise ValueError(f"no candidates for {name!r}")
        if name not in config_names | weight_names:
            raise ValueError(f"unknown hyperparameter {name!r}")
    best = None
    trials = []
    for combo in product(*(grid[name] for name in names)):
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
