"""Tape-based reverse-mode automatic differentiation over dense float64 arrays.

The engine is deliberately small: a ``Tape`` records every operation in
topological order, each node knowing how to push an upstream gradient back to
its parents. Binary elementwise ops support numpy broadcasting (gradients are
summed back to the operand shape), and ``matmul`` supports stacked (batched)
operands, which is what makes whole-series training affordable.

``ACTIVATIONS`` is the one table of the model's nonlinearities, and
``activation(x, phi)`` its tape op; fused ops read the same entries.

Every op validates its output for NaN/Inf and raises ``NumericError`` at the
first non-finite value instead of letting it propagate. ``reshape`` and
``transpose`` are exempt: they move no values, and their operand was checked
when it was made.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tape",
    "Tensor",
    "Gradients",
    "ShapeError",
    "DomainError",
    "NumericError",
    "add",
    "sub",
    "hadamard",
    "neg",
    "scale",
    "add_scalar",
    "ACTIVATIONS",
    "activation",
    "exp",
    "log",
    "clamp",
    "matmul",
    "reshape",
    "transpose",
    "sum_axis",
    "mean_axis",
    "reduce_sum",
]


class ShapeError(ValueError):
    """Operand dimensions do not satisfy the op's contract."""


class DomainError(ValueError):
    """Operand value outside the mathematical domain of the op (e.g. log <= 0)."""


class NumericError(ArithmeticError):
    """A forward computation produced NaN or Inf."""


def _check_finite(data: np.ndarray, op: str) -> None:
    # min/max propagate NaN and expose +-Inf without allocating a bool array
    if data.size == 0:
        return
    lo = np.min(data)
    hi = np.max(data)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise NumericError(f"non-finite value produced by op '{op}'")


class Tensor:
    """A node in the computation graph: an ndarray plus its tape position."""

    __slots__ = ("data", "tape", "idx", "needs")

    def __init__(self, data: np.ndarray, tape: "Tape", idx: int, needs: bool = True):
        self.data = data
        self.tape = tape
        self.idx = idx
        self.needs = needs  # does any trainable leaf feed this node

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, idx={self.idx})"


class Gradients:
    """Result of a backward pass: per-node gradient arrays."""

    def __init__(self, grads: list):
        self._grads = grads

    def wrt(self, t: Tensor) -> np.ndarray:
        """Gradient w.r.t. ``t``; exact zeros if ``t`` does not affect the root."""
        g = self._grads[t.idx]
        if g is None:
            return np.zeros_like(t.data)
        return g


class Tape:
    """Append-only record of operations; single-owner, not thread-shared."""

    def __init__(self):
        self._parents: list = []  # tuple of parent idx per node
        self._backward: list = []  # callable(g) -> tuple of parent grads, or None

    def __len__(self) -> int:
        return len(self._parents)

    def leaf(self, values) -> Tensor:
        """Register an input/parameter array as a graph leaf (no copy)."""
        data = np.asarray(values, dtype=np.float64)
        _check_finite(data, "leaf")
        return self._append(data, (), None, needs=True)

    def constant(self, values) -> Tensor:
        """A leaf that no gradient is ever requested for (input data)."""
        data = np.asarray(values, dtype=np.float64)
        _check_finite(data, "constant")
        return self._append(data, (), None, needs=False)

    def _append(self, data: np.ndarray, parents: tuple, backward_fn,
                needs: bool = True) -> Tensor:
        idx = len(self._parents)
        self._parents.append(parents)
        self._backward.append(backward_fn)
        return Tensor(data, self, idx, needs)

    def record(self, out_data, parents: Sequence[Tensor], backward_fn: Callable, op: str = "custom") -> Tensor:
        """Extension point for fused ops defined outside this module.

        ``backward_fn(g)`` must return one gradient array (or None) per parent.
        """
        for p in parents:
            if p.tape is not self:
                raise ValueError("all operands must live on the same tape")
        data = np.asarray(out_data, dtype=np.float64)
        _check_finite(data, op)
        needs = any(p.needs for p in parents)
        return self._append(data, tuple(p.idx for p in parents),
                            backward_fn if needs else None, needs)

    def backward(self, root: Tensor) -> Gradients:
        """Reverse sweep from a scalar ``root``; visits each node exactly once."""
        if root.tape is not self:
            raise ValueError("root does not belong to this tape")
        if root.data.ndim != 0:
            raise ShapeError(f"backward root must be a scalar, got shape {root.data.shape}")
        grads: list = [None] * len(self._parents)
        grads[root.idx] = np.ones((), dtype=np.float64)
        for idx in range(root.idx, -1, -1):
            g = grads[idx]
            if g is None:
                continue
            fn = self._backward[idx]
            if fn is None:
                continue
            parent_grads = fn(g)
            for pidx, pg in zip(self._parents[idx], parent_grads):
                if pg is None:
                    continue
                if grads[pidx] is None:
                    # safe to alias: accumulation below always allocates anew
                    grads[pidx] = pg
                else:
                    grads[pidx] = grads[pidx] + pg
        return Gradients(grads)


def _same_tape(*ts: Tensor) -> Tape:
    tape = ts[0].tape
    for t in ts[1:]:
        if t.tape is not tape:
            raise ValueError("operands live on different tapes")
    return tape


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` over axes that were broadcast so it matches ``shape``."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _broadcastable(sa: tuple, sb: tuple) -> bool:
    for a, b in zip(reversed(sa), reversed(sb)):
        if a != b and a != 1 and b != 1:
            return False
    return True


def _binary(a: Tensor, b: Tensor, op: str, fwd, bwd) -> Tensor:
    tape = _same_tape(a, b)
    if not _broadcastable(a.shape, b.shape):
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast")
    out = fwd(a.data, b.data)
    _check_finite(out, op)
    ash, bsh = a.shape, b.shape
    na, nb = a.needs, b.needs
    if not (na or nb):
        return tape._append(out, (a.idx, b.idx), None, needs=False)

    def backward(g):
        ga, gb = bwd(g, na, nb)
        return (_unbroadcast(ga, ash) if ga is not None else None,
                _unbroadcast(gb, bsh) if gb is not None else None)

    return tape._append(out, (a.idx, b.idx), backward)


def _both(fa, fb):
    """Build a conditional two-sided backward from per-side closures."""

    def bwd(g, na, nb):
        return (fa(g) if na else None), (fb(g) if nb else None)

    return bwd


def add(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, "add", np.add, _both(lambda g: g, lambda g: g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, "sub", np.subtract, _both(lambda g: g, lambda g: -g))


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    return _binary(a, b, "hadamard", np.multiply,
                   _both(lambda g: g * bd, lambda g: g * ad))


def _unary(x: Tensor, op: str, out: np.ndarray, grad_fn) -> Tensor:
    _check_finite(out, op)
    return _record_unary(x, out, grad_fn)


def _record_unary(x: Tensor, out: np.ndarray, grad_fn) -> Tensor:
    if not x.needs:
        return x.tape._append(out, (x.idx,), None, needs=False)

    def backward(g):
        return (grad_fn(g),)

    return x.tape._append(out, (x.idx,), backward)


def neg(x: Tensor) -> Tensor:
    return _unary(x, "neg", -x.data, lambda g: -g)


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python constant (constants carry no gradient)."""
    c = float(c)
    return _unary(x, "scale", x.data * c, lambda g: g * c)


def add_scalar(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return _unary(x, "add_scalar", x.data + c, lambda g: g)


def _sigmoid(a, out):
    with np.errstate(over="ignore"):  # exp(-a) overflows to inf: sigmoid -> 0
        np.negative(a, out=out)
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def _sigmoid_deriv(y):  # out= keeps a 0-d y an array
    out = np.subtract(1.0, y, out=np.empty_like(y))
    return np.multiply(out, y, out=out)


def _tanh_deriv(y):
    out = np.multiply(y, y, out=np.empty_like(y))
    return np.subtract(1.0, out, out=out)


# Every nonlinearity of the model, by name: (phi(a, out), written into out,
# which may be a; phi'(a) as a new array computed from y = phi(a)). relu's
# output is >= 0, so sign(y) is 1 exactly where a > 0.
ACTIVATIONS = {
    "tanh": (lambda a, out: np.tanh(a, out=out), _tanh_deriv),
    "sigmoid": (_sigmoid, _sigmoid_deriv),
    "relu": (lambda a, out: np.maximum(a, 0.0, out=out), np.sign),
    "identity": (lambda a, out: np.positive(a, out=out), np.ones_like),
}


def activation(x: Tensor, phi: str) -> Tensor:
    """``phi``, a key of ``ACTIVATIONS``, applied elementwise."""
    fn, deriv = ACTIVATIONS[phi]
    out = fn(x.data, np.empty_like(x.data))
    return _unary(x, phi, out, lambda g: g * deriv(out))


def exp(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out = np.exp(x.data)  # overflow -> Inf -> NumericError in _unary
    return _unary(x, "exp", out, lambda g: g * out)


def log(x: Tensor) -> Tensor:
    if x.data.size and np.min(x.data) <= 0.0:
        raise DomainError("log requires strictly positive operand")
    d = x.data
    return _unary(x, "log", np.log(d), lambda g: g / d)


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient is zero where the clip engages."""
    out = np.clip(x.data, lo, hi)
    inside = (x.data >= lo) & (x.data <= hi)
    return _unary(x, "clamp", out, lambda g: g * inside)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; stacked leading axes broadcast like ``np.matmul``."""
    tape = _same_tape(a, b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul operands must have rank >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims disagree ({a.shape} @ {b.shape})")
    if not _broadcastable(a.shape[:-2], b.shape[:-2]):
        raise ShapeError(f"matmul: batch dims do not broadcast ({a.shape} @ {b.shape})")
    out = np.matmul(a.data, b.data)
    _check_finite(out, "matmul")
    ad, bd = a.data, b.data
    ash, bsh = a.shape, b.shape
    na, nb = a.needs, b.needs
    if not (na or nb):
        return tape._append(out, (a.idx, b.idx), None, needs=False)

    def backward(g):
        ga = (_unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), ash)
              if na else None)
        gb = (_unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), bsh)
              if nb else None)
        return ga, gb

    return tape._append(out, (a.idx, b.idx), backward)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    out = x.data.reshape(shape)
    xshape = x.shape
    return _record_unary(x, out, lambda g: g.reshape(xshape))


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = np.transpose(x.data, axes)
    return _record_unary(x, out, lambda g: np.transpose(g, inv))


def sum_axis(x: Tensor, axes, keepdims: bool = False) -> Tensor:
    axes = tuple(axes) if isinstance(axes, (tuple, list)) else (axes,)
    out = x.data.sum(axis=axes, keepdims=keepdims)
    xshape = x.shape
    kshape = tuple(1 if i in tuple(a % len(xshape) for a in axes) else s for i, s in enumerate(xshape))

    def grad(g):
        return np.broadcast_to(g.reshape(kshape), xshape)

    return _unary(x, "sum_axis", out, grad)


def mean_axis(x: Tensor, axes, keepdims: bool = False) -> Tensor:
    axes = tuple(axes) if isinstance(axes, (tuple, list)) else (axes,)
    out = x.data.mean(axis=axes, keepdims=keepdims)
    xshape = x.shape
    norm_axes = tuple(a % len(xshape) for a in axes)
    count = 1
    for a in norm_axes:
        count *= xshape[a]
    kshape = tuple(1 if i in norm_axes else s for i, s in enumerate(xshape))

    def grad(g):
        return np.broadcast_to(g.reshape(kshape), xshape) / count

    return _unary(x, "mean_axis", out, grad)


def reduce_sum(x: Tensor) -> Tensor:
    out = np.asarray(x.data.sum())
    xshape = x.shape
    return _unary(x, "reduce_sum", out, lambda g: np.broadcast_to(g, xshape))
