"""Tape-based reverse-mode automatic differentiation over dense float64 arrays.

The engine is deliberately small: a ``Tape`` records every operation in
topological order, each node knowing how to push an upstream gradient back to
its parents. One generic op serves the model's layers:

- ``dense(x, wb, phi)``: phi(x @ W + b) for each node's [W; b], its bias
  the last row, the layout of every biased layer in the model. x holds one
  (g, K) row per node, or one row that every node reads, as a shared
  encoder's output; phi is an entry of ``ACTIVATIONS``.

Everything else is a fused op with a hand-written backward:
``gru_sequence``, ``encoder_gcn`` and ``gated_pool`` in ``blocks``, and
``criterion``, the four-term loss, in ``training``.

Every op, generic or fused, is a forward on the operands' arrays, a
vector-Jacobian closure ``backward(g)`` returning one gradient (or None) per
operand, and one ``Tape.record`` call, the one way onto the tape.
``record`` checks that the operands share the tape, raises ``NumericError``
at the first NaN/Inf in the output instead of letting it propagate, and keeps
the closure only on a tape that takes gradients. An op that ends in an
activation records its pre-activation, where an overflow still shows (tanh
would squash it), and then applies phi in place on the recorded buffer.
``Tape(grad=False)`` is the one gradient switch: no op on it keeps a closure
or the state a backward would read, and its ``backward`` raises.

A tape is swept once. ``Tape.backward`` drops each op's closure and
gradient as soon as its vector-Jacobian product has run, so the forward
buffers only that closure holds are freed mid-sweep, and a closure may
overwrite the buffers it reads for the last time. Leaves keep their
gradients; a second sweep, or the gradient of an interior node, raises.

``ACTIVATIONS`` is the one table of the model's nonlinearities; ``dense``
and the fused ops read the same entries.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tape",
    "Tensor",
    "Gradients",
    "ShapeError",
    "NumericError",
    "ACTIVATIONS",
    "dense",
]


class ShapeError(ValueError):
    """Operand dimensions do not satisfy the op's contract."""


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

    __slots__ = ("data", "tape", "idx")

    def __init__(self, data: np.ndarray, tape: "Tape", idx: int):
        self.data = data
        self.tape = tape
        self.idx = idx

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, idx={self.idx})"


class Gradients:
    """Result of a backward pass: the gradient of every leaf. The sweep frees
    each interior node's gradient once it has been pushed to the parents."""

    def __init__(self, tape: "Tape", grads: list):
        self._tape = tape
        self._grads = grads

    def wrt(self, t: Tensor) -> np.ndarray:
        """Gradient w.r.t. the leaf ``t``; exact zeros if ``t`` does not
        affect the root. ``ValueError`` if ``t`` lives on another tape or is
        an op's output."""
        if t.tape is not self._tape:
            raise ValueError(f"{t!r} does not belong to the swept tape")
        if self._tape._parents[t.idx]:
            raise ValueError(f"{t!r} is an op's output: the sweep frees its gradient")
        g = self._grads[t.idx]
        if g is None:
            return np.zeros_like(t.data)
        return g


class Tape:
    """Append-only record of operations; single-owner, not thread-shared.

    ``grad`` is the one gradient switch: a ``Tape(grad=False)`` keeps no
    backward closure, and its ops keep no state for one. ``backward``
    sweeps a gradient tape once, dropping each closure as it runs.
    """

    def __init__(self, grad: bool = True):
        self.grad = grad
        self._parents: list = []  # tuple of parent idx per node
        self._backward: list = []  # callable(g) -> tuple of parent grads, or None
        self._swept = False

    def __len__(self) -> int:
        return len(self._parents)

    def leaf(self, values) -> Tensor:
        """Register an input/parameter array as a graph leaf (no copy)."""
        data = np.asarray(values, dtype=np.float64)
        _check_finite(data, "leaf")
        self._parents.append(())
        self._backward.append(None)
        return Tensor(data, self, len(self._parents) - 1)

    def record(self, out_data, parents: Sequence[Tensor], backward_fn: Callable, op: str = "custom") -> Tensor:
        """Append the output of op ``op`` on the tensors ``parents``.

        ``backward_fn(g)`` must return one gradient array (or None) per
        parent. Raises ``ValueError`` if a parent lives on another tape and
        ``NumericError`` if the output holds NaN or Inf. Without ``grad``,
        ``backward_fn`` is dropped, and with it every array it closes over.
        """
        data = np.asarray(out_data, dtype=np.float64)
        _check_finite(data, op)
        for p in parents:
            if p.tape is not self:
                raise ValueError("all operands must live on the same tape")
        # from a list, not a generator: tuple(genexpr) allocates past the tuple
        # free list, which then fills with freed node tuples (about 50 kB)
        self._parents.append(tuple([p.idx for p in parents]))
        self._backward.append(backward_fn if self.grad else None)
        return Tensor(data, self, len(self._parents) - 1)

    def backward(self, root: Tensor) -> Gradients:
        """Reverse sweep from a scalar ``root``; visits each node exactly once.

        Each op's closure and gradient are dropped once its VJP has run, so
        the buffers only they hold are freed mid-sweep; every closure is
        gone when the sweep returns. A second call, or a call on a
        ``Tape(grad=False)``, raises ``RuntimeError``.
        """
        if root.tape is not self:
            raise ValueError("root does not belong to this tape")
        if root.data.ndim != 0:
            raise ShapeError(f"backward root must be a scalar, got shape {root.data.shape}")
        if not self.grad:
            raise RuntimeError("this tape was made with grad=False: it kept no backward "
                               "closure, so every gradient would read zero")
        if self._swept:
            raise RuntimeError("this tape has been swept: backward runs once per tape")
        self._swept = True
        fns, self._backward = self._backward, [None] * len(self._backward)
        grads: list = [None] * len(self._parents)
        grads[root.idx] = np.ones((), dtype=np.float64)
        for idx in range(root.idx, -1, -1):
            fn, fns[idx] = fns[idx], None
            g = grads[idx]
            if fn is None or g is None:
                continue
            grads[idx] = None
            parent_grads = fn(g)
            del fn, g  # the closure, and the buffers only it held, die here
            for pidx, pg in zip(self._parents[idx], parent_grads):
                if pg is None:
                    continue
                if grads[pidx] is None:
                    # safe to alias: accumulation below always allocates anew
                    grads[pidx] = pg
                else:
                    grads[pidx] = grads[pidx] + pg
            parent_grads = pg = None
        return Gradients(self, grads)


def _sigmoid(a, out):
    # exp(-a) overflows to inf, and sigmoid to 0: callers enter np.errstate
    np.negative(a, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def _sigmoid_deriv(y, out):
    # (1 - y) * y; 1 - y needs its own buffer when out holds y
    one_minus_y = np.subtract(1.0, y, out=None if np.may_share_memory(y, out) else out)
    return np.multiply(one_minus_y, y, out=out)


def _tanh_deriv(y, out):
    np.multiply(y, y, out=out)
    return np.subtract(1.0, out, out=out)


def _ones(y, out):
    out[...] = 1.0
    return out


# Every nonlinearity of the model, by name: (phi(a, out), written into out,
# which may be a; phi'(y, out), computed from y = phi(a) and written into out,
# which may be y: a backward may overwrite an activation it reads for the
# last time).
ACTIVATIONS = {
    "tanh": (lambda a, out: np.tanh(a, out=out), _tanh_deriv),
    "sigmoid": (_sigmoid, _sigmoid_deriv),
    "identity": (lambda a, out: np.positive(a, out=out), _ones),
}


def dense(x: Tensor, wb: Tensor, phi: str) -> Tensor:
    """``phi(x @ W + b)`` for each node's [W; b] in ``wb``, its bias the
    last row: x is (N, g, K), one row per node, or (1, g, K), one row that
    every node reads; wb is (N, K+1, h); phi is a key of ``ACTIVATIONS``.
    Any other pair of shapes raises ``ShapeError``.

    The bias is added to the product in place, so the sum rounds exactly as
    ``x @ W`` plus ``b`` does; a ones column, ``[x, 1] @ [W; b]``, would
    copy ``x`` and change the summation order. A shared row's gradient adds
    the nodes' ``g[i] @ W[i].T`` into one (g, K) buffer in node order, as
    numpy's ``sum(axis=0)`` of their (N, g, K) stack would, without forming
    the stack. An overflowed pre-activation raises ``NumericError`` even
    where phi would squash it.
    """
    xsh, wbsh = x.shape, wb.shape
    if len(xsh) != 3 or len(wbsh) != 3 or xsh[0] not in (1, wbsh[0]) or xsh[2] + 1 != wbsh[1]:
        raise ShapeError(f"dense takes (N or 1, g, K) @ (N, K+1, h), got {xsh} @ {wbsh}")
    fn, deriv = ACTIVATIONS[phi]
    xd, wbd = x.data, wb.data
    w, b = wbd[:, :-1], wbd[:, -1:]
    with np.errstate(over="ignore", invalid="ignore"):  # record reports it
        out = np.matmul(xd, w)
        out += b

    def backward(g):
        # phi' into a new array, not into out: out is the op's output, which a caller may hold
        g = g * deriv(out, np.empty_like(out))
        wt = np.swapaxes(w, 1, 2)
        if xsh[0] == wbsh[0]:
            dx = np.matmul(g, wt)
        else:
            dx = np.zeros(xsh)
            for gi, wti in zip(g, wt):
                dx[0] += gi @ wti
        dw = np.matmul(np.swapaxes(xd, 1, 2), g)
        return dx, np.concatenate((dw, g.sum(axis=1, keepdims=True)), axis=1)

    # record scans the pre-activation and wraps it without a copy; phi then
    # runs in place on the recorded buffer. phi of a finite value is finite
    node = x.tape.record(out, (x, wb), backward, op="dense")
    with np.errstate(over="ignore"):  # the sigmoid's exp(-a) may overflow: phi -> 0
        fn(out, out)
    return node
