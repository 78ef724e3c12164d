"""Traced runs: spans recorded from outside dyncause by wrapping public
functions at the names where they are looked up, and the per-layer split
computed from them.

Only ``run.py --trace 1`` imports this module, so untraced runs never depend
on it. A hook whose name no longer exists is skipped and listed in
``Hooks.missing``; the metrics that need it are then reported as missing.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from dataclasses import dataclass, field

clock = time.perf_counter


@dataclass
class Span:
    name: str
    t0: float
    t1: float
    parent: int | None  # index of the enclosing span
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Nested spans on one thread, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str, **attrs) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, clock(), float("nan"), parent, attrs))
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> Span:
        if self._open.pop() != idx:
            raise RuntimeError("spans closed out of order")
        span = self.spans[idx]
        span.t1 = clock()
        return span

    def timed(self, name: str, fn, before=None, after=None):
        """``fn`` wrapped in a span; ``before(args)`` and ``after(result)``
        return extra span attributes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name, **(_safe(before, args) or {}))
            try:
                out = fn(*args, **kwargs)
                self.spans[idx].attrs.update(_safe(after, out) or {})
                return out
            finally:
                self.end(idx)

        return wrapper

    def to_json(self) -> list:
        return [{"name": s.name, "t0": s.t0, "t1": s.t1, "parent": s.parent,
                 **s.attrs} for s in self.spans]


def _safe(fn, value):
    # attribute probes must not break the traced program after a refactor
    if fn is None:
        return None
    try:
        return fn(value)
    except (AttributeError, IndexError, TypeError, ValueError):
        return None


# ---------------------------------------------------------------------------
# hooks


def _gru_attrs(x_seq, h0) -> dict:
    """Cell steps and matmul flops of one ``gru_sequence`` call.

    Forward: three input and three recurrent products per cell and step,
    6*T*B*h*(d+h) flops. Backward computes twice that (dX, dW, dU and the
    recurrent dh products). Elementwise gate arithmetic is not counted.
    """
    t_len, b, d = x_seq.data.shape
    h = h0.data.shape[-1]
    return {"cell_steps": t_len * b, "flops": 6 * t_len * b * h * (d + h)}


# (module, attribute path, span name)
HOOKS = [
    ("dyncause.training", "batched_forward", "model.forward"),
    ("dyncause.training", "adam_step", "training.adam"),
    ("dyncause.training", "standardize", "training.standardize"),
    ("dyncause.model", "gru_sequence", "blocks.gru_fwd"),
    ("dyncause.autodiff", "Tape.backward", "autodiff.backward"),
    ("dyncause.autodiff", "Tape.record", "blocks.gru_bwd"),
    ("dyncause.simulate", "gen_var", "simulate.gen"),
    ("dyncause.simulate", "gen_switching_var", "simulate.gen"),
    ("dyncause.model", "build_node_models", "model.init"),
]


class Hooks:
    """Installs the span wrappers on the loaded dyncause modules."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.missing: set = set()  # span names with at least one absent hook
        self._saved: list = []

    def install(self) -> None:
        for module_name, path, span_name in HOOKS:
            owner = sys.modules.get(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                self.missing.add(span_name)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(span_name, original))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, span_name: str, fn):
        tracer = self.tracer
        if span_name == "blocks.gru_fwd":
            return tracer.timed(span_name, fn, before=lambda a: _gru_attrs(a[0], a[1]))
        if span_name == "model.forward":
            return tracer.timed(span_name, fn,
                                after=lambda out: {"tape_nodes": len(out.tape)})
        if span_name == "blocks.gru_bwd":
            return self._wrap_record(fn)
        return tracer.timed(span_name, fn)

    def _wrap_record(self, record):
        """Time the backward closure that ``gru_sequence`` registers."""
        tracer = self.tracer

        @functools.wraps(record)
        def wrapper(tape, out_data, parents, backward_fn, *args, **kwargs):
            op = kwargs.get("op", args[0] if args else None)
            if op == "gru_sequence" and callable(backward_fn):
                attrs = _safe(lambda p: _gru_attrs(p[0], p[1]), parents) or {}
                if "flops" in attrs:
                    attrs["flops"] *= 2
                backward_fn = tracer.timed("blocks.gru_bwd", backward_fn,
                                           before=lambda _: attrs)
            return record(tape, out_data, parents, backward_fn, *args, **kwargs)

        return wrapper


# ---------------------------------------------------------------------------
# per-layer metrics


def covered(spans: list, a: float, b: float) -> float:
    """Length of [a, b) covered by the union of the spans' intervals."""
    total, reach = 0.0, a
    for s in sorted(spans, key=lambda s: s.t0):
        lo, hi = max(s.t0, reach), min(s.t1, b)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class SpanIndex:
    def __init__(self, spans: list):
        self.spans = spans
        self.children: dict = {}
        for i, s in enumerate(spans):
            self.children.setdefault(s.parent, []).append(i)

    def kids(self, idx: int, name: str | None = None) -> list:
        return [self.spans[i] for i in self.children.get(idx, [])
                if name is None or self.spans[i].name == name]

    def self_time(self, idx: int) -> float:
        s = self.spans[idx]
        return s.dur - covered(self.kids(idx), s.t0, s.t1)

    def named(self, name: str, a: float = float("-inf"), b: float = float("inf")) -> list:
        return [i for i, s in enumerate(self.spans)
                if s.name == name and s.t0 >= a and s.t1 <= b]


def split_train_call(index: SpanIndex, train_idx: int, epochs: int, chunks: int):
    """Per-epoch layer times (ms) and counts of one traced ``train()`` call.

    Epoch k runs from the start of its first forward to the start of the
    next epoch's first forward; the last epoch ends where the epilogue
    forward (the final forward after training) starts. Returns None when
    the forward spans do not match ``epochs * chunks + 1``.
    """
    train = index.spans[train_idx]
    forwards = index.kids(train_idx, "model.forward")
    if len(forwards) != epochs * chunks + 1:
        return None
    bounds = [forwards[k * chunks].t0 for k in range(epochs + 1)]
    spans = index.spans
    ms = lambda ids: sum(spans[i].dur for i in ids) * 1e3
    self_ms = lambda ids: sum(index.self_time(i) for i in ids) * 1e3
    attr_sum = lambda ids, key: sum(spans[i].attrs.get(key, 0) for i in ids)
    per_epoch = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        fwd = index.named("model.forward", a, b)
        bwd = index.named("autodiff.backward", a, b)
        adam = index.named("training.adam", a, b)
        gru_f = index.named("blocks.gru_fwd", a, b)
        gru_b = index.named("blocks.gru_bwd", a, b)
        top = [s for s in index.kids(train_idx) if s.t0 >= a and s.t1 <= b]
        gru = gru_f + gru_b
        per_epoch.append({
            "epoch_ms": (b - a) * 1e3,
            "model.forward_ms": ms(fwd),
            "model.forward_self_ms": self_ms(fwd),
            "autodiff.backward_ms": ms(bwd),
            "autodiff.backward_self_ms": self_ms(bwd),
            "blocks.gru_fwd_ms": ms(gru_f),
            "blocks.gru_bwd_ms": ms(gru_b),
            "training.adam_ms": ms(adam),
            "training.loop_self_ms": ((b - a) - covered(top, a, b)) * 1e3,
            "blocks.gru_calls": len(gru_f),
            "blocks.gru_cell_steps": attr_sum(gru_f, "cell_steps"),
            "model.forward_calls": len(fwd),
            "model.tape_nodes": attr_sum(fwd, "tape_nodes"),
            "training.adam_calls": len(adam),
            "gru_flops": (attr_sum(gru, "flops")
                          if all("flops" in spans[i].attrs for i in gru) else None),
        })
    standardize = index.kids(train_idx, "training.standardize")
    return {"epochs": per_epoch,
            "training.standardize_ms": (standardize[0].dur * 1e3 if standardize
                                        else None),
            "training.epilogue_ms": (train.t1 - bounds[-1]) * 1e3}


# metric -> span names it needs hooked
NEEDS = {
    "simulate.gen_ms": {"simulate.gen"},
    "model.init_ms": {"model.init"},
    "blocks.gru_fwd_ms": {"model.forward", "blocks.gru_fwd"},
    "blocks.gru_bwd_ms": {"model.forward", "blocks.gru_bwd"},
    "blocks.gru_calls": {"model.forward", "blocks.gru_fwd"},
    "blocks.gru_cell_steps": {"model.forward", "blocks.gru_fwd"},
    "blocks.gru_gflops_computed": {"model.forward", "blocks.gru_fwd", "blocks.gru_bwd"},
    "model.forward_ms": {"model.forward"},
    "model.forward_self_ms": {"model.forward", "blocks.gru_fwd"},
    "model.forward_calls": {"model.forward"},
    "model.tape_nodes": {"model.forward"},
    "autodiff.backward_ms": {"model.forward", "autodiff.backward"},
    "autodiff.backward_self_ms": {"model.forward", "autodiff.backward", "blocks.gru_bwd"},
    "training.adam_ms": {"model.forward", "training.adam"},
    "training.adam_calls": {"model.forward", "training.adam"},
    "training.loop_self_ms": {"model.forward", "autodiff.backward", "training.adam"},
    "training.standardize_ms": {"training.standardize"},
    "training.epilogue_ms": {"model.forward"},
    "training.epoch_p50_ms": {"model.forward"},
    "training.epoch_p90_ms": {"model.forward"},
}


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) >= 2 else None


def per_layer(tracer: Tracer, missing: set, epochs: int, chunks: int,
              traced_epoch_ms: list, untraced_epoch_ms: list) -> tuple:
    """(metrics, notes): metric name -> value or None, and sample counts.

    Per-epoch figures are the mean over one call's epochs (so the parts add
    up to the epoch), then the median over the traced calls.
    """
    index = SpanIndex(tracer.spans)
    setups = set(index.named("setup"))
    in_setup = lambda name: [index.spans[i].dur for i in index.named(name)
                             if index.spans[i].parent in setups]
    calls = [c for c in (split_train_call(index, i, epochs, chunks)
                         for i in index.named("train")) if c is not None]
    epoch_rows = [row for c in calls for row in c["epochs"]]

    def per_call(key):
        means = []
        for c in calls:
            vals = [row[key] for row in c["epochs"]]
            means.append(None if None in vals else sum(vals) / len(vals))
        return _median(means)

    m = {"dyncause.import_s": _median(in_setup("dyncause.import")),
         "simulate.gen_ms": _median([d * 1e3 for d in in_setup("simulate.gen")]),
         "model.init_ms": _median([d * 1e3 for d in in_setup("model.init")])}
    for key in ("blocks.gru_fwd_ms", "blocks.gru_bwd_ms", "blocks.gru_calls",
                "blocks.gru_cell_steps", "model.forward_ms", "model.forward_self_ms",
                "model.forward_calls", "model.tape_nodes", "autodiff.backward_ms",
                "autodiff.backward_self_ms", "training.adam_ms", "training.adam_calls",
                "training.loop_self_ms"):
        m[key] = per_call(key) if calls else None
    gflops = []
    for c in calls:
        flops = [row["gru_flops"] for row in c["epochs"]]
        secs = sum(row["blocks.gru_fwd_ms"] + row["blocks.gru_bwd_ms"]
                   for row in c["epochs"]) / 1e3
        gflops.append(None if None in flops or secs <= 0 else sum(flops) / secs / 1e9)
    m["blocks.gru_gflops_computed"] = _median(gflops)
    m["training.standardize_ms"] = _median([c["training.standardize_ms"] for c in calls])
    m["training.epilogue_ms"] = _median([c["training.epilogue_ms"] for c in calls])
    epoch_ms = [row["epoch_ms"] for row in epoch_rows]
    m["training.epoch_p50_ms"] = _median(epoch_ms)
    m["training.epoch_p90_ms"] = _p90(epoch_ms)
    m["trace.overhead_pct"] = (
        (statistics.median(traced_epoch_ms) / statistics.median(untraced_epoch_ms) - 1)
        * 100 if traced_epoch_ms and untraced_epoch_ms else None)
    for key, needs in NEEDS.items():
        if needs & missing:
            m[key] = None
    notes = {"traced_calls": len(calls), "epoch_samples": len(epoch_ms),
             "untraced_calls": len(untraced_epoch_ms), "missing_hooks": sorted(missing)}
    return m, notes
