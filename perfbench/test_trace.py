"""The traced split adds up, and hooks fail soft.

Run with ``python -m pytest perfbench``.
"""

import numpy as np
import pytest

import run  # puts src/ on sys.path and pins BLAS threads
import tracing
import workloads

# forward, backward, Adam and loop self times (with the GRU spans nested in
# forward and backward) must cover each epoch span to within this fraction
RECONCILE_FRACTION = 0.01
EPOCH_PARTS = ("blocks.gru_fwd_ms", "model.forward_self_ms", "blocks.gru_bwd_ms",
               "autodiff.backward_self_ms", "training.adam_ms", "training.loop_self_ms")


def traced_fit(series_fn, name, epochs=3):
    api = run.load_dyncause()
    x = series_fn(api.simulate)
    config, weights = workloads.configs(api.training, name, 3, epochs=epochs)
    hooks = tracing.Hooks(tracing.Tracer())
    hooks.install()
    idx = hooks.tracer.begin("train")
    try:
        api.training.train(x, config, weights)
    finally:
        hooks.tracer.end(idx)
        hooks.remove()
    chunks = workloads.chunks_per_epoch(config, x.shape[0])
    return api, hooks, idx, chunks, config


CASES = {
    "var10-node": lambda sim: sim.gen_var(5, 1, 60, 1)[0],
    "var20-shared": lambda sim: sim.gen_var(6, 1, 60, 2)[0],
    "switch8-windows": lambda sim: workloads.cut_windows(
        sim.gen_switching_var(4, 200, 100, 3)[0], 20),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_self_times_add_up_to_each_epoch(name):
    _, hooks, idx, chunks, config = traced_fit(CASES[name], name)
    split = tracing.split_train_call(tracing.SpanIndex(hooks.tracer.spans), idx,
                                     config.epochs, chunks)
    assert split is not None and len(split["epochs"]) == config.epochs
    for row in split["epochs"]:
        parts = [row[key] for key in EPOCH_PARTS]
        assert min(parts) >= 0.0
        assert abs(sum(parts) - row["epoch_ms"]) <= RECONCILE_FRACTION * row["epoch_ms"]
        assert row["model.forward_calls"] == chunks
        assert row["training.adam_calls"] == chunks
        assert row["blocks.gru_calls"] >= chunks
        assert row["model.tape_nodes"] > 0 and row["gru_flops"] > 0
    assert split["training.epilogue_ms"] > 0 and split["training.standardize_ms"] > 0


def test_hooks_restore_the_original_functions():
    api = run.load_dyncause()
    before = (api.training.batched_forward, api.autodiff.Tape.backward,
              api.autodiff.Tape.record, api.model.gru_sequence)
    hooks = tracing.Hooks(tracing.Tracer())
    hooks.install()
    assert api.training.batched_forward is not before[0]
    hooks.remove()
    assert (api.training.batched_forward, api.autodiff.Tape.backward,
            api.autodiff.Tape.record, api.model.gru_sequence) == before


def test_a_renamed_function_is_reported_missing(monkeypatch):
    hooked = [(m, "adam_step_renamed" if path == "adam_step" else path, span)
              for m, path, span in tracing.HOOKS]
    monkeypatch.setattr(tracing, "HOOKS", hooked)
    _, hooks, idx, chunks, config = traced_fit(CASES["var10-node"], "var10-node", 2)
    assert hooks.missing == {"training.adam"}
    metrics, notes = tracing.per_layer(hooks.tracer, hooks.missing, config.epochs,
                                       chunks, [1.0], [1.0])
    assert metrics["training.adam_ms"] is None
    assert metrics["training.loop_self_ms"] is None
    assert metrics["blocks.gru_fwd_ms"] > 0
    assert notes["missing_hooks"] == ["training.adam"]


def test_covered_merges_overlapping_spans():
    spans = [tracing.Span("a", 0.0, 2.0, None), tracing.Span("b", 1.0, 3.0, None),
             tracing.Span("c", 5.0, 9.0, None)]
    assert tracing.covered(spans, 0.0, 6.0) == pytest.approx(4.0)
    assert np.isclose(tracing.covered([], 0.0, 1.0), 0.0)
