"""dyncause training benchmark.

    python3 perfbench/run.py --workload var10-node --seed 1 --seconds 20 --trace 0

Runs one workload through the public dyncause API from the repository's
``src/`` directory and prints a report, then, as the last line, one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end ones (setup_s, epoch_ms, mask_ms, peak_rss_mb,
final_loss, auroc); with ``--trace 1`` they are the per-layer split, and the
spans are written to ``.perfbench_out/``.

One attempt is a ``train()`` call on freshly initialised models plus the
correctness checks of ``checks.py``; attempts repeat until ``--seconds``
would be exceeded (at least ``QUALITY_FITS``). Any failed attempt makes the
exit code 1 and leaves the metrics out.
"""

import os

# pin BLAS before numpy is first imported: the plain single-thread baseline
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from auroc import offdiag_auroc  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
OUT_DIR = ROOT / ".perfbench_out"

# Set-ups are spread over the run, before every attempt, so that their
# median sees the same machine load as the training timings.
SETUPS_PER_ATTEMPT = 3
MASK_CALLS = 3  # forward_full calls timed per attempt
# Attempt k initialises the models with seed*QUALITY_FITS + (k % QUALITY_FITS).
# final_loss and auroc are means over the first QUALITY_FITS attempts, which
# always run: one fit's AUROC varies mostly with the initialisation. At these
# epoch counts the masks sit near chance (AUROC about 0.5), so auroc cannot
# catch a fit that falls to chance; final_loss and the reference check can.
QUALITY_FITS = 6

clock = time.perf_counter

def load_dyncause():
    """Import dyncause afresh from ``src/`` (module code re-executed)."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "dyncause" or m.startswith("dyncause.")]:
        del sys.modules[name]
    training = importlib.import_module("dyncause.training")
    return SimpleNamespace(training=training,
                           model=sys.modules["dyncause.model"],
                           simulate=sys.modules["dyncause.simulate"],
                           autodiff=sys.modules["dyncause.autodiff"])


def set_up(name, seed, hooks=None):
    """Import dyncause, generate the series, build configs and models."""
    tracer = hooks.tracer if hooks else None
    idx = tracer.begin("setup") if tracer else None
    t0 = clock()
    span = tracer.begin("dyncause.import") if tracer else None
    api = load_dyncause()
    if tracer:
        tracer.end(span)
        hooks.install()
    inputs = workloads.generate(api.simulate, name, seed)
    config, weights = workloads.configs(api.training, name, seed)
    _, n, _, d = inputs.x.shape
    api.model.build_node_models(n, d, config.model_config(), config.seed)
    elapsed = clock() - t0
    if tracer:
        hooks.remove()
        tracer.end(idx)
    return elapsed, api, inputs, config, weights


def score(masks: np.ndarray, regimes: list) -> float:
    """Mean over regimes of the off-diagonal AUROC of time-averaged masks."""
    return float(np.mean([offdiag_auroc(masks[samples].mean(axis=(0, 1)), adj)
                          for samples, adj in regimes]))


def attempt(api, name, inputs, config, weights, reference, hooks=None):
    """One train() call plus its checks; returns timings and fit quality."""
    x = inputs.x
    _, n, _, d = x.shape
    models = api.model.build_node_models(n, d, config.model_config(), config.seed)
    if hooks:
        hooks.install()
        idx = hooks.tracer.begin("train")
    t0 = clock()
    try:
        result = api.training.train(x, config, weights, models=models)
    finally:
        train_s = clock() - t0
        if hooks:
            hooks.tracer.end(idx)
            hooks.remove()
    checks.check_fit(result, config.epochs)
    checks.check_outputs(result.masks.values, result.predictions.values)
    mask_ms = []
    for _ in range(MASK_CALLS):
        t0 = clock()
        masks, preds = api.model.forward_full(result.models, api.simulate.standardize(x))
        mask_ms.append((clock() - t0) * 1e3)
        checks.check_replay(masks.values, result.masks.values)
        checks.check_outputs(masks.values, preds.values)
    checks.check_reference(checks.reference_fingerprint(api, name), reference, name)
    return {"epoch_ms": train_s * 1e3 / config.epochs, "mask_ms": mask_ms,
            "final_loss": float(np.mean(result.final_losses)),
            "auroc": score(result.masks.values, inputs.regimes)}


def git_commit() -> str:
    """HEAD commit of the checkout; 'unknown' outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int, cpu) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {"git_commit": git_commit(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_name, "blas_threads": BLAS_THREADS,
            "nproc": os.cpu_count(), "numba": importlib.util.find_spec("numba") is not None,
            "machine": platform.machine(), "pinned_cpu": cpu, "seed": seed}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.EPOCHS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", type=Path, default=REFERENCE,
                   help="stored short-fit results to check against")
    return p.parse_args(argv)


def pin_cpu():
    """Keep the single-threaded run on one CPU, the highest-numbered one
    (CPU 0 usually takes most interrupts), so that every run measures on the
    same core instead of wherever the scheduler first placed it."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv=None) -> int:
    args = parse_args(argv)
    cpu = pin_cpu()
    name = args.workload
    reference = checks.load_reference(args.reference)
    hooks = None
    if args.trace:
        import tracing  # untraced runs never load the hooks

        hooks = tracing.Hooks(tracing.Tracer())

    setup_s, runs, errors, quality = [], [], [], []
    traced_epoch_ms, untraced_epoch_ms = [], []
    start = clock()
    last = attempted = 0
    while attempted < QUALITY_FITS or clock() - start + last <= args.seconds:
        t0 = clock()
        for _ in range(SETUPS_PER_ATTEMPT):
            elapsed, api, inputs, config, weights = set_up(name, args.seed, hooks)
            setup_s.append(elapsed)
        # ValueError covers ShapeError and the range checks that the mask and
        # prediction containers apply to train()'s and forward_full's output
        failures = (api.training.TrainingError, api.autodiff.NumericError,
                    ValueError, checks.CheckFailed)
        traced = bool(hooks) and attempted % 2 == 0
        init = replace(config, seed=args.seed * QUALITY_FITS + attempted % QUALITY_FITS)
        try:
            run = attempt(api, name, inputs, init, weights, reference,
                          hooks if traced else None)
        except failures as err:
            errors.append(f"{type(err).__name__}: {err}")
        else:
            runs.append(run)
            if attempted < QUALITY_FITS:
                quality.append(run)
            if hooks:
                (traced_epoch_ms if traced else untraced_epoch_ms).append(run["epoch_ms"])
        last = clock() - t0
        attempted += 1

    print(f"workload {name}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(environment(args.seed, cpu)))
    for err in errors:
        print(f"FAILED {err}")
    print(f"failed_frac {len(errors) / attempted:.4f} 1  "
          f"({len(errors)} of {attempted} attempts)")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    if not errors:
        if hooks:
            chunks = workloads.chunks_per_epoch(config, inputs.x.shape[0])
            values, notes = tracing.per_layer(hooks.tracer, hooks.missing, config.epochs,
                                              chunks, traced_epoch_ms, untraced_epoch_ms)
            listed, counts = bench["per_layer"], {}
        else:
            values = {
                "setup_s": statistics.median(setup_s),
                "epoch_ms": statistics.median(r["epoch_ms"] for r in runs),
                "mask_ms": statistics.median(t for r in runs for t in r["mask_ms"]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "final_loss": statistics.fmean(r["final_loss"] for r in quality),
                "auroc": statistics.fmean(r["auroc"] for r in quality),
            }
            listed = bench["end_to_end"]
            counts = {"setup_s": f"median of {len(setup_s)} set-ups",
                      "epoch_ms": f"median of {len(runs)} train() calls "
                                  f"x {config.epochs} epochs",
                      "mask_ms": f"median of {len(runs) * MASK_CALLS} forward_full calls",
                      "final_loss": f"mean of {len(quality)} fits",
                      "auroc": f"mean of {len(quality)} fits"}
        for m in listed:
            value = values.get(m["name"])
            shown = "missing" if value is None else f"{value:.6g}"
            print(f"{m['name']:28s} {shown} {m['unit']}  {counts.get(m['name'], '')}")
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        if hooks:
            print("trace " + json.dumps(notes))
            OUT_DIR.mkdir(exist_ok=True)
            out = OUT_DIR / f"trace-{name}-seed{args.seed}.json"
            out.write_text(json.dumps({"env": environment(args.seed, cpu), "notes": notes,
                                       "metrics": values,
                                       "spans": hooks.tracer.to_json()}))

    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": len(errors), "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
