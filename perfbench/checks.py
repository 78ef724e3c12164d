"""Correctness gate applied to every attempt (one ``train()`` call).

1. Every loss is finite, the fit ran its fixed epoch count, and the last
   epoch's mean total loss is below the first's.
2. Masks lie strictly inside (0, 1) and predictions are finite.
3. ``forward_full(result.models, standardize(x))`` reproduces
   ``result.masks`` bit for bit.
4. A short fixed-seed fit matches ``reference.json`` within the tolerance
   stored next to the values.
"""

from __future__ import annotations

import json
import math

import numpy as np

import workloads


class CheckFailed(Exception):
    """An attempt's output is wrong."""


def check_fit(result, epochs: int) -> None:
    if result.epochs_run != epochs:
        raise CheckFailed(f"ran {result.epochs_run} epochs, expected {epochs}")
    by_epoch: dict = {}
    for row in result.history:
        for key in ("recon", "struct", "div", "sparsity", "total"):
            if not math.isfinite(row[key]):
                raise CheckFailed(f"non-finite {key} at epoch {row['epoch']}, "
                                  f"node {row['node']}")
        by_epoch.setdefault(row["epoch"], []).append(row["total"])
    first = float(np.mean(by_epoch[1]))
    last = float(np.mean(by_epoch[epochs]))
    if not last < first:
        raise CheckFailed(f"mean total loss did not fall: {first} -> {last}")


def check_outputs(masks: np.ndarray, predictions: np.ndarray) -> None:
    if not (masks.min() > 0.0 and masks.max() < 1.0):
        raise CheckFailed(f"masks leave (0, 1): [{masks.min()}, {masks.max()}]")
    if not np.isfinite(predictions).all():
        raise CheckFailed("non-finite predictions")


def check_replay(replayed: np.ndarray, trained: np.ndarray) -> None:
    if not np.array_equal(replayed, trained):
        diff = np.max(np.abs(replayed - trained))
        raise CheckFailed(f"forward_full masks differ from train() masks by {diff}")


def reference_fingerprint(api, name: str) -> dict:
    """Final per-node losses and time-averaged masks of the short fit."""
    x = workloads.reference_series(api.simulate, name)
    config, weights = workloads.configs(api.training, name, workloads.REFERENCE_SEED,
                                        epochs=workloads.REFERENCE_EPOCHS)
    result = api.training.train(x, config, weights)
    return {"final_losses": result.final_losses.tolist(),
            "mask_mean": result.masks.values.mean(axis=(0, 1)).tolist()}


def load_reference(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_reference(fingerprint: dict, reference: dict, name: str) -> None:
    tol = reference["tolerance"]
    expected = reference["cases"][name]
    for key, want in expected.items():
        got = np.asarray(fingerprint[key])
        want = np.asarray(want)
        if got.shape != want.shape or not np.allclose(got, want, rtol=tol["rtol"],
                                                      atol=tol["atol"]):
            raise CheckFailed(f"reference fit '{name}' {key} differs from the stored "
                              f"values beyond rtol={tol['rtol']}, atol={tol['atol']}")
