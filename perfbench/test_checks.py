"""The correctness gate passes on the current code and catches breakage.

Run with ``python -m pytest perfbench``.
"""

import copy
import json
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import run  # puts src/ on sys.path and pins BLAS threads
import workloads


@pytest.fixture(scope="module")
def api():
    return run.load_dyncause()


@pytest.fixture(scope="module")
def reference():
    return checks.load_reference(run.REFERENCE)


@pytest.mark.parametrize("name", sorted(workloads.EPOCHS))
def test_reference_fit_matches_and_a_corrupted_copy_fails(api, reference, name):
    fingerprint = checks.reference_fingerprint(api, name)
    checks.check_reference(fingerprint, reference, name)
    corrupted = copy.deepcopy(reference)
    corrupted["cases"][name]["final_losses"][0] *= 1.0 + 1e-5
    with pytest.raises(checks.CheckFailed):
        checks.check_reference(fingerprint, corrupted, name)


def fake_result(first, last, epochs=2):
    rows = [{"epoch": e, "node": 0, "recon": v, "struct": 0.0, "div": 0.0,
             "sparsity": 0.0, "total": v} for e, v in ((1, first), (epochs, last))]
    return SimpleNamespace(epochs_run=epochs, history=rows)


def test_check_fit():
    checks.check_fit(fake_result(2.0, 1.5), 2)
    with pytest.raises(checks.CheckFailed):
        checks.check_fit(fake_result(2.0, 2.0), 2)
    with pytest.raises(checks.CheckFailed):
        checks.check_fit(fake_result(2.0, float("nan")), 2)
    with pytest.raises(checks.CheckFailed):
        checks.check_fit(fake_result(2.0, 1.5), 3)  # stopped early


def test_check_outputs_and_replay():
    masks = np.full((1, 2, 3, 3), 0.5)
    checks.check_outputs(masks, np.zeros((1, 2, 3, 1)))
    with pytest.raises(checks.CheckFailed):
        checks.check_outputs(np.ones_like(masks), np.zeros((1, 2, 3, 1)))
    with pytest.raises(checks.CheckFailed):
        checks.check_outputs(masks, np.full((1, 2, 3, 1), np.inf))
    checks.check_replay(masks.copy(), masks)
    with pytest.raises(checks.CheckFailed):
        checks.check_replay(np.nextafter(masks, 1.0), masks)


def test_saturated_mask_counts_as_failed_attempt(monkeypatch, capsys):
    def saturated(api, *args, **kwargs):
        # what train() raises when a mask reaches 1
        api.model.CausalMaskSeries(np.ones((1, 2, 3, 3)))

    monkeypatch.setattr(run, "attempt", saturated)
    monkeypatch.setattr(run, "pin_cpu", lambda: None)
    code = run.main(["--workload", "var10-node", "--seed", "1", "--seconds", "0"])
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert code == 1
    assert any(line.startswith("FAILED ValueError") for line in out)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == run.QUALITY_FITS
    assert result["metrics"] == {}
