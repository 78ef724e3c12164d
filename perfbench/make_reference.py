"""Regenerate reference.json, the short fixed-seed fits that every attempt
of run.py must reproduce.

    python3 perfbench/make_reference.py

Only regenerate when a change is meant to alter training results, and say
so with the change; a change that keeps results must pass against the
stored file as it is.
"""

import json

import run  # pins BLAS threads before numpy loads
import checks
import workloads

# Reordered float sums move results by a few ulps per op, which a 3-epoch
# fit amplifies to well under 1e-9 relative; any real change moves them more.
TOLERANCE = {"rtol": 1e-7, "atol": 1e-10}


def main() -> None:
    api = run.load_dyncause()
    cases = {name: checks.reference_fingerprint(api, name) for name in workloads.EPOCHS}
    doc = {"tolerance": TOLERANCE,
           "note": (f"train() for {workloads.REFERENCE_EPOCHS} epochs with seed "
                    f"{workloads.REFERENCE_SEED} on workloads.reference_series(name); "
                    "compared with numpy.allclose(rtol, atol)"),
           "cases": cases}
    run.REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
