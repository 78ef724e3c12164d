"""Run the benchmark over several seeds, twice, and summarise the spread.

    python3 perfbench/sweep.py --seeds 1-10 [--traced-seeds 1-3] [--out FILE]

Runs ``BENCHMARK.json``'s command once per (seed, workload) for every
workload it lists, each run as long as its ``run_seconds``; seeds are outer
so that slow drift of the machine touches every workload alike. The whole
seed list is then run a second time. For each end-to-end metric it prints,
per set, the median, the quartiles of ``statistics.quantiles(values, n=4)``
and their distance as a share of the median, against the metric's bound,
and how far the second set's median lies from the first's. ``--out`` writes
the summary, plus the median of each per-layer metric over the traced
seeds, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]
NOTE = ("Made with perfbench/sweep.py. 'end_to_end': median and quartiles over the "
        "seeds (statistics.quantiles n=4; spread = (q3-q1)/median). 'repeat': a second "
        "set of the same untraced runs, made right after the first; 'repeat_vs_first' "
        "is its median over the first set's median minus 1 (positive = larger). "
        "'per_layer': median over the traced seeds.")


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",") if s]


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(BENCH["run_seconds"]),
                              "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    result["exit_code"] = proc.returncode
    result["env"] = next((json.loads(line[4:]) for line in lines
                          if line.startswith("env ")), None)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    return result


def run_set(seeds: list, trace: int, label: str) -> dict:
    results = {name: [] for name in NAMES}
    for seed in seeds:
        for name in NAMES:
            results[name].append(run_once(name, seed, trace))
            print(f"{label} {name} seed {seed}: " + json.dumps(
                {k: None if v["value"] is None else round(v["value"], 4)
                 for k, v in results[name][-1].get("metrics", {}).items()}), flush=True)
    return results


def summarise(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def end_to_end(runs: list) -> dict:
    out = {}
    for metric in BENCH["end_to_end"]:
        key = metric["name"]
        values = [r["metrics"][key]["value"] for r in runs if key in r.get("metrics", {})]
        if len(values) >= 2:
            out[key] = summarise(values)
    return out


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--traced-seeds", default="")
    p.add_argument("--out", type=Path)
    args = p.parse_args()
    seeds, traced_seeds = seed_list(args.seeds), seed_list(args.traced_seeds)

    first = run_set(seeds, 0, "first")
    repeat = run_set(seeds, 0, "repeat")
    traced = run_set(traced_seeds, 1, "traced")

    summary = {"note": NOTE, "seconds": BENCH["run_seconds"], "seeds": seeds,
               "traced_seeds": traced_seeds, "workloads": {}}
    for name in NAMES:
        runs = first[name] + repeat[name]
        entry = {"env": first[name][0]["env"],
                 "attempted": sum(r.get("attempted", 0) for r in runs),
                 "failed": sum(r.get("failed", 0) for r in runs),
                 "nonzero_exits": sum(r["exit_code"] != 0 for r in runs),
                 "end_to_end": end_to_end(first[name]),
                 "repeat": end_to_end(repeat[name]),
                 "repeat_vs_first": {}, "per_layer": {}}
        print(f"\n{name}: {entry['attempted']} attempts, {entry['failed']} failed, "
              f"{entry['nonzero_exits']} non-zero exits")
        for metric in BENCH["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            if key not in entry["end_to_end"] or key not in entry["repeat"]:
                print(f"  {key:12s} missing")
                continue
            a, b = entry["end_to_end"][key], entry["repeat"][key]
            a.update(unit=metric["unit"], bound=bound)
            drift = b["median"] / a["median"] - 1
            entry["repeat_vs_first"][key] = drift
            worse = drift if metric["better"] == "lower" else -drift
            flag = ("ok" if max(a["spread"], b["spread"]) < bound / 3 else
                    "within bound" if max(a["spread"], b["spread"]) <= bound else
                    "TOO WIDE")
            if worse > bound:
                flag += ", REPEAT WORSE"
            print(f"  {key:12s} median {a['median']:.6g} {metric['unit']}  "
                  f"q1 {a['q1']:.6g}  q3 {a['q3']:.6g}  spread {a['spread']:.3f} / "
                  f"{b['spread']:.3f}  repeat {drift:+.3f}  bound {bound}  {flag}")
        for metric in BENCH["per_layer"]:
            key = metric["name"]
            values = [r["metrics"][key]["value"] for r in traced[name]
                      if r.get("metrics", {}).get(key, {}).get("value") is not None]
            if values:
                entry["per_layer"][key] = {"median": statistics.median(values),
                                           "unit": metric["unit"], "runs": len(values)}
        summary["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
