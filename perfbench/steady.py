"""Steadiness check: run one workload k times, one seed each, and show
how far each end-to-end metric spreads next to its bound.

    python3 perfbench/steady.py --workload session -k 10

For each metric it prints the median, the quartiles, the quartile
spread as a share of the median (what the bound is compared against),
the largest run-to-run spread ((max - min) / median) and the bound from
``BENCHMARK.json``.  Runs go one at a time, so they never compete for
the machine with each other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench/steady.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("-k", type=int, default=10, help="runs (one seed each)")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: Dict[str, List[float]] = {name: [] for name in bounds}
    shares: List[float] = []
    for seed in range(args.first_seed, args.first_seed + args.k):
        done = subprocess.run(
            spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                               "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: outputs failed their checks", file=sys.stderr)
            return 1
        shares.append(result["failed"] / result["attempted"])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
    print(f"\n{args.workload}: {args.k} runs, failed share {sorted(set(shares))}")
    print(f"{'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} {'iqr/med':>8} {'range/med':>9} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _q2, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:<12} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} {(q3 - q1) / med:>8.3f} "
              f"{(max(vals) - min(vals)) / med:>9.3f} {bounds[name]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
