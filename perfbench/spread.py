"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds S]

Runs ``run.py --trace 0`` once per workload and seed, one run at a time,
repeats each run's report (every end-to-end metric with its unit and sample
count, ``failed_share`` and any failed operation), and then prints for every
end-to-end metric its median and its quartile spread
(Q3 - Q1) / median, with the quartiles of ``statistics.quantiles(n=4)``,
next to the metric's bound in BENCHMARK.json.  A spread under a third of
the bound is marked steady.  Exits 1 if any run fails, any operation fails,
or any spread except that of setup_s exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from typing import List

from environment import PERFBENCH, ROOT
from stats import quartile_spread


def _seeds(text: str) -> List[int]:
    out: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    bad = False
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            bad |= result["failed"] > 0
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            report = [line for line in proc.stdout.splitlines() if line.startswith("  ")]
            print(f"{workload} seed {seed}:", *report, sep="\n", flush=True)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            if len(values[name]) < 2:
                continue  # a spread needs two runs
            spread = quartile_spread(values[name])
            verdict = "steady" if spread < bound / 3 else ("ok" if spread <= bound else "TOO WIDE")
            if spread > bound and name != "setup_s":
                bad = True
            print(f"  {workload:16s} {name:14s} median {statistics.median(values[name]):.5g} "
                  f"spread {spread:.4f} bound {bound} {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
