"""Steadiness check: two interleaved sets of runs of the same checkout.

    python3 perfbench/steady.py --runs 5 [--workloads browse fleet_replay] [--seconds 25]

Round ``r`` runs every workload once for set A and once for set B, and
alternates which set goes first; every run gets its own seed. For each
workload and end-to-end metric it prints both sets' median and quartiles,
the spread (interquartile range over median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) of the pooled
runs, and whether the benchmark's own bound holds: the pooled spread is
within the bound and set B's median is no worse than set A's by more
than the bound. Raw results go to
``.perfbench/steady-<time>.json``. Exit status 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed its output checks:\n{proc.stdout}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=1000, help="first seed")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two runs per set)")

    results = {w: {"A": [], "B": []} for w in args.workloads}
    seed = args.seed
    for rnd in range(args.runs):
        for label in ("AB" if rnd % 2 == 0 else "BA"):
            for workload in args.workloads:
                began = time.perf_counter()
                results[workload][label].append(run_once(workload, seed, args.seconds))
                print(f"round {rnd} set {label} {workload} seed {seed}: "
                      f"{time.perf_counter() - began:.1f} s", file=sys.stderr, flush=True)
                seed += 1

    out = ROOT / ".perfbench" / f"steady-{int(time.time())}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))

    ok = True
    for workload in args.workloads:
        print(f"\n{workload}")
        print(f"  {'metric':<18}{'set A q1/med/q3':>30}{'set B q1/med/q3':>30}"
              f"{'spread':>9}{'B vs A':>9}{'bound':>7}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [run[name] for run in results[workload]["A"]]
            b = [run[name] for run in results[workload]["B"]]
            qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
            pooled = statistics.quantiles(a + b, n=4)
            spread = (pooled[2] - pooled[0]) / pooled[1]
            change = (qb[1] - qa[1]) / qa[1]
            worse = change if metric["better"] == "lower" else -change
            good = worse <= bound and spread <= bound
            ok = ok and good
            print(f"  {name:<18}"
                  f"{'/'.join(f'{v:.4g}' for v in qa):>30}{'/'.join(f'{v:.4g}' for v in qb):>30}"
                  f"{spread:>9.3f}{change:>+9.3f}{bound:>7.2f}  "
                  f"{'agree' if good else 'DISAGREE'}{'' if spread < bound / 3 else ' (spread over bound/3)'}")
    print(f"\nraw results: {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
