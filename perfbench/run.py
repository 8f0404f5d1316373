"""Wall-clock benchmark of the SWW reproduction: one command, three workloads.

    python3 perfbench/run.py --workload browse --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics (tracing off). ``--trace 1``
first repeats the workload untraced for half the time, then runs it with
span wrappers installed in this process and in every server process for
the other half, and prints the per-layer metrics (see README.md). The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. Lines before it start with
``#``: the host fingerprint, notes (with the unscaled figures) and any
failed output checks.

The process re-executes itself once with a fixed ``PYTHONHASHSEED``,
which the servers it starts inherit, so string hashing (and the dict and
set layouts that follow from it) is the same in every run.

``--record`` rewrites ``expected.json`` (output digests and fleet
summaries) from the program in this checkout; it is how the reference was
made, and is not part of a measured run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "repro" / "cli.py").is_file():
    print(f"perfbench: the program's sources are missing ({SRC}/repro)", file=sys.stderr)
    sys.exit(2)
HASH_SEED = "0"
if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
    os.environ["PYTHONHASHSEED"] = HASH_SEED
    os.execv(sys.executable, [sys.executable, *sys.argv])
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import browse  # noqa: E402
import common  # noqa: E402
import fleet_replay  # noqa: E402
import materialise_tier  # noqa: E402
import spans  # noqa: E402

WORKLOADS = {
    "browse": browse,
    "materialise_tier": materialise_tier,
    "fleet_replay": fleet_replay,
}
#: The seed the reference fleet summaries in expected.json were made with.
DEFAULT_SEED = 1
SETUPS = 7


@dataclass
class Context:
    seed: int
    seconds: float
    default_seed: int = DEFAULT_SEED


def per_layer(untraced: common.Outcome, traced: common.Outcome, trace_dir: Path) -> dict:
    processes = spans.load(trace_dir)
    totals = spans.summarise(processes, *traced.window_ns)
    ops = max(1, traced.ops)
    out: dict[str, float] = {}
    for name in spans.NAMES:
        out[f"{name}.calls"] = totals[name]["calls"] / ops
        out[f"{name}.self_us"] = totals[name]["self_ns"] / 1000 / ops
    out["http2.bytes_out"] = totals["http2.data_to_send"]["extra"] / ops
    out["html.parse_html.chars"] = totals["html.parse_html"]["extra"] / ops
    out["media.encode_png.bytes"] = totals["media.encode_png"]["extra"] / ops
    lookups = totals["gencache.lookup"]
    out["gencache.hit_ratio"] = lookups["extra"] / lookups["calls"] if lookups["calls"] else 0.0
    out["gencache.evictions"] = totals["gencache.insert"]["extra"] / ops
    tier = totals["serving.tier_lookup"]
    out["serving.tier_hit_ratio"] = tier["extra"] / tier["calls"] if tier["calls"] else 0.0
    serves = totals["cdn.fleet_serve"]
    out["cdn.fleet_hit_ratio"] = serves["extra"] / serves["calls"] if serves["calls"] else 0.0
    for name in ("serving.worker_share_max", "workloads.tape_build.self_ms"):
        out[name] = traced.per_layer.get(name, 0.0)
    work_us = sum(totals[n]["self_ns"] for n in spans.NAMES if n not in spans.ASYNC_NAMES)
    mean_latency_us = 1e6 * sum(traced.latencies) / max(1, len(traced.latencies))
    out["op.unattributed_us"] = mean_latency_us - work_us / 1000 / ops
    traced_cpu = traced.metrics()["cpu_ms_per_op"]
    untraced_cpu = untraced.metrics()["cpu_ms_per_op"]
    out["trace.overhead_share"] = traced_cpu / untraced_cpu - 1.0
    layers: dict[str, float] = {}
    for name in spans.NAMES:
        if name not in spans.ASYNC_NAMES:
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + out[f"{name}.self_us"]
    top = sorted((item for item in layers.items() if item[1] > 0), key=lambda item: -item[1])[:3]
    traced.notes.append(
        "top layers by self time per op: "
        + ", ".join(f"{layer} {us:.1f} us" for layer, us in top)
    )
    traced.notes.append(
        f"traced cpu {traced_cpu:.3f} ms/op vs untraced {untraced_cpu:.3f} ms/op; "
        f"{len(processes)} span files"
    )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    mod = WORKLOADS[args.workload]
    ctx = Context(seed=args.seed, seconds=args.seconds)

    if args.record:
        path = common.BENCH_DIR / "expected.json"
        expected = json.loads(path.read_text()) if path.exists() else {}
        expected[args.workload] = mod.record(Context(seed=DEFAULT_SEED, seconds=args.seconds))
        path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
        return 0

    fingerprint = common.host_fingerprint()
    print(f"# host {json.dumps(fingerprint)}")
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} (default seed {DEFAULT_SEED})")
    if not args.trace:
        outcome = mod.measure(ctx, args.seconds, SETUPS)
        outcome.notes.append(outcome.describe())
        common.emit(outcome, trace=False)
        return 0

    trace_dir = common.WORK_DIR / f"spans-{args.workload}-{int(time.time() * 1000)}"
    try:
        untraced = mod.measure(ctx, args.seconds / 2, 1)
        spans.install()
        traced = mod.measure(ctx, args.seconds / 2, 1, trace_dir=trace_dir,
                             recorder=spans.RECORDER)
        spans.flush(trace_dir, "generator")
        traced.per_layer = per_layer(untraced, traced, trace_dir)
        traced.attempted += untraced.attempted
        traced.failed += untraced.failed
        traced.mismatches += untraced.mismatches
        common.emit(traced, trace=True)
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
