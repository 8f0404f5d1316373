"""``fleet_replay``: the in-process edge fleet, timed in wall time.

The fleet benchmark's shape (16 edges, 16 regions, a 240-item catalog,
32-artifact edge caches) over a longer open-loop tape of about 75k
requests per pass, built by ``open_loop_requests`` in set-up. Each timed
repetition builds a fresh fleet and replays the tape twice: a cold pass,
then a warm pass shifted forward in simulated time. No sockets,
generation or PNG encoding: the work is ``cdn`` routing and ``gencache``
keying.

An op is one simulated second of traffic: its ~32 ``EdgeFleet.serve``
calls. A single call takes about 20 us and calls are bimodal (edge hits
against everything else, near half and half), so per-call percentiles
jumped between the two modes from run to run. Wall and CPU time are
taken around each op's calls only; between ops, every 50 simulated
seconds, the replay samples the host's speed (``common.HostSpeed``).

Every repetition must reproduce the first one's cold and warm summaries
exactly (the simulation is deterministic), and with the default seed
they must equal the summaries in ``expected.json``.
"""

from __future__ import annotations

import time
from array import array

from common import HostSpeed, Outcome, load_expected, median, proc_hwm_mib, timed_setups

REGIONS = 16
EDGES = 16
RATE_PER_S = 2.0
DURATION_S = 2340.0
CATALOG_ITEMS = 240
MEDIA_BYTES = 750_000
GENCACHE_ITEMS = 32


def default_regions_for_fleet():
    from repro.workloads.traffic import default_regions

    return default_regions(REGIONS, rate_per_s=RATE_PER_S)


def build_inputs(seed: int):
    from repro.cdn.fleet import build_fleet_catalog
    from repro.workloads.traffic import open_loop_requests

    regions = default_regions_for_fleet()
    catalog = build_fleet_catalog(CATALOG_ITEMS, media_bytes=MEDIA_BYTES)
    begin = time.perf_counter()
    tape = open_loop_requests(regions, sorted(catalog.items), DURATION_S, seed=seed)
    tape_s = time.perf_counter() - begin
    # One op is one simulated second of traffic: its requests in tape order.
    seconds: list[list[tuple[str, str, float]]] = [[] for _ in range(int(DURATION_S))]
    for r in tape:
        seconds[int(r.time_s)].append((r.region, r.key, r.time_s))
    return regions, catalog, seconds, tape_s


def new_fleet(regions, catalog):
    from repro.cdn.fleet import EdgeFleet, FleetConfig
    from repro.cdn.placement import HashRing
    from repro.cdn.router import FleetRouter

    config = FleetConfig(edges=EDGES, gencache_bytes=GENCACHE_ITEMS * MEDIA_BYTES)
    ring = HashRing(config.edge_names(), config.vnodes)
    return EdgeFleet(catalog, config, FleetRouter(regions, ring), ring=ring)


def summary(stats) -> dict:
    """The checked part of a pass: tier counts, hit rate, simulated
    latency percentiles and origin bytes."""
    full = stats.summary()
    return {
        "requests": full["requests"],
        "tiers": {tier: row["count"] for tier, row in full["tiers"].items()},
        "fleet_hit_rate": full["fleet_hit_rate"],
        "p50_s": full["p50_s"],
        "p99_s": full["p99_s"],
        "origin_bytes": full["origin_bytes"],
    }


#: Simulated seconds between two samples of the host's speed.
SAMPLE_EVERY = 50


def replay(fleet, tape, offset_s: float, latencies, outcome=None):
    """One pass over the tape, one simulated second at a time. Each
    second's wall time (ns) goes to ``latencies``; with ``outcome``, its
    wall and CPU seconds go to ``busy_s`` and ``cpu_s`` and the host's
    speed is sampled as the pass runs."""
    from repro.workloads.session import OpenLoopStats

    stats = OpenLoopStats()
    serve = fleet.serve
    clock = time.perf_counter_ns
    cpu_clock = time.process_time_ns
    busy = cpu = 0
    for index, second in enumerate(tape):
        if outcome is not None and index % SAMPLE_EVERY == 0:
            outcome.speed.sample(len(latencies))
        cpu_start = cpu_clock()
        start = clock()
        results = [serve(region, key, time_s + offset_s) for region, key, time_s in second]
        elapsed = clock() - start
        cpu += cpu_clock() - cpu_start
        busy += elapsed
        latencies.append(elapsed)
        for result in results:
            stats.observe(result)
    if outcome is not None:
        outcome.busy_s += busy / 1e9
        outcome.cpu_s += cpu / 1e9
    return stats


def measure(ctx, seconds: float, setups: int, trace_dir=None, recorder=None) -> Outcome:
    outcome = Outcome(speed=HostSpeed())
    tape_times = []

    def set_up(last: bool):
        regions, catalog, tape, tape_s = build_inputs(ctx.seed)
        new_fleet(regions, catalog)
        tape_times.append(tape_s)
        return regions, catalog, tape

    regions, catalog, tape = timed_setups(outcome, setups, set_up)
    reference = load_expected()["fleet_replay"] if ctx.seed == ctx.default_seed else None
    requests = sum(len(second) for second in tape)
    latencies = array("q")
    first: dict = {}
    outcome.window_ns = [time.perf_counter_ns(), 0]
    deadline = time.perf_counter() + seconds
    passes = 0
    # Whole cold+warm repetitions, at least one, until the deadline.
    while passes % 2 or passes == 0 or time.perf_counter() < deadline:
        name, offset = ("cold", 0.0) if passes % 2 == 0 else ("warm", DURATION_S)
        if name == "cold":
            fleet = new_fleet(regions, catalog)
        if recorder is not None:
            recorder.op = passes
        got = summary(replay(fleet, tape, offset, latencies, outcome))
        passes += 1
        outcome.attempted += len(tape)
        first.setdefault(name, got)
        if got != first[name]:
            outcome.fail(f"pass {passes}: {name} pass differs from the first {name} pass")
        elif reference is not None and got != reference[name]:
            outcome.fail(f"{name} pass differs from expected.json: {got}")
        if got["requests"] != requests:
            outcome.fail(f"{name} pass served {got['requests']} of {requests}")
    outcome.window_ns[1] = time.perf_counter_ns()
    outcome.latencies = [ns / 1e9 for ns in latencies]
    outcome.peak_rss_mb = proc_hwm_mib("self")
    outcome.per_layer["workloads.tape_build.self_ms"] = 1000 * median(tape_times)
    outcome.notes.append(
        f"{passes} passes of {requests} requests in {len(tape)} simulated seconds; "
        f"warm hit rate {first['warm']['fleet_hit_rate']}"
    )
    return outcome


def record(ctx) -> dict:
    regions, catalog, tape, _ = build_inputs(ctx.seed)
    fleet = new_fleet(regions, catalog)
    return {
        "seed": ctx.seed,
        "cold": summary(replay(fleet, tape, 0.0, array("q"))),
        "warm": summary(replay(fleet, tape, DURATION_S, array("q"))),
    }
