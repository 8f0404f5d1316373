"""``materialise_tier``: naive clients against the pre-fork arbiter.

Closed loop, two clients on one event loop. ``sww serve --workers 2`` runs
the arbiter with its shared generation-cache tier, ``--no-page-memo`` (so
every request materialises its page through the tier) and a tier smaller
than the working set. Two naive ``GenerativeClient``s fetch page HTML from
a seeded Zipf stream over ``uniform:N`` image pages plus ``gallery``,
``travel-blog`` and ``news``. Tier misses generate on the server and
insert; hits read payloads back over the tier's HTTP/2 channel. This is
the only workload that runs ``repro.serving``.

Each page body is checked against ``expected.json``.
"""

from __future__ import annotations

import asyncio
import random
import signal
import time

from common import Outcome, ServerProcess, digest, load_expected, proc_hwm_mib, timed_setups

UNIFORM_PAGES = 400
ZIPF_EXPONENT = 0.8
TIER_BYTES = 2 * 1024 * 1024
NAMED_PAGES = ["/gallery/harbour", "/blog/ridgeline-hike", "/news/transit-corridor"]
SERVE_ARGS = [
    "--workers", "2", "--no-page-memo", "--gencache-bytes", str(TIER_BYTES),
    "--pages", "gallery", "travel-blog", "news", f"uniform:{UNIFORM_PAGES}",
]
CLIENTS = 2


def ranking() -> list[str]:
    return NAMED_PAGES + [f"/uniform/uniform-{i:02d}" for i in range(UNIFORM_PAGES)]


def page_stream(seed: int):
    pages = ranking()
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(pages))]
    rng = random.Random(f"materialise_tier/{seed}")
    while True:
        yield from rng.choices(pages, weights=weights, k=256)


def new_client():
    from repro.sww.client import GenerativeClient

    return GenerativeClient(gen_ability=False)


def start_server(trace_dir=None) -> tuple[ServerProcess, int, int]:
    """Arbiter up, both workers forked, and one request served."""
    server = ServerProcess(SERVE_ARGS, trace_dir=trace_dir, tag="tier")
    lines = server.wait_banner("sww arbiter", count=4)
    port = admin_port = 0
    for line in lines:
        address = line.split(" on ", 1)[-1].split(" ", 1)[0]
        if line.startswith("sww arbiter serving on"):
            port = int(address.rsplit(":", 1)[1])
        elif line.startswith("sww arbiter admin on"):
            admin_port = int(address.rsplit(":", 1)[1])
    client = new_client()
    result = asyncio.run(client.fetch_tcp("127.0.0.1", port, NAMED_PAGES[-1]))
    if result.status != 200:
        raise RuntimeError(f"arbiter answered {result.status} while warming up")
    return server, port, admin_port


def worker_share_max(admin_port: int) -> float:
    """Largest share of requests any one worker served (``/debug/workers``)."""
    from repro.sww.admin import admin_fetch_json

    async def fetch() -> dict:
        return await admin_fetch_json("127.0.0.1", admin_port, "/debug/workers")

    rows = asyncio.run(fetch())["workers"]
    total = sum(row["requests"] for row in rows)
    return max(row["requests"] for row in rows) / total if total else 0.0


def measure(ctx, seconds: float, setups: int, trace_dir=None, recorder=None) -> Outcome:
    outcome = Outcome()
    expected = load_expected()["materialise_tier"]
    server, port, admin_port = timed_setups(
        outcome, setups, lambda last: start_server(trace_dir if last else None),
        lambda started: started[0].stop(signal.SIGTERM),
    )
    try:
        stream = page_stream(ctx.seed)
        latencies = outcome.latencies
        clients = [new_client() for _ in range(CLIENTS)]

        async def client_loop(client, deadline: float) -> None:
            while time.perf_counter() < deadline:
                path = next(stream)
                outcome.attempted += 1
                if recorder is not None:
                    recorder.op = outcome.attempted
                start = time.perf_counter()
                try:
                    result = await client.fetch_tcp("127.0.0.1", port, path)
                except (OSError, ConnectionError, RuntimeError) as exc:
                    outcome.fail(f"{path}: {type(exc).__name__}: {exc}")
                    continue
                latencies.append(time.perf_counter() - start)
                body = result.received_html.encode("utf-8")
                if result.status != 200 or digest(body) != expected.get(path):
                    outcome.fail(f"{path}: status {result.status} or body digest mismatch")

        async def timed() -> None:
            deadline = time.perf_counter() + seconds
            await asyncio.gather(*(client_loop(client, deadline) for client in clients))

        server_cpu = server.cpu_s()
        outcome.window_ns = [time.perf_counter_ns(), 0]
        cpu = time.process_time()
        start = time.perf_counter()
        asyncio.run(timed())
        outcome.busy_s = time.perf_counter() - start
        outcome.cpu_s += time.process_time() - cpu
        outcome.window_ns[1] = time.perf_counter_ns()
        outcome.cpu_s += server.cpu_s() - server_cpu
        outcome.peak_rss_mb = proc_hwm_mib("self") + server.hwm_mib()
        time.sleep(1.2)  # one heartbeat, so /debug/workers counts every request
        outcome.per_layer["serving.worker_share_max"] = worker_share_max(admin_port)
    finally:
        server.stop(signal.SIGTERM)
    return outcome


def record(ctx) -> dict:
    """Expected digests: every page twice (tier cold, then warm)."""
    server, port, _admin = start_server()
    digests: dict[str, str] = {}
    try:
        client = new_client()

        async def fetch_all() -> None:
            for rnd in range(2):
                for path in ranking():
                    result = await client.fetch_tcp("127.0.0.1", port, path)
                    if result.status != 200:
                        raise RuntimeError(f"{path}: status {result.status}")
                    value = digest(result.received_html.encode("utf-8"))
                    if rnd and digests[path] != value:
                        raise RuntimeError(f"{path}: tier-hit body differs from the cold one")
                    digests[path] = value

        asyncio.run(fetch_all())
    finally:
        server.stop(signal.SIGTERM)
    return digests
