"""``browse``: capable clients load pages, one connection per page.

Closed loop, one client at a time. Each user session is a fresh
``GenerativeClient`` with the CLI's default settings (laptop device,
64 MiB generation cache, no batching) that views 50 pages from
``sww serve`` over TCP loopback: 48 seeded Zipf draws over ``news`` and
the ``uniform:N`` pages, plus one view each of ``gallery`` and
``travel-blog`` (about 90 and 300 ms to generate) at seeded places. The
uniform pages share 239 distinct prompts, so within a session the Zipf
head hits the client's generation cache while most views generate.
Sessions keep that share the same from the first second of a run to the
last (one client for the whole run would warm up and leave generation to
its first seconds), and every session carries the same two heavy views,
so they are 4% of views in every run: ``travel-blog``, 2%, sets p99.
Runs end on a session boundary. Before each view the load generator
samples the host's speed (``common.HostSpeed``), which scales each
view's time.

Each view is checked against ``expected.json``: status 200, SWW mode,
and the digest of the final HTML plus every generated asset.
"""

from __future__ import annotations

import asyncio
import gc
import random
import time

from common import HostSpeed, Outcome, ServerProcess, digest, load_expected, proc_hwm_mib, timed_setups

UNIFORM_PAGES = 1500
ZIPF_EXPONENT = 0.4
SESSION_VIEWS = 50
SERVE_ARGS = ["--pages", "news", "gallery", "travel-blog", f"uniform:{UNIFORM_PAGES}"]


HEAVY_PAGES = ["/gallery/harbour", "/blog/ridgeline-hike"]


def ranking() -> list[str]:
    uniform = [f"/uniform/uniform-{i:02d}" for i in range(UNIFORM_PAGES)]
    return ["/news/transit-corridor", *uniform]


def sessions(seed: int):
    """Endless seeded sessions: Zipf draws plus the heavy pages."""
    pages = ranking()
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(pages))]
    rng = random.Random(f"browse/{seed}")
    while True:
        views = rng.choices(pages, weights=weights, k=SESSION_VIEWS - len(HEAVY_PAGES))
        for path in HEAVY_PAGES:
            views.insert(rng.randrange(len(views) + 1), path)
        yield views


def new_client():
    from repro.devices import get_device
    from repro.gencache import DEFAULT_GENCACHE_BYTES, GenerationCache
    from repro.sww.client import GenerativeClient

    return GenerativeClient(
        device=get_device("laptop"), gencache=GenerationCache(DEFAULT_GENCACHE_BYTES)
    )


def view_digest(result) -> str:
    """Digest of what the user gets: final HTML and generated assets."""
    parts = [result.final_html.encode("utf-8")]
    if result.report is not None:
        for path, data in sorted(result.report.assets.items()):
            parts += [path.encode("utf-8"), data]
    return digest(*parts)


def start_server(trace_dir=None) -> tuple[ServerProcess, int]:
    server = ServerProcess(SERVE_ARGS, trace_dir=trace_dir, tag="browse")
    banner = server.wait_banner("sww generative server on")[0]
    port = int(banner.split(" on ", 1)[1].split(" ", 1)[0].rsplit(":", 1)[1])
    return server, port


def measure(ctx, seconds: float, setups: int, trace_dir=None, recorder=None) -> Outcome:
    outcome = Outcome(speed=HostSpeed())
    expected = load_expected()["browse"]
    server, port = timed_setups(
        outcome, setups, lambda last: start_server(trace_dir if last else None),
        lambda started: started[0].stop(),
    )
    try:
        stream = sessions(ctx.seed)
        latencies = outcome.latencies

        async def loop() -> None:
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline:
                # The previous session's client and cache are garbage in
                # reference cycles; collecting them here keeps peak RSS
                # from depending on when the collector runs.
                client = None
                gc.collect()
                client = new_client()
                for path in next(stream):
                    outcome.speed.sample(len(latencies))
                    if recorder is not None:
                        recorder.op = len(latencies)
                    outcome.attempted += 1
                    cpu = time.process_time()
                    start = time.perf_counter()
                    try:
                        result = await client.fetch_tcp("127.0.0.1", port, path)
                    except (OSError, ConnectionError, RuntimeError) as exc:
                        outcome.fail(f"{path}: {type(exc).__name__}: {exc}")
                        continue
                    latencies.append(time.perf_counter() - start)
                    outcome.cpu_s += time.process_time() - cpu
                    if result.status != 200 or not result.sww_mode:
                        outcome.fail(f"{path}: status {result.status}, sww_mode {result.sww_mode}")
                    elif view_digest(result) != expected.get(path):
                        outcome.fail(f"{path}: output digest mismatch")

        server_cpu = server.cpu_s()
        outcome.window_ns = [time.perf_counter_ns(), 0]
        asyncio.run(loop())
        outcome.window_ns[1] = time.perf_counter_ns()
        outcome.cpu_s += server.cpu_s() - server_cpu
        outcome.busy_s = sum(latencies)
        outcome.peak_rss_mb = proc_hwm_mib("self") + server.hwm_mib()
    finally:
        server.stop()
    return outcome


def record(ctx) -> dict:
    """Expected digests: every page fetched cold, then again warm."""
    server, port = start_server()
    digests: dict[str, str] = {}
    try:
        client = new_client()

        async def fetch_all() -> None:
            for rnd in range(2):
                for path in ranking() + HEAVY_PAGES:
                    result = await client.fetch_tcp("127.0.0.1", port, path)
                    assert result.status == 200 and result.sww_mode, path
                    value = view_digest(result)
                    if rnd and digests[path] != value:
                        raise RuntimeError(f"{path}: warm view differs from cold view")
                    digests[path] = value

        asyncio.run(fetch_all())
    finally:
        server.stop()
    return digests
