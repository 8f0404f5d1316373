"""Shared plumbing: server processes, CPU/RSS probes, statistics, results.

Everything here is stdlib: CPU time comes from ``time.process_time`` and
``/proc``, peak RSS from ``/proc`` (psutil is not assumed). Every server
is started in its own session (process group), so stopping it also
reaches the arbiter's forked workers, and :func:`stop_all` runs at exit
and on SIGTERM so a failed run leaves no server behind.
"""

from __future__ import annotations

import atexit
import bisect
import gc
import hashlib
import json
import os
import platform
import random
import signal
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
#: Scratch space inside the checkout (listed in .gitignore).
WORK_DIR = ROOT / ".perfbench"
SRC_DIR = ROOT / "src"
CLK_TCK = os.sysconf("SC_CLK_TCK")


def digest(*parts: bytes) -> str:
    """Short sha256 of the concatenated parts (64 bits, hex)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()[:16]


def load_expected() -> dict:
    return json.loads((BENCH_DIR / "expected.json").read_text())


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


def median(values) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


#: The calibration kernel's time on the reference host: a quiet 2-vCPU
#: Intel Xeon KVM guest with Python 3.11. Times are reported as they would
#: read on that host (see :class:`HostSpeed`).
REFERENCE_KERNEL_S = 0.002

#: Kernel input: half incompressible, half runs, like a rendered image row.
_BLOB = random.Random(0).randbytes(24576) + bytes(range(256)) * 96


def _kernel() -> int:
    """Dict and string handling, zlib compression and sha256."""
    table = {f"key-{i}": i for i in range(4000)}
    total = sum(value & 7 for value in table.values())
    total += len(zlib.compress(_BLOB, 6))
    return total + hashlib.sha256(_BLOB).digest()[0]


class HostSpeed:
    """How fast the host runs a fixed kernel, sampled through a phase.

    Other tenants of a shared host slow every process on it: in a 2-vCPU
    KVM guest the same fleet pass took anywhere from 1.5 to 3.4 s, with
    CPU time rising with wall time (contention, not stolen time), dict
    and string work slowing far more than zlib, and the host switching
    between fast and slow within seconds. A workload whose work is like
    the kernel's calls :meth:`sample` between ops, when nothing is in
    flight, and :meth:`scale_each` turns each op's time into the time it
    would take on the reference host: its raw time times
    ``REFERENCE_KERNEL_S`` over the median of the five kernel samples
    nearest to it. A change to the program moves the scaled times as much
    as the raw ones; only the host's speed divides out. ``fleet_replay``
    and ``browse`` use it; ``materialise_tier`` has two requests in
    flight at almost every moment, so it has no point to sample at.
    """

    def __init__(self) -> None:
        #: Kernel times (seconds), and the number of ops done before each.
        self.samples: list[float] = []
        self.positions: list[int] = []

    def sample(self, position: int) -> None:
        # With the collector off the kernel's time does not depend on how
        # many objects the program holds.
        collecting = gc.isenabled()
        gc.disable()
        try:
            begin = time.perf_counter()
            _kernel()
            self.samples.append(time.perf_counter() - begin)
            self.positions.append(position)
        finally:
            if collecting:
                gc.enable()

    def scale_each(self, latencies: list[float]) -> list[float]:
        scaled = []
        for index, latency in enumerate(latencies):
            after = bisect.bisect_right(self.positions, index)
            near = sorted(self.samples[max(0, after - 3):after + 2])
            scaled.append(latency * REFERENCE_KERNEL_S / near[len(near) // 2])
        return scaled


# ---------------------------------------------------------------------- #
# /proc probes
# ---------------------------------------------------------------------- #


def proc_cpu_s(pid: int) -> float:
    """User+system CPU seconds of one live process (all its threads)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def proc_hwm_mib(pid: int | str) -> float:
    """Peak resident set (VmHWM) of one process, MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


def proc_children(pid: int) -> list[int]:
    children: list[int] = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as fh:
                children.extend(int(c) for c in fh.read().split())
    except FileNotFoundError:
        pass
    return children


def host_fingerprint() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


# ---------------------------------------------------------------------- #
# Server processes
# ---------------------------------------------------------------------- #

_LIVE: list["ServerProcess"] = []


class ServerProcess:
    """One ``sww serve`` run through the benchmark's own entry point.

    ``serve_entry.py`` installs the span wrappers when ``trace_dir`` is set
    and then calls ``repro.cli.main(["serve", ...])``. Output goes to a log
    file in the work directory, which :meth:`wait_banner` polls.
    """

    def __init__(self, serve_args: list[str], trace_dir: Path | None = None, tag: str = "serve"):
        WORK_DIR.mkdir(exist_ok=True)
        self.log_path = WORK_DIR / f"{tag}-{os.getpid()}.log"
        cmd = [sys.executable, str(BENCH_DIR / "serve_entry.py")]
        if trace_dir is not None:
            cmd += ["--trace-dir", str(trace_dir)]
        cmd += ["--", "serve", "--host", "127.0.0.1", "--port", "0", *serve_args]
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR), PYTHONUNBUFFERED="1")
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        self.pid = self.proc.pid
        _LIVE.append(self)

    def wait_banner(self, marker: str, count: int = 1, timeout_s: float = 60.0) -> list[str]:
        """Lines containing ``marker``, once ``count`` of them are logged."""
        deadline = time.monotonic() + timeout_s
        while True:
            lines = [ln for ln in self.log_path.read_text().splitlines() if marker in ln]
            if len(lines) >= count:
                return lines
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early:\n{self.log_path.read_text()[-2000:]}")
            if time.monotonic() > deadline:
                raise RuntimeError(f"server not ready after {timeout_s} s")
            time.sleep(0.002)

    def pids(self) -> list[int]:
        """The server process and every worker it forked."""
        return [self.pid, *proc_children(self.pid)]

    def cpu_s(self) -> float:
        total = 0.0
        for pid in self.pids():
            try:
                total += proc_cpu_s(pid)
            except (FileNotFoundError, ProcessLookupError):
                pass
        return total

    def hwm_mib(self) -> float:
        total = 0.0
        for pid in self.pids():
            try:
                total += proc_hwm_mib(pid)
            except (FileNotFoundError, ProcessLookupError):
                pass
        return total

    def stop(self, sig: int = signal.SIGINT, timeout_s: float = 20.0) -> None:
        """Ask the server to exit (so traced processes write their spans),
        then SIGKILL whatever is left of its process group and reap it."""
        if self.proc.poll() is None:
            try:
                self.proc.send_signal(sig)
                self.proc.wait(timeout_s)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                os.killpg(self.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.02)
        self._log.close()
        self.log_path.unlink(missing_ok=True)
        if self in _LIVE:
            _LIVE.remove(self)


def stop_all() -> None:
    for server in list(_LIVE):
        server.stop(signal.SIGKILL, timeout_s=5.0)


def _on_sigterm(signum, frame) -> None:
    stop_all()
    sys.exit(128 + signum)


atexit.register(stop_all)
signal.signal(signal.SIGTERM, _on_sigterm)


# ---------------------------------------------------------------------- #
# Results
# ---------------------------------------------------------------------- #

#: The end-to-end metrics every workload reports (BENCHMARK.json's list).
END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "throughput_ops_s": "ops/s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MiB",
}


@dataclass
class Outcome:
    """What one measured phase produced, as measured on this host."""

    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    per_layer: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: Wall seconds of each set-up.
    setup_times: list[float] = field(default_factory=list)
    #: The host's speed through the timed phase, for workloads that scale
    #: their times by it.
    speed: HostSpeed | None = None
    #: Latency (seconds) of every completed op in the timed phase.
    latencies: list[float] = field(default_factory=list)
    #: Wall seconds the program was working on ops, and the CPU seconds
    #: every process of the program spent on them.
    busy_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    #: perf_counter_ns bounds of the timed phase (spans outside are dropped).
    window_ns: list[int] = field(default_factory=lambda: [0, 0])

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.mismatches) < 20:
            self.mismatches.append(reason)

    def metrics(self) -> dict[str, float]:
        """End-to-end metrics; times scaled to the reference host where
        the workload samples the host's speed (busy and CPU time by the
        ratio of scaled to raw op time)."""
        latencies, busy_s, cpu_s = self.latencies, self.busy_s, self.cpu_s
        if self.speed:
            latencies = self.speed.scale_each(self.latencies)
            factor = sum(latencies) / sum(self.latencies)
            busy_s, cpu_s = busy_s * factor, cpu_s * factor
        return {
            "setup_s": median(self.setup_times),
            "latency_p50_ms": 1000 * percentile(latencies, 0.50),
            "latency_p99_ms": 1000 * percentile(latencies, 0.99),
            "throughput_ops_s": self.ops / busy_s,
            "cpu_ms_per_op": 1000 * cpu_s / max(1, self.ops),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def describe(self) -> str:
        """One note line with the unscaled figures behind the metrics."""
        line = (
            f"{self.ops} ops of {self.attempted} attempted; unscaled: setup "
            f"{median(self.setup_times):.4f} s, p50 {1000 * percentile(self.latencies, 0.5):.4f} ms, "
            f"p99 {1000 * percentile(self.latencies, 0.99):.4f} ms, "
            f"{self.ops / self.busy_s:.2f} ops/s, "
            f"{1000 * self.cpu_s / max(1, self.ops):.4f} cpu ms/op"
        )
        if self.speed:
            line += (
                f"; kernel median {1000 * median(self.speed.samples):.4f} ms "
                f"({len(self.speed.samples)} samples)"
            )
        return line


def timed_setups(outcome: Outcome, setups: int, start, stop=None):
    """Run ``start(last)`` ``setups`` times, each timed; every result but
    the last goes to ``stop``. Returns the last result, which the timed
    phase uses."""
    result = None
    for attempt in range(setups):
        if result is not None and stop is not None:
            stop(result)
        begin = time.perf_counter()
        result = start(attempt == setups - 1)
        outcome.setup_times.append(time.perf_counter() - begin)
    return result


def emit(outcome: Outcome, trace: bool) -> None:
    """Print notes, then the result object as the last stdout line."""
    for note in outcome.notes:
        print(f"# {note}")
    for reason in outcome.mismatches:
        print(f"# FAILED: {reason}")
    if trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in outcome.per_layer.items()}
    else:
        values = outcome.metrics()
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }), flush=True)


def _layer_unit(name: str) -> str:
    tail = name.rsplit(".", 1)[-1]
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("ratio", "ratio"),
                         ("share", "ratio"), ("share_max", "ratio"),
                         ("chars", "chars"), ("bytes", "bytes"), ("bytes_out", "bytes")):
        if tail.endswith(suffix) or f"{suffix}_" in tail:
            return unit
    return "count"
