"""Start ``sww serve`` through the benchmark, optionally with span wrappers.

Usage: ``python3 perfbench/serve_entry.py [--trace-dir DIR] -- serve ...``

With ``--trace-dir`` the layer wrappers are installed before
``repro.cli.main`` runs, and spans are written to DIR when the server
exits (SIGINT for the single-process server, SIGTERM for the arbiter).
Arbiter workers leave through ``os._exit``, which skips every exit hook,
so ``repro.serving.arbiter.worker_main`` is wrapped to start each worker
with an empty span store and write it before the worker returns.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    trace_dir = None
    if argv[:1] == ["--trace-dir"]:
        trace_dir = Path(argv[1])
        argv = argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]

    import repro.cli

    if trace_dir is None:
        return repro.cli.main(argv)

    import repro.serving.arbiter as arbiter
    import spans

    spans.install()
    worker_main = arbiter.worker_main

    def traced_worker_main(*args, **kwargs):
        spans.RECORDER.reset()
        try:
            return worker_main(*args, **kwargs)
        finally:
            spans.flush(trace_dir, "worker")

    arbiter.worker_main = traced_worker_main
    try:
        return repro.cli.main(argv)
    finally:
        spans.flush(trace_dir, "server")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
