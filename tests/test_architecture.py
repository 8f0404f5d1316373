"""Architecture guard: one HTTP/2 client driver and one server loop.

Every TCP client in ``src/repro`` goes through
:class:`repro.http2.channel.H2Channel` and every TCP server connection
through :class:`repro.http2.serverloop.ServerLoop`. This scan keeps new
hand-rolled drivers (dialing a socket, wrapping it in a transport, running
its read loop) from forking off again.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The only modules allowed to own a socket-level HTTP/2 driver.
DRIVERS = {"http2/channel.py", "http2/serverloop.py"}

PATTERNS = {
    "asyncio.open_connection": re.compile(r"\basyncio\.open_connection\("),
    "AsyncH2Transport(": re.compile(r"\bAsyncH2Transport\("),
    "<transport>.run(": re.compile(r"\b\w*transport\w*\.run\("),
}


def _hits(relative: str) -> set[str]:
    text = (SRC / relative).read_text(encoding="utf-8")
    return {name for name, pattern in PATTERNS.items() if pattern.search(text)}


def test_socket_drivers_live_only_in_the_channel_and_the_server_loop():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative in DRIVERS:
            continue
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            offenders += [f"{relative}:{lineno}: {name}" for name, p in PATTERNS.items() if p.search(line)]
    assert offenders == [], "HTTP/2 socket driver outside the channel/server loop:\n" + "\n".join(offenders)


def test_patterns_match_the_drivers_they_guard():
    # If the drivers stop matching, the scan above has gone blind.
    assert _hits("http2/channel.py") == set(PATTERNS)
    assert _hits("http2/serverloop.py") == {"AsyncH2Transport(", "<transport>.run("}
