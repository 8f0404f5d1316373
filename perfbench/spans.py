"""Span recording around the public callables of each layer (stdlib only).

:func:`install` replaces every target callable with a timing wrapper, at
every place it is looked up: a method on its class, and a function in each
``repro.*`` module that holds a reference to it (``repro.html.parse_html``
and ``repro.sww.client.parse_html`` are both patched).

Each wrapped call records one span: layer metric name, start, end, parent
span, op id (set by the load generator; -1 in server processes, which
cannot see it), self time and one integer ``extra`` (characters parsed,
bytes encoded, a cache hit, evictions caused); the span file carries the
pid. Spans stay in per-thread column
arrays in memory and are written once, by :func:`flush`, when the process
ends. Self time is the span's duration minus the time its direct child
spans cover; the parent is the innermost open span of the same thread or
asyncio task (a ``ContextVar``), so concurrent fetches on one event loop do
not charge each other.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import threading
from array import array
from pathlib import Path
from time import perf_counter_ns

#: (metric name, import path of the owner, attribute, extra-function name).
#: ``extra`` functions return one int per call: see :data:`_EXTRA`.
TARGETS: list[tuple[str, str, str, str | None]] = [
    ("http2.hpack_encode", "repro.http2.hpack:HpackEncoder", "encode", None),
    ("http2.hpack_decode", "repro.http2.hpack:HpackDecoder", "decode", None),
    ("http2.receive_data", "repro.http2.connection:H2Connection", "receive_data", None),
    ("http2.parse_frames", "repro.http2.frames", "parse_frames", None),
    ("http2.send_headers", "repro.http2.connection:H2Connection", "send_headers", None),
    ("http2.send_data", "repro.http2.connection:H2Connection", "send_data", None),
    ("http2.writer_pump", "repro.http2.writer:ConnectionWriter", "pump", None),
    ("http2.data_to_send", "repro.http2.connection:H2Connection", "data_to_send", "result_len"),
    ("html.parse_html", "repro.html.parser", "parse_html", "arg_len"),
    ("html.serialize", "repro.html.serializer", "serialize", None),
    ("sww.handle_request", "repro.sww.server:GenerativeServer", "handle_request", None),
    ("sww.page_process", "repro.sww.page_processor:PageProcessor", "process", None),
    ("sww.media_generate", "repro.sww.media_generator:MediaGenerator", "generate", None),
    ("sww.render_text", "repro.sww.renderer", "render_text", None),
    ("sww.client_fetch", "repro.sww.client:GenerativeClient", "fetch_tcp", None),
    ("genai.generate_image", "repro.genai.image", "generate_image", None),
    ("genai.render_content", "repro.genai.image", "render_content", None),
    ("genai.expand_text", "repro.genai.text", "expand_text", None),
    ("media.encode_png", "repro.media.png", "encode_png", "result_len"),
    ("gencache.key_digest", "repro.gencache.key:GenerationKey", "digest", None),
    ("gencache.lookup", "repro.gencache.store:GenerationCache", "lookup", "hit"),
    ("gencache.peek", "repro.gencache.store:GenerationCache", "peek", None),
    ("gencache.insert", "repro.gencache.store:GenerationCache", "insert", "evictions"),
    ("serving.tier_lookup", "repro.serving.remote:RemoteGenerationCache", "lookup", "hit"),
    ("serving.tier_insert", "repro.serving.remote:RemoteGenerationCache", "insert", None),
    ("cdn.fleet_serve", "repro.cdn.fleet:EdgeFleet", "serve", "fleet_hit"),
    ("cdn.ring_preference", "repro.cdn.placement:HashRing", "preference", None),
    ("cdn.ring_owner_bounded", "repro.cdn.placement:HashRing", "owner_bounded", None),
    ("obs.event_begin", "repro.obs.events:EventLog", "begin", None),
    ("obs.event_finish", "repro.obs.events:WideEvent", "finish", None),
    ("obs.histogram_observe", "repro.obs.metrics:Histogram", "observe", None),
    ("obs.counter_inc", "repro.obs.metrics:Counter", "inc", None),
]

NAMES = [target[0] for target in TARGETS]
_NAME_ID = {name: index for index, name in enumerate(NAMES)}
#: Async targets: their self time includes the time spent awaiting, so it
#: is reported but not counted as work when attributing op latency.
ASYNC_NAMES = {"sww.client_fetch"}


def _result_len(args, kwargs, result) -> int:
    return len(result)


def _arg_len(args, kwargs, result) -> int:
    return len(args[0]) if args else len(next(iter(kwargs.values()), ""))


def _hit(args, kwargs, result) -> int:
    return int(result is not None)


def _fleet_hit(args, kwargs, result) -> int:
    return int(result.tier in ("edge", "peer", "coalesced"))


_EXTRA = {
    "result_len": _result_len,
    "arg_len": _arg_len,
    "hit": _hit,
    "fleet_hit": _fleet_hit,
}

_COLUMNS = ("id", "name", "start", "end", "parent", "op", "self", "extra")


class _Buffer:
    """One thread's spans, as parallel int64 columns."""

    def __init__(self) -> None:
        self.cols = {col: array("q") for col in _COLUMNS}


class Recorder:
    """Process-wide span store; one column buffer per thread."""

    def __init__(self) -> None:
        self.op = -1
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self._local = threading.local()
        self._ids = itertools.count()
        self._current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span")

    def reset(self) -> None:
        """Drop every span (a forked worker starts from its own empty store)."""
        with self._lock:
            self._buffers = []
        self._local = threading.local()

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _open(self):
        """Start a span: its frame is [child time covered, span id]."""
        parent = self._current.get(None)
        frame = [0, next(self._ids)]
        return parent, frame, self._current.set(frame)

    def _close(self, name_id, start, parent, frame, token, extra) -> None:
        end = perf_counter_ns()
        self._current.reset(token)
        duration = end - start
        if parent is not None:
            parent[0] += duration
        cols = self._buffer().cols
        cols["id"].append(frame[1])
        cols["name"].append(name_id)
        cols["start"].append(start)
        cols["end"].append(end)
        cols["parent"].append(-1 if parent is None else parent[1])
        cols["op"].append(self.op)
        cols["self"].append(duration - frame[0])
        cols["extra"].append(extra)

    def wrap(self, name: str, fn, extra_fn=None):
        name_id = _NAME_ID[name]
        recorder = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                parent, frame, token = recorder._open()
                start = perf_counter_ns()
                extra = 0
                try:
                    result = await fn(*args, **kwargs)
                    if extra_fn is not None:
                        extra = extra_fn(args, kwargs, result)
                    return result
                finally:
                    recorder._close(name_id, start, parent, frame, token, extra)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, frame, token = recorder._open()
            start = perf_counter_ns()
            extra = 0
            try:
                result = fn(*args, **kwargs)
                if extra_fn is not None:
                    extra = extra_fn(args, kwargs, result)
                return result
            finally:
                recorder._close(name_id, start, parent, frame, token, extra)

        return wrapper

    def columns(self) -> dict[str, array]:
        out = {col: array("q") for col in _COLUMNS}
        with self._lock:
            buffers = list(self._buffers)
        for buf in buffers:
            for col in _COLUMNS:
                out[col].extend(buf.cols[col])
        return out


RECORDER = Recorder()


def _evictions_wrapper(recorder: Recorder, name: str, fn):
    """``GenerationCache.insert``: ``extra`` = LRU evictions it caused."""
    name_id = _NAME_ID[name]

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        parent, frame, token = recorder._open()
        before = self._store.stats.evictions
        start = perf_counter_ns()
        try:
            return fn(self, *args, **kwargs)
        finally:
            recorder._close(
                name_id, start, parent, frame, token, self._store.stats.evictions - before
            )

    return wrapper


def _resolve(path: str):
    module_name, _, cls_name = path.partition(":")
    __import__(module_name)
    module = sys.modules[module_name]
    return module, (getattr(module, cls_name) if cls_name else None)


def install(recorder: Recorder = RECORDER) -> None:
    """Wrap every target. Call after the program's modules are imported."""
    import repro.cli  # noqa: F401  (pulls in every layer the CLI serves)
    import repro.cdn.fleet  # noqa: F401
    import repro.serving.arbiter  # noqa: F401
    import repro.serving.remote  # noqa: F401

    for name, owner, attr, extra in TARGETS:
        module, cls = _resolve(owner)
        if cls is not None:
            original = cls.__dict__[attr]
            if isinstance(original, property):
                setattr(cls, attr, property(recorder.wrap(name, original.fget)))
            elif extra == "evictions":
                setattr(cls, attr, _evictions_wrapper(recorder, name, original))
            else:
                setattr(cls, attr, recorder.wrap(name, original, _EXTRA.get(extra)))
            continue
        original = getattr(module, attr)
        wrapped = recorder.wrap(name, original, _EXTRA.get(extra))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def flush(directory: Path, tag: str, recorder: Recorder = RECORDER) -> None:
    """Write this process's spans to ``directory`` (binary columns + index)."""
    directory.mkdir(parents=True, exist_ok=True)
    cols = recorder.columns()
    stem = directory / f"spans-{tag}-{os.getpid()}"
    with open(stem.with_suffix(".bin"), "wb") as fh:
        for col in _COLUMNS:
            cols[col].tofile(fh)
    stem.with_suffix(".json").write_text(
        json.dumps({"pid": os.getpid(), "count": len(cols["name"]), "names": NAMES})
    )


def load(directory: Path) -> list[dict[str, array]]:
    """Read every span file in ``directory``; one column dict per process."""
    processes = []
    for index_path in sorted(directory.glob("spans-*.json")):
        meta = json.loads(index_path.read_text())
        count = meta["count"]
        cols = {}
        with open(index_path.with_suffix(".bin"), "rb") as fh:
            for col in _COLUMNS:
                column = array("q")
                column.fromfile(fh, count)
                cols[col] = column
        cols["pid"] = meta["pid"]
        processes.append(cols)
    return processes


def summarise(
    processes: list[dict[str, array]], start_ns: int, end_ns: int
) -> dict[str, dict[str, int]]:
    """Totals per metric name over every process, for spans that start in
    the measured window: calls, self ns and the sum of ``extra``."""
    totals = {name: {"calls": 0, "self_ns": 0, "extra": 0} for name in NAMES}
    for cols in processes:
        for name_id, start, self_ns, extra in zip(
            cols["name"], cols["start"], cols["self"], cols["extra"]
        ):
            if not start_ns <= start < end_ns:
                continue
            entry = totals[NAMES[name_id]]
            entry["calls"] += 1
            entry["self_ns"] += self_ns
            entry["extra"] += extra
    return totals
