"""Spans around calls into the library, recorded from outside it.

A span is (name, start, end, parent, document id). Spans are kept in
memory and written out once at the end of a run, so recording costs a
list append per call. The untraced run uses ``NullTracer``, whose spans
are a shared no-op context manager.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

_NO_SPAN = nullcontext()


class NullTracer:
    def span(self, name: str):
        return _NO_SPAN


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, doc id]
        self.stack: list[int] = []
        self.doc: int | None = None

    @contextmanager
    def span(self, name: str):
        record = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else None, self.doc]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self.stack.pop()

    def self_times(self, first: int) -> dict[str, float]:
        """Seconds per span name over spans[first:]: each span minus its children."""
        own: dict[int, float] = {}
        for index in range(first, len(self.spans)):
            _, start, end, parent, _ = self.spans[index]
            own[index] = own.get(index, 0.0) + end - start
            if parent is not None:
                own[parent] = own.get(parent, 0.0) - (end - start)
        totals: dict[str, float] = {}
        for index, seconds in own.items():
            name = self.spans[index][0]
            totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def write(self, path: Path, origin: float) -> None:
        path.write_text(json.dumps([
            {"name": name, "start": start - origin, "end": end - origin,
             "parent": parent, "doc": doc}
            for name, start, end, parent, doc in self.spans
        ]))


class TimedResolver:
    """A ``Resolver`` that delegates to another and times and counts each fetch."""

    def __init__(self, inner, tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.fetches = 0
        self.fetch_bytes = 0
        self.uris: set[str] = set()

    def resolve(self, base_uri: str, href: str) -> str:
        return self.inner.resolve(base_uri, href)

    def fetch(self, uri: str) -> bytes:
        self.fetches += 1
        self.uris.add(uri)
        with self.tracer.span("dts.fetch"):
            data = self.inner.fetch(uri)
        self.fetch_bytes += len(data)
        return data
