"""Benchmark-side spans: one per call into a layer, kept in memory.

The spans wrap calls made *from the benchmark* into the library's public
functions; spans inside ``repro`` are a later issue.  A span records
name, start, end, the span that caused it and the request it belongs to;
``Recorder.write`` dumps them when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Recorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.request_id: int | None = None

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {
            "id": index,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "request": self.request_id,
            "start": time.perf_counter(),
            "end": None,
            "error": None,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        except Exception as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations_ms(self, name: str) -> list[float]:
        """Durations of the error-free spans called ``name``."""
        return [
            (s["end"] - s["start"]) * 1000.0
            for s in self.spans
            if s["name"] == name and s["error"] is None
        ]

    def median_ms(self, name: str) -> float | None:
        values = self.durations_ms(name)
        return statistics.median(values) if values else None

    def first_error(self, name: str) -> str | None:
        return next((s["error"] for s in self.spans if s["name"] == name and s["error"]), None)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"unit": "seconds since an arbitrary origin", "spans": self.spans}, fh)
