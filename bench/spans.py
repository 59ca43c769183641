"""In-memory spans recorded around calls into the package's layers.

A span is one call: its name (``<module>.<function>``), start and end on the
``perf_counter`` clock, the span that caused it and the item it belongs to,
plus any counts noted at that boundary.  Spans stay in memory and are written
out as JSON lines once the run ends.  Nothing here changes the package: a
call is observed by temporarily rebinding the module attribute its caller
looks up.
"""

from __future__ import annotations

import json
import statistics
from contextlib import ExitStack, contextmanager
from time import perf_counter


class Tracer:
    """Spans of one run, kept in memory until ``write``."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.item: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans), "name": name, "item": self.item,
            "parent": self._stack[-1] if self._stack else None,
            "start": perf_counter(), "end": None, "error": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        except BaseException as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, note=None, **kwargs):
        """``fn(*args, **kwargs)`` inside a span; ``note(rec, result)`` adds counts."""
        with self.span(name) as rec:
            result = fn(*args, **kwargs)
            if note is not None:
                note(rec, result)
            return result

    @contextmanager
    def observing(self, targets):
        """Rebind ``(module, attribute, span name, note)`` targets to traced wrappers."""
        with ExitStack() as stack:
            for module, attr, name, note in targets:
                original = getattr(module, attr)

                def wrapper(*args, _fn=original, _name=name, _note=note, **kwargs):
                    return self.call(_name, _fn, *args, note=_note, **kwargs)

                setattr(module, attr, wrapper)
                stack.callback(setattr, module, attr, original)
            yield

    def layer(self, name: str, passes: int = 1) -> dict[str, float]:
        """Calls, busy seconds and errors of one layer per pass, and its median milliseconds.

        ``passes`` is the number of passes over the item list the spans cover.
        """
        spans = [s for s in self.spans if s["name"] == name]
        durations = [s["end"] - s["start"] for s in spans]
        return {
            "calls": len(spans) / passes,
            "busy_s": float(sum(durations)) / passes,
            "p50_ms": 1e3 * statistics.median(durations) if durations else 0.0,
            "errors": sum(1 for s in spans if s["error"] is not None) / passes,
        }

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
