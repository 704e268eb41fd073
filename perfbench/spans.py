"""A stdlib-only span recorder and the wrappers that feed it.

A span is one timed call: name, start, end, parent span and run id.  Spans
are kept in memory and written out once, when the benchmark ends.  The
benchmark records spans from its own files only: `instrument` swaps the
public functions of `tauvar` for timing wrappers for the duration of a
`with` block and restores them afterwards.  Nothing inside `tauvar` changes.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


class Span:
    """One timed call; `attrs` holds notes such as the entry count."""

    FIELDS = ("id", "name", "start", "end", "parent", "run_id", "attrs")
    __slots__ = FIELDS

    def __init__(self, id: int, name: str, start: float, parent: Optional[int], run_id: str):
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run_id = run_id
        self.attrs: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def row(self) -> list:
        return [self.id, self.name, self.start, self.end, self.parent, self.run_id, self.attrs or {}]


class Recorder:
    """Collects spans in memory; one recorder serves one benchmark process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.run_id = "run-0"

    @contextmanager
    def run(self, run_id: str) -> Iterator[None]:
        """Tag every span opened inside the block with run_id."""
        previous, self.run_id = self.run_id, run_id
        try:
            yield
        finally:
            self.run_id = previous

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent, self.run_id)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != span.id:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def of_run(self, run_id: str) -> List[Span]:
        return [s for s in self.spans if s.run_id == run_id]

    def write_jsonl(self, path, header: dict) -> None:
        """One header line, then one JSON array per span in Span.FIELDS order."""
        with open(path, "w") as f:
            f.write(json.dumps({**header, "fields": Span.FIELDS}, sort_keys=True) + "\n")
            for s in self.spans:
                f.write(json.dumps(s.row(), separators=(",", ":")) + "\n")


def covered_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of it that its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered_length(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def summarize(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds."""
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.duration
        row["self_s"] += own[s.id]
    return out


# --- wrappers -------------------------------------------------------------

# Attribute notes: name -> f(args, kwargs, result) -> dict stored on the span.
Note = Callable[[tuple, dict, object], dict]


def _wrap_call(rec: Recorder, name: str, fn: Callable, note: Optional[Note]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        s = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(s)
        if note is not None:
            s.attrs = note(args, kwargs, result)
        return result

    return wrapper


def _wrap_generator(rec: Recorder, name: str, fn: Callable) -> Callable:
    """Each advance of the generator is one span; the consumer's time is not."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            s = rec.open(name)
            try:
                item = next(it)
            except StopIteration:
                s.attrs = {"exhausted": True}
                return
            finally:
                rec.close(s)
            yield item

    return wrapper


class Target:
    """One public callable to time: owner.attr, as a plain call or a generator."""

    def __init__(self, owner, attr: str, name: str, *, generator: bool = False, note: Optional[Note] = None):
        self.owner = owner
        self.attr = attr
        self.name = name
        self.generator = generator
        self.note = note


@contextmanager
def instrument(rec: Recorder, targets: Sequence[Target]) -> Iterator[None]:
    """Replace each target, and every module-level alias of it inside
    tauvar, with a timing wrapper; restore all of them on exit."""
    saved: List[Tuple[object, str, object]] = []
    try:
        for t in targets:
            original = t.owner.__dict__[t.attr]
            if t.generator:
                wrapped = _wrap_generator(rec, t.name, original)
            else:
                wrapped = _wrap_call(rec, t.name, original, t.note)
            homes = [(t.owner, t.attr)]
            if not isinstance(t.owner, type):
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "tauvar" or mod_name.startswith("tauvar."):
                        for attr, value in list(vars(mod).items()):
                            if value is original and (mod, attr) != (t.owner, t.attr):
                                homes.append((mod, attr))
            for owner, attr in homes:
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
