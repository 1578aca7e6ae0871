"""Host-clock spans recorded from outside the program.

The traced pass never edits ``src/``: a :class:`SpanRecorder` shadows
public methods of the objects a run already exposes (``driver.bx``,
``.mesh``, ``.fc``, ``.policy``, ``._packed``) with timing wrappers, and
puts every original back in :meth:`SpanRecorder.restore`.  Spans stay in
memory as ``[name, start, end, parent]`` rows and are written out once,
when the benchmark ends.

A layer's *self* seconds are its spans' durations minus the part their
direct child spans cover — the number the per-layer table reports, so a
layer is never charged for a wrapped layer it calls into.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

_MISSING = object()

NAME, START, END, PARENT = range(4)


def _layer(span_name: str) -> str:
    """``cycle[3]`` -> ``cycle``: indexed spans reduce under one name."""
    return span_name.partition("[")[0]


class SpanRecorder:
    """An in-memory span tree plus exact counts taken at the same seams."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: ``[name, start, end, parent_index]`` rows; parent -1 is a root.
        self.spans: List[list] = []
        #: Work counts harvested from wrapped calls' return values.
        self.counts: Dict[str, float] = defaultdict(int)
        self._stack: List[int] = []
        self._restore: List[tuple] = []

    # -------------------------------------------------------------- spans

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(
                f"span {self.spans[index][NAME]!r} closed out of order"
            )

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def add(self, name: str, start: float, end: float, parent: int = -1) -> None:
        """Record an already-timed span (client-side request spans)."""
        self.spans.append([name, start, end, parent])

    # ----------------------------------------------------------- wrappers

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        on_return: Optional[Callable[[object, tuple], None]] = None,
    ) -> None:
        """Shadow ``owner.attr`` with a wrapper that records one span per
        call; ``on_return(result, args)`` harvests counts from the call."""
        original = getattr(owner, attr)
        shadowed = vars(owner).get(attr, _MISSING)

        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(index)
            if on_return is not None:
                on_return(result, args)
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, shadowed))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, most recent first."""
        while self._restore:
            owner, attr, shadowed = self._restore.pop()
            if shadowed is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, shadowed)

    # ---------------------------------------------------------- reduction

    def self_seconds(self) -> Dict[str, float]:
        """Self time per span name, summed over the whole tree."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for (name, start, end, _parent), covered in zip(self.spans, child_time):
            totals[_layer(name)] += (end - start) - covered
        return dict(totals)

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for row in self.spans:
            out[_layer(row[NAME])] += 1
        return dict(out)

    def to_rows(self) -> List[dict]:
        return [
            {
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "run_id": self.run_id,
            }
            for name, start, end, parent in self.spans
        ]
