"""In-memory span recorder for the traced benchmark run.

A span is one call of a wrapped layer entry point: its name, start,
end and the span that was open when it started (its parent).  Spans
are kept in flat typed arrays (22 bytes each) and written out once,
after the run.  A span's self time is its duration minus the time its
direct child spans cover; since the run is single-threaded, children
nest strictly inside their parent, so the self times of all spans plus
the time no span covers add up to the traced wall time exactly.

Wrappers are installed on classes or instances for the duration of a
``with recorder.installed(...)`` block and removed on exit, so the
program itself is never edited and an untraced run pays nothing.
"""

from __future__ import annotations

import itertools
import json
import time
from array import array
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

#: One install target: (owner object or class, attribute, span name).
Target = Tuple[object, str, str]


@contextmanager
def patched(owner: object, attr: str, make: Callable) -> Iterator[None]:
    """Replace ``owner.attr`` with ``make(original)`` for one block.

    Works on classes and instances alike: on exit the attribute the
    owner itself held is put back, or the patch is deleted so lookup
    falls through to the class (or base class) again.
    """
    own = vars(owner).get(attr)
    setattr(owner, attr, make(getattr(owner, attr)))
    try:
        yield
    finally:
        if own is None:
            delattr(owner, attr)
        else:
            setattr(owner, attr, own)


class SpanRecorder:
    """Records nested spans of wrapped calls; see the module docstring."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        # Post-order records: pre-order id, parent id, name id, ns times.
        self.ids = array("i")
        self.parents = array("i")
        self.name_ids = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self._stack: List[int] = [-1]
        self._next_id = itertools.count()

    def __len__(self) -> int:
        return len(self.ids)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return ``fn`` wrapped so every call records one span."""
        name_id = self._name_id(name)
        stack = self._stack
        push, pop = stack.append, stack.pop
        ids, parents = self.ids.append, self.parents.append
        name_ids, starts, ends = (
            self.name_ids.append, self.starts.append, self.ends.append,
        )
        clock = time.perf_counter_ns
        next_id = self._next_id

        def span(*args, **kwargs):
            span_id = next(next_id)
            parent = stack[-1]
            push(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                pop()
                ids(span_id)
                parents(parent)
                name_ids(name_id)
                starts(start)
                ends(end)

        span.__wrapped__ = fn
        return span

    @contextmanager
    def installed(self, targets: Sequence[Target]) -> Iterator[None]:
        """Wrap every ``(owner, attribute, span name)`` target, then undo."""
        with ExitStack() as stack:
            for owner, attr, name in targets:
                stack.enter_context(patched(
                    owner, attr, lambda fn, name=name: self.wrap(name, fn)
                ))
            yield

    # ------------------------------------------------------------ analysis
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, inclusive and self seconds."""
        if not len(self.ids):
            return {}
        ids = np.frombuffer(self.ids, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        names = np.frombuffer(self.name_ids, dtype=np.uint16)
        dur = (
            np.frombuffer(self.ends, dtype=np.int64)
            - np.frombuffer(self.starts, dtype=np.int64)
        )
        # Every span has closed, so ids are exactly 0 .. count - 1.
        covered = np.zeros(len(ids), dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], dur[has_parent])
        self_ns = dur - covered[ids]
        out: Dict[str, Dict[str, float]] = {}
        for name_id, name in enumerate(self.names):
            mask = names == name_id
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float(dur[mask].sum()) / 1e9,
                "self_s": float(self_ns[mask].sum()) / 1e9,
            }
        return out

    def root_seconds(self) -> float:
        """Time covered by spans that have no parent."""
        parents = np.frombuffer(self.parents, dtype=np.int32)
        dur = (
            np.frombuffer(self.ends, dtype=np.int64)
            - np.frombuffer(self.starts, dtype=np.int64)
        )
        return float(dur[parents < 0].sum()) / 1e9

    def write(self, directory: Path, stem: str) -> Path:
        """Write the spans as ``<stem>.spans`` (raw arrays) plus a JSON index.

        The binary file holds five consecutive little-endian arrays of
        ``count`` elements each: id (int32), parent (int32), name
        (uint16), start_ns (int64), end_ns (int64).  Records are in
        completion order; ids are in start order.
        """
        directory.mkdir(parents=True, exist_ok=True)
        data = directory / f"{stem}.spans"
        with data.open("wb") as handle:
            for column in (
                self.ids, self.parents, self.name_ids, self.starts, self.ends,
            ):
                column.tofile(handle)
        index = {
            "count": len(self.ids),
            "names": self.names,
            "columns": [
                ["id", "int32"], ["parent", "int32"], ["name", "uint16"],
                ["start_ns", "int64"], ["end_ns", "int64"],
            ],
        }
        (directory / f"{stem}.spans.json").write_text(json.dumps(index) + "\n")
        return data
