"""Span tracing of a program's public functions, installed from outside.

A Tracer replaces each named function, in every module that binds it,
by a wrapper that records one span per call: name, start, end, parent
span and the id of the benchmark operation it ran under.  Spans are
kept in flat arrays in memory; `restore` puts every original back.

Wrappers record only while an operation is open (`op_id >= 0`), so the
benchmark's own output checks, which call the same functions, add no
spans.  Self time of a span is its duration minus the durations of its
direct children; in one thread the children of a span never overlap,
so their summed durations are exactly the part of the interval they
cover.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.ops = array("i")
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- installation -----------------------------------------------------

    def wrap(self, targets, package: str) -> None:
        """Wrap each (module, function name) in `targets` in every loaded
        module of `package` that binds the same function object.  The
        span is named `<module tail>.<function>`, e.g. `linalg.hnf_rows`
        for `capitula.linalg.hnf_rows`."""
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        for home, fname in targets:
            original = getattr(sys.modules[home], fname)
            wrapper = self._wrapper(f"{home.rsplit('.', 1)[-1]}.{fname}", original)
            for mod in modules:
                if vars(mod).get(fname) is original:
                    self._patches.append((mod, fname, original))
                    setattr(mod, fname, wrapper)

    def restore(self) -> None:
        """Put back every function `wrap` replaced."""
        while self._patches:
            mod, fname, original = self._patches.pop()
            setattr(mod, fname, original)

    def _wrapper(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, ops = self.parents, self.ops

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id < 0:
                return fn(*args, **kwargs)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return traced

    # -- analysis ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.starts)

    def summary(self, first: int = 0, last: int | None = None) -> dict:
        """Per span name over spans [first, last): call count, total self
        seconds, and call counts keyed by parent name."""
        return summarize(self.names, self.name_ids, self.starts, self.ends,
                         self.parents, first, len(self) if last is None else last)

    def write_tsv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self)):
                fh.write(f"{i}\t{self.names[self.name_ids[i]]}\t{self.starts[i]:.9f}\t"
                         f"{self.ends[i]:.9f}\t{self.parents[i]}\t{self.ops[i]}\n")


def self_times(starts, ends, parents, first: int = 0, last: int | None = None) -> list[float]:
    """Self time of each span in [first, last): its duration minus the
    summed durations of its direct children.  Parents precede children,
    and a child's parent lies in the same range."""
    last = len(starts) if last is None else last
    own = [ends[i] - starts[i] for i in range(first, last)]
    for i in range(first, last):
        p = parents[i]
        if p >= first:
            own[p - first] -= ends[i] - starts[i]
    return own


def summarize(names, name_ids, starts, ends, parents, first, last) -> dict:
    own = self_times(starts, ends, parents, first, last)
    out = {name: {"calls": 0, "self_s": 0.0, "by_parent": {}} for name in names}
    for k, i in enumerate(range(first, last)):
        entry = out[names[name_ids[i]]]
        entry["calls"] += 1
        entry["self_s"] += own[k]
        p = parents[i]
        parent = names[name_ids[p]] if p >= 0 else None
        entry["by_parent"][parent] = entry["by_parent"].get(parent, 0) + 1
    return out
