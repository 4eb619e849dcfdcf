"""In-memory spans around the program's layer entry points.

A :class:`SpanRecorder` replaces chosen functions and methods with timing
wrappers for the traced run only, and puts the originals back afterwards.
Each span keeps its name, start, end and parent span; nothing is written
until the benchmark asks for the per-layer summary at the end.  Self time
is a span's duration minus the time its child spans cover.
"""

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


class SpanRecorder:
    def __init__(self) -> None:
        #: One row per span: [name, start, end, parent index or None].
        self.spans: List[list] = []
        #: Counters recorded at the same boundaries (e.g. instructions).
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack = threading.local()
        self._lock = threading.Lock()
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------ #

    def _wrap(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(self._stack, "open", None)
            if stack is None:
                stack = self._stack.open = []
            with self._lock:
                index = len(self.spans)
                self.spans.append(
                    [name, time.perf_counter(), None, stack[-1] if stack else None]
                )
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                self.spans[index][2] = time.perf_counter()
                if count is not None:
                    with self._lock:
                        self.counts[name] += count(*args, **kwargs)

        return wrapper

    def wrap(
        self, name: str, owner: object, attr: str, count: Optional[Callable] = None
    ) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        A module-level function is also replaced wherever a loaded
        ``repro`` module imported it by name, so ``from x import f``
        call sites are covered too.
        """
        original = getattr(owner, attr)
        wrapper = self._wrap(name, original, count)
        targets = [owner]
        if not isinstance(owner, type):
            targets += [
                module
                for mod_name, module in list(sys.modules.items())
                if mod_name.startswith("repro")
                and module is not owner
                and getattr(module, attr, None) is original
            ]
        for target in targets:
            self._patched.append((target, attr, vars(target)[attr]))
            setattr(target, attr, wrapper)

    def restore(self) -> None:
        """Put every original back (in reverse order of patching)."""
        while self._patched:
            target, attr, original = self._patched.pop()
            setattr(target, attr, original)

    # -- summary -------------------------------------------------------- #

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, durations."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None and end is not None:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            if end is None:
                continue
            entry = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
            )
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - child_time[index]
            entry["durations"].append(end - start)
        return out

    def covered_seconds(self) -> float:
        """Wall seconds covered by at least one span (the union of the
        root spans of every thread)."""
        roots = sorted(
            (start, end)
            for _name, start, end, parent in self.spans
            if parent is None and end is not None
        )
        covered = 0.0
        reach = float("-inf")
        for start, end in roots:
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        return covered
