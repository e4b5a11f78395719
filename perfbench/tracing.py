"""In-memory span tracing by wrapping public functions of the hetsim modules.

The wrappers replace module attributes and class methods in the benchmark
process only; no file under ``src/`` changes.  A function that one hetsim
module imports from another (``dense`` calls ``model.coupling_operators``
through its own module global) is replaced in every module that holds it,
so internal calls reach the wrapper too.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# A span: [pass id, span id, parent span id or -1, name, start, end].
PASS, ID, PARENT, NAME, START, END = range(6)


class Tracer:
    """Records one span per wrapped call while a pass is active."""

    def __init__(self):
        self.spans: list[list] = []
        self.pass_id: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, func, on_return=None):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if tracer.pass_id is None:
                return func(*args, **kwargs)
            span = [
                tracer.pass_id,
                len(tracer.spans),
                tracer._stack[-1] if tracer._stack else -1,
                name,
                time.perf_counter(),
                None,
            ]
            tracer.spans.append(span)
            tracer._stack.append(span[ID])
            try:
                result = func(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                tracer._stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def wrap_function(self, name, func, modules, on_return=None):
        """Replace ``func`` wherever one of ``modules`` binds it at top level."""
        wrapper = self._wrap(name, func, on_return)
        found = False
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is func:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
                    found = True
        if not found:
            raise LookupError(f"{name}: function not bound in any traced module")

    def wrap_method(self, name, cls, attr, on_return=None):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, on_return))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for p, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({
                    "pass": p, "id": sid, "parent": parent, "name": name,
                    "start": start, "end": end,
                }) + "\n")


def layer_totals(spans: list[list], pass_id: int) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, busy seconds ``s`` and ``self_s`` for one pass.

    Busy time counts only the outermost span of a name, so a recursive call
    is not counted twice; self time is a span's duration minus the durations
    of its direct children, which never overlap in a single thread.
    """
    mine = [s for s in spans if s[PASS] == pass_id]
    by_id = {s[ID]: s for s in mine}
    child_time: dict[int, float] = defaultdict(float)
    for s in mine:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
    )
    for s in mine:
        dur = s[END] - s[START]
        row = out[s[NAME]]
        row["calls"] += 1
        row["self_s"] += dur - child_time[s[ID]]
        parent = by_id.get(s[PARENT])
        while parent is not None and parent[NAME] != s[NAME]:
            parent = by_id.get(parent[PARENT])
        if parent is None:
            row["s"] += dur
    return dict(out)
