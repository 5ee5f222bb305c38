"""Span tracing of the freeprod library from the outside.

The library imports functions by name (``kurosh`` calls its own binding of
``component_is_cover``, ``cli`` its own ``subgroup_graph``), so wrapping one
module attribute misses calls.  ``Tracer.install`` wraps each traced
function once and rebinds that wrapper everywhere the original is bound in
the package.  Spans (name, start, end, parent) stay in memory until
``write``; counters are filled by per-function hooks after each call.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

MODULES = ("words", "fingroup", "lgraph", "precover", "kurosh", "cli")

# Per-letter helpers called inside sort keys and inner loops: a span per
# call would cost more than the work it measures.
SKIP = {"letter_key", "inverse_word"}

# Private functions and methods that are layer boundaries of their own.
EXTRA = {
    "fingroup": ("FiniteGroup._validate", "_enumerate_presentation"),
    "lgraph": ("LabeledGraph.copy",),
}

# Span names that differ from module.function.
RENAME = {
    "fingroup.FiniteGroup._validate": "fingroup.validate",
    "fingroup._enumerate_presentation": "fingroup.enumerate",
    "lgraph.LabeledGraph.copy": "lgraph.copy",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.hooks: dict[str, object] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, hooks = self.spans, self.stack, self.hooks

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            hook = hooks.get(name)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function of the traced modules, plus EXTRA."""
        mods = {m: sys.modules[f"freeprod.{m}"] for m in MODULES}
        targets: list[tuple[str, object, str]] = []  # (span name, owner, attr)
        for m, mod in mods.items():
            for attr, value in vars(mod).items():
                if (
                    attr.startswith("_")
                    or attr in SKIP
                    or not callable(value)
                    or isinstance(value, type)
                    or getattr(value, "__module__", None) != mod.__name__
                ):
                    continue
                targets.append((f"{m}.{attr}", mod, attr))
            for dotted in EXTRA.get(m, ()):
                owner = mod
                *path, attr = dotted.split(".")
                for part in path:
                    owner = getattr(owner, part)
                full = f"{m}.{dotted}"
                targets.append((RENAME.get(full, full), owner, attr))

        bindings = [sys.modules["freeprod"], *mods.values()]
        for name, owner, attr in targets:
            orig = vars(owner)[attr]
            wrapped = self._wrap(name, orig)
            if isinstance(owner, type):
                self._rebind(owner, attr, orig, wrapped)
                continue
            for mod in bindings:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._rebind(mod, key, orig, wrapped)

    def _rebind(self, owner, attr, orig, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    # -- reading the spans ------------------------------------------------

    def parent_name(self, index: int) -> str | None:
        p = self.spans[index][3]
        return None if p < 0 else self.spans[p][0]

    def ancestors(self, index: int) -> set[str]:
        """Names of every span that encloses span ``index``."""
        out = set()
        p = self.spans[index][3]
        while p >= 0:
            out.add(self.spans[p][0])
            p = self.spans[p][3]
        return out

    def open_names(self) -> set[str]:
        """Names of the open spans, seen from inside a hook."""
        return {self.spans[i][0] for i in self.stack}

    def current(self) -> str | None:
        """Name of the innermost open span, seen from inside a hook."""
        return self.spans[self.stack[-1]][0] if self.stack else None

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["incl_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def inclusive(self, name: str, parents: set[str] | None = None,
                  not_parents: set[str] | None = None) -> float:
        """Total inclusive time of spans ``name``, filtered by parent name."""
        total = 0.0
        for i, (n, start, end, _) in enumerate(self.spans):
            if n != name:
                continue
            pn = self.parent_name(i)
            if parents is not None and pn not in parents:
                continue
            if not_parents is not None and pn in not_parents:
                continue
            total += end - start
        return total

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, round(start - t0, 9), round(end - t0, 9), parent]))
                fh.write("\n")
