"""Span and counter recorder that wraps liesym's public entry points from the
outside.

``Tracer.install`` replaces each target function by a wrapper in every loaded
``liesym.*`` module that holds a reference to it (module-level imports and the
defining module's own globals), so calls made inside the program are caught
as well as the benchmark's own.  Methods are patched on their class.
``uninstall`` restores every original.  A span is (name, start, end, parent
index); per-layer self time is a span's duration minus the time covered by
its child spans.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[str, float, float, int]


class Tracer:
    def __init__(self):
        self.spans: List[Optional[Span]] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.bounds: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name, fn: Callable, before=None, after=None) -> Callable:
        """name is a span name or a callable(args) -> span name."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        named = callable(name)

        def wrapper(*args, **kw):
            label = name(args) if named else name
            if before is not None:
                before(self, args, kw)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kw)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, parent)
            if after is not None:
                after(self, args, kw, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, targets):
        """targets: (module name, attribute, span name, before, after); an
        attribute 'Class.method' patches the method on the class."""
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "liesym" or n.startswith("liesym.")) and m]
        for modname, attr, name, before, after in targets:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, self.wrap(name, orig, before, after))
                continue
            orig = getattr(owner, attr)
            wrapped = self.wrap(name, orig, before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapped)

    def _patch(self, obj, key, value):
        self._patches.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def uninstall(self):
        for obj, key, orig in reversed(self._patches):
            setattr(obj, key, orig)
        self._patches.clear()

    # -- aggregation ---------------------------------------------------------

    def layer_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: self time, inclusive time and call count; also the
        inclusive time of spans keyed by 'child<parent' name pairs."""
        spans = [s for s in self.spans if s is not None]
        child = [0.0] * len(self.spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"self": 0.0, "incl": 0.0, "calls": 0})
        for idx, s in enumerate(self.spans):
            if s is None:
                continue
            dur = s[2] - s[1]
            rec = out[s[0]]
            rec["self"] += dur - child[idx]
            rec["incl"] += dur
            rec["calls"] += 1
            if s[3] >= 0 and self.spans[s[3]] is not None:
                pair = out[f"{s[0]}<{self.spans[s[3]][0]}"]
                pair["incl"] += dur
                pair["calls"] += 1
        return out
