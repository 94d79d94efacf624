"""In-memory span recording around patched module-level functions.

A span is (name, start, end, parent, request): ``parent`` is the index of
the span that was open when this one started, ``request`` the id of the
benchmark request that caused it.  Self time is a span's duration minus the
part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


class Tracer:
    """Records spans and counts while its wrappers are installed.

    ``install`` replaces a function by a timing wrapper in every loaded
    module of the package that holds it under some name, because the
    package's modules import functions by name.  ``on_return`` hooks see
    (args, kwargs, result) and update ``counts``.
    """

    def __init__(self, package: str):
        self.package = package
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.request = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, on_return):
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, perf(), None, stack[-1] if stack else None, self.request]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return wrapper

    def install(self, module: str, attr: str, on_return=None) -> int:
        """Wrap ``module.attr`` wherever the package binds it; returns the bind count."""
        original = getattr(importlib.import_module(module), attr)
        name = f"{module.rpartition('.')[2]}.{attr}"
        wrapper = self._wrap(name, original, on_return)
        bound = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package
                                   or mod_name.startswith(self.package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, wrapper)
                    bound += 1
        return bound

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus what its children cover."""
    children = defaultdict(list)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent is not None:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def self_time_by_name(spans) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] += own
    return dict(totals)

