"""In-memory span recorder, self time, and wrappers around spinsource's layers.

Span record format (one per call of a wrapped callable):

    id        index of the span in ``Recorder.spans``
    parent    id of the span that was open when this one started, or -1
    trace     identifier shared by the spans of one request (one config)
    name      "<layer>.<callable>", e.g. "channels.apply_channel"
    start_ns  time.perf_counter_ns() when the call started
    end_ns    time.perf_counter_ns() when it returned or raised

Counts are a flat ``{name: number}`` dict incremented at the same
boundaries: ``<span name>.calls`` for every span, plus whatever a probe
derives from a call's arguments and result.

Nothing under ``src/`` changes: ``instrumented`` swaps each public
module-level function of the measured layers for a wrapper in every
module namespace that holds it (so ``from .x import f`` call sites are
seen too), plus the source ``density`` methods and the config loaders,
and restores the originals on exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# pinching lies on no config-to-report path and is left unmeasured
LAYERS = ("operators", "channels", "classical", "sources", "ergodicity", "runner")
METHODS = {
    "sources": {
        "IIDSource": ("density",),
        "ClassicallyCorrelatedSource": ("density",),
        "ChannelTransformedSource": ("density",),
    },
    "runner": {"ExperimentConfig": ("from_json", "from_dict")},
}


@dataclass(slots=True)
class Span:
    id: int
    parent: int
    trace: str
    name: str
    start_ns: int
    end_ns: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


class Recorder:
    """Keeps spans and counts in memory; ``trace`` labels the spans opened next."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.trace = ""
        self._open = []

    def open(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else -1
        span = Span(len(self.spans), parent, self.trace, name, time.perf_counter_ns())
        self.spans.append(span)
        self._open.append(span)
        self.counts[name + ".calls"] += 1
        return span

    def close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._open.pop()


def self_times(spans) -> dict:
    """Seconds per span name: each span's duration minus the part of its
    interval that its child spans cover (overlapping children count once)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start_ns, s.end_ns))
    out = defaultdict(float)
    for s in spans:
        covered = 0
        reach = s.start_ns
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, reach), min(end, s.end_ns)
            if end > start:
                covered += end - start
                reach = end
        out[s.name] += (s.end_ns - s.start_ns - covered) / 1e9
    return dict(out)


def _wrap(recorder: Recorder, name: str, fn, probe):
    signature = inspect.signature(fn) if probe else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if probe is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            probe(recorder.counts, bound.arguments, result)
        return result

    return wrapper


@contextmanager
def instrumented(package, recorder: Recorder, probes: dict):
    """Record a span for every call into the measured layers of ``package``.

    probes maps a span name to ``probe(counts, arguments, result)``, run
    after the call with its bound arguments.
    """
    modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
    wrappers = {}  # id(original) -> (original, wrapper)
    patches = []  # (owner, attribute, original), undone in reverse
    try:
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = (obj, _wrap(recorder, name, obj, probes.get(name)))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    raw = cls.__dict__[method]
                    name = f"{layer}.{cls_name}.{method}"
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(_wrap(recorder, name, raw.__func__, probes.get(name)))
                    else:
                        wrapped = _wrap(recorder, name, raw, probes.get(name))
                    patches.append((cls, method, raw))
                    setattr(cls, method, wrapped)
        for module in (package, *modules.values()):
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    patches.append((module, attr, obj))
                    setattr(module, attr, entry[1])
        yield recorder
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
