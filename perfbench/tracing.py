"""In-memory spans around calls into lapspec's layers.

A span is (name, start, end, parent). The layer is the part of the name
before the first dot. Spans are recorded from outside the package: while a
Tracer is installed with ``instrument``, each public function listed in
LAYER_FUNCTIONS is replaced, in every lapspec module that refers to it, by
a wrapper that opens a span. Calls lapspec makes internally therefore show
up as child spans too. Nothing is patched in an untraced run, so its hot
path is the package's own.
"""
from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

LAYERS = ("graph", "dynamics", "oracle", "estimation", "cli")

LAYER_FUNCTIONS = {
    "graph": ("parse_edge_list", "parse_schedule", "build_laplacian"),
    "dynamics": ("simulate",),
    "oracle": (
        "eigendecompose", "eig_sym", "modal_coefficients", "check_estimability",
        "verify_rank_relation", "observability_rank",
    ),
    "estimation": (
        "estimate_frequencies", "spectrogram", "refine_frequencies", "ls_fit",
        "detect_peaks",
    ),
    "cli": ("write_trace_csv", "read_trace_csv"),
}

# Inclusive per-layer times: the summed duration of the named spans, counting
# a span only when no ancestor belongs to the same metric.
TIME_METRICS = {
    "graph.parse_s": ("graph.parse_edge_list", "graph.parse_schedule"),
    "graph.laplacian_s": ("graph.build_laplacian",),
    "dynamics.simulate_s": ("dynamics.simulate",),
    "oracle.eig_s": ("oracle.eigendecompose", "oracle.eig_sym"),
    "oracle.rank_s": ("oracle.verify_rank_relation", "oracle.observability_rank"),
    "oracle.coeff_s": ("oracle.modal_coefficients", "oracle.check_estimability"),
    "estimation.estimate_s": ("estimation.estimate_frequencies",),
    "estimation.spectrogram_s": ("estimation.spectrogram",),
    "cli.startup_s": ("cli.cmd.version",),
    "cli.simulate_s": ("cli.cmd.simulate",),
    "cli.estimate_s": ("cli.cmd.estimate",),
    "cli.validate_s": ("cli.cmd.validate",),
    "cli.spectrogram_s": ("cli.cmd.spectrogram",),
    "cli.rounds_s": ("cli.cmd.rounds",),
    "cli.trace_write_s": ("cli.write_trace_csv",),
    "cli.trace_read_s": ("cli.read_trace_csv",),
}


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    __slots__ = ("tracer", "name", "sid", "start", "parent")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Open":
        tr = self.tracer
        self.sid = tr._next_id
        tr._next_id += 1
        self.parent = tr._stack[-1] if tr._stack else None
        tr._stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        tr = self.tracer
        tr._stack.pop()
        tr.spans.append(Span(self.sid, self.name, self.start, end, self.parent))


class Tracer:
    """Collects spans in memory; a single thread, so one open-span stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0

    def span(self, name: str) -> _Open:
        return _Open(self, name)

    def mark(self) -> int:
        """Position in the span list, to slice out the spans of one phase."""
        return len(self.spans)


class NullTracer:
    """Stand-in for untraced runs: spans cost one attribute lookup and call."""

    spans: list[Span] = []

    def span(self, name: str):
        return nullcontext()

    def mark(self) -> int:
        return 0


def _wrap(fn, name: str, tracer: Tracer):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return traced


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every LAYER_FUNCTIONS entry in spans while the block runs.

    Each lapspec module that holds a reference to the function (the
    defining module, the package namespace, importers such as the cli)
    gets the wrapper, so internal calls are traced as well.
    """
    modules = [m for k, m in list(sys.modules.items()) if k == "lapspec" or k.startswith("lapspec.")]
    patched = []
    try:
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules[f"lapspec.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = _wrap(original, f"{layer}.{fname}", tracer)
                for mod in modules:
                    if getattr(mod, fname, None) is original:
                        setattr(mod, fname, wrapper)
                        patched.append((mod, fname, original))
        yield tracer
    finally:
        for mod, fname, original in reversed(patched):
            setattr(mod, fname, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    Spans come from one thread, so children nest inside their parent and
    never overlap one another; the covered time is their summed duration.
    """
    out = {s.sid: s.duration for s in spans}
    for s in spans:
        if s.parent in out:
            out[s.parent] -= s.duration
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Per-layer self time in seconds; spans outside LAYERS go to 'bench'."""
    totals = {layer: 0.0 for layer in LAYERS + ("bench",)}
    selfs = self_times(spans)
    for s in spans:
        layer = s.name.split(".", 1)[0]
        totals[layer if layer in totals else "bench"] += selfs[s.sid]
    return totals


def time_metrics(spans: list[Span]) -> dict[str, float]:
    """TIME_METRICS evaluated over one set of spans."""
    by_id = {s.sid: s for s in spans}
    out = {}
    for metric, names in TIME_METRICS.items():
        total = 0.0
        for s in spans:
            if s.name not in names:
                continue
            ancestor = by_id.get(s.parent)
            while ancestor is not None and ancestor.name not in names:
                ancestor = by_id.get(ancestor.parent)
            if ancestor is None:
                total += s.duration
        out[metric] = total
    return out
