"""Spans around the public entry points of each pathauction layer.

The tracer replaces public names at the binding each consumer module
imports (for example ``pathauction.mechanisms.iter_ranked_paths``, the name
the mechanism layer calls) with a wrapper that records one span per call:
span id, parent span id, op id, layer, name, start and end in nanoseconds,
outcome, and a unit count (paths returned, profiles covered). Spans are
kept in memory; ``write`` dumps them when the run ends. A binding that does
not exist in the traced version of the package is skipped, so its metrics
read as zero.

Self time of a span is its duration minus the durations of its direct
children; calls are single-threaded and properly nested, so children never
overlap and their sum is exactly the covered part of the parent's interval.
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

LAYERS = ("graph", "mechanisms", "analysis", "cli", "rational")

# (consumer module, attribute, layer, unit rule). A dotted attribute names a
# method on a class exported by the module. Unit rules: "paths" counts the
# paths a ranking call returns, "profiles" the bid profiles of the grid a
# checker walks, "iter" marks a generator whose next() calls are the work.
BINDINGS: tuple[tuple[str, str, str, str | None], ...] = (
    ("pathauction.mechanisms", "iter_ranked_paths", "graph", "iter"),
    ("pathauction.mechanisms", "detour_cost", "graph", None),
    ("pathauction.analysis", "enumerate_paths", "graph", None),
    ("pathauction.analysis", "validate", "graph", None),
    ("pathauction.cli", "load_network", "graph", None),
    ("pathauction.cli", "validate", "graph", None),
    ("pathauction.cli", "rank_paths", "graph", "paths"),
    ("pathauction.cli", "bids_from_json", "graph", None),
    ("pathauction.cli", "network_to_json", "graph", None),
    ("pathauction", "rank_paths", "graph", "paths"),
    ("pathauction.mechanisms", "MechanismSpec.run", "mechanisms", None),
    ("pathauction.analysis", "group_share_path", "mechanisms", None),
    ("pathauction.analysis", "group_structure", "mechanisms", None),
    ("pathauction.analysis", "vcg_path", "mechanisms", None),
    ("pathauction.analysis", "first_price_single", "mechanisms", None),
    ("pathauction.analysis", "vickrey_single", "mechanisms", None),
    ("pathauction.analysis", "averaged_single", "mechanisms", None),
    ("pathauction", "alignment_report", "analysis", "profiles"),
    ("pathauction", "check_vcg_truthful", "analysis", "profiles"),
    ("pathauction", "check_partly_truthful", "analysis", "profiles"),
    ("pathauction.cli", "alignment_report", "analysis", "profiles"),
    ("pathauction.cli", "check_vcg_truthful", "analysis", "profiles"),
    ("pathauction.cli", "check_partly_truthful", "analysis", "profiles"),
    ("pathauction.cli", "check_critical", "analysis", None),
    ("pathauction.cli", "check_strongly_critical", "analysis", None),
    ("pathauction.cli", "check_group_truthfulness", "analysis", None),
    ("pathauction.cli", "check_degenerate_vickrey", "analysis", None),
    ("pathauction.cli", "main", "cli", None),
    ("pathauction.graph", "parse_cost", "rational", None),
    ("pathauction.graph", "format_cost", "rational", None),
    ("pathauction.cli", "parse_cost", "rational", None),
    ("pathauction.cli", "format_cost", "rational", None),
    ("pathauction.cli", "approx_suffix", "rational", None),
    ("pathauction.analysis", "format_cost", "rational", None),
)

NEXT = ".next"


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    op: int | None
    layer: str
    name: str
    start: int
    end: int
    outcome: str = "ok"
    units: int = 0

    @property
    def duration(self) -> int:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> dict[int, int]:
    """Self time in ns per span id: duration minus the direct children's."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.duration
    return own


class Tracer:
    """Records spans while installed; restores every binding on uninstall."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.op: int | None = None
        self._stack: list[int | None] = [None]
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def call(self, layer: str, name: str, fn: Callable, args: tuple, kwargs: dict,
             units: Callable[[tuple, object], int] | None = None):
        spans = self.spans
        sid = len(spans)
        parent = self._stack[-1]
        spans.append(None)
        self._stack.append(sid)
        outcome, count, start = "ok", 0, time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            if units is not None:
                count = units(args, result)
            return result
        except BaseException as exc:
            outcome = type(exc).__name__
            raise
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            spans[sid] = Span(sid, parent, self.op, layer, name, start, end, outcome, count)

    def wrap(self, layer: str, name: str, fn: Callable, rule: str | None) -> Callable:
        tracer = self
        if rule == "iter":
            @functools.wraps(fn)
            def make_iter(*args, **kwargs):
                inner = iter(tracer.call(layer, name, fn, args, kwargs))
                return _TracedIterator(tracer, layer, name + NEXT, inner)
            return make_iter
        units = {"paths": _count_paths, "profiles": _count_profiles}.get(rule)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(layer, name, fn, args, kwargs, units)
        return wrapper

    def install(self, modules: dict[str, object], bindings=BINDINGS) -> list[str]:
        """Wrap every binding present; returns the ones that were missing."""
        missing = []
        for module_name, attr, layer, rule in bindings:
            owner = modules.get(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            self._restore.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(layer, f"{module_name}.{attr}", original, rule))
        return missing

    def uninstall(self) -> None:
        while self._restore:
            owner, leaf, original = self._restore.pop()
            setattr(owner, leaf, original)

    def finished(self, first: int = 0) -> list[Span]:
        return [s for s in self.spans[first:] if s is not None]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tparent\top\tlayer\tname\tstart_ns\tend_ns\toutcome\tunits\n")
            for s in self.finished():
                parent = "" if s.parent is None else s.parent
                handle.write(f"{s.id}\t{parent}\t{s.op}\t{s.layer}\t{s.name}\t"
                             f"{s.start}\t{s.end}\t{s.outcome}\t{s.units}\n")


class _TracedIterator:
    """Iterator proxy: every next() on the wrapped generator is one span."""

    def __init__(self, tracer: Tracer, layer: str, name: str, inner) -> None:
        self._tracer, self._layer, self._name, self._inner = tracer, layer, name, inner

    def __iter__(self):
        return self

    def __next__(self):
        return self._tracer.call(self._layer, self._name, next, (self._inner,), {}, _one)


def _one(args, result) -> int:
    return 1


def _count_paths(args, result) -> int:
    return len(result) if hasattr(result, "__len__") else 0


def _count_profiles(args, result) -> int:
    grid = args[1] if len(args) > 1 else None
    size = getattr(grid, "product_size", None)
    return size() if callable(size) else 0


# ---------------------------------------------------------------------------
# Per-layer metrics of one pass
# ---------------------------------------------------------------------------

COUNT_METRICS = (
    "graph.calls", "graph.paths_ranked", "graph.detour_calls", "graph.enumerate_calls",
    "mechanisms.runs", "mechanisms.tie_ratio", "analysis.calls", "analysis.profiles",
    "analysis.runs_per_profile", "cli.requests", "cli.output_bytes", "rational.calls",
)


def layer_metrics(spans: Iterable[Span]) -> dict[str, float]:
    """Counts and self times of one pass, keyed by per-layer metric name.

    Durations are in seconds or microseconds as the name says. Ratios use
    the counts beside them as their base.
    """
    spans = list(spans)
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    # Whether a span runs inside an analysis call that walks a profile grid.
    # Parents start before their children, so a parent's entry already exists.
    in_grid: dict[int, bool] = {}
    for s in spans:
        parent = by_id.get(s.parent)
        in_grid[s.id] = parent is not None and (
            parent.layer == "analysis" and parent.units > 0 or in_grid[parent.id]
        )
    self_s = {layer: 0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    for s in spans:
        if s.layer in self_s:
            self_s[s.layer] += own[s.id]
            calls[s.layer] += not s.name.endswith(NEXT)
    ranking = [s for s in spans if s.name.endswith(NEXT) or s.units and s.layer == "graph"]
    paths_ranked = sum(s.units for s in ranking)
    mech = [s for s in spans if s.layer == "mechanisms"]
    ties = sum(s.outcome == "TieError" for s in mech)
    grid_runs = sum(in_grid[s.id] for s in mech)
    analysis = [s for s in spans if s.layer == "analysis"]
    profiles = sum(s.units for s in analysis)
    return {
        "graph.calls": calls["graph"],
        "graph.paths_ranked": paths_ranked,
        "graph.detour_calls": sum(s.name.endswith(".detour_cost") for s in spans),
        "graph.enumerate_calls": sum(s.name.endswith(".enumerate_paths") for s in spans),
        "graph.self_s": self_s["graph"] / 1e9,
        "graph.us_per_ranked_path": (
            sum(s.duration for s in ranking) / 1e3 / paths_ranked if paths_ranked else 0.0
        ),
        "mechanisms.runs": len(mech),
        "mechanisms.self_s": self_s["mechanisms"] / 1e9,
        "mechanisms.run_p50_us": (
            statistics.median(s.duration for s in mech) / 1e3 if mech else 0.0
        ),
        "mechanisms.tie_ratio": ties / len(mech) if mech else 0.0,
        "analysis.calls": calls["analysis"],
        "analysis.profiles": profiles,
        "analysis.runs_per_profile": grid_runs / profiles if profiles else 0.0,
        "analysis.self_s": self_s["analysis"] / 1e9,
        "analysis.us_per_profile": (
            sum(s.duration for s in analysis if s.units) / 1e3 / profiles if profiles else 0.0
        ),
        "cli.requests": calls["cli"],
        "cli.self_s": self_s["cli"] / 1e9,
        "rational.calls": calls["rational"],
        "rational.self_s": self_s["rational"] / 1e9,
    }
