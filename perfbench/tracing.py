"""Per-layer tracing by rebinding the names the CLI calls into each module.

Nothing under ``src/`` is changed: ``installed`` swaps the module-level
names that ``nearfocus.cli`` calls (and the special-function names that
``nearfocus.analytic`` calls) for wrappers that record a span per call and
the counts the layer metrics need, and restores the originals on exit.

Spans are ``(id, name, start, end, parent)`` tuples kept in memory; each
layer's time is the inclusive duration of its spans, except ``cli.self_s``,
which is ``cli.main`` minus its direct child spans.  Row generators run
inside ``write_csv``, so their time counts as csvio.

Solver counts: a clipped port is driven at the amplitude cap, an idle port
not at all, and ``focusing.power_residual_rel`` is the largest |P - P0|/P0
over the solves whose power budget binds.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

from nearfocus import analytic, cli
from nearfocus.fields import ChannelVector

MB = 1024.0 * 1024.0

# span name -> (module, attribute names) rebound under that span
_TARGETS = {
    "cli.main": (cli, ("main",)),
    "geometry.build": (cli, ("build_ring_array", "build_cylinder_mesh",
                             "build_rect_corridor_mesh")),
    "fields.channel": (cli, ("assemble_channel", "green_electric", "green_magnetic")),
    "fields.evaluate": (cli, ("evaluate_field",)),
    "focusing.solve": (cli, ("cp_weights", "tr_weights", "hybrid_weights")),
    "csvio.write": (cli, ("write_csv",)),
    "metrics.cut": (cli, ("cut_metrics", "metrics_flat_dict")),
    "metrics.contour": (cli, ("contour_3db",)),
    "analytic.profile": (analytic, ("resolution_profiles",)),
    "analytic.closed_form": (analytic, ("ez_cp_axis", "ex_cp_axis", "ez_tr_axis",
                                        "ex_tr_axis")),
    "specfun": (analytic, ("sinc", "sine_integral", "spherical_j1_over_x", "struve_h",
                           "complete_elliptic_k")),
}

# spans whose tracemalloc peak is recorded in allocation passes
_ALLOC_SPANS = ("fields.evaluate", "csvio.write")


class Tracer:
    """Spans, counts and allocation peaks of one pass."""

    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.alloc_peak_mb: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        count = _COUNTERS.get(name)
        measure_alloc = self.alloc and name in _ALLOC_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(span_id)
            if measure_alloc:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except ValueError:
                if name.startswith("metrics."):
                    self.counts["metrics.skipped"] += 1
                raise
            finally:
                end = time.perf_counter()
                if measure_alloc:
                    peak = tracemalloc.get_traced_memory()[1] / MB
                    tracemalloc.stop()
                    self.alloc_peak_mb[name] = max(self.alloc_peak_mb[name], peak)
                self._stack.pop()
                self.spans[span_id] = (span_id, name, start, end, parent)
            self.counts[name + ".calls"] += 1
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def layer_seconds(self) -> dict[str, float]:
        """Inclusive seconds per span name, plus cli self time."""
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for span_id, name, start, end, parent in self.spans:
            total[name] += end - start
            if parent is not None:
                child[parent] += end - start
        total["cli.self"] = sum(end - start - child[span_id]
                                for span_id, name, start, end, _ in self.spans
                                if name == "cli.main")
        return total

    def write(self, path) -> None:
        """Write the spans and counts of the pass as one JSON document."""
        with open(path, "w") as f:
            json.dump({"fields": ["id", "name", "start", "end", "parent"],
                       "spans": self.spans, "counts": dict(self.counts),
                       "alloc_peak_mb": dict(self.alloc_peak_mb)}, f)


def _count_sources(counts, args, result):
    counts["geometry.sources"] += len(result)


def _count_channel(counts, args, result):
    # green_* return the 3x3 kernel of the one-element path
    counts["fields.channel_sources"] += len(result) if isinstance(result, ChannelVector) else 1


def _count_evaluate(counts, args, result):
    n_sources = len(args[0])
    counts["fields.pairs"] += len(result) * n_sources
    counts["fields.near_singular_points"] += int(np.count_nonzero(result.near_singular))


def _count_solve(counts, args, result):
    pc = args[1]
    weights, report = result
    amp = np.abs(weights.w)
    counts["focusing.ports"] += amp.size
    counts["focusing.clipped_ports"] += int(np.count_nonzero(amp >= pc.w_max * (1 - 1e-12)))
    counts["focusing.idle_ports"] += int(np.count_nonzero(amp == 0.0))
    if report.active_constraint in ("global", "both"):
        residual = abs(weights.total_power - pc.P0) / pc.P0
        counts["focusing.power_residual_rel"] = max(
            counts["focusing.power_residual_rel"], residual)


def _count_csv(counts, args, result):
    with open(args[0], "rb") as f:
        data = f.read()
    counts["csvio.rows"] += data.count(b"\n") - 1
    counts["csvio.bytes"] += len(data)


_COUNTERS = {
    "geometry.build": _count_sources,
    "fields.channel": _count_channel,
    "fields.evaluate": _count_evaluate,
    "focusing.solve": _count_solve,
    "csvio.write": _count_csv,
}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebind every traced name to a recording wrapper for the duration."""
    saved = []
    for name, (module, attrs) in _TARGETS.items():
        for attr in attrs:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original))
    try:
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
