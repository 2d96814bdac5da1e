"""Span and counter recorder for the traced benchmark run.

The benchmark changes no library code. In a traced call it replaces each
target below with a wrapper that records a span (name, start, end, parent)
around the original and, for some targets, reads counters off the result.
Every wrapper is installed on the name the caller looks up at call time
(``prone.pipeline.centers_of_mass``, not ``prone.baseline.centers_of_mass``,
because ``pipeline.prone`` calls it through its own module globals), and
``uninstall`` puts the originals back.

A target or counter that a later version of the library no longer has is
recorded as absent, and the run goes on without it.
"""

from __future__ import annotations

import functools
import importlib
import math
import time


class Tracer:
    """Spans and integer or float counters of one call, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = {}
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def count(self, name: str, value) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, owner, attr: str, span: str, after=None, site: str = "") -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        orig = getattr(owner, attr, None)
        if not callable(orig):
            self.absent.add(site)
            return
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append([span, time.perf_counter(), 0.0, parent])
            tracer._stack.append(idx)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer.spans[idx][2] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                try:
                    after(tracer, out, args)
                except (AttributeError, IndexError, TypeError, ValueError):
                    tracer.absent.add(site + ":counters")
            return out

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def install(self, targets) -> None:
        for module_name, path, span, after in targets:
            site = f"{module_name}.{path}"
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.absent.add(site)
                continue
            *owners, attr = path.split(".")
            for name in owners:
                owner = getattr(owner, name, None)
            if owner is None:
                self.absent.add(site)
                continue
            self.wrap(owner, attr, span, after, site)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def take(self) -> dict:
        """Summarise and clear the spans and counters recorded so far.

        Per span name: total seconds, self seconds (total minus the part
        covered by direct child spans), call count and each call's duration.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        spans: dict[str, dict] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = spans.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0, "durations": []})
            entry["total"] += end - start
            entry["self"] += end - start - child[i]
            entry["calls"] += 1
            entry["durations"].append(end - start)
        out = {"spans": spans, "counters": dict(self.counters), "absent": sorted(self.absent)}
        self.spans.clear()
        self.counters.clear()
        return out


def _count_projected(tr: Tracer, out, args) -> None:
    tr.count("project_points", int(out.size))


def _count_seeding(tr: Tracer, out, args) -> None:
    result, stats = out
    n = int(result.assignment.size)
    tr.count("draws", int(result.center_indices.size) - 1)
    tr.count("total_updates", int(stats.total_updates))
    tr.count("comparisons", int(stats.comparisons))
    tr.count("exhausted", int(bool(result.exhausted)))
    tr.count("n_log2_n", n * math.log2(n) if n > 1 else 0.0)


def _count_relocated(tr: Tracer, out, args) -> None:
    tr.count("relocated", int(out[1].size))


def _count_tree_writes(tr: Tracer, out, args) -> None:
    tree = args[0]
    tr.count("leaf_writes", int(tree.last_update_leaf_nodes))
    tr.count("internal_writes", int(tree.last_update_internal_nodes))


def _count_flops(tr: Tracer, out, args) -> None:
    k, d = args[1].shape
    tr.count("nearest_flops", 2.0 * out[0].size * k * d)


def _count_coreset(tr: Tracer, out, args) -> None:
    tr.count("coreset_size", int(out.weights.size))
    tr.count("coreset_weight_sum", float(out.weights.sum()))


# (module, attribute path, span name, counter hook)
LIBRARY_TARGETS = [
    ("prone.pipeline", "prone", "pipeline.prone", None),
    ("prone.pipeline", "sample_direction", "projection.sample_direction", None),
    ("prone.pipeline", "project", "projection.project", _count_projected),
    ("prone.pipeline", "seed_1d_fast", "seeding1d.seed_1d_fast", _count_seeding),
    ("prone.pipeline", "centers_of_mass", "baseline.centers_of_mass", _count_relocated),
    ("prone.pipeline", "cost_with_assignment", "baseline.cost_with_assignment", None),
    ("prone.seeding1d", "assign_to_sorted_centers", "seeding1d.assign_to_sorted_centers", None),
    ("prone.seeding1d", "SamplingTree.__init__", "sampling_tree.init", None),
    ("prone.seeding1d", "SamplingTree.find", "sampling_tree.find", None),
    ("prone.seeding1d", "SamplingTree.update", "sampling_tree.update", _count_tree_writes),
    ("prone.baseline", "nearest_assignment", "baseline.nearest_assignment", _count_flops),
    ("prone.baseline", "kmeanspp_seed", "baseline.kmeanspp_seed", None),
    ("prone.coreset", "boosted_prone", "coreset.boosted_prone", None),
    ("prone.coreset", "prone", "coreset.prone", None),
    ("prone.coreset", "sensitivity_distribution", "coreset.sensitivity_distribution", None),
    ("prone.coreset", "sample_coreset", "coreset.sample_coreset", _count_coreset),
    ("prone.coreset", "kmeanspp_seed", "coreset.weighted_seed", None),
    ("prone.coreset", "nearest_assignment", "baseline.nearest_assignment", _count_flops),
]

# Installed in addition inside a traced ``prone cluster`` child process.
CLI_TARGETS = [
    ("prone.cli", "cmd_cluster", "cli.cmd_cluster", None),
    ("prone.cli", "load_dense_csv", "dataset.load_dense_csv", None),
    ("prone.cli", "prone", "cli.prone", None),
]
