"""Span tracing of cfkit from outside the program.

``Tracer.install`` wraps cfkit's public functions without editing them.  A
module-level function is replaced in every cfkit module that holds it, which
is where its callers look it up (``cfkit.score.cf_c``, ``cfkit.cli.cf_c``,
``cfkit.pain.joint_bounds``, ...).  Methods are wrapped on their class, since
replacing the class itself would break code that already holds it.  A name
that no longer exists is reported as absent, not as an error.

Spans stay in memory as ``[name, start_ns, end_ns, parent, run, rows, error]``
and are written out once the traced work ends.  ``summarize`` turns them into
the per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

# (span name, module, attribute, where the row count comes from)
#   "in":  length of the first argument (kernel input rows)
#   "out": length of the result (rows produced)
SPANS = (
    ("cli.main", "cfkit.cli", "main", None),
    ("cfn.parse", "cfkit.cfn", "CognitiveFuzzyNumber.parse", None),
    ("cfn.validate", "cfkit.cfn", "CognitiveFuzzyNumber.__post_init__", None),
    ("distance.cf_c", "cfkit.distance", "cf_c", None),
    ("distance.cf_im", "cfkit.distance", "cf_im", None),
    ("distance.cf_h", "cfkit.distance", "cf_h", None),
    ("distance.component_rows", "cfkit.distance", "component_rows", "out"),
    ("score.score", "cfkit.score", "score", None),
    ("backends.cfim_pairwise", "cfkit.backends", "cfim_pairwise", "in"),
    ("backends.cfh_pairwise", "cfkit.backends", "cfh_pairwise", "in"),
    ("backends.legacy_pairwise", "cfkit.backends", "legacy_pairwise", "in"),
    ("backends.score_many", "cfkit.backends", "score_many", "in"),
    ("perturbation.run_study", "cfkit.perturbation", "run_study", None),
    ("perturbation.perturb", "cfkit.perturbation", "perturb", None),
    ("pain.solve_programming1", "cfkit.pain", "solve_programming1", None),
    ("pain.sensitivity_sweep", "cfkit.pain", "sensitivity_sweep", "out"),
    ("pain.legacy_comparison_sweep", "cfkit.pain", "legacy_comparison_sweep", "out"),
    ("pain.interpret", "cfkit.pain", "interpret", None),
    ("figures.fig2_rows", "cfkit.figures", "fig2_rows", "out"),
    ("figures.fig3_rows", "cfkit.figures", "fig3_rows", "out"),
    ("figures.fig4_rows", "cfkit.figures", "fig4_rows", "out"),
    ("figures.fig5_rows", "cfkit.figures", "fig5_rows", "out"),
    ("figures.fig7_rows", "cfkit.figures", "fig7_rows", "out"),
    ("figures.fig8_rows", "cfkit.figures", "fig8_rows", "out"),
    ("figures.study_rows", "cfkit.figures", "study_rows", "out"),
    ("figures.write_csv", "cfkit.figures", "write_csv", None),
    ("figures.export_figure_datasets", "cfkit.figures", "export_figure_datasets", None),
)

# Counted, not timed: called once per CFN, so a span would mostly time itself.
COUNTERS = (("cfn.joint_bounds", "cfkit.cfn", "joint_bounds"),)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = []
        self.counts = {}
        self.absent = []
        self.run = 0

    def install(self):
        for name, module, attr, rows in SPANS:
            self._patch(name, module, attr, lambda fn, n=name, r=rows: self.wrap(n, fn, r))
        for name, module, attr in COUNTERS:
            self._patch(name, module, attr, lambda fn, n=name: self._counting(n, fn))

    def _patch(self, name, module, attr, make):
        try:
            mod = importlib.import_module(module)
        except ImportError:
            self.absent.append(name)
            return
        owner, _, fn_name = attr.rpartition(".")
        if owner:
            cls = getattr(mod, owner, None)
            raw = vars(cls).get(fn_name) if isinstance(cls, type) else None
            if raw is None:
                self.absent.append(name)
            elif isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, fn_name, type(raw)(make(raw.__func__)))
            else:
                setattr(cls, fn_name, make(raw))
            return
        original = getattr(mod, fn_name, None)
        if original is None:
            self.absent.append(name)
            return
        wrapped = make(original)
        for mod_name, holder in list(sys.modules.items()):
            if mod_name == "cfkit" or mod_name.startswith("cfkit."):
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)

    def wrap(self, name, fn, rows_from=None):
        """Return ``fn`` recording one span per call."""
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            rows = len(args[0]) if rows_from == "in" and args else 0
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans[i] = [index, start, clock(), parent, self.run, rows, 1]
                stack.pop()
                raise
            end = clock()
            stack.pop()
            if rows_from == "out":
                rows = len(out)
            spans[i] = [index, start, end, parent, self.run, rows, 0]
            return out

        return traced

    def _counting(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(
                {"names": self.names, "spans": self.spans, "counts": self.counts,
                 "absent": self.absent},
                fh,
            )


def summarize(data):
    """Per-layer metrics of one traced run, plus consistency facts.

    Returns ``(metrics, facts)``.  ``metrics`` maps ``<layer>.<function>.<stat>``
    to a number; a stat of a function that never ran is 0.
    """
    names, spans = data["names"], data["spans"]
    n = len(spans)
    duration = [s[2] - s[1] for s in spans]
    child_ns = [0] * n
    nested = True
    for i, (_, start, end, parent, *_rest) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += duration[i]
            p_start, p_end = spans[parent][1], spans[parent][2]
            nested &= p_start <= start <= end <= p_end

    stats = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0, "rows": 0})
    # Index of the outermost pain span enclosing each span (-1 if none).
    in_pain = [-1] * n
    grid_ns = refine_ns = pain_kernel_calls = pain_evals = solves = 0
    single_row_calls = kernel_calls = 0
    for i, (name_i, _, _, parent, _, rows, _) in enumerate(spans):
        name = names[name_i]
        st = stats[name]
        st["calls"] += 1
        st["ns"] += duration[i]
        st["self_ns"] += duration[i] - child_ns[i]
        st["rows"] += rows
        outer = in_pain[parent] if parent >= 0 else -1
        if outer < 0 and name.startswith("pain."):
            outer = i
            solves += 1 if name == "pain.solve_programming1" else rows
        in_pain[i] = outer
        if name.startswith("backends."):
            kernel_calls += 1
            single_row_calls += rows == 1
            if outer >= 0:
                pain_kernel_calls += 1
                if rows > 1:
                    grid_ns += duration[i]
                else:
                    refine_ns += duration[i]
                if name == "backends.score_many":
                    pain_evals += rows
                elif name == "backends.legacy_pairwise":
                    # the legacy score curve makes one call per anchor
                    pain_evals += rows / 2

    metrics = {}
    for name, st in stats.items():
        metrics[f"{name}.calls"] = st["calls"]
        metrics[f"{name}.s"] = st["ns"] / 1e9
        metrics[f"{name}.self_s"] = st["self_ns"] / 1e9
        metrics[f"{name}.rows"] = st["rows"]
        metrics[f"{name}.rows_per_call"] = st["rows"] / st["calls"]
        metrics[f"{name}.ns_per_row"] = st["ns"] / st["rows"] if st["rows"] else 0.0
    for name, count in data["counts"].items():
        metrics[f"{name}.calls"] = count
    metrics["backends.single_row_frac"] = single_row_calls / kernel_calls if kernel_calls else 0.0
    metrics["pain.grid.s"] = grid_ns / 1e9
    metrics["pain.refine.s"] = refine_ns / 1e9
    metrics["pain.kernel_calls_per_solve"] = pain_kernel_calls / solves if solves else 0.0
    metrics["pain.score_evals_per_solve"] = pain_evals / solves if solves else 0.0

    root_ns = sum(d for d, s in zip(duration, spans) if s[3] < 0)
    self_ns = [d - c for d, c in zip(duration, child_ns)]
    facts = {
        "spans": n,
        "nested": nested and min(self_ns, default=0) >= 0,
        "top_level_s": root_ns / 1e9,
        "self_sum_s": sum(self_ns) / 1e9,
        "errors": sum(s[6] for s in spans),
        "absent": data["absent"],
    }
    return metrics, facts
