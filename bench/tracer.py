"""Spans and call counts around pfsaddle's public functions, from outside.

`Tracer.install` replaces each public name at the place where callers look
it up (a module global such as `pfsaddle.harness.laplacian`, or a class
attribute such as `SaddleProblem.grad_f`) with a wrapper that records a
span: name, start, end and the span it ran under.  `Tracer.uninstall` puts
the originals back.  Nothing under `src/` is edited.

Spans are kept in memory as flat integer arrays and written out after the
run.  Self time is a span's duration minus the durations of the spans
directly inside it; the wrappers' own bookkeeping for a child lands in the
parent's self time, so self times of parents with many short children are
inflated by the tracing overhead.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path

import numpy as np

from pfsaddle import algorithms, gossip, harness, metrics, problems
from pfsaddle.metrics import RunRecorder
from pfsaddle.problems import SaddleProblem
from pfsaddle.stacked import BallDomain, StackedPoint

# span name -> the (owner, attribute) places its callers look it up
SPANS = {
    "harness.parse_config": [(harness, "parse_config")],
    "harness.build_problem": [(harness, "build_problem")],
    "gossip.laplacian": [(harness, "laplacian")],
    "gossip.power_lambda_max": [(gossip, "power_lambda_max")],
    "gossip.penalty_grad": [(algorithms, "penalty_grad"), (problems, "penalty_grad")],
    "problems.reference_solution": [(harness, "reference_solution")],
    "problems.grad_f": [(SaddleProblem, "grad_f")],
    "stacked.project": [(BallDomain, "project")],
    "algorithms.extragradient_run": [(algorithms, "extragradient_run")],
    "algorithms.baseline_run": [(harness, "baseline_run")],
    "algorithms.sliding_run": [(harness, "sliding_run")],
    "algorithms.rles_run": [(harness, "rles_run")],
    "algorithms.solve_prox": [(algorithms, "solve_prox")],
    "algorithms.sliding_outer_step": [(algorithms, "sliding_outer_step")],
    "algorithms.rles_outer_step": [(algorithms, "rles_outer_step")],
    "metrics.observe": [(RunRecorder, "observe")],
    "metrics.restricted_gap": [(metrics, "restricted_gap"),
                               (algorithms, "restricted_gap"),
                               (harness, "restricted_gap")],
}

# count name -> places; counted without a span, these are too frequent
COUNTS = {
    "stacked.StackedPoint": [(StackedPoint, "__post_init__")],
}

_NO_PARENT = -1


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one span = (name id, start ns, end ns, parent span index)
        self.spans = array("q")
        self._stack: list[list[int]] = []  # [span index, child ns]
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.failed: list[int] = []
        self.counts: dict[str, int] = {name: 0 for name in COUNTS}
        self._saved: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
            self.failed.append(0)
        return self._ids[name]

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        nid = self._name_id(name)
        spans, stack = self.spans, self._stack
        index = len(spans) // 4
        spans.extend((nid, 0, 0, stack[-1][0] if stack else _NO_PARENT))
        frame = [index, 0]
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.failed[nid] += 1
            raise
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            duration = end - start
            spans[4 * index + 1] = start
            spans[4 * index + 2] = end
            self.calls[nid] += 1
            self.self_ns[nid] += duration - frame[1]
            if stack:
                stack[-1][1] += duration

    def _wrap_span(self, name: str, original):
        def traced(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)
        return traced

    def _wrap_count(self, name: str, original):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return counted

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for table, wrap in ((SPANS, self._wrap_span), (COUNTS, self._wrap_count)):
            for name, places in table.items():
                for owner, attr in places:
                    # read the class __dict__, not getattr, so that a plain
                    # function is restored rather than a bound method
                    original = (owner.__dict__[attr] if isinstance(owner, type)
                                else getattr(owner, attr))
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, wrap(name, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------------------------
    # read-out
    # ------------------------------------------------------------------

    def layer(self, name: str) -> tuple[int, float, int]:
        """(calls, self seconds, calls that raised) of span `name`."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0
        return self.calls[nid], self.self_ns[nid] / 1e9, self.failed[nid]

    def write(self, stem: Path) -> None:
        """Write <stem>.json (names, totals) and <stem>.npy (the spans).

        Each .npy row is (name index, start ns, end ns, parent row or -1).
        """
        stem.parent.mkdir(parents=True, exist_ok=True)
        np.save(stem.with_suffix(".npy"),
                np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 4))
        totals = {
            name: {"calls": self.calls[i], "self_s": self.self_ns[i] / 1e9,
                   "failed": self.failed[i]}
            for i, name in enumerate(self.names)
        }
        with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
            json.dump({"span_names": self.names, "spans": totals,
                       "counts": self.counts}, fh, indent=1, sort_keys=True)
            fh.write("\n")

