"""Spans and counters recorded from outside the `logbump` package.

`Tracer.install` wraps the public functions of each module and rebinds
every module attribute that refers to the original function.  The
package imports functions by name (``from logbump.domain import
neg_laplacian``), so wrapping only the defining module would miss most
calls.

Spans are kept in memory in flat arrays, one entry per call, and written
out once the run has ended.  Tracing assumes one thread: a span's parent
is the innermost span open when it starts.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

# Stage spans: every call the pipeline makes from `logbump.cli.run` into a
# layer falls under one of these, so `cli.other_s` is what run does itself.
STAGES = ("cli.single_well", "cli.neumann", "cli.sweep", "cli.minimax",
          "cli.verdicts", "cli.artifacts")


def _count_flow(kind):
    def count(counters, record):
        counters[f"solver.flow_iters.{kind}"] += record.iterations
        counters["solver.unconverged"] += not record.converged
    return count


def _count_cg(counters, result):
    counters["solver.cg_iters"] += result[1]


# (span name, defining module, attribute, counter hook)
TARGETS = (
    ("cli.run", "logbump.cli", "run", None),
    ("cli.single_well", "logbump.solver", "solve_single_well",
     _count_flow("single_well")),
    ("cli.neumann", "logbump.solver", "solve_neumann_well", _count_flow("neumann")),
    ("cli.sweep", "logbump.solver", "lambda_sweep", None),
    ("cli.minimax", "logbump.solver", "minimax_upper_bound", None),
    ("cli.verdicts", "logbump.verify", "compute_verdicts", None),
    ("cli.verdicts", "logbump.verify", "check_limit_problem", None),
    ("cli.verdicts", "logbump.cli", "rows_from_csv", None),
    ("cli.artifacts", "logbump.domain", "save_field", None),
    ("solver.auxiliary", "logbump.solver", "solve_auxiliary",
     _count_flow("auxiliary")),
    ("solver.cg", "logbump.solver", "conjugate_gradient", _count_cg),
    ("functional.phi_total", "logbump.functional", "PenalizedFunctional.phi_total",
     None),
    ("functional.nonlinear_rhs", "logbump.functional",
     "PenalizedFunctional.nonlinear_rhs", None),
    ("domain.neg_laplacian", "logbump.domain", "neg_laplacian", None),
    ("penalty.s_log_sq", "logbump.penalty", "s_log_sq", None),
)


class Tracer:
    """In-memory span log for one run.  Span ids start at 1; 0 is the root."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.parent = array("q")
        self.name_code = array("H")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.rebound: list[str] = []
        self._stack = [0]

    def wrap(self, name: str, fn, count=None):
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        parent, codes, start, end = self.parent, self.name_code, self.start, self.end
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start) + 1
            parent.append(stack[-1])
            codes.append(code)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid - 1] = clock()
                stack.pop()
            if count is not None:
                count(counters, out)
            return out

        return traced

    def install(self):
        """Wrap every target and rebind each `logbump` module's reference."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "logbump" or key.startswith("logbump.")]
        for span, owner, attr, count in TARGETS:
            holder = sys.modules[owner]
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(holder, cls_name)
                setattr(cls, meth, self.wrap(span, getattr(cls, meth), count))
                self.rebound.append(f"{owner}.{attr}")
                continue
            original = getattr(holder, attr)
            wrapper = self.wrap(span, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self.rebound.append(f"{mod.__name__}.{key}")

    # -- results ---------------------------------------------------------

    def arrays(self):
        n = len(self.start)
        return {
            "span_id": np.arange(1, n + 1),
            "parent_id": np.frombuffer(self.parent, dtype=np.int64),
            "name": np.frombuffer(self.name_code, dtype=np.uint16),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path):
        """Write every span as arrays: ids, parent ids, names, start, end."""
        np.savez(path, run_id=np.array(self.run_id), names=np.array(self.names),
                 **self.arrays())

    def summary(self) -> dict:
        return summarize(self.names, self.arrays(), self.counters)


def summarize(names, spans, counters) -> dict:
    """Per-name calls, inclusive and self time, plus the layer metrics."""
    dur = spans["end"] - spans["start"]
    n = len(dur)
    covered = np.bincount(spans["parent_id"], weights=dur, minlength=n + 1)
    self_time = dur - covered[1:]
    k = len(names)
    calls = np.bincount(spans["name"], minlength=k)
    total = np.bincount(spans["name"], weights=dur, minlength=k)
    own = np.bincount(spans["name"], weights=self_time, minlength=k)
    by_name = {nm: {"calls": int(calls[i]), "total_s": float(total[i]),
                    "self_s": float(own[i])} for i, nm in enumerate(names)}

    def total_s(nm):
        return by_name.get(nm, {}).get("total_s", 0.0)

    def calls_of(nm):
        return by_name.get(nm, {}).get("calls", 0)

    run_s = total_s("cli.run")
    cg_calls = calls_of("solver.cg")
    lap_calls = calls_of("domain.neg_laplacian")
    metrics = {f"{s}_s": total_s(s) for s in STAGES}
    metrics["cli.other_s"] = run_s - sum(total_s(s) for s in STAGES)
    metrics.update({
        "solver.cg_s": total_s("solver.cg"),
        "solver.cg_calls": cg_calls,
        "solver.cg_iters": counters.get("solver.cg_iters", 0),
        "solver.cg_iters_per_call":
            counters.get("solver.cg_iters", 0) / cg_calls if cg_calls else 0.0,
        "solver.flow_iters.single_well":
            counters.get("solver.flow_iters.single_well", 0),
        "solver.flow_iters.auxiliary": counters.get("solver.flow_iters.auxiliary", 0),
        "solver.flow_iters.neumann": counters.get("solver.flow_iters.neumann", 0),
        "solver.unconverged": counters.get("solver.unconverged", 0),
        "functional.phi_total_calls": calls_of("functional.phi_total"),
        "functional.phi_total_s": total_s("functional.phi_total"),
        "functional.nonlinear_rhs_s": total_s("functional.nonlinear_rhs"),
        "domain.neg_laplacian_calls": lap_calls,
        "domain.neg_laplacian_s": total_s("domain.neg_laplacian"),
        "domain.neg_laplacian_us_per_call":
            1e6 * total_s("domain.neg_laplacian") / lap_calls if lap_calls else 0.0,
        "penalty.s_log_sq_calls": calls_of("penalty.s_log_sq"),
        "penalty.s_log_sq_s": total_s("penalty.s_log_sq"),
    })
    return {"metrics": metrics, "spans": by_name}
