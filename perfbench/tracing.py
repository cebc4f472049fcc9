"""Spans around colgen's layer entry points, for the benchmark's traced runs.

`Tracer.installed()` swaps each entry point below for a wrapper that records
one span per call (name, start, end, parent span, solve id) and restores the
originals on exit.  Spans stay in typed arrays until `write_spans`; self time
(duration minus the part covered by child spans) is computed as each span
closes.

The layers are the library's modules on the solve path: `lp` (master LP),
`engine` (`run_dwd` itself), `filtering` (screening), `assignment` (`ga`
pricing) and `mcflow` (`mc` pricing and problem construction).  The screening
bound terms are methods of the problem classes, but they compute the
filtering layer's term, so their spans count under `filtering`.
"""

from __future__ import annotations

import contextlib
import json
import time
from array import array

import colgen.assignment
import colgen.engine
import colgen.lp
import colgen.mcflow

# span name -> layer, in span-code order
SPANS = {
    "engine.run_dwd": "engine",
    "lp.solve": "lp",
    "lp.add_column": "lp",
    "filtering.should_filter": "filtering",
    "filtering.bound_term": "filtering",
    "filtering.support_set": "filtering",
    "assignment.pricing": "assignment",
    "assignment.knapsack": "assignment",
    "mcflow.setup": "mcflow",
    "mcflow.pricing": "mcflow",
    "mcflow.rcsp": "mcflow",
}
LAYERS = ("lp", "assignment", "mcflow", "filtering", "engine")
_CODE = {name: i for i, name in enumerate(SPANS)}
_NAMES = tuple(SPANS)


class Tracer:
    """In-memory span log plus the counters read from wrapped return values."""

    def __init__(self):
        self.code = array("b")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self.parent = array("l")
        self.solve = array("l")
        self.solve_id = 0  # 0 = outside any solve (instance set-up)
        self._stack: list[list] = []  # [span index, time covered by children]
        self.lp_pivots = 0
        self.lp_rows = 0
        self.lp_cols = 0
        self.filter_bounds = 0
        self.filter_attempted = 0
        self.filter_skipped = 0

    def __len__(self) -> int:
        return len(self.code)

    def wrap(self, name: str, fn):
        code = _CODE[name]
        codes, starts, ends, selfs = self.code, self.start, self.end, self.self_s
        parents, solves, stack, clock = self.parent, self.solve, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(codes)
            frame = [idx, 0.0]
            codes.append(code)
            parents.append(stack[-1][0] if stack else -1)
            solves.append(self.solve_id)
            starts.append(0.0)
            ends.append(0.0)
            selfs.append(0.0)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[idx] = start
                ends[idx] = end
                selfs[idx] = end - start - frame[1]
                if stack:
                    stack[-1][1] += end - start
        return traced

    def _wrap_lp_solve(self, fn):
        inner = self.wrap("lp.solve", fn)

        def solve(model):
            sol = inner(model)
            self.lp_pivots += sol.iterations
            self.lp_rows = max(self.lp_rows, model.num_rows)
            self.lp_cols = max(self.lp_cols, model.num_cols)
            return sol
        return solve

    def _wrap_should_filter(self, fn):
        inner = self.wrap("filtering.should_filter", fn)

        def should_filter(*args, **kwargs):
            fd = inner(*args, **kwargs)
            self.filter_bounds += fd.bounds_evaluated
            if fd.bounds_evaluated > 0:
                self.filter_attempted += 1
            if fd.skip:
                self.filter_skipped += 1
            return fd
        return should_filter

    @contextlib.contextmanager
    def installed(self):
        """Swap the layer entry points for traced wrappers while inside."""
        ga, mc = colgen.assignment.GaBlockProblem, colgen.mcflow.McBlockProblem
        patches = [
            (colgen.lp.LpModel, "solve", self._wrap_lp_solve),
            (colgen.lp.LpModel, "add_column", lambda f: self.wrap("lp.add_column", f)),
            (colgen.engine, "should_filter", self._wrap_should_filter),
            (colgen.assignment, "knapsack_min", lambda f: self.wrap("assignment.knapsack", f)),
            (colgen.mcflow, "rcsp", lambda f: self.wrap("mcflow.rcsp", f)),
            (ga, "solve_pricing", lambda f: self.wrap("assignment.pricing", f)),
            (mc, "solve_pricing", lambda f: self.wrap("mcflow.pricing", f)),
            (mc, "__init__", lambda f: self.wrap("mcflow.setup", f)),
        ]
        for cls in (ga, mc):
            for attr in ("hypercube_bound_term", "heuristic_bound_term"):
                patches.append((cls, attr, lambda f: self.wrap("filtering.bound_term", f)))
            patches.append((cls, "support_set", lambda f: self.wrap("filtering.support_set", f)))
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, make in patches:
                setattr(owner, attr, make(owner.__dict__[attr]))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def totals(self, in_solves: bool) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds).

        `in_solves` keeps spans recorded inside a solve; otherwise only the
        set-up spans (solve id 0) are counted.
        """
        calls = [0] * len(_NAMES)
        incl = [0.0] * len(_NAMES)
        own = [0.0] * len(_NAMES)
        for i, code in enumerate(self.code):
            if (self.solve[i] > 0) != in_solves:
                continue
            calls[code] += 1
            incl[code] += self.end[i] - self.start[i]
            own[code] += self.self_s[i]
        return {name: (calls[i], incl[i], own[i]) for i, name in enumerate(_NAMES)}

    def pricing_seconds_by_solve(self) -> dict[int, float]:
        """Inclusive pricing seconds (`ga` or `mc`) per solve id."""
        codes = {_CODE["assignment.pricing"], _CODE["mcflow.pricing"]}
        out: dict[int, float] = {}
        for i, code in enumerate(self.code):
            if code in codes:
                sid = self.solve[i]
                out[sid] = out.get(sid, 0.0) + self.end[i] - self.start[i]
        return out

    def write_spans(self, path) -> None:
        """One JSON array per line: name, start_s, end_s, parent index, solve id."""
        t0 = self.start[0] if len(self) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, code in enumerate(self.code):
                fh.write(json.dumps([_NAMES[code], round(self.start[i] - t0, 7),
                                     round(self.end[i] - t0, 7), self.parent[i],
                                     self.solve[i]]))
                fh.write("\n")
