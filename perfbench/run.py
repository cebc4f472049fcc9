#!/usr/bin/env python3
"""colgen benchmark: time to a verified optimum, end to end and by layer.

Run from the repository root:

    python3 perfbench/run.py --workload ga-pricing --seed 0 --seconds 20 --trace 0

One process runs one workload, single-threaded, through the public API
(`generate_*_instance`, `GaBlockProblem`/`McBlockProblem`, `run_dwd`).  A
sweep builds the workload's instances from `--seed` (set-up), then solves
every instance under every strategy, baseline first.  Sweeps repeat until
the next one would overrun `--seconds`; every solve is checked against the
correctness gate and stopped by an interval-timer alarm at the workload's
time limit.  An untimed audit sweep (`audit=True`) follows on every
invocation.

Untraced times are scaled to a reference host speed: a fixed reference
kernel runs before every solve and set-up, and each time is multiplied by
`REF_KERNEL_S` over the median kernel time around it (see `HostSpeed`).

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
and traced sweeps and prints the per-layer metrics, the tracing overhead,
and writes the spans to `perfbench/out/`.  Human-readable lines come first;
the last stdout line is one JSON object: correct, attempted, failed, metrics.
Metric names and units are read from BENCHMARK.json.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import bisect
import gc
import json
import os
import resource
import signal
import statistics
import time
import traceback
from dataclasses import dataclass
from itertools import count
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread: the dense master's numpy calls would otherwise spread over
# a second core, and the benchmark measures a single-threaded solve.  Set
# before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


@dataclass(frozen=True)
class Workload:
    family: str                  # "ga" | "mc"
    shape: tuple[int, ...]       # generator arguments before the seed
    instances: int               # generator seeds seed*1000 .. seed*1000+instances-1
    strategies: tuple[str, ...]  # baseline first
    time_limit_s: float          # per solve


SWEEP3 = ("baseline", "exact-all", "heur-all")

# Why each workload is here: the `why` lines of BENCHMARK.json.  ga-master
# uses 400 bins, not E4's 1000: an E4 solve takes ~10 s, and the solve time
# of one instance varies by seed, so a run needs several instances for a
# steady sum; 400 x 10 still keeps the master at ~65% of a solve.
WORKLOADS = {
    "ga-master": Workload("ga", (400, 10), 6, ("baseline", "exact-all"), 30.0),
    "ga-pricing": Workload("ga", (100, 10), 20, SWEEP3, 10.0),
    "mc-routing": Workload("mc", (25, 80, 50), 20, SWEEP3, 10.0),
}
# E3 shape (100 x 100) makes the dense master raise LpNumericalError or run
# for minutes; it is solved, untimed and ungated, in traced ga-master runs
# so the defect stays visible without failing the timed workload.
E3_PROBE = Workload("ga", (100, 100), 2, ("baseline",), 10.0)

MIN_SETUPS = 5
# after each sweep, set-up repeats for up to this long, so the set-up samples
# are spread over the run like the solves are
SETUP_SLICE_S = 0.25
OBJ_RTOL = 1e-6
ARTIFICIAL_TOL = 1e-6
P80_MIN_ABOVE = 10
# About the median time of `reference_kernel` on the 2-vCPU VM the benchmark
# was tuned on; scaled times are seconds at that host speed.
REF_KERNEL_S = 0.0045
# kernel samples up to this far before or after a timed interval scale it
SPEED_WINDOW_S = 0.5


def reference_kernel() -> float:
    """Fixed work shaped like a solve, in three parts of about equal time:
    a Python loop over a dict, small dense matmuls, and normal-equation
    solves on a tall matrix, like a dense master LP's linear algebra."""
    import numpy as np
    d, s = {}, 0
    for i in range(8000):
        d[i & 1023] = s
        s += i * i % 7
    a = np.arange(10000, dtype=float).reshape(100, 100) / 1e4
    for _ in range(20):
        a = a @ a
        a /= a.max()
    b = np.sin(np.arange(24000, dtype=float)).reshape(400, 60)
    t = 0.0
    for _ in range(15):
        t += float(np.linalg.solve(b.T @ b + np.eye(60), b[0]).sum())
    return s + len(d) + t


class HostSpeed:
    """Reference-kernel samples over a run, to scale times to one host speed.

    The benchmark shares a host whose speed drifts by up to 50% for tens of
    seconds.  The kernel slows with the solves, so a time divided by the
    kernel time around it and multiplied by `REF_KERNEL_S` reads about the
    same whether the host was busy or quiet.  Samples are taken between
    timed intervals, never inside one.
    """

    def __init__(self):
        self.at: list[float] = []      # sample midpoints (perf_counter)
        self.took: list[float] = []    # kernel seconds

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)

    def scale(self, start: float, seconds: float) -> float:
        """`seconds` (timed from `start`) at the reference host speed."""
        end = start + seconds
        lo = bisect.bisect_left(self.at, start - SPEED_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + SPEED_WINDOW_S)
        # always the nearest sample on each side of the interval
        lo = min(lo, max(bisect.bisect_left(self.at, start) - 1, 0))
        hi = max(hi, min(bisect.bisect_right(self.at, end) + 1, len(self.at)))
        return seconds * REF_KERNEL_S / statistics.median(self.took[lo:hi])


class SolveTimeLimit(Exception):
    pass


def _on_alarm(signum, frame):
    raise SolveTimeLimit()


@dataclass
class Outcome:
    """One solve.  Only scalars are kept, so finished solves hold no columns."""

    gen_seed: int
    strategy: str
    solve_id: int
    start: float = 0.0           # perf_counter at the start of the solve
    seconds: float = 0.0         # wall time
    scaled: float = 0.0          # wall time at the reference host speed
    reason: str | None = None    # None = finished and passed the gate
    message: str = ""
    objective: float = 0.0
    termination: str = ""
    artificial_value: float = 0.0
    pricing_calls: int = 0
    iterations: int = 0
    columns_added: int = 0
    audit: object = None         # AuditReport of an audit=True solve


def _load_colgen():
    if not (SRC / "colgen" / "__init__.py").is_file():
        sys.exit(f"perfbench: colgen sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import colgen
    if Path(colgen.__file__).resolve().parent != SRC / "colgen":
        sys.exit(f"perfbench: imported colgen from {colgen.__file__}, not {SRC}")
    return colgen


class Bench:
    def __init__(self, colgen, name: str, workload: Workload, seed: int):
        self.cg = colgen
        self.name = name
        self.w = workload
        self.seed = seed
        self.ids = count(1)

    def build(self, workload: Workload | None = None, strategies=None):
        """Set-up: generate the instances and one fresh problem per solve."""
        w = workload or self.w
        if w.family == "ga":
            gen, make = self.cg.generate_ga_instance, self.cg.GaBlockProblem
        else:
            gen, make = self.cg.generate_mc_instance, self.cg.McBlockProblem
        items = []
        for j in range(w.instances):
            gen_seed = self.seed * 1000 + j
            inst = gen(*w.shape, gen_seed)
            for strat in strategies or w.strategies:
                items.append((gen_seed, strat, make(inst)))
        return items

    def solve(self, problem, gen_seed, strategy, limit, tracer=None, audit=False):
        mode, selection = self.cg.STRATEGIES[strategy]
        config = self.cg.DwdConfig(mode=mode, strategy=selection, audit=audit)
        sid = next(self.ids)
        run = self.cg.run_dwd
        if tracer is not None:
            tracer.solve_id = sid
            run = tracer.wrap("engine.run_dwd", run)
        out = Outcome(gen_seed, strategy, sid)
        t0 = out.start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                res = run(problem, config)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except SolveTimeLimit:
            out.reason, out.message = "time_limit", f"stopped at the {limit:g} s limit"
        except Exception as exc:  # a failing solve is recorded; the sweep goes on
            out.reason = type(exc).__name__
            out.message = "".join(traceback.format_exception_only(exc)).strip()
        else:
            out.objective, out.termination = res.objective, res.termination
            out.artificial_value, out.audit = res.artificial_value, res.audit
            out.pricing_calls = res.stats.pricing_calls
            out.iterations = res.stats.iterations
            out.columns_added = res.stats.columns_added
        out.seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.solve_id = 0
        return out

    def gate(self, out: Outcome, base: Outcome | None) -> None:
        """Correctness gate on a finished solve; sets out.reason on failure."""
        heuristic = self.cg.STRATEGIES[out.strategy][0] is self.cg.FilterMode.HEURISTIC
        msg = None
        if not heuristic and out.termination != "optimal":
            msg = f"termination {out.termination!r}, expected 'optimal'"
        elif abs(out.artificial_value) > ARTIFICIAL_TOL:
            msg = f"artificial_value {out.artificial_value!r} on a feasible instance"
        elif base is not None and base.reason is None and out.strategy != "baseline":
            ref = base.objective
            tol = OBJ_RTOL * max(1.0, abs(ref))
            if heuristic and out.objective < ref - tol:
                msg = f"objective {out.objective!r} below baseline {ref!r}"
            elif not heuristic and abs(out.objective - ref) > tol:
                msg = f"objective {out.objective!r} differs from baseline {ref!r}"
        if msg is not None:
            out.reason, out.message = "gate", msg

    def log_failure(self, out: Outcome, w: Workload) -> None:
        print(json.dumps({"workload": self.name, "shape": list(w.shape),
                          "seed": out.gen_seed, "strategy": out.strategy,
                          "reason": out.reason, "message": out.message,
                          "elapsed_s": out.seconds}), file=sys.stderr, flush=True)

    def sweep(self, items, tracer=None, workload: Workload | None = None, gated=True,
              speed: HostSpeed | None = None):
        w = workload or self.w
        outcomes, base = [], None
        for gen_seed, strat, problem in items:
            if speed is not None:
                speed.sample()
            out = self.solve(problem, gen_seed, strat, w.time_limit_s, tracer)
            if strat == "baseline":
                base = out
            if out.reason is None and gated:
                self.gate(out, base)
            if out.reason is not None:
                self.log_failure(out, w)
            outcomes.append(out)
        if speed is not None:
            speed.sample()
        return outcomes

    def audit(self):
        """Untimed audit=True solves of the screening strategies."""
        strategies = [s for s in self.w.strategies if s != "baseline"]
        violations = unsound = solves = errors = 0
        for gen_seed, strat, problem in self.build(strategies=strategies):
            out = self.solve(problem, gen_seed, strat, 3 * self.w.time_limit_s, audit=True)
            solves += 1
            if out.reason is not None:
                errors += 1
                self.log_failure(out, self.w)
                continue
            rep = out.audit
            violations += (len(rep.soundness_violations) + len(rep.final_violations)
                           + len(rep.reduced_cost_mismatches))
            unsound += rep.heuristic_unsound_skips
            for msg in rep.soundness_violations + rep.final_violations + rep.reduced_cost_mismatches:
                print(f"audit {self.name} seed {gen_seed} {strat}: {msg}", file=sys.stderr)
        return {"solves": solves, "errors": errors, "violations": violations,
                "heur_unsound_skips": unsound}


def measure(bench: Bench, seconds: float, trace: bool):
    """Timed sweeps; with `trace`, untraced and traced sweeps alternate.

    Untraced solves and set-ups are sampled against the reference kernel and
    get their scaled times; set-up times are returned scaled.
    """
    from tracing import Tracer
    tracer = Tracer() if trace else None
    speed = HostSpeed()
    setups, plain, traced = [], [], []   # setups: (start, wall seconds)
    t0 = time.perf_counter()
    while True:
        tp = time.perf_counter()
        for use_trace in ((False, True) if trace else (False,)):
            gc.collect()
            if use_trace:
                with tracer.installed():
                    items = bench.build()
                    outs = bench.sweep(items, tracer)
            else:
                items = _timed_build(bench, setups, speed)
                outs = bench.sweep(items, speed=speed)
                spent = 0.0
                while spent + setups[-1][1] <= SETUP_SLICE_S:
                    _timed_build(bench, setups, speed)
                    spent += setups[-1][1]
            (traced if use_trace else plain).append(outs)
        if time.perf_counter() - t0 + (time.perf_counter() - tp) > seconds:
            break
    while len(setups) < MIN_SETUPS:
        _timed_build(bench, setups, speed)
    speed.sample()
    for outs in plain:
        for o in outs:
            o.scaled = speed.scale(o.start, o.seconds)
    return [speed.scale(*s) for s in setups], plain, traced, tracer, speed


def _timed_build(bench: Bench, setups: list, speed: HostSpeed):
    speed.sample()
    ts = time.perf_counter()
    items = bench.build()
    setups.append((ts, time.perf_counter() - ts))
    return items


def sweep_seconds(sweeps, attr: str = "seconds") -> float:
    """Seconds for one sweep: each solve's median over the sweeps, summed.

    Per-solve medians damp a slow stretch of the machine that hits one
    sweep's solve but not the same solve in the other sweeps.
    """
    return sum(statistics.median(getattr(o, attr) for o in same) for same in zip(*sweeps))


def end_to_end(setups, sweeps):
    """End-to-end metrics from scaled times."""
    solves = [o.scaled for outs in sweeps for o in outs]
    return {
        "solve_s": sweep_seconds(sweeps, "scaled"),
        "solve_ms.p50": 1000.0 * statistics.median(solves),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def paper_metrics(bench: Bench, sweeps, pricing_s):
    """%rCalls, heuristic gap and pricing-only %rTime against baseline."""
    cg = bench.cg
    calls = {s: 0 for s in bench.w.strategies}
    price = {s: 0.0 for s in bench.w.strategies}
    gaps = []
    for outs in sweeps:
        by_seed: dict[int, dict[str, Outcome]] = {}
        for o in outs:
            by_seed.setdefault(o.gen_seed, {})[o.strategy] = o
        for runs in by_seed.values():
            if any(o.reason is not None for o in runs.values()):
                continue
            for s, o in runs.items():
                calls[s] += o.pricing_calls
                price[s] += pricing_s.get(o.solve_id, 0.0)
            if "heur-all" in runs:
                gaps.append(cg.gap_pct(runs["heur-all"].objective, runs["baseline"].objective))

    def reduction(table, s):
        if s not in table or table["baseline"] <= 0:
            return 0.0
        return cg.pct_reduction(table["baseline"], table[s])

    return {
        "filtering.r_calls_pct.exact": reduction(calls, "exact-all"),
        "filtering.r_calls_pct.heur": reduction(calls, "heur-all"),
        "filtering.gap_pct.heur": statistics.fmean(gaps) if gaps else 0.0,
        "filtering.pricing_r_time_pct.exact": reduction(price, "exact-all"),
    }


def per_layer(bench: Bench, plain, traced, tracer, audit, probe):
    from tracing import LAYERS, SPANS
    n = len(traced)
    solve = tracer.totals(in_solves=True)
    setup = tracer.totals(in_solves=False)
    own = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, self_s) in solve.items():
        own[SPANS[name]] += self_s
    finished = [o for outs in traced for o in outs if o.reason is None]
    traced_s = sweep_seconds(traced)
    plain_s = sweep_seconds(plain)
    m = {
        "lp.solve.calls": solve["lp.solve"][0] / n,
        "lp.solve.s": solve["lp.solve"][1] / n,
        "lp.pivots": tracer.lp_pivots / n,
        "lp.add_column.calls": solve["lp.add_column"][0] / n,
        "lp.add_column.s": solve["lp.add_column"][1] / n,
        "lp.rows": tracer.lp_rows,
        "lp.cols": tracer.lp_cols,
        "lp.e3_probe.attempted": len(probe),
        "lp.e3_probe.failed": sum(o.reason is not None for o in probe),
        "assignment.pricing.calls": solve["assignment.pricing"][0] / n,
        "assignment.pricing.s": solve["assignment.pricing"][1] / n,
        "assignment.knapsack.s": solve["assignment.knapsack"][1] / n,
        "mcflow.pricing.calls": solve["mcflow.pricing"][0] / n,
        "mcflow.pricing.s": solve["mcflow.pricing"][1] / n,
        "mcflow.rcsp.calls": solve["mcflow.rcsp"][0] / n,
        "mcflow.rcsp.s": solve["mcflow.rcsp"][1] / n,
        "mcflow.setup.s": setup["mcflow.setup"][1] / n,
        "filtering.calls": solve["filtering.should_filter"][0] / n,
        "filtering.s": solve["filtering.should_filter"][1] / n,
        "filtering.bound_term.s": solve["filtering.bound_term"][1] / n,
        "filtering.support_set.s": solve["filtering.support_set"][1] / n,
        "filtering.bounds": tracer.filter_bounds / n,
        "filtering.skipped": tracer.filter_skipped / n,
        "filtering.skip_ratio": (tracer.filter_skipped / tracer.filter_attempted
                                 if tracer.filter_attempted else 0.0),
        "filtering.audit_violations": audit["violations"],
        "filtering.audit_heur_unsound_skips": audit["heur_unsound_skips"],
        "engine.iterations": sum(o.iterations for o in finished) / n,
        "engine.columns_added": sum(o.columns_added for o in finished) / n,
        "trace.solve_s": traced_s,
        "trace.untraced_solve_s": plain_s,
        "trace.overhead_s": traced_s - plain_s,
        "trace.unattributed_s": (sum(o.seconds for outs in traced for o in outs)
                                 - sum(own.values())) / n,
        "trace.spans": len(tracer) / n,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = own[layer] / n
    m.update(paper_metrics(bench, traced, tracer.pricing_seconds_by_solve()))
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        sys.exit(f"perfbench: {spec_path} not found")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    colgen = _load_colgen()
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    signal.signal(signal.SIGALRM, _on_alarm)
    bench = Bench(colgen, args.workload, WORKLOADS[args.workload], args.seed)
    trace = bool(args.trace)
    setups, plain, traced, tracer, speed = measure(bench, args.seconds, trace)
    audit = bench.audit()
    probe = []
    if trace and args.workload == "ga-master":
        probe = bench.sweep(bench.build(E3_PROBE), workload=E3_PROBE, gated=False)

    timed = [o for outs in plain + traced for o in outs]
    failed = sum(o.reason is not None for o in timed)
    gate_failures = sum(o.reason == "gate" for o in timed)
    correct = gate_failures == 0 and audit["violations"] == 0 and audit["errors"] == 0

    if trace:
        values = per_layer(bench, plain, traced, tracer, audit, probe)
        declared = spec["per_layer"]
        out_dir = Path(__file__).resolve().parent / "out"
        out_dir.mkdir(exist_ok=True)
        span_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_spans(span_path)
        print(f"spans: {len(tracer)} written to {span_path.relative_to(ROOT)}")
    else:
        values = end_to_end(setups, plain)
        declared = spec["end_to_end"]
    units = {d["name"]: d["unit"] for d in declared}
    if set(units) != set(values):
        sys.exit(f"perfbench: metrics {sorted(set(values) ^ set(units))} "
                 "do not match BENCHMARK.json")

    solves_ms = sorted(1000.0 * o.scaled for outs in plain for o in outs)
    kernel = statistics.quantiles(speed.took, n=4)
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced sweeps, {len(timed)} solves")
    print(f"  reference kernel: quartiles {1e3 * kernel[0]:.3f} / {1e3 * kernel[1]:.3f}"
          f" / {1e3 * kernel[2]:.3f} ms over {len(speed.took)} samples"
          f" (reference {1e3 * REF_KERNEL_S:g} ms); unscaled solve_s"
          f" {sweep_seconds(plain):.6g} s")
    for name, v in values.items():
        print(f"  {name:<38} {v:>14.6g} {units[name]}")
    if len(solves_ms) >= P80_MIN_ABOVE * 5:
        p80 = statistics.quantiles(solves_ms, n=5, method="inclusive")[3]
        print(f"  {'solve_ms.p80':<38} {p80:>14.6g} ms "
              f"(n={len(solves_ms)})")
    else:
        print(f"  solve_ms.p80 not reported: n={len(solves_ms)}, "
              f"needs {P80_MIN_ABOVE * 5} for {P80_MIN_ABOVE} above it")
    print(f"  {'failed_frac':<38} {failed / len(timed):>14.6g} ({failed}/{len(timed)})")
    print(f"  audit: {audit['solves']} solves, {audit['errors']} errors, "
          f"{audit['violations']} violations, "
          f"{audit['heur_unsound_skips']} heuristic unsound skips")
    if probe:
        print(f"  E3 probe: {sum(o.reason is not None for o in probe)}/{len(probe)} failed "
              "(" + ", ".join(f"{o.gen_seed}:{o.reason or 'ok'}" for o in probe) + ")")
    print(json.dumps({"correct": correct, "attempted": len(timed), "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
