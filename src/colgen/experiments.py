"""Batch runner: baseline plus filtering strategies over an instance list.

Every instance is first solved with no filtering; the requested strategies
then run against the same instance and are scored relative to that baseline:

    r_calls = 100 * (base_calls - calls) / base_calls
    r_time  = 100 * (base_time - time) / base_time
    r_ptime = 100 * (base_pricing - (screening + pricing)) / base_pricing
    gap     = 100 * (objective - base_objective) / |base_objective|

r_ptime counts pricing work only, from the `RunStats` phase timers.  Only
the column-generation run itself is timed (parsing, generation and report
emission are excluded).  The runs go one after another in one process, so
every strategy row carries its time metrics.  Reports come in two flavors: a
long-format CSV with a fixed column order, and markdown tables grouping exact
and heuristic strategies separately.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

from .assignment import GaBlockProblem, GaInstance
from .engine import DwdConfig, RunStats, run_dwd
from .filtering import FilterMode, Strategy
from .mcflow import McBlockProblem, McInstance

STRATEGIES = {
    "baseline": (FilterMode.BASELINE, Strategy.ALL),
    "exact-all": (FilterMode.EXACT, Strategy.ALL),
    "exact-computed": (FilterMode.EXACT, Strategy.COMPUTED),
    "exact-add": (FilterMode.EXACT, Strategy.ADD),
    "heur-all": (FilterMode.HEURISTIC, Strategy.ALL),
    "heur-computed": (FilterMode.HEURISTIC, Strategy.COMPUTED),
    "heur-add": (FilterMode.HEURISTIC, Strategy.ADD),
}

CSV_COLUMNS = ["problem", "instance", "shape", "strategy", "iterations", "calls",
               "vars", "pivots", "time_s", "master_s", "pricing_s", "screening_s",
               "objective", "termination", "r_calls_pct", "r_time_pct", "r_ptime_pct",
               "gap_pct"]


def pct_reduction(base: float, value: float) -> float:
    """100 * (base - value) / base; positive means `value` is an improvement."""
    return 100.0 * (base - value) / base


def gap_pct(value: float, reference: float) -> float:
    """100 * (value - reference) / |reference|; positive means `value` is worse
    (higher) than `reference`, whatever the reference's sign."""
    return 100.0 * (value - reference) / abs(reference)


def format_pct(x: float) -> str:
    return f"{x:.2f}%"


def format_objective(v: float) -> str:
    return f"{v:.2E}"


@dataclass(frozen=True)
class StrategyResult:
    """One run: its `RunStats`, objective and termination, then its metrics
    against the instance's baseline run (None on baseline's own row, and
    where baseline failed or gives a zero base)."""

    strategy: str
    stats: RunStats
    objective: float
    termination: str
    r_calls: float | None = None
    r_time: float | None = None
    r_ptime: float | None = None
    gap: float | None = None


@dataclass
class ReportRow:
    problem: str
    instance: str
    shape: str
    results: dict[str, StrategyResult]  # insertion order = run order, baseline first


@dataclass
class RunFailure:
    instance: str
    strategy: str
    error: str


@dataclass
class ExperimentReport:
    rows: list[ReportRow] = field(default_factory=list)
    failures: list[RunFailure] = field(default_factory=list)
    audit_violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and not self.audit_violations


@dataclass
class ExperimentConfig:
    problem: str  # "mc" | "ga"
    strategies: tuple[str, ...] = ("baseline",)
    epsilon: float = 1e-4
    retain_duals: int | None = None  # alpha; None reads every dual vector
    audit: bool = False
    max_iterations: int = 10_000

    def __post_init__(self):
        if self.problem not in ("mc", "ga"):
            raise ValueError(f"unknown problem {self.problem!r}")
        # a bare name would be read letter by letter
        if isinstance(self.strategies, str):
            raise ValueError(f"strategies must be a sequence of names, got {self.strategies!r}")
        unknown = [s for s in self.strategies if s not in STRATEGIES]
        if unknown:
            raise ValueError(f"unknown strategies: {', '.join(unknown)}")
        if not self.strategies:
            raise ValueError("need at least one strategy")
        # the engine's own checks on epsilon, retain_duals, max_iterations
        # and audit, made here so that a bad value fails before any solve
        DwdConfig(epsilon=self.epsilon, retain_duals=self.retain_duals,
                  max_iterations=self.max_iterations, audit=self.audit)


def make_problem(problem: str, instance):
    if problem == "mc":
        if not isinstance(instance, McInstance):
            raise TypeError("mc runs need an McInstance")
        return McBlockProblem(instance)
    if not isinstance(instance, GaInstance):
        raise TypeError("ga runs need a GaInstance")
    return GaBlockProblem(instance)


def _shape_label(instance) -> str:
    return "(" + ", ".join(str(int(v)) for v in instance.shape) + ")"


def run_single(config: ExperimentConfig, instance, strategy: str):
    """One `run_dwd` of `instance` under `strategy` and the config's settings."""
    mode, selection = STRATEGIES[strategy]
    dwd = DwdConfig(mode=mode, strategy=selection, epsilon=config.epsilon,
                    retain_duals=config.retain_duals, max_iterations=config.max_iterations,
                    audit=config.audit)
    return run_dwd(make_problem(config.problem, instance), dwd)


def _run_instance(config: ExperimentConfig, name: str, instance,
                  report: ExperimentReport) -> ReportRow:
    """All strategies for one instance; failures and audit violations go
    into `report`."""
    # baseline first, then each strategy once, in first-seen order
    order = list(dict.fromkeys(["baseline", *config.strategies]))
    row = ReportRow(config.problem, name, _shape_label(instance), {})
    base: StrategyResult | None = None
    for strat in order:
        try:
            result = run_single(config, instance, strat)
        except Exception as exc:
            report.failures.append(RunFailure(name, strat, f"{type(exc).__name__}: {exc}"))
            continue
        if result.audit is not None and not result.audit.ok:
            for msg in (result.audit.soundness_violations
                        + result.audit.final_violations
                        + result.audit.reduced_cost_mismatches):
                report.audit_violations.append(f"{name}/{strat}: {msg}")
        stats = result.stats
        r_calls = r_time = r_ptime = gap = None
        if strat != "baseline" and base is not None:
            if base.stats.pricing_calls > 0:
                r_calls = pct_reduction(base.stats.pricing_calls, stats.pricing_calls)
            if base.stats.wall_time_s > 0:
                r_time = pct_reduction(base.stats.wall_time_s, stats.wall_time_s)
            if base.stats.pricing_time_s > 0:
                r_ptime = pct_reduction(base.stats.pricing_time_s,
                                        stats.screening_time_s + stats.pricing_time_s)
            if base.objective != 0:
                gap = gap_pct(result.objective, base.objective)
            elif result.objective == 0:
                gap = 0.0
        sr = StrategyResult(strat, stats, result.objective, result.termination,
                            r_calls, r_time, r_ptime, gap)
        row.results[strat] = sr
        if strat == "baseline":
            base = sr
    return row


def run_experiment(config: ExperimentConfig, instances) -> ExperimentReport:
    """Run the configured strategies over `instances` ([(name, instance)]).

    Instances run one after another, each under baseline first (it anchors
    every relative metric) and then each strategy, in one process, so that
    the wall times a row compares were taken alike.  A failing run is
    recorded and skipped; the rest of the batch proceeds.
    """
    report = ExperimentReport()
    for name, inst in instances:
        report.rows.append(_run_instance(config, name, inst, report))
    return report


# ----------------------------------------------------------------------
# report emission

def _time_split(stats: RunStats) -> tuple[float, ...]:
    """The run's wall time, then its master, pricing and screening times."""
    return (stats.wall_time_s, stats.master_time_s, stats.pricing_time_s,
            stats.screening_time_s)


def _fmt_opt_pct(x) -> str:
    return format_pct(x) if x is not None else ""


def emit_csv(rows: list[ReportRow]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        for sr in row.results.values():
            st = sr.stats
            writer.writerow([
                row.problem, row.instance, row.shape, sr.strategy,
                st.iterations, st.pricing_calls, st.columns_added, st.master_pivots,
                *(f"{t:.3f}" for t in _time_split(st)),
                format_objective(sr.objective), sr.termination,
                "" if sr.r_calls is None else f"{sr.r_calls:.2f}",
                "" if sr.r_time is None else f"{sr.r_time:.2f}",
                "" if sr.r_ptime is None else f"{sr.r_ptime:.2f}",
                "" if sr.gap is None else f"{sr.gap:.2f}",
            ])
    return out.getvalue()


def _markdown_table(header: list[str], body: list[list[str]]) -> list[str]:
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join(" --- " for _ in header) + "|"]
    for cells in body:
        lines.append("| " + " | ".join(cells) + " |")
    return lines


def emit_markdown(rows: list[ReportRow]) -> str:
    """Exact strategies (no GAP column), heuristic ones (with), time split.

    In the first two tables each row shows the baseline's counts, time, cost
    and termination, then every strategy's relative metrics and termination.
    The third has one row per run: its master pivots, and its master, pricing
    and screening times beside the total.
    """
    if not rows:
        return "_no instances_\n"
    present: list[str] = []
    for row in rows:
        for s in row.results:
            if s != "baseline" and s not in present:
                present.append(s)
    exact = [s for s in present if s.startswith("exact-")]
    heur = [s for s in present if s.startswith("heur-")]
    lines: list[str] = []

    def block(title, strategies, with_gap):
        lines.append(f"### {title}")
        lines.append("")
        header = ["instance", "shape", "#Calls", "#Added", "time (s)", "cost", "termination"]
        for s in strategies:
            header += [f"{s} %rCalls", f"{s} %rTime", f"{s} %rPTime"]
            if with_gap:
                header.append(f"{s} GAP")
            header.append(f"{s} termination")
        body = []
        for row in rows:
            base = row.results.get("baseline")
            if base is None:
                continue
            cells = [row.instance, row.shape, str(base.stats.pricing_calls),
                     str(base.stats.columns_added), f"{base.stats.wall_time_s:.3f}",
                     format_objective(base.objective), base.termination]
            for s in strategies:
                sr = row.results.get(s)
                if sr is None:
                    cells += ["", "", "", ""] + ([""] if with_gap else [])
                    continue
                cells += [_fmt_opt_pct(sr.r_calls), _fmt_opt_pct(sr.r_time),
                          _fmt_opt_pct(sr.r_ptime)]
                if with_gap:
                    cells.append(_fmt_opt_pct(sr.gap))
                cells.append(sr.termination)
            body.append(cells)
        lines.extend(_markdown_table(header, body))
        lines.append("")

    if exact or not heur:
        block("Exact filtering", exact, with_gap=False)
    if heur:
        block("Heuristic filtering", heur, with_gap=True)
    lines.append("### Time split")
    lines.append("")
    lines.extend(_markdown_table(
        ["instance", "strategy", "#Pivots", "time (s)", "master (s)", "pricing (s)",
         "screening (s)"],
        [[row.instance, sr.strategy, str(sr.stats.master_pivots),
          *(f"{t:.3f}" for t in _time_split(sr.stats))]
         for row in rows for sr in row.results.values()]))
    lines.append("")
    return "\n".join(lines)


def emit_report(rows: list[ReportRow], fmt: str) -> str:
    if fmt == "csv":
        return emit_csv(rows)
    if fmt in ("md", "markdown"):
        return emit_markdown(rows)
    raise ValueError(f"unknown report format {fmt!r}")
