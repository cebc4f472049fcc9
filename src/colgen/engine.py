"""Delayed column generation over block-structured LPs with pricing screening.

Each iteration solves the restricted master, then, at its fixed duals,
screens every block (bounds built from earlier pricing results may prove a
block cannot price an improving column), prices the unfiltered blocks
exactly in one `price_blocks` call, and last records the outcomes with the
duals and collects the improving columns (reduced cost < -epsilon),
which enter the master in block order in one `LpModel.add_columns` batch.  The
run stops when an iteration adds nothing or the iteration cap is hit.

Pricing results stay in arrays (`PricedBlocks`), and the bookkeeping after
pricing is array operations on them: the `RunStats` counts, the improving
mask, `per_block_added`, and the install batch with its `register_columns`
call.  No `Column` is built on the solve path: the audit builds the ones it
checks, and `DwdResult.columns` builds the installed ones when first read.
Screening is one `should_filter` call per iteration for all blocks, and each
iteration's records and duals are one row of a `PricingHistory`, written in
one `record` call.

The run's trace is those same objects, kept: each iteration's `Screening`,
its `PricedBlocks` and the indices of the entries that entered the master.

Baseline mode screens nothing: it calls no `should_filter` and keeps no
pricing history.  Exact screening preserves the baseline optimum; heuristic
screening (support-restricted bounds) keeps primal feasibility but may stop
above it.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .filtering import FilterMode, PricingHistory, Screening, Strategy, should_filter
from .lp import LpModel, LpNumericalError, LpStatus, RowSense
from .model import BlockProblem, Column, PricedBlocks


class EngineError(RuntimeError):
    pass


@dataclass
class DwdConfig:
    mode: FilterMode = FilterMode.BASELINE
    strategy: Strategy = Strategy.ALL
    epsilon: float = 1e-4
    retain_duals: int | None = None  # alpha; None reads every dual vector
    max_iterations: int = 10_000
    audit: bool = False

    def __post_init__(self):
        # an equal string is not the member: the engine tests identity, so
        # mode="exact" would screen with the heuristic terms
        for name, value, kind in (("mode", self.mode, FilterMode),
                                  ("strategy", self.strategy, Strategy)):
            if not isinstance(value, kind):
                raise ValueError(f"{name} must be a {kind.__name__} member, got {value!r}")
        # a string would fail in math.isfinite without naming the field, and
        # any truthy audit value would run the audit
        if isinstance(self.epsilon, bool) or not isinstance(self.epsilon, numbers.Real):
            raise ValueError(f"epsilon must be a real number, got {self.epsilon!r}")
        if not isinstance(self.audit, bool):
            raise ValueError(f"audit must be a bool, got {self.audit!r}")
        # a nan or inf epsilon would mark no column improving, and the run
        # would end "optimal" at its first master
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        # a float or bool would run as another count, or fail mid-run
        counts = {"max_iterations": self.max_iterations}
        if self.retain_duals is not None:
            counts["retain_duals"] = self.retain_duals
        for name, value in counts.items():
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.retain_duals is not None and self.retain_duals < 1:
            raise ValueError("retain_duals must be at least 1")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations!r}")


@dataclass(frozen=True, eq=False)
class IterationTrace:
    """One iteration, as the engine's own objects.

    Block k was filtered if `screening.skipped[k]`; priced with every
    record's duals evicted if it was not skipped, `screening.evicted[k]` and
    not `screening.evaluated[k]`; priced on its bounds otherwise, and always
    in baseline, where `screening` is None.  Its reduced cost is the entry
    of `priced` whose `blocks` value is k (under audit the filtered blocks
    are re-priced, so they have one too), and its column was added if k is
    in `priced.blocks[added]`.
    """

    iteration: int
    objective: float
    screening: Screening | None
    priced: PricedBlocks
    added: np.ndarray  # the entries of `priced` that entered the master


@dataclass
class RunStats:
    iterations: int = 0
    pricing_calls: int = 0
    columns_added: int = 0
    wall_time_s: float = 0.0
    filters_attempted: int = 0
    filters_succeeded: int = 0
    bounds_evaluated: int = 0
    records_skipped_evicted: int = 0
    master_pivots: int = 0  # sum of the master solves' simplex pivots
    # wall time by phase: master solves, screening, pricing, and recording
    # plus column install (set-up's `initial_columns` call and its install,
    # and the fallback columns, included)
    master_time_s: float = 0.0
    screening_time_s: float = 0.0
    pricing_time_s: float = 0.0
    install_time_s: float = 0.0


@dataclass
class AuditReport:
    """Cross-checks collected when DwdConfig.audit is set.

    `soundness_violations` lists exact-mode skips whose re-priced reduced
    cost was still improving; `heuristic_unsound_skips` counts the same event
    in heuristic mode, where it is expected rather than an error.
    """

    reduced_cost_checks: int = 0
    reduced_cost_mismatches: list[str] = field(default_factory=list)
    filter_checks: int = 0
    soundness_violations: list[str] = field(default_factory=list)
    heuristic_unsound_skips: int = 0
    final_checks: int = 0
    final_violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.reduced_cost_mismatches or self.soundness_violations
                    or self.final_violations)


@dataclass
class DwdResult:
    objective: float
    # "optimal" | "converged" (heuristic mode) | "artificial" | "iteration_limit"
    termination: str
    stats: RunStats
    per_block_added: tuple[int, ...]
    column_values: np.ndarray
    artificial_value: float
    initial_column_count: int
    # the last master's duals: linking rows, then one per block's convexity row
    linking_duals: np.ndarray
    convexity_duals: np.ndarray
    audit: AuditReport | None
    # the initial batch, then one entry per iteration
    initial: PricedBlocks = field(repr=False, compare=False)
    trace: tuple[IterationTrace, ...] = field(repr=False, compare=False)

    @functools.cached_property
    def columns(self) -> tuple[Column, ...]:
        """Every installed column, in install order, built on first read:
        the initial batch, then each iteration's added entries."""
        return tuple([self.initial.column(i) for i in range(self.initial_column_count)]
                     + [it.priced.column(i) for it in self.trace for i in it.added.tolist()])


def reduced_cost(column: Column, pi: np.ndarray, mu_k: float) -> float:
    """Master reduced cost of a column at the given master duals."""
    acc = column.cost
    for row, val in column.coeffs:
        acc -= pi[row] * val
    return acc - mu_k


_RC_CHECK_TOL = 1e-7
_ARTIFICIAL_TOL = 1e-7


def _lp_batch(priced: PricedBlocks, idx: np.ndarray, num_linking: int):
    """Entries `idx` of `priced` as an `LpModel.add_columns` batch: each
    column's linking entries, then 1 on its block's convexity row.  Also
    returns the block and row of each linking entry, for `register_columns`."""
    lo = priced.ptr[idx]
    lens = priced.ptr[idx + 1] - lo
    ptr = np.zeros(len(idx) + 1, dtype=np.int64)
    np.cumsum(lens + 1, out=ptr[1:])
    convexity = ptr[1:] - 1
    linking = np.ones(ptr[-1], dtype=bool)
    linking[convexity] = False
    src = (np.arange(ptr[-1]) + np.repeat(lo - ptr[:-1], lens + 1))[linking]
    blocks, link_rows = priced.blocks[idx], priced.rows[src]
    rows = np.empty(ptr[-1], dtype=np.int64)
    vals = np.empty(ptr[-1])
    rows[linking], vals[linking] = link_rows, priced.vals[src]
    rows[convexity], vals[convexity] = num_linking + blocks, 1.0
    return (priced.costs[idx], ptr, rows, vals), (np.repeat(blocks, lens), link_rows)


def run_dwd(problem: BlockProblem, config: DwdConfig | None = None) -> DwdResult:
    """Run column generation on `problem` and return the terminal state.

    The master always stays feasible: each row the all-zero master leaves
    unmet (`>=` with rhs > 0, `<=` with rhs < 0, `=` with rhs != 0) gets one
    high-cost fallback column, priced far above any real column, so it only
    carries weight while real coverage is missing.  A run whose last master
    still puts weight on them (`artificial_value` above 1e-7) when pricing
    adds nothing ends `artificial`: its objective carries the fallback price,
    and the instance may be infeasible or need columns pricing never found.
    """
    t_start = time.perf_counter()
    if config is None:
        config = DwdConfig()
    num_blocks = problem.num_blocks
    linking = problem.linking_rows()
    num_linking = len(linking)
    screening = config.mode is not FilterMode.BASELINE
    eps = config.epsilon

    rows = list(linking) + [(problem.convexity_sense(k), 1.0) for k in range(num_blocks)]
    lp = LpModel(rows)
    per_block_added = np.zeros(num_blocks, dtype=np.int64)
    stats = RunStats()

    def install(priced: PricedBlocks, entries: np.ndarray) -> None:
        """Add `priced`'s listed entries to the master in one batch, in order."""
        if not len(entries):
            return
        lp_args, support = _lp_batch(priced, entries, num_linking)
        lp.add_columns(*lp_args)
        problem.register_columns(*support)

    t_install = time.perf_counter()
    # the initial columns come in the pricing result's form; their reduced
    # costs are never read
    initial = problem.initial_columns()
    n_initial = len(initial.blocks)
    install(initial, np.arange(n_initial))

    big_m = 1e4 * (float(np.abs(initial.costs).max(initial=0.0)) + 1.0)
    # one per unmet row, signed like its rhs, so that it alone meets its row
    unmet = [i for i, (sense, rhs) in enumerate(rows)
             if rhs > 0 and sense is not RowSense.LE or rhs < 0 and sense is not RowSense.GE]
    artificials = lp.add_columns(np.full(len(unmet), big_m), np.arange(len(unmet) + 1),
                                 unmet, np.sign([rows[i][1] for i in unmet]))
    stats.install_time_s += time.perf_counter() - t_install

    # baseline reads no pricing records, so keeps none
    history = PricingHistory(num_blocks, num_linking, config.retain_duals) if screening else None
    terms = (problem.bound_terms if config.mode is FilterMode.EXACT
             else problem.heuristic_bound_terms)
    audit = AuditReport() if config.audit else None
    trace: list[IterationTrace] = []
    termination = "iteration_limit"
    last_sol = None
    pi = mu = None
    all_blocks = np.arange(num_blocks)
    no_skips = np.zeros(num_blocks, dtype=bool)

    iterations = 0
    for t in range(1, config.max_iterations + 1):
        t_master = time.perf_counter()
        try:
            sol = lp.solve()
        except LpNumericalError as exc:
            raise LpNumericalError(f"master LP at iteration {t}: {exc}") from exc
        stats.master_pivots += sol.iterations
        if sol.status is not LpStatus.OPTIMAL:
            raise EngineError(f"master LP came back {sol.status.value} at iteration {t} "
                              f"({lp.num_rows} rows x {lp.num_cols} columns)")
        last_sol = sol
        iterations = t
        pi = sol.duals[:num_linking]
        mu = sol.duals[num_linking:]
        t_screen = time.perf_counter()
        # the duals stay fixed for the rest of the iteration, so screening
        # every block first and pricing afterwards changes no result
        screen = None
        skipped = no_skips
        if screening:
            screen = should_filter(history, pi, mu, terms, config.strategy, eps)
            skipped = screen.skipped
            stats.bounds_evaluated += screen.bounds_evaluated
            stats.filters_attempted += int(np.count_nonzero(screen.evaluated))
            stats.records_skipped_evicted += int(screen.evicted.sum())
        t_price = time.perf_counter()
        # one pricing call for the unfiltered blocks; the audit re-prices the
        # filtered ones in the same call
        todo = all_blocks if audit is not None else np.flatnonzero(~skipped)
        priced = problem.price_blocks(todo, pi, mu)
        t_record = time.perf_counter()
        if len(priced.reduced_costs) != len(todo):
            raise EngineError(f"price_blocks returned {len(priced.reduced_costs)} results "
                              f"for {len(todo)} blocks at iteration {t}")
        # entries in block order; the improving ones enter in that order, in
        # one batch
        real = ~skipped[todo]
        improving = np.flatnonzero(real & (priced.reduced_costs < -eps))
        n_skipped = int(skipped.sum())
        stats.filters_succeeded += n_skipped
        stats.pricing_calls += num_blocks - n_skipped
        stats.columns_added += len(improving)
        # a block is priced at most once per iteration, so no index repeats
        per_block_added[todo[improving]] += 1
        if screening:
            history.record(t, todo[real], priced.reduced_costs[real], mu, pi)
        if audit is not None:
            _audit_iteration(audit, priced, skipped, screen, pi, mu, config, t)
        install(priced, improving)
        t_end = time.perf_counter()
        stats.master_time_s += t_screen - t_master
        stats.screening_time_s += t_price - t_screen
        stats.pricing_time_s += t_record - t_price
        stats.install_time_s += t_end - t_record
        trace.append(IterationTrace(t, sol.objective, screen, priced, improving))
        if not len(improving):
            # heuristic skips may have hidden improving columns
            termination = "converged" if config.mode is FilterMode.HEURISTIC else "optimal"
            break

    x = last_sol.x
    artificial_value = float(sum(x[artificials.start:artificials.stop].tolist()))
    if termination != "iteration_limit" and artificial_value > _ARTIFICIAL_TOL:
        termination = "artificial"

    if audit is not None and termination == "optimal":
        # the last iteration priced every block at the final duals, and its
        # audit rechecked those columns
        for k, cbar_f in enumerate(priced.reduced_costs.tolist()):
            audit.final_checks += 1
            if cbar_f < -eps:
                audit.final_violations.append(
                    f"final sweep block {k}: reduced cost {cbar_f!r} still improving")

    stats.iterations = iterations
    stats.wall_time_s = time.perf_counter() - t_start
    # the LP's columns are the installed ones, in install order, and the
    # fallback range; columns added after the last solve (at the iteration
    # limit) have no value
    values = np.zeros(lp.num_cols - len(artificials))
    kept = np.delete(x, artificials)
    values[:len(kept)] = kept
    return DwdResult(
        objective=last_sol.objective,
        termination=termination,
        stats=stats,
        per_block_added=tuple(per_block_added.tolist()),
        column_values=values,
        artificial_value=artificial_value,
        initial_column_count=n_initial,
        linking_duals=pi,
        convexity_duals=mu,
        audit=audit,
        initial=initial,
        trace=tuple(trace),
    )


def _check_reduced_cost(audit, col, cbar, pi, mu, k, t, context):
    """Recompute block `k`'s column `col`'s reduced cost and log a mismatch
    with pricing's `cbar`."""
    rc = reduced_cost(col, pi, float(mu[k]))
    audit.reduced_cost_checks += 1
    if abs(rc - cbar) > _RC_CHECK_TOL:
        audit.reduced_cost_mismatches.append(
            f"iteration {t} block {k} ({context}): pricing said {cbar!r}, "
            f"recomputed {rc!r}")


def _audit_iteration(audit, priced, skipped, screen, pi, mu, config, t):
    """The audit's checks of one iteration, whose `priced` holds every block."""
    cbars = priced.reduced_costs.tolist()
    for k, skip in enumerate(skipped.tolist()):
        _check_reduced_cost(audit, priced.column(k), cbars[k], pi, mu, k, t,
                            "filtered-block audit" if skip else "pricing")
        if not skip:
            continue
        audit.filter_checks += 1
        if cbars[k] < -config.epsilon:
            if config.mode is FilterMode.EXACT:
                audit.soundness_violations.append(
                    f"iteration {t} block {k}: skipped on bound "
                    f"{float(screen.best_bound[k])!r} but exact pricing found {cbars[k]!r}")
            else:
                audit.heuristic_unsound_skips += 1

