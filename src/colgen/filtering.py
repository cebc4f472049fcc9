"""Screening bounds that decide whether a block's pricing solve can be skipped.

The bound for block k at iteration t, built from a record taken at an earlier
iteration l, is

    reduced_cost(l) + (mu_k(l) - mu_k(t)) + term(l, t)

where `term` is a lower bound on the minimum, over the block's 0/1 box, of
the dual-shift linear form ((pi(l) - pi(t)) A_k) x.  The duals are the
master's own, in the rows' declared senses.  When `term` is the true
box minimum the bound is a valid lower bound on the reduced cost at t, so a
nonnegative bound proves the block has no improving column and pricing can be
skipped without losing exactness.  Restricting the term to a support set
gives a cheaper, optimistic variant that may skip blocks wrongly; runs using
it keep primal feasibility but can stop short of the optimum.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from .model import BlockProblem, PricingRecord


class FilterMode(enum.Enum):
    BASELINE = "baseline"  # never skip
    EXACT = "exact"        # true box-minimum term
    HEURISTIC = "heur"     # support-restricted term


class Strategy(enum.Enum):
    """Which stored records are tried, newest first."""

    ALL = "all"
    COMPUTED = "computed"  # newest record only
    ADD = "add"            # newest record whose reduced cost was improving


class FilterDecision(NamedTuple):
    """`should_filter`'s verdict on one block; a tuple, so cheap to build."""

    block: int
    skip: bool
    best_bound: float | None
    record_used: int | None
    bounds_evaluated: int
    records_evicted: int
    bounds: tuple[tuple[int, float], ...]

    @property
    def decision(self) -> str:
        if self.skip:
            return "filtered"
        if self.bounds_evaluated == 0 and self.records_evicted > 0:
            return "skipped-evicted"
        return "priced"


def negative_part_sum(diff: np.ndarray) -> float:
    """Minimum of diff . x over the 0/1 box: sum of the negative entries."""
    return float(np.minimum(diff, 0.0).sum())


def exact_bound(record: PricingRecord, mu_now: float, term: float) -> float:
    """Lower bound on the current reduced cost from an earlier record.

    Valid whenever `term` is at most the true box minimum of the dual-shift
    form; with the support-restricted term the result is only a screening
    value.  With a record taken at the current duals the term is zero and
    the record's reduced cost comes back unchanged.
    """
    return record.reduced_cost + (record.convexity_dual - mu_now) + term


def select_records(strategy: Strategy, history, epsilon: float) -> list[PricingRecord]:
    """Records to try for one block, newest first."""
    if not history:
        return []
    if strategy is Strategy.ALL:
        return list(reversed(history))
    if strategy is Strategy.COMPUTED:
        return [history[-1]]
    if strategy is Strategy.ADD:
        for rec in reversed(history):
            if rec.reduced_cost < -epsilon:
                return [rec]
        return []
    raise ValueError(f"unknown strategy {strategy!r}")


def bound_term_lookup(problem: BlockProblem, mode: FilterMode, pi_now: np.ndarray):
    """The bound terms `should_filter` reads at the duals `pi_now`, or None in baseline mode.

    Returns `term(block, iteration, pi_prev)`: the block's term for a record
    taken at `iteration`, whose linking duals were `pi_prev`.  Every block's
    term for one record iteration comes from one `problem.bound_terms`
    (exact) or `problem.heuristic_bound_terms` call, made on first use; the
    row is kept while the lookup lives (one iteration).
    """
    if mode is FilterMode.EXACT:
        terms = problem.bound_terms
    elif mode is FilterMode.HEURISTIC:
        terms = problem.heuristic_bound_terms
    else:
        return None
    rows: dict[int, list[float]] = {}

    def term(block, iteration, pi_prev):
        row = rows.get(iteration)
        if row is None:
            row = rows[iteration] = terms(pi_prev, pi_now).tolist()
        return row[block]
    return term


def should_filter(block: int, dual_store, history, mu_now: float, term,
                  mode: FilterMode, strategy: Strategy, epsilon: float) -> FilterDecision:
    """Evaluate screening bounds for one block at the current duals.

    `term` is the `bound_term_lookup` for the current duals and `mode`.
    Stops at the first bound >= -epsilon.  Records whose dual vector was
    evicted from `dual_store` are counted and passed over; they are kept in
    the history because a later retention change may not apply retroactively.
    Depends only on the arguments and mutates nothing but `term`'s cache.
    """
    if mode is FilterMode.BASELINE:
        return FilterDecision(block, False, None, None, 0, 0, ())
    records = select_records(strategy, history, epsilon)
    bounds: list[tuple[int, float]] = []
    evicted = 0
    best: float | None = None
    used: int | None = None
    skip = False
    for rec in records:
        pi_prev = dual_store.get(rec.iteration)
        if pi_prev is None:
            evicted += 1
            continue
        lb = exact_bound(rec, mu_now, term(block, rec.iteration, pi_prev))
        bounds.append((rec.iteration, lb))
        if best is None or lb > best:
            best = lb
            used = rec.iteration
        if lb >= -epsilon:
            skip = True
            used = rec.iteration
            break
    return FilterDecision(block, skip, best, used, len(bounds), evicted, tuple(bounds))
