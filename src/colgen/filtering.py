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

Records are a `PricingHistory`, one row per iteration over all blocks that
also holds the linking duals, and `should_filter` screens every block at
once, one array expression per row.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np


class FilterMode(enum.Enum):
    BASELINE = "baseline"  # never skip
    EXACT = "exact"        # true box-minimum term
    HEURISTIC = "heur"     # support-restricted term


class Strategy(enum.Enum):
    """Which stored records are tried, newest first."""

    ALL = "all"
    COMPUTED = "computed"  # newest record only
    ADD = "add"            # newest record whose reduced cost was improving


def negative_part_sum(diff: np.ndarray) -> float:
    """Minimum of diff . x over the 0/1 box: sum of the negative entries."""
    return float(np.minimum(diff, 0.0).sum())


def exact_bound(reduced_cost, mu_prev, mu_now, term):
    """Lower bound on the current reduced cost from an earlier record, elementwise.

    Valid whenever `term` is at most the true box minimum of the dual-shift
    form; with the support-restricted term it is only a screening value.
    """
    return reduced_cost + (mu_prev - mu_now) + term


class PricingHistory:
    """Exact pricing outcomes of every block, one row per iteration.

    Row t - 1 holds iteration t: each block's minimum reduced cost (NaN where
    not priced), the convexity duals and the linking duals.  Only exact
    solves may be recorded: a heuristically priced value would make every
    bound built from it unsound.

    `retain` (the paper's alpha) is a read window, not an eviction: screening
    at iteration t reads the rows of iterations t - retain + 1 and later, the
    current dual vector counting as one of the `retain`, so `retain=1` reads
    none.  Every row is kept whatever `retain` is, since the reduced costs
    are kept anyway and the linking duals are the same order of memory.
    """

    def __init__(self, num_blocks: int, num_linking: int, retain: int | None = None):
        if retain is not None:
            # a float fails in `range` only once screening reads the window,
            # and True would read as 1
            if isinstance(retain, bool) or not isinstance(retain, int):
                raise ValueError(f"retain must be an int, got {retain!r}")
            if retain < 1:
                raise ValueError("retain must be at least 1")
        self.retain = retain
        self._rc = np.full((8, num_blocks), np.nan)
        self._mu = np.zeros((8, num_blocks))
        self._pi = np.zeros((8, num_linking))
        self.iterations = 0

    def record(self, iteration: int, blocks: np.ndarray, reduced_costs: np.ndarray,
               mu: np.ndarray, pi: np.ndarray) -> None:
        """Iteration `iteration`'s row: `blocks` priced to `reduced_costs` at
        convexity duals `mu` and linking duals `pi`, both copied."""
        if iteration <= self.iterations:
            raise ValueError("iterations must be recorded in increasing order")
        if iteration > len(self._rc):
            grow = max(iteration, 2 * len(self._rc)) - len(self._rc)
            self._rc = np.vstack([self._rc, np.full((grow, len(mu)), np.nan)])
            self._mu = np.vstack([self._mu, np.zeros((grow, len(mu)))])
            self._pi = np.vstack([self._pi, np.zeros((grow, len(pi)))])
        self._rc[iteration - 1, blocks] = reduced_costs
        self._mu[iteration - 1] = mu
        self._pi[iteration - 1] = pi
        self.iterations = iteration

    @property
    def reduced_costs(self) -> np.ndarray:
        return self._rc[:self.iterations]

    @property
    def convexity_duals(self) -> np.ndarray:
        return self._mu[:self.iterations]

    @property
    def linking_duals(self) -> np.ndarray:
        return self._pi[:self.iterations]

    @property
    def first_readable(self) -> int:
        """The oldest iteration whose row screening at the next iteration reads."""
        return 1 if self.retain is None else max(1, self.iterations + 2 - self.retain)


class Screening(NamedTuple):
    """`should_filter`'s verdict on every block at one iteration: two plain
    Python totals, then arrays over the blocks.  The engine keeps each
    iteration's in its trace; the bounds that failed before the best one
    are not kept."""

    skip: bool                # some block is skipped
    bounds_evaluated: int     # over all blocks
    skipped: np.ndarray
    evaluated: np.ndarray     # bounds evaluated
    evicted: np.ndarray       # records passed over: their duals were evicted
    best_bound: np.ndarray    # the clearing bound, else the best; -inf if none
    record_used: np.ndarray   # that bound's record iteration; 0 if none


def should_filter(history: PricingHistory, pi_now: np.ndarray, mu_now: np.ndarray, terms,
                  strategy: Strategy, epsilon: float) -> Screening:
    """Evaluate the screening bounds of every block at the duals (`pi_now`, `mu_now`).

    `terms(pi_prev, pi_now)` gives every block's term for a record taken at
    linking duals `pi_prev` (`bound_terms` or `heuristic_bound_terms`); it
    is called once for each record iteration some block reads.  Each block
    tries its records (`strategy`) newest first and stops at the first bound
    >= -epsilon.  Records older than the history's read window are evicted:
    they are counted, for the blocks no readable record cleared, and passed
    over.  Per block it reports the count of bounds evaluated and the best
    one with its record, not each bound tried.  Depends only on the
    arguments and mutates nothing.
    """
    rc = history.reduced_costs
    mu_rec = history.convexity_duals
    pi_rec = history.linking_duals
    n, num_blocks = rc.shape
    # the rows each block may try: every priced row, or its newest priced
    # (computed) or newest improving (add) row
    tried = rc < -epsilon if strategy is Strategy.ADD else ~np.isnan(rc)
    if strategy is not Strategy.ALL and n:
        newest = n - 1 - np.argmax(tried[::-1], axis=0)
        has = np.flatnonzero(tried.any(axis=0))
        tried = np.zeros_like(tried)
        tried[newest[has], has] = True
    # rows below `live` are evicted
    live = history.first_readable - 1
    undecided = np.ones(num_blocks, dtype=bool)
    evaluated = np.zeros(num_blocks, dtype=np.int64)
    best = np.full(num_blocks, -np.inf)
    used = np.zeros(num_blocks, dtype=np.int64)
    for r in range(n - 1, live - 1, -1):
        cand = undecided & tried[r]
        if not cand.any():
            continue
        # a whole row at once; entries outside `cand` are never read
        lb = exact_bound(rc[r], mu_rec[r], mu_now, terms(pi_rec[r], pi_now))
        evaluated += cand
        better = cand & (lb > best)
        np.copyto(best, lb, where=better)
        np.copyto(used, r + 1, where=better)
        # a clearing bound beats the block's earlier ones, which all failed
        undecided ^= better & (lb >= -epsilon)
    evicted = tried[:live].sum(axis=0) * undecided
    skipped = ~undecided
    return Screening(bool(skipped.any()), int(evaluated.sum()), skipped, evaluated, evicted,
                     best, used)
