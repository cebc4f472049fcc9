"""Shared objects for the decomposition engine and its problem plug-ins."""

from __future__ import annotations

import abc
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .lp import RowSense


@dataclass(frozen=True)
class Column:
    """One master variable proposed by a block.

    `coeffs` holds (linking row, coefficient) pairs sorted by row; the
    column's coefficient on its block's convexity row is always 1 and is not
    stored here.  `native` is the block-level description of the column (arc
    indices of a path, item indices of an assignment).
    """

    block: int
    cost: float
    coeffs: tuple[tuple[int, float], ...]
    native: tuple = ()


@dataclass(frozen=True)
class DualSolution:
    """Duals of one restricted-master solve, split by row group."""

    iteration: int
    linking: np.ndarray
    convexity: np.ndarray

    def __post_init__(self):
        if self.iteration < 1:
            raise ValueError("iteration index starts at 1")
        if not (np.all(np.isfinite(self.linking)) and np.all(np.isfinite(self.convexity))):
            raise ValueError("dual vectors must be finite")


@dataclass(frozen=True)
class PricedBlocks:
    """`price_blocks`' result: entry i prices block `blocks[i]`.

    `reduced_costs[i]` is the block's minimum reduced cost.  Where
    `has_column[i]`, the column achieving it is also given in compressed
    sparse form: it costs `costs[i]`, and its (linking row, coefficient)
    pairs, the same pairs as its `Column.coeffs`, are
    `rows[ptr[i]:ptr[i + 1]]`, `vals[ptr[i]:ptr[i + 1]]`.  Where a block has
    no column, its cost is 0 and its entry range is empty.  `column(i)`
    builds entry i's `Column` (None where there is none); callers build only
    the ones they keep.  The engine keeps the results it installs from and
    calls `column` on them after the run, so it must not read state that
    later pricing calls change.
    """

    blocks: np.ndarray
    reduced_costs: np.ndarray
    has_column: np.ndarray
    costs: np.ndarray
    ptr: np.ndarray
    rows: np.ndarray
    vals: np.ndarray
    column: Callable[[int], Column | None]

    @classmethod
    def from_columns(cls, blocks, results) -> PricedBlocks:
        """From `solve_pricing`'s (reduced cost, column) pair for each of `blocks`."""
        cols = [col for _, col in results]
        coeffs = [col.coeffs if col is not None else () for col in cols]
        ptr = np.zeros(len(cols) + 1, dtype=np.int64)
        ptr[1:] = np.cumsum([len(c) for c in coeffs], dtype=np.int64)
        pairs = [pair for c in coeffs for pair in c]
        return cls(
            blocks=np.asarray(blocks, dtype=np.intp).reshape(-1),
            reduced_costs=np.array([cbar for cbar, _ in results], dtype=float),
            has_column=np.array([col is not None for col in cols], dtype=bool),
            costs=np.array([col.cost if col is not None else 0.0 for col in cols],
                           dtype=float),
            ptr=ptr,
            rows=np.array([row for row, _ in pairs], dtype=np.int64),
            vals=np.array([val for _, val in pairs], dtype=float),
            column=cols.__getitem__,
        )


class BlockProblem(abc.ABC):
    """Contract a problem must satisfy to run under the engine.

    Implementations are stateful: `register_columns` is called by the
    engine with every batch of columns actually installed in the master
    (initial ones included), which is what keeps `support_set` current.
    Pricing must be exact -- it returns the true minimum reduced cost over
    the block's column set, not an approximation.  The engine prices, takes
    bound terms and reports installs only in batches (`price_blocks`,
    `bound_terms`, `heuristic_bound_terms`, `register_columns`); screening
    takes one row of terms, for all blocks, per record iteration it reads.
    The first three default to loops over `solve_pricing`,
    `hypercube_bound_term` and `heuristic_bound_term`.
    """

    @property
    @abc.abstractmethod
    def num_blocks(self) -> int: ...

    @abc.abstractmethod
    def linking_rows(self) -> list[tuple[RowSense, float]]:
        """Linking-row senses and right-hand sides, in row order."""

    @abc.abstractmethod
    def convexity_sense(self, block: int) -> RowSense:
        """Sense of the block's convexity row (rhs is always 1)."""

    @abc.abstractmethod
    def initial_columns(self) -> list[Column]:
        """Columns seeding the first restricted master."""

    @abc.abstractmethod
    def solve_pricing(self, block: int, pi: np.ndarray, mu_k: float) -> tuple[float, Column | None]:
        """Exact pricing at the given duals.

        `pi` holds the master's linking-row duals and `mu_k` the block's
        convexity-row dual, both in the rows' declared senses: a >= row's
        dual is nonnegative, a <= row's nonpositive, an = row's free.  The
        reduced cost of a column is `cost - sum(pi[row] * coeff) - mu_k`.
        Returns the minimum reduced cost and the achieving column (None when
        the block has no column at all).  Must not mutate the dual arrays.
        """

    def price_blocks(self, blocks, pi: np.ndarray, mu) -> PricedBlocks:
        """`solve_pricing` for each listed block, in order, as arrays.

        `mu[k]` is block k's convexity-row dual.  Entry i of the result
        holds what `solve_pricing(blocks[i], pi, mu[blocks[i]])` returns:
        the same reduced cost, and the same column, in compressed sparse form
        and through `column(i)`.  Must be exact and must not mutate the dual
        arrays.  The default prices one block at a time; families override
        it to share work across blocks and to skip building `Column` objects.
        """
        blocks = list(blocks)
        return PricedBlocks.from_columns(
            blocks, [self.solve_pricing(k, pi, float(mu[k])) for k in blocks])

    @abc.abstractmethod
    def hypercube_bound_term(self, block: int, pi_prev: np.ndarray, pi_now: np.ndarray) -> float:
        """Minimum of the dual-shift form over the block's 0/1 box; <= 0."""

    def bound_terms(self, pi_prev: np.ndarray, pi_now: np.ndarray) -> np.ndarray:
        """`hypercube_bound_term` of every block, as one array in block order.

        Families whose term depends on the block through a few numbers
        override this to compute each distinct term once; the values must
        equal the per-block ones bit for bit.
        """
        return np.array([self.hypercube_bound_term(k, pi_prev, pi_now)
                         for k in range(self.num_blocks)], dtype=float)

    @abc.abstractmethod
    def heuristic_bound_term(self, block: int, pi_prev: np.ndarray, pi_now: np.ndarray,
                             support: np.ndarray) -> float:
        """Like hypercube_bound_term but summed over the `support` rows only.

        Always >= the exact term, so bounds built from it may overshoot and
        skip blocks that still had improving columns.
        """

    def heuristic_bound_terms(self, pi_prev: np.ndarray, pi_now: np.ndarray) -> np.ndarray:
        """`heuristic_bound_term` of every block on its `support_set`, in block order.

        Families override this with one array expression over all blocks;
        its sums run in another order, so values may differ from the
        per-block ones by rounding.
        """
        return np.array([self.heuristic_bound_term(k, pi_prev, pi_now, self.support_set(k))
                         for k in range(self.num_blocks)], dtype=float)

    @abc.abstractmethod
    def support_set(self, block: int) -> np.ndarray:
        """Boolean mask over the linking rows that the block's installed columns touch."""

    def register_columns(self, blocks: np.ndarray, rows: np.ndarray) -> None:
        """Engine callback after a batch of columns enters the master.

        Entry j says that an installed column of block `blocks[j]` has a
        nonzero on linking row `rows[j]`: one entry per (column, linking row)
        pair of the batch, so a block or row may repeat.  The default keeps
        nothing.
        """
