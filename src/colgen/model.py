"""Shared objects for the decomposition engine and its problem plug-ins."""

from __future__ import annotations

import abc
from collections.abc import Sequence
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
class PricedBlocks:
    """`price_blocks`' result: entry i prices block `blocks[i]`.

    `reduced_costs[i]` is the block's minimum reduced cost, and every entry
    also gives the column achieving it in compressed sparse form: it costs
    `costs[i]`, and its (linking row, coefficient) pairs, the same pairs as
    its `Column.coeffs`, are `rows[ptr[i]:ptr[i + 1]]`,
    `vals[ptr[i]:ptr[i + 1]]`.  `native[i]` is the column's `Column.native`;
    `native=None` means each column's native is its linking rows.
    `column(i)` builds entry i's `Column` from these arrays; callers build
    only the ones they keep.
    """

    blocks: np.ndarray
    reduced_costs: np.ndarray
    costs: np.ndarray
    ptr: np.ndarray
    rows: np.ndarray
    vals: np.ndarray
    native: Sequence[tuple] | None = None

    def column(self, i: int) -> Column:
        span = slice(self.ptr[i], self.ptr[i + 1])
        rows = self.rows[span].tolist()
        return Column(block=int(self.blocks[i]), cost=float(self.costs[i]),
                      coeffs=tuple(zip(rows, self.vals[span].tolist())),
                      native=tuple(rows) if self.native is None else self.native[i])

    @classmethod
    def from_columns(cls, blocks, results) -> PricedBlocks:
        """From a (reduced cost, column) pair for each of `blocks`."""
        cols = [col for _, col in results]
        if None in cols:
            raise ValueError(f"entry {cols.index(None)} has no column")
        ptr = np.zeros(len(cols) + 1, dtype=np.int64)
        ptr[1:] = np.cumsum([len(col.coeffs) for col in cols], dtype=np.int64)
        pairs = [pair for col in cols for pair in col.coeffs]
        return cls(
            blocks=np.asarray(blocks, dtype=np.intp).reshape(-1),
            reduced_costs=np.array([cbar for cbar, _ in results], dtype=float),
            costs=np.array([col.cost for col in cols], dtype=float),
            ptr=ptr,
            rows=np.array([row for row, _ in pairs], dtype=np.int64),
            vals=np.array([val for _, val in pairs], dtype=float),
            native=[col.native for col in cols],
        )


class BlockProblem(abc.ABC):
    """Contract a problem must satisfy to run under the engine.

    The engine prices, takes bound terms and reports installs only in
    batches: one `price_blocks` call per iteration, one `bound_terms` or
    `heuristic_bound_terms` row, for all blocks, per record iteration that
    screening reads, and one `register_columns` call per install.
    Implementations are stateful: `register_columns` is called with every
    batch of columns actually installed in the master (initial ones
    included), which is what keeps the heuristic terms' supports current.
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
    def initial_columns(self) -> PricedBlocks:
        """Columns seeding the first restricted master, in `price_blocks`'
        form (`PricedBlocks.from_columns` builds it from `Column`s).  The
        engine installs every entry and never reads the reduced costs."""

    @abc.abstractmethod
    def price_blocks(self, blocks, pi: np.ndarray, mu) -> PricedBlocks:
        """Exact pricing of each listed block, in order, at the given duals.

        `pi` holds the master's linking-row duals and `mu[k]` block k's
        convexity-row dual, both in the rows' declared senses: a >= row's
        dual is nonnegative, a <= row's nonpositive, an = row's free.  The
        reduced cost of a column of block k is `cost - sum(pi[row] * coeff)
        - mu[k]`.  Entry i of the result holds block `blocks[i]`'s minimum
        reduced cost over its whole column set, not an approximation, and
        the column achieving it.  Every listed block has one: a block with
        none is the plug-in's error to raise.  Must not mutate the duals.
        """

    @abc.abstractmethod
    def bound_terms(self, pi_prev: np.ndarray, pi_now: np.ndarray) -> np.ndarray:
        """Exact screening term of every block, as one array in block order.

        Block k's term is the minimum of the dual-shift form over its 0/1
        box, so it is <= 0, and a record's reduced cost at `pi_prev` plus
        the convexity drift plus this term bounds the block's reduced cost
        at `pi_now` from below.  Must not mutate the dual arrays.
        """

    @abc.abstractmethod
    def heuristic_bound_terms(self, pi_prev: np.ndarray, pi_now: np.ndarray) -> np.ndarray:
        """Heuristic screening term of every block, as one array in block order.

        Like `bound_terms` but summed over the linking rows that the block's
        installed columns touch only.  Each term is <= 0 and >= the block's
        exact term, so bounds built from it may overshoot and skip blocks
        that still had improving columns.
        """

    def register_columns(self, blocks: np.ndarray, rows: np.ndarray) -> None:
        """Engine callback after a batch of columns enters the master.

        Entry j says that an installed column of block `blocks[j]` has a
        nonzero on linking row `rows[j]`: one entry per (column, linking row)
        pair of the batch, so a block or row may repeat.  The default keeps
        nothing.
        """
