"""Generalized assignment: cover every item, at most one pattern per bin.

Each block is a bin; a column is a subset of items that fits the bin's
capacity, costing the sum of the bin's item costs.  Item rows require
coverage >= 1; bin rows limit each bin to one pattern.  Pricing is an exact
0/1 knapsack minimization over values (cost - item dual) on candidate items
only, those with value < 0 that fit the bin on their own: a bin with none
prices to 0 with the empty pattern, a bin whose candidates all fit takes the
improving ones in closed form, and only the remaining bins run the knapsack
DP, each on a grid of its own capacity.

Instance text format ('#' starts a comment):

    ga <num_items> <num_bins>
    bin <k> <capacity>
    item <i> <k> <cost> <weight>
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .filtering import negative_part_sum
from .lp import RowSense
from .model import BlockProblem, PricedBlocks

# shapes of the synthetic evaluation families: (bins, items)
E_SET_SHAPES = {
    "E1": (100, 10), "E2": (100, 50), "E3": (100, 100),
    "E4": (1000, 10), "E5": (1000, 50), "E6": (1000, 100),
    "E7": (5000, 10), "E8": (5000, 50), "E9": (5000, 100),
}


class GaParseError(ValueError):
    pass


def _int64_array(data, what: str) -> np.ndarray:
    """`data` as an int64 array; ValueError naming `what` for a value int64
    cannot hold exactly.  An array whose dtype casts safely is not scanned."""
    arr = np.asarray(data)
    if not np.can_cast(arr.dtype, np.int64):
        for v in arr.ravel().tolist():
            try:
                exact = int(v) == v and -2**63 <= int(v) < 2**63
            except (TypeError, ValueError, OverflowError):
                exact = False
            if not exact:
                raise ValueError(f"{what} must be integers in int64, got {v!r}")
    return arr.astype(np.int64, copy=False)


@dataclass
class GaInstance:
    """costs/weights have shape (bins, items); capacities has shape (bins,).

    `hidden_assignment` (item -> bin, or None) is the generator's seed
    assignment, kept for introspection only; it takes no part in equality or
    serialization.
    """

    num_items: int
    num_bins: int
    costs: np.ndarray
    weights: np.ndarray
    capacities: np.ndarray
    hidden_assignment: tuple[int, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        self.costs = _int64_array(self.costs, "costs")
        self.weights = _int64_array(self.weights, "weights")
        self.capacities = _int64_array(self.capacities, "capacities")
        if self.costs.shape != (self.num_bins, self.num_items):
            raise ValueError("costs shape must be (bins, items)")
        if self.weights.shape != (self.num_bins, self.num_items):
            raise ValueError("weights shape must be (bins, items)")
        if self.capacities.shape != (self.num_bins,):
            raise ValueError("capacities shape must be (bins,)")
        if self.num_items < 0 or self.num_bins <= 0:
            raise ValueError("need at least one bin and a nonnegative item count")
        if np.any(self.weights < 0) or np.any(self.capacities < 0):
            raise ValueError("weights and capacities must be nonnegative")

    def __eq__(self, other):
        if not isinstance(other, GaInstance):
            return NotImplemented
        return (self.num_items == other.num_items and self.num_bins == other.num_bins
                and np.array_equal(self.costs, other.costs)
                and np.array_equal(self.weights, other.weights)
                and np.array_equal(self.capacities, other.capacities))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_bins, self.num_items)


# ----------------------------------------------------------------------
# text format

def _int64(text: str, what: str) -> int:
    value = int(text)
    if not -2**63 <= value < 2**63:
        raise ValueError(f"{what} {value} is outside int64")
    return value


def parse_ga_instance(text: str) -> GaInstance:
    header = None
    # index -> (values, line number); an index is checked against the header
    # once the header is known, wherever it sits in the file
    caps: dict[int, tuple[int, int]] = {}
    entries: dict[tuple[int, int], tuple[int, int, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "ga":
                if header is not None:
                    raise ValueError("duplicate ga header")
                if len(parts) != 3:
                    raise ValueError("ga header takes 2 values")
                header = (_int64(parts[1], "item count"), _int64(parts[2], "bin count"))
                if header[0] < 0 or header[1] < 1:
                    raise ValueError("ga header needs a nonnegative item count and at "
                                     "least one bin")
            elif parts[0] == "bin":
                if len(parts) != 3:
                    raise ValueError("bin takes 2 values")
                k = int(parts[1])
                cap = _int64(parts[2], f"bin {k} capacity")
                if k in caps:
                    raise ValueError(f"bin {k} repeats line {caps[k][1]}")
                if cap < 0:
                    raise ValueError(f"bin {k} has negative capacity {cap}")
                caps[k] = (cap, lineno)
            elif parts[0] == "item":
                if len(parts) != 5:
                    raise ValueError("item takes 4 values")
                i, k = int(parts[1]), int(parts[2])
                cost = _int64(parts[3], f"item {i}, bin {k} cost")
                weight = _int64(parts[4], f"item {i}, bin {k} weight")
                if (i, k) in entries:
                    raise ValueError(f"item {i}, bin {k} repeats line {entries[i, k][2]}")
                if weight < 0:
                    raise ValueError(f"item {i}, bin {k} has negative weight {weight}")
                entries[(i, k)] = (cost, weight, lineno)
            else:
                raise ValueError(f"unknown directive {parts[0]!r}")
        except ValueError as exc:
            raise GaParseError(f"line {lineno}: {exc}") from exc
    if header is None:
        raise GaParseError("missing ga header")
    m, bins = header
    for k, (_, lineno) in caps.items():
        if not 0 <= k < bins:
            raise GaParseError(f"line {lineno}: bin {k} outside the header's {bins} bins")
    for (i, k), (_, _, lineno) in entries.items():
        if not (0 <= i < m and 0 <= k < bins):
            raise GaParseError(f"line {lineno}: item {i}, bin {k} outside the header's "
                               f"{m} items x {bins} bins")
    # every index is in range, so a short count means a missing line, and the
    # first one sits within the lines given: no header-sized loop or array
    # runs before the file is known to fill it
    if len(caps) < bins:
        k = next(k for k in range(bins) if k not in caps)
        raise GaParseError(f"missing bin line for bin {k}")
    if len(entries) < m * bins:
        i, k = next(key for key in itertools.product(range(m), range(bins))
                    if key not in entries)
        raise GaParseError(f"missing item line for item {i}, bin {k}")
    costs = np.zeros((bins, m), dtype=np.int64)
    weights = np.zeros((bins, m), dtype=np.int64)
    capacities = np.array([caps[k][0] for k in range(bins)], dtype=np.int64)
    for (i, k), (cost, weight, _) in entries.items():
        costs[k, i], weights[k, i] = cost, weight
    return GaInstance(m, bins, costs, weights, capacities)


def write_ga_instance(inst: GaInstance) -> str:
    out = [f"ga {inst.num_items} {inst.num_bins}"]
    for k in range(inst.num_bins):
        out.append(f"bin {k} {int(inst.capacities[k])}")
    for i in range(inst.num_items):
        for k in range(inst.num_bins):
            out.append(f"item {i} {k} {int(inst.costs[k, i])} {int(inst.weights[k, i])}")
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# generator

def generate_ga_instance(num_bins: int, num_items: int, seed: int) -> GaInstance:
    """Seeded random instance with a guaranteed feasible cover.

    Integer costs are uniform on [1, 100] and weights on [5, 20].  Every
    item is secretly assigned to a random bin; a bin's capacity is the total
    weight of its assigned items plus one, or uniform on [5, 100] when
    nothing was assigned to it, so packing each item into its hidden bin is
    always feasible.  PCG64(seed) drives the draws in a fixed order: costs,
    weights, assignment, then capacities of empty bins.  The empty bins'
    capacities are one draw of their count, in bin order: a bounded int64
    draw reads the stream one value at a time whatever its size, so this is
    the same stream as one scalar draw per empty bin.
    """
    if num_bins < 1 or num_items < 0:
        raise ValueError(f"need at least one bin and a nonnegative item count, got "
                         f"{num_bins} bins and {num_items} items")
    rng = np.random.Generator(np.random.PCG64(seed))
    costs = rng.integers(1, 101, size=(num_bins, num_items), dtype=np.int64)
    weights = rng.integers(5, 21, size=(num_bins, num_items), dtype=np.int64)
    assigned = rng.integers(0, num_bins, size=num_items, dtype=np.int64)
    capacities = np.zeros(num_bins, dtype=np.int64)
    np.add.at(capacities, assigned, weights[assigned, np.arange(num_items)])
    used = np.zeros(num_bins, dtype=bool)
    used[assigned] = True
    capacities[used] += 1
    capacities[~used] = rng.integers(5, 101, size=num_bins - int(used.sum()))
    return GaInstance(num_items, num_bins, costs, weights, capacities,
                      hidden_assignment=tuple(assigned.tolist()))


# ----------------------------------------------------------------------
# pricing

def knapsack_min(values, weights, capacity: int) -> tuple[float, tuple[int, ...]]:
    """Exact 0/1 knapsack minimization; the empty set is always allowed.

    Only candidate items, those with value < 0 and weight <= capacity, are
    ever selected: an item with value >= 0 (or nan) cannot improve on
    skipping it.  Ties on value prefer fewer items, then the
    lexicographically smaller index tuple, when sums are exact; in floating
    point the result is what the suffix DP in `knapsack_min_batch` picks, a
    pure function of the inputs.
    O(len(values) * capacity) time and memory.  This is the one-bin case of
    `knapsack_min_batch`.
    """
    values = np.asarray(values, dtype=float)
    best, take = knapsack_min_batch(values[None, :], np.asarray(weights)[None, :],
                                    np.array([capacity]))
    return float(best[0]), tuple(int(i) for i in np.flatnonzero(take[0]))


def knapsack_min_batch(values, weights, capacities) -> tuple[np.ndarray, np.ndarray]:
    """`knapsack_min` over many bins at once.

    `values` and `weights` have shape (bins, items) and `capacities` shape
    (bins,); other shapes raise ValueError.  Returns each bin's minimum value
    and a boolean (bins, items) mask of the picked items.  Only candidate
    items count: value < 0 and no heavier than their bin.

    - a bin whose candidates all fit its capacity, or that has none, is read
      in closed form from one right-to-left `np.cumsum` of its candidates'
      values: it takes item i exactly when the running sum moves there,
      ``v_i + acc < acc``, which is the suffix DP's own step at any capacity
      that holds every candidate, rounding included.  Adding a non-candidate's
      0, or a candidate too small to move the sum, leaves the sum's bits as
      they were, and those are the items the step skips;
    - the other bins share one suffix DP (`_suffix_dp`) over the union of
      their candidate items, with each bin's other items made unpickable,
      each bin on its own capacity grid.

    The tie-break is the suffix DP's: when sums are exact it prefers fewer
    items, then the lexicographically smaller index tuple.  Each bin's value
    equals, bit for bit, a DP over all of its items; only picks differ, where
    such a DP would take an item >= 0 on a rounded tie.
    O(items * sum of the DP bins' capacities) time and memory; raises
    MemoryError when that grid cannot be addressed.
    """
    values = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=np.int64)
    caps = np.asarray(capacities, dtype=np.int64)
    if values.ndim != 2 or w.shape != values.shape:
        raise ValueError(f"weights of shape {w.shape} do not match values of shape "
                         f"{values.shape}, which must be (bins, items)")
    if caps.shape != values.shape[:1]:
        raise ValueError(f"capacities of shape {caps.shape} do not match values of shape "
                         f"{values.shape}: need ({len(values)},)")
    if np.any(caps < 0):
        raise ValueError("capacity must be nonnegative")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    bins, m = values.shape
    cand = (values < 0) & (w <= caps[:, None])
    # closed form for every bin; exact where all candidates fit, and the DP
    # below overwrites the rest
    best, take = _closed_form(values, cand)
    # a bin's candidates overflow it where their running load first passes its
    # capacity; every weight is at most the capacity, so up to that item the
    # load is below 2**64 and exact in uint64, whatever wraps after it
    load = np.cumsum(np.where(cand, w, 0), axis=1, dtype=np.uint64)
    dp = np.flatnonzero((load > caps.astype(np.uint64)[:, None]).any(axis=1))
    if len(dp):
        items = np.flatnonzero(cand[dp].any(axis=0))
        sub = np.ix_(dp, items)
        best[dp], dp_take = _suffix_dp(np.where(cand[sub], values[sub], np.inf),
                                       w[sub], caps[dp])
        # the closed form took only candidates, so every column it set is overwritten
        take[sub] = dp_take
    return best, take


def _closed_form(values, cand) -> tuple[np.ndarray, np.ndarray]:
    """Each bin's knapsack over its `cand` items as if they all fit; see
    `knapsack_min_batch`.

    run[:, i] is the right-to-left running sum of the candidates' values from
    item i on, with run[:, m] = 0.  It never holds nan or -0.0, so adding a
    non-candidate's 0 keeps its bits.
    """
    bins, m = values.shape
    run = np.zeros((bins, m + 1))
    np.cumsum(np.where(cand, values, 0.0)[:, ::-1], axis=1, out=run[:, -2::-1])
    return run[:, 0].copy(), run[:, :-1] < run[:, 1:]


def _suffix_dp(values, w, caps) -> tuple[np.ndarray, np.ndarray]:
    """The knapsack suffix DP, each bin on its own grid 0..cap; see `knapsack_min_batch`.

    All grids sit end to end in one flat array followed by one +inf cell: a
    take whose weight does not fit its cell's capacity reads that cell, so it
    never wins.  A cell's value is the `np.fmin` of its take and skip values:
    where they tie they are equal and never -0.0, so either has the same
    bits, and fmin, unlike minimum, lets the skip win over the nan of a -inf
    value taken from the +inf cell, as the comparisons that pick do.  Item
    counts are at most m, kept in `np.min_scalar_type(m)`.
    """
    bins, m = values.shape
    # exact in Python ints: a value, a count and m choices per cell must be
    # addressable, and then no size, start or position below can wrap
    cells = sum(caps.tolist()) + bins
    if cells * (m + 16) > np.iinfo(np.intp).max:
        raise MemoryError(f"a knapsack DP grid of {cells} cells cannot be allocated")
    sizes = caps + 1
    starts = np.zeros(bins, dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    pos = np.arange(cells)
    cap_of_cell = pos - np.repeat(starts, sizes)
    # suffix DP over items i..m-1: best value and item count per cell, one
    # layer updated in place, plus the take/skip choice of every item
    val_ext = np.zeros(cells + 1)
    val_ext[cells] = np.inf
    count = np.min_scalar_type(m)
    cnt_ext = np.zeros(cells + 1, dtype=count)
    val, cnt = val_ext[:cells], cnt_ext[:cells]
    choose = np.empty((m, cells), dtype=bool)
    src = np.empty(cells, dtype=np.intp)
    short = np.empty(cells, dtype=bool)
    take_v = np.empty(cells)
    take_c = np.empty(cells, dtype=count)
    tie = np.empty(cells, dtype=bool)
    for i in range(m - 1, -1, -1):
        w_i = np.repeat(w[:, i], sizes)
        # each cell's capacity-minus-weight cell, or the +inf cell when short
        np.subtract(pos, w_i, out=src)
        np.less(cap_of_cell, w_i, out=short)
        np.copyto(src, cells, where=short)
        np.take(val_ext, src, out=take_v)
        take_v += np.repeat(values[:, i], sizes)
        np.take(cnt_ext, src, out=take_c)
        take_c += 1
        ch = choose[i]
        np.less(take_v, val, out=ch)
        np.equal(take_v, val, out=tie)
        tie &= take_c <= cnt
        ch |= tie
        np.fmin(val, take_v, out=val)
        np.copyto(cnt, take_c, where=ch)
    at = starts + caps
    best = val[at]
    take = np.zeros((bins, m), dtype=bool)
    for i in range(m):
        take[:, i] = choose[i, at]
        at -= np.where(take[:, i], w[:, i], 0)
    return best, take


# ----------------------------------------------------------------------
# block plug-in

class GaBlockProblem(BlockProblem):
    """One block per bin; linking rows are item-coverage rows.

    Bin convexity rows are <= 1, so their duals mu_k are nonpositive, and
    the reduced cost of a pattern is

        sum over picked items of (cost - pi_item) - mu_k
    """

    def __init__(self, inst: GaInstance):
        self.inst = inst
        # items each bin's installed patterns cover, one row per bin
        self._support = np.zeros((inst.num_bins, inst.num_items), dtype=bool)

    @property
    def num_blocks(self) -> int:
        return self.inst.num_bins

    def linking_rows(self):
        return [(RowSense.GE, 1.0) for _ in range(self.inst.num_items)]

    def convexity_sense(self, block: int) -> RowSense:
        return RowSense.LE

    def initial_columns(self):
        # none: an empty pattern would duplicate its bin row's slack, so item
        # coverage starts on the engine's fallback columns until pricing
        # fills it in
        return PricedBlocks.from_columns([], [])

    def price_blocks(self, blocks, pi, mu):
        """All bins in one `knapsack_min_batch` call, read straight from its item mask."""
        blocks = np.asarray(blocks, dtype=np.intp).reshape(-1)
        return self._price(blocks, pi, np.asarray(mu, dtype=float)[blocks])

    def _price(self, blocks, pi, mu_b) -> PricedBlocks:
        costs = self.inst.costs[blocks]
        best, take = knapsack_min_batch(costs - pi, self.inst.weights[blocks],
                                        self.inst.capacities[blocks])
        ptr = np.zeros(len(blocks) + 1, dtype=np.int64)
        np.cumsum(take.sum(axis=1), out=ptr[1:])
        rows = np.nonzero(take)[1]
        col_costs = np.where(take, costs, 0.0).sum(axis=1)
        # each pattern's native is its item tuple, the `native=None` default
        return PricedBlocks(blocks, best - mu_b, col_costs, ptr, rows, np.ones(len(rows)))

    def solve_pricing(self, block, pi, mu_k):
        priced = self._price(np.array([block], dtype=np.intp), pi, np.array([float(mu_k)]))
        return float(priced.reduced_costs[0]), priced.column(0)

    def hypercube_bound_term(self, block, pi_prev, pi_now):
        return negative_part_sum(pi_prev - pi_now)

    def bound_terms(self, pi_prev, pi_now):
        # the same term for every bin
        return np.full(self.num_blocks, negative_part_sum(pi_prev - pi_now))

    def heuristic_bound_term(self, block, pi_prev, pi_now, support):
        return negative_part_sum((pi_prev - pi_now)[support])

    def heuristic_bound_terms(self, pi_prev, pi_now):
        # numpy's own loop, not BLAS, whose sums change order with its thread count
        return np.einsum("bi,i->b", self._support, np.minimum(pi_prev - pi_now, 0.0))

    def support_set(self, block):
        return self._support[block]

    def register_columns(self, blocks, rows):
        self._support[blocks, rows] = True
