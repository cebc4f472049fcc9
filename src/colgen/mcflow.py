"""Splittable multi-commodity flow over delay-constrained paths.

A commodity k ships `bandwidth` units from its source to its target along
simple paths whose total delay stays within the commodity's budget.  The
master minimizes total routing cost subject to arc capacities; one block per
commodity prices new paths, by a bound where it proves the path and by a
label-setting shortest-path solver under a delay resource where it does not.

The bound is the standard shortcut for a resource-constrained shortest path
(Irnich & Desaulniers, below): if the shortest path without the resource
meets the budget, it is the answer.  The set-up holds the dual-free least
cost from each node to each target, and its tree path P, which leaves each
node by its cheapest out-arc.  Any other path leaves P at some node v by
another arc a, so it costs at least the deviation bound g, the least of
prefix(v) + cost(a) + least cost from head(a) over all such v and a.  The
capacity duals, clamped at zero, only add weight, so while P meets the delay
budget and its cost plus its dual surcharge stays below g, with a relative
margin of `TREE_SLACK` for rounding, P is strictly lighter than every other
path: the search would return P, and pricing returns it without one.  A
tree walk stops after num_nodes arcs, since zero-cost arcs can make it
cycle, and a target the walk never reaches is never certified.  The set-up
reads each commodity's min-delay initial path off the least-delay tree in
the same way and searches only where the bound fails, as on ties.

The label setting prunes exactly, as in Irnich & Desaulniers ("Shortest Path
Problems with Resource Constraints", 2005) and Lozano & Medaglia (Comput.
Oper. Res. 40(1), 2013).  A label dies when its delay plus the least delay to
the target exceeds the budget, or when its weight plus a lower bound on the
rest of the path exceeds the weight of a path already known.  In pricing the
lower bound is dual-free: the capacity duals are clamped at zero, so
bandwidth times the least arc cost to the target bounds every completion.
The known path is the lighter, at the current duals, of the commodity's
min-delay path and the path its last pricing call returned; both are
delay-feasible.  The weight test is strict and has `BOUND_SLACK` of room for
rounding, so a search returns the same path, bit for bit, as without it.

Instance text format (0-based indices, '#' starts a comment):

    nodes N
    arc tail head capacity delay cost
    commodity source target bandwidth maxdelay
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass, fields

import numpy as np

from .filtering import negative_part_sum
from .lp import RowSense
from .model import BlockProblem, PricedBlocks

DELAY_TOL = 1e-9
# relative slack of the weight bounds in the label loop.  Rounding moves a
# float sum of n nonnegative terms by at most about n * 1.1e-16 relative,
# far less than this for any path of under a thousand arcs, so the bounds
# never cut a path that ties the optimum.
BOUND_SLACK = 1e-12
# relative margin of the tree-path certificate (`_tree_paths`): its two
# sides are float sums of at most 2 * num_nodes nonnegative terms each, so
# rounding moves them by far less than this on any graph this code can hold
TREE_SLACK = 1e-9
# generated arc capacities add a uniform share in this range of the total
# bandwidth on top of the minimum-delay routing load
CAPACITY_SLACK = (0.0, 0.1)


class McParseError(ValueError):
    pass


class UnroutableCommodityError(ValueError):
    """No delay-feasible path exists for some commodity."""


@dataclass(frozen=True)
class Arc:
    tail: int
    head: int
    capacity: float
    delay: float
    cost: float


@dataclass(frozen=True)
class Commodity:
    source: int
    target: int
    bandwidth: float
    max_delay: float


def _is_index(x) -> bool:
    """An int or numpy integer, not a bool: what a node index may be."""
    return type(x) is int or isinstance(x, np.integer)


def _arc_error(a: Arc, num_nodes: int) -> str | None:
    """Why `a` is not a valid arc of a `num_nodes`-node instance, or None."""
    if not (_is_index(a.tail) and _is_index(a.head)):
        return f"arc endpoints must be integer node indices: {a}"
    if not (0 <= a.tail < num_nodes and 0 <= a.head < num_nodes):
        return f"arc endpoint out of range: {a}"
    cap, delay, cost = a.capacity, a.delay, a.cost
    if not (math.isfinite(cap) and cap >= 0 and math.isfinite(delay) and delay >= 0
            and math.isfinite(cost) and cost >= 0):
        return f"arc attributes must be finite and nonnegative: {a}"
    return None


def _commodity_error(c: Commodity, num_nodes: int) -> str | None:
    """Why `c` is not a valid commodity of a `num_nodes`-node instance, or None."""
    if not (_is_index(c.source) and _is_index(c.target)):
        return f"commodity endpoints must be integer node indices: {c}"
    if not (0 <= c.source < num_nodes and 0 <= c.target < num_nodes):
        return f"commodity endpoint out of range: {c}"
    if c.source == c.target:
        return f"commodity source and target must differ: {c}"
    if not (math.isfinite(c.bandwidth) and c.bandwidth > 0
            and math.isfinite(c.max_delay) and c.max_delay >= 0):
        return f"commodity needs finite positive bandwidth, finite nonnegative budget: {c}"
    return None


@dataclass(frozen=True)
class McInstance:
    num_nodes: int
    arcs: tuple[Arc, ...]
    commodities: tuple[Commodity, ...]

    def __post_init__(self):
        if self.num_nodes <= 0:
            raise ValueError("instance needs at least one node")
        for a in self.arcs:
            if (err := _arc_error(a, self.num_nodes)) is not None:
                raise ValueError(err)
        for c in self.commodities:
            if (err := _commodity_error(c, self.num_nodes)) is not None:
                raise ValueError(err)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.num_nodes, len(self.arcs), len(self.commodities))

    @functools.cached_property
    def _routing(self) -> _Routing:
        """Dual-free pricing data, shared by every `McBlockProblem` of this
        instance: built on first use, or handed over by
        `generate_mc_instance`, which builds it to size the capacities.
        Equality, hashing and `repr` read the fields only; a pickled instance
        carries the data along."""
        return _Routing.of(self)


# ----------------------------------------------------------------------
# text format

def parse_mc_instance(text: str) -> McInstance:
    num_nodes = None
    arcs: list[tuple[int, Arc]] = []
    commodities: list[tuple[int, Commodity]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind, args = parts[0], parts[1:]
        try:
            if kind == "nodes":
                if num_nodes is not None:
                    raise ValueError("duplicate nodes line")
                if len(args) != 1:
                    raise ValueError("nodes takes one value")
                num_nodes = int(args[0])
            elif kind == "arc":
                if len(args) != 5:
                    raise ValueError("arc takes 5 values")
                arcs.append((lineno, Arc(int(args[0]), int(args[1]),
                                         float(args[2]), float(args[3]), float(args[4]))))
            elif kind == "commodity":
                if len(args) != 4:
                    raise ValueError("commodity takes 4 values")
                commodities.append((lineno, Commodity(int(args[0]), int(args[1]),
                                                      float(args[2]), float(args[3]))))
            else:
                raise ValueError(f"unknown directive {kind!r}")
        except ValueError as exc:
            raise McParseError(f"line {lineno}: {exc}") from exc
    if num_nodes is None:
        raise McParseError("missing nodes line")
    for lineno, a in arcs:
        if (err := _arc_error(a, num_nodes)) is not None:
            raise McParseError(f"line {lineno}: {err}")
    for lineno, c in commodities:
        if (err := _commodity_error(c, num_nodes)) is not None:
            raise McParseError(f"line {lineno}: {err}")
    try:
        return McInstance(num_nodes, tuple(a for _, a in arcs),
                          tuple(c for _, c in commodities))
    except ValueError as exc:
        raise McParseError(str(exc)) from exc


def write_mc_instance(inst: McInstance) -> str:
    out = [f"nodes {inst.num_nodes}"]
    for a in inst.arcs:
        out.append(f"arc {a.tail} {a.head} {a.capacity!r} {a.delay!r} {a.cost!r}")
    for c in inst.commodities:
        out.append(f"commodity {c.source} {c.target} {c.bandwidth!r} {c.max_delay!r}")
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# shortest paths

def _potentials(num_nodes, arcs, values, targets) -> np.ndarray:
    """Least total nonnegative `values` from each node to each target.

    Returns a (len(targets) x num_nodes) array, inf where a node cannot reach
    the target; `values` of shape (r, len(arcs)) give r such arrays stacked.
    Bellman-Ford on every target and every row of values at once: each pass
    sets D[..., tail] = min(D[..., tail], D[..., head] + value) over all arcs,
    one `np.minimum.reduceat` over the arcs grouped by tail, until nothing
    changes.  Every entry is a path's sum taken from the target back to the
    node, the order Dijkstra on reversed arcs takes, and adding a nonnegative
    float never decreases a sum, so the entries equal Dijkstra's bit for bit.
    A row that settles first stays as it is while the others go on.
    """
    values = np.asarray(values, dtype=float)
    dist = np.full(values.shape[:-1] + (len(targets), num_nodes), np.inf)
    dist[..., np.arange(len(targets)), targets] = 0.0
    tails = np.array([tail for tail, _ in arcs], dtype=np.intp)
    if tails.size == 0:
        return dist
    order = np.argsort(tails, kind="stable")
    tails = tails[order]
    heads = np.array([head for _, head in arcs], dtype=np.intp)[order]
    values = values[..., None, order]
    starts = np.flatnonzero(np.concatenate(([True], tails[1:] != tails[:-1])))
    nodes = tails[starts]
    while True:
        now = dist[..., nodes]
        new = np.minimum(now, np.minimum.reduceat(dist[..., heads] + values, starts, axis=-1))
        if np.array_equal(new, now):
            return dist
        dist[..., nodes] = new


def _graph_lists(num_nodes, arcs) -> tuple[list[list[int]], list[int]]:
    """(indices of each node's outgoing arcs in increasing order, arc heads)."""
    out: list[list[int]] = [[] for _ in range(num_nodes)]
    for idx, (tail, _) in enumerate(arcs):
        out[tail].append(idx)
    return out, [head for _, head in arcs]


def rcsp(num_nodes: int, arcs, weights, delays, max_delay: float,
         source: int, target: int) -> tuple[float, tuple[int, ...]] | None:
    """Cheapest simple source-target path with total delay within budget.

    `arcs` holds (tail, head) pairs; `weights` (nonnegative) are minimized,
    `delays` (nonnegative) are capped by `max_delay`.  Label setting with
    (weight, delay) dominance; among equal-weight optima the lexicographically
    smallest arc-index sequence wins, which pins the result independent of arc
    ordering quirks.  No weight bound prunes this search.  Returns (weight,
    arc tuple) or None.
    """
    if source == target:
        return (0.0, ())
    delays = np.asarray(delays, dtype=float)
    dmin = _potentials(num_nodes, arcs, delays, [target])[0]
    return _label_setting(*_graph_lists(num_nodes, arcs),
                          np.asarray(weights, dtype=float).tolist(), [0.0] * num_nodes, math.inf,
                          delays.tolist(), dmin.tolist(), max_delay, source, target)


def _label_setting(out, heads, weights, lower, limit, delays, dmin, max_delay, source, target,
                   scale=1.0):
    """`rcsp` after its set-up; per-node and per-arc arguments are sequences.

    `out` and `heads` come from `_graph_lists`.  A new label dies when its
    weight plus `scale` times `lower` at its node exceeds `limit`, or its
    delay plus `dmin` (the least delay to `target`) there exceeds the budget.
    The result is the one with zeros and inf when that bound never exceeds
    the weight of a path on to `target` and `limit` is at least some
    delay-feasible path's weight, both up to `BOUND_SLACK`: every label cut
    ends above the optimum, so it is not the result, and no label it would
    have dominated can dominate one that leads to the result, as that would
    give it a completion no heavier than the optimum.  The test is strict,
    so labels that tie the optimum survive and the lexicographic tie-break
    is kept.  Callers without weight bounds pass zeros and inf.
    """
    cap = max_delay + DELAY_TOL
    if dmin[source] > cap:
        return None
    # retained labels per node: (weight, delay, arcseq); a new label is kept
    # unless some retained one is no worse in weight, delay and lex order
    retained: list[list[tuple[float, float, tuple[int, ...]]]] = [[] for _ in out]
    retained[source].append((0.0, 0.0, ()))
    heap: list[tuple[float, tuple[int, ...], float, int]] = [(0.0, (), 0.0, source)]
    while heap:
        w, seq, dl, v = heapq.heappop(heap)
        if v == target:
            return (w, seq)
        for idx in out[v]:
            head = heads[idx]
            nw = w + weights[idx]
            if nw + scale * lower[head] > limit:
                continue
            ndl = dl + delays[idx]
            if ndl + dmin[head] > cap:
                continue
            nseq = seq + (idx,)
            dominated = False
            for (ow, odl, oseq) in retained[head]:
                if ow <= nw and odl <= ndl and oseq <= nseq:
                    dominated = True
                    break
            if dominated:
                continue
            retained[head].append((nw, ndl, nseq))
            heapq.heappush(heap, (nw, nseq, ndl, head))
    return None


def _min_delay_path(graph, delays, dmin, max_delay, source, target):
    """`_label_setting` with the delays as weights.  `dmin` is then the least
    weight on to `target`, and its value at `source` the least path weight
    up to rounding, so it bounds the search as tightly as it can be."""
    return _label_setting(*graph, delays, dmin, _above(dmin[source]), delays, dmin, max_delay,
                          source, target)


def _above(weight: float) -> float:
    """A limit that a path of weight `weight`, summed in any order, stays under."""
    return weight * (1 + BOUND_SLACK) + BOUND_SLACK


def _tree_paths(pairs, values, potentials, rows, sources, targets, caps):
    """Each commodity's tree path on every layer of `values`, and its
    headroom: how much weight on top of its values the path can take and
    stay the one lightest path, by the deviation bound g of the module
    docstring.

    `values` (r x arcs) are nonnegative arc values and `potentials` (r x
    targets x nodes) their `_potentials` to the distinct targets, layer 0
    the delays; per commodity, `rows` holds its target's row, `sources` and
    `targets` its ends and `caps` its delay budget plus `DELAY_TOL`.  The
    tree path P leaves each node by its out-arc of least value + potential
    at the head, the smallest index on ties, and must pass the label loop's
    delay test at each node.

    Returns (paths, headroom), one row per layer: P's arcs, and g /
    (1 + TREE_SLACK) minus P's value, where the margin covers every rounding
    of the float sums on either side.  A commodity whose walk fails a delay
    test or does not reach its target in num_nodes arcs (zero-value cycles
    can loop the walk; an unreachable target is never reached) gets () and
    -inf, which no extra weight is below.
    """
    layers, num_rows, num_nodes = potentials.shape
    tails = np.array([tail for tail, _ in pairs], dtype=np.intp)
    heads = np.array([head for _, head in pairs], dtype=np.intp)
    num_arcs, flat = len(pairs), potentials.ravel()
    # per (layer, target row) and arc: the state of the arc's tail, numbered
    # as `flat`, and the arc's value + potential at its head.  `_potentials`
    # leaves a state's potential equal to the least such sum, so the arcs
    # that attain it are exactly the ones where the two are equal
    cell = (np.arange(layers * num_rows)[:, None] * num_nodes + tails).ravel()
    via = (potentials[..., heads] + values[:, None]).ravel()
    tight = via == flat[cell]
    taken = np.flatnonzero(tight)
    # per state: the arc the walk takes, the smallest index that attains the
    # least, num_arcs for none; and the least over the other arcs, which is
    # the least itself where a second arc attains it
    succ = np.full(flat.size, num_arcs)
    np.minimum.at(succ, cell[taken], taken % num_arcs)
    alt = np.full(flat.size, np.inf)
    np.minimum.at(alt, cell, np.where(tight, np.inf, via))
    ties = np.bincount(cell[taken], minlength=flat.size) > 1
    alt[ties] = flat[ties]
    # walk every (layer, commodity) pair at once, at most num_nodes arcs; a
    # target takes no arc, so the walk stops there
    base = (np.arange(layers)[:, None] * num_rows + rows).ravel() * num_nodes
    goal = base + np.tile(targets, layers)
    succ[goal] = num_arcs
    shift = np.append(heads - tails, 0)
    state = base + np.tile(sources, layers)
    states, arcs = [state], []
    for _ in range(num_nodes):
        arc = succ[state]
        if arc.min(initial=num_arcs) == num_arcs:
            break
        arcs.append(arc)
        state = state + shift[arc]
        states.append(state)
    states = np.array(states)
    arcs = np.array(arcs, dtype=np.intp).reshape(len(arcs), base.size)
    # the delay and the value up to each state visited, summed left to right,
    # the delays tested as the label loop tests them
    values = np.append(values, np.zeros((layers, 1)), axis=1)
    sums = np.zeros((2,) + states.shape)
    np.add.accumulate(values[0, arcs], axis=0, out=sums[0, 1:])
    np.add.accumulate(values[np.repeat(np.arange(layers), len(rows)), arcs], axis=0,
                      out=sums[1, 1:])
    delay, value = sums
    ok = (state == goal) & (delay + flat[states % (num_rows * num_nodes)]
                            <= np.tile(caps, layers)).all(axis=0)
    gap = np.where(arcs < num_arcs, value[:-1] + alt[states[:-1]], np.inf).min(
        axis=0, initial=np.inf)
    headroom = np.where(ok, gap / (1 + TREE_SLACK) - value[-1], -np.inf)
    lengths = np.where(ok, (arcs < num_arcs).sum(axis=0), 0)
    paths = [tuple(a[:n]) for a, n in zip(arcs.T.tolist(), lengths.tolist())]
    num = len(rows)
    return ([paths[i * num:(i + 1) * num] for i in range(layers)],
            headroom.reshape(layers, num))


# ----------------------------------------------------------------------
# block plug-in

def _path_arrays(paths, bandwidths):
    """(ptr, rows, vals) of path columns in compressed sparse form: each
    path's arcs in increasing order, each at -bandwidth."""
    lens = np.array([len(p) for p in paths], dtype=np.int64)
    ptr = np.zeros(len(paths) + 1, dtype=np.int64)
    np.cumsum(lens, out=ptr[1:])
    rows = np.array([a for p in paths for a in sorted(p)], dtype=np.int64)
    return ptr, rows, np.repeat(-np.asarray(bandwidths, dtype=float), lens)


@dataclass(frozen=True, eq=False)
class _Routing:
    """An instance's dual-free pricing data, read by all of its problems.

    Nothing here refers to a problem, and the arrays are read-only, so no
    problem's state reaches another through it.  Per-arc and per-node data
    the label loop indexes one element at a time are tuples.  `build` is the
    one builder: `of` calls it with an instance's fields, and
    `generate_mc_instance` with its own arrays.
    """

    graph: tuple            # (out-adjacency, arc heads), as `_graph_lists` gives
    costs: np.ndarray       # arc costs
    cost_list: tuple
    delays: tuple
    # least delay and least arc cost from each node to each distinct target,
    # one row per target
    dmin: tuple
    hcost: tuple
    # per commodity: (bandwidth, target, target's row, source, max_delay),
    # and the bandwidths as an array, for the batch bound terms
    commodities: tuple
    bandwidths: np.ndarray
    # the initial columns, whose `native` holds each commodity's min-delay
    # path: being delay-feasible, it also caps the weight of its pricing
    # searches
    initial: PricedBlocks
    # per commodity, its path on the least-cost tree (`_tree_paths`), () if
    # none is certified, and the surcharge of the clamped duals on it below
    # which it is the commodity's pricing result; the paths' arcs again,
    # flat, with their commodities, for one `bincount` of the surcharges
    tree: tuple
    headroom: np.ndarray
    tree_arcs: np.ndarray
    tree_owner: np.ndarray

    def __post_init__(self):
        arrays = [v for v in vars(self.initial).values() if isinstance(v, np.ndarray)]
        for value in (self.costs, self.bandwidths, self.headroom, self.tree_arcs,
                      self.tree_owner, *arrays):
            value.flags.writeable = False

    def __reduce__(self):
        # through `__init__`, so an unpickled copy's arrays are read-only too
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    @classmethod
    def of(cls, inst: McInstance) -> _Routing:
        return cls.build(inst.num_nodes, [(a.tail, a.head) for a in inst.arcs],
                         np.array([a.cost for a in inst.arcs], dtype=float),
                         np.array([a.delay for a in inst.arcs], dtype=float), inst.commodities)

    @classmethod
    def build(cls, num_nodes: int, pairs, costs: np.ndarray, delays: np.ndarray,
              commodities, potentials: np.ndarray | None = None) -> _Routing:
        """The set-up of the graph on `num_nodes` nodes with (tail, head)
        `pairs`, float arrays of arc `costs` and `delays`, and a sequence of
        `Commodity`.  `potentials`, if given, is `_potentials` of the stacked
        delays and costs, to the distinct targets in order of first
        appearance; the generator has it from setting the budgets."""
        out, heads = _graph_lists(num_nodes, pairs)
        graph = (tuple(map(tuple, out)), tuple(heads))
        targets = list(dict.fromkeys(com.target for com in commodities))
        row = {t: i for i, t in enumerate(targets)}
        if potentials is None:
            potentials = _potentials(num_nodes, pairs, np.stack([delays, costs]), targets)
        dmin = tuple(map(tuple, potentials[0].tolist()))
        delay_list = tuple(delays.tolist())
        num = len(commodities)
        rows, sources, ends = (np.array(column, dtype=np.intp) for column in (
            [row[com.target] for com in commodities], [com.source for com in commodities],
            [com.target for com in commodities]))
        caps = np.array([com.max_delay for com in commodities], dtype=float) + DELAY_TOL
        (fastest, tree), headroom = _tree_paths(pairs, np.stack([delays, costs]), potentials,
                                                rows, sources, ends, caps)
        paths = []
        # a certified min-delay tree path is what the search would return;
        # the rest, ties among them, are searched
        for k, (com, path, room) in enumerate(zip(commodities, fastest, headroom[0].tolist())):
            if room <= 0.0:
                found = _min_delay_path(graph, delay_list, dmin[row[com.target]], com.max_delay,
                                        com.source, com.target)
                if found is None:
                    raise UnroutableCommodityError(
                        f"commodity {k} has no path within delay budget {com.max_delay}")
                path = found[1]
            paths.append(path)
        bandwidths = np.array([com.bandwidth for com in commodities], dtype=float)
        cost_list = tuple(costs.tolist())
        # summed as pricing sums them
        col_costs = np.array([com.bandwidth * sum(map(cost_list.__getitem__, path))
                              for com, path in zip(commodities, paths)], dtype=float)
        return cls(
            graph=graph, costs=costs, cost_list=cost_list, delays=delay_list,
            dmin=dmin, hcost=tuple(map(tuple, potentials[1].tolist())),
            commodities=tuple((com.bandwidth, com.target, row[com.target], com.source,
                               com.max_delay) for com in commodities),
            bandwidths=bandwidths,
            initial=PricedBlocks(np.arange(num, dtype=np.intp), np.zeros(num), col_costs,
                                 *_path_arrays(paths, bandwidths), tuple(paths)),
            tree=tuple(tree), headroom=headroom[1],
            tree_arcs=np.array([a for p in tree for a in p], dtype=np.intp),
            tree_owner=np.repeat(np.arange(num), [len(p) for p in tree]))


class McBlockProblem(BlockProblem):
    """One block per commodity; linking rows are arc capacities.

    Capacity rows are declared directly in >= form (negated loads against
    negated capacities), so a column for a path crossing arc `a` carries
    coefficient -bandwidth on row `a` and the capacity duals come back
    nonnegative.  Reduced cost of a path column:

        bandwidth * sum(arc cost + pi_arc) - mu_k

    The dual-free set-up (graph lists, potentials, tree paths and their
    headroom, min-delay paths, the initial columns' arrays) is the
    instance's, built once however many problems the instance makes; a
    problem keeps only its own state.
    """

    def __init__(self, inst: McInstance):
        self.inst = inst
        # each commodity's path its last pricing call returned: like its
        # min-delay path, delay-feasible, so either weight caps a search
        self._last = list(inst._routing.initial.native)
        # arcs each commodity's columns use, one row per commodity: a single
        # array is far smaller than one array per commodity
        self._support = np.zeros((len(inst.commodities), len(inst.arcs)), dtype=bool)

    @property
    def num_blocks(self) -> int:
        return len(self.inst.commodities)

    def linking_rows(self):
        return [(RowSense.GE, -a.capacity) for a in self.inst.arcs]

    def convexity_sense(self, block: int) -> RowSense:
        return RowSense.GE

    def initial_columns(self):
        """Each commodity's min-delay path, the instance's read-only result."""
        return self.inst._routing.initial

    def price_blocks(self, blocks, pi, mu):
        """Each listed commodity's lightest delay-feasible path at the duals.

        One `bincount` sums every commodity's dual surcharge on its tree
        path; a commodity whose surcharge stays below its headroom is priced
        by that path, which the search would return (see the module
        docstring).  The rest run label setting, their dual-dependent set-up
        shared: the path weights are computed once per distinct bandwidth,
        the cost bounds once per distinct target.  The result is filled
        straight from the paths, each reduced cost summed left to right
        along its path either way.
        """
        blocks = np.asarray(blocks, dtype=np.intp).reshape(-1)
        return self._price(blocks, pi, np.asarray(mu, dtype=float)[blocks])

    def _price(self, blocks, pi, mu_b) -> PricedBlocks:
        r = self.inst._routing
        # capacity duals are >=0 up to LP tolerance; clamp the dust so the
        # path weights stay nonnegative for the label-setting solver.  cbar
        # below uses the raw duals; test_mcflow.py's
        # test_dual_clamp_shifts_no_reduced_cost_past_the_audit_tolerance
        # checks that the clamp moves it by less than the audit tolerance
        surcharge = np.maximum(pi, 0.0)
        clamped = r.costs + surcharge
        # a commodity whose tree path's surcharge stays below its headroom
        # is priced by that path, which is what its search would return
        proven = (np.bincount(r.tree_owner, weights=surcharge[r.tree_arcs],
                              minlength=len(r.commodities))[blocks] < r.headroom[blocks])
        # a list, not an array: the sums index it one element at a time
        raw = (r.costs + pi).tolist()
        out, heads = r.graph
        initial, last = r.initial.native, self._last
        weights: dict[float, list[float]] = {}
        paths, cbars, col_costs, bandwidths = [], [], [], []
        # every sum below runs left to right over the path, as the labels do
        for k, mu_k, tree in zip(blocks.tolist(), mu_b.tolist(), proven.tolist()):
            b, t, row, source, max_delay = r.commodities[k]
            if tree:
                path = last[k] = r.tree[k]
            else:
                if b not in weights:
                    weights[b] = (b * clamped).tolist()
                wb = weights[b]
                weight = wb.__getitem__
                # the lighter incumbent
                best = min(sum(map(weight, initial[k])), sum(map(weight, last[k])))
                # the clamped weights are at least b * cost, so b times the
                # least cost to t bounds every completion; the factor covers
                # rounding in the float sums.  The label loop applies it, so
                # one list per target serves every bandwidth
                found = _label_setting(out, heads, wb, r.hcost[row], _above(best), r.delays,
                                       r.dmin[row], max_delay, source, t, b * (1 - BOUND_SLACK))
                if found is None:
                    raise UnroutableCommodityError(f"commodity {k} lost all feasible paths")
                path = last[k] = found[1]
            paths.append(path)
            cbars.append(b * sum(map(raw.__getitem__, path)) - mu_k)
            col_costs.append(b * sum(map(r.cost_list.__getitem__, path)))
            bandwidths.append(b)
        return PricedBlocks(blocks, np.array(cbars, dtype=float),
                            np.array(col_costs, dtype=float),
                            *_path_arrays(paths, bandwidths), paths)

    def solve_pricing(self, block, pi, mu_k):
        priced = self._price(np.array([block], dtype=np.intp), pi, np.array([float(mu_k)]))
        return float(priced.reduced_costs[0]), priced.column(0)

    # a positive bandwidth factors out of the negative-part sums
    def hypercube_bound_term(self, block, pi_prev, pi_now):
        b = self.inst.commodities[block].bandwidth
        return b * negative_part_sum(pi_now - pi_prev)

    def bound_terms(self, pi_prev, pi_now):
        return self.inst._routing.bandwidths * negative_part_sum(pi_now - pi_prev)

    def heuristic_bound_term(self, block, pi_prev, pi_now, support):
        b = self.inst.commodities[block].bandwidth
        return b * negative_part_sum((pi_now - pi_prev)[support])

    def heuristic_bound_terms(self, pi_prev, pi_now):
        shift = np.minimum(pi_now - pi_prev, 0.0)
        # numpy's own loop, not BLAS, whose sums change order with its thread count
        return self.inst._routing.bandwidths * np.einsum("bi,i->b", self._support, shift)

    def support_set(self, block):
        return self._support[block]

    def register_columns(self, blocks, rows):
        self._support[blocks, rows] = True


# ----------------------------------------------------------------------
# random instances

def generate_mc_instance(num_nodes: int, num_arcs: int, num_commodities: int,
                         seed: int) -> McInstance:
    """Seeded random instance: a directed ring plus random chord arcs.

    Synthetic data, not drawn from any benchmark set.  The ring keeps the
    graph strongly connected; delay budgets are set above each pair's
    minimum achievable delay so every commodity is routable, and capacities
    cover the load of routing everything on minimum-delay paths, so the
    master is feasible without artificial help.  PCG64(seed) drives all
    draws in a fixed order: topology, arc attributes, commodities, budgets,
    capacities.  Chord arcs, commodities and budget factors are drawn in
    blocks that yield the same values, in the same order, as one draw at a
    time.  The min-delay paths come from the instance's pricing set-up,
    which reads no capacity, so it is built once from the generator's own
    arrays, before the capacities, with the least delays that set the
    budgets, and the returned instance keeps it.
    """
    if num_nodes < 2 or num_commodities < 0:
        # one node has no arc or commodity that joins two distinct nodes
        raise ValueError(f"need at least 2 nodes and a nonnegative commodity count, got "
                         f"{num_nodes} nodes and {num_commodities} commodities")
    if num_arcs < num_nodes:
        raise ValueError("need at least num_nodes arcs for the connecting ring")
    rng = np.random.Generator(np.random.PCG64(seed))
    pairs = [(i, (i + 1) % num_nodes) for i in range(num_nodes)]
    # chord arcs `need` at a time: a block of 2 * need ends yields at most
    # `need` arcs, so the stream is read as far as one (tail, head) draw at a
    # time reads it, and no further
    while (need := num_arcs - len(pairs)) > 0:
        ends = rng.integers(num_nodes, size=2 * need).tolist()
        pairs += [(t, h) for t, h in zip(ends[::2], ends[1::2]) if t != h]
    costs = np.round(rng.uniform(1.0, 10.0, size=num_arcs), 3)
    delays = np.round(rng.uniform(1.0, 10.0, size=num_arcs), 3)
    # each commodity's source, target and bandwidth, drawn as blocks with
    # array bounds, which read the stream as one draw at a time does.  One at
    # a time draws a target again while it equals the source, so a block is
    # kept only up to its first such commodity: the stream is set back, the
    # kept draws are taken again, and that commodity is drawn one at a time
    commodities = []
    while (need := num_commodities - len(commodities)) > 0:
        low, high = np.tile([0, 0, 1], need), np.tile([num_nodes, num_nodes, 6], need)
        saved = rng.bit_generator.state
        draws = rng.integers(low, high).reshape(need, 3)
        clash = np.flatnonzero(draws[:, 0] == draws[:, 1])[:1].tolist()
        if clash:
            rng.bit_generator.state = saved
            draws = rng.integers(low[:3 * clash[0]], high[:3 * clash[0]]).reshape(-1, 3)
        commodities += [(s, t, float(b)) for s, t, b in draws.tolist()]
        if clash:
            source = int(rng.integers(num_nodes))
            target = int(rng.integers(num_nodes))
            while target == source:
                target = int(rng.integers(num_nodes))
            commodities.append((source, target, float(rng.integers(1, 6))))
    targets = list(dict.fromkeys(t for _, t, _ in commodities))
    # the set-up's least delays and costs, in one pass; the delays set the
    # budgets, one factor per commodity drawn as one block
    potentials = _potentials(num_nodes, pairs, np.stack([delays, costs]), targets)
    least = dict(zip(targets, potentials[0].tolist()))
    factors = rng.uniform(1.3, 2.2, size=num_commodities).tolist()
    comms = tuple(Commodity(s, t, b, round(least[t][s] * f + 0.5, 3))
                  for (s, t, b), f in zip(commodities, factors))
    routing = _Routing.build(num_nodes, pairs, costs, delays, comms, potentials)
    # each arc's load: the bandwidths (integers, so summed exactly) of the
    # min-delay paths crossing it
    rows, vals = routing.initial.rows, routing.initial.vals
    load = np.bincount(rows, weights=-vals, minlength=num_arcs)
    total_b = sum(b for _, _, b in commodities)
    slack = rng.uniform(*CAPACITY_SLACK, size=num_arcs)
    caps = np.round(load + slack * max(total_b, 1.0) + 1.0, 3)
    arcs = tuple(Arc(t, h, cap, delay, cost) for (t, h), cap, delay, cost
                 in zip(pairs, caps.tolist(), delays.tolist(), costs.tolist()))
    inst = McInstance(num_nodes, arcs, comms)
    inst.__dict__["_routing"] = routing
    return inst
