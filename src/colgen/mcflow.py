"""Splittable multi-commodity flow over delay-constrained paths.

A commodity k ships `bandwidth` units from its source to its target along
simple paths whose total delay stays within the commodity's budget.  The
master minimizes total routing cost subject to arc capacities; one block per
commodity prices new paths with a label-setting shortest-path solver under a
delay resource.

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
from .model import BlockProblem, Column, PricedBlocks

DELAY_TOL = 1e-9
# relative slack of the weight bounds in the label loop.  Rounding moves a
# float sum of n nonnegative terms by at most about n * 1.1e-16 relative,
# far less than this for any path of under a thousand arcs, so the bounds
# never cut a path that ties the optimum.
BOUND_SLACK = 1e-12
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


def _arc_error(a: Arc, num_nodes: int) -> str | None:
    """Why `a` is not a valid arc of a `num_nodes`-node instance, or None."""
    if not (0 <= a.tail < num_nodes and 0 <= a.head < num_nodes):
        return f"arc endpoint out of range: {a}"
    if not all(math.isfinite(x) and x >= 0 for x in (a.capacity, a.delay, a.cost)):
        return f"arc attributes must be finite and nonnegative: {a}"
    return None


def _commodity_error(c: Commodity, num_nodes: int) -> str | None:
    """Why `c` is not a valid commodity of a `num_nodes`-node instance, or None."""
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
    the target.  Bellman-Ford on every target at once: each pass sets
    D[:, tail] = min(D[:, tail], D[:, head] + value) over all arcs, one
    `np.minimum.reduceat` over the arcs grouped by tail, until nothing
    changes.  Every entry is a path's sum taken from the target back to the
    node, the order Dijkstra on reversed arcs takes, and adding a nonnegative
    float never decreases a sum, so the entries equal Dijkstra's bit for bit.
    """
    dist = np.full((len(targets), num_nodes), np.inf)
    dist[np.arange(len(targets)), targets] = 0.0
    tails = np.array([tail for tail, _ in arcs], dtype=np.intp)
    if tails.size == 0:
        return dist
    order = np.argsort(tails, kind="stable")
    tails = tails[order]
    heads = np.array([head for _, head in arcs], dtype=np.intp)[order]
    values = np.asarray(values, dtype=float)[order]
    starts = np.flatnonzero(np.concatenate(([True], tails[1:] != tails[:-1])))
    nodes = tails[starts]
    while True:
        now = dist[:, nodes]
        new = np.minimum(now, np.minimum.reduceat(dist[:, heads] + values, starts, axis=1))
        if np.array_equal(new, now):
            return dist
        dist[:, nodes] = new


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


def path_cost(inst: McInstance, path) -> float:
    return float(sum(inst.arcs[a].cost for a in path))


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
    the label loop indexes one element at a time are tuples.
    """

    graph: tuple            # (out-adjacency, arc heads), as `_graph_lists` gives
    costs: np.ndarray       # arc costs
    cost_list: tuple
    delays: tuple
    # least delay (tuples) and least arc cost (array rows) from each node to
    # each distinct target, one row per target
    dmin: tuple
    hcost: np.ndarray
    # per commodity: (bandwidth, target, target's row, source, max_delay)
    commodities: tuple
    # each commodity's min-delay path: its initial column and, being
    # delay-feasible, a cap on the weight of its pricing searches
    paths: tuple
    bandwidths: np.ndarray
    # (bandwidth, its commodities) pairs, for `bound_terms`; a dict, not
    # np.unique, which would import numpy.ma and its memory
    by_bandwidth: tuple
    # the initial columns' `PricedBlocks` arrays, `column` left out
    initial: tuple

    def __post_init__(self):
        for value in (self.costs, self.hcost, self.bandwidths, *self.initial,
                      *(blocks for _, blocks in self.by_bandwidth)):
            value.flags.writeable = False

    def __reduce__(self):
        # through `__init__`, so an unpickled copy's arrays are read-only too
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    @classmethod
    def of(cls, inst: McInstance) -> _Routing:
        pairs = [(a.tail, a.head) for a in inst.arcs]
        costs = np.array([a.cost for a in inst.arcs], dtype=float)
        delays = np.array([a.delay for a in inst.arcs], dtype=float)
        out, heads = _graph_lists(inst.num_nodes, pairs)
        graph = (tuple(map(tuple, out)), tuple(heads))
        targets = list(dict.fromkeys(com.target for com in inst.commodities))
        row = {t: i for i, t in enumerate(targets)}
        dmin = tuple(map(tuple, _potentials(inst.num_nodes, pairs, delays, targets).tolist()))
        delay_list = tuple(delays.tolist())
        paths = []
        by_bandwidth: dict[float, list[int]] = {}
        for k, com in enumerate(inst.commodities):
            found = _min_delay_path(graph, delay_list, dmin[row[com.target]], com.max_delay,
                                    com.source, com.target)
            if found is None:
                raise UnroutableCommodityError(
                    f"commodity {k} has no path within delay budget {com.max_delay}")
            paths.append(found[1])
            by_bandwidth.setdefault(com.bandwidth, []).append(k)
        bandwidths = np.array([com.bandwidth for com in inst.commodities], dtype=float)
        cost_list = tuple(costs.tolist())
        # summed as `path_column` sums them
        col_costs = np.array([com.bandwidth * sum(map(cost_list.__getitem__, path))
                              for com, path in zip(inst.commodities, paths)], dtype=float)
        num = len(paths)
        return cls(
            graph=graph, costs=costs, cost_list=cost_list, delays=delay_list,
            dmin=dmin, hcost=_potentials(inst.num_nodes, pairs, costs, targets),
            commodities=tuple((com.bandwidth, com.target, row[com.target], com.source,
                               com.max_delay) for com in inst.commodities),
            paths=tuple(paths), bandwidths=bandwidths,
            by_bandwidth=tuple((b, np.array(ks, dtype=np.intp))
                               for b, ks in by_bandwidth.items()),
            initial=(np.arange(num, dtype=np.intp), np.zeros(num), np.ones(num, dtype=bool),
                     col_costs, *_path_arrays(paths, bandwidths)))


class McBlockProblem(BlockProblem):
    """One block per commodity; linking rows are arc capacities.

    Capacity rows are declared directly in >= form (negated loads against
    negated capacities), so a column for a path crossing arc `a` carries
    coefficient -bandwidth on row `a` and the capacity duals come back
    nonnegative.  Reduced cost of a path column:

        bandwidth * sum(arc cost + pi_arc) - mu_k

    The dual-free set-up (graph lists, potentials, min-delay paths, the
    initial columns' arrays) is the instance's, built once however many
    problems the instance makes; a problem keeps only its own state.
    """

    def __init__(self, inst: McInstance):
        self.inst = inst
        # each commodity's path its last pricing call returned: like its
        # min-delay path, delay-feasible, so either weight caps a search
        self._last = list(inst._routing.paths)
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

    def path_column(self, block: int, path) -> Column:
        com = self.inst.commodities[block]
        b = com.bandwidth
        cost = b * path_cost(self.inst, path)
        coeffs = tuple((a, -b) for a in sorted(path))
        return Column(block=block, cost=cost, coeffs=coeffs, native=tuple(path))

    def initial_columns(self):
        """Each commodity's min-delay path, from the instance's arrays."""
        routing = self.inst._routing
        return PricedBlocks(*routing.initial,
                            lambda i: self.path_column(i, routing.paths[i]))

    def price_blocks(self, blocks, pi, mu):
        """Label setting for each listed commodity, its dual-dependent set-up shared.

        The path weights are computed once per distinct bandwidth, the cost
        bounds once per distinct target, and the result is filled straight
        from the paths.
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
        clamped = r.costs + np.maximum(pi, 0.0)
        # a list, not an array: the sums index it one element at a time
        raw = (r.costs + pi).tolist()
        out, heads = r.graph
        initial, last = r.paths, self._last
        weights: dict[float, list[float]] = {}
        lower: dict[int, list[float]] = {}
        paths, cbars, col_costs, bandwidths = [], [], [], []
        # every sum below runs left to right over the path, as the labels do
        for k, mu_k in zip(blocks.tolist(), mu_b.tolist()):
            b, t, row, source, max_delay = r.commodities[k]
            if b not in weights:
                weights[b] = (b * clamped).tolist()
            if row not in lower:
                lower[row] = r.hcost[row].tolist()
            wb = weights[b]
            weight = wb.__getitem__
            # the lighter incumbent
            best = min(sum(map(weight, initial[k])), sum(map(weight, last[k])))
            # the clamped weights are at least b * cost, so b times the least
            # cost to t bounds every completion; the factor covers rounding in
            # the float sums.  The label loop applies it, so one list per
            # target serves every bandwidth
            found = _label_setting(out, heads, wb, lower[row], _above(best), r.delays,
                                   r.dmin[row], max_delay, source, t, b * (1 - BOUND_SLACK))
            if found is None:
                raise UnroutableCommodityError(f"commodity {k} lost all feasible paths")
            path = last[k] = found[1]
            paths.append(path)
            cbars.append(b * sum(map(raw.__getitem__, path)) - mu_k)
            col_costs.append(b * sum(map(r.cost_list.__getitem__, path)))
            bandwidths.append(b)
        return PricedBlocks(blocks, np.array(cbars, dtype=float),
                            np.ones(len(paths), dtype=bool), np.array(col_costs, dtype=float),
                            *_path_arrays(paths, bandwidths),
                            lambda i: self.path_column(int(blocks[i]), paths[i]))

    def solve_pricing(self, block, pi, mu_k):
        priced = self._price(np.array([block], dtype=np.intp), pi, np.array([float(mu_k)]))
        return float(priced.reduced_costs[0]), priced.column(0)

    def hypercube_bound_term(self, block, pi_prev, pi_now):
        b = self.inst.commodities[block].bandwidth
        return negative_part_sum(b * (pi_now - pi_prev))

    def bound_terms(self, pi_prev, pi_now):
        # the term depends on the commodity through its bandwidth only
        shift = pi_now - pi_prev
        out = np.empty(self.num_blocks)
        for b, blocks in self.inst._routing.by_bandwidth:
            out[blocks] = negative_part_sum(b * shift)
        return out

    def heuristic_bound_term(self, block, pi_prev, pi_now, support):
        b = self.inst.commodities[block].bandwidth
        return negative_part_sum((b * (pi_now - pi_prev))[support])

    def heuristic_bound_terms(self, pi_prev, pi_now):
        shift = np.minimum(pi_now - pi_prev, 0.0)
        return self.inst._routing.bandwidths * (self._support @ shift)

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
    capacities.  The min-delay paths come from the instance's pricing
    set-up, which reads no capacity, so it is built once, before the
    capacities, and the returned instance keeps it.
    """
    if num_nodes < 2 or num_commodities < 0:
        # one node has no arc or commodity that joins two distinct nodes
        raise ValueError(f"need at least 2 nodes and a nonnegative commodity count, got "
                         f"{num_nodes} nodes and {num_commodities} commodities")
    if num_arcs < num_nodes:
        raise ValueError("need at least num_nodes arcs for the connecting ring")
    rng = np.random.Generator(np.random.PCG64(seed))
    pairs = [(i, (i + 1) % num_nodes) for i in range(num_nodes)]
    while len(pairs) < num_arcs:
        tail = int(rng.integers(num_nodes))
        head = int(rng.integers(num_nodes))
        if tail != head:
            pairs.append((tail, head))
    costs = np.round(rng.uniform(1.0, 10.0, size=num_arcs), 3)
    delays = np.round(rng.uniform(1.0, 10.0, size=num_arcs), 3)
    commodities = []
    for _ in range(num_commodities):
        source = int(rng.integers(num_nodes))
        target = int(rng.integers(num_nodes))
        while target == source:
            target = int(rng.integers(num_nodes))
        bandwidth = float(rng.integers(1, 6))
        commodities.append((source, target, bandwidth))
    targets = list(dict.fromkeys(t for _, t, _ in commodities))
    dmin = dict(zip(targets, _potentials(num_nodes, pairs, delays, targets).tolist()))
    budgets = [round(dmin[target][source] * float(rng.uniform(1.3, 2.2)) + 0.5, 3)
               for source, target, _ in commodities]
    comms = tuple(Commodity(s, t, b, d) for (s, t, b), d in zip(commodities, budgets))
    routing = _Routing.of(McInstance(num_nodes, tuple(
        Arc(t, h, 0.0, float(delays[i]), float(costs[i])) for i, (t, h) in enumerate(pairs)),
        comms))
    # each arc's load: the bandwidths (integers, so summed exactly) of the
    # min-delay paths crossing it
    rows, vals = routing.initial[-2:]
    load = np.bincount(rows, weights=-vals, minlength=num_arcs)
    total_b = sum(b for _, _, b in commodities)
    slack = rng.uniform(*CAPACITY_SLACK, size=num_arcs)
    caps = np.round(load + slack * max(total_b, 1.0) + 1.0, 3)
    arcs = tuple(Arc(t, h, float(caps[i]), float(delays[i]), float(costs[i]))
                 for i, (t, h) in enumerate(pairs))
    inst = McInstance(num_nodes, arcs, comms)
    inst.__dict__["_routing"] = routing
    return inst
