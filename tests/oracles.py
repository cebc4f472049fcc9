"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written against different primitives than
the code under test: scipy's LP solver, networkx shortest paths, exhaustive
enumeration, a screening filter that walks one block's records at a time,
and heapq Dijkstra and label setting with no weight bound for the `mc`
searches.  Slow is fine; these only run at unit-test scale.
"""

from __future__ import annotations

import heapq
import itertools
from typing import NamedTuple

import networkx as nx
import numpy as np
import scipy.optimize

from colgen import Column, FilterMode, LpStatus, PricedBlocks, RowSense, Strategy


# ----------------------------------------------------------------------
# small-LP oracles

def vertex_enumeration_min(costs, rows, coeffs):
    """Optimum of min c@x s.t. rows, x >= 0 by trying every active set.

    `rows` is [(sense, rhs)], `coeffs` the dense row-major matrix.  Returns
    the best vertex objective, or None when no feasible vertex exists.  Only
    meant for a handful of variables.
    """
    costs = np.asarray(costs, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    n = len(costs)
    # constraint pool: every row as equality candidate, plus x_j = 0
    pool = [(np.asarray(coeffs[i]), float(rhs)) for i, (_, rhs) in enumerate(rows)]
    pool += [(np.eye(n)[j], 0.0) for j in range(n)]
    best = None
    for active in itertools.combinations(range(len(pool)), n):
        a = np.array([pool[i][0] for i in active])
        b = np.array([pool[i][1] for i in active])
        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        if np.any(x < -1e-9):
            continue
        ok = True
        for (sense, rhs), row in zip(rows, coeffs):
            lhs = float(row @ x)
            if sense is RowSense.GE and lhs < rhs - 1e-7:
                ok = False
            elif sense is RowSense.LE and lhs > rhs + 1e-7:
                ok = False
            elif sense is RowSense.EQ and abs(lhs - rhs) > 1e-7:
                ok = False
            if not ok:
                break
        if not ok:
            continue
        obj = float(costs @ x)
        if best is None or obj < best:
            best = obj
    return best


def linprog_min(costs, rows, coeffs):
    """Same LP through scipy (HiGHS).  Returns (status, objective)."""
    costs = np.asarray(costs, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for (sense, rhs), row in zip(rows, coeffs):
        if sense is RowSense.GE:
            a_ub.append(-row)
            b_ub.append(-rhs)
        elif sense is RowSense.LE:
            a_ub.append(row)
            b_ub.append(rhs)
        else:
            a_eq.append(row)
            b_eq.append(rhs)
    res = scipy.optimize.linprog(
        costs,
        A_ub=np.array(a_ub) if a_ub else None, b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None, b_eq=np.array(b_eq) if b_eq else None,
        bounds=[(0, None)] * len(costs), method="highs")
    if res.status == 0:
        return "optimal", float(res.fun)
    if res.status == 2:
        return "infeasible", None
    if res.status == 3:
        return "unbounded", None
    raise RuntimeError(f"linprog gave status {res.status}: {res.message}")


def optimality_report(costs, rows, coeffs, sol):
    """Certificate residuals of an OPTIMAL LpSolution of min costs@x s.t. rows.

    `rows` is [(sense, rhs)] and `coeffs` the dense row-major matrix, the
    LP's own inputs.  Returns the primal and dual objectives and the worst
    row violation, dual-sign violation, reduced-cost violation (a negative
    `c - A'y`) and complementary-slackness residual; all residuals are
    nonnegative and vanish at an exact optimum.
    """
    if sol.status is not LpStatus.OPTIMAL:
        raise ValueError("optimality_report needs an optimal solution")
    coeffs = np.asarray(coeffs, dtype=float).reshape(len(rows), len(costs))
    rhs = np.array([r for _, r in rows], dtype=float)
    ge = np.array([s is RowSense.GE for s, _ in rows], dtype=bool)
    le = np.array([s is RowSense.LE for s, _ in rows], dtype=bool)
    slack = coeffs @ sol.x - rhs
    y = sol.duals
    dual_obj = float(y @ rhs)
    row_violation = np.concatenate([-slack[ge], slack[le], np.abs(slack[~(ge | le)])])
    return {
        "primal_objective": sol.objective,
        "dual_objective": dual_obj,
        "duality_gap": abs(sol.objective - dual_obj),
        "row_violation": float(row_violation.max(initial=0.0)),
        "dual_sign_violation": float(np.concatenate([-y[ge], y[le]]).max(initial=0.0)),
        "reduced_cost_violation": float((coeffs.T @ y - np.asarray(costs, dtype=float))
                                        .max(initial=0.0)),
        "complementary_slackness": float(np.abs(y * slack).max(initial=0.0)),
    }


# ----------------------------------------------------------------------
# graph oracles

def enumerate_simple_paths(num_nodes, arcs, source, target, max_delay=np.inf):
    """All delay-feasible simple paths as arc-index tuples, by DFS.

    Works at the arc level so parallel arcs are distinct paths.
    """
    out = [[] for _ in range(num_nodes)]
    for idx, arc in enumerate(arcs):
        out[arc.tail].append(idx)
    found = []

    def walk(v, visited, seq, delay):
        if v == target:
            found.append(tuple(seq))
            return
        for idx in out[v]:
            arc = arcs[idx]
            if arc.head in visited:
                continue
            if delay + arc.delay > max_delay + 1e-12:
                continue
            visited.add(arc.head)
            seq.append(idx)
            walk(arc.head, visited, seq, delay + arc.delay)
            seq.pop()
            visited.remove(arc.head)

    walk(source, {source}, [], 0.0)
    return found


def best_path_by_enumeration(num_nodes, arcs, weights, source, target, max_delay):
    """Minimum total weight over delay-feasible simple paths, or None."""
    paths = enumerate_simple_paths(num_nodes, arcs, source, target, max_delay)
    if not paths:
        return None
    return min(sum(weights[i] for i in p) for p in paths)


def networkx_shortest(num_nodes, arcs, weights, source, target):
    """Plain shortest-path weight via networkx, None if unreachable."""
    g = nx.MultiDiGraph()
    g.add_nodes_from(range(num_nodes))
    for idx, arc in enumerate(arcs):
        g.add_edge(arc.tail, arc.head, weight=float(weights[idx]))
    try:
        return nx.shortest_path_length(g, source, target, weight="weight")
    except nx.NetworkXNoPath:
        return None


def min_to_target(num_nodes, arcs, values, target):
    """Heapq Dijkstra on reversed (tail, head) pairs: least total `values`
    from each node to `target`, inf where the target is out of reach."""
    into = [[] for _ in range(num_nodes)]
    for idx, (tail, head) in enumerate(arcs):
        into[head].append(idx)
    dist = np.full(num_nodes, np.inf)
    dist[target] = 0.0
    heap = [(0.0, target)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for idx in into[v]:
            tail = arcs[idx][0]
            nd = d + values[idx]
            if nd < dist[tail]:
                dist[tail] = nd
                heapq.heappush(heap, (nd, tail))
    return dist


def label_setting_unbounded(out, heads, weights, delays, dmin, max_delay, source, target):
    """Resource-constrained label setting with no weight bound.

    Same inputs as `colgen.mcflow._label_setting` minus `lower` and `limit`;
    a label dies only on its delay.  Returns (weight, arc tuple) of the
    lightest delay-feasible path, the lexicographically smallest arc sequence
    among equal weights, or None.
    """
    if dmin[source] > max_delay + 1e-9:
        return None
    retained = [[] for _ in out]
    retained[source].append((0.0, 0.0, ()))
    heap = [(0.0, (), 0.0, source)]
    while heap:
        w, seq, dl, v = heapq.heappop(heap)
        if v == target:
            return (w, seq)
        for idx in out[v]:
            head = heads[idx]
            nw = w + weights[idx]
            ndl = dl + delays[idx]
            if ndl + dmin[head] > max_delay + 1e-9:
                continue
            nseq = seq + (idx,)
            if any(ow <= nw and odl <= ndl and oseq <= nseq
                   for ow, odl, oseq in retained[head]):
                continue
            retained[head].append((nw, ndl, nseq))
            heapq.heappush(heap, (nw, nseq, ndl, head))
    return None


# ----------------------------------------------------------------------
# knapsack / hypercube oracles

def knapsack_brute(values, weights, capacity):
    """Minimum subset value under the weight cap, by trying all subsets."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=np.int64)
    m = len(values)
    best = 0.0
    for mask in range(1 << m):
        total_w = 0
        total_v = 0.0
        for i in range(m):
            if mask >> i & 1:
                total_w += int(weights[i])
                total_v += float(values[i])
        if total_w <= capacity and total_v < best:
            best = total_v
    return best


def knapsack_brute_items(values, weights, capacity):
    """Subset minimizing (value, item count, index tuple) under the weight cap.

    This is `knapsack_min`'s tie-break; use values whose sums are exact
    (integers, say) so that equal values compare equal.
    """
    m = len(values)
    best = (0.0, 0, ())
    for mask in range(1 << m):
        items = tuple(i for i in range(m) if mask >> i & 1)
        if sum(int(weights[i]) for i in items) <= capacity:
            best = min(best, (sum(float(values[i]) for i in items), len(items), items))
    return best[0], best[2]


def knapsack_dp_reference(values, weights, capacities):
    """`knapsack_min_batch` as it was before it priced candidate items only.

    One suffix DP over every item of every bin on a grid padded to the
    largest capacity; kept verbatim as the fuzz reference for its `best`.
    Its picks may include a nonnegative item where a rounded sum ties, e.g.
    ``-64 + -1e-15 == -64``.
    """
    values = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=np.int64)
    caps = np.asarray(capacities, dtype=np.int64)
    bins, m = values.shape
    grid = np.arange(int(caps.max(initial=0)) + 1)
    row_start = np.arange(bins)[:, None] * len(grid)
    val = np.zeros((bins, len(grid)))
    cnt = np.zeros((bins, len(grid)), dtype=np.int64)
    choose = np.zeros((m, bins, len(grid)), dtype=bool)
    for i in range(m - 1, -1, -1):
        rest = grid - w[:, i, None]
        fits = rest >= 0
        src = row_start + np.maximum(rest, 0)
        take_v = np.where(fits, values[:, i, None] + val.take(src), np.inf)
        take_c = 1 + cnt.take(src)
        ch = choose[i]
        np.logical_or(take_v < val, (take_v == val) & (take_c <= cnt), out=ch)
        val = np.where(ch, take_v, val)
        cnt = np.where(ch, take_c, cnt)
    rows = np.arange(bins)
    best = val[rows, caps]
    take = np.zeros((bins, m), dtype=bool)
    c = caps.copy()
    for i in range(m):
        take[:, i] = choose[i, rows, c]
        c -= np.where(take[:, i], w[:, i], 0)
    return best, take


def hypercube_brute(d):
    """min over x in {0,1}^n of d @ x, checked exhaustively."""
    d = np.asarray(d, dtype=float)
    n = len(d)
    best = np.inf
    for mask in range(1 << n):
        x = np.array([(mask >> i) & 1 for i in range(n)], dtype=float)
        best = min(best, float(d @ x))
    return best


# ----------------------------------------------------------------------
# full-master oracles (every column enumerated, solved by scipy)

def mc_full_master_objective(inst):
    """LP value of the path formulation with every delay-feasible path."""
    num_arcs = len(inst.arcs)
    cols, costs = [], []
    convexity = []
    for k, com in enumerate(inst.commodities):
        paths = enumerate_simple_paths(inst.num_nodes, inst.arcs, com.source,
                                       com.target, com.max_delay)
        if not paths:
            raise ValueError(f"commodity {k} is unroutable")
        for p in paths:
            col = np.zeros(num_arcs)
            for idx in p:
                col[idx] = com.bandwidth
            cols.append(col)
            costs.append(com.bandwidth * sum(inst.arcs[i].cost for i in p))
            convexity.append(k)
    a = np.array(cols).T  # capacity rows x columns
    n = len(cols)
    k_count = len(inst.commodities)
    conv = np.zeros((k_count, n))
    for j, k in enumerate(convexity):
        conv[k, j] = 1.0
    caps = np.array([arc.capacity for arc in inst.arcs])
    res = scipy.optimize.linprog(
        np.array(costs),
        A_ub=np.vstack([a, -conv]),
        b_ub=np.concatenate([caps, -np.ones(k_count)]),
        bounds=[(0, None)] * n, method="highs")
    if res.status != 0:
        raise RuntimeError(f"full MC master not optimal: {res.message}")
    return float(res.fun)


def ga_full_master_objective(inst):
    """LP value of the assignment formulation with every feasible subset."""
    m, bins = inst.num_items, inst.num_bins
    cols, costs, owner = [], [], []
    for k in range(bins):
        cap = int(inst.capacities[k])
        for mask in range(1 << m):
            items = [i for i in range(m) if mask >> i & 1]
            if sum(int(inst.weights[k, i]) for i in items) > cap:
                continue
            col = np.zeros(m)
            col[items] = 1.0
            cols.append(col)
            costs.append(float(sum(int(inst.costs[k, i]) for i in items)))
            owner.append(k)
    a = np.array(cols).T
    n = len(cols)
    conv = np.zeros((bins, n))
    for j, k in enumerate(owner):
        conv[k, j] = 1.0
    res = scipy.optimize.linprog(
        np.array(costs),
        A_ub=np.vstack([-a, conv]),
        b_ub=np.concatenate([-np.ones(m), np.ones(bins)]),
        bounds=[(0, None)] * n, method="highs")
    if res.status != 0:
        raise RuntimeError(f"full GA master not optimal: {res.message}")
    return float(res.fun)


def restricted_master_objective(problem, columns):
    """LP value of the master over `columns` only, with no fallback columns."""
    linking = problem.linking_rows()
    n_link, n_blocks = len(linking), problem.num_blocks
    a = np.zeros((n_link + n_blocks, len(columns)))
    for j, col in enumerate(columns):
        for row, val in col.coeffs:
            a[row, j] += val
        a[n_link + col.block, j] = 1.0
    senses = [s for s, _ in linking] + [problem.convexity_sense(k) for k in range(n_blocks)]
    if RowSense.EQ in senses:
        raise ValueError("restricted_master_objective handles >= and <= rows only")
    sign = np.array([-1.0 if s is RowSense.GE else 1.0 for s in senses])
    rhs = np.array([r for _, r in linking] + [1.0] * n_blocks)
    res = scipy.optimize.linprog(
        np.array([col.cost for col in columns]), A_ub=sign[:, None] * a, b_ub=sign * rhs,
        bounds=[(0, None)] * len(columns), method="highs")
    if res.status != 0:
        raise RuntimeError(f"restricted master not optimal: {res.message}")
    return float(res.fun)


# ----------------------------------------------------------------------
# random LP instances, feasible and bounded by construction

def random_small_lp(rng, max_vars=6, max_rows=6):
    """(costs, rows, coeffs): nonnegative costs keep min bounded; the rhs is
    anchored on a random nonnegative point so the LP is always feasible."""
    n = int(rng.integers(1, max_vars + 1))
    r = int(rng.integers(1, max_rows + 1))
    costs = np.round(rng.uniform(0.0, 5.0, size=n), 3)
    coeffs = np.round(rng.uniform(-3.0, 3.0, size=(r, n)), 3)
    anchor = np.round(rng.uniform(0.0, 4.0, size=n), 3)
    senses = rng.integers(0, 3, size=r)
    rows = []
    for i in range(r):
        lhs = float(coeffs[i] @ anchor)
        slack = float(rng.uniform(0.0, 2.0))
        if senses[i] == 0:
            rows.append((RowSense.GE, lhs - slack))
        elif senses[i] == 1:
            rows.append((RowSense.LE, lhs + slack))
        else:
            rows.append((RowSense.EQ, lhs))
    return costs, rows, coeffs


# ----------------------------------------------------------------------
# primal feasibility of a finished run, on the original constraints

def check_mc_primal(inst, result, tol=1e-6):
    """Capacity and coverage residuals of the returned column mix."""
    load = np.zeros(len(inst.arcs))
    cover = np.zeros(len(inst.commodities))
    for col, value in zip(result.columns, result.column_values):
        if value <= 0:
            continue
        com = inst.commodities[col.block]
        for arc_idx in col.native:
            load[arc_idx] += com.bandwidth * value
        cover[col.block] += value
    caps = np.array([a.capacity for a in inst.arcs])
    assert result.artificial_value <= tol, f"artificials still active: {result.artificial_value}"
    assert np.all(load <= caps + tol), f"capacity violated by {np.max(load - caps)}"
    assert np.all(cover >= 1 - 1e-9), f"coverage short by {np.min(cover) - 1}"


def check_ga_primal(inst, result, tol=1e-6):
    cover = np.zeros(inst.num_items)
    use = np.zeros(inst.num_bins)
    for col, value in zip(result.columns, result.column_values):
        if value <= 0:
            continue
        for item in col.native:
            cover[item] += value
        use[col.block] += value
    assert result.artificial_value <= tol, f"artificials still active: {result.artificial_value}"
    assert np.all(cover >= 1 - 1e-9), f"coverage short by {np.min(cover) - 1}"
    assert np.all(use <= 1 + 1e-9), f"bin overuse by {np.max(use) - 1}"


# ----------------------------------------------------------------------
# columns and paths built by hand

def assignment_column(inst, block, items):
    """The `ga` column of bin `block` taking `items`, its cost summed in float."""
    items = tuple(sorted(int(i) for i in items))
    cost = float(inst.costs[block, list(items)].sum(dtype=float))
    return Column(block=block, cost=cost, coeffs=tuple((i, 1.0) for i in items), native=items)


def path_delay(inst, path):
    """Total delay of an `mc` path, given as arc indices."""
    return float(sum(inst.arcs[a].delay for a in path))


def path_cost(inst, path):
    """Total arc cost of an `mc` path, given as arc indices, summed along it."""
    return float(sum(inst.arcs[a].cost for a in path))


def path_column(inst, block, path):
    """The `mc` column of commodity `block` routed along `path`."""
    b = inst.commodities[block].bandwidth
    return Column(block=block, cost=b * path_cost(inst, path),
                  coeffs=tuple((a, -b) for a in sorted(path)), native=tuple(path))


# ----------------------------------------------------------------------
# support sets

def register_one_by_one(problem, columns):
    """`problem.register_columns`, called with one column per batch."""
    for col in columns:
        rows = np.array([row for row, _ in col.coeffs], dtype=np.int64)
        problem.register_columns(np.full(len(rows), col.block, dtype=np.intp), rows)


def check_batch_registration(make_problem, make_column, num_blocks, num_rows, rng):
    """A `register_columns` batch leaves each block's support the union of
    its columns' rows: the same as registering the columns one by one, and
    as a union built here from the columns' coefficients."""
    batched, looped = make_problem(), make_problem()
    want = np.zeros((num_blocks, num_rows), dtype=bool)
    for _ in range(4):
        batch = [make_column(int(rng.integers(num_blocks)),
                             rng.choice(num_rows, size=int(rng.integers(0, 4)), replace=False))
                 for _ in range(6)]
        blocks = np.array([col.block for col in batch for _ in col.coeffs], dtype=np.intp)
        rows = np.array([row for col in batch for row, _ in col.coeffs], dtype=np.int64)
        batched.register_columns(blocks, rows)
        register_one_by_one(looped, batch)
        for col in batch:
            want[col.block, [row for row, _ in col.coeffs]] = True
        for k in range(num_blocks):
            assert batched.support_set(k).tolist() == want[k].tolist()
            assert looped.support_set(k).tolist() == want[k].tolist()


# ----------------------------------------------------------------------
# the batch contract as loops over per-block methods
#
# Each takes the problem first, so a test double can install it as a method
# (`price_blocks = oracles.price_blocks_by_loop`) over its own per-block
# `solve_pricing`, `hypercube_bound_term`, `heuristic_bound_term` and
# `support_set`.

def price_blocks_by_loop(problem, blocks, pi, mu):
    """`price_blocks` from one `problem.solve_pricing(k, pi, mu[k])` per listed block."""
    blocks = list(blocks)
    return PricedBlocks.from_columns(
        blocks, [problem.solve_pricing(k, pi, float(mu[k])) for k in blocks])


def bound_terms_by_loop(problem, pi_prev, pi_now):
    """`bound_terms` from `problem.hypercube_bound_term` of each block."""
    return np.array([problem.hypercube_bound_term(k, pi_prev, pi_now)
                     for k in range(problem.num_blocks)], dtype=float)


def heuristic_bound_terms_by_loop(problem, pi_prev, pi_now):
    """`heuristic_bound_terms` from `problem.heuristic_bound_term` of each
    block on its `problem.support_set`."""
    return np.array([problem.heuristic_bound_term(k, pi_prev, pi_now, problem.support_set(k))
                     for k in range(problem.num_blocks)], dtype=float)


# ----------------------------------------------------------------------
# screening: the per-block filter, one block and one record at a time

class PricingRecord(NamedTuple):
    """Outcome of one exact pricing solve of one block, with the duals it
    was priced at."""

    iteration: int
    reduced_cost: float
    convexity_dual: float
    linking_duals: np.ndarray


def evicted(iteration, t_now, retain):
    """Whether screening at iteration `t_now` has lost the duals of
    `iteration`: only the newest `retain` dual vectors are kept, the current
    one included."""
    return retain is not None and iteration <= t_now - retain


class FilterDecision(NamedTuple):
    """`should_filter`'s verdict on one block."""

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


def select_records(strategy, history, epsilon):
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


def bound_term_lookup(problem, mode, pi_now):
    """`term(block, iteration, pi_prev)` at the duals `pi_now`, or None in
    baseline mode; one `bound_terms` or `heuristic_bound_terms` row per
    record iteration, made on first use."""
    if mode is FilterMode.EXACT:
        terms = problem.bound_terms
    elif mode is FilterMode.HEURISTIC:
        terms = problem.heuristic_bound_terms
    else:
        return None
    rows = {}

    def term(block, iteration, pi_prev):
        row = rows.get(iteration)
        if row is None:
            row = rows[iteration] = terms(pi_prev, pi_now).tolist()
        return row[block]
    return term


def should_filter(block, history, t_now, retain, mu_now, term, mode, strategy, epsilon):
    """Screening bounds of one block at iteration `t_now`, whose records are
    `history` (oldest first): newest first, stopping at the first bound >=
    -epsilon, passing over (and counting) records whose duals were evicted
    under `retain`."""
    if mode is FilterMode.BASELINE:
        return FilterDecision(block, False, None, None, 0, 0, ())
    bounds = []
    n_evicted = 0
    best = used = None
    skip = False
    for rec in select_records(strategy, history, epsilon):
        if evicted(rec.iteration, t_now, retain):
            n_evicted += 1
            continue
        lb = (rec.reduced_cost + (rec.convexity_dual - mu_now)
              + term(block, rec.iteration, rec.linking_duals))
        bounds.append((rec.iteration, lb))
        if best is None or lb > best:
            best = lb
            used = rec.iteration
        if lb >= -epsilon:
            skip = True
            used = rec.iteration
            break
    return FilterDecision(block, skip, best, used, len(bounds), n_evicted, tuple(bounds))
