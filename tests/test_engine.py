import dataclasses
import gc
import pickle
import re
import weakref

import numpy as np
import pytest

from colgen import (DwdConfig, EngineError, ExperimentConfig, FilterMode, GaBlockProblem,
                    LpModel, LpNumericalError, LpSolution, LpStatus, McBlockProblem,
                    PricingHistory, RowSense, STRATEGIES, Strategy, generate_ga_instance,
                    generate_mc_instance, parse_ga_instance, parse_mc_instance, reduced_cost,
                    run_dwd, run_experiment)
from colgen import engine, experiments
from colgen.model import BlockProblem, Column, PricedBlocks

import oracles


def ga_problem(bins=5, items=6, seed=0):
    return GaBlockProblem(generate_ga_instance(bins, items, seed))


def mc_problem(nodes=7, arcs=16, commodities=4, seed=0):
    return McBlockProblem(generate_mc_instance(nodes, arcs, commodities, seed))


def config(mode=FilterMode.BASELINE, strategy=Strategy.ALL, **kw):
    return DwdConfig(mode=mode, strategy=strategy, **kw)


# ----------------------------------------------------------------------
# pricing history

def record_iterations(hist, *iterations):
    for t in iterations:
        hist.record(t, np.array([0]), np.array([-1.0]), np.zeros(1), np.full(2, float(t)))


def test_history_read_window_counts_the_current_vector():
    # screening at iteration 4 reads the rows of iterations 4 - retain + 1 on
    for retain, first in ((1, 4), (2, 3), (3, 2), (4, 1), (9, 1), (None, 1)):
        hist = PricingHistory(1, 2, retain)
        record_iterations(hist, 1, 2, 3)
        assert hist.first_readable == first
        # every row stays stored whatever the window
        assert hist.linking_duals.tolist() == [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]
    assert PricingHistory(1, 2, retain=1).first_readable == 1  # nothing recorded yet


def test_history_records_in_increasing_order():
    hist = PricingHistory(1, 2)
    record_iterations(hist, 1, 3)
    for t in (3, 2):
        with pytest.raises(ValueError, match="increasing"):
            record_iterations(hist, t)
    assert hist.iterations == 3
    assert hist.linking_duals.tolist() == [[1.0, 1.0], [0.0, 0.0], [3.0, 3.0]]


def test_history_copies_duals_and_rejects_empty_window():
    hist = PricingHistory(2, 2)
    pi, mu = np.zeros(2), np.zeros(2)
    hist.record(1, np.array([0, 1]), np.array([-1.0, 2.0]), mu, pi)
    pi[0] = mu[0] = 99.0  # caller mutation must not leak in
    assert hist.linking_duals.tolist() == [[0.0, 0.0]]
    assert hist.convexity_duals.tolist() == [[0.0, 0.0]]
    with pytest.raises(ValueError):
        PricingHistory(2, 2, retain=0)


# ----------------------------------------------------------------------
# reduced cost helper

def test_reduced_cost_zero_duals_is_cost():
    col = Column(0, 7.5, ((0, 2.0), (3, -1.0)))
    assert reduced_cost(col, np.zeros(4), 0.0) == 7.5


def test_reduced_cost_arithmetic():
    col = Column(0, 10.0, ((0, 2.0),))
    # 10 - 3*2 - 1*4 = 0
    assert reduced_cost(col, np.array([3.0]), 4.0) == pytest.approx(0.0)
    # a <= convexity row's dual is nonpositive: 10 - 6 - (-4) = 8
    assert reduced_cost(col, np.array([3.0]), -4.0) == pytest.approx(8.0)


# ----------------------------------------------------------------------
# whole runs

def test_single_bin_single_item():
    from colgen import GaInstance
    inst = GaInstance(1, 1, [[5]], [[3]], [10])
    result = run_dwd(GaBlockProblem(inst), config())
    assert result.objective == pytest.approx(5.0)
    assert result.termination == "optimal"
    assert result.stats.iterations <= 2


def test_tiny_mc_against_hand_enumeration():
    text = """
    nodes 3
    arc 0 1 10 1 2
    arc 1 2 10 1 2
    arc 0 2 10 5 1
    commodity 0 2 2 3
    """
    inst = parse_mc_instance(text)
    result = run_dwd(McBlockProblem(inst), config())
    # budget 3 rules out the direct arc (delay 5): route 0-1-2, cost 2*(2+2)
    assert result.objective == pytest.approx(8.0)
    oracles.check_mc_primal(inst, result)


def test_initial_columns_already_optimal():
    # min-delay and min-cost coincide on a single-arc instance
    inst = parse_mc_instance("nodes 2\narc 0 1 10 1 4\ncommodity 0 1 2 5\n")
    result = run_dwd(McBlockProblem(inst), config())
    assert result.stats.iterations == 1
    assert result.termination == "optimal"
    assert result.objective == pytest.approx(8.0)


class BudgetedCover(BlockProblem):
    """Two items to cover (>= 1 rows) under a <= weight budget, two blocks.

    Each block's columns are all subsets of the items, enumerated up front;
    block 0 covers cheaply but heavily, block 1 dearly but lightly, so the
    budget row binds and carries a nonzero dual.  It implements the batch
    contract alone, with no per-block methods.
    """

    COSTS = ((1.0, 1.0), (4.0, 5.0))
    WEIGHTS = ((3.0, 3.0), (1.0, 1.0))
    BUDGET = 3.0

    def __init__(self, convexity):
        self.convexity = convexity
        self.columns = [[self.column(k, items) for items in ((), (0,), (1,), (0, 1))]
                        for k in range(2)]

    def column(self, k, items):
        weight = sum(self.WEIGHTS[k][i] for i in items)
        coeffs = tuple((i, 1.0) for i in items) + (((2, weight),) if weight else ())
        return Column(k, sum(self.COSTS[k][i] for i in items), coeffs, items)

    @property
    def num_blocks(self):
        return 2

    def linking_rows(self):
        return [(RowSense.GE, 1.0), (RowSense.GE, 1.0), (RowSense.LE, self.BUDGET)]

    def convexity_sense(self, block):
        return self.convexity

    def initial_columns(self):
        return PricedBlocks.from_columns([0, 1], [(0.0, cols[0]) for cols in self.columns])

    def price_blocks(self, blocks, pi, mu):
        return PricedBlocks.from_columns(blocks, [
            min(((c.cost - sum(pi[r] * v for r, v in c.coeffs) - float(mu[k]), c)
                 for c in self.columns[k]), key=lambda p: p[0])
            for k in blocks])

    def bound_terms(self, pi_prev, pi_now):
        # the exact minimum over each block's columns (the empty one gives 0)
        return np.array([min(sum((pi_prev[r] - pi_now[r]) * v for r, v in c.coeffs)
                             for c in cols) for cols in self.columns])

    def heuristic_bound_terms(self, pi_prev, pi_now):
        return self.bound_terms(pi_prev, pi_now)

    def full_master_objective(self):
        cols = [c for block in self.columns for c in block]
        coeffs = np.zeros((5, len(cols)))
        for j, c in enumerate(cols):
            for r, v in c.coeffs:
                coeffs[r, j] = v
            coeffs[3 + c.block, j] = 1.0
        rows = self.linking_rows() + [(self.convexity, 1.0)] * 2
        status, objective = oracles.linprog_min([c.cost for c in cols], rows, coeffs)
        assert status == "optimal"
        return objective


@pytest.mark.parametrize("convexity", [RowSense.LE, RowSense.EQ])
@pytest.mark.parametrize("mode", [FilterMode.BASELINE, FilterMode.EXACT])
def test_le_linking_row_and_convexity_senses_reach_the_full_master(convexity, mode):
    problem = BudgetedCover(convexity)
    result = run_dwd(problem, config(mode, Strategy.ALL, audit=True, max_iterations=200))
    assert result.termination == "optimal"
    assert result.objective == pytest.approx(problem.full_master_objective(), abs=1e-6)
    assert result.audit.ok
    assert result.audit.final_checks == problem.num_blocks
    assert result.linking_duals[2] < -1e-6  # the budget binds; its dual is <= 0


def test_contract_is_the_batch_calls():
    assert set(BlockProblem.__abstractmethods__) == {
        "num_blocks", "linking_rows", "convexity_sense", "initial_columns", "price_blocks",
        "bound_terms", "heuristic_bound_terms"}
    for name in ("solve_pricing", "hypercube_bound_term", "heuristic_bound_term", "support_set"):
        assert not hasattr(BudgetedCover, name)
    want = BudgetedCover(RowSense.LE).full_master_objective()
    for mode in FilterMode:
        result = run_dwd(BudgetedCover(RowSense.LE),
                         config(mode, Strategy.ALL, audit=True, max_iterations=200))
        assert result.audit.ok
        if mode is FilterMode.HEURISTIC:
            # a heuristic run stops without the final all-block check
            assert result.termination == "converged"
        else:
            assert result.termination == "optimal"
            assert result.objective == pytest.approx(want, abs=1e-6)


def test_exact_strategies_match_baseline():
    for make in (lambda s: ga_problem(seed=s), lambda s: mc_problem(seed=s)):
        for seed in range(4):
            base = run_dwd(make(seed), config())
            for strategy in Strategy:
                again = run_dwd(make(seed), config(FilterMode.EXACT, strategy))
                rel = abs(again.objective - base.objective) / max(1.0, abs(base.objective))
                assert rel <= 1e-6, f"seed {seed} {strategy} diverged by {rel}"
                assert again.termination == "optimal"


def test_heuristic_stop_is_labelled_converged_not_optimal():
    # on this instance the heuristic skips hide improving columns and the run
    # stops above the optimum that baseline reaches
    inst = generate_ga_instance(100, 10, 78)
    base = run_dwd(GaBlockProblem(inst), config(audit=True))
    heur = run_dwd(GaBlockProblem(inst), config(FilterMode.HEURISTIC, Strategy.ALL, audit=True))
    assert (base.termination, base.objective) == ("optimal", pytest.approx(15.0))
    assert (heur.termination, heur.objective) == ("converged", pytest.approx(16.0))
    assert heur.audit.final_checks == 0 and heur.audit.heuristic_unsound_skips > 0


def test_heuristic_runs_stay_feasible_and_above_optimum():
    for seed in range(4):
        inst = generate_ga_instance(8, 6, seed)
        base = run_dwd(GaBlockProblem(inst), config())
        for strategy in Strategy:
            res = run_dwd(GaBlockProblem(inst), config(FilterMode.HEURISTIC, strategy))
            oracles.check_ga_primal(inst, res)
            gap = (res.objective - base.objective) / abs(base.objective)
            assert gap >= -1e-6
    for seed in range(3):
        inst = generate_mc_instance(8, 20, 5, seed)
        base = run_dwd(McBlockProblem(inst), config())
        res = run_dwd(McBlockProblem(inst), config(FilterMode.HEURISTIC, Strategy.ALL))
        oracles.check_mc_primal(inst, res)
        assert (res.objective - base.objective) / abs(base.objective) >= -1e-6


def test_stats_invariants_and_counts(monkeypatch):
    solves = []
    real_solve = LpModel.solve

    def counted_solve(lp):
        solves.append(real_solve(lp))
        return solves[-1]

    monkeypatch.setattr(LpModel, "solve", counted_solve)
    problem = ga_problem(bins=7, items=5, seed=3)
    result = run_dwd(problem, config(FilterMode.EXACT, Strategy.ALL, trace=True))
    stats = result.stats
    k = 7
    assert stats.pricing_calls <= stats.iterations * k
    assert stats.columns_added <= stats.pricing_calls
    assert sum(result.per_block_added) == stats.columns_added
    assert result.initial_column_count == 0  # ga seeds no columns
    assert len(result.columns) == stats.columns_added
    assert stats.filters_succeeded <= stats.filters_attempted
    assert stats.wall_time_s > 0
    priced = sum(1 for it in result.trace for b in it.blocks if b.decision == "priced")
    assert priced == stats.pricing_calls
    added = sum(it.columns_added for it in result.trace)
    assert added == stats.columns_added
    # one master solve per iteration, and the pivots are the solves' own counts
    assert stats.master_solves == len(solves) == stats.iterations
    assert stats.master_pivots == sum(sol.iterations for sol in solves) > 0


@pytest.mark.parametrize("mode", list(FilterMode))
def test_phase_timers_split_the_wall_time(mode):
    for problem in (ga_problem(bins=12, items=6, seed=2), mc_problem(seed=3)):
        stats = run_dwd(problem, config(mode, Strategy.ALL, audit=True)).stats
        phases = (stats.master_time_s, stats.screening_time_s, stats.pricing_time_s,
                  stats.install_time_s)
        assert all(p >= 0.0 for p in phases)
        assert stats.master_time_s > 0.0 and stats.pricing_time_s > 0.0
        assert sum(phases) <= stats.wall_time_s


def test_trace_objectives_non_increasing():
    result = run_dwd(mc_problem(seed=5), config(trace=True))
    objectives = [it.objective for it in result.trace]
    assert all(b <= a + 1e-7 for a, b in zip(objectives, objectives[1:]))
    assert objectives[-1] == pytest.approx(result.objective)


def test_trace_filtered_blocks_show_clearing_bound():
    result = run_dwd(ga_problem(bins=10, items=5, seed=1),
                     config(FilterMode.EXACT, Strategy.ALL, trace=True))
    filtered = [b for it in result.trace for b in it.blocks if b.decision == "filtered"]
    assert filtered, "expected some filtering on this instance"
    for b in filtered:
        assert b.bounds, "a filtered block must carry its bound evidence"
        assert b.bounds[-1][1] >= -1e-4  # the short-circuiting bound
        assert b.reduced_cost is None
        assert not b.column_added


def test_audit_clean_on_exact_runs():
    for make, k in ((lambda: ga_problem(bins=8, items=5, seed=2), 8),
                    (lambda: mc_problem(seed=2), 4)):
        problem = make()
        calls = []
        price_blocks = problem.price_blocks

        def counted(blocks, pi, mu):
            calls.append(len(blocks))
            return price_blocks(blocks, pi, mu)

        problem.price_blocks = counted
        result = run_dwd(problem, config(FilterMode.EXACT, Strategy.ALL, audit=True,
                                         trace=True))
        audit = result.audit
        assert audit.ok
        # every block's column is checked once per iteration
        assert audit.reduced_cost_checks == k * result.stats.iterations
        assert not audit.reduced_cost_mismatches
        filtered = sum(1 for it in result.trace for b in it.blocks
                       if b.decision == "filtered")
        assert audit.filter_checks == filtered
        # each iteration prices every block once, and the final check reads
        # the last iteration's result: no block is priced again at the end
        assert calls == [k] * result.stats.iterations
        assert audit.final_checks == k
        assert not audit.final_violations


def test_audit_baseline_final_sweep_only():
    result = run_dwd(ga_problem(seed=4), config(audit=True))
    assert result.audit.ok
    assert result.audit.filter_checks == 0
    assert result.audit.final_checks == 5


@pytest.mark.parametrize("seed", range(4))
def test_e3_shape_solves_to_the_restricted_master_optimum(seed):
    # ga 100 bins x 100 items is the paper's E3 shape; its degenerate masters
    # once drove the simplex into its pivot limit
    problem = ga_problem(bins=100, items=100, seed=seed)
    result = run_dwd(problem, config(audit=True))
    assert result.termination == "optimal"
    assert result.artificial_value <= 1e-6
    assert result.audit.ok and not result.audit.final_violations
    reference = oracles.restricted_master_objective(problem, result.columns)
    assert result.objective == pytest.approx(reference, abs=1e-6)


def test_e6_shape_finishes_without_a_pivot_stall():
    # ga 1000 bins x 100 items is the paper's E6 shape; without the phase-2
    # perturbation its degenerate masters stall for about 30,000 pivots
    result = run_dwd(ga_problem(bins=1000, items=100, seed=0), config())
    assert result.termination == "optimal"
    assert result.stats.master_pivots < 10_000


def test_basic_columns_price_to_zero():
    result = run_dwd(ga_problem(bins=6, items=6, seed=7), config(audit=True))
    pi = result.linking_duals
    mu = result.convexity_duals
    for col, value in zip(result.columns, result.column_values):
        if value > 1e-9:
            rc = reduced_cost(col, pi, float(mu[col.block]))
            assert abs(rc) <= 1e-7, f"basic column with reduced cost {rc}"


def test_iteration_limit_reported():
    result = run_dwd(ga_problem(bins=8, items=6, seed=1), config(max_iterations=1))
    assert result.termination == "iteration_limit"
    assert result.stats.iterations == 1


@pytest.mark.parametrize("item_line, optimum", [("item 0 0 50000 1", 50000.0),
                                                ("item 0 0 5 11", None)])
def test_weight_left_on_fallback_columns_is_not_optimal(item_line, optimum):
    # the first instance is feasible with an optimum above the fallback
    # price; the second is infeasible (weight 11 > capacity 10).  Both stop
    # at the fallback price with no improving column in sight.
    inst = parse_ga_instance(f"ga 1 1\nbin 0 10\n{item_line}\n")
    if optimum is None:
        with pytest.raises(RuntimeError, match="not optimal"):
            oracles.ga_full_master_objective(inst)
    else:
        assert oracles.ga_full_master_objective(inst) == pytest.approx(optimum)
    for mode in FilterMode:
        result = run_dwd(GaBlockProblem(inst), config(mode, audit=True))
        assert (result.termination, result.objective) == ("artificial", pytest.approx(1e4))
        assert result.artificial_value == pytest.approx(1.0)
        assert result.audit.final_checks == 0  # the final sweep certifies optima only


@pytest.mark.parametrize("text, optimum", [
    ("ga 1 2\nbin 0 10\nbin 1 10\nitem 0 0 -20000 1\nitem 0 1 5 1\n", -20000.0),
    ("ga 3 2\nbin 0 10\nbin 1 4\nitem 0 0 -30000 4\nitem 0 1 7 3\nitem 1 0 -15000 5\n"
     "item 1 1 2 3\nitem 2 0 9 4\nitem 2 1 -12000 4\n", -57000.0)],
    ids=["1-item", "3-items"])
def test_patterns_cheaper_than_the_fallback_price_solve(text, optimum):
    # each best pattern costs less than -1e4, the fallback price: a fallback
    # column signed -1 on its bin's <= 1 row let the master reuse the
    # pattern at 1e4 per extra unit, and the master came back unbounded
    inst = parse_ga_instance(text)
    assert oracles.ga_full_master_objective(inst) == pytest.approx(optimum)
    for mode in FilterMode:
        result = run_dwd(GaBlockProblem(inst), config(mode, audit=True))
        assert result.objective == optimum and result.audit.ok
        assert result.termination == ("converged" if mode is FilterMode.HEURISTIC
                                      else "optimal")
        assert result.artificial_value == 0.0


def test_master_failures_name_iteration_and_lp_size(monkeypatch):
    real_solve = LpModel.solve
    calls = []

    def fail_second(model):
        calls.append(model)
        if len(calls) > 1:
            raise LpNumericalError("simplex failed to converge")
        return real_solve(model)

    monkeypatch.setattr(LpModel, "solve", fail_second)
    with pytest.raises(LpNumericalError, match="^master LP at iteration 2: simplex failed"):
        run_dwd(ga_problem(bins=8, items=6, seed=1))

    # 6 item rows + 5 bin rows, and one fallback column per row
    monkeypatch.setattr(LpModel, "solve",
                        lambda model: LpSolution(LpStatus.INFEASIBLE, None, None, None, 0))
    with pytest.raises(EngineError, match=r"infeasible at iteration 1 \(11 rows x 11 columns\)"):
        run_dwd(ga_problem(bins=5, items=6))


@pytest.mark.parametrize("make", [lambda: ga_problem(bins=8, items=6, seed=11),
                                  lambda: mc_problem(25, 80, 50, seed=0)], ids=["ga", "mc"])
def test_full_eviction_degrades_to_baseline_trajectory(make):
    base = run_dwd(make(), config())
    evicted = run_dwd(make(), config(FilterMode.EXACT, Strategy.COMPUTED, retain_duals=1))
    # with one retained vector, every record's duals are gone by the next
    # iteration, so nothing is ever skipped and the runs coincide
    assert evicted.objective == base.objective
    assert evicted.stats.pricing_calls == base.stats.pricing_calls
    assert evicted.stats.records_skipped_evicted > 0
    assert evicted.stats.filters_succeeded == 0


def test_short_retention_still_exact():
    for alpha in (2, 3):
        inst = generate_ga_instance(9, 6, 12)
        base = run_dwd(GaBlockProblem(inst), config())
        res = run_dwd(GaBlockProblem(inst),
                      config(FilterMode.EXACT, Strategy.ALL, retain_duals=alpha,
                             audit=True))
        rel = abs(res.objective - base.objective) / abs(base.objective)
        assert rel <= 1e-6
        assert res.audit.ok


class LyingBoundProblem(GaBlockProblem):
    """Claims a huge lower bound for every block: every skip is unsound.

    Screening reads `bound_terms` and `heuristic_bound_terms`, so the double
    routes both through the oracle loops over its lying per-block terms.
    """

    bound_terms = oracles.bound_terms_by_loop
    heuristic_bound_terms = oracles.heuristic_bound_terms_by_loop

    def hypercube_bound_term(self, block, pi_prev, pi_now):
        return 1e6

    def heuristic_bound_term(self, block, pi_prev, pi_now, support):
        return 1e6


def test_audit_catches_invalid_exact_bounds():
    inst = generate_ga_instance(6, 5, 0)
    result = run_dwd(LyingBoundProblem(inst),
                     config(FilterMode.EXACT, Strategy.ALL, audit=True))
    assert result.audit.soundness_violations
    assert not result.audit.ok


class MisreportedReducedCost(GaBlockProblem):
    """Says, at its first pricing call, that block 1's reduced cost is 1.0
    below its column's."""

    calls = 0

    def price_blocks(self, blocks, pi, mu):
        priced = super().price_blocks(blocks, pi, mu)
        self.calls += 1
        if self.calls == 1:
            cbars = priced.reduced_costs.copy()
            cbars[1] -= 1.0
            priced = dataclasses.replace(priced, reduced_costs=cbars)
        return priced


def test_audit_catches_a_misreported_reduced_cost(monkeypatch):
    inst = generate_ga_instance(6, 5, 0)
    result = run_dwd(MisreportedReducedCost(inst), config(audit=True))
    [msg] = result.audit.reduced_cost_mismatches
    assert msg.startswith("iteration 1 block 1 (pricing): pricing said ")
    assert not result.audit.ok
    monkeypatch.setattr(experiments, "make_problem",
                        lambda problem, inst: MisreportedReducedCost(inst))
    report = run_experiment(ExperimentConfig(problem="ga", strategies=("exact-all",),
                                             audit=True), [("ga", inst)])
    for strategy in ("baseline", "exact-all"):
        assert f"ga/{strategy}: {msg}" in report.audit_violations
    assert not report.ok


class ShortPricing(GaBlockProblem):
    """Prices every listed block but the last."""

    def price_blocks(self, blocks, pi, mu):
        return super().price_blocks(np.asarray(blocks)[:-1], pi, mu)


def test_pricing_result_of_the_wrong_length_names_the_iteration():
    with pytest.raises(EngineError, match="returned 4 results for 5 blocks at iteration 1"):
        run_dwd(ShortPricing(generate_ga_instance(5, 6, 0)))


def test_trace_and_audit_messages_hold_python_numbers():
    # screening works on arrays, but what it reports reads as before:
    # repr(np.float64(x)) would be "np.float64(x)"
    inst = generate_ga_instance(6, 5, 0)
    lying = run_dwd(LyingBoundProblem(inst),
                    config(FilterMode.EXACT, Strategy.ALL, audit=True))
    for msg in lying.audit.soundness_violations:
        assert re.fullmatch(r"iteration \d+ block \d+: skipped on bound -?[\d.e+-]+ "
                            r"but exact pricing found -?[\d.e+-]+", msg)
    traced = run_dwd(mc_problem(seed=3), config(FilterMode.EXACT, Strategy.ALL,
                                                retain_duals=2, trace=True))
    blocks = [b for it in traced.trace for b in it.blocks]
    assert any(b.bounds for b in blocks) and any(b.records_evicted for b in blocks)
    for b in blocks:
        assert type(b.records_evicted) is int
        assert all(type(it) is int and type(lb) is float for it, lb in b.bounds)


def test_heuristic_unsound_skips_are_informational():
    inst = generate_ga_instance(6, 5, 0)
    result = run_dwd(LyingBoundProblem(inst),
                     config(FilterMode.HEURISTIC, Strategy.ALL, audit=True))
    assert result.audit.heuristic_unsound_skips > 0
    assert result.audit.ok  # expected behavior for a heuristic, not an error


def test_flags_off_mean_no_payloads():
    result = run_dwd(ga_problem(seed=0), config())
    assert result.trace is None and result.audit is None


def test_engine_determinism():
    a = run_dwd(mc_problem(seed=9), config(FilterMode.EXACT, Strategy.ALL, trace=True))
    b = run_dwd(mc_problem(seed=9), config(FilterMode.EXACT, Strategy.ALL, trace=True))
    assert a.objective == b.objective
    assert a.trace == b.trace
    assert a.per_block_added == b.per_block_added
    assert np.array_equal(a.column_values, b.column_values)


# (objective, master pivots, iterations, pricing calls) of each run below.  A
# change to the master LP or the engine that is meant to pick the same pivots
# must keep every one of them; one that moves a pivot shows here first.
PINNED_RUNS = {
    ("ga 100x10", "baseline"): (18.0, 86, 5, 500),
    ("ga 100x10", "exact-all"): (18.0, 86, 5, 456),
    ("ga 100x10", "heur-all"): (18.0, 86, 5, 389),
    ("ga 400x10", "baseline"): (10.0, 82, 4, 1600),
    ("ga 400x10", "exact-all"): (10.0, 82, 4, 1220),
    ("ga 400x10", "heur-all"): (10.0, 81, 4, 1160),
    ("mc 25/80/50", "baseline"): (1884.068563, 26, 4, 200),
    ("mc 25/80/50", "exact-all"): (1884.068563, 26, 4, 100),
    ("mc 25/80/50", "heur-all"): (1884.068563, 26, 4, 86),
}
PINNED_PROBLEMS = {
    "ga 100x10": lambda: GaBlockProblem(generate_ga_instance(100, 10, 1000)),
    "ga 400x10": lambda: GaBlockProblem(generate_ga_instance(400, 10, 1000)),
    "mc 25/80/50": lambda: McBlockProblem(generate_mc_instance(25, 80, 50, 1000)),
}


@pytest.mark.parametrize("case, strategy", list(PINNED_RUNS))
def test_pinned_runs_keep_their_pivots(case, strategy):
    mode, selection = STRATEGIES[strategy]
    result = run_dwd(PINNED_PROBLEMS[case](), config(mode, selection))
    objective, pivots, iterations, pricing_calls = PINNED_RUNS[case, strategy]
    assert repr(result.objective) == repr(objective)
    assert (result.stats.master_pivots, result.stats.iterations,
            result.stats.pricing_calls) == (pivots, iterations, pricing_calls)


def test_config_validation():
    for epsilon in (0.0, -1e-4, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="epsilon"):
            DwdConfig(epsilon=epsilon)
    with pytest.raises(ValueError):
        DwdConfig(retain_duals=0)
    with pytest.raises(ValueError):
        DwdConfig(max_iterations=0)
    # a non-integer would run as another count (2.5 as 2, True as 1) or fail
    # mid-run
    for name in ("retain_duals", "max_iterations"):
        for value in (2.5, 2.0, True, False, "3"):
            with pytest.raises(ValueError, match=name):
                DwdConfig(**{name: value})
    with pytest.raises(ValueError, match="max_iterations"):
        DwdConfig(max_iterations=None)


@pytest.mark.parametrize("make", [ga_problem, mc_problem])
def test_baseline_screens_nothing_and_exact_screens_every_block(monkeypatch, make):
    # one screening call per iteration, deciding every block
    calls = []
    real = engine.should_filter

    def counted(*args, **kwargs):
        screen = real(*args, **kwargs)
        calls.append(len(screen.skipped))
        return screen

    monkeypatch.setattr(engine, "should_filter", counted)
    base = run_dwd(make(), config(audit=True, trace=True))
    assert calls == [] and base.stats.filters_attempted == 0
    assert base.audit.filter_checks == 0
    assert {b.decision for it in base.trace for b in it.blocks} == {"priced"}
    exact = run_dwd(make(), config(FilterMode.EXACT, Strategy.ALL))
    k = make().num_blocks
    assert calls == [k] * exact.stats.iterations
    assert exact.stats.pricing_calls == k * exact.stats.iterations - exact.stats.filters_succeeded


def test_columns_are_built_once_on_first_read():
    result = run_dwd(mc_problem(seed=1), config(FilterMode.EXACT, Strategy.ALL))
    columns = result.columns
    assert result.columns is columns
    assert len(columns) == result.initial_column_count + result.stats.columns_added
    assert len(columns) == len(result.column_values)
    added = [0] * len(result.per_block_added)
    for col in columns[result.initial_column_count:]:
        added[col.block] += 1
    assert tuple(added) == result.per_block_added


@pytest.mark.parametrize("make", [ga_problem, mc_problem])
def test_results_pickle_with_their_columns(make):
    result = run_dwd(make(seed=1), config(FilterMode.EXACT, Strategy.ALL, audit=True))
    again = pickle.loads(pickle.dumps(result))
    assert again.columns == result.columns and len(again.columns) > 0
    assert (again.objective, again.termination, again.per_block_added) == \
        (result.objective, result.termination, result.per_block_added)
    assert again.stats == result.stats and again.audit == result.audit


@pytest.mark.parametrize("make", [ga_problem, mc_problem])
def test_a_result_does_not_keep_its_problem_alive(make):
    problem = make(seed=1)
    ref = weakref.ref(problem)
    result = run_dwd(problem, config(FilterMode.EXACT, Strategy.ALL))
    del problem
    gc.collect()
    assert ref() is None
    assert len(result.columns) == len(result.column_values)
