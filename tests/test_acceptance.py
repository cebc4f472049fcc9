"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with output visible:

    pytest tests/test_acceptance.py -v -s

Criteria 1 and 2 share one batch of audited runs; everything else builds its
own fixtures.  Every check compares the package against an independent
route: scipy, networkx, or exhaustive enumeration.
"""

import time

import numpy as np
import pytest

from colgen import (GaBlockProblem, LpModel, LpStatus, McBlockProblem,
                    generate_ga_instance, generate_mc_instance, knapsack_min,
                    rcsp)
from colgen.experiments import (ExperimentConfig, format_pct, gap_pct,
                                pct_reduction, run_single)

import oracles

EXACT_STRATEGIES = ("exact-all", "exact-computed", "exact-add")
HEUR_STRATEGIES = ("heur-all", "heur-computed", "heur-add")

MC_SHAPES = [(6, 14, 4), (8, 18, 6), (10, 20, 8)]   # nodes, arcs, commodities
GA_SHAPES = [(12, 6), (16, 8), (20, 10)]            # bins, items


def verdict(criterion: str, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


def solve(problem: str, inst, strategy: str, audit=False):
    return run_single(ExperimentConfig(problem, audit=audit), inst, strategy)


@pytest.fixture(scope="session")
def exactness_suite():
    """20 MC + 20 GA instances, audited baseline plus every exact strategy."""
    started = time.perf_counter()
    runs = []
    for i in range(20):
        nodes, arcs, coms = MC_SHAPES[i % len(MC_SHAPES)]
        inst = generate_mc_instance(nodes, arcs, coms, seed=i)
        results = {s: solve("mc", inst, s, audit=True)
                   for s in ("baseline",) + EXACT_STRATEGIES}
        runs.append(("mc", f"mc-s{i}", results))
    for i in range(20):
        bins, items = GA_SHAPES[i % len(GA_SHAPES)]
        inst = generate_ga_instance(bins, items, seed=i)
        results = {s: solve("ga", inst, s, audit=True)
                   for s in ("baseline",) + EXACT_STRATEGIES}
        runs.append(("ga", f"ga-s{i}", results))
    return runs, time.perf_counter() - started


def test_criterion_01_exact_strategies_preserve_optimality(exactness_suite):
    runs, elapsed = exactness_suite
    worst = 0.0
    bad = []
    for kind, name, results in runs:
        base = results["baseline"].objective
        for strategy in EXACT_STRATEGIES:
            diff = rel_diff(results[strategy].objective, base)
            worst = max(worst, diff)
            if diff > 1e-6:
                bad.append(f"{name}/{strategy} off by {diff:.2e}")
    ok = not bad and elapsed < 60.0
    verdict("criterion 1 exactness preservation",
            ok, f"40 instances x 3 exact strategies, worst rel diff "
                f"{worst:.2e}, {elapsed:.1f}s" + ("; " + "; ".join(bad) if bad else ""))


def test_criterion_02_audited_filtering_is_sound(exactness_suite):
    runs, _ = exactness_suite
    violations = []
    filter_checks = 0
    rc_checks = 0
    for kind, name, results in runs:
        for strategy, result in results.items():
            audit = result.audit
            rc_checks += audit.reduced_cost_checks
            filter_checks += audit.filter_checks
            for msg in (audit.soundness_violations + audit.final_violations
                        + audit.reduced_cost_mismatches):
                violations.append(f"{name}/{strategy}: {msg}")
    ok = not violations and filter_checks > 0
    verdict("criterion 2 filter soundness under audit",
            ok, f"{filter_checks} skipped blocks re-priced, {rc_checks} reduced-cost "
                f"cross-checks, {len(violations)} violations")


def test_criterion_03_matches_fully_enumerated_master():
    started = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        inst = generate_mc_instance(5, 10, 3, seed=seed)
        got = solve("mc", inst, "baseline").objective
        want = oracles.mc_full_master_objective(inst)
        worst = max(worst, rel_diff(got, want))
    for seed in range(10):
        inst = generate_ga_instance(4, 5, seed=seed)
        got = solve("ga", inst, "baseline").objective
        want = oracles.ga_full_master_objective(inst)
        worst = max(worst, rel_diff(got, want))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-6 and elapsed < 30.0
    verdict("criterion 3 full-enumeration equivalence",
            ok, f"20 tiny instances, worst rel diff {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_pricing_oracles():
    rng = np.random.default_rng(41)
    knap_bad = 0
    for _ in range(500):
        m = int(rng.integers(3, 16))
        values = np.round(rng.uniform(-8.0, 4.0, size=m), 3) - rng.uniform(0, 10, size=m)
        weights = rng.integers(1, 20, size=m)
        capacity = int(rng.integers(0, 60))
        got, items = knapsack_min(values, weights, capacity)
        want = oracles.knapsack_brute(values, weights, capacity)
        achieved = sum(float(values[i]) for i in items)
        feasible = sum(int(weights[i]) for i in items) <= capacity
        # float sums may disagree in the last ulp between the two routes
        if abs(got - want) > 1e-9 or abs(got - achieved) > 1e-9 or not feasible:
            knap_bad += 1

    rcsp_bad = 0
    rcsp_cases = 0
    for seed in range(50):
        inst = generate_mc_instance(int(rng.integers(4, 9)),
                                    int(rng.integers(8, 15)), 2, seed=seed)
        delays = [a.delay for a in inst.arcs]
        pairs = [(a.tail, a.head) for a in inst.arcs]
        for draw in range(10):
            w = rng.uniform(0.0, 10.0, size=len(inst.arcs))
            com = inst.commodities[draw % 2]
            got = rcsp(inst.num_nodes, pairs, w, delays, com.max_delay,
                       com.source, com.target)
            want = oracles.best_path_by_enumeration(inst.num_nodes, inst.arcs, w,
                                                    com.source, com.target,
                                                    com.max_delay)
            rcsp_cases += 1
            if (got is None) != (want is None) or (got is not None and got[0] != want):
                rcsp_bad += 1

    dijkstra_bad = 0
    for seed in range(30):
        inst = generate_mc_instance(7, 14, 2, seed=100 + seed)
        w = rng.uniform(0.0, 10.0, size=len(inst.arcs))
        delays = [a.delay for a in inst.arcs]
        pairs = [(a.tail, a.head) for a in inst.arcs]
        com = inst.commodities[0]
        got = rcsp(inst.num_nodes, pairs, w, delays, np.inf,
                   com.source, com.target)
        want = oracles.networkx_shortest(inst.num_nodes, inst.arcs, w,
                                         com.source, com.target)
        if got is None or want is None or abs(got[0] - want) > 1e-9:
            dijkstra_bad += 1

    ok = knap_bad == 0 and rcsp_bad == 0 and dijkstra_bad == 0
    verdict("criterion 4 pricing oracles",
            ok, f"500 knapsack duals ({knap_bad} bad), {rcsp_cases} constrained-path "
                f"duals ({rcsp_bad} bad, exact), 30 unconstrained vs dijkstra "
                f"({dijkstra_bad} bad)")


def test_criterion_05_bound_term_oracles():
    rng = np.random.default_rng(5)
    term_bad = 0
    dominance_bad = 0

    for case in range(100):  # assignment blocks: one row per covered item
        items = int(rng.integers(1, 13))
        inst = generate_ga_instance(3, items, seed=case)
        problem = GaBlockProblem(inst)
        pi_prev = rng.normal(0.0, 3.0, size=items)
        pi_now = rng.normal(0.0, 3.0, size=items)
        exact = problem.hypercube_bound_term(0, pi_prev, pi_now)
        # columns carry +1 per chosen item, so the worst drift over any
        # candidate column is the hypercube minimum of (prev - now); the two
        # routes sum floats in different orders, so allow last-ulp noise
        brute = oracles.hypercube_brute(pi_prev - pi_now)
        if abs(exact - brute) > 1e-9:
            term_bad += 1
        heur = problem.heuristic_bound_term(0, pi_prev, pi_now, problem.support_set(0))
        if heur < exact:
            dominance_bad += 1

    for case in range(100):  # routing blocks: -bandwidth per used arc
        inst = generate_mc_instance(5, int(rng.integers(8, 13)), 3, seed=case)
        problem = McBlockProblem(inst)
        arcs = len(inst.arcs)
        k = int(rng.integers(0, 3))
        b = inst.commodities[k].bandwidth
        pi_prev = rng.normal(0.0, 3.0, size=arcs)
        pi_now = rng.normal(0.0, 3.0, size=arcs)
        exact = problem.hypercube_bound_term(k, pi_prev, pi_now)
        brute = oracles.hypercube_brute((pi_prev - pi_now) * (-b))
        if abs(exact - brute) > 1e-9:
            term_bad += 1
        heur = problem.heuristic_bound_term(k, pi_prev, pi_now, problem.support_set(k))
        if heur < exact:
            dominance_bad += 1

    ok = term_bad == 0 and dominance_bad == 0
    verdict("criterion 5 bound-term oracles",
            ok, f"200 cases vs 2^n enumeration ({term_bad} bad), heuristic >= exact "
                f"in all cases ({dominance_bad} bad)")


def test_criterion_06_heuristics_stay_feasible():
    bad = []
    for seed in range(6):
        inst = generate_ga_instance(10, 6, seed=seed)
        base = solve("ga", inst, "baseline")
        for strategy in HEUR_STRATEGIES:
            res = solve("ga", inst, strategy)
            oracles.check_ga_primal(inst, res)
            if gap_pct(res.objective, base.objective) < -1e-4:  # -1e-6 relative
                bad.append(f"ga-s{seed}/{strategy}")
    for seed in range(4):
        inst = generate_mc_instance(8, 18, 5, seed=seed)
        base = solve("mc", inst, "baseline")
        for strategy in HEUR_STRATEGIES:
            res = solve("mc", inst, strategy)
            oracles.check_mc_primal(inst, res)
            if gap_pct(res.objective, base.objective) < -1e-4:
                bad.append(f"mc-s{seed}/{strategy}")

    # desk-scale regime, many more bins than items: gap observed, not asserted
    observed = []
    for seed in range(5):
        inst = generate_ga_instance(200, 10, seed=seed)
        base = solve("ga", inst, "baseline")
        res = solve("ga", inst, "heur-computed")
        oracles.check_ga_primal(inst, res)
        gap = gap_pct(res.objective, base.objective)
        if gap < -1e-4:
            bad.append(f"ga-desk-s{seed}/heur-computed")
        observed.append(format_pct(gap))
    ok = not bad
    verdict("criterion 6 heuristic feasibility",
            ok, "30 small heuristic runs primal-feasible with GAP >= -1e-6; "
                f"desk-scale (200 bins, 10 items) heur-computed GAP observed: "
                f"{', '.join(observed)}"
                + ("; bad: " + ", ".join(bad) if bad else ""))


def test_criterion_07_filtering_reduces_pricing_calls():
    hits = 0
    for seed in range(10):  # bins well above items
        inst = generate_ga_instance(60, 8, seed=seed)
        base = solve("ga", inst, "baseline")
        filt = solve("ga", inst, "exact-all")
        if pct_reduction(base.stats.pricing_calls, filt.stats.pricing_calls) > 0:
            hits += 1
    ga_ok = hits >= 8

    mc_bad = []
    deep = 0
    for seed in range(8):
        inst = generate_mc_instance(25, 80, 50, seed=seed)
        base = solve("mc", inst, "baseline")
        if base.stats.iterations < 3:
            continue
        deep += 1
        filt = solve("mc", inst, "exact-all")
        r = pct_reduction(base.stats.pricing_calls, filt.stats.pricing_calls)
        if r <= 0:
            mc_bad.append(f"mc-s{seed} rCalls {r:.2f}")
    mc_ok = deep > 0 and not mc_bad
    verdict("criterion 7 filtering effectiveness",
            ga_ok and mc_ok,
            f"assignment 60x8: {hits}/10 instances with %rCalls > 0 (need >= 8); "
            f"routing 50-commodity: {deep} instances ran >= 3 iterations, "
            f"{len(mc_bad)} without reduction")


def test_criterion_08_metric_arithmetic():
    checks = [
        pct_reduction(180, 90) == 50.0,
        format_pct(pct_reduction(180, 90)) == "50.00%",
        format_pct(pct_reduction(145, 180)) == "-24.14%",
        gap_pct(123.456, 123.456) == 0.0,
    ]
    verdict("criterion 8 metric arithmetic",
            all(checks), "reduction(180, 90) = 50.00%, negative percentages render "
                         "as -24.14%, gap at the reference value is 0")


def test_criterion_09_reports_are_deterministic():
    import csv
    import io

    from colgen.experiments import (CSV_COLUMNS, ExperimentConfig, emit_csv,
                                    run_experiment)

    def batch(problem):
        if problem == "ga":
            return [(f"ga-s{i}", generate_ga_instance(16, 8, seed=i)) for i in range(4)]
        return [(f"mc-s{i}", generate_mc_instance(8, 18, 6, seed=i)) for i in range(4)]

    def stripped_report(problem):
        config = ExperimentConfig(problem=problem,
                                  strategies=tuple(("baseline",) + EXACT_STRATEGIES
                                                   + HEUR_STRATEGIES))
        text = emit_csv(run_experiment(config, batch(problem)).rows)
        timing = ("time_s", "master_s", "pricing_s", "screening_s", "r_time_pct",
                  "r_ptime_pct")
        drop = {CSV_COLUMNS.index(name) for name in timing}
        return [[c for i, c in enumerate(row) if i not in drop]
                for row in csv.reader(io.StringIO(text))]

    same = all(stripped_report(p) == stripped_report(p) for p in ("ga", "mc"))
    verdict("criterion 9 deterministic reports",
            same, "two identical-seed runs per problem, all 7 strategies: csv "
                  "reports bit-identical outside the six time columns")


def test_criterion_10_lp_core_strong_duality():
    rng = np.random.default_rng(10)
    worst_gap = 0.0
    worst_vertex = 0.0
    bad = 0
    for _ in range(100):
        costs, rows, coeffs = oracles.random_small_lp(rng)
        model = LpModel(rows)
        for j in range(len(costs)):
            model.add_column(float(costs[j]), [(i, float(coeffs[i][j]))
                                               for i in range(len(rows))])
        sol = model.solve()
        if sol.status is not LpStatus.OPTIMAL:
            bad += 1
            continue
        report = oracles.optimality_report(costs, rows, coeffs, sol)
        worst_gap = max(worst_gap, report["duality_gap"], report["row_violation"],
                        report["dual_sign_violation"], report["reduced_cost_violation"],
                        report["complementary_slackness"])
        want = oracles.vertex_enumeration_min(costs, rows, coeffs)
        if want is None:
            bad += 1
            continue
        worst_vertex = max(worst_vertex, abs(sol.objective - want))
    ok = bad == 0 and worst_gap <= 1e-6 and worst_vertex <= 1e-6
    verdict("criterion 10 simplex core",
            ok, f"100 random LPs: worst optimality-report residual {worst_gap:.2e}, "
                f"worst vertex-oracle diff {worst_vertex:.2e}, {bad} failures")
