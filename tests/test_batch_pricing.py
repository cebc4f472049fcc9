"""Batched pricing: `price_blocks` against per-block pricing and brute force."""

import numpy as np
import pytest

from colgen import (DwdConfig, FilterMode, GaBlockProblem, GaInstance, McBlockProblem,
                    Strategy, generate_ga_instance, generate_mc_instance, rcsp, run_dwd)
from colgen.model import BlockProblem

import oracles


class LoopedGa(GaBlockProblem):
    """`GaBlockProblem` priced one block at a time by the default loop."""

    price_blocks = BlockProblem.price_blocks


def check_against_oracles(inst, blocks, pi, mu):
    problem = GaBlockProblem(inst)
    got = problem.price_blocks(blocks, pi, mu)
    assert len(got) == len(blocks)
    for k, (cbar, col) in zip(blocks, got):
        values = inst.costs[k] - pi
        cap = int(inst.capacities[k])
        assert cbar == pytest.approx(oracles.knapsack_brute(values, inst.weights[k], cap)
                                     - mu[k], abs=1e-9)
        want_v, want_items = oracles.knapsack_brute_items(values, inst.weights[k], cap)
        assert col.block == k and col.native == want_items
        assert cbar == want_v - mu[k]
        assert (cbar, col) == problem.solve_pricing(k, pi, float(mu[k]))
    return got


def test_matches_brute_force_and_solve_pricing():
    rng = np.random.default_rng(5)
    for seed in range(30):
        bins, items = int(rng.integers(1, 7)), int(rng.integers(0, 9))
        inst = generate_ga_instance(bins, items, seed)
        # integer duals keep every subset sum exact, so ties are real ties
        pi = rng.integers(0, 120, size=items).astype(float)
        mu = rng.integers(-40, 40, size=bins).astype(float)
        blocks = [int(k) for k in rng.permutation(bins)[: int(rng.integers(1, bins + 1))]]
        check_against_oracles(inst, blocks, pi, mu)


def test_ties_heavy_items_and_zero_capacity():
    # bin 0: items 0 and 1 tie, item 2 (weight 9) is heavier than the bin;
    # bin 1 has capacity 0; bin 2 can hold everything
    costs = np.array([[1, 1, 0, 3], [0, 0, 0, 0], [2, 2, 4, 2]])
    weights = np.array([[2, 2, 9, 3], [1, 1, 1, 1], [1, 1, 1, 1]])
    inst = GaInstance(4, 3, costs, weights, np.array([4, 0, 10]))
    pi = np.array([5.0, 5.0, 9.0, 7.0])
    got = check_against_oracles(inst, [2, 0, 1], pi, np.zeros(3))
    assert [col.native for _, col in got] == [(0, 1, 2, 3), (0, 1), ()]
    # -8 from item 3 alone, or from items 0 and 1 together: fewer items wins
    got = check_against_oracles(inst, [0], np.array([5.0, 5.0, 9.0, 11.0]), np.zeros(3))
    assert got[0][1].native == (3,) and got[0][0] == -8.0
    # with room for one item only, items 0 and 1 tie at -4: the lower index wins
    inst.capacities[0] = 2
    got = check_against_oracles(inst, [0], pi, np.zeros(3))
    assert got[0][1].native == (0,) and got[0][0] == -4.0


def test_zero_items_and_empty_block_list():
    inst = generate_ga_instance(3, 0, 4)
    got = check_against_oracles(inst, [2, 1], np.zeros(0), np.array([-1.0, -2.0, -3.0]))
    assert [(cbar, col.native) for cbar, col in got] == [(3.0, ()), (2.0, ())]
    assert GaBlockProblem(generate_ga_instance(3, 5, 0)).price_blocks([], np.zeros(5),
                                                                      np.zeros(3)) == []


def test_duals_are_not_mutated():
    inst = generate_ga_instance(6, 7, 2)
    pi = np.linspace(0.0, 90.0, 7)
    mu = np.linspace(-5.0, 5.0, 6)
    pi0, mu0 = pi.copy(), mu.copy()
    GaBlockProblem(inst).price_blocks([5, 0, 3], pi, mu)
    assert np.array_equal(pi, pi0) and np.array_equal(mu, mu0)


@pytest.mark.parametrize("mode", [FilterMode.BASELINE, FilterMode.EXACT, FilterMode.HEURISTIC])
@pytest.mark.parametrize("seed", [0, 1])
def test_run_matches_default_loop(mode, seed):
    inst = generate_ga_instance(25, 8, seed)
    cfg = DwdConfig(mode=mode, strategy=Strategy.ALL, audit=True, trace=True)
    batched = run_dwd(GaBlockProblem(inst), cfg)
    looped = run_dwd(LoopedGa(inst), cfg)
    assert batched.trace == looped.trace
    assert batched.objective == looped.objective
    assert batched.columns == looped.columns
    assert batched.stats.pricing_calls == looped.stats.pricing_calls
    assert np.array_equal(batched.column_values, looped.column_values)
    assert batched.audit == looped.audit and batched.audit.ok


def test_cached_mc_pricing_matches_plain_rcsp():
    rng = np.random.default_rng(9)
    inst = generate_mc_instance(12, 36, 10, 3)
    problem = McBlockProblem(inst)
    costs = np.array([a.cost for a in inst.arcs])
    delays = [a.delay for a in inst.arcs]
    pairs = [(a.tail, a.head) for a in inst.arcs]
    for _ in range(4):
        pi = np.round(rng.uniform(-0.01, 3.0, size=len(inst.arcs)), 3)
        mu = rng.uniform(0.0, 50.0, size=len(inst.commodities))
        got = problem.price_blocks(range(len(inst.commodities)), pi, mu)
        for k, (cbar, col) in enumerate(got):
            com = inst.commodities[k]
            w = com.bandwidth * (costs + np.maximum(pi, 0.0))
            _, path = rcsp(inst.num_nodes, pairs, w, delays, com.max_delay,
                           com.source, com.target)
            assert col.native == path
            assert cbar == com.bandwidth * float(sum(costs[a] + pi[a] for a in path)) - mu[k]
