"""Batched contract methods: `price_blocks`, `bound_terms` and
`heuristic_bound_terms` against the families' per-block methods, brute force
and the loops over those methods in `oracles`."""

import functools

import numpy as np
import pytest

from colgen import (Column, DwdConfig, FilterMode, GaBlockProblem, GaInstance,
                    McBlockProblem, Strategy, generate_ga_instance, generate_mc_instance,
                    parse_mc_instance, rcsp, run_dwd)
from colgen.mcflow import _graph_lists, _potentials
from colgen.model import PricedBlocks

import oracles


class LoopedGa(GaBlockProblem):
    """`GaBlockProblem` priced and screened one block at a time by the oracle loops."""

    price_blocks = oracles.price_blocks_by_loop
    bound_terms = oracles.bound_terms_by_loop


def priced_pairs(priced: PricedBlocks, make_column) -> list:
    """`priced` as (reduced cost, column) pairs, after checking that each
    entry's column is `make_column(block, native)`, the one an oracle builds
    by hand from the instance."""
    assert len(priced.blocks) == len(priced.reduced_costs) == len(priced.costs)
    assert len(priced.ptr) == len(priced.blocks) + 1 and priced.ptr[0] == 0
    pairs = []
    for i, k in enumerate(priced.blocks.tolist()):
        col = priced.column(i)
        assert col == make_column(k, col.native)
        pairs.append((float(priced.reduced_costs[i]), col))
    return pairs


def check_against_oracles(inst, blocks, pi, mu):
    problem = GaBlockProblem(inst)
    got = priced_pairs(problem.price_blocks(blocks, pi, mu),
                       functools.partial(oracles.assignment_column, inst))
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
    inst = generate_ga_instance(3, 5, 0)
    empty = GaBlockProblem(inst).price_blocks([], np.zeros(5), np.zeros(3))
    assert priced_pairs(empty, functools.partial(oracles.assignment_column, inst)) == []
    assert empty.ptr.tolist() == [0]


def test_arrays_equal_the_default_loop():
    # the looped `price_blocks` packs `solve_pricing`'s columns into the
    # same arrays that ga fills from the knapsack's item mask
    rng = np.random.default_rng(3)
    for seed in range(10):
        inst = generate_ga_instance(8, 9, seed)
        pi = np.round(rng.uniform(0.0, 110.0, size=9), 2)
        mu = np.round(rng.uniform(-30.0, 0.0, size=8), 2)
        blocks = [int(k) for k in rng.permutation(8)[:5]]
        batched = GaBlockProblem(inst).price_blocks(blocks, pi, mu)
        looped = LoopedGa(inst).price_blocks(blocks, pi, mu)
        for name in ("blocks", "reduced_costs", "costs", "ptr", "rows", "vals"):
            assert getattr(batched, name).tobytes() == getattr(looped, name).tobytes(), name
        make_column = functools.partial(oracles.assignment_column, inst)
        assert priced_pairs(batched, make_column) == priced_pairs(looped, make_column)


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
        got = priced_pairs(problem.price_blocks(range(len(inst.commodities)), pi, mu),
                           functools.partial(oracles.path_column, inst))
        for k, (cbar, col) in enumerate(got):
            assert (cbar, col) == problem.solve_pricing(k, pi, float(mu[k]))
            com = inst.commodities[k]
            w = com.bandwidth * (costs + np.maximum(pi, 0.0))
            _, path = rcsp(inst.num_nodes, pairs, w, delays, com.max_delay,
                           com.source, com.target)
            assert col.native == path
            assert cbar == com.bandwidth * float(sum(costs[a] + pi[a] for a in path)) - mu[k]


def test_mc_price_blocks_equals_per_block_label_setting_bit_for_bit():
    # 30 commodities on 12 nodes share targets, and their bandwidths differ
    rng = np.random.default_rng(23)
    for seed in range(3):
        inst = generate_mc_instance(12, 36, 30, seed)
        coms = inst.commodities
        assert len({c.target for c in coms}) < len(coms) and len({c.bandwidth for c in coms}) > 1
        problem = McBlockProblem(inst)
        pairs = [(a.tail, a.head) for a in inst.arcs]
        graph = _graph_lists(inst.num_nodes, pairs)
        costs = np.array([a.cost for a in inst.arcs])
        delays = np.array([a.delay for a in inst.arcs])
        for _ in range(3):
            pi = np.round(rng.uniform(-0.01, 3.0, size=len(pairs)), 3)
            mu = rng.uniform(0.0, 50.0, size=len(coms))
            blocks = [int(k) for k in rng.permutation(len(coms))[:20]]
            want = []
            for k in blocks:
                c = coms[k]
                b = c.bandwidth
                _, path = oracles.label_setting_unbounded(
                    *graph, (b * (costs + np.maximum(pi, 0.0))).tolist(), delays.tolist(),
                    _potentials(inst.num_nodes, pairs, delays, [c.target])[0].tolist(),
                    c.max_delay, c.source, c.target)
                cbar = b * float(sum(costs[a] + pi[a] for a in path)) - float(mu[k])
                want.append((cbar, oracles.path_column(inst, k, path)))
            got = problem.price_blocks(blocks, pi, mu)
            ref = PricedBlocks.from_columns(blocks, want)
            for name in ("blocks", "reduced_costs", "costs", "ptr", "rows", "vals"):
                assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
            assert priced_pairs(got, functools.partial(oracles.path_column, inst)) == want


def test_from_columns_rejects_a_missing_column():
    # every priced block has a column; a plug-in with none must say so
    inst = generate_ga_instance(5, 3, 0)
    with pytest.raises(ValueError, match="entry 0 has no column"):
        PricedBlocks.from_columns(
            [4, 1], [(2.5, None), (-1.0, oracles.assignment_column(inst, 1, (2, 0)))])


def test_from_columns_keeps_each_native():
    # natives that are not the linking rows: a path's arcs in travel order,
    # and a column with no linking row at all
    inst = generate_mc_instance(8, 20, 3, 1)
    cols = [oracles.path_column(inst, 0, (5, 2)), Column(1, 4.0, (), native=("x",)),
            oracles.path_column(inst, 2, (3,))]
    priced = PricedBlocks.from_columns([0, 1, 2], [(0.0, col) for col in cols])
    assert [priced.column(i) for i in range(3)] == cols
    assert priced.column(0).native == (5, 2) and priced.column(0).coeffs[0][0] == 2


# ----------------------------------------------------------------------
# bound_terms

def check_bound_terms(problem, rng, draws=20):
    rows = len(problem.linking_rows())
    for _ in range(draws):
        pi_prev = rng.normal(0.0, 3.0, size=rows)
        pi_now = rng.normal(0.0, 3.0, size=rows)
        for a, b in ((pi_prev, pi_now), (pi_now, pi_now)):
            got = problem.bound_terms(a, b)
            want = [problem.hypercube_bound_term(k, a, b) for k in range(problem.num_blocks)]
            assert got.shape == (problem.num_blocks,)
            # bit for bit, not approximately: screening must not move
            assert got.tolist() == want
            assert np.array_equal(got, oracles.bound_terms_by_loop(problem, a, b))


def test_ga_bound_terms_equal_the_per_block_terms():
    rng = np.random.default_rng(17)
    for seed in range(5):
        check_bound_terms(GaBlockProblem(generate_ga_instance(7, 6, seed)), rng)


def test_mc_bound_terms_equal_the_per_block_terms_with_mixed_bandwidths():
    rng = np.random.default_rng(19)
    for seed in range(5):
        inst = generate_mc_instance(9, 24, 12, seed)
        assert len({c.bandwidth for c in inst.commodities}) > 1
        check_bound_terms(McBlockProblem(inst), rng)
    # one bandwidth that is not an integer, shared by two of three commodities
    text = ("nodes 3\narc 0 1 10 1 2\narc 1 2 10 1 2\narc 0 2 10 5 1\n"
            "commodity 0 2 0.3 9\ncommodity 0 1 2 9\ncommodity 1 2 0.3 9\n")
    check_bound_terms(McBlockProblem(parse_mc_instance(text)), rng)


def test_default_bound_terms_loop_over_blocks():
    calls = []

    class Recording(LoopedGa):
        def hypercube_bound_term(self, block, pi_prev, pi_now):
            calls.append(block)
            return -float(block)

    problem = Recording(generate_ga_instance(4, 3, 0))
    assert problem.bound_terms(np.zeros(3), np.ones(3)).tolist() == [0.0, -1.0, -2.0, -3.0]
    assert calls == [0, 1, 2, 3]


# ----------------------------------------------------------------------
# heuristic_bound_terms

def check_heuristic_bound_terms(problem, rng, draws=20):
    rows = len(problem.linking_rows())
    # random installed supports; the last block keeps an empty one
    n = 3 * problem.num_blocks
    problem.register_columns(rng.integers(0, problem.num_blocks - 1, size=n),
                             rng.integers(0, rows, size=n))
    for _ in range(draws):
        pi_prev = rng.normal(0.0, 3.0, size=rows)
        pi_now = rng.normal(0.0, 3.0, size=rows)
        for a, b in ((pi_prev, pi_now), (pi_now, pi_now)):
            got = problem.heuristic_bound_terms(a, b)
            want = [problem.heuristic_bound_term(k, a, b, problem.support_set(k))
                    for k in range(problem.num_blocks)]
            assert got.shape == (problem.num_blocks,)
            # the batch sums in another order, so only up to rounding
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
            assert got[-1] == 0.0
        assert not problem.heuristic_bound_terms(pi_now, pi_now).any()


def test_ga_heuristic_bound_terms_equal_the_per_block_terms():
    rng = np.random.default_rng(23)
    for seed in range(5):
        check_heuristic_bound_terms(GaBlockProblem(generate_ga_instance(7, 6, seed)), rng)


def test_mc_heuristic_bound_terms_equal_the_per_block_terms_with_mixed_bandwidths():
    rng = np.random.default_rng(29)
    for seed in range(5):
        inst = generate_mc_instance(9, 24, 12, seed)
        assert len({c.bandwidth for c in inst.commodities}) > 1
        check_heuristic_bound_terms(McBlockProblem(inst), rng)
