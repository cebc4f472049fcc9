import dataclasses
import functools
import gc
import hashlib
import math
import pickle
import re
import weakref

import numpy as np
import pytest

from colgen import (STRATEGIES, DwdConfig, FilterMode, McBlockProblem, McParseError,
                    UnroutableCommodityError, generate_mc_instance, parse_mc_instance,
                    rcsp, run_dwd, write_mc_instance)
from colgen import mcflow
from colgen.engine import _RC_CHECK_TOL
from colgen.mcflow import (Arc, Commodity, McInstance, _graph_lists, _label_setting,
                           _potentials)
from colgen.model import PricedBlocks

import oracles


def tiny(text):
    return parse_mc_instance(text)


def pairs(arcs):
    """The (tail, head) pairs that `rcsp` takes."""
    return [(a.tail, a.head) for a in arcs]


DIAMOND = """
# cheap-but-slow lower route, costly-but-fast upper route
nodes 4
arc 0 1 10 1 5    # upper first hop
arc 1 3 10 1 5
arc 0 2 10 4 1    # lower first hop
arc 2 3 10 4 1
commodity 0 3 1 8
"""


def test_parse_basic_fields():
    inst = tiny("nodes 2\narc 0 1 3 1 2\ncommodity 0 1 1.5 9\n")
    assert inst.num_nodes == 2
    assert len(inst.arcs) == 1
    assert inst.arcs[0] == Arc(0, 1, 3.0, 1.0, 2.0)
    assert inst.commodities == (Commodity(0, 1, 1.5, 9.0),)


def test_parse_error_names_line():
    bad = "nodes 5\narc 0 99 1 1 1\n"
    with pytest.raises(McParseError, match="line 2"):
        tiny(bad)
    with pytest.raises(McParseError, match="line 1"):
        tiny("frobnicate 3\n")
    with pytest.raises(McParseError, match="line 2"):
        tiny("nodes 2\narc 0 1 1 1\n")  # one value short
    arc = "arc 0 1 1 1 1\n"
    for text, message in (
            ("nodes 2\nnodes 2\n", "^line 2: duplicate nodes line$"),
            ("nodes 2 3\n", "^line 1: nodes takes one value$"),
            (f"nodes 2\n{arc}commodity 0 1 1\n", "^line 3: commodity takes 4 values$"),
            (arc, "^missing nodes line$"),
            ("nodes 0\n", "^instance needs at least one node$"),
            (f"nodes 2\n{arc}commodity 0 5 1 1\n",
             re.escape("line 3: commodity endpoint out of range: Commodity(source=0, target=5")),
            (f"nodes 2\n{arc}commodity 1 1 1 1\n",
             re.escape("line 3: commodity source and target must differ: Commodity(source=1, "
                       "target=1"))):
        with pytest.raises(McParseError, match=message):
            tiny(text)


def test_parse_rejects_negative_attributes():
    with pytest.raises(McParseError):
        tiny("nodes 2\narc 0 1 -3 1 1\ncommodity 0 1 1 5\n")


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("field", range(5))
def test_nonfinite_attributes_are_rejected(field, value):
    # arc capacity, delay, cost, then commodity bandwidth, budget
    attrs = ["1"] * 5
    attrs[field] = value
    text = "nodes 2\narc 0 1 {} {} {}\ncommodity 0 1 {} {}\n".format(*attrs)
    with pytest.raises(McParseError, match=f"^line {2 if field < 3 else 3}: .*finite"):
        tiny(text)
    nums = [float(x) for x in attrs]
    with pytest.raises(ValueError, match="finite"):
        McInstance(2, (Arc(0, 1, *nums[:3]),), (Commodity(0, 1, *nums[3:]),))


@pytest.mark.parametrize("tail, head, source, target, named", [
    (0, 1.5, 0, 1, "arc"), (False, 1, 0, 1, "arc"), (0, 1.0, 0, 1, "arc"),
    (0, 1, 0, True, "commodity"), (0.0, 1, 0, 1, "arc"), (0, 1, np.float64(0), 1, "commodity"),
])
def test_instance_rejects_non_integer_endpoints(tail, head, source, target, named):
    # a float endpoint once passed the range test and failed in set-up with a
    # TypeError; a bool one failed later still
    arc, commodity = Arc(tail, head, 1.0, 1.0, 1.0), Commodity(source, target, 1.0, 5.0)
    bad = arc if named == "arc" else commodity
    with pytest.raises(ValueError, match=re.escape(
            f"{named} endpoints must be integer node indices: {bad}")):
        McInstance(2, (arc,), (commodity,))


def test_instance_accepts_numpy_integer_endpoints():
    inst = McInstance(2, (Arc(np.int64(0), np.int32(1), 1.0, 1.0, 1.0),),
                      (Commodity(np.intp(0), np.uint8(1), 1.0, 5.0),))
    assert run_dwd(McBlockProblem(inst), DwdConfig()).termination == "optimal"


def test_round_trip_on_generated_instances():
    for seed in range(15):
        inst = generate_mc_instance(8, 18, 5, seed)
        again = parse_mc_instance(write_mc_instance(inst))
        assert again == inst


def test_generator_is_deterministic():
    a = generate_mc_instance(10, 25, 6, 123)
    b = generate_mc_instance(10, 25, 6, 123)
    assert a == b
    c = generate_mc_instance(10, 25, 6, 124)
    assert a != c


# SHA-256 of `write_mc_instance` text per (nodes, arcs, commodities, seed):
# 25/80/50 at seeds 0-19 is the benchmark's `--seed 0` set, 11000-11004 are
# later seeds, and the rest are the smallest shapes and the CI one.  A change
# to the generator must leave every instance as it is
GENERATED_MC = {
    (25, 80, 50, 0): "2c872f7be1f4f1ba14e0186a8e57b51d1cf3fc3020d82b25d27c4cdc6ee376e3",
    (25, 80, 50, 1): "10b63d8b1068d65d45c0b172362e433e792754bff39b7affa15d3b41ca3ed992",
    (25, 80, 50, 2): "63e5c8ff7f0c299ad9e982e02427da098a89bb2014eafd5ce05569321159246f",
    (25, 80, 50, 3): "03f44fb84b79c7593a0f716118054339ec52893a905906e3a3d7cbcba9ff8874",
    (25, 80, 50, 4): "d3eca285cf434b590d09ac33dad061b7d1d8defa67504e4f6c40abe59505d62c",
    (25, 80, 50, 5): "d43d1e8b84f0c70f2a3b0ca5a776ff6f08717ca0b4ae49965dcacc9420827bfd",
    (25, 80, 50, 6): "c6086884f7b0aee83249582779cef587f066e0f5ff733f2ac3b251cfc8019ec1",
    (25, 80, 50, 7): "7ee2ba344421fe56f5d8f1e8a03dc7e1dc780bf256480d11e4b29bc9c72fd0aa",
    (25, 80, 50, 8): "a24d76322550ba31bfabe6c7b9720994d166ad55d6df7960c9a13406861be23c",
    (25, 80, 50, 9): "177ad5b2da92a193de5dea7c43d8d3495b167cffff72b1d85b85773788e66de6",
    (25, 80, 50, 10): "01ed76f347930c9729500be3cb3269d743475c4adaf78145290c3328f2b72efd",
    (25, 80, 50, 11): "e634aed9e4cdba42c8646bebb1fcf9bfe6a6a11348c6851e7bcb6b52575254e0",
    (25, 80, 50, 12): "6b509d85de5ce0b33cf955f4ac164f2dfe4a1419f0f602720d42bc7ded60280f",
    (25, 80, 50, 13): "b83758c2bc1b369b0a5fdc05266609687260b03cfeeaef7c9670a0a5eee5c193",
    (25, 80, 50, 14): "e5a515acad0e869f3634b9012bfa4770c0e0afe61a905142dd188f931348b917",
    (25, 80, 50, 15): "ac35bbeb93bc18df9baa3605e31be26812f22ac3623ebd0d43549b276c7a29b3",
    (25, 80, 50, 16): "31cb6ce18c859ccc8766293e6d000b0c33e982c4147b9dc6f43aef94bfd8775a",
    (25, 80, 50, 17): "04bdb7feb34fa0d68382007fa3ce72a46aa2eda413838df9ae806bc022841439",
    (25, 80, 50, 18): "7f6ef52c90b6ee6eb9904279c992c3a76668838950b1849a270319de64be9334",
    (25, 80, 50, 19): "246f74eefed8631a099e98d2522cb31db43ec9c88382cce04f6cdc8ebc66dc52",
    (25, 80, 50, 11000): "a2be51d8c7275db829d976885098a8171f0fcdc1e8502d95c804bab4f2755f3e",
    (25, 80, 50, 11001): "0d44c1544e8e7329030f215570cc75801502f1540f56640c8ad332881876e021",
    (25, 80, 50, 11002): "687e90ae9055952410779208fbf2f9c7aaa52f0e481cf0dd0ced31ad40aa412f",
    (25, 80, 50, 11003): "bb87ab501e5e2ed52690f2d93a7592a2f7f91029034e2b412285a06f5f7caaed",
    (25, 80, 50, 11004): "e3b7d73d493ddfcebd7272e64af641c916e52241ae3a844cd266aed063831c60",
    (2, 2, 3, 0): "f081391b37d198aa1c09b78c63052a6f3046e9524fe6135f89f75ce636749d2c",
    (3, 40, 0, 0): "c3759bebb669124e053dd4c20d161c09ca0b7ff024613ac11431840bd852b521",
    (100, 400, 200, 0): "81e302b3e864468e5b6d572227ff8e5c6a9ebaee08e0d98cb7375c1746d77bd0",
}


def test_generator_output_is_pinned():
    for (*shape, seed), digest in GENERATED_MC.items():
        text = write_mc_instance(generate_mc_instance(*shape, seed))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (shape, seed)


def test_generator_draws_commodities_as_one_value_at_a_time():
    # blocks of draws stand in for one draw at a time; two and three nodes
    # make a target equal to its source common, which sets a block back
    for shape in ((2, 2, 9), (3, 5, 12), (6, 14, 30), (25, 80, 50)):
        for seed in range(25):
            want = oracles.mc_commodity_draws(*shape, seed)
            inst = generate_mc_instance(*shape, seed)
            assert [(c.source, c.target, c.bandwidth) for c in inst.commodities] == want


def test_generator_needs_ring():
    with pytest.raises(ValueError):
        generate_mc_instance(10, 9, 2, 0)


@pytest.mark.parametrize("shape", [(1, 3, 2), (0, 3, 2), (3, 3, -1)])
def test_generator_rejects_shapes_without_two_nodes_or_commodities(shape):
    # one node once looped forever drawing a second endpoint
    with pytest.raises(ValueError, match="at least 2 nodes"):
        generate_mc_instance(*shape, 0)


def test_rcsp_diamond_picks_fast_route_under_budget():
    inst = tiny(DIAMOND)
    weights = [a.cost for a in inst.arcs]
    delays = [a.delay for a in inst.arcs]
    # budget 8 admits both routes: the cheap slow one wins
    got = rcsp(4, pairs(inst.arcs), weights, delays, 8.0, 0, 3)
    assert got is not None and got[1] == (2, 3)
    # budget 3 excludes the slow route
    got = rcsp(4, pairs(inst.arcs), weights, delays, 3.0, 0, 3)
    assert got is not None
    weight, path = got
    assert path == (0, 1)
    assert weight == pytest.approx(10.0)


def test_rcsp_no_feasible_path():
    inst = tiny(DIAMOND)
    weights = [a.cost for a in inst.arcs]
    delays = [a.delay for a in inst.arcs]
    assert rcsp(4, pairs(inst.arcs), weights, delays, 1.0, 0, 3) is None
    # a source that is its target is reached at once, even on a zero budget
    assert rcsp(4, pairs(inst.arcs), weights, delays, 0.0, 2, 2) == (0.0, ())


def test_rcsp_infinite_budget_matches_networkx():
    rng = np.random.default_rng(4)
    for seed in range(30):
        inst = generate_mc_instance(9, 24, 1, seed)
        weights = np.round(rng.uniform(0.0, 5.0, size=len(inst.arcs)), 3)
        delays = [a.delay for a in inst.arcs]
        s, t = inst.commodities[0].source, inst.commodities[0].target
        got = rcsp(inst.num_nodes, pairs(inst.arcs), weights, delays, np.inf, s, t)
        want = oracles.networkx_shortest(inst.num_nodes, inst.arcs, weights, s, t)
        assert got is not None and want is not None
        assert got[0] == pytest.approx(want, abs=1e-9)


def test_rcsp_matches_path_enumeration():
    rng = np.random.default_rng(77)
    for seed in range(25):
        inst = generate_mc_instance(7, 16, 1, seed)
        delays = [a.delay for a in inst.arcs]
        com = inst.commodities[0]
        for _ in range(4):
            weights = np.round(rng.uniform(0.0, 4.0, size=len(inst.arcs)), 3)
            budget = float(rng.uniform(5.0, 40.0))
            got = rcsp(inst.num_nodes, pairs(inst.arcs), weights, delays, budget,
                       com.source, com.target)
            want = oracles.best_path_by_enumeration(
                inst.num_nodes, inst.arcs, weights, com.source, com.target, budget)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert got[0] == pytest.approx(want, abs=1e-9)


def test_rcsp_lexicographic_tie_break():
    # two identical parallel arcs: the smaller arc index must win
    got = rcsp(2, [(0, 1), (0, 1)], [2.0, 2.0], [1.0, 1.0], 5.0, 0, 1)
    assert got == (2.0, (0,))


def test_potentials_equal_dijkstra_bit_for_bit():
    # float values with zero-weight arcs among them; nodes 12 and 13 have
    # arcs into the ring but none out of it, so no ring node reaches them
    rng = np.random.default_rng(5)
    for seed in range(20):
        inst = generate_mc_instance(12, 40, 1, seed)
        arcs = pairs(inst.arcs) + [(12, 0), (13, 12), (13, 5)]
        values = rng.uniform(0.0, 10.0, size=len(arcs)) * (rng.random(len(arcs)) < 0.8)
        assert (values == 0).any()
        targets = [int(t) for t in rng.permutation(12)[:5]] + [12]
        got = _potentials(14, arcs, values, targets)
        assert got.shape == (6, 14)
        for row, t in zip(got, targets):
            assert row.tobytes() == oracles.min_to_target(14, arcs, values, t).tobytes()
        assert np.isinf(got).any()
        # stacked rows of values run in one pass and settle after different
        # numbers of passes; each comes out as it does alone
        stacked = _potentials(14, arcs, np.stack([values, values[::-1]]), targets)
        assert stacked.shape == (2, 6, 14)
        assert stacked[0].tobytes() == got.tobytes()
        for row, t in zip(stacked[1], targets):
            assert row.tobytes() == oracles.min_to_target(14, arcs, values[::-1], t).tobytes()
    assert _potentials(3, [], [], [1]).tolist() == [[math.inf, 0.0, math.inf]]
    assert _potentials(3, [], np.zeros((2, 0)), [1]).tolist() == [[[math.inf, 0.0, math.inf]]] * 2


def test_label_setting_bounds_return_the_unbounded_result():
    # integer weights, zeros among them, keep every float sum exact and make
    # equal-weight optima common; `lower` is then the exact least weight to
    # the target, and a limit equal to the optimum must keep it
    rng = np.random.default_rng(31)
    ties = 0
    for seed in range(40):
        inst = generate_mc_instance(8, 22, 1, seed)
        arcs = pairs(inst.arcs)
        graph = _graph_lists(inst.num_nodes, arcs)
        weights = rng.integers(0, 3, size=len(arcs)).astype(float)
        delays = [a.delay for a in inst.arcs]
        s, t = inst.commodities[0].source, inst.commodities[0].target
        dmin = oracles.min_to_target(inst.num_nodes, arcs, delays, t).tolist()
        lower = oracles.min_to_target(inst.num_nodes, arcs, weights, t).tolist()
        zeros = [0.0] * inst.num_nodes
        w = weights.tolist()
        for budget in (inst.commodities[0].max_delay, math.inf):
            want = oracles.label_setting_unbounded(*graph, w, delays, dmin, budget, s, t)
            opt = want[0]
            for bound, limit in ((zeros, math.inf), (lower, math.inf), (zeros, opt),
                                 (lower, opt), (lower, opt + 0.5)):
                assert _label_setting(*graph, w, bound, limit, delays, dmin, budget, s, t) == want
            # below the optimum the bound cuts every path
            assert _label_setting(*graph, w, lower, opt - 0.5, delays, dmin, budget, s, t) is None
            paths = oracles.enumerate_simple_paths(inst.num_nodes, inst.arcs, s, t, budget)
            ties += sum(sum(w[a] for a in p) == opt for p in paths) > 1
    assert ties > 10


@pytest.mark.parametrize("case, rng_seed",
                         [("random", 0), ("integer costs", 1), ("loose budgets", 2)])
def test_price_blocks_equals_unbounded_label_setting(monkeypatch, case, rng_seed):
    # one problem per instance priced round after round, so each search is
    # capped by the path the commodity's previous search returned, and the
    # tree bound prices some commodities without one
    rng = np.random.default_rng(rng_seed)
    searches, priced = counted(monkeypatch, "_label_setting"), 0
    for seed in range(3):
        inst = generate_mc_instance(12, 36, 30, seed)
        if case == "integer costs":
            # zero-cost arcs make the cost lower bound 0 at many nodes, and
            # integer weights make equal-weight optima common
            inst = dataclasses.replace(inst, arcs=tuple(
                dataclasses.replace(a, cost=float(c))
                for a, c in zip(inst.arcs, rng.integers(0, 3, size=36))))
        elif case == "loose budgets":
            inst = dataclasses.replace(inst, commodities=tuple(
                dataclasses.replace(c, max_delay=1e9) for c in inst.commodities))
        problem = McBlockProblem(inst)
        arcs = pairs(inst.arcs)
        graph = _graph_lists(inst.num_nodes, arcs)
        costs = np.array([a.cost for a in inst.arcs])
        delays = [a.delay for a in inst.arcs]
        for _ in range(6):
            if case == "integer costs":
                pi = rng.integers(0, 2, size=36) - 1e-9 * rng.random(36)
            else:
                pi = np.round(rng.uniform(-0.01, 3.0, size=36), 3)
            mu = rng.uniform(0.0, 50.0, size=30)
            blocks = [int(k) for k in rng.permutation(30)[:20]]
            got = problem.price_blocks(blocks, pi, mu)
            priced += len(blocks)
            for i, k in enumerate(blocks):
                c = inst.commodities[k]
                dmin = oracles.min_to_target(inst.num_nodes, arcs, delays, c.target).tolist()
                weights = (c.bandwidth * (costs + np.maximum(pi, 0.0))).tolist()
                _, path = oracles.label_setting_unbounded(*graph, weights, delays, dmin,
                                                          c.max_delay, c.source, c.target)
                assert got.column(i).native == path
                cbar = c.bandwidth * sum((costs + pi).tolist()[a] for a in path) - float(mu[k])
                assert got.reduced_costs[i] == cbar
        if case == "integer costs":
            hcost = np.array(inst._routing.hcost)
            assert (hcost == 0).sum() > hcost.shape[0]
    # some commodities were searched and some priced by their tree paths
    assert 0 < len(searches) < priced


def test_problem_is_freed_without_the_cycle_collector():
    # a problem in a reference cycle outlives its run until the cycle
    # collector happens to run, and a sweep's problems pile up in memory
    problem = McBlockProblem(generate_mc_instance(25, 80, 50, 0))
    ref = weakref.ref(problem)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for mode in FilterMode:
            run_dwd(problem, DwdConfig(mode=mode))
        del problem
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_pricing_zero_duals_is_plain_rcsp():
    inst = tiny(DIAMOND)
    problem = McBlockProblem(inst)
    cbar, col = problem.solve_pricing(0, np.zeros(4), 0.0)
    assert cbar == pytest.approx(2.0)  # bandwidth 1 x cheapest route cost 2
    assert col.native == (2, 3)


def test_pricing_single_arc_arithmetic():
    inst = tiny("nodes 2\narc 0 1 10 1 2\ncommodity 0 1 3 5\n")
    problem = McBlockProblem(inst)
    cbar, col = problem.solve_pricing(0, np.array([1.0]), 10.0)
    assert cbar == pytest.approx(3 * (2 + 1) - 10)
    assert col.cost == pytest.approx(3 * 2)
    assert col.coeffs == ((0, -3.0),)


def test_pricing_matches_enumeration_on_random_duals():
    rng = np.random.default_rng(8)
    inst = generate_mc_instance(7, 15, 3, 2)
    problem = McBlockProblem(inst)
    delays = [a.delay for a in inst.arcs]
    for _ in range(60):
        pi = np.round(rng.uniform(0.0, 3.0, size=len(inst.arcs)), 3)
        mu = float(np.round(rng.uniform(-5.0, 5.0), 3))
        k = int(rng.integers(3))
        com = inst.commodities[k]
        cbar, col = problem.solve_pricing(k, pi, mu)
        weights = [com.bandwidth * (a.cost + p) for a, p in zip(inst.arcs, pi)]
        want = oracles.best_path_by_enumeration(
            inst.num_nodes, inst.arcs, weights, com.source, com.target, com.max_delay)
        assert want is not None
        assert cbar == pytest.approx(want - mu, abs=1e-9)
        assert oracles.path_delay(inst, col.native) <= com.max_delay + 1e-9


# instances where the tree bound of pricing fires, and where it must not:
# (text, whether zero duals price the commodity by its tree path)
TREE_CASES = {
    # the cheapest path (2, 3) costs 2, and any other at least 10
    "fires": (DIAMOND, True),
    # the cheapest path takes delay 8, over the budget of 3
    "over budget": (DIAMOND.replace("commodity 0 3 1 8", "commodity 0 3 1 3"), False),
    # two parallel arcs of equal cost: the lexicographic rule picks arc 0
    "parallel tie": ("nodes 3\narc 0 1 10 1 2\narc 0 1 10 1 2\narc 1 2 10 1 1\n"
                     "commodity 0 2 2 5\n", False),
    # two two-arc paths of equal cost and delay
    "diamond tie": ("nodes 4\narc 0 2 10 1 1\narc 0 1 10 1 1\narc 1 3 10 1 1\n"
                    "arc 2 3 10 1 1\ncommodity 0 3 1 5\n", False),
    # arcs 1 and 2 form a cycle of zero cost and delay, and each ties the
    # arc to the target, so the tree walks 1, 2, 1, ... on both layers
    "zero cycle": ("nodes 4\narc 0 1 10 1 1\narc 1 2 10 0 0\narc 2 1 10 0 0\n"
                   "arc 1 3 10 1 1\narc 2 3 10 1 1\ncommodity 0 3 1 10\n", False),
    # arc 0 leads to a node that reaches no target: an infinite potential,
    # and the one path to node 2 has no rival at all
    "dead end": ("nodes 4\narc 0 3 10 1 0\narc 0 1 10 1 1\narc 1 2 10 1 1\n"
                 "commodity 0 2 1 5\ncommodity 0 3 2 5\n", True),
}


@pytest.mark.parametrize("case", list(TREE_CASES))
def test_price_blocks_equals_rcsp_where_the_tree_bound_fires_and_where_not(monkeypatch, case):
    text, fires = TREE_CASES[case]
    inst = tiny(text)
    problem = McBlockProblem(inst)
    searches = counted(monkeypatch, "_label_setting")
    num = len(inst.commodities)
    costs = np.array([a.cost for a in inst.arcs])
    delays = [a.delay for a in inst.arcs]
    rng = np.random.default_rng(3)
    # zero duals, then duals on every arc, then large ones on the tree paths
    tree_arcs = np.zeros(len(costs))
    tree_arcs[[a for p in inst._routing.tree for a in p]] = 20.0
    for pi in (np.zeros(len(costs)), np.round(rng.uniform(-0.01, 3.0, len(costs)), 3),
               tree_arcs):
        mu = rng.uniform(0.0, 10.0, size=num)
        before = len(searches)
        got = problem.price_blocks(range(num), pi, mu)
        ran = len(searches) - before
        if not pi.any():
            assert ran == (0 if fires else num)
        for k, c in enumerate(inst.commodities):
            weights = c.bandwidth * (costs + np.maximum(pi, 0.0))
            _, path = rcsp(inst.num_nodes, pairs(inst.arcs), weights, delays, c.max_delay,
                           c.source, c.target)
            assert got.column(k).native == path
            cbar = c.bandwidth * sum((costs + pi).tolist()[a] for a in path) - float(mu[k])
            assert got.reduced_costs[k] == cbar
    if case == "fires":
        # a surcharge of 40 on the tree path lifts it over the rival
        assert problem.price_blocks([0], tree_arcs, [0.0]).column(0).native == (0, 1)
    if case == "parallel tie":
        assert problem.price_blocks([0], np.zeros(3), [0.0]).column(0).native == (0, 2)


def test_tree_paths_never_certify_a_cycle_or_an_unreachable_target():
    # nodes 1 and 2 form a zero cycle that ties the arcs to node 4, so the
    # walk from 0 to 4 loops until its cap; node 3 reaches nothing, so node
    # 0 is unreachable from it
    arcs = [(0, 1), (1, 2), (2, 1), (1, 4), (2, 4), (0, 3)]
    values = np.array([[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]] * 2)
    targets = [4, 0]
    potentials = _potentials(5, arcs, values, targets)
    assert np.isinf(potentials[:, 1, 3]).all()
    paths, headroom = mcflow._tree_paths(arcs, values, potentials, np.array([0, 1]),
                                         np.array([0, 3]), np.array(targets),
                                         np.array([100.0, 100.0]))
    assert paths == [[(), ()], [(), ()]] and (headroom == -np.inf).all()
    with pytest.raises(UnroutableCommodityError):
        McBlockProblem(McInstance(5, tuple(Arc(t, h, 1.0, 1.0, 1.0) for t, h in arcs),
                                  (Commodity(0, 3, 1.0, 9.0), Commodity(3, 0, 1.0, 9.0))))


def test_initial_paths_equal_fresh_min_delay_searches():
    # the set-up reads most initial paths off the delay tree; each must be
    # the path its own search returns
    for (*shape, seed) in GENERATED_MC:
        inst = generate_mc_instance(*shape, seed)
        r = inst._routing
        for k, com in enumerate(inst.commodities):
            found = mcflow._min_delay_path(r.graph, r.delays, r.dmin[r.commodities[k][2]],
                                           com.max_delay, com.source, com.target)
            assert found[1] == r.initial.native[k], (shape, seed, k)


def initial_columns(problem):
    """`problem.initial_columns()` as `Column`s, after checking that its
    arrays are, byte for byte, `PricedBlocks.from_columns` of the columns
    an oracle builds by hand along its paths."""
    priced = problem.initial_columns()
    cols = [oracles.path_column(problem.inst, k, path) for k, path in enumerate(priced.native)]
    ref = PricedBlocks.from_columns(range(len(cols)), [(0.0, c) for c in cols])
    for name in ("blocks", "reduced_costs", "costs", "ptr", "rows", "vals"):
        assert getattr(priced, name).tobytes() == getattr(ref, name).tobytes(), name
    assert [priced.column(i) for i in range(len(cols))] == cols
    return cols


def test_initial_columns_are_min_delay_paths():
    inst = generate_mc_instance(8, 20, 5, 3)
    problem = McBlockProblem(inst)
    cols = initial_columns(problem)
    assert len(cols) == len(inst.commodities)
    for k, col in enumerate(cols):
        com = inst.commodities[k]
        assert col.block == k
        assert oracles.path_delay(inst, col.native) <= com.max_delay + 1e-9
        assert col.cost == pytest.approx(com.bandwidth * oracles.path_cost(inst, col.native))


def test_initial_columns_match_public_rcsp():
    for seed in range(3):
        inst = generate_mc_instance(25, 80, 50, seed)
        delays = [a.delay for a in inst.arcs]
        for k, col in enumerate(initial_columns(McBlockProblem(inst))):
            com = inst.commodities[k]
            _, path = rcsp(inst.num_nodes, pairs(inst.arcs), delays, delays, com.max_delay,
                           com.source, com.target)
            assert col.native == path


class ClampShiftRecorder(McBlockProblem):
    """Records, per pricing call, the most that clamping the capacity duals
    at zero can shift the reduced cost of any path: b * sum |min(pi, 0)|."""

    def __init__(self, inst):
        super().__init__(inst)
        self.shifts = []

    def price_blocks(self, blocks, pi, mu):
        for k in blocks:
            b = self.inst.commodities[k].bandwidth
            self.shifts.append(b * float(np.abs(np.minimum(pi, 0.0)).sum()))
        return super().price_blocks(blocks, pi, mu)


def test_dual_clamp_shifts_no_reduced_cost_past_the_audit_tolerance():
    # pricing searches paths on max(pi, 0) but reports cbar at the raw duals;
    # the two agree up to the shift recorded here
    for seed in range(5):
        for mode in FilterMode:
            problem = ClampShiftRecorder(generate_mc_instance(25, 80, 50, seed))
            result = run_dwd(problem, DwdConfig(mode=mode))
            want = "converged" if mode is FilterMode.HEURISTIC else "optimal"
            assert result.termination == want
            assert problem.shifts and max(problem.shifts) < _RC_CHECK_TOL


def test_unroutable_commodity_rejected_before_solving():
    text = "nodes 2\narc 0 1 5 9 1\ncommodity 0 1 1 2\n"  # delay 9 > budget 2
    inst = parse_mc_instance(text)
    # a failed set-up caches nothing, so every build from the instance fails
    for _ in range(3):
        with pytest.raises(UnroutableCommodityError):
            McBlockProblem(inst)


def test_support_set_grows_by_union():
    inst = tiny(DIAMOND)
    problem = McBlockProblem(inst)
    assert problem.support_set(0).tolist() == [False] * 4
    oracles.register_one_by_one(problem, [oracles.path_column(inst, 0, (0, 1))])
    assert np.flatnonzero(problem.support_set(0)).tolist() == [0, 1]
    oracles.register_one_by_one(problem, [oracles.path_column(inst, 0, (2, 3))])
    assert np.flatnonzero(problem.support_set(0)).tolist() == [0, 1, 2, 3]


def test_register_columns_batch_is_the_union_of_its_columns():
    rng = np.random.default_rng(4)
    for seed in range(4):
        inst = generate_mc_instance(8, 20, 6, seed)
        # arc sets, not paths: support sets read only a column's rows
        oracles.check_batch_registration(lambda: McBlockProblem(inst),
                                         functools.partial(oracles.path_column, inst),
                                         6, 20, rng)


def test_hypercube_term_matches_brute_force():
    rng = np.random.default_rng(21)
    for seed in range(12):
        inst = generate_mc_instance(6, 11, 2, seed)
        problem = McBlockProblem(inst)
        num_arcs = len(inst.arcs)
        for _ in range(4):
            pi_prev = np.round(rng.uniform(0.0, 3.0, size=num_arcs), 3)
            pi_now = np.round(rng.uniform(0.0, 3.0, size=num_arcs), 3)
            k = int(rng.integers(2))
            b = inst.commodities[k].bandwidth
            # block coefficients are -b on every capacity row
            d = (pi_prev - pi_now) * (-b)
            want = oracles.hypercube_brute(d)
            got = problem.hypercube_bound_term(k, pi_prev, pi_now)
            assert got == pytest.approx(want, abs=1e-9)
            heur = problem.heuristic_bound_term(
                k, pi_prev, pi_now, problem.support_set(k))
            assert heur >= got - 1e-12


def test_shape_property():
    inst = generate_mc_instance(8, 20, 5, 1)
    assert inst.shape == (8, 20, 5)


# ----------------------------------------------------------------------
# set-up shared by the problems of one instance

def counted(monkeypatch, name):
    """Count the calls to `mcflow.<name>` from now on."""
    calls = []
    real = getattr(mcflow, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(mcflow, name, wrapper)
    return calls


def solve(problem, strategy):
    mode, selection = STRATEGIES[strategy]
    return run_dwd(problem, DwdConfig(mode=mode, strategy=selection))


def outcome(result):
    """Everything a run reports but its times."""
    stats = {k: v for k, v in dataclasses.asdict(result.stats).items() if not k.endswith("_s")}
    return (repr(result.objective), result.termination, stats, result.per_block_added,
            result.column_values.tobytes(), result.columns)


def uncertified(inst):
    """How many commodities' min-delay tree paths the set-up does not
    certify, so that it searches them."""
    r = inst._routing
    rows = np.array([c[2] for c in r.commodities], dtype=np.intp)
    ends = [np.array([getattr(c, end) for c in inst.commodities], dtype=np.intp)
            for end in ("source", "target")]
    _, headroom = mcflow._tree_paths(
        pairs(inst.arcs), np.array([r.delays, r.costs]), np.array([r.dmin, r.hcost]), rows,
        *ends, np.array([c.max_delay for c in inst.commodities]) + mcflow.DELAY_TOL)
    return int((headroom[0] <= 0).sum())


def test_setup_runs_once_per_instance(monkeypatch):
    potentials = counted(monkeypatch, "_potentials")
    searches = counted(monkeypatch, "_min_delay_path")
    validated = []
    check = McInstance.__post_init__

    def counted_check(inst):
        validated.append(inst)
        check(inst)

    monkeypatch.setattr(McInstance, "__post_init__", counted_check)
    inst = generate_mc_instance(25, 80, 50, 7)
    # one pass for the least delays and costs to all targets, which set the
    # budgets and go into the set-up the instance keeps, one search per
    # commodity whose min-delay tree path is not certified, and one instance
    # built and checked: the returned one
    want = uncertified(inst)
    assert len(potentials) == 1
    assert len(searches) == want
    assert len(validated) == 1 and validated[0] is inst
    problems = [McBlockProblem(inst) for _ in range(3)]
    for problem in problems:
        solve(problem, "exact-all")
    assert len(potentials) == 1 and len(searches) == want
    # a parsed copy builds its own on its first problem, once
    parsed = parse_mc_instance(write_mc_instance(inst))
    for _ in range(2):
        McBlockProblem(parsed)
    assert len(potentials) == 2 and len(searches) == 2 * want


def test_setup_searches_the_uncertified_commodities_only(monkeypatch):
    # delays of 1 to 3 tie many min-delay paths, and the set-up searches
    # those commodities, once for all problems of the instance
    base = generate_mc_instance(25, 80, 50, 7)
    inst = McInstance(base.num_nodes, tuple(
        dataclasses.replace(a, delay=float(1 + i % 3)) for i, a in enumerate(base.arcs)),
        tuple(dataclasses.replace(c, max_delay=100.0) for c in base.commodities))
    searches = counted(monkeypatch, "_min_delay_path")
    for _ in range(2):
        McBlockProblem(inst)
    assert 0 < len(searches) == uncertified(inst) < len(inst.commodities)


def test_problems_of_one_instance_share_no_state():
    # problem A's runs move its incumbent paths and grow its supports; a
    # later problem of the same instance must run as one of a fresh copy
    # does.  Supports shared through the instance change a heur-all run on
    # seed 1.
    for seed in range(3):
        inst = generate_mc_instance(25, 80, 50, seed)
        first = McBlockProblem(inst)
        for strategy in ("baseline", "heur-all"):
            solve(first, strategy)
        for strategy in ("heur-all", "exact-all", "baseline"):
            fresh = parse_mc_instance(write_mc_instance(inst))
            assert "_routing" not in vars(fresh)
            assert outcome(solve(McBlockProblem(inst), strategy)) == \
                outcome(solve(McBlockProblem(fresh), strategy))


def shared_arrays(inst):
    routing = inst._routing
    return [routing.costs, routing.bandwidths,
            *(getattr(routing.initial, name) for name in (
                "blocks", "reduced_costs", "costs", "ptr", "rows", "vals"))]


def test_shared_arrays_are_read_only():
    inst = generate_mc_instance(8, 20, 6, 2)
    problem = McBlockProblem(inst)
    # the initial columns are the instance's own, handed out as they are
    assert problem.initial_columns() is inst._routing.initial
    for arr in shared_arrays(inst):
        assert arr.size > 0
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]
    # the problem's own state stays writable
    problem.register_columns(np.array([0]), np.array([1]))
    assert problem.support_set(0)[1]


def test_instance_with_set_up_equals_its_parsed_copy_and_pickles():
    inst = generate_mc_instance(12, 36, 10, 4)
    McBlockProblem(inst)
    assert "_routing" in vars(inst)
    copy = parse_mc_instance(write_mc_instance(inst))
    assert inst == copy and hash(inst) == hash(copy)
    again = pickle.loads(pickle.dumps(inst))
    assert again == inst and hash(again) == hash(inst)
    # the set-up travels with the instance, read-only as before
    assert "_routing" in vars(again)
    assert again._routing.initial.native == inst._routing.initial.native
    for arr in shared_arrays(again):
        assert not arr.flags.writeable
    for strategy in ("baseline", "heur-all"):
        assert outcome(solve(McBlockProblem(again), strategy)) == \
            outcome(solve(McBlockProblem(copy), strategy))


def same(got, want):
    """Arrays equal by dtype, shape and bytes; tuples item by item; anything
    else by type and `==`."""
    if isinstance(want, np.ndarray):
        return (isinstance(got, np.ndarray) and got.dtype == want.dtype
                and got.shape == want.shape and got.tobytes() == want.tobytes())
    if isinstance(want, tuple):
        return (isinstance(got, tuple) and len(got) == len(want)
                and all(same(g, w) for g, w in zip(got, want)))
    return type(got) is type(want) and got == want


def test_generated_set_up_equals_its_parsed_copys():
    # the generator builds the set-up from its own arrays, not from an
    # instance; every field must be what a parsed copy builds for itself
    for (*shape, seed) in GENERATED_MC:
        inst = generate_mc_instance(*shape, seed)
        got = inst._routing
        want = mcflow._Routing.of(parse_mc_instance(write_mc_instance(inst)))
        for field in dataclasses.fields(got):
            if field.name != "initial":
                assert same(getattr(got, field.name), getattr(want, field.name)), \
                    (shape, seed, field.name)
        for field in dataclasses.fields(got.initial):
            assert same(getattr(got.initial, field.name), getattr(want.initial, field.name)), \
                (shape, seed, "initial", field.name)
