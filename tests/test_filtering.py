import numpy as np
import pytest

from colgen import FilterMode, PricingHistory, RowSense, Strategy, exact_bound, should_filter
from colgen.filtering import negative_part_sum
from colgen.model import BlockProblem, Column, PricedBlocks

import oracles


class BoxProblem(BlockProblem):
    """Minimal plug-in whose linking coefficients are +1 on every row.

    Its batch terms are the oracle loops over the per-block terms below.
    """

    bound_terms = oracles.bound_terms_by_loop
    heuristic_bound_terms = oracles.heuristic_bound_terms_by_loop

    def __init__(self, rows, support_rows=()):
        self.rows = rows
        self._support = np.zeros(rows, dtype=bool)
        self._support[list(support_rows)] = True

    @property
    def num_blocks(self):
        return 1

    def linking_rows(self):
        return [(RowSense.GE, 0.0)] * self.rows

    def convexity_sense(self, block):
        return RowSense.GE

    def initial_columns(self):
        return PricedBlocks.from_columns([0], [(0.0, Column(0, 0.0, ()))])

    def price_blocks(self, blocks, pi, mu):
        raise AssertionError("filter tests never price")

    def hypercube_bound_term(self, block, pi_prev, pi_now):
        return negative_part_sum(pi_prev - pi_now)

    def heuristic_bound_term(self, block, pi_prev, pi_now, support):
        return negative_part_sum((pi_prev - pi_now)[support])

    def support_set(self, block):
        return self._support


def test_negative_part_sum_examples():
    assert negative_part_sum(np.array([3.0, -1.0, -4.0])) == pytest.approx(-5.0)
    assert negative_part_sum(np.zeros(4)) == 0.0
    assert negative_part_sum(np.array([2.0, 1.0])) == 0.0


def test_restricted_sum_examples():
    d = np.array([-1.0, -4.0])
    assert negative_part_sum(d[np.array([True, False])]) == pytest.approx(-1.0)
    assert negative_part_sum(d[np.zeros(2, dtype=bool)]) == 0.0
    assert negative_part_sum(d[np.ones(2, dtype=bool)]) == negative_part_sum(d)


def test_exact_bound_is_record_cost_at_zero_drift():
    # same iteration: no mu drift, no term -> exactly the stored value
    assert exact_bound(-7.25, 1.5, 1.5, 0.0) == -7.25


def test_exact_bound_arithmetic():
    assert exact_bound(5.0, 2.0, 2.0, -2.0) == pytest.approx(3.0)
    # convexity drift enters as mu(l) - mu(t), whatever the row's sense: a
    # >= row's dual falling from 2 to 0 raises the bound, and a <= row's
    # (nonpositive) dual rising from -2 to 0 lowers it
    assert exact_bound(5.0, 2.0, 0.0, 0.0) == pytest.approx(7.0)
    assert exact_bound(5.0, -2.0, 0.0, 0.0) == pytest.approx(3.0)
    # elementwise on arrays
    got = exact_bound(np.array([5.0, 5.0]), np.array([2.0, -2.0]), np.zeros(2), np.zeros(2))
    assert got.tolist() == [7.0, 3.0]


def history(*records, rows=2, retain=None, pis=None):
    """A `PricingHistory` of one block's (iteration, reduced cost[, mu])
    records, at linking duals `pis[iteration]` (zeros by default)."""
    hist = PricingHistory(1, rows, retain)
    for it, cbar, *mu in records:
        pi = np.zeros(rows) if pis is None else pis[it]
        hist.record(it, np.array([0]), np.array([cbar]), np.array(mu or [0.0]), pi)
    return hist


def run_filter(problem, hist, pi_now, mode, strategy, mu_now=0.0, epsilon=1e-4):
    """Block 0's part of a batch screening, in the per-block oracle's form."""
    terms = problem.bound_terms if mode is FilterMode.EXACT else problem.heuristic_bound_terms
    screen = should_filter(hist, pi_now, np.array([mu_now]), terms, strategy, epsilon)
    return block_decision(screen, 0)


def block_decision(screen, k):
    """Block k's part of a batch `Screening` as an `oracles.FilterDecision`,
    whose `bounds` list the batch form does not keep."""
    evaluated = int(screen.evaluated[k])
    return oracles.FilterDecision(
        k, bool(screen.skipped[k]), float(screen.best_bound[k]) if evaluated else None,
        int(screen.record_used[k]) if evaluated else None, evaluated,
        int(screen.evicted[k]), None)


def record_spy(terms, pis):
    """`terms` that also logs, per call, the iteration of `pis` (iteration:
    linking duals, all distinct) whose row its `pi_prev` is."""
    read = []

    def spy(pi_prev, pi_now):
        read.append(next(it for it, pi in pis.items() if np.array_equal(pi, pi_prev)))
        return terms(pi_prev, pi_now)
    return spy, read


def tried(strategy, *records, epsilon=1e-4):
    """Iterations whose records `strategy` tries, in the order it tries
    them, when no bound clears."""
    pis = {it: np.full(2, float(it)) for it, *_ in records}
    terms, read = record_spy(BoxProblem(2).bound_terms, pis)
    screen = should_filter(history(*records, pis=pis), np.zeros(2), np.array([1e3]), terms,
                           strategy, epsilon)
    assert not screen.skip and screen.evaluated.tolist() == [len(read)]
    return read


def test_select_records_all_newest_first():
    assert tried(Strategy.ALL, (1, -3.0), (4, 2.0), (6, -1.0)) == [6, 4, 1]


def test_select_records_computed_takes_newest():
    assert tried(Strategy.COMPUTED, (1, -3.0), (4, 2.0)) == [4]


def test_select_records_add_takes_newest_improving():
    assert tried(Strategy.ADD, (1, -3.0), (4, 2.0)) == [1]
    assert tried(Strategy.ADD, (2, 0.5), (3, 1.0)) == []
    # the negativity test uses the same epsilon as the engine
    assert tried(Strategy.ADD, (2, -5e-5), epsilon=1e-4) == []


def test_select_records_empty_history():
    for strategy in Strategy:
        assert tried(strategy) == []


def test_baseline_never_skips():
    # the engine makes no screening call in baseline; the reference filter
    # says why: in baseline mode it skips nothing
    # hugely nonnegative: any bound would skip
    hist = [oracles.PricingRecord(1, 100.0, 0.0, np.zeros(2))]
    fd = oracles.should_filter(0, hist, 2, None, 0.0, None, FilterMode.BASELINE, Strategy.ALL,
                               1e-4)
    assert fd == oracles.FilterDecision(0, False, None, None, 0, 0, ())
    assert fd.decision == "priced"


def test_short_circuit_on_first_good_bound():
    problem = BoxProblem(2)
    pi = np.zeros(2)
    fd = run_filter(problem, history((1, 3.0), (2, 5.0)), pi, FilterMode.EXACT, Strategy.ALL)
    assert fd.skip and fd.decision == "filtered"
    assert fd.bounds_evaluated == 1  # newest record already proves it
    assert fd.record_used == 2
    assert fd.best_bound == pytest.approx(5.0)


def test_all_bounds_negative_means_priced():
    fd = run_filter(BoxProblem(2), history((1, -9.0)), np.zeros(2), FilterMode.EXACT,
                    Strategy.ALL)
    assert not fd.skip
    assert fd.decision == "priced"
    assert fd.bounds_evaluated == 1
    assert fd.best_bound == pytest.approx(-9.0)


def test_skip_requires_bound_at_least_minus_epsilon():
    problem = BoxProblem(1)
    fd = run_filter(problem, history((1, -5e-5), rows=1), np.zeros(1),
                    FilterMode.EXACT, Strategy.ALL, epsilon=1e-4)
    assert fd.skip  # -5e-5 >= -1e-4
    fd = run_filter(problem, history((1, -2e-4), rows=1), np.zeros(1),
                    FilterMode.EXACT, Strategy.ALL, epsilon=1e-4)
    assert not fd.skip


def test_evicted_records_are_passed_over():
    problem = BoxProblem(2)
    # screening at iteration 2 with one retained vector, the current one:
    # iteration 1's duals are gone
    fd = run_filter(problem, history((1, 50.0), retain=1), np.ones(2),
                    FilterMode.EXACT, Strategy.ALL)
    assert not fd.skip
    assert fd.records_evicted == 1
    assert fd.bounds_evaluated == 0
    assert fd.decision == "skipped-evicted"


def test_mixed_evicted_and_live_records():
    problem = BoxProblem(2)
    # screening at iteration 3 keeps the current vector and iteration 2's
    fd = run_filter(problem, history((1, 50.0), (2, 50.0), retain=2), np.zeros(2),
                    FilterMode.EXACT, Strategy.ALL)
    assert fd.skip
    assert fd.records_evicted == 0  # newest record hit first, short-circuit
    fd_add = run_filter(problem, history((1, -50.0), (2, 50.0), retain=2),
                        np.zeros(2), FilterMode.EXACT, Strategy.ADD)
    # ADD wants iteration 1 (the improving one) but its duals are gone
    assert not fd_add.skip
    assert fd_add.records_evicted == 1
    assert fd_add.decision == "skipped-evicted"


def test_heuristic_uses_support_restriction():
    # dual drop of -4 lives on row 1, outside the support set {0}
    problem = BoxProblem(2, support_rows=[0])
    pi_now = np.array([1.0, 8.0])
    hist = history((1, 2.0), pis={1: np.array([1.0, 4.0])})
    exact = run_filter(problem, hist, pi_now, FilterMode.EXACT, Strategy.ALL)
    heur = run_filter(problem, hist, pi_now, FilterMode.HEURISTIC, Strategy.ALL)
    assert not exact.skip      # bound = 2 + min(0, 4-8) = -2
    assert heur.skip           # restricted term drops the -4
    assert heur.best_bound == pytest.approx(2.0)


def test_bound_terms_nonpositive_and_zero_at_equal_duals():
    rng = np.random.default_rng(11)
    problem = BoxProblem(6, support_rows=[0, 2, 5])
    support = problem.support_set(0)
    for _ in range(200):
        a = rng.normal(size=6)
        b = rng.normal(size=6)
        exact = problem.hypercube_bound_term(0, a, b)
        heur = problem.heuristic_bound_term(0, a, b, support)
        assert exact <= 0.0 and heur <= 0.0
        assert heur >= exact  # restriction can only drop negative contributions
        assert problem.hypercube_bound_term(0, a, a) == 0.0
        assert problem.heuristic_bound_term(0, a, a, support) == 0.0


def test_strategy_nesting_on_random_states():
    # whenever COMPUTED or ADD can skip, ALL (a superset of records) can too
    rng = np.random.default_rng(99)
    for _ in range(300):
        rows = int(rng.integers(1, 5))
        problem = BoxProblem(rows)
        t_max = int(rng.integers(2, 7))
        pis = {t: np.round(rng.normal(scale=2.0, size=rows), 2) for t in range(1, t_max + 1)}
        hist = history(*[(t, float(np.round(rng.normal(scale=3.0), 2)),
                          float(np.round(rng.normal(), 2))) for t in range(1, t_max)],
                       rows=rows, pis=pis)
        pi_now = pis[t_max]
        mu_now = float(np.round(rng.normal(), 2))
        results = {strategy: run_filter(problem, hist, pi_now, FilterMode.EXACT,
                                        strategy, mu_now=mu_now)
                   for strategy in Strategy}
        if results[Strategy.COMPUTED].skip:
            assert results[Strategy.ALL].skip
        if results[Strategy.ADD].skip:
            assert results[Strategy.ALL].skip


def test_filter_is_pure():
    problem = BoxProblem(2)
    hist = history((1, 3.0), pis={1: np.ones(2)})
    pi = np.zeros(2)
    first = run_filter(problem, hist, pi, FilterMode.EXACT, Strategy.ALL)
    second = run_filter(problem, hist, pi, FilterMode.EXACT, Strategy.ALL)
    assert first == second
    assert hist.reduced_costs.tolist() == [[3.0]]
    assert hist.linking_duals.tolist() == [[1.0, 1.0]] and hist.iterations == 1
    assert pi.tolist() == [0.0, 0.0]


class CountingBoxProblem(BoxProblem):
    """`BoxProblem` with two blocks that counts the calls behind each term."""

    def __init__(self, rows, support_rows=()):
        super().__init__(rows, support_rows)
        self.calls = {"bound_terms": 0, "heuristic_bound_terms": 0, "heuristic_bound_term": 0,
                      "support_set": 0}

    @property
    def num_blocks(self):
        return 2

    def bound_terms(self, pi_prev, pi_now):
        self.calls["bound_terms"] += 1
        return super().bound_terms(pi_prev, pi_now)

    def heuristic_bound_terms(self, pi_prev, pi_now):
        self.calls["heuristic_bound_terms"] += 1
        return super().heuristic_bound_terms(pi_prev, pi_now)

    def heuristic_bound_term(self, block, pi_prev, pi_now, support):
        self.calls["heuristic_bound_term"] += 1
        return super().heuristic_bound_term(block, pi_prev, pi_now, support)

    def support_set(self, block):
        self.calls["support_set"] += 1
        return super().support_set(block)


def two_block_history(*records):
    """Both blocks priced to `cbar` at linking duals `pi` at each (iteration,
    cbar, pi) of `records`."""
    hist = PricingHistory(2, 3)
    for it, cbar, pi in records:
        hist.record(it, np.array([0, 1]), np.full(2, cbar), np.zeros(2), pi)
    return hist


def test_exact_lookup_computes_one_row_per_record_iteration():
    problem = CountingBoxProblem(3)
    pis = {1: np.array([1.0, 0.0, 2.0]), 2: np.array([0.0, 3.0, 1.0])}
    pi_now = np.array([2.0, 1.0, 1.0])
    # no bound clears, so every block reads both record iterations, newest
    # first, from one row each
    terms, read = record_spy(problem.bound_terms, pis)
    screen = should_filter(two_block_history((1, -50.0, pis[1]), (2, -50.0, pis[2])), pi_now,
                           np.zeros(2), terms, Strategy.ALL, 1e-4)
    assert read == [2, 1]
    assert screen.evaluated.tolist() == [2, 2] and not screen.skipped.any()
    for block in (0, 1):
        lbs = {it: -50.0 + problem.hypercube_bound_term(block, pis[it], pi_now) for it in (2, 1)}
        # the best bound, the newer record's on a tie: it is read first
        used = 2 if lbs[2] >= lbs[1] else 1
        assert screen.best_bound[block] == lbs[used] and screen.record_used[block] == used
    assert problem.calls["bound_terms"] == 2
    assert problem.calls["heuristic_bound_terms"] == 0


def test_heuristic_lookup_fetches_each_support_once():
    # one heuristic_bound_terms row per record iteration: the oracle loop
    # fetches each block's support once for it, however many blocks read it
    problem = CountingBoxProblem(3, support_rows=[1])
    hist = two_block_history((1, 0.5, np.array([1.0, 0.0, 2.0])))
    screen = should_filter(hist, np.array([2.0, 1.0, 1.0]), np.zeros(2),
                           problem.heuristic_bound_terms, Strategy.ALL, 1e-4)
    # one bound each, from iteration 1, on row 1 alone: 0.5 + (0 - 1)
    assert screen.evaluated.tolist() == [1, 1] and screen.record_used.tolist() == [1, 1]
    assert screen.best_bound.tolist() == [-0.5, -0.5]
    assert problem.calls == {"bound_terms": 0, "heuristic_bound_terms": 1,
                             "heuristic_bound_term": 2, "support_set": 2}


# ----------------------------------------------------------------------
# the batch screening against the per-block reference filter

class GridProblem(BoxProblem):
    """Blocks with their own linking weights and support sets, all on a
    grid of quarters, so that bounds tie with -epsilon exactly."""

    def __init__(self, weights, support):
        super().__init__(weights.shape[1])
        self.weights, self.support = weights, support

    @property
    def num_blocks(self):
        return len(self.weights)

    def hypercube_bound_term(self, block, pi_prev, pi_now):
        return negative_part_sum(self.weights[block] * (pi_prev - pi_now))

    def heuristic_bound_term(self, block, pi_prev, pi_now, support):
        return negative_part_sum((self.weights[block] * (pi_prev - pi_now))[support])

    def support_set(self, block):
        return self.support[block]


def random_screening_state(rng, retain):
    """A random problem, history (both forms), current iteration and duals."""
    num_blocks, rows = int(rng.integers(1, 7)), int(rng.integers(1, 4))
    grid = lambda lo, hi, size=None: rng.integers(lo, hi + 1, size=size) / 4.0
    problem = GridProblem(grid(0, 8, (num_blocks, rows)), rng.random((num_blocks, rows)) < 0.6)
    t_now = int(rng.integers(1, 9))
    pis = [grid(-8, 8, rows) for _ in range(t_now)]
    hist = PricingHistory(num_blocks, rows, retain)
    records = [[] for _ in range(num_blocks)]
    never = int(rng.integers(num_blocks))  # this block is never priced
    for t in range(1, t_now):
        mu = grid(-4, 4, num_blocks)
        blocks = np.flatnonzero(rng.random(num_blocks) < 0.7)
        blocks = blocks[blocks != never]
        cbars = grid(-8, 6, len(blocks))
        hist.record(t, blocks, cbars, mu, pis[t - 1])
        for k, cbar in zip(blocks.tolist(), cbars.tolist()):
            records[k].append(oracles.PricingRecord(t, cbar, float(mu[k]), pis[t - 1]))
    return problem, hist, records, t_now, pis[-1], grid(-4, 4, num_blocks)


@pytest.mark.parametrize("retain", [None, 1, 2])
@pytest.mark.parametrize("mode", [FilterMode.EXACT, FilterMode.HEURISTIC])
@pytest.mark.parametrize("strategy", list(Strategy))
def test_batch_screening_matches_per_block_oracle(strategy, mode, retain):
    eps = 0.25
    rng = np.random.default_rng([list(Strategy).index(strategy), mode is FilterMode.EXACT,
                                 retain or 0])
    seen = {"tie": 0, "never priced": 0, "evicted": 0, "all evicted": 0, "no improving": 0}
    for _ in range(150):
        problem, hist, records, t_now, pi_now, mu_now = random_screening_state(rng, retain)
        terms = (problem.bound_terms if mode is FilterMode.EXACT
                 else problem.heuristic_bound_terms)
        screen = should_filter(hist, pi_now, mu_now, terms, strategy, eps)
        term = oracles.bound_term_lookup(problem, mode, pi_now)
        want = [oracles.should_filter(k, records[k], t_now, retain, float(mu_now[k]), term,
                                      mode, strategy, eps) for k in range(problem.num_blocks)]
        # field by field (skip, best bound, record used, bounds evaluated,
        # records evicted), with the best bounds compared bit for bit
        # through repr; the batch form keeps no list of the bounds tried
        got = [block_decision(screen, k) for k in range(problem.num_blocks)]
        assert repr(got) == repr([fd._replace(bounds=None) for fd in want])
        assert type(screen.skip) is bool and type(screen.bounds_evaluated) is int
        assert screen.skip == any(fd.skip for fd in want)
        assert screen.bounds_evaluated == sum(fd.bounds_evaluated for fd in want)
        seen["tie"] += sum(lb == -eps for fd in want for _, lb in fd.bounds)
        seen["never priced"] += sum(not r for r in records)
        seen["evicted"] += sum(fd.records_evicted for fd in want)
        seen["all evicted"] += sum(bool(r) and all(oracles.evicted(rec.iteration, t_now, retain)
                                                   for rec in r) for r in records)
        seen["no improving"] += sum(bool(r) and all(rec.reduced_cost >= -eps for rec in r)
                                    for r in records)
    assert seen["never priced"] and seen["no improving"]
    # with one retained dual vector every record is evicted, so no bound ties
    assert seen["tie"] if retain != 1 else seen["all evicted"]
    if retain is not None:
        assert seen["evicted"] and seen["all evicted"]
