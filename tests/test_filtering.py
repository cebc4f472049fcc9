import numpy as np
import pytest

from colgen import (DualStore, FilterDecision, FilterMode, PricingRecord, RowSense,
                    Strategy, exact_bound, select_records, should_filter)
from colgen.filtering import bound_term_lookup, negative_part_sum
from colgen.model import BlockProblem, Column


class BoxProblem(BlockProblem):
    """Minimal plug-in whose linking coefficients are +1 on every row."""

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
        return [Column(0, 0.0, ())]

    def solve_pricing(self, block, pi, mu_k):
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
    rec = PricingRecord(3, -7.25, 1.5)
    # same iteration: no mu drift, no term -> exactly the stored value
    assert exact_bound(rec, 1.5, 0.0) == rec.reduced_cost


def test_exact_bound_arithmetic():
    rec = PricingRecord(1, 5.0, 2.0)
    assert exact_bound(rec, 2.0, -2.0) == pytest.approx(3.0)
    # convexity drift enters as mu(l) - mu(t), whatever the row's sense: a
    # >= row's dual falling from 2 to 0 raises the bound, and a <= row's
    # (nonpositive) dual rising from -2 to 0 lowers it
    assert exact_bound(rec, 0.0, 0.0) == pytest.approx(7.0)
    assert exact_bound(PricingRecord(1, 5.0, -2.0), 0.0, 0.0) == pytest.approx(3.0)


def history(*pairs):
    return [PricingRecord(t, c, 0.0) for t, c in pairs]


def test_select_records_all_newest_first():
    h = history((1, -3.0), (4, 2.0), (6, -1.0))
    assert [r.iteration for r in select_records(Strategy.ALL, h, 1e-4)] == [6, 4, 1]


def test_select_records_computed_takes_newest():
    h = history((1, -3.0), (4, 2.0))
    assert [r.iteration for r in select_records(Strategy.COMPUTED, h, 1e-4)] == [4]


def test_select_records_add_takes_newest_improving():
    h = history((1, -3.0), (4, 2.0))
    assert [r.iteration for r in select_records(Strategy.ADD, h, 1e-4)] == [1]
    only_positive = history((2, 0.5), (3, 1.0))
    assert select_records(Strategy.ADD, only_positive, 1e-4) == []
    # the negativity test uses the same epsilon as the engine
    borderline = history((2, -5e-5))
    assert select_records(Strategy.ADD, borderline, 1e-4) == []


def test_select_records_empty_history():
    for strategy in Strategy:
        assert select_records(strategy, [], 1e-4) == []


def run_filter(problem, store, hist, pi_now, mode, strategy, mu_now=0.0, epsilon=1e-4):
    return should_filter(0, store, hist, mu_now, bound_term_lookup(problem, mode, pi_now),
                         mode, strategy, epsilon)


def test_baseline_never_skips():
    problem = BoxProblem(2)
    store = DualStore()
    store.push(1, np.zeros(2))
    hist = [PricingRecord(1, 100.0, 0.0)]  # hugely nonnegative: any bound would skip
    fd = run_filter(problem, store, hist, np.zeros(2), FilterMode.BASELINE, Strategy.ALL)
    assert fd == FilterDecision(0, False, None, None, 0, 0, ())
    assert fd.decision == "priced"


def test_short_circuit_on_first_good_bound():
    problem = BoxProblem(2)
    store = DualStore()
    pi = np.zeros(2)
    store.push(1, pi)
    store.push(2, pi)
    hist = history((1, 3.0), (2, 5.0))
    fd = run_filter(problem, store, hist, pi, FilterMode.EXACT, Strategy.ALL)
    assert fd.skip and fd.decision == "filtered"
    assert fd.bounds_evaluated == 1  # newest record already proves it
    assert fd.record_used == 2
    assert fd.best_bound == pytest.approx(5.0)


def test_all_bounds_negative_means_priced():
    problem = BoxProblem(2)
    store = DualStore()
    store.push(1, np.zeros(2))
    hist = history((1, -9.0))
    fd = run_filter(problem, store, hist, np.zeros(2), FilterMode.EXACT, Strategy.ALL)
    assert not fd.skip
    assert fd.decision == "priced"
    assert fd.bounds_evaluated == 1
    assert fd.best_bound == pytest.approx(-9.0)


def test_skip_requires_bound_at_least_minus_epsilon():
    problem = BoxProblem(1)
    store = DualStore()
    store.push(1, np.zeros(1))
    fd = run_filter(problem, store, history((1, -5e-5)), np.zeros(1),
                    FilterMode.EXACT, Strategy.ALL, epsilon=1e-4)
    assert fd.skip  # -5e-5 >= -1e-4
    fd = run_filter(problem, store, history((1, -2e-4)), np.zeros(1),
                    FilterMode.EXACT, Strategy.ALL, epsilon=1e-4)
    assert not fd.skip


def test_evicted_records_are_passed_over():
    problem = BoxProblem(2)
    store = DualStore(retain=1)
    store.push(1, np.zeros(2))
    store.push(2, np.ones(2))  # evicts iteration 1
    hist = history((1, 50.0))
    fd = run_filter(problem, store, hist, np.ones(2), FilterMode.EXACT, Strategy.ALL)
    assert not fd.skip
    assert fd.records_evicted == 1
    assert fd.bounds_evaluated == 0
    assert fd.decision == "skipped-evicted"


def test_mixed_evicted_and_live_records():
    problem = BoxProblem(2)
    store = DualStore(retain=1)
    store.push(1, np.zeros(2))
    store.push(2, np.zeros(2))
    hist = history((1, 50.0), (2, 50.0))
    fd = run_filter(problem, store, hist, np.zeros(2), FilterMode.EXACT, Strategy.ALL)
    assert fd.skip
    assert fd.records_evicted == 0  # newest record hit first, short-circuit
    fd_add = run_filter(problem, store, [PricingRecord(1, -50.0, 0.0),
                                         PricingRecord(2, 50.0, 0.0)],
                        np.zeros(2), FilterMode.EXACT, Strategy.ADD)
    # ADD wants iteration 1 (the improving one) but its duals are gone
    assert not fd_add.skip
    assert fd_add.records_evicted == 1
    assert fd_add.decision == "skipped-evicted"


def test_heuristic_uses_support_restriction():
    # dual drop of -4 lives on row 1, outside the support set {0}
    problem = BoxProblem(2, support_rows=[0])
    store = DualStore()
    store.push(1, np.array([1.0, 4.0]))
    pi_now = np.array([1.0, 8.0])
    hist = history((1, 2.0))
    exact = run_filter(problem, store, hist, pi_now, FilterMode.EXACT, Strategy.ALL)
    heur = run_filter(problem, store, hist, pi_now, FilterMode.HEURISTIC, Strategy.ALL)
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
        store = DualStore()
        t_max = int(rng.integers(2, 7))
        for t in range(1, t_max + 1):
            store.push(t, np.round(rng.normal(scale=2.0, size=rows), 2))
        hist = [PricingRecord(t, float(np.round(rng.normal(scale=3.0), 2)),
                              float(np.round(rng.normal(), 2)))
                for t in range(1, t_max)]
        pi_now = store.get(t_max)
        mu_now = float(np.round(rng.normal(), 2))
        results = {}
        for strategy in Strategy:
            results[strategy] = should_filter(
                0, store, hist, mu_now, bound_term_lookup(problem, FilterMode.EXACT, pi_now),
                FilterMode.EXACT, strategy, 1e-4)
        if results[Strategy.COMPUTED].skip:
            assert results[Strategy.ALL].skip
        if results[Strategy.ADD].skip:
            assert results[Strategy.ALL].skip


def test_filter_is_pure():
    problem = BoxProblem(2)
    store = DualStore()
    store.push(1, np.zeros(2))
    hist = history((1, 3.0))
    pi = np.zeros(2)
    first = run_filter(problem, store, hist, pi, FilterMode.EXACT, Strategy.ALL)
    second = run_filter(problem, store, hist, pi, FilterMode.EXACT, Strategy.ALL)
    assert first == second
    assert [r.iteration for r in hist] == [1]
    assert store.retained_iterations == (1,)


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


def test_exact_lookup_computes_one_row_per_record_iteration():
    problem = CountingBoxProblem(3)
    store = DualStore()
    store.push(1, np.array([1.0, 0.0, 2.0]))
    store.push(2, np.array([0.0, 3.0, 1.0]))
    pi_now = np.array([2.0, 1.0, 1.0])
    term = bound_term_lookup(problem, FilterMode.EXACT, pi_now)
    for _ in range(3):
        for block in (0, 1):
            for it in (1, 2):
                got = term(block, it, store.get(it))
                assert got == problem.hypercube_bound_term(block, store.get(it), pi_now)
                assert type(got) is float
    assert problem.calls["bound_terms"] == 2
    assert problem.calls["heuristic_bound_terms"] == 0
    assert bound_term_lookup(problem, FilterMode.BASELINE, pi_now) is None


def test_heuristic_lookup_fetches_each_support_once():
    # one heuristic_bound_terms row per record iteration, made on first use:
    # the default loop fetches each block's support once for it, however
    # often the row is read
    problem = CountingBoxProblem(3, support_rows=[1])
    pi_prev, pi_now = np.array([1.0, 0.0, 2.0]), np.array([2.0, 1.0, 1.0])
    term = bound_term_lookup(problem, FilterMode.HEURISTIC, pi_now)
    assert problem.calls["support_set"] == 0
    for block in (0, 1, 0):
        got = term(block, 1, pi_prev)
        assert got == -1.0  # row 1 alone: 0 - 1
        assert type(got) is float
    assert problem.calls == {"bound_terms": 0, "heuristic_bound_terms": 1,
                             "heuristic_bound_term": 2, "support_set": 2}
