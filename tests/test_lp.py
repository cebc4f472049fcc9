import tracemalloc

import numpy as np
import pytest

import colgen.lp as lp_module
from colgen import (E_SET_SHAPES, DwdConfig, GaBlockProblem, LpModel, LpStatus,
                    McBlockProblem, RowSense, generate_ga_instance, generate_mc_instance,
                    run_dwd)
from colgen.lp import LpNumericalError, LpStructureError

import oracles


class RecordingLp(LpModel):
    """An LpModel that logs its rows and columns, so a test can rebuild it cold
    or check a solution against the LP's own data."""

    def __init__(self, rows):
        self.rows = list(rows)
        self.costs: list[float] = []
        self.columns: list[list[tuple[int, float]]] = []
        super().__init__(self.rows)

    def add_column(self, cost, coeffs):
        self.costs.append(cost)
        self.columns.append(list(coeffs))
        return super().add_column(cost, self.columns[-1])

    def dense_coeffs(self):
        out = np.zeros((len(self.rows), len(self.columns)))
        for j, column in enumerate(self.columns):
            for i, v in column:
                out[i, j] += v
        return out


def build(costs, rows, coeffs):
    model = RecordingLp(rows)
    for cost, col in zip(costs, np.asarray(coeffs).T):
        model.add_column(float(cost), [(i, float(v)) for i, v in enumerate(col) if v != 0.0])
    return model


def test_single_variable_ge():
    model = LpModel([(RowSense.GE, 3.0)])
    model.add_column(1.0, [(0, 1.0)])
    sol = model.solve()
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(3.0)
    assert sol.x[0] == pytest.approx(3.0)
    assert sol.duals[0] == pytest.approx(1.0)


def test_degenerate_box():
    # min -x with x <= 0 and x >= 0 pins x at zero
    model = LpModel([(RowSense.LE, 0.0)])
    model.add_column(-1.0, [(0, 1.0)])
    sol = model.solve()
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(0.0)
    assert sol.x[0] == pytest.approx(0.0)


def test_infeasible_detected():
    model = LpModel([(RowSense.GE, 1.0), (RowSense.LE, 0.5)])
    model.add_column(1.0, [(0, 1.0), (1, 1.0)])
    assert model.solve().status is LpStatus.INFEASIBLE


def test_unbounded_detected():
    model = LpModel([(RowSense.GE, 1.0)])
    model.add_column(-1.0, [(0, 1.0)])
    assert model.solve().status is LpStatus.UNBOUNDED


def test_equality_rows():
    # x + y = 2, x - y = 0 -> x = y = 1
    model = LpModel([(RowSense.EQ, 2.0), (RowSense.EQ, 0.0)])
    model.add_column(1.0, [(0, 1.0), (1, 1.0)])
    model.add_column(3.0, [(0, 1.0), (1, -1.0)])
    sol = model.solve()
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x == pytest.approx([1.0, 1.0])
    assert sol.objective == pytest.approx(4.0)


def test_add_column_unknown_row_rejected():
    model = LpModel([(RowSense.GE, 1.0)])
    with pytest.raises(LpStructureError):
        model.add_column(1.0, [(3, 1.0)])


def test_null_column_changes_nothing():
    model = LpModel([(RowSense.GE, 3.0)])
    model.add_column(1.0, [(0, 1.0)])
    before = model.solve().objective
    model.add_column(0.0, [])
    after = model.solve()
    assert after.objective == pytest.approx(before)


def test_improving_column_decreases_objective():
    model = LpModel([(RowSense.GE, 4.0)])
    model.add_column(2.0, [(0, 1.0)])
    first = model.solve().objective
    model.add_column(1.0, [(0, 1.0)])
    second = model.solve().objective
    assert second < first - 1e-9
    assert second == pytest.approx(4.0)


def test_duplicate_basic_column_harmless():
    model = LpModel([(RowSense.GE, 4.0), (RowSense.LE, 10.0)])
    model.add_column(2.0, [(0, 1.0), (1, 1.0)])
    model.add_column(5.0, [(0, 1.0)])
    first = model.solve().objective
    model.add_column(2.0, [(0, 1.0), (1, 1.0)])
    assert model.solve().objective == pytest.approx(first)


def test_resolve_after_add_never_increases():
    rng = np.random.default_rng(7)
    for _ in range(25):
        costs, rows, coeffs = oracles.random_small_lp(rng)
        model = build(costs, rows, coeffs)
        sol = model.solve()
        if sol.status is not LpStatus.OPTIMAL:
            continue
        # bolt on a random extra column and re-solve warm
        extra = np.round(rng.uniform(-1.0, 1.0, size=len(rows)), 3)
        model.add_column(float(rng.uniform(0.5, 4.0)), list(enumerate(extra)))
        again = model.solve()
        assert again.status is LpStatus.OPTIMAL
        assert again.objective <= sol.objective + 1e-7


def test_repeated_row_coefficients_are_rejected():
    model = LpModel([(RowSense.GE, 6.0)])
    with pytest.raises(LpStructureError, match="column 0 of the batch repeats row 0"):
        model.add_column(1.0, [(0, 1.0), (0, 2.0)])
    assert model.num_cols == 0
    assert model.add_column(3.0, [(0, 3.0)]) == 0
    assert model.add_column(4.0, []) == 1  # indices run on, empty columns too
    assert model.num_cols == 2
    sol = model.solve()
    assert sol.x == pytest.approx([2.0, 0.0])


def random_batch(rng, num_rows, count):
    """`count` random columns as (cost, [(row, value), ...]) pairs, rows sorted."""
    columns = []
    for _ in range(count):
        support = np.sort(rng.choice(num_rows, size=int(rng.integers(0, 5)), replace=False))
        columns.append((float(rng.integers(1, 20)),
                        [(int(i), float(np.round(rng.uniform(0.2, 2.0), 3))) for i in support]))
    return columns


def as_batch(columns):
    """(costs, ptr, rows, vals) of (cost, pairs) columns."""
    ptr = np.cumsum([0] + [len(pairs) for _, pairs in columns])
    pairs = [pair for _, col in columns for pair in col]
    return ([cost for cost, _ in columns], ptr, [r for r, _ in pairs], [v for _, v in pairs])


def assert_same_solution(a, b):
    assert a.status is b.status is LpStatus.OPTIMAL
    assert (a.objective, a.x.tobytes(), a.duals.tobytes(), a.iterations) == (
        b.objective, b.x.tobytes(), b.duals.tobytes(), b.iterations)


def test_add_columns_solves_like_one_column_at_a_time():
    rng = np.random.default_rng(21)
    rows = [(RowSense.GE, 1.0)] * 12 + [(RowSense.LE, 2.0)] * 4 + [(RowSense.EQ, 0.0)]
    # dear unit columns keep the >= rows coverable
    first = [(50.0, [(i, 1.0)]) for i in range(12)] + random_batch(rng, len(rows), 28)
    second = random_batch(rng, len(rows), 25)
    one_by_one, batched = LpModel(rows), LpModel(rows)
    for cost, pairs in first:
        one_by_one.add_column(cost, pairs)
    assert batched.add_columns(*as_batch(first)) == range(0, 40)
    assert_same_solution(one_by_one.solve(), batched.solve())
    # and again after a warm start
    for cost, pairs in second:
        one_by_one.add_column(cost, pairs)
    assert batched.add_columns(*as_batch(second)) == range(40, 65)
    assert batched.num_cols == one_by_one.num_cols == 65
    assert_same_solution(one_by_one.solve(), batched.solve())


def stored(model):
    """The model's internal columns: pointers, then rows, values and owners."""
    nnz = model._ptr[model._n_int]
    return (model._ptr[:model._n_int + 1].tolist(),
            *(getattr(model, name)[:nnz].tolist() for name in ("_row", "_val", "_col")))


def test_add_columns_rejects_repeated_rows_within_a_column():
    model, twin = solved_twins()
    before = stored(model)
    # column 1 repeats row 0 out of order; column 2 repeats nothing although
    # its first row equals column 1's last
    with pytest.raises(LpStructureError, match="column 1 of the batch repeats row 0"):
        model.add_columns([1.0, 1.0, 5.0], [0, 1, 4, 5], [1, 0, 1, 0, 0],
                          [1.0, 1.0, 1.0, 2.0, 1.0])
    assert model.num_cols == 2 and stored(model) == before
    assert_same_solution(model.solve(), twin.solve())
    # the same batch without the repeat goes in; its second column's rows
    # stay in the order given
    assert model.add_columns([1.0, 1.0, 5.0], [0, 1, 3, 4], [1, 1, 0, 0],
                             [1.0, 1.0, 3.0, 1.0]) == range(2, 5)
    base = before[0][-1]
    assert stored(model)[1][base:] == [1, 1, 0, 0]
    assert model.solve().status is LpStatus.OPTIMAL


def solved_twins():
    """Two equal models, each solved once, so their next solves start warm."""
    twins = []
    for _ in range(2):
        model = LpModel([(RowSense.GE, 1.0), (RowSense.LE, 4.0)])
        model.add_column(2.0, [(0, 1.0), (1, 1.0)])
        model.add_column(3.0, [(0, 2.0)])
        assert model.solve().status is LpStatus.OPTIMAL
        twins.append(model)
    return twins


def test_model_without_rows_takes_empty_columns():
    model = LpModel([])
    assert model.add_column(2.0, []) == 0
    sol = model.solve()
    assert sol.status is LpStatus.OPTIMAL and sol.objective == 0.0
    assert sol.x.tolist() == [0.0] and sol.duals.size == 0
    with pytest.raises(LpStructureError, match="unknown row 0"):
        model.add_column(1.0, [(0, 1.0)])
    assert model.add_column(-1.0, []) == 1
    assert model.solve().status is LpStatus.UNBOUNDED


def test_add_columns_empty_batch_is_a_no_op():
    model, twin = solved_twins()
    assert model.add_columns([], [0], [], []) == range(2, 2)
    assert model.num_cols == 2
    assert_same_solution(model.solve(), twin.solve())


@pytest.mark.parametrize("costs, ptr, rows, vals, match", [
    ([1.0, 1.0], [0, 1, 2], [0, 3], [1.0, 1.0], "unknown row 3"),
    ([1.0, 1.0], [0, 1, 2], [0, -1], [1.0, 1.0], "unknown row -1"),
    ([1.0, 1.0], [0, 1, 2], [0, 2], [1.0, 1.0], "unknown row 2"),  # one past the last
    ([1.0, np.inf], [0, 1, 2], [0, 1], [1.0, 1.0], "cost must be finite"),
    ([1.0, np.nan], [0, 1, 2], [0, 1], [1.0, 1.0], "cost must be finite"),
    ([1.0, 1.0], [0, 1, 2], [0, 1], [1.0, np.nan], "coefficient must be finite"),
    ([1.0, 1.0], [0, 1, 2], [0, 1], [-np.inf, 1.0], "coefficient must be finite"),
    ([1.0, 1.0], [0, 2, 1], [0, 1], [1.0, 1.0], "ptr"),
    ([1.0, 1.0, 1.0], [0, 2, 1, 2], [0, 1], [1.0, 1.0], "ptr"),  # right ends, a step back
    ([1.0], [0, 1, 2], [0, 1], [1.0, 1.0], "ptr"),
])
def test_add_columns_rejects_a_bad_batch_whole(costs, ptr, rows, vals, match):
    # most bad batches start with a valid, cheap column that must not slip in
    model, twin = solved_twins()
    with pytest.raises(LpStructureError, match=match):
        model.add_columns(costs, ptr, rows, vals)
    assert model.num_cols == 2
    assert_same_solution(model.solve(), twin.solve())


@pytest.mark.parametrize("ptr, rows, repeat", [
    # empty columns at the start, in the middle and at the end
    ([0, 0, 2], [1, 1], "column 1 of the batch repeats row 1"),
    ([0, 0, 2], [1, 0], None),
    ([0, 1, 1, 3], [0, 1, 1], "column 2 of the batch repeats row 1"),
    ([0, 1, 1, 3], [0, 0, 1], None),
    ([0, 2, 2, 2], [1, 1], "column 0 of the batch repeats row 1"),
    ([0, 2, 2, 2], [1, 0], None),
    # the row after an empty column starts a column, and may equal the row
    # before it, but not the next one
    ([0, 1, 1, 3], [1, 1, 1], "column 2 of the batch repeats row 1"),
    ([0, 1, 1, 3], [1, 1, 0], None),
    # a single entry
    ([0, 1], [1], None),
    # a column's first row equal to the previous column's last
    ([0, 2, 4], [0, 1, 1, 0], None),
])
def test_add_columns_repeated_row_boundaries(ptr, rows, repeat):
    model, twin = solved_twins()
    before = stored(model)
    costs, vals = [6.0] * (len(ptr) - 1), [1.0] * len(rows)
    if repeat is not None:
        with pytest.raises(LpStructureError, match=repeat):
            model.add_columns(costs, ptr, rows, vals)
        assert model.num_cols == 2 and stored(model) == before
        assert_same_solution(model.solve(), twin.solve())
        return
    assert model.add_columns(costs, ptr, rows, vals) == range(2, len(ptr) + 1)
    after = stored(model)
    assert after[0][len(before[0]):] == [before[0][-1] + p for p in ptr[1:]]
    assert after[1][len(before[1]):] == rows
    assert model.solve().status is LpStatus.OPTIMAL


@pytest.mark.parametrize("rows, match", [
    ([(">=", 1.0)], "row sense must be RowSense, got '>='"),
    ([(RowSense.GE, 1.0), (None, 1.0)], "row sense must be RowSense, got None"),
    ([(RowSense.GE, np.inf)], "row rhs must be finite"),
    ([(RowSense.EQ, 0.0), (RowSense.LE, np.nan)], "row rhs must be finite"),
    # rows are checked in order, each row's sense before its rhs
    ([(RowSense.GE, np.inf), ("<=", 1.0)], "row rhs must be finite"),
    ([("<=", np.inf)], "row sense must be RowSense"),
])
def test_bad_rows_are_named(rows, match):
    with pytest.raises(LpStructureError, match=match):
        LpModel(rows)


def test_random_lps_match_vertex_oracle_and_scipy():
    rng = np.random.default_rng(2024)
    solved = 0
    for _ in range(120):
        costs, rows, coeffs = oracles.random_small_lp(rng)
        sol = build(costs, rows, coeffs).solve()
        status, reference = oracles.linprog_min(costs, rows, coeffs)
        assert status == "optimal", "these LPs are feasible and bounded by construction"
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(reference, abs=1e-6, rel=1e-6)
        vertex = oracles.vertex_enumeration_min(costs, rows, coeffs)
        assert vertex is not None
        assert sol.objective == pytest.approx(vertex, abs=1e-6, rel=1e-6)
        solved += 1
    assert solved == 120


def test_strong_duality_and_signs_on_random_lps():
    rng = np.random.default_rng(31)
    for _ in range(80):
        costs, rows, coeffs = oracles.random_small_lp(rng)
        model = build(costs, rows, coeffs)
        sol = model.solve()
        assert sol.status is LpStatus.OPTIMAL
        assert_certified(oracles.optimality_report(costs, rows, coeffs, sol), sol)


def test_dual_values_match_scipy_on_tight_lp():
    # one GE row, one LE row, interior-free optimum: duals are unique here
    model = LpModel([(RowSense.GE, 2.0), (RowSense.LE, 4.0)])
    model.add_column(3.0, [(0, 1.0), (1, 1.0)])
    model.add_column(1.0, [(1, 1.0)])
    sol = model.solve()
    assert sol.status is LpStatus.OPTIMAL
    # x1 covers the GE row at cost 3; x2 idles
    assert sol.objective == pytest.approx(6.0)
    assert sol.duals[0] == pytest.approx(3.0)
    assert sol.duals[1] == pytest.approx(0.0)


def test_warm_start_stays_correct_under_column_stream():
    # mimic column generation: long add/solve alternation on one model
    rng = np.random.default_rng(5)
    rows = [(RowSense.GE, float(rng.uniform(1, 5))) for _ in range(4)]
    rows += [(RowSense.LE, float(rng.uniform(5, 9))) for _ in range(2)]
    model = LpModel(rows)
    coeff_log = []
    cost_log = []
    for j in range(40):
        col = np.round(rng.uniform(0.0, 2.0, size=6), 3)
        cost = float(np.round(rng.uniform(1.0, 6.0), 3))
        model.add_column(cost, list(enumerate(col)))
        coeff_log.append(col)
        cost_log.append(cost)
        sol = model.solve()
        if sol.status is not LpStatus.OPTIMAL:
            continue
        status, reference = oracles.linprog_min(
            np.array(cost_log), rows, np.array(coeff_log).T)
        assert status == "optimal"
        assert sol.objective == pytest.approx(reference, abs=1e-6, rel=1e-6)


def record_phases(monkeypatch):
    """Log (phase, rhs is the true rhs, pivots) for every `_simplex` run."""
    runs = []
    real = LpModel._simplex

    def spy(model, costs, rhs, *args, pin_artificials):
        status, pivots = real(model, costs, rhs, *args, pin_artificials=pin_artificials)
        runs.append((2 if pin_artificials else 1, rhs is model._beq, pivots))
        return status, pivots

    monkeypatch.setattr(LpModel, "_simplex", spy)
    return runs


def test_crashable_rows_need_no_phase_1_pivots(monkeypatch):
    # <= rows with a positive rhs and >= rows with a negative one all start
    # on their surplus, so phase 1 has nothing to do; phase 2 still pivots
    rng = np.random.default_rng(4)
    rows = [(RowSense.LE, float(v)) for v in rng.uniform(1.0, 5.0, size=6)]
    rows += [(RowSense.GE, float(-v)) for v in rng.uniform(1.0, 5.0, size=4)]
    coeffs = np.round(rng.uniform(0.0, 2.0, size=(10, 12)), 3)
    coeffs[6:] *= -1.0  # so the >= rows cap the columns too
    costs = np.round(rng.uniform(-3.0, -0.5, size=12), 3)
    runs = record_phases(monkeypatch)
    sol = build(costs, rows, coeffs).solve()
    assert sol.status is LpStatus.OPTIMAL
    (phase_a, _, pivots_a), (phase_b, _, pivots_b) = runs
    assert (phase_a, pivots_a) == (1, 0)
    assert phase_b == 2 and pivots_b == sol.iterations > 0
    status, reference = oracles.linprog_min(costs, rows, coeffs)
    assert status == "optimal"
    assert sol.objective == pytest.approx(reference, abs=1e-6, rel=1e-6)
    assert_certified(oracles.optimality_report(costs, rows, coeffs, sol), sol)


def test_perturbed_optimum_infeasible_under_true_rhs_is_solved_again(monkeypatch):
    # a perturbation this large often moves phase 2 to a basis that the true
    # rhs makes infeasible; the solve must then redo both phases unperturbed
    monkeypatch.setattr(lp_module, "PERTURB_SCALE", 10.0)
    runs = record_phases(monkeypatch)
    rng = np.random.default_rng(2024)
    fallbacks = 0
    for _ in range(120):
        costs, rows, coeffs = oracles.random_small_lp(rng)
        runs.clear()
        sol = build(costs, rows, coeffs).solve()
        if len(runs) > 2:
            assert [(phase, true_rhs) for phase, true_rhs, _ in runs] == [
                (1, True), (2, False), (1, True), (2, True)]
            fallbacks += 1
        status, reference = oracles.linprog_min(costs, rows, coeffs)
        assert sol.status is LpStatus.OPTIMAL and status == "optimal"
        assert sol.objective == pytest.approx(reference, abs=1e-6, rel=1e-6)
        assert_certified(oracles.optimality_report(costs, rows, coeffs, sol), sol)
    assert fallbacks > 0


def dw_master(rng, blocks=6, links=8):
    """(costs, rows, coeffs) of a decomposition-shaped master: capacity rows
    in both scaled forms (`<= cap` with loads, `>= -cap` with negated
    loads), then one `>= 1` convexity row per block.  Columns 0..blocks-1
    are the blocks' initial columns, and the capacities hold all of them at
    once; each block also has cheaper loaded columns and a costly empty one,
    so the LP stays feasible however the capacities are cut."""
    rows = [(RowSense.LE if i % 2 else RowSense.GE, 0.0) for i in range(links)]
    rows += [(RowSense.GE, 1.0)] * blocks
    sign = np.array([1.0 if i % 2 else -1.0 for i in range(links)])
    costs, cols = [], []
    for kind in ("initial", "loaded", "loaded", "empty"):
        for k in range(blocks):
            col = np.zeros(links + blocks)
            if kind != "empty":
                on = rng.choice(links, size=int(rng.integers(1, 4)), replace=False)
                col[on] = np.round(rng.uniform(0.5, 2.0, size=on.size), 3) * sign[on]
            col[links + k] = 1.0
            cols.append(col)
            costs.append({"initial": 20.0, "loaded": 5.0, "empty": 50.0}[kind]
                         + float(np.round(rng.uniform(0.0, 5.0), 3)))
    coeffs = np.array(cols).T
    load = np.abs(coeffs[:links, :blocks]).sum(axis=1)
    cap = np.round(load + rng.uniform(0.5, 2.0, size=links), 3)
    rows[:links] = [(sense, float(c * s)) for (sense, _), c, s in zip(rows, cap, sign)]
    return np.array(costs), rows, coeffs


def test_dw_master_crashes_onto_its_initial_columns(monkeypatch):
    rng = np.random.default_rng(31)
    runs = record_phases(monkeypatch)
    for _ in range(5):
        costs, rows, coeffs = dw_master(rng)
        model = build(costs, rows, coeffs)
        basis, _ = model._cold_start()
        links = len(rows) - 6
        assert basis[links:].tolist() == (model._first_struct + np.arange(6)).tolist()
        runs.clear()
        sol = model.solve()
        assert runs[0] == (1, True, 0)
        status, reference = oracles.linprog_min(costs, rows, coeffs)
        assert sol.status is LpStatus.OPTIMAL and status == "optimal"
        assert sol.objective == pytest.approx(reference, abs=1e-6, rel=1e-6)
        assert_certified(oracles.optimality_report(costs, rows, coeffs, sol), sol)


def test_overloaded_crash_falls_back_to_the_slack_basis(monkeypatch):
    rng = np.random.default_rng(37)
    costs, rows, coeffs = dw_master(rng)
    # row 1 (<= cap) can no longer hold the initial columns' load
    load = coeffs[1, :6].sum()
    assert load > 0
    rows[1] = (RowSense.LE, float(load) / 2)
    model = build(costs, rows, coeffs)
    basis, inv = model._cold_start()
    assert np.array_equal(basis, model._slack_basis)
    assert np.array_equal(inv.dense, np.eye(len(rows)))
    runs = record_phases(monkeypatch)
    sol = model.solve()
    assert runs[0][:2] == (1, True) and runs[0][2] > 0
    status, reference = oracles.linprog_min(costs, rows, coeffs)
    assert sol.status is LpStatus.OPTIMAL and status == "optimal"
    assert sol.objective == pytest.approx(reference, abs=1e-6, rel=1e-6)
    assert_certified(oracles.optimality_report(costs, rows, coeffs, sol), sol)


def test_crash_takes_the_lowest_eligible_column():
    rows = [(RowSense.GE, 1.0), (RowSense.GE, 2.0), (RowSense.LE, 5.0), (RowSense.EQ, 3.0)]
    model = LpModel(rows)
    for column in ([(0, 1e-12), (2, 1.0)],  # entry on row 0 not above PIVOT_TOL
                   [(0, 1.0), (1, 1.0)],    # on two artificial-held rows
                   [(0, -1.0)],             # negative entry
                   [(0, 2.0), (2, 1.0)],    # row 0's pick
                   [(0, 1.0)],              # eligible too, but a higher index
                   [(1, 1.0), (2, -0.5)],   # row 1's pick
                   [(1, 4.0)],
                   [(3, 1.0), (1, 1.0)]):   # row 3 (=) has no eligible column
        model.add_column(1.0, column)
    basis, inv = model._cold_start()
    first = model._first_struct
    assert basis.tolist() == [first + 3, first + 5, int(model._slack_basis[2]),
                              int(model._slack_basis[3])]
    assert model._is_artificial(basis[3:]).all()
    np.testing.assert_allclose(inv.dense, oracle_inverse(model, basis), rtol=0.0, atol=1e-15)
    assert inv.solve(model._beq) == pytest.approx([0.5, 2.0, 5.0 - 0.5 + 1.0, 3.0])


def test_cold_start_refactors_the_crash_basis_once(monkeypatch):
    # the crash core is all lone entries, so the one refactorization of a
    # cold start runs no Gauss-Jordan elimination
    calls, core_calls = [], []
    real_refactor, real_inv = lp_module._PanelInverse.refactor, lp_module._inverse
    monkeypatch.setattr(lp_module._PanelInverse, "refactor",
                        lambda inv, *args: calls.append(1) or real_refactor(inv, *args))
    monkeypatch.setattr(lp_module, "_inverse", lambda a: core_calls.append(1) or real_inv(a))
    rng = np.random.default_rng(41)
    for _ in range(10):
        costs, rows, coeffs = dw_master(rng, blocks=int(rng.integers(1, 9)),
                                        links=int(rng.integers(3, 12)))
        # scaled columns, so that no crash entry is 1
        model = build(costs, rows, coeffs * np.round(rng.uniform(0.3, 3.0, len(costs)), 3))
        calls.clear()
        basis, inv = model._cold_start()
        assert len(calls) == 1 and not core_calls
        assert not model._is_artificial(basis).any()
        assert np.array_equal(inv.dense, oracles.whole_core_inverse(
            basis, model._ptr, model._row, model._val))
        np.testing.assert_allclose(inv.dense, oracle_inverse(model, basis), rtol=0.0, atol=1e-12)


def test_first_mc_master_needs_no_phase_1_pivots(monkeypatch):
    # each commodity's initial path goes basic on its convexity row
    runs = record_phases(monkeypatch)
    for seed in range(5):
        runs.clear()
        result = run_dwd(McBlockProblem(generate_mc_instance(25, 80, 50, seed)),
                         DwdConfig(max_iterations=1))
        assert runs[0] == (1, True, 0)
        assert result.stats.master_pivots == sum(pivots for _, _, pivots in runs)


def test_solves_are_bit_identical():
    rng = np.random.default_rng(12)
    rows = [(RowSense.GE, 1.0)] * 30 + [(RowSense.LE, 1.0)] * 10
    columns = []
    for _ in range(120):
        support = rng.choice(len(rows), size=int(rng.integers(1, 6)), replace=False)
        columns.append((float(rng.integers(1, 20)), [(int(i), 1.0) for i in support]))

    def solve_twice():
        model = LpModel(rows)
        for cost, column in columns:
            model.add_column(cost, column)
        return model.solve(), model.solve()

    (a, a_again), (b, _) = solve_twice(), solve_twice()
    for sol in (a_again, b):
        assert sol.status is a.status is LpStatus.OPTIMAL
        assert (sol.objective, sol.x.tobytes(), sol.duals.tobytes()) == (
            a.objective, a.x.tobytes(), a.duals.tobytes())
    assert b.iterations == a.iterations > 0 and a_again.iterations == 0


def assert_certified(report, sol):
    scale = 1.0 + abs(sol.objective)
    assert report["duality_gap"] <= 1e-7 * scale
    assert report["row_violation"] <= 1e-7
    assert report["dual_sign_violation"] <= 1e-9
    assert report["reduced_cost_violation"] <= 1e-7 * scale
    assert report["complementary_slackness"] <= 1e-7 * scale


def cold_copy(model):
    """A fresh model with the same rows and columns, so its solve starts cold."""
    fresh = LpModel(model.rows)
    for cost, column in zip(model.costs, model.columns):
        fresh.add_column(cost, column)
    return fresh


def assert_matches_cold_solve(model, sol):
    cold = cold_copy(model).solve()
    assert sol.status is LpStatus.OPTIMAL and cold.status is LpStatus.OPTIMAL
    scale = 1.0 + abs(cold.objective)
    assert sol.objective == pytest.approx(cold.objective, abs=1e-7 * scale)
    assert_certified(oracles.optimality_report(model.costs, model.rows,
                                               model.dense_coeffs(), sol), sol)


def sparse_column(rng, num_rows, density):
    vals = np.round(rng.uniform(-3.0, 3.0, size=num_rows), 3)
    return [(i, float(v)) for i, v in enumerate(vals) if v != 0.0 and rng.random() < density]


def test_warm_resolves_match_cold_solves_under_random_column_stream():
    # nonnegative costs over a feasible start keep every re-solve optimal
    rng = np.random.default_rng(11)
    for _ in range(30):
        costs, rows, coeffs = oracles.random_small_lp(rng, max_vars=4, max_rows=8)
        model = build(costs, rows, coeffs)
        for _ in range(12):
            assert_matches_cold_solve(model, model.solve())
            model.add_column(float(np.round(rng.uniform(0.0, 5.0), 3)),
                             sparse_column(rng, len(rows), 0.5))


def test_refactorization_counts_pivots_across_warm_solves(monkeypatch):
    # every re-solve pivots far fewer than 128 times, so the basis inverse is
    # rebuilt only because the pivot count carries over from solve to solve
    rng = np.random.default_rng(3)
    rows = [(RowSense.GE, float(v)) for v in np.round(rng.uniform(1.0, 5.0, size=40), 3)]
    model = RecordingLp(rows)
    for i in range(len(rows)):
        model.add_column(50.0, [(i, 1.0)])
    real_inv = lp_module._inverse
    inv_calls = []
    monkeypatch.setattr(lp_module, "_inverse", lambda a: inv_calls.append(1) or real_inv(a))
    pivots, warm_invs = [], 0
    for _ in range(60):
        before = len(inv_calls)
        sol = model.solve()
        warm_invs += len(inv_calls) - before
        pivots.append(sol.iterations)
        assert_matches_cold_solve(model, sol)
        for _ in range(3):
            model.add_column(float(np.round(rng.uniform(1.0, 10.0), 3)),
                             [(i, abs(v)) for i, v in sparse_column(rng, len(rows), 0.1)])
    assert max(pivots) < 128 <= sum(pivots) - 128
    assert warm_invs == sum(pivots) // 128


def test_numerical_error_names_phase_size_and_pivot(monkeypatch):
    # every column has entries on two artificial-held rows, so the crash
    # takes none of them and the cold start refactors nothing; phase 1 then
    # needs one pivot per row, and both attempts reach a refactorization,
    # where every refactorization fails
    model = LpModel([(RowSense.GE, 1.0 + i % 3) for i in range(150)])
    for i in range(150):
        model.add_column(1.0, [(i, 1.0), ((i + 1) % 150, 0.5)])

    def singular(inv, *args):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(lp_module._PanelInverse, "refactor", singular)
    with pytest.raises(LpNumericalError) as info:
        model.solve()
    msg = str(info.value)
    assert "150 rows x 150 columns" in msg
    assert "phase 1, pivot 128: singular basis" in msg
    assert "Bland retry: phase 1, pivot 32: singular basis" in msg


def test_bland_retry_solves_after_a_failed_refactorization(monkeypatch):
    # the model above, but only the first refactorization fails: the first
    # attempt breaks down at pivot 128, and the retry, on Bland's rule and
    # refactoring every 32 pivots, must reach the optimum
    rows = [(RowSense.GE, 1.0 + i % 3) for i in range(150)]
    model = RecordingLp(rows)
    for i in range(150):
        model.add_column(1.0, [(i, 1.0), ((i + 1) % 150, 0.5)])
    real_refactor, refactors = lp_module._PanelInverse.refactor, []

    def fail_first(inv, *args):
        refactors.append(1)
        if len(refactors) == 1:
            raise np.linalg.LinAlgError("singular matrix")
        return real_refactor(inv, *args)

    real_simplex, runs = LpModel._simplex, []

    def spy(model, *args, **kw):
        try:
            out = real_simplex(model, *args, **kw)
        except lp_module._Breakdown as exc:
            runs.append((args[5], str(exc)))
            raise
        runs.append((args[5], out[0]))
        return out

    monkeypatch.setattr(lp_module._PanelInverse, "refactor", fail_first)
    monkeypatch.setattr(LpModel, "_simplex", spy)
    sol = model.solve()
    assert not runs[0][0] and runs[0][1].startswith("phase 1, pivot 128: singular basis")
    assert all(bland for bland, _ in runs[1:]) and runs[-1][1] == "optimal"
    assert sol.status is LpStatus.OPTIMAL
    status, reference = oracles.linprog_min(model.costs, rows, model.dense_coeffs())
    assert status == "optimal"
    assert sol.objective == pytest.approx(reference, rel=1e-9)


def test_long_warm_solve_refactors_twice_and_matches_cold_solve():
    # one re-solve runs past two refactorizations, each of which recomputes
    # the basic values and duals that the pivots carry in between
    rng = np.random.default_rng(0)
    rows = [(RowSense.GE, float(v)) for v in np.round(rng.uniform(1.0, 5.0, size=60), 3)]
    model = RecordingLp(rows)
    for i in range(len(rows)):
        model.add_column(50.0, [(i, 1.0)])
    model.solve()
    for _ in range(250):
        support = rng.choice(len(rows), size=int(rng.integers(2, 6)), replace=False)
        model.add_column(float(np.round(rng.uniform(1.0, 10.0), 3)),
                         [(int(i), float(np.round(rng.uniform(0.5, 2.0), 3))) for i in support])
    sol = model.solve()
    assert sol.iterations > 2 * 128
    assert_matches_cold_solve(model, sol)


def test_carried_inverse_matches_a_fresh_inverse_across_refactorizations():
    # each pivot updates B^-1 only where the direction and the pivot row are
    # both nonzero; after a refactorization, the inverse the pivots carry
    # from solve to solve must still be the basis's own inverse
    rng = np.random.default_rng(5)
    rows = [(RowSense.GE, float(v)) for v in np.round(rng.uniform(1.0, 5.0, size=40), 3)]
    model = LpModel(rows)
    for i in range(len(rows)):
        model.add_column(50.0, [(i, 1.0)])
    pivots, checked = 0, 0
    for _ in range(60):
        sol = model.solve()
        assert sol.status is LpStatus.OPTIMAL
        pivots += sol.iterations
        if pivots >= 128 and model._since_inv:
            np.testing.assert_allclose(model._inv.dense, oracle_inverse(model, model._basis),
                                       rtol=0.0, atol=1e-9)
            checked += 1
        for _ in range(3):
            model.add_column(float(np.round(rng.uniform(1.0, 10.0), 3)),
                             [(i, abs(v)) for i, v in sparse_column(rng, len(rows), 0.1)])
    assert checked >= 10


def test_refactorization_builds_no_m_by_m_array():
    # 150 >= rows whose columns each sit on two of them, so the crash takes
    # none and phase 1 pivots about once per row, refactoring once with a
    # core of at most 128 columns; the other rows are <= rows held by their
    # surplus.  B^-1 keeps only its columns with more than one nonzero, so
    # the whole solve stays below the size of one m x m array.
    m, k = 1500, 150
    rows = [(RowSense.GE, 1.0 + i % 3) for i in range(k)] + [(RowSense.LE, 4.0)] * (m - k)
    model = LpModel(rows)
    for i in range(k):
        model.add_column(1.0, [(i, 1.0), ((i + 1) % k, 0.5), (k + 5 * i, 1.0)])
    tracemalloc.start()
    try:
        sol = model.solve()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.status is LpStatus.OPTIMAL
    assert 128 <= sol.iterations < 256
    assert peak < m * m * 8


def test_e6_shaped_master_allocates_no_m_by_m_array(monkeypatch):
    # the master of ga 1000 x 100 (E6) seed 0 after two iterations: 1,100
    # rows, a core of about 90 columns.  A cold start, a refactorization and
    # a warm re-solve that pivots past the next one each stay below the size
    # of one dense inverse.
    models = []
    real_solve = LpModel.solve
    monkeypatch.setattr(LpModel, "solve", lambda model: models.append(model) or real_solve(model))
    run_dwd(GaBlockProblem(generate_ga_instance(*E_SET_SHAPES["E6"], 0)),
            DwdConfig(max_iterations=2))
    model = models[-1]
    m, basis = model.num_rows, model._basis.copy()
    assert m == 1100 and model._inv is not None
    for step in ("cold start", "refactor", "warm solve"):
        tracemalloc.start()
        try:
            if step == "cold start":
                model._cold_start()
            elif step == "refactor":
                inv = lp_module._PanelInverse(m)
                inv.refactor(basis, model._ptr, model._row, model._val)
            else:
                model.add_column(1.0, [(0, 1.0)])
                sol = real_solve(model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m * m * 8, step
    np.testing.assert_allclose(inv.dense, oracle_inverse(model, basis), rtol=0.0, atol=1e-9)
    assert sol.status is LpStatus.OPTIMAL and sol.iterations > 128


def internal_columns(model):
    """Internal indices of the structural columns and of the row artificials."""
    first = model._first_struct
    return first + np.arange(model.num_cols), first - model.num_rows + np.arange(model.num_rows)


def internal_basis_matrix(model, basis):
    """The internal basis columns as a dense (rows x rows) matrix."""
    out = np.zeros((model.num_rows, len(basis)))
    for k, j in enumerate(basis):
        lo, hi = model._ptr[j], model._ptr[j + 1]
        out[model._row[lo:hi], k] = model._val[lo:hi]
    return out


def oracle_inverse(model, basis):
    return np.linalg.inv(internal_basis_matrix(model, basis))


def refactored(model, basis, inv=None):
    """The dense view of `inv` (a fresh one if None) refactored on `basis`."""
    if inv is None:
        inv = lp_module._PanelInverse(len(basis))
    inv.refactor(basis, model._ptr, model._row, model._val)
    return inv.dense


def test_core_inverse_equals_dense_inverse():
    rng = np.random.default_rng(8)
    m = 12
    # >= rows with a positive rhs carry a -1 surplus, <= rows a +1 surplus
    rows = [(RowSense.GE, 2.0)] * 5 + [(RowSense.LE, 3.0)] * 4 + [(RowSense.EQ, 1.0)] * 3
    model = LpModel(rows)
    for i in range(m):  # one scaled unit column per row
        model.add_column(1.0, [(i, float(rng.choice([-2.5, -1.0, 0.5, 3.0])))])
    for _ in range(40):  # multi-entry columns
        support = rng.choice(m, size=int(rng.integers(2, 6)), replace=False)
        model.add_column(1.0, [(int(i), float(rng.uniform(-3.0, 3.0))) for i in support])
    struct, art = internal_columns(model)
    # the surplus columns are the internal columns before the artificials
    surplus = {int(model._row[model._ptr[j]]): j for j in range(art[0])}
    assert sorted(model._val[model._ptr[j]] for j in surplus.values()) == [-1.0] * 5 + [1.0] * 4

    def unit_on(i):
        options = [int(art[i]), int(struct[i])] + (
            [surplus[i]] if i in surplus else [])
        return options[rng.integers(len(options))]

    checked = {"all-unit": 0, "no-unit": 0, "mixed": 0}
    while min(checked.values()) < 10:
        n_unit = int(rng.integers(0, m + 1))
        unit_rows = rng.choice(m, size=n_unit, replace=False)
        core = rng.choice(struct[m:], size=m - n_unit, replace=False)
        basis = rng.permutation(np.concatenate(
            [[unit_on(int(i)) for i in unit_rows], core]).astype(np.int64))
        dense = internal_basis_matrix(model, basis)
        if np.linalg.cond(dense) > 1e8:
            continue
        label = "all-unit" if n_unit == m else "no-unit" if n_unit == 0 else "mixed"
        checked[label] += 1
        np.testing.assert_allclose(refactored(model, basis), np.linalg.inv(dense),
                                   rtol=1e-9, atol=1e-9)


def test_lone_core_entries_skip_gauss_jordan_and_keep_the_whole_core_bits(monkeypatch):
    # dw_master's crash basis with some link rows' surplus columns swapped
    # for loaded columns: the core then holds both lone entries (a block
    # whose convexity row only its initial column covers) and a block of
    # shared rows, and only that block reaches Gauss-Jordan
    received = []
    real_inv = lp_module._inverse
    monkeypatch.setattr(lp_module, "_inverse", lambda a: received.append(a.copy()) or real_inv(a))
    rng = np.random.default_rng(43)
    mixed = 0
    while mixed < 20:
        blocks = int(rng.integers(2, 9))
        costs, rows, coeffs = dw_master(rng, blocks=blocks, links=int(rng.integers(3, 12)))
        # scaled columns, so that no lone entry is 1
        model = build(costs, rows, coeffs * np.round(rng.uniform(0.3, 3.0, len(costs)), 3))
        basis, _ = model._cold_start()
        links = len(rows) - blocks
        swap = rng.choice(links, size=int(rng.integers(1, min(links, 3 * blocks) + 1)),
                          replace=False)
        basis[swap] = rng.choice(internal_columns(model)[0][blocks:], size=len(swap),
                                 replace=False)
        dense = internal_basis_matrix(model, basis)
        if np.linalg.cond(dense) > 1e8:
            continue
        # the core and its lone entries, read off the dense basis
        multi = (dense != 0.0).sum(axis=0) > 1
        core = dense[~(dense[:, ~multi] != 0.0).any(axis=1)][:, multi]
        on = core != 0.0
        lone = on & (on.sum(axis=0) == 1) & (on.sum(axis=1, keepdims=True) == 1)
        rest_rows, rest_cols = ~lone.any(axis=1), ~lone.any(axis=0)
        received.clear()
        assert np.array_equal(refactored(model, basis), oracles.whole_core_inverse(
            basis, model._ptr, model._row, model._val))
        if rest_rows.any():
            assert len(received) == 1
            assert np.array_equal(received[0], core[np.ix_(rest_rows, rest_cols)])
        else:
            assert not received
        mixed += bool(lone.any() and rest_rows.any())


def test_core_inverse_rejects_singular_bases():
    model = LpModel([(RowSense.GE, 1.0), (RowSense.GE, 2.0)])
    model.add_column(1.0, [(0, 1.0)])
    model.add_column(1.0, [(0, 2.0)])
    model.add_column(1.0, [(1, 0.0)])  # a unit column whose entry is 0
    model.add_column(1.0, [(0, 1.0), (1, 2.0)])
    model.add_column(1.0, [(0, -0.5), (1, -1.0)])
    model.add_column(1.0, [(0, 0.0), (1, 1.0)])  # with row 1 a unit row, a lone 0
    (s0, s1, zero, p, q, lone_zero), art = internal_columns(model)
    good = np.array([s1, art[1]])
    inv = lp_module._PanelInverse(2)
    assert refactored(model, good, inv) == pytest.approx(np.diag([0.5, 1.0]))
    # a singular basis leaves the inverse as it was
    for singular in ([s0, s1],     # two unit columns on row 0
                     [s0, zero],
                     [p, q],       # a core of two parallel columns
                     [lone_zero, art[1]]):
        with pytest.raises(np.linalg.LinAlgError):
            refactored(model, np.array(singular), inv)
        assert inv.dense == pytest.approx(np.diag([0.5, 1.0]))


def test_unit_columns_sharing_a_row_name_phase_and_pivot():
    # row 1's artificial is moved onto row 0, so the phase-1 start basis holds
    # two unit columns on row 0; no column covers row 1, so that artificial
    # never leaves and both attempts reach their first refactorization.  Each
    # column has entries on two artificial-held rows, so the crash takes none.
    model = LpModel([(RowSense.GE, 1.0 + i % 3) for i in range(150)])
    for i in range(150):
        if i != 1:
            model.add_column(1.0, [(i, 1.0), (2 if i == 0 else (i + 1) % 150, 0.5)])
    _, art = internal_columns(model)
    model._row[model._ptr[art[1]]] = 0
    with pytest.raises(LpNumericalError) as info:
        model.solve()
    msg = str(info.value)
    assert "phase 1, pivot 128: singular basis during refactorization" in msg
    assert "Bland retry: phase 1, pivot 32: singular basis" in msg
