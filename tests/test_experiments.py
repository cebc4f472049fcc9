import csv
import io
import os
import subprocess
import sys

import pytest

from colgen import (ExperimentConfig, GaBlockProblem, generate_ga_instance, generate_mc_instance,
                    parse_ga_instance, parse_mc_instance)
import colgen
from colgen import experiments
from colgen.cli import build_parser, main
from colgen.experiments import (CSV_COLUMNS, STRATEGIES, emit_csv,
                                emit_markdown, emit_report, format_objective,
                                format_pct, gap_pct, pct_reduction,
                                run_experiment)

import oracles


def ga_batch(count=3, bins=6, items=5, seed=0):
    return [(f"ga-s{seed + i}", generate_ga_instance(bins, items, seed + i))
            for i in range(count)]


def csv_rows(csv_text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(csv_text)))


def strip_time_columns(csv_text: str) -> list[list[str]]:
    timing = ("time_s", "master_s", "pricing_s", "screening_s", "r_time_pct", "r_ptime_pct")
    drop = {CSV_COLUMNS.index(name) for name in timing}
    return [[c for i, c in enumerate(cells) if i not in drop]
            for cells in csv_rows(csv_text)]


# ----------------------------------------------------------------------
# metric arithmetic and formatting

def test_pct_reduction_examples():
    assert pct_reduction(180, 90) == 50.0
    assert pct_reduction(100, 100) == 0.0
    assert pct_reduction(100, 120) == -20.0


def test_format_pct_examples():
    assert format_pct(50.0) == "50.00%"
    assert format_pct(pct_reduction(145, 180)) == "-24.14%"


def test_gap_is_zero_at_reference():
    assert gap_pct(123.456, 123.456) == 0.0
    assert gap_pct(110.0, 100.0) == pytest.approx(10.0)


def test_gap_above_a_negative_reference_is_positive():
    assert gap_pct(-18.0, -20.0) == 10.0
    assert gap_pct(-22.0, -20.0) == -10.0


def test_equal_negative_objectives_report_a_zero_gap():
    # the best pattern costs -20000: exact-all ends at baseline's objective
    inst = parse_ga_instance("ga 1 2\nbin 0 10\nbin 1 10\nitem 0 0 -20000 1\nitem 0 1 5 1\n")
    config = ExperimentConfig(problem="ga", strategies=("exact-all", "heur-all"))
    rows = csv_rows(emit_csv(run_experiment(config, [("neg", inst)]).rows))
    col = {name: CSV_COLUMNS.index(name) for name in ("objective", "termination", "gap_pct")}
    assert [[r[col["objective"]], r[col["termination"]]] for r in rows[1:]] == [
        ["-2.00E+04", "optimal"], ["-2.00E+04", "optimal"], ["-2.00E+04", "converged"]]
    assert [r[col["gap_pct"]] for r in rows[2:]] == ["0.00", "0.00"]


def test_objective_formatting():
    assert format_objective(123456.0) == "1.23E+05"


def test_strategy_table():
    assert set(STRATEGIES) == {"baseline", "exact-all", "exact-computed",
                               "exact-add", "heur-all", "heur-computed", "heur-add"}


# ----------------------------------------------------------------------
# experiment runner

def test_baseline_always_anchors_the_row():
    config = ExperimentConfig(problem="ga", strategies=("exact-all",))
    report = run_experiment(config, ga_batch(2))
    assert report.ok
    for row in report.rows:
        assert list(row.results) == ["baseline", "exact-all"]
        base = row.results["baseline"]
        assert base.r_calls is None and base.r_time is None and base.gap is None
        sr = row.results["exact-all"]
        assert None not in (sr.r_calls, sr.r_time, sr.r_ptime)
        assert sr.gap == pytest.approx(0.0, abs=1e-6)


UNROUTABLE_MC = "nodes 2\narc 0 1 10 9 1\ncommodity 0 1 1 2\n"  # delay 9 > budget 2


def test_failures_are_isolated():
    bad = parse_mc_instance(UNROUTABLE_MC)
    good = generate_mc_instance(5, 12, 2, seed=1)
    config = ExperimentConfig(problem="mc", strategies=("exact-all",))
    report = run_experiment(config, [("bad", bad), ("good", good)])
    assert not report.ok
    assert {f.instance for f in report.failures} == {"bad"}
    names = {row.instance: row for row in report.rows}
    assert not names["bad"].results
    assert list(names["good"].results) == ["baseline", "exact-all"]


class OverclaimingBounds(GaBlockProblem):
    # exact screening reads bound_terms: the oracle loop reaches the lie below
    bound_terms = oracles.bound_terms_by_loop

    def hypercube_bound_term(self, block, pi_prev, pi_now):
        return 1e6


def test_audit_violations_reach_the_report(monkeypatch):
    monkeypatch.setattr(experiments, "make_problem",
                        lambda problem, inst: OverclaimingBounds(inst))
    config = ExperimentConfig(problem="ga", strategies=("exact-all",), audit=True)
    report = run_experiment(config, ga_batch(1))
    assert report.audit_violations
    assert not report.ok


def test_deterministic_apart_from_timing():
    config = ExperimentConfig(problem="ga",
                              strategies=("exact-all", "heur-computed"))
    first = emit_csv(run_experiment(config, ga_batch(3)).rows)
    second = emit_csv(run_experiment(config, ga_batch(3)).rows)
    assert strip_time_columns(first) == strip_time_columns(second)
    # an mc instance caches its set-up for every problem built from it, so
    # the second batch reuses the first's
    mc = [(f"mc-s{seed}", generate_mc_instance(15, 40, 20, seed)) for seed in range(2)]
    config = ExperimentConfig(problem="mc", strategies=("exact-all", "heur-all"))
    first = run_experiment(config, mc)
    second = run_experiment(config, mc)
    assert first.ok and second.ok
    assert strip_time_columns(emit_csv(first.rows)) == strip_time_columns(emit_csv(second.rows))


def test_every_strategy_row_reports_its_time_reductions():
    # the runner is serial, so every row's times were taken alike and each
    # non-baseline row carries r_time and r_ptime, in the report too
    strategies = tuple(s for s in STRATEGIES if s != "baseline")
    batches = (("ga", ga_batch(2)),
               ("mc", [(f"mc-s{seed}", generate_mc_instance(8, 20, 6, seed)) for seed in range(2)]))
    col = {name: CSV_COLUMNS.index(name) for name in ("strategy", "r_time_pct", "r_ptime_pct")}
    for problem, instances in batches:
        report = run_experiment(ExperimentConfig(problem=problem, strategies=strategies),
                                instances)
        assert report.ok and len(report.rows) == 2
        for row in report.rows:
            assert list(row.results) == ["baseline", *strategies]
            for strat in strategies:
                sr = row.results[strat]
                assert isinstance(sr.r_time, float) and isinstance(sr.r_ptime, float), \
                    f"{problem} {row.instance} {strat}"
        cells = csv_rows(emit_csv(report.rows))[1:]
        assert len(cells) == 2 * len(STRATEGIES)
        for r in cells:
            if r[col["strategy"]] != "baseline":
                float(r[col["r_time_pct"]]), float(r[col["r_ptime_pct"]])


def test_importing_colgen_starts_no_process_pool():
    # a fresh interpreter: pytest itself may have loaded either module
    code = ("import sys, colgen, colgen.cli\n"
            "from colgen import ExperimentConfig, generate_ga_instance, run_experiment\n"
            "run_experiment(ExperimentConfig(problem='ga', strategies=('exact-all',)),\n"
            "               [('ga', generate_ga_instance(6, 5, 0))])\n"
            "print(sorted({'concurrent.futures', 'multiprocessing'} & sys.modules.keys()))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(colgen.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_config_rejects_a_bare_strategy_name():
    # read letter by letter it would be refused as "unknown strategies: e, x, ..."
    with pytest.raises(ValueError, match=r"^strategies must be a sequence of names, "
                                         r"got 'exact-all'$"):
        ExperimentConfig(problem="ga", strategies="exact-all")
    assert ExperimentConfig(problem="ga", strategies=("exact-all",)).strategies == ("exact-all",)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(problem="lp")
    with pytest.raises(ValueError):
        ExperimentConfig(problem="ga", strategies=("exact-all", "nope"))
    with pytest.raises(ValueError, match="^need at least one strategy$"):
        ExperimentConfig(problem="ga", strategies=())
    # each family's runs take only that family's instances
    with pytest.raises(TypeError, match="^mc runs need an McInstance$"):
        experiments.make_problem("mc", generate_ga_instance(3, 2, 0))
    with pytest.raises(TypeError, match="^ga runs need a GaInstance$"):
        experiments.make_problem("ga", generate_mc_instance(7, 16, 4, 0))
    for bad in ({"epsilon": 0.0}, {"epsilon": float("nan")}, {"epsilon": float("inf")},
                {"epsilon": "0.1"}, {"max_iterations": 0}, {"retain_duals": 0},
                {"max_iterations": 2.5}, {"retain_duals": 2.5}, {"retain_duals": True},
                {"audit": "no"}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            ExperimentConfig(problem="ga", **bad)


# ----------------------------------------------------------------------
# report emission

def test_csv_empty_is_header_only():
    assert emit_csv([]) == ",".join(CSV_COLUMNS) + "\n"


def test_csv_layout():
    config = ExperimentConfig(problem="ga", strategies=("exact-all",))
    report = run_experiment(config, ga_batch(1))
    rows = csv_rows(emit_csv(report.rows))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 3  # header + baseline + exact-all
    base_cells = rows[1]
    assert base_cells[3] == "baseline"
    for name in ("r_calls_pct", "r_time_pct", "r_ptime_pct", "gap_pct"):
        assert base_cells[CSV_COLUMNS.index(name)] == ""
    strat_cells = rows[2]
    assert strat_cells[CSV_COLUMNS.index("gap_pct")] == "0.00"
    float(strat_cells[CSV_COLUMNS.index("r_calls_pct")])  # bare number, no sign noise
    assert CSV_COLUMNS.index("r_ptime_pct") == CSV_COLUMNS.index("r_time_pct") + 1
    float(strat_cells[CSV_COLUMNS.index("r_ptime_pct")])


def test_pricing_rtime_compares_screening_plus_pricing_with_baseline_pricing(monkeypatch):
    # fixed phase timers: baseline prices in 2 s, the strategy screens in
    # 0.5 s and prices in 1 s, so its pricing work fell by 25%
    real = experiments.run_single

    def timed(config, instance, strategy):
        result = real(config, instance, strategy)
        stats = result.stats
        stats.screening_time_s, stats.pricing_time_s = ((0.0, 2.0) if strategy == "baseline"
                                                        else (0.5, 1.0))
        return result

    monkeypatch.setattr(experiments, "run_single", timed)
    report = run_experiment(ExperimentConfig(problem="ga", strategies=("exact-all",)),
                            ga_batch(1))
    assert report.rows[0].results["exact-all"].r_ptime == 25.0
    assert report.rows[0].results["baseline"].r_ptime is None
    assert "exact-all %rPTime" in emit_markdown(report.rows)


def test_repeated_strategy_names_solve_once(tmp_path, monkeypatch):
    real = experiments.run_single
    solved = []

    def counted(config, instance, strategy):
        solved.append(strategy)
        return real(config, instance, strategy)

    monkeypatch.setattr(experiments, "run_single", counted)
    code = main(["run", "--problem", "ga", "--generate", "bins=20,items=5,count=1",
                 "--strategies", "exact-all,exact-all,baseline,exact-all",
                 "--out", str(tmp_path / "r.csv")])
    assert code == 0
    assert solved == ["baseline", "exact-all"]


def test_markdown_groups_exact_and_heuristic():
    config = ExperimentConfig(problem="ga",
                              strategies=("exact-all", "heur-computed"))
    report = run_experiment(config, ga_batch(2))
    text = emit_markdown(report.rows)
    assert "### Exact filtering" in text
    assert "### Heuristic filtering" in text
    assert "exact-all %rCalls" in text
    assert "heur-computed GAP" in text
    assert "exact-all GAP" not in text  # gap column belongs to the heuristics table
    assert "ga-s0" in text and "ga-s1" in text


def test_markdown_heuristic_only_drops_exact_table():
    config = ExperimentConfig(problem="ga", strategies=("heur-all",))
    report = run_experiment(config, ga_batch(1))
    text = emit_markdown(report.rows)
    assert "### Exact filtering" not in text
    assert "### Heuristic filtering" in text


def test_markdown_empty():
    assert emit_markdown([]) == "_no instances_\n"


def test_emit_report_dispatch():
    assert emit_report([], "csv").startswith("problem,")
    assert emit_report([], "md") == emit_report([], "markdown")
    with pytest.raises(ValueError):
        emit_report([], "xml")


# ----------------------------------------------------------------------
# command line

def test_cli_generate_then_run(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["generate", "--problem", "ga", "--count", "2", "--seed", "3",
                 "--bins", "5", "--items", "4", "--out-dir", str(data)]) == 0
    files = sorted(p.name for p in data.iterdir())
    assert files == ["ga-s3.txt", "ga-s4.txt"]  # the names `run --generate` gives them
    parse_ga_instance((data / "ga-s3.txt").read_text())  # round-trips

    out = tmp_path / "report.csv"
    code = main(["run", "--problem", "ga", "--instances", str(data / "*.txt"),
                 "--strategies", "baseline,exact-all", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 5  # two instances, two strategies each
    capsys.readouterr()


def test_cli_generated_batch_to_stdout(capsys):
    code = main(["run", "--problem", "ga",
                 "--generate", "bins=5,items=4,count=2", "--seed", "7",
                 "--strategies", "exact-all,heur-add", "--format", "md"])
    captured = capsys.readouterr()
    assert code == 0
    assert "### Exact filtering" in captured.out
    assert "ga-s7" in captured.out and "ga-s8" in captured.out


def test_cli_reports_show_termination(tmp_path, capsys):
    # feasible, but its optimum (50000) lies above the fallback price, so
    # both runs stop with weight on the fallback columns at 1e4
    path = tmp_path / "art.ga"
    path.write_text("ga 1 1\nbin 0 10\nitem 0 0 50000 1\n")
    out = tmp_path / "r.csv"
    assert main(["run", "--problem", "ga", "--instances", str(path),
                 "--strategies", "baseline,exact-all", "--out", str(out)]) == 0
    header, *rows = csv_rows(out.read_text())
    assert header == CSV_COLUMNS
    col = CSV_COLUMNS.index("termination")
    assert [(r[3], r[CSV_COLUMNS.index("objective")], r[col]) for r in rows] == [
        ("baseline", "1.00E+04", "artificial"), ("exact-all", "1.00E+04", "artificial")]
    assert main(["run", "--problem", "ga", "--instances", str(path),
                 "--strategies", "exact-all,heur-all", "--format", "md"]) == 0
    tables = markdown_tables(capsys.readouterr().out)
    assert len(tables) == 3  # exact, heuristic, time split
    for table in tables[:2]:
        terms = {name: cell for name, cell in table[0].items() if name.endswith("termination")}
        assert len(terms) == 2 and set(terms.values()) == {"artificial"}


def markdown_tables(text: str) -> list[list[dict[str, str]]]:
    """Each markdown table's body rows as {header: cell} dicts."""
    tables = []
    for section in text.split("### ")[1:]:
        header, _, *body = [ln.strip("|").split("|") for ln in section.splitlines()
                            if ln.startswith("|")]
        names = [c.strip() for c in header]
        tables.append([dict(zip(names, (c.strip() for c in cells))) for cells in body])
    return tables


def test_markdown_shows_each_runs_termination():
    config = ExperimentConfig(problem="ga", strategies=("exact-all", "heur-all"))
    # seed 78: heur-all stops above the optimum that baseline reaches
    report = run_experiment(config, [("ga-s78", generate_ga_instance(100, 10, 78))])
    exact, heur, _ = markdown_tables(emit_markdown(report.rows))
    assert exact[0]["termination"] == heur[0]["termination"] == "optimal"
    assert exact[0]["exact-all termination"] == "optimal"
    assert heur[0]["heur-all termination"] == "converged"


def test_reports_split_each_runs_time(monkeypatch):
    # fixed pivots and phase timers, read back from both formats
    real = experiments.run_single

    def timed(config, instance, strategy):
        result = real(config, instance, strategy)
        stats = result.stats
        stats.master_pivots = 7 if strategy == "baseline" else 9
        stats.wall_time_s, stats.master_time_s = 4.0, 2.5
        stats.pricing_time_s, stats.screening_time_s = 1.0, 0.25
        return result

    monkeypatch.setattr(experiments, "run_single", timed)
    report = run_experiment(ExperimentConfig(problem="ga", strategies=("exact-all",)),
                            ga_batch(1))
    header, *rows = csv_rows(emit_csv(report.rows))
    names = ("strategy", "pivots", "time_s", "master_s", "pricing_s", "screening_s")
    assert [tuple(r[header.index(n)] for n in names) for r in rows] == [
        ("baseline", "7", "4.000", "2.500", "1.000", "0.250"),
        ("exact-all", "9", "4.000", "2.500", "1.000", "0.250")]
    *_, split = markdown_tables(emit_markdown(report.rows))
    names = ("instance", "strategy", "#Pivots", "time (s)", "master (s)", "pricing (s)",
             "screening (s)")
    assert [tuple(r[n] for n in names) for r in split] == [
        ("ga-s0", "baseline", "7", "4.000", "2.500", "1.000", "0.250"),
        ("ga-s0", "exact-all", "9", "4.000", "2.500", "1.000", "0.250")]


def test_cli_bad_inputs(tmp_path, capsys):
    assert main(["run", "--problem", "ga", "--instances",
                 str(tmp_path / "nothing-*.txt")]) == 2
    assert main(["run", "--problem", "ga", "--generate", "bins=5"]) == 2
    # --seed is the only seed: a seed= key is an unknown key, and the message says so
    assert main(["run", "--problem", "ga", "--generate", "bins=5,items=4,count=2,seed=3"]) == 2
    assert "--seed" in capsys.readouterr().err
    assert main(["generate", "--problem", "ga", "--count", "1",
                 "--out-dir", str(tmp_path)]) == 2
    capsys.readouterr()
    # a matched path that cannot be read: a directory, a file that is not UTF-8
    (tmp_path / "dir.txt").mkdir()
    (tmp_path / "latin1.txt").write_bytes("ga 1 1\nbin 0 10 \xe9\n".encode("latin-1"))
    for name in ("dir.txt", "latin1.txt"):
        path = str(tmp_path / name)
        assert main(["run", "--problem", "ga", "--instances", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"colgen: {path}: ") and "Traceback" not in err
    # an empty generated batch
    out_dir = tmp_path / "empty"
    for argv in (["run", "--problem", "ga", "--generate", "bins=3,items=2,count=0"],
                 ["generate", "--problem", "ga", "--bins", "3", "--items", "2", "--count", "0",
                  "--out-dir", str(out_dir)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "count must be at least 1" in captured.err and not captured.out
    assert not out_dir.exists()


@pytest.mark.parametrize("flag", [["--epsilon", "0"], ["--epsilon", "nan"],
                                  ["--epsilon", "inf"], ["--max-iterations", "0"]])
def test_cli_bad_numeric_flag_exits_2_before_any_solve(capsys, monkeypatch, flag):
    monkeypatch.setattr(experiments, "run_dwd", lambda *args: pytest.fail("solved"))
    assert main(["run", "--problem", "ga", "--generate", "bins=5,items=4,count=2",
                 *flag]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("colgen: ") and "FAILED" not in captured.err
    assert captured.err.count("\n") == 1 and not captured.out


def test_cli_unwritable_out_exits_2_before_any_solve(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(experiments, "run_dwd", lambda *args: pytest.fail("solved"))
    out = tmp_path / "missing" / "dir" / "r.csv"
    assert main(["run", "--problem", "ga", "--generate", "bins=5,items=4,count=2",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("colgen: --out: ") and str(out) in captured.err
    assert captured.err.count("\n") == 1 and not captured.out


def test_cli_generate_into_a_file_exits_2(capsys, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["generate", "--problem", "ga", "--bins", "3", "--items", "2",
                 "--out-dir", str(taken)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("colgen: --out-dir: ") and captured.err.count("\n") == 1
    assert not captured.out and taken.read_text() == ""


@pytest.mark.parametrize("text, want", [("inf", None), ("none", None), ("all", None),
                                        ("2", 2)])
def test_cli_alpha_reads_every_dual_vector_or_a_count(text, want):
    args = build_parser().parse_args(["run", "--problem", "ga", "--generate", "bins=5,items=4",
                                      "--alpha", text])
    assert args.alpha == want


@pytest.mark.parametrize("argv, message", [
    (["--alpha", "0"], "--alpha: alpha must be at least 1"),
    (["--alpha", "x"], "--alpha: invalid"),
    (["--generate", "bins"], "bad generator key=value pair 'bins'"),
    # a repeated key would silently win: this once solved 2 bins
    (["--generate", "bins=100,items=3,bins=2,count=1"], "generator key 'bins' repeats"),
    (["--generate", "bins=x,items=3"], "bad generator key=value pair 'bins=x'"),
    (["--generate", "bins=3,items=2.5"], "bad generator key=value pair 'items=2.5'"),
    (["--generate", "bins=3=4,items=2"], "bad generator key=value pair 'bins=3=4'"),
    (["--strategies", "exact-all,nope"],
     f"--strategies: unknown strategies nope; choose from {', '.join(STRATEGIES)}"),
])
def test_cli_bad_alpha_or_generator_pair_exits_2_before_any_solve(capsys, monkeypatch, argv,
                                                                  message):
    monkeypatch.setattr(experiments, "run_dwd", lambda *args: pytest.fail("solved"))
    if argv[0] != "--generate":
        argv = [*argv, "--generate", "bins=5,items=4,count=2"]
    with pytest.raises(SystemExit) as info:
        main(["run", "--problem", "ga", *argv])
    assert info.value.code == 2
    err = capsys.readouterr().err
    # the message names the flag or the pair, not the parser's function
    assert message in err and "_parse" not in err


@pytest.mark.parametrize("command", [
    ["generate", "--problem", "ga", "--bins", "3", "--items", "2", "--out-dir"],
    ["run", "--problem", "ga", "--generate", "bins=3,items=2", "--out"],
])
def test_cli_negative_seed_exits_2_before_any_solve_or_write(tmp_path, capsys, monkeypatch,
                                                             command):
    monkeypatch.setattr(experiments, "run_dwd", lambda *args: pytest.fail("solved"))
    out = tmp_path / "out"
    assert main([*command, str(out), "--seed", "-1"]) == 2
    assert "--seed must be non-negative, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_mc_files_solve_like_the_generated_batch(tmp_path, capsys):
    # a generated instance keeps the generator's pricing set-up, and a parsed
    # file builds its own; both must solve alike
    data = tmp_path / "data"
    assert main(["generate", "--problem", "mc", "--count", "2", "--seed", "4", "--nodes", "25",
                 "--arcs", "80", "--commodities", "50", "--out-dir", str(data)]) == 0
    common = ["run", "--problem", "mc", "--strategies", "exact-all,heur-all,exact-add",
              "--alpha", "2", "--audit"]
    files, generated = tmp_path / "files.csv", tmp_path / "generated.csv"
    assert main([*common, "--instances", str(data / "*.txt"), "--out", str(files)]) == 0
    assert main([*common, "--generate", "nodes=25,arcs=80,commodities=50,count=2",
                 "--seed", "4", "--out", str(generated)]) == 0
    capsys.readouterr()
    rows = strip_time_columns(files.read_text())
    assert len(rows) == 9
    assert rows == strip_time_columns(generated.read_text())


@pytest.mark.parametrize("shape", [
    ["--problem", "ga", "--bins", "0", "--items", "5"],
    ["--problem", "mc", "--nodes", "5", "--arcs", "3", "--commodities", "2"],
    ["--problem", "mc", "--nodes", "1", "--arcs", "3", "--commodities", "2"],
    ["--problem", "mc", "--nodes", "25", "--commodities", "50"],  # no --arcs
    ["--problem", "ga", "--bins", "3", "--items", "2", "--arcs", "9"],  # an mc flag
])
def test_cli_generate_bad_shape_exits_2(tmp_path, capsys, shape):
    out_dir = tmp_path / "d"
    assert main(["generate", *shape, "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("colgen: ") and "Traceback" not in err
    assert not out_dir.exists()


def test_cli_failing_instance_exits_nonzero(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text(UNROUTABLE_MC)
    code = main(["run", "--problem", "mc", "--instances", str(path),
                 "--out", str(tmp_path / "r.csv")])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAILED" in captured.err


def test_cli_audit_violation_exits_nonzero(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(experiments, "make_problem",
                        lambda problem, inst: OverclaimingBounds(inst))
    code = main(["run", "--problem", "ga", "--generate", "bins=6,items=5,count=1",
                 "--strategies", "exact-all", "--audit",
                 "--out", str(tmp_path / "r.csv")])
    captured = capsys.readouterr()
    assert code == 1
    assert "AUDIT" in captured.err
