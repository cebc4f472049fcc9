"""Command line front end.

    colgen run --problem ga --generate bins=200,items=10,count=5 \
        --strategies baseline,exact-all,heur-add --audit --format md
    colgen run --problem mc --instances 'data/*.txt' --strategies exact-all
    colgen generate --problem ga --bins 100 --items 10 --count 10 --out-dir data/

Exit status: 0 on success, 1 when any run failed or an audit check was
violated, 2 on bad arguments, unreadable instances or unwritable output
paths.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import pathlib
import sys

from .assignment import generate_ga_instance, parse_ga_instance, write_ga_instance
from .experiments import (STRATEGIES, ExperimentConfig, emit_report, run_experiment)
from .mcflow import generate_mc_instance, parse_mc_instance, write_mc_instance


# each family's shape keys, in the order its generator takes them
GENERATORS = {"ga": (("bins", "items"), generate_ga_instance),
              "mc": (("nodes", "arcs", "commodities"), generate_mc_instance)}


def _parse_alpha(text: str):
    if text in ("inf", "none", "all"):
        return None
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid value {text!r}: expected an integer or 'inf'") from None
    if value < 1:
        raise argparse.ArgumentTypeError("alpha must be at least 1 (or 'inf')")
    return value


def _parse_strategies(text: str) -> tuple[str, ...]:
    names = tuple(s.strip() for s in text.split(",") if s.strip())
    unknown = [s for s in names if s not in STRATEGIES]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown strategies {', '.join(unknown)}; "
            f"choose from {', '.join(STRATEGIES)}")
    return names


def _parse_genspec(text: str) -> dict[str, int]:
    params = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            key, value = part.split("=")
            value = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad generator key=value pair {part!r}") from None
        key = key.strip()
        if key in params:
            raise argparse.ArgumentTypeError(f"generator key {key!r} repeats")
        params[key] = value
    return params


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="colgen",
                                     description="column generation with pricing filtering")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="solve instances under one or more strategies")
    run.add_argument("--problem", choices=("mc", "ga"), required=True)
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("--instances", help="glob of instance files")
    source.add_argument("--generate", type=_parse_genspec, metavar="K=V,...",
                        help="generate instances instead of loading "
                             "(ga: bins,items,count; mc: nodes,arcs,commodities,count)")
    run.add_argument("--strategies", type=_parse_strategies, default=("baseline",),
                     help="comma-separated subset of: " + ", ".join(STRATEGIES))
    run.add_argument("--epsilon", type=float, default=1e-4)
    run.add_argument("--alpha", type=_parse_alpha, default=None,
                     help="screen with only the last N dual vectors (default: all)")
    run.add_argument("--seed", type=int, default=0, help="base seed for --generate")
    run.add_argument("--audit", action="store_true",
                     help="re-price every filtered block and cross-check reduced costs")
    run.add_argument("--format", choices=("csv", "md"), default="csv")
    run.add_argument("--out", help="write the report here instead of stdout")
    run.add_argument("--max-iterations", type=int, default=10_000)

    gen = sub.add_parser("generate", help="write instance files")
    gen.add_argument("--problem", choices=("mc", "ga"), required=True)
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out-dir", required=True)
    for keys, _ in GENERATORS.values():
        for key in keys:
            gen.add_argument(f"--{key}", type=int)
    return parser


def _generate_batch(problem: str, params: dict[str, int], seed: int):
    """`count` instances named `<problem>-s<seed>`, seeds counting up from `seed`."""
    keys, generate = GENERATORS[problem]
    params = dict(params)
    count = params.pop("count", 1)
    if set(params) != set(keys):
        raise ValueError(f"{problem} generator takes {', '.join(keys)} and an optional "
                         f"count; --seed sets the seed")
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if seed < 0:
        raise ValueError(f"--seed must be non-negative, got {seed}")
    return [(f"{problem}-s{seed + i}", generate(*(params[k] for k in keys), seed + i))
            for i in range(count)]


def _load_batch(problem: str, pattern: str):
    paths = sorted(glob.glob(pattern))
    if not paths:
        raise ValueError(f"no instance files match {pattern!r}")
    parse = parse_mc_instance if problem == "mc" else parse_ga_instance
    instances = []
    for path in paths:
        # unreadable files (directories, bad encodings) and parse errors alike
        try:
            instances.append((pathlib.Path(path).stem, parse(pathlib.Path(path).read_text())))
        except Exception as exc:
            raise ValueError(f"{path}: {exc}") from exc
    return instances


def _cmd_run(args) -> int:
    try:
        if args.generate is not None:
            instances = _generate_batch(args.problem, args.generate, args.seed)
        else:
            instances = _load_batch(args.problem, args.instances)
        config = ExperimentConfig(problem=args.problem, strategies=args.strategies,
                                  epsilon=args.epsilon, retain_duals=args.alpha,
                                  audit=args.audit, max_iterations=args.max_iterations)
    except ValueError as exc:
        print(f"colgen: {exc}", file=sys.stderr)
        return 2
    # opened before any solve, so that an unwritable path loses no report
    try:
        out = open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        print(f"colgen: --out: {exc}", file=sys.stderr)
        return 2
    with out as stream:
        report = run_experiment(config, instances)
        stream.write(emit_report(report.rows, args.format))
    for failure in report.failures:
        print(f"colgen: FAILED {failure.instance}/{failure.strategy}: {failure.error}",
              file=sys.stderr)
    for violation in report.audit_violations:
        print(f"colgen: AUDIT {violation}", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_generate(args) -> int:
    params = {key: getattr(args, key) for keys, _ in GENERATORS.values() for key in keys
              if getattr(args, key) is not None}
    try:
        instances = _generate_batch(args.problem, {**params, "count": args.count}, args.seed)
    except ValueError as exc:
        print(f"colgen: {exc}", file=sys.stderr)
        return 2
    write = write_ga_instance if args.problem == "ga" else write_mc_instance
    out_dir = pathlib.Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, inst in instances:
            path = out_dir / f"{name}.txt"
            path.write_text(write(inst))
            print(path)
    except OSError as exc:
        print(f"colgen: --out-dir: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_generate(args)


def console_entry():
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
