"""The ``repro-puf bench`` subcommand: list, run, and compare cells.

Discovery imports every ``bench_*.py`` under the working tree's
``benchmarks/`` directory, which registers their cases on the matrix;
the subcommand then drives the shared execution layer, so the CLI, the
pytest entries, and the standalone scripts all produce the same
versioned artifacts.

::

    repro-puf bench list
    repro-puf bench run --tier smoke
    repro-puf bench run soft_sweep identify_scale
    repro-puf bench run --tier smoke --compare      # gate while running
    repro-puf bench compare run.json                # gate a saved run
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from .case import matrix
from .execution import run_matrix
from .scale import TIERS, active_tier
from .schema import bench_root, load_trajectory, trajectory_path
from .variance import GateConfig, compare_runs

__all__ = ["add_bench_subparser", "cmd_bench", "discover"]


def discover(directory: Optional[Path] = None) -> int:
    """Import every bench module so its cells register; returns count.

    Modules that fail to import are reported and skipped -- one broken
    benchmark should not take down ``bench list`` for the other 28.
    """
    directory = Path(directory) if directory is not None else bench_root()
    if not directory.is_dir():
        return 0
    path = str(directory)
    if path not in sys.path:
        sys.path.insert(0, path)
    imported = 0
    for module_file in sorted(directory.glob("bench_*.py")):
        name = module_file.stem
        try:
            module = importlib.import_module(name)
            # A stale module object from a previous directory would
            # shadow this tree's cells; reload if the path moved.
            if Path(getattr(module, "__file__", module_file)).resolve() \
                    != module_file.resolve():
                importlib.reload(module)
            imported += 1
        except Exception as exc:  # noqa: BLE001 -- report, don't die
            print(f"bench: could not import {name}: {exc}", file=sys.stderr)
    return imported


def add_bench_subparser(sub: argparse._SubParsersAction) -> None:
    """Attach the ``bench`` subcommand to the repro-puf parser."""
    p = sub.add_parser(
        "bench",
        help="benchmark matrix: list cells, run them, compare trajectories",
    )
    actions = p.add_subparsers(dest="bench_command", required=True)

    lp = actions.add_parser("list", help="list registered matrix cells")
    lp.add_argument("--tier", choices=TIERS, default=None,
                    help="tier whose parameters to display (default: active)")
    lp.add_argument("--dir", metavar="DIR", default=None,
                    help="benchmarks directory (default: auto-detect)")

    rp = actions.add_parser("run", help="run matrix cells and record artifacts")
    rp.add_argument("cases", nargs="*", metavar="CASE",
                    help="case names to run (default: every registered case)")
    rp.add_argument("--tier", choices=TIERS, default=None,
                    help="scale tier (default: REPRO_SCALE / laptop)")
    rp.add_argument("--samples", type=int, default=None,
                    help="timed samples per cell (default: tier policy)")
    rp.add_argument("--output", metavar="PATH", default=None,
                    help="also write the run document (cells + env) here")
    rp.add_argument("--no-record", action="store_true",
                    help="do not touch benchmarks/results or "
                         "BENCH_throughput.json")
    rp.add_argument("--compare", action="store_true",
                    help="gate the run against the committed trajectory "
                         "and exit non-zero on a statistical regression")
    rp.add_argument("--against", metavar="PATH", default=None,
                    help="baseline trajectory for --compare "
                         "(default: the committed BENCH_throughput.json)")
    rp.add_argument("--dir", metavar="DIR", default=None,
                    help="benchmarks directory (default: auto-detect)")
    _add_gate_options(rp)

    cp = actions.add_parser(
        "compare",
        help="gate a run/trajectory file against the committed trajectory",
    )
    cp.add_argument("candidate", nargs="?", metavar="RUN_JSON", default=None,
                    help="run document from `bench run --output` "
                         "(default: the working tree's BENCH_throughput.json)")
    cp.add_argument("--against", metavar="PATH", default=None,
                    help="baseline trajectory "
                         "(default: the committed BENCH_throughput.json)")
    cp.add_argument("--all-cells", action="store_true",
                    help="enforce every cell, not just the gated ones")
    cp.add_argument("--dir", metavar="DIR", default=None,
                    help="benchmarks directory (default: auto-detect)")
    _add_gate_options(cp)


def _add_gate_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sigma", type=float, default=None,
                        help="robust-sigma threshold for a median shift "
                             "to count as signal (default 4.0)")
    parser.add_argument("--min-rel-shift", type=float, default=None,
                        help="relative shift floor below which changes "
                             "are ignored (default 0.15)")


def _gate_config(args: argparse.Namespace) -> GateConfig:
    kwargs: Dict[str, Any] = {}
    if getattr(args, "sigma", None) is not None:
        kwargs["sigma_threshold"] = args.sigma
    if getattr(args, "min_rel_shift", None) is not None:
        kwargs["min_rel_shift"] = args.min_rel_shift
    return GateConfig(**kwargs)


def _print_report(report: Mapping[str, Any]) -> None:
    for verdict in report["verdicts"]:
        flag = {"ok": " ", "improved": "+", "new": "*", "regression": "!"}.get(
            verdict["status"], "?"
        )
        enforced = "" if verdict["enforced"] else " [informational]"
        print(f" {flag} {verdict['cell_id']}: {verdict['status']}"
              f"{enforced} -- {verdict['detail']}")
    if report["new_cells"]:
        # A cell the baseline has never seen is a warning, not a
        # failure: the gate cannot judge it, but refusing to run would
        # block every PR that *adds* a benchmark.  Exit codes stay
        # reserved: 1 for regressions, 2 for unusable inputs.
        print(
            f"warning: {report['new_cells']} cell(s) have no baseline "
            "yet and were not gated; they will be once recorded"
        )
    print(
        f"compared {report['compared']} cells "
        f"({report['new_cells']} new): "
        + ("OK" if report["ok"] else f"{report['failures']} regression(s)")
    )


def _cmd_list(args: argparse.Namespace) -> int:
    discover(Path(args.dir) if args.dir else None)
    tier = args.tier or active_tier()
    if not len(matrix):
        print("no benchmark cells registered (is benchmarks/ importable?)")
        return 1
    print(f"{len(matrix)} cases (tier shown: {tier})")
    for case in matrix:
        flags = []
        if case.gated:
            flags.append("gated")
        elif case.trajectory:
            flags.append("trajectory")
        params = dict(case.params_for(tier))
        print(
            f"  {case.name:<28} metric={case.metric} ({case.direction} "
            f"is better, {case.unit}) "
            f"samples@{tier}={case.samples_for(tier)}"
            + (f" [{' '.join(flags)}]" if flags else "")
        )
        if params:
            print(f"    {tier} params: {params}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    discover(Path(args.dir) if args.dir else None)
    # Read the baseline before the run records into the trajectory, so
    # a recording run is not compared against itself.
    baseline = None
    if args.compare:
        try:
            baseline = load_trajectory(Path(args.against) if args.against else None)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        run = run_matrix(
            names=args.cases or None,
            tier=args.tier,
            samples=args.samples,
            progress=print,
            record=not args.no_record,
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if not run["cells"]:
        print("error: no cells matched the request", file=sys.stderr)
        return 2
    if args.output:
        Path(args.output).write_text(
            json.dumps(run, indent=2, default=float) + "\n", encoding="utf-8"
        )
        print(f"run document written to {args.output}")
    if baseline is not None:
        report = compare_runs(baseline, run, _gate_config(args))
        _print_report(report)
        return 0 if report["ok"] else 1
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    discover(Path(args.dir) if args.dir else None)
    baseline_path = Path(args.against) if args.against else trajectory_path()
    if not baseline_path.exists():
        print(f"error: baseline trajectory {baseline_path} does not exist",
              file=sys.stderr)
        return 2
    candidate_path = Path(args.candidate) if args.candidate else trajectory_path()
    if not candidate_path.exists():
        print(f"error: candidate run {candidate_path} does not exist",
              file=sys.stderr)
        return 2
    try:
        baseline = load_trajectory(baseline_path)
        candidate = load_trajectory(candidate_path)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = compare_runs(
        baseline, candidate, _gate_config(args),
        gated_only=not args.all_cells,
    )
    _print_report(report)
    return 0 if report["ok"] else 1


def cmd_bench(args: argparse.Namespace) -> int:
    """Dispatch the bench subcommand."""
    handler = {
        "list": _cmd_list,
        "run": _cmd_run,
        "compare": _cmd_compare,
    }[args.bench_command]
    return handler(args)
