"""Command-line interface to the reproduction's main experiments.

Lets a user exercise the library without writing Python::

    repro-puf stability  --n-pufs 10 --challenges 50000
    repro-puf enroll     --n-pufs 4 --corners
    repro-puf attack     --n-pufs 4 --train 20000
    repro-puf auth       --n-pufs 4 --sessions 20 --corners
    repro-puf identify   --chips 10 --probes 50
    repro-puf aging      --n-pufs 4 --amplitude 0.3
    repro-puf serve-sim  --report report.json --audit audit.jsonl
    repro-puf lifecycle-sim --ticks 12 --chaos --report life.json
    repro-puf revoke     db-dir chip-3 --reason "key compromise"
    repro-puf bench      run --tier smoke --compare

(Installed as ``repro-puf``; also runnable as ``python -m repro.cli``.)
Each subcommand prints a compact report and exits non-zero on failure,
so the CLI doubles as a smoke test in CI pipelines.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.analysis.stability import stable_fraction_by_n
from repro.attacks.features import attack_matrices
from repro.attacks.harness import collect_stable_xor_crps
from repro.attacks.mlp import MlpClassifier
from repro.core.enrollment import enroll_chip
from repro.core.server import AuthenticationServer
from repro.crp.challenges import random_challenges
from repro.silicon.aging import AgingModel, age_chip
from repro.silicon.chip import PufChip
from repro.silicon.environment import paper_corner_grid
from repro.silicon.xorpuf import XorArbiterPuf

__all__ = ["main", "build_parser"]


def _jobs_arg(text: str) -> int:
    """``--jobs`` validator: a non-negative int (0 = all cores)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--jobs expects an integer, got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"--jobs must be >= 0 (0 = all cores), got {value}"
        )
    return value


def _positive_int_arg(flag: str):
    """A parse-time validator of *flag*: a positive int."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{flag} expects an integer, got {text!r}"
            ) from None
        if value < 1:
            raise argparse.ArgumentTypeError(f"{flag} must be >= 1, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-puf`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-puf",
        description="XOR arbiter PUF reproduction experiments (DAC'17).",
    )
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    parser.add_argument(
        "--jobs", type=_jobs_arg, default=1,
        help="worker processes for measurement campaigns "
             "(0 = all cores; results are identical at any value)",
    )
    parser.add_argument(
        "--chunk-size", type=_positive_int_arg("--chunk-size"), default=None,
        help="challenges per evaluation-engine chunk "
             "(bounds peak memory; default 65536)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_resume(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--resume", metavar="CAMPAIGN_DIR", default=None,
            help="checkpoint directory: chunk results are journalled "
                 "there, and re-running with the same directory resumes "
                 "an interrupted campaign from the last good chunk "
                 "(bit-identical at any --jobs/--chunk-size)",
        )

    p = sub.add_parser("stability", help="stable-CRP fraction vs XOR width (Fig. 3)")
    p.add_argument("--n-pufs", type=int, default=10)
    p.add_argument("--n-stages", type=int, default=32)
    p.add_argument("--challenges", type=int, default=20_000)
    p.add_argument("--trials", type=int, default=100_000)
    add_resume(p)

    p = sub.add_parser("enroll", help="run the Fig.-6 enrollment and print the record")
    p.add_argument("--n-pufs", type=int, default=4)
    p.add_argument("--n-stages", type=int, default=32)
    p.add_argument("--train", type=int, default=5000)
    p.add_argument("--validation", type=int, default=20_000)
    p.add_argument("--corners", action="store_true",
                   help="validate betas across the 9 V/T corners")
    p.add_argument("--save", metavar="PATH", help="write the record to an .npz file")
    add_resume(p)

    p = sub.add_parser("attack", help="MLP modeling attack on stable CRPs (Fig. 4)")
    p.add_argument("--n-pufs", type=int, default=4)
    p.add_argument("--n-stages", type=int, default=32)
    p.add_argument("--train", type=int, default=10_000)
    p.add_argument("--pool", type=int, default=60_000)
    add_resume(p)

    p = sub.add_parser("auth", help="zero-HD authentication sessions (Fig. 7)")
    p.add_argument("--n-pufs", type=int, default=4)
    p.add_argument("--n-stages", type=int, default=32)
    p.add_argument("--sessions", type=int, default=10)
    p.add_argument("--challenges", type=_positive_int_arg("--challenges"), default=64)
    p.add_argument("--max-attempts", type=_positive_int_arg("--max-attempts"),
                   default=1,
                   help="device-read attempts per session (fresh "
                        "challenges on every retry)")
    p.add_argument("--corners", action="store_true",
                   help="rotate sessions through the 9 V/T corners")

    p = sub.add_parser(
        "identify",
        help="1:N identification sweep over the bit-packed codebook plane",
    )
    p.add_argument("--chips", type=int, default=5, help="enrolled fleet size")
    p.add_argument("--n-pufs", type=int, default=4)
    p.add_argument("--n-stages", type=int, default=32)
    p.add_argument("--challenges", type=int, default=64,
                   help="identification block length per identity")
    p.add_argument("--train", type=int, default=2000)
    p.add_argument("--validation", type=int, default=8000)
    p.add_argument("--probes", type=int, default=20,
                   help="devices presented for identification "
                        "(fleet chips round-robin, plus one stranger)")
    p.add_argument("--save-db", metavar="DIR", default=None,
                   help="persist the database + codebook to this directory")

    p = sub.add_parser(
        "serve-sim",
        help="replay drifting, faulted traffic through the resilient "
             "service and write a reliability report",
    )
    p.add_argument("--chips", type=int, default=5, help="fleet size")
    p.add_argument("--n-pufs", type=int, default=4)
    p.add_argument("--n-stages", type=int, default=32)
    p.add_argument("--nominal-steps", type=int, default=80)
    p.add_argument("--ramp-steps", type=int, default=150)
    p.add_argument("--corner-steps", type=int, default=80)
    p.add_argument("--return-steps", type=int, default=80)
    p.add_argument("--fault-chip", type=int, default=0,
                   help="index of the chip with a flaky radio "
                        "(-1 disables fault injection)")
    p.add_argument("--fault-reads", type=int, default=12,
                   help="how many of that chip's first device reads fail")
    p.add_argument("--report", metavar="PATH", default=None,
                   help="write the reliability report JSON here")
    p.add_argument("--audit", metavar="PATH", default=None,
                   help="write the structured audit log (JSONL) here")
    p.add_argument("--max-nominal-frr", type=float, default=0.01,
                   help="fail (exit 1) if the nominal-phase FRR exceeds this")
    p.add_argument("--min-corner-availability", type=float, default=0.95,
                   help="fail (exit 1) if healthy-chip corner availability "
                        "falls below this")
    p.add_argument("--clients", type=int, default=0,
                   help="replay the trace through the micro-batching front "
                        "end with this many concurrent clients (0 = "
                        "sequential); gates are unchanged")

    p = sub.add_parser(
        "lifecycle-sim",
        help="replay a simulated fleet life (churn, aging storms, "
             "revocation waves, persistence chaos) and gate the report",
    )
    p.add_argument("--chips", type=int, default=6, help="initial fleet size")
    p.add_argument("--n-pufs", type=int, default=4)
    p.add_argument("--n-stages", type=int, default=32)
    p.add_argument("--ticks", type=int, default=12,
                   help="lifecycle ticks (a year of monthly ticks by default)")
    p.add_argument("--hours-per-tick", type=float, default=730.0)
    p.add_argument("--requests-per-chip", type=int, default=4)
    p.add_argument("--max-stale-rows", type=int, default=8,
                   help="deferred-codebook staleness bound (rows)")
    p.add_argument("--chaos", action="store_true",
                   help="inject the seeded fault plan: a killed maintenance "
                        "tick, a mid-flight codebook sync crash, and corrupt "
                        "+ failed codebook persists")
    p.add_argument("--workdir", metavar="DIR", default=None,
                   help="exercise persistence each tick (save + reload the "
                        "database here); required for persist-site chaos")
    p.add_argument("--report", metavar="PATH", default=None,
                   help="write the lifecycle report JSON here")
    p.add_argument("--max-nominal-frr", type=float, default=0.02,
                   help="fail (exit 1) if active-fleet FRR exceeds this")
    p.add_argument("--min-availability", type=float, default=0.95,
                   help="fail (exit 1) if active-fleet availability "
                        "falls below this")
    p.add_argument("--clients", type=int, default=0,
                   help="pump all traffic through the micro-batching front "
                        "end with this many concurrent clients (0 = "
                        "sequential); gates are unchanged")

    p = sub.add_parser(
        "revoke",
        help="revoke an enrolled identity in a persisted database",
    )
    p.add_argument("database", metavar="DIR",
                   help="database directory written by `identify --save-db` "
                        "or AuthenticationServer.save_database")
    p.add_argument("chip_id", help="identity to revoke")
    p.add_argument("--reason", default="",
                   help="free-text reason recorded in the revocation table")

    from repro.bench.cli import add_bench_subparser

    add_bench_subparser(sub)

    p = sub.add_parser("aging", help="selected-CRP flips over an aging life")
    p.add_argument("--n-pufs", type=int, default=4)
    p.add_argument("--n-stages", type=int, default=32)
    p.add_argument("--amplitude", type=float, default=0.3)
    p.add_argument("--selected", type=int, default=10_000)

    p = sub.add_parser(
        "figure",
        help="run a paper-figure experiment by name and print its JSON",
    )
    p.add_argument(
        "name",
        choices=sorted(_FIGURE_RUNNERS),
        help="experiment to run (see repro.experiments)",
    )
    p.add_argument(
        "--full", action="store_true",
        help="paper-scale sizes instead of quick defaults",
    )
    add_resume(p)
    return parser


def _cmd_stability(args: argparse.Namespace) -> int:
    from repro.experiments.stability import make_engine

    xor_puf = XorArbiterPuf.create(args.n_pufs, args.n_stages, seed=args.seed)
    challenges = random_challenges(args.challenges, args.n_stages, seed=args.seed + 1)
    engine = make_engine(args.jobs, args.chunk_size, args.resume)
    per_puf = engine.measure_xor_constituents(
        xor_puf, challenges, args.trials, seed=args.seed + 2
    )
    fractions = stable_fraction_by_n(per_puf)
    from repro.viz import ascii_decay_table

    print(ascii_decay_table(fractions, reference_base=0.8))
    return 0


def _cmd_enroll(args: argparse.Namespace) -> int:
    chip = PufChip.create(args.n_pufs, args.n_stages, seed=args.seed, chip_id="cli")
    conditions = paper_corner_grid() if args.corners else None
    record = enroll_chip(
        chip,
        n_enroll_challenges=args.train,
        n_validation_challenges=args.validation,
        validation_conditions=conditions,
        jobs=args.jobs,
        chunk_size=args.chunk_size,
        checkpoint_dir=args.resume,
        seed=args.seed + 1,
    )
    print(f"enrolled {chip.chip_id}: betas {record.betas}")
    for index, pair in enumerate(record.adjusted_pairs):
        print(f"  PUF #{index}: {pair}")
    test = random_challenges(20_000, args.n_stages, seed=args.seed + 2)
    print(f"predicted stable fraction: "
          f"{record.selector().predicted_stable_fraction(test):.1%}")
    if args.save:
        record.save(args.save)
        print(f"record written to {args.save}")
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    xor_puf = XorArbiterPuf.create(args.n_pufs, args.n_stages, seed=args.seed)
    train, test = collect_stable_xor_crps(
        xor_puf, args.pool, 100_000,
        jobs=args.jobs, chunk_size=args.chunk_size,
        checkpoint_dir=args.resume, seed=args.seed + 1,
    )
    size = min(args.train, len(train))
    train_x, train_y, test_x, test_y = attack_matrices(
        train.subset(np.arange(size)), test
    )
    attack = MlpClassifier(seed=args.seed + 2, max_iter=300).fit(train_x, train_y)
    accuracy = attack.score(test_x, test_y)
    print(f"stable CRPs: train {len(train)} (used {size}), test {len(test)}")
    print(f"MLP 35-25-25 accuracy: {accuracy:.2%} "
          f"({1000 * attack.fit_seconds_ / size:.3f} ms/CRP)")
    return 0


def _cmd_auth(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.service import PROTOCOL_STUDY_CONFIG, AuthenticationService

    chip = PufChip.create(args.n_pufs, args.n_stages, seed=args.seed, chip_id="cli")
    server = AuthenticationServer()
    server.enroll(
        chip,
        seed=args.seed + 1,
        n_enroll_challenges=5000,
        n_validation_challenges=20_000,
        validation_conditions=paper_corner_grid() if args.corners else None,
        jobs=args.jobs,
        chunk_size=args.chunk_size,
    )
    config = dataclasses.replace(
        PROTOCOL_STUDY_CONFIG,
        n_challenges=args.challenges,
        max_read_attempts=args.max_attempts,
    )
    service = AuthenticationService(server, config, seed=args.seed + 10)
    corners = paper_corner_grid()
    failures = 0
    for session in range(args.sessions):
        condition = corners[session % 9] if args.corners else corners[4]
        result = service.authenticate(chip, condition=condition)
        verdict = result.auth or f"{result.outcome.value}: {result.detail}"
        print(f"session {session}: {verdict} "
              f"[{result.attempts}/{args.max_attempts} attempts]")
        failures += not result.approved
    print(f"{args.sessions - failures}/{args.sessions} sessions approved")
    return 1 if failures else 0


def _cmd_identify(args: argparse.Namespace) -> int:
    import time

    from repro.silicon.chip import fabricate_lot

    lot = fabricate_lot(args.chips, args.n_pufs, args.n_stages, seed=args.seed)
    server = AuthenticationServer()
    for index, chip in enumerate(lot):
        server.enroll(
            chip,
            seed=args.seed + 1 + index,
            n_enroll_challenges=args.train,
            n_validation_challenges=args.validation,
            jobs=args.jobs,
            chunk_size=args.chunk_size,
        )
    built = time.perf_counter()
    server.codebook(args.challenges, seed=args.seed)
    print(f"codebook: {args.chips} identities x {args.challenges} challenges "
          f"materialized in {time.perf_counter() - built:.2f}s")

    probes = [lot[i % len(lot)] for i in range(args.probes)]
    probes.append(PufChip.create(
        args.n_pufs, args.n_stages, seed=args.seed + 4242, chip_id="stranger",
    ))
    start = time.perf_counter()
    results = server.identify_many(probes, n_challenges=args.challenges)
    elapsed = time.perf_counter() - start
    correct = sum(
        result.chip_id == probe.chip_id
        for probe, result in zip(probes[:-1], results[:-1])
    )
    print(f"{correct}/{len(probes) - 1} fleet devices identified "
          f"({len(probes) / elapsed:,.0f} identifications/sec)")
    stranger = results[-1]
    print(f"stranger: identified as {stranger.chip_id} "
          f"(best match {stranger.match_fraction:.1%})")
    if args.save_db:
        server.save_database(args.save_db)
        print(f"database + codebook written to {args.save_db}")
    failures = correct < len(probes) - 1 or stranger.chip_id is not None
    return 1 if failures else 0


def _cmd_serve_sim(args: argparse.Namespace) -> int:
    from repro.service import gate_exit, run_serve_sim

    report = run_serve_sim(
        n_chips=args.chips,
        n_xors=args.n_pufs,
        n_stages=args.n_stages,
        # Offset so the default CLI seed (0) lands on run_serve_sim's
        # validated default fleet (5).
        seed=args.seed + 5,
        nominal_steps=args.nominal_steps,
        ramp_steps=args.ramp_steps,
        corner_steps=args.corner_steps,
        return_steps=args.return_steps,
        fault_chip=None if args.fault_chip < 0 else args.fault_chip,
        fault_failed_reads=args.fault_reads,
        clients=args.clients,
        max_nominal_frr=args.max_nominal_frr,
        min_corner_availability=args.min_corner_availability,
        report_path=args.report,
        audit_path=args.audit,
        progress=print,
    )
    print()
    print(f"{'phase':>8} {'requests':>9} {'availability':>13} {'FRR':>8}")
    for phase in ("nominal", "ramp", "corner", "return"):
        if phase not in report.phases:
            continue
        m = report.phases[phase]
        print(f"{phase:>8} {m['requests']:>9.0f} {m['availability']:>12.1%} "
              f"{m['frr']:>8.1%}")
    print(f"ladder: {sum(len(m) for m in report.rung_moves.values())} moves, "
          f"flagged for re-tightening: {', '.join(report.flagged_chips) or 'none'}")
    print(f"breaker: opened={report.breaker_opened} "
          f"recovered={report.breaker_recovered}")
    print(f"no challenge replayed: {report.no_replay}")
    return gate_exit(report)


def _cmd_lifecycle_sim(args: argparse.Namespace) -> int:
    from repro.faults import FaultPlan, FaultSpec, Site
    from repro.service import LifecycleConfig, gate_exit, run_lifecycle_sim

    config = LifecycleConfig(
        n_chips=args.chips,
        n_xors=args.n_pufs,
        n_stages=args.n_stages,
        ticks=args.ticks,
        hours_per_tick=args.hours_per_tick,
        requests_per_chip=args.requests_per_chip,
        max_stale_rows=args.max_stale_rows,
        max_nominal_frr=args.max_nominal_frr,
        min_availability=args.min_availability,
        clients=args.clients,
    )
    faults = None
    if args.chaos:
        faults = FaultPlan([
            FaultSpec(Site.SERVICE_LIFECYCLE, kind="crash", at=2),
            FaultSpec(Site.CODEBOOK_SYNC, kind="crash", at=1),
            FaultSpec(Site.CODEBOOK_PERSIST, kind="corrupt", at=2),
            FaultSpec(Site.CODEBOOK_PERSIST, kind="io", at=4),
        ])
    report = run_lifecycle_sim(
        config,
        # Offset so the default CLI seed (0) lands on the sim's
        # validated default fleet (7).
        seed=args.seed + 7,
        faults=faults,
        workdir=args.workdir,
        report_path=args.report,
        progress=print,
    )
    print()
    print(f"fleet: {report.enrolled_total} enrolled, "
          f"{report.revoked_total} revoked, {report.retightens} re-tightens "
          f"over {report.simulated_hours:,.0f} simulated hours")
    print(f"traffic: {report.n_requests} requests, "
          f"active-fleet FRR {report.frr:.1%}, "
          f"availability {report.availability:.1%}")
    print(f"revoked probes: {report.revoked_probes} presented, "
          f"{report.revoked_denials} denied, "
          f"{report.revoked_approvals} approved")
    print(f"codebook: {report.codebook.get('rebuilds', 0)} row rebuilds, "
          f"{report.codebook.get('restacks', 0)} restacks, "
          f"{report.codebook.get('row_writes', 0)} in-place writes; "
          f"worst served staleness {report.max_served_stale_rows} rows")
    print(f"chaos: {report.maintenance_crashes} maintenance kills, "
          f"{report.sync_crashes} sync crashes, "
          f"{report.persist_failures}/{report.persist_saves} persists "
          f"failed, {report.corrupt_recoveries} corrupt codebooks rebuilt")
    print(f"no challenge replayed: {report.no_replay}")
    return gate_exit(report)


def _cmd_revoke(args: argparse.Namespace) -> int:
    from repro.core.lifecycle import LifecycleError, RevokedChipError
    from repro.core.server import UnknownChipError

    try:
        server = AuthenticationServer.load_database(args.database)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        record = server.revoke(args.chip_id, reason=args.reason)
    except (UnknownChipError, LifecycleError, RevokedChipError) as exc:
        # KeyError.__str__ repr-quotes its message; unwrap it.
        detail = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {detail}", file=sys.stderr)
        return 1
    server.save_database(args.database)
    print(f"revoked {record.chip_id} at epoch {record.epoch}"
          f" ({record.reason or 'no reason recorded'})")
    print(f"active identities remaining: "
          f"{', '.join(server.active_ids) or 'none'}")
    return 0


def _cmd_aging(args: argparse.Namespace) -> int:
    chip = PufChip.create(args.n_pufs, args.n_stages, seed=args.seed, chip_id="cli")
    record = enroll_chip(
        chip, n_enroll_challenges=5000, n_validation_challenges=20_000,
        seed=args.seed + 1,
    )
    challenges, predicted = record.selector().select(args.selected, seed=args.seed + 2)
    model = AgingModel(amplitude=args.amplitude)
    print(f"{'hours':>9} {'flip rate':>10}")
    for hours in (0.0, 8760.0, 43_800.0, 87_600.0):
        aged = age_chip(chip, hours, model, seed=args.seed + 3)
        flips = (aged.xor_response(challenges) != predicted).mean()
        print(f"{hours:>9.0f} {flips:>10.4%}")
    return 0


#: Figure experiments runnable via ``repro-puf figure <name>``:
#: name -> (runner import path, quick kwargs, paper-scale kwargs).
_FIGURE_RUNNERS = {
    "fig02": ("run_fig02", {"n_challenges": 50_000}, {"n_challenges": 1_000_000}),
    "fig03": ("run_fig03", {"n_challenges": 20_000}, {"n_challenges": 1_000_000}),
    "fig08": ("run_fig08", {}, {}),
    "fig09": ("run_fig09", {"n_test": 30_000}, {"n_test": 1_000_000}),
    "fig10": ("run_fig10", {"n_test": 30_000}, {"n_test": 1_000_000}),
    "fig11": ("run_fig11", {"n_test": 15_000}, {"n_test": 1_000_000}),
    "fig12": ("run_fig12", {"n_eval": 20_000, "n_validation": 10_000},
              {"n_eval": 1_000_000}),
}

#: Figure runners that accept the engine's ``jobs``/``chunk_size`` knobs.
_ENGINE_FIGURES = frozenset({"fig02", "fig03", "fig12"})


def _cmd_figure(args: argparse.Namespace) -> int:
    import json

    import repro.experiments as experiments

    runner_name, quick, full = _FIGURE_RUNNERS[args.name]
    runner = getattr(experiments, runner_name)
    kwargs = dict(full if args.full else quick)
    kwargs["seed"] = args.seed
    if args.name in _ENGINE_FIGURES:
        kwargs["jobs"] = args.jobs
        kwargs["chunk_size"] = args.chunk_size
        kwargs["checkpoint_dir"] = args.resume
    elif args.resume is not None:
        print(
            f"error: figure {args.name!r} does not run through the "
            f"evaluation engine; --resume is only supported for "
            f"{', '.join(sorted(_ENGINE_FIGURES))}",
            file=sys.stderr,
        )
        return 2
    result = runner(**kwargs)
    print(json.dumps(result, indent=2, default=float))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.cli import cmd_bench

    return cmd_bench(args)


_COMMANDS = {
    "bench": _cmd_bench,
    "stability": _cmd_stability,
    "enroll": _cmd_enroll,
    "attack": _cmd_attack,
    "auth": _cmd_auth,
    "identify": _cmd_identify,
    "serve-sim": _cmd_serve_sim,
    "lifecycle-sim": _cmd_lifecycle_sim,
    "revoke": _cmd_revoke,
    "aging": _cmd_aging,
    "figure": _cmd_figure,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
