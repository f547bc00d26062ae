"""The fleet-lifecycle driver: a year of a living fleet, replayed in seconds.

``serve-sim`` (:mod:`repro.service.simulation`) answers "does the
serving path survive environmental drift?".  This module answers the
other deployment question: does it survive the *fleet itself* changing
under load?  A real deployment never stops mutating -- devices are
enrolled (churn), age until their thresholds need re-tightening
(aging-driven retighten storms, the paper's beta margins meeting BTI
drift), and leave the fleet terminally (revocation waves).  Every one
of those mutations used to be a codebook rebuild stall; the lifecycle
driver exists to prove the incremental-invalidation serving plane
absorbs them, under injected faults, without ever violating a protocol
invariant.

One seeded run drives, on the :class:`VirtualClock`:

* **enrollment churn** -- new chips join the fleet on a fixed cadence;
* **aging** -- every device's delays walk the BTI power law
  (:mod:`repro.silicon.aging`), keyed by chip id so each part stays on
  one consistent trajectory across the whole simulated life;
* **retighten storms** -- operator re-tightening campaigns over the
  whole active fleet (plus any drift-ladder-flagged chips), i.e. a
  fingerprint-invalidation wave across every codebook row at once;
* **revocation waves** -- identities leave terminally through
  :meth:`AuthenticationService.revoke` (tombstone + budget reclaim +
  audit);
* **traffic** -- per-tick authentication and identification probes
  against the aged responders, including probes *by revoked devices*
  that must be refused;
* **chaos** -- an optional :class:`repro.faults.FaultPlan` kills
  maintenance ticks (:attr:`Site.SERVICE_LIFECYCLE`), crashes codebook
  syncs (:attr:`Site.CODEBOOK_SYNC`) and corrupts persisted codebooks
  (:attr:`Site.CODEBOOK_PERSIST`); the driver keeps serving and the
  report proves what degraded.

The report's acceptance gates are the PR's contract: bounded nominal
FRR, bounded availability, **zero** challenge replays, **zero**
successful authentications or identifications by revoked chips, and
codebook staleness never served beyond the configured bound.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set

from repro.core.codebook import CodebookPolicy
from repro.core.server import AuthenticationServer
from repro.crp.dataset import CorruptDatasetError
from repro.faults import FaultPlan, InjectedFault, Site
from repro.service.drift import DriftPolicy
from repro.service.events import AuthOutcome
from repro.service.service import AuthenticationService, ServiceConfig
from repro.service.simulation import VirtualClock
from repro.silicon.aging import AgingModel, age_chip
from repro.silicon.chip import PufChip, fabricate_lot
from repro.utils.rng import SeedLike, derive_generator
from repro.utils.validation import check_positive_int

__all__ = ["LifecycleConfig", "LifecycleReport", "run_lifecycle_sim"]


@dataclasses.dataclass(frozen=True)
class LifecycleConfig:
    """Shape of one simulated fleet life.

    Attributes
    ----------
    n_chips / n_xors / n_stages:
        Initial fleet geometry.
    ticks:
        Lifecycle steps; with the default ``hours_per_tick`` (one
        month) the default 12 ticks replay a simulated year.
    hours_per_tick:
        Operational hours each tick advances the fleet's age (and the
        virtual clock).
    requests_per_chip:
        Authentication probes per active chip per tick.
    enroll_interval:
        A new chip joins every this-many ticks (0 disables churn).
    revoke_interval:
        The oldest active chip is revoked every this-many ticks
        (0 disables revocation waves; at least two chips always stay
        active).
    storm_interval:
        Every this-many ticks the *whole* active fleet is re-tightened
        in one operator campaign (0 disables storms) -- the worst-case
        codebook invalidation wave.
    storm_beta0 / storm_beta1:
        Beta scaling of a storm step.  Deliberately mild: storms model
        periodic margin maintenance, and they compose multiplicatively
        across the life.
    max_stale_rows / rebuild_batch:
        The server's deferred :class:`CodebookPolicy`: serve with at
        most this many pending rows, drain at most this many row
        builds per maintenance call.
    n_enroll_challenges / n_validation_challenges:
        Enrollment campaign sizes (smaller than production: churn means
        many enrollments per run).
    aging:
        The BTI drift law applied per tick.
    identify_probes:
        Active chips identified through the codebook plane per tick
        (also how staleness-at-serve-time is sampled).
    clients:
        0 (default) serves every probe sequentially.  Positive values
        pump all authentication and identification traffic through a
        :class:`~repro.service.frontend.BatchingFrontend` with up to
        this many requests in flight at once -- the coalescing loop
        packs identifications into shared scoring passes (and, combined
        with *sharded*, into shared shard round-trips) while the
        acceptance gates hold unchanged.
    sharded / n_shards:
        With *sharded* on, identification traffic is served by an
        inline-mode :class:`~repro.service.fleet.ShardDispatcher` over
        *n_shards* shared-memory shards instead of the in-process
        codebook -- same results (the fleet plane is bit-identical at
        full coverage), but the run additionally exercises shard
        refresh and re-layout under enrollment churn, revocation waves
        and retighten storms.  Note the fleet serves from fully
        materialized bytes, so deferred-codebook staleness reads as
        zero in this mode.
    max_nominal_frr / min_availability:
        Acceptance gates over the active-fleet authentication probes.
    """

    n_chips: int = 6
    n_xors: int = 4
    n_stages: int = 32
    ticks: int = 12
    hours_per_tick: float = 730.0
    requests_per_chip: int = 4
    enroll_interval: int = 3
    revoke_interval: int = 4
    storm_interval: int = 5
    storm_beta0: float = 0.92
    storm_beta1: float = 1.04
    max_stale_rows: int = 8
    rebuild_batch: Optional[int] = None
    n_enroll_challenges: int = 1200
    n_validation_challenges: int = 5000
    aging: AgingModel = AgingModel()
    identify_probes: int = 3
    clients: int = 0
    sharded: bool = False
    n_shards: int = 2
    max_nominal_frr: float = 0.02
    min_availability: float = 0.95

    def __post_init__(self) -> None:
        check_positive_int(self.n_chips, "n_chips")
        check_positive_int(self.ticks, "ticks")
        check_positive_int(self.requests_per_chip, "requests_per_chip")
        for name in ("enroll_interval", "revoke_interval", "storm_interval"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.hours_per_tick <= 0:
            raise ValueError(
                f"hours_per_tick must be positive, got {self.hours_per_tick}"
            )
        if not 0 < self.storm_beta0 <= 1 or self.storm_beta1 < 1:
            raise ValueError(
                "storm betas must satisfy 0 < beta0 <= 1 <= beta1, got "
                f"{self.storm_beta0}, {self.storm_beta1}"
            )
        check_positive_int(self.n_shards, "n_shards")
        if self.clients < 0:
            raise ValueError(f"clients must be >= 0, got {self.clients}")


@dataclasses.dataclass(frozen=True)
class LifecycleReport:
    """What one simulated fleet life did, and whether it passed.

    Attributes
    ----------
    ticks / simulated_hours:
        Length of the replayed life.
    enrolled_total / revoked_total / retightens:
        Fleet mutation counts (initial fleet + churn; revocation waves;
        storm + drift-flagged re-tightening steps).
    n_requests / outcome_counts:
        All service decisions over the run.
    frr / availability:
        Over the *active-fleet* authentication probes only: rejected /
        scored, and approved / all.
    revoked_probes / revoked_denials / revoked_approvals:
        Probes presented by revoked devices; approvals must be zero.
    revoked_identify_hits:
        Identification sweeps that resolved a revoked device to its
        revoked identity; must be zero (tombstoned rows cannot win).
    no_replay:
        Audit-log-verified: no challenge digest was ever issued twice.
    max_served_stale_rows / stale_served_ticks:
        Worst codebook staleness observed *at serve time* and how many
        ticks served stale at all -- the deferred policy's bound in
        action.
    codebook:
        Final codebook counters (rebuilds / restacks / in-place row
        writes / syncs) -- the incremental-invalidation audit trail.
    budget:
        Fleet-wide challenge-pool stats, including capacity reclaimed
        from revoked chips.
    maintenance_crashes / sync_crashes:
        Ticks whose maintenance was killed by the fault plan, and
        codebook syncs that died mid-flight (both recovered by retry).
    persist_saves / persist_failures / reloads / corrupt_recoveries:
        Persistence-chaos accounting: database saves attempted, saves
        killed by injected I/O faults, successful reloads, and corrupt
        codebook files that were detected and discarded for rebuild.
    gates:
        ``name -> {value, bound, ok}`` for every acceptance gate.
    passed:
        All gates ok.
    """

    ticks: int
    simulated_hours: float
    enrolled_total: int
    revoked_total: int
    retightens: int
    n_requests: int
    outcome_counts: Dict[str, int]
    frr: float
    availability: float
    revoked_probes: int
    revoked_denials: int
    revoked_approvals: int
    revoked_identify_hits: int
    no_replay: bool
    max_served_stale_rows: int
    stale_served_ticks: int
    codebook: Dict[str, int]
    budget: Dict[str, object]
    maintenance_crashes: int
    sync_crashes: int
    persist_saves: int
    persist_failures: int
    reloads: int
    corrupt_recoveries: int
    gates: Dict[str, Dict[str, object]]
    passed: bool
    wall_seconds: float
    params: Dict[str, object]

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dictionary form."""
        return dataclasses.asdict(self)

    def save(self, path) -> Path:
        """Write the report as indented JSON; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path


def run_lifecycle_sim(
    config: Optional[LifecycleConfig] = None,
    *,
    seed: SeedLike = 7,
    faults: Optional[FaultPlan] = None,
    workdir=None,
    report_path=None,
    progress: Optional[Callable[[str], None]] = None,
) -> LifecycleReport:
    """Replay one simulated fleet life; return the gated report.

    Parameters
    ----------
    config:
        The life's shape (:class:`LifecycleConfig`; defaults replay a
        year in monthly ticks).
    seed:
        Root seed -- fabrication, enrollment, aging directions, and
        every selection stream derive from it, so a report is exactly
        reproducible.
    faults:
        Optional chaos plan.  :attr:`Site.SERVICE_LIFECYCLE` faults
        (index = tick) kill that tick's maintenance work;
        :attr:`Site.CODEBOOK_SYNC` / :attr:`Site.CODEBOOK_PERSIST`
        faults hit the codebook plane; device/service-site faults pass
        through to the service as usual.
    workdir:
        Optional directory for persistence chaos: every maintenance
        tick saves the database there (through the fault plan) and
        reloads it, proving crash-mid-save and corrupt-on-disk recovery
        against the *live* fleet.
    report_path:
        Optional JSON output file.
    progress:
        Optional callback for human-readable progress lines.
    """
    cfg = config or LifecycleConfig()

    def say(message: str) -> None:
        if progress is not None:
            progress(message)

    t0 = time.perf_counter()
    clock = VirtualClock()

    # ------------------------------------------------------------------
    # Initial fleet.
    # ------------------------------------------------------------------
    lot_seed = int(derive_generator(seed, "lifecycle", "lot").integers(2**31))
    lot = fabricate_lot(cfg.n_chips, cfg.n_xors, cfg.n_stages, seed=lot_seed)
    chips: Dict[str, PufChip] = {chip.chip_id: chip for chip in lot}
    next_chip_index = cfg.n_chips

    server = AuthenticationServer(
        codebook_policy=CodebookPolicy(
            deferred=True,
            max_stale_rows=cfg.max_stale_rows,
            rebuild_batch=cfg.rebuild_batch,
        )
    )

    def enroll(chip: PufChip) -> None:
        server.enroll(
            chip,
            seed=int(
                derive_generator(seed, "lifecycle", "enroll", chip.chip_id)
                .integers(2**31)
            ),
            n_enroll_challenges=cfg.n_enroll_challenges,
            n_validation_challenges=cfg.n_validation_challenges,
        )

    for chip in lot:
        enroll(chip)
    enrolled_total = cfg.n_chips
    say(f"enrolled initial fleet of {cfg.n_chips} XOR-{cfg.n_xors} chips")

    service_config = ServiceConfig(
        max_requests_per_window=0,  # genuine maintenance traffic
        lockout_threshold=10,
        lockout_seconds=3600.0,
        drift=DriftPolicy(
            window=12, min_samples=4, escalate_frr=0.25, recover_clean=24
        ),
        retighten_beta0=0.5,
        retighten_beta1=1.5,
        pool_capacity=max(
            20_000, cfg.ticks * cfg.requests_per_chip * 64 * 4
        ),
    )
    service = AuthenticationService(
        server, service_config, seed=seed, clock=clock, faults=faults
    )
    book_seed = seed if isinstance(seed, int) else None
    server.codebook(service_config.n_challenges, seed=book_seed)

    dispatcher = None
    if cfg.sharded:
        from repro.service.fleet import FleetConfig, ShardDispatcher

        # Inline mode: same shard partition, scoring and merge code as
        # the worker fleet, without process churn inside the sim --
        # what this run exercises is refresh + re-layout under the
        # lifecycle's register/retighten/revoke interleavings.
        dispatcher = ShardDispatcher(
            server,
            FleetConfig(
                n_shards=cfg.n_shards,
                n_challenges=service_config.n_challenges,
                inline=True,
            ),
            seed=book_seed,
        )
        service.attach_fleet(dispatcher)
        say(
            f"sharded identification plane: {cfg.n_shards} inline "
            f"shards over {len(server.active_ids)} identities"
        )

    frontend = None
    if cfg.clients:
        from repro.service.frontend import BatchingFrontend, FrontendConfig

        frontend = BatchingFrontend(
            service,
            FrontendConfig(
                max_batch=cfg.clients,
                max_pending=max(4 * cfg.clients, 64),
            ),
        )
        say(
            f"traffic through the batching front end: {cfg.clients} "
            f"concurrent clients"
        )

    def serve_auth(traffic: List[PufChip]) -> List:
        """Authenticate *traffic*, sequentially or in concurrent waves.

        Wave mode advances the clock one tick per request up front, so
        the batch's decisions never race the virtual time; every wave
        is joined before the next (or any fleet mutation) starts.
        """
        results = []
        if frontend is None:
            for responder in traffic:
                clock.advance(1.0)
                results.append(service.authenticate(responder))
        else:
            for start in range(0, len(traffic), cfg.clients):
                wave = traffic[start:start + cfg.clients]
                clock.advance(float(len(wave)))
                futures = [
                    frontend.submit_authenticate(responder)
                    for responder in wave
                ]
                results.extend(future.result() for future in futures)
        return results

    # ------------------------------------------------------------------
    # The life.
    # ------------------------------------------------------------------
    outcome_counts: Dict[str, int] = {}
    active_approved = active_rejected = active_denied = 0
    revoked_probes = revoked_denials = revoked_approvals = 0
    revoked_identify_hits = 0
    identified_hits = identified_misses = 0
    max_served_stale = 0
    stale_served_ticks = 0
    maintenance_crashes = sync_crashes = 0
    persist_saves = persist_failures = reloads = corrupt_recoveries = 0
    retightens = 0
    committed_retightens: Set[str] = set()

    def count(outcome: AuthOutcome) -> None:
        outcome_counts[outcome.value] = outcome_counts.get(outcome.value, 0) + 1

    for tick in range(cfg.ticks):
        hours = (tick + 1) * cfg.hours_per_tick
        maintenance_ok = True
        if faults is not None:
            try:
                faults.check(Site.SERVICE_LIFECYCLE, tick)
            except InjectedFault:
                maintenance_ok = False
                maintenance_crashes += 1

        # -- churn: a new chip joins ----------------------------------
        if cfg.enroll_interval and (tick + 1) % cfg.enroll_interval == 0:
            chip = PufChip.create(
                cfg.n_xors,
                cfg.n_stages,
                derive_generator(seed, "lifecycle", "chip", next_chip_index),
                chip_id=f"chip-{next_chip_index}",
            )
            next_chip_index += 1
            chips[chip.chip_id] = chip
            enroll(chip)
            enrolled_total += 1

        # -- revocation wave ------------------------------------------
        if (
            cfg.revoke_interval
            and (tick + 1) % cfg.revoke_interval == 0
            and len(server.active_ids) > 2
        ):
            victim = server.active_ids[0]  # the oldest active identity
            service.revoke(victim, reason=f"lifecycle wave, tick {tick}")

        # -- aging: every surviving device is now `hours` old ---------
        aged: Dict[str, PufChip] = {
            chip_id: age_chip(
                chips[chip_id],
                hours,
                cfg.aging,
                derive_generator(seed, "lifecycle", "aging", chip_id),
            )
            for chip_id in chips
        }

        # -- retighten storm + drift-flagged commits ------------------
        if cfg.storm_interval and (tick + 1) % cfg.storm_interval == 0:
            storm_targets = server.active_ids
            for chip_id in storm_targets:
                server.retighten(chip_id, cfg.storm_beta0, cfg.storm_beta1)
                retightens += 1
            say(
                f"tick {tick}: retighten storm over {len(storm_targets)} "
                f"chips (codebook pending: "
                f"{server.codebook_status(service_config.n_challenges).get('pending_rows', 0)})"
            )
        for chip_id in service.flagged_chips:
            if chip_id in committed_retightens or server.is_revoked(chip_id):
                continue
            service.apply_retightening(chip_id)
            committed_retightens.add(chip_id)
            retightens += 1

        # -- traffic: the active fleet authenticates ------------------
        fleet_traffic = [
            aged[chip_id]
            for chip_id in server.active_ids
            for _ in range(cfg.requests_per_chip)
        ]
        for result in serve_auth(fleet_traffic):
            count(result.outcome)
            if result.outcome is AuthOutcome.APPROVED:
                active_approved += 1
            elif result.outcome is AuthOutcome.REJECTED:
                active_rejected += 1
            else:
                active_denied += 1

        # -- traffic: identification through the (possibly stale) book
        probe_ids = server.active_ids[: cfg.identify_probes]
        if probe_ids:
            if frontend is None:
                results = service.identify_many(
                    [aged[c] for c in probe_ids]
                )
            else:
                futures = [
                    frontend.submit_identify(aged[c]) for c in probe_ids
                ]
                results = [future.result() for future in futures]
            for chip_id, result in zip(probe_ids, results):
                if result.chip_id == chip_id:
                    identified_hits += 1
                else:
                    identified_misses += 1
            served_stale = server.codebook_status(
                service_config.n_challenges
            ).get("pending_rows", 0)
            max_served_stale = max(max_served_stale, int(served_stale))
            if served_stale:
                stale_served_ticks += 1

        # -- traffic: revoked devices keep knocking -------------------
        for chip_id in sorted(server.revocations)[:3]:
            responder = aged[chip_id]
            result = serve_auth([responder])[0]
            count(result.outcome)
            revoked_probes += 1
            if result.outcome is AuthOutcome.APPROVED:
                revoked_approvals += 1
            else:
                revoked_denials += 1
            sweep = server.identify(responder)
            if sweep.chip_id == chip_id:
                revoked_identify_hits += 1

        # -- maintenance: drain rebuilds, persistence chaos -----------
        if maintenance_ok:
            try:
                server.sync_codebooks(faults=faults)
            except InjectedFault:
                sync_crashes += 1
            if workdir is not None:
                try:
                    server.save_database(workdir, faults=faults)
                    persist_saves += 1
                except (InjectedFault, OSError):
                    persist_failures += 1
                try:
                    reloaded = AuthenticationServer.load_database(workdir)
                except (FileNotFoundError, CorruptDatasetError):
                    pass
                else:
                    reloads += 1
                    corrupt_recoveries += reloaded.codebook_recoveries

        clock.advance(cfg.hours_per_tick * 3600.0)
        say(
            f"tick {tick + 1}/{cfg.ticks}: "
            f"{len(server.active_ids)} active / "
            f"{len(server.revocations)} revoked, age {hours:.0f} h"
        )

    # Converge: the life ends with a fully drained codebook.
    server.sync_codebooks(limit=None)

    # ------------------------------------------------------------------
    # Gates and report.
    # ------------------------------------------------------------------
    frontend_stats: Optional[Dict[str, object]] = None
    if frontend is not None:
        frontend_stats = frontend.stats
        frontend.close()

    fleet_stats: Optional[Dict[str, object]] = None
    if dispatcher is not None:
        fleet_stats = {
            "n_shards": cfg.n_shards,
            "min_coverage": dispatcher.log.min_coverage(),
            "events": dispatcher.log.outcome_counts(),
            "epoch": dispatcher.epoch,
        }
        service.detach_fleet()
        dispatcher.close()

    scored = active_approved + active_rejected
    probes = scored + active_denied
    frr = active_rejected / scored if scored else 0.0
    availability = active_approved / probes if probes else 0.0
    no_replay = not service.audit.replayed_digests()
    book = server.codebook(service_config.n_challenges)

    gates = {
        "nominal_frr": {
            "value": frr, "bound": cfg.max_nominal_frr,
            "ok": frr <= cfg.max_nominal_frr,
        },
        "availability": {
            "value": availability, "bound": cfg.min_availability,
            "ok": availability >= cfg.min_availability,
        },
        "no_replay": {"value": no_replay, "bound": True, "ok": no_replay},
        "revoked_approvals": {
            "value": revoked_approvals, "bound": 0,
            "ok": revoked_approvals == 0,
        },
        "revoked_identify_hits": {
            "value": revoked_identify_hits, "bound": 0,
            "ok": revoked_identify_hits == 0,
        },
        "staleness": {
            "value": max_served_stale, "bound": cfg.max_stale_rows,
            "ok": max_served_stale <= cfg.max_stale_rows,
        },
    }

    report = LifecycleReport(
        ticks=cfg.ticks,
        simulated_hours=cfg.ticks * cfg.hours_per_tick,
        enrolled_total=enrolled_total,
        revoked_total=len(server.revocations),
        retightens=retightens,
        n_requests=probes + revoked_probes,
        outcome_counts=dict(sorted(outcome_counts.items())),
        frr=frr,
        availability=availability,
        revoked_probes=revoked_probes,
        revoked_denials=revoked_denials,
        revoked_approvals=revoked_approvals,
        revoked_identify_hits=revoked_identify_hits,
        no_replay=no_replay,
        max_served_stale_rows=max_served_stale,
        stale_served_ticks=stale_served_ticks,
        codebook={
            "rows": len(book),
            "rebuilds": book.rebuilds,
            "restacks": book.restacks,
            "row_writes": book.row_writes,
            "syncs": book.syncs,
        },
        budget=service.budget_stats,
        maintenance_crashes=maintenance_crashes,
        sync_crashes=sync_crashes,
        persist_saves=persist_saves,
        persist_failures=persist_failures,
        reloads=reloads,
        corrupt_recoveries=corrupt_recoveries,
        gates=gates,
        passed=all(gate["ok"] for gate in gates.values()),
        wall_seconds=time.perf_counter() - t0,
        params={
            "seed": seed,
            "config": dataclasses.asdict(cfg),
            "identified_hits": identified_hits,
            "identified_misses": identified_misses,
            "chaos": faults is not None,
            "persistence_chaos": workdir is not None,
            "sharded": cfg.sharded,
            "fleet": fleet_stats,
            "frontend": frontend_stats,
        },
    )
    if report_path is not None:
        report.save(report_path)
        say(f"lifecycle report -> {report_path}")
    say(
        f"done: FRR {report.frr:.1%}, availability {report.availability:.1%}, "
        f"{report.revoked_total} revoked ({report.revoked_denials} denials, "
        f"{report.revoked_approvals} approvals), "
        f"max served staleness {report.max_served_stale_rows} rows, "
        f"no_replay={report.no_replay}, passed={report.passed} "
        f"({report.wall_seconds:.1f}s)"
    )
    return report
