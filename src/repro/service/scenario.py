"""One scenario runner: population, traffic, faults and gates.

``repro-puf serve-sim``, ``lifecycle-sim`` and ``serve-shards`` are
presets of this module.  Each one builds a seeded, enrolled population
(:class:`Scenario`) and stands up the serving stack on a
:class:`VirtualClock`: :class:`AuthenticationService`, optionally with
a :class:`~repro.service.fleet.ShardDispatcher` behind it and a
:class:`~repro.service.frontend.BatchingFrontend` before it.  It drives
authentication and identification traffic through the one
:meth:`Scenario.serve` step, injects its faults, and returns a
:class:`ScenarioReport` whose ``gates`` decide ``passed``.  The CLI
ends every preset with :func:`gate_exit`.

* :func:`run_serve_sim` -- does the serving path survive environmental
  drift?  A drift-sensitive lot, enrolled at nominal, replays a
  round-robin authentication trace while the operating condition walks
  nominal -> ramp -> V/T corner -> return and one chip's device reads
  fail.  Gates: nominal FRR, corner availability, no replay.
* :func:`run_lifecycle_sim` -- does it survive the fleet itself
  changing under load?  Ticks of enrollment churn, BTI aging, retighten
  storms and revocation waves, with traffic from active and revoked
  devices and optional chaos at the maintenance, codebook-sync and
  persist sites.  Gates: FRR, availability, no replay, zero revoked
  approvals or identifications, bounded served staleness.
* :func:`run_serve_shards` -- does the shard fleet degrade without ever
  being wrong?  Identification batches against real worker processes,
  optionally with one worker killed mid-query and another hung.  Gates:
  zero wrong identifications, full final coverage.

Every seed derives from the preset's root seed, so a report is exactly
reproducible.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.codebook import CodebookPolicy
from repro.core.server import AuthenticationServer
from repro.crp.dataset import CorruptDatasetError
from repro.faults import FaultPlan, FaultSpec, FlakyResponder, InjectedFault, Site
from repro.service.drift import DriftPolicy
from repro.service.events import AuthOutcome
from repro.service.fleet import FleetConfig, ShardDispatcher
from repro.service.frontend import BatchingFrontend, FrontendConfig
from repro.service.service import AuthenticationService, ServiceConfig
from repro.silicon.aging import AgingModel, age_chip
from repro.silicon.chip import PufChip, fabricate_lot
from repro.silicon.environment import (
    NOMINAL_CONDITION,
    EnvironmentModel,
    OperatingCondition,
)
from repro.utils.rng import SeedLike, derive_generator
from repro.utils.validation import check_positive_int

__all__ = [
    "LifecycleConfig",
    "Scenario",
    "ScenarioReport",
    "VirtualClock",
    "gate_exit",
    "run_lifecycle_sim",
    "run_serve_shards",
    "run_serve_sim",
]

#: The harsh V/T corner of the paper's sweep (0.8 V, 60 degC).
CORNER_CONDITION = OperatingCondition(voltage=0.8, temperature=60.0)


class VirtualClock:
    """A monotonic clock the simulation advances by hand.

    Injected into :class:`AuthenticationService` so breaker cooldowns,
    rate-limiter windows and deadlines play out deterministically: one
    simulated request = one tick, independent of host speed.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def __call__(self) -> float:
        return self._now

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward; returns the new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance by negative time ({seconds})")
        self._now += float(seconds)
        return self._now


def _derived_seed(seed: SeedLike, *keys) -> int:
    return int(derive_generator(seed, *keys).integers(2**31))


def _gate(value, bound, ok) -> Dict[str, object]:
    return {"value": value, "bound": bound, "ok": ok}


@dataclasses.dataclass(frozen=True)
class ScenarioReport:
    """What one scenario run measured, and whether it passed its gates.

    Attributes
    ----------
    numbers:
        The preset's measurements (documented on each ``run_*``
        preset).  Each one also reads as an attribute:
        ``report.no_replay`` is ``report.numbers["no_replay"]``.
    gates:
        ``name -> {value, bound, ok}`` for every acceptance gate.
    wall_seconds:
        Host wall time of the run.
    params:
        The knobs and constants the run used (for reproduction), plus
        the front end's coalescing stats under ``"frontend"`` (``None``
        when the run served sequentially).
    """

    numbers: Dict[str, object]
    gates: Dict[str, Dict[str, object]]
    wall_seconds: float
    params: Dict[str, object]

    @property
    def passed(self) -> bool:
        """All gates ok."""
        return all(gate["ok"] for gate in self.gates.values())

    def __getattr__(self, name: str):
        numbers = self.__dict__.get("numbers", {})
        if name in numbers:
            return numbers[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dictionary form: the numbers, then gates and params."""
        return {
            **self.numbers,
            "gates": self.gates,
            "passed": self.passed,
            "wall_seconds": self.wall_seconds,
            "params": self.params,
        }

    def save(self, path) -> Path:
        """Write the report as indented JSON; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, default=float) + "\n")
        return path


def gate_exit(report: ScenarioReport) -> int:
    """The CLI tail: print every failing gate to stderr; 1 if any failed."""
    failures = [
        f"{name}: {gate['value']} vs bound {gate['bound']}"
        for name, gate in report.gates.items()
        if not gate["ok"]
    ]
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


class Scenario:
    """One run's enrolled population and serving stack on a virtual clock.

    Construction fabricates and enrolls the lot.  With a *label*, the
    lot seed derives from ``(seed, label, "lot")`` and each enrollment
    seed from ``(seed, label, "enroll", key)``, where *key* is the
    chip's index, or its id when *by_id*.  Without one, they are plain
    offsets: *seed* for the lot and ``seed + 1 + index`` per chip.

    :meth:`start` stands up the service, :meth:`serve` drives traffic
    and :meth:`report` gates and writes the outcome.  Use the scenario
    as a context manager, so its front end and fleet are closed however
    the run ends.
    """

    def __init__(
        self,
        seed: SeedLike,
        label: Optional[str],
        n_chips: int,
        n_xors: int,
        n_stages: int,
        *,
        by_id: bool = False,
        environment: Optional[EnvironmentModel] = None,
        codebook_policy: Optional[CodebookPolicy] = None,
        n_enroll_challenges: int = 1200,
        n_validation_challenges: int = 5000,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        self._t0 = time.perf_counter()
        self._seed = seed
        self._label = label
        self._by_id = by_id
        self._enroll_sizes = (n_enroll_challenges, n_validation_challenges)
        self._progress = progress
        self.clock = VirtualClock()
        self.server = AuthenticationServer(codebook_policy=codebook_policy)
        self.service: Optional[AuthenticationService] = None
        self.dispatcher: Optional[ShardDispatcher] = None
        self.frontend: Optional[BatchingFrontend] = None
        self.clients = 0
        #: Decision histogram of every authentication served.
        self.outcome_counts: Dict[str, int] = {}
        #: Host seconds from each request's wave start to its result.
        self.latencies: List[float] = []
        lot_seed = seed if label is None else _derived_seed(seed, label, "lot")
        self.lot = fabricate_lot(
            n_chips, n_xors, n_stages, seed=lot_seed, environment=environment
        )
        for index, chip in enumerate(self.lot):
            self.enroll(chip, index)
        self.say(f"enrolled {n_chips} XOR-{n_xors} chips")

    def __enter__(self) -> "Scenario":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.frontend is not None:
            self.frontend.close()
        if self.dispatcher is not None:
            self.service.detach_fleet()
            self.dispatcher.close()

    def say(self, message: str) -> None:
        """Emit a human-readable progress line."""
        if self._progress is not None:
            self._progress(message)

    def enroll(self, chip: PufChip, index: int) -> None:
        """Enroll *chip*, the lot's *index*-th, under the scenario's seeding."""
        if self._label is None:
            seed = int(self._seed) + 1 + index
        else:
            key = chip.chip_id if self._by_id else index
            seed = _derived_seed(self._seed, self._label, "enroll", key)
        n_enroll, n_validation = self._enroll_sizes
        self.server.enroll(
            chip,
            seed=seed,
            n_enroll_challenges=n_enroll,
            n_validation_challenges=n_validation,
        )

    def start(
        self,
        config: ServiceConfig,
        *,
        seed: Optional[SeedLike] = None,
        faults: Optional[FaultPlan] = None,
        clients: int = 0,
        fleet: Optional[FleetConfig] = None,
    ) -> None:
        """Stand up the service (seeded with *seed*, default the scenario's).

        *faults* goes to the service and the fleet; each consults only
        its own sites.  A *fleet* config puts a shard dispatcher behind
        the service, with the codebook seed equal to the service seed.
        Positive *clients* puts a batching front end before it.
        """
        if clients < 0:
            raise ValueError(f"clients must be >= 0, got {clients}")
        seed = self._seed if seed is None else seed
        self.service = AuthenticationService(
            self.server, config, seed=seed, clock=self.clock, faults=faults
        )
        if fleet is not None:
            self.dispatcher = ShardDispatcher(
                self.server,
                fleet,
                seed=seed if isinstance(seed, int) else None,
                faults=faults,
            )
            self.service.attach_fleet(self.dispatcher)
            self.say(
                f"{fleet.n_shards} {'inline ' if fleet.inline else ''}"
                f"shard(s) over {len(self.server.active_ids)} identities"
            )
        if clients:
            self.frontend = BatchingFrontend(
                self.service,
                FrontendConfig(max_batch=clients, max_pending=max(4 * clients, 64)),
            )
            self.say(f"batching front end: {clients} concurrent clients")
        self.clients = clients

    def serve(
        self,
        kind: str,
        responders: Sequence,
        conditions: Optional[Sequence[OperatingCondition]] = None,
    ) -> List:
        """Serve a burst of ``"auth"`` or ``"identify"`` requests, in order.

        Authentications go in waves: one request per wave without a
        front end, *clients* requests per wave through it.  The clock
        advances one tick per request before each wave, so no decision
        races virtual time.  An identification burst is a single wave
        either way: identification is batch-native, and the front end
        coalesces the burst into shared passes.  *conditions* gives each
        request its operating condition (nominal by default).
        """
        auth = kind == "auth"
        if conditions is None:
            conditions = [NOMINAL_CONDITION] * len(responders)
        width = (self.clients or 1) if auth else max(len(responders), 1)
        results: List = []
        for start in range(0, len(responders), width):
            wave = responders[start:start + width]
            wave_conditions = conditions[start:start + width]
            if auth:
                self.clock.advance(float(len(wave)))
            w0 = time.perf_counter()
            if self.frontend is not None:
                submit = (
                    self.frontend.submit_authenticate if auth
                    else self.frontend.submit_identify
                )
                futures = [
                    submit(responder, condition=condition)
                    for responder, condition in zip(wave, wave_conditions)
                ]
                served = (future.result() for future in futures)
            elif auth:
                served = [
                    self.service.authenticate(wave[0], condition=wave_conditions[0])
                ]
            else:
                served = self.service.identify_many(wave, conditions=wave_conditions)
            for result in served:
                self.latencies.append(time.perf_counter() - w0)
                if auth:
                    value = result.outcome.value
                    self.outcome_counts[value] = self.outcome_counts.get(value, 0) + 1
                results.append(result)
                if len(results) % 50 == 0:
                    self.say(f"  {len(results)}/{len(responders)} {kind} requests served")
        return results

    def report(
        self,
        numbers: Dict[str, object],
        gates: Dict[str, Dict[str, object]],
        params: Dict[str, object],
        *,
        report_path=None,
        audit_path=None,
    ) -> ScenarioReport:
        """Assemble the gated report; write the report and audit files if asked."""
        frontend = self.frontend.stats if self.frontend is not None else None
        report = ScenarioReport(
            numbers=numbers,
            gates=gates,
            wall_seconds=time.perf_counter() - self._t0,
            params={**params, "frontend": frontend},
        )
        if audit_path is not None:
            self.service.audit.save(audit_path)
            self.say(f"audit log -> {audit_path}")
        if report_path is not None:
            report.save(report_path)
            self.say(f"report -> {report_path}")
        self.say(f"done: passed={report.passed} ({report.wall_seconds:.1f}s)")
        return report


# ----------------------------------------------------------------------
# serve-sim: drifting V/T and a flaky radio
# ----------------------------------------------------------------------

#: Drift sensitivities of the serve-sim lot (XOR-4, 32 stages).  At the
#: 0.8 V / 60 degC corner a nominal-enrolled chip false-rejects about
#: two thirds of its zero-HD sessions one-shot, and majority voting
#: barely helps (the corner flips are deterministic drift, not noise).
#: The rung-2 re-tightened selector plus the k-shot vote push the corner
#: session FRR back to ~0 %, which is the ladder the drift monitor has
#: to discover on its own.
SERVE_SIM_ENVIRONMENT = EnvironmentModel(
    voltage_sensitivity=1.75, temperature_sensitivity=0.007
)

#: Exponent of the ramp's progress curve, ``(i / ramp_steps) ** shape``.
#: Below 1 the ramp nears the corner quickly and then dwells there, so
#: mildly drifting chips finish their ladder walk before the plateau.
RAMP_SHAPE = 0.6


def _drift_schedule(
    nominal_steps: int, ramp_steps: int, corner_steps: int, return_steps: int
) -> List[Tuple[str, OperatingCondition]]:
    """One ``(phase, condition)`` per request: nominal, ramp, corner, return."""
    for name, value in [
        ("nominal_steps", nominal_steps),
        ("ramp_steps", ramp_steps),
        ("corner_steps", corner_steps),
        ("return_steps", return_steps),
    ]:
        check_positive_int(value, name)
    start, corner = NOMINAL_CONDITION, CORNER_CONDITION
    trace: List[Tuple[str, OperatingCondition]] = []
    trace.extend(("nominal", start) for _ in range(nominal_steps))
    for i in range(1, ramp_steps + 1):
        frac = (i / ramp_steps) ** RAMP_SHAPE
        trace.append(
            (
                "ramp",
                OperatingCondition(
                    voltage=start.voltage + frac * (corner.voltage - start.voltage),
                    temperature=start.temperature
                    + frac * (corner.temperature - start.temperature),
                ),
            )
        )
    trace.extend(("corner", corner) for _ in range(corner_steps))
    trace.extend(("return", start) for _ in range(return_steps))
    return trace


def _phase_metrics(rows: List[Tuple[str, str, AuthOutcome]]) -> Dict[str, Dict[str, float]]:
    """Aggregate (phase, chip, outcome) rows into per-phase metrics."""
    metrics: Dict[str, Dict[str, float]] = {}
    for phase in {phase for phase, _, _ in rows}:
        outcomes = [outcome for p, _, outcome in rows if p == phase]
        approved = sum(1 for o in outcomes if o is AuthOutcome.APPROVED)
        rejected = sum(1 for o in outcomes if o is AuthOutcome.REJECTED)
        scored = approved + rejected
        denied = len(outcomes) - scored
        metrics[phase] = {
            "requests": len(outcomes),
            "approved": approved,
            "rejected": rejected,
            "denied": denied,
            "availability": approved / len(outcomes) if outcomes else float("nan"),
            "frr": rejected / scored if scored else float("nan"),
        }
    return metrics


def run_serve_sim(
    *,
    n_chips: int = 5,
    n_xors: int = 4,
    n_stages: int = 32,
    seed: SeedLike = 5,
    nominal_steps: int = 80,
    ramp_steps: int = 150,
    corner_steps: int = 80,
    return_steps: int = 80,
    fault_chip: Optional[int] = 0,
    fault_failed_reads: int = 12,
    config: Optional[ServiceConfig] = None,
    clients: int = 0,
    max_nominal_frr: float = 0.01,
    min_corner_availability: float = 0.95,
    report_path=None,
    audit_path=None,
    progress: Optional[Callable[[str], None]] = None,
) -> ScenarioReport:
    """Replay a drifting, faulted authentication trace; report reliability.

    Parameters
    ----------
    n_chips / n_xors / n_stages:
        Fleet geometry (XOR-4 over 32 stages by default: small enough
        to re-run in tests, drifty enough to exercise the ladder).
    seed:
        Root seed of the lot, the enrollments and the selection streams.
    nominal_steps / ramp_steps / corner_steps / return_steps:
        Phase lengths; one step is one request, served round-robin
        across the fleet, one virtual second apart.
    fault_chip:
        Index of the chip whose device reads fail (``None`` disables
        fault injection).
    fault_failed_reads:
        How many of that chip's first device reads fail.  The default
        (12) makes the breaker open, a first half-open probe fail
        (re-opening it), and a later probe succeed: the full
        closed -> open -> half-open -> open -> half-open -> closed arc.
    config:
        Service knobs; ``None`` uses a default tuned for the drifting
        trace (fast ladder escalation, full-window recovery, generous
        lockout threshold, and a challenge pool sized so the low-water
        warning fires near the end).
    clients:
        0 serves the trace sequentially.  Positive values replay it
        through a batching front end with up to *clients* requests in
        flight; per-chip order and one tick per request are kept, so
        the gates hold exactly as in sequential mode.
    max_nominal_frr / min_corner_availability:
        Gate bounds over the healthy (non-faulted) chips.
    report_path / audit_path:
        Optional output files (report JSON, audit JSONL).
    progress:
        Optional callback for human-readable progress lines.

    The report's numbers: ``n_requests``, ``n_chips``,
    ``outcome_counts``; per-phase ``phases`` metrics over the healthy
    chips (requests, approved, rejected, denied, ``availability`` =
    approved / all, ``frr`` = rejected / scored) and the headline
    ``nominal_frr`` and ``corner_availability``; the faulted chip's
    ``breaker_transitions`` ``(virtual_time, from, to)`` with
    ``breaker_opened`` / ``breaker_recovered``; per-chip ``rung_moves``
    and ``final_rungs``; ``flagged_chips`` for re-tightening; the
    audit-log-verified ``no_replay``; per-chip ``budget`` and
    ``budget_warnings``; host-dependent ``latency_mean`` /
    ``latency_p95`` / ``latency_max`` seconds per request.
    """
    check_positive_int(n_chips, "n_chips")
    check_positive_int(fault_failed_reads, "fault_failed_reads")
    if fault_chip is not None and not 0 <= fault_chip < n_chips:
        raise ValueError(
            f"fault_chip must be in [0, {n_chips}), got {fault_chip}"
        )
    schedule = _drift_schedule(nominal_steps, ramp_steps, corner_steps, return_steps)
    with Scenario(
        seed, "serve-sim", n_chips, n_xors, n_stages,
        environment=SERVE_SIM_ENVIRONMENT,
        n_enroll_challenges=1500,
        n_validation_challenges=6000,
        progress=progress,
    ) as run:
        if config is None:
            requests_per_chip = len(schedule) // n_chips + 1
            config = ServiceConfig(
                breaker_failure_threshold=3,
                breaker_cooldown=25.0,
                max_requests_per_window=0,  # genuine round-robin traffic
                lockout_threshold=10,  # ladder transients are not attacks
                lockout_seconds=60.0,
                # A genuine chip under zero-HD should essentially never
                # reject, so a single reject in the window is treated as
                # drift signal (1/12 > 0.08): the whole ladder walk
                # completes inside the V/T ramp.  Recovery waits for 32
                # straight approvals so the re-tightened rung is held
                # through the corner plateau instead of oscillating.
                drift=DriftPolicy(
                    window=12, min_samples=1, escalate_frr=0.08, recover_clean=32
                ),
                # The lot's validated rung-2 operating point: strong
                # enough to zero the corner FRR together with the 5-shot
                # vote, mild enough that selection stays interactive.
                retighten_beta0=0.30,
                retighten_beta1=2.0,
                # Healthy chips cross the low-water mark in the return
                # phase (demonstrating the warning) but never run dry.
                pool_capacity=int(requests_per_chip * 64 * 1.08),
            )
        responders = list(run.lot)
        fault_chip_id: Optional[str] = None
        if fault_chip is not None:
            fault_chip_id = run.lot[fault_chip].chip_id
            plan = FaultPlan([
                FaultSpec(Site.DEVICE_READ, kind="device", fail_attempts=fault_failed_reads)
            ])
            responders[fault_chip] = FlakyResponder(run.lot[fault_chip], plan)
            run.say(f"injecting {fault_failed_reads} failed device reads on {fault_chip_id}")
        run.start(config, clients=clients)
        results = run.serve(
            "auth",
            [responders[step % n_chips] for step in range(len(schedule))],
            [condition for _, condition in schedule],
        )

        service = run.service
        phases = _phase_metrics([
            (phase, result.chip_id, result.outcome)
            for (phase, _), result in zip(schedule, results)
            if result.chip_id != fault_chip_id
        ])
        nominal_frr = float(phases.get("nominal", {}).get("frr", float("nan")))
        corner_availability = float(
            phases.get("corner", {}).get("availability", float("nan"))
        )
        transitions: List[Tuple[float, str, str]] = []
        if fault_chip_id is not None:
            transitions = list(service._chips[fault_chip_id].breaker.transitions)
        opened = any(to == "open" for _, _, to in transitions)
        states = sorted(service._chips.items())
        no_replay = not service.audit.replayed_digests()
        latency = np.asarray(run.latencies) if run.latencies else np.zeros(1)
        numbers = {
            "n_requests": len(schedule),
            "n_chips": n_chips,
            "outcome_counts": dict(sorted(run.outcome_counts.items())),
            "phases": phases,
            "nominal_frr": nominal_frr,
            "corner_availability": corner_availability,
            "breaker_transitions": transitions,
            "breaker_opened": opened,
            "breaker_recovered": opened and transitions[-1][2] == "closed",
            "rung_moves": {chip_id: state.drift.moves for chip_id, state in states},
            "final_rungs": {chip_id: state.drift.rung for chip_id, state in states},
            "flagged_chips": service.flagged_chips,
            "no_replay": no_replay,
            "budget": {
                chip_id: {"spent": state.budget.spent, "remaining": state.budget.remaining}
                for chip_id, state in states
            },
            "budget_warnings": list(service.warnings),
            "latency_mean": float(latency.mean()),
            "latency_p95": float(np.percentile(latency, 95)),
            "latency_max": float(latency.max()),
        }
        # A NaN (a phase without a scored session) fails neither bound.
        gates = {
            "no_replay": _gate(no_replay, True, no_replay),
            "nominal_frr": _gate(
                nominal_frr, max_nominal_frr, not nominal_frr > max_nominal_frr
            ),
            "corner_availability": _gate(
                corner_availability, min_corner_availability,
                not corner_availability < min_corner_availability,
            ),
        }
        params = {
            "n_chips": n_chips,
            "n_xors": n_xors,
            "n_stages": n_stages,
            "seed": seed,
            "nominal_steps": nominal_steps,
            "ramp_steps": ramp_steps,
            "corner_steps": corner_steps,
            "return_steps": return_steps,
            "corner": str(CORNER_CONDITION),
            "ramp_shape": RAMP_SHAPE,
            "voltage_sensitivity": SERVE_SIM_ENVIRONMENT.voltage_sensitivity,
            "temperature_sensitivity": SERVE_SIM_ENVIRONMENT.temperature_sensitivity,
            "fault_chip": fault_chip,
            "fault_failed_reads": fault_failed_reads,
            "tick_seconds": 1.0,
            "clients": clients,
        }
        return run.report(
            numbers, gates, params, report_path=report_path, audit_path=audit_path
        )


# ----------------------------------------------------------------------
# lifecycle-sim: a living fleet under churn, aging, storms and chaos
# ----------------------------------------------------------------------

#: Beta scaling of one retighten-storm step.  Deliberately mild: storms
#: model periodic margin maintenance, and they compose multiplicatively
#: across the life.
STORM_BETA0, STORM_BETA1 = 0.92, 1.04

#: The BTI drift law every device ages by, per tick.
AGING = AgingModel()


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
        by ``STORM_BETA0`` / ``STORM_BETA1`` in one operator campaign
        (0 disables storms): the worst-case codebook invalidation wave.
    max_stale_rows:
        The server's deferred :class:`CodebookPolicy` serves with at
        most this many pending rows.
    n_enroll_challenges / n_validation_challenges:
        Enrollment campaign sizes (smaller than production: churn means
        many enrollments per run).
    identify_probes:
        Active chips identified through the codebook plane per tick
        (also how staleness at serve time is sampled).
    clients:
        0 serves every probe sequentially.  Positive values pump all
        traffic through a batching front end with up to this many
        requests in flight; the gates hold unchanged.
    sharded / n_shards:
        With *sharded* on, identification is served by an inline
        :class:`~repro.service.fleet.ShardDispatcher` over *n_shards*
        shared-memory shards instead of the in-process codebook: the
        same results (the fleet plane is bit-identical at full
        coverage), plus shard refresh and re-layout under churn,
        revocation waves and retighten storms.
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
    max_stale_rows: int = 8
    n_enroll_challenges: int = 1200
    n_validation_challenges: int = 5000
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
        check_positive_int(self.n_shards, "n_shards")
        if self.clients < 0:
            raise ValueError(f"clients must be >= 0, got {self.clients}")


def run_lifecycle_sim(
    config: Optional[LifecycleConfig] = None,
    *,
    seed: SeedLike = 7,
    faults: Optional[FaultPlan] = None,
    workdir=None,
    report_path=None,
    progress: Optional[Callable[[str], None]] = None,
) -> ScenarioReport:
    """Replay one simulated fleet life; return the gated report.

    Each tick: a chip may join (churn) and the oldest may be revoked;
    every device ages to the tick's hours (keyed by chip id, so each
    part stays on one trajectory); a storm may re-tighten the whole
    fleet, and drift-flagged chips are re-tightened once; the active
    fleet authenticates, a few chips are identified through the
    (possibly stale) codebook, and revoked devices keep knocking (one
    authentication and one identification burst, both served and
    audited by the service); then maintenance drains codebook rebuilds
    and, with *workdir*, saves and reloads the database.

    Parameters
    ----------
    config:
        The life's shape (defaults replay a year in monthly ticks).
    seed:
        Root seed of fabrication, enrollment, aging and selection.
    faults:
        Optional chaos plan.  :attr:`Site.SERVICE_LIFECYCLE` faults
        (index = tick) kill that tick's maintenance;
        :attr:`Site.CODEBOOK_SYNC` / :attr:`Site.CODEBOOK_PERSIST`
        faults hit the codebook plane; device and service sites pass
        through to the service as usual.
    workdir:
        Optional directory for persistence chaos: every maintenance
        tick saves the database there (through the fault plan) and
        reloads it.
    report_path:
        Optional JSON output file.
    progress:
        Optional callback for human-readable progress lines.

    The report's numbers: ``ticks`` / ``simulated_hours``;
    ``enrolled_total``, ``revoked_total`` and ``retightens``;
    ``n_requests`` and ``outcome_counts`` of every authentication;
    ``frr`` / ``availability`` over the active-fleet probes;
    ``revoked_probes`` / ``revoked_denials`` / ``revoked_approvals``
    and ``revoked_identify_hits`` (a revoked device resolved to its
    identity); the audit-verified ``no_replay``;
    ``max_served_stale_rows`` / ``stale_served_ticks``; the final
    ``codebook`` counters and fleet-wide ``budget``; and the chaos
    accounting ``maintenance_crashes``, ``sync_crashes``,
    ``persist_saves``, ``persist_failures``, ``reloads`` and
    ``corrupt_recoveries``.
    """
    cfg = config or LifecycleConfig()
    with Scenario(
        seed, "lifecycle", cfg.n_chips, cfg.n_xors, cfg.n_stages,
        by_id=True,
        codebook_policy=CodebookPolicy(deferred=True, max_stale_rows=cfg.max_stale_rows),
        n_enroll_challenges=cfg.n_enroll_challenges,
        n_validation_challenges=cfg.n_validation_challenges,
        progress=progress,
    ) as run:
        server = run.server
        service_config = ServiceConfig(
            max_requests_per_window=0,  # genuine maintenance traffic
            lockout_threshold=10,
            lockout_seconds=3600.0,
            drift=DriftPolicy(
                window=12, min_samples=4, escalate_frr=0.25, recover_clean=24
            ),
            retighten_beta0=0.5,
            retighten_beta1=1.5,
            pool_capacity=max(20_000, cfg.ticks * cfg.requests_per_chip * 64 * 4),
        )
        n_challenges = service_config.n_challenges
        server.codebook(n_challenges, seed=seed if isinstance(seed, int) else None)
        run.start(
            service_config,
            faults=faults,
            clients=cfg.clients,
            fleet=(
                FleetConfig(n_shards=cfg.n_shards, n_challenges=n_challenges, inline=True)
                if cfg.sharded else None
            ),
        )
        service = run.service
        chips: Dict[str, PufChip] = {chip.chip_id: chip for chip in run.lot}
        tally: Dict[str, int] = collections.Counter()
        max_served_stale = 0
        committed_retightens = set()

        for tick in range(cfg.ticks):
            hours = (tick + 1) * cfg.hours_per_tick
            maintenance_ok = True
            if faults is not None:
                try:
                    faults.check(Site.SERVICE_LIFECYCLE, tick)
                except InjectedFault:
                    maintenance_ok = False
                    tally["maintenance_crashes"] += 1

            if cfg.enroll_interval and (tick + 1) % cfg.enroll_interval == 0:
                index = len(chips)
                chip = PufChip.create(
                    cfg.n_xors,
                    cfg.n_stages,
                    derive_generator(seed, "lifecycle", "chip", index),
                    chip_id=f"chip-{index}",
                )
                chips[chip.chip_id] = chip
                run.enroll(chip, index)

            if (
                cfg.revoke_interval
                and (tick + 1) % cfg.revoke_interval == 0
                and len(server.active_ids) > 2
            ):
                victim = server.active_ids[0]  # the oldest active identity
                service.revoke(victim, reason=f"lifecycle wave, tick {tick}")

            aged = {
                chip_id: age_chip(
                    chip, hours, AGING,
                    derive_generator(seed, "lifecycle", "aging", chip_id),
                )
                for chip_id, chip in chips.items()
            }

            if cfg.storm_interval and (tick + 1) % cfg.storm_interval == 0:
                for chip_id in server.active_ids:
                    server.retighten(chip_id, STORM_BETA0, STORM_BETA1)
                    tally["retightens"] += 1
                pending = server.codebook_status(n_challenges).get("pending_rows", 0)
                run.say(
                    f"tick {tick}: retighten storm over "
                    f"{len(server.active_ids)} chips (codebook pending: {pending})"
                )
            for chip_id in service.flagged_chips:
                if chip_id in committed_retightens or server.is_revoked(chip_id):
                    continue
                service.apply_retightening(chip_id)
                committed_retightens.add(chip_id)
                tally["retightens"] += 1

            fleet_traffic = [
                aged[chip_id]
                for chip_id in server.active_ids
                for _ in range(cfg.requests_per_chip)
            ]
            for result in run.serve("auth", fleet_traffic):
                if result.outcome is AuthOutcome.APPROVED:
                    tally["active_approved"] += 1
                elif result.outcome is AuthOutcome.REJECTED:
                    tally["active_rejected"] += 1
                else:
                    tally["active_denied"] += 1

            probe_ids = server.active_ids[: cfg.identify_probes]
            if probe_ids:
                results = run.serve("identify", [aged[c] for c in probe_ids])
                hits = sum(
                    result.chip_id == chip_id
                    for chip_id, result in zip(probe_ids, results)
                )
                tally["identified_hits"] += hits
                tally["identified_misses"] += len(probe_ids) - hits
                served_stale = int(
                    server.codebook_status(n_challenges).get("pending_rows", 0)
                )
                max_served_stale = max(max_served_stale, served_stale)
                tally["stale_served_ticks"] += served_stale > 0

            revoked_ids = sorted(server.revocations)[:3]
            revoked_devices = [aged[c] for c in revoked_ids]
            for result in run.serve("auth", revoked_devices):
                tally["revoked_probes"] += 1
                if result.outcome is AuthOutcome.APPROVED:
                    tally["revoked_approvals"] += 1
                else:
                    tally["revoked_denials"] += 1
            sweep = run.serve("identify", revoked_devices)
            tally["revoked_identify_hits"] += sum(
                result.chip_id == chip_id
                for chip_id, result in zip(revoked_ids, sweep)
            )

            if maintenance_ok:
                try:
                    server.sync_codebooks(faults=faults)
                except InjectedFault:
                    tally["sync_crashes"] += 1
                if workdir is not None:
                    try:
                        server.save_database(workdir, faults=faults)
                        tally["persist_saves"] += 1
                    except (InjectedFault, OSError):
                        tally["persist_failures"] += 1
                    try:
                        reloaded = AuthenticationServer.load_database(workdir)
                    except (FileNotFoundError, CorruptDatasetError):
                        pass
                    else:
                        tally["reloads"] += 1
                        tally["corrupt_recoveries"] += reloaded.codebook_recoveries

            run.clock.advance(cfg.hours_per_tick * 3600.0)
            run.say(
                f"tick {tick + 1}/{cfg.ticks}: "
                f"{len(server.active_ids)} active / "
                f"{len(server.revocations)} revoked, age {hours:.0f} h"
            )

        # Converge: the life ends with a fully drained codebook.
        server.sync_codebooks(limit=None)

        fleet_stats = None
        if run.dispatcher is not None:
            fleet_stats = {
                "n_shards": cfg.n_shards,
                "min_coverage": run.dispatcher.log.min_coverage(),
                "events": run.dispatcher.log.outcome_counts(),
                "epoch": run.dispatcher.epoch,
            }
        scored = tally["active_approved"] + tally["active_rejected"]
        probes = scored + tally["active_denied"]
        frr = tally["active_rejected"] / scored if scored else 0.0
        availability = tally["active_approved"] / probes if probes else 0.0
        no_replay = not service.audit.replayed_digests()
        book = server.codebook(n_challenges)
        numbers = {
            "ticks": cfg.ticks,
            "simulated_hours": cfg.ticks * cfg.hours_per_tick,
            "enrolled_total": len(chips),
            "revoked_total": len(server.revocations),
            "retightens": tally["retightens"],
            "n_requests": probes + tally["revoked_probes"],
            "outcome_counts": dict(sorted(run.outcome_counts.items())),
            "frr": frr,
            "availability": availability,
            "revoked_probes": tally["revoked_probes"],
            "revoked_denials": tally["revoked_denials"],
            "revoked_approvals": tally["revoked_approvals"],
            "revoked_identify_hits": tally["revoked_identify_hits"],
            "no_replay": no_replay,
            "max_served_stale_rows": max_served_stale,
            "stale_served_ticks": tally["stale_served_ticks"],
            "codebook": {
                "rows": len(book),
                "rebuilds": book.rebuilds,
                "restacks": book.restacks,
                "row_writes": book.row_writes,
                "syncs": book.syncs,
            },
            "budget": service.budget_stats,
            "maintenance_crashes": tally["maintenance_crashes"],
            "sync_crashes": tally["sync_crashes"],
            "persist_saves": tally["persist_saves"],
            "persist_failures": tally["persist_failures"],
            "reloads": tally["reloads"],
            "corrupt_recoveries": tally["corrupt_recoveries"],
        }
        gates = {
            "nominal_frr": _gate(frr, cfg.max_nominal_frr, frr <= cfg.max_nominal_frr),
            "availability": _gate(
                availability, cfg.min_availability,
                availability >= cfg.min_availability,
            ),
            "no_replay": _gate(no_replay, True, no_replay),
            "revoked_approvals": _gate(
                tally["revoked_approvals"], 0, tally["revoked_approvals"] == 0
            ),
            "revoked_identify_hits": _gate(
                tally["revoked_identify_hits"], 0, tally["revoked_identify_hits"] == 0
            ),
            "staleness": _gate(
                max_served_stale, cfg.max_stale_rows,
                max_served_stale <= cfg.max_stale_rows,
            ),
        }
        params = {
            "seed": seed,
            # The config plus the fixed physics the life ran with.
            "config": {
                **dataclasses.asdict(cfg),
                "storm_beta0": STORM_BETA0,
                "storm_beta1": STORM_BETA1,
                "rebuild_batch": None,
                "aging": dataclasses.asdict(AGING),
            },
            "identified_hits": tally["identified_hits"],
            "identified_misses": tally["identified_misses"],
            "chaos": faults is not None,
            "persistence_chaos": workdir is not None,
            "sharded": cfg.sharded,
            "fleet": fleet_stats,
        }
        return run.report(numbers, gates, params, report_path=report_path)


# ----------------------------------------------------------------------
# serve-shards: a supervised worker fleet under chaos
# ----------------------------------------------------------------------


def run_serve_shards(
    *,
    n_chips: int = 6,
    n_xors: int = 4,
    n_stages: int = 32,
    n_shards: int = 2,
    batches: int = 4,
    n_challenges: int = 64,
    chaos: bool = False,
    request_timeout: float = 5.0,
    clients: int = 0,
    seed: int = 0,
    report_path=None,
    progress: Optional[Callable[[str], None]] = None,
) -> ScenarioReport:
    """Identify the whole lot *batches* times through a real shard fleet.

    The lot derives from ``seed + 160`` and its enrollments from
    ``seed + 161 + index``; the service and the fleet's codebook use
    ``seed + 173``.  With *chaos*, the first request kills whoever
    serves shard 0 mid-query, and the next spawn generation of shard
    1's worker stalls its heartbeat: both must be detected, restarted
    and healed.  With positive *clients*, each batch goes through the
    batching front end as concurrent submissions.

    The report's numbers: per-batch ``batches`` hits and coverage,
    ``wrong_identifications``, ``final_coverage`` and the ``fleet``
    status with its supervision events.
    """
    faults = None
    if chaos:
        faults = FaultPlan([
            FaultSpec(Site.SHARD_SCORE, kind="crash", at=0, fail_attempts=2),
            FaultSpec(Site.SHARD_SCORE, kind="hang", at=1, fail_attempts=3,
                      seconds=max(30.0, 4 * request_timeout)),
        ])
    with Scenario(seed + 160, None, n_chips, n_xors, n_stages, progress=progress) as run:
        run.start(
            ServiceConfig(n_challenges=n_challenges),
            seed=seed + 173,
            faults=faults,
            clients=clients,
            fleet=FleetConfig(
                n_shards=n_shards,
                n_challenges=n_challenges,
                request_timeout=request_timeout,
                heartbeat_timeout=max(1.0, request_timeout / 2),
            ),
        )
        run.say(f"fleet up: {run.dispatcher.shard_states()}")
        wrong = 0
        served = []
        for batch in range(batches):
            results = run.serve("identify", run.lot)
            hits = sum(r.chip_id == chip.chip_id for chip, r in zip(run.lot, results))
            wrong += sum(
                r.chip_id not in (None, chip.chip_id)
                for chip, r in zip(run.lot, results)
            )
            coverage = min(r.coverage for r in results)
            served.append({"batch": batch, "hits": hits, "coverage": coverage})
            run.say(f"batch {batch}: {hits}/{n_chips} identified, coverage {coverage:.3f}")
        final_coverage = served[-1]["coverage"] if served else 0.0
        status = run.dispatcher.status()
        run.say(f"events: {status['events']}")
        numbers = {
            "batches": served,
            "wrong_identifications": wrong,
            "final_coverage": final_coverage,
            "fleet": status,
        }
        gates = {
            "wrong_identifications": _gate(wrong, 0, wrong == 0),
            "final_coverage": _gate(final_coverage, 1.0, final_coverage >= 1.0),
        }
        params = {
            "seed": seed,
            "chips": n_chips,
            "n_xors": n_xors,
            "n_stages": n_stages,
            "shards": n_shards,
            "n_challenges": n_challenges,
            "chaos": chaos,
            "request_timeout": request_timeout,
            "clients": clients,
        }
        return run.report(numbers, gates, params, report_path=report_path)
