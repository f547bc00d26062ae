"""The ``serve-sim`` traffic replay: drifting V/T, faults, reliability report.

This module closes the loop on the resilient serving path: it stands up
a small drift-sensitive chip lot, enrolls it at nominal, then replays a
round-robin authentication trace through :class:`AuthenticationService`
while the (server-invisible) operating condition walks a
nominal -> ramp -> corner -> return schedule and an injected fault plan
makes one chip's radio persistently flaky.  The output is a
machine-readable reliability report: per-phase availability and
false-reject rate, the circuit-breaker transition trace, the
degradation-ladder walk of every chip, budget accounting, and the
audit-log-verified no-replay check.

Everything is deterministic: the lot, the enrollment, the selection
streams, the fault schedule and the virtual service clock all derive
from the one ``seed``, so a report is exactly reproducible.

The numbers behind the default physics (XOR-4, 32 stages,
``voltage_sensitivity=1.75``, ``temperature_sensitivity=0.007``): at
the 0.8 V / 60 degC corner a nominal-enrolled chip false-rejects about
two thirds of its zero-HD sessions one-shot, majority voting barely
helps (the corner flips are deterministic drift, not noise), while the
rung-2 re-tightened selector (``beta0 x0.30``, ``beta1 x2.0``) plus the
k-shot vote push the corner session FRR back to ~0% -- which is exactly
the ladder the drift monitor is supposed to discover on its own.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.server import AuthenticationServer
from repro.faults import FaultPlan, FaultSpec, FlakyResponder, Site
from repro.service.drift import DriftPolicy
from repro.service.events import AuthOutcome
from repro.service.service import AuthenticationService, ServiceConfig
from repro.silicon.chip import fabricate_lot
from repro.silicon.environment import (
    NOMINAL_CONDITION,
    EnvironmentModel,
    OperatingCondition,
)
from repro.utils.rng import SeedLike, derive_generator
from repro.utils.validation import check_positive_int

__all__ = ["SimReport", "VirtualClock", "drift_schedule", "run_serve_sim"]

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


def drift_schedule(
    nominal_steps: int = 80,
    ramp_steps: int = 150,
    corner_steps: int = 80,
    return_steps: int = 80,
    *,
    start: OperatingCondition = NOMINAL_CONDITION,
    corner: OperatingCondition = CORNER_CONDITION,
    ramp_shape: float = 1.0,
) -> List[Tuple[str, OperatingCondition]]:
    """Build the per-request (phase, condition) trace of the simulation.

    Four phases: a *nominal* plateau (the deployment's honeymoon), a
    V/T *ramp* toward the corner (where the drift monitor should do its
    escalation work), a *corner* plateau (where availability is
    measured), and a *return* to nominal (where the recovery hysteresis
    should eventually walk the ladder back down).

    ``ramp_shape`` is the exponent of the ramp's progress curve
    (``frac = (i / ramp_steps) ** ramp_shape``): 1.0 is linear, values
    below 1.0 move toward the corner quickly and then *dwell* near it
    -- which gives mildly drifting chips enough sessions in the
    high-FRR zone to finish their ladder walk before the corner
    plateau starts.

    Returns a list with one ``(phase_name, condition)`` entry per
    authentication request, ``nominal_steps + ramp_steps + corner_steps
    + return_steps`` long.
    """
    for name, value in [
        ("nominal_steps", nominal_steps),
        ("ramp_steps", ramp_steps),
        ("corner_steps", corner_steps),
        ("return_steps", return_steps),
    ]:
        check_positive_int(value, name)
    if ramp_shape <= 0:
        raise ValueError(f"ramp_shape must be positive, got {ramp_shape}")
    trace: List[Tuple[str, OperatingCondition]] = []
    trace.extend(("nominal", start) for _ in range(nominal_steps))
    for i in range(1, ramp_steps + 1):
        frac = (i / ramp_steps) ** ramp_shape
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


@dataclasses.dataclass(frozen=True)
class SimReport:
    """Reliability report of one ``serve-sim`` run.

    Attributes
    ----------
    n_requests / n_chips:
        Trace length and fleet size.
    outcome_counts:
        Decision-outcome histogram over the whole trace.
    phases:
        Per-phase metrics over the *healthy* (non-faulted) chips:
        request/approval/rejection/denial counts, ``availability``
        (approved / all requests) and ``frr``
        (rejected / scored sessions).
    nominal_frr / corner_availability:
        The two headline numbers the acceptance criteria bound.
    breaker_transitions:
        ``(virtual_time, from_state, to_state)`` trace of the faulted
        chip's circuit breaker (empty when no fault was injected).
    breaker_opened / breaker_recovered:
        Whether the faulted chip's breaker ever opened, and whether it
        closed again afterwards.
    rung_moves:
        Per-chip degradation-ladder moves ``(from_rung, to_rung)``.
    final_rungs:
        Ladder rung of each chip at the end of the trace.
    flagged_chips:
        Chips flagged for operator threshold re-tightening.
    no_replay:
        ``True`` iff the audit log shows every issued challenge digest
        exactly once per chip (the protocol invariant).
    budget:
        Per-chip ``{spent, remaining}`` challenge-pool accounting.
    budget_warnings:
        Low-water warnings the service raised.
    latency_mean / latency_p95 / latency_max:
        Wall-clock seconds per request (host-dependent; the service's
        own latencies use the virtual clock).
    wall_seconds:
        Total wall time of the replay.
    params:
        The knobs the run used (for reproduction).
    """

    n_requests: int
    n_chips: int
    outcome_counts: Dict[str, int]
    phases: Dict[str, Dict[str, float]]
    nominal_frr: float
    corner_availability: float
    breaker_transitions: List[Tuple[float, str, str]]
    breaker_opened: bool
    breaker_recovered: bool
    rung_moves: Dict[str, List[Tuple[int, int]]]
    final_rungs: Dict[str, int]
    flagged_chips: List[str]
    no_replay: bool
    budget: Dict[str, Dict[str, int]]
    budget_warnings: List[str]
    latency_mean: float
    latency_p95: float
    latency_max: float
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
    corner: OperatingCondition = CORNER_CONDITION,
    ramp_shape: float = 0.6,
    voltage_sensitivity: float = 1.75,
    temperature_sensitivity: float = 0.007,
    fault_chip: Optional[int] = 0,
    fault_failed_reads: int = 12,
    n_enroll_challenges: int = 1500,
    n_validation_challenges: int = 6000,
    config: Optional[ServiceConfig] = None,
    tick_seconds: float = 1.0,
    clients: int = 0,
    frontend_config=None,
    report_path=None,
    audit_path=None,
    progress: Optional[Callable[[str], None]] = None,
) -> SimReport:
    """Replay a simulated authentication trace and report reliability.

    Parameters
    ----------
    n_chips / n_xors / n_stages:
        Fleet geometry (XOR-4 over 32 stages by default -- small enough
        to re-run in tests, drifty enough to exercise the ladder).
    seed:
        Root seed; fabrication, enrollment, selection streams and the
        schedule all derive from it.
    nominal_steps / ramp_steps / corner_steps / return_steps:
        Phase lengths of :func:`drift_schedule`; one step = one request,
        served round-robin across the fleet.
    voltage_sensitivity / temperature_sensitivity:
        The lot's :class:`EnvironmentModel` drift sensitivities.  The
        defaults produce a fleet whose *corner* one-shot session FRR is
        ~60-70% -- hostile enough that only the full degradation ladder
        keeps the corner phase available.
    fault_chip:
        Index of the chip whose device reads fail (``None`` disables
        fault injection).
    fault_failed_reads:
        How many of that chip's first device reads fail.  The default
        (12) is tuned so the breaker opens, a first half-open probe
        fails (re-opening it), and a later probe succeeds -- the full
        closed -> open -> half-open -> open -> half-open -> closed arc.
    config:
        Service knobs; ``None`` uses a simulation default tuned for the
        drifting trace (fast ladder escalation, full-window recovery,
        generous genuine-traffic lockout threshold, and a challenge
        pool sized so the low-water warning fires near the end).
    tick_seconds:
        Virtual-clock advance per request.
    clients:
        0 (default) serves the trace sequentially, one
        :meth:`AuthenticationService.authenticate` call per request.
        Positive values replay the same trace through a
        :class:`~repro.service.frontend.BatchingFrontend` with real
        concurrency: up to *clients* requests are in flight at once
        (submitted as futures in schedule order), so the coalescing
        loop serves them in packed batches.  Per-chip request order is
        preserved by the front end's queue, and the virtual clock
        advances ``tick_seconds`` per request (a wave at a time), so
        the acceptance gates -- FRR, availability, no-replay -- hold
        exactly as in sequential mode.
    frontend_config:
        Optional :class:`~repro.service.frontend.FrontendConfig` for
        the *clients* mode (defaults to ``max_batch=clients``).
    report_path / audit_path:
        Optional output files (reliability JSON, audit JSONL).
    progress:
        Optional callback for human-readable progress lines.

    Returns
    -------
    SimReport
        The reliability report (also written to *report_path* if given).
    """
    check_positive_int(n_chips, "n_chips")
    check_positive_int(fault_failed_reads, "fault_failed_reads")
    if clients < 0:
        raise ValueError(f"clients must be >= 0, got {clients}")
    if fault_chip is not None and not 0 <= fault_chip < n_chips:
        raise ValueError(
            f"fault_chip must be in [0, {n_chips}), got {fault_chip}"
        )

    def say(message: str) -> None:
        if progress is not None:
            progress(message)

    t0 = time.perf_counter()
    schedule = drift_schedule(
        nominal_steps,
        ramp_steps,
        corner_steps,
        return_steps,
        corner=corner,
        ramp_shape=ramp_shape,
    )

    # ------------------------------------------------------------------
    # Fleet: a drift-sensitive lot, enrolled at nominal.
    # ------------------------------------------------------------------
    environment = EnvironmentModel(
        voltage_sensitivity=voltage_sensitivity,
        temperature_sensitivity=temperature_sensitivity,
    )
    lot_seed = int(derive_generator(seed, "serve-sim", "lot").integers(2**31))
    chips = fabricate_lot(
        n_chips, n_xors, n_stages, seed=lot_seed, environment=environment
    )
    say(f"fabricated {n_chips} XOR-{n_xors} chips (lot seed {lot_seed})")

    server = AuthenticationServer()
    for i, chip in enumerate(chips):
        server.enroll(
            chip,
            seed=int(derive_generator(seed, "serve-sim", "enroll", i).integers(2**31)),
            n_enroll_challenges=n_enroll_challenges,
            n_validation_challenges=n_validation_challenges,
        )
    say(f"enrolled {n_chips} chips at {NOMINAL_CONDITION}")

    # ------------------------------------------------------------------
    # Service: virtual clock, sim-tuned config, injected fault.
    # ------------------------------------------------------------------
    if config is None:
        requests_per_chip = len(schedule) // n_chips + 1
        config = ServiceConfig(
            breaker_failure_threshold=3,
            breaker_cooldown=25.0 * tick_seconds,
            max_requests_per_window=0,  # genuine round-robin traffic
            lockout_threshold=10,  # ladder transients are not attacks
            lockout_seconds=60.0 * tick_seconds,
            # A genuine chip under zero-HD should essentially never
            # reject, so a single reject in the window is treated as
            # drift signal (1/12 > 0.08) -- that makes the whole ladder
            # walk complete inside the V/T ramp.  Recovery waits for 32
            # straight approvals so the re-tightened rung is held
            # through the corner plateau instead of oscillating.
            drift=DriftPolicy(
                window=12, min_samples=1, escalate_frr=0.08, recover_clean=32
            ),
            # The lot's validated rung-2 operating point: strong enough
            # to zero the corner FRR together with the 5-shot vote,
            # mild enough that selection stays interactive.
            retighten_beta0=0.30,
            retighten_beta1=2.0,
            # Size the pool so healthy chips cross the low-water mark in
            # the return phase (demonstrating the warning) but never
            # exhaust it.
            pool_capacity=int(requests_per_chip * 64 * 1.08),
        )
    clock = VirtualClock()
    responders = list(chips)
    fault_chip_id: Optional[str] = None
    if fault_chip is not None:
        fault_chip_id = chips[fault_chip].chip_id
        plan = FaultPlan(
            [
                FaultSpec(
                    Site.DEVICE_READ,
                    kind="device",
                    fail_attempts=fault_failed_reads,
                )
            ]
        )
        responders[fault_chip] = FlakyResponder(chips[fault_chip], plan)
        say(
            f"injecting {fault_failed_reads} failed device reads on "
            f"{fault_chip_id}"
        )
    service = AuthenticationService(server, config, seed=seed, clock=clock)

    # ------------------------------------------------------------------
    # Replay.
    # ------------------------------------------------------------------
    rows: List[Tuple[str, str, AuthOutcome]] = []
    latencies: List[float] = []
    outcome_counts: Dict[str, int] = {}
    frontend_stats: Optional[Dict[str, object]] = None

    def account(step: int, phase: str, condition, result) -> None:
        rows.append((phase, result.chip_id, result.outcome))
        outcome_counts[result.outcome.value] = (
            outcome_counts.get(result.outcome.value, 0) + 1
        )
        if progress is not None and (step + 1) % 50 == 0:
            say(
                f"  step {step + 1}/{len(schedule)} ({phase} at {condition}): "
                f"{result.outcome.value}"
            )

    if clients:
        from repro.service.frontend import BatchingFrontend, FrontendConfig

        fe_config = frontend_config or FrontendConfig(
            max_batch=clients, max_pending=max(4 * clients, 64)
        )
        say(
            f"replaying through the batching front end: {clients} "
            f"concurrent clients, max_batch {fe_config.max_batch}"
        )
        with BatchingFrontend(service, fe_config) as frontend:
            for wave_start in range(0, len(schedule), clients):
                wave = schedule[wave_start:wave_start + clients]
                # One tick per request, advanced up front so the wave's
                # decisions never race the clock.
                clock.advance(tick_seconds * len(wave))
                w0 = time.perf_counter()
                futures = [
                    frontend.submit_authenticate(
                        responders[(wave_start + i) % n_chips],
                        condition=condition,
                    )
                    for i, (_, condition) in enumerate(wave)
                ]
                for i, ((phase, condition), future) in enumerate(
                    zip(wave, futures)
                ):
                    result = future.result()
                    latencies.append(time.perf_counter() - w0)
                    account(wave_start + i, phase, condition, result)
            frontend_stats = frontend.stats
    else:
        for step, (phase, condition) in enumerate(schedule):
            clock.advance(tick_seconds)
            responder = responders[step % n_chips]
            w0 = time.perf_counter()
            result = service.authenticate(responder, condition=condition)
            latencies.append(time.perf_counter() - w0)
            account(step, phase, condition, result)

    # ------------------------------------------------------------------
    # Report.
    # ------------------------------------------------------------------
    healthy_rows = [r for r in rows if r[1] != fault_chip_id]
    phases = _phase_metrics(healthy_rows)
    nominal = phases.get("nominal", {})
    corner_metrics = phases.get("corner", {})

    breaker_transitions: List[Tuple[float, str, str]] = []
    if fault_chip_id is not None:
        breaker = service._chips[fault_chip_id].breaker
        breaker_transitions = list(breaker.transitions)
    opened = any(to == "open" for _, _, to in breaker_transitions)
    recovered = opened and breaker_transitions[-1][2] == "closed"

    rung_moves = {
        chip_id: state.drift.moves
        for chip_id, state in sorted(service._chips.items())
    }
    final_rungs = {
        chip_id: state.drift.rung
        for chip_id, state in sorted(service._chips.items())
    }
    budget = {
        chip_id: {
            "spent": state.budget.spent,
            "remaining": state.budget.remaining,
        }
        for chip_id, state in sorted(service._chips.items())
    }

    latency_array = np.asarray(latencies) if latencies else np.zeros(1)
    report = SimReport(
        n_requests=len(schedule),
        n_chips=n_chips,
        outcome_counts=dict(sorted(outcome_counts.items())),
        phases=phases,
        nominal_frr=float(nominal.get("frr", float("nan"))),
        corner_availability=float(corner_metrics.get("availability", float("nan"))),
        breaker_transitions=breaker_transitions,
        breaker_opened=opened,
        breaker_recovered=recovered,
        rung_moves=rung_moves,
        final_rungs=final_rungs,
        flagged_chips=service.flagged_chips,
        no_replay=not service.audit.replayed_digests(),
        budget=budget,
        budget_warnings=list(service.warnings),
        latency_mean=float(latency_array.mean()),
        latency_p95=float(np.percentile(latency_array, 95)),
        latency_max=float(latency_array.max()),
        wall_seconds=time.perf_counter() - t0,
        params={
            "n_chips": n_chips,
            "n_xors": n_xors,
            "n_stages": n_stages,
            "seed": seed,
            "nominal_steps": nominal_steps,
            "ramp_steps": ramp_steps,
            "corner_steps": corner_steps,
            "return_steps": return_steps,
            "corner": str(corner),
            "ramp_shape": ramp_shape,
            "voltage_sensitivity": voltage_sensitivity,
            "temperature_sensitivity": temperature_sensitivity,
            "fault_chip": fault_chip,
            "fault_failed_reads": fault_failed_reads,
            "tick_seconds": tick_seconds,
            "clients": clients,
            "frontend": frontend_stats,
        },
    )
    if audit_path is not None:
        service.audit.save(audit_path)
        say(f"audit log -> {audit_path}")
    if report_path is not None:
        report.save(report_path)
        say(f"reliability report -> {report_path}")
    say(
        f"done: nominal FRR {report.nominal_frr:.1%}, corner availability "
        f"{report.corner_availability:.1%}, breaker "
        f"{'recovered' if report.breaker_recovered else 'did not recover'}, "
        f"no_replay={report.no_replay} ({report.wall_seconds:.1f}s)"
    )
    return report
