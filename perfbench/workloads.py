"""Seeded workload generators of the repository benchmark.

Four workloads, each built only from the stable public API
(``EvaluationEngine``, ``enroll_chip``, ``AuthenticationServer``,
``AuthenticationService``, ``BatchingFrontend``):

* ``campaign`` -- the paper's measurement half: enroll a small lot
  (Fig. 6), then Fig.-3 soft-response sweeps of a 10-input XOR PUF at
  T = 100 000 on one engine (``jobs=1``).
* ``auth`` -- 1:1 zero-HD authentication of genuine chips with live
  simulated devices, through the batching front end.
* ``identify`` -- 1:N identification over 1 024 aliased identities;
  transcripts are captured once in setup and replayed
  through the batching front end.
* ``lifecycle`` -- one sequential client on the direct, unbatched
  service path, mixing authentications, identifications and database
  writes (register, retighten, revoke).

Every workload exposes ``setup(seed)``, ``warm(state)``,
``run(state, seconds, tracer=None)`` and ``close(state)``.  The serving
workloads use one fixed simulated lot (the hardware under test) so that
the spread across seeds measures the serving code, not lot-to-lot
physics; the seed drives everything a client does -- the service's
selection streams, which identity each request claims, the operation
mix and the codebook's identification blocks.

Each ``run`` returns an :class:`Outcome`; a failure is a wrong
decision, a refusal, an exception or a failed correctness check.
"""

from __future__ import annotations

import collections
import dataclasses
import gc
import hashlib
import statistics
import time
from typing import Dict, List

import numpy as np

from repro.core import enrollment
from repro.core.enrollment import PAPER_ENROLL_CHALLENGES
from repro.core.server import AuthenticationServer
from repro.crp.challenges import random_challenges
from repro.engine import EvaluationEngine
from repro.service import OverloadError
from repro.service.events import AuthOutcome
from repro.service.frontend import BatchingFrontend, FrontendConfig
from repro.service.service import AuthenticationService, ServiceConfig
from repro.silicon.chip import fabricate_lot
from repro.silicon.xorpuf import XorArbiterPuf
from repro.utils.rng import derive_generator

__all__ = ["WORKLOADS", "Outcome", "VirtualClock"]

N_STAGES = 32
#: Counter depth of every soft response (the paper's T).
N_TRIALS = 100_000

#: Enrollment of every lot: the paper's 5 000 training CRPs per PUF
#: (Fig. 6).
ENROLL_TRAIN = PAPER_ENROLL_CHALLENGES

#: The serving lot: XOR-4 chips (the serving simulators' geometry).
#: Its betas are validated on 50 000 challenges: at ``enroll_chip``'s
#: 20 000, chip 2 of the lot falsely rejected 3 of 22 500 genuine zero-HD
#: sessions (0 of 20 000 at 50 000), and the serving workloads count a
#: false reject as a failed operation.
SERVE_VALIDATION = 50_000
SERVE_XORS = 4
SERVE_LOT = 4
SERVE_LOT_SEED = 2017


#: Front-end policy of the two front-end workloads: the default batch
#: bound, and a queue bound the paced load does not reach even through a
#: host stall of seconds, so a shed request is a failure of the program,
#: not of the load.
FRONTEND_CONFIG = FrontendConfig(max_pending=65536)


#: Length of the windows whose median rate is a run's throughput.
RATE_WINDOW_S = 0.5


class _WindowedRate:
    """Completions per second, as the median over ``RATE_WINDOW_S``
    windows: one stall moves the figure by one window at most.  A run
    shorter than one window gets its overall rate."""

    def __init__(self) -> None:
        self.start = self._window_start = time.perf_counter()
        self._total = self._count = 0
        self._rates: List[float] = []

    def add(self, completed: float) -> None:
        now = time.perf_counter()
        self._total += completed
        self._count += completed
        if now - self._window_start >= RATE_WINDOW_S:
            self._rates.append(self._count / (now - self._window_start))
            self._window_start, self._count = now, 0

    def median(self) -> float:
        if self._rates:
            return statistics.median(self._rates)
        return self._total / (time.perf_counter() - self.start)


class VirtualClock:
    """Service clock the generator advances by hand (one tick per request).

    Breaker cooldowns, throttle windows and deadlines then play out the
    same way on every host.
    """

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@dataclasses.dataclass
class Outcome:
    """What one timed run did.

    ``ops_per_s`` comes from the phase that gives the throughput;
    ``latencies_ms`` and ``late_ms`` come from the phase that gives
    latency (the paced phase for the front-end workloads).  ``checks``
    maps each correctness check to its verdict.
    """

    ops_per_s: float
    attempted: int
    failed: int
    latencies_ms: List[float]
    late_ms: List[float] = dataclasses.field(default_factory=list)
    checks: Dict[str, bool] = dataclasses.field(default_factory=dict)


#: Service knobs under which genuine traffic is never refused.  The
#: defaults (30 requests per 60 s per identity, lockout after 5 rejects)
#: would throttle a benchmark's load; the pool is sized so no identity
#: can exhaust it within a run.  Everything else, the re-tightening betas
#: included, is the program's default.
SERVICE_CONFIG = ServiceConfig(
    max_requests_per_window=0,
    lockout_threshold=0,
    pool_capacity=10**9,
)


def _serving_lot():
    """The fixed enrolled lot every serving workload builds on."""
    chips = fabricate_lot(SERVE_LOT, SERVE_XORS, N_STAGES, seed=SERVE_LOT_SEED)
    records = [
        enrollment.enroll_chip(
            chip,
            n_enroll_challenges=ENROLL_TRAIN,
            n_validation_challenges=SERVE_VALIDATION,
            seed=SERVE_LOT_SEED + 1 + index,
        )
        for index, chip in enumerate(chips)
    ]
    return chips, records


def _alias(record, chip_id: str):
    """The record under another identity (a frozen value; shares the models)."""
    return dataclasses.replace(record, chip_id=chip_id)


def _aliased_server(records, n_identities: int) -> AuthenticationServer:
    """*n_identities* identities ``id-00000...``; identity i is base chip i % lot."""
    server = AuthenticationServer()
    for index in range(n_identities):
        server.register(_alias(records[index % len(records)], f"id-{index:05d}"))
    return server


def _budget_monotone(audit) -> bool:
    """Every identity's remaining budget never grows between events."""
    last: Dict[str, int] = {}
    for event in audit:
        if event.budget_remaining is None or event.chip_id is None:
            continue
        previous = last.get(event.chip_id)
        if previous is not None and event.budget_remaining > previous:
            return False
        last[event.chip_id] = event.budget_remaining
    return True


def _revoked_never_served(audit) -> bool:
    """No identity is approved or identified after its revocation."""
    revoked = set()
    for event in audit:
        if event.outcome is AuthOutcome.REVOCATION_COMMITTED:
            revoked.add(event.chip_id)
        elif event.chip_id in revoked and event.outcome in (
            AuthOutcome.APPROVED, AuthOutcome.IDENTIFIED
        ):
            return False
    return True


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------
class Campaign:
    """Enroll a two-chip lot, and sweep a 10-XOR PUF's constituents.

    One pass = the Fig.-6 enrollment of one lot chip (the chips take
    turns) plus one Fig.-3 sweep of ``SWEEP_CHALLENGES`` challenges over
    all ten constituents.  An operation is one soft-response CRP
    measured at T trials, in the enrollment campaigns and in the sweep
    alike.
    """

    LOT = 2
    LOT_XORS = 4
    #: ``enroll_chip``'s default validation set.
    VALIDATION = 20_000
    XOR_WIDTH = 10
    SWEEP_CHALLENGES = 8_192
    #: Five standard deviations of the figures over 20 PUF instances at
    #: this sweep size (0.011 at n = 10, 0.0096 on the decay base; the
    #: instance spread dominates the sweep's binomial error) bound the
    #: checks.
    PAPER_F10 = 0.8**10
    F10_TOLERANCE = 0.056
    BASE_TOLERANCE = 0.048

    def setup(self, seed: int):
        chips = fabricate_lot(
            self.LOT, self.LOT_XORS, N_STAGES,
            seed=int(derive_generator(seed, "campaign", "lot").integers(2**31)),
        )
        xor_puf = XorArbiterPuf.create(
            self.XOR_WIDTH, N_STAGES,
            seed=int(derive_generator(seed, "campaign", "xor").integers(2**31)),
        )
        challenges = random_challenges(
            self.SWEEP_CHALLENGES, N_STAGES,
            seed=derive_generator(seed, "campaign", "challenges"),
        )
        return {
            "seed": seed,
            "chips": chips,
            "xor_puf": xor_puf,
            "challenges": challenges,
            "engine": EvaluationEngine(jobs=1),
            "crps_per_pass": (
                self.LOT_XORS * (ENROLL_TRAIN + self.VALIDATION)
                + self.XOR_WIDTH * self.SWEEP_CHALLENGES
            ),
            "passes": 0,
        }

    def one_pass(self, state) -> tuple:
        """``(sweep digest, stable fraction by n)`` of one pass.

        The enrollments draw measurement noise from each chip's own
        stream, so their records differ from pass to pass; the sweep is
        seeded and must repeat bit for bit.
        """
        index = state["passes"] % self.LOT
        state["passes"] += 1
        enrollment.enroll_chip(
            state["chips"][index],
            n_enroll_challenges=ENROLL_TRAIN,
            n_validation_challenges=self.VALIDATION,
            n_trials=N_TRIALS,
            blow_fuses=False,
            seed=derive_generator(state["seed"], "campaign", "enroll", index),
        )
        counts = state["engine"].soft_counts(
            state["xor_puf"].pufs, state["challenges"], N_TRIALS,
            seed=derive_generator(state["seed"], "campaign", "sweep"),
        )[0]
        stable = (counts == 0) | (counts == N_TRIALS)
        digest = hashlib.blake2b(counts.tobytes(), digest_size=16).hexdigest()
        by_n = np.logical_and.accumulate(stable, axis=0).mean(axis=1)
        return digest, by_n

    def warm(self, state) -> None:
        for _ in range(self.LOT):
            self.one_pass(state)

    def run(self, state, seconds: float, tracer=None) -> Outcome:
        latencies, digests, fractions = [], [], None
        rate = _WindowedRate()
        while time.perf_counter() - rate.start < seconds:
            t0 = time.perf_counter()
            digest, fractions = self.one_pass(state)
            latencies.append((time.perf_counter() - t0) * 1e3)
            digests.append(digest)
            rate.add(state["crps_per_pass"])
        n_values = np.arange(1, len(fractions) + 1)
        base = float(np.exp(np.polyfit(n_values, np.log(fractions), 1)[0]))
        checks = {
            "same_digest_every_pass": len(set(digests)) == 1,
            "stable_fraction_n10": abs(fractions[-1] - self.PAPER_F10)
            <= self.F10_TOLERANCE,
            "decay_base_0.8": abs(base - 0.8) <= self.BASE_TOLERANCE,
        }
        return Outcome(
            ops_per_s=rate.median(),
            attempted=len(latencies),
            failed=0,
            latencies_ms=latencies,
            checks=checks,
        )

    def close(self, state) -> None:
        pass


# ----------------------------------------------------------------------
# Front-end workloads: a saturated phase, then a paced open loop
# ----------------------------------------------------------------------
class _FrontendWorkload:
    """Shared load generator of ``auth`` and ``identify``.

    An open-loop paced phase comes first: bursts of ``BURST`` requests
    on a fixed schedule at a constant ``RATE`` requests per second
    (a quarter of the saturated rate on a 2-core host), each request timed
    from its scheduled send; it gives ``p50_ms``/``p99_ms``.  A
    closed-loop saturated phase (``SATURATED_SHARE`` of the run) follows:
    ``WINDOW`` requests kept in flight; it gives ``ops_per_s``.  Load
    comes from the calling thread alone; the front end's drain thread is
    the only other thread.  Each subclass sets ``WINDOW``, ``RATE`` and
    ``BURST``.

    At half the saturated rate, a host running at half speed (seen on a
    shared 2-core host for minutes at a time) saturates the queue: auth
    latency rose from 2 ms to hundreds of ms, and one identify run shed
    11 000 requests.  At a quarter, such a host still leaves the queue
    stable, and latency scales with the host like throughput does.
    """

    WINDOW: int
    RATE: float
    BURST: int
    #: Half the run each: the two phases' metrics spread alike from run
    #: to run (at 0.3, ``ops_per_s`` spread twice as far as ``p50_ms``).
    SATURATED_SHARE = 0.5
    WARM_REQUESTS = 64

    def submit(self, state, index: int):
        """Submit request *index*; returns its future."""
        raise NotImplementedError

    def correct(self, state, index: int, result) -> bool:
        raise NotImplementedError

    def _submit(self, state):
        """``(index, future)`` of the next request; the future is ``None``
        when the front end shed it."""
        index = state["next"]
        state["next"] += 1
        try:
            return index, self.submit(state, index)
        except OverloadError:
            return index, None

    def _account(self, state, index: int, future) -> bool:
        if future is None:
            return False
        try:
            return self.correct(state, index, future.result())
        except Exception:  # a refusal or an error is a failed operation
            return False

    def warm(self, state) -> None:
        futures = [self._submit(state) for _ in range(self.WARM_REQUESTS)]
        for index, future in futures:
            if not self._account(state, index, future):
                state["warm_failures"] += 1

    def run(self, state, seconds: float, tracer=None) -> Outcome:
        failed = 0
        attempted = 0

        # Paced: a fixed schedule, timed from each request's scheduled send.
        # It runs first, from a collected heap, so the garbage collections
        # it meets depend on its own requests, not on how many the
        # saturated phase got through.
        gc.collect()
        if tracer is not None:
            tracer.mark("paced")
        paced_seconds = seconds * (1 - self.SATURATED_SHARE)
        n_bursts = max(1, int(paced_seconds * self.RATE / self.BURST))
        interval = self.BURST / self.RATE
        done = [0.0] * (n_bursts * self.BURST)
        scheduled, late, pending = [], [], collections.deque()
        origin = time.perf_counter() + interval
        for burst in range(n_bursts):
            due = origin + burst * interval
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            late.append(max(0.0, time.perf_counter() - due) * 1e3)
            for _ in range(self.BURST):
                index, future = self._submit(state)
                attempted += 1
                if future is None:
                    failed += 1
                    continue
                slot = len(scheduled)
                future.add_done_callback(
                    lambda _, slot=slot: done.__setitem__(slot, time.perf_counter())
                )
                scheduled.append(due)
                pending.append((index, future))
            while pending and pending[0][1].done():
                failed += not self._account(state, *pending.popleft())
        for index, future in pending:
            failed += not self._account(state, index, future)

        # Saturated: a fixed window of WINDOW requests kept in flight.  The
        # generator waits for the oldest, takes every request completed
        # with it, and refills the window in one go; refilling one at a
        # time would hand the drain thread batches of one.
        gc.collect()
        if tracer is not None:
            tracer.mark("saturated")
        rate = _WindowedRate()
        deadline = rate.start + seconds * self.SATURATED_SHARE
        in_flight = collections.deque()
        while time.perf_counter() < deadline:
            while len(in_flight) < self.WINDOW:
                in_flight.append(self._submit(state))
                attempted += 1
            completed = 0
            while in_flight and (
                completed == 0 or in_flight[0][1] is None or in_flight[0][1].done()
            ):
                failed += not self._account(state, *in_flight.popleft())
                completed += 1
            rate.add(completed)
        for index, future in in_flight:
            failed += not self._account(state, index, future)

        if tracer is not None:
            tracer.mark("end")
        latencies = [(end - due) * 1e3 for end, due in zip(done, scheduled)]

        checks = self.final_checks(state)
        checks["no_warmup_failures"] = state["warm_failures"] == 0
        checks["nothing_shed"] = state["frontend"].stats["shed"] == 0
        return Outcome(
            ops_per_s=rate.median(),
            attempted=attempted,
            failed=failed,
            latencies_ms=latencies,
            late_ms=late,
            checks=checks,
        )

    def final_checks(self, state) -> Dict[str, bool]:
        return {}

    def close(self, state) -> None:
        state["frontend"].close()


class Auth(_FrontendWorkload):
    """Genuine chips claiming aliased identities at the nominal condition.

    Paced requests arrive one at a time.  Impostor claims are left out:
    rejections push the victim identity up the drift ladder to the
    re-tightened selector, which ``lifecycle`` measures instead.
    """

    N_IDENTITIES = 256
    WINDOW = 16
    RATE = 120.0
    BURST = 1
    TICK = 0.01

    def setup(self, seed: int):
        chips, records = _serving_lot()
        server = _aliased_server(records, self.N_IDENTITIES)
        clock = VirtualClock()
        service = AuthenticationService(
            server, SERVICE_CONFIG, seed=seed, clock=clock
        )
        return {
            "chips": chips,
            "service": service,
            "clock": clock,
            "frontend": BatchingFrontend(service, FRONTEND_CONFIG),
            "claims": derive_generator(seed, "auth", "claims"),
            "claimed": {},
            "next": 0,
            "warm_failures": 0,
        }

    def submit(self, state, index: int):
        identity = int(state["claims"].integers(self.N_IDENTITIES))
        state["claimed"][index] = identity
        state["clock"].advance(self.TICK)
        return state["frontend"].submit_authenticate(
            state["chips"][identity % len(state["chips"])],
            claimed_id=f"id-{identity:05d}",
        )

    def correct(self, state, index: int, result) -> bool:
        identity = state["claimed"].pop(index)
        return (
            result.outcome is AuthOutcome.APPROVED
            and result.chip_id == f"id-{identity:05d}"
        )

    def final_checks(self, state) -> Dict[str, bool]:
        audit = state["service"].audit
        return {
            "no_replayed_digest": not audit.replayed_digests(),
            "budget_ledgers_monotone": _budget_monotone(audit),
        }


class _Transcript:
    """A captured device answer to the codebook's stacked query, replayed."""

    def __init__(self, challenges: np.ndarray, responses: np.ndarray) -> None:
        self._shape = challenges.shape
        self._responses = responses

    def xor_response(self, challenges, condition=None) -> np.ndarray:
        if challenges.shape != self._shape:
            raise ValueError(
                f"transcript answers challenges shaped {self._shape}, "
                f"server sent {challenges.shape}"
            )
        return self._responses


class Identify(_FrontendWorkload):
    """Replayed transcripts of the lot and one stranger, 1:N over the codebook.

    Paced requests arrive in bursts of 32 (a reader forwarding what it
    captured), so each request's latency includes the coalesced batch
    it was served in: one identification alone takes well under a
    millisecond, too short to time steadily.
    """

    N_IDENTITIES = 1024
    WINDOW = 32
    RATE = 3200.0
    BURST = 32
    TICK = 0.001

    def setup(self, seed: int):
        chips, records = _serving_lot()
        (stranger,) = fabricate_lot(
            1, SERVE_XORS, N_STAGES, seed=SERVE_LOT_SEED + 1
        )
        server = _aliased_server(records, self.N_IDENTITIES)
        book = server.codebook(64, seed=seed)
        transcripts = [
            _Transcript(
                book.stacked_challenges,
                np.asarray(device.xor_response(book.stacked_challenges)),
            )
            for device in [*chips, stranger]
        ]
        expected = [
            result.chip_id
            for result in server.identify_many(transcripts, n_challenges=64)
        ]
        clock = VirtualClock()
        service = AuthenticationService(
            server, SERVICE_CONFIG, seed=seed, clock=clock
        )
        return {
            "transcripts": transcripts,
            "expected": expected,
            "service": service,
            "clock": clock,
            "frontend": BatchingFrontend(service, FRONTEND_CONFIG),
            "picks": derive_generator(seed, "identify", "picks"),
            "picked": {},
            "next": 0,
            "warm_failures": 0,
        }

    def submit(self, state, index: int):
        pick = int(state["picks"].integers(len(state["transcripts"])))
        state["picked"][index] = pick
        state["clock"].advance(self.TICK)
        return state["frontend"].submit_identify(state["transcripts"][pick])

    def correct(self, state, index: int, result) -> bool:
        return result.chip_id == state["expected"][state["picked"].pop(index)]

    def final_checks(self, state) -> Dict[str, bool]:
        expected = state["expected"]
        return {
            "lot_identified": all(e is not None for e in expected[:-1]),
            "stranger_unidentified": expected[-1] is None,
        }


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
class Lifecycle:
    """One closed-loop client on the direct service path, with writes.

    Operations come in blocks of 50 -- 33 authenticate an active
    identity never re-tightened, 1 authenticates a revoked identity (it
    must be refused as REVOKED), 1 authenticates a re-tightened
    identity, 4 identify a live device over the whole codebook, 5
    register a new alias, 5 revoke an active identity, 1 commits a
    re-tightening -- each block shuffled by the seed, so every run does
    the same mix in another order.  The identify after a write pays the
    incremental codebook sync.

    The mix is stationary: every block adds five codebook rows and
    drops five, so identification scores the same number of rows all
    run long, and the share of cheap refusals among authentications
    stays one in 35.  Were refused claims drawn in proportion to the
    growing number of revoked identities, the median operation would
    slide towards those refusals as a run went on, and the further the
    faster the host.

    Re-tightening uses the program's default betas, under which one
    selection costs from about 10 ms to a few hundred ms depending on
    the base chip.  So that a run's cost does not hang on which chips
    the seed picks, re-tightenings and authentications of re-tightened
    identities take the base chips in turn: each round of ``SERVE_LOT``
    consecutive blocks gives every base chip one of each.  Set-up
    commits one re-tightening per base chip, so every such
    authentication has an identity to claim, and revokes one block's
    share of identities, so every refused claim has one.
    """

    N_IDENTITIES = 512
    BLOCK = (
        ("authenticate",) * 33 + ("refused",) + ("tightened",)
        + ("identify",) * 4 + ("register",) * 5 + ("revoke",) * 5
        + ("retighten",)
    )
    #: Operations in one round: ``SERVE_LOT`` blocks, one turn per base chip.
    ROUND = len(BLOCK) * SERVE_LOT
    TICK = 0.01

    def setup(self, seed: int):
        chips, records = _serving_lot()
        server = _aliased_server(records, self.N_IDENTITIES)
        clock = VirtualClock()
        service = AuthenticationService(
            server, SERVICE_CONFIG, seed=seed, clock=clock
        )
        base = {f"id-{i:05d}": i % len(chips) for i in range(self.N_IDENTITIES)}
        state = {
            "chips": chips,
            "records": records,
            "server": server,
            "service": service,
            "clock": clock,
            "rng": derive_generator(seed, "lifecycle", "ops"),
            "plan": [],
            "base": base,
            "active": set(base),
            "revoked": set(),
            "tightened": [[] for _ in chips],
            "turns": collections.Counter(),
            "registered": 0,
            "warm_failures": 0,
        }
        for _ in chips:
            self._retighten(state)
        for _ in range(self.BLOCK.count("revoke")):
            self._revoke(state)
        server.codebook(64, seed=seed)
        return state

    def _pick(self, state, pool) -> str:
        pool = sorted(pool)
        return pool[int(state["rng"].integers(len(pool)))]

    def _turn(self, state, op: str) -> int:
        """The base chip whose turn it is for *op*."""
        turn = state["turns"][op] % len(state["chips"])
        state["turns"][op] += 1
        return turn

    def _retighten(self, state) -> None:
        chip_index = self._turn(state, "retighten")
        chip_id = self._pick(state, (
            chip_id for chip_id in state["active"]
            if state["base"][chip_id] == chip_index
        ))
        state["service"].apply_retightening(chip_id)
        state["active"].discard(chip_id)
        state["tightened"][chip_index].append(chip_id)

    def _revoke(self, state) -> None:
        chip_id = self._pick(state, state["active"])
        state["service"].revoke(chip_id, reason="benchmark churn")
        state["active"].discard(chip_id)
        state["revoked"].add(chip_id)

    def step(self, state) -> bool:
        """Draw and run one operation; returns whether it was correct.

        ``active`` holds the identities neither re-tightened nor
        revoked, ``revoked`` the revoked ones and ``tightened`` the
        re-tightened ones by base chip.
        """
        rng = state["rng"]
        if not state["plan"]:
            state["plan"] = [self.BLOCK[i] for i in rng.permutation(len(self.BLOCK))]
        op = state["plan"].pop()
        service, server = state["service"], state["server"]
        state["clock"].advance(self.TICK)
        if op in ("authenticate", "refused", "tightened"):
            if op == "authenticate":
                claimed = self._pick(state, state["active"])
            elif op == "refused":
                claimed = self._pick(state, state["revoked"])
            else:
                claimed = self._pick(
                    state, state["tightened"][self._turn(state, op)]
                )
            device = state["chips"][state["base"][claimed]]
            result = service.authenticate(device, claimed_id=claimed)
            expected = (
                AuthOutcome.REVOKED if op == "refused" else AuthOutcome.APPROVED
            )
            return result.outcome is expected
        if op == "identify":
            chip_index = int(rng.integers(len(state["chips"])))
            (result,) = service.identify_many([state["chips"][chip_index]])
            return result.chip_id is not None and (
                state["base"][result.chip_id] == chip_index
                and result.chip_id not in state["revoked"]
            )
        if op == "register":
            chip_index = int(rng.integers(len(state["chips"])))
            chip_id = f"new-{state['registered']:05d}"
            state["registered"] += 1
            server.register(_alias(state["records"][chip_index], chip_id))
            state["base"][chip_id] = chip_index
            state["active"].add(chip_id)
            return True
        if op == "retighten":
            self._retighten(state)
            return True
        self._revoke(state)
        return True

    def _checked_step(self, state) -> bool:
        try:
            return self.step(state)
        except Exception:
            return False

    def warm(self, state) -> None:
        for _ in self.BLOCK:
            state["warm_failures"] += not self._checked_step(state)

    def run(self, state, seconds: float, tracer=None) -> Outcome:
        """Operations until *seconds* have passed.

        ``ops_per_s`` is the median over the run's complete rounds of
        each round's rate (a run shorter than a round gets its overall
        rate): every round does the same work, so a host stall moves one
        round and not the figure.
        """
        latencies, ends, failed = [], [], 0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            failed += not self._checked_step(state)
            ends.append(time.perf_counter())
            latencies.append((ends[-1] - t0) * 1e3)
        elapsed = time.perf_counter() - start
        marks = [start, *ends[self.ROUND - 1::self.ROUND]]
        rates = [
            self.ROUND / (end - begin) for begin, end in zip(marks, marks[1:])
        ]
        service = state["service"]
        checks = {
            "no_warmup_failures": state["warm_failures"] == 0,
            "no_replayed_digest": not service.audit.replayed_digests(),
            "revoked_never_served": _revoked_never_served(service.audit),
            "budget_ledgers_monotone": _budget_monotone(service.audit),
        }
        return Outcome(
            ops_per_s=(
                statistics.median(rates) if rates
                else len(latencies) / elapsed
            ),
            attempted=len(latencies),
            failed=failed,
            latencies_ms=latencies,
            checks=checks,
        )

    def close(self, state) -> None:
        pass


WORKLOADS: Dict[str, object] = {
    "campaign": Campaign(),
    "auth": Auth(),
    "identify": Identify(),
    "lifecycle": Lifecycle(),
}
