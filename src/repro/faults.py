"""Deterministic fault injection for the fault-tolerant runtime.

A trillion-measurement campaign *will* see workers die, disks hiccup and
devices time out; the runtime in :mod:`repro.engine.runtime` exists to
survive that.  This module provides the other half of the story: a way
to *cause* those failures on demand, deterministically, so the recovery
paths can be exercised in fast tests instead of waiting for real
hardware to misbehave.

Design constraints:

* **No-op by default.**  Every hook in the library takes
  ``faults=None``; production paths pay a single ``is None`` check.
* **Deterministic.**  A :class:`FaultPlan` fires as a pure function of
  ``(site, index, attempt)``, so the same plan produces the same
  failure schedule on every run, at any worker count -- the same
  philosophy as the engine's RNG-block determinism.
* **Picklable.**  Plans travel into
  :class:`concurrent.futures.ProcessPoolExecutor` workers unchanged.

Injection sites are string constants (:class:`Site`); the call sites
are the evaluation worker, the checkpoint store, the dataset
serialisers, the chip tester, the authentication server and the
resilient serving front end (:mod:`repro.service`).

Example -- crash the pool worker handling chunk 2, once::

    plan = FaultPlan([FaultSpec(Site.ENGINE_CHUNK, kind="crash", at=2)])
    engine = EvaluationEngine(jobs=4, faults=plan)

The first attempt at chunk 2 raises :class:`InjectedWorkerCrash`; the
runtime retries and the second attempt succeeds.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Site",
    "FaultSpec",
    "FaultPlan",
    "FlakyResponder",
    "InjectedFault",
    "InjectedWorkerCrash",
    "InjectedCampaignAbort",
    "InjectedIOError",
    "FAULT_KINDS",
]


class InjectedFault(RuntimeError):
    """Base class of every exception raised by a fault plan."""


class InjectedWorkerCrash(InjectedFault):
    """A worker "crashed" mid-chunk (transient; the runtime retries it)."""


class InjectedCampaignAbort(InjectedFault):
    """A hard kill of the whole campaign (SIGKILL stand-in).

    The runtime deliberately does **not** retry this one -- it
    propagates, leaving the checkpoint directory behind exactly as a
    real ``kill -9`` would.  Tests use it to exercise resume.
    """


class InjectedIOError(OSError):
    """A transient I/O error (full disk, NFS hiccup) at a save/load site."""


class Site:
    """Injection-site names understood by the library's fault hooks."""

    #: Worker entry for one evaluation chunk (index = chunk index).
    ENGINE_CHUNK = "engine.chunk"
    #: Chunk payload about to be returned by a worker (corruptible).
    ENGINE_RESULT = "engine.result"
    #: Serialised chunk bytes about to be checkpointed (corruptible).
    CHUNK_FILE = "engine.chunk-file"
    #: Dataset serialisation (``CrpDataset``/``SoftResponseDataset.save``).
    DATASET_SAVE = "dataset.save"
    #: Dataset deserialisation.
    DATASET_LOAD = "dataset.load"
    #: Per-PUF soft-response readout on the chip tester (index = PUF).
    TESTER_READOUT = "tester.readout"
    #: Device response read during an authentication session.
    DEVICE_READ = "device.read"
    #: Admission of one request into the resilient authentication
    #: service (index = request sequence number).
    SERVICE_REQUEST = "service.request"
    #: One device-read attempt inside a supervised service session
    #: (index = the service's global read counter).
    SERVICE_READ = "service.read"
    #: One identification-codebook sync pass (index = the codebook's
    #: sync counter); crashes here model a rebuild dying mid-flight.
    CODEBOOK_SYNC = "codebook.sync"
    #: Codebook persistence (save *and* load; index = the codebook's
    #: persist counter).  ``corrupt`` specs damage the serialised bytes
    #: before they hit disk, ``io``/``abort`` specs kill the save before
    #: the atomic rename -- the previous generation must stay loadable.
    CODEBOOK_PERSIST = "codebook.persist"
    #: One step of the fleet-lifecycle driver (index = tick number);
    #: used by the chaos harness to kill maintenance work mid-tick.
    SERVICE_LIFECYCLE = "service.lifecycle"


#: Recognised values of :attr:`FaultSpec.kind`.
FAULT_KINDS = ("crash", "abort", "hang", "corrupt", "io", "device")


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault: *what* fires, *where* and *when*.

    Attributes
    ----------
    site:
        Injection site (one of the :class:`Site` constants).
    kind:
        ``"crash"``  -- raise :class:`InjectedWorkerCrash` (retriable);
        ``"abort"``  -- raise :class:`InjectedCampaignAbort` (fatal);
        ``"hang"``   -- sleep for :attr:`seconds` (trips timeouts);
        ``"corrupt"``-- damage the payload passed to
        :meth:`FaultPlan.corrupt` / :meth:`FaultPlan.corrupt_bytes`;
        ``"io"``     -- raise :class:`InjectedIOError`;
        ``"device"`` -- raise
        :class:`repro.core.authentication.DeviceReadError`.
    at:
        Index (chunk index, PUF index, call index -- whatever the site
        counts by) the fault is pinned to; ``None`` matches every index.
    fail_attempts:
        Number of *attempts* at the matching index that fail before the
        site succeeds.  ``1`` models a transient glitch healed by one
        retry; a large value models a persistent failure.
    seconds:
        Sleep duration for ``kind="hang"``.
    pool_only:
        Restrict the fault to process-pool workers, so in-process
        serial fallback succeeds (models a poisoned worker environment).
    """

    site: str
    kind: str = "crash"
    at: Optional[int] = None
    fail_attempts: int = 1
    seconds: float = 0.0
    pool_only: bool = False

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if self.fail_attempts < 1:
            raise ValueError(
                f"fail_attempts must be >= 1, got {self.fail_attempts}"
            )

    def fires(self, site: str, index: int, attempt: int, in_worker: bool) -> bool:
        """Whether this spec fires for one ``(site, index, attempt)`` visit."""
        if site != self.site:
            return False
        if self.at is not None and index != self.at:
            return False
        if self.pool_only and not in_worker:
            return False
        return attempt < self.fail_attempts


class FaultPlan:
    """A deterministic schedule of injected faults.

    The plan is consulted through three hooks:

    * :meth:`check` -- raise/sleep at a site (crash, abort, hang, io,
      device faults);
    * :meth:`corrupt` -- damage a NumPy payload in flight;
    * :meth:`corrupt_bytes` -- damage serialised bytes before they hit
      disk.

    Call sites that know their attempt number (the engine runtime) pass
    it explicitly, which keeps firing decisions deterministic across
    process boundaries.  Call sites without a natural attempt counter
    (dataset save/load, device reads) omit it and the plan counts visits
    per ``(site, index)`` internally.
    """

    def __init__(self, specs: Sequence[FaultSpec] = ()) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise TypeError(f"expected FaultSpec, got {type(spec).__name__}")
        self._visits: Dict[Tuple[str, int], int] = {}

    def __repr__(self) -> str:
        return f"FaultPlan({list(self.specs)!r})"

    def __reduce__(self):
        # Ship only the immutable schedule to worker processes; visit
        # counters are per-process state.
        return (FaultPlan, (self.specs,))

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def check(
        self,
        site: str,
        index: int = 0,
        *,
        attempt: Optional[int] = None,
        in_worker: bool = False,
    ) -> None:
        """Fire any matching raise/sleep fault for this visit.

        Raises the fault's exception (or sleeps, for hangs).  ``corrupt``
        specs never fire here -- they only act through the corruption
        hooks.
        """
        attempt = self._attempt(site, index, attempt)
        for spec in self.specs:
            if spec.kind == "corrupt" or not spec.fires(site, index, attempt, in_worker):
                continue
            if spec.kind == "hang":
                time.sleep(spec.seconds)
            elif spec.kind == "abort":
                raise InjectedCampaignAbort(
                    f"injected campaign abort at {site}[{index}] attempt {attempt}"
                )
            elif spec.kind == "io":
                raise InjectedIOError(
                    f"injected transient I/O error at {site}[{index}] "
                    f"attempt {attempt}"
                )
            elif spec.kind == "device":
                from repro.core.authentication import DeviceReadError

                raise DeviceReadError(
                    f"injected device read failure at {site}[{index}] "
                    f"attempt {attempt}"
                )
            else:  # crash
                raise InjectedWorkerCrash(
                    f"injected worker crash at {site}[{index}] attempt {attempt}"
                )

    def corrupt(
        self,
        site: str,
        payload: np.ndarray,
        index: int = 0,
        *,
        attempt: Optional[int] = None,
        in_worker: bool = False,
    ) -> np.ndarray:
        """Return *payload*, damaged if a ``corrupt`` spec fires.

        Numeric payloads get an out-of-range spike written into their
        first element -- guaranteed to trip the runtime's range
        validation whatever the legitimate values are.
        """
        attempt = self._attempt(site, index, attempt)
        for spec in self.specs:
            if spec.kind == "corrupt" and spec.fires(site, index, attempt, in_worker):
                damaged = np.array(payload, copy=True)
                flat = damaged.reshape(-1)
                if flat.size:
                    if np.issubdtype(damaged.dtype, np.integer):
                        flat[0] = np.iinfo(damaged.dtype).max
                    else:
                        flat[0] = np.finfo(damaged.dtype).max
                return damaged
        return payload

    def corrupt_bytes(
        self,
        site: str,
        data: bytes,
        index: int = 0,
        *,
        attempt: Optional[int] = None,
    ) -> bytes:
        """Return *data* with a flipped byte if a ``corrupt`` spec fires."""
        attempt = self._attempt(site, index, attempt)
        for spec in self.specs:
            if spec.kind == "corrupt" and spec.fires(site, index, attempt, False):
                if not data:
                    return data
                mid = len(data) // 2
                return data[:mid] + bytes([data[mid] ^ 0xFF]) + data[mid + 1 :]
        return data

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _attempt(self, site: str, index: int, attempt: Optional[int]) -> int:
        if attempt is not None:
            return int(attempt)
        key = (site, int(index))
        visit = self._visits.get(key, 0)
        self._visits[key] = visit + 1
        return visit


class FlakyResponder:
    """Responder wrapper whose device reads fail per a fault plan.

    Wraps any :class:`repro.core.authentication.Responder`; each
    :meth:`xor_response` call first consults *plan* at
    :attr:`Site.DEVICE_READ` (index = call number), so a spec like
    ``FaultSpec(Site.DEVICE_READ, kind="device", at=None,
    fail_attempts=2)`` makes the first two sessions fail and later ones
    succeed -- exactly the transient-device scenario the server's retry
    policy exists for.
    """

    def __init__(self, responder, plan: FaultPlan) -> None:
        self._responder = responder
        self._plan = plan
        self._reads = 0
        self.chip_id = getattr(responder, "chip_id", None)

    @property
    def reads(self) -> int:
        """Total device read attempts, including failed ones."""
        return self._reads

    def xor_response(self, challenges, condition=None):
        self._reads += 1
        # The plan counts visits internally, so ``fail_attempts=N``
        # reads as "the first N device reads fail".
        self._plan.check(Site.DEVICE_READ)
        if condition is None:
            return self._responder.xor_response(challenges)
        return self._responder.xor_response(challenges, condition)
