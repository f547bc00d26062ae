"""The chunked, multi-core CRP evaluation engine.

The paper's measurement campaigns evaluate the *same* challenges on many
arbiter PUFs (all n constituents of an XOR PUF, every chip of a lot) at
many operating conditions.  The legacy per-PUF loop recomputes the
parity feature matrix ``phi(c)`` for every ``(PUF, condition)`` pair,
even though ``phi`` depends only on the challenge.
:class:`EvaluationEngine` fixes both axes of waste:

* **Shared features** -- ``phi`` is computed once per challenge chunk
  and reused by every PUF and every condition via the
  ``*_from_features`` fast paths on
  :class:`~repro.silicon.arbiter.ArbiterPuf`.
* **Bounded memory** -- challenges stream through the engine in chunks
  of :attr:`EvaluationEngine.chunk_size` rows, so a 1 M-challenge sweep
  never materialises the full ``(n, k + 1)`` feature matrix (264 MB for
  the paper's 1 M x 32 campaigns).
* **Multi-core fan-out** -- chunks are dispatched to a
  :class:`concurrent.futures.ProcessPoolExecutor` when ``jobs > 1``.

Results are **bit-identical at any worker count and any chunk size**:
measurement randomness is keyed to fixed :data:`~repro.engine.worker.RNG_BLOCK`
challenge blocks (see :mod:`repro.engine.worker`), and chunks are always
cut at block boundaries, so the bits a challenge receives depend only on
its global index -- never on scheduling.
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.crp.dataset import SoftResponseDataset
from repro.engine.runtime import (
    CampaignReport,
    CheckpointStore,
    ChunkValidationError,
    DEFAULT_RETRY,
    RetryPolicy,
    campaign_fingerprint,
    run_chunks,
)
from repro.engine.worker import RNG_BLOCK, evaluate_chunk, noise_free_chunk
from repro.faults import FaultPlan
from repro.silicon.arbiter import ArbiterPuf
from repro.silicon.environment import NOMINAL_CONDITION, OperatingCondition
from repro.silicon.xorpuf import XorArbiterPuf
from repro.utils.rng import SeedLike, derive_seed_sequence
from repro.utils.validation import as_challenge_array, check_positive_int

__all__ = ["EvaluationEngine", "DEFAULT_CHUNK_SIZE", "ENGINE_METHODS"]

#: Default challenge rows per chunk (16 RNG blocks; ~17 MB of features
#: at the paper's k = 32).
DEFAULT_CHUNK_SIZE = 65_536

#: Measurement methods the engine accepts.  ``montecarlo`` (the literal
#: T-repetition loop) is deliberately absent: its cost is O(T) per
#: challenge and its consumers keep the legacy path in
#: :mod:`repro.silicon.counters`.
ENGINE_METHODS = ("binomial", "analytic")

_Bounds = Tuple[int, int]


@dataclasses.dataclass(frozen=True)
class EvaluationEngine:
    """Batched CRP evaluator with shared features and chunked streaming.

    Attributes
    ----------
    jobs:
        Worker processes for chunk fan-out.  ``1`` (default) runs
        inline; ``None`` or any value < 1 means "all cores"
        (``os.cpu_count()``).  Results do not depend on this value.
    chunk_size:
        Challenge rows per chunk.  Rounded down to a multiple of
        :data:`~repro.engine.worker.RNG_BLOCK` (minimum one block) so
        chunk boundaries always coincide with RNG-block boundaries --
        the invariant behind chunk-count-independent results.
    retry:
        Per-chunk timeout / bounded-retry / backoff policy (see
        :class:`~repro.engine.runtime.RetryPolicy`).  Recovery never
        changes results, only whether a campaign survives.
    checkpoint_dir:
        Campaign root directory.  When set, every completed chunk is
        persisted atomically with a checksum and a killed sweep resumes
        bit-identically from the last good chunk -- at any later
        ``jobs``/``chunk_size`` (the campaign is keyed by content, not
        by execution geometry).  ``None`` (default) disables
        checkpointing.
    faults:
        Optional :class:`~repro.faults.FaultPlan` for failure-path
        testing; production runs leave it ``None`` and pay nothing.
    """

    jobs: Optional[int] = 1
    chunk_size: int = DEFAULT_CHUNK_SIZE
    retry: RetryPolicy = DEFAULT_RETRY
    checkpoint_dir: Optional[Union[str, Path]] = None
    faults: Optional[FaultPlan] = None
    #: Failure/recovery trail of the most recent sweep (read-only).
    last_report: Optional[CampaignReport] = dataclasses.field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        jobs = self.jobs
        if jobs is None or int(jobs) < 1:
            jobs = os.cpu_count() or 1
        object.__setattr__(self, "jobs", int(jobs))
        chunk = check_positive_int(self.chunk_size, "chunk_size")
        object.__setattr__(self, "chunk_size", max(1, chunk // RNG_BLOCK) * RNG_BLOCK)
        if not isinstance(self.retry, RetryPolicy):
            raise TypeError(
                f"retry must be a RetryPolicy, got {type(self.retry).__name__}"
            )
        if self.checkpoint_dir is not None:
            object.__setattr__(self, "checkpoint_dir", Path(self.checkpoint_dir))

    # ------------------------------------------------------------------
    # Core counter sweep
    # ------------------------------------------------------------------
    def soft_counts(
        self,
        pufs: Sequence[ArbiterPuf],
        challenges: np.ndarray,
        n_trials: int,
        conditions: Sequence[OperatingCondition] = (NOMINAL_CONDITION,),
        *,
        seed: SeedLike = None,
        method: str = "binomial",
    ) -> np.ndarray:
        """Counter sweep over a ``(condition, PUF, challenge)`` grid.

        Computes ``phi`` once per chunk and reuses it across the whole
        ``conditions x pufs`` grid.

        Returns
        -------
        numpy.ndarray
            ``(len(conditions), len(pufs), len(challenges))`` array:
            int64 counter values for ``method="binomial"``, float64
            exact probabilities for ``method="analytic"``.
        """
        pufs, challenges, conditions = self._check_grid(pufs, challenges, conditions)
        n_trials = check_positive_int(n_trials, "n_trials")
        root = self._root(seed, method)
        dtype = np.float64 if method == "analytic" else np.int64
        out = np.empty((len(conditions), len(pufs), len(challenges)), dtype=dtype)
        for (start, stop), counts in self._evaluated_chunks(
            pufs, challenges, conditions, n_trials, root, method
        ):
            out[:, :, start:stop] = counts
        return out

    def soft_responses(
        self,
        pufs: Sequence[ArbiterPuf],
        challenges: np.ndarray,
        n_trials: int,
        conditions: Sequence[OperatingCondition] = (NOMINAL_CONDITION,),
        *,
        seed: SeedLike = None,
        method: str = "binomial",
    ) -> np.ndarray:
        """Like :meth:`soft_counts` but normalised to [0, 1] fractions."""
        values = self.soft_counts(
            pufs, challenges, n_trials, conditions, seed=seed, method=method
        )
        return values if method == "analytic" else values / n_trials

    # ------------------------------------------------------------------
    # Dataset-producing conveniences
    # ------------------------------------------------------------------
    def measure_grid(
        self,
        pufs: Sequence[ArbiterPuf],
        challenges: np.ndarray,
        n_trials: int,
        conditions: Sequence[OperatingCondition] = (NOMINAL_CONDITION,),
        *,
        seed: SeedLike = None,
        method: str = "binomial",
    ) -> List[List[SoftResponseDataset]]:
        """``[condition][puf]`` grid of soft-response datasets."""
        pufs, challenges, conditions = self._check_grid(pufs, challenges, conditions)
        soft = self.soft_responses(
            pufs, challenges, n_trials, conditions, seed=seed, method=method
        )
        return [
            [
                SoftResponseDataset(challenges, soft[ci, pi], n_trials)
                for pi in range(len(pufs))
            ]
            for ci in range(len(conditions))
        ]

    def measure_soft_responses(
        self,
        puf: ArbiterPuf,
        challenges: np.ndarray,
        n_trials: int,
        condition: OperatingCondition = NOMINAL_CONDITION,
        *,
        seed: SeedLike = None,
        method: str = "binomial",
    ) -> SoftResponseDataset:
        """Chunked single-PUF equivalent of
        :func:`repro.silicon.counters.measure_soft_responses`."""
        grid = self.measure_grid(
            [puf], challenges, n_trials, [condition], seed=seed, method=method
        )
        return grid[0][0]

    def measure_xor_constituents(
        self,
        xor_puf: XorArbiterPuf,
        challenges: np.ndarray,
        n_trials: int,
        condition: OperatingCondition = NOMINAL_CONDITION,
        *,
        seed: SeedLike = None,
        method: str = "binomial",
    ) -> List[SoftResponseDataset]:
        """Per-constituent datasets on a shared challenge matrix."""
        grid = self.measure_grid(
            xor_puf.pufs, challenges, n_trials, [condition], seed=seed, method=method
        )
        return grid[0]

    def measure_lot(
        self,
        chips: Sequence,
        challenges: np.ndarray,
        n_trials: int,
        condition: OperatingCondition = NOMINAL_CONDITION,
        *,
        seed: SeedLike = None,
        method: str = "binomial",
    ) -> List[List[SoftResponseDataset]]:
        """``[chip][puf]`` datasets for a whole lot on shared challenges.

        All constituents of all chips are flattened into one bank so the
        feature matrix is computed once for the entire lot.  Respects
        the fuse gate: raises
        :class:`~repro.silicon.fuses.FuseBlownError` for deployed chips.
        """
        chips = list(chips)
        for chip in chips:
            chip.fuses.check_access("lot-wide soft-response readout")
        pufs = [puf for chip in chips for puf in chip.oracle().pufs]
        flat = self.measure_grid(
            pufs, challenges, n_trials, [condition], seed=seed, method=method
        )[0]
        nested, offset = [], 0
        for chip in chips:
            nested.append(flat[offset : offset + chip.n_pufs])
            offset += chip.n_pufs
        return nested

    # ------------------------------------------------------------------
    # Stability / noise-free sweeps (chunk-reduced, O(chunk) memory)
    # ------------------------------------------------------------------
    def stable_mask(
        self,
        xor_puf: XorArbiterPuf,
        challenges: np.ndarray,
        n_trials: int,
        condition: OperatingCondition = NOMINAL_CONDITION,
        *,
        seed: SeedLike = None,
    ) -> np.ndarray:
        """Challenges 100 % stable on *every* constituent over T trials.

        The counter grid is reduced chunk by chunk, so peak memory is
        O(chunk_size * n_pufs) regardless of the sweep size.
        """
        pufs, challenges, conditions = self._check_grid(
            xor_puf.pufs, challenges, [condition]
        )
        n_trials = check_positive_int(n_trials, "n_trials")
        root = self._root(seed, "binomial")
        mask = np.empty(len(challenges), dtype=bool)
        for (start, stop), counts in self._evaluated_chunks(
            pufs, challenges, conditions, n_trials, root, "binomial"
        ):
            stable = (counts == 0) | (counts == n_trials)
            mask[start:stop] = stable.all(axis=(0, 1))
        return mask

    def noise_free_responses(
        self,
        pufs: Sequence[ArbiterPuf],
        challenges: np.ndarray,
        condition: OperatingCondition = NOMINAL_CONDITION,
    ) -> np.ndarray:
        """``(n_pufs, n)`` noise-free responses, chunked with shared phi."""
        pufs, challenges, _ = self._check_grid(pufs, challenges, [condition])
        out = np.empty((len(pufs), len(challenges)), dtype=np.int8)
        for (start, stop), chunk in self._noise_free_chunks(pufs, challenges, condition):
            out[:, start:stop] = chunk
        return out

    def noise_free_xor_response(
        self,
        xor_puf: XorArbiterPuf,
        challenges: np.ndarray,
        condition: OperatingCondition = NOMINAL_CONDITION,
    ) -> np.ndarray:
        """Noise-free XOR response, chunked with shared phi."""
        pufs, challenges, _ = self._check_grid(xor_puf.pufs, challenges, [condition])
        out = np.empty(len(challenges), dtype=np.int8)
        for (start, stop), chunk in self._noise_free_chunks(pufs, challenges, condition):
            out[start:stop] = np.bitwise_xor.reduce(chunk, axis=0)
        return out

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _check_grid(
        pufs: Sequence[ArbiterPuf],
        challenges: np.ndarray,
        conditions: Sequence[OperatingCondition],
    ) -> Tuple[List[ArbiterPuf], np.ndarray, List[OperatingCondition]]:
        pufs = list(pufs)
        if not pufs:
            raise ValueError("need at least one PUF to evaluate")
        stages = {puf.n_stages for puf in pufs}
        if len(stages) != 1:
            raise ValueError(f"PUFs disagree on stage count: {sorted(stages)}")
        challenges = as_challenge_array(challenges, pufs[0].n_stages)
        conditions = list(conditions)
        if not conditions:
            raise ValueError("need at least one operating condition")
        return pufs, challenges, conditions

    @staticmethod
    def _root(seed: SeedLike, method: str) -> np.random.SeedSequence:
        if method not in ENGINE_METHODS:
            raise ValueError(
                f"unknown engine method {method!r}; choose from {ENGINE_METHODS}"
            )
        if method == "analytic":
            # Analytic sweeps draw nothing; do not consume generator
            # state (parity with the legacy analytic path).
            return np.random.SeedSequence(0)
        return derive_seed_sequence(seed, "engine")

    def _chunk_bounds(self, n: int) -> List[_Bounds]:
        return [
            (start, min(start + self.chunk_size, n))
            for start in range(0, max(n, 1), self.chunk_size)
        ]

    def _open_checkpoint(
        self, kind: str, fingerprint: str, meta: dict
    ) -> Optional[CheckpointStore]:
        if self.checkpoint_dir is None:
            return None
        return CheckpointStore(
            self.checkpoint_dir, kind, fingerprint, meta=meta, faults=self.faults
        )

    def _begin_report(self) -> CampaignReport:
        report = CampaignReport()
        object.__setattr__(self, "last_report", report)
        return report

    def _evaluated_chunks(
        self,
        pufs: List[ArbiterPuf],
        challenges: np.ndarray,
        conditions: List[OperatingCondition],
        n_trials: int,
        root: np.random.SeedSequence,
        method: str,
    ) -> Iterator[Tuple[_Bounds, np.ndarray]]:
        """Yield ``((start, stop), counts)`` per chunk, fault-tolerantly."""
        bounds = self._chunk_bounds(len(challenges))
        phi_buf = (
            self._feature_buffer(bounds, pufs[0].n_stages)
            if self.jobs == 1
            else None
        )
        dtype = np.float64 if method == "analytic" else np.int64
        grid = (len(conditions), len(pufs))

        def make_call(start, stop, chunk_index, in_worker, attempt):
            buf = None
            if not in_worker and phi_buf is not None and stop - start == self.chunk_size:
                buf = phi_buf
            args = (
                pufs,
                challenges[start:stop],
                conditions,
                n_trials,
                root,
                start // RNG_BLOCK,
                method,
                buf,
                self.faults,
                chunk_index,
                attempt,
                in_worker,
            )
            return evaluate_chunk, args

        def validate(payload, n_rows):
            self._validate_counts(payload, grid + (n_rows,), dtype, n_trials, method)

        checkpoint = None
        if self.checkpoint_dir is not None:
            fingerprint = campaign_fingerprint(
                "counts",
                method,
                n_trials,
                repr(root.entropy),
                repr(tuple(root.spawn_key)),
                RNG_BLOCK,
                challenges,
                pufs,
                conditions,
            )
            checkpoint = self._open_checkpoint(
                "counts",
                fingerprint,
                meta={
                    "n_challenges": len(challenges),
                    "n_pufs": len(pufs),
                    "n_conditions": len(conditions),
                    "n_trials": n_trials,
                    "method": method,
                },
            )
        yield from run_chunks(
            bounds,
            jobs=self.jobs,
            make_call=make_call,
            validate=validate,
            retry=self.retry,
            checkpoint=checkpoint,
            report=self._begin_report(),
        )

    def _noise_free_chunks(
        self,
        pufs: List[ArbiterPuf],
        challenges: np.ndarray,
        condition: OperatingCondition,
    ) -> Iterator[Tuple[_Bounds, np.ndarray]]:
        bounds = self._chunk_bounds(len(challenges))
        phi_buf = (
            self._feature_buffer(bounds, pufs[0].n_stages)
            if self.jobs == 1
            else None
        )
        n_pufs = len(pufs)

        def make_call(start, stop, chunk_index, in_worker, attempt):
            buf = None
            if not in_worker and phi_buf is not None and stop - start == self.chunk_size:
                buf = phi_buf
            args = (
                pufs,
                challenges[start:stop],
                condition,
                buf,
                self.faults,
                chunk_index,
                attempt,
                in_worker,
            )
            return noise_free_chunk, args

        def validate(payload, n_rows):
            self._validate_bits(payload, (n_pufs, n_rows))

        checkpoint = None
        if self.checkpoint_dir is not None:
            fingerprint = campaign_fingerprint(
                "noisefree", challenges, pufs, condition
            )
            checkpoint = self._open_checkpoint(
                "noisefree",
                fingerprint,
                meta={"n_challenges": len(challenges), "n_pufs": n_pufs},
            )
        yield from run_chunks(
            bounds,
            jobs=self.jobs,
            make_call=make_call,
            validate=validate,
            retry=self.retry,
            checkpoint=checkpoint,
            report=self._begin_report(),
        )

    @staticmethod
    def _validate_counts(
        payload: np.ndarray,
        shape: Tuple[int, ...],
        dtype: np.dtype,
        n_trials: int,
        method: str,
    ) -> None:
        """Cheap integrity screen: shape, dtype and value range.

        An in-flight corruption (or a buggy worker) almost always lands
        outside the legitimate value range -- counters live in
        ``[0, n_trials]`` and probabilities in ``[0, 1]`` -- so this
        turns silent data damage into a retriable failure.
        """
        if not isinstance(payload, np.ndarray):
            raise ChunkValidationError(
                f"chunk payload is {type(payload).__name__}, expected ndarray"
            )
        if payload.shape != shape:
            raise ChunkValidationError(
                f"chunk payload shape {payload.shape}, expected {shape}"
            )
        if payload.dtype != dtype:
            raise ChunkValidationError(
                f"chunk payload dtype {payload.dtype}, expected {dtype}"
            )
        if payload.size == 0:
            return
        low, high = payload.min(), payload.max()
        limit = 1.0 if method == "analytic" else n_trials
        if low < 0 or high > limit:
            raise ChunkValidationError(
                f"chunk payload values outside [0, {limit}]: "
                f"min={low}, max={high}"
            )

    @staticmethod
    def _validate_bits(payload: np.ndarray, shape: Tuple[int, ...]) -> None:
        if not isinstance(payload, np.ndarray) or payload.shape != shape:
            raise ChunkValidationError(
                f"chunk payload shape "
                f"{getattr(payload, 'shape', None)}, expected {shape}"
            )
        if payload.size and (payload.min() < 0 or payload.max() > 1):
            raise ChunkValidationError("noise-free chunk holds non-bit values")

    def _feature_buffer(
        self, bounds: List[_Bounds], n_stages: int
    ) -> Optional[np.ndarray]:
        """One reusable phi buffer for the inline path's full-size chunks."""
        if len(bounds) < 2:
            return None
        return np.empty((self.chunk_size, n_stages + 1), dtype=np.float64)
