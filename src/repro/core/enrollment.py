"""The enrollment pipeline (Fig. 6) and its output record.

Enrollment of one chip, exactly as the paper prescribes:

1. **Measure individual PUFs** through the fuse-gated counter path:
   a training set of random challenges, each evaluated ``n_trials``
   times, per constituent PUF.
2. **Extract delay parameters** with linear regression on the soft
   responses (:mod:`repro.core.regression`).
3. **Determine thresholds** per PUF by comparing model predictions
   against the measured soft responses
   (:mod:`repro.core.thresholds`).
4. **Adjust thresholds** with beta factors searched against a
   validation measurement set, optionally spanning V/T corners
   (:mod:`repro.core.adjustment`).
5. **Burn the fuses** so individual responses become inaccessible.

The result is an :class:`EnrollmentRecord` -- everything the server
stores in its database (delay parameters + thresholds, *not* CRPs,
which is the storage advantage the paper inherits from refs [4-7]).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core.adjustment import BetaFactors, conservative_betas, find_beta_factors
from repro.core.model import LinearPufModel, XorPufModel
from repro.core.regression import RegressionReport, fit_soft_response_model
from repro.core.selection import ChallengeSelector
from repro.core.thresholds import ThresholdPair, determine_thresholds
from repro.crp.challenges import random_challenges
from repro.silicon.chip import PufChip
from repro.silicon.environment import NOMINAL_CONDITION, OperatingCondition
from repro.utils.rng import SeedLike, derive_generator
from repro.utils.validation import check_positive_int

__all__ = ["EnrollmentRecord", "enroll_chip", "PAPER_ENROLL_CHALLENGES"]

#: Training-set size the paper settles on (Fig. 10's cost/accuracy knee).
PAPER_ENROLL_CHALLENGES = 5000


@dataclasses.dataclass(frozen=True)
class EnrollmentRecord:
    """Everything the server keeps for one enrolled chip.

    Attributes
    ----------
    chip_id:
        Identifier of the enrolled chip.
    xor_model:
        Per-PUF delay-parameter models.
    base_pairs:
        Training-set thresholds per PUF (before adjustment).
    betas:
        The beta factors applied for authentication.
    n_trials:
        Counter depth used during enrollment.
    reports:
        Per-PUF regression diagnostics.
    """

    chip_id: str
    xor_model: XorPufModel
    base_pairs: Sequence[ThresholdPair]
    betas: BetaFactors
    n_trials: int
    reports: Sequence[RegressionReport] = ()

    def __post_init__(self) -> None:
        pairs = list(self.base_pairs)
        if len(pairs) != self.xor_model.n_pufs:
            raise ValueError(
                f"{len(pairs)} threshold pairs for {self.xor_model.n_pufs} models"
            )
        object.__setattr__(self, "base_pairs", pairs)
        object.__setattr__(self, "reports", list(self.reports))
        check_positive_int(self.n_trials, "n_trials")

    @property
    def adjusted_pairs(self) -> List[ThresholdPair]:
        """Beta-adjusted thresholds actually used for selection."""
        return [self.betas.apply(pair) for pair in self.base_pairs]

    def selector(self) -> ChallengeSelector:
        """Challenge selector over the adjusted thresholds."""
        return ChallengeSelector(self.xor_model, self.adjusted_pairs)

    def fingerprint(self) -> str:
        """Stable content hash of everything that shapes selection.

        Covers the model weights, method, base thresholds and betas --
        exactly the inputs of :meth:`selector`.  The identification
        codebook stores this per row, so a persisted codebook can tell
        whether a row still matches the record it was built from.
        """
        digest = hashlib.blake2b(digest_size=16)
        digest.update(self.chip_id.encode("utf-8"))
        digest.update(self.xor_model.method.encode("ascii"))
        digest.update(np.float64(self.betas.beta0).tobytes())
        digest.update(np.float64(self.betas.beta1).tobytes())
        for pair in self.base_pairs:
            digest.update(np.float64(pair.thr0).tobytes())
            digest.update(np.float64(pair.thr1).tobytes())
        for model in self.xor_model.models:
            digest.update(np.ascontiguousarray(model.weights))
        return digest.hexdigest()

    def with_betas(self, betas: BetaFactors) -> "EnrollmentRecord":
        """Copy of this record under different (e.g. fleet-wide) betas."""
        return dataclasses.replace(self, betas=betas)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        """Serialise to ``.npz`` (weights) + embedded JSON metadata."""
        meta = {
            "chip_id": self.chip_id,
            "method": self.xor_model.method,
            "n_trials": self.n_trials,
            "beta0": self.betas.beta0,
            "beta1": self.betas.beta1,
            "thresholds": [[p.thr0, p.thr1] for p in self.base_pairs],
        }
        weights = np.stack([m.weights for m in self.xor_model.models])
        np.savez_compressed(
            Path(path), weights=weights, meta=np.frombuffer(
                json.dumps(meta).encode("utf-8"), dtype=np.uint8
            )
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "EnrollmentRecord":
        """Load a record previously written by :meth:`save`."""
        with np.load(Path(path)) as data:
            meta = json.loads(bytes(data["meta"]).decode("utf-8"))
            weights = data["weights"]
        models = [LinearPufModel(w, meta["method"]) for w in weights]
        return cls(
            chip_id=meta["chip_id"],
            xor_model=XorPufModel(models),
            base_pairs=[ThresholdPair(t0, t1) for t0, t1 in meta["thresholds"]],
            betas=BetaFactors(meta["beta0"], meta["beta1"]),
            n_trials=int(meta["n_trials"]),
        )


def enroll_chip(
    chip: PufChip,
    *,
    n_enroll_challenges: int = PAPER_ENROLL_CHALLENGES,
    n_validation_challenges: int = 20_000,
    n_trials: int = 100_000,
    method: str = "linear",
    validation_conditions: Optional[Sequence[OperatingCondition]] = None,
    beta_step: float = 0.01,
    measurement_method: str = "binomial",
    blow_fuses: bool = True,
    jobs: int = 1,
    chunk_size: Optional[int] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    seed: SeedLike = None,
) -> EnrollmentRecord:
    """Run the full Fig.-6 enrollment on *chip*.

    Parameters
    ----------
    chip:
        A chip still in its enrollment phase (fuses intact).
    n_enroll_challenges:
        Training-set size per PUF (paper default: 5 000).
    n_validation_challenges:
        Fresh challenges measured for the beta search.
    n_trials:
        Counter depth T per soft response (paper: 100 000).
    method:
        Regression variant (``"linear"`` = paper, ``"probit"`` =
        ablation).
    validation_conditions:
        Operating points measured during the beta search; defaults to
        nominal only (Sec. 5.1).  Pass
        :func:`repro.silicon.paper_corner_grid()` for the Sec.-5.2
        V/T-hardened enrollment.
    beta_step:
        Granularity of the beta search.
    measurement_method:
        Counter simulation mode (see :mod:`repro.silicon.counters`).
    blow_fuses:
        Whether to end the enrollment phase (disable with care; only
        experiment harnesses that re-enroll the same chip should pass
        ``False``).
    jobs:
        Worker processes for the measurement campaigns (< 1 = all
        cores).  Results are bit-identical at any value.
    chunk_size:
        Challenge chunk size of the evaluation engine; ``None`` keeps
        the engine default.
    checkpoint_dir:
        Campaign directory for crash-safe measurement: per-chunk
        results are journalled there and a rerun pointed at the same
        directory resumes from the last good chunk (bit-identical to
        an uninterrupted run at any ``jobs``/``chunk_size``).
    seed:
        Root seed for challenge draws.
    """
    check_positive_int(n_enroll_challenges, "n_enroll_challenges")
    check_positive_int(n_validation_challenges, "n_validation_challenges")
    check_positive_int(n_trials, "n_trials")
    conditions = (
        [NOMINAL_CONDITION] if validation_conditions is None
        else list(validation_conditions)
    )
    if not conditions:
        raise ValueError("validation_conditions must not be empty")

    train_challenges = random_challenges(
        n_enroll_challenges, chip.n_stages, derive_generator(seed, "enroll")
    )
    validation_challenges = random_challenges(
        n_validation_challenges, chip.n_stages, derive_generator(seed, "validate")
    )

    # Both campaigns run through the chunked evaluation engine: one
    # measurement over all constituents at nominal (training) and one
    # over the full PUF x condition grid (validation), so the challenge
    # features are computed once per campaign instead of once per cell.
    train_sets = chip.enrollment_soft_response_grid(
        train_challenges,
        n_trials,
        [NOMINAL_CONDITION],
        method=measurement_method,
        jobs=jobs,
        chunk_size=chunk_size,
        checkpoint_dir=checkpoint_dir,
    )[0]
    validation_grid = chip.enrollment_soft_response_grid(
        validation_challenges,
        n_trials,
        conditions,
        method=measurement_method,
        jobs=jobs,
        chunk_size=chunk_size,
        checkpoint_dir=checkpoint_dir,
    )

    models: List[LinearPufModel] = []
    base_pairs: List[ThresholdPair] = []
    reports: List[RegressionReport] = []
    per_puf_betas: List[BetaFactors] = []
    for index in range(chip.n_pufs):
        train = train_sets[index]
        model, report = fit_soft_response_model(train, method=method)
        pair = determine_thresholds(model.predict_soft(train_challenges), train)
        validations = [grid_row[index] for grid_row in validation_grid]
        per_puf_betas.append(
            find_beta_factors(model, pair, validations, step=beta_step)
        )
        models.append(model)
        base_pairs.append(pair)
        reports.append(report)

    if blow_fuses:
        chip.blow_fuses()

    return EnrollmentRecord(
        chip_id=chip.chip_id,
        xor_model=XorPufModel(models),
        base_pairs=base_pairs,
        betas=conservative_betas(per_puf_betas),
        n_trials=n_trials,
        reports=reports,
    )
