"""Server-side stable-challenge selection (Fig. 7, left half).

During authentication the server draws random challenges, predicts each
individual PUF's soft response with the enrollment models, classifies
them with the adjusted thresholds, and keeps only challenges for which
**every** individual PUF is predicted stable (either stable 0 or
stable 1).  The predicted XOR response of a kept challenge is the XOR
of the per-PUF stable bits.

The rejection loop's acceptance rate is the paper's "predicted stable
fraction", which decays like 0.545**n at nominal thresholds (Fig. 12);
the selector exposes it for the benchmarks.

The loop classifies the challenge stream in growing chunks and stops
at the chunk that completes the request.  Every chunk is a multiple of
4 rows, so the chunked draws are byte-for-byte the prefix of one large
draw (see :meth:`~repro.crp.challenges.ChallengeStream.take`) and the
selection does not depend on the chunk sizes.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.model import XorPufModel
from repro.core.thresholds import (
    ResponseCategory,
    ThresholdPair,
    category_to_bit,
    classify_predictions,
)
from repro.crp.challenges import ChallengeStream
from repro.crp.transform import parity_features
from repro.utils.rng import SeedLike
from repro.utils.validation import as_challenge_array, check_positive_int

__all__ = ["ChallengeSelector", "SelectionExhaustedError"]

#: Rows in the rejection loop's first chunk; each later chunk doubles,
#: up to :data:`MAX_CHUNK`.  Both must stay multiples of 4.
FIRST_CHUNK = 1024
MAX_CHUNK = 4096


class SelectionExhaustedError(RuntimeError):
    """Raised when the rejection loop hits its challenge budget."""


@dataclasses.dataclass(frozen=True)
class ChallengeSelector:
    """Model-assisted challenge selection for one enrolled chip.

    Attributes
    ----------
    xor_model:
        The chip's per-PUF enrollment models.
    threshold_pairs:
        One (already beta-adjusted) :class:`ThresholdPair` per
        constituent PUF, aligned with ``xor_model.models``.
    """

    xor_model: XorPufModel
    threshold_pairs: Sequence[ThresholdPair]

    def __post_init__(self) -> None:
        pairs = list(self.threshold_pairs)
        if len(pairs) != self.xor_model.n_pufs:
            raise ValueError(
                f"{len(pairs)} threshold pairs for {self.xor_model.n_pufs} PUF models"
            )
        object.__setattr__(self, "threshold_pairs", pairs)

    @property
    def n_pufs(self) -> int:
        """Number of constituent PUFs."""
        return self.xor_model.n_pufs

    @property
    def n_stages(self) -> int:
        """Challenge width ``k``."""
        return self.xor_model.n_stages

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def categories(self, challenges: np.ndarray) -> np.ndarray:
        """``(n_pufs, n_challenges)`` per-PUF ResponseCategory codes."""
        challenges = as_challenge_array(challenges, self.n_stages)
        return self._categories_trusted(challenges)

    def _categories_trusted(
        self, challenges: np.ndarray, phi: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """:meth:`categories` minus the 0/1 content scan.

        For batches from trusted internal sources: :meth:`categories`
        after its own boundary validation, and the rejection loop's
        :class:`~repro.crp.challenges.ChallengeStream` draws (the stream
        only ever emits 0/1 bits).  Rescanning every rejected batch was
        pure overhead in the selection hot loop.  *phi* is an optional
        ``(n, k + 1)`` buffer for the parity features.
        """
        predicted = self.xor_model.predict_individual_soft_from_features(
            parity_features(challenges, out=phi, validate=False)
        )
        return np.stack(
            [
                classify_predictions(predicted[i], self.threshold_pairs[i])
                for i in range(self.n_pufs)
            ]
        )

    def stable_mask(self, challenges: np.ndarray) -> np.ndarray:
        """Challenges predicted stable on *every* individual PUF."""
        return (self.categories(challenges) != ResponseCategory.UNSTABLE).all(axis=0)

    def predicted_stable_fraction(self, challenges: np.ndarray) -> float:
        """Acceptance rate of the selection filter on *challenges*."""
        mask = self.stable_mask(challenges)
        return float(mask.mean()) if mask.size else float("nan")

    def predicted_xor_response(self, challenges: np.ndarray) -> np.ndarray:
        """Predicted XOR bits from the per-PUF stable categories.

        Only meaningful where :meth:`stable_mask` holds; other entries
        are computed from the same category-to-bit rule but carry no
        stability guarantee.
        """
        bits = category_to_bit(self.categories(challenges))
        return np.bitwise_xor.reduce(bits, axis=0)

    # ------------------------------------------------------------------
    # Rejection-sampling loop (Fig. 7: "Select Stable Challenges")
    # ------------------------------------------------------------------
    def select(
        self,
        n_challenges: int,
        seed: SeedLike = None,
        *,
        max_draws: int = 50_000_000,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw random challenges until *n_challenges* stable ones are found.

        Parameters
        ----------
        n_challenges:
            Stable challenges to collect.
        seed:
            Seed of the random challenge stream.
        max_draws:
            Budget of random draws before raising
            :class:`SelectionExhaustedError` (guards against widths
            where the predicted stable fraction is astronomically
            small).

        Returns
        -------
        (challenges, predicted_responses):
            ``(n_challenges, k)`` selected challenges and the server's
            predicted XOR bit for each.
        """
        n_challenges = check_positive_int(n_challenges, "n_challenges")
        stream = ChallengeStream(self.n_stages, seed)
        selected: List[np.ndarray] = []
        responses: List[np.ndarray] = []
        collected = 0
        chunk = FIRST_CHUNK
        phi = np.empty((MAX_CHUNK, self.n_stages + 1))
        while collected < n_challenges:
            if stream.drawn >= max_draws:
                raise SelectionExhaustedError(
                    f"collected only {collected}/{n_challenges} stable "
                    f"challenges after {stream.drawn} draws"
                )
            batch = stream.take(chunk)
            chunk = min(2 * chunk, MAX_CHUNK)
            # One classification pass per batch: the stability mask and
            # the predicted bits are both read off the same category
            # array (the bits are valid exactly where the mask holds).
            categories = self._categories_trusted(batch, phi[: len(batch)])
            mask = (categories != ResponseCategory.UNSTABLE).all(axis=0)
            if not mask.any():
                continue
            kept = batch[mask]
            bits = category_to_bit(categories[:, mask])
            selected.append(kept)
            responses.append(np.bitwise_xor.reduce(bits, axis=0))
            collected += len(kept)
        challenges = np.concatenate(selected)[:n_challenges]
        predicted = np.concatenate(responses)[:n_challenges]
        return challenges, predicted
