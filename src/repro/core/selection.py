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
4 rows, so the selection does not depend on the chunk sizes: the
chunked draws are byte-for-byte the prefix of one large draw (see
:meth:`~repro.crp.challenges.ChallengeStream.take`), and every row
keeps its position modulo 4, which fixes the BLAS kernel that sums its
score.  Within a chunk the constituents are tested one after another
on the rows still alive (see :meth:`ChallengeSelector._stable_rows`).
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence, Tuple

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
        predicted = self.xor_model.predict_individual_soft_from_features(
            parity_features(challenges, validate=False)
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

    def _stable_rows(self, features: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Rows of *features* stable on every PUF, and their XOR bits.

        The cascade classifies one constituent at a time and narrows the
        surviving rows as it goes, so it makes the same decisions as
        :meth:`categories` without building the category array, and
        stops once no row survives.  Each constituent is still scored on
        the whole chunk and then indexed: BLAS sums a row's score in a
        kernel that depends on the row's position modulo 4, so a score
        computed on a gathered subset can differ by an ulp and flip a
        row at a threshold.
        """
        alive = None
        bits = None
        for model, pair in zip(self.xor_model.models, self.threshold_pairs):
            soft = model.predict_soft_from_features(features)
            if alive is not None:
                soft = soft[alive]
            one = soft > pair.thr1
            stable = one | (soft < pair.thr0)
            if alive is None:
                alive = np.flatnonzero(stable)
                bits = one[alive].view(np.int8)
            else:
                alive = alive[stable]
                bits = bits[stable] ^ one[stable].view(np.int8)
            if not len(alive):
                break
        return alive, bits

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
            kept, bits = self._stable_rows(
                parity_features(batch, out=phi[: len(batch)], validate=False)
            )
            if not len(kept):
                continue
            selected.append(batch[kept])
            responses.append(bits)
            collected += len(kept)
        challenges = np.concatenate(selected)[:n_challenges]
        predicted = np.concatenate(responses)[:n_challenges]
        return challenges, predicted
