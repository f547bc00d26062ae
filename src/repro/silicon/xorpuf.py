"""The n-input XOR arbiter PUF (Fig. 1, bottom).

``n`` arbiter PUFs receive the same challenge; their 1-bit responses are
XOR-ed into the final response.  Only the XOR output is visible outside
the chip (the individual responses are fuse-gated, see
:mod:`repro.silicon.chip`).

Useful identities implemented here and exploited throughout:

* ``Pr(xor = 1) = (1 - prod_i (1 - 2 p_i)) / 2`` for independent
  constituents with per-evaluation 1-probabilities ``p_i``.
* A challenge is 100 % stable for the XOR PUF iff it is 100 % stable
  for *every* constituent (any single metastable constituent randomises
  the XOR), which is why the stable fraction decays like 0.8**n (Fig. 3).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

import numpy as np

from repro.crp.transform import parity_features
from repro.silicon.arbiter import ArbiterPuf
from repro.silicon.environment import (
    EnvironmentModel,
    NOMINAL_CONDITION,
    OperatingCondition,
)
from repro.utils.rng import SeedLike, derive_generator
from repro.utils.validation import as_challenge_array, check_positive_int

__all__ = ["XorArbiterPuf", "xor_probability"]

#: Rows per shared parity-feature chunk of a device read.
FEATURE_CHUNK = 4096


def xor_probability(probabilities: np.ndarray) -> np.ndarray:
    """``Pr(XOR of independent bits = 1)`` from per-bit probabilities.

    Parameters
    ----------
    probabilities:
        Array of shape ``(n_bits, ...)``; the XOR is taken over axis 0.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    if p.ndim == 0:
        raise ValueError("probabilities must have at least one axis")
    return (1.0 - np.prod(1.0 - 2.0 * p, axis=0)) / 2.0


@dataclasses.dataclass
class XorArbiterPuf:
    """A bank of arbiter PUFs with an XOR-reduced output.

    Attributes
    ----------
    pufs:
        The constituent :class:`~repro.silicon.arbiter.ArbiterPuf`
        instances (all with the same stage count).
    """

    pufs: List[ArbiterPuf]

    def __post_init__(self) -> None:
        if not self.pufs:
            raise ValueError("an XOR PUF needs at least one constituent PUF")
        stages = {puf.n_stages for puf in self.pufs}
        if len(stages) != 1:
            raise ValueError(f"constituent PUFs disagree on stage count: {stages}")

    @classmethod
    def create(
        cls,
        n_pufs: int,
        n_stages: int,
        seed: SeedLike = None,
        **puf_kwargs,
    ) -> "XorArbiterPuf":
        """Fabricate *n_pufs* independent constituents from one seed."""
        n_pufs = check_positive_int(n_pufs, "n_pufs")
        pufs = [
            ArbiterPuf.create(n_stages, derive_generator(seed, "puf", i), **puf_kwargs)
            for i in range(n_pufs)
        ]
        return cls(pufs)

    @property
    def n_pufs(self) -> int:
        """Number of constituent PUFs ``n``."""
        return len(self.pufs)

    @property
    def n_stages(self) -> int:
        """Number of MUX stages ``k`` of each constituent."""
        return self.pufs[0].n_stages

    def subset(self, n_pufs: int) -> "XorArbiterPuf":
        """A smaller XOR PUF over the first *n_pufs* constituents.

        Handy for the paper's n-sweeps: the n = 4 PUF is a prefix of the
        n = 10 PUF, mirroring how the paper reuses the same silicon.
        """
        n_pufs = check_positive_int(n_pufs, "n_pufs")
        if n_pufs > self.n_pufs:
            raise ValueError(f"asked for {n_pufs} of {self.n_pufs} constituents")
        return XorArbiterPuf(self.pufs[:n_pufs])

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def individual_probabilities_from_features(
        self,
        phi: np.ndarray,
        condition: OperatingCondition = NOMINAL_CONDITION,
    ) -> np.ndarray:
        """Per-constituent 1-probabilities from a shared feature matrix."""
        return np.stack(
            [
                puf.response_probability_from_features(phi, condition)
                for puf in self.pufs
            ]
        )

    def individual_probabilities(
        self,
        challenges: np.ndarray,
        condition: OperatingCondition = NOMINAL_CONDITION,
    ) -> np.ndarray:
        """``(n_pufs, n_challenges)`` per-constituent 1-probabilities."""
        phi = parity_features(as_challenge_array(challenges, self.n_stages))
        return self.individual_probabilities_from_features(phi, condition)

    def response_probability_from_features(
        self,
        phi: np.ndarray,
        condition: OperatingCondition = NOMINAL_CONDITION,
    ) -> np.ndarray:
        """``Pr(xor response = 1)`` from a shared feature matrix."""
        return xor_probability(
            self.individual_probabilities_from_features(phi, condition)
        )

    def response_probability(
        self,
        challenges: np.ndarray,
        condition: OperatingCondition = NOMINAL_CONDITION,
    ) -> np.ndarray:
        """Exact ``Pr(xor response = 1)`` per challenge."""
        return xor_probability(self.individual_probabilities(challenges, condition))

    def noise_free_response_from_features(
        self,
        phi: np.ndarray,
        condition: OperatingCondition = NOMINAL_CONDITION,
    ) -> np.ndarray:
        """XOR of the constituents' noise-free responses (shared features)."""
        responses = [
            puf.noise_free_response_from_features(phi, condition)
            for puf in self.pufs
        ]
        return np.bitwise_xor.reduce(np.stack(responses), axis=0)

    def noise_free_response(
        self,
        challenges: np.ndarray,
        condition: OperatingCondition = NOMINAL_CONDITION,
    ) -> np.ndarray:
        """XOR of the constituents' noise-free responses."""
        challenges = as_challenge_array(challenges, self.n_stages)
        phi = parity_features(challenges, validate=False)
        return self.noise_free_response_from_features(phi, condition)

    def _delays(
        self,
        challenges: np.ndarray,
        condition: OperatingCondition,
    ) -> np.ndarray:
        """``(n_pufs, n_challenges)`` noise-free delay differences.

        The challenges are validated once and their parity features are
        built in chunks of at most :data:`FEATURE_CHUNK` rows, one buffer
        shared by every constituent, so a large read never holds a full
        feature matrix.  Each constituent consumes a chunk through
        :meth:`~repro.silicon.arbiter.ArbiterPuf.delay_difference_from_features`,
        as its own single-PUF path does.
        """
        challenges = as_challenge_array(challenges, self.n_stages)
        n = challenges.shape[0]
        delays = np.empty((self.n_pufs, n), dtype=np.float64)
        phi = np.empty((min(n, FEATURE_CHUNK), self.n_stages + 1))
        for lo in range(0, n, FEATURE_CHUNK):
            rows = challenges[lo : lo + FEATURE_CHUNK]
            hi = lo + len(rows)
            features = parity_features(rows, out=phi[: len(rows)], validate=False)
            for delay, puf in zip(delays, self.pufs):
                delay[lo:hi] = puf.delay_difference_from_features(features, condition)
        return delays

    def eval(
        self,
        challenges: np.ndarray,
        condition: OperatingCondition = NOMINAL_CONDITION,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """One noisy XOR evaluation per challenge."""
        return np.bitwise_xor.reduce(
            self.individual_eval(challenges, condition, rng), axis=0
        )

    def individual_eval(
        self,
        challenges: np.ndarray,
        condition: OperatingCondition = NOMINAL_CONDITION,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """``(n_pufs, n_challenges)`` noisy per-constituent responses.

        Each constituent's noise is drawn over the whole batch, in
        constituent order, from its own generator (or *rng* when
        given), so the noise streams match per-constituent
        :meth:`~repro.silicon.arbiter.ArbiterPuf.eval` calls.

        Only legitimately reachable during enrollment (through the fuse
        gate in :class:`~repro.silicon.chip.PufChip`).
        """
        delays = self._delays(challenges, condition)
        for delay, puf in zip(delays, self.pufs):
            noise_rng = puf.rng if rng is None else rng
            delay += noise_rng.normal(
                0.0, puf.noise.sigma_at(condition), size=delay.shape
            )
        return (delays > 0).astype(np.int8)

    def stable_mask(
        self,
        challenges: np.ndarray,
        n_trials: int,
        condition: OperatingCondition = NOMINAL_CONDITION,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Challenges whose XOR response is 100 % stable over *n_trials*.

        Sampled via exact binomial counters per constituent: stable iff
        every constituent's counter reads exactly 0 or *n_trials*.
        """
        n_trials = check_positive_int(n_trials, "n_trials")
        mask = None
        for delay, puf in zip(self._delays(challenges, condition), self.pufs):
            count_rng = puf.rng if rng is None else rng
            p = puf.noise.response_probability(delay, condition)
            counts = count_rng.binomial(n_trials, p).astype(np.int64)
            stable = (counts == 0) | (counts == n_trials)
            mask = stable if mask is None else (mask & stable)
        return mask
