"""Lockdown mutual authentication (ref [7]: Yu et al., TMSCS 2016).

The lockdown idea: the device refuses to act as an open CRP oracle.
Challenges for a session are derived from *both* a server nonce and a
device nonce, so neither side can steer them; the device answers **one
challenge block per session** and enforces a lifetime session budget.
An attacker with physical access can still harvest CRPs, but only at
the budgeted rate and only for unpredictable challenges -- which caps
the training-set size any modeling attack can reach (the quantity the
baseline benchmark sweeps).

The paper's criticism -- "this strategy requires complicated system
level support" -- shows up here as the extra protocol state both sides
must keep (nonces, budgets, session counters) compared with the
stateless Fig.-7 flow.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

from repro.core.authentication import AuthResult, score_responses
from repro.core.selection import ChallengeSelector
from repro.crp.challenges import ChallengeStream
from repro.silicon.chip import PufChip
from repro.silicon.environment import NOMINAL_CONDITION, OperatingCondition
from repro.utils.rng import SeedLike, derive_generator
from repro.utils.validation import check_positive_int

__all__ = ["LockdownDevice", "LockdownBudgetError", "lockdown_authenticate"]


class LockdownBudgetError(RuntimeError):
    """Raised when the device's lifetime session budget is exhausted."""


def _session_seed(server_nonce: int, device_nonce: int) -> Tuple[int, int]:
    """Combine the two nonces into a challenge-stream seed path."""
    return (int(server_nonce) & 0x7FFFFFFF, int(device_nonce) & 0x7FFFFFFF)


class LockdownDevice:
    """A deployed chip wrapped in the lockdown session discipline.

    Parameters
    ----------
    chip:
        The deployed chip (only its XOR output is used).
    max_sessions:
        Lifetime budget of response blocks; the core of the lockdown
        guarantee.
    block_size:
        Challenges answered per session.
    seed:
        Seed of the device's nonce generator.
    """

    def __init__(
        self,
        chip: PufChip,
        *,
        max_sessions: int = 1000,
        block_size: int = 64,
        seed: SeedLike = None,
    ) -> None:
        self._chip = chip
        self.max_sessions = check_positive_int(max_sessions, "max_sessions")
        self.block_size = check_positive_int(block_size, "block_size")
        self._nonce_rng = derive_generator(seed, "nonce")
        self._sessions_used = 0

    @property
    def chip_id(self) -> str:
        """Identity of the wrapped chip."""
        return self._chip.chip_id

    @property
    def sessions_remaining(self) -> int:
        """Budgeted sessions left."""
        return self.max_sessions - self._sessions_used

    def respond(
        self,
        server_nonce: int,
        condition: OperatingCondition = NOMINAL_CONDITION,
    ) -> Tuple[int, np.ndarray, np.ndarray]:
        """Answer one session: (device nonce, challenges, responses).

        The challenge block is derived from both nonces; the device
        cannot be queried on chosen challenges, and each call burns one
        unit of the lifetime budget.
        """
        if self._sessions_used >= self.max_sessions:
            raise LockdownBudgetError(
                f"device {self.chip_id!r} exhausted its {self.max_sessions}-session budget"
            )
        self._sessions_used += 1
        device_nonce = int(self._nonce_rng.integers(0, 2**31 - 1))
        stream = ChallengeStream(
            self._chip.n_stages,
            derive_generator(0, "lockdown", *_session_seed(server_nonce, device_nonce)),
        )
        challenges = stream.take(self.block_size)
        responses = self._chip.xor_response(challenges, condition)
        return device_nonce, challenges, responses


def lockdown_authenticate(
    device: LockdownDevice,
    selector: ChallengeSelector,
    *,
    server_nonce: Optional[int] = None,
    max_hd_fraction: float = 0.10,
    condition: OperatingCondition = NOMINAL_CONDITION,
    seed: SeedLike = None,
) -> AuthResult:
    """One lockdown session verified with the server's delay models.

    The nonce-derived challenges are *random*, not selected, so some
    will be unstable and the server must tolerate a Hamming-distance
    budget -- unlike the paper's selected-challenge zero-HD policy.
    The server still exploits its models: it scores only the challenges
    it predicts stable (unstable ones carry no information) and applies
    the tolerance to those.
    """
    if server_nonce is None:
        server_nonce = int(derive_generator(seed, "server").integers(0, 2**31 - 1))
    __, challenges, responses = device.respond(server_nonce, condition)
    predicted = selector.predicted_xor_response(challenges)
    informative = selector.stable_mask(challenges)
    n_scored = int(informative.sum())
    if n_scored == 0:
        # Nothing informative this session: deny and let the caller retry.
        return AuthResult(
            approved=False,
            n_challenges=0,
            n_mismatches=0,
            tolerance=0,
            condition=condition,
        )
    return score_responses(
        responses[informative], predicted[informative],
        tolerance=int(np.floor(max_hd_fraction * n_scored)),
        condition=condition,
    )
