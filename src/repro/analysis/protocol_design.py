"""Analytic error rates for HD-threshold authentication policies.

The paper's central protocol claim: because selected CRPs never flip,
the server can demand a perfect match, and "a very stringent approval
criterion ... improves the overall security of the system".  This
module turns that into numbers a protocol designer can budget with:

* **false-accept rate** (FAR): an impostor device answers each
  challenge like a coin flip (inter-chip HD ~ 0.5), so it passes a
  (n, tolerance) policy with the binomial tail
  ``P(Binom(n, 0.5) <= tolerance)``;
* **false-reject rate** (FRR): an honest device flips each selected CRP
  with probability at most ``p_flip`` (0 for 100 %-stable CRPs at the
  measured condition; the salvage scheme's bound otherwise), failing
  with ``P(Binom(n, p_flip) > tolerance)``;
* sizing helpers that invert these for a target rate.

These close the loop on the paper's argument: relaxing the criterion to
tolerate noise (the HD-threshold schemes) costs FAR exponentially,
which is why selection + zero-HD dominates.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import stats

from repro.utils.validation import check_positive_int, check_probability

__all__ = [
    "false_accept_rate",
    "false_reject_rate",
    "challenges_for_far",
]


def false_accept_rate(
    n_challenges: int,
    tolerance: int = 0,
    impostor_match_probability: float = 0.5,
) -> float:
    """Probability a guessing impostor passes an (n, tolerance) policy.

    ``impostor_match_probability`` is the per-challenge chance the
    impostor's bit matches the prediction: 0.5 for an unrelated chip,
    higher for a partially accurate model clone (pass the clone's
    accuracy to budget against modeled adversaries).
    """
    n = check_positive_int(n_challenges, "n_challenges")
    if not 0 <= tolerance <= n:
        raise ValueError(f"tolerance must lie in [0, {n}], got {tolerance}")
    p_match = check_probability(
        impostor_match_probability, "impostor_match_probability"
    )
    # Pass <=> mismatches <= tolerance <=> matches >= n - tolerance.
    return float(stats.binom.cdf(tolerance, n, 1.0 - p_match))


def false_reject_rate(
    n_challenges: int,
    tolerance: int = 0,
    p_flip: float = 0.0,
) -> float:
    """Probability an honest device exceeds the mismatch budget.

    ``p_flip`` is the per-challenge flip probability of the *selected*
    CRPs (0 under the paper's policy at the validated conditions).
    """
    n = check_positive_int(n_challenges, "n_challenges")
    if not 0 <= tolerance <= n:
        raise ValueError(f"tolerance must lie in [0, {n}], got {tolerance}")
    p_flip = check_probability(p_flip, "p_flip")
    return float(stats.binom.sf(tolerance, n, p_flip))


def challenges_for_far(
    target_far: float,
    tolerance: int = 0,
    impostor_match_probability: float = 0.5,
    max_challenges: int = 100_000,
) -> Optional[int]:
    """Smallest challenge count meeting *target_far* at a given tolerance.

    Returns ``None`` if even *max_challenges* cannot reach the target
    (possible when the tolerance is generous or the adversary's match
    probability is high -- the regime the paper's stringency avoids).
    """
    target = check_probability(target_far, "target_far")
    if target <= 0.0:
        raise ValueError("target_far must be positive (zero FAR needs n = inf)")
    check_positive_int(max_challenges, "max_challenges")
    low, high = max(tolerance, 1), max_challenges
    if false_accept_rate(high, tolerance, impostor_match_probability) > target:
        return None
    while low < high:
        mid = (low + high) // 2
        if false_accept_rate(mid, tolerance, impostor_match_probability) <= target:
            high = mid
        else:
            low = mid + 1
    return int(low)
