"""Arbiter/thermal noise model and its calibration against Fig. 2.

When the two racing edges arrive close together, the arbiter's decision
is perturbed by random thermal noise; the paper models this (as do
refs [1-3]) as an additive zero-mean Gaussian on the delay difference,
drawn fresh on every evaluation:

    r = 1[ delta(c) + eps > 0 ],   eps ~ N(0, sigma_n^2).

The probability of reading 1 for a given challenge is then
``p(c) = Phi(delta(c) / sigma_n)``, and the *soft response* over ``T``
repetitions is ``Binomial(T, p) / T``.

The one silicon-derived constant every downstream result depends on is
the ratio ``rho = sigma_n / sigma_delta`` between the noise sigma and
the spread of delay differences across random challenges.  The paper
reports that ~80 % of challenges are 100 % stable over T = 100 000
trials at 0.9 V / 25 degC (Fig. 2); :func:`calibrate_noise_sigma`
inverts the exact stability integral to find the ``rho`` that reproduces
this, instead of guessing device physics we cannot measure.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy import optimize, special, stats

from repro.silicon.environment import EnvironmentModel, NOMINAL_CONDITION, OperatingCondition
from repro.utils.validation import check_in_range, check_positive_int

__all__ = [
    "NoiseModel",
    "stable_probability",
    "calibrate_noise_sigma",
    "PAPER_STABLE_FRACTION",
    "PAPER_N_TRIALS",
]

#: Single-PUF 100 %-stable fraction reported in the paper (Figs. 2-3).
PAPER_STABLE_FRACTION = 0.800

#: Repetitions behind each soft response in the paper.
PAPER_N_TRIALS = 100_000

def _instability_deficit(p: np.ndarray, n_trials: int) -> np.ndarray:
    """``1 - p**T - (1-p)**T``: probability of at least one flip each way.

    Computed in log space to survive T = 100 000 without underflow.
    """
    with np.errstate(divide="ignore"):
        log_p = np.log(p, where=p > 0, out=np.full_like(p, -np.inf))
        log_q = np.log1p(-p, where=p < 1, out=np.full_like(p, -np.inf))
    return 1.0 - np.exp(n_trials * log_p) - np.exp(n_trials * log_q)


def stable_probability(sigma_ratio: float, n_trials: int) -> float:
    """Probability that a random challenge is 100 % stable over *n_trials*.

    With ``delta / sigma_delta ~ N(0, 1)`` across random challenges and
    ``rho = sigma_n / sigma_delta``, a challenge with normalised delay
    ``x`` reads 1 with probability ``p = Phi(x / rho)`` and is stable
    with probability ``p**T + (1 - p)**T``.

    The unstable challenges live in a band ``|x| <~ rho * z_T`` that is
    very narrow for small ``rho``, so the expectation is evaluated as
    ``1 - D`` with the deficit integral computed in the rescaled
    variable ``u = x / rho`` where the integrand's support is O(z_T)
    regardless of ``rho``:

        D = rho * Integral  [1 - Phi(u)**T - (1-Phi(u))**T] phi(rho u) du
    """
    sigma_ratio = check_in_range(sigma_ratio, "sigma_ratio", 0.0, None, inclusive=False)
    n_trials = check_positive_int(n_trials, "n_trials")
    if n_trials == 1:
        return 1.0  # a single read is trivially "all trials agree"
    # Half-width where Phi(u)**T crosses 0.5, plus generous margin.
    z_half = float(stats.norm.ppf(np.exp(-np.log(2.0) / n_trials)))
    half_width = max(z_half, 1.0) + 12.0
    u = np.linspace(-half_width, half_width, 8001)
    deficit = _instability_deficit(stats.norm.cdf(u), n_trials)
    integrand = deficit * stats.norm.pdf(sigma_ratio * u)
    d = float(sigma_ratio * np.trapezoid(integrand, u))
    return float(np.clip(1.0 - d, 0.0, 1.0))


def calibrate_noise_sigma(
    sigma_delta: float,
    *,
    target_stable_fraction: float = PAPER_STABLE_FRACTION,
    n_trials: int = PAPER_N_TRIALS,
) -> float:
    """Noise sigma that yields *target_stable_fraction* stable challenges.

    Parameters
    ----------
    sigma_delta:
        Std-dev of the delay difference over random challenges (use
        :func:`repro.silicon.delays.expected_delay_std` for a lot-level
        calibration).
    target_stable_fraction:
        Desired fraction of challenges whose soft response is exactly
        0 or 1 over *n_trials* repetitions; defaults to the paper's 80 %.
    n_trials:
        Repetitions per soft response (paper: 100 000).
    """
    sigma_delta = check_in_range(sigma_delta, "sigma_delta", 0.0, None, inclusive=False)
    target = check_in_range(
        target_stable_fraction, "target_stable_fraction", 0.0, 1.0, inclusive=False
    )
    n_trials = check_positive_int(n_trials, "n_trials")

    def gap(log_rho: float) -> float:
        return stable_probability(float(np.exp(log_rho)), n_trials) - target

    # rho bracket: 1e-6 (everything stable) .. 10 (almost nothing stable).
    lo, hi = np.log(1e-6), np.log(10.0)
    if gap(lo) < 0 or gap(hi) > 0:
        raise RuntimeError("calibration bracket failed; target unreachable")
    log_rho = optimize.brentq(gap, lo, hi, xtol=1e-12, rtol=1e-12)
    return float(np.exp(log_rho) * sigma_delta)


@dataclasses.dataclass(frozen=True)
class NoiseModel:
    """Per-evaluation Gaussian noise with environment-dependent sigma.

    Attributes
    ----------
    sigma:
        Noise std-dev at the nominal condition, in the same delay units
        as the PUF weights.
    environment:
        Model scaling the sigma with voltage/temperature; ``None``
        freezes the sigma at its nominal value for every condition.
    """

    sigma: float
    environment: EnvironmentModel | None = dataclasses.field(
        default_factory=EnvironmentModel
    )

    def __post_init__(self) -> None:
        check_in_range(self.sigma, "sigma", 0.0, None, inclusive=False)

    def sigma_at(self, condition: OperatingCondition = NOMINAL_CONDITION) -> float:
        """Effective noise sigma at *condition*."""
        if self.environment is None:
            return self.sigma
        return self.sigma * self.environment.noise_multiplier(condition)

    def response_probability(
        self,
        delta: np.ndarray,
        condition: OperatingCondition = NOMINAL_CONDITION,
    ) -> np.ndarray:
        """``Pr(response = 1)`` for delay differences *delta* at *condition*.

        Runs :func:`scipy.special.ndtr`, the kernel behind
        ``stats.norm.cdf``, without its argument checks.  This sits on
        the per-evaluation hot path.
        """
        delta = np.asarray(delta, dtype=np.float64)
        return special.ndtr(delta / self.sigma_at(condition))
