"""A compact CMA-ES optimiser (covariance matrix adaptation).

Implements the standard (mu/mu_w, lambda)-CMA-ES of Hansen & Ostermeier
-- rank-one and rank-mu covariance updates, cumulative step-size
adaptation -- in plain NumPy, sized for the few-dozen-dimensional
search spaces of PUF delay vectors.  It exists to power the
reliability-based modeling attack of Becker (CHES 2015; the paper's
ref [9]), which is the strongest known attack on XOR arbiter PUFs and
the natural adversary for a soft-response-centric design.

The implementation follows the tutorial parameterisation (Hansen, "The
CMA Evolution Strategy: A Tutorial"), minimising the given objective.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int

__all__ = ["CmaEs"]


class CmaEs:
    """Ask/tell interface to one CMA-ES run.

    Parameters
    ----------
    x0:
        Initial mean of the search distribution.
    sigma0:
        Initial global step size.
    population:
        Offspring per generation (default ``4 + floor(3 ln d)``).
    seed:
        Sampling seed.
    """

    def __init__(
        self,
        x0: np.ndarray,
        sigma0: float,
        *,
        population: Optional[int] = None,
        seed: SeedLike = None,
    ) -> None:
        self.mean = np.asarray(x0, dtype=np.float64).copy()
        if self.mean.ndim != 1:
            raise ValueError(f"x0 must be 1-D, got ndim={self.mean.ndim}")
        if sigma0 <= 0:
            raise ValueError(f"sigma0 must be positive, got {sigma0}")
        self.sigma = float(sigma0)
        d = len(self.mean)
        self.dim = d
        lam = population or 4 + int(3 * np.log(d))
        self.population = check_positive_int(lam, "population")
        if self.population < 2:
            raise ValueError("population must be at least 2")
        self._rng = as_generator(seed)

        # Selection weights (log-rank, positive half).
        mu = self.population // 2
        raw = np.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
        self.weights = raw / raw.sum()
        self.mu = mu
        self.mu_eff = 1.0 / float((self.weights**2).sum())

        # Adaptation constants.
        self.c_sigma = (self.mu_eff + 2.0) / (d + self.mu_eff + 5.0)
        self.d_sigma = (
            1.0
            + 2.0 * max(0.0, np.sqrt((self.mu_eff - 1.0) / (d + 1.0)) - 1.0)
            + self.c_sigma
        )
        self.c_c = (4.0 + self.mu_eff / d) / (d + 4.0 + 2.0 * self.mu_eff / d)
        self.c_1 = 2.0 / ((d + 1.3) ** 2 + self.mu_eff)
        self.c_mu = min(
            1.0 - self.c_1,
            2.0 * (self.mu_eff - 2.0 + 1.0 / self.mu_eff)
            / ((d + 2.0) ** 2 + self.mu_eff),
        )
        self.chi_n = np.sqrt(d) * (1.0 - 1.0 / (4.0 * d) + 1.0 / (21.0 * d**2))

        # Dynamic state.
        self.p_sigma = np.zeros(d)
        self.p_c = np.zeros(d)
        self.cov = np.eye(d)
        self._eig_stale = True
        self._B = np.eye(d)
        self._D = np.ones(d)
        self.generation = 0
        self.best_x = self.mean.copy()
        self.best_f = np.inf

    # ------------------------------------------------------------------
    def _refresh_eigen(self) -> None:
        if not self._eig_stale:
            return
        self.cov = (self.cov + self.cov.T) / 2.0
        eigvals, eigvecs = np.linalg.eigh(self.cov)
        eigvals = np.maximum(eigvals, 1e-20)
        self._B = eigvecs
        self._D = np.sqrt(eigvals)
        self._eig_stale = False

    def ask(self) -> np.ndarray:
        """Sample one generation of candidates, shape (population, dim)."""
        self._refresh_eigen()
        z = self._rng.normal(size=(self.population, self.dim))
        y = z * self._D[np.newaxis, :] @ self._B.T
        self._last_y = y
        return self.mean[np.newaxis, :] + self.sigma * y

    def tell(self, candidates: np.ndarray, fitnesses: np.ndarray) -> None:
        """Update the distribution from evaluated candidates (minimise)."""
        candidates = np.asarray(candidates, dtype=np.float64)
        fitnesses = np.asarray(fitnesses, dtype=np.float64)
        if candidates.shape != (self.population, self.dim):
            raise ValueError(
                f"candidates must have shape {(self.population, self.dim)}, "
                f"got {candidates.shape}"
            )
        if fitnesses.shape != (self.population,):
            raise ValueError("one fitness per candidate required")
        order = np.argsort(fitnesses)
        if fitnesses[order[0]] < self.best_f:
            self.best_f = float(fitnesses[order[0]])
            self.best_x = candidates[order[0]].copy()

        selected = candidates[order[: self.mu]]
        y_selected = (selected - self.mean[np.newaxis, :]) / self.sigma
        y_w = self.weights @ y_selected
        self.mean = self.mean + self.sigma * y_w

        # Step-size path (in the isotropic coordinate system).
        self._refresh_eigen()
        c_inv_sqrt_y = self._B @ ((self._B.T @ y_w) / self._D)
        self.p_sigma = (1.0 - self.c_sigma) * self.p_sigma + np.sqrt(
            self.c_sigma * (2.0 - self.c_sigma) * self.mu_eff
        ) * c_inv_sqrt_y
        self.sigma *= float(
            np.exp(
                (self.c_sigma / self.d_sigma)
                * (np.linalg.norm(self.p_sigma) / self.chi_n - 1.0)
            )
        )

        # Covariance paths and update.
        h_sigma = float(
            np.linalg.norm(self.p_sigma)
            / np.sqrt(1.0 - (1.0 - self.c_sigma) ** (2 * (self.generation + 1)))
            < (1.4 + 2.0 / (self.dim + 1.0)) * self.chi_n
        )
        self.p_c = (1.0 - self.c_c) * self.p_c + h_sigma * np.sqrt(
            self.c_c * (2.0 - self.c_c) * self.mu_eff
        ) * y_w
        rank_one = np.outer(self.p_c, self.p_c)
        rank_mu = (y_selected * self.weights[:, np.newaxis]).T @ y_selected
        delta_h = (1.0 - h_sigma) * self.c_c * (2.0 - self.c_c)
        self.cov = (
            (1.0 - self.c_1 - self.c_mu) * self.cov
            + self.c_1 * (rank_one + delta_h * self.cov)
            + self.c_mu * rank_mu
        )
        self._eig_stale = True
        self.generation += 1
