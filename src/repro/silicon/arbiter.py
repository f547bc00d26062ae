"""The MUX arbiter PUF simulator.

:class:`ArbiterPuf` is the silicon substitute for one of the paper's
32-stage arbiter PUFs.  It combines

* a manufacturing instance (linear feature weights from
  :mod:`repro.silicon.delays`),
* per-instance voltage/temperature sensitivity vectors (so a given
  instance drifts *repeatably* at a given corner, as real silicon does),
* the Gaussian evaluation-noise model of :mod:`repro.silicon.noise`.

Evaluation interfaces
---------------------
``delay_difference``     noise-free delta(c) at a condition
``response_probability`` exact Pr(r = 1) per challenge
``eval``                 one noisy 1-bit evaluation per challenge
``eval_counts``          counter value over T repetitions (exact binomial)
``noise_free_response``  sign of the delay difference

The exact-binomial path makes 100 000-repetition soft responses as cheap
as a single evaluation, which is what lets the benchmarks run the
paper's experiment shapes on a laptop; a literal Monte-Carlo path exists
in :mod:`repro.silicon.counters` and the tests verify the two agree.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.crp.transform import parity_features
from repro.silicon.delays import (
    DEFAULT_STAGE_SIGMA,
    expected_delay_std,
    sample_weights,
)
from repro.silicon.environment import (
    EnvironmentModel,
    NOMINAL_CONDITION,
    OperatingCondition,
)
from repro.silicon.noise import NoiseModel, calibrate_noise_sigma
from repro.utils.rng import SeedLike, as_generator, derive_generator
from repro.utils.validation import as_challenge_array, check_positive_int

__all__ = ["ArbiterPuf", "DEFAULT_NONLINEARITY"]

#: Default second-order model-error level: std-dev of the stage-interaction
#: delay term as a fraction of the linear delay spread.  Chosen so the
#: linear additive model predicts hard responses with ~98 % accuracy --
#: the level reported for real arbiter silicon in the modeling-attack
#: literature (refs [2-5]) -- which in turn reproduces the paper's gap
#: between measured-stable and model-kept-stable CRP fractions.
DEFAULT_NONLINEARITY = 0.10


@dataclasses.dataclass
class ArbiterPuf:
    """One linear MUX arbiter PUF instance under a noise/environment model.

    Most users should construct instances via :meth:`create` (draws the
    manufacturing randomness and calibrates the noise) or through
    :class:`repro.silicon.chip.PufChip`.

    Attributes
    ----------
    weights:
        Linear feature weights ``w`` (length ``k + 1``) of the additive
        delay model at the nominal condition.
    noise:
        Evaluation-noise model.
    environment:
        Voltage/temperature effect model shared with the noise model.
    voltage_sensitivity_vector / temperature_sensitivity_vector:
        Per-instance unit-scale drift directions; the environment model
        scales them by the distance from nominal.
    interaction_indices / interaction_weights:
        Optional second-order term modelling real silicon's deviation
        from the pure linear additive model (stage-interaction
        nonlinearity): ``delta += sum_m c_m * phi[i_m] * phi[j_m]``.
        The server's linear model cannot represent it, so it shows up
        as irreducible model error during enrollment -- the effect the
        paper's threshold-adjustment machinery exists to absorb.
    rng:
        Private generator driving evaluation noise.
    """

    weights: np.ndarray
    noise: NoiseModel
    environment: Optional[EnvironmentModel] = None
    voltage_sensitivity_vector: Optional[np.ndarray] = None
    temperature_sensitivity_vector: Optional[np.ndarray] = None
    interaction_indices: Optional[np.ndarray] = None
    interaction_weights: Optional[np.ndarray] = None
    rng: np.random.Generator = dataclasses.field(default_factory=np.random.default_rng)

    #: Attribute rebinds that invalidate the per-condition weight cache.
    _EFFECTIVE_WEIGHT_FIELDS = frozenset(
        {
            "weights",
            "environment",
            "voltage_sensitivity_vector",
            "temperature_sensitivity_vector",
        }
    )
    #: Attribute rebinds that invalidate the interaction quadratic form.
    _INTERACTION_FIELDS = frozenset({"interaction_indices", "interaction_weights"})

    def __setattr__(self, name: str, value) -> None:
        # Keep the derived caches coherent: rebinding any physics field
        # drops the cache it feeds.  (In-place mutation of an already
        # bound array is *not* detected; the library always rebinds or
        # builds a fresh instance via dataclasses.replace.)
        if name in self._EFFECTIVE_WEIGHT_FIELDS:
            self.__dict__.pop("_effective_weight_cache", None)
        elif name in self._INTERACTION_FIELDS:
            self.__dict__.pop("_interaction_q", None)
        object.__setattr__(self, name, value)

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 1 or len(self.weights) < 2:
            raise ValueError(
                f"weights must be a 1-D vector of length k+1 >= 2, got shape "
                f"{self.weights.shape}"
            )
        k1 = len(self.weights)
        for name in ("voltage_sensitivity_vector", "temperature_sensitivity_vector"):
            vec = getattr(self, name)
            if vec is None:
                setattr(self, name, np.zeros(k1, dtype=np.float64))
            else:
                vec = np.asarray(vec, dtype=np.float64)
                if vec.shape != (k1,):
                    raise ValueError(f"{name} must have shape ({k1},), got {vec.shape}")
                setattr(self, name, vec)
        if self.environment is None:
            self.environment = self.noise.environment or EnvironmentModel()
        if (self.interaction_indices is None) != (self.interaction_weights is None):
            raise ValueError(
                "interaction_indices and interaction_weights must be given together"
            )
        if self.interaction_indices is not None:
            idx = np.asarray(self.interaction_indices, dtype=np.intp)
            wts = np.asarray(self.interaction_weights, dtype=np.float64)
            if idx.ndim != 2 or idx.shape[1] != 2:
                raise ValueError(
                    f"interaction_indices must have shape (m, 2), got {idx.shape}"
                )
            if wts.shape != (idx.shape[0],):
                raise ValueError(
                    f"interaction_weights must have shape ({idx.shape[0]},), "
                    f"got {wts.shape}"
                )
            if idx.size and (idx.min() < 0 or idx.max() >= k1 - 1):
                raise ValueError(
                    "interaction indices must address stage features 0..k-1"
                )
            self.interaction_indices = idx
            self.interaction_weights = wts

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        n_stages: int,
        seed: SeedLike = None,
        *,
        stage_sigma: float = DEFAULT_STAGE_SIGMA,
        noise_sigma: Optional[float] = None,
        target_stable_fraction: float = 0.800,
        n_trials: int = 100_000,
        environment: Optional[EnvironmentModel] = None,
        nonlinearity: float = DEFAULT_NONLINEARITY,
    ) -> "ArbiterPuf":
        """Fabricate a fresh arbiter PUF instance.

        Parameters
        ----------
        n_stages:
            Number of MUX stages ``k`` (paper chip: 32).
        seed:
            Root seed; manufacturing, drift directions and evaluation
            noise are derived independently from it.
        stage_sigma:
            Process sigma of each path-delay deviation.
        noise_sigma:
            Evaluation-noise sigma; if ``None`` it is calibrated so that
            *target_stable_fraction* of random challenges are 100 %
            stable over *n_trials* repetitions at nominal (Fig. 2).
        environment:
            Voltage/temperature model; defaults to the standard one.
        nonlinearity:
            Std-dev of the second-order (stage-interaction) delay term,
            as a fraction of the linear delay spread.  Real arbiter
            chains deviate from the ideal linear additive model; this
            is the irreducible error a linear enrollment model sees.
            Set to 0 for an ideally linear instance.
        """
        n_stages = check_positive_int(n_stages, "n_stages")
        environment = environment or EnvironmentModel()
        weights = sample_weights(
            n_stages, derive_generator(seed, "weights"), sigma=stage_sigma
        )
        if noise_sigma is None:
            noise_sigma = calibrate_noise_sigma(
                expected_delay_std(n_stages, stage_sigma),
                target_stable_fraction=target_stable_fraction,
                n_trials=n_trials,
            )
        noise = NoiseModel(noise_sigma, environment)
        drift_rng = derive_generator(seed, "drift")
        # Drift directions have the same element-wise scale as the
        # weights themselves; the environment model's sensitivities are
        # expressed as fractions of this scale per volt / per degC.
        element_sigma = stage_sigma * np.sqrt(2.0)
        v_vec = drift_rng.normal(0.0, element_sigma, size=n_stages + 1)
        t_vec = drift_rng.normal(0.0, element_sigma, size=n_stages + 1)
        interaction_indices = None
        interaction_weights = None
        if nonlinearity < 0:
            raise ValueError(f"nonlinearity must be non-negative, got {nonlinearity}")
        if nonlinearity > 0 and n_stages >= 2:
            nl_rng = derive_generator(seed, "nonlinearity")
            m = 2 * n_stages
            first = nl_rng.integers(0, n_stages, size=m)
            offset = nl_rng.integers(1, n_stages, size=m)
            second = (first + offset) % n_stages
            interaction_indices = np.stack([first, second], axis=1)
            per_term = (
                nonlinearity
                * expected_delay_std(n_stages, stage_sigma)
                / np.sqrt(m)
            )
            interaction_weights = nl_rng.normal(0.0, per_term, size=m)
        return cls(
            weights=weights,
            noise=noise,
            environment=environment,
            voltage_sensitivity_vector=v_vec,
            temperature_sensitivity_vector=t_vec,
            interaction_indices=interaction_indices,
            interaction_weights=interaction_weights,
            rng=derive_generator(seed, "noise"),
        )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def n_stages(self) -> int:
        """Number of MUX stages ``k``."""
        return len(self.weights) - 1

    def effective_weights(
        self, condition: OperatingCondition = NOMINAL_CONDITION
    ) -> np.ndarray:
        """Weights after voltage/temperature drift and common-mode gain.

        Cached per :class:`OperatingCondition` (the result is read-only);
        rebinding ``weights``, ``environment`` or either sensitivity
        vector invalidates the cache.
        """
        cache = self.__dict__.get("_effective_weight_cache")
        if cache is None:
            cache = {}
            self.__dict__["_effective_weight_cache"] = cache
        effective = cache.get(condition)
        if effective is None:
            gain = self.environment.delay_gain(condition)
            c_v, c_t = self.environment.drift_coefficients(condition)
            drifted = (
                self.weights
                + c_v * self.voltage_sensitivity_vector
                + c_t * self.temperature_sensitivity_vector
            )
            effective = gain * drifted
            effective.flags.writeable = False
            cache[condition] = effective
        return effective

    @property
    def interaction_matrix(self) -> Optional[np.ndarray]:
        """Quadratic-form matrix ``Q`` of the stage-interaction term.

        ``delta_interaction = sum_m w_m phi_i phi_j`` is evaluated as
        ``((phi @ Q) * phi).sum(axis=1)`` — a small BLAS GEMM instead of
        two fancy-indexed ``(n, m)`` gathers, which is what makes the
        nonlinearity affordable at paper scale.  ``None`` for an ideally
        linear instance.
        """
        if "_interaction_q" not in self.__dict__:
            q = None
            if self.interaction_indices is not None and len(self.interaction_indices):
                k1 = len(self.weights)
                q = np.zeros((k1, k1), dtype=np.float64)
                np.add.at(
                    q,
                    (self.interaction_indices[:, 0], self.interaction_indices[:, 1]),
                    self.interaction_weights,
                )
                q.flags.writeable = False
            self.__dict__["_interaction_q"] = q
        return self.__dict__["_interaction_q"]

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def delay_difference_from_features(
        self,
        phi: np.ndarray,
        condition: OperatingCondition = NOMINAL_CONDITION,
    ) -> np.ndarray:
        """``delta(c)`` from a precomputed parity feature matrix.

        Fast path for batch evaluators: ``phi(c)`` depends only on the
        challenge, so one feature matrix can be shared across all PUFs
        of an XOR PUF, all chips of a lot and every operating condition
        (see :mod:`repro.engine`).
        """
        phi = np.asarray(phi, dtype=np.float64)
        delta = phi @ self.effective_weights(condition)
        q = self.interaction_matrix
        if q is not None:
            gain = self.environment.delay_gain(condition)
            delta += gain * ((phi @ q) * phi).sum(axis=1)
        return delta

    def delay_difference(
        self,
        challenges: np.ndarray,
        condition: OperatingCondition = NOMINAL_CONDITION,
    ) -> np.ndarray:
        """Noise-free delay difference ``delta(c)`` at *condition*."""
        challenges = as_challenge_array(challenges, self.n_stages)
        return self.delay_difference_from_features(
            parity_features(challenges), condition
        )

    def response_probability_from_features(
        self,
        phi: np.ndarray,
        condition: OperatingCondition = NOMINAL_CONDITION,
    ) -> np.ndarray:
        """``Pr(response = 1)`` from a precomputed feature matrix."""
        return self.noise.response_probability(
            self.delay_difference_from_features(phi, condition), condition
        )

    def response_probability(
        self,
        challenges: np.ndarray,
        condition: OperatingCondition = NOMINAL_CONDITION,
    ) -> np.ndarray:
        """Exact per-challenge ``Pr(response = 1)`` at *condition*."""
        return self.noise.response_probability(
            self.delay_difference(challenges, condition), condition
        )

    def noise_free_response_from_features(
        self,
        phi: np.ndarray,
        condition: OperatingCondition = NOMINAL_CONDITION,
    ) -> np.ndarray:
        """Sign of the delay difference from a precomputed feature matrix."""
        return (self.delay_difference_from_features(phi, condition) > 0).astype(np.int8)

    def noise_free_response(
        self,
        challenges: np.ndarray,
        condition: OperatingCondition = NOMINAL_CONDITION,
    ) -> np.ndarray:
        """Sign of the delay difference (the "ideal" response)."""
        return (self.delay_difference(challenges, condition) > 0).astype(np.int8)

    def eval(
        self,
        challenges: np.ndarray,
        condition: OperatingCondition = NOMINAL_CONDITION,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """One noisy 1-bit evaluation per challenge."""
        rng = self.rng if rng is None else rng
        delta = self.delay_difference(challenges, condition)
        noise = rng.normal(0.0, self.noise.sigma_at(condition), size=delta.shape)
        return (delta + noise > 0).astype(np.int8)

    def eval_counts_from_features(
        self,
        phi: np.ndarray,
        n_trials: int,
        condition: OperatingCondition = NOMINAL_CONDITION,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Counter value over *n_trials* from a precomputed feature matrix."""
        n_trials = check_positive_int(n_trials, "n_trials")
        rng = self.rng if rng is None else rng
        p = self.response_probability_from_features(phi, condition)
        return rng.binomial(n_trials, p).astype(np.int64)

    def eval_counts(
        self,
        challenges: np.ndarray,
        n_trials: int,
        condition: OperatingCondition = NOMINAL_CONDITION,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Counter value over *n_trials* repetitions (exact binomial draw).

        Statistically identical to summing *n_trials* independent
        :meth:`eval` calls, because the per-evaluation noise is i.i.d.
        """
        n_trials = check_positive_int(n_trials, "n_trials")
        rng = self.rng if rng is None else rng
        p = self.response_probability(challenges, condition)
        return rng.binomial(n_trials, p).astype(np.int64)

