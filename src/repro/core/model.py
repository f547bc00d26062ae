"""Server-side PUF models learned during enrollment.

A :class:`LinearPufModel` holds the delay parameters extracted for one
individual arbiter PUF (Sec. 4 of the paper) and predicts soft
responses for arbitrary challenges.  Two prediction conventions are
supported, matching the two regression variants in
:mod:`repro.core.regression`:

``linear`` (the paper's method)
    The model output is the raw ordinary-least-squares prediction of
    the fractional soft response.  It is *not* clipped to [0, 1]; the
    paper points out that the predicted values "have a wider range but
    are still centered around 0.5", and it is exactly the overshoot
    beyond 0 and 1 that encodes how strongly biased (hence how stable)
    a challenge is.

``probit`` (ablation variant)
    The regression is done on probit-transformed soft responses, so the
    natural scores live on the delay axis; ``predict_soft`` maps them
    back through the normal CDF.  Thresholding then happens on the
    unbounded ``predict_score`` axis.

``mle`` (ablation variant)
    Binomial maximum likelihood: logistic regression with *fractional*
    targets, the statistically efficient way to consume counter
    measurements (saturated soft responses contribute exactly their
    "at least this biased" information instead of a clamped value).
    ``predict_soft`` maps scores through the logistic function.

:class:`XorPufModel` bundles the n individual models of one chip and
computes predicted XOR responses.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

import numpy as np
from scipy import special

from repro.crp.transform import parity_features
from repro.utils.validation import as_challenge_array

__all__ = ["LinearPufModel", "XorPufModel", "REGRESSION_METHODS"]

REGRESSION_METHODS = ("linear", "probit", "mle")


@dataclasses.dataclass(frozen=True)
class LinearPufModel:
    """Delay parameters of one arbiter PUF, as extracted by the server.

    Attributes
    ----------
    weights:
        Learned weight vector over the parity features (length k + 1).
    method:
        ``"linear"`` or ``"probit"`` -- fixes the meaning of
        :meth:`predict_soft` (see module docstring).
    """

    weights: np.ndarray
    method: str = "linear"

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=np.float64)
        if weights.ndim != 1 or len(weights) < 2:
            raise ValueError(
                f"weights must be 1-D of length k+1 >= 2, got shape {weights.shape}"
            )
        if self.method not in REGRESSION_METHODS:
            raise ValueError(
                f"unknown method {self.method!r}; choose from {REGRESSION_METHODS}"
            )
        object.__setattr__(self, "weights", weights)

    @property
    def n_stages(self) -> int:
        """Challenge width ``k``."""
        return len(self.weights) - 1

    def predict_score(self, challenges: np.ndarray) -> np.ndarray:
        """Raw linear score ``phi(c) . w`` (unbounded)."""
        challenges = as_challenge_array(challenges, self.n_stages)
        return parity_features(challenges) @ self.weights

    def predict_score_from_features(self, features: np.ndarray) -> np.ndarray:
        """:meth:`predict_score` on a precomputed parity feature matrix.

        Callers that evaluate several models over one challenge batch
        (an XOR chip's constituents, the selection hot loop) compute
        ``phi`` once and reuse it here; the float operations are the
        same, so results are bit-identical to :meth:`predict_score`.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != len(self.weights):
            raise ValueError(
                f"features must have shape (n, {len(self.weights)}), "
                f"got {features.shape}"
            )
        return features @ self.weights

    def _link(self, score: np.ndarray) -> np.ndarray:
        if self.method == "probit":
            # The kernel behind stats.norm.cdf.  This is the link the
            # selectors' classification sweeps run through.
            return special.ndtr(np.asarray(score, dtype=np.float64))
        if self.method == "mle":
            return special.expit(score)
        return score

    def predict_soft(self, challenges: np.ndarray) -> np.ndarray:
        """Model-predicted soft response.

        For ``linear`` this *is* the raw score (possibly outside
        [0, 1]); for ``probit`` the score is mapped through the normal
        CDF; for ``mle`` through the logistic function.
        """
        return self._link(self.predict_score(challenges))

    def predict_soft_from_features(self, features: np.ndarray) -> np.ndarray:
        """:meth:`predict_soft` on a precomputed parity feature matrix."""
        return self._link(self.predict_score_from_features(features))

    def predict_response(self, challenges: np.ndarray) -> np.ndarray:
        """Predicted hard response (traditional 0.5 threshold).

        On the ``linear`` axis the decision point is a predicted soft
        response of 0.5; on the score axes of ``probit`` and ``mle`` it
        is 0.
        """
        score = self.predict_score(challenges)
        boundary = 0.5 if self.method == "linear" else 0.0
        return (score > boundary).astype(np.int8)


@dataclasses.dataclass(frozen=True)
class XorPufModel:
    """The server's model of a whole XOR PUF chip: n individual models."""

    models: Sequence[LinearPufModel]

    def __post_init__(self) -> None:
        models = list(self.models)
        if not models:
            raise ValueError("an XOR PUF model needs at least one PUF model")
        stages = {m.n_stages for m in models}
        if len(stages) != 1:
            raise ValueError(f"constituent models disagree on stage count: {stages}")
        methods = {m.method for m in models}
        if len(methods) != 1:
            raise ValueError(f"constituent models disagree on method: {methods}")
        object.__setattr__(self, "models", models)

    @property
    def n_pufs(self) -> int:
        """Number of constituent models ``n``."""
        return len(self.models)

    @property
    def n_stages(self) -> int:
        """Challenge width ``k``."""
        return self.models[0].n_stages

    @property
    def method(self) -> str:
        """Regression method shared by the constituents."""
        return self.models[0].method

    def predict_individual_soft(self, challenges: np.ndarray) -> np.ndarray:
        """``(n_pufs, n_challenges)`` predicted soft responses."""
        challenges = as_challenge_array(challenges, self.n_stages)
        return self.predict_individual_soft_from_features(
            parity_features(challenges)
        )

    def predict_individual_soft_from_features(
        self, features: np.ndarray
    ) -> np.ndarray:
        """``(n_pufs, n)`` soft predictions from one shared ``phi`` matrix.

        The parity transform is by far the most expensive part of a
        prediction sweep; computing it once for all constituents is
        what makes the selection hot loop cheap.  Each model still
        consumes ``phi`` through the same per-model matrix-vector
        product, so values are bit-identical to the per-model path.
        """
        return np.stack(
            [m.predict_soft_from_features(features) for m in self.models]
        )

    def predict_individual_responses(self, challenges: np.ndarray) -> np.ndarray:
        """``(n_pufs, n_challenges)`` predicted hard responses."""
        return np.stack([m.predict_response(challenges) for m in self.models])

    def predict_xor_response(self, challenges: np.ndarray) -> np.ndarray:
        """Predicted XOR response per challenge (Fig. 7, server side)."""
        return np.bitwise_xor.reduce(
            self.predict_individual_responses(challenges), axis=0
        )

    def subset(self, n_pufs: int) -> "XorPufModel":
        """Model of the XOR PUF over the first *n_pufs* constituents."""
        if not 1 <= n_pufs <= self.n_pufs:
            raise ValueError(f"n_pufs must be in [1, {self.n_pufs}], got {n_pufs}")
        return XorPufModel(self.models[:n_pufs])
