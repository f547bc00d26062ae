"""Standard PUF quality metrics.

The paper's evaluation centres on stability and attack resistance, but
any credible PUF study also reports the classical statistical metrics
(see e.g. Lao & Parhi, "Statistical Analysis of MUX-based Physical
Unclonable Functions"):

* **uniformity** -- balance of 0s and 1s in one device's responses
  (ideal 0.5);
* **reliability** -- 1 minus the intra-chip Hamming distance between a
  reference readout and re-evaluations (ideal 1.0);
* **uniqueness** -- mean pairwise inter-chip Hamming distance over the
  same challenges (ideal 0.5).

All functions operate on plain {0, 1} response arrays so they apply to
single PUFs, XOR PUFs and model predictions alike.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.utils.validation import is_binary_array

__all__ = [
    "uniformity",
    "intra_chip_hd",
    "reliability",
    "inter_chip_hd",
    "uniqueness",
]


def _check_responses(responses: np.ndarray, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(responses)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got ndim={arr.ndim}")
    if arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    if not is_binary_array(arr):
        raise ValueError(f"{name} must contain only 0/1 bits")
    return arr.astype(np.int8, copy=False)


def uniformity(responses: np.ndarray) -> float:
    """Fraction of 1s in a response vector (ideal 0.5)."""
    return float(_check_responses(responses, "responses", 1).mean())


def intra_chip_hd(reference: np.ndarray, reevaluations: np.ndarray) -> float:
    """Mean normalised Hamming distance of re-evaluations to a reference.

    Parameters
    ----------
    reference:
        ``(n,)`` golden responses (e.g. enrollment readout).
    reevaluations:
        ``(m, n)`` repeated readouts of the same challenges.
    """
    ref = _check_responses(reference, "reference", 1)
    reev = _check_responses(reevaluations, "reevaluations", 2)
    if reev.shape[1] != len(ref):
        raise ValueError(
            f"reevaluations have {reev.shape[1]} bits, reference has {len(ref)}"
        )
    return float((reev != ref[np.newaxis, :]).mean())


def reliability(reference: np.ndarray, reevaluations: np.ndarray) -> float:
    """``1 - intra_chip_hd`` (ideal 1.0)."""
    return 1.0 - intra_chip_hd(reference, reevaluations)


def inter_chip_hd(responses_by_chip: np.ndarray) -> np.ndarray:
    """Pairwise normalised Hamming distances between chips.

    Parameters
    ----------
    responses_by_chip:
        ``(n_chips, n_challenges)`` responses of each chip to the same
        challenges.

    Returns
    -------
    numpy.ndarray
        1-D array of the ``n_chips * (n_chips - 1) / 2`` pairwise
        distances.
    """
    resp = _check_responses(responses_by_chip, "responses_by_chip", 2)
    n_chips = resp.shape[0]
    if n_chips < 2:
        raise ValueError("need at least two chips for inter-chip distances")
    distances = []
    for i in range(n_chips):
        diffs = resp[i + 1 :] != resp[i][np.newaxis, :]
        distances.append(diffs.mean(axis=1))
    return np.concatenate(distances)


def uniqueness(responses_by_chip: np.ndarray) -> float:
    """Mean pairwise inter-chip Hamming distance (ideal 0.5)."""
    return float(inter_chip_hd(responses_by_chip).mean())
