"""The linear-additive-model challenge transform (parity feature map).

For a ``k``-stage MUX arbiter PUF with challenge bits
``c = (c_1, ..., c_k)`` in {0, 1}, the delay difference at the arbiter is
linear not in ``c`` but in the *transformed challenge vector* ``phi(c)``
[Ruhrmair et al.; refs 1-3 of the paper]:

    b_j     = 1 - 2*c_j                      (challenge bit in +/-1 form)
    phi_i   = prod_{j=i}^{k} b_j             for i = 1..k
    phi_k+1 = 1                              (bias / arbiter offset term)

so that ``delta(c) = w . phi(c)`` for a weight vector ``w`` of ``k + 1``
delay parameters.  Every learning component in the paper (the linear
regression of Sec. 4 and the MLP attack of Sec. 2.3) operates on
``phi(c)``, which is why this transform lives in the shared ``crp``
substrate rather than with either consumer.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.kernels import get_backend
from repro.utils.validation import as_challenge_array

__all__ = [
    "to_signed",
    "from_signed",
    "parity_features",
    "n_features",
]


def to_signed(challenges: np.ndarray) -> np.ndarray:
    """Map {0, 1} challenge bits to the {+1, -1} convention (0 -> +1)."""
    challenges = as_challenge_array(challenges)
    # int8 arithmetic cannot overflow here (values are 0/2 and +/-1).
    return 1 - 2 * challenges


def from_signed(signed: np.ndarray, *, validate: bool = True) -> np.ndarray:
    """Inverse of :func:`to_signed`: map {+1, -1} back to {0, 1}.

    ``validate=False`` skips the +/-1 content scan for internal callers
    whose input was produced by trusted code (e.g. attack feature
    matrices derived from :func:`to_signed` output).
    """
    signed = np.asarray(signed)
    if validate and signed.size and not np.isin(signed, (-1, 1)).all():
        raise ValueError("signed challenge bits must be +/-1")
    return ((1 - signed) // 2).astype(np.int8)


def n_features(n_stages: int) -> int:
    """Feature dimensionality of the parity transform: ``k + 1``."""
    if n_stages <= 0:
        raise ValueError(f"n_stages must be positive, got {n_stages}")
    return n_stages + 1


def parity_features(
    challenges: np.ndarray,
    *,
    out: Optional[np.ndarray] = None,
    validate: bool = True,
) -> np.ndarray:
    """Compute the parity feature matrix ``phi`` for a batch of challenges.

    Parameters
    ----------
    challenges:
        Array of shape ``(n, k)`` with {0, 1} entries (a single 1-D
        challenge is also accepted).
    out:
        Optional preallocated float64 buffer of shape ``(n, k + 1)``.
        The chunked evaluation engine passes the same buffer for every
        chunk so the hot loop allocates nothing.
    validate:
        ``False`` skips the 0/1 content scan for internal callers whose
        batch was validated at a public boundary (see
        :func:`repro.utils.validation.as_challenge_array`).

    Returns
    -------
    numpy.ndarray
        Float64 array of shape ``(n, k + 1)``; column ``i < k`` holds the
        suffix product ``prod_{j>=i} (1 - 2 c_j)`` and the final column is
        the constant 1.

    The fill runs on the active kernel backend
    (:mod:`repro.kernels`); every backend produces bit-identical
    output here, because all products are over exact +/-1 values.
    """
    challenges = as_challenge_array(challenges, validate=validate)
    n, k = challenges.shape
    if out is None:
        out = np.empty((n, k + 1), dtype=np.float64)
    elif out.shape != (n, k + 1) or out.dtype != np.float64:
        raise ValueError(
            f"out must be a float64 array of shape ({n}, {k + 1}), got "
            f"{out.dtype} {out.shape}"
        )
    get_backend().parity_fill(np.ascontiguousarray(challenges), out)
    return out

