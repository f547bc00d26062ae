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

    The fill is the packed suffix-XOR :func:`_parity_fill`, bit-identical
    to the reversed cumprod over signed bits.
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
    _parity_fill(np.ascontiguousarray(challenges), out)
    return out


def _parity_fill(challenges: np.ndarray, out: np.ndarray) -> None:
    """Parity features from packed suffix-XOR words into *out*.

    ``phi[:, i] = prod_{j >= i} (1 - 2 c_j) = 1 - 2 (c_i ^ ... ^ c_{k-1})``,
    so the fill computes suffix parities on bit-packed rows.  Each row
    is packed MSB-first into big-endian 64-bit words (bit ``i`` of the
    string is ``c_i``, zero-padded past ``k``), and ``log2 k`` steps of
    ``words ^= words << s`` (carrying across word boundaries) leave bit
    ``i`` holding the parity of bits ``i .. i + 2s - 1``: the whole
    suffix once ``2s >= k``.  The bias column ``k`` unpacks as padding,
    parity 0.  One contiguous write maps each parity bit ``b`` to
    ``1 - 2b``; every value is an exact +/-1, so the result equals the
    reversed cumprod over signed bits bit for bit.
    """
    n, k = challenges.shape
    n_words = -(-k // 64)
    packed = np.zeros((n, 8 * n_words), dtype=np.uint8)
    packed[:, : -(-k // 8)] = np.packbits(challenges, axis=1)
    words = packed.view(">u8").astype(np.uint64)
    shift = 1
    while shift < k:
        whole, part = divmod(shift, 64)
        if part:
            moved = words << np.uint64(part)
            moved[:, :-1] |= words[:, 1:] >> np.uint64(64 - part)
        else:
            moved = words[:, whole:]
        words[:, : n_words - whole] ^= moved
        shift *= 2
    # unpackbits zero-pads past the last word when k is a multiple of 64.
    signs = np.unpackbits(
        words.astype(">u8").view(np.uint8), axis=1, count=k + 1
    ).view(np.int8)
    signs *= -2
    signs += 1
    np.copyto(out, signs)

