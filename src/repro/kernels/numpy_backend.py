"""The NumPy reference backend.

Vectorized numpy implementations wrapped in the
:class:`~repro.kernels.backend.KernelBackend` interface.  They are the
equality oracle of the backend contract: the numpy backend is
bit-identical to the seed code path, and every other backend is
validated against it (bit-identity for integer/bit kernels, identical
hard responses plus a documented ULP bound for float kernels).

The numpy backend does not implement the fused grid kernels
(``fused=False``); callers on this backend keep the materialised-phi
path, which shares one feature matrix per chunk across the whole
evaluation grid (see :mod:`repro.engine.worker`).
"""

from __future__ import annotations

import numpy as np
from scipy import special

__all__ = ["make_backend"]


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


def _ndtr(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF (the kernel behind ``stats.norm.cdf``)."""
    return special.ndtr(x)


def make_backend():
    """Build the numpy :class:`~repro.kernels.backend.KernelBackend`."""
    from repro.kernels.backend import KernelBackend

    return KernelBackend(
        name="numpy",
        fused=False,
        parity_fill=_parity_fill,
        ndtr=_ndtr,
        grid_soft_probabilities=None,
        grid_noise_free=None,
        xor_noise_free=None,
        packed_score_rows=None,
        packed_score_matrix=None,
        _warmup=None,
    )
