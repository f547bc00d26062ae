"""Loop-level kernel implementations shared by the numba backend.

Every function here is written in *nopython-compatible* style: plain
``for`` loops over preallocated numpy arrays, scalar math from
:mod:`math`, no Python objects in the hot path.  The numba backend
compiles these exact functions with ``numba.njit`` (see
:mod:`repro.kernels.numba_backend`); without numba they remain ordinary
Python functions, which is how the cross-backend equivalence suite in
``tests/kernels`` verifies the *semantics* of the compiled kernels on
any environment -- the pure-Python execution and the jitted execution
run the same statements in the same order.

``prange`` resolves to :func:`numba.prange` when numba is installed and
to the built-in :func:`range` otherwise, so the parallel loops stay
importable (and testable, at small sizes) everywhere.

Numerical contract
------------------
* Integer/bit kernels (parity suffix products over exact +/-1 values,
  XOR + popcount scoring) are **bit-identical** to the NumPy reference.
* Float kernels accumulate dot products sequentially (index order)
  while BLAS uses blocked/pairwise summation, so deltas agree with the
  NumPy path only to a few ULP.  Hard responses (``delta > 0``) are
  identical unless a delta's magnitude is within that rounding slack of
  zero -- below ``64 * eps`` relative to the sum of term magnitudes --
  which random manufacturing weights do not produce in practice.
* :func:`ndtr_scalar` mirrors the branch structure of Cephes ``ndtr``
  (the scipy kernel) on top of libm ``erf``/``erfc``.  libm and Cephes
  disagree slightly, most in the far tail: values agree with
  ``scipy.special.ndtr`` to relative error <= 1e-13 over the full
  double range, and to <= ~32 ULP for arguments ``|x| <= 6`` (the
  region that decides counter values at any realistic T).
"""

from __future__ import annotations

import math

import numpy as np

try:  # pragma: no cover - exercised only where numba is installed
    from numba import prange
except ImportError:  # pragma: no cover - the default environment
    prange = range

__all__ = [
    "POPCOUNT_LUT",
    "ndtr_scalar",
    "parity_fill",
    "ndtr_fill",
    "grid_soft_probabilities",
    "grid_noise_free",
    "xor_noise_free",
    "packed_score_rows",
    "packed_score_matrix",
]

#: 1 / sqrt(2), the Cephes ``M_SQRT1_2`` constant.
_SQRT1_2 = 0.7071067811865476

#: Per-byte popcount table.  Module-level so numba freezes it into the
#: compiled kernels as a readonly constant.
POPCOUNT_LUT = np.array(
    [bin(value).count("1") for value in range(256)], dtype=np.uint8
)


def ndtr_scalar(x: float) -> float:
    """Standard normal CDF of one value, Cephes-style branch layout."""
    y = x * _SQRT1_2
    z = abs(y)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * math.erf(y)
    tail = 0.5 * math.erfc(z)
    if y > 0.0:
        return 1.0 - tail
    return tail


def parity_fill(challenges: np.ndarray, out: np.ndarray) -> None:
    """Fill *out* with parity features (suffix products of signed bits).

    ``challenges`` is ``(n, k)`` int8 {0, 1}; ``out`` is ``(n, k + 1)``
    float64.  All products are over exact +/-1 values, so the result is
    bit-identical to the numpy backend's packed suffix-XOR fill at any
    order.
    """
    n, k = challenges.shape
    for i in prange(n):
        out[i, k] = 1.0
        prod = 1.0
        for j in range(k - 1, -1, -1):
            prod *= 1.0 - 2.0 * challenges[i, j]
            out[i, j] = prod


def ndtr_fill(x: np.ndarray, out: np.ndarray) -> None:
    """Elementwise standard normal CDF over a flat float64 array."""
    for i in prange(x.shape[0]):
        out[i] = ndtr_scalar(x[i])


def grid_soft_probabilities(
    challenges: np.ndarray,
    weights: np.ndarray,
    quads: np.ndarray,
    has_quad: np.ndarray,
    gains: np.ndarray,
    sigmas: np.ndarray,
    out: np.ndarray,
) -> None:
    """Fused challenge -> parity -> delta -> ndtr pass for a model grid.

    Parameters
    ----------
    challenges:
        ``(n, k)`` int8 challenge chunk.
    weights:
        ``(P, k + 1)`` effective weight rows -- one per (condition, PUF)
        cell of the evaluation grid.
    quads / has_quad:
        ``(P, k + 1, k + 1)`` stage-interaction quadratic forms and the
        per-row flags saying which rows actually carry one (rows with
        ``has_quad[p] == False`` never touch ``quads``).
    gains:
        ``(P,)`` environment delay gains scaling the interaction term
        (the linear term's gain is already folded into *weights*).
    sigmas:
        ``(P,)`` per-row noise sigmas.
    out:
        ``(P, n)`` float64 output: ``ndtr(delta / sigma)`` per cell.

    The parity feature vector of each challenge is computed **once**
    into a per-row scratch and reused by every grid row -- ``phi`` is
    never materialised as an ``(n, k + 1)`` matrix.
    """
    n, k = challenges.shape
    k1 = k + 1
    n_rows = weights.shape[0]
    for i in prange(n):
        phi = np.empty(k1, dtype=np.float64)
        phi[k] = 1.0
        prod = 1.0
        for j in range(k - 1, -1, -1):
            prod *= 1.0 - 2.0 * challenges[i, j]
            phi[j] = prod
        for p in range(n_rows):
            delta = 0.0
            for j in range(k1):
                delta += phi[j] * weights[p, j]
            if has_quad[p]:
                quad = 0.0
                for a in range(k1):
                    row = 0.0
                    for b in range(k1):
                        row += quads[p, a, b] * phi[b]
                    quad += row * phi[a]
                delta += gains[p] * quad
            out[p, i] = ndtr_scalar(delta / sigmas[p])


def grid_noise_free(
    challenges: np.ndarray,
    weights: np.ndarray,
    quads: np.ndarray,
    has_quad: np.ndarray,
    gains: np.ndarray,
    out: np.ndarray,
) -> None:
    """Fused noise-free (sign-of-delta) responses for a model grid.

    Same layout as :func:`grid_soft_probabilities` but writes int8
    response bits ``delta > 0`` into the ``(P, n)`` output.
    """
    n, k = challenges.shape
    k1 = k + 1
    n_rows = weights.shape[0]
    for i in prange(n):
        phi = np.empty(k1, dtype=np.float64)
        phi[k] = 1.0
        prod = 1.0
        for j in range(k - 1, -1, -1):
            prod *= 1.0 - 2.0 * challenges[i, j]
            phi[j] = prod
        for p in range(n_rows):
            delta = 0.0
            for j in range(k1):
                delta += phi[j] * weights[p, j]
            if has_quad[p]:
                quad = 0.0
                for a in range(k1):
                    row = 0.0
                    for b in range(k1):
                        row += quads[p, a, b] * phi[b]
                    quad += row * phi[a]
                delta += gains[p] * quad
            if delta > 0.0:
                out[p, i] = 1
            else:
                out[p, i] = 0


def xor_noise_free(
    challenges: np.ndarray,
    weights: np.ndarray,
    quads: np.ndarray,
    has_quad: np.ndarray,
    gains: np.ndarray,
    out: np.ndarray,
) -> None:
    """Fused k-way XOR PUF noise-free evaluation.

    One pass per challenge: parity features into a scratch vector, one
    delta per constituent, XOR of the sign bits into the ``(n,)`` int8
    output.  Neither ``phi`` nor the per-constituent response matrix is
    ever materialised.
    """
    n, k = challenges.shape
    k1 = k + 1
    n_pufs = weights.shape[0]
    for i in prange(n):
        phi = np.empty(k1, dtype=np.float64)
        phi[k] = 1.0
        prod = 1.0
        for j in range(k - 1, -1, -1):
            prod *= 1.0 - 2.0 * challenges[i, j]
            phi[j] = prod
        bit = 0
        for p in range(n_pufs):
            delta = 0.0
            for j in range(k1):
                delta += phi[j] * weights[p, j]
            if has_quad[p]:
                quad = 0.0
                for a in range(k1):
                    row = 0.0
                    for b in range(k1):
                        row += quads[p, a, b] * phi[b]
                    quad += row * phi[a]
                delta += gains[p] * quad
            if delta > 0.0:
                bit = bit ^ 1
        out[i] = bit


def packed_score_rows(
    packed_a: np.ndarray,
    packed_b: np.ndarray,
    out: np.ndarray,
) -> None:
    """Row-aligned Hamming distances of two ``(M, B)`` packed arrays."""
    n_rows, n_bytes = packed_a.shape
    for i in prange(n_rows):
        total = 0
        for b in range(n_bytes):
            total += POPCOUNT_LUT[packed_a[i, b] ^ packed_b[i, b]]
        out[i] = total


def packed_score_matrix(
    packed_responses: np.ndarray,
    packed_matrix: np.ndarray,
    out: np.ndarray,
) -> None:
    """XOR + popcount scoring of request rows against a whole codebook.

    ``packed_responses`` is ``(R, N, B)`` (R requests, N identities),
    ``packed_matrix`` is the ``(N, B)`` codebook, ``out`` is ``(R, N)``
    int64 Hamming distances.  The parallel loop runs over the flattened
    ``R * N`` cells so single-request calls still fan out across cores.
    """
    n_requests, n_ids, n_bytes = packed_responses.shape
    for cell in prange(n_requests * n_ids):
        r = cell // n_ids
        c = cell % n_ids
        total = 0
        for b in range(n_bytes):
            total += POPCOUNT_LUT[packed_responses[r, c, b] ^ packed_matrix[c, b]]
        out[r, c] = total
