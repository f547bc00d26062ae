"""The shard data plane: pure scoring functions shared by every execution mode.

Worker processes and the dispatcher's inline mode call exactly these
functions, so the bit-identity guarantee ("sharded == single-process")
is a property of *one* code path, verified once.

The math mirrors :meth:`AuthenticationServer.identify_many`'s pass
(:meth:`IdentificationCodebook.match_packed` + the masked argmax)
exactly:

* distances are integer Hamming counts from the same packed XOR +
  popcount scorer (:func:`repro.core.codebook._packed_distances` with
  the row-aligned request-grid shape), so equal match fractions
  are equal integers;
* tombstoned rows are masked with a sentinel distance
  ``n_challenges + 1`` -- strictly worse than any real row, exactly as
  the single-process path's ``-1.0`` masked fraction;
* per-shard winners are first-occurrence argmins, and shards are
  contiguous ascending row slices, so merging by (distance, shard
  index) reproduces the global first-occurrence argmax: highest score,
  then lexicographically lowest chip id.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.codebook import _packed_distances

__all__ = ["shard_distances", "shard_best", "sentinel_distance"]


def sentinel_distance(n_challenges: int) -> int:
    """Masked-row distance: loses to every real row (distance <= n)."""
    return n_challenges + 1


def shard_distances(
    packed_queries: np.ndarray, packed_rows: np.ndarray
) -> np.ndarray:
    """Row-aligned Hamming distances ``(n_queries, n_rows)``.

    *packed_queries* is the ``(n_queries, n_rows, n_bytes)`` slice of
    the batch's packed responses covering this shard's rows;
    *packed_rows* is the shard's ``(n_rows, n_bytes)`` packed matrix.
    Same scorer as the single-process ``match_packed`` pass, so the
    integers are identical.
    """
    queries = np.asarray(packed_queries, dtype=np.uint8)
    rows = np.asarray(packed_rows, dtype=np.uint8)
    if rows.shape[0] == 0:
        return np.zeros((queries.shape[0], 0), dtype=np.int64)
    return _packed_distances(queries, rows[None, :, :], use_lut=False)


def shard_best(
    distances: np.ndarray,
    active: np.ndarray,
    n_challenges: int,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Per-query winner of one shard: ``(local_rows, best_distances)``.

    Tombstoned rows are sentinel-masked before the argmin, so they can
    only "win" when the shard has no active row at all -- in which case
    the shard contributes nothing and this returns ``None`` (the merge
    equivalent of the single-process all-revoked short-circuit).
    ``argmin`` keeps the first occurrence, i.e. the lowest local row =
    lowest chip id within the shard.
    """
    active = np.asarray(active, dtype=bool)
    if distances.shape[1] == 0 or not active.any():
        return None
    masked = np.where(active, distances, sentinel_distance(n_challenges))
    local_rows = masked.argmin(axis=1)
    best = masked[np.arange(masked.shape[0]), local_rows]
    return local_rows.astype(np.int64), best.astype(np.int64)
