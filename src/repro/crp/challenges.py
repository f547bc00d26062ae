"""Challenge generation for arbiter PUFs.

A *challenge* is a vector of ``k`` bits, one per MUX stage, selecting the
straight or crossed path through each stage.  The paper's test chips have
``k = 32`` stages; its CRP-space argument in the conclusion uses
``k = 64``.  All generators below produce challenges as ``int8`` arrays
of shape ``(n, k)`` with entries in {0, 1}.

The module offers:

* uniform random sampling,
* a deterministic seeded *stream* (for protocols that must re-derive the
  same challenge sequence on server and device),
* exhaustive enumeration for small ``k`` (used by tests).

Every random draw goes through :func:`_draw_bits`, which returns exactly
the rows of ``rng.integers(0, 2, (n, k), dtype=np.int8)`` and leaves the
generator in the same state, at about a fifth of the cost.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int

__all__ = [
    "random_challenges",
    "all_challenges",
    "ChallengeStream",
]


def _draw_bits(rng: np.random.Generator, n: int, n_stages: int) -> np.ndarray:
    """``rng.integers(0, 2, (n, n_stages), dtype=np.int8)``, from raw words.

    For a range of 2, numpy's bounded int8 draw returns the top bit of
    successive bytes of the generator's 32-bit outputs, low byte first.
    It never rejects, and it drops the unused bytes of the last 32-bit
    word when the call ends.  PCG64 serves 32-bit outputs as the low
    then the high half of each 64-bit word, buffering the high half
    (``has_uint32``/``uinteger``) across calls.  So the same bits are the
    top bits of the little-endian bytes of ``random_raw`` words, after
    any buffered half-word; the buffer is carried in and out through
    ``bit_generator.state``.  Other bit generators take numpy's path.
    """
    bit_generator = rng.bit_generator
    if type(bit_generator) is not np.random.PCG64:
        return rng.integers(0, 2, size=(n, n_stages), dtype=np.int8)
    n_bytes = n * n_stages
    bits = np.empty(n_bytes, dtype=np.uint8)
    state = bit_generator.state
    head = 0
    if state["has_uint32"]:
        head = min(4, n_bytes)
        buffered = np.array([state["uinteger"]], dtype="<u4").view(np.uint8)
        np.right_shift(buffered[:head], 7, out=bits[:head])
    words = -(-(n_bytes - head) // 4)  # 32-bit outputs still to consume
    if words:
        raw = bit_generator.random_raw((words + 1) // 2).astype("<u8", copy=False)
        np.right_shift(raw.view(np.uint8)[: n_bytes - head], 7, out=bits[head:])
        state = bit_generator.state
        state["uinteger"] = int(raw[-1] >> np.uint64(32))
    state["has_uint32"] = words & 1
    bit_generator.state = state
    return bits.view(np.int8).reshape(n, n_stages)


def random_challenges(
    n: int,
    n_stages: int,
    seed: SeedLike = None,
) -> np.ndarray:
    """Sample *n* uniform random challenges of *n_stages* bits each.

    Sampling is with replacement: for the 32- and 64-stage spaces used in
    the paper the collision probability over 10^6 draws is negligible
    (birthday bound < 1.2e-4 for k = 32).
    """
    n = check_positive_int(n, "n")
    n_stages = check_positive_int(n_stages, "n_stages")
    return _draw_bits(as_generator(seed), n, n_stages)


def all_challenges(n_stages: int) -> np.ndarray:
    """Enumerate every challenge of *n_stages* bits (for small spaces).

    Row ``i`` holds the binary expansion of ``i`` with the most
    significant bit first.  Refuses spaces above 2^20 entries.
    """
    n_stages = check_positive_int(n_stages, "n_stages")
    if n_stages > 20:
        raise ValueError(
            f"refusing to enumerate 2^{n_stages} challenges; use random sampling"
        )
    count = 1 << n_stages
    indices = np.arange(count, dtype=np.uint64)
    shifts = np.arange(n_stages - 1, -1, -1, dtype=np.uint64)
    return ((indices[:, None] >> shifts[None, :]) & 1).astype(np.int8)


class ChallengeStream:
    """Deterministic, restartable stream of random challenges.

    Both sides of an authentication protocol can construct the same
    stream from a shared seed and consume identical challenge batches.

    Parameters
    ----------
    n_stages:
        Challenge width in bits.
    seed:
        Root seed; equal seeds yield equal streams.
    """

    def __init__(self, n_stages: int, seed: SeedLike = None) -> None:
        self.n_stages = check_positive_int(n_stages, "n_stages")
        self._seed = seed
        self._rng = as_generator(seed)
        self._drawn = 0

    @property
    def drawn(self) -> int:
        """Number of challenges drawn from the stream so far."""
        return self._drawn

    def take(self, n: int) -> np.ndarray:
        """Draw the next *n* challenges.

        The rows are exactly ``rng.integers(0, 2, (n, k), dtype=np.int8)``
        on the stream's generator, read from its raw 64-bit words (see
        :func:`_draw_bits`).  Successive calls concatenate to exactly the
        rows of one larger call when each call's ``n * n_stages`` is a
        multiple of 4, which holds for any width when *n* is a multiple
        of 4.  The bits come from 32-bit outputs, one byte per bit, and
        a call drops the unused bytes of its last output, so other
        splits shift the stream.
        """
        n = check_positive_int(n, "n")
        batch = _draw_bits(self._rng, n, self.n_stages)
        self._drawn += n
        return batch

    def __iter__(self) -> Iterator[np.ndarray]:
        while True:
            yield self.take(1)[0]
