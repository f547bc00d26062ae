"""Reproducible random-number-generator plumbing.

Every stochastic object in the library (chips, noise processes, challenge
streams, attack initialisations) draws its randomness from a
:class:`numpy.random.Generator`.  This module centralises how those
generators are created and derived so that

* a single integer seed reproduces an entire experiment, and
* independent subsystems (e.g. the ten chips of a lot, or the noise of
  each evaluation batch) receive *statistically independent* streams.

The derivation scheme is based on :class:`numpy.random.SeedSequence`
``spawn``/``generate_state`` machinery, with a stable string-keyed variant
so that adding a new consumer does not silently shift the randomness of
existing ones.
"""

from __future__ import annotations

import zlib
from typing import Optional, Sequence, Union

import numpy as np

__all__ = [
    "SeedLike",
    "as_generator",
    "derive_generator",
    "derive_seed_sequence",
    "key_to_entropy",
]

#: Anything accepted as a source of randomness by the public API.
SeedLike = Union[None, int, Sequence[int], np.random.SeedSequence, np.random.Generator]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Coerce *seed* into a :class:`numpy.random.Generator`.

    ``None`` produces a fresh OS-entropy generator; an existing generator
    is passed through unchanged (shared state, deliberately); anything
    else is fed to :func:`numpy.random.default_rng`.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def key_to_entropy(key: str) -> int:
    """Map a string *key* to a stable 32-bit entropy word.

    Uses CRC-32, which is stable across Python versions and processes
    (unlike ``hash``).  Collisions are acceptable: the key entropy is
    always mixed with the experiment seed.
    """
    return zlib.crc32(key.encode("utf-8"))


def derive_seed_sequence(
    seed: SeedLike,
    *keys: Union[str, int],
) -> np.random.SeedSequence:
    """Derive a child :class:`~numpy.random.SeedSequence` for a named consumer.

    Parameters
    ----------
    seed:
        Root seed (``None`` for OS entropy).
    *keys:
        A path of names/indices identifying the consumer, e.g.
        ``("chip", 3, "noise")``.  Equal paths yield equal sequences;
        different paths yield independent ones.
    """
    if isinstance(seed, np.random.Generator):
        # Derive from the generator's bit stream (consumes state).
        root = np.random.SeedSequence(int(seed.integers(0, 2**63 - 1)))
    elif isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    words = [key_to_entropy(k) if isinstance(k, str) else int(k) for k in keys]
    entropy = root.entropy if root.entropy is not None else 0
    return np.random.SeedSequence(entropy=entropy, spawn_key=tuple(words))


def derive_generator(seed: SeedLike, *keys: Union[str, int]) -> np.random.Generator:
    """Return an independent generator for the consumer identified by *keys*."""
    return np.random.default_rng(derive_seed_sequence(seed, *keys))
