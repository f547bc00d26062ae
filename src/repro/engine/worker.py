"""Per-chunk CRP evaluation kernel (runs inline or in worker processes).

This module holds the *stateless* part of the evaluation engine: given a
chunk of challenges, a bank of PUFs, a list of operating conditions and
a root seed, produce the counter values (or analytic probabilities) for
every ``(condition, puf, challenge)`` cell.  Everything here is a plain
top-level function so :class:`concurrent.futures.ProcessPoolExecutor`
can pickle it.

Determinism contract
--------------------
Measurement randomness is *not* drawn from one sequential stream (which
would make results depend on chunk boundaries and worker scheduling).
Instead the challenge axis is divided into fixed blocks of
:data:`RNG_BLOCK` challenges, and each ``(block, condition, puf)`` cell
gets its own generator derived from the root seed.  Because the engine
only ever cuts chunks at block boundaries, the bits a given challenge
receives depend only on its global index -- so ``jobs=1`` equals
``jobs=N`` and chunked equals unchunked, bit for bit.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.crp.transform import parity_features
from repro.faults import FaultPlan, Site
from repro.silicon.arbiter import ArbiterPuf
from repro.silicon.environment import OperatingCondition

__all__ = ["RNG_BLOCK", "block_generator", "evaluate_chunk", "noise_free_chunk"]

#: Number of challenges per RNG block.  This constant is part of the
#: determinism contract: changing it changes every derived stream, so it
#: is deliberately not a tunable.
RNG_BLOCK = 4096


def block_generator(
    root: np.random.SeedSequence,
    block: int,
    condition_index: int,
    puf_index: int,
) -> np.random.Generator:
    """Independent generator for one ``(block, condition, puf)`` cell.

    The spawn key extends the root's key, so different engine calls
    (different roots) and different cells never share a stream.
    """
    entropy = root.entropy if root.entropy is not None else 0
    child = np.random.SeedSequence(
        entropy=entropy,
        spawn_key=(*root.spawn_key, int(block), int(condition_index), int(puf_index)),
    )
    return np.random.default_rng(child)


def evaluate_chunk(
    pufs: Sequence[ArbiterPuf],
    challenges: np.ndarray,
    conditions: Sequence[OperatingCondition],
    n_trials: int,
    root: np.random.SeedSequence,
    first_block: int,
    method: str = "binomial",
    phi_out: Optional[np.ndarray] = None,
    faults: Optional[FaultPlan] = None,
    chunk_index: int = 0,
    attempt: int = 0,
    in_worker: bool = False,
) -> np.ndarray:
    """Evaluate one block-aligned chunk of challenges.

    The parity feature matrix is computed **once** and shared across all
    PUFs and all conditions -- ``phi(c)`` depends only on the challenge,
    which is the engine's central saving over the per-PUF legacy path.

    Parameters
    ----------
    pufs:
        Arbiter PUFs to evaluate (e.g. all constituents of an XOR PUF,
        or every constituent of every chip in a lot).
    challenges:
        ``(n, k)`` chunk whose first row sits at global block
        *first_block* * :data:`RNG_BLOCK`.
    conditions:
        Operating conditions to sweep.
    n_trials:
        Counter depth T (ignored for ``method="analytic"``).
    root:
        Seed sequence all block streams are derived from.
    first_block:
        Global block index of the chunk's first challenge.
    method:
        ``"binomial"`` (exact counter draw) or ``"analytic"`` (exact
        probability, no randomness).
    phi_out:
        Optional preallocated feature buffer, reused across chunks.
    faults:
        Optional fault plan consulted at :data:`repro.faults.Site.ENGINE_CHUNK`
        on entry and :data:`~repro.faults.Site.ENGINE_RESULT` on return
        (no-op when ``None``).
    chunk_index:
        Engine chunk index, used only to address injected faults.
    attempt:
        Retry attempt number for deterministic fault firing.
    in_worker:
        Whether this call runs inside a process-pool worker (lets
        ``pool_only`` faults spare the serial fallback path).

    Returns
    -------
    numpy.ndarray
        ``(n_conditions, n_pufs, n)`` array -- int64 counter values for
        ``binomial``, float64 probabilities for ``analytic``.
    """
    if faults is not None:
        faults.check(
            Site.ENGINE_CHUNK, chunk_index, attempt=attempt, in_worker=in_worker
        )
    n = len(challenges)
    dtype = np.float64 if method == "analytic" else np.int64
    out = np.empty((len(conditions), len(pufs), n), dtype=dtype)
    phi = parity_features(challenges, out=phi_out, validate=False)
    for ci, condition in enumerate(conditions):
        for pi, puf in enumerate(pufs):
            p = puf.response_probability_from_features(phi, condition)
            if method == "analytic":
                out[ci, pi] = p
                continue
            for offset in range(0, n, RNG_BLOCK):
                stop = min(offset + RNG_BLOCK, n)
                rng = block_generator(root, first_block + offset // RNG_BLOCK, ci, pi)
                out[ci, pi, offset:stop] = rng.binomial(n_trials, p[offset:stop])
    if faults is not None:
        out = faults.corrupt(
            Site.ENGINE_RESULT, out, chunk_index, attempt=attempt, in_worker=in_worker
        )
    return out


def noise_free_chunk(
    pufs: Sequence[ArbiterPuf],
    challenges: np.ndarray,
    condition: OperatingCondition,
    phi_out: Optional[np.ndarray] = None,
    faults: Optional[FaultPlan] = None,
    chunk_index: int = 0,
    attempt: int = 0,
    in_worker: bool = False,
) -> np.ndarray:
    """``(n_pufs, n)`` noise-free responses for one chunk, shared phi."""
    if faults is not None:
        faults.check(
            Site.ENGINE_CHUNK, chunk_index, attempt=attempt, in_worker=in_worker
        )
    phi = parity_features(challenges, out=phi_out, validate=False)
    out = np.stack(
        [puf.noise_free_response_from_features(phi, condition) for puf in pufs]
    )
    if faults is not None:
        out = faults.corrupt(
            Site.ENGINE_RESULT, out, chunk_index, attempt=attempt, in_worker=in_worker
        )
    return out
