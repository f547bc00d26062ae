"""The campaign's counter values, pinned across commits.

Every other engine test compares two runs of the same tree (``jobs=1``
against ``jobs=N``, one chunk against many).  This one compares against
a constant: the BLAKE2b digest of a small fixed XOR-lot sweep at the
paper's T = 100 000, at a nominal and a hot low-voltage corner.  A
change to the parity fill, the delay model, the ndtr link or the
block-keyed binomial draw that moves a single counter fails here, even
when it moves both worker counts the same way.

The constant was recorded before the kernel registry was deleted, so
it also proves that the single numpy path reproduces the old default
bit for bit.  Update it only for a deliberate, documented change of
the counts a seed produces.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.crp.challenges import random_challenges
from repro.engine import RNG_BLOCK, EvaluationEngine
from repro.silicon.environment import NOMINAL_CONDITION, OperatingCondition
from repro.silicon.xorpuf import XorArbiterPuf

#: ``blake2b(counts as little-endian int64, digest_size=16)``.
PINNED_DIGEST = "c5e98f27931dc1147ba71ba2bd1df35d"

N_TRIALS = 100_000
CONDITIONS = (NOMINAL_CONDITION, OperatingCondition(voltage=0.8, temperature=125.0))


@pytest.fixture(scope="module")
def lot():
    xor_puf = XorArbiterPuf.create(4, 32, seed=2701)
    # Two full RNG blocks plus a ragged tail: three chunks at
    # chunk_size=RNG_BLOCK, so jobs=2 really fans out.
    challenges = random_challenges(2 * RNG_BLOCK + 500, 32, seed=2702)
    return xor_puf, challenges


@pytest.mark.parametrize("jobs", [1, 2])
def test_soft_counts_digest_is_pinned(lot, jobs):
    xor_puf, challenges = lot
    counts = EvaluationEngine(jobs=jobs, chunk_size=RNG_BLOCK).soft_counts(
        xor_puf.pufs, challenges, N_TRIALS, CONDITIONS, seed=2703
    )
    assert counts.shape == (len(CONDITIONS), 4, len(challenges))
    digest = hashlib.blake2b(
        np.ascontiguousarray(counts, dtype="<i8").tobytes(), digest_size=16
    ).hexdigest()
    assert digest == PINNED_DIGEST
