"""Attack experiment harness (reproduces the protocol of Sec. 2.3).

The paper's attack experiments follow a specific recipe:

1. measure 1 M random challenges on each individual PUF with 100 k-deep
   counters;
2. keep only challenges that are **100 % stable on every individual
   PUF** (unstable CRPs "mislead the model training", and only stable
   CRPs are ever used in authentication anyway);
3. split 90 % / 10 % into train / test *before* the stability filter,
   so the stable train set shrinks like 0.8**n;
4. train on (transformed challenge, 1-bit XOR response) pairs and report
   test-set prediction accuracy as a function of the training-set size.

:func:`collect_stable_xor_crps` implements steps 1-3 against a
simulated XOR PUF; :func:`learning_curve` runs step 4 over a sweep of
training sizes, recording the paper's ms-per-CRP training-speed metric
along the way.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.features import attack_matrices
from repro.crp.challenges import random_challenges
from repro.crp.dataset import CrpDataset, train_test_split_indices
from repro.engine import DEFAULT_CHUNK_SIZE, EvaluationEngine
from repro.silicon.environment import NOMINAL_CONDITION, OperatingCondition
from repro.silicon.xorpuf import XorArbiterPuf
from repro.utils.rng import SeedLike, derive_generator
from repro.utils.validation import check_positive_int

__all__ = [
    "collect_stable_xor_crps",
    "AttackResult",
    "learning_curve",
]


def collect_stable_xor_crps(
    xor_puf: XorArbiterPuf,
    n_challenges: int,
    n_trials: int,
    *,
    train_fraction: float = 0.9,
    condition: OperatingCondition = NOMINAL_CONDITION,
    jobs: int = 1,
    chunk_size: Optional[int] = None,
    checkpoint_dir=None,
    seed: SeedLike = None,
) -> Tuple[CrpDataset, CrpDataset]:
    """Measure, stability-filter and split CRPs exactly as the paper does.

    The 1 M-challenge stability sweep (step 1-2) streams through the
    chunked evaluation engine: challenge features are computed once per
    chunk and shared across all constituents, memory stays bounded by
    *chunk_size*, and ``jobs > 1`` fans chunks over worker processes
    with bit-identical results.  *checkpoint_dir* journals per-chunk
    results so an interrupted sweep resumes from the last good chunk.

    Returns
    -------
    (train, test):
        Stable-only CRP datasets whose sizes are roughly
        ``n_challenges * train_fraction * 0.8**n`` and the complement --
        matching the paper's "900,000 * 0.800^n" accounting.

    Notes
    -----
    Responses of stable challenges are noise-free by construction (the
    challenge never flips), so the XOR label is computed analytically
    once stability is established.
    """
    n_challenges = check_positive_int(n_challenges, "n_challenges")
    n_trials = check_positive_int(n_trials, "n_trials")
    challenges = random_challenges(
        n_challenges, xor_puf.n_stages, derive_generator(seed, "challenges")
    )
    engine = EvaluationEngine(
        jobs=jobs,
        chunk_size=DEFAULT_CHUNK_SIZE if chunk_size is None else chunk_size,
        checkpoint_dir=checkpoint_dir,
    )
    stable = engine.stable_mask(
        xor_puf, challenges, n_trials, condition,
        seed=derive_generator(seed, "measurement"),
    )
    responses = engine.noise_free_xor_response(xor_puf, challenges, condition)
    train_idx, test_idx = train_test_split_indices(
        n_challenges, train_fraction, derive_generator(seed, "split")
    )
    train_mask = np.zeros(n_challenges, dtype=bool)
    train_mask[train_idx] = True
    keep_train = train_mask & stable
    keep_test = ~train_mask & stable
    train = CrpDataset(challenges[keep_train], responses[keep_train])
    test = CrpDataset(challenges[keep_test], responses[keep_test])
    return train, test


@dataclasses.dataclass(frozen=True)
class AttackResult:
    """Outcome of one attack training run.

    Attributes
    ----------
    n_train:
        Training CRPs used.
    accuracy:
        Test-set prediction accuracy.
    fit_seconds:
        Wall-clock training time.
    ms_per_crp:
        Training time normalised per CRP (the paper reports
        0.395 ms/CRP for its MLP).
    """

    n_train: int
    accuracy: float
    fit_seconds: float

    @property
    def ms_per_crp(self) -> float:
        return 1000.0 * self.fit_seconds / max(self.n_train, 1)


def learning_curve(
    attack_factory: Callable[[], object],
    train: CrpDataset,
    test: CrpDataset,
    train_sizes: Sequence[int],
    *,
    seed: SeedLike = None,
) -> List[AttackResult]:
    """Train fresh attacks on nested prefixes of *train* (Fig. 4 sweep).

    Parameters
    ----------
    attack_factory:
        Zero-argument callable returning an unfitted attack with
        ``fit``/``score`` (e.g. ``lambda: MlpClassifier(seed=0)``).
    train / test:
        Stable-only CRP sets from :func:`collect_stable_xor_crps`.
    train_sizes:
        Sizes to sweep; each must be <= ``len(train)``.
    seed:
        Shuffle seed for drawing the nested subsets.
    """
    sizes = [check_positive_int(s, "train size") for s in train_sizes]
    if max(sizes) > len(train):
        raise ValueError(
            f"largest train size {max(sizes)} exceeds available "
            f"{len(train)} stable training CRPs"
        )
    order = derive_generator(seed, "order").permutation(len(train))
    test_x, test_y = None, None
    results: List[AttackResult] = []
    for size in sizes:
        subset = train.subset(np.sort(order[:size]))
        train_x, train_y, test_x, test_y = attack_matrices(subset, test)
        attack = attack_factory()
        start = time.perf_counter()
        attack.fit(train_x, train_y)
        elapsed = time.perf_counter() - start
        accuracy = float(attack.score(test_x, test_y))
        results.append(AttackResult(size, accuracy, elapsed))
    return results
