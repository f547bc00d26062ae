"""The shared-feature device read against the per-constituent reference.

:class:`~repro.silicon.xorpuf.XorArbiterPuf` builds one parity-feature
chunk for all constituents and draws each constituent's noise over the
whole batch afterwards.  The reference below is the read it replaced:
every constituent takes its delays over the full batch from a
full-batch feature matrix (the reversed-cumprod form) and draws its
noise right after.  Noise
streams and delays must match exactly, so every response, counter and
mask is bit-identical -- with each constituent's own generator and with
one shared generator, at nominal and at a corner.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.silicon.environment import NOMINAL_CONDITION, OperatingCondition
from repro.silicon.xorpuf import FEATURE_CHUNK, XorArbiterPuf
from tests.kernels.test_parity_oracle import cumprod_parity

WIDTHS = (1, 2, 31, 32, 33, 63, 64, 65, 128)
ROWS = (1, 63, FEATURE_CHUNK - 1, FEATURE_CHUNK, FEATURE_CHUNK + 1, 65_536)
CONDITIONS = (NOMINAL_CONDITION, OperatingCondition(0.8, 60.0))
N_PUFS = 2
N_TRIALS = 1000


def _reference_delays(xor_puf, challenges, condition):
    """Each constituent's delays over the whole batch, from the
    cumprod-form feature matrix."""
    phi = cumprod_parity(challenges)
    return [puf.delay_difference_from_features(phi, condition) for puf in xor_puf.pufs]


def _reference_individual_eval(xor_puf, delays, condition, rng):
    rows = []
    for puf, delta in zip(xor_puf.pufs, delays):
        noise_rng = puf.rng if rng is None else rng
        noise = noise_rng.normal(0.0, puf.noise.sigma_at(condition), size=delta.shape)
        rows.append((delta + noise > 0).astype(np.int8))
    return np.stack(rows)


def _reference_stable_mask(xor_puf, delays, n_trials, condition, rng):
    mask = None
    for puf, delta in zip(xor_puf.pufs, delays):
        count_rng = puf.rng if rng is None else rng
        p = puf.noise.response_probability(delta, condition)
        counts = count_rng.binomial(n_trials, p).astype(np.int64)
        stable = (counts == 0) | (counts == n_trials)
        mask = stable if mask is None else (mask & stable)
    return mask


def _twins(n_stages):
    """Two identical XOR PUFs, one per side: both sides draw the same
    amounts in the same order, so their noise generators stay in step."""
    puf = XorArbiterPuf.create(N_PUFS, n_stages, seed=[7, n_stages])
    return puf, copy.deepcopy(puf)


@pytest.mark.parametrize("n_rows", ROWS)
@pytest.mark.parametrize("n_stages", WIDTHS)
def test_reads_match_per_constituent_reference(n_stages, n_rows):
    challenges = np.random.default_rng([n_stages, n_rows]).integers(
        0, 2, size=(n_rows, n_stages), dtype=np.int8
    )
    puf, reference = _twins(n_stages)
    for condition in CONDITIONS:
        delays = _reference_delays(reference, challenges, condition)
        for shared in (False, True):
            rng = np.random.default_rng(5) if shared else None
            reference_rng = np.random.default_rng(5) if shared else None

            got = puf.individual_eval(challenges, condition, rng)
            want = _reference_individual_eval(
                reference, delays, condition, reference_rng
            )
            np.testing.assert_array_equal(got, want)

            got = puf.eval(challenges, condition, rng)
            want = _reference_individual_eval(
                reference, delays, condition, reference_rng
            )
            np.testing.assert_array_equal(got, np.bitwise_xor.reduce(want, axis=0))

            got = puf.stable_mask(challenges, N_TRIALS, condition, rng)
            want = _reference_stable_mask(
                reference, delays, N_TRIALS, condition, reference_rng
            )
            np.testing.assert_array_equal(got, want)


def test_single_challenge_keeps_its_batch_axis():
    puf, reference = _twins(32)
    challenge = np.zeros(32, dtype=np.int8)
    got = puf.eval(challenge)
    delays = _reference_delays(reference, challenge[None, :], NOMINAL_CONDITION)
    want = _reference_individual_eval(reference, delays, NOMINAL_CONDITION, None)
    assert got.shape == (1,)
    np.testing.assert_array_equal(got, np.bitwise_xor.reduce(want, axis=0))


def test_invalid_challenges_raise_before_any_noise_is_drawn():
    puf, reference = _twins(8)
    with pytest.raises(ValueError, match="0/1"):
        puf.eval(np.full((4, 8), 2, dtype=np.int8))
    zeros = np.zeros((4, 8), dtype=np.int8)
    delays = _reference_delays(reference, zeros, NOMINAL_CONDITION)
    want = _reference_individual_eval(reference, delays, NOMINAL_CONDITION, None)
    np.testing.assert_array_equal(
        puf.eval(zeros), np.bitwise_xor.reduce(want, axis=0)
    )
