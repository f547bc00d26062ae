"""The ``validate=False`` internal fast paths.

Internal hot loops may skip the redundant 0/1 content scan, but every
*public* boundary still rejects malformed input exactly as before.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.crp.challenges import random_challenges
from repro.crp.transform import from_signed, parity_features, to_signed
from repro.utils.validation import as_challenge_array


class TestBoundaryRejection:
    """Public validation behaviour is unchanged by the fast path."""

    def test_as_challenge_array_rejects_non_binary(self):
        with pytest.raises(ValueError, match="0/1"):
            as_challenge_array(np.array([[0, 1, 2]]))

    def test_as_challenge_array_rejects_non_binary_floats(self):
        with pytest.raises(ValueError, match="0/1"):
            as_challenge_array(np.array([[0.0, 0.5]]))

    def test_fast_path_still_enforces_shape_contracts(self):
        # validate=False skips only the content scan; dimensionality and
        # stage-count mismatches are structural errors and still raise.
        with pytest.raises(ValueError, match="1-D or 2-D"):
            as_challenge_array(np.zeros((2, 2, 2)), validate=False)
        with pytest.raises(ValueError, match="stages"):
            as_challenge_array(np.zeros((4, 8)), 16, validate=False)

    def test_fast_path_result_identical_on_valid_input(self):
        challenges = random_challenges(64, 16, seed=3)
        np.testing.assert_array_equal(
            as_challenge_array(challenges, 16, validate=False),
            as_challenge_array(challenges, 16),
        )

    def test_from_signed_rejects_non_signed_bits(self):
        with pytest.raises(ValueError, match=r"\+/-1"):
            from_signed(np.array([[0, 1]]))

    def test_from_signed_fast_path_round_trips(self):
        challenges = random_challenges(32, 8, seed=4)
        np.testing.assert_array_equal(
            from_signed(to_signed(challenges), validate=False), challenges
        )

    def test_parity_features_rejects_non_binary(self):
        with pytest.raises(ValueError, match="0/1"):
            parity_features(np.array([[1, 2]]))

    def test_parity_features_fast_path_identical(self):
        challenges = random_challenges(33, 9, seed=5)
        np.testing.assert_array_equal(
            parity_features(challenges, validate=False),
            parity_features(challenges),
        )

    def test_selector_categories_still_validates(self, enrolled_chip_and_record):
        # The rejection loop classifies its own stream without the scan,
        # but the public classification API keeps full validation.
        _, record = enrolled_chip_and_record
        selector = record.selector()
        with pytest.raises(ValueError, match="0/1"):
            selector.categories(np.full((4, selector.n_stages), 2))
        with pytest.raises(ValueError, match="stages"):
            selector.categories(np.zeros((4, selector.n_stages + 1), dtype=np.int8))

