"""The packed parity fill against the reversed-cumprod reference.

``parity_features`` computes ``phi`` from packed suffix-XOR words.  The
reference here is the straightforward product form it replaced: signed
bits ``1 - 2 c`` reduced with a reversed cumulative product.  Both
produce exact +/-1 values, so they must agree bit for bit at every
width, including the word-boundary widths around 64 and 128.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.crp.transform import _parity_fill, parity_features

WIDTHS = (1, 2, 31, 32, 33, 63, 64, 65, 127, 128, 129, 200)
ROWS = (0, 1, 63, 4095, 4096, 4097)


def cumprod_parity(challenges: np.ndarray) -> np.ndarray:
    """``phi[:, i] = prod_{j >= i} (1 - 2 c_j)``, bias column 1."""
    n, k = challenges.shape
    out = np.empty((n, k + 1))
    np.multiply(challenges, -2.0, out=out[:, :k])
    out[:, :k] += 1.0
    out[:, k] = 1.0
    np.cumprod(out[:, k - 1 :: -1], axis=1, out=out[:, k - 1 :: -1])
    return out


@pytest.mark.parametrize("n_rows", ROWS)
@pytest.mark.parametrize("n_stages", WIDTHS)
def test_packed_fill_matches_cumprod(n_stages, n_rows):
    rng = np.random.default_rng([n_stages, n_rows])
    challenges = rng.integers(0, 2, size=(n_rows, n_stages), dtype=np.int8)
    got = np.empty((n_rows, n_stages + 1))
    _parity_fill(challenges, got)
    assert got.tobytes() == cumprod_parity(challenges).tobytes()


@pytest.mark.parametrize("n_stages", WIDTHS)
def test_structured_rows_match_cumprod(n_stages):
    """All-zero, all-one, one-hot and alternating rows: every suffix
    parity pattern a carry bug between words would corrupt."""
    eye = np.eye(n_stages, dtype=np.int8)
    alternating = (np.arange(n_stages) % 2).astype(np.int8)
    challenges = np.vstack([
        np.zeros((1, n_stages), np.int8),
        np.ones((1, n_stages), np.int8),
        eye,
        1 - eye,
        alternating[None, :],
        1 - alternating[None, :],
    ])
    assert (
        parity_features(challenges).tobytes()
        == cumprod_parity(challenges).tobytes()
    )
