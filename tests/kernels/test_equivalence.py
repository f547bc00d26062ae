"""The packed scorer's two popcount paths agree with the dense score.

:func:`repro.core.codebook.packed_match_fractions` counts bits with
``numpy.bitwise_count`` over ``uint64`` words where numpy has it
(>= 2.0) and through a per-byte lookup table otherwise (numpy 1.24-1.26,
or ``use_lut=True``).  Distances are integers, so both paths must give
exactly the dense fraction, empty batches included.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.codebook import pack_responses, packed_match_fractions

_SETTINGS = settings(max_examples=25, deadline=None)


def _bit_matrix(draw, n, k):
    bits = draw(st.lists(st.integers(0, 1), min_size=n * k, max_size=n * k))
    return np.array(bits, dtype=np.int8).reshape(n, k)


@st.composite
def packed_pairs(draw, max_rows=6, max_bits=37):
    """Two (M, n_bits) bit matrices with a non-multiple-of-8 width."""
    rows = draw(st.integers(0, max_rows))
    n_bits = draw(st.integers(1, max_bits))
    return _bit_matrix(draw, rows, n_bits), _bit_matrix(draw, rows, n_bits), n_bits


@_SETTINGS
@given(pair=packed_pairs())
def test_match_fraction_dispatch_agrees_with_lut_and_dense(pair):
    bits_a, bits_b, n_bits = pair
    packed_a = pack_responses(bits_a)
    packed_b = pack_responses(bits_b)
    dispatched = packed_match_fractions(packed_a, packed_b, n_bits)
    lut = packed_match_fractions(packed_a, packed_b, n_bits, use_lut=True)
    np.testing.assert_array_equal(dispatched, lut)
    if len(bits_a):
        # Same integers, same float64 division -> exactly equal.
        np.testing.assert_array_equal(
            dispatched, (bits_a == bits_b).mean(axis=-1)
        )
