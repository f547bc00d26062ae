"""Cross-cutting utilities: reproducible RNG plumbing and validation."""

from repro.utils.rng import (
    SeedLike,
    as_generator,
    derive_generator,
    derive_seed_sequence,
    key_to_entropy,
)
from repro.utils.validation import (
    as_challenge_array,
    as_float_array,
    check_in_range,
    check_positive_int,
    check_probability,
)

__all__ = [
    "SeedLike",
    "as_generator",
    "derive_generator",
    "derive_seed_sequence",
    "key_to_entropy",
    "as_challenge_array",
    "as_float_array",
    "check_in_range",
    "check_positive_int",
    "check_probability",
]
