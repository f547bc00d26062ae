"""Challenge/response-pair substrate: generation, transform, datasets."""

from repro.crp.challenges import (
    ChallengeStream,
    all_challenges,
    random_challenges,
)
from repro.crp.io import (
    load_crps_csv,
    load_soft_responses_csv,
    save_crps_csv,
    save_soft_responses_csv,
)
from repro.crp.dataset import (
    CrpDataset,
    SoftResponseDataset,
    is_stable_soft,
    train_test_split_indices,
)
from repro.crp.transform import from_signed, n_features, parity_features, to_signed

__all__ = [
    "ChallengeStream",
    "all_challenges",
    "random_challenges",
    "load_crps_csv",
    "load_soft_responses_csv",
    "save_crps_csv",
    "save_soft_responses_csv",
    "CrpDataset",
    "SoftResponseDataset",
    "is_stable_soft",
    "train_test_split_indices",
    "from_signed",
    "n_features",
    "parity_features",
    "to_signed",
]
