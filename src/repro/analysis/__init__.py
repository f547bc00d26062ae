"""Stability analysis, PUF quality metrics and statistical helpers."""

from repro.analysis.attack_cost import (
    RequirementGrowth,
    crps_to_reach,
    fit_requirement_growth,
    security_crossover_width,
    stable_crp_supply,
)

from repro.analysis.entropy import (
    autocorrelation,
    challenge_sensitivity,
    shannon_entropy_rate,
)
from repro.analysis.protocol_design import (
    challenges_for_far,
    false_accept_rate,
    false_reject_rate,
)
from repro.analysis.metrics import (
    inter_chip_hd,
    intra_chip_hd,
    reliability,
    uniformity,
    uniqueness,
)
from repro.analysis.stability import (
    StabilitySummary,
    analytic_stable_fraction_by_n,
    decay_base,
    stable_fraction_by_n,
    summarize_soft_responses,
    xor_stable_fraction,
)
from repro.analysis.statistics import (
    ExponentialDecayFit,
    fit_exponential_decay,
    wilson_interval,
)

__all__ = [
    "RequirementGrowth",
    "crps_to_reach",
    "fit_requirement_growth",
    "security_crossover_width",
    "stable_crp_supply",
    "autocorrelation",
    "challenge_sensitivity",
    "shannon_entropy_rate",
    "challenges_for_far",
    "false_accept_rate",
    "false_reject_rate",
    "inter_chip_hd",
    "intra_chip_hd",
    "reliability",
    "uniformity",
    "uniqueness",
    "StabilitySummary",
    "analytic_stable_fraction_by_n",
    "decay_base",
    "stable_fraction_by_n",
    "summarize_soft_responses",
    "xor_stable_fraction",
    "ExponentialDecayFit",
    "fit_exponential_decay",
    "wilson_interval",
]
