"""Modeling attacks on arbiter and XOR arbiter PUFs.

Implements the paper's MLP attack (35-25-25, L-BFGS) plus the classical
logistic-regression attacks as baselines, and the stable-CRP experiment
harness of Sec. 2.3.
"""

from repro.attacks.cma import CmaEs
from repro.attacks.features import attack_matrices, attack_matrix
from repro.attacks.reliability import ReliabilityAttack, estimate_reliability
from repro.attacks.harness import (
    AttackResult,
    collect_stable_xor_crps,
    learning_curve,
)
from repro.attacks.logistic import LogisticAttack
from repro.attacks.mlp import PAPER_HIDDEN_LAYERS, MlpClassifier
from repro.attacks.xor_logistic import XorLogisticAttack

__all__ = [
    "CmaEs",
    "ReliabilityAttack",
    "estimate_reliability",
    "attack_matrices",
    "attack_matrix",
    "AttackResult",
    "collect_stable_xor_crps",
    "learning_curve",
    "LogisticAttack",
    "PAPER_HIDDEN_LAYERS",
    "MlpClassifier",
    "XorLogisticAttack",
]
