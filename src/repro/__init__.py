"""repro: reproduction of "Secure and Reliable XOR Arbiter PUF Design"
(Zhou, Parhi, Kim; DAC 2017).

The package provides:

* :mod:`repro.silicon` -- a calibrated simulator of the paper's 32 nm
  arbiter-PUF test chips (delay model, noise, V/T effects, counters,
  fuses, tester);
* :mod:`repro.crp` -- challenge generation, the parity feature
  transform, and CRP/soft-response datasets;
* :mod:`repro.engine` -- the chunked, multi-core CRP evaluation engine
  behind every measurement campaign (shared features, bounded memory,
  deterministic worker fan-out);
* :mod:`repro.attacks` -- MLP and logistic-regression modeling attacks;
* :mod:`repro.analysis` -- stability and PUF-quality metrics;
* :mod:`repro.baselines` -- prior-work authentication schemes used as
  comparison points;
* :mod:`repro.core` -- the paper's contribution: linear-regression
  model extraction from soft responses, three-category thresholding,
  threshold adjustment, model-assisted challenge selection and the
  zero-Hamming-distance authentication protocol.

Quickstart::

    from repro import PufChip, enroll_chip, AuthenticationServer
    from repro.service import AuthenticationService

    chip = PufChip.create(n_pufs=4, n_stages=32, seed=1)
    record = enroll_chip(chip, n_enroll_challenges=3000, seed=2)
    server = AuthenticationServer({chip.chip_id: record})
    service = AuthenticationService(server, seed=3)
    result = service.authenticate(chip)  # 64 never-issued challenges
    assert result.approved
"""

from repro.core import (
    AuthenticationServer,
    AuthResult,
    BetaFactors,
    ChallengeSelector,
    EnrollmentRecord,
    LinearPufModel,
    ThresholdPair,
    XorPufModel,
    authenticate,
    enroll_chip,
)
from repro.crp import (
    CrpDataset,
    SoftResponseDataset,
    parity_features,
    random_challenges,
)
from repro.engine import EvaluationEngine
from repro.silicon import (
    NOMINAL_CONDITION,
    ArbiterPuf,
    EnvironmentModel,
    OperatingCondition,
    PufChip,
    XorArbiterPuf,
    fabricate_lot,
    paper_corner_grid,
)

__version__ = "1.0.0"

__all__ = [
    "AuthenticationServer",
    "AuthResult",
    "BetaFactors",
    "ChallengeSelector",
    "EnrollmentRecord",
    "LinearPufModel",
    "ThresholdPair",
    "XorPufModel",
    "authenticate",
    "enroll_chip",
    "CrpDataset",
    "SoftResponseDataset",
    "parity_features",
    "random_challenges",
    "EvaluationEngine",
    "NOMINAL_CONDITION",
    "ArbiterPuf",
    "EnvironmentModel",
    "OperatingCondition",
    "PufChip",
    "XorArbiterPuf",
    "fabricate_lot",
    "paper_corner_grid",
    "__version__",
]
