#!/usr/bin/env python
"""Quickstart: fabricate a chip, enroll it, authenticate it, attack it.

A two-minute tour of the library covering the paper's whole story:

1. fabricate a simulated 32 nm chip with a 4-input XOR arbiter PUF;
2. run the Fig.-6 enrollment (soft responses -> linear regression ->
   three-category thresholds -> beta adjustment -> burn fuses);
3. authenticate the chip with model-selected challenges under the
   zero-Hamming-distance policy -- including at a harsh V/T corner;
4. show an impostor chip and a machine-learning clone failing.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    AuthenticationServer,
    OperatingCondition,
    PufChip,
)
from repro.attacks import MlpClassifier, collect_stable_xor_crps
from repro.attacks.features import attack_matrices
from repro.core.server import ModelResponder
from repro.service import PROTOCOL_STUDY_CONFIG, AuthenticationService


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Fabricate: 4 arbiter PUFs of 32 stages behind an XOR gate.
    # ------------------------------------------------------------------
    chip = PufChip.create(n_pufs=4, n_stages=32, seed=7, chip_id="demo-chip")
    print(f"fabricated {chip!r}")

    # ------------------------------------------------------------------
    # 2. Enroll: the server measures soft responses through the fuses,
    #    fits per-PUF delay models, and burns the fuses.
    # ------------------------------------------------------------------
    server = AuthenticationServer()
    record = server.enroll(
        chip,
        seed=8,
        n_enroll_challenges=5000,       # paper's training-set size
        n_validation_challenges=20_000,  # beta-search validation
    )
    print(f"enrolled with betas {record.betas}; fuses blown: {chip.is_deployed}")
    for index, pair in enumerate(record.adjusted_pairs):
        print(f"  PUF #{index}: adjusted thresholds {pair}")

    # ------------------------------------------------------------------
    # 3. Authenticate: 64 never-issued model-selected challenges per
    #    session, zero-HD criterion.
    # ------------------------------------------------------------------
    service = AuthenticationService(server, PROTOCOL_STUDY_CONFIG, seed=9)
    result = service.authenticate(chip)
    print(f"honest chip at nominal:      {result.auth}")

    corner = OperatingCondition(voltage=0.8, temperature=60.0)
    result = service.authenticate(chip, condition=corner)
    print(f"honest chip at {corner}: {result.auth}")

    # ------------------------------------------------------------------
    # 4a. An impostor chip presenting the demo chip's identity.
    # ------------------------------------------------------------------
    impostor = PufChip.create(n_pufs=4, n_stages=32, seed=99, chip_id="impostor")
    result = service.authenticate(impostor, claimed_id="demo-chip")
    print(f"impostor chip:               {result.auth}")

    # ------------------------------------------------------------------
    # 4b. A software clone trained on harvested stable CRPs.
    # ------------------------------------------------------------------
    train, test = collect_stable_xor_crps(chip.oracle(), 20_000, 100_000, seed=12)
    train_x, train_y, test_x, test_y = attack_matrices(train, test)
    attack = MlpClassifier(seed=13, max_iter=200).fit(train_x, train_y)
    print(
        f"MLP clone trained on {len(train)} stable CRPs: "
        f"test accuracy {attack.score(test_x, test_y):.1%}"
    )
    clone = ModelResponder(attack, chip_id="demo-chip")
    result = service.authenticate(clone)
    print(f"software clone (n=4 is too narrow -- see Fig. 4): {result.auth}")
    print(
        "=> with only 4 XOR-ed PUFs the clone models the chip; the paper's\n"
        "   conclusion is to use n >= 10, where the same attack fails\n"
        "   (run examples/modeling_attack_study.py to see the trend)."
    )


if __name__ == "__main__":
    main()
