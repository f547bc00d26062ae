#!/usr/bin/env python
"""Fleet deployment: many chips, one server, adversaries included.

Simulates the authentication system a product team would actually ship:

* a 10-chip lot enrolled on one server, with the paper's fleet-wide
  conservative beta policy (min beta0 / max beta1 over the lot);
* honest sessions from every chip at random V/T corners;
* cross-chip impersonation attempts (every chip claims every identity);
* an ML adversary that harvested stable CRPs from one chip;
* classical PUF quality metrics (uniqueness / uniformity) for the lot.

Run:  python examples/authentication_fleet.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.metrics import uniformity, uniqueness
from repro.attacks import MlpClassifier, collect_stable_xor_crps
from repro.attacks.features import attack_matrices
from repro.core.adjustment import conservative_betas
from repro.core.server import AuthenticationServer, ModelResponder
from repro.crp.challenges import random_challenges
from repro.service import PROTOCOL_STUDY_CONFIG, AuthenticationService
from repro.silicon.chip import fabricate_lot
from repro.silicon.environment import paper_corner_grid

N_STAGES = 32
N_PUFS = 5
N_CHIPS = 10


def main() -> None:
    print(f"fabricating a {N_CHIPS}-chip lot ({N_PUFS}-XOR, {N_STAGES} stages)...")
    lot = fabricate_lot(N_CHIPS, N_PUFS, N_STAGES, seed=41)

    # Lot statistics before deployment (oracle access, pre-fuse).
    challenges = random_challenges(4000, N_STAGES, seed=42)
    responses = np.stack(
        [chip.oracle().noise_free_response(challenges) for chip in lot]
    )
    print(f"  lot uniqueness (ideal 0.5):  {uniqueness(responses):.3f}")
    print(
        "  per-chip uniformity range:   "
        f"{min(uniformity(r) for r in responses):.3f}"
        f"..{max(uniformity(r) for r in responses):.3f}"
    )

    print("\nenrolling the lot (corner-validated)...")
    server = AuthenticationServer()
    records = []
    for i, chip in enumerate(lot):
        records.append(
            server.enroll(
                chip, seed=50 + i,
                n_enroll_challenges=5000, n_validation_challenges=15_000,
                validation_conditions=paper_corner_grid(),
            )
        )
    fleet_betas = conservative_betas([r.betas for r in records])
    print(f"  fleet-wide conservative betas: {fleet_betas} (paper: 0.74/1.08 style)")
    for record in records:
        server.register(record.with_betas(fleet_betas))

    print("\nhonest sessions (each chip, random corner, 64-bit zero-HD):")
    service = AuthenticationService(server, PROTOCOL_STUDY_CONFIG, seed=60)
    corners = paper_corner_grid()
    approved = 0
    for i, chip in enumerate(lot):
        approved += service.authenticate(chip, condition=corners[i % 9]).approved
    print(f"  {approved}/{N_CHIPS} approved (false-reject rate "
          f"{1 - approved / N_CHIPS:.1%})")

    print("\ncross-impersonation matrix (device claims every identity):")
    false_accepts = 0
    attempts = 0
    for claimed in lot:
        for device in lot:
            if device.chip_id == claimed.chip_id:
                continue
            attempts += 1
            result = service.authenticate(device, claimed_id=claimed.chip_id)
            false_accepts += result.approved
    print(f"  {false_accepts}/{attempts} false accepts")

    print("\n1:N identification (device presents no identity claim):")
    probe = lot[3]
    result = server.identify(probe, n_challenges=64, seed=85, return_scores=True)
    print(f"  device identified as {result.chip_id} "
          f"(match {result.match_fraction:.1%}); runner-up score "
          f"{sorted(result.scores.values())[-2]:.1%}")
    stranger = fabricate_lot(1, N_PUFS, N_STAGES, seed=4242)[0]
    result = server.identify(stranger, n_challenges=64)
    print(f"  unenrolled device: identified as {result.chip_id} "
          f"(best match only {result.match_fraction:.1%})")

    print("\nML adversary (harvests stable CRPs from chip-0, builds a clone):")
    target = lot[0]
    train, test = collect_stable_xor_crps(target.oracle(), 80_000, 100_000, seed=80)
    train_x, train_y, test_x, test_y = attack_matrices(train, test)
    attack = MlpClassifier(seed=81, max_iter=300).fit(train_x, train_y)
    accuracy = attack.score(test_x, test_y)
    clone = ModelResponder(attack, chip_id=target.chip_id)
    sessions = [service.authenticate(clone) for _ in range(10)]
    wins = sum(r.approved for r in sessions)
    print(f"  clone model accuracy {accuracy:.1%}; "
          f"passes {wins}/10 zero-HD sessions")
    print(
        f"  => at n = {N_PUFS} the clone is a real threat; the paper's\n"
        "     mitigation is width (n >= 10), where the stable-CRP supply\n"
        "     and the learning problem both collapse for the attacker."
    )


if __name__ == "__main__":
    main()
