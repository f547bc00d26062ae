"""Integration tests: whole flows across modules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.harness import collect_stable_xor_crps
from repro.attacks.mlp import MlpClassifier
from repro.attacks.features import attack_matrices
from repro.core.adjustment import BetaFactors, conservative_betas
from repro.core.enrollment import enroll_chip
from repro.core.server import AuthenticationServer, ModelResponder
from repro.crp.challenges import random_challenges
from repro.silicon.chip import fabricate_lot
from repro.silicon.environment import paper_corner_grid

N_STAGES = 32


class TestFleetWorkflow:
    """The deployment story: a lot of chips, one server, fleet betas."""

    @pytest.fixture(scope="class")
    def fleet(self):
        chips = fabricate_lot(3, 3, N_STAGES, seed=1)
        server = AuthenticationServer()
        records = [
            server.enroll(
                chip, seed=10 + i,
                n_enroll_challenges=1500, n_validation_challenges=6000,
            )
            for i, chip in enumerate(chips)
        ]
        return chips, server, records

    def test_every_chip_authenticates_as_itself(self, fleet, serve):
        chips, server, _ = fleet
        service = serve(server, seed=2, n_challenges=64)
        for chip in chips:
            assert service.authenticate(chip).approved

    def test_no_chip_authenticates_as_another(self, fleet, serve):
        chips, server, _ = fleet
        service = serve(server, seed=3, n_challenges=96)
        for claimed in chips:
            for device in chips:
                if device.chip_id == claimed.chip_id:
                    continue
                result = service.authenticate(device, claimed_id=claimed.chip_id)
                assert not result.approved

    def test_fleet_wide_betas_still_sound(self, fleet, serve):
        """Applying the conservative fleet betas to every record keeps
        honest authentication working (paper Sec. 5.1)."""
        chips, _, records = fleet
        fleet_betas = conservative_betas([r.betas for r in records])
        server = AuthenticationServer(
            {r.chip_id: r.with_betas(fleet_betas) for r in records}
        )
        service = serve(server, seed=4, n_challenges=64)
        for chip in chips:
            assert service.authenticate(chip).approved


class TestVtHardenedWorkflow:
    """Enrollment with corner validation survives every corner."""

    def test_corner_enrolled_chip_authenticates_everywhere(self, serve):
        lot = fabricate_lot(1, 4, N_STAGES, seed=5)
        chip = lot[0]
        record = enroll_chip(
            chip,
            n_enroll_challenges=2000,
            n_validation_challenges=6000,
            validation_conditions=paper_corner_grid(),
            seed=6,
        )
        service = serve(
            AuthenticationServer({chip.chip_id: record}), seed=7, n_challenges=96
        )
        for condition in paper_corner_grid():
            result = service.authenticate(chip, condition=condition)
            assert result.approved, f"denied at {condition}: {result}"


class TestAttackVsProtocol:
    """The security story end to end: train an attack, present the clone."""

    def test_clone_of_narrow_xor_puf_threatens_protocol(self, serve):
        """For small n the MLP clone predicts stable CRPs well -- the
        quantitative reason the paper demands n >= 10."""
        chip = fabricate_lot(1, 2, N_STAGES, seed=8)[0]
        record = enroll_chip(
            chip, n_enroll_challenges=1500, n_validation_challenges=6000, seed=9
        )
        train, test = collect_stable_xor_crps(
            chip.oracle(), 40_000, 100_000, seed=10
        )
        train_x, train_y, test_x, test_y = attack_matrices(train, test)
        attack = MlpClassifier(seed=11, max_iter=250).fit(train_x, train_y)
        assert attack.score(test_x, test_y) > 0.95

        service = serve(
            AuthenticationServer({chip.chip_id: record}), seed=12, n_challenges=512
        )
        clone = ModelResponder(attack, chip_id=chip.chip_id)
        # A >95 %-accurate clone passes 64-bit zero-HD sessions sometimes;
        # measure its per-bit hit rate through the protocol instead.
        result = service.authenticate(clone)
        assert result.auth.hamming_distance < 0.1

    def test_undertrained_clone_fails_protocol(self, serve):
        chip = fabricate_lot(1, 4, N_STAGES, seed=13)[0]
        record = enroll_chip(
            chip, n_enroll_challenges=1500, n_validation_challenges=6000, seed=14
        )
        train, test = collect_stable_xor_crps(chip.oracle(), 4000, 100_000, seed=15)
        train_x, train_y, *_ = attack_matrices(train, test)
        # Tiny training set: the 4-XOR structure is not learnable from it.
        attack = MlpClassifier(seed=16, max_iter=120).fit(
            train_x[:600], train_y[:600]
        )
        service = serve(
            AuthenticationServer({chip.chip_id: record}), seed=17, n_challenges=256
        )
        clone = ModelResponder(attack, chip_id=chip.chip_id)
        result = service.authenticate(clone)
        assert not result.approved
        assert result.auth.hamming_distance > 0.2
