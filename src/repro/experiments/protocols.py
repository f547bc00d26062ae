"""Protocol experiments: authentication, scheme comparison, aging, salvage.

Programmatic runners behind the protocol-level benchmarks (zero-HD
operation, the baselines ablation, the aging lifetime study and the
Sec.-2.2 salvage trade-off).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Sequence

import numpy as np

from repro.baselines.majority_vote import (
    authenticate_majority_vote,
    enroll_majority_vote,
)
from repro.baselines.measurement_selection import (
    authenticate_from_table,
    enroll_measured_table,
)
from repro.baselines.noise_bifurcation import run_noise_bifurcation_session
from repro.core.authentication import authenticate, score_responses
from repro.core.enrollment import enroll_chip
from repro.core.salvage import authenticate_salvage, enroll_salvage
from repro.core.server import AuthenticationServer
from repro.crp.challenges import random_challenges
from repro.service import PROTOCOL_STUDY_CONFIG, AuthenticationService
from repro.silicon.aging import AgingModel, age_chip
from repro.silicon.chip import PufChip, fabricate_lot
from repro.silicon.environment import NOMINAL_CONDITION, paper_corner_grid
from repro.silicon.noise import PAPER_N_TRIALS

from repro.experiments.stability import N_STAGES

__all__ = [
    "run_zero_hd_authentication",
    "run_baseline_comparison",
    "run_aging_study",
    "run_salvage_comparison",
]

#: Aging milestones used by the lifetime study (hours).
AGING_HOURS = (0.0, 1000.0, 8760.0, 43_800.0, 87_600.0)


def run_zero_hd_authentication(
    n_sessions: int,
    n_challenges: int = 64,
    n_pufs: int = 4,
    seed: int = 0,
) -> Dict[str, Any]:
    """T-text-3: error rates of the zero-HD protocol across corners.

    Enrolls a 3-chip lot with corner validation, then serves honest
    sessions rotating through the 9 corners, impostor sessions, and a
    random-challenge control.  Returns the three rates, the highest
    ladder rung that served an honest session (0 = the paper's one-shot
    protocol) and the rungs that served impostor sessions.
    """
    lot = fabricate_lot(3, n_pufs, N_STAGES, seed=seed)
    server = AuthenticationServer()
    for i, chip in enumerate(lot):
        server.enroll(
            chip, seed=seed + 10 + i,
            n_enroll_challenges=5000, n_validation_challenges=20_000,
            validation_conditions=paper_corner_grid(),
        )
    service = AuthenticationService(
        server,
        dataclasses.replace(PROTOCOL_STUDY_CONFIG, n_challenges=n_challenges),
        seed=seed + 1000,
    )
    honest = [
        service.authenticate(
            lot[session % len(lot)], condition=paper_corner_grid()[session % 9]
        )
        for session in range(n_sessions)
    ]
    impostors = fabricate_lot(2, n_pufs, N_STAGES, seed=seed + 777)
    impostor = [
        service.authenticate(
            impostors[session % len(impostors)],
            claimed_id=lot[session % len(lot)].chip_id,
        )
        for session in range(n_sessions)
    ]

    chip = lot[0]
    record = server.record(chip.chip_id)
    control_rejects = 0
    for session in range(n_sessions):
        challenges = random_challenges(
            n_challenges, N_STAGES, seed=seed + 3000 + session
        )
        predicted = record.xor_model.predict_xor_response(challenges)
        control_rejects += not score_responses(
            chip.xor_response(challenges), predicted,
            tolerance=0, condition=NOMINAL_CONDITION,
        ).approved
    return {
        "n_sessions": n_sessions,
        "n_challenges": n_challenges,
        "false_reject_rate": sum(not r.approved for r in honest) / n_sessions,
        "false_accept_rate": sum(r.approved for r in impostor) / n_sessions,
        "random_challenge_reject_rate": control_rejects / n_sessions,
        "honest_max_rung": max(r.rung for r in honest),
        "impostor_rungs": sorted({r.rung for r in impostor}),
    }


def run_baseline_comparison(
    n_candidates: int,
    n_pufs: int = 6,
    seed: int = 0,
) -> Dict[str, Any]:
    """Abl-3: the proposed scheme vs the prior-work baselines.

    Returns per-scheme dicts with enrollment cost, usable-CRP supply,
    server storage, honest/impostor outcomes and criteria.
    """
    results: Dict[str, Any] = {}
    chip = PufChip.create(n_pufs, N_STAGES, seed=seed, chip_id="abl")
    record = enroll_chip(
        chip, n_enroll_challenges=5000, n_validation_challenges=20_000,
        seed=seed + 1,
    )
    selector = record.selector()
    honest = authenticate(chip, selector, 64, seed=seed + 2)
    impostor_chip = PufChip.create(n_pufs, N_STAGES, seed=seed + 99)
    impostor = authenticate(impostor_chip, selector, 64, seed=seed + 3)
    results["proposed"] = {
        "enroll_measurements": n_pufs * (5000 + 20_000) * PAPER_N_TRIALS,
        "usable_crps": "unbounded (model)",
        "storage_floats": n_pufs * (N_STAGES + 1 + 2),
        "honest_ok": honest.approved,
        "impostor_ok": impostor.approved,
        "impostor_hd": impostor.hamming_distance,
        "criterion": "zero HD",
    }

    chip_t = PufChip.create(n_pufs, N_STAGES, seed=seed, chip_id="abl")
    table = enroll_measured_table(chip_t, n_candidates, seed=seed + 4)
    honest_t = authenticate_from_table(chip_t, table, 64, seed=seed + 5)
    impostor_t = authenticate_from_table(impostor_chip, table, 64, seed=seed + 6)
    results["measurement_table"] = {
        "enroll_measurements": n_pufs * n_candidates * PAPER_N_TRIALS,
        "usable_crps": len(table.crps),
        "storage_floats": len(table.crps) * (N_STAGES / 64 + 1),
        "honest_ok": honest_t.approved,
        "impostor_ok": impostor_t.approved,
        "impostor_hd": impostor_t.hamming_distance,
        "criterion": "zero HD (table-limited)",
    }

    chip_m = PufChip.create(n_pufs, N_STAGES, seed=seed, chip_id="abl")
    mv = enroll_majority_vote(chip_m, 5000, n_votes=15, seed=seed + 7)
    honest_m = authenticate_majority_vote(chip_m, mv, 256, seed=seed + 8)
    impostor_m = authenticate_majority_vote(impostor_chip, mv, 256, seed=seed + 9)
    results["majority_vote"] = {
        "enroll_measurements": 5000 * 15,
        "usable_crps": 5000,
        "storage_floats": 5000 * (N_STAGES / 64 + 1),
        "honest_ok": honest_m.approved,
        "impostor_ok": impostor_m.approved,
        "impostor_hd": impostor_m.hamming_distance,
        "criterion": "HD <= 10 %",
    }

    chip_n = PufChip.create(n_pufs, N_STAGES, seed=seed, chip_id="abl")
    honest_n = run_noise_bifurcation_session(
        chip_n, record.xor_model, 256, seed=seed + 10
    )
    impostor_n = run_noise_bifurcation_session(
        impostor_chip, record.xor_model, 256, seed=seed + 11
    )
    results["noise_bifurcation"] = {
        "enroll_measurements": n_pufs * (5000 + 20_000) * PAPER_N_TRIALS,
        "usable_crps": "unbounded (model)",
        "storage_floats": n_pufs * (N_STAGES + 1),
        "honest_ok": honest_n.approved,
        "impostor_ok": impostor_n.approved,
        "impostor_hd": 1.0 - impostor_n.match_fraction,
        "criterion": "match >= 90 % (vs 75 % guess baseline)",
    }
    return results


def run_aging_study(
    n_selected: int,
    aging_amplitude: float = 0.30,
    n_pufs: int = 4,
    seed: int = 0,
) -> Dict[str, Any]:
    """Abl-5: selected-CRP flip rates over an accelerated aging life.

    Returns the milestone ``hours``, both enrollment beta pairs and a
    per-policy series of flip rates.
    """
    chip_nominal = PufChip.create(n_pufs, N_STAGES, seed=seed, chip_id="age")
    chip_corner = PufChip.create(n_pufs, N_STAGES, seed=seed, chip_id="age")
    record_nominal = enroll_chip(
        chip_nominal, n_enroll_challenges=5000,
        n_validation_challenges=20_000, seed=seed + 1,
    )
    record_corner = enroll_chip(
        chip_corner, n_enroll_challenges=5000, n_validation_challenges=20_000,
        validation_conditions=paper_corner_grid(), seed=seed + 1,
    )
    selections = {
        "nominal_beta": record_nominal.selector().select(n_selected, seed=seed + 2),
        "corner_beta": record_corner.selector().select(n_selected, seed=seed + 2),
    }
    model = AgingModel(amplitude=aging_amplitude)
    series: Dict[str, list] = {name: [] for name in selections}
    for hours in AGING_HOURS:
        aged = age_chip(chip_nominal, hours, model, seed=seed + 3)
        for name, (challenges, predicted) in selections.items():
            responses = aged.xor_response(challenges)
            series[name].append(float((responses != predicted).mean()))
    return {
        "hours": list(AGING_HOURS),
        "betas_nominal": (record_nominal.betas.beta0, record_nominal.betas.beta1),
        "betas_corner": (record_corner.betas.beta0, record_corner.betas.beta1),
        "flip_rates": series,
    }


def run_salvage_comparison(
    n_candidates: int,
    n_pufs: int = 8,
    seed: int = 0,
) -> Dict[str, Any]:
    """Abl-6: model selection vs XOR-level soft-response salvage.

    Returns per-policy dicts (yield, enrollment reads, outcomes,
    criterion) plus the all-stable 0.8**n reference yield.
    """
    chip_a = PufChip.create(n_pufs, N_STAGES, seed=seed, chip_id="salv")
    record_model = enroll_chip(
        chip_a, n_enroll_challenges=5000, n_validation_challenges=20_000,
        seed=seed + 1,
    )
    selector = record_model.selector()
    probe = random_challenges(50_000, N_STAGES, seed=seed + 2)
    model_yield = selector.predicted_stable_fraction(probe)
    honest_model = authenticate(chip_a, selector, 64, seed=seed + 3)
    impostor_chip = PufChip.create(n_pufs, N_STAGES, seed=seed + 99)
    impostor_model = authenticate(impostor_chip, selector, 64, seed=seed + 4)

    chip_b = PufChip.create(n_pufs, N_STAGES, seed=seed, chip_id="salv")
    record_salvage = enroll_salvage(
        chip_b, n_candidates, soft_threshold=0.02, n_trials=1500,
        seed=seed + 5,
    )
    honest_salvage = authenticate_salvage(
        chip_b, record_salvage, 256, seed=seed + 6
    )
    impostor_salvage = authenticate_salvage(
        impostor_chip, record_salvage, 256, seed=seed + 7
    )
    return {
        "model": {
            "yield": model_yield,
            "enroll_reads": n_pufs * (5000 + 20_000) * PAPER_N_TRIALS,
            "honest_ok": honest_model.approved,
            "impostor_ok": impostor_model.approved,
            "criterion": "zero HD, one-shot",
        },
        "salvage": {
            "yield": record_salvage.yield_fraction,
            "enroll_reads": n_candidates * 1500,
            "honest_ok": honest_salvage.approved,
            "impostor_ok": impostor_salvage.approved,
            "criterion": (
                f"HD <= {honest_salvage.tolerance}/256, 5-vote majority"
            ),
        },
        "all_stable_reference_yield": 0.8**n_pufs,
    }
