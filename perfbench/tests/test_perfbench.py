"""The benchmark's own tests: seeded generators, failure detection, tracing.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads
from repro.silicon.chip import PufChip
from repro.silicon.environment import NOMINAL_CONDITION


BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _audit_trail(service):
    return [
        (event.chip_id, event.outcome.value, event.digests)
        for event in service.audit
    ]


def test_campaign_pass_repeats_for_a_seed():
    campaign = workloads.WORKLOADS["campaign"]
    first, second = campaign.setup(3), campaign.setup(3)
    digest, fractions = campaign.one_pass(first)
    assert campaign.one_pass(second) == (digest, pytest.approx(fractions))
    assert campaign.one_pass(campaign.setup(4))[0] != digest


def test_lifecycle_generator_is_deterministic():
    lifecycle = workloads.WORKLOADS["lifecycle"]
    trails = []
    for _ in range(2):
        state = lifecycle.setup(5)
        rows = len(state["server"].active_ids)
        assert all(lifecycle.step(state) for _ in lifecycle.BLOCK)
        # A block adds as many identities as it revokes.
        assert len(state["server"].active_ids) == rows
        trails.append(_audit_trail(state["service"]))
    assert trails[0] == trails[1]
    assert {outcome for _, outcome, _ in trails[0]} >= {
        "approved", "identified", "revoked"
    }


def test_auth_generator_is_deterministic():
    auth = workloads.WORKLOADS["auth"]
    trails = []
    for _ in range(2):
        state = auth.setup(6)
        try:
            auth.warm(state)
        finally:
            auth.close(state)
        assert state["warm_failures"] == 0
        trails.append(_audit_trail(state["service"]))
    assert trails[0] == trails[1]


def test_identify_setup_is_deterministic():
    identify = workloads.WORKLOADS["identify"]
    states = [identify.setup(7) for _ in range(2)]
    try:
        assert states[0]["expected"] == states[1]["expected"]
        for a, b in zip(states[0]["transcripts"], states[1]["transcripts"]):
            np.testing.assert_array_equal(a._responses, b._responses)
        picks = [
            [int(state["picks"].integers(100)) for _ in range(20)]
            for state in states
        ]
        assert picks[0] == picks[1]
    finally:
        for state in states:
            identify.close(state)


def test_bit_flipping_responder_fails_the_run(monkeypatch, capsys):
    genuine = PufChip.xor_response

    def flipped(self, challenges, condition=NOMINAL_CONDITION):
        responses = np.array(genuine(self, challenges, condition))
        responses[0] ^= 1
        return responses

    monkeypatch.setattr(PufChip, "xor_response", flipped)
    code = run.main(
        ["--workload", "auth", "--seed", "1", "--seconds", "1", "--trace", "0"]
    )
    result = _last_json(capsys)
    assert code != 0
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}


def test_traced_run_reports_every_per_layer_metric(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run.main(
        ["--workload", "campaign", "--seed", "2", "--seconds", "1", "--trace", "1"]
    )
    result = _last_json(capsys)
    assert code == 0 and result["correct"] is True
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert metrics["engine.ms_per_mcrp"]["value"] > 0
    assert metrics["enroll.ms_per_chip"]["value"] > 0
    assert metrics["selection.calls"]["value"] == 0
    assert (tmp_path / ".perfbench" / "trace-campaign-seed2.json").is_file()


def test_tracer_restores_every_wrapped_attribute():
    targets = [
        tracing._resolve(module, path)
        for _, module, path, _ in tracing.HOOKS
    ] + [
        tracing._resolve(tracing.FRONTEND_MODULE, tracing.FRONTEND_EXECUTE),
        tracing._resolve(tracing.FRONTEND_MODULE, tracing.FRONTEND_ENQUEUE),
    ]
    originals = [owner.__dict__[attr] for owner, attr in targets]
    with tracing.Tracer() as tracer:
        assert tracer.absent == []
        for (owner, attr), original in zip(targets, originals):
            assert owner.__dict__[attr] is not original
    for (owner, attr), original in zip(targets, originals):
        assert owner.__dict__[attr] is original


def test_missing_hook_is_reported_absent(monkeypatch):
    monkeypatch.setattr(
        tracing, "HOOKS",
        tracing.HOOKS + (("server.gone", "repro.core.server",
                          "AuthenticationServer.renamed_away", None),),
    )
    with tracing.Tracer() as tracer:
        pass
    assert tracer.absent == ["repro.core.server.AuthenticationServer.renamed_away"]


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        (0, "service.authenticate", 0.0, 10.0, -1, 0, 1),
        (1, "selection.select", 1.0, 4.0, 0, 0, 1),
        (2, "crp.take", 1.5, 2.0, 1, 0, 1),
        (3, "audit.append", 5.0, 6.0, 0, 0, 1),
    ]
    assert tracer.self_times() == pytest.approx({
        "service.authenticate": 6.0,
        "selection.select": 2.5,
        "crp.take": 0.5,
        "audit.append": 1.0,
    })
