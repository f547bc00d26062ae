"""The fleet-lifecycle chaos driver and its acceptance gates.

The quick smoke runs in tier-1; the year-long soak with the full fault
plan is marked ``chaos`` and runs in its own CI job (`pytest -m chaos`).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.faults import FaultPlan, FaultSpec, Site
from repro.service import AuthOutcome, LifecycleConfig, run_lifecycle_sim
from repro.service.scenario import Scenario

pytestmark = [pytest.mark.service]

QUICK = LifecycleConfig(
    n_chips=3,
    ticks=4,
    requests_per_chip=3,
    enroll_interval=3,
    revoke_interval=3,
    storm_interval=0,
    identify_probes=2,
    n_enroll_challenges=1000,
    n_validation_challenges=4000,
)


class TestLifecycleSmoke:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="ticks"):
            LifecycleConfig(ticks=0)

    def test_quick_life_passes_gates(self, tmp_path):
        report = run_lifecycle_sim(QUICK, seed=11, workdir=tmp_path / "db")
        assert report.passed, report.gates
        assert report.no_replay
        assert report.revoked_total >= 1
        assert report.revoked_approvals == 0
        assert report.revoked_identify_hits == 0
        assert report.frr <= QUICK.max_nominal_frr
        assert report.availability >= QUICK.min_availability
        assert report.max_served_stale_rows <= QUICK.max_stale_rows
        # Persistence ran every maintenance tick and reloads succeeded.
        assert report.persist_saves > 0
        assert report.reloads == report.persist_saves

    def test_report_round_trips_as_json(self, tmp_path):
        report = run_lifecycle_sim(QUICK, seed=11)
        path = report.save(tmp_path / "life.json")
        assert path.exists()
        payload = path.read_text()
        assert '"passed": true' in payload

    def test_deterministic_given_seed(self):
        first = run_lifecycle_sim(QUICK, seed=13)
        second = run_lifecycle_sim(QUICK, seed=13)
        assert first.outcome_counts == second.outcome_counts
        assert first.frr == second.frr
        assert first.codebook == second.codebook

    def test_concurrent_clients_pass_the_same_gates(self, tmp_path):
        config = dataclasses.replace(QUICK, clients=4)
        report = run_lifecycle_sim(config, seed=11, workdir=tmp_path / "db")
        assert report.passed, report.gates
        assert report.no_replay
        assert report.revoked_approvals == 0
        assert report.frr <= config.max_nominal_frr
        assert report.availability >= config.min_availability
        stats = report.params["frontend"]
        assert report.params["config"]["clients"] == 4
        assert stats["shed"] == 0
        assert stats["batches"] > 0
        assert stats["submitted"] > 0

    def test_sharded_plane_under_concurrent_clients(self):
        # Inline shards refresh and re-layout under churn, revocation
        # and a retighten storm while the front end coalesces traffic.
        config = LifecycleConfig(n_chips=4, ticks=6, sharded=True, clients=4)
        report = run_lifecycle_sim(config, seed=7)
        assert report.passed, report.gates
        assert report.no_replay
        assert report.revoked_approvals == 0
        assert report.revoked_identify_hits == 0
        fleet = report.params["fleet"]
        assert fleet["min_coverage"] == 1.0
        assert fleet["events"].get("shard-relayout", 0) > 0
        stats = report.params["frontend"]
        assert stats["shed"] == 0
        assert 0 < stats["batches"] < stats["submitted"]

    def test_every_identification_is_audited(self, monkeypatch):
        # The per-tick probes and the revoked devices' identify sweeps
        # both go through the service, so the security record holds one
        # identified/unidentified event per identification request.
        audits = []
        report_run = Scenario.report

        def capture(self, *args, **kwargs):
            audits.append(self.service.audit)
            return report_run(self, *args, **kwargs)

        monkeypatch.setattr(Scenario, "report", capture)
        report = run_lifecycle_sim(LifecycleConfig(n_chips=4, ticks=6), seed=7)
        assert report.passed, report.gates
        (audit,) = audits
        identify_events = [
            event for event in audit
            if event.outcome in (AuthOutcome.IDENTIFIED, AuthOutcome.UNIDENTIFIED)
        ]
        identify_requests = (
            report.params["identified_hits"]
            + report.params["identified_misses"]
            + report.revoked_probes
        )
        assert report.revoked_probes > 0
        assert len(identify_events) == identify_requests


@pytest.mark.chaos
@pytest.mark.faults
@pytest.mark.timeout(600)
class TestYearSoak:
    def test_year_of_chaos_passes_gates(self, tmp_path):
        """A simulated year under the full fault plan still meets SLOs.

        Twelve monthly ticks of churn, aging, retighten storms and
        revocation waves, with a maintenance tick killed outright, a
        codebook sync crashed mid-flight, and persistence hit by both
        corrupting and failing writers -- the gates (FRR, availability,
        zero replays, zero revoked approvals, bounded staleness) must
        all hold.
        """
        config = LifecycleConfig(ticks=12)
        faults = FaultPlan([
            FaultSpec(Site.SERVICE_LIFECYCLE, kind="crash", at=3),
            FaultSpec(Site.CODEBOOK_SYNC, kind="crash", at=2),
            FaultSpec(Site.CODEBOOK_PERSIST, kind="corrupt", at=4),
            FaultSpec(Site.CODEBOOK_PERSIST, kind="io", at=7),
        ])
        report = run_lifecycle_sim(
            config, seed=7, faults=faults, workdir=tmp_path / "db",
        )
        assert report.passed, report.gates
        assert report.simulated_hours == pytest.approx(12 * 730.0)
        # The chaos actually landed ...
        assert report.maintenance_crashes == 1
        assert report.sync_crashes >= 1
        assert report.persist_failures >= 1
        assert report.corrupt_recoveries >= 1
        # ... and none of it broke the security invariants.
        assert report.no_replay
        assert report.revoked_approvals == 0
        assert report.revoked_identify_hits == 0
        assert report.max_served_stale_rows <= config.max_stale_rows
