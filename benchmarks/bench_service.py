"""Serving-path resilience ablation: degradation ladder on vs frozen.

The question an operator asks before enabling the drift-aware ladder:
what does it buy at a V/T corner, and what does it cost at nominal?
Two identical drifting-fleet traffic replays answer it:

* **frozen** -- the service pinned to rung 0 (the paper's plain zero-HD
  protocol, Fig. 7): every corner drift flip is a false reject.
* **ladder** -- the full monitor (zero-HD -> k-shot majority vote ->
  threshold re-tightening), which should hold corner availability near
  nominal at the price of extra device reads and selection work.

Sec. 5.2 of the paper motivates the rung-2 fix: thresholds validated
only at nominal mispredict stability at the corners, and the margin has
to come from (re-)selection.  ``repro-puf bench run service_resilience``
records the results in ``benchmarks/results/service_resilience.json``.
"""

from repro.bench import matrix, run_for_test
from repro.service import DriftPolicy, ServiceConfig, run_serve_sim

#: Drift policy that never moves: the monitor needs more samples than
#: the trace can ever provide, freezing the service at rung 0.
FROZEN_DRIFT = DriftPolicy(
    window=10_000, min_samples=10_000, escalate_frr=1.0, recover_clean=10_000
)


def _run(n_chips, steps, config=None):
    nominal, ramp, corner, back = steps
    return run_serve_sim(
        n_chips=n_chips,
        nominal_steps=nominal,
        ramp_steps=ramp,
        corner_steps=corner,
        return_steps=back,
        fault_chip=None,  # ablate drift handling, not device faults
        config=config,
    )


@matrix.cell(
    "service_resilience",
    title="Serving-path resilience: degradation ladder ablation",
    tiers={
        "smoke": {"n_chips": 2, "steps": [24, 8, 40, 8]},
        "laptop": {"n_chips": 2, "steps": [24, 8, 40, 8]},
        "paper": {"n_chips": 5, "steps": [80, 150, 80, 80]},
    },
    warmup=0,
)
def service_resilience_cell(ctx):
    n_chips = ctx.params["n_chips"]
    steps = tuple(ctx.params["steps"])
    n_requests = sum(steps)
    frozen_config = ServiceConfig(
        breaker_failure_threshold=3,
        max_requests_per_window=0,
        lockout_threshold=0,
        drift=FROZEN_DRIFT,
        pool_capacity=(n_requests // n_chips + 1) * 64 * 2,
    )

    ladder = _run(n_chips, steps)
    frozen = _run(n_chips, steps, config=frozen_config)
    return {
        "n_chips": n_chips,
        "n_requests": n_requests,
        "no_replay": bool(ladder.no_replay and frozen.no_replay),
        "frozen_rung_moves": {c: m for c, m in frozen.rung_moves.items()},
        "frozen": {
            "phases": frozen.phases,
            "latency_mean": frozen.latency_mean,
            "latency_p95": frozen.latency_p95,
        },
        "ladder": {
            "phases": ladder.phases,
            "latency_mean": ladder.latency_mean,
            "latency_p95": ladder.latency_p95,
            "rung_moves": {c: m for c, m in ladder.rung_moves.items()},
            "flagged_chips": ladder.flagged_chips,
        },
    }


def _phase(side, name, key):
    return side["phases"][name][key]


def _report(run):
    r = run.payload
    frozen, ladder = r["frozen"], r["ladder"]
    lines = [
        f"  fleet: {r['n_chips']} chips, {r['n_requests']} requests per replay",
        "",
        f"  {'':<26} {'frozen zero-HD':>16} {'ladder':>16}",
    ]
    for name in ("nominal", "corner"):
        lines.append(
            f"  {name + ' availability':<26}"
            f" {_phase(frozen, name, 'availability'):>15.1%}"
            f" {_phase(ladder, name, 'availability'):>15.1%}"
        )
        lines.append(
            f"  {name + ' FRR':<26}"
            f" {_phase(frozen, name, 'frr'):>15.1%}"
            f" {_phase(ladder, name, 'frr'):>15.1%}"
        )
    lines += [
        f"  {'latency mean':<26} {frozen['latency_mean']:>14.3f}s"
        f" {ladder['latency_mean']:>14.3f}s",
        f"  {'latency p95':<26} {frozen['latency_p95']:>14.3f}s"
        f" {ladder['latency_p95']:>14.3f}s",
        "",
        f"  ladder rung moves: {ladder['rung_moves']}",
        f"  flagged for re-tightening: {ladder['flagged_chips']}",
    ]
    return lines


def test_ladder_vs_frozen_zero_hd(capsys):
    run = run_for_test("service_resilience", capsys, report=_report)
    r = run.payload
    assert r["no_replay"]
    assert r["frozen_rung_moves"] == {} or all(
        not moves for moves in r["frozen_rung_moves"].values()
    )
    # The ablation's headline: the ladder must not hurt nominal and
    # must materially help the corner.
    assert _phase(r["ladder"], "nominal", "availability") >= 0.95
    assert (
        _phase(r["ladder"], "corner", "availability")
        >= _phase(r["frozen"], "corner", "availability")
    )
