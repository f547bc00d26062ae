"""In-text claim T-3: zero-Hamming-distance authentication works.

Paper Sec. 3: because model-selected CRPs are extremely stable, "the
server may grant access only when the client responses and server
predicted responses match perfectly (i.e., zero Hamming distance)" --
across supply/temperature corners, with one-shot response sampling.

This bench measures false-reject and false-accept rates of the whole
protocol, served by the authentication service: honest chips at all 9
corners, impostor chips, and a random-challenge control showing why
selection is necessary for the zero-HD policy.  Honest sessions must
all be served at ladder rung 0, the paper's one-shot protocol.
"""


from repro.bench import format_row, matrix, run_for_test
from repro.experiments.protocols import run_zero_hd_authentication as run_experiment

N_STAGES = 32
N_PUFS = 4


@matrix.cell(
    "text_authentication",
    title="T-text-3 -- zero-HD authentication across V/T corners",
    tiers={
        "smoke": {"n_sessions": 40, "n_challenges": 64},
        "laptop": {"n_sessions": 60, "n_challenges": 64},
        "paper": {"n_sessions": 400, "n_challenges": 64},
    },
)
def text_authentication_cell(ctx):
    return run_experiment(ctx.params["n_sessions"], ctx.params["n_challenges"])


def _report(run):
    result = run.payload
    return [
        f"  {run.context.params['n_sessions']} sessions x "
        f"{run.context.params['n_challenges']} selected challenges, "
        f"3 chips, 9 corners",
        format_row(
            "false rejects (honest)", "0",
            f"{result['false_reject_rate']:.1%}",
        ),
        format_row(
            "false accepts (impostor)", "0",
            f"{result['false_accept_rate']:.1%}",
        ),
        format_row(
            "random-challenge rejects", "high (why selection exists)",
            f"{result['random_challenge_reject_rate']:.1%}",
        ),
        format_row(
            "highest honest rung", "0 (one-shot)",
            str(result["honest_max_rung"]),
            f"(impostor rungs {result['impostor_rungs']})",
        ),
    ]


def test_zero_hd_authentication(capsys):
    run = run_for_test("text_authentication", capsys, report=_report)
    result = run.payload
    assert result["false_reject_rate"] == 0.0
    assert result["false_accept_rate"] == 0.0
    assert result["random_challenge_reject_rate"] > 0.5
    assert result["honest_max_rung"] == 0
