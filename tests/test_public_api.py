"""Public-API surface checks: __all__ is accurate everywhere."""

from __future__ import annotations

import importlib
import pkgutil
import textwrap

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.attacks",
    "repro.baselines",
    "repro.core",
    "repro.crp",
    "repro.engine",
    "repro.experiments",
    "repro.silicon",
    "repro.utils",
]


def _all_modules():
    names = list(PACKAGES)
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        if hasattr(package, "__path__"):
            for info in pkgutil.iter_modules(package.__path__):
                names.append(f"{package_name}.{info.name}")
    return sorted(set(names))


@pytest.mark.parametrize("module_name", _all_modules())
def test_module_imports(module_name):
    importlib.import_module(module_name)


@pytest.mark.parametrize("module_name", _all_modules())
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    for name in exported:
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name!r}"


def test_top_level_quickstart_names():
    """The names used by the README quickstart exist at the top level."""
    for name in (
        "PufChip",
        "XorArbiterPuf",
        "ArbiterPuf",
        "OperatingCondition",
        "paper_corner_grid",
        "enroll_chip",
        "EnrollmentRecord",
        "AuthenticationServer",
        "authenticate",
        "AuthResult",
        "ChallengeSelector",
        "ThresholdPair",
        "BetaFactors",
        "CrpDataset",
        "SoftResponseDataset",
        "random_challenges",
        "parity_features",
    ):
        assert hasattr(repro, name), f"repro.{name} missing"


class _RecordingChip:
    """Passes reads through to *chip*, keeping each challenge set sent."""

    def __init__(self, chip):
        self._chip = chip
        self.chip_id = chip.chip_id
        self.sent = []

    def xor_response(self, challenges, condition=repro.NOMINAL_CONDITION):
        self.sent.append({row.tobytes() for row in challenges})
        return self._chip.xor_response(challenges, condition)


def test_quickstart_flow_never_replays_challenges():
    """Repeating the package docstring's authentication issues pairwise
    disjoint challenge sets: the public API never replays a transcript."""
    quickstart = textwrap.dedent(repro.__doc__.split("Quickstart::")[1])
    setup, _, session = quickstart.partition("result = ")
    namespace = {}
    exec(setup, namespace)
    chip = namespace["chip"] = _RecordingChip(namespace["chip"])
    for _ in range(3):
        exec("result = " + session, namespace)
    assert len(chip.sent) == 3
    assert all(len(rows) == 64 for rows in chip.sent)
    assert len(set().union(*chip.sent)) == 3 * 64


def test_version_string():
    assert repro.__version__.count(".") == 2
