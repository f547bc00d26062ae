"""Benchmark matrix vocabulary: cases, cells, and the registry.

A :class:`BenchmarkCase` is one benchmark body plus its scale-tier
parameter sets and gating metadata.  A *cell* is one concrete point of
the matrix -- case x tier x jobs -- identified by a stable string id
(``soft_sweep:smoke:j1:numpy``) that keys the committed trajectory in
``BENCH_throughput.json``.  The id's last field names the kernel
implementation (:func:`repro.kernels.current_backend_name`), which is
always ``numpy``; it stays so recorded ids keep matching.

Bench modules register cases on the module-level :data:`matrix`
registry::

    from repro.bench import matrix

    @matrix.cell(
        "soft_sweep",
        tiers={"smoke": {"n_challenges": 50_000},
               "laptop": {"n_challenges": 200_000},
               "paper": {"n_challenges": 1_000_000}},
        metric="speedup", unit="x", direction="higher",
        trajectory=True, gated=True,
    )
    def soft_sweep(ctx):
        ...
        return {"speedup": t_seed / t_engine, ...}

The function receives a :class:`CellContext` and returns a JSON-able
payload containing at least the declared metric key.  The execution
layer (:mod:`repro.bench.execution`) handles warmup, repetition, and
artifact writing.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Sequence, Tuple

from repro.kernels import current_backend_name

from .scale import DEFAULT_SAMPLES, TIERS

__all__ = ["BenchmarkCase", "CellContext", "Matrix", "matrix", "cell_id"]


def cell_id(case: str, tier: str, jobs: int, backend: str) -> str:
    """The stable identifier of one matrix cell."""
    return f"{case}:{tier}:j{jobs}:{backend}"


@dataclasses.dataclass(frozen=True)
class CellContext:
    """Everything a benchmark body needs to run one cell."""

    case: str
    tier: str
    params: Mapping[str, Any]
    jobs: int = 1
    chunk_size: Optional[int] = None

    @property
    def backend(self) -> str:
        return current_backend_name()

    @property
    def cell_id(self) -> str:
        return cell_id(self.case, self.tier, self.jobs, self.backend)


@dataclasses.dataclass(frozen=True)
class BenchmarkCase:
    """One benchmark and its place in the matrix.

    ``metric`` names the payload key carrying the cell's primary
    scalar; the special value ``"elapsed_seconds"`` means "wall-clock
    of the body", which the runner stamps into the payload itself.
    ``trajectory`` cells merge their stats into the repo-root
    ``BENCH_throughput.json``; ``gated`` cells (a subset) additionally
    fail ``repro-puf bench compare`` when they regress.  Ratio metrics
    (speedups) should be gated -- they transfer across machines --
    while absolute throughputs are usually trajectory-only.
    """

    name: str
    fn: Callable[[CellContext], Mapping[str, Any]]
    tiers: Mapping[str, Mapping[str, Any]]
    metric: str = "elapsed_seconds"
    unit: str = "s"
    direction: str = "lower"
    samples: Optional[Mapping[str, int]] = None
    warmup: int = 1
    trajectory: bool = False
    gated: bool = False
    title: str = ""

    def __post_init__(self) -> None:
        if self.direction not in ("higher", "lower"):
            raise ValueError(
                f"case {self.name!r}: direction must be 'higher' or "
                f"'lower', got {self.direction!r}"
            )
        unknown = set(self.tiers) - set(TIERS)
        if unknown:
            raise ValueError(
                f"case {self.name!r}: unknown tiers {sorted(unknown)} "
                f"(expected a subset of {list(TIERS)})"
            )
        if not self.tiers:
            raise ValueError(f"case {self.name!r}: at least one tier required")

    def params_for(self, tier: str) -> Mapping[str, Any]:
        """Tier parameters, falling back down the tier ladder.

        A case that only defines ``laptop`` still runs at ``smoke``
        (same shape, more samples) and at ``paper`` (same shape --
        explicitly defining the paper shape is opt-in work).
        """
        if tier in self.tiers:
            return self.tiers[tier]
        order = list(TIERS)
        at = order.index(tier)
        # Prefer the nearest *smaller* tier (never silently run bigger
        # work than asked for), then the nearest larger one.
        for other in order[:at][::-1] + order[at + 1:]:
            if other in self.tiers:
                return self.tiers[other]
        raise KeyError(tier)

    def samples_for(self, tier: str) -> int:
        """Timed samples for *tier* (case override, else matrix default)."""
        if self.samples and tier in self.samples:
            return max(1, int(self.samples[tier]))
        return DEFAULT_SAMPLES.get(tier, 1)


class Matrix:
    """The benchmark-case registry.

    One process-wide instance (:data:`matrix`) collects every case the
    imported bench modules declare.  Re-registering a name replaces the
    old case, so module reloads (pytest, CLI discovery) are harmless.
    """

    def __init__(self) -> None:
        self._cases: Dict[str, BenchmarkCase] = {}

    def cell(self, name: str, **kwargs: Any) -> Callable:
        """Decorator registering *fn* as the body of case *name*."""

        def decorate(fn: Callable[[CellContext], Mapping[str, Any]]):
            self.register(BenchmarkCase(name=name, fn=fn, **kwargs))
            return fn

        return decorate

    def register(self, case: BenchmarkCase) -> BenchmarkCase:
        self._cases[case.name] = case
        return case

    def get(self, name: str) -> BenchmarkCase:
        try:
            return self._cases[name]
        except KeyError:
            known = ", ".join(sorted(self._cases)) or "none registered"
            raise KeyError(
                f"unknown benchmark case {name!r} (known: {known})"
            ) from None

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._cases))

    def __contains__(self, name: str) -> bool:
        return name in self._cases

    def __iter__(self) -> Iterator[BenchmarkCase]:
        for name in self.names():
            yield self._cases[name]

    def __len__(self) -> int:
        return len(self._cases)

    def select(self, names: Optional[Sequence[str]] = None) -> Tuple[BenchmarkCase, ...]:
        """The cases to run: all registered, or the named subset."""
        if not names:
            return tuple(self)
        return tuple(self.get(name) for name in names)


#: The process-wide registry every bench module registers into.
matrix = Matrix()
