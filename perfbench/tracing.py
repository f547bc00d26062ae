"""In-memory span tracing installed from outside the program.

The benchmark never edits ``src/``.  For a traced run it replaces a
layer's public entry points with timing wrappers *at the name each caller
looks up*: a module-level function is patched in the module that imports
and calls it (``fit_soft_response_model`` in ``repro.core.enrollment``,
``challenge_digests`` in ``repro.service.service``), a method on its
class.  :meth:`Tracer.restore` puts every original attribute back.

Each span records its name, start, end, parent span and, on the front
end's drain thread, the id of the drained batch it served.  Spans stay
in memory until :meth:`Tracer.dump` writes them out when the run ends.
A layer's self time is the duration of its spans minus the part their
child spans cover.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["HOOKS", "LAYERS", "Tracer"]

#: Layers in the order the report lists them (span names are
#: ``<layer>.<entry point>``).
LAYERS = (
    "engine", "crp", "silicon", "enroll", "selection", "codebook",
    "server", "service", "budget", "audit", "frontend",
)


def _count_selected(tracer, args, kwargs, result) -> None:
    tracer.counters["selection.selected"] += len(result[0])


def _count_drawn(tracer, args, kwargs, result) -> None:
    tracer.counters["crp.drawn"] += len(result)


def _count_read(tracer, args, kwargs, result) -> None:
    tracer.counters["silicon.challenges"] += len(result)


def _count_parity(tracer, args, kwargs, result) -> None:
    tracer.counters["crp.parity_bytes"] += result.nbytes


def _count_fit(tracer, args, kwargs, result) -> None:
    tracer.samples["enroll.fit_s"].append(result[1].fit_seconds)


def _count_soft_counts(tracer, args, kwargs, result) -> None:
    tracer.counters["engine.crps"] += result.size
    report = args[0].last_report
    if report is not None:
        tracer.counters["engine.retries"] += report.retries


def _count_scored(tracer, args, kwargs, result) -> None:
    tracer.counters["codebook.rows_scored"] += result.size


def _count_rebuilt(tracer, args, kwargs, result) -> None:
    tracer.counters["codebook.rows_rebuilt"] += int(result)


def _count_appended(tracer, args, kwargs, result) -> None:
    tracer.counters["audit.events"] += 1


def _count_runs(tracer, args, kwargs, result) -> None:
    tracer.counters[f"frontend.batches.{tracer.phase}"] += 1
    tracer.counters[f"frontend.requests.{tracer.phase}"] += len(args[1])
    tracer.counters[f"frontend.runs.{tracer.phase}"] += len(result)


#: ``(span name, module, attribute path, result hook)``.  The module is
#: the one whose namespace the *caller* resolves the name in.
HOOKS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("engine.soft_counts", "repro.engine.engine",
     "EvaluationEngine.soft_counts", _count_soft_counts),
    ("engine.chunk", "repro.engine.engine", "evaluate_chunk", None),
    ("crp.parity", "repro.engine.worker", "parity_features", _count_parity),
    ("crp.parity", "repro.core.regression", "parity_features", _count_parity),
    ("crp.parity", "repro.crp.transform", "parity_features", _count_parity),
    ("crp.parity", "repro.core.selection", "parity_features", _count_parity),
    ("crp.take", "repro.crp.challenges", "ChallengeStream.take", _count_drawn),
    ("silicon.read", "repro.silicon.chip", "PufChip.xor_response", _count_read),
    ("silicon.probability", "repro.silicon.arbiter",
     "ArbiterPuf.response_probability_from_features", None),
    ("enroll.enroll_chip", "repro.core.enrollment", "enroll_chip", None),
    ("enroll.fit", "repro.core.enrollment", "fit_soft_response_model",
     _count_fit),
    ("selection.select", "repro.core.selection", "ChallengeSelector.select",
     _count_selected),
    ("codebook.match_packed", "repro.core.codebook",
     "IdentificationCodebook.match_packed", _count_scored),
    ("codebook.sync", "repro.core.codebook", "IdentificationCodebook.sync",
     _count_rebuilt),
    ("server.identify_many", "repro.core.server",
     "AuthenticationServer.identify_many", None),
    ("server.register", "repro.core.server", "AuthenticationServer.register",
     None),
    ("server.retighten", "repro.core.server",
     "AuthenticationServer.retighten", None),
    ("server.revoke", "repro.core.server", "AuthenticationServer.revoke", None),
    ("service.authenticate", "repro.service.service",
     "AuthenticationService.authenticate", None),
    ("service.authenticate_batch", "repro.service.service",
     "AuthenticationService.authenticate_batch", None),
    ("service.identify_many", "repro.service.service",
     "AuthenticationService.identify_many", None),
    ("service.apply_retightening", "repro.service.service",
     "AuthenticationService.apply_retightening", None),
    ("service.revoke", "repro.service.service",
     "AuthenticationService.revoke", None),
    ("budget.reserve", "repro.service.budget", "ChallengeBudget.reserve",
     None),
    ("audit.append", "repro.service.events", "AuditLog.append",
     _count_appended),
    ("audit.digests", "repro.service.service", "challenge_digests", None),
    ("frontend.split_runs", "repro.service.frontend",
     "BatchingFrontend._split_runs", _count_runs),
)

#: Front-end hooks: the drain entry point (one batch id per drained
#: batch) and the enqueue point (queue-wait start).
FRONTEND_MODULE = "repro.service.frontend"
FRONTEND_EXECUTE = "BatchingFrontend._execute"
FRONTEND_ENQUEUE = "BatchingFrontend._enqueue"


def _resolve(module_name: str, path: str):
    """``(owner, attribute)`` for a dotted path inside *module_name*."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class Tracer:
    """Span recorder; :meth:`install` hooks the layers, :meth:`restore`
    unhooks them.

    Usable as a context manager.  Hooks whose target no longer exists
    (renamed by a later change) are listed in :attr:`absent` instead of
    failing the run.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, int, int, int]] = []
        self.counters: Counter = Counter()
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.absent: List[str] = []
        self.phase = ""
        self.marks: List[Tuple[str, float]] = []
        self._ids = itertools.count()
        self._batches = itertools.count(1)
        self._local = threading.local()
        self._enqueued: Dict[int, float] = {}
        self._installed: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def install(self) -> None:
        """Wrap every hook target that exists."""
        for name, module_name, path, on_result in HOOKS:
            self._patch(module_name, path,
                        lambda original, n=name, h=on_result:
                        self._span_wrapper(n, original, h))
        self._patch(FRONTEND_MODULE, FRONTEND_EXECUTE, self._execute_wrapper)
        self._patch(FRONTEND_MODULE, FRONTEND_ENQUEUE, self._enqueue_wrapper)

    def restore(self) -> None:
        """Put every wrapped attribute back, in reverse install order."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _patch(self, module_name: str, path: str, make_wrapper) -> None:
        try:
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr]
        except (ImportError, AttributeError, KeyError):
            self.absent.append(f"{module_name}.{path}")
            return
        self._installed.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def mark(self, phase: str) -> None:
        """Start a named phase of the timed run (queue waits are kept
        per phase)."""
        self.phase = phase
        self.marks.append((phase, time.perf_counter()))

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, name: str, original, on_result):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((
                    span_id, name, start, end, parent,
                    getattr(tracer._local, "batch", 0),
                    threading.get_ident(),
                ))
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _enqueue_wrapper(self, original):
        tracer = self
        span = self._span_wrapper("frontend.enqueue", original, None)

        def wrapper(frontend, item):
            tracer._enqueued[id(item.future)] = time.perf_counter()
            return span(frontend, item)

        wrapper.__wrapped__ = original
        return wrapper

    def _execute_wrapper(self, original):
        tracer = self
        span = self._span_wrapper("frontend.execute", original, None)

        def wrapper(frontend, batch):
            now = time.perf_counter()
            waits = tracer.samples[f"frontend.queue_wait_s.{tracer.phase}"]
            for item in batch:
                enqueued = tracer._enqueued.pop(id(item.future), None)
                if enqueued is not None:
                    waits.append(now - enqueued)
            tracer._local.batch = next(tracer._batches)
            try:
                return span(frontend, batch)
            finally:
                tracer._local.batch = 0

        wrapper.__wrapped__ = original
        return wrapper

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def self_times(
        self, start: float = float("-inf"), end: float = float("inf")
    ) -> Dict[str, float]:
        """``span name -> total self seconds`` (duration minus children)
        of the spans that began in ``[start, end)``."""
        child_time: Dict[int, float] = defaultdict(float)
        for _, _, s, e, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += e - s
        totals: Dict[str, float] = defaultdict(float)
        for span_id, name, s, e, _, _, _ in self.spans:
            if start <= s < end:
                totals[name] += (e - s) - child_time.get(span_id, 0.0)
        return dict(totals)

    def layer_self_times(self) -> Dict[str, float]:
        """``layer -> total self seconds`` for every layer in :data:`LAYERS`."""
        totals = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_times().items():
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + seconds
        return totals

    def phase_window(self, phase: str) -> Optional[Tuple[float, float]]:
        """``(start, end)`` of a marked phase, or ``None`` if never marked."""
        for (name, start), (_, end) in zip(self.marks, self.marks[1:]):
            if name == phase:
                return start, end
        return None

    def inclusive(self, *names: str) -> Tuple[int, float]:
        """``(calls, inclusive seconds)`` of the spans named in *names*
        whose parent is not one of them (a nested call counts once)."""
        by_id = {span[0]: span[1] for span in self.spans}
        calls, total = 0, 0.0
        for _, name, start, end, parent, _, _ in self.spans:
            if name in names and by_id.get(parent) not in names:
                calls += 1
                total += end - start
        return calls, total

    def dump(self, path: Path) -> Path:
        """Write every span and counter as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = sorted({span[1] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        origin = min((span[2] for span in self.spans), default=0.0)
        document = {
            "names": names,
            "columns": ["id", "name", "start_s", "end_s", "parent", "batch",
                        "thread"],
            "spans": [
                [span_id, index[name], round(start - origin, 7),
                 round(end - origin, 7), parent, batch, thread]
                for span_id, name, start, end, parent, batch, thread
                in self.spans
            ],
            "counters": dict(self.counters),
            "absent": self.absent,
        }
        path.write_text(json.dumps(document))
        return path
