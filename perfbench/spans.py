"""Layer spans recorded from outside the program.

A :class:`Tracer` replaces each layer function listed in
:data:`LAYER_FUNCTIONS` with a timing wrapper, in every ``fluxloop`` module
namespace that holds it (``default_cell_params``, for instance, is imported
by name into ``memory``, ``timing`` and ``cli``), and puts the originals back
on exit.  Spans nest through a stack, so each one knows its parent and its
self time (its duration minus the time its child spans cover).  Spans are
kept in memory and written out once, by :meth:`Tracer.dump`.

Per-event functions (``step_cell``, ``delay_at_bias``) are deliberately not
wrapped: a wrapper on them would cost more than the work it times, so their
cost stays inside ``engine.run_until``.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

#: (home module, function) pairs timed as layers.
LAYER_FUNCTIONS = (
    ("fluxloop.core", "parse_config"),
    ("fluxloop.cells", "default_cell_params"),
    ("fluxloop.engine", "schedule"),
    ("fluxloop.engine", "run_until"),
    ("fluxloop.engine", "trace_to_csv"),
    ("fluxloop.engine", "trace_to_vcd"),
    ("fluxloop.memory", "parse_program"),
    ("fluxloop.memory", "build_controller"),
    ("fluxloop.memory", "stimulus_for"),
    ("fluxloop.memory", "run_program"),
    ("fluxloop.memory", "oracle"),
    ("fluxloop.timing", "sta"),
    ("fluxloop.timing", "max_frequency"),
    ("fluxloop.timing", "bias_margin"),
    ("fluxloop.cli", "main"),
)

#: Exact simulated statistics read off a layer's return value.
RESULT_COUNTS = {
    "engine.run_until": lambda trace: (
        ("engine.observed_events", len(trace.events)),
        ("engine.violations", len(trace.violations)),
    ),
    "memory.stimulus_for": lambda pulses: (("memory.stimulus_pulses", len(pulses)),),
    "memory.run_program": lambda result: (("memory.reads_decoded", len(result.reads)),),
}

EXACT_COUNTS = (
    "engine.observed_events",
    "engine.violations",
    "memory.reads_decoded",
    "memory.stimulus_pulses",
)


def is_exact(metric: str) -> bool:
    """True for metrics that must repeat exactly for the same inputs."""
    return metric.endswith(".calls") or metric in EXACT_COUNTS


#: Marks a wrapper, so a leftover one can be found after removal.
MARKER = "__perfbench_span__"


def _short(module_name: str) -> str:
    return module_name.rpartition(".")[2]


def fluxloop_modules() -> list:
    return sorted(
        (m for name, m in list(sys.modules.items())
         if m is not None and (name == "fluxloop" or name.startswith("fluxloop."))),
        key=lambda m: m.__name__,
    )


def leftover_wrappers() -> list[str]:
    """Names of module attributes that are still span wrappers."""
    return [
        f"{module.__name__}.{attr}"
        for module in fluxloop_modules()
        for attr, value in vars(module).items()
        if hasattr(value, MARKER)
    ]


class Tracer:
    """Installs span wrappers on enter and restores the originals on exit.

    ``spans`` holds one tuple per finished call:
    ``(span_id, parent_id, name, site, start_s, end_s, self_s)``, where
    ``site`` is the module namespace the call went through and
    ``parent_id`` is ``-1`` for a root span.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = fluxloop_modules()
        by_name = {m.__name__: m for m in modules}
        for home, attr in LAYER_FUNCTIONS:
            original = getattr(by_name[home], attr)
            span = f"{_short(home)}.{attr}"
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        wrapper = self._wrap(original, span, _short(module.__name__))
                        self._patched.append((module, name, original))
                        setattr(module, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)

    def _wrap(self, fn, span: str, site: str):
        stack = self._stack
        spans = self.spans
        counts = self.counts
        count_result = RESULT_COUNTS.get(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans.append((span_id, parent, span, site, start, end, duration - frame[1]))
            if count_result is not None:
                counts.update(dict(count_result(result)))
            return result

        setattr(wrapper, MARKER, span)
        return wrapper

    # -- results ------------------------------------------------------------

    def take(self) -> tuple[list[tuple], Counter]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts

    @staticmethod
    def dump(passes: list[list[tuple]], path: Path) -> None:
        """Write spans as JSON lines, one object per span, tagged with its pass."""
        with path.open("w") as out:
            for index, spans in enumerate(passes):
                for span_id, parent, name, site, start, end, self_s in spans:
                    out.write(json.dumps({
                        "pass": index, "id": span_id, "parent": parent, "name": name,
                        "site": site, "start_s": start, "end_s": end, "self_s": self_s,
                    }) + "\n")


def layer_metrics(spans: list[tuple], counts: Counter) -> dict[str, float]:
    """Per-layer totals of one pass: ``<layer>.s``, ``.self_s`` and ``.calls``,
    the exact counts, and, for calls made through another module's namespace,
    ``<site>.<function>.calls`` (``timing.run_program.calls`` counts the
    simulations the timing layer runs)."""
    metrics: dict[str, float] = Counter()
    for _, _, name, site, start, end, self_s in spans:
        metrics[f"{name}.s"] += end - start
        metrics[f"{name}.self_s"] += self_s
        metrics[f"{name}.calls"] += 1
        home, _, function = name.partition(".")
        if site != home:
            metrics[f"{site}.{function}.calls"] += 1
    metrics.update(counts)
    return dict(metrics)
