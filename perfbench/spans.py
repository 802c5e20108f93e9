"""Spans around calls into globflow's layers, recorded from outside `src/`.

`Tracer.install()` replaces each function named in `SPANS` by a timing
wrapper, in every loaded module that refers to it (the CLI, the library
and the benchmark import functions by name, so patching only the
defining module would miss those calls).  `Tracer.remove()` puts the
originals back.  Nothing in the library itself is instrumented.

A span's self time is its duration minus the time covered by the spans
nested in it.  Spans are aggregated by name as they close: total self
seconds, call count, and counters taken from return values.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

from globflow.errors import SearchBudgetExceeded

# The public entry points of each layer.  Per-element helpers (state_name,
# path_id, FiniteFlow accessors) are left out: a span around each of their
# calls would cost more than the work it measures.
SPANS = {
    "pv": ("parse_pv", "pv_to_complex"),
    "complexes": (
        "validate_complex",
        "enumerate_paths",
        "path_classes",
        "square_move_neighbors",
        "same_move_class",
        "complex_morphism_violations",
        "subdivide_edge",
    ),
    "realization": (
        "realize",
        "all_exec_paths",
        "realize_morphism",
        "IncrementalRealizer.__init__",
        "IncrementalRealizer.attach",
    ),
    "flows": (
        "validate_flow",
        "deadlocks",
        "dihomotopy_classes",
        "germs",
        "restrict",
        "flow_morphism_violations",
        "s_homotopic",
    ),
    "formats": (
        "dumps_flow",
        "loads_flow",
        "loads_morphism",
        "dumps_complex",
        "loads_complex",
        "dumps_morphism",
    ),
    "equivalence": (
        "s_equivalent",
        "enumerate_flow_morphisms",
        "find_flow_isomorphism",
        "check_t_dihomotopy",
    ),
    "cli": ("main",),
}


def span_name(layer: str, qualname: str) -> str:
    """"realization.attach" for IncrementalRealizer.attach; a constructor
    span takes the class name, as in "realization.IncrementalRealizer"."""
    cls, _, attr = qualname.rpartition(".")
    return f"{layer}.{cls if attr == '__init__' else attr}"


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [name, start, covered by children]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def _exit(self) -> None:
        name, start, covered = self._stack.pop()
        duration = perf_counter() - start
        self.self_s[name] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration

    def _wrap(self, name: str, fn, on_result):
        if inspect.isgeneratorfunction(fn):
            # time each resumption; the consumer's work between them is not ours
            @functools.wraps(fn)
            def generator_span(*args, **kwargs):
                self.calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    self._enter(name)
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit()
                    yield value

            return generator_span

        @functools.wraps(fn)
        def span(*args, **kwargs):
            self.calls[name] += 1
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_result is not None:
                    on_result(self.counts, None, exc)
                raise
            finally:
                self._exit()
            if on_result is not None:
                on_result(self.counts, result, None)
            return result

        return span

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        modules = [m for m in list(sys.modules.values()) if m is not None]
        for layer, qualnames in SPANS.items():
            home = sys.modules[f"globflow.{layer}"]
            for qualname in qualnames:
                name = span_name(layer, qualname)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    self._patch(cls, attr, self._wrap(name, original, COUNTERS.get(name)))
                    continue
                original = getattr(home, qualname)
                wrapper = self._wrap(name, original, COUNTERS.get(name))
                for module in modules:
                    for attr, value in list(getattr(module, "__dict__", {}).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def snapshot(self) -> dict[str, int]:
        return dict(self.counts)


# Counters read from a span's return value (or its exception).


def _realized(counts, flow, exc):
    if flow is not None:
        counts["realization.paths"] += len(flow.path_ends)
        counts["realization.composites"] += len(flow.composition)
        counts["realization.adjacency"] += len(flow.adjacency)


def _classes(counts, blocks, exc):
    if blocks is not None:
        counts["complexes.classes"] += len(blocks)
        counts["complexes.class_paths"] += sum(len(b) for b in blocks)


def _compiled(counts, c, exc):
    if c is not None:
        counts["pv.states"] += len(c.states)
        counts["pv.edges"] += len(c.edges)
        counts["pv.squares"] += len(c.squares)


def _flow_text(counts, text, exc):
    if text is not None:
        counts["formats.flow_bytes"] += len(text.encode())


def _s_outcome(counts, witness, exc):
    if exc is None:
        counts["equivalence.s_equivalent.yes" if witness else "equivalence.s_equivalent.no"] += 1
    elif isinstance(exc, SearchBudgetExceeded):
        counts["equivalence.s_equivalent.budget"] += 1


COUNTERS = {
    "realization.realize": _realized,
    "complexes.path_classes": _classes,
    "pv.pv_to_complex": _compiled,
    "formats.dumps_flow": _flow_text,
    "equivalence.s_equivalent": _s_outcome,
}
