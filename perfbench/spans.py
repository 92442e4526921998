"""Per-layer spans recorded from outside the program.

A :class:`Tracer` wraps public functions of each layer while it is
installed and records, per span name, the number of calls and the self
time: a span's duration minus the time its child spans cover.  Spans
nest through a stack, so a span's parent is the wrapped call that was
running when it started.  Only the aggregates are kept in memory; a
run of a few hundred thousand operations would otherwise hold millions
of span records.

Installing patches the class attributes (and module-level names) named
in :func:`_targets`; :meth:`Tracer.uninstall` restores every original,
so nothing outside the traced section runs instrumented.  Install
before building the objects to trace: a component that caches a bound
method at construction keeps whatever it saw then.
"""

from __future__ import annotations

import inspect
from functools import wraps
from time import perf_counter_ns


def _targets():
    """(span name, owner, attribute) for every wrapped public call."""
    import repro.cache.core
    import repro.cache.pipeline
    import repro.storage.tier
    import world
    from repro.cache.manager import DocumentCache
    from repro.cache.memo import TransformMemo
    from repro.cache.notifiers import InvalidationBus
    from repro.cache.replacement import ReplacementPolicy
    from repro.cache.verifiers import Verifier
    from repro.content.store import ContentStore
    from repro.events.dispatcher import EventDispatcher
    from repro.overload.gate import OverloadGate
    from repro.placeless.kernel import PlacelessKernel
    from repro.providers.base import BitProvider
    from repro.storage.tier import L2Tier
    from repro.workload.churn import ChurnCatalog

    return [
        ("cache.read", DocumentCache, "read"),
        ("cache.write", DocumentCache, "write"),
        ("cache.invalidate", DocumentCache, "invalidate_document"),
        ("overload.admit", OverloadGate, "admit"),
        ("cache.verifiers.run", Verifier, "run"),
        ("cache.replacement.access", ReplacementPolicy, "on_access"),
        ("cache.replacement.victim", ReplacementPolicy, "select_victim"),
        ("cache.memo.lookup", TransformMemo, "lookup"),
        ("cache.memo.record", TransformMemo, "record"),
        # Fills install notifiers from the core; adoption and memo fills
        # from the pipeline, promotions from the L2 tier.
        ("cache.notifiers.install", repro.cache.core,
         "install_minimum_notifiers"),
        ("cache.notifiers.install", repro.cache.pipeline,
         "install_minimum_notifiers"),
        ("cache.notifiers.install", repro.storage.tier,
         "install_minimum_notifiers"),
        ("cache.notifiers.deliver", InvalidationBus, "deliver"),
        ("content.put", ContentStore, "put_signed"),
        ("placeless.read", PlacelessKernel, "read"),
        ("placeless.write", PlacelessKernel, "write"),
        ("providers.fetch", BitProvider, "fetch"),
        ("events.dispatch", EventDispatcher, "dispatch"),
        ("storage.promote", L2Tier, "promote"),
        ("storage.demote", L2Tier, "demote"),
        ("workload.generate", world, "generate_trace"),
        ("workload.materialize", ChurnCatalog, "document"),
    ]


def span_names() -> list[str]:
    """Every span name, in report order, each once."""
    return list(dict.fromkeys(name for name, _, _ in _targets()))


def _owners(owner, attribute: str):
    """*owner*, plus every subclass that overrides *attribute*."""
    if not inspect.isclass(owner):
        return [owner]
    found, pending = [owner], list(owner.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if attribute in vars(cls):
            found.append(cls)
    return found


class Tracer:
    """Aggregated spans: ``cells[name] = [calls, self_ns]``."""

    def __init__(self) -> None:
        self.cells: dict[str, list[int]] = {
            name: [0, 0] for name in span_names()
        }
        #: One ``[name, child_ns]`` frame per open span.
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, function):
        if inspect.isgeneratorfunction(function):
            raise TypeError(f"cannot time generator function for {name}")
        stack = self._stack
        cell = self.cells[name]

        @wraps(function)
        def traced(*args, **kwargs):
            # An override calling its base implementation is one span.
            if stack and stack[-1][0] == name:
                return function(*args, **kwargs)
            frame = [name, 0]
            stack.append(frame)
            started = perf_counter_ns()
            try:
                return function(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - started
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                cell[0] += 1
                cell[1] += duration - frame[1]

        return traced

    def install(self) -> None:
        for name, owner, attribute in _targets():
            for target in _owners(owner, attribute):
                original = vars(target)[attribute]
                self._saved.append((target, attribute, original))
                setattr(target, attribute, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            target, attribute, original = self._saved.pop()
            setattr(target, attribute, original)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """``<span>.calls`` and ``<span>.self_ms`` for every span."""
        out: dict[str, tuple[float, str]] = {}
        for name, (calls, self_ns) in self.cells.items():
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_ms"] = (self_ns / 1e6, "ms")
        return out
