"""A cache and its invalidation bus share one instrumentation bus.

An :class:`InstrumentationBus` with no subscribers is still the bus the
caller meant: a fresh cache hands its own (still empty) bus to the
invalidation bus it builds, so notifier deliveries reach the cache's
stage breakdown, and a bus passed in is the bus the cache emits on.
"""

from __future__ import annotations

from repro.cache.instrumentation import InstrumentationBus
from repro.cache.manager import DocumentCache
from repro.providers.memory import MemoryProvider


def test_notifier_delivery_reaches_the_stage_breakdown(kernel, user):
    reference = kernel.import_document(
        user, MemoryProvider(kernel.ctx, b"first version"), "doc"
    )
    cache = DocumentCache(kernel, capacity_bytes=1 << 20)
    cache.read(reference)
    cache.write(reference, b"second version")
    assert cache.bus.stats.deliveries == 1
    cells = cache.stage_breakdown().cells
    assert cells[("bus", "delivered")].count == 1


def test_an_empty_bus_passed_in_is_the_cache_bus(kernel):
    bus = InstrumentationBus()
    cache = DocumentCache(kernel, capacity_bytes=1 << 20, instrumentation=bus)
    assert cache.instrumentation is bus
    assert cache.bus.instrumentation is bus

