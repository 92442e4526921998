"""A verifier patch that grows an entry past capacity.

``CacheCore.replace_content`` evicts with the patched entry protected.
A heap policy drops the item of a protected key it pops, but the gate's
``on_access`` pushes the entry again before the serve returns, so
between operations the patched entry is still evictable.
"""

from __future__ import annotations

from repro.cache.entry import EntryKey
from repro.cache.manager import DocumentCache
from repro.cache.verifiers import ThresholdVerifier
from repro.events.types import EventType
from repro.placeless.properties import ActiveProperty
from repro.providers.memory import MemoryProvider


class DoublingPatchProperty(ActiveProperty):
    """A threshold verifier whose patch doubles the cached bytes."""

    transforms_reads = False

    def __init__(self, signal: list[float]) -> None:
        super().__init__("doubler")
        self.signal = signal

    def events_of_interest(self):
        return {EventType.GET_INPUT_STREAM}

    def make_verifier(self):
        return ThresholdVerifier(
            observe=lambda: self.signal[0],
            baseline=self.signal[0],
            threshold_fraction=0.01,
            patcher=lambda content, value: content * 2,
        )


def test_patched_entry_grown_past_capacity_stays_evictable(kernel, user):
    signal = [1.0]
    # The larger document has the lower Greedy-Dual-Size priority, so
    # the growth's eviction pops the protected (patched) key first and
    # drops its heap item.
    main = kernel.import_document(
        user, MemoryProvider(kernel.ctx, b"m" * 200), "main"
    )
    main.attach(DoublingPatchProperty(signal))
    filler = kernel.import_document(
        user, MemoryProvider(kernel.ctx, b"f" * 20), "filler"
    )
    cache = DocumentCache(kernel, capacity_bytes=410)
    cache.read(main)
    cache.read(filler)
    signal[0] = 5.0  # the patch grows main from 200 to 400 bytes

    outcome = cache.read(main)

    assert outcome.disposition == "revalidated"
    assert len(outcome.content) == 400
    assert cache.entry_for(filler) is None
    assert cache.stats.evictions == 1
    assert cache.policy.tracks(EntryKey.for_reference(main))
    cache.core.check_invariants()
