"""Observer invariance: a listening subscriber must change nothing.

The cache's own counters — stats, the stage recorder, the seam
projections — are updated straight from each emit site, without
building a :class:`~repro.cache.instrumentation.StageEvent`.  Events
are built only once a plain subscriber (a test probe, the cluster's
health tracker) is attached, and from then on every subscriber,
projections included, is fed from those events.  Both deliveries must
count alike: for arbitrary seeds, with and without fault injection, a
run with an extra subscriber attached after construction produces the
same snapshot — stats, virtual clock, fault trace — as one without, and
the subscriber sees exactly one terminal ``read`` event per answered
read.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.instrumentation import StageEvent

from tests.property.test_pipeline_equivalence import run_seeded_workload


class _ReadProbe:
    """Counts the terminal ``read`` events it is handed."""

    def __init__(self) -> None:
        self.reads = 0
        self.hits = 0

    def __call__(self, event: StageEvent) -> None:
        if event.stage == "read":
            self.reads += 1
            if event.outcome in ("hit", "revalidated"):
                self.hits += 1


def _check(seed: int, *, chaos: bool) -> None:
    unobserved = run_seeded_workload(seed, chaos=chaos)
    probe = _ReadProbe()
    observed = run_seeded_workload(seed, chaos=chaos, subscriber=probe)
    assert observed == unobserved
    answered = round(observed["reads"] * observed["availability"])
    assert probe.reads == answered
    assert probe.hits == observed["hits"]


class TestObserverInvariance:
    """Arbitrary seeds: an attached subscriber leaves the run unchanged."""

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_snapshots_identical(self, seed):
        _check(seed, chaos=False)

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_chaos_snapshots_identical(self, seed):
        _check(seed, chaos=True)
