"""One classification per read, following the chain as it changes.

The overload gate derives a read's admission priority and deadline from
one walk of the memoized read chain (``OverloadGate.classify``).  Each
test here reads once — filling the chain memo — then attaches a QoS or
pinning property and checks that the very next read is admitted at the
new priority with the new deadline: through ``cache.read``, through
``read_many``'s sequential arm, and through the async ``iterate`` path
that ``read_many`` takes under a concurrency policy.
"""

from __future__ import annotations

import pytest

from repro.cache.manager import DocumentCache
from repro.cache.policies import (
    DefaultConcurrencyPolicy,
    DefaultOverloadPolicy,
)
from repro.overload.admission import (
    PRIORITY_BULK,
    PRIORITY_CRITICAL,
    PRIORITY_QOS,
    priority_class,
)
from repro.placeless.kernel import PlacelessKernel
from repro.properties.qos import AlwaysAvailableProperty, QoSProperty
from repro.workload.documents import CorpusSpec, build_corpus

DEFAULT_DEADLINE_MS = 250.0
MODES = ("read", "read_many", "async")


class _Observed:
    """Spies on one cache's gate: every classification and admission."""

    def __init__(self, gate) -> None:
        self.classified: list[tuple[int, float | None]] = []
        self.admitted: list[int] = []
        self.budgets: list[float] = []
        classify, budget = gate.classify, gate.budget
        admit = gate.admission.admit

        def spy_classify(reference):
            result = classify(reference)
            self.classified.append(result)
            return result

        def spy_budget(deadline_ms, enqueued_ms=None):
            result = budget(deadline_ms, enqueued_ms)
            self.budgets.append(result.budget_ms)
            return result

        def spy_admit(priority, enqueued_ms=None):
            self.admitted.append(priority)
            return admit(priority, enqueued_ms=enqueued_ms)

        gate.classify = spy_classify
        gate.budget = spy_budget
        gate.admission.admit = spy_admit

    def last(self) -> tuple[int, float, int]:
        """(classified priority, budget ms, admitted priority)."""
        priority, deadline_ms = self.classified[-1]
        assert self.budgets[-1] == deadline_ms
        return priority, deadline_ms, self.admitted[-1]


def _deploy(mode: str):
    kernel = PlacelessKernel()
    owner = kernel.create_user("owner")
    corpus = build_corpus(
        kernel,
        owner,
        CorpusSpec(n_documents=2, ttl_ms=3_600_000.0, seed=11),
    )
    concurrency = DefaultConcurrencyPolicy() if mode == "async" else None
    cache = DocumentCache(
        kernel,
        capacity_bytes=1 << 30,
        overload_policy=DefaultOverloadPolicy(
            hedging=False, default_deadline_ms=DEFAULT_DEADLINE_MS
        ),
        concurrency_policy=concurrency,
    )
    observed = _Observed(cache._core.overload)
    reference = corpus[0].reference

    def read() -> None:
        # Think time keeps every read well inside the admission rate.
        cache.ctx.clock.advance(50.0)
        if mode == "read":
            cache.read(reference)
        else:
            cache.read_many([reference])

    return reference, read, observed


@pytest.mark.parametrize("mode", MODES)
def test_attaching_qos_after_the_first_read_reclassifies(mode):
    reference, read, observed = _deploy(mode)
    read()
    assert observed.last() == (
        PRIORITY_BULK, DEFAULT_DEADLINE_MS, PRIORITY_BULK
    )
    reference.attach(QoSProperty(max_access_time_ms=40.0))
    read()
    assert observed.last() == (PRIORITY_QOS, 40.0, PRIORITY_QOS)
    assert len(observed.classified) == 2  # one classification per read


@pytest.mark.parametrize("mode", MODES)
def test_attaching_a_pinning_property_after_the_first_read(mode):
    reference, read, observed = _deploy(mode)
    reference.attach(QoSProperty(max_access_time_ms=40.0))
    read()
    assert observed.last() == (PRIORITY_QOS, 40.0, PRIORITY_QOS)
    reference.base.attach(AlwaysAvailableProperty())
    read()
    # Pinning outranks the QoS class; the finite target still sets the
    # deadline (an always-available property has none of its own).
    assert observed.last() == (PRIORITY_CRITICAL, 40.0, PRIORITY_CRITICAL)
    assert priority_class(reference) == PRIORITY_CRITICAL


@pytest.mark.parametrize("mode", MODES)
def test_a_retuned_target_is_seen_without_a_chain_change(mode):
    # Only the chain is memoized: a QoS target is a mutable attribute,
    # so the deadline is derived from it again on every read.
    reference, read, observed = _deploy(mode)
    qos = QoSProperty(max_access_time_ms=40.0)
    reference.attach(qos)
    read()
    epoch = reference.dispatcher.epoch
    qos.max_access_time_ms = 15.0
    read()
    assert reference.dispatcher.epoch == epoch
    assert observed.last() == (PRIORITY_QOS, 15.0, PRIORITY_QOS)
