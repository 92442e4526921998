"""Injected verifier faults gate every reuse of cached bytes.

A miss answered by another user's entry (§3 signature adoption) or by
the transform memo re-runs the verifiers guarding the reused bytes.
Those re-runs pass through the fault plan's verifier seam exactly like
the hit-time gate, so a verifier the plan fails refuses the reuse and
the read fetches for itself.
"""

from __future__ import annotations

import pytest

from repro.cache.manager import DocumentCache
from repro.cache.policies import DefaultMemoPolicy
from repro.faults.plan import FaultPlan
from repro.placeless.kernel import PlacelessKernel
from repro.providers.memory import MemoryProvider

REUSE_SEAMS = {
    "adoption": {"share_across_users": True},
    "memo": {"memo_policy": DefaultMemoPolicy()},
}


def _two_readers(**cache_kwargs):
    """One memory-backed document, a plain reference per user, a cache."""
    kernel = PlacelessKernel()
    owner = kernel.create_user("owner")
    base = kernel.create_document(
        owner, MemoryProvider(kernel.ctx, b"one shared document"), "doc"
    )
    readers = [
        kernel.space(kernel.create_user(name)).add_reference(base)
        for name in ("a", "b")
    ]
    cache = DocumentCache(kernel, capacity_bytes=1 << 20, **cache_kwargs)
    return kernel, readers, cache


@pytest.mark.parametrize("seam", sorted(REUSE_SEAMS))
def test_verifier_timeout_refuses_the_reuse(seam):
    kernel, (a, b), cache = _two_readers(**REUSE_SEAMS[seam])
    first = cache.read(a)
    # Every verifier now exceeds its timeout budget.
    kernel.ctx.faults = FaultPlan(
        kernel.ctx.clock, verifier_timeout_budget_ms=0.0
    )
    outcome = cache.read(b)
    # Without the fault this read is "miss-adopted" / "miss-memoized".
    assert outcome.disposition == "miss"
    assert outcome.content == first.content
    # The reuse path ran the verifier, and the plan failed it.
    assert kernel.ctx.faults.stats.verifier_timeouts == 1
    assert kernel.stats.reads == 2


def test_hit_gate_drops_the_entry_under_the_same_fault():
    kernel, (a, _), cache = _two_readers()
    cache.read(a)
    kernel.ctx.faults = FaultPlan(
        kernel.ctx.clock, verifier_timeout_budget_ms=0.0
    )
    assert not cache.read(a).hit
