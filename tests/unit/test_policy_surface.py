"""The policy surface is closed: frozen values, no retired keywords.

Every stateless ``Default*Policy`` is a frozen dataclass, so a policy
shared by several caches (or cluster shards) cannot be retuned behind
their backs; ``DefaultDegradationPolicy`` stays mutable because it owns
the quarantine breakers.  Keywords that no caller ever set are module
constants now, and the degradation flags live only on the degradation
policy — passing any of them anywhere else is a ``TypeError``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cache.manager import DocumentCache
from repro.cache.policies import (
    DefaultConcurrencyPolicy,
    DefaultContainmentPolicy,
    DefaultMemoPolicy,
    DefaultOverloadPolicy,
    DefaultRecoveryPolicy,
    DefaultStoragePolicy,
)
from repro.cluster.policy import DefaultClusterPolicy
from repro.placeless.kernel import PlacelessKernel

FROZEN = (
    DefaultContainmentPolicy,
    DefaultMemoPolicy,
    DefaultConcurrencyPolicy,
    DefaultRecoveryPolicy,
    DefaultStoragePolicy,
    DefaultOverloadPolicy,
    DefaultClusterPolicy,
)

REMOVED = (
    (DefaultContainmentPolicy, "deny_optional"),
    (DefaultMemoPolicy, "negative_cache"),
    (DefaultConcurrencyPolicy, "coalesce_memo_plane"),
    (DefaultRecoveryPolicy, "sequence_invalidations"),
    (DefaultRecoveryPolicy, "journal_writes"),
    (DefaultStoragePolicy, "demote_on_evict"),
    (DefaultStoragePolicy, "promote_on_hit"),
    (DefaultStoragePolicy, "spill_journal"),
    (DefaultStoragePolicy, "spill_memo"),
    (DefaultStoragePolicy, "verify_on_promote"),
    (DefaultStoragePolicy, "write_cost_ms"),
    (DefaultStoragePolicy, "read_cost_ms"),
    (DefaultStoragePolicy, "sync_cost_ms"),
    (DefaultStoragePolicy, "probe_cost_ms"),
    (DefaultStoragePolicy, "breaker_probation_ms"),
    (DefaultOverloadPolicy, "hedge_delay_factor"),
    (DefaultOverloadPolicy, "hedge_delay_min_ms"),
    (DefaultOverloadPolicy, "hedge_delay_max_ms"),
    (DefaultOverloadPolicy, "health_ewma_alpha"),
    (DefaultOverloadPolicy, "unhealthy_error_threshold"),
)

CACHE_REMOVED = (
    "serve_stale_on_error",
    "stale_serve_max_age_ms",
    "verifier_quarantine_threshold",
    "bypass_backing_on_error",
)


def _assign_first_field(policy_cls) -> None:
    policy = policy_cls()
    name = dataclasses.fields(policy)[0].name
    setattr(policy, name, getattr(policy, name))


CASES = [
    pytest.param(
        lambda cls=cls: _assign_first_field(cls),
        dataclasses.FrozenInstanceError,
        id=f"{cls.__name__}-frozen",
    )
    for cls in FROZEN
] + [
    pytest.param(
        lambda cls=cls, keyword=keyword: cls(**{keyword: False}),
        TypeError,
        id=f"{cls.__name__}-{keyword}",
    )
    for cls, keyword in REMOVED
] + [
    pytest.param(
        lambda keyword=keyword: DocumentCache(
            PlacelessKernel(), 1 << 20, **{keyword: True}
        ),
        TypeError,
        id=f"DocumentCache-{keyword}",
    )
    for keyword in CACHE_REMOVED
]


@pytest.mark.parametrize("action, error", CASES)
def test_policy_surface_rejects_mutation_and_retired_keywords(action, error):
    with pytest.raises(error):
        action()
