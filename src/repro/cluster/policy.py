"""The cluster layer's opt-in configuration.

Mirrors the cache's policy idiom (:mod:`repro.cache.policies`): a frozen
dataclass that validates on construction.  A
:class:`~repro.cluster.coordinator.CacheCluster` built with
``cluster_policy=None`` wires N fully isolated shards — private memo
tables, private flight tables, no cross-shard traffic — which is both
the A17 baseline arm and the guarantee that single-cache golden digests
are untouched (a one-shard cluster with no policy is byte-identical to
a plain :class:`~repro.cache.manager.DocumentCache`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CacheError

__all__ = ["DefaultClusterPolicy"]


@dataclass(frozen=True, slots=True)
class DefaultClusterPolicy:
    """What the shards of one cluster are allowed to share.

    The all-shared default is the configuration A17's treatment arm
    runs.

    Parameters
    ----------
    share_memo:
        One :class:`~repro.cluster.memo_share.SharedTransformMemo`
        across every shard: a chain execution recorded by any shard
        answers every other shard's miss as a signature-only adopt,
        importing the output bytes over the shard link when necessary.
    share_flights:
        One :class:`~repro.sim.scheduler.FlightTable` across every
        shard: single-flight coalescing on the ``(source signature,
        chain fingerprint)`` memo plane spans shard boundaries, so a
        32-way cross-shard stampede still runs one chain.
    shared_memo_capacity:
        Capacity of the shared memo table; ``None`` scales the shard
        memo policy's capacity by the shard count.
    """

    share_memo: bool = True
    share_flights: bool = True
    shared_memo_capacity: int | None = None

    def __post_init__(self) -> None:
        if self.shared_memo_capacity is not None and (
            self.shared_memo_capacity < 1
        ):
            raise CacheError(
                "shared_memo_capacity must be >= 1: "
                f"{self.shared_memo_capacity}"
            )
