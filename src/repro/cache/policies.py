"""The cache's policy surface: one import point for every seam.

Two decisions have real alternatives and sit behind protocols:

* :class:`AdmissionPolicy` — should fetched content enter the cache?
  The default (:class:`VoteAdmissionPolicy`) reproduces §3's behaviour:
  honour the read path's most-restrictive cacheability vote, refuse
  content larger than the whole cache.
* :class:`~repro.cache.replacement.ReplacementPolicy` — who leaves when
  space runs out; re-exported here with its cost-aware Greedy-Dual-Size
  default.

Everything else is configuration with one implementation, so it is a
plain value rather than a protocol: the frozen ``Default*Policy``
dataclasses validate their fields on construction and are passed to
``DocumentCache`` through the matching ``*_policy=`` keyword (``None``
leaves the seam off).  :class:`DefaultDegradationPolicy` is the one
stateful policy: it owns the serve-stale bounds, the
bypass-failed-backing switch and the verifier-quarantine breakers.
"""

from __future__ import annotations

import enum
import typing
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.cache.containment import (
    BreakerConfig,
    BreakerRegistry,
    BreakerState,
    ExecutionBudget,
)
from repro.cache.replacement import GreedyDualSizePolicy, ReplacementPolicy
from repro.errors import CacheError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ids import DocumentId
    from repro.placeless.document import PathMeta

__all__ = [
    "AdmissionDecision",
    "AdmissionPolicy",
    "VoteAdmissionPolicy",
    "DefaultDegradationPolicy",
    "DefaultContainmentPolicy",
    "DefaultMemoPolicy",
    "DefaultConcurrencyPolicy",
    "DefaultRecoveryPolicy",
    "DefaultStoragePolicy",
    "DefaultOverloadPolicy",
    "ReplacementPolicy",
    "GreedyDualSizePolicy",
]


class AdmissionDecision(enum.Enum):
    """What the admission policy decided about fetched content."""

    ADMIT = "admit"
    UNCACHEABLE = "uncacheable"
    OVERSIZE = "oversize"


@runtime_checkable
class AdmissionPolicy(Protocol):
    """Decides whether fetched content may fill the cache."""

    def decide(
        self, content: bytes, meta: "PathMeta", capacity_bytes: int
    ) -> AdmissionDecision:
        """Classify one fill candidate."""
        ...  # pragma: no cover - protocol


class VoteAdmissionPolicy:
    """§3 behaviour: the cacheability vote gates, whole-cache size caps."""

    def decide(
        self, content: bytes, meta: "PathMeta", capacity_bytes: int
    ) -> AdmissionDecision:
        if not meta.cacheability.allows_caching:
            return AdmissionDecision.UNCACHEABLE
        if len(content) > capacity_bytes:
            return AdmissionDecision.OVERSIZE
        return AdmissionDecision.ADMIT


@dataclass(frozen=True, slots=True)
class DefaultContainmentPolicy:
    """One breaker configuration for all three seams + role fallbacks.

    A cache constructed with a containment policy gets a
    :class:`~repro.cache.containment.ContainmentGuard` wrapped around
    the three untrusted-code seams (stream wrappers, verifiers,
    notifier callbacks).  ``None`` (the default) builds no guard and
    leaves the cache byte-identical to its uncontained behaviour.

    Parameters
    ----------
    failure_threshold, probation_delay_ms, half_open_successes:
        The closed → open → half-open state machine tuning shared by
        every breaker (see :class:`~repro.cache.containment.BreakerConfig`).
    max_cost_ms, max_bytes:
        Per-invocation execution budgets; both ``None`` disables them.
    deny_required:
        Escalate a tripped required transformer's fallback from
        force-miss to a typed denial.  Optional properties are always
        skipped.
    """

    failure_threshold: int = 3
    probation_delay_ms: float | None = 1_000.0
    half_open_successes: int = 1
    max_cost_ms: float | None = None
    max_bytes: int | None = None
    deny_required: bool = False

    def __post_init__(self) -> None:
        # Both constructors validate and raise on bad tuning.
        self.breaker_config()
        self.execution_budget()

    def breaker_config(self) -> BreakerConfig:
        """The breaker tuning every seam shares."""
        return BreakerConfig(
            failure_threshold=self.failure_threshold,
            probation_delay_ms=self.probation_delay_ms,
            half_open_successes=self.half_open_successes,
        )

    def execution_budget(self) -> ExecutionBudget | None:
        """Per-invocation caps, or ``None`` when neither cap is set."""
        if self.max_cost_ms is None and self.max_bytes is None:
            return None
        return ExecutionBudget(
            max_cost_ms=self.max_cost_ms, max_bytes=self.max_bytes
        )

    def fallback(self, role: str) -> str:
        """Fallback for a tripped breaker, given the property's role.

        *role* is ``"optional"`` (the property does not transform read
        content) or ``"required"`` (it does).  Returns ``"skip"`` (serve
        without the property, marked degraded), ``"force-miss"`` (skip
        but never admit the untransformed result, so every access goes
        to the kernel) or ``"deny"`` (refuse with
        :class:`~repro.errors.CircuitOpenError`).
        """
        if role == "required":
            return "deny" if self.deny_required else "force-miss"
        return "skip"


@dataclass(frozen=True, slots=True)
class DefaultMemoPolicy:
    """Transform memoization with sensible bounds, off unless supplied.

    A cache constructed with a memo policy gets a bounded
    :class:`~repro.cache.memo.TransformMemo` consulted by the read
    pipeline's memo stage: a miss whose ``(current source signature,
    chain fingerprint)`` pair was recorded by an earlier admission is
    answered with a signature-only adoption instead of a provider fetch
    plus a full property-chain execution, and chains voting UNCACHEABLE
    are negative-cached so repeated misses skip the candidate
    machinery.  ``None`` (the default) keeps the stage out of the read
    plan and the cache byte-identical to its unmemoized behaviour.

    Parameters
    ----------
    capacity:
        LRU bound on the number of memo records.
    probe_cost_ms:
        Virtual cost charged per memo consult for the source-signature
        probe (compare ``ADOPTION_COST_MS``; both are metadata-only
        exchanges).
    verify_on_serve:
        Re-run recorded verifiers before serving a memoized output
        (default) instead of bypassing verifier-gated records.
    """

    capacity: int = 1024
    probe_cost_ms: float = 0.2
    verify_on_serve: bool = True

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise CacheError(f"memo capacity must be >= 1: {self.capacity}")
        if self.probe_cost_ms < 0:
            raise CacheError(
                f"probe_cost_ms must be non-negative: {self.probe_cost_ms}"
            )


@dataclass(frozen=True, slots=True)
class DefaultConcurrencyPolicy:
    """Single-flight coalescing with sensible bounds.

    A cache constructed with a concurrency policy may drive read
    batches through an :class:`~repro.sim.scheduler.AsyncScheduler`
    (``DocumentCache.read_many``) and, when ``coalesce`` is on,
    single-flight concurrent misses: the pipeline's
    :class:`~repro.cache.pipeline.SingleFlightStage` shares one
    provider fetch and one property-chain execution among every
    concurrent requester of the same ``(document, user)`` key — and,
    when a memo policy supplies the probed pair, the same ``(source
    signature, chain fingerprint)`` pair.  ``None`` (the default) keeps
    the stage out of the read plan, ``read_many`` sequential, and the
    cache byte-identical to its pre-concurrency behaviour.

    Parameters
    ----------
    coalesce:
        Coalesce concurrent misses (default on — constructing the
        policy at all is the opt-in; pass ``False`` for an ablation
        that runs the async scheduler with no coalescing).
    max_followers:
        Follower cap per flight (``None`` = unbounded, the default);
        excess reads fetch for themselves.
    """

    coalesce: bool = True
    max_followers: int | None = None

    def __post_init__(self) -> None:
        if self.max_followers is not None and self.max_followers < 1:
            raise CacheError(
                f"max_followers must be >= 1: {self.max_followers}"
            )


@dataclass(frozen=True, slots=True)
class DefaultRecoveryPolicy:
    """Leases + sequencing + journal, resync when needed.

    A cache constructed with a recovery policy gets a leased, sequenced
    notifier channel (gap detection + anti-entropy resync) and a
    crash-recovery journal for its write-backs.  ``None`` (the default)
    leaves every recovery mechanism off and the cache byte-identical to
    its pre-recovery behaviour.

    Parameters
    ----------
    lease_term_ms:
        The notifier-registration lease term.  Renewals run at half the
        term on the virtual clock, so a suspect or lapsed channel is
        resynced within one term (the bounded-staleness guarantee).
    """

    lease_term_ms: float = 2_000.0

    def __post_init__(self) -> None:
        if self.lease_term_ms <= 0:
            raise CacheError(
                f"lease_term_ms must be positive: {self.lease_term_ms}"
            )

    def resync_due(self, *, suspect: bool, lapsed: bool) -> bool:
        """Resync whenever the channel is suspect or the lease lapsed."""
        return suspect or lapsed


@dataclass(frozen=True, slots=True)
class DefaultStoragePolicy:
    """Durable tier with everything on, off unless supplied.

    A cache constructed with a storage policy gets an
    :class:`~repro.storage.tier.L2Tier`: evictions demote their bytes
    and metadata to checksummed on-disk segments, misses promote them
    back (chain-, source-, CRC- and verifier-gated), the write-back
    journal and transform memo spill to disk, and
    ``DocumentCache.restart()`` recovers all of it after a crash.
    ``None`` (the default) builds no tier and leaves the cache
    byte-identical to its storage-free behaviour.

    Parameters
    ----------
    directory:
        Segment directory (one subdirectory per cache id); ``None``
        (default) uses a private temporary directory — durable across
        crashes within a run, not across processes.
    breaker_failure_threshold:
        Consecutive disk failures before the storage breaker trips open
        and the cache falls back to L1-only (see
        :class:`~repro.cache.containment.BreakerConfig`).
    """

    directory: "str | None" = None
    breaker_failure_threshold: int = 3

    def __post_init__(self) -> None:
        if self.breaker_failure_threshold < 1:
            raise CacheError(
                "breaker_failure_threshold must be >= 1: "
                f"{self.breaker_failure_threshold}"
            )


@dataclass(frozen=True, slots=True)
class DefaultOverloadPolicy:
    """Deadlines + shedding + hedging with sensible defaults.

    A cache constructed with an overload policy gets an
    :class:`~repro.overload.gate.OverloadGate`: reads carry a
    :class:`~repro.overload.budget.DeadlineBudget` derived from the
    chain's QoS access-time target (expiry degrades through the
    serve-stale ladder before raising
    :class:`~repro.errors.DeadlineExceededError`), an admission
    controller sheds the lowest priority class past saturation with
    :class:`~repro.errors.OverloadShedError`, and — on a
    :class:`~repro.cluster.coordinator.CacheCluster` — gray-failing
    shards are hedged to their replica and hard-failing shards routed
    around.  ``None`` (the default) builds no gate and leaves the
    cache byte-identical to its pre-overload behaviour.

    Parameters
    ----------
    deadlines, shedding, hedging:
        Individually disable the three mechanisms (all on by default —
        constructing the policy at all is the opt-in) for ablations.
        Hedging only applies to a cluster.
    default_deadline_ms:
        End-to-end budget for reads whose chain carries no finite QoS
        access-time target (the paper's §3 example is 250 ms).
    deadline_from_qos:
        Tighten the budget to the chain's ``max_access_time_ms``.
    admission_rate_per_s, admission_burst, queue_limit,
    sojourn_threshold_ms:
        Admission-controller tuning (see
        :class:`~repro.overload.admission.AdmissionController`): token
        refill rate and capacity, the queue depth past which
        non-critical reads shed, and the CoDel-style sojourn threshold
        (bulk reads shed past it, QoS reads past twice it, critical
        reads never).
    gray_latency_factor, health_min_samples, recovery_successes:
        Cluster health tuning (see
        :class:`~repro.overload.health.HealthTracker`): a shard is gray
        once its EWMA reaches the factor × the healthiest peer's after
        at least ``health_min_samples`` reads, and an unhealthy shard
        is restored after ``recovery_successes`` clean reads.
    """

    deadlines: bool = True
    shedding: bool = True
    hedging: bool = True
    default_deadline_ms: float = 250.0
    deadline_from_qos: bool = True
    admission_rate_per_s: float = 200.0
    admission_burst: float = 16.0
    queue_limit: float = 32.0
    sojourn_threshold_ms: float = 100.0
    gray_latency_factor: float = 3.0
    health_min_samples: int = 8
    recovery_successes: int = 3

    def __post_init__(self) -> None:
        if self.default_deadline_ms <= 0:
            raise CacheError(
                "default_deadline_ms must be positive: "
                f"{self.default_deadline_ms}"
            )
        if self.admission_rate_per_s <= 0:
            raise CacheError(
                "admission_rate_per_s must be positive: "
                f"{self.admission_rate_per_s}"
            )
        if self.admission_burst < 1:
            raise CacheError(
                f"admission_burst must be >= 1: {self.admission_burst}"
            )
        if self.queue_limit < 0:
            raise CacheError(
                f"queue_limit must be non-negative: {self.queue_limit}"
            )
        if self.sojourn_threshold_ms < 0:
            raise CacheError(
                f"sojourn_threshold_ms must be non-negative: "
                f"{self.sojourn_threshold_ms}"
            )
        if self.gray_latency_factor <= 1.0:
            raise CacheError(
                f"gray_latency_factor must be > 1: {self.gray_latency_factor}"
            )
        if self.health_min_samples < 1 or self.recovery_successes < 1:
            raise CacheError(
                "health_min_samples and recovery_successes must be >= 1"
            )


class DefaultDegradationPolicy:
    """How far the cache may degrade while failures are in progress.

    Passed as ``DocumentCache(..., degradation_policy=...)``; a cache
    built without one gets the all-off default.
    ``serve_stale_on_error`` / ``stale_serve_max_age_ms`` bound the
    availability-over-freshness fallback, ``bypass_backing_on_error``
    lets misses route past a failed second level, and
    ``verifier_quarantine_threshold`` disables a repeatedly-raising
    verifier after that many consecutive failures.
    """

    def __init__(
        self,
        serve_stale_on_error: bool = False,
        stale_serve_max_age_ms: float | None = None,
        bypass_backing_on_error: bool = False,
        verifier_quarantine_threshold: int | None = None,
    ) -> None:
        if stale_serve_max_age_ms is not None and stale_serve_max_age_ms < 0:
            raise CacheError(
                "stale_serve_max_age_ms must be non-negative: "
                f"{stale_serve_max_age_ms}"
            )
        if (
            verifier_quarantine_threshold is not None
            and verifier_quarantine_threshold < 1
        ):
            raise CacheError(
                "verifier_quarantine_threshold must be >= 1: "
                f"{verifier_quarantine_threshold}"
            )
        self.serve_stale_on_error = serve_stale_on_error
        self.stale_serve_max_age_ms = stale_serve_max_age_ms
        self.bypass_backing_on_error = bypass_backing_on_error
        self.verifier_quarantine_threshold = verifier_quarantine_threshold
        #: The quarantine, re-expressed as circuit breakers: threshold-N
        #: consecutive failures trip, and with no probation delay an
        #: open breaker is permanent until ``breakers.reset_all()`` —
        #: exactly the historical dict-and-set semantics.  Inspect open
        #: quarantines via ``breakers.open_keys()``.
        self.breakers = BreakerRegistry(
            BreakerConfig(
                failure_threshold=(
                    verifier_quarantine_threshold
                    if verifier_quarantine_threshold is not None
                    else 1
                ),
                probation_delay_ms=None,
                half_open_successes=1,
            )
        )

    # -- serve-stale bounds ----------------------------------------------------

    def stale_age_acceptable(self, age_ms: float) -> bool:
        """May stale bytes of this age be served on fetch failure?"""
        if self.stale_serve_max_age_ms is None:
            return True
        return age_ms <= self.stale_serve_max_age_ms

    # -- verifier quarantine ---------------------------------------------------

    def note_verifier_failure(self, key: tuple["DocumentId", str]) -> bool:
        """Record one verifier raise; True when this newly quarantines."""
        if self.verifier_quarantine_threshold is None:
            return False
        return self.breakers.get(key).record_failure()

    def note_verifier_success(self, key: tuple["DocumentId", str]) -> None:
        """A verifier ran clean; reset its failure streak."""
        if self.verifier_quarantine_threshold is None:
            return
        breaker = self.breakers.peek(key)
        if breaker is not None:
            breaker.record_success()

    def is_quarantined(self, key: tuple["DocumentId", str]) -> bool:
        """Is this (document, verifier type) currently quarantined?"""
        breaker = self.breakers.peek(key)
        return breaker is not None and breaker.state is BreakerState.OPEN
