"""The document content cache manager: public API over the staged pipeline.

:class:`DocumentCache` is the §3/§4 cache — per-(document, user) entries
indirecting through content signatures, verifier-gated hits, minimum
notifier sets on fills, cacheability-vote admission, pluggable
replacement, write-through/write-back — but the mechanics live
elsewhere: :class:`~repro.cache.core.CacheCore` holds the state,
:mod:`repro.cache.pipeline` the staged read and write paths,
:mod:`repro.cache.policies` the pluggable admission and degradation
decisions, and :mod:`repro.cache.instrumentation` the structured-event
bus every counter is now derived from.  This module is only the wiring
plus the public surface.
"""

from __future__ import annotations

import typing

from repro.cache.consistency import Invalidation, InvalidationReason
from repro.cache.containment import ContainmentGuard, ContainmentStats
from repro.cache.core import (  # noqa: F401  (constants re-exported for compat)
    ADOPTION_COST_MS,
    NOTIFIER_INSTALL_COST_MS,
    VERIFIER_INSTALL_COST_MS,
    CacheCore,
)
from repro.cache.entry import CacheEntry, EntryKey
from repro.cache.instrumentation import (
    ConcurrencyStats,
    ConcurrencyStatsProjection,
    InstrumentationBus,
    OverloadStats,
    OverloadStatsProjection,
    StageRecorder,
    StatsProjection,
)
from repro.cache.memo import MemoStats, MemoStatsProjection, TransformMemo
from repro.cache.notifiers import InvalidationBus
from repro.cache.pipeline import (
    CacheReadOutcome,
    ReadPipeline,
    WriteMode,
    WritePipeline,
)
from repro.cache.policies import (
    AdmissionPolicy,
    DefaultConcurrencyPolicy,
    DefaultContainmentPolicy,
    DefaultDegradationPolicy,
    DefaultMemoPolicy,
    DefaultOverloadPolicy,
    DefaultRecoveryPolicy,
    DefaultStoragePolicy,
    GreedyDualSizePolicy,
    ReplacementPolicy,
    VoteAdmissionPolicy,
)
from repro.cache.recovery import ConsistencyRecoveryManager, RecoveryStats
from repro.errors import (
    CacheCapacityError,
    CacheError,
    DeadlineExceededError,
    OverloadShedError,
)
from repro.ids import DocumentId, UserId
from repro.overload.gate import OverloadGate
from repro.sim.scheduler import AsyncScheduler, FlightTable
from repro.sim.topology import CachePlacement, Topology

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.retry import RetryPolicy
    from repro.placeless.kernel import PlacelessKernel
    from repro.placeless.reference import DocumentReference
    from repro.storage.tier import L2Tier, StorageStats

__all__ = ["WriteMode", "CacheReadOutcome", "DocumentCache"]


class DocumentCache:
    """An application-level (or server co-located) content cache.

    Parameters
    ----------
    kernel, capacity_bytes:
        The Placeless kernel behind this cache, and the physical capacity
        of its deduplicated content store.
    policy:
        Replacement policy; defaults to cost-aware Greedy-Dual-Size.
    bus:
        The invalidation bus notifiers deliver through; one is created
        (and registered with) if not supplied.
    write_mode:
        Write-through (default) or write-back.
    install_notifiers, use_verifiers:
        Whether fills install the §3 minimum notifier set, and whether
        hits execute verifiers.  The A1 ablation disables one of them to
        run verifier-only / notifier-only.
    track_staleness:
        When True, every hit is compared against ground truth (the
        repository's current raw bytes) to count stale hits — possible
        only in simulation, free of charge to the virtual clock.
    placement:
        Where *this* cache sits (overrides the topology default): an
        application-level cache serves hits over the local hop, a
        server-colocated one over the app→reference-server hop (§4).
    backing:
        Optional second-level cache misses are filled through, modelling
        the §4 deployment with both cache levels.
    retry_policy:
        Optional :class:`~repro.faults.retry.RetryPolicy` applied to
        miss-path fetches and write-back flushes; backoff waits are
        charged to the virtual clock and counted in the stats.
    share_across_users:
        §3's signature-adoption optimization: a miss that finds another
        user's *valid* entry for the same document with an identical
        transformation-chain signature adopts that entry's content
        signature (after re-running its verifiers) instead of executing
        the full read path.  Off by default — the paper describes it as
        an extension beyond the implemented prototype.
    admission_policy:
        Override for the fill-admission decision (defaults to
        :class:`~repro.cache.policies.VoteAdmissionPolicy`, the §3
        cacheability-vote behaviour).
    degradation_policy:
        Degradation bounds
        (:class:`~repro.cache.policies.DefaultDegradationPolicy`, all
        off when omitted) — bounded availability-over-freshness stale
        serving, circuit-breaker quarantine of repeatedly-raising
        verifiers (inspect and reset via the policy's ``breakers``
        registry), and fetching straight from the kernel past a failed
        backing level.
    instrumentation:
        The :class:`~repro.cache.instrumentation.InstrumentationBus`
        stage events are emitted on; a private one is created if not
        supplied.  Pass a shared bus to aggregate several caches onto
        one subscriber.
    recovery_policy:
        Opt-in consistency recovery
        (:class:`~repro.cache.policies.DefaultRecoveryPolicy`): a leased,
        sequenced notifier channel with gap detection and anti-entropy
        resync, plus a crash-recovery write-back journal.  ``None`` (the
        default) keeps the cache byte-identical to its pre-recovery
        behaviour.
    containment_policy:
        Opt-in containment of misbehaving active-property code
        (:class:`~repro.cache.policies.DefaultContainmentPolicy`):
        per-(document, code-site) circuit breakers, per-invocation
        execution budgets and exception firewalls around the stream
        wrappers, verifier executions and notifier callbacks, with a
        per-role fallback (skip / force-miss / deny) when a breaker is
        open.  ``None`` (the default) keeps every property-code seam on
        its historical unguarded path.
    memo_policy:
        Opt-in transform memoization
        (:class:`~repro.cache.policies.DefaultMemoPolicy`): a bounded
        ``(source signature, chain fingerprint) → output signature``
        memo consulted between adoption and fetch, so a miss whose
        source bytes and transformation chain match a previous fill is
        answered by signature adoption instead of a provider fetch plus
        chain execution.  ``None`` (the default) keeps the miss path
        byte-identical to the pre-memo pipeline.
    concurrency_policy:
        Opt-in concurrent read path
        (:class:`~repro.cache.policies.DefaultConcurrencyPolicy`):
        :meth:`read_many` drives batches through an asyncio-backed
        :class:`~repro.sim.scheduler.AsyncScheduler`, and — when the
        policy's ``coalesce`` flag is on — concurrent misses
        single-flight: one provider fetch and one property-chain
        execution shared among every concurrent requester of the same
        ``(document, user)`` key (and, with a memo policy, the same
        ``(source signature, chain fingerprint)`` pair), with
        leader-failure promotion and breaker/budget bail-outs.
        ``None`` (the default) keeps every read sequential and the
        cache byte-identical to its pre-concurrency behaviour.
    storage_policy:
        Opt-in durable L2 tier
        (:class:`~repro.cache.policies.DefaultStoragePolicy`): evictions
        demote their bytes and metadata to checksummed on-disk
        segments, misses promote them back under full validity gating
        (chain signature, source probe, CRC, verifiers), the write-back
        journal and transform memo spill to disk, and
        :meth:`restart` recovers all of it after a :meth:`crash` with
        every recovered entry verifier-gated on its first serve.  Disk
        faults trip a storage breaker; while it is open the cache runs
        L1-only.  ``None`` (the default) builds no tier and keeps the
        cache byte-identical to its storage-free behaviour.
    overload_policy:
        Opt-in overload robustness
        (:class:`~repro.cache.policies.DefaultOverloadPolicy`): every
        application read carries an end-to-end
        :class:`~repro.overload.budget.DeadlineBudget` (tightened to
        the chain's QoS access-time target when one is declared),
        charged implicitly by every virtual-clock charge on the path
        and gated explicitly before the expensive seams; an expired
        read degrades through the serve-stale ladder instead of
        starting work nobody will wait for, and retry backoff never
        sleeps past the remaining budget.  A token-bucket + sojourn
        admission controller in front of the pipeline sheds
        lowest-priority reads first (priority derived from the chain's
        properties: pinning → critical, finite QoS target → qos, else
        bulk) so goodput stays flat past saturation.  Shed and
        deadline-failed reads surface as typed
        :class:`~repro.errors.OverloadShedError` /
        :class:`~repro.errors.DeadlineExceededError` outcomes — always
        in-place entries from :meth:`read_many`, regardless of
        ``return_exceptions``.  ``None`` (the default) keeps every read
        unbudgeted and unshed, byte-identical to the pre-overload
        pipeline.
    core:
        Injected :class:`~repro.cache.core.CacheCore` — the cluster
        layer's seam.  When supplied, the state-building arguments
        (capacity, replacement policy, bus, topology, write mode,
        feature flags, backing, retry policy) are taken from the
        injected core and the corresponding constructor arguments are
        ignored; this cache becomes pure wiring (pipelines, planes,
        projections) over externally owned state.
    memo:
        Injected :class:`~repro.cache.memo.TransformMemo` (or a
        subclass — the cluster's shared cross-shard view).  Requires a
        ``memo_policy``; without this argument a private table of the
        policy's capacity is built, the historical behaviour.
    flights:
        Injected :class:`~repro.sim.scheduler.FlightTable`.  A cluster
        passes one table to every shard so single-flight coalescing on
        the ``(source signature, chain fingerprint)`` memo plane spans
        shard boundaries; by default each cache owns a private table.
    """

    def __init__(
        self,
        kernel: "PlacelessKernel",
        capacity_bytes: int,
        policy: ReplacementPolicy | None = None,
        bus: InvalidationBus | None = None,
        write_mode: WriteMode = WriteMode.WRITE_THROUGH,
        install_notifiers: bool = True,
        use_verifiers: bool = True,
        track_staleness: bool = False,
        placement: "CachePlacement | None" = None,
        backing: "DocumentCache | None" = None,
        share_across_users: bool = False,
        retry_policy: "RetryPolicy | None" = None,
        name: str = "cache",
        admission_policy: AdmissionPolicy | None = None,
        degradation_policy: DefaultDegradationPolicy | None = None,
        instrumentation: InstrumentationBus | None = None,
        recovery_policy: DefaultRecoveryPolicy | None = None,
        containment_policy: DefaultContainmentPolicy | None = None,
        memo_policy: DefaultMemoPolicy | None = None,
        concurrency_policy: DefaultConcurrencyPolicy | None = None,
        storage_policy: DefaultStoragePolicy | None = None,
        overload_policy: DefaultOverloadPolicy | None = None,
        core: CacheCore | None = None,
        memo: TransformMemo | None = None,
        flights: "FlightTable | None" = None,
    ) -> None:
        ctx = kernel.ctx
        if core is not None:
            self.instrumentation = core.instrumentation
            self._core = core
        else:
            if capacity_bytes <= 0:
                raise CacheCapacityError(
                    f"capacity must be positive: {capacity_bytes}"
                )
            self.instrumentation = (
                InstrumentationBus() if instrumentation is None
                else instrumentation
            )
            self._core = CacheCore(
                kernel=kernel,
                capacity_bytes=capacity_bytes,
                cache_id=ctx.ids.cache(name),
                policy=policy or GreedyDualSizePolicy(),
                admission=admission_policy or VoteAdmissionPolicy(),
                degradation=degradation_policy or DefaultDegradationPolicy(),
                bus=bus
                or InvalidationBus(ctx, instrumentation=self.instrumentation),
                instrumentation=self.instrumentation,
                topology=(
                    ctx.topology
                    if placement is None
                    else Topology(placement=placement)
                ),
                write_mode=write_mode,
                install_notifiers=install_notifiers,
                use_verifiers=use_verifiers,
                track_staleness=track_staleness,
                share_across_users=share_across_users,
                backing=backing,
                retry_policy=retry_policy,
            )
            self._core.name = name
        # Projections subscribe first, so the events of L2's
        # construction-time recovery scan are counted.
        self._wire_projections()
        self._wire_containment(containment_policy, ctx)
        self._wire_memo(memo_policy, memo)
        self._wire_concurrency(concurrency_policy, flights)
        self._wire_overload(overload_policy, ctx)
        self._wire_recovery(recovery_policy)
        # Storage wires after memo and recovery: the tier's
        # construction-time recovery scan reloads into the memo table
        # and dirty buffer, which their wiring must have set up first.
        self._wire_storage(storage_policy)
        # The read plan holds only the enabled seams, so it compiles
        # once every seam is wired.
        self._wire_pipelines()
        self._schedule_fault_crashes(ctx)

    # -- construction steps ---------------------------------------------------

    def _wire_projections(self) -> None:
        """The stats projection and the stage recorder."""
        self.recorder = StageRecorder()
        self.instrumentation.subscribe(StatsProjection(self._core.stats))
        self.instrumentation.subscribe(self.recorder)

    def _wire_pipelines(self) -> None:
        """Read/write pipelines and the prefetch queue."""
        self._writes = WritePipeline(self._core)
        self._reads = ReadPipeline(self._core, self._writes)
        self._prefetch_queue: list["DocumentReference"] = []
        self._draining_prefetch = False

    def _wire_containment(
        self, containment_policy: DefaultContainmentPolicy | None, ctx
    ) -> None:
        self._containment: ContainmentGuard | None = None
        if containment_policy is not None:
            self._containment = ContainmentGuard(
                containment_policy, ctx, self.instrumentation
            )
            self._core.containment = self._containment
            ctx.containment = self._containment

    def _wire_memo(
        self,
        memo_policy: DefaultMemoPolicy | None,
        memo: TransformMemo | None,
    ) -> None:
        self._memo_stats: MemoStatsProjection | None = None
        if memo_policy is None:
            if memo is not None:
                raise CacheError(
                    "an injected memo table requires a memo_policy"
                )
            return
        self._core.memo_policy = memo_policy
        self._core.memo = (
            memo if memo is not None else TransformMemo(memo_policy.capacity)
        )
        self._memo_stats = MemoStatsProjection()
        self.instrumentation.subscribe(self._memo_stats)

    def _wire_concurrency(
        self,
        concurrency_policy: DefaultConcurrencyPolicy | None,
        flights: "FlightTable | None",
    ) -> None:
        self._concurrency_stats: ConcurrencyStatsProjection | None = None
        if flights is not None:
            self._core.flights = flights
        if concurrency_policy is not None:
            self._core.concurrency = concurrency_policy
            self._concurrency_stats = ConcurrencyStatsProjection()
            self.instrumentation.subscribe(self._concurrency_stats)

    def _wire_overload(
        self, overload_policy: DefaultOverloadPolicy | None, ctx
    ) -> None:
        self._overload_stats: OverloadStatsProjection | None = None
        if overload_policy is None:
            return
        self._core.overload = OverloadGate(ctx.clock, overload_policy)
        self._overload_stats = OverloadStatsProjection()
        self.instrumentation.subscribe(self._overload_stats)

    def _wire_recovery(
        self, recovery_policy: DefaultRecoveryPolicy | None
    ) -> None:
        self._recovery: ConsistencyRecoveryManager | None = None
        if recovery_policy is not None:
            self._recovery = ConsistencyRecoveryManager(
                self._core, recovery_policy, self.apply_invalidation
            )
            self._core.recovery = self._recovery
            self.bus.register(self.cache_id, self._recovery.receive)
        else:
            self.bus.register(self.cache_id, self.apply_invalidation)

    def _wire_storage(
        self, storage_policy: DefaultStoragePolicy | None
    ) -> None:
        if storage_policy is None:
            return
        from repro.storage.tier import L2Tier

        self._core.l2 = L2Tier(self._core, storage_policy)

    def _schedule_fault_crashes(self, ctx) -> None:
        # Scheduled crash instants apply to every cache on the faulted
        # context, journalled or not — the unjournalled one simply loses
        # its unflushed writes, which is the A13 contrast.
        plan = ctx.faults
        if plan is not None:
            for instant in plan.cache_crashes:
                if instant >= ctx.clock.now_ms:
                    ctx.clock.call_at(instant, self._crash_and_restart)

    # -- wiring access -------------------------------------------------------

    #: Attributes transparently read from the core (kernel/context/state
    #: handles plus the construction-time configuration flags).
    _CORE_ATTRS = frozenset({
        "kernel", "ctx", "capacity_bytes", "policy", "bus", "stats",
        "store", "cache_id", "write_mode", "backing", "retry_policy",
        "install_notifiers", "use_verifiers", "track_staleness",
        "share_across_users",
    })

    def __getattr__(self, name: str):
        if name in DocumentCache._CORE_ATTRS:
            return getattr(self._core, name)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    @property
    def core(self) -> CacheCore:
        """The state container behind this cache (the cluster seam)."""
        return self._core

    @property
    def admission_policy(self) -> AdmissionPolicy:
        """The fill-admission policy."""
        return self._core.admission

    @property
    def degradation_policy(self) -> DefaultDegradationPolicy:
        """The degradation/quarantine policy."""
        return self._core.degradation

    # -- introspection ------------------------------------------------------

    def __contains__(self, key: EntryKey) -> bool:
        return key in self._core.entries

    def __len__(self) -> int:
        return len(self._core.entries)

    def entries(self) -> list[CacheEntry]:
        """All live entries (unspecified order)."""
        return list(self._core.entries.values())

    def entry_for(self, reference: "DocumentReference") -> CacheEntry | None:
        """The live entry for a reference's (document, user) pair, if any."""
        return self._core.entries.get(self._key(reference))

    @property
    def used_bytes(self) -> int:
        """Physical (deduplicated) bytes currently cached."""
        return self._core.store.physical_bytes

    @staticmethod
    def _key(reference: "DocumentReference") -> EntryKey:
        return EntryKey.for_reference(reference)

    def _expected_chain_signature(self, reference: "DocumentReference"):
        """See :meth:`CacheCore.expected_chain_signature`."""
        return self._core.expected_chain_signature(reference)

    def stage_breakdown(self) -> StageRecorder:
        """Per-(stage, outcome) count/latency recorder for this cache."""
        return self.recorder

    def describe(self) -> str:
        """Human-readable dump of the cache's state, one line per entry."""
        core = self._core
        lines = [
            f"{self.cache_id}: {len(core.entries)} entries, "
            f"{core.store.physical_bytes}/{self.capacity_bytes} bytes "
            f"({len(core.store)} distinct contents), "
            f"policy={self.policy.name}, mode={self.write_mode.value}"
        ]
        for entry in sorted(core.entries.values(), key=lambda e: str(e.key)):
            flags = []
            if entry.pinned:
                flags.append("pinned")
            if entry.is_dirty:
                flags.append("dirty")
            lines.append(
                f"  {entry.key} -> {entry.signature.short} "
                f"{entry.size}B {entry.cacheability.name} "
                f"verifiers={len(entry.verifiers)} "
                f"cost={entry.replacement_cost_ms:.2f}ms "
                f"accesses={entry.access_count}"
                + (f" [{','.join(flags)}]" if flags else "")
            )
        if core.dirty:
            lines.append(f"  dirty write-backs pending: {len(core.dirty)}")
        return "\n".join(lines)

    # -- read path -----------------------------------------------------------

    def read(self, reference: "DocumentReference") -> CacheReadOutcome:
        """Read the document through the cache.

        Any collection-prefetch requests queued by properties during the
        read are serviced *after* the outcome is computed, so prefetch
        work never inflates the triggering read's latency.

        Every read, in every configuration, runs the one staged
        :class:`~repro.cache.pipeline.ReadPipeline`; under the default
        sequential scheduler a hit is the entry lookup plus the verifier
        gate, with counters folded straight into the wired projections.
        """
        outcome = self._reads.read(reference)
        self._drain_prefetch()
        return outcome

    def read_many(
        self,
        references: typing.Sequence["DocumentReference"],
        *,
        return_exceptions: bool = False,
    ) -> list[CacheReadOutcome]:
        """Read a batch concurrently; outcomes in submission order.

        With a ``concurrency_policy``, the batch runs under an
        asyncio-backed :class:`~repro.sim.scheduler.AsyncScheduler`:
        reads interleave at the verifier and fetch/chain seams, and —
        when the policy coalesces — concurrent misses on one key share
        a single flight.  Without one, the batch degenerates to
        sequential :meth:`read` calls, so callers can use ``read_many``
        unconditionally.

        With ``return_exceptions`` per-read failures are returned
        in-place instead of re-raised (the whole batch always runs to
        termination either way).  With an ``overload_policy``, shed and
        deadline-failed reads are *always* returned in-place as typed
        :class:`~repro.errors.OverloadShedError` /
        :class:`~repro.errors.DeadlineExceededError` entries — an
        overloaded batch is an expected outcome, not a caller bug —
        and every read in the batch shares the batch-start enqueue
        instant, so sojourn (and the deadline) accrues while earlier
        reads hold the clock.
        """
        overload = self._core.overload
        if self._core.concurrency is None:
            if overload is None:
                # The historical sequential arm, byte-identical.
                if not return_exceptions:
                    return [self.read(reference) for reference in references]
                outcomes: list = []
                for reference in references:
                    try:
                        outcomes.append(self.read(reference))
                    except Exception as error:
                        outcomes.append(error)
                return outcomes
            enqueued_ms = self._core.ctx.clock.now_ms
            gated: list = []
            for reference in references:
                try:
                    gated.append(
                        self._reads.read(reference, enqueued_ms=enqueued_ms)
                    )
                except (OverloadShedError, DeadlineExceededError) as error:
                    gated.append(error)
                except Exception as error:
                    if not return_exceptions:
                        raise
                    gated.append(error)
                self._drain_prefetch()
            return gated
        scheduler = AsyncScheduler()
        if overload is None:
            results = scheduler.run(
                [
                    self.iterate_read(reference, scheduler=scheduler)
                    for reference in references
                ],
                return_exceptions=return_exceptions,
            )
            self._drain_prefetch()
            return results
        enqueued_ms = self._core.ctx.clock.now_ms
        results = scheduler.run(
            [
                self.iterate_read(
                    reference, scheduler=scheduler, enqueued_ms=enqueued_ms
                )
                for reference in references
            ],
            return_exceptions=True,
        )
        if not return_exceptions:
            for result in results:
                if isinstance(result, BaseException) and not isinstance(
                    result, (OverloadShedError, DeadlineExceededError)
                ):
                    raise result
        self._drain_prefetch()
        return results

    def iterate_read(
        self,
        reference: "DocumentReference",
        *,
        scheduler,
        enqueued_ms: float | None = None,
    ):
        """One read as a suspendable generator for an external scheduler.

        The cluster-layer seam behind :meth:`read_many`: a coordinator
        fanning a batch across several caches builds one
        :class:`~repro.sim.scheduler.AsyncScheduler`, collects each
        target cache's generator through this method, and drives them
        together — deterministic interleaving and single-flight
        coalescing then span cache boundaries.  Callers must
        :meth:`drain_prefetch` once the batch completes.
        """
        return self._reads.iterate(
            reference, scheduler=scheduler, enqueued_ms=enqueued_ms
        )

    def drain_prefetch(self) -> None:
        """Service queued collection prefetches (see :meth:`read_many`)."""
        self._drain_prefetch()

    def read_for_fill(self, reference: "DocumentReference"):
        """Serve an upper-level cache: content plus fill metadata.

        A hit synthesizes the metadata the upper cache needs (verifiers,
        cacheability, replacement cost, chain signature) from the stored
        entry — the same information the read path originally supplied;
        a miss runs the normal miss path and reuses its metadata.
        """
        return self._reads.read_for_fill(reference)

    # -- collection prefetch (§5 "related documents") -------------------------

    def request_prefetch(self, reference: "DocumentReference") -> bool:
        """Queue a sibling document for prefetching after the current read
        (used by ``CollectionPrefetchProperty`` to tailor caching for
        related documents).  Returns True if queued."""
        key = self._key(reference)
        if key in self._core.entries:
            return False
        if any(self._key(queued) == key for queued in self._prefetch_queue):
            return False
        self._prefetch_queue.append(reference)
        self._core.emit("prefetch", "requested", key=key)
        return True

    def _drain_prefetch(self) -> None:
        """Fill every queued prefetch (misses only; no recursion)."""
        if self._draining_prefetch:
            return
        self._draining_prefetch = True
        try:
            while self._prefetch_queue:
                reference = self._prefetch_queue.pop(0)
                key = self._key(reference)
                if key in self._core.entries:
                    continue
                self._reads.read(reference)
                entry = self._core.entries.get(key)
                if entry is not None:
                    entry.policy_state["prefetched"] = True
                    self._core.emit("prefetch", "filled", key=key)
        finally:
            self._draining_prefetch = False

    # -- write path -----------------------------------------------------------

    def write(self, reference: "DocumentReference", content: bytes) -> float:
        """Write through (or into) the cache; returns elapsed virtual ms."""
        return self._writes.write(reference, content)

    def flush(self, reference: "DocumentReference") -> bool:
        """Push a buffered write-back through the full write path."""
        return self._writes.flush(reference)

    def flush_all(self) -> int:
        """Flush every buffered write-back; returns how many flushed."""
        return self._writes.flush_all()

    @property
    def dirty_count(self) -> int:
        """Buffered (unflushed) write-backs."""
        return len(self._core.dirty)

    # -- containment -----------------------------------------------------------

    @property
    def containment(self) -> ContainmentGuard | None:
        """The containment guard, when a containment policy is set."""
        return self._containment

    @property
    def containment_stats(self) -> ContainmentStats | None:
        """Containment counters (``None`` without a containment policy)."""
        return (
            self._containment.stats if self._containment is not None else None
        )

    # -- transform memoization -------------------------------------------------

    @property
    def memo(self) -> TransformMemo | None:
        """The transform memo table, when a memo policy is set."""
        return self._core.memo

    @property
    def memo_policy(self) -> DefaultMemoPolicy | None:
        """The memo policy, when one is set."""
        return self._core.memo_policy

    @property
    def memo_stats(self) -> MemoStats | None:
        """Memo-plane counters (``None`` without a memo policy)."""
        return (
            self._memo_stats.stats if self._memo_stats is not None else None
        )

    # -- concurrency -----------------------------------------------------------

    @property
    def concurrency_policy(self) -> DefaultConcurrencyPolicy | None:
        """The concurrency policy, when one is set."""
        return self._core.concurrency

    @property
    def concurrency_stats(self) -> ConcurrencyStats | None:
        """Single-flight counters (``None`` without a concurrency policy)."""
        return (
            self._concurrency_stats.stats
            if self._concurrency_stats is not None
            else None
        )

    # -- overload --------------------------------------------------------------

    @property
    def overload_policy(self) -> DefaultOverloadPolicy | None:
        """The overload policy, when one is set."""
        gate = self._core.overload
        return gate.policy if gate is not None else None

    @property
    def overload_stats(self) -> OverloadStats | None:
        """Overload-layer counters (``None`` without an overload policy)."""
        return (
            self._overload_stats.stats
            if self._overload_stats is not None
            else None
        )

    # -- durable storage -------------------------------------------------------

    @property
    def storage(self) -> "L2Tier | None":
        """The durable L2 tier, when a storage policy is set."""
        return self._core.l2

    @property
    def storage_stats(self) -> "StorageStats | None":
        """Durable-tier counters (``None`` without a storage policy)."""
        return self._core.l2.stats if self._core.l2 is not None else None

    def compact_storage(self) -> int:
        """Reclaim dead bytes in the durable tier; returns bytes freed.

        Requires a storage policy (there is nothing to compact without
        the tier).
        """
        if self._core.l2 is None:
            raise CacheError(
                "compact_storage requires a storage_policy on this cache"
            )
        return self._core.l2.compact()

    # -- consistency recovery --------------------------------------------------

    @property
    def recovery(self) -> ConsistencyRecoveryManager | None:
        """The recovery coordinator, when a recovery policy is set."""
        return self._recovery

    @property
    def recovery_stats(self) -> RecoveryStats | None:
        """Recovery-layer counters (``None`` without a recovery policy)."""
        return self._recovery.stats if self._recovery is not None else None

    def resync(self) -> int:
        """Force one anti-entropy resync; returns entries repaired.

        Requires a recovery policy (the resync needs the channel/lease
        machinery to reset afterwards).
        """
        if self._recovery is None:
            raise CacheError(
                "resync requires a recovery_policy on this cache"
            )
        return self._recovery.resync()

    def crash(self) -> None:
        """Simulate a cache-process crash: volatile state vanishes.

        The entry table, content store references and dirty write-back
        buffer are discarded without invalidation traffic (the process
        died; nothing ran).  The write-back journal — stable storage —
        survives for :meth:`restart` to replay.
        """
        core = self._core
        core.emit(
            "crash", "crashed",
            entries=len(core.entries), dirty=len(core.dirty),
        )
        for entry in list(core.entries.values()):
            core.remove_entry(entry)
        core.dirty.clear()
        self._prefetch_queue.clear()
        # The memo is volatile state too: a record that survived the
        # crash could map onto content-store bytes that did not.
        core.memo_purge("crash")
        if core.l2 is not None:
            # The durable tier loses exactly its un-fsynced bytes and
            # its in-memory catalog; what the disk kept, :meth:`restart`
            # recovers.
            core.l2.crash()
        if self._recovery is not None:
            self._recovery.on_crash()

    def restart(self) -> int:
        """Recover after :meth:`crash`; returns replayed dirty writes.

        With a journalling recovery policy the unflushed write-backs are
        replayed into the dirty buffer (idempotently), the notifier
        lease is re-granted and the channel resynced; without one the
        restart comes back empty-handed.  With a storage policy the
        durable tier then recovers on top: the demotion catalog is
        rebuilt (every recovered entry verify-on-first-serve), disk-
        journalled writes the in-memory journal did not cover are
        replayed, and spilled memo records reload — the warm restart.
        """
        replayed = 0
        if self._recovery is not None:
            replayed = self._recovery.on_restart()
        if self._core.l2 is not None:
            self._core.l2.recover()
        self._core.emit("crash", "restarted", replayed=replayed)
        return replayed

    def _crash_and_restart(self) -> None:
        """Clock callback for fault-plan scheduled crash instants."""
        self.crash()
        self.restart()

    # -- invalidation ------------------------------------------------------------

    def apply_invalidation(self, invalidation: Invalidation) -> None:
        """Sink for the invalidation bus (notifier deliveries)."""
        core = self._core
        core.emit(
            "notifier", "delivered",
            key=EntryKey(invalidation.document_id, invalidation.user_id),
        )
        # An invalidation names its document, so only that document's
        # bucket can match — the full-table scan was O(entries) per
        # delivered notifier.  Bucket order is global insertion order
        # restricted to the document, so drops happen in the same
        # relative order the scan produced.
        for key in list(core.entries_for_document(invalidation.document_id)):
            if invalidation.matches_key(key):
                core.drop(
                    core.entries[key], invalidation.reason,
                    origin=invalidation.origin,
                )

    def invalidate_document(
        self, document_id: DocumentId, user_id: UserId | None = None
    ) -> int:
        """Explicitly drop entries for a document; returns count dropped."""
        dropped = 0
        core = self._core
        invalidation = Invalidation(
            reason=InvalidationReason.EXPLICIT,
            document_id=document_id,
            user_id=user_id,
            at_ms=core.ctx.clock.now_ms,
        )
        for key in list(core.entries_for_document(document_id)):
            if invalidation.matches_key(key):
                core.drop(core.entries[key], InvalidationReason.EXPLICIT)
                dropped += 1
        return dropped

    def clear(self) -> None:
        """Drop every entry (flushing nothing; dirty buffers survive)."""
        core = self._core
        for entry in list(core.entries.values()):
            core.drop(entry, InvalidationReason.EXPLICIT)
