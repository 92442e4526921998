"""Shared cache state and entry-table mechanics for the staged pipeline.

:class:`CacheCore` is the hub every pipeline stage holds: the entry
table, the content store, the replacement/admission/degradation
policies, the topology, the instrumentation bus and the invalidation
bus.  It owns the *mechanics* that several stages share — fill, drop,
evict, content replacement, event forwarding — while the per-stage
*logic* (verifier gating, adoption scanning, fetch/degradation,
admission) lives in :mod:`repro.cache.pipeline` and the public API in
:mod:`repro.cache.manager`.

Every miss the cache answers without running the property chain — a
§3 signature adoption, a transform-memo serve, an L2 promotion — goes
through the same three steps a fill does: :meth:`CacheCore.reverify`
re-runs the verifiers guarding the reused bytes,
:meth:`CacheCore.install` makes the signature live for the new
(document, user) key, and :meth:`CacheCore.miss_result` terminates the
read.

Everything here charges the virtual clock in exactly the order the
pre-pipeline monolith did; the equivalence tests pin that.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.cache.consistency import Invalidation, InvalidationReason
from repro.cache.entry import CacheEntry, EntryKey
from repro.cache.instrumentation import InstrumentationBus
from repro.cache.memo import ChainFingerprint, MemoRecord, TransformMemo
from repro.cache.notifiers import InvalidationBus, install_minimum_notifiers
from repro.cache.stats import CacheStats
from repro.cache.verifiers import Verdict, Verifier
from repro.content.signature import ContentSignature, sign
from repro.content.store import ContentStore
from repro.errors import CacheError
from repro.events.types import EventType
from repro.sim.scheduler import FlightTable, Scheduler, SequentialScheduler
from repro.streams.chain import read_chain_properties

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cache.cacheability import Cacheability
    from repro.cache.containment import ContainmentGuard
    from repro.cache.manager import DocumentCache, WriteMode
    from repro.cache.pipeline import ReadContext
    from repro.cache.policies import (
        AdmissionPolicy,
        DefaultConcurrencyPolicy,
        DefaultDegradationPolicy,
        DefaultMemoPolicy,
    )
    from repro.cache.recovery import ConsistencyRecoveryManager
    from repro.cache.replacement import ReplacementPolicy
    from repro.faults.retry import RetryPolicy
    from repro.ids import CacheId, DocumentId
    from repro.overload.budget import DeadlineBudget
    from repro.overload.gate import OverloadGate
    from repro.placeless.document import PathMeta
    from repro.placeless.kernel import PlacelessKernel
    from repro.placeless.reference import DocumentReference
    from repro.sim.context import SimContext
    from repro.sim.topology import Topology
    from repro.storage.tier import L2Tier

__all__ = [
    "CacheCore",
    "CacheReadOutcome",
    "NOTIFIER_INSTALL_COST_MS",
    "VERIFIER_INSTALL_COST_MS",
    "ADOPTION_COST_MS",
]

#: Simulated cost of creating one notifier property at fill time — part
#: of the small miss overhead Table 1 reports.
NOTIFIER_INSTALL_COST_MS = 0.15
#: Simulated cost of receiving/registering one verifier at fill time.
VERIFIER_INSTALL_COST_MS = 0.05
#: Simulated cost of the metadata exchange that establishes a
#: (document, user) → signature mapping from another user's entry.
ADOPTION_COST_MS = 0.3

#: Shared empty read-only bucket for documents with no cached entries.
_NO_ENTRIES: dict = {}


@dataclass(slots=True)
class CacheReadOutcome:
    """Result of one read through the cache."""

    content: bytes
    hit: bool
    elapsed_ms: float
    #: "hit", "revalidated", "miss", "miss-verifier", "miss-invalidated",
    #: "uncacheable", "miss-oversize", "miss-adopted", "miss-memoized"
    #: (served by the transform memo: signature adoption, no chain
    #: execution), "miss-promoted" (served by promoting a demoted copy
    #: back from the durable L2 tier — chain-, source-, CRC- and
    #: verifier-gated), or a degraded mode: "stale-on-error" (bounded
    #: stale bytes served because the refetch failed) / "miss-degraded"
    #: (fetched past a failed backing level).
    disposition: str

    @property
    def degraded(self) -> bool:
        """True when this read was answered in a degradation mode."""
        return self.disposition in ("stale-on-error", "miss-degraded")

    @property
    def size(self) -> int:
        """Bytes delivered to the application."""
        return len(self.content)


class CacheCore:
    """Mutable state + shared mechanics behind one ``DocumentCache``."""

    def __init__(
        self,
        kernel: "PlacelessKernel",
        capacity_bytes: int,
        cache_id: "CacheId",
        policy: "ReplacementPolicy",
        admission: "AdmissionPolicy",
        degradation: "DefaultDegradationPolicy",
        bus: InvalidationBus,
        instrumentation: InstrumentationBus,
        topology: "Topology",
        write_mode: "WriteMode",
        install_notifiers: bool,
        use_verifiers: bool,
        track_staleness: bool,
        share_across_users: bool,
        backing: "DocumentCache | None",
        retry_policy: "RetryPolicy | None",
    ) -> None:
        self.kernel = kernel
        self.ctx: "SimContext" = kernel.ctx
        self.capacity_bytes = capacity_bytes
        self.cache_id = cache_id
        self.policy = policy
        self.admission = admission
        self.degradation = degradation
        self.bus = bus
        self.instrumentation = instrumentation
        self.topology = topology
        self.write_mode = write_mode
        self.install_notifiers = install_notifiers
        self.use_verifiers = use_verifiers
        self.track_staleness = track_staleness
        self.share_across_users = share_across_users
        self.backing = backing
        self.retry_policy = retry_policy
        self.stats = CacheStats()
        self.store = ContentStore()
        self.entries: dict[EntryKey, CacheEntry] = {}
        #: Secondary index: document → that document's live entries, in
        #: global insertion order.  Adoption scans and invalidation
        #: fan-out were O(total entries) per event without it, which is
        #: what made million-entry tables unusable.
        self.entries_by_document: dict[
            "DocumentId", dict[EntryKey, CacheEntry]
        ] = {}
        self.dirty: dict[EntryKey, tuple["DocumentReference", bytes]] = {}
        #: The consistency-recovery coordinator, installed by the manager
        #: when a recovery policy is configured; ``None`` (the default)
        #: leaves every pipeline seam recovery-free and byte-identical.
        self.recovery: "ConsistencyRecoveryManager | None" = None
        #: The containment guard wrapped around property-code seams,
        #: installed by the manager when a containment policy is
        #: configured; ``None`` (the default) keeps every seam on the
        #: historical unguarded path.
        self.containment: "ContainmentGuard | None" = None
        #: The transform memoization plane, installed by the manager
        #: when a memo policy is configured; ``None`` (the default)
        #: keeps the memo stage out of the read plan and the golden
        #: digests byte-identical.
        self.memo: TransformMemo | None = None
        self.memo_policy: "DefaultMemoPolicy | None" = None
        #: The scheduler that drives pipeline generators.  Sequential by
        #: default — the historical one-access-at-a-time regime every
        #: golden digest pins; ``read_many`` swaps in an
        #: :class:`~repro.sim.scheduler.AsyncScheduler` per batch.
        self.scheduler: "Scheduler" = SequentialScheduler()
        #: In-progress single-flight misses (always constructed, only
        #: ever populated under a concurrent scheduler with a
        #: concurrency policy whose ``coalesce`` flag is on).
        self.flights = FlightTable()
        #: The concurrency policy, installed by the manager when one is
        #: configured; ``None`` (the default) keeps the single-flight
        #: stage out of the read plan.
        self.concurrency: "DefaultConcurrencyPolicy | None" = None
        #: The durable L2 tier, installed by the manager when a storage
        #: policy is configured; ``None`` (the default) keeps the
        #: storage stage out of the read plan, evictions purely
        #: destructive and restarts cold.
        self.l2: "L2Tier | None" = None
        #: The overload gate (deadlines + admission control), installed
        #: by the manager when an overload policy is configured;
        #: ``None`` (the default) keeps every read unbudgeted and
        #: unshed — the historical path the golden digests pin.
        self.overload: "OverloadGate | None" = None
        #: The plain cache name (the manager's ``name`` argument, before
        #: id-minting prefixes it) — the target string fault-plan gray
        #: windows match against.
        self.name: str = "cache"

    # -- instrumentation -----------------------------------------------------

    def emit(
        self,
        stage: str,
        outcome: str,
        key: EntryKey | None = None,
        started_ms: float | None = None,
        **payload,
    ) -> None:
        """Publish one stage observation, payload as keywords.

        The convenience form of :meth:`publish` for sites off the hit
        path; *started_ms* defaults to now.
        """
        self.publish(stage, outcome, key, started_ms, payload)

    def publish(
        self,
        stage: str,
        outcome: str,
        key: EntryKey | None,
        started_ms: float | None,
        payload: dict,
    ) -> None:
        """Publish one stage observation that ends now.

        The observation is folded straight into the counters wired on
        the instrumentation bus — stats, stage recorder, seam
        projections — through the bus's per-stage route; a
        :class:`~repro.cache.instrumentation.StageEvent` is built only
        when a plain subscriber listens.  Hit-path sites call this form
        directly: building a keyword dict costs more than the counters.
        """
        bus = self.instrumentation
        if bus.observed:
            now = self.ctx.clock.now_ms
            bus.publish(
                stage, outcome,
                None if key is None else key.document_id,
                None if key is None else key.user_id,
                now if started_ms is None else started_ms, now, payload,
            )
            return
        if started_ms is None:
            elapsed_ms = 0.0
        else:
            elapsed_ms = self.ctx.clock.now_ms - started_ms
        # The route walk of InstrumentationBus.publish, inlined: a hit
        # publishes twice, and the extra call frame is measurable.
        for handler in bus.routes.get(stage, bus.every):
            handler(stage, outcome, elapsed_ms, payload)

    # -- fetch (next level down) ---------------------------------------------

    def fetch(self, reference: "DocumentReference"):
        """Fetch content + path metadata from the next level down.

        With a backing cache this is the second-level cache (which may
        itself hit or miss); without one it is the full Placeless read
        path.
        """
        if self.backing is not None:
            return self.backing.read_for_fill(reference)
        outcome = self.kernel.read(reference)
        return outcome.content, outcome.meta

    def fetch_with_retry(
        self,
        reference: "DocumentReference",
        budget: "DeadlineBudget | None" = None,
    ):
        """Fetch from the level below under the retry policy, if any.

        A *budget* caps retry backoff at the read's remaining deadline
        (re-evaluated before each sleep) — retries never burn time the
        caller no longer has.  A gray-failing shard (fault-plan window
        targeting this cache's name) charges its slow-fetch penalty
        here, before the fetch proper, which is what the cluster's
        hedge delay races against.
        """
        faults = self.ctx.faults
        if faults is not None:
            gray_ms = faults.gray_fetch_delay_ms(self.name)
            if gray_ms > 0.0:
                self.ctx.charge(gray_ms)
                self.emit("fetch", "gray-slow", delay_ms=gray_ms)
        if self.retry_policy is None:
            return self.fetch(reference)
        return self.retry_policy.call(
            self.ctx,
            lambda: self.fetch(reference),
            on_retry=self.count_retry,
            budget_ms=None if budget is None else (lambda: budget.remaining_ms),
        )

    def count_retry(
        self, attempt: int, delay_ms: float, error: BaseException
    ) -> None:
        """Retry-policy callback: account one backoff wait."""
        self.emit("fetch", "retry", delay_ms=delay_ms, attempt=attempt)

    # -- entry-table mechanics -------------------------------------------------

    def fill(
        self, reference: "DocumentReference", key: EntryKey,
        content: bytes, meta: "PathMeta",
    ) -> CacheEntry:
        """Insert (or refresh) the entry for *key* with fetched *content*."""
        # Sign once: the signature feeds the store (which would
        # otherwise re-hash the same bytes) and the transform memo.
        signature = sign(content)
        self.store.put_signed(content, signature)
        # Fill overhead: the returned verifiers are registered (charged
        # inside the install) and the minimum notifier set installed —
        # Table 1's miss-vs-no-cache delta.
        return self.install(
            reference, key, signature, len(content),
            cacheability=meta.cacheability,
            verifiers=meta.verifiers,
            replacement_cost_ms=meta.replacement_cost_ms,
            chain_signature=meta.chain_signature,
            pinned=bool(getattr(meta, "pin", False)),
            source_signature=meta.source_signature,
            verifier_install_ms=VERIFIER_INSTALL_COST_MS * len(meta.verifiers),
        )

    def install(
        self,
        reference: "DocumentReference",
        key: EntryKey,
        signature: ContentSignature,
        size: int,
        *,
        cacheability: "Cacheability",
        verifiers: typing.Iterable[Verifier],
        replacement_cost_ms: float,
        chain_signature: tuple[str, ...],
        pinned: bool,
        source_signature: ContentSignature | None,
        verifier_install_ms: float | None = None,
    ) -> CacheEntry:
        """Make *signature* live for *key*: the one way an entry is born.

        Runs after the caller's store operation — ``put_signed`` for
        new bytes, ``adopt`` for bytes the store already holds — whose
        one reference the entry takes over.  Any existing entry for the
        key is replaced, and room is made *before* the new entry exists:
        a heap policy drops the item of a protected key it pops, so
        evicting after the insert would leave the entry unevictable for
        good.  When no new bytes arrived the store already fits and the
        eviction is a no-op.  Then the entry is inserted and registered
        with the replacement policy, *verifier_install_ms* (a fill's
        verifier registration) is charged, the minimum notifier set is
        installed and recovery learns the entry's reference.
        """
        existing = self.entries.get(key)
        if existing is not None:
            self.remove_entry(existing)
        self.evict_to_capacity(protect=key)
        now = self.ctx.clock.now_ms
        entry = CacheEntry(
            key=key,
            signature=signature,
            size=size,
            cacheability=cacheability,
            verifiers=list(verifiers),
            replacement_cost_ms=replacement_cost_ms,
            chain_signature=chain_signature,
            reference_id=reference.reference_id,
            created_at_ms=now,
            last_access_ms=now,
            pinned=pinned,
            policy_state={"source_signature": source_signature},
        )
        self.insert_entry(entry)
        self.policy.on_insert(entry)
        if verifier_install_ms is not None:
            self.ctx.charge(verifier_install_ms)
        if self.install_notifiers:
            installed = install_minimum_notifiers(
                reference, self.bus, self.cache_id
            )
            self.ctx.charge(NOTIFIER_INSTALL_COST_MS * len(installed))
        if self.recovery is not None:
            self.recovery.note_reference(key, reference)
        return entry

    def charge_metadata_exchange(self) -> None:
        """Charge the handshake that maps a new key onto held bytes.

        Adoption, memo serves and L2 promotions move no content across
        the network: the local hop at zero bytes, plus the exchange that
        establishes the (document, user) → signature mapping.
        """
        for hop in self.topology.hit_path():
            self.ctx.charge_hop(hop, 0)
        self.ctx.charge(ADOPTION_COST_MS)

    def reverify(
        self,
        key: EntryKey,
        verifiers: typing.Iterable[Verifier],
        content: bytes,
    ) -> bool:
        """Re-run *verifiers* over bytes about to be reused for a miss.

        Each verifier is charged, observed as ``verifier``/``executed``,
        offered to the fault plan's verifier seam and run at the current
        clock.  True when every one returns VALID; a raise or any other
        verdict refuses the reuse.
        """
        sim = self.ctx
        for verifier in verifiers:
            started_ms = sim.clock.now_ms
            sim.charge(verifier.cost_ms)
            self.emit(
                "verifier", "executed", key=key, started_ms=started_ms,
                cost_ms=verifier.cost_ms,
            )
            try:
                if sim.faults is not None:
                    sim.faults.check_verifier(
                        verifier.cost_ms, label=type(verifier).__name__
                    )
                result = verifier.run(sim.clock.now_ms, content)
            except Exception:
                return False
            if result.verdict is not Verdict.VALID:
                return False
        return True

    def miss_result(
        self,
        ctx: "ReadContext",
        content: bytes,
        disposition: str,
        meta: "PathMeta | None",
    ):
        """Terminate a miss: emit ``read``/*disposition*, build the result.

        A read serving an upper cache's fill gets ``(content, meta)``;
        an application read gets a :class:`CacheReadOutcome`.
        """
        self.emit(
            "read", disposition, key=ctx.key, started_ms=ctx.started_ms
        )
        if ctx.for_fill:
            return (content, meta)
        return CacheReadOutcome(
            content=content, hit=False,
            elapsed_ms=self.ctx.clock.now_ms - ctx.started_ms,
            disposition=disposition,
        )

    def evict_to_capacity(self, protect: EntryKey | None = None) -> None:
        """Evict victims until physical bytes fit the capacity.

        The policy receives the full entry table plus the protected key
        and performs its own pinned/protected filtering — rebuilding a
        filtered candidate dict here cost O(n) per victim, which at
        10^5+ entries turned every capacity overrun into a table scan.
        """
        while self.store.physical_bytes > self.capacity_bytes:
            try:
                victim_key = self.policy.select_victim(
                    self.entries, protect=protect
                )
            except CacheError:
                raise CacheError(
                    "cannot satisfy capacity: nothing evictable"
                ) from None
            victim = self.entries[victim_key]
            if self.l2 is not None and victim.signature in self.store:
                # Demote-on-evict: the victim's bytes + metadata spill
                # to the durable tier before the entry is destroyed.
                self.l2.demote(victim, self.store.get(victim.signature))
            self.drop(victim, InvalidationReason.EVICTED, origin="internal")
            self.emit("eviction", "evicted", key=victim_key)

    def drop(
        self,
        entry: CacheEntry,
        reason: InvalidationReason,
        origin: str = "internal",
    ) -> None:
        """Invalidate and remove an entry, releasing its content bytes."""
        entry.invalidate(
            Invalidation(
                reason=reason,
                document_id=entry.document_id,
                user_id=entry.user_id,
                at_ms=self.ctx.clock.now_ms,
                origin=origin,
            )
        )
        self.emit(
            "invalidation", reason.value, key=entry.key,
            reason=reason, origin=origin,
        )
        if self.l2 is not None and reason is not InvalidationReason.EVICTED:
            # An invalidation (notifier, verifier, explicit, resync)
            # kills the demoted copy too — eviction is the one reason
            # that *feeds* the L2 tier rather than purging it.
            self.l2.drop(entry.key)
        self.remove_entry(entry)

    def invalidate_local(
        self, key: EntryKey, reason: InvalidationReason
    ) -> None:
        """Drop this cache's entry for *key*, if present."""
        entry = self.entries.get(key)
        if entry is not None:
            self.drop(entry, reason, origin="internal")

    def insert_entry(self, entry: CacheEntry) -> None:
        """Install an entry in the table and the per-document index.

        Every site that writes ``entries[key]`` must go through here so
        the secondary index stays exact.
        """
        key = entry.key
        self.entries[key] = entry
        bucket = self.entries_by_document.get(key.document_id)
        if bucket is None:
            bucket = self.entries_by_document[key.document_id] = {}
        bucket[key] = entry

    def entries_for_document(
        self, document_id: "DocumentId"
    ) -> dict[EntryKey, CacheEntry]:
        """The document's live entries (empty dict when none cached)."""
        return self.entries_by_document.get(document_id, _NO_ENTRIES)

    def remove_entry(self, entry: CacheEntry) -> None:
        """Forget an entry and release its content-store reference."""
        if self.entries.get(entry.key) is entry:
            del self.entries[entry.key]
            bucket = self.entries_by_document.get(entry.key.document_id)
            if bucket is not None:
                bucket.pop(entry.key, None)
                if not bucket:
                    del self.entries_by_document[entry.key.document_id]
            self.store.release(entry.signature)
            self.policy.on_remove(entry)

    def replace_content(self, entry: CacheEntry, content: bytes) -> None:
        """Swap an entry's bytes (verifier REVALIDATED patching).

        Evicts with the patched entry protected and still in the heap; a
        heap policy that pops it drops its item, and the gate's
        ``on_access`` pushes it again before the serve returns.
        """
        self.store.release(entry.signature)
        entry.signature = self.store.put(content)
        entry.size = len(content)
        self.evict_to_capacity(protect=entry.key)

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` where table, store and policy disagree.

        A test oracle, O(entries), never called on the read path; it
        holds between operations, not inside one.  Checks that every
        live signature's store refcount equals the number of live
        entries holding it, that the store's physical bytes are exactly
        those signatures' bytes and fit the capacity, and that the
        replacement policy can still evict every unpinned live entry.
        """
        holders: dict = {}
        for entry in self.entries.values():
            holders[entry.signature] = holders.get(entry.signature, 0) + 1
        for signature, count in holders.items():
            refcount = self.store.refcount(signature)
            if refcount != count:
                raise AssertionError(
                    f"{signature.short}: store refcount {refcount}, "
                    f"held by {count} live entries"
                )
        live_bytes = sum(self.store.size_of(s) for s in holders)
        physical = self.store.physical_bytes
        if physical != live_bytes:
            raise AssertionError(
                f"store holds {physical} bytes, live entries own {live_bytes}"
            )
        if physical > self.capacity_bytes:
            raise AssertionError(
                f"store holds {physical} bytes over capacity "
                f"{self.capacity_bytes}"
            )
        for key, entry in self.entries.items():
            if not entry.pinned and not self.policy.tracks(key):
                raise AssertionError(
                    f"{key}: live entry unknown to the replacement policy"
                )

    # -- cross-cutting helpers -------------------------------------------------

    def meta_from_entry(self, entry: CacheEntry):
        """Reconstruct read-path metadata from a stored entry."""
        from repro.placeless.document import PathMeta

        return PathMeta(
            verifiers=list(entry.verifiers),
            votes=[entry.cacheability],
            replacement_cost_ms=entry.replacement_cost_ms,
            chain_signature=entry.chain_signature,
            properties_executed=0,
            source_signature=entry.policy_state.get("source_signature"),
            pin=entry.pinned,
        )

    def expected_chain_signature(self, reference: "DocumentReference"):
        """The chain signature this reference's read path would record.

        Computable from property metadata alone — no content fetch — so
        a cache can predict whether another user's cached bytes apply.
        """
        return tuple(
            signature
            for signature in (
                p.transform_signature()
                for p in read_chain_properties(reference)
            )
            if signature is not None
        )

    # -- transform memoization -------------------------------------------------

    def memo_record_output(
        self,
        fingerprint: ChainFingerprint | None,
        meta,
        entry: CacheEntry,
    ) -> None:
        """Admission hook: memoize a freshly admitted transform output.

        Only called for undegraded, admitted fills; a ``None``
        fingerprint means the memo stage never consulted (memo off, or
        the chain was containment-blocked) and nothing is recorded.
        """
        if self.memo is None or fingerprint is None:
            return
        if meta.source_signature is None:
            return
        record = MemoRecord(
            source_signature=meta.source_signature,
            fingerprint=fingerprint,
            output_signature=entry.signature,
            document_id=entry.document_id,
            size=entry.size,
            cacheability=entry.cacheability,
            verifiers=tuple(entry.verifiers),
            verifier_fingerprints=tuple(
                verifier.fingerprint() for verifier in entry.verifiers
            ),
            replacement_cost_ms=entry.replacement_cost_ms,
            chain_signature=entry.chain_signature,
            pin=entry.pinned,
        )
        evicted = self.memo.record(record)
        if self.l2 is not None:
            self.l2.spill_memo_record(record)
        self.emit("memo", "recorded", key=entry.key)
        if evicted:
            self.emit("memo", "evicted", records=evicted)

    def memo_record_negative(
        self,
        fingerprint: ChainFingerprint | None,
        key: EntryKey,
        meta,
    ) -> None:
        """Admission hook: negative-cache an UNCACHEABLE-voting chain."""
        if self.memo is None or fingerprint is None:
            return
        if meta.source_signature is None:
            return
        record = MemoRecord(
            source_signature=meta.source_signature,
            fingerprint=fingerprint,
            output_signature=None,
            document_id=key.document_id,
            cacheability=meta.cacheability,
            chain_signature=meta.chain_signature,
        )
        evicted = self.memo.record(record)
        if self.l2 is not None:
            self.l2.spill_memo_record(record)
        self.emit("memo", "negative-recorded", key=key)
        if evicted:
            self.emit("memo", "evicted", records=evicted)

    def memo_purge(self, origin: str) -> int:
        """Drop every memo record (resync/crash/explicit); returns count.

        Silent when the memo is off or already empty; otherwise emits
        one ``memo``/``purged`` event carrying the record count and the
        purge origin.
        """
        if self.memo is None:
            return 0
        purged = self.memo.purge_all()
        if purged:
            self.emit("memo", "purged", records=purged, origin=origin)
        return purged

    def is_stale(
        self, reference: "DocumentReference", entry: CacheEntry
    ) -> bool:
        """Ground-truth staleness: raw source changed since fill.

        Uses :meth:`BitProvider.peek_signature`, which charges nothing —
        this is simulation-side omniscience, not something a real cache
        could do.
        """
        recorded = entry.policy_state.get("source_signature")
        if recorded is None:
            return False
        return reference.base.provider.peek_signature() != recorded

    @staticmethod
    def verifier_fault_key(
        entry: CacheEntry, verifier
    ) -> tuple["DocumentId", str]:
        """Quarantine key: stable across refills (which rebuild verifier
        objects), so repeated failures accumulate per document and
        verifier type rather than per object."""
        return (entry.document_id, type(verifier).__name__)

    def note_verifier_caught_lost(self, entry: CacheEntry) -> None:
        """Count a verifier invalidation that covered a lost callback."""
        if self.bus.consume_lost(entry.document_id):
            self.emit("bus-loss", "detected", key=entry.key)

    # -- event forwarding -------------------------------------------------------

    def forward_read(self, reference: "DocumentReference") -> None:
        """Forward a cache-served read as READ_FORWARDED events.

        "the cache will forward the operation, but the Placeless system
        will not execute them fully, instead just use them to trigger
        active properties that have registered for these events." (§3)
        """
        for hop in self.topology.notifier_path():
            self.ctx.charge_hop(hop, 0)
        event = reference.make_event(EventType.READ_FORWARDED)
        reference.base.dispatcher.dispatch(event)
        reference.dispatcher.dispatch(event)
        self.emit("forward", "read", key=EntryKey.for_reference(reference))

    def forward_write(
        self, reference: "DocumentReference", size: int
    ) -> None:
        """Forward a buffered write as WRITE_FORWARDED events, if wanted."""
        event = reference.make_event(
            EventType.WRITE_FORWARDED, payload={"size": size}
        )
        base_wants = reference.base.dispatcher.has_listener(
            EventType.WRITE_FORWARDED
        )
        ref_wants = reference.dispatcher.has_listener(
            EventType.WRITE_FORWARDED
        )
        if not (base_wants or ref_wants):
            return
        for hop in self.topology.notifier_path():
            self.ctx.charge_hop(hop, 0)
        if base_wants:
            reference.base.dispatcher.dispatch(event)
        if ref_wants:
            reference.dispatcher.dispatch(event)
        self.emit("forward", "write", key=EntryKey.for_reference(reference))
