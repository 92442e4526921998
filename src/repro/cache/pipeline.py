"""The staged read/write pipeline behind :class:`DocumentCache`.

A read is one front step and a plan of small stages, each a class with
one ``run(ctx)`` method over a shared typed :class:`ReadContext`:

    [admission control →] dirty flush + lookup → verifier-gate →
    [adoption →] [l2 →] [memo →] [single-flight →] fetch →
    degradation → admission

The bracketed stages are in a cache's plan only when their seam is
enabled: adoption with ``share_across_users``, l2 with a storage tier,
memo with a memo table, single-flight with a concurrency policy that
coalesces.  :class:`ReadPipeline` compiles the plan once, when the
cache is built.

A stage returns ``None`` to pass the context on, a terminal result
(:class:`CacheReadOutcome` for application reads, a ``(content, meta)``
pair for lower-level ``read_for_fill`` serves) to finish the read, or a
:class:`~repro.sim.scheduler.Suspension` to park the read on another
read's in-progress flight.  The write path is the same idea with two
stages (interpose → buffer) plus a flush stage shared by write-back
draining and the read path's dirty flush.

Stages stay synchronous; *scheduling* is externalised.  Under a
scheduler that can interleave, the pipeline expresses one access as a
generator yielding suspension markers at the stages' named seams (the
verifier gate and the fetch/chain execution), and the
:class:`~repro.sim.scheduler.AsyncScheduler` drives many such reads as
interleaved coroutines with single-flight request coalescing (see
:class:`SingleFlightStage`).  Under the default sequential scheduler
nothing can suspend, so :meth:`ReadPipeline.read` runs the same stages
inline: a hit is the lookup plus :meth:`VerifierGateStage.serve`, with
no context object, generator or stage loop, and only a miss builds a
context for the stages after the gate.  Operation order, clock charges
and fault-plan consultations are the same either way — the
golden-digest equivalence tests pin byte-identical stats and fault
traces.

Stages hold no per-read state: everything mutable lives in the
:class:`~repro.cache.core.CacheCore` they share, and every observable
step is published on the core's instrumentation bus.
"""

from __future__ import annotations

import enum
import typing
from dataclasses import dataclass

from repro.cache.consistency import InvalidationReason
from repro.cache.core import CacheCore, CacheReadOutcome
from repro.cache.entry import CacheEntry, EntryKey
from repro.cache.memo import ChainFingerprint
# Entries are installed by ``CacheCore.install``; the name stays
# importable here because the repository benchmark's span tracer
# (perfbench/spans.py) wraps it in this module too.
from repro.cache.notifiers import install_minimum_notifiers  # noqa: F401
from repro.cache.policies import AdmissionDecision
from repro.cache.verifiers import Verdict
from repro.errors import CacheError, OverloadShedError
from repro.overload.admission import PRIORITY_NAMES
from repro.sim.scheduler import (
    FETCH_SEAM,
    VERIFIER_SEAM,
    Scheduler,
    Suspension,
)
from repro.streams.chain import read_chain_properties

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.overload.budget import DeadlineBudget
    from repro.placeless.document import PathMeta
    from repro.placeless.reference import DocumentReference

__all__ = [
    "WriteMode",
    "CacheReadOutcome",
    "ReadContext",
    "WriteContext",
    "ReadPipeline",
    "WritePipeline",
    "Stage",
    "Invalidated",
    "VerifierGateStage",
    "AdoptionStage",
    "L2Stage",
    "MemoStage",
    "SingleFlightStage",
    "FetchStage",
    "DegradationStage",
    "AdmissionStage",
    "InterposeStage",
    "BufferStage",
    "FlushStage",
]


class WriteMode(enum.Enum):
    """Write-through vs. write-back (§3, Cache Management)."""

    WRITE_THROUGH = "write-through"
    WRITE_BACK = "write-back"


@dataclass(slots=True)
class ReadContext:
    """Mutable state threaded through the read stages for one read."""

    reference: "DocumentReference"
    key: EntryKey
    started_ms: float
    #: True when a lower-level cache serves an upper one: the terminal
    #: result is ``(content, meta)`` instead of a ``CacheReadOutcome``,
    #: fetch failures propagate undegraded, and hits re-derive fill
    #: metadata from the live entry.
    for_fill: bool = False
    #: The looked-up entry, cleared when a gate invalidates it.
    entry: CacheEntry | None = None
    #: Invalidated-but-still-held bytes and their fill time, kept for
    #: bounded serve-stale-on-error.
    stale: tuple[bytes, float] | None = None
    #: Fetched content + path metadata, once the fetch stage ran.
    content: bytes | None = None
    meta: "PathMeta | None" = None
    #: True when the content was fetched past a failed backing level.
    degraded: bool = False
    #: The fetch failure awaiting the degradation stage's decision.
    fetch_error: BaseException | None = None
    #: The chain fingerprint the memo stage computed for this read;
    #: ``None`` when the memo is off or the chain was not consultable
    #: (e.g. containment-blocked), in which case admission records
    #: nothing.
    memo_fingerprint: ChainFingerprint | None = None
    #: The source signature the memo stage probed alongside the
    #: fingerprint — together they form the memo-plane coalescing key.
    memo_source: typing.Any = None
    #: The scheduler driving this read (set by the pipeline; defaults to
    #: the core's sequential scheduler).  Nested reads — prefetch
    #: drains, backing-cache fills — always run sequentially.
    scheduler: "Scheduler | None" = None
    #: The single-flight this read *leads*, if any; resolved when the
    #: read terminates (landed) or raises (failed → follower promotion).
    flight: typing.Any = None
    #: Times this read suspended on another read's flight and re-entered
    #: the pipeline (0 for leaders and uncoalesced reads).
    follows: int = 0
    #: When the read entered the system (a batch's start instant for
    #: ``read_many``); the admission controller's sojourn signal.
    #: ``None`` means it arrived the moment the pipeline started.
    enqueued_ms: float | None = None
    #: The read's end-to-end deadline budget; ``None`` when the
    #: overload layer is off (the default) or deadlines are disabled.
    budget: "DeadlineBudget | None" = None


@dataclass(slots=True)
class WriteContext:
    """Mutable state threaded through the write stages for one write."""

    reference: "DocumentReference"
    key: EntryKey
    content: bytes
    started_ms: float


# -- read stages ---------------------------------------------------------------


class Stage:
    """One pipeline stage over the shared :class:`CacheCore`.

    ``seam`` names the suspension a concurrent scheduler is offered
    just before the stage runs — the points where a real concurrent
    read path may switch to another read; ``None`` for stages that
    never interleave.
    """

    seam: Suspension | None = None

    def __init__(self, core: CacheCore) -> None:
        self.core = core


class Invalidated:
    """The verifier gate dropped the entry it was serving.

    The read continues down the miss stages carrying the dropped bytes
    and their fill time, for bounded serve-stale-on-error.
    """

    __slots__ = ("stale",)

    def __init__(self, content: bytes, filled_at_ms: float) -> None:
        self.stale = (content, filled_at_ms)


class VerifierGateStage(Stage):
    """Serve a hit if the entry's verifiers agree (§3's hit-time check).

    On a verified hit the read terminates here; when a verifier
    invalidates (or a quarantine forces a miss) the stale bytes and
    their age are parked on the context for bounded serve-stale and the
    read falls through to the miss stages.
    """

    seam = VERIFIER_SEAM

    def __init__(self, core: CacheCore) -> None:
        super().__init__(core)
        #: "cache hit" latency: the local (or app→server) hop only.
        self._hit_path = tuple(core.topology.hit_path())

    def run(self, ctx: ReadContext):
        core = self.core
        entry = ctx.entry
        if entry is not None and core.entries.get(ctx.key) is not entry:
            # The lookup ran before the verifier seam; under a
            # concurrent scheduler an interleaved read may have dropped
            # (or replaced) the entry while this read was suspended.
            # Re-anchor on the live table — sequentially nothing can
            # intervene, so this is the same object the lookup found.
            ctx.entry = entry = core.entries.get(ctx.key)
        if entry is None:
            return None
        result = self.serve(
            ctx.reference, ctx.key, entry, ctx.started_ms, ctx.for_fill
        )
        if result is None or result.__class__ is Invalidated:
            ctx.entry = None
            if result is not None:
                ctx.stale = result.stale
            return None
        return result

    def serve(
        self,
        reference: "DocumentReference",
        key: EntryKey,
        entry: CacheEntry,
        started_ms: float,
        for_fill: bool = False,
    ):
        """Gate the live *entry*: the terminal result of a verified hit.

        Otherwise the entry is gone and the read goes on to the miss
        stages: :class:`Invalidated` when the gate dropped it, ``None``
        when a fill-serving hit lost it to reentrant event forwarding.
        """
        core = self.core
        sim = core.ctx
        clock = sim.clock
        content = core.store.get(entry.signature)
        disposition = "hit"
        for hop in self._hit_path:
            sim.charge_hop(hop, entry.size)

        if core.use_verifiers:
            verifiers = entry.verifiers
            guard = core.containment
            if guard is not None:
                if guard.verifier_blocked(entry):
                    # A breaker is open on one of the entry's verifiers:
                    # the entry cannot be trusted and the verifier cannot
                    # be afforded — force a miss.  Unlike the legacy
                    # quarantine this heals itself: after the probation
                    # delay the breaker admits a probe.
                    core.drop(entry, InvalidationReason.VERIFIER_FAILED,
                              origin="containment")
                    return Invalidated(content, entry.created_at_ms)
            elif verifiers and self._entry_quarantined(entry):
                # A repeatedly-failing verifier guards this entry: the
                # entry cannot be trusted and the verifier cannot be
                # afforded — force a miss instead of verifying.
                core.drop(entry, InvalidationReason.VERIFIER_FAILED,
                          origin="quarantine")
                core.emit("quarantine", "forced-miss", key=key)
                return Invalidated(content, entry.created_at_ms)
            for verifier in verifiers:
                verifier_started_ms = clock.now_ms
                sim.charge(verifier.cost_ms)
                core.publish(
                    "verifier", "executed", key, verifier_started_ms,
                    {"cost_ms": verifier.cost_ms},
                )
                try:
                    if guard is not None:
                        guard.check_verifier_budget(entry, verifier)
                    if sim.faults is not None:
                        sim.faults.check_verifier(
                            verifier.cost_ms,
                            label=type(verifier).__name__,
                        )
                    result = verifier.run(clock.now_ms, content)
                except Exception:
                    if guard is not None:
                        guard.note_verifier_failure(entry, verifier)
                    else:
                        self._note_failure(entry, verifier)
                    core.drop(entry, InvalidationReason.VERIFIER_FAILED,
                              origin="verifier")
                    core.emit("verifier", "invalidated", key=key)
                    core.note_verifier_caught_lost(entry)
                    return Invalidated(content, entry.created_at_ms)
                if guard is not None:
                    guard.note_verifier_success(entry, verifier)
                else:
                    core.degradation.note_verifier_success(
                        core.verifier_fault_key(entry, verifier)
                    )
                if result.verdict is Verdict.INVALID:
                    reason = (
                        InvalidationReason.SOURCE_UPDATED_OUT_OF_BAND
                        if verifier.invalidation_label == "source"
                        else InvalidationReason.EXTERNAL_CHANGED
                    )
                    core.drop(entry, reason, origin="verifier")
                    core.emit("verifier", "invalidated", key=key)
                    core.note_verifier_caught_lost(entry)
                    return Invalidated(content, entry.created_at_ms)
                if result.verdict is Verdict.REVALIDATED:
                    content = result.patched_content or b""
                    core.replace_content(entry, content)
                    core.emit("verifier", "revalidated", key=key)
                    disposition = "revalidated"

        if entry.cacheability.requires_event_forwarding:
            core.forward_read(reference)

        entry.touch(clock.now_ms)
        core.policy.on_access(entry)
        if core.track_staleness and core.is_stale(reference, entry):
            core.emit("staleness", "stale-hit", key=key)
        elapsed = clock.now_ms - started_ms
        core.publish(
            "read", disposition, key, started_ms, {"bytes": len(content)}
        )
        if for_fill:
            # Serving an upper cache: re-derive fill metadata from the
            # live entry.  Event forwarding may have invalidated it
            # reentrantly — fall through to the miss stages if so.
            live = core.entries.get(key)
            if live is not None:
                return (content, core.meta_from_entry(live))
            return None
        if entry.policy_state.get("prefetched"):
            core.emit("prefetch", "hit", key=key)
            entry.policy_state["prefetched"] = False
        return CacheReadOutcome(
            content=content, hit=True, elapsed_ms=elapsed,
            disposition=disposition,
        )

    def _entry_quarantined(self, entry: CacheEntry) -> bool:
        core = self.core
        for verifier in entry.verifiers:
            if core.degradation.is_quarantined(
                core.verifier_fault_key(entry, verifier)
            ):
                return True
        return False

    def _note_failure(self, entry: CacheEntry, verifier) -> None:
        core = self.core
        newly = core.degradation.note_verifier_failure(
            core.verifier_fault_key(entry, verifier)
        )
        if newly:
            core.emit("quarantine", "added", key=entry.key)


class AdoptionStage(Stage):
    """§3 signature adoption: reuse another user's identical version.

    A candidate must be another user's valid entry for the same base
    document whose recorded chain signature equals what this reference's
    chain would produce; its verifiers are re-run (the source could have
    changed) before the signature mapping is established.  In the plan
    only with ``share_across_users``.
    """

    def run(self, ctx: ReadContext):
        core = self.core
        key = ctx.key
        expected = core.expected_chain_signature(ctx.reference)
        # Scan only this document's bucket: adoption candidates are by
        # definition other users' entries for the *same* document, and a
        # full-table scan per miss is O(entries) at churn scale.
        for candidate in list(core.entries_for_document(key.document_id).values()):
            if candidate.user_id == key.user_id:
                continue
            if candidate.chain_signature != expected:
                continue
            content = core.store.get(candidate.signature)
            if core.use_verifiers and not core.reverify(
                candidate.key, candidate.verifiers, content
            ):
                continue
            core.charge_metadata_exchange()
            core.store.adopt(candidate.signature)
            core.emit("adoption", "adopted", key=key)
            entry = core.install(
                ctx.reference, key, candidate.signature, candidate.size,
                cacheability=candidate.cacheability,
                verifiers=candidate.verifiers,
                replacement_cost_ms=candidate.replacement_cost_ms,
                chain_signature=expected,
                pinned=candidate.pinned,
                source_signature=candidate.policy_state.get(
                    "source_signature"
                ),
            )
            return core.miss_result(
                ctx, content, "miss-adopted", core.meta_from_entry(entry)
            )
        return None


class L2Stage(Stage):
    """Durable-tier promotion: answer a miss from the on-disk L2 tier.

    Sits between adoption and the memo: an adoption needs another
    user's *live* entry, while the L2 tier remembers entries this cache
    itself evicted — including across a crash/restart, which is the
    whole point.  The stage delegates entirely to
    :meth:`~repro.storage.tier.L2Tier.promote`, which re-gates the
    demoted copy on the reference's current chain signature, a charged
    source-signature probe, the record's CRC/digest and (for recovered
    records, unconditionally) its verifiers before serving it as a
    ``miss-promoted`` read.

    In the plan only when a storage policy built a tier, so the default
    pipeline stays byte-identical to the pre-storage one; a no-op while
    the storage breaker is open — the L1-only fallback.
    """

    def run(self, ctx: ReadContext):
        if ctx.budget is not None and ctx.budget.expired:
            # An expired read skips the disk probe and CRC work: the
            # fetch gate downstream fails it into the degradation
            # ladder without spending more of anyone's time.
            self.core.emit("deadline", "skipped", key=ctx.key, seam="l2")
            return None
        return self.core.l2.promote(ctx)


class MemoStage(Stage):
    """Transform memoization: answer a miss from the
    ``(source signature, chain fingerprint) → output signature`` memo.

    Sits between adoption and fetch: an adoption needs another user's
    *live* entry, while the memo remembers what an identical chain
    produced from identical source bytes even after every entry for it
    is gone.  A memo serve is a metadata-only exchange — one
    source-signature probe, the local hop, a
    :meth:`~repro.content.store.ContentStore.adopt` — with no provider
    fetch and no property-chain execution.

    In the plan only when a memo table exists, so the default pipeline
    stays byte-identical to the pre-memo one.
    Consults participate in all four §3 invalidation classes (see
    :mod:`repro.cache.memo`) and respect the containment layer: an open
    breaker on any chain property bypasses the memo, because the
    recorded output was produced by code that is currently quarantined.
    """

    def run(self, ctx: ReadContext):
        core = self.core
        memo = core.memo
        assert memo is not None and core.memo_policy is not None
        if ctx.budget is not None and ctx.budget.expired:
            # Same fast-fail as the L2 stage: no probe charge for a
            # read whose deadline already passed.
            core.emit("deadline", "skipped", key=ctx.key, seam="memo")
            return None
        chain = read_chain_properties(ctx.reference)
        guard = core.containment
        if guard is not None and guard.chain_blocked(
            ctx.key.document_id, chain
        ):
            core.emit("memo", "bypass-contained", key=ctx.key)
            return None
        fingerprint = ChainFingerprint.compose(
            prop.fingerprint() for prop in chain
        )
        # Admission records under this fingerprint if the miss proceeds.
        ctx.memo_fingerprint = fingerprint
        # Metadata-only probe of the repository's current source
        # signature — invalidation class (a): a changed source never
        # matches a stale record.
        core.ctx.charge(core.memo_policy.probe_cost_ms)
        source_signature = ctx.reference.base.provider.peek_signature()
        # The probed pair doubles as the memo-plane coalescing key for
        # the single-flight stage downstream.
        ctx.memo_source = source_signature
        record = memo.lookup(source_signature, fingerprint)
        if record is None:
            core.emit("memo", "missed", key=ctx.key)
            return None
        if record.is_negative:
            # Classes (b)/(d): this chain votes UNCACHEABLE for this
            # source — skip straight to the fetch path.
            core.emit("memo", "negative-hit", key=ctx.key)
            return None
        imported = False
        if record.output_signature in core.store:
            content = core.store.get(record.output_signature)
        else:
            # The output bytes left this store with the last referencing
            # entry.  A shared memo view may still recover them from a
            # sibling store (one ``put_signed`` reference the serving
            # entry takes over); the strictly local base memo returns
            # ``None`` and the record is pruned as dead.
            materialized = memo.materialize(record, core)
            if materialized is None:
                memo.discard(record)
                core.emit("memo", "dropped-dead", key=ctx.key)
                return None
            content = materialized
            imported = True
        if core.use_verifiers and record.verifiers:
            if not core.memo_policy.verify_on_serve:
                if imported:
                    core.store.release(record.output_signature)
                core.emit("memo", "bypass-verifier", key=ctx.key)
                return None
            if not core.reverify(ctx.key, record.verifiers, content):
                # Class (d): an external condition gated this record
                # and no longer holds — the memo must not serve it.
                if imported:
                    core.store.release(record.output_signature)
                memo.discard(record)
                core.emit("memo", "dropped-verifier", key=ctx.key)
                return None
        core.charge_metadata_exchange()
        if not imported:
            # An import already holds the one store reference taken by
            # ``materialize``'s ``put_signed``; the entry takes it over.
            core.store.adopt(record.output_signature)
        entry = core.install(
            ctx.reference, ctx.key, record.output_signature, record.size,
            cacheability=record.cacheability,
            verifiers=record.verifiers,
            replacement_cost_ms=record.replacement_cost_ms,
            chain_signature=record.chain_signature,
            pinned=record.pin,
            source_signature=record.source_signature,
        )
        if imported:
            core.emit("memo", "adopted", key=ctx.key, imported=True)
        else:
            core.emit("memo", "adopted", key=ctx.key)
        return core.miss_result(
            ctx, content, "miss-memoized", core.meta_from_entry(entry)
        )


class SingleFlightStage(Stage):
    """Coalesce concurrent misses into one fetch + one chain execution.

    The last gate before the fetch/chain seam.  Under a concurrent
    scheduler with a :class:`~repro.cache.policies.DefaultConcurrencyPolicy`
    whose ``coalesce`` flag is on, a miss probes the core's
    :class:`~repro.sim.scheduler.FlightTable` under two keys:

    * the ``(document, user)`` entry key — N concurrent reads of one
      reference share one fill;
    * via the A15 memo plane, the ``(source signature, chain
      fingerprint)`` pair — concurrent cold misses by *different* users
      whose chains would produce identical bytes share one chain
      execution, with followers answered by the leader's memo record.

    A hit on either key suspends the read on the leader's flight; when
    the leader lands, the follower re-enters the pipeline from the top,
    where the leader's fill answers it as a verifier-gated hit (same
    key) or a signature-only memo adoption (memo-plane key) — the
    "follower adopts the leader's signed result" rule, built on
    :meth:`~repro.content.store.ContentStore.put_signed` having already
    placed the leader's bytes in the store.  A leader that *fails*
    resolves the flight with its error: the first follower to wake
    finds the table empty and promotes itself to leader; the rest
    re-follow the promoted read.

    Containment semantics survive coalescing by bailing out instead of
    sharing: an open breaker on any chain property bypasses the flight
    table entirely (a quarantined chain's output must not fan out to N
    followers), and the policy's ``max_followers`` budget caps how many
    reads may park on one flight — excess reads fetch for themselves.

    In the plan only with a concurrency policy that coalesces, and a
    no-op while the driving scheduler cannot suspend (the sequential
    default), so golden digests are untouched.
    """

    def run(self, ctx: ReadContext):
        core = self.core
        policy = core.concurrency
        assert policy is not None
        scheduler = ctx.scheduler
        if scheduler is None or not scheduler.supports_concurrency:
            return None
        if ctx.budget is not None and ctx.budget.expired:
            # An expired read neither follows (it cannot afford the
            # wait) nor leads (its fetch gate will refuse, stranding
            # followers on a doomed flight) — it falls straight through
            # to the fetch gate and the degradation ladder.
            core.emit("deadline", "skipped", key=ctx.key, seam="flight")
            return None
        guard = core.containment
        if guard is not None and guard.chain_blocked(
            ctx.key.document_id, read_chain_properties(ctx.reference)
        ):
            core.emit("coalesce", "bailed-contained", key=ctx.key)
            return None
        keys = self._coalesce_keys(ctx)
        for key in keys:
            flight = core.flights.lookup(key)
            if flight is None:
                continue
            max_followers = policy.max_followers
            if max_followers is not None and flight.waiters >= max_followers:
                core.emit("coalesce", "bailed-capacity", key=ctx.key)
                return None
            core.emit("coalesce", "followed", key=ctx.key)
            return Suspension("flight", flight)
        ctx.flight = core.flights.open(keys)
        core.emit("coalesce", "led", key=ctx.key)
        return None

    @staticmethod
    def _coalesce_keys(ctx: ReadContext) -> tuple:
        """The flight-table keys this miss coalesces under."""
        keys: tuple = (("entry", ctx.key),)
        if ctx.memo_source is not None and ctx.memo_fingerprint is not None:
            keys += (("memo", ctx.memo_source, ctx.memo_fingerprint),)
        return keys


class FetchStage(Stage):
    """Full read through the level below, under the retry policy.

    Application reads trap the failure for the degradation stage;
    fill-serving reads let it propagate to the upper cache, whose own
    degradation cascade decides.
    """

    seam = FETCH_SEAM

    def run(self, ctx: ReadContext):
        core = self.core
        if ctx.for_fill:
            ctx.content, ctx.meta = core.fetch_with_retry(ctx.reference)
            self._mark_contained(ctx)
            return None
        budget = ctx.budget
        if budget is not None and budget.expired:
            # The deadline ran out before the expensive part began:
            # don't start a fetch whose result nobody will wait for.
            # The degradation stage downstream may still answer with
            # acceptable stale bytes before the error surfaces.
            core.emit("deadline", "exceeded", key=ctx.key, seam="fetch")
            ctx.fetch_error = budget.exceeded("fetch")
            return None
        try:
            ctx.content, ctx.meta = core.fetch_with_retry(
                ctx.reference, budget=budget
            )
        except CacheError:
            raise
        except Exception as error:
            core.emit("fetch", "failed", key=ctx.key)
            ctx.fetch_error = error
            return None
        if budget is not None and budget.expired:
            # The fetch itself overran the deadline.  The bytes are
            # fresh and already paid for, so they are served — "late",
            # not a violation (a violation is starting work past the
            # deadline, which the gate above rules out).
            core.emit("deadline", "late", key=ctx.key, seam="fetch")
        self._mark_contained(ctx)
        return None

    @staticmethod
    def _mark_contained(ctx: ReadContext) -> None:
        """A containment skip anywhere on the path degrades the serve."""
        meta = ctx.meta
        if meta is not None and (
            meta.contained_skips or meta.contained_required
        ):
            ctx.degraded = True


class DegradationStage(Stage):
    """The fetch-failure cascade: fresh content fetched past a failed
    backing level first, bounded stale bytes second, and only then does
    the read fail."""

    def run(self, ctx: ReadContext):
        if ctx.fetch_error is None:
            return None
        core = self.core
        recovered = self._bypass_backing(ctx.reference)
        if recovered is not None:
            core.emit("degradation", "bypassed", key=ctx.key)
            ctx.content, ctx.meta = recovered
            ctx.degraded = True
            ctx.fetch_error = None
            return None
        outcome = self._serve_stale(ctx)
        if outcome is None:
            raise ctx.fetch_error
        return outcome

    def _bypass_backing(self, reference: "DocumentReference"):
        """Degraded fetch past a failed backing level, or ``None``.

        When the second-level cache is unreachable, a cache configured
        with ``bypass_backing_on_error`` goes straight to the kernel —
        the content is fresh, only the hierarchy is degraded.
        """
        core = self.core
        if core.backing is None or not core.degradation.bypass_backing_on_error:
            return None
        try:
            outcome = core.kernel.read(reference)
        except Exception:
            return None
        return outcome.content, outcome.meta

    def _serve_stale(self, ctx: ReadContext) -> CacheReadOutcome | None:
        """Bounded serve-stale-on-error, or ``None`` if not permitted."""
        core = self.core
        if not core.degradation.serve_stale_on_error or ctx.stale is None:
            return None
        content, filled_at_ms = ctx.stale
        age_ms = core.ctx.clock.now_ms - filled_at_ms
        if not core.degradation.stale_age_acceptable(age_ms):
            core.emit("degradation", "stale-rejected", key=ctx.key)
            return None
        core.emit("degradation", "stale-served", key=ctx.key)
        return core.miss_result(ctx, content, "stale-on-error", None)


class AdmissionStage(Stage):
    """Terminal miss stage: consult the admission policy, fill, account.

    The returned cacheability vote decides whether/how to fill (§3);
    content larger than the whole cache is served but never admitted.
    """

    def run(self, ctx: ReadContext):
        core = self.core
        content, meta = ctx.content, ctx.meta
        assert content is not None and meta is not None
        disposition = "miss-degraded" if ctx.degraded else "miss"
        if meta.contained_required:
            # A *required* transformer was skipped by the containment
            # layer: the untransformed bytes may be served (degraded)
            # but never admitted, so every access misses to the kernel
            # until the breaker closes.
            core.emit("admission", "contained", key=ctx.key)
            return core.miss_result(ctx, content, disposition, meta)
        decision = core.admission.decide(content, meta, core.capacity_bytes)
        if decision is AdmissionDecision.UNCACHEABLE:
            core.emit("admission", "uncacheable", key=ctx.key)
            disposition = "uncacheable"
            core.memo_record_negative(ctx.memo_fingerprint, ctx.key, meta)
        elif decision is AdmissionDecision.OVERSIZE:
            core.emit("admission", "oversize", key=ctx.key)
            disposition = "miss-oversize"
        else:
            entry = core.fill(ctx.reference, ctx.key, content, meta)
            core.emit("admission", "filled", key=ctx.key, bytes=len(content))
            if not ctx.degraded:
                # A degraded fill (containment skip or backing bypass)
                # ran a partial chain — its output must not be memoized.
                core.memo_record_output(ctx.memo_fingerprint, meta, entry)
        return core.miss_result(ctx, content, disposition, meta)


class ReadPipeline:
    """Runs one read: the front step, then the stages in order until one
    produces a result.

    :meth:`read` drives a read inline under the core's sequential
    scheduler; :meth:`iterate` expresses it as a generator for a
    scheduler that decides whether suspensions interleave other reads.
    Both run the same stage objects.
    """

    def __init__(self, core: CacheCore, writes: "WritePipeline") -> None:
        self.core = core
        self.writes = writes
        self.gate = VerifierGateStage(core)
        #: The stages after the gate: where a read goes when the gate
        #: found no entry or dropped the one it found.  The plan holds
        #: only the seams the core has enabled, so it must be built
        #: after every seam is wired.
        plan: list[Stage] = []
        if core.share_across_users:
            plan.append(AdoptionStage(core))
        if core.l2 is not None:
            plan.append(L2Stage(core))
        if core.memo is not None:
            plan.append(MemoStage(core))
        if core.concurrency is not None and core.concurrency.coalesce:
            plan.append(SingleFlightStage(core))
        self.miss_stages = (
            *plan,
            FetchStage(core),
            DegradationStage(core),
            AdmissionStage(core),
        )
        self.stages = (self.gate, *self.miss_stages)

    def read(
        self,
        reference: "DocumentReference",
        *,
        for_fill: bool = False,
        enqueued_ms: float | None = None,
    ):
        """One read to its terminal result: a ``CacheReadOutcome``, or
        ``(content, meta)`` when serving an upper cache's fill.

        Under the sequential scheduler nothing can suspend, so the read
        runs inline: the front step, the verifier gate straight on the
        entry it found, and a context object only for a read that goes
        on to the miss stages.
        """
        core = self.core
        if core.scheduler.supports_concurrency:
            return core.scheduler.drive(
                self.iterate(
                    reference, for_fill=for_fill, enqueued_ms=enqueued_ms
                )
            )
        key = EntryKey.for_reference(reference)
        started_ms = core.ctx.clock.now_ms
        budget = None
        if core.overload is not None and not for_fill:
            budget = core.overload.budget_for(reference, enqueued_ms)
            self._admit(reference, key, enqueued_ms)
        entry = self._lookup(reference, key)
        stale = None
        if entry is not None:
            result = self.gate.serve(
                reference, key, entry, started_ms, for_fill
            )
            if result.__class__ is Invalidated:
                stale = result.stale
            elif result is not None:
                return result
        ctx = ReadContext(
            reference=reference,
            key=key,
            started_ms=started_ms,
            for_fill=for_fill,
            stale=stale,
            scheduler=core.scheduler,
            enqueued_ms=enqueued_ms,
            budget=budget,
        )
        for stage in self.miss_stages:
            result = stage.run(ctx)
            if result is not None:
                return result
        raise CacheError(
            "read pipeline ended without a terminal stage result"
        )  # pragma: no cover - AdmissionStage always terminates

    def read_for_fill(self, reference: "DocumentReference"):
        """Lower-level serve: run the stages to ``(content, meta)``."""
        return self.read(reference, for_fill=True)

    def iterate(
        self,
        reference: "DocumentReference",
        *,
        for_fill: bool = False,
        scheduler: "Scheduler | None" = None,
        enqueued_ms: float | None = None,
    ):
        """One read as a scheduler-drivable generator.

        ``scheduler`` is whatever will drive the generator; the
        single-flight stage consults it to decide whether suspending is
        possible at all.  Nested reads (prefetch drains, backing-cache
        fills) leave it unset and run sequentially.  ``enqueued_ms``
        back-dates the read's arrival (``read_many`` batches pass their
        start instant) for the admission controller's sojourn signal.
        """
        budget = None
        if self.core.overload is not None and not for_fill:
            # The budget starts at *enqueue*: queueing delay counts
            # against the deadline, which is what makes sojourn-based
            # shedding protect the reads that are admitted.
            budget = self.core.overload.budget_for(reference, enqueued_ms)
        ctx = ReadContext(
            reference=reference,
            key=EntryKey.for_reference(reference),
            started_ms=self.core.ctx.clock.now_ms,
            for_fill=for_fill,
            scheduler=scheduler or self.core.scheduler,
            enqueued_ms=enqueued_ms,
            budget=budget,
        )
        return self._iterate(ctx)

    def _iterate(self, ctx: ReadContext):
        core = self.core
        concurrent = ctx.scheduler is not None and ctx.scheduler.supports_concurrency
        try:
            if not ctx.for_fill and core.overload is not None:
                self._admit(ctx.reference, ctx.key, ctx.enqueued_ms)
            while True:
                ctx.entry = self._lookup(ctx.reference, ctx.key)
                followed = False
                for stage in self.stages:
                    if concurrent and stage.seam is not None:
                        yield stage.seam
                    result = stage.run(ctx)
                    if isinstance(result, Suspension):
                        # Park on the leader's flight; on wake, re-enter
                        # the pipeline from the top, where the leader's
                        # fill (or memo record) answers this read.
                        payload = yield result
                        self._resume_follower(ctx, payload)
                        followed = True
                        break
                    if result is not None:
                        if ctx.flight is not None:
                            disposition = getattr(
                                result, "disposition", "fill"
                            )
                            core.flights.close(
                                ctx.flight, ("landed", disposition)
                            )
                            ctx.flight = None
                        return result
                if not followed:
                    raise CacheError(
                        "read pipeline ended without a terminal stage result"
                    )  # pragma: no cover - AdmissionStage always terminates
        except BaseException as error:
            if ctx.flight is not None:
                # Leader failure: deregister first, then wake followers —
                # the first to resume finds no flight and promotes
                # itself to lead its own fetch.
                core.flights.close(ctx.flight, ("failed", error))
                ctx.flight = None
            raise

    def _admit(
        self,
        reference: "DocumentReference",
        key: EntryKey,
        enqueued_ms: float | None,
    ) -> None:
        """Overload admission control: raise when the read is shed."""
        core = self.core
        decision = core.overload.admit(reference, enqueued_ms)
        if decision is None:
            return
        priority = PRIORITY_NAMES[decision.priority]
        if not decision.admitted:
            core.emit(
                "overload", "shed", key=key,
                priority=priority,
                reason=decision.reason,
                sojourn_ms=decision.sojourn_ms,
            )
            raise OverloadShedError(
                f"read shed by admission control "
                f"({decision.reason}: priority "
                f"{priority}, sojourn "
                f"{decision.sojourn_ms:.1f}ms, queue depth "
                f"{decision.queue_depth:.0f})"
            )
        core.emit(
            "overload", "admitted", key=key,
            priority=priority,
            sojourn_ms=decision.sojourn_ms,
        )

    def _lookup(
        self, reference: "DocumentReference", key: EntryKey
    ) -> CacheEntry | None:
        """The front step: the live entry for *key*, if any.

        A write-back user reading their own dirty document must see
        their buffered write, so it is flushed through the full path
        first.
        """
        core = self.core
        if key in core.dirty:
            self.writes.flush(reference)
        return core.entries.get(key)

    def _resume_follower(self, ctx: ReadContext, payload) -> None:
        """Reset per-attempt state after a flight wait; keep started_ms.

        The follower's latency deliberately includes the wait: its read
        began when it began, and the leader's remaining work is the
        price of coalescing.
        """
        ctx.entry = None
        ctx.stale = None
        ctx.content = None
        ctx.meta = None
        ctx.degraded = False
        ctx.fetch_error = None
        ctx.memo_fingerprint = None
        ctx.memo_source = None
        ctx.follows += 1
        if payload is not None and payload[0] == "failed":
            self.core.emit("coalesce", "promoted", key=ctx.key)


# -- write stages --------------------------------------------------------------


class InterposeStage(Stage):
    """Route the write: straight through (invalidating locally) or into
    the buffer stage, paying only the local hop now."""

    def run(self, ctx: WriteContext):
        core = self.core
        if core.write_mode is WriteMode.WRITE_THROUGH:
            core.kernel.write(ctx.reference, ctx.content)
            core.emit("write", "write-through", key=ctx.key)
            core.invalidate_local(ctx.key, InvalidationReason.LOCAL_WRITE)
            return True
        # Write-back: buffer locally; only the local hop is paid now.
        for hop in core.topology.hit_path():
            core.ctx.charge_hop(hop, len(ctx.content))
        return None


class BufferStage(Stage):
    """Write-back terminal: buffer dirty bytes, supersede the read entry,
    forward WRITE_FORWARDED to interested properties."""

    def run(self, ctx: WriteContext):
        core = self.core
        core.dirty[ctx.key] = (ctx.reference, bytes(ctx.content))
        if core.recovery is not None:
            # Journal before acknowledging: once write() returns, a
            # crash must not be able to lose these bytes.
            core.recovery.journal_append(
                ctx.key, ctx.reference, ctx.content
            )
        # The cached read entry (if any) no longer reflects what this
        # user would read — their buffered write supersedes it.
        core.invalidate_local(ctx.key, InvalidationReason.LOCAL_WRITE)
        core.emit("write", "write-back", key=ctx.key)
        core.forward_write(ctx.reference, len(ctx.content))
        return True


class FlushStage(Stage):
    """Push one buffered write-back through the full write path.

    Runs under the retry policy, if one is configured.  A flush that
    still fails keeps the dirty buffer (the write is not lost; a later
    flush can retry) and re-raises.
    """

    def flush(self, reference: "DocumentReference") -> bool:
        core = self.core
        key = EntryKey.for_reference(reference)
        buffered = core.dirty.pop(key, None)
        if buffered is None:
            return False
        dirty_reference, content = buffered
        try:
            if core.retry_policy is None:
                core.kernel.write(dirty_reference, content)
            else:
                core.retry_policy.call(
                    core.ctx,
                    lambda: core.kernel.write(dirty_reference, content),
                    on_retry=core.count_retry,
                )
        except Exception:
            core.dirty[key] = buffered
            core.emit("flush", "failed", key=key)
            raise
        core.emit("flush", "flushed", key=key)
        if core.recovery is not None:
            core.recovery.journal_mark_flushed(key)
        return True


class WritePipeline:
    """Runs the write stages; owns the flush stage for drains too."""

    def __init__(self, core: CacheCore) -> None:
        self.core = core
        self.stages = [InterposeStage(core), BufferStage(core)]
        self._flush_stage = FlushStage(core)

    def write(self, reference: "DocumentReference", content: bytes) -> float:
        """Write through (or into) the cache; returns elapsed virtual ms."""
        return self.core.scheduler.drive(self.iterate(reference, content))

    def iterate(self, reference: "DocumentReference", content: bytes):
        """One write as a scheduler-drivable generator.

        Writes are short critical sections — interpose/buffer mutate
        shared state — so the only suspension point is *before* the
        stages run: under a concurrent scheduler a write may interleave
        with in-flight reads at that seam, but never mid-mutation.
        """
        ctx = WriteContext(
            reference=reference,
            key=EntryKey.for_reference(reference),
            content=content,
            started_ms=self.core.ctx.clock.now_ms,
        )
        return self._iterate(ctx)

    def _iterate(self, ctx: WriteContext):
        if self.core.scheduler.supports_concurrency:
            yield FETCH_SEAM
        for stage in self.stages:
            if stage.run(ctx):
                break
        return self.core.ctx.clock.now_ms - ctx.started_ms

    def flush(self, reference: "DocumentReference") -> bool:
        """Flush one buffered write-back (False when nothing is dirty)."""
        return self._flush_stage.flush(reference)

    def flush_all(self) -> int:
        """Flush every buffered write-back; returns how many flushed."""
        flushed = 0
        for key in list(self.core.dirty):
            dirty_reference, _ = self.core.dirty[key]
            if self.flush(dirty_reference):
                flushed += 1
        return flushed
