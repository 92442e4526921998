"""The durable L2 tier: demote-on-evict, promote-on-hit, crash-warm restart.

:class:`L2Tier` sits under the in-memory L1 (:class:`~repro.cache.core.
CacheCore`'s entry table + content store) and owns four append-only
segments in one directory:

* ``content.seg`` — a :class:`~repro.storage.store.DiskContentStore` of
  demoted bytes, deduplicated by content signature;
* ``catalog.seg`` — demotion records (entry metadata) and drop
  tombstones; the last record per (document, user) key wins on replay;
* ``journal.seg`` — the write-back journal spilled to disk: one record
  per buffered write, plus flushed tombstones;
* ``memo.seg`` — verifier-free transform-memo records, so a restarted
  cache keeps its ``(source, chain) → output`` knowledge.

**Tiering is exclusive**: eviction *demotes* an entry's bytes and
metadata to disk; a later miss *promotes* them back — removing the disk
copy — instead of fetching and re-running the property chain.

**Every promoted byte is gated.**  The paper's validity question ("is
this copy still valid?") is answered the same way after a restart as
before one: a promotion re-checks the chain signature the reference
would produce today, probes the current source signature, CRC-verifies
the bytes off disk, and re-runs the entry's verifiers.  Records
recovered from a cold catalog carry no live verifier objects, so they
are rebuilt from the reference's properties and *must* match the
recorded verifier fingerprints exactly — any mismatch refuses the
promotion conservatively.  Every promotion, recovered or not, re-runs
the verifiers.

**Failure is absorbed, not propagated.**  Disk faults (write failures,
lying fsyncs, corrupted records, slow I/O — see
:meth:`~repro.faults.plan.FaultPlan.check_disk_write`) count against a
storage circuit breaker (the containment layer's
:class:`~repro.cache.containment.CircuitBreaker` machinery with
storage-tuned config); while the breaker is open every L2 operation is
skipped and the cache falls back to plain L1 semantics.  No read ever
errors because the disk is sick, and no stale or damaged byte is ever
served because every promotion is gated.
"""

from __future__ import annotations

import json
import re
import tempfile
import typing
from dataclasses import dataclass, field
from pathlib import Path

from repro.cache.cacheability import Cacheability
from repro.cache.containment import BreakerConfig, BreakerRegistry
from repro.cache.entry import CacheEntry, EntryKey
from repro.cache.memo import ChainFingerprint, MemoRecord
# Entries are installed by ``CacheCore.install``; the name stays
# importable here because the repository benchmark's span tracer
# (perfbench/spans.py) wraps it in this module too.
from repro.cache.notifiers import install_minimum_notifiers  # noqa: F401
from repro.content.signature import ContentSignature, sign
from repro.errors import PlacelessError, StorageError
from repro.ids import DocumentId, ReferenceId, UserId
from repro.storage.segment import (
    K_DEMOTE,
    K_DROP,
    K_FLUSHED,
    K_JOURNAL,
    K_MEMO,
    SegmentLog,
    pack_fields,
    unpack_fields,
)
from repro.storage.store import DiskContentStore
from repro.streams.chain import read_chain_properties

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cache.core import CacheCore
    from repro.cache.policies import DefaultStoragePolicy
    from repro.cache.verifiers import Verifier
    from repro.placeless.reference import DocumentReference

__all__ = ["L2Record", "StorageStats", "L2Tier"]

#: Virtual cost of one disk write, one disk read and one fsync.
WRITE_COST_MS = 0.4
READ_COST_MS = 0.25
SYNC_COST_MS = 0.5
#: Virtual cost of the promote-time source-signature probe.
PROBE_COST_MS = 0.2
#: Storage-breaker probation before a half-open retry of the disk.
BREAKER_PROBATION_MS = 2_000.0


@dataclass
class L2Record:
    """One demoted entry's metadata, as held in the in-memory catalog."""

    key: EntryKey
    signature: ContentSignature
    size: int
    cacheability: Cacheability
    replacement_cost_ms: float
    chain_signature: tuple[str, ...]
    verifier_fingerprints: tuple[str, ...]
    source_signature: ContentSignature | None
    reference_id: "ReferenceId | None"
    pinned: bool = False
    #: True when this record was rebuilt from the on-disk catalog (no
    #: live verifier objects); such records are always verified on
    #: their first serve.
    recovered: bool = False
    #: Live verifier objects carried over from the demoted entry;
    #: ``None`` for recovered records, which rebuild them from the
    #: reference's properties at promote time.
    verifiers: "list[Verifier] | None" = None

    def to_payload(self) -> bytes:
        """Serialize for the catalog segment (live verifiers excluded)."""
        return json.dumps({
            "document": self.key.document_id.value,
            "user": self.key.user_id.value,
            "digest": self.signature.digest,
            "size": self.size,
            "cacheability": self.cacheability.name,
            "cost": self.replacement_cost_ms,
            "chain": list(self.chain_signature),
            "verifier_fps": list(self.verifier_fingerprints),
            "source": (
                None if self.source_signature is None
                else self.source_signature.digest
            ),
            "reference": (
                None if self.reference_id is None
                else self.reference_id.value
            ),
            "pinned": self.pinned,
        }, sort_keys=True).encode("utf-8")

    @classmethod
    def from_payload(cls, payload: bytes) -> "L2Record":
        """Rebuild a (recovered, verifier-free) record from the catalog."""
        data = json.loads(payload.decode("utf-8"))
        return cls(
            key=EntryKey(
                DocumentId(data["document"]), UserId(data["user"])
            ),
            signature=ContentSignature(data["digest"]),
            size=data["size"],
            cacheability=Cacheability[data["cacheability"]],
            replacement_cost_ms=data["cost"],
            chain_signature=tuple(data["chain"]),
            verifier_fingerprints=tuple(data["verifier_fps"]),
            source_signature=(
                None if data["source"] is None
                else ContentSignature(data["source"])
            ),
            reference_id=(
                None if data["reference"] is None
                else ReferenceId(data["reference"])
            ),
            pinned=data["pinned"],
            recovered=True,
            verifiers=None,
        )


@dataclass
class StorageStats:
    """Counters maintained directly by the tier (its sole writer)."""

    #: Evictions whose bytes + metadata landed in the L2 tier.
    demotions: int = 0
    #: Evictions skipped (no source signature to gate promotion with,
    #: or an identical copy already demoted).
    demote_skips: int = 0
    #: Misses answered by promoting a demoted copy back into L1.
    promotions: int = 0
    #: The subset of promotions served from records recovered across a
    #: crash/restart — the warm-restart signal the A18 bench gates on.
    recovered_promotions: int = 0
    #: Promotions refused because the reference's chain changed.
    promote_chain_mismatches: int = 0
    #: Promotions refused because the probed source signature changed.
    promote_source_mismatches: int = 0
    #: Promotions refused because the bytes failed CRC/digest checks.
    promote_corrupt_drops: int = 0
    #: Promotions refused by a verifier (failed run or unreconstructible
    #: verifier set).
    promote_verifier_drops: int = 0
    #: Verifier executions performed at promote time (every recovered
    #: record's first serve runs here).
    promote_verifier_runs: int = 0
    #: Write-back journal records spilled to disk.
    journal_spills: int = 0
    #: Dirty writes restored from the disk journal at recover time.
    journal_replayed: int = 0
    #: Disk-journal records whose reference no longer resolves.
    journal_unresolved: int = 0
    #: Memo records spilled to disk / reloaded at recover time.
    memo_spills: int = 0
    memo_reloaded: int = 0
    #: Catalog records live after the last recover.
    recovered_entries: int = 0
    #: Corrupt records detected and dropped during recovers (the A18
    #: diskchaos gate: corruption handled, not served).
    corrupt_records_recovered: int = 0
    #: Catalog records dropped at recover because their bytes were lost.
    dropped_records: int = 0
    #: Appends that the fault plan failed outright.
    write_failures: int = 0
    #: Fsyncs that silently lied (watermark not advanced).
    fsyncs_lost: int = 0
    #: Operations skipped because the storage breaker was open — each
    #: one is a read that fell back to L1-only semantics.
    fallback_skips: int = 0
    #: Times the storage breaker tripped open / closed again.
    breaker_trips: int = 0
    breaker_closes: int = 0
    #: Crashes taken and recovers completed.
    crashes: int = 0
    restarts: int = 0
    #: Bytes reclaimed by compactions.
    compacted_bytes: int = 0
    by_reason: dict[str, int] = field(default_factory=dict)


def _sanitize(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name) or "cache"


class L2Tier:
    """One cache's durable tier: four segments + the storage breaker."""

    def __init__(
        self, core: "CacheCore", policy: "DefaultStoragePolicy"
    ) -> None:
        self.core = core
        self.stats = StorageStats()
        if policy.directory is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-l2-")
            directory = Path(self._tmp.name)
        else:
            self._tmp = None
            directory = Path(policy.directory) / _sanitize(
                str(core.cache_id)
            )
        self.directory = directory
        self.disk = DiskContentStore(directory / "content.seg")
        self.catalog_log = SegmentLog(directory / "catalog.seg")
        self.journal_log = SegmentLog(directory / "journal.seg")
        self.memo_log = SegmentLog(directory / "memo.seg")
        self.breakers = BreakerRegistry(BreakerConfig(
            failure_threshold=policy.breaker_failure_threshold,
            probation_delay_ms=BREAKER_PROBATION_MS,
            half_open_successes=1,
        ))
        self._breaker_key = ("storage", str(core.cache_id))
        self._catalog: dict[EntryKey, L2Record] = {}
        # Corrupt content drops already credited to the stats; the
        # content index rebuilds both at open and inside crash(), so
        # recover() credits the delta since the last recovery rather
        # than since its own entry (crash-rebuild drops must count).
        self._disk_corrupt_seen = 0
        # A tier opened over an existing directory starts warm: the
        # catalog, journal and memo segments are replayed immediately
        # (a fresh directory replays empty scans and stays cold).
        self.recover(restart=False)

    # -- breaker gating --------------------------------------------------------

    @property
    def breaker_open(self) -> bool:
        """True while the storage breaker refuses disk operations."""
        breaker = self.breakers.peek(self._breaker_key)
        return breaker is not None and not breaker.allow(
            self.core.ctx.clock.now_ms
        )

    def _allow(self, site: str) -> bool:
        breaker = self.breakers.get(self._breaker_key)
        if breaker.allow(self.core.ctx.clock.now_ms):
            return True
        self.stats.fallback_skips += 1
        self.core.emit("storage", "fallback", site=site)
        return False

    def _ok(self) -> None:
        if self.breakers.get(self._breaker_key).record_success(
            self.core.ctx.clock.now_ms
        ):
            self.stats.breaker_closes += 1
            self.core.emit("storage", "breaker-closed")

    def _fail(self, site: str) -> None:
        if self.breakers.get(self._breaker_key).record_failure(
            self.core.ctx.clock.now_ms
        ):
            self.stats.breaker_trips += 1
            self.core.emit("storage", "breaker-open", site=site)

    # -- fault-plan seams ------------------------------------------------------

    def _target(self, site: str) -> str:
        return f"{self.core.cache_id}:{site}"

    def _charge_io(self, site: str, cost_ms: float) -> None:
        plan = self.core.ctx.faults
        delay = 0.0
        if plan is not None:
            delay = plan.disk_io_delay_ms(self._target(site))
        self.core.ctx.charge(cost_ms + delay)

    def _write_fault(self, site: str) -> str | None:
        plan = self.core.ctx.faults
        if plan is None:
            return None
        return plan.check_disk_write(self._target(site))

    def _sync(self, site: str, *logs: SegmentLog) -> bool:
        """Fsync *logs* with one shared lost-draw; returns True if lost."""
        plan = self.core.ctx.faults
        lost = (
            plan.check_disk_sync(self._target(site))
            if plan is not None else False
        )
        if lost:
            self.stats.fsyncs_lost += 1
        self.core.ctx.charge(SYNC_COST_MS)
        for log in logs:
            log.sync(lost=lost)
        return lost

    # -- demote-on-evict -------------------------------------------------------

    def demote(self, entry: CacheEntry, content: bytes) -> None:
        """Eviction hook: spill the victim's bytes + metadata to disk."""
        source = entry.policy_state.get("source_signature")
        if source is None:
            # Without a recorded source signature a promotion could not
            # probe for out-of-band changes — safer to just miss.
            self.stats.demote_skips += 1
            return
        existing = self._catalog.get(entry.key)
        if existing is not None and existing.signature == entry.signature:
            # Identical bytes already demoted: refresh the live sidecar
            # and skip the disk write.
            existing.verifiers = list(entry.verifiers)
            existing.recovered = False
            self.stats.demote_skips += 1
            return
        if not self._allow("demote"):
            return
        self._charge_io("demote", WRITE_COST_MS)
        action = self._write_fault("demote")
        if action == "fail":
            self.stats.write_failures += 1
            self._fail("demote")
            self.core.emit("storage", "write-failed", key=entry.key)
            return
        record = L2Record(
            key=entry.key,
            signature=entry.signature,
            size=entry.size,
            cacheability=entry.cacheability,
            replacement_cost_ms=entry.replacement_cost_ms,
            chain_signature=entry.chain_signature,
            verifier_fingerprints=tuple(
                verifier.fingerprint() for verifier in entry.verifiers
            ),
            source_signature=source,
            reference_id=entry.reference_id,
            pinned=entry.pinned,
            verifiers=list(entry.verifiers),
        )
        if existing is not None:
            # Superseding demotion: release the old bytes; the new
            # catalog record replaces the old one on replay (last wins).
            self._forget(existing)
        self.disk.put_signed(
            content, entry.signature, corrupt=(action == "corrupt")
        )
        self.catalog_log.append(K_DEMOTE, record.to_payload())
        self._sync("demote", self.disk.log, self.catalog_log)
        self._catalog[entry.key] = record
        self.stats.demotions += 1
        self._ok()
        self.core.emit(
            "storage", "demoted", key=entry.key, bytes=entry.size
        )

    # -- promote-on-hit --------------------------------------------------------

    def promote(self, ctx):
        """Miss hook (the pipeline's L2 stage): try a demoted copy.

        Returns ``None`` to fall through to the memo/fetch stages, or
        the terminal read result.  Every gate that refuses also drops
        the record — a demoted copy that failed any validity check is
        dead weight, never a second chance to serve stale bytes.
        """
        record = self._catalog.get(ctx.key)
        if record is None:
            return None
        core = self.core
        if not self._allow("promote"):
            return None
        # Gate 1 — the chain this reference would run today must match
        # the chain that produced the demoted bytes (invalidation
        # classes b/c: property add/remove/modify/reorder).
        if core.expected_chain_signature(ctx.reference) != (
            record.chain_signature
        ):
            self._drop_record(record, "chain-changed")
            self.stats.promote_chain_mismatches += 1
            return None
        # Gate 2 — probe the *current* source signature (class a: the
        # source changed while the copy sat on disk).
        core.ctx.charge(PROBE_COST_MS)
        if sign(ctx.reference.base.provider.peek()) != (
            record.source_signature
        ):
            self._drop_record(record, "source-changed")
            self.stats.promote_source_mismatches += 1
            return None
        # Gate 3 — the bytes themselves, CRC- and digest-checked.
        self._charge_io("promote", READ_COST_MS)
        try:
            content = self.disk.get(record.signature)
        except StorageError:
            self.disk.drop(record.signature)
            self._drop_record(record, "corrupt", release=False)
            self.stats.promote_corrupt_drops += 1
            self._fail("promote")
            self.core.emit("storage", "corrupt-dropped", key=ctx.key)
            return None
        # Gate 4 — verifiers (class d: external conditions).  Recovered
        # records rebuild them from the reference's properties and must
        # match the recorded fingerprints exactly.
        verifiers = self._verifiers_for(record, ctx.reference)
        if verifiers is None:
            self._drop_record(record, "verifiers-unreconstructible")
            self.stats.promote_verifier_drops += 1
            return None
        if core.use_verifiers and verifiers:
            if not core.reverify(ctx.key, self._counted(verifiers), content):
                self._drop_record(record, "verifier-refused")
                self.stats.promote_verifier_drops += 1
                self.core.emit("storage", "verifier-dropped", key=ctx.key)
                return None
        self._ok()
        return self._serve(ctx, record, content, verifiers)

    def _verifiers_for(
        self, record: L2Record, reference: "DocumentReference"
    ) -> "list[Verifier] | None":
        """The record's verifier set, live or rebuilt; ``None`` refuses.

        A recovered record holds only fingerprints.  The same sources
        that minted the fill-time verifiers mint fresh ones — the
        provider first, then the chain properties, mirroring how the
        read path accumulates ``PathMeta.verifiers`` — and their
        fingerprints cover code identity + configuration, so an exact
        tuple match proves the rebuilt set checks the same conditions
        the demoted entry's did.  Anything else (property gone,
        verifier reconfigured) refuses conservatively.  Observed state
        inside a rebuilt verifier is *current* rather than fill-time,
        which is sound here: the promote path has already probed that
        the source bytes are unchanged since the demotion.
        """
        if record.verifiers is not None:
            return record.verifiers
        minted = [reference.base.provider.make_verifier()]
        minted.extend(
            prop.make_verifier()
            for prop in read_chain_properties(reference)
        )
        rebuilt = [
            verifier for verifier in minted if verifier is not None
        ]
        fingerprints = tuple(
            verifier.fingerprint() for verifier in rebuilt
        )
        if fingerprints != record.verifier_fingerprints:
            return None
        return rebuilt

    def _counted(self, verifiers: "list[Verifier]"):
        """*verifiers*, counting each one a promotion actually runs."""
        for verifier in verifiers:
            self.stats.promote_verifier_runs += 1
            yield verifier

    def _serve(self, ctx, record: L2Record, content: bytes, verifiers):
        """Install the promoted entry and terminate the read.

        A signature-reuse serve like a memo hit: the metadata exchange,
        ``put_signed`` leaving exactly one store reference the entry
        takes over, then the core's install.  Exclusive tiering: the
        promoted copy leaves the L2 catalog.
        """
        core = self.core
        core.charge_metadata_exchange()
        core.store.put_signed(content, record.signature)
        entry = core.install(
            ctx.reference, ctx.key, record.signature, record.size,
            cacheability=record.cacheability,
            verifiers=verifiers,
            replacement_cost_ms=record.replacement_cost_ms,
            chain_signature=record.chain_signature,
            pinned=record.pinned,
            source_signature=record.source_signature,
        )
        if record.recovered:
            self.stats.recovered_promotions += 1
        self._drop_record(record, "promoted")
        self.stats.promotions += 1
        core.emit("storage", "promoted", key=ctx.key, bytes=record.size)
        return core.miss_result(
            ctx, content, "miss-promoted", core.meta_from_entry(entry)
        )

    # -- drops -----------------------------------------------------------------

    def drop(self, key: EntryKey) -> None:
        """Invalidation drop-through: a kill for *key* also kills the
        demoted copy (notifier/explicit invalidations must not leave a
        resurrectable stale copy on disk)."""
        record = self._catalog.get(key)
        if record is None:
            return
        self._drop_record(record, "invalidated")

    def _forget(self, record: L2Record, *, release: bool = True) -> None:
        self._catalog.pop(record.key, None)
        if release:
            try:
                self.disk.release(record.signature)
            except StorageError:
                pass

    def _drop_record(
        self, record: L2Record, reason: str, *, release: bool = True
    ) -> None:
        """Remove a catalog record and tombstone it on disk.

        A tombstone write that fails (or whose fsync is lost) is safe:
        the record could reappear after a crash, but every promotion is
        gated on chain/source/CRC/verifier checks, so a resurrected
        record can never serve a stale byte — it just wastes one probe.
        """
        self._forget(record, release=release)
        self.stats.by_reason[reason] = (
            self.stats.by_reason.get(reason, 0) + 1
        )
        if self._write_fault("tombstone") is not None:
            self.stats.write_failures += 1
            return
        self.catalog_log.append(K_DROP, json.dumps({
            "document": record.key.document_id.value,
            "user": record.key.user_id.value,
        }, sort_keys=True).encode("utf-8"))
        self._sync("tombstone", self.catalog_log)

    # -- journal / memo spill --------------------------------------------------

    def spill_journal_append(
        self,
        key: EntryKey,
        reference: "DocumentReference",
        content: bytes,
    ) -> None:
        """Journal hook: mirror one buffered write onto disk."""
        if not self._allow("journal"):
            return
        self._charge_io("journal", WRITE_COST_MS)
        action = self._write_fault("journal")
        if action == "fail":
            self.stats.write_failures += 1
            self._fail("journal")
            return
        payload = pack_fields(
            json.dumps({
                "document": key.document_id.value,
                "user": key.user_id.value,
                "reference": reference.reference_id.value,
            }, sort_keys=True).encode("utf-8"),
            bytes(content),
        )
        self.journal_log.append(
            K_JOURNAL, payload, corrupt=(action == "corrupt")
        )
        if self._sync("journal", self.journal_log):
            # The fsync lied.  Re-append and sync honestly — if the
            # first frame actually reached the platter this produces a
            # duplicated tail record, which replay (latest-per-key) and
            # the in-memory journal's tail coalescing both tolerate.
            self.journal_log.append(K_JOURNAL, payload)
            self._sync("journal-retry", self.journal_log)
        self.stats.journal_spills += 1
        self._ok()

    def spill_journal_flushed(self, key: EntryKey) -> None:
        """Flush hook: tombstone the key's spilled journal records.

        A lost tombstone merely over-replays on the next recover, and
        replay into the dirty buffer is idempotent — so no retry.
        """
        if not self._allow("journal"):
            return
        self._charge_io("journal", WRITE_COST_MS)
        if self._write_fault("flushed") is not None:
            self.stats.write_failures += 1
            return
        self.journal_log.append(K_FLUSHED, json.dumps({
            "document": key.document_id.value,
            "user": key.user_id.value,
        }, sort_keys=True).encode("utf-8"))
        self._sync("flushed", self.journal_log)

    def spill_memo_record(self, record: MemoRecord) -> None:
        """Memo hook: persist one verifier-free memo record.

        Records carrying live verifier objects are not serializable —
        and a reloaded record without its verifiers would dodge class
        (d) checks — so only verifier-free records (including negative
        ones) spill.
        """
        if record.verifiers or record.verifier_fingerprints:
            return
        if not self._allow("memo"):
            return
        self._charge_io("memo", WRITE_COST_MS)
        action = self._write_fault("memo")
        if action == "fail":
            self.stats.write_failures += 1
            self._fail("memo")
            return
        self.memo_log.append(K_MEMO, json.dumps({
            "source": record.source_signature.digest,
            "fingerprint": record.fingerprint.digest,
            "output": (
                None if record.output_signature is None
                else record.output_signature.digest
            ),
            "document": (
                None if record.document_id is None
                else record.document_id.value
            ),
            "size": record.size,
            "cacheability": record.cacheability.name,
            "cost": record.replacement_cost_ms,
            "chain": list(record.chain_signature),
            "pin": record.pin,
        }, sort_keys=True).encode("utf-8"), corrupt=(action == "corrupt"))
        self._sync("memo", self.memo_log)
        self.stats.memo_spills += 1
        self._ok()

    def materialize_bytes(self, signature: ContentSignature) -> bytes | None:
        """Memo-plane extension: pull recorded output bytes off disk.

        Leaves exactly one L1 store reference (``put_signed``) that the
        serving entry takes over, per the
        :meth:`~repro.cache.memo.TransformMemo.materialize` contract.
        """
        if signature not in self.disk:
            return None
        if not self._allow("materialize"):
            return None
        self._charge_io("materialize", READ_COST_MS)
        try:
            content = self.disk.get(signature)
        except StorageError:
            self.disk.drop(signature)
            self._fail("materialize")
            self.core.emit("storage", "corrupt-dropped")
            return None
        self.core.store.put_signed(content, signature)
        self._ok()
        self.core.emit("storage", "materialized", bytes=len(content))
        return content

    # -- maintenance -----------------------------------------------------------

    def compact(self) -> int:
        """Reclaim dead content bytes; returns bytes freed."""
        freed = self.disk.compact()
        self.stats.compacted_bytes += freed
        self.core.emit("storage", "compacted", bytes=freed)
        return freed

    # -- crash / recover -------------------------------------------------------

    def crash(self) -> None:
        """Process death: unsynced bytes vanish, volatile catalog too."""
        self.disk.crash()
        for log in (self.catalog_log, self.journal_log, self.memo_log):
            log.crash()
        self._catalog.clear()
        self.stats.crashes += 1

    def recover(self, *, restart: bool = True) -> int:
        """Rebuild the catalog, replay the journal, reload the memo.

        Every recovered catalog record is marked ``recovered`` — its
        first promotion re-runs verifiers unconditionally (the paper's
        "is this copy still valid?" answered after disconnection).
        Returns the number of live catalog records.
        """
        core = self.core
        # The content index rebuilt at open/crash time; refcounts are
        # re-derived below, one adopt per surviving catalog record.
        catalog_records, corrupt = self.catalog_log.scan_records()
        self.stats.corrupt_records_recovered += corrupt
        self._catalog.clear()
        for kind, payload, _ in catalog_records:
            if kind == K_DEMOTE:
                try:
                    record = L2Record.from_payload(payload)
                except (ValueError, KeyError):
                    self.stats.corrupt_records_recovered += 1
                    continue
                self._catalog[record.key] = record
            elif kind == K_DROP:
                try:
                    data = json.loads(payload.decode("utf-8"))
                    key = EntryKey(
                        DocumentId(data["document"]), UserId(data["user"])
                    )
                except (ValueError, KeyError):
                    continue
                self._catalog.pop(key, None)
        # Records whose bytes were lost to a crash or corruption are
        # dead; survivors re-take their content references.
        for key, record in list(self._catalog.items()):
            if record.signature not in self.disk:
                del self._catalog[key]
                self.stats.dropped_records += 1
                continue
            self.disk.adopt(record.signature)
        self.stats.corrupt_records_recovered += (
            self.disk.corrupt_dropped - self._disk_corrupt_seen
        )
        self._disk_corrupt_seen = self.disk.corrupt_dropped
        self.stats.recovered_entries = len(self._catalog)
        self._replay_journal()
        self._reload_memo()
        if restart:
            self.stats.restarts += 1
            core.emit(
                "storage", "recovered",
                entries=len(self._catalog),
            )
        return len(self._catalog)

    def _replay_journal(self) -> None:
        """Latest unflushed spilled write per key → the dirty buffer.

        Skips keys already dirty (the in-memory journal replays first),
        so double replay — and the duplicated tail an fsync-lost retry
        can leave — restores nothing twice.
        """
        core = self.core
        records, corrupt = self.journal_log.scan_records()
        self.stats.corrupt_records_recovered += corrupt
        latest: dict[EntryKey, tuple[str, bytes]] = {}
        for kind, payload, _ in records:
            if kind == K_JOURNAL:
                try:
                    meta_raw, content = unpack_fields(payload)
                    data = json.loads(meta_raw.decode("utf-8"))
                    key = EntryKey(
                        DocumentId(data["document"]), UserId(data["user"])
                    )
                except (StorageError, ValueError, KeyError):
                    self.stats.corrupt_records_recovered += 1
                    continue
                latest[key] = (data["reference"], content)
            elif kind == K_FLUSHED:
                try:
                    data = json.loads(payload.decode("utf-8"))
                    key = EntryKey(
                        DocumentId(data["document"]), UserId(data["user"])
                    )
                except (ValueError, KeyError):
                    continue
                latest.pop(key, None)
        for key, (reference_id, content) in latest.items():
            if key in core.dirty:
                continue
            try:
                reference = core.kernel.space(key.user_id).get(
                    ReferenceId(reference_id)
                )
            except PlacelessError:
                self.stats.journal_unresolved += 1
                continue
            core.dirty[key] = (reference, content)
            self.stats.journal_replayed += 1
            core.emit(
                "journal", "replayed", key=key, bytes=len(content)
            )

    def _reload_memo(self) -> None:
        """Verifier-free memo records back into the live memo table."""
        core = self.core
        records, corrupt = self.memo_log.scan_records()
        self.stats.corrupt_records_recovered += corrupt
        if core.memo is None:
            return
        for kind, payload, _ in records:
            if kind != K_MEMO:
                continue
            try:
                data = json.loads(payload.decode("utf-8"))
                record = MemoRecord(
                    source_signature=ContentSignature(data["source"]),
                    fingerprint=ChainFingerprint(data["fingerprint"]),
                    output_signature=(
                        None if data["output"] is None
                        else ContentSignature(data["output"])
                    ),
                    document_id=(
                        None if data["document"] is None
                        else DocumentId(data["document"])
                    ),
                    size=data["size"],
                    cacheability=Cacheability[data["cacheability"]],
                    replacement_cost_ms=data["cost"],
                    chain_signature=tuple(data["chain"]),
                    pin=data["pin"],
                )
            except (ValueError, KeyError):
                self.stats.corrupt_records_recovered += 1
                continue
            core.memo.record(record)
            self.stats.memo_reloaded += 1

    # -- inspection ------------------------------------------------------------

    def catalog_keys(self) -> list[EntryKey]:
        """Keys currently demoted to this tier (for tests/benches)."""
        return list(self._catalog)

    def __len__(self) -> int:
        return len(self._catalog)

    def __contains__(self, key: EntryKey) -> bool:
        return key in self._catalog
