"""Every optional seam on at once serves what a plain cache serves.

Each seam has its own suite, but those suites turn on at most three of
them together.  Here one cache runs memo, containment, concurrency,
recovery, the durable L2 tier, the overload gate (with nothing it
could shed or time out) and cross-user sharing, and replays a churn
trace — reads, writes, publishes, perishes — next to a plain cache on
an identical world.  After every event both caches must have served the
same bytes, and the composed cache's table, store and replacement
policy must agree (``CacheCore.check_invariants``).  The trace replays
once sequentially and once as ``read_many`` batches, so the
single-flight stage is exercised too.

The seed honours ``REPRO_CHAOS_SEED`` (77/101/202 in CI) the same way
the chaos tiers do.
"""

from __future__ import annotations

import os

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
from repro.placeless.kernel import PlacelessKernel
from repro.properties.translate import TranslationProperty
from repro.workload.churn import (
    ChurnCatalog,
    ChurnEventKind,
    ChurnSpec,
    generate_churn,
    universal_documents,
)
from repro.workload.documents import CorpusSpec
from repro.workload.users import CHAIN_FACTORIES

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "77"))

_CHAINS = ("plain", "translate", "spellcheck+translate", "summarize")
_BATCH = 8


def _spec(seed: int) -> ChurnSpec:
    return ChurnSpec(
        n_events=1500,
        n_documents=300,
        n_live_start=120,
        n_users=len(_CHAINS),
        zipf_alpha=0.9,
        p_write=0.05,
        p_publish=0.02,
        p_perish=0.01,
        p_flash=0.002,
        flash_duration=50,
        mean_think_time_ms=10.0,
        seed=seed,
    )


class _World:
    """One kernel with the catalog and every user's references."""

    def __init__(self, spec: ChurnSpec) -> None:
        self.kernel = PlacelessKernel()
        owner = self.kernel.create_user("owner")
        self.catalog = ChurnCatalog(
            self.kernel, owner,
            CorpusSpec(n_documents=spec.n_documents, seed=spec.seed),
        )
        self.universal = universal_documents(spec)
        self.users = [
            self.kernel.create_user(f"user-{index}")
            for index in range(len(_CHAINS))
        ]
        self._rows: dict[int, list] = {}
        # A quarter of the initially live bytes: evictions (and, with
        # the tier, demotions and promotions) happen throughout.
        self.capacity_bytes = sum(
            self.catalog.size_of(index) for index in range(spec.n_live_start)
        ) // 4

    def reference(self, user: int, document: int):
        row = self._rows.get(document)
        if row is None:
            row = self._rows[document] = self._build(document)
        return row[user]

    def _build(self, document: int) -> list:
        built = self.catalog.document(document)
        base = built.reference.base
        universal = document in self.universal
        if universal:
            # One user-independent chain: memo records and signature
            # adoption can serve every user from one execution.
            base.attach(TranslationProperty())
        row = []
        for user, chain in zip(self.users, _CHAINS):
            reference = self.kernel.space(user).add_reference(
                base, hint=built.label
            )
            if not universal:
                for prop in CHAIN_FACTORIES[chain]():
                    reference.attach(prop)
            row.append(reference)
        return row

    def document_id(self, document: int):
        built = self.catalog.peek(document)
        return None if built is None else built.reference.base.document_id


def _composed(world: _World, directory) -> DocumentCache:
    return DocumentCache(
        world.kernel,
        world.capacity_bytes,
        share_across_users=True,
        memo_policy=DefaultMemoPolicy(),
        containment_policy=DefaultContainmentPolicy(),
        concurrency_policy=DefaultConcurrencyPolicy(),
        recovery_policy=DefaultRecoveryPolicy(),
        storage_policy=DefaultStoragePolicy(directory=str(directory)),
        overload_policy=DefaultOverloadPolicy(
            shedding=False,
            hedging=False,
            default_deadline_ms=1e9,
            deadline_from_qos=False,
        ),
        name="composed",
    )


def _replay(spec: ChurnSpec, directory, *, batched: bool):
    """Drive both caches through the trace; return (composed, reads)."""
    plain_world, world = _World(spec), _World(spec)
    plain = DocumentCache(plain_world.kernel, plain_world.capacity_bytes,
                          name="plain")
    composed = _composed(world, directory)
    pending: list[tuple[int, int]] = []
    reads = 0

    def flush() -> None:
        nonlocal reads
        if not pending:
            return
        expected = [
            plain.read(plain_world.reference(user, document)).content
            for user, document in pending
        ]
        references = [world.reference(u, d) for u, d in pending]
        if batched:
            outcomes = composed.read_many(
                references, return_exceptions=True
            )
        else:
            outcomes = [composed.read(reference) for reference in references]
        errors = [o for o in outcomes if isinstance(o, BaseException)]
        assert errors == []
        assert [o.content for o in outcomes] == expected
        reads += len(pending)
        pending.clear()
        composed.core.check_invariants()

    for event in generate_churn(spec):
        for target in (plain_world, world):
            target.kernel.ctx.clock.advance(event.think_time_ms)
        kind = event.kind
        if kind is ChurnEventKind.READ:
            pending.append((event.user_index, event.document_index))
            if not batched or len(pending) == _BATCH:
                flush()
            continue
        flush()
        if kind is ChurnEventKind.WRITE:
            payload = b"update %d of %d. " % (
                event.detail, event.document_index
            )
            plain.write(plain_world.reference(
                event.user_index, event.document_index
            ), payload)
            composed.write(world.reference(
                event.user_index, event.document_index
            ), payload)
        elif kind is ChurnEventKind.PERISH:
            document_id = world.document_id(event.document_index)
            if document_id is not None:
                plain.invalidate_document(
                    plain_world.document_id(event.document_index)
                )
                composed.invalidate_document(document_id)
        composed.core.check_invariants()
    flush()
    return composed, reads


@pytest.mark.parametrize(
    "batched", [False, True], ids=["sequential", "batched"]
)
def test_all_seams_serve_plain_bytes_and_keep_invariants(tmp_path, batched):
    spec = _spec(CHAOS_SEED)
    composed, reads = _replay(spec, tmp_path, batched=batched)
    assert reads > 1000
    # Evictions, memo adoptions and demotions all happened: the byte
    # comparison above was not vacuous.
    assert composed.stats.evictions > 0
    assert composed.memo_stats.adoptions > 0
    assert composed.storage_stats.demotions > 0
    # Nothing is orphaned: with no room left, every entry leaves.
    core = composed.core
    core.capacity_bytes = 0
    core.evict_to_capacity()
    assert len(composed) == 0
    assert core.store.physical_bytes == 0
    core.check_invariants()
