"""The benchmark's shared world: catalog, users, operations and caches.

Every workload is built the same way from one seed ``S``:

* a :class:`~repro.workload.churn.ChurnCatalog` over ``CorpusSpec(seed=S)``;
* four users.  On *personal* documents user ``u``'s reference carries
  the chain ``USER_CHAINS[u]``; *universal* documents (the set
  :func:`~repro.workload.churn.universal_documents` draws) carry one
  base-level ``TranslationProperty`` and plain references;
* a closed loop of operations: one client issues each operation after
  the previous one returns and never sleeps in wall-clock time.  Think
  times (mean 10 ms) only advance the virtual clock, which offers about
  100 reads per virtual second, half of ``DefaultOverloadPolicy``'s
  200/s admission rate.

:func:`build_inputs` does everything a workload needs before its first
timed operation: it generates the trace, materializes every document
and reference the trace touches, and prepares every write payload, so
the timed loop calls only ``DocumentCache.read``, ``write`` and
``invalidate_document``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.cache.manager import DocumentCache
from repro.cache.policies import (
    DefaultContainmentPolicy,
    DefaultMemoPolicy,
    DefaultOverloadPolicy,
    DefaultStoragePolicy,
)
from repro.cache.replacement import make_policy
from repro.placeless.kernel import PlacelessKernel
from repro.properties.translate import TranslationProperty
from repro.workload.churn import (
    ChurnCatalog,
    ChurnEventKind,
    ChurnSpec,
    ZipfSampler,
    generate_churn,
    universal_documents,
)
from repro.workload.documents import CorpusSpec
from repro.workload.users import CHAIN_FACTORIES

#: One chain per user, in user order.
USER_CHAINS = ("plain", "translate", "spellcheck+translate", "summarize")

READ, WRITE, INVALIDATE = 0, 1, 2

MEAN_THINK_MS = 10.0

#: Operations per requested second of timed work, per kind, so both
#: workloads of a kind get the same operations.  The count is
#: ``seconds * rate``, a pure function of the arguments, so
#: ``hit_ratio`` and ``virtual_read_ms`` repeat exactly for a seed.
NOMINAL_RATE = {"hot": 10_000, "churn": 1_200}


@dataclass(frozen=True)
class Shape:
    """What one workload builds."""

    kind: str  # "hot" or "churn"
    seams: bool
    l2: bool


WORKLOADS = {
    "hot-default": Shape("hot", seams=False, l2=False),
    "hot-seams": Shape("hot", seams=True, l2=True),
    "churn": Shape("churn", seams=True, l2=False),
    "churn-l2": Shape("churn", seams=True, l2=True),
}

#: Independent instances of the shape measured in one run, each from
#: its own seed derived from the run's seed.  The documents a trace
#: reads most are a small sample of the heavy-tailed size distribution,
#: so one instance's figures depend on its seed; the run pools several.
INSTANCES = {"hot": 32, "churn": 6}

HOT_DOCUMENTS = 64
HOT_ALPHA = 0.8
HOT_CAPACITY = 1 << 30

CHURN_DOCUMENTS = 100_000
CHURN_ALPHA = 0.9
#: L1 holds this share of the bytes of the documents the trace touches,
#: and at least ``CHURN_CAPACITY_FLOOR`` (A20's sizing rule).
CHURN_CAPACITY_FRACTION = 0.02
CHURN_CAPACITY_FLOOR = 1 << 20


class Op(NamedTuple):
    """One timed operation, fully prepared."""

    kind: int
    #: The reference read or written; ``None`` for an invalidation.
    reference: object
    #: Catalog index of the document.
    document: int
    #: Write payload, or the document id to invalidate.
    argument: object
    #: Virtual milliseconds to advance before the operation.
    think_ms: float


@dataclass
class Inputs:
    """A kernel holding the materialized world, plus its operations."""

    kernel: PlacelessKernel
    ops: list[Op]
    #: Warm-up reads issued (through the cache) before timing starts.
    warm: list[Op] = field(default_factory=list)
    capacity_bytes: int = HOT_CAPACITY


def churn_spec(seed: int, n_events: int) -> ChurnSpec:
    """The publish/perish trace shared by both churn workloads."""
    return ChurnSpec(
        n_events=n_events,
        n_documents=CHURN_DOCUMENTS,
        n_live_start=CHURN_DOCUMENTS // 2,
        n_users=len(USER_CHAINS),
        zipf_alpha=CHURN_ALPHA,
        p_write=0.05,
        p_publish=0.01,
        p_perish=0.005,
        # Many short flash crowds rather than a few long ones: the count
        # per trace is then steady from seed to seed.
        p_flash=0.002,
        flash_duration=100,
        flash_share=0.3,
        cycle_period=max(1, n_events // 4),
        day_fraction=0.7,
        night_think_factor=4.0,
        mean_think_time_ms=MEAN_THINK_MS,
        universal_fraction=0.5,
        seed=seed,
    )


class _References:
    """Lazily creates the four users' references to catalog documents."""

    def __init__(self, kernel: PlacelessKernel, catalog: ChurnCatalog,
                 universal: set[int]) -> None:
        self.kernel = kernel
        self.catalog = catalog
        self.universal = universal
        self.users = [
            kernel.create_user(f"user-{index}")
            for index in range(len(USER_CHAINS))
        ]
        self._rows: dict[int, list] = {}

    def get(self, user: int, document: int):
        row = self._rows.get(document)
        if row is None:
            row = self._rows[document] = self._build(document)
        return row[user]

    def _build(self, document: int) -> list:
        built = self.catalog.document(document)
        base = built.reference.base
        universal = document in self.universal
        if universal:
            base.attach(TranslationProperty())
        row = []
        for user, chain in zip(self.users, USER_CHAINS):
            reference = self.kernel.space(user).add_reference(
                base, hint=built.label
            )
            if not universal:
                for prop in CHAIN_FACTORIES[chain]():
                    reference.attach(prop)
            row.append(reference)
        return row


def _payload(document_size: int, detail: int) -> bytes:
    """A write body about the size of the document it replaces."""
    stamp = b"churn update %d. " % detail
    return (stamp * (document_size // len(stamp) + 1))[:document_size]


def generate_trace(spec: ChurnSpec) -> list:
    """The whole churn trace, generated up front."""
    return list(generate_churn(spec))


#: Items of work between two calls of the set-up's ``tick``.
TICK_EVERY = 64


def _no_tick() -> None:
    pass


def build_inputs(kind: str, seed: int, n_ops: int, tick=_no_tick) -> Inputs:
    """Build the world and the prepared operations for one workload.

    *tick* is called every ``TICK_EVERY`` documents or events, so the
    caller can gauge the host while set-up runs.
    """
    kernel = PlacelessKernel()
    owner = kernel.create_user("owner")
    if kind == "hot":
        return _hot_inputs(kernel, owner, seed, n_ops, tick)
    return _churn_inputs(kernel, owner, seed, n_ops, tick)


def _hot_inputs(kernel, owner, seed: int, n_reads: int, tick) -> Inputs:
    catalog = ChurnCatalog(
        kernel, owner, CorpusSpec(n_documents=HOT_DOCUMENTS, seed=seed)
    )
    spec = churn_spec(seed, 0)
    spec.n_documents = spec.n_live_start = HOT_DOCUMENTS
    refs = _References(kernel, catalog, universal_documents(spec))
    pairs = [
        (user, document)
        for document in range(HOT_DOCUMENTS)
        for user in range(len(USER_CHAINS))
    ]
    rng = random.Random(seed)
    rng.shuffle(pairs)  # popularity rank -> (user, document)
    zipf = ZipfSampler(len(pairs), HOT_ALPHA)
    # Warm-up reads are spread over one web TTL, so expiries are spread
    # too when timing starts, as in a cache that has been running.
    spacing = CorpusSpec().ttl_ms / len(pairs)
    warm = []
    for index, (user, document) in enumerate(pairs):
        if index % TICK_EVERY == 0:
            tick()
        warm.append(Op(READ, refs.get(user, document), document, None,
                       spacing))
    ops = []
    for index in range(n_reads):
        if index % (TICK_EVERY * 64) == 0:
            tick()
        user, document = pairs[zipf.sample(rng)]
        ops.append(
            Op(READ, refs.get(user, document), document, None,
               rng.expovariate(1.0 / MEAN_THINK_MS))
        )
    return Inputs(kernel, ops, warm=warm)


def _churn_inputs(kernel, owner, seed: int, n_events: int,
                  tick) -> Inputs:
    spec = churn_spec(seed, n_events)
    catalog = ChurnCatalog(
        kernel, owner, CorpusSpec(n_documents=CHURN_DOCUMENTS, seed=seed)
    )
    refs = _References(kernel, catalog, universal_documents(spec))
    tick()
    events = generate_trace(spec)
    ops = []
    think = 0.0
    touched: set[int] = set()
    for index, event in enumerate(events):
        if index % TICK_EVERY == 0:
            tick()
        think += event.think_time_ms
        kind = event.kind
        if kind is ChurnEventKind.READ or kind is ChurnEventKind.WRITE:
            reference = refs.get(event.user_index, event.document_index)
            touched.add(event.document_index)
            if kind is ChurnEventKind.READ:
                ops.append(Op(READ, reference, event.document_index, None,
                              think))
            else:
                payload = _payload(
                    catalog.size_of(event.document_index), event.detail
                )
                ops.append(Op(WRITE, reference, event.document_index,
                              payload, think))
            think = 0.0
        elif kind is ChurnEventKind.PERISH:
            built = catalog.peek(event.document_index)
            if built is not None:  # never touched: nothing to invalidate
                ops.append(Op(INVALIDATE, None, event.document_index,
                              built.reference.base.document_id, think))
                think = 0.0
        # PUBLISH is bookkeeping only: the newcomer is materialized above
        # when an operation first touches it.
    touched_bytes = sum(catalog.size_of(index) for index in touched)
    capacity = max(CHURN_CAPACITY_FLOOR,
                   int(touched_bytes * CHURN_CAPACITY_FRACTION))
    return Inputs(kernel, ops, capacity_bytes=capacity)


def build_cache(inputs: Inputs, shape: Shape, seed: int,
                l2_directory: str | None) -> DocumentCache:
    """The workload's cache over *inputs*' kernel.

    ``default`` is ``DocumentCache(kernel, capacity, policy=gds)``;
    ``seams`` adds memo, containment, overload and cross-user sharing,
    and, where the shape says so, the durable L2 in *l2_directory*.
    """
    options = {}
    if shape.seams:
        options = dict(
            memo_policy=DefaultMemoPolicy(),
            containment_policy=DefaultContainmentPolicy(),
            overload_policy=DefaultOverloadPolicy(),
            share_across_users=True,
        )
        if shape.l2:
            options["storage_policy"] = DefaultStoragePolicy(
                directory=l2_directory
            )
    return DocumentCache(
        inputs.kernel,
        inputs.capacity_bytes,
        policy=make_policy("gds", seed=seed),
        name="bench",
        **options,
    )


def instance_seed(seed: int, instance: int) -> int:
    """The seed of one instance within a run."""
    return seed * 64 + instance
