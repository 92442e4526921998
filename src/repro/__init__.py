"""repro — a reproduction of *Caching Documents with Active Properties*.

De Lara, Petersen, Terry, LaMarca, Thornton, Salisbury, Dourish, Edwards
and Lamping (Xerox PARC), HotOS-VII, 1999.

The package implements the Placeless Documents middleware (base
documents, per-user references, static and active properties, event
dispatch, custom-stream chaining, bit-providers over simulated
repositories) and — the paper's contribution — an active-property-aware
content cache: per-user entries sharing identical content through MD5
signatures, notifier- and verifier-based consistency across the paper's
four invalidation classes, three-level cacheability votes with
event forwarding, and cost-aware Greedy-Dual-Size replacement.

Quickstart::

    from repro import PlacelessKernel, DocumentCache, MemoryProvider
    from repro.properties import TranslationProperty

    kernel = PlacelessKernel()
    user = kernel.create_user("eyal")
    ref = kernel.import_document(
        user, MemoryProvider(kernel.ctx, b"hello world"), "greeting")
    ref.attach(TranslationProperty())

    cache = DocumentCache(kernel, capacity_bytes=1 << 20)
    print(cache.read(ref).content)   # b"bonjour monde" — a miss
    print(cache.read(ref).hit)       # True — served from cache

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record; ``python -m repro.bench`` regenerates every
table.
"""

from repro.cache import (
    Cacheability,
    CacheEntry,
    CacheReadOutcome,
    CacheStats,
    DocumentCache,
    EntryKey,
    GreedyDualSizePolicy,
    Invalidation,
    InvalidationBus,
    InvalidationClass,
    InvalidationReason,
    LRUPolicy,
    NotifierProperty,
    ReplacementPolicy,
    TTLVerifier,
    Verdict,
    Verifier,
    WriteMode,
    install_minimum_notifiers,
    make_policy,
)
from repro.errors import PlacelessError
from repro.events import Event, EventType
from repro.faults import (
    FaultPlan,
    FaultStats,
    OutageWindow,
    RetryPolicy,
    standard_chaos_scenario,
)
from repro.ids import (
    CacheId,
    DocumentId,
    PropertyId,
    ReferenceId,
    UserId,
    VersionId,
)
from repro.events import EventRecorder
from repro.nfs import NFSMount, NFSServer
from repro.placeless import (
    ActiveProperty,
    AttachmentSite,
    BaseDocument,
    DocumentCollection,
    DocumentReference,
    DocumentSpace,
    PlacelessKernel,
    Property,
    ReadResult,
    StaticProperty,
    WriteResult,
)
from repro.providers import (
    BitProvider,
    CompositeProvider,
    DMSProvider,
    DocumentManagementSystem,
    FileSystemProvider,
    LiveFeedProvider,
    MailboxDigestProvider,
    MailServer,
    MemoryProvider,
    MessageProvider,
    SimulatedFileSystem,
    WebOrigin,
    WebProvider,
)
from repro.cluster import (
    CacheCluster,
    DefaultClusterPolicy,
    PlacementRing,
)
from repro.workload import TraceRunner
from repro.sim import (
    CachePlacement,
    LatencyModel,
    SimContext,
    Topology,
    VirtualClock,
)

__version__ = "1.0.0"

__all__ = [
    # middleware
    "PlacelessKernel",
    "BaseDocument",
    "DocumentReference",
    "DocumentSpace",
    "DocumentCollection",
    "Property",
    "StaticProperty",
    "ActiveProperty",
    "AttachmentSite",
    "ReadResult",
    "WriteResult",
    "Event",
    "EventType",
    # providers
    "BitProvider",
    "MemoryProvider",
    "FileSystemProvider",
    "SimulatedFileSystem",
    "WebOrigin",
    "WebProvider",
    "LiveFeedProvider",
    "CompositeProvider",
    "DocumentManagementSystem",
    "DMSProvider",
    "MailServer",
    "MessageProvider",
    "MailboxDigestProvider",
    # cache
    "DocumentCache",
    "CacheReadOutcome",
    "WriteMode",
    "CacheEntry",
    "EntryKey",
    "Cacheability",
    "CacheStats",
    "Invalidation",
    "InvalidationClass",
    "InvalidationReason",
    "InvalidationBus",
    "NotifierProperty",
    "install_minimum_notifiers",
    "Verifier",
    "Verdict",
    "TTLVerifier",
    "ReplacementPolicy",
    "GreedyDualSizePolicy",
    "LRUPolicy",
    "make_policy",
    # cluster
    "CacheCluster",
    "DefaultClusterPolicy",
    "PlacementRing",
    # NFS façade
    "NFSServer",
    "NFSMount",
    # fault injection
    "FaultPlan",
    "FaultStats",
    "OutageWindow",
    "RetryPolicy",
    "standard_chaos_scenario",
    # tooling
    "EventRecorder",
    "TraceRunner",
    # simulation
    "SimContext",
    "VirtualClock",
    "LatencyModel",
    "Topology",
    "CachePlacement",
    # ids / errors
    "DocumentId",
    "ReferenceId",
    "UserId",
    "PropertyId",
    "CacheId",
    "VersionId",
    "PlacelessError",
    "__version__",
]
