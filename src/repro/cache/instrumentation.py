"""The unified cache instrumentation bus.

The monolithic cache mutated :class:`~repro.cache.stats.CacheStats`
counters inline at ~40 scattered sites, which made per-mechanism
accounting impossible to extend: adding one observable meant touching
the manager.  The pipelined cache instead has every stage emit a
structured observation — stage name, (document, user) key, outcome
label, virtual-clock start/end — onto an :class:`InstrumentationBus`,
and everything downstream is a subscriber:

* :class:`StatsProjection` derives today's :class:`CacheStats` counters
  from the observations (byte-identical to the pre-pipeline inline
  mutation — the equivalence tests pin this);
* :class:`BusStatsProjection` does the same for the invalidation bus's
  :class:`~repro.cache.notifiers.BusStats`;
* :class:`StageRecorder` aggregates count/latency per (stage, outcome),
  giving the trace runner and benches their per-stage breakdown for
  free.

Counters cost no event objects.  Every projection is a
:class:`Projection`: it names, per stage, the method that folds one
observation into its counters, and the bus compiles those methods into
one route per stage whenever its subscriber set changes.
:meth:`InstrumentationBus.publish` then calls the route's methods
directly — one dictionary lookup per observation.  A
:class:`StageEvent` is built only when a plain subscriber (a test
probe, the cluster's health tracker, a bench sink) needs one; then
every subscriber receives that event in subscription order, the
projections included.

Observations are delivered synchronously (subscribers run inline at the
emit site) and timing comes from the virtual clock only, so
instrumentation never perturbs simulated time or fault-injection draws.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field
from typing import Any, Callable

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cache.stats import CacheStats
    from repro.ids import DocumentId, UserId

__all__ = [
    "StageEvent",
    "InstrumentationBus",
    "Projection",
    "ANY_STAGE",
    "StageRecorder",
    "StatsProjection",
    "BusStatsProjection",
    "ConcurrencyStats",
    "ConcurrencyStatsProjection",
    "OverloadStats",
    "OverloadStatsProjection",
    "STAGE_ORDER",
]

#: Canonical display order for breakdown tables: read-pipeline stages,
#: write-pipeline stages, then auxiliary event sources.
STAGE_ORDER = (
    "read",
    "dirty-flush",
    "lookup",
    "verifier-gate",
    "adoption",
    "storage",
    "memo",
    "coalesce",
    "fetch",
    "degradation",
    "admission",
    "write",
    "flush",
    "verifier",
    "quarantine",
    "containment",
    "eviction",
    "invalidation",
    "notifier",
    "forward",
    "prefetch",
    "staleness",
    "bus",
    "bus-loss",
    "channel",
    "lease",
    "resync",
    "journal",
    "crash",
    "overload",
    "deadline",
    "hedge",
    "health",
)


@dataclass(frozen=True, slots=True)
class StageEvent:
    """One structured observation emitted by a cache stage.

    Built only for plain subscribers — projections take observations
    without one — and slotted (no per-instance ``__dict__``) for the
    runs that do attach one.
    """

    stage: str
    outcome: str
    document_id: "DocumentId | None" = None
    user_id: "UserId | None" = None
    started_ms: float = 0.0
    ended_ms: float = 0.0
    payload: dict[str, Any] = field(default_factory=dict)

    @property
    def elapsed_ms(self) -> float:
        """Virtual time the observed work took."""
        return self.ended_ms - self.started_ms


#: Routing key of a :class:`Projection` handler that takes every stage
#: (the stage recorder's).
ANY_STAGE = "*"


class Projection:
    """A subscriber that folds observations into counters it owns.

    ``HANDLERS`` maps a stage name (or :data:`ANY_STAGE`) to the name of
    the method that folds one observation of that stage; each such
    method takes ``(stage, outcome, elapsed_ms, payload)``.  A bus calls
    those methods directly, without building a :class:`StageEvent`;
    called with an event (the plain-subscriber protocol), a projection
    unpacks it into the same method, so the two deliveries count alike.
    """

    HANDLERS: typing.ClassVar[dict[str, str]] = {}

    def stage_handlers(self) -> dict[str, Callable[..., None]]:
        """Stage → bound handler, for the bus's route table."""
        return {
            stage: getattr(self, name) for stage, name in self.HANDLERS.items()
        }

    def __call__(self, event: StageEvent) -> None:
        name = self.HANDLERS.get(event.stage) or self.HANDLERS.get(ANY_STAGE)
        if name is not None:
            getattr(self, name)(
                event.stage, event.outcome, event.elapsed_ms, event.payload
            )


class InstrumentationBus:
    """Synchronous fan-out of stage observations to subscribers.

    The subscriber collection is copy-on-write: ``subscribe`` and
    ``unsubscribe`` *replace* an immutable tuple (and the route table
    compiled from it) rather than mutating in place, and a delivery
    iterates whatever it captured.  Under the concurrent scheduler a
    stage callback may subscribe or unsubscribe mid-emit (e.g. a probe
    detaching itself when a batch finishes) while another read is
    delivering events at a suspension point; with a shared mutable list
    that is the classic mutated-during-iteration race — skipped or
    double-delivered events.  With copy-on-write, an in-progress emit
    simply finishes against the snapshot it started with (see DESIGN.md
    §3.3).
    """

    def __init__(self) -> None:
        self._subscribers: tuple[Callable[[StageEvent], None], ...] = ()
        self._compile()

    @property
    def subscribers(self) -> tuple[Callable[[StageEvent], None], ...]:
        """The current immutable subscriber tuple, in subscription order.

        Copy-on-write means the tuple object is *replaced* whenever the
        subscription set changes, so a caller may hold it and iterate
        it while subscriptions change underneath.
        """
        return self._subscribers

    @property
    def has_subscribers(self) -> bool:
        """True when at least one subscriber would receive an emit."""
        return bool(self._subscribers)

    def __bool__(self) -> bool:
        return bool(self._subscribers)

    def subscribe(self, subscriber: Callable[[StageEvent], None]) -> None:
        """Register a subscriber; it runs inline on every emit."""
        self._subscribers = self._subscribers + (subscriber,)
        self._compile()

    def unsubscribe(self, subscriber: Callable[[StageEvent], None]) -> None:
        """Remove the first matching subscriber (no-op if absent).

        Matches by equality, not identity — bound methods compare equal
        across accesses even though each access builds a fresh object.
        """
        subscribers = list(self._subscribers)
        if subscriber in subscribers:
            subscribers.remove(subscriber)
            self._subscribers = tuple(subscribers)
            self._compile()

    def _compile(self) -> None:
        """Rebuild the per-stage routes from the subscriber tuple.

        A stage's route lists, in subscription order, every projection
        handler for that stage plus every :data:`ANY_STAGE` handler;
        stages no projection names share the :data:`ANY_STAGE` route.
        Any subscriber that is not a :class:`Projection` makes the bus
        *observed*: it needs real events, so :meth:`publish` falls back
        to building one and delivering it to everyone in order.
        """
        routes: dict[str, tuple[Callable[..., None], ...]] = {}
        every: tuple[Callable[..., None], ...] = ()
        observed = False
        for subscriber in self._subscribers:
            handlers = getattr(subscriber, "stage_handlers", None)
            if handlers is None:
                observed = True
                continue
            for stage, handler in handlers().items():
                if stage == ANY_STAGE:
                    every += (handler,)
                    routes = {
                        name: route + (handler,)
                        for name, route in routes.items()
                    }
                else:
                    routes[stage] = routes.get(stage, every) + (handler,)
        #: Stage → handlers, in subscription order; stages without an
        #: entry take :attr:`every`.
        self.routes = routes
        #: The :data:`ANY_STAGE` handlers.
        self.every = every
        #: True when some subscriber needs real event objects.
        self.observed = observed

    def publish(
        self,
        stage: str,
        outcome: str,
        document_id: "DocumentId | None",
        user_id: "UserId | None",
        started_ms: float,
        ended_ms: float,
        payload: dict[str, Any],
    ) -> None:
        """Deliver one observation: projection handlers called directly,
        or — when a plain subscriber listens — one :class:`StageEvent`
        for every subscriber."""
        if self.observed:
            self.emit(
                StageEvent(
                    stage, outcome, document_id, user_id,
                    started_ms, ended_ms, payload,
                )
            )
            return
        elapsed_ms = ended_ms - started_ms
        for handler in self.routes.get(stage, self.every):
            handler(stage, outcome, elapsed_ms, payload)

    def emit(self, event: StageEvent) -> None:
        """Deliver one event to every subscriber, in subscription order.

        Binds the tuple once: subscriptions changed by a subscriber (or
        by an interleaved read) take effect from the *next* emit.
        """
        for subscriber in self._subscribers:
            subscriber(event)


@dataclass(slots=True)
class StageCell:
    """Aggregate for one (stage, outcome) pair."""

    count: int = 0
    elapsed_ms: float = 0.0

    @property
    def mean_ms(self) -> float:
        """Mean virtual latency per event (0.0 when empty)."""
        return self.elapsed_ms / self.count if self.count else 0.0


class StageRecorder(Projection):
    """Aggregates events into a per-stage outcome + timing breakdown."""

    HANDLERS = {ANY_STAGE: "record"}

    def __init__(self) -> None:
        self.cells: dict[tuple[str, str], StageCell] = {}
        #: The same cells as stage → outcome → cell: found by two
        #: string-keyed lookups, with no key tuple to build and hash.
        self._by_stage: dict[str, dict[str, StageCell]] = {}

    def _cell(self, stage: str, outcome: str) -> StageCell:
        """The (stage, outcome) cell, created empty on first use."""
        try:
            return self._by_stage[stage][outcome]
        except KeyError:
            cell = self.cells[(stage, outcome)] = StageCell()
            self._by_stage.setdefault(stage, {})[outcome] = cell
            return cell

    def record(
        self, stage: str, outcome: str, elapsed_ms: float, payload=None
    ) -> None:
        """Count one (stage, outcome) observation and its virtual time."""
        try:
            cell = self._by_stage[stage][outcome]
        except KeyError:
            cell = self._cell(stage, outcome)
        cell.count += 1
        cell.elapsed_ms += elapsed_ms

    def merge(self, other: "StageRecorder") -> None:
        """Fold another recorder's cells into this one (fleet reporting)."""
        for (stage, outcome), cell in other.cells.items():
            mine = self._cell(stage, outcome)
            mine.count += cell.count
            mine.elapsed_ms += cell.elapsed_ms

    def rows(self) -> list[tuple[str, str, int, float, float]]:
        """(stage, outcome, count, total_ms, mean_ms), canonical order."""
        def order(key: tuple[str, str]) -> tuple[int, str, str]:
            stage, outcome = key
            try:
                rank = STAGE_ORDER.index(stage)
            except ValueError:
                rank = len(STAGE_ORDER)
            return (rank, stage, outcome)

        return [
            (stage, outcome, cell.count, cell.elapsed_ms, cell.mean_ms)
            for (stage, outcome), cell in sorted(
                self.cells.items(), key=lambda item: order(item[0])
            )
        ]

    def render(self, title: str | None = None) -> str:
        """Plain-text breakdown table (for the trace runner and benches)."""
        lines = []
        if title:
            lines.append(title)
        header = (
            f"{'stage':<14} {'outcome':<27} {'count':>7} "
            f"{'total ms':>12} {'mean ms':>10}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for stage, outcome, count, total, mean in self.rows():
            lines.append(
                f"{stage:<14} {outcome:<27} {count:>7} "
                f"{total:>12.2f} {mean:>10.3f}"
            )
        if len(lines) == (2 if not title else 3):
            lines.append("(no events recorded)")
        return "\n".join(lines)


class StatsProjection(Projection):
    """Derives the legacy :class:`CacheStats` counters from stage events.

    One handler per (stage, outcome) family; the mapping below is the
    single place where event vocabulary meets counter names.  Float
    accumulators (latencies, verifier cost, retry delay) are added in
    emission order, which equals the old inline-mutation order — so the
    derived stats are bit-for-bit what the monolith produced.
    """

    #: Read dispositions served from the entry table (everything else a
    #: terminal "read" event reports is a miss).
    _HIT_DISPOSITIONS = frozenset({"hit", "revalidated"})

    HANDLERS = {
        stage: "_on_" + stage.replace("-", "_")
        for stage in (
            "read", "verifier", "quarantine", "bus-loss", "adoption",
            "fetch", "degradation", "admission", "eviction", "invalidation",
            "notifier", "forward", "staleness", "prefetch", "write", "flush",
        )
    }

    def __init__(self, stats: "CacheStats") -> None:
        self.stats = stats

    # -- terminal read accounting -------------------------------------------

    def _on_read(self, stage, outcome, elapsed_ms, payload) -> None:
        stats = self.stats
        if outcome in self._HIT_DISPOSITIONS:
            stats.hits += 1
            stats.hit_latency_ms += elapsed_ms
            stats.bytes_served_from_cache += payload.get("bytes", 0)
        else:
            stats.misses += 1
            stats.miss_latency_ms += elapsed_ms

    # -- read-pipeline stages -------------------------------------------------

    def _on_verifier(self, stage, outcome, elapsed_ms, payload) -> None:
        stats = self.stats
        if outcome == "executed":
            stats.verifier_executions += 1
            stats.verifier_cost_ms += payload["cost_ms"]
        elif outcome == "invalidated":
            stats.verifier_invalidations += 1
        elif outcome == "revalidated":
            stats.verifier_revalidations += 1

    def _on_quarantine(self, stage, outcome, elapsed_ms, payload) -> None:
        if outcome == "added":
            self.stats.quarantined_verifiers += 1
        elif outcome == "forced-miss":
            self.stats.quarantine_forced_misses += 1

    def _on_bus_loss(self, stage, outcome, elapsed_ms, payload) -> None:
        if outcome == "detected":
            self.stats.dropped_notifier_detected += 1

    def _on_adoption(self, stage, outcome, elapsed_ms, payload) -> None:
        if outcome == "adopted":
            self.stats.sibling_adoptions += 1

    def _on_fetch(self, stage, outcome, elapsed_ms, payload) -> None:
        stats = self.stats
        if outcome == "failed":
            stats.fetch_failures += 1
        elif outcome == "retry":
            stats.retries += 1
            stats.retry_delay_ms += payload["delay_ms"]

    def _on_degradation(self, stage, outcome, elapsed_ms, payload) -> None:
        stats = self.stats
        if outcome == "bypassed":
            stats.backing_bypasses += 1
            stats.degraded_serves += 1
        elif outcome == "stale-served":
            stats.stale_served_on_error += 1
            stats.degraded_serves += 1
        elif outcome == "stale-rejected":
            stats.stale_serve_rejected += 1

    def _on_admission(self, stage, outcome, elapsed_ms, payload) -> None:
        if outcome == "filled":
            self.stats.bytes_filled += payload["bytes"]
        elif outcome == "uncacheable":
            self.stats.uncacheable_reads += 1

    def _on_eviction(self, stage, outcome, elapsed_ms, payload) -> None:
        if outcome == "evicted":
            self.stats.evictions += 1

    def _on_invalidation(self, stage, outcome, elapsed_ms, payload) -> None:
        self.stats.record_invalidation(payload["reason"])

    def _on_notifier(self, stage, outcome, elapsed_ms, payload) -> None:
        if outcome == "delivered":
            self.stats.notifier_deliveries += 1

    def _on_forward(self, stage, outcome, elapsed_ms, payload) -> None:
        if outcome == "read":
            self.stats.forwarded_reads += 1
        elif outcome == "write":
            self.stats.forwarded_writes += 1

    def _on_staleness(self, stage, outcome, elapsed_ms, payload) -> None:
        if outcome == "stale-hit":
            self.stats.stale_hits += 1

    def _on_prefetch(self, stage, outcome, elapsed_ms, payload) -> None:
        if outcome == "requested":
            self.stats.prefetch_requests += 1
        elif outcome == "filled":
            self.stats.prefetch_fills += 1
        elif outcome == "hit":
            self.stats.prefetched_hits += 1

    # -- write-pipeline stages -------------------------------------------------

    def _on_write(self, stage, outcome, elapsed_ms, payload) -> None:
        if outcome == "write-through":
            self.stats.writes_through += 1
        elif outcome == "write-back":
            self.stats.writes_backed += 1

    def _on_flush(self, stage, outcome, elapsed_ms, payload) -> None:
        if outcome == "flushed":
            self.stats.flushes += 1
        elif outcome == "failed":
            self.stats.flush_failures += 1


@dataclass(slots=True)
class ConcurrencyStats:
    """Counters for the single-flight coalescing plane.

    ``flights_led`` counts reads that registered a flight (one fetch +
    one chain execution each); ``follows`` counts suspensions on
    another read's flight — each one is a provider fetch and a chain
    execution that did *not* happen.  ``promotions`` counts followers
    that woke from a failed leader and led their own fetch;
    ``bailed_contained`` / ``bailed_capacity`` count misses that
    declined to coalesce (open breaker on the chain / follower budget
    exhausted) and fetched for themselves.
    """

    flights_led: int = 0
    follows: int = 0
    promotions: int = 0
    bailed_contained: int = 0
    bailed_capacity: int = 0

    @property
    def fetches_saved(self) -> int:
        """Provider fetches avoided by coalescing (follows that never
        re-led: a promotion re-runs the fetch it was spared)."""
        return max(0, self.follows - self.promotions)


class ConcurrencyStatsProjection(Projection):
    """Derives :class:`ConcurrencyStats` from ``coalesce`` events."""

    HANDLERS = {"coalesce": "_on_coalesce"}
    _COUNTERS = {
        "led": "flights_led",
        "followed": "follows",
        "promoted": "promotions",
        "bailed-contained": "bailed_contained",
        "bailed-capacity": "bailed_capacity",
    }

    def __init__(self) -> None:
        self.stats = ConcurrencyStats()

    def _on_coalesce(self, stage, outcome, elapsed_ms, payload) -> None:
        name = self._COUNTERS.get(outcome)
        if name is not None:
            setattr(self.stats, name, getattr(self.stats, name) + 1)


@dataclass(slots=True)
class OverloadStats:
    """Counters for the overload layer (deadlines, shedding, hedging).

    ``admitted`` / ``shed_*`` come from the admission gate at the top
    of the read pipeline; shed counts are split by priority class so
    the defining overload property — BULK sheds before QOS, CRITICAL
    never sheds — is directly assertable.  ``deadline_exceeded`` counts
    reads whose budget ran out *before* the fetch began (they degrade
    via serve-stale or fail, but never start work nobody will wait
    for); ``deadline_late`` counts fetches that finished past their
    deadline — served, because the bytes were already paid for.
    ``deadline_violations`` is the invariant counter the CI gate pins
    at zero: work *started* past an expired deadline, impossible by
    construction of the fetch gate.  Hedge and health counters are fed
    by the cluster layer.
    """

    admitted: int = 0
    shed_bulk: int = 0
    shed_qos: int = 0
    shed_critical: int = 0
    deadline_exceeded: int = 0
    deadline_late: int = 0
    deadline_skips: int = 0
    deadline_violations: int = 0
    hedges_launched: int = 0
    hedges_won: int = 0
    hedges_lost: int = 0
    failovers: int = 0
    recoveries: int = 0

    @property
    def shed(self) -> int:
        """Total reads refused by admission control."""
        return self.shed_bulk + self.shed_qos + self.shed_critical

    def shed_ratio(self) -> float:
        """Fraction of gated reads that were shed (0.0 when idle)."""
        total = self.admitted + self.shed
        return self.shed / total if total else 0.0


class OverloadStatsProjection(Projection):
    """Derives :class:`OverloadStats` from the overload-layer stages."""

    HANDLERS = {
        "overload": "_on_overload",
        "deadline": "_on_counter",
        "hedge": "_on_counter",
        "health": "_on_counter",
    }
    _COUNTERS = {
        ("deadline", "exceeded"): "deadline_exceeded",
        ("deadline", "late"): "deadline_late",
        ("deadline", "skipped"): "deadline_skips",
        ("deadline", "violated"): "deadline_violations",
        ("hedge", "launched"): "hedges_launched",
        ("hedge", "won"): "hedges_won",
        ("hedge", "lost"): "hedges_lost",
        ("health", "failover"): "failovers",
        ("health", "recovered"): "recoveries",
    }
    _SHED_COUNTERS = {"bulk": "shed_bulk", "qos": "shed_qos"}

    def __init__(self) -> None:
        self.stats = OverloadStats()

    def _on_overload(self, stage, outcome, elapsed_ms, payload) -> None:
        stats = self.stats
        if outcome == "admitted":
            stats.admitted += 1
        elif outcome == "shed":
            name = self._SHED_COUNTERS.get(
                payload.get("priority"), "shed_critical"
            )
            setattr(stats, name, getattr(stats, name) + 1)

    def _on_counter(self, stage, outcome, elapsed_ms, payload) -> None:
        name = self._COUNTERS.get((stage, outcome))
        if name is not None:
            setattr(self.stats, name, getattr(self.stats, name) + 1)


class BusStatsProjection(Projection):
    """Derives the invalidation bus's ``BusStats`` from ``bus`` events."""

    HANDLERS = {"bus": "_on_bus"}

    def __init__(self, stats) -> None:
        self.stats = stats

    def _on_bus(self, stage, outcome, elapsed_ms, payload) -> None:
        stats = self.stats
        if outcome == "delivered":
            stats.deliveries += 1
            stats.delivery_cost_ms += payload.get("cost_ms", 0.0)
        elif outcome == "dropped":
            stats.dropped += 1
        elif outcome == "lost":
            stats.lost += 1
        elif outcome == "delayed":
            stats.delayed += 1
            stats.delay_ms_total += payload.get("delay_ms", 0.0)
