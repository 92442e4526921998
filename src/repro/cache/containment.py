"""Containment layer for misbehaving active-property code.

The paper's premise is that cached content is *produced by running
arbitrary property code*: stream transformers interpose on every read
and write (§2) and "verifiers … are executed each time an entry is
retrieved" (§3).  That code is the availability hazard — a single
raising, runaway or corrupt property poisons every access to its
document.  This module contains the blast radius with three mechanisms
wrapped around the three untrusted-code seams (stream wrappers, verifier
execution, notifier callbacks):

* per-(document, code-site) **circuit breakers** with the full
  closed → open → half-open probation state machine, driven by the
  virtual clock — repeated failures stop the code from running at all,
  a probation delay later one probe is let through, and enough
  consecutive probe successes close the circuit again;
* per-invocation **execution budgets** — virtual-ms and byte caps that
  abort runaway property code with
  :class:`~repro.errors.BudgetExceededError`;
* **exception firewalls** — raises from property code are caught at the
  seam, recorded against the breaker, and converted into a policy-chosen
  fallback instead of propagating to the application.

On a tripped breaker the fallback depends on the property's *role*:
an optional transformer (``transforms_reads`` False) is skipped and the
base-document content served with a ``degraded`` marker; a required
transformer forces the access to miss to the kernel (the untransformed
result is never admitted); or the policy may *deny* with a typed
:class:`~repro.errors.CircuitOpenError`.

Everything here is **off by default**: a cache constructed without a
``containment_policy`` never builds a guard and behaves byte-identically
to the uncontained pipeline (the golden-digest equivalence tests pin
this).  New counters live in :class:`ContainmentStats`, projected from
``containment`` stage events — :class:`~repro.cache.stats.CacheStats`
gains no fields.
"""

from __future__ import annotations

import enum
import typing
from dataclasses import dataclass, fields
from typing import Any, Callable

from repro.cache.instrumentation import InstrumentationBus, Projection
from repro.errors import (
    BudgetExceededError,
    CacheError,
    CircuitOpenError,
    ContainmentError,
)
from repro.streams import chain as chains
from repro.streams.base import InputStream, OutputStream

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cache.entry import CacheEntry
    from repro.cache.policies import DefaultContainmentPolicy
    from repro.placeless.document import PathMeta
    from repro.placeless.properties import ActiveProperty
    from repro.sim.context import SimContext

__all__ = [
    "BreakerState",
    "BreakerConfig",
    "CircuitBreaker",
    "BreakerRegistry",
    "ExecutionBudget",
    "ContainmentStats",
    "ContainmentStatsProjection",
    "ContainmentGuard",
]

#: A breaker is keyed by (document id, code-site label); site labels are
#: ``stream:<property name>``, the verifier type name (matching the
#: legacy quarantine key shape), or ``notifier:<property name>``.
BreakerKey = tuple[Any, str]


class BreakerState(enum.Enum):
    """Where a circuit breaker is in its state machine."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerConfig:
    """Tuning for one family of circuit breakers.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures that trip a closed breaker open.
    probation_delay_ms:
        Virtual time an open breaker waits before admitting a half-open
        probe.  ``None`` means *no probation*: the breaker stays open
        until explicitly reset — exactly the legacy permanent verifier
        quarantine, re-expressed.
    half_open_successes:
        Consecutive successful probes required to close again.
    """

    failure_threshold: int = 3
    probation_delay_ms: float | None = 1_000.0
    half_open_successes: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise CacheError(
                f"failure_threshold must be >= 1: {self.failure_threshold}"
            )
        if self.probation_delay_ms is not None and self.probation_delay_ms < 0:
            raise CacheError(
                "probation_delay_ms must be non-negative: "
                f"{self.probation_delay_ms}"
            )
        if self.half_open_successes < 1:
            raise CacheError(
                f"half_open_successes must be >= 1: {self.half_open_successes}"
            )


class CircuitBreaker:
    """One (document, code-site) breaker: closed → open → half-open.

    All timing is virtual-clock milliseconds supplied by the caller, so
    the machine is deterministic and usable both with a clock (the
    containment guard) and without one (the quarantine re-expression,
    which never probes).
    """

    def __init__(self, config: BreakerConfig) -> None:
        self.config = config
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.probe_successes = 0
        self.opened_at_ms = 0.0

    def allow(self, now_ms: float) -> bool:
        """May the guarded code run right now?

        An open breaker whose probation delay has elapsed transitions to
        half-open and admits the caller as its probe.
        """
        if self.state is BreakerState.OPEN:
            delay = self.config.probation_delay_ms
            if delay is None or now_ms - self.opened_at_ms < delay:
                return False
            self.state = BreakerState.HALF_OPEN
            self.probe_successes = 0
        return True

    def record_success(self, now_ms: float = 0.0) -> bool:
        """The guarded code completed cleanly; True when this closes."""
        if self.state is BreakerState.CLOSED:
            self.consecutive_failures = 0
            return False
        if self.state is BreakerState.HALF_OPEN:
            self.probe_successes += 1
            if self.probe_successes >= self.config.half_open_successes:
                self.state = BreakerState.CLOSED
                self.consecutive_failures = 0
                self.probe_successes = 0
                return True
        # A success observed while OPEN (e.g. a stream admitted before
        # the trip finishing cleanly) never closes the circuit.
        return False

    def record_failure(self, now_ms: float = 0.0) -> bool:
        """The guarded code failed; True when this (re)opens the circuit."""
        if self.state is BreakerState.HALF_OPEN:
            self.state = BreakerState.OPEN
            self.opened_at_ms = now_ms
            self.probe_successes = 0
            return True
        if self.state is BreakerState.CLOSED:
            self.consecutive_failures += 1
            if self.consecutive_failures >= self.config.failure_threshold:
                self.state = BreakerState.OPEN
                self.opened_at_ms = now_ms
                return True
        return False


class BreakerRegistry:
    """Lazily-created breakers, one per (document, code-site) key."""

    def __init__(self, config: BreakerConfig) -> None:
        self.config = config
        self._breakers: dict[BreakerKey, CircuitBreaker] = {}

    def get(self, key: BreakerKey) -> CircuitBreaker:
        """The breaker for *key*, created (closed) on first use."""
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = self._breakers[key] = CircuitBreaker(self.config)
        return breaker

    def peek(self, key: BreakerKey) -> CircuitBreaker | None:
        """The breaker for *key* if one exists, without creating it."""
        return self._breakers.get(key)

    def open_keys(self) -> set[BreakerKey]:
        """Keys whose breaker is currently open (probation not reached)."""
        return {
            key
            for key, breaker in self._breakers.items()
            if breaker.state is BreakerState.OPEN
        }

    def reset_all(self) -> int:
        """Forget every breaker; returns how many were open."""
        opened = len(self.open_keys())
        self._breakers.clear()
        return opened

    def __len__(self) -> int:
        return len(self._breakers)


@dataclass(frozen=True)
class ExecutionBudget:
    """Per-invocation caps on property code: virtual-ms and bytes.

    ``None`` disables the corresponding cap.  The cost cap is checked
    before the invocation runs (declared/injected cost versus cap); the
    byte cap is enforced mid-stream by a counting wrapper.
    """

    max_cost_ms: float | None = None
    max_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.max_cost_ms is not None and self.max_cost_ms <= 0:
            raise CacheError(
                f"max_cost_ms must be positive: {self.max_cost_ms}"
            )
        if self.max_bytes is not None and self.max_bytes <= 0:
            raise CacheError(f"max_bytes must be positive: {self.max_bytes}")

    def check_cost(self, cost_ms: float, site: str) -> None:
        """Raise :class:`BudgetExceededError` when *cost_ms* busts the cap."""
        if self.max_cost_ms is not None and cost_ms > self.max_cost_ms:
            raise BudgetExceededError(
                f"{site}: invocation cost {cost_ms:.1f} ms exceeds "
                f"budget {self.max_cost_ms:.1f} ms"
            )


@dataclass
class ContainmentStats:
    """Counters for the containment layer, projected from stage events.

    Deliberately separate from :class:`~repro.cache.stats.CacheStats`,
    which must not change shape while containment is off by default.
    """

    #: Property raises caught by an exception firewall (and converted
    #: into a fallback instead of reaching the application).
    failures_contained: int = 0
    #: Invocations aborted by an execution budget (ms or byte cap).
    budget_overruns: int = 0
    #: Failures that escaped mid-stream (recorded, but the access fails).
    escapes: int = 0
    #: Breakers newly tripped open from closed.
    trips: int = 0
    #: Half-open probes that failed and re-opened the circuit.
    reopens: int = 0
    #: Breakers that closed again after probation.
    closes: int = 0
    #: Half-open probes admitted through an open circuit.
    probes: int = 0
    #: Optional transformers skipped (served degraded).
    optional_skips: int = 0
    #: Accesses forced to miss to the kernel (required transformer or
    #: verifier-gate breaker open).
    forced_misses: int = 0
    #: Accesses denied with a typed error.
    denials: int = 0
    #: Notifier callbacks suppressed while their breaker was open.
    notifier_suppressed: int = 0

    @property
    def total(self) -> int:
        """Every containment action taken."""
        return sum(getattr(self, f.name) for f in fields(self))


class ContainmentStatsProjection(Projection):
    """Derives :class:`ContainmentStats` from ``containment`` events."""

    HANDLERS = {"containment": "_on_containment"}
    _COUNTERS = {
        "contained": "failures_contained",
        "budget-exceeded": "budget_overruns",
        "escaped": "escapes",
        "tripped": "trips",
        "reopened": "reopens",
        "closed": "closes",
        "probe": "probes",
        "skipped": "optional_skips",
        "forced-miss": "forced_misses",
        "denied": "denials",
        "suppressed": "notifier_suppressed",
    }

    def __init__(self, stats: ContainmentStats) -> None:
        self.stats = stats

    def _on_containment(self, stage, outcome, elapsed_ms, payload) -> None:
        name = self._COUNTERS.get(outcome)
        if name is not None:
            setattr(self.stats, name, getattr(self.stats, name) + 1)


class ContainmentGuard:
    """Coordinates breakers, budgets and firewalls across the three seams.

    One guard per cache, built from a
    :class:`~repro.cache.policies.DefaultContainmentPolicy` and attached
    to both the cache core (verifier/notifier seams) and the simulation
    context (stream-wrapper seam, consulted by
    :mod:`repro.streams.chain`).
    """

    def __init__(
        self,
        policy: "DefaultContainmentPolicy",
        ctx: "SimContext",
        instrumentation: InstrumentationBus,
    ) -> None:
        self.policy = policy
        self.ctx = ctx
        self.instrumentation = instrumentation
        config = policy.breaker_config()
        self.wrappers = BreakerRegistry(config)
        self.verifiers = BreakerRegistry(config)
        self.notifiers = BreakerRegistry(config)
        #: Per-invocation caps, or ``None`` when the policy sets none.
        self.budget = policy.execution_budget()
        self.stats = ContainmentStats()
        instrumentation.subscribe(ContainmentStatsProjection(self.stats))

    # -- event + breaker bookkeeping -------------------------------------------

    def _emit(
        self, outcome: str, document_id: Any, site: str, **payload: Any
    ) -> None:
        now = self.ctx.clock.now_ms
        self.instrumentation.publish(
            "containment", outcome, document_id, None, now, now,
            {"site": site, **payload},
        )

    def _allow(self, registry: BreakerRegistry, key: BreakerKey) -> bool:
        breaker = registry.get(key)
        was_open = breaker.state is BreakerState.OPEN
        allowed = breaker.allow(self.ctx.clock.now_ms)
        if allowed and was_open:
            self._emit("probe", key[0], key[1])
        return allowed

    def _failure(self, registry: BreakerRegistry, key: BreakerKey) -> None:
        breaker = registry.get(key)
        was_half_open = breaker.state is BreakerState.HALF_OPEN
        if breaker.record_failure(self.ctx.clock.now_ms):
            self._emit("reopened" if was_half_open else "tripped", *key)

    def _success(self, registry: BreakerRegistry, key: BreakerKey) -> None:
        if registry.get(key).record_success(self.ctx.clock.now_ms):
            self._emit("closed", *key)

    # -- stream-wrapper seam ---------------------------------------------------

    def wrap_input(
        self,
        prop: "ActiveProperty",
        stream: InputStream,
        event: Any,
        meta: "PathMeta",
    ) -> InputStream:
        """Firewalled equivalent of absorb + ``prop.wrap_input``."""
        ctx = self.ctx
        if getattr(prop, "is_infrastructure", False):
            meta.absorb_property(ctx, prop)
            return prop.wrap_input(stream, event)
        site = chains.property_site(prop)
        key: BreakerKey = (event.document_id, site)
        role = self._role(prop)
        if not self._allow(self.wrappers, key):
            return self._fallback_input(key, role, stream, meta, cause=None)
        plan = ctx.faults
        mode = plan.check_property(site) if plan is not None else None
        cost = prop.execution_cost_ms
        if mode == "runaway" and plan is not None:
            cost += plan.property_runaway_cost_ms
        overrun = self._check_budget(key, cost)
        if overrun is not None:
            return self._fallback_input(key, role, stream, meta, cause=overrun)
        try:
            meta.absorb_property(ctx, prop)
            if mode == "runaway" and plan is not None:
                ctx.charge(plan.property_runaway_cost_ms)
            if mode == "raise":
                raise chains.injected_property_error(prop)
            wrapped = prop.wrap_input(stream, event)
        except ContainmentError:
            raise
        except Exception as error:
            self._emit("contained", *key, error=type(error).__name__)
            self._failure(self.wrappers, key)
            return self._fallback_input(key, role, stream, meta, cause=error)
        if mode == "corrupt":
            wrapped = chains.CorruptingInputStream(wrapped, site)
        budget = self.budget
        if budget is not None and budget.max_bytes is not None:
            wrapped = chains.ByteCapInputStream(wrapped, budget.max_bytes, site)
        return chains.FirewallInputStream(
            wrapped,
            on_failure=lambda error: self._stream_failure(key, error),
            on_success=lambda: self._success(self.wrappers, key),
        )

    def wrap_output(
        self, prop: "ActiveProperty", stream: OutputStream, event: Any
    ) -> OutputStream:
        """Firewalled equivalent of charge + ``prop.wrap_output``."""
        ctx = self.ctx
        if getattr(prop, "is_infrastructure", False):
            ctx.charge(prop.execution_cost_ms)
            return prop.wrap_output(stream, event)
        site = chains.property_site(prop)
        key: BreakerKey = (event.document_id, site)
        role = self._role(prop)
        if not self._allow(self.wrappers, key):
            return self._fallback_output(key, role, stream, cause=None)
        plan = ctx.faults
        mode = plan.check_property(site) if plan is not None else None
        cost = prop.execution_cost_ms
        if mode == "runaway" and plan is not None:
            cost += plan.property_runaway_cost_ms
        overrun = self._check_budget(key, cost)
        if overrun is not None:
            return self._fallback_output(key, role, stream, cause=overrun)
        try:
            ctx.charge(prop.execution_cost_ms)
            if mode == "runaway" and plan is not None:
                ctx.charge(plan.property_runaway_cost_ms)
            if mode == "raise":
                raise chains.injected_property_error(prop)
            wrapped = prop.wrap_output(stream, event)
        except ContainmentError:
            raise
        except Exception as error:
            self._emit("contained", *key, error=type(error).__name__)
            self._failure(self.wrappers, key)
            return self._fallback_output(key, role, stream, cause=error)
        if mode == "corrupt":
            wrapped = chains.CorruptingOutputStream(wrapped, site)
        return chains.FirewallOutputStream(
            wrapped,
            on_failure=lambda error: self._stream_failure(key, error),
            on_success=lambda: self._success(self.wrappers, key),
        )

    def _role(self, prop: "ActiveProperty") -> str:
        return (
            "required"
            if getattr(prop, "transforms_reads", False)
            else "optional"
        )

    def _check_budget(
        self, key: BreakerKey, cost_ms: float
    ) -> BudgetExceededError | None:
        """Pre-invocation cost-cap check; charges the capped time on abort."""
        budget = self.budget
        if budget is None:
            return None
        try:
            budget.check_cost(cost_ms, key[1])
        except BudgetExceededError as error:
            # The runaway code ran until the budget killed it: the cap,
            # not the full runaway cost, is what the access pays.
            self.ctx.charge(budget.max_cost_ms or 0.0)
            self._emit("budget-exceeded", *key, cost_ms=cost_ms)
            self._failure(self.wrappers, key)
            return error
        return None

    def _stream_failure(self, key: BreakerKey, error: BaseException) -> None:
        if isinstance(error, BudgetExceededError):
            self._emit("budget-exceeded", *key, error=type(error).__name__)
        else:
            self._emit("escaped", *key, error=type(error).__name__)
        self._failure(self.wrappers, key)

    def _fallback_input(
        self,
        key: BreakerKey,
        role: str,
        stream: InputStream,
        meta: "PathMeta",
        cause: BaseException | None,
    ) -> InputStream:
        decision = self.policy.fallback(role)
        if decision == "deny":
            self._emit("denied", *key)
            raise CircuitOpenError(
                f"containment denied {key[1]} for document {key[0]}"
            ) from cause
        if decision == "force-miss":
            meta.contained_required += 1
            self._emit("forced-miss", *key, seam="wrapper")
        else:
            meta.contained_skips += 1
            self._emit("skipped", *key)
        return stream

    def _fallback_output(
        self,
        key: BreakerKey,
        role: str,
        stream: OutputStream,
        cause: BaseException | None,
    ) -> OutputStream:
        # Writes have no degraded-serve option: skipping a *required*
        # transformer on the write path would store wrong bytes, so only
        # optional properties may be skipped; everything else denies.
        if self.policy.fallback(role) == "skip":
            self._emit("skipped", *key)
            return stream
        self._emit("denied", *key)
        raise CircuitOpenError(
            f"containment denied {key[1]} for document {key[0]} (write)"
        ) from cause

    def chain_blocked(
        self, document_id: Any, chain: "typing.Iterable[ActiveProperty]"
    ) -> bool:
        """True when any *chain* property's wrapper breaker is open.

        Peeks rather than gets: a memo consult or a flight-table probe
        must neither create breakers nor consume half-open probe slots —
        probing is the fetch path's job.
        """
        for prop in chain:
            breaker = self.wrappers.peek(
                (document_id, chains.property_site(prop))
            )
            if breaker is not None and breaker.state is BreakerState.OPEN:
                return True
        return False

    # -- verifier seam ---------------------------------------------------------

    def verifier_key(
        self, entry: "CacheEntry", verifier: Any
    ) -> BreakerKey:
        """Same key shape as the legacy quarantine's fault key."""
        return (entry.document_id, type(verifier).__name__)

    def verifier_blocked(self, entry: "CacheEntry") -> bool:
        """Is any of the entry's verifiers behind an open breaker?

        A blocked verifier forces the access to miss to the kernel —
        the breaker-shaped successor of the quarantine's forced miss.
        An open breaker past its probation admits the caller as a probe
        instead of blocking.
        """
        blocked = False
        for verifier in entry.verifiers:
            if not self._allow(
                self.verifiers, self.verifier_key(entry, verifier)
            ):
                blocked = True
        if blocked:
            self._emit(
                "forced-miss", entry.document_id, "verifier-gate",
                seam="verifier",
            )
        return blocked

    def check_verifier_budget(
        self, entry: "CacheEntry", verifier: Any
    ) -> None:
        """Budget gate before a verifier runs; raises on overrun."""
        budget = self.budget
        if budget is None:
            return
        key = self.verifier_key(entry, verifier)
        try:
            budget.check_cost(verifier.cost_ms, key[1])
        except BudgetExceededError:
            self._emit("budget-exceeded", *key, cost_ms=verifier.cost_ms)
            raise

    def note_verifier_failure(
        self, entry: "CacheEntry", verifier: Any
    ) -> None:
        self._failure(self.verifiers, self.verifier_key(entry, verifier))

    def note_verifier_success(
        self, entry: "CacheEntry", verifier: Any
    ) -> None:
        self._success(self.verifiers, self.verifier_key(entry, verifier))

    # -- notifier seam ---------------------------------------------------------

    def run_notifier(
        self,
        prop: Any,
        event: Any,
        call: Callable[[Any], Any],
    ) -> Any:
        """Run a notifier callback behind its breaker + firewall.

        A raising notifier is contained (the dispatch continues to other
        handlers); while its breaker is open the callback is suppressed
        entirely — mirroring how a crashed notifier simply misses events.
        """
        document_id = getattr(event, "document_id", None)
        key: BreakerKey = (document_id, f"notifier:{prop.name}")
        if not self._allow(self.notifiers, key):
            self._emit("suppressed", *key)
            return None
        try:
            result = call(event)
        except Exception as error:
            self._emit("contained", *key, error=type(error).__name__)
            self._failure(self.notifiers, key)
            return None
        self._success(self.notifiers, key)
        return result

    # -- introspection / reset -------------------------------------------------

    def open_sites(self) -> dict[str, set[BreakerKey]]:
        """Currently-open breakers per seam (for benches and bridges)."""
        return {
            "wrapper": self.wrappers.open_keys(),
            "verifier": self.verifiers.open_keys(),
            "notifier": self.notifiers.open_keys(),
        }

    def reset(self) -> int:
        """Forget every breaker across all seams; returns open count."""
        return (
            self.wrappers.reset_all()
            + self.verifiers.reset_all()
            + self.notifiers.reset_all()
        )
