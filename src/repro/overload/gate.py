"""The per-cache overload facade the read pipeline consults.

One :class:`OverloadGate` is wired onto each cache core that carries an
:class:`~repro.cache.policies.DefaultOverloadPolicy`.  It owns the cache's
:class:`~repro.overload.admission.AdmissionController` and builds the
:class:`~repro.overload.budget.DeadlineBudget` for each read — from the
chain's QoS access-time target when one is attached (the paper's
"access time < .25 seconds" promise, §3), else the policy default.
"""

from __future__ import annotations

import typing

from repro.overload.admission import AdmissionController, chain_qos
from repro.overload.budget import DeadlineBudget

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cache.policies import DefaultOverloadPolicy
    from repro.overload.admission import AdmissionDecision
    from repro.sim.clock import VirtualClock

__all__ = ["OverloadGate"]


class OverloadGate:
    """Deadline + admission decisions for one cache."""

    def __init__(
        self, clock: "VirtualClock", policy: "DefaultOverloadPolicy"
    ) -> None:
        self.clock = clock
        self.policy = policy
        self.admission: AdmissionController | None = None
        if policy.shedding:
            self.admission = AdmissionController(
                clock,
                rate_per_s=policy.admission_rate_per_s,
                burst=policy.admission_burst,
                queue_limit=policy.queue_limit,
                sojourn_threshold_ms=policy.sojourn_threshold_ms,
            )

    def classify(self, reference) -> tuple[int, float | None]:
        """The read's ``(priority class, deadline ms)`` from one chain walk.

        The deadline is ``None`` when deadlines are off; otherwise the
        policy default, tightened to the chain's QoS access-time target
        when the policy derives deadlines from QoS.
        """
        priority, target_ms = chain_qos(reference)
        policy = self.policy
        if not policy.deadlines:
            return priority, None
        deadline_ms = policy.default_deadline_ms
        if policy.deadline_from_qos:
            deadline_ms = min(deadline_ms, target_ms)
        return priority, deadline_ms

    def budget(
        self, deadline_ms: float | None, enqueued_ms: float | None = None
    ) -> DeadlineBudget | None:
        """Build the read's deadline budget (``None`` = deadlines off).

        ``enqueued_ms`` back-dates the allowance to the read's arrival
        instant so time already spent queueing counts against it.
        """
        if deadline_ms is None:
            return None
        return DeadlineBudget(self.clock, deadline_ms, started_ms=enqueued_ms)

    def admit(
        self, priority: int, enqueued_ms: float | None = None
    ) -> "AdmissionDecision | None":
        """Ask admission for one read; ``None`` when shedding is off."""
        if self.admission is None:
            return None
        return self.admission.admit(priority, enqueued_ms=enqueued_ms)
