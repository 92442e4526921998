"""A15: transform memoization — chain executions avoided, miss latency.

§3's signature sharing covers users with *live* identical entries; the
transform memo extends it across time: ``(source signature, chain
fingerprint) → output signature``, so the second user's cold miss
becomes a signature adoption instead of a provider fetch plus a full
active-property chain execution.  This bench sweeps the user count with
the memo on and off over a corpus whose base documents carry a shared
(expensive, buffered) translation chain, and reports:

* chain executions (kernel reads — each one runs the full chain) and
  the fraction the memo avoided (ideal for N users: ``1 - 1/N``);
* cold-read virtual latency mean/p50/p99 — memoized misses skip the
  repository hop and the chain's execution cost;
* the per-emit instrumentation overhead note for the satellite fast
  path (an unobserved bus skips ``StageEvent`` construction entirely).

The run writes ``BENCH_A15.json`` through the shared artifact writer;
CI's perf-smoke job fails the build when the shared-users scenario
avoids zero chain executions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.bench.harness import format_table, mean, percentile, write_artifact
from repro.cache.instrumentation import (
    InstrumentationBus,
    StageEvent,
    StageRecorder,
)
from repro.cache.manager import DocumentCache
from repro.cache.policies import DefaultMemoPolicy
from repro.placeless.kernel import PlacelessKernel
from repro.properties.translate import TranslationProperty
from repro.workload.documents import CorpusSpec, build_corpus
from repro.workload.users import build_population

__all__ = ["MemoResult", "run_memo", "run_sweep", "run_overhead_probe", "main"]

_SEED = 31


@dataclass
class MemoResult:
    """Metrics of one (user count, memo on/off) cold-read run."""

    n_users: int
    n_documents: int
    memo: bool
    reads: int
    chain_executions: int
    mean_ms: float
    p50_ms: float
    p99_ms: float
    memo_adoptions: int

    @property
    def chain_executions_avoided(self) -> int:
        """Chain runs the memo saved versus one-per-read."""
        return self.reads - self.chain_executions

    @property
    def avoided_pct(self) -> float:
        """Fraction of reads that skipped the chain (0.0 when empty)."""
        if not self.reads:
            return 0.0
        return self.chain_executions_avoided / self.reads


def run_memo(
    n_users: int,
    memo: bool,
    n_documents: int = 8,
    seed: int = _SEED,
) -> MemoResult:
    """Cold-read every (user, document) pair once, memo on or off.

    Every base document carries the same translation chain, so all
    users' reads share one (source signature, chain fingerprint) pair
    per document — the memo's best case, and the workload §3 describes
    ("all the transformations requested by the users are the same").
    """
    kernel = PlacelessKernel()
    owner = kernel.create_user("owner")
    corpus = build_corpus(
        kernel,
        owner,
        CorpusSpec(n_documents=n_documents, ttl_ms=3_600_000.0, seed=seed),
    )
    for document in corpus:
        document.reference.base.attach(TranslationProperty())
    population = build_population(
        kernel, corpus, n_users, personalized_fraction=0.0, seed=seed
    )
    cache = DocumentCache(
        kernel,
        capacity_bytes=1 << 30,
        memo_policy=DefaultMemoPolicy() if memo else None,
        name=f"a15-{n_users}-{'on' if memo else 'off'}",
    )
    reads_before = kernel.stats.reads
    latencies = []
    for user_index in range(n_users):
        for document_index in range(n_documents):
            outcome = cache.read(
                population.reference(user_index, document_index)
            )
            latencies.append(outcome.elapsed_ms)
    stats = cache.memo_stats
    return MemoResult(
        n_users=n_users,
        n_documents=n_documents,
        memo=memo,
        reads=len(latencies),
        chain_executions=kernel.stats.reads - reads_before,
        mean_ms=mean(latencies),
        p50_ms=percentile(latencies, 50),
        p99_ms=percentile(latencies, 99),
        memo_adoptions=stats.adoptions if stats is not None else 0,
    )


def run_sweep(
    user_counts: tuple[int, ...] = (1, 2, 4, 8, 16),
    n_documents: int = 8,
    seed: int = _SEED,
) -> list[MemoResult]:
    """The A15 sweep: every user count, memo off then on."""
    results = []
    for n_users in user_counts:
        for memo in (False, True):
            results.append(
                run_memo(n_users, memo, n_documents=n_documents, seed=seed)
            )
    return results


def run_overhead_probe(iterations: int = 100_000) -> dict[str, float]:
    """Wall-clock per-observation cost of the instrumentation bus.

    Mirrors :meth:`CacheCore.publish`'s two deliveries: with only
    projections subscribed (the wired default) an observation is folded
    straight into their counters through the bus's per-stage route; once
    a plain subscriber listens, a (slotted) :class:`StageEvent` is built
    and fanned out to every subscriber.  This is the one real-time
    measurement in the suite — it characterises simulator overhead, not
    virtual-clock behaviour, so it never touches the simulation results.
    """
    payload = {"bytes": 0}

    def timed_publishes(bus: InstrumentationBus) -> float:
        publish = bus.publish
        started = time.perf_counter()
        for _ in range(iterations):
            publish("read", "hit", None, None, 0.0, 0.0, payload)
        return time.perf_counter() - started

    direct_bus = InstrumentationBus()
    direct_bus.subscribe(StageRecorder())
    direct_s = timed_publishes(direct_bus)

    observed_bus = InstrumentationBus()
    observed_bus.subscribe(StageRecorder())
    sink: list[StageEvent] = []
    observed_bus.subscribe(sink.append)
    observed_s = timed_publishes(observed_bus)
    sink.clear()
    return {
        "emits": float(iterations),
        "unobserved_ns_per_emit": direct_s / iterations * 1e9,
        "subscribed_ns_per_emit": observed_s / iterations * 1e9,
    }


def main(smoke: bool = False) -> None:
    """Print the A15 tables and write ``BENCH_A15.json``."""
    if smoke:
        user_counts: tuple[int, ...] = (1, 4)
        n_documents = 4
    else:
        user_counts = (1, 2, 4, 8, 16)
        n_documents = 8
    results = run_sweep(user_counts=user_counts, n_documents=n_documents)
    print(
        format_table(
            [
                "users", "memo", "reads", "chain execs", "avoided",
                "avoided %", "mean ms", "p50 ms", "p99 ms",
            ],
            [
                (
                    r.n_users,
                    r.memo,
                    r.reads,
                    r.chain_executions,
                    r.chain_executions_avoided,
                    f"{r.avoided_pct:.1%}",
                    r.mean_ms,
                    r.p50_ms,
                    r.p99_ms,
                )
                for r in results
            ],
            title=(
                "A15. Transform memoization: cold reads, every user "
                f"sharing one translation chain ({n_documents} "
                "documents; memo ideal avoided = 1 - 1/users)"
            ),
        )
    )
    overhead = run_overhead_probe()
    print(
        "\nInstrumentation bus (wall clock, "
        f"{overhead['emits']:.0f} emits): "
        f"{overhead['unobserved_ns_per_emit']:.0f} ns/emit unobserved vs "
        f"{overhead['subscribed_ns_per_emit']:.0f} ns/emit subscribed — "
        "projections alone take each observation without a StageEvent."
    )
    shared = max(
        (r for r in results if r.memo), key=lambda r: r.n_users
    )
    baseline = next(
        r for r in results
        if not r.memo and r.n_users == shared.n_users
    )
    metrics = {
        "sweep": [
            {
                "n_users": r.n_users,
                "n_documents": r.n_documents,
                "memo": r.memo,
                "reads": r.reads,
                "chain_executions": r.chain_executions,
                "chain_executions_avoided": r.chain_executions_avoided,
                "avoided_pct": r.avoided_pct,
                "mean_ms": r.mean_ms,
                "p50_ms": r.p50_ms,
                "p99_ms": r.p99_ms,
            }
            for r in results
        ],
        "shared": {
            "n_users": shared.n_users,
            "reads": shared.reads,
            "chain_executions": shared.chain_executions,
            "chain_executions_avoided": shared.chain_executions_avoided,
            "avoided_pct": shared.avoided_pct,
            "mean_ms_memo_on": shared.mean_ms,
            "mean_ms_memo_off": baseline.mean_ms,
        },
        "overhead": overhead,
        "smoke": smoke,
    }
    path = write_artifact("a15", metrics, seed=_SEED)
    print(f"\nwrote {path.name}")


if __name__ == "__main__":
    main()
