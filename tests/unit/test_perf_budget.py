"""Per-read allocation budgets on the read pipeline's hit path.

The A20 hot-path work turned steady-state hits into a near-allocation-
free loop: interned keys, memoized signatures, ``__slots__`` contexts,
O(1) stat accumulation.  These tests pin the budgets so a regression
(say, a new per-read dict or closure on the hit path) fails loudly in
tier 1 rather than showing up later as a throughput drop in A20.

The probe counts *net* heap blocks per read with the collector
disabled, after a warmup that populates every cache and memo the
steady state relies on.  There is one read path, so the budgets differ
only by configuration: every optional seam off, and the production-like
mix with memo, containment, overload gate and durable L2 on.  Each
configuration is probed twice: over a chainless corpus, and over
references that carry real read chains (personal translate and
spellcheck+translate chains, and a base-level translation), whose
chains every hit resolves through the chain memo.
"""

from __future__ import annotations

import itertools

from repro.bench.perf import allocation_probe, peak_rss_kb, timed
from repro.cache.manager import DocumentCache
from repro.cache.policies import (
    DefaultContainmentPolicy,
    DefaultMemoPolicy,
    DefaultOverloadPolicy,
    DefaultStoragePolicy,
)
from repro.placeless.kernel import PlacelessKernel
from repro.properties.translate import TranslationProperty
from repro.workload.documents import CorpusSpec, build_corpus
from repro.workload.users import CHAIN_FACTORIES

#: Net heap blocks allowed per steady-state hit with every seam off.  A
#: hit measured 2.4 blocks when this was set; the ~17x headroom absorbs
#: interpreter-version noise without letting a stray per-read
#: allocation site slip in.
HIT_ALLOCATION_BUDGET = 40.0
#: The same budget with memo, containment, overload gate and L2 on: a
#: hit measured 2.4 blocks there too, with the same ~17x headroom.
SEAMS_HIT_ALLOCATION_BUDGET = 41.0


SEAMS = dict(
    memo_policy=DefaultMemoPolicy(),
    containment_policy=DefaultContainmentPolicy(),
    overload_policy=DefaultOverloadPolicy(),
)


def _corpus():
    kernel = PlacelessKernel()
    owner = kernel.create_user("owner")
    corpus = build_corpus(kernel, owner, CorpusSpec(n_documents=16, seed=13))
    return kernel, corpus


def _chainless_references():
    kernel, corpus = _corpus()
    return kernel, [document.reference for document in corpus]


def _chained_references():
    """Two users' references, every one with a non-empty read chain."""
    kernel, corpus = _corpus()
    users = [kernel.create_user(f"user-{index}") for index in range(2)]
    references = []
    for index, document in enumerate(corpus):
        base = document.reference.base
        universal = index % 4 == 0
        if universal:
            base.attach(TranslationProperty())
        for user, chain in zip(users, ("translate", "spellcheck+translate")):
            reference = kernel.space(user).add_reference(base)
            if not universal:
                for prop in CHAIN_FACTORIES[chain]():
                    reference.attach(prop)
            references.append(reference)
    return kernel, references


def _warm_cache(world, **seams):
    kernel, references = world()
    cache = DocumentCache(kernel, capacity_bytes=1 << 28, **seams)
    for reference in references:
        cache.read(reference)
    return cache, references


def _assert_hits_within(
    cache, references, budget: float, think_ms: float = 0.0
):
    cycle = itertools.cycle(references)
    clock = cache.ctx.clock

    def one_hit() -> None:
        clock.advance(think_ms)
        cache.read(next(cycle))

    misses_before = cache.stats.misses
    blocks = allocation_probe(one_hit, iterations=256, warmup=64)
    assert cache.stats.misses == misses_before  # the loop measured hits
    assert blocks <= budget, (
        f"hit allocates {blocks:.1f} blocks/read (budget {budget})"
    )


def _assert_seams_hits_within(world, tmp_path) -> None:
    cache, references = _warm_cache(
        world,
        storage_policy=DefaultStoragePolicy(directory=tmp_path),
        **SEAMS,
    )
    # A 10 ms think time keeps the reads under the admission rate.
    _assert_hits_within(
        cache, references, SEAMS_HIT_ALLOCATION_BUDGET, think_ms=10.0
    )


def test_hit_stays_under_allocation_budget():
    cache, references = _warm_cache(_chainless_references)
    _assert_hits_within(cache, references, HIT_ALLOCATION_BUDGET)


def test_seams_hit_stays_under_allocation_budget(tmp_path):
    _assert_seams_hits_within(_chainless_references, tmp_path)


def test_chained_hit_stays_under_allocation_budget():
    cache, references = _warm_cache(_chained_references)
    _assert_hits_within(cache, references, HIT_ALLOCATION_BUDGET)


def test_chained_seams_hit_stays_under_allocation_budget(tmp_path):
    _assert_seams_hits_within(_chained_references, tmp_path)


def test_timed_and_rss_helpers():
    value, elapsed = timed(lambda: sum(range(1000)))
    assert value == sum(range(1000))
    assert elapsed >= 0.0
    assert peak_rss_kb() > 0.0
