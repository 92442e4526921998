"""Timing, pooling, metrics and the served-bytes check.

A run measures several instances of a workload, one after another.
:func:`run_instance` sets one up (timed: that is ``setup_s``), issues
its operations in a closed loop timing each cache call, reads the
cache's public counters and tears it down.  :class:`Totals` pools the
instances; the functions at the end turn it into metrics, each a
``(value, unit, sample count)`` triple.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import tempfile
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns

from repro.cache.stats import CacheStats
from repro.errors import (
    CacheError,
    ContainmentError,
    DeadlineExceededError,
    OverloadShedError,
    ProviderError,
)

from world import READ, TICK_EVERY, WRITE, build_cache, build_inputs

#: Parent of the L2 segment directories, one per cache, each removed as
#: soon as its cache is done.
SCRATCH = Path(__file__).resolve().parent.parent / ".perfbench_tmp"

#: The typed failures the loop counts instead of aborting on.
TYPED_ERRORS = (OverloadShedError, DeadlineExceededError, ContainmentError,
                CacheError, ProviderError)

DISPOSITIONS = (
    "hit", "revalidated", "miss", "miss-verifier", "miss-invalidated",
    "uncacheable", "miss-oversize", "miss-adopted", "miss-memoized",
    "miss-promoted", "stale-on-error", "miss-degraded",
)
CACHE_COUNTERS = (
    "evictions", "verifier_executions", "verifier_invalidations",
    "notifier_deliveries", "bytes_filled",
)

#: Wall time between host probes in the timed loop.  Each window's laps
#: are scaled by the probes around it (see :func:`end_to_end`).
WINDOW_NS = 20_000_000
PROBE_ITERATIONS = 2000
#: ``host_probe``'s time on the reference host, a 2-vCPU Xeon VM under
#: CPython 3.11 with no other load.  Wall times are reported at this
#: host speed.
PROBE_REFERENCE_NS = 300_000
#: Added to an operation's kind when its call raised.
FAILED = 3


def _digest(content: bytes) -> int:
    """A 64-bit digest of served bytes.

    ``hash`` of a ``bytes`` object is computed once and then cached in
    the object, so a hit that returns the stored bytes costs nothing to
    digest.  Every comparison happens in one process, under one hash key.
    """
    return hash(content)


class Totals:
    """Figures pooled over the instances of one run."""

    def __init__(self) -> None:
        #: Per instance: set-up seconds, raw and at reference speed.
        self.setup_s: list[tuple[float, float]] = []
        #: Per instance: wall ns of each operation's cache call, and its
        #: kind (``world.READ`` ...), plus ``FAILED`` if it raised.
        self.laps: list[tuple[array, array]] = []
        #: Per instance: the operation index at which each host probe
        #: ran, and the probe's ns.
        self.probes: list[tuple[array, array]] = []
        self.failed = 0
        #: Per instance, the digest of each read's bytes (None: failed).
        self.digests: list[list] = []
        self.virtual_ms = 0.0
        self.dispositions: Counter = Counter()
        self.errors: Counter = Counter()
        self.stats: list = []
        #: Hits and lookups of the timed loops (set-up reads excluded).
        self.hits = 0
        self.lookups = 0
        self.views: Counter = Counter()
        self.stages: Counter = Counter()

    @property
    def attempted(self) -> int:
        return sum(len(ns) for ns, _kinds in self.laps)

    @property
    def busy_ns(self) -> int:
        """Wall ns spent inside cache calls, failed calls included."""
        return sum(sum(ns) for ns, _kinds in self.laps)

    def latencies(self, kind: int) -> array:
        """Every *kind* operation's ns; a failure counts as the whole
        run's busy time, slower than any success."""
        failed_ns = self.busy_ns
        out = array("q")
        for ns, kinds in self.laps:
            for elapsed, code in zip(ns, kinds):
                if code == kind:
                    out.append(elapsed)
                elif code == kind + FAILED:
                    out.append(failed_ns)
        return out

    def windows(self):
        """(host gauge, successes, busy ns, read ns) per window.

        A window is the operations between two host probes of one
        instance; its gauge is the mean of those two probes.
        """
        failed_ns = self.busy_ns
        for (ns, kinds), (bounds, probes) in zip(self.laps, self.probes):
            for index in range(len(probes) - 1):
                lo, hi = bounds[index], bounds[index + 1]
                codes = kinds[lo:hi]
                reads = [
                    elapsed if code == READ else failed_ns
                    for elapsed, code in zip(ns[lo:hi], codes)
                    if code in (READ, READ + FAILED)
                ]
                ok = sum(1 for code in codes if code < FAILED)
                gauge = (probes[index] + probes[index + 1]) / 2
                yield gauge, ok, sum(ns[lo:hi]), reads


def host_probe() -> int:
    """Wall ns of a fixed pure-Python task: a gauge of host speed.

    A shared host's speed drifts by up to 2x over seconds as other
    tenants load it.  The loop runs this probe between windows of
    operations; the probe does the same work every time, so its time
    tracks the host, not the program.  It allocates no objects the
    cyclic garbage collector tracks, so it never pays for a collection
    of the program's heap.
    """
    table = dict.fromkeys(range(256), 0)
    started = perf_counter_ns()
    for number in range(PROBE_ITERATIONS):
        table[number & 255] += len(str(number))
    return perf_counter_ns() - started


def timed_loop(cache, inputs, totals: Totals) -> None:
    """Issue every prepared operation in order, timing each call."""
    read, write = cache.read, cache.write
    invalidate = cache.invalidate_document
    advance = inputs.kernel.ctx.clock.advance
    ns, kinds = array("q"), array("b")
    bounds, probes = array("q", [0]), array("q", [host_probe()])
    dispositions = totals.dispositions
    digests: list = []
    now = perf_counter_ns
    next_probe = now() + WINDOW_NS
    virtual_ms = 0.0
    for index, (kind, reference, _document, argument, think_ms) in (
        enumerate(inputs.ops)
    ):
        if think_ms:
            advance(think_ms)
        started = now()
        if started >= next_probe:
            bounds.append(index)
            probes.append(host_probe())
            started = now()
            next_probe = started + WINDOW_NS
        try:
            if kind == READ:
                outcome = read(reference)
            elif kind == WRITE:
                write(reference, argument)
            else:
                invalidate(argument)
            elapsed = now() - started
        except TYPED_ERRORS as error:
            ns.append(now() - started)
            kinds.append(kind + FAILED)
            totals.failed += 1
            totals.errors[type(error).__name__] += 1
            if kind == READ:
                digests.append(None)
            continue
        ns.append(elapsed)
        kinds.append(kind)
        if kind == READ:
            digests.append(_digest(outcome.content))
            virtual_ms += outcome.elapsed_ms
            dispositions[outcome.disposition] += 1
    bounds.append(len(ns))
    probes.append(host_probe())
    totals.laps.append((ns, kinds))
    totals.probes.append((bounds, probes))
    totals.virtual_ms += virtual_ms
    totals.digests.append(digests)


def _directory_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


def _collect_views(cache, l2_directory, totals: Totals) -> None:
    """Add the cache's public counters to the run's totals."""
    totals.stats.append(cache.stats)
    views = totals.views
    memo = cache.memo_stats
    if memo is not None:
        views["memo.adoptions"] += memo.adoptions
        views["memo.consults"] += memo.consults
    storage = cache.storage_stats
    if storage is not None:
        views["storage.promotions"] += storage.promotions
        views["storage.demotions"] += storage.demotions
        views["storage.disk_bytes"] += _directory_bytes(l2_directory)
    overload = cache.overload_stats
    if overload is not None:
        views["overload.admitted"] += overload.admitted
        views["overload.shed"] += (overload.shed_bulk + overload.shed_qos
                                   + overload.shed_critical)
    for stage, outcome, count, _total, _mean in (
        cache.stage_breakdown().rows()
    ):
        totals.stages[f"stage.{stage}.{outcome}"] += count


class SetupClock:
    """Set-up wall time, raw and at the reference host speed.

    Each :meth:`tick` closes a segment and probes the host; a segment's
    time is scaled by the mean of the probes at its two ends.  Probe
    time itself is not counted.
    """

    def __init__(self) -> None:
        self.raw = self.scaled = 0.0
        self._probe = host_probe()
        self._started = perf_counter()

    def tick(self) -> None:
        elapsed = perf_counter() - self._started
        probe = host_probe()
        self.raw += elapsed
        self.scaled += elapsed * 2 * PROBE_REFERENCE_NS / (self._probe + probe)
        self._probe = probe
        self._started = perf_counter()


def run_instance(shape, seed: int, n_ops: int, totals: Totals) -> None:
    """Set up one instance, time its operations, then free it.

    The instance's world holds reference cycles.  Left to the
    collector's own schedule it would linger, and every collection
    during the next instance's set-up would walk it too.
    """
    _measure_instance(shape, seed, n_ops, totals)
    gc.collect()


def _measure_instance(shape, seed: int, n_ops: int, totals: Totals) -> None:
    setup = SetupClock()
    inputs = build_inputs(shape.kind, seed, n_ops, setup.tick)
    l2_directory = None
    if shape.l2:
        SCRATCH.mkdir(exist_ok=True)
        l2_directory = tempfile.mkdtemp(dir=SCRATCH)
    try:
        cache = build_cache(inputs, shape, seed, l2_directory)
        clock = inputs.kernel.ctx.clock
        for index, op in enumerate(inputs.warm):
            if index % TICK_EVERY == 0:
                setup.tick()
            clock.advance(op.think_ms)
            cache.read(op.reference)
        setup.tick()
        totals.setup_s.append((setup.raw, setup.scaled))
        stats = cache.stats
        hits, lookups = stats.hits, stats.lookups
        timed_loop(cache, inputs, totals)
        totals.hits += stats.hits - hits
        totals.lookups += stats.lookups - lookups
        _collect_views(cache, l2_directory, totals)
    finally:
        if l2_directory is not None:
            shutil.rmtree(l2_directory)


def replay_check(shape, seed: int, n_ops: int,
                 digests: list) -> tuple[int, int]:
    """Compare one instance's served bytes with an uncached replay.

    Builds a fresh world from the same seed and applies the same
    operations straight to the kernel: writes through
    ``PlacelessKernel.write``, reads through ``PlacelessKernel.read``.
    Each read is compared with one kernel read per (reference, write
    generation of its document): with no write in between, the kernel
    returns the same bytes.  Returns (reads compared, mismatches).
    """
    inputs = build_inputs(shape.kind, seed, n_ops)
    kernel = inputs.kernel
    advance = kernel.ctx.clock.advance
    generation: Counter = Counter()
    expected: dict = {}
    served = iter(digests)
    compared = mismatched = 0
    for kind, reference, document, argument, think_ms in inputs.ops:
        if think_ms:
            advance(think_ms)
        if kind == READ:
            got = next(served)
            if got is None:
                continue
            key = (id(reference), generation[document])
            want = expected.get(key)
            if want is None:
                want = expected[key] = _digest(kernel.read(reference).content)
            compared += 1
            mismatched += got != want
        elif kind == WRITE:
            kernel.write(reference, argument)
            generation[document] += 1
    return compared, mismatched


def _percentile_us(ordered: list, q: float) -> float:
    """Nearest-rank *q*-th percentile of sorted ns samples, in µs."""
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1] / 1e3


def end_to_end(totals: Totals, rss_mib: float) -> dict:
    """The end-to-end metrics.

    Wall times are reported at the reference host speed: each window's
    laps, and each set-up segment (:class:`SetupClock`), are multiplied
    by ``PROBE_REFERENCE_NS / gauge``, where ``gauge`` is the host probe
    time measured around it.  On a loaded host the raw times stretch
    with the probe, and the ratio between them holds steady.  The raw
    figures are in :func:`pooled`.
    """
    ok = busy = 0
    reads = []
    for gauge, successes, window_busy, window_reads in totals.windows():
        scale = PROBE_REFERENCE_NS / gauge
        ok += successes
        busy += window_busy * scale
        reads.extend(read * scale for read in window_reads)
    reads.sort()
    served = sum(totals.dispositions.values())
    return {
        "setup_s": (
            statistics.median(scaled for _, scaled in totals.setup_s),
            "s", len(totals.setup_s),
        ),
        "ops_per_s": (ok / (busy / 1e9), "1/s", ok),
        "read_p50_us": (_percentile_us(reads, 50), "us", len(reads)),
        "read_p99_us": (_percentile_us(reads, 99), "us", len(reads)),
        "hit_ratio": (totals.hits / max(1, totals.lookups), "ratio",
                      totals.lookups),
        "virtual_read_ms": (totals.virtual_ms / max(1, served), "ms",
                            served),
        "peak_rss_mib": (rss_mib, "MiB", 1),
    }


def pooled(totals: Totals) -> dict:
    """Raw whole-run figures: set-up, throughput, latency, errors."""
    out = {
        "pooled.setup_s": (
            statistics.median(raw for raw, _ in totals.setup_s),
            "s", len(totals.setup_s),
        ),
        "pooled.ops_per_s": (
            (totals.attempted - totals.failed) / (totals.busy_ns / 1e9),
            "1/s", totals.attempted,
        ),
    }
    for kind, prefix in ((READ, "pooled.read"), (WRITE, "write")):
        ordered = sorted(totals.latencies(kind))
        for q in (50, 99):
            out[f"{prefix}_p{q}_us"] = (
                _percentile_us(ordered, q) if ordered else 0.0, "us",
                len(ordered),
            )
    out["error_rate"] = (totals.failed / totals.attempted, "ratio",
                         totals.attempted)
    return out


def layer_counts(totals: Totals) -> dict:
    """Per-layer counts from the caches' public views."""
    stats = CacheStats.merged(totals.stats)
    views = totals.views
    counts = {
        f"cache.disposition.{name}": (totals.dispositions[name], "count")
        for name in DISPOSITIONS
    }
    for name in CACHE_COUNTERS:
        counts[f"cache.{name}"] = (
            getattr(stats, name), "B" if name == "bytes_filled" else "count"
        )
    counts["cache.memo.yield"] = (
        views["memo.adoptions"] / views["memo.consults"]
        if views["memo.consults"] else 0.0, "ratio",
    )
    counts["storage.promote_yield"] = (
        views["storage.promotions"] / views["storage.demotions"]
        if views["storage.demotions"] else 0.0, "ratio",
    )
    counts["storage.disk_bytes"] = (views["storage.disk_bytes"], "B")
    counts["overload.admitted"] = (views["overload.admitted"], "count")
    counts["overload.shed"] = (views["overload.shed"], "count")
    return {name: (value, unit, None) for name, (value, unit)
            in counts.items()}
