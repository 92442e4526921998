"""The read plan holds exactly the miss stages whose seams are enabled.

``ReadPipeline`` compiles its miss stages once, from the seams the
cache was built with, instead of asking every disabled seam on every
read.  Each seam adds its own stage, in pipeline order, ahead of the
three stages every cache runs.
"""

from __future__ import annotations

import pytest

from repro.cache.manager import DocumentCache
from repro.cache.pipeline import (
    AdmissionStage,
    AdoptionStage,
    DegradationStage,
    FetchStage,
    L2Stage,
    MemoStage,
    SingleFlightStage,
)
from repro.cache.policies import (
    DefaultConcurrencyPolicy,
    DefaultMemoPolicy,
    DefaultStoragePolicy,
)

ALWAYS = (FetchStage, DegradationStage, AdmissionStage)

SEAMS = {
    "sharing": (AdoptionStage, lambda tmp: {"share_across_users": True}),
    "storage": (
        L2Stage,
        lambda tmp: {"storage_policy": DefaultStoragePolicy(directory=tmp)},
    ),
    "memo": (MemoStage, lambda tmp: {"memo_policy": DefaultMemoPolicy()}),
    "coalescing": (
        SingleFlightStage,
        lambda tmp: {"concurrency_policy": DefaultConcurrencyPolicy()},
    ),
}


def _plan(kernel, **kwargs) -> tuple[type, ...]:
    cache = DocumentCache(kernel, capacity_bytes=1 << 20, **kwargs)
    return tuple(type(stage) for stage in cache._reads.miss_stages)


@pytest.mark.parametrize(
    "enabled",
    [(), *((name,) for name in SEAMS), tuple(SEAMS)],
    ids=lambda enabled: "+".join(enabled) or "default",
)
def test_each_enabled_seam_adds_its_own_stage_in_order(
    kernel, tmp_path, enabled
):
    kwargs: dict = {}
    for name in enabled:
        kwargs.update(SEAMS[name][1](tmp_path))
    expected = tuple(
        stage for name, (stage, _) in SEAMS.items() if name in enabled
    )
    assert _plan(kernel, **kwargs) == expected + ALWAYS


def test_a_concurrency_policy_that_never_coalesces_adds_nothing(kernel):
    plan = _plan(
        kernel, concurrency_policy=DefaultConcurrencyPolicy(coalesce=False)
    )
    assert plan == ALWAYS
