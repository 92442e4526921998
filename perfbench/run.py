"""The repository benchmark: four workloads, end-to-end and per-layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload hot-default --seed 1 --seconds 10 --trace 0

Workloads are ``hot-default``, ``hot-seams``, ``churn`` and ``churn-l2``;
``README.md`` gives their shapes, configurations and reasons, and the
meaning of every metric.

A run measures several independent instances of the workload's shape,
each from a seed derived from ``--seed``, and pools them.  ``--seconds``
sets the amount of timed work (``seconds`` times the kind's nominal
rate), so the operations are a pure function of the arguments.

``--trace 0`` reports the end-to-end metrics, measured with nothing
instrumented.  ``--trace 1`` measures the same untraced run, then runs
the instances again with the span tracer installed, and reports the
per-layer metrics.  Either way every read's bytes are then checked
against an uncached kernel replay; a mismatch exits with status 1.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src"


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit, count) in metrics.items():
        suffix = f"  (n={count})" if count is not None else ""
        print(f"  {name:<34} {value:>16.6g} {unit}{suffix}")


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _arguments(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SOURCE}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    import measure
    import spans
    import world

    shape = world.WORKLOADS.get(args.workload)
    if shape is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(world.WORKLOADS)}", file=sys.stderr)
        return 2
    instances = world.INSTANCES[shape.kind]
    seeds = [world.instance_seed(args.seed, i) for i in range(instances)]
    per_instance = max(1, round(
        args.seconds * world.NOMINAL_RATE[shape.kind] / instances
    ))

    totals = measure.Totals()
    for seed in seeds:
        measure.run_instance(shape, seed, per_instance, totals)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    print(f"workload {args.workload}  seed {args.seed}  instances "
          f"{instances}  operations {totals.attempted}")
    metrics = measure.end_to_end(totals, rss_mib)
    _print_metrics("end-to-end (untraced; wall times at reference host speed)",
                   metrics)
    pooled = measure.pooled(totals)
    _print_metrics("whole run (untraced)", pooled)
    for name, count in sorted(totals.errors.items()):
        print(f"  errors.{name:<27} {count:>16}")
    counts = measure.layer_counts(totals)
    _print_metrics("layer counts (public views)", counts)
    for name, count in totals.stages.items():
        print(f"  {name:<34} {count:>16}")

    correct = True
    per_layer: dict = {}
    if args.trace:
        tracer = spans.Tracer()
        traced = measure.Totals()
        tracer.install()
        try:
            for seed in seeds:
                measure.run_instance(shape, seed, per_instance, traced)
        finally:
            tracer.uninstall()
        same = traced.digests == totals.digests
        print(f"traced runs served the same bytes as untraced: {same}")
        correct &= same
        per_layer.update(
            (name, (value, unit, None))
            for name, (value, unit) in tracer.metrics().items()
        )
        per_layer.update(counts)
        per_layer.update(pooled)
        traced_ops = measure.end_to_end(traced, rss_mib)["ops_per_s"][0]
        per_layer["trace.ops_per_s"] = (traced_ops, "1/s", traced.attempted)
        per_layer["trace.overhead"] = (
            metrics["ops_per_s"][0] / traced_ops, "ratio", None
        )
        _print_metrics("per-layer (traced)", per_layer)

    compared = mismatched = 0
    for seed, digests in zip(seeds, totals.digests):
        done, bad = measure.replay_check(shape, seed, per_instance, digests)
        compared += done
        mismatched += bad
    print(f"served-bytes check: {compared} reads compared with an uncached "
          f"kernel replay, {mismatched} mismatched")
    correct &= mismatched == 0
    try:
        measure.SCRATCH.rmdir()
    except OSError:
        pass  # absent, or still holds another run's directory

    chosen = per_layer if args.trace else metrics
    print(json.dumps({
        "correct": bool(correct),
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _count) in chosen.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
