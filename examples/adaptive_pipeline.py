#!/usr/bin/env python3
"""Watch DIDO re-plan its pipeline as the workload shifts.

Feeds three very different traffic phases through one system — tiny-object
read-heavy, large-object read-heavy, then write-heavy — and prints every
adaptation event the controller records: what changed, what pipeline was
chosen, and what the cost model expected from it.  This is the paper's
Figure 20 scenario driven through the *functional* store.

Run:  python examples/adaptive_pipeline.py [--telemetry-out trace.jsonl]

With ``--telemetry-out`` the run also records the full telemetry trace —
per-task stage spans, the replan audit trail, steal claims, and profiler
gauges — and writes it as JSONL for offline analysis.
"""

import argparse
import sys

from repro.core.dido import DidoSystem
from repro.workloads.ycsb import QueryStream, standard_workload


PHASES = [
    ("tiny objects, 95 % GET ", "K8-G95-S", 6),
    ("large objects, 95 % GET", "K128-G95-S", 6),
    ("tiny objects, 50 % GET ", "K8-G50-U", 6),
    ("back to the first phase", "K8-G95-S", 6),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--telemetry-out", metavar="PATH", help="write a JSONL telemetry trace"
    )
    args = parser.parse_args()
    if args.telemetry_out:
        from repro.telemetry import configure

        configure(enabled=True)

    system = DidoSystem(memory_bytes=96 << 20, expected_objects=60_000)

    for description, label, batches in PHASES:
        stream = QueryStream(standard_workload(label), num_keys=8_000, seed=3)
        for _ in range(batches):
            system.process(stream.next_batch(2048))
        report = system.report()
        print(f"[{description}] {label:11s} -> {report.current_pipeline}")

    print()
    print(f"adaptation events ({system.controller.replan_count} re-plans):")
    for event in system.controller.events:
        trigger = (
            "first plan"
            if event.trigger_change == float("inf")
            else f"{event.trigger_change:.0%} change"
        )
        marker = "*" if event.changed else " "
        print(
            f" {marker} batch {event.batch_index:3d}  [{trigger:>11s}]  "
            f"-> {event.new_label}  (est {event.estimated_mops:.1f} MOPS)"
        )

    changed = sum(1 for e in system.controller.events if e.changed)
    print()
    print(
        f"{changed} of {len(system.controller.events)} re-plans actually changed "
        f"the pipeline; steady phases planned nothing at all."
    )

    if args.telemetry_out:
        from repro.telemetry import export_jsonl, get_telemetry

        records = export_jsonl(get_telemetry(), args.telemetry_out)
        print(
            f"telemetry: wrote {records} records to {args.telemetry_out}",
            file=sys.stderr,
        )


if __name__ == "__main__":
    main()
