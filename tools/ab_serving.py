"""A/B the `serving` benchmark between two checkouts, in alternating order.

    python3 tools/ab_serving.py --parent DIR --change DIR --workload write-heavy --pairs 10

Each pair runs the *untouched* ``benchmarks/serving/run.py`` of both
checkouts on one seed (fresh per invocation, printed with every run) at the
benchmark's own run length, untraced, parent first on even pairs and change
first on odd ones, with nothing else running.  For each end-to-end metric
it prints every run, then per side q1 / median / q3, the wins (ties count
for neither) and the verdict of the rule in the `choosing-metrics` guide:
the change wins at least nine tenths of the pairs and the medians differ by
more than the parent's own inter-quartile distance.  A run that is not
``correct`` or has failed operations is printed as such and makes the exit
status 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: BENCHMARK.json's ``run_seconds``: the length the bounds were calibrated at.
RUN_SECONDS = 20
#: The end-to-end metrics of an untraced run; lower is better for all three.
METRICS = ("setup_s", "cpu_us_per_q", "rss_mb")


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One untraced benchmark run from ``checkout``; returns its last-line record."""
    command = [
        sys.executable, "benchmarks/serving/run.py",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(RUN_SECONDS), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        raise SystemExit(f"{checkout}: run.py exited {done.returncode}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def report(metric: str, parent: list[float], change: list[float]) -> None:
    wins = sum(c < p for p, c in zip(parent, change))
    losses = sum(c > p for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gap = p_med - c_med
    decided = wins + losses
    if len(parent) < 10:
        verdict = "fewer than ten pairs: no claim either way"
    elif decided and wins >= 0.9 * decided and gap > p_q3 - p_q1:
        verdict = "gain holds"
    else:
        verdict = "no gain shown"
    print(f"{metric} (lower is better)")
    print(f"   parent  q1/median/q3  {p_q1:.4g} / {p_med:.4g} / {p_q3:.4g}")
    print(f"   change  q1/median/q3  {c_q1:.4g} / {c_med:.4g} / {c_q3:.4g}")
    print(
        f"   change wins {wins} of {decided} decided pairs ({len(parent)} run); "
        f"median gap {gap:.4g} ({100 * gap / p_med if p_med else 0.0:+.1f} % of parent) "
        f"against parent IQR {p_q3 - p_q1:.4g}: "
        f"{verdict}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    values = {name: {side: [] for side in sides} for name in METRICS}
    first_seed = int(time.time()) % 1_000_000
    clean = True
    for pair in range(args.pairs):
        seed = first_seed + pair
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            record = run_once(sides[side], args.workload, seed)
            ok = record["correct"] and record["failed"] == 0
            clean = clean and ok
            shown = []
            for name in METRICS:
                value = record["metrics"][name]["value"]
                values[name][side].append(value)
                shown.append(f"{name}={value:.4g}")
            print(
                f"pair {pair:2d} seed {seed} {side:6s} {' '.join(shown)} "
                f"attempted={record['attempted']} failed={record['failed']}"
                f"{'' if ok else '  NOT CLEAN'}",
                flush=True,
            )
    print()
    for name in METRICS:
        report(name, values[name]["parent"], values[name]["change"])
    return 0 if clean else 1


if __name__ == "__main__":
    raise SystemExit(main())
