"""Figures 9 and 10 on the host substrate: the pass-cost model that places
each window's Search on the scalar or the columnar kernel.

Paper claims, on the APU: the cost model's error averages ~8 % (Figure 9)
and its pick is the measured optimum for 17 of 24 workloads, within 6.6 %
otherwise (Figure 10).  The serve loop's two "processors" are the Python
row loop and the NumPy column kernel; this bench measures Search forced
onto each in process on six (mix x window size) cells next to the fitted
model placing the same windows.  The table (gap to the measured optimum,
model error) is emitted; the measurements are wall time on a shared host,
so only the two ends of the crossover — where the kernels differ by a
wide margin — are asserted.
"""

from common import emit, run_once

from repro.analysis.experiments import host_kernel_choice
from repro.analysis.reporting import Table


def test_host_kernel_choice(benchmark):
    rows = run_once(benchmark, host_kernel_choice)

    table = Table(
        "Figures 9/10 on the host — Search kernel per window (us per window)",
        ["mix", "window", "scalar", "columnar", "picked", "chooser", "gap_%", "model_err_%"],
    )
    for r in rows:
        table.add(
            r.mix, r.window, r.forced_us["scalar"], r.forced_us["columnar"],
            r.picked, r.chooser_us, r.gap * 100.0, r.model_error * 100.0,
        )
    emit(table)
    near = sum(r.near_optimal for r in rows)
    print(f"pick within 10 % of the measured optimum in {near} of {len(rows)} cells; "
          f"mean model error {sum(r.model_error for r in rows) / len(rows):.0%}")

    assert len(rows) == 6
    # The crossover is real and the chooser is on the right side of it.
    small = next(r for r in rows if (r.mix, r.window) == ("write-heavy", 40))
    large = next(r for r in rows if (r.mix, r.window) == ("read-95", 1024))
    assert small.forced_us["scalar"] < small.forced_us["columnar"]
    assert large.forced_us["columnar"] < large.forced_us["scalar"]
    assert small.picked == "scalar" and large.picked == "columnar"
