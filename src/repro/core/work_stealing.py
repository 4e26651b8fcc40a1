"""Work stealing's finish-time estimate (paper Section III-B3, Equation 3).

In the paper a helper processor steals wavefront-sized (64-query) sets of
the bottleneck stage's queries through an atomic tag array.  That chunked
race is modelled by the simulator
(:class:`~repro.pipeline.executor.PipelineExecutor`, Figure 15) and costed
by the analyzer; :func:`plan_steal` is the closed form of Equation 3, used
by tests to cross-check the analyzer's stealing arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class StealOutcome:
    """Result of the Equation-3 estimate: finish time and stolen share."""

    finish_ns: float
    stolen_fraction: float


def plan_steal(t_owner_work: float, t_helper_own: float, t_helper_work: float) -> StealOutcome:
    """Paper Equation 3: finish time when a helper steals from the bottleneck.

    ``t_owner_work`` — bottleneck stage's solo time (``T^GPU_A``);
    ``t_helper_own`` — the helper's own stage time (``T^CPU_B``);
    ``t_helper_work`` — helper's hypothetical time for the whole stolen task
    set (``T^CPU_A``).

    Returns the combined finish time
    ``T = T_B + T^CPU_A (T^GPU_A - T_B) / (T^CPU_A + T^GPU_A)``
    and the fraction of the bottleneck's work the helper absorbed.  When the
    helper would not finish its own work first, no stealing happens.
    """
    if min(t_owner_work, t_helper_own, t_helper_work) < 0:
        raise ConfigurationError("times must be non-negative")
    if t_helper_own >= t_owner_work or t_helper_work <= 0:
        return StealOutcome(finish_ns=t_owner_work, stolen_fraction=0.0)
    finish = t_helper_own + t_helper_work * (t_owner_work - t_helper_own) / (
        t_helper_work + t_owner_work
    )
    stolen = (t_owner_work - finish) / t_owner_work
    return StealOutcome(finish_ns=finish, stolen_fraction=max(0.0, stolen))
