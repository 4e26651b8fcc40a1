"""Runtime adaptation: re-plan the pipeline when the workload shifts.

Implements the paper's adaptation mechanism (Sections III-A and V-F):

* the profiler closes a window once it is a large enough sample (see
  :mod:`repro.core.profiler`) and produces a profile;
* if any profiled counter changed by more than 10 % relative to the profile
  the current configuration was planned for, the cost model searches the
  configuration space and the best plan is adopted;
* the new plan applies to the *next* batch — in-flight batches carry their
  own pipeline information, so a switch never corrupts processing but does
  delay the throughput recovery (the ~1 ms lag visible in Figure 20).

Every decision leaves an audit trail twice over: an
:class:`AdaptationEvent` (full before/after :class:`PipelineConfig`, the
counter that triggered it, the window's sample count and the search's wall
time) on the controller itself, and — when telemetry is enabled — a
``replan`` :class:`~repro.telemetry.events.TraceEvent` in the process-wide
event log, plus an INFO log line for operators running without telemetry.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

from repro.core.config_search import ConfigurationSearch
from repro.core.cost_model import CostModel, PipelineEstimate
from repro.core.profiler import (
    WINDOW_QUERIES,
    HostCostModel,
    WorkloadProfile,
    profile_delta,
)
from repro.hardware.specs import PlatformSpec
from repro.core.pipeline_config import PipelineConfig
from repro.telemetry import get_telemetry, replan_event

logger = logging.getLogger("repro.core.controller")

#: ``repro_replan_seconds`` buckets: a search is milliseconds; anything in
#: the top buckets is a serve-loop stall worth an alert.
_REPLAN_SECONDS_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0)


@dataclass(frozen=True)
class AdaptationEvent:
    """Record of one re-planning decision.

    Carries the full before/after configurations (not just their labels) so
    audits can inspect stage membership, core splits, and index-operation
    placement of both plans; ``old_config`` is None on the bootstrap plan.
    ``reason`` names what triggered the search: the profile counter that
    moved the most (``get_ratio``, ``key_size``, ``value_size``, ``skew``),
    ``bootstrap`` for the first plan, or ``forced`` after
    :meth:`AdaptationController.force_replan`.
    """

    batch_index: int
    trigger_change: float
    old_label: str
    new_label: str
    estimated_mops: float
    old_config: PipelineConfig | None = None
    new_config: PipelineConfig | None = None
    reason: str = "bootstrap"
    #: Queries in the profile window that triggered the search.
    window_queries: int = 0
    #: Wall time of the configuration search.
    search_seconds: float = 0.0
    #: The host cost model at decision time
    #: (:meth:`~repro.core.profiler.HostCostModel.summary`): per placed
    #: engine pass, each kernel's fitted ``[a_us, b_us_per_row, samples]``
    #: and the implied ``crossover_rows`` — what the per-window kernel
    #: placement is currently decided from.
    host_costs: dict | None = field(default=None, compare=False)

    @property
    def changed(self) -> bool:
        return self.old_label != self.new_label

    @property
    def bootstrap(self) -> bool:
        """True for the first-ever plan (no previous profile to diff)."""
        return self.old_config is None


class AdaptationController:
    """Owns the planning loop: profile in, pipeline configuration out.

    Parameters
    ----------
    platform:
        Hardware the cost model plans for.
    latency_budget_ns:
        The latency limit the periodical scheduler must respect.
    work_stealing:
        Whether chosen plans enable stealing (on by default, as in DIDO).
    host_costs:
        The serving engine's fitted pass costs, when there is one to
        audit: every decision records its state.
    """

    def __init__(
        self,
        platform: PlatformSpec,
        latency_budget_ns: float = 1_000_000.0,
        work_stealing: bool = True,
        host_costs: HostCostModel | None = None,
    ):
        self.host_costs = host_costs
        self.cost_model = CostModel(platform)
        self.search = ConfigurationSearch(self.cost_model)
        self.latency_budget_ns = latency_budget_ns
        self.work_stealing = work_stealing
        self._planned_for: WorkloadProfile | None = None
        self._current: PipelineConfig | None = None
        self._current_estimate: PipelineEstimate | None = None
        self._batch_index = 0
        self.events: list[AdaptationEvent] = []

    # ------------------------------------------------------------- planning

    @property
    def current_config(self) -> PipelineConfig | None:
        return self._current

    @property
    def current_estimate(self) -> PipelineEstimate | None:
        return self._current_estimate

    @property
    def planned_profile(self) -> WorkloadProfile | None:
        """The profile the current configuration was planned for (None
        before the first plan and after :meth:`force_replan`)."""
        return self._planned_for

    def config_for(self, profile: WorkloadProfile) -> PipelineConfig:
        """The configuration to use for the batches following ``profile``.

        First call always plans; afterwards re-planning happens only on a
        substantial (>10 %) profile change, so steady workloads pay nothing.
        """
        self._batch_index += 1
        if self._current is None:
            reason, trigger = "bootstrap", float("inf")
        elif self._planned_for is None:
            reason, trigger = "forced", float("inf")
        else:
            delta = profile_delta(profile, self._planned_for)
            if not delta.substantial:
                if self._planned_for.batch_queries < min(
                    profile.batch_queries, WINDOW_QUERIES
                ):
                    # The plan stands, and this window is a larger sample of
                    # the workload it was made for than the (bootstrap or
                    # early-closed) one it was made from: a better reference.
                    self._planned_for = profile
                return self._current
            reason, trigger = delta.largest
        started = time.perf_counter()
        best = self.search.best(
            profile, self.latency_budget_ns, work_stealing=self.work_stealing
        )
        old_config = self._current
        event = AdaptationEvent(
            batch_index=self._batch_index,
            trigger_change=trigger,
            old_label=old_config.label if old_config is not None else "<none>",
            new_label=best.config.label,
            estimated_mops=best.estimate.throughput_mops,
            old_config=old_config,
            new_config=best.config,
            reason=reason,
            window_queries=profile.batch_queries,
            search_seconds=time.perf_counter() - started,
            host_costs=None if self.host_costs is None else self.host_costs.summary(),
        )
        self.events.append(event)
        self._planned_for = profile
        self._current = best.config
        self._current_estimate = best.estimate
        self._record(event, best.estimate)
        return best.config

    def _record(self, event: AdaptationEvent, estimate: PipelineEstimate) -> None:
        """Mirror one decision into the log and the telemetry event stream."""
        logger.info(
            "replan at batch %d (%s, %d-query window, %.1f ms search): "
            "%s -> %s (est %.1f MOPS)",
            event.batch_index,
            event.reason
            if event.reason in ("bootstrap", "forced")
            else f"{event.reason} moved {event.trigger_change:.0%}",
            event.window_queries,
            event.search_seconds * 1e3,
            event.old_label,
            event.new_label,
            event.estimated_mops,
        )
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.events.append(
                replan_event(
                    batch_index=event.batch_index,
                    trigger_change=event.trigger_change,
                    old_config=None if event.old_config is None else event.old_label,
                    new_config=event.new_label,
                    estimated_mops=event.estimated_mops,
                    changed=event.changed,
                    estimated_tmax_us=estimate.tmax_ns / 1000.0,
                    reason=event.reason,
                    window_queries=event.window_queries,
                    search_seconds=event.search_seconds,
                    host_costs=event.host_costs,
                )
            )
            telemetry.registry.counter(
                "repro_replans_total", help="Adaptation decisions taken"
            ).inc(changed=str(event.changed).lower())
            telemetry.registry.histogram(
                "repro_replan_seconds",
                buckets=_REPLAN_SECONDS_BUCKETS,
                help="Wall time of one configuration search",
            ).observe(event.search_seconds, reason=event.reason)

    def force_replan(self) -> None:
        """Invalidate the current plan (next profile will re-plan)."""
        logger.info("force_replan: next profile will re-run the search")
        self._planned_for = None

    @property
    def replan_count(self) -> int:
        """Number of times the search actually ran."""
        return len(self.events)
