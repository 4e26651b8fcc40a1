"""Unit tests for the adaptation controller."""

import pytest

from repro.core.controller import AdaptationController
from repro.core.profiler import WorkloadProfile
from repro.hardware.specs import APU_A10_7850K

from conftest import profile_for


@pytest.fixture
def controller():
    return AdaptationController(APU_A10_7850K)


class TestPlanning:
    def test_first_call_plans(self, controller):
        config = controller.config_for(profile_for("K16-G95-S"))
        assert config is not None
        assert controller.replan_count == 1
        assert controller.current_config is config

    def test_steady_workload_no_replans(self, controller):
        profile = profile_for("K16-G95-S")
        first = controller.config_for(profile)
        for _ in range(10):
            assert controller.config_for(profile) is first
        assert controller.replan_count == 1

    def test_small_drift_no_replan(self, controller):
        controller.config_for(WorkloadProfile(0.95, 16, 64, 0.99))
        controller.config_for(WorkloadProfile(0.93, 17, 66, 0.97))
        assert controller.replan_count == 1

    def test_substantial_change_replans(self, controller):
        controller.config_for(profile_for("K16-G95-S"))
        controller.config_for(profile_for("K8-G50-U"))
        assert controller.replan_count == 2

    def test_replan_compares_to_planned_profile_not_last(self, controller):
        """Drift accumulates against the profile the plan was made for, so
        a slow 15 % drift in 5 % steps still eventually triggers."""
        controller.config_for(WorkloadProfile(0.95, 16, 64.0, 0.99))
        controller.config_for(WorkloadProfile(0.95, 16, 67.0, 0.99))  # +4.7 %
        assert controller.replan_count == 1
        controller.config_for(WorkloadProfile(0.95, 16, 71.0, 0.99))  # +11 % total
        assert controller.replan_count == 2

    def test_events_record_labels(self, controller):
        controller.config_for(profile_for("K16-G95-S"))
        controller.config_for(profile_for("K8-G50-U"))
        assert controller.events[0].old_label == "<none>"
        assert controller.events[1].old_label != "<none>"
        assert controller.events[1].trigger_change > 0.10

    def test_force_replan(self, controller):
        profile = profile_for("K16-G95-S")
        controller.config_for(profile)
        controller.force_replan()
        controller.config_for(profile)
        assert controller.replan_count == 2

    def test_estimate_exposed(self, controller):
        controller.config_for(profile_for("K16-G95-S"))
        assert controller.current_estimate.throughput_mops > 0

    def test_alternating_workloads_replan_each_switch(self, controller):
        a, b = profile_for("K8-G50-U"), profile_for("K16-G95-S")
        for profile in (a, a, b, b, a, b):
            controller.config_for(profile)
        # Plans at: first a, a->b, b->a, a->b = 4 replans.
        assert controller.replan_count == 4

    def test_work_stealing_flag_respected(self):
        controller = AdaptationController(APU_A10_7850K, work_stealing=False)
        config = controller.config_for(profile_for("K16-G95-S"))
        assert not config.work_stealing


class TestAdaptationEvents:
    def test_bootstrap_event_has_no_old_config(self, controller):
        controller.config_for(profile_for("K16-G95-S"))
        event = controller.events[0]
        assert event.bootstrap
        assert event.old_config is None
        assert event.old_label == "<none>"
        assert event.new_config is controller.current_config
        assert event.changed  # "<none>" -> a real pipeline counts as a change
        assert event.trigger_change == float("inf")

    def test_same_config_replan_is_not_a_change(self, controller):
        """force_replan on a steady workload re-runs the search, picks the
        same plan, and the resulting event reports changed == False."""
        profile = profile_for("K16-G95-S")
        first = controller.config_for(profile)
        controller.force_replan()
        assert controller.config_for(profile) == first
        assert controller.replan_count == 2
        event = controller.events[1]
        assert not event.changed
        assert not event.bootstrap
        assert event.old_config == event.new_config == first
        # force_replan discards the planned-for profile, so the trigger is
        # "no baseline" (inf), exactly like the bootstrap plan's.
        assert event.trigger_change == float("inf")

    def test_force_replan_keeps_current_plan_until_next_profile(self, controller):
        config = controller.config_for(profile_for("K16-G95-S"))
        controller.force_replan()
        assert controller.current_config is config
        assert controller.replan_count == 1

    def test_events_carry_full_configs_across_a_switch(self, controller):
        controller.config_for(profile_for("K16-G95-S"))
        controller.config_for(profile_for("K8-G50-U"))
        event = controller.events[1]
        assert event.old_config is not None
        assert event.old_config.label == event.old_label
        assert event.new_config.label == event.new_label
        assert event.changed == (event.old_label != event.new_label)

    def test_events_say_why(self, controller):
        controller.config_for(WorkloadProfile(0.95, 16, 64, 0.0, batch_queries=53))
        controller.config_for(WorkloadProfile(0.50, 16, 64, 0.0, batch_queries=600))
        controller.config_for(WorkloadProfile(0.50, 16, 64, 0.5, batch_queries=4096))
        controller.config_for(WorkloadProfile(0.50, 128, 1024, 0.5, batch_queries=512))
        controller.force_replan()
        controller.config_for(WorkloadProfile(0.50, 128, 1024, 0.5, batch_queries=7))
        events = controller.events
        # 64 -> 1024 B (x15) outweighs 16 -> 128 B (x7): the largest mover is named.
        assert [e.reason for e in events] == [
            "bootstrap", "get_ratio", "skew", "value_size", "forced",
        ]
        assert [e.window_queries for e in events] == [53, 600, 4096, 512, 7]
        assert events[1].trigger_change == pytest.approx(0.45 / 0.95)
        assert all(0.0 < e.search_seconds < 5.0 for e in events)

    def test_key_size_reason(self, controller):
        controller.config_for(WorkloadProfile(0.95, 16, 64, 0.0))
        controller.config_for(WorkloadProfile(0.95, 32, 64, 0.0))
        assert controller.events[-1].reason == "key_size"

    def test_planned_profile_tracks_the_plan(self, controller):
        assert controller.planned_profile is None
        profile = profile_for("K16-G95-S")
        controller.config_for(profile)
        assert controller.planned_profile is profile
        controller.config_for(WorkloadProfile(0.94, 16, 64, 0.99))  # no re-plan
        assert controller.planned_profile is profile
        controller.force_replan()
        assert controller.planned_profile is None

    def test_confirming_full_window_becomes_the_reference(self, controller):
        """A bootstrap plan made from a 53-query batch is confirmed, not
        redone, by the first full window that agrees with it — and that
        window is the better reference for later comparisons."""
        bootstrap = WorkloadProfile(0.94, 16, 64, 0.0, batch_queries=53)
        full = WorkloadProfile(0.95, 16, 64, 0.05, batch_queries=4100)
        later = WorkloadProfile(0.951, 16, 64, 0.05, batch_queries=4200)
        config = controller.config_for(bootstrap)
        assert controller.config_for(full) is config
        assert controller.planned_profile is full
        assert controller.config_for(later) is config
        assert controller.planned_profile is full  # one upgrade, then drift accumulates
        assert controller.replan_count == 1

    def test_replans_logged_at_info(self, controller, caplog):
        import logging

        with caplog.at_level(logging.INFO, logger="repro.core.controller"):
            controller.config_for(profile_for("K16-G95-S"))
        assert any("replan" in message for message in caplog.messages)
