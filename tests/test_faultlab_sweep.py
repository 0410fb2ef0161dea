"""FaultLab end-to-end: sweeps, replay determinism, planted-leak shrinking.

These are the expensive tests (each schedule run builds and drives a full
14-replica deployment), so the sweep here is a bounded smoke — the CLI
(``repro faultlab --seeds 50``) covers breadth out-of-band.
"""

import pytest

from repro.faultlab import (
    FaultLabConfig,
    FaultSchedule,
    make_event,
    plant_leak,
    regression_test_source,
    run_schedule,
    schedule_for_seed,
    shrink,
    sweep,
)

LAB = FaultLabConfig()


@pytest.fixture(scope="module")
def sweep_results():
    return sweep([1, 2, 3], LAB)


# Seeds 1-3 of the default lab are also swept by CI's ``faultlab --seeds 25``.
@pytest.mark.slow
def test_bounded_seed_sweep_is_green(sweep_results):
    for result in sweep_results:
        assert result.ok, result.report.summary()


@pytest.mark.slow
def test_sweep_checks_all_safety_invariants(sweep_results):
    for result in sweep_results:
        checked = set(result.report.checked) - set(result.report.skipped)
        assert {"confidentiality", "ordering-safety",
                "checkpoint-monotonicity", "liveness"} <= checked


def test_replay_is_deterministic():
    schedule = schedule_for_seed(2, LAB)
    first = run_schedule(schedule, LAB)
    second = run_schedule(schedule, LAB)
    assert first.ok == second.ok
    assert first.trace_events == second.trace_events
    assert first.report.summary() == second.report.summary()


class TestPlantedLeak:
    @pytest.fixture(scope="class")
    def shrunk(self):
        schedule = plant_leak(schedule_for_seed(5, LAB))
        return shrink(schedule, LAB)

    def test_leak_is_caught_as_confidentiality_violation(self, shrunk):
        result = shrunk.final
        assert not result.ok
        assert "confidentiality" in result.report.failing_invariants
        violation = result.report.violations[0]
        assert violation.host.startswith("dc-")

    def test_minimized_schedule_is_tiny(self, shrunk):
        # Acceptance bar: the minimized repro is at most 5 events (the
        # leak itself plus at most a couple of entangled windows).
        assert len(shrunk.minimal) <= 5
        assert any(e.kind == "leak" for e in shrunk.minimal.events)

    def test_shrink_preserved_failing_invariant(self, shrunk):
        assert shrunk.failing_invariants == ("confidentiality",)

    def test_emitted_regression_test_reproduces(self, shrunk):
        source = regression_test_source(shrunk, name="emitted_check")
        namespace = {}
        exec(compile(source, "<faultlab-regression>", "exec"), namespace)
        namespace["test_emitted_check"]()  # must not raise

    def test_minimal_schedule_roundtrips_json(self, shrunk):
        restored = FaultSchedule.from_json(shrunk.minimal.to_json())
        assert restored == shrunk.minimal


def test_shrink_refuses_passing_schedule():
    passing = FaultSchedule(seed=3, horizon=9.0, events=())
    with pytest.raises(ValueError):
        shrink(passing, LAB)


def test_compromise_windows_install_and_release():
    schedule = FaultSchedule(
        seed=9,
        horizon=9.0,
        events=(
            make_event(2.0, "compromise", "cc-a-r0", 4.0, behaviors=["mute"]),
        ),
    )
    result = run_schedule(schedule, LAB, keep_deployment=True)
    assert result.ok, result.report.summary()
    tracer = result.deployment.tracer
    assert tracer.count("adversary.compromise") == 1
    assert tracer.count("adversary.release") == 1
    # Control was handed back: no compromised hosts at end of run.
    assert result.adversary.compromised_hosts == []
