"""Invariant checker unit tests: synthetic trace streams, no deployments.

Each invariant is fed hand-built :class:`TraceEvent` streams covering its
trigger and its legitimate-behaviour non-triggers, so violations (which a
healthy system never produces) get direct coverage.
"""

from types import SimpleNamespace

import pytest

from repro.faultlab.invariants import (
    BoundedDisclosureInvariant,
    CheckContext,
    CheckpointMonotonicityInvariant,
    ConfidentialityInvariant,
    InvariantChecker,
    LivenessInvariant,
    OrderingSafetyInvariant,
)
from repro.sim.trace import TraceEvent

DC_HOSTS = {"dc-1-r0", "dc-1-r1", "dc-2-r0"}


def ev(time, category, host, **detail):
    return TraceEvent(time, category, host, detail)


class TestConfidentiality:
    def test_dc_exposure_is_violation(self):
        inv = ConfidentialityInvariant(DC_HOSTS)
        inv.on_event(ev(1.0, "audit.exposure", "dc-1-r0",
                        label="client-data", channel="network"))
        assert len(inv.violations) == 1
        assert inv.violations[0].host == "dc-1-r0"

    def test_on_prem_exposure_is_fine(self):
        inv = ConfidentialityInvariant(DC_HOSTS)
        inv.on_event(ev(1.0, "audit.exposure", "cc-a-r0",
                        label="client-data", channel="local"))
        assert not inv.violations

    def test_finish_cross_checks_auditor(self):
        inv = ConfidentialityInvariant(DC_HOSTS)
        auditor = SimpleNamespace(exposed_hosts={"dc-2-r0", "cc-a-r1"})
        inv.finish(CheckContext(deployment=SimpleNamespace(auditor=auditor)))
        assert [v.host for v in inv.violations] == ["dc-2-r0"]

    def test_spire_baseline_is_skipped_not_violated(self):
        # In Spire mode every replica executes plaintext by design; the
        # invariant must report "skipped", never a violation storm.
        inv = ConfidentialityInvariant(DC_HOSTS, enforced=False)
        inv.on_event(ev(1.0, "audit.exposure", "dc-1-r0",
                        label="client-data", channel="execution"))
        auditor = SimpleNamespace(exposed_hosts=set(DC_HOSTS))
        inv.finish(CheckContext(deployment=SimpleNamespace(auditor=auditor)))
        assert not inv.violations
        assert inv.skipped_reason is not None


class TestOrderingSafety:
    def test_agreement_is_fine(self):
        inv = OrderingSafetyInvariant()
        for host in ("cc-a-r0", "cc-b-r1", "dc-1-r0"):
            inv.on_event(ev(1.0, "order.batch", host, batch_seq=4, digest="abcd"))
        assert not inv.violations

    def test_conflicting_digest_at_same_seq_is_violation(self):
        inv = OrderingSafetyInvariant()
        inv.on_event(ev(1.0, "order.batch", "cc-a-r0", batch_seq=4, digest="abcd"))
        inv.on_event(ev(1.1, "order.batch", "cc-b-r0", batch_seq=4, digest="eeee"))
        assert len(inv.violations) == 1
        assert "cc-a-r0" in inv.violations[0].detail

    def test_different_seqs_never_conflict(self):
        inv = OrderingSafetyInvariant()
        inv.on_event(ev(1.0, "order.batch", "cc-a-r0", batch_seq=4, digest="abcd"))
        inv.on_event(ev(1.1, "order.batch", "cc-a-r0", batch_seq=5, digest="eeee"))
        assert not inv.violations


class TestCheckpointMonotonicity:
    def test_correct_then_stable_then_gc_is_fine(self):
        inv = CheckpointMonotonicityInvariant()
        inv.on_event(ev(1.0, "checkpoint.correct", "cc-a-r0", ordinal=1))
        inv.on_event(ev(1.2, "checkpoint.stable", "cc-a-r0", ordinal=1))
        inv.on_event(ev(1.2, "checkpoint.gc", "cc-a-r0", ordinal=1))
        assert not inv.violations

    def test_stable_without_evidence_is_violation(self):
        inv = CheckpointMonotonicityInvariant()
        inv.on_event(ev(1.0, "checkpoint.stable", "cc-a-r0", ordinal=3))
        assert len(inv.violations) == 1

    def test_adopted_counts_as_evidence(self):
        inv = CheckpointMonotonicityInvariant()
        inv.on_event(ev(1.0, "checkpoint.adopted", "dc-1-r0", ordinal=2))
        inv.on_event(ev(1.1, "checkpoint.stable", "dc-1-r0", ordinal=2))
        assert not inv.violations

    def test_stable_ordinal_regression_is_violation(self):
        inv = CheckpointMonotonicityInvariant()
        for ordinal in (1, 2):
            inv.on_event(ev(1.0, "checkpoint.correct", "cc-a-r0", ordinal=ordinal))
        inv.on_event(ev(1.1, "checkpoint.stable", "cc-a-r0", ordinal=2))
        inv.on_event(ev(1.2, "checkpoint.stable", "cc-a-r0", ordinal=1))
        assert any("regressed" in v.detail for v in inv.violations)

    def test_gc_beyond_stable_is_violation(self):
        inv = CheckpointMonotonicityInvariant()
        inv.on_event(ev(1.0, "checkpoint.correct", "cc-a-r0", ordinal=1))
        inv.on_event(ev(1.1, "checkpoint.stable", "cc-a-r0", ordinal=1))
        inv.on_event(ev(1.2, "checkpoint.gc", "cc-a-r0", ordinal=2))
        assert any("outran" in v.detail for v in inv.violations)

    def test_recovery_resets_per_host_state(self):
        # After a wipe the replica legitimately re-learns from scratch; a
        # lower adopted+stable ordinal is NOT a regression then.
        inv = CheckpointMonotonicityInvariant()
        inv.on_event(ev(1.0, "checkpoint.correct", "cc-a-r0", ordinal=5))
        inv.on_event(ev(1.1, "checkpoint.stable", "cc-a-r0", ordinal=5))
        inv.on_event(ev(2.0, "replica.recovered", "cc-a-r0", incarnation=2))
        inv.on_event(ev(2.5, "checkpoint.adopted", "cc-a-r0", ordinal=3))
        inv.on_event(ev(2.6, "checkpoint.stable", "cc-a-r0", ordinal=3))
        assert not inv.violations

    def test_hosts_tracked_independently(self):
        inv = CheckpointMonotonicityInvariant()
        inv.on_event(ev(1.0, "checkpoint.correct", "cc-a-r0", ordinal=1))
        inv.on_event(ev(1.1, "checkpoint.stable", "cc-b-r0", ordinal=1))
        assert len(inv.violations) == 1
        assert inv.violations[0].host == "cc-b-r0"


def _disclosure_ctx(validity=10, slack=2, renewal=True, loot=None):
    deployment = SimpleNamespace(
        env=SimpleNamespace(
            config=SimpleNamespace(
                key_renewal_enabled=renewal, key_validity=validity, key_slack=slack
            )
        )
    )
    adversary = SimpleNamespace(loot=loot or {})
    return CheckContext(deployment=deployment, adversary=adversary)


class TestBoundedDisclosure:
    def test_skipped_without_key_renewal(self):
        inv = BoundedDisclosureInvariant()
        inv.finish(_disclosure_ctx(renewal=False))
        assert inv.skipped_reason is not None

    def test_skipped_without_leak(self):
        inv = BoundedDisclosureInvariant()
        inv.on_event(ev(1.0, "adversary.compromise", "cc-a-r0", behaviors=["mute"]))
        inv.finish(_disclosure_ctx())
        assert inv.skipped_reason is not None
        assert not inv.violations

    def test_within_bound_passes(self):
        inv = BoundedDisclosureInvariant()
        inv.on_event(ev(5.0, "adversary.compromise", "cc-a-r0",
                        behaviors=["leak-keys"]))
        # 12 updates decryptable post-leak == bound (validity 10 + slack 2).
        for seq in range(1, 13):
            inv.on_event(ev(5.0 + seq * 0.1, "replica.executed", "cc-a-r0",
                            client="alice", seq=seq))
        loot = {"cc-a-r0": SimpleNamespace(client_epochs={"alice": (1, 12)})}
        inv.finish(_disclosure_ctx(loot=loot))
        assert not inv.violations

    def test_exceeding_bound_is_violation(self):
        inv = BoundedDisclosureInvariant()
        inv.on_event(ev(5.0, "adversary.compromise", "cc-a-r0",
                        behaviors=["leak-keys"]))
        for seq in range(1, 14):  # 13 decryptable > bound of 12
            inv.on_event(ev(5.0 + seq * 0.1, "replica.executed", "cc-a-r0",
                            client="alice", seq=seq))
        loot = {"cc-a-r0": SimpleNamespace(client_epochs={"alice": (1, 50)})}
        inv.finish(_disclosure_ctx(loot=loot))
        assert len(inv.violations) == 1
        assert "alice" in inv.violations[0].detail

    def test_pre_leak_executions_do_not_count(self):
        inv = BoundedDisclosureInvariant()
        for seq in range(1, 14):
            inv.on_event(ev(seq * 0.1, "replica.executed", "cc-a-r0",
                            client="alice", seq=seq))
        inv.on_event(ev(5.0, "adversary.compromise", "cc-a-r0",
                        behaviors=["leak-keys"]))
        loot = {"cc-a-r0": SimpleNamespace(client_epochs={"alice": (1, 50)})}
        inv.finish(_disclosure_ctx(loot=loot))
        assert not inv.violations


def _liveness_deployment(outstanding=0, ordinals=(7, 7), now=17.0):
    replicas = {
        f"host-{i}": SimpleNamespace(
            online=True, executed_ordinal=lambda o=o: o
        )
        for i, o in enumerate(ordinals)
    }
    proxies = {
        "client-00": SimpleNamespace(outstanding=outstanding, host="proxy-client-00")
    }
    return SimpleNamespace(
        kernel=SimpleNamespace(now=now), proxies=proxies, replicas=replicas
    )


class TestLiveness:
    def test_quiet_convergent_run_passes(self):
        inv = LivenessInvariant(quiesce_at=8.0)
        inv.on_event(ev(9.0, "proxy.complete", "proxy-client-00", seq=3, latency=0.04))
        inv.finish(CheckContext(deployment=_liveness_deployment()))
        assert not inv.violations

    def test_gave_up_is_violation(self):
        inv = LivenessInvariant(quiesce_at=8.0)
        inv.on_event(ev(9.0, "proxy.complete", "proxy-client-00", seq=3, latency=0.04))
        inv.on_event(ev(6.0, "proxy.gave-up", "proxy-client-00", seq=2))
        inv.finish(CheckContext(deployment=_liveness_deployment()))
        assert any("retransmissions" in v.detail for v in inv.violations)

    def test_outstanding_updates_are_violation(self):
        inv = LivenessInvariant(quiesce_at=8.0)
        inv.on_event(ev(9.0, "proxy.complete", "proxy-client-00", seq=3, latency=0.04))
        inv.finish(CheckContext(deployment=_liveness_deployment(outstanding=2)))
        assert any("outstanding" in v.detail for v in inv.violations)

    def test_no_progress_after_quiescence_is_violation(self):
        inv = LivenessInvariant(quiesce_at=8.0)
        inv.on_event(ev(5.0, "proxy.complete", "proxy-client-00", seq=3, latency=0.04))
        inv.finish(CheckContext(deployment=_liveness_deployment()))
        assert any("no update completed" in v.detail for v in inv.violations)

    def test_divergent_online_replicas_is_violation(self):
        inv = LivenessInvariant(quiesce_at=8.0)
        inv.on_event(ev(9.0, "proxy.complete", "proxy-client-00", seq=3, latency=0.04))
        inv.finish(CheckContext(deployment=_liveness_deployment(ordinals=(7, 5))))
        assert any("converge" in v.detail for v in inv.violations)

    def test_skipped_without_quiesce_point(self):
        inv = LivenessInvariant(quiesce_at=None)
        inv.finish(CheckContext(deployment=_liveness_deployment()))
        assert inv.skipped_reason is not None


class TestChecker:
    def test_attach_requires_tracing(self):
        deployment = SimpleNamespace(
            tracer=SimpleNamespace(enabled=False), data_center_hosts=()
        )
        with pytest.raises(RuntimeError):
            InvariantChecker(deployment).attach()

    def test_report_aggregates_and_sorts_violations(self):
        confidentiality = ConfidentialityInvariant(DC_HOSTS)
        ordering = OrderingSafetyInvariant()
        ordering.on_event(ev(1.0, "order.batch", "a", batch_seq=1, digest="x"))
        ordering.on_event(ev(2.0, "order.batch", "b", batch_seq=1, digest="y"))
        confidentiality.on_event(
            ev(0.5, "audit.exposure", "dc-1-r0", label="l", channel="network")
        )
        checker = InvariantChecker(
            SimpleNamespace(tracer=SimpleNamespace(enabled=True),
                            data_center_hosts=(), auditor=None),
            invariants=[confidentiality, ordering],
        )
        report = checker.finish()
        assert not report.ok
        assert report.failing_invariants == ("confidentiality", "ordering-safety")
        assert [v.time for v in report.violations] == [0.5, 2.0]
        assert "2 violation(s)" in report.summary()
