"""End-to-end tests for the Spire 1.2 baseline, and the comparative
confidentiality claims of the paper."""

from repro.core import ExecutingReplica


class TestSpireBaseline:
    def test_plan_is_spire_distribution(self, spire_run):
        assert spire_run.plan.label() == "3+3+3+3 (12)"

    def test_every_update_completed(self, spire_run):
        for proxy in spire_run.proxies.values():
            assert proxy.outstanding == 0
            assert len(proxy.completed) >= 14

    def test_latency_within_scada_bounds(self, spire_run):
        stats = spire_run.recorder.stats()
        assert stats.pct_under_100ms == 100.0

    def test_all_replicas_execute_including_data_centers(self, spire_run):
        # Spire 1.2: data-center replicas host the application too.
        for host in spire_run.data_center_hosts:
            replica = spire_run.replicas[host]
            assert isinstance(replica, ExecutingReplica)
            assert replica.executed_ordinal() > 0

    def test_replicas_agree_on_state(self, spire_run):
        snapshots = {r.app.snapshot() for r in spire_run.executing_replicas()}
        assert len(snapshots) == 1


class TestConfidentialityGap:
    """The paper's motivation, measured: Spire 1.2 exposes plaintext to
    data centers; Confidential Spire does not."""

    def test_spire_exposes_all_data_center_hosts(self, spire_run):
        dc_hosts = set(spire_run.data_center_hosts)
        assert dc_hosts <= spire_run.auditor.exposed_hosts

    def test_spire_exposes_both_updates_and_state(self, spire_run):
        dc_host = spire_run.data_center_hosts[0]
        labels = {label for label, _chan in spire_run.auditor.exposures_for(dc_host)}
        assert "client-update-body" in labels
        assert "state-snapshot" in labels  # plaintext checkpoints

    def test_confidential_exposes_no_data_center_host(self, conf_run):
        assert not (conf_run.auditor.exposed_hosts & set(conf_run.data_center_hosts))

    def test_client_site_only_sees_its_own_traffic_labels(self, spire_run):
        proxy_host = next(iter(spire_run.proxies.values())).host
        labels = {label for label, _ in spire_run.auditor.exposures_for(proxy_host)}
        assert labels <= {"client-update-body", "client-response"}
