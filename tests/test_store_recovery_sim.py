"""StoreLab in the simulation: disk recovery, trace identity, FaultLab.

Three contracts:

1. byte-identity — wiring a FileStore into a deployment changes no trace
   until a recovery actually consults it, and the default MemoryStore
   path emits no store events at all;
2. disk-first recovery — a recovering replica with a durable store
   replays its local prefix and fetches only the missing suffix over the
   network (``store.recovered_bytes`` up, ``xfer.bytes_received`` down);
3. FaultLab storage faults — ``torn_write``/``corrupt_segment`` runs
   stay green under the ``durable-recovery`` invariant: damage is
   detected, never served, and network transfer repairs it.
"""

from dataclasses import replace as dc_replace

import pytest

from repro.faultlab import FaultLabConfig, FaultSchedule, make_event, run_schedule
from repro.system import Mode, SystemConfig, build

TARGET = "dc-2-r0"
LIVE = "dc-1-r0"


def deploy(tmp_path=None, seed=44, checkpoint_interval=25):
    config = SystemConfig(
        mode=Mode.CONFIDENTIAL,
        f=1,
        num_clients=3,
        seed=seed,
        checkpoint_interval=checkpoint_interval,
        store_dir=None if tmp_path is None else str(tmp_path),
        store_fsync="never",
    )
    deployment = build(config)
    deployment.start()
    return deployment


def run_recovery(deployment):
    deployment.start_workload(duration=30.0)
    deployment.recovery.schedule_recovery(TARGET, 8.0, 4.0)
    deployment.run(until=34.0)
    return deployment


def trace_tuples(deployment):
    return [
        (e.time, e.category, e.host, tuple(sorted(e.detail.items())))
        for e in deployment.tracer.events
    ]


def counter(deployment, name, host):
    total = 0.0
    for (metric, labels), value in deployment.metrics.counter_values().items():
        if metric == name and ("host", host) in labels:
            total += value
    return total


class TestTraceIdentity:
    def test_file_store_changes_no_trace_without_recovery(self, tmp_path):
        plain = deploy()
        plain.start_workload(duration=12.0)
        plain.run(until=15.0)

        durable = deploy(tmp_path)
        durable.start_workload(duration=12.0)
        durable.run(until=15.0)

        assert trace_tuples(plain) == trace_tuples(durable)
        # ... but the file store really was written behind the seam.
        assert durable.replicas[LIVE].store.persistent
        assert not plain.replicas[LIVE].store.persistent
        assert counter(durable, "store.append_bytes", LIVE) > 0
        assert list((tmp_path / LIVE / "segments").glob("seg-*.log"))

    def test_memory_store_recovery_emits_no_store_events(self):
        deployment = run_recovery(deploy())
        assert not [e for e in deployment.tracer.events
                    if e.category.startswith("store.")]
        for event in deployment.tracer.events:
            if event.category == "xfer.initiate":
                assert "have_seq" not in event.detail


class TestDiskRecovery:
    # A long checkpoint interval keeps the update-log tail long: the
    # regime where local replay actually saves network transfer (with a
    # short interval, a fresh stable checkpoint supersedes the disk state
    # by rejoin time and the suffix is identical either way).
    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        durable = run_recovery(
            deploy(tmp_path_factory.mktemp("store"), checkpoint_interval=100)
        )
        plain = run_recovery(deploy(checkpoint_interval=100))
        return durable, plain

    def test_replica_recovers_from_disk_then_catches_up(self, runs):
        durable, _ = runs
        recovered = [e for e in durable.tracer.events
                     if e.category == "store.recovered" and e.host == TARGET]
        assert len(recovered) == 1
        assert recovered[0].detail["records"] > 0
        assert recovered[0].detail["batch_seq"] > 0
        target = durable.replicas[TARGET]
        assert target.executed_ordinal() == durable.replicas[LIVE].executed_ordinal()
        assert target.stored_ciphertext_count() > 0

    def test_recovery_advertises_disk_state_in_solicit(self, runs):
        durable, _ = runs
        initiates = [e for e in durable.tracer.events
                     if e.category == "xfer.initiate" and e.host == TARGET]
        assert initiates
        assert initiates[-1].detail["have_seq"] > 0

    def test_disk_replay_shrinks_network_transfer(self, runs):
        durable, plain = runs
        assert counter(durable, "store.recovered_bytes", TARGET) > 0
        assert counter(plain, "store.recovered_bytes", TARGET) == 0
        # The whole point: only the missing suffix crosses the wire.
        assert (counter(durable, "xfer.bytes_received", TARGET)
                < counter(plain, "xfer.bytes_received", TARGET))

    def test_workload_unaffected(self, runs):
        durable, _ = runs
        for proxy in durable.proxies.values():
            assert proxy.outstanding == 0
        durable.auditor.assert_clean(set(durable.data_center_hosts))


class TestUnusableCheckpoint:
    """A checkpoint file that passes magic + CRC but whose content does not
    decrypt degrades to the network path; an exception that is not a
    decrypt/parse/apply failure is a bug and must surface."""

    EXECUTING = "cc-a-r1"

    @pytest.fixture
    def crashed(self, tmp_path):
        deployment = deploy(tmp_path)
        deployment.start_workload(duration=20.0)
        deployment.run(until=10.0)
        replica = deployment.replicas[self.EXECUTING]
        assert replica.checkpoints.stable is not None
        replica.go_down()
        return deployment, replica

    def test_undecryptable_checkpoint_falls_back_to_network(self, crashed):
        deployment, replica = crashed
        stable = replica.checkpoints.stable
        # Same ordinal, so it replaces the genuine file; written through
        # the store, so the frame verifies.
        replica.store.save_checkpoint(dc_replace(stable, blob=b"not a ciphertext " * 8))
        replica.recover()
        deployment.run(until=24.0)
        stages = [e.detail.get("stage") for e in deployment.tracer.events
                  if e.category == "store.corrupted" and e.host == self.EXECUTING]
        assert stages == ["checkpoint-restore"]
        assert counter(deployment, "store.corruption_detected", self.EXECUTING) == 1
        # Nothing of the blob was installed: whatever came back locally is
        # log replay from genesis (ordinal 0), the rest state transfer.
        assert all(e.detail["ordinal"] == 0 for e in deployment.tracer.events
                   if e.category == "store.recovered" and e.host == self.EXECUTING)
        assert [e for e in deployment.tracer.events
                if e.category == "xfer.complete" and e.host == self.EXECUTING]
        live = deployment.replicas["cc-a-r0"]
        assert replica.executed_ordinal() == live.executed_ordinal()
        assert replica.app.snapshot() == live.app.snapshot()

    def test_unrelated_restore_failure_propagates(self, crashed):
        _deployment, replica = crashed

        def boom(checkpoint, deltas):
            raise RuntimeError("not a damaged-blob error")

        replica.install_chain = boom
        with pytest.raises(RuntimeError, match="not a damaged-blob error"):
            replica.recover()


def store_schedule(kind, seed=3):
    return FaultSchedule(
        seed=seed,
        horizon=9.0,
        events=(make_event(6.0, kind, target=TARGET, duration=3.0),),
    )


class TestFaultLabStoreFaults:
    def test_memory_store_sweep_skips_durable_recovery(self):
        schedule = FaultSchedule(
            seed=3, horizon=9.0,
            events=(make_event(6.0, "recover", target=TARGET, duration=3.0),),
        )
        result = run_schedule(schedule, FaultLabConfig())
        assert result.ok, result.report.summary()
        assert "durable-recovery" in result.report.skipped

    def test_torn_write_run_is_green(self):
        result = run_schedule(store_schedule("torn_write"), FaultLabConfig())
        assert result.ok, result.report.summary()
        assert "durable-recovery" not in result.report.skipped
        assert "durable-recovery" in result.report.checked

    def test_corrupt_segment_detected_and_repaired(self):
        result = run_schedule(
            store_schedule("corrupt_segment"),
            FaultLabConfig(),
            keep_deployment=True,
        )
        assert result.ok, result.report.summary()
        assert "durable-recovery" not in result.report.skipped
        events = result.deployment.tracer.events
        damage = [e for e in events if e.category == "fault.store-damage"]
        assert damage and damage[0].detail["applied"]
        corrupted = [e for e in events
                     if e.category == "store.corrupted" and e.host == TARGET]
        assert corrupted
        repaired = [e for e in events
                    if e.category == "xfer.complete" and e.host == TARGET
                    and e.time > corrupted[0].time]
        assert repaired

    def test_durable_store_opt_in_recovers_from_disk(self):
        schedule = FaultSchedule(
            seed=3, horizon=9.0,
            events=(make_event(6.0, "recover", target=TARGET, duration=3.0),),
        )
        result = run_schedule(
            schedule, FaultLabConfig(durable_store=True), keep_deployment=True
        )
        assert result.ok, result.report.summary()
        assert "durable-recovery" not in result.report.skipped
        recovered = [e for e in result.deployment.tracer.events
                     if e.category == "store.recovered" and e.host == TARGET]
        assert recovered and recovered[0].detail["records"] > 0
        # The stable checkpoint saved before the crash came back from disk.
        assert recovered[0].detail["ordinal"] > 0
