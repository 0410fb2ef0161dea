"""Tests for deployment construction and wiring."""

import pytest

from repro.core import ExecutingReplica, StorageReplica
from repro.errors import ConfigurationError
from repro.system import Mode, SystemConfig, build


class TestConfigValidation:
    def test_defaults_are_papers_setup(self):
        config = SystemConfig()
        assert config.mode is Mode.CONFIDENTIAL
        assert config.f == 1
        assert config.data_centers == 2
        assert config.num_clients == 10
        assert config.update_interval == 1.0

    def test_invalid_f(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(f=0)

    def test_invalid_data_centers(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(data_centers=4)

    def test_invalid_clients(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(num_clients=0)

    def test_infeasible_distribution_fails_at_config_time(self):
        # The (f, k, S) distribution rule is re-derived in __post_init__ so
        # an impossible site count fails before any material generation.
        with pytest.raises(ConfigurationError):
            SystemConfig(f=1, data_centers=0)

    def test_shard_count_bounds(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(shards=0)
        with pytest.raises(ConfigurationError):
            SystemConfig(shards=65, num_clients=100)

    def test_more_shards_than_clients_rejected(self):
        with pytest.raises(ConfigurationError, match="every shard must own"):
            SystemConfig(shards=4, num_clients=3)

    def test_negative_route_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(route_delay=-0.001)

    def test_out_of_range_knob_is_named(self):
        for name, value in (("intro_batch_size", 0), ("crypto_workers", -1),
                            ("store_compaction_budget", 0)):
            with pytest.raises(ConfigurationError, match=name):
                SystemConfig(**{name: value})
        with pytest.raises(ConfigurationError, match="store_fsync"):
            SystemConfig(store_fsync="bogus")


class TestClientIdentityValidation:
    """Duplicate/colliding client ids must fail loudly, not overwrite keys."""

    def test_duplicate_client_ids_rejected(self):
        from repro.system.assembly import generate_material
        from repro.sim.rng import RngRegistry

        config = SystemConfig(num_clients=2, seed=5)
        with pytest.raises(ConfigurationError, match="duplicate client id"):
            generate_material(
                config, RngRegistry(5), client_ids=["client-00", "client-00"]
            )

    def test_empty_client_id_rejected(self):
        from repro.system.assembly import generate_material
        from repro.sim.rng import RngRegistry

        config = SystemConfig(num_clients=2, seed=5)
        with pytest.raises(ConfigurationError, match="non-empty"):
            generate_material(config, RngRegistry(5), client_ids=["client-00", ""])

    def test_empty_client_set_rejected(self):
        from repro.system.assembly import validate_client_ids

        with pytest.raises(ConfigurationError, match="at least one client"):
            validate_client_ids([])


class TestBuildConfidential:
    @pytest.fixture(scope="class")
    def deployment(self):
        return build(SystemConfig(mode=Mode.CONFIDENTIAL, f=1, num_clients=2, seed=5))

    def test_replica_counts_match_plan(self, deployment):
        assert len(deployment.on_premises_hosts) == 8
        assert len(deployment.data_center_hosts) == 6
        assert len(deployment.replicas) == 14

    def test_roles_by_site(self, deployment):
        for host in deployment.on_premises_hosts:
            assert isinstance(deployment.replicas[host], ExecutingReplica)
        for host in deployment.data_center_hosts:
            assert isinstance(deployment.replicas[host], StorageReplica)

    def test_on_premises_have_hardware_symmetric_key(self, deployment):
        for host in deployment.on_premises_hosts:
            assert deployment.replicas[host].keystore.has_shared_symmetric
        for host in deployment.data_center_hosts:
            assert not deployment.replicas[host].keystore.has_shared_symmetric

    def test_intro_threshold_spans_on_premises_only(self, deployment):
        assert deployment.env.intro_public is not None
        assert deployment.env.intro_public.players == 8
        assert deployment.env.intro_public.threshold == 2

    def test_leader_rotation_alternates_sites(self, deployment):
        config = deployment.env.prime_config
        sites = [
            deployment.site_of_host(config.leader_of(v)) for v in range(4)
        ]
        assert len(set(sites)) == 4  # four different sites in four views

    def test_proxies_registered(self, deployment):
        assert len(deployment.proxies) == 2
        for proxy in deployment.proxies.values():
            assert deployment.topology.site_of(proxy.host).name == "field"

    def test_same_seed_same_wiring(self):
        a = build(SystemConfig(num_clients=2, seed=9))
        b = build(SystemConfig(num_clients=2, seed=9))
        assert a.env.prime_config.replica_ids == b.env.prime_config.replica_ids
        assert a.env.response_public.n_modulus == b.env.response_public.n_modulus


class TestOneConfigByReference:
    def test_every_shared_knob_reaches_every_replica_unchanged(self):
        """The sim path of the shared assembly (per shard, under the shard
        split's own shards/num_clients/seed): replicas read the group's
        one SystemConfig, not a copy of its fields."""
        from dataclasses import fields

        from repro.shard.builder import build_sharded, shard_configs
        from repro.system.config import ProtocolConfig
        from tests.test_config_single_source import SHARED_NON_DEFAULT

        config = SystemConfig(**SHARED_NON_DEFAULT, shards=2)
        sharded = build_sharded(config)
        try:
            planned = shard_configs(config)
            assert len(sharded.shards) == len(planned) == config.shards
            for group, (_ns, client_ids, shard_config) in zip(sharded.shards, planned):
                assert group.config == shard_config
                assert sorted(group.proxies) == client_ids
                for replica in group.replicas.values():
                    assert replica.env is group.env
                    assert replica.env.config is group.config
                for spec in fields(ProtocolConfig):
                    if spec.name not in ("shards", "num_clients", "seed"):
                        assert getattr(group.config, spec.name) == getattr(
                            config, spec.name
                        ), spec.name
        finally:
            sharded.shutdown()

    def test_unsharded_build_hands_replicas_the_callers_config(self):
        config = SystemConfig(num_clients=2, key_validity=50, key_renewal_enabled=True)
        deployment = build(config)
        replica = deployment.executing_replicas()[0]
        assert replica.env.config is config
        assert replica.renewal.validity == 50 and replica.renewal.enabled


class TestBuildSpire:
    def test_all_replicas_execute(self):
        deployment = build(SystemConfig(mode=Mode.SPIRE, f=1, num_clients=2, seed=5))
        assert len(deployment.replicas) == 12
        assert all(
            isinstance(r, ExecutingReplica) for r in deployment.replicas.values()
        )
        assert deployment.env.intro_public is None
        assert deployment.env.response_public.players == 12


class TestDeterminism:
    def test_identical_seeds_produce_identical_runs(self):
        results = []
        for _ in range(2):
            deployment = build(SystemConfig(num_clients=2, seed=13))
            deployment.start()
            deployment.start_workload(duration=5.0)
            deployment.run(until=7.0)
            results.append(
                [
                    (s.client_id, s.client_seq, round(s.latency, 9))
                    for s in deployment.recorder.samples
                ]
            )
        assert results[0] == results[1]

    def test_different_seeds_differ(self):
        latencies = []
        for seed in (1, 2):
            deployment = build(SystemConfig(num_clients=2, seed=seed))
            deployment.start()
            deployment.start_workload(duration=5.0)
            deployment.run(until=7.0)
            latencies.append([round(s.latency, 9) for s in deployment.recorder.samples])
        assert latencies[0] != latencies[1]
