"""Deterministic bootstrap: every process derives the same world from (config, seed)."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.rt.bootstrap import RtConfig, generate_material, host_ports
from repro.sim.rng import RngRegistry


def _material(seed=7, **overrides):
    config = RtConfig(seed=seed, **overrides)
    return config, generate_material(config.system_config(), RngRegistry(seed))


def test_material_is_deterministic_across_processes():
    """Two independent derivations (fresh RNG registries, as two OS
    processes would do) agree on every piece of key material."""
    _, a = _material()
    _, b = _material()
    assert a.all_hosts == b.all_hosts
    assert a.executing_hosts == b.executing_hosts
    assert a.client_ids == b.client_ids
    assert a.proxy_of_client == b.proxy_of_client
    assert a.intro_group.public.n_modulus == b.intro_group.public.n_modulus
    assert a.response_group.public.n_modulus == b.response_group.public.n_modulus
    for cid in a.client_ids:
        assert a.client_keys[cid].sign(b"x") == b.client_keys[cid].sign(b"x")
    assert a.initial_client_keys == b.initial_client_keys


def test_different_seeds_differ():
    _, a = _material(seed=7)
    _, b = _material(seed=8)
    assert a.intro_group.public.n_modulus != b.intro_group.public.n_modulus


def test_f1_confidential_deployment_shape():
    config, material = _material()
    plan = material.plan
    # n = 3f + 2k + 1 replicas for the confidential distributions
    assert len(material.all_hosts) == 3 * plan.f + 2 * plan.k + 1
    assert set(material.executing_hosts) <= set(material.on_premises_hosts)
    assert not (set(material.on_premises_hosts) & set(material.data_center_hosts))


def test_every_replica_has_a_keystore_and_role():
    _, material = _material()
    for host in material.all_hosts:
        assert host in material.keystores
        assert material.role_of(host) in ("executing", "storage")


def test_port_map_is_disjoint_and_covers_proxies():
    config, material = _material()
    ports = host_ports(material, config.base_port)
    flat = [p for pair in ports.values() for p in pair]
    assert len(flat) == len(set(flat)), "port collision"
    for host in material.all_hosts:
        assert host in ports
    for proxy in set(material.proxy_of_client.values()):
        assert proxy in ports


def test_ports_stay_below_the_ephemeral_range():
    """Outbound sockets draw from 32768+; listeners must never overlap
    or a peer's connect() can steal a replica's port (seen in anger)."""
    config, material = _material()
    ports = host_ports(material, config.base_port)
    assert all(p < 32768 for pair in ports.values() for p in pair)


def test_rt_config_json_roundtrip():
    config = RtConfig(seed=5, num_clients=3, epoch=123.5, out_dir="/tmp/x")
    restored = RtConfig.from_json(config.to_json())
    assert restored == config
    assert json.loads(config.to_json())["epoch"] == 123.5


@pytest.mark.parametrize("bad", [
    {"store_fsync": "bogus"},
    {"mode": "bogus"},
    {"load_profile": "nope"},
    {"load_rate": -3},
    {"load_rate": 0},
    {"telemetry_interval": -1.0},
    {"load_duration": -1.0},
    {"load_max_inflight": 0},
    {"shards": 4, "num_clients": 3},
    {"f": 1, "data_centers": 0},
])
def test_live_config_is_validated_where_it_is_built(bad):
    """Not in every spawned node process: the launcher, the CLI and the
    spec generators all fail at construction, like SystemConfig."""
    with pytest.raises(ConfigurationError):
        RtConfig(**bad)


def test_spec_with_an_unknown_or_missing_key_names_it():
    spec = json.loads(RtConfig().to_json())
    with pytest.raises(ConfigurationError, match="unknown key 'colour'"):
        RtConfig.from_json(json.dumps({**spec, "colour": "red"}))
    del spec["vc_timeout"]
    with pytest.raises(ConfigurationError, match="missing key 'vc_timeout'"):
        RtConfig.from_json(json.dumps(spec))
    for text in ("[1, 2]", "{not json"):
        with pytest.raises(ConfigurationError):
            RtConfig.from_json(text)


def test_live_replica_reads_the_one_config_by_reference(tmp_path):
    """The live path of the shared assembly, on a LiveScheduler without
    sockets: every shared knob set on the RtConfig is what the replica
    sees at ``env.config`` — nothing copied, so nothing forgotten."""
    import asyncio
    from dataclasses import fields

    from repro.rt.bootstrap import build_replica, shard_configs
    from repro.rt.node import NodeContext
    from repro.rt.runtime import LiveScheduler
    from repro.system.config import ProtocolConfig
    from tests.test_config_single_source import SHARED_NON_DEFAULT

    config = RtConfig(**SHARED_NON_DEFAULT, out_dir=str(tmp_path), base_port=21900)

    async def assemble():
        ctx = NodeContext(config, "s1.cc-b-r0", role="replica")
        try:
            assert isinstance(ctx.scheduler, LiveScheduler)
            return build_replica(ctx.env, ctx.material, ctx.host), ctx
        finally:
            ctx.crypto_pool.shutdown()

    replica, ctx = asyncio.run(assemble())
    seen = replica.env.config
    assert seen is ctx.system_config
    # Shard 1's slice of the deployment: the shard split rewrites exactly
    # shards / num_clients / seed, and carries every other knob unchanged.
    assert seen == shard_configs(config.system_config())[1][2]
    for spec in fields(ProtocolConfig):
        if spec.name not in ("shards", "num_clients", "seed"):
            assert getattr(seen, spec.name) == getattr(config, spec.name), spec.name
    assert replica.engine.config.pp_interval == config.pp_interval
    assert replica.intro.failover_delay == config.failover_delay
    assert replica.checkpoints.interval == config.checkpoint_interval
    assert replica.checkpoints.delta_interval == config.checkpoint_delta_interval
