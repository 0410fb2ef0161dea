"""Bootstrap: one dealer derives the world from (config, seed); a live
node computes the key-free layout itself and loads only its own keys."""

import asyncio
import json
import os
import sys

import pytest

from repro.errors import ConfigurationError
from repro.rt.bootstrap import (
    RtConfig,
    fleet_layout,
    generate_fleet,
    generate_material,
    host_ports,
    key_file,
    load_node_material,
    write_key_files,
)
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
    write_key_files(config, generate_fleet(config))

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


# -- the live dealer's key files --------------------------------------------------


@pytest.fixture(scope="module")
def dealt(tmp_path_factory):
    """An f=1 confidential fleet dealt once: (config, dealer's fleet)."""
    config = RtConfig(num_clients=2, seed=7, base_port=21950,
                      out_dir=str(tmp_path_factory.mktemp("dealt")))
    fleet = generate_fleet(config)
    write_key_files(config, fleet)
    return config, fleet


def _load(config, host):
    return load_node_material(config, fleet_layout(config)[0].material, host)


def test_every_node_gets_an_owner_only_json_key_file(dealt):
    config, fleet = dealt
    material = fleet[0].material
    hosts = list(material.all_hosts) + list(material.proxy_of_client.values())
    files = sorted(key_file(config, hosts[0]).parent.iterdir())
    assert files == sorted(key_file(config, host) for host in hosts)
    for path in files:
        assert os.stat(path).st_mode & 0o777 == 0o600, path
        data = json.loads(path.read_text())
        assert data["host"] == path.stem
        assert isinstance(data["public"]["response"]["n"], str)  # hex integers


def test_loaded_keys_are_the_dealers(dealt):
    config, fleet = dealt
    full = fleet[0].material
    executing, storage = full.executing_hosts[0], full.data_center_hosts[0]
    index = full.executing_hosts.index(executing) + 1

    mine = _load(config, executing)
    assert mine.intro_group.shares == {index: full.intro_group.shares[index]}
    assert mine.response_group.shares == {index: full.response_group.shares[index]}
    assert mine.response_group.public == full.response_group.public
    assert mine.initial_client_keys == full.initial_client_keys
    assert mine.client_registry == full.client_registry
    assert mine.keystores[executing].hardware_encrypt(b"x" * 40) == (
        full.keystores[executing].hardware_encrypt(b"x" * 40))
    assert mine.keystores[executing].identity_sign(b"m") == (
        full.keystores[executing].identity_sign(b"m"))

    theirs = _load(config, storage)
    assert theirs.keystores[storage].identity_sign(b"m") == (
        full.keystores[storage].identity_sign(b"m"))
    assert not theirs.keystores[storage].has_shared_symmetric

    client = _load(config, full.proxy_of_client["client-01"])
    assert client.client_keys["client-01"].sign(b"m") == full.client_keys["client-01"].sign(b"m")


def _rewrite(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _deal_other_seed(config, tmp_path):
    other = RtConfig(**{**config.__dict__, "seed": 8, "out_dir": str(tmp_path)})
    write_key_files(other, generate_fleet(other))
    return key_file(other, "cc-a-r0").read_text()


KEY_FILE_DAMAGE = {
    "missing": (lambda path, config, tmp: path.unlink(), "No such file"),
    "truncated": (lambda path, config, tmp: path.write_text(path.read_text()[:200]),
                  "not valid JSON"),
    "not_json": (lambda path, config, tmp: path.write_text("cc-a-r0 keys"), "not valid JSON"),
    "unknown_field": (lambda path, config, tmp: _rewrite(
        path, lambda d: d["secrets"].update(colour="red")), "unknown key 'colour'"),
    "missing_field": (lambda path, config, tmp: _rewrite(
        path, lambda d: d["secrets"].pop("intro_share")), "missing key 'intro_share'"),
    "other_host": (lambda path, config, tmp: path.write_text(
        key_file(config, "dc-1-r0").read_text()), "dealt to 'dc-1-r0'"),
    "other_seed": (lambda path, config, tmp: path.write_text(
        _deal_other_seed(config, tmp)), "dealt for another spec"),
}


@pytest.mark.parametrize("damage", sorted(KEY_FILE_DAMAGE))
def test_a_bad_key_file_fails_startup_naming_its_path(dealt, tmp_path, damage):
    """One ConfigurationError naming the file, never a KeyError or a JSON
    traceback in the node log."""
    config, _ = dealt
    path = key_file(config, "cc-a-r0")
    original = path.read_text()
    mutate, expected = KEY_FILE_DAMAGE[damage]
    try:
        mutate(path, config, tmp_path)
        with pytest.raises(ConfigurationError, match=expected) as caught:
            _load(config, "cc-a-r0")
        assert str(path) in str(caught.value)
    finally:
        path.write_text(original)
        path.chmod(0o600)


def test_nodes_never_generate_keys(dealt, monkeypatch):
    """An executing replica, a storage replica and a client start from the
    dealt directory with every key generator made to raise."""
    from repro.rt.bootstrap import build_replica
    from repro.rt.node import NodeContext, client_node

    config, fleet = dealt

    def refuse(*_args, **_kwargs):
        raise AssertionError("a node process generated a key")

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro."):
            for name in ("generate_safe_prime", "generate_keypair"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)

    async def start():
        for host in (fleet[0].material.executing_hosts[0],
                     fleet[0].material.data_center_hosts[0]):
            ctx = NodeContext(config, host, role="replica")
            build_replica(ctx.env, ctx.material, host).store.close()
        ctx, proxy = client_node(config, "client-00")
        assert proxy.client_id == "client-00"

    asyncio.run(start())
