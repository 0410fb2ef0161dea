"""The committed compose manifest must match its generator.

``docker/docker-compose.yml`` is generated from the same host/port
derivation the rt nodes use (``repro.rt.bootstrap``); this test
regenerates it and diffs, so a topology or port change can never leave a
stale manifest behind.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_gen_compose():
    spec = importlib.util.spec_from_file_location(
        "gen_compose", REPO_ROOT / "scripts" / "gen_compose.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_manifest_is_generator_output():
    gen = _load_gen_compose()
    from repro.rt.bootstrap import RtConfig

    expected = gen.render(RtConfig())
    committed = (REPO_ROOT / "docker" / "docker-compose.yml").read_text()
    assert committed == expected, (
        "docker/docker-compose.yml is stale; regenerate with "
        "PYTHONPATH=src python scripts/gen_compose.py "
        "--out docker/docker-compose.yml"
    )


def test_every_node_has_healthcheck_and_spec_dependency():
    gen = _load_gen_compose()
    from repro.rt.bootstrap import RtConfig, fleet_layout

    config = RtConfig()
    compose = gen.build_compose(config)
    layout = fleet_layout(config)
    node_count = len(layout.all_hosts) + len(layout.client_ids)
    services = compose["services"]
    nodes = {name: svc for name, svc in services.items()
             if name not in ("net", "spec-init")}
    assert len(nodes) == node_count
    for name, svc in nodes.items():
        assert svc["network_mode"] == "service:net", name
        assert svc["healthcheck"]["test"][:2] == ["CMD", "python"], name
        assert "NODE_CONTROL_PORT" in svc["environment"], name
        assert (svc["depends_on"]["spec-init"]["condition"]
                == "service_completed_successfully"), name


def test_control_ports_match_bootstrap_derivation():
    gen = _load_gen_compose()
    from repro.rt.bootstrap import RtConfig, fleet_layout, host_ports

    config = RtConfig()
    compose = gen.build_compose(config)
    services = compose["services"]
    layout = fleet_layout(config)
    ports = host_ports(layout, config.base_port)
    for host in layout.all_hosts:
        svc = services[host]
        assert svc["environment"]["NODE_CONTROL_PORT"] == str(ports[host][1])
    for client_id in layout.client_ids:
        proxy = layout.proxy_of_client[client_id]
        svc = services[client_id]
        assert svc["environment"]["NODE_CONTROL_PORT"] == str(ports[proxy][1])
