#!/usr/bin/env python
"""Generate the docker compose manifest for a live RtLab fleet.

One service per node process — every replica of the fleet's one
replica group, every client — plus:

* ``net``: an idle holder container whose network namespace every node
  joins (``network_mode: "service:net"``). The rt transport assumes one
  bind host with per-node ports, so the whole fleet shares one namespace
  exactly like the single-machine launcher does; scaling to genuinely
  separate machines means giving nodes distinct bind hosts, which the
  transport does not model yet.
* ``spec-init``: renders ``/fleet/spec.json`` and deals every node's
  key file once at fleet start (see ``scripts/gen_rt_spec.py``); every
  node waits for it.

Each node service carries a HEALTHCHECK probing the rt control plane's
``/health`` endpoint on that node's deterministic control port.

The committed ``docker/docker-compose.yml`` is this script's output for
the default topology; a test regenerates it and diffs, so the manifest
can never drift from the port/host derivation in ``repro.rt.bootstrap``.
Only hosts, sites and ports are needed, so no key is generated here.

    PYTHONPATH=src python scripts/gen_compose.py --out docker/docker-compose.yml
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.rt.bootstrap import RtConfig, fleet_layout, host_ports  # noqa: E402
from repro.system.config import (  # noqa: E402
    add_config_flags,
    config_argv,
    config_from_args,
)

#: The RtConfig fields this script takes as options and hands on to
#: ``gen_rt_spec.py`` in the spec-init service (the load ones only for an
#: open-loop fleet).
FLEET_KNOBS = ("mode", "f", "num_clients", "seed", "base_port")
LOAD_KNOBS = ("load_profile", "load_rate", "load_aliases", "load_duration")

HEALTH_CMD = ["CMD", "python", "scripts/rt_health.py"]


def _yaml(value, indent: int = 0) -> List[str]:
    """Tiny YAML emitter for the manifest's shape (dicts/lists/scalars).

    Good enough by construction: keys are plain identifiers, values are
    strings/numbers/bools; strings are always quoted so ports and host
    names never get YAML-typed.
    """
    pad = "  " * indent
    lines: List[str] = []
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, (dict, list)) and item:
                lines.append(f"{pad}{key}:")
                lines.extend(_yaml(item, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar(item)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                sub = _yaml(item, indent + 1)
                lines.append(f"{pad}- {sub[0].strip()}")
                lines.extend(sub[1:])
            else:
                lines.append(f"{pad}- {_scalar(item)}")
    return lines


def _scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, (dict, list)):  # empty container
        return "{}" if isinstance(value, dict) else "[]"
    return '"' + str(value).replace('"', '\\"') + '"'


def build_compose(config: RtConfig) -> Dict:
    layout = fleet_layout(config)
    ports = host_ports(layout, config.base_port)
    depends = {
        "net": {"condition": "service_started"},
        "spec-init": {"condition": "service_completed_successfully"},
    }

    def node_service(role: str, env: Dict[str, str], control_port: int) -> Dict:
        return {
            "image": f"repro-{role}",
            "build": {"context": "..", "dockerfile": f"docker/Dockerfile.{role}"},
            "network_mode": "service:net",
            "environment": dict(env, NODE_CONTROL_PORT=str(control_port)),
            "volumes": ["fleet-data:/fleet"],
            "depends_on": dict(depends),
            "healthcheck": {
                "test": list(HEALTH_CMD),
                "interval": "5s",
                "timeout": "3s",
                "retries": 24,
                "start_period": "10s",
            },
            "restart": "no",
        }

    services: Dict[str, Dict] = {
        "net": {
            "image": "repro-base",
            "build": {"context": "..", "dockerfile": "docker/Dockerfile.base"},
            "command": ["sleep", "infinity"],
            "restart": "no",
        },
        "spec-init": {
            "image": "repro-base",
            "build": {"context": "..", "dockerfile": "docker/Dockerfile.base"},
            "command": [
                "python", "scripts/gen_rt_spec.py",
                "--out", "/fleet/spec.json",
            ] + config_argv(
                config, FLEET_KNOBS + ("updates_per_client", "update_interval")
            ) + (config_argv(config, LOAD_KNOBS) if config.load_profile else []),
            "volumes": ["fleet-data:/fleet"],
            "depends_on": {"net": {"condition": "service_started"}},
            "restart": "no",
        },
    }

    for host in sorted(layout.all_hosts):
        services[host] = node_service(
            "replica", {"NODE_HOST": host}, ports[host][1]
        )
    for client_id in sorted(layout.client_ids):
        proxy_host = layout.proxy_of_client[client_id]
        services[client_id] = node_service(
            "client", {"NODE_CLIENT": client_id}, ports[proxy_host][1]
        )

    return {
        "name": "repro-fleet",
        "services": services,
        "volumes": {"fleet-data": {}},
    }


def render(config: RtConfig) -> str:
    header = (
        "# Generated by scripts/gen_compose.py — do not edit by hand.\n"
        "# Regenerate: PYTHONPATH=src python scripts/gen_compose.py "
        "--out docker/docker-compose.yml\n"
    )
    return header + "\n".join(_yaml(build_compose(config))) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None,
                        help="write here (default: stdout)")
    add_config_flags(parser, RtConfig, FLEET_KNOBS + LOAD_KNOBS)
    args = parser.parse_args(argv)

    config = config_from_args(RtConfig, args, FLEET_KNOBS + LOAD_KNOBS)
    text = render(config)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
