#!/usr/bin/env python
"""Write a live-fleet deployment spec (RtConfig JSON) and deal its keys.

The docker compose fleet has no launcher process, so this script — the
compose fleet's init step — is its one-time dealer. It renders the spec
exactly once (stamping the shared wall-clock epoch at fleet start) and
writes one key file per node under ``<out-dir>/keys/<host>.json`` on the
shared ``/fleet`` volume, mode 0600, holding only what that node's role
uses. Every replica/client container then reads the spec and its own
key file; none generates a key.

Flags are generated from the :class:`repro.rt.bootstrap.RtConfig` fields
the fleet manifest exposes (``KNOBS``), so spelling and defaults are the
config's own.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.rt.bootstrap import RtConfig, generate_fleet  # noqa: E402
from repro.rt.keys import write_key_files  # noqa: E402
from repro.system.config import add_config_flags, config_from_args  # noqa: E402

KNOBS = (
    "mode", "f", "num_clients", "seed", "base_port",
    "updates_per_client", "update_interval", "durable_store",
    "load_profile", "load_rate", "load_aliases", "load_duration",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write spec.json")
    parser.add_argument("--out-dir", default="/fleet/out",
                        help="artifact directory inside the containers; "
                             "key files go to its keys/")
    add_config_flags(parser, RtConfig, KNOBS)
    args = parser.parse_args(argv)

    config = config_from_args(
        RtConfig, args, KNOBS, out_dir=args.out_dir, epoch=time.time()
    )
    # Keys first: a node that sees the spec finds its key file beside it.
    keys = write_key_files(config, generate_fleet(config))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_suffix(".tmp")
    tmp.write_text(config.to_json() + "\n", encoding="utf-8")
    tmp.replace(out)
    print(f"wrote {out} and {len(keys)} key files under {keys[0].parent}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
