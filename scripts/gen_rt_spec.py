#!/usr/bin/env python
"""Write a live-fleet deployment spec (RtConfig JSON) to a shared path.

The docker compose fleet has no launcher process: every node container
derives its material independently from one spec file on the shared
``/fleet`` volume. This script is the compose fleet's init step — it
renders the spec exactly once (stamping the shared wall-clock epoch at
fleet start), then every replica/client container reads it.

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

from repro.rt.bootstrap import RtConfig  # noqa: E402
from repro.system.config import add_config_flags, config_from_args  # noqa: E402

KNOBS = (
    "mode", "f", "num_clients", "seed", "shards", "base_port",
    "updates_per_client", "update_interval", "durable_store",
    "load_profile", "load_rate", "load_aliases", "load_duration",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write spec.json")
    parser.add_argument("--out-dir", default="/fleet/out",
                        help="artifact directory inside the containers")
    add_config_flags(parser, RtConfig, KNOBS)
    args = parser.parse_args(argv)

    config = config_from_args(
        RtConfig, args, KNOBS, out_dir=args.out_dir, epoch=time.time()
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_suffix(".tmp")
    tmp.write_text(config.to_json() + "\n", encoding="utf-8")
    tmp.replace(out)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
