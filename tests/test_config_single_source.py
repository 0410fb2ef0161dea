"""One protocol config: every knob declared once, carried by reference.

The two reference files under ``tests/data`` were generated against the
parent of the config rewrite (``python -m tests.test_config_single_source``
writes them only when absent) and are not edited afterwards: they prove the
CLI surface and the spec-file format did not move.
"""

import argparse
import json
from pathlib import Path

from repro.cli import make_parser
from repro.rt.bootstrap import RtConfig

DATA = Path(__file__).parent / "data"
CLI_FLAGS_PATH = DATA / "cli_flags.json"
RT_SPEC_PATH = DATA / "rt_spec_parent.json"

#: One spec with every RtConfig field off its default.
NON_DEFAULT_SPEC = dict(
    mode="spire", f=2, data_centers=3, num_clients=7, seed=41, shards=2,
    shard_port_stride=300, updates_per_client=9, update_interval=0.07,
    pp_interval=0.04, vc_timeout=2.5, failover_delay=0.4,
    retransmit_timeout=1.5, checkpoint_interval=40, base_port=19000,
    bind_host="0.0.0.0", latency=False, epoch=1234.5, out_dir="/tmp/spec-out",
    durable_store=False, store_fsync="always", store_segment_bytes=4096,
    checkpoint_delta_interval=3, store_compaction_interval=1.5,
    store_compaction_budget=4, intro_batch_size=8, intro_batch_window=0.05,
    crypto_workers=2, trace_wire=False, telemetry_interval=0.5,
    detectors=False, load_profile="bursty", load_rate=12.5, load_aliases=50,
    load_duration=3.0, load_max_inflight=16, load_deadline=2.0,
    load_keyspace=8, load_value_bytes=64, load_profile_params={"duty": 0.25},
)


def parser_flags(parser: argparse.ArgumentParser, prefix: str = "") -> dict:
    """``{subcommand path: {first option string: flag description}}``."""
    out: dict = {}
    flags = out.setdefault(prefix.strip() or "(top)", {})
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                out.update(parser_flags(child, f"{prefix} {name}"))
            continue
        key = action.option_strings[0] if action.option_strings else action.dest
        flags[key] = {
            "option_strings": list(action.option_strings),
            "dest": action.dest,
            "action": type(action).__name__,
            "type": action.type.__name__ if action.type else None,
            "default": action.default,
            "choices": list(action.choices) if action.choices is not None else None,
            "help": action.help,
            "metavar": action.metavar,
            "required": action.required,
            "nargs": action.nargs,
        }
    return out


def test_parser_reproduces_the_parent_flag_surface():
    expected = json.loads(CLI_FLAGS_PATH.read_text())
    actual = parser_flags(make_parser())
    assert sorted(actual) == sorted(expected)
    for command in expected:
        assert actual[command] == expected[command], command


def test_parent_specs_load_and_reserialise_byte_identically():
    for name, text in json.loads(RT_SPEC_PATH.read_text()).items():
        assert RtConfig.from_json(text).to_json() == text, name


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    if not CLI_FLAGS_PATH.exists():
        CLI_FLAGS_PATH.write_text(
            json.dumps(parser_flags(make_parser()), indent=1, sort_keys=True) + "\n"
        )
    if not RT_SPEC_PATH.exists():
        RT_SPEC_PATH.write_text(json.dumps({
            "default": RtConfig().to_json(),
            "non_default": RtConfig(**NON_DEFAULT_SPEC).to_json(),
        }, indent=1, sort_keys=True) + "\n")
