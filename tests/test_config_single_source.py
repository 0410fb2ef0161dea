"""One protocol config: every knob declared once, carried by reference.

The two reference files under ``tests/data`` were generated against the
parent of the config rewrite (``python -m tests.test_config_single_source``
writes them only when absent) and are not edited afterwards: they prove the
CLI surface and the spec-file format did not move.
"""

import argparse
import enum
import json
from dataclasses import fields
from pathlib import Path

import pytest

from repro import cli
from repro.cli import make_parser
from repro.core.replica import ReplicaEnv
from repro.faultlab.runner import FaultLabConfig
from repro.faultlab.shardfaults import ShardFaultLabConfig
from repro.rt.bootstrap import LOAD_PROFILES, RtConfig
from repro.system.config import (
    Mode,
    ProtocolConfig,
    SystemConfig,
    add_config_flags,
    config_argv,
    config_from_args,
)

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


# -- one declaration per knob ---------------------------------------------------

#: Deliberately live-scaled defaults: RtConfig re-declares these five
#: inherited fields (each with the comment that says why) and nothing else.
LIVE_SCALED = {"num_clients", "update_interval", "pp_interval", "vc_timeout",
               "failover_delay"}

#: Every shared knob off its default (and a valid deployment).
SHARED_NON_DEFAULT = {
    name: NON_DEFAULT_SPEC[name] for name in (f.name for f in fields(ProtocolConfig))
}


def _declared(cls) -> set:
    """Field names written out in ``cls``'s own body (not inherited)."""
    return set(cls.__dict__.get("__annotations__", {}))


def test_every_knob_is_declared_in_exactly_one_place():
    classes = (ProtocolConfig, SystemConfig, RtConfig, ReplicaEnv)
    seen: dict = {}
    for cls in classes:
        for name in _declared(cls):
            seen.setdefault(name, []).append(cls.__name__)
    twice = {name: owners for name, owners in seen.items() if len(owners) > 1}
    assert set(twice) == LIVE_SCALED
    assert all(owners == ["ProtocolConfig", "RtConfig"] for owners in twice.values())
    for name in LIVE_SCALED:  # an override that changes nothing is a copy
        assert (RtConfig.__dataclass_fields__[name].default
                != ProtocolConfig.__dataclass_fields__[name].default)
    assert len(_declared(ProtocolConfig)) == 19
    assert len(_declared(ReplicaEnv)) <= 18
    assert sum(len(_declared(cls)) for cls in classes) <= 79


def test_system_config_projections_carry_every_shared_field():
    assert set(SHARED_NON_DEFAULT) == {f.name for f in fields(ProtocolConfig)}
    defaults = ProtocolConfig()
    live = RtConfig(**SHARED_NON_DEFAULT)
    projected = live.system_config()
    for name, value in SHARED_NON_DEFAULT.items():
        assert getattr(defaults, name) != getattr(live, name), name
        expected = Mode(value) if name == "mode" else value
        assert getattr(projected, name) == expected, name
    # The lab configs project the same way: every field they share with
    # SystemConfig by name arrives, plus the seed they are asked for.
    for lab in (FaultLabConfig(f=2, intro_batch_size=4, store_fsync="always"),
                ShardFaultLabConfig(shards=3, num_clients=9)):
        config = lab.system_config(seed=77)
        assert config.seed == 77
        shared = {f.name for f in fields(lab)} & {f.name for f in fields(config)}
        assert len(shared) >= 7
        for name in shared:
            assert getattr(config, name) == getattr(lab, name), name


def test_mode_accepts_the_enum_or_its_string_and_serialises_as_the_string():
    assert RtConfig(mode="spire").mode is Mode.SPIRE
    assert SystemConfig(mode="spire") == SystemConfig(mode=Mode.SPIRE)
    assert json.loads(RtConfig(mode=Mode.SPIRE).to_json())["mode"] == "spire"


def test_live_load_profiles_are_the_arrival_profiles():
    from repro.load.arrivals import PROFILES

    assert LOAD_PROFILES == ("",) + PROFILES


# -- flag -> config ---------------------------------------------------------------


def _off_default(spec):
    """argv fragment moving one generated option off its default."""
    option = spec.metadata["flag"]
    if isinstance(spec.default, bool):
        return [option]
    if isinstance(spec.default, enum.Enum):
        other = next(m for m in type(spec.default) if m is not spec.default)
        return [option, other.value]
    if "choices" in spec.metadata:
        return [option, spec.metadata["choices"][-1]]
    if isinstance(spec.default, str):
        return [option, spec.default + "-x"]
    return [option, str(spec.default + 1)]


@pytest.mark.parametrize("cls, names", [
    (SystemConfig, cli._RUN_KNOBS),
    (SystemConfig, cli._OBS_KNOBS),
    (SystemConfig, cli._COMPARE_KNOBS),
    (RtConfig, cli._RT_KNOBS),
    (FaultLabConfig, cli._FAULTLAB_KNOBS),
])
def test_every_generated_flag_reaches_its_field(cls, names):
    parser = argparse.ArgumentParser()
    add_config_flags(parser, cls, names)
    by_name = {f.name: f for f in fields(cls)}
    untouched = config_from_args(cls, parser.parse_args([]), names)
    assert untouched == cls()
    for name in names:
        args = parser.parse_args(_off_default(by_name[name]))
        config = config_from_args(cls, args, names)
        assert getattr(config, name) != getattr(untouched, name), name
        changed = {f.name for f in fields(cls)
                   if getattr(config, f.name) != getattr(untouched, f.name)}
        assert changed == {name}


def test_config_argv_is_the_inverse_of_config_from_args():
    names = [f.name for f in fields(RtConfig)
             if "flag" in f.metadata and not isinstance(f.default, bool)]
    config = RtConfig(**NON_DEFAULT_SPEC)
    parser = argparse.ArgumentParser()
    add_config_flags(parser, RtConfig, names)
    parsed = config_from_args(RtConfig, parser.parse_args(config_argv(config, names)), names)
    for name in names:
        assert getattr(parsed, name) == getattr(config, name), name


# -- malformed specs die where they are read ------------------------------------


def test_rt_node_prints_a_bad_spec_and_exits_2(tmp_path, capsys):
    spec = json.loads(RtConfig().to_json())
    spec["checkpoint_delta_intervall"] = spec.pop("checkpoint_delta_interval")
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["rt", "node", "--spec", str(path), "--host", "cc-a-r0"]) == 2
    err = capsys.readouterr().err
    assert "'checkpoint_delta_intervall'" in err
    assert "'checkpoint_delta_interval'" in err


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
