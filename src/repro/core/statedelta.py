"""Deterministic state-snapshot deltas for CompactLab checkpoints.

A checkpoint state document is a JSON-able dict (see
``ExecutingReplica.state_doc``). Between full snapshots the
checkpoint chain carries *diffs* of consecutive documents instead of the
whole state, so checkpoint wire/disk bytes track the change rate rather
than the state size.

The diff format is itself a JSON-able dict so the existing deterministic
``json.dumps(..., sort_keys=True)`` + hardware-key encryption pipeline
applies unchanged (digest voting relies on every correct replica
producing bit-identical blobs):

    {"set": {key: new_value, ...},      # added or replaced top-level keys
     "sub": {key: <nested diff>, ...},  # recursive diff of dict values
     "del": [key, ...]}                 # removed keys (sorted)

Only dict values recurse; any other changed value is replaced wholesale.
Keys are only ever strings here (JSON round-trips guarantee it), which
keeps ``del`` sorting and digest determinism trivial.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

__all__ = ["diff_state", "apply_delta", "apply_chain", "is_empty_delta"]


def diff_state(old: Dict, new: Dict) -> Dict:
    """Return a delta ``d`` such that ``apply_delta(old, d) == new``."""
    if not isinstance(old, dict) or not isinstance(new, dict):
        raise TypeError("state documents must be dicts")
    out: Dict = {}
    set_part: Dict = {}
    sub_part: Dict = {}
    for key, value in new.items():
        if key not in old:
            set_part[key] = value
            continue
        prev = old[key]
        if prev == value:
            continue
        if isinstance(prev, dict) and isinstance(value, dict):
            sub_part[key] = diff_state(prev, value)
        else:
            set_part[key] = value
    removed: List = sorted(key for key in old if key not in new)
    if set_part:
        out["set"] = set_part
    if sub_part:
        out["sub"] = sub_part
    if removed:
        out["del"] = removed
    return out


def apply_delta(state: Dict, delta: Dict) -> Dict:
    """Apply one delta, returning a new document (input left untouched)."""
    if not isinstance(state, dict) or not isinstance(delta, dict):
        raise TypeError("state and delta must be dicts")
    unknown = set(delta) - {"set", "sub", "del"}
    if unknown:
        raise ValueError(f"malformed delta: unknown sections {sorted(unknown)}")
    out = dict(state)
    for key in delta.get("del", ()):  # removals first: set may re-add
        out.pop(key, None)
    for key, nested in delta.get("sub", {}).items():
        base = out.get(key)
        if not isinstance(base, dict):
            raise ValueError(f"delta recurses into non-dict key {key!r}")
        out[key] = apply_delta(base, nested)
    for key, value in delta.get("set", {}).items():
        out[key] = value
    return out


def apply_chain(full: Dict, deltas: Iterable[Dict]) -> Dict:
    """Fold a contiguous delta chain onto its full-snapshot anchor."""
    state = full
    for delta in deltas:
        state = apply_delta(state, delta)
    return state


def is_empty_delta(delta: Dict) -> bool:
    return not delta
