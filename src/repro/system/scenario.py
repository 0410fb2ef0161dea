"""Declarative scenarios: describe an experiment, run it, check it.

A scenario is plain data (a dict, usually loaded from JSON): the system
configuration, a workload, a timeline of attack/recovery events, and
optional latency expectations. The Figure 2 benchmark is one scenario;
operators exploring "what does a 30-second DoS against my backup control
center do?" write another without touching library code. The CLI runs
them with ``python -m repro scenario my.json``.

Schema (all times in seconds)::

    {
      "name": "leader site DoS",
      "config": {"mode": "confidential", "f": 1, "num_clients": 10,
                  "seed": 7},                    # SystemConfig fields
      "workload": {"duration": 120.0, "interval": 1.0},
      "events": [
        {"at": 30.0, "action": "isolate", "site": "cc-a"},
        {"at": 60.0, "action": "reconnect", "site": "cc-a"},
        {"at": 80.0, "action": "recover", "replica": "cc-b-r1",
         "duration": 5.0},
        {"at": 90.0, "action": "degrade", "site": "dc-1"},
        {"at": 100.0, "action": "restore", "site": "dc-1"},
        {"at": 40.0, "action": "compromise", "replica": "cc-a-r0",
         "behaviors": ["corrupt-shares"]},
        {"at": 55.0, "action": "release", "replica": "cc-a-r0"}
      ],
      "run_until": 130.0,
      "expect": {"pct_under_200ms": 99.0, "max_latency_ms": 500.0,
                  "all_complete": true, "confidential": true,
                  "converged": true, "invariants": true}
    }

``"invariants": true`` attaches the FaultLab invariant checker (see
``docs/FAULTLAB.md``) for the whole run, with quiescence at the last
scheduled event; the scenario then also fails on any safety/liveness
invariant violation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict

from repro.errors import ConfigurationError
from repro.system.adversary import Adversary, Behavior
from repro.system.builder import Deployment, build
from repro.system.config import SystemConfig

_ACTIONS = ("isolate", "reconnect", "degrade", "restore", "recover",
            "compromise", "release")


@dataclass
class ScenarioResult:
    """What happened: the deployment plus pass/fail per expectation."""

    name: str
    deployment: Deployment
    checks: Dict[str, bool] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def summary(self) -> str:
        lines = [f"scenario: {self.name} — {'PASS' if self.passed else 'FAIL'}"]
        stats = self.deployment.recorder.stats()
        if stats.is_empty:
            lines.append("  (no completed updates)")
        else:
            lines.append(stats.row("  latency"))
        for check, ok in sorted(self.checks.items()):
            lines.append(f"  {'PASS' if ok else 'FAIL'}  {check}")
        return "\n".join(lines)


def load_scenario(path: str) -> Dict[str, Any]:
    """Load and structurally validate a scenario file."""
    with open(path) as handle:
        scenario = json.load(handle)
    validate_scenario(scenario)
    return scenario


def validate_scenario(scenario: Dict[str, Any]) -> None:
    if not isinstance(scenario.get("name"), str):
        raise ConfigurationError("scenario needs a string 'name'")
    for event in scenario.get("events", []):
        action = event.get("action")
        if action not in _ACTIONS:
            raise ConfigurationError(f"unknown scenario action {action!r}")
        if "at" not in event:
            raise ConfigurationError(f"event {event} missing 'at'")
        if action in ("isolate", "reconnect", "degrade", "restore"):
            if "site" not in event:
                raise ConfigurationError(f"{action} event needs 'site'")
        else:
            if "replica" not in event:
                raise ConfigurationError(f"{action} event needs 'replica'")


def run_scenario(scenario: Dict[str, Any]) -> ScenarioResult:
    """Build, script, run, and evaluate one scenario."""
    validate_scenario(scenario)
    config = SystemConfig(**scenario.get("config", {}))
    deployment = build(config)
    deployment.start()

    workload = scenario.get("workload", {})
    duration = float(workload.get("duration", 30.0))
    deployment.start_workload(
        duration=duration, interval=workload.get("interval")
    )

    adversary = Adversary(deployment)
    for event in scenario.get("events", []):
        _schedule_event(deployment, adversary, event)

    run_until = float(scenario.get("run_until", duration + 5.0))
    expect = scenario.get("expect", {})

    checker = None
    if expect.get("invariants"):
        # Lazy import: repro.faultlab imports from repro.system, so the
        # checker must be pulled in here, not at module load.
        from repro.faultlab.invariants import InvariantChecker

        last_event = max(
            (float(e["at"]) for e in scenario.get("events", [])), default=0.0
        )
        checker = InvariantChecker(
            deployment, adversary, quiesce_at=last_event
        ).attach()

    deployment.run(until=run_until)

    checks = _evaluate(deployment, expect)
    if checker is not None:
        report = checker.finish()
        checks["invariants hold"] = report.ok
    return ScenarioResult(name=scenario["name"], deployment=deployment, checks=checks)


def _schedule_event(deployment: Deployment, adversary: Adversary, event: Dict) -> None:
    at = float(event["at"])
    action = event["action"]
    if action == "isolate":
        deployment.kernel.call_at(at, deployment.attacks.isolate_site, event["site"])
    elif action == "reconnect":
        deployment.kernel.call_at(at, deployment.attacks.reconnect_site, event["site"])
    elif action == "degrade":
        deployment.kernel.call_at(
            at,
            deployment.attacks.degrade_site,
            event["site"],
            float(event.get("bandwidth_divisor", 10.0)),
            float(event.get("added_latency", 0.020)),
            float(event.get("loss", 0.02)),
        )
    elif action == "restore":
        deployment.kernel.call_at(at, deployment.attacks.restore_site, event["site"])
    elif action == "recover":
        deployment.recovery.schedule_recovery(
            event["replica"], at, float(event.get("duration", 5.0))
        )
    elif action == "compromise":
        behaviors = [Behavior(b) for b in event.get("behaviors", ["mute"])]
        deployment.kernel.call_at(at, adversary.compromise, event["replica"], *behaviors)
    elif action == "release":
        deployment.kernel.call_at(at, adversary.release, event["replica"])


def _evaluate(deployment: Deployment, expect: Dict[str, Any]) -> Dict[str, bool]:
    checks: Dict[str, bool] = {}
    stats = deployment.recorder.stats()
    if stats.is_empty:
        stats = None
    if "pct_under_100ms" in expect:
        checks[f"pct_under_100ms >= {expect['pct_under_100ms']}"] = (
            stats is not None and stats.pct_under_100ms >= float(expect["pct_under_100ms"])
        )
    if "pct_under_200ms" in expect:
        checks[f"pct_under_200ms >= {expect['pct_under_200ms']}"] = (
            stats is not None and stats.pct_under_200ms >= float(expect["pct_under_200ms"])
        )
    if "avg_latency_ms" in expect:
        checks[f"avg <= {expect['avg_latency_ms']}ms"] = (
            stats is not None and stats.average * 1000 <= float(expect["avg_latency_ms"])
        )
    if "max_latency_ms" in expect:
        checks[f"max <= {expect['max_latency_ms']}ms"] = (
            stats is not None
            and deployment.recorder.max_latency() * 1000 <= float(expect["max_latency_ms"])
        )
    if expect.get("all_complete"):
        checks["all updates complete"] = all(
            proxy.outstanding == 0 for proxy in deployment.proxies.values()
        )
    if expect.get("converged"):
        ordinals = {r.executed_ordinal() for r in deployment.replicas.values() if r.online}
        checks["replicas converged"] = len(ordinals) == 1
    if expect.get("confidential"):
        dirty = deployment.auditor.exposed_hosts & set(deployment.data_center_hosts)
        checks["no data-center plaintext exposure"] = not dirty
    return checks
