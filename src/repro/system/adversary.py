"""Byzantine adversary: compromising replicas (Section III-B).

The threat model allows up to f replicas to be *compromised*: fully
controlled by the attacker, colluding, behaving arbitrarily. This module
takes control of deployment replicas and makes them misbehave in the ways
the BFT literature (and the paper's discussion) cares about:

- ``MUTE`` — stop sending anything while still receiving (a crash that
  doesn't look like one),
- ``DELAY_ORDERING`` — the Prime-motivating attack: as leader, keep
  emitting heartbeats (so naive failure detectors stay happy) but stop
  proposing batches; Prime's progress detector must catch it,
- ``EQUIVOCATE`` — as leader, send conflicting proposals to different
  replicas; safety must hold regardless,
- ``CORRUPT_SHARES`` — emit garbage threshold-signature shares on the
  introduction and response paths; combination must reject them and
  succeed from honest shares,
- ``LEAK_KEYS`` — exfiltrate everything exfiltratable: client key
  schedules leak (bounded by key renewal), hardware keys do not (the
  keystore refuses).

Compromise is reversible (:meth:`Adversary.release`), modelling the
detection-and-proactive-recovery cycle: release, then recover the replica
to restore a clean state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.confidentiality import Sensitive
from repro.core.messages import ClientUpdate, IntroShare, ResponseShare, client_alias
from repro.core.executing import ExecutingReplica
from repro.core.replica import ReplicaBase
from repro.crypto.threshold import PartialSignature
from repro.errors import ConfigurationError, KeyExfiltrationError
from repro.prime.messages import Heartbeat, PrePrepare


class Behavior(enum.Enum):
    MUTE = "mute"
    DELAY_ORDERING = "delay-ordering"
    EQUIVOCATE = "equivocate"
    CORRUPT_SHARES = "corrupt-shares"
    LEAK_KEYS = "leak-keys"


@dataclass
class LootBag:
    """What the adversary managed to steal from a compromised replica."""

    client_keys: Dict[str, object] = field(default_factory=dict)
    # (start_seq, end_seq) of each leaked key epoch: with key renewal on,
    # these ranges bound what the stolen keys can ever decrypt — the V + x
    # disclosure bound the FaultLab invariant checks (Section V-D).
    client_epochs: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    hardware_key_refusals: int = 0


class Adversary:
    """Controls up to f compromised replicas in a deployment."""

    def __init__(self, deployment):
        self.deployment = deployment
        self._compromised: Dict[str, Set[Behavior]] = {}
        self.loot: Dict[str, LootBag] = {}

    @property
    def compromised_hosts(self) -> List[str]:
        return sorted(self._compromised)

    # -- taking control --------------------------------------------------------

    def compromise(self, host: str, *behaviors: Behavior) -> LootBag:
        """Seize ``host`` and install the given behaviours."""
        replica = self.deployment.replicas.get(host)
        if replica is None:
            raise ConfigurationError(f"unknown replica {host!r}")
        if len(self._compromised) >= self.deployment.plan.f and host not in self._compromised:
            raise ConfigurationError(
                f"threat model allows at most f={self.deployment.plan.f} "
                "simultaneous compromises"
            )
        active = self._compromised.setdefault(host, set())
        active.update(behaviors)
        bag = self.loot.setdefault(host, LootBag())
        if Behavior.LEAK_KEYS in active:
            self._plunder(replica, bag)
        replica.outbound_filter = self._make_filter(replica, active)
        if self.deployment.tracer:
            self.deployment.tracer.record(
                "adversary.compromise", host, behaviors=[b.value for b in active]
            )
        return bag

    def release(self, host: str) -> None:
        """Give up control (e.g. the compromise window ended)."""
        self._compromised.pop(host, None)
        replica = self.deployment.replicas.get(host)
        if replica is not None:
            replica.outbound_filter = None
        if self.deployment.tracer:
            self.deployment.tracer.record("adversary.release", host)

    def exfiltrate_plaintext(self, host: str, dst: Optional[str] = None) -> None:
        """Forward plaintext from ``host`` to a data-center replica.

        This models a compromised executing replica using its legitimate
        network access to ship application plaintext off-premises — the
        exact violation Definition 3 forbids. It exists so FaultLab can
        *plant* a confidentiality breach and prove the invariant checker
        catches it; the middleware itself never does this.
        """
        replica = self.deployment.replicas.get(host)
        if replica is None:
            raise ConfigurationError(f"unknown replica {host!r}")
        if not isinstance(replica, ExecutingReplica):
            raise ConfigurationError(
                f"{host!r} holds no plaintext to exfiltrate (storage replica)"
            )
        if dst is None:
            if not self.deployment.data_center_hosts:
                raise ConfigurationError("no data-center host to exfiltrate to")
            dst = self.deployment.data_center_hosts[0]
        stolen = ClientUpdate(
            client_id="adversary",
            client_seq=1,
            body=Sensitive(b"exfiltrated-state", label="exfiltrated-plaintext"),
        )
        self.deployment.network.send(host, dst, stolen)
        if self.deployment.tracer:
            self.deployment.tracer.record("adversary.exfiltrate", host, dst=dst)

    # -- behaviours ---------------------------------------------------------------

    def _make_filter(self, replica: ReplicaBase, behaviors: Set[Behavior]):
        def outbound(dst: str, message: object):
            if Behavior.MUTE in behaviors:
                return None
            if Behavior.DELAY_ORDERING in behaviors and isinstance(message, PrePrepare):
                # Keep heartbeats flowing; suppress actual ordering work.
                return Heartbeat(view=message.view)
            if Behavior.EQUIVOCATE in behaviors and isinstance(message, PrePrepare):
                return self._equivocate(dst, message)
            if Behavior.CORRUPT_SHARES in behaviors and isinstance(
                message, (IntroShare, ResponseShare)
            ):
                return self._corrupt_share(message)
            return message

        return outbound

    @staticmethod
    def _equivocate(dst: str, message: PrePrepare) -> PrePrepare:
        """Send different (inflated) cutoffs to half the destinations."""
        if hash(dst) % 2 == 0:
            return message
        inflated = {origin: cut + 1 for origin, cut in message.cutoffs.items()}
        return PrePrepare(view=message.view, seq=message.seq, cutoffs=inflated)

    @staticmethod
    def _corrupt_share(message):
        bogus = PartialSignature(signer=message.partial.signer, value=1234567)
        if isinstance(message, IntroShare):
            return IntroShare(
                alias=message.alias,
                client_seq=message.client_seq,
                update_digest=message.update_digest,
                partial=bogus,
            )
        return ResponseShare(
            client_id=message.client_id,
            client_seq=message.client_seq,
            response_digest=message.response_digest,
            partial=bogus,
        )

    def _plunder(self, replica: ReplicaBase, bag: LootBag) -> None:
        """Steal whatever the compromised host can read."""
        if isinstance(replica, ExecutingReplica):
            for alias in map(client_alias, self.deployment.env.client_registry):
                try:
                    schedule = replica.key_manager.schedule_for(alias)
                except Exception:
                    continue
                bag.client_keys[alias] = schedule.latest.keys
                bag.client_epochs[alias] = (
                    schedule.latest.start_seq,
                    schedule.latest.end_seq,
                )
        try:
            replica.keystore.export_keys()
        except KeyExfiltrationError:
            # The hardware says no — exactly the property Section V-D uses.
            bag.hardware_key_refusals += 1
