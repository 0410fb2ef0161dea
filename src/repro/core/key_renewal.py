"""Automatic client key renewal (Section V-D).

Client key pairs are only valid for a bounded range of client sequence
numbers. Near the end of the active range, every on-premises replica
independently generates fresh randomness and proposes it — encrypted under
the hardware-protected key, so data-center replicas store the proposal
without learning it — by injecting it into the global order. The first
f+1 *valid* ordered proposals for a range determine the new key pair
deterministically (they include randomness from at least one correct
replica, so no coalition of f compromised replicas controls key choice).

Validity enforces logical time: a proposal for range [rs, re] only counts
if, at its ordering point, the client's ordered sequence has reached at
least ``rs - 1 - x`` (the slack parameter ``x``). This is what bounds the
disclosure window after a compromise: keys leaked by a replica can decrypt
at most ``V + x`` updates issued after that replica is recovered.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Set, Tuple

from repro.core.encryption import KeyEpoch
from repro.core.messages import KeyProposal
from repro.crypto.symmetric import derive_keypair
from repro.errors import KeyScheduleError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.executing import ExecutingReplica

RangeKey = Tuple[str, int]  # (alias, range_start)


class KeyRenewalManager:
    """Key renewal for one executing (on-premises) replica."""

    def __init__(self, replica: "ExecutingReplica"):
        self._replica = replica
        metrics = replica.metrics
        self._m_proposals = metrics.counter("keyrenew.proposals")
        self._m_completed = metrics.counter("keyrenew.completed")
        self._m_hw_encrypt = metrics.counter("crypto.hw.encrypt")
        self._m_hw_decrypt = metrics.counter("crypto.hw.decrypt")
        config = replica.env.config
        self.validity = config.key_validity
        self.slack = config.key_slack
        self.enabled = config.key_renewal_enabled
        # Ordered, decrypted proposal seeds per pending range.
        self._pending: Dict[RangeKey, List[Tuple[str, bytes]]] = {}
        self._completed: Set[RangeKey] = set()
        self._my_proposals: Set[RangeKey] = set()
        self.renewals_completed = 0

    # -- trigger: watch client progress --------------------------------------------

    def on_client_progress(self, alias: str) -> None:
        """Called after each ordered update for ``alias``; maybe propose."""
        if not self.enabled:
            return
        replica = self._replica
        try:
            schedule = replica.key_manager.schedule_for(alias)
        except KeyScheduleError:
            return
        current_end = schedule.latest.end_seq
        ordered_seq = replica.executed_seq(alias)
        if ordered_seq < current_end - self.slack + 1:
            return
        range_key = (alias, current_end + 1)
        if range_key in self._my_proposals or range_key in self._completed:
            return
        self._my_proposals.add(range_key)
        self._propose(alias, current_end + 1, current_end + self.validity)

    def _propose(self, alias: str, range_start: int, range_end: int) -> None:
        replica = self._replica
        seed = replica.draw_random_bytes(32)
        self._m_proposals.inc()
        self._m_hw_encrypt.inc()
        encrypted_seed = replica.keystore.hardware_encrypt(seed)
        proposal = KeyProposal(
            alias=alias,
            range_start=range_start,
            range_end=range_end,
            proposer=replica.host,
            encrypted_seed=encrypted_seed,
        )
        replica.trace("keyrenew.propose", alias=alias, start=range_start)
        replica.inject(proposal)

    # -- ordered proposals ------------------------------------------------------------

    def on_ordered_proposal(self, proposal: KeyProposal) -> None:
        """Process a proposal at its position in the global order."""
        if not self.enabled:
            return
        replica = self._replica
        range_key = (proposal.alias, proposal.range_start)
        if range_key in self._completed:
            return
        if not self._valid_at_ordering(proposal):
            replica.trace(
                "keyrenew.invalid",
                alias=proposal.alias,
                start=proposal.range_start,
                proposer=proposal.proposer,
            )
            return
        seeds = self._pending.setdefault(range_key, [])
        if any(proposer == proposal.proposer for proposer, _ in seeds):
            return
        self._m_hw_decrypt.inc()
        seed = replica.keystore.hardware_decrypt(proposal.encrypted_seed)
        seeds.append((proposal.proposer, seed))
        if len(seeds) >= replica.f + 1:
            self._complete(proposal, seeds[: replica.f + 1])

    def _valid_at_ordering(self, proposal: KeyProposal) -> bool:
        """Logical-time validity (the slack rule) plus schedule contiguity."""
        replica = self._replica
        if proposal.proposer not in replica.env.on_premises:
            return False
        if proposal.range_end - proposal.range_start + 1 != self.validity:
            return False
        try:
            schedule = replica.key_manager.schedule_for(proposal.alias)
        except KeyScheduleError:
            return False
        if proposal.range_start != schedule.latest.end_seq + 1:
            return False
        ordered_seq = replica.executed_seq(proposal.alias)
        return ordered_seq >= proposal.range_start - 1 - self.slack

    def _complete(self, proposal: KeyProposal, seeds: List[Tuple[str, bytes]]) -> None:
        """Derive the new epoch from the first f+1 valid ordered proposals."""
        replica = self._replica
        range_key = (proposal.alias, proposal.range_start)
        material = b"|".join(
            proposer.encode("utf-8") + b":" + seed for proposer, seed in seeds
        )
        context = f"{proposal.alias}|{proposal.range_start}|{proposal.range_end}"
        keys = derive_keypair(material + context.encode("utf-8"))
        epoch = KeyEpoch(
            start_seq=proposal.range_start, end_seq=proposal.range_end, keys=keys
        )
        replica.key_manager.schedule_for(proposal.alias).extend(epoch)
        self._completed.add(range_key)
        self._pending.pop(range_key, None)
        self.renewals_completed += 1
        self._m_completed.inc()
        replica.trace(
            "keyrenew.complete", alias=proposal.alias, start=proposal.range_start
        )
        replica.intro.drain_awaiting_keys(proposal.alias)

    # -- checkpoint integration ----------------------------------------------------------

    def to_state(self) -> Dict:
        """Pending-proposal state for inclusion in encrypted checkpoints."""
        return {
            "pending": {
                f"{alias}|{start}": [
                    [proposer, seed.hex()] for proposer, seed in seeds
                ]
                for (alias, start), seeds in sorted(self._pending.items())
            },
            "completed": sorted(f"{a}|{s}" for a, s in self._completed),
        }

    def restore_state(self, state: Dict) -> None:
        self._pending = {}
        for key, seeds in state.get("pending", {}).items():
            alias, start = key.rsplit("|", 1)
            self._pending[(alias, int(start))] = [
                (proposer, bytes.fromhex(seed_hex)) for proposer, seed_hex in seeds
            ]
        self._completed = set()
        for key in state.get("completed", []):
            alias, start = key.rsplit("|", 1)
            self._completed.add((alias, int(start)))
