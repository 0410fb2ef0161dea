"""The paper's contribution: partially cloud-based confidential BFT.

- :mod:`repro.core.distribution` — replica placement rules (Table I),
- :mod:`repro.core.intro` — threshold-signed introduction of encrypted
  client updates (Section V-A),
- :mod:`repro.core.checkpoint` — correct/stable encrypted checkpoints
  (Section V-C),
- :mod:`repro.core.state_transfer` — catch-up from data-center replicas
  alone (Section V-C),
- :mod:`repro.core.key_renewal` — bounded-disclosure key rotation
  (Section V-D),
- :mod:`repro.core.replica` — what a data-center replica runs: the
  replica base (ordering glue, durable storage, recovery) and the storage
  role; imports nothing below the trust boundary (Section IV-A),
- :mod:`repro.core.executing` — the executing role: application, client
  keys, execution, encrypted snapshots (the CP-ITM middleware of
  Section VI),
- :mod:`repro.core.response` — threshold-certified responses
  (Sections V-B, V-C),
- :mod:`repro.core.shares` — the collect-partials-then-combine state
  machine introduction and responses share,
- :mod:`repro.core.proxy` — client proxies,
- :mod:`repro.core.confidentiality` — plaintext-exposure auditing,
- :mod:`repro.core.encryption` — per-client key schedules,
- :mod:`repro.core.app` — the deterministic application interface,
- :mod:`repro.core.messages` — the CP-ITM message dataclasses. A new
  message is a dataclass there, a row in ``repro.net.codec._MESSAGES`` and
  a byte vector (``python -m tests.test_net_codec``), nothing else: both
  substrates size it by its encoding.
"""

from repro.core.app import Application, KeyValueApplication
from repro.core.confidentiality import Auditor, Sensitive
from repro.core.distribution import (
    DistributionPlan,
    minimum_k_confidential,
    plan_confidential,
    plan_spire,
    spire_site_bound,
    table_one,
)
from repro.core.encryption import ClientKeySchedule, KeyEpoch, KeyManager
from repro.core.messages import (
    ClientResponse,
    ClientUpdate,
    EncryptedUpdate,
    KeyProposal,
    client_alias,
)
from repro.core.proxy import ClientProxy
from repro.core.executing import ExecutingReplica
from repro.core.replica import ReplicaBase, ReplicaEnv, StorageReplica

__all__ = [
    "Application",
    "KeyValueApplication",
    "Auditor",
    "Sensitive",
    "DistributionPlan",
    "minimum_k_confidential",
    "plan_confidential",
    "plan_spire",
    "spire_site_bound",
    "table_one",
    "ClientKeySchedule",
    "KeyEpoch",
    "KeyManager",
    "ClientResponse",
    "ClientUpdate",
    "EncryptedUpdate",
    "KeyProposal",
    "client_alias",
    "ClientProxy",
    "ExecutingReplica",
    "ReplicaBase",
    "ReplicaEnv",
    "StorageReplica",
]
