"""The paper's trust boundary, enforced on the source tree.

Section IV-A / Definition 3: data-center replicas order and store, but
never hold client keys, application state or decryption capability. Two
checks make that structural rather than a runtime observation:

1. *import closure* — starting from the modules a storage replica runs
   (``repro.core.replica``, checkpointing, state transfer, Prime, the
   durable store), follow every ``import`` statement in the source
   (``TYPE_CHECKING`` blocks excepted: annotations only) and require that
   the plaintext-side modules are unreachable. The closure is over what
   the modules themselves name; a package is followed when something is
   imported *from its* ``__init__``, not as the implicit parent of a
   submodule (``repro/core/__init__.py`` deliberately re-exports both
   roles for callers).
2. *held state* — a built deployment's storage replicas, and the
   ``ReplicaEnv`` every replica shares, hold no application, key
   schedule, symmetric key or threshold share.
3. *process state* — what a live node process loads from the key file
   the dealer wrote for it holds only its own role's keys (see the tests
   at the end of this file).
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
from repro.core import ReplicaEnv, StorageReplica
from repro.crypto.keystore import HardwareKeyStore
from repro.crypto.rsa import RsaKeyPair
from repro.crypto.symmetric import SymmetricKeyPair
from repro.crypto.threshold import ThresholdKeyShare
from repro.rt.bootstrap import (
    RtConfig,
    fleet_layout,
    generate_fleet,
    load_node_material,
    write_key_files,
)
from repro.system import SystemConfig, build

SRC = Path(repro.__file__).resolve().parent.parent

#: What only an executing replica may load.
PLAINTEXT_SIDE = {
    "repro.core.app",
    "repro.core.encryption",
    "repro.core.intro",
    "repro.core.key_renewal",
    "repro.core.executing",
    "repro.core.response",
    "repro.core.shares",
}


def _module_file(name: str):
    base = SRC.joinpath(*name.split("."))
    for candidate in (base.with_suffix(".py"), base / "__init__.py"):
        if candidate.is_file():
            return candidate
    return None


def _modules_under(package: str):
    root = SRC.joinpath(*package.split("."))
    return sorted(
        f"{package}.{path.stem}" for path in root.glob("*.py") if path.stem != "__init__"
    )


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _imports(path: Path):
    """Every ``repro`` module an import statement in ``path`` names, at
    any nesting depth, outside ``if TYPE_CHECKING:`` blocks."""
    found = set()

    def visit(node):
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            for child in node.orelse:
                visit(child)
            return
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                # ``from package import submodule`` names the submodule (the
                # package is then only its implicit parent); anything else
                # is an attribute of ``module`` itself.
                submodule = f"{node.module}.{alias.name}"
                found.add(submodule if _module_file(submodule) else node.module)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(path.read_text(encoding="utf-8")))
    return {name for name in found if name.split(".")[0] == "repro" and _module_file(name)}


def import_closure(roots):
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        todo.extend(_imports(_module_file(name)))
    return seen


STORAGE_ROOTS = [
    "repro.core.replica",
    "repro.core.checkpoint",
    "repro.core.state_transfer",
    *_modules_under("repro.prime"),
    *_modules_under("repro.store"),
]


def test_roots_exist():
    assert len(STORAGE_ROOTS) > 8
    for name in STORAGE_ROOTS:
        assert _module_file(name) is not None, name


def test_storage_side_cannot_reach_plaintext_modules():
    closure = import_closure(STORAGE_ROOTS)
    assert "repro.core.messages" in closure  # the walk really follows imports
    reachable = closure & PLAINTEXT_SIDE
    assert not reachable, f"storage-side code imports {sorted(reachable)}"


def test_walker_sees_through_nesting_and_skips_type_checking(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from repro.core.app import Application\n"
        "def lazy():\n"
        "    from repro.core import encryption\n"
        "try:\n"
        "    import repro.core.intro\n"
        "except ImportError:\n"
        "    pass\n"
    )
    assert _imports(probe) == {"repro.core.encryption", "repro.core.intro"}


@pytest.fixture(scope="module")
def deployment():
    return build(SystemConfig(f=1, num_clients=2, seed=5))


def _holds_secret(value) -> bool:
    if isinstance(value, (SymmetricKeyPair, ThresholdKeyShare)):
        return True
    if isinstance(value, dict):
        return any(_holds_secret(v) for v in value.values())
    if isinstance(value, (list, tuple, set)):
        return any(_holds_secret(v) for v in value)
    if isinstance(value, ReplicaEnv):
        return any(_holds_secret(getattr(value, f.name)) for f in dataclasses.fields(value))
    return False


def test_storage_replicas_hold_no_plaintext_machinery(deployment):
    storage = deployment.storage_replicas()
    assert storage and all(type(r) is StorageReplica for r in storage)
    for replica in storage:
        for attr in (
            "app", "key_manager", "intro", "renewal", "responses",
            "intro_share", "response_share", "_client_keys",
        ):
            assert not hasattr(replica, attr), f"{replica.host} has {attr}"
        secrets = [name for name, value in vars(replica).items() if _holds_secret(value)]
        assert not secrets, f"{replica.host} holds {secrets}"


def test_replica_env_carries_no_secrets(deployment):
    declared = {f.name for f in dataclasses.fields(ReplicaEnv)}
    assert not declared & {"initial_client_keys", "alias_to_client"}
    assert not _holds_secret(deployment.env)


# -- process state: a live node's own key slice -----------------------------------
#
# Out of scope here: ``spec.json`` still carries the master ``seed``, so a
# node that read its own spec could re-derive every key with
# ``generate_fleet``. Taking the seed away from the nodes is CompromiseLab's.

KEY_KINDS = (SymmetricKeyPair, ThresholdKeyShare, RsaKeyPair, HardwareKeyStore)


@pytest.fixture(scope="module")
def dealt_fleet(tmp_path_factory):
    """An f=1 confidential fleet's dealt key files and its layout."""
    config = RtConfig(mode="confidential", f=1, num_clients=2, seed=5,
                      out_dir=str(tmp_path_factory.mktemp("fleet")))
    write_key_files(config, generate_fleet(config))
    return config, fleet_layout(config)[0].material


def _loaded(dealt_fleet, host):
    """The material ``host``'s process loads, and every key object in it
    by kind (walking containers and every ``repro`` object's attributes)."""
    config, layout = dealt_fleet
    material = load_node_material(config, layout, host)
    held = {kind: [] for kind in KEY_KINDS}
    seen = set()

    def walk(value):
        if id(value) in seen:
            return
        seen.add(id(value))
        for kind in KEY_KINDS:
            if isinstance(value, kind):
                held[kind].append(value)
        if isinstance(value, dict):
            children = list(value) + list(value.values())
        elif isinstance(value, (list, tuple, set, frozenset)):
            children = value
        elif type(value).__module__.startswith("repro.") and hasattr(value, "__dict__"):
            children = vars(value).values()
        else:
            children = ()
        for child in children:
            walk(child)

    walk(material)
    return material, held


def test_data_center_process_holds_only_its_identity_key(dealt_fleet):
    _, layout = dealt_fleet
    assert layout.data_center_hosts
    for host in layout.data_center_hosts:
        material, held = _loaded(dealt_fleet, host)
        assert not held[SymmetricKeyPair], host
        assert not held[ThresholdKeyShare], host
        assert held[HardwareKeyStore] == [material.keystores[host]], host
        # The one RSA key pair is the keystore's identity key: no client's.
        [identity] = held[RsaKeyPair]
        assert identity.public == material.keystores[host].identity_public


def test_on_premises_process_holds_exactly_its_two_shares(dealt_fleet):
    _, layout = dealt_fleet
    for host in layout.on_premises_hosts:
        material, held = _loaded(dealt_fleet, host)
        index = layout.executing_hosts.index(host) + 1
        moduli = sorted(share.public.n_modulus for share in held[ThresholdKeyShare])
        assert moduli == sorted([material.intro_group.public.n_modulus,
                                 material.response_group.public.n_modulus]), host
        assert all(share.index == index for share in held[ThresholdKeyShare])
        assert held[HardwareKeyStore] == [material.keystores[host]], host


def test_client_process_holds_only_its_signing_key(dealt_fleet):
    _, layout = dealt_fleet
    for client_id, proxy_host in layout.proxy_of_client.items():
        material, held = _loaded(dealt_fleet, proxy_host)
        assert held[RsaKeyPair] == [material.client_keys[client_id]], client_id
        assert list(material.client_keys) == [client_id]
        for kind in (SymmetricKeyPair, ThresholdKeyShare, HardwareKeyStore):
            assert not held[kind], (client_id, kind.__name__)
