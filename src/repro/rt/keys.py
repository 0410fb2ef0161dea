"""The live dealer's key files: one JSON object per node.

The launcher (or the compose fleet's spec-init step) runs the dealer
(:func:`~repro.rt.bootstrap.generate_fleet`) once per deployment and
:func:`write_key_files` writes ``<out_dir>/keys/<host>.json``, mode 0600.
Each file holds the public material every node needs plus exactly what
that node's role uses: an executing replica its own threshold shares, the
initial client keys and its keystore; a storage replica its identity key;
a client its signing key. A node builds its
:class:`~repro.system.assembly.SystemMaterial` from the key-free layout
and its own file (:func:`load_node_material`) and never generates a key.

``host`` and ``spec_sha256`` bind a file to the node and the spec it was
dealt for, ``public`` is the same in every file, ``secrets`` holds the
role's keys. Integers are hex strings, byte strings hex; nothing is
pickled.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from repro.crypto.keystore import HardwareKeyStore
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey
from repro.crypto.symmetric import SymmetricKeyPair
from repro.crypto.threshold import ThresholdKeyGroup, ThresholdKeyShare, ThresholdPublicKey
from repro.errors import ConfigurationError, CryptoError
from repro.rt.bootstrap import RtConfig, exact_keys
from repro.system.assembly import SystemLayout, SystemMaterial

_KEY_FILE = ("host", "spec_sha256", "public", "secrets")
_PUBLIC = ("intro", "response", "clients")
_THRESHOLD_PUBLIC = ("n", "e", "threshold", "players", "verifier_base", "verifier_keys")
_SYMMETRIC = ("enc_key", "prf_key")


def key_file(config: RtConfig, host: str) -> Path:
    """Where the dealer writes ``host``'s keys and the node reads them."""
    return Path(config.out_dir) / "keys" / f"{host}.json"


def spec_digest(config: RtConfig) -> str:
    """The digest a key file carries of the spec it was dealt for."""
    return hashlib.sha256(config.to_json().encode("utf-8")).hexdigest()


def _secret_names(layout: SystemLayout, host: str, confidential: bool) -> Tuple[str, ...]:
    """What ``host``'s role is handed by
    :func:`~repro.system.assembly.build_replica` /
    :func:`~repro.system.assembly.build_proxy`, and so all its key file
    holds."""
    if host in layout.executing_hosts:
        on_premises = ("intro_share", "hw_shared_key") if confidential else ()
        return ("identity_key", "response_share", "client_keys") + on_premises
    if host in layout.all_hosts:
        return ("identity_key",)
    return ("signing_key",)


def write_key_files(config: RtConfig, material: SystemMaterial) -> List[Path]:
    """Deal ``material`` (:func:`~repro.rt.bootstrap.generate_fleet` of
    ``config``): one key file per replica and client, readable by the
    owner only. Returns the paths."""
    digest = spec_digest(config)
    intro = material.intro_group
    public = {
        "intro": _threshold_public_json(intro.public) if intro else None,
        "response": _threshold_public_json(material.response_group.public),
        "clients": {
            cid: {"n": _hex(key.n), "e": _hex(key.e)}
            for cid, key in material.client_registry.items()
        },
    }
    dealt = {host: _replica_secrets(material, host) for host in material.all_hosts}
    for cid in material.client_ids:
        dealt[material.proxy_of_client[cid]] = {
            "signing_key": _rsa_json(material.client_keys[cid])
        }
    written: List[Path] = []
    for host, secrets in dealt.items():
        path = key_file(config, host)
        path.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        _write_private(path, json.dumps(
            {"host": host, "spec_sha256": digest, "public": public,
             "secrets": secrets},
            sort_keys=True,
        ))
        written.append(path)
    return written


def _replica_secrets(material: SystemMaterial, host: str) -> Dict[str, Any]:
    # The dealer provisions each hardware compartment, so it reads back
    # the keys it put there; no node can export them.
    keystore = material.keystores[host]
    secrets: Dict[str, Any] = {"identity_key": _rsa_json(keystore._identity_key)}
    if host in material.executing_hosts:
        index = material.executing_hosts.index(host) + 1
        secrets["response_share"] = _hex(material.response_group.shares[index].share)
        secrets["client_keys"] = {
            alias: _symmetric_json(keys)
            for alias, keys in material.initial_client_keys.items()
        }
        if material.intro_group is not None:
            secrets["intro_share"] = _hex(material.intro_group.shares[index].share)
            secrets["hw_shared_key"] = _symmetric_json(keystore._shared_symmetric)
    return secrets


def load_node_material(config: RtConfig, layout: SystemLayout, host: str) -> SystemMaterial:
    """``host``'s material: the fleet's ``layout`` plus the keys dealt to it.

    A key file that is missing, unreadable, truncated or not JSON, has an
    unknown or missing field or a malformed value, or was dealt to another
    host or for another spec fails with one :class:`ConfigurationError`
    naming its path.
    """
    path = key_file(config, host)
    what = f"key file {path}"
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigurationError(f"{what}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise ConfigurationError(f"{what} is not valid JSON: {exc}") from None
    data = exact_keys(data, _KEY_FILE, what)
    if data["host"] != host:
        raise ConfigurationError(f"{what} was dealt to {data['host']!r}, not {host!r}")
    if data["spec_sha256"] != spec_digest(config):
        raise ConfigurationError(
            f"{what} was dealt for another spec (seed or settings differ)"
        )
    public = exact_keys(data["public"], _PUBLIC, f"{what}: public")
    secrets = exact_keys(
        data["secrets"], _secret_names(layout, host, config.confidential),
        f"{what}: secrets",
    )
    try:
        return _node_material(layout, host, public, secrets, what)
    except (AttributeError, TypeError, ValueError, CryptoError) as exc:
        raise ConfigurationError(f"{what} is malformed: {exc}") from None


def _node_material(
    layout: SystemLayout, host: str, public: Dict, secrets: Dict, what: str
) -> SystemMaterial:
    index = layout.executing_hosts.index(host) + 1 if host in layout.executing_hosts else 0

    def group(key: Any, share: str) -> ThresholdKeyGroup:
        public_key = _threshold_public(key, f"{what}: public")
        shares = {}
        if share in secrets:
            shares[index] = ThresholdKeyShare(public_key, index, _unhex(secrets[share]))
        return ThresholdKeyGroup(public_key, shares)

    keystores = {}
    if "identity_key" in secrets:
        shared = secrets.get("hw_shared_key")
        keystores[host] = HardwareKeyStore(
            host,
            _rsa(secrets["identity_key"], f"{what}: identity_key"),
            _symmetric(shared, f"{what}: hw_shared_key") if shared else None,
        )
    client_keys = {
        cid: _rsa(secrets["signing_key"], f"{what}: signing_key")
        for cid, proxy_host in layout.proxy_of_client.items()
        if proxy_host == host
    }
    return SystemMaterial(
        **vars(layout),
        intro_group=None if public["intro"] is None else group(public["intro"], "intro_share"),
        response_group=group(public["response"], "response_share"),
        client_keys=client_keys,
        client_registry={
            cid: RsaPublicKey(*_hex_fields(key, ("n", "e"), f"{what}: client {cid}"))
            for cid, key in public["clients"].items()
        },
        initial_client_keys={
            alias: _symmetric(keys, f"{what}: client_keys")
            for alias, keys in secrets.get("client_keys", {}).items()
        },
        keystores=keystores,
    )


def _hex(value: int) -> str:
    return format(value, "x")


def _unhex(text: Any) -> int:
    if not isinstance(text, str):
        raise ValueError(f"expected a hex string, got {type(text).__name__}")
    return int(text, 16)


def _hex_fields(data: Any, names: Sequence[str], what: str) -> List[int]:
    data = exact_keys(data, names, what)
    return [_unhex(data[name]) for name in names]


def _rsa_json(key: RsaKeyPair) -> Dict[str, str]:
    return {"n": _hex(key.public.n), "e": _hex(key.public.e), "d": _hex(key.d)}


def _rsa(data: Any, what: str) -> RsaKeyPair:
    n, e, d = _hex_fields(data, ("n", "e", "d"), what)
    return RsaKeyPair(RsaPublicKey(n, e), d)


def _symmetric_json(keys: SymmetricKeyPair) -> Dict[str, str]:
    return {"enc_key": keys.enc_key.hex(), "prf_key": keys.prf_key.hex()}


def _symmetric(data: Any, what: str) -> SymmetricKeyPair:
    data = exact_keys(data, _SYMMETRIC, what)
    return SymmetricKeyPair(*(bytes.fromhex(data[name]) for name in _SYMMETRIC))


def _threshold_public_json(key: ThresholdPublicKey) -> Dict[str, Any]:
    return {
        "n": _hex(key.n_modulus), "e": _hex(key.e),
        "threshold": _hex(key.threshold), "players": _hex(key.players),
        "verifier_base": _hex(key.verifier_base),
        "verifier_keys": {str(i): _hex(v) for i, v in sorted(key.verifier_keys.items())},
    }


def _threshold_public(data: Any, what: str) -> ThresholdPublicKey:
    data = exact_keys(data, _THRESHOLD_PUBLIC, what)
    n, e, threshold, players, verifier_base = (
        _unhex(data[name]) for name in _THRESHOLD_PUBLIC[:5]
    )
    return ThresholdPublicKey(
        n_modulus=n, e=e, threshold=threshold, players=players,
        verifier_base=verifier_base,
        verifier_keys={int(i): _unhex(v) for i, v in data["verifier_keys"].items()},
    )


def _write_private(path: Path, text: str) -> None:
    """Atomically replace ``path`` with ``text``, mode 0600."""
    tmp = path.with_name(path.name + ".tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    os.fchmod(fd, 0o600)  # O_CREAT leaves a stale file's mode as it was
    with os.fdopen(fd, "w", encoding="utf-8") as handle:
        handle.write(text)
    tmp.replace(path)
