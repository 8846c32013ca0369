"""Publishing, interest authorization, and content generation at the origin.

A producer registers the access groups it serves, publishes contents under
a protection policy, and answers interests whose obfuscated (or clear)
names it can resolve.  Hash-obfuscated names are resolved through a
reverse map filled at publish time; encrypted names are decrypted with the
requesting group's key.  Content published to several groups uses one
content-scoped obfuscation key shared by all of them, so every group's
interests carry the same obfuscated name and a single cached copy serves
them all; the per-group signing keys still separate authorization.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from . import crypto
from .authcheck import (
    DEFAULT_SKEW_MS,
    CheckOutcome,
    FailReason,
    NonceWindow,
    run_authorization_check,
)
from .wire import (
    ContentObject,
    Interest,
    Name,
    SchemeTag,
    encode_name,
    unpack_components,
)


class DuplicateGroup(ValueError):
    pass


class UnknownGroup(ValueError):
    pass


class ProtectionPolicy(enum.Enum):
    FULL = "FULL"
    OBFUSCATE_ONLY = "OBFUSCATE_ONLY"
    AUTH_ONLY = "AUTH_ONLY"
    PUBLIC = "PUBLIC"


class DropReason(enum.Enum):
    UNKNOWN_NAME = "UnknownName"
    UNAUTHORIZED = "Unauthorized"
    PREFIX_MISMATCH = "PrefixMismatch"
    AUTHENTICITY_FAILURE = "AuthenticityFailure"
    DECRYPT_FAILURE = "DecryptFailure"
    WRONG_SCHEME = "WrongScheme"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class RegisteredGroup:
    """Producer-side view of a group: obfuscation key plus verification key."""

    group_id: bytes
    obfuscation_key: bytes
    group: crypto.SignatureGroup
    signing_public: int

    @property
    def public_key_bytes(self) -> bytes:
        return self.signing_public.to_bytes(self.group.element_bytes, "big")


@dataclass
class ContentEntry:
    name: Name
    data: bytes
    group_ids: tuple[bytes, ...]
    scheme: SchemeTag
    lifetime_ms: int
    policy: ProtectionPolicy
    content_key: bytes | None = None  # set when several groups share the name


@dataclass
class ProducerResponse:
    content: ContentObject | None
    drop_reason: object | None = None  # FailReason or DropReason
    verifies: int = 0

    @property
    def served(self) -> bool:
        return self.content is not None


class Producer:
    def __init__(
        self,
        prefix,
        keypair: crypto.ProducerKeyPair | None = None,
        default_window_ms: float = 60_000.0,
        skew_ms: float = DEFAULT_SKEW_MS,
        content_key_seed: int = 0,
    ):
        self.prefix = tuple(prefix)
        self.keypair = keypair
        self.default_window_ms = default_window_ms
        self.skew_ms = skew_ms
        self.registry: dict[bytes, RegisteredGroup] = {}
        self.catalog: dict[tuple[bytes, ...], ContentEntry] = {}
        # obfuscated suffix bytes -> (cleartext name, obfuscation key id)
        self.hash_name_map: dict[bytes, tuple[Name, bytes]] = {}
        self.enc_name_map: dict[bytes, tuple[Name, bytes]] = {}
        self.nonce_store: dict[bytes, NonceWindow] = {}
        self._content_key_seed = content_key_seed
        self._content_key_generation: dict[tuple[bytes, ...], int] = {}

    # -- group registry ------------------------------------------------

    def register_group(self, material: crypto.GroupKeyMaterial) -> None:
        if crypto.sha256(material.obfuscation_key) != material.group_id:
            raise ValueError("group id must be the digest of the obfuscation key")
        if material.group_id in self.registry:
            raise DuplicateGroup(material.group_id.hex())
        self.registry[material.group_id] = RegisteredGroup(
            material.group_id,
            material.obfuscation_key,
            material.group,
            material.signing_public,
        )

    def lookup_group(self, group_id: bytes) -> RegisteredGroup | None:
        return self.registry.get(group_id)

    def revoke_group(self, group_id: bytes) -> None:
        self.registry.pop(group_id, None)

    # -- publishing ------------------------------------------------------

    def _content_key(self, name: Name, kappa: int) -> bytes:
        generation = self._content_key_generation.get(name.components, 0)
        self._content_key_generation[name.components] = generation + 1
        label = b"content-key." + struct.pack(">I", generation) + encode_name(name)
        return crypto._expand(self._content_key_seed, label, kappa // 8)

    def publish(
        self,
        name: Name,
        data: bytes,
        group_ids,
        scheme: SchemeTag,
        lifetime_ms: int,
        policy: ProtectionPolicy = ProtectionPolicy.FULL,
    ) -> bytes | None:
        """Add a catalog entry; returns the obfuscation key consumers must use.

        Single-group contents are obfuscated under the group's own key; a
        multi-group content gets a fresh content-scoped key (returned here
        for out-of-band provisioning).  Public and auth-only contents need
        no obfuscation key.
        """
        group_ids = tuple(group_ids)
        if name.components[: len(self.prefix)] != self.prefix:
            raise ValueError("content name must start with the producer prefix")
        if policy is ProtectionPolicy.PUBLIC:
            if group_ids:
                raise ValueError("public content cannot list access groups")
            self.catalog[name.components] = ContentEntry(
                name, data, (), scheme, lifetime_ms, policy
            )
            return None
        if not group_ids:
            raise ValueError("protected content needs at least one access group")
        for gid in group_ids:
            if gid not in self.registry:
                raise UnknownGroup(gid.hex())

        entry = ContentEntry(name, data, group_ids, scheme, lifetime_ms, policy)
        obf_key: bytes | None = None
        if policy is not ProtectionPolicy.AUTH_ONLY:
            suffix_components = name.components[len(self.prefix):]
            if not suffix_components:
                raise ValueError("content name must extend the producer prefix")
            if len(group_ids) == 1:
                registered = self.registry[group_ids[0]]
                obf_key = registered.obfuscation_key
                key_owner = registered.group_id
            else:
                obf_key = self._content_key(name, len(self.registry[group_ids[0]].obfuscation_key) * 8)
                entry.content_key = obf_key
                key_owner = crypto.key_id(obf_key)
            if scheme is SchemeTag.HASH:
                digest = crypto.obfuscate_hash(obf_key, suffix_components)
                self.hash_name_map[digest] = (name, key_owner)
            elif len(group_ids) > 1:
                # deterministic encryption lets the shared name be precomputed
                ct = crypto.obfuscate_enc(obf_key, suffix_components)
                self.enc_name_map[ct] = (name, key_owner)
        self.catalog[name.components] = entry
        return obf_key

    def rekey_content(self, name: Name, new_group_ids) -> bytes | None:
        """Re-publish a content under new groups (revocation turnover)."""
        entry = self.catalog.pop(name.components, None)
        if entry is None:
            raise KeyError(name.to_uri())
        for table in (self.hash_name_map, self.enc_name_map):
            stale = [k for k, (n, _) in table.items() if n.components == name.components]
            for k in stale:
                del table[k]
        return self.publish(
            name, entry.data, new_group_ids, entry.scheme, entry.lifetime_ms, entry.policy
        )

    # -- interest handling -----------------------------------------------

    def _clear_group_id(self, interest: Interest) -> tuple[bytes | None, object | None]:
        payload = interest.payload
        if payload is None:
            return None, FailReason.MISSING_PAYLOAD
        if not payload.group_id_encrypted:
            return payload.group_id, None
        if self.keypair is None:
            return None, FailReason.UNKNOWN_GROUP
        try:
            return crypto.decrypt_group_id(self.keypair, payload.group_id), None
        except crypto.DecryptFailure:
            return None, DropReason.DECRYPT_FAILURE

    def _resolve(self, interest: Interest, clear_gid: bytes | None):
        """Map the interest name to a catalog entry; returns (entry, reason)."""
        name = interest.name
        if isinstance(name, Name):
            entry = self.catalog.get(name.components)
            if entry is None:
                return None, DropReason.UNKNOWN_NAME
            if entry.policy not in (ProtectionPolicy.AUTH_ONLY, ProtectionPolicy.PUBLIC):
                # obfuscation-protected content is never served by clear name
                return None, DropReason.UNKNOWN_NAME
            return entry, None

        if name.routable_prefix != self.prefix:
            return None, DropReason.PREFIX_MISMATCH
        if name.scheme_tag is SchemeTag.NONE:
            try:
                comps = self.prefix + tuple(unpack_components(name.obfuscated_suffix))
            except Exception:
                return None, DropReason.UNKNOWN_NAME
            entry = self.catalog.get(comps)
            if entry is None or entry.policy not in (
                ProtectionPolicy.AUTH_ONLY,
                ProtectionPolicy.PUBLIC,
            ):
                return None, DropReason.UNKNOWN_NAME
            return entry, None
        if name.scheme_tag is SchemeTag.HASH:
            hit = self.hash_name_map.get(name.obfuscated_suffix)
            if hit is None:
                return None, DropReason.UNKNOWN_NAME
            entry = self.catalog.get(hit[0].components)
            if entry is None or entry.scheme is not SchemeTag.HASH:
                return None, DropReason.UNKNOWN_NAME
            return entry, None
        # encrypted scheme: precomputed shared names first, then live decryption
        hit = self.enc_name_map.get(name.obfuscated_suffix)
        if hit is not None:
            entry = self.catalog.get(hit[0].components)
            if entry is not None and entry.scheme is SchemeTag.ENC:
                return entry, None
            return None, DropReason.UNKNOWN_NAME
        if clear_gid is None:
            return None, FailReason.MISSING_PAYLOAD
        registered = self.registry.get(clear_gid)
        if registered is None:
            return None, FailReason.UNKNOWN_GROUP
        try:
            suffix_components = crypto.deobfuscate_enc(
                registered.obfuscation_key, name.obfuscated_suffix
            )
        except crypto.AuthenticityFailure:
            return None, DropReason.AUTHENTICITY_FAILURE
        entry = self.catalog.get(self.prefix + tuple(suffix_components))
        if entry is None or entry.scheme is not SchemeTag.ENC:
            return None, DropReason.UNKNOWN_NAME
        return entry, None

    def authorize(
        self,
        interest: Interest,
        now: float,
        window_ms: float | None = None,
        clear_gid: bytes | None = None,
    ) -> CheckOutcome:
        """Anti-replay and signature check against the registered groups."""
        if clear_gid is None and interest.payload is not None:
            clear_gid, reason = self._clear_group_id(interest)
            if reason is not None:
                return CheckOutcome(reason if isinstance(reason, FailReason) else FailReason.UNKNOWN_GROUP)
        if window_ms is None:
            window_ms = self.default_window_ms
        name_bytes = encode_name(interest.name)
        window = self.nonce_store.get(name_bytes)
        if window is None:
            window = self.nonce_store[name_bytes] = NonceWindow(
                window_start=now, window_ms=window_ms
            )
        registered = self.registry.get(clear_gid) if clear_gid is not None else None
        candidates = (
            [(registered.group, registered.signing_public)] if registered else []
        )
        outcome = run_authorization_check(
            interest.payload,
            name_bytes,
            candidates,
            window,
            now,
            window_ms,
            self.skew_ms,
        )
        if outcome.failure is FailReason.UNKNOWN_GROUP_KEY:
            return CheckOutcome(FailReason.UNKNOWN_GROUP, outcome.verifies)
        return outcome

    def content_object_generation(self, interest: Interest, now: float) -> ProducerResponse:
        """Answer one interest: resolve, authorize per policy, build the object."""
        clear_gid: bytes | None = None
        reason = None
        if interest.payload is not None:
            clear_gid, reason = self._clear_group_id(interest)
            if reason is not None:
                return ProducerResponse(None, reason)
        entry, reason = self._resolve(interest, clear_gid)
        if entry is None:
            return ProducerResponse(None, reason)
        verifies = 0
        if entry.policy is not ProtectionPolicy.PUBLIC:
            if clear_gid is None:
                return ProducerResponse(None, FailReason.MISSING_PAYLOAD)
            if clear_gid not in entry.group_ids:
                return ProducerResponse(None, DropReason.UNAUTHORIZED)
            if entry.policy is not ProtectionPolicy.OBFUSCATE_ONLY:
                outcome = self.authorize(interest, now, entry.lifetime_ms, clear_gid)
                verifies = outcome.verifies
                if not outcome.passed:
                    return ProducerResponse(None, outcome.failure, verifies)
        return ProducerResponse(self._build_content(entry, interest, now), None, verifies)

    def _build_content(self, entry: ContentEntry, interest: Interest, now: float) -> ContentObject:
        # cached copies can only authorize future interests if the keys ride along
        if entry.policy in (ProtectionPolicy.FULL, ProtectionPolicy.AUTH_ONLY):
            # a group revoked without a rekey stays listed but has no key
            keys = tuple(
                (gid, self.registry[gid].public_key_bytes)
                for gid in entry.group_ids
                if gid in self.registry
            )
        else:
            keys = ()
        expiry = round(now) + entry.lifetime_ms
        name_bytes = encode_name(interest.name)
        producer_signature = crypto.sha256(
            name_bytes + entry.data + struct.pack(">Q", expiry)
        )
        return ContentObject(
            name=interest.name,  # exact-match: answer with the asked-for bytes
            data=entry.data,
            verification_keys=keys,
            expiry_time=expiry,
            producer_signature=producer_signature,
        )

    def sweep_nonces(self, now: float) -> None:
        """Erase nonce windows whose retention period has elapsed."""
        for name_bytes in list(self.nonce_store):
            window = self.nonce_store[name_bytes]
            retention = window.window_ms or self.default_window_ms
            if now - window.window_start >= retention:
                del self.nonce_store[name_bytes]
