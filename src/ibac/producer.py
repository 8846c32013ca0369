"""Publishing, interest authorization, and content generation at the origin.

A producer registers the access groups it serves, publishes contents under
a protection policy, and answers interests whose names it can resolve.  A
name is clear (AUTH_ONLY and PUBLIC contents) or obfuscated by one of the
two schemes.  Hash-obfuscated names are resolved through a reverse map
filled at publish time; encrypted names are decrypted with the requesting
group's key.  Policies and schemes are the plain strings a scenario file
writes (``ProtectionPolicy``, ``wire.SchemeTag``), and ``publish`` refuses
any other value with ``ValueError``.  Content published to several groups
uses one content-scoped obfuscation key shared by all of them, so every
group's interests carry the same obfuscated name and a single cached copy
serves them all; the per-group signing keys still separate authorization.

``content_object_generation`` decrypts an encrypted group id once, then
calls ``authcheck.run_authorization_check`` with the group's key as the one
candidate and the content's lifetime as the window.  A group revoked
without a rekey is still listed on the content but has no key; the check
refuses it ``UnknownGroupKey``, which the producer answers ``UnknownGroup``.

Replay state is the producer's ``authcheck.ReplayBook``: the check books
each passed nonce until its timestamp leaves the content's window
(``timestamp + lifetime``), because until then the timestamp check alone
would let its replay through.

The simulator serves a producer through the router's service interface,
on the one path it serves routers by.  ``on_interest`` counts the interest
under its name bytes (``interest_counts``), runs
``content_object_generation`` and returns ``(events, verifies)`` with one
``RouterEvent``: ``SERVE_CONTENT``, the content to send back on the
interest's face, reason ``verified`` after a signature check and ``plain``
otherwise, or ``DROP_INTEREST``, which names the refused record and its
face so that a router there can be sent a NACK.  ``on_content`` drops
content, which a producer never asks for, as ``Unsolicited``, and
``expire``, the producer's expiry tick, sweeps the replay book.

A refusal made before any signature check (an unknown name, a missing
payload, a group not allowed the content) is one shared, frozen
``ProducerResponse`` per reason, so ``content_object_generation`` builds no
response record for a flood of random names.  ``on_interest`` still builds
one event per refusal, because the event names the refused record.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from . import crypto
from .authcheck import (
    DEFAULT_SKEW_MS,
    FailReason,
    ReplayBook,
    members,
    run_authorization_check,
)
from .router import DropReason as RouterDrop
from .router import EventKind, RouterEvent
from .wire import ContentObject, Interest, Name, SchemeTag


class DuplicateGroup(ValueError):
    pass


class UnknownGroup(ValueError):
    pass


class ProtectionPolicy:
    """How a content is protected, spelled as a scenario file writes it."""

    FULL = "FULL"
    OBFUSCATE_ONLY = "OBFUSCATE_ONLY"
    AUTH_ONLY = "AUTH_ONLY"
    PUBLIC = "PUBLIC"


class DropReason:
    """The producer's refusals beside the check's ``FailReason``."""

    UNKNOWN_NAME = "UnknownName"
    UNAUTHORIZED = "Unauthorized"
    PREFIX_MISMATCH = "PrefixMismatch"
    AUTHENTICITY_FAILURE = "AuthenticityFailure"
    DECRYPT_FAILURE = "DecryptFailure"


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
    scheme: str  # a SchemeTag value
    lifetime_ms: int
    policy: str  # a ProtectionPolicy value
    content_key: bytes | None = None  # set when several groups share the name


@dataclass(frozen=True, slots=True)
class ProducerResponse:
    content: ContentObject | None
    drop_reason: str | None = None  # a FailReason or DropReason
    verifies: int = 0

    @property
    def served(self) -> bool:
        return self.content is not None


# the one record of each refusal made before any signature check: a flood of
# unknown names is answered with the same record every time
_REFUSED = {
    reason: ProducerResponse(None, reason) for reason in members(DropReason) + members(FailReason)
}

# the policies whose content is resolved by clear name, and those whose
# content carries its groups' verification keys
_SERVED_IN_CLEAR = (ProtectionPolicy.AUTH_ONLY, ProtectionPolicy.PUBLIC)
_KEYS_RIDE_ALONG = (ProtectionPolicy.FULL, ProtectionPolicy.AUTH_ONLY)


class Producer:
    def __init__(
        self,
        prefix,
        keypair: crypto.ProducerKeyPair | None = None,
        skew_ms: float = DEFAULT_SKEW_MS,
        content_key_seed: int = 0,
    ):
        self.prefix = tuple(prefix)
        self.keypair = keypair
        self.skew_ms = skew_ms
        self.registry: dict[bytes, RegisteredGroup] = {}
        self.catalog: dict[tuple[bytes, ...], ContentEntry] = {}
        # obfuscated suffix bytes -> cleartext name
        self.hash_name_map: dict[bytes, Name] = {}
        self.enc_name_map: dict[bytes, Name] = {}
        self.replay_book = ReplayBook()
        self.interest_counts: dict[bytes, int] = {}  # name bytes -> interests taken
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

    def revoke_group(self, group_id: bytes) -> None:
        self.registry.pop(group_id, None)

    # -- publishing ------------------------------------------------------

    def _content_key(self, name: Name, kappa: int) -> bytes:
        generation = self._content_key_generation.get(name.components, 0)
        self._content_key_generation[name.components] = generation + 1
        label = b"content-key." + struct.pack(">I", generation) + name._wire
        return crypto._expand(self._content_key_seed, label, kappa // 8)

    def publish(
        self,
        name: Name,
        data: bytes,
        group_ids,
        scheme: str,
        lifetime_ms: int,
        policy: str = ProtectionPolicy.FULL,
    ) -> bytes | None:
        """Add a catalog entry; returns the obfuscation key consumers must use.

        Single-group contents are obfuscated under the group's own key; a
        multi-group content gets a fresh content-scoped key (returned here
        for out-of-band provisioning).  Public and auth-only contents need
        no obfuscation key.  A policy or scheme outside ``ProtectionPolicy``
        or ``SchemeTag`` is refused with ``ValueError``.
        """
        if policy not in members(ProtectionPolicy):
            raise ValueError(f"unknown protection policy {policy!r}")
        if scheme not in members(SchemeTag):
            raise ValueError(f"unknown scheme {scheme!r}")
        group_ids = tuple(group_ids)
        if name.components[: len(self.prefix)] != self.prefix:
            raise ValueError("content name must start with the producer prefix")
        self._check_groups(group_ids, policy)
        if policy == ProtectionPolicy.PUBLIC:
            self.catalog[name.components] = ContentEntry(
                name, data, (), scheme, lifetime_ms, policy
            )
            return None

        entry = ContentEntry(name, data, group_ids, scheme, lifetime_ms, policy)
        obf_key: bytes | None = None
        if policy != ProtectionPolicy.AUTH_ONLY:
            suffix_components = name.components[len(self.prefix):]
            if not suffix_components:
                raise ValueError("content name must extend the producer prefix")
            if len(group_ids) == 1:
                obf_key = self.registry[group_ids[0]].obfuscation_key
            else:
                obf_key = self._content_key(name, len(self.registry[group_ids[0]].obfuscation_key) * 8)
                entry.content_key = obf_key
            if scheme == SchemeTag.HASH:
                self.hash_name_map[crypto.obfuscate_hash(obf_key, suffix_components)] = name
            elif len(group_ids) > 1:
                # deterministic encryption lets the shared name be precomputed
                self.enc_name_map[crypto.obfuscate_enc(obf_key, suffix_components)] = name
        self.catalog[name.components] = entry
        return obf_key

    def _check_groups(self, group_ids: tuple, policy: str) -> None:
        """Raise unless ``group_ids`` suit ``policy`` and are all registered."""
        if policy == ProtectionPolicy.PUBLIC:
            if group_ids:
                raise ValueError("public content cannot list access groups")
            return
        if not group_ids:
            raise ValueError("protected content needs at least one access group")
        for gid in group_ids:
            if gid not in self.registry:
                raise UnknownGroup(gid.hex())

    def rekey_content(self, name: Name, new_group_ids) -> bytes | None:
        """Re-publish a content under new groups (revocation turnover).

        The new groups are checked first, so a refused rekey changes nothing.
        """
        entry = self.catalog.get(name.components)
        if entry is None:
            raise KeyError(name.to_uri())
        new_group_ids = tuple(new_group_ids)
        self._check_groups(new_group_ids, entry.policy)
        del self.catalog[name.components]
        for table in (self.hash_name_map, self.enc_name_map):
            stale = [k for k, n in table.items() if n.components == name.components]
            for k in stale:
                del table[k]
        return self.publish(
            name, entry.data, new_group_ids, entry.scheme, entry.lifetime_ms, entry.policy
        )

    # -- interest handling -----------------------------------------------

    def _resolve(self, interest: Interest, clear_gid: bytes | None):
        """Map the interest name to a catalog entry; returns (entry, reason)."""
        name = interest.name
        if isinstance(name, Name):
            entry = self.catalog.get(name.components)
            if entry is None:
                return None, DropReason.UNKNOWN_NAME
            if entry.policy not in _SERVED_IN_CLEAR:
                # obfuscation-protected content is never served by clear name
                return None, DropReason.UNKNOWN_NAME
            return entry, None

        if name.routable_prefix != self.prefix:
            return None, DropReason.PREFIX_MISMATCH
        if name.scheme_tag == SchemeTag.HASH:
            hit = self.hash_name_map.get(name.obfuscated_suffix)
            if hit is None:
                return None, DropReason.UNKNOWN_NAME
            entry = self.catalog.get(hit.components)
            if entry is None or entry.scheme != SchemeTag.HASH:
                return None, DropReason.UNKNOWN_NAME
            return entry, None
        # encrypted scheme: precomputed shared names first, then live decryption
        hit = self.enc_name_map.get(name.obfuscated_suffix)
        if hit is not None:
            entry = self.catalog.get(hit.components)
            if entry is not None and entry.scheme == SchemeTag.ENC:
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
        if entry is None or entry.scheme != SchemeTag.ENC:
            return None, DropReason.UNKNOWN_NAME
        return entry, None

    # -- service, through the router's interface ----------------------------

    def on_interest(self, interest: Interest, in_iface: int, now: float):
        """Answer one interest as a router's service does; returns (events,
        signature verifications), with the one event of the answer."""
        name_bytes = interest.name._wire
        self.interest_counts[name_bytes] = self.interest_counts.get(name_bytes, 0) + 1
        response = self.content_object_generation(interest, now)
        verifies = response.verifies
        if response.content is None:
            reason = response.drop_reason
            event = RouterEvent(EventKind.DROP_INTEREST, name_bytes, in_iface, interest, reason)
        else:
            reason = "verified" if verifies else "plain"
            event = RouterEvent(
                EventKind.SERVE_CONTENT, name_bytes, in_iface, response.content, reason
            )
        return [event], verifies

    def on_content(self, content: ContentObject, in_iface: int, now: float):
        """Drop content, which a producer never asks for; returns (events, 0)."""
        name_bytes = content.name._wire
        return [RouterEvent(EventKind.DROP_CONTENT, name_bytes, reason=RouterDrop.UNSOLICITED)], 0

    def expire(self, now: float) -> list:
        """Sweep the replay book; a producer has nothing else that expires."""
        self.replay_book.sweep(now)
        return []

    # -- the decision ----------------------------------------------------------

    def content_object_generation(self, interest: Interest, now: float) -> ProducerResponse:
        """Answer one interest: resolve, authorize per policy, build the object."""
        payload = interest.payload
        clear_gid: bytes | None = None
        if payload is not None:
            clear_gid = payload.group_id
            if payload.group_id_encrypted:
                if self.keypair is None:
                    return _REFUSED[FailReason.UNKNOWN_GROUP]
                try:
                    clear_gid = crypto.decrypt_group_id(self.keypair, clear_gid)
                except crypto.DecryptFailure:
                    return _REFUSED[DropReason.DECRYPT_FAILURE]
        entry, reason = self._resolve(interest, clear_gid)
        if entry is None:
            return _REFUSED[reason]
        verifies = 0
        if entry.policy != ProtectionPolicy.PUBLIC:
            if clear_gid is None:
                return _REFUSED[FailReason.MISSING_PAYLOAD]
            if clear_gid not in entry.group_ids:
                return _REFUSED[DropReason.UNAUTHORIZED]
            if entry.policy != ProtectionPolicy.OBFUSCATE_ONLY:
                # a group revoked without a rekey stays listed but has no key
                registered = self.registry.get(clear_gid)
                outcome = run_authorization_check(
                    payload,
                    interest.name._wire,
                    [(registered.group, registered.signing_public)] if registered else [],
                    self.replay_book,
                    now,
                    entry.lifetime_ms,
                    self.skew_ms,
                )
                verifies = outcome.verifies
                if outcome.failure is FailReason.UNKNOWN_GROUP_KEY:
                    return _REFUSED[FailReason.UNKNOWN_GROUP]
                if not outcome.passed:
                    return ProducerResponse(None, outcome.failure, verifies)
        return ProducerResponse(self._build_content(entry, interest, now), None, verifies)

    def _build_content(self, entry: ContentEntry, interest: Interest, now: float) -> ContentObject:
        # cached copies can only authorize future interests if the keys ride along
        if entry.policy in _KEYS_RIDE_ALONG:
            # a group revoked without a rekey stays listed but has no key
            keys = tuple(
                (gid, self.registry[gid].public_key_bytes)
                for gid in entry.group_ids
                if gid in self.registry
            )
        else:
            keys = ()
        expiry = round(now) + entry.lifetime_ms
        name_bytes = interest.name._wire
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
