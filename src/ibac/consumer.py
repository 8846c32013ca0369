"""Interest construction for the three access-control modes.

FULL obfuscates the name suffix and attaches the complete authorization
payload (group id, fresh nonce, timestamp, signature over all of it).
OBFUSCATE_ONLY sends the obfuscated name with an identity-only payload so
the producer can pick the right key; no anti-replay fields travel because
that mode does not defend against replay.  AUTH_ONLY sends the cleartext
name with the complete payload, for deployments where name privacy does
not matter but cache hits must still be authorized.  In every mode a
PUBLIC content, which the context lists in ``public_names``, is requested
by its clear name with no payload: there is nothing to hide or authorize,
and the producer resolves a public name only in clear.

Modes and schemes are plain strings, spelled as a scenario file writes
them (``ConsumerMode``, ``wire.SchemeTag``).  A context refuses any other
value with ``ValueError``, and needs ENC or HASH even in AUTH_ONLY mode,
which obfuscates nothing.

Obfuscation is deterministic and draws nothing from the generator, so a
context memoises each ``ObfuscatedName`` it builds, keyed on the
obfuscation key, the scheme, the routable prefix and the name (which
fixes the suffix): ``obfuscate_*`` runs once per distinct name, not once
per fetch.  Key and scheme are read from the context on every call, so
changing ``scheme``, ``group`` or ``content_keys`` never yields a stale
name.  Every name carries its Name TLV from its construction
(``name._wire``), and a full payload signs those bytes.

A context whose ``producer_public`` maps routable prefixes to producer
keys encrypts the group id under the key of the prefix it fetches from,
and refuses a prefix it has no key for with ``ValueError``; an empty map
sends the id in clear.

A full payload's nonce and timestamp are drawn at once, but its signature
is pending (``AuthorizationPayload.signed_on_read``): it holds the
context's group key material and the name bytes of this call, and
``crypto.sign_payload`` runs on the first read of ``payload.signature``.
A later change to the context's ``group``, ``scheme`` or ``content_keys``
does not reach a payload already built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from . import crypto
from .authcheck import members
from .wire import (
    AuthorizationPayload,
    Interest,
    Name,
    ObfuscatedName,
    SchemeTag,
    suffix,
)


class ConsumerMode:
    """The three access-control modes, spelled as a scenario file writes them."""

    OBFUSCATE_ONLY = "OBFUSCATE_ONLY"
    FULL = "FULL"
    AUTH_ONLY = "AUTH_ONLY"


@dataclass
class ConsumerContext:
    group: crypto.GroupKeyMaterial
    mode: str  # a ConsumerMode value
    scheme: str  # a SchemeTag value
    clock: Callable[[], float]  # milliseconds
    rng: random.Random
    # routable prefix -> the public key of the producer that owns it; when
    # not empty, group ids travel encrypted under the prefix's key
    producer_public: dict[tuple[bytes, ...], crypto.ProducerPublicKey] = field(
        default_factory=dict
    )
    # per-name obfuscation keys provisioned out of band (multi-group content)
    content_keys: dict[tuple[bytes, ...], bytes] = field(default_factory=dict)
    # the name components of the catalog's PUBLIC contents
    public_names: set[tuple[bytes, ...]] = field(default_factory=set)
    # (obfuscation key, scheme, routable prefix, name components) -> name
    _obfuscated: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in members(ConsumerMode):
            raise ValueError(f"unknown consumer mode {self.mode!r}")
        if self.scheme not in members(SchemeTag):
            raise ValueError(f"unknown scheme {self.scheme!r}")


def _group_id_field(ctx: ConsumerContext, routable_prefix: tuple) -> tuple[bytes, bool]:
    if not ctx.producer_public:
        return ctx.group.group_id, False
    public = ctx.producer_public.get(routable_prefix)
    if public is None:  # sending the id in clear instead would link the member
        raise ValueError(f"no producer key for the prefix {routable_prefix!r}")
    return crypto.encrypt_group_id(public, ctx.group.group_id, ctx.rng), True


def interest_generation(ctx: ConsumerContext, routable_prefix, name: Name) -> Interest:
    """Build one interest for ``name`` under the context's mode and scheme."""
    routable_prefix = tuple(routable_prefix)
    public = name.components in ctx.public_names
    if public or ctx.mode == ConsumerMode.AUTH_ONLY:
        wire_name = name
        # validate the prefix relationship even though the name stays clear
        suffix(name, routable_prefix)
        if public:
            return Interest(wire_name)
    else:
        obf_key = ctx.content_keys.get(name.components, ctx.group.obfuscation_key)
        memo_key = (obf_key, ctx.scheme, routable_prefix, name.components)
        wire_name = ctx._obfuscated.get(memo_key)
        if wire_name is None:
            suffix_components = suffix(name, routable_prefix)
            if ctx.scheme == SchemeTag.ENC:
                obf = crypto.obfuscate_enc(obf_key, suffix_components)
            else:
                obf = crypto.obfuscate_hash(obf_key, suffix_components)
            wire_name = ObfuscatedName(routable_prefix, obf, ctx.scheme)
            ctx._obfuscated[memo_key] = wire_name

    group_id, encrypted = _group_id_field(ctx, routable_prefix)
    if ctx.mode == ConsumerMode.OBFUSCATE_ONLY:
        payload = AuthorizationPayload(group_id, encrypted)
    else:
        kappa = ctx.group.kappa
        nonce = ctx.rng.getrandbits(kappa).to_bytes(kappa // 8, "big")
        timestamp = round(ctx.clock())
        payload = AuthorizationPayload.signed_on_read(
            ctx.group, wire_name._wire, group_id, encrypted, nonce, timestamp
        )
    return Interest(wire_name, payload)
