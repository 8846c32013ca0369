"""Names, message records, and the binary wire format shared by all entities.

Every message is a TLV tree: 2-byte big-endian type, 2-byte big-endian
length, value.  Within a container, fields appear in ascending type order
(repeatable types stay adjacent, in list order) and non-repeatable types
appear at most once, so records with equal fields always encode to
identical bytes.  Routers index PIT/CS/FIB by those bytes, which makes the
canonical encoding a correctness requirement, not a nicety.  Each message
container is one table of its fields in type order (``_PAYLOAD``,
``_INTEREST``, ``_CONTENT``, ``_NACK``), and one encoder and one decoder,
``_Container``'s, read all four, so these rules are written once.  A name
has a codec of its own: it is the hot path, and it takes two forms.

Type codes:

    0x0001 Interest                  0x0002 ContentObject
    0x0003 Nack                      0x0050 NackReason (UTF-8 text)
    0x0010 Name                      0x0011 NameComponent (repeatable)
    0x0012 ObfuscatedComponent       0x0013 SchemeTag (1 byte: 1 or 2)
    0x0020 AuthPayload               0x0021 GroupID
    0x0022 Nonce                     0x0023 Timestamp (8-byte BE ms)
    0x0024 PayloadSignature          0x0025 GroupIDEncryptedFlag (1 byte)
    0x0030 ContentData               0x0031 VerificationKeyEntry
    0x0032 ExpiryTime (8-byte BE ms) 0x0033 ProducerSignature
    0x0040 KeyID

A VerificationKeyEntry value is a GroupID TLV followed by the raw key
bytes.  A Nack holds the refused Interest TLV followed by a NackReason.
Values are limited to 65535 bytes and whole messages to 1 MiB.

A name takes one of two forms.  A clear name is its components and
nothing more: the split between routable prefix and the rest is
consumer-side addressing state, given to ``consumer.interest_generation``,
and never part of a ``Name``.  An obfuscated name travels as its cleartext
prefix components followed by one ObfuscatedComponent and a SchemeTag; the
obfuscated suffix is a single non-empty opaque component whose display
form is lowercase hex, obfuscated under one of the paper's two schemes,
``SchemeTag.ENC`` (tag byte 1) or ``SchemeTag.HASH`` (tag byte 2).

Names carry their bytes; messages do not.  A name's constructor checks
its fields and then encodes its Name TLV once, into the private ``_wire``
field, so every name holds its bytes and a name the wire cannot carry (a
component, or the whole TLV, over 65535 bytes) cannot be built: the
constructor raises ``EncodeError``.  ``encode_name`` reads the field.
Routers, producers and consumers key their PIT, CS and nonce state on
these bytes.  They always decode to an equal name, because the
constructors reject every field value the decoders reject (a scheme other
than ENC or HASH, an empty suffix) and normalise sequences to the tuples
the decoders return.  A decoded name's bytes equal its input slice,
because every input the decoders accept is the one encoding of the
record they return.

The field takes no part in equality, hashing or ``repr``, and
``dataclasses.replace`` encodes the new name afresh.  An ``Interest``,
``ContentObject`` or ``Nack`` keeps no bytes: the encoders build a
message's TLV on each call, reusing its name's.  The constructors check
and normalise message fields as they do names' (an encrypted flag that
is not a bool is refused), and every field travels, so every record's
bytes decode to an equal record.  Interests, obfuscated names and NACKs
keep their fields in slots: a router's PIT holds every interest it
forwarded until the entry resolves, thousands of them under a flood of
random names.  A ``SuffixTemplate`` serves a run of name-only interests
under one prefix and scheme with suffixes of one length: its first name
is checked and encoded by the constructor, and each further interest's
name is its suffix joined to fixed bytes.

Payloads are signed where their signature is read.  A payload built with
``AuthorizationPayload.signed_on_read`` holds the signer's key material
and the name bytes in place of its signature; the first read of
``signature`` (``encode_interest`` among them) signs with
``crypto.sign_payload`` and keeps the bytes.  This module is the only
place that knows a signature can be pending: every reader sees bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

TYPE_INTEREST = 0x0001
TYPE_CONTENT = 0x0002
TYPE_NACK = 0x0003
TYPE_NAME = 0x0010
TYPE_NAME_COMPONENT = 0x0011
TYPE_OBFUSCATED_COMPONENT = 0x0012
TYPE_SCHEME_TAG = 0x0013
TYPE_AUTH_PAYLOAD = 0x0020
TYPE_GROUP_ID = 0x0021
TYPE_NONCE = 0x0022
TYPE_TIMESTAMP = 0x0023
TYPE_PAYLOAD_SIGNATURE = 0x0024
TYPE_GROUP_ID_ENCRYPTED = 0x0025
TYPE_CONTENT_DATA = 0x0030
TYPE_VERIFICATION_KEY = 0x0031
TYPE_EXPIRY_TIME = 0x0032
TYPE_PRODUCER_SIGNATURE = 0x0033
TYPE_KEY_ID = 0x0040
TYPE_NACK_REASON = 0x0050

MAX_VALUE_LEN = 65535
MAX_MESSAGE_LEN = 1 << 20


class WireError(Exception):
    """Base class for encoding/decoding failures."""


class EncodeError(WireError):
    pass


class DecodeError(WireError):
    pass


class PrefixMismatch(ValueError):
    """The given prefix is not a leading subsequence of the name."""


class EmptySuffix(ValueError):
    """The prefix consumes the whole name, leaving nothing to obfuscate."""


class SchemeTag:
    """How an obfuscated name's suffix was obfuscated, spelled as a scenario
    file writes it.  On the wire each scheme is one byte, its
    ``_SCHEME_CODES`` entry."""

    ENC = "ENC"
    HASH = "HASH"


# the one map from scheme to tag byte: the encoder, the decoder and
# ``ObfuscatedName``'s check all read it
_SCHEME_CODES = {SchemeTag.ENC: 1, SchemeTag.HASH: 2}


def _check_component(comp: bytes) -> None:
    if not isinstance(comp, bytes):
        raise TypeError(f"name component must be bytes, got {type(comp).__name__}")
    if not comp:
        raise ValueError("name components must be non-empty")


@dataclass(frozen=True)
class Name:
    """Cleartext hierarchical name."""

    components: tuple[bytes, ...]
    _wire: bytes = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ValueError("a name needs at least one component")
        for comp in self.components:
            _check_component(comp)
        object.__setattr__(self, "_wire", _name_tlv(self.components))

    @classmethod
    def from_uri(cls, uri: str) -> "Name":
        return cls(tuple(c.encode() for c in uri.strip("/").split("/") if c))

    def to_uri(self) -> str:
        return "/" + "/".join(c.decode("utf-8", "backslashreplace") for c in self.components)


@dataclass(frozen=True, slots=True)
class ObfuscatedName:
    """Cleartext routable prefix plus one opaque obfuscated suffix component."""

    routable_prefix: tuple[bytes, ...]
    obfuscated_suffix: bytes
    scheme_tag: str  # a SchemeTag value
    _wire: bytes = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "routable_prefix", tuple(self.routable_prefix))
        if not self.routable_prefix:
            raise ValueError("routable prefix must be non-empty")
        for comp in self.routable_prefix:
            _check_component(comp)
        if self.scheme_tag not in _SCHEME_CODES:
            raise ValueError(f"unknown scheme {self.scheme_tag!r}")
        if not self.obfuscated_suffix:
            raise ValueError("obfuscated suffix must be non-empty")
        tail = _tlv(TYPE_OBFUSCATED_COMPONENT, self.obfuscated_suffix)
        tail += _SCHEME_TAG_TLVS[self.scheme_tag]
        object.__setattr__(self, "_wire", _name_tlv(self.routable_prefix, tail))


AnyName = Name | ObfuscatedName


class _SignedOnRead:
    """Class attribute behind ``AuthorizationPayload.signature``.

    An instance attribute wins over it, so it is reached only while the
    signature is pending: it signs, stores the bytes on the payload and
    drops the signing material.  On the class it reads as the field's
    default, ``None``.
    """

    _crypto = None  # the crypto module, imported on the first signature read

    def __get__(self, payload, owner=None):
        if payload is None:
            return None
        crypto = _SignedOnRead._crypto
        if crypto is None:
            from . import crypto  # crypto imports this module

            _SignedOnRead._crypto = crypto
        material, name_bytes = payload._signing
        # looked up on the module at each read, where a wrapper may replace it
        signature = crypto.sign_payload(
            material, name_bytes, payload.group_id, payload.nonce, payload.timestamp
        )
        object.__setattr__(payload, "signature", signature)
        object.__setattr__(payload, "_signing", None)
        return signature


@dataclass(frozen=True)
class AuthorizationPayload:
    """Group identity plus optional anti-replay fields carried in an interest.

    ``group_id`` is either the cleartext key digest or, when
    ``group_id_encrypted`` is set, a public-key ciphertext of it.  Identity-
    only payloads (no nonce/timestamp/signature) are how obfuscation-only
    requests tell the producer which key to use.

    A signer that may never see its signature read builds the payload with
    ``signed_on_read``: it holds the group's key material and the name bytes
    (``_signing``) in place of the signature, and the first read of
    ``signature`` -- by a verifier, an encoder, ``==``, ``hash``, ``repr``
    or ``dataclasses.replace`` -- makes it with ``crypto.sign_payload`` over
    the fields the payload already holds, keeps the bytes and drops the
    material.  Signing is deterministic, so a pending payload is
    indistinguishable from one signed at once.  ``has_auth_info`` never
    signs.
    """

    group_id: bytes
    group_id_encrypted: bool = False
    nonce: bytes | None = None
    timestamp: int | None = None
    signature: bytes | None = _SignedOnRead()
    # (GroupKeyMaterial, name bytes) while the signature is pending
    _signing: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.group_id:
            raise ValueError("group_id must be non-empty")
        if not isinstance(self.group_id_encrypted, bool):
            raise TypeError("group_id_encrypted must be a bool")
        if self.nonce is not None and not self.nonce:
            raise ValueError("nonce, when present, must be non-empty")
        if self.timestamp is not None and not 0 <= self.timestamp < 1 << 64:
            raise ValueError("timestamp out of uint64 range")

    @classmethod
    def signed_on_read(
        cls,
        material,
        name_bytes: bytes,
        group_id: bytes,
        group_id_encrypted: bool,
        nonce: bytes,
        timestamp: int,
    ) -> "AuthorizationPayload":
        """A full payload whose signature, by ``material`` over ``name_bytes``
        and these fields, is made on its first read."""
        payload = cls(group_id, group_id_encrypted, nonce, timestamp)
        object.__delattr__(payload, "signature")
        object.__setattr__(payload, "_signing", (material, name_bytes))
        return payload

    def has_auth_info(self) -> bool:
        return (
            self.nonce is not None
            and self.timestamp is not None
            and (self._signing is not None or self.signature is not None)
        )


@dataclass(frozen=True, slots=True)
class Interest:
    name: AnyName
    payload: AuthorizationPayload | None = None
    key_id: bytes | None = None


@dataclass(frozen=True)
class ContentObject:
    """Named data message; carries one verification key per authorized group."""

    name: AnyName
    data: bytes
    verification_keys: tuple[tuple[bytes, bytes], ...] = ()
    expiry_time: int = 0
    producer_signature: bytes = b""

    def __post_init__(self):
        if not 0 <= self.expiry_time < 1 << 64:
            raise ValueError("expiry_time out of uint64 range")
        keys = tuple((group_id, key) for group_id, key in self.verification_keys)
        for group_id, key in keys:
            if not group_id or not key:
                raise ValueError("verification key entries need group id and key bytes")
        object.__setattr__(self, "verification_keys", keys)


@dataclass(frozen=True, slots=True)
class Nack:
    """A node's refusal of one interest, sent back on the face the interest
    came from (the interest NACK of NDN adaptive forwarding).  It carries the
    refused record itself, so the receiver can tell which of its forwards
    was refused."""

    interest: Interest
    reason: str

    def __post_init__(self):
        if not isinstance(self.reason, str) or not self.reason:
            raise ValueError("a NACK reason must be non-empty text")
        self.reason.encode()  # a lone surrogate raises here, not in the encoder


# ---------------------------------------------------------------------------
# name operations


def suffix(name: Name, prefix) -> list[bytes]:
    """Return the components of ``name`` that follow ``prefix``.

    ``prefix`` must be a strict leading subsequence of the name's components.
    """
    prefix = tuple(prefix)
    comps = name.components
    if len(prefix) >= len(comps):
        if comps[: len(prefix)] == prefix and len(prefix) == len(comps):
            raise EmptySuffix("prefix covers the entire name")
        raise PrefixMismatch(f"{prefix!r} is not a leading subsequence")
    if comps[: len(prefix)] != prefix:
        raise PrefixMismatch(f"{prefix!r} is not a leading subsequence")
    return list(comps[len(prefix):])


def longest_prefix_match(table, name):
    """Return the value of the longest table prefix leading ``name``, else None.

    ``name`` is a name or a sequence of components; an obfuscated name's
    suffix counts as one component.  The empty prefix never matches.

    The whole name is looked up first, then the name without its last
    component and that one's ancestors, longest first.  A table routes
    names by prefix, so the second lookup usually hits: for an obfuscated
    name it is the routable prefix the name already holds, and no ancestor
    is sliced.
    """
    if isinstance(name, ObfuscatedName):
        parent = name.routable_prefix
        hit = table.get(parent + (name.obfuscated_suffix,))
        if hit is not None:
            return hit
    else:
        comps = name.components if isinstance(name, Name) else tuple(name)
        if not comps:
            return None
        hit = table.get(comps)
        if hit is not None:
            return hit
        parent = comps[:-1]
    hit = table.get(parent) if parent else None
    if hit is not None:
        return hit
    for i in range(len(parent) - 1, 0, -1):
        hit = table.get(parent[:i])
        if hit is not None:
            return hit
    return None


def pack_components(components) -> bytes:
    """Length-prefixed concatenation; the canonical pre-obfuscation byte form."""
    out = bytearray()
    for comp in components:
        if len(comp) > MAX_VALUE_LEN:
            raise EncodeError("component exceeds 65535 bytes")
        out += struct.pack(">H", len(comp)) + comp
    return bytes(out)


def unpack_components(blob: bytes) -> list[bytes]:
    comps = []
    pos = 0
    while pos < len(blob):
        if pos + 2 > len(blob):
            raise DecodeError("truncated component length")
        (n,) = struct.unpack_from(">H", blob, pos)
        pos += 2
        if pos + n > len(blob):
            raise DecodeError("truncated component")
        comps.append(blob[pos : pos + n])
        pos += n
    return comps


# ---------------------------------------------------------------------------
# TLV primitives

_HEADER = struct.Struct(">HH")
_BE64 = struct.Struct(">Q")


def _tlv(type_code: int, value: bytes) -> bytes:
    if len(value) > MAX_VALUE_LEN:
        raise EncodeError(f"value for type 0x{type_code:04x} exceeds 65535 bytes")
    return _HEADER.pack(type_code, len(value)) + value


def _tlvs(buf: bytes, pos: int, end: int):
    """Yield ``(type, value start, value end)`` for the TLVs filling ``buf[pos:end]``.

    Decoders walk containers in place and slice out only the leaf values
    they keep.
    """
    unpack = _HEADER.unpack_from
    while pos < end:
        if pos + 4 > end:
            raise DecodeError("truncated TLV header")
        type_code, length = unpack(buf, pos)
        pos += 4
        value_end = pos + length
        if value_end > end:
            raise DecodeError("TLV length overflows container")
        yield type_code, pos, value_end
        pos = value_end


# ---------------------------------------------------------------------------
# names

_SCHEME_TAGS = {code: tag for tag, code in _SCHEME_CODES.items()}
_SCHEME_TAG_TLVS = {
    tag: _tlv(TYPE_SCHEME_TAG, bytes([code])) for tag, code in _SCHEME_CODES.items()
}


def _name_tlv(components: tuple[bytes, ...], tail: bytes = b"") -> bytes:
    """The Name TLV of ``components``' NameComponent TLVs followed by the
    TLVs ``tail``; the name constructors' one encoder."""
    return _tlv(TYPE_NAME, b"".join([_tlv(TYPE_NAME_COMPONENT, c) for c in components]) + tail)


def encode_name(name: AnyName) -> bytes:
    """Canonical Name TLV; these bytes are what routers key their tables on.
    Every name holds them from its construction."""
    return name._wire


def _decode_name(buf: bytes, start: int, end: int) -> AnyName:
    """The name whose TLV value is ``buf[start:end]``."""
    comps: list[bytes] = []
    obf_suffix: bytes | None = None
    scheme: str | None = None
    for type_code, vs, ve in _tlvs(buf, start, end):
        if type_code == TYPE_NAME_COMPONENT:
            if obf_suffix is not None or scheme is not None:
                raise DecodeError("name component after obfuscated suffix")
            comps.append(buf[vs:ve])
        elif type_code == TYPE_OBFUSCATED_COMPONENT:
            if obf_suffix is not None:
                raise DecodeError("duplicate obfuscated component")
            if scheme is not None:
                raise DecodeError("obfuscated component after scheme tag")
            obf_suffix = buf[vs:ve]
        elif type_code == TYPE_SCHEME_TAG:
            if scheme is not None:
                raise DecodeError("duplicate scheme tag")
            if ve - vs != 1:
                raise DecodeError("scheme tag must be one byte")
            scheme = _SCHEME_TAGS.get(buf[vs])
            if scheme is None:
                raise DecodeError(f"unknown scheme tag {buf[vs]}")
        else:
            raise DecodeError(f"unknown type 0x{type_code:04x} inside name")
    try:
        if obf_suffix is None and scheme is None:
            if not comps:
                raise DecodeError("empty name")
            return Name(tuple(comps))
        if obf_suffix is None or scheme is None:
            raise DecodeError("obfuscated name needs both suffix and scheme tag")
        return ObfuscatedName(tuple(comps), obf_suffix, scheme)
    except ValueError as exc:
        raise DecodeError(str(exc)) from None


class SuffixTemplate:
    """Name-only interests for the obfuscated names that differ from one
    checked name only in a suffix of the same length.

    ``first`` passed ``ObfuscatedName``'s checks, and a suffix of its length
    leaves every TLV but the suffix's value as ``first`` encodes: the
    headers, the prefix's NameComponent TLVs and the scheme tag TLV.  So
    ``interest(obfuscated)`` joins bytes and builds the records without the
    constructors' checks.  They equal ``Interest(ObfuscatedName(prefix,
    obfuscated, scheme))``, and the name carries its encoding.
    """

    __slots__ = ("suffix_len", "_prefix", "_scheme", "_name_head", "_tag")

    def __init__(self, first: ObfuscatedName):
        name_wire = first._wire
        self.suffix_len = len(first.obfuscated_suffix)
        self._tag = _SCHEME_TAG_TLVS[first.scheme_tag]
        self._name_head = name_wire[: len(name_wire) - self.suffix_len - len(self._tag)]
        self._prefix = first.routable_prefix
        self._scheme = first.scheme_tag

    def interest(self, obfuscated: bytes) -> Interest:
        """The name-only interest for the ``suffix_len``-byte suffix ``obfuscated``."""
        if len(obfuscated) != self.suffix_len:
            raise ValueError(f"suffix must be {self.suffix_len} bytes, got {len(obfuscated)}")
        name_wire = self._name_head + obfuscated + self._tag
        name = object.__new__(ObfuscatedName)
        _set_prefix(name, self._prefix)
        _set_suffix(name, obfuscated)
        _set_scheme(name, self._scheme)
        _set_name_wire(name, name_wire)
        interest = object.__new__(Interest)
        _set_name(interest, name)
        _set_payload(interest, None)
        _set_key_id(interest, None)
        return interest


# the slot setters ``SuffixTemplate.interest`` fills its records with: a
# member descriptor's ``__set__`` skips the frozen check, and the lookup by
# name that ``object.__setattr__`` makes
_set_prefix = ObfuscatedName.routable_prefix.__set__
_set_suffix = ObfuscatedName.obfuscated_suffix.__set__
_set_scheme = ObfuscatedName.scheme_tag.__set__
_set_name_wire = ObfuscatedName._wire.__set__
_set_name = Interest.name.__set__
_set_payload = Interest.payload.__set__
_set_key_id = Interest.key_id.__set__


# ---------------------------------------------------------------------------
# message containers


class _Codec(NamedTuple):
    """How one field travels: ``encode(type_code, value)`` makes the field's
    whole TLV, and ``decode(buf, start, end)`` reads its value from
    ``buf[start:end]``.  A ``_Container`` is the codec of a field that
    nests it."""

    encode: Callable[[int, Any], bytes]
    decode: Callable[[bytes, int, int], Any]


def _decode_uint64(buf: bytes, start: int, end: int) -> int:
    if end - start != 8:
        raise DecodeError("a uint64 field must be exactly 8 bytes")
    return _BE64.unpack_from(buf, start)[0]


def _decode_flag(buf: bytes, start: int, end: int) -> bool:
    if end - start != 1 or buf[start] > 1:
        raise DecodeError("flag must be a single 0/1 byte")
    return buf[start] == 1


def _decode_key_entry(buf: bytes, start: int, end: int) -> tuple[bytes, bytes]:
    """A GroupID TLV and the raw key bytes after it; ``ContentObject``
    refuses an empty one."""
    type_code, vs, ve = next(_tlvs(buf, start, end), (None, start, start))
    if type_code != TYPE_GROUP_ID:
        raise DecodeError("verification key entry must start with a group id")
    return buf[vs:ve], buf[ve:end]


_BYTES = _Codec(_tlv, lambda buf, start, end: buf[start:end])
_UINT64 = _Codec(lambda type_code, value: _tlv(type_code, _BE64.pack(value)), _decode_uint64)
_FLAG = _Codec(lambda type_code, flag: _tlv(type_code, bytes([flag])), _decode_flag)
_TEXT = _Codec(
    lambda type_code, text: _tlv(type_code, text.encode()),
    lambda buf, start, end: buf[start:end].decode(),
)
_NAME = _Codec(lambda type_code, name: name._wire, _decode_name)
_KEY_ENTRY = _Codec(
    lambda type_code, entry: _tlv(type_code, _tlv(TYPE_GROUP_ID, entry[0]) + entry[1]),
    _decode_key_entry,
)

# how often a field occurs in its container
_ONCE, _OPTIONAL, _REPEATED = "once", "optional", "repeated"


class _Container:
    """One container: the record it holds and a row per field, in ascending
    type order.  A row is ``(type code, record field, codec, occurs)``.

    ``encode`` and ``decode`` are the only code that walks a container, so
    the canonical rules live here: fields in ascending type order, a
    repeated field's entries adjacent and in list order, at most one of any
    other field, every ``_ONCE`` field present and no unknown type.  The
    record's constructor checks the field values, and its ``ValueError``
    becomes ``DecodeError``.
    """

    def __init__(self, record, *rows):
        self.record = record
        self.rows = rows
        self._by_type = {row[0]: row for row in rows}

    def encode(self, type_code: int, record) -> bytes:
        """The record's canonical TLV, of type ``type_code``."""
        body = b""
        for field_type, field_name, codec, occurs in self.rows:
            value = getattr(record, field_name)
            if occurs == _REPEATED:
                body += b"".join(codec.encode(field_type, entry) for entry in value)
            elif value is not None or occurs == _ONCE:
                body += codec.encode(field_type, value)
        return _tlv(type_code, body)

    def decode(self, buf: bytes, start: int, end: int):
        """The record whose canonical fields fill ``buf[start:end]``."""
        what = self.record.__name__
        values: dict[str, Any] = {}
        last_type = 0
        try:
            for type_code, vs, ve in _tlvs(buf, start, end):
                row = self._by_type.get(type_code)
                if row is None:
                    raise DecodeError(f"unknown type 0x{type_code:04x} inside {what}")
                _, field_name, codec, occurs = row
                if type_code < last_type or (type_code == last_type and occurs != _REPEATED):
                    raise DecodeError(f"{what} fields out of canonical order or duplicated")
                last_type = type_code
                value = codec.decode(buf, vs, ve)
                if occurs == _REPEATED:
                    values.setdefault(field_name, []).append(value)
                else:
                    values[field_name] = value
            for _, field_name, _, occurs in self.rows:
                if occurs == _ONCE and field_name not in values:
                    raise DecodeError(f"{what} missing {field_name}")
            return self.record(**values)
        except ValueError as exc:  # a constructor's check, or text that is not UTF-8
            raise DecodeError(f"bad {what}: {exc}") from None


_PAYLOAD = _Container(
    AuthorizationPayload,
    (TYPE_GROUP_ID, "group_id", _BYTES, _ONCE),
    (TYPE_NONCE, "nonce", _BYTES, _OPTIONAL),
    (TYPE_TIMESTAMP, "timestamp", _UINT64, _OPTIONAL),
    (TYPE_PAYLOAD_SIGNATURE, "signature", _BYTES, _OPTIONAL),
    (TYPE_GROUP_ID_ENCRYPTED, "group_id_encrypted", _FLAG, _ONCE),
)
_INTEREST = _Container(
    Interest,
    (TYPE_NAME, "name", _NAME, _ONCE),
    (TYPE_AUTH_PAYLOAD, "payload", _PAYLOAD, _OPTIONAL),
    (TYPE_KEY_ID, "key_id", _BYTES, _OPTIONAL),
)
_CONTENT = _Container(
    ContentObject,
    (TYPE_NAME, "name", _NAME, _ONCE),
    (TYPE_CONTENT_DATA, "data", _BYTES, _ONCE),
    (TYPE_VERIFICATION_KEY, "verification_keys", _KEY_ENTRY, _REPEATED),
    (TYPE_EXPIRY_TIME, "expiry_time", _UINT64, _ONCE),
    (TYPE_PRODUCER_SIGNATURE, "producer_signature", _BYTES, _ONCE),
)
_NACK = _Container(
    Nack,
    (TYPE_INTEREST, "interest", _INTEREST, _ONCE),
    (TYPE_NACK_REASON, "reason", _TEXT, _ONCE),
)

# the message kinds, by top-level type
_MESSAGES = {TYPE_INTEREST: _INTEREST, TYPE_CONTENT: _CONTENT, TYPE_NACK: _NACK}


def encode_interest(interest: Interest) -> bytes:
    """Canonical Interest TLV."""
    return _INTEREST.encode(TYPE_INTEREST, interest)


def encode_content(content: ContentObject) -> bytes:
    """Canonical ContentObject TLV."""
    return _CONTENT.encode(TYPE_CONTENT, content)


def encode_nack(nack: Nack) -> bytes:
    """Canonical Nack TLV."""
    return _NACK.encode(TYPE_NACK, nack)


def encode_message(message: Interest | ContentObject | Nack) -> bytes:
    """The canonical bytes of any record."""
    if isinstance(message, Interest):
        return encode_interest(message)
    if isinstance(message, ContentObject):
        return encode_content(message)
    return encode_nack(message)


def _decode(data: bytes, expected: int | None):
    """The message that is the single TLV ``data``, of type ``expected``
    unless that is ``None``."""
    if len(data) > MAX_MESSAGE_LEN:
        raise DecodeError("message exceeds 1 MiB")
    top = next(_tlvs(data, 0, len(data)), None)
    if top is None or top[2] != len(data):
        raise DecodeError("a message must be exactly one TLV")
    type_code, start, end = top
    if type_code not in _MESSAGES or expected not in (None, type_code):
        raise DecodeError(f"unexpected top-level type 0x{type_code:04x}")
    return _MESSAGES[type_code].decode(data, start, end)


def decode_interest(data: bytes) -> Interest:
    return _decode(data, TYPE_INTEREST)


def decode_content(data: bytes) -> ContentObject:
    return _decode(data, TYPE_CONTENT)


def decode_message(data: bytes) -> Interest | ContentObject | Nack:
    """Decode any message kind."""
    return _decode(data, None)
