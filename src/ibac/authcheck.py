"""The one authorization pipeline shared by caches and producers.

Every node that satisfies an interest runs the same check on the interest
alone, in a fixed order: nonce duplication, then timestamp validity (the
``precheck``), then signature verification (``verify_any``).  The caller
holds the replay state and records the nonce of a passed check.  A nonce
needs remembering only while its timestamp is valid: once the timestamp
falls out of the window, the timestamp check refuses every replay of it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import crypto
from .wire import AuthorizationPayload

DEFAULT_SKEW_MS = 1000.0


class TextEnum(str, enum.Enum):
    """An enum of strings that reads as its value, as ``enum.StrEnum``
    (Python 3.11+) does: ``str()`` and ``format()`` give the value, and a
    member equals and hashes as its value, so it goes straight into a log
    line or a table keyed by the value."""

    __str__ = str.__str__
    __format__ = str.__format__


class FailReason(TextEnum):
    DUPLICATE_NONCE = "DuplicateNonce"
    STALE_TIMESTAMP = "StaleTimestamp"
    BAD_SIGNATURE = "BadSignature"
    UNKNOWN_GROUP = "UnknownGroup"
    UNKNOWN_GROUP_KEY = "UnknownGroupKey"
    MISSING_PAYLOAD = "MissingPayload"


@dataclass
class CheckOutcome:
    failure: FailReason | None
    verifies: int = 0  # signature verifications actually performed

    @property
    def passed(self) -> bool:
        return self.failure is None


def precheck(
    payload: AuthorizationPayload | None,
    seen,
    candidates,
    now: float,
    window_ms: float,
    skew_ms: float = DEFAULT_SKEW_MS,
    pending=frozenset(),
) -> FailReason | None:
    """Every step of the check short of the signature; None when all pass.

    ``seen`` and ``pending`` are nonce containers (only ``in`` is used): the
    nonces of passed checks, and those of checks still in flight.
    """
    if payload is None or not payload.has_auth_info():
        return FailReason.MISSING_PAYLOAD
    if payload.nonce in seen or payload.nonce in pending:
        return FailReason.DUPLICATE_NONCE
    if not now - window_ms <= payload.timestamp <= now + skew_ms:
        return FailReason.STALE_TIMESTAMP
    if not candidates:
        return FailReason.UNKNOWN_GROUP_KEY
    return None


def verify_any(payload: AuthorizationPayload, name_bytes: bytes, candidates) -> CheckOutcome:
    """Trial-verify the signature under each candidate key until one accepts.

    ``candidates`` is the list of (SignatureGroup, signing_public) pairs the
    signature may verify under; it has one entry when the payload names a
    group in cleartext and every carried key when the group id is encrypted
    (a cache cannot decrypt, so it trial-verifies).
    """
    verifies = 0
    for group, signing_public in candidates:
        verifies += 1
        if crypto.verify_payload(
            group,
            signing_public,
            name_bytes,
            payload.group_id,
            payload.nonce,
            payload.timestamp,
            payload.signature,
        ):
            return CheckOutcome(None, verifies)
    return CheckOutcome(FailReason.BAD_SIGNATURE, verifies)


def run_authorization_check(
    payload: AuthorizationPayload | None,
    name_bytes: bytes,
    candidates: list,
    seen,
    now: float,
    window_ms: float,
    skew_ms: float = DEFAULT_SKEW_MS,
    pending=frozenset(),
) -> CheckOutcome:
    """``precheck`` then ``verify_any``; the caller records a passed nonce."""
    failure = precheck(payload, seen, candidates, now, window_ms, skew_ms, pending)
    if failure is not None:
        return CheckOutcome(failure)
    return verify_any(payload, name_bytes, candidates)
