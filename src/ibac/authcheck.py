"""The one authorization pipeline shared by caches and producers.

Every node that satisfies an interest runs the same check on the interest
alone, in a fixed order: payload presence, nonce duplication, timestamp
validity and a candidate key (the ``precheck``), then signature
verification (``verify_any``).  ``run_authorization_check`` runs the two
back to back; a router that queues signatures for a batch runs them apart.

Each node keeps its replay state in one ``ReplayBook``: name, then nonce,
then the time the nonce's timestamp goes stale (``timestamp + window``,
with the window the check applied).  A nonce needs remembering only until
then: once the timestamp falls out of the window, the timestamp check
refuses every replay of it.  ``precheck`` books the nonce of each interest
it passes, and is the one place that books; whoever then finds the
signature bad forgets the booking again.  A book keeps a lower bound on
the earliest stale time it holds, lowered by every booking and reset by
each full sweep, so a sweep at or before the bound returns at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import crypto
from .wire import AuthorizationPayload

DEFAULT_SKEW_MS = 1000.0


class FailReason:
    """Why the check refused an interest.  Each reason only ever becomes
    text (a log field, a NACK reason, a key of the drop counts), so each is
    a plain ``str``."""

    DUPLICATE_NONCE = "DuplicateNonce"
    STALE_TIMESTAMP = "StaleTimestamp"
    BAD_SIGNATURE = "BadSignature"
    UNKNOWN_GROUP = "UnknownGroup"
    UNKNOWN_GROUP_KEY = "UnknownGroupKey"
    MISSING_PAYLOAD = "MissingPayload"


def members(cls) -> tuple[str, ...]:
    """The values of a namespace of constants such as ``FailReason``."""
    return tuple(value for name, value in vars(cls).items() if not name.startswith("_"))


@dataclass
class CheckOutcome:
    failure: str | None  # why the interest was refused, or None
    verifies: int = 0  # signature verifications actually performed

    @property
    def passed(self) -> bool:
        return self.failure is None


class ReplayBook:
    """name bytes -> {nonce: time its timestamp goes stale}, swept by time."""

    __slots__ = ("names", "_next_stale")

    def __init__(self) -> None:
        self.names: dict[bytes, dict[bytes, float]] = {}
        # no booked nonce goes stale before this: ``sweep`` scans nothing earlier
        self._next_stale = math.inf

    def seen(self, name_bytes: bytes):
        """The nonces booked for ``name_bytes`` (only ``in`` is meant)."""
        return self.names.get(name_bytes, ())

    def add(self, name_bytes: bytes, nonce: bytes, stale_at: float) -> None:
        self.names.setdefault(name_bytes, {})[nonce] = stale_at
        if stale_at < self._next_stale:
            self._next_stale = stale_at

    def discard(self, name_bytes: bytes, nonce: bytes) -> None:
        """Forget a booking whose check did not pass after all."""
        seen = self.names.get(name_bytes)
        if seen is not None:
            seen.pop(nonce, None)
            if not seen:
                del self.names[name_bytes]

    def sweep(self, now: float) -> None:
        """Forget nonces whose timestamps are stale: their replays fail on time.

        A sweep at or before the bound on the earliest stale time returns
        at once; a full sweep resets the bound to the earliest it leaves."""
        if now <= self._next_stale:
            return
        for name_bytes, seen in list(self.names.items()):
            for nonce in [n for n, stale_at in seen.items() if stale_at < now]:
                del seen[nonce]
            if not seen:
                del self.names[name_bytes]
        self._next_stale = min(
            (t for seen in self.names.values() for t in seen.values()), default=math.inf
        )


def precheck(
    payload: AuthorizationPayload | None,
    name_bytes: bytes,
    candidates,
    book: ReplayBook,
    now: float,
    window_ms: float,
    skew_ms: float = DEFAULT_SKEW_MS,
) -> str | None:
    """Every step of the check short of the signature; None when all pass.

    A pass books the nonce in ``book`` until its timestamp leaves
    ``window_ms``; a refusal leaves ``book`` as it was.
    """
    if payload is None or not payload.has_auth_info():
        return FailReason.MISSING_PAYLOAD
    if payload.nonce in book.seen(name_bytes):
        return FailReason.DUPLICATE_NONCE
    if not now - window_ms <= payload.timestamp <= now + skew_ms:
        return FailReason.STALE_TIMESTAMP
    if not candidates:
        return FailReason.UNKNOWN_GROUP_KEY
    book.add(name_bytes, payload.nonce, payload.timestamp + window_ms)
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
    book: ReplayBook,
    now: float,
    window_ms: float,
    skew_ms: float = DEFAULT_SKEW_MS,
) -> CheckOutcome:
    """``precheck`` then ``verify_any``; only a pass stays booked in ``book``."""
    failure = precheck(payload, name_bytes, candidates, book, now, window_ms, skew_ms)
    if failure is not None:
        return CheckOutcome(failure)
    outcome = verify_any(payload, name_bytes, candidates)
    if not outcome.passed:
        book.discard(name_bytes, payload.nonce)
    return outcome
