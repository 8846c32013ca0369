"""Forwarding engine: FIB longest-prefix routing, PIT aggregation, and a
content store that authorizes every cache hit of key-carrying content.

Cache hits on content that carries verification keys run the full
authorization check (nonce, timestamp, signature) before anything leaves
the store; content without keys is served unconditionally.  When content
arrives for aggregated interests, each pending payload is checked against
the arriving keys the moment they are available, so collapsed requesters
cannot bypass authorization.  Every check is ``authcheck``'s pipeline,
called here with no wrapper: ``run_authorization_check`` for a pending
record, ``precheck`` and then a queued signature for a cache hit.

A protected cache hit takes one path in every verify mode: its precheck
runs at once, and its signature waits in a queue per (name, group id)
until the queue holds ``batch_size`` interests or the timer set by its
first runs out; a timer whose queue was flushed full flushes nothing.
INDIVIDUAL is ``batch_size=1``, the batch of one, flushed as it arrives.
A flush of two or more under one key runs one batch test, and falls back
to each item's own check when it fails; a lone item gets its own check.
An interest whose cached copy expired while it waited for a flush goes on
as a miss, as if it had arrived after the expiry.

A PIT entry keeps the record it forwarded upstream (``forwarded``), the
face that record came from, and the records aggregated behind it
(``waiting``, a list made by the first aggregation, so the lone forward of
each probe in a flood of random names holds none).  When the upstream
refuses the forwarded record and sends an interest NACK carrying it
(``on_nack``), the router drops the record, hands the refusal on toward
the record's face, and forwards the next aggregated record in its place,
so one doomed record cannot take the honest interests collapsed behind it
down with it.  A NACK matches by record identity, so a late one for an
entry since replaced changes nothing.

Replay state is the router's one ``authcheck.ReplayBook``, which outlives
the cached copies.  ``precheck`` books each nonce it passes, so a protected
hit's is booked as it joins a queue; the flush forgets it again when the
signature fails, or when the copy expired first and the hit goes on as a
miss.  Each pass stays booked until ``timestamp + window``, with the window
its check applied: the copy's remaining life at insert.  An interest that
misses the cache with a booked nonce is refused ``DuplicateNonce``, as a
hit is, so a replay sent after the copy expired is not forwarded.  Each
expiry tick sweeps the book first.

A cache entry parses its content's verification keys once, when it is
made: each key whose size names a signature group becomes a
``(group, public key)`` pair, and a key of any other size is skipped there,
so it can never verify.  Each check of a hit filters that parsed list.

The router keeps a lower bound on its earliest CS expiry and PIT deadline.
Every CS insert, PIT insert and re-forward lowers it, and each full expiry
scan resets it to the earliest expiry the scan leaves.  An expiry tick
before the bound returns at once, with what a full scan would return:
nothing.

Routers never hold obfuscation keys; every decision here keys off the
binary name bytes only, read off the name (``name._wire``), which carries
them from its construction.  What a router sends on is the record it was
given: the interest it forwards and the content it caches or forwards are
passed on as received, and nothing here encodes a message.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from . import crypto
from .authcheck import (
    DEFAULT_SKEW_MS,
    FailReason,
    ReplayBook,
    precheck,
    run_authorization_check,
    verify_any,
)
from .wire import (
    AuthorizationPayload,
    ContentObject,
    Interest,
    Nack,
    longest_prefix_match,
)

PIT_LIFETIME_MS = 4000.0
BATCH_TIMEOUT_MS = 100.0  # a queue's flush timer, from its first interest


class DropReason:
    """The router's own refusals, beside the check's ``FailReason``."""

    NO_ROUTE = "NoRoute"
    UNSOLICITED = "Unsolicited"


@dataclass
class CacheEntry:
    content: ContentObject
    inserted_at: float
    expires_at: float
    # (group id, (SignatureGroup, public key)) of each carried key whose
    # size names a group, parsed once when the entry is made
    keys: list = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.keys = []
        for group_id, key_bytes in self.content.verification_keys:
            try:
                group = crypto.signature_group(len(key_bytes) * 8)
            except crypto.UnsupportedParameter:
                continue
            self.keys.append((group_id, (group, int.from_bytes(key_bytes, "big"))))

    @property
    def window_ms(self) -> float:
        """The replay window; at least 1 ms, so content that arrives already
        expired still authorizes the interests it was fetched for."""
        return max(self.expires_at - self.inserted_at, 1.0)


@dataclass(slots=True)
class PitEntry:
    face: int  # where ``forwarded`` came from
    forwarded: Interest  # the record sent upstream
    created_at: float
    upstream: int  # where ``forwarded`` went, the one face its content may come from
    waiting: list | None = None  # (iface, Interest) of each aggregated record

    @property
    def records(self) -> list:
        """``(iface, Interest)`` of every pending record, the forwarded one first."""
        return [(self.face, self.forwarded), *(self.waiting or ())]


class EventKind:
    """What a ``RouterEvent`` did, as the emission log's kind field; a
    ``Producer`` answers with these events too."""

    SERVE_FROM_CACHE = "cs_hit_served"
    FORWARD_INTEREST = "int_forwarded"
    AGGREGATE = "int_aggregated"
    DROP_INTEREST = "int_drop"
    FORWARD_CONTENT = "content_sent"
    PENDING_DROP = "pending_drop"
    CACHE_INSERT = "content_cached"
    DROP_CONTENT = "content_drop"
    CACHE_EVICT = "cache_evicted"
    BATCH_ENQUEUE = "batch_enqueued"
    BATCH_TIMER = "batch_timer"
    NACKED = "int_nacked"  # the forwarded record was refused upstream
    REFORWARD = "int_reforwarded"  # the next aggregated record, sent after a NACK
    NACK_UNMATCHED = "nack_unmatched"
    SERVE_CONTENT = "content_served"  # a producer's answer to an interest


@dataclass(slots=True)
class RouterEvent:
    kind: str  # an EventKind
    name_bytes: bytes = b""
    iface: int | None = None
    message: Interest | ContentObject | None = None  # the record to send or refused
    reason: str | None = None
    at: float | None = None  # BATCH_TIMER: when to flush
    batch_key: tuple | None = None
    batch_serial: int | None = None  # BATCH_TIMER: the queue that set it


class Router:
    def __init__(
        self,
        batch_size: int = 1,
        batch_timeout_ms: float = BATCH_TIMEOUT_MS,
        pit_lifetime_ms: float = PIT_LIFETIME_MS,
        skew_ms: float = DEFAULT_SKEW_MS,
        batch_rng=None,
    ):
        # a queue of protected cache hits is flushed once it holds
        # ``batch_size`` interests, or ``batch_timeout_ms`` after its first
        self.batch_size = batch_size
        self.batch_timeout_ms = batch_timeout_ms
        self.pit_lifetime_ms = pit_lifetime_ms
        self.skew_ms = skew_ms
        self.batch_rng = batch_rng
        self.fib: dict[tuple[bytes, ...], int] = {}
        self.pit: dict[bytes, PitEntry] = {}
        self.cs: dict[bytes, CacheEntry] = {}
        self.replay_book = ReplayBook()
        # no CS expiry or PIT deadline falls before this: ``expire`` scans
        # nothing earlier
        self._next_due = math.inf
        # key -> (serial, (iface, Interest) of each queued hit)
        self._batch_queues: dict[tuple, tuple[int, list]] = {}
        self._batch_serials = itertools.count()
        # checks passed against cached keys; ``check_invariants`` pairs them
        # with the protected contents the log shows sent
        self.auth_passes = 0

    def add_route(self, prefix, iface: int) -> None:
        self.fib[tuple(prefix)] = iface

    # -- authorization against cached content ----------------------------

    @staticmethod
    def _candidates(payload: AuthorizationPayload | None, entry: CacheEntry):
        """The ``(group, public key)`` pairs ``payload`` may verify under."""
        if payload is None:
            return []
        if payload.group_id_encrypted:
            # a cache cannot decrypt the id, so it trial-verifies every key
            return [key for _, key in entry.keys]
        return [key for group_id, key in entry.keys if group_id == payload.group_id]

    # -- interest pipeline -------------------------------------------------

    def on_interest(self, interest: Interest, in_iface: int, now: float):
        """Process one interest; returns (events, signature verifications)."""
        events: list[RouterEvent] = []
        name_bytes = interest.name._wire
        entry = self.cs.get(name_bytes)
        if entry is not None and entry.expires_at <= now:
            self._evict(name_bytes, events)
            entry = None
        if entry is None:
            payload = interest.payload
            if payload is None or payload.nonce not in self.replay_book.seen(name_bytes):
                self._miss(interest, in_iface, name_bytes, now, events)
            else:  # a replay of a booked nonce, whose copy has gone
                failure = FailReason.DUPLICATE_NONCE
                events.append(self._serve_or_drop(failure, name_bytes, in_iface, interest, None))
        elif entry.content.verification_keys:
            return self._enqueue_batch(interest, entry, in_iface, name_bytes, now)
        else:
            events.append(
                RouterEvent(
                    EventKind.SERVE_FROM_CACHE,
                    name_bytes,
                    in_iface,
                    entry.content,
                    reason="public",
                )
            )
        return events, 0

    def _miss(self, interest: Interest, in_iface: int, name_bytes: bytes, now: float,
              events: list[RouterEvent]) -> None:
        """Aggregate ``interest`` on a live PIT entry, or make one and forward."""
        pit = self.pit.get(name_bytes)
        if pit is not None and pit.created_at + self.pit_lifetime_ms <= now:
            del self.pit[name_bytes]
            pit = None
        if pit is not None:
            if pit.waiting is None:
                pit.waiting = []
            pit.waiting.append((in_iface, interest))
            events.append(RouterEvent(EventKind.AGGREGATE, name_bytes))
            return
        out_iface = longest_prefix_match(self.fib, interest.name)
        if out_iface is None:
            events.append(
                RouterEvent(EventKind.DROP_INTEREST, name_bytes, reason=DropReason.NO_ROUTE)
            )
            return
        self.pit[name_bytes] = PitEntry(in_iface, interest, now, out_iface)
        self._due_by(now + self.pit_lifetime_ms)
        events.append(RouterEvent(EventKind.FORWARD_INTEREST, name_bytes, out_iface, interest))

    def _serve_or_drop(
        self,
        failure: str | None,
        name_bytes: bytes,
        iface: int,
        interest: Interest,
        entry: CacheEntry | None,
    ) -> RouterEvent:
        """The answer to one checked interest: ``entry``'s content, or a
        refusal that names the refused record and the face it came from."""
        if failure is not None:
            return RouterEvent(EventKind.DROP_INTEREST, name_bytes, iface, interest, failure)
        return RouterEvent(
            EventKind.SERVE_FROM_CACHE,
            name_bytes,
            iface,
            entry.content,
            reason="verified",
        )

    # -- protected cache hits: precheck, queue, flush -----------------------

    def _enqueue_batch(self, interest, entry, in_iface, name_bytes, now):
        """Precheck now (which books the nonce), queue the signature, and
        flush a queue that is full; an interest left waiting is logged and
        its queue's first sets the timer."""
        payload = interest.payload
        candidates = self._candidates(payload, entry)
        failure = precheck(
            payload, name_bytes, candidates, self.replay_book, now, entry.window_ms, self.skew_ms
        )
        if failure is not None:
            return [self._serve_or_drop(failure, name_bytes, in_iface, interest, entry)], 0
        key = (name_bytes, payload.group_id)
        if key not in self._batch_queues:
            self._batch_queues[key] = (next(self._batch_serials), [])
        serial, queue = self._batch_queues[key]
        queue.append((in_iface, interest))
        if len(queue) >= self.batch_size:
            return self.flush_batch(key, now)
        events = [RouterEvent(EventKind.BATCH_ENQUEUE, name_bytes)]
        if len(queue) == 1:
            events.append(
                RouterEvent(
                    EventKind.BATCH_TIMER,
                    name_bytes,
                    at=now + self.batch_timeout_ms,
                    batch_key=key,
                    batch_serial=serial,
                )
            )
        return events, 0

    def flush_batch(self, key: tuple, now: float, serial: int | None = None):
        """Verify one queue: two or more under one key by one batch test, which
        falls back to each item's own check when it fails, and a lone item,
        or items that name their group encrypted, each by its own check.

        If the cached copy has expired by now, nothing is verified: the
        copy is evicted and each queued interest goes on as a miss.  The
        nonce booked at enqueue is forgotten for each such interest and
        each item that fails.  A timer passes the ``serial`` of the queue that set it; once that
        queue has been flushed full, the timer flushes nothing."""
        open_serial, queue = self._batch_queues.get(key, (None, None))
        if queue is None or serial not in (None, open_serial):
            return [], 0
        del self._batch_queues[key]
        name_bytes = key[0]
        events: list[RouterEvent] = []
        entry = self.cs.get(name_bytes)
        if entry is None or entry.expires_at <= now:
            if entry is not None:
                self._evict(name_bytes, events)
            for iface, interest in queue:
                self.replay_book.discard(name_bytes, interest.payload.nonce)
                self._miss(interest, iface, name_bytes, now, events)
            return events, 0
        payloads = [interest.payload for _, interest in queue]

        verifies = 0
        passed = False  # by one batch test of the whole queue
        candidates = self._candidates(payloads[0], entry)
        if len(queue) > 1 and len(candidates) == 1 and not payloads[0].group_id_encrypted:
            group, signing_public = candidates[0]
            items = [
                ((name_bytes, p.group_id, p.nonce, p.timestamp), p.signature) for p in payloads
            ]
            verifies += 1
            passed = crypto.batch_verify(group, signing_public, items, self.batch_rng)
        for (iface, interest), payload in zip(queue, payloads):
            failure = None
            if not passed:
                outcome = verify_any(
                    payload, name_bytes, self._candidates(payload, entry)
                )
                verifies += outcome.verifies
                failure = outcome.failure
            if failure is None:
                self.auth_passes += 1
            else:
                self.replay_book.discard(name_bytes, payload.nonce)
            events.append(self._serve_or_drop(failure, name_bytes, iface, interest, entry))
        return events, verifies

    # -- content pipeline ---------------------------------------------------

    def on_content(self, content: ContentObject, in_iface: int, now: float):
        """Take content for a live PIT entry from the face its record was
        forwarded on.  Content with no live entry, or from any other face,
        is dropped as ``UNSOLICITED``; a live entry stays for its upstream."""
        events: list[RouterEvent] = []
        verifies = 0
        name_bytes = content.name._wire
        pit = self.pit.get(name_bytes)
        if pit is not None and pit.created_at + self.pit_lifetime_ms <= now:
            del self.pit[name_bytes]
            pit = None
        if pit is None or pit.upstream != in_iface:
            events.append(
                RouterEvent(EventKind.DROP_CONTENT, name_bytes, reason=DropReason.UNSOLICITED)
            )
            return events, verifies
        del self.pit[name_bytes]

        expires = float(content.expiry_time)
        if expires > now:
            entry = self.cs[name_bytes] = CacheEntry(content, now, expires)
            self._due_by(expires)
            events.append(RouterEvent(EventKind.CACHE_INSERT, name_bytes))
        else:
            entry = CacheEntry(content, now, now)

        for iface, interest in pit.records:
            if not content.verification_keys:
                events.append(
                    RouterEvent(
                        EventKind.FORWARD_CONTENT, name_bytes, iface, content, reason="public"
                    )
                )
                continue
            payload = interest.payload
            candidates = self._candidates(payload, entry)
            outcome = run_authorization_check(
                payload, name_bytes, candidates, self.replay_book, now, entry.window_ms,
                self.skew_ms,
            )
            verifies += outcome.verifies
            if outcome.passed:
                self.auth_passes += 1
                events.append(
                    RouterEvent(
                        EventKind.FORWARD_CONTENT,
                        name_bytes,
                        iface,
                        content,
                        reason="verified",
                    )
                )
            else:
                events.append(
                    RouterEvent(
                        EventKind.PENDING_DROP, name_bytes, iface, interest, outcome.failure
                    )
                )
        return events, verifies

    # -- interest NACKs -------------------------------------------------------

    def on_nack(self, nack: Nack, in_iface: int, now: float):
        """Take an upstream refusal of a forwarded record; returns (events, 0).

        A NACK for the record a live PIT entry forwarded, from the face it
        went out on, drops that record (``NACKED``, which names the face it
        came from, so the refusal can go on downstream) and forwards the
        next aggregated record on the same upstream face, under a fresh
        entry lifetime (``REFORWARD``: that record's arrival already
        completed as ``AGGREGATE``, so the re-forward is not a second
        interest completion); with no record left the entry is deleted.
        Any other NACK changes nothing.
        """
        refused = nack.interest
        name_bytes = refused.name._wire
        pit = self.pit.get(name_bytes)
        if (
            pit is None
            or pit.forwarded is not refused
            or pit.upstream != in_iface
            or pit.created_at + self.pit_lifetime_ms <= now
        ):
            return [RouterEvent(EventKind.NACK_UNMATCHED, name_bytes, reason=nack.reason)], 0
        del self.pit[name_bytes]
        events = [RouterEvent(EventKind.NACKED, name_bytes, pit.face, refused, nack.reason)]
        if pit.waiting:
            (face, successor), *rest = pit.waiting
            # re-inserted at the end, so the PIT's dict order stays creation order
            self.pit[name_bytes] = PitEntry(face, successor, now, in_iface, rest or None)
            self._due_by(now + self.pit_lifetime_ms)
            events.append(RouterEvent(EventKind.REFORWARD, name_bytes, in_iface, successor))
        return events, 0

    # -- expiry --------------------------------------------------------------

    def _due_by(self, at: float) -> None:
        """Lower the bound on the next expiry to ``at`` if it is later."""
        if at < self._next_due:
            self._next_due = at

    def _evict(self, name_bytes: bytes, events: list[RouterEvent]) -> None:
        self.cs.pop(name_bytes, None)
        events.append(RouterEvent(EventKind.CACHE_EVICT, name_bytes))

    def expire(self, now: float) -> list[RouterEvent]:
        """Sweep the replay book, then flush every cache entry past its
        expiry and every PIT entry past its lifetime.

        A PIT entry is inserted only when its key is absent, always at the
        router's ``now``, and the simulator never runs a node's clock
        backwards.  So the PIT's dict order is creation order and the scan
        stops at the first entry still live.

        A call before the bound on the earliest expiry returns at once,
        after the book's own sweep; a scan resets the bound to the earliest
        expiry it leaves.
        """
        self.replay_book.sweep(now)
        if now < self._next_due:
            return []
        events: list[RouterEvent] = []
        for name_bytes in [nb for nb, e in self.cs.items() if e.expires_at <= now]:
            self._evict(name_bytes, events)
        self._next_due = min((e.expires_at for e in self.cs.values()), default=math.inf)
        stale = []
        for name_bytes, pit in self.pit.items():
            deadline = pit.created_at + self.pit_lifetime_ms
            if deadline > now:
                self._due_by(deadline)  # the oldest live entry's is the earliest
                break
            stale.append(name_bytes)
        for name_bytes in stale:
            del self.pit[name_bytes]  # expired pending interests drop silently
        return events
