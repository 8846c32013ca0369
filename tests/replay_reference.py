"""The reference a replay book's sweeps are checked against: a sweep of
every booked nonce, with no early return."""

import math


def full_sweep(book, now: float) -> dict:
    """What a sweep of every booked nonce at ``now`` leaves of ``book.names``."""
    return {
        name_bytes: kept
        for name_bytes, seen in book.names.items()
        if (kept := {nonce: t for nonce, t in seen.items() if t >= now})
    }


def assert_bound_holds(book) -> None:
    """No booked nonce goes stale before the bound a sweep returns early on."""
    stale_times = [t for seen in book.names.values() for t in seen.values()]
    assert book._next_stale <= min(stale_times, default=math.inf)
