import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibac import crypto
from ibac.authcheck import (
    DEFAULT_SKEW_MS,
    FailReason,
    ReplayBook,
    precheck,
    run_authorization_check,
)
from ibac.wire import AuthorizationPayload
from replay_reference import assert_bound_holds, full_sweep


def test_a_sweep_keeps_a_nonce_until_its_stale_time():
    book = ReplayBook()
    book.add(b"a", b"n1", 100.0)
    book.add(b"a", b"n2", 150.0)
    book.add(b"b", b"n3", 150.0)
    book.sweep(100.0)  # at the bound: returns at once
    assert book.names == {b"a": {b"n1": 100.0, b"n2": 150.0}, b"b": {b"n3": 150.0}}
    # at 150 a timestamp that goes stale at 150 is still valid
    book.sweep(150.0)
    assert book.names == {b"a": {b"n2": 150.0}, b"b": {b"n3": 150.0}}
    assert book._next_stale == 150.0
    book.sweep(150.5)
    assert book.names == {}
    assert book._next_stale == math.inf


def test_discard_forgets_one_booking_and_a_name_left_empty():
    book = ReplayBook()
    book.add(b"a", b"n1", 100.0)
    book.add(b"a", b"n2", 200.0)
    book.discard(b"a", b"n1")
    book.discard(b"a", b"n9")  # never booked
    book.discard(b"z", b"n1")  # no booking for the name
    assert book.names == {b"a": {b"n2": 200.0}}
    assert b"n1" not in book.seen(b"a") and b"n2" in book.seen(b"a")
    book.discard(b"a", b"n2")
    assert book.names == {}
    assert b"n2" not in book.seen(b"a")


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["add", "discard", "sweep"]),
            st.integers(min_value=0, max_value=4),  # ms the clock moves first
            st.sampled_from([b"a", b"b"]),
            st.sampled_from([b"n1", b"n2", b"n3"]),
            st.integers(min_value=-2, max_value=6),  # stale time, from now
        ),
        max_size=40,
    )
)
def test_a_sweep_matches_a_full_sweep(ops):
    # a sweep that returns early, before the earliest stale time, forgets
    # exactly what a sweep of every booked nonce forgets; times are whole
    # milliseconds, so sweeps fall on stale times often
    book = ReplayBook()
    model: dict[bytes, dict[bytes, float]] = {}
    now = 0.0
    for op, step, name, nonce, ahead in ops:
        now += step
        if op == "add":
            book.add(name, nonce, now + ahead)
            model.setdefault(name, {})[nonce] = now + ahead
        elif op == "discard":
            book.discard(name, nonce)
            model.get(name, {}).pop(nonce, None)
        else:
            expected = full_sweep(book, now)
            book.sweep(now)
            assert book.names == expected
            model = {nb: {n: t for n, t in seen.items() if t >= now} for nb, seen in model.items()}
        assert book.names == {nb: seen for nb, seen in model.items() if seen}
        assert_bound_holds(book)


# -- the check ---------------------------------------------------------------

MATERIAL = crypto.gen_group(128, 1)
OTHER = crypto.gen_group(128, 2)  # signs the forgeries
KEYS = [(MATERIAL.group, MATERIAL.signing_public)]
NAME = b"\x07\x05name"
NOW, WINDOW = 10_000.0, 4000.0


def payload(nonce=b"n1", timestamp=NOW, name=NAME, forged=False):
    """A payload for ``MATERIAL``'s group; a forged one is signed by ``OTHER``."""
    signer = OTHER if forged else MATERIAL
    return AuthorizationPayload.signed_on_read(
        signer, name, MATERIAL.group_id, False, nonce, int(timestamp)
    )


def booked_book() -> ReplayBook:
    book = ReplayBook()
    book.add(NAME, b"n1", NOW + 100)
    book.add(b"other", b"n2", NOW + 50)
    return book


REFUSALS = {
    # each case fails an earlier step and every later one it reaches
    "no payload": (None, [], FailReason.MISSING_PAYLOAD),
    "no auth info": (AuthorizationPayload(MATERIAL.group_id), KEYS, FailReason.MISSING_PAYLOAD),
    "booked nonce": (payload(b"n1", NOW - WINDOW - 1, forged=True), [],
                     FailReason.DUPLICATE_NONCE),
    "past the window": (payload(b"n3", NOW - WINDOW - 1, forged=True), [],
                        FailReason.STALE_TIMESTAMP),
    "beyond the skew": (payload(b"n3", NOW + DEFAULT_SKEW_MS + 1, forged=True), [],
                        FailReason.STALE_TIMESTAMP),
    "no candidate key": (payload(b"n3", forged=True), [], FailReason.UNKNOWN_GROUP_KEY),
    "forged": (payload(b"n3", forged=True), KEYS, FailReason.BAD_SIGNATURE),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_each_refusal_comes_in_order_and_leaves_the_book_as_it_was(case):
    sent, candidates, failure = REFUSALS[case]
    book = booked_book()
    before = copy.deepcopy(book.names)
    outcome = run_authorization_check(sent, NAME, candidates, book, NOW, WINDOW)
    assert outcome.failure == failure
    assert outcome.verifies == (1 if failure == FailReason.BAD_SIGNATURE else 0)
    assert book.names == before
    assert_bound_holds(book)
    if failure != FailReason.BAD_SIGNATURE:
        assert precheck(sent, NAME, candidates, book, NOW, WINDOW) == failure
        assert book.names == before


@pytest.mark.parametrize("timestamp", [NOW - WINDOW, NOW, NOW + DEFAULT_SKEW_MS])
def test_a_pass_is_booked_until_its_timestamp_leaves_the_window(timestamp):
    # both edges of the timestamp check are inside it
    book = booked_book()
    expected = copy.deepcopy(book.names)
    expected[NAME][b"n3"] = timestamp + WINDOW
    outcome = run_authorization_check(payload(b"n3", timestamp), NAME, KEYS, book, NOW, WINDOW)
    assert (outcome.passed, outcome.verifies) == (True, 1)
    assert book.names == expected
    assert_bound_holds(book)
    # precheck books on its own: a router queues the signature after it
    fresh = booked_book()
    assert precheck(payload(b"n3", timestamp), NAME, KEYS, fresh, NOW, WINDOW) is None
    assert fresh.names == expected
    assert_bound_holds(fresh)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["check", "check", "check", "sweep"]),
            st.integers(min_value=0, max_value=400),  # ms the clock moves first
            st.sampled_from([NAME, b"other"]),
            st.sampled_from([b"n1", b"n2", b"n3", b"n4"]),
            st.integers(min_value=-1200, max_value=1100),  # timestamp, from now
            st.sampled_from([300.0, 1000.0]),  # the check's window
            st.sampled_from(["honest", "forged", "keyless"]),
        ),
        max_size=40,
    )
)
def test_the_check_matches_a_model_that_checks_then_books(ops):
    # repeated nonces, timestamps on both sides of the window and the skew,
    # forged signatures and missing keys, all on one book
    book = ReplayBook()
    model: dict[bytes, dict[bytes, float]] = {}
    now = 1500.0
    for op, step, name, nonce, ahead, window, kind in ops:
        now += step
        if op == "sweep":
            book.sweep(now)
            model = {nb: {n: t for n, t in seen.items() if t >= now} for nb, seen in model.items()}
        else:
            timestamp = now + ahead
            sent = payload(nonce, timestamp, name, forged=kind == "forged")
            candidates = [] if kind == "keyless" else KEYS
            if nonce in model.get(name, {}):
                expected = FailReason.DUPLICATE_NONCE
            elif not now - window <= int(timestamp) <= now + DEFAULT_SKEW_MS:
                expected = FailReason.STALE_TIMESTAMP
            elif not candidates:
                expected = FailReason.UNKNOWN_GROUP_KEY
            elif kind == "forged":
                expected = FailReason.BAD_SIGNATURE
            else:
                expected = None
                model.setdefault(name, {})[nonce] = int(timestamp) + window
            outcome = run_authorization_check(sent, name, candidates, book, now, window)
            assert outcome.failure == expected
        assert book.names == {nb: seen for nb, seen in model.items() if seen}
        assert_bound_holds(book)
