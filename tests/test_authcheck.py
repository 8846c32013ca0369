import math

from hypothesis import given, settings
from hypothesis import strategies as st

from ibac.authcheck import ReplayBook
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
