import copy
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from ibac import crypto
from ibac import router as router_module
from ibac.authcheck import FailReason, members, run_authorization_check
from ibac.consumer import ConsumerContext, ConsumerMode, interest_generation
from ibac.producer import Producer, ProtectionPolicy
from ibac.router import DropReason, EventKind, Router, RouterEvent
from ibac.wire import (AuthorizationPayload, ContentObject, Interest, Nack, Name, SchemeTag,
                       encode_name)
from replay_reference import assert_bound_holds, full_sweep

PREFIX = (b"edu", b"uci")
HOME = Name.from_uri("/edu/uci/ics/home.html")


def build_world(policy=ProtectionPolicy.FULL, scheme=SchemeTag.ENC, lifetime=60_000,
                groups=1, **router_args):
    materials = [crypto.gen_group(128, seed + 1) for seed in range(groups)]
    producer = Producer(PREFIX)
    for material in materials:
        producer.register_group(material)
    shared = producer.publish(
        HOME, b"data", [m.group_id for m in materials], scheme, lifetime, policy
    )
    router = Router(batch_rng=random.Random(0), **router_args)
    router.add_route(PREFIX, 9)  # iface 9 points at the producer
    return materials, producer, router, shared


def consumer_ctx(material, clock_value=1000.0, mode=ConsumerMode.FULL,
                 scheme=SchemeTag.ENC, rng_seed=1, content_key=None):
    ctx = ConsumerContext(
        group=material,
        mode=mode,
        scheme=scheme,
        clock=lambda: clock_value,
        rng=random.Random(rng_seed),
    )
    if content_key is not None:
        ctx.content_keys[HOME.components] = content_key
    return ctx


def fetch(material, **kwargs):
    return interest_generation(consumer_ctx(material, **kwargs), PREFIX, HOME)


def serve_and_cache(router, producer, interest, now):
    """Producer answers and the router ingests the content for one pending."""
    events, _ = router.on_interest(interest, in_iface=0, now=now)
    assert events[-1].kind is EventKind.FORWARD_INTEREST
    response = producer.content_object_generation(interest, now)
    assert response.served
    events, verifies = router.on_content(response.content, in_iface=9, now=now + 1)
    return response.content, events, verifies


# ---------------------------------------------------------------------------
# cache-hit authorization

def cache_check(router, payload, name_bytes, now):
    """The check ``on_content`` runs on a pending record, against the keys
    and window of the copy ``router`` caches under ``name_bytes``."""
    entry = router.cs[name_bytes]
    candidates = router._candidates(payload, entry)
    return run_authorization_check(
        payload, name_bytes, candidates, router.replay_book, now, entry.window_ms, router.skew_ms
    )


def test_check_pass_records_nonce_then_duplicate_fails():
    (material,), producer, router, _ = build_world()
    first = fetch(material, rng_seed=1)
    serve_and_cache(router, producer, first, 1000.0)
    name_bytes = encode_name(first.name)

    second = fetch(material, rng_seed=2)
    assert router.cs[name_bytes].window_ms == 61_000.0 - 1001.0
    outcome = cache_check(router, second.payload, name_bytes, 1500.0)
    assert outcome.passed
    # each pass, the forwarded record's included, is booked until its
    # timestamp leaves the copy's window
    assert router.replay_book.names == {
        name_bytes: {first.payload.nonce: 60_999.0, second.payload.nonce: 60_999.0}
    }
    replay = cache_check(router, second.payload, name_bytes, 1600.0)
    assert replay.failure is FailReason.DUPLICATE_NONCE


def test_check_stale_timestamp():
    (material,), producer, router, _ = build_world(lifetime=2000)
    first = fetch(material, clock_value=1000.0)
    serve_and_cache(router, producer, first, 1000.0)
    old = fetch(material, clock_value=900.0, rng_seed=3)
    outcome = cache_check(router, old.payload, encode_name(old.name), 3500.0)
    assert outcome.failure is FailReason.STALE_TIMESTAMP


def test_check_unknown_group_key():
    (material,), producer, router, shared = build_world(scheme=SchemeTag.HASH)
    first = fetch(material, scheme=SchemeTag.HASH)
    serve_and_cache(router, producer, first, 1000.0)
    outsider = crypto.gen_group(128, 50)
    foreign = interest_generation(
        consumer_ctx(
            outsider, scheme=SchemeTag.HASH, rng_seed=4, content_key=material.obfuscation_key
        ),
        PREFIX,
        HOME,
    )
    outcome = cache_check(router, foreign.payload, encode_name(foreign.name), 1500.0)
    assert outcome.failure is FailReason.UNKNOWN_GROUP_KEY


def test_check_missing_payload():
    (material,), producer, router, _ = build_world()
    first = fetch(material)
    serve_and_cache(router, producer, first, 1000.0)
    bare = Interest(first.name)
    outcome = cache_check(router, bare.payload, encode_name(bare.name), 1500.0)
    assert outcome.failure is FailReason.MISSING_PAYLOAD


# ---------------------------------------------------------------------------
# interest pipeline

def test_miss_forwards_and_creates_pit():
    (material,), producer, router, _ = build_world()
    interest = fetch(material)
    events, _ = router.on_interest(interest, in_iface=0, now=1000.0)
    assert [e.kind for e in events] == [EventKind.FORWARD_INTEREST]
    assert events[0].iface == 9
    assert encode_name(interest.name) in router.pit


def test_second_pending_interest_aggregates():
    (material,), producer, router, _ = build_world()
    first = fetch(material, rng_seed=1)
    second = fetch(material, rng_seed=2)
    router.on_interest(first, in_iface=0, now=1000.0)
    events, _ = router.on_interest(second, in_iface=3, now=1001.0)
    assert [e.kind for e in events] == [EventKind.AGGREGATE]
    records = router.pit[encode_name(first.name)].records
    assert [iface for iface, _ in records] == [0, 3]


def test_a_pit_entry_makes_its_waiting_list_on_the_first_aggregation():
    # a lone forward, every random probe of a flood among them, holds no list
    (material,), producer, router, _ = build_world()
    first, second = fetch(material, rng_seed=1), fetch(material, rng_seed=2)
    router.on_interest(first, in_iface=0, now=1000.0)
    pit = router.pit[encode_name(first.name)]
    assert pit.waiting is None and pit.records == [(0, first)]
    router.on_interest(second, in_iface=3, now=1001.0)
    assert pit.waiting == [(3, second)]
    # a NACK re-forwards the one record waiting, and the new entry is lone again
    router.on_nack(Nack(first, "BadSignature"), in_iface=9, now=1050.0)
    pit = router.pit[encode_name(first.name)]
    assert pit.forwarded is second and pit.waiting is None


def test_no_route_drop():
    router = Router()
    interest = Interest(Name((b"nowhere",)))
    events, _ = router.on_interest(interest, in_iface=0, now=0.0)
    assert events[0].kind is EventKind.DROP_INTEREST
    assert events[0].reason is DropReason.NO_ROUTE


def test_cache_hit_pass_serves_and_replay_drops():
    (material,), producer, router, _ = build_world()
    first = fetch(material, rng_seed=1)
    serve_and_cache(router, producer, first, 1000.0)
    second = fetch(material, rng_seed=2)
    events, verifies = router.on_interest(second, in_iface=4, now=1500.0)
    assert verifies == 1
    assert events[0].kind is EventKind.SERVE_FROM_CACHE
    assert events[0].iface == 4
    assert events[0].message.data == b"data"
    replay_events, _ = router.on_interest(second, in_iface=4, now=1600.0)
    assert replay_events[0].kind is EventKind.DROP_INTEREST
    assert replay_events[0].reason is FailReason.DUPLICATE_NONCE


def test_forwarding_depends_only_on_name_bytes():
    (material,), producer, router, _ = build_world()
    a = fetch(material, rng_seed=1)
    b = fetch(material, rng_seed=2)  # same name, different payload
    events_a, _ = router.on_interest(a, in_iface=0, now=1000.0)
    fresh = Router()
    fresh.add_route(PREFIX, 9)
    events_b, _ = fresh.on_interest(b, in_iface=0, now=1000.0)
    assert [e.kind for e in events_a] == [e.kind for e in events_b]
    assert events_a[0].iface == events_b[0].iface
    assert events_a[0].name_bytes == events_b[0].name_bytes


# ---------------------------------------------------------------------------
# content pipeline

def test_unsolicited_content_dropped():
    (material,), producer, router, _ = build_world()
    interest = fetch(material)
    response = producer.content_object_generation(interest, 1000.0)
    events, _ = router.on_content(response.content, in_iface=9, now=1001.0)
    assert events[0].kind is EventKind.DROP_CONTENT
    assert events[0].reason is DropReason.UNSOLICITED
    assert encode_name(interest.name) not in router.cs


def test_content_from_a_face_the_record_did_not_go_out_on_is_unsolicited():
    # a forged copy on another face neither answers the pending record nor
    # takes the cache: the real answer from upstream does both
    (material,), producer, router, _ = build_world()
    interest = fetch(material, rng_seed=1)
    events, _ = router.on_interest(interest, in_iface=0, now=1000.0)
    assert [(e.kind, e.iface) for e in events] == [(EventKind.FORWARD_INTEREST, 9)]
    name_bytes = encode_name(interest.name)
    pit = router.pit[name_bytes]

    forged = ContentObject(interest.name, b"forged", (), expiry_time=2**63)
    events, _ = router.on_content(forged, in_iface=5, now=1001.0)
    assert [(e.kind, e.reason) for e in events] == [
        (EventKind.DROP_CONTENT, DropReason.UNSOLICITED)
    ]
    assert name_bytes not in router.cs and router.pit[name_bytes] is pit

    real = producer.content_object_generation(interest, 1002.0).content
    events, verifies = router.on_content(real, in_iface=9, now=1003.0)
    assert [(e.kind, e.iface, e.reason) for e in events] == [
        (EventKind.CACHE_INSERT, None, None), (EventKind.FORWARD_CONTENT, 0, "verified")
    ]
    assert verifies == 1 and router.cs[name_bytes].content is real
    assert name_bytes not in router.pit

    later = fetch(material, rng_seed=2)
    events, _ = router.on_interest(later, in_iface=4, now=1500.0)
    assert [(e.kind, e.iface, e.message, e.reason) for e in events] == [
        (EventKind.SERVE_FROM_CACHE, 4, real, "verified")
    ]
    events, _ = router.on_interest(Interest(interest.name), in_iface=4, now=1501.0)
    assert [e.kind for e in events] == [EventKind.DROP_INTEREST]


def test_only_the_upstream_face_can_nack_the_forwarded_record():
    # a NACK from another face would otherwise drop the forwarded record
    # and send the next one out where the NACK came from
    (material,), producer, router, _ = build_world()
    first, second = fetch(material, rng_seed=1), fetch(material, rng_seed=2)
    router.on_interest(first, in_iface=0, now=1000.0)
    router.on_interest(second, in_iface=3, now=1001.0)
    pit = router.pit[encode_name(first.name)]
    events, _ = router.on_nack(Nack(first, "BadSignature"), in_iface=5, now=1002.0)
    assert [e.kind for e in events] == [EventKind.NACK_UNMATCHED]
    assert router.pit[encode_name(first.name)] is pit
    events, _ = router.on_nack(Nack(first, "BadSignature"), in_iface=9, now=1003.0)
    assert [(e.kind, e.iface) for e in events] == [
        (EventKind.NACKED, 0), (EventKind.REFORWARD, 9)
    ]
    answer = producer.content_object_generation(second, 1004.0).content
    events, _ = router.on_content(answer, in_iface=9, now=1005.0)
    assert [(e.kind, e.iface, e.reason) for e in events] == [
        (EventKind.CACHE_INSERT, None, None), (EventKind.FORWARD_CONTENT, 3, "verified")
    ]


def test_two_authorized_pendings_both_served_and_pit_removed():
    (material,), producer, router, _ = build_world()
    first = fetch(material, rng_seed=1)
    second = fetch(material, rng_seed=2)
    router.on_interest(first, in_iface=0, now=1000.0)
    router.on_interest(second, in_iface=3, now=1001.0)
    response = producer.content_object_generation(first, 1002.0)
    events, verifies = router.on_content(response.content, in_iface=9, now=1003.0)
    kinds = [e.kind for e in events]
    assert kinds.count(EventKind.FORWARD_CONTENT) == 2
    assert {e.iface for e in events if e.kind is EventKind.FORWARD_CONTENT} == {0, 3}
    assert verifies == 2
    assert encode_name(first.name) not in router.pit
    # nonces of both pendings are recorded: replaying either now fails
    outcome = cache_check(router, first.payload, encode_name(first.name), 1004.0)
    assert outcome.failure is FailReason.DUPLICATE_NONCE


def test_unauthorized_pending_gets_nothing():
    materials, producer, router, shared = build_world(scheme=SchemeTag.HASH, groups=2)
    g1, g2 = materials
    authorized = interest_generation(
        consumer_ctx(g1, scheme=SchemeTag.HASH, rng_seed=1, content_key=shared), PREFIX, HOME
    )
    outsider_material = crypto.gen_group(128, 60)
    outsider = interest_generation(
        consumer_ctx(outsider_material, scheme=SchemeTag.HASH, rng_seed=2, content_key=shared),
        PREFIX,
        HOME,
    )
    router.on_interest(authorized, in_iface=0, now=1000.0)
    router.on_interest(outsider, in_iface=3, now=1001.0)
    response = producer.content_object_generation(authorized, 1002.0)
    events, _ = router.on_content(response.content, in_iface=9, now=1003.0)
    forwarded = [e for e in events if e.kind is EventKind.FORWARD_CONTENT]
    dropped = [e for e in events if e.kind is EventKind.PENDING_DROP]
    assert [e.iface for e in forwarded] == [0]
    assert [e.iface for e in dropped] == [3]
    assert dropped[0].reason is FailReason.UNKNOWN_GROUP_KEY


def test_public_content_forwarded_unconditionally():
    producer = Producer(PREFIX)
    producer.publish(HOME, b"pub", [], SchemeTag.ENC, 60_000, ProtectionPolicy.PUBLIC)
    router = Router()
    router.add_route(PREFIX, 9)
    interest = Interest(HOME)
    router.on_interest(interest, in_iface=0, now=0.0)
    response = producer.content_object_generation(interest, 1.0)
    events, verifies = router.on_content(response.content, in_iface=9, now=2.0)
    assert verifies == 0
    assert any(e.kind is EventKind.FORWARD_CONTENT and e.reason == "public" for e in events)
    # cached copy served without any check
    again = Interest(HOME)
    events, verifies = router.on_interest(again, in_iface=5, now=3.0)
    assert verifies == 0
    assert events[0].kind is EventKind.SERVE_FROM_CACHE


# ---------------------------------------------------------------------------
# expiry

def test_expire_flushes_cache_and_nonces():
    # the copy goes at its expiry; a nonce it passed stays booked until its
    # timestamp leaves the window the check applied, which can outlive the
    # copy, and the first sweep after that removes it
    (material,), producer, router, _ = build_world(lifetime=2000)
    interest = fetch(material)
    content, _, _ = serve_and_cache(router, producer, interest, 1000.0)
    name_bytes = encode_name(interest.name)
    assert router.cs[name_bytes].window_ms == 3000.0 - 1001.0
    hit = fetch(material, clock_value=2500.0, rng_seed=2)
    events, _ = router.on_interest(hit, in_iface=0, now=2500.0)
    assert [e.kind for e in events] == [EventKind.SERVE_FROM_CACHE]
    assert router.replay_book.names == {
        name_bytes: {interest.payload.nonce: 2999.0, hit.payload.nonce: 4499.0}
    }
    router.expire(content.expiry_time - 1.0)
    assert name_bytes in router.cs  # boundary: one ms early keeps the entry
    assert router.replay_book.names == {
        name_bytes: {interest.payload.nonce: 2999.0, hit.payload.nonce: 4499.0}
    }
    events = router.expire(float(content.expiry_time))
    assert [e.kind for e in events] == [EventKind.CACHE_EVICT]
    assert name_bytes not in router.cs
    assert router.replay_book.names == {name_bytes: {hit.payload.nonce: 4499.0}}
    router.expire(4499.0)  # boundary: still inside the hit's window
    assert router.replay_book.names == {name_bytes: {hit.payload.nonce: 4499.0}}
    router.expire(4500.0)
    assert router.replay_book.names == {}


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["interest", "content", "expire"]),
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=3000),
        ),
        max_size=80,
    )
)
def test_pit_expiry_stopping_at_first_live_entry_matches_full_scan(ops):
    router = Router()
    router.add_route(PREFIX, 9)
    now = 0.0
    for op, k, step in ops:
        now += step  # a node's clock never runs backwards
        name = Name(PREFIX + (b"n%d" % k,))
        if op == "interest":
            router.on_interest(Interest(name), in_iface=0, now=now)
        elif op == "content":
            # already expired, so never cached: the next interest goes to the PIT
            router.on_content(ContentObject(name, b"d"), in_iface=9, now=now)
        else:
            full_scan = {
                nb
                for nb, p in router.pit.items()
                if p.created_at + router.pit_lifetime_ms > now
            }
            router.expire(now)
            assert set(router.pit) == full_scan


def test_expired_entry_treated_as_miss_on_interest():
    (material,), producer, router, _ = build_world(lifetime=2000)
    first = fetch(material, clock_value=1000.0)
    content, _, _ = serve_and_cache(router, producer, first, 1000.0)
    late = fetch(material, clock_value=float(content.expiry_time + 10), rng_seed=8)
    events, _ = router.on_interest(late, in_iface=0, now=float(content.expiry_time + 10))
    kinds = [e.kind for e in events]
    assert EventKind.CACHE_EVICT in kinds
    assert EventKind.FORWARD_INTEREST in kinds


def test_shorter_expiry_bounds_revoked_access():
    # a revoked member can hit the cache only until the entry expires
    (material,), producer, router, _ = build_world(lifetime=1500)
    first = fetch(material, clock_value=1000.0)
    content, _, _ = serve_and_cache(router, producer, first, 1000.0)
    producer.revoke_group(material.group_id)
    within = fetch(material, clock_value=1200.0, rng_seed=5)
    events, _ = router.on_interest(within, in_iface=0, now=1200.0)
    assert events[0].kind is EventKind.SERVE_FROM_CACHE
    after = fetch(material, clock_value=4000.0, rng_seed=6)
    events, _ = router.on_interest(after, in_iface=0, now=4000.0)
    assert EventKind.FORWARD_INTEREST in [e.kind for e in events]
    assert not producer.content_object_generation(after, 4001.0).served


# ---------------------------------------------------------------------------
# batched verification

def test_batch_mode_flushes_at_size():
    (material,), producer, router, _ = build_world(batch_size=3)
    warm = fetch(material, rng_seed=1)
    serve_and_cache(router, producer, warm, 1000.0)
    all_events = []
    verifies_total = 0
    for i in range(3):
        interest = fetch(material, rng_seed=10 + i)
        events, verifies = router.on_interest(interest, in_iface=i, now=1500.0 + i)
        all_events += events
        verifies_total += verifies
    serves = [e for e in all_events if e.kind is EventKind.SERVE_FROM_CACHE]
    assert len(serves) == 3
    assert {e.iface for e in serves} == {0, 1, 2}
    assert verifies_total == 1  # one batched check covered all three


def test_batch_mode_timer_requested_for_partial_batch():
    (material,), producer, router, _ = build_world(batch_size=5, batch_timeout_ms=50)
    warm = fetch(material, rng_seed=1)
    serve_and_cache(router, producer, warm, 1000.0)
    interest = fetch(material, rng_seed=2)
    events, _ = router.on_interest(interest, in_iface=0, now=1500.0)
    timers = [e for e in events if e.kind is EventKind.BATCH_TIMER]
    assert len(timers) == 1
    assert timers[0].at == 1550.0
    flush_events, verifies = router.flush_batch(timers[0].batch_key, 1550.0)
    assert [e.kind for e in flush_events] == [EventKind.SERVE_FROM_CACHE]
    assert verifies == 1


def test_a_stale_batch_timer_flushes_nothing():
    (material,), producer, router, _ = build_world(batch_size=2, batch_timeout_ms=100)
    serve_and_cache(router, producer, fetch(material, rng_seed=1), 1000.0)
    first, _ = router.on_interest(fetch(material, rng_seed=2), in_iface=0, now=1500.0)
    (stale,) = [e for e in first if e.kind is EventKind.BATCH_TIMER]
    full, _ = router.on_interest(fetch(material, rng_seed=3), in_iface=1, now=1501.0)
    assert [e.kind for e in full] == [EventKind.SERVE_FROM_CACHE] * 2
    later, _ = router.on_interest(fetch(material, rng_seed=4), in_iface=2, now=1550.0)
    (timer,) = [e for e in later if e.kind is EventKind.BATCH_TIMER]
    assert timer.batch_key == stale.batch_key and timer.batch_serial != stale.batch_serial
    assert router.flush_batch(stale.batch_key, 1600.0, stale.batch_serial) == ([], 0)
    events, verifies = router.flush_batch(timer.batch_key, 1650.0, timer.batch_serial)
    assert [(e.kind, e.iface) for e in events] == [(EventKind.SERVE_FROM_CACHE, 2)]
    assert verifies == 1
    assert router.flush_batch(timer.batch_key, 1650.0, timer.batch_serial) == ([], 0)


def test_batch_mode_fallback_identifies_passers():
    (material,), producer, router, _ = build_world(batch_size=3)
    warm = fetch(material, rng_seed=1)
    serve_and_cache(router, producer, warm, 1000.0)
    good1 = fetch(material, rng_seed=20)
    good2 = fetch(material, rng_seed=21)
    bad = fetch(material, rng_seed=22)
    bad = Interest(
        bad.name,
        type(bad.payload)(
            bad.payload.group_id,
            False,
            bad.payload.nonce,
            bad.payload.timestamp,
            bad.payload.signature[:-1] + b"\xff",
        ),
    )
    all_events = []
    total_verifies = 0
    for i, interest in enumerate((good1, bad, good2)):
        events, verifies = router.on_interest(interest, in_iface=i, now=1500.0 + i)
        all_events += events
        total_verifies += verifies
    serves = {e.iface for e in all_events if e.kind is EventKind.SERVE_FROM_CACHE}
    drops = [e for e in all_events if e.kind is EventKind.DROP_INTEREST]
    assert serves == {0, 2}
    assert len(drops) == 1 and drops[0].reason is FailReason.BAD_SIGNATURE
    # the forged record was booked at enqueue, and the flush forgot it
    assert router.replay_book.names[encode_name(warm.name)].keys() == {
        warm.payload.nonce, good1.payload.nonce, good2.payload.nonce
    }
    assert total_verifies == 1 + 3  # failed batch, then one check per item


def test_a_failed_batch_of_one_is_not_checked_again(monkeypatch):
    # a lone item in a flush gets its own check, charged once as INDIVIDUAL
    # charges it, and its failure is the item's BadSignature
    def world(batch_size):
        (material,), producer, router, _ = build_world(batch_size=batch_size)
        serve_and_cache(router, producer, fetch(material, rng_seed=1), 1000.0)
        honest = fetch(material, rng_seed=2)
        signature = honest.payload.signature  # well formed, but not a signature of it
        forged = Interest(
            honest.name, replace(honest.payload, signature=signature[:-1] + b"\xff")
        )
        return router, forged

    def answer(events):
        return [(e.kind, e.iface, e.message, e.reason) for e in events]

    router, forged = world(1)
    individual, _ = router.on_interest(forged, in_iface=4, now=1500.0)
    router, forged = world(5)
    enqueued, _ = router.on_interest(forged, in_iface=4, now=1500.0)
    (timer,) = [e for e in enqueued if e.kind is EventKind.BATCH_TIMER]
    equations = []
    schnorr_equation = crypto.schnorr_equation
    monkeypatch.setattr(
        crypto, "schnorr_equation", lambda *args: equations.append(args) or schnorr_equation(*args)
    )
    events, verifies = router.flush_batch(timer.batch_key, 1600.0)
    assert answer(events) == [(EventKind.DROP_INTEREST, 4, forged, FailReason.BAD_SIGNATURE)]
    assert answer(events) == [(e.kind, 4, forged, e.reason) for e in individual]
    assert verifies == 1
    assert len(equations) == 1


HIT_KINDS = {
    # kind: the answer to its last call, and that call's verifications
    "passing": (EventKind.SERVE_FROM_CACHE, "verified", 1),
    "forged": (EventKind.DROP_INTEREST, FailReason.BAD_SIGNATURE, 1),
    "replayed": (EventKind.DROP_INTEREST, FailReason.DUPLICATE_NONCE, 0),
    "stale": (EventKind.DROP_INTEREST, FailReason.STALE_TIMESTAMP, 0),
    "encrypted_id": (EventKind.SERVE_FROM_CACHE, "verified", 2),
}


def reference_hit_answer(router: Router, interest: Interest, face: int, now: float):
    """What one check answers to ``interest`` if it hits ``router``'s cache
    at ``now`` on a copy that carries keys, outside the router's queues:
    ``run_authorization_check`` against a copy of the router's book (the
    check books what it passes), under each key the copy carries for the
    payload's group (every key when the group id is encrypted).  Returns
    ``((kind, face, message, reason), verifications)``, or None when the
    interest is no such hit."""
    name_bytes = interest.name._wire or encode_name(interest.name)
    entry = router.cs.get(name_bytes)
    if entry is None or entry.expires_at <= now or not entry.content.verification_keys:
        return None
    payload = interest.payload
    candidates = [
        key for group_id, key in entry.keys
        if payload is not None and (payload.group_id_encrypted or group_id == payload.group_id)
    ]
    book = copy.deepcopy(router.replay_book)
    outcome = run_authorization_check(
        payload, name_bytes, candidates, book, now, entry.window_ms, router.skew_ms
    )
    if outcome.passed:
        return (EventKind.SERVE_FROM_CACHE, face, entry.content, "verified"), outcome.verifies
    return (EventKind.DROP_INTEREST, face, interest, outcome.failure), outcome.verifies


@pytest.mark.parametrize("kind", HIT_KINDS)
def test_a_batch_of_one_answers_each_hit_as_individual_does(kind):
    # each call is answered at once, as the reference check answers it
    pair = crypto.gen_producer_keypair(5)
    materials = [crypto.gen_group(128, seed + 1) for seed in range(2)]
    producer = Producer(PREFIX, keypair=pair)
    for material in materials:
        producer.register_group(material)
    shared = producer.publish(
        HOME, b"data", [m.group_id for m in materials], SchemeTag.HASH, 60_000,
        ProtectionPolicy.FULL,
    )
    router = Router(batch_size=1, batch_rng=random.Random(0))
    router.add_route(PREFIX, 9)

    def interest(rng_seed, clock_value=1500.0, encrypted=False):
        # the second group's key is the second a trial verification tries
        ctx = consumer_ctx(materials[1], clock_value=clock_value, scheme=SchemeTag.HASH,
                           rng_seed=rng_seed, content_key=shared)
        if encrypted:
            ctx.producer_public = {PREFIX: pair.public}
        return interest_generation(ctx, PREFIX, HOME)

    first = interest(1, clock_value=1000.0)
    serve_and_cache(router, producer, first, 1000.0)
    name_bytes = first.name._wire
    passes = router.auth_passes
    book = dict(router.replay_book.seen(name_bytes))
    hit = interest(2)
    if kind == "forged":
        signature = hit.payload.signature
        hit = Interest(hit.name, replace(hit.payload, signature=signature[:-1] + b"\xff"))
    elif kind == "stale":
        hit = interest(2, clock_value=1500.0 + router.skew_ms + 1)
    elif kind == "encrypted_id":
        hit = interest(2, encrypted=True)
    window = router.cs[name_bytes].window_ms
    for n, sent in enumerate([hit, hit] if kind == "replayed" else [hit]):
        now = 1500.0 + n
        answer, verifies = reference_hit_answer(router, sent, 4, now)
        events, verified = router.on_interest(sent, in_iface=4, now=now)
        assert [(e.kind, e.iface, e.message, e.reason) for e in events] == [answer]
        assert verified == verifies
        if answer[0] is EventKind.SERVE_FROM_CACHE:
            passes += 1
            book[sent.payload.nonce] = sent.payload.timestamp + window
    assert (answer[0], answer[3], verifies) == HIT_KINDS[kind]
    assert router.auth_passes == passes
    assert router.replay_book.seen(name_bytes) == book


def test_batch_mode_duplicate_nonce_rejected_at_enqueue():
    (material,), producer, router, _ = build_world(batch_size=4)
    warm = fetch(material, rng_seed=1)
    serve_and_cache(router, producer, warm, 1000.0)
    interest = fetch(material, rng_seed=30)
    router.on_interest(interest, in_iface=0, now=1500.0)
    events, _ = router.on_interest(interest, in_iface=1, now=1501.0)
    assert events[0].kind is EventKind.DROP_INTEREST
    assert events[0].reason is FailReason.DUPLICATE_NONCE


def encrypted_id_world(batch_size=1, groups=2):
    """A router that caches a copy of HOME carrying the keys of ``groups``
    groups, and ``hidden(material, rng_seed)``, a member's interest whose
    group id travels encrypted to the producer."""
    pair = crypto.gen_producer_keypair(5)
    materials = [crypto.gen_group(128, seed + 1) for seed in range(groups)]
    producer = Producer(PREFIX, keypair=pair)
    for material in materials:
        producer.register_group(material)
    shared = producer.publish(
        HOME, b"data", [m.group_id for m in materials], SchemeTag.HASH, 60_000,
        ProtectionPolicy.FULL,
    )
    router = Router(batch_size=batch_size, batch_rng=random.Random(0))
    router.add_route(PREFIX, 9)

    def hidden(material, rng_seed):
        ctx = consumer_ctx(material, scheme=SchemeTag.HASH, rng_seed=rng_seed,
                           content_key=shared)
        ctx.producer_public = {PREFIX: pair.public}
        return interest_generation(ctx, PREFIX, HOME)

    serve_and_cache(router, producer, hidden(materials[0], 1), 1000.0)
    return materials, router, hidden


def test_encrypted_group_id_trial_verified_at_cache():
    materials, router, hidden = encrypted_id_world()
    # second group member also hides its id; the cache cannot decrypt, so it
    # trial-verifies against both carried keys, its own the second
    interest = hidden(materials[1], 2)
    assert interest.payload.group_id_encrypted
    events, verifies = router.on_interest(interest, in_iface=2, now=1500.0)
    assert events[0].kind is EventKind.SERVE_FROM_CACHE
    assert verifies == 2


def test_a_forged_hit_with_an_encrypted_group_id_fails_every_trial():
    materials, router, hidden = encrypted_id_world()
    honest = hidden(materials[1], 2)
    signature = honest.payload.signature
    forged = Interest(
        honest.name, replace(honest.payload, signature=signature[:-1] + bytes([signature[-1] ^ 1]))
    )
    events, verifies = router.on_interest(forged, in_iface=2, now=1500.0)
    assert [(e.kind, e.iface, e.message, e.reason) for e in events] == [
        (EventKind.DROP_INTEREST, 2, forged, FailReason.BAD_SIGNATURE)
    ]
    assert verifies == 2  # one trial under each carried key
    assert forged.payload.nonce not in router.replay_book.seen(forged.name._wire)


@pytest.mark.parametrize("groups", [1, 2])
def test_hits_sharing_an_encrypted_group_id_queue_together_but_are_checked_alone(
    monkeypatch, groups
):
    # the queue key is the group-id field as carried, so two hits that share
    # one ciphertext share a queue; an encrypted id names no single key, so
    # the flush runs no batch test, even under a copy's one key, and
    # trial-verifies each hit under every carried key, its own the last
    materials, router, hidden = encrypted_id_world(2, groups)
    first = hidden(materials[-1], 2)
    blob, name_bytes = first.payload.group_id, first.name._wire
    other = hidden(materials[-1], 3).payload
    assert other.nonce != first.payload.nonce
    second = Interest(first.name, AuthorizationPayload.signed_on_read(
        materials[-1], name_bytes, blob, True, other.nonce, other.timestamp
    ))
    batches = []
    monkeypatch.setattr(crypto, "batch_verify", lambda *args: batches.append(args))
    enqueued, verifies = router.on_interest(first, in_iface=2, now=1500.0)
    assert [e.kind for e in enqueued] == [EventKind.BATCH_ENQUEUE, EventKind.BATCH_TIMER]
    assert (verifies, list(router._batch_queues)) == (0, [(name_bytes, blob)])
    events, verifies = router.on_interest(second, in_iface=3, now=1501.0)
    assert [(e.kind, e.iface, e.reason) for e in events] == [
        (EventKind.SERVE_FROM_CACHE, 2, "verified"),
        (EventKind.SERVE_FROM_CACHE, 3, "verified"),
    ]
    assert verifies == 2 * groups
    assert batches == [] and router._batch_queues == {}


def test_a_carried_key_of_no_group_size_is_skipped():
    (material,), producer, router, _ = build_world()
    odd_key = (material.group_id, b"\x07" * 40)  # 320 bits: no group has that size
    with pytest.raises(crypto.UnsupportedParameter):
        crypto.signature_group(len(odd_key[1]) * 8)

    def cache_with(keys, now):
        interest = fetch(material, rng_seed=int(now))
        router.on_interest(interest, in_iface=0, now=now)
        content = producer.content_object_generation(interest, now).content
        router.on_content(replace(content, verification_keys=keys), in_iface=9, now=now + 1)

    # beside a valid key, the hit verifies under the valid key alone
    cache_with((odd_key, (material.group_id, material.public_key_bytes)), 1000.0)
    events, verifies = router.on_interest(fetch(material, rng_seed=7), in_iface=2, now=1500.0)
    assert [(e.kind, e.reason) for e in events] == [(EventKind.SERVE_FROM_CACHE, "verified")]
    assert verifies == 1

    # with only the unsupported key, the hit is refused and nothing raises
    router.cs.clear()
    cache_with((odd_key,), 2000.0)
    hit = fetch(material, rng_seed=8, clock_value=2500.0)
    events, verifies = router.on_interest(hit, in_iface=2, now=2500.0)
    assert [(e.kind, e.reason) for e in events] == [
        (EventKind.DROP_INTEREST, FailReason.UNKNOWN_GROUP_KEY)
    ]
    assert verifies == 0


# ---------------------------------------------------------------------------
# instrumentation

def test_each_verified_serve_is_a_passed_check():
    (material,), producer, router, _ = build_world()
    first = fetch(material, rng_seed=1)
    serve_and_cache(router, producer, first, 1000.0)
    passes = router.auth_passes  # the forwarded record's
    events = []
    for i in range(5):
        hit = fetch(material, rng_seed=40 + i)
        events += router.on_interest(hit, in_iface=0, now=2000.0 + i)[0]
    bare = Interest(first.name)
    events += router.on_interest(bare, in_iface=0, now=2010.0)[0]
    verified = [e for e in events if (e.kind, e.reason) == (EventKind.SERVE_FROM_CACHE, "verified")]
    assert len(verified) == router.auth_passes - passes == 5


def test_batch_mode_replay_after_passed_flush_is_duplicate():
    (material,), producer, router, _ = build_world(batch_size=2)
    warm = fetch(material, rng_seed=1)
    serve_and_cache(router, producer, warm, 1000.0)
    first = fetch(material, rng_seed=50)
    second = fetch(material, rng_seed=51)
    router.on_interest(first, in_iface=0, now=1500.0)
    events, _ = router.on_interest(second, in_iface=1, now=1501.0)
    assert [e.kind for e in events].count(EventKind.SERVE_FROM_CACHE) == 2
    replay_events, verifies = router.on_interest(second, in_iface=2, now=1502.0)
    assert verifies == 0
    assert [e.kind for e in replay_events] == [EventKind.DROP_INTEREST]
    assert replay_events[0].reason is FailReason.DUPLICATE_NONCE


# ---------------------------------------------------------------------------
# no honest interest lost: flushes past expiry and interest NACKs


def test_batch_flush_after_the_copy_expired_forwards_each_queued_interest():
    # the flush used to drop every queued interest as CacheExpired
    (material,), producer, router, _ = build_world(
        lifetime=1000, batch_size=5, batch_timeout_ms=100
    )
    serve_and_cache(router, producer, fetch(material, rng_seed=1), 1000.0)
    queued = [fetch(material, clock_value=1950.0, rng_seed=2 + i) for i in range(2)]
    for iface, interest in enumerate(queued):
        events, _ = router.on_interest(interest, in_iface=iface, now=1950.0 + iface)
        assert EventKind.BATCH_ENQUEUE in [e.kind for e in events]
    (key,) = router._batch_queues
    events, verifies = router.flush_batch(key, 2050.0)  # the copy expired at 2000
    assert verifies == 0
    assert [e.kind for e in events] == [
        EventKind.CACHE_EVICT, EventKind.FORWARD_INTEREST, EventKind.AGGREGATE
    ]
    assert events[1].iface == 9 and events[1].message is queued[0]
    pit = router.pit[encode_name(queued[0].name)]
    assert pit.records == [(0, queued[0]), (1, queued[1])]
    assert not router.cs
    # booked at enqueue, forgotten by the flush, so the miss path let them on
    seen = router.replay_book.seen(encode_name(queued[0].name))
    assert not any(interest.payload.nonce in seen for interest in queued)


def test_a_same_path_replay_after_the_copy_expired_is_not_served():
    # README's example: a copy cached at t = 1001 with a 1000 ms lifetime
    # serves an interest stamped 1950 at t = 1950; the same record sent to
    # the same router at t = 2100 is still inside the producer's window.
    # The router's book keeps the nonce until 1950 + 999 and refuses the
    # replay on the miss path, as a cache hit would be refused
    (material,), producer, router, _ = build_world(lifetime=1000)
    serve_and_cache(router, producer, fetch(material, clock_value=1000.0), 1000.0)
    interest = fetch(material, clock_value=1950.0, rng_seed=2)
    events, _ = router.on_interest(interest, in_iface=0, now=1950.0)
    assert [e.kind for e in events] == [EventKind.SERVE_FROM_CACHE]
    router.expire(2000.0)
    assert not router.cs
    events, verifies = router.on_interest(interest, in_iface=0, now=2100.0)
    assert [(e.kind, e.iface, e.message, e.reason) for e in events] == [
        (EventKind.DROP_INTEREST, 0, interest, FailReason.DUPLICATE_NONCE)
    ]
    assert verifies == 0 and not router.pit


def forged_and_followers(router, material, now=1000.0):
    """A forged record forwarded, then two honest ones aggregated behind it."""
    honest = fetch(material, rng_seed=1)
    forged = Interest(honest.name, replace(honest.payload, signature=b"\x01" * 48))
    router.on_interest(forged, in_iface=5, now=now)
    followers = [fetch(material, rng_seed=2 + i) for i in range(2)]
    for iface, interest in zip((6, 7), followers):
        router.on_interest(interest, in_iface=iface, now=now + 1 + iface)
    return forged, followers


def test_a_nack_for_the_forwarded_record_forwards_the_next_one():
    (material,), producer, router, _ = build_world()
    forged, followers = forged_and_followers(router, material)
    events, verifies = router.on_nack(Nack(forged, "BadSignature"), in_iface=9, now=1050.0)
    assert verifies == 0
    assert [(e.kind, e.iface, e.message) for e in events] == [
        (EventKind.NACKED, 5, forged),
        (EventKind.REFORWARD, 9, followers[0]),
    ]
    assert events[0].reason == "BadSignature"
    pit = router.pit[encode_name(forged.name)]
    assert pit.forwarded is followers[0] and pit.created_at == 1050.0
    assert pit.records == [(6, followers[0]), (7, followers[1])]
    # the new forward is answered, and both followers get the content
    response = producer.content_object_generation(followers[0], 1060.0)
    events, _ = router.on_content(response.content, in_iface=9, now=1070.0)
    assert [(e.kind, e.iface) for e in events if e.kind is EventKind.FORWARD_CONTENT] == [
        (EventKind.FORWARD_CONTENT, 6), (EventKind.FORWARD_CONTENT, 7)
    ]


def test_a_nack_with_nothing_aggregated_deletes_the_entry():
    (material,), producer, router, _ = build_world()
    interest = fetch(material)
    router.on_interest(interest, in_iface=0, now=1000.0)
    events, _ = router.on_nack(Nack(interest, "StaleTimestamp"), in_iface=9, now=1040.0)
    assert [e.kind for e in events] == [EventKind.NACKED]
    assert not router.pit


def test_a_late_nack_for_a_replaced_entry_changes_nothing():
    (material,), producer, router, _ = build_world()
    forged, followers = forged_and_followers(router, material)
    # the entry expires, and a new interest makes a new one
    later = fetch(material, rng_seed=9)
    router.on_interest(later, in_iface=3, now=1000.0 + router.pit_lifetime_ms + 1)
    pit = router.pit[encode_name(later.name)]
    before = (pit.forwarded, pit.records, pit.created_at)
    for refused in (forged, followers[0]):
        events, _ = router.on_nack(Nack(refused, "BadSignature"), in_iface=9, now=5100.0)
        assert [e.kind for e in events] == [EventKind.NACK_UNMATCHED]
    assert router.pit[encode_name(later.name)] is pit
    assert (pit.forwarded, pit.records, pit.created_at) == before


def test_a_nack_for_an_aggregated_record_changes_nothing():
    # only the forwarded record went upstream, so only it can be refused there
    (material,), producer, router, _ = build_world()
    forged, followers = forged_and_followers(router, material)
    pit = router.pit[encode_name(forged.name)]
    events, _ = router.on_nack(Nack(followers[0], "BadSignature"), in_iface=9, now=1050.0)
    assert [e.kind for e in events] == [EventKind.NACK_UNMATCHED]
    assert pit.forwarded is forged and len(pit.records) == 3


def test_a_refused_cache_hit_names_the_record_and_its_face():
    (material,), producer, router, _ = build_world()
    serve_and_cache(router, producer, fetch(material, rng_seed=1), 1000.0)
    replayed = fetch(material, rng_seed=1)
    events, _ = router.on_interest(replayed, in_iface=4, now=1500.0)
    assert [(e.kind, e.iface, e.message, e.reason) for e in events] == [
        (EventKind.DROP_INTEREST, 4, replayed, FailReason.DUPLICATE_NONCE)
    ]


# ---------------------------------------------------------------------------
# any call sequence on a non-decreasing clock


PUBLIC = Name.from_uri("/edu/uci/ics/public.html")
WAIT = st.sampled_from([0.0, 0.5, 10.0, 60.0, 250.0, 1000.0])  # ms before a call


class RouterMachine(RuleBasedStateMachine):
    """A router fed interests, contents, NACKs, flushes and expiry sweeps in
    any order, each after a wait (``dt``) on a non-decreasing clock, with
    the producer behind its one route answering forwarded records.

    Members of the two groups that may read ``HOME`` send fresh protected
    interests, an outsider sends its own, a public interest names
    ``PUBLIC`` in clear, a forged one carries a corrupted signature, and a
    replay re-sends any record sent before, on any face.  A member also
    sends interests stamped ahead of the skew allowance, interests with no
    payload, and interests that name their group encrypted (a cached copy
    trial-verifies them), and the outsider, given ``HOME``'s shared name
    key, names a group the copy carries no key for.  ``HOME`` is cached
    before the first step.  No call raises: the router documents no
    exception for a well-formed record.

    Each record the router passes is noted, from the hit it served or the
    record it forwarded content to, with its stale time: its timestamp
    plus the window its precheck applied.  Until then the router's book
    holds it at that time, and a re-send is refused as a duplicate, on the
    hit path or, once the copy is gone, on the miss path.
    """

    router_args = {}

    @initialize(lifetime=st.sampled_from([300, 60_000]))
    def world(self, lifetime):
        insiders = [crypto.gen_group(128, seed) for seed in (1, 2)]
        outsider = crypto.gen_group(128, 3)
        self.pair = crypto.gen_producer_keypair(5)
        self.producer = Producer(PREFIX, keypair=self.pair)
        for material in (*insiders, outsider):
            self.producer.register_group(material)
        shared = self.producer.publish(
            HOME, b"data", [m.group_id for m in insiders], SchemeTag.ENC, lifetime
        )
        self.producer.publish(PUBLIC, b"open", [], SchemeTag.ENC, lifetime,
                              ProtectionPolicy.PUBLIC)
        self.router = Router(**self.router_args, pit_lifetime_ms=400,
                             batch_rng=random.Random(0))
        self.router.add_route(PREFIX, 9)
        self.now = 1000.0
        self.contexts = [
            ConsumerContext(group=m, mode=ConsumerMode.FULL, scheme=SchemeTag.ENC,
                            clock=lambda: self.now, rng=random.Random(seed),
                            content_keys={} if key is None else {HOME.components: key})
            for seed, (m, key) in enumerate(
                [(insiders[0], shared), (insiders[1], shared), (outsider, None),
                 (outsider, shared)]
            )
        ]
        self.sent: list[Interest] = []
        self.contents: list[ContentObject] = []
        self.verified_sends = 0
        self._note_passes(self.router)
        # HOME cached from the start, so protected interests hit from the first step
        interest = self._interest(0)
        self._send(0.0, interest, 0)
        response = self.producer.content_object_generation(interest, self.now)
        self.contents.append(response.content)
        self._take(0.0, self.router.on_content, response.content, 9)

    def _note_passes(self, router: Router) -> None:
        """Note in ``self.passed`` each record ``router`` passes: (name bytes,
        nonce) -> (the record, its stale time)."""
        self.passed: dict[tuple, tuple[Interest, float]] = {}
        window_at_enqueue: dict[int, float] = {}
        enqueue, answer = router._enqueue_batch, router._serve_or_drop
        # on_content checks each pending record through the module's binding
        check = self._check = router_module.run_authorization_check

        def noted_enqueue(interest, entry, *args):
            window_at_enqueue[id(interest)] = entry.window_ms
            return enqueue(interest, entry, *args)

        def noted_answer(failure, name_bytes, iface, interest, entry):
            if failure is None:
                stale_at = interest.payload.timestamp + window_at_enqueue[id(interest)]
                self.passed[(name_bytes, interest.payload.nonce)] = (interest, stale_at)
            return answer(failure, name_bytes, iface, interest, entry)

        def noted_check(payload, name_bytes, candidates, book, now, window_ms, *args):
            outcome = check(payload, name_bytes, candidates, book, now, window_ms, *args)
            if outcome.passed and book is router.replay_book:
                interest = next(i for i in self.sent if i.payload is payload)
                stale_at = payload.timestamp + window_ms
                self.passed[(name_bytes, payload.nonce)] = (interest, stale_at)
            return outcome

        router._enqueue_batch, router._serve_or_drop = noted_enqueue, noted_answer
        router_module.run_authorization_check = noted_check

    def teardown(self):
        if hasattr(self, "_check"):
            router_module.run_authorization_check = self._check

    def _take(self, dt, call, *args):
        """``call(*args, now)`` after ``dt`` ms; its events are well formed,
        and returned, and its verification count is kept in ``verifies``."""
        self.now += dt
        events, self.verifies = call(*args, now=self.now)
        assert all(isinstance(e, RouterEvent) and e.kind in members(EventKind) for e in events)
        self.verified_sends += sum(e.reason == "verified" for e in events)
        assert self.verifies >= 0
        return events

    def _send(self, dt, interest: Interest, face: int):
        self.sent.append(interest)
        return self._take(dt, self.router.on_interest, interest, face)

    def _interest(self, sender: int, **changes) -> Interest:
        """A fresh interest for ``HOME`` from ``sender``'s context, with
        ``changes`` made to a copy of that context."""
        ctx = self.contexts[sender]
        return interest_generation(replace(ctx, **changes) if changes else ctx, PREFIX, HOME)

    @rule(dt=WAIT, sender=st.integers(0, 2), face=st.integers(0, 3))
    def protected(self, dt, sender, face):
        self._send(dt, self._interest(sender), face)

    @rule(dt=WAIT, face=st.integers(0, 3))
    def public(self, dt, face):
        self._send(dt, Interest(PUBLIC), face)

    @rule(dt=WAIT, sender=st.integers(0, 1), face=st.integers(0, 3))
    def forged(self, dt, sender, face):
        honest = self._interest(sender)
        signature = honest.payload.signature
        payload = replace(honest.payload, signature=signature[:-1] + bytes([signature[-1] ^ 1]))
        self._send(dt, Interest(honest.name, payload), face)

    @rule(dt=WAIT, sender=st.integers(0, 1), face=st.integers(0, 3),
          kind=st.sampled_from(["stale", "no_payload", "encrypted_group", "unkeyed_group"]))
    def unusual(self, dt, sender, face, kind):
        """A member's interest stamped past the skew allowance at its
        arrival, one with no payload, or one that names its group
        encrypted; or the outsider's under ``HOME``'s shared name key."""
        self.now += dt
        if kind == "stale":
            ahead = self.now + self.router.skew_ms + 2
            interest = self._interest(sender, clock=lambda: ahead)
        elif kind == "no_payload":
            interest = Interest(self._interest(sender).name)
        elif kind == "encrypted_group":
            interest = self._interest(sender, producer_public={PREFIX: self.pair.public})
        else:
            interest = self._interest(3)
        self._send(0.0, interest, face)

    @precondition(lambda self: self.sent)
    @rule(dt=WAIT, data=st.data(), face=st.integers(0, 3))
    def replayed(self, dt, data, face):
        self._send(dt, data.draw(st.sampled_from(self.sent)), face)

    @precondition(lambda self: any(s >= self.now for _, s in self.passed.values()))
    @rule(data=st.data(), face=st.integers(0, 3), after_expiry=st.booleans())
    def replayed_pass(self, data, face, after_expiry):
        """Re-send a record the router passed, before its stale time: at
        once, or when its name's cached copy expires."""
        live = [(i, s) for i, s in self.passed.values() if s >= self.now]
        interest, stale_at = data.draw(st.sampled_from(live))
        entry = self.router.cs.get(interest.name._wire)
        dt = 0.0
        if after_expiry and entry is not None:
            dt = max(entry.expires_at - self.now, 0.0)
        if self.now + dt > stale_at:
            return
        events = self._send(dt, interest, face)
        assert [(e.kind, e.iface, e.message, e.reason) for e in events][-1:] == [
            (EventKind.DROP_INTEREST, face, interest, FailReason.DUPLICATE_NONCE)
        ]
        assert {e.kind for e in events[:-1]} <= {EventKind.CACHE_EVICT}

    @precondition(lambda self: self.router.pit)
    @rule(dt=WAIT, data=st.data())
    def upstream_answers(self, dt, data):
        """The producer answers a forwarded record with content or a NACK."""
        entry = data.draw(st.sampled_from(list(self.router.pit.values())))
        response = self.producer.content_object_generation(entry.forwarded, self.now)
        if response.served:
            self.contents.append(response.content)
            self._take(dt, self.router.on_content, response.content, 9)
        else:
            self._take(dt, self.router.on_nack, Nack(entry.forwarded, response.drop_reason), 9)

    @precondition(lambda self: self.contents)
    @rule(dt=WAIT, data=st.data())
    def late_content(self, dt, data):
        self._take(dt, self.router.on_content, data.draw(st.sampled_from(self.contents)), 9)

    @precondition(lambda self: self.contents)
    @rule(dt=WAIT, data=st.data(), face=st.sampled_from([0, 3, 5, 9]))
    def content_on_any_face(self, dt, data, face):
        """Content arrives on any face.  Only from the face a live record
        went out on does it answer that record; from any other it is
        unsolicited, and the pending entry stays for its upstream."""
        content = data.draw(st.sampled_from(self.contents))
        name_bytes = encode_name(content.name)
        pit = self.router.pit.get(name_bytes)
        live = pit is not None and pit.created_at + self.router.pit_lifetime_ms > self.now + dt
        events = self._take(dt, self.router.on_content, content, face)
        if live and face == pit.upstream:
            assert name_bytes not in self.router.pit
        else:
            assert [(e.kind, e.reason) for e in events] == [
                (EventKind.DROP_CONTENT, DropReason.UNSOLICITED)
            ]
            assert self.router.pit.get(name_bytes) is (pit if live else None)

    @precondition(lambda self: self.sent)
    @rule(dt=WAIT, data=st.data(), reason=st.sampled_from(["BadSignature", "StaleTimestamp"]))
    def stray_nack(self, dt, data, reason):
        refused = data.draw(st.sampled_from(self.sent))
        self._take(dt, self.router.on_nack, Nack(refused, reason), 9)

    @rule(dt=WAIT, data=st.data())
    def flush(self, dt, data):
        keys = [*self.router._batch_queues, (b"none", b"")]
        self._take(dt, self.router.flush_batch, data.draw(st.sampled_from(keys)))

    def _expire(self, router: Router) -> list[RouterEvent]:
        """``router.expire(self.now)``, checked against a full scan of the
        CS, the PIT and the replay book: an expiry tick that returns early
        misses nothing."""
        now = self.now
        book_left = full_sweep(router.replay_book, now)
        evicted = [nb for nb, e in router.cs.items() if e.expires_at <= now]
        cs_left = [(nb, e) for nb, e in router.cs.items() if e.expires_at > now]
        pit_left = [
            (nb, p) for nb, p in router.pit.items() if p.created_at + router.pit_lifetime_ms > now
        ]
        events = router.expire(now)
        assert [(e.kind, e.name_bytes) for e in events] == [
            (EventKind.CACHE_EVICT, nb) for nb in evicted
        ]
        assert [(nb, id(e)) for nb, e in router.cs.items()] == [(nb, id(e)) for nb, e in cs_left]
        assert [(nb, id(p)) for nb, p in router.pit.items()] == [(nb, id(p)) for nb, p in pit_left]
        assert router.replay_book.names == book_left
        return events

    @rule(dt=WAIT)
    def expire(self, dt):
        self.now += dt
        self._expire(self.router)

    @invariant()
    def each_verified_send_is_a_passed_check(self):
        # served from the cache or forwarded to a pending record
        assert self.verified_sends == self.router.auth_passes

    @invariant()
    def no_expiry_falls_before_the_bound(self):
        # what lets an expiry tick before the bound return at once
        router = self.router
        due = [e.expires_at for e in router.cs.values()]
        due += [p.created_at + router.pit_lifetime_ms for p in router.pit.values()]
        assert router._next_due <= min(due, default=math.inf)

    @invariant()
    def the_book_holds_each_pass_until_stale_and_else_only_queued_hits(self):
        booked = self.router.replay_book.names
        for (name_bytes, nonce), (_, stale_at) in self.passed.items():
            if stale_at >= self.now:
                assert booked[name_bytes][nonce] == stale_at
        queued = {
            (key[0], interest.payload.nonce)
            for key, (_, queue) in self.router._batch_queues.items()
            for _, interest in queue
        }
        for name_bytes, seen in booked.items():
            for nonce, stale_at in seen.items():
                noted = self.passed.get((name_bytes, nonce), (None, None))
                assert (name_bytes, nonce) in queued or noted[1] == stale_at

    @invariant()
    def no_nonce_goes_stale_before_the_bound(self):
        assert_bound_holds(self.router.replay_book)

    @invariant()
    def pit_order_is_creation_order(self):
        # expire stops at the first live entry, which needs this order
        created = [entry.created_at for entry in self.router.pit.values()]
        assert created == sorted(created)


class BatchRouterMachine(RouterMachine):
    router_args = {"batch_size": 3, "batch_timeout_ms": 50}


class BatchOfOneRouterMachine(RouterMachine):
    """A batch-of-one router answers each protected cache hit in the call
    that brings it, as the reference check does (``reference_hit_answer``):
    the same event and the same verification count."""

    router_args = {"batch_size": 1, "batch_timeout_ms": 50}

    def _send(self, dt, interest: Interest, face: int):
        reference = reference_hit_answer(self.router, interest, face, self.now + dt)
        events = super()._send(dt, interest, face)
        if reference is not None:
            answer, verifies = reference
            assert [(e.kind, e.iface, e.message, e.reason) for e in events] == [answer]
            assert self.verifies == verifies
        return events

    @precondition(lambda self: False)  # a batch of one leaves no queue to flush
    @rule()
    def flush(self):
        pass


MACHINE_SETTINGS = settings(
    max_examples=25, stateful_step_count=40, derandomize=True, deadline=None, database=None
)
TestRouterMachine = RouterMachine.TestCase
TestRouterMachine.settings = MACHINE_SETTINGS
TestBatchRouterMachine = BatchRouterMachine.TestCase
TestBatchRouterMachine.settings = MACHINE_SETTINGS
TestBatchOfOneRouterMachine = BatchOfOneRouterMachine.TestCase
TestBatchOfOneRouterMachine.settings = MACHINE_SETTINGS
