import copy
import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from ibac import crypto
from ibac.authcheck import FailReason, members
from ibac.consumer import ConsumerContext, ConsumerMode, interest_generation
from ibac.producer import (
    DropReason,
    DuplicateGroup,
    Producer,
    ProtectionPolicy,
    UnknownGroup,
)
from ibac.router import EventKind
from ibac.wire import ContentObject, Interest, Name, SchemeTag, encode_name
from replay_reference import assert_bound_holds, full_sweep

PREFIX = (b"edu", b"uci")
HOME = Name.from_uri("/edu/uci/ics/home.html")
NEWS = Name.from_uri("/edu/uci/ics/news.html")


def make_producer(keypair=None):
    return Producer(PREFIX, keypair=keypair)


def make_consumer(material, mode=ConsumerMode.FULL, scheme=SchemeTag.ENC,
                  clock=lambda: 1000.0, producer_public=None, content_keys=None,
                  rng_seed=99):
    ctx = ConsumerContext(
        group=material,
        mode=mode,
        scheme=scheme,
        clock=clock,
        rng=random.Random(rng_seed),
        producer_public=producer_public or {},
    )
    if content_keys:
        ctx.content_keys.update(content_keys)
    return ctx


def published(producer, name=HOME, groups=None, scheme=SchemeTag.ENC,
              lifetime=60_000, policy=ProtectionPolicy.FULL, data=b"payload"):
    return producer.publish(name, data, groups or [], scheme, lifetime, policy)


# ---------------------------------------------------------------------------
# registry

def test_register_then_lookup():
    producer = make_producer()
    material = crypto.gen_group(128, 1)
    producer.register_group(material)
    registered = producer.registry[material.group_id]
    assert registered.obfuscation_key == material.obfuscation_key
    assert registered.signing_public == material.signing_public


def test_duplicate_registration():
    producer = make_producer()
    material = crypto.gen_group(128, 1)
    producer.register_group(material)
    with pytest.raises(DuplicateGroup):
        producer.register_group(material)


def test_unknown_lookup_is_none():
    assert make_producer().registry.get(b"\x00" * 32) is None


# ---------------------------------------------------------------------------
# publishing

def test_publish_two_groups_hash_single_map_entry():
    producer = make_producer()
    g1, g2 = crypto.gen_group(128, 1), crypto.gen_group(128, 2)
    producer.register_group(g1)
    producer.register_group(g2)
    shared = published(
        producer, groups=[g1.group_id, g2.group_id], scheme=SchemeTag.HASH
    )
    assert shared is not None
    assert len(producer.catalog) == 1
    assert len(producer.hash_name_map) == 1
    digest, name = next(iter(producer.hash_name_map.items()))
    assert name == HOME
    assert digest == crypto.obfuscate_hash(shared, [b"ics", b"home.html"])


def test_publish_single_group_enc_no_map_entries():
    producer = make_producer()
    g1 = crypto.gen_group(128, 1)
    producer.register_group(g1)
    key = published(producer, groups=[g1.group_id], scheme=SchemeTag.ENC)
    assert key == g1.obfuscation_key
    assert not producer.hash_name_map and not producer.enc_name_map


def test_publish_unknown_group():
    producer = make_producer()
    with pytest.raises(UnknownGroup):
        published(producer, groups=[b"\x01" * 32])


def test_hash_map_size_matches_closed_form():
    producer = make_producer()
    groups = [crypto.gen_group(128, seed) for seed in range(4)]
    for material in groups:
        producer.register_group(material)
    names = [Name.from_uri(f"/edu/uci/hash/{i}") for i in range(3)]
    for i, name in enumerate(names):
        published(
            producer,
            name=name,
            groups=[g.group_id for g in groups[: 1 + i % 3]],
            scheme=SchemeTag.HASH,
        )
    # one deployed obfuscation key per hash-published content
    assert len(producer.hash_name_map) == len(names)


# ---------------------------------------------------------------------------
# authorization: the check content generation runs, with the content's
# lifetime as its window

def fetch_interest(producer, ctx, name=HOME):
    return interest_generation(ctx, producer.prefix, name)


def test_a_passed_check_books_its_nonce():
    producer = make_producer()
    material = crypto.gen_group(128, 1)
    producer.register_group(material)
    published(producer, groups=[material.group_id], lifetime=60_000)
    ctx = make_consumer(material)
    interest = fetch_interest(producer, ctx)
    response = producer.content_object_generation(interest, now=1000.0)
    assert (response.served, response.verifies) == (True, 1)
    # booked until its timestamp leaves the window
    assert producer.replay_book.names == {
        encode_name(interest.name): {interest.payload.nonce: 1000.0 + 60_000}
    }


def test_a_replay_is_duplicate_nonce():
    producer = make_producer()
    material = crypto.gen_group(128, 1)
    producer.register_group(material)
    published(producer, groups=[material.group_id], lifetime=60_000)
    interest = fetch_interest(producer, make_consumer(material))
    assert producer.content_object_generation(interest, 1000.0).served
    response = producer.content_object_generation(interest, 1500.0)
    assert (response.drop_reason, response.verifies) == (FailReason.DUPLICATE_NONCE, 0)


def test_a_stale_timestamp_is_refused():
    producer = make_producer()
    material = crypto.gen_group(128, 1)
    producer.register_group(material)
    published(producer, groups=[material.group_id], lifetime=60_000)
    interest = fetch_interest(producer, make_consumer(material, clock=lambda: 1000.0))
    response = producer.content_object_generation(interest, now=70_000.0)
    assert response.drop_reason is FailReason.STALE_TIMESTAMP
    assert producer.replay_book.names == {}


def test_a_bad_signature_is_refused_and_not_booked():
    producer = make_producer()
    material = crypto.gen_group(128, 1)
    producer.register_group(material)
    published(producer, groups=[material.group_id], lifetime=60_000)
    interest = fetch_interest(producer, make_consumer(material))
    tampered = Interest(
        interest.name,
        type(interest.payload)(
            interest.payload.group_id,
            False,
            interest.payload.nonce,
            interest.payload.timestamp,
            interest.payload.signature[:-1] + b"\x00",
        ),
    )
    response = producer.content_object_generation(tampered, 1000.0)
    assert (response.drop_reason, response.verifies) == (FailReason.BAD_SIGNATURE, 1)
    assert producer.replay_book.names == {}
    # the honest record, with the same nonce, still passes
    assert producer.content_object_generation(interest, 1000.0).served


def test_an_unregistered_group_is_unknown_group():
    producer = make_producer()
    material = crypto.gen_group(128, 1)  # never registered
    interest = fetch_interest(producer, make_consumer(material))
    response = producer.content_object_generation(interest, 1000.0)
    assert response.drop_reason is FailReason.UNKNOWN_GROUP


def test_a_group_revoked_without_a_rekey_is_unknown_group():
    # the entry still lists the group, so the check runs and finds no key
    producer = make_producer()
    material = crypto.gen_group(128, 1)
    producer.register_group(material)
    published(producer, groups=[material.group_id], scheme=SchemeTag.HASH, lifetime=60_000)
    producer.revoke_group(material.group_id)
    interest = fetch_interest(producer, make_consumer(material, scheme=SchemeTag.HASH))
    response = producer.content_object_generation(interest, 1000.0)
    assert (response.drop_reason, response.verifies) == (FailReason.UNKNOWN_GROUP, 0)
    assert producer.replay_book.names == {}


# ---------------------------------------------------------------------------
# content generation

def test_full_enc_interest_served_with_exact_name():
    producer = make_producer()
    material = crypto.gen_group(128, 1)
    producer.register_group(material)
    published(producer, groups=[material.group_id], data=b"the-bytes")
    interest = fetch_interest(producer, make_consumer(material))
    response = producer.content_object_generation(interest, 1000.0)
    assert response.served
    assert encode_name(response.content.name) == encode_name(interest.name)
    assert response.content.data == b"the-bytes"
    assert response.content.verification_keys == (
        (material.group_id, material.public_key_bytes),
    )
    assert response.content.expiry_time == 1000 + 60_000


def test_invalid_signature_dropped():
    producer = make_producer()
    material = crypto.gen_group(128, 1)
    producer.register_group(material)
    published(producer, groups=[material.group_id])
    interest = fetch_interest(producer, make_consumer(material))
    tampered = Interest(
        interest.name,
        type(interest.payload)(
            interest.payload.group_id,
            False,
            interest.payload.nonce,
            interest.payload.timestamp,
            b"\x00" * len(interest.payload.signature),
        ),
    )
    response = producer.content_object_generation(tampered, 1000.0)
    assert not response.served
    assert response.drop_reason is FailReason.BAD_SIGNATURE


def test_two_group_content_carries_both_keys():
    producer = make_producer()
    g1, g2 = crypto.gen_group(128, 1), crypto.gen_group(128, 2)
    producer.register_group(g1)
    producer.register_group(g2)
    shared = published(
        producer, groups=[g1.group_id, g2.group_id], scheme=SchemeTag.HASH
    )
    ctx = make_consumer(g1, scheme=SchemeTag.HASH, content_keys={HOME.components: shared})
    response = producer.content_object_generation(fetch_interest(producer, ctx), 1000.0)
    assert response.served
    assert response.content.verification_keys == (
        (g1.group_id, g1.public_key_bytes),
        (g2.group_id, g2.public_key_bytes),
    )


def test_two_group_content_after_revocation_carries_remaining_key():
    producer = make_producer()
    g1, g2 = crypto.gen_group(128, 1), crypto.gen_group(128, 2)
    producer.register_group(g1)
    producer.register_group(g2)
    shared = published(
        producer, groups=[g1.group_id, g2.group_id], scheme=SchemeTag.HASH
    )
    producer.revoke_group(g2.group_id)  # no rekey: the entry still lists g2
    ctx = make_consumer(g1, scheme=SchemeTag.HASH, content_keys={HOME.components: shared})
    response = producer.content_object_generation(fetch_interest(producer, ctx), 1000.0)
    assert response.served
    assert response.content.verification_keys == ((g1.group_id, g1.public_key_bytes),)


def test_hash_unknown_obfuscated_name_dropped():
    producer = make_producer()
    material = crypto.gen_group(128, 1)
    producer.register_group(material)
    published(producer, groups=[material.group_id], scheme=SchemeTag.HASH)
    ctx = make_consumer(material, scheme=SchemeTag.HASH)
    interest = fetch_interest(producer, ctx, NEWS)  # never published
    response = producer.content_object_generation(interest, 1000.0)
    assert not response.served
    assert response.drop_reason is DropReason.UNKNOWN_NAME


def test_name_level_refusals_share_one_frozen_record_per_reason():
    producer = make_producer()
    material = crypto.gen_group(128, 1)
    producer.register_group(material)
    published(producer, groups=[material.group_id], scheme=SchemeTag.HASH)
    ctx = make_consumer(material, scheme=SchemeTag.HASH)
    unknown = [
        producer.content_object_generation(fetch_interest(producer, ctx, name), 1000.0)
        for name in (NEWS, Name.from_uri("/edu/uci/ics/other.html"))
    ]
    bare = producer.content_object_generation(Interest(Name.from_uri("/edu/uci/x")), 1000.0)
    assert unknown[0] is unknown[1] is bare
    assert unknown[0].drop_reason is DropReason.UNKNOWN_NAME
    assert not unknown[0].served and unknown[0].verifies == 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        unknown[0].verifies = 1


def test_enc_cross_group_request_is_unauthorized():
    producer = make_producer()
    g1, g2 = crypto.gen_group(128, 1), crypto.gen_group(128, 2)
    producer.register_group(g1)
    producer.register_group(g2)
    published(producer, groups=[g1.group_id], scheme=SchemeTag.ENC)
    # g2's member can form a decryptable name under its own key, but g2 is
    # not in the content's authorized set
    ctx = make_consumer(g2, scheme=SchemeTag.ENC)
    response = producer.content_object_generation(fetch_interest(producer, ctx), 1000.0)
    assert not response.served
    assert response.drop_reason is DropReason.UNAUTHORIZED


def test_enc_group_id_key_mismatch_is_authenticity_failure():
    producer = make_producer()
    g1, g2 = crypto.gen_group(128, 1), crypto.gen_group(128, 2)
    producer.register_group(g1)
    producer.register_group(g2)
    published(producer, groups=[g1.group_id], scheme=SchemeTag.ENC)
    genuine = fetch_interest(producer, make_consumer(g1))
    # replayer grabs g1's obfuscated name but claims membership in g2:
    # decrypting the suffix with g2's key fails the integrity tag
    imposter = fetch_interest(producer, make_consumer(g2))
    spliced = Interest(genuine.name, imposter.payload)
    response = producer.content_object_generation(spliced, 1000.0)
    assert not response.served
    assert response.drop_reason is DropReason.AUTHENTICITY_FAILURE


def test_unauthorized_group_dropped():
    producer = make_producer()
    g1, g2 = crypto.gen_group(128, 1), crypto.gen_group(128, 2)
    producer.register_group(g1)
    producer.register_group(g2)
    shared = published(producer, groups=[g1.group_id], scheme=SchemeTag.HASH)
    intruder = make_consumer(g2, scheme=SchemeTag.HASH, content_keys={HOME.components: shared})
    response = producer.content_object_generation(fetch_interest(producer, intruder), 1000.0)
    assert not response.served
    assert response.drop_reason is DropReason.UNAUTHORIZED


def test_obfuscate_only_skips_authorization_and_omits_keys():
    producer = make_producer()
    material = crypto.gen_group(128, 1)
    producer.register_group(material)
    published(
        producer, groups=[material.group_id], policy=ProtectionPolicy.OBFUSCATE_ONLY
    )
    ctx = make_consumer(material, mode=ConsumerMode.OBFUSCATE_ONLY)
    interest = fetch_interest(producer, ctx)
    assert interest.payload.nonce is None
    response = producer.content_object_generation(interest, 1000.0)
    assert response.served
    assert response.content.verification_keys == ()
    assert response.verifies == 0


def test_auth_only_serves_clear_name_with_keys():
    producer = make_producer()
    material = crypto.gen_group(128, 1)
    producer.register_group(material)
    published(producer, groups=[material.group_id], policy=ProtectionPolicy.AUTH_ONLY)
    ctx = make_consumer(material, mode=ConsumerMode.AUTH_ONLY)
    interest = fetch_interest(producer, ctx)
    response = producer.content_object_generation(interest, 1000.0)
    assert response.served
    assert isinstance(response.content.name, Name)
    assert response.content.verification_keys != ()


def test_public_content_served_without_payload():
    producer = make_producer()
    published(producer, policy=ProtectionPolicy.PUBLIC, groups=[])
    response = producer.content_object_generation(Interest(HOME), 1000.0)
    assert response.served
    assert response.content.verification_keys == ()


# strings as a scenario file's parser makes them: equal to the constants,
# but not the same objects
PARSED_FULL = "".join(["FU", "LL"])
PARSED_HASH = "".join(["HA", "SH"])


@pytest.mark.parametrize("policy, scheme", [("FULL", "HASH"), (PARSED_FULL, PARSED_HASH)],
                         ids=["literal", "parsed"])
def test_a_policy_spelled_as_a_file_writes_it_serves_copies_with_their_keys(policy, scheme):
    # the served copy carries its group's key, so a router holding it can
    # check the next interest for the name
    producer = make_producer()
    material = crypto.gen_group(128, 1)
    producer.register_group(material)
    published(producer, groups=[material.group_id], scheme=scheme, policy=policy)
    ctx = make_consumer(material, scheme=SchemeTag.HASH)
    response = producer.content_object_generation(fetch_interest(producer, ctx), 1000.0)
    assert response.served and response.verifies == 1
    assert response.content.verification_keys == (
        (material.group_id, material.public_key_bytes),
    )


@pytest.mark.parametrize(
    "policy, scheme",
    [("BOGUS", SchemeTag.ENC), ("full", SchemeTag.ENC), (None, SchemeTag.HASH),
     (ProtectionPolicy.FULL, "NONE"), (ProtectionPolicy.AUTH_ONLY, "hash"),
     (ProtectionPolicy.PUBLIC, 0)],
)
def test_publish_refuses_a_policy_or_scheme_outside_the_vocabulary(policy, scheme):
    producer = make_producer()
    material = crypto.gen_group(128, 1)
    producer.register_group(material)
    groups = [] if policy == ProtectionPolicy.PUBLIC else [material.group_id]
    with pytest.raises(ValueError, match="unknown (protection policy|scheme)"):
        published(producer, groups=groups, scheme=scheme, policy=policy)
    assert producer.catalog == {} and producer.hash_name_map == {}
    assert producer.enc_name_map == {}


def test_protected_content_not_served_by_clear_name():
    producer = make_producer()
    material = crypto.gen_group(128, 1)
    producer.register_group(material)
    published(producer, groups=[material.group_id])
    # adversary knows the cleartext name but not the obfuscation key
    response = producer.content_object_generation(Interest(HOME), 1000.0)
    assert not response.served
    assert response.drop_reason is DropReason.UNKNOWN_NAME


def test_membership_enumeration_never_leaks():
    # 2 groups x 3 contents x all non-empty authorized subsets
    g1, g2 = crypto.gen_group(128, 1), crypto.gen_group(128, 2)
    names = [Name.from_uri(f"/edu/uci/item/{i}") for i in range(3)]
    for memberships in itertools.product([(0,), (1,), (0, 1)], repeat=3):
        producer = make_producer()
        producer.register_group(g1)
        producer.register_group(g2)
        materials = (g1, g2)
        keys = {}
        for name, members in zip(names, memberships):
            keys[name.components] = producer.publish(
                name,
                name.to_uri().encode(),
                [materials[m].group_id for m in members],
                SchemeTag.HASH,
                60_000,
                ProtectionPolicy.FULL,
            )
        for fetch_no, (name, members) in enumerate(zip(names, memberships)):
            for idx, material in enumerate(materials):
                ctx = make_consumer(
                    material,
                    scheme=SchemeTag.HASH,
                    content_keys={name.components: keys[name.components]},
                    rng_seed=1000 + fetch_no * 10 + idx,
                )
                response = producer.content_object_generation(
                    fetch_interest(producer, ctx, name), 1000.0
                )
                if idx in members:
                    assert response.served
                    assert response.content.data == name.to_uri().encode()
                else:
                    assert not response.served


def test_encrypted_group_id_resolves_like_cleartext():
    pair = crypto.gen_producer_keypair(5)
    producer = make_producer(keypair=pair)
    material = crypto.gen_group(128, 1)
    producer.register_group(material)
    published(producer, groups=[material.group_id], data=b"secret")
    clear = producer.content_object_generation(
        fetch_interest(producer, make_consumer(material)), 1000.0
    )
    encrypted = producer.content_object_generation(
        fetch_interest(producer, make_consumer(material, producer_public={PREFIX: pair.public})),
        2000.0,
    )
    assert clear.served and encrypted.served
    assert clear.content.data == encrypted.content.data == b"secret"


def test_an_undecryptable_group_id_is_a_decrypt_failure():
    # the group id is encrypted under another producer's key
    pair = crypto.gen_producer_keypair(5)
    producer = make_producer(keypair=pair)
    material = crypto.gen_group(128, 1)
    producer.register_group(material)
    published(producer, groups=[material.group_id])
    other = crypto.gen_producer_keypair(6).public
    interest = fetch_interest(producer, make_consumer(material, producer_public={PREFIX: other}))
    response = producer.content_object_generation(interest, 1000.0)
    assert (response.served, response.drop_reason) == (False, DropReason.DECRYPT_FAILURE)
    assert producer.replay_book.names == {}


def test_nonce_windows_swept_after_elapse():
    producer = make_producer()
    material = crypto.gen_group(128, 1)
    producer.register_group(material)
    published(producer, groups=[material.group_id], lifetime=1000)
    interest = fetch_interest(producer, make_consumer(material))
    assert producer.content_object_generation(interest, 1000.0).served
    booked = {encode_name(interest.name): {interest.payload.nonce: 2000.0}}
    assert producer.replay_book.names == booked
    producer.replay_book.sweep(1500.0)
    assert producer.replay_book.names == booked  # window not yet elapsed
    producer.replay_book.sweep(2500.0)
    assert producer.replay_book.names == {}


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["fetch", "sweep"]),
            st.integers(min_value=0, max_value=3000),  # ms the clock moves first
            st.sampled_from([HOME, NEWS]),
            st.sampled_from([300, 1000, 5000]),  # the check's window
            st.sampled_from([0.0, 0.5, 1.0]),  # how far back in it the timestamp lies
        ),
        max_size=30,
    )
)
def test_nonce_sweep_matches_a_full_sweep(ops):
    # a sweep that returns early, before the earliest stale time, forgets
    # exactly what a sweep of every stored nonce forgets
    producer = make_producer()
    material = crypto.gen_group(128, 1)
    producer.register_group(material)
    stamp = [0.0]
    ctx = make_consumer(material, clock=lambda: stamp[0])
    now = 0.0
    for op, step, name, window_ms, lag in ops:
        now += step
        if op == "fetch":
            stamp[0] = max(now - lag * window_ms, 0.0)  # timestamps are unsigned
            # the check's window is the content's lifetime
            published(producer, name, groups=[material.group_id], lifetime=window_ms)
            interest = fetch_interest(producer, ctx, name)
            assert producer.content_object_generation(interest, now).served
        else:
            book = producer.replay_book
            expected = full_sweep(book, now)
            book.sweep(now)
            assert book.names == expected
        assert_bound_holds(producer.replay_book)


def test_rekey_swaps_groups_and_maps():
    producer = make_producer()
    g_old, g_new = crypto.gen_group(128, 1), crypto.gen_group(128, 2)
    producer.register_group(g_old)
    producer.register_group(g_new)
    published(producer, groups=[g_old.group_id], scheme=SchemeTag.HASH)
    assert len(producer.hash_name_map) == 1
    producer.revoke_group(g_old.group_id)
    producer.rekey_content(HOME, [g_new.group_id])
    assert len(producer.hash_name_map) == 1
    digest = next(iter(producer.hash_name_map))
    assert digest == crypto.obfuscate_hash(g_new.obfuscation_key, [b"ics", b"home.html"])
    old_interest = fetch_interest(producer, make_consumer(g_old, scheme=SchemeTag.HASH))
    assert not producer.content_object_generation(old_interest, 1000.0).served


@pytest.mark.parametrize("scheme", [SchemeTag.ENC, SchemeTag.HASH], ids=["ENC", "HASH"])
@pytest.mark.parametrize("new_groups, error", [([b"\x07" * 32], UnknownGroup), ([], ValueError)],
                         ids=["unknown_group", "no_group"])
def test_refused_rekey_leaves_the_producer_unchanged(scheme, new_groups, error):
    producer = make_producer()
    material = crypto.gen_group(128, 1)
    producer.register_group(material)
    published(producer, groups=[material.group_id], scheme=scheme)
    tables = ("catalog", "hash_name_map", "enc_name_map", "_content_key_generation")
    before = {t: dict(getattr(producer, t)) for t in tables}
    with pytest.raises(error):
        producer.rekey_content(HOME, new_groups)
    assert {t: dict(getattr(producer, t)) for t in tables} == before
    interest = fetch_interest(producer, make_consumer(material, scheme=scheme))
    assert producer.content_object_generation(interest, 1000.0).served
    producer.rekey_content(HOME, [material.group_id])  # a retry finds the content
    assert HOME.components in producer.catalog


def test_replay_straddling_window_edge_is_refused():
    # the replay of an interest served just before the window's edge comes
    # back just after it, while its timestamp is still valid
    producer = make_producer()
    material = crypto.gen_group(128, 1)
    producer.register_group(material)
    published(producer, groups=[material.group_id], lifetime=1000)
    first = fetch_interest(producer, make_consumer(material, clock=lambda: 0.0, rng_seed=1))
    assert producer.content_object_generation(first, 0.0).served
    late = fetch_interest(producer, make_consumer(material, clock=lambda: 999.0, rng_seed=2))
    assert late.payload.timestamp == 999
    assert producer.content_object_generation(late, 999.0).served
    replay = producer.content_object_generation(late, 1001.0)
    assert not replay.served
    assert replay.drop_reason is FailReason.DUPLICATE_NONCE


# ---------------------------------------------------------------------------
# the router's service interface, through which the simulator serves a producer

def test_a_served_full_interest_is_one_verified_event_on_its_face():
    producer = make_producer()
    material = crypto.gen_group(128, 1)
    producer.register_group(material)
    published(producer, groups=[material.group_id])
    interest = fetch_interest(producer, make_consumer(material))
    events, verifies = producer.on_interest(interest, 3, 1000.0)
    assert verifies == 1
    [event] = events
    name_bytes = encode_name(interest.name)
    assert (event.kind, event.name_bytes, event.iface, event.reason) == (
        EventKind.SERVE_CONTENT, name_bytes, 3, "verified"
    )
    assert encode_name(event.message.name) == name_bytes
    assert event.message.verification_keys == ((material.group_id, material.public_key_bytes),)


def test_a_served_obfuscate_only_interest_is_plain_with_no_verification():
    producer = make_producer()
    material = crypto.gen_group(128, 1)
    producer.register_group(material)
    published(producer, groups=[material.group_id], policy=ProtectionPolicy.OBFUSCATE_ONLY)
    interest = fetch_interest(producer, make_consumer(material, ConsumerMode.OBFUSCATE_ONLY))
    events, verifies = producer.on_interest(interest, 0, 1000.0)
    assert verifies == 0
    [event] = events
    assert (event.kind, event.iface, event.reason) == (EventKind.SERVE_CONTENT, 0, "plain")
    assert event.message.data == b"payload" and event.message.verification_keys == ()


def test_a_refusal_names_the_refused_record_and_its_face():
    # Unauthorized depends on the payload, so the simulator NACKs it to a
    # router on the event's face, carrying the event's record
    producer = make_producer()
    allowed, other = crypto.gen_group(128, 1), crypto.gen_group(128, 2)
    producer.register_group(allowed)
    producer.register_group(other)
    published(producer, groups=[allowed.group_id], scheme=SchemeTag.HASH,
              policy=ProtectionPolicy.AUTH_ONLY)
    interest = fetch_interest(producer, make_consumer(other, ConsumerMode.AUTH_ONLY))
    events, verifies = producer.on_interest(interest, 2, 1000.0)
    assert verifies == 0
    [event] = events
    assert (event.kind, event.name_bytes, event.iface, event.reason) == (
        EventKind.DROP_INTEREST, encode_name(interest.name), 2, DropReason.UNAUTHORIZED
    )
    assert event.message is interest


def test_content_reaching_a_producer_is_dropped_unsolicited():
    producer = make_producer()
    content = ContentObject(HOME, b"data", (), 5000, b"sig")
    events, verifies = producer.on_content(content, 1, 1000.0)
    assert verifies == 0
    assert [(e.kind, e.name_bytes, e.reason) for e in events] == [
        (EventKind.DROP_CONTENT, encode_name(HOME), "Unsolicited")
    ]
    assert producer.interest_counts == {}


def test_expire_sweeps_the_replay_book_and_returns_no_event():
    producer = make_producer()
    material = crypto.gen_group(128, 1)
    producer.register_group(material)
    published(producer, groups=[material.group_id], lifetime=1000)
    interest = fetch_interest(producer, make_consumer(material))
    producer.on_interest(interest, 0, 1000.0)
    booked = {encode_name(interest.name): {interest.payload.nonce: 2000.0}}
    assert producer.expire(1500.0) == []
    assert producer.replay_book.names == booked  # window not yet elapsed
    assert producer.expire(2500.0) == []
    assert producer.replay_book.names == {}


def test_each_interest_taken_is_counted_under_its_name_bytes():
    producer = make_producer()
    material = crypto.gen_group(128, 1)
    producer.register_group(material)
    published(producer, groups=[material.group_id])
    ctx = make_consumer(material)
    served = fetch_interest(producer, ctx)
    unknown = Interest(Name.from_uri("/edu/uci/nothing"))
    for interest in (served, unknown, served):  # the replay is counted, then refused
        producer.on_interest(interest, 0, 1000.0)
    assert producer.interest_counts == {
        encode_name(served.name): 2, encode_name(unknown.name): 1
    }
    # the decision function alone counts nothing
    producer.content_object_generation(fetch_interest(producer, ctx), 1000.0)
    assert sum(producer.interest_counts.values()) == 3


# ---------------------------------------------------------------------------
# any call sequence on a non-decreasing clock

POOL = [crypto.gen_group(128, seed) for seed in (1, 2, 3)]
PAIR = crypto.gen_producer_keypair(5)
# the last two are refused by a protected publish: the bare prefix, and a
# name outside it
NAMES = [HOME, NEWS, Name(PREFIX), Name.from_uri("/edu/mit/x")]
GROUPS = st.lists(st.sampled_from(range(len(POOL))), max_size=3, unique=True)
WAIT = st.sampled_from([0.0, 1.0, 250.0, 1000.0])  # ms before a call
MODE_FOR = {
    ProtectionPolicy.FULL: ConsumerMode.FULL,
    ProtectionPolicy.OBFUSCATE_ONLY: ConsumerMode.OBFUSCATE_ONLY,
    ProtectionPolicy.AUTH_ONLY: ConsumerMode.AUTH_ONLY,
    ProtectionPolicy.PUBLIC: ConsumerMode.FULL,  # a public name goes in clear anyway
}


class ProducerMachine(RuleBasedStateMachine):
    """A producer fed registrations, revocations, publications, rekeys,
    fetches, replays and replay-book sweeps in any order, on a
    non-decreasing clock.  A call raises only what it documents, a call
    that raises or refuses changes nothing, and a sweep forgets what a
    sweep of every booked nonce forgets."""

    @initialize(policy=st.sampled_from(members(ProtectionPolicy)),
                scheme=st.sampled_from([SchemeTag.ENC, SchemeTag.HASH]))
    def world(self, policy, scheme):
        """Every group registered, ``HOME`` published to the first and
        ``NEWS`` to the first two, both under ``policy``."""
        self.producer = Producer(PREFIX, keypair=PAIR)
        for material in POOL:
            self.producer.register_group(material)
        for name, groups in ((HOME, POOL[:1]), (NEWS, POOL[:2])):
            if policy == ProtectionPolicy.PUBLIC:
                groups = []
            self.producer.publish(name, b"data", [m.group_id for m in groups], scheme, 1000,
                                  policy)
        self.now = 1000.0
        self.rng = random.Random(0)
        self.sent: list[Interest] = []

    def _state(self):
        p = self.producer
        return copy.deepcopy((p.registry, p.catalog, p.hash_name_map, p.enc_name_map,
                              p._content_key_generation, p.replay_book.names))

    def _refusable(self, errors, call, *args) -> None:
        """``call(*args)``, which may refuse by raising one of ``errors``."""
        before = self._state()
        try:
            call(*args)
        except errors:
            assert self._state() == before

    def _answer(self, dt, interest: Interest) -> None:
        self.now += dt
        before = self._state()
        if not self.producer.content_object_generation(interest, self.now).served:
            assert self._state() == before
        self.sent.append(interest)

    @rule(m=st.sampled_from(range(len(POOL))), forged_id=st.booleans())
    def register(self, m, forged_id):
        material = POOL[m]
        if forged_id:  # not the digest of the obfuscation key
            material = dataclasses.replace(material, group_id=bytes(32))
        # DuplicateGroup is a ValueError
        self._refusable(ValueError, self.producer.register_group, material)

    @rule(m=st.sampled_from(range(len(POOL))))
    def revoke(self, m):
        self.producer.revoke_group(POOL[m].group_id)

    @rule(name=st.sampled_from(NAMES), groups=GROUPS,
          scheme=st.sampled_from([SchemeTag.ENC, SchemeTag.HASH]),
          policy=st.sampled_from(members(ProtectionPolicy)),
          lifetime=st.sampled_from([300, 60_000]))
    def publish(self, name, groups, scheme, policy, lifetime):
        # UnknownGroup is a ValueError
        self._refusable(ValueError, self.producer.publish, name, b"data",
                        [POOL[m].group_id for m in groups], scheme, lifetime, policy)

    @rule(name=st.sampled_from(NAMES), groups=GROUPS)
    def rekey(self, name, groups):
        self._refusable((KeyError, ValueError), self.producer.rekey_content, name,
                        [POOL[m].group_id for m in groups])

    @rule(dt=WAIT, m=st.sampled_from(range(len(POOL))), name=st.sampled_from([HOME, NEWS]),
          matched=st.booleans(), mode=st.sampled_from(members(ConsumerMode)),
          scheme=st.sampled_from([SchemeTag.ENC, SchemeTag.HASH]), encrypted=st.booleans(),
          lag=st.sampled_from([0.0, 250.0, 900.0]))
    def fetch(self, dt, m, name, matched, mode, scheme, encrypted, lag):
        """A fetch by a member of ``POOL[m]``, stamped ``lag`` ms in the past,
        with the content's shared key if the catalog lists one; a
        ``matched`` fetch takes the mode and scheme the catalog entry asks
        for."""
        entry = self.producer.catalog.get(name.components)
        if matched and entry is not None:
            scheme = entry.scheme
            mode = MODE_FOR[entry.policy]
        ctx = ConsumerContext(
            group=POOL[m], mode=mode, scheme=scheme, clock=lambda: self.now + dt - lag,
            rng=self.rng, producer_public={PREFIX: PAIR.public} if encrypted else {},
        )
        if entry is not None and entry.content_key is not None:
            ctx.content_keys[name.components] = entry.content_key
        if entry is not None and entry.policy == ProtectionPolicy.PUBLIC:
            ctx.public_names.add(name.components)
        self._answer(dt, interest_generation(ctx, PREFIX, name))

    @precondition(lambda self: self.sent)
    @rule(dt=WAIT, data=st.data())
    def replay(self, dt, data):
        self._answer(dt, data.draw(st.sampled_from(self.sent)))

    @rule(dt=WAIT)
    def sweep(self, dt):
        self.now += dt
        book = self.producer.replay_book
        expected = full_sweep(book, self.now)
        book.sweep(self.now)
        assert book.names == expected

    @invariant()
    def no_nonce_goes_stale_before_the_bound(self):
        assert_bound_holds(self.producer.replay_book)


TestProducerMachine = ProducerMachine.TestCase
TestProducerMachine.settings = settings(
    max_examples=50, stateful_step_count=40, derandomize=True, deadline=None, database=None
)
