import itertools
import random

import pytest

from ibac import crypto
from ibac.authcheck import FailReason
from ibac.consumer import ConsumerContext, ConsumerMode, interest_generation
from ibac.producer import (
    DropReason,
    DuplicateGroup,
    Producer,
    ProtectionPolicy,
    UnknownGroup,
)
from ibac.wire import Interest, Name, SchemeTag, encode_name

PREFIX = (b"edu", b"uci")
HOME = Name.from_uri("/edu/uci/ics/home.html", 2)
NEWS = Name.from_uri("/edu/uci/ics/news.html", 2)


def make_producer(window_ms=60_000.0, keypair=None):
    return Producer(PREFIX, keypair=keypair, default_window_ms=window_ms)


def make_consumer(material, mode=ConsumerMode.FULL, scheme=SchemeTag.ENC,
                  clock=lambda: 1000.0, producer_public=None, content_keys=None,
                  rng_seed=99):
    ctx = ConsumerContext(
        group=material,
        mode=mode,
        scheme=scheme,
        clock=clock,
        rng=random.Random(rng_seed),
        producer_public=producer_public,
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
    registered = producer.lookup_group(material.group_id)
    assert registered.obfuscation_key == material.obfuscation_key
    assert registered.signing_public == material.signing_public


def test_duplicate_registration():
    producer = make_producer()
    material = crypto.gen_group(128, 1)
    producer.register_group(material)
    with pytest.raises(DuplicateGroup):
        producer.register_group(material)


def test_unknown_lookup_is_none():
    assert make_producer().lookup_group(b"\x00" * 32) is None


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
    digest, (name, owner) = next(iter(producer.hash_name_map.items()))
    assert name == HOME
    assert owner == crypto.key_id(shared)
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
    names = [Name.from_uri(f"/edu/uci/hash/{i}", 2) for i in range(3)]
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
# authorize

def fetch_interest(producer, ctx, name=HOME):
    return interest_generation(ctx, producer.prefix, name)


def test_authorize_pass_records_nonce():
    producer = make_producer()
    material = crypto.gen_group(128, 1)
    producer.register_group(material)
    published(producer, groups=[material.group_id])
    ctx = make_consumer(material)
    interest = fetch_interest(producer, ctx)
    outcome = producer.authorize(interest, now=1000.0, window_ms=60_000)
    assert outcome.passed
    window = producer.nonce_store[encode_name(interest.name)]
    assert interest.payload.nonce in window.nonces


def test_authorize_replay_is_duplicate_nonce():
    producer = make_producer()
    material = crypto.gen_group(128, 1)
    producer.register_group(material)
    published(producer, groups=[material.group_id])
    interest = fetch_interest(producer, make_consumer(material))
    assert producer.authorize(interest, 1000.0, 60_000).passed
    outcome = producer.authorize(interest, 1500.0, 60_000)
    assert outcome.failure is FailReason.DUPLICATE_NONCE


def test_authorize_stale_timestamp():
    producer = make_producer()
    material = crypto.gen_group(128, 1)
    producer.register_group(material)
    published(producer, groups=[material.group_id])
    interest = fetch_interest(producer, make_consumer(material, clock=lambda: 1000.0))
    outcome = producer.authorize(interest, now=70_000.0, window_ms=60_000)
    assert outcome.failure is FailReason.STALE_TIMESTAMP


def test_authorize_bad_signature():
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
            interest.payload.signature[:-1] + b"\x00",
        ),
    )
    assert producer.authorize(tampered, 1000.0, 60_000).failure is FailReason.BAD_SIGNATURE


def test_authorize_unknown_group():
    producer = make_producer()
    material = crypto.gen_group(128, 1)  # never registered
    interest = fetch_interest(producer, make_consumer(material))
    assert producer.authorize(interest, 1000.0, 60_000).failure is FailReason.UNKNOWN_GROUP


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
    names = [Name.from_uri(f"/edu/uci/item/{i}", 2) for i in range(3)]
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
        fetch_interest(producer, make_consumer(material, producer_public=pair.public)),
        2000.0,
    )
    assert clear.served and encrypted.served
    assert clear.content.data == encrypted.content.data == b"secret"


def test_nonce_windows_swept_after_elapse():
    producer = make_producer()
    material = crypto.gen_group(128, 1)
    producer.register_group(material)
    published(producer, groups=[material.group_id], lifetime=1000)
    interest = fetch_interest(producer, make_consumer(material))
    assert producer.content_object_generation(interest, 1000.0).served
    assert producer.nonce_store
    producer.sweep_nonces(1500.0)
    assert producer.nonce_store  # window not yet elapsed
    producer.sweep_nonces(2500.0)
    assert not producer.nonce_store


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
