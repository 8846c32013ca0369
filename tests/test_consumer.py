import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibac import crypto
from ibac.authcheck import members
from ibac.consumer import ConsumerContext, ConsumerMode, interest_generation
from ibac.wire import Name, ObfuscatedName, SchemeTag, encode_name

PREFIX = (b"edu", b"uci")
NAME = Name.from_uri("/edu/uci/ics/home.html")


def make_ctx(mode=ConsumerMode.FULL, scheme=SchemeTag.ENC, seed=1, clock=lambda: 5000.0,
             producer_public=None, rng_seed=42):
    return ConsumerContext(
        group=crypto.gen_group(128, seed),
        mode=mode,
        scheme=scheme,
        clock=clock,
        rng=random.Random(rng_seed),
        producer_public=producer_public or {},
    )


def test_full_enc_interest_decrypts_and_verifies():
    ctx = make_ctx()
    interest = interest_generation(ctx, PREFIX, NAME)
    assert isinstance(interest.name, ObfuscatedName)
    assert interest.name.scheme_tag == SchemeTag.ENC
    recovered = crypto.deobfuscate_enc(
        ctx.group.obfuscation_key, interest.name.obfuscated_suffix
    )
    assert recovered == [b"ics", b"home.html"]
    p = interest.payload
    assert crypto.verify_payload(
        ctx.group.group,
        ctx.group.signing_public,
        encode_name(interest.name),
        p.group_id,
        p.nonce,
        p.timestamp,
        p.signature,
    )


def test_auth_only_keeps_cleartext_name():
    ctx = make_ctx(mode=ConsumerMode.AUTH_ONLY)
    interest = interest_generation(ctx, PREFIX, NAME)
    assert isinstance(interest.name, Name)
    assert interest.name is NAME and interest.name._wire == encode_name(NAME)
    p = interest.payload
    assert p.has_auth_info()
    assert crypto.verify_payload(
        ctx.group.group,
        ctx.group.signing_public,
        encode_name(interest.name),
        p.group_id,
        p.nonce,
        p.timestamp,
        p.signature,
    )


def test_obfuscate_only_payload_is_identity_only():
    ctx = make_ctx(mode=ConsumerMode.OBFUSCATE_ONLY)
    interest = interest_generation(ctx, PREFIX, NAME)
    p = interest.payload
    assert p.group_id == ctx.group.group_id
    assert p.nonce is None and p.timestamp is None and p.signature is None


def test_repeat_calls_same_name_fresh_nonce_and_signature():
    ctx = make_ctx()
    a = interest_generation(ctx, PREFIX, NAME)
    b = interest_generation(ctx, PREFIX, NAME)
    assert encode_name(a.name) == encode_name(b.name)
    assert a.payload.nonce != b.payload.nonce
    assert a.payload.signature != b.payload.signature


def test_obfuscated_name_identical_across_group_members():
    a = interest_generation(make_ctx(rng_seed=1), PREFIX, NAME)
    b = interest_generation(make_ctx(rng_seed=2), PREFIX, NAME)
    assert encode_name(a.name) == encode_name(b.name)


def test_hash_scheme_uses_keyed_digest():
    ctx = make_ctx(scheme=SchemeTag.HASH)
    interest = interest_generation(ctx, PREFIX, NAME)
    expected = crypto.obfuscate_hash(ctx.group.obfuscation_key, [b"ics", b"home.html"])
    assert interest.name.obfuscated_suffix == expected


def test_content_key_override():
    ctx = make_ctx(scheme=SchemeTag.HASH)
    shared = bytes(range(16))
    ctx.content_keys[NAME.components] = shared
    interest = interest_generation(ctx, PREFIX, NAME)
    assert interest.name.obfuscated_suffix == crypto.obfuscate_hash(
        shared, [b"ics", b"home.html"]
    )


def test_timestamp_equals_clock():
    ctx = make_ctx(clock=lambda: 123456.0)
    interest = interest_generation(ctx, PREFIX, NAME)
    assert interest.payload.timestamp == 123456


def test_nonces_never_repeat_at_desk_scale():
    ctx = make_ctx()
    seen = set()
    for _ in range(50_000):
        nonce = ctx.rng.getrandbits(128).to_bytes(16, "big")
        assert nonce not in seen
        seen.add(nonce)


def test_group_id_linkability_cleartext_vs_encrypted():
    pair = crypto.gen_producer_keypair(77)
    plain_ctx = make_ctx()
    ids = {interest_generation(plain_ctx, PREFIX, NAME).payload.group_id for _ in range(5)}
    assert len(ids) == 1  # cleartext ids are linkable by design

    enc_ctx = make_ctx(producer_public={PREFIX: pair.public})
    blobs = [interest_generation(enc_ctx, PREFIX, NAME).payload for _ in range(5)]
    assert all(p.group_id_encrypted for p in blobs)
    assert len({p.group_id for p in blobs}) == 5  # pairwise distinct ciphertexts
    for p in blobs:
        assert crypto.decrypt_group_id(pair, p.group_id) == enc_ctx.group.group_id


def test_suffix_errors_propagate():
    ctx = make_ctx()
    with pytest.raises(ValueError):
        interest_generation(ctx, (b"com",), NAME)


@pytest.mark.parametrize("mode", members(ConsumerMode))
@pytest.mark.parametrize("scheme", ["NONE", 1])
def test_a_context_refuses_a_scheme_outside_the_vocabulary(mode, scheme):
    # AUTH_ONLY obfuscates nothing, yet its scheme must still be one of the two
    with pytest.raises(ValueError, match="unknown scheme"):
        make_ctx(mode=mode, scheme=scheme)


@pytest.mark.parametrize("mode", ["BOGUS", "PUBLIC"])
def test_a_context_refuses_a_mode_outside_the_vocabulary(mode):
    with pytest.raises(ValueError, match="unknown consumer mode"):
        make_ctx(mode=mode)


def test_a_context_takes_modes_and_schemes_as_a_scenario_file_spells_them():
    # strings built at run time, as a file's parser builds them: equal to
    # the constants, but other objects
    mode, scheme = "".join(["AUTH", "_ONLY"]), "".join(["HA", "SH"])
    interest = interest_generation(make_ctx(mode=mode, scheme=scheme), PREFIX, NAME)
    assert interest.name == NAME and interest.payload.nonce is not None
    obfuscating = make_ctx(mode="".join(["OBFUSCATE", "_ONLY"]), scheme=scheme)
    interest = interest_generation(obfuscating, PREFIX, NAME)
    assert interest.name.scheme_tag == SchemeTag.HASH and interest.payload.nonce is None


components = st.lists(st.binary(min_size=1, max_size=8), min_size=1, max_size=3)


@settings(max_examples=200, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16),
    scheme=st.sampled_from([SchemeTag.ENC, SchemeTag.HASH]),
    mode=st.sampled_from([ConsumerMode.FULL, ConsumerMode.OBFUSCATE_ONLY]),
    prefix=components,
    rest=components,
)
def test_memoised_name_equals_a_fresh_obfuscation(key, scheme, mode, prefix, rest):
    ctx = make_ctx(mode=mode, scheme=scheme)
    name = Name(tuple(prefix + rest))
    ctx.content_keys[name.components] = key
    obfuscate = crypto.obfuscate_enc if scheme == SchemeTag.ENC else crypto.obfuscate_hash
    fresh = ObfuscatedName(tuple(prefix), obfuscate(key, rest), scheme)
    first = interest_generation(ctx, prefix, name)
    second = interest_generation(ctx, tuple(prefix), name)
    assert second.name is first.name  # the memo hit
    for interest in (first, second):
        assert interest.name == fresh
        assert interest.name._wire == encode_name(fresh)


def test_memo_follows_scheme_and_content_key_changes():
    ctx = make_ctx(scheme=SchemeTag.ENC)
    rest = [b"ics", b"home.html"]
    own = ctx.group.obfuscation_key
    assert interest_generation(ctx, PREFIX, NAME).name.obfuscated_suffix == (
        crypto.obfuscate_enc(own, rest)
    )
    ctx.scheme = SchemeTag.HASH
    hashed = interest_generation(ctx, PREFIX, NAME).name
    assert hashed.scheme_tag == SchemeTag.HASH
    assert hashed.obfuscated_suffix == crypto.obfuscate_hash(own, rest)
    shared = bytes(range(16))
    ctx.content_keys[NAME.components] = shared
    assert interest_generation(ctx, PREFIX, NAME).name.obfuscated_suffix == (
        crypto.obfuscate_hash(shared, rest)
    )
    ctx.scheme = SchemeTag.ENC
    assert interest_generation(ctx, PREFIX, NAME).name.obfuscated_suffix == (
        crypto.obfuscate_enc(shared, rest)
    )
    del ctx.content_keys[NAME.components]
    assert interest_generation(ctx, PREFIX, NAME).name.obfuscated_suffix == (
        crypto.obfuscate_enc(own, rest)
    )


def test_obfuscation_runs_once_per_key_scheme_and_name(monkeypatch):
    calls = []
    for fn in ("obfuscate_enc", "obfuscate_hash"):
        real = getattr(crypto, fn)

        def counting(k, suffix_components, fn=fn, real=real):
            calls.append((fn, k, tuple(suffix_components)))
            return real(k, suffix_components)

        monkeypatch.setattr(crypto, fn, counting)
    ctx = make_ctx(mode=ConsumerMode.OBFUSCATE_ONLY)
    other = Name.from_uri("/edu/uci/ics/about.html")
    for scheme in (SchemeTag.ENC, SchemeTag.HASH, SchemeTag.ENC):
        ctx.scheme = scheme
        for _ in range(3):
            for name in (NAME, other):
                interest_generation(ctx, PREFIX, name)
    ctx.content_keys[NAME.components] = bytes(16)
    for _ in range(3):
        interest_generation(ctx, PREFIX, NAME)
    key = ctx.group.obfuscation_key
    assert sorted(calls) == sorted([
        ("obfuscate_enc", key, (b"ics", b"home.html")),
        ("obfuscate_enc", key, (b"ics", b"about.html")),
        ("obfuscate_hash", key, (b"ics", b"home.html")),
        ("obfuscate_hash", key, (b"ics", b"about.html")),
        ("obfuscate_enc", bytes(16), (b"ics", b"home.html")),
    ])


def _count_signs(monkeypatch):
    calls = []
    real = crypto.sign_payload

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(crypto, "sign_payload", counting)
    return calls


@pytest.mark.parametrize("mode", [ConsumerMode.FULL, ConsumerMode.AUTH_ONLY])
def test_signature_is_made_on_first_read(monkeypatch, mode):
    calls = _count_signs(monkeypatch)
    ctx = make_ctx(mode=mode)
    interest = interest_generation(ctx, PREFIX, NAME)
    p = interest.payload
    assert calls == [] and p.has_auth_info()
    expected = crypto.sign_payload(
        ctx.group, interest.name._wire, p.group_id, p.nonce, p.timestamp
    )
    del calls[:]
    assert p.signature == expected and p._signing is None
    assert p.signature is p.signature and len(calls) == 1


def _rekey(ctx):
    ctx.group = crypto.gen_group(128, 2)


def _switch_scheme(ctx):
    ctx.scheme = SchemeTag.HASH


def _provision_content_key(ctx):
    ctx.content_keys[NAME.components] = bytes(16)


@pytest.mark.parametrize("change", [_rekey, _switch_scheme, _provision_content_key])
def test_pending_signature_signs_the_values_captured_at_creation(change):
    ctx = make_ctx()
    group = ctx.group
    interest = interest_generation(ctx, PREFIX, NAME)
    name_bytes = interest.name._wire
    p = interest.payload
    expected = crypto.sign_payload(group, name_bytes, p.group_id, p.nonce, p.timestamp)
    change(ctx)
    # the context now builds another name, or signs with another key
    other = interest_generation(ctx, PREFIX, NAME)
    assert (other.name._wire, other.payload._signing[0]) != (name_bytes, group)
    assert p.signature == expected
    assert crypto.verify_payload(
        group.group, group.signing_public, name_bytes, p.group_id, p.nonce, p.timestamp,
        p.signature,
    )
