import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibac import authcheck, crypto, wire
from ibac.authcheck import members
from ibac.wire import (
    AuthorizationPayload,
    ContentObject,
    DecodeError,
    EmptySuffix,
    EncodeError,
    Interest,
    Nack,
    Name,
    ObfuscatedName,
    PrefixMismatch,
    SchemeTag,
    decode_content,
    decode_interest,
    decode_message,
    encode_content,
    encode_interest,
    encode_name,
    longest_prefix_match,
    suffix,
)

# Hand-encoded oracle for the minimal interest /a (one component, no payload):
#   interest  0001 len=9
#     name    0010 len=5
#       comp  0011 len=1 'a'
MINIMAL_INTEREST_HEX = "00010009001000050011000161"


# ---------------------------------------------------------------------------
# strategies

components = st.lists(st.binary(min_size=1, max_size=12), min_size=1, max_size=5)


@st.composite
def names(draw):
    return Name(tuple(draw(components)))


@st.composite
def obfuscated_names(draw):
    prefix = tuple(draw(components))
    scheme = draw(st.sampled_from([SchemeTag.ENC, SchemeTag.HASH]))
    suffix_bytes = draw(st.binary(min_size=1, max_size=48))
    return ObfuscatedName(prefix, suffix_bytes, scheme)


@st.composite
def payloads(draw):
    group_id = draw(st.binary(min_size=1, max_size=32))
    encrypted = draw(st.booleans())
    if draw(st.booleans()):
        return AuthorizationPayload(group_id, encrypted)
    return AuthorizationPayload(
        group_id,
        encrypted,
        nonce=draw(st.binary(min_size=16, max_size=16)),
        timestamp=draw(st.integers(min_value=0, max_value=2**64 - 1)),
        signature=draw(st.binary(min_size=1, max_size=96)),
    )


@st.composite
def interests(draw):
    name = draw(st.one_of(names(), obfuscated_names()))
    return Interest(
        name,
        payload=draw(st.none() | payloads()),
        key_id=draw(st.none() | st.binary(min_size=1, max_size=32)),
    )


@st.composite
def contents(draw):
    keys = draw(
        st.lists(
            st.tuples(st.binary(min_size=1, max_size=32), st.binary(min_size=1, max_size=64)),
            max_size=3,
        )
    )
    return ContentObject(
        name=draw(st.one_of(names(), obfuscated_names())),
        data=draw(st.binary(max_size=128)),
        verification_keys=tuple(keys),
        expiry_time=draw(st.integers(min_value=0, max_value=2**64 - 1)),
        producer_signature=draw(st.binary(max_size=64)),
    )


# ---------------------------------------------------------------------------
# suffix

def test_suffix_example():
    name = Name.from_uri("/edu/uci/ics/home.html")
    assert suffix(name, [b"edu", b"uci"]) == [b"ics", b"home.html"]


def test_suffix_full_prefix_is_error():
    with pytest.raises(EmptySuffix):
        suffix(Name.from_uri("/a/b"), [b"a", b"b"])


def test_suffix_mismatch():
    with pytest.raises(PrefixMismatch):
        suffix(Name.from_uri("/a/b/c"), [b"x"])
    with pytest.raises(PrefixMismatch):
        suffix(Name.from_uri("/a/b"), [b"a", b"b", b"c"])


@given(names(), st.integers(min_value=1, max_value=4))
def test_suffix_reconstructs(name, cut):
    if cut >= len(name.components):
        return
    prefix = name.components[:cut]
    rest = suffix(name, prefix)
    assert tuple(prefix) + tuple(rest) == name.components


# ---------------------------------------------------------------------------
# longest prefix match

def test_lpm_longer_prefix_wins():
    table = {(b"a",): 1, (b"a", b"b"): 2}
    assert longest_prefix_match(table, Name.from_uri("/a/b/c")) == 2


def test_lpm_no_match():
    assert longest_prefix_match({(b"a",): 1}, Name.from_uri("/z/q")) is None


def test_lpm_partial_divergence():
    # oracle: enumerate all prefixes of /a/x by hand: (a,), (a,x); only (a,) is in the table
    table = {(b"a",): 1, (b"a", b"b"): 2}
    assert longest_prefix_match(table, Name.from_uri("/a/x")) == 1


@given(names(), st.dictionaries(st.tuples(st.binary(min_size=1, max_size=3)), st.integers(), max_size=8))
def test_lpm_matches_bruteforce(name, table):
    def oracle():
        best = None
        best_len = -1
        for prefix, iface in table.items():
            if len(prefix) > best_len and name.components[: len(prefix)] == prefix:
                best, best_len = iface, len(prefix)
        return best

    assert longest_prefix_match(table, name) == oracle()


def test_obfuscated_name_components_for_lpm():
    obf = ObfuscatedName((b"edu", b"uci"), b"\x01\x02", SchemeTag.ENC)
    table = {(b"edu", b"uci"): 7}
    assert longest_prefix_match(table, obf) == 7


def reference_longest_prefix_match(table, name):
    """Every prefix of the name's components, longest first, each sliced."""
    if isinstance(name, ObfuscatedName):
        comps = name.routable_prefix + (name.obfuscated_suffix,)
    elif isinstance(name, Name):
        comps = name.components
    else:
        comps = tuple(name)
    for i in range(len(comps), 0, -1):
        hit = table.get(comps[:i])
        if hit is not None:
            return hit
    return None


# few distinct components, so table keys often lead the name
lpm_component = st.sampled_from([b"a", b"b", b"ab"])
lpm_components = st.lists(lpm_component, min_size=1, max_size=4).map(tuple)


@st.composite
def lpm_cases(draw):
    """A name (clear, obfuscated, or a plain component sequence, maybe
    empty) and a table holding some of its prefixes, the empty prefix among
    them, keys longer than the name and unrelated keys."""
    form = draw(st.sampled_from(["clear", "obfuscated", "sequence"]))
    if form == "clear":
        name = Name(draw(lpm_components))
        full = name.components
    elif form == "obfuscated":
        suffix_bytes = draw(st.sampled_from([b"a", b"zz"]))
        scheme = draw(st.sampled_from(members(SchemeTag)))
        name = ObfuscatedName(draw(lpm_components), suffix_bytes, scheme)
        full = name.routable_prefix + (suffix_bytes,)
    else:
        name = draw(st.lists(lpm_component, max_size=4))
        full = tuple(name)
    keys = [full[:i] for i in draw(st.lists(st.integers(0, len(full)), max_size=4))]
    keys += [full + extra for extra in draw(st.lists(lpm_components, max_size=2))]
    keys += draw(st.lists(st.lists(lpm_component, max_size=5).map(tuple), max_size=4))
    if draw(st.booleans()):
        keys.append(())
    return name, {key: i for i, key in enumerate(keys)}


@settings(max_examples=500, derandomize=True, deadline=None)
@given(lpm_cases())
def test_lpm_answers_as_the_reference_loop(case):
    name, table = case
    assert longest_prefix_match(table, name) == reference_longest_prefix_match(table, name)


def test_lpm_never_matches_the_empty_prefix():
    table = {(): 1}
    assert longest_prefix_match(table, []) is None
    assert longest_prefix_match(table, Name.from_uri("/a")) is None
    assert longest_prefix_match(table, ObfuscatedName((b"a",), b"s", SchemeTag.HASH)) is None


def test_lpm_prefers_a_route_to_the_whole_obfuscated_name():
    obf = ObfuscatedName((b"edu", b"uci"), b"\x01\x02", SchemeTag.ENC)
    table = {(b"edu",): 1, (b"edu", b"uci"): 2, (b"edu", b"uci", b"\x01\x02"): 3}
    assert longest_prefix_match(table, obf) == 3
    del table[(b"edu", b"uci")]
    del table[(b"edu", b"uci", b"\x01\x02")]
    assert longest_prefix_match(table, obf) == 1


# ---------------------------------------------------------------------------
# canonical encoding

def test_minimal_interest_matches_hand_encoding():
    interest = Interest(Name((b"a",)))
    assert encode_interest(interest).hex() == MINIMAL_INTEREST_HEX
    assert decode_interest(bytes.fromhex(MINIMAL_INTEREST_HEX)) == interest


def test_equal_records_encode_identically():
    a = Interest(
        ObfuscatedName((b"edu",), b"\xaa\xbb", SchemeTag.HASH),
        AuthorizationPayload(b"gid", False, b"n" * 16, 42, b"sig"),
    )
    b = Interest(
        ObfuscatedName((b"edu",), b"\xaa\xbb", SchemeTag.HASH),
        AuthorizationPayload(b"gid", False, b"n" * 16, 42, b"sig"),
    )
    assert encode_interest(a) == encode_interest(b)


@given(interests())
@settings(max_examples=300)
def test_interest_roundtrip(interest):
    assert decode_interest(encode_interest(interest)) == interest


@given(contents())
@settings(max_examples=300)
def test_content_roundtrip(content):
    assert decode_content(encode_content(content)) == content


def test_bulk_roundtrip_10k_messages():
    rng = random.Random(0xC0FFEE)

    def rand_comps():
        return tuple(
            rng.randbytes(rng.randint(1, 10)) for _ in range(rng.randint(1, 4))
        )

    def rand_name():
        if rng.random() < 0.5:
            return Name(rand_comps())
        return ObfuscatedName(
            rand_comps(),
            rng.randbytes(rng.randint(1, 40)),
            rng.choice([SchemeTag.ENC, SchemeTag.HASH]),
        )

    for i in range(10_000):
        if i % 2 == 0:
            payload = None
            if rng.random() < 0.7:
                payload = AuthorizationPayload(
                    rng.randbytes(32),
                    bool(rng.getrandbits(1)),
                    rng.randbytes(16),
                    rng.getrandbits(48),
                    rng.randbytes(96),
                )
            msg = Interest(rand_name(), payload)
            assert decode_message(encode_interest(msg)) == msg
        else:
            msg = ContentObject(
                rand_name(),
                rng.randbytes(rng.randint(0, 64)),
                tuple(
                    (rng.randbytes(32), rng.randbytes(64))
                    for _ in range(rng.randint(0, 2))
                ),
                rng.getrandbits(48),
                rng.randbytes(32),
            )
            assert decode_message(encode_content(msg)) == msg


def _encode(message):
    return wire.encode_message(message)


def _fresh(message):
    """An equal record built field by field, so nothing in it comes from decoding."""
    name = message.name
    if isinstance(name, Name):
        name = Name(name.components)
    else:
        name = ObfuscatedName(name.routable_prefix, name.obfuscated_suffix, name.scheme_tag)
    if isinstance(message, Interest):
        return Interest(name, message.payload, message.key_id)
    return ContentObject(
        name,
        message.data,
        message.verification_keys,
        message.expiry_time,
        message.producer_signature,
    )


@settings(max_examples=300, deadline=None)
@given(st.one_of(interests(), contents()), st.data())
def test_accepted_bytes_are_the_canonical_encoding(message, data):
    # a decoded name's bytes, which routers key their tables on, are its
    # constructor's encoding; they equal the input only if every accepted
    # input is canonical
    original = _encode(message)
    candidates = [original]
    for _ in range(4):
        pos = data.draw(st.integers(min_value=0, max_value=len(original) - 1))
        # small steps turn type codes and lengths into their neighbours
        step = data.draw(st.one_of(st.integers(-3, 3), st.integers(0, 255)))
        mutated = original[:pos] + bytes([(original[pos] + step) % 256]) + original[pos + 1 :]
        cut = data.draw(st.integers(min_value=0, max_value=len(original)))
        candidates += [mutated, mutated[:cut]]
    for candidate in candidates:
        try:
            decoded = decode_message(candidate)
        except DecodeError:
            continue
        fresh = _fresh(decoded)
        assert _encode(decoded) == candidate and _encode(fresh) == candidate
        assert encode_name(fresh.name) == decoded.name._wire
        # the remembered bytes take no part in equality, hashing or repr
        assert fresh == decoded and fresh.name == decoded.name
        assert hash(fresh) == hash(decoded)
        assert repr(fresh) == repr(decoded)
        assert dataclasses.replace(decoded.name)._wire == decoded.name._wire


@st.composite
def built_names(draw):
    """Any name the constructors accept, sequences given as lists or tuples."""
    comps = draw(components)
    as_given = draw(st.sampled_from([list, tuple]))
    if draw(st.booleans()):
        return Name(as_given(comps))
    scheme = draw(st.sampled_from(members(SchemeTag)))
    suffix_bytes = draw(st.binary(min_size=1, max_size=48))
    return ObfuscatedName(as_given(comps), suffix_bytes, scheme)


@st.composite
def built_messages(draw):
    name = draw(built_names())
    kind = draw(st.sampled_from(["interest", "content", "nack"]))
    if kind != "content":
        interest = Interest(
            name,
            payload=draw(st.none() | payloads()),
            key_id=draw(st.none() | st.binary(max_size=32)),
        )
        if kind == "interest":
            return interest
        text = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=20)
        reason = draw(st.sampled_from(authcheck.members(authcheck.FailReason)) | text)
        return Nack(interest, reason)
    keys = draw(
        st.lists(
            st.lists(st.binary(min_size=1, max_size=32), min_size=2, max_size=2),
            max_size=3,
        )
    )
    outer, inner = draw(st.sampled_from([list, tuple])), draw(st.sampled_from([list, tuple]))
    return ContentObject(
        name,
        draw(st.binary(max_size=128)),
        outer(inner(entry) for entry in keys),
        draw(st.integers(min_value=0, max_value=2**64 - 1)),
        draw(st.binary(max_size=64)),
    )


@settings(max_examples=300, deadline=None)
@given(built_messages())
def test_built_records_encode_to_bytes_that_decode_to_them(message):
    # every field travels, so a record's bytes decode to an equal record,
    # with no exception
    data = _encode(message)
    assert decode_message(data) == message
    assert _encode(message) == data


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.binary(min_size=1, max_size=12), min_size=1, max_size=4),
    st.sampled_from(members(SchemeTag)),
    st.integers(min_value=1, max_value=64).flatmap(
        lambda n: st.lists(st.binary(min_size=n, max_size=n), min_size=1, max_size=3)
    ),
)
def test_suffix_template_builds_what_the_constructors_build(prefix, scheme, suffixes):
    template = wire.SuffixTemplate(ObfuscatedName(prefix, bytes(len(suffixes[0])), scheme))
    for obfuscated in suffixes:
        built = template.interest(obfuscated)
        name = ObfuscatedName(prefix, obfuscated, scheme)
        fresh = Interest(name)
        assert built == fresh and built.name == name and hash(built.name) == hash(name)
        assert built.name._wire == encode_name(name)
        assert encode_interest(built) == encode_interest(fresh)
        assert decode_message(encode_interest(built)) == built


@pytest.mark.parametrize(
    "build, type_code",
    [
        (lambda: Name((b"x" * 65_536,)), "0x0011"),
        (lambda: Name((b"a" * 30_000, b"b" * 30_000, b"c" * 30_000)), "0x0010"),
        (lambda: Name((b"a" * 65_532,)), "0x0010"),
        (lambda: ObfuscatedName((b"a",), b"s" * 65_536, SchemeTag.HASH), "0x0012"),
        (lambda: ObfuscatedName((b"a" * 65_495,), b"s" * 32, SchemeTag.ENC), "0x0010"),
    ],
    ids=["component", "three-components", "one-over", "suffix", "prefix-and-suffix"],
)
def test_a_name_the_wire_cannot_carry_cannot_be_built(build, type_code):
    # each was built, and raised only where something first encoded it
    with pytest.raises(EncodeError, match=f"^value for type {type_code} exceeds 65535 bytes$"):
        build()


def test_every_name_carries_its_name_tlv_from_construction():
    largest = Name((b"a" * 65_531,))  # 4 + 65,531 bytes of Name TLV value
    assert len(largest._wire) == 4 + 65_535 and encode_name(largest) is largest._wire
    obfuscated = ObfuscatedName((b"a" * 65_490,), b"s" * 32, SchemeTag.ENC)
    assert len(obfuscated._wire) == 4 + 65_535
    # the largest names a name-only Interest TLV holds: its value is the Name TLV
    for name in (Name((b"a" * 65_527,)), ObfuscatedName((b"a" * 65_486,), b"s" * 32, "ENC")):
        data = encode_interest(Interest(name))
        decoded = decode_message(data)
        assert decoded.name == name and decoded.name._wire == name._wire == data[4:]


def test_a_template_probe_makes_its_interest_bytes_on_read():
    # a record holds no message bytes, so a probe holds only its name's
    # bytes, and its Interest TLV is made by whatever encodes it
    prefix, suffix = (b"edu", b"uci"), bytes(range(32))
    template = wire.SuffixTemplate(ObfuscatedName(prefix, bytes(32), SchemeTag.HASH))
    probe = template.interest(suffix)
    assert not hasattr(probe, "_wire") and probe.name._wire is not None
    data = encode_interest(probe)
    assert data == encode_interest(Interest(ObfuscatedName(prefix, suffix, SchemeTag.HASH)))
    assert decode_message(data) == probe


def test_a_nack_carries_the_refused_interest_and_its_reason():
    interest = Interest(Name((b"a",)))
    nack = Nack(interest, authcheck.FailReason.BAD_SIGNATURE)
    data = wire.encode_nack(nack)
    assert data.hex() == "0003001d" + MINIMAL_INTEREST_HEX + "0050000c" + b"BadSignature".hex()
    decoded = decode_message(data)
    assert decoded == nack and encode_interest(decoded.interest) == encode_interest(interest)
    assert decoded.reason == "BadSignature"


@pytest.mark.parametrize(
    "body",
    [
        MINIMAL_INTEREST_HEX,  # no reason
        "0050000162" + MINIMAL_INTEREST_HEX,  # reason first
        MINIMAL_INTEREST_HEX + "00500000",  # empty reason
        MINIMAL_INTEREST_HEX + "00500001ff",  # not UTF-8
        MINIMAL_INTEREST_HEX + "0050000162" + "0050000162",  # two reasons
    ],
    ids=["no-reason", "reason-first", "empty-reason", "not-utf8", "two-reasons"],
)
def test_malformed_nacks_are_refused(body):
    data = bytes.fromhex(f"0003{len(body) // 2:04x}" + body)
    with pytest.raises(DecodeError):
        decode_message(data)


@pytest.mark.parametrize("reason", ["", "\ud800", None])
def test_a_nack_needs_a_reason_the_encoder_can_write(reason):
    with pytest.raises(ValueError):
        Nack(Interest(Name((b"a",))), reason)


def test_suffix_template_refuses_a_suffix_of_another_length():
    template = wire.SuffixTemplate(ObfuscatedName((b"a",), bytes(4), SchemeTag.HASH))
    for obfuscated in (b"abc", b"abcde"):
        with pytest.raises(ValueError, match="4 bytes"):
            template.interest(obfuscated)


def test_constructors_reject_fields_the_decoders_reject():
    # a scheme outside SchemeTag, its tag byte or another spelling among them
    for tag in (5, 1, 0, None, "NONE", "enc", b"ENC"):
        with pytest.raises(ValueError, match="unknown scheme"):
            ObfuscatedName((b"a",), b"x", tag)
    for flag in (2, 1, None):
        with pytest.raises(TypeError):
            AuthorizationPayload(b"g", flag)


def test_truncation_always_fails():
    interest = Interest(
        ObfuscatedName((b"edu", b"uci"), b"\x01" * 20, SchemeTag.ENC),
        AuthorizationPayload(b"g" * 32, False, b"n" * 16, 7, b"s" * 96),
    )
    data = encode_interest(interest)
    for cut in range(len(data)):
        with pytest.raises(DecodeError):
            decode_interest(data[:cut])


def test_trailing_bytes_rejected():
    data = bytes.fromhex(MINIMAL_INTEREST_HEX) + b"\x00"
    with pytest.raises(DecodeError):
        decode_interest(data)


def test_duplicate_name_tlv_rejected():
    name_tlv = bytes.fromhex("00100005" "0011000161")
    body = name_tlv + name_tlv
    data = bytes.fromhex("0001") + len(body).to_bytes(2, "big") + body
    with pytest.raises(DecodeError):
        decode_interest(data)


def test_unknown_type_rejected():
    # 0x0041 was ContentObjectHash, a field no node read
    for field in ("7fff0000", "00410001aa"):
        body = bytes.fromhex("00100005" "0011000161") + bytes.fromhex(field)
        data = bytes.fromhex("0001") + len(body).to_bytes(2, "big") + body
        with pytest.raises(DecodeError, match="unknown type"):
            decode_interest(data)


CONTAINERS = {
    wire.TYPE_AUTH_PAYLOAD: wire._PAYLOAD,
    wire.TYPE_INTEREST: wire._INTEREST,
    wire.TYPE_CONTENT: wire._CONTENT,
    wire.TYPE_NACK: wire._NACK,
}
NAME_TYPES = [
    wire.TYPE_NAME,
    wire.TYPE_NAME_COMPONENT,
    wire.TYPE_OBFUSCATED_COMPONENT,
    wire.TYPE_SCHEME_TAG,
]


def test_each_field_table_ascends_and_every_type_code_has_one_owner():
    # a container owns its own type and each of its leaf fields' types; a
    # field that holds a name or another container reuses that one's type
    owned = list(CONTAINERS) + NAME_TYPES
    for container in CONTAINERS.values():
        types = [row[0] for row in container.rows]
        assert types == sorted(set(types))
        for type_code, _, codec, _ in container.rows:
            if codec is wire._NAME:
                assert type_code == wire.TYPE_NAME
            elif isinstance(codec, wire._Container):
                assert CONTAINERS[type_code] is codec
            else:
                owned.append(type_code)
    constants = [value for key, value in vars(wire).items() if key.startswith("TYPE_")]
    assert sorted(owned) == sorted(constants)


def test_out_of_order_fields_rejected():
    # key id before name violates the ascending-type canon
    body = bytes.fromhex("00400001aa") + bytes.fromhex("00100005" "0011000161")
    data = bytes.fromhex("0001") + len(body).to_bytes(2, "big") + body
    with pytest.raises(DecodeError):
        decode_interest(data)


def test_oversized_value_rejected_on_encode():
    with pytest.raises(EncodeError):
        encode_content(ContentObject(Name((b"a",)), b"x" * 70_000))


def test_two_key_entries_in_list_order():
    content = ContentObject(
        Name((b"a",)),
        b"data",
        ((b"g1" * 16, b"k1" * 32), (b"g2" * 16, b"k2" * 32)),
        expiry_time=5,
        producer_signature=b"sig",
    )
    data = encode_content(content)
    # oracle: locate the two VerificationKeyEntry TLVs by scanning the raw bytes
    first = data.find(bytes.fromhex("0031"))
    second = data.find(bytes.fromhex("0031"), first + 2)
    assert first != -1 and second != -1
    assert data.find(b"g1" * 16) < data.find(b"g2" * 16)
    decoded = decode_content(data)
    assert decoded.verification_keys == content.verification_keys


@pytest.mark.parametrize("scheme", members(SchemeTag))
def test_every_scheme_requires_a_nonempty_suffix(scheme):
    with pytest.raises(ValueError, match="non-empty"):
        ObfuscatedName((b"edu",), b"", scheme)


def _interest_with_scheme_byte(code: int) -> bytes:
    body = bytes.fromhex("0011000161") + bytes.fromhex("0012000101") + bytes([0, 0x13, 0, 1, code])
    name_tlv = bytes.fromhex("0010") + len(body).to_bytes(2, "big") + body
    return bytes.fromhex("0001") + len(name_tlv).to_bytes(2, "big") + name_tlv


@pytest.mark.parametrize("code", [0, 3, 9, 255])
def test_bad_scheme_tag_rejected(code):
    # only 1 (ENC) and 2 (HASH) are scheme tag bytes; 0 once meant a clear suffix
    with pytest.raises(DecodeError, match=f"unknown scheme tag {code}"):
        decode_interest(_interest_with_scheme_byte(code))


def test_scheme_tag_bytes_are_one_for_enc_and_two_for_hash():
    for code, scheme in ((1, SchemeTag.ENC), (2, SchemeTag.HASH)):
        name = decode_interest(_interest_with_scheme_byte(code)).name
        assert name == ObfuscatedName((b"a",), b"\x01", scheme)
        assert encode_name(ObfuscatedName((b"a",), b"\x01", scheme)).endswith(bytes([code]))


def test_timestamp_must_be_eight_bytes():
    payload_body = (
        bytes.fromhex("00210001aa")
        + bytes.fromhex("0023000401020304")
        + bytes.fromhex("0025000100")
    )
    payload_tlv = bytes.fromhex("0020") + len(payload_body).to_bytes(2, "big") + payload_body
    body = bytes.fromhex("00100005" "0011000161") + payload_tlv
    data = bytes.fromhex("0001") + len(body).to_bytes(2, "big") + body
    with pytest.raises(DecodeError):
        decode_interest(data)


def test_pack_unpack_components_roundtrip():
    comps = [b"a", b"bb", b"\x00\xff"]
    assert wire.unpack_components(wire.pack_components(comps)) == comps


# ---------------------------------------------------------------------------
# payloads signed on read

MATERIALS = [crypto.gen_group(128, seed) for seed in (1, 2)]


def _counting_signs(monkeypatch):
    """Record every ``crypto.sign_payload`` call; the pending signature looks
    the function up on the module when it signs."""
    calls = []
    real = crypto.sign_payload

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(crypto, "sign_payload", counting)
    return calls


@st.composite
def signed_fields(draw):
    """(material, name, group id, encrypted flag, nonce, timestamp)"""
    return (
        draw(st.sampled_from(MATERIALS)),
        draw(st.one_of(names(), obfuscated_names())),
        draw(st.binary(min_size=1, max_size=64)),
        draw(st.booleans()),
        draw(st.binary(min_size=16, max_size=16)),
        draw(st.integers(min_value=0, max_value=2**64 - 1)),
    )


def _pending(fields):
    material, name, group_id, encrypted, nonce, timestamp = fields
    return AuthorizationPayload.signed_on_read(
        material, encode_name(name), group_id, encrypted, nonce, timestamp
    )


@settings(max_examples=60, deadline=None)
@given(signed_fields())
def test_signed_on_read_matches_an_eagerly_signed_payload(fields):
    material, name, group_id, encrypted, nonce, timestamp = fields
    eager = AuthorizationPayload(
        group_id,
        encrypted,
        nonce,
        timestamp,
        crypto.sign_payload(material, encode_name(name), group_id, nonce, timestamp),
    )
    # every read path gets a payload of its own, so each one is the first read
    assert _pending(fields).signature == eager.signature
    assert encode_interest(Interest(name, _pending(fields))) == encode_interest(
        Interest(name, eager)
    )
    assert _pending(fields) == eager and eager == _pending(fields)
    assert hash(_pending(fields)) == hash(eager)
    assert repr(_pending(fields)) == repr(eager)
    assert dataclasses.replace(_pending(fields)) == eager
    forged = dataclasses.replace(eager, signature=bytes(len(eager.signature)))
    assert _pending(fields) != forged and hash(_pending(fields)) != hash(forged)


def test_auth_info_and_precheck_make_no_signature(monkeypatch):
    calls = _counting_signs(monkeypatch)
    material = MATERIALS[0]
    name_bytes = encode_name(Name((b"edu", b"uci", b"x")))
    payload = AuthorizationPayload.signed_on_read(
        material, name_bytes, material.group_id, False, b"n" * 16, 1000
    )
    candidates = [(material.group, material.signing_public)]
    assert payload.has_auth_info()
    book = authcheck.ReplayBook()
    assert authcheck.precheck(payload, name_bytes, candidates, book, 1000.0, 4000.0) is None
    assert calls == [] and payload._signing == (material, name_bytes)
    assert authcheck.verify_any(payload, name_bytes, candidates).passed
    assert len(calls) == 1


def test_first_read_drops_the_signing_material(monkeypatch):
    calls = _counting_signs(monkeypatch)
    material = MATERIALS[1]
    payload = AuthorizationPayload.signed_on_read(
        material, encode_name(Name((b"a", b"b"))), b"g" * 32, True, b"n" * 16, 7
    )
    signature = payload.signature
    assert payload._signing is None and vars(payload)["signature"] is signature
    assert payload.signature is signature and payload.has_auth_info()
    assert len(calls) == 1
