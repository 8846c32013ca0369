import hashlib
import hmac
import random
import struct
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, settings
from hypothesis import strategies as st

from ibac import crypto
from ibac.crypto import (
    AuthenticityFailure,
    DecryptFailure,
    EmptyBatch,
    UnsupportedParameter,
    batch_verify,
    decrypt_group_id,
    deobfuscate_enc,
    encrypt_group_id,
    gen_group,
    gen_producer_keypair,
    key_id,
    obfuscate_enc,
    obfuscate_hash,
    sign_payload,
    verify_payload,
)
from ibac.wire import EmptySuffix, pack_components

TESTDATA = Path(__file__).resolve().parent.parent / "testdata"

components = st.lists(st.binary(min_size=1, max_size=16), min_size=1, max_size=4)
keys16 = st.binary(min_size=16, max_size=16)


def vector(name: str) -> bytes:
    return bytes.fromhex((TESTDATA / name).read_text().strip())


def siv_oracle(k: bytes, comps) -> bytes:
    """Independent recomputation of the synthetic-IV construction."""
    pt = pack_components(comps)
    mac_key = hmac.new(k, b"mac", hashlib.sha256).digest()
    enc_key = hmac.new(k, b"enc", hashlib.sha256).digest()[: len(k)]
    tag = hmac.new(mac_key, pt, hashlib.sha256).digest()[:16]
    enc = Cipher(algorithms.AES(enc_key), modes.CTR(tag)).encryptor()
    return tag + enc.update(pt) + enc.finalize()


# ---------------------------------------------------------------------------
# key generation

def test_gen_group_deterministic():
    assert gen_group(128, 7) == gen_group(128, 7)


def test_gen_group_distinct_seeds():
    assert gen_group(128, 1).obfuscation_key != gen_group(128, 2).obfuscation_key


def test_group_id_is_hash_of_key():
    material = gen_group(128, 1)
    assert material.group_id == hashlib.sha256(material.obfuscation_key).digest()
    assert len(material.group_id) == 32


def test_unsupported_kappa():
    with pytest.raises(UnsupportedParameter):
        gen_group(192, 1)


def test_kappa_256_key_length():
    assert len(gen_group(256, 1).obfuscation_key) == 32


# ---------------------------------------------------------------------------
# encryption-based obfuscation

def test_obfuscate_enc_deterministic():
    k = gen_group(128, 3).obfuscation_key
    s = [b"ics", b"home.html"]
    assert obfuscate_enc(k, s) == obfuscate_enc(k, s)


def test_obfuscate_enc_roundtrip_simple():
    k = gen_group(128, 3).obfuscation_key
    s = [b"ics", b"home.html"]
    assert deobfuscate_enc(k, obfuscate_enc(k, s)) == s


@given(keys16, components)
@settings(max_examples=200)
def test_obfuscate_enc_roundtrip(k, comps):
    assert deobfuscate_enc(k, obfuscate_enc(k, comps)) == comps


def test_obfuscate_enc_frozen_vector():
    got = obfuscate_enc(bytes(16), [b"ics", b"home.html"])
    assert got == vector("obfuscate_enc_zero_key.hex")
    assert got == siv_oracle(bytes(16), [b"ics", b"home.html"])


def test_obfuscate_enc_wrong_key():
    ct = obfuscate_enc(gen_group(128, 3).obfuscation_key, [b"x"])
    with pytest.raises(AuthenticityFailure):
        deobfuscate_enc(gen_group(128, 4).obfuscation_key, ct)


def test_obfuscate_enc_bitflips_all_rejected():
    k = gen_group(128, 3).obfuscation_key
    ct = obfuscate_enc(k, [b"ics", b"home.html"])
    for pos in range(len(ct)):
        corrupted = bytearray(ct)
        corrupted[pos] ^= 0x01
        with pytest.raises(AuthenticityFailure):
            deobfuscate_enc(k, bytes(corrupted))


def test_obfuscate_enc_empty_suffix():
    with pytest.raises(EmptySuffix):
        obfuscate_enc(bytes(16), [])


def test_cross_key_separation():
    s = [b"ics", b"home.html"]
    seen = set()
    for seed in range(50):
        seen.add(obfuscate_enc(gen_group(128, seed).obfuscation_key, s))
    assert len(seen) == 50


# ---------------------------------------------------------------------------
# hash-based obfuscation

def test_obfuscate_hash_deterministic_and_fixed_length():
    k = gen_group(128, 3).obfuscation_key
    assert obfuscate_hash(k, [b"a"]) == obfuscate_hash(k, [b"a"])
    assert len(obfuscate_hash(k, [b"a"])) == 32
    assert len(obfuscate_hash(k, [b"a" * 500, b"b" * 500])) == 32


def test_obfuscate_hash_frozen_vector():
    got = obfuscate_hash(bytes(16), [b"ics", b"home.html"])
    assert got == vector("obfuscate_hash_zero_key.hex")
    oracle = hmac.new(bytes(16), pack_components([b"ics", b"home.html"]), hashlib.sha256)
    assert got == oracle.digest()


def test_obfuscate_hash_empty_suffix():
    with pytest.raises(EmptySuffix):
        obfuscate_hash(bytes(16), [])


# ---------------------------------------------------------------------------
# key identifiers

def test_key_id_stable_and_distinct():
    k = gen_group(128, 3).obfuscation_key
    assert key_id(k) == key_id(k)
    ids = {key_id(gen_group(128, seed).obfuscation_key) for seed in range(40)}
    assert len(ids) == 40


def test_key_id_zero_key_oracle():
    assert key_id(bytes(16)) == vector("key_id_zero_key.hex")
    assert key_id(bytes(16)) == hashlib.sha256(bytes(16)).digest()


# ---------------------------------------------------------------------------
# group-id privacy

def test_encrypt_group_id_roundtrip():
    pair = gen_producer_keypair(9)
    gid = gen_group(128, 1).group_id
    blob = encrypt_group_id(pair.public, gid, random.Random(5))
    assert decrypt_group_id(pair, blob) == gid


def test_encrypt_group_id_randomized():
    pair = gen_producer_keypair(9)
    gid = gen_group(128, 1).group_id
    rng = random.Random(5)
    assert encrypt_group_id(pair.public, gid, rng) != encrypt_group_id(pair.public, gid, rng)


def test_decrypt_group_id_malformed():
    pair = gen_producer_keypair(9)
    with pytest.raises(DecryptFailure):
        decrypt_group_id(pair, b"\x01" * 20)
    blob = encrypt_group_id(pair.public, gen_group(128, 1).group_id, random.Random(5))
    corrupted = bytearray(blob)
    corrupted[-1] ^= 1
    with pytest.raises(DecryptFailure):
        decrypt_group_id(pair, bytes(corrupted))


# ---------------------------------------------------------------------------
# payload signatures

NAME_BYTES = bytes.fromhex("00010009001000050011000161")


def test_sign_verify_roundtrip():
    m = gen_group(128, 1)
    sig = sign_payload(m, NAME_BYTES, m.group_id, bytes(16), 1000)
    assert verify_payload(m.group, m.signing_public, NAME_BYTES, m.group_id, bytes(16), 1000, sig)


def test_any_altered_field_fails():
    m = gen_group(128, 1)
    nonce = bytes(range(16))
    sig = sign_payload(m, NAME_BYTES, m.group_id, nonce, 1000)
    y = m.signing_public
    assert not verify_payload(m.group, y, NAME_BYTES + b"x", m.group_id, nonce, 1000, sig)
    assert not verify_payload(m.group, y, NAME_BYTES, b"other" * 6, nonce, 1000, sig)
    altered_nonce = bytes([nonce[0] ^ 1]) + nonce[1:]
    assert not verify_payload(m.group, y, NAME_BYTES, m.group_id, altered_nonce, 1000, sig)
    assert not verify_payload(m.group, y, NAME_BYTES, m.group_id, nonce, 1001, sig)
    assert not verify_payload(m.group, y, NAME_BYTES, m.group_id, nonce, 1000, sig[:-1] + b"\x00")


def test_signature_frozen_vector():
    m = gen_group(128, 1)
    sig = sign_payload(m, NAME_BYTES, m.group_id, bytes(range(16)), 1234567890)
    assert sig == vector("sign_payload_seed1.hex")


def test_signature_oracle_equations():
    # independent Schnorr verification written from the group equations
    m = gen_group(128, 1)
    group = m.group
    msg_fields = [NAME_BYTES, m.group_id, bytes(range(16)), struct.pack(">Q", 1234567890)]
    msg = b"".join(struct.pack(">I", len(f)) + f for f in msg_fields)
    sig = vector("sign_payload_seed1.hex")
    rb, s = sig[: group.element_bytes], int.from_bytes(sig[group.element_bytes :], "big")
    e = (
        int.from_bytes(
            hashlib.sha256(
                rb + m.signing_public.to_bytes(group.element_bytes, "big") + msg
            ).digest(),
            "big",
        )
        % group.q
    )
    lhs = pow(group.g, s, group.p)
    rhs = int.from_bytes(rb, "big") * pow(m.signing_public, e, group.p) % group.p
    assert lhs == rhs


# ---------------------------------------------------------------------------
# batch verification

def _batch_items(material, count, rng):
    items = []
    for i in range(count):
        fields = (NAME_BYTES, material.group_id, rng.randbytes(16), 1000 + i)
        items.append((fields, sign_payload(material, *fields)))
    return items


def test_batch_of_ten_valid():
    m = gen_group(128, 1)
    items = _batch_items(m, 10, random.Random(1))
    assert batch_verify(m.group, m.signing_public, items, random.Random(2))


def test_batch_detects_single_corruption_in_seeded_trials():
    m = gen_group(128, 1)
    rng = random.Random(3)
    items = _batch_items(m, 10, rng)
    detected = 0
    trials = 1000
    for trial in range(trials):
        bad = list(items)
        idx = rng.randrange(10)
        fields, sig = bad[idx]
        corrupted = bytearray(sig)
        corrupted[rng.randrange(len(sig))] ^= 1 + rng.randrange(255)
        bad[idx] = (fields, bytes(corrupted))
        if not batch_verify(m.group, m.signing_public, bad, rng):
            detected += 1
    assert detected >= 999


def test_batch_of_one_equals_individual_on_1000_cases():
    m = gen_group(128, 1)
    rng = random.Random(4)
    for case in range(1000):
        fields = (NAME_BYTES, m.group_id, rng.randbytes(16), case)
        sig = sign_payload(m, *fields)
        if rng.random() < 0.5:
            corrupted = bytearray(sig)
            corrupted[rng.randrange(len(sig))] ^= 1 + rng.randrange(255)
            sig = bytes(corrupted)
        individual = verify_payload(m.group, m.signing_public, *fields, sig)
        batched = batch_verify(m.group, m.signing_public, [(fields, sig)], rng)
        assert individual == batched


def test_empty_batch_rejected():
    m = gen_group(128, 1)
    with pytest.raises(EmptyBatch):
        batch_verify(m.group, m.signing_public, [])


# ---------------------------------------------------------------------------
# exponentiation engine

KEY_SIZES = (512, 1024, 2048, 3072)
over_length = st.integers(min_value=1 << crypto.FIXED_BASE_EXP_BITS, max_value=1 << 600)


@pytest.mark.parametrize("key_bits", KEY_SIZES)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_fixed_base_table_equals_pow(key_bits, data):
    group = crypto.signature_group(key_bits)
    base = data.draw(st.integers(min_value=0, max_value=group.p - 1), label="base")
    exponents = [0, group.q - 1, data.draw(over_length, label="over-length")]
    exponents += data.draw(
        st.lists(st.integers(min_value=0, max_value=group.q - 1), min_size=1, max_size=5),
        label="exponents",
    )
    table = crypto.FixedBaseTable(base, group.p)
    for e in exponents:
        assert table.power(e) == pow(base, e, group.p)
        assert crypto.generator_power(group, e) == pow(group.g, e, group.p)


@pytest.mark.parametrize("key_bits", KEY_SIZES)
def test_fixed_base_table_every_byte_at_first_middle_and_last_row(key_bits):
    group = crypto.signature_group(key_bits)
    base = group.p - 2
    table = crypto.FixedBaseTable(base, group.p)
    # only the nibble entries (d < 16 and multiples of 16) exist before use
    assert all(sum(x is not None for x in row) == 31 for row in table.rows)
    for _ in range(2):  # the second pass reads the entries the first one made
        for i in (0, 15, 31):
            row_base = pow(base, 1 << 8 * i, group.p)
            for d in range(256):
                assert table.power(d << 8 * i) == pow(row_base, d, group.p)
    for i, row in enumerate(table.rows):
        assert len(row) <= 256
        assert (None in row) == (i not in (0, 15, 31))


@pytest.mark.parametrize("key_bits", KEY_SIZES)
def test_fixed_base_table_edge_exponents(key_bits):
    group = crypto.signature_group(key_bits)
    table = crypto.FixedBaseTable(group.g, group.p)
    top = (1 << crypto.FIXED_BASE_EXP_BITS) - 1
    exponents = [
        0,
        1,
        top,
        top ^ (0xFF << 64),  # one interior zero byte
        top ^ ((1 << 192) - (1 << 8)),  # interior zero bytes 1..23
        (1 << 255) | 1,  # zeros everywhere but the ends
        0x01_00_00_FF_00_7F << 100,
        1 << crypto.FIXED_BASE_EXP_BITS,  # over-length: the pow fallback
        (1 << 300) + 12345,
    ]
    for e in exponents + exponents:  # repeated calls on one table
        assert table.power(e) == pow(group.g, e, group.p)
    for e in (-1, -(1 << 255), -top):  # negative: the pow fallback (an inverse)
        assert table.power(e) == pow(group.g, e, group.p)
    assert all(len(row) <= 256 for row in table.rows)


@pytest.mark.parametrize("key_bits", KEY_SIZES)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_key_power_equals_pow_before_and_after_its_table(key_bits, data):
    group = crypto.signature_group(key_bits)
    y = data.draw(st.integers(min_value=2, max_value=group.p - 1), label="key")
    for _ in range(3):  # first use on pow, second builds the table, third reads it
        e = data.draw(st.integers(min_value=0, max_value=group.q - 1), label="e")
        assert crypto.key_power(group, y, e) == pow(y, e, group.p)
    e = data.draw(over_length, label="over-length")
    assert crypto.key_power(group, y, e) == pow(y, e, group.p)


@pytest.mark.parametrize("key_bits", KEY_SIZES)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_straus_product_equals_plain_product(key_bits, data):
    group = crypto.signature_group(key_bits)
    z_max = (1 << crypto.BATCH_Z_BITS) - 1
    pairs = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=group.p - 1),
                st.one_of(st.integers(min_value=0, max_value=z_max), st.sampled_from([0, 1, z_max])),
            ),
            max_size=6,
        ),
        label="pairs",
    )
    expected = 1
    for b, z in pairs:
        expected = expected * pow(b, z, group.p) % group.p
    assert crypto.multi_power(pairs, group.p) == expected


@pytest.mark.parametrize("key_bits", KEY_SIZES)
@settings(max_examples=3, deadline=None)
@given(
    x_seed=st.integers(min_value=0, max_value=(1 << 64) - 1),
    size=st.integers(min_value=1, max_value=4),
    rng_seed=st.integers(min_value=0, max_value=1 << 32),
)
def test_batch_rejects_corrupted_first_item(key_bits, x_seed, size, rng_seed):
    group = crypto.signature_group(key_bits)
    x = x_seed % (group.q - 1) + 1
    y = pow(group.g, x, group.p)
    items = [(b"m%d" % i, crypto.schnorr_sign(group, x, b"m%d" % i, y)) for i in range(size)]
    message, sig = items[0]
    rb, s = sig[: group.element_bytes], sig[group.element_bytes :]
    bumped_s = ((int.from_bytes(s, "big") + 1) % group.q).to_bytes(group.order_bytes, "big")
    # Boyd-Pavlovski: R' = -g^k lies outside the order-q subgroup; signed
    # honestly over R', it fails alone but passes R'^z for every even z
    k = x_seed % (group.q - 1) + 1
    negated_rb = (group.p - pow(group.g, k, group.p)).to_bytes(group.element_bytes, "big")
    e = int.from_bytes(
        hashlib.sha256(negated_rb + y.to_bytes(group.element_bytes, "big") + message).digest(),
        "big",
    ) % group.q
    negated_sig = negated_rb + ((k + x * e) % group.q).to_bytes(group.order_bytes, "big")
    corruptions = [
        (message, rb + bumped_s),
        (message, negated_sig),
        (message + b"!", sig),
    ]
    for bad in corruptions:
        assert not crypto.schnorr_verify(group, y, *bad)
        # with z_1 = 1 the verdict cannot depend on the drawn exponents
        for seed in range(rng_seed, rng_seed + 8):
            assert not crypto.schnorr_batch_verify(
                group, y, [bad] + items[1:], random.Random(seed)
            )


@settings(max_examples=3, deadline=None)
@given(order=st.permutations(range(100)))
def test_key_tables_stay_within_cap(order):
    group = crypto.signature_group(512)
    tables = crypto.KeyTables()
    for i in order:
        y = pow(group.g, i + 2, group.p)
        for e in (i, group.q - 1 - i):  # the second use builds a table
            assert tables.power(group.p, y, e) == pow(y, e, group.p)
            assert len(tables.tables) <= crypto.KEY_TABLE_CAP
            assert len(tables.seen) <= crypto.KEY_SEEN_CAP
    assert len(tables.tables) == crypto.KEY_TABLE_CAP


def test_one_shot_keys_build_no_tables_and_evict_none():
    group = crypto.signature_group(512)
    tables = crypto.KeyTables()
    hot = pow(group.g, 12345, group.p)
    tables.power(group.p, hot, 1)
    tables.power(group.p, hot, 2)
    for i in range(100):
        tables.power(group.p, pow(group.g, i + 2, group.p), 3)
    assert list(tables.tables) == [(group.p, hot)]
