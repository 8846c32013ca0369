import hashlib
import hmac
import json
import os
import random
import struct
import subprocess
import sys
import threading
from collections import OrderedDict
from functools import partial
from pathlib import Path
from unittest import mock

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, settings
from hypothesis import strategies as st

from ibac import crypto, scenario
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


def test_one_signature_group_per_size():
    for key_bits in KEY_SIZES:
        group = crypto.signature_group(key_bits)
        assert crypto.signature_group(key_bits) is group
        assert group.key_bits == key_bits
    assert crypto.signature_group() is crypto.signature_group(crypto.DEFAULT_KEY_BITS)
    with pytest.raises(UnsupportedParameter):
        crypto.signature_group(320)


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


@pytest.mark.parametrize("key_size", [15, 16, 20, 24, 32, 40])
def test_obfuscate_enc_takes_the_key_sizes_it_took(key_size):
    # the AES key is the first len(k) bytes of a 32-byte HMAC: a 24-byte
    # obfuscation key gives AES-192, a 40-byte one AES-256, and a key of
    # 15 or 20 bytes is a ValueError
    k, comps = bytes(range(1, key_size + 1)), [b"ics", b"home.html"]
    if key_size in (15, 20):
        with pytest.raises(ValueError):
            siv_oracle(k, comps)
        with pytest.raises(ValueError):
            obfuscate_enc(k, comps)
    else:
        ct = obfuscate_enc(k, comps)
        assert ct == siv_oracle(k, comps)
        assert deobfuscate_enc(bytearray(k), bytearray(ct)) == comps


def test_a_ciphertext_with_an_empty_body_is_refused():
    # no suffix encrypts to an empty body, so none is accepted, not even
    # under the tag of the empty plaintext
    k = bytes(16)
    mac_key, _ = crypto._enc_subkeys(k)
    empty_tag = hmac.new(mac_key, b"", hashlib.sha256).digest()[:16]
    got = obfuscate_enc(k, [b"ics", b"home.html"])
    assert deobfuscate_enc(k, got) == [b"ics", b"home.html"]
    for ciphertext in (got[:16], empty_tag):
        with pytest.raises(AuthenticityFailure):
            deobfuscate_enc(k, ciphertext)


def test_the_subkeys_are_derived_once_per_key():
    k = gen_group(128, 11).obfuscation_key
    crypto._enc_subkeys.cache_clear()
    ct = obfuscate_enc(k, [b"a"])
    for _ in range(3):
        assert deobfuscate_enc(k, ct) == [b"a"]
    info = crypto._enc_subkeys.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    assert info.maxsize == crypto._key_inverse.cache_info().maxsize


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


@pytest.mark.parametrize("nbytes", [0, 1, 31, 32, 33, 64, 100])
def test_sha256_stream_is_the_counter_mode_keystream(nbytes):
    # key expansion and the group-id keystream: SHA-256 of the prefix and a
    # 4-byte big-endian counter counting from 0, cut to length
    prefix = b"ibac.stream."
    blocks = b"".join(hashlib.sha256(prefix + struct.pack(">I", c)).digest() for c in range(4))
    assert crypto._sha256_stream(prefix, nbytes) == blocks[:nbytes]


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
# exponentiation engine: exactly pow, in libcrypto or on the pow fallback

KEY_SIZES = (512, 1024, 2048, 3072)
over_length = st.integers(min_value=1 << 256, max_value=1 << 600)


@pytest.mark.parametrize("key_bits", KEY_SIZES)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_engine_equals_pow_on_random_inputs(key_bits, data):
    group = crypto.signature_group(key_bits)
    base = data.draw(st.integers(min_value=0, max_value=group.p - 1), label="base")
    exponents = [0, group.q - 1, data.draw(over_length, label="over-length")]
    exponents += data.draw(
        st.lists(st.integers(min_value=0, max_value=group.q - 1), min_size=1, max_size=5),
        label="exponents",
    )
    for e in exponents:
        assert crypto.key_power(group, base, e) == pow(base, e, group.p)
        assert crypto.generator_power(group, e) == pow(group.g, e, group.p)


@pytest.mark.parametrize("key_bits", KEY_SIZES)
def test_engine_every_byte_at_first_middle_and_last_position(key_bits):
    group = crypto.signature_group(key_bits)
    for base, power in (
        (group.p - 2, lambda e: crypto.key_power(group, group.p - 2, e)),
        (group.g, lambda e: crypto.generator_power(group, e)),
    ):
        for i in (0, 15, 31):  # byte positions of a 256-bit exponent
            position_base = pow(base, 1 << 8 * i, group.p)
            for d in range(256):
                assert power(d << 8 * i) == pow(position_base, d, group.p)


@pytest.mark.parametrize("engine", ["libcrypto", "pow"])
@pytest.mark.parametrize("key_bits", KEY_SIZES)
def test_engine_edge_exponents_and_bases(monkeypatch, key_bits, engine):
    if engine == "pow":
        monkeypatch.setattr(crypto, "_load_libcrypto", lambda: None)
        monkeypatch.setattr(crypto, "_ENGINES", {})
    group = crypto.signature_group(key_bits)
    p, top = group.p, (1 << 256) - 1
    exponents = [
        0,
        1,
        group.q - 1,
        top,
        top ^ (0xFF << 64),  # one interior zero byte
        top ^ ((1 << 192) - (1 << 8)),  # interior zero bytes 1..23
        (1 << 255) | 1,  # zeros everywhere but the ends
        0x01_00_00_FF_00_7F << 100,
        1 << 256,  # over-length
        (1 << 300) + 12345,
        -1,  # negative: an inverse power
        -(1 << 255),
    ]
    for e in exponents + exponents:  # repeated calls reuse the scratch numbers
        assert crypto.generator_power(group, e) == pow(group.g, e, p)
    for base in (0, 1, p - 1, p, p + 5, 2 * p + 3, 3 * p + group.g):
        for e in (0, 1, group.q - 1, 1 << 256, (1 << 256) + 1, -1):
            if e < 0 and base % p == 0:  # no inverse: both refuse alike
                with pytest.raises(ValueError):
                    pow(base, e, p)
                with pytest.raises(ValueError):
                    crypto.key_power(group, base, e)
                continue
            assert crypto.key_power(group, base, e) == pow(base, e, p)
    if engine == "pow":
        assert isinstance(crypto._ENGINES[p], partial)  # every power went to pow


@pytest.mark.parametrize("key_bits", KEY_SIZES)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_key_power_equals_pow_before_and_after_its_table(key_bits, data):
    group = crypto.signature_group(key_bits)
    y = data.draw(st.integers(min_value=2, max_value=group.p - 1), label="key")
    for _ in range(3):  # repeated uses of one key
        e = data.draw(st.integers(min_value=0, max_value=group.q - 1), label="e")
        assert crypto.key_power(group, y, e) == pow(y, e, group.p)
    e = data.draw(over_length, label="over-length")
    assert crypto.key_power(group, y, e) == pow(y, e, group.p)


def two_pow(b1, e1, b2, e2, p):
    return pow(b1, e1, p) * pow(b2, e2, p) % p


@pytest.mark.parametrize("key_bits", KEY_SIZES)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_two_base_power_equals_pow_on_random_inputs(key_bits, data):
    group = crypto.signature_group(key_bits)
    p = group.p
    bases = st.integers(min_value=0, max_value=p - 1)
    exponents = st.one_of(
        st.integers(min_value=0, max_value=group.q - 1),
        st.integers(min_value=0, max_value=(1 << crypto.BATCH_Z_BITS) - 1),
        over_length,
    )
    for _ in range(3):
        b1, b2 = data.draw(bases, label="b1"), data.draw(bases, label="b2")
        e1, e2 = data.draw(exponents, label="e1"), data.draw(exponents, label="e2")
        assert crypto._power2(b1, e1, b2, e2, p) == two_pow(b1, e1, b2, e2, p)


@pytest.mark.parametrize("key_bits", KEY_SIZES)
def test_two_base_power_edge_bases_and_exponents(key_bits):
    # BN_mod_exp2_mont answers 0 for a zero base whatever its exponent, so
    # 0^0 in either slot must still read 1, as it does in pow
    group = crypto.signature_group(key_bits)
    p = group.p
    bases = (0, 1, p - 1, p, p + 5, 3 * p + group.g)
    exponents = (0, 1, group.q - 1, 1 << 256, (1 << 64) - 1, -1)
    # pow(b, e, p) of each (base, exponent) pair, or None where pow refuses
    # for want of an inverse; the reference of every combination is a
    # product of two of these
    single = {}
    for b in bases:
        for e in exponents:
            if e < 0 and b % p == 0:
                with pytest.raises(ValueError):
                    pow(b, e, p)
                single[b, e] = None
            else:
                single[b, e] = pow(b, e, p)
    for (b1, e1), r1 in single.items():
        for (b2, e2), r2 in single.items():
            if r1 is None or r2 is None:
                with pytest.raises(ValueError):  # no inverse: both refuse
                    crypto._power2(b1, e1, b2, e2, p)
                continue
            assert crypto._power2(b1, e1, b2, e2, p) == r1 * r2 % p


def textbook_verdict(group, y, message, sig):
    """``g^s == R * y^e (mod p)``, written from the group equations."""
    eb = group.element_bytes
    if len(sig) != eb + 32:
        return False
    big_r, s = int.from_bytes(sig[:eb], "big"), int.from_bytes(sig[eb:], "big")
    if not (1 <= big_r < group.p and 0 <= s < group.q):
        return False
    digest = hashlib.sha256(sig[:eb] + y.to_bytes(eb, "big") + message).digest()
    e = int.from_bytes(digest, "big") % group.q
    return pow(group.g, s, group.p) == big_r * pow(y, e, group.p) % group.p


VERIFY_CASES = ("valid", "forged", "negated key", "random key", "zero key", "key p")


@pytest.mark.parametrize("key_bits", KEY_SIZES)
@settings(max_examples=12, deadline=None)
@given(
    x_seed=st.integers(min_value=0, max_value=(1 << 64) - 1),
    message=st.binary(max_size=24),
    case=st.sampled_from(VERIFY_CASES),
    tweak=st.integers(min_value=0, max_value=1 << 16),
)
def test_schnorr_verify_agrees_with_the_textbook_equation(key_bits, x_seed, message, case, tweak):
    # verification checks g^s * (y^-1)^e == R, which must give the verdict of
    # g^s == R * y^e for every key, in the subgroup or not, and for y = 0 mod p
    group = crypto.signature_group(key_bits)
    p = group.p
    x = x_seed % (group.q - 1) + 1
    y = pow(group.g, x, p)
    if case == "negated key":  # -g^x has order 2q; an honest signature passes iff e is even
        y = p - y
    elif case == "random key":
        y = random.Random(tweak).randrange(2, p - 1)
    elif case == "zero key":
        y = 0
    elif case == "key p":
        y = p
    sig = crypto.schnorr_sign(group, x, message, y)
    if case == "forged":
        flipped = bytearray(sig)
        flipped[tweak % len(sig)] ^= 1 << (tweak % 8)
        sig = bytes(flipped)
    verdict = crypto.schnorr_verify(group, y, message, sig)
    assert verdict == textbook_verdict(group, y, message, sig)
    if case == "valid":
        assert verdict


def test_the_pow_fallback_reproduces_the_pinned_signature_and_forgery_digest(monkeypatch):
    # where libcrypto does not load, built-in pow computes every power
    # where libcrypto does not load, built-in pow computes every power, the
    # two-base ones (signing, verification, batch pairs) included
    two_base = []
    pow2 = crypto._pow2
    monkeypatch.setattr(crypto, "_pow2", lambda *a, p: two_base.append(p) or pow2(*a, p))
    monkeypatch.setattr(crypto, "_load_libcrypto", lambda: None)
    monkeypatch.setattr(crypto, "_ENGINES", {})
    monkeypatch.setattr(crypto, "_ACCEPTED", OrderedDict())  # every check computed
    m = gen_group(128, 1)
    sig = sign_payload(m, NAME_BYTES, m.group_id, bytes(range(16)), 1234567890)
    assert sig == vector("sign_payload_seed1.hex")
    result, _ = scenario.run_config(scenario.load_bundled("forgery"))
    log = ("\n".join(result.log_lines) + "\n").encode()
    digests = json.loads((TESTDATA / "bundled_digests.json").read_text())
    assert hashlib.sha256(log).hexdigest() == digests["forgery"]
    assert list(crypto._ENGINES) == [m.group.p]
    assert isinstance(crypto._ENGINES[m.group.p], partial)
    assert two_base and set(two_base) == {m.group.p}


def test_importing_crypto_loads_no_library():
    # perfbench's parent imports ibac, so an import must not grow its RSS;
    # cryptography's bindings alone hold about 6 MB
    src = Path(crypto.__file__).resolve().parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys; import ibac; from ibac import crypto; "
        "loaded = lambda: [m for m in sys.modules if m.split('.')[0] == 'cryptography']; "
        "assert not loaded(), loaded(); "
        "assert 'ctypes' not in sys.modules, 'ctypes imported'; "
        "assert crypto._load_libcrypto.cache_info().currsize == 0, 'libcrypto loaded'; "
        "assert not crypto._ENGINES; "
        # hashed names need no AES, so a hashing process never maps it
        "crypto.obfuscate_hash(bytes(16), [b'ics', b'home.html']); "
        "assert not loaded(), loaded()"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, "")


def test_threads_sharing_a_modulus_get_their_own_powers():
    # every call on a modulus, one-base or two-base, reuses its scratch
    # numbers, which one lock guards
    group = crypto.signature_group(512)
    wrong = []

    def work(seed):
        rng = random.Random(seed)
        for _ in range(150):
            base, e = rng.randrange(group.p), rng.randrange(group.q)
            if crypto.key_power(group, base, e) != pow(base, e, group.p):
                wrong.append((base, e))
            b2, e2 = rng.randrange(1, group.p), rng.randrange(group.q)
            if crypto._power2(base, e, b2, e2, group.p) != two_pow(base, e, b2, e2, group.p):
                wrong.append((base, e, b2, e2))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="loaded by its Linux soname")
def test_the_libcrypto_engine_is_active_on_linux():
    # the pow fallback gives the same values about ten times slower, so only this sees it
    group = crypto.signature_group(512)
    assert crypto.generator_power(group, 5) == pow(group.g, 5, group.p)
    assert not isinstance(crypto._ENGINES[group.p], partial)  # the fallback's


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
            min_size=1,
            max_size=6,
        ),
        label="pairs",
    )
    # terms are paired two per pass, so check an odd and an even count
    for terms in (pairs, pairs[:-1]):
        expected = 1
        for b, z in terms:
            expected = expected * pow(b, z, group.p) % group.p
        assert crypto.multi_power(terms, group.p) == expected


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


# ---------------------------------------------------------------------------
# accepted payload checks, remembered across calls

CHECK_FIELDS = ("name", "group_id", "nonce", "timestamp", "signature", "key")


def _signed_checks():
    """Three accepted ``verify_payload`` argument tuples, two keys among them."""
    g1, g2 = gen_group(128, 1), gen_group(128, 2)
    checks = []
    for m, nonce in ((g1, bytes(16)), (g1, bytes(range(16))), (g2, bytes(16))):
        sig = sign_payload(m, NAME_BYTES, m.group_id, nonce, 1000)
        checks.append((m.group, m.signing_public, NAME_BYTES, m.group_id, nonce, 1000, sig))
    return checks


def _altered(check, field, bit, other_key):
    group, y, name, gid, nonce, ts, sig = check
    flip = lambda b: b[: bit % len(b)] + bytes([b[bit % len(b)] ^ 1]) + b[bit % len(b) + 1 :]
    if field == "name":
        name = flip(name)
    elif field == "group_id":
        gid = flip(gid)
    elif field == "nonce":
        nonce = flip(nonce)
    elif field == "timestamp":
        ts ^= 1 << (bit % 64)
    elif field == "signature":
        sig = flip(sig)
    elif field == "key":
        y = other_key
    return group, y, name, gid, nonce, ts, sig


def _fresh_verdict(group, y, name, gid, nonce, ts, sig) -> bool:
    return crypto.schnorr_verify(group, y, crypto._signing_message(name, gid, nonce, ts), sig)


SIGNED = _signed_checks()
check_sequences = st.lists(
    st.tuples(
        st.sampled_from(range(len(SIGNED))),
        st.sampled_from((None,) + CHECK_FIELDS),
        st.integers(min_value=0, max_value=1000),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(sequence=check_sequences)
def test_remembered_verdicts_agree_with_a_fresh_check(sequence):
    cap = 2  # below the three valid checks, so acceptances evict
    with mock.patch.object(crypto, "_ACCEPTED", OrderedDict()), \
            mock.patch.object(crypto, "ACCEPTED_CAP", cap):
        for index, field, bit in sequence:
            other_key = next(c[1] for c in SIGNED if c[1] != SIGNED[index][1])
            args = _altered(SIGNED[index], field, bit, other_key)
            # a repeat, of an acceptance or of a rejection, asks the table first
            for _ in range(2):
                assert verify_payload(*args) == _fresh_verdict(*args)
            assert all(_fresh_verdict(*key) for key in crypto._ACCEPTED)
            assert len(crypto._ACCEPTED) <= cap


def test_only_acceptances_are_remembered():
    valid = SIGNED[0]
    with mock.patch.object(crypto, "_ACCEPTED", OrderedDict()):
        for field in CHECK_FIELDS:
            assert not verify_payload(*_altered(valid, field, 3, SIGNED[2][1]))
        assert not crypto._ACCEPTED
        assert verify_payload(*valid)
        assert list(crypto._ACCEPTED) == [valid]


def test_a_remembered_check_skips_the_exponentiations(monkeypatch):
    verifies = []
    real = crypto.schnorr_verify
    monkeypatch.setattr(crypto, "_ACCEPTED", OrderedDict())
    monkeypatch.setattr(crypto, "schnorr_verify", lambda *a: verifies.append(a) or real(*a))
    for _ in range(3):
        assert verify_payload(*SIGNED[1])
    assert len(verifies) == 1


def test_the_oldest_acceptance_is_evicted_at_the_cap(monkeypatch):
    monkeypatch.setattr(crypto, "_ACCEPTED", OrderedDict())
    monkeypatch.setattr(crypto, "ACCEPTED_CAP", 2)
    for check in SIGNED:
        assert verify_payload(*check)
    assert list(crypto._ACCEPTED) == SIGNED[1:]


def test_schnorr_verify_remembers_nothing(monkeypatch):
    # timed callers (acceptance 7, ``ibac bench``) repeat identical items, so
    # every call must do the work
    equations = []
    real = crypto.schnorr_equation
    monkeypatch.setattr(crypto, "schnorr_equation", lambda *a: equations.append(a) or real(*a))
    group, y, name, gid, nonce, ts, sig = SIGNED[0]
    message = crypto._signing_message(name, gid, nonce, ts)
    assert crypto.schnorr_verify(group, y, message, sig)
    assert crypto.schnorr_verify(group, y, message, sig)
    assert len(equations) == 2
