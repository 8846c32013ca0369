"""Key material, name obfuscation, group-id privacy, and payload signatures.

Name obfuscation comes in two deterministic flavours:

* encrypted: a synthetic-IV construction.  ``tag = HMAC-SHA256(k_mac, pt)``
  truncated to 16 bytes, ``ct = AES-CTR(k_enc, iv=tag, pt)``, output
  ``tag || ct``.  Decryption recomputes the tag, so any wrong key or
  flipped bit fails closed.
* hashed: ``HMAC-SHA256(k, pt)`` over the same canonical packing; one-way,
  so producers keep a reverse map.

Signatures are Schnorr over fixed prime-order subgroups of Z_p^* (order q
is always 256 bits; p is 512 bits for protocol traffic and 1024/2048/3072
bits for benchmarking).  There is one ``SignatureGroup`` object per size,
made at import: ``signature_group`` returns it and builds nothing.  A
signature is ``(R, s)`` with ``R = g^k``, ``e = H(R || y || m) mod q``,
``s = k + x*e mod q``; the signing nonce ``k`` is derived from the key and
message, so signatures are deterministic.  Verification checks
``g^s == R * y^e``.  Because signing is deterministic, a signer may
defer it: ``wire.AuthorizationPayload`` calls ``sign_payload`` on the
first read of a payload's signature, which gives the same bytes signing
at once would.

Batch verification uses the randomized small-exponent test
(Bellare-Garay-Rabin, EUROCRYPT '98): fix ``z_1 = 1``, draw 64-bit ``z_i``
for the other items and accept iff

    g^(sum z_i*s_i) == prod R_i^{z_i} * y^(sum z_i*e_i)   (mod p)

which passes every valid batch.  When every ``R_i`` lies in the order-q
subgroup, a batch containing an invalid signature passes with probability
at most 2^-64.  ``R_i`` is only range-checked, so a signer can submit an
``R`` outside the subgroup (for example ``-g^k``) that fails individual
verification yet passes a batch with fair probability; the repair is open
(ROADMAP item 3).

Exponentiation engine.  Every modular power here is one call of
``_power2``, the product of two powers, which returns exactly what
built-in ``pow`` returns; a one-base power ``_power(b, e)`` is
``b^e * 1^0``.  For a group modulus it calls ``BN_mod_exp2_mont`` through
``ctypes`` in the libcrypto that CPython's ``hashlib`` links, loaded by
soname on the first power, not at import; ``BN_mod_exp2_mont``
interleaves both powers in one pass of squarings (Shamir's trick, the
two-base case of Straus).  Where no libcrypto loads, for a negative
exponent, and for a base ``0 mod p`` (which ``BN_mod_exp2_mont`` answers
with 0 even when its exponent is 0, where ``pow``'s ``0^0`` is 1),
``pow`` does the work.  Each Schnorr equation is one two-base power:

* ``g^e`` is ``g^(e mod 2^128) * G^(e >> 128)`` with ``G = g^(2^128)``
  computed once per group (Lim-Lee), so signing, key generation and
  group-id encryption square 128 times, not 256;
* verification checks ``g^s * (y^-1)^e == R``, which is ``g^s == R * y^e``
  multiplied by the invertible ``y^-e``; ``y^-1`` is computed once per
  key, and a ``y`` that is ``0 mod p`` keeps the textbook equation;
* a batch checks its ``g``/``y`` pair the same way and pairs its
  ``R_i^{z_i}`` terms two per pass, an odd last term with ``1^0``.

Name cipher.  AES-CTR comes from the ``cryptography`` package, imported
on the first encryption, so importing this module does not map its
bindings (about 6 MB resident); a process that obfuscates by hash only
never loads it.  The MAC and AES subkeys of an obfuscation key are
derived once per key.

Accepted payload checks.  In a simulated network every node that serves
an interest checks its payload, so one payload is checked at the
producer and again at each router its content passes on the way back.
``verify_payload`` keeps a process-wide table of the checks that
accepted, keyed by every input (group, public key, name bytes, group-id
field, nonce, timestamp, signature), and answers a repeat from it
without building the message or exponentiating, as Bitcoin Core's
signature cache does for transactions.  The verdict is a pure function
of those inputs, so every answer is the one a fresh check gives; the
caller still counts the check and the simulator still charges each
node's ``tau_verify`` for it, so only real CPU falls.  Only acceptances
are kept, so forged or probing traffic can neither fill the table nor
evict from it; past ``ACCEPTED_CAP`` entries the oldest goes.
``schnorr_verify``, ``schnorr_batch_verify`` and ``batch_verify`` keep
no verdicts (only each key's inverse): benchmarks time repeated identical
items through them, and a batch's ``z`` draws are part of the
simulator's determinism.
"""

from __future__ import annotations

import hashlib
import hmac
import random
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import zip_longest

from .wire import EmptySuffix, pack_components, unpack_components


class CryptoError(Exception):
    pass


class UnsupportedParameter(CryptoError):
    pass


class AuthenticityFailure(CryptoError):
    """Integrity tag mismatch: wrong key or tampered ciphertext."""


class DecryptFailure(CryptoError):
    pass


class EmptyBatch(CryptoError):
    pass


SUPPORTED_KAPPA = (128, 256)
DEFAULT_KEY_BITS = 512
ENC_TAG_LEN = 16
DIGEST_LEN = 32

# Fixed (p, q, g) subgroup parameters: q is a 256-bit prime, p = q*m + 1,
# g generates the order-q subgroup.  Regenerating them is deterministic
# (sha256-seeded search), so the constants are frozen here.
_GROUP_PARAMS = {
    512: (
        0x800000000000000000000000000000000000000000000000000000000000009CFBBCF8DF028FC88DB644601ED2790854F2E7A8AA4B0C3E020355B8DB6E5AB979,
        0xAFEF18E005844ED7D0D50E79BD58E5719CB0B7E52CD430E64C83D3E99E3857B5,
        0x24CB2ACF5CEB7F86E66552D2F0EB0F66F9E98DB2630953B3779816FBF1761F5C260A1ECCB38477AAF48BB527BB486FB4240FC80FAE60C1BBDA57A3F62BAA4EDA,
    ),
    1024: (
        0x8000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000004D49100023BE16B1C90368978A3A6268360A44EB96C7699B1558588656BC6D4D379,
        0xF2B7E05357DEDBFC91904B831F54F4A003163050B73E8047E1B881327327C271,
        0x5880FACE652FEEBC564E8DF5B01E3B9B4F53CF78C9A09B9679F7117CA7D37988E2E4A719AA0A986C09B74442F468B2B72AE6F0874FC807847AFDB983C4C58B4AF9946D8AFD8F1D56BCD96A64B345520B9AF5EDC4B6AF6A57AA406F12C4F3A785DEF9CEB3225E160CB51D158ED658DB597DC14E654A1299F7A6318F486A7FA60F,
    ),
    2048: (
        0x8000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000C852853ED3D92F35BC01C77598DEB819236377DB8BB83228EE7A35719120B2A3FD9,
        0xF0F9D5CD8641076F3DB25224FF4F5E80C93E9B81D340922C6913D95F5017F26B,
        0x48F36EBCAEE6B96B36202A92502B082611998D4B5842E86B4E2D8DCB5385A2F82EC31EFD3BBBED75E02C9EEDE887AC57A0CEECC6C619CCC24B3FCAD405610AD39FA59040904D4C52CC43713116F36D36F8C181323A0041313194912C1BC771705B04BEF40E25E5A529EEF97328E80C5DAD6C2DBFBA46F8D2D7B7097A09E4658BC92ECF4485FFBCD8357923A5619F60ECA6CC103AC161D494E48953ED9CBC2E84065E970FD4FFD4F117A313D97010BD8FF509A55D295D30DEB39A1DEC7A4FAFE26BD949BAEE723E53573C6E1F7008551C7B7750AC1CB3D445354256BBC4DCCD28DEE9BFD3FFC752F6591B791FBB1A01AEDE9787B4546B0C8D4E3608D79E2043EF,
    ),
    3072: (
        0x800000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001BAA1A96EBF38D24BA296A6DED59DCAEC75B9739B5EC620A66A14222BE883240FCD,
        0x885E3057CBB8F591B087C2BCE47A9007A1C51A3B200D4F4FADB6907E6758F655,
        0x117AA0061F5ADC0741DF8F7A050896967E5BCD81EB00C131D30B4A16F327719F3CC1A7339D997E056244C8ACF4F675317B5CD440804DE032D43E09E5CCEB859D351C230C8085BADC3C3F503BF943DD34DC3DDFC341A3E6D48D4155CFAD29A9C4661E383C81F8E4EF749D321832CAEBED8D8230AF98F6815F5B290EB0F0F7CAD0A1B1C16AE03FCAD025DA1E2661477DAA812A7ECCC37B7802ADB7FC3A865D373051C10BECBC12A8029C8719D46B41CDEECDD15F7847CCA2BD63DF807669FB1AA9408351831FCA5A356602B43D7DFD2EA81FF6CF5D0B61DCAECFB0D3EF83BEB884E969211B88A8BEB5E760753C6A78890912BBD4DAAEA5BF941A09D1973CC60A6C006DF37CC63F5A5EC5D81C3F047A2EB00F7205EE18375EE20B3D7DE0B2B4602B60DAC3A2A8709B4A2B2215859E8ED0F3CE8EA28AB9B9EBF30803A385BD6B177377F6A9A366DA99110A11AA376C6F80E70E0BA064D59C30E53B75B37EEBE8D48421DA8442E6509B6D21D7575E01FB3E3058D5D0DBF44BACAD96E5CEDCCF98AD24,
    ),
}


@dataclass(frozen=True)
class SignatureGroup:
    key_bits: int
    p: int
    q: int
    g: int

    @property
    def element_bytes(self) -> int:
        return (self.key_bits + 7) // 8

    @property
    def order_bytes(self) -> int:
        return 32


_GROUPS = {bits: SignatureGroup(bits, *params) for bits, params in _GROUP_PARAMS.items()}


def signature_group(key_bits: int = DEFAULT_KEY_BITS) -> SignatureGroup:
    """The one ``SignatureGroup`` of ``key_bits``: every call returns the
    same object."""
    try:
        return _GROUPS[key_bits]
    except KeyError:
        raise UnsupportedParameter(
            f"no signature group for key_bits={key_bits}; "
            f"supported: {sorted(_GROUP_PARAMS)}"
        ) from None


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def _sha256_stream(prefix: bytes, nbytes: int) -> bytes:
    """The first ``nbytes`` of ``SHA-256(prefix || c)`` for the 4-byte
    big-endian counters ``c`` = 0, 1, ... (counter-mode SHA-256)."""
    blocks = (nbytes + DIGEST_LEN - 1) // DIGEST_LEN
    return b"".join(sha256(prefix + c.to_bytes(4, "big")) for c in range(blocks))[:nbytes]


def _expand(seed: int, label: bytes, nbytes: int) -> bytes:
    """Deterministic byte expansion from a 64-bit seed."""
    if not 0 <= seed < 1 << 64:
        raise UnsupportedParameter("seed must fit in 64 bits")
    return _sha256_stream(b"ibac.keygen." + seed.to_bytes(8, "big") + b"." + label + b".", nbytes)


# ---------------------------------------------------------------------------
# exponentiation engine

BATCH_Z_BITS = 64
LIBCRYPTO_SONAMES = ("libcrypto.so.3", "libcrypto.so.1.1")  # OpenSSL 3, then 1.1


@lru_cache(maxsize=None)
def _load_libcrypto():
    """libcrypto with its bignum calls declared, or None where none loads.
    ``PyDLL`` keeps the GIL through each short call instead of releasing it."""
    import ctypes

    ptr, data, size = ctypes.c_void_p, ctypes.c_char_p, ctypes.c_int
    signatures = {
        "BN_new": (ptr, []),
        "BN_CTX_new": (ptr, []),
        "BN_MONT_CTX_new": (ptr, []),
        "BN_MONT_CTX_set": (size, [ptr, ptr, ptr]),
        "BN_bin2bn": (ptr, [data, size, ptr]),
        "BN_bn2binpad": (size, [ptr, ctypes.POINTER(ctypes.c_ubyte), size]),
        "BN_mod_exp2_mont": (size, [ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr]),
    }
    for soname in LIBCRYPTO_SONAMES:
        try:
            lib = ctypes.PyDLL(soname)
            for name, (restype, argtypes) in signatures.items():
                call = getattr(lib, name)
                call.restype, call.argtypes = restype, argtypes
        except (OSError, AttributeError):  # absent, or too old for a call
            continue
        return lib
    return None


def _pow2(b1: int, e1: int, b2: int, e2: int, p: int) -> int:
    return pow(b1, e1, p) * pow(b2, e2, p) % p


def _montgomery(lib, p: int):
    """``power2`` for the odd modulus ``p``: ``power2(b1, e1, b2, e2)`` is
    exactly ``_pow2(b1, e1, b2, e2, p)``, by libcrypto's
    ``BN_mod_exp2_mont``, which interleaves both powers in one pass of
    squarings.  Every call reuses one Montgomery context, five scratch
    BIGNUMs and one output buffer, under one lock, so calls from two
    threads cannot interleave."""
    import ctypes

    size = (p.bit_length() + 7) // 8
    bin2bn, bn2bin, mod_exp2 = lib.BN_bin2bn, lib.BN_bn2binpad, lib.BN_mod_exp2_mont
    ctx, mont = lib.BN_CTX_new(), lib.BN_MONT_CTX_new()
    base, exp, base2, exp2, result = (lib.BN_new() for _ in range(5))
    m = bin2bn(p.to_bytes(size, "big"), size, None)
    if None in (ctx, mont, base, exp, base2, exp2, result, m) or not lib.BN_MONT_CTX_set(
        mont, m, ctx
    ):
        raise CryptoError("libcrypto could not set up a Montgomery context")
    out = bytearray(size)
    out_ptr = (ctypes.c_ubyte * size).from_buffer(out)
    lock = threading.Lock()

    def power2(b1: int, e1: int, b2: int, e2: int) -> int:
        if not 0 < b1 < p:
            b1 %= p
        if not 0 < b2 < p:
            b2 %= p
        # BN_mod_exp2_mont takes no inverse power, and answers 0 for a zero
        # base even when its exponent is 0, where pow's 0^0 is 1
        if e1 < 0 or e2 < 0 or not b1 or not b2:
            return _pow2(b1, e1, b2, e2, p)
        eb1 = e1.to_bytes((e1.bit_length() + 7) // 8, "big")
        eb2 = e2.to_bytes((e2.bit_length() + 7) // 8, "big")
        with lock:
            if (
                bin2bn(b1.to_bytes(size, "big"), size, base) is None
                or bin2bn(eb1, len(eb1), exp) is None
                or bin2bn(b2.to_bytes(size, "big"), size, base2) is None
                or bin2bn(eb2, len(eb2), exp2) is None
                or not mod_exp2(result, base, exp, base2, exp2, m, ctx, mont)
                or bn2bin(result, out_ptr, size) != size
            ):
                raise CryptoError("libcrypto BN_mod_exp2_mont failed")
            return int.from_bytes(out, "big")

    return power2


_MODULI = frozenset(p for p, _, _ in _GROUP_PARAMS.values())
_ENGINES: dict = {}  # group modulus -> its power2, made on first use


def _engine(p: int):
    """``power2`` for modulus ``p``: in libcrypto for a group modulus where
    libcrypto loads, by built-in ``pow`` otherwise."""
    fallback = partial(_pow2, p=p)
    if p not in _MODULI:
        return fallback
    lib = _load_libcrypto()
    engine = _ENGINES[p] = _montgomery(lib, p) if lib else fallback
    return engine


def _power2(b1: int, e1: int, b2: int, e2: int, p: int) -> int:
    """Exactly ``pow(b1, e1, p) * pow(b2, e2, p) % p``, in one pass."""
    return (_ENGINES.get(p) or _engine(p))(b1, e1, b2, e2)


def _power(b: int, e: int, p: int) -> int:
    """Exactly ``pow(b, e, p)``: the two-base power ``b^e * 1^0``."""
    return _power2(b, e, 1, 0, p)


_SPLIT_BITS = 128  # generator exponents are split into halves of this many bits
_SPLIT_MASK = (1 << _SPLIT_BITS) - 1


@lru_cache(maxsize=16)
def _split_base(g: int, p: int) -> int:
    """``g^(2^_SPLIT_BITS) mod p``, once per group."""
    return _power(g, 1 << _SPLIT_BITS, p)


def generator_power(group: SignatureGroup, e: int) -> int:
    """``g^e mod p``, as ``g^(e mod 2^128) * G^(e >> 128)`` with
    ``G = g^(2^128)``: two half-length exponents in one pass."""
    g, p = group.g, group.p
    return _power2(g, e & _SPLIT_MASK, _split_base(g, p), e >> _SPLIT_BITS, p)


def key_power(group: SignatureGroup, y: int, e: int) -> int:
    """``y^e mod p`` for a public key ``y``."""
    return _power(y, e, group.p)


@lru_cache(maxsize=256)
def _key_inverse(y: int, p: int) -> int:
    """``y^-1 mod p`` for a public key ``y`` not ``0 mod p``, once per key."""
    return pow(y, -1, p)


def schnorr_equation(group: SignatureGroup, y: int, s: int, e: int, big_r: int) -> bool:
    """Whether ``g^s == R * y^e (mod p)``.

    For ``y != 0 (mod p)`` both sides are multiplied by ``y^-e``, so the
    check is ``g^s * (y^-1)^e == R``: one two-base power, exact because
    ``y`` is invertible.  A zero ``y`` keeps the textbook equation."""
    p = group.p
    if not y % p:
        return generator_power(group, s) == big_r * _power(y, e, p) % p
    return _power2(group.g, s, _key_inverse(y, p), e, p) == big_r % p


def multi_power(pairs, p: int) -> int:
    """``prod b^z mod p`` over ``(b, z)`` pairs with ``z >= 0``, two terms
    per pass (Straus); an odd last term pairs with ``1^0``."""
    terms = iter(pairs)
    acc = 1
    for (b1, z1), (b2, z2) in zip_longest(terms, terms, fillvalue=(1, 0)):
        acc = acc * _power2(b1, z1, b2, z2, p) % p
    return acc


# ---------------------------------------------------------------------------
# group and producer key material


@dataclass(frozen=True)
class GroupKeyMaterial:
    """A group's shared obfuscation key and signing key pair (member view)."""

    obfuscation_key: bytes
    signing_private: int
    signing_public: int
    group_id: bytes
    group: SignatureGroup

    @property
    def kappa(self) -> int:
        return len(self.obfuscation_key) * 8

    @property
    def public_key_bytes(self) -> bytes:
        return self.signing_public.to_bytes(self.group.element_bytes, "big")


def gen_group(
    kappa: int, seed: int, key_bits: int = DEFAULT_KEY_BITS
) -> GroupKeyMaterial:
    """Deterministically generate group key material from a 64-bit seed."""
    if kappa not in SUPPORTED_KAPPA:
        raise UnsupportedParameter(f"kappa must be one of {SUPPORTED_KAPPA}")
    group = signature_group(key_bits)
    k = _expand(seed, b"obfuscation-key-%d" % kappa, kappa // 8)
    x = int.from_bytes(_expand(seed, b"signing-key", 64), "big") % (group.q - 1) + 1
    material = GroupKeyMaterial(
        obfuscation_key=k,
        signing_private=x,
        signing_public=generator_power(group, x),
        group_id=sha256(k),
        group=group,
    )
    # creation-time self-test: the key pair must round-trip a signature
    probe = b"ibac.self-test"
    sig = schnorr_sign(group, x, probe, material.signing_public)
    if not schnorr_verify(group, material.signing_public, probe, sig):
        raise CryptoError("signing self-test failed")
    return material


@dataclass(frozen=True)
class ProducerPublicKey:
    y: int
    group: SignatureGroup


@dataclass(frozen=True)
class ProducerKeyPair:
    private: int
    public: ProducerPublicKey


def gen_producer_keypair(seed: int, key_bits: int = DEFAULT_KEY_BITS) -> ProducerKeyPair:
    group = signature_group(key_bits)
    x = int.from_bytes(_expand(seed, b"producer-key", 64), "big") % (group.q - 1) + 1
    pair = ProducerKeyPair(x, ProducerPublicKey(generator_power(group, x), group))
    probe = encrypt_group_id(pair.public, sha256(b"probe"), random.Random(0))
    if decrypt_group_id(pair, probe) != sha256(b"probe"):
        raise CryptoError("producer keypair self-test failed")
    return pair


# ---------------------------------------------------------------------------
# name obfuscation


@lru_cache(maxsize=256)
def _enc_subkeys(k: bytes) -> tuple[bytes, bytes]:
    """The MAC and AES keys of obfuscation key ``k``, once per key."""
    mac_key = hmac.new(k, b"mac", hashlib.sha256).digest()
    enc_key = hmac.new(k, b"enc", hashlib.sha256).digest()[: len(k)]
    return mac_key, enc_key


def _aes_ctr(key: bytes, iv: bytes, data: bytes) -> bytes:
    """``data`` XOR the AES-CTR key stream of ``key`` from the counter
    block ``iv``; a key of another length than 16, 24 or 32 bytes raises
    ``ValueError``.  ``cryptography`` is imported on the first call, so
    importing this module does not map its bindings."""
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

    enc = Cipher(algorithms.AES(key), modes.CTR(iv)).encryptor()
    return enc.update(data) + enc.finalize()


def obfuscate_enc(k: bytes, suffix_components) -> bytes:
    """Deterministic, invertible obfuscation of a name suffix."""
    comps = list(suffix_components)
    if not comps:
        raise EmptySuffix("nothing to obfuscate")
    plaintext = pack_components(comps)
    mac_key, enc_key = _enc_subkeys(bytes(k))
    tag = hmac.new(mac_key, plaintext, hashlib.sha256).digest()[:ENC_TAG_LEN]
    return tag + _aes_ctr(enc_key, tag, plaintext)


def deobfuscate_enc(k: bytes, ciphertext: bytes) -> list[bytes]:
    # obfuscate_enc encrypts a packed, non-empty suffix, so its body is never empty
    if len(ciphertext) <= ENC_TAG_LEN:
        raise AuthenticityFailure("ciphertext too short")
    mac_key, enc_key = _enc_subkeys(bytes(k))
    tag, body = ciphertext[:ENC_TAG_LEN], ciphertext[ENC_TAG_LEN:]
    plaintext = _aes_ctr(enc_key, tag, body)
    expected = hmac.new(mac_key, plaintext, hashlib.sha256).digest()[:ENC_TAG_LEN]
    if not hmac.compare_digest(tag, expected):
        raise AuthenticityFailure("integrity tag mismatch")
    try:
        return unpack_components(plaintext)
    except Exception as exc:  # corrupted framing implies a forged tag
        raise AuthenticityFailure(str(exc)) from None


def obfuscate_hash(k: bytes, suffix_components) -> bytes:
    """Keyed one-way obfuscation; producers resolve it via a reverse map."""
    comps = list(suffix_components)
    if not comps:
        raise EmptySuffix("nothing to obfuscate")
    return hmac.new(k, pack_components(comps), hashlib.sha256).digest()


def key_id(k: bytes) -> bytes:
    """Public identifier of an obfuscation key: its SHA-256 digest."""
    return sha256(k)


# ---------------------------------------------------------------------------
# group-id privacy (randomized public-key encryption of the key digest)


def encrypt_group_id(public: ProducerPublicKey, group_id: bytes, rng: random.Random) -> bytes:
    """Randomized hashed-ElGamal encryption: two calls never collide."""
    group = public.group
    r = rng.randrange(1, group.q)
    c1 = generator_power(group, r).to_bytes(group.element_bytes, "big")
    shared = key_power(group, public.y, r).to_bytes(group.element_bytes, "big")
    kdf = sha256(c1 + shared + b"group-id-encryption")
    ct = bytes(a ^ b for a, b in zip(group_id, _sha256_stream(kdf, len(group_id))))
    tag = hmac.new(kdf, ct, hashlib.sha256).digest()[:ENC_TAG_LEN]
    return c1 + ct + tag


def decrypt_group_id(pair: ProducerKeyPair, blob: bytes) -> bytes:
    group = pair.public.group
    eb = group.element_bytes
    if len(blob) < eb + ENC_TAG_LEN + 1:
        raise DecryptFailure("ciphertext blob too short")
    c1 = int.from_bytes(blob[:eb], "big")
    if not 1 <= c1 < group.p:
        raise DecryptFailure("ephemeral element out of range")
    ct, tag = blob[eb:-ENC_TAG_LEN], blob[-ENC_TAG_LEN:]
    shared = _power(c1, pair.private, group.p).to_bytes(eb, "big")
    kdf = sha256(blob[:eb] + shared + b"group-id-encryption")
    expected = hmac.new(kdf, ct, hashlib.sha256).digest()[:ENC_TAG_LEN]
    if not hmac.compare_digest(tag, expected):
        raise DecryptFailure("tag mismatch")
    return bytes(a ^ b for a, b in zip(ct, _sha256_stream(kdf, len(ct))))


# ---------------------------------------------------------------------------
# Schnorr signatures


def schnorr_sign(
    group: SignatureGroup, x: int, message: bytes, y: int | None = None
) -> bytes:
    """Sign under private key ``x``; pass its public key ``y`` when known."""
    digest = sha256(message)
    k = (
        int.from_bytes(
            sha256(b"nonce" + x.to_bytes(group.order_bytes, "big") + digest), "big"
        )
        % (group.q - 1)
        + 1
    )
    rb = generator_power(group, k).to_bytes(group.element_bytes, "big")
    if y is None:
        y = generator_power(group, x)
    e = _challenge(group, rb, y, message)
    s = (k + x * e) % group.q
    return rb + s.to_bytes(group.order_bytes, "big")


def _challenge(group: SignatureGroup, rb: bytes, y: int, message: bytes) -> int:
    yb = y.to_bytes(group.element_bytes, "big")
    return int.from_bytes(sha256(rb + yb + message), "big") % group.q


def _parse_signature(group: SignatureGroup, sig: bytes) -> tuple[int, int, bytes] | None:
    if len(sig) != group.element_bytes + group.order_bytes:
        return None
    rb = sig[: group.element_bytes]
    big_r = int.from_bytes(rb, "big")
    s = int.from_bytes(sig[group.element_bytes :], "big")
    if not 1 <= big_r < group.p or not 0 <= s < group.q:
        return None
    return big_r, s, rb


def schnorr_verify(group: SignatureGroup, y: int, message: bytes, sig: bytes) -> bool:
    parsed = _parse_signature(group, sig)
    if parsed is None:
        return False
    big_r, s, rb = parsed
    return schnorr_equation(group, y, s, _challenge(group, rb, y, message), big_r)


def schnorr_batch_verify(
    group: SignatureGroup,
    y: int,
    items,
    rng: random.Random | None = None,
) -> bool:
    """Small-exponent batch test over (message, signature) pairs under one key.

    The first item's exponent is fixed at 1 (Bellare-Garay-Rabin), so a
    batch of one costs what an individual verification costs.
    """
    items = list(items)
    if not items:
        raise EmptyBatch("batch must contain at least one item")
    if rng is None:
        rng = random.Random()
    s_sum = 0
    e_sum = 0
    first_r = None
    weighted_r = []
    for message, sig in items:
        parsed = _parse_signature(group, sig)
        if parsed is None:
            return False
        big_r, s, rb = parsed
        # z_1 = 1 takes no draw: a batch of n draws n - 1 exponents from rng
        if first_r is None:
            first_r, z = big_r, 1
        else:
            z = rng.randrange(1, 1 << BATCH_Z_BITS)
            weighted_r.append((big_r, z))
        s_sum = (s_sum + z * s) % group.q
        e_sum = (e_sum + z * _challenge(group, rb, y, message)) % group.q
    rhs = first_r * multi_power(weighted_r, group.p) % group.p
    return schnorr_equation(group, y, s_sum, e_sum, rhs)


# ---------------------------------------------------------------------------
# payload signatures: bind (name bytes, group id field, nonce, timestamp)


_LENGTH = struct.Struct(">I").pack
_FRAMED_TIMESTAMP = struct.Struct(">IQ").pack  # the length 8, then the timestamp


def _signing_message(name_bytes: bytes, group_id: bytes, nonce: bytes, timestamp: int) -> bytes:
    # 4-byte length framing removes any concatenation ambiguity
    return b"".join((
        _LENGTH(len(name_bytes)), name_bytes,
        _LENGTH(len(group_id)), group_id,
        _LENGTH(len(nonce)), nonce,
        _FRAMED_TIMESTAMP(8, timestamp),
    ))


def sign_payload(
    material: GroupKeyMaterial,
    name_bytes: bytes,
    group_id: bytes,
    nonce: bytes,
    timestamp: int,
) -> bytes:
    msg = _signing_message(name_bytes, group_id, nonce, timestamp)
    return schnorr_sign(
        material.group, material.signing_private, msg, material.signing_public
    )


ACCEPTED_CAP = 1024  # accepted payload checks remembered per process

# every input of an accepted check, (group, y, name bytes, group-id field,
# nonce, timestamp, signature), oldest first
_ACCEPTED: OrderedDict[tuple, None] = OrderedDict()


def verify_payload(
    group: SignatureGroup,
    signing_public: int,
    name_bytes: bytes,
    group_id: bytes,
    nonce: bytes,
    timestamp: int,
    signature: bytes,
) -> bool:
    """Check a payload signature; a check that accepted before is not redone.

    Only acceptances are remembered, so rejected traffic can neither fill
    the table nor evict from it; past ``ACCEPTED_CAP`` the oldest goes.
    """
    key = (group, signing_public, name_bytes, group_id, nonce, timestamp, signature)
    if key in _ACCEPTED:
        return True
    msg = _signing_message(name_bytes, group_id, nonce, timestamp)
    if not schnorr_verify(group, signing_public, msg, signature):
        return False
    _ACCEPTED[key] = None
    if len(_ACCEPTED) > ACCEPTED_CAP:
        _ACCEPTED.popitem(last=False)
    return True


def batch_verify(
    group: SignatureGroup,
    signing_public: int,
    items,
    rng: random.Random | None = None,
) -> bool:
    """Batch-check payload tuples ((name_bytes, group_id, nonce, t), signature)."""
    prepared = [
        (_signing_message(*fields), signature) for fields, signature in items
    ]
    return schnorr_batch_verify(group, signing_public, prepared, rng)
