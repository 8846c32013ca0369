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
bits for benchmarking).  A signature is ``(R, s)`` with
``R = g^k``, ``e = H(R || y || m) mod q``, ``s = k + x*e mod q``; the
signing nonce ``k`` is derived from the key and message, so signatures are
deterministic.  Verification checks ``g^s == R * y^e``.

Batch verification uses the randomized small-exponent test
(Bellare-Garay-Rabin, EUROCRYPT '98): fix ``z_1 = 1``, draw 64-bit ``z_i``
for the other items and accept iff

    g^(sum z_i*s_i) == prod R_i^{z_i} * y^(sum z_i*e_i)   (mod p)

which passes every valid batch.  When every ``R_i`` lies in the order-q
subgroup, a batch containing an invalid signature passes with probability
at most 2^-64.  ``R_i`` is only range-checked, so a signer can submit an
``R`` outside the subgroup (for example ``-g^k``) that fails individual
verification yet passes a batch with fair probability; the repair is open
(ROADMAP item 2).

Exponentiation engine.  Every exponent raised to a fixed base (``g`` and
the public keys ``y``) is below q, so each such base gets a fixed-base
table (Brickell-Gordon-McCurley-Wilson, EUROCRYPT '92): row ``i`` holds
``base^(d * 256^i)`` for every byte value ``d``, and ``base^e`` is one
multiplication per nonzero byte of ``e``, at most 32, with no squarings.
A new table builds only the nibble entries of each row (``d < 16`` and
the multiples of 16), about 1,000 multiplications; every other entry is
the product of its two nibble entries, made the first time an exponent
needs it and kept.  A full table is 32 x 256 entries, about 0.8 MB at
512 bits and 3.5 MB at 3072.  ``g`` has one table per group for the life
of the process.  Public keys share a small LRU of tables keyed by
``(p, y)``; a key's table is built on its second use, so a stream of
one-shot keys never pays for (or evicts) tables.  Exponents longer than a
table, or negative, fall back to built-in ``pow``.  The batch
product ``prod R_i^{z_i}`` is one Straus interleaved multi-exponentiation
with shared squarings (Moeller, SAC 2001).  The engine returns exactly
what ``pow`` returns, so signatures are unchanged.
"""

from __future__ import annotations

import hashlib
import hmac
import random
import struct
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

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


def signature_group(key_bits: int = DEFAULT_KEY_BITS) -> SignatureGroup:
    try:
        p, q, g = _GROUP_PARAMS[key_bits]
    except KeyError:
        raise UnsupportedParameter(
            f"no signature group for key_bits={key_bits}; "
            f"supported: {sorted(_GROUP_PARAMS)}"
        ) from None
    return SignatureGroup(key_bits, p, q, g)


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def _expand(seed: int, label: bytes, nbytes: int) -> bytes:
    """Deterministic byte expansion from a 64-bit seed (counter-mode SHA-256)."""
    if not 0 <= seed < 1 << 64:
        raise UnsupportedParameter("seed must fit in 64 bits")
    out = bytearray()
    counter = 0
    prefix = b"ibac.keygen." + seed.to_bytes(8, "big") + b"." + label + b"."
    while len(out) < nbytes:
        out += sha256(prefix + struct.pack(">I", counter))
        counter += 1
    return bytes(out[:nbytes])


# ---------------------------------------------------------------------------
# exponentiation engine

FIXED_BASE_EXP_BITS = 256  # every fixed-base exponent is reduced mod q
KEY_TABLE_CAP = 8  # public-key tables kept per process
KEY_SEEN_CAP = 64  # public keys remembered as used once, awaiting a table
STRAUS_WINDOW = 4
BATCH_Z_BITS = 64


def _powers(b: int, count: int, p: int) -> list[int]:
    """``[b^0, b^1, ..., b^(count-1)] mod p`` for ``count >= 2``."""
    row = [1, b]
    for _ in range(count - 2):
        row.append(row[-1] * b % p)
    return row


class FixedBaseTable:
    """``base^e mod p`` for ``e < 2^FIXED_BASE_EXP_BITS`` by table lookup.

    Row ``i`` holds ``base^(d * 256^i)`` at index ``d`` for every byte value
    ``d``, so ``base^e`` is one product per nonzero byte of ``e`` and no
    squarings.  Only the nibble entries (``d < 16`` and the multiples of
    16) are built up front; any other entry is ``row[d & 0xF0] *
    row[d & 0x0F]``, made the first time an exponent needs it and kept.
    """

    __slots__ = ("p", "rows")

    def __init__(self, base: int, p: int):
        b = base % p
        rows = []
        for _ in range(FIXED_BASE_EXP_BITS // 8):
            lo = _powers(b, 17, p)  # b^0 .. b^16
            hi = _powers(lo[16], 16, p)  # b^0, b^16, .. b^240
            row = [None] * 256
            row[:16] = lo[:16]
            row[::16] = hi
            rows.append(row)
            b = hi[15] * lo[16] % p  # the next row's base, b^256
        self.p = p
        self.rows = rows

    def power(self, e: int) -> int:
        if e >> FIXED_BASE_EXP_BITS:  # over-length (or negative) exponent
            return pow(self.rows[0][1], e, self.p)
        p = self.p
        acc = 1
        for row, d in zip(self.rows, e.to_bytes(FIXED_BASE_EXP_BITS // 8, "little")):
            if d:
                x = row[d]
                if x is None:
                    x = row[d] = row[d & 0xF0] * row[d & 0x0F] % p
                acc = acc * x % p
        return acc


@lru_cache(maxsize=len(_GROUP_PARAMS))
def _generator_table(p: int, g: int) -> FixedBaseTable:
    return FixedBaseTable(g, p)


def generator_power(group: SignatureGroup, e: int) -> int:
    """``g^e mod p`` from the group's generator table."""
    return _generator_table(group.p, group.g).power(e)


class KeyTables:
    """LRU of public-key tables; a key's table is built on its second use."""

    def __init__(self):
        self.tables: OrderedDict[tuple[int, int], FixedBaseTable] = OrderedDict()
        self.seen: OrderedDict[tuple[int, int], None] = OrderedDict()

    def power(self, p: int, base: int, e: int) -> int:
        key = (p, base)
        table = self.tables.get(key)
        if table is not None:
            self.tables.move_to_end(key)
            return table.power(e)
        if key not in self.seen:
            self.seen[key] = None
            if len(self.seen) > KEY_SEEN_CAP:
                self.seen.popitem(last=False)
            return pow(base, e, p)
        del self.seen[key]
        table = self.tables[key] = FixedBaseTable(base, p)
        if len(self.tables) > KEY_TABLE_CAP:
            self.tables.popitem(last=False)
        return table.power(e)


# tables depend only on (p, base), so sharing them changes no result
_KEY_TABLES = KeyTables()


def key_power(group: SignatureGroup, y: int, e: int) -> int:
    """``y^e mod p`` for a public key ``y``, through the key-table LRU."""
    return _KEY_TABLES.power(group.p, y, e)


def multi_power(pairs, p: int) -> int:
    """``prod b^z mod p`` over ``(b, z)`` pairs with ``z >= 0``.

    Straus interleaving: one squaring chain shared by all bases, one
    multiplication per nonzero window of each exponent.
    """
    mask = (1 << STRAUS_WINDOW) - 1
    tables = []
    top = 0
    for b, z in pairs:
        tables.append((_powers(b % p, 1 << STRAUS_WINDOW, p), z))
        top = max(top, z.bit_length())
    acc = 1
    for shift in range((top - 1) // STRAUS_WINDOW * STRAUS_WINDOW, -1, -STRAUS_WINDOW):
        if acc != 1:
            for _ in range(STRAUS_WINDOW):
                acc = acc * acc % p
        for row, z in tables:
            digit = (z >> shift) & mask
            if digit:
                acc = acc * row[digit] % p
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


def _enc_subkeys(k: bytes) -> tuple[bytes, bytes]:
    mac_key = hmac.new(k, b"mac", hashlib.sha256).digest()
    enc_key = hmac.new(k, b"enc", hashlib.sha256).digest()[: len(k)]
    return mac_key, enc_key


def _aes_ctr(key: bytes, iv: bytes, data: bytes) -> bytes:
    cipher = Cipher(algorithms.AES(key), modes.CTR(iv))
    enc = cipher.encryptor()
    return enc.update(data) + enc.finalize()


def obfuscate_enc(k: bytes, suffix_components) -> bytes:
    """Deterministic, invertible obfuscation of a name suffix."""
    comps = list(suffix_components)
    if not comps:
        raise EmptySuffix("nothing to obfuscate")
    plaintext = pack_components(comps)
    mac_key, enc_key = _enc_subkeys(k)
    tag = hmac.new(mac_key, plaintext, hashlib.sha256).digest()[:ENC_TAG_LEN]
    return tag + _aes_ctr(enc_key, tag, plaintext)


def deobfuscate_enc(k: bytes, ciphertext: bytes) -> list[bytes]:
    if len(ciphertext) < ENC_TAG_LEN:
        raise AuthenticityFailure("ciphertext too short")
    mac_key, enc_key = _enc_subkeys(k)
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
    stream = bytearray()
    counter = 0
    while len(stream) < len(group_id):
        stream += sha256(kdf + struct.pack(">I", counter))
        counter += 1
    ct = bytes(a ^ b for a, b in zip(group_id, stream))
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
    shared = pow(c1, pair.private, group.p).to_bytes(eb, "big")
    kdf = sha256(blob[:eb] + shared + b"group-id-encryption")
    expected = hmac.new(kdf, ct, hashlib.sha256).digest()[:ENC_TAG_LEN]
    if not hmac.compare_digest(tag, expected):
        raise DecryptFailure("tag mismatch")
    stream = bytearray()
    counter = 0
    while len(stream) < len(ct):
        stream += sha256(kdf + struct.pack(">I", counter))
        counter += 1
    return bytes(a ^ b for a, b in zip(ct, stream))


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
    e = _challenge(group, rb, y, message)
    return generator_power(group, s) == big_r * key_power(group, y, e) % group.p


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
        # one draw per item, the first included: the simulator hands routers
        # its own stream, so the number of draws is part of its determinism
        z = rng.randrange(1, 1 << BATCH_Z_BITS)
        if first_r is None:
            first_r, z = big_r, 1
        else:
            weighted_r.append((big_r, z))
        s_sum = (s_sum + z * s) % group.q
        e_sum = (e_sum + z * _challenge(group, rb, y, message)) % group.q
    rhs = first_r * multi_power(weighted_r, group.p) % group.p
    rhs = rhs * key_power(group, y, e_sum) % group.p
    return generator_power(group, s_sum) == rhs


# ---------------------------------------------------------------------------
# payload signatures: bind (name bytes, group id field, nonce, timestamp)


def _signing_message(name_bytes: bytes, group_id: bytes, nonce: bytes, timestamp: int) -> bytes:
    # 4-byte length framing removes any concatenation ambiguity
    fields = [name_bytes, group_id, nonce, struct.pack(">Q", timestamp)]
    return b"".join(struct.pack(">I", len(f)) + f for f in fields)


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


def verify_payload(
    group: SignatureGroup,
    signing_public: int,
    name_bytes: bytes,
    group_id: bytes,
    nonce: bytes,
    timestamp: int,
    signature: bytes,
) -> bool:
    msg = _signing_message(name_bytes, group_id, nonce, timestamp)
    return schnorr_verify(group, signing_public, msg, signature)


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
