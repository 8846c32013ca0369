"""Interest-based access control for content-centric networks.

Protocol library (names, wire format, obfuscation, payload signatures),
deterministic network simulator with an adversary model, and the analysis
harness for service rates and message overhead.
"""

from .wire import (
    AuthorizationPayload,
    ContentObject,
    Interest,
    Name,
    ObfuscatedName,
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
from .crypto import (
    GroupKeyMaterial,
    batch_verify,
    deobfuscate_enc,
    decrypt_group_id,
    encrypt_group_id,
    gen_group,
    gen_producer_keypair,
    key_id,
    obfuscate_enc,
    obfuscate_hash,
    sign_payload,
    verify_payload,
)
from .consumer import ConsumerContext, ConsumerMode, interest_generation
from .producer import Producer, ProtectionPolicy
from .router import Router
from .simnet import AdversaryAction, Simulation, TrafficProfile
from .analysis import (
    bench_verification,
    content_overhead_bytes,
    interest_overhead_bytes,
    measure_service_rate,
    model_mu,
)
from .scenario import load_bundled, load_scenario, run_scenario

__all__ = [name for name in dir() if not name.startswith("_")]
