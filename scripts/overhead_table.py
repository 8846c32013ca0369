#!/usr/bin/env python3
"""Bandwidth-overhead table: analytic byte counts vs encode-and-diff wire
measurements for authorization payloads and verification-key entries.

Writes overhead.csv with the documented constant framing per quantity.
"""

import argparse
import random
import sys
from pathlib import Path

from ibac import analysis, crypto
from ibac.analysis import OverheadParams, content_overhead_bytes, interest_overhead_bytes
from ibac.consumer import ConsumerContext, ConsumerMode, interest_generation
from ibac.wire import ContentObject, Interest, Name, SchemeTag, encode_content, encode_interest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/overhead")
    args = parser.parse_args()

    material = crypto.gen_group(128, 1)
    ctx = ConsumerContext(
        group=material,
        mode=ConsumerMode.FULL,
        scheme=SchemeTag.ENC,
        clock=lambda: 1000.0,
        rng=random.Random(1),
    )
    name = Name.from_uri("/edu/uci/ics/home.html")
    full = interest_generation(ctx, (b"edu", b"uci"), name)
    bare = Interest(full.name)
    params = OverheadParams(
        nonce_bytes=len(full.payload.nonce),
        timestamp_bytes=8,
        signature_bytes=len(full.payload.signature),
        group_id_bytes=len(full.payload.group_id),
    )
    interest_measured = len(encode_interest(full)) - len(encode_interest(bare))

    keys = tuple(
        (crypto.gen_group(128, seed).group_id, crypto.gen_group(128, seed).public_key_bytes)
        for seed in (1, 2)
    )
    with_keys = ContentObject(full.name, b"data", keys, 1000, b"sig")
    without = ContentObject(full.name, b"data", (), 1000, b"sig")
    content_params = OverheadParams(key_sizes=tuple(len(k) for _, k in keys))
    content_measured = len(encode_content(with_keys)) - len(encode_content(without))
    content_framing = sum(
        analysis.content_key_entry_framing_bytes(len(gid)) for gid, _ in keys
    )

    rows = [
        (
            "interest_auth_payload",
            interest_overhead_bytes(params),
            interest_measured,
            analysis.INTEREST_AUTH_FRAMING_BYTES,
        ),
        (
            "content_two_group_keys",
            content_overhead_bytes(content_params),
            content_measured,
            content_framing,
        ),
    ]
    for quantity, analytic, measured, framing in rows:
        print(f"{quantity}: analytic={analytic}B measured={measured}B framing={framing}B")
        assert measured == analytic + framing
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    analysis.write_overhead_csv(out / "overhead.csv", rows)
    print(f"wrote {out / 'overhead.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
