"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; timing budgets are
asserted with wall-clock measurements.
"""

import random
import time
from collections import Counter

import pytest

from ibac import analysis, crypto, scenario
from ibac.analysis import (
    bench_verification,
    content_overhead_bytes,
    interest_overhead_bytes,
    model_mu,
)
from ibac.consumer import ConsumerContext, ConsumerMode, interest_generation
from ibac.producer import Producer, ProtectionPolicy
from ibac.router import DropReason, EventKind, Router
from ibac.scenario import content_wire_name, load_bundled, run_config
from ibac.wire import (
    AuthorizationPayload,
    ContentObject,
    Interest,
    Name,
    SchemeTag,
    encode_content,
    encode_interest,
    encode_name,
)


def _report(number: int, detail: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {detail}")


# ---------------------------------------------------------------------------
# 1. obfuscation round-trip


def test_acceptance_1_obfuscation_roundtrip():
    t0 = time.perf_counter()
    rng = random.Random(0xACC1)
    for case in range(1000):
        key = rng.randbytes(rng.choice([16, 32]))
        comps = [rng.randbytes(rng.randint(1, 24)) for _ in range(rng.randint(1, 5))]
        assert crypto.deobfuscate_enc(key, crypto.obfuscate_enc(key, comps)) == comps
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(1, f"1000 (key, name) pairs round-tripped exactly in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. replay defense


def test_acceptance_2_replay_defense():
    t0 = time.perf_counter()
    same, _ = run_config(load_bundled("replay_same_path"))
    stat = same.attack_stat("REPLAY_SAME_PATH")
    assert stat.attempts == 100
    assert stat.successes == 0
    assert same.drop_total("DuplicateNonce") == 100

    cross, _ = run_config(load_bundled("replay_cross_path"))
    within = next(a for a in cross.attacks if a.label == "within_window")
    after = next(a for a in cross.attacks if a.label == "after_window")
    assert within.successes >= 1  # unsynchronized nonce tables: the known gap
    assert after.successes == 0
    assert cross.drop_total("StaleTimestamp") >= 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(
        2,
        f"same-path 0/100 served; cross-path {within.successes} within window, "
        f"0 after; {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 3. forgery


def test_acceptance_3_forgery():
    t0 = time.perf_counter()
    result, _ = run_config(load_bundled("forgery"))
    at_cache = next(a for a in result.attacks if a.label == "at_cache")
    at_producer = next(a for a in result.attacks if a.label == "at_producer")
    assert at_cache.attempts + at_producer.attempts == 1000
    assert at_cache.successes == 0 and at_producer.successes == 0
    assert result.counters.get("adv_delivered", 0) == 0
    drops = Counter()
    for (node, reason), n in result.drops.items():
        if reason == "BadSignature":
            drops[node] += n
    assert drops["r1"] == 500 and drops["p1"] == 500
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(3, f"1000 forged interests, 0 contents (router and producer); {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 4. name probing


def test_acceptance_4_name_probing():
    t0 = time.perf_counter()
    config = load_bundled("name_probe")
    config.adversary.actions[0].count = 100_000
    config.adversary.actions[0].interval_ms = 0.2
    config.duration_ms = 40_000.0
    for node in config.nodes:
        if node.role in ("router", "producer"):
            node.tau_process_s = 0.0001
            node.tau_verify_s = 0.0001
    result, info = run_config(config)

    stat = result.attack_stat("NAME_PROBE")
    assert stat.attempts == 100_002  # probes plus the two captured names
    random_probe_successes = stat.successes - sum(
        result.captured_probe_outcomes.values()
    )
    assert random_probe_successes == 0
    assert result.drop_total("UnknownName") == 100_000  # every probe was checked

    full_hex = content_wire_name(info, "/edu/uci/private/report").hex()
    obf_hex = content_wire_name(info, "/edu/uci/open/feed").hex()
    assert result.captured_probe_outcomes[obf_hex] == 1  # replayable by design
    assert result.captured_probe_outcomes[full_hex] == 0  # payload check holds
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(
        4,
        f"100000 random probes: 0 hits; captured name served only in "
        f"obfuscation-only mode; {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 5. analytic model


def test_acceptance_5_analytic_model():
    t0 = time.perf_counter()
    assert model_mu(0.0, 0.005, 0.599) == 200.0
    assert model_mu(0.2, 0.005, 0.599) == pytest.approx(
        160.33112582781456, rel=1e-6
    )
    assert model_mu(1.0, 0.005, 0.599) == pytest.approx(
        1.6556291390728477, rel=1e-6
    )
    grid = [model_mu(i / 100, 0.005, 0.599) for i in range(101)]
    assert all(a > b for a, b in zip(grid, grid[1:]))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(5, f"model exact at grid ends, strictly decreasing over 101 points; {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 6. simulation vs model


def test_acceptance_6_simulation_vs_model():
    t0 = time.perf_counter()
    config = load_bundled("service_rate_sweep")
    assert config.sweep.interests_per_point == 10_000
    assert config.sweep.deltas == [0.0, 0.2, 0.5, 1.0]
    points, results = scenario.run_sweep(config)
    details = []
    for point in points:
        rel = abs(point.mu_measured - point.mu_model) / point.mu_model
        assert rel <= 0.10, f"delta={point.delta}: {point.mu_measured} vs {point.mu_model}"
        details.append(f"d={point.delta}:{rel * 100:.2f}%")
    # single-class points: raw windowed throughput agrees with the model too
    import statistics

    for point, result in zip(points, results):
        if point.delta not in (0.0, 1.0):
            continue
        window_ms = 10_000.0 if point.delta == 0.0 else 120_000.0
        windows = analysis.measure_service_rate(result.log_lines, window_ms, node="r1")
        raw = statistics.median(rate for _, rate in windows[:-1])
        assert raw == pytest.approx(point.mu_model, rel=0.10)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(6, f"measured within 10% of model ({', '.join(details)}); {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. batch verification


def test_acceptance_7_batch_verification():
    t0 = time.perf_counter()
    reports = []
    for batch_size in (10, 50):
        result = bench_verification(
            key_bits=1024, batch_size=batch_size, payload_bytes=512 * 1024, trials=10
        )
        assert result.t_batch_s < result.t_individual_s
        ref = analysis.REFERENCE_VERIFICATION_TIMINGS[(1024, batch_size, 512 * 1024)]
        reports.append(
            f"batch={batch_size}: {result.t_individual_s:.3f}s/{result.t_batch_s:.3f}s "
            f"({result.improvement_pct:.0f}% vs reference {ref[2]}%)"
        )

    # single corrupted signature detected in >= 999/1000 seeded trials
    material = crypto.gen_group(128, 1)
    rng = random.Random(0xACC7)
    name_bytes = encode_name(Name((b"a",)))
    items = []
    for i in range(10):
        fields = (name_bytes, material.group_id, rng.randbytes(16), i)
        items.append((fields, crypto.sign_payload(material, *fields)))
    detected = 0
    for _ in range(1000):
        bad = list(items)
        idx = rng.randrange(10)
        fields, sig = bad[idx]
        corrupted = bytearray(sig)
        corrupted[rng.randrange(len(sig))] ^= 1 + rng.randrange(255)
        bad[idx] = (fields, bytes(corrupted))
        if not crypto.batch_verify(material.group, material.signing_public, bad, rng):
            detected += 1
    assert detected >= 999

    # batch of one behaves exactly like individual verification
    agree = 0
    for case in range(1000):
        fields = (name_bytes, material.group_id, rng.randbytes(16), case)
        sig = crypto.sign_payload(material, *fields)
        if rng.random() < 0.5:
            corrupted = bytearray(sig)
            corrupted[rng.randrange(len(sig))] ^= 1 + rng.randrange(255)
            sig = bytes(corrupted)
        individual = crypto.verify_payload(
            material.group, material.signing_public, *fields, sig
        )
        batched = crypto.batch_verify(
            material.group, material.signing_public, [(fields, sig)], rng
        )
        assert individual == batched
        agree += 1
    assert agree == 1000
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(
        7,
        f"{'; '.join(reports)}; corruption detected {detected}/1000; "
        f"batch-1 agreed 1000/1000; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 8. overhead accounting


def test_acceptance_8_overhead_accounting():
    t0 = time.perf_counter()
    material = crypto.gen_group(128, 1)
    ctx = ConsumerContext(
        group=material,
        mode=ConsumerMode.FULL,
        scheme=SchemeTag.ENC,
        clock=lambda: 1000.0,
        rng=random.Random(8),
    )
    name = Name.from_uri("/edu/uci/ics/home.html")
    full = interest_generation(ctx, (b"edu", b"uci"), name)
    bare = Interest(full.name)
    params = dict(
        nonce_bytes=len(full.payload.nonce),
        timestamp_bytes=8,
        signature_bytes=len(full.payload.signature),
        group_id_bytes=len(full.payload.group_id),
    )
    wire_delta = len(encode_interest(full)) - len(encode_interest(bare))
    assert wire_delta == interest_overhead_bytes(**params) + analysis.INTEREST_AUTH_FRAMING_BYTES

    id_only = Interest(full.name, AuthorizationPayload(full.payload.group_id))
    delta_vs_id = len(encode_interest(full)) - len(encode_interest(id_only))
    assert delta_vs_id == (
        interest_overhead_bytes(**params)
        - params["group_id_bytes"]
        + analysis.INTEREST_AUTH_VS_ID_ONLY_FRAMING_BYTES
    )

    # two-group content carries both verification keys; wire diff matches
    producer = Producer((b"edu", b"uci"))
    g1, g2 = crypto.gen_group(128, 1), crypto.gen_group(128, 2)
    producer.register_group(g1)
    producer.register_group(g2)
    shared = producer.publish(
        name, b"data", [g1.group_id, g2.group_id], SchemeTag.HASH, 60_000,
        ProtectionPolicy.FULL,
    )
    ctx2 = ConsumerContext(
        group=g1,
        mode=ConsumerMode.FULL,
        scheme=SchemeTag.HASH,
        clock=lambda: 1000.0,
        rng=random.Random(9),
        content_keys={name.components: shared},
    )
    response = producer.content_object_generation(
        interest_generation(ctx2, (b"edu", b"uci"), name), 1000.0
    )
    content = response.content
    assert {gid for gid, _ in content.verification_keys} == {g1.group_id, g2.group_id}
    stripped = type(content)(
        content.name, content.data, (), content.expiry_time, content.producer_signature
    )
    key_sizes = tuple(len(k) for _, k in content.verification_keys)
    content_delta = len(encode_content(content)) - len(encode_content(stripped))
    framing = sum(
        analysis.content_key_entry_framing_bytes(len(gid))
        for gid, _ in content.verification_keys
    )
    assert content_delta == content_overhead_bytes(key_sizes) + framing
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(
        8,
        f"interest +{wire_delta}B = fields + {analysis.INTEREST_AUTH_FRAMING_BYTES}B framing; "
        f"2-key content +{content_delta}B = keys + {framing}B framing; {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 9. cache/PIT semantics


def test_acceptance_9_cache_and_pit_semantics():
    t0 = time.perf_counter()
    result, info = run_config(load_bundled("figure_sequence"))
    # each content: two authorized fetches, exactly one producer interest
    assert len(result.deliveries) == 4
    assert sorted(result.producer_interests.values()) == [1, 1]
    news_hex = content_wire_name(info, "/edu/uci/ics/news.html").hex()
    forwards = [
        l
        for l in result.log_lines
        if l.split("\t")[1] == "r1"
        and l.split("\t")[2] == "int_forwarded"
        and l.split("\t")[3] == news_hex
    ]
    aggregates = [
        l
        for l in result.log_lines
        if l.split("\t")[2] == "int_aggregated" and l.split("\t")[3] == news_hex
    ]
    assert len(forwards) == 1 and len(aggregates) == 1  # aggregation forwards once

    # unsolicited content is discarded
    router = Router()
    router.add_route((b"edu",), 1)
    name = info.content_names["/edu/uci/ics/home.html"]
    unsolicited = ContentObject(name, b"spam", (), expiry_time=60_000)
    events, _ = router.on_content(unsolicited, in_iface=0, now=0.0)
    assert events[0].kind is EventKind.DROP_CONTENT
    assert events[0].reason is DropReason.UNSOLICITED

    revocation, _ = run_config(load_bundled("revocation_expiry"))
    assert len(revocation.deliveries) == 2  # initial fetch + stale-cache window
    expiry_at = max(
        float(l.split("\t")[0])
        for l in revocation.log_lines
        if l.split("\t")[2] == "cache_evicted"
    )
    late_hits = [
        l
        for l in revocation.log_lines
        if l.split("\t")[2] == "cs_hit_served" and float(l.split("\t")[0]) > expiry_at
    ]
    assert late_hits == []  # no cache hits after expiry
    assert revocation.drop_total("UnknownGroup") == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(
        9,
        f"1 producer interest per content, aggregation forwarded once, unsolicited "
        f"dropped, no cache hits after expiry; {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 10. determinism


def test_acceptance_10_determinism():
    t0 = time.perf_counter()
    first, _ = run_config(load_bundled("figure_sequence"))
    second, _ = run_config(load_bundled("figure_sequence"))
    log_a = "\n".join(first.log_lines).encode()
    log_b = "\n".join(second.log_lines).encode()
    assert log_a == log_b
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(10, f"re-run emission logs byte-identical ({len(log_a)} bytes); {elapsed:.2f}s")
