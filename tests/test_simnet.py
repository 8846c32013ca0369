import gc
import hashlib
import json
import math
import sys
import tracemalloc
from collections import Counter, OrderedDict
from dataclasses import replace
from pathlib import Path

import pytest

from ibac import cli, crypto, scenario, simnet, wire
from ibac.consumer import ConsumerMode
from ibac.producer import Producer, ProtectionPolicy
from ibac.scenario import run_config, scenario_from_dict
from ibac.wire import (
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
)

BUNDLED_DIGESTS = json.loads(
    (Path(__file__).resolve().parent.parent / "testdata" / "bundled_digests.json").read_text()
)


def linear_config(**overrides):
    raw = {
        "name": "linear",
        "seed": 5,
        "duration_ms": 5000,
        "nodes": [
            {"id": "cr1", "role": "consumer", "group": "g1", "mode": "FULL", "scheme": "ENC"},
            {"id": "r1", "role": "router", "tau_process_s": 0.0005, "tau_verify_s": 0.0005},
            {"id": "r2", "role": "router", "tau_process_s": 0.0005, "tau_verify_s": 0.0005},
            {"id": "p1", "role": "producer", "prefix": "/edu/uci",
             "tau_process_s": 0.0005, "tau_verify_s": 0.0005},
        ],
        "links": [["cr1", "r1", 10], ["r1", "r2", 10], ["r2", "p1", 10]],
        "groups": [{"id": "g1", "seed": 42}],
        "contents": [
            {"name": "/edu/uci/ics/home.html", "groups": ["g1"], "scheme": "ENC",
             "policy": "FULL", "expiry_ms": 60000, "data_size": 48},
        ],
        "fetches": [{"consumer": "cr1", "name": "/edu/uci/ics/home.html", "at_ms": 0}],
    }
    raw.update(overrides)
    return scenario_from_dict(raw)


def test_linear_fetch_caches_at_both_routers():
    result, info = run_config(linear_config())
    assert len(result.deliveries) == 1
    delivery = result.deliveries[0]
    assert delivery.consumer == "cr1"
    wire_name = scenario.content_wire_name(info, "/edu/uci/ics/home.html")
    for node in ("r1", "r2"):
        router = result.nodes[node]
        assert wire_name in router.cs
    assert delivery.data == result.nodes["r1"].cs[wire_name].content.data


def count_decodes(monkeypatch) -> list:
    """Record the type of every record decoded, by whichever of ``wire``'s
    decoders: each one builds its records, nested ones too, with
    ``_Container.decode``."""
    decoded = []
    real_decode = wire._Container.decode

    def counting_decode(container, buf, start, end):
        record = real_decode(container, buf, start, end)
        decoded.append(type(record).__name__)
        return record

    monkeypatch.setattr(wire._Container, "decode", counting_decode)
    return decoded


def test_count_decodes_sees_every_decoder(monkeypatch):
    decoded = count_decodes(monkeypatch)
    interest = Interest(Name((b"a",)))
    content = ContentObject(Name((b"a",)), b"x")
    decode_message(encode_interest(interest))
    decode_interest(encode_interest(interest))
    decode_message(encode_content(content))
    decode_content(encode_content(content))
    assert decoded == ["Interest", "Interest", "ContentObject", "ContentObject"]


def count_encodes(monkeypatch) -> list:
    """Record the type of every record encoded, by whichever of ``wire``'s
    encoders and wherever it is bound: each one encodes its records, nested
    ones too, with ``_Container.encode``."""
    encoded = []
    real_encode = wire._Container.encode

    def counting_encode(container, type_code, record):
        encoded.append(type(record).__name__)
        return real_encode(container, type_code, record)

    monkeypatch.setattr(wire._Container, "encode", counting_encode)
    return encoded


def test_count_encodes_sees_every_encoder(monkeypatch):
    encoded = count_encodes(monkeypatch)
    interest = Interest(Name((b"a",)))
    content = ContentObject(Name((b"a",)), b"x")
    nack = wire.Nack(interest, "NoRoute")
    for message in (interest, content, nack):
        wire.encode_message(message)
    cli.encode_interest(interest)  # a binding outside ``wire``
    cli.encode_content(content)
    assert encoded == [
        "Interest", "ContentObject", "Nack", "Interest", "Interest", "ContentObject"
    ]


def test_linear_fetch_decodes_nothing(monkeypatch):
    decoded, encoded = count_decodes(monkeypatch), count_encodes(monkeypatch)
    result, info = run_config(linear_config())
    # consumer -> r1 -> r2 -> producer and back: the consumer's interest and
    # the producer's content travel as the records they were built as, so
    # no message's bytes are made
    assert decoded == []
    assert encoded == []
    name = info.content_names["/edu/uci/ics/home.html"]
    assert [(d.time_ms, d.consumer, d.data) for d in result.deliveries] == [
        (64.0, "cr1", info.producers["p1"].catalog[name.components].data)
    ]
    # passing records on instead of bytes alone must not change what is emitted
    digest = hashlib.sha256("\n".join(result.log_lines).encode()).hexdigest()
    assert digest == "d49876dfd9db1c56aa6aea6f541ef9789895f2b6447ae2f6fa31c3463b2aeeac"


@pytest.mark.parametrize("name", ["mode_matrix", "replay_same_path", "name_probe"])
def test_traced_and_tapped_bytes_decode_to_the_record_sent(name, wire_trace):
    # the trace checks that every record sent encodes to bytes that decode
    # to it; replay_same_path and name_probe also tap a link, whose
    # adversary captures the record sent
    sim, _ = scenario.build(scenario.load_bundled(name))
    captures = [rt.obj.captures for rt in sim.nodes.values() if rt.role == "adversary"]
    send = sim._send
    captured = []

    def checking_send(rt, iface, message, t):
        before = [len(held) for held in captures]
        send(rt, iface, message, t)
        for held, start in zip(captures, before):
            for capture in held[start:]:
                assert capture is message
                captured.append(capture)

    sim._send = checking_send
    trace = wire_trace(sim)
    sim.run()
    assert trace
    assert captured or name == "mode_matrix"


def two_router_sim():
    """A consumer ``c`` linked to routers ``r1`` (iface 0) and ``r2`` (iface 1,
    tapped by ``adv``); each router records the interests that reach it."""
    sim = simnet.Simulation(seed=3)
    material = crypto.gen_group(128, 1)
    sim.add_consumer("c", material, ConsumerMode.OBFUSCATE_ONLY, SchemeTag.ENC)
    arrived = {}
    for node in ("r1", "r2"):
        router = sim.add_router(node)  # no route: it drops what arrives
        arrived[node] = []
        on_interest = router.on_interest

        def recording(interest, iface, now, on_interest=on_interest, log=arrived[node]):
            log.append(interest)
            return on_interest(interest, iface, now)

        router.on_interest = recording
        sim.add_link("c", node, 10.0)
    sim.add_adversary("adv", material)
    sim.add_tap("c", "r2", "adv")
    return sim, arrived


def test_a_record_sent_on_two_links_arrives_as_itself():
    # sent on the untapped link, then on the tapped one while the first copy
    # is in flight: only the tapped send is captured
    sim, arrived = two_router_sim()
    interest = Interest(ObfuscatedName((b"edu",), b"\x01" * 8, SchemeTag.HASH))
    sim._send(sim.nodes["c"], 0, interest, 0.0)
    assert sim.nodes["adv"].obj.captures == []
    sim._send(sim.nodes["c"], 1, interest, 1.0)
    sim.run()
    [first], [second] = arrived["r1"], arrived["r2"]
    assert first is interest and second is interest
    [capture] = sim.nodes["adv"].obj.captures
    assert capture is interest


@pytest.mark.parametrize("name", ["name_probe", "replay_same_path", "forgery"])
def test_adversary_reads_captured_records_without_decoding(monkeypatch, name):
    # name_probe probes captured names (include_captured); the others replay
    # and forge from captures: all of it reads the records captured, and a
    # tap captures the record sent, so no message is encoded either
    decoded, encoded = count_decodes(monkeypatch), count_encodes(monkeypatch)
    result, _ = run_config(scenario.load_bundled(name))
    assert decoded == [] and encoded == []
    assert result.nodes["adv"].captures
    log = ("\n".join(result.log_lines) + "\n").encode()
    assert hashlib.sha256(log).hexdigest() == BUNDLED_DIGESTS[name]


def tapped_link_captures(tap_first: bool) -> list:
    sim = simnet.Simulation(seed=9)
    material = crypto.gen_group(128, 1)
    consumer = sim.add_consumer("c", material, ConsumerMode.OBFUSCATE_ONLY, SchemeTag.ENC)
    consumer.fib[(b"edu",)] = 0
    sim.add_router("r")  # no route: it drops what arrives, after the tap saw it
    adversary = sim.add_adversary("adv", material)
    if tap_first:
        sim.add_tap("c", "r", "adv")
    sim.add_link("c", "r", 5.0)
    if not tap_first:
        sim.add_tap("r", "c", "adv")
    for i in range(3):
        sim.schedule_fetch("c", Name.from_uri(f"/edu/uci/{i}"), 10.0 * i, prefix=(b"edu",))
    sim.run()
    return adversary.captures


def test_tap_added_before_or_after_its_link_captures_the_same_interests():
    early, late = tapped_link_captures(True), tapped_link_captures(False)
    assert len(early) == 3
    assert early == late
    assert [encode_interest(c) for c in early] == [encode_interest(c) for c in late]
    for capture in early:
        assert decode_message(encode_interest(capture)) == capture


def count_crypto(monkeypatch, fn: str) -> list:
    """Record the arguments of every call to ``crypto.<fn>``."""
    calls = []
    real = getattr(crypto, fn)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(crypto, fn, counting)
    return calls


TWO_FETCHES = [
    {"consumer": "cr1", "name": "/edu/uci/ics/home.html", "at_ms": 0},
    {"consumer": "cr1", "name": "/edu/uci/ics/home.html", "at_ms": 1000},
]


def test_a_public_cache_hit_signs_nothing(monkeypatch):
    # a FULL consumer's payload goes unread on PUBLIC content: the miss
    # is served by the producer and the second fetch by r1's cache
    signs = count_crypto(monkeypatch, "sign_payload")
    public = {"name": "/edu/uci/ics/home.html", "policy": "PUBLIC", "expiry_ms": 60000}
    result, _ = run_config(linear_config(contents=[public], fetches=TWO_FETCHES))
    assert len(result.deliveries) == 2
    assert [l.split("\t")[1] for l in result.log_lines if "\tcs_hit_served\t" in l] == ["r1"]
    assert signs == []


def test_each_verified_interest_signs_once(monkeypatch):
    # the first fetch is verified by the producer and again by r2 and r1 when
    # the content comes back; the second by r1's cache hit
    signs = count_crypto(monkeypatch, "sign_payload")
    verifies = count_crypto(monkeypatch, "verify_payload")
    result, _ = run_config(linear_config(fetches=TWO_FETCHES))
    assert len(result.deliveries) == 2 and len(verifies) == 4
    signed_nonces = [args[3] for args in signs]
    assert sorted(signed_nonces) == sorted({args[4] for args in verifies})


def test_a_payload_check_repeated_along_the_path_is_computed_once(monkeypatch):
    # r2 and r1 re-check the first fetch's payload when the content comes
    # back: each still runs and is charged its check, but the producer's
    # acceptance is remembered, so only two checks exponentiate
    sim, _ = scenario.build(linear_config(fetches=TWO_FETCHES))
    monkeypatch.setattr(crypto, "_ACCEPTED", OrderedDict(), raising=False)  # forget other runs
    verifies = count_crypto(monkeypatch, "verify_payload")
    computed = count_crypto(monkeypatch, "schnorr_verify")
    result = sim.run()
    assert len(result.deliveries) == 2
    assert len(verifies) == 4 and len(computed) == 2


def test_tap_captures_hold_signature_bytes():
    sim, _ = scenario.build(scenario.load_bundled("replay_same_path"))
    sim.run()
    captures = sim.nodes["adv"].obj.captures
    assert captures
    for capture in captures:
        # a payload nobody verified yet is signed by the read that encodes it
        decoded = decode_message(encode_interest(capture)).payload
        assert isinstance(decoded.signature, bytes)
        assert decoded == capture.payload
        assert vars(capture.payload)["signature"] == decoded.signature


def test_end_to_end_data_matches_catalog():
    cfg = linear_config()
    result, info = run_config(cfg)
    producer = info.producers["p1"]
    name = info.content_names["/edu/uci/ics/home.html"]
    assert result.deliveries[0].data == producer.catalog[name.components].data


def test_same_seed_identical_logs():
    a, _ = run_config(linear_config())
    b, _ = run_config(linear_config())
    assert a.log_lines == b.log_lines


def test_different_seed_changes_traffic_timing():
    def traffic_cfg(seed):
        return linear_config(
            seed=seed,
            duration_ms=20_000,
            contents=[{"name": "/edu/uci/pub/x", "policy": "PUBLIC",
                       "expiry_ms": 1_000_000, "data_size": 16}],
            fetches=[],
            traffic={"consumer": "cr1", "lambda_per_s": 20, "delta": 0.0,
                     "start_ms": 0, "end_ms": 10_000},
        )

    a, _ = run_config(traffic_cfg(5))
    b, _ = run_config(traffic_cfg(6))
    assert a.log_lines != b.log_lines


def test_second_fetch_served_from_cache():
    cfg = linear_config(fetches=[
        {"consumer": "cr1", "name": "/edu/uci/ics/home.html", "at_ms": 0},
        {"consumer": "cr1", "name": "/edu/uci/ics/home.html", "at_ms": 1000},
    ])
    result, info = run_config(cfg)
    assert len(result.deliveries) == 2
    # the producer saw exactly one interest despite two fetches
    assert sum(result.producer_interests.values()) == 1
    served = [l for l in result.log_lines if "\tcs_hit_served\t" in l and l.split("\t")[1] == "r1"]
    assert len(served) == 1


def test_poisson_traffic_count_within_3_sigma():
    cfg = linear_config(
        duration_ms=110_000,
        contents=[{"name": "/edu/uci/pub/x", "policy": "PUBLIC", "expiry_ms": 1_000_000,
                   "data_size": 16}],
        fetches=[],
        traffic={"consumer": "cr1", "lambda_per_s": 40, "delta": 0.0,
                 "start_ms": 0, "end_ms": 100_000},
    )
    result, _ = run_config(cfg)
    injected = result.counters["injected"]
    expected = 40 * 100
    sigma = math.sqrt(expected)
    assert abs(injected - expected) <= 3 * sigma


def test_each_traffic_profile_counts_its_own_max_interests():
    # the two profiles used to share one count, so they sent 5 fetches in all
    cfg = linear_config(
        nodes=[
            {"id": "cr1", "role": "consumer", "group": "g1", "mode": "FULL", "scheme": "ENC"},
            {"id": "cr2", "role": "consumer", "group": "g1", "mode": "FULL", "scheme": "ENC"},
            {"id": "r1", "role": "router", "tau_process_s": 0.0005, "tau_verify_s": 0.0005},
            {"id": "p1", "role": "producer", "prefix": "/edu/uci",
             "tau_process_s": 0.0005, "tau_verify_s": 0.0005},
        ],
        links=[["cr1", "r1", 10], ["cr2", "r1", 10], ["r1", "p1", 10]],
        contents=[{"name": "/edu/uci/pub/x", "policy": "PUBLIC", "expiry_ms": 1_000_000,
                   "data_size": 16}],
        fetches=[],
    )
    sim, _ = scenario.build(cfg)
    for consumer in ("cr1", "cr2"):
        sim.set_traffic(simnet.TrafficProfile(
            consumer, lambda_per_s=40.0, delta=0.0, max_interests=5,
            public_targets=["/edu/uci/pub/x"],
        ))
    result = sim.run()
    assert {c: len(_lines(result, c, "int_sent")) for c in ("cr1", "cr2")} == {"cr1": 5, "cr2": 5}


def test_measured_rate_tracks_arrival_rate_below_capacity():
    # stable queue: the router serves every arrival, so the measured
    # completion rate approximates the arrival rate, not the service rate
    cfg = linear_config(
        duration_ms=60_000,
        nodes=[
            {"id": "cr1", "role": "consumer", "group": "g1", "mode": "FULL", "scheme": "ENC"},
            {"id": "r1", "role": "router", "tau_process_s": 0.005, "tau_verify_s": 0.599},
            {"id": "p1", "role": "producer", "prefix": "/edu/uci",
             "tau_process_s": 0.0005, "tau_verify_s": 0.0005},
        ],
        links=[["cr1", "r1", 10], ["r1", "p1", 10]],
        contents=[{"name": "/edu/uci/pub/x", "policy": "PUBLIC",
                   "expiry_ms": 1_000_000, "data_size": 16}],
        fetches=[{"consumer": "cr1", "name": "/edu/uci/pub/x", "at_ms": 0}],
        traffic={"consumer": "cr1", "lambda_per_s": 40, "delta": 0.0,
                 "start_ms": 1000, "end_ms": 51_000},
    )
    result, _ = run_config(cfg)
    from ibac.analysis import measure_service_rate

    windows = measure_service_rate(result.log_lines, window_ms=5000.0, node="r1")
    rates = [rate for _, rate in windows[1:-1]]
    mean_rate = sum(rates) / len(rates)
    assert mean_rate == pytest.approx(40.0, rel=0.15)


def test_conservation_accounting():
    result, _ = run_config(linear_config())
    c = result.conservation
    assert c["balanced"]
    assert c["injected"] == 1 and c["delivered"] == 1


def test_clock_offset_within_skew_tolerated():
    cfg = linear_config()
    for node in cfg.nodes:
        if node.id == "cr1":
            node.clock_offset_ms = 800.0  # below the 1000 ms skew allowance
    result, _ = run_config(cfg)
    assert len(result.deliveries) == 1


def test_clock_offset_beyond_window_rejected():
    cfg = linear_config(
        duration_ms=200_000,
        fetches=[{"consumer": "cr1", "name": "/edu/uci/ics/home.html", "at_ms": 130_000}],
    )
    for node in cfg.nodes:
        if node.id == "cr1":
            node.clock_offset_ms = -120_000.0  # far beyond the 60 s window
    result, _ = run_config(cfg)
    assert len(result.deliveries) == 0
    assert result.drop_total("StaleTimestamp") >= 1


def test_batch_router_in_simulation():
    cfg = linear_config(
        nodes=[
            {"id": "cr1", "role": "consumer", "group": "g1", "mode": "FULL", "scheme": "ENC"},
            {"id": "r1", "role": "router", "verify_mode": "BATCH", "batch_size": 3,
             "batch_timeout_ms": 40, "tau_process_s": 0.0005, "tau_verify_s": 0.0005},
            {"id": "p1", "role": "producer", "prefix": "/edu/uci",
             "tau_process_s": 0.0005, "tau_verify_s": 0.0005},
        ],
        links=[["cr1", "r1", 10], ["r1", "p1", 10]],
        fetches=[
            {"consumer": "cr1", "name": "/edu/uci/ics/home.html", "at_ms": 0},
            # three cache hits land within one batch window
            {"consumer": "cr1", "name": "/edu/uci/ics/home.html", "at_ms": 1000},
            {"consumer": "cr1", "name": "/edu/uci/ics/home.html", "at_ms": 1005},
            {"consumer": "cr1", "name": "/edu/uci/ics/home.html", "at_ms": 1010},
            # a straggler is flushed by the timeout
            {"consumer": "cr1", "name": "/edu/uci/ics/home.html", "at_ms": 2000},
        ],
    )
    result, _ = run_config(cfg)
    assert len(result.deliveries) == 5
    assert sum(result.producer_interests.values()) == 1
    flush_serves = [l for l in result.log_lines
                    if l.split("\t")[1] == "r1" and l.split("\t")[2] == "cs_hit_served"]
    assert len(flush_serves) == 4


def _batch_of_two_at_r1(fetch_times):
    fetch = {"consumer": "cr1", "name": "/edu/uci/ics/home.html"}
    return linear_config(
        nodes=[
            {"id": "cr1", "role": "consumer", "group": "g1", "mode": "FULL", "scheme": "ENC"},
            {"id": "r1", "role": "router", "verify_mode": "BATCH", "batch_size": 2,
             "batch_timeout_ms": 100, "tau_process_s": 0.0005, "tau_verify_s": 0.0005},
            {"id": "p1", "role": "producer", "prefix": "/edu/uci",
             "tau_process_s": 0.0005, "tau_verify_s": 0.0005},
        ],
        links=[["cr1", "r1", 10], ["r1", "p1", 10]],
        fetches=[{**fetch, "at_ms": t} for t in fetch_times],
    )


def test_a_batch_flushed_full_leaves_no_timer_for_the_next_queue(monkeypatch):
    # the first queue fills at 1015 ms and is flushed; its timer, due at
    # 1110 ms, used to flush the next queue 50 ms early, and that queue's
    # own timer then ran a service on an empty queue
    services = []
    router_done = simnet.Simulation._done

    def recording(self, rt, at, events):
        services.append((rt.node_id, at, len(events)))
        router_done(self, rt, at, events)

    monkeypatch.setattr(simnet.Simulation, "_done", recording)
    result, _ = run_config(_batch_of_two_at_r1([0, 1000, 1005, 1050]))
    served = [float(r[0]) for r in _lines(result, "r1", "cs_hit_served")]
    assert served == [1016.0, 1016.0, 1160.5]
    assert len(result.deliveries) == 4
    assert all(count for node, _, count in services if node == "r1")


def test_a_stale_timer_queued_behind_a_service_lets_the_next_one_start():
    # the stale timer fires at 1110 ms while r1 serves the hit that arrived
    # at 1109.6, and the hit arriving at 1110.05 queues behind it; at
    # 1110.1 the timer starts no service and that hit starts at once
    result, _ = run_config(_batch_of_two_at_r1([0, 1000, 1005, 1099.6, 1100.05]))
    served = [float(r[0]) for r in _lines(result, "r1", "cs_hit_served")]
    assert served == [1016.0, 1016.0, 1111.1, 1111.1]
    assert len(result.deliveries) == 5


def test_pit_expiry_drops_silently():
    # producer missing the content: interest dies upstream, pit entry ages out
    cfg = linear_config(
        duration_ms=10_000,
        contents=[
            {"name": "/edu/uci/ics/home.html", "groups": ["g1"], "scheme": "ENC",
             "policy": "FULL", "expiry_ms": 60000, "data_size": 48},
            {"name": "/edu/uci/ics/gone.html", "groups": ["g1"], "scheme": "HASH",
             "policy": "FULL", "expiry_ms": 60000, "data_size": 48},
        ],
    )
    # consumer obfuscates under ENC while the catalog entry is HASH: the
    # producer cannot resolve it, so nothing ever comes back
    cfg.fetches = [scenario.FetchSpec("cr1", "/edu/uci/ics/gone.html", 0.0)]
    result, _ = run_config(cfg)
    assert len(result.deliveries) == 0
    assert result.conservation["pending_at_end"] == 1
    assert not result.nodes["r1"].pit  # swept after its 4 s lifetime


def tie_config():
    """Integral times everywhere: two adversary actions whose shots tie with
    each other (intervals 1 and 2 ms from the same start), with arrivals
    (1 ms links, 1 ms service), with fetches and with the 100 ms expiry
    timer, which evicts short-lived cached copies."""
    return scenario_from_dict({
        "name": "ties",
        "seed": 3,
        "duration_ms": 700,
        "expiry_sweep_ms": 100,
        "nodes": [
            {"id": "c1", "role": "consumer", "group": "g1", "mode": "FULL", "scheme": "ENC"},
            {"id": "r1", "role": "router", "tau_process_s": 0.001, "tau_verify_s": 0.001},
            {"id": "p1", "role": "producer", "prefix": "/edu/uci",
             "tau_process_s": 0.001, "tau_verify_s": 0.001},
            {"id": "adv", "role": "adversary"},
        ],
        "links": [["c1", "r1", 1], ["r1", "p1", 1], ["adv", "r1", 1]],
        "groups": [{"id": "g1", "seed": 42}],
        "contents": [
            {"name": "/edu/uci/a", "groups": ["g1"], "scheme": "ENC", "policy": "FULL",
             "expiry_ms": 200, "data_size": 16},
            {"name": "/edu/uci/b", "scheme": "ENC", "policy": "PUBLIC",
             "expiry_ms": 150, "data_size": 16},
        ],
        "fetches": [{"consumer": "c1", "name": n, "at_ms": t}
                    for t in range(0, 600, 50) for n in ("/edu/uci/a", "/edu/uci/b")],
        "adversary": {
            "node": "adv",
            "taps": [["c1", "r1"]],
            "actions": [
                {"kind": "NAME_PROBE", "at_ms": 100, "target": "r1", "count": 200,
                 "interval_ms": 1, "include_captured": True, "probe_prefix": "/edu/uci"},
                {"kind": "REPLAY_SAME_PATH", "at_ms": 100, "target": "r1", "count": 100,
                 "interval_ms": 2},
            ],
        },
    })


def test_tied_shots_arrivals_and_expiry_keep_their_order():
    # pinned from the simulator that scheduled every shot when its action
    # started; shots chained under fresh sequence numbers reorder the ties.
    # Re-pinned when public names went clear and payload refusals began to
    # send NACKs: the log gained 39 NACKs and their re-forwards
    # (int_reforwarded), and four honest fetches held behind refused replays
    # are now delivered.
    # Re-pinned when the router's replay book began to outlive its cached
    # copies: the adversary's same-path replays of records r1 passed, sent
    # after the 200 ms copy of /edu/uci/a expired, are refused at r1 on the
    # miss path instead of being forwarded to p1.  The log went from 1131
    # to 1076 lines: r1's DuplicateNonce drops went from 16 to 29, p1's
    # StaleTimestamp drops from 37 to 22, the NACKs and their re-forwards
    # (int_reforwarded) from 39 to 25, and c1's deliveries from 20 to 21
    result, _ = run_config(tie_config())
    assert len(result.log_lines) == 1076
    log = ("\n".join(result.log_lines) + "\n").encode()
    assert hashlib.sha256(log).hexdigest() == (
        "395544115ed4d9cda2d061da1801d91e21e4209259a79d45abf67537d22a0961"
    )


def _random_probes(monkeypatch, config):
    """Run ``config`` with a tap on the router-producer link; return the
    action's random probes, as sent, and the adversary's captures."""
    config.adversary.taps.append(["r1", "p1"])
    sim, _ = scenario.build(config)
    sent = []
    send = sim._send

    def recording_send(rt, iface, message, t):
        if rt.role == "adversary":
            sent.append(message)
        send(rt, iface, message, t)

    monkeypatch.setattr(sim, "_send", recording_send)
    sim.run()
    count = config.adversary.actions[0].count
    return sent[:count], sim.nodes["adv"].obj.captures


@pytest.mark.parametrize(
    "prefix, scheme, suffix_len",
    [(None, None, None)] + [
        ("/edu/uci/ics", scheme, suffix_len)
        for scheme in ("HASH", "ENC") for suffix_len in (1, 64)
    ],
    ids=["bundled", "hash-1", "hash-64", "enc-1", "enc-64"],
)
def test_random_probes_are_the_records_the_constructors_build(
    monkeypatch, prefix, scheme, suffix_len
):
    config = scenario.load_bundled("name_probe")
    action = config.adversary.actions[0]
    if prefix is not None:
        action.probe_prefix, action.probe_scheme = prefix, scheme
        action.probe_suffix_len, action.count = suffix_len, 40
    components = Name.from_uri(action.probe_prefix).components
    tag = action.probe_scheme
    probes, captures = _random_probes(monkeypatch, config)
    assert len(probes) == action.count
    expected = {}
    for probe in probes:
        obfuscated = probe.name.obfuscated_suffix
        assert len(obfuscated) == action.probe_suffix_len
        name = ObfuscatedName(components, obfuscated, tag)
        fresh = Interest(name)
        assert probe == fresh and probe.name == name
        assert probe.name._wire == encode_name(name)
        assert encode_interest(probe) == encode_interest(fresh)
        expected[id(probe)] = probe
    tapped = [c for c in captures if id(c) in expected]
    assert tapped  # the router forwarded probes over the tapped link
    for capture in tapped:
        assert decode_message(encode_interest(capture)) == capture


def _probe_flood_sim(probes):
    config = scenario.load_bundled("name_probe")
    config.adversary.actions[0].count = probes
    sim, _ = scenario.build(config)
    return sim


def test_a_probe_flood_leaves_no_container_per_probe():
    # every random probe stays pending at the adversary (its UnknownName sends
    # no NACK) and reaches the producer, so a container per probe would show
    # once per probe in these books
    result = _probe_flood_sim(2000).run()
    pending = result.nodes["adv"].pending
    assert len(pending) >= 2000
    assert all(type(held) is tuple for held in pending.values())
    # the action's shots share one (kind, index); a captured name has its own
    assert len({id(held) for held in pending.values()}) <= 1 + len(
        result.captured_probe_outcomes
    )
    counts = result.nodes["p1"].interest_counts
    assert len(counts) >= 2000 and all(type(key) is bytes for key in counts)
    assert sum(counts.values()) == sum(result.producer_interests.values())


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="bound measured on Python 3.11")
def test_a_probe_flood_run_stays_within_its_measured_heap():
    # measured on CPython 3.11: a traced peak of 2.36 MB for this run, against
    # 2.99 MB when each probe held its own list, tuple, count key and Interest TLV
    _probe_flood_sim(200).run()  # fills the process's first-use caches
    sim = _probe_flood_sim(2000)
    tracemalloc.start()
    try:
        sim.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_700_000


def test_an_action_keeps_one_shot_queued(monkeypatch):
    # bundled name_probe: one action of 1000 random probes plus the captured names
    sim, _ = scenario.build(scenario.load_bundled("name_probe"))
    queued_shots = []
    log_event = sim.log_event

    def observing_log_event(*args, **kwargs):
        # a shot is an entry whose arguments are its action's chain and index
        queued_shots.append(sum(
            type(next(iter(entry[4]), None)) is simnet._ShotChain for entry in sim._queue
        ))
        log_event(*args, **kwargs)

    monkeypatch.setattr(sim, "log_event", observing_log_event)
    result = sim.run()
    assert result.attack_stat("NAME_PROBE").attempts == 1002
    assert max(queued_shots) == 1


def _replay_before_any_capture():
    # bundled replay_same_path, with a replay action whose three shots fire
    # before the tapped consumer sends anything: each logs adv_noop
    config = scenario.load_bundled("replay_same_path")
    for fetch in config.fetches:
        fetch.at_ms += 5
    config.adversary.actions.insert(0, simnet.AdversaryAction(
        kind="REPLAY_SAME_PATH", at_ms=0.0, target="r1", count=3, interval_ms=1.0
    ))
    return config


def _probe_with_captured_names():
    # bundled name_probe, 50 random names and then its two captured names
    config = scenario.load_bundled("name_probe")
    config.adversary.actions[0].count = 50
    return config


# what counting each sent shot as it was sent gives: attempts per action, the
# counters in insertion order, and the conservation books
FOLDED_COUNTS = {
    _replay_before_any_capture: (
        [0, 100],
        [("injected", 105), ("consumer_fetches", 5), ("delivered", 5), ("adv_injected", 100)],
        {"injected": 105, "delivered": 5, "origin_drops": 0, "pending_at_end": 100,
         "balanced": True},
    ),
    _probe_with_captured_names: (
        [52],
        [("injected", 54), ("consumer_fetches", 2), ("delivered", 2), ("adv_injected", 52),
         ("adv_delivered", 1)],
        {"injected": 54, "delivered": 3, "origin_drops": 0, "pending_at_end": 51,
         "balanced": True},
    ),
}


@pytest.mark.parametrize("make", FOLDED_COUNTS, ids=lambda make: make.__name__.strip("_"))
def test_shot_counts_folded_at_the_end_equal_counts_made_per_shot(make):
    attempts, counters, conservation = FOLDED_COUNTS[make]
    result, _ = run_config(make())
    assert [stat.attempts for stat in result.attacks] == attempts
    # summary.json writes the counters in this order
    assert list(result.counters.items()) == counters
    assert result.conservation == conservation
    # an attempt is an int_sent line, and a shot with no capture is not one
    sent = Counter(row[4] for row in _lines(result, "adv", "int_sent"))
    assert [sent[f"{stat.kind}#{stat.index}"] for stat in result.attacks] == attempts
    assert len(_lines(result, "adv", "adv_noop")) == 3 * (make is _replay_before_any_capture)


def test_attack_stats_follow_the_action_index_across_adversaries():
    # a second adversary's action comes between two of the first's; one
    # dated past the horizon never starts and reports no attempt
    config = scenario.load_bundled("name_probe")
    config.adversary.actions[0].count = 20
    sim, _ = scenario.build(config)
    sim.add_adversary("adv2", crypto.gen_group(config.kappa, 77))
    sim.add_link("adv2", "r1", 1.0)
    late = simnet.AdversaryAction(simnet.FORGE_PAYLOAD, at_ms=config.duration_ms + 1, target="r1")
    replay = simnet.AdversaryAction(simnet.REPLAY_SAME_PATH, at_ms=config.duration_ms - 100,
                                    target="r1", count=3)
    assert sim.schedule_action("adv2", late) == 1
    assert sim.schedule_action("adv", replay) == 2
    result = sim.run()
    assert [(a.index, a.kind, a.attempts, a.successes) for a in result.attacks] == [
        (0, simnet.NAME_PROBE, 22, 1),  # the captured OBFUSCATE_ONLY name is served
        (1, simnet.FORGE_PAYLOAD, 0, 0),
        (2, simnet.REPLAY_SAME_PATH, 3, 1),
    ]
    assert result.counters["adv_delivered"] == 2


def test_an_action_at_a_node_its_adversary_has_no_link_to_is_refused_before_any_event():
    # the probe raised at its first shot, 50 ms in, and left the simulation
    # spent; the replay, with no capture to take, ran and logged adv_noop
    sim = simnet.Simulation(seed=1)
    sim.add_router("r1")
    sim.add_router("r2")
    sim.add_adversary("adv", crypto.gen_group(128, 1))
    sim.add_link("adv", "r1", 5.0)
    sim.add_link("r1", "r2", 5.0)
    sim.schedule_action("adv", simnet.AdversaryAction(simnet.REPLAY_SAME_PATH, at_ms=10,
                                                      target="r2"))
    sim.schedule_action("adv", simnet.AdversaryAction(simnet.NAME_PROBE, at_ms=50, target="r2",
                                                      count=3, probe_prefix="/a"))
    queued = list(sim._queue)
    with pytest.raises(simnet.ConfigError, match="^adversary adv has no link to action target r2$"):
        sim.run()
    assert sim.log_lines == [] and sim._queue == queued
    sim.add_link("adv", "r2", 5.0)
    result = sim.run()
    assert [(a.kind, a.attempts) for a in result.attacks] == [
        (simnet.REPLAY_SAME_PATH, 0), (simnet.NAME_PROBE, 3)
    ]
    assert len(_lines(result, "adv", "adv_noop")) == 1


def test_a_node_cannot_link_to_itself():
    # an adversary linked to itself fired three probes that never left it,
    # and the attack table counted them: 3 attempts, 0 successes, 3 pending
    sim = simnet.Simulation(seed=1)
    sim.add_router("r1")
    with pytest.raises(simnet.ConfigError, match=r"^link \(r1, r1\): a node cannot link to itself$"):
        sim.add_link("r1", "r1", 1.0)
    assert sim.nodes["r1"].ifaces == {} and sim.nodes["r1"].iface_to == {}


@pytest.mark.parametrize(
    "prefix_len, suffix_len, reason",
    [
        (70_000, 32, "value for type 0x0011 exceeds 65535 bytes"),
        # the prefix component fits; with the 32-byte suffix the Name TLV does not
        (65_491, 32, "value for type 0x0010 exceeds 65535 bytes"),
        (65_490, 32, None),
        (64_498, 1024, None),
    ],
    ids=["component", "whole-name", "at-limit", "at-limit-longest-suffix"],
)
def test_a_probe_name_the_wire_cannot_carry_is_refused_when_scheduled(
    prefix_len, suffix_len, reason
):
    # a 70,000-byte prefix component passed validation and raised when the
    # action started; a probe's Name TLV is its prefix component's TLV (4 +
    # prefix_len), its suffix's (4 + suffix_len) and the scheme tag's (5)
    prefix = "/" + "p" * prefix_len
    action = simnet.AdversaryAction(simnet.NAME_PROBE, at_ms=1, target="r1",
                                    probe_prefix=prefix, probe_suffix_len=suffix_len)
    sim = simnet.Simulation(seed=1)
    sim.add_router("r1")
    sim.add_adversary("adv", crypto.gen_group(128, 1))
    sim.add_link("adv", "r1", 5.0)
    if reason is None:
        assert action.problems() == []
        sim.schedule_action("adv", action)
        assert sim.run().attacks[0].attempts == 1
        return
    problem = (f"adversary action: probe names under {prefix[:40]}..."
               f" ({len(prefix):,} bytes) cannot be encoded: {reason}")
    assert action.problems() == [problem]
    with pytest.raises(simnet.ConfigError) as err:
        sim.schedule_action("adv", action)
    assert str(err.value) == problem and sim._queue == []


def test_a_consumer_books_its_own_drops_and_the_run_balances():
    # c1 has no route to /b, and the adversary replays c1's own tapped
    # interest back at it, which a consumer never takes
    raw = {
        "name": "consumer_drops",
        "seed": 1,
        "duration_ms": 5000,  # two default verifications, at r1 and p1, take 1.2 s
        "nodes": [
            {"id": "c1", "role": "consumer", "group": "g1"},
            {"id": "c2", "role": "consumer", "group": "g1"},
            {"id": "r1", "role": "router"},
            {"id": "r2", "role": "router"},
            {"id": "p1", "role": "producer", "prefix": "/a"},
            {"id": "p2", "role": "producer", "prefix": "/b"},
            {"id": "adv", "role": "adversary"},
        ],
        "links": [["c1", "r1", 10], ["r1", "p1", 10], ["c2", "r2", 10], ["r2", "p2", 10],
                  ["adv", "c1", 5], ["adv", "r1", 5]],
        "groups": [{"id": "g1", "seed": 9}],
        "contents": [{"name": "/a/x", "groups": ["g1"]}, {"name": "/b/y", "groups": ["g1"]}],
        "fetches": [{"consumer": "c1", "name": "/b/y", "at_ms": 0},
                    {"consumer": "c1", "name": "/a/x", "at_ms": 10}],
        "adversary": {"node": "adv", "taps": [["c1", "r1"]], "actions": [
            {"kind": "REPLAY_CROSS_PATH", "at_ms": 500, "target": "c1", "count": 2}]},
    }
    sim, _ = scenario.build(scenario_from_dict(raw))
    result = sim.run()
    assert result.drops == {("c1", "NoRoute"): 1, ("c1", "Unexpected"): 2}
    assert result.conservation == {"injected": 4, "delivered": 1, "origin_drops": 1,
                                   "pending_at_end": 2, "balanced": True}
    scenario.check_invariants(result, sim)


def test_a_wait_book_is_first_in_first_out_and_makes_a_list_only_for_a_second_entry():
    book = simnet._WaitBook()
    book.put(b"a", ("X", 0))
    book.put(b"b", ("X", 1))
    assert book == {b"a": ("X", 0), b"b": ("X", 1)}  # lone entries, held as themselves
    book.put(b"a", ("Y", 2))
    book.put(b"a", ("X", 0))
    assert book[b"a"] == [("X", 0), ("Y", 2), ("X", 0)]
    assert book.count() == 4
    assert [book.take(b"a") for _ in range(4)] == [("X", 0), ("Y", 2), ("X", 0), None]
    assert book == {b"b": ("X", 1)} and book.count() == 1
    assert book.take(b"b") == ("X", 1) and book.take(b"b") is None
    assert book == {} and book.count() == 0


@pytest.mark.parametrize(
    "field, value",
    [("interval_ms", -5), ("at_ms", -1.0), ("count", -1), ("count", 2.5)],
)
def test_bad_adversary_timing_is_rejected(field, value):
    # a negative interval used to run the log's clock backwards (t = -4005 ms)
    config = scenario.load_bundled("name_probe")
    setattr(config.adversary.actions[0], field, value)
    errors = scenario.validate(config)
    assert [e for e in errors if e.startswith(f"adversary.actions[0]: {field} ")]
    with pytest.raises(simnet.ConfigError, match=field):
        scenario.build(config)


@pytest.mark.parametrize(
    "field, value",
    [("probe_scheme", "BOGUS"), ("probe_suffix_len", 0), ("probe_prefix", None)],
)
def test_bad_probe_fields_are_rejected_before_the_run(field, value):
    # each used to pass build and fail at the first shot, or raise KeyError in build
    config = scenario.load_bundled("name_probe")
    setattr(config.adversary.actions[0], field, value)
    errors = scenario.validate(config)
    assert [e for e in errors if e.startswith("adversary.actions[0]: ") and field in e]
    with pytest.raises(simnet.ConfigError, match=field):
        scenario.build(config)


@pytest.mark.parametrize(
    "change, problem",
    [
        ({"lambda_per_s": 0}, "lambda_per_s must be positive"),
        ({"public_targets": ["/edu/uci/public/z"]}, "'/edu/uci/public/z': no content registered"),
    ],
)
def test_set_traffic_rejects_a_profile_that_cannot_run(change, problem):
    # lambda_per_s 0 used to end the run in a ZeroDivisionError
    config = scenario.load_bundled("service_rate_sweep")
    profile = replace(config.traffic, **change)
    config.traffic = None
    sim, _ = scenario.build(config)
    with pytest.raises(simnet.ConfigError, match=problem):
        sim.set_traffic(profile)
    assert not any(entry[2] == sim._do_traffic for entry in sim._queue)


@pytest.mark.parametrize("value", [0, -1.0, math.nan])
def test_expiry_sweep_must_be_positive(value):
    # the expiry sweep reschedules itself expiry_sweep_ms later: at 0 ``run`` never returns
    config = scenario.load_bundled("figure_sequence")
    config.expiry_sweep_ms = value
    assert "expiry_sweep_ms must be positive" in scenario.validate(config)
    with pytest.raises(simnet.ConfigError, match="expiry_sweep_ms"):
        scenario.build(config)
    with pytest.raises(simnet.ConfigError, match="expiry_sweep_ms"):
        simnet.Simulation(expiry_sweep_ms=value)


CONTENT = Name.from_uri("/edu/x")


def one_node_of_each_role():
    """Consumer ``c``, router ``r``, producer ``p`` and adversary ``a``, with
    one registered content, ``CONTENT``."""
    sim = simnet.Simulation(seed=1)
    material = crypto.gen_group(128, 1)
    sim.add_consumer("c", material, ConsumerMode.FULL, SchemeTag.ENC)
    sim.add_router("r")
    sim.add_producer("p", Producer((b"edu",)))
    sim.add_adversary("a", material)
    sim.register_content_prefix(CONTENT, (b"edu",))
    return sim


# each scheduling entry point, the role of the node it names, and a call
SCHEDULING_CALLS = {
    "add_tap": ("adversary", lambda sim, node: sim.add_tap("c", "r", node)),
    "schedule_fetch": ("consumer", lambda sim, node: sim.schedule_fetch(node, CONTENT, 0.0)),
    "set_traffic": ("consumer", lambda sim, node: sim.set_traffic(
        simnet.TrafficProfile(node, lambda_per_s=10.0, delta=1.0, ibac_targets=["/edu/x"])
    )),
    "schedule_action": ("adversary", lambda sim, node: sim.schedule_action(
        node, simnet.AdversaryAction(simnet.FORGE_PAYLOAD, at_ms=0.0, target="r")
    )),
    "schedule_rekey": ("producer", lambda sim, node: sim.schedule_rekey(0.0, node, CONTENT, [], [])),
}
ROLES = {"c": "consumer", "r": "router", "p": "producer", "a": "adversary"}


@pytest.mark.parametrize(
    "entry, node",
    [
        (entry, node)
        for entry, (role, _) in SCHEDULING_CALLS.items()
        for node in (*ROLES, "zz")
        if ROLES.get(node) != role
    ],
)
def test_a_node_of_the_wrong_role_is_refused_at_call_time(entry, node):
    # each call used to be accepted and the run to end in an AttributeError
    # (a router tapping, fetching or rekeyed, a consumer acting), and an
    # unknown id raised a bare KeyError
    role, call = SCHEDULING_CALLS[entry]
    sim = one_node_of_each_role()
    queued, taps = list(sim._queue), dict(sim._taps)
    problem = f"unknown {role} 'zz'" if node == "zz" else f"has role {ROLES[node]}, not {role}"
    with pytest.raises(simnet.ConfigError, match=problem):
        call(sim, node)
    assert sim._queue == queued and sim._taps == taps and sim._chains == []


@pytest.mark.parametrize(
    "uri, new_groups, problem",
    [
        ("/edu/y", True, "not in the catalog of p"),
        ("/edu/open", True, "public content has no access groups"),
        ("/edu/x", False, "no new group given"),
    ],
    ids=["uncatalogued", "public", "no-new-group"],
)
def test_a_rekey_that_cannot_fire_is_refused_when_scheduled(uri, new_groups, problem):
    # each was queued, and the run ended in a KeyError or ValueError when it fired
    sim = simnet.Simulation(seed=1)
    material = crypto.gen_group(128, 1)
    producer = sim.add_producer("p", Producer((b"edu",)))
    producer.register_group(material)
    producer.publish(CONTENT, b"x", [material.group_id], SchemeTag.HASH, 1000)
    producer.publish(Name.from_uri("/edu/open"), b"x", [], SchemeTag.HASH, 1000, "PUBLIC")
    with pytest.raises(simnet.ConfigError, match=problem):
        sim.schedule_rekey(10.0, "p", Name.from_uri(uri), [material] if new_groups else [], [])
    assert sim._queue == []
    assert sim.run().log_lines == []


def test_a_simulation_runs_once():
    # a fetch scheduled after the run, dated in the past, used to be accepted,
    # and a second run replayed it after the first run's last line: r1 served
    # it from the copy it cached at 52.5 ms and the invariants still held
    sim, _ = scenario.build(scenario.load_bundled("figure_sequence"))
    lines = list(sim.run().log_lines)
    queued = list(sim._queue)
    with pytest.raises(simnet.ConfigError, match="already run"):
        sim.schedule_fetch("cr1", Name.from_uri("/edu/uci/ics/home.html"), 0.5)
    with pytest.raises(simnet.ConfigError, match="already run"):
        sim.run()
    assert sim.log_lines == lines and sim._queue == queued


@pytest.mark.parametrize("entry", sorted(SCHEDULING_CALLS))
def test_no_work_is_scheduled_after_a_run(entry):
    role, call = SCHEDULING_CALLS[entry]
    sim = one_node_of_each_role()
    sim.run()
    queued, taps = list(sim._queue), dict(sim._taps)
    with pytest.raises(simnet.ConfigError, match="already run"):
        call(sim, next(node for node, r in ROLES.items() if r == role))
    assert sim._queue == queued and sim._taps == taps and sim._chains == []
    assert sim.log_lines == []


def test_content_reaching_a_producer_is_dropped_and_the_queue_moves_on():
    # the content arrives just before the consumer's interest, so the
    # interest waits while the producer refuses the content
    sim = simnet.Simulation(seed=1)
    material = crypto.gen_group(128, 1)
    consumer = sim.add_consumer("c", material, ConsumerMode.AUTH_ONLY)
    consumer.fib[(b"edu",)] = 0
    producer = sim.add_producer("p", Producer((b"edu",)), tau_process_s=0.0005)
    name = Name.from_uri("/edu/x")
    producer.publish(name, b"data", [], SchemeTag.ENC, 60_000, ProtectionPolicy.PUBLIC)
    sim.add_link("c", "p", 10.0)
    name_hex = encode_name(name).hex()
    sim._send(sim.nodes["c"], 0, ContentObject(name, b"stray"), 0.0)
    sim.schedule_fetch("c", name, 0.0, prefix=(b"edu",))
    result = sim.run()
    assert [line for line in result.log_lines if "\tp\t" in line] == [
        f"10.500\tp\tcontent_drop\t{name_hex}\tUnsolicited",
        f"11.000\tp\tcontent_served\t{name_hex}\tplain",
    ]
    assert result.drops == {("p", "Unsolicited"): 1}
    assert [(d.time_ms, d.data) for d in result.deliveries] == [(21.0, b"data")]


# ---------------------------------------------------------------------------
# no honest interest lost


def _lines(result, node=None, kind=None):
    """The split log lines, of ``node`` and ``kind`` when given."""
    rows = [line.split("\t") for line in result.log_lines]
    return [r for r in rows if node in (None, r[1]) and kind in (None, r[2])]


def _batch_streams(sim):
    return {node: rt.obj.batch_rng.getstate() for node, rt in sim.nodes.items()
            if rt.role == "router"}


def test_batch_draws_leave_the_simulation_stream_alone():
    # forgeries at r1 fill batches of three, each drawing two exponents from
    # r1's own stream; the simulation's stream ends where INDIVIDUAL leaves it
    def run(config):
        sim, _ = scenario.build(config)
        fresh = _batch_streams(sim)
        result = sim.run()
        moved = {node for node, state in _batch_streams(sim).items() if state != fresh[node]}
        return sim.rng.getstate(), _lines(result, kind="int_sent"), moved

    config = scenario.load_bundled("forgery")
    batched = replace(config, nodes=[
        replace(n, verify_mode="BATCH", batch_size=3) if n.role == "router" else n
        for n in config.nodes
    ])
    state, sent, moved = run(config)
    assert run(batched) == (state, sent, {"r1"})
    assert moved == set()


def test_each_router_draws_from_a_stream_of_its_own_fixed_by_the_seed():
    config = scenario.load_bundled("forgery")
    first, again = (_batch_streams(scenario.build(config)[0]) for _ in range(2))
    assert first == again
    assert first["r1"] != first["r2"]
    assert _batch_streams(scenario.build(replace(config, seed=18))[0])["r1"] != first["r1"]


def test_an_interest_whose_copy_expires_before_the_flush_is_forwarded_and_served():
    # the copy cached at r1 expires at 1020 ms; the second fetch hits it at
    # 960 ms and waits for the flush at 1060 ms, which used to drop it as
    # CacheExpired
    cfg = linear_config(
        nodes=[
            {"id": "cr1", "role": "consumer", "group": "g1", "mode": "FULL", "scheme": "ENC"},
            {"id": "r1", "role": "router", "verify_mode": "BATCH", "batch_size": 3,
             "batch_timeout_ms": 100, "tau_process_s": 0.0005, "tau_verify_s": 0.0005},
            {"id": "p1", "role": "producer", "prefix": "/edu/uci",
             "tau_process_s": 0.0005, "tau_verify_s": 0.0005},
        ],
        links=[["cr1", "r1", 10], ["r1", "p1", 10]],
        contents=[{"name": "/edu/uci/ics/home.html", "groups": ["g1"], "scheme": "ENC",
                   "policy": "FULL", "expiry_ms": 1000, "data_size": 48}],
        fetches=[{"consumer": "cr1", "name": "/edu/uci/ics/home.html", "at_ms": t}
                 for t in (0, 950)],
    )
    result, _ = run_config(cfg)
    assert [d.time_ms for d in result.deliveries] == [42.5, 1092.0]
    assert [r[0] for r in _lines(result, "r1", "batch_enqueued")] == ["960.500"]
    assert [r[2] for r in _lines(result, "r1") if r[0] == "1060.000"] == [
        "cache_evicted", "int_forwarded"
    ]
    assert result.drop_total() == 0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 5: content that arrives expired "
                   "gets a 1 ms window, which refuses the record the edge forwarded")
def test_a_copy_that_reaches_the_edge_after_its_expiry_still_serves_the_consumer():
    # cr2 warms the core's cache; cr1's interest misses at the edge, the core
    # answers from its copy (expiring at 1021 ms), and the copy reaches the
    # edge over the 30 ms link after it expired
    cfg = linear_config(
        nodes=[
            {"id": "cr1", "role": "consumer", "group": "g1", "mode": "FULL", "scheme": "ENC"},
            {"id": "cr2", "role": "consumer", "group": "g1", "mode": "FULL", "scheme": "ENC"},
            {"id": "edge", "role": "router", "tau_process_s": 0.0005, "tau_verify_s": 0.0005},
            {"id": "core", "role": "router", "tau_process_s": 0.0005, "tau_verify_s": 0.0005},
            {"id": "p1", "role": "producer", "prefix": "/edu/uci",
             "tau_process_s": 0.0005, "tau_verify_s": 0.0005},
        ],
        links=[["cr1", "edge", 10], ["edge", "core", 30], ["cr2", "core", 10],
               ["core", "p1", 10]],
        contents=[{"name": "/edu/uci/ics/home.html", "groups": ["g1"], "scheme": "ENC",
                   "policy": "FULL", "expiry_ms": 1000, "data_size": 48}],
        fetches=[{"consumer": consumer, "name": "/edu/uci/ics/home.html", "at_ms": t}
                 for consumer, t in (("cr2", 0), ("cr1", 970))],
    )
    result, _ = run_config(cfg)
    assert [r[0] for r in _lines(result, "core", "cs_hit_served")] == ["1011.500"]
    assert [r[0] for r in _lines(result, "edge", "int_forwarded")] == ["980.500"]
    assert [r[4] for r in _lines(result, "edge", "pending_drop")] == []
    assert [d.consumer for d in result.deliveries] == ["cr2", "cr1"]


@pytest.mark.parametrize("mode", ["FULL", "OBFUSCATE_ONLY", "AUTH_ONLY"])
@pytest.mark.parametrize("scheme", ["HASH", "ENC"])
def test_a_consumer_asks_for_public_content_in_clear_and_is_served(mode, scheme):
    # a FULL or OBFUSCATE_ONLY HASH consumer used to obfuscate the public
    # name, which its producer cannot resolve: UnknownName
    cfg = linear_config(
        contents=[{"name": "/edu/uci/pub/news", "policy": "PUBLIC", "expiry_ms": 60000,
                   "data_size": 48}],
        fetches=[{"consumer": "cr1", "name": "/edu/uci/pub/news", "at_ms": 0}],
    )
    cfg.nodes[0].mode, cfg.nodes[0].scheme = mode, scheme
    sim, info = scenario.build(cfg)
    sent = []
    send = sim._send
    sim._send = lambda rt, iface, message, t: (sent.append(message), send(rt, iface, message, t))
    result = sim.run()
    assert len(result.deliveries) == 1 and result.drop_total() == 0
    name = info.content_names["/edu/uci/pub/news"]
    assert sent[0] == Interest(name)  # the clear name, with no payload
    assert _lines(result, "cr1", "int_sent")[0][3] == encode_name(name).hex()


def nack_config():
    """cr1 - r1 - r2 - p1, with cr2 on the core router r2 and an adversary on
    the edge router r1 that taps cr1's link.  cr1 fetches at 0 ms; at
    1000 ms, after every copy expired, the adversary forges a payload for
    that name, and cr1 and cr2 ask for it again just behind the forgery."""
    return linear_config(
        nodes=[
            {"id": "cr1", "role": "consumer", "group": "g1", "mode": "FULL", "scheme": "ENC"},
            {"id": "cr2", "role": "consumer", "group": "g1", "mode": "FULL", "scheme": "ENC"},
            {"id": "r1", "role": "router", "tau_process_s": 0.0005, "tau_verify_s": 0.0005},
            {"id": "r2", "role": "router", "tau_process_s": 0.0005, "tau_verify_s": 0.0005},
            {"id": "p1", "role": "producer", "prefix": "/edu/uci",
             "tau_process_s": 0.0005, "tau_verify_s": 0.0005},
            {"id": "adv", "role": "adversary"},
        ],
        links=[["cr1", "r1", 5], ["adv", "r1", 5], ["r1", "r2", 10], ["cr2", "r2", 5],
               ["r2", "p1", 10]],
        contents=[{"name": "/edu/uci/ics/home.html", "groups": ["g1"], "scheme": "ENC",
                   "policy": "FULL", "expiry_ms": 200, "data_size": 48}],
        fetches=[{"consumer": c, "name": "/edu/uci/ics/home.html", "at_ms": t}
                 for c, t in (("cr1", 0), ("cr1", 1002), ("cr2", 1012))],
        adversary={"node": "adv", "taps": [["cr1", "r1"]], "actions": [
            {"kind": "FORGE_PAYLOAD", "at_ms": 1000, "target": "r1"}]},
    )


def test_honest_followers_of_a_forged_record_are_served_after_its_nack():
    # the forged record holds the PIT at r1 and r2, with cr1's fetch waiting
    # behind it at r1 and cr2's at r2; the producer's refusal used to leave
    # both waiting until the entries expired
    result, info = run_config(nack_config())
    wire_hex = scenario.content_wire_name(info, "/edu/uci/ics/home.html").hex()
    # cr1 waits at r1 and cr2 at r2; r2 later also aggregates r1's re-forward
    assert [r[0] for r in _lines(result, "r1", "int_aggregated")] == ["1007.500"]
    assert [r[0] for r in _lines(result, "r2", "int_aggregated")] == ["1017.500", "1058.500"]
    nacks = [(r[1], r[2], r[4]) for r in _lines(result) if "nack" in r[2]]
    assert nacks == [
        ("p1", "nack_sent", "BadSignature"),
        ("r2", "int_nacked", "BadSignature"),
        ("r2", "nack_sent", "BadSignature"),  # on to r1, where the record came from
        ("r1", "int_nacked", "BadSignature"),  # from the adversary: no further NACK
    ]
    late = sorted((d.consumer, d.time_ms > 1000) for d in result.deliveries)
    assert late == [("cr1", False), ("cr1", True), ("cr2", True)]
    assert result.attack_stat(simnet.FORGE_PAYLOAD).successes == 0
    assert {r[3] for r in _lines(result, kind="nack_sent")} == {wire_hex}
    # each router forwarded at 0 ms and the forgery, then the next record
    for router in ("r1", "r2"):
        assert len(_lines(result, router, "int_forwarded")) == 2
        assert len(_lines(result, router, "int_reforwarded")) == 1
    assert not result.nodes["r1"].pit and not result.nodes["r2"].pit


def test_a_nacked_name_gives_one_completion_per_interest_at_each_router():
    # the re-forward after a NACK sends a record whose arrival already
    # completed as int_aggregated; logged as one more int_forwarded, it made
    # service-rate measurement count that interest twice
    sim, _ = scenario.build(nack_config())
    arrivals = Counter()
    send = sim._send

    def counting_send(rt, iface, message, t):
        if isinstance(message, Interest):
            arrivals[rt.ifaces[iface][0].node_id] += 1
        send(rt, iface, message, t)

    sim._send = counting_send
    result = sim.run()
    completions = Counter(
        r[1] for r in _lines(result) if r[2] in simnet.INTEREST_COMPLETION_KINDS
    )
    assert len(_lines(result, kind="int_reforwarded")) == 2
    assert {n: arrivals[n] for n in ("r1", "r2")} == {"r1": 3, "r2": 4}
    assert {n: completions[n] for n in ("r1", "r2")} == {"r1": 3, "r2": 4}


def test_a_refusal_of_an_interest_from_a_consumer_or_adversary_sends_no_nack():
    # the forgery reaches r1 while cr1's copy is cached there: r1 refuses it
    # itself, and only routers keep a PIT that a NACK acts on
    cfg = nack_config()
    cfg.contents[0].expiry_ms = 60_000
    result, _ = run_config(cfg)
    assert [(r[1], r[4]) for r in _lines(result, kind="int_drop")] == [("r1", "BadSignature")]
    assert not _lines(result, kind="nack_sent")


def test_random_name_probes_refused_as_unknown_names_send_no_nack():
    config = scenario.load_bundled("name_probe")
    probes = config.adversary.actions[0].count
    result, _ = run_config(config)
    assert result.drop_total("UnknownName") == probes
    nacked = {r[3] for r in _lines(result, kind="nack_sent")}
    unknown = {r[3] for r in _lines(result, kind="int_drop") if r[4] == "UnknownName"}
    assert len(unknown) == probes and not nacked & unknown
    assert {r[4] for r in _lines(result, kind="nack_sent")} <= {"MissingPayload"}


def test_a_nack_costs_the_receiving_router_its_process_time():
    result, _ = run_config(nack_config())
    sent = {r[1]: float(r[0]) for r in _lines(result, kind="nack_sent")}
    taken = {r[1]: float(r[0]) for r in _lines(result, kind="int_nacked")}
    # 10 ms on the link, then tau_process 0.5 ms with no verification
    assert taken == {"r2": sent["p1"] + 10.5, "r1": sent["r2"] + 10.5}


@pytest.mark.parametrize("prefix", [(b"org",), (b"edu", b"x"), (b"edu", b"x", b"y")])
def test_a_prefix_that_does_not_lead_the_name_is_refused_at_call_time(prefix):
    # schedule_fetch("c", /edu/x, 0.0, prefix=(b"org",)) used to be accepted
    # and the run to raise wire.PrefixMismatch (EmptySuffix for the whole name)
    sim = one_node_of_each_role()
    queued = list(sim._queue)
    with pytest.raises(simnet.ConfigError, match="not a strict leading part of /edu/x"):
        sim.schedule_fetch("c", CONTENT, 0.0, prefix=prefix)
    with pytest.raises(simnet.ConfigError, match="not a strict leading part of /edu/x"):
        sim.register_content_prefix(CONTENT, prefix)
    assert sim._queue == queued
    assert sim.content_prefixes == {CONTENT.components: (b"edu",)}


@pytest.mark.parametrize(
    "delta, targets, problem",
    [
        (0.5, {"ibac_targets": ["/edu/x"]}, "delta 0.5 offers public fetches"),
        (0.0, {"ibac_targets": ["/edu/x"]}, "delta 0.0 offers public fetches"),
        (0.2, {"public_targets": ["/edu/x"]}, "delta 0.2 offers IBAC fetches"),
    ],
)
def test_set_traffic_refuses_a_delta_that_weighs_a_class_with_no_target(delta, targets, problem):
    # it used to draw each arrival's class and send nothing for the empty one
    sim = one_node_of_each_role()
    queued = list(sim._queue)
    with pytest.raises(simnet.ConfigError, match=f"traffic: {problem}, but there is no"):
        sim.set_traffic(simnet.TrafficProfile("c", lambda_per_s=10.0, delta=delta, **targets))
    assert sim._queue == queued


# -- the collector pause ---------------------------------------------------------


@pytest.mark.parametrize("collecting", [True, False])
def test_a_run_pauses_the_collector_and_restores_the_callers_setting(collecting, monkeypatch):
    sim, _ = scenario.build(linear_config())
    during = []
    log_event = sim.log_event

    def observing_log_event(*args, **kwargs):
        during.append(gc.isenabled())
        log_event(*args, **kwargs)

    monkeypatch.setattr(sim, "log_event", observing_log_event)
    (gc.enable if collecting else gc.disable)()
    try:
        sim.run()
        after = gc.isenabled()
    finally:
        gc.enable()
    assert during and not any(during)
    assert after is collecting


@pytest.mark.parametrize("collecting", [True, False])
def test_a_run_whose_handler_raises_restores_the_callers_setting(collecting, monkeypatch):
    sim, _ = scenario.build(linear_config())

    def failing_log_event(*args, **kwargs):
        raise RuntimeError("handler failed")

    monkeypatch.setattr(sim, "log_event", failing_log_event)
    (gc.enable if collecting else gc.disable)()
    try:
        with pytest.raises(RuntimeError, match="handler failed"):
            sim.run()
        after = gc.isenabled()
    finally:
        gc.enable()
    assert after is collecting


@pytest.mark.parametrize("name", sorted(BUNDLED_DIGESTS))
def test_a_bundled_run_makes_no_reference_cycles(name):
    # what makes pausing the collector for a run safe: it would find nothing
    sim, _ = scenario.build(scenario.load_bundled(name))
    gc.collect()
    result = sim.run()
    assert gc.collect() == 0
    assert result.log_lines
