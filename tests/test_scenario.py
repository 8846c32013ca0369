import copy
import dataclasses
import hashlib
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from ibac import analysis, cli, consumer, crypto, kinds, scenario, simnet
from ibac import producer as producer_module
from ibac.authcheck import DEFAULT_SKEW_MS
from ibac.router import BATCH_TIMEOUT_MS, PIT_LIFETIME_MS, Router
from ibac.scenario import (
    BUNDLED_SCENARIOS,
    InvariantViolation,
    ParseError,
    ScenarioConfig,
    ValidationError,
    bundled_scenario_path,
    load_bundled,
    run_config,
    scenario_from_dict,
)
from ibac.wire import Name, ObfuscatedName, decode_message, encode_name

TESTDATA = Path(__file__).resolve().parent.parent / "testdata"


def minimal_raw(**overrides):
    raw = {
        "name": "mini",
        "seed": 1,
        "duration_ms": 2000,
        "nodes": [
            {"id": "cr1", "role": "consumer", "group": "g1", "mode": "FULL", "scheme": "ENC"},
            {"id": "r1", "role": "router", "tau_process_s": 0.0005, "tau_verify_s": 0.0005},
            {"id": "p1", "role": "producer", "prefix": "/edu/uci",
             "tau_process_s": 0.0005, "tau_verify_s": 0.0005},
        ],
        "links": [["cr1", "r1", 10], ["r1", "p1", 10]],
        "groups": [{"id": "g1", "seed": 9}],
        "contents": [
            {"name": "/edu/uci/x", "groups": ["g1"], "scheme": "ENC", "policy": "FULL",
             "expiry_ms": 60000, "data_size": 8},
        ],
        "fetches": [{"consumer": "cr1", "name": "/edu/uci/x", "at_ms": 0}],
    }
    raw.update(overrides)
    return raw


# ---------------------------------------------------------------------------
# loading and validation


def test_all_bundled_scenarios_load():
    for name in BUNDLED_SCENARIOS:
        config = load_bundled(name)
        assert config.name == name


def test_unknown_bundled_name():
    with pytest.raises(ParseError):
        load_bundled("does_not_exist")


def _without_libyaml(monkeypatch):
    # a PyYAML built without libyaml defines no CSafeLoader
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_c_and_python_loaders_parse_bundled_scenarios_alike(name):
    data = bundled_scenario_path(name).read_bytes()
    assert yaml.load(data, Loader=yaml.CSafeLoader) == yaml.load(data, Loader=yaml.SafeLoader)


def test_bundled_scenarios_load_alike_without_libyaml(monkeypatch):
    default = [load_bundled(name) for name in BUNDLED_SCENARIOS]
    _without_libyaml(monkeypatch)
    assert [load_bundled(name) for name in BUNDLED_SCENARIOS] == default


@pytest.mark.parametrize("libyaml", [True, False], ids=["c", "python"])
def test_malformed_yaml_names_the_file(tmp_path, monkeypatch, libyaml):
    if libyaml and not yaml.__with_libyaml__:
        pytest.skip("PyYAML built without libyaml")
    if not libyaml:
        _without_libyaml(monkeypatch)
    path = tmp_path / "bad.yaml"
    path.write_text("name: bad\nnodes: [\n")
    with pytest.raises(ParseError) as info:
        scenario.load_scenario(path)
    message = str(info.value)
    assert message.startswith(f"{path}:3:1: ")
    assert "\n" not in message


def test_scenario_file_is_decoded_as_yaml_not_by_locale(tmp_path):
    # an ASCII locale once made the file fail to decode, with a traceback
    path = tmp_path / "fr.yaml"
    path.write_bytes(bundled_scenario_path("figure_sequence").read_bytes() + "# réseau\n".encode())
    src = Path(scenario.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONUTF8": "0", "LC_ALL": "C",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-m", "ibac.cli", "validate", str(path)],
                            env=env, capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, "figure_sequence: OK\n", "")


def test_undefined_consumer_group_rejected():
    raw = minimal_raw()
    raw["nodes"][0]["group"] = "ghost"
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(raw)
    assert any("undefined group" in e for e in err.value.errors)


def test_delta_out_of_range_rejected():
    raw = minimal_raw(traffic={"consumer": "cr1", "lambda_per_s": 10, "delta": 1.5})
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(raw)
    assert any("delta" in e for e in err.value.errors)


def test_multiple_errors_reported_together():
    raw = minimal_raw(traffic={"consumer": "nobody", "lambda_per_s": -1, "delta": 2.0})
    raw["links"].append(["r1", "ghost", 5])
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(raw)
    assert len(err.value.errors) >= 3


def test_content_must_extend_producer_prefix():
    raw = minimal_raw()
    raw["contents"][0]["name"] = "/com/other/x"
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(raw)
    assert any("producer prefix" in e for e in err.value.errors)


def test_disconnected_consumer_rejected():
    raw = minimal_raw(links=[["r1", "p1", 10]])
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(raw)
    assert any("no path" in e for e in err.value.errors)


def adversary_path_raw(links):
    """``minimal_raw`` with a second router ``r2`` and an adversary ``adv``
    that holds a link to the producer, on ``links``."""
    raw = minimal_raw(links=links, adversary={"node": "adv"})
    raw["nodes"] += [
        {"id": "r2", "role": "router", "tau_process_s": 0.0005, "tau_verify_s": 0.0005},
        {"id": "adv", "role": "adversary"},
    ]
    return raw


def test_routes_cross_routers_only():
    # two equal-length paths from r1: through r2, and through adv, whose id
    # sorts first; only a router forwards, so the route goes through r2
    raw = adversary_path_raw([["cr1", "r1", 10], ["r1", "r2", 10], ["r2", "p1", 10],
                              ["r1", "adv", 10], ["adv", "p1", 10]])
    result, _ = run_config(scenario_from_dict(raw))
    assert [line.split("\t")[1:3] for line in result.log_lines] == [
        ["cr1", "int_sent"],
        ["r1", "int_forwarded"],
        ["r2", "int_forwarded"],
        ["p1", "content_served"],
        ["r2", "content_cached"],
        ["r2", "content_sent"],
        ["r1", "content_cached"],
        ["r1", "content_sent"],
        ["cr1", "content_delivered"],
    ]
    assert len(result.deliveries) == 1 and result.drops == {}


def two_producer_encrypted_raw():
    """``minimal_raw`` with encrypted group ids and a second producer ``p2``
    at ``/edu/mit`` behind ``r1``, whose content ``cr1`` also fetches."""
    raw = minimal_raw(encrypted_group_ids=True)
    raw["nodes"].append({"id": "p2", "role": "producer", "prefix": "/edu/mit",
                         "tau_process_s": 0.0005, "tau_verify_s": 0.0005})
    raw["links"].append(["r1", "p2", 10])
    raw["contents"].append({"name": "/edu/mit/y", "groups": ["g1"], "scheme": "ENC",
                            "policy": "FULL", "expiry_ms": 60000, "data_size": 8})
    raw["fetches"].append({"consumer": "cr1", "name": "/edu/mit/y", "at_ms": 0})
    return raw


def test_encrypted_group_ids_go_under_the_key_of_the_producer_that_owns_the_prefix():
    sim, info = scenario.build(scenario_from_dict(two_producer_encrypted_raw()))
    keys = {p.prefix: p.keypair.public for p in info.producers.values()}
    assert sim.nodes["cr1"].obj.ctx.producer_public == keys and len(keys) == 2
    result = sim.run()
    scenario.check_invariants(result, sim)
    assert sorted(d.name.to_uri() for d in result.deliveries) == ["/edu/mit/y", "/edu/uci/x"]
    assert result.drops == {}


def test_a_consumer_with_no_producer_key_for_a_prefix_is_refused_at_build():
    # the consumer encrypts group ids but holds only /edu/uci's key
    sim = simnet.Simulation(seed=1)
    material = crypto.gen_group(128, 1)
    uci, mit = (b"edu", b"uci"), (b"edu", b"mit")
    public = crypto.gen_producer_keypair(5).public
    sim.add_consumer("c", material, "FULL", "ENC", producer_public={uci: public})
    sim.register_content_prefix(Name.from_uri("/edu/uci/x"), uci)
    sim.register_content_prefix(Name.from_uri("/edu/mit/y"), mit)
    sim.schedule_fetch("c", Name.from_uri("/edu/uci/x"), 0.0)
    refusal = "consumer c: no producer key for the prefix (b'edu', b'mit')"
    with pytest.raises(simnet.ConfigError, match=re.escape(refusal)):
        sim.schedule_fetch("c", Name.from_uri("/edu/mit/y"), 0.0)
    with pytest.raises(simnet.ConfigError, match=re.escape(refusal)):
        sim.set_traffic(simnet.TrafficProfile(
            "c", lambda_per_s=10.0, delta=1.0, ibac_targets=["/edu/uci/x", "/edu/mit/y"]
        ))


def test_a_consumer_with_no_producer_key_for_a_prefix_refuses_to_build_an_interest():
    # sending the group id in clear instead would link the member
    ctx = consumer.ConsumerContext(
        crypto.gen_group(128, 1), "FULL", "ENC", clock=lambda: 0.0, rng=random.Random(1),
        producer_public={(b"edu", b"uci"): crypto.gen_producer_keypair(5).public},
    )
    consumer.interest_generation(ctx, (b"edu", b"uci"), Name.from_uri("/edu/uci/x"))
    with pytest.raises(ValueError, match="no producer key"):
        consumer.interest_generation(ctx, (b"edu", b"mit"), Name.from_uri("/edu/mit/y"))


def test_a_consumer_that_reaches_a_producer_only_through_the_adversary_is_refused():
    raw = adversary_path_raw([["cr1", "r1", 10], ["r1", "adv", 10], ["adv", "p1", 10]])
    raw["nodes"] = [n for n in raw["nodes"] if n["id"] != "r2"]
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(raw)
    assert err.value.errors == ["consumer cr1: no path to any producer"]


@pytest.mark.parametrize(
    "file, reason",
    [
        ("root_prefix", "producer p0: prefix '/' names no component"),
        ("same_group_seed", "groups g1 and g2: the same seed 9 makes one group"),
    ],
)
def test_a_scenario_whose_run_ended_in_a_traceback_is_refused(capsys, file, reason):
    # each passed validation, and ``ibac run`` ended in a ValueError from
    # ObfuscatedName (p0's empty prefix was taken as the owner of /edu/x) or
    # in DuplicateGroup (a group's id is made from its seed alone)
    assert cli.main(["validate", str(TESTDATA / f"{file}.yaml")]) == 1
    assert reason in capsys.readouterr().err.splitlines()


def test_an_adversary_seeded_with_a_groups_seed_is_refused(capsys):
    # a group's keys are made from its seed alone: with g1's seed the adversary
    # held g1's signing key, and each of forgery's 1000 forged payloads verified
    assert cli.main(["validate", str(TESTDATA / "insider_keypair_seed.yaml")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "adversary: keypair_seed 401 is group g1's seed, so it holds that group's keys"
    ]
    config = load_bundled("forgery")
    assert scenario.validate(config) == []
    config.adversary.keypair_seed = 401
    config.groups[0].id = 7  # the rule reads only groups whose fields are of their kind
    errors = scenario.validate(config)
    assert "group 7: id must be a string" in errors
    assert not [e for e in errors if "keypair_seed" in e]


# under /edu/uci a clear name's TLV value is 14 bytes of prefix TLVs and 4
# + n for an n-byte last component, and an ENC-obfuscated name's is 14, 4 +
# 16 + 2 + n for its suffix, and 5 for its scheme tag
@pytest.mark.parametrize(
    "prefix, policy, mode, last, reason",
    [
        ("/edu/uci", "AUTH_ONLY", "AUTH_ONLY", ["x" * 70_000],
         "its name cannot be encoded: value for type 0x0011 exceeds 65535 bytes"),
        ("/" + "a" * 30_000, "AUTH_ONLY", "AUTH_ONLY", ["b" * 30_000, "c" * 30_000],
         "its name cannot be encoded: value for type 0x0010 exceeds 65535 bytes"),
        ("/edu/uci", "AUTH_ONLY", "AUTH_ONLY", ["q" * 65_518],
         "its name cannot be encoded: value for type 0x0010 exceeds 65535 bytes"),
        ("/edu/uci", "AUTH_ONLY", "AUTH_ONLY", ["q" * 65_517], None),
        ("/edu/uci", "FULL", "FULL", ["q" * 65_495],
         "its obfuscated name cannot be encoded: value for type 0x0010 exceeds 65535 bytes"),
        ("/edu/uci", "FULL", "FULL", ["q" * 65_494], None),
        # the suffix TLV alone: 16 + 2 + 65,518 bytes
        ("/a", "FULL", "FULL", ["q" * 65_518],
         "its obfuscated name cannot be encoded: value for type 0x0012 exceeds 65535 bytes"),
        # a FULL consumer obfuscates an AUTH_ONLY content's name too
        ("/edu/uci", "AUTH_ONLY", "FULL", ["q" * 65_517],
         "its obfuscated name cannot be encoded: value for type 0x0010 exceeds 65535 bytes"),
    ],
    ids=["component", "whole-name", "clear-by-one", "clear-at-limit", "obfuscated-by-one",
         "obfuscated-at-limit", "obfuscated-suffix", "auth-only-content-full-consumer"],
)
def test_a_content_name_the_wire_cannot_carry_is_refused(prefix, policy, mode, last, reason):
    # each that is refused passed validation, and ``ibac run`` ended in
    # EncodeError at the fetch
    name = "/".join([prefix, *last])
    raw = minimal_raw()
    raw["nodes"][0]["mode"] = mode
    raw["nodes"][2]["prefix"] = prefix
    raw["contents"] = [{"name": name, "groups": ["g1"], "policy": policy}]
    raw["fetches"] = [{"consumer": "cr1", "name": name, "at_ms": 0}]
    if reason is None:
        result, _ = run_config(scenario_from_dict(raw))
        assert [d.name.to_uri() for d in result.deliveries] == [name]
        return
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(raw)
    assert err.value.errors == [f"content {name[:40]}... ({len(name):,} bytes): {reason}"]


@pytest.mark.parametrize(
    "file, reason",
    [
        ("oversized_name", f"content /edu/uci/{'x' * 31}... (65,545 bytes): its name cannot be"
                           " encoded: value for type 0x0011 exceeds 65535 bytes"),
        ("self_link", "link (adv, adv): a node cannot link to itself"),
    ],
    ids=["oversized_name", "self_link"],
)
def test_a_file_that_validated_and_could_not_run_as_written_is_refused(capsys, file, reason):
    assert cli.main(["validate", str(TESTDATA / f"{file}.yaml")]) == 1
    assert capsys.readouterr().err.splitlines() == [reason]


def test_validate_reports_in_file_order_whatever_the_hash_seed(tmp_path):
    # six unlinked consumers stamping before 0, and a content two producer
    # prefixes claim: each rule lists its nodes as the file does
    raw = minimal_raw()
    consumers = [f"c{i}" for i in range(6)]
    raw["nodes"] += [
        {"id": c, "role": "consumer", "group": "g1", "clock_offset_ms": -5} for c in consumers
    ]
    raw["nodes"] += [{"id": p, "role": "producer", "prefix": "/edu"} for p in ("p3", "p2")]
    raw["fetches"] += [{"consumer": c, "name": "/edu/uci/x", "at_ms": 0} for c in consumers]
    path = tmp_path / "orders.json"
    path.write_text(json.dumps(raw))
    src = Path(scenario.__file__).resolve().parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = (
        "import json, sys; from ibac import scenario\n"
        "try: scenario.load_scenario(sys.argv[1])\n"
        "except scenario.ValidationError as exc: print(json.dumps(exc.errors))"
    )

    def errors(seed):
        result = subprocess.run([sys.executable, "-c", code, str(path)],
                                env={**env, "PYTHONHASHSEED": seed},
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout)

    found = errors("1")
    assert found == errors("3")
    assert [e for e in found if "no path" in e or "before 0" in e] == [
        *(f"consumer {c}: clock_offset_ms -5 stamps a time before 0" for c in consumers),
        *(f"consumer {c}: no path to any producer" for c in consumers),
    ]
    assert "content /edu/uci/x: must extend exactly one producer prefix " \
        "(matched ['p1', 'p3', 'p2'])" in found


def test_unknown_keys_rejected(tmp_path, capsys):
    node_field = minimal_raw()
    node_field["nodes"][0]["colour"] = "blue"
    # links carry records only, so there is no wire to record
    record_wire = minimal_raw(record_wire=True)
    # a producer's replay window is each content's lifetime, so no window is set
    window = minimal_raw()
    window["nodes"][2]["window_ms"] = 1000
    for raw, message in [
        (node_field, "nodes[0]: unknown keys ['colour']"),
        (record_wire, "top level: unknown keys ['record_wire']"),
        (window, "nodes[2]: unknown keys ['window_ms']"),
    ]:
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(raw)
        assert message in err.value.errors
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert cli.main(["validate", str(path)]) == 1
        assert message in capsys.readouterr().err.splitlines()


def test_adversary_must_be_adjacent_to_target():
    raw = minimal_raw()
    raw["nodes"].append({"id": "adv", "role": "adversary"})
    raw["links"].append(["adv", "r1", 5])
    raw["adversary"] = {
        "node": "adv",
        "actions": [{"kind": "REPLAY_SAME_PATH", "at_ms": 100, "target": "p1"}],
    }
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(raw)
    assert any("no direct link" in e for e in err.value.errors)


def name_probe_raw(**action):
    raw = minimal_raw()
    raw["nodes"].append({"id": "adv", "role": "adversary"})
    raw["links"].append(["adv", "r1", 5])
    probe = {"kind": "NAME_PROBE", "at_ms": 100, "target": "r1", "probe_prefix": "/edu/uci"}
    raw["adversary"] = {"node": "adv", "actions": [dict(probe, **action)]}
    return raw


# a name is clear or obfuscated under ENC or HASH, so NONE is no scheme
@pytest.mark.parametrize("scheme", ["BOGUS", "NONE"])
def test_unknown_probe_scheme_rejected(scheme):
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(name_probe_raw(probe_scheme=scheme))
    assert err.value.errors == [f"adversary.actions[0]: unknown probe_scheme {scheme!r}"]


@pytest.mark.parametrize("length", [-1, 0, "8"])
def test_bad_probe_suffix_len_rejected(length):
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(name_probe_raw(probe_suffix_len=length))
    assert any("probe_suffix_len must be a positive integer" in e for e in err.value.errors)


@pytest.mark.parametrize("field", ["tau_process_s", "tau_verify_s", "batch_timeout_ms"])
@pytest.mark.parametrize("value", [-0.5, float("nan")])
def test_negative_service_times_are_reported(field, value):
    # each one finishes a service before it starts and runs the log's clock backwards
    config = load_bundled("figure_sequence")
    router = next(n for n in config.nodes if n.role == "router")
    setattr(router, field, value)
    assert f"router {router.id}: {field} must be a non-negative number" in scenario.validate(
        config
    )


def sweep_raw(**sweep):
    """``minimal_raw()`` with a public content beside its FULL one, so that
    every delta has a target for each class it offers, and a sweep at r1."""
    raw = minimal_raw(
        traffic={"consumer": "cr1", "lambda_per_s": 10, "delta": 0.5},
        sweep=dict({"router": "r1"}, **sweep),
    )
    raw["contents"].append(
        {"name": "/edu/uci/pub", "policy": "PUBLIC", "expiry_ms": 60000, "data_size": 8}
    )
    return raw


def _link_latency(value):
    raw = minimal_raw()
    raw["links"][1][2] = value
    return raw


def _content_expiry(value):
    raw = minimal_raw()
    raw["contents"][0]["expiry_ms"] = value
    return raw


@pytest.mark.parametrize(
    "raw, message",
    [
        (_link_latency("fast"), "links[1]: latency_ms must be a number"),
        (_link_latency(float("nan")), "link (r1, p1): latency must be positive"),
        (_content_expiry("soon"), "content /edu/uci/x: expiry_ms must be a positive number"),
        (sweep_raw(deltas=["x"]), "sweep delta 'x' outside [0, 1]"),
        (sweep_raw(deltas=0.5), "sweep: deltas must be a list"),
        (sweep_raw(interests_per_point="many"),
         "sweep: interests_per_point must be a positive integer"),
        (sweep_raw(tail_ms="long"), "sweep: tail_ms must be a non-negative number"),
        (sweep_raw(saturation_factor="2x"),
         "sweep: saturation_factor must be a positive number"),
    ],
    ids=["latency", "latency-nan", "expiry_ms", "deltas-item", "deltas", "interests_per_point",
         "tail_ms", "saturation_factor"],
)
def test_cli_validate_reports_non_numeric_fields(tmp_path, capsys, raw, message):
    # each of these once crashed loading with a traceback, or passed validation
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert cli.main(["validate", str(path)]) == 1
    assert message in capsys.readouterr().err.splitlines()


def _content_field(field, value):
    raw = minimal_raw()
    raw["contents"][0][field] = value
    return raw


def _node_field(index, field, value):
    raw = minimal_raw()
    raw["nodes"][index][field] = value
    return raw


def _fetch_field(field, value):
    raw = minimal_raw()
    raw["fetches"][0][field] = value
    return raw


@pytest.mark.parametrize(
    "raw, message",
    [
        (_content_field("data_size", "8"),
         "content /edu/uci/x: data_size must be a non-negative integer"),
        (_fetch_field("at_ms", "0"), "fetch of /edu/uci/x: at_ms must be a non-negative number"),
        (_fetch_field("at_ms", float("nan")),
         "fetch of /edu/uci/x: at_ms must be a non-negative number"),
        (_fetch_field("at_ms", -5), "fetch of /edu/uci/x: at_ms must be a non-negative number"),
        (_fetch_field("consumer", ["cr1"]), "fetch of /edu/uci/x: unknown consumer ['cr1']"),
        (sweep_raw(router=["r1"]), "sweep: router ['r1'] not a router node"),
        (minimal_raw(duration_ms="2000"), "duration_ms must be a non-negative number"),
        (_node_field(0, "id", ["cr1"]), "node ['cr1']: id must be a string"),
        (_node_field(2, "prefix", 5), "producer p1: prefix must be a string"),
        (_content_field("data", 5), "content /edu/uci/x: data must be a string"),
    ],
    ids=["data_size", "at_ms", "at_ms-nan", "at_ms-negative", "consumer-list", "sweep-router-list",
         "duration_ms", "node-id-list", "prefix-int", "data-int"],
)
def test_cli_validate_reports_fields_that_crashed_the_run(tmp_path, capsys, raw, message):
    # each of these once passed validation and crashed the run with a TypeError,
    # ValueError, OverflowError or AttributeError, or made ``validate`` itself
    # raise TypeError or AttributeError
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert cli.main(["validate", str(path)]) == 1
    assert message in capsys.readouterr().err.splitlines()


def _traffic_field(field, value):
    traffic = {"consumer": "cr1", "lambda_per_s": 10, "delta": 0.5,
               "ibac_targets": ["/edu/uci/x"], "max_interests": 3}
    return minimal_raw(traffic=dict(traffic, **{field: value}))


def _group_seed(value):
    raw = minimal_raw()
    raw["groups"][0]["seed"] = value
    return raw


def _adversary_keypair_seed(value):
    raw = minimal_raw()
    raw["nodes"].append({"id": "adv", "role": "adversary"})
    raw["links"].append(["adv", "r1", 5])
    raw["adversary"] = {"node": "adv", "keypair_seed": value, "actions": [
        {"kind": "NAME_PROBE", "at_ms": 5, "target": "r1", "probe_prefix": "/edu/uci"}]}
    return raw


@pytest.mark.parametrize(
    "raw, message",
    [
        *[(_traffic_field("start_ms", v), "traffic: start_ms must be a non-negative number")
          for v in ("x", [], None, float("nan"), -1)],
        *[(_traffic_field("end_ms", v), "traffic: end_ms must be a number") for v in ("x", [])],
        *[(_traffic_field("max_interests", v),
           "traffic: max_interests must be a non-negative integer") for v in ("x", [])],
        *[(_group_seed(v), "group g1: seed must be an integer in [0, 2**64)")
          for v in ("x", None, -1, 2**70, 1.5)],
        *[(_adversary_keypair_seed(v), "adversary: keypair_seed must be an integer in [0, 2**64)")
          for v in ("x", -1)],
    ],
    ids=["start_ms-str", "start_ms-list", "start_ms-none", "start_ms-nan", "start_ms-negative",
         "end_ms-str", "end_ms-list", "max_interests-str", "max_interests-list",
         "seed-str", "seed-none", "seed-negative", "seed-over-64-bits", "seed-float",
         "keypair_seed-str", "keypair_seed-negative"],
)
def test_traffic_and_seed_fields_are_validated(raw, message):
    # each of these once passed validation and crashed the run with a TypeError,
    # ValueError, crypto.UnsupportedParameter or AttributeError
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(raw)
    assert message in err.value.errors


def test_sweep_raw_is_valid():
    assert scenario_from_dict(sweep_raw()).sweep.router == "r1"


def _edited(raw, edit):
    edit(raw)
    return raw


@pytest.mark.parametrize(
    "raw, message",
    [
        (_edited(minimal_raw(), lambda r: r["nodes"].append(dict(r["nodes"][1]))),
         "duplicate node ids"),
        (_edited(minimal_raw(), lambda r: r["groups"].append({"id": "g1", "seed": 10})),
         "duplicate group ids"),
        (_edited(minimal_raw(), lambda r: r["contents"].append(dict(r["contents"][0]))),
         "content /edu/uci/x: duplicated"),
        (_edited(sweep_raw(), lambda r: r["contents"][1].update(groups=["g1"])),
         "content /edu/uci/pub: public content cannot list groups"),
        (_edited(sweep_raw(), lambda r: r.pop("traffic")), "sweep: requires a traffic profile"),
        (minimal_raw(expiry_sweep_ms=0.001),
         "duration_ms must be at most 1,000,000 times expiry_sweep_ms"),
    ],
    ids=["node-id", "group-id", "content", "public-groups", "sweep-traffic", "sweep-ticks"],
)
def test_rules_across_records_are_refused(raw, message):
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(raw)
    assert message in err.value.errors


def test_a_delta_that_weighs_a_class_with_no_target_is_refused():
    # sweep_raw(deltas=[0.0]) over the FULL content alone used to validate;
    # its one point offered no fetch at all, ran 249,855 empty traffic
    # events to its horizon and raised EmptyLog
    raw = sweep_raw(deltas=[0.0])
    raw["contents"] = raw["contents"][:1]
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(raw)
    assert err.value.errors == [
        "traffic: delta 0.5 offers public fetches, but there is no public target",
        "sweep: delta 0.0 offers public fetches, but there is no public target",
    ]
    # and the simulator refuses the profile when handed it unvalidated
    config = scenario._build(ScenarioConfig, raw, "", [])
    with pytest.raises(simnet.ConfigError, match="delta 0.5 offers public fetches"):
        scenario.build(config)


@pytest.mark.parametrize(
    "traffic, valid",
    [
        ({"delta": 1.0}, True),
        ({"delta": 0.99}, False),
        ({"delta": 0.0, "public_targets": ["/edu/uci/x"]}, True),
        ({"delta": 0.5, "ibac_targets": ["/edu/uci/x"], "public_targets": ["/edu/uci/x"]}, True),
    ],
)
def test_a_traffic_class_needs_a_target_only_when_delta_weighs_it(traffic, valid):
    raw = minimal_raw(traffic=dict({"consumer": "cr1", "lambda_per_s": 10}, **traffic))
    errors = scenario.validate(scenario._build(ScenarioConfig, raw, "", []))
    assert errors == ([] if valid else [
        "traffic: delta 0.99 offers public fetches, but there is no public target"
    ])


def test_a_sweep_horizon_past_the_duration_bound_is_refused():
    # this once validated; run_sweep then ran each point to a 2.5e9 ms horizon
    # and raised analysis.EmptyLog
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(sweep_raw(saturation_factor=1e-9, interests_per_point=5))
    assert [e.split(":")[0] for e in err.value.errors] == [
        f"sweep delta {d}" for d in (0.0, 0.2, 0.5, 1.0)
    ]
    assert err.value.errors[0].startswith("sweep delta 0.0: horizon 2.50006e+09 ms")
    assert err.value.errors[0].endswith("must be at most 500,000,000")


def test_a_sweep_router_without_a_process_cost_is_refused():
    # the model's service rate divides by tau_process_s: run_sweep raised DomainError
    raw = sweep_raw()
    raw["nodes"][1]["tau_process_s"] = 0
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(raw)
    assert err.value.errors == ["sweep: router r1: tau_process must be positive"]


def test_cli_run_reports_an_analysis_error_in_one_line(tmp_path, capsys):
    # one interest per point leaves a class with no completions to measure
    path = tmp_path / "short_sweep.yaml"
    path.write_text(yaml.safe_dump(sweep_raw(interests_per_point=1)))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "analysis error: no verified-class completions to measure\n"


def adversary_raw(**adversary):
    """``minimal_raw()`` with adversary a1 on r1, tapping cr1-r1 and replaying
    what it captures."""
    raw = minimal_raw()
    raw["nodes"].append({"id": "a1", "role": "adversary"})
    raw["links"].append(["a1", "r1", 5])
    replay = {"kind": "REPLAY_SAME_PATH", "at_ms": 100, "target": "r1"}
    raw["adversary"] = dict({"node": "a1", "taps": [["cr1", "r1"]], "actions": [replay]},
                            **adversary)
    return raw


def _replay_capture(value):
    raw = adversary_raw()
    raw["adversary"]["actions"][0]["capture"] = value
    return raw


def _adversary_without_block():
    raw = adversary_raw()
    del raw["adversary"]
    return raw


MALFORMED = {
    "taps-one-end": adversary_raw(taps=[["a1"]]),
    "taps-string": adversary_raw(taps="x"),
    "taps-list-end": adversary_raw(taps=[[["r1"], "cr1"]]),
    "group-id-list": minimal_raw(groups=[{"id": ["g1"], "seed": 9}]),
    "ibac_targets-int": _traffic_field("ibac_targets", 5),
    "pit_lifetime_ms-str": _node_field(1, "pit_lifetime_ms", "x"),
    "skew_ms-str": _node_field(1, "skew_ms", "x"),
    "clock_offset_ms-str": _node_field(0, "clock_offset_ms", "x"),
    "clock_offset_ms-before-time-0": _node_field(0, "clock_offset_ms", -5000),
    "capture-negative": _replay_capture(-1),
    "capture-str": _replay_capture("x"),
    "capture-fraction": _replay_capture(1.5),
    "expiry_ms-fraction": _content_field("expiry_ms", 1500.5),
    "seed-bool": _group_seed(True),
    "adversary-node-without-block": _adversary_without_block(),
    "new_groups-empty": minimal_raw(
        rekeys=[{"at_ms": 500, "content": "/edu/uci/x", "new_groups": []}]
    ),
    "rekey-of-public-content": minimal_raw(
        contents=[{"name": "/edu/uci/x", "policy": "PUBLIC"}],
        rekeys=[{"at_ms": 500, "content": "/edu/uci/x", "new_groups": ["g1"]}],
    ),
    "duration_ms-huge": minimal_raw(duration_ms=10**30),
    "data_size-huge": _content_field("data_size", 10**30),
}


@pytest.mark.parametrize("raw", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_values_are_validation_errors(tmp_path, capsys, raw):
    # each of these once made ``validate`` raise, crashed or hung the run, or
    # ran: a negative or non-integer capture replayed some capture, a ``true``
    # seed ran as seed 1
    with pytest.raises(ValidationError):
        scenario_from_dict(raw)
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert cli.main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err


def test_a_rekey_goes_to_the_producer_that_owns_the_content():
    # p0's prefix is the content's whole name, which only p1's extends; the
    # rekey once went to p0, the first prefix it matched, and the run ended
    # in a KeyError
    raw = minimal_raw()
    raw["nodes"].insert(0, {"id": "p0", "role": "producer", "prefix": "/edu/uci/x"})
    raw["links"].append(["r1", "p0", 10])
    raw["groups"].append({"id": "g2", "seed": 10})
    raw["rekeys"] = [{"at_ms": 500, "content": "/edu/uci/x", "new_groups": ["g2"],
                      "revoke_groups": ["g1"]}]
    result, _ = run_config(scenario_from_dict(raw))
    rekeys = [line.split("\t")[:3] for line in result.log_lines if "\trekey\t" in line]
    assert rekeys == [["500.000", "p1", "rekey"]]



def test_a_multi_group_rekey_keys_the_groups_it_keeps():
    # a multi-group content is obfuscated under a content-scoped key, and a
    # rekey draws a new one: the kept groups' members once kept the old key,
    # and the producer dropped their fetches as UnknownName
    raw = minimal_raw(duration_ms=6000)
    raw["nodes"][1:1] = [
        {"id": f"c{i}", "role": "consumer", "group": f"g{i}", "mode": "FULL", "scheme": "HASH"}
        for i in (1, 2, 3)
    ]
    raw["links"] += [[f"c{i}", "r1", 10] for i in (1, 2, 3)]
    raw["groups"] = [{"id": f"g{i}", "seed": 8 + i} for i in (1, 2, 3)]
    raw["contents"] = [{"name": "/edu/uci/shared/doc", "groups": ["g1", "g2", "g3"],
                        "scheme": "HASH", "policy": "FULL"}]
    raw["fetches"] = [{"consumer": c, "name": "/edu/uci/shared/doc", "at_ms": at}
                      for c, at in (("c1", 4000), ("c2", 4100), ("c3", 4200))]
    raw["rekeys"] = [{"at_ms": 2000, "content": "/edu/uci/shared/doc", "new_groups": ["g1", "g2"],
                      "revoke_groups": ["g3"]}]
    result, _ = run_config(scenario_from_dict(raw))
    assert sorted(d.consumer for d in result.deliveries) == ["c1", "c2"]
    # the revoked group's member still holds the old key, whose name is gone
    assert result.drops == {("p1", "UnknownName"): 1}


# ---------------------------------------------------------------------------
# the mutation space: each value and list entry of one config, replaced by
# each of these

MUTANTS = [None, "x", -1, 0, 1.5, math.nan, math.inf, [], ["a"], {}, True, 10**30, ""]


def mutation_base():
    """``adversary_raw()`` plus a three-shot probe, a traffic profile, a
    second group and a rekey to it."""
    raw = adversary_raw()
    raw["adversary"]["actions"].append(
        {"kind": "NAME_PROBE", "at_ms": 200, "target": "r1", "count": 3,
         "probe_prefix": "/edu/uci"}
    )
    raw["groups"].append({"id": "g2", "seed": 10})
    raw["traffic"] = {"consumer": "cr1", "lambda_per_s": 10, "delta": 1.0,
                      "max_interests": 5, "ibac_targets": ["/edu/uci/x"]}
    raw["rekeys"] = [{"at_ms": 500, "content": "/edu/uci/x", "new_groups": ["g2"],
                      "revoke_groups": ["g1"]}]
    return raw


def _paths(node, prefix=()):
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


MUTATION_PATHS = list(_paths(mutation_base()))


def test_mutation_space_size():
    assert len(MUTATION_PATHS) * len(MUTANTS) == 1170
    run_config(scenario_from_dict(mutation_base()))  # the base itself runs


class _Hang(Exception):
    pass


def _hang(signum, frame):
    raise _Hang


@settings(max_examples=1000, derandomize=True, deadline=None, database=None)
@given(path=st.sampled_from(MUTATION_PATHS), value=st.sampled_from(MUTANTS))
def test_any_malformed_value_is_refused_or_runs(path, value):
    raw = mutation_base()
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = copy.deepcopy(value)
    # hypothesis's deadline does not stop a run that never ends; the timer does
    previous = signal.signal(signal.SIGALRM, _hang)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        run_config(scenario_from_dict(raw))
    except (ValidationError, ParseError):
        pass
    except _Hang:
        pytest.fail(f"{path} = {value!r} still ran after 2 s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def sweep_mutation_base():
    """``sweep_raw()`` with two deltas, three interests a point, a 100 ms
    tail, and traffic that starts once a fetch of each target has filled
    r1's cache, so each point measures its class."""
    raw = sweep_raw(deltas=[0.0, 1.0], interests_per_point=3, tail_ms=100)
    raw["traffic"]["start_ms"] = 100
    raw["fetches"].append({"consumer": "cr1", "name": "/edu/uci/pub", "at_ms": 0})
    return raw


SWEEP_MUTATION_PATHS = list(_paths(sweep_mutation_base()))


def test_the_sweep_mutation_base_measures_both_points():
    points, _ = scenario.run_sweep(scenario_from_dict(sweep_mutation_base()))
    assert [(p.delta, p.completions) for p in points] == [(0.0, 3), (1.0, 3)]
    assert len(SWEEP_MUTATION_PATHS) * len(MUTANTS) == 897


@settings(max_examples=1000, derandomize=True, deadline=None, database=None)
@given(path=st.sampled_from(SWEEP_MUTATION_PATHS), value=st.sampled_from(MUTANTS))
def test_any_malformed_value_in_a_sweep_is_refused_or_runs(path, value):
    # ``cmd_run`` reports EmptyLog and DomainError in one line with exit 2
    raw = sweep_mutation_base()
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = copy.deepcopy(value)
    previous = signal.signal(signal.SIGALRM, _hang)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        scenario.run_sweep(scenario_from_dict(raw))
    except (ValidationError, ParseError, analysis.EmptyLog, analysis.DomainError):
        pass
    except _Hang:
        pytest.fail(f"{path} = {value!r} still ran after 2 s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# every config field declares its kind, and README lists it


def _record_classes(cls=ScenarioConfig):
    yield cls
    for f in dataclasses.fields(cls):
        kind = f.metadata.get("kind")
        if isinstance(kind, (kinds.Records, kinds.Record)):
            yield from _record_classes(kind.cls)


def test_every_config_field_declares_a_kind():
    classes = {cls.__name__ for cls in _record_classes()}
    assert classes == {
        "ScenarioConfig", "NodeSpec", "LinkSpec", "GroupSpec", "ContentSpec", "FetchSpec",
        "TrafficProfile", "AdversarySpec", "AdversaryAction", "RekeySpec", "SweepSpec",
    }
    undeclared = [
        f"{cls.__name__}.{f.name}"
        for cls in _record_classes()
        for f in dataclasses.fields(cls)
        if "kind" not in f.metadata
    ]
    assert undeclared == []


def test_readme_lists_every_config_field():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    reference = readme.split("## Scenario file reference\n", 1)[1].split("\n## ", 1)[0]
    missing, extra = [], []
    for cls in _record_classes():
        block = reference.split(f"(`{cls.__name__}`)", 1)[1].split("\n### ", 1)[0]
        fields = {f.name for f in dataclasses.fields(cls)}
        listed = set(re.findall(r"^\| `(\w+)` \|", block, re.M))
        missing += [f"{cls.__name__}.{name}" for name in sorted(fields - listed)]
        extra += [f"{cls.__name__}.{name}" for name in sorted(listed - fields)]
    assert (missing, extra) == ([], [])


def test_a_node_defaults_to_the_protocol_defaults_readme_gives():
    # one source each: the router's PIT lifetime and batch timeout, the check's skew
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    node = scenario.NodeSpec(id="r1", role="router")
    for field, default in (("pit_lifetime_ms", PIT_LIFETIME_MS),
                           ("batch_timeout_ms", BATCH_TIMEOUT_MS),
                           ("skew_ms", DEFAULT_SKEW_MS)):
        assert getattr(node, field) == default
        assert re.search(rf"^\| `{field}` \|.*\| {default:g} \|$", readme, re.M)
    assert Router().batch_timeout_ms == BATCH_TIMEOUT_MS
    # and the service-rate model's times, which ``ibac model-mu`` defaults to
    args = cli.build_parser().parse_args(["model-mu", "--delta", "0"])
    assert (args.tau_process, args.tau_verify) == (node.tau_process_s, node.tau_verify_s) == (
        scenario.DEFAULT_TAU_PROCESS_S, scenario.DEFAULT_TAU_VERIFY_S)


@pytest.mark.parametrize(
    "name", [n for n in BUNDLED_SCENARIOS if n != "service_rate_sweep"]
)
def test_bundled_scenarios_run_deterministically(name):
    first, _ = run_config(load_bundled(name))
    second, _ = run_config(load_bundled(name))
    assert first.log_lines == second.log_lines
    assert first.conservation["balanced"]


# the producer's calls of the shared check on each bundled scenario
PRODUCER_CHECKS = {
    "figure_sequence": 2,
    "replay_same_path": 1,
    "replay_cross_path": 3,
    "forgery": 502,
    "name_probe": 1,
    "multi_group": 1,
    "mode_matrix": 2,
    "revocation_expiry": 1,
}


@pytest.mark.parametrize("name", sorted(PRODUCER_CHECKS))
def test_producers_authorize_through_the_shared_check(monkeypatch, name):
    # every verified serve and every refusal the check makes at a producer
    # is one call of ``run_authorization_check`` by the producer module;
    # perfbench's ``authcheck.check.calls`` sums the routers' calls in too
    assert sorted(PRODUCER_CHECKS) == sorted(n for n in BUNDLED_SCENARIOS
                                             if n != "service_rate_sweep")
    calls = []
    check = producer_module.run_authorization_check

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(producer_module, "run_authorization_check", counted)
    config = load_bundled(name)
    producers = {node.id for node in config.nodes if node.role == "producer"}
    result, _ = run_config(config)
    checked = 0
    for line in result.log_lines:
        _, node, kind, _, reason = line.split("\t")
        if node in producers and (
            (kind, reason) == ("content_served", "verified")
            or kind == "int_drop" and reason in ("DuplicateNonce", "StaleTimestamp", "BadSignature")
        ):
            checked += 1
    assert len(calls) == checked == PRODUCER_CHECKS[name]


# ---------------------------------------------------------------------------
# summaries and outputs


def test_summary_reconciles_with_log(tmp_path):
    config = load_bundled("replay_same_path")
    result, _ = run_config(config)
    summary = scenario.summarize(result, config)
    # recount drops from the raw emission log
    recount = Counter()
    for line in result.log_lines:
        _, node, kind, _, reason = line.split("\t")
        if kind in ("int_drop", "content_drop", "pending_drop") and node != "adv":
            recount[(node, reason)] += 1
    flattened = {
        (node, reason): count
        for node, reasons in summary["drops"].items()
        for reason, count in reasons.items()
    }
    assert flattened == dict(recount)
    delivered = sum(1 for l in result.log_lines if "\tcontent_delivered\t" in l)
    assert delivered == summary["counters"]["delivered"]


def test_run_scenario_writes_outputs(tmp_path):
    config = load_bundled("figure_sequence")
    assert scenario.run_scenario(config, tmp_path) == []
    assert (tmp_path / "emission.log").exists()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["scenario"] == "figure_sequence"
    assert (tmp_path / "metrics.csv").read_text().startswith("metric,node,detail,value")


# ---------------------------------------------------------------------------
# mode matrix: per-mode wire shape


def test_mode_matrix_field_presence(wire_trace):
    sim, info = scenario.build(load_bundled("mode_matrix"))
    trace = wire_trace(sim)
    result = sim.run()
    assert len(result.deliveries) == 6

    sent = {}
    for t, src, dst, data in trace:
        if src in ("crF", "crO", "crA") and src not in sent:
            sent[src] = decode_message(data)
    full, obf, auth = sent["crF"], sent["crO"], sent["crA"]

    assert isinstance(full.name, ObfuscatedName)
    assert full.payload.has_auth_info()

    assert isinstance(obf.name, ObfuscatedName)
    assert obf.payload is not None and not obf.payload.has_auth_info()
    assert obf.payload.group_id == info.materials["g2"].group_id

    assert isinstance(auth.name, Name)
    assert auth.payload.has_auth_info()
    assert encode_name(auth.name) == encode_name(info.content_names["/edu/uci/modes/auth"])


def test_mode_matrix_cache_hits_for_all_modes():
    config = load_bundled("mode_matrix")
    result, _ = run_config(config)
    hits = [l for l in result.log_lines if l.split("\t")[2] == "cs_hit_served"]
    assert len(hits) == 3
    reasons = sorted(l.split("\t")[4] for l in hits)
    assert reasons == ["public", "verified", "verified"]  # obf-only content has no keys


# ---------------------------------------------------------------------------
# multi group


def test_multi_group_one_cached_copy_two_keys():
    config = load_bundled("multi_group")
    result, info = run_config(config)
    wire_name = scenario.content_wire_name(info, "/edu/uci/shared/doc")
    entry = result.nodes["r1"].cs[wire_name]
    assert {gid for gid, _ in entry.content.verification_keys} == {
        info.materials["g1"].group_id,
        info.materials["g2"].group_id,
    }
    # both authorized groups produced the same obfuscated name: one producer hit
    assert result.producer_interests[("p1", wire_name.hex())] == 1
    delivered = Counter(d.consumer for d in result.deliveries)
    assert delivered == {"cr1": 1, "cr2": 1}
    assert result.drop_total("UnknownGroupKey") == 1
    assert result.drop_total("Unauthorized") == 1


# ---------------------------------------------------------------------------
# CLI


def test_cli_model_mu(capsys):
    assert cli.main(["model-mu", "--delta", "0", "--tau-process", "0.005"]) == 0
    assert capsys.readouterr().out.strip() == "200.000000"


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--tau-process", "--tau-verify"])
def test_cli_model_mu_refuses_a_non_finite_time(capsys, flag, value):
    # a scenario file refuses the same times through scenario.COST
    assert cli.main(["model-mu", "--delta", "0.2", flag, value]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "service times must be finite and non-negative\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--batch", "0"], "batch_size must be at least 1"),
        (["--trials", "0"], "trials must be at least 1"),
        (["--key-bits", "999"], "no signature group for key_bits=999"),
        (["--sig-bytes", "-1"], "payload_bytes must not be negative"),
    ],
    ids=["batch-0", "trials-0", "key-bits-999", "sig-bytes-negative"],
)
def test_cli_bench_refuses_an_out_of_range_argument_in_one_line(capsys, argv, message):
    # each ended in a traceback with exit 1
    assert cli.main(["bench", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message) and captured.err.count("\n") == 1


def test_cli_validate_bundled(capsys):
    assert cli.main(["validate", "figure_sequence"]) == 0
    assert "OK" in capsys.readouterr().out


def test_cli_validate_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("nodes:\n  - {id: c, role: consumer}\n")
    assert cli.main(["validate", str(bad)]) == 1


@pytest.mark.parametrize(
    "content",
    [None, "nodes: [\n", "- name: listed\n", "directory"],
    ids=["unknown-bundled-name", "malformed-yaml", "top-level-list", "directory"],
)
def test_cli_run_reports_unloadable_scenario(tmp_path, capsys, content):
    # each of these once escaped `ibac run` as a traceback
    if content is None:
        target = "does_not_exist"
    elif content == "directory":
        target = str(tmp_path)
    else:
        target = tmp_path / "bad.yaml"
        target.write_text(content)
    assert cli.main(["run", str(target), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, code", [("run", 2), ("validate", 1)])
@pytest.mark.parametrize("target", ["missing/file.yaml", "file.yaml", "file.yml"])
def test_cli_reports_a_missing_scenario_file(tmp_path, monkeypatch, capsys, command, code, target):
    # a mistyped path used to be reported as an unknown bundled scenario name
    monkeypatch.chdir(tmp_path)
    assert cli.main([command, target]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{target}: no such file\n"


def test_cli_run_writes_outputs(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["run", "figure_sequence", "--out", str(out)]) == 0
    assert (out / "summary.json").exists()


def test_cli_bench_writes_csv(tmp_path, capsys):
    out = tmp_path / "bench"
    code = cli.main([
        "bench", "--key-bits", "512", "1024", "--batch", "2", "3", "--trials", "2",
        "--sig-bytes", "1024", "--out", str(out),
    ])
    assert code == 0
    rows = (out / "bench.csv").read_text().splitlines()[1:]
    assert sorted(tuple(r.split(",")[:2]) for r in rows) == [
        ("1024", "2"), ("1024", "3"), ("512", "2"), ("512", "3"),
    ]


def test_cli_bench_writes_its_header_and_row_format(tmp_path, capsys):
    out = tmp_path / "bench"
    argv = ["bench", "--key-bits", "512", "--batch", "1", "--sig-bytes", "64", "--trials", "1"]
    assert cli.main([*argv, "--out", str(out)]) == 0
    header, row = (out / "bench.csv").read_text().splitlines()
    assert header == "key_size,batch_size,sig_size,t_individual,t_batch,improvement_pct"
    assert re.fullmatch(r"512,1,64,\d+\.\d{6},\d+\.\d{6},-?\d+\.\d", row), row


def test_cli_run_prints_the_sweep_table_at_the_interests_given(tmp_path, capsys):
    # the file asks for one interest per point, too few to measure; --interests overrides it
    path = tmp_path / "short_sweep.yaml"
    path.write_text(yaml.safe_dump(sweep_raw(interests_per_point=1)))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--interests", "100", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["delta", "mu_model", "mu_measured", "rel_err"]
    summary = json.loads((out / "summary.json").read_text())
    assert [tuple(map(float, line.split()[:3])) for line in lines[1:5]] == [
        (p["delta"], round(p["mu_model"], 4), round(p["mu_measured"], 4)) for p in summary["sweep"]
    ]
    assert lines[5:] == [f"wrote {out}/mu_model.csv", f"wrote {out}/emission.log, summary.json"]


@pytest.mark.parametrize(
    "target, interests, error",
    [
        ("figure_sequence", "300", "figure_sequence: --interests needs a scenario with a sweep"),
        ("service_rate_sweep", "0",
         "invalid scenario: sweep: interests_per_point must be a positive integer"),
    ],
)
def test_cli_run_refuses_interests_it_cannot_apply(tmp_path, capsys, target, interests, error):
    out = tmp_path / "out"
    assert cli.main(["run", target, "--interests", interests, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", error + "\n")
    assert not out.exists()


@pytest.mark.parametrize("extra", [[], ["--interests", "300"]], ids=["alone", "with-interests"])
def test_cli_run_checks_the_seed_as_a_file_seed_is(tmp_path, capsys, extra):
    target = "service_rate_sweep" if extra else "mode_matrix"
    out = tmp_path / "out"
    assert cli.main(["run", target, "--seed", "-1", *extra, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "invalid scenario: seed must be an integer in [0, 2**64)\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, work",
    [
        (["run", "figure_sequence"], (scenario, "run_scenario")),
        (["bench", "--key-bits", "512", "--batch", "1", "--sig-bytes", "64", "--trials", "1"],
         (cli.analysis, "bench_verification")),
        # its directory waits for the table's check, which refuses leaving none
        (["overhead-table"], None),
    ],
    ids=["run", "bench", "overhead-table"],
)
@pytest.mark.parametrize("under_file", [True, False], ids=["under-a-file", "a-file"])
def test_an_output_directory_that_cannot_be_made_exits_2_before_any_work(
    tmp_path, capsys, monkeypatch, argv, work, under_file
):
    # each ended in NotADirectoryError (or FileExistsError for --out <file>)
    # after its work was done: a sweep ran to its end first
    if work is not None:
        monkeypatch.setattr(*work, lambda *args, **kwargs: pytest.fail("the work started"))
    blocker = tmp_path / "f"
    blocker.write_text("")
    out = blocker / "x" if under_file else blocker
    assert cli.main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "wrote" not in captured.out
    assert re.fullmatch(f"output directory {re.escape(str(out))}: [^\n]+\n", captured.err)
    assert "Traceback" not in captured.err
    assert list(tmp_path.rglob("emission.log")) == []


def test_an_unusable_ibac_out_dir_exits_2(tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "f"
    blocker.write_text("")
    monkeypatch.setenv("IBAC_OUT_DIR", str(blocker))
    assert cli.main(["run", "forgery"]) == 2
    assert capsys.readouterr().err.startswith(f"output directory {blocker / 'forgery'}: ")


def test_cli_run_checks_the_sweep_horizon_that_interests_gives(tmp_path, capsys):
    # the file's 5 interests per point fit its horizon bound; 10**6 of them do not
    path = tmp_path / "slow_sweep.yaml"
    path.write_text(yaml.safe_dump(sweep_raw(saturation_factor=1e-6, interests_per_point=5)))
    assert cli.main(["validate", str(path)]) == 0
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--interests", "1000000", "--out", str(out)]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert [e.split(":")[:2] for e in errors] == [
        ["invalid scenario", f" sweep delta {d}"] for d in (0.0, 0.2, 0.5, 1.0)
    ]
    assert not out.exists()


def test_cli_overhead_table_writes_the_pinned_csv(tmp_path, capsys):
    out = tmp_path / "overhead"
    assert cli.main(["overhead-table", "--out", str(out)]) == 0
    assert (out / "overhead.csv").read_bytes() == (TESTDATA / "overhead.csv").read_bytes()
    assert capsys.readouterr().out.splitlines() == [
        "interest_auth_payload: analytic=152B measured=177B framing=25B",
        "content_two_group_keys: analytic=128B measured=208B framing=80B",
        f"wrote {out / 'overhead.csv'}",
    ]


def test_cli_overhead_table_refuses_a_framing_that_does_not_add_up(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli.analysis, "INTEREST_AUTH_FRAMING_BYTES", 24)
    out = tmp_path / "overhead"
    assert cli.main(["overhead-table", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "interest_auth_payload: measured 177B is not analytic 152B plus framing 24B\n"
    )
    assert not out.exists()


def test_cli_out_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("IBAC_OUT_DIR", str(tmp_path / "envout"))
    assert cli.main(["run", "figure_sequence"]) == 0
    assert (tmp_path / "envout" / "figure_sequence" / "summary.json").exists()


# ---------------------------------------------------------------------------
# invariant cross-checks


def _name_probe_run():
    sim, _ = scenario.build(load_bundled("name_probe"))
    result = sim.run()
    scenario.check_invariants(result, sim)  # the undoctored run passes
    return result, sim


def _doctored_lines(result, edit):
    lines = list(result.log_lines)
    edit(lines)
    return replace(result, log_lines=lines)


def _line_index(lines, kind, reason=None):
    return next(
        i for i, line in enumerate(lines)
        if line.split("\t")[2] == kind and reason in (None, line.split("\t")[4])
    )


def test_invariants_catch_a_missing_drop_line():
    result, sim = _name_probe_run()
    doctored = _doctored_lines(result, lambda lines: lines.pop(_line_index(lines, "int_drop")))
    with pytest.raises(InvariantViolation, match="drop counters"):
        scenario.check_invariants(doctored, sim)


def test_invariants_catch_an_extra_delivery_line():
    result, sim = _name_probe_run()
    doctored = _doctored_lines(
        result, lambda lines: lines.append(lines[_line_index(lines, "content_delivered")])
    )
    with pytest.raises(InvariantViolation, match="delivery counter"):
        scenario.check_invariants(doctored, sim)


def test_invariants_catch_a_relabelled_verified_serve():
    result, sim = _name_probe_run()

    def relabel(lines):
        i = _line_index(lines, "content_sent", "verified")
        lines[i] = lines[i].rsplit("\t", 1)[0] + "\tpublic"

    with pytest.raises(InvariantViolation, match="r1: emitted 0 protected contents"):
        scenario.check_invariants(_doctored_lines(result, relabel), sim)


def test_invariants_catch_unbalanced_conservation():
    result, sim = _name_probe_run()
    adversary = next(rt.obj for rt in sim.nodes.values() if rt.role == "adversary")
    # a probe still pending at the end, lost from the books
    del adversary.pending[next(nb for nb, held in adversary.pending.items() if type(held) is tuple)]
    doctored = sim._result()
    assert doctored.conservation["pending_at_end"] == result.conservation["pending_at_end"] - 1
    with pytest.raises(InvariantViolation, match="conservation violated"):
        scenario.check_invariants(doctored, sim)


def _full_split_recount(lines, adversaries):
    """``check_invariants``'s recount, every line split in full and each
    kind tested on its own."""
    drops, delivered, served_verified = Counter(), 0, Counter()
    for line in lines:
        _, node, kind, _, reason = line.split("\t")
        if kind in ("int_drop", "content_drop", "pending_drop") and node not in adversaries:
            drops[(node, reason)] += 1
        if kind == "content_delivered":
            delivered += 1
        if kind in ("cs_hit_served", "content_sent") and reason == "verified":
            served_verified[node] += 1
    return drops, delivered, served_verified


def _bundled_logs(name):
    config = load_bundled(name)
    adversaries = {node.id for node in config.nodes if node.role == "adversary"}
    if config.sweep is None:
        return [scenario.run_config(config)[0].log_lines], adversaries
    config.sweep.interests_per_point = 60
    return [result.log_lines for result in scenario.run_sweep(config)[1]], adversaries


@pytest.mark.parametrize("name", scenario.BUNDLED_SCENARIOS)
def test_the_log_recount_equals_a_full_split_recount_on_each_bundled_log(name):
    logs, adversaries = _bundled_logs(name)
    for lines in logs:
        recount = scenario._log_recount(lines, adversaries)
        assert recount == _full_split_recount(lines, adversaries)
        assert sum(recount[0].values()) + recount[1] + sum(recount[2].values()) > 0


def test_the_log_recount_reads_kinds_not_node_ids():
    # node ids that read as kinds or start with c, as three kinds do: a
    # router named after a drop kind, a consumer after the delivery kind,
    # and an adversary (whose drops go uncounted) and a producer starting with c
    ids = {"r1": "int_drop", "cr1": "content_delivered", "adv": "cs_adv", "p1": "c_p1"}

    def renamed(value):
        if isinstance(value, dict):
            return {key: renamed(item) for key, item in value.items()}
        if isinstance(value, list):
            return [renamed(item) for item in value]
        return ids.get(value, value) if isinstance(value, str) else value

    raw = yaml.safe_load(scenario.bundled_scenario_path("replay_same_path").read_text())
    result, _ = scenario.run_config(scenario.scenario_from_dict(renamed(raw), "renamed"))
    lines = result.log_lines
    assert {line.split("\t")[1] for line in lines} == set(ids.values())
    recount = scenario._log_recount(lines, {"cs_adv"})
    assert recount == _full_split_recount(lines, {"cs_adv"})
    assert recount[1] == 5 and recount[0]
    # a line of another kind is never counted, whatever its node
    lines = [line.replace("\tint_sent\t", "\tint_dropped\t") for line in lines]
    assert scenario._log_recount(lines, {"cs_adv"}) == _full_split_recount(lines, {"cs_adv"})


# ---------------------------------------------------------------------------
# the bundled sweep, pinned at a short point length

SWEEP_PINS = json.loads((TESTDATA / "sweep_outputs.json").read_text())


def test_bundled_sweep_outputs_are_pinned(tmp_path):
    # the sweep's bytes: tests/test_digests.py pins only the non-sweep scenarios
    pin = SWEEP_PINS["service_rate_sweep"]
    config = load_bundled("service_rate_sweep")
    config.sweep.interests_per_point = pin["interests_per_point"]
    points = scenario.run_scenario(config, tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert [dataclasses.asdict(p) for p in points] == summary["sweep"]
    for output in ("emission.log", "summary.json"):
        digest = hashlib.sha256((tmp_path / output).read_bytes()).hexdigest()
        assert digest == pin[output], output
    # the model-vs-measured table that `ibac run service_rate_sweep --interests 300` writes
    assert pin["interests_per_point"] == 300
    assert (tmp_path / "mu_model.csv").read_bytes() == (TESTDATA / "mu_model_300.csv").read_bytes()


def test_run_sweep_leaves_its_config_unchanged():
    # each point is the base config with a few fields replaced, so it shares
    # the base's records and lists: a run that changed one would show here
    config = load_bundled("service_rate_sweep")
    config.sweep.interests_per_point = 100
    config.sweep.deltas = [0.0, 0.5, 1.0]
    before = copy.deepcopy(config)
    points, results = scenario.run_sweep(config)
    assert config == before
    again_points, again_results = scenario.run_sweep(config)
    assert again_points == points
    assert [r.log_lines for r in again_results] == [r.log_lines for r in results]
    assert [p.completions for p in points] == [
        sum(line.split("\t")[1:3] == ["r1", "cs_hit_served"] for line in r.log_lines)
        for r in results
    ]
