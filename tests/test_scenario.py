import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
import yaml

from ibac import cli, scenario
from ibac.scenario import (
    BUNDLED_SCENARIOS,
    ParseError,
    ValidationError,
    bundled_scenario_path,
    load_bundled,
    run_config,
    scenario_from_dict,
)
from ibac.wire import Name, ObfuscatedName, decode_message, encode_name


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


def test_unknown_keys_rejected():
    raw = minimal_raw()
    raw["nodes"][0]["colour"] = "blue"
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(raw)
    assert any("unknown keys" in e for e in err.value.errors)


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


def test_unknown_probe_scheme_rejected():
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(name_probe_raw(probe_scheme="BOGUS"))
    assert any("unknown probe_scheme 'BOGUS'" in e for e in err.value.errors)


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
    return minimal_raw(
        traffic={"consumer": "cr1", "lambda_per_s": 10, "delta": 0.5},
        sweep=dict({"router": "r1"}, **sweep),
    )


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


def test_sweep_raw_is_valid():
    assert scenario_from_dict(sweep_raw()).sweep.router == "r1"


@pytest.mark.parametrize(
    "name", [n for n in BUNDLED_SCENARIOS if n != "service_rate_sweep"]
)
def test_bundled_scenarios_run_deterministically(name):
    first, _ = run_config(load_bundled(name))
    second, _ = run_config(load_bundled(name))
    assert first.log_lines == second.log_lines
    assert first.conservation["balanced"]


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
    code = scenario.run_scenario(config, tmp_path)
    assert code == 0
    assert (tmp_path / "emission.log").exists()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["scenario"] == "figure_sequence"
    assert (tmp_path / "metrics.csv").read_text().startswith("metric,node,detail,value")


# ---------------------------------------------------------------------------
# mode matrix: per-mode wire shape


def test_mode_matrix_field_presence():
    config = load_bundled("mode_matrix")
    result, info = run_config(config)
    assert len(result.deliveries) == 6

    sent = {}
    for t, src, dst, wire in result.wire_trace:
        if src in ("crF", "crO", "crA") and src not in sent:
            sent[src] = decode_message(wire)
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


def test_cli_out_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("IBAC_OUT_DIR", str(tmp_path / "envout"))
    assert cli.main(["run", "figure_sequence"]) == 0
    assert (tmp_path / "envout" / "figure_sequence" / "summary.json").exists()
