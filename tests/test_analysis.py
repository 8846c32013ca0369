import math
import random

import pytest

from ibac import analysis, crypto
from ibac.analysis import (
    DomainError,
    EmptyLog,
    bench_verification,
    class_service_times,
    content_overhead_bytes,
    interest_overhead_bytes,
    measure_service_rate,
    mixture_rate_estimate,
    model_mu,
)
from ibac.consumer import ConsumerContext, ConsumerMode, interest_generation
from ibac.scenario import load_bundled, run_scenario, run_sweep
from ibac.simnet import INTEREST_COMPLETION_KINDS
from ibac.wire import (
    AuthorizationPayload,
    ContentObject,
    Interest,
    Name,
    SchemeTag,
    encode_content,
    encode_interest,
)

# ---------------------------------------------------------------------------
# analytic model


def test_model_mu_delta_zero_exact():
    assert model_mu(0.0, 0.005, 0.599) == 200.0


def test_model_mu_delta_one():
    got = model_mu(1.0, 0.005, 0.599)
    assert got == pytest.approx(1.6556291390728477, rel=1e-6)


def test_model_mu_delta_fifth():
    got = model_mu(0.2, 0.005, 0.599)
    assert got == pytest.approx(160.33112582781456, rel=1e-6)


def test_model_mu_zero_process_time_rejected():
    with pytest.raises(DomainError):
        model_mu(0.5, 0.0, 0.599)


def test_model_mu_bad_delta_rejected():
    with pytest.raises(DomainError):
        model_mu(1.5, 0.005, 0.599)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("time", ["tau_process_s", "tau_verify_s"])
def test_model_mu_refuses_a_non_finite_time(time, value):
    times = {"tau_process_s": 0.005, "tau_verify_s": 0.599, time: value}
    with pytest.raises(DomainError, match="finite"):
        model_mu(0.2, **times)


def test_model_mu_strictly_decreasing_in_delta():
    values = [
        model_mu(i / 100.0, 0.005, 0.599) for i in range(101)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# overhead accounting


def test_interest_overhead_sum():
    p = dict(nonce_bytes=16, timestamp_bytes=8, signature_bytes=64, group_id_bytes=32)
    assert interest_overhead_bytes(**p) == 120


def test_interest_overhead_zero():
    assert interest_overhead_bytes(0, 0, 0, 0) == 0


def test_content_overhead_sums_key_sizes():
    assert content_overhead_bytes((32, 32)) == 64
    assert content_overhead_bytes(()) == 0


def _full_interest():
    material = crypto.gen_group(128, 1)
    ctx = ConsumerContext(
        group=material,
        mode=ConsumerMode.FULL,
        scheme=SchemeTag.ENC,
        clock=lambda: 1000.0,
        rng=random.Random(3),
    )
    name = Name.from_uri("/edu/uci/ics/home.html")
    return material, interest_generation(ctx, (b"edu", b"uci"), name)


def test_interest_overhead_matches_wire_diff():
    material, full = _full_interest()
    bare = Interest(full.name)
    p = dict(
        nonce_bytes=len(full.payload.nonce),
        timestamp_bytes=8,
        signature_bytes=len(full.payload.signature),
        group_id_bytes=len(full.payload.group_id),
    )
    delta = len(encode_interest(full)) - len(encode_interest(bare))
    assert delta == interest_overhead_bytes(**p) + analysis.INTEREST_AUTH_FRAMING_BYTES


def test_interest_overhead_vs_identity_only_payload():
    material, full = _full_interest()
    id_only = Interest(full.name, AuthorizationPayload(full.payload.group_id))
    p = dict(
        nonce_bytes=len(full.payload.nonce),
        timestamp_bytes=8,
        signature_bytes=len(full.payload.signature),
        group_id_bytes=len(full.payload.group_id),
    )
    delta = len(encode_interest(full)) - len(encode_interest(id_only))
    expected = (
        interest_overhead_bytes(**p)
        - p["group_id_bytes"]
        + analysis.INTEREST_AUTH_VS_ID_ONLY_FRAMING_BYTES
    )
    assert delta == expected


def test_content_overhead_matches_wire_diff():
    name = Name.from_uri("/edu/uci/ics/home.html")
    keys = ((b"g" * 32, b"k" * 64), (b"h" * 32, b"l" * 64))
    with_keys = ContentObject(name, b"data", keys, 5, b"sig")
    without = ContentObject(name, b"data", (), 5, b"sig")
    delta = len(encode_content(with_keys)) - len(encode_content(without))
    key_sizes = (64, 64)
    framing = 2 * analysis.content_key_entry_framing_bytes(group_id_bytes=32)
    assert delta == content_overhead_bytes(key_sizes) + framing


# ---------------------------------------------------------------------------
# bench


def test_bench_smoke_and_fields():
    result = bench_verification(key_bits=512, batch_size=3, payload_bytes=1024, trials=3)
    assert result.t_individual_s > 0 and result.t_batch_s > 0
    assert result.key_bits == 512 and result.batch_size == 3
    assert isinstance(result.improvement_pct, float)


def test_bench_batch_one_close_to_individual():
    # medians of 51 trials: of 5, one full suite in seven read past the bound
    result = bench_verification(key_bits=512, batch_size=1, payload_bytes=1024, trials=51)
    # degenerate batch: no amortization, so the two paths stay within noise
    assert abs(result.improvement_pct) < 60.0


def test_a_batch_of_one_makes_the_one_power_of_a_single_verification(monkeypatch):
    # the exact form of the timing bound above: each path makes one two-base power
    group = crypto.signature_group(512)
    rng = random.Random(1)
    x = rng.randrange(1, group.q)
    y = crypto.generator_power(group, x)
    item = (b"m", crypto.schnorr_sign(group, x, b"m"))
    calls = []
    power2 = crypto._power2
    monkeypatch.setattr(crypto, "_power2", lambda *a: calls.append(a) or power2(*a))
    assert crypto.schnorr_verify(group, y, *item)
    single = len(calls)
    assert crypto.schnorr_batch_verify(group, y, [item], rng)
    assert (single, len(calls) - single) == (1, 1)


def test_bench_rejects_bad_params():
    with pytest.raises(DomainError):
        bench_verification(batch_size=0)
    with pytest.raises(DomainError):
        bench_verification(trials=0)
    with pytest.raises(DomainError, match="payload_bytes"):
        bench_verification(payload_bytes=-1)  # randbytes used to raise ValueError


# ---------------------------------------------------------------------------
# emission-log measurement


def synth_log(node="r1", period_ms=5.0, count=200, kind="cs_hit_served", reason="plain"):
    return [
        f"{1000.0 + i * period_ms:.3f}\t{node}\t{kind}\t00\t{reason}"
        for i in range(count)
    ]


def test_measure_service_rate_constant_rate():
    log = synth_log(period_ms=5.0, count=400)  # 200/s
    windows = measure_service_rate(log, window_ms=500.0, node="r1")
    rates = [rate for _, rate in windows[:-1]]  # final window is partial
    assert all(rate == pytest.approx(200.0, rel=0.05) for rate in rates)


def test_measure_service_rate_picks_busiest_node():
    log = synth_log(node="r1") + synth_log(node="r2", count=10)
    windows = measure_service_rate(log, window_ms=1000.0)
    assert windows  # r1 chosen; enough events to produce windows


def test_measure_service_rate_empty_log():
    with pytest.raises(EmptyLog):
        measure_service_rate([], window_ms=100.0)
    with pytest.raises(EmptyLog):
        measure_service_rate(["1.000\tr1\tcontent_delivered\t00\t"], window_ms=100.0, node="r1")


@pytest.mark.parametrize("window_ms", [-5.0, 0.0, math.nan, math.inf])
def test_measure_service_rate_refuses_a_window_that_is_not_finite_and_positive(window_ms):
    # -5 never returned while its output grew, 0 divided by zero, and NaN
    # gave one NaN rate
    with pytest.raises(DomainError, match="window_ms"):
        measure_service_rate(synth_log(), window_ms=window_ms, node="r1")


def reference_service_rate(log, window_ms, node):
    """The per-window rescan measure_service_rate must reproduce."""
    completions = [
        float(t)
        for t, n, kind, _, _ in (line.split("\t") for line in log if line.strip())
        if n == node and kind in INTEREST_COMPLETION_KINDS
    ]
    out = []
    start = completions[0]
    while start <= completions[-1]:
        end = start + window_ms
        count = sum(1 for t in completions if start <= t < end)
        out.append((start, count / (window_ms / 1000.0)))
        start = end
    return out


def test_measure_service_rate_matches_rescan_on_synthetic_log():
    rng = random.Random(5)
    log = synth_log(period_ms=5.0, count=300)
    log += [
        f"{1000.0 + rng.uniform(0.0, 2000.0):.3f}\tr1\tcs_hit_served\t00\tverified"
        for _ in range(300)
    ]
    log += synth_log(node="r2", count=50)
    for window_ms in (0.7, 5.0, 33.3, 500.0, 5000.0):
        assert measure_service_rate(log, window_ms, node="r1") == reference_service_rate(
            log, window_ms, "r1"
        )


def test_measure_service_rate_matches_rescan_on_sweep_log():
    config = load_bundled("service_rate_sweep")
    config.sweep.interests_per_point = 300
    config.sweep.deltas = [0.5]
    _, results = run_sweep(config)
    log = results[0].log_lines
    for window_ms in (10.0, 250.0, 1000.0):
        assert measure_service_rate(log, window_ms, node="r1") == reference_service_rate(
            log, window_ms, "r1"
        )


def test_measure_service_rate_finds_the_busiest_node_in_a_sweep_log(tmp_path):
    # run_scenario marks each point's lines with "# delta=...", which the
    # busiest-node scan once split as an event line
    config = load_bundled("service_rate_sweep")
    config.sweep.interests_per_point = 100
    config.sweep.deltas = [0.0, 0.5]
    assert [p.delta for p in run_scenario(config, tmp_path)] == [0.0, 0.5]
    log = tmp_path / "emission.log"
    assert log.read_text().count("# delta=") == 2
    assert measure_service_rate(log, 250.0) == measure_service_rate(log, 250.0, node="r1")


def reference_class_service_times(log, node, t0=0.0, t1=float("inf")):
    """``class_service_times`` over a full parse: every line split and its
    time read, then the node's completions kept."""
    rows = [line.split("\t") for line in log if line.strip()]
    completions = [
        (float(t), reason)
        for t, n, kind, _, reason in rows
        if n == node and kind in INTEREST_COMPLETION_KINDS and t0 <= float(t) <= t1
    ]
    out = {"verified": [], "plain": []}
    for (t_prev, _), (t_cur, reason) in zip(completions, completions[1:]):
        if t_cur - t_prev > 0:
            out["verified" if reason == "verified" else "plain"].append(t_cur - t_prev)
    return out


def test_class_service_times_matches_a_full_parse_on_each_sweep_point_log():
    config = load_bundled("service_rate_sweep")
    config.sweep.interests_per_point = 300
    points, results = run_sweep(config)
    assert len(results) == len(config.sweep.deltas) > 1
    for result in results:
        log = result.log_lines
        for t0 in (0.0, config.traffic.start_ms, 400.0):
            got = class_service_times(log, "r1", t0)
            assert got == reference_class_service_times(log, "r1", t0)
        assert got["plain"] or got["verified"]


def test_class_service_times_reads_the_node_field_only():
    # the node id is also another line's kind, reason and name field
    lines = [
        "1.000\tint_drop\tint_forwarded\t00\t",
        "2.000\tr1\tint_drop\t00\tUnknownName",
        "",
        "3.000\tint_drop\tcs_hit_served\t00\tverified",
        "4.000\tr1\tcs_hit_served\tint_drop\tplain",
        "5.500\tint_drop\tint_drop\tint_drop\tint_drop",
        "6.000\tr1\tint_forwarded\t00\tint_drop",
        "9.000\tint_drop\tint_aggregated\t00\t",
        "9.500\tcr1\tint_sent\t00\t",
    ]
    for node in ("int_drop", "r1", "cr1", "absent"):
        assert class_service_times(lines, node) == reference_class_service_times(lines, node)
    assert class_service_times(lines, "int_drop") == {
        "verified": [2.0], "plain": [2.5, 3.5]
    }
    with pytest.raises(ValueError):  # a line of the node with a field too many
        class_service_times(lines + ["10.000\tr1\tint_drop\t00\tx\ty"], "r1")


def test_mixture_rate_estimate_two_classes():
    # alternate 5 ms plain and 604 ms verified completions, back to back
    lines = []
    t = 0.0
    for i in range(60):
        if i % 2 == 0:
            t += 5.0
            lines.append(f"{t:.3f}\tr1\tcs_hit_served\t00\tplain")
        else:
            t += 604.0
            lines.append(f"{t:.3f}\tr1\tcs_hit_served\t00\tverified")
    got = mixture_rate_estimate(lines, "r1", delta=0.2)
    want = model_mu(0.2, 0.005, 0.599)
    assert got == pytest.approx(want, rel=1e-6)


def test_mixture_rate_estimate_single_class():
    log = synth_log(period_ms=5.0)
    assert mixture_rate_estimate(log, "r1", delta=0.0) == pytest.approx(200.0, rel=1e-6)
    with pytest.raises(EmptyLog):
        mixture_rate_estimate(log, "r1", delta=0.5)


def test_write_csv_joins_the_header_and_each_row_as_written(tmp_path):
    path = tmp_path / "t.csv"
    analysis.write_csv(path, ("delta", "mu", "node"), [(0.0, 200.0, "r1"), (0.5, 1 / 3, "")])
    assert path.read_text() == "delta,mu,node\n0.0,200.0,r1\n0.5,0.3333333333333333,\n"
    analysis.write_csv(path, ("quantity",), [])
    assert path.read_text() == "quantity\n"
