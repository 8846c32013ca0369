import random

import pytest

from ibac import analysis, crypto
from ibac.analysis import (
    DomainError,
    EmptyLog,
    OverheadParams,
    ServiceModelParams,
    bench_verification,
    content_overhead_bytes,
    interest_overhead_bytes,
    measure_service_rate,
    mixture_rate_estimate,
    model_mu,
)
from ibac.consumer import ConsumerContext, ConsumerMode, interest_generation
from ibac.scenario import load_bundled, run_sweep
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
    assert model_mu(ServiceModelParams(0.0, 0.005, 0.599)) == 200.0


def test_model_mu_delta_one():
    got = model_mu(ServiceModelParams(1.0, 0.005, 0.599))
    assert got == pytest.approx(1.6556291390728477, rel=1e-6)


def test_model_mu_delta_fifth():
    got = model_mu(ServiceModelParams(0.2, 0.005, 0.599))
    assert got == pytest.approx(160.33112582781456, rel=1e-6)


def test_model_mu_zero_process_time_rejected():
    with pytest.raises(DomainError):
        model_mu(ServiceModelParams(0.5, 0.0, 0.599))


def test_model_mu_bad_delta_rejected():
    with pytest.raises(DomainError):
        ServiceModelParams(1.5, 0.005, 0.599)


def test_model_mu_strictly_decreasing_in_delta():
    values = [
        model_mu(ServiceModelParams(i / 100.0, 0.005, 0.599)) for i in range(101)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# overhead accounting


def test_interest_overhead_sum():
    p = OverheadParams(nonce_bytes=16, timestamp_bytes=8, signature_bytes=64, group_id_bytes=32)
    assert interest_overhead_bytes(p) == 120


def test_interest_overhead_zero():
    assert interest_overhead_bytes(OverheadParams(0, 0, 0, 0)) == 0


def test_content_overhead_sums_key_sizes():
    assert content_overhead_bytes(OverheadParams(key_sizes=(32, 32))) == 64
    assert content_overhead_bytes(OverheadParams(key_sizes=())) == 0


def _full_interest():
    material = crypto.gen_group(128, 1)
    ctx = ConsumerContext(
        group=material,
        mode=ConsumerMode.FULL,
        scheme=SchemeTag.ENC,
        clock=lambda: 1000.0,
        rng=random.Random(3),
    )
    name = Name.from_uri("/edu/uci/ics/home.html", 2)
    return material, interest_generation(ctx, (b"edu", b"uci"), name)


def test_interest_overhead_matches_wire_diff():
    material, full = _full_interest()
    bare = Interest(full.name)
    p = OverheadParams(
        nonce_bytes=len(full.payload.nonce),
        timestamp_bytes=8,
        signature_bytes=len(full.payload.signature),
        group_id_bytes=len(full.payload.group_id),
    )
    delta = len(encode_interest(full)) - len(encode_interest(bare))
    assert delta == interest_overhead_bytes(p) + analysis.INTEREST_AUTH_FRAMING_BYTES


def test_interest_overhead_vs_identity_only_payload():
    material, full = _full_interest()
    id_only = Interest(full.name, AuthorizationPayload(full.payload.group_id))
    p = OverheadParams(
        nonce_bytes=len(full.payload.nonce),
        timestamp_bytes=8,
        signature_bytes=len(full.payload.signature),
        group_id_bytes=len(full.payload.group_id),
    )
    delta = len(encode_interest(full)) - len(encode_interest(id_only))
    expected = (
        interest_overhead_bytes(p)
        - p.group_id_bytes
        + analysis.INTEREST_AUTH_VS_ID_ONLY_FRAMING_BYTES
    )
    assert delta == expected


def test_content_overhead_matches_wire_diff():
    name = Name.from_uri("/edu/uci/ics/home.html")
    keys = ((b"g" * 32, b"k" * 64), (b"h" * 32, b"l" * 64))
    with_keys = ContentObject(name, b"data", keys, 5, b"sig")
    without = ContentObject(name, b"data", (), 5, b"sig")
    delta = len(encode_content(with_keys)) - len(encode_content(without))
    p = OverheadParams(key_sizes=(64, 64))
    framing = 2 * analysis.content_key_entry_framing_bytes(group_id_bytes=32)
    assert delta == content_overhead_bytes(p) + framing


# ---------------------------------------------------------------------------
# bench


def test_bench_smoke_and_fields():
    result = bench_verification(key_bits=512, batch_size=3, payload_bytes=1024, trials=3)
    assert result.t_individual_s > 0 and result.t_batch_s > 0
    assert result.key_bits == 512 and result.batch_size == 3
    assert isinstance(result.improvement_pct, float)


def test_bench_batch_one_close_to_individual():
    result = bench_verification(key_bits=512, batch_size=1, payload_bytes=1024, trials=5)
    # degenerate batch: no amortization, so the two paths stay within noise
    assert abs(result.improvement_pct) < 60.0


def test_bench_rejects_bad_params():
    with pytest.raises(DomainError):
        bench_verification(batch_size=0)
    with pytest.raises(DomainError):
        bench_verification(trials=0)


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
    want = model_mu(ServiceModelParams(0.2, 0.005, 0.599))
    assert got == pytest.approx(want, rel=1e-6)


def test_mixture_rate_estimate_single_class():
    log = synth_log(period_ms=5.0)
    assert mixture_rate_estimate(log, "r1", delta=0.0) == pytest.approx(200.0, rel=1e-6)
    with pytest.raises(EmptyLog):
        mixture_rate_estimate(log, "r1", delta=0.5)


def test_csv_writers(tmp_path):
    analysis.write_mu_csv(tmp_path / "mu.csv", [(0.0, 200.0, 199.0)])
    analysis.write_bench_csv(
        tmp_path / "bench.csv",
        [analysis.BenchResult(512, 3, 1024, 3, 0.1, 0.05)],
    )
    analysis.write_overhead_csv(tmp_path / "oh.csv", [("interest", 120, 145, 25)])
    assert (tmp_path / "mu.csv").read_text().startswith("delta,mu_model,mu_measured")
    assert "512,3,1024" in (tmp_path / "bench.csv").read_text()
    assert "interest,120,145,25" in (tmp_path / "oh.csv").read_text()
