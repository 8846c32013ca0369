"""Analytic service-rate model, wire-overhead accounting, and verification
micro-benchmarks.

The router service-rate model treats an arrival mix in which a fraction
``delta`` of interests require a signature verification on top of base
processing:

    mu = (1 - delta) / tau_process + delta / (tau_process + tau_verify)

i.e. the arrival-weighted mix of the two per-class service rates.  Note
that the raw throughput of a saturated FIFO queue fed the same mix is the
harmonic combination ``1 / ((1-delta)*tau_p + delta*(tau_p+tau_v))``, a
much smaller number for intermediate ``delta``; to compare a simulation
against the model, measure the per-class service times and recombine them
with the formula (``mixture_rate_estimate`` below does exactly that from
an emission log).
"""

from __future__ import annotations

import random
import statistics
import time
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path

from . import crypto
from .simnet import INTEREST_COMPLETION_KINDS


class DomainError(ValueError):
    pass


class EmptyLog(ValueError):
    pass


# -- analytic model ----------------------------------------------------------


@dataclass(frozen=True)
class ServiceModelParams:
    delta: float
    tau_process_s: float
    tau_verify_s: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.delta <= 1.0:
            raise DomainError("delta must lie in [0, 1]")
        if self.tau_process_s < 0 or self.tau_verify_s < 0:
            raise DomainError("service times must be non-negative")


def model_mu(params: ServiceModelParams) -> float:
    """Interests served per second under the two-class service model."""
    if params.tau_process_s == 0:
        raise DomainError("tau_process must be positive")
    mu = (1.0 - params.delta) / params.tau_process_s
    if params.delta:
        mu += params.delta / (params.tau_process_s + params.tau_verify_s)
    return mu


# -- bandwidth overhead -------------------------------------------------------


@dataclass(frozen=True)
class OverheadParams:
    nonce_bytes: int = 16
    timestamp_bytes: int = 8
    signature_bytes: int = 96
    group_id_bytes: int = 32
    key_sizes: tuple[int, ...] = ()

    def __post_init__(self):
        for value in (
            self.nonce_bytes,
            self.timestamp_bytes,
            self.signature_bytes,
            self.group_id_bytes,
        ):
            if value < 0:
                raise DomainError("sizes must be non-negative")


def interest_overhead_bytes(params: OverheadParams) -> int:
    """Payload bytes added to an interest that carries full authorization."""
    return (
        params.nonce_bytes
        + params.timestamp_bytes
        + params.signature_bytes
        + params.group_id_bytes
    )


def content_overhead_bytes(params: OverheadParams) -> int:
    """Key bytes added to a content object authorized for ``len(key_sizes)`` groups."""
    return sum(params.key_sizes)


# TLV framing constants for the encode-and-diff checks: adding a full
# authorization payload to a bare interest costs the payload fields plus one
# payload header (4), five field headers (20), and the one-byte encrypted
# flag; relative to an identity-only payload the group id and flag are
# already present, leaving three field headers (12).  Each verification key
# entry on a content object costs its key bytes plus an entry header (4), a
# nested group-id header (4), and the group id itself.
INTEREST_AUTH_FRAMING_BYTES = 25
INTEREST_AUTH_VS_ID_ONLY_FRAMING_BYTES = 12


def content_key_entry_framing_bytes(group_id_bytes: int = 32) -> int:
    return 8 + group_id_bytes


# -- verification benchmark ---------------------------------------------------


@dataclass(frozen=True)
class BenchResult:
    key_bits: int
    batch_size: int
    payload_bytes: int
    trials: int
    t_individual_s: float
    t_batch_s: float

    @property
    def improvement_pct(self) -> float:
        if self.t_individual_s == 0:
            return 0.0
        return (self.t_individual_s - self.t_batch_s) / self.t_individual_s * 100.0


# Published reference timings for ElGamal-family batch verification on
# mid-2010s commodity hardware; informational context for the local bench,
# never an assertion target (absolute times are hardware-bound).
REFERENCE_VERIFICATION_TIMINGS = {
    (1024, 10, 512 * 1024): (0.599, 0.322, 46),
    (1024, 10, 8 * 1024 * 1024): (0.888, 0.615, 30),
    (1024, 50, 512 * 1024): (2.918, 1.579, 46),
    (1024, 50, 8 * 1024 * 1024): (4.315, 2.991, 30),
    (2048, 10, 512 * 1024): (4.065, 2.207, 46),
    (2048, 10, 8 * 1024 * 1024): (4.104, 2.269, 45),
    (2048, 50, 512 * 1024): (20.081, 11.029, 45),
    (2048, 50, 8 * 1024 * 1024): (21.301, 12.536, 41),
    (3072, 10, 512 * 1024): (12.406, 6.789, 45),
    (3072, 10, 8 * 1024 * 1024): (12.804, 7.122, 44),
    (3072, 50, 512 * 1024): (60.174, 32.877, 45),
    (3072, 50, 8 * 1024 * 1024): (64.347, 35.601, 45),
}


def bench_verification(
    key_bits: int = 1024,
    batch_size: int = 10,
    payload_bytes: int = 512 * 1024,
    trials: int = 10,
    seed: int = 0x1BAC,
) -> BenchResult:
    """Median times to verify ``batch_size`` signatures one by one vs batched.

    ``payload_bytes`` is the size of each signed message; hashing it is part
    of both code paths.  A batch size of 1 is the degenerate case and should
    match individual verification up to noise.
    """
    if batch_size < 1:
        raise DomainError("batch_size must be at least 1")
    if trials < 1:
        raise DomainError("trials must be at least 1")
    group = crypto.signature_group(key_bits)
    rng = random.Random(seed)
    x = rng.randrange(1, group.q)
    y = crypto.generator_power(group, x)
    messages = [rng.randbytes(payload_bytes) for _ in range(batch_size)]
    signatures = [crypto.schnorr_sign(group, x, m) for m in messages]
    items = list(zip(messages, signatures))

    individual_times = []
    batch_times = []
    for _ in range(trials):
        t0 = time.perf_counter()
        ok = all(crypto.schnorr_verify(group, y, m, s) for m, s in items)
        t1 = time.perf_counter()
        ok_batch = crypto.schnorr_batch_verify(group, y, items, rng)
        t2 = time.perf_counter()
        if not (ok and ok_batch):
            raise AssertionError("benchmark signatures failed to verify")
        individual_times.append(t1 - t0)
        batch_times.append(t2 - t1)
    return BenchResult(
        key_bits,
        batch_size,
        payload_bytes,
        trials,
        statistics.median(individual_times),
        statistics.median(batch_times),
    )


# -- emission-log measurement ---------------------------------------------------


def _read_log(log) -> list[str]:
    if isinstance(log, (str, Path)):
        return Path(log).read_text().splitlines()
    return list(log)


def _parse_rows(log):
    rows = []
    for line in _read_log(log):
        if not line.strip():
            continue
        t, node, kind, name_hex, reason = line.split("\t")
        rows.append((float(t), node, kind, name_hex, reason))
    return rows


def _completions(rows, node):
    return [
        (t, reason)
        for t, n, kind, _, reason in rows
        if n == node and kind in INTEREST_COMPLETION_KINDS
    ]


def measure_service_rate(log, window_ms: float, node: str | None = None):
    """Interests fully processed per second, per window of the emission log.

    Returns a list of (window_start_ms, rate_per_s) covering the node's
    completion events.  With ``node`` unset, the busiest node is measured.
    """
    rows = _parse_rows(log)
    if not rows:
        raise EmptyLog("emission log holds no events")
    if node is None:
        per_node: dict[str, int] = {}
        for _, n, kind, _, _ in rows:
            if kind in INTEREST_COMPLETION_KINDS:
                per_node[n] = per_node.get(n, 0) + 1
        if not per_node:
            raise EmptyLog("no interest completions in log")
        node = max(per_node, key=lambda k: (per_node[k], k))
    completions = _completions(rows, node)
    if not completions:
        raise EmptyLog(f"no interest completions at {node}")
    t_first = completions[0][0]
    t_last = completions[-1][0]
    times = sorted(t for t, _ in completions)
    out = []
    start = t_first
    lo = bisect_left(times, start)
    while start <= t_last:
        end = start + window_ms
        hi = bisect_left(times, end, lo)
        out.append((start, (hi - lo) / (window_ms / 1000.0)))
        start, lo = end, hi
    return out


def class_service_times(log, node: str, t0: float = 0.0, t1: float = float("inf")):
    """Back-to-back completion gaps split into verified/plain service classes.

    Meaningful when the node is saturated, where each gap is one service
    time; use the median of each class to discount idle gaps.
    """
    rows = _parse_rows(log)
    completions = [(t, reason) for t, reason in _completions(rows, node) if t0 <= t <= t1]
    out = {"verified": [], "plain": []}
    for (t_prev, _), (t_cur, reason) in zip(completions, completions[1:]):
        gap = t_cur - t_prev
        if gap <= 0:
            continue
        out["verified" if reason == "verified" else "plain"].append(gap)
    return out


def mixture_rate_estimate(
    log, node: str, delta: float, t0: float = 0.0, t1: float = float("inf")
) -> float:
    """Measured counterpart of ``model_mu``: per-class medians recombined."""
    classes = class_service_times(log, node, t0, t1)
    mu = 0.0
    if delta < 1.0:
        if not classes["plain"]:
            raise EmptyLog("no plain-class completions to measure")
        mu += (1.0 - delta) / (statistics.median(classes["plain"]) / 1000.0)
    if delta > 0.0:
        if not classes["verified"]:
            raise EmptyLog("no verified-class completions to measure")
        mu += delta / (statistics.median(classes["verified"]) / 1000.0)
    return mu


# -- CSV emission ----------------------------------------------------------------


def write_mu_csv(path, rows) -> None:
    """rows: iterable of (delta, mu_model, mu_measured)."""
    lines = ["delta,mu_model,mu_measured"]
    lines += [f"{d},{m},{meas}" for d, m, meas in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def write_bench_csv(path, results) -> None:
    lines = ["key_size,batch_size,sig_size,t_individual,t_batch,improvement_pct"]
    for r in results:
        lines.append(
            f"{r.key_bits},{r.batch_size},{r.payload_bytes},"
            f"{r.t_individual_s:.6f},{r.t_batch_s:.6f},{r.improvement_pct:.1f}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_overhead_csv(path, rows) -> None:
    """rows: iterable of (quantity, analytic_bytes, measured_bytes, framing_bytes)."""
    lines = ["quantity,analytic_bytes,measured_bytes,framing_bytes"]
    lines += [f"{q},{a},{m},{f}" for q, a, m, f in rows]
    Path(path).write_text("\n".join(lines) + "\n")
