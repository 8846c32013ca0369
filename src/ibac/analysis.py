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

import math
import random
import statistics
import time
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from . import crypto
from .simnet import INTEREST_COMPLETION_KINDS


class DomainError(ValueError):
    pass


class EmptyLog(ValueError):
    pass


# -- analytic model ----------------------------------------------------------


def model_mu(delta: float, tau_process_s: float, tau_verify_s: float = 0.0) -> float:
    """Interests served per second under the two-class service model."""
    if not 0.0 <= delta <= 1.0:
        raise DomainError("delta must lie in [0, 1]")
    if not (0.0 <= tau_process_s < math.inf and 0.0 <= tau_verify_s < math.inf):
        raise DomainError("service times must be finite and non-negative")
    if tau_process_s == 0:
        raise DomainError("tau_process must be positive")
    mu = (1.0 - delta) / tau_process_s
    if delta:
        mu += delta / (tau_process_s + tau_verify_s)
    return mu


# -- bandwidth overhead -------------------------------------------------------


def interest_overhead_bytes(
    nonce_bytes: int, timestamp_bytes: int, signature_bytes: int, group_id_bytes: int
) -> int:
    """Payload bytes added to an interest that carries full authorization."""
    return nonce_bytes + timestamp_bytes + signature_bytes + group_id_bytes


def content_overhead_bytes(key_sizes) -> int:
    """Key bytes added to a content object authorized for ``len(key_sizes)`` groups."""
    return sum(key_sizes)


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
    if payload_bytes < 0:
        raise DomainError("payload_bytes must not be negative")
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


def _node_completions(lines, node: str, t0: float = 0.0, t1: float = math.inf):
    """``(time, reason)`` of each of ``node``'s interest completions within
    ``[t0, t1]``, in log order."""
    # a line is the node's only if its second field is the node, so only
    # lines holding the node as a whole field are split and parsed
    field = f"\t{node}\t"
    completions = []
    for line in lines:
        if field not in line:
            continue
        t, n, kind, _, reason = line.split("\t")
        t = float(t)
        if n == node and kind in INTEREST_COMPLETION_KINDS and t0 <= t <= t1:
            completions.append((t, reason))
    return completions


def measure_service_rate(log, window_ms: float, node: str | None = None):
    """Interests fully processed per second, per window of the emission log.

    Returns a list of (window_start_ms, rate_per_s) covering the node's
    completion events.  With ``node`` unset, the busiest node is measured.
    A window that is not a finite positive number is refused with
    ``DomainError``.
    """
    if not 0.0 < window_ms < math.inf:
        raise DomainError(f"window_ms must be finite and positive, got {window_ms!r}")
    lines = _read_log(log)
    if node is None:
        per_node: Counter = Counter()
        for line in filter(str.strip, lines):
            if line.startswith("#"):  # a sweep log's "# delta=" point marks
                continue
            _, n, kind, _, _ = line.split("\t")
            if kind in INTEREST_COMPLETION_KINDS:
                per_node[n] += 1
        if not per_node:
            raise EmptyLog("no interest completions in log")
        node = max(per_node, key=lambda k: (per_node[k], k))
    completions = _node_completions(lines, node)
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
    completions = _node_completions(_read_log(log), node, t0, t1)
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


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then each row, their fields joined by commas."""
    lines = [",".join(header), *(",".join(map(str, row)) for row in rows)]
    Path(path).write_text("\n".join(lines) + "\n")
