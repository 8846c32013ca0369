"""The benchmark's workloads: set-up, one timed execution, and its checks.

``prepare`` builds a workload's input from the seed and returns a closure
that runs it; only the closure is timed as ``wall_s``.  Every execution
checks the program's outputs and returns the failures it found, the
emission log, and the simulated metrics read from the log.
"""

from __future__ import annotations

import hashlib
import random
import statistics
from collections import deque
from dataclasses import dataclass, field

from ibac import scenario
from ibac.scenario import FetchSpec

import tree_gen

# sizes chosen so that one execution takes about two seconds on a 2-CPU host
SWEEP_INTERESTS_PER_POINT = 300
PROBES = 20_000
PROBE_INTERVAL_MS = 0.2  # acceptance-4 settings
PROBE_TAU_S = 0.0001
BACKGROUND_FETCHES = 300
MU_TOLERANCE = 0.10


@dataclass
class Outcome:
    lines: list[str]  # the emission log (sweep points joined as emission.log does)
    failures: list[str] = field(default_factory=list)
    sim: dict = field(default_factory=dict)  # simulated metrics, fixed by the seed
    notes: dict = field(default_factory=dict)  # counts printed for reading


def derived_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{label}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def log_digest(lines: list[str]) -> str:
    """sha256 of the bytes ``ibac run`` writes to emission.log."""
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


def _validate(config) -> None:
    errors = scenario.validate(config)
    if errors:
        raise scenario.ValidationError(errors)


def honest_delivery(lines: list[str], consumers: set[str]) -> tuple[list[float], int, int]:
    """Latencies (ms) of delivered consumer fetches, plus sent and delivered counts.

    A consumer hands an arriving content to its oldest outstanding request
    for that name, so sends are paired with deliveries first-in first-out.
    """
    waiting: dict[tuple[str, str], deque] = {}
    latencies = []
    sent = 0
    for line in lines:
        t, node, kind, name_hex, _ = line.split("\t")
        if node not in consumers:
            continue
        if kind == "int_sent":
            sent += 1
            waiting.setdefault((node, name_hex), deque()).append(float(t))
        elif kind == "content_delivered":
            latencies.append(float(t) - waiting[(node, name_hex)].popleft())
    return latencies, sent, len(latencies)


def _sim_metrics(latencies: list[float], sent: int, delivered: int) -> dict:
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return {
        "delivered_ratio": delivered / sent,
        "sim.latency_p50_ms": statistics.median(latencies),
        "sim.latency_p99_ms": cuts[98],
        "sim.undelivered_ratio": (sent - delivered) / sent,
    }


def _consumers(config) -> set[str]:
    return {n.id for n in config.nodes if n.role == "consumer"}


# -- service_sweep ---------------------------------------------------------------


def prepare_service_sweep(seed: int):
    config = scenario.load_bundled("service_rate_sweep")
    config.seed = derived_seed(seed, "service_sweep")
    config.sweep.interests_per_point = SWEEP_INTERESTS_PER_POINT
    _validate(config)
    # run_sweep builds one simulation per point from this config; building
    # it once here is the set-up a user pays before the sweep starts
    scenario.build(config)
    return lambda: run_service_sweep(config)


def run_service_sweep(config) -> Outcome:
    points, results = scenario.run_sweep(config)
    failures = []
    merged = []
    for point, result in zip(points, results):
        merged += [f"# delta={point.delta}"] + result.log_lines
        rel = abs(point.mu_measured - point.mu_model) / point.mu_model
        if rel > MU_TOLERANCE:
            failures.append(
                f"delta={point.delta}: mu measured {point.mu_measured:.3f} vs "
                f"model {point.mu_model:.3f} ({rel:.1%} > {MU_TOLERANCE:.0%})"
            )
    latencies, sent, delivered = [], 0, 0
    consumers = _consumers(config)
    for result in results:
        lat, s, d = honest_delivery(result.log_lines, consumers)
        latencies += lat
        sent += s
        delivered += d
    return Outcome(
        lines=merged,
        failures=failures,
        sim=_sim_metrics(latencies, sent, delivered),
        notes={
            "mu_rel_error": {p.delta: round(abs(p.mu_measured / p.mu_model - 1), 6) for p in points},
            "completions": {p.delta: p.completions for p in points},
        },
    )


# -- probe_flood ---------------------------------------------------------------------


def prepare_probe_flood(seed: int):
    config = scenario.load_bundled("name_probe")
    config.seed = derived_seed(seed, "probe_flood")
    probe = config.adversary.actions[0]
    probe.count = PROBES
    probe.interval_ms = PROBE_INTERVAL_MS
    for node in config.nodes:
        if node.role in ("router", "producer"):
            node.tau_process_s = PROBE_TAU_S
            node.tau_verify_s = PROBE_TAU_S
    flood_ms = PROBES * PROBE_INTERVAL_MS
    # honest background traffic during the flood: the OBFUSCATE_ONLY consumer
    # re-fetches its feed (a cache hit needing no signature), so honest
    # latency under probing is measured without adding cryptography
    rng = random.Random(derived_seed(seed, "probe_flood.background"))
    for _ in range(BACKGROUND_FETCHES):
        at = probe.at_ms + rng.uniform(0.0, flood_ms)
        config.fetches.append(FetchSpec("cr2", "/edu/uci/open/feed", round(at, 3)))
    config.fetches.sort(key=lambda f: f.at_ms)
    # drain past the 4 s PIT lifetime so every probe resolves before the horizon
    config.duration_ms = probe.at_ms + flood_ms + 5_000.0
    _validate(config)
    sim, info = scenario.build(config)
    return lambda: run_probe_flood(config, sim, info)


def run_probe_flood(config, sim, info) -> Outcome:
    result = sim.run()
    scenario.check_invariants(result, sim)
    failures = []
    stat = result.attack_stat("NAME_PROBE")
    captured = result.captured_probe_outcomes
    if stat.attempts != PROBES + 2:
        failures.append(f"probe attempts {stat.attempts} != {PROBES + 2}")
    random_successes = stat.successes - sum(captured.values())
    if random_successes != 0:
        failures.append(f"{random_successes} random probes were answered")
    unknown = result.drop_total("UnknownName")
    if unknown != PROBES:
        failures.append(f"{unknown} UnknownName drops for {PROBES} random probes")
    full_hex = scenario.content_wire_name(info, "/edu/uci/private/report").hex()
    obf_hex = scenario.content_wire_name(info, "/edu/uci/open/feed").hex()
    if captured.get(obf_hex) != 1:
        failures.append("captured OBFUSCATE_ONLY name was not served exactly once")
    if captured.get(full_hex) != 0:
        failures.append("captured FULL name was served without a payload")
    latencies, sent, delivered = honest_delivery(result.log_lines, _consumers(config))
    return Outcome(
        lines=result.log_lines,
        failures=failures,
        sim=_sim_metrics(latencies, sent, delivered),
        notes={"unknown_name_drops": unknown},
    )


# -- tree_batch --------------------------------------------------------------------------


def prepare_tree_batch(seed: int):
    config = scenario.scenario_from_dict(tree_gen.generate(seed), "tree_batch")
    sim, info = scenario.build(config)
    return lambda: run_tree_batch(config, sim, info)


def run_tree_batch(config, sim, info) -> Outcome:
    result = sim.run()
    scenario.check_invariants(result, sim)
    failures = []
    full_names = {
        scenario.content_wire_name(info, c.name).hex()
        for c in config.contents
        if c.policy == "FULL"
    }
    forged_served = 0
    for line in result.log_lines:
        _, node, kind, name_hex, reason = line.split("\t")
        if kind == "adv_content" and reason == "FORGE_PAYLOAD" and name_hex in full_names:
            forged_served += 1
    if forged_served:
        failures.append(f"{forged_served} forged interests for FULL names were answered")
    latencies, sent, delivered = honest_delivery(result.log_lines, _consumers(config))
    forge = result.attack_stat("FORGE_PAYLOAD")
    return Outcome(
        lines=result.log_lines,
        failures=failures,
        sim=_sim_metrics(latencies, sent, delivered),
        notes={
            "drops": {r: result.drop_total(r) for r in ("CacheExpired", "UnknownName", "BadSignature")},
            "forged": {"attempts": forge.attempts, "answered": forge.successes},
        },
    )


PREPARE = {
    "service_sweep": prepare_service_sweep,
    "probe_flood": prepare_probe_flood,
    "tree_batch": prepare_tree_batch,
}


def bundled_digests() -> dict[str, str]:
    """Emission-log digest of every bundled non-sweep scenario at its own seed."""
    out = {}
    for name in scenario.BUNDLED_SCENARIOS:
        config = scenario.load_bundled(name)
        if config.sweep is not None:
            continue
        result, _ = scenario.run_config(config)
        out[name] = log_digest(result.log_lines)
    return out
