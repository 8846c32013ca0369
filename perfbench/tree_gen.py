"""Generator for the ``tree_batch`` workload's scenario dictionary.

The shape is fixed so every seed asks for the same amount of work: one
producer behind an INDIVIDUAL-verify core router, ``EDGES`` edge routers in
BATCH mode, ``CONSUMERS_PER_EDGE`` FULL-mode consumers per edge that mix
groups and ENC/HASH schemes, and a catalog that covers every protection
policy.  The seed draws what a real population would vary: group keys,
Poisson fetch times, Zipf-distributed content choices, and the simulator's
own RNG (nonces, batch exponents).

Consumers only ask for protected content of their own scheme, because a
scheme mismatch is a misconfiguration, not a protocol path.  They do ask
for every PUBLIC name, as a real FULL-mode consumer would; the HASH ones
then hit a known defect (see NOTES.md) that this workload keeps visible.
"""

from __future__ import annotations

import random

EDGES = 4
CONSUMERS_PER_EDGE = 5
GROUPS = 3
SCHEMES = ("ENC", "HASH")
FETCHES = 1200
TRAFFIC_MS = 8_000.0
DRAIN_MS = 6_000.0  # > the 4 s PIT lifetime, so every fetch resolves
ZIPF_S = 1.0
FORGERIES = 50
BATCH_SIZE = 8
BATCH_TIMEOUT_MS = 100.0
PREFIX = "/org/tree"
# catalog expiries cycle through these; short, so caches churn back to p1
EXPIRIES_MS = (1_500, 2_000, 2_500, 3_000)
MULTI_GROUP = ((0, 1, "ENC"), (1, 2, "HASH"), (0, 2, "HASH"), (0, 1, 2, "ENC"))
PUBLIC_ITEMS = 4


def _catalog() -> list[dict]:
    """Contents in popularity-rank order (rank 1 first); seed-independent."""
    full, obf, multi, public = [], [], [], []
    for g in range(GROUPS):
        for scheme in SCHEMES:
            for i in range(2):
                full.append(
                    {"name": f"{PREFIX}/g{g}/{scheme.lower()}/item{i}",
                     "groups": [f"g{g}"], "scheme": scheme, "policy": "FULL"}
                )
            obf.append(
                {"name": f"{PREFIX}/g{g}/{scheme.lower()}/open",
                 "groups": [f"g{g}"], "scheme": scheme, "policy": "OBFUSCATE_ONLY"}
            )
    for i, spec in enumerate(MULTI_GROUP):
        *members, scheme = spec
        multi.append(
            {"name": f"{PREFIX}/shared/m{i}", "groups": [f"g{g}" for g in members],
             "scheme": scheme, "policy": "FULL"}
        )
    for i in range(PUBLIC_ITEMS):
        public.append({"name": f"{PREFIX}/public/p{i}", "policy": "PUBLIC"})
    # interleave the kinds so every consumer's Zipf head mixes policies
    ranked = []
    pools = [full, multi, obf, public]
    while any(pools):
        for pool in pools:
            if pool:
                ranked.append(pool.pop(0))
    for i, c in enumerate(ranked):
        c["expiry_ms"] = EXPIRIES_MS[i % len(EXPIRIES_MS)]
        c["data_size"] = 256
    return ranked


def _consumers() -> list[dict]:
    out = []
    for e in range(EDGES):
        for c in range(CONSUMERS_PER_EDGE):
            j = e * CONSUMERS_PER_EDGE + c
            # two consumers per edge share a group and scheme, so their
            # cache hits on one name can meet in a batch
            out.append(
                {"id": f"c{j}", "role": "consumer", "group": f"g{(e + (c >= 3)) % GROUPS}",
                 "mode": "FULL", "scheme": "HASH" if c in (2, 3) else "ENC", "edge": f"e{e}"}
            )
    return out


def _accessible(consumer: dict, catalog: list[dict]) -> list[str]:
    names = []
    for c in catalog:
        if c["policy"] == "PUBLIC":
            names.append(c["name"])
        elif consumer["group"] in c["groups"] and c["scheme"] == consumer["scheme"]:
            names.append(c["name"])
    return names


def _zipf_weights(n: int) -> list[float]:
    return [1.0 / (rank ** ZIPF_S) for rank in range(1, n + 1)]


def generate(seed: int) -> dict:
    """The tree_batch scenario as a raw dict for ``scenario_from_dict``."""
    rng = random.Random(f"tree_batch:{seed}")
    catalog = _catalog()
    consumers = _consumers()
    nodes = [
        {"id": "p1", "role": "producer", "prefix": PREFIX,
         "tau_process_s": 0.0005, "tau_verify_s": 0.001},
        {"id": "core", "role": "router", "verify_mode": "INDIVIDUAL",
         "tau_process_s": 0.0002, "tau_verify_s": 0.001},
    ]
    links = [["core", "p1", 20]]
    for e in range(EDGES):
        nodes.append(
            {"id": f"e{e}", "role": "router", "verify_mode": "BATCH",
             "batch_size": BATCH_SIZE, "batch_timeout_ms": BATCH_TIMEOUT_MS,
             "tau_process_s": 0.0002, "tau_verify_s": 0.001}
        )
        links.append([f"e{e}", "core", 10])
    for c in consumers:
        nodes.append({k: v for k, v in c.items() if k != "edge"})
        links.append([c["id"], c["edge"], 5])

    # open-loop Poisson fetches, conditioned on a fixed count per consumer so
    # every seed asks for the same amount of work: given their number, the
    # arrival times of a Poisson process are independent uniform draws
    per_consumer = FETCHES // len(consumers)
    fetches = []
    for c in consumers:
        names = _accessible(c, catalog)
        weights = _zipf_weights(len(names))
        for _ in range(per_consumer):
            at = rng.uniform(0.0, TRAFFIC_MS)
            name = rng.choices(names, weights)[0]
            fetches.append({"consumer": c["id"], "name": name, "at_ms": round(at, 3)})
    fetches.sort(key=lambda f: (f["at_ms"], f["consumer"]))

    tapped = consumers[0]
    nodes.append({"id": "adv", "role": "adversary"})
    links.append(["adv", tapped["edge"], 5])
    adversary = {
        "node": "adv",
        "keypair_seed": rng.getrandbits(32),
        "taps": [[tapped["id"], tapped["edge"]]],
        "actions": [
            {"kind": "FORGE_PAYLOAD", "at_ms": 1_000, "target": tapped["edge"],
             "capture": "cycle", "count": FORGERIES,
             "interval_ms": (TRAFFIC_MS - 1_000) / FORGERIES, "label": "forge_at_edge"}
        ],
    }
    return {
        "name": "tree_batch",
        "seed": rng.getrandbits(32),
        "kappa": 128,
        "duration_ms": TRAFFIC_MS + DRAIN_MS,
        "nodes": nodes,
        "links": links,
        "groups": [{"id": f"g{g}", "seed": rng.getrandbits(32)} for g in range(GROUPS)],
        "contents": catalog,
        "fetches": fetches,
        "adversary": adversary,
    }
