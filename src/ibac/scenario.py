"""Scenario configuration: loading, validation, building, and running.

A scenario file is YAML describing the topology (nodes, links), access
groups, the content catalog with per-content protection policy, scripted
fetches and/or a Poisson traffic profile, optional adversary actions, and
optional revocation (rekey) events.  ``load_scenario`` validates the whole
file and reports every problem at once; ``run_scenario`` executes a
validated configuration and writes the emission log, a JSON summary,
and metrics CSVs.

``load_scenario`` reads the file as bytes, so YAML's encoding rules apply
(UTF-8, or UTF-16 by byte-order mark), not the locale's.  It parses with
libyaml's C parser when PyYAML was built with libyaml, and with PyYAML's
pure-Python parser otherwise; both build values with PyYAML's safe
constructor, so a file gives the same configuration either way.
"""

from __future__ import annotations

import copy
import hashlib
import json
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import yaml

from . import analysis, crypto
from .consumer import ConsumerMode
from .producer import Producer, ProtectionPolicy
from .router import Router, VerifyMode, VerifyStrategy
from .simnet import AdversaryAction, RunResult, Simulation, TrafficProfile
from .wire import Name, SchemeTag

DEFAULT_TAU_PROCESS_S = 0.005
DEFAULT_TAU_VERIFY_S = 0.599


class ParseError(Exception):
    pass


class ValidationError(Exception):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class InvariantViolation(AssertionError):
    pass


@dataclass
class NodeSpec:
    id: str
    role: str
    group: str | None = None
    mode: str = "FULL"
    scheme: str = "ENC"
    clock_offset_ms: float = 0.0
    prefix: str | None = None
    verify_mode: str = "INDIVIDUAL"
    batch_size: int = 10
    batch_timeout_ms: float = 100.0
    pit_lifetime_ms: float = 4000.0
    tau_process_s: float = DEFAULT_TAU_PROCESS_S
    tau_verify_s: float = DEFAULT_TAU_VERIFY_S
    window_ms: float | None = None
    skew_ms: float = 1000.0


@dataclass
class GroupSpec:
    id: str
    seed: int


@dataclass
class ContentSpec:
    name: str
    groups: list[str] = field(default_factory=list)
    scheme: str = "ENC"
    policy: str = "FULL"
    expiry_ms: int = 60_000
    data_size: int = 64
    data: str | None = None
    extra_key_groups: list[str] = field(default_factory=list)


@dataclass
class FetchSpec:
    consumer: str
    name: str
    at_ms: float


@dataclass
class AdversarySpec:
    node: str
    keypair_seed: int = 0xADF
    taps: list[list[str]] = field(default_factory=list)
    actions: list[AdversaryAction] = field(default_factory=list)


@dataclass
class RekeySpec:
    at_ms: float
    content: str
    new_groups: list[str]
    revoke_groups: list[str] = field(default_factory=list)


@dataclass
class SweepSpec:
    router: str
    deltas: list[float] = field(default_factory=lambda: [0.0, 0.2, 0.5, 1.0])
    interests_per_point: int = 10_000
    tail_ms: float = 60_000.0
    saturation_factor: float = 2.0


@dataclass
class ScenarioConfig:
    name: str
    seed: int = 0
    kappa: int = 128
    duration_ms: float = 60_000.0
    expiry_sweep_ms: float = 500.0
    encrypted_group_ids: bool = False
    record_wire: bool = False
    nodes: list[NodeSpec] = field(default_factory=list)
    links: list[tuple[str, str, float]] = field(default_factory=list)
    groups: list[GroupSpec] = field(default_factory=list)
    contents: list[ContentSpec] = field(default_factory=list)
    fetches: list[FetchSpec] = field(default_factory=list)
    traffic: TrafficProfile | None = None
    adversary: AdversarySpec | None = None
    rekeys: list[RekeySpec] = field(default_factory=list)
    sweep: SweepSpec | None = None


@dataclass
class BuildInfo:
    config: ScenarioConfig
    materials: dict  # group id string -> GroupKeyMaterial
    content_keys: dict  # name components -> obfuscation key bytes
    content_names: dict  # content name string -> Name
    producers: dict  # node id -> Producer
    producer_keys: dict  # node id -> ProducerKeyPair | None
    prefix_of: dict  # name components -> producer prefix tuple


BUNDLED_SCENARIOS = (
    "figure_sequence",
    "replay_same_path",
    "replay_cross_path",
    "forgery",
    "name_probe",
    "multi_group",
    "mode_matrix",
    "revocation_expiry",
    "service_rate_sweep",
)


def _derived_seed(base: int, label: str) -> int:
    digest = hashlib.sha256(f"{base}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _content_data(config_seed: int, spec: ContentSpec) -> bytes:
    if spec.data is not None:
        return spec.data.encode()
    out = bytearray()
    counter = 0
    while len(out) < spec.data_size:
        out += hashlib.sha256(f"{config_seed}:{spec.name}:{counter}".encode()).digest()
        counter += 1
    return bytes(out[: spec.data_size])


# -- parsing -------------------------------------------------------------------


def _build_dataclass(cls, raw: dict, where: str, errors: list[str]):
    known = set(cls.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        errors.append(f"{where}: unknown keys {sorted(unknown)}")
    kwargs = {k: v for k, v in raw.items() if k in known}
    try:
        return cls(**kwargs)
    except TypeError as exc:
        errors.append(f"{where}: {exc}")
        return None


def scenario_from_dict(raw: dict, source: str = "<dict>") -> ScenarioConfig:
    errors: list[str] = []
    if not isinstance(raw, dict):
        raise ParseError(f"{source}: top level must be a mapping")
    config = ScenarioConfig(name=str(raw.get("name", Path(source).stem)))
    config.seed = raw.get("seed", 0)
    config.kappa = raw.get("kappa", 128)
    config.duration_ms = raw.get("duration_ms", 60_000.0)
    config.expiry_sweep_ms = raw.get("expiry_sweep_ms", 500.0)
    config.encrypted_group_ids = bool(raw.get("encrypted_group_ids", False))
    config.record_wire = bool(raw.get("record_wire", False))

    for i, item in enumerate(raw.get("nodes", [])):
        spec = _build_dataclass(NodeSpec, item, f"nodes[{i}]", errors)
        if spec:
            config.nodes.append(spec)
    for i, item in enumerate(raw.get("links", [])):
        if not (isinstance(item, (list, tuple)) and len(item) == 3):
            errors.append(f"links[{i}]: expected [a, b, latency_ms]")
            continue
        if not isinstance(item[2], (int, float)):
            errors.append(f"links[{i}]: latency_ms must be a number")
            continue
        config.links.append((str(item[0]), str(item[1]), float(item[2])))
    for i, item in enumerate(raw.get("groups", [])):
        spec = _build_dataclass(GroupSpec, item, f"groups[{i}]", errors)
        if spec:
            config.groups.append(spec)
    for i, item in enumerate(raw.get("contents", [])):
        spec = _build_dataclass(ContentSpec, item, f"contents[{i}]", errors)
        if spec:
            config.contents.append(spec)
    for i, item in enumerate(raw.get("fetches", [])):
        spec = _build_dataclass(FetchSpec, item, f"fetches[{i}]", errors)
        if spec:
            config.fetches.append(spec)
    if "traffic" in raw and raw["traffic"] is not None:
        config.traffic = _build_dataclass(TrafficProfile, raw["traffic"], "traffic", errors)
    if "adversary" in raw and raw["adversary"] is not None:
        adv_raw = dict(raw["adversary"])
        actions_raw = adv_raw.pop("actions", [])
        adv = _build_dataclass(AdversarySpec, adv_raw, "adversary", errors)
        if adv:
            for i, item in enumerate(actions_raw):
                spec = _build_dataclass(AdversaryAction, item, f"adversary.actions[{i}]", errors)
                if spec:
                    adv.actions.append(spec)
            config.adversary = adv
    for i, item in enumerate(raw.get("rekeys", [])):
        spec = _build_dataclass(RekeySpec, item, f"rekeys[{i}]", errors)
        if spec:
            config.rekeys.append(spec)
    if "sweep" in raw and raw["sweep"] is not None:
        config.sweep = _build_dataclass(SweepSpec, raw["sweep"], "sweep", errors)

    errors.extend(validate(config))
    if errors:
        raise ValidationError(errors)
    return config


def load_scenario(path) -> ScenarioConfig:
    path = Path(path)
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)  # absent without libyaml
    try:
        raw = yaml.load(path.read_bytes(), Loader=loader)
    except yaml.YAMLError as exc:
        # one line; the parser's own message spans several and names "<byte string>"
        mark = getattr(exc, "problem_mark", None)
        where = f"{path}:{mark.line + 1}:{mark.column + 1}" if mark else str(path)
        problem = getattr(exc, "problem", None) or str(exc).partition("\n")[0]
        raise ParseError(f"{where}: {problem}") from exc
    return scenario_from_dict(raw, str(path))


def bundled_scenario_path(name: str) -> Path:
    ref = resources.files("ibac").joinpath("scenarios", f"{name}.yaml")
    with resources.as_file(ref) as concrete:
        return Path(concrete)


def load_bundled(name: str) -> ScenarioConfig:
    if name not in BUNDLED_SCENARIOS:
        raise ParseError(f"unknown bundled scenario {name!r}; have {BUNDLED_SCENARIOS}")
    return load_scenario(bundled_scenario_path(name))


# -- validation -----------------------------------------------------------------


def _parse_prefix(uri: str) -> tuple[bytes, ...]:
    return tuple(c.encode() for c in uri.strip("/").split("/") if c)


def _declared(key, table) -> bool:
    """Whether ``key`` is a string declared in ``table``.  Any other value is
    not declared; a list, say, would make ``in`` raise ``TypeError``."""
    return isinstance(key, str) and key in table


def _non_negative(value) -> bool:
    # NaN compares false, so it is refused too
    return isinstance(value, (int, float)) and value >= 0


def _seed_64(value) -> bool:
    # key generation expands a seed as 8 bytes
    return isinstance(value, int) and 0 <= value < 1 << 64


def validate(config: ScenarioConfig) -> list[str]:
    errors: list[str] = []
    # every table below is keyed by node id, so nothing else is checked
    # until the ids can be keys
    errors += [
        f"node {n.id!r}: id must be a string" for n in config.nodes if not isinstance(n.id, str)
    ]
    if errors:
        return errors
    node_ids = [n.id for n in config.nodes]
    if len(node_ids) != len(set(node_ids)):
        errors.append("duplicate node ids")
    nodes = {n.id: n for n in config.nodes}
    roles = {"consumer", "producer", "router", "adversary"}
    for n in config.nodes:
        if n.role not in roles:
            errors.append(f"node {n.id}: unknown role {n.role!r}")
        if n.role == "consumer":
            if n.group is None:
                errors.append(f"consumer {n.id}: missing group")
            if not _declared(n.mode, ConsumerMode.__members__):
                errors.append(f"consumer {n.id}: unknown mode {n.mode!r}")
            if n.scheme not in ("ENC", "HASH"):
                errors.append(f"consumer {n.id}: unknown scheme {n.scheme!r}")
        if n.role == "producer" and not n.prefix:
            errors.append(f"producer {n.id}: missing prefix")
        elif n.role == "producer" and not isinstance(n.prefix, str):
            errors.append(f"producer {n.id}: prefix must be a string")
        if n.role == "router" and n.verify_mode not in ("INDIVIDUAL", "BATCH"):
            errors.append(f"router {n.id}: unknown verify_mode {n.verify_mode!r}")
        # a negative cost or timeout finishes a service before it starts,
        # which runs the log's clock backwards
        for what in ("tau_process_s", "tau_verify_s", "batch_timeout_ms"):
            if not _non_negative(getattr(n, what)):
                errors.append(f"{n.role} {n.id}: {what} must be a non-negative number")

    if not isinstance(config.seed, int):
        errors.append("seed must be an integer")
    if config.kappa not in crypto.SUPPORTED_KAPPA:
        errors.append(f"kappa must be one of {crypto.SUPPORTED_KAPPA}")
    sweep_ms = config.expiry_sweep_ms
    if not (isinstance(sweep_ms, (int, float)) and sweep_ms > 0):
        errors.append("expiry_sweep_ms must be positive")
    if not _non_negative(config.duration_ms):
        errors.append("duration_ms must be a non-negative number")

    adjacency: dict[str, set[str]] = {n: set() for n in node_ids}
    for a, b, latency in config.links:
        for end in (a, b):
            if end not in nodes:
                errors.append(f"link ({a}, {b}): unknown node {end}")
        if not latency > 0:  # also refuses NaN
            errors.append(f"link ({a}, {b}): latency must be positive")
        if a in adjacency and b in adjacency:
            adjacency[a].add(b)
            adjacency[b].add(a)

    group_ids = [g.id for g in config.groups]
    if len(group_ids) != len(set(group_ids)):
        errors.append("duplicate group ids")
    groups = set(group_ids)
    for g in config.groups:
        if not _seed_64(g.seed):
            errors.append(f"group {g.id}: seed must be an integer in [0, 2**64)")
    for n in config.nodes:
        if n.role == "consumer" and n.group is not None and not _declared(n.group, groups):
            errors.append(f"consumer {n.id}: undefined group {n.group!r}")

    producers = [n for n in config.nodes if n.role == "producer"]
    prefixes = {
        n.id: _parse_prefix(n.prefix) if isinstance(n.prefix, str) else () for n in producers
    }
    content_names = set()
    for c in config.contents:
        if not isinstance(c.name, str):
            errors.append(f"content {c.name!r}: name must be a string")
            continue
        if c.name in content_names:
            errors.append(f"content {c.name}: duplicated")
        content_names.add(c.name)
        comps = _parse_prefix(c.name)
        owners = [
            pid
            for pid, pref in prefixes.items()
            if pref and comps[: len(pref)] == pref and len(comps) > len(pref)
        ]
        if len(owners) != 1:
            errors.append(
                f"content {c.name}: must extend exactly one producer prefix (matched {owners})"
            )
        if not _declared(c.policy, ProtectionPolicy.__members__):
            errors.append(f"content {c.name}: unknown policy {c.policy!r}")
        if c.scheme not in ("ENC", "HASH"):
            errors.append(f"content {c.name}: unknown scheme {c.scheme!r}")
        if not (isinstance(c.expiry_ms, (int, float)) and c.expiry_ms > 0):
            errors.append(f"content {c.name}: expiry_ms must be a positive number")
        if not (isinstance(c.data_size, int) and c.data_size >= 0):
            errors.append(f"content {c.name}: data_size must be a non-negative integer")
        if not (c.data is None or isinstance(c.data, str)):
            errors.append(f"content {c.name}: data must be a string")
        if c.policy == "PUBLIC" and c.groups:
            errors.append(f"content {c.name}: public content cannot list groups")
        if c.policy != "PUBLIC" and not c.groups:
            errors.append(f"content {c.name}: protected content needs groups")
        for gid in list(c.groups) + list(c.extra_key_groups):
            if not _declared(gid, groups):
                errors.append(f"content {c.name}: undefined group {gid!r}")

    # a scenario may script thousands of fetches: ``_declared`` and
    # ``_non_negative`` are inlined here
    consumer_ids = {n.id for n in config.nodes if n.role == "consumer"}
    for f in config.fetches:
        if not (isinstance(f.consumer, str) and f.consumer in consumer_ids):
            errors.append(f"fetch of {f.name}: unknown consumer {f.consumer!r}")
        if not (isinstance(f.name, str) and f.name in content_names):
            errors.append(f"fetch of {f.name}: content not in catalog")
        if not (isinstance(f.at_ms, (int, float)) and f.at_ms >= 0):
            errors.append(f"fetch of {f.name}: at_ms must be a non-negative number")

    if config.traffic is not None:
        t = config.traffic
        if not (_declared(t.consumer, nodes) and nodes[t.consumer].role == "consumer"):
            errors.append(f"traffic: unknown consumer {t.consumer!r}")
        errors += [f"traffic: {problem}" for problem in t.problems()]
        for name in list(t.ibac_targets) + list(t.public_targets):
            if not _declared(name, content_names):
                errors.append(f"traffic target {name}: content not in catalog")

    if config.adversary is not None:
        adv = config.adversary
        if not (_declared(adv.node, nodes) and nodes[adv.node].role == "adversary"):
            errors.append(f"adversary: node {adv.node!r} must be declared with role adversary")
        if not _seed_64(adv.keypair_seed):
            errors.append("adversary: keypair_seed must be an integer in [0, 2**64)")
        for a, b in adv.taps:
            if frozenset((a, b)) not in {frozenset((x, y)) for x, y, _ in config.links}:
                errors.append(f"adversary tap ({a}, {b}): no such link")
        for i, action in enumerate(adv.actions):
            where = f"adversary.actions[{i}]"
            errors += [f"{where}: {problem}" for problem in action.problems()]
            if not _declared(action.target, nodes):
                errors.append(f"{where}: unknown target {action.target!r}")
            elif _declared(adv.node, adjacency) and action.target not in adjacency[adv.node]:
                errors.append(f"{where}: adversary has no direct link to {action.target}")

    for r in config.rekeys:
        if not _declared(r.content, content_names):
            errors.append(f"rekey of {r.content}: content not in catalog")
        for gid in list(r.new_groups) + list(r.revoke_groups):
            if not _declared(gid, groups):
                errors.append(f"rekey of {r.content}: undefined group {gid!r}")

    if config.sweep is not None:
        sweep = config.sweep
        if not (_declared(sweep.router, nodes) and nodes[sweep.router].role == "router"):
            errors.append(f"sweep: router {sweep.router!r} not a router node")
        if config.traffic is None:
            errors.append("sweep: requires a traffic profile")
        if not isinstance(sweep.deltas, (list, tuple)):
            errors.append("sweep: deltas must be a list")
        else:
            for d in sweep.deltas:
                if not (isinstance(d, (int, float)) and 0.0 <= d <= 1.0):
                    errors.append(f"sweep delta {d!r} outside [0, 1]")
        if not (isinstance(sweep.interests_per_point, int) and sweep.interests_per_point > 0):
            errors.append("sweep: interests_per_point must be a positive integer")
        if not (isinstance(sweep.tail_ms, (int, float)) and sweep.tail_ms >= 0):
            errors.append("sweep: tail_ms must be a non-negative number")
        if not (isinstance(sweep.saturation_factor, (int, float)) and sweep.saturation_factor > 0):
            errors.append("sweep: saturation_factor must be a positive number")

    # connectivity: every consumer must reach at least one producer
    producer_ids = {n.id for n in producers}
    for n in config.nodes:
        if n.role != "consumer" or n.id not in adjacency:
            continue
        seen = {n.id}
        frontier = deque([n.id])
        while frontier:
            cur = frontier.popleft()
            for nxt in adjacency.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        if not seen & producer_ids:
            errors.append(f"consumer {n.id}: no path to any producer")

    return errors


# -- building -----------------------------------------------------------------


def _bfs_next_hops(adjacency: dict[str, list[str]], root: str) -> dict[str, str]:
    """Next hop toward ``root`` for every reachable node (deterministic order)."""
    parent: dict[str, str] = {}
    seen = {root}
    frontier = deque([root])
    while frontier:
        cur = frontier.popleft()
        for nxt in sorted(adjacency.get(cur, ())):
            if nxt not in seen:
                seen.add(nxt)
                parent[nxt] = cur
                frontier.append(nxt)
    return parent


def build(config: ScenarioConfig) -> tuple[Simulation, BuildInfo]:
    sim = Simulation(
        seed=config.seed,
        horizon_ms=config.duration_ms,
        expiry_sweep_ms=config.expiry_sweep_ms,
        record_wire=config.record_wire,
    )
    materials = {g.id: crypto.gen_group(config.kappa, g.seed) for g in config.groups}

    producers: dict[str, Producer] = {}
    producer_keys: dict[str, object] = {}
    consumers: dict[str, object] = {}
    consumer_specs: dict[str, NodeSpec] = {}
    for spec in config.nodes:
        if spec.role == "router":
            if spec.verify_mode == "BATCH":
                mode = VerifyMode.batch(spec.batch_size, spec.batch_timeout_ms)
            else:
                mode = VerifyMode.individual()
            router = Router(
                verify_mode=mode,
                pit_lifetime_ms=spec.pit_lifetime_ms,
                skew_ms=spec.skew_ms,
            )
            sim.add_router(spec.id, router, spec.tau_process_s, spec.tau_verify_s)
        elif spec.role == "producer":
            keypair = None
            if config.encrypted_group_ids:
                keypair = crypto.gen_producer_keypair(
                    _derived_seed(config.seed, f"producer:{spec.id}")
                )
            producer = Producer(
                _parse_prefix(spec.prefix),
                keypair=keypair,
                default_window_ms=spec.window_ms or 60_000.0,
                skew_ms=spec.skew_ms,
                content_key_seed=_derived_seed(config.seed, f"content-keys:{spec.id}"),
            )
            producers[spec.id] = producer
            producer_keys[spec.id] = keypair
            sim.add_producer(spec.id, producer, spec.tau_process_s, spec.tau_verify_s)
        elif spec.role == "consumer":
            consumer_specs[spec.id] = spec
        elif spec.role == "adversary":
            pass  # added with the adversary spec below

    # consumers need the producer public key when ids travel encrypted;
    # single-producer scenarios are the only ones using that feature
    default_public = None
    if config.encrypted_group_ids and producer_keys:
        first = sorted(producer_keys)[0]
        default_public = producer_keys[first].public if producer_keys[first] else None
    for node_id, spec in consumer_specs.items():
        consumers[node_id] = sim.add_consumer(
            node_id,
            materials[spec.group],
            ConsumerMode[spec.mode],
            SchemeTag[spec.scheme],
            producer_public=default_public,
            clock_offset_ms=spec.clock_offset_ms,
        )
    if config.adversary is not None:
        adv_material = crypto.gen_group(config.kappa, config.adversary.keypair_seed)
        sim.add_adversary(config.adversary.node, adv_material)

    for a, b, latency in config.links:
        sim.add_link(a, b, latency)

    # FIB: shortest paths toward each producer prefix
    adjacency: dict[str, list[str]] = {n.id: [] for n in config.nodes}
    for a, b, _ in config.links:
        adjacency[a].append(b)
        adjacency[b].append(a)
    for producer_id, producer in producers.items():
        next_hops = _bfs_next_hops(adjacency, producer_id)
        for node_id, hop in next_hops.items():
            rt = sim.nodes[node_id]
            iface = rt.iface_to[hop]
            if rt.role == "router":
                rt.obj.add_route(producer.prefix, iface)
            elif rt.role == "consumer":
                rt.obj.fib[producer.prefix] = iface

    # groups known to every producer (provisioning is out of band)
    for producer in producers.values():
        for material in materials.values():
            producer.register_group(material)

    # publish the catalog and hand out content-scoped keys
    info = BuildInfo(config, materials, {}, {}, producers, producer_keys, {})
    group_members: dict[str, list[str]] = {}
    for node_id, spec in consumer_specs.items():
        group_members.setdefault(spec.group, []).append(node_id)
    for c in config.contents:
        name = Name.from_uri(c.name)
        info.content_names[c.name] = name
        owner = next(
            pid
            for pid, producer in producers.items()
            if name.components[: len(producer.prefix)] == producer.prefix
            and len(name.components) > len(producer.prefix)
        )
        producer = producers[owner]
        obf_key = producer.publish(
            name,
            _content_data(config.seed, c),
            [materials[g].group_id for g in c.groups],
            SchemeTag[c.scheme],
            c.expiry_ms,
            ProtectionPolicy[c.policy],
        )
        sim.register_content_prefix(name, producer.prefix)
        info.prefix_of[name.components] = producer.prefix
        if obf_key is not None:
            info.content_keys[name.components] = obf_key
            provisioned = set(c.groups) | set(c.extra_key_groups)
            for gid in provisioned:
                for node_id in group_members.get(gid, ()):
                    consumers[node_id].ctx.content_keys[name.components] = obf_key

    for f in config.fetches:
        sim.schedule_fetch(f.consumer, info.content_names[f.name], f.at_ms)

    if config.traffic is not None:
        t = config.traffic
        ibac = t.ibac_targets or [c.name for c in config.contents if c.policy != "PUBLIC"]
        public = t.public_targets or [c.name for c in config.contents if c.policy == "PUBLIC"]
        sim.set_traffic(replace(t, ibac_targets=ibac, public_targets=public))

    if config.adversary is not None:
        adv = config.adversary
        for a, b in adv.taps:
            sim.add_tap(a, b, adv.node)
        for action in adv.actions:
            sim.schedule_action(adv.node, action)

    for r in config.rekeys:
        name = info.content_names[r.content]
        owner = next(
            pid
            for pid, producer in producers.items()
            if name.components[: len(producer.prefix)] == producer.prefix
        )
        sim.schedule_rekey(
            r.at_ms,
            owner,
            name,
            [materials[g] for g in r.new_groups],
            [materials[g].group_id for g in r.revoke_groups],
        )

    return sim, info


def run_config(config: ScenarioConfig) -> tuple[RunResult, BuildInfo]:
    sim, info = build(config)
    result = sim.run()
    check_invariants(result, sim)
    return result, info


def content_wire_name(info: BuildInfo, content_name: str) -> bytes:
    """Wire-name bytes a conforming consumer would put on an interest."""
    from .wire import ObfuscatedName, encode_name

    spec = next(c for c in info.config.contents if c.name == content_name)
    name = info.content_names[content_name]
    if spec.policy in ("AUTH_ONLY", "PUBLIC"):
        return encode_name(name)
    prefix = info.prefix_of[name.components]
    obf_key = info.content_keys[name.components]
    suffix_components = name.components[len(prefix):]
    scheme = SchemeTag[spec.scheme]
    if scheme is SchemeTag.ENC:
        obf = crypto.obfuscate_enc(obf_key, suffix_components)
    else:
        obf = crypto.obfuscate_hash(obf_key, suffix_components)
    return encode_name(ObfuscatedName(prefix, obf, scheme))


# -- invariants ------------------------------------------------------------------


def check_invariants(result: RunResult, sim: Simulation) -> None:
    if not result.conservation["balanced"]:
        raise InvariantViolation(f"conservation violated: {result.conservation}")
    # recount drops and deliveries from the raw log
    drop_kinds = {"int_drop", "content_drop", "pending_drop"}
    recount: Counter = Counter()
    delivered = 0
    served_verified: Counter = Counter()
    for line in result.log_lines:
        _, node, kind, _, reason = line.split("\t")
        if kind in drop_kinds and sim.nodes[node].role != "adversary":
            recount[(node, reason)] += 1
        if kind == "content_delivered":
            delivered += 1
        if kind in ("cs_hit_served", "content_sent") and reason == "verified":
            served_verified[node] += 1
    if dict(recount) != result.drops:
        raise InvariantViolation("drop counters disagree with the emission log")
    if delivered != result.counters.get("delivered", 0):
        raise InvariantViolation("delivery counter disagrees with the emission log")
    for node_id, rt in sim.nodes.items():
        if rt.role != "router":
            continue
        emitted = served_verified.get(node_id, 0)
        passes = rt.obj.auth_passes
        # the one service that may still be in flight at the horizon can hold
        # passed-but-unemitted checks: one, or a batch worth in batch mode
        in_flight = rt.obj.verify_mode.batch_size if (
            rt.obj.verify_mode.strategy is VerifyStrategy.BATCH
        ) else 1
        slack = in_flight if rt.busy else 0
        if not emitted <= passes <= emitted + slack:
            raise InvariantViolation(
                f"{node_id}: emitted {emitted} protected contents "
                f"but passed {passes} checks"
            )


# -- sweep ------------------------------------------------------------------------


@dataclass
class SweepPoint:
    delta: float
    mu_model: float
    mu_measured: float
    completions: int


def run_sweep(config: ScenarioConfig) -> tuple[list[SweepPoint], list[RunResult]]:
    """Run the saturated service-rate sweep over the configured delta grid."""
    if config.sweep is None or config.traffic is None:
        raise ValidationError(["sweep requires sweep and traffic sections"])
    router_spec = next(n for n in config.nodes if n.id == config.sweep.router)
    points: list[SweepPoint] = []
    results: list[RunResult] = []
    for delta in config.sweep.deltas:
        mu = analysis.model_mu(
            analysis.ServiceModelParams(
                delta, router_spec.tau_process_s, router_spec.tau_verify_s
            )
        )
        lam = config.sweep.saturation_factor * mu
        point_config = copy.deepcopy(config)
        point_config.sweep = None
        point_config.traffic.delta = delta
        point_config.traffic.lambda_per_s = lam
        point_config.traffic.max_interests = config.sweep.interests_per_point
        inject_ms = config.sweep.interests_per_point / lam * 1000.0
        point_config.duration_ms = (
            config.traffic.start_ms + inject_ms + config.sweep.tail_ms
        )
        result, _ = run_config(point_config)
        measured = analysis.mixture_rate_estimate(
            result.log_lines,
            config.sweep.router,
            delta,
            t0=config.traffic.start_ms,
        )
        completions = sum(
            1
            for line in result.log_lines
            if line.split("\t")[1] == config.sweep.router
            and line.split("\t")[2] == "cs_hit_served"
        )
        points.append(SweepPoint(delta, mu, measured, completions))
        results.append(result)
    return points, results


# -- output ------------------------------------------------------------------------


def summarize(result: RunResult, config: ScenarioConfig) -> dict:
    drops_nested: dict[str, dict[str, int]] = {}
    for (node, reason), count in sorted(result.drops.items()):
        drops_nested.setdefault(node, {})[reason] = count
    producer_nested: dict[str, dict[str, int]] = {}
    for (node, name_hex), count in sorted(result.producer_interests.items()):
        producer_nested.setdefault(node, {})[name_hex] = count
    delivered_by_consumer: Counter = Counter()
    for d in result.deliveries:
        delivered_by_consumer[d.consumer] += 1
    return {
        "scenario": config.name,
        "seed": result.seed,
        "counters": result.counters,
        "drops": drops_nested,
        "producer_interests": producer_nested,
        "delivered_by_consumer": dict(delivered_by_consumer),
        "attacks": [
            {
                "index": a.index,
                "kind": a.kind,
                "at_ms": a.at_ms,
                "label": a.label,
                "attempts": a.attempts,
                "successes": a.successes,
            }
            for a in result.attacks
        ],
        "captured_probe_outcomes": result.captured_probe_outcomes,
        "conservation": result.conservation,
    }


def write_outputs(result: RunResult, config: ScenarioConfig, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "emission.log").write_text("\n".join(result.log_lines) + "\n")
    (out / "summary.json").write_text(json.dumps(summarize(result, config), indent=2) + "\n")
    lines = ["metric,node,detail,value"]
    for (node, reason), count in sorted(result.drops.items()):
        lines.append(f"drop,{node},{reason},{count}")
    for (node, name_hex), count in sorted(result.producer_interests.items()):
        lines.append(f"producer_interest,{node},{name_hex},{count}")
    for key, value in sorted(result.counters.items()):
        lines.append(f"counter,,{key},{value}")
    (out / "metrics.csv").write_text("\n".join(lines) + "\n")


def run_scenario(config: ScenarioConfig, out_dir) -> int:
    """Execute one scenario (or its sweep) and write all artifacts; 0 on success."""
    out = Path(out_dir)
    if config.sweep is not None:
        points, results = run_sweep(config)
        out.mkdir(parents=True, exist_ok=True)
        analysis.write_mu_csv(
            out / "mu_model.csv",
            [(p.delta, p.mu_model, p.mu_measured) for p in points],
        )
        merged_lines = []
        for point, result in zip(points, results):
            merged_lines += [f"# delta={point.delta}"] + result.log_lines
        (out / "emission.log").write_text("\n".join(merged_lines) + "\n")
        summary = {
            "scenario": config.name,
            "seed": config.seed,
            "sweep": [
                {
                    "delta": p.delta,
                    "mu_model": p.mu_model,
                    "mu_measured": p.mu_measured,
                    "completions": p.completions,
                }
                for p in points
            ],
        }
        (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
        return 0
    result, _ = run_config(config)
    write_outputs(result, config, out)
    return 0
