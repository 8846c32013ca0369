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

import hashlib
import json
import math
from collections import Counter, deque
from dataclasses import asdict, dataclass, replace
from importlib import resources
from pathlib import Path

import yaml

from . import analysis, crypto, kinds
from .authcheck import DEFAULT_SKEW_MS, members
from .consumer import ConsumerMode
from .kinds import (BOOL, IDS, MAX_COUNT, MAX_DATA_BYTES, MAX_MS, MAX_S, MAX_SWEEP_TICKS, SEED,
                    TEXT, TIME, Choice, Fractions, Ids, Num, Pairs, Record, Records, Text,
                    declare, config_record)
from .producer import Producer, ProtectionPolicy
from .router import BATCH_TIMEOUT_MS, PIT_LIFETIME_MS, Router
from .simnet import (DROP_KINDS, AdversaryAction, RunResult, Simulation, TrafficProfile,
                     derived_seed, offer_problems)
from .wire import EncodeError, Name, ObfuscatedName, SchemeTag, pack_components

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


ROLES = ("consumer", "producer", "router", "adversary")
SCHEMES = members(SchemeTag)
COST = Num(0, MAX_S)  # a negative cost runs the log's clock backwards


@config_record
class NodeSpec:
    id: str = declare(TEXT)
    role: str = declare(Choice(ROLES))
    group: str | None = declare(Text(optional=True), None)
    mode: str = declare(Choice(members(ConsumerMode)), "FULL")
    scheme: str = declare(Choice(SCHEMES), "ENC")
    clock_offset_ms: float = declare(Num(-MAX_MS, MAX_MS), 0.0)
    prefix: str | None = declare(Text(optional=True), None)
    verify_mode: str = declare(Choice(("INDIVIDUAL", "BATCH")), "INDIVIDUAL")
    batch_size: int = declare(Num(0, MAX_COUNT, strict=True, integer=True), 10)
    batch_timeout_ms: float = declare(TIME, BATCH_TIMEOUT_MS)
    pit_lifetime_ms: float = declare(TIME, PIT_LIFETIME_MS)
    tau_process_s: float = declare(COST, DEFAULT_TAU_PROCESS_S)
    tau_verify_s: float = declare(COST, DEFAULT_TAU_VERIFY_S)
    skew_ms: float = declare(TIME, DEFAULT_SKEW_MS)


@config_record
class LinkSpec:
    """A link, written ``[a, b, latency_ms]``."""

    a: str = declare(TEXT)
    b: str = declare(TEXT)
    latency_ms: float = declare(Num(None, MAX_MS))  # ``validate`` refuses <= 0 and NaN


@config_record
class GroupSpec:
    id: str = declare(TEXT)
    seed: int = declare(SEED)


@config_record
class ContentSpec:
    name: str = declare(TEXT)
    groups: list[str] = declare(IDS, factory=list)
    scheme: str = declare(Choice(SCHEMES), "ENC")
    policy: str = declare(Choice(members(ProtectionPolicy)), "FULL")
    # the producer stamps ``round(now) + expiry_ms`` as a uint64
    expiry_ms: int = declare(Num(0, (1 << 63) - 1, strict=True, integer=True,
                                 what="a positive number", bound="an integer in (0, 2**63)"),
                             60_000)
    data_size: int = declare(Num(0, MAX_DATA_BYTES, integer=True), 64)
    data: str | None = declare(Text(optional=True), None)
    extra_key_groups: list[str] = declare(IDS, factory=list)


@config_record
class FetchSpec:
    consumer: str = declare(Text(refused="unknown consumer {value!r}"))
    name: str = declare(TEXT)
    at_ms: float = declare(TIME)


@config_record
class AdversarySpec:
    node: str = declare(Text(refused="node {value!r} must be declared with role adversary"))
    keypair_seed: int = declare(SEED, 0xADF)
    taps: list[list[str]] = declare(Pairs(), factory=list)
    actions: list[AdversaryAction] = declare(Records(AdversaryAction), factory=list)


@config_record
class RekeySpec:
    at_ms: float = declare(TIME)
    content: str = declare(TEXT)
    new_groups: list[str] = declare(Ids(least=1))  # publishing needs a group
    revoke_groups: list[str] = declare(IDS, factory=list)


@config_record
class SweepSpec:
    router: str = declare(Text(refused="router {value!r} not a router node"))
    deltas: list[float] = declare(Fractions(), factory=lambda: [0.0, 0.2, 0.5, 1.0])
    interests_per_point: int = declare(Num(0, MAX_COUNT, strict=True, integer=True), 10_000)
    tail_ms: float = declare(TIME, 60_000.0)
    saturation_factor: float = declare(Num(0, 1000, strict=True), 2.0)


@config_record
class ScenarioConfig:
    name: str = declare(TEXT)
    seed: int = declare(SEED, 0)
    kappa: int = declare(Choice(crypto.SUPPORTED_KAPPA, f"one of {crypto.SUPPORTED_KAPPA}"), 128)
    duration_ms: float = declare(TIME, 60_000.0)
    # the expiry sweep reschedules itself this far ahead; at 0 it never ends
    expiry_sweep_ms: float = declare(Num(0, MAX_MS, strict=True, what="positive"), 500.0)
    encrypted_group_ids: bool = declare(BOOL, False)
    nodes: list[NodeSpec] = declare(Records(NodeSpec), factory=list)
    links: list[LinkSpec] = declare(Records(LinkSpec), factory=list)
    groups: list[GroupSpec] = declare(Records(GroupSpec), factory=list)
    contents: list[ContentSpec] = declare(Records(ContentSpec), factory=list)
    fetches: list[FetchSpec] = declare(Records(FetchSpec), factory=list)
    traffic: TrafficProfile | None = declare(Record(TrafficProfile), None)
    adversary: AdversarySpec | None = declare(Record(AdversarySpec), None)
    rekeys: list[RekeySpec] = declare(Records(RekeySpec), factory=list)
    sweep: SweepSpec | None = declare(Record(SweepSpec), None)


# the fields that hold records, by the class that has them
_NESTED = {
    cls: [(name, kind) for name, kind in kinds.fields(cls).items()
          if isinstance(kind, (Records, Record))]
    for cls in (ScenarioConfig, AdversarySpec)
}


@dataclass
class BuildInfo:
    config: ScenarioConfig
    materials: dict  # group id string -> GroupKeyMaterial
    content_keys: dict  # name components -> obfuscation key bytes
    content_names: dict  # content name string -> Name
    producers: dict  # node id -> Producer


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


def _build(cls, raw, where: str, errors: list[str]):
    """A ``cls`` record from the mapping ``raw`` (a link from its triple),
    its nested records built alike and every other value kept as written;
    None, with the reason in ``errors``, when ``raw`` has the wrong shape."""
    if cls is LinkSpec:
        if isinstance(raw, list) and len(raw) == 3:
            return LinkSpec(*raw)
        errors.append(f"{where}: expected [a, b, latency_ms]")
        return None
    if not isinstance(raw, dict):
        errors.append(f"{where}: expected a mapping")
        return None
    declared = kinds.fields(cls)
    kwargs = raw
    if not raw.keys() <= declared.keys():
        errors.append(f"{where or 'top level'}: unknown keys {sorted(raw.keys() - declared)}")
        kwargs = {k: v for k, v in raw.items() if k in declared}
    if cls in _NESTED:
        kwargs = dict(kwargs)
        for name, kind in _NESTED[cls]:
            value = kwargs.pop(name, None)
            if value is None:
                continue  # the block is left out
            inner = f"{where}.{name}" if where else name
            if isinstance(kind, Record):
                kwargs[name] = _build(kind.cls, value, inner, errors)
            elif isinstance(value, list):
                built = [_build(kind.cls, item, f"{inner}[{i}]", errors)
                         for i, item in enumerate(value)]
                kwargs[name] = [record for record in built if record is not None]
            else:
                errors.append(f"{inner}: expected a list")
    try:
        return cls(**kwargs)
    except TypeError as exc:  # a required key is missing
        errors.append(f"{where}: {exc}")
        return None


def scenario_from_dict(raw: dict, source: str = "<dict>") -> ScenarioConfig:
    """The scenario ``raw`` describes; here only its shape is checked, and
    ``validate`` checks what its records hold."""
    if not isinstance(raw, dict):
        raise ParseError(f"{source}: top level must be a mapping")
    errors: list[str] = []
    config = _build(ScenarioConfig, {"name": Path(source).stem, **raw}, "", errors)
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


def _owns(prefix: tuple[bytes, ...], components: tuple[bytes, ...]) -> bool:
    """Whether a producer at ``prefix`` owns the name of ``components``: the
    name extends the prefix by at least one component."""
    return len(components) > len(prefix) and components[: len(prefix)] == prefix


def _node_where(n: NodeSpec) -> str:
    # "router r1"; a node whose id or role cannot say so is named as written
    if n.role in ROLES and isinstance(n.id, str):
        return f"{n.role} {n.id}"
    return f"node {n.id!r}"


def _unencodable(where: str, comps: tuple[bytes, ...], prefix: tuple[bytes, ...],
                 obfuscated: bool) -> list[str]:
    """The line refusing a content under ``prefix`` whose names a run could
    not build: its clear name, else, when ``obfuscated``, the obfuscated
    name a consumer sends, with a stand-in suffix as long as the longer
    scheme makes (HASH a digest, ENC a tag and the packed suffix; the key
    does not change the length)."""
    try:
        Name(comps)
    except EncodeError as exc:
        return [f"{where}: its name cannot be encoded: {exc}"]
    if obfuscated:
        packed = pack_components(comps[len(prefix):])
        stand_in = bytes(max(crypto.DIGEST_LEN, crypto.ENC_TAG_LEN + len(packed)))
        try:
            ObfuscatedName(prefix, stand_in, SchemeTag.ENC)
        except EncodeError as exc:
            return [f"{where}: its obfuscated name cannot be encoded: {exc}"]
    return []


def validate(config: ScenarioConfig) -> list[str]:
    """Every problem in ``config``: each field not of its declared kind
    (``kinds.check``), and each broken rule across fields or records.  A
    rule reads only fields of their kind, so a bad field is reported once."""
    errors: list[str] = []
    top_bad = kinds.check(config, "", errors)
    if top_bad & {name for name, _ in _NESTED[ScenarioConfig]}:
        return errors  # the records cannot be walked
    if not top_bad & {"duration_ms", "expiry_sweep_ms"} and (
        config.duration_ms > config.expiry_sweep_ms * MAX_SWEEP_TICKS
    ):
        errors.append(f"duration_ms must be at most {MAX_SWEEP_TICKS:,} times expiry_sweep_ms")

    group_ids = []
    seeded: dict[int, str] = {}  # seed -> the first group of it
    for g in config.groups:
        bad = kinds.check(g, f"group {g.id}", errors)
        if "id" not in bad:
            group_ids.append(g.id)
        if not bad and seeded.setdefault(g.seed, g.id) != g.id:
            # ``crypto.gen_group`` is deterministic in the seed: one group id
            errors.append(
                f"groups {seeded[g.seed]} and {g.id}: the same seed {g.seed} makes one group"
            )
    groups = set(group_ids)
    if len(groups) != len(group_ids):
        errors.append("duplicate group ids")

    nodes: dict[str, NodeSpec] = {}  # by id, when the id and role are of their kinds
    node_bad: dict[str, frozenset] = {}  # and the node's fields that are not
    for n in config.nodes:
        bad = kinds.check(n, _node_where(n), errors)
        if not bad & {"id", "role"}:
            if n.id in nodes:
                errors.append("duplicate node ids")
            nodes[n.id], node_bad[n.id] = n, bad
    # ids by role, in file order
    by_role = {role: dict.fromkeys(i for i, n in nodes.items() if n.role == role)
               for role in ROLES}
    adv = config.adversary
    for i, n in nodes.items():
        if node_bad[i]:
            continue
        if n.role == "consumer" and n.group is None:
            errors.append(f"consumer {i}: missing group")
        elif n.role == "consumer" and n.group not in groups:
            errors.append(f"consumer {i}: undefined group {n.group!r}")
        elif n.role == "producer" and not n.prefix:
            errors.append(f"producer {i}: missing prefix")
        elif n.role == "producer" and not _parse_prefix(n.prefix):
            errors.append(f"producer {i}: prefix {n.prefix!r} names no component")
        elif n.role == "adversary" and (adv is None or adv.node != i):
            errors.append(f"adversary {i}: no adversary block names this node")

    adjacency: dict[str, set[str]] = {i: set() for i in nodes}
    linked = set()
    for index, link in enumerate(config.links):
        if kinds.check(link, f"links[{index}]", errors):
            continue
        a, b = link.a, link.b
        for end in (a, b):
            if end not in nodes:
                errors.append(f"link ({a}, {b}): unknown node {end}")
        if a == b:
            errors.append(f"link ({a}, {b}): a node cannot link to itself")
        if not link.latency_ms > 0:  # also refuses NaN
            errors.append(f"link ({a}, {b}): latency must be positive")
        if a in nodes and b in nodes:
            adjacency[a].add(b)
            adjacency[b].add(a)
        linked.add(frozenset((a, b)))

    prefixes = {
        i: _parse_prefix(nodes[i].prefix)
        for i in by_role["producer"]
        if nodes[i].prefix and "prefix" not in node_bad[i]
    }
    obfuscating = any(nodes[i].mode != "AUTH_ONLY" for i in by_role["consumer"])
    catalog: set[str] = set()
    by_class: dict[bool, list[str]] = {True: [], False: []}  # names, by "is PUBLIC"
    for c in config.contents:
        bad = kinds.check(c, f"content {c.name}", errors)
        if "name" in bad:
            continue
        if c.name in catalog:
            errors.append(f"content {c.name}: duplicated")
        catalog.add(c.name)
        if "policy" not in bad:
            by_class[c.policy == "PUBLIC"].append(c.name)
        comps = _parse_prefix(c.name)
        owners = [pid for pid, pref in prefixes.items() if _owns(pref, comps)]
        if len(owners) != 1:
            errors.append(
                f"content {c.name}: must extend exactly one producer prefix (matched {owners})"
            )
        else:
            # ``content_wire_name`` obfuscates the name of a content that is
            # neither PUBLIC nor AUTH_ONLY, and a consumer's fetch any
            # protected name, in every mode but AUTH_ONLY
            obfuscated = c.policy != "PUBLIC" and (c.policy != "AUTH_ONLY" or obfuscating)
            errors += _unencodable(f"content {kinds.shown(c.name)}", comps,
                                   prefixes[owners[0]], obfuscated)
        if bad:
            continue
        if c.policy == "PUBLIC" and c.groups:
            errors.append(f"content {c.name}: public content cannot list groups")
        if c.policy != "PUBLIC" and not c.groups:
            errors.append(f"content {c.name}: protected content needs groups")
        for gid in [*c.groups, *c.extra_key_groups]:
            if gid not in groups:
                errors.append(f"content {c.name}: undefined group {gid!r}")

    consumers = by_role["consumer"]
    starts = []  # (consumer, time) of each fetch and traffic start
    well_formed = kinds.tester(FetchSpec)  # ``check`` only what fails, of thousands
    for f in config.fetches:
        if not well_formed(f) and kinds.check(f, f"fetch of {f.name}", errors):
            continue
        if f.consumer not in consumers:
            errors.append(kinds.refusal(f, "consumer", f"fetch of {f.name}"))
        if f.name not in catalog:
            errors.append(f"fetch of {f.name}: content not in catalog")
        starts.append((f.consumer, f.at_ms))

    t = config.traffic
    t_bad = t is not None and kinds.check(t, "traffic", errors)
    if t is not None and not t_bad:
        if t.consumer not in consumers:
            errors.append(kinds.refusal(t, "consumer", "traffic"))
        for name in [*t.ibac_targets, *t.public_targets]:
            if name not in catalog:
                errors.append(f"traffic target {name}: content not in catalog")
        starts.append((t.consumer, t.start_ms))
        # a class without targets defaults to every catalog content of it
        pools = (t.ibac_targets or by_class[False], t.public_targets or by_class[True])
        errors += offer_problems("traffic", t.delta, *pools)

    # a consumer stamps ``round(now + clock_offset_ms)`` as a uint64
    for i in consumers:
        offset = nodes[i].clock_offset_ms
        if not node_bad[i] and offset < 0:
            first = min((at for who, at in starts if who == i), default=math.inf)
            if first + offset < 0:
                errors.append(f"consumer {i}: clock_offset_ms {offset} stamps a time before 0")

    if adv is not None:
        bad = kinds.check(adv, "adversary", errors)
        if "node" not in bad and adv.node not in by_role["adversary"]:
            errors.append(kinds.refusal(adv, "node", "adversary"))
        if "keypair_seed" not in bad and adv.keypair_seed in seeded:
            errors.append(
                f"adversary: keypair_seed {adv.keypair_seed} is group"
                f" {seeded[adv.keypair_seed]}'s seed, so it holds that group's keys"
            )
        for a, b in () if "taps" in bad else adv.taps:
            if frozenset((a, b)) not in linked:
                errors.append(f"adversary tap ({a}, {b}): no such link")
        linked_to_adv = None if "node" in bad else adjacency.get(adv.node)
        for index, action in enumerate(() if "actions" in bad else adv.actions):
            where = f"adversary.actions[{index}]"
            found = action.problems(where)
            errors += found
            if found:
                continue
            if action.target not in nodes:
                errors.append(kinds.refusal(action, "target", where))
            elif linked_to_adv is not None and action.target not in linked_to_adv:
                errors.append(f"{where}: adversary has no direct link to {action.target}")

    for r in config.rekeys:
        if kinds.check(r, f"rekey of {r.content}", errors):
            continue
        if r.content not in catalog:
            errors.append(f"rekey of {r.content}: content not in catalog")
        elif r.content in by_class[True]:
            errors.append(f"rekey of {r.content}: public content has no access groups")
        for gid in [*r.new_groups, *r.revoke_groups]:
            if gid not in groups:
                errors.append(f"rekey of {r.content}: undefined group {gid!r}")

    sweep = config.sweep
    if sweep is not None:
        bad = kinds.check(sweep, "sweep", errors)
        if "router" not in bad and sweep.router not in by_role["router"]:
            errors.append(kinds.refusal(sweep, "router", "sweep"))
        if t is None:
            errors.append("sweep: requires a traffic profile")
        elif not t_bad and "deltas" not in bad:
            # each point offers the profile's traffic at its own delta
            for delta in sweep.deltas:
                errors += offer_problems("sweep", delta, *pools)
        if t is not None and not (bad or t_bad or sweep.router not in by_role["router"]
                                  or node_bad[sweep.router] or "expiry_sweep_ms" in top_bad):
            # each point runs to its own horizon, bounded as duration_ms is
            limit = min(MAX_MS, config.expiry_sweep_ms * MAX_SWEEP_TICKS)
            try:
                points = sweep_points(config, nodes[sweep.router])
            except analysis.DomainError as exc:
                errors.append(f"sweep: router {sweep.router}: {exc}")
            else:
                errors += [
                    f"sweep delta {delta}: horizon {horizon_ms:.6g} ms (start_ms +"
                    " interests_per_point / (saturation_factor * mu) * 1000 + tail_ms)"
                    f" must be at most {limit:,.0f}"
                    for delta, _, horizon_ms in points
                    if not horizon_ms <= limit
                ]

    # connectivity: every consumer must reach at least one producer, through routers
    reached = set()
    for i in by_role["producer"]:
        reached.update(_next_hops(adjacency, i, by_role["router"]))
    errors += [f"consumer {i}: no path to any producer" for i in consumers if i not in reached]

    return errors


# -- building -----------------------------------------------------------------


def _next_hops(adjacency, root: str, routers) -> dict[str, str]:
    """Next hop toward the producer ``root`` for every node that reaches it
    through ``routers`` alone, on a shortest such path (ties go to the hop
    whose id sorts first).  Only routers forward, so the search expands the
    root and routers and no other node: a consumer or an adversary is never
    a hop."""
    parent: dict[str, str] = {}
    seen = {root}
    frontier = deque([root])
    while frontier:
        cur = frontier.popleft()
        for nxt in sorted(adjacency.get(cur, ())):
            if nxt not in seen:
                seen.add(nxt)
                parent[nxt] = cur
                if nxt in routers:
                    frontier.append(nxt)
    return parent


def _owner(producers: dict, name: Name) -> str:
    """The id of the producer whose prefix ``name`` extends; ``validate``
    makes it the only one."""
    return next(
        pid for pid, producer in producers.items() if _owns(producer.prefix, name.components)
    )


def build(config: ScenarioConfig) -> tuple[Simulation, BuildInfo]:
    sim = Simulation(
        seed=config.seed,
        horizon_ms=config.duration_ms,
        expiry_sweep_ms=config.expiry_sweep_ms,
    )
    materials = {g.id: crypto.gen_group(config.kappa, g.seed) for g in config.groups}

    producers: dict[str, Producer] = {}
    consumers: dict[str, object] = {}
    consumer_specs: dict[str, NodeSpec] = {}
    for spec in config.nodes:
        if spec.role == "router":
            router = Router(
                batch_size=spec.batch_size if spec.verify_mode == "BATCH" else 1,
                batch_timeout_ms=spec.batch_timeout_ms,
                pit_lifetime_ms=spec.pit_lifetime_ms,
                skew_ms=spec.skew_ms,
            )
            sim.add_router(spec.id, router, spec.tau_process_s, spec.tau_verify_s)
        elif spec.role == "producer":
            keypair = None
            if config.encrypted_group_ids:
                keypair = crypto.gen_producer_keypair(
                    derived_seed(config.seed, f"producer:{spec.id}")
                )
            producer = Producer(
                _parse_prefix(spec.prefix),
                keypair=keypair,
                skew_ms=spec.skew_ms,
                content_key_seed=derived_seed(config.seed, f"content-keys:{spec.id}"),
            )
            producers[spec.id] = producer
            sim.add_producer(spec.id, producer, spec.tau_process_s, spec.tau_verify_s)
        elif spec.role == "consumer":
            consumer_specs[spec.id] = spec
        elif spec.role == "adversary":
            pass  # added with the adversary spec below

    # when ids travel encrypted, a consumer encrypts each under the key of
    # the producer that owns the prefix it fetches from; one map serves all
    producer_keys = {}
    if config.encrypted_group_ids:
        producer_keys = {p.prefix: p.keypair.public for p in producers.values()}
    for node_id, spec in consumer_specs.items():
        consumers[node_id] = sim.add_consumer(
            node_id,
            materials[spec.group],
            spec.mode,
            spec.scheme,
            producer_public=producer_keys,
            clock_offset_ms=spec.clock_offset_ms,
        )
    if config.adversary is not None:
        adv_material = crypto.gen_group(config.kappa, config.adversary.keypair_seed)
        sim.add_adversary(config.adversary.node, adv_material)

    for link in config.links:
        sim.add_link(link.a, link.b, link.latency_ms)

    # FIB: shortest paths through routers toward each producer prefix
    adjacency: dict[str, list[str]] = {n.id: [] for n in config.nodes}
    for link in config.links:
        adjacency[link.a].append(link.b)
        adjacency[link.b].append(link.a)
    routers = {n.id for n in config.nodes if n.role == "router"}
    for producer_id, producer in producers.items():
        next_hops = _next_hops(adjacency, producer_id, routers)
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
    info = BuildInfo(config, materials, {}, {}, producers)
    group_members: dict[str, list[str]] = {}
    for node_id, spec in consumer_specs.items():
        group_members.setdefault(spec.group, []).append(node_id)
    for c in config.contents:
        name = Name.from_uri(c.name)
        info.content_names[c.name] = name
        producer = producers[_owner(producers, name)]
        obf_key = producer.publish(
            name,
            _content_data(config.seed, c),
            [materials[g].group_id for g in c.groups],
            c.scheme,
            c.expiry_ms,
            c.policy,
        )
        sim.register_content_prefix(name, producer.prefix)
        if c.policy == "PUBLIC":
            for consumer in consumers.values():
                consumer.ctx.public_names.add(name.components)
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
        sim.schedule_rekey(
            r.at_ms,
            _owner(producers, name),
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
    from .wire import ObfuscatedName

    spec = next(c for c in info.config.contents if c.name == content_name)
    name = info.content_names[content_name]
    if spec.policy in ("AUTH_ONLY", "PUBLIC"):
        return name._wire
    prefix = info.producers[_owner(info.producers, name)].prefix
    obf_key = info.content_keys[name.components]
    suffix_components = name.components[len(prefix):]
    if spec.scheme == SchemeTag.ENC:
        obf = crypto.obfuscate_enc(obf_key, suffix_components)
    else:
        obf = crypto.obfuscate_hash(obf_key, suffix_components)
    return ObfuscatedName(prefix, obf, spec.scheme)._wire


# -- invariants ------------------------------------------------------------------


_RECOUNTED_KINDS = DROP_KINDS | {"content_delivered", "cs_hit_served", "content_sent"}


def _log_recount(lines: list[str], adversaries) -> tuple[Counter, int, Counter]:
    """What ``check_invariants`` recounts from an emission log: the drops
    of every node but ``adversaries`` by (node, reason), the deliveries,
    and the verified serves by node.  Every line must have five fields."""
    drops: Counter = Counter()
    delivered = 0
    served_verified: Counter = Counter()
    for line in lines:
        _, node, kind, _, reason = line.split("\t")
        if kind not in _RECOUNTED_KINDS:
            continue
        if kind in DROP_KINDS:
            if node not in adversaries:
                drops[(node, reason)] += 1
        elif kind == "content_delivered":
            delivered += 1
        elif reason == "verified":  # a cs_hit_served or content_sent
            served_verified[node] += 1
    return drops, delivered, served_verified


def check_invariants(result: RunResult, sim: Simulation) -> None:
    if not result.conservation["balanced"]:
        raise InvariantViolation(f"conservation violated: {result.conservation}")
    # recount drops and deliveries from the raw log
    adversaries = {node_id for node_id, rt in sim.nodes.items() if rt.role == "adversary"}
    recount, delivered, served_verified = _log_recount(result.log_lines, adversaries)
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
        # passed-but-unemitted checks: up to a batch worth, one for INDIVIDUAL
        slack = rt.obj.batch_size if rt.busy else 0
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


def sweep_points(config: ScenarioConfig, router_spec: NodeSpec) -> list[tuple[float, float, float]]:
    """``(delta, mu, horizon_ms)`` of each sweep point: the model's service
    rate, and the time its ``interests_per_point`` interests, offered at
    ``saturation_factor * mu``, take to inject, plus the start and the tail."""
    sweep = config.sweep
    points = []
    for delta in sweep.deltas:
        mu = analysis.model_mu(delta, router_spec.tau_process_s, router_spec.tau_verify_s)
        lam = sweep.saturation_factor * mu
        # a tiny saturation_factor can underflow the offered rate to 0
        inject_ms = sweep.interests_per_point / lam * 1000.0 if lam else math.inf
        points.append((delta, mu, config.traffic.start_ms + inject_ms + sweep.tail_ms))
    return points


def run_sweep(config: ScenarioConfig) -> tuple[list[SweepPoint], list[RunResult]]:
    """Run the saturated service-rate sweep over the configured delta grid."""
    if config.sweep is None or config.traffic is None:
        raise ValidationError(["sweep requires sweep and traffic sections"])
    router_spec = next(n for n in config.nodes if n.id == config.sweep.router)
    points: list[SweepPoint] = []
    results: list[RunResult] = []
    # a completion line names the node and kind in its second and third fields
    served = f"\t{config.sweep.router}\tcs_hit_served\t"
    for delta, mu, horizon_ms in sweep_points(config, router_spec):
        # each point shares the base config's records, which a run only reads
        traffic = replace(
            config.traffic,
            delta=delta,
            lambda_per_s=config.sweep.saturation_factor * mu,
            max_interests=config.sweep.interests_per_point,
        )
        point_config = replace(config, sweep=None, traffic=traffic, duration_ms=horizon_ms)
        result, _ = run_config(point_config)
        measured = analysis.mixture_rate_estimate(
            result.log_lines,
            config.sweep.router,
            delta,
            t0=config.traffic.start_ms,
        )
        completions = sum(served in line for line in result.log_lines)
        points.append(SweepPoint(delta, mu, measured, completions))
        results.append(result)
    return points, results


# -- output ------------------------------------------------------------------------


def _by_node(counts: dict) -> dict[str, dict]:
    """``{(node, key): n}`` nested as ``{node: {key: n}}``, in key order."""
    nested: dict[str, dict] = {}
    for (node, key), n in sorted(counts.items()):
        nested.setdefault(node, {})[key] = n
    return nested


def summarize(result: RunResult, config: ScenarioConfig) -> dict:
    return {
        "scenario": config.name,
        "seed": result.seed,
        "counters": result.counters,
        "drops": _by_node(result.drops),
        "producer_interests": _by_node(result.producer_interests),
        "delivered_by_consumer": dict(Counter(d.consumer for d in result.deliveries)),
        "attacks": [asdict(a) for a in result.attacks],
        "captured_probe_outcomes": result.captured_probe_outcomes,
        "conservation": result.conservation,
    }


def write_outputs(result: RunResult, config: ScenarioConfig, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "emission.log").write_text("\n".join(result.log_lines) + "\n")
    (out / "summary.json").write_text(json.dumps(summarize(result, config), indent=2) + "\n")
    drops = [("drop", node, reason, n) for (node, reason), n in sorted(result.drops.items())]
    interests = [("producer_interest", node, name_hex, n)
                 for (node, name_hex), n in sorted(result.producer_interests.items())]
    counters = [("counter", "", key, value) for key, value in sorted(result.counters.items())]
    analysis.write_csv(out / "metrics.csv", ("metric", "node", "detail", "value"),
                       [*drops, *interests, *counters])


def run_scenario(config: ScenarioConfig, out_dir) -> list[SweepPoint]:
    """Execute one scenario (or its sweep) and write all artifacts; returns
    the sweep points written, none for a run without a sweep."""
    out = Path(out_dir)
    if config.sweep is None:
        result, _ = run_config(config)
        write_outputs(result, config, out)
        return []
    points, results = run_sweep(config)
    out.mkdir(parents=True, exist_ok=True)
    analysis.write_csv(out / "mu_model.csv", ("delta", "mu_model", "mu_measured"),
                       [(p.delta, p.mu_model, p.mu_measured) for p in points])
    merged_lines = []
    for point, result in zip(points, results):
        merged_lines += [f"# delta={point.delta}"] + result.log_lines
    (out / "emission.log").write_text("\n".join(merged_lines) + "\n")
    summary = {"scenario": config.name, "seed": config.seed, "sweep": [asdict(p) for p in points]}
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return points
