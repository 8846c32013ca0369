"""Deterministic discrete-event network simulator.

Nodes exchange message records over fixed-latency links.  Routers and
producers serve one message at a time: a message's handler runs at its
service start (arrival or the end of the previous service, whichever is
later) and its effects leave the node at service completion, which costs
the node's processing time plus one verification time per signature check
actually performed.  Queueing delay therefore emerges from the event loop.
All randomness flows from the seed, so a run is a pure function of its
configuration and seed: traffic, nonces, encryption and adversary choices
from the simulation's one generator (``rng``), and each router's batch
exponents from its own stream (``derived_seed(seed, "batch:" + id)``), so
the draws of a batch move no other node's events.

The event queue is a heap of ``(time, seq, handler, runtime, args)``;
``run`` pops an entry and calls ``handler(runtime, time, *args)``, and
``seq`` breaks ties in time.  Handlers are methods of the simulation: the
receiving node's ``arrive`` (set by its role), a service's completion or a
timer's own.  Routers and producers are served on one path.  A producer
has the router's service interface (``on_interest``, ``on_content``,
``expire``) and answers with ``RouterEvent``s, so both arrive through
``_serve`` and complete through ``_done``.  ``_serve``, like a
batch-flush timer, is the service start: it tests the node's ``busy``
flag itself, serves at once when the node is idle, and otherwise queues
``(handler, args)``, which ``_next_service`` replays when the current
service completes.  ``_done`` logs each event, sends the record of a
``_SEND_KINDS`` event, counts a ``DROP_KINDS`` event and NACKs it when
its reason is a payload refusal; with nothing queued it just clears
``busy``.  A batch timer whose queue was flushed full starts no service,
so ``_next_service`` goes on to the next entry.  Protocol code
(``Router.on_interest``, ``crypto.*``) is looked up where it is called,
never stored in an event.

An adversary action is one record, a ``_ShotChain``: ``schedule_action``
makes it with the action, its index, its ``(kind, index)`` tag and its
``KIND#index`` reason, and queues the action's start.  An action of ``n``
shots reserves ``n`` consecutive sequence numbers when it starts, and each
shot schedules the next at ``at + i * interval_ms`` under its reserved
number.  With non-negative latencies, service costs and intervals no
handler schedules an event before its own time, so every shot pops exactly
where queueing all of them up front would, ties included, while the heap
holds one shot per action.  ``_start_action`` fills in what the shots
share -- the shot handler of the action's kind (``_probe_shot``,
``_replay_shot`` or ``_forge_shot``), the target interface and, for a name
probe, a ``wire.SuffixTemplate``, and for a probe of captured names the
first capture of each.  The template is made from the action's
``first_probe()``, a name built by the ``ObfuscatedName`` constructor;
each random probe then draws its suffix, and the template joins it to
fixed bytes into a name that carries them.  A replay or forgery shot with
no capture to take logs ``adv_noop`` (``_select_capture``).  The record
counts the shots that put an interest on the link (``sent``) and the
contents that answered them (``successes``).  ``_result`` reads each
action's ``AttackStat`` off its record, in index order, and folds the sent
counts into the ``injected`` and ``adv_injected`` counters.  The first
shot sent puts both keys in place, so ``counters`` keeps the key order
that one increment per shot gives, which ``summary.json`` writes.

Consumers and adversaries book what they wait for in one kind of book,
a ``_WaitBook`` (``pending``): name bytes to the requests waiting for
that name, first in first out.  A consumer books the ``Name`` it
fetched, an adversary each shot's tag, which every random probe of an
action shares.  The book holds a lone entry as itself and makes a list
only for a name that waits twice, so a probe flood makes no container
per probe.  ``_result`` counts both roles' books into the requests
pending at the end.

Links carry records only, and a run encodes and decodes no message.
Every sender -- a consumer's fetch, a producer's content, a router's
forward or cache serve, an adversary's probe, forgery or replay -- passes
the record it holds to ``_send``, and the receiver takes that record.  A
tap appends the ``Interest`` itself to each tapping adversary's
``captures``.  Every record's bytes decode to an equal record (see
``wire``), so a record stands for the bytes a real link would carry.
Every name carries its Name TLV from its construction (``name._wire``),
and a probe's template joins its name's bytes, so receivers, routers and
producers read name bytes off the name.

A node that refuses an interest which came from a router, for a reason
that depends on the record's payload (``PAYLOAD_REFUSALS``), sends a
``wire.Nack`` carrying the refused record back on that face (``_nack``,
logged ``nack_sent``).  The router takes it as one more message, served
for ``tau_process`` (``Router.on_nack``).  Only routers get NACKs: a
consumer or adversary keeps no PIT for one to act on.

Each node's link table maps an interface to the peer's runtime, the
latency, the peer's interface for the link and the runtimes of the
adversaries tapping it (none when the sender is itself an adversary), so
a send is one lookup.

``AdversaryAction`` and ``TrafficProfile`` hold values as a scenario file
writes them: a probe prefix is a URI, a probe scheme a ``SchemeTag`` value
and a traffic target a content URI.  Each field declares its kind
(``kinds.declare``), and ``schedule_action`` and ``set_traffic`` raise what
the one field checker finds as ``ConfigError``: ``kinds.problems`` for a
profile, and for an action its ``problems()``, which adds the rules across
its own fields: a ``NAME_PROBE`` needs a prefix, and its ``first_probe()``
must be a name the wire can carry.  ``add_link`` refuses a link from a
node to itself.  The simulator resolves the file values once: a probe's
prefix and scheme when its action starts, and the traffic targets to the
registered names and their prefixes in ``set_traffic``, never per shot or
per fetch.

Each call that schedules work for a named node (``add_tap``,
``schedule_fetch``, ``set_traffic``, ``schedule_action``,
``schedule_rekey``) looks the node up with ``_node``, which raises
``ConfigError`` for an unknown id or a node of another role before
anything is queued.  ``run`` refuses an action whose adversary has no
link to its target with ``ConfigError`` before any event, so the link
can still be added and the simulation run.  A simulation runs once: after
``run``, ``_node`` and ``run`` itself raise ``ConfigError``, since work
dated before the run's end would otherwise be replayed after it by a
second ``run``.

The emission log is append-only, one line per event:
``time<TAB>node<TAB>kind<TAB>name-hex<TAB>reason``; ``log_event`` writes
every line.  Router event kinds and drop and failure reasons are plain
``str`` constants, which go into the line and key the drop counts as they
are.  Each producer counts the interests it takes by name bytes
(``Producer.interest_counts``), and ``RunResult.producer_interests``
turns them into hex on first read.

``run`` pauses the cyclic garbage collector for its event loop and
restores the caller's setting when the loop ends or raises.  A run makes
no reference cycles, so a pass would find nothing, yet under a probe
flood each pass walks tens of thousands of live PIT records.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import heapq
import random
from collections import Counter, deque
from dataclasses import dataclass, field

from . import crypto, kinds
from .authcheck import FailReason, members
from .consumer import ConsumerContext, interest_generation
from .kinds import (BOOL, CAPTURE, FRACTION, IDS, MAX_COUNT, MAX_MS, MAX_RATE_PER_S,
                    MAX_SUFFIX_BYTES, TEXT, TIME, Choice, Num, Text, declare, config_record)
from .producer import DropReason as ProducerDrop
from .producer import Producer, ProtectionPolicy
from .router import EventKind, Router
from .wire import (
    AuthorizationPayload,
    ContentObject,
    EmptySuffix,
    EncodeError,
    Interest,
    Nack,
    Name,
    ObfuscatedName,
    PrefixMismatch,
    SchemeTag,
    SuffixTemplate,
    longest_prefix_match,
    suffix,
)

# interest-processing completions, the events service-rate measurement counts;
# a re-forward after a NACK (``int_reforwarded``) completes no new interest
INTEREST_COMPLETION_KINDS = frozenset(
    {"cs_hit_served", "int_forwarded", "int_aggregated", "int_drop"}
)

REPLAY_SAME_PATH = "REPLAY_SAME_PATH"
REPLAY_CROSS_PATH = "REPLAY_CROSS_PATH"
FORGE_PAYLOAD = "FORGE_PAYLOAD"
NAME_PROBE = "NAME_PROBE"
ATTACK_KINDS = (REPLAY_SAME_PATH, REPLAY_CROSS_PATH, FORGE_PAYLOAD, NAME_PROBE)

# router and producer events that put their record on a link, and those
# counted as drops
_SEND_KINDS = frozenset(
    {
        EventKind.SERVE_FROM_CACHE,
        EventKind.FORWARD_INTEREST,
        EventKind.REFORWARD,
        EventKind.FORWARD_CONTENT,
        EventKind.SERVE_CONTENT,
    }
)
DROP_KINDS = frozenset({EventKind.DROP_INTEREST, EventKind.DROP_CONTENT, EventKind.PENDING_DROP})
# refusals that depend on the refused record's payload, so that a record
# aggregated behind it may still pass: these are NACKed to a router.  A
# name-level refusal (UnknownName, PrefixMismatch, AuthenticityFailure,
# NoRoute) fails every record for the name alike.
PAYLOAD_REFUSALS = frozenset(members(FailReason)) | {
    ProducerDrop.UNAUTHORIZED,
    ProducerDrop.DECRYPT_FAILURE,
}


class ConfigError(ValueError):
    pass


@config_record
class AdversaryAction:
    """One scripted attack, as a scenario file writes it."""

    kind: str = declare(Choice(ATTACK_KINDS))
    at_ms: float = declare(TIME)
    target: str = declare(Text(refused="unknown target {value!r}"))
    count: int = declare(Num(0, MAX_COUNT, integer=True), 1)
    interval_ms: float = declare(TIME, 1.0)
    capture: int | str = declare(CAPTURE, "cycle")
    include_captured: bool = declare(BOOL, False)
    probe_prefix: str | None = declare(Text(optional=True), None)  # URI of the probed prefix
    probe_scheme: str = declare(Choice(members(SchemeTag)), "HASH")
    probe_suffix_len: int = declare(Num(0, MAX_SUFFIX_BYTES, strict=True, integer=True), 32)
    label: str = declare(TEXT, "")

    def problems(self, where: str = "adversary action") -> list[str]:
        """What is wrong with the action's fields; empty when it can run."""
        out = kinds.problems(self, where)
        if out or self.kind != NAME_PROBE:
            return out
        if not (self.probe_prefix or "").strip("/"):
            return [f"{where}: NAME_PROBE needs probe_prefix"]
        try:
            self.first_probe()
        except EncodeError as exc:
            return [f"{where}: probe names under {kinds.shown(self.probe_prefix)}"
                    f" cannot be encoded: {exc}"]
        return []

    def first_probe(self) -> ObfuscatedName:
        """The name a NAME_PROBE's interests are made from: its prefix, a
        suffix of its length and its scheme; the constructor checks them."""
        prefix = Name.from_uri(self.probe_prefix).components
        return ObfuscatedName(prefix, bytes(self.probe_suffix_len), self.probe_scheme)


@config_record
class TrafficProfile:
    """Poisson fetches by one consumer, as a scenario file writes them: the
    targets are content URIs."""

    consumer: str = declare(Text(refused="unknown consumer {value!r}"))
    lambda_per_s: float = declare(Num(0, MAX_RATE_PER_S, strict=True, what="positive"))
    delta: float = declare(FRACTION)
    start_ms: float = declare(TIME, 0.0)  # a fetch before time 0 stamps a negative time
    max_interests: int | None = declare(Num(0, MAX_COUNT, integer=True, optional=True), None)
    end_ms: float | None = declare(Num(-MAX_MS, MAX_MS, optional=True), None)
    ibac_targets: list[str] = declare(IDS, factory=list)
    public_targets: list[str] = declare(IDS, factory=list)


@dataclass
class Delivery:
    time_ms: float
    consumer: str
    name: Name
    data: bytes


@dataclass
class AttackStat:
    index: int
    kind: str
    at_ms: float
    label: str
    attempts: int
    successes: int


@dataclass(slots=True)
class _ShotChain:
    """One scheduled adversary action: made when it is scheduled, filled in
    with what every shot shares when it starts, and counting the shots
    sent and the contents that answered them."""

    index: int
    adversary: str  # the id of the adversary that fires it
    action: AdversaryAction
    tag: tuple  # ``(kind, index)``, each shot's pending entry
    reason: str  # the ``int_sent`` line's reason, ``KIND#index``
    handler: object = None  # the shot handler of the action's kind
    shots: int = 0
    start: float = 0.0
    first_seq: int = 0  # the first of ``shots`` reserved sequence numbers
    target_iface: int = 0  # the adversary's face toward the action's target
    probe: SuffixTemplate | None = None  # a NAME_PROBE's random-name interests
    captured: list | tuple = ()  # a NAME_PROBE's first capture of each name
    sent: int = 0  # shots that put an interest on the link
    successes: int = 0  # contents that reached the adversary for a shot


class _WaitBook(dict):
    """Name bytes -> the requests waiting for that name, oldest first.  A
    lone entry is held as itself and a list is made only for a name that
    waits twice, so no entry may itself be a list."""

    __slots__ = ()

    def put(self, name_bytes: bytes, entry) -> None:
        held = self.get(name_bytes)
        if held is None:
            self[name_bytes] = entry
        elif type(held) is list:
            held.append(entry)
        else:
            self[name_bytes] = [held, entry]

    def take(self, name_bytes: bytes):
        """The oldest entry waiting for ``name_bytes``, taken out of the
        book; None when none waits."""
        held = self.get(name_bytes)
        if type(held) is not list:
            if held is not None:
                del self[name_bytes]
            return held
        entry = held.pop(0)
        if not held:
            del self[name_bytes]
        return entry

    def count(self) -> int:
        """The entries waiting, over every name."""
        return sum(len(held) if type(held) is list else 1 for held in self.values())


@dataclass
class _ConsumerState:
    ctx: ConsumerContext
    fib: dict = field(default_factory=dict)
    pending: _WaitBook = field(default_factory=_WaitBook)  # name bytes -> Name fetched


@dataclass
class _AdversaryState:
    material: crypto.GroupKeyMaterial
    captures: list = field(default_factory=list)  # tapped Interests, in order
    pending: _WaitBook = field(default_factory=_WaitBook)  # name bytes -> a shot's tag
    captured_probe_outcomes: dict = field(default_factory=dict)  # name hex -> count


@dataclass
class _NodeRuntime:
    node_id: str
    role: str
    obj: object
    tau_process_ms: float = 0.0
    tau_verify_ms: float = 0.0
    arrive: object = None  # handler of a message arriving here
    busy: bool = False
    work_queue: deque = field(default_factory=deque)  # (handler, args)
    # iface -> (peer runtime, latency, peer's iface for the link,
    #           runtimes of the tapping adversaries)
    ifaces: dict = field(default_factory=dict)
    iface_to: dict = field(default_factory=dict)  # peer id -> iface


@dataclass
class RunResult:
    seed: int
    log_lines: list[str]
    counters: dict
    drops: dict
    deliveries: list[Delivery]
    attacks: list[AttackStat]
    captured_probe_outcomes: dict
    conservation: dict
    nodes: dict

    @functools.cached_property
    def producer_interests(self) -> dict:
        """The producers' interest counts keyed by ``(node, name hex)``,
        made on first read."""
        return {
            (node, name_bytes.hex()): n
            for node, obj in self.nodes.items() if isinstance(obj, Producer)
            for name_bytes, n in obj.interest_counts.items()
        }

    def drop_total(self, reason: str | None = None) -> int:
        if reason is None:
            return sum(self.drops.values())
        return sum(v for (node, r), v in self.drops.items() if r == reason)

    def attack_stat(self, kind: str, index: int | None = None) -> AttackStat:
        hits = [a for a in self.attacks if a.kind == kind]
        if index is not None:
            hits = [a for a in hits if a.index == index]
        if len(hits) != 1:
            raise KeyError(f"{kind}[{index}] matched {len(hits)} actions")
        return hits[0]


def _check_producer_key(consumer: str, ctx: ConsumerContext, prefix: tuple) -> None:
    """Refuse a fetch under ``prefix`` by ``consumer`` that encrypts group
    ids but holds no producer key for that prefix."""
    if ctx.producer_public and prefix not in ctx.producer_public:
        raise ConfigError(f"consumer {consumer}: no producer key for the prefix {prefix!r}")


def _routable_prefix(name: Name, prefix) -> tuple[bytes, ...]:
    """``prefix`` as a tuple, which must be a strict leading part of ``name``."""
    prefix = tuple(prefix)
    try:
        suffix(name, prefix)
    except (PrefixMismatch, EmptySuffix):
        raise ConfigError(
            f"routable prefix {prefix!r} is not a strict leading part of {name.to_uri()}"
        ) from None
    return prefix


def offer_problems(where: str, delta: float, ibac, public) -> list[str]:
    """What is wrong with offering IBAC fetches at weight ``delta`` and public
    ones at ``1 - delta`` from these targets: a weighted class needs one."""
    return [
        f"{where}: delta {delta} offers {label} fetches, but there is no {label} target"
        for label, weight, targets in (("IBAC", delta, ibac), ("public", 1 - delta, public))
        if weight > 0 and not targets
    ]


def derived_seed(base: int, label: str) -> int:
    """A seed of its own for ``label``, fixed by the run's seed ``base``."""
    digest = hashlib.sha256(f"{base}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class Simulation:
    def __init__(
        self,
        seed: int = 0,
        horizon_ms: float = 60_000.0,
        expiry_sweep_ms: float = 500.0,
    ):
        if not (isinstance(expiry_sweep_ms, (int, float)) and expiry_sweep_ms > 0):
            # the sweep reschedules itself this far ahead; at 0 it never ends
            raise ConfigError(f"expiry_sweep_ms must be positive, got {expiry_sweep_ms!r}")
        self.seed = seed
        self.rng = random.Random(seed)
        self.horizon_ms = horizon_ms
        self.expiry_sweep_ms = expiry_sweep_ms
        self.now = 0.0
        self._ran = False
        self._queue: list = []
        self._seq = 0
        self.nodes: dict[str, _NodeRuntime] = {}
        self._taps: dict[frozenset, tuple[_NodeRuntime, ...]] = {}
        self._chains: list[_ShotChain] = []  # every scheduled action, by index
        self.content_prefixes: dict[tuple[bytes, ...], tuple[bytes, ...]] = {}
        self.log_lines: list[str] = []
        self.counters: Counter = Counter()
        self.drops: Counter = Counter()
        self.deliveries: list[Delivery] = []

    # -- construction -----------------------------------------------------

    def _add_node(self, rt: _NodeRuntime) -> _NodeRuntime:
        if rt.node_id in self.nodes:
            raise ConfigError(f"duplicate node id {rt.node_id}")
        rt.arrive = {
            "router": self._serve,
            "producer": self._serve,
            "consumer": self._consumer_arrival,
            "adversary": self._adversary_arrival,
        }[rt.role]
        self.nodes[rt.node_id] = rt
        return rt

    def _node(self, node_id: str, role: str) -> _NodeRuntime:
        """The runtime of ``node_id``, which must have ``role``, in a
        simulation that has not run yet."""
        if self._ran:
            raise ConfigError("the simulation has already run")
        rt = self.nodes.get(node_id)
        if rt is None:
            raise ConfigError(f"unknown {role} {node_id!r}")
        if rt.role != role:
            raise ConfigError(f"{node_id!r} has role {rt.role}, not {role}")
        return rt

    def add_router(
        self,
        node_id: str,
        router: Router | None = None,
        tau_process_s: float = 0.0005,
        tau_verify_s: float = 0.0005,
    ) -> Router:
        router = router or Router()
        if router.batch_rng is None:
            router.batch_rng = random.Random(derived_seed(self.seed, f"batch:{node_id}"))
        self._add_node(
            _NodeRuntime(
                node_id,
                "router",
                router,
                tau_process_ms=tau_process_s * 1000.0,
                tau_verify_ms=tau_verify_s * 1000.0,
            )
        )
        return router

    def add_producer(
        self,
        node_id: str,
        producer: Producer,
        tau_process_s: float = 0.0005,
        tau_verify_s: float = 0.0005,
    ) -> Producer:
        self._add_node(
            _NodeRuntime(
                node_id,
                "producer",
                producer,
                tau_process_ms=tau_process_s * 1000.0,
                tau_verify_ms=tau_verify_s * 1000.0,
            )
        )
        return producer

    def add_consumer(
        self,
        node_id: str,
        group: crypto.GroupKeyMaterial,
        mode,
        scheme: str = SchemeTag.ENC,
        producer_public=None,
        clock_offset_ms: float = 0.0,
    ) -> _ConsumerState:
        ctx = ConsumerContext(
            group=group,
            mode=mode,
            scheme=scheme,
            clock=lambda offset=clock_offset_ms: self.now + offset,
            rng=self.rng,
            producer_public=producer_public or {},
        )
        state = _ConsumerState(ctx)
        self._add_node(_NodeRuntime(node_id, "consumer", state))
        return state

    def add_adversary(self, node_id: str, material: crypto.GroupKeyMaterial) -> _AdversaryState:
        state = _AdversaryState(material)
        self._add_node(_NodeRuntime(node_id, "adversary", state))
        return state

    def add_link(self, a: str, b: str, latency_ms: float) -> None:
        if a == b:
            raise ConfigError(f"link ({a}, {b}): a node cannot link to itself")
        for end in (a, b):
            if end not in self.nodes:
                raise ConfigError(f"link references unknown node {end}")
        rt_a, rt_b = self.nodes[a], self.nodes[b]
        ia, ib = len(rt_a.ifaces), len(rt_b.ifaces)
        rt_a.ifaces[ia] = (rt_b, latency_ms, ib, ())
        rt_a.iface_to[b] = ia
        rt_b.ifaces[ib] = (rt_a, latency_ms, ia, ())
        rt_b.iface_to[a] = ib
        self._set_link_taps(a, b)

    def add_tap(self, a: str, b: str, adversary: str) -> None:
        """Let ``adversary`` capture the interests sent between ``a`` and ``b``.

        The tap covers every link between the two, added before or after it.
        """
        key = frozenset((a, b))
        self._taps[key] = self._taps.get(key, ()) + (self._node(adversary, "adversary"),)
        if a in self.nodes and b in self.nodes:
            self._set_link_taps(a, b)

    def _set_link_taps(self, a: str, b: str) -> None:
        taps = self._taps.get(frozenset((a, b)), ())
        for end, peer_id in ((a, b), (b, a)):
            rt = self.nodes[end]
            if rt.role == "adversary":
                continue
            for iface, (peer, latency, arrival, _) in rt.ifaces.items():
                if peer.node_id == peer_id:
                    rt.ifaces[iface] = (peer, latency, arrival, taps)

    def register_content_prefix(self, name: Name, prefix) -> None:
        self.content_prefixes[name.components] = _routable_prefix(name, prefix)

    def schedule_fetch(self, consumer: str, name: Name, at_ms: float, prefix=None) -> None:
        rt = self._node(consumer, "consumer")
        if prefix is None:
            prefix = self.content_prefixes.get(name.components)
            if prefix is None:
                raise ConfigError(f"no routable prefix known for {name.to_uri()}")
        else:
            prefix = _routable_prefix(name, prefix)
        _check_producer_key(consumer, rt.obj.ctx, prefix)
        self._push(at_ms, self._do_fetch, rt, (name, prefix))

    def set_traffic(self, profile: TrafficProfile) -> None:
        """Start ``profile``; its targets must name registered contents."""
        problems = kinds.problems(profile, "traffic")
        if problems:
            raise ConfigError("; ".join(problems))
        pools = ([], [])  # (name, routable prefix) of each IBAC and public target
        for pool, uris in zip(pools, (profile.ibac_targets, profile.public_targets)):
            for name in map(Name.from_uri, uris):
                prefix = self.content_prefixes.get(name.components)
                if prefix is None:
                    problems.append(f"traffic: target {name.to_uri()!r}: no content registered")
                else:
                    pool.append((name, prefix))
        problems += offer_problems("traffic", profile.delta, *pools)
        if problems:
            raise ConfigError("; ".join(problems))
        rt = self._node(profile.consumer, "consumer")
        for pool in pools:
            for _, prefix in pool:
                _check_producer_key(profile.consumer, rt.obj.ctx, prefix)
        self._push(profile.start_ms, self._do_traffic, rt, (profile, *pools, 0))

    def schedule_action(self, adversary: str, action: AdversaryAction) -> int:
        problems = action.problems()
        if problems:
            raise ConfigError("; ".join(problems))
        rt = self._node(adversary, "adversary")
        index = len(self._chains)
        chain = _ShotChain(index, adversary, action, (action.kind, index),
                           f"{action.kind}#{index}")
        self._chains.append(chain)
        self._push(action.at_ms, self._start_action, rt, (chain,))
        return index

    def schedule_rekey(
        self, at_ms: float, producer: str, name: Name, new_group_materials, revoke_ids
    ) -> None:
        """Re-publish ``name`` at ``at_ms`` under the new groups, after
        revoking the groups ``revoke_ids``.

        The content is published before its rekey is scheduled, as
        ``scenario.build`` does.  A name outside the producer's catalog, a
        PUBLIC content or no new group is refused here with ``ConfigError``,
        before anything is queued, so the rekey cannot fail when it fires.
        """
        rt = self._node(producer, "producer")
        new_group_materials = tuple(new_group_materials)
        entry = rt.obj.catalog.get(name.components)
        if entry is None:
            raise ConfigError(f"rekey of {name.to_uri()}: not in the catalog of {producer}")
        if entry.policy == ProtectionPolicy.PUBLIC:
            raise ConfigError(f"rekey of {name.to_uri()}: public content has no access groups")
        if not new_group_materials:
            raise ConfigError(f"rekey of {name.to_uri()}: no new group given")
        args = (name, new_group_materials, tuple(revoke_ids))
        self._push(at_ms, self._do_rekey, rt, args)

    # -- event machinery ----------------------------------------------------

    def _push(self, t: float, handler, rt: _NodeRuntime, args: tuple = ()) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (t, self._seq, handler, rt, args))

    def log_event(self, t: float, node: str, kind: str, name_bytes: bytes, reason="") -> None:
        self.log_lines.append(
            f"{t:.3f}\t{node}\t{kind}\t{name_bytes.hex()}\t{reason}"
        )

    def _send(self, rt: _NodeRuntime, iface: int, message, t: float) -> None:
        """Put ``message`` on the link; a tapping adversary captures an
        interest as the record sent."""
        peer, latency, arrival_iface, taps = rt.ifaces[iface]
        if taps and isinstance(message, Interest):
            for adversary in taps:
                adversary.obj.captures.append(message)
        self._seq += 1
        args = (arrival_iface, message)
        heapq.heappush(self._queue, (t + latency, self._seq, peer.arrive, peer, args))

    def _nack(self, rt: _NodeRuntime, iface: int, refused: Interest, reason, t: float) -> None:
        """Send a NACK for ``refused`` back on ``iface`` when a router is
        there: only routers keep a PIT that a NACK can act on."""
        if rt.ifaces[iface][0].role == "router":
            self.log_event(t, rt.node_id, "nack_sent", refused.name._wire, reason)
            self._send(rt, iface, Nack(refused, reason), t)

    def run(self) -> RunResult:
        if self._ran:
            raise ConfigError("the simulation has already run")
        for chain in self._chains:
            if chain.action.target not in self.nodes[chain.adversary].iface_to:
                raise ConfigError(f"adversary {chain.adversary} has no link to action"
                                  f" target {chain.action.target}")
        self._ran = True
        for rt in self.nodes.values():
            if rt.role in ("router", "producer"):
                self._push(self.expiry_sweep_ms, self._do_expire, rt)
        queue = self._queue
        horizon = self.horizon_ms
        collecting = gc.isenabled()
        gc.disable()  # a run makes no reference cycles for the collector to find
        try:
            while queue:
                t, _, handler, rt, args = heapq.heappop(queue)
                if t > horizon:
                    break
                self.now = t
                handler(rt, t, *args)
        finally:
            if collecting:
                gc.enable()
        return self._result()

    # -- arrivals and the one-message-at-a-time service discipline -------------

    # A service runs the node's handler and schedules its completion, which
    # applies the effects and moves on to the next queued service.

    def _next_service(self, rt: _NodeRuntime, t: float) -> None:
        """At a service's completion, start the next queued one, if any; a
        stale batch timer starts none, and the one after it is tried."""
        rt.busy = False
        while rt.work_queue and not rt.busy:
            handler, args = rt.work_queue.popleft()
            handler(rt, t, *args)

    def _serve(self, rt: _NodeRuntime, t: float, iface: int, message) -> None:
        """A message arriving at a router or producer: served now if the
        node is idle, else queued behind the service under way."""
        if rt.busy:
            rt.work_queue.append((self._serve, (iface, message)))
            return
        rt.busy = True
        if isinstance(message, Interest):
            events, verifies = rt.obj.on_interest(message, iface, t)
        elif isinstance(message, ContentObject):
            events, verifies = rt.obj.on_content(message, iface, t)
        else:
            events, verifies = rt.obj.on_nack(message, iface, t)
        completion = t + rt.tau_process_ms + verifies * rt.tau_verify_ms
        self._seq += 1
        heapq.heappush(self._queue, (completion, self._seq, self._done, rt, (events,)))

    def _batch_flush(self, rt: _NodeRuntime, t: float, key: tuple, serial: int) -> None:
        if rt.busy:
            rt.work_queue.append((self._batch_flush, (key, serial)))
            return
        events, verifies = rt.obj.flush_batch(key, t, serial)
        if events:  # none for a stale timer, whose queue was flushed full
            rt.busy = True
            self._push(t + verifies * rt.tau_verify_ms, self._done, rt, (events,))

    def _done(self, rt: _NodeRuntime, at: float, events) -> None:
        """A router's or producer's service completion: log each event, send
        its record or count its drop (NACKing a payload refusal), then start
        the next queued service."""
        for ev in events:
            kind = ev.kind
            if kind is EventKind.BATCH_TIMER:
                self._push(ev.at, self._batch_flush, rt, (ev.batch_key, ev.batch_serial))
                continue
            reason = ev.reason or ""
            self.log_event(at, rt.node_id, kind, ev.name_bytes, reason)
            if kind in _SEND_KINDS:
                self._send(rt, ev.iface, ev.message, at)
            elif kind in DROP_KINDS:
                self.drops[(rt.node_id, reason)] += 1
                if reason in PAYLOAD_REFUSALS:
                    self._nack(rt, ev.iface, ev.message, reason, at)
            elif kind is EventKind.NACKED:
                self._nack(rt, ev.iface, ev.message, reason, at)
        if rt.work_queue:
            self._next_service(rt, at)
        else:
            rt.busy = False

    def _consumer_arrival(self, rt: _NodeRuntime, t: float, iface: int, message) -> None:
        state: _ConsumerState = rt.obj
        name_bytes = message.name._wire
        if isinstance(message, Interest):
            self.log_event(t, rt.node_id, "int_drop", name_bytes, "Unexpected")
            self.drops[(rt.node_id, "Unexpected")] += 1
            return
        requested = state.pending.take(name_bytes)
        if requested is None:
            self.log_event(t, rt.node_id, "content_drop", name_bytes, "Unsolicited")
            self.drops[(rt.node_id, "Unsolicited")] += 1
            return
        self.deliveries.append(Delivery(t, rt.node_id, requested, message.data))
        self.counters["delivered"] += 1
        self.log_event(t, rt.node_id, "content_delivered", name_bytes)

    def _adversary_arrival(self, rt: _NodeRuntime, t: float, iface: int, message) -> None:
        state: _AdversaryState = rt.obj
        if isinstance(message, Interest):
            return
        name_bytes = message.name._wire
        tag = state.pending.take(name_bytes)
        if tag is None:
            self.log_event(t, rt.node_id, "content_drop", name_bytes, "Unsolicited")
            return
        kind, index = tag
        self._chains[index].successes += 1
        if kind == "NAME_PROBE_CAPTURED":
            hex_name = name_bytes.hex()
            state.captured_probe_outcomes[hex_name] = (
                state.captured_probe_outcomes.get(hex_name, 0) + 1
            )
        self.counters["adv_delivered"] += 1
        self.log_event(t, rt.node_id, "adv_content", name_bytes, kind)

    # -- timers ---------------------------------------------------------------

    def _do_fetch(self, rt: _NodeRuntime, t: float, name: Name, prefix) -> None:
        state: _ConsumerState = rt.obj
        interest = interest_generation(state.ctx, prefix, name)
        name_bytes = interest.name._wire
        self.counters["injected"] += 1
        self.counters["consumer_fetches"] += 1
        out_iface = longest_prefix_match(state.fib, interest.name)
        if out_iface is None:
            self.log_event(t, rt.node_id, "int_drop", name_bytes, "NoRoute")
            self.drops[(rt.node_id, "NoRoute")] += 1
            self.counters["origin_drops"] += 1
            return
        state.pending.put(name_bytes, name)
        self.log_event(t, rt.node_id, "int_sent", name_bytes)
        self._send(rt, out_iface, interest, t)

    def _do_traffic(
        self, rt: _NodeRuntime, t: float, profile: TrafficProfile, ibac: list, public: list,
        sent: int,  # the fetches this profile has made so far
    ) -> None:
        if profile.max_interests is not None and sent >= profile.max_interests:
            return
        if profile.end_ms is not None and t > profile.end_ms:
            return
        # set_traffic refused a delta that weighs a class with no target
        use_ibac = ibac and self.rng.random() < profile.delta
        self._do_fetch(rt, t, *self.rng.choice(ibac if use_ibac else public))
        next_t = t + self.rng.expovariate(profile.lambda_per_s / 1000.0)
        self._push(next_t, self._do_traffic, rt, (profile, ibac, public, sent + 1))

    def _start_action(self, rt: _NodeRuntime, t: float, chain: _ShotChain) -> None:
        """Fill in what every shot of the action shares, its kind's shot
        handler among it, reserve a sequence number for each shot and
        schedule the first; each shot schedules the next."""
        action = chain.action
        shots = action.count
        if action.kind == NAME_PROBE:
            chain.handler = self._probe_shot
            chain.probe = SuffixTemplate(action.first_probe())
            if action.include_captured:
                chain.captured = self._first_capture_of_each_name(rt.obj)
                shots += len(chain.captured)
        elif action.kind == FORGE_PAYLOAD:
            chain.handler = self._forge_shot
        else:
            chain.handler = self._replay_shot
        chain.target_iface = rt.iface_to[action.target]
        chain.shots, chain.start, chain.first_seq = shots, t, self._seq + 1
        self._seq += shots
        if shots:
            heapq.heappush(self._queue, (t, chain.first_seq, chain.handler, rt, (chain, 0)))

    @staticmethod
    def _first_capture_of_each_name(state: _AdversaryState) -> list[Interest]:
        """The first capture of each distinct name, in order of capture."""
        seen: dict[bytes, Interest] = {}
        for capture in state.captures:
            seen.setdefault(capture.name._wire, capture)
        return list(seen.values())

    def _select_capture(self, rt: _NodeRuntime, t: float, action: AdversaryAction, shot: int):
        """The capture a replay or forgery shot sends again; None, logged
        ``adv_noop``, when there is none to take."""
        captures = rt.obj.captures
        if action.capture == "cycle":
            if captures:
                return captures[shot % len(captures)]
        elif action.capture < len(captures):
            return captures[action.capture]
        self.log_event(t, rt.node_id, "adv_noop", b"", "no capture")
        return None

    def _next_shot(self, rt: _NodeRuntime, chain: _ShotChain, shot: int) -> None:
        """Schedule the shot after ``shot``, if the action has one left,
        under its reserved sequence number."""
        following = shot + 1
        if following < chain.shots:
            at = chain.start + following * chain.action.interval_ms
            args = (chain, following)
            heapq.heappush(
                self._queue, (at, chain.first_seq + following, chain.handler, rt, args)
            )

    def _probe_shot(self, rt: _NodeRuntime, t: float, chain: _ShotChain, shot: int) -> None:
        """A NAME_PROBE shot: a random name under the probed prefix, or,
        after the action's ``count`` of those, the next captured name
        with its payload stripped."""
        self._next_shot(rt, chain, shot)
        random_shots = chain.action.count
        if shot < random_shots:
            size = chain.probe.suffix_len
            message = chain.probe.interest(self.rng.getrandbits(size * 8).to_bytes(size, "big"))
            self._fire(rt, t, chain, message, message.name._wire, chain.tag)
            return
        base = chain.captured[shot - random_shots]
        name_bytes = base.name._wire
        rt.obj.captured_probe_outcomes.setdefault(name_bytes.hex(), 0)
        tag = ("NAME_PROBE_CAPTURED", chain.index)
        self._fire(rt, t, chain, Interest(base.name), name_bytes, tag)

    def _replay_shot(self, rt: _NodeRuntime, t: float, chain: _ShotChain, shot: int) -> None:
        """A REPLAY_SAME_PATH or REPLAY_CROSS_PATH shot: a capture, resent as taken."""
        self._next_shot(rt, chain, shot)
        message = self._select_capture(rt, t, chain.action, shot)
        if message is not None:
            self._fire(rt, t, chain, message, message.name._wire, chain.tag)

    def _forge_shot(self, rt: _NodeRuntime, t: float, chain: _ShotChain, shot: int) -> None:
        """A FORGE_PAYLOAD shot: a capture's name under a fresh payload
        signed with the adversary's own group key."""
        self._next_shot(rt, chain, shot)
        state: _AdversaryState = rt.obj
        base = self._select_capture(rt, t, chain.action, shot)
        if base is None:
            return
        name_bytes = base.name._wire
        group_id = base.payload.group_id if base.payload else state.material.group_id
        encrypted = base.payload.group_id_encrypted if base.payload else False
        kappa = state.material.kappa
        nonce = self.rng.getrandbits(kappa).to_bytes(kappa // 8, "big")
        message = Interest(
            base.name,
            AuthorizationPayload.signed_on_read(
                state.material, name_bytes, group_id, encrypted, nonce, round(t)
            ),
        )
        self._fire(rt, t, chain, message, name_bytes, chain.tag)

    def _fire(self, rt: _NodeRuntime, t: float, chain: _ShotChain, message: Interest,
              name_bytes: bytes, tag: tuple) -> None:
        """Send one shot's interest to the action's target, pending as ``tag``."""
        rt.obj.pending.put(name_bytes, tag)
        if not chain.sent:
            # the keys ``_result`` folds the count into, where an increment
            # per shot would put them
            self.counters.setdefault("injected", 0)
            self.counters.setdefault("adv_injected", 0)
        chain.sent += 1
        self.log_event(t, rt.node_id, "int_sent", name_bytes, chain.reason)
        self._send(rt, chain.target_iface, message, t)

    def _do_expire(self, rt: _NodeRuntime, t: float) -> None:
        for ev in rt.obj.expire(t):
            self.log_event(t, rt.node_id, ev.kind, ev.name_bytes)
        next_t = t + self.expiry_sweep_ms
        if next_t <= self.horizon_ms:
            self._push(next_t, self._do_expire, rt)

    def _do_rekey(
        self, rt: _NodeRuntime, t: float, name: Name, new_materials, revoke_ids
    ) -> None:
        producer: Producer = rt.obj
        for gid in revoke_ids:
            producer.revoke_group(gid)
        for material in new_materials:
            if material.group_id not in producer.registry:
                producer.register_group(material)
        new_ids = tuple(m.group_id for m in new_materials)
        key = producer.rekey_content(name, new_ids)
        if key is not None:
            # provisioned out of band to the new groups' members, as at publish
            for node in self.nodes.values():
                if node.role == "consumer" and node.obj.ctx.group.group_id in new_ids:
                    node.obj.ctx.content_keys[name.components] = key
        self.log_event(t, rt.node_id, "rekey", name._wire)

    # -- results ---------------------------------------------------------------

    def _result(self) -> RunResult:
        # each action's record, and its sent shots into the keys its first
        # sent shot put in place
        counters = dict(self.counters)
        attacks = []
        for chain in self._chains:
            action = chain.action
            attacks.append(AttackStat(chain.index, action.kind, action.at_ms, action.label,
                                      chain.sent, chain.successes))
            if chain.sent:
                counters["injected"] += chain.sent
                counters["adv_injected"] += chain.sent
        pending = 0
        captured_outcomes: dict[str, int] = {}
        for rt in self.nodes.values():
            if rt.role in ("consumer", "adversary"):
                pending += rt.obj.pending.count()
            if rt.role == "adversary":
                captured_outcomes.update(rt.obj.captured_probe_outcomes)
        conservation = {
            "injected": counters.get("injected", 0),
            "delivered": counters.get("delivered", 0)
            + counters.get("adv_delivered", 0),
            "origin_drops": counters.get("origin_drops", 0),
            "pending_at_end": pending,
        }
        conservation["balanced"] = (
            conservation["injected"]
            == conservation["delivered"]
            + conservation["origin_drops"]
            + conservation["pending_at_end"]
        )
        return RunResult(
            seed=self.seed,
            log_lines=self.log_lines,
            counters=counters,
            drops=dict(self.drops),
            deliveries=self.deliveries,
            attacks=attacks,
            captured_probe_outcomes=captured_outcomes,
            conservation=conservation,
            nodes={node_id: rt.obj for node_id, rt in self.nodes.items()},
        )
