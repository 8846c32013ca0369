"""Code that runs once per simulated event reads no enum member off its class.

On Python 3.10 and 3.11 ``ProtectionPolicy.PUBLIC`` goes through the enum
class's ``__getattr__`` (about 85 ns, against 7 ns for a global), so the
per-event functions read members from module constants bound at import.
The guard walks each function's bytecode, nested code included, for a
global that resolves to an enum class followed by an attribute read.
"""

import dis
import enum
import types

import pytest

from ibac import authcheck, consumer
from ibac.producer import Producer, ProtectionPolicy
from ibac.router import Router
from ibac.simnet import Simulation

PER_EVENT = [
    Simulation._probe_shot,
    Simulation._replay_shot,
    Simulation._forge_shot,
    Simulation._next_shot,
    Simulation._fire,
    Simulation._router_message,
    Simulation._router_done,
    Simulation._batch_flush,
    Simulation._producer_message,
    Simulation._producer_done,
    Simulation._consumer_arrival,
    Simulation._adversary_arrival,
    Simulation._do_fetch,
    Simulation._do_expire,
    Router.on_interest,
    Router._miss,
    Router._serve_or_drop,
    Router._enqueue_batch,
    Router.flush_batch,
    Router.on_content,
    Router.on_nack,
    Router._evict,
    Router.expire,
    Producer._resolve,
    Producer.content_object_generation,
    Producer._build_content,
    authcheck.precheck,
    authcheck.verify_any,
    authcheck.run_authorization_check,
    consumer.interest_generation,
]

_UNRESOLVED = object()


def _code_objects(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def enum_member_reads(fn) -> list[str]:
    """``Class.attr`` reads in ``fn`` where ``Class`` is an enum class
    reached from a global, directly or through module attributes."""
    found = []
    for code in _code_objects(fn.__code__):
        value = _UNRESOLVED
        for ins in dis.get_instructions(code):
            if ins.opname == "LOAD_GLOBAL":
                value = fn.__globals__.get(ins.argval, _UNRESOLVED)
            elif ins.opname in ("LOAD_ATTR", "LOAD_METHOD") and value is not _UNRESOLVED:
                if isinstance(value, enum.EnumMeta):  # ``EnumType`` from 3.11 on
                    found.append(f"{value.__name__}.{ins.argval}")
                value = getattr(value, ins.argval, _UNRESOLVED)
            elif ins.opname not in ("CACHE", "EXTENDED_ARG"):
                value = _UNRESOLVED
    return found


@pytest.mark.parametrize("fn", PER_EVENT, ids=lambda fn: fn.__qualname__)
def test_a_per_event_function_reads_no_enum_member_off_its_class(fn):
    assert enum_member_reads(fn) == []


def _reads_off_the_class():
    return [ProtectionPolicy.PUBLIC for _ in range(1)]


def test_the_guard_sees_a_member_read_off_its_class():
    assert enum_member_reads(_reads_off_the_class) == ["ProtectionPolicy.PUBLIC"]
    assert enum_member_reads(lambda: consumer.ConsumerMode.FULL) == ["ConsumerMode.FULL"]
