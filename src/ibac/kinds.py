"""Field kinds for config records, and the one checker that checks them.

Every field of a config record declares its kind where it is defined::

    @config_record
    class FetchSpec:
        at_ms: float = declare(TIME)

``check`` tests every field of a record against its kind and reports each
mismatch in one line, such as ``fetch of /a/b: at_ms must be a
non-negative number``.  ``bool`` is not a number here, and every number
that drives simulated time, a loop count or an allocation is finite and
bounded, so no file can ask for a run that never ends.  The bounds admit
every bundled scenario and every benchmark configuration.
"""

from __future__ import annotations

import dataclasses
import functools

MAX_MS = 10**9  # a simulated time, interval or latency: about 11.6 days
MAX_S = MAX_MS // 1000  # a service cost in seconds
MAX_COUNT = 10**7  # shots, interests, batch items, a capture index
MAX_RATE_PER_S = 10**6  # Poisson traffic
MAX_DATA_BYTES = 1 << 24  # generated content data
MAX_SUFFIX_BYTES = 1024  # a probe's random name suffix
MAX_SWEEP_TICKS = 10**6  # expiry sweeps per node in a run: duration_ms / expiry_sweep_ms

_SEQ = (list, tuple)


def declare(kind, default=dataclasses.MISSING, *, factory=dataclasses.MISSING):
    """A field of ``kind``, for a class that ``config_record`` makes."""
    return dataclasses.field(default=default, default_factory=factory, metadata={"kind": kind})


def config_record(cls):
    """``cls`` as a dataclass whose fields are ``declare``d, with its field
    test built now, as ``dataclass`` builds ``__init__``."""
    cls = dataclasses.dataclass(cls)
    tester(cls)
    return cls


def _at(where: str, text: str) -> str:
    return f"{where}: {text}" if where else text


class Kind:
    """What a field may hold: ``ok`` tests a value, and a value that fails
    is told that it must be ``what``."""

    what = ""

    def problems(self, where, name, value) -> list[str]:
        return [_at(where, f"{name} must be {self.what}")]


class Num(Kind):
    """A number in ``[lo, hi]``, or ``(lo, hi]`` when ``strict``; only an
    ``int`` when ``integer``.  With ``lo`` None it is bounded above only, and
    NaN passes, for a rule across fields to refuse.  ``what`` is told a value
    of the wrong type or sign, ``bound`` any other."""

    def __init__(self, lo, hi, *, strict=False, integer=False, optional=False,
                 what=None, bound=None):
        self.lo, self.hi, self.strict, self.optional = lo, hi, strict, optional
        self.types = (int,) if integer else (int, float)
        noun = "integer" if integer else "number"
        a_noun = f"an {noun}" if integer else f"a {noun}"
        sign = "positive " if strict else "non-negative " if lo == 0 else ""
        self.what = what or (f"a {sign}{noun}" if sign else a_noun)
        if lo is None:
            self.bound = bound or f"{a_noun} at most {hi:,}"
        else:
            self.bound = bound or f"{a_noun} in {'(' if strict else '['}{lo:,}, {hi:,}]"

    def ok(self, value) -> bool:
        if type(value) not in self.types:
            return value is None and self.optional
        lo = self.lo
        return not value > self.hi and (lo is None or (value > lo if self.strict else value >= lo))

    def problems(self, where, name, value) -> list[str]:
        lo = self.lo
        if type(value) in (int, float) and value == value and (
            lo is None or lo < 0 or (value > lo if self.strict else value >= lo)
        ):
            return [_at(where, f"{name} must be {self.bound}")]
        return super().problems(where, name, value)


class Choice(Kind):
    """One of ``values``, of the same type: a name, say, which is told
    ``unknown mode 'X'`` unless ``what`` says what it must be."""

    def __init__(self, values, what=None):
        self.values = tuple(values)
        self.types = {type(v) for v in self.values}
        self.what = what

    def ok(self, value) -> bool:
        return type(value) in self.types and value in self.values

    def problems(self, where, name, value) -> list[str]:
        if self.what:
            return super().problems(where, name, value)
        return [_at(where, f"unknown {name} {value!r}")]


class Text(Kind):
    """A string: an id, a name or URI, a label.  A field that names another
    record may say so in ``refused``, the message for any other value."""

    def __init__(self, *, optional=False, refused="{name} must be a string"):
        self.optional, self.refused = optional, refused

    def ok(self, value) -> bool:
        return type(value) is str or (value is None and self.optional)

    def problems(self, where, name, value) -> list[str]:
        return [_at(where, self.refused.format(name=name, value=value))]


class Ids(Kind):
    """A list of strings, the ids of other records; ``least`` of them at least."""

    def __init__(self, least=0):
        self.least = least
        self.what = f"a {'non-empty ' if least else ''}list of strings"

    def ok(self, value) -> bool:
        return (type(value) in _SEQ and len(value) >= self.least
                and all(type(v) is str for v in value))


class Pairs(Kind):
    """A list of ``[a, b]`` node-id pairs."""

    what = "a list of [node, node] pairs"

    def ok(self, value) -> bool:
        return type(value) in _SEQ and all(
            type(p) in _SEQ and len(p) == 2 and type(p[0]) is str and type(p[1]) is str
            for p in value
        )


class Fractions(Kind):
    """A list of numbers in [0, 1], each bad entry reported on its own and
    named in the singular (``sweep delta 'x' outside [0, 1]``)."""

    what = "a list"

    def ok(self, value) -> bool:
        return type(value) in _SEQ and all(FRACTION.ok(v) for v in value)

    def problems(self, where, name, value) -> list[str]:
        if type(value) not in _SEQ:
            return super().problems(where, name, value)
        return [f"{where} {name[:-1]} {v!r} outside [0, 1]" for v in value if not FRACTION.ok(v)]


class Either(Kind):
    """A value of any one of ``kinds``."""

    def __init__(self, *kinds, what):
        self.kinds, self.what = kinds, what

    def ok(self, value) -> bool:
        return any(k.ok(value) for k in self.kinds)


class Records(Kind):
    """A list of ``cls`` records, each checked where the list is walked."""

    def __init__(self, cls):
        self.cls, self.what = cls, f"a list of {cls.__name__}"

    def ok(self, value) -> bool:
        return type(value) is list and all(type(r) is self.cls for r in value)


class Record(Kind):
    """A ``cls`` record, or None for a block the file leaves out."""

    def __init__(self, cls):
        self.cls, self.what = cls, f"a {cls.__name__}"

    def ok(self, value) -> bool:
        return value is None or type(value) is self.cls


TEXT = Text()
IDS = Ids()
BOOL = Choice((False, True), "true or false")
TIME = Num(0, MAX_MS)
FRACTION = Num(0, 1, what="a number in [0, 1]")
SEED = Num(0, (1 << 64) - 1, integer=True, what="an integer in [0, 2**64)",
           bound="an integer in [0, 2**64)")  # key generation reads 8 bytes
CAPTURE = Either(Num(0, MAX_COUNT, integer=True), Choice(("cycle",)),
                 what='a capture index or "cycle"')


@functools.cache
def fields(cls) -> dict:
    """``cls``'s field names and their kinds, read once per class."""
    return {f.name: f.metadata["kind"] for f in dataclasses.fields(cls)}


@functools.cache
def tester(cls):
    """Whether every field of a ``cls`` record is of its kind, as one
    generated function: a scenario may script thousands of fetches, and a
    loop over the fields costs about twice as much.  ``check`` runs it
    first; a caller walking thousands of records runs it itself and labels
    only the records that fail."""
    declared = fields(cls)
    body = " and ".join(f"_{name}(r.{name})" for name in declared)
    return eval(f"lambda r: {body}", {f"_{name}": kind.ok for name, kind in declared.items()})


_NONE = frozenset()


def check(record, where: str, errors: list[str]) -> frozenset:
    """Append to ``errors`` one message per field of ``record`` that is not
    of its kind, labelled ``where``; return those fields' names."""
    if tester(type(record))(record):
        return _NONE
    bad = []
    for name, kind in fields(type(record)).items():
        value = getattr(record, name)
        if not kind.ok(value):
            errors += kind.problems(where, name, value)
            bad.append(name)
    return frozenset(bad)


def refusal(record, name: str, where: str) -> str:
    """The message for ``record``'s field ``name`` as it stands: a rule
    across records gives it to a string that names no record, so a field
    that names another record has one message whatever is wrong with it."""
    return fields(type(record))[name].problems(where, name, getattr(record, name))[0]


def shown(text: str) -> str:
    """``text`` as an error line names it: whole up to 40 characters, else
    its first 40 and its length in UTF-8 bytes."""
    if len(text) <= 40:
        return text
    return f"{text[:40]}... ({len(text.encode()):,} bytes)"


def problems(record, where: str) -> list[str]:
    """The messages ``check`` gives ``record``."""
    out: list[str] = []
    check(record, where, out)
    return out
