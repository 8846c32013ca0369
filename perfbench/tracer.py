"""Span tracer installed from outside the program.

Wraps the public entry points of every ``ibac`` layer and aggregates call
counts, total time and self time (span time minus the time of wrapped
spans it called) per span name and parent, in memory.  The wrappers only
read the clock, so a traced run emits the same events as an untraced one;
the benchmark checks that through the emission-log digest.

Names bound with ``from .wire import ...`` are separate bindings in each
importing module, so a wrapped function replaces every binding of the
original object in every loaded ``ibac`` module.  Methods are replaced on
their class.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# span name -> ("module" or "module:Class", wrapped attributes)
SPANS = {
    "crypto.sign": ("ibac.crypto", ("sign_payload",)),
    "crypto.verify": ("ibac.crypto", ("verify_payload",)),
    "crypto.batch_verify": ("ibac.crypto", ("batch_verify",)),
    "crypto.obfuscate": ("ibac.crypto", ("obfuscate_enc", "obfuscate_hash", "deobfuscate_enc")),
    "crypto.gen_group": ("ibac.crypto", ("gen_group",)),
    "wire.decode": ("ibac.wire", ("decode_message",)),
    "wire.encode": ("ibac.wire", ("encode_name", "encode_interest", "encode_content")),
    "authcheck.check": ("ibac.authcheck", ("run_authorization_check",)),
    "consumer.interest_generation": ("ibac.consumer", ("interest_generation",)),
    "router.on_interest": ("ibac.router:Router", ("on_interest",)),
    "router.on_content": ("ibac.router:Router", ("on_content",)),
    "router.flush_batch": ("ibac.router:Router", ("flush_batch",)),
    "router.expire": ("ibac.router:Router", ("expire",)),
    "producer.generate": ("ibac.producer:Producer", ("content_object_generation",)),
    "simnet.run": ("ibac.simnet:Simulation", ("run",)),
    "scenario.build": ("ibac.scenario", ("build",)),
    "scenario.check_invariants": ("ibac.scenario", ("check_invariants",)),
    "scenario.run_sweep": ("ibac.scenario", ("run_sweep",)),
    "analysis.mixture_rate_estimate": ("ibac.analysis", ("mixture_rate_estimate",)),
}


class Tracer:
    def __init__(self):
        # each frame: [span name, time spent in wrapped children]
        self._stack: list[list] = [["<none>", 0.0]]
        self._root = "<none>"
        # (root, span, parent) -> [calls, total_s, self_s]
        self.stats: dict[tuple[str, str, str], list] = {}
        self.root_s: dict[str, float] = {}
        self.batch_items = 0
        self.batch_passed = 0
        self.checks_passed = 0
        self._restore: list = []

    def _record(self, name: str, frame: list, dur: float) -> None:
        parent = self._stack[-1]
        parent[1] += dur
        key = (self._root, name, parent[0])
        rec = self.stats.get(key)
        if rec is None:
            rec = self.stats[key] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame[1]

    @contextmanager
    def root(self, name: str):
        """Top-level span; its own time is what no wrapped span accounts for."""
        outer = self._root
        self._root = name
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - start
            self._stack.pop()
            self._root = outer
            self.root_s[name] = self.root_s.get(name, 0.0) + dur

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        record = self._record
        observe = {
            "crypto.batch_verify": self._observe_batch,
            "authcheck.check": self._observe_check,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                record(name, frame, dur)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observe_batch(self, args, result) -> None:
        self.batch_items += len(args[2])
        self.batch_passed += bool(result)

    def _observe_check(self, args, result) -> None:
        self.checks_passed += bool(result.passed)

    def install(self) -> None:
        modules = [
            m for n, m in sorted(sys.modules.items()) if n == "ibac" or n.startswith("ibac.")
        ]
        for name, (owner, attrs) in SPANS.items():
            module_name, _, class_name = owner.partition(":")
            target = sys.modules[module_name]
            if class_name:
                cls = getattr(target, class_name)
                for attr in attrs:
                    original = cls.__dict__[attr]
                    setattr(cls, attr, self._wrap(name, original))
                    self._restore.append((cls, attr, original))
                continue
            for attr in attrs:
                original = getattr(target, attr)
                wrapped = self._wrap(name, original)
                for module in modules:
                    for binding, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, binding, wrapped)
                            self._restore.append((module, binding, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reading the aggregate ------------------------------------------------

    def per_span(self) -> dict[str, list]:
        """span -> [calls, self_s], summed over roots and parents."""
        out: dict[str, list] = {}
        for (_, name, _), (calls, _, self_s) in self.stats.items():
            rec = out.setdefault(name, [0, 0.0])
            rec[0] += calls
            rec[1] += self_s
        return out

    def coverage(self, root: str) -> float:
        """Share of the root's wall time accounted for by self time of its spans.

        Self times telescope, so a sound tracer reads just under 1: the rest
        is glue in the root itself.  Above 1 means time was counted twice.
        """
        inside = sum(rec[2] for (r, _, _), rec in self.stats.items() if r == root)
        return inside / self.root_s[root]

    def table(self) -> list[str]:
        rows = sorted(self.stats.items(), key=lambda kv: -kv[1][2])
        return [
            f"{root:<11} {name:<31} {parent:<31} {calls:>9} {total:>10.4f} {self_s:>10.4f}"
            for (root, name, parent), (calls, total, self_s) in rows
        ]
