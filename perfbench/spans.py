"""Layer spans recorded from outside the library.

A :class:`Tracer` wraps the public call of each layer of ``src/lexpref``
(module attributes, looked up at install time) and keeps a stack of open
spans.  When a span closes, its duration is added to its name's inclusive
total and its self time (duration minus the time its child spans cover) to
its name's self total, so nested spans never count twice: the self times of
all spans opened under one root add up to the root's duration.

Spans are aggregated as they close rather than stored one by one; an
``optimal`` op on the desk grid opens a few thousand of them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import defaultdict
from time import perf_counter

# (module, attribute path, span name).  The first three are the layer entry
# points the CLI calls by their imported names; the rest are the calls
# between layers below it.  Class spans sit on the per-representative
# membership methods, the only calls that separate PO, PSO, CSD and NO.
HOOKS = (
    ("lexpref.cli", "parse_instance", "instance.parse"),
    ("lexpref.cli", "consistent", "engine.consistent"),
    ("lexpref.cli", "compute_sets_timed", "optimality.compute"),
    ("lexpref.engine", "satisfies", "statements.satisfies"),
    ("lexpref.engine", "EncodedGamma.__init__", "engine.encode"),
    ("lexpref.engine", "EncodedGamma.run", "kernel.run"),
    ("lexpref.optimality", "consistent_from_encoding", "engine.decode"),
    ("lexpref.optimality", "consistent_with_comparisons", "engine.compare"),
    ("lexpref.optimality", "_MembershipRun.po_rep", "optimality.po"),
    ("lexpref.optimality", "_MembershipRun.pso_rep", "optimality.pso"),
    ("lexpref.optimality", "_MembershipRun.csd_rep", "optimality.csd"),
    ("lexpref.optimality", "_MembershipRun.no_rep", "optimality.no"),
)

CLASS_SPANS = ("optimality.po", "optimality.pso", "optimality.csd",
               "optimality.no")


class Tracer:
    """Span stack plus per-name totals; install with :meth:`installed`."""

    def __init__(self):
        self.incl = defaultdict(float)     # span name -> seconds, inclusive
        self.self_s = defaultdict(float)   # span name -> seconds, self
        self.count = defaultdict(int)      # span name -> spans closed
        self.kernel_tests = 0
        self.class_calls = defaultdict(int)  # class span -> kernel calls
        self.missing: set[str] = set()
        self._stack: list[list] = []

    def enter(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def exit(self) -> None:
        end = perf_counter()
        name, start, child = self._stack.pop()
        dur = end - start
        self.incl[name] += dur
        self.self_s[name] += dur - child
        self.count[name] += 1
        if self._stack:
            self._stack[-1][2] += dur

    def _kernel_result(self, result) -> None:
        self.kernel_tests += int(result[6])
        for frame in reversed(self._stack):
            if frame[0] in CLASS_SPANS:
                self.class_calls[frame[0]] += 1
                break

    def _wrap(self, fn, name: str):
        on_result = self._kernel_result if name == "kernel.run" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if on_result is not None:
                on_result(result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every hook in for the ``with`` block, then restore it.

        A hook whose target no longer exists is skipped and named in
        ``missing``; its metrics then read 0.
        """
        saved = []
        try:
            for module_name, path, span in HOOKS:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                try:
                    for part in parents:
                        owner = getattr(owner, part)
                    original = getattr(owner, attr)
                except AttributeError:
                    self.missing.add(f"{module_name}.{path}")
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, span))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self) -> dict:
        """Copy of the counts so far."""
        return {"count": dict(self.count), "tests": self.kernel_tests,
                "class_calls": dict(self.class_calls)}
