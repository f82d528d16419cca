"""Span and call-count tracing installed from outside the package.

The package has no tracing of its own, so the benchmark wraps every public
function of each package module at every module attribute that binds it.
Modules import each other's functions by name (``finiten.log_g_table``,
``thermo.adaptive_quad``, ...), so patching only the defining module would
miss most calls; patching every binding catches them all.

Each wrapped call is a span: name, thread, start, end, the span that caused
it, and its self time (duration minus the time its child spans cover).
Stacks are kept per thread. ``cli.cmd_thermo`` runs its grid on a pool
worker while the main thread waits in it, so a span that opens on a worker
thread with an empty stack takes the main thread's innermost open span as
its parent. The hottest scalar functions are only counted, since a span per
call would cost more than the call.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from collections import Counter
from contextlib import contextmanager

# called about a thousand times per root: count only, no span
COUNT_ONLY = frozenset({"thermo.dH_beta", "thermo.d2H_beta", "quadrature.fixed_quad"})


class _Frame:
    __slots__ = ("sid", "name", "t0", "child", "parent", "filled", "note")

    def __init__(self, sid, name, parent, note):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.note = note
        self.child = 0.0
        self.filled = False
        self.t0 = 0.0


class Tracer:
    """Wraps the public functions of `modules`; install() and remove() toggle it.

    `notes` maps a span name to a function of the call's (args, kwargs) whose
    result is stored on the span record.
    """

    def __init__(self, modules, notes=None):
        self.modules = list(modules)
        self.notes = dict(notes or {})
        self.records: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[_Frame] = []
        self._wrappers = {}
        for mod in self.modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    wrap = self._counter if name in COUNT_ONLY else self._spanner
                    self._wrappers[fn] = wrap(name, fn)
        self._patches: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        for mod in self.modules:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in self._wrappers:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, self._wrappers[val])

    def remove(self) -> None:
        for mod, attr, val in self._patches:
            setattr(mod, attr, val)
        self._patches = []

    @contextmanager
    def active(self, op: int):
        """Trace one op: wrappers in place, spans tagged with `op`."""
        self.op = op
        self.install()
        try:
            yield
        finally:
            self.remove()

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def _open(self, name, note=None) -> tuple[list, _Frame]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]  # thread hop: the main thread waits in it
        else:
            parent = None
        frame = _Frame(next(self._ids), name, parent, note)
        stack.append(frame)
        frame.t0 = time.perf_counter()
        return stack, frame

    def _close(self, stack, frame) -> None:
        t1 = time.perf_counter()
        stack.pop()
        dur = t1 - frame.t0
        parent = frame.parent
        if parent is not None:
            parent.child += dur
            if frame.filled or frame.name == "kernels.gtable_values":
                parent.filled = True
        self.records.append(
            (
                self.op,
                frame.name,
                threading.get_ident(),
                frame.t0,
                t1,
                dur - frame.child,
                frame.sid,
                parent.sid if parent is not None else None,
                frame.filled,
                frame.note,
            )
        )

    def _spanner(self, name, fn):
        note_fn = self.notes.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            note = note_fn(args, kwargs) if note_fn is not None else None
            stack, frame = self._open(name, note)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(stack, frame)

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper
