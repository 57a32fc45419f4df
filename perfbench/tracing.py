"""Layer spans recorded from the benchmark's side of each call.

The traced run wraps the public functions and methods of each layer
(``strings``, ``automata``, ``mso``, ``core``, ``lint``, ``corpus``,
``serve``) in a span, without editing the program.  A span knows its
parent through a per-thread stack, so each layer's *self* time is its
span time minus the time of the spans it caused.  A span opened on a
thread whose stack is empty (the serve dispatcher runs requests in
``asyncio.to_thread`` workers) takes the innermost open span of the
main thread as its parent: the main thread is blocked on that request
while the worker thread runs.

Patching by identity: ``from x import f`` copies the function object
into the importing module, so patching ``x.f`` alone would miss those
callers.  :meth:`Tracer.patch_function` replaces every binding of the
original object in every loaded ``repro`` and ``perfbench`` module.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Every wrapper the traced run installs: ``(module, attribute, span
#: name, size hook)`` for functions and ``(module, class, method, span
#: name)`` for methods.  A span's layer is the first part of its name.
FUNCTIONS: Tuple[Tuple[str, str, str, Optional[Callable[[Any], int]]], ...] = (
    ("repro.strings.nfa", "union_nfa", "strings.union_nfa", None),
    ("repro.strings.dfa", "determinize", "strings.determinize", None),
    ("repro.automata.nta", "intersect_nta", "automata.intersect_nta",
     lambda result: len(result.states)),
    ("repro.automata.bta", "intersect_bta", "automata.intersect_bta", None),
    ("repro.mso.compile", "compile_mso", "mso.compile_mso", None),
    ("repro.core.topdown_analysis", "is_copying", "core.is_copying", None),
    ("repro.core.topdown_analysis", "is_rearranging", "core.is_rearranging", None),
    ("repro.core.topdown_analysis", "counter_example", "core.counter_example", None),
    ("repro.core.typecheck", "inverse_type_nta", "core.inverse_type_nta", None),
    ("repro.core.typecheck", "typechecks", "core.typechecks", None),
    ("repro.core.dtl_analysis", "is_copying_dtl", "core.is_copying_dtl", None),
    ("repro.core.dtl_analysis", "is_rearranging_dtl", "core.is_rearranging_dtl", None),
    ("repro.lint.dataflow.framework", "analyze", "lint.dataflow_analyze", None),
    ("repro.corpus.cache", "job_cache_key", "corpus.job_cache_key", None),
    ("repro.corpus.manifest", "discover_jobs", "corpus.discover_jobs", None),
    ("repro.corpus.runner", "run_corpus", "corpus.run_corpus", None),
)

METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.strings.nfa", "NFA", "__init__", "strings.nfa_init"),
    ("repro.automata.nta", "NTA", "is_empty", "automata.is_empty"),
    ("repro.automata.nta", "NTA", "witness", "automata.witness"),
    ("repro.automata.bta", "BTA", "determinize", "automata.bta_determinize"),
    ("repro.corpus.cache", "ResultCache", "get", "corpus.cache_get"),
    ("repro.corpus.cache", "ResultCache", "put", "corpus.cache_put"),
    ("repro.serve.dispatcher", "Dispatcher", "admit", "serve.admit"),
)

LAYERS = ("strings", "automata", "mso", "core", "lint", "corpus", "serve")


class _Frame:
    __slots__ = ("name", "start", "child_ns")

    def __init__(self, name: str) -> None:
        self.name = name
        self.start = time.perf_counter_ns()
        self.child_ns = 0


class Tracer:
    """Call counts, inclusive and exclusive time per span name."""

    def __init__(self) -> None:
        # name -> [calls, inclusive ns, self ns, size]
        self.stats: Dict[str, List[int]] = {}
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: List[_Frame] = []
        self._lock = threading.Lock()
        self._restore: List[Tuple[Any, str, Any]] = []
        #: Wrappers record only while this is set: around the timed
        #: call, not while inputs are built or checked.
        self.active = False

    def _stack(self) -> List[_Frame]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the benchmark itself."""
        opened = self._open(name)
        try:
            yield
        finally:
            self._close(opened)

    def _open(self, name: str) -> Tuple[_Frame, List[_Frame]]:
        stack = self._stack()
        frame = _Frame(name)
        stack.append(frame)
        return frame, stack

    def _close(self, opened: Tuple[_Frame, List[_Frame]], size: int = 0) -> None:
        frame, stack = opened
        duration = time.perf_counter_ns() - frame.start
        stack.pop()
        outer = any(other.name == frame.name for other in stack)
        parent: Optional[_Frame] = stack[-1] if stack else None
        if parent is None and stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        with self._lock:
            entry = self.stats.setdefault(frame.name, [0, 0, 0, 0])
            entry[0] += 1
            if not outer:  # recursion: count the outermost call's time once
                entry[1] += duration
            entry[2] += duration - frame.child_ns
            entry[3] += size
            if parent is not None:
                parent.child_ns += duration

    def wrap(self, name: str, function: Callable[..., Any],
             size: Optional[Callable[[Any], int]] = None) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return function(*args, **kwargs)
            opened = tracer._open(name)
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                tracer._close(opened, size(result) if size and result is not None else 0)

        return wrapper

    def patch_function(self, module_name: str, attr: str, name: str,
                       size: Optional[Callable[[Any], int]] = None) -> None:
        """Replace every ``repro`` and ``perfbench`` module binding of
        ``module.attr``."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = self.wrap(name, original, size)
        for module_key, module in list(sys.modules.items()):
            if module is None or not module_key.startswith(("repro", "perfbench")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapper)

    def patch_method(self, module_name: str, class_name: str, method: str,
                     name: str) -> None:
        cls = getattr(sys.modules[module_name], class_name)
        original = cls.__dict__[method]
        self._restore.append((cls, method, original))
        setattr(cls, method, self.wrap(name, original))

    def install(self) -> None:
        """Install every wrapper of FUNCTIONS and METHODS."""
        for module_name, attr, name, size in FUNCTIONS:
            importlib.import_module(module_name)
            self.patch_function(module_name, attr, name, size)
        for module_name, class_name, method, name in METHODS:
            importlib.import_module(module_name)
            self.patch_method(module_name, class_name, method, name)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- read-out ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0, 0, 0])[0]

    def ms(self, name: str) -> float:
        return self.stats.get(name, [0, 0, 0, 0])[1] / 1e6

    def self_ms(self, name: str) -> float:
        return self.stats.get(name, [0, 0, 0, 0])[2] / 1e6

    def size(self, name: str) -> int:
        return self.stats.get(name, [0, 0, 0, 0])[3]

    def layer_self_ms(self) -> Dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for name, entry in self.stats.items():
            totals[name.split(".", 1)[0]] += entry[2] / 1e6
        return totals
