"""Span tracing from outside the program.

``Tracer.install`` replaces every public function of the traced qpolylog
modules, in every module namespace that binds it (``cli``, ``identities`` and
``contour`` import names such as ``quad_F`` directly, and
``identities.CHECKS`` holds the check functions), by a wrapper that records a
span: name, start, end, parent span and thread id.  ``cli``'s thread pool is
replaced by a subclass that hands the submitting span to each task, so work
done by ``--workers 2`` threads is attributed to the command that queued it.
Spans stay in memory until ``summarize`` reads them; ``uninstall`` restores
the original objects.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

LAYERS = ("cli", "identities", "contour", "series", "exact")

# cli has no __all__; these are the functions the workloads reach.
CLI_FUNCTIONS = ("main", "cmd_eval", "cmd_verify", "cmd_table", "evaluate_point", "canonical_json")


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    thread: int
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _diagnostics(result) -> dict:
    """Counters read from an EvalResult's diagnostics; {} for other results."""
    diag = getattr(result, "diagnostics", None)
    if diag is None:
        return {}
    info = {}
    nodes = diag.get("nodes_per_axis")
    if nodes:
        prod = 1
        for v in nodes:
            prod *= int(v)
        info["grid_points"] = prod
    if "levels" in diag:
        info["levels"] = int(diag["levels"])
    if "terms" in diag:
        info["terms"] = int(diag["terms"])
    return info


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple] = []
        self._wrapped: set[str] = set()

    # -- span bookkeeping ------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        if stack:
            return stack[-1]
        return getattr(self._local, "inherited", None)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, tracer.current(), threading.get_ident())
            with tracer._lock:
                tracer.spans.append(span)
                sid = len(tracer.spans) - 1
            if name == "exact.bernoulli_exact":
                span.info["key"] = tuple(args[:3]) + tuple(sorted(kwargs.items()))
            stack = tracer._stack()
            stack.append(sid)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.info.update(_diagnostics(result))
            return result

        return traced

    def _executor_class(self):
        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def task(*a, **k):
                    tracer._local.inherited = parent
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer._local.inherited = None

                return super().submit(task, *args, **kwargs)

        return TracedExecutor

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr: str, value, is_dict: bool = False) -> None:
        old = owner[attr] if is_dict else getattr(owner, attr)
        self._patches.append((owner, attr, old, is_dict))
        if is_dict:
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals: dict[int, tuple[object, str]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"qpolylog.{layer}"]
            names = CLI_FUNCTIONS if layer == "cli" else getattr(mod, "__all__", ())
            for attr in names:
                obj = getattr(mod, attr, None)
                if callable(obj) and not isinstance(obj, type) and getattr(obj, "__module__", "") == mod.__name__:
                    originals[id(obj)] = (obj, f"{layer}.{attr}")
        identities = sys.modules["qpolylog.identities"]
        for key, fn in identities.CHECKS.items():
            originals[id(fn)] = (fn, f"identities.{key}")  # one span name per check family
        wrappers = {oid: self._wrap(name, fn) for oid, (fn, name) in originals.items()}
        self._wrapped = {name for _, name in originals.values()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "qpolylog" or modname.startswith("qpolylog.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and originals[id(obj)][0] is obj:
                    self._set(mod, attr, wrappers[id(obj)])
        for key, fn in list(identities.CHECKS.items()):
            self._set(identities.CHECKS, key, wrappers[id(fn)], is_dict=True)
        cli = sys.modules["qpolylog.cli"]
        self._set(cli, "ThreadPoolExecutor", self._executor_class())

    def wrapped_names(self) -> set:
        """Span names of every function the last install wrapped."""
        return set(self._wrapped)

    def uninstall(self) -> None:
        for owner, attr, old, is_dict in reversed(self._patches):
            if is_dict:
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._patches.clear()

    # -- reduction -------------------------------------------------------

    def summarize(self) -> dict:
        """Per-function calls, total and self seconds, plus layer counters,
        for the spans recorded since the last call; clears the spans."""
        spans, self.spans = self.spans, []
        children: dict[int, list[int]] = defaultdict(list)
        for sid, s in enumerate(spans):
            if s.parent is not None:
                children[s.parent].append(sid)
        out: dict[str, float] = defaultdict(float)
        seen_keys: dict[int, set] = defaultdict(set)
        for sid, s in enumerate(spans):
            dur = s.end - s.start
            covered = _union_length(
                [(spans[c].start, spans[c].end) for c in children.get(sid, ())], s.start, s.end
            )
            out[f"{s.name}.calls"] += 1
            out[f"{s.name}.s"] += dur
            out[f"{s.name}.self_s"] += dur - covered
            parent_layer = spans[s.parent].layer if s.parent is not None else None
            if parent_layer != s.layer:
                # first span of a layer: its diagnostics are not counted twice
                for key, val in s.info.items():
                    if key != "key":
                        out[f"{s.layer}.{key}"] += val
            if "key" in s.info:
                root = sid
                while spans[root].parent is not None:
                    root = spans[root].parent
                if s.info["key"] in seen_keys[root]:
                    out[f"{s.name}.rebuilds"] += 1
                seen_keys[root].add(s.info["key"])
        out["trace.spans"] = len(spans)
        return dict(out)


def _union_length(intervals: list, lo: float, hi: float) -> float:
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
